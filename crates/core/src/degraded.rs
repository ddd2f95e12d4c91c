//! Degraded single-block reads: reconstruct one block's *data region*
//! (its contiguous file chunk) without rebuilding the whole block or
//! decoding the whole file.
//!
//! This is what a map task scheduled over a dead block needs (the paper's
//! §III discusses degraded reads at length): block `i`'s data units live in
//! the `K₀` carousel copies chosen for block `i`, and because the remapped
//! generator is block-diagonal across the `N₀` copies, each affected copy
//! can be decoded independently from the copy-`t` units of any `k`
//! available blocks. Total traffic: `k · αK₀` units `= k·(k/p)` block-sizes
//! — proportionally cheaper than RS's `k` full blocks when `p > k`.

use std::sync::LazyLock;

use erasure::{CodeError, ErasureCode as _};

use crate::Carousel;

static BLOCK_READS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("carousel.reads.block_degraded"));
static DEGRADED_TRAFFIC: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("carousel.degraded.traffic_units"));

/// A plan to reconstruct the data region of one (typically dead) block.
#[derive(Debug, Clone)]
pub struct BlockReadPlan {
    /// The block whose data region is being produced.
    target: usize,
    /// Per affected copy: the stored-unit sources and the solve matrix.
    copies: Vec<CopyPlan>,
    /// Data units per block (`α·K₀`) — the output is this many units.
    data_units: usize,
    sub: usize,
}

#[derive(Debug, Clone)]
struct CopyPlan {
    /// `(node, stored unit)` sources, `k·α` of them.
    sources: Vec<(usize, usize)>,
    /// For each output unit this copy contributes: `(position in the
    /// output data region, row of coefficients over the sources)`.
    outputs: Vec<(usize, Vec<gf256::Gf256>)>,
}

impl BlockReadPlan {
    /// Sources grouped per node: `(node, units fetched)`.
    pub fn units_per_node(&self) -> Vec<(usize, usize)> {
        let mut per: Vec<(usize, usize)> = Vec::new();
        for copy in &self.copies {
            for &(node, _) in &copy.sources {
                match per.iter_mut().find(|(nd, _)| *nd == node) {
                    Some((_, c)) => *c += 1,
                    None => per.push((node, 1)),
                }
            }
        }
        per
    }

    /// Total units fetched.
    pub fn traffic_units(&self) -> usize {
        self.copies.iter().map(|c| c.sources.len()).sum()
    }

    /// Traffic in block-sizes: `k·(k/p)` for a Carousel code.
    pub fn traffic_blocks(&self) -> f64 {
        self.traffic_units() as f64 / self.sub as f64
    }

    /// The block whose region this plan rebuilds.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Every `(node, stored unit)` source, flattened across copies in the
    /// order [`BlockReadPlan::decode_units`] expects.
    pub fn sources(&self) -> Vec<(usize, usize)> {
        self.copies
            .iter()
            .flat_map(|c| c.sources.iter().copied())
            .collect()
    }

    /// Unit-level execution: `units[i]` is the payload of `sources()[i]`,
    /// all of equal width `w`. Returns the `data_units · w` bytes of the
    /// target's data region.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InsufficientData`] on a count mismatch and
    /// [`CodeError::BlockSizeMismatch`] for ragged unit widths.
    pub fn decode_units(&self, units: &[&[u8]]) -> Result<Vec<u8>, CodeError> {
        let total: usize = self.copies.iter().map(|c| c.sources.len()).sum();
        if units.len() != total {
            return Err(CodeError::InsufficientData {
                needed: total,
                got: units.len(),
            });
        }
        let w = units[0].len();
        if let Some(bad) = units.iter().find(|u| u.len() != w) {
            return Err(CodeError::BlockSizeMismatch {
                expected: w,
                actual: bad.len(),
            });
        }
        let kernel = gf256::kernel();
        let mut out = vec![0u8; self.data_units * w];
        let mut terms = Vec::new();
        let mut off = 0;
        for copy in &self.copies {
            let slices = &units[off..off + copy.sources.len()];
            for (pos, row) in &copy.outputs {
                let dst = &mut out[pos * w..(pos + 1) * w];
                terms.clear();
                terms.extend(row.iter().zip(slices).map(|(&c, &src)| (c, src)));
                kernel.mul_acc_rows(&terms, dst);
            }
            off += copy.sources.len();
        }
        Ok(out)
    }

    /// Executes the plan: returns the `data_units · w` bytes of the
    /// target's data region (its contiguous file chunk).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InsufficientData`] if a source block is `None`
    /// and size-mismatch errors for ragged blocks.
    pub fn execute(&self, blocks: &[Option<&[u8]>]) -> Result<Vec<u8>, CodeError> {
        // Determine w from any available source block.
        let (first_node, _) = self.copies[0].sources[0];
        let sample = blocks
            .get(first_node)
            .copied()
            .flatten()
            .ok_or(CodeError::InsufficientData { needed: 1, got: 0 })?;
        if sample.len() % self.sub != 0 {
            return Err(CodeError::BlockSizeMismatch {
                expected: sample.len().next_multiple_of(self.sub),
                actual: sample.len(),
            });
        }
        let w = sample.len() / self.sub;
        let kernel = gf256::kernel();
        let mut out = vec![0u8; self.data_units * w];
        let mut terms = Vec::new();
        for copy in &self.copies {
            let mut slices = Vec::with_capacity(copy.sources.len());
            for &(node, unit) in &copy.sources {
                let block = blocks
                    .get(node)
                    .copied()
                    .flatten()
                    .ok_or(CodeError::InsufficientData { needed: 1, got: 0 })?;
                if block.len() != sample.len() {
                    return Err(CodeError::BlockSizeMismatch {
                        expected: sample.len(),
                        actual: block.len(),
                    });
                }
                slices.push(&block[unit * w..(unit + 1) * w]);
            }
            for (pos, row) in &copy.outputs {
                let dst = &mut out[pos * w..(pos + 1) * w];
                terms.clear();
                terms.extend(row.iter().zip(&slices).map(|(&c, &src)| (c, src)));
                kernel.mul_acc_rows(&terms, dst);
            }
        }
        Ok(out)
    }
}

/// Builds a [`BlockReadPlan`] for `target`'s data region using only the
/// `available` blocks (which must not include `target` — if it is
/// available, read the region directly).
///
/// # Errors
///
/// * [`CodeError::InvalidParameters`] if `target` carries no data
///   (`target ≥ p`);
/// * [`CodeError::InsufficientData`] if fewer than `k` blocks are
///   available;
/// * index errors for malformed availability lists.
pub(crate) fn plan_block_read(
    code: &Carousel,
    target: usize,
    available: &[usize],
) -> Result<BlockReadPlan, CodeError> {
    let params = code.params();
    let (n, k, p) = (params.n, params.k, params.p);
    if target >= p {
        return Err(CodeError::InvalidParameters {
            reason: format!("block {target} carries no original data (p = {p})"),
        });
    }
    for (i, &a) in available.iter().enumerate() {
        if a >= n {
            return Err(CodeError::NodeOutOfRange { node: a, n });
        }
        if available[i + 1..].contains(&a) {
            return Err(CodeError::DuplicateNode { node: a });
        }
    }
    let sources_pool: Vec<usize> = available.iter().copied().filter(|&a| a != target).collect();
    if sources_pool.len() < k {
        return Err(CodeError::InsufficientData {
            needed: k,
            got: sources_pool.len(),
        });
    }
    let (alpha, n0, k0) = (params.alpha, params.n0, params.k0);
    let sub = params.sub();
    let generator = code.linear().generator();

    // The target's data region holds file units in order; unit index u of
    // the region corresponds to message unit target*alpha*k0 + u, which
    // lives in copy t = chosen_ts(target)[u % k0] (segment-major order).
    let ts = params.chosen_ts(target);
    let region_base = target * alpha * k0;

    let mut copies = Vec::with_capacity(ts.len());
    for (ti, &t) in ts.iter().enumerate() {
        // Sources: copy-t units (all alpha segments) of k available blocks,
        // located at their *stored* positions.
        let mut sources = Vec::with_capacity(k * alpha);
        let mut rows = Vec::with_capacity(k * alpha);
        for &node in sources_pool.iter().take(k) {
            let perm = code.perm(node);
            for s in 0..alpha {
                let pre = s * n0 + t;
                let stored = perm
                    .iter()
                    .position(|&orig| orig == pre)
                    .expect("permutation covers all units");
                sources.push((node, stored));
                // The final generator is in stored order, so index the row
                // by the stored position, not the pre-reorder one.
                rows.push(node * sub + stored);
            }
        }
        // The copy-t message columns of the remapped code are the message
        // units whose defining chosen row lives in copy t: for each block
        // i < p, region position u belongs to copy chosen_ts(i)[u % K₀].
        let mut cols = Vec::with_capacity(k * alpha);
        for i in 0..p {
            let ts_i = params.chosen_ts(i);
            for u in 0..alpha * k0 {
                if ts_i[u % k0] == t {
                    cols.push(i * alpha * k0 + u);
                }
            }
        }
        debug_assert_eq!(cols.len(), k * alpha, "copy {t} column count");
        let system = generator.select(&rows, &cols);
        let inverse = system.inverse().ok_or(CodeError::SingularSelection)?;
        // Outputs: the target's region units in copy t are u ≡ ti (mod K₀).
        let mut outputs = Vec::with_capacity(alpha);
        for u in (ti..alpha * k0).step_by(k0) {
            let msg_unit = region_base + u;
            let col_idx = cols
                .iter()
                .position(|&c| c == msg_unit)
                .expect("message unit belongs to copy t");
            outputs.push((u, inverse.row(col_idx).to_vec()));
        }
        copies.push(CopyPlan { sources, outputs });
    }
    let plan = BlockReadPlan {
        target,
        copies,
        data_units: alpha * k0,
        sub,
    };
    BLOCK_READS.inc();
    DEGRADED_TRAFFIC.record(plan.traffic_units() as u64);
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use erasure::ErasureCode;

    fn check(n: usize, k: usize, d: usize, p: usize) {
        let code = Carousel::new(n, k, d, p).unwrap();
        let b = code.linear().message_units();
        let file: Vec<u8> = (0..b * 16).map(|i| (i * 37 + 11) as u8).collect();
        let stripe = code.linear().encode(&file).unwrap();
        let layout = code.data_layout();
        let w = stripe.unit_bytes;
        for target in 0..p {
            let available: Vec<usize> = (0..n).filter(|&i| i != target).collect();
            let plan = code.plan_block_read(target, &available).unwrap();
            let blocks: Vec<Option<&[u8]>> = (0..n)
                .map(|i| (i != target).then(|| &stripe.blocks[i][..]))
                .collect();
            let region = plan.execute(&blocks).unwrap();
            let expect = &stripe.blocks[target][layout.data_byte_range(target, w)];
            assert_eq!(region, expect, "({n},{k},{d},{p}) target {target}");
            // Traffic is k * (k/p) blocks.
            let expect_traffic = k as f64 * k as f64 / p as f64;
            assert!(
                (plan.traffic_blocks() - expect_traffic).abs() < 1e-9,
                "({n},{k},{d},{p}): {} vs {}",
                plan.traffic_blocks(),
                expect_traffic
            );
        }
    }

    #[test]
    fn rebuilds_data_regions_rs_base() {
        check(3, 2, 2, 3);
        check(6, 4, 4, 6);
        check(10, 4, 4, 8);
    }

    #[test]
    fn rebuilds_data_regions_msr_base() {
        check(12, 6, 10, 10);
        check(12, 6, 10, 12);
        check(8, 4, 7, 8);
    }

    #[test]
    fn cheaper_than_whole_file_decode() {
        let code = Carousel::new(12, 6, 10, 12).unwrap();
        let available: Vec<usize> = (1..12).collect();
        let plan = code.plan_block_read(0, &available).unwrap();
        // 6 * 6/12 = 3 blocks, versus 6 blocks for a full decode.
        assert!((plan.traffic_blocks() - 3.0).abs() < 1e-9);
        assert_eq!(plan.target(), 0);
        assert_eq!(plan.units_per_node().len(), 6);
    }

    #[test]
    fn rejects_parity_only_targets_and_thin_availability() {
        let code = Carousel::new(12, 6, 10, 10).unwrap();
        assert!(matches!(
            code.plan_block_read(11, &(0..11).collect::<Vec<_>>()),
            Err(CodeError::InvalidParameters { .. })
        ));
        assert!(matches!(
            code.plan_block_read(0, &[1, 2, 3]),
            Err(CodeError::InsufficientData { .. })
        ));
        assert!(matches!(
            code.plan_block_read(0, &[1, 1, 2, 3, 4, 5]),
            Err(CodeError::DuplicateNode { .. })
        ));
    }

    #[test]
    fn decode_units_matches_execute() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let file: Vec<u8> = (0..code.linear().message_units() * 8)
            .map(|i| (i * 13 + 3) as u8)
            .collect();
        let stripe = code.linear().encode(&file).unwrap();
        let w = stripe.unit_bytes;
        let available: Vec<usize> = (1..6).collect();
        let plan = code.plan_block_read(0, &available).unwrap();
        let blocks: Vec<Option<&[u8]>> = (0..6)
            .map(|i| (i != 0).then(|| &stripe.blocks[i][..]))
            .collect();
        let by_blocks = plan.execute(&blocks).unwrap();
        let units: Vec<&[u8]> = plan
            .sources()
            .iter()
            .map(|&(nd, u)| &stripe.blocks[nd][u * w..(u + 1) * w])
            .collect();
        let by_units = plan.decode_units(&units).unwrap();
        assert_eq!(by_blocks, by_units);
        // Count and width mismatches are rejected.
        assert!(plan.decode_units(&units[1..]).is_err());
        let mut ragged = units.clone();
        ragged[0] = &units[0][..w - 1];
        assert!(plan.decode_units(&ragged).is_err());
    }

    #[test]
    fn execute_detects_missing_sources() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let file: Vec<u8> = (0..code.linear().message_units() * 4)
            .map(|i| i as u8)
            .collect();
        let stripe = code.linear().encode(&file).unwrap();
        let plan = code
            .plan_block_read(0, &(1..6).collect::<Vec<_>>())
            .unwrap();
        let mut blocks: Vec<Option<&[u8]>> = stripe.blocks.iter().map(|b| Some(&b[..])).collect();
        // Remove one of the planned sources.
        let (victim, _) = plan.units_per_node()[0];
        blocks[victim] = None;
        assert!(plan.execute(&blocks).is_err());
    }
}
