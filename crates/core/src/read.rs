//! Parallel whole-file reads with flexible data parallelism (paper §VII).
//!
//! With all `p` data-bearing blocks available, the file is read by fetching
//! only the data regions of those `p` blocks — `k/p` of each block, from
//! `p` servers in parallel, with no decoding. When `q < p` of them are
//! available, each missing data-bearing block `i` is *replaced* by a
//! parity-only block, from which the reader fetches the units at block
//! `i`'s carousel positions; the paper proves the resulting `p`-block
//! selection always decodes. If even that is impossible (e.g. `p = n`), the
//! reader falls back to a generic `k`-block MDS decode.

use std::sync::LazyLock;

use erasure::{CodeError, DecodePlan, ErasureCode as _};

use crate::Carousel;

static READS_DIRECT: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("carousel.reads.direct"));
static READS_DEGRADED: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("carousel.reads.degraded"));
static READS_FALLBACK: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("carousel.reads.fallback"));
static READ_TRAFFIC: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("carousel.read.traffic_units"));

/// How a [`ReadPlan`] will obtain the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// All `p` data-bearing blocks available: pure parallel read, no GF
    /// arithmetic beyond copying.
    Direct,
    /// Some data-bearing blocks replaced by parity blocks; decoding needed.
    Degraded,
    /// Generic any-`k`-blocks MDS decode (fallback).
    Fallback,
}

/// A planned whole-file read: which units to fetch from which blocks, and
/// the linear combination that turns them into the file.
#[derive(Debug, Clone)]
pub struct ReadPlan {
    plan: DecodePlan,
    mode: ReadMode,
    units_per_node: Vec<(usize, usize)>,
    sub: usize,
}

impl ReadPlan {
    /// The read mode this plan uses.
    pub fn mode(&self) -> ReadMode {
        self.mode
    }

    /// `(node, units fetched)` pairs — the per-server download volume. With
    /// unit width `w`, node `i` serves `units · w` bytes.
    pub fn units_per_node(&self) -> &[(usize, usize)] {
        &self.units_per_node
    }

    /// Number of distinct servers read from — the achieved parallelism.
    pub fn parallelism(&self) -> usize {
        self.units_per_node.len()
    }

    /// Total units transferred.
    pub fn traffic_units(&self) -> usize {
        self.units_per_node.iter().map(|&(_, u)| u).sum()
    }

    /// Traffic in block-sizes.
    pub fn traffic_blocks(&self) -> f64 {
        self.traffic_units() as f64 / self.sub as f64
    }

    /// The exact `(node, stored unit)` pairs this plan reads, in the order
    /// [`ReadPlan::decode_units`] expects their payloads. A networked
    /// reader uses this to fetch *only* the needed units from each server
    /// instead of whole blocks.
    pub fn sources(&self) -> &[(usize, usize)] {
        self.plan.sources()
    }

    /// Decodes from pre-fetched unit payloads, one `w`-byte slice per
    /// [`ReadPlan::sources`] entry in the same order — the remote
    /// counterpart of [`ReadPlan::execute`], for callers that fetched units
    /// over the network rather than holding whole blocks.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InsufficientData`] on a count mismatch and
    /// size-mismatch errors for ragged slices.
    pub fn decode_units(&self, units: &[&[u8]]) -> Result<Vec<u8>, CodeError> {
        self.plan.decode_units(units)
    }

    /// Executes the plan against per-node blocks (`None` = unavailable).
    ///
    /// Returns the full (padded) file bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InsufficientData`] if a planned source block is
    /// `None`, and size-mismatch errors for ragged blocks.
    pub fn execute(&self, blocks: &[Option<&[u8]>]) -> Result<Vec<u8>, CodeError> {
        let mut slices = Vec::with_capacity(self.plan.sources().len());
        for &(node, unit) in self.plan.sources() {
            let block = blocks
                .get(node)
                .copied()
                .flatten()
                .ok_or(CodeError::InsufficientData {
                    needed: self.plan.sources().len(),
                    got: 0,
                })?;
            if block.len() % self.sub != 0 {
                return Err(CodeError::BlockSizeMismatch {
                    expected: block.len().next_multiple_of(self.sub),
                    actual: block.len(),
                });
            }
            let w = block.len() / self.sub;
            slices.push(&block[unit * w..(unit + 1) * w]);
        }
        self.plan.decode_units(&slices)
    }
}

/// Builds a [`ReadPlan`] for the available blocks. See the module docs for
/// the three paths.
pub(crate) fn plan(code: &Carousel, available: &[usize]) -> Result<ReadPlan, CodeError> {
    let params = code.params();
    let (n, k, p) = (params.n, params.k, params.p);
    for (i, &a) in available.iter().enumerate() {
        if a >= n {
            return Err(CodeError::NodeOutOfRange { node: a, n });
        }
        if available[i + 1..].contains(&a) {
            return Err(CodeError::DuplicateNode { node: a });
        }
    }
    if available.len() < k {
        return Err(CodeError::InsufficientData {
            needed: k,
            got: available.len(),
        });
    }
    let dpb = params.data_units_per_block();
    let missing: Vec<usize> = (0..p).filter(|i| !available.contains(i)).collect();

    if missing.is_empty() {
        // Direct parallel read: data regions of all p blocks.
        let units: Vec<(usize, usize)> =
            (0..p).flat_map(|i| (0..dpb).map(move |u| (i, u))).collect();
        let plan = DecodePlan::for_units(code.linear(), &units)?;
        return Ok(finish(code, plan, ReadMode::Direct));
    }

    // Degraded parallel read: replace each missing data-bearing block with a
    // parity-only block at the same carousel positions.
    let replacements: Vec<usize> = available.iter().copied().filter(|&a| a >= p).collect();
    if replacements.len() >= missing.len() {
        let mut units: Vec<(usize, usize)> = Vec::with_capacity(k * params.sub());
        for i in 0..p {
            if available.contains(&i) {
                units.extend((0..dpb).map(|u| (i, u)));
            }
        }
        for (i, &r) in missing.iter().zip(&replacements) {
            // Parity-only blocks are never reordered, so pre-reorder rows
            // are their stored positions.
            units.extend(params.chosen_rows(*i).into_iter().map(|u| (r, u)));
        }
        match DecodePlan::for_units(code.linear(), &units) {
            Ok(plan) => return Ok(finish(code, plan, ReadMode::Degraded)),
            Err(CodeError::SingularSelection) => { /* fall through to generic */ }
            Err(e) => return Err(e),
        }
    }

    // Fallback: plain MDS decode from any k available blocks.
    let nodes: Vec<usize> = available.iter().copied().take(k).collect();
    let plan = DecodePlan::for_nodes(code.linear(), &nodes)?;
    Ok(finish(code, plan, ReadMode::Fallback))
}

fn finish(code: &Carousel, plan: DecodePlan, mode: ReadMode) -> ReadPlan {
    let mut per_node: Vec<(usize, usize)> = Vec::new();
    for &(node, _) in plan.sources() {
        match per_node.iter_mut().find(|(nd, _)| *nd == node) {
            Some((_, c)) => *c += 1,
            None => per_node.push((node, 1)),
        }
    }
    let plan = ReadPlan {
        plan,
        mode,
        units_per_node: per_node,
        sub: code.sub(),
    };
    match mode {
        ReadMode::Direct => READS_DIRECT.inc(),
        ReadMode::Degraded => READS_DEGRADED.inc(),
        ReadMode::Fallback => READS_FALLBACK.inc(),
    }
    READ_TRAFFIC.record(plan.traffic_units() as u64);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use erasure::ErasureCode;

    fn stripe_for(code: &Carousel, len: usize) -> (Vec<u8>, erasure::EncodedStripe) {
        let data: Vec<u8> = (0..len).map(|i| (i * 7 + 13) as u8).collect();
        let stripe = code.linear().encode(&data).unwrap();
        (data, stripe)
    }

    fn opts(stripe: &erasure::EncodedStripe, avail: &[usize], n: usize) -> Vec<Option<Vec<u8>>> {
        (0..n)
            .map(|i| avail.contains(&i).then(|| stripe.blocks[i].clone()))
            .collect()
    }

    #[test]
    fn direct_read_uses_all_p_nodes() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let (data, stripe) = stripe_for(&code, 120);
        let plan = code.plan_read(&[0, 1, 2, 3, 4, 5]).unwrap();
        assert_eq!(plan.mode(), ReadMode::Direct);
        assert_eq!(plan.parallelism(), 6);
        // Direct read downloads exactly k blocks' worth of bytes.
        assert!((plan.traffic_blocks() - 3.0).abs() < 1e-9);
        let blocks = opts(&stripe, &[0, 1, 2, 3, 4, 5], 6);
        let refs: Vec<Option<&[u8]>> = blocks.iter().map(|b| b.as_deref()).collect();
        let out = plan.execute(&refs).unwrap();
        assert_eq!(&out[..data.len()], &data[..]);
    }

    #[test]
    fn degraded_read_replaces_missing_data_block() {
        // p = 4 < n = 6: blocks 4, 5 are parity-only replacements.
        let code = Carousel::new(6, 3, 3, 4).unwrap();
        let (data, stripe) = stripe_for(&code, 96);
        let avail = [0usize, 2, 3, 4, 5];
        let plan = code.plan_read(&avail).unwrap();
        assert_eq!(plan.mode(), ReadMode::Degraded);
        assert_eq!(plan.parallelism(), 4, "p blocks participate");
        let blocks = opts(&stripe, &avail, 6);
        let refs: Vec<Option<&[u8]>> = blocks.iter().map(|b| b.as_deref()).collect();
        let out = plan.execute(&refs).unwrap();
        assert_eq!(&out[..data.len()], &data[..]);
    }

    #[test]
    fn fallback_when_p_equals_n_and_block_lost() {
        let code = Carousel::new(5, 3, 3, 5).unwrap();
        let (data, stripe) = stripe_for(&code, 90);
        let avail = [0usize, 1, 3, 4];
        let plan = code.plan_read(&avail).unwrap();
        assert_eq!(plan.mode(), ReadMode::Fallback);
        let blocks = opts(&stripe, &avail, 5);
        let refs: Vec<Option<&[u8]>> = blocks.iter().map(|b| b.as_deref()).collect();
        let out = plan.execute(&refs).unwrap();
        assert_eq!(&out[..data.len()], &data[..]);
    }

    #[test]
    fn read_requires_k_blocks() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        assert!(matches!(
            code.plan_read(&[0, 1]),
            Err(CodeError::InsufficientData { .. })
        ));
        assert!(matches!(
            code.plan_read(&[0, 0, 1]),
            Err(CodeError::DuplicateNode { .. })
        ));
        assert!(matches!(
            code.plan_read(&[0, 1, 9]),
            Err(CodeError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn execute_rejects_missing_planned_block() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let (_, stripe) = stripe_for(&code, 60);
        let plan = code.plan_read(&[0, 1, 2, 3, 4, 5]).unwrap();
        // Drop block 3 at execution time.
        let blocks = opts(&stripe, &[0, 1, 2, 4, 5], 6);
        let refs: Vec<Option<&[u8]>> = blocks.iter().map(|b| b.as_deref()).collect();
        assert!(plan.execute(&refs).is_err());
    }
}
