//! Direct ranged reads: a byte range of one stripe's original data mapped
//! through the code's [`DataLayout`] to the block slices that hold it.
//!
//! The paper's prototype exposes "the boundary between the original data
//! and parity data in each block" (§VIII-A) so readers can take original
//! data straight from the blocks that store it. A [`RangePlan`] is that
//! mapping for an arbitrary `(offset, len)`: it names, per data-bearing
//! block, the `g`-byte slices covering the range (`g =
//! erasure::slice_bytes(w)`, so slices never straddle a unit) and how to
//! cut the answers back into the requested bytes. Nothing is decoded: a
//! healthy ranged read moves at most `len + 2·g` bytes per touched unit.
//! The executor ([`crate::PlanExecutor::read_range`]) issues the plan and
//! falls back to a whole-stripe read when a touched block cannot serve.

use erasure::{CodeError, DataLayout};

use crate::source::BatchRequest;

/// One contiguous piece of the output: `len` bytes at `at` in request
/// `request`'s payload land at `out` in the range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Piece {
    request: usize,
    at: usize,
    out: usize,
    len: usize,
}

/// Which slices of which blocks hold a byte range of a stripe's original
/// data, and how their payloads reassemble into it. Pure data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangePlan {
    slice_bytes: usize,
    len: usize,
    /// `(block, slice indices)` per touched block, in first-touch order.
    requests: Vec<(usize, Vec<usize>)>,
    pieces: Vec<Piece>,
}

impl RangePlan {
    /// Plans a read of message bytes `offset..offset + len` of a stripe
    /// whose blocks hold `unit_bytes`-wide units laid out as `layout`
    /// says, fetching `erasure::slice_bytes(unit_bytes)`-byte slices.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::BlockSizeMismatch`] when the range runs past
    /// the stripe's `file_units · unit_bytes` message bytes or the unit
    /// width is zero.
    pub fn plan(
        layout: &DataLayout,
        unit_bytes: usize,
        offset: usize,
        len: usize,
    ) -> Result<Self, CodeError> {
        let w = unit_bytes;
        let message_bytes = layout.file_units() * w;
        let end = offset.saturating_add(len);
        if w == 0 || end > message_bytes {
            return Err(CodeError::BlockSizeMismatch {
                expected: message_bytes,
                actual: end,
            });
        }
        let g = erasure::slice_bytes(w);
        let mut plan = RangePlan {
            slice_bytes: g,
            len,
            requests: Vec::new(),
            pieces: Vec::new(),
        };
        if len == 0 {
            return Ok(plan);
        }
        // Where each touched file unit is stored, found in one pass over
        // the layout.
        let (first, last) = (offset / w, (end - 1) / w);
        let mut homes = vec![(0, 0); last - first + 1];
        for node in 0..layout.nodes() {
            for (unit, &fu) in layout.data_units_of(node).iter().enumerate() {
                if (first..=last).contains(&fu) {
                    homes[fu - first] = (node, unit);
                }
            }
        }
        for (fu, &(node, unit)) in (first..=last).zip(&homes) {
            let lo = offset.max(fu * w) - fu * w;
            let hi = end.min((fu + 1) * w) - fu * w;
            let (start, stop) = (unit * w + lo, unit * w + hi);
            let request = match plan.requests.iter().position(|r| r.0 == node) {
                Some(i) => i,
                None => {
                    plan.requests.push((node, Vec::new()));
                    plan.requests.len() - 1
                }
            };
            let slices = &mut plan.requests[request].1;
            plan.pieces.push(Piece {
                request,
                at: slices.len() * g + start % g,
                out: fu * w + lo - offset,
                len: hi - lo,
            });
            slices.extend(start / g..=(stop - 1) / g);
        }
        Ok(plan)
    }

    /// `true` for an empty range (nothing to fetch).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The blocks the plan reads, one per request.
    pub fn nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.requests.iter().map(|r| r.0)
    }

    /// The plan as one batch, a [`BatchRequest::Slices`] per block.
    pub fn batch(&self) -> Vec<BatchRequest<'static>> {
        self.requests
            .iter()
            .map(|(node, slices)| BatchRequest::Slices {
                node: *node,
                slice_bytes: self.slice_bytes,
                slices: slices.clone(),
            })
            .collect()
    }

    /// Expected payload length of request `i`.
    pub fn payload_len(&self, i: usize) -> usize {
        self.requests[i].1.len() * self.slice_bytes
    }

    /// Cuts the requested bytes out of the batch's payloads (`payloads[i]`
    /// answers request `i`, each exactly [`RangePlan::payload_len`] long).
    pub fn assemble(&self, payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = vec![0u8; self.len];
        for p in &self.pieces {
            out[p.out..p.out + p.len].copy_from_slice(&payloads[p.request][p.at..p.at + p.len]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{BlockSource, Fetch, MemorySource};
    use carousel::Carousel;
    use erasure::ErasureCode as _;

    /// Every range of a small Carousel stripe, planned and served from
    /// `MemorySource` through the default slice fetch, reassembles the
    /// exact message bytes — and fetches only slices around the range.
    #[test]
    fn planned_slices_reassemble_every_range() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let layout = code.data_layout();
        // w = 24 gives g = 8: three slices per unit, so ranges cross
        // slice, unit and block boundaries.
        let w = 24;
        let message: Vec<u8> = (0..code.linear().message_units() * w)
            .map(|i| (i * 41 + 7) as u8)
            .collect();
        let blocks = code.linear().encode(&message).unwrap().blocks;
        let refs: Vec<Option<&[u8]>> = blocks.iter().map(|b| Some(&b[..])).collect();
        for offset in 0..message.len() {
            for len in [0, 1, 7, 8, 9, 23, 24, 25, 47, 60, 100] {
                if offset + len > message.len() {
                    continue;
                }
                let plan = RangePlan::plan(&layout, w, offset, len).unwrap();
                let mut source = MemorySource::new(refs.clone(), code.linear().sub());
                let payloads: Vec<Vec<u8>> = plan
                    .batch()
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        let BatchRequest::Slices {
                            node,
                            slice_bytes,
                            slices,
                        } = r
                        else {
                            unreachable!()
                        };
                        assert_eq!(*slice_bytes, 8);
                        match source.fetch_slices(*node, *slice_bytes, slices).unwrap() {
                            Fetch::Data(bytes) => {
                                assert_eq!(bytes.len(), plan.payload_len(i));
                                bytes
                            }
                            Fetch::Unavailable => panic!("block {node} unavailable"),
                        }
                    })
                    .collect();
                let units = if len == 0 {
                    0
                } else {
                    (offset + len - 1) / w - offset / w + 1
                };
                let fetched: usize = payloads.iter().map(Vec::len).sum();
                assert!(fetched <= len + 2 * 8 * units, "{offset}+{len}: {fetched}");
                let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
                assert_eq!(
                    plan.assemble(&refs),
                    &message[offset..offset + len],
                    "{offset}+{len}"
                );
                // Only data-bearing blocks are ever asked.
                assert!(plan.nodes().all(|n| !layout.data_units_of(n).is_empty()));
            }
        }
        assert!(RangePlan::plan(&layout, w, message.len() - 1, 2).is_err());
    }
}
