//! The transport abstraction: everything the executor needs from a place
//! that holds encoded blocks.
//!
//! A [`BlockSource`] serves one stripe. Implementations in this workspace:
//! [`MemorySource`] (blocks in RAM — the `filestore` backend), the
//! simulated datanode store in `dfs`, and the TCP client in `cluster`.
//! The contract that makes replanning work: *expected* failures (a dead
//! node, a missing block, a truncated payload) are reported as
//! [`Fetch::Unavailable`], not as `Err` — `Err` is reserved for faults the
//! executor cannot route around (protocol violations, local I/O errors).
//!
//! Fetches come in two shapes: the scalar [`BlockSource::fetch_units`] /
//! [`BlockSource::repair_read`] calls, and the batched
//! [`BlockSource::fetch_batch`], which hands a transport *every* request
//! of one plan at once so it can fan them out to distinct nodes
//! concurrently. The default batch implementation loops over the scalar
//! calls, so the two shapes are semantically interchangeable — a property
//! the consistency proptests pin down.

use erasure::HelperTask;

/// Result of asking a source for bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fetch {
    /// The requested payload, exactly as long as requested.
    Data(Vec<u8>),
    /// The node could not serve the request (dead, missing block…); the
    /// executor will drop it from the availability set and replan.
    Unavailable,
}

/// One request of a batched fetch — the unit the executor hands to
/// [`BlockSource::fetch_batch`]. Each request targets one node; a plan's
/// batch never addresses the same node twice, so a transport may serve
/// every request of a batch concurrently.
#[derive(Debug, Clone)]
pub enum BatchRequest<'a> {
    /// Fetch the listed stored units of `node`, concatenated in order —
    /// the batched form of [`BlockSource::fetch_units`].
    Units {
        /// The node (block slot) to read from.
        node: usize,
        /// Stored unit indices, in the order wanted back.
        units: Vec<usize>,
    },
    /// Helper-side repair read of `node` under `task` — the batched form
    /// of [`BlockSource::repair_read`].
    Repair {
        /// The helper node to read from.
        node: usize,
        /// The helper's `β × sub` coefficient task.
        task: &'a HelperTask,
    },
    /// Fetch the listed `slice_bytes`-wide slices of `node`'s block,
    /// concatenated in order — the batched form of
    /// [`BlockSource::fetch_slices`].
    Slices {
        /// The node (block slot) to read from.
        node: usize,
        /// Slice width in bytes; divides the unit width.
        slice_bytes: usize,
        /// Slice indices, in the order wanted back.
        slices: Vec<usize>,
    },
}

impl BatchRequest<'_> {
    /// The node this request targets.
    pub fn node(&self) -> usize {
        match self {
            BatchRequest::Units { node, .. }
            | BatchRequest::Repair { node, .. }
            | BatchRequest::Slices { node, .. } => *node,
        }
    }
}

/// One stripe's worth of remotely (or locally) stored blocks.
pub trait BlockSource {
    /// Transport-fatal error type (never used for a merely-dead node).
    type Error;

    /// Number of block slots in the stripe (`n`).
    fn block_count(&self) -> usize;

    /// Width of one stored unit in bytes (`block_bytes / sub`).
    fn unit_bytes(&self) -> usize;

    /// Blocks currently believed readable. The executor plans against this
    /// set and shrinks it as fetches fail.
    fn available(&mut self) -> Vec<usize>;

    /// Fetches the given stored units of `node`, concatenated in order;
    /// each unit is [`BlockSource::unit_bytes`] long.
    ///
    /// # Errors
    ///
    /// Only for transport-fatal faults; an unreachable node is
    /// `Ok(Fetch::Unavailable)`.
    fn fetch_units(&mut self, node: usize, units: &[usize]) -> Result<Fetch, Self::Error>;

    /// Helper-side repair read: applies `task`'s `β × sub` coefficient
    /// matrix to `node`'s block and returns the `β·w`-byte payload. The
    /// default fetches the whole block and combines locally; transports
    /// with compute at the node (the cluster's `RepairRead`) push the
    /// matrix down so only `β·w` bytes cross the wire.
    ///
    /// # Errors
    ///
    /// Only for transport-fatal faults.
    fn repair_read(&mut self, node: usize, task: &HelperTask) -> Result<Fetch, Self::Error> {
        let sub = task.coeffs.cols();
        let units: Vec<usize> = (0..sub).collect();
        match self.fetch_units(node, &units)? {
            Fetch::Data(block) => Ok(task.run(&block).map_or(Fetch::Unavailable, Fetch::Data)),
            Fetch::Unavailable => Ok(Fetch::Unavailable),
        }
    }

    /// Fetches `slice_bytes`-wide slices of `node`'s block, concatenated
    /// in order: slice `s` is block bytes `s·g..(s+1)·g`, and `g` must
    /// divide [`BlockSource::unit_bytes`] so no slice straddles a unit.
    /// The default fetches the stored units holding the slices and cuts
    /// them out; a transport that can address slices natively serves
    /// [`BatchRequest::Slices`] itself (the cluster sends `GetUnits` with
    /// `sub = block_bytes / g`) so only the slices travel.
    ///
    /// # Errors
    ///
    /// Only for transport-fatal faults; an unreachable node, or a slice
    /// width that does not tile the units, is `Ok(Fetch::Unavailable)`.
    fn fetch_slices(
        &mut self,
        node: usize,
        slice_bytes: usize,
        slices: &[usize],
    ) -> Result<Fetch, Self::Error> {
        let (w, g) = (self.unit_bytes(), slice_bytes);
        if g == 0 || w == 0 || !w.is_multiple_of(g) {
            return Ok(Fetch::Unavailable);
        }
        let mut units: Vec<usize> = slices.iter().map(|&s| s * g / w).collect();
        units.sort_unstable();
        units.dedup();
        match self.fetch_units(node, &units)? {
            Fetch::Data(bytes) if bytes.len() == units.len() * w => {
                let mut out = Vec::with_capacity(slices.len() * g);
                for &s in slices {
                    let at = units.binary_search(&(s * g / w)).expect("unit listed") * w;
                    let from = at + s * g % w;
                    out.extend_from_slice(&bytes[from..from + g]);
                }
                Ok(Fetch::Data(out))
            }
            _ => Ok(Fetch::Unavailable),
        }
    }

    /// Serves every request of one plan in a single call.
    ///
    /// The contract, which the default sequential loop realizes trivially
    /// and which every override must preserve:
    ///
    /// * **ordering** — the result has exactly one [`Fetch`] per request,
    ///   at the request's index;
    /// * **partial failure** — a node that cannot serve yields
    ///   [`Fetch::Unavailable`] *at its slot* without disturbing the other
    ///   requests; the executor collects every failed slot of the batch
    ///   and replans once around all of them;
    /// * **fatal failure** — `Err` aborts the whole batch, exactly as a
    ///   scalar `Err` aborts the operation.
    ///
    /// Transports whose requests leave the process (the TCP cluster)
    /// override this to fan the batch out to all nodes concurrently —
    /// that is where planned parallelism becomes wall-clock parallelism.
    ///
    /// # Errors
    ///
    /// Only for transport-fatal faults.
    fn fetch_batch(&mut self, requests: &[BatchRequest<'_>]) -> Result<Vec<Fetch>, Self::Error> {
        requests
            .iter()
            .map(|request| match request {
                BatchRequest::Units { node, units } => self.fetch_units(*node, units),
                BatchRequest::Repair { node, task } => self.repair_read(*node, task),
                BatchRequest::Slices {
                    node,
                    slice_bytes,
                    slices,
                } => self.fetch_slices(*node, *slice_bytes, slices),
            })
            .collect()
    }
}

/// A [`BlockSource`] over blocks already in memory — the `filestore`
/// transport, and the reference implementation the consistency proptests
/// compare the real transports against.
#[derive(Debug)]
pub struct MemorySource<'a> {
    blocks: Vec<Option<&'a [u8]>>,
    sub: usize,
    unit_bytes: usize,
}

impl<'a> MemorySource<'a> {
    /// Wraps one stripe's blocks (`None` = lost) with sub-packetization
    /// `sub`. All present blocks must share one length divisible by `sub`.
    pub fn new(blocks: Vec<Option<&'a [u8]>>, sub: usize) -> Self {
        let block_bytes = blocks.iter().flatten().next().map_or(0, |b| b.len());
        MemorySource {
            blocks,
            sub,
            unit_bytes: block_bytes / sub.max(1),
        }
    }

    /// The stored block at `node`, if present and well-formed.
    fn whole_block(&self, node: usize) -> Option<&'a [u8]> {
        let block = self.blocks.get(node).copied().flatten()?;
        (block.len() == self.sub * self.unit_bytes).then_some(block)
    }

    /// Serves one unit-fetch request without going through `&mut self`.
    fn serve_units(&self, node: usize, units: &[usize]) -> Fetch {
        let Some(block) = self.whole_block(node) else {
            return Fetch::Unavailable;
        };
        let w = self.unit_bytes;
        let mut out = Vec::with_capacity(units.len() * w);
        for &u in units {
            if u >= self.sub {
                return Fetch::Unavailable;
            }
            out.extend_from_slice(&block[u * w..(u + 1) * w]);
        }
        Fetch::Data(out)
    }
}

impl BlockSource for MemorySource<'_> {
    type Error = std::convert::Infallible;

    fn block_count(&self) -> usize {
        self.blocks.len()
    }

    fn unit_bytes(&self) -> usize {
        self.unit_bytes
    }

    fn available(&mut self) -> Vec<usize> {
        (0..self.blocks.len())
            .filter(|&i| self.blocks[i].is_some())
            .collect()
    }

    fn fetch_units(&mut self, node: usize, units: &[usize]) -> Result<Fetch, Self::Error> {
        Ok(self.serve_units(node, units))
    }

    /// Native batch entry: every block is already in memory, so the whole
    /// batch is answered in one pass with no per-request dispatch. Repair
    /// requests run the helper task directly on the stored block slice,
    /// skipping the default path's intermediate block copy; slice
    /// requests take the default unit-based slice fetch.
    fn fetch_batch(&mut self, requests: &[BatchRequest<'_>]) -> Result<Vec<Fetch>, Self::Error> {
        requests
            .iter()
            .map(|request| match request {
                BatchRequest::Units { node, units } => Ok(self.serve_units(*node, units)),
                BatchRequest::Repair { node, task } => Ok(match self.whole_block(*node) {
                    Some(block) => task.run(block).map_or(Fetch::Unavailable, Fetch::Data),
                    None => Fetch::Unavailable,
                }),
                BatchRequest::Slices {
                    node,
                    slice_bytes,
                    slices,
                } => self.fetch_slices(*node, *slice_bytes, slices),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_source_serves_units_and_reports_losses() {
        let a = [1u8, 2, 3, 4];
        let b = [5u8, 6, 7, 8];
        let mut src = MemorySource::new(vec![Some(&a[..]), None, Some(&b[..])], 2);
        assert_eq!(src.block_count(), 3);
        assert_eq!(src.unit_bytes(), 2);
        assert_eq!(src.available(), vec![0, 2]);
        assert_eq!(
            src.fetch_units(0, &[1, 0]).unwrap(),
            Fetch::Data(vec![3, 4, 1, 2])
        );
        assert_eq!(src.fetch_units(1, &[0]).unwrap(), Fetch::Unavailable);
        assert_eq!(src.fetch_units(2, &[7]).unwrap(), Fetch::Unavailable);
    }

    #[test]
    fn batch_preserves_order_and_isolates_failures() {
        let a = [1u8, 2, 3, 4];
        let b = [5u8, 6, 7, 8];
        let mut src = MemorySource::new(vec![Some(&a[..]), None, Some(&b[..])], 2);
        let requests = vec![
            BatchRequest::Units {
                node: 2,
                units: vec![0],
            },
            BatchRequest::Units {
                node: 1,
                units: vec![0],
            },
            BatchRequest::Units {
                node: 0,
                units: vec![1, 0],
            },
        ];
        assert_eq!(requests[1].node(), 1);
        let fetches = src.fetch_batch(&requests).unwrap();
        assert_eq!(
            fetches,
            vec![
                Fetch::Data(vec![5, 6]),
                Fetch::Unavailable,
                Fetch::Data(vec![3, 4, 1, 2]),
            ]
        );
    }
}
