//! The one replanning loop.
//!
//! Every transport used to hand-roll the same state machine: plan against
//! believed availability, fetch, and when a node dies mid-read drop it and
//! replan. [`PlanExecutor`] is that machine, written once, bounded (a
//! cluster where nodes keep failing mid-read must not livelock), and generic
//! over [`BlockSource`] — so the in-memory store, the simulator and the TCP
//! client cannot diverge from each other or from the paper's math.
//!
//! Every fetch of a plan — the per-node unit reads of a stripe read, and
//! all `d` helper reads of a repair — is issued as *one*
//! [`BlockSource::fetch_batch`] call, so a transport can fan the requests
//! out to distinct nodes concurrently. Failures are collected per batch:
//! one replan routes around *every* node that failed in the round, not one
//! node at a time.

use std::sync::{Arc, LazyLock};

use erasure::CodeError;

use crate::cache::PlanCache;
use crate::plan::ReadPlan;
use crate::source::{BatchRequest, BlockSource, Fetch};
use crate::{AccessCode, ReadMode};

static FETCH_FANOUT: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("access.fetch.fanout"));
static REPAIR_DECODE: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("access.phase.decode_us"));

/// Default bound on mid-operation replans before giving up.
pub const DEFAULT_MAX_REPLANS: usize = 8;

/// Why an executor-driven operation failed.
#[derive(Debug)]
pub enum ExecError<E> {
    /// The transport hit a fault the executor cannot route around.
    Source(E),
    /// Planning or combining failed (most commonly
    /// [`CodeError::InsufficientData`]: too few blocks left).
    Code(CodeError),
    /// Nodes kept failing mid-operation until the replan budget ran out.
    ReplansExhausted {
        /// Replans attempted before giving up.
        attempts: usize,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for ExecError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Source(e) => write!(f, "block source error: {e}"),
            ExecError::Code(e) => write!(f, "planning error: {e}"),
            ExecError::ReplansExhausted { attempts } => {
                write!(f, "gave up after {attempts} mid-operation replans")
            }
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for ExecError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Source(e) => Some(e),
            ExecError::Code(e) => Some(e),
            ExecError::ReplansExhausted { .. } => None,
        }
    }
}

impl<E> From<CodeError> for ExecError<E> {
    fn from(e: CodeError) -> Self {
        ExecError::Code(e)
    }
}

/// A decoded stripe, with how it was obtained.
#[derive(Debug, Clone)]
pub struct StripeRead {
    /// The stripe's original data (padding included).
    pub data: Vec<u8>,
    /// The read mode of the plan that finally succeeded.
    pub mode: ReadMode,
    /// Mid-read replans that were needed (0 = first plan worked).
    pub replans: usize,
}

/// A fetched-but-not-yet-decoded stripe: the payloads of a successful
/// plan, still attached to the plan that knows how to decode them.
///
/// Splitting the fetch from the decode is what makes stripe pipelining
/// possible: the fetch half runs on a worker while the caller decodes the
/// previous stripe. The struct is pure data (the plan is `Arc`-shared pure
/// data too), so it crosses threads freely.
#[derive(Debug, Clone)]
pub struct FetchedStripe {
    plan: Arc<ReadPlan>,
    units: Vec<Vec<u8>>,
    replans: usize,
}

impl FetchedStripe {
    /// The read mode of the plan that succeeded.
    pub fn mode(&self) -> ReadMode {
        self.plan.mode()
    }

    /// Mid-read replans that were needed (0 = first plan worked).
    pub fn replans(&self) -> usize {
        self.replans
    }

    /// Decodes the fetched units into the stripe's original data
    /// (padding included) — the deferred half of
    /// [`PlanExecutor::read_stripe`].
    ///
    /// # Errors
    ///
    /// Propagates decode failures from the plan.
    pub fn decode(&self) -> Result<Vec<u8>, CodeError> {
        let slices: Vec<&[u8]> = self.units.iter().map(Vec::as_slice).collect();
        self.plan.decode_units(&slices)
    }
}

/// A reconstructed block data region, with how it was obtained.
#[derive(Debug, Clone)]
pub struct RegionRead {
    /// The target block's data region bytes.
    pub data: Vec<u8>,
    /// Mid-read replans that were needed.
    pub replans: usize,
}

/// A repaired block, with how it was obtained.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The rebuilt block, bit-identical to the lost one.
    pub block: Vec<u8>,
    /// Total helper payload bytes consumed by the successful plan — the
    /// paper's repair traffic (excludes payloads of abandoned attempts).
    pub payload_bytes: usize,
    /// Mid-repair replans that were needed.
    pub replans: usize,
}

/// Drives plans from a [`PlanCache`] against a [`BlockSource`], replanning
/// around mid-operation failures.
#[derive(Debug, Clone, Copy)]
pub struct PlanExecutor<'a> {
    cache: &'a PlanCache,
    max_replans: usize,
}

impl<'a> PlanExecutor<'a> {
    /// An executor planning through `cache` with the default replan budget.
    pub fn new(cache: &'a PlanCache) -> Self {
        PlanExecutor {
            cache,
            max_replans: DEFAULT_MAX_REPLANS,
        }
    }

    /// Overrides the replan budget.
    pub fn with_max_replans(mut self, max_replans: usize) -> Self {
        self.max_replans = max_replans;
        self
    }

    /// Fetches one stripe's units without decoding them: the plan and its
    /// payloads come back as a [`FetchedStripe`] whose
    /// [`decode`](FetchedStripe::decode) can run later, on another thread,
    /// overlapped with the next stripe's fetch.
    ///
    /// # Errors
    ///
    /// [`ExecError::Code`] when too few blocks remain, [`ExecError::Source`]
    /// on transport faults, [`ExecError::ReplansExhausted`] when the budget
    /// runs out.
    pub fn fetch_stripe<S: BlockSource>(
        &self,
        code: &dyn AccessCode,
        source: &mut S,
    ) -> Result<FetchedStripe, ExecError<S::Error>> {
        let mut available = source.available();
        available.sort_unstable();
        let w = source.unit_bytes();
        let mut replans = 0;
        loop {
            let plan = self.cache.read_plan(code, &available)?;
            match batch_units(plan.sources(), w, source).map_err(ExecError::Source)? {
                Ok(units) => {
                    return Ok(FetchedStripe {
                        plan,
                        units,
                        replans,
                    })
                }
                Err(dead) => {
                    available.retain(|n| !dead.contains(n));
                    replans += 1;
                    if replans > self.max_replans {
                        return Err(ExecError::ReplansExhausted { attempts: replans });
                    }
                }
            }
        }
    }

    /// Reads one stripe's original data, degrading and replanning as nodes
    /// fail.
    ///
    /// # Errors
    ///
    /// As for [`PlanExecutor::fetch_stripe`].
    pub fn read_stripe<S: BlockSource>(
        &self,
        code: &dyn AccessCode,
        source: &mut S,
    ) -> Result<StripeRead, ExecError<S::Error>> {
        let fetched = self.fetch_stripe(code, source)?;
        Ok(StripeRead {
            data: fetched.decode()?,
            mode: fetched.mode(),
            replans: fetched.replans(),
        })
    }

    /// Rebuilds the data region of block `target` (typically lost) without
    /// reading the whole stripe.
    ///
    /// # Errors
    ///
    /// As for [`PlanExecutor::fetch_stripe`].
    pub fn read_block_region<S: BlockSource>(
        &self,
        code: &dyn AccessCode,
        target: usize,
        source: &mut S,
    ) -> Result<RegionRead, ExecError<S::Error>> {
        let mut available = source.available();
        available.sort_unstable();
        available.retain(|&n| n != target);
        let w = source.unit_bytes();
        let mut replans = 0;
        loop {
            let plan = self.cache.degraded_plan(code, target, &available)?;
            match batch_units(&plan.sources(), w, source).map_err(ExecError::Source)? {
                Ok(units) => {
                    let slices: Vec<&[u8]> = units.iter().map(Vec::as_slice).collect();
                    let data = plan.decode_units(&slices)?;
                    return Ok(RegionRead { data, replans });
                }
                Err(dead) => {
                    available.retain(|n| !dead.contains(n));
                    replans += 1;
                    if replans > self.max_replans {
                        return Err(ExecError::ReplansExhausted { attempts: replans });
                    }
                }
            }
        }
    }

    /// Repairs block `failed` from `d` helpers, swapping in fresh helpers
    /// (and re-deriving coefficients) when one dies mid-repair. All `d`
    /// helper reads of a plan go out as one batch.
    ///
    /// # Errors
    ///
    /// As for [`PlanExecutor::fetch_stripe`].
    pub fn repair_block<S: BlockSource>(
        &self,
        code: &dyn AccessCode,
        failed: usize,
        source: &mut S,
    ) -> Result<RepairOutcome, ExecError<S::Error>> {
        let d = code.d();
        let mut available = source.available();
        available.sort_unstable();
        available.retain(|&n| n != failed);
        let w = source.unit_bytes();
        let mut replans = 0;
        loop {
            if available.len() < d {
                return Err(ExecError::Code(CodeError::InsufficientData {
                    needed: d,
                    got: available.len(),
                }));
            }
            let helpers: Vec<usize> = available.iter().copied().take(d).collect();
            let plan = self.cache.repair_plan(code, failed, &helpers)?;
            let requests: Vec<BatchRequest<'_>> = plan
                .helpers()
                .iter()
                .map(|task| BatchRequest::Repair {
                    node: task.node,
                    task,
                })
                .collect();
            FETCH_FANOUT.record(requests.len() as u64);
            let fetches = source.fetch_batch(&requests).map_err(ExecError::Source)?;
            let mut payloads = Vec::with_capacity(d);
            let mut dead = Vec::new();
            for (task, fetch) in plan.helpers().iter().zip(fetches) {
                match fetch {
                    Fetch::Data(bytes) if bytes.len() == task.beta() * w => payloads.push(bytes),
                    _ => dead.push(task.node),
                }
            }
            if dead.is_empty() && payloads.len() == plan.helpers().len() {
                let payload_bytes = payloads.iter().map(Vec::len).sum();
                let combined_at = std::time::Instant::now();
                let block = plan.combine_payloads(&payloads)?;
                REPAIR_DECODE.record(combined_at.elapsed().as_micros() as u64);
                return Ok(RepairOutcome {
                    block,
                    payload_bytes,
                    replans,
                });
            }
            // A short batch result (a source violating the contract) with
            // no named dead node cannot make progress; treat every helper
            // as suspect rather than loop forever.
            if dead.is_empty() {
                dead = helpers;
            }
            available.retain(|n| !dead.contains(n));
            replans += 1;
            if replans > self.max_replans {
                return Err(ExecError::ReplansExhausted { attempts: replans });
            }
        }
    }
}

/// Issues every `(node, unit)` source of a plan as one batch, grouping
/// per-node requests into one [`BatchRequest::Units`] each.
/// `Ok(Ok(units))` has payloads in source order; `Ok(Err(nodes))` lists
/// *every* node that failed to serve this round (including wrong-length
/// payloads, which are treated as the node lying and therefore dying);
/// `Err` is transport-fatal.
#[allow(clippy::type_complexity)]
fn batch_units<S: BlockSource>(
    sources: &[(usize, usize)],
    w: usize,
    source: &mut S,
) -> Result<Result<Vec<Vec<u8>>, Vec<usize>>, S::Error> {
    // Group per-node runs, remembering each unit's position in the plan.
    let mut requests: Vec<BatchRequest<'static>> = Vec::new();
    let mut positions: Vec<Vec<usize>> = Vec::new();
    for (pos, &(node, unit)) in sources.iter().enumerate() {
        match requests.iter().position(|r| r.node() == node) {
            Some(i) => {
                let BatchRequest::Units { units, .. } = &mut requests[i] else {
                    unreachable!("unit batches hold only unit requests");
                };
                units.push(unit);
                positions[i].push(pos);
            }
            None => {
                requests.push(BatchRequest::Units {
                    node,
                    units: vec![unit],
                });
                positions.push(vec![pos]);
            }
        }
    }
    FETCH_FANOUT.record(requests.len() as u64);
    let fetches = source.fetch_batch(&requests)?;
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); sources.len()];
    let mut failed = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        match fetches.get(i) {
            Some(Fetch::Data(bytes)) if bytes.len() == positions[i].len() * w => {
                for (j, &pos) in positions[i].iter().enumerate() {
                    out[pos] = bytes[j * w..(j + 1) * w].to_vec();
                }
            }
            _ => failed.push(request.node()),
        }
    }
    if failed.is_empty() {
        Ok(Ok(out))
    } else {
        Ok(Err(failed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::MemorySource;
    use carousel::Carousel;
    use erasure::ErasureCode as _;

    fn encoded(code: &Carousel, stripes_of: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
        let b = code.linear().message_units();
        let data: Vec<u8> = (0..b * stripes_of).map(|i| (i * 37 + 11) as u8).collect();
        let stripe = code.linear().encode(&data).unwrap();
        (data, stripe.blocks)
    }

    /// A source that silently drops nodes after their first successful
    /// serve — the kill-mid-read scenario, batched.
    struct FlakySource<'a> {
        inner: MemorySource<'a>,
        dies_after_serving: Vec<usize>,
        served: bool,
    }

    impl BlockSource for FlakySource<'_> {
        type Error = std::convert::Infallible;
        fn block_count(&self) -> usize {
            self.inner.block_count()
        }
        fn unit_bytes(&self) -> usize {
            self.inner.unit_bytes()
        }
        fn available(&mut self) -> Vec<usize> {
            self.inner.available()
        }
        fn fetch_units(&mut self, node: usize, units: &[usize]) -> Result<Fetch, Self::Error> {
            if self.dies_after_serving.contains(&node) {
                if self.served {
                    return Ok(Fetch::Unavailable);
                }
                self.served = true;
            }
            self.inner.fetch_units(node, units)
        }
    }

    #[test]
    fn reads_degrade_and_replan() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let (data, blocks) = encoded(&code, 8);
        let cache = PlanCache::new(8);
        let executor = PlanExecutor::new(&cache);

        // All blocks live: direct read.
        let refs: Vec<Option<&[u8]>> = blocks.iter().map(|b| Some(&b[..])).collect();
        let read = executor
            .read_stripe(&code, &mut MemorySource::new(refs, code.sub()))
            .unwrap();
        assert_eq!(read.mode, ReadMode::Direct);
        assert_eq!(read.replans, 0);
        assert_eq!(&read.data[..data.len()], &data[..]);

        // One block lost: degraded, still byte-identical.
        let refs: Vec<Option<&[u8]>> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (i != 2).then_some(&b[..]))
            .collect();
        let read = executor
            .read_stripe(&code, &mut MemorySource::new(refs, code.sub()))
            .unwrap();
        assert_ne!(read.mode, ReadMode::Direct);
        assert_eq!(&read.data[..data.len()], &data[..]);
    }

    #[test]
    fn mid_read_failure_triggers_replan() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let (data, blocks) = encoded(&code, 8);
        let cache = PlanCache::new(8);
        let executor = PlanExecutor::new(&cache);
        let refs: Vec<Option<&[u8]>> = blocks.iter().map(|b| Some(&b[..])).collect();
        let mut source = FlakySource {
            inner: MemorySource::new(refs, code.sub()),
            dies_after_serving: vec![0],
            served: true, // dead from the start, but still listed available
        };
        let read = executor.read_stripe(&code, &mut source).unwrap();
        assert!(read.replans >= 1);
        assert_eq!(&read.data[..data.len()], &data[..]);
    }

    /// Batched replanning routes around *all* of a round's failures at
    /// once: two nodes dead-but-listed cost one replan, not two.
    #[test]
    fn batch_failures_share_one_replan() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let (data, blocks) = encoded(&code, 8);
        let cache = PlanCache::new(8);
        let executor = PlanExecutor::new(&cache);
        let refs: Vec<Option<&[u8]>> = blocks.iter().map(|b| Some(&b[..])).collect();
        let mut source = FlakySource {
            inner: MemorySource::new(refs, code.sub()),
            dies_after_serving: vec![0, 3],
            served: true, // both dead from the start, still listed available
        };
        let read = executor.read_stripe(&code, &mut source).unwrap();
        assert_eq!(read.replans, 1, "both failures handled in one replan");
        assert_eq!(&read.data[..data.len()], &data[..]);
    }

    #[test]
    fn fetch_decode_split_matches_read_stripe() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let (data, blocks) = encoded(&code, 8);
        let cache = PlanCache::new(8);
        let executor = PlanExecutor::new(&cache);
        let refs: Vec<Option<&[u8]>> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (i != 1).then_some(&b[..]))
            .collect();
        let fetched = executor
            .fetch_stripe(&code, &mut MemorySource::new(refs, code.sub()))
            .unwrap();
        assert_ne!(fetched.mode(), ReadMode::Direct);
        assert_eq!(fetched.replans(), 0);
        assert_eq!(&fetched.decode().unwrap()[..data.len()], &data[..]);
    }

    #[test]
    fn replan_budget_is_enforced() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let (_, blocks) = encoded(&code, 4);

        /// Fails exactly the first request of every batch, so each round
        /// loses one more node and the budget, not the availability set,
        /// is what runs out.
        struct FirstRequestFails<'a> {
            inner: MemorySource<'a>,
        }
        impl BlockSource for FirstRequestFails<'_> {
            type Error = std::convert::Infallible;
            fn block_count(&self) -> usize {
                self.inner.block_count()
            }
            fn unit_bytes(&self) -> usize {
                self.inner.unit_bytes()
            }
            fn available(&mut self) -> Vec<usize> {
                self.inner.available()
            }
            fn fetch_units(&mut self, node: usize, units: &[usize]) -> Result<Fetch, Self::Error> {
                self.inner.fetch_units(node, units)
            }
            fn fetch_batch(
                &mut self,
                requests: &[BatchRequest<'_>],
            ) -> Result<Vec<Fetch>, Self::Error> {
                let mut fetches = self.inner.fetch_batch(requests)?;
                if let Some(first) = fetches.first_mut() {
                    *first = Fetch::Unavailable;
                }
                Ok(fetches)
            }
        }

        let cache = PlanCache::new(8);
        let executor = PlanExecutor::new(&cache).with_max_replans(2);
        let refs: Vec<Option<&[u8]>> = blocks.iter().map(|b| Some(&b[..])).collect();
        let mut source = FirstRequestFails {
            inner: MemorySource::new(refs, code.sub()),
        };
        match executor.read_stripe(&code, &mut source) {
            Err(ExecError::ReplansExhausted { attempts }) => assert_eq!(attempts, 3),
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn block_region_read_matches_stored_block() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let (_, blocks) = encoded(&code, 8);
        let layout = code.data_layout();
        let w = blocks[0].len() / code.sub();
        let cache = PlanCache::new(8);
        let executor = PlanExecutor::new(&cache);
        let refs: Vec<Option<&[u8]>> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (i != 1).then_some(&b[..]))
            .collect();
        let region = executor
            .read_block_region(&code, 1, &mut MemorySource::new(refs, code.sub()))
            .unwrap();
        assert_eq!(region.data, blocks[1][layout.data_byte_range(1, w)]);
    }

    #[test]
    fn repair_rebuilds_bit_identical_blocks() {
        for (n, k, d, p) in [(6, 3, 3, 6), (8, 4, 6, 8)] {
            let code = Carousel::new(n, k, d, p).unwrap();
            let (_, blocks) = encoded(&code, 8);
            let cache = PlanCache::new(8);
            let executor = PlanExecutor::new(&cache);
            let refs: Vec<Option<&[u8]>> = blocks
                .iter()
                .enumerate()
                .map(|(i, b)| (i != 0).then_some(&b[..]))
                .collect();
            let outcome = executor
                .repair_block(&code, 0, &mut MemorySource::new(refs, code.sub()))
                .unwrap();
            assert_eq!(outcome.block, blocks[0], "({n},{k},{d},{p})");
            let w = blocks[0].len() / code.sub();
            let expect_units: usize = code
                .repair_plan(0, &(1..=d).collect::<Vec<_>>())
                .unwrap()
                .traffic_units();
            assert_eq!(outcome.payload_bytes, expect_units * w);
        }
    }

    #[test]
    fn repeated_degraded_reads_hit_the_cache() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let cache = PlanCache::new(8);
        let executor = PlanExecutor::new(&cache);
        for _ in 0..10 {
            let (d, blocks) = encoded(&code, 8);
            let refs: Vec<Option<&[u8]>> = blocks
                .iter()
                .enumerate()
                .map(|(i, b)| (i != 4).then_some(&b[..]))
                .collect();
            let read = executor
                .read_stripe(&code, &mut MemorySource::new(refs, code.sub()))
                .unwrap();
            assert_eq!(&read.data[..d.len()], &d[..]);
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 9);
        assert!(cache.hit_rate() >= 0.9);
    }
}
