//! The cluster client: encode-and-place writes, parallel/degraded reads,
//! and optimal-traffic repair, all over real TCP.
//!
//! The client is a thin transport under the `access` layer: it exposes the
//! datanodes of one stripe as a [`BlockSource`] and lets
//! [`access::PlanExecutor`] drive the paper's three read paths:
//!
//! * **direct parallel read** — with all `p` data-bearing blocks
//!   reachable, fetch only the data regions (`k/p` of each block) from
//!   `p` servers via [`Request::GetUnits`];
//! * **degraded read** — when a datanode dies (even mid-read), the
//!   failure is reported to the coordinator, the stripe is *replanned*
//!   against the surviving blocks, and parity units fill the gap;
//! * **repair** — a lost block is rebuilt by shipping each helper its
//!   `β × sub` coefficient matrix ([`Request::RepairRead`]) so only
//!   `d/(d−k+1)` block-sizes cross the network in the MSR regime.
//!
//! Planned parallelism becomes *wall-clock* parallelism in two layers:
//!
//! * **fan-out** — every fetch of a plan arrives at the [`StripeSource`]
//!   as one `fetch_batch`, and the source spreads the per-node requests
//!   over the client's [`ParallelCtx`] workers, each on its own cached
//!   connection, so one stripe's `p` unit reads (or `d` helper reads) hit
//!   all nodes concurrently instead of paying `p` sequential round trips;
//! * **stripe pipelining** — [`ClusterClient::get_file`] keeps up to `W`
//!   ([`ClusterClient::with_pipeline_depth`]) stripes in flight, decoding
//!   stripe `i` while stripe `i+1` is being fetched, and
//!   [`ClusterClient::put_file`] overlaps stripe encoding with block
//!   uploads, recycling `EncodedStripe` buffers through the pipeline.
//!
//! Decode plans are memoized in an [`access::PlanCache`] keyed by the
//! availability pattern, and mid-operation replanning is bounded: a cluster
//! whose nodes keep failing surfaces [`ClusterError::ReplansExhausted`]
//! instead of retrying forever.
//!
//! Every byte in and out of the client is counted (and exported through
//! `carousel-telemetry`), so repair and read traffic are *measured*, not
//! asserted. Workers count bytes in private [`Tally`] values folded into
//! the client's totals after each operation — no shared counter is
//! touched on the hot path.

use std::collections::HashMap;
use std::net::TcpStream;
use std::ops::AddAssign;
use std::sync::{Arc, LazyLock, Mutex};
use std::time::{Duration, Instant};

use access::{
    BatchRequest, BlockSource, ExecError, Fetch, FetchedStripe, ObjectStore, PlanCache,
    PlanExecutor, PutOptions, ReadMode,
};
use dfs::Placement;
use erasure::{CodeError, ColumnUpdater, ErasureCode as _, HelperTask};
use filestore::format::CodeSpec;
use filestore::{FileCodec, FileError, DEFAULT_PACK_LIMIT, PACK_PREFIX};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::parallel::{self, ParallelCtx};

use crate::coordinator::{Coordinator, FilePlacement, ObjectExtent};
use crate::error::ClusterError;
use crate::protocol::{self, BlockId, Request, Response};
use crate::repair::{FanInGate, RepairStatusReport};
use crate::router::MetaRouter;

static CLIENT_TX: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.client.tx_bytes"));
static CLIENT_RX: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.client.rx_bytes"));
static READS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.reads"));
static READS_DEGRADED: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.reads.degraded"));
static REPAIR_BLOCKS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.repair.blocks"));
static REPAIR_WIRE: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.repair.wire_bytes"));
static PIPELINE_INFLIGHT: LazyLock<&'static telemetry::Gauge> =
    LazyLock::new(|| telemetry::gauge("cluster.pipeline.inflight"));
static FETCH_STALL: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("cluster.fetch.stall_us"));
// Per-exchange phase timings: where a slow request actually spent its
// time. `connect` is only recorded when a fresh socket is opened, so its
// count doubles as a cache-miss counter.
static PHASE_CONNECT: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("cluster.phase.connect_us"));
static PHASE_SEND: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("cluster.phase.send_us"));
static PHASE_WAIT: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("cluster.phase.wait_us"));
static PHASE_RECV: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("cluster.phase.recv_us"));
static PHASE_DECODE: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("cluster.phase.decode_us"));
// Client-side manifest cache outcomes: a hit is a lookup served without
// refetching the placement from the coordinator shard.
static META_CACHE_HIT: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("meta.cache.hit"));
static META_CACHE_MISS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("meta.cache.miss"));
// Mutable-object write path: in-place range writes, appends, and the
// delta traffic they ship (payload + framing, the wire cost the paper's
// update analysis bounds against full re-encode).
static UPDATE_WRITES: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("update.write_ranges"));
static UPDATE_APPENDS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("update.appends"));
static UPDATE_DELTAS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("update.delta_requests"));
static UPDATE_WIRE: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("update.wire_bytes"));
static UPDATE_PACKED: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("update.packed_puts"));
static DELETES: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("cluster.deletes"));

/// One node's scraped telemetry registry, as returned by
/// [`ClusterClient::node_stats`].
pub type NodeStats = telemetry::Snapshot;

/// Decode plans cached per client (more than enough for the handful of
/// distinct failure patterns a session sees).
const PLAN_CACHE_CAPACITY: usize = 64;

/// Default bound on stripes in flight in the get/put pipelines.
const DEFAULT_PIPELINE_DEPTH: usize = 2;

/// Files whose manifests a client caches before evicting arbitrarily.
const MANIFEST_CACHE_CAPACITY: usize = 4096;

/// What a [`ClusterClient::repair_file`] (or single
/// [`ClusterClient::repair_stripe`]) pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Blocks reconstructed and re-stored.
    pub blocks_repaired: usize,
    /// Helper payload bytes that crossed the network (the quantity the
    /// paper bounds by `d/(d−k+1)` block-sizes per repaired block).
    pub helper_payload_bytes: u64,
    /// Total bytes received from helpers including protocol framing.
    pub wire_bytes: u64,
}

impl AddAssign for RepairReport {
    fn add_assign(&mut self, rhs: RepairReport) {
        self.blocks_repaired += rhs.blocks_repaired;
        self.helper_payload_bytes += rhs.helper_payload_bytes;
        self.wire_bytes += rhs.wire_bytes;
    }
}

/// Wire bytes one worker moved: its private slice of the client's tx/rx
/// counters. Workers return tallies by value and the client folds them in
/// after the fan-out joins, so the hot path shares no counter state.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    tx: u64,
    rx: u64,
}

impl AddAssign for Tally {
    fn add_assign(&mut self, rhs: Tally) {
        self.tx += rhs.tx;
        self.rx += rhs.rx;
    }
}

/// One cached datanode connection plus its frame-payload scratch buffer
/// (reused by `read_response_into`, so steady-state reads allocate
/// nothing for framing).
#[derive(Debug)]
struct NodeConn {
    stream: TcpStream,
    scratch: Vec<u8>,
}

/// The connection/accounting half of the client: cached datanode sockets
/// behind a mutex, with no planning knowledge at all. The mutex guards
/// only the cache map — a connection is *taken out* for the duration of
/// an exchange, so concurrent workers talk to different nodes without
/// ever serializing on each other's I/O.
#[derive(Debug)]
struct Link {
    meta: Arc<MetaRouter>,
    conns: Mutex<HashMap<usize, NodeConn>>,
    timeout: Duration,
}

impl Link {
    fn take_conn(&self, node: usize) -> Option<NodeConn> {
        self.conns.lock().expect("conn cache lock").remove(&node)
    }

    fn put_conn(&self, node: usize, conn: NodeConn) {
        self.conns
            .lock()
            .expect("conn cache lock")
            .insert(node, conn);
    }

    /// One request/response exchange with a datanode, reusing a cached
    /// connection when possible and retrying once on a fresh connection
    /// if the cached one failed (it may simply have idled out).
    ///
    /// Fault taxonomy: a connect failure, EOF or socket error means the
    /// *node* is unreachable — it is reported dead to the coordinator and
    /// surfaces as [`ClusterError::NodeDown`]. A CRC/framing violation on
    /// a response means the *connection* is unusable — it is dropped and
    /// the exchange retried once on a fresh socket, and if that also
    /// fails the [`ClusterError::Protocol`] error is returned without
    /// touching the coordinator's liveness view (a corrupt frame is not
    /// evidence the node is down).
    ///
    /// # Errors
    ///
    /// [`ClusterError::NodeDown`] for unreachable nodes,
    /// [`ClusterError::Protocol`] for persistent framing faults.
    fn call(
        &self,
        node: usize,
        request: &Request,
        trace: telemetry::trace::TraceCtx,
    ) -> Result<(Response, Tally), ClusterError> {
        let addr = self
            .meta
            .node_addr(node)
            .ok_or(ClusterError::NodeDown { node })?;
        let down = || {
            self.meta.mark_dead(node);
            ClusterError::NodeDown { node }
        };
        let wire = Some(protocol::WireTrace::from_ctx(&trace));
        for attempt in 0..2u8 {
            let cached = self.take_conn(node);
            let had_cached = cached.is_some();
            let mut conn = match cached {
                Some(conn) => conn,
                None => {
                    let dialed = Instant::now();
                    match TcpStream::connect_timeout(&addr, self.timeout) {
                        Ok(stream) => {
                            PHASE_CONNECT.record(dialed.elapsed().as_micros() as u64);
                            let _ = stream.set_read_timeout(Some(self.timeout));
                            let _ = stream.set_write_timeout(Some(self.timeout));
                            let _ = stream.set_nodelay(true);
                            NodeConn {
                                stream,
                                scratch: Vec::new(),
                            }
                        }
                        Err(_) => return Err(down()),
                    }
                }
            };
            let sent = Instant::now();
            let exchange = protocol::write_request_traced(&mut conn.stream, request, wire)
                .and_then(|tx| {
                    PHASE_SEND.record(sent.elapsed().as_micros() as u64);
                    Ok((
                        tx,
                        protocol::read_response_timed(&mut conn.stream, &mut conn.scratch)?,
                    ))
                });
            match exchange {
                Ok((tx, Some((response, rx, timing)))) => {
                    self.put_conn(node, conn);
                    CLIENT_TX.add(tx as u64);
                    CLIENT_RX.add(rx as u64);
                    PHASE_WAIT.record(timing.wait_ns / 1_000);
                    PHASE_RECV.record(timing.recv_ns / 1_000);
                    return Ok((
                        response,
                        Tally {
                            tx: tx as u64,
                            rx: rx as u64,
                        },
                    ));
                }
                // A corrupt frame poisons the connection, not the node:
                // drop the socket and retry once on a fresh one.
                Err(e @ ClusterError::Protocol { .. }) => {
                    if attempt == 1 {
                        return Err(e);
                    }
                }
                // EOF or socket failure: the node itself is suspect.
                // Retry once only if a stale cached connection may be to
                // blame.
                Ok((_, None)) | Err(_) => {
                    if !had_cached || attempt == 1 {
                        return Err(down());
                    }
                }
            }
        }
        unreachable!("loop returns on every path")
    }
}

/// Performs one exchange and classifies the outcome for the executor:
/// payloads are data, remote refusals and dead nodes are `Unavailable`
/// (the executor replans around them), anything else is transport-fatal.
fn exchange_on(
    link: &Link,
    node: usize,
    request: &Request,
    trace: telemetry::trace::TraceCtx,
) -> Result<(Fetch, Tally), ClusterError> {
    match link.call(node, request, trace) {
        Ok((Response::Data(bytes), tally)) => Ok((Fetch::Data(bytes), tally)),
        Ok((_, tally)) => Ok((Fetch::Unavailable, tally)),
        Err(ClusterError::NodeDown { .. }) => Ok((Fetch::Unavailable, Tally::default())),
        Err(e) => Err(e),
    }
}

/// One stripe's datanodes seen as a [`BlockSource`]: fetches become
/// [`Request::GetUnits`], helper repair reads become
/// [`Request::RepairRead`], and a node that cannot serve (dead, missing or
/// corrupt block) answers [`Fetch::Unavailable`] so the executor replans
/// around it. The batched entry point fans one plan's requests out over
/// the client's worker pool — this is where the paper's `p`-server data
/// parallelism turns into concurrent wire traffic.
struct StripeSource<'a> {
    link: &'a Link,
    ctx: &'a ParallelCtx,
    name: &'a str,
    stripe: usize,
    /// Role → datanode id for this stripe.
    row: &'a [usize],
    sub: usize,
    w: usize,
    /// Roles known present (repair's Stat-probed list); `None` means trust
    /// the coordinator's node liveness.
    present: Option<&'a [usize]>,
    /// Trace context stamped on every wire request this source issues, so
    /// the serving nodes' spans land in the caller's trace.
    trace: telemetry::trace::TraceCtx,
    /// Per-node fan-in cap applied to helper repair reads (the repair
    /// scheduler's throttle); `None` for foreground traffic.
    gate: Option<&'a FanInGate>,
    /// Wire bytes this source moved, folded into the client afterwards.
    tally: Tally,
}

impl StripeSource<'_> {
    /// The wire request realizing one batch request.
    fn wire_request(&self, request: &BatchRequest<'_>) -> Request {
        match request {
            BatchRequest::Units { node: role, units } => Request::GetUnits {
                id: block_id(self.name, self.stripe, *role),
                sub: self.sub as u32,
                units: units.iter().map(|&u| u as u32).collect(),
            },
            BatchRequest::Repair { node: role, task } => {
                let beta = task.beta();
                let mut coeffs = Vec::with_capacity(beta * self.sub);
                for r in 0..beta {
                    for c in 0..self.sub {
                        coeffs.push(task.coeffs.get(r, c).value());
                    }
                }
                Request::RepairRead {
                    id: block_id(self.name, self.stripe, *role),
                    rows: beta as u32,
                    cols: self.sub as u32,
                    coeffs,
                }
            }
        }
    }

    fn exchange(&mut self, role: usize, request: &Request) -> Result<Fetch, ClusterError> {
        let (fetch, tally) = exchange_on(self.link, self.row[role], request, self.trace)?;
        self.tally += tally;
        Ok(fetch)
    }
}

impl BlockSource for StripeSource<'_> {
    type Error = ClusterError;

    fn block_count(&self) -> usize {
        self.row.len()
    }

    fn unit_bytes(&self) -> usize {
        self.w
    }

    fn available(&mut self) -> Vec<usize> {
        match self.present {
            Some(present) => present.to_vec(),
            None => (0..self.row.len())
                .filter(|&r| self.link.meta.is_alive(self.row[r]))
                .collect(),
        }
    }

    fn fetch_units(&mut self, role: usize, units: &[usize]) -> Result<Fetch, ClusterError> {
        let request = self.wire_request(&BatchRequest::Units {
            node: role,
            units: units.to_vec(),
        });
        self.exchange(role, &request)
    }

    fn repair_read(&mut self, role: usize, task: &HelperTask) -> Result<Fetch, ClusterError> {
        let request = self.wire_request(&BatchRequest::Repair { node: role, task });
        self.exchange(role, &request)
    }

    /// Fans one plan's requests out to all their nodes concurrently on
    /// the client's worker pool. Each request targets a distinct node (the
    /// executor's contract), so workers never contend for a connection.
    fn fetch_batch(&mut self, requests: &[BatchRequest<'_>]) -> Result<Vec<Fetch>, ClusterError> {
        let wire: Vec<(usize, Request)> = requests
            .iter()
            .map(|r| (self.row[r.node()], self.wire_request(r)))
            .collect();
        // A gated repair batch takes one permit per helper node (all or
        // nothing, so two workers can't deadlock on overlapping helper
        // sets) before any wire traffic; foreground reads never wait here.
        let _permit = self
            .gate
            .filter(|_| {
                requests
                    .iter()
                    .any(|r| matches!(r, BatchRequest::Repair { .. }))
            })
            .map(|gate| {
                let nodes: Vec<usize> = wire.iter().map(|&(node, _)| node).collect();
                gate.acquire(&nodes)
            });
        let link = self.link;
        let trace = self.trace;
        let results = self.ctx.run(wire.len(), |i| {
            exchange_on(link, wire[i].0, &wire[i].1, trace)
        });
        let mut fetches = Vec::with_capacity(results.len());
        for result in results {
            let (fetch, tally) = result?;
            self.tally += tally;
            fetches.push(fetch);
        }
        Ok(fetches)
    }
}

/// One cached per-file manifest, tagged with the owning shard's epoch
/// as observed *before* the manifest was read. A later lookup serves the
/// cached placement only while the shard epoch still matches; any
/// placement mutation on the shard (put, repair re-homing, delete)
/// bumps the epoch and forces a refetch — the cache can go stale but
/// can never be *served* stale.
#[derive(Debug)]
struct CachedManifest {
    epoch: u64,
    fp: Arc<FilePlacement>,
}

/// A client session against one [`Coordinator`]'s cluster (or several
/// coordinator shards behind a [`MetaRouter`]). Connections to
/// datanodes are cached and transparently re-opened; a node that cannot
/// be reached is reported dead to the coordinator so subsequent plans
/// avoid it.
#[derive(Debug)]
pub struct ClusterClient {
    link: Link,
    plans: PlanCache,
    max_replans: usize,
    /// Worker pool for per-node request fan-out.
    ctx: ParallelCtx,
    /// Stripes kept in flight by the get/put pipelines (`0` = no
    /// pipelining, everything inline).
    pipeline_depth: usize,
    /// Shared per-node fan-in cap applied to this client's helper repair
    /// reads; set by the repair scheduler on its worker clients.
    repair_gate: Option<Arc<FanInGate>>,
    /// Epoch-validated per-file manifest cache (see [`CachedManifest`]).
    manifests: HashMap<String, CachedManifest>,
    manifest_hits: u64,
    manifest_misses: u64,
    tx_bytes: u64,
    rx_bytes: u64,
    /// Code used by [`ObjectStore`] puts that name none.
    default_spec: CodeSpec,
    /// Block size used by [`ObjectStore`] puts that name none.
    default_block_bytes: usize,
    /// Placement policy for every put/append this client performs.
    placement: Placement,
    /// Placement randomness, advanced across puts. Seeded so a client's
    /// placements are reproducible; override with
    /// [`ClusterClient::with_seed`].
    rng: StdRng,
    /// The pack this client is currently filling: `(name, length)`.
    open_pack: Option<(String, u64)>,
    /// Next pack name suffix to try.
    pack_seq: u64,
    /// Pack rollover threshold in bytes.
    pack_limit: u64,
}

impl ClusterClient {
    /// Creates a client with a 10-second I/O timeout, a default-sized
    /// fan-out pool and a pipeline depth of 2.
    pub fn new(coord: Arc<Coordinator>) -> Self {
        ClusterClient::routed(MetaRouter::single(coord))
    }

    /// Creates a client against a (possibly sharded) metadata router,
    /// with the same defaults as [`ClusterClient::new`].
    pub fn routed(meta: Arc<MetaRouter>) -> Self {
        ClusterClient {
            link: Link {
                meta,
                conns: Mutex::new(HashMap::new()),
                timeout: Duration::from_secs(10),
            },
            plans: PlanCache::new(PLAN_CACHE_CAPACITY),
            max_replans: access::DEFAULT_MAX_REPLANS,
            ctx: ParallelCtx::default(),
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
            repair_gate: None,
            manifests: HashMap::new(),
            manifest_hits: 0,
            manifest_misses: 0,
            tx_bytes: 0,
            rx_bytes: 0,
            default_spec: CodeSpec::Rs { n: 6, k: 4 },
            default_block_bytes: 1 << 16,
            placement: Placement::Random,
            rng: StdRng::seed_from_u64(0x5EED),
            open_pack: None,
            pack_seq: 0,
            pack_limit: DEFAULT_PACK_LIMIT,
        }
    }

    /// Overrides the code used by [`ObjectStore`] puts that do not name
    /// one via [`PutOptions::code`].
    #[must_use]
    pub fn with_default_code(mut self, spec: CodeSpec) -> Self {
        self.default_spec = spec;
        self
    }

    /// Overrides the block size used by [`ObjectStore`] puts that do not
    /// set [`PutOptions::block_bytes`].
    #[must_use]
    pub fn with_default_block_bytes(mut self, bytes: usize) -> Self {
        self.default_block_bytes = bytes;
        self
    }

    /// Overrides the placement policy for this client's puts and appends.
    #[must_use]
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Reseeds the placement RNG (placements are deterministic per seed).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = StdRng::seed_from_u64(seed);
        self
    }

    /// Overrides the byte length at which an open pack rolls over and the
    /// next packed put starts a fresh pack file.
    #[must_use]
    pub fn with_pack_limit(mut self, bytes: u64) -> Self {
        self.pack_limit = bytes;
        self
    }

    /// Overrides the per-operation socket timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.link.timeout = timeout;
        self
    }

    /// Overrides the bound on mid-operation replans per stripe.
    #[must_use]
    pub fn with_max_replans(mut self, max_replans: usize) -> Self {
        self.max_replans = max_replans;
        self
    }

    /// Overrides the worker pool fanning one plan's fetches out to the
    /// datanodes. [`ParallelCtx::sequential`] restores the serial
    /// one-request-at-a-time wire behavior. Fan-out is latency-bound, not
    /// CPU-bound: a pool about as wide as the code's `n` is reasonable
    /// even on few cores.
    #[must_use]
    pub fn with_fanout(mut self, ctx: ParallelCtx) -> Self {
        self.ctx = ctx;
        self
    }

    /// Overrides the number of stripes the get/put pipelines keep in
    /// flight (the `W` knob). `0` disables pipelining: every stripe is
    /// fetched, decoded and stored strictly in sequence on the caller.
    #[must_use]
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth;
        self
    }

    /// Caps this client's concurrent helper repair reads per datanode.
    /// The gate is shared: the repair scheduler hands every worker client
    /// the same [`FanInGate`] so the cap holds across the whole pool.
    /// Foreground reads (`get_file`) are never gated.
    #[must_use]
    pub fn with_repair_gate(mut self, gate: Arc<FanInGate>) -> Self {
        self.repair_gate = Some(gate);
        self
    }

    /// The coordinator this client plans against — the first (and, for
    /// an unsharded cluster, only) shard of its router.
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.link.meta.shards()[0]
    }

    /// The metadata router this client plans against.
    pub fn router(&self) -> &Arc<MetaRouter> {
        &self.link.meta
    }

    /// Looks up a file's placement through the client's epoch-validated
    /// manifest cache: the owning shard's epoch is read *first*, and the
    /// cached entry is served only if its recorded epoch still matches,
    /// so any concurrent placement mutation forces a refetch (an extra
    /// round to the shard, never a stale manifest). This is the lookup
    /// `get_file` runs on every call.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownFile`] for unknown names.
    pub fn file_manifest(&mut self, name: &str) -> Result<Arc<FilePlacement>, ClusterError> {
        let epoch = self.link.meta.epoch_of(name);
        if let Some(cached) = self.manifests.get(name) {
            if cached.epoch == epoch {
                self.manifest_hits += 1;
                META_CACHE_HIT.inc();
                return Ok(Arc::clone(&cached.fp));
            }
        }
        self.manifest_misses += 1;
        META_CACHE_MISS.inc();
        let fp = self
            .link
            .meta
            .file(name)
            .ok_or_else(|| ClusterError::UnknownFile { name: name.into() })?;
        let fp = Arc::new(fp);
        if self.manifests.len() >= MANIFEST_CACHE_CAPACITY && !self.manifests.contains_key(name) {
            // Evict an arbitrary entry; the cache is a working set, not
            // an LRU — a namespace this client sweeps uniformly gains
            // little from recency anyway.
            if let Some(victim) = self.manifests.keys().next().cloned() {
                self.manifests.remove(&victim);
            }
        }
        self.manifests.insert(
            name.to_string(),
            CachedManifest {
                epoch,
                fp: Arc::clone(&fp),
            },
        );
        Ok(fp)
    }

    /// `(hits, misses)` of this client's own manifest cache over its
    /// lifetime (the registry's `meta.cache.*` counters are process-wide).
    pub fn manifest_cache_stats(&self) -> (u64, u64) {
        (self.manifest_hits, self.manifest_misses)
    }

    /// The client's decode-plan cache (hit/miss counters included).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// Total `(sent, received)` bytes over this client's lifetime,
    /// including framing — the measured network traffic.
    pub fn wire_counters(&self) -> (u64, u64) {
        (self.tx_bytes, self.rx_bytes)
    }

    fn fold(&mut self, tally: Tally) {
        self.tx_bytes += tally.tx;
        self.rx_bytes += tally.rx;
    }

    /// Encodes `data` with `spec`, places it across the alive nodes, and
    /// uploads every block. With a nonzero pipeline depth the stripe
    /// encoder runs ahead of the uploads, recycling a fixed ring of
    /// `EncodedStripe` buffers; each stripe's `n` block uploads fan out
    /// over the client's workers. This is the engine under
    /// [`ObjectStore::put_opts`], the only public entry point.
    ///
    /// # Errors
    ///
    /// Propagates geometry errors, placement failures (too few alive
    /// nodes, duplicate name) and upload failures.
    pub(crate) fn put_file(
        &mut self,
        name: &str,
        data: &[u8],
        spec: CodeSpec,
        block_bytes: usize,
        placement: Placement,
        rng: &mut impl Rng,
    ) -> Result<FilePlacement, ClusterError> {
        let ctx = &self.ctx.clone();
        if data.is_empty() {
            return Err(FileError::BadGeometry {
                reason: "cannot encode an empty file".into(),
            }
            .into());
        }
        let code = spec.build()?;
        let codec = FileCodec::new(code, block_bytes)?;
        let sdb = codec.stripe_data_bytes();
        let chunks: Vec<&[u8]> = data.chunks(sdb).collect();
        let fp = self.link.meta.place_file(
            name,
            spec,
            data.len() as u64,
            block_bytes,
            chunks.len(),
            placement,
            rng,
        )?;

        let link = &self.link;
        let depth = self.pipeline_depth;
        let mut tally = Tally::default();
        let mut outcome: Result<(), ClusterError> = Ok(());
        let op = telemetry::trace::TraceCtx::root().child("cluster.op.put_us");
        let op_ctx = op.ctx();

        if depth == 0 || chunks.len() <= 1 {
            let mut stripe = codec.empty_stripe();
            for (s, chunk) in chunks.iter().enumerate() {
                codec.encode_stripe_into(chunk, &mut stripe)?;
                tally += send_stripe(link, ctx, name, s, &fp.nodes[s], &stripe.blocks, op_ctx)?;
            }
        } else {
            // Encode on a worker, upload on the caller, with `depth`
            // stripes buffered between them and `depth + 2` stripe
            // buffers recycled through the loop (one being encoded, one
            // being sent, `depth` in the channel).
            let (recycle_tx, recycle_rx) = std::sync::mpsc::channel::<erasure::EncodedStripe>();
            for _ in 0..depth + 2 {
                recycle_tx
                    .send(codec.empty_stripe())
                    .expect("recycle channel open");
            }
            let rows = &fp.nodes;
            let (encoded, sent) = parallel::pipeline(
                depth,
                move |pipe| -> Result<(), FileError> {
                    for (s, chunk) in chunks.iter().enumerate() {
                        let Ok(mut stripe) = recycle_rx.recv() else {
                            return Ok(()); // consumer bailed; its error wins
                        };
                        codec.encode_stripe_into(chunk, &mut stripe)?;
                        PIPELINE_INFLIGHT.add(1);
                        if pipe.send((s, stripe)).is_err() {
                            return Ok(());
                        }
                    }
                    Ok(())
                },
                |pipe| {
                    let mut tally = Tally::default();
                    loop {
                        let wait = Instant::now();
                        let Ok((s, stripe)) = pipe.recv() else { break };
                        FETCH_STALL.record(wait.elapsed().as_micros() as u64);
                        PIPELINE_INFLIGHT.add(-1);
                        match send_stripe(link, ctx, name, s, &rows[s], &stripe.blocks, op_ctx) {
                            Ok(t) => tally += t,
                            Err(e) => return (tally, Err(e)),
                        }
                        let _ = recycle_tx.send(stripe);
                    }
                    (tally, Ok(()))
                },
            );
            let (sent_tally, sent) = sent;
            tally += sent_tally;
            encoded?;
            outcome = sent;
        }
        self.fold(tally);
        outcome?;
        Ok(fp)
    }

    /// Reads a whole file back, byte-identical to what was stored.
    ///
    /// Per stripe the executor plans against the roles whose nodes the
    /// coordinator believes alive, fetches the whole plan as one
    /// fanned-out batch, and — if any fetch fails mid-read — excludes
    /// *all* failed roles and replans, degrading from the direct parallel
    /// path to the degraded/fallback paths without surfacing the failure
    /// to the caller. With a nonzero pipeline depth, stripe `i` decodes
    /// while stripe `i+1` is being fetched.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownFile`] for unknown names,
    /// [`ClusterError::Unavailable`] when a stripe has fewer than `k`
    /// reachable blocks, and [`ClusterError::ReplansExhausted`] when nodes
    /// keep dying mid-read past the replan budget.
    pub(crate) fn get_file(&mut self, name: &str) -> Result<Vec<u8>, ClusterError> {
        READS.inc();
        let _timer = telemetry::span("cluster.read.ns");
        // The whole read is one trace: per-stripe fetch/decode spans hang
        // off this root, and every wire request carries its ids so the
        // serving nodes' spans land in the same trace.
        let op = telemetry::trace::TraceCtx::root().child("cluster.op.get_us");
        let op_ctx = op.ctx();
        let fp = self.file_manifest(name)?;
        let code = fp.spec.build()?;
        let sub = code.linear().sub();
        let w = fp.block_bytes / sub;
        let sdb = code.k() * fp.block_bytes;
        let executor = PlanExecutor::new(&self.plans).with_max_replans(self.max_replans);
        let link = &self.link;
        let ctx = &self.ctx;
        let fp = &fp;
        let code = &code;

        // Fetch one stripe's plan-worth of units (no decode yet).
        let fetch_one = |s: usize| -> (Result<FetchedStripe, ClusterError>, Tally) {
            let span = op_ctx.child("cluster.fetch.stripe_us");
            let mut source = StripeSource {
                link,
                ctx,
                name,
                stripe: s,
                row: &fp.nodes[s],
                sub,
                w,
                present: None,
                trace: span.ctx(),
                gate: None,
                tally: Tally::default(),
            };
            let fetched = executor
                .fetch_stripe(code, &mut source)
                .map_err(|e| read_error(name, s, e));
            (fetched, source.tally)
        };

        // Decode a fetched stripe straight into its slice of the output.
        let mut out = vec![0u8; fp.file_len as usize];
        let mut degraded = false;
        let mut decode_into = |s: usize,
                               fetched: Result<FetchedStripe, ClusterError>,
                               out: &mut [u8]|
         -> Result<(), ClusterError> {
            let fetched = fetched?;
            if fetched.mode() != ReadMode::Direct || fetched.replans() > 0 {
                degraded = true;
            }
            let _span = op_ctx.child("cluster.decode.stripe_us");
            let decoded_at = Instant::now();
            let data = fetched.decode().map_err(|_| unreadable(name, s))?;
            PHASE_DECODE.record(decoded_at.elapsed().as_micros() as u64);
            let at = s * sdb;
            let take = sdb.min(out.len() - at.min(out.len())).min(data.len());
            out[at..at + take].copy_from_slice(&data[..take]);
            Ok(())
        };

        let mut tally = Tally::default();
        let mut outcome: Result<(), ClusterError> = Ok(());
        if self.pipeline_depth == 0 || fp.stripes <= 1 {
            for s in 0..fp.stripes {
                let (fetched, t) = fetch_one(s);
                tally += t;
                outcome = decode_into(s, fetched, &mut out);
                if outcome.is_err() {
                    break;
                }
            }
        } else {
            // Fetch on a worker, decode on the caller, `depth` stripes in
            // flight between them.
            let out_ref = &mut out;
            let (fetch_tally, decoded) = parallel::pipeline(
                self.pipeline_depth,
                move |pipe| -> Tally {
                    let mut tally = Tally::default();
                    for s in 0..fp.stripes {
                        let (fetched, t) = fetch_one(s);
                        tally += t;
                        let failed = fetched.is_err();
                        PIPELINE_INFLIGHT.add(1);
                        if pipe.send((s, fetched)).is_err() || failed {
                            break;
                        }
                    }
                    tally
                },
                |pipe| -> Result<(), ClusterError> {
                    loop {
                        let wait = Instant::now();
                        let Ok((s, fetched)) = pipe.recv() else {
                            return Ok(());
                        };
                        FETCH_STALL.record(wait.elapsed().as_micros() as u64);
                        PIPELINE_INFLIGHT.add(-1);
                        // An error drops the receiver on return, which
                        // stops the producer at its next send.
                        decode_into(s, fetched, out_ref)?;
                    }
                },
            );
            tally += fetch_tally;
            outcome = decoded;
        }
        self.fold(tally);
        outcome?;
        if degraded {
            READS_DEGRADED.inc();
        }
        Ok(out)
    }

    /// Finds and rebuilds every missing block of `name`, executing the
    /// code's repair plan over the network: each helper node compresses
    /// its block locally with the shipped coefficients and returns
    /// `β/sub` of a block, so MSR-regime repair moves `d/(d−k+1)`
    /// block-sizes instead of `k`. Presence probes and the `d` helper
    /// reads of each repair fan out over the client's worker pool.
    ///
    /// The rebuilt block goes back to its original node if that node is
    /// reachable (e.g. after a quarantined corruption), otherwise to an
    /// alive node not already hosting a block of the stripe; the
    /// coordinator's placement is updated either way.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownFile`] for unknown names and
    /// [`ClusterError::Unavailable`] when fewer than `d` helpers or no
    /// target node can be found for some block.
    pub fn repair_file(&mut self, name: &str) -> Result<RepairReport, ClusterError> {
        let fp = self
            .link
            .meta
            .file(name)
            .ok_or_else(|| ClusterError::UnknownFile { name: name.into() })?;
        let op = telemetry::trace::TraceCtx::root().child("cluster.op.repair_us");
        let mut report = RepairReport::default();
        for s in 0..fp.stripes {
            report += self.repair_stripe_traced(name, s, op.ctx())?;
        }
        Ok(report)
    }

    /// Repairs one stripe of `name`: probes presence, rebuilds every
    /// missing block through the code's repair plan, re-homes onto the
    /// original node or a spare, and commits the placement update. This is
    /// the unit of work the background repair scheduler dispatches; the
    /// placement is re-read from the coordinator on every call, so a
    /// stripe re-homed by an earlier repair serves as a helper here.
    ///
    /// # Errors
    ///
    /// As [`ClusterClient::repair_file`], plus [`ClusterError::Protocol`]
    /// for an out-of-range stripe index.
    pub fn repair_stripe(
        &mut self,
        name: &str,
        stripe: usize,
    ) -> Result<RepairReport, ClusterError> {
        let op = telemetry::trace::TraceCtx::root().child("cluster.op.repair_stripe_us");
        self.repair_stripe_traced(name, stripe, op.ctx())
    }

    fn repair_stripe_traced(
        &mut self,
        name: &str,
        s: usize,
        op_ctx: telemetry::trace::TraceCtx,
    ) -> Result<RepairReport, ClusterError> {
        // Repair deliberately bypasses the manifest cache: it must see
        // the freshest placement (an earlier repair may have re-homed a
        // helper this one needs), and repairs are rare enough that the
        // extra shard round trip is noise.
        let fp = self
            .link
            .meta
            .file(name)
            .ok_or_else(|| ClusterError::UnknownFile { name: name.into() })?;
        let Some(row) = fp.nodes.get(s) else {
            return Err(ClusterError::Protocol {
                reason: format!("file {name:?} has {} stripes, no stripe {s}", fp.stripes),
            });
        };
        let code = fp.spec.build()?;
        let sub = code.linear().sub();
        let w = fp.block_bytes / sub;
        let d = code.d();
        let executor = PlanExecutor::new(&self.plans).with_max_replans(self.max_replans);
        let mut report = RepairReport::default();
        let mut tally = Tally::default();
        // Keep a local copy so a block re-homed mid-stripe can serve as a
        // helper for the stripe's next missing block.
        let mut row = row.clone();
        let outcome = (|| -> Result<(), ClusterError> {
            let link = &self.link;
            // Probe which roles are actually present (node up AND block
            // stored uncorrupted), all roles concurrently.
            let probes = self.ctx.run(row.len(), |role| {
                let node = row[role];
                if !link.meta.is_alive(node) {
                    return (false, Tally::default());
                }
                let request = Request::Stat {
                    id: block_id(name, s, role),
                };
                match link.call(node, &request, op_ctx) {
                    Ok((Response::Data(_), t)) => (true, t),
                    Ok((_, t)) => (false, t),
                    Err(_) => (false, Tally::default()),
                }
            });
            let mut present = Vec::new();
            let mut missing = Vec::new();
            for (role, (ok, t)) in probes.into_iter().enumerate() {
                tally += t;
                if ok {
                    present.push(role);
                } else {
                    missing.push(role);
                }
            }
            for failed in missing {
                let mut source = StripeSource {
                    link,
                    ctx: &self.ctx,
                    name,
                    stripe: s,
                    row: &row,
                    sub,
                    w,
                    present: Some(&present),
                    trace: op_ctx,
                    gate: self.repair_gate.as_deref(),
                    tally: Tally::default(),
                };
                let outcome = executor
                    .repair_block(&code, failed, &mut source)
                    .map_err(|e| repair_error(name, s, d, e));
                // Helper traffic = everything the repair source received,
                // framing included.
                report.wire_bytes += source.tally.rx;
                tally += source.tally;
                let outcome = outcome?;
                report.helper_payload_bytes += outcome.payload_bytes as u64;
                let target = if link.meta.is_alive(row[failed]) {
                    row[failed]
                } else {
                    link.meta
                        .alive_nodes()
                        .into_iter()
                        .find(|node| !row.contains(node))
                        .ok_or_else(|| ClusterError::Unavailable {
                            reason: format!(
                                "stripe {s} of {name:?}: no spare node for block {failed}"
                            ),
                        })?
                };
                let request = Request::PutBlock {
                    id: block_id(name, s, failed),
                    data: outcome.block,
                };
                match link.call(target, &request, op_ctx)? {
                    (Response::Done, t) => tally += t,
                    (other, _) => {
                        return Err(ClusterError::Protocol {
                            reason: format!("unexpected PutBlock reply: {other:?}"),
                        });
                    }
                }
                // The commit flows through the shard's record log and
                // bumps its epoch, invalidating every client's cached
                // manifest of this file.
                link.meta.set_block_node(name, s, failed, target)?;
                row[failed] = target;
                present.push(failed);
                report.blocks_repaired += 1;
            }
            Ok(())
        })();
        self.fold(tally);
        outcome?;
        REPAIR_BLOCKS.add(report.blocks_repaired as u64);
        REPAIR_WIRE.add(report.wire_bytes);
        Ok(report)
    }

    /// Scrapes one datanode's full telemetry registry over the wire via
    /// [`Request::Stats`].
    ///
    /// # Errors
    ///
    /// [`ClusterError::NodeDown`] for unreachable nodes, or a protocol
    /// error when the reply cannot be decoded.
    pub fn node_stats(&mut self, node: usize) -> Result<NodeStats, ClusterError> {
        let op = telemetry::trace::TraceCtx::root().child("cluster.op.stats_us");
        let (response, tally) = self.link.call(node, &Request::Stats, op.ctx())?;
        self.fold(tally);
        match response {
            Response::Data(bytes) => protocol::decode_stats(&bytes),
            Response::Error(message) => Err(ClusterError::Remote { message }),
            other => Err(ClusterError::Protocol {
                reason: format!("unexpected Stats reply: {other:?}"),
            }),
        }
    }

    /// The background-repair progress of one datanode's process, read
    /// from its [`node_stats`](Self::node_stats) scrape.
    ///
    /// # Errors
    ///
    /// As for [`node_stats`](Self::node_stats).
    pub fn repair_status(&mut self, node: usize) -> Result<RepairStatusReport, ClusterError> {
        self.node_stats(node)
            .map(|snap| RepairStatusReport::from_snapshot(&snap))
    }

    /// Fetches one file's manifest *over the wire* from a datanode via
    /// [`Request::ManifestGet`], returning the owning shard's epoch and
    /// the placement. A client that can reach the coordinator in-process
    /// never needs this; it exists for tooling and peers that only see
    /// datanodes.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NodeDown`] for unreachable nodes,
    /// [`ClusterError::Remote`] when the node serves no metadata or the
    /// file is unknown there, or a protocol error for undecodable
    /// replies.
    pub fn manifest_from_node(
        &mut self,
        node: usize,
        name: &str,
    ) -> Result<(u64, FilePlacement), ClusterError> {
        let op = telemetry::trace::TraceCtx::root().child("cluster.op.manifest_us");
        let request = Request::ManifestGet { name: name.into() };
        let (response, tally) = self.link.call(node, &request, op.ctx())?;
        self.fold(tally);
        match response {
            Response::Data(bytes) => protocol::decode_manifest(&bytes),
            Response::Error(message) => Err(ClusterError::Remote { message }),
            other => Err(ClusterError::Protocol {
                reason: format!("unexpected ManifestGet reply: {other:?}"),
            }),
        }
    }

    /// Reads `len` bytes at byte `offset` of a placed file, fetching and
    /// decoding only the touched stripes (the engine under
    /// [`ObjectStore::get_range`] and every packed-object read).
    fn read_file_range(
        &mut self,
        name: &str,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, ClusterError> {
        let op = telemetry::trace::TraceCtx::root().child("cluster.op.get_range_us");
        let op_ctx = op.ctx();
        let fp = self.file_manifest(name)?;
        let end = offset.saturating_add(len);
        if end > fp.file_len {
            return Err(ClusterError::Protocol {
                reason: format!(
                    "range {offset}+{len} past end of {name:?} ({} bytes)",
                    fp.file_len
                ),
            });
        }
        if len == 0 {
            return Ok(Vec::new());
        }
        let code = fp.spec.build()?;
        let sub = code.linear().sub();
        let w = fp.block_bytes / sub;
        let sdb = (code.k() * fp.block_bytes) as u64;
        let first = (offset / sdb) as usize;
        let last = ((end - 1) / sdb) as usize;
        let executor = PlanExecutor::new(&self.plans).with_max_replans(self.max_replans);
        let mut buf = Vec::with_capacity((last - first + 1) * sdb as usize);
        let mut tally = Tally::default();
        let outcome = (|| -> Result<(), ClusterError> {
            let link = &self.link;
            let ctx = &self.ctx;
            for s in first..=last {
                let span = op_ctx.child("cluster.fetch.stripe_us");
                let mut source = StripeSource {
                    link,
                    ctx,
                    name,
                    stripe: s,
                    row: &fp.nodes[s],
                    sub,
                    w,
                    present: None,
                    trace: span.ctx(),
                    gate: None,
                    tally: Tally::default(),
                };
                let fetched = executor
                    .fetch_stripe(&code, &mut source)
                    .map_err(|e| read_error(name, s, e));
                tally += source.tally;
                let data = fetched?.decode().map_err(|_| unreadable(name, s))?;
                buf.extend_from_slice(&data);
            }
            Ok(())
        })();
        self.fold(tally);
        outcome?;
        let at = (offset - first as u64 * sdb) as usize;
        Ok(buf[at..at + len as usize].to_vec())
    }

    /// Ships an in-place edit of `name`'s bytes as per-node
    /// [`Request::WriteDelta`]s: for each touched stripe the edit's
    /// unit-aligned message deltas are computed once, and every affected
    /// alive node applies `Σ coeffᵢ · Δᵢ` to its block locally —
    /// parity' = parity ⊕ G·Δdata, byte-identical to re-encoding the
    /// edited stripe, with only the delta (not the stripe) on the wire.
    /// `old` holds the previous contents of the edited span (all zeros
    /// for an append's tail fill, where the span was implicit padding).
    ///
    /// A node that is dead — or dies mid-update — misses its delta: its
    /// block is stale, but the node is marked dead, so reads exclude it
    /// and repair rebuilds the block from the *updated* survivors. The
    /// one unhealed hazard is a node reviving by heartbeat without a
    /// repair in between; that window exists for every missed write, not
    /// just deltas.
    fn delta_write(
        &mut self,
        name: &str,
        fp: &FilePlacement,
        offset: u64,
        old: &[u8],
        new: &[u8],
        op_ctx: telemetry::trace::TraceCtx,
    ) -> Result<(), ClusterError> {
        debug_assert_eq!(old.len(), new.len());
        if new.is_empty() {
            return Ok(());
        }
        let code = fp.spec.build()?;
        let updater = ColumnUpdater::new(code.linear());
        let sub = code.linear().sub();
        let w = fp.block_bytes / sub;
        let sdb = (code.k() * fp.block_bytes) as u64;
        let end = offset + new.len() as u64;
        let first = (offset / sdb) as usize;
        let last = ((end - 1) / sdb) as usize;
        let mut tally = Tally::default();
        let mut requests = 0u64;
        let outcome = (|| -> Result<(), ClusterError> {
            let link = &self.link;
            let ctx = &self.ctx;
            for s in first..=last {
                let stripe_start = s as u64 * sdb;
                let lo = offset.max(stripe_start);
                let hi = end.min(stripe_start + sdb);
                let span = (lo - offset) as usize..(hi - offset) as usize;
                let delta = updater.stripe_delta(
                    w,
                    (lo - stripe_start) as usize,
                    &old[span.clone()],
                    &new[span],
                )?;
                let updates = updater.node_updates(&delta)?;
                let row = &fp.nodes[s];
                // Ship only to nodes the coordinator believes alive: a
                // dead node's block is stale either way, and repair
                // rebuilds it from the updated survivors.
                let wire: Vec<(usize, Request)> = updates
                    .iter()
                    .filter(|u| link.meta.is_alive(row[u.node]))
                    .map(|u| {
                        let request = Request::WriteDelta {
                            id: block_id(name, s, u.node),
                            unit_bytes: w as u32,
                            deltas: delta.deltas.clone(),
                            rows: u
                                .rows
                                .iter()
                                .map(|(unit, coeffs)| {
                                    (*unit as u32, coeffs.iter().map(|c| c.value()).collect())
                                })
                                .collect(),
                        };
                        (row[u.node], request)
                    })
                    .collect();
                requests += wire.len() as u64;
                let results = ctx.run(wire.len(), |i| link.call(wire[i].0, &wire[i].1, op_ctx));
                for result in results {
                    match result {
                        Ok((Response::Done, t)) => tally += t,
                        Ok((Response::Error(message), _)) => {
                            return Err(ClusterError::Remote { message });
                        }
                        Ok((other, _)) => {
                            return Err(ClusterError::Protocol {
                                reason: format!("unexpected WriteDelta reply: {other:?}"),
                            });
                        }
                        // Died mid-update: already marked dead, repair
                        // heals its block from the updated peers.
                        Err(ClusterError::NodeDown { .. }) => {}
                        Err(e) => return Err(e),
                    }
                }
            }
            Ok(())
        })();
        UPDATE_DELTAS.add(requests);
        UPDATE_WIRE.add(tally.tx);
        self.fold(tally);
        outcome
    }

    /// The file half of [`ObjectStore::write_range`]: bounds-check
    /// against the current length, read the old span, delta-write the
    /// new one.
    fn write_file_range(
        &mut self,
        name: &str,
        offset: u64,
        new: &[u8],
        op_ctx: telemetry::trace::TraceCtx,
    ) -> Result<(), ClusterError> {
        let fp = self.file_manifest(name)?;
        let end = offset.saturating_add(new.len() as u64);
        if end > fp.file_len {
            return Err(ClusterError::Protocol {
                reason: format!(
                    "write_range cannot extend {name:?}: {offset}+{} past {} bytes (use append)",
                    new.len(),
                    fp.file_len
                ),
            });
        }
        if new.is_empty() {
            return Ok(());
        }
        let old = self.read_file_range(name, offset, new.len() as u64)?;
        self.delta_write(name, &fp, offset, &old, new, op_ctx)?;
        UPDATE_WRITES.inc();
        Ok(())
    }

    /// The file half of [`ObjectStore::append`]: fill the last stripe's
    /// zero padding by delta (old bytes are implicit zeros), then encode
    /// any overflow into fresh stripes placed by
    /// [`MetaRouter::extend_file`].
    fn append_file(&mut self, name: &str, tail: &[u8]) -> Result<u64, ClusterError> {
        let op = telemetry::trace::TraceCtx::root().child("cluster.op.append_us");
        let op_ctx = op.ctx();
        let fp = self.file_manifest(name)?;
        if tail.is_empty() {
            return Ok(fp.file_len);
        }
        let code = fp.spec.build()?;
        let sdb = code.k() * fp.block_bytes;
        let capacity = fp.stripes as u64 * sdb as u64;
        let old_len = fp.file_len;
        let fill = ((capacity - old_len) as usize).min(tail.len());
        let overflow = &tail[fill..];
        let added = overflow.len().div_ceil(sdb);
        let new_len = old_len + tail.len() as u64;
        // Metadata first, mirroring put: the new stripes' homes are
        // durable (one FileExtended record) before any block lands.
        let mut rng = self.rng.clone();
        let rows = self
            .link
            .meta
            .extend_file(name, new_len, added, self.placement, &mut rng);
        self.rng = rng;
        let rows = rows?;
        if fill > 0 {
            // Bytes past the old end are implicit zero padding of the
            // stripe message, so the fill is a delta with all-zero old.
            let zeros = vec![0u8; fill];
            self.delta_write(name, &fp, old_len, &zeros, &tail[..fill], op_ctx)?;
        }
        if !overflow.is_empty() {
            let codec = FileCodec::new(code, fp.block_bytes)?;
            let ctx = self.ctx.clone();
            let mut stripe = codec.empty_stripe();
            let mut tally = Tally::default();
            let outcome = (|| -> Result<(), ClusterError> {
                for (i, chunk) in overflow.chunks(sdb).enumerate() {
                    codec.encode_stripe_into(chunk, &mut stripe)?;
                    tally += send_stripe(
                        &self.link,
                        &ctx,
                        name,
                        fp.stripes + i,
                        &rows[i],
                        &stripe.blocks,
                        op_ctx,
                    )?;
                }
                Ok(())
            })();
            self.fold(tally);
            outcome?;
        }
        UPDATE_APPENDS.inc();
        Ok(new_len)
    }

    /// Packs a small object into the client's open pack (or a fresh
    /// one), recording only its extent with the metadata service. Packs
    /// are ordinary cluster files named `.pack-NNNN` and encoded with
    /// the client's default code, so packed objects inherit the whole
    /// read/degraded-read/repair machinery for free. Deleting a packed
    /// object drops its extent; the pack keeps the (now unreachable)
    /// bytes until a future compaction pass.
    fn pack_put(&mut self, name: &str, data: &[u8]) -> Result<(), ClusterError> {
        if data.is_empty() {
            return Err(ClusterError::Protocol {
                reason: "cannot pack an empty object".into(),
            });
        }
        let rolls = match &self.open_pack {
            Some((_, len)) => len + data.len() as u64 > self.pack_limit,
            None => true,
        };
        let (pack, at) = if rolls {
            // Another client may have taken a suffix already; probe the
            // namespace until a free one turns up.
            let pack = loop {
                let candidate = format!("{PACK_PREFIX}{:04}", self.pack_seq);
                self.pack_seq += 1;
                if self.link.meta.file(&candidate).is_none() {
                    break candidate;
                }
            };
            let (spec, block_bytes) = (self.default_spec, self.default_block_bytes);
            let placement = self.placement;
            let mut rng = self.rng.clone();
            let result = self.put_file(&pack, data, spec, block_bytes, placement, &mut rng);
            self.rng = rng;
            result?;
            self.open_pack = Some((pack.clone(), data.len() as u64));
            (pack, 0)
        } else {
            let (pack, at) = self.open_pack.clone().expect("checked above");
            let new_len = self.append_file(&pack, data)?;
            self.open_pack = Some((pack.clone(), new_len));
            (pack, at)
        };
        self.link.meta.put_extent(
            name,
            ObjectExtent {
                pack,
                offset: at,
                len: data.len() as u64,
            },
        )?;
        UPDATE_PACKED.inc();
        Ok(())
    }
}

impl ObjectStore for ClusterClient {
    type Error = ClusterError;

    fn put_opts(&mut self, name: &str, data: &[u8], opts: &PutOptions) -> Result<(), ClusterError> {
        if name.starts_with(PACK_PREFIX) {
            return Err(ClusterError::Protocol {
                reason: format!("names starting with {PACK_PREFIX:?} are reserved for packs"),
            });
        }
        if self.link.meta.file(name).is_some() || self.link.meta.extent(name).is_some() {
            return Err(ClusterError::Protocol {
                reason: format!("file {name:?} already exists"),
            });
        }
        if opts.packed() {
            // Packed puts use the client's default code and block size:
            // the pack's geometry is fixed when the pack is created, not
            // per object.
            return self.pack_put(name, data);
        }
        let spec = match opts.code_spec() {
            Some(s) => CodeSpec::parse(s)?,
            None => self.default_spec,
        };
        let block_bytes = opts.block_bytes_hint().unwrap_or(self.default_block_bytes);
        let placement = self.placement;
        let mut rng = self.rng.clone();
        let result = self.put_file(name, data, spec, block_bytes, placement, &mut rng);
        self.rng = rng;
        result.map(|_| ())
    }

    fn get(&mut self, name: &str) -> Result<Vec<u8>, ClusterError> {
        match self.link.meta.extent(name) {
            Some(ext) => self.read_file_range(&ext.pack, ext.offset, ext.len),
            None => self.get_file(name),
        }
    }

    fn get_range(&mut self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, ClusterError> {
        match self.link.meta.extent(name) {
            Some(ext) => {
                if offset.saturating_add(len) > ext.len {
                    return Err(ClusterError::Protocol {
                        reason: format!(
                            "range {offset}+{len} past end of {name:?} ({} bytes)",
                            ext.len
                        ),
                    });
                }
                self.read_file_range(&ext.pack, ext.offset + offset, len)
            }
            None => self.read_file_range(name, offset, len),
        }
    }

    fn write_range(&mut self, name: &str, offset: u64, data: &[u8]) -> Result<(), ClusterError> {
        let op = telemetry::trace::TraceCtx::root().child("cluster.op.write_range_us");
        let op_ctx = op.ctx();
        match self.link.meta.extent(name) {
            Some(ext) => {
                if offset.saturating_add(data.len() as u64) > ext.len {
                    return Err(ClusterError::Protocol {
                        reason: format!(
                            "range {offset}+{} past end of {name:?} ({} bytes)",
                            data.len(),
                            ext.len
                        ),
                    });
                }
                self.write_file_range(&ext.pack, ext.offset + offset, data, op_ctx)
            }
            None => self.write_file_range(name, offset, data, op_ctx),
        }
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<u64, ClusterError> {
        if self.link.meta.extent(name).is_some() {
            return Err(ClusterError::Protocol {
                reason: format!("packed object {name:?} cannot grow; delete and re-put"),
            });
        }
        self.append_file(name, data)
    }

    fn delete(&mut self, name: &str) -> Result<bool, ClusterError> {
        if self.link.meta.extent(name).is_some() {
            // Packed: drop the extent only — the pack keeps the bytes.
            let existed = self.link.meta.delete_extent(name)?;
            if existed {
                DELETES.inc();
            }
            return Ok(existed);
        }
        let Some(fp) = self.link.meta.file(name) else {
            return Ok(false);
        };
        let op = telemetry::trace::TraceCtx::root().child("cluster.op.delete_us");
        let op_ctx = op.ctx();
        // Reclaim blocks best-effort on the alive nodes before the
        // authoritative metadata delete. A node that is unreachable keeps
        // an orphan block — wasted space, never served (the manifest is
        // gone) and harmlessly overwritten if the name is re-put onto it.
        let mut tally = Tally::default();
        {
            let link = &self.link;
            let targets: Vec<(usize, BlockId)> = fp
                .nodes
                .iter()
                .enumerate()
                .flat_map(|(s, row)| {
                    row.iter()
                        .enumerate()
                        .map(move |(r, &node)| (node, block_id(name, s, r)))
                })
                .filter(|&(node, _)| link.meta.is_alive(node))
                .collect();
            let results = self.ctx.run(targets.len(), |i| {
                let request = Request::DeleteBlock {
                    id: targets[i].1.clone(),
                };
                link.call(targets[i].0, &request, op_ctx)
            });
            for (_, t) in results.into_iter().flatten() {
                tally += t;
            }
        }
        self.fold(tally);
        let existed = self.link.meta.delete_file(name)?;
        self.manifests.remove(name);
        DELETES.inc();
        Ok(existed)
    }

    fn object_len(&mut self, name: &str) -> Result<u64, ClusterError> {
        if let Some(ext) = self.link.meta.extent(name) {
            return Ok(ext.len);
        }
        Ok(self.file_manifest(name)?.file_len)
    }
}

/// Uploads one encoded stripe: all `n` block PutBlocks fan out over
/// `ctx`'s workers.
#[allow(clippy::too_many_arguments)]
fn send_stripe(
    link: &Link,
    ctx: &ParallelCtx,
    name: &str,
    stripe: usize,
    row: &[usize],
    blocks: &[Vec<u8>],
    trace: telemetry::trace::TraceCtx,
) -> Result<Tally, ClusterError> {
    let results = ctx.run(row.len(), |role| {
        let request = Request::PutBlock {
            id: block_id(name, stripe, role),
            data: blocks[role].clone(),
        };
        link.call(row[role], &request, trace)
    });
    let mut tally = Tally::default();
    for result in results {
        match result? {
            (Response::Done, t) => tally += t,
            (Response::Error(message), _) => return Err(ClusterError::Remote { message }),
            (other, _) => {
                return Err(ClusterError::Protocol {
                    reason: format!("unexpected reply to PutBlock: {other:?}"),
                });
            }
        }
    }
    Ok(tally)
}

fn block_id(name: &str, stripe: usize, role: usize) -> BlockId {
    BlockId {
        file: name.to_string(),
        stripe: stripe as u32,
        block: role as u32,
    }
}

fn unreadable(name: &str, stripe: usize) -> ClusterError {
    ClusterError::Unavailable {
        reason: format!("stripe {stripe} of {name:?} has too few reachable blocks"),
    }
}

/// Maps a stripe-read executor failure onto the client's error surface.
fn read_error(name: &str, stripe: usize, e: ExecError<ClusterError>) -> ClusterError {
    match e {
        ExecError::Source(e) => e,
        ExecError::Code(_) => unreadable(name, stripe),
        ExecError::ReplansExhausted { attempts } => ClusterError::ReplansExhausted {
            name: name.into(),
            stripe,
            attempts,
        },
    }
}

/// Maps a repair executor failure onto the client's error surface.
fn repair_error(name: &str, stripe: usize, d: usize, e: ExecError<ClusterError>) -> ClusterError {
    match e {
        ExecError::Source(e) => e,
        ExecError::Code(CodeError::InsufficientData { got, .. }) => ClusterError::Unavailable {
            reason: format!("stripe {stripe} of {name:?}: repair needs {d} helpers, {got} present"),
        },
        ExecError::Code(e) => e.into(),
        ExecError::ReplansExhausted { attempts } => ClusterError::ReplansExhausted {
            name: name.into(),
            stripe,
            attempts,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::LocalCluster;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `StripeSource::fetch_batch` (fanned out over workers) must produce
    /// exactly the Fetch sequence of the scalar calls it replaces, against
    /// a real TCP cluster — including the Unavailable slot of a dead node.
    #[test]
    fn stripe_source_batch_matches_scalar_over_tcp() {
        let mut cluster = LocalCluster::start(6).unwrap();
        let mut client = cluster.client();
        let spec = CodeSpec::Carousel {
            n: 6,
            k: 3,
            d: 3,
            p: 6,
        };
        let data: Vec<u8> = (0..720).map(|i| (i * 13 + 5) as u8).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let fp = client
            .put_file("batchfile", &data, spec, 120, Placement::Random, &mut rng)
            .unwrap();
        cluster.fail(fp.nodes[0][2]);

        let code = spec.build().unwrap();
        let sub = code.linear().sub();
        let fanout = ParallelCtx::builder().threads(6).build();
        fn make<'a>(
            link: &'a Link,
            ctx: &'a ParallelCtx,
            row: &'a [usize],
            sub: usize,
        ) -> StripeSource<'a> {
            StripeSource {
                link,
                ctx,
                name: "batchfile",
                stripe: 0,
                row,
                sub,
                w: 120 / sub,
                present: None,
                trace: telemetry::trace::TraceCtx::root(),
                gate: None,
                tally: Tally::default(),
            }
        }

        let requests: Vec<BatchRequest<'_>> = (0..6)
            .map(|role| BatchRequest::Units {
                node: role,
                units: vec![0, sub - 1],
            })
            .collect();
        let mut batched = make(&client.link, &fanout, &fp.nodes[0], sub);
        let got = batched.fetch_batch(&requests).unwrap();

        let sequential = ParallelCtx::sequential();
        let mut scalar = make(&client.link, &sequential, &fp.nodes[0], sub);
        let want: Vec<Fetch> = (0..6)
            .map(|role| scalar.fetch_units(role, &[0, sub - 1]).unwrap())
            .collect();

        assert_eq!(got, want);
        assert_eq!(got[2], Fetch::Unavailable, "dead node's slot");
        assert!(got.iter().filter(|f| matches!(f, Fetch::Data(_))).count() == 5);
        // Both sources moved the same number of payload bytes.
        assert_eq!(batched.tally.rx, scalar.tally.rx);
        assert_eq!(batched.tally.tx, scalar.tally.tx);
    }
}
