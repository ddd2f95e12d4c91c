//! Drives one workload against the loopback TCP cluster through
//! `access::ObjectStore`, timing every call and checking every byte it
//! returns against an in-benchmark model of each object.
//!
//! A run is a sequence of rounds. Each round starts a fresh 9-node
//! `LocalCluster` and preloads it (timed as set-up), then measures: for
//! `stream` and `point` a share of `--seconds`, for `degraded` one pass
//! of fail, read, repair and re-read. At least [`MIN_ROUNDS`] rounds run,
//! so set-up is timed several times per run, and more run while they
//! bring the measured time closer to `--seconds`.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

use access::{ObjectStore, PutOptions};
use cluster::testing::LocalCluster;
use cluster::{ClusterClient, ClusterError};
use workloads::parallel::ParallelCtx;

use crate::spec::{content, derive, point_name, Code, PointOp, PointOps, Sizes, Workload, CODES};

/// Datanodes in the cluster: one more than the stripe width.
pub const NODES: usize = 9;

/// The node `degraded` fails in every round.
pub const FAILED_NODE: usize = 0;

/// Rounds per run at the least; the median set-up time is over these.
pub const MIN_ROUNDS: usize = 3;

/// In-place edits kept for the codec delta replay.
const MAX_EDITS: usize = 64;

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Config {
    /// The traffic mix.
    pub workload: Workload,
    /// Seeds contents, operations and client placement.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Record a span around every call.
    pub trace: bool,
    /// Object and operation sizes.
    pub sizes: Sizes,
    /// Threads in the client's fan-out pool.
    pub threads: usize,
}

/// One timed `ObjectStore` call that succeeded.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Operation label, e.g. `get` or `degraded_get`.
    pub op: &'static str,
    /// Code of the object touched.
    pub code: Code,
    /// User bytes moved: returned, written, or rebuilt by a repair.
    pub bytes: u64,
    /// Wall time of the call.
    pub secs: f64,
}

/// Client wire bytes and user bytes of one operation label.
#[derive(Debug, Clone, Copy, Default)]
pub struct Wire {
    /// Bytes the client sent, framing included.
    pub tx: u64,
    /// Bytes the client received, framing included.
    pub rx: u64,
    /// User bytes the calls moved.
    pub bytes: u64,
}

/// Exact repair accounting of one code, from `RepairReport`s.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepairTally {
    /// Bytes received from helpers, framing included.
    pub wire_bytes: u64,
    /// Lost block bytes rebuilt.
    pub lost_bytes: u64,
}

/// A traced interval. Operation spans are children of their round span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Shared by every span of one call (the round's own id for rounds).
    pub trace: u64,
    /// This span.
    pub id: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    /// `round` or `<op>.<code>`.
    pub name: String,
    /// Start, microseconds since the run began.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// Inputs the workload generated, kept for the per-layer replays.
#[derive(Debug, Clone, Default)]
pub struct LayerInputs {
    /// First stripe of the first object of each code.
    pub stripes: BTreeMap<Code, Vec<u8>>,
    /// `point` writes as `(code, offset within its stripe, new bytes)`.
    pub edits: Vec<(Code, usize, Vec<u8>)>,
    /// Block of the replayed stripe the failed node held.
    pub missing: BTreeMap<Code, usize>,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every successful call, set-up calls included.
    pub samples: Vec<Sample>,
    /// Set-up seconds of each round.
    pub setup_s: Vec<f64>,
    /// Measured seconds, summed over rounds.
    pub measured_s: f64,
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that returned an error.
    pub failed: u64,
    /// Calls that returned bytes other than the model's.
    pub wrong: u64,
    /// Disk bytes over live user bytes, per round.
    pub space_amp: Vec<f64>,
    /// Wire bytes per `(operation label, code)`.
    pub wire: BTreeMap<(&'static str, Code), Wire>,
    /// Repair accounting per code.
    pub repairs: BTreeMap<Code, RepairTally>,
    /// Plan-cache `(hits, misses)` while measuring.
    pub plan_cache: (u64, u64),
    /// Manifest-cache `(hits, misses)` while measuring.
    pub manifests: (u64, u64),
    /// The telemetry registry over the measured phases.
    pub registry: telemetry::Snapshot,
    /// Process CPU seconds while measuring.
    pub cpu_s: f64,
    /// Spans, when tracing.
    pub spans: Vec<Span>,
    /// `round/name` → `nodes[stripe][block]` of every put.
    pub placements: BTreeMap<String, Vec<Vec<usize>>>,
    /// Replay inputs.
    pub inputs: LayerInputs,
}

impl Outcome {
    /// Successful calls with label `op` on objects of `code`.
    pub fn of<'a>(&'a self, op: &'a str, code: Code) -> impl Iterator<Item = &'a Sample> + 'a {
        self.samples
            .iter()
            .filter(move |s| s.op == op && s.code == code)
    }

    /// `true` when every call succeeded with the model's bytes.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.wrong == 0
    }
}

/// Runs `cfg`, with every cluster under the process's temp directory
/// (which the caller points at `work_dir`).
///
/// # Errors
///
/// Returns cluster start-up failures; failed calls are counted instead.
pub fn run(cfg: &Config, work_dir: &Path) -> Result<Outcome, ClusterError> {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let ctx = ParallelCtx::builder().threads(cfg.threads).build();
    // An unmeasured set-up first: the first cluster of a process is
    // slower than every later one (allocator and page-cache state), and
    // a long-running store does not pay that on every request.
    let mut warm = Outcome::default();
    drop(Round::setup(
        cfg,
        &mut warm,
        &ctx,
        usize::MAX,
        epoch,
        work_dir,
    )?);
    out.attempted += warm.attempted;
    out.failed += warm.failed;
    out.wrong += warm.wrong;
    let mut round = 0;
    // Another round runs while it brings the measured time closer to
    // `--seconds`: a `degraded` pass cannot stop part-way.
    let another = |round: usize, measured: f64| {
        round < MIN_ROUNDS || measured * (1.0 + 0.5 / round as f64) < cfg.seconds
    };
    while another(round, out.measured_s) {
        let mut r = Round::setup(cfg, &mut out, &ctx, round, epoch, work_dir)?;
        r.measure();
        round += 1;
    }
    Ok(out)
}

/// One fresh cluster, its client and the model of its objects.
struct Round<'a> {
    cfg: &'a Config,
    out: &'a mut Outcome,
    cluster: LocalCluster,
    client: ClusterClient,
    model: HashMap<String, (Code, Vec<u8>)>,
    live_bytes: u64,
    round: usize,
    epoch: Instant,
    span: u64,
    work_dir: &'a Path,
}

impl<'a> Round<'a> {
    fn setup(
        cfg: &'a Config,
        out: &'a mut Outcome,
        ctx: &ParallelCtx,
        round: usize,
        epoch: Instant,
        work_dir: &'a Path,
    ) -> Result<Round<'a>, ClusterError> {
        let start = Instant::now();
        let cluster = LocalCluster::start(NODES)?;
        let client = cluster
            .client()
            .with_fanout(ctx.clone())
            .with_seed(derive(cfg.seed, round as u64));
        let mut r = Round {
            cfg,
            out,
            cluster,
            client,
            model: HashMap::new(),
            live_bytes: 0,
            round,
            epoch,
            span: 0,
            work_dir,
        };
        let sizes = cfg.sizes;
        match cfg.workload {
            // A put and a whole read per code fill connections, plan
            // caches and buffers before timing.
            Workload::Stream => {
                for code in CODES {
                    let name = format!("warm-{}", code.suffix());
                    let data = content(derive(cfg.seed, 0xA000 + code as u64), sizes.stream_object);
                    r.put("warm_put", &name, code, data);
                    r.get("warm_get", &name);
                }
            }
            Workload::Point => {
                for key in 0..sizes.point_keys {
                    for code in CODES {
                        let seed = derive(cfg.seed, 0xB000 + 2 * key as u64 + code as u64);
                        let data = content(seed, sizes.point_object);
                        r.put("preload", &point_name(code, key), code, data);
                    }
                }
            }
            Workload::Degraded => {
                for i in 0..sizes.degraded_objects {
                    for code in CODES {
                        let name = format!("dg-{}-{i}", code.suffix());
                        let seed = derive(cfg.seed, 0xC000 + 2 * i as u64 + code as u64);
                        r.put("preload", &name, code, content(seed, sizes.degraded_object));
                    }
                }
                // Before the failure: a failed node's stale files are not
                // space the system uses.
                r.record_space();
            }
        }
        r.out.setup_s.push(start.elapsed().as_secs_f64());
        Ok(r)
    }

    fn measure(&mut self) {
        let registry = telemetry::Registry::global();
        registry.reset();
        let plans0 = (
            self.client.plan_cache().hits(),
            self.client.plan_cache().misses(),
        );
        let manifests0 = self.client.manifest_cache_stats();
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        let round_span = self.out.spans.len();
        if self.cfg.trace {
            self.span = round_span as u64 + 1;
            self.out.spans.push(Span {
                trace: self.span,
                id: self.span,
                parent: 0,
                name: "round".into(),
                start_us: (start - self.epoch).as_secs_f64() * 1e6,
                dur_us: 0.0,
            });
        }
        let budget = self.cfg.seconds / MIN_ROUNDS as f64;
        match self.cfg.workload {
            Workload::Stream => self.stream(start, budget),
            Workload::Point => self.point(start, budget),
            Workload::Degraded => self.degraded(),
        }
        let secs = start.elapsed().as_secs_f64();
        self.out.measured_s += secs;
        self.out.cpu_s += cpu_seconds() - cpu0;
        self.out.registry = self.out.registry.merge(&registry.snapshot());
        let plans = self.client.plan_cache();
        self.out.plan_cache.0 += plans.hits() - plans0.0;
        self.out.plan_cache.1 += plans.misses() - plans0.1;
        let manifests = self.client.manifest_cache_stats();
        self.out.manifests.0 += manifests.0 - manifests0.0;
        self.out.manifests.1 += manifests.1 - manifests0.1;
        if self.cfg.trace {
            self.out.spans[round_span].dur_us = secs * 1e6;
        }
        if self.cfg.workload != Workload::Degraded {
            self.record_space();
        }
    }

    /// Each object is put once and read whole twice; the codes alternate.
    fn stream(&mut self, start: Instant, budget: f64) {
        let mut i = 0u64;
        while start.elapsed().as_secs_f64() < budget {
            for code in CODES {
                let name = format!("st{i}-{}", code.suffix());
                let seed = derive(
                    derive(self.cfg.seed, self.round as u64),
                    2 * i + code as u64,
                );
                self.put(
                    "put",
                    &name,
                    code,
                    content(seed, self.cfg.sizes.stream_object),
                );
                self.get("get", &name);
                self.get("get", &name);
                self.model.remove(&name);
            }
            i += 1;
        }
    }

    fn point(&mut self, start: Instant, budget: f64) {
        let ops = PointOps::new(derive(self.cfg.seed, self.round as u64), self.cfg.sizes);
        for op in ops {
            if start.elapsed().as_secs_f64() >= budget {
                break;
            }
            match op {
                PointOp::Read {
                    code,
                    key,
                    offset,
                    len,
                } => {
                    let name = point_name(code, key);
                    if let Some((got, secs)) =
                        self.timed("get_range", code, |c| c.get_range(&name, offset, len))
                    {
                        let at = offset as usize..(offset + len) as usize;
                        let ok = got == self.model[&name].1[at];
                        self.check(&name, ok);
                        self.sample("get_range", code, len, secs);
                    }
                }
                PointOp::Write {
                    code,
                    key,
                    offset,
                    fill,
                } => {
                    let name = point_name(code, key);
                    let patch = content(fill, self.cfg.sizes.write_len as usize);
                    if let Some(((), secs)) = self.timed("write_range", code, |c| {
                        c.write_range(&name, offset, &patch)
                    }) {
                        let at = offset as usize;
                        let object = &mut self.model.get_mut(&name).expect("preloaded").1;
                        object[at..at + patch.len()].copy_from_slice(&patch);
                        self.sample("write_range", code, patch.len() as u64, secs);
                        let stripe = self.cfg.sizes.stripe_bytes();
                        if self.out.inputs.edits.len() < MAX_EDITS
                            && at % stripe + patch.len() <= stripe
                        {
                            self.out.inputs.edits.push((code, at % stripe, patch));
                        }
                    }
                }
            }
        }
        // A write is only checked by a later read; read everything once.
        let mut names: Vec<String> = self.model.keys().cloned().collect();
        names.sort();
        for name in names {
            self.get("verify", &name);
        }
    }

    /// Fail one node, read every object degraded, then repair each and
    /// read it again on the healthy path.
    fn degraded(&mut self) {
        self.cluster.fail(FAILED_NODE);
        let mut names: Vec<String> = self.model.keys().cloned().collect();
        names.sort();
        for name in &names {
            self.get("degraded_get", name);
        }
        for name in &names {
            let code = self.model[name].0;
            if let Some((report, secs)) = self.timed("repair", code, |c| c.repair_file(name)) {
                let lost = (report.blocks_repaired * self.cfg.sizes.block_bytes) as u64;
                let tally = self.out.repairs.entry(code).or_default();
                tally.wire_bytes += report.wire_bytes;
                tally.lost_bytes += lost;
                if lost > 0 {
                    self.sample("repair", code, lost, secs);
                }
            }
            self.get("get", name);
        }
    }

    /// Runs one call, counting it, its wire bytes and (when tracing) its
    /// span. Returns the result and wall seconds on success.
    fn timed<T>(
        &mut self,
        op: &'static str,
        code: Code,
        call: impl FnOnce(&mut ClusterClient) -> Result<T, ClusterError>,
    ) -> Option<(T, f64)> {
        let (tx0, rx0) = self.client.wire_counters();
        let start = Instant::now();
        let result = call(&mut self.client);
        let secs = start.elapsed().as_secs_f64();
        let (tx1, rx1) = self.client.wire_counters();
        self.out.attempted += 1;
        let wire = self.out.wire.entry((op, code)).or_default();
        wire.tx += tx1 - tx0;
        wire.rx += rx1 - rx0;
        if self.cfg.trace {
            let id = self.out.spans.len() as u64 + 1;
            self.out.spans.push(Span {
                trace: id,
                id,
                parent: self.span,
                name: format!("{op}.{}", code.suffix()),
                start_us: (start - self.epoch).as_secs_f64() * 1e6,
                dur_us: secs * 1e6,
            });
        }
        match result {
            Ok(value) => Some((value, secs)),
            Err(e) => {
                self.out.failed += 1;
                eprintln!("e2ebench: {op} on a {} object failed: {e}", code.suffix());
                None
            }
        }
    }

    fn sample(&mut self, op: &'static str, code: Code, bytes: u64, secs: f64) {
        self.out.wire.entry((op, code)).or_default().bytes += bytes;
        self.out.samples.push(Sample {
            op,
            code,
            bytes,
            secs,
        });
    }

    fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            self.out.wrong += 1;
            eprintln!("e2ebench: wrong bytes read from {name}");
        }
    }

    fn put(&mut self, op: &'static str, name: &str, code: Code, data: Vec<u8>) {
        let opts = PutOptions::new()
            .code(code.spec())
            .block_bytes(self.cfg.sizes.block_bytes);
        let Some(((), secs)) = self.timed(op, code, |c| c.put_opts(name, &data, &opts)) else {
            return;
        };
        self.sample(op, code, data.len() as u64, secs);
        self.live_bytes += data.len() as u64;
        if let Some(fp) = self.client.coordinator().file(name) {
            let inputs = &mut self.out.inputs;
            if let Entry::Vacant(slot) = inputs.stripes.entry(code) {
                let stripe = self.cfg.sizes.stripe_bytes().min(data.len());
                slot.insert(data[..stripe].to_vec());
                let role = fp.nodes[0].iter().position(|&n| n == FAILED_NODE);
                inputs.missing.insert(code, role.unwrap_or(0));
            }
            self.out
                .placements
                .insert(format!("{}/{name}", self.round), fp.nodes);
        }
        self.model.insert(name.to_string(), (code, data));
    }

    fn get(&mut self, op: &'static str, name: &str) {
        let code = self.model[name].0;
        if let Some((got, secs)) = self.timed(op, code, |c| c.get(name)) {
            let ok = got == self.model[name].1;
            self.check(name, ok);
            self.sample(op, code, got.len() as u64, secs);
        }
    }

    /// Bytes under the work directory (node stores and metadata log)
    /// over live user bytes.
    fn record_space(&mut self) {
        let disk = disk_bytes(self.work_dir);
        self.out
            .space_amp
            .push(disk as f64 / self.live_bytes.max(1) as f64);
    }
}

/// Apparent size of every file under `dir`.
pub fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => disk_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// User plus system CPU seconds of this process, from `/proc/self/stat`
/// (clock ticks at the Linux `USER_HZ` of 100). 0 where unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}
