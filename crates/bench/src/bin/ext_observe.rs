//! Tail-latency attribution benchmark: where do get, degraded-get and
//! repair requests actually spend their time on a delay-modeled cluster?
//!
//! Runs a loopback cluster whose datanodes charge a per-request service
//! delay, drives three traffic phases — healthy gets, degraded gets (one
//! node down) and a repair pass — and reports the per-phase latency
//! histograms the client records for every exchange: `connect` (fresh
//! socket), `send` (request write), `wait` (first response byte),
//! `recv` (rest of the frame) and `decode` (stripe/block reconstruction).
//! Each phase resets the registry and uses a fresh client so its numbers
//! are not polluted by the previous one.
//!
//! It also captures one traced `get` end to end: the client's
//! `cluster.op.get_us` root span, its per-stripe fetch/decode children,
//! and the serving datanodes' `cluster.node.{request,queue,service}_us`
//! spans — all sharing the client's TraceId because the trace context
//! rides the wire frames. The raw trace lines land in the JSON as
//! `trace_sample`.
//!
//! Writes `results/BENCH_observe.json` (in smoke mode too — the file is
//! this bench's deliverable). Knobs: `BENCH_REPS` (gets per phase,
//! default 6), `BENCH_DELAY_US` (per-request service delay, default
//! 1500; 800 in smoke), `BENCH_FANOUT` (default 8), `BENCH_PIPELINE_W`
//! (default 2). `--smoke` shrinks the file and asserts every phase
//! histogram populated and the span tree is complete — the CI gate in
//! `scripts/check.sh`.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use access::{ObjectStore, PutOptions};
use bench_support::env_knob;
use cluster::testing::LocalCluster;
use cluster::ClusterClient;
use filestore::format::CodeSpec;
use workloads::parallel::ParallelCtx;

/// One phase histogram of one traffic mix: count and tail quantiles.
struct PhaseRow {
    op: &'static str,
    phase: &'static str,
    count: u64,
    p50: u64,
    p95: u64,
    p99: u64,
}

/// Extracts `(count, p50, p95, p99)` for `name`, zeros when the
/// histogram is absent.
fn quantiles(snap: &telemetry::Snapshot, name: &str) -> (u64, u64, u64, u64) {
    snap.histogram(name)
        .map(|h| (h.count, h.p50(), h.p95(), h.p99()))
        .unwrap_or((0, 0, 0, 0))
}

/// The five attribution phases of `op`, read from a snapshot taken right
/// after that op's traffic. Repair's decode time lives in the access
/// layer (`combine_payloads`), the read paths' in the client.
fn phase_rows(snap: &telemetry::Snapshot, op: &'static str) -> Vec<PhaseRow> {
    let decode_metric = if op == "repair" {
        "access.phase.decode_us"
    } else {
        "cluster.phase.decode_us"
    };
    [
        ("connect", "cluster.phase.connect_us"),
        ("send", "cluster.phase.send_us"),
        ("wait", "cluster.phase.wait_us"),
        ("recv", "cluster.phase.recv_us"),
        ("decode", decode_metric),
    ]
    .into_iter()
    .map(|(phase, metric)| {
        let (count, p50, p95, p99) = quantiles(snap, metric);
        PhaseRow {
            op,
            phase,
            count,
            p50,
            p95,
            p99,
        }
    })
    .collect()
}

/// A `Write` sink capturing telemetry event lines into shared memory.
#[derive(Clone)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("capture lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Pulls the `"key":<digits>` value out of a raw trace line.
fn num_field(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let at = line.find(&tag)? + tag.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn to_json(
    smoke: bool,
    reps: usize,
    delay_us: usize,
    fanout: usize,
    depth: usize,
    rows: &[PhaseRow],
    trace_lines: &[String],
) -> String {
    let phases = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"op\": \"{}\", \"phase\": \"{}\", \"count\": {}, \
                 \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}}}",
                r.op, r.phase, r.count, r.p50, r.p95, r.p99
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let sample = trace_lines
        .iter()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"bench\": \"observe\",\n  \"smoke\": {smoke},\n  \"reps\": {reps},\n  \
         \"config\": {{\"kernel\": \"{}\", \"fanout\": {fanout}, \"pipeline_depth\": {depth}, \
         \"request_delay_us\": {delay_us}, \"geometry\": \"carousel(8,4,6,8)\"}},\n  \
         \"phases\": [\n{phases}\n  ],\n  \"trace_sample\": [\n{sample}\n  ]\n}}\n",
        gf256::kernel().name(),
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = env_knob("BENCH_REPS", if smoke { 3 } else { 6 });
    let delay_us = env_knob("BENCH_DELAY_US", if smoke { 800 } else { 1500 });
    let fanout = env_knob("BENCH_FANOUT", 8);
    let depth = env_knob("BENCH_PIPELINE_W", 2);
    let spec = CodeSpec::Carousel {
        n: 8,
        k: 4,
        d: 6,
        p: 8,
    };
    // Block size must be a multiple of the code's sub-stripe count (6
    // here), so the full run uses 4320 (~4 KiB) rather than 4096.
    let block_bytes = if smoke { 120 } else { 4320 };
    let stripes = if smoke { 4 } else { 12 };
    let data: Vec<u8> = (0..stripes * 4 * block_bytes)
        .map(|i| (i * 137 + 11) as u8)
        .collect();

    let delay = Duration::from_micros(delay_us as u64);
    let mut cluster = LocalCluster::start_with_delay(9, delay).expect("start cluster");
    let client = |cluster: &LocalCluster| -> ClusterClient {
        cluster
            .client()
            .with_fanout(ParallelCtx::builder().threads(fanout).build())
            .with_pipeline_depth(depth)
    };
    let opts = PutOptions::new()
        .code(&spec.to_string())
        .block_bytes(block_bytes);
    client(&cluster)
        .with_seed(2024)
        .put_opts("observed", &data, &opts)
        .expect("put");
    let fp = cluster
        .coordinator()
        .file("observed")
        .expect("placement after put");

    let mut rows: Vec<PhaseRow> = Vec::new();

    // --- Phase 1: healthy gets. Fresh client so every node costs one
    // connect; registry reset so the histograms hold only this phase.
    telemetry::Registry::global().reset();
    let mut c = client(&cluster);
    for _ in 0..reps {
        assert_eq!(c.get("observed").expect("get"), data);
    }
    rows.extend(phase_rows(&telemetry::Registry::global().snapshot(), "get"));

    // --- Traced sample: one end-to-end get with the event sink capturing
    // every trace line (client op root, per-stripe fetch/decode children,
    // and the datanodes' request/queue/service spans carrying the same
    // TraceId over the wire).
    let capture = Capture(Arc::new(Mutex::new(Vec::new())));
    telemetry::set_event_sink(capture.clone());
    assert_eq!(client(&cluster).get("observed").expect("traced get"), data);
    // Server request spans close just after the response is written; give
    // the in-process nodes a beat to flush theirs into the sink.
    std::thread::sleep(Duration::from_millis(100));
    telemetry::clear_event_sink();
    let captured = String::from_utf8(capture.0.lock().expect("capture lock").clone())
        .expect("trace lines are UTF-8");
    let trace_lines: Vec<String> = captured
        .lines()
        .filter(|l| l.contains("\"type\":\"trace\""))
        .map(str::to_string)
        .collect();

    // --- Phase 2: degraded gets (one node down, known to the
    // coordinator; parity units fill the gap).
    let victim = fp.nodes[0][1];
    cluster.fail(victim);
    telemetry::Registry::global().reset();
    let mut c = client(&cluster);
    for _ in 0..reps {
        assert_eq!(c.get("observed").expect("degraded get"), data);
    }
    rows.extend(phase_rows(
        &telemetry::Registry::global().snapshot(),
        "degraded_get",
    ));

    // --- Phase 3: repair the victim's blocks (re-homed onto the spare).
    telemetry::Registry::global().reset();
    let mut c = client(&cluster);
    let report = c.repair_file("observed").expect("repair");
    assert!(report.blocks_repaired > 0, "victim hosted no block");
    rows.extend(phase_rows(
        &telemetry::Registry::global().snapshot(),
        "repair",
    ));
    assert_eq!(c.get("observed").expect("post-repair get"), data);

    // --- Cluster-wide scrape over the wire: every running node answers
    // the Stats op; the merged snapshot exercises the aggregation path.
    let merged = cluster.cluster_stats(&mut c).expect("cluster stats scrape");

    // --- Report.
    println!(
        "== Tail-latency attribution (delay {delay_us}us, fan-out {fanout}, \
         depth {depth}, {reps} gets/phase) =="
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.op.to_string(),
                r.phase.to_string(),
                r.count.to_string(),
                r.p50.to_string(),
                r.p95.to_string(),
                r.p99.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        bench_support::render_table(
            &["op", "phase", "count", "p50_us", "p95_us", "p99_us"],
            &table
        )
    );
    println!(
        "traced get: {} trace line(s) captured; cluster scrape merged {} histogram(s)",
        trace_lines.len(),
        merged.histograms.len()
    );

    let json = to_json(smoke, reps, delay_us, fanout, depth, &rows, &trace_lines);
    std::fs::create_dir_all("results").expect("create results/");
    let path = std::path::PathBuf::from("results/BENCH_observe.json");
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {} ({} bytes)", path.display(), json.len());

    // Every op must attribute all five phases. (Counts, not times:
    // a loopback connect can round to 0 µs.)
    for r in &rows {
        assert!(r.count > 0, "{} {} histogram is empty", r.op, r.phase);
    }
    // The wait phase absorbs the server's service delay, so its
    // median must at least reach the configured delay's bucket.
    let get_wait = rows
        .iter()
        .find(|r| r.op == "get" && r.phase == "wait")
        .expect("get wait row");
    assert!(
        get_wait.p50 >= delay_us as u64 / 4,
        "get wait p50 {}us implausibly below the {delay_us}us service delay",
        get_wait.p50
    );
    // One complete client -> datanode span tree: the op root's trace
    // id must also tag per-stripe children and server-side spans.
    let root = trace_lines
        .iter()
        .find(|l| l.contains("\"name\":\"cluster.op.get_us\""))
        .expect("no cluster.op.get_us root span captured");
    let trace_id = num_field(root, "trace").expect("root span has a trace id");
    let tagged = |name: &str| {
        trace_lines
            .iter()
            .filter(|l| l.contains(&format!("\"name\":\"{name}\"")))
            .filter(|l| num_field(l, "trace") == Some(trace_id))
            .count()
    };
    assert!(tagged("cluster.fetch.stripe_us") > 0, "no fetch children");
    assert!(tagged("cluster.decode.stripe_us") > 0, "no decode children");
    assert!(
        tagged("cluster.node.request_us") > 0,
        "no datanode span joined the client's trace over the wire"
    );
    assert!(tagged("cluster.node.queue_us") > 0, "no queue sub-span");
    assert!(tagged("cluster.node.service_us") > 0, "no service sub-span");
    // The scrape saw the repair phase's server-side counters.
    assert!(
        merged.counter("cluster.node.requests").unwrap_or(0) > 0,
        "merged cluster scrape lost node request counters"
    );
    let mode = if smoke { "smoke" } else { "full" };
    println!(
        "{mode}: all phases populated, span tree complete (trace {trace_id}), \
         wire scrape merged"
    );
}
