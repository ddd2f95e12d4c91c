//! `e2ebench --workload <stream|point|degraded> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload on a 9-node loopback cluster and prints a report,
//! then, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and the metrics: the end-to-end ones untraced, the per-layer
//! ones traced. Run it from the repository root; it keeps its clusters
//! and files under `.bench_tmp/` there and removes them on exit. Exits 1
//! when any call failed or returned wrong bytes, 2 on bad arguments.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use e2ebench::drive::{self, Config, FAILED_NODE, NODES};
use e2ebench::layers;
use e2ebench::report::{self, Metric};
use e2ebench::spec::{Sizes, Workload, CODES};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(bad)?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\nusage: e2ebench --workload <stream|point|degraded> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir()
        .expect("current directory is readable")
        .join(".bench_tmp");
    let work = root.join(format!("run-{}", std::process::id()));
    let scratch = root.join(format!("replay-{}", std::process::id()));
    for dir in [&work, &scratch] {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("work directory is writable");
    }
    // Before any thread starts: every LocalCluster lives under the temp dir.
    std::env::set_var("TMPDIR", &work);
    let code = run(&args, &root, &work, &scratch);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir_all(&scratch);
    code
}

fn run(args: &Args, root: &Path, work: &Path, scratch: &Path) -> ExitCode {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sizes = Sizes::FULL;
    let cfg = Config {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes,
        threads,
    };
    describe(&cfg, work);
    let out = match drive::run(&cfg, work) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2ebench: cluster start failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# rounds: {}; measured {:.2} s; calls: {}",
        out.setup_s.len(),
        out.measured_s,
        op_counts(&out)
    );
    let e2e = report::end_to_end(&out, args.workload);
    print!("{}", report::human(&out, args.workload, &e2e));
    let baseline = root.join(format!("untraced-{}.txt", args.workload));
    let mut correct = out.correct();
    let metrics = if args.trace {
        overhead(&e2e, &baseline);
        write_spans(&out, &root.join(format!("spans-{}.jsonl", args.workload)));
        let (layer, replays_ok) = layers::measure(&out, args.workload, sizes, args.seed, scratch);
        if !replays_ok {
            eprintln!("e2ebench: a layer replay produced wrong bytes");
        }
        correct &= replays_ok;
        for m in &layer {
            println!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
        }
        layer
    } else {
        let lines: String = e2e
            .iter()
            .map(|m| format!("{} {}\n", m.name, m.value))
            .collect();
        let _ = std::fs::write(&baseline, lines);
        e2e
    };
    println!("{}", report::json_line(&out, correct, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Self-description, so numbers from different hosts are never compared
/// blindly.
fn describe(cfg: &Config, work: &Path) {
    let s = cfg.sizes;
    let features: Vec<String> = gf256::detected_features()
        .iter()
        .map(|(f, on)| format!("{f}={}", if *on { "yes" } else { "no" }))
        .collect();
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!(
        "# gf256 kernel: {} ({})",
        gf256::kernel().name(),
        features.join(" ")
    );
    println!("# nproc: {}; client: one closed-loop caller, fan-out pool of {} threads, one connection per datanode", cfg.threads, cfg.threads);
    println!(
        "# cluster: {NODES} loopback datanodes, no delay model; degraded fails node {FAILED_NODE}"
    );
    let codes: Vec<&str> = CODES.iter().map(|c| c.spec()).collect();
    println!(
        "# codes: {}; block bytes: {}",
        codes.join(" vs "),
        s.block_bytes
    );
    match cfg.workload {
        Workload::Stream => println!("# objects: {} B each, put once then read whole twice, codes alternate", s.stream_object),
        Workload::Point => println!(
            "# objects: {} per code of {} B; reads {:?} B (90%), writes {} B (10%), Zipf(0.99) keys",
            s.point_keys, s.point_object, s.range_lens, s.write_len
        ),
        Workload::Degraded => println!(
            "# objects: {} per code of {} B; read degraded, repair_file, read again",
            s.degraded_objects, s.degraded_object
        ),
    }
    println!(
        "# temp dir: {} on {}; flush policy: BlockStore::put fsyncs every block",
        work.display(),
        report::filesystem_of(work)
    );
}

fn op_counts(out: &drive::Outcome) -> String {
    let mut counts = BTreeMap::new();
    for s in &out.samples {
        *counts.entry((s.op, s.code.suffix())).or_insert(0) += 1;
    }
    let counts: Vec<String> = counts
        .iter()
        .map(|((op, code), n)| format!("{op}.{code}={n}"))
        .collect();
    counts.join(" ")
}

/// The traced run's end-to-end numbers against the last untraced run of
/// the same workload in this directory: the tracing overhead.
fn overhead(traced: &[Metric], baseline: &Path) {
    let Ok(text) = std::fs::read_to_string(baseline) else {
        println!("tracing overhead: no untraced run of this workload to compare with");
        return;
    };
    for m in traced {
        let base = text
            .lines()
            .filter_map(|l| l.split_once(' '))
            .find(|(name, _)| *name == m.name)
            .and_then(|(_, v)| v.parse::<f64>().ok());
        if let Some(base) = base {
            let pct = (m.value - base) / base * 100.0;
            println!(
                "tracing overhead: {:<24} traced {:>12.4} untraced {:>12.4} {} ({pct:+.1}%)",
                m.name, m.value, base, m.unit
            );
        }
    }
}

fn write_spans(out: &drive::Outcome, path: &Path) {
    let lines: String = out
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"trace\": {}, \"span\": {}, \"parent\": {}, \"name\": \"{}\", \"start_us\": {:.1}, \"dur_us\": {:.1}}}\n",
                s.trace, s.id, s.parent, s.name, s.start_us, s.dur_us
            )
        })
        .collect();
    if std::fs::write(path, lines).is_ok() {
        println!("# spans: {} written to {}", out.spans.len(), path.display());
    }
}
