//! The benchmark's own checks: seeds fix the inputs, the printed metric
//! names are the ones `BENCHMARK.json` declares, and a tiny run of every
//! workload passes the correctness oracle.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, Once};

use e2ebench::drive::{self, Config, Outcome};
use e2ebench::layers::{self, PER_LAYER};
use e2ebench::report::{self, END_TO_END};
use e2ebench::spec::{PointOps, Sizes, Workload, WORKLOADS};

/// Clusters live under the process temp dir, so runs are serialised and
/// the temp dir is pointed, once and before any cluster starts, at a
/// directory of their own.
fn cluster_dir() -> (MutexGuard<'static, ()>, PathBuf) {
    static ONCE: Once = Once::new();
    static LOCK: Mutex<()> = Mutex::new(());
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("e2ebench-{}", std::process::id()));
    ONCE.call_once(|| {
        std::fs::create_dir_all(&dir).expect("target tmp dir is writable");
        std::env::set_var("TMPDIR", &dir);
    });
    (LOCK.lock().unwrap_or_else(|e| e.into_inner()), dir)
}

fn tiny_run(workload: Workload, seed: u64) -> (Outcome, PathBuf) {
    let (_guard, dir) = cluster_dir();
    let cfg = Config {
        workload,
        seed,
        seconds: 0.3,
        trace: true,
        sizes: Sizes::TINY,
        threads: 2,
    };
    (drive::run(&cfg, &dir).expect("cluster starts"), dir)
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[at..at + obj[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn declared_metrics_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared("per_layer"), pairs(&PER_LAYER));
}

#[test]
fn same_seed_gives_same_operations() {
    let a: Vec<_> = PointOps::new(7, Sizes::FULL).take(2000).collect();
    let b: Vec<_> = PointOps::new(7, Sizes::FULL).take(2000).collect();
    let c: Vec<_> = PointOps::new(8, Sizes::FULL).take(2000).collect();
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn same_seed_gives_same_placements() {
    let (a, _) = tiny_run(Workload::Point, 5);
    let (b, _) = tiny_run(Workload::Point, 5);
    let (c, _) = tiny_run(Workload::Point, 6);
    assert!(!a.placements.is_empty());
    assert_eq!(a.placements, b.placements);
    assert_ne!(a.placements, c.placements);
}

#[test]
fn tiny_runs_pass_the_oracle_and_print_declared_metrics() {
    for workload in WORKLOADS {
        let (out, dir) = tiny_run(workload, 3);
        assert!(
            out.correct(),
            "{workload}: {} failed, {} wrong",
            out.failed,
            out.wrong
        );
        assert!(out.attempted > 0 && out.setup_s.len() >= drive::MIN_ROUNDS);
        for op in [workload.read_op(), workload.write_op()] {
            assert!(
                out.samples.iter().any(|s| s.op == op),
                "{workload}: no {op} calls"
            );
        }

        let e2e: Vec<(String, String)> = report::end_to_end(&out, workload)
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect();
        assert_eq!(e2e, pairs(&END_TO_END), "{workload}");

        let scratch = dir.join(format!("replay-{workload}"));
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        let (layer, ok) = layers::measure(&out, workload, Sizes::TINY, 3, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        assert!(ok, "{workload}: a layer replay returned wrong bytes");
        let names: Vec<(String, String)> = layer
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect();
        assert_eq!(names, pairs(&PER_LAYER), "{workload}");
    }
}

#[test]
fn final_line_is_the_contract_json() {
    let (out, _) = tiny_run(Workload::Stream, 1);
    let line = report::json_line(
        &out,
        out.correct(),
        &report::end_to_end(&out, Workload::Stream),
    );
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    for (name, unit) in END_TO_END {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
    }
    assert!(!line.contains("NaN") && !line.contains("inf"));
}
