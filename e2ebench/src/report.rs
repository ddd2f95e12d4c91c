//! Turns an [`Outcome`] into metrics, the human report and the final
//! JSON line.

use std::fmt::Write as _;
use std::path::Path;

use crate::drive::{Outcome, Sample};
use crate::spec::{Code, Workload, CODES};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (0 for derived counts).
    pub n: usize,
}

impl Metric {
    /// A metric; a non-finite value (an empty sample) reads 0.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            n,
        }
    }
}

/// End-to-end metric names and units, in `BENCHMARK.json` order. Every
/// workload reports all of them: `read_*` and `write_*` are the
/// workload's own read and write operations ([`Workload::read_op`],
/// [`Workload::write_op`]).
pub const END_TO_END: [(&str, &str); 10] = [
    ("read_mbps.rs", "MB/s"),
    ("read_mbps.carousel", "MB/s"),
    ("write_mbps.rs", "MB/s"),
    ("write_mbps.carousel", "MB/s"),
    ("read_p50_ms.rs", "ms"),
    ("read_p50_ms.carousel", "ms"),
    ("write_p50_ms.rs", "ms"),
    ("write_p50_ms.carousel", "ms"),
    ("setup_s", "s"),
    ("space_amp", "ratio"),
];

/// The `q`-quantile by linear interpolation between order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median over calls of each call's bytes per second, in MB/s (10^6
/// bytes).
pub fn mbps<'a>(samples: impl Iterator<Item = &'a Sample>) -> (f64, usize) {
    let rates: Vec<f64> = samples.map(|s| s.bytes as f64 / s.secs / 1e6).collect();
    (median(&rates), rates.len())
}

/// Call latencies in milliseconds.
pub fn latencies_ms<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    samples.map(|s| s.secs * 1e3).collect()
}

/// The [`END_TO_END`] metrics of one run.
pub fn end_to_end(out: &Outcome, workload: Workload) -> Vec<Metric> {
    let mut m = Vec::new();
    for (kind, op) in [("read", workload.read_op()), ("write", workload.write_op())] {
        for code in CODES {
            let (v, n) = mbps(out.of(op, code));
            m.push(Metric::new(
                format!("{kind}_mbps.{}", code.suffix()),
                v,
                "MB/s",
                n,
            ));
        }
    }
    for (kind, op) in [("read", workload.read_op()), ("write", workload.write_op())] {
        for code in CODES {
            let lat = latencies_ms(out.of(op, code));
            let name = format!("{kind}_p50_ms.{}", code.suffix());
            m.push(Metric::new(name, median(&lat), "ms", lat.len()));
        }
    }
    m.push(Metric::new(
        "setup_s",
        median(&out.setup_s),
        "s",
        out.setup_s.len(),
    ));
    m.push(Metric::new(
        "space_amp",
        median(&out.space_amp),
        "ratio",
        out.space_amp.len(),
    ));
    m
}

/// The workload's own name for an end-to-end metric, where it has one:
/// `read_mbps.rs` on `stream` is `get_mbps.rs`.
fn alias(workload: Workload, name: &str) -> Option<String> {
    let (kind, code) = name.split_once('.').unwrap_or((name, ""));
    let own = match (workload, kind) {
        (Workload::Stream, "read_mbps") => "get_mbps",
        (Workload::Stream, "write_mbps") => "put_mbps",
        (Workload::Degraded, "read_mbps") => "degraded_get_mbps",
        (Workload::Degraded, "write_mbps") => "repair_mbps",
        (Workload::Point, "read_p50_ms" | "write_p50_ms") if code == "carousel" => {
            return Some(kind.to_string())
        }
        _ => return None,
    };
    Some(format!("{own}.{code}"))
}

/// The highest of p99, p95, p90 and p50 with at least ten samples beyond
/// it, as `(percent, value)`.
pub fn supported_tail(values: &[f64]) -> (u32, f64) {
    for pct in [99u32, 95, 90] {
        if values.len() as f64 * f64::from(100 - pct) / 100.0 >= 10.0 {
            return (pct, quantile(values, f64::from(pct) / 100.0));
        }
    }
    (50, median(values))
}

/// The human-readable lines: every end-to-end metric with unit, sample
/// count and its workload's own name, then tails, error rate and the
/// performance relations the benchmark records but does not assert.
pub fn human(out: &Outcome, workload: Workload, metrics: &[Metric]) -> String {
    let mut s = String::new();
    for m in metrics {
        let alias = alias(workload, &m.name).map_or(String::new(), |a| format!("  (= {a})"));
        let _ = writeln!(
            s,
            "{:<24} {:>12.4} {:<6} n={}{alias}",
            m.name, m.value, m.unit, m.n
        );
    }
    for (kind, op) in [("read", workload.read_op()), ("write", workload.write_op())] {
        for code in CODES {
            let lat = latencies_ms(out.of(op, code));
            let (pct, v) = supported_tail(&lat);
            if pct == 50 {
                continue;
            }
            let _ = writeln!(
                s,
                "{:<24} {v:>12.4} ms     n={} (highest percentile with at least 10 samples beyond it)",
                format!("{kind}_p{pct}_ms.{}", code.suffix()),
                lat.len()
            );
        }
    }
    let errors = out.failed + out.wrong;
    let _ = writeln!(
        s,
        "{:<24} {:>12.4} ratio  n={} (failed {}, wrong bytes {})",
        "error_rate",
        errors as f64 / out.attempted.max(1) as f64,
        out.attempted,
        out.failed,
        out.wrong
    );
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    match workload {
        Workload::Stream => {
            let (car, rs) = (value("read_mbps.carousel"), value("read_mbps.rs"));
            let _ = writeln!(
                s,
                "relation: carousel get >= rs get: {} ({car:.1} vs {rs:.1} MB/s)",
                car >= rs
            );
        }
        Workload::Degraded => {
            for code in CODES {
                let (v, n) = mbps(out.of("get", code));
                let _ = writeln!(
                    s,
                    "post-repair get_mbps.{:<10} {v:>10.4} MB/s   n={n}",
                    code.suffix()
                );
            }
            let per_lost = |c: Code| {
                let t = out.repairs.get(&c).copied().unwrap_or_default();
                t.wire_bytes as f64 / t.lost_bytes.max(1) as f64
            };
            let _ = writeln!(
                s,
                "relation: repair MB/s carousel/rs = {:.3}; wire bytes per lost byte rs/carousel = {:.3}",
                value("write_mbps.carousel") / value("write_mbps.rs"),
                per_lost(Code::Rs) / per_lost(Code::Carousel)
            );
        }
        Workload::Point => {}
    }
    s
}

/// The final line: `correct`, `attempted`, `failed` and the metrics.
/// `correct` is the caller's verdict, which may cover checks made
/// outside `out`, such as layer replays.
pub fn json_line(out: &Outcome, correct: bool, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        correct,
        out.attempted.max(1),
        out.failed + out.wrong
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Filesystem type behind `path`, from `/proc/self/mountinfo`.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
