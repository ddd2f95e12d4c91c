//! `carousel-telemetry` — zero-dependency metrics and structured tracing.
//!
//! The paper this workspace reproduces makes *quantitative* claims (repair
//! traffic `d/(d−k+1)`, read parallelism `p` vs `k`, degraded-read
//! penalties); this crate gives every layer of the reproduction one uniform
//! way to report what it actually did:
//!
//! * [`Counter`] / [`Gauge`] — relaxed atomics, saturating adds;
//! * [`Histogram`] — lock-free log-bucketed samples with p50/p95/p99
//!   snapshots (relative error ≤ 1/16);
//! * [`Span`] — RAII wall-clock timers that feed histograms and, when a
//!   sink is installed, stream span-tree JSON lines;
//! * [`trace`] — distributed request tracing: process-unique ids and a
//!   by-value [`trace::TraceCtx`] whose child spans link across the wire;
//! * [`Registry`] — the process-wide name → metric table; hot paths cache
//!   the `&'static` handles it returns;
//! * [`Snapshot`] — a point-in-time copy serializable to JSON-lines by a
//!   hand-rolled writer ([`json`], no serde).
//!
//! Telemetry is always on: every build records, and there is no switch
//! to compile it out.
//!
//! ```
//! let c = telemetry::counter("demo.bytes");
//! c.add(4096);
//! let snap = telemetry::Registry::global().snapshot();
//! let mut out = Vec::new();
//! snap.write_jsonl("demo", &mut out).unwrap();
//! assert!(out.starts_with(b"{\"type\":\"meta\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod snapshot;
pub mod trace;

mod metrics;
pub use metrics::{
    clear_event_sink, counter, emit_event, event_sink_installed, gauge, histogram, set_event_sink,
    span, Counter, Gauge, Histogram, Registry, Span,
};

pub use snapshot::{HistogramSnapshot, Snapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{bucket_index, bucket_lower_bound};

    #[test]
    fn counters_accumulate_and_saturate() {
        let c = Counter::new();
        c.add(5);
        c.inc();
        assert_eq!(c.get(), 6);
        // Saturation: near-max adds pin at u64::MAX, never wrap.
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
        c.add(1);
        assert_eq!(c.get(), u64::MAX, "saturated counter must not wrap");
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauges_track_deltas() {
        let g = Gauge::new();
        g.add(3);
        g.add(-5);
        assert_eq!(g.get(), -2);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_exact_small_values() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 15] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 21);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 15);
        // Values below 16 have exact buckets: quantiles are exact.
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.p50(), 2);
        assert_eq!(s.quantile(1.0), 15);
    }

    #[test]
    fn histogram_quantiles_match_exact_within_bucket_error() {
        // A known distribution: 1..=10_000 once each. Exact q-quantile
        // of that set is ceil(q * 10_000).
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        for (q, exact) in [(0.50, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let est = s.quantile(q) as f64;
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= 1.0 / 16.0,
                "q={q}: estimate {est} vs exact {exact} (rel err {rel:.4})"
            );
        }
        // A heavily skewed distribution: 99 fast ops, 1 slow outlier.
        let h2 = Histogram::new();
        for _ in 0..99 {
            h2.record(10);
        }
        h2.record(1_000_000);
        let s2 = h2.snapshot();
        assert_eq!(s2.p50(), 10);
        assert_eq!(s2.p95(), 10);
        // p99 of 100 samples is the 99th-ranked value = 10; the outlier
        // only surfaces at p100.
        assert_eq!(s2.p99(), 10);
        assert!(s2.quantile(1.0) > 900_000, "top quantile sees the outlier");
        assert_eq!(s2.max, 1_000_000);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Recording exactly at bucket lower bounds keeps them separable.
        let h = Histogram::new();
        h.record(16);
        h.record(17);
        let s = h.snapshot();
        assert_eq!(s.buckets.len(), 2, "16 and 17 are distinct buckets");
        // Boundary arithmetic is consistent both directions.
        for v in [15u64, 16, 31, 32, 33, 1023, 1024, u64::MAX / 2] {
            let i = bucket_index(v);
            assert!(bucket_lower_bound(i) <= v);
            assert!(i + 1 >= crate::snapshot::BUCKETS || bucket_lower_bound(i + 1) > v);
        }
    }

    #[test]
    fn snapshot_merge_is_associative_with_identity() {
        let mk = |values: &[u64]| {
            let h = Histogram::new();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[1, 2, 3, 500]);
        let b = mk(&[4, 4, 4, 9_000_000]);
        let c = mk(&[77; 10]);
        let ab_c = a.merge(&b).merge(&c);
        let a_bc = a.merge(&b.merge(&c));
        assert_eq!(ab_c, a_bc, "merge must be associative");
        let id = HistogramSnapshot::new();
        assert_eq!(a.merge(&id), a, "empty snapshot is the identity");
        assert_eq!(id.merge(&a), a);
        assert_eq!(ab_c.count, 18);
        assert_eq!(ab_c.min, 1);
        assert_eq!(ab_c.max, 9_000_000);
        // Merging equals recording the union directly.
        let union = mk(&[1, 2, 3, 500, 77, 77, 77, 77, 77, 77, 77, 77, 77, 77]);
        assert_eq!(a.merge(&c), union);
    }

    #[test]
    fn merge_from_matches_snapshot_merge() {
        let a = Histogram::new();
        for v in [1u64, 2, 3, 500, 9_000_000] {
            a.record(v);
        }
        let b = Histogram::new();
        for v in [4u64, 4, 77, 1_000_000_000] {
            b.record(v);
        }
        let expected = a.snapshot().merge(&b.snapshot());
        a.merge_from(&b.snapshot());
        assert_eq!(a.snapshot(), expected, "merge_from == snapshot merge");
        assert_eq!(a.snapshot().p99(), expected.p99());
        // Hostile bucket indices are dropped, the rest still folds in.
        let bogus = HistogramSnapshot {
            count: 1,
            sum: 5,
            min: 5,
            max: 5,
            buckets: vec![(1_000_000, 1)],
        };
        a.merge_from(&bogus);
        let s = a.snapshot();
        assert_eq!(s.count, expected.count + 1);
        let in_buckets: u64 = s.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(in_buckets, expected.count, "out-of-range bucket ignored");
    }

    #[test]
    fn registry_returns_stable_handles() {
        let r = Registry::new();
        let c1 = r.counter("stable.counter") as *const Counter;
        let c2 = r.counter("stable.counter") as *const Counter;
        assert_eq!(c1, c2, "same name, same handle");
        r.counter("stable.counter").add(2);
        r.gauge("stable.gauge").set(-4);
        r.histogram("stable.hist").record(100);
        let s = r.snapshot();
        assert_eq!(s.counter("stable.counter"), Some(2));
        assert_eq!(s.gauge("stable.gauge"), Some(-4));
        assert_eq!(s.histogram("stable.hist").unwrap().count, 1);
        r.reset();
        let s = r.snapshot();
        assert_eq!(s.counter("stable.counter"), Some(0));
        assert!(s.histogram("stable.hist").unwrap().is_empty());
    }

    #[test]
    fn jsonl_snapshot_is_parseable_shape() {
        let r = Registry::new();
        r.counter("j.count").add(3);
        r.histogram("j.hist").record(42);
        let mut out = Vec::new();
        r.snapshot().write_jsonl("unit-test", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(r#""type":"meta""#));
        assert!(lines[0].contains(r#""run":"unit-test""#));
        assert!(lines[1].contains(r#""name":"j.count""#) && lines[1].contains(r#""value":3"#));
        assert!(lines[2].contains(r#""type":"histogram""#));
        assert!(lines[2].contains(r#""count":1"#));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn counters_since_subtracts_baseline() {
        let r = Registry::new();
        r.counter("d.bytes").add(100);
        let base = r.snapshot();
        r.counter("d.bytes").add(50);
        let now = r.snapshot();
        let deltas = now.counters_since(&base);
        assert_eq!(deltas, vec![("d.bytes".to_string(), 50)]);
    }

    #[test]
    fn spans_record_into_histograms_and_nest() {
        {
            let _outer = span("test.span.outer.ns");
            let _inner = span("test.span.inner.ns");
        }
        let s = Registry::global().snapshot();
        assert_eq!(s.histogram("test.span.outer.ns").unwrap().count, 1);
        assert_eq!(s.histogram("test.span.inner.ns").unwrap().count, 1);
    }

    #[test]
    fn event_sink_streams_span_lines() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Shared(Arc::new(Mutex::new(Vec::new())));
        set_event_sink(buf.clone());
        {
            let _sp = span("test.sink.span.ns");
        }
        emit_event(json::Obj::new().str("type", "custom").u64("x", 1));
        clear_event_sink();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains(r#""type":"span""#), "{text}");
        assert!(text.contains(r#""name":"test.sink.span.ns""#));
        assert!(text.contains(r#""type":"custom""#));
        // After clearing, events go nowhere.
        let before = buf.0.lock().unwrap().len();
        emit_event(json::Obj::new().str("type", "late"));
        assert_eq!(buf.0.lock().unwrap().len(), before);
    }

    #[test]
    fn f64_recording_clamps_garbage() {
        let h = Histogram::new();
        h.record_f64(-5.0);
        h.record_f64(f64::NAN);
        h.record_f64(2.6);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.max, 3);
    }
}
