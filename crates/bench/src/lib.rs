//! Shared helpers for the figure-regeneration binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Renders a fixed-width ASCII table.
///
/// # Panics
///
/// Panics if a row's length differs from the header's.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:<w$}"));
        }
        line.push('\n');
        line
    };
    let headers_owned: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&headers_owned, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Reads a positive numeric knob from the environment with a default —
/// used by the figure binaries so CI can run them quickly
/// (`BENCH_MB=4 BENCH_REPS=1 cargo run --bin fig6`).
pub fn env_knob(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Handles the `--metrics <out.jsonl>` flag shared by every figure binary.
///
/// Call once at the top of `main`. When the flag is present (also accepted
/// as `--metrics=out.jsonl`), the file is created and installed as the
/// process-wide telemetry event sink, so simulator schedules and span
/// timings stream into it during the run; when the returned guard drops at
/// exit, the sink is closed and a full registry snapshot (counters, gauges,
/// histogram quantiles) is appended as JSON-lines. Without the flag this is
/// a no-op.
///
/// See `docs/OBSERVABILITY.md` for the metric names and line schema.
pub fn init_metrics(run: &'static str) -> MetricsGuard {
    let mut path: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--metrics" {
            path = args.next().map(Into::into);
        } else if let Some(p) = arg.strip_prefix("--metrics=") {
            path = Some(p.into());
        }
    }
    if let Some(p) = &path {
        match std::fs::File::create(p) {
            Ok(f) => telemetry::set_event_sink(std::io::BufWriter::new(f)),
            Err(e) => {
                eprintln!("warning: cannot create metrics file {}: {e}", p.display());
                path = None;
            }
        }
    }
    MetricsGuard { run, path }
}

/// Guard returned by [`init_metrics`]; appends the final metrics snapshot
/// on drop.
pub struct MetricsGuard {
    run: &'static str,
    path: Option<std::path::PathBuf>,
}

impl Drop for MetricsGuard {
    fn drop(&mut self) {
        let Some(path) = self.path.take() else { return };
        // Close the streaming sink first so its buffer is flushed before the
        // snapshot lines are appended.
        telemetry::clear_event_sink();
        let snap = telemetry::Registry::global().snapshot();
        let result = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| snap.write_jsonl(self.run, &mut f));
        match result {
            Ok(()) => eprintln!("metrics written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write metrics to {}: {e}", path.display()),
        }
    }
}

/// Formats seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["k", "value"],
            &[vec!["2".into(), "10".into()], vec!["10".into(), "3".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("k "));
        assert!(lines[1].starts_with("---"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        render_table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn env_knob_defaults() {
        assert_eq!(env_knob("DEFINITELY_UNSET_KNOB_XYZ", 7), 7);
    }

    #[test]
    fn fmt_secs_precision() {
        assert_eq!(fmt_secs(123.4), "123");
        assert_eq!(fmt_secs(12.34), "12.3");
        assert_eq!(fmt_secs(0.1234), "0.123");
    }
}
