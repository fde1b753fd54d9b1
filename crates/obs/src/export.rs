//! Exporters: Chrome trace-event JSON and a flat metrics document.
//!
//! Both are hand-written (the crate is zero-dependency). Event and
//! metric names are static identifiers, but the writers still escape
//! strings defensively so the output is always valid JSON.

use crate::{ObsReport, TraceEvent};
use std::fmt::Write;
use std::path::{Path, PathBuf};

/// Process id used for every trace event (the flow is one process).
const PID: u32 = 1;

pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_args(out: &mut String, args: &[(&str, u64)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, k);
        let _ = write!(out, ":{v}");
    }
    out.push('}');
}

fn push_meta_event(out: &mut String, first: &mut bool, kind: &str, tid: Option<u32>, label: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("\n  {\"name\":");
    push_json_string(out, kind);
    let _ = write!(out, ",\"ph\":\"M\",\"pid\":{PID}");
    if let Some(tid) = tid {
        let _ = write!(out, ",\"tid\":{tid}");
    }
    out.push_str(",\"args\":{\"name\":");
    push_json_string(out, label);
    out.push_str("}}");
}

/// Renders the report's event stream as Chrome trace-event JSON: an
/// array of objects each carrying `name`, `ph`, `ts`, `pid` and `tid`,
/// loadable directly in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
///
/// Spans become complete events (`ph: "X"` with `dur`) and counter
/// samples `ph: "C"` series. The stream
/// is self-describing: it opens with `ph: "M"` metadata naming the
/// process (`pacor`) and every trace lane (`session` for tid 0, the
/// parallel `task-N` lanes otherwise), and closes with a synthetic
/// zero-duration `run.totals` span at tid 0 whose args carry every
/// counter total, so Perfetto shows the aggregate metrics without a
/// separate `--metrics-out` file.
pub fn chrome_trace(report: &ObsReport) -> String {
    let events = report.events();
    let has_counters = report.counters().next().is_some();
    if events.is_empty() && !has_counters {
        return String::from("[\n]\n");
    }
    let mut out = String::from("[");
    let mut first = true;
    push_meta_event(&mut out, &mut first, "process_name", None, "pacor");
    let mut tids: Vec<u32> = events
        .iter()
        .map(|e| match e {
            TraceEvent::Span { tid, .. } | TraceEvent::Counter { tid, .. } => *tid,
        })
        .collect();
    if has_counters {
        tids.push(0); // the synthetic run.totals span lives on lane 0
    }
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let label = if tid == 0 {
            "session".to_string()
        } else {
            format!("task-{tid}")
        };
        push_meta_event(&mut out, &mut first, "thread_name", Some(tid), &label);
    }
    for event in events {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n  {");
        match event {
            TraceEvent::Span {
                name,
                ts,
                dur,
                tid,
                args,
            } => {
                out.push_str("\"name\":");
                push_json_string(&mut out, name);
                let _ = write!(
                    out,
                    ",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":{PID},\"tid\":{tid},\"args\":"
                );
                push_args(&mut out, args);
            }
            TraceEvent::Counter {
                name,
                ts,
                tid,
                value,
            } => {
                out.push_str("\"name\":");
                push_json_string(&mut out, name);
                let _ = write!(
                    out,
                    ",\"ph\":\"C\",\"ts\":{ts},\"pid\":{PID},\"tid\":{tid},\"args\":{{\"value\":{value}}}"
                );
            }
        }
        out.push('}');
    }
    if has_counters {
        let totals: Vec<(&str, u64)> = report.counters().collect();
        if !first {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"name\":\"run.totals\",\"ph\":\"X\",\"ts\":0,\"dur\":0,\"pid\":{PID},\"tid\":0,\"args\":"
        );
        push_args(&mut out, &totals);
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

/// Renders the report's aggregates as a flat metrics JSON document:
/// `{"counters": {...}, "histograms": {name: {count, sum, min, max,
/// buckets}}}`.
///
/// Deliberately contains **no wall-clock data** — no timestamps,
/// durations or thread counts — so for a deterministic flow the output
/// is byte-identical run-to-run and at any worker-thread count (keys
/// iterate in sorted `BTreeMap` order).
pub fn metrics_json(report: &ObsReport) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    for (i, (name, value)) in report.counters().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_json_string(&mut out, name);
        let _ = write!(out, ": {value}");
    }
    out.push_str("\n  },\n  \"histograms\": {");
    for (i, (name, hist)) in report.histograms().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_json_string(&mut out, name);
        let _ = write!(
            out,
            ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
            hist.count(),
            hist.sum(),
            hist.min(),
            hist.max(),
            hist.p50(),
            hist.p95(),
            hist.p99()
        );
        for (j, b) in hist.buckets().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("]}");
    }
    out.push_str("\n  }\n}\n");
    out
}

/// The staging sibling used by every atomic writer: `<path>.tmp`.
pub(crate) fn tmp_path_of(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Renames a fully-written staging file into place; a failed rename
/// removes the staging file so nothing lingers.
pub(crate) fn rename_or_cleanup(tmp: &Path, path: &Path) -> std::io::Result<()> {
    match std::fs::rename(tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(tmp);
            Err(e)
        }
    }
}

/// Writes `contents` to `path` atomically: the bytes go to a
/// `<path>.tmp` sibling first and are renamed into place, so an
/// interrupted run never leaves a truncated file behind. A missing
/// parent directory surfaces as an `Err` (`NotFound`) instead of a
/// panic; a failed rename cleans the temp file up.
///
/// This is the one temp+rename implementation in the workspace — the
/// trace/metrics/report exporters, the run digest and ledger writers,
/// and the streaming-telemetry [`crate::StreamWriter`] all go through
/// it (or through its [`tmp_path_of`]/[`rename_or_cleanup`] halves when
/// they stream into the staging file incrementally).
pub fn atomic_write(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> std::io::Result<()> {
    let path = path.as_ref();
    let tmp = tmp_path_of(path);
    std::fs::write(&tmp, contents)?;
    rename_or_cleanup(&tmp, path)
}

#[cfg(test)]
mod tests {
    use crate::Session;

    #[test]
    fn chrome_trace_has_required_fields_per_event() {
        let session = Session::begin();
        {
            let _s = crate::span_with("stage.test", &[("k", 1)]);
        }
        crate::counter_add("c", 3);
        crate::counter_sample("c");
        let report = session.finish();
        let json = crate::chrome_trace(&report);
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        // Two recorded events + process/thread metadata + the
        // synthetic run.totals span, every object carrying pid.
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 2, "{json}");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2, "{json}");
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 1);
        assert_eq!(json.matches("\"pid\":").count(), 5);
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("{\"name\":\"pacor\"}"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("{\"name\":\"session\"}"));
        assert!(json.contains("\"value\":3"));
        assert!(json.contains("\"run.totals\""));
        assert!(json.contains("\"c\":3"), "totals carry the counter");
    }

    #[test]
    fn trace_metadata_names_every_task_lane() {
        let session = Session::begin();
        let (_, frame) = crate::task_frame(2, || {
            let _s = crate::span("task.work");
        });
        crate::absorb(frame);
        let report = session.finish();
        let json = crate::chrome_trace(&report);
        assert!(json.contains("{\"name\":\"task-2\"}"), "{json}");
        assert!(
            !json.contains("\"run.totals\""),
            "no counters means no totals span"
        );
    }

    #[test]
    fn metrics_json_is_wall_clock_free_and_sorted() {
        let session = Session::begin();
        crate::counter_add("zeta", 1);
        crate::counter_add("alpha", 2);
        crate::record("h", 7);
        let report = session.finish();
        let json = crate::metrics_json(&report);
        assert!(!json.contains("\"ts\""));
        assert!(!json.contains("\"dur\""));
        let alpha = json.find("\"alpha\"").unwrap();
        let zeta = json.find("\"zeta\"").unwrap();
        assert!(alpha < zeta, "counters must be name-sorted");
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"sum\": 7"));
    }

    #[test]
    fn metrics_json_carries_quantiles() {
        let session = Session::begin();
        for i in 0..8u32 {
            crate::record("q", 1u64 << i);
        }
        let report = session.finish();
        let json = crate::metrics_json(&report);
        assert!(json.contains("\"p50\": 8"), "{json}");
        assert!(json.contains("\"p95\": 64"), "{json}");
        assert!(json.contains("\"p99\": 64"), "{json}");
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join("pacor_obs_atomic_write");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        crate::atomic_write(&path, "first").unwrap();
        crate::atomic_write(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        assert!(
            !dir.join("out.json.tmp").exists(),
            "temp file must not linger"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_errors_on_missing_parent() {
        let path = std::env::temp_dir()
            .join("pacor_obs_no_such_dir")
            .join("out.json");
        let err = crate::atomic_write(&path, "x").expect_err("parent is missing");
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn empty_report_exports_are_valid_shells() {
        let report = Session::begin().finish();
        assert_eq!(crate::chrome_trace(&report).trim(), "[\n]");
        let metrics = crate::metrics_json(&report);
        assert!(metrics.contains("\"counters\""));
        assert!(metrics.contains("\"histograms\""));
    }
}
