//! Structured tracing and metrics for the PACOR flow.
//!
//! The build environment has no route to a crates registry, so this is
//! a hand-rolled, zero-dependency stand-in for the `tracing`/`metrics`
//! ecosystem, shaped around the flow's needs:
//!
//! * **Spans** ([`span`], [`span_with`]) — wall-clock intervals with
//!   parent/child nesting, recorded per flow stage, per
//!   negotiation/rip-up round and per parallel task batch;
//! * **Counters** ([`counter_add`]) and **histograms** ([`record`]) —
//!   monotonic totals and value distributions for the hot paths (A\*
//!   expansions, queue pushes, DME candidate counts, rip-up events,
//!   detour deltas);
//! * **Instants** ([`instant`]) — point events replacing the old
//!   ad-hoc `eprintln!` diagnostics;
//! * **Exporters** — [`chrome_trace`] renders the event stream as
//!   Chrome trace-event JSON (loadable in `chrome://tracing` or
//!   Perfetto) and [`metrics_json`] renders a flat, wall-clock-free
//!   metrics document that is byte-identical at any worker-thread
//!   count.
//! * **Flight recorder** ([`flight_install`], [`flight`],
//!   [`flight_take`]) — a bounded, deterministic log of typed events
//!   (per-net search outcomes, rip-up victims with reasons, congestion
//!   snapshots) feeding the [`post_mortem_json`] diagnostic report and
//!   the [`render_heatmap`] ASCII view; see the `recorder` module docs.
//! * **Streaming telemetry** ([`telemetry_install`], [`progress`],
//!   [`telemetry_take`]) — live, versioned (`pacor-telemetry-v1`)
//!   JSONL progress events at stage and round boundaries, with an
//!   optional watchdog (per-stage wall-clock budgets + heartbeat);
//!   see the `progress` module docs.
//! * **Run digests, ledger and diffing** ([`RunDigest`],
//!   [`ledger_append`], [`diff_runs`]) — a versioned
//!   (`pacor-rundigest-v1`) longitudinal record of one run (config
//!   fingerprint, deterministic outcome and metrics, span tree), an
//!   append-only `RUNS.jsonl` ledger, and a structural cross-run
//!   differ (`pacor-rundiff-v1`) with noise-aware verdicts; see the
//!   `digest` module docs.
//!
//! # Recording model
//!
//! All recording goes through a **thread-local frame stack**. With no
//! frame installed every recording call is a no-op behind one
//! thread-local check, so unconfigured code pays near-zero cost.
//! [`Session::begin`] pushes a frame; [`Session::finish`] pops it,
//! returns the collected [`ObsReport`], and merges a copy of the data
//! into the enclosing frame (if any) so nested sessions — the flow
//! starts its own around every run — feed an outer CLI session
//! transparently.
//!
//! # Determinism
//!
//! Worker threads have no frame of their own. A data-parallel caller
//! wraps each work item in [`task_frame`], which captures that item's
//! events into a private frame, and merges the frames back with
//! [`absorb`] **in fixed item order** — never in thread completion
//! order. Counter and histogram totals are therefore bit-identical at
//! any thread count, extending the flow's determinism guarantee to the
//! metrics themselves. Wall-clock timestamps appear only in the trace
//! export, never in [`metrics_json`].
//!
//! # Examples
//!
//! ```
//! let session = pacor_obs::Session::begin();
//! {
//!     let _stage = pacor_obs::span("stage.demo");
//!     pacor_obs::counter_add("demo.work", 3);
//!     pacor_obs::record("demo.size", 17);
//! }
//! let report = session.finish();
//! assert_eq!(report.counter("demo.work"), 3);
//! assert!(pacor_obs::chrome_trace(&report).contains("stage.demo"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
mod digest;
mod export;
mod frame;
mod histogram;
mod json;
mod ledger;
mod progress;
mod recorder;
mod report;

pub use diff::{
    diff_json, diff_runs, render_diff, timing_regressed, DiffEntry, RunDiff, Severity, SpanDelta,
    DIFF_SCHEMA, NOISE_ABS_MS, NOISE_RELATIVE,
};
pub use digest::{
    fnv1a64, is_work_metric, span_tree, ClusterDigest, Fingerprint, HistogramSummary, Outcome,
    RunDigest, SpanNode, WallFacts, DIGEST_SCHEMA,
};
pub use export::{atomic_write, chrome_trace, metrics_json};
pub use ledger::{latest_baseline, ledger_append, ledger_load};
pub use frame::{Frame, TraceEvent};
pub use histogram::Histogram;
pub use progress::{
    progress, telemetry_active, telemetry_begin_session, telemetry_flow_finished,
    telemetry_install, telemetry_round, telemetry_stage_enter, telemetry_stage_exit,
    telemetry_take, MemorySink, NullSink, ProgressEvent, RoundStats, StageBudgets, StreamWriter,
    TelemetryConfig, TelemetrySink, TickerSink, WriterSink, TELEMETRY_SCHEMA,
};
pub use recorder::{
    flight, flight_active, flight_begin_session, flight_install, flight_snapshot,
    flight_snapshot_due, flight_take, CongestionSnapshot, FlightEvent, FlightLog, FrontierCell,
    RecorderConfig, RipReason, SnapshotKind,
};
pub use report::{post_mortem_json, render_heatmap};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

thread_local! {
    /// The frame stack of the current thread; recording targets the top.
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Process-wide epoch all trace timestamps are relative to.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the process epoch (first observability call).
fn micros_now() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Whether the current thread has an active recording frame.
///
/// Hot paths that accumulate local counts check this once per query
/// before flushing, keeping the unconfigured cost to a single
/// thread-local read.
pub fn active() -> bool {
    STACK.with(|s| !s.borrow().is_empty())
}

/// Adds `delta` to the monotonic counter `name` (no-op when inactive).
pub fn counter_add(name: &'static str, delta: u64) {
    STACK.with(|s| {
        if let Some(frame) = s.borrow_mut().last_mut() {
            frame.counter_add(name, delta);
        }
    });
}

/// Records `value` into the histogram `name` (no-op when inactive).
pub fn record(name: &'static str, value: u64) {
    STACK.with(|s| {
        if let Some(frame) = s.borrow_mut().last_mut() {
            frame.record(name, value);
        }
    });
}

/// Emits an instant trace event (a point-in-time marker, `ph: "i"`),
/// replacing ad-hoc `eprintln!` diagnostics (no-op when inactive).
pub fn instant(name: &'static str, args: &[(&'static str, u64)]) {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if let Some(frame) = stack.last_mut() {
            let (ts, tid) = (micros_now(), frame.tid());
            frame.push_event(TraceEvent::Instant {
                name,
                ts,
                tid,
                args: args.to_vec(),
            });
        }
    });
}

/// Emits a counter-series sample (`ph: "C"`) carrying the current total
/// of counter `name`, so the trace viewer can plot it over time (no-op
/// when inactive).
pub fn counter_sample(name: &'static str) {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if let Some(frame) = stack.last_mut() {
            let value = frame.counter(name);
            let (ts, tid) = (micros_now(), frame.tid());
            frame.push_event(TraceEvent::Counter {
                name,
                ts,
                tid,
                value,
            });
        }
    });
}

/// Opens a span named `name`; the span closes (and records a complete
/// trace event) when the returned guard drops.
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, &[])
}

/// [`span`] with key/value arguments attached to the trace event.
pub fn span_with(name: &'static str, args: &[(&'static str, u64)]) -> SpanGuard {
    let live = active();
    SpanGuard {
        name,
        args: if live { args.to_vec() } else { Vec::new() },
        start: if live { micros_now() } else { 0 },
        live,
    }
}

/// Guard returned by [`span`]; records the span on drop.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    args: Vec<(&'static str, u64)>,
    start: u64,
    live: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let end = micros_now();
        STACK.with(|s| {
            if let Some(frame) = s.borrow_mut().last_mut() {
                let tid = frame.tid();
                frame.push_event(TraceEvent::Span {
                    name: self.name,
                    ts: self.start,
                    dur: end - self.start,
                    tid,
                    args: std::mem::take(&mut self.args),
                });
            }
        });
    }
}

/// Runs `f` with a private recording frame and returns its result
/// together with the captured frame.
///
/// Data-parallel callers use this to isolate each work item's events —
/// on whichever thread it runs — and later merge the frames back with
/// [`absorb`] in fixed item order, keeping the aggregate deterministic
/// at any thread count. `tid` labels the frame's trace events (task
/// lanes in the trace viewer).
pub fn task_frame<R>(tid: u32, f: impl FnOnce() -> R) -> (R, Frame) {
    STACK.with(|s| s.borrow_mut().push(Frame::new(tid)));
    let result = f();
    let frame = STACK.with(|s| s.borrow_mut().pop().expect("task frame still on stack"));
    (result, frame)
}

/// Merges a frame captured by [`task_frame`] into the current thread's
/// active frame (dropped silently when none is active).
pub fn absorb(frame: Frame) {
    STACK.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            top.merge(frame);
        }
    });
}

/// An active recording session on the current thread.
///
/// Sessions nest: finishing an inner session merges its data into the
/// enclosing frame while still returning the inner [`ObsReport`], so a
/// library can always collect its own metrics and an outer caller (the
/// CLI's `--trace-out`) still sees every event.
#[derive(Debug)]
pub struct Session {
    depth: usize,
}

impl Session {
    /// Pushes a fresh recording frame onto this thread's stack.
    pub fn begin() -> Self {
        let depth = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            stack.push(Frame::new(0));
            stack.len()
        });
        Session { depth }
    }

    /// Pops the session's frame and returns everything it recorded.
    ///
    /// # Panics
    ///
    /// Panics when sessions are finished out of nesting order.
    pub fn finish(self) -> ObsReport {
        let frame = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            assert_eq!(
                stack.len(),
                self.depth,
                "sessions must be finished innermost-first"
            );
            stack.pop().expect("session frame present")
        });
        let report = ObsReport::from_frame(frame.clone());
        absorb(frame);
        report
    }
}

/// Everything one [`Session`] recorded: aggregate counters and
/// histograms plus the raw trace-event stream.
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    events: Vec<TraceEvent>,
}

impl ObsReport {
    fn from_frame(frame: Frame) -> Self {
        let (counters, histograms, events) = frame.into_parts();
        Self {
            counters,
            histograms,
            events,
        }
    }

    /// The current total of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// The recorded trace events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded spans named `name`.
    pub fn span_count(&self, name: &str) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Span { name: n, .. } if *n == name))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_recording_is_a_noop() {
        assert!(!active());
        counter_add("noop", 1);
        record("noop", 1);
        instant("noop", &[]);
        let _s = span("noop");
        // Nothing panics and nothing is observable: a fresh session
        // starts empty.
        let session = Session::begin();
        let report = session.finish();
        assert_eq!(report.counter("noop"), 0);
        assert!(report.events().is_empty());
    }

    #[test]
    fn counters_and_histograms_aggregate() {
        let session = Session::begin();
        counter_add("c", 2);
        counter_add("c", 3);
        record("h", 4);
        record("h", 100);
        let report = session.finish();
        assert_eq!(report.counter("c"), 5);
        let (name, h) = report.histograms().next().unwrap();
        assert_eq!(name, "h");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 104);
        assert_eq!(h.min(), 4);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn spans_nest_and_record() {
        let session = Session::begin();
        {
            let _outer = span("outer");
            let _inner = span_with("inner", &[("round", 1)]);
        }
        let report = session.finish();
        assert_eq!(report.span_count("outer"), 1);
        assert_eq!(report.span_count("inner"), 1);
        // Inner drops first, so it precedes outer in the stream.
        let names: Vec<_> = report
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Span { name, .. } => *name,
                _ => "?",
            })
            .collect();
        assert_eq!(names, vec!["inner", "outer"]);
    }

    #[test]
    fn nested_sessions_merge_upward() {
        let outer = Session::begin();
        let inner = Session::begin();
        counter_add("x", 7);
        let inner_report = inner.finish();
        assert_eq!(inner_report.counter("x"), 7);
        counter_add("x", 1);
        let outer_report = outer.finish();
        assert_eq!(outer_report.counter("x"), 8);
    }

    #[test]
    fn task_frames_merge_in_caller_order() {
        let session = Session::begin();
        // Simulate out-of-order completion: capture frames, then absorb
        // in fixed item order.
        let (_, f1) = task_frame(2, || counter_add("t", 10));
        let (_, f0) = task_frame(1, || {
            counter_add("t", 1);
            instant("task.event", &[("item", 0)]);
        });
        absorb(f0);
        absorb(f1);
        let report = session.finish();
        assert_eq!(report.counter("t"), 11);
        assert_eq!(report.events().len(), 1);
    }

    #[test]
    fn task_frames_capture_worker_thread_events() {
        let session = Session::begin();
        let frames: Vec<Frame> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    scope.spawn(move || task_frame(i as u32 + 1, || counter_add("w", i + 1)).1)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for f in frames {
            absorb(f);
        }
        let report = session.finish();
        assert_eq!(report.counter("w"), 1 + 2 + 3 + 4);
    }

    #[test]
    fn counter_sample_emits_running_total() {
        let session = Session::begin();
        counter_add("c", 5);
        counter_sample("c");
        counter_add("c", 5);
        counter_sample("c");
        let report = session.finish();
        let values: Vec<u64> = report
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Counter { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(values, vec![5, 10]);
    }
}
