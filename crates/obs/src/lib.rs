//! Structured tracing and metrics for the PACOR flow.
//!
//! The build environment has no route to a crates registry, so this is
//! a hand-rolled, zero-dependency stand-in for the `tracing`/`metrics`
//! ecosystem, shaped around the flow's needs:
//!
//! * **Spans** ([`span`], [`span_with`], [`stage`]) — wall-clock
//!   intervals with parent/child nesting, recorded per flow stage, per
//!   negotiation/rip-up round and per DME candidate batch;
//! * **Counters** ([`counter_add`]) and **histograms** ([`record`]) —
//!   monotonic totals and value distributions for the hot paths (A\*
//!   expansions, queue pushes, DME candidate counts, rip-up events,
//!   detour deltas);
//! * **Events** ([`emit`]) — one typed [`Event`] per fact; this crate
//!   routes each kind to the flight recorder or the telemetry stream
//!   and derives its counter;
//! * **Exporters** — [`chrome_trace`] renders the spans as Chrome
//!   trace-event JSON (loadable in `chrome://tracing` or Perfetto);
//!   [`atomic_write`] puts every export file in place.
//! * **Flight recorder** ([`flight_install`], [`flight_take`]) — a
//!   bounded, deterministic ring of events (per-net search outcomes,
//!   rip-up victims with reasons) plus congestion snapshots, feeding
//!   the [`post_mortem_json`] diagnostic report and the
//!   [`render_heatmap`] ASCII view; see the `recorder` module docs.
//! * **Streaming telemetry** ([`telemetry_install`],
//!   [`telemetry_take`]) — live, versioned (`pacor-telemetry-v1`)
//!   JSONL events at stage and round boundaries, with an optional
//!   watchdog (per-stage wall-clock budgets + heartbeat); see the
//!   `progress` module docs.
//! * **Run digests and diffing** ([`RunDigest`], [`diff_runs`]) — a
//!   versioned (`pacor-rundigest-v1`) summary of one run (config
//!   fingerprint, route-quality outcome, counters and histograms, span
//!   tree) and a structural cross-run differ (`pacor-rundiff-v1`) with
//!   noise-aware verdicts; see the `digest` module docs.
//!
//! # Recording model
//!
//! All recording goes through one **thread-local recording context**:
//! a frame stack, an optional flight-recorder ring and an optional
//! telemetry stream. With nothing installed every recording call is a
//! no-op behind one thread-local check, so unconfigured code pays
//! near-zero cost. [`Session::begin`] pushes a frame; [`Session::finish`]
//! pops it, returns the collected [`ObsReport`], and merges a copy of
//! the data into the enclosing frame (if any) so nested sessions — the
//! flow starts its own around every run — feed an outer CLI session
//! transparently. The ring and the stream share the context, and with
//! it one negotiation-session counter.
//!
//! # Determinism
//!
//! The flow records from one thread, in program order, so counter and
//! histogram totals are as deterministic as the routing itself.
//! Wall-clock timestamps appear only in the trace export, the
//! stream's timing fields and a digest's `wall` object, never in
//! [`RunDigest::deterministic_json`].
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
//! pacor_obs::emit(pacor_obs::Event::LmDemoted { cluster: 4 });
//! let report = session.finish();
//! assert_eq!(report.counter("demo.work"), 3);
//! assert_eq!(report.counter("lm.demoted"), 1);
//! assert!(pacor_obs::chrome_trace(&report).contains("stage.demo"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
mod digest;
mod event;
mod export;
mod frame;
mod histogram;
mod json;
mod progress;
mod recorder;
mod report;

pub use diff::{
    diff_json, diff_runs, render_diff, timing_regressed, DiffEntry, RunDiff, Severity, SpanDelta,
    DIFF_SCHEMA, NOISE_ABS_MS, NOISE_RELATIVE,
};
pub use digest::{
    fnv1a64, span_tree, ClusterDigest, Fingerprint, HistogramSummary, Outcome, RunDigest, SpanNode,
    WallFacts, DIGEST_SCHEMA,
};
pub use event::{Event, FrontierCell, RipReason};
pub use export::{atomic_write, chrome_trace};
pub use frame::TraceEvent;
pub use histogram::Histogram;
pub use progress::{
    telemetry_install, telemetry_take, MemorySink, StageBudgets, StreamWriter, TelemetryConfig,
    TelemetrySink, TickerSink, WriterSink, TELEMETRY_SCHEMA,
};
pub use recorder::{
    flight_install, flight_snapshot, flight_snapshot_due, flight_take, CongestionSnapshot,
    FlightLog, RecorderConfig, SnapshotKind,
};
pub use report::{post_mortem_json, render_heatmap};

use event::Dest;
use frame::Frame;
use progress::Stream;
use recorder::Recorder;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// A thread's recording context: where every recording call lands.
pub(crate) struct Context {
    /// The frame stack; recording targets the top.
    frames: Vec<Frame>,
    /// The flight-recorder ring, when installed.
    pub(crate) ring: Option<Recorder>,
    /// The telemetry stream, when installed.
    pub(crate) stream: Option<Stream>,
    /// Negotiation sessions opened since the ring or stream was
    /// installed alone.
    pub(crate) sessions: u32,
}

thread_local! {
    static CONTEXT: RefCell<Context> = const {
        RefCell::new(Context {
            frames: Vec::new(),
            ring: None,
            stream: None,
            sessions: 0,
        })
    };
}

/// Runs `f` on the current thread's recording context.
pub(crate) fn with_context<R>(f: impl FnOnce(&mut Context) -> R) -> R {
    CONTEXT.with(|c| f(&mut c.borrow_mut()))
}

/// Runs `f` on the current thread's top frame, if any.
fn with_frame(f: impl FnOnce(&mut Frame)) {
    with_context(|c| {
        if let Some(frame) = c.frames.last_mut() {
            f(frame);
        }
    });
}

/// Process-wide epoch all trace timestamps are relative to.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the process epoch (first observability call).
pub(crate) fn micros_now() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Whether the current thread has an active recording frame.
///
/// Hot paths that accumulate local counts check this once per query
/// before flushing, keeping the unconfigured cost to a single
/// thread-local read.
pub fn active() -> bool {
    with_context(|c| !c.frames.is_empty())
}

/// Whether the current thread has a flight-recorder ring or a telemetry
/// stream installed. Emit sites whose event costs more to build than
/// its fields (a grid scan, a vector) check this first.
pub fn recording() -> bool {
    with_context(|c| c.ring.is_some() || c.stream.is_some())
}

/// Adds `delta` to the monotonic counter `name` (no-op when inactive).
pub fn counter_add(name: &'static str, delta: u64) {
    with_frame(|frame| frame.counter_add(name, delta));
}

/// Records `value` into the histogram `name` (no-op when inactive).
pub fn record(name: &'static str, value: u64) {
    with_frame(|frame| frame.record(name, value));
}

/// Reports one fact. The routing table ([`Event::kind`] lists the
/// kinds; `docs/OBSERVABILITY.md` the table) adds its derived counter
/// or histogram sample to the current frame and keeps the event in the
/// flight-recorder ring or on the telemetry stream, whichever its kind
/// goes to and is installed. With none of them present it is a no-op
/// behind one thread-local check.
pub fn emit(event: Event) {
    emit_at(event, None);
}

/// [`emit`] with the stream's clock reading supplied (`None` reads the
/// clock when the event streams).
fn emit_at(event: Event, now_us: Option<u64>) {
    let (_, dest, counter, histogram) = event.route();
    with_context(|c| {
        if let Some(frame) = c.frames.last_mut() {
            if let Some((name, delta)) = counter {
                frame.counter_add(name, delta);
            }
            if let Some((name, value)) = histogram {
                frame.record(name, value);
            }
        }
        match dest {
            Dest::Ring => {
                if let Some(ring) = c.ring.as_mut() {
                    ring.push(event);
                }
            }
            Dest::Stream => {
                if let Some(stream) = c.stream.as_ref() {
                    stream.emit(event, now_us.unwrap_or_else(micros_now));
                }
            }
        }
    });
}

/// Opens a negotiation session over `edges` route requests: allocates
/// the next session id, emits [`Event::NegotiationStart`] and restarts
/// the stream's round-ETA timer. The ring and the stream share the one
/// counter. Returns 0 when neither is installed.
pub fn negotiation_start(edges: u32) -> u32 {
    let session = with_context(|c| {
        if c.ring.is_none() && c.stream.is_none() {
            return 0;
        }
        c.sessions += 1;
        if let Some(stream) = c.stream.as_ref() {
            stream.begin_session();
        }
        c.sessions
    });
    if session > 0 {
        emit(Event::NegotiationStart { session, edges });
    }
    session
}

/// Emits a counter-series sample (`ph: "C"`) carrying the current total
/// of counter `name`, so the trace viewer can plot it over time (no-op
/// when inactive).
pub fn counter_sample(name: &'static str) {
    with_frame(|frame| {
        let value = frame.counter(name);
        frame.push_event(TraceEvent::Counter {
            name,
            ts: micros_now(),
            value,
        });
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
        if self.live {
            push_span(
                self.name,
                self.start,
                micros_now(),
                std::mem::take(&mut self.args),
            );
        }
    }
}

/// Records a complete span from `start` to `end` (µs since the epoch)
/// in the current frame.
fn push_span(name: &'static str, start: u64, end: u64, args: Vec<(&'static str, u64)>) {
    with_frame(|frame| {
        frame.push_event(TraceEvent::Span {
            name,
            ts: start,
            dur: end - start,
            args,
        });
    });
}

/// Enters the flow stage `name` (`clustering`, `lm_routing`,
/// `mst_routing`, `escape` or `detour`): emits
/// [`Event::StageEntered`] and starts the stream watchdog's timer for
/// it. `args` go on the `stage.<name>` span [`Stage::exit`] records.
pub fn stage(name: &'static str, args: &[(&'static str, u64)]) -> Stage {
    let start = micros_now();
    emit_at(Event::StageEntered { stage: name }, Some(start));
    Stage {
        name,
        args: args.to_vec(),
        start,
    }
}

/// A running flow stage, opened by [`stage`].
#[derive(Debug)]
#[must_use = "a stage records nothing until `exit`"]
pub struct Stage {
    name: &'static str,
    args: Vec<(&'static str, u64)>,
    start: u64,
}

impl Stage {
    /// Leaves the stage after it processed `items` items. One clock
    /// reading gives the `stage.<name>` span's duration and
    /// [`Event::StageExited`]'s `elapsed_us` (which the stream's budget
    /// check reads).
    pub fn exit(self, items: u64) {
        let end = micros_now();
        let elapsed_us = end - self.start;
        push_span(stage_span(self.name), self.start, end, self.args);
        emit_at(
            Event::StageExited {
                stage: self.name,
                items,
                elapsed_us,
            },
            Some(end),
        );
    }
}

/// The span name of a flow stage.
fn stage_span(stage: &str) -> &'static str {
    match stage {
        "clustering" => "stage.clustering",
        "lm_routing" => "stage.lm_routing",
        "mst_routing" => "stage.mst_routing",
        "escape" => "stage.escape",
        "detour" => "stage.detour",
        _ => "stage",
    }
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
        let depth = with_context(|c| {
            c.frames.push(Frame::default());
            c.frames.len()
        });
        Session { depth }
    }

    /// Pops the session's frame and returns everything it recorded.
    ///
    /// # Panics
    ///
    /// Panics when sessions are finished out of nesting order.
    pub fn finish(self) -> ObsReport {
        let frame = with_context(|c| {
            assert_eq!(
                c.frames.len(),
                self.depth,
                "sessions must be finished innermost-first"
            );
            c.frames.pop().expect("session frame present")
        });
        let report = ObsReport::from_frame(frame.clone());
        with_frame(|outer| outer.merge(frame));
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
        assert!(!recording());
        counter_add("noop", 1);
        record("noop", 1);
        emit(Event::LmDemoted { cluster: 1 });
        assert_eq!(negotiation_start(3), 0);
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
    fn emit_derives_counters_and_histograms() {
        let session = Session::begin();
        emit(Event::MstCommit {
            cluster: 1,
            edges: 0,
            length: 0,
        });
        emit(Event::DetourSegment {
            cluster: 2,
            added: 6,
        });
        let report = session.finish();
        // An event that adds 0 still creates its counter's key.
        assert_eq!(
            report.counters().collect::<Vec<_>>(),
            [("detour.segments", 1), ("mst.edges", 0)]
        );
        let (name, delta) = report.histograms().next().expect("detour.delta sampled");
        assert_eq!((name, delta.sum()), ("detour.delta", 6));
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
