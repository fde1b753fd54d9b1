//! Streaming telemetry: typed, versioned progress events emitted live
//! at stage and round boundaries.
//!
//! Everything else in this crate is post-hoc — nothing is visible
//! until the flow exits. This module streams the stream kinds of
//! [`Event`] as they happen to a set of [`TelemetrySink`]s (JSONL to a
//! writer, an in-memory buffer for tests, a human ticker, or nothing),
//! so a long-running route is observable while it runs.
//!
//! # Recording model
//!
//! [`telemetry_install`] puts a stream into the thread's recording
//! context, beside the frame stack and the flight-recorder ring;
//! [`telemetry_take`] removes it, finishes every sink and returns the
//! event count. Events reach it through [`crate::emit`] (and the stage
//! guard, [`crate::stage`]); the stream fills in the fields only it
//! knows — wall-clock, round ETA and the terminal event count. With
//! nothing installed an emit is a no-op behind one thread-local check.
//!
//! # Determinism
//!
//! Every emit site sits at a fixed commit point (the same points the
//! flight recorder uses), so the event *sequence* is byte-identical
//! run to run, and across rip-up policies wherever the routed result
//! is. Wall-clock fields
//! (`elapsed_us`, `eta_us`) are the one exception; a
//! [`TelemetryConfig::deterministic`] configuration zeroes them (and
//! disables the watchdog), making the raw JSONL stream itself
//! byte-comparable — the invariance tests assert exactly that.
//!
//! # Watchdog
//!
//! With timing enabled, per-stage wall-clock budgets and a heartbeat
//! cadence can be configured. A watchdog thread (sharing the stream
//! core, so a stalled session thread cannot starve it) emits a
//! structured [`Event::BudgetExceeded`] the moment a stage overruns its
//! budget — carrying the last observed negotiation round and history
//! pressure as a live congestion summary — and [`Event::Heartbeat`]s
//! whenever the stream has been silent for the cadence, so a stalled
//! run is distinguishable from a slow one. Dropping the stream — taken,
//! replaced by another install, or left behind by an exiting thread —
//! stops and joins its watchdog.

use crate::export::push_json_string;
use crate::{micros_now, with_context, Event};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Schema identifier stamped on every emitted JSONL line.
pub const TELEMETRY_SCHEMA: &str = "pacor-telemetry-v1";

impl Event {
    /// Renders a stream event as one JSONL line (no trailing newline):
    /// `schema`, `seq` and `kind` ahead of the per-kind fields. Ring
    /// kinds never stream and render no fields.
    pub(crate) fn render(&self, seq: u64) -> String {
        let mut s = String::with_capacity(192);
        let _ = write!(
            s,
            "{{\"schema\":\"{TELEMETRY_SCHEMA}\",\"seq\":{seq},\"kind\":\"{}\"",
            self.kind()
        );
        match self {
            Event::FlowStarted {
                design,
                width,
                height,
                valves,
                pins,
                lm_clusters,
                variant,
                policy,
            } => {
                s.push_str(",\"design\":");
                push_json_string(&mut s, design);
                let _ = write!(
                    s,
                    ",\"width\":{width},\"height\":{height},\"valves\":{valves},\"pins\":{pins},\"lm_clusters\":{lm_clusters},\"variant\":"
                );
                push_json_string(&mut s, variant);
                s.push_str(",\"policy\":");
                push_json_string(&mut s, policy);
            }
            Event::StageEntered { stage } => {
                let _ = write!(s, ",\"stage\":\"{stage}\"");
            }
            Event::StageExited {
                stage,
                items,
                elapsed_us,
            } => {
                let _ = write!(
                    s,
                    ",\"stage\":\"{stage}\",\"items\":{items},\"elapsed_us\":{elapsed_us}"
                );
            }
            Event::RoundProgress {
                session,
                round,
                rounds_left,
                attempted,
                routed,
                failed,
                ripups,
                pressure,
                completion_milli,
                elapsed_us,
                eta_us,
            } => {
                let _ = write!(
                    s,
                    ",\"session\":{session},\"round\":{round},\"rounds_left\":{rounds_left},\"attempted\":{attempted},\"routed\":{routed},\"failed\":{failed},\"ripups\":{ripups},\"pressure\":{pressure},\"completion_milli\":{completion_milli},\"elapsed_us\":{elapsed_us},\"eta_us\":{eta_us}"
                );
            }
            Event::DmeProgress {
                clusters,
                candidates,
            } => {
                let _ = write!(s, ",\"clusters\":{clusters},\"candidates\":{candidates}");
            }
            Event::MstProgress {
                clusters,
                committed,
                splits,
                edges,
            } => {
                let _ = write!(
                    s,
                    ",\"clusters\":{clusters},\"committed\":{committed},\"splits\":{splits},\"edges\":{edges}"
                );
            }
            Event::EscapeProgress {
                phase,
                round,
                pending,
                failed,
                valves_routed,
                declustered,
                ripped,
            } => {
                let _ = write!(
                    s,
                    ",\"phase\":{phase},\"round\":{round},\"pending\":{pending},\"failed\":{failed},\"valves_routed\":{valves_routed},\"declustered\":{declustered},\"ripped\":{ripped}"
                );
            }
            Event::Heartbeat { stage, elapsed_us } => {
                let _ = write!(s, ",\"stage\":\"{stage}\",\"elapsed_us\":{elapsed_us}");
            }
            Event::BudgetExceeded {
                stage,
                budget_ms,
                elapsed_us,
                round,
                pressure,
            } => {
                let _ = write!(
                    s,
                    ",\"stage\":\"{stage}\",\"budget_ms\":{budget_ms},\"elapsed_us\":{elapsed_us},\"round\":{round},\"pressure\":{pressure}"
                );
            }
            Event::FlowFinished {
                routed,
                failed,
                matched,
                total_length,
                completion_milli,
                events,
                elapsed_us,
            } => {
                let _ = write!(
                    s,
                    ",\"routed\":{routed},\"failed\":{failed},\"matched\":{matched},\"total_length\":{total_length},\"completion_milli\":{completion_milli},\"events\":{events},\"elapsed_us\":{elapsed_us}"
                );
            }
            _ => {}
        }
        s.push('}');
        s
    }
}

/// Destination for the event stream. `emit` receives both the typed
/// event (for human renderings) and the prerendered JSONL line.
pub trait TelemetrySink: Send {
    /// Consumes one event. It runs inside the recording context, so it
    /// must not call back into this crate's recording functions.
    fn emit(&mut self, event: &Event, line: &str);

    /// Flushes / finalizes the sink at [`telemetry_take`] time.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error the sink ran into (during emission
    /// or finalization).
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards everything (placeholder / benchmarking sink).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn emit(&mut self, _event: &Event, _line: &str) {}
}

/// Collects rendered lines into shared memory, for tests: keep the
/// handle from [`MemorySink::lines`] and read it after
/// [`telemetry_take`].
#[derive(Debug, Default, Clone)]
pub struct MemorySink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared handle to the collected lines.
    pub fn lines(&self) -> Arc<Mutex<Vec<String>>> {
        Arc::clone(&self.lines)
    }
}

impl TelemetrySink for MemorySink {
    fn emit(&mut self, _event: &Event, line: &str) {
        lock(&self.lines).push(line.to_string());
    }
}

/// Streams JSONL lines to an arbitrary writer (e.g. stderr),
/// line-buffered: every event is written and flushed immediately.
pub struct WriterSink {
    out: Box<dyn Write + Send>,
    error: Option<io::Error>,
}

impl std::fmt::Debug for WriterSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriterSink")
            .field("error", &self.error)
            .finish()
    }
}

impl WriterSink {
    /// Wraps a writer.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        Self { out, error: None }
    }

    /// Streams to standard error (the CLI's `--stream-out -`).
    pub fn stderr() -> Self {
        Self::new(Box::new(io::stderr()))
    }
}

impl TelemetrySink for WriterSink {
    fn emit(&mut self, _event: &Event, line: &str) {
        if self.error.is_some() {
            return;
        }
        let r = writeln!(self.out, "{line}").and_then(|()| self.out.flush());
        if let Err(e) = r {
            self.error = Some(e);
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => self.out.flush(),
        }
    }
}

/// Streams JSONL lines to `<path>.tmp` (line-buffered) and renames the
/// temp file onto `path` only on a clean [`TelemetrySink::finish`] — a
/// run killed mid-stream never leaves a torn final file, only the
/// clearly-marked temp (which a later [`StreamWriter::create`] for the
/// same path truncates). A missing parent directory surfaces as a
/// clean `Err` at creation time.
#[derive(Debug)]
pub struct StreamWriter {
    tmp: PathBuf,
    path: PathBuf,
    out: Option<BufWriter<File>>,
    error: Option<io::Error>,
}

impl StreamWriter {
    /// Opens the temp file next to `path`.
    ///
    /// # Errors
    ///
    /// Any error opening `<path>.tmp` for writing — notably
    /// `NotFound` when the parent directory does not exist.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let tmp = crate::export::tmp_path_of(&path);
        let file = File::create(&tmp)?;
        Ok(Self {
            tmp,
            path,
            out: Some(BufWriter::new(file)),
            error: None,
        })
    }
}

impl TelemetrySink for StreamWriter {
    fn emit(&mut self, _event: &Event, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Some(out) = self.out.as_mut() {
            let r = writeln!(out, "{line}").and_then(|()| out.flush());
            if let Err(e) = r {
                self.error = Some(e);
            }
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            self.out = None;
            let _ = std::fs::remove_file(&self.tmp);
            return Err(e);
        }
        let Some(mut out) = self.out.take() else {
            return Ok(());
        };
        out.flush()?;
        drop(out);
        crate::export::rename_or_cleanup(&self.tmp, &self.path)
    }
}

impl Drop for StreamWriter {
    fn drop(&mut self) {
        // Not finished cleanly (simulated kill / panic unwind): remove
        // the temp file and leave the final path untouched.
        if self.out.take().is_some() {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Human one-line progress ticker on stderr (the CLI's `--progress`):
/// stage transitions, per-round negotiation progress, watchdog alarms
/// and the terminal summary.
#[derive(Debug, Default, Clone, Copy)]
pub struct TickerSink;

impl TelemetrySink for TickerSink {
    fn emit(&mut self, event: &Event, _line: &str) {
        match event {
            Event::StageEntered { stage } => eprintln!("[pacor] stage {stage}"),
            Event::RoundProgress {
                session,
                round,
                routed,
                failed,
                ripups,
                completion_milli,
                ..
            } => eprintln!(
                "[pacor] s{session} r{round}: {routed} routed, {failed} failed, {ripups} ripups, {}.{}% complete",
                completion_milli / 10,
                completion_milli % 10
            ),
            Event::BudgetExceeded {
                stage,
                budget_ms,
                elapsed_us,
                ..
            } => eprintln!(
                "[pacor] WATCHDOG: stage {stage} over budget ({budget_ms} ms), at {} ms",
                elapsed_us / 1000
            ),
            Event::Heartbeat { stage, elapsed_us } => {
                eprintln!("[pacor] heartbeat: {stage} still running ({} ms)", elapsed_us / 1000)
            }
            Event::FlowFinished {
                routed,
                failed,
                total_length,
                completion_milli,
                ..
            } => eprintln!(
                "[pacor] done: {routed} routed, {failed} failed, length {total_length}, {}.{}% complete",
                completion_milli / 10,
                completion_milli % 10
            ),
            _ => {}
        }
    }
}

/// Per-stage wall-clock budgets in milliseconds; `u64::MAX` means
/// unbudgeted. A budget of 0 always fires (useful for tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageBudgets {
    /// Stage 1 (valve clustering) budget.
    pub clustering: u64,
    /// Stage 2 (LM cluster routing) budget.
    pub lm_routing: u64,
    /// Stage 3 (MST routing) budget.
    pub mst_routing: u64,
    /// Stages 4–5 (escape) budget.
    pub escape: u64,
    /// Stage 6 (detour) budget.
    pub detour: u64,
}

impl StageBudgets {
    /// No stage is budgeted.
    pub const UNLIMITED: StageBudgets = StageBudgets {
        clustering: u64::MAX,
        lm_routing: u64::MAX,
        mst_routing: u64::MAX,
        escape: u64::MAX,
        detour: u64::MAX,
    };

    /// The budget for a stage name (`u64::MAX` for unknown stages).
    pub fn budget_ms(&self, stage: &str) -> u64 {
        match stage {
            "clustering" => self.clustering,
            "lm_routing" => self.lm_routing,
            "mst_routing" => self.mst_routing,
            "escape" => self.escape,
            "detour" => self.detour,
            _ => u64::MAX,
        }
    }

    /// Whether any stage carries a finite budget.
    pub fn any(&self) -> bool {
        self.clustering != u64::MAX
            || self.lm_routing != u64::MAX
            || self.mst_routing != u64::MAX
            || self.escape != u64::MAX
            || self.detour != u64::MAX
    }
}

impl Default for StageBudgets {
    fn default() -> Self {
        Self::UNLIMITED
    }
}

/// Telemetry behavior knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Zero every wall-clock field and disable the watchdog, making
    /// the raw JSONL stream byte-comparable across runs.
    pub deterministic: bool,
    /// Heartbeat cadence in milliseconds (0 = no heartbeat). Ignored
    /// in deterministic mode.
    pub heartbeat_ms: u64,
    /// Per-stage wall-clock budgets. Ignored in deterministic mode.
    pub budgets: StageBudgets,
}

impl TelemetryConfig {
    /// Timing-free configuration for byte-identity tests.
    pub fn deterministic() -> Self {
        Self {
            deterministic: true,
            ..Self::default()
        }
    }
}

/// Shared stream state: config, sinks and the counters/timers the
/// session thread and the watchdog both need. Times are µs since the
/// process epoch.
struct StreamCore {
    cfg: TelemetryConfig,
    sinks: Vec<Box<dyn TelemetrySink>>,
    seq: u64,
    start: u64,
    /// The running stage and when it was entered.
    stage: Option<(&'static str, u64)>,
    session_start: u64,
    last_round: u32,
    last_pressure: u64,
    budget_fired: Vec<&'static str>,
    last_emit: u64,
}

impl StreamCore {
    /// Streams `event` at time `now`, first filling in the fields only
    /// the stream knows — wall-clock (0 in deterministic mode, which
    /// also zeroes a stage's elapsed time), the round ETA and the
    /// terminal event count — and tracking the stage and round it
    /// reports. The watchdog's events only exist in timing mode.
    fn emit(&mut self, mut event: Event, now: u64) {
        let timing = !self.cfg.deterministic;
        let since = |start: u64| if timing { now.saturating_sub(start) } else { 0 };
        match &mut event {
            Event::StageEntered { stage } => {
                let stage = *stage;
                self.stage = Some((stage, now));
                self.budget_fired.retain(|s| *s != stage);
            }
            Event::StageExited {
                stage, elapsed_us, ..
            } => {
                self.stage = None;
                self.check_budget(stage, *elapsed_us, now);
                if !timing {
                    *elapsed_us = 0;
                }
            }
            Event::RoundProgress {
                round,
                rounds_left,
                pressure,
                elapsed_us,
                eta_us,
                ..
            } => {
                self.last_round = *round;
                self.last_pressure = *pressure;
                *elapsed_us = since(self.session_start);
                *eta_us = *elapsed_us / u64::from((*round).max(1)) * u64::from(*rounds_left);
            }
            Event::FlowFinished {
                events, elapsed_us, ..
            } => {
                *events = self.seq;
                *elapsed_us = since(self.start);
            }
            _ => {}
        }
        let line = event.render(self.seq);
        self.seq += 1;
        self.last_emit = now;
        for sink in &mut self.sinks {
            sink.emit(&event, &line);
        }
    }

    /// Budget check for `stage` after `elapsed_us` in it: at stage exit
    /// (so an overrun is reported even when the watchdog never got a
    /// tick in) and on every watchdog tick.
    fn check_budget(&mut self, stage: &'static str, elapsed_us: u64, now: u64) {
        if self.cfg.deterministic {
            return;
        }
        let budget_ms = self.cfg.budgets.budget_ms(stage);
        if elapsed_us >= budget_ms.saturating_mul(1000) && !self.budget_fired.contains(&stage) {
            self.budget_fired.push(stage);
            let (round, pressure) = (self.last_round, self.last_pressure);
            self.emit(
                Event::BudgetExceeded {
                    stage,
                    budget_ms,
                    elapsed_us,
                    round,
                    pressure,
                },
                now,
            );
        }
    }
}

/// The recording context's telemetry part: the shared core and the
/// watchdog thread, which dropping the stream stops.
pub(crate) struct Stream {
    core: Arc<Mutex<StreamCore>>,
    watchdog: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

impl Stream {
    pub(crate) fn emit(&self, event: Event, now: u64) {
        lock(&self.core).emit(event, now);
    }

    /// Restarts the round-ETA timer for a new negotiation session.
    pub(crate) fn begin_session(&self) {
        lock(&self.core).session_start = micros_now();
    }

    fn stop_watchdog(&mut self) {
        if let Some((stop, thread)) = self.watchdog.take() {
            stop.store(true, Ordering::Relaxed);
            thread.thread().unpark();
            let _ = thread.join();
        }
    }

    /// Stops the watchdog and finishes every sink: the emitted-event
    /// count, or the first sink error.
    fn finish(mut self) -> io::Result<u64> {
        self.stop_watchdog();
        let mut core = lock(&self.core);
        let mut first_err = None;
        for sink in &mut core.sinks {
            if let Err(e) = sink.finish() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(core.seq),
        }
    }
}

impl Drop for Stream {
    fn drop(&mut self) {
        self.stop_watchdog();
    }
}

/// Locks a mutex, recovering from poisoning (a sink panic must not
/// take the whole stream down).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs a telemetry stream on the current thread, replacing any
/// previous one (whose watchdog stops; its sinks are dropped
/// unfinished). Spawns the watchdog thread when timing is live and a
/// heartbeat cadence or stage budget is configured. The
/// negotiation-session counter restarts unless a flight-recorder ring
/// is already installed (the two share it).
pub fn telemetry_install(cfg: TelemetryConfig, sinks: Vec<Box<dyn TelemetrySink>>) {
    let now = micros_now();
    let core = Arc::new(Mutex::new(StreamCore {
        cfg,
        sinks,
        seq: 0,
        start: now,
        stage: None,
        session_start: now,
        last_round: 0,
        last_pressure: 0,
        budget_fired: Vec::new(),
        last_emit: now,
    }));
    let watchdog = if !cfg.deterministic && (cfg.heartbeat_ms > 0 || cfg.budgets.any()) {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let shared = Arc::clone(&core);
        let handle = std::thread::spawn(move || watchdog_loop(&shared, &flag));
        Some((stop, handle))
    } else {
        None
    };
    with_context(|c| {
        if c.ring.is_none() {
            c.sessions = 0;
        }
        c.stream = Some(Stream { core, watchdog });
    });
}

/// Watchdog body: ticks a few times per heartbeat period, emitting
/// `BudgetExceeded` the moment the running stage overruns its budget
/// and `Heartbeat` whenever the stream has been silent for the
/// cadence.
fn watchdog_loop(core: &Mutex<StreamCore>, stop: &AtomicBool) {
    let tick = {
        let cfg = lock(core).cfg;
        let hb = if cfg.heartbeat_ms > 0 {
            cfg.heartbeat_ms / 4
        } else {
            50
        };
        Duration::from_millis(hb.clamp(5, 50))
    };
    while !stop.load(Ordering::Relaxed) {
        std::thread::park_timeout(tick);
        let mut core = lock(core);
        let now = micros_now();
        if let Some((stage, entered)) = core.stage {
            core.check_budget(stage, now.saturating_sub(entered), now);
        }
        let hb = core.cfg.heartbeat_ms;
        if hb > 0 && now.saturating_sub(core.last_emit) >= hb * 1000 {
            let (stage, since) = core.stage.unwrap_or(("flow", core.start));
            let elapsed_us = now.saturating_sub(since);
            core.emit(Event::Heartbeat { stage, elapsed_us }, now);
        }
    }
}

/// Removes the current thread's telemetry stream: stops the watchdog,
/// finishes every sink, and returns the emitted-event count — or the
/// first sink error. `None` when nothing was installed.
pub fn telemetry_take() -> Option<io::Result<u64>> {
    with_context(|c| c.stream.take()).map(Stream::finish)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{emit, negotiation_start, stage};

    fn drain(lines: &Arc<Mutex<Vec<String>>>) -> Vec<String> {
        lock(lines).clone()
    }

    #[test]
    fn inactive_emits_are_noops() {
        assert!(!crate::recording());
        emit(Event::StageEntered { stage: "noop" });
        let elapsed = stage("noop", &[]).exit(0);
        assert!(
            elapsed < Duration::from_secs(1),
            "stages time without a stream"
        );
        assert_eq!(negotiation_start(0), 0);
        assert!(telemetry_take().is_none());
    }

    #[test]
    fn memory_sink_collects_versioned_lines() {
        let sink = MemorySink::new();
        let lines = sink.lines();
        telemetry_install(TelemetryConfig::deterministic(), vec![Box::new(sink)]);
        assert!(crate::recording());
        stage("clustering", &[]).exit(7);
        emit(Event::FlowFinished {
            routed: 3,
            failed: 0,
            matched: 2,
            total_length: 44,
            completion_milli: 1000,
            events: 0,
            elapsed_us: 0,
        });
        let n = telemetry_take().unwrap().unwrap();
        assert_eq!(n, 3);
        let got = drain(&lines);
        assert_eq!(got.len(), 3);
        for (i, line) in got.iter().enumerate() {
            assert!(line.starts_with(&format!(
                "{{\"schema\":\"{TELEMETRY_SCHEMA}\",\"seq\":{i},\"kind\":"
            )));
            assert!(line.ends_with('}'));
        }
        assert!(got[1].contains("\"items\":7"));
        assert!(
            got[1].contains("\"elapsed_us\":0"),
            "deterministic: {}",
            got[1]
        );
        assert!(got[2].contains("\"events\":2"));
    }

    #[test]
    fn deterministic_mode_zeroes_round_timing() {
        let sink = MemorySink::new();
        let lines = sink.lines();
        telemetry_install(TelemetryConfig::deterministic(), vec![Box::new(sink)]);
        let s = negotiation_start(5);
        assert_eq!(s, 1);
        // Whatever timing a site passes, the deterministic stream zeroes.
        emit(Event::RoundProgress {
            session: s,
            round: 2,
            rounds_left: 8,
            attempted: 5,
            routed: 3,
            failed: 2,
            ripups: 1,
            pressure: 9,
            completion_milli: 600,
            elapsed_us: 7,
            eta_us: 9,
        });
        telemetry_take().unwrap().unwrap();
        let got = drain(&lines);
        assert_eq!(got.len(), 1);
        assert!(
            got[0].contains("\"elapsed_us\":0,\"eta_us\":0"),
            "{}",
            got[0]
        );
        assert!(got[0].contains("\"rounds_left\":8"));
        assert!(got[0].contains("\"pressure\":9"));
    }

    #[test]
    fn budget_zero_fires_once_at_stage_exit() {
        let sink = MemorySink::new();
        let lines = sink.lines();
        let cfg = TelemetryConfig {
            deterministic: false,
            heartbeat_ms: 0,
            budgets: StageBudgets {
                escape: 0,
                ..StageBudgets::UNLIMITED
            },
        };
        telemetry_install(cfg, vec![Box::new(sink)]);
        stage("escape", &[]).exit(1);
        stage("detour", &[]).exit(1);
        telemetry_take().unwrap().unwrap();
        let got = drain(&lines);
        let exceeded: Vec<_> = got
            .iter()
            .filter(|l| l.contains("\"kind\":\"budget_exceeded\""))
            .collect();
        assert_eq!(exceeded.len(), 1, "{got:?}");
        assert!(exceeded[0].contains("\"stage\":\"escape\""));
        assert!(exceeded[0].contains("\"budget_ms\":0"));
        // The alarm precedes the stage_exited line for the same stage.
        let alarm = got
            .iter()
            .position(|l| l.contains("budget_exceeded"))
            .unwrap();
        let exit = got
            .iter()
            .position(|l| l.contains("stage_exited") && l.contains("escape"))
            .unwrap();
        assert!(alarm < exit);
    }

    #[test]
    fn watchdog_emits_heartbeat_and_budget_mid_stage() {
        let sink = MemorySink::new();
        let lines = sink.lines();
        let cfg = TelemetryConfig {
            deterministic: false,
            heartbeat_ms: 20,
            budgets: StageBudgets {
                lm_routing: 0,
                ..StageBudgets::UNLIMITED
            },
        };
        telemetry_install(cfg, vec![Box::new(sink)]);
        let _stalled = stage("lm_routing", &[]);
        // Give the watchdog a few ticks while the stage stalls.
        std::thread::sleep(Duration::from_millis(120));
        telemetry_take().unwrap().unwrap();
        let got = drain(&lines);
        assert!(
            got.iter().any(|l| l.contains("\"kind\":\"heartbeat\"")),
            "no heartbeat in {got:?}"
        );
        assert!(
            got.iter()
                .any(|l| l.contains("\"kind\":\"budget_exceeded\"")
                    && l.contains("\"stage\":\"lm_routing\"")),
            "no mid-stage budget alarm in {got:?}"
        );
    }

    #[test]
    fn deterministic_mode_never_spawns_watchdog() {
        let sink = MemorySink::new();
        let lines = sink.lines();
        let cfg = TelemetryConfig {
            deterministic: true,
            heartbeat_ms: 1,
            budgets: StageBudgets {
                clustering: 0,
                ..StageBudgets::UNLIMITED
            },
        };
        telemetry_install(cfg, vec![Box::new(sink)]);
        let clustering = stage("clustering", &[]);
        std::thread::sleep(Duration::from_millis(30));
        clustering.exit(1);
        telemetry_take().unwrap().unwrap();
        let got = drain(&lines);
        assert!(
            got.iter()
                .all(|l| !l.contains("heartbeat") && !l.contains("budget_exceeded")),
            "wall-clock events leaked into deterministic stream: {got:?}"
        );
    }

    #[test]
    fn stream_writer_renames_only_on_finish() {
        let dir = std::env::temp_dir().join("pacor_stream_writer_clean");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let mut w = StreamWriter::create(&path).unwrap();
        w.emit(&Event::StageEntered { stage: "escape" }, "{\"k\":1}");
        assert!(!path.exists(), "final file must not exist mid-stream");
        assert!(dir.join("events.jsonl.tmp").exists());
        w.finish().unwrap();
        assert!(path.exists());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"k\":1}\n");
        assert!(!dir.join("events.jsonl.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_writer_killed_mid_run_leaves_no_torn_file() {
        let dir = std::env::temp_dir().join("pacor_stream_writer_torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        {
            let mut w = StreamWriter::create(&path).unwrap();
            w.emit(&Event::StageEntered { stage: "escape" }, "{\"k\":1}");
            // Dropped without finish — the simulated kill.
        }
        assert!(!path.exists(), "torn final file left behind");
        assert!(
            !dir.join("events.jsonl.tmp").exists(),
            "temp file left behind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_writer_missing_parent_errors_cleanly() {
        let path = std::env::temp_dir()
            .join("pacor_stream_no_such_dir")
            .join("events.jsonl");
        let err = StreamWriter::create(&path).expect_err("parent is missing");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn sessions_count_up_and_reset_per_install() {
        let sink = MemorySink::new();
        telemetry_install(TelemetryConfig::deterministic(), vec![Box::new(sink)]);
        assert_eq!(negotiation_start(1), 1);
        // A ring installed beside the stream shares its counter.
        crate::flight_install(crate::RecorderConfig::default());
        assert_eq!(negotiation_start(1), 2);
        telemetry_take().unwrap().unwrap();
        assert_eq!(negotiation_start(1), 3, "the ring alone keeps counting");
        assert_eq!(crate::flight_take().unwrap().sessions(), 3);
        let sink = MemorySink::new();
        telemetry_install(TelemetryConfig::deterministic(), vec![Box::new(sink)]);
        assert_eq!(negotiation_start(1), 1);
        telemetry_take().unwrap().unwrap();
    }

    /// A 10 ms heartbeat stream, returned once its watchdog has beaten.
    fn heartbeat_stream() -> Arc<Mutex<Vec<String>>> {
        let sink = MemorySink::new();
        let lines = sink.lines();
        let cfg = TelemetryConfig {
            deterministic: false,
            heartbeat_ms: 10,
            budgets: StageBudgets::UNLIMITED,
        };
        telemetry_install(cfg, vec![Box::new(sink)]);
        for _ in 0..1000 {
            if !drain(&lines).is_empty() {
                return lines;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("the watchdog never beat");
    }

    #[test]
    fn dropped_streams_stop_their_watchdog() {
        // Replaced by a second install: the first watchdog must stop
        // writing heartbeats into the first stream's sinks.
        let first = heartbeat_stream();
        telemetry_install(TelemetryConfig::deterministic(), Vec::new());
        let replaced_at = drain(&first).len();
        // The installing thread exits without taking its stream.
        let orphan = std::thread::spawn(heartbeat_stream).join().unwrap();
        let exited_at = drain(&orphan).len();
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(
            drain(&first).len(),
            replaced_at,
            "replaced stream kept beating"
        );
        assert_eq!(
            drain(&orphan).len(),
            exited_at,
            "orphaned stream kept beating"
        );
        telemetry_take().unwrap().unwrap();
    }

    #[test]
    fn every_kind_renders_with_schema_and_kind() {
        let events = [
            Event::FlowStarted {
                design: "T\"1".into(),
                width: 4,
                height: 4,
                valves: 1,
                pins: 1,
                lm_clusters: 0,
                variant: "PACOR".into(),
                policy: "full".into(),
            },
            Event::StageEntered { stage: "escape" },
            Event::StageExited {
                stage: "escape",
                items: 2,
                elapsed_us: 3,
            },
            Event::RoundProgress {
                session: 1,
                round: 1,
                rounds_left: 9,
                attempted: 4,
                routed: 4,
                failed: 0,
                ripups: 0,
                pressure: 0,
                completion_milli: 1000,
                elapsed_us: 0,
                eta_us: 0,
            },
            Event::DmeProgress {
                clusters: 2,
                candidates: 8,
            },
            Event::MstProgress {
                clusters: 3,
                committed: 4,
                splits: 1,
                edges: 5,
            },
            Event::EscapeProgress {
                phase: 1,
                round: 1,
                pending: 3,
                failed: 0,
                valves_routed: 5,
                declustered: 0,
                ripped: 0,
            },
            Event::Heartbeat {
                stage: "escape",
                elapsed_us: 5,
            },
            Event::BudgetExceeded {
                stage: "escape",
                budget_ms: 1,
                elapsed_us: 2000,
                round: 3,
                pressure: 4,
            },
            Event::FlowFinished {
                routed: 5,
                failed: 0,
                matched: 2,
                total_length: 44,
                completion_milli: 1000,
                events: 9,
                elapsed_us: 0,
            },
        ];
        for (i, e) in events.iter().enumerate() {
            let line = e.render(i as u64);
            assert!(line.starts_with(&format!(
                "{{\"schema\":\"{TELEMETRY_SCHEMA}\",\"seq\":{i},\"kind\":\"{}\"",
                e.kind()
            )));
            assert!(line.ends_with('}'));
            assert_eq!(line.matches('{').count(), 1, "flat object: {line}");
        }
        // The quote in the design name must be escaped.
        assert!(events[0].render(0).contains("\"design\":\"T\\\"1\""));
    }
}
