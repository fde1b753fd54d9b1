//! Streaming telemetry: typed, versioned progress events emitted live
//! at stage and round boundaries.
//!
//! Everything else in this crate is post-hoc — nothing is visible
//! until the flow exits. This module streams [`ProgressEvent`]s as they
//! happen to a set of [`TelemetrySink`]s (JSONL to a writer, an
//! in-memory buffer for tests, a human ticker, or nothing), so a
//! long-running route is observable while it runs.
//!
//! # Recording model
//!
//! [`telemetry_install`] stores a shared stream core in a thread-local
//! slot (separate from the frame stack and the flight recorder);
//! [`telemetry_take`] removes it, finishes every sink and returns the
//! event count. With nothing installed every emit helper is a no-op
//! behind a single thread-local check — the disabled cost of an emit
//! site is one branch.
//!
//! # Determinism
//!
//! Every emit site sits at a session-thread commit point (the same
//! points the flight recorder uses), so the event *sequence* is
//! byte-identical across thread counts and rip-up policies wherever the
//! routed result is. Wall-clock fields
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
//! structured [`ProgressEvent::BudgetExceeded`] the moment a stage
//! overruns its budget — carrying the last observed negotiation round
//! and history pressure as a live congestion summary — and
//! [`ProgressEvent::Heartbeat`]s whenever the stream has been silent
//! for the cadence, so a stalled run is distinguishable from a slow
//! one.

use crate::export::push_json_string;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Schema identifier stamped on every emitted JSONL line.
pub const TELEMETRY_SCHEMA: &str = "pacor-telemetry-v1";

/// A typed telemetry event. One JSONL line per event; every line
/// carries `schema`, a monotonically increasing `seq`, and `kind`
/// (the [`ProgressEvent::kind`] name) ahead of the per-kind fields.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// The flow accepted a problem and is about to run stage 1.
    FlowStarted {
        /// Design name.
        design: String,
        /// Chip width in cells.
        width: u32,
        /// Chip height in cells.
        height: u32,
        /// Total valve count.
        valves: u64,
        /// Escape pin count.
        pins: u64,
        /// Declared length-matching cluster count.
        lm_clusters: u64,
        /// Flow variant label (`PACOR`, `w/o Sel`, `Detour First`).
        variant: String,
        /// Rip-up policy label.
        policy: String,
        /// Effective worker-thread count.
        threads: u64,
    },
    /// A flow stage began.
    StageEntered {
        /// Stage name (`clustering`, `lm_routing`, `mst_routing`,
        /// `escape`, `detour`).
        stage: &'static str,
    },
    /// A flow stage finished.
    StageExited {
        /// Stage name.
        stage: &'static str,
        /// Items the stage processed (clusters, routed clusters, …).
        items: u64,
        /// Wall-clock spent in the stage (0 in deterministic mode).
        elapsed_us: u64,
    },
    /// One negotiation round completed.
    RoundProgress {
        /// Telemetry session id (one per `route_all` call, 1-based).
        session: u32,
        /// Round number within the session (1-based).
        round: u32,
        /// Rounds left before the γ threshold (0 on convergence).
        rounds_left: u32,
        /// Nets attempted this round.
        attempted: u64,
        /// Nets currently routed after this round.
        routed: u64,
        /// Nets that failed this round.
        failed: u64,
        /// Cumulative rip-ups in this session so far.
        ripups: u64,
        /// History pressure: cells carrying nonzero history cost.
        pressure: u64,
        /// Completion permille (`routed * 1000 / nets`).
        completion_milli: u64,
        /// Wall-clock since the session began (0 in deterministic mode).
        elapsed_us: u64,
        /// Worst-case ETA from the round-over-round trend
        /// (`elapsed_us / round * rounds_left`; 0 in deterministic mode).
        eta_us: u64,
    },
    /// DME candidate generation finished for the LM stage.
    DmeProgress {
        /// Length-matching clusters that generated candidates.
        clusters: u64,
        /// Total candidate Steiner trees across them.
        candidates: u64,
    },
    /// The MST batch committed (totals over the whole batch).
    MstProgress {
        /// Clusters entering the batch.
        clusters: u64,
        /// Routed clusters leaving the batch (splits included).
        committed: u64,
        /// De-clustering splits performed.
        splits: u64,
        /// MST edges committed.
        edges: u64,
    },
    /// One escape-stage recovery round completed.
    EscapeProgress {
        /// Escape phase (1 = pending-only, 2 = rip-up, 3 = last resort).
        phase: u32,
        /// Cumulative escape round counter.
        round: u32,
        /// Escapes solved for this round.
        pending: u64,
        /// Escapes still failing after this round's solve.
        failed: u64,
        /// Valves whose cluster holds an escape after this round's solve
        /// — progress in the objective's units, unlike the escape counts
        /// above, whose meaning shifts as de-clustering splits clusters.
        valves_routed: u64,
        /// Cumulative de-clustered victims so far.
        declustered: u64,
        /// Cumulative ripped escapes so far.
        ripped: u64,
    },
    /// Watchdog liveness tick: the stream has been silent for the
    /// heartbeat cadence but the flow is still running (timing mode
    /// only).
    Heartbeat {
        /// Stage currently running (`flow` between stages).
        stage: &'static str,
        /// Wall-clock spent in that stage so far.
        elapsed_us: u64,
    },
    /// A stage overran its wall-clock budget (timing mode only).
    BudgetExceeded {
        /// The overrunning stage.
        stage: &'static str,
        /// The budget it exceeded, in milliseconds.
        budget_ms: u64,
        /// Wall-clock spent in the stage when the overrun was detected.
        elapsed_us: u64,
        /// Last observed negotiation round (live congestion summary).
        round: u32,
        /// Last observed history pressure (live congestion summary).
        pressure: u64,
    },
    /// Terminal summary; always the last event of a flow.
    FlowFinished {
        /// Clusters that routed completely.
        routed: u64,
        /// Clusters left incomplete.
        failed: u64,
        /// Length-matched clusters within δ.
        matched: u64,
        /// Total wire length.
        total_length: u64,
        /// Completion permille over valves.
        completion_milli: u64,
        /// Events emitted before this one (== this event's `seq`).
        events: u64,
        /// Flow wall-clock (0 in deterministic mode).
        elapsed_us: u64,
    },
}

impl ProgressEvent {
    /// The event's kind name as it appears on the JSONL line.
    pub fn kind(&self) -> &'static str {
        match self {
            ProgressEvent::FlowStarted { .. } => "flow_started",
            ProgressEvent::StageEntered { .. } => "stage_entered",
            ProgressEvent::StageExited { .. } => "stage_exited",
            ProgressEvent::RoundProgress { .. } => "round_progress",
            ProgressEvent::DmeProgress { .. } => "dme_progress",
            ProgressEvent::MstProgress { .. } => "mst_progress",
            ProgressEvent::EscapeProgress { .. } => "escape_progress",
            ProgressEvent::Heartbeat { .. } => "heartbeat",
            ProgressEvent::BudgetExceeded { .. } => "budget_exceeded",
            ProgressEvent::FlowFinished { .. } => "flow_finished",
        }
    }

    /// Renders the event as one JSONL line (no trailing newline).
    fn render(&self, seq: u64) -> String {
        let mut s = String::with_capacity(192);
        let _ = write!(
            s,
            "{{\"schema\":\"{TELEMETRY_SCHEMA}\",\"seq\":{seq},\"kind\":\"{}\"",
            self.kind()
        );
        match self {
            ProgressEvent::FlowStarted {
                design,
                width,
                height,
                valves,
                pins,
                lm_clusters,
                variant,
                policy,
                threads,
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
                let _ = write!(s, ",\"threads\":{threads}");
            }
            ProgressEvent::StageEntered { stage } => {
                let _ = write!(s, ",\"stage\":\"{stage}\"");
            }
            ProgressEvent::StageExited {
                stage,
                items,
                elapsed_us,
            } => {
                let _ = write!(
                    s,
                    ",\"stage\":\"{stage}\",\"items\":{items},\"elapsed_us\":{elapsed_us}"
                );
            }
            ProgressEvent::RoundProgress {
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
            ProgressEvent::DmeProgress {
                clusters,
                candidates,
            } => {
                let _ = write!(s, ",\"clusters\":{clusters},\"candidates\":{candidates}");
            }
            ProgressEvent::MstProgress {
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
            ProgressEvent::EscapeProgress {
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
            ProgressEvent::Heartbeat { stage, elapsed_us } => {
                let _ = write!(s, ",\"stage\":\"{stage}\",\"elapsed_us\":{elapsed_us}");
            }
            ProgressEvent::BudgetExceeded {
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
            ProgressEvent::FlowFinished {
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
        }
        s.push('}');
        s
    }

    /// Zeroes every wall-clock field (deterministic mode).
    fn strip_timing(&mut self) {
        match self {
            ProgressEvent::StageExited { elapsed_us, .. }
            | ProgressEvent::Heartbeat { elapsed_us, .. }
            | ProgressEvent::BudgetExceeded { elapsed_us, .. }
            | ProgressEvent::FlowFinished { elapsed_us, .. } => *elapsed_us = 0,
            ProgressEvent::RoundProgress {
                elapsed_us, eta_us, ..
            } => {
                *elapsed_us = 0;
                *eta_us = 0;
            }
            _ => {}
        }
    }
}

/// Destination for the event stream. `emit` receives both the typed
/// event (for human renderings) and the prerendered JSONL line.
pub trait TelemetrySink: Send {
    /// Consumes one event.
    fn emit(&mut self, event: &ProgressEvent, line: &str);

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
    fn emit(&mut self, _event: &ProgressEvent, _line: &str) {}
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
    fn emit(&mut self, _event: &ProgressEvent, line: &str) {
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
        f.debug_struct("WriterSink").field("error", &self.error).finish()
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
    fn emit(&mut self, _event: &ProgressEvent, line: &str) {
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
    fn emit(&mut self, _event: &ProgressEvent, line: &str) {
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
    fn emit(&mut self, event: &ProgressEvent, _line: &str) {
        match event {
            ProgressEvent::StageEntered { stage } => eprintln!("[pacor] stage {stage}"),
            ProgressEvent::RoundProgress {
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
            ProgressEvent::BudgetExceeded {
                stage,
                budget_ms,
                elapsed_us,
                ..
            } => eprintln!(
                "[pacor] WATCHDOG: stage {stage} over budget ({budget_ms} ms), at {} ms",
                elapsed_us / 1000
            ),
            ProgressEvent::Heartbeat { stage, elapsed_us } => {
                eprintln!("[pacor] heartbeat: {stage} still running ({} ms)", elapsed_us / 1000)
            }
            ProgressEvent::FlowFinished {
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

/// Snapshot of per-round negotiation progress handed to
/// [`telemetry_round`]; wall-clock fields are filled in by the stream
/// core.
#[derive(Debug, Clone, Copy)]
pub struct RoundStats {
    /// Telemetry session id from [`telemetry_begin_session`].
    pub session: u32,
    /// Round number (1-based).
    pub round: u32,
    /// Rounds left before γ (0 on convergence).
    pub rounds_left: u32,
    /// Nets attempted this round.
    pub attempted: u64,
    /// Nets currently routed.
    pub routed: u64,
    /// Nets that failed this round.
    pub failed: u64,
    /// Cumulative rip-ups so far.
    pub ripups: u64,
    /// Cells carrying nonzero history cost.
    pub pressure: u64,
    /// Completion permille.
    pub completion_milli: u64,
}

/// Shared stream state: config, sinks and the counters/timers the
/// emit helpers and the watchdog both need.
struct StreamCore {
    cfg: TelemetryConfig,
    sinks: Vec<Box<dyn TelemetrySink>>,
    seq: u64,
    start: Instant,
    stage: Option<(&'static str, Instant)>,
    sessions: u32,
    session_start: Instant,
    last_round: u32,
    last_pressure: u64,
    budget_fired: Vec<&'static str>,
    last_emit: Instant,
}

impl StreamCore {
    fn emit(&mut self, mut event: ProgressEvent) {
        if self.cfg.deterministic {
            event.strip_timing();
        }
        let line = event.render(self.seq);
        self.seq += 1;
        self.last_emit = Instant::now();
        for sink in &mut self.sinks {
            sink.emit(&event, &line);
        }
    }

    /// Synchronous budget check (stage-exit path), so an overrun is
    /// reported even when the watchdog thread never got a tick in.
    fn check_budget(&mut self, stage: &'static str, elapsed_us: u64) {
        if self.cfg.deterministic {
            return;
        }
        let budget_ms = self.cfg.budgets.budget_ms(stage);
        if elapsed_us >= budget_ms.saturating_mul(1000) && !self.budget_fired.contains(&stage) {
            self.budget_fired.push(stage);
            let (round, pressure) = (self.last_round, self.last_pressure);
            self.emit(ProgressEvent::BudgetExceeded {
                stage,
                budget_ms,
                elapsed_us,
                round,
                pressure,
            });
        }
    }
}

/// The installed telemetry stream of the current thread.
struct TelemetryHandle {
    core: Arc<Mutex<StreamCore>>,
    watchdog: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

thread_local! {
    static TELEMETRY: RefCell<Option<TelemetryHandle>> = const { RefCell::new(None) };
}

/// Locks a mutex, recovering from poisoning (a sink panic must not
/// take the whole stream down).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs a telemetry stream on the current thread, replacing (and
/// silently dropping) any previous one. Spawns the watchdog thread
/// when timing is live and a heartbeat cadence or stage budget is
/// configured.
pub fn telemetry_install(cfg: TelemetryConfig, sinks: Vec<Box<dyn TelemetrySink>>) {
    let now = Instant::now();
    let core = Arc::new(Mutex::new(StreamCore {
        cfg,
        sinks,
        seq: 0,
        start: now,
        stage: None,
        sessions: 0,
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
    TELEMETRY.with(|t| *t.borrow_mut() = Some(TelemetryHandle { core, watchdog }));
}

/// Watchdog body: ticks a few times per heartbeat period, emitting
/// `BudgetExceeded` the moment the running stage overruns its budget
/// and `Heartbeat` whenever the stream has been silent for the
/// cadence.
fn watchdog_loop(core: &Mutex<StreamCore>, stop: &AtomicBool) {
    let tick = {
        let cfg = lock(core).cfg;
        let hb = if cfg.heartbeat_ms > 0 { cfg.heartbeat_ms / 4 } else { 50 };
        Duration::from_millis(hb.clamp(5, 50))
    };
    while !stop.load(Ordering::Relaxed) {
        std::thread::park_timeout(tick);
        let mut core = lock(core);
        if let Some((stage, started)) = core.stage {
            let elapsed_us = started.elapsed().as_micros() as u64;
            core.check_budget(stage, elapsed_us);
        }
        let hb = core.cfg.heartbeat_ms;
        if hb > 0 && core.last_emit.elapsed() >= Duration::from_millis(hb) {
            let (stage, elapsed_us) = match core.stage {
                Some((stage, started)) => (stage, started.elapsed().as_micros() as u64),
                None => ("flow", core.start.elapsed().as_micros() as u64),
            };
            core.emit(ProgressEvent::Heartbeat { stage, elapsed_us });
        }
    }
}

/// Removes the current thread's telemetry stream: stops the watchdog,
/// finishes every sink, and returns the emitted-event count — or the
/// first sink error. `None` when nothing was installed.
pub fn telemetry_take() -> Option<io::Result<u64>> {
    let handle = TELEMETRY.with(|t| t.borrow_mut().take())?;
    if let Some((stop, join)) = handle.watchdog {
        stop.store(true, Ordering::Relaxed);
        join.thread().unpark();
        let _ = join.join();
    }
    let mut core = lock(&handle.core);
    let mut first_err = None;
    for sink in &mut core.sinks {
        if let Err(e) = sink.finish() {
            first_err.get_or_insert(e);
        }
    }
    Some(match first_err {
        Some(e) => Err(e),
        None => Ok(core.seq),
    })
}

/// Whether the current thread has a telemetry stream installed. Emit
/// sites with non-trivial argument computation check this first, so
/// the disabled cost stays at one branch.
pub fn telemetry_active() -> bool {
    TELEMETRY.with(|t| t.borrow().is_some())
}

/// Runs `core_op` against the installed stream core, if any.
fn with_core(core_op: impl FnOnce(&mut StreamCore)) {
    TELEMETRY.with(|t| {
        if let Some(handle) = t.borrow().as_ref() {
            core_op(&mut lock(&handle.core));
        }
    });
}

/// Emits the event built by `f` (called only when telemetry is
/// installed; the disabled cost is one thread-local check).
pub fn progress(f: impl FnOnce() -> ProgressEvent) {
    with_core(|core| core.emit(f()));
}

/// Marks a flow stage as entered: starts its watchdog timer and
/// emits [`ProgressEvent::StageEntered`].
pub fn telemetry_stage_enter(stage: &'static str) {
    with_core(|core| {
        core.stage = Some((stage, Instant::now()));
        core.budget_fired.retain(|s| *s != stage);
        core.emit(ProgressEvent::StageEntered { stage });
    });
}

/// Marks a flow stage as exited: emits a synchronous budget check
/// plus [`ProgressEvent::StageExited`] with the stage's wall-clock,
/// and clears the watchdog timer.
pub fn telemetry_stage_exit(stage: &'static str, items: u64) {
    with_core(|core| {
        let elapsed_us = match core.stage.take() {
            Some((_, started)) => started.elapsed().as_micros() as u64,
            None => 0,
        };
        core.check_budget(stage, elapsed_us);
        core.emit(ProgressEvent::StageExited {
            stage,
            items,
            elapsed_us,
        });
    });
}

/// Allocates the next telemetry session id (one per negotiation
/// `route_all` call) and restarts the per-session ETA timer. Returns 0
/// when telemetry is inactive.
pub fn telemetry_begin_session() -> u32 {
    let mut id = 0;
    with_core(|core| {
        core.sessions += 1;
        core.session_start = Instant::now();
        id = core.sessions;
    });
    id
}

/// Emits [`ProgressEvent::RoundProgress`] for one negotiation round,
/// filling the wall-clock and trend-ETA fields from the session timer
/// (zeroed in deterministic mode).
pub fn telemetry_round(stats: RoundStats) {
    with_core(|core| {
        core.last_round = stats.round;
        core.last_pressure = stats.pressure;
        let elapsed_us = if core.cfg.deterministic {
            0
        } else {
            core.session_start.elapsed().as_micros() as u64
        };
        let eta_us = elapsed_us / u64::from(stats.round.max(1)) * u64::from(stats.rounds_left);
        core.emit(ProgressEvent::RoundProgress {
            session: stats.session,
            round: stats.round,
            rounds_left: stats.rounds_left,
            attempted: stats.attempted,
            routed: stats.routed,
            failed: stats.failed,
            ripups: stats.ripups,
            pressure: stats.pressure,
            completion_milli: stats.completion_milli,
            elapsed_us,
            eta_us,
        });
    });
}

/// Emits the terminal [`ProgressEvent::FlowFinished`], stamping the
/// prior-event count and the flow wall-clock.
pub fn telemetry_flow_finished(
    routed: u64,
    failed: u64,
    matched: u64,
    total_length: u64,
    completion_milli: u64,
) {
    with_core(|core| {
        let events = core.seq;
        let elapsed_us = core.start.elapsed().as_micros() as u64;
        core.emit(ProgressEvent::FlowFinished {
            routed,
            failed,
            matched,
            total_length,
            completion_milli,
            events,
            elapsed_us,
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(lines: &Arc<Mutex<Vec<String>>>) -> Vec<String> {
        lock(lines).clone()
    }

    #[test]
    fn inactive_emits_are_noops() {
        assert!(!telemetry_active());
        let mut built = false;
        progress(|| {
            built = true;
            ProgressEvent::StageEntered { stage: "noop" }
        });
        assert!(!built, "event constructor must not run when inactive");
        telemetry_stage_enter("noop");
        telemetry_stage_exit("noop", 0);
        telemetry_round(RoundStats {
            session: 0,
            round: 1,
            rounds_left: 0,
            attempted: 0,
            routed: 0,
            failed: 0,
            ripups: 0,
            pressure: 0,
            completion_milli: 0,
        });
        assert_eq!(telemetry_begin_session(), 0);
        assert!(telemetry_take().is_none());
    }

    #[test]
    fn memory_sink_collects_versioned_lines() {
        let sink = MemorySink::new();
        let lines = sink.lines();
        telemetry_install(TelemetryConfig::deterministic(), vec![Box::new(sink)]);
        assert!(telemetry_active());
        telemetry_stage_enter("clustering");
        telemetry_stage_exit("clustering", 7);
        telemetry_flow_finished(3, 0, 2, 44, 1000);
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
        assert!(got[1].contains("\"elapsed_us\":0"), "deterministic: {}", got[1]);
        assert!(got[2].contains("\"events\":2"));
    }

    #[test]
    fn deterministic_mode_zeroes_round_timing() {
        let sink = MemorySink::new();
        let lines = sink.lines();
        telemetry_install(TelemetryConfig::deterministic(), vec![Box::new(sink)]);
        let s = telemetry_begin_session();
        assert_eq!(s, 1);
        telemetry_round(RoundStats {
            session: s,
            round: 2,
            rounds_left: 8,
            attempted: 5,
            routed: 3,
            failed: 2,
            ripups: 1,
            pressure: 9,
            completion_milli: 600,
        });
        telemetry_take().unwrap().unwrap();
        let got = drain(&lines);
        assert_eq!(got.len(), 1);
        assert!(got[0].contains("\"elapsed_us\":0,\"eta_us\":0"), "{}", got[0]);
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
        telemetry_stage_enter("escape");
        telemetry_stage_exit("escape", 1);
        telemetry_stage_enter("detour");
        telemetry_stage_exit("detour", 1);
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
        let alarm = got.iter().position(|l| l.contains("budget_exceeded")).unwrap();
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
        telemetry_stage_enter("lm_routing");
        // Give the watchdog a few ticks while the "stage" stalls.
        std::thread::sleep(Duration::from_millis(120));
        telemetry_take().unwrap().unwrap();
        let got = drain(&lines);
        assert!(
            got.iter().any(|l| l.contains("\"kind\":\"heartbeat\"")),
            "no heartbeat in {got:?}"
        );
        assert!(
            got.iter().any(|l| l.contains("\"kind\":\"budget_exceeded\"")
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
        telemetry_stage_enter("clustering");
        std::thread::sleep(Duration::from_millis(30));
        telemetry_stage_exit("clustering", 1);
        telemetry_take().unwrap().unwrap();
        let got = drain(&lines);
        assert!(
            got.iter().all(|l| !l.contains("heartbeat") && !l.contains("budget_exceeded")),
            "wall-clock events leaked into deterministic stream: {got:?}"
        );
    }

    #[test]
    fn stream_writer_renames_only_on_finish() {
        let dir = std::env::temp_dir().join("pacor_stream_writer_clean");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let mut w = StreamWriter::create(&path).unwrap();
        w.emit(&ProgressEvent::StageEntered { stage: "escape" }, "{\"k\":1}");
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
            w.emit(&ProgressEvent::StageEntered { stage: "escape" }, "{\"k\":1}");
            // Dropped without finish — the simulated kill.
        }
        assert!(!path.exists(), "torn final file left behind");
        assert!(!dir.join("events.jsonl.tmp").exists(), "temp file left behind");
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
        assert_eq!(telemetry_begin_session(), 1);
        assert_eq!(telemetry_begin_session(), 2);
        telemetry_take().unwrap().unwrap();
        let sink = MemorySink::new();
        telemetry_install(TelemetryConfig::deterministic(), vec![Box::new(sink)]);
        assert_eq!(telemetry_begin_session(), 1);
        telemetry_take().unwrap().unwrap();
    }

    #[test]
    fn every_kind_renders_with_schema_and_kind() {
        let events = [
            ProgressEvent::FlowStarted {
                design: "T\"1".into(),
                width: 4,
                height: 4,
                valves: 1,
                pins: 1,
                lm_clusters: 0,
                variant: "PACOR".into(),
                policy: "full".into(),
                threads: 1,
            },
            ProgressEvent::StageEntered { stage: "escape" },
            ProgressEvent::StageExited {
                stage: "escape",
                items: 2,
                elapsed_us: 3,
            },
            ProgressEvent::RoundProgress {
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
            ProgressEvent::DmeProgress {
                clusters: 2,
                candidates: 8,
            },
            ProgressEvent::MstProgress {
                clusters: 3,
                committed: 4,
                splits: 1,
                edges: 5,
            },
            ProgressEvent::EscapeProgress {
                phase: 1,
                round: 1,
                pending: 3,
                failed: 0,
                valves_routed: 5,
                declustered: 0,
                ripped: 0,
            },
            ProgressEvent::Heartbeat {
                stage: "escape",
                elapsed_us: 5,
            },
            ProgressEvent::BudgetExceeded {
                stage: "escape",
                budget_ms: 1,
                elapsed_us: 2000,
                round: 3,
                pressure: 4,
            },
            ProgressEvent::FlowFinished {
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
