//! Flight recorder: a bounded, deterministic, structured event log.
//!
//! Counters and histograms (the rest of this crate) answer *how much*;
//! the flight recorder answers *what happened to whom*: which nets
//! fought over which cells, why a rip-up picked its victims, and what
//! the congestion landscape looked like when the flow gave up. Events
//! are **typed records keyed by net/cluster/round ids** — not stringly
//! trace args — so a post-mortem generator ([`crate::post_mortem_json`])
//! can aggregate them without parsing.
//!
//! # Recording model
//!
//! A recorder is installed on the flow's **session thread** with
//! [`flight_install`] and drained with [`flight_take`]. Hot paths emit
//! through [`flight`], which takes a closure so the event is only
//! constructed when a recorder is active — the disabled cost is one
//! thread-local check. Emit sites live exclusively at the flow's
//! deterministic commit points (the session thread's attempt loop,
//! rip-up selection, MST commit order, escape/detour stages), never
//! inside worker closures, so the log is identical at any worker-thread
//! count.
//!
//! # Bounding
//!
//! The event ring holds at most [`RecorderConfig::capacity`] events and
//! drops the **oldest** on overflow — end-of-run outcomes are the ones
//! a post-mortem needs. Congestion snapshots live in their own ring
//! ([`RecorderConfig::snapshot_capacity`], newest kept) and are taken
//! every [`RecorderConfig::snapshot_cadence`] negotiation rounds plus
//! on every final round. Both drop counts are themselves recorded and
//! deterministic, because the emission sequence is.

use std::cell::RefCell;
use std::collections::VecDeque;

thread_local! {
    /// The active flight recorder of the current thread, if any.
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Sizing and cadence knobs for the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Maximum retained events; the oldest are dropped on overflow.
    pub capacity: usize,
    /// Take a congestion snapshot every this many negotiation rounds
    /// (round 1 and every final round are always eligible).
    pub snapshot_cadence: u32,
    /// Maximum retained snapshots; the oldest are dropped on overflow.
    pub snapshot_capacity: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self {
            capacity: 4096,
            snapshot_cadence: 4,
            snapshot_capacity: 8,
        }
    }
}

/// Why a rip-up victim was selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RipReason {
    /// The net owned cells on a failed search's contended frontier.
    ContendedWall,
    /// Incremental escalation: more failures than the previous round.
    Escalated,
    /// A failed search produced no contended-cell information.
    Opaque,
    /// The full rip-up policy rips every routed net on any failure.
    FullPolicy,
}

impl RipReason {
    /// Stable lower-case label used in the post-mortem JSON.
    pub fn label(self) -> &'static str {
        match self {
            RipReason::ContendedWall => "contended_wall",
            RipReason::Escalated => "escalated",
            RipReason::Opaque => "opaque",
            RipReason::FullPolicy => "full_policy",
        }
    }
}

/// A blocked cell on the BFS frontier of an escape-routing pocket,
/// with the cluster that owns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontierCell {
    /// Cell x coordinate.
    pub x: i32,
    /// Cell y coordinate.
    pub y: i32,
    /// Id of the routed cluster occupying the cell.
    pub owner: u32,
}

/// One structured flight-recorder event.
///
/// `net` ids are the LM-cluster ids the negotiation requests were
/// tagged with (or the request index when untagged); `cluster` ids are
/// `ClusterId` values; `session` counts negotiation sessions in flow
/// order; `round` is the 1-based negotiation round within a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightEvent {
    /// A negotiation session opened over `edges` requests.
    NegotiationStart {
        /// Flow-ordered session id (1-based).
        session: u32,
        /// Number of route requests in the session.
        edges: u32,
    },
    /// One per-net search outcome inside a negotiation round.
    NetAttempt {
        /// Enclosing negotiation session.
        session: u32,
        /// 1-based round within the session.
        round: u32,
        /// Net id the request was tagged with.
        net: u32,
        /// Whether the search found a path.
        routed: bool,
        /// Path length in cells when routed, 0 otherwise.
        length: u64,
        /// Cells the A* search expanded (0 when unavailable).
        expanded: u32,
        /// Contended-frontier size for failed searches, 0 otherwise.
        flood: u32,
    },
    /// A routed net was ripped up, with the selection reason.
    RipUp {
        /// Enclosing negotiation session.
        session: u32,
        /// Round in which the victim was selected.
        round: u32,
        /// Net id of the victim.
        net: u32,
        /// Why this victim was selected.
        reason: RipReason,
    },
    /// An MST cluster's routing was committed.
    MstCommit {
        /// Cluster id.
        cluster: u32,
        /// Number of routed tree edges.
        edges: u32,
        /// Total routed length of the cluster.
        length: u64,
    },
    /// An unroutable MST cluster was split in two; both halves rejoin
    /// the back of the MST queue.
    MstSplit {
        /// Cluster id that failed to route whole.
        parent: u32,
        /// Id of the first half.
        low: u32,
        /// Id of the second half.
        high: u32,
    },
    /// An LM cluster's tree was rebuilt from scratch after negotiation
    /// failed on the DME-selected topology.
    LmReconstructed {
        /// Cluster id.
        cluster: u32,
    },
    /// An LM cluster was demoted to the ordinary MST stage.
    LmDemoted {
        /// Cluster id.
        cluster: u32,
    },
    /// An escape-routing phase could not connect a cluster to any pin.
    EscapeFailed {
        /// Escape phase (1 = clustered, 2 = de-clustered, 3 = solo).
        phase: u8,
        /// Escape-stage round.
        round: u32,
        /// Cluster id that failed.
        cluster: u32,
    },
    /// A routed cluster was ripped up to open a path for `blocked`.
    EscapeRip {
        /// Cluster id of the ripped victim.
        victim: u32,
        /// Cluster id whose escape was blocked.
        blocked: u32,
    },
    /// A multi-valve cluster was de-clustered into singletons.
    Declustered {
        /// Cluster id.
        cluster: u32,
    },
    /// A cluster's escape flood was walled in: the pocket it could
    /// reach, and the routed cells (with owners) on its frontier.
    EscapeBlocked {
        /// Cluster id whose escape was blocked.
        cluster: u32,
        /// Free cells reachable before hitting routed walls.
        pocket: u32,
        /// Cluster ids selected as rip candidates.
        blockers: Vec<u32>,
        /// Frontier cells (sorted by y, x; capped), with owners.
        frontier: Vec<FrontierCell>,
    },
    /// A length-matching detour segment was inserted.
    DetourSegment {
        /// Cluster id being padded.
        cluster: u32,
        /// Cells of length the segment added.
        added: u64,
    },
    /// Final per-cluster outcome, emitted once per cluster at flow end.
    ClusterOutcome {
        /// Cluster id.
        cluster: u32,
        /// Number of valves in the cluster.
        valves: u32,
        /// Whether the cluster is under the LM constraint.
        lm: bool,
        /// Whether every edge (and its escape) routed.
        complete: bool,
        /// Whether the LM window was met (false for non-LM clusters).
        matched: bool,
        /// Total routed length.
        length: u64,
        /// Worst pairwise length mismatch, when defined.
        mismatch: Option<u64>,
        /// The chip's δ window.
        delta: u64,
    },
}

impl FlightEvent {
    /// Stable snake_case name of the event kind (catalogued in
    /// `docs/OBSERVABILITY.md`).
    pub fn kind(&self) -> &'static str {
        match self {
            FlightEvent::NegotiationStart { .. } => "negotiation_start",
            FlightEvent::NetAttempt { .. } => "net_attempt",
            FlightEvent::RipUp { .. } => "rip_up",
            FlightEvent::MstCommit { .. } => "mst_commit",
            FlightEvent::MstSplit { .. } => "mst_split",
            FlightEvent::LmReconstructed { .. } => "lm_reconstructed",
            FlightEvent::LmDemoted { .. } => "lm_demoted",
            FlightEvent::EscapeFailed { .. } => "escape_failed",
            FlightEvent::EscapeRip { .. } => "escape_rip",
            FlightEvent::Declustered { .. } => "declustered",
            FlightEvent::EscapeBlocked { .. } => "escape_blocked",
            FlightEvent::DetourSegment { .. } => "detour_segment",
            FlightEvent::ClusterOutcome { .. } => "cluster_outcome",
        }
    }
}

/// What a congestion snapshot captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// Mid-negotiation: occupancy of the round's routed state plus
    /// history heat.
    Round,
    /// Flow end: final occupancy (no history heat).
    Final,
}

/// A per-cell congestion snapshot in row-major order (y then x).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CongestionSnapshot {
    /// Round vs final.
    pub kind: SnapshotKind,
    /// Negotiation session the snapshot belongs to (0 for final).
    pub session: u32,
    /// Round within the session (0 for final).
    pub round: u32,
    /// Grid width.
    pub width: u32,
    /// Grid height.
    pub height: u32,
    /// 1 where the cell is occupied/blocked, 0 where free.
    pub occupancy: Vec<u8>,
    /// History cost per cell in integer milli-units (empty when the
    /// snapshot carries no heat).
    pub heat_milli: Vec<u32>,
}

/// Everything a drained recorder captured.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightLog {
    config: RecorderConfig,
    events: Vec<FlightEvent>,
    snapshots: Vec<CongestionSnapshot>,
    dropped_events: u64,
    dropped_snapshots: u64,
    sessions: u32,
}

impl FlightLog {
    /// The retained events, oldest first.
    pub fn events(&self) -> &[FlightEvent] {
        &self.events
    }

    /// The retained congestion snapshots, oldest first.
    pub fn snapshots(&self) -> &[CongestionSnapshot] {
        &self.snapshots
    }

    /// Events dropped because the ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Snapshots dropped because the snapshot ring was full.
    pub fn dropped_snapshots(&self) -> u64 {
        self.dropped_snapshots
    }

    /// Negotiation sessions opened while recording.
    pub fn sessions(&self) -> u32 {
        self.sessions
    }

    /// The configuration the recorder ran with.
    pub fn config(&self) -> RecorderConfig {
        self.config
    }
}

#[derive(Debug)]
struct Recorder {
    config: RecorderConfig,
    events: VecDeque<FlightEvent>,
    snapshots: VecDeque<CongestionSnapshot>,
    dropped_events: u64,
    dropped_snapshots: u64,
    sessions: u32,
}

impl Recorder {
    fn new(config: RecorderConfig) -> Self {
        Self {
            config,
            events: VecDeque::with_capacity(config.capacity.min(1024)),
            snapshots: VecDeque::new(),
            dropped_events: 0,
            dropped_snapshots: 0,
            sessions: 0,
        }
    }

    fn push(&mut self, event: FlightEvent) {
        if self.config.capacity == 0 {
            self.dropped_events += 1;
            return;
        }
        if self.events.len() == self.config.capacity {
            self.events.pop_front();
            self.dropped_events += 1;
        }
        self.events.push_back(event);
    }

    fn push_snapshot(&mut self, snapshot: CongestionSnapshot) {
        if self.config.snapshot_capacity == 0 {
            self.dropped_snapshots += 1;
            return;
        }
        if self.snapshots.len() == self.config.snapshot_capacity {
            self.snapshots.pop_front();
            self.dropped_snapshots += 1;
        }
        self.snapshots.push_back(snapshot);
    }

    fn into_log(self) -> FlightLog {
        FlightLog {
            config: self.config,
            events: self.events.into(),
            snapshots: self.snapshots.into(),
            dropped_events: self.dropped_events,
            dropped_snapshots: self.dropped_snapshots,
            sessions: self.sessions,
        }
    }
}

/// Installs a flight recorder on the current thread, replacing (and
/// discarding) any previous one. Pair with [`flight_take`].
pub fn flight_install(config: RecorderConfig) {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::new(config)));
}

/// Removes the current thread's recorder and returns its log, or
/// `None` when no recorder is installed.
pub fn flight_take() -> Option<FlightLog> {
    RECORDER.with(|r| r.borrow_mut().take()).map(Recorder::into_log)
}

/// Whether a flight recorder is installed on the current thread.
///
/// Emit sites that need to *compute* event fields (e.g. build a
/// congestion snapshot) gate on this so the disabled cost stays one
/// thread-local check.
pub fn flight_active() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// RAII guard from [`flight_pause`]: reinstalls the suspended recorder
/// on drop.
#[must_use = "dropping the guard immediately resumes recording"]
pub struct FlightPause {
    handle: Option<Recorder>,
}

impl Drop for FlightPause {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            RECORDER.with(|r| *r.borrow_mut() = Some(handle));
        }
    }
}

/// Temporarily suspends the current thread's flight recorder.
///
/// Unlike [`flight_take`], the recorder's rings, drop counters and
/// session counter are preserved intact: events emitted while the
/// guard lives are simply not recorded, and recording resumes where it
/// left off when the guard drops. Pausing with no recorder installed
/// (or pausing twice) is a no-op.
pub fn flight_pause() -> FlightPause {
    FlightPause { handle: RECORDER.with(|r| r.borrow_mut().take()) }
}

/// Records the event built by `f` when a recorder is active. The
/// closure only runs (and the event is only allocated) when recording.
pub fn flight(f: impl FnOnce() -> FlightEvent) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let event = f();
            rec.push(event);
        }
    });
}

/// Opens a negotiation session in the log: bumps the deterministic
/// session counter, records [`FlightEvent::NegotiationStart`] and
/// returns the new session id (0 when not recording).
pub fn flight_begin_session(edges: u32) -> u32 {
    RECORDER.with(|r| {
        let mut rec = r.borrow_mut();
        let Some(rec) = rec.as_mut() else { return 0 };
        rec.sessions += 1;
        let session = rec.sessions;
        rec.push(FlightEvent::NegotiationStart { session, edges });
        session
    })
}

/// Whether round `round` (1-based) of a negotiation session should take
/// a congestion snapshot: recording must be active and either the
/// cadence hits or `force` is set (final rounds are always captured).
pub fn flight_snapshot_due(round: u32, force: bool) -> bool {
    RECORDER.with(|r| {
        let rec = r.borrow();
        let Some(rec) = rec.as_ref() else { return false };
        force || round.saturating_sub(1).is_multiple_of(rec.config.snapshot_cadence.max(1))
    })
}

/// Records a congestion snapshot (no-op when not recording).
pub fn flight_snapshot(snapshot: CongestionSnapshot) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.push_snapshot(snapshot);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(capacity: usize) -> RecorderConfig {
        RecorderConfig {
            capacity,
            ..RecorderConfig::default()
        }
    }

    #[test]
    fn inactive_recorder_records_nothing() {
        assert!(!flight_active());
        let mut ran = false;
        flight(|| {
            ran = true;
            FlightEvent::LmDemoted { cluster: 1 }
        });
        assert!(!ran, "event closure must not run without a recorder");
        assert_eq!(flight_begin_session(3), 0);
        assert!(!flight_snapshot_due(1, true));
        assert!(flight_take().is_none());
    }

    #[test]
    fn events_round_trip_through_take() {
        flight_install(cfg(16));
        assert!(flight_active());
        let s = flight_begin_session(2);
        assert_eq!(s, 1);
        flight(|| FlightEvent::NetAttempt {
            session: s,
            round: 1,
            net: 7,
            routed: true,
            length: 12,
            expanded: 30,
            flood: 0,
        });
        let log = flight_take().expect("recorder installed");
        assert!(!flight_active());
        assert_eq!(log.sessions(), 1);
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.events()[0].kind(), "negotiation_start");
        assert_eq!(log.events()[1].kind(), "net_attempt");
        assert_eq!(log.dropped_events(), 0);
    }

    #[test]
    fn pause_suspends_and_resumes_recording() {
        flight_install(cfg(16));
        let s = flight_begin_session(1);
        {
            let _pause = flight_pause();
            assert!(!flight_active());
            flight(|| FlightEvent::Declustered { cluster: 9 });
        }
        assert!(flight_active(), "guard drop must reinstall the recorder");
        flight(|| FlightEvent::Declustered { cluster: 1 });
        let log = flight_take().unwrap();
        assert_eq!(log.sessions(), s, "session counter survives the pause");
        assert_eq!(log.events().len(), 2, "paused events must not be recorded");
        assert_eq!(log.events()[1].kind(), "declustered");
    }

    #[test]
    fn pause_without_recorder_is_a_noop() {
        assert!(!flight_active());
        drop(flight_pause());
        assert!(!flight_active());
    }

    #[test]
    fn ring_drops_oldest_events() {
        flight_install(cfg(3));
        for cluster in 0..5 {
            flight(|| FlightEvent::Declustered { cluster });
        }
        let log = flight_take().unwrap();
        assert_eq!(log.dropped_events(), 2);
        let clusters: Vec<u32> = log
            .events()
            .iter()
            .map(|e| match e {
                FlightEvent::Declustered { cluster } => *cluster,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(clusters, vec![2, 3, 4], "newest events must survive");
    }

    #[test]
    fn snapshot_cadence_and_force() {
        flight_install(RecorderConfig {
            snapshot_cadence: 4,
            ..RecorderConfig::default()
        });
        assert!(flight_snapshot_due(1, false));
        assert!(!flight_snapshot_due(2, false));
        assert!(!flight_snapshot_due(4, false));
        assert!(flight_snapshot_due(5, false));
        assert!(flight_snapshot_due(3, true), "final rounds are forced");
        flight_take();
    }

    #[test]
    fn snapshot_ring_keeps_newest() {
        flight_install(RecorderConfig {
            snapshot_capacity: 2,
            ..RecorderConfig::default()
        });
        for round in 1..=4u32 {
            flight_snapshot(CongestionSnapshot {
                kind: SnapshotKind::Round,
                session: 1,
                round,
                width: 1,
                height: 1,
                occupancy: vec![0],
                heat_milli: vec![0],
            });
        }
        let log = flight_take().unwrap();
        assert_eq!(log.dropped_snapshots(), 2);
        let rounds: Vec<u32> = log.snapshots().iter().map(|s| s.round).collect();
        assert_eq!(rounds, vec![3, 4]);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        flight_install(RecorderConfig {
            capacity: 0,
            snapshot_capacity: 0,
            ..RecorderConfig::default()
        });
        flight(|| FlightEvent::LmDemoted { cluster: 1 });
        flight_snapshot(CongestionSnapshot {
            kind: SnapshotKind::Final,
            session: 0,
            round: 0,
            width: 1,
            height: 1,
            occupancy: vec![0],
            heat_milli: Vec::new(),
        });
        let log = flight_take().unwrap();
        assert!(log.events().is_empty());
        assert!(log.snapshots().is_empty());
        assert_eq!(log.dropped_events(), 1);
        assert_eq!(log.dropped_snapshots(), 1);
    }
}
