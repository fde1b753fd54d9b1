//! The one event model: every fact the flow reports is an [`Event`],
//! emitted once through [`crate::emit`].
//!
//! The routing table ([`Event::route`]) decides, per kind, where the
//! event goes: into the flight-recorder ring (the post-mortem's input,
//! `recorder` module) or onto the telemetry stream (live JSONL,
//! `progress` module), and which counter or histogram of the current
//! recording frame it bumps on the way. Emit sites never name a
//! destination, so a fact cannot reach one channel and miss another.

/// Why a rip-up victim was selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RipReason {
    /// The net owned cells on a failed search's contended frontier.
    ContendedWall,
    /// Incremental escalation: more failures than the previous round.
    Escalated,
    /// A failed search produced no contended-cell information.
    Opaque,
}

impl RipReason {
    /// Stable lower-case label used in the post-mortem JSON.
    pub fn label(self) -> &'static str {
        match self {
            RipReason::ContendedWall => "contended_wall",
            RipReason::Escalated => "escalated",
            RipReason::Opaque => "opaque",
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

/// One fact about a flow run.
///
/// `net` ids are the LM-cluster ids the negotiation requests were
/// tagged with (or the request index when untagged); `cluster` ids are
/// `ClusterId` values; `session` counts negotiation sessions in flow
/// order (see [`crate::negotiation_start`]); `round` is the 1-based
/// negotiation round within a session. Fields documented as filled in
/// by the stream are passed as 0 and set (or, in deterministic mode,
/// left at 0) when the event streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
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
    },
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
    },
    /// A flow stage began (emitted by [`crate::stage`]).
    StageEntered {
        /// Stage name (`clustering`, `lm_routing`, `mst_routing`,
        /// `escape`, `detour`).
        stage: &'static str,
    },
    /// A flow stage finished (emitted by [`crate::Stage::exit`]).
    StageExited {
        /// Stage name.
        stage: &'static str,
        /// Items the stage processed (clusters, routed clusters, …).
        items: u64,
        /// Wall-clock spent in the stage: the `stage.<name>` span's
        /// duration (0 in deterministic mode).
        elapsed_us: u64,
    },
    /// One negotiation round completed.
    RoundProgress {
        /// Negotiation session id.
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
        /// Wall-clock since the session began (filled in by the stream).
        elapsed_us: u64,
        /// Worst-case ETA from the round-over-round trend
        /// (`elapsed_us / round * rounds_left`; filled in by the stream).
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
    /// only; the stream's watchdog emits it).
    Heartbeat {
        /// Stage currently running (`flow` between stages).
        stage: &'static str,
        /// Wall-clock spent in that stage so far.
        elapsed_us: u64,
    },
    /// A stage overran its wall-clock budget (timing mode only; the
    /// stream emits it).
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
        /// Events streamed before this one, i.e. this event's `seq`
        /// (filled in by the stream).
        events: u64,
        /// Flow wall-clock (filled in by the stream).
        elapsed_us: u64,
    },
}

/// Where an event is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dest {
    /// The flight-recorder ring.
    Ring,
    /// The telemetry stream.
    Stream,
}

/// A metric of the current frame an event derives: its name and the
/// counter delta or histogram sample.
pub(crate) type Metric = Option<(&'static str, u64)>;

impl Event {
    /// Stable snake_case name of the event kind (catalogued in
    /// `docs/OBSERVABILITY.md`).
    pub fn kind(&self) -> &'static str {
        self.route().0
    }

    /// The routing table: each kind's name, destination, derived
    /// counter and derived histogram sample. A counter is derived only
    /// where the flow adds it once per event, so its key appears exactly
    /// when the event fires (`mst.edges` even when an event adds 0).
    pub(crate) fn route(&self) -> (&'static str, Dest, Metric, Metric) {
        use Dest::{Ring, Stream};
        match self {
            Event::NegotiationStart { .. } => ("negotiation_start", Ring, None, None),
            Event::NetAttempt { .. } => ("net_attempt", Ring, None, None),
            Event::RipUp { .. } => ("rip_up", Ring, None, None),
            Event::MstCommit { edges, .. } => (
                "mst_commit",
                Ring,
                Some(("mst.edges", u64::from(*edges))),
                None,
            ),
            Event::MstSplit { .. } => ("mst_split", Ring, Some(("mst.splits", 1)), None),
            Event::LmReconstructed { .. } => (
                "lm_reconstructed",
                Ring,
                Some(("lm.reconstructed", 1)),
                None,
            ),
            Event::LmDemoted { .. } => ("lm_demoted", Ring, Some(("lm.demoted", 1)), None),
            Event::EscapeFailed { .. } => ("escape_failed", Ring, None, None),
            Event::EscapeRip { .. } => ("escape_rip", Ring, Some(("escape.ripped", 1)), None),
            Event::Declustered { .. } => {
                ("declustered", Ring, Some(("escape.declustered", 1)), None)
            }
            Event::EscapeBlocked { .. } => ("escape_blocked", Ring, None, None),
            Event::DetourSegment { added, .. } => (
                "detour_segment",
                Ring,
                Some(("detour.segments", 1)),
                Some(("detour.delta", *added)),
            ),
            Event::ClusterOutcome { .. } => ("cluster_outcome", Ring, None, None),
            Event::FlowStarted { .. } => ("flow_started", Stream, None, None),
            Event::StageEntered { .. } => ("stage_entered", Stream, None, None),
            Event::StageExited { .. } => ("stage_exited", Stream, None, None),
            Event::RoundProgress { .. } => ("round_progress", Stream, None, None),
            Event::DmeProgress { .. } => ("dme_progress", Stream, None, None),
            Event::MstProgress { .. } => ("mst_progress", Stream, None, None),
            Event::EscapeProgress { .. } => ("escape_progress", Stream, None, None),
            Event::Heartbeat { .. } => ("heartbeat", Stream, None, None),
            Event::BudgetExceeded { .. } => ("budget_exceeded", Stream, None, None),
            Event::FlowFinished { .. } => ("flow_finished", Stream, None, None),
        }
    }
}
