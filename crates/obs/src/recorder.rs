//! Flight recorder: a bounded, deterministic, structured event log.
//!
//! Counters and histograms (the rest of this crate) answer *how much*;
//! the flight recorder answers *what happened to whom*: which nets
//! fought over which cells, why a rip-up picked its victims, and what
//! the congestion landscape looked like when the flow gave up. Events
//! are **typed records keyed by net/cluster/round ids** ([`Event`]) —
//! not stringly trace args — so a post-mortem generator
//! ([`crate::post_mortem_json`]) can aggregate them without parsing.
//!
//! # Recording model
//!
//! A ring is installed on the flow's **session thread** with
//! [`flight_install`] and drained with [`flight_take`]; it lives in the
//! thread's recording context beside the frame stack and the telemetry
//! stream. Events reach it through [`crate::emit`], whose routing table
//! sends every ring kind here. Emit sites live exclusively at the
//! flow's deterministic commit points (the negotiation attempt loop,
//! rip-up selection, MST commit order, escape/detour stages), so the
//! log repeats run to run. Sites whose event is costly to build check
//! [`crate::recording`] first, so the disabled cost stays one
//! thread-local check.
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

use crate::{with_context, Event};
use std::collections::VecDeque;

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
    events: Vec<Event>,
    snapshots: Vec<CongestionSnapshot>,
    dropped_events: u64,
    dropped_snapshots: u64,
    sessions: u32,
}

impl FlightLog {
    /// The retained events, oldest first.
    pub fn events(&self) -> &[Event] {
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

/// The ring: the recording context's flight-recorder part.
#[derive(Debug)]
pub(crate) struct Recorder {
    config: RecorderConfig,
    events: VecDeque<Event>,
    snapshots: VecDeque<CongestionSnapshot>,
    dropped_events: u64,
    dropped_snapshots: u64,
}

impl Recorder {
    fn new(config: RecorderConfig) -> Self {
        Self {
            config,
            events: VecDeque::with_capacity(config.capacity.min(1024)),
            snapshots: VecDeque::new(),
            dropped_events: 0,
            dropped_snapshots: 0,
        }
    }

    pub(crate) fn push(&mut self, event: Event) {
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

    fn into_log(self, sessions: u32) -> FlightLog {
        FlightLog {
            config: self.config,
            events: self.events.into(),
            snapshots: self.snapshots.into(),
            dropped_events: self.dropped_events,
            dropped_snapshots: self.dropped_snapshots,
            sessions,
        }
    }
}

/// Installs a flight-recorder ring on the current thread, replacing
/// (and discarding) any previous one. Pair with [`flight_take`]. The
/// negotiation-session counter restarts unless a telemetry stream is
/// already installed (the two share it).
pub fn flight_install(config: RecorderConfig) {
    with_context(|c| {
        if c.stream.is_none() {
            c.sessions = 0;
        }
        c.ring = Some(Recorder::new(config));
    });
}

/// Removes the current thread's ring and returns its log, or `None`
/// when no ring is installed.
pub fn flight_take() -> Option<FlightLog> {
    with_context(|c| {
        let sessions = c.sessions;
        c.ring.take().map(|ring| ring.into_log(sessions))
    })
}

/// Whether round `round` (1-based) of a negotiation session should take
/// a congestion snapshot: a ring must be installed and either the
/// cadence hits or `force` is set (final rounds are always captured).
pub fn flight_snapshot_due(round: u32, force: bool) -> bool {
    with_context(|c| {
        c.ring.as_ref().is_some_and(|ring| {
            force
                || round
                    .saturating_sub(1)
                    .is_multiple_of(ring.config.snapshot_cadence.max(1))
        })
    })
}

/// Records a congestion snapshot (no-op when no ring is installed).
pub fn flight_snapshot(snapshot: CongestionSnapshot) {
    with_context(|c| {
        if let Some(ring) = c.ring.as_mut() {
            ring.push_snapshot(snapshot);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{emit, negotiation_start, recording};

    fn cfg(capacity: usize) -> RecorderConfig {
        RecorderConfig {
            capacity,
            ..RecorderConfig::default()
        }
    }

    #[test]
    fn inactive_recorder_records_nothing() {
        assert!(!recording());
        emit(Event::LmDemoted { cluster: 1 });
        assert_eq!(negotiation_start(3), 0);
        assert!(!flight_snapshot_due(1, true));
        assert!(flight_take().is_none());
    }

    #[test]
    fn events_round_trip_through_take() {
        flight_install(cfg(16));
        assert!(recording());
        let s = negotiation_start(2);
        assert_eq!(s, 1);
        emit(Event::NetAttempt {
            session: s,
            round: 1,
            net: 7,
            routed: true,
            length: 12,
            expanded: 30,
            flood: 0,
        });
        // Stream kinds never enter the ring.
        emit(Event::StageEntered { stage: "escape" });
        let log = flight_take().expect("recorder installed");
        assert!(!recording());
        assert_eq!(log.sessions(), 1);
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.events()[0].kind(), "negotiation_start");
        assert_eq!(log.events()[1].kind(), "net_attempt");
        assert_eq!(log.dropped_events(), 0);
    }

    #[test]
    fn ring_drops_oldest_events() {
        flight_install(cfg(3));
        for cluster in 0..5 {
            emit(Event::Declustered { cluster });
        }
        let log = flight_take().unwrap();
        assert_eq!(log.dropped_events(), 2);
        let clusters: Vec<u32> = log
            .events()
            .iter()
            .map(|e| match e {
                Event::Declustered { cluster } => *cluster,
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
        flight_install(RecorderConfig {
            snapshot_cadence: 0,
            ..RecorderConfig::default()
        });
        assert!(flight_snapshot_due(2, false), "cadence 0 means every round");
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
        emit(Event::LmDemoted { cluster: 1 });
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
