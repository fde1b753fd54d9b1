//! A miniature control-synthesis front-end: from a scheduled bioassay to
//! "0-1-X" valve activation sequences.
//!
//! The paper takes the activation sequences as given — "obtained by the
//! resource binding and scheduling process" of Minhass et al.'s
//! system-level synthesis. This module reproduces that upstream step in
//! its simplest faithful form: devices (mixers, pumps, gates) own valves
//! with a per-device actuation pattern; a schedule activates devices
//! over discrete time steps; every valve's activation sequence falls out
//! as *pattern when active, don't-care (or a configured idle state) when
//! inactive*. Compatibility — and therefore the clustering the routing
//! flow consumes — emerges from the schedule instead of being hand-written.

use crate::{ActivationSequence, ActivationStatus, ValveId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a device in a control program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// What a valve does while its device is idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum IdlePolicy {
    /// The valve state is irrelevant when the device is idle ("X").
    #[default]
    DontCare,
    /// The valve must stay closed when idle (isolation valves).
    Closed,
    /// The valve must stay open when idle.
    Open,
}

impl IdlePolicy {
    fn status(self) -> ActivationStatus {
        match self {
            IdlePolicy::DontCare => ActivationStatus::DontCare,
            IdlePolicy::Closed => ActivationStatus::Closed,
            IdlePolicy::Open => ActivationStatus::Open,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Device {
    /// Valves with their status while the device is active.
    actuation: Vec<(ValveId, ActivationStatus)>,
    idle: IdlePolicy,
}

/// A scheduled control program over discrete time steps.
///
/// # Examples
///
/// ```
/// use pacor_valves::{ControlProgram, ActivationStatus, IdlePolicy, ValveId};
///
/// let mut prog = ControlProgram::new(4);
/// let mixer = prog.add_device(
///     vec![(ValveId(0), ActivationStatus::Closed), (ValveId(1), ActivationStatus::Closed)],
///     IdlePolicy::DontCare,
/// );
/// prog.activate(mixer, 1..3)?;
/// let seqs = prog.sequences();
/// assert_eq!(seqs[&ValveId(0)].to_string(), "X11X");
/// # Ok::<(), pacor_valves::ScheduleError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControlProgram {
    steps: usize,
    devices: Vec<Device>,
    /// `active[d][t]` — device `d` is active at step `t`.
    active: Vec<Vec<bool>>,
}

/// Errors in control-program construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// The activation interval leaves the program's step range.
    StepOutOfRange {
        /// Requested step.
        step: usize,
        /// Number of steps in the program.
        steps: usize,
    },
    /// The device id is unknown.
    UnknownDevice(DeviceId),
    /// Two devices demand conflicting states for a shared valve at the
    /// same step.
    Conflict {
        /// The contested valve.
        valve: ValveId,
        /// The step at which demands clash.
        step: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::StepOutOfRange { step, steps } => {
                write!(f, "step {step} outside program of {steps} steps")
            }
            ScheduleError::UnknownDevice(d) => write!(f, "unknown device {d}"),
            ScheduleError::Conflict { valve, step } => {
                write!(f, "conflicting demands on valve {valve} at step {step}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

impl ControlProgram {
    /// Creates an empty program of `steps` time steps.
    ///
    /// # Panics
    ///
    /// Panics when `steps == 0`.
    pub fn new(steps: usize) -> Self {
        assert!(steps > 0, "a program needs at least one step");
        Self {
            steps,
            devices: Vec::new(),
            active: Vec::new(),
        }
    }

    /// Number of time steps.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Registers a device with its actuation pattern and idle policy;
    /// returns its id.
    pub fn add_device(
        &mut self,
        actuation: Vec<(ValveId, ActivationStatus)>,
        idle: IdlePolicy,
    ) -> DeviceId {
        self.devices.push(Device { actuation, idle });
        self.active.push(vec![false; self.steps]);
        DeviceId(self.devices.len() as u32 - 1)
    }

    /// Activates `device` over `steps` (half-open range).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::StepOutOfRange`] or
    /// [`ScheduleError::UnknownDevice`].
    pub fn activate(
        &mut self,
        device: DeviceId,
        steps: std::ops::Range<usize>,
    ) -> Result<(), ScheduleError> {
        let d = device.0 as usize;
        if d >= self.devices.len() {
            return Err(ScheduleError::UnknownDevice(device));
        }
        if steps.end > self.steps {
            return Err(ScheduleError::StepOutOfRange {
                step: steps.end,
                steps: self.steps,
            });
        }
        for t in steps {
            self.active[d][t] = true;
        }
        Ok(())
    }

    /// Derives each valve's activation sequence. Conflicting demands are
    /// resolved by [`ActivationStatus::unify`]; a genuine clash is an
    /// error.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Conflict`] when two devices demand
    /// incompatible states for a shared valve at the same step.
    pub fn try_sequences(&self) -> Result<BTreeMap<ValveId, ActivationSequence>, ScheduleError> {
        let mut table: BTreeMap<ValveId, Vec<ActivationStatus>> = BTreeMap::new();
        // Start everything as don't-care, then constrain.
        for dev in &self.devices {
            for &(v, _) in &dev.actuation {
                table
                    .entry(v)
                    .or_insert_with(|| vec![ActivationStatus::DontCare; self.steps]);
            }
        }
        for (d, dev) in self.devices.iter().enumerate() {
            for t in 0..self.steps {
                let demanded = if self.active[d][t] {
                    None // per-valve pattern below
                } else {
                    Some(dev.idle.status())
                };
                for &(v, when_active) in &dev.actuation {
                    let want = demanded.unwrap_or(when_active);
                    let slot = &mut table.get_mut(&v).expect("inserted above")[t];
                    match slot.unify(want) {
                        Some(s) => *slot = s,
                        None => return Err(ScheduleError::Conflict { valve: v, step: t }),
                    }
                }
            }
        }
        Ok(table
            .into_iter()
            .map(|(v, steps)| (v, ActivationSequence::new(steps)))
            .collect())
    }

    /// Like [`ControlProgram::try_sequences`] but panicking on conflict —
    /// convenient when the schedule is known consistent.
    ///
    /// # Panics
    ///
    /// Panics on conflicting demands; see [`ControlProgram::try_sequences`].
    pub fn sequences(&self) -> BTreeMap<ValveId, ActivationSequence> {
        self.try_sequences().expect("consistent schedule")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ActivationStatus::*;

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_panics() {
        ControlProgram::new(0);
    }

    #[test]
    fn single_device_pattern() {
        let mut prog = ControlProgram::new(5);
        let d = prog.add_device(vec![(ValveId(0), Closed)], IdlePolicy::DontCare);
        prog.activate(d, 1..4).unwrap();
        let seqs = prog.sequences();
        assert_eq!(seqs[&ValveId(0)].to_string(), "X111X");
    }

    #[test]
    fn idle_policy_closed() {
        let mut prog = ControlProgram::new(3);
        let d = prog.add_device(vec![(ValveId(0), Open)], IdlePolicy::Closed);
        prog.activate(d, 0..1).unwrap();
        assert_eq!(prog.sequences()[&ValveId(0)].to_string(), "011");
    }

    #[test]
    fn two_devices_same_phase_are_compatible() {
        let mut prog = ControlProgram::new(4);
        let a = prog.add_device(vec![(ValveId(0), Closed)], IdlePolicy::DontCare);
        let b = prog.add_device(vec![(ValveId(1), Closed)], IdlePolicy::DontCare);
        prog.activate(a, 0..2).unwrap();
        prog.activate(b, 0..2).unwrap();
        let seqs = prog.sequences();
        assert!(seqs[&ValveId(0)].is_compatible(&seqs[&ValveId(1)]));
    }

    #[test]
    fn alternating_devices_are_incompatible() {
        let mut prog = ControlProgram::new(2);
        let a = prog.add_device(vec![(ValveId(0), Closed)], IdlePolicy::Open);
        let b = prog.add_device(vec![(ValveId(1), Closed)], IdlePolicy::Open);
        prog.activate(a, 0..1).unwrap();
        prog.activate(b, 1..2).unwrap();
        let seqs = prog.sequences();
        // v0 = "10", v1 = "01": incompatible → separate pins.
        assert!(!seqs[&ValveId(0)].is_compatible(&seqs[&ValveId(1)]));
    }

    #[test]
    fn shared_valve_unifies() {
        // Two devices share an isolation valve demanded closed by both.
        let mut prog = ControlProgram::new(2);
        let a = prog.add_device(vec![(ValveId(7), Closed)], IdlePolicy::DontCare);
        let b = prog.add_device(vec![(ValveId(7), Closed)], IdlePolicy::DontCare);
        prog.activate(a, 0..1).unwrap();
        prog.activate(b, 0..2).unwrap();
        assert_eq!(prog.sequences()[&ValveId(7)].to_string(), "11");
    }

    #[test]
    fn shared_valve_conflict_detected() {
        let mut prog = ControlProgram::new(1);
        let a = prog.add_device(vec![(ValveId(7), Closed)], IdlePolicy::DontCare);
        let b = prog.add_device(vec![(ValveId(7), Open)], IdlePolicy::DontCare);
        prog.activate(a, 0..1).unwrap();
        prog.activate(b, 0..1).unwrap();
        let err = prog.try_sequences().unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::Conflict {
                valve: ValveId(7),
                step: 0
            }
        ));
        assert!(err.to_string().contains("v7"));
    }

    #[test]
    fn out_of_range_activation_rejected() {
        let mut prog = ControlProgram::new(3);
        let d = prog.add_device(vec![(ValveId(0), Closed)], IdlePolicy::DontCare);
        let err = prog.activate(d, 2..5).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::StepOutOfRange { step: 5, steps: 3 }
        ));
    }

    #[test]
    fn unknown_device_rejected() {
        let mut prog = ControlProgram::new(3);
        let err = prog.activate(DeviceId(9), 0..1).unwrap_err();
        assert!(matches!(err, ScheduleError::UnknownDevice(DeviceId(9))));
    }

    #[test]
    fn sequences_feed_clustering() {
        use crate::{Valve, ValveSet};
        use pacor_grid::Point;
        // Two synchronized pump valves + one independent gate.
        let mut prog = ControlProgram::new(4);
        let pump = prog.add_device(
            vec![(ValveId(0), Closed), (ValveId(1), Closed)],
            IdlePolicy::DontCare,
        );
        let gate = prog.add_device(vec![(ValveId(2), Open)], IdlePolicy::Closed);
        prog.activate(pump, 0..2).unwrap();
        prog.activate(gate, 2..4).unwrap();
        let seqs = prog.sequences();
        let set: ValveSet = seqs
            .iter()
            .enumerate()
            .map(|(i, (&id, seq))| Valve::new(id, Point::new(i as i32 * 3, 0), seq.clone()))
            .collect();
        let clusters = set.cluster_greedy(&[]);
        // Pump valves share a pin; the gate is separate or shares only if
        // compatible — here gate "1100"→ wait compute: gate active 2..4,
        // open when active, closed idle → "1100"?? idle closed steps 0,1:
        // "11" then active open: "00" → "1100". Pump: "11XX". Compatible!
        // So clustering may merge them — just assert full coverage and
        // pairwise compatibility.
        let g = set.compat_graph();
        for c in &clusters {
            assert!(g.is_clique(c.members()));
        }
        let covered: usize = clusters.iter().map(|c| c.len()).sum();
        assert_eq!(covered, 3);
    }
}
