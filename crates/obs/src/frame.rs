//! Recording frames: the per-session metric and trace buffers.

use crate::Histogram;
use std::collections::BTreeMap;

/// One recorded trace event, in Chrome trace-event vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A complete span (`ph: "X"`): a named interval with a duration.
    Span {
        /// Span name.
        name: &'static str,
        /// Start, µs since the process epoch.
        ts: u64,
        /// Duration in µs.
        dur: u64,
        /// Key/value arguments.
        args: Vec<(&'static str, u64)>,
    },
    /// A counter-series sample (`ph: "C"`).
    Counter {
        /// Counter name.
        name: &'static str,
        /// Timestamp, µs since the process epoch.
        ts: u64,
        /// The counter's running total at `ts`.
        value: u64,
    },
}

/// An event buffer: counters, histograms and trace events recorded by
/// one session.
#[derive(Debug, Clone, Default)]
pub(crate) struct Frame {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    events: Vec<TraceEvent>,
}

impl Frame {
    pub(crate) fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    pub(crate) fn counter(&self, name: &'static str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub(crate) fn record(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().observe(value);
    }

    pub(crate) fn push_event(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Merges `other` into `self`: counters add, histograms combine,
    /// events append in `other`'s recording order.
    pub(crate) fn merge(&mut self, other: Frame) {
        for (name, delta) in other.counters {
            *self.counters.entry(name).or_insert(0) += delta;
        }
        for (name, hist) in other.histograms {
            self.histograms.entry(name).or_default().merge(&hist);
        }
        self.events.extend(other.events);
    }

    pub(crate) fn into_parts(
        self,
    ) -> (
        BTreeMap<&'static str, u64>,
        BTreeMap<&'static str, Histogram>,
        Vec<TraceEvent>,
    ) {
        (self.counters, self.histograms, self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters_and_appends_events() {
        let mut a = Frame::default();
        a.counter_add("c", 1);
        a.push_event(TraceEvent::Counter {
            name: "c",
            ts: 1,
            value: 1,
        });
        let mut b = Frame::default();
        b.counter_add("c", 2);
        b.counter_add("d", 5);
        b.record("h", 9);
        b.push_event(TraceEvent::Span {
            name: "second",
            ts: 2,
            dur: 1,
            args: vec![],
        });
        a.merge(b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.counter("d"), 5);
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.histograms["h"].count(), 1);
    }
}
