//! Activation sequences and status compatibility (Definitions 1–3).

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Activation status of a valve at one time step (Definition 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActivationStatus {
    /// "0" — the valve is open.
    Open,
    /// "1" — the valve is closed.
    Closed,
    /// "X" — the valve may be either open or closed.
    DontCare,
}

impl ActivationStatus {
    /// Compatibility of two statuses per Definition 2: equal, or either
    /// side is a don't-care.
    #[inline]
    pub fn is_compatible(self, other: ActivationStatus) -> bool {
        use ActivationStatus::*;
        matches!(
            (self, other),
            (DontCare, _) | (_, DontCare) | (Open, Open) | (Closed, Closed)
        )
    }

    /// Character representation (`'0'`, `'1'`, `'X'`).
    pub fn to_char(self) -> char {
        match self {
            ActivationStatus::Open => '0',
            ActivationStatus::Closed => '1',
            ActivationStatus::DontCare => 'X',
        }
    }
}

impl fmt::Display for ActivationStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

impl TryFrom<char> for ActivationStatus {
    type Error = ParseSequenceError;

    fn try_from(c: char) -> Result<Self, Self::Error> {
        match c {
            '0' => Ok(ActivationStatus::Open),
            '1' => Ok(ActivationStatus::Closed),
            'X' | 'x' => Ok(ActivationStatus::DontCare),
            _ => Err(ParseSequenceError { offending: c }),
        }
    }
}

/// Error returned when parsing a sequence containing a character other
/// than `0`, `1`, or `X`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseSequenceError {
    /// The invalid character.
    pub offending: char,
}

impl fmt::Display for ParseSequenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid activation character {:?}; expected '0', '1' or 'X'",
            self.offending
        )
    }
}

impl Error for ParseSequenceError {}

/// A valve activation sequence `S(v) = a1, a2, ..., an` (Definition 1).
///
/// All sequences in one biochip have equal length, produced by the
/// upstream resource binding and scheduling process. This type does not
/// enforce a global length — [`ActivationSequence::is_compatible`] simply
/// requires matching lengths.
///
/// # Examples
///
/// ```
/// use pacor_valves::ActivationSequence;
///
/// let s: ActivationSequence = "0X1".parse()?;
/// assert_eq!(s.len(), 3);
/// assert_eq!(s.to_string(), "0X1");
/// # Ok::<(), pacor_valves::ParseSequenceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ActivationSequence {
    steps: Vec<ActivationStatus>,
}

impl ActivationSequence {
    /// Creates a sequence from statuses.
    pub fn new(steps: Vec<ActivationStatus>) -> Self {
        Self { steps }
    }

    /// Number of time steps.
    #[inline]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` for the zero-step sequence.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The status sequence.
    #[inline]
    pub fn steps(&self) -> &[ActivationStatus] {
        &self.steps
    }

    /// Compatibility per Definition 3: element-wise compatible and equal
    /// length.
    pub fn is_compatible(&self, other: &ActivationSequence) -> bool {
        self.steps.len() == other.steps.len()
            && self
                .steps
                .iter()
                .zip(&other.steps)
                .all(|(a, b)| a.is_compatible(*b))
    }

    /// Number of don't-care steps; a coarse measure of how "mergeable"
    /// this valve is during clustering.
    pub fn dont_care_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, ActivationStatus::DontCare))
            .count()
    }
}

impl FromStr for ActivationSequence {
    type Err = ParseSequenceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.chars()
            .map(ActivationStatus::try_from)
            .collect::<Result<Vec<_>, _>>()
            .map(ActivationSequence::new)
    }
}

impl fmt::Display for ActivationSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.steps {
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

impl FromIterator<ActivationStatus> for ActivationSequence {
    fn from_iter<I: IntoIterator<Item = ActivationStatus>>(iter: I) -> Self {
        ActivationSequence::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ActivationStatus::*;

    #[test]
    fn status_compat_matrix() {
        assert!(Open.is_compatible(Open));
        assert!(Closed.is_compatible(Closed));
        assert!(!Open.is_compatible(Closed));
        assert!(!Closed.is_compatible(Open));
        assert!(DontCare.is_compatible(Open));
        assert!(Open.is_compatible(DontCare));
        assert!(DontCare.is_compatible(DontCare));
    }

    #[test]
    fn parse_roundtrip() {
        let s: ActivationSequence = "01X10x".parse().unwrap();
        assert_eq!(s.len(), 6);
        assert_eq!(s.to_string(), "01X10X");
    }

    #[test]
    fn parse_rejects_junk() {
        let err = "012".parse::<ActivationSequence>().unwrap_err();
        assert_eq!(err.offending, '2');
        assert!(err.to_string().contains("'2'"));
    }

    #[test]
    fn sequence_compatibility() {
        let a: ActivationSequence = "01X".parse().unwrap();
        let b: ActivationSequence = "0XX".parse().unwrap();
        let c: ActivationSequence = "11X".parse().unwrap();
        assert!(a.is_compatible(&b));
        assert!(b.is_compatible(&a));
        assert!(!a.is_compatible(&c));
        assert!(!b.is_compatible(&c)); // '0' vs '1' at step 0
        let d: ActivationSequence = "X1X".parse().unwrap();
        assert!(c.is_compatible(&d)); // X matches both sides
    }

    #[test]
    fn length_mismatch_incompatible() {
        let a: ActivationSequence = "01".parse().unwrap();
        let b: ActivationSequence = "01X".parse().unwrap();
        assert!(!a.is_compatible(&b));
    }

    #[test]
    fn compatibility_is_reflexive() {
        let a: ActivationSequence = "010X1".parse().unwrap();
        assert!(a.is_compatible(&a));
    }

    #[test]
    fn from_iterator_collects() {
        let s: ActivationSequence = [Open, Closed, DontCare].into_iter().collect();
        assert_eq!(s.to_string(), "01X");
    }
}
