//! Error type for grid construction and access.

use crate::Point;
use std::error::Error;
use std::fmt;

/// Errors produced by the grid substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GridError {
    /// The requested grid dimensions are zero or exceed the supported size.
    InvalidDimensions {
        /// Requested width.
        width: u32,
        /// Requested height.
        height: u32,
    },
    /// A point lies outside the grid.
    OutOfBounds {
        /// The offending point.
        point: Point,
        /// Grid width.
        width: u32,
        /// Grid height.
        height: u32,
    },
    /// A path is not a connected sequence of adjacent cells.
    DisconnectedPath {
        /// First pair index at which adjacency fails.
        at: usize,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::InvalidDimensions { width, height } => {
                write!(f, "invalid grid dimensions {width}x{height}")
            }
            GridError::OutOfBounds {
                point,
                width,
                height,
            } => write!(f, "point {point} outside {width}x{height} grid"),
            GridError::DisconnectedPath { at } => {
                write!(
                    f,
                    "path cells at indices {at} and {} are not adjacent",
                    at + 1
                )
            }
        }
    }
}

impl Error for GridError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = GridError::InvalidDimensions {
            width: 0,
            height: 5,
        };
        assert_eq!(e.to_string(), "invalid grid dimensions 0x5");
        let e = GridError::OutOfBounds {
            point: Point::new(9, 9),
            width: 4,
            height: 4,
        };
        assert!(e.to_string().contains("outside 4x4 grid"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GridError>();
    }
}
