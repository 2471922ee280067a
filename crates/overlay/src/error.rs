//! Typed errors for overlay construction and configuration.

use std::error::Error;
use std::fmt;

/// Why an [`crate::OverlayConfig`] (or an operation built on one) was
/// rejected. Every variant carries enough context to render an actionable
/// message — the thing to change and the value that was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OverlayError {
    /// `levels` was empty: the overlay needs at least one broker stage.
    EmptyTopology,
    /// The top level must contain exactly one node (the root).
    MultipleRoots {
        /// Number of nodes configured at the top level.
        top_level: usize,
    },
    /// A level with zero brokers cannot route anything.
    EmptyLevel {
        /// Stage number (1-based) of the offending level.
        stage: usize,
    },
    /// Level sizes must not grow from the leaves toward the root — each
    /// broker needs a parent slot at the next level up.
    GrowingLevels {
        /// Size of the lower level.
        below: usize,
        /// Size of the (larger) level above it.
        above: usize,
    },
    /// A zero `ttl`: the timers it paces (lease renewal and sweep, the
    /// durable ack flush, gap-repair retries) would re-arm at the same
    /// instant forever.
    ZeroTtl,
    /// Durability is enabled with zero-byte log segments, so every append
    /// would rotate (and fsync) its own segment.
    ZeroSegmentBytes,
    /// Durability is enabled with a zero fsync interval; the log syncs
    /// after every `wal_flush_every` appended records, so zero would
    /// never flush at all.
    ZeroFlushEvery,
}

impl fmt::Display for OverlayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyTopology => {
                write!(f, "overlay needs at least one broker level; set `levels`")
            }
            Self::MultipleRoots { top_level } => write!(
                f,
                "the top level must contain exactly the root node, found {top_level}; \
                 make the last entry of `levels` 1"
            ),
            Self::EmptyLevel { stage } => write!(
                f,
                "broker level at stage {stage} is empty; every entry of `levels` must be >= 1"
            ),
            Self::GrowingLevels { below, above } => write!(
                f,
                "level sizes must not grow upward (found {below} below {above}); \
                 order `levels` from the widest stage-1 tier to the single root"
            ),
            Self::ZeroTtl => write!(
                f,
                "ttl = 0 would re-arm the lease, ack-flush and gap-repair timers at the same \
                 instant forever; set `ttl` to at least one tick"
            ),
            Self::ZeroSegmentBytes => write!(
                f,
                "durability is enabled with wal_segment_bytes = 0, which would rotate a \
                 segment per record; set `wal_segment_bytes` >= 1 or disable \
                 `durability_enabled`"
            ),
            Self::ZeroFlushEvery => write!(
                f,
                "durability is enabled with wal_flush_every = 0, so the log would never \
                 fsync; set `wal_flush_every` >= 1 (1 = sync every append)"
            ),
        }
    }
}

impl Error for OverlayError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_knob_to_change() {
        let cases: Vec<(OverlayError, &str)> = vec![
            (OverlayError::EmptyTopology, "levels"),
            (OverlayError::MultipleRoots { top_level: 3 }, "root"),
            (OverlayError::EmptyLevel { stage: 2 }, "stage 2"),
            (
                OverlayError::GrowingLevels {
                    below: 2,
                    above: 10,
                },
                "must not grow",
            ),
            (OverlayError::ZeroTtl, "`ttl`"),
            (OverlayError::ZeroSegmentBytes, "wal_segment_bytes"),
            (OverlayError::ZeroFlushEvery, "wal_flush_every"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should mention {needle:?}");
        }
    }
}
