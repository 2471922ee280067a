//! Runtime error types.

use layercake_filter::FilterError;
use layercake_overlay::OverlayError;

/// Errors from starting or driving the wall-clock runtime.
#[derive(Debug)]
pub enum RtError {
    /// The underlying overlay configuration is invalid.
    Overlay(OverlayError),
    /// A subscription filter failed standardization.
    Filter(FilterError),
    /// `shards` must be at least 1.
    InvalidShards,
    /// The overlay config enables a feature the sharded runtime cannot
    /// replicate consistently; the message names it.
    UnsupportedFeature(&'static str),
    /// A subscription's placement walk did not finish within the
    /// configured timeout.
    PlacementTimeout,
    /// A durable-log directory could not be opened at startup.
    Storage(std::io::Error),
    /// The Prometheus metrics endpoint could not be configured or bound.
    Metrics {
        /// The `RtConfig::metrics_addr` value that failed.
        addr: String,
        /// What went wrong (parse failure, bind error, ...).
        reason: String,
    },
    /// A node exited unrecovered (panic with no restart, or a
    /// spent restart budget); the message carries the node, shard and
    /// panic payload. Produced by `RtReport::into_result` — the
    /// structured replacement for the panicking `shutdown()` of earlier
    /// revisions.
    NodePanic(String),
    /// The OS refused to spawn a runtime thread.
    Thread(std::io::Error),
    /// A wire-protocol failure on a runtime or remote link: an encode
    /// that exceeded the frame cap, a handshake that failed, or a socket
    /// stream that ended mid-frame.
    Wire(String),
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::Overlay(e) => write!(f, "invalid overlay config: {e}"),
            RtError::Filter(e) => write!(f, "invalid subscription filter: {e}"),
            RtError::InvalidShards => write!(f, "shards must be >= 1"),
            RtError::UnsupportedFeature(what) => write!(f, "unsupported in the runtime: {what}"),
            RtError::PlacementTimeout => write!(f, "subscription placement walk timed out"),
            RtError::Storage(e) => write!(f, "cannot open durable log storage: {e}"),
            RtError::Metrics { addr, reason } => write!(
                f,
                "cannot serve metrics on RtConfig::metrics_addr = {addr:?}: \
                 {reason} (use a socket address like \"127.0.0.1:9464\"; \
                 port 0 binds an ephemeral port reported by \
                 Runtime::metrics_addr)"
            ),
            RtError::NodePanic(detail) => write!(f, "node exited unrecovered: {detail}"),
            RtError::Thread(e) => write!(f, "cannot spawn runtime thread: {e}"),
            RtError::Wire(detail) => write!(f, "wire protocol failure: {detail}"),
        }
    }
}

impl std::error::Error for RtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RtError::Overlay(e) => Some(e),
            RtError::Filter(e) => Some(e),
            RtError::Storage(e) => Some(e),
            RtError::Thread(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OverlayError> for RtError {
    fn from(e: OverlayError) -> Self {
        RtError::Overlay(e)
    }
}

impl From<std::io::Error> for RtError {
    fn from(e: std::io::Error) -> Self {
        RtError::Storage(e)
    }
}
