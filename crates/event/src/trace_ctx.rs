//! Per-event trace context carried on [`Envelope`].
//!
//! The context itself is deliberately tiny and `Copy`: three `u64`s that
//! ride along with a stamped envelope so every hop can (a) find the trace
//! it belongs to and (b) compute its own hop latency without any lookup.
//! The per-hop records live in the observer (`layercake-trace`'s
//! `TraceSink`), not on the wire — an envelope never grows with path
//! length.
//!
//! Which envelopes carry one is up to the publisher. The simulator, and
//! the runtime with a trace sink, stamp the sampled events only; the rest
//! carry `None`, allocate nothing and cost one cleared flag bit on the
//! wire. The runtime's `Publisher::publish` *without* a sink stamps every
//! event — the stamp feeds its end-to-end latency histogram — with the
//! sequence number as the id. On the wire that id is free (a flag bit),
//! and a stamp costs its publish time (≈5 bytes: nanoseconds since the
//! runtime started) plus the last hop's offset from it (1–3 bytes) in
//! every frame.
//!
//! Times are raw ticks (`SimTime::ticks` in the simulator, nanoseconds in
//! the runtime) rather than `SimTime` values so this crate stays
//! independent of the simulator.
//!
//! [`Envelope`]: crate::Envelope

use serde::{Deserialize, Serialize};

/// Identifier of one sampled event trace, unique within a run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct TraceId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace#{}", self.0)
    }
}

/// The trace context stamped onto an envelope at publish time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct TraceContext {
    /// The trace this envelope belongs to.
    pub id: TraceId,
    /// Virtual tick at which the event was published.
    pub published_at: u64,
    /// Virtual tick at which the previous hop forwarded this copy of the
    /// envelope; each hop computes its latency as `now - last_hop_at` and
    /// re-stamps before forwarding.
    pub last_hop_at: u64,
}

impl TraceContext {
    /// Creates a context at publish time (the first "hop" starts now).
    #[must_use]
    pub fn new(id: TraceId, now_ticks: u64) -> Self {
        Self {
            id,
            published_at: now_ticks,
            last_hop_at: now_ticks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_starts_with_publish_tick() {
        let ctx = TraceContext::new(TraceId(3), 42);
        assert_eq!(ctx.id, TraceId(3));
        assert_eq!(ctx.published_at, 42);
        assert_eq!(ctx.last_hop_at, 42);
        assert_eq!(ctx.id.to_string(), "trace#3");
    }

    #[test]
    fn serde_round_trip() {
        let ctx = TraceContext::new(TraceId(9), 100);
        let json = serde_json::to_string(&ctx).unwrap();
        let back: TraceContext = serde_json::from_str(&json).unwrap();
        assert_eq!(ctx, back);
    }
}
