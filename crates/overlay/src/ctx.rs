//! Transport-agnostic node abstraction.
//!
//! Broker and subscriber protocol logic is written against [`NodeCtx`] — a
//! minimal clock + outbox capability — instead of the simulator's concrete
//! [`layercake_sim::Ctx`]. The deterministic simulator (the `Actor`
//! adapter on [`crate::NodeActor`]) and the wall-clock runtime
//! (`layercake-rt`) each provide their own implementation, so the *same*
//! state machines run under virtual time (byte-identical, reproducible)
//! and under real threads with framed wire messages. This is the parity
//! contract: any behavioral divergence between sim and runtime must come
//! from the transport, never from the protocol logic.

use layercake_metrics::PipelineStage;
use layercake_sim::{ActorId, SimDuration, SimTime};

use crate::msg::OverlayMsg;

/// The capabilities an overlay node's protocol logic may use.
///
/// Deliberately minimal: a clock, the node's own address, fire-and-forget
/// sends, and relative timers. There is no `send_after` — protocol logic
/// must not depend on scheduling latitude the real runtime cannot honor.
pub trait NodeCtx {
    /// Current time (virtual ticks in the simulator, microseconds since
    /// runtime start under wall clock).
    fn now(&self) -> SimTime;

    /// The id of the node running this handler.
    fn me(&self) -> ActorId;

    /// Sends a message to another node (best effort, FIFO per link).
    fn send(&mut self, to: ActorId, msg: OverlayMsg);

    /// Schedules [`Node::on_timer`] with `tag` after `delay`.
    fn set_timer(&mut self, delay: SimDuration, tag: u64);

    /// Timestamp source for trace hop stamps. The simulator's default —
    /// the virtual clock — keeps sim traces byte-identical across runs;
    /// the wall-clock runtime overrides this with nanoseconds since
    /// runtime start, so hop latencies in its traces resolve real
    /// sub-microsecond pipeline costs instead of the microsecond
    /// granularity of [`NodeCtx::now`].
    fn trace_now(&self) -> u64 {
        self.now().ticks()
    }

    /// Matcher-shard provenance recorded on trace hops: which replica of
    /// the node is running this handler. The simulator has exactly one
    /// replica per broker, hence the default.
    fn shard(&self) -> u32 {
        0
    }

    /// `true` when the surrounding transport is stage-profiling the
    /// frame currently being processed (see
    /// [`layercake_metrics::StageProfiler`]). Protocol code uses this to
    /// time optional sub-stages — e.g. the durable-log append — only
    /// when the sample will actually be recorded.
    fn stage_sampled(&self) -> bool {
        false
    }

    /// Records one pipeline-stage duration for a sampled frame. A no-op
    /// everywhere except the wall-clock runtime.
    fn record_stage(&self, _stage: PipelineStage, _ns: u64) {}

    /// The node has given up on `peer` (it stopped answering). A transport
    /// that keeps per-peer link state drops it; the default has none.
    fn peer_lost(&mut self, _peer: ActorId) {}
}

/// A transport-agnostic overlay node: the handler surface shared by the
/// deterministic simulator (via the `Actor` adapter on
/// [`crate::NodeActor`]) and the wall-clock runtime's node driver.
pub trait Node {
    /// Handles one incoming message.
    fn on_message(&mut self, from: ActorId, msg: OverlayMsg, ctx: &mut dyn NodeCtx);

    /// Handles an expired timer previously set through
    /// [`NodeCtx::set_timer`].
    fn on_timer(&mut self, tag: u64, ctx: &mut dyn NodeCtx);

    /// Called once when the node restarts after a crash (volatile state
    /// lost). Default: nothing.
    fn on_restart(&mut self, _ctx: &mut dyn NodeCtx) {}
}
