//! The one way every node is run.
//!
//! A broker matcher shard and a subscriber are the same thing to the
//! runtime: a [`Node`] state machine fed messages from an inbox, with a
//! heap of timer deadlines. [`NodeDriver`] owns the node and everything
//! needed to run it. Its unit of work is the *turn* —
//! [`NodeDriver::turn`] runs the node for one frame — and
//! [`NodeDriver::slice`] is what a worker runs each time it picks the node:
//! a bounded number of turns off the inbox, then the timers that fell due.
//! What differs between the two kinds of node (table gauges for a broker;
//! placement signals, the delivery drain and the tap for a subscriber) is
//! the runtime's step after each slice, and its exit report.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use layercake_metrics::{PipelineStage, StageProfiler};
use layercake_overlay::{Node, NodeCtx, OverlayMsg};
use layercake_sim::{ActorId, SimDuration, SimTime};

use crate::executor::{Slice, SLICE_FRAMES};
use crate::fault::FaultAction;
use crate::runtime::{
    elapsed_ns, micros_since, nanos_since, shard_of, Frame, Router, RtEvent, EXTERNAL,
};
use crate::stats::RtStats;

/// A node's inbox as its drivers read it. Every generation of a broker
/// shard reads the same one, each `try_recv` under the lock and never a
/// turn: a stalled zombie sleeping in its turn leaves it to its successor.
pub(crate) type SharedRx = Arc<Mutex<Receiver<RtEvent>>>;

/// How a node's run ended (when it didn't panic).
pub(crate) enum LoopExit {
    Clean,
    Fenced,
}

/// Who a node is and how it reaches the rest of the runtime: the part of
/// a driver that its [`RtCtx`] reads and no frame changes.
pub(crate) struct NodeEnv {
    pub(crate) me: ActorId,
    /// `(shard index, shard count)` for broker shards, `None` for
    /// subscribers. Durable stream-open frames (`DurableBase`) are emitted
    /// by the shard that owns the class's log slice rather than the
    /// leader: only the owner knows the stream's real resume offset — the
    /// leader's replica of a class it does not own has an empty history
    /// and would open every stream at offset 0.
    shard: Option<(usize, usize)>,
    /// Leader shards (and every subscriber) emit control traffic and arm
    /// timers; follower shards mutate state silently.
    pub(crate) speaks: bool,
    pub(crate) epoch: Instant,
    pub(crate) router: Router,
    pub(crate) stats: Arc<RtStats>,
    profiler: Arc<StageProfiler>,
}

/// One node, who it is, and the state it is run with. Rebuilt (around a
/// rebuilt node, with a fresh fence) for every supervised restart; the
/// inbox it reads is the node's for the runtime's life.
pub(crate) struct NodeDriver<N: Node> {
    pub(crate) node: N,
    pub(crate) env: NodeEnv,
    /// Set by the supervisor's stall detector: the node must stop
    /// touching shared state and exit `Fenced` at the next opportunity.
    /// Subscribers are not restarted, so nothing fences them.
    fence: Option<Arc<AtomicBool>>,
    /// `(deadline in µs since epoch, tag)`.
    timers: BinaryHeap<Reverse<(u64, u64)>>,
    /// The stage sampler's position in its every-n-th cycle.
    frame_counter: u64,
    /// Frames taken off the inbox; what fault plans count in.
    received: u64,
    /// The frame being worked on, from before the fault hooks until the
    /// node has handled it: a panic hands it to the successor as its first
    /// frame, a fence back to the inbox (a deterministically poisonous
    /// frame then re-crashes the replacement — bounded by the restart
    /// budget, which is the intended behavior for a poison-pill input).
    current: Option<Frame>,
    /// An event the worker's re-check took off the inbox, or a crashed
    /// generation's in-flight frame: the next slice's first.
    next: Option<RtEvent>,
    /// How much of its broker's control log the node was rebuilt from (0
    /// for generation 0): a frame captured before that is skipped.
    replayed: u64,
    /// Set by the shutdown pill: what is queued is still handled, timers
    /// no longer fire, and an empty inbox ends the node.
    draining: bool,
}

impl<N: Node> NodeDriver<N> {
    pub(crate) fn new(
        node: N,
        me: ActorId,
        shard: Option<(usize, usize)>,
        router: Router,
        stats: Arc<RtStats>,
    ) -> Self {
        Self {
            node,
            env: NodeEnv {
                me,
                shard,
                speaks: shard.is_none_or(|(index, _)| index == 0),
                epoch: router.epoch,
                profiler: Arc::clone(&router.profiler),
                router,
                stats,
            },
            fence: None,
            timers: BinaryHeap::new(),
            frame_counter: 0,
            received: 0,
            current: None,
            next: None,
            replayed: 0,
            draining: false,
        }
    }

    /// Puts the driver under the supervisor's stall detector.
    pub(crate) fn fenced_by(mut self, fence: Arc<AtomicBool>) -> Self {
        self.fence = Some(fence);
        self
    }

    /// Makes the driver a successor: its node replayed the first
    /// `replayed` captured control frames, and `first` is the crashed
    /// generation's in-flight frame.
    pub(crate) fn resume(mut self, replayed: u64, first: Option<RtEvent>) -> Self {
        self.replayed = replayed;
        self.next = first;
        self
    }

    /// What fault plans and supervision slots key this node by:
    /// `(broker, shard)`, or `(node, 0)` for a subscriber.
    pub(crate) fn slot(&self) -> (usize, usize) {
        (self.env.me.0, self.env.shard.map_or(0, |(index, _)| index))
    }

    pub(crate) fn into_node(self) -> N {
        self.node
    }

    /// What a panicked or fenced generation took off the inbox and left
    /// unhandled, if anything.
    pub(crate) fn take_in_flight(&mut self) -> Option<RtEvent> {
        self.current.take().map(RtEvent::Frame).or(self.next.take())
    }

    fn fenced(&self) -> bool {
        self.fence
            .as_ref()
            .is_some_and(|fence| fence.load(Ordering::Relaxed))
    }

    /// The node and the [`NodeCtx`] to call it with.
    pub(crate) fn ctx(&mut self, sampled: bool) -> (&mut N, RtCtx<'_>) {
        let ctx = RtCtx {
            env: &self.env,
            timers: &mut self.timers,
            sampled,
            nested_ns: 0,
        };
        (&mut self.node, ctx)
    }

    /// Spends a turn on each frame off the inbox, at most
    /// [`SLICE_FRAMES`] of them, then fires the timers that fell due.
    /// After the shutdown pill everything already queued is still handled
    /// and nothing further is waited for: the inbox running dry (or
    /// hanging up) then ends the node.
    pub(crate) fn slice(&mut self, rx: &Mutex<Receiver<RtEvent>>) -> Slice {
        let mut end = Slice::More;
        for _ in 0..SLICE_FRAMES {
            if self.fenced() {
                return Slice::Exit(LoopExit::Fenced);
            }
            match self.next.take().map_or_else(|| try_recv(rx), Ok) {
                Ok(RtEvent::Frame(frame))
                    if frame.ctrl_seq.is_some_and(|seq| seq < self.replayed) =>
                {
                    // Replayed from the control log into the rebuilt node.
                    // It still counts as handled: `quiesce` waits for it.
                    self.env.stats.inc_frames_received();
                }
                Ok(RtEvent::Frame(frame)) => {
                    if let ControlFlow::Break(exit) = self.turn(frame) {
                        return Slice::Exit(exit);
                    }
                }
                Ok(RtEvent::Shutdown) => self.draining = true,
                Err(TryRecvError::Empty) if !self.draining => {
                    end = Slice::Drained;
                    break;
                }
                Err(_) => return Slice::Exit(LoopExit::Clean),
            }
        }
        if !self.draining {
            self.fire_due_timers();
        }
        end
    }

    /// Takes the next event off the inbox for the next slice, if one came
    /// in; `true` when the node has work (a hung-up inbox counts: the next
    /// slice ends the node).
    pub(crate) fn recheck(&mut self, rx: &Mutex<Receiver<RtEvent>>) -> bool {
        match try_recv(rx) {
            Ok(ev) => self.next = Some(ev),
            Err(e) => return e == TryRecvError::Disconnected,
        }
        true
    }

    /// The earliest timer deadline, while timers still fire.
    pub(crate) fn deadline(&self) -> Option<u64> {
        let next = self.timers.peek().map(|Reverse((at, _))| *at);
        next.filter(|_| !self.draining)
    }

    /// Runs the node for one frame: consults the fault plan, then hands the
    /// frame's message to the node. Breaks when an injected stall outlasted
    /// the supervisor's patience and the node came back fenced — the
    /// frame then stays in `current`, unhandled.
    pub(crate) fn turn(&mut self, frame: Frame) -> ControlFlow<LoopExit> {
        self.received += 1;
        let sampled = self.env.profiler.tick(&mut self.frame_counter);
        self.current = Some(frame);
        let (node, shard) = self.slot();
        match self
            .env
            .router
            .fault
            .frame_action(node, shard, self.received)
        {
            FaultAction::Pass => {}
            FaultAction::Panic => {
                self.env.stats.inc_faults_injected();
                panic!(
                    "injected fault: node {node} shard {shard} panics at frame {}",
                    self.received
                );
            }
            FaultAction::Stall(dur) => {
                self.env.stats.inc_faults_injected();
                std::thread::sleep(dur);
                if self.fenced() {
                    return ControlFlow::Break(LoopExit::Fenced);
                }
            }
        }
        self.feed(sampled);
        self.current = None;
        ControlFlow::Continue(())
    }

    /// Hands a copy of the current frame's message to the node (for an
    /// event, an `Arc` bump), keeping the frame itself for the supervisor
    /// until the node has handled it.
    ///
    /// On a sampled frame the per-stage pipeline costs are recorded:
    /// ingress wait (inbox-entry stamp → now) and match (the
    /// state-machine step, minus the time its own sends spent routing —
    /// reported as `EgressSend` by the nested dispatch). `Encode` and
    /// `Decode` are recorded where bytes are made and read: the TCP link
    /// threads.
    ///
    /// Externally published events are re-stamped here, at root ingress
    /// dequeue: the wait an event spent behind earlier events in the root
    /// inbox goes into `rt.queue_wait_ns`, and the trace context's
    /// `published_at` is rebased to *now* so the end-to-end latency
    /// histogram measures pipeline delivery latency rather than publish
    /// backlog (an open-loop publisher queueing faster than one shard
    /// drains once read as a 268 ms p50).
    fn feed(&mut self, sampled: bool) {
        let Some(frame) = self.current.as_ref() else {
            return;
        };
        let env = &self.env;
        if sampled && frame.enqueued_ns != 0 {
            env.profiler.record(
                PipelineStage::IngressWait,
                nanos_since(env.epoch).saturating_sub(frame.enqueued_ns),
            );
        }
        let (from, mut msg) = (frame.from, frame.msg.clone());
        if let (EXTERNAL, OverlayMsg::Publish(event)) = (from, &mut msg) {
            if let Some(mut tc) = event.trace() {
                let now = nanos_since(env.epoch);
                env.stats
                    .record_queue_wait_ns(now.saturating_sub(tc.published_at));
                tc.published_at = now;
                tc.last_hop_at = now;
                event.set_trace(Some(tc));
            }
        }
        let mut ctx = RtCtx {
            env,
            timers: &mut self.timers,
            sampled,
            nested_ns: 0,
        };
        let match_timer = sampled.then(Instant::now);
        self.node.on_message(from, msg, &mut ctx);
        if let Some(t0) = match_timer {
            env.profiler.record(
                PipelineStage::Match,
                elapsed_ns(t0).saturating_sub(ctx.nested_ns),
            );
        }
        // Counted once handled, after whatever the node sent in response:
        // `frames_sent == frames_received` then means no frame is queued
        // or being worked on (see `quiesce`).
        env.stats.inc_frames_received();
    }

    pub(crate) fn fire_due_timers(&mut self) {
        while let Some(&Reverse((deadline, tag))) = self.timers.peek() {
            if deadline > micros_since(self.env.epoch) {
                break;
            }
            self.timers.pop();
            self.env.stats.inc_timers_fired();
            // Timer work is maintenance, not pipeline — never stage-sampled.
            let (node, mut ctx) = self.ctx(false);
            node.on_timer(tag, &mut ctx);
        }
    }
}

fn try_recv(rx: &Mutex<Receiver<RtEvent>>) -> Result<RtEvent, TryRecvError> {
    rx.lock().unwrap_or_else(PoisonError::into_inner).try_recv()
}

/// The [`NodeCtx`] a driver hands to its node: wall-clock time in
/// microseconds since runtime start, sends through the router, timers
/// into the driver's deadline heap.
pub(crate) struct RtCtx<'a> {
    env: &'a NodeEnv,
    timers: &'a mut BinaryHeap<Reverse<(u64, u64)>>,
    /// Whether the frame currently being processed was picked by the
    /// stage sampler.
    sampled: bool,
    /// Wall-clock nanoseconds this handler spent inside nested
    /// `dispatch` calls (frame counting + egress send). Subtracted from
    /// the handler's total so the `Match` stage reports pure
    /// state-machine time rather than re-counting downstream send costs.
    nested_ns: u64,
}

impl NodeCtx for RtCtx<'_> {
    fn now(&self) -> SimTime {
        SimTime::from_ticks(micros_since(self.env.epoch))
    }

    fn me(&self) -> ActorId {
        self.env.me
    }

    fn send(&mut self, to: ActorId, msg: OverlayMsg) {
        let env = self.env;
        if let (OverlayMsg::DurableBase { class, .. }, Some((shard, count))) = (&msg, env.shard) {
            // Class-owner shards open durable streams, leaders don't
            // (see `NodeEnv::shard`) — exactly one replica speaks.
            if shard_of(class.0, count) != shard {
                env.stats.inc_suppressed_control();
                return;
            }
        } else if !msg.is_data() && !env.speaks {
            env.stats.inc_suppressed_control();
            return;
        }
        let timer = self.sampled.then(Instant::now);
        env.router
            .dispatch(env.me, to, msg, &env.stats, self.sampled);
        if let Some(t0) = timer {
            self.nested_ns = self.nested_ns.saturating_add(elapsed_ns(t0));
        }
    }

    fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        if !self.env.speaks {
            return;
        }
        let deadline = micros_since(self.env.epoch) + delay.ticks();
        self.timers.push(Reverse((deadline, tag)));
    }

    /// Wall-clock trace stamps in nanoseconds since runtime start — the
    /// resolution hop latencies need to resolve sub-microsecond pipeline
    /// costs ([`NodeCtx::now`] only ticks in microseconds).
    fn trace_now(&self) -> u64 {
        nanos_since(self.env.epoch)
    }

    fn shard(&self) -> u32 {
        self.env.shard.map_or(0, |(s, _)| s as u32)
    }

    fn stage_sampled(&self) -> bool {
        self.sampled
    }

    fn record_stage(&self, stage: PipelineStage, ns: u64) {
        self.env.profiler.record(stage, ns);
    }
}
