//! The heterogeneous actor wrapper dispatching to brokers or subscribers.

use layercake_sim::{Actor, ActorId, Ctx, SimDuration, SimTime};

use crate::broker::Broker;
use crate::ctx::{Node, NodeCtx};
use crate::msg::OverlayMsg;
use crate::subscriber::SubscriberNode;

/// An overlay node: either an intermediate broker or a subscriber runtime.
///
/// Wrapping both roles in one enum keeps the simulation world statically
/// dispatched and lets the facade inspect node state after a run without
/// downcasting.
// Both roles are sizeable and actor vectors are small relative to event
// traffic, so boxing a variant buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum NodeActor {
    /// An intermediate broker (stage ≥ 1).
    Broker(Broker),
    /// A subscriber runtime (stage 0).
    Subscriber(SubscriberNode),
}

impl NodeActor {
    /// The broker inside, if this node is one.
    #[must_use]
    pub fn as_broker(&self) -> Option<&Broker> {
        match self {
            NodeActor::Broker(b) => Some(b),
            NodeActor::Subscriber(_) => None,
        }
    }

    /// The subscriber inside, if this node is one.
    #[must_use]
    pub fn as_subscriber(&self) -> Option<&SubscriberNode> {
        match self {
            NodeActor::Subscriber(s) => Some(s),
            NodeActor::Broker(_) => None,
        }
    }

    /// Mutable subscriber access (used by the facade for soft-state
    /// unsubscription).
    pub fn as_subscriber_mut(&mut self) -> Option<&mut SubscriberNode> {
        match self {
            NodeActor::Subscriber(s) => Some(s),
            NodeActor::Broker(_) => None,
        }
    }
}

impl Node for Broker {
    fn on_message(&mut self, from: ActorId, msg: OverlayMsg, ctx: &mut dyn NodeCtx) {
        self.handle(from, msg, ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut dyn NodeCtx) {
        self.timer(tag, ctx);
    }

    fn on_restart(&mut self, ctx: &mut dyn NodeCtx) {
        Broker::on_restart(self, ctx);
    }
}

impl Node for SubscriberNode {
    fn on_message(&mut self, from: ActorId, msg: OverlayMsg, ctx: &mut dyn NodeCtx) {
        self.handle(from, msg, ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut dyn NodeCtx) {
        self.timer(tag, ctx);
    }

    // Subscribers are leaf runtimes: their subscription state survives
    // in-process; lease silence handles lost hosts.
}

impl Node for NodeActor {
    fn on_message(&mut self, from: ActorId, msg: OverlayMsg, ctx: &mut dyn NodeCtx) {
        match self {
            NodeActor::Broker(b) => b.handle(from, msg, ctx),
            NodeActor::Subscriber(s) => s.handle(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut dyn NodeCtx) {
        match self {
            NodeActor::Broker(b) => b.timer(tag, ctx),
            NodeActor::Subscriber(s) => s.timer(tag, ctx),
        }
    }

    fn on_restart(&mut self, ctx: &mut dyn NodeCtx) {
        match self {
            NodeActor::Broker(b) => Broker::on_restart(b, ctx),
            NodeActor::Subscriber(_) => {}
        }
    }
}

/// The [`NodeCtx`] a bare node runs under in the simulator: the world's
/// own context. (The runtime's profiling hooks keep their off defaults.)
struct SimCtx<'a, 'w>(&'a mut Ctx<'w, OverlayMsg>);

impl NodeCtx for SimCtx<'_, '_> {
    fn now(&self) -> SimTime {
        self.0.now()
    }

    fn me(&self) -> ActorId {
        self.0.me()
    }

    fn send(&mut self, to: ActorId, msg: OverlayMsg) {
        self.0.send(to, msg);
    }

    fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.0.set_timer(delay, tag);
    }
}

/// A bare node as the simulator runs it: the production protocol, with
/// nothing between it and the world.
impl Actor for NodeActor {
    type Msg = OverlayMsg;

    fn on_message(&mut self, from: ActorId, msg: OverlayMsg, ctx: &mut Ctx<'_, OverlayMsg>) {
        Node::on_message(self, from, msg, &mut SimCtx(ctx));
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, OverlayMsg>) {
        Node::on_timer(self, tag, &mut SimCtx(ctx));
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, OverlayMsg>) {
        Node::on_restart(self, &mut SimCtx(ctx));
    }
}
