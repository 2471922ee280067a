//! The heterogeneous actor wrapper dispatching to brokers or subscribers.

use layercake_sim::ActorId;

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
