//! Shared hierarchy construction for the simulator and the wall-clock
//! runtime.
//!
//! Both front ends must build *identical* broker hierarchies from an
//! [`OverlayConfig`] — same labels, same per-broker seeds, same
//! parent/child wiring, same id assignment — so that a protocol trace
//! from the runtime can be compared hop-for-hop against the
//! deterministic simulation. This module is the single source of that
//! construction; [`crate::OverlaySim`] consumes it by inserting each
//! [`TopologyNode`] into the discrete-event world in order, and
//! `layercake-rt` consumes it by spawning one thread per node.

use std::sync::Arc;

use layercake_event::TypeRegistry;
use layercake_filter::{standardize, Filter, FilterError, FilterId};
use layercake_sim::ActorId;
use layercake_trace::TraceSink;

use crate::broker::{Broker, BrokerSetup};
use crate::config::OverlayConfig;
use crate::error::OverlayError;
use crate::subscriber::{ResidualFilter, SubscriberNode, SubscriberSetup};

/// One broker in a constructed hierarchy, with its wiring made explicit
/// so transports can route without peeking into broker internals.
#[derive(Debug)]
pub struct TopologyNode {
    /// The node id this broker expects: brokers are numbered level by
    /// level from stage 1 upward, so level `l` occupies a contiguous id
    /// range and the root is the highest id. The simulator's
    /// `World::add_actor` reproduces exactly this numbering when nodes
    /// are inserted in order.
    pub id: ActorId,
    /// Filtering stage (level + 1; subscribers sit at stage 0).
    pub stage: usize,
    /// Parent broker, `None` for the root.
    pub parent: Option<ActorId>,
    /// Child brokers one level down (empty at the lowest level, whose
    /// children are subscribers joining later).
    pub children: Vec<ActorId>,
    /// The protocol state machine itself.
    pub broker: Broker,
}

/// Builds the broker hierarchy described by `cfg`.
///
/// Brokers are returned in id order (stage 1 first, root last) with
/// deterministic labels (`N<stage>.<i>`) and per-broker RNG seeds derived
/// from `cfg.seed`, exactly as the simulator has always built them.
///
/// # Errors
///
/// Returns the [`OverlayError`] produced by [`OverlayConfig::validate`].
pub fn build_brokers(
    cfg: &OverlayConfig,
    registry: &Arc<TypeRegistry>,
    trace: Option<&Arc<TraceSink>>,
) -> Result<Vec<TopologyNode>, OverlayError> {
    cfg.validate()?;

    // Brokers are created level by level from stage 1 upward, so node
    // ids are predictable: level l occupies offsets[l]..offsets[l+1].
    let mut offsets = Vec::with_capacity(cfg.levels.len() + 1);
    let mut acc = 0usize;
    for &n in &cfg.levels {
        offsets.push(acc);
        acc += n;
    }
    offsets.push(acc);

    let parent_of = |level: usize, i: usize| -> Option<ActorId> {
        if level + 1 >= cfg.levels.len() {
            None
        } else {
            let idx = i * cfg.levels[level + 1] / cfg.levels[level];
            Some(ActorId(offsets[level + 1] + idx))
        }
    };

    let mut nodes = Vec::with_capacity(acc);
    for (level, &count) in cfg.levels.iter().enumerate() {
        for i in 0..count {
            let stage = level + 1;
            let children: Vec<ActorId> = if level == 0 {
                Vec::new()
            } else {
                (0..cfg.levels[level - 1])
                    .filter(|&c| parent_of(level - 1, c) == Some(ActorId(offsets[level] + i)))
                    .map(|c| ActorId(offsets[level - 1] + c))
                    .collect()
            };
            let parent = parent_of(level, i);
            let broker = Broker::new(BrokerSetup {
                label: format!("N{stage}.{}", i + 1),
                stage,
                parent,
                children: children.clone(),
                registry: Arc::clone(registry),
                placement: cfg.placement,
                aggregation_enabled: cfg.aggregation_enabled,
                wildcard_stage_placement: cfg.wildcard_stage_placement,
                leases_enabled: cfg.leases_enabled,
                ttl: cfg.ttl,
                seed: cfg.seed ^ (offsets[level] + i) as u64,
                trace: trace.cloned(),
            });
            nodes.push(TopologyNode {
                id: ActorId(offsets[level] + i),
                stage,
                parent,
                children,
                broker,
            });
        }
    }
    Ok(nodes)
}

/// Standardizes a disjunctive subscription's branch filters and assigns
/// them consecutive [`FilterId`]s starting at `first_id`.
///
/// # Errors
///
/// * [`FilterError::MissingClass`] if `filters` is empty or a branch has
///   no class constraint.
/// * [`FilterError::UnknownClass`] if a branch's class is unregistered.
/// * Standardization errors for unknown attributes or kind mismatches.
pub fn standardize_branches(
    registry: &TypeRegistry,
    filters: Vec<Filter>,
    first_id: u64,
) -> Result<Vec<(FilterId, Filter)>, FilterError> {
    if filters.is_empty() {
        return Err(FilterError::MissingClass);
    }
    let mut branches = Vec::with_capacity(filters.len());
    for (i, filter) in filters.into_iter().enumerate() {
        let class_id = filter.class().ok_or(FilterError::MissingClass)?;
        let class = registry.class(class_id).ok_or(FilterError::UnknownClass)?;
        let standardized = standardize(&filter, class)?;
        branches.push((FilterId(first_id + i as u64), standardized));
    }
    Ok(branches)
}

/// Builds a subscriber runtime wired to `root`, configured consistently
/// with the brokers built from the same `cfg`.
// One parameter per SubscriberSetup knob that isn't derived from `cfg`;
// bundling them into a second struct would just mirror SubscriberSetup.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn build_subscriber(
    cfg: &OverlayConfig,
    registry: &Arc<TypeRegistry>,
    root: ActorId,
    label: String,
    branches: Vec<(FilterId, Filter)>,
    residual: Option<Box<dyn ResidualFilter>>,
    trace: Option<&Arc<TraceSink>>,
    durable: bool,
) -> SubscriberNode {
    SubscriberNode::new(SubscriberSetup {
        label,
        branches,
        residual,
        registry: Arc::clone(registry),
        root,
        leases_enabled: cfg.leases_enabled,
        ttl: cfg.ttl,
        trace: trace.cloned(),
        durable,
    })
}
