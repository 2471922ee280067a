//! Per-hop trace records and per-event delivery provenance.

use layercake_event::TraceId;
use layercake_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Sentinel `from_id` for the external publisher injecting an event into
/// the overlay (there is no simulated actor on the sending side).
pub const EXTERNAL_SOURCE: u64 = u64::MAX;

/// What a node decided about a traced arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HopVerdict {
    /// A broker's covering-filter table matched: the event was forwarded
    /// to this many next hops (children and/or subscriber runtimes).
    Forwarded {
        /// Number of destinations the event was forwarded to.
        dests: u32,
    },
    /// No covering filter matched at a broker — traffic stops here.
    NoMatch,
    /// The subscriber runtime's original filter matched and the event was
    /// delivered to the application.
    Delivered,
    /// The original (stage-0) declarative filter rejected an event that
    /// some upstream covering filter had admitted — a weakening false
    /// positive.
    RejectedByOriginal,
    /// The declarative filter matched but the subscriber's opaque residual
    /// predicate (closure over the decoded event object) rejected it.
    RejectedByResidual,
    /// The original filter matched but the event had already been
    /// delivered (duplicate suppressed by exactly-once bookkeeping).
    Duplicate,
    /// Flow control queued this copy in a bounded egress queue to wait
    /// for downstream credit — delayed, not dropped.
    Throttled {
        /// Egress-queue depth at enqueue time (this event included).
        depth: u32,
    },
    /// Overload protection dropped this copy before it reached the
    /// downstream: the bounded egress queue was full, or the
    /// downstream's circuit breaker was open.
    Shed {
        /// Actor id of the downstream the copy was headed for.
        dest: u64,
        /// `true` when an open circuit breaker fast-failed the copy,
        /// `false` for a queue-overflow shed.
        breaker: bool,
    },
}

impl HopVerdict {
    /// `true` when the node's filters admitted the event (it was forwarded
    /// onward, delivered, or would have been delivered were it not a
    /// duplicate).
    #[must_use]
    pub fn admitted(&self) -> bool {
        matches!(
            self,
            HopVerdict::Forwarded { .. } | HopVerdict::Delivered | HopVerdict::Duplicate
        )
    }

    /// `true` for the stage-0 outcomes where the subscriber runtime
    /// rejected an event its host broker had forwarded.
    #[must_use]
    pub fn rejected_at_stage0(&self) -> bool {
        matches!(
            self,
            HopVerdict::RejectedByOriginal | HopVerdict::RejectedByResidual
        )
    }

    /// `true` for flow-control observations ([`HopVerdict::Throttled`],
    /// [`HopVerdict::Shed`]): these describe what happened to an *outgoing*
    /// copy at a node the event had already arrived at, so they are not
    /// arrivals and are excluded from hop-latency and weakening
    /// aggregation.
    #[must_use]
    pub fn is_flow_event(&self) -> bool {
        matches!(self, HopVerdict::Throttled { .. } | HopVerdict::Shed { .. })
    }

    /// Human-readable one-line description used by `explain()` reports.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            HopVerdict::Forwarded { dests } => {
                format!("covering filter matched -> forwarded to {dests} destination(s)")
            }
            HopVerdict::NoMatch => String::from("no covering filter matched -> traffic stops"),
            HopVerdict::Delivered => String::from("original subscription matched -> DELIVERED"),
            HopVerdict::RejectedByOriginal => {
                String::from("REJECTED by the original subscription (covering false positive)")
            }
            HopVerdict::RejectedByResidual => {
                String::from("rejected by the subscriber's residual predicate")
            }
            HopVerdict::Duplicate => String::from("duplicate of an already-delivered event"),
            HopVerdict::Throttled { depth } => {
                format!("throttled by backpressure -> queued for credit (egress depth {depth})")
            }
            HopVerdict::Shed {
                dest,
                breaker: false,
            } => {
                format!("SHED under overload toward actor#{dest} (egress queue full)")
            }
            HopVerdict::Shed {
                dest,
                breaker: true,
            } => {
                format!("SHED by an open circuit breaker toward actor#{dest}")
            }
        }
    }
}

/// One node's observation of a traced event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopRecord {
    /// Human-readable node label (`"N2.1"`, `"sub-0005"`).
    pub node: String,
    /// The node's actor id, linking hops into a forwarding tree.
    pub node_id: u64,
    /// Actor id of the hop that sent this copy ([`EXTERNAL_SOURCE`] for
    /// the publish edge into the root).
    pub from_id: u64,
    /// The node's stage (0 = subscriber runtime).
    pub stage: usize,
    /// Matcher-shard provenance: which replica of the node observed the
    /// event. Always 0 in the simulator (one replica per broker); the
    /// sharded wall-clock runtime records the matcher shard that matched
    /// the event's class.
    pub shard: u32,
    /// Virtual time at which the event arrived at this node (wall-clock
    /// nanoseconds since runtime start under the real-thread runtime).
    pub arrival: SimTime,
    /// Ticks since the previous hop forwarded this copy (includes link
    /// latency, fault-injection jitter, and any retransmission delay).
    pub hop_latency: u64,
    /// The node's filtering decision.
    pub verdict: HopVerdict,
}

/// The full record of one sampled event: identity, publish time, and every
/// hop it made through the overlay (in global virtual-time order).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventTrace {
    /// The trace id carried by the envelope.
    pub id: TraceId,
    /// Event class name.
    pub class: String,
    /// Publisher-assigned sequence number.
    pub seq: u64,
    /// Virtual time of publication.
    pub published_at: SimTime,
    /// Hop records, appended in processing order. Because the simulator
    /// processes messages in global virtual-time order, a hop's upstream
    /// hop always precedes it in this list.
    pub hops: Vec<HopRecord>,
}

impl EventTrace {
    /// `true` if any subscriber delivered the event.
    #[must_use]
    pub fn delivered(&self) -> bool {
        self.hops.iter().any(|h| h.verdict == HopVerdict::Delivered)
    }

    /// End-to-end publish→deliver latency in ticks for the *first*
    /// delivery, if any.
    #[must_use]
    pub fn e2e_latency(&self) -> Option<u64> {
        self.hops
            .iter()
            .find(|h| h.verdict == HopVerdict::Delivered)
            .map(|h| h.arrival.since(self.published_at).ticks())
    }

    /// The first *arrival* hop recorded at a node label, if the event
    /// reached it. Flow-control observations (throttle/shed records for
    /// outgoing copies) at the same node are skipped; see
    /// [`EventTrace::flow_events_at`].
    #[must_use]
    pub fn hop_at(&self, label: &str) -> Option<&HopRecord> {
        self.hops
            .iter()
            .find(|h| h.node == label && !h.verdict.is_flow_event())
    }

    /// All flow-control observations (throttles and sheds of outgoing
    /// copies) recorded at a node label.
    #[must_use]
    pub fn flow_events_at(&self, label: &str) -> Vec<&HopRecord> {
        self.hops
            .iter()
            .filter(|h| h.node == label && h.verdict.is_flow_event())
            .collect()
    }

    /// `true` if overload protection dropped at least one copy of this
    /// event somewhere in the overlay.
    #[must_use]
    pub fn shed(&self) -> bool {
        self.hops
            .iter()
            .any(|h| matches!(h.verdict, HopVerdict::Shed { .. }))
    }

    /// `true` if any `Delivered` hop lies strictly downstream of `hop` in
    /// the forwarding tree (following `from_id -> node_id` edges).
    #[must_use]
    pub fn delivery_beneath(&self, hop: &HopRecord) -> bool {
        let mut reachable = vec![hop.node_id];
        // Fixpoint over the hop list; hop counts per trace are tiny.
        loop {
            let mut grew = false;
            for h in &self.hops {
                if reachable.contains(&h.from_id) && !reachable.contains(&h.node_id) {
                    if h.verdict == HopVerdict::Delivered {
                        return true;
                    }
                    reachable.push(h.node_id);
                    grew = true;
                }
            }
            if !grew {
                return false;
            }
        }
    }

    /// Broker hops (stage ≥ 1) whose covering filter admitted the event
    /// although no delivery ever happened downstream — pure weakening
    /// false-positive traffic (Proposition 1's cost).
    #[must_use]
    pub fn false_positive_hops(&self) -> Vec<&HopRecord> {
        self.hops
            .iter()
            .filter(|h| h.stage >= 1 && h.verdict.admitted() && !self.delivery_beneath(h))
            .collect()
    }

    /// Renders a "why did this event (not) reach subscriber Y" report.
    ///
    /// `path` is the node-label chain from the root broker down to the
    /// subscriber of interest (e.g. `["N3.1", "N2.1", "N1.2", "sub-0005"]`);
    /// the overlay facade knows the topology and builds it.
    #[must_use]
    pub fn explain(&self, path: &[String]) -> String {
        let mut out = format!(
            "{}: {} event seq={} published at {}\n",
            self.id, self.class, self.seq, self.published_at
        );
        if let Some(target) = path.last() {
            out.push_str(&format!("path to {}: {}\n", target, path.join(" -> ")));
        }
        let mut deepest: Option<&HopRecord> = None;
        let mut reached_target = false;
        for (i, label) in path.iter().enumerate() {
            match self.hop_at(label) {
                Some(hop) => {
                    out.push_str(&format!(
                        "  {} (+{}) {} [stage {}] {}\n",
                        hop.arrival,
                        hop.hop_latency,
                        hop.node,
                        hop.stage,
                        hop.verdict.describe()
                    ));
                    for flow in self.flow_events_at(label) {
                        out.push_str(&format!(
                            "  {} (+0) {} [stage {}] {}\n",
                            flow.arrival,
                            flow.node,
                            flow.stage,
                            flow.verdict.describe()
                        ));
                    }
                    reached_target = i + 1 == path.len();
                    deepest = Some(hop);
                }
                None => {
                    out.push_str(&format!("  {label}: event never arrived\n"));
                    break;
                }
            }
        }
        out.push_str(&self.path_verdict(path, deepest, reached_target));
        out
    }

    /// The closing "verdict:" paragraph of an [`EventTrace::explain`]
    /// report.
    fn path_verdict(
        &self,
        path: &[String],
        deepest: Option<&HopRecord>,
        reached_target: bool,
    ) -> String {
        let Some(hop) = deepest else {
            return String::from("verdict: the event never entered this path.\n");
        };
        if !reached_target {
            return match hop.verdict {
                HopVerdict::NoMatch => format!(
                    "verdict: correctly pre-filtered — no covering filter matched at {} \
                     (stage {}), so no traffic flowed below it.\n",
                    hop.node, hop.stage
                ),
                HopVerdict::Forwarded { .. }
                    if self
                        .flow_events_at(&hop.node)
                        .iter()
                        .any(|h| matches!(h.verdict, HopVerdict::Shed { .. })) =>
                {
                    format!(
                        "verdict: died under overload — {} (stage {}) matched and would \
                         have forwarded the event, but overload protection shed the copy \
                         before it left the broker.\n",
                        hop.node, hop.stage
                    )
                }
                HopVerdict::Forwarded { .. } => format!(
                    "verdict: pre-filtered toward this subscriber — {} (stage {}) forwarded \
                     the event elsewhere, but the covering filter routing toward the next \
                     node on this path did not match.\n",
                    hop.node, hop.stage
                ),
                _ => format!(
                    "verdict: the path ends at {} (stage {}): {}.\n",
                    hop.node,
                    hop.stage,
                    hop.verdict.describe()
                ),
            };
        }
        match hop.verdict {
            HopVerdict::Delivered => format!(
                "verdict: delivered end-to-end in {} ticks (publish -> deliver).\n",
                hop.arrival.since(self.published_at).ticks()
            ),
            HopVerdict::Duplicate => String::from(
                "verdict: duplicate — an earlier copy was already delivered \
                 (exactly-once suppression).\n",
            ),
            HopVerdict::RejectedByOriginal => {
                // The weakening stage responsible is the last broker on the
                // path that admitted the event: its covering filter is the
                // least-weakened one that still disagreed with stage 0.
                let culprit = path[..path.len().saturating_sub(1)]
                    .iter()
                    .rev()
                    .filter_map(|l| self.hop_at(l))
                    .find(|h| h.verdict.admitted());
                match culprit {
                    Some(c) => format!(
                        "verdict: false positive — the stage {} covering filter at {} \
                         admitted the event, but the original subscription at {} rejected \
                         it; the weakening applied at stage {} let it through.\n",
                        c.stage, c.node, hop.node, c.stage
                    ),
                    None => String::from(
                        "verdict: false positive — rejected by the original subscription.\n",
                    ),
                }
            }
            HopVerdict::RejectedByResidual => format!(
                "verdict: the declarative filters matched, but the opaque residual \
                 predicate at {} rejected the decoded event object (invisible to \
                 brokers by design).\n",
                hop.node
            ),
            _ => format!(
                "verdict: the path ends at {} (stage {}): {}.\n",
                hop.node,
                hop.stage,
                hop.verdict.describe()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(
        node: &str,
        node_id: u64,
        from_id: u64,
        stage: usize,
        arrival: u64,
        verdict: HopVerdict,
    ) -> HopRecord {
        HopRecord {
            node: node.to_owned(),
            node_id,
            from_id,
            stage,
            shard: 0,
            arrival: SimTime::from_ticks(arrival),
            hop_latency: 1,
            verdict,
        }
    }

    fn sample_trace() -> EventTrace {
        // root(10) -> mid(11) -> leaf(12) -> sub(13): delivered.
        //          \-> mid2(14): forwarded to leaf2(15) which rejects at
        //              stage 0's original filter -> mid2+leaf2 are FPs.
        EventTrace {
            id: TraceId(1),
            class: "Biblio".to_owned(),
            seq: 7,
            published_at: SimTime::from_ticks(3),
            hops: vec![
                hop(
                    "N3.1",
                    10,
                    EXTERNAL_SOURCE,
                    3,
                    4,
                    HopVerdict::Forwarded { dests: 2 },
                ),
                hop("N2.1", 11, 10, 2, 5, HopVerdict::Forwarded { dests: 1 }),
                hop("N2.2", 14, 10, 2, 5, HopVerdict::Forwarded { dests: 1 }),
                hop("N1.1", 12, 11, 1, 6, HopVerdict::Forwarded { dests: 1 }),
                hop("sub-a", 13, 12, 0, 7, HopVerdict::Delivered),
                hop("sub-b", 15, 14, 0, 6, HopVerdict::RejectedByOriginal),
            ],
        }
    }

    #[test]
    fn delivery_and_latency() {
        let t = sample_trace();
        assert!(t.delivered());
        assert_eq!(t.e2e_latency(), Some(4));
        assert!(t.hop_at("N2.1").is_some());
        assert!(t.hop_at("nope").is_none());
    }

    #[test]
    fn false_positives_are_subtrees_without_delivery() {
        let t = sample_trace();
        let fps: Vec<&str> = t
            .false_positive_hops()
            .iter()
            .map(|h| h.node.as_str())
            .collect();
        // N2.2 forwarded toward sub-b which rejected: a weakening FP.
        // N3.1/N2.1/N1.1 have a delivery beneath them, so they are not.
        assert_eq!(fps, vec!["N2.2"]);
    }

    #[test]
    fn explain_delivered_path() {
        let t = sample_trace();
        let path: Vec<String> = ["N3.1", "N2.1", "N1.1", "sub-a"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let report = t.explain(&path);
        assert!(report.contains("trace#1"));
        assert!(report.contains("delivered end-to-end in 4 ticks"));
        assert!(report.contains("[stage 3]"));
    }

    #[test]
    fn explain_attributes_false_positive_to_weakening_stage() {
        let t = sample_trace();
        let path: Vec<String> = ["N3.1", "N2.2", "sub-b"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let report = t.explain(&path);
        assert!(report.contains("false positive"));
        assert!(report.contains("the weakening applied at stage 2 let it through"));
        assert!(report.contains("sub-b"));
    }

    #[test]
    fn explain_never_arrived() {
        let t = sample_trace();
        let path: Vec<String> = ["N3.1", "N2.1", "N1.9", "sub-z"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let report = t.explain(&path);
        assert!(report.contains("N1.9: event never arrived"));
        assert!(report.contains("pre-filtered toward this subscriber"));
    }

    /// root forwards, but the copy toward N2.3 is shed by the bounded
    /// egress queue; the subscriber below N2.3 never sees the event.
    fn shed_trace() -> EventTrace {
        EventTrace {
            id: TraceId(2),
            class: "Biblio".to_owned(),
            seq: 9,
            published_at: SimTime::from_ticks(10),
            hops: vec![
                hop(
                    "N3.1",
                    10,
                    EXTERNAL_SOURCE,
                    3,
                    11,
                    HopVerdict::Forwarded { dests: 2 },
                ),
                hop(
                    "N3.1",
                    10,
                    EXTERNAL_SOURCE,
                    3,
                    11,
                    HopVerdict::Shed {
                        dest: 16,
                        breaker: false,
                    },
                ),
                hop("N2.1", 11, 10, 2, 12, HopVerdict::Forwarded { dests: 1 }),
            ],
        }
    }

    #[test]
    fn hop_at_skips_flow_events_and_flow_events_are_listed() {
        let t = shed_trace();
        let arrival = t.hop_at("N3.1").unwrap();
        assert_eq!(arrival.verdict, HopVerdict::Forwarded { dests: 2 });
        let flow = t.flow_events_at("N3.1");
        assert_eq!(flow.len(), 1);
        assert!(matches!(flow[0].verdict, HopVerdict::Shed { dest: 16, .. }));
        assert!(t.shed());
        assert!(!sample_trace().shed());
    }

    #[test]
    fn explain_attributes_death_to_overload_shed() {
        let t = shed_trace();
        let path: Vec<String> = ["N3.1", "N2.3", "sub-c"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let report = t.explain(&path);
        assert!(report.contains("SHED under overload toward actor#16"));
        assert!(report.contains("N2.3: event never arrived"));
        assert!(report.contains("died under overload"));
        assert!(report.contains("shed the copy"));
    }

    #[test]
    fn throttled_describes_depth_and_is_flow_event() {
        let v = HopVerdict::Throttled { depth: 12 };
        assert!(v.is_flow_event());
        assert!(!v.admitted());
        assert!(v.describe().contains("egress depth 12"));
        let b = HopVerdict::Shed {
            dest: 3,
            breaker: true,
        };
        assert!(b.describe().contains("circuit breaker"));
    }

    #[test]
    fn serde_round_trip() {
        let t = sample_trace();
        let json = serde_json::to_string(&t).unwrap();
        let back: EventTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
