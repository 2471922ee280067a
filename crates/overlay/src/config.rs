//! Overlay construction parameters.

use layercake_filter::IndexKind;
use layercake_sim::SimDuration;

use crate::error::OverlayError;
use crate::wal::LogConfig;

/// How a broker picks a child for a subscription it cannot place by
/// covering-filter search (Figure 5(b), step 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Paper's scheme (Section 4.2): search for the strongest covering
    /// filter stage by stage, grouping similar subscriptions on the same
    /// path; fall back to a random child.
    #[default]
    Similarity,
    /// Baseline modeling locality-driven attachment: always descend to a
    /// random child, never group by similarity.
    Random,
}

/// Configuration for [`crate::OverlaySim`].
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayConfig {
    /// Broker counts per stage, from stage 1 upward; the last entry must
    /// be 1 (the root). The paper's Section 5 hierarchy is
    /// `[100, 10, 1]`: 100 stage-1 nodes, 10 stage-2 nodes, 1 stage-3 root.
    /// Subscribers form stage 0.
    pub levels: Vec<usize>,
    /// Subscription placement policy.
    pub placement: PlacementPolicy,
    /// The matching strategy, of which there is one; nothing reads this
    /// field. It survives only because `benchmark/src/sut.rs` passes
    /// `OverlayConfig::default().index` to `FilterTable::new` and
    /// `AggTable::new`, and goes with [`IndexKind`] once the benchmark stops.
    pub index: IndexKind,
    /// Subscription aggregation (`layercake_filter::AggTable`), the paper's
    /// Example 5 fold ("we can now ignore filter f1 … and keep only filter
    /// g1"): broker tables keep a refcounted cover forest where filters
    /// subsumed by an existing cover become bookkeeping children of one
    /// shared live entry, maintained incrementally under churn and lease
    /// expiry, and re-promoted when their cover leaves. Match cost and
    /// upstream announcements scale with the number of cover *roots*
    /// instead of subscriptions; end-to-end delivery stays exact thanks to
    /// subscriber-side perfect filtering.
    pub aggregation_enabled: bool,
    /// Whether stage-aware wildcard placement (Section 4.4/4.5) is enabled.
    /// When disabled, wildcard subscriptions descend to stage-1 nodes like
    /// any other — the naive attachment the paper warns about.
    pub wildcard_stage_placement: bool,
    /// Subscription time-to-live. Filters not renewed within
    /// 3 × TTL are removed (Section 4.3). It is also the period of a
    /// durable subscriber's ack flush and gap-repair retries, which run
    /// with leases off too, so it must be non-zero either way.
    pub ttl: SimDuration,
    /// Whether the lease machinery runs (renewal timers and expiry sweeps).
    /// Large batch evaluations disable it to keep timer traffic out of the
    /// message counts.
    pub leases_enabled: bool,
    /// Whether brokers keep a durable segmented event log: events matched
    /// for *durable* subscriptions are appended to a per-broker
    /// write-ahead log (CRC-framed records, batched fsync, segment
    /// rotation) and replayed to resuming subscribers from their last
    /// acknowledged per-class offset — including across a broker crash,
    /// where the in-memory retransmission ring and parked buffers lose
    /// all history.
    pub durability_enabled: bool,
    /// Size bound, in bytes, at which a durable-log segment is sealed and
    /// a new one started. Smaller segments compact sooner but rotate (and
    /// fsync) more often.
    pub wal_segment_bytes: usize,
    /// fsync batching interval of the durable log, in records: the log
    /// syncs after every `wal_flush_every` appends. `1` makes every
    /// append durable immediately; larger values amortize the fsync at
    /// the price of a longer unsynced tail lost on a crash (replay plus
    /// `(class, seq)` dedup keeps delivery exact either way).
    pub wal_flush_every: usize,
    /// Seed for the brokers' random child selection.
    pub seed: u64,
    /// Per-event trace sampling period: every `N`-th published event
    /// carries a trace context and has its hops recorded (`1` = trace
    /// everything). `0` — the default — disables tracing entirely: no
    /// sink is created and published envelopes carry no context, so the
    /// forwarding hot path does no per-event tracing work at all.
    pub trace_sample_every: u64,
}

impl Default for OverlayConfig {
    /// The paper's Section 5 topology with similarity placement,
    /// stage-aware wildcard handling, and leases off.
    fn default() -> Self {
        Self {
            levels: vec![100, 10, 1],
            placement: PlacementPolicy::Similarity,
            index: IndexKind::Compiled,
            aggregation_enabled: false,
            wildcard_stage_placement: true,
            ttl: SimDuration::from_ticks(100_000),
            leases_enabled: false,
            durability_enabled: false,
            wal_segment_bytes: 64 * 1024,
            wal_flush_every: 8,
            seed: 0xCAFE,
            trace_sample_every: 0,
        }
    }
}

impl OverlayConfig {
    /// Number of broker stages (stage numbers 1..=stages).
    #[must_use]
    pub fn stages(&self) -> usize {
        self.levels.len()
    }

    /// The durable log's parameters, as every driver hands them to
    /// [`crate::Broker::enable_durability`].
    #[must_use]
    pub fn log_config(&self) -> LogConfig {
        LogConfig {
            segment_bytes: self.wal_segment_bytes,
            flush_every: self.wal_flush_every,
        }
    }

    /// Validates the topology (non-empty, exactly one root, level sizes
    /// non-growing upward), the `ttl` and the durable log's knobs.
    ///
    /// # Errors
    ///
    /// Returns the first [`OverlayError`] found; its `Display` form names
    /// the knob to change.
    pub fn validate(&self) -> Result<(), OverlayError> {
        if self.levels.is_empty() {
            return Err(OverlayError::EmptyTopology);
        }
        let top = *self.levels.last().unwrap();
        if top != 1 {
            return Err(OverlayError::MultipleRoots { top_level: top });
        }
        if let Some(stage) = self.levels.iter().position(|&n| n == 0) {
            return Err(OverlayError::EmptyLevel { stage: stage + 1 });
        }
        for w in self.levels.windows(2) {
            if w[0] < w[1] {
                return Err(OverlayError::GrowingLevels {
                    below: w[0],
                    above: w[1],
                });
            }
        }
        if self.ttl == SimDuration::ZERO {
            return Err(OverlayError::ZeroTtl);
        }
        if self.durability_enabled {
            if self.wal_segment_bytes == 0 {
                return Err(OverlayError::ZeroSegmentBytes);
            }
            if self.wal_flush_every == 0 {
                return Err(OverlayError::ZeroFlushEvery);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_topology() {
        let cfg = OverlayConfig::default();
        assert_eq!(cfg.levels, vec![100, 10, 1]);
        assert_eq!(cfg.stages(), 3);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.placement, PlacementPolicy::Similarity);
    }

    #[test]
    fn validation_rejects_bad_topologies() {
        let with_levels = |levels: Vec<usize>| OverlayConfig {
            levels,
            ..OverlayConfig::default()
        };
        assert!(with_levels(vec![]).validate().is_err());
        assert!(with_levels(vec![10, 2]).validate().is_err());
        assert!(with_levels(vec![2, 10, 1]).validate().is_err());
        assert!(with_levels(vec![10, 0, 1]).validate().is_err());
        assert!(with_levels(vec![1]).validate().is_ok());
    }

    #[test]
    fn validation_reports_typed_topology_errors() {
        use crate::error::OverlayError;
        let bad = OverlayConfig {
            levels: vec![10, 3],
            ..OverlayConfig::default()
        };
        assert_eq!(
            bad.validate(),
            Err(OverlayError::MultipleRoots { top_level: 3 })
        );
        let growing = OverlayConfig {
            levels: vec![2, 10, 1],
            ..OverlayConfig::default()
        };
        assert_eq!(
            growing.validate(),
            Err(OverlayError::GrowingLevels {
                below: 2,
                above: 10
            })
        );
    }

    #[test]
    fn validation_rejects_inconsistent_durability_knobs() {
        use crate::error::OverlayError;
        let base = OverlayConfig {
            durability_enabled: true,
            ..OverlayConfig::default()
        };
        assert!(base.validate().is_ok());

        let zero_segment = OverlayConfig {
            wal_segment_bytes: 0,
            ..base.clone()
        };
        assert_eq!(zero_segment.validate(), Err(OverlayError::ZeroSegmentBytes));

        let zero_flush = OverlayConfig {
            wal_flush_every: 0,
            ..base.clone()
        };
        assert_eq!(zero_flush.validate(), Err(OverlayError::ZeroFlushEvery));

        // The same zero knobs are ignored while durability is off.
        let durability_off = OverlayConfig {
            durability_enabled: false,
            wal_segment_bytes: 0,
            wal_flush_every: 0,
            ..OverlayConfig::default()
        };
        assert!(durability_off.validate().is_ok());
    }
}
