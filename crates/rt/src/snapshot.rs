//! The shape of [`crate::Runtime::snapshot`]: the runtime's telemetry
//! registry, holding the [`crate::RtStats`] metrics and the stage
//! profiler's histograms, read as one
//! [`layercake_metrics::TelemetrySnapshot`].

#[cfg(test)]
mod tests {
    use layercake_metrics::{PipelineStage, StageProfiler, TelemetrySnapshot};

    use crate::RtStats;

    /// A registry wired the way `Runtime::new` wires it: runtime stats
    /// plus a stage profiler registered on the same registry.
    fn sample() -> TelemetrySnapshot {
        let stats = RtStats::new();
        let profiler = StageProfiler::new(stats.registry(), 1);
        for _ in 0..10 {
            stats.inc_published();
        }
        for _ in 0..8 {
            stats.inc_delivered();
        }
        stats.note_frame_sent(4096);
        stats.record_latency_ns(1500);
        stats.record_latency_ns(9000);
        stats.filter_table_entries_gauge().set(6);
        profiler.record(PipelineStage::Decode, 300);
        stats.registry().snapshot()
    }

    #[test]
    fn serde_round_trip_is_stable() {
        let snap = sample();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
        assert!(json.contains("\"rt.published\""));
        assert!(json.contains("stage.decode_ns"));
        assert_eq!(back.counter("rt.published"), Some(10));
        assert_eq!(back.histogram("rt.latency_ns").unwrap().count(), 2);
    }

    #[test]
    fn stage_lookup_by_name() {
        let snap = sample();
        assert_eq!(snap.histogram("stage.decode_ns").unwrap().count(), 1);
        assert!(
            snap.histogram("stage.egress_send_ns").unwrap().is_empty(),
            "every stage is registered, sampled or not"
        );
        assert!(snap.histogram("stage.no_such_stage_ns").is_none());
        assert_eq!(snap.counter("rt.delivered"), Some(8));
        assert_eq!(snap.gauge("rt.filter_table_entries"), Some(6));
    }
}
