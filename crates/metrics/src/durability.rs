//! Durable-log counters for a run.

use serde::{Deserialize, Serialize};

/// Counters accumulated by per-broker durable event logs: append and
/// fsync activity, segment lifecycle, and the recovery work (replay,
/// torn-tail truncation) done on behalf of durable subscriptions.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DurabilityStats {
    /// Records appended to durable logs.
    pub records_appended: u64,
    /// Bytes made durable by fsync batches (record framing included).
    pub bytes_fsynced: u64,
    /// fsync batches issued (one batch covers `flush_every` appends).
    pub fsync_batches: u64,
    /// Segments sealed and rotated out of the append position.
    pub segments_rotated: u64,
    /// Sealed segments deleted because every durable consumer had
    /// acknowledged past them (or their consumers' leases expired).
    pub segments_compacted: u64,
    /// Records re-delivered from the log to resuming durable consumers.
    pub records_replayed: u64,
    /// Torn or garbage tails truncated while opening a log.
    pub torn_truncations: u64,
    /// Catch-up reads served (`replay_window` / `replay_after` calls).
    pub catch_up_calls: u64,
    /// Segment bytes read back by catch-up (cold-open scans excluded).
    /// Against the bytes of the records returned, this is the read
    /// amplification of paging a consumer out of the log.
    pub log_bytes_read: u64,
    /// Records decoded by catch-up. Equals the records returned when the
    /// log reads by position; a whole-segment scan decodes many more.
    pub records_decoded: u64,
    /// `Durable` frames brokers handed to their transport: first
    /// deliveries and replays alike.
    pub durable_sent: u64,
    /// Records a durable stream passed over because the consumer's
    /// filters did not match them: logged for another consumer of the
    /// class, never owed to this one.
    pub durable_skipped: u64,
}

impl DurabilityStats {
    /// True when no durable-log activity was recorded.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        *self == Self::default()
    }

    /// Merges another node's counters into this aggregate (all counters
    /// are sums).
    pub fn absorb(&mut self, other: &DurabilityStats) {
        self.records_appended += other.records_appended;
        self.bytes_fsynced += other.bytes_fsynced;
        self.fsync_batches += other.fsync_batches;
        self.segments_rotated += other.segments_rotated;
        self.segments_compacted += other.segments_compacted;
        self.records_replayed += other.records_replayed;
        self.torn_truncations += other.torn_truncations;
        self.catch_up_calls += other.catch_up_calls;
        self.log_bytes_read += other.log_bytes_read;
        self.records_decoded += other.records_decoded;
        self.durable_sent += other.durable_sent;
        self.durable_skipped += other.durable_skipped;
    }

    /// Renders the counters as aligned `key = value` lines for experiment
    /// reports.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "records_appended   = {}\n\
             bytes_fsynced      = {}\n\
             fsync_batches      = {}\n\
             segments_rotated   = {}\n\
             segments_compacted = {}\n\
             records_replayed   = {}\n\
             torn_truncations   = {}\n\
             catch_up_calls     = {}\n\
             log_bytes_read     = {}\n\
             records_decoded    = {}\n\
             durable_sent       = {}\n\
             durable_skipped    = {}\n",
            self.records_appended,
            self.bytes_fsynced,
            self.fsync_batches,
            self.segments_rotated,
            self.segments_compacted,
            self.records_replayed,
            self.torn_truncations,
            self.catch_up_calls,
            self.log_bytes_read,
            self.records_decoded,
            self.durable_sent,
            self.durable_skipped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_quiet() {
        assert!(DurabilityStats::default().is_quiet());
        let stats = DurabilityStats {
            records_appended: 1,
            ..DurabilityStats::default()
        };
        assert!(!stats.is_quiet());
    }

    #[test]
    fn absorb_sums_every_counter() {
        let mut a = DurabilityStats {
            records_appended: 1,
            bytes_fsynced: 10,
            fsync_batches: 2,
            segments_rotated: 1,
            segments_compacted: 0,
            records_replayed: 3,
            torn_truncations: 1,
            catch_up_calls: 2,
            log_bytes_read: 100,
            records_decoded: 5,
            durable_sent: 6,
            durable_skipped: 1,
        };
        let b = DurabilityStats {
            records_appended: 4,
            bytes_fsynced: 40,
            fsync_batches: 1,
            segments_rotated: 2,
            segments_compacted: 2,
            records_replayed: 0,
            torn_truncations: 0,
            catch_up_calls: 1,
            log_bytes_read: 20,
            records_decoded: 4,
            durable_sent: 3,
            durable_skipped: 7,
        };
        a.absorb(&b);
        assert_eq!(a.records_appended, 5);
        assert_eq!(a.bytes_fsynced, 50);
        assert_eq!(a.fsync_batches, 3);
        assert_eq!(a.segments_rotated, 3);
        assert_eq!(a.segments_compacted, 2);
        assert_eq!(a.records_replayed, 3);
        assert_eq!(a.torn_truncations, 1);
        assert_eq!(a.catch_up_calls, 3);
        assert_eq!(a.log_bytes_read, 120);
        assert_eq!(a.records_decoded, 9);
        assert_eq!(a.durable_sent, 9);
        assert_eq!(a.durable_skipped, 8);
    }

    #[test]
    fn render_lists_every_counter() {
        let stats = DurabilityStats {
            records_appended: 7,
            bytes_fsynced: 512,
            fsync_batches: 3,
            segments_rotated: 2,
            segments_compacted: 1,
            records_replayed: 9,
            torn_truncations: 1,
            catch_up_calls: 4,
            log_bytes_read: 640,
            records_decoded: 9,
            durable_sent: 11,
            durable_skipped: 30,
        };
        let text = stats.render();
        assert!(text.contains("records_appended   = 7"));
        assert!(text.contains("bytes_fsynced      = 512"));
        assert!(text.contains("torn_truncations   = 1"));
        assert!(text.contains("log_bytes_read     = 640"));
        assert!(text.contains("durable_sent       = 11"));
        assert!(text.contains("durable_skipped    = 30"));
    }

    #[test]
    fn round_trips_through_json() {
        let stats = DurabilityStats {
            records_appended: 2,
            records_replayed: 5,
            ..DurabilityStats::default()
        };
        let bytes = serde_json::to_vec(&stats).unwrap();
        let back: DurabilityStats = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(stats, back);
    }
}
