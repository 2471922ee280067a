//! The per-broker durable event log: segmented, CRC-framed, with
//! batched fsync, consumer offsets, a record position index, and
//! torn-tail recovery.

use std::collections::BTreeMap;

use layercake_event::{
    encode_record_into, read_record, write_varint, AttrValue, BinCodec, Bytes, ClassId, CodecError,
    DecodeDict, DictMode, EncodeDict, Envelope, EventData, EventSeq, TraceContext, TraceId,
    WireReader, RECORD_HEADER_LEN,
};
use layercake_filter::DestId;
use layercake_metrics::DurabilityStats;
use serde::{DeError, Deserialize, Serialize, Value};

use super::storage::LogStorage;

/// Sizing and flush-batching knobs for a [`DurableLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogConfig {
    /// Rotate the open segment once it holds at least this many bytes.
    pub segment_bytes: usize,
    /// Ask for an fsync after this many appended records (the flush
    /// interval). `1` syncs every append; larger values batch the fsync
    /// cost at the price of a longer unsynced tail lost on a crash.
    pub flush_every: usize,
}

impl Default for LogConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 64 * 1024,
            flush_every: 8,
        }
    }
}

/// First payload byte of a record in the retired first binary format,
/// which stays readable ([`decode_v1`]).
const RECORD_V1: u8 = 1;
/// First payload byte of every record written now.
const RECORD_V2: u8 = 2;

/// Writes one record payload: the version byte, the per-class durable
/// offset (1-based, monotone per class), then the envelope with its shape
/// spelled out ([`DictMode::Inline`]) — which names the class — so the
/// record decodes from any position with no other record's help.
fn encode_payload(out: &mut Vec<u8>, off: u64, env: &Envelope) {
    out.push(RECORD_V2);
    write_varint(out, off);
    env.encode_bin(out, &mut EncodeDict::new(DictMode::Inline));
}

/// One record as it lives in the log: the event plus its class's offset.
struct LogRecord {
    class: ClassId,
    off: u64,
    env: Envelope,
}

/// Reads a record payload of any format the log ever wrote, by its first
/// byte: the current binary one, the first binary one, or the JSON object
/// before that (`{`) — so an existing log directory opens intact.
fn decode_payload(payload: &[u8]) -> Result<LogRecord, CodecError> {
    match payload.first() {
        Some(&RECORD_V2) => {
            let mut r = WireReader::new(&payload[1..]);
            let off = r.varint()?;
            let env = Envelope::decode_bin(&mut r, &DecodeDict::new(DictMode::Inline))?;
            r.expect_end()?;
            Ok(LogRecord {
                class: env.class(),
                off,
                env,
            })
        }
        Some(&RECORD_V1) => decode_v1(&payload[1..]),
        Some(b'{') => {
            serde_json::from_slice(payload).map_err(|_| CodecError::Invalid("JSON log record"))
        }
        Some(&other) => Err(CodecError::Tag(other)),
        None => Err(CodecError::Truncated),
    }
}

/// Reads the body of a first-format record, which nothing writes any
/// more: class, offset, then the envelope as format 1 laid it out — class
/// again, class name, sequence number, a count of `(name, tagged value)`
/// pairs, a length-prefixed payload, and a trace behind a 0/1 marker.
fn decode_v1(body: &[u8]) -> Result<LogRecord, CodecError> {
    let dict = DecodeDict::new(DictMode::Inline);
    let mut r = WireReader::new(body);
    let class = ClassId::decode_bin(&mut r, &dict)?;
    let off = r.varint()?;
    let env_class = ClassId::decode_bin(&mut r, &dict)?;
    let class_name = dict.read_attr(&mut r)?.name();
    let seq = EventSeq(r.varint()?);
    let n = r.count()?;
    let mut meta = EventData::with_capacity(n);
    for _ in 0..n {
        let attr = dict.read_attr(&mut r)?;
        meta.insert_id(attr, AttrValue::decode_bin(&mut r, &dict)?);
    }
    let payload = Bytes::from(r.len_bytes()?);
    let mut env = Envelope::from_parts(env_class, class_name, seq, meta, payload);
    match r.u8()? {
        0 => {}
        1 => env.set_trace(Some(TraceContext {
            id: TraceId(r.varint()?),
            published_at: r.varint()?,
            last_hop_at: r.varint()?,
        })),
        t => return Err(CodecError::Tag(t)),
    }
    r.expect_end()?;
    Ok(LogRecord { class, off, env })
}

impl Deserialize for LogRecord {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let class: u64 = serde::__field(v, "class")?;
        Ok(LogRecord {
            class: ClassId(class as u32),
            off: serde::__field(v, "off")?,
            env: serde::__field(v, "env")?,
        })
    }
}

/// Where one record lives in its segment: header included, so the range
/// is what a reader fetches and CRC-checks.
#[derive(Debug, Clone, Copy)]
struct RecPos {
    off: u64,
    pos: u64,
    len: u32,
}

/// In-memory index of one segment: byte size and, per class, the
/// position of every record in ascending offset order. The last entry of
/// a class is the highest offset the segment holds of it (what
/// compaction compares against consumer acks); a catch-up read binary-
/// searches the entries and fetches only the ranges it returns. Filled
/// by `append`, rebuilt by `rescan`, dropped with the segment.
#[derive(Debug, Default)]
struct SegMeta {
    id: u64,
    bytes: usize,
    classes: BTreeMap<u32, Vec<RecPos>>,
}

impl SegMeta {
    fn new(id: u64) -> Self {
        Self {
            id,
            ..Self::default()
        }
    }

    /// Indexes a record of `len` bytes appended at the segment's end.
    fn push(&mut self, class: u32, off: u64, len: usize) {
        self.classes.entry(class).or_default().push(RecPos {
            off,
            pos: self.bytes as u64,
            len: u32::try_from(len).expect("a record is under the frame cap"),
        });
        self.bytes += len;
    }
}

/// A per-broker append-only event log with CRC-framed records, segment
/// rotation, batched fsync, and a persisted consumer-offset table.
///
/// The log is the durable replacement for the in-memory retransmit ring
/// and the `parked` buffer: every event matched for a *durable*
/// subscriber is appended (once per event), and a consumer that comes
/// back — after a detach, or after the broker itself crashed and
/// restarted with nothing but this log — replays everything past its
/// last acknowledged per-class offset. Compaction deletes sealed
/// segments once every registered consumer has acknowledged past them;
/// lease expiry deregisters consumers, so the log never outlives the
/// subscriptions that need it.
#[derive(Debug)]
pub struct DurableLog {
    storage: Box<dyn LogStorage>,
    cfg: LogConfig,
    /// Segment index, ascending by id; the last entry is the open
    /// (append) segment.
    segs: Vec<SegMeta>,
    next_seg_id: u64,
    /// Last assigned offset per class (`0` = nothing logged yet).
    tail: BTreeMap<u32, u64>,
    /// Acknowledged offset per `(class, dest)` durable consumer — class
    /// first, so one class's consumers are one contiguous range.
    offsets: BTreeMap<(u32, u64), u64>,
    dirty_records: usize,
    dirty_bytes: u64,
    offsets_dirty: bool,
    stats: DurabilityStats,
    /// The record being appended, and the ranges a catch-up read
    /// fetched: reused, so neither path allocates per record.
    enc_buf: Vec<u8>,
    read_buf: Vec<u8>,
}

impl DurableLog {
    /// Opens (or creates) a log on `storage`, recovering from whatever a
    /// previous incarnation left: segments are scanned record by record
    /// and any torn or garbage tail is truncated to the last record with
    /// a valid CRC; the consumer-offset table is reloaded from the
    /// metadata blob.
    #[must_use]
    pub fn open(storage: Box<dyn LogStorage>, cfg: LogConfig) -> Self {
        let mut log = Self {
            storage,
            cfg,
            segs: Vec::new(),
            next_seg_id: 0,
            tail: BTreeMap::new(),
            offsets: BTreeMap::new(),
            dirty_records: 0,
            dirty_bytes: 0,
            offsets_dirty: false,
            stats: DurabilityStats::default(),
            enc_buf: Vec::new(),
            read_buf: Vec::new(),
        };
        log.rescan();
        log
    }

    /// Drops the storage's fsyncs, offset-table writes and deletes not yet
    /// run, as a process kill would ([`LogStorage::abandon`]). The log
    /// must not be used afterwards.
    pub fn abandon(&mut self) {
        self.storage.abandon();
    }

    /// Panics when one of this log's storage jobs failed after its call
    /// returned ([`LogStorage::failure`]): the same outcome as a failure
    /// inside the call, one turn later.
    pub fn check_storage(&self) {
        if let Some(e) = self.storage.failure() {
            panic!("durable log storage failed: {e}");
        }
    }

    /// The log's cumulative activity counters.
    #[must_use]
    pub fn stats(&self) -> &DurabilityStats {
        &self.stats
    }

    /// Number of live segments.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    /// Last assigned durable offset for a class (`0` when nothing of
    /// that class was ever logged).
    #[must_use]
    pub fn tail_off(&self, class: ClassId) -> u64 {
        self.tail.get(&class.0).copied().unwrap_or(0)
    }

    /// Appends one event, assigning and returning its per-class durable
    /// offset. Rotates the open segment when full and flushes every
    /// [`LogConfig::flush_every`] appends.
    pub fn append(&mut self, env: &Envelope) -> u64 {
        let class = env.class();
        let off = self.tail_off(class) + 1;
        self.tail.insert(class.0, off);
        self.enc_buf.clear();
        encode_record_into(&mut self.enc_buf, |out| encode_payload(out, off, env))
            .expect("log record fits the frame cap");
        let len = self.enc_buf.len();
        if self
            .segs
            .last()
            .is_some_and(|s| s.bytes > 0 && s.bytes + len > self.cfg.segment_bytes)
        {
            self.rotate();
        }
        if self.segs.is_empty() {
            self.segs.push(SegMeta::new(self.next_seg_id));
            self.next_seg_id += 1;
        }
        let seg = self.segs.last_mut().expect("open segment exists");
        self.storage.append(seg.id, &self.enc_buf);
        seg.push(class.0, off, len);
        self.stats.records_appended += 1;
        self.dirty_records += 1;
        self.dirty_bytes += len as u64;
        if self.dirty_records >= self.cfg.flush_every {
            self.flush();
        }
        off
    }

    /// Makes everything appended so far durable: fsyncs the open segment
    /// (one batch) and persists the consumer-offset table if it changed.
    /// Then compacts, since newly persisted acks may free segments. On
    /// storage that queues these steps ([`FileStorage`]) they are durable
    /// once [`super::drain`] returns.
    ///
    /// [`FileStorage`]: super::FileStorage
    pub fn flush(&mut self) {
        self.sync_dirty();
        if self.offsets_dirty {
            self.persist_offsets();
        }
        self.compact();
    }

    /// fsyncs any unsynced appended records (one batch). Always runs
    /// before the offset table is persisted: a persisted ack must never
    /// refer past the durable tail, or a crash in between would recover
    /// a tail below the ack and `replay_after` would skip the offsets
    /// new appends then reuse.
    fn sync_dirty(&mut self) {
        if self.dirty_records == 0 {
            return;
        }
        if let Some(seg) = self.segs.last() {
            self.storage.sync(seg.id);
        }
        self.stats.fsync_batches += 1;
        self.stats.bytes_fsynced += self.dirty_bytes;
        self.dirty_records = 0;
        self.dirty_bytes = 0;
    }

    /// Registers a durable consumer for a class. An unknown consumer
    /// starts at the current tail (durability covers events from
    /// subscription time onward); a known one — typically re-subscribing
    /// after a detach or a broker restart — keeps its persisted offset.
    /// Returns the offset the consumer has acknowledged, i.e. where
    /// replay should start *after*. The registration itself is persisted
    /// at once — on queued storage, durable when [`super::drain`]
    /// returns — so a crash cannot forget a durable consumer.
    pub fn register_consumer(&mut self, dest: DestId, class: ClassId) -> u64 {
        let tail = self.tail_off(class);
        let upto = *self.offsets.entry((class.0, dest.0)).or_insert(tail);
        // The new entry points at the in-memory tail (and the table may
        // carry other consumers' unflushed acks): sync appended records
        // first so the persisted table never outruns the durable tail.
        self.sync_dirty();
        self.persist_offsets();
        upto
    }

    /// Whether any durable consumer entry exists for this destination.
    #[must_use]
    pub fn is_consumer(&self, dest: DestId) -> bool {
        self.offsets.keys().any(|&(_, d)| d == dest.0)
    }

    /// Whether this destination holds a durable consumer entry for this
    /// specific class.
    #[must_use]
    pub fn is_class_consumer(&self, dest: DestId, class: ClassId) -> bool {
        self.offsets.contains_key(&(class.0, dest.0))
    }

    /// The durable consumers of `class` with the offset each has
    /// acknowledged, in ascending destination order: one range of the
    /// offset table, no allocation. Empty when events of the class need
    /// not be logged at all.
    pub fn consumers_of_class(&self, class: ClassId) -> impl Iterator<Item = (DestId, u64)> + '_ {
        self.offsets
            .range((class.0, 0)..=(class.0, u64::MAX))
            .map(|(&(_, dest), &upto)| (DestId(dest), upto))
    }

    /// The offset a consumer has acknowledged for a class (`0` when it
    /// has no entry).
    #[must_use]
    pub fn acked_upto(&self, dest: DestId, class: ClassId) -> u64 {
        self.offsets.get(&(class.0, dest.0)).copied().unwrap_or(0)
    }

    /// The classes a destination holds durable offsets for, ascending.
    #[must_use]
    pub fn consumer_classes(&self, dest: DestId) -> Vec<ClassId> {
        self.offsets
            .keys()
            .filter(|&&(_, d)| d == dest.0)
            .map(|&(c, _)| ClassId(c))
            .collect()
    }

    /// Every destination with at least one durable consumer entry,
    /// ascending.
    #[must_use]
    pub fn consumer_dests(&self) -> Vec<DestId> {
        let mut dests: Vec<DestId> = self.offsets.keys().map(|&(_, d)| DestId(d)).collect();
        dests.sort_unstable_by_key(|d| d.0);
        dests.dedup();
        dests
    }

    /// Records a consumer's acknowledgement: everything of `class` up to
    /// and including `upto` has been received. Acks for unregistered
    /// consumers are ignored (stale, or addressed to a shard that does
    /// not own the class), and an ack is clamped to the class tail — a
    /// consumer cannot have received what was never appended, so an
    /// over-tail ack is necessarily stale (e.g. from before a crash that
    /// lost the unsynced tail) and must not skip reused offsets.
    /// Persisted at the next flush — a crash in between replays a little
    /// extra, which the subscriber's `(class, seq)` dedup absorbs.
    pub fn ack(&mut self, dest: DestId, class: ClassId, upto: u64) {
        let upto = upto.min(self.tail_off(class));
        if let Some(entry) = self.offsets.get_mut(&(class.0, dest.0)) {
            if upto > *entry {
                *entry = upto;
                self.offsets_dirty = true;
            }
        }
    }

    /// Deregisters every durable consumer entry of a destination (lease
    /// expiry or explicit unsubscription), then compacts — with its last
    /// interested consumer gone, a segment's history is garbage.
    pub fn drop_consumer(&mut self, dest: DestId) {
        let before = self.offsets.len();
        self.offsets.retain(|&(_, d), _| d != dest.0);
        if self.offsets.len() != before {
            // The surviving entries may hold acks for records not yet
            // synced; keep the sync-before-persist invariant here too.
            self.sync_dirty();
            self.persist_offsets();
            self.compact();
        }
    }

    /// Replays every logged record of `class` with offset greater than
    /// `upto`, in append order. Everything returned counts as a replay
    /// in [`DurabilityStats`]: this entry point exists for recovery and
    /// gap repair, where the caller is by definition re-reading history.
    pub fn replay_after(&mut self, class: ClassId, upto: u64) -> Vec<(u64, Envelope)> {
        let out = self.replay_window(class, upto, usize::MAX);
        self.stats.records_replayed += out.len() as u64;
        out
    }

    /// Credits `n` re-read records to [`DurabilityStats::records_replayed`].
    /// [`DurableLog::replay_window`] cannot count its own output — the
    /// broker pages *first-time* deliveries through it too (window-full
    /// backlog), and only the caller knows where replayed history ends
    /// and fresh backlog begins.
    pub fn note_replayed(&mut self, n: u64) {
        self.stats.records_replayed += n;
    }

    /// Credits the broker's stream decisions to
    /// [`DurabilityStats::durable_sent`] (`Durable` frames handed to the
    /// transport) and [`DurabilityStats::durable_skipped`] (records a
    /// stream passed over as unmatched). Like replays, these are the
    /// broker's doing; the log only keeps the books.
    pub fn note_streamed(&mut self, sent: u64, skipped: u64) {
        self.stats.durable_sent += sent;
        self.stats.durable_skipped += skipped;
    }

    /// The bounded form of [`DurableLog::replay_after`]: at most `max`
    /// records, in append order. Does **not** touch the replay counter
    /// (see [`DurableLog::note_replayed`]).
    pub fn replay_window(&mut self, class: ClassId, upto: u64, max: usize) -> Vec<(u64, Envelope)> {
        let mut out = Vec::new();
        self.replay_scan(class, upto, max, |off, env| {
            out.push((off, env));
            true
        });
        out
    }

    /// Hands `visit` the logged records of `class` above `upto`, in
    /// append order: at most `max` of them, and none after the one
    /// `visit` answers `false` to. Returns whether it ran out of records
    /// — `false` when `max` or `visit` ended it first. Used by the
    /// broker's in-flight window — a consumer far behind is paged out of
    /// the log one window at a time, paced by its acknowledgements,
    /// instead of having its whole backlog dumped on the wire at once —
    /// where the visitor stops at the delivery that fills the window.
    /// Does **not** touch the replay counter.
    ///
    /// Answered from the position index: each segment's entries for the
    /// class are binary-searched for `upto`, and only the byte ranges of
    /// the `max` records in reach are read — adjacent records in one
    /// read — and only the records visited are decoded. A record that no
    /// longer passes its CRC or does not decode (damage since open) is
    /// left out.
    pub fn replay_scan(
        &mut self,
        class: ClassId,
        upto: u64,
        max: usize,
        mut visit: impl FnMut(u64, Envelope) -> bool,
    ) -> bool {
        self.stats.catch_up_calls += 1;
        let mut left = max;
        for seg in &self.segs {
            let Some(recs) = seg.classes.get(&class.0) else {
                continue;
            };
            let start = recs.partition_point(|r| r.off <= upto);
            let mut rest = &recs[start..recs.len().min(start.saturating_add(left))];
            left -= rest.len();
            while let Some(first) = rest.first() {
                // One read per run of records that sit back to back.
                let mut run = 1;
                while run < rest.len()
                    && rest[run].pos == rest[run - 1].pos + u64::from(rest[run - 1].len)
                {
                    run += 1;
                }
                let (run, tail) = rest.split_at(run);
                rest = tail;
                let bytes: usize = run.iter().map(|r| r.len as usize).sum();
                self.read_buf.resize(bytes, 0);
                self.storage.read_at(seg.id, first.pos, &mut self.read_buf);
                self.stats.log_bytes_read += bytes as u64;
                let mut at = 0usize;
                for r in run {
                    let raw = &self.read_buf[at..at + r.len as usize];
                    at += r.len as usize;
                    self.stats.records_decoded += 1;
                    if let Some(Ok(rec)) = read_record(raw).map(decode_payload) {
                        if !visit(rec.off, rec.env) {
                            return false;
                        }
                    }
                }
            }
            if left == 0 {
                return false;
            }
        }
        true
    }

    /// Simulates a process crash and restart on the same storage: every
    /// unsynced byte is lost (the simulator's page-cache model), then the
    /// log re-opens from what survived — re-scanning segments, truncating
    /// torn tails, reloading the offset table. Counters accumulate across
    /// the restart, mirroring how broker counters survive `on_restart`.
    pub fn crash_restart(&mut self) {
        self.storage.lose_unsynced();
        self.dirty_records = 0;
        self.dirty_bytes = 0;
        self.offsets_dirty = false;
        self.rescan();
    }

    /// Scans storage and rebuilds the in-memory index: per-segment sizes
    /// and record positions, class tails, and the consumer-offset table.
    /// Torn or undecodable tails are truncated (and the cut fsynced) so
    /// the next append lands on a valid boundary. The one place whole
    /// segments are read.
    fn rescan(&mut self) {
        self.segs.clear();
        self.tail.clear();
        let ids = self.storage.segment_ids();
        for &id in &ids {
            let bytes = self.storage.read_segment(id);
            let mut meta = SegMeta::new(id);
            while let Some(payload) = read_record(&bytes[meta.bytes..]) {
                // CRC-valid but not a record of ours — unreadable, or
                // numbered at or below its class's tail, which no append
                // does and the index's offset order relies on: written by
                // something else. Cut here like a torn tail.
                let Ok(rec) = decode_payload(payload) else {
                    break;
                };
                let tail = self.tail.entry(rec.class.0).or_insert(0);
                if rec.off <= *tail {
                    break;
                }
                *tail = rec.off;
                meta.push(rec.class.0, rec.off, RECORD_HEADER_LEN + payload.len());
            }
            if meta.bytes != bytes.len() {
                self.storage.truncate(id, meta.bytes as u64);
                self.storage.sync(id);
                self.stats.torn_truncations += 1;
            }
            if meta.bytes == 0 {
                self.storage.remove_segment(id);
                continue;
            }
            self.segs.push(meta);
        }
        // Past every id found, the empty ones just removed too: a delete
        // may still be queued, and must not meet a new segment of its id.
        self.next_seg_id = ids.last().map_or(0, |id| id + 1);
        self.offsets = self
            .storage
            .read_meta()
            .and_then(|bytes| serde_json::from_slice::<OffsetTable>(&bytes).ok())
            .map(|t| t.0)
            .unwrap_or_default();
        // A persisted ack above the recovered tail refers to records the
        // crash took (the offset table can legitimately be newer than the
        // last record sync). Clamp it, or new appends reusing those
        // offsets would be skipped by `replay_after` forever.
        let tail = &self.tail;
        for (&(class, _), upto) in self.offsets.iter_mut() {
            let recovered = tail.get(&class).copied().unwrap_or(0);
            if *upto > recovered {
                *upto = recovered;
            }
        }
    }

    /// Seals the open segment (fsyncing its tail) and starts a new one.
    fn rotate(&mut self) {
        self.flush();
        self.segs.push(SegMeta::new(self.next_seg_id));
        self.next_seg_id += 1;
        self.stats.segments_rotated += 1;
        self.compact();
    }

    /// Writes the consumer-offset table durably (atomic replace).
    fn persist_offsets(&mut self) {
        let bytes =
            serde_json::to_vec(&OffsetRows(&self.offsets)).expect("offset table serializes");
        self.storage.write_meta(&bytes);
        self.offsets_dirty = false;
    }

    /// The lowest acknowledged offset of `class` across its registered
    /// consumers; `u64::MAX` when no consumer is registered for it (its
    /// records are wanted by nobody).
    fn min_acked(&self, class: u32) -> u64 {
        self.consumers_of_class(ClassId(class))
            .map(|(_, upto)| upto)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Deletes every sealed segment whose records have all been
    /// acknowledged by every consumer that wants them.
    fn compact(&mut self) {
        if self.segs.len() <= 1 {
            return; // never delete the open segment
        }
        let sealed = self.segs.len() - 1;
        let mut removed = 0usize;
        for i in 0..sealed {
            let seg = &self.segs[i - removed];
            let disposable = seg.classes.iter().all(|(&class, recs)| {
                recs.last()
                    .is_none_or(|last| self.min_acked(class) >= last.off)
            });
            if disposable {
                let id = seg.id;
                self.storage.remove_segment(id);
                self.segs.remove(i - removed);
                removed += 1;
                self.stats.segments_compacted += 1;
            }
        }
    }
}

type Offsets = BTreeMap<(u32, u64), u64>;

/// The consumer-offset table as the metadata blob spells it:
/// `{"consumers": [{"dest", "class", "upto"}, ..]}`. Written from a
/// borrow of the live table, read back into an owned one.
struct OffsetRows<'a>(&'a Offsets);

impl Serialize for OffsetRows<'_> {
    fn serialize_value(&self) -> Value {
        let rows: Vec<Value> = self
            .0
            .iter()
            .map(|(&(class, dest), &upto)| {
                let mut row = Value::object();
                row.insert_field("dest", dest.serialize_value());
                row.insert_field("class", u64::from(class).serialize_value());
                row.insert_field("upto", upto.serialize_value());
                row
            })
            .collect();
        let mut obj = Value::object();
        obj.insert_field("consumers", Value::Array(rows));
        obj
    }
}

struct OffsetTable(Offsets);

impl Deserialize for OffsetTable {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let Value::Array(rows) = v.field("consumers") else {
            return Err(DeError::msg("consumers must be an array"));
        };
        let mut entries = BTreeMap::new();
        for row in rows {
            let dest: u64 = serde::__field(row, "dest")?;
            let class: u64 = serde::__field(row, "class")?;
            let upto: u64 = serde::__field(row, "upto")?;
            entries.insert((class as u32, dest), upto);
        }
        Ok(OffsetTable(entries))
    }
}

#[cfg(test)]
mod tests {
    use super::super::storage::{FileStorage, MemStorage};
    use super::*;
    use layercake_event::{scan_records, EventData, EventSeq};

    fn env(class: u32, seq: u64) -> Envelope {
        let mut meta = EventData::new();
        meta.insert("k", seq as i64);
        Envelope::from_meta(ClassId(class), "T", EventSeq(seq), meta)
    }

    fn small_log() -> DurableLog {
        DurableLog::open(
            Box::new(MemStorage::new()),
            LogConfig {
                segment_bytes: 4096,
                flush_every: 2,
            },
        )
    }

    #[test]
    fn append_assigns_monotone_per_class_offsets() {
        let mut log = small_log();
        assert_eq!(log.append(&env(0, 10)), 1);
        assert_eq!(log.append(&env(1, 11)), 1);
        assert_eq!(log.append(&env(0, 12)), 2);
        assert_eq!(log.tail_off(ClassId(0)), 2);
        assert_eq!(log.tail_off(ClassId(1)), 1);
        assert_eq!(log.stats().records_appended, 3);
    }

    #[test]
    fn flush_batches_fsyncs() {
        let mut log = small_log(); // flush_every = 2
        log.append(&env(0, 0));
        assert_eq!(log.stats().fsync_batches, 0);
        log.append(&env(0, 1));
        assert_eq!(log.stats().fsync_batches, 1);
        assert!(log.stats().bytes_fsynced > 0);
        log.append(&env(0, 2));
        log.flush();
        assert_eq!(log.stats().fsync_batches, 2);
        // An empty flush costs nothing.
        log.flush();
        assert_eq!(log.stats().fsync_batches, 2);
    }

    #[test]
    fn segments_rotate_at_the_byte_bound() {
        let mut log = DurableLog::open(
            Box::new(MemStorage::new()),
            LogConfig {
                segment_bytes: 256,
                flush_every: 1,
            },
        );
        // An unacked consumer pins every segment, so rotation is visible.
        log.register_consumer(DestId(1), ClassId(0));
        for i in 0..20 {
            log.append(&env(0, i));
        }
        assert!(log.segment_count() > 1, "20 records must span segments");
        assert!(log.stats().segments_rotated > 0);
        assert_eq!(log.stats().segments_compacted, 0);
    }

    #[test]
    fn sealed_segments_nobody_wants_are_compacted_eagerly() {
        let mut log = DurableLog::open(
            Box::new(MemStorage::new()),
            LogConfig {
                segment_bytes: 256,
                flush_every: 1,
            },
        );
        for i in 0..20 {
            log.append(&env(0, i));
        }
        assert_eq!(log.segment_count(), 1, "no consumer → no history kept");
        assert!(log.stats().segments_compacted > 0);
    }

    /// A storage job that fails on the sync thread fails the log's next
    /// check, as a failure inside the call would have.
    #[test]
    #[should_panic(expected = "durable log storage failed")]
    fn a_failed_storage_job_fails_the_next_check() {
        let dir =
            std::env::temp_dir().join(format!("layercake-wal-failed-job-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut log = DurableLog::open(
            Box::new(FileStorage::open(&dir).unwrap()),
            LogConfig::default(),
        );
        log.register_consumer(DestId(1), ClassId(0));
        super::super::drain();
        log.check_storage();
        std::fs::remove_dir_all(&dir).unwrap();
        // The offset table's replace now has no directory to write in.
        log.register_consumer(DestId(2), ClassId(0));
        super::super::drain();
        log.check_storage();
    }

    #[test]
    fn replay_starts_after_the_acked_offset() {
        let mut log = small_log();
        let dest = DestId(42);
        assert_eq!(log.register_consumer(dest, ClassId(0)), 0);
        for i in 0..6 {
            log.append(&env(0, 100 + i));
        }
        log.ack(dest, ClassId(0), 4);
        let replayed = log.replay_after(ClassId(0), 4);
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].0, 5);
        assert_eq!(replayed[0].1.seq(), EventSeq(104));
        assert_eq!(replayed[1].0, 6);
        assert_eq!(log.stats().records_replayed, 2);
    }

    #[test]
    fn late_consumers_start_at_the_tail() {
        let mut log = small_log();
        log.append(&env(0, 0));
        log.append(&env(0, 1));
        let upto = log.register_consumer(DestId(7), ClassId(0));
        assert_eq!(upto, 2, "a new consumer owes nothing from the past");
        assert!(log.replay_after(ClassId(0), upto).is_empty());
    }

    #[test]
    fn offsets_survive_crash_restart_and_unsynced_tail_is_lost() {
        let mut log = small_log(); // flush_every = 2
        let dest = DestId(9);
        log.register_consumer(dest, ClassId(0));
        for i in 0..4 {
            log.append(&env(0, i));
        }
        log.ack(dest, ClassId(0), 2);
        log.flush(); // acks + 4 records durable
        log.append(&env(0, 4)); // unsynced (flush_every not reached)
        assert_eq!(log.tail_off(ClassId(0)), 5);
        log.crash_restart();
        // The unsynced fifth record is gone; the synced four and the
        // persisted ack survive.
        assert_eq!(log.tail_off(ClassId(0)), 4);
        assert!(log.is_consumer(dest));
        let acked = log.register_consumer(dest, ClassId(0));
        let replayed = log.replay_after(ClassId(0), acked);
        assert_eq!(replayed.len(), 2, "offsets 3 and 4 replay");
        assert_eq!(replayed[0].0, 3);
    }

    #[test]
    fn compaction_waits_for_acks_and_lease_expiry() {
        let mut log = DurableLog::open(
            Box::new(MemStorage::new()),
            LogConfig {
                segment_bytes: 64, // three 19-byte records a segment
                flush_every: 1,
            },
        );
        let a = DestId(1);
        let b = DestId(2);
        log.register_consumer(a, ClassId(0));
        log.register_consumer(b, ClassId(0));
        for i in 0..12 {
            log.append(&env(0, i));
        }
        let before = log.segment_count();
        assert!(before > 2);
        // One consumer acks everything — the slower one still pins the log.
        log.ack(a, ClassId(0), 12);
        log.flush();
        assert_eq!(log.segment_count(), before);
        assert_eq!(log.stats().segments_compacted, 0);
        // The slow consumer's lease expires: its entries drop, sealed
        // segments below the remaining minimum ack go.
        log.drop_consumer(b);
        assert!(log.segment_count() < before);
        assert!(log.stats().segments_compacted > 0);
        // With no consumers at all, everything sealed is garbage.
        log.drop_consumer(a);
        assert_eq!(log.segment_count(), 1, "only the open segment remains");
    }

    #[test]
    fn acks_for_unregistered_consumers_are_ignored() {
        let mut log = small_log();
        log.append(&env(0, 0));
        log.ack(DestId(99), ClassId(0), 1);
        assert!(!log.is_consumer(DestId(99)));
    }

    #[test]
    fn register_consumer_syncs_appended_records_before_persisting_offsets() {
        let mut log = DurableLog::open(
            Box::new(MemStorage::new()),
            LogConfig {
                segment_bytes: 4096,
                flush_every: 100, // appends stay unsynced on their own
            },
        );
        log.register_consumer(DestId(1), ClassId(0));
        for i in 0..3 {
            log.append(&env(0, i));
        }
        // Registering a second consumer persists an offset equal to the
        // in-memory tail (3) — which must force those three records to
        // disk first, or a crash would recover tail 0 < ack 3 and new
        // events reusing offsets 1..=3 would never replay.
        assert_eq!(log.register_consumer(DestId(2), ClassId(0)), 3);
        log.crash_restart();
        assert_eq!(
            log.tail_off(ClassId(0)),
            3,
            "registration made the appended records durable"
        );
        assert_eq!(log.acked_upto(DestId(2), ClassId(0)), 3);
        assert!(log.replay_after(ClassId(0), 3).is_empty());
    }

    #[test]
    fn recovery_clamps_persisted_acks_to_the_recovered_tail() {
        // Two durable records, synced — then an offset table claiming a
        // consumer acknowledged offset 99 (persisted by an incarnation
        // whose later records did not survive the crash).
        let mut storage = MemStorage::new();
        {
            let mut log = DurableLog::open(
                Box::new(MemStorage::new()),
                LogConfig {
                    segment_bytes: 4096,
                    flush_every: 1,
                },
            );
            log.register_consumer(DestId(7), ClassId(0));
            log.append(&env(0, 0));
            log.append(&env(0, 1));
            storage.append(0, &log.storage.read_segment(0));
            storage.sync(0);
        }
        let table: Offsets = [((0u32, 7u64), 99u64)].into_iter().collect();
        storage.write_meta(&serde_json::to_vec(&OffsetRows(&table)).expect("table serializes"));
        let mut log = DurableLog::open(Box::new(storage), LogConfig::default());
        assert_eq!(
            log.acked_upto(DestId(7), ClassId(0)),
            2,
            "an ack beyond the durable tail is clamped on recovery"
        );
        // Offsets reused by new appends replay instead of being skipped.
        assert_eq!(log.append(&env(0, 5)), 3);
        assert_eq!(log.replay_after(ClassId(0), 2).len(), 1);
    }

    #[test]
    fn over_tail_acks_are_clamped() {
        let mut log = small_log();
        log.register_consumer(DestId(1), ClassId(0));
        log.append(&env(0, 0));
        // A stale subscriber cursor from before a broker crash can name
        // offsets the recovered log never assigned; taking it verbatim
        // would skip the reused offsets forever.
        log.ack(DestId(1), ClassId(0), 50);
        assert_eq!(log.acked_upto(DestId(1), ClassId(0)), 1);
    }

    #[test]
    fn replay_window_bounds_the_batch() {
        let mut log = DurableLog::open(
            Box::new(MemStorage::new()),
            LogConfig {
                segment_bytes: 256, // records span several segments
                flush_every: 1,
            },
        );
        log.register_consumer(DestId(1), ClassId(0));
        for i in 0..10 {
            log.append(&env(0, i));
        }
        let first = log.replay_window(ClassId(0), 2, 4);
        let offs: Vec<u64> = first.iter().map(|(off, _)| *off).collect();
        assert_eq!(offs, vec![3, 4, 5, 6]);
        assert_eq!(
            log.stats().records_replayed,
            0,
            "window paging is not replay; only the caller can tell"
        );
        log.note_replayed(first.len() as u64);
        assert_eq!(log.stats().records_replayed, 4);
        let rest = log.replay_window(ClassId(0), 6, usize::MAX);
        assert_eq!(rest.len(), 4);
        assert_eq!(rest[0].0, 7);
    }

    #[test]
    fn paged_catch_up_reads_and_decodes_only_what_it_returns() {
        let dir = std::env::temp_dir().join(format!("layercake-wal-paged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let storages: [Box<dyn LogStorage>; 2] = [
            Box::new(MemStorage::new()),
            Box::new(FileStorage::open(&dir).unwrap()),
        ];
        for storage in storages {
            let cfg = LogConfig {
                segment_bytes: 8 * 1024,
                flush_every: 8,
            };
            let mut log = DurableLog::open(storage, cfg);
            log.register_consumer(DestId(1), ClassId(0));
            for i in 0..2_000 {
                log.append(&env(0, i));
            }
            log.flush();
            assert!(log.segment_count() > 4, "the history spans segments");
            let logged_bytes = log.stats().bytes_fsynced;
            let mut upto = 0;
            let mut calls = 0;
            loop {
                let page = log.replay_window(ClassId(0), upto, 8);
                calls += 1;
                let Some(&(last, _)) = page.last() else { break };
                assert_eq!(page.len(), 8);
                assert_eq!(page[0].0, upto + 1);
                upto = last;
            }
            assert_eq!(upto, 2_000);
            let stats = log.stats();
            assert_eq!(stats.catch_up_calls, calls);
            assert_eq!(
                stats.records_decoded, 2_000,
                "one decode per record returned"
            );
            assert_eq!(stats.log_bytes_read, logged_bytes, "each record read once");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_of_both_formats_share_a_segment() {
        // A record as logs spelled it before the binary payload.
        let json = br#"{"class":0,"off":1,"env":{"class":0,"class_name":"T","seq":40,"meta":{"attrs":[["k",{"Int":40}]]},"payload":[],"trace":null}}"#;
        let mut storage = MemStorage::new();
        storage.append(0, &layercake_event::encode_record(json).unwrap());
        storage.sync(0);
        let mut log = DurableLog::open(Box::new(storage), LogConfig::default());
        assert_eq!(log.stats().torn_truncations, 0, "JSON is not a torn tail");
        assert_eq!(log.tail_off(ClassId(0)), 1);
        log.register_consumer(DestId(1), ClassId(0));
        assert_eq!(log.append(&env(0, 41)), 2);
        log.flush();
        log.crash_restart();
        let replayed = log.replay_after(ClassId(0), 0);
        assert_eq!(replayed, vec![(1, env(0, 40)), (2, env(0, 41))]);
    }

    #[test]
    fn a_record_numbered_below_its_class_tail_is_cut_at_open() {
        let mut seg = Vec::new();
        for off in [1, 2, 2, 3] {
            encode_record_into(&mut seg, |out| encode_payload(out, off, &env(0, off))).unwrap();
        }
        let mut storage = MemStorage::new();
        storage.append(0, &seg);
        storage.sync(0);
        let log = DurableLog::open(Box::new(storage), LogConfig::default());
        assert_eq!(log.tail_off(ClassId(0)), 2);
        assert_eq!(log.stats().torn_truncations, 1);
    }

    mod indexed_replay {
        //! The position index against the scan it replaced: whatever a
        //! log went through, `replay_window` and `replay_after` return
        //! what reading every segment front to back returns.
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Append(u32),
            Ack(u64, u32, u64),
            Register(u64, u32),
            Drop(u64),
            Flush,
            CrashRestart,
            /// Crash with the last segment's final bytes torn off.
            TornTail(u64),
        }

        /// Half appends, the rest spread over the other operations.
        fn op() -> impl Strategy<Value = Op> {
            (0u8..16, 1u64..4, 0u32..3, 0u64..60).prop_map(|(kind, dest, class, n)| match kind {
                0..=7 => Op::Append(class),
                8 | 9 => Op::Ack(dest, class, n),
                10 | 11 => Op::Register(dest, class),
                12 => Op::Drop(dest),
                13 => Op::Flush,
                14 => Op::CrashRestart,
                _ => Op::TornTail(n + 1),
            })
        }

        /// Every segment read whole and every record decoded, in order.
        fn scan_replay(
            log: &DurableLog,
            class: ClassId,
            upto: u64,
            max: usize,
        ) -> Vec<(u64, Envelope)> {
            let mut out = Vec::new();
            for id in log.storage.segment_ids() {
                for payload in scan_records(&log.storage.read_segment(id)).records {
                    let rec = decode_payload(&payload).expect("a logged record decodes");
                    if rec.class == class && rec.off > upto && out.len() < max {
                        out.push((rec.off, rec.env));
                    }
                }
            }
            out
        }

        fn check(log: &mut DurableLog) -> Result<(), TestCaseError> {
            for class in (0..3).map(ClassId) {
                let tail = log.tail_off(class);
                for upto in [0, tail / 2, tail.saturating_sub(1), tail] {
                    for max in [0, 1, 3, usize::MAX] {
                        let want = scan_replay(log, class, upto, max);
                        prop_assert_eq!(log.replay_window(class, upto, max), want);
                    }
                    let want = scan_replay(log, class, upto, usize::MAX);
                    prop_assert_eq!(log.replay_after(class, upto), want);
                }
            }
            Ok(())
        }

        fn run(storage: Box<dyn LogStorage>, ops: &[Op]) -> Result<(), TestCaseError> {
            let cfg = LogConfig {
                segment_bytes: 200, // a handful of records: rotation is routine
                flush_every: 3,
            };
            let mut log = DurableLog::open(storage, cfg);
            // Without a consumer everything sealed compacts at once.
            log.register_consumer(DestId(1), ClassId(0));
            for (seq, op) in ops.iter().enumerate() {
                match *op {
                    Op::Append(class) => {
                        log.append(&env(class, seq as u64));
                    }
                    Op::Ack(dest, class, upto) => log.ack(DestId(dest), ClassId(class), upto),
                    Op::Register(dest, class) => {
                        log.register_consumer(DestId(dest), ClassId(class));
                    }
                    Op::Drop(dest) => log.drop_consumer(DestId(dest)),
                    Op::Flush => log.flush(),
                    Op::CrashRestart => log.crash_restart(),
                    Op::TornTail(cut) => {
                        if let Some(seg) = log.segs.last() {
                            let keep = (seg.bytes as u64).saturating_sub(cut);
                            log.storage.truncate(seg.id, keep);
                        }
                        log.crash_restart();
                    }
                }
                check(&mut log)?;
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn matches_the_full_scan_in_memory(ops in proptest::collection::vec(op(), 1..60)) {
                run(Box::new(MemStorage::new()), &ops)?;
            }

            #[test]
            fn matches_the_full_scan_on_files(
                ops in proptest::collection::vec(op(), 1..40),
                case in any::<u64>(),
            ) {
                let dir = std::env::temp_dir().join(format!(
                    "layercake-wal-index-{}-{case:016x}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let outcome = run(Box::new(FileStorage::open(&dir).unwrap()), &ops);
                let _ = std::fs::remove_dir_all(&dir);
                outcome?;
            }
        }
    }

    mod corruption {
        //! Property coverage for recovery: whatever happens to a stored
        //! segment — truncation at any byte, a flipped byte, random
        //! garbage appended — `open` must never panic and must recover
        //! exactly the longest prefix of CRC-valid records.
        use super::*;
        use proptest::prelude::*;

        /// Builds a synced single-segment log of `n` records and returns
        /// the raw segment bytes plus each record's end boundary.
        fn valid_segment(n: u64) -> (Vec<u8>, Vec<usize>) {
            let mut log = DurableLog::open(
                Box::new(MemStorage::new()),
                LogConfig {
                    segment_bytes: usize::MAX,
                    flush_every: 1,
                },
            );
            // A pinning consumer keeps eager compaction away.
            log.register_consumer(DestId(1), ClassId(0));
            for i in 0..n {
                log.append(&env(0, i));
            }
            let bytes = log.storage.read_segment(0);
            let mut boundaries = Vec::new();
            let mut at = 0usize;
            for payload in scan_records(&bytes).records {
                at += RECORD_HEADER_LEN + payload.len();
                boundaries.push(at);
            }
            assert_eq!(boundaries.len(), n as usize);
            assert_eq!(at, bytes.len());
            (bytes, boundaries)
        }

        /// Opens a log over one synced segment holding exactly `bytes`.
        fn reopen(bytes: &[u8]) -> DurableLog {
            let mut storage = MemStorage::new();
            if !bytes.is_empty() {
                storage.append(0, bytes);
                storage.sync(0);
            }
            DurableLog::open(Box::new(storage), LogConfig::default())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Cutting the segment at any byte recovers every record
            /// wholly inside the cut, loses the rest, and the log keeps
            /// accepting appends on the repaired boundary.
            #[test]
            fn truncation_recovers_the_longest_valid_prefix(
                n in 1u64..12,
                cut_seed in 0usize..1_000_000,
            ) {
                let (bytes, bounds) = valid_segment(n);
                let cut = cut_seed % (bytes.len() + 1);
                let survivors = bounds.iter().filter(|&&b| b <= cut).count() as u64;
                let mut log = reopen(&bytes[..cut]);
                prop_assert_eq!(log.tail_off(ClassId(0)), survivors);
                let on_boundary = cut == 0 || bounds.contains(&cut);
                prop_assert_eq!(log.stats().torn_truncations, u64::from(!on_boundary));
                // The torn tail is gone for good: appends and replay line
                // up on the recovered offset, not the pre-crash one.
                log.register_consumer(DestId(2), ClassId(0));
                prop_assert_eq!(log.append(&env(0, 999)), survivors + 1);
                let replayed = log.replay_after(ClassId(0), 0);
                prop_assert_eq!(replayed.len() as u64, survivors + 1);
            }

            /// Flipping any single byte is caught by the record CRC: the
            /// records before the flip survive, nothing after the flip is
            /// trusted, and recovery never panics.
            #[test]
            fn bit_flips_cut_the_log_at_the_damaged_record(
                n in 1u64..12,
                pos_seed in 0usize..1_000_000,
                mask in 1u8..=255,
            ) {
                let (mut bytes, bounds) = valid_segment(n);
                let pos = pos_seed % bytes.len();
                bytes[pos] ^= mask;
                let intact = bounds.iter().filter(|&&b| b <= pos).count() as u64;
                let log = reopen(&bytes);
                prop_assert_eq!(log.tail_off(ClassId(0)), intact);
                prop_assert_eq!(log.stats().torn_truncations, 1);
            }

            /// Random bytes appended after valid records (a torn write, a
            /// partial header, plausible-looking garbage) never survive a
            /// reopen and never panic it.
            #[test]
            fn garbage_tails_are_dropped(
                n in 0u64..8,
                garbage in proptest::collection::vec(any::<u8>(), 1..128),
            ) {
                let (mut bytes, _) = valid_segment(n);
                bytes.extend_from_slice(&garbage);
                let log = reopen(&bytes);
                prop_assert_eq!(log.tail_off(ClassId(0)), n);
                prop_assert_eq!(log.stats().torn_truncations, 1);
            }
        }
    }

    #[test]
    fn reopen_truncates_garbage_tail() {
        let mut storage = MemStorage::new();
        {
            let mut log = DurableLog::open(
                Box::new(MemStorage::new()),
                LogConfig {
                    segment_bytes: 4096,
                    flush_every: 1,
                },
            );
            log.append(&env(0, 0));
            log.append(&env(0, 1));
            // Copy the valid bytes into our inspectable storage, then
            // append garbage like a crashed writer would.
            storage.append(0, &log.storage.read_segment(0));
        }
        storage.append(0, &[0xDE, 0xAD, 0xBE, 0xEF, 0x01]);
        storage.sync(0);
        let log = DurableLog::open(Box::new(storage), LogConfig::default());
        assert_eq!(log.tail_off(ClassId(0)), 2);
        assert_eq!(log.stats().torn_truncations, 1);
    }
}
