//! Byte-level storage behind a durable log: named append-only segments
//! plus one atomically-replaced metadata blob.
//!
//! Two implementations back the same [`crate::wal::DurableLog`] state
//! machine, keeping the protocol identical across drivers:
//!
//! * [`MemStorage`] — deterministic in-memory segments for the simulator.
//!   It models the write/fsync distinction explicitly: bytes appended but
//!   not yet synced are *lost* by [`LogStorage::lose_unsynced`], which the
//!   broker invokes when it simulates a process crash. Tests get
//!   byte-reproducible durability semantics without touching a disk.
//! * [`FileStorage`] — real files under a directory. Appends are written
//!   in the caller's turn; the real `fsync` (`sync_data`) per segment,
//!   the atomic metadata replacement (write-to-temp + rename) and segment
//!   deletes are jobs for the process's one sync thread ([`super::drain`]).
//!   This is what `layercake-rt` runs on.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use super::sync::{self, LogSync, Op, SyncTelemetry};

/// The storage a [`crate::wal::DurableLog`] appends to: a set of segments
/// addressed by numeric id, plus one metadata blob (the consumer-offset
/// table) replaced atomically as a whole.
///
/// All methods are infallible from the log's point of view; a file
/// implementation treats an I/O error on a log it already opened as
/// fatal (storage loss under an append-only log has no useful partial
/// recovery), while open-time errors surface from its constructor.
///
/// [`LogStorage::sync`], [`LogStorage::write_meta`] and
/// [`LogStorage::remove_segment`] may run later than the call, in the
/// order the calls were made ([`FileStorage`] queues them for its sync
/// thread); [`super::drain`] waits for them. Every other method sees
/// their effects.
pub trait LogStorage: fmt::Debug + Send {
    /// Ids of all existing segments, ascending.
    fn segment_ids(&self) -> Vec<u64>;

    /// Full contents of one segment (empty if it does not exist).
    fn read_segment(&self, seg: u64) -> Vec<u8>;

    /// Fills `buf` with the bytes of a segment starting at `pos`. The
    /// log only asks for ranges it appended (or found at open) and has
    /// not truncated since, so a range that is not there is storage
    /// loss and panics like any other I/O failure.
    fn read_at(&mut self, seg: u64, pos: u64, buf: &mut [u8]);

    /// Appends bytes to a segment, creating it if needed. The bytes are
    /// *written* but not yet durable — only [`LogStorage::sync`] makes
    /// them survive [`LogStorage::lose_unsynced`] / a power cut.
    fn append(&mut self, seg: u64, bytes: &[u8]);

    /// Truncates a segment to `len` bytes (recovery cutting a torn tail).
    fn truncate(&mut self, seg: u64, len: u64);

    /// Makes every byte written to the segment so far durable (fsync).
    fn sync(&mut self, seg: u64);

    /// Deletes a segment (compaction).
    fn remove_segment(&mut self, seg: u64);

    /// The metadata blob, if one was ever written.
    fn read_meta(&self) -> Option<Vec<u8>>;

    /// Atomically replaces the metadata blob with a durable copy of
    /// `bytes`.
    fn write_meta(&mut self, bytes: &[u8]);

    /// Drops the syncs, metadata writes and deletes not yet run, as a
    /// process kill would, and every later one: the storage is done.
    fn abandon(&mut self) {}

    /// Why a sync, metadata write or delete failed after its call
    /// returned, if one did: the storage is then lost, as it is when a
    /// call itself fails.
    fn failure(&self) -> Option<&str> {
        None
    }

    /// Drops every byte not yet covered by a [`LogStorage::sync`] —
    /// the simulator's model of a process crash taking the page cache
    /// with it. Real-file storage keeps nothing in userspace, so its
    /// implementation is a no-op.
    fn lose_unsynced(&mut self);
}

/// One in-memory segment: its bytes and the synced prefix length.
#[derive(Debug, Default, Clone)]
struct MemSegment {
    bytes: Vec<u8>,
    synced: usize,
}

/// Deterministic in-memory [`LogStorage`] for the simulator.
#[derive(Debug, Default)]
pub struct MemStorage {
    segments: BTreeMap<u64, MemSegment>,
    meta: Option<Vec<u8>>,
}

impl MemStorage {
    /// Creates empty storage.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl LogStorage for MemStorage {
    fn segment_ids(&self) -> Vec<u64> {
        self.segments.keys().copied().collect()
    }

    fn read_segment(&self, seg: u64) -> Vec<u8> {
        self.segments
            .get(&seg)
            .map(|s| s.bytes.clone())
            .unwrap_or_default()
    }

    fn read_at(&mut self, seg: u64, pos: u64, buf: &mut [u8]) {
        let start = pos as usize;
        let bytes = self.segments.get(&seg).map_or(&[][..], |s| &s.bytes);
        buf.copy_from_slice(&bytes[start..start + buf.len()]);
    }

    fn append(&mut self, seg: u64, bytes: &[u8]) {
        self.segments
            .entry(seg)
            .or_default()
            .bytes
            .extend_from_slice(bytes);
    }

    fn truncate(&mut self, seg: u64, len: u64) {
        if let Some(s) = self.segments.get_mut(&seg) {
            s.bytes.truncate(len as usize);
            s.synced = s.synced.min(s.bytes.len());
        }
    }

    fn sync(&mut self, seg: u64) {
        if let Some(s) = self.segments.get_mut(&seg) {
            s.synced = s.bytes.len();
        }
    }

    fn remove_segment(&mut self, seg: u64) {
        self.segments.remove(&seg);
    }

    fn read_meta(&self) -> Option<Vec<u8>> {
        self.meta.clone()
    }

    fn write_meta(&mut self, bytes: &[u8]) {
        self.meta = Some(bytes.to_vec());
    }

    fn lose_unsynced(&mut self) {
        for s in self.segments.values_mut() {
            let keep = s.synced.min(s.bytes.len());
            s.bytes.truncate(keep);
        }
        self.segments.retain(|_, s| !s.bytes.is_empty());
    }
}

/// Real-file [`LogStorage`]: one `seg-<id>.log` file per segment and an
/// `offsets.meta` blob in a directory. Appends are written in the call;
/// the real `fsync` of [`LogStorage::sync`], the atomic metadata
/// replacement and segment deletes are queued for the sync thread, which
/// every `FileStorage` of the process shares (see [`super::drain`]).
/// Opening a directory, reading its segment list or metadata, and
/// truncating wait for the jobs queued before them.
pub struct FileStorage {
    dir: PathBuf,
    /// Open handles, kept so a sync job can `sync_data` the same file
    /// descriptor the writes went through and `read_at` costs one
    /// positioned read, not an open. Append mode sends every write to
    /// the end of the file whatever a read did to the cursor.
    handles: BTreeMap<u64, Arc<fs::File>>,
    /// This log's side of the sync queue.
    sync: Arc<LogSync>,
}

impl fmt::Debug for FileStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileStorage")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl FileStorage {
    /// Opens (creating if needed) the storage directory.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created or is not accessible.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        sync::enter()?;
        // A previous storage of this directory may still have jobs queued.
        sync::drain();
        Ok(Self {
            sync: Arc::new(LogSync::new(dir.clone(), None)),
            dir,
            handles: BTreeMap::new(),
        })
    }

    /// Reports this storage's sync jobs into `telemetry`. Call before
    /// the first job is queued.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: SyncTelemetry) -> Self {
        self.sync = Arc::new(LogSync::new(self.dir.clone(), Some(telemetry)));
        self
    }

    /// The directory this storage lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn segment_path(&self, seg: u64) -> PathBuf {
        self.dir.join(sync::segment_name(seg))
    }

    fn handle(&mut self, seg: u64) -> &Arc<fs::File> {
        let path = self.segment_path(seg);
        self.handles.entry(seg).or_insert_with(|| {
            let file = fs::OpenOptions::new()
                .create(true)
                .read(true)
                .append(true)
                .open(&path)
                .unwrap_or_else(|e| panic!("open log segment {}: {e}", path.display()));
            Arc::new(file)
        })
    }
}

impl Drop for FileStorage {
    fn drop(&mut self) {
        sync::leave();
    }
}

impl LogStorage for FileStorage {
    fn segment_ids(&self) -> Vec<u64> {
        sync::drain();
        let mut ids = Vec::new();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return ids;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(hex) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".log"))
            {
                if let Ok(id) = u64::from_str_radix(hex, 16) {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        ids
    }

    fn read_segment(&self, seg: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        if let Ok(mut f) = fs::File::open(self.segment_path(seg)) {
            f.read_to_end(&mut bytes)
                .unwrap_or_else(|e| panic!("read log segment {seg}: {e}"));
        }
        bytes
    }

    fn read_at(&mut self, seg: u64, pos: u64, buf: &mut [u8]) {
        let file = &**self.handle(seg);
        #[cfg(unix)]
        let read = std::os::unix::fs::FileExt::read_exact_at(file, buf, pos);
        #[cfg(not(unix))]
        let read = {
            use std::io::Seek as _;
            let mut file = file;
            file.seek(io::SeekFrom::Start(pos))
                .and_then(|_| file.read_exact(buf))
        };
        read.unwrap_or_else(|e| {
            panic!(
                "read {} bytes at {pos} of log segment {seg}: {e}",
                buf.len()
            )
        });
    }

    fn append(&mut self, seg: u64, bytes: &[u8]) {
        (&**self.handle(seg))
            .write_all(bytes)
            .unwrap_or_else(|e| panic!("append to log segment {seg}: {e}"));
    }

    fn truncate(&mut self, seg: u64, len: u64) {
        sync::drain();
        // Re-open without append mode: set_len on an append handle is
        // fine, but dropping the handle first keeps the offset story
        // simple across platforms.
        self.handles.remove(&seg);
        let path = self.segment_path(seg);
        let f = fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("open log segment {} for truncate: {e}", path.display()));
        f.set_len(len)
            .unwrap_or_else(|e| panic!("truncate log segment {seg}: {e}"));
        f.sync_data()
            .unwrap_or_else(|e| panic!("sync truncated log segment {seg}: {e}"));
    }

    fn sync(&mut self, seg: u64) {
        let file = Arc::clone(self.handle(seg));
        self.sync.push(Op::Sync(seg, file));
    }

    fn remove_segment(&mut self, seg: u64) {
        self.handles.remove(&seg);
        self.sync.push(Op::Remove(seg));
    }

    fn read_meta(&self) -> Option<Vec<u8>> {
        sync::drain();
        fs::read(self.dir.join("offsets.meta")).ok()
    }

    fn write_meta(&mut self, bytes: &[u8]) {
        self.sync.push(Op::Meta(bytes.to_vec()));
    }

    fn abandon(&mut self) {
        self.sync.abandon();
    }

    fn failure(&self) -> Option<&str> {
        self.sync.failure()
    }

    fn lose_unsynced(&mut self) {
        // A real process crash loses nothing userspace-visible: the OS
        // already has every written byte. Only power loss would, and the
        // file driver cannot simulate that.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_round_trips_and_loses_unsynced() {
        let mut s = MemStorage::new();
        s.append(0, b"abc");
        s.sync(0);
        s.append(0, b"def");
        assert_eq!(s.read_segment(0), b"abcdef");
        let mut mid = [0u8; 3];
        s.read_at(0, 2, &mut mid);
        assert_eq!(&mid, b"cde");
        s.lose_unsynced();
        assert_eq!(s.read_segment(0), b"abc");
        s.append(1, b"x");
        s.lose_unsynced();
        // A never-synced segment vanishes entirely.
        assert_eq!(s.segment_ids(), vec![0]);
        s.write_meta(b"meta");
        assert_eq!(s.read_meta().as_deref(), Some(&b"meta"[..]));
        s.remove_segment(0);
        assert!(s.segment_ids().is_empty());
    }

    #[test]
    fn file_storage_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "layercake-wal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let mut s = FileStorage::open(&dir).unwrap();
        assert!(s.segment_ids().is_empty());
        s.append(7, b"hello ");
        s.append(7, b"world");
        s.sync(7);
        s.append(9, b"zzz");
        assert_eq!(s.segment_ids(), vec![7, 9]);
        assert_eq!(s.read_segment(7), b"hello world");
        let mut mid = [0u8; 5];
        s.read_at(7, 6, &mut mid);
        assert_eq!(&mid, b"world");
        // A positioned read leaves the append position at the end.
        s.append(7, b"!");
        assert_eq!(s.read_segment(7), b"hello world!");
        s.truncate(7, 5);
        assert_eq!(s.read_segment(7), b"hello");
        s.write_meta(b"{\"v\":1}");
        // Re-open from the same directory: everything persisted.
        let s2 = FileStorage::open(&dir).unwrap();
        assert_eq!(s2.segment_ids(), vec![7, 9]);
        assert_eq!(s2.read_segment(7), b"hello");
        assert_eq!(s2.read_meta().as_deref(), Some(&b"{\"v\":1}"[..]));
        let mut s2 = s2;
        s2.remove_segment(9);
        assert_eq!(s2.segment_ids(), vec![7]);
        let _ = fs::remove_dir_all(&dir);
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "layercake-wal-storage-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn open_sees_the_jobs_queued_before_it() {
        let dir = scratch("reopen");
        let mut s = FileStorage::open(&dir).unwrap();
        s.append(1, b"old");
        s.sync(1);
        s.append(2, b"new");
        s.sync(2);
        s.write_meta(b"first");
        s.remove_segment(1);
        s.write_meta(b"second");
        // No drain: the reopen itself waits for the queue.
        let s2 = FileStorage::open(&dir).unwrap();
        assert_eq!(s2.segment_ids(), vec![2]);
        assert_eq!(s2.read_meta().as_deref(), Some(&b"second"[..]));
        drop((s, s2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_job_is_counted_and_other_logs_keep_syncing() {
        let registry = layercake_metrics::TelemetryRegistry::new(1);
        let profiler = Arc::new(layercake_metrics::StageProfiler::new(&registry, 0));
        let telemetry = SyncTelemetry::new(&registry, Arc::clone(&profiler));
        let (gone_dir, kept_dir) = (scratch("gone"), scratch("kept"));
        let mut gone = FileStorage::open(&gone_dir)
            .unwrap()
            .with_telemetry(telemetry.clone());
        let mut kept = FileStorage::open(&kept_dir)
            .unwrap()
            .with_telemetry(telemetry);
        fs::remove_dir_all(&gone_dir).unwrap();
        gone.write_meta(b"lost");
        sync::drain();
        let errors = || registry.snapshot().counter("rt.wal_sync_errors");
        assert_eq!(errors(), Some(1));
        assert!(gone.failure().is_some_and(|e| e.contains("create")));

        // The thread lives on: the other log syncs, and the failed one's
        // later jobs are skipped, not failed again.
        kept.append(0, b"record");
        kept.sync(0);
        kept.write_meta(b"kept");
        gone.write_meta(b"again");
        sync::drain();
        assert_eq!(errors(), Some(1));
        assert!(kept.failure().is_none());
        assert_eq!(kept.read_meta().as_deref(), Some(&b"kept"[..]));
        let fsyncs = profiler.stage_histogram(layercake_metrics::PipelineStage::WalFsync);
        assert_eq!(fsyncs.count(), 1);
        assert_eq!(registry.snapshot().gauge("rt.wal_sync_pending"), Some(0));
        drop((gone, kept));
        let _ = fs::remove_dir_all(&kept_dir);
    }
}
