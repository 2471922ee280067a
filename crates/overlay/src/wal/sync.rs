//! The one thread that makes file-backed logs durable.
//!
//! A [`super::FileStorage`] writes its appends with `write(2)` in the
//! caller's turn, so a process kill loses nothing that was written. What
//! waits on the disk becomes a job on one FIFO queue instead: a segment's
//! `sync_data`, the offset-table replace (write a temporary file,
//! `sync_data`, rename) and compaction's segment deletes. One `lc-wal-sync`
//! thread serves the queue for every log of the process. It starts with the
//! first storage and leaves when the last one is dropped.
//!
//! Each wake takes the whole queue (group commit) and runs it log by log,
//! in the order the logs first appear: at most one fsync per segment, then
//! the log's newest offset table, then its deletes. A log queues its syncs
//! before the table that names their records, and the table before the
//! deletes it allows, so this keeps the order the log would run inline:
//! records are synced before the offsets that name them, and a segment is
//! deleted only after the offsets that release it.
//!
//! A failed job does not stop the thread: the error is kept for its log
//! ([`LogSync::failure`]), counted, and the log's later jobs are skipped.

use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use layercake_metrics::{Gauge, PipelineStage, ShardedCounter, StageProfiler, TelemetryRegistry};

/// Where a file-backed log's jobs report: each segment fsync's wall time
/// into the [`PipelineStage::WalFsync`] stage, each failed job into the
/// `rt.wal_sync_errors` counter, and the jobs queued and not yet run into
/// the `rt.wal_sync_pending` gauge.
#[derive(Debug, Clone)]
pub struct SyncTelemetry {
    profiler: Arc<StageProfiler>,
    errors: Arc<ShardedCounter>,
    pending: Arc<Gauge>,
}

impl SyncTelemetry {
    /// Telemetry that records into `registry` and `profiler`.
    #[must_use]
    pub fn new(registry: &TelemetryRegistry, profiler: Arc<StageProfiler>) -> Self {
        Self {
            profiler,
            errors: registry.counter("rt.wal_sync_errors"),
            pending: registry.gauge("rt.wal_sync_pending"),
        }
    }
}

/// One log as its jobs see it: its directory, its telemetry, and what the
/// sync thread tells the log back.
#[derive(Debug)]
pub(super) struct LogSync {
    dir: PathBuf,
    telemetry: Option<SyncTelemetry>,
    /// Set by [`LogSync::abandon`]: the thread skips the log's jobs.
    abandoned: AtomicBool,
    /// The first job that failed, as a message.
    failure: OnceLock<String>,
}

/// What a job does.
#[derive(Debug)]
pub(super) enum Op {
    /// `sync_data` of a segment, through the handle its appends went to.
    Sync(u64, Arc<File>),
    /// Replaces the offset table with these bytes.
    Meta(Vec<u8>),
    /// Deletes a segment.
    Remove(u64),
}

struct Job {
    log: Arc<LogSync>,
    op: Op,
}

struct State {
    jobs: Vec<Job>,
    /// Jobs ever queued; `done` is how many of them have run (or been
    /// skipped). The thread takes the whole queue at once, so both are
    /// positions in one FIFO order.
    queued: u64,
    done: u64,
    /// Live storages.
    users: usize,
    /// Which thread serves: bumped when one starts and when it is retired.
    epoch: u64,
    thread: Option<JoinHandle<()>>,
}

struct Queue {
    state: Mutex<State>,
    /// Wakes the thread: a job came, or it was retired.
    work: Condvar,
    /// Wakes [`drain`] waiters: a batch finished.
    idle: Condvar,
}

static QUEUE: Queue = Queue {
    state: Mutex::new(State {
        jobs: Vec::new(),
        queued: 0,
        done: 0,
        users: 0,
        epoch: 0,
        thread: None,
    }),
    work: Condvar::new(),
    idle: Condvar::new(),
};

fn lock() -> MutexGuard<'static, State> {
    QUEUE.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The file name of segment `seg`.
pub(super) fn segment_name(seg: u64) -> String {
    format!("seg-{seg:016x}.log")
}

/// Counts a new storage in, starting the thread if none serves.
///
/// # Errors
///
/// The OS refusing the thread.
pub(super) fn enter() -> io::Result<()> {
    let mut state = lock();
    if state.thread.is_none() {
        state.epoch += 1;
        let epoch = state.epoch;
        let thread = std::thread::Builder::new()
            .name("lc-wal-sync".into())
            .spawn(move || serve(epoch))?;
        state.thread = Some(thread);
    }
    state.users += 1;
    Ok(())
}

/// Counts a storage out. The last one out waits for every job queued so
/// far, then retires the thread and joins it; any other leaves at once
/// (its jobs still run, and a later [`super::FileStorage::open`] of its
/// directory waits for them).
pub(super) fn leave() {
    {
        let mut state = lock();
        if state.users > 1 {
            state.users -= 1;
            return;
        }
    }
    drain();
    let thread = {
        let mut state = lock();
        state.users -= 1;
        if state.users > 0 {
            return;
        }
        state.epoch += 1;
        QUEUE.work.notify_all();
        state.thread.take()
    };
    if let Some(thread) = thread {
        let _ = thread.join();
    }
}

/// Blocks until every fsync, offset-table write and segment delete that
/// any [`super::FileStorage`] of the process queued before the call has
/// run (or been abandoned).
pub fn drain() {
    let mut state = lock();
    let target = state.queued;
    while state.done < target {
        state = QUEUE
            .idle
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

fn serve(epoch: u64) {
    loop {
        let (batch, end) = {
            let mut state = lock();
            while state.jobs.is_empty() && state.epoch == epoch {
                state = QUEUE
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if state.epoch != epoch {
                return;
            }
            (std::mem::take(&mut state.jobs), state.queued)
        };
        run(batch);
        lock().done = end;
        QUEUE.idle.notify_all();
    }
}

/// A batch regrouped per log, in the order the logs first appear, each
/// log's jobs in the order they run, with how many jobs they were.
fn plan(batch: Vec<Job>) -> Vec<(Arc<LogSync>, Vec<Op>, i64)> {
    struct Steps {
        log: Arc<LogSync>,
        syncs: Vec<Op>,
        meta: Option<Op>,
        removes: Vec<Op>,
        jobs: i64,
    }
    let mut logs: Vec<Steps> = Vec::new();
    for Job { log, op } in batch {
        let steps = match logs.iter().position(|s| Arc::ptr_eq(&s.log, &log)) {
            Some(i) => &mut logs[i],
            None => {
                logs.push(Steps {
                    log,
                    syncs: Vec::new(),
                    meta: None,
                    removes: Vec::new(),
                    jobs: 0,
                });
                logs.last_mut().expect("just pushed")
            }
        };
        steps.jobs += 1;
        match op {
            Op::Sync(seg, _)
                if steps
                    .syncs
                    .iter()
                    .any(|s| matches!(s, Op::Sync(x, _) if *x == seg)) => {}
            Op::Sync(..) => steps.syncs.push(op),
            Op::Meta(_) => steps.meta = Some(op),
            Op::Remove(_) => steps.removes.push(op),
        }
    }
    logs.into_iter()
        .map(|s| {
            let mut ops = s.syncs;
            ops.extend(s.meta);
            ops.extend(s.removes);
            (s.log, ops, s.jobs)
        })
        .collect()
}

fn run(batch: Vec<Job>) {
    for (log, ops, jobs) in plan(batch) {
        for op in ops {
            if log.abandoned.load(Ordering::Relaxed) || log.failure.get().is_some() {
                break;
            }
            if let Err(e) = log.execute(op) {
                let _ = log.failure.set(e);
                if let Some(t) = &log.telemetry {
                    t.errors.inc();
                }
            }
        }
        if let Some(t) = &log.telemetry {
            t.pending.add(-jobs);
        }
    }
}

impl LogSync {
    pub(super) fn new(dir: PathBuf, telemetry: Option<SyncTelemetry>) -> Self {
        Self {
            dir,
            telemetry,
            abandoned: AtomicBool::new(false),
            failure: OnceLock::new(),
        }
    }

    /// Queues `op` for this log.
    pub(super) fn push(self: &Arc<Self>, op: Op) {
        if let Some(t) = &self.telemetry {
            t.pending.add(1);
        }
        let mut state = lock();
        state.jobs.push(Job {
            log: Arc::clone(self),
            op,
        });
        state.queued += 1;
        // Unlocked first: the woken thread takes the lock at once.
        drop(state);
        QUEUE.work.notify_one();
    }

    /// Drops this log's queued jobs, and every later one.
    pub(super) fn abandon(&self) {
        self.abandoned.store(true, Ordering::Relaxed);
    }

    /// The error the log's first failed job returned.
    pub(super) fn failure(&self) -> Option<&str> {
        self.failure.get().map(String::as_str)
    }

    fn execute(&self, op: Op) -> Result<(), String> {
        match op {
            Op::Sync(seg, file) => {
                let t0 = Instant::now();
                file.sync_data()
                    .map_err(|e| format!("fsync log segment {seg}: {e}"))?;
                if let Some(t) = &self.telemetry {
                    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    t.profiler.record(PipelineStage::WalFsync, ns);
                }
                Ok(())
            }
            Op::Meta(bytes) => replace_meta(&self.dir, &bytes),
            Op::Remove(seg) => {
                let path = self.dir.join(segment_name(seg));
                fs::remove_file(&path)
                    .map_err(|e| format!("remove log segment {}: {e}", path.display()))
            }
        }
    }
}

/// Replaces `dir`'s offset table atomically: a temporary file, synced,
/// renamed over the old one.
fn replace_meta(dir: &Path, bytes: &[u8]) -> Result<(), String> {
    let tmp = dir.join("offsets.meta.tmp");
    let fail = |what: &str, e: io::Error| format!("{what} {}: {e}", tmp.display());
    let mut f = File::create(&tmp).map_err(|e| fail("create", e))?;
    f.write_all(bytes).map_err(|e| fail("write", e))?;
    f.sync_data().map_err(|e| fail("sync", e))?;
    drop(f);
    fs::rename(&tmp, dir.join("offsets.meta")).map_err(|e| fail("rename", e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("layercake-wal-sync-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A log's planned jobs as tags, in run order.
    fn tags(ops: &[Op]) -> Vec<String> {
        ops.iter()
            .map(|op| match op {
                Op::Sync(seg, _) => format!("sync {seg}"),
                Op::Meta(bytes) => format!("meta {}", String::from_utf8_lossy(bytes)),
                Op::Remove(seg) => format!("remove {seg}"),
            })
            .collect()
    }

    #[test]
    fn queued_syncs_of_one_segment_run_one_fsync() {
        let dir = scratch("one-fsync");
        let registry = TelemetryRegistry::new(1);
        let profiler = Arc::new(StageProfiler::new(&registry, 0));
        let telemetry = SyncTelemetry::new(&registry, Arc::clone(&profiler));
        let log = Arc::new(LogSync::new(dir.clone(), Some(telemetry)));
        let file = Arc::new(File::create(dir.join(segment_name(0))).unwrap());
        let batch = (0..5)
            .map(|_| Job {
                log: Arc::clone(&log),
                op: Op::Sync(0, Arc::clone(&file)),
            })
            .collect();
        run(batch);
        let fsyncs = profiler.stage_histogram(PipelineStage::WalFsync).count();
        assert_eq!(fsyncs, 1, "five queued syncs of one segment");
        assert!(log.failure().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_batch_syncs_records_before_their_offsets_and_deletes_after_them() {
        let dir = std::env::temp_dir();
        let a = Arc::new(LogSync::new(dir.clone(), None));
        let b = Arc::new(LogSync::new(dir, None));
        let file = Arc::new(File::open(std::env::current_exe().unwrap()).unwrap());
        let job = |log: &Arc<LogSync>, op| Job {
            log: Arc::clone(log),
            op,
        };
        let batch = vec![
            job(&a, Op::Sync(0, Arc::clone(&file))),
            job(&a, Op::Meta(b"1".to_vec())),
            job(&b, Op::Meta(b"x".to_vec())),
            // Compaction after the first table released segment 5...
            job(&a, Op::Remove(5)),
            // ...then more records, and a table naming them.
            job(&a, Op::Sync(1, Arc::clone(&file))),
            job(&a, Op::Sync(0, Arc::clone(&file))),
            job(&a, Op::Meta(b"2".to_vec())),
            job(&b, Op::Sync(3, Arc::clone(&file))),
        ];
        let plan = plan(batch);
        assert_eq!(plan.len(), 2);
        let (log, ops, jobs) = &plan[0];
        assert!(Arc::ptr_eq(log, &a));
        assert_eq!(*jobs, 6);
        // Every record synced before the newest table, which names them
        // all; the delete after the table, which still releases it.
        assert_eq!(tags(ops), ["sync 0", "sync 1", "meta 2", "remove 5"]);
        let (log, ops, jobs) = &plan[1];
        assert!(Arc::ptr_eq(log, &b));
        assert_eq!(*jobs, 2);
        assert_eq!(tags(ops), ["sync 3", "meta x"]);
    }
}
