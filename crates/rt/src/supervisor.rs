//! The runtime's supervision layer: crash detection and in-place
//! shard restarts.
//!
//! A dedicated `lc-supervisor` thread listens on a supervision channel
//! for broker shard panic notices (carrying the in-flight frame), sent by
//! the worker that ran the shard, and additionally scans every worker's
//! busy stamp for stalls when [`SupervisionConfig::stall_timeout`] is set.
//! A crashed broker shard is restarted in place under a bounded budget
//! with exponential backoff (the PR 3 breaker shape: the delay doubles per
//! consecutive restart, capped at 64× the base). A shard keeps its inbox
//! and its worker slot for the runtime's life, so the restart itself —
//! deterministic state-machine rebuild, muted control-prefix replay,
//! durable-log recovery, `DurableBase` re-emission, the successor stored
//! in the crashed generation's slot — touches no route; it lives in
//! `runtime.rs` ([`crate::runtime`]'s `perform_restart`). A shard that
//! exhausts its budget is routed to a dead end; from then on its data
//! frames fail soft into the `rt.frames_dropped` ledger instead of
//! wedging publishers.
//!
//! Subscribers are supervised for *isolation only*: a subscriber panic is
//! recorded as a [`CrashEntry`] and never takes the process or its
//! worker's other nodes down, but the subscriber is not restarted — its
//! volatile delivery state died with it, and durable re-subscription is
//! the recovery path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use layercake_event::TypeRegistry;
use layercake_overlay::Broker;
use layercake_sim::ActorId;
use layercake_trace::TraceSink;

use crate::driver::SharedRx;
use crate::executor::{Executor, Worker};
use crate::runtime::{micros_since, perform_restart, Router, RtConfig, RtEvent};
use crate::stats::RtStats;

/// How often the supervisor wakes without notices (to run due restarts
/// and scan for stalls).
const SUP_TICK: Duration = Duration::from_millis(10);

/// Extra wait in the stopping supervisor's final notice sweep when the
/// fault plan arms per-shard faults: a panic injected just before the
/// plan was disarmed may still be unwinding, and its exit notice must
/// land while the supervisor can still restart the shard. Plans without
/// shard faults skip the wait entirely.
const FAULT_DRAIN_GRACE: Duration = Duration::from_millis(20);

/// Cap on the exponential backoff multiplier: `2^6` — the PR 3 breaker
/// shape (doubling, capped at 64× base).
const MAX_BACKOFF_SHIFT: u32 = 6;

/// Crash-recovery policy for the runtime, set via
/// [`crate::RtConfig::supervision`].
#[derive(Debug, Clone)]
pub struct SupervisionConfig {
    /// How many restarts each broker shard gets over the runtime's
    /// lifetime before the supervisor gives up and dead-ends its route.
    pub max_restarts: u32,
    /// Base restart delay; consecutive restarts of the same shard double
    /// it, capped at 64× (`base * 2^min(restarts, 6)`).
    pub backoff_base: Duration,
    /// When set, a worker whose running slice began more than this long
    /// ago is stalled: its other nodes and its run-queue move to a fresh
    /// worker thread, and a broker shard stuck in that slice is fenced and
    /// replaced like a crash. The scan reads each worker's
    /// `rt.worker_busy_since_us.w{n}` stamp, 0 while it is idle, so an idle
    /// runtime never wakes for it. `None` (the default) disables stall
    /// detection — appropriate when matcher work may legitimately block
    /// (e.g. cold-cache durable replay under memory pressure).
    pub stall_timeout: Option<Duration>,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        Self {
            max_restarts: 8,
            backoff_base: Duration::from_millis(10),
            stall_timeout: None,
        }
    }
}

/// How a supervised node failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// The node panicked.
    Panic,
    /// One turn of the node ran past
    /// [`SupervisionConfig::stall_timeout`] and it was fenced.
    Stall,
}

/// One observed node failure, recovered or not; collected in
/// [`crate::RtReport::crashes`].
#[derive(Debug, Clone)]
pub struct CrashEntry {
    /// The overlay node that failed (broker id, or subscriber node id).
    pub node: ActorId,
    /// The matcher shard index (0 for subscribers).
    pub shard: usize,
    /// Panic or stall.
    pub kind: CrashKind,
    /// The panic payload message, or the stall timeout a turn ran past.
    pub detail: String,
    /// The shard's cumulative restart count *after* handling this crash.
    pub restarts: u32,
    /// Whether a replacement took over (`false` for spent
    /// budgets, subscriber panics, and teardown-time findings).
    pub recovered: bool,
}

impl CrashEntry {
    /// A failure no replacement took over from.
    pub(crate) fn unrecovered(
        node: ActorId,
        shard: usize,
        kind: CrashKind,
        detail: String,
        restarts: u32,
    ) -> Self {
        Self {
            node,
            shard,
            kind,
            detail,
            restarts,
            recovered: false,
        }
    }
}

/// A broker shard's panic notice, from the worker that ran it. Only the
/// live generation sends one: a zombie's slice ends fenced.
pub(crate) struct ShardDown {
    pub(crate) b: usize,
    pub(crate) shard: usize,
    pub(crate) detail: String,
    /// What it took off the inbox and left unhandled: its successor's
    /// first frame.
    pub(crate) current: Option<RtEvent>,
}

/// Supervision bookkeeping for one broker shard, keyed `(broker id,
/// shard index)` in [`Slots`].
pub(crate) struct ShardSlot {
    /// Topology stage, for teardown ordering (root = highest).
    pub(crate) stage: usize,
    pub(crate) restarts: u32,
    /// The live generation's; the stall detector sets it.
    pub(crate) fence: Arc<AtomicBool>,
    /// The inbox every generation reads.
    pub(crate) rx: SharedRx,
    /// The worker, and the slot on it, that every generation runs in.
    pub(crate) worker: Arc<Worker>,
    pub(crate) worker_slot: usize,
    /// Where every generation reports its exit.
    pub(crate) done_tx: Sender<Result<Box<Broker>, String>>,
    /// Where teardown reads it; `None` once the shard is dead-ended
    /// (budget spent / failed restart).
    pub(crate) done: Option<Receiver<Result<Box<Broker>, String>>>,
}

pub(crate) type Slots = Arc<Mutex<HashMap<(usize, usize), ShardSlot>>>;

/// Everything the supervisor thread (and `perform_restart`) needs.
pub(crate) struct SupervisorShared {
    pub(crate) cfg: RtConfig,
    pub(crate) registry: Arc<TypeRegistry>,
    pub(crate) trace: Option<Arc<TraceSink>>,
    pub(crate) router: Router,
    pub(crate) stats: Arc<RtStats>,
    pub(crate) slots: Slots,
    pub(crate) crashes: Arc<Mutex<Vec<CrashEntry>>>,
    /// Keeps the notice channel open (workers' sends never disconnect)
    /// and arms replacement generations with a sender.
    pub(crate) notice_tx: Sender<ShardDown>,
    /// Whose workers the stall scan reads.
    pub(crate) executor: Arc<Executor>,
}

/// A restart waiting out its backoff delay.
struct PendingRestart {
    b: usize,
    shard: usize,
    due: Instant,
    /// When the crash was noticed — MTTR (`rt.restart_ns`) measures from
    /// here to restart completion, backoff included.
    noticed_at: Instant,
    kind: CrashKind,
    detail: String,
    /// The crashed generation's in-flight frame.
    current: Option<RtEvent>,
}

/// Handle to the running supervisor thread.
pub(crate) struct Supervisor {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Supervisor {
    pub(crate) fn start(
        shared: SupervisorShared,
        notices: Receiver<ShardDown>,
    ) -> std::io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("lc-supervisor".to_string())
            .spawn(move || supervisor_main(&shared, &notices, &thread_stop))?;
        Ok(Self {
            stop,
            handle: Some(handle),
        })
    }

    /// Signals the supervisor to finish: it drains outstanding notices,
    /// force-completes pending restarts (skipping leftover backoff so
    /// teardown never races a half-restarted shard), and exits.
    pub(crate) fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn supervisor_main(shared: &SupervisorShared, notices: &Receiver<ShardDown>, stop: &AtomicBool) {
    let mut pending: Vec<PendingRestart> = Vec::new();
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let timeout = if stopping {
            Duration::ZERO
        } else {
            pending
                .iter()
                .map(|p| p.due.saturating_duration_since(Instant::now()))
                .min()
                .unwrap_or(SUP_TICK)
                .min(SUP_TICK)
        };
        match notices.recv_timeout(timeout) {
            Ok(notice) => {
                on_notice(shared, notice, &mut pending);
                while let Ok(notice) = notices.try_recv() {
                    on_notice(shared, notice, &mut pending);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            // Unreachable: `shared.notice_tx` keeps the channel open.
            Err(RecvTimeoutError::Disconnected) => {}
        }
        run_due(shared, &mut pending, stopping);
        if !stopping {
            if let Some(timeout) = shared.cfg.supervision.stall_timeout {
                scan_stalls(shared, timeout, &mut pending);
            }
        }
        if stopping && pending.is_empty() {
            // One final sweep: a notice may have raced the stop flag —
            // or, under an armed fault plan, a just-injected panic may
            // still be unwinding toward its exit notice.
            let grace = if shared.router.fault.injects_shard_faults() {
                FAULT_DRAIN_GRACE
            } else {
                Duration::ZERO
            };
            if let Ok(notice) = notices.recv_timeout(grace) {
                on_notice(shared, notice, &mut pending);
            }
            while let Ok(notice) = notices.try_recv() {
                on_notice(shared, notice, &mut pending);
            }
            run_due(shared, &mut pending, true);
            if pending.is_empty() {
                break;
            }
        }
    }
}

fn lock_slots(
    shared: &SupervisorShared,
) -> std::sync::MutexGuard<'_, HashMap<(usize, usize), ShardSlot>> {
    shared.slots.lock().unwrap_or_else(PoisonError::into_inner)
}

fn push_crash(shared: &SupervisorShared, entry: CrashEntry) {
    shared
        .crashes
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(entry);
}

/// Dead-ends broker `b` shard `shard` for good ([`Router::dead_end`]):
/// counts the give-up, the in-flight frame `current` and the inbox's data
/// frames as dropped, and records the crash as unrecovered. Its outcome
/// receiver goes — a stalled zombie may sleep forever, and waiting for it
/// would wedge teardown.
fn give_up(
    shared: &SupervisorShared,
    b: usize,
    shard: usize,
    kind: CrashKind,
    detail: String,
    current: Option<RtEvent>,
) {
    let Some((rx, restarts)) = lock_slots(shared).get_mut(&(b, shard)).map(|slot| {
        slot.done = None;
        (Arc::clone(&slot.rx), slot.restarts)
    }) else {
        return;
    };
    // The router's write lock is never taken under the slots lock.
    shared.router.dead_end(b, shard, &rx, &shared.stats);
    shared.stats.inc_gave_up();
    shared
        .stats
        .add_frames_dropped(u64::from(current.as_ref().is_some_and(RtEvent::is_data)));
    push_crash(
        shared,
        CrashEntry::unrecovered(ActorId(b), shard, kind, detail, restarts),
    );
}

/// Schedules the restart of a panicked shard.
fn on_notice(shared: &SupervisorShared, notice: ShardDown, pending: &mut Vec<PendingRestart>) {
    let ShardDown {
        b,
        shard,
        detail,
        current,
    } = notice;
    let Some(restarts) = lock_slots(shared).get(&(b, shard)).map(|slot| {
        // The panic's exit report: a successor sends its own.
        let _ = slot.done.as_ref().map(Receiver::try_recv);
        slot.restarts
    }) else {
        return;
    };
    schedule(
        shared,
        pending,
        (b, shard),
        restarts,
        CrashKind::Panic,
        detail,
        current,
    );
}

/// Restarts broker `b` shard `shard` once its backoff is over, or gives
/// it up at once when its budget is spent.
fn schedule(
    shared: &SupervisorShared,
    pending: &mut Vec<PendingRestart>,
    (b, shard): (usize, usize),
    restarts: u32,
    kind: CrashKind,
    detail: String,
    current: Option<RtEvent>,
) {
    if restarts >= shared.cfg.supervision.max_restarts {
        let detail = format!("{detail}; restart budget spent");
        return give_up(shared, b, shard, kind, detail, current);
    }
    let now = Instant::now();
    pending.push(PendingRestart {
        b,
        shard,
        due: now + backoff(shared.cfg.supervision.backoff_base, restarts),
        noticed_at: now,
        kind,
        detail,
        current,
    });
}

/// `base * 2^min(restarts, 6)` — doubling backoff capped at 64× base,
/// the same shape as the overlay's PR 3 retry breaker.
fn backoff(base: Duration, restarts: u32) -> Duration {
    base * (1u32 << restarts.min(MAX_BACKOFF_SHIFT))
}

/// Completes every due pending restart (all of them when `force`).
fn run_due(shared: &SupervisorShared, pending: &mut Vec<PendingRestart>, force: bool) {
    let mut i = 0;
    while i < pending.len() {
        if force || pending[i].due <= Instant::now() {
            let restart = pending.swap_remove(i);
            complete_restart(shared, restart);
        } else {
            i += 1;
        }
    }
}

fn complete_restart(shared: &SupervisorShared, restart: PendingRestart) {
    let PendingRestart {
        b,
        shard,
        noticed_at,
        kind,
        detail,
        current,
        ..
    } = restart;
    let requeued = u64::from(current.as_ref().is_some_and(RtEvent::is_data));
    let recovered = |restarts| {
        shared.stats.inc_restarts();
        shared.stats.add_frames_requeued(requeued);
        shared
            .stats
            .record_restart_ns(u64::try_from(noticed_at.elapsed().as_nanos()).unwrap_or(u64::MAX));
        push_crash(
            shared,
            CrashEntry {
                node: ActorId(b),
                shard,
                kind,
                detail: detail.clone(),
                restarts,
                recovered: true,
            },
        );
    };
    if let Err((err, current)) = perform_restart(shared, b, shard, current, recovered) {
        let detail = format!("{detail}; restart failed: {err}");
        give_up(shared, b, shard, kind, detail, current);
    }
}

/// Hands every worker whose running slice began more than `timeout` ago
/// to a fresh thread, and fences and schedules replacement for the broker
/// shard stuck in that slice. The successor reads the shard's inbox while
/// the zombie sleeps; a zombie that wakes hands its in-flight frame back
/// to the inbox and leaves. A stuck subscriber is not fenced: it rejoins
/// its worker when its slice returns.
fn scan_stalls(shared: &SupervisorShared, timeout: Duration, pending: &mut Vec<PendingRestart>) {
    let timeout_us = u64::try_from(timeout.as_micros()).unwrap_or(u64::MAX);
    let cutoff = micros_since(shared.router.epoch).saturating_sub(timeout_us);
    for worker in shared.executor.workers() {
        let Some((b, shard)) = worker.replace_if_stalled(cutoff) else {
            continue;
        };
        let Some(restarts) = lock_slots(shared).get(&(b, shard)).map(|slot| {
            slot.fence.store(true, Ordering::Relaxed);
            slot.restarts
        }) else {
            continue;
        };
        shared.stats.inc_stalls();
        let detail = format!("a turn ran past the {timeout:?} stall timeout");
        schedule(
            shared,
            pending,
            (b, shard),
            restarts,
            CrashKind::Stall,
            detail,
            None,
        );
    }
}

/// Renders a panic payload: `&str` and `String` payloads verbatim (the
/// overwhelmingly common cases), a placeholder otherwise.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
