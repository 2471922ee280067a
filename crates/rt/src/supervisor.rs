//! The runtime's supervision layer: crash detection and in-place
//! shard restarts.
//!
//! A dedicated `lc-supervisor` thread listens on a supervision channel
//! for node-thread exit notices (panic or fence, carrying the in-flight
//! frame and the dead inbox receiver) and additionally scans per-shard
//! heartbeat gauges for stalls when
//! [`SupervisionConfig::stall_timeout`] is set. A crashed broker shard
//! is restarted in place under a bounded budget with exponential
//! backoff (the PR 3 breaker shape: the delay doubles per consecutive
//! restart, capped at 64× the base); the restart itself —
//! deterministic state-machine rebuild, muted control-prefix replay,
//! durable-log recovery, `DurableBase` re-emission, router re-wiring
//! and backlog requeue — lives in `runtime.rs`
//! ([`crate::runtime`]'s `perform_restart`). A shard that exhausts its
//! budget is routed to a dead end; from then on its data frames fail
//! soft into the `rt.frames_dropped` ledger instead of wedging
//! publishers.
//!
//! Subscriber threads are supervised for *isolation only*: a subscriber
//! panic is recorded as a [`CrashEntry`] and never takes the process
//! down, but the thread is not restarted — its volatile delivery state
//! died with it, and durable re-subscription is the recovery path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use layercake_event::TypeRegistry;
use layercake_metrics::{Gauge, StageProfiler};
use layercake_overlay::{Broker, SubscriberNode};
use layercake_sim::ActorId;
use layercake_trace::TraceSink;

use crate::runtime::{micros_since, perform_restart, Frame, Router, RtConfig, RtEvent};
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
    /// Whether to run the supervisor thread at all. Off, node panics are
    /// still *isolated* (caught per thread, reported at shutdown) but
    /// nothing restarts.
    pub enabled: bool,
    /// How many restarts each broker shard gets over the runtime's
    /// lifetime before the supervisor gives up and dead-ends its route.
    pub max_restarts: u32,
    /// Base restart delay; consecutive restarts of the same shard double
    /// it, capped at 64× (`base * 2^min(restarts, 6)`).
    pub backoff_base: Duration,
    /// When set, a broker shard whose heartbeat gauge lags the wall
    /// clock by more than this is fenced and replaced like a crash.
    /// `None` (the default) disables stall detection — appropriate when
    /// matcher work may legitimately block (e.g. cold-cache durable
    /// replay under memory pressure). It also decides whether idle node
    /// threads tick: with `None` they block on their inboxes, and the
    /// `rt.heartbeat_us.*` gauge of an idle thread reads the time it
    /// last went to sleep; with a timeout they wake four times per
    /// timeout to refresh it.
    pub stall_timeout: Option<Duration>,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            max_restarts: 8,
            backoff_base: Duration::from_millis(10),
            stall_timeout: None,
        }
    }
}

/// How a supervised node failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// The thread body panicked.
    Panic,
    /// The thread's heartbeat stalled past
    /// [`SupervisionConfig::stall_timeout`] and it was fenced.
    Stall,
}

/// One observed node-thread failure, recovered or not; collected in
/// [`crate::RtReport::crashes`].
#[derive(Debug, Clone)]
pub struct CrashEntry {
    /// The overlay node that failed (broker id, or subscriber node id).
    pub node: ActorId,
    /// The matcher shard index (0 for subscribers).
    pub shard: usize,
    /// Panic or stall.
    pub kind: CrashKind,
    /// The panic payload message, or a heartbeat-age description for
    /// stalls.
    pub detail: String,
    /// The shard's cumulative restart count *after* handling this crash.
    pub restarts: u32,
    /// Whether a replacement thread took over (`false` for spent
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

/// Why a shard thread exited through the notice channel.
pub(crate) enum DownKind {
    Panic,
    /// The supervisor's stall detector fenced it (or a fenced zombie
    /// woke late and is handing its trapped frames back).
    Fence,
}

/// An exit notice from a supervised node thread.
pub(crate) enum Notice {
    ShardDown {
        b: usize,
        shard: usize,
        /// The sender's restart generation; stale notices (from already
        /// replaced generations) are salvaged, not restarted again.
        generation: u64,
        kind: DownKind,
        detail: String,
        /// The frame being processed at the moment of death, if any.
        current: Option<Frame>,
        /// The dead inbox: once the router swaps the shard's sender the
        /// channel closes and the supervisor drains every frame that
        /// made it in — nothing in flight is lost to the race.
        rx: Receiver<RtEvent>,
    },
    SubscriberDown {
        id: ActorId,
        detail: String,
    },
}

/// What a broker shard thread returns through its join handle.
pub(crate) enum ShardOutcome {
    /// Clean exit (poison pill or disconnect) with the final state.
    Clean(Box<Broker>),
    Panicked(String),
    /// Exited because its fence was raised; the replacement owns the
    /// shard now.
    Fenced,
}

/// What a subscriber thread returns through its join handle.
pub(crate) enum SubOutcome {
    Clean(Box<SubscriberNode>),
    Panicked(String),
}

/// Supervision bookkeeping for one broker shard, keyed `(broker id,
/// shard index)` in [`Slots`].
pub(crate) struct ShardSlot {
    /// Topology stage, for teardown ordering (root = highest).
    pub(crate) stage: usize,
    pub(crate) generation: u64,
    pub(crate) restarts: u32,
    /// Control-prefix length the current generation was rebuilt from
    /// (0 for the original); the requeue filter's cutoff for salvaged
    /// control frames.
    pub(crate) replayed: u64,
    pub(crate) fence: Arc<AtomicBool>,
    pub(crate) heartbeat: Arc<Gauge>,
    /// `None` once the shard is dead-ended (budget spent / spawn
    /// failure).
    pub(crate) handle: Option<JoinHandle<ShardOutcome>>,
    /// Permanently given up.
    pub(crate) failed: bool,
    /// A restart is parked/pending; further notices for this shard are
    /// salvage-only until it completes.
    pub(crate) restarting: bool,
}

pub(crate) type Slots = Arc<Mutex<HashMap<(usize, usize), ShardSlot>>>;

/// Everything the supervisor thread (and `perform_restart`) needs.
pub(crate) struct SupervisorShared {
    pub(crate) cfg: RtConfig,
    pub(crate) registry: Arc<TypeRegistry>,
    pub(crate) trace: Option<Arc<TraceSink>>,
    pub(crate) router: Router,
    pub(crate) stats: Arc<RtStats>,
    pub(crate) profiler: Arc<StageProfiler>,
    pub(crate) slots: Slots,
    pub(crate) crashes: Arc<Mutex<Vec<CrashEntry>>>,
    /// Keeps the notice channel open (threads' sends never disconnect)
    /// and arms replacement threads with a sender.
    pub(crate) notice_tx: Sender<Notice>,
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
    stranded: Vec<Frame>,
    park_rx: Receiver<RtEvent>,
}

/// Handle to the running supervisor thread.
pub(crate) struct Supervisor {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Supervisor {
    pub(crate) fn start(
        shared: SupervisorShared,
        notices: Receiver<Notice>,
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

fn supervisor_main(shared: &SupervisorShared, notices: &Receiver<Notice>, stop: &AtomicBool) {
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

/// Dead-ends broker `b` shard `shard` for good once its route fails soft
/// (`Router::fail_shard`): marks the slot failed, counts the give-up and
/// the `lost` data frames, and records the crash as unrecovered. The
/// thread handle is detached — a stalled zombie may sleep forever, and
/// joining it would wedge teardown.
fn give_up(
    shared: &SupervisorShared,
    b: usize,
    shard: usize,
    kind: CrashKind,
    detail: String,
    lost: u64,
) {
    let restarts = lock_slots(shared).get_mut(&(b, shard)).map_or(0, |slot| {
        slot.failed = true;
        slot.restarting = false;
        slot.handle = None;
        slot.restarts
    });
    shared.stats.inc_gave_up();
    shared.stats.add_frames_dropped(lost);
    push_crash(
        shared,
        CrashEntry::unrecovered(ActorId(b), shard, kind, detail, restarts),
    );
}

fn on_notice(shared: &SupervisorShared, notice: Notice, pending: &mut Vec<PendingRestart>) {
    match notice {
        Notice::ShardDown {
            b,
            shard,
            generation,
            kind,
            detail,
            current,
            rx,
        } => {
            let (stale, replayed, restarts, budget_left) = {
                let slots = lock_slots(shared);
                let Some(slot) = slots.get(&(b, shard)) else {
                    return;
                };
                (
                    generation != slot.generation || slot.restarting || slot.failed,
                    slot.replayed,
                    slot.restarts,
                    slot.restarts < shared.cfg.supervision.max_restarts,
                )
            };
            if stale || matches!(kind, DownKind::Fence) {
                // A fenced zombie waking after its replacement took over
                // (or any stale-generation exit): salvage its trapped
                // frames into whatever route is currently live. During a
                // pending restart that route is the park channel, so the
                // frames still reach the eventual replacement.
                let (requeued, lost) = shared
                    .router
                    .requeue_stranded(b, shard, current, &rx, replayed);
                shared.stats.add_frames_requeued(requeued);
                shared.stats.add_frames_dropped(lost);
                return;
            }
            // A current-generation panic.
            if !budget_left {
                let lost = shared.router.fail_shard(b, shard, current, Some(&rx));
                return give_up(shared, b, shard, CrashKind::Panic, detail, lost);
            }
            {
                let mut slots = lock_slots(shared);
                if let Some(slot) = slots.get_mut(&(b, shard)) {
                    slot.restarting = true;
                }
            }
            // Park the route first (closing the dead channel), then
            // drain the dead inbox completely — the order guarantees no
            // in-flight frame slips between drain and swap.
            let park_rx = shared.router.park_shard(b, shard);
            let mut stranded = Vec::new();
            if let Some(frame) = current {
                stranded.push(frame);
            }
            while let Ok(ev) = rx.try_recv() {
                if let RtEvent::Frame(frame) = ev {
                    stranded.push(frame);
                }
            }
            let now = Instant::now();
            pending.push(PendingRestart {
                b,
                shard,
                due: now + backoff(shared.cfg.supervision.backoff_base, restarts),
                noticed_at: now,
                kind: CrashKind::Panic,
                detail,
                stranded,
                park_rx,
            });
        }
        Notice::SubscriberDown { id, detail } => {
            push_crash(
                shared,
                CrashEntry::unrecovered(id, 0, CrashKind::Panic, detail, 0),
            );
        }
    }
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
        stranded,
        park_rx,
        ..
    } = restart;
    match perform_restart(shared, b, shard, stranded, &park_rx) {
        Ok(requeued) => {
            shared.stats.inc_restarts();
            shared.stats.add_frames_requeued(requeued);
            shared.stats.record_restart_ns(
                u64::try_from(noticed_at.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
            let restarts = lock_slots(shared)
                .get(&(b, shard))
                .map_or(0, |slot| slot.restarts);
            push_crash(
                shared,
                CrashEntry {
                    node: ActorId(b),
                    shard,
                    kind,
                    detail,
                    restarts,
                    recovered: true,
                },
            );
        }
        Err((err, lost)) => {
            let detail = format!("{detail}; restart failed: {err}");
            give_up(shared, b, shard, kind, detail, lost);
        }
    }
}

/// Fences and schedules replacement for any shard whose heartbeat gauge
/// lags the wall clock by more than `timeout`. The stalled thread still
/// owns its inbox; replacement starts with an empty backlog, and the
/// zombie's trapped frames are salvaged when (if) it wakes and exits
/// through the fence path.
fn scan_stalls(shared: &SupervisorShared, timeout: Duration, pending: &mut Vec<PendingRestart>) {
    let now_us = micros_since(shared.router.epoch);
    let timeout_us = u64::try_from(timeout.as_micros()).unwrap_or(u64::MAX);
    // (b, shard, restarts, heartbeat age µs) to restart; (b, shard, age)
    // to give up on. Route edits happen after the slots lock drops — the
    // router write lock is never nested inside it.
    let mut to_restart: Vec<(usize, usize, u32, u64)> = Vec::new();
    let mut to_fail: Vec<(usize, usize, u64)> = Vec::new();
    {
        let mut slots = lock_slots(shared);
        for (&(b, shard), slot) in slots.iter_mut() {
            if slot.failed || slot.restarting || slot.handle.is_none() {
                continue;
            }
            let hb = u64::try_from(slot.heartbeat.get()).unwrap_or(0);
            let age = now_us.saturating_sub(hb);
            if age <= timeout_us {
                continue;
            }
            shared.stats.inc_stalls();
            slot.fence.store(true, Ordering::Relaxed);
            if slot.restarts < shared.cfg.supervision.max_restarts {
                slot.restarting = true;
                to_restart.push((b, shard, slot.restarts, age));
            } else {
                // If the zombie ever wakes, its fence notice is salvaged
                // against the dead-end route (counted loss).
                to_fail.push((b, shard, age));
            }
        }
    }
    for (b, shard, restarts, age) in to_restart {
        let park_rx = shared.router.park_shard(b, shard);
        let now = Instant::now();
        pending.push(PendingRestart {
            b,
            shard,
            due: now + backoff(shared.cfg.supervision.backoff_base, restarts),
            noticed_at: now,
            kind: CrashKind::Stall,
            detail: format!("heartbeat stalled for {age}µs"),
            stranded: Vec::new(),
            park_rx,
        });
    }
    for (b, shard, age) in to_fail {
        let lost = shared.router.fail_shard(b, shard, [], None);
        let detail = format!("heartbeat stalled for {age}µs; restart budget spent");
        give_up(shared, b, shard, CrashKind::Stall, detail, lost);
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
