//! Nodes are tasks, and a few workers run them.
//!
//! A [`Worker`] is one OS thread with a run-queue of nodes ([`Task`]s), a
//! heap of their timer deadlines and a condvar to park on. Nodes share at
//! most `available_parallelism()` workers, handed out round-robin as nodes
//! arrive ([`Executor::worker`]), so there are never more workers than
//! nodes. No turn blocks on storage: a durable log's fsyncs run on the
//! process's sync thread (`layercake_overlay::wal`).
//!
//! A push into a node's inbox ([`Inbox::push`]) that finds the node's
//! `scheduled` flag clear sets it, queues the node and wakes its worker if
//! it is parked. A worker pops a node and runs one slice of it outside its
//! lock; a node with frames left is queued again, and one whose inbox ran
//! dry clears its flag and then looks at the inbox once more, so no push
//! is lost. An idle worker parks until its earliest deadline or a push.
//!
//! A node's slot outlives the node: a restarted broker shard's successor
//! is stored in the crashed generation's slot ([`Worker::rehost`]), so its
//! inbox and its waker never change. A slot's `scheduled` flag stays set
//! from the crash until then, and pushes meanwhile only queue frames.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use layercake_event::Envelope;
use layercake_metrics::{Gauge, TelemetryRegistry};

use crate::driver::LoopExit;
use crate::runtime::{micros_since, RtEvent};
use crate::supervisor::panic_message;

/// The most frames a node takes in one slice before its worker moves on.
pub(crate) const SLICE_FRAMES: usize = 64;

/// The most tap deliveries a busy worker holds before it hands them on.
const HELD_MAX: usize = 1024;

/// How a slice ended.
pub(crate) enum Slice {
    Drained,
    More,
    Exit(LoopExit),
}

/// One node and its inbox, as a worker runs it.
pub(crate) trait Task: Send {
    /// At most [`SLICE_FRAMES`] frames, the due timers, the after-slice
    /// step.
    fn slice(&mut self) -> Slice;
    /// Looks at the inbox once more; `true` when the node has work.
    fn recheck(&mut self) -> bool;
    /// The earliest timer deadline, in µs since the runtime epoch.
    fn deadline(&self) -> Option<u64>;
    /// How the node ended, or the message of the panic out of its slice.
    fn exit(self: Box<Self>, exit: Result<LoopExit, String>);
}

/// A node's inbox as its senders hold it.
#[derive(Clone)]
pub(crate) struct Inbox {
    tx: Sender<RtEvent>,
    /// `None` for a channel no worker runs (a dead end).
    waker: Option<Arc<Waker>>,
}

impl Inbox {
    pub(crate) fn unhosted(tx: Sender<RtEvent>) -> Self {
        Self { tx, waker: None }
    }

    /// Sends `ev` and schedules the node; `false` when the inbox is gone.
    pub(crate) fn push(&self, ev: RtEvent) -> bool {
        let sent = self.tx.send(ev).is_ok();
        if let Some(waker) = self.waker.as_ref().filter(|_| sent) {
            // Pairs with the fence in `State::put_back`: either its
            // re-check sees this frame, or this swap sees the flag clear.
            fence(Ordering::SeqCst);
            if !waker.scheduled.swap(true, Ordering::SeqCst) {
                waker.worker.lock().queue(&waker.worker.wake, waker.slot);
            }
        }
        sent
    }
}

pub(crate) struct Waker {
    scheduled: AtomicBool,
    worker: Arc<Worker>,
    slot: usize,
}

struct Entry {
    /// `None` while a thread runs it, and for good once it has exited.
    task: Option<Box<dyn Task>>,
    waker: Arc<Waker>,
    /// `(broker, shard)` of a broker shard: what a stall fences.
    shard: Option<(usize, usize)>,
    /// Bumped when a stall revokes the running task's hold on the slot and
    /// when a successor is hosted in it: a slice that returns under an
    /// older lease is a zombie's.
    lease: u64,
    /// The earliest deadline of this slot in the heap.
    armed: Option<u64>,
}

#[derive(Default)]
struct State {
    ready: VecDeque<usize>,
    entries: Vec<Entry>,
    deadlines: BinaryHeap<Reverse<(u64, usize)>>,
    /// Tap deliveries, sent on by [`Worker::hand_off`].
    held: Vec<(Sender<Envelope>, Vec<Envelope>)>,
    held_count: usize,
    /// Which thread serves the worker; a replaced one leaves after its
    /// slice.
    owner: u64,
    running: Option<usize>,
    parked: bool,
    stop: bool,
    thread: Option<JoinHandle<()>>,
}

impl State {
    fn queue(&mut self, wake: &Condvar, slot: usize) {
        self.ready.push_back(slot);
        if self.parked {
            wake.notify_one();
        }
    }

    fn fire_deadlines(&mut self, now: u64) {
        while let Some(&Reverse((at, slot))) = self.deadlines.peek().filter(|d| d.0 .0 <= now) {
            self.deadlines.pop();
            let entry = &mut self.entries[slot];
            entry.armed = entry.armed.filter(|&armed| armed != at);
            if !entry.waker.scheduled.swap(true, Ordering::SeqCst) {
                self.ready.push_back(slot);
            }
        }
    }

    /// Hosts `task` again after a slice, queues it if it has work, and
    /// arms its next deadline.
    fn put_back(&mut self, slot: usize, mut task: Box<dyn Task>, more: bool) {
        let entry = &mut self.entries[slot];
        let mut again = more;
        if !again {
            entry.waker.scheduled.store(false, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            // A push that finds the flag set again has queued the node.
            again = task.recheck() && !entry.waker.scheduled.swap(true, Ordering::SeqCst);
        }
        if let Some(at) = task
            .deadline()
            .filter(|&at| entry.armed.is_none_or(|a| at < a))
        {
            entry.armed = Some(at);
            self.deadlines.push(Reverse((at, slot)));
        }
        entry.task = Some(task);
        if again {
            self.ready.push_back(slot);
        }
    }
}

/// One OS thread's worth of nodes.
pub(crate) struct Worker {
    state: Mutex<State>,
    wake: Condvar,
    /// `rt.worker_busy_since_us.w{n}`: µs since the epoch when the running
    /// slice began, 0 while idle. The stall scan reads it.
    busy_since: Arc<Gauge>,
    epoch: Instant,
    name: String,
}

impl Worker {
    fn start(n: usize, epoch: Instant, registry: &TelemetryRegistry) -> io::Result<Arc<Self>> {
        let worker = Arc::new(Self {
            state: Mutex::default(),
            wake: Condvar::new(),
            busy_since: registry.gauge(&format!("rt.worker_busy_since_us.w{n}")),
            epoch,
            name: format!("lc-worker-{n}"),
        });
        let thread = worker.spawn(0)?;
        worker.lock().thread = Some(thread);
        Ok(worker)
    }

    /// Survives poison: slices panic outside the lock.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn spawn(self: &Arc<Self>, owner: u64) -> io::Result<JoinHandle<()>> {
        let worker = Arc::clone(self);
        std::thread::Builder::new()
            .name(self.name.clone())
            .spawn(move || worker.run(owner))
    }

    /// Hosts `task`, whose inbox `tx` is, in a new slot, and schedules it
    /// once in case the inbox already holds a backlog. Returns the inbox
    /// and the slot.
    pub(crate) fn host(
        self: &Arc<Self>,
        tx: Sender<RtEvent>,
        shard: Option<(usize, usize)>,
        task: Box<dyn Task>,
    ) -> (Inbox, usize) {
        let mut state = self.lock();
        let slot = state.entries.len();
        let waker = Arc::new(Waker {
            scheduled: AtomicBool::new(true),
            worker: Arc::clone(self),
            slot,
        });
        state.entries.push(Entry {
            task: Some(task),
            waker: Arc::clone(&waker),
            shard,
            lease: 0,
            armed: None,
        });
        state.queue(&self.wake, slot);
        let waker = Some(waker);
        (Inbox { tx, waker }, slot)
    }

    /// Hosts `task`, a crashed or fenced node's successor, in its slot and
    /// schedules it: the slot's flag has stayed set since the crash, so
    /// what was pushed meanwhile waits in the inbox.
    pub(crate) fn rehost(&self, slot: usize, task: Box<dyn Task>) {
        let mut state = self.lock();
        let entry = &mut state.entries[slot];
        entry.task = Some(task);
        entry.lease += 1;
        state.queue(&self.wake, slot);
    }

    /// Holds tap deliveries until the worker hands them on.
    pub(crate) fn hold(&self, tap: &Sender<Envelope>, batch: Vec<Envelope>) {
        let mut state = self.lock();
        state.held_count += batch.len();
        state.held.push((tap.clone(), batch));
    }

    /// The thread: pops a node, runs a slice of it outside the lock,
    /// hosts it again. Leaves when stopped and idle, or once replaced.
    fn run(&self, me: u64) {
        let mut yielded = false;
        let mut state = self.lock();
        while state.owner == me {
            let now = micros_since(self.epoch);
            state.fire_deadlines(now);
            let Some(slot) = state.ready.pop_front() else {
                if !yielded || state.stop {
                    // Let a waiting publisher finish its tick before
                    // parking; hand on held deliveries.
                    yielded = true;
                    state = self.hand_off(state);
                    if state.stop {
                        // Drops the wakers' references back to this worker.
                        state.entries.clear();
                        return;
                    }
                    continue;
                }
                state.parked = true;
                let next = state.deadlines.peek().map(|d| d.0 .0);
                let wait = next.map_or(Duration::MAX, |at| {
                    Duration::from_micros(at.saturating_sub(now))
                });
                let waited = self.wake.wait_timeout(state, wait);
                state = waited.map_or_else(|e| e.into_inner().0, |(state, _)| state);
                state.parked = false;
                continue;
            };
            yielded = false;
            // Only an exited node has no task: its flag stays set, so
            // nothing queues it, and a running one is never queued.
            let Some(mut task) = state.entries[slot].task.take() else {
                continue;
            };
            let lease = state.entries[slot].lease;
            state.running = Some(slot);
            self.busy_since
                .set(i64::try_from(now.max(1)).unwrap_or(i64::MAX));
            drop(state);
            let end = catch_unwind(AssertUnwindSafe(|| task.slice()));
            state = self.lock();
            if state.owner == me {
                state.running = None;
                self.busy_since.set(0);
            }
            // A stall revoked the slot, or a successor holds it: the zombie
            // leaves, whatever its slice said.
            let zombie = state.entries.get(slot).is_none_or(|e| e.lease != lease);
            let end = match end {
                _ if zombie => Err(Ok(LoopExit::Fenced)),
                Ok(Slice::Drained) => Ok(false),
                Ok(Slice::More) => Ok(true),
                Ok(Slice::Exit(exit)) => Err(Ok(exit)),
                Err(payload) => Err(Err(panic_message(payload.as_ref()))),
            };
            match end {
                Ok(more) => state.put_back(slot, task, more),
                Err(exit) => {
                    drop(state);
                    task.exit(exit);
                    state = self.lock();
                }
            }
            if state.owner != me {
                // What this thread queued or armed is its successor's.
                self.wake.notify_one();
            } else if state.held_count >= HELD_MAX {
                state = self.hand_off(state);
            }
        }
    }

    /// Yields the CPU, then sends the held tap deliveries. On one CPU a
    /// thread woken by a send preempts a sender that has had more than its
    /// share of the CPU — as a busy worker has, beside a publisher waiting
    /// for the CPU — and every delivery sent then costs the worker a round
    /// trip to the tap's reader. Just after a yield, the worker has just
    /// been picked to run: the reader wakes behind it and takes the batch.
    fn hand_off<'a>(&'a self, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        drop(state);
        std::thread::yield_now();
        let mut state = self.lock();
        state.held_count = 0;
        for (tap, batch) in state.held.drain(..) {
            for env in batch {
                let _ = tap.send(env);
            }
        }
        state
    }

    /// When the running slice began at or before `cutoff` (µs since the
    /// epoch), hands the worker to a fresh thread; the stuck thread keeps
    /// its node until the slice returns. A stuck subscriber then rejoins
    /// the worker; a stuck broker shard has lost its slot and leaves
    /// fenced, and its `(broker, shard)` is returned for a restart.
    pub(crate) fn replace_if_stalled(self: &Arc<Self>, cutoff: u64) -> Option<(usize, usize)> {
        let mut state = self.lock();
        // Stamped and cleared under the lock, so it is `running`'s.
        let since = u64::try_from(self.busy_since.get()).unwrap_or(0);
        let slot = state.running.filter(|_| since != 0 && since <= cutoff)?;
        // The new thread waits on this lock, so it finds itself the owner;
        // if none starts, the stuck thread stays in charge until next scan.
        state.thread = Some(self.spawn(state.owner + 1).ok()?);
        state.owner += 1;
        state.running = None;
        self.busy_since.set(0);
        let entry = &mut state.entries[slot];
        entry.lease += u64::from(entry.shard.is_some());
        entry.shard
    }
}

/// Every worker of one runtime.
pub(crate) struct Executor {
    epoch: Instant,
    registry: Arc<TelemetryRegistry>,
    cores: usize,
    pool: Mutex<Pool>,
}

#[derive(Default)]
struct Pool {
    all: Vec<Arc<Worker>>,
    /// Nodes placed so far.
    placed: usize,
}

impl Executor {
    pub(crate) fn new(epoch: Instant, registry: &Arc<TelemetryRegistry>) -> Self {
        Self {
            epoch,
            registry: Arc::clone(registry),
            cores: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            pool: Mutex::default(),
        }
    }

    /// The worker for the next node: the next one in turn, started while
    /// fewer than one per core exist.
    pub(crate) fn worker(&self) -> io::Result<Arc<Worker>> {
        let mut pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        if pool.all.len() == self.cores {
            pool.placed += 1;
            return Ok(Arc::clone(&pool.all[(pool.placed - 1) % self.cores]));
        }
        let worker = Worker::start(pool.all.len(), self.epoch, &self.registry)?;
        pool.all.push(Arc::clone(&worker));
        pool.placed += 1;
        let count = i64::try_from(pool.all.len()).unwrap_or(i64::MAX);
        self.registry.gauge("rt.workers").set(count);
        Ok(worker)
    }

    /// Every worker, for the stall scan.
    pub(crate) fn workers(&self) -> Vec<Arc<Worker>> {
        let pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        pool.all.clone()
    }

    /// Stops and joins every worker, once every node has exited.
    pub(crate) fn stop(&self) {
        for worker in self.workers() {
            let thread = {
                let mut state = worker.lock();
                state.stop = true;
                worker.wake.notify_one();
                state.thread.take()
            };
            if let Some(thread) = thread {
                let _ = thread.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::{channel, Receiver};

    use super::*;

    const WAIT: Duration = Duration::from_secs(5);

    /// A node that reports each slice and its exit on `seen`, waits for
    /// `gate` in its slices while it has one, and has work when its inbox
    /// holds an event.
    struct Probe {
        name: &'static str,
        seen: Sender<String>,
        gate: Option<Receiver<()>>,
        inbox: Option<Receiver<RtEvent>>,
        panics: bool,
    }

    impl Probe {
        fn new(name: &'static str, seen: &Sender<String>) -> Box<Self> {
            Box::new(Self {
                name,
                seen: seen.clone(),
                gate: None,
                inbox: None,
                panics: false,
            })
        }

        fn gated(mut self: Box<Self>, gate: Receiver<()>) -> Box<Self> {
            self.gate = Some(gate);
            self
        }

        fn reading(mut self: Box<Self>, inbox: Receiver<RtEvent>) -> Box<Self> {
            self.inbox = Some(inbox);
            self
        }
    }

    impl Task for Probe {
        fn slice(&mut self) -> Slice {
            let _ = self.seen.send(format!("{} slice", self.name));
            if let Some(gate) = &self.gate {
                let _ = gate.recv();
            }
            assert!(!self.panics, "{} panics", self.name);
            Slice::Drained
        }

        fn recheck(&mut self) -> bool {
            self.inbox.as_ref().is_some_and(|rx| rx.try_recv().is_ok())
        }

        fn deadline(&self) -> Option<u64> {
            None
        }

        fn exit(self: Box<Self>, exit: Result<LoopExit, String>) {
            let how = match exit {
                Ok(LoopExit::Clean) => "clean",
                Ok(LoopExit::Fenced) => "fenced",
                Err(_) => "panicked",
            };
            let _ = self.seen.send(format!("{} {how}", self.name));
        }
    }

    fn worker() -> (Executor, Arc<Worker>) {
        let executor = Executor::new(Instant::now(), &Arc::new(TelemetryRegistry::new(1)));
        let worker = executor.worker().unwrap();
        (executor, worker)
    }

    #[track_caller]
    fn next(seen: &Receiver<String>) -> String {
        seen.recv_timeout(WAIT).expect("the worker went quiet")
    }

    /// Every restart stores its successor in the crashed node's slot: the
    /// worker's slots do not grow, and pushes reach the successor.
    #[test]
    fn rehost_reuses_the_slot() {
        let (executor, worker) = worker();
        let (seen_tx, seen) = channel();
        let panicking = |name| {
            let mut probe = Probe::new(name, &seen_tx);
            probe.panics = true;
            probe
        };
        let (tx, rx) = channel();
        let (inbox, slot) = worker.host(tx, Some((0, 0)), panicking("g0"));
        assert_eq!(next(&seen), "g0 slice");
        assert_eq!(next(&seen), "g0 panicked");
        worker.rehost(slot, panicking("g1"));
        assert_eq!(next(&seen), "g1 slice");
        assert_eq!(next(&seen), "g1 panicked");
        worker.rehost(slot, Probe::new("g2", &seen_tx).reading(rx));
        assert_eq!(next(&seen), "g2 slice");
        assert_eq!(worker.lock().entries.len(), 1);
        assert!(inbox.push(RtEvent::Shutdown));
        assert_eq!(next(&seen), "g2 slice");
        executor.stop();
    }

    /// A stalled node whose slice returns `Drained` after its slot was
    /// re-hosted leaves fenced, whether or not the successor has run a
    /// slice yet, and never takes the slot back from the successor.
    #[test]
    fn a_zombie_returning_after_rehost_ends_fenced() {
        for successor_ran in [false, true] {
            let (executor, worker) = worker();
            let (seen_tx, seen) = channel();
            let (release_zombie, zombie_gate) = channel();
            let (tx, rx) = channel();
            let zombie = Probe::new("zombie", &seen_tx).gated(zombie_gate);
            let (inbox, slot) = worker.host(tx, Some((0, 0)), zombie);
            assert_eq!(next(&seen), "zombie slice");
            // Holds the fresh thread, so the successor waits its turn.
            let (release_blocker, blocker_gate) = channel();
            if !successor_ran {
                let blocker = Probe::new("blocker", &seen_tx).gated(blocker_gate);
                worker.host(channel().0, None, blocker);
            }
            assert_eq!(worker.replace_if_stalled(u64::MAX), Some((0, 0)));
            worker.rehost(slot, Probe::new("successor", &seen_tx).reading(rx));
            if successor_ran {
                assert_eq!(next(&seen), "successor slice");
            } else {
                assert_eq!(next(&seen), "blocker slice");
            }
            release_zombie.send(()).unwrap();
            assert_eq!(next(&seen), "zombie fenced");
            if !successor_ran {
                release_blocker.send(()).unwrap();
                assert_eq!(next(&seen), "successor slice");
            }
            assert!(inbox.push(RtEvent::Shutdown));
            assert_eq!(next(&seen), "successor slice");
            assert_eq!(worker.lock().entries.len(), 1 + usize::from(!successor_ran));
            executor.stop();
        }
    }
}
