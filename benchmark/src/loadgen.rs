//! The load generator and the latency collector.
//!
//! Open loop: every tick (1 ms, or 2 ms on the slowest workload) some
//! events are *due* at the tick's start and published back to back,
//! whatever the system is doing. A delivery is timed from its tick's due
//! time, so a stall — of the system or of the generator — is charged to
//! the events behind it. The generator sleeps between ticks, never spins,
//! and reports how late it ran.
//!
//! How many events a tick carries varies around the workload's mean (as
//! independent publishers' arrivals would), by a fixed function of the
//! seed. With the same count every tick the node threads fall into one of
//! several interleavings at start-up and keep it for the whole window,
//! and the CPU time per event differs by a fifth between them; uneven
//! ticks keep the threads from settling.
//!
//! One generator thread, one collector thread; the caller's thread waits
//! (or places subscriptions, on `churn-mixed`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use crate::host::process_cpu_s;
use crate::inputs::{mix64, Inputs};
use crate::sut::{seq_of, Counters, Envelope, SutCounters, SutPublisher};

/// The window is cut into this many equal slices; CPU per event and the
/// latency percentiles are reported as medians over slices, so one
/// noisy-neighbour episode cannot carry the figure.
pub const SLICES: usize = 5;
/// How often the quiescence wait looks at the counters.
const POLL: Duration = Duration::from_millis(1);
/// A burst is over when the frame counters have not moved for this long
/// and every frame sent has been received.
const QUIET: Duration = Duration::from_millis(50);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// A burst yields the core after this many events. Everything runs on one
/// core (README.md, "One core") and the inboxes are unbounded: a publisher
/// that never yields queues the whole burst before the brokers run, and
/// the figure then measures the allocator, a third apart from run to run.
const BURST_CHUNK: usize = 100;

/// The fixed publication schedule of one round: `warm_ticks` of warm-up,
/// then `SLICES × slice_ticks` of measured window.
#[derive(Clone, Debug)]
pub struct Schedule {
    pub base: Instant,
    pub tick: Duration,
    pub warm_ticks: u64,
    pub slice_ticks: u64,
    /// First seq of every tick, and one entry past the last tick.
    starts: Vec<u64>,
}

impl Schedule {
    /// A schedule of `per_tick` events per tick on average: each tick
    /// carries between 0.6 and 1.4 times that (0 to 2 when `per_tick` is
    /// 1), as `seed` decides.
    pub fn new(
        base: Instant,
        tick: Duration,
        per_tick: u64,
        seed: u64,
        warm: Duration,
        window: Duration,
    ) -> Self {
        let ticks_in = |d: Duration| (d.as_micros() / tick.as_micros()) as u64;
        let warm_ticks = ticks_in(warm);
        let slice_ticks = (ticks_in(window) / SLICES as u64).max(1);
        let swing = (per_tick * 2 / 5).max(1);
        let mut starts = vec![0];
        for t in 0..warm_ticks + slice_ticks * SLICES as u64 {
            let count = per_tick - swing + mix64(seed ^ mix64(!t)) % (2 * swing + 1);
            starts.push(starts[t as usize] + count);
        }
        Self {
            base,
            tick,
            warm_ticks,
            slice_ticks,
            starts,
        }
    }

    pub fn total_ticks(&self) -> u64 {
        self.starts.len() as u64 - 1
    }

    /// Seqs of the events due at `tick`.
    pub fn seqs(&self, tick: u64) -> std::ops::Range<u64> {
        self.starts[tick as usize]..self.starts[tick as usize + 1]
    }

    /// Events the open loop publishes; later seqs belong to the bursts.
    pub fn open_loop_events(&self) -> u64 {
        self.starts[self.starts.len() - 1]
    }

    /// Events due in slice `slice` of the window.
    pub fn slice_events(&self, slice: usize) -> u64 {
        let first = self.warm_ticks + self.slice_ticks * slice as u64;
        self.starts[(first + self.slice_ticks) as usize] - self.starts[first as usize]
    }

    pub fn window_seconds(&self) -> f64 {
        (self.slice_ticks * SLICES as u64) as f64 * self.tick.as_secs_f64()
    }

    pub fn due(&self, tick: u64) -> Instant {
        self.base + self.tick * tick as u32
    }

    /// When the measured window starts.
    pub fn window_start(&self) -> Instant {
        self.due(self.warm_ticks)
    }

    /// Tick an open-loop event belongs to; `None` for burst events.
    pub fn tick_of(&self, seq: u64) -> Option<u64> {
        (seq < self.open_loop_events())
            .then(|| self.starts.partition_point(|&s| s <= seq) as u64 - 1)
    }

    /// Slice of the window a tick falls in; `None` during warm-up.
    pub fn slice_of(&self, tick: u64) -> Option<usize> {
        let t = tick.checked_sub(self.warm_ticks)?;
        Some((t / self.slice_ticks) as usize)
    }
}

/// How far publication has got, for the thread that places subscriptions
/// mid-run: every seq below `done` is in the root's inbox, and no seq from
/// `started` on has begun publishing.
#[derive(Default)]
pub struct Progress {
    started: AtomicU64,
    done: AtomicU64,
}

impl Progress {
    pub fn started(&self) -> u64 {
        self.started.load(Ordering::SeqCst)
    }
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::SeqCst)
    }
}

/// A reading taken by the generator at a slice boundary.
#[derive(Clone, Copy, Default, Debug)]
pub struct Mark {
    pub cpu_s: f64,
    pub counters: Counters,
}

#[derive(Default, Debug)]
pub struct GeneratorReport {
    /// `SLICES + 1` readings: the window's start and the end of each slice.
    pub marks: Vec<Mark>,
    /// Worst lateness of a tick's first publish against its due time.
    pub max_late_us: f64,
    /// Share of window ticks that started after the next tick was due.
    pub late_share: f64,
    /// Mean wall time of one `publish` call in the window.
    pub publish_call_ns: f64,
}

/// Publishes the schedule. Runs on the generator thread.
pub fn run_open_loop(
    schedule: &Schedule,
    inputs: &Inputs,
    publisher: &SutPublisher,
    counters: &SutCounters,
    progress: &Progress,
) -> GeneratorReport {
    let mut report = GeneratorReport::default();
    let mark = || Mark {
        cpu_s: process_cpu_s(),
        counters: counters.read(),
    };
    let mut late_ticks = 0u64;
    let mut publish_ns = 0u128;
    for tick in 0..schedule.total_ticks() {
        let due = schedule.due(tick);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let in_window = tick >= schedule.warm_ticks;
        if in_window && (tick - schedule.warm_ticks).is_multiple_of(schedule.slice_ticks) {
            report.marks.push(mark());
        }
        let begin = Instant::now();
        if in_window {
            let late = begin.saturating_duration_since(due);
            report.max_late_us = report.max_late_us.max(late.as_secs_f64() * 1e6);
            late_ticks += u64::from(late > schedule.tick);
        }
        for seq in schedule.seqs(tick) {
            let env = inputs
                .domain
                .envelope(&inputs.contents[inputs.content_of(seq)], seq);
            progress.started.store(seq + 1, Ordering::SeqCst);
            publisher.publish(env);
            progress.done.store(seq + 1, Ordering::SeqCst);
        }
        if in_window {
            publish_ns += begin.elapsed().as_nanos();
        }
    }
    report.marks.push(mark());
    let window_ticks = schedule.slice_ticks * SLICES as u64;
    report.late_share = late_ticks as f64 / window_ticks as f64;
    let window_events: u64 = (0..SLICES).map(|k| schedule.slice_events(k)).sum();
    report.publish_call_ns = publish_ns as f64 / window_events as f64;
    report
}

/// Receives every tapped delivery and times it against its tick's due
/// time. Runs on the collector thread until every tap sender is gone.
/// Returns the latencies in nanoseconds, one list per slice of the window;
/// warm-up and burst deliveries are received and dropped.
pub fn collect(schedule: &Schedule, taps: &Receiver<Envelope>) -> Vec<Vec<u64>> {
    let mut slices = vec![Vec::new(); SLICES];
    while let Ok(env) = taps.recv() {
        let now = Instant::now();
        let Some(tick) = schedule.tick_of(seq_of(&env)) else {
            continue;
        };
        if let Some(slice) = schedule.slice_of(tick) {
            let late = now.saturating_duration_since(schedule.due(tick));
            slices[slice].push(late.as_nanos() as u64);
        }
    }
    slices
}

/// Waits until the runtime is quiescent: the frame counters unchanged for
/// `QUIET` and every frame sent also received. Returns when they last
/// changed. (Not the delivered counter: where most events deliver nothing,
/// that would stop the clock at the last *matching* event.)
pub fn wait_quiescent(counters: &SutCounters) -> Result<Instant, String> {
    let start = Instant::now();
    let mut last = counters.frames();
    let mut last_change = start;
    loop {
        std::thread::sleep(POLL);
        let now = Instant::now();
        let frames = counters.frames();
        if frames != last {
            last = frames;
            last_change = now;
        } else if frames.0 == frames.1 && now - last_change >= QUIET {
            return Ok(last_change);
        }
        if now - start > DRAIN_TIMEOUT {
            return Err(format!(
                "not quiescent after {DRAIN_TIMEOUT:?}: frames sent/received {frames:?}"
            ));
        }
    }
}

/// Publishes `events` (pre-built, so that building them is not timed) as
/// fast as the core allows and waits for quiescence; returns events per
/// second.
pub fn burst(
    events: Vec<Envelope>,
    publisher: &SutPublisher,
    counters: &SutCounters,
) -> Result<f64, String> {
    let n = events.len() as f64;
    let start = Instant::now();
    for (i, env) in events.into_iter().enumerate() {
        publisher.publish(env);
        if (i + 1) % BURST_CHUNK == 0 {
            std::thread::yield_now();
        }
    }
    let end = wait_quiescent(counters)?;
    Ok(n / (end - start).as_secs_f64())
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a handful of floats (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.90), Some(90));
        assert_eq!(percentile(&v, 0.999), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&[7], 0.5), Some(7));
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), Some(2));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn schedule_maps_seqs_to_ticks_and_slices() {
        let base = Instant::now();
        let ms = Duration::from_millis;
        let s = Schedule::new(
            base,
            ms(1),
            20,
            9,
            Duration::from_secs(1),
            Duration::from_secs(10),
        );
        assert_eq!(
            (s.warm_ticks, s.slice_ticks, s.total_ticks()),
            (1000, 2000, 11_000)
        );
        assert_eq!(s.window_seconds(), 10.0);
        assert_eq!(s.due(0), base);
        assert_eq!(s.due(2500), base + ms(2500));
        assert_eq!(s.window_start(), base + Duration::from_secs(1));

        // Every tick carries 12 to 28 events, 20 on average, and the ticks
        // partition the seqs in order.
        let mut next = 0;
        for t in 0..s.total_ticks() {
            let seqs = s.seqs(t);
            assert_eq!(seqs.start, next);
            assert!(
                (12..=28).contains(&(seqs.end - seqs.start)),
                "tick {t} carries {seqs:?}"
            );
            assert_eq!(s.tick_of(seqs.start), Some(t));
            assert_eq!(s.tick_of(seqs.end - 1), Some(t));
            next = seqs.end;
        }
        assert_eq!(next, s.open_loop_events());
        assert!(
            (215_000..225_000).contains(&next),
            "{next} events against 220 000 expected"
        );
        assert_eq!(s.tick_of(next), None, "burst seqs have no tick");
        let window: u64 = (0..SLICES).map(|k| s.slice_events(k)).sum();
        assert_eq!(window, next - s.seqs(1000).start);

        // Warm-up ticks are in no slice; the window's ticks fill five.
        assert_eq!(s.slice_of(999), None);
        assert_eq!(s.slice_of(1000), Some(0));
        assert_eq!(s.slice_of(2999), Some(0));
        assert_eq!(s.slice_of(3000), Some(1));
        assert_eq!(s.slice_of(10_999), Some(4));

        // The same seed gives the same schedule, another seed another.
        let again = Schedule::new(
            base,
            ms(1),
            20,
            9,
            Duration::from_secs(1),
            Duration::from_secs(10),
        );
        let other = Schedule::new(
            base,
            ms(1),
            20,
            10,
            Duration::from_secs(1),
            Duration::from_secs(10),
        );
        assert_eq!(s.starts, again.starts);
        assert_ne!(s.starts, other.starts);

        // One event per 2 ms tick on average: 0, 1 or 2 per tick.
        let s = Schedule::new(
            base,
            ms(2),
            1,
            9,
            Duration::from_secs(1),
            Duration::from_secs(10),
        );
        assert_eq!((s.warm_ticks, s.slice_ticks), (500, 1000));
        assert_eq!(s.due(500), base + Duration::from_secs(1));
        assert!((0..s.total_ticks()).all(|t| s.seqs(t).end - s.seqs(t).start <= 2));
        assert!((5_200..5_800).contains(&s.open_loop_events()));
    }
}
