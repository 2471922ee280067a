//! One round over a workload — set-up, warm-up, open-loop window, capacity
//! bursts, shutdown, verification against the oracle — and the summary of
//! several rounds.
//!
//! A run is several rounds, each on a fresh runtime. Between two runtimes
//! the scheduler settles into different interleavings of the node threads
//! and holds them for seconds, and the host's other tenants come and go
//! over tens of seconds; both move every timing figure by several percent
//! at once. Slices of one window agree with each other and cannot average
//! that out, rounds can. Set-up time needs several samples anyway.

use std::path::PathBuf;
use std::sync::mpsc::{channel, Sender};
use std::time::{Duration, Instant};

use crate::host::{peak_rss_mb, process_cpu_s, threads};
use crate::inputs::{Inputs, Oracle, SubRole, SubSpec};
use crate::loadgen::{self, median, percentile, Progress, Schedule, SLICES};
use crate::sut::{Counters, Envelope, RtOptions, SubHandle, SubKind, Sut, STAGE_NAMES};

/// Where the benchmark writes: span files, and the write-ahead logs of
/// `durable-tcp` (on the checkout's own file system, so an `fsync` there
/// costs what that device costs; see README.md).
pub fn out_dir() -> PathBuf {
    let base = if std::path::Path::new("benchmark/Cargo.toml").exists() {
        "benchmark/out"
    } else {
        "out"
    };
    let dir = PathBuf::from(base);
    std::fs::create_dir_all(&dir).expect("create the output directory");
    dir
}

#[derive(Clone, Copy, Debug)]
pub struct RoundConfig {
    /// Stage profiling and event tracing on (1 in 64).
    pub traced: bool,
    pub warm: Duration,
    pub window: Duration,
    /// Capacity bursts after the window.
    pub bursts: usize,
    /// Measure the idle runtime's CPU for half a second before warm-up.
    pub idle_probe: bool,
}

/// Everything one round measured, unreduced.
#[derive(Default, Debug)]
pub struct Round {
    pub setup_s: f64,
    /// Wall time ÷ branches of every placement call.
    pub subscribe_us: Vec<f64>,
    /// Events per second of every burst.
    pub burst_eps: Vec<f64>,
    /// Per slice of the window.
    pub cpu_us_per_event: Vec<f64>,
    pub lat_p50_us: Vec<f64>,
    pub lat_p90_us: Vec<f64>,
    /// Every latency sample of the window, nanoseconds, ascending.
    pub latencies_ns: Vec<u64>,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Counters at the window's start and end.
    pub window: (Counters, Counters),
    /// Counters with the runtime quiescent, before the open loop and after
    /// it: between the two lies exactly the traffic of its events.
    pub open_loop: (Counters, Counters),
    pub window_seconds: f64,
    pub max_late_us: f64,
    pub late_share: f64,
    pub publish_call_ns: f64,
    pub idle_cpu_pct: f64,
    pub threads: u64,
    pub traced_events: u64,
}

struct Placed {
    handle: SubHandle,
    /// Matching events from here on may have been delivered …
    allowed_from: u64,
    /// … and from here on must have been.
    required_from: u64,
}

fn place(
    sut: &mut Sut,
    inputs: &Inputs,
    spec: &SubSpec,
    tap: &Sender<Envelope>,
) -> Result<(SubHandle, f64), String> {
    let kind = match spec.role {
        SubRole::Probe => SubKind::Tapped(tap.clone()),
        SubRole::Durable => SubKind::Durable,
        SubRole::Plain => SubKind::Plain,
    };
    let branches = inputs.branches(spec);
    let n = branches.len() as f64;
    let start = Instant::now();
    let handle = sut.subscribe(kind, branches)?;
    Ok((handle, start.elapsed().as_secs_f64() * 1e6 / n))
}

pub fn run_round(
    inputs: &Inputs,
    oracle: &mut Oracle<'_>,
    cfg: &RoundConfig,
) -> Result<Round, String> {
    let mut round = Round::default();
    let wal_dir = out_dir().join(format!("wal-{}", std::process::id()));
    let options = RtOptions {
        tcp: inputs.tcp,
        durable_dir: inputs.durable.then(|| wal_dir.clone()),
        traced: cfg.traced,
    };
    let (tap, taps) = channel::<Envelope>();

    // Phase 1, set-up: start the runtime, advertise, place every initial
    // subscriber.
    let start = Instant::now();
    let mut sut = Sut::start(&inputs.domain, &options)?;
    let mut placed = Vec::new();
    for spec in &inputs.initial {
        let (handle, us) = place(&mut sut, inputs, spec, &tap)?;
        placed.push(Placed {
            handle,
            allowed_from: 0,
            required_from: 0,
        });
        round.subscribe_us.push(us);
    }
    round.setup_s = start.elapsed().as_secs_f64();
    let counters = sut.counters();
    loadgen::wait_quiescent(&counters)?;
    round.open_loop.0 = counters.read();

    if cfg.idle_probe {
        let idle = Duration::from_millis(500);
        let before = process_cpu_s();
        std::thread::sleep(idle);
        round.idle_cpu_pct = (process_cpu_s() - before) / idle.as_secs_f64() * 100.0;
    }
    round.threads = threads();

    // Phases 2 and 3, warm-up and window: generator and collector on their
    // own threads.
    let schedule = Schedule::new(
        Instant::now() + Duration::from_millis(20),
        inputs.tick,
        inputs.per_tick,
        inputs.seed,
        cfg.warm,
        cfg.window,
    );
    let progress = Progress::default();
    let (generator, samples) = std::thread::scope(|scope| -> Result<_, String> {
        let (schedule, counters_ref, progress_ref) = (&schedule, &counters, &progress);
        let collector = scope.spawn(move || loadgen::collect(schedule, &taps));
        let publisher = sut.publisher();
        let generator = scope.spawn(move || {
            loadgen::run_open_loop(schedule, inputs, &publisher, counters_ref, progress_ref)
        });

        // Meanwhile, on churn-mixed: place the late subscribers, evenly
        // spaced over the window, timing each call under load.
        let gap = cfg.window / inputs.churn.len().max(1) as u32;
        for (k, spec) in inputs.churn.iter().enumerate() {
            let at = schedule.window_start() + gap * k as u32 + gap / 2;
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            let allowed_from = progress.done();
            let (handle, us) = place(&mut sut, inputs, spec, &tap)?;
            placed.push(Placed {
                handle,
                allowed_from,
                required_from: progress.started(),
            });
            round.subscribe_us.push(us);
        }
        let generator = generator
            .join()
            .map_err(|_| "the generator thread panicked")?;
        loadgen::wait_quiescent(&counters)?;
        round.open_loop.1 = counters.read();

        // Phase 4, capacity: bursts published as fast as possible, each
        // timed until the runtime is quiescent.
        let publisher = sut.publisher();
        let mut seq = schedule.open_loop_events();
        for _ in 0..cfg.bursts {
            let events: Vec<Envelope> = (seq..seq + inputs.burst)
                .map(|s| {
                    inputs
                        .domain
                        .envelope(&inputs.contents[inputs.content_of(s)], s)
                })
                .collect();
            seq += inputs.burst;
            round
                .burst_eps
                .push(loadgen::burst(events, &publisher, &counters)?);
        }
        let published = seq;

        // Phase 5, shutdown; the collector ends once every tap sender is
        // gone.
        let report = sut.shutdown();
        round.peak_rss_mb = peak_rss_mb();
        drop(tap);
        let samples = collector
            .join()
            .map_err(|_| "the collector thread panicked")?;

        // Verify every subscriber against the oracle.
        let specs = inputs.initial.iter().chain(&inputs.churn);
        let mut branches = 0u64;
        for (spec, p) in specs.zip(&placed) {
            let diff = oracle.check(
                spec,
                &report.deliveries(p.handle),
                published,
                p.allowed_from,
                p.required_from,
            );
            if diff.failed() > 0 {
                eprintln!(
                    "lcbench: {}: subscriber with {} branches: {diff:?}",
                    inputs.name,
                    spec.branches.len()
                );
            }
            round.attempted += diff.expected;
            round.failed += diff.failed();
            branches += spec.branches.len() as u64;
        }
        let end = report.counters();
        round.attempted += published + branches;
        round.failed += end.errors + report.crashes + end.published.abs_diff(published);
        round.traced_events = report.traced_events;
        Ok((generator, samples))
    })?;
    if inputs.durable {
        let _ = std::fs::remove_dir_all(&wal_dir);
    }

    // The window, slice by slice.
    let marks = &generator.marks;
    assert_eq!(marks.len(), SLICES + 1, "one reading per slice boundary");
    round.cpu_us_per_event = marks
        .windows(2)
        .enumerate()
        .map(|(k, m)| (m[1].cpu_s - m[0].cpu_s) * 1e6 / schedule.slice_events(k) as f64)
        .collect();
    for mut slice in samples {
        slice.sort_unstable();
        if let (Some(p50), Some(p90)) = (percentile(&slice, 0.50), percentile(&slice, 0.90)) {
            round.lat_p50_us.push(p50 as f64 / 1e3);
            round.lat_p90_us.push(p90 as f64 / 1e3);
        }
        round.latencies_ns.append(&mut slice);
    }
    round.latencies_ns.sort_unstable();
    round.window = (marks[0].counters, marks[SLICES].counters);
    round.window_seconds = schedule.window_seconds();
    round.max_late_us = generator.max_late_us;
    round.late_share = generator.late_share;
    round.publish_call_ns = generator.publish_call_ns;
    Ok(round)
}

/// The figures of a run. A timing is the best of its rounds, each round's
/// being the median of its slices (or placement calls); capacity is the
/// best burst, a burst being timed on its own from first publish to
/// quiescence. What disturbs a timing on a shared host only ever adds to
/// it, so of several rounds on the same inputs the quickest is the one
/// closest to what the code costs, and it repeats from run to run two to
/// three times better than their median does. Counters are totals over the
/// rounds.
#[derive(Default, Debug)]
pub struct Summary {
    // End to end.
    pub setup_s: f64,
    pub capacity_eps: f64,
    pub cpu_us_per_event: f64,
    pub lat_p50_us: f64,
    pub lat_p90_us: f64,
    pub subscribe_us_per_branch: f64,
    pub wire_bytes_per_event: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    // The benchmark's own layer, and `rt` counters.
    pub lat_p99_us: f64,
    pub lat_p999_us: f64,
    pub lat_samples: u64,
    pub max_late_us: f64,
    pub late_share: f64,
    pub publish_call_ns: f64,
    pub frames_per_event: f64,
    pub bytes_per_frame: f64,
    pub queue_wait_mean_us: f64,
    pub backlog_growth_eps: f64,
    pub idle_cpu_pct: f64,
    pub threads: u64,
    /// Mean nanoseconds per profiled pipeline stage over the windows, in
    /// the order of `STAGE_NAMES` (zero unless traced).
    pub stage_means_ns: Vec<f64>,
    pub traced_events: u64,
}

impl Summary {
    pub fn of(rounds: &[Round]) -> Result<Self, String> {
        let each = |f: fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
        let max = |f: fn(&Round) -> f64| each(f).into_iter().fold(0.0, f64::max);
        // A round's figure is the median of its slices (bursts, calls); the
        // run's figure is that of its best round.
        let lowest = |f: fn(&Round) -> &Vec<f64>| -> f64 {
            let per_round = rounds.iter().map(|r| median(f(r)));
            per_round.fold(f64::INFINITY, f64::min)
        };
        if rounds.iter().any(|r| r.lat_p50_us.is_empty()) {
            return Err("a window without latency samples".into());
        }
        let mut latencies: Vec<u64> = rounds
            .iter()
            .flat_map(|r| r.latencies_ns.iter().copied())
            .collect();
        latencies.sort_unstable();
        let tail = |q| percentile(&latencies, q).unwrap_or(0) as f64 / 1e3;

        // Counter totals over every window.
        let delta = |f: fn(&Counters) -> u64| -> f64 {
            rounds
                .iter()
                .map(|r| (f(&r.window.1) - f(&r.window.0)) as f64)
                .sum()
        };
        let events = delta(|c| c.published);
        let frames = delta(|c| c.frames_sent);
        // Wire traffic is counted between quiescent points, where no frame
        // is half way: the same seed gives the same count.
        let quiet = |f: fn(&Counters) -> u64| -> f64 {
            let per_round = rounds
                .iter()
                .map(|r| (f(&r.open_loop.1) - f(&r.open_loop.0)) as f64);
            per_round.sum()
        };
        let (wire_events, wire_frames, wire_bytes) = (
            quiet(|c| c.published),
            quiet(|c| c.frames_sent),
            quiet(|c| c.bytes_sent),
        );
        let seconds: f64 = rounds.iter().map(|r| r.window_seconds).sum();
        let in_flight_growth = frames - delta(|c| c.frames_received);
        let last = rounds.last().ok_or("no rounds")?;
        Ok(Self {
            setup_s: each(|r| r.setup_s)
                .into_iter()
                .fold(f64::INFINITY, f64::min),
            capacity_eps: rounds
                .iter()
                .flat_map(|r| r.burst_eps.iter().copied())
                .fold(0.0, f64::max),
            cpu_us_per_event: lowest(|r| &r.cpu_us_per_event),
            lat_p50_us: lowest(|r| &r.lat_p50_us),
            lat_p90_us: lowest(|r| &r.lat_p90_us),
            subscribe_us_per_branch: lowest(|r| &r.subscribe_us),
            wire_bytes_per_event: wire_bytes / wire_events,
            peak_rss_mb: max(|r| r.peak_rss_mb),
            attempted: rounds.iter().map(|r| r.attempted).sum(),
            failed: rounds.iter().map(|r| r.failed).sum(),
            lat_p99_us: tail(0.99),
            lat_p999_us: tail(0.999),
            lat_samples: latencies.len() as u64,
            max_late_us: max(|r| r.max_late_us),
            late_share: median(&each(|r| r.late_share)),
            publish_call_ns: median(&each(|r| r.publish_call_ns)),
            frames_per_event: wire_frames / wire_events,
            bytes_per_frame: wire_bytes / wire_frames,
            queue_wait_mean_us: delta(|c| c.queue_wait_sum_ns)
                / delta(|c| c.queue_wait_count).max(1.0)
                / 1e3,
            backlog_growth_eps: in_flight_growth / (frames / events) / seconds,
            idle_cpu_pct: median(&each(|r| r.idle_cpu_pct)),
            threads: last.threads,
            stage_means_ns: (0..STAGE_NAMES.len())
                .map(|i| {
                    let (ns, n) = rounds.iter().fold((0.0, 0.0), |(ns, n), r| {
                        let (first, last) = (r.window.0.stages[i], r.window.1.stages[i]);
                        (
                            ns + (last.0 - first.0) as f64,
                            n + (last.1 - first.1) as f64,
                        )
                    });
                    if n == 0.0 {
                        0.0
                    } else {
                        ns / n
                    }
                })
                .collect(),
            traced_events: rounds.iter().map(|r| r.traced_events).sum(),
        })
    }
}
