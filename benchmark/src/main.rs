//! `lcbench`: the repository's benchmark. One process drives `layercake-rt`
//! through its public API: it builds a workload's inputs from a seed,
//! publishes them open-loop on a fixed schedule, checks every delivery
//! against a naive reference and prints every metric by name with its
//! unit. See `README.md` beside this package and `BENCHMARK.json` at the
//! root of the repository.
//!
//! ```text
//! lcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! lcbench all [--seed <n>] [--seconds <s>] [--repeat <k>] [--out <file>]
//! lcbench --smoke
//! lcbench compare <a> <b>
//! ```

mod host;
mod inputs;
mod layers;
mod loadgen;
mod report;
mod run;
mod sut;

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use inputs::Inputs;
use report::{Contract, RunResult};
use run::{Round, RoundConfig, Summary};

/// Fresh runtimes an untraced run measures on; see `run.rs`.
const ROUNDS: u32 = 6;
/// Capacity bursts per round.
const BURSTS: usize = 2;
/// Rounds of each kind, untraced and traced, in a `--trace 1` run.
const TRACE_ROUNDS: usize = 2;

/// How large and how long: 1 and the given seconds for measured runs, a
/// twentieth and a second for `--smoke`.
#[derive(Clone, Copy)]
struct Size {
    divisor: u64,
    seconds: f64,
    warm: Duration,
}

fn round_config(size: Size, traced: bool, bursts: usize, idle_probe: bool) -> RoundConfig {
    RoundConfig {
        traced,
        warm: size.warm,
        window: Duration::from_secs_f64(size.seconds / f64::from(ROUNDS)),
        bursts,
        idle_probe,
    }
}

/// Times the calibration kernel around `body`; warns when the host changed
/// speed under it.
fn calibrated<T>(body: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let before = host::calibrate_ns();
    let value = body()?;
    let after = host::calibrate_ns();
    if (after - before).abs() > 0.10 * before {
        eprintln!(
            "lcbench: warning: the host's speed changed during the run (calibration kernel {:.1} ms before, {:.1} ms after); \
             timings of this run are suspect",
            before / 1e6,
            after / 1e6
        );
    }
    Ok((value, (before + after) / 2.0))
}

/// The untraced run: the end-to-end metrics.
fn run_end_to_end(inputs: &Inputs, size: Size) -> Result<RunResult, String> {
    let cfg = round_config(size, false, BURSTS, false);
    let mut oracle = inputs.oracle();
    let (rounds, _) = calibrated(|| {
        (0..ROUNDS)
            .map(|_| run::run_round(inputs, &mut oracle, &cfg))
            .collect::<Result<Vec<Round>, _>>()
    })?;
    let s = Summary::of(&rounds)?;
    Ok(RunResult {
        attempted: s.attempted,
        failed: s.failed,
        values: vec![
            ("setup_s", s.setup_s),
            ("capacity_eps", s.capacity_eps),
            ("cpu_us_per_event", s.cpu_us_per_event),
            ("lat_p50_us", s.lat_p50_us),
            ("lat_p90_us", s.lat_p90_us),
            ("wire_bytes_per_event", s.wire_bytes_per_event),
            ("peak_rss_mb", s.peak_rss_mb),
        ],
    })
}

/// The traced run: untraced and traced rounds on the same inputs, then the
/// layer replay. Per-layer metrics only.
fn run_layers(inputs: &Inputs, size: Size) -> Result<RunResult, String> {
    let mut oracle = inputs.oracle();
    let ((plain, traced, mut values), calib_ns) = calibrated(|| {
        // Untraced and traced rounds alternate, so that a slow minute of the
        // host falls on both sides of the overhead figure.
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..TRACE_ROUNDS {
            plain.push(run::run_round(
                inputs,
                &mut oracle,
                &round_config(size, false, 0, true),
            )?);
            traced.push(run::run_round(
                inputs,
                &mut oracle,
                &round_config(size, true, 0, false),
            )?);
        }
        let (plain, traced) = (Summary::of(&plain)?, Summary::of(&traced)?);
        let out = run::out_dir();
        let spans = out.join(format!("{}.spans.jsonl", inputs.name));
        let values = layers::replay(inputs, &out, &spans)?;
        Ok((plain, traced, values))
    })?;
    let replay_sum = values
        .iter()
        .find(|(n, _)| *n == "replay.sum_us_per_event")
        .map_or(0.0, |&(_, v)| v);
    values.extend([
        ("rt.publish_call_ns", plain.publish_call_ns),
        ("rt.frames_per_event", plain.frames_per_event),
        ("rt.bytes_per_frame", plain.bytes_per_frame),
        ("rt.queue_wait_mean_us", plain.queue_wait_mean_us),
        ("rt.backlog_growth_eps", plain.backlog_growth_eps),
        ("rt.idle_cpu_pct", plain.idle_cpu_pct),
        ("rt.threads", plain.threads as f64),
        (
            "rt.trace_overhead_pct",
            (traced.cpu_us_per_event - plain.cpu_us_per_event) / plain.cpu_us_per_event * 100.0,
        ),
        ("rt.subscribe_us_per_branch", plain.subscribe_us_per_branch),
        (
            "replay.sum_vs_cpu_ratio",
            replay_sum / plain.cpu_us_per_event,
        ),
        ("loadgen.max_late_us", plain.max_late_us),
        ("loadgen.late_share", plain.late_share),
        ("loadgen.lat_p99_us", plain.lat_p99_us),
        ("loadgen.lat_p999_us", plain.lat_p999_us),
        ("loadgen.lat_samples", plain.lat_samples as f64),
        ("loadgen.host_calib_ns", calib_ns),
    ]);
    values.extend(
        sut::STAGE_NAMES
            .into_iter()
            .zip(traced.stage_means_ns.iter().copied()),
    );
    if traced.traced_events == 0 {
        return Err("the traced round sampled no event".into());
    }
    Ok(RunResult {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        values,
    })
}

/// One run as the driver asks for it; returns the result line.
fn run(
    contract: &Contract,
    workload: &str,
    seed: u64,
    size: Size,
    trace: bool,
) -> Result<(RunResult, String), String> {
    let inputs = Inputs::build(workload, seed, size.divisor).ok_or_else(|| {
        format!(
            "unknown workload {workload:?}; the workloads are {:?}",
            inputs::WORKLOADS
        )
    })?;
    let (result, specs) = if trace {
        (run_layers(&inputs, size)?, &contract.per_layer)
    } else {
        (run_end_to_end(&inputs, size)?, &contract.end_to_end)
    };
    eprint!(
        "{workload}, seed {seed}, trace {}:\n{}",
        u8::from(trace),
        result.table(specs, !trace)?
    );
    let line = result.json_line(specs, !trace)?;
    Ok((result, line))
}

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag} {v}: not a number")),
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = Args(std::env::args().skip(1).collect());
    if args.0.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.0.as_slice() else {
            return Err("usage: lcbench compare <a> <b>".into());
        };
        let (table, any_worse) = report::compare(a, b)?;
        print!("{table}");
        return Ok(if any_worse {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }

    // One core for the whole process: see README.md, "One core".
    match host::allowed_cpus().last() {
        Some(&cpu) if host::pin_to(cpu) => eprintln!("lcbench: every thread runs on CPU {cpu}"),
        _ => eprintln!("lcbench: warning: could not pin to one CPU; timings will be noisier"),
    }
    let contract = Contract::load();
    let seed = args.number("--seed", 1u64)?;
    let measured = Size {
        divisor: 1,
        seconds: args.number("--seconds", 10.0)?,
        warm: Duration::from_millis(500),
    };

    if args.0.iter().any(|a| a == "--smoke") {
        let size = Size {
            divisor: 20,
            seconds: 1.5,
            warm: Duration::from_millis(200),
        };
        for workload in &contract.workloads {
            for trace in [false, true] {
                let (result, _) = run(&contract, workload, seed, size, trace)?;
                if result.failed > 0 {
                    return Err(format!(
                        "{workload}: {} of {} operations failed",
                        result.failed, result.attempted
                    ));
                }
            }
        }
        println!("smoke: every metric of every workload present, finite and correctly signed; no operation failed");
        return Ok(ExitCode::SUCCESS);
    }

    if args.0.first().map(String::as_str) == Some("all") {
        let mut out = match args.value("--out") {
            Some(path) => {
                Some(std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?)
            }
            None => None,
        };
        let mut failed = 0;
        for repeat in 0..args.number("--repeat", 1u64)? {
            for workload in &contract.workloads {
                for trace in [false, true] {
                    let (result, line) = run(&contract, workload, seed + repeat, measured, trace)?;
                    failed += result.failed;
                    println!("{workload} trace={} {line}", u8::from(trace));
                    if let Some(file) = &mut out {
                        writeln!(file, "{{\"workload\": \"{workload}\", \"trace\": {}, \"seed\": {}, \"result\": {line}}}", u8::from(trace), seed + repeat)
                            .map_err(|e| format!("write --out: {e}"))?;
                    }
                }
            }
        }
        return Ok(if failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let workload = args
        .value("--workload")
        .ok_or("usage: lcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")?;
    let trace = args.number("--trace", 0u8)? != 0;
    let (result, line) = run(&contract, workload, seed, measured, trace)?;
    println!("{line}");
    Ok(if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("lcbench: {e}");
        ExitCode::from(2)
    })
}
