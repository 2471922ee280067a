//! The benchmark's contract (`BENCHMARK.json`, compiled in), the result line
//! a run prints, and `lcbench compare`.

use serde::Value;

/// `BENCHMARK.json` as of this build: the names, units, directions and
/// bounds below are read from it, so the file and the program cannot
/// disagree about which metrics exist.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn text(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => panic!("expected a string in BENCHMARK.json, found {other:?}"),
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(a) => a,
        other => panic!("expected an array in BENCHMARK.json, found {other:?}"),
    }
}

impl Contract {
    pub fn load() -> Self {
        let root: Value = serde_json::from_str(CONTRACT).expect("BENCHMARK.json is valid JSON");
        let metrics = |key: &str| -> Vec<MetricSpec> {
            items(root.field(key))
                .iter()
                .map(|m| MetricSpec {
                    name: text(m.field("name")),
                    unit: text(m.field("unit")),
                    higher_is_better: text(m.field("better")) == "higher",
                    bound: number(m.field("bound")),
                })
                .collect()
        };
        Self {
            workloads: items(root.field("workloads"))
                .iter()
                .map(|w| text(w.field("name")))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// Metrics that may legitimately be negative: a difference and a growth.
const SIGNED: [&str; 2] = ["rt.trace_overhead_pct", "rt.backlog_growth_eps"];

/// The result of one run: the verdict and the measured values, by name.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// Picks the values of `specs` out of the run, checking that each is
    /// there, finite and correctly signed (`positive`: an end-to-end metric
    /// is never zero).
    pub fn select<'a>(
        &self,
        specs: &'a [MetricSpec],
        positive: bool,
    ) -> Result<Vec<(&'a MetricSpec, f64)>, String> {
        specs
            .iter()
            .map(|spec| {
                let &(_, v) = self
                    .values
                    .iter()
                    .find(|(n, _)| *n == spec.name)
                    .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
                let signed_ok = SIGNED.contains(&spec.name.as_str())
                    || if positive { v > 0.0 } else { v >= 0.0 };
                if !v.is_finite() || !signed_ok {
                    return Err(format!(
                        "metric {} = {v} is not a valid measurement",
                        spec.name
                    ));
                }
                Ok((spec, v))
            })
            .collect()
    }

    /// The line the driver reads: one JSON object, last on standard output.
    pub fn json_line(&self, specs: &[MetricSpec], positive: bool) -> Result<String, String> {
        let metrics: Vec<String> = self
            .select(specs, positive)?
            .iter()
            .map(|(spec, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    spec.name, spec.unit
                )
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }

    /// Every metric by name with its unit, for a person to read.
    pub fn table(&self, specs: &[MetricSpec], positive: bool) -> Result<String, String> {
        let rows = self.select(specs, positive)?;
        Ok(rows
            .iter()
            .map(|(spec, v)| format!("  {:<34} {v:>16.4} {}\n", spec.name, spec.unit))
            .collect())
    }
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method). `None` under two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median; 0 under two values.
pub fn spread(values: &[f64]) -> f64 {
    let med = crate::loadgen::median(values);
    quartiles(values).map_or(0.0, |(q1, q3)| (q3 - q1) / med)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    /// The spread between runs is wider than the bound: a difference
    /// within it cannot be told from noise.
    Unresolved,
}

/// Compares a metric's values in two sets of runs. Returns both medians,
/// by how much `b` is worse than `a` as a share of `a` (negative when
/// better), the wider of the two spreads, and the verdict.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> (f64, f64, f64, f64, Verdict) {
    let (ma, mb) = (crate::loadgen::median(a), crate::loadgen::median(b));
    let worse = if spec.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let noise = spread(a).max(spread(b));
    let bound = spec.bound.unwrap_or(f64::INFINITY);
    let verdict = if worse > bound {
        Verdict::Worse
    } else if noise > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (ma, mb, worse, noise, verdict)
}

/// Values of one `workload × metric` in a file written by `lcbench all
/// --out`: one JSON object per line, `{"workload": …, "trace": 0|1,
/// "result": <result line>}`.
fn values_in(file: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    file.iter()
        .filter(|run| matches!(run.field("workload"), Value::Str(w) if w == workload))
        .filter_map(|run| {
            number(
                run.field("result")
                    .field("metrics")
                    .field(metric)
                    .field("value"),
            )
        })
        .collect()
}

fn read_runs(path: &str) -> Result<Vec<Value>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    body.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// `lcbench compare a.jsonl b.jsonl`: per workload × end-to-end metric,
/// both medians, the relative difference, the spread and the bound.
/// Returns the table and whether any row is `worse`.
pub fn compare(path_a: &str, path_b: &str) -> Result<(String, bool), String> {
    let contract = Contract::load();
    let (a, b) = (read_runs(path_a)?, read_runs(path_b)?);
    let mut out = format!(
        "{:<12} {:<24} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict\n",
        "workload", "metric", "a (median)", "b (median)", "worse", "spread", "bound"
    );
    let mut any_worse = false;
    for workload in &contract.workloads {
        for spec in &contract.end_to_end {
            let (va, vb) = (
                values_in(&a, workload, &spec.name),
                values_in(&b, workload, &spec.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb, worse, noise, verdict) = judge(spec, &va, &vb);
            any_worse |= verdict == Verdict::Worse;
            out += &format!(
                "{workload:<12} {:<24} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>7.1}% {:>5.0}%  {}\n",
                spec.name,
                worse * 100.0,
                noise * 100.0,
                spec.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]),
            Some((15.0, 120.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn judge_marks_ok_worse_and_unresolved() {
        let lower = MetricSpec {
            name: "lat".into(),
            unit: "us".into(),
            higher_is_better: false,
            bound: Some(0.10),
        };
        let higher = MetricSpec {
            higher_is_better: true,
            ..lower.clone()
        };
        let steady = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            judge(&lower, &steady, &[105.0, 104.0, 106.0, 105.0]).4,
            Verdict::Ok
        );
        assert_eq!(
            judge(&lower, &steady, &[120.0, 121.0, 119.0, 120.0]).4,
            Verdict::Worse
        );
        assert_eq!(
            judge(&lower, &steady, &[80.0, 81.0, 79.0, 80.0]).4,
            Verdict::Ok,
            "better is not worse"
        );
        assert_eq!(
            judge(&higher, &steady, &[80.0, 81.0, 79.0, 80.0]).4,
            Verdict::Worse
        );
        assert_eq!(
            judge(&higher, &steady, &[120.0, 121.0, 119.0, 120.0]).4,
            Verdict::Ok
        );
        // Same medians, but runs that disagree with each other by more
        // than the bound: unresolved, not ok.
        assert_eq!(
            judge(&lower, &steady, &[70.0, 100.0, 100.0, 130.0]).4,
            Verdict::Unresolved
        );
        // A difference beyond the bound is worse however noisy the runs.
        assert_eq!(
            judge(&lower, &steady, &[140.0, 200.0, 200.0, 260.0]).4,
            Verdict::Worse
        );
    }

    #[test]
    fn contract_and_result_line_agree() {
        let contract = Contract::load();
        assert_eq!(contract.workloads, crate::inputs::WORKLOADS);
        assert!(contract
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        assert!(contract
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(contract.per_layer.iter().all(|m| m.bound.is_none()));

        let result = RunResult {
            attempted: 10,
            failed: 0,
            values: vec![("setup_s", 0.5), ("rt.trace_overhead_pct", -1.5)],
        };
        let setup = &contract.end_to_end[..1];
        assert_eq!(setup[0].name, "setup_s");
        assert_eq!(
            result.json_line(setup, true).unwrap(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        // Missing, zero and non-finite values are refused.
        assert!(result.json_line(&contract.end_to_end, true).is_err());
        let zero = RunResult {
            attempted: 1,
            failed: 0,
            values: vec![("setup_s", 0.0)],
        };
        assert!(zero.json_line(setup, true).is_err());
        let nan = RunResult {
            attempted: 1,
            failed: 0,
            values: vec![("setup_s", f64::NAN)],
        };
        assert!(nan.json_line(setup, true).is_err());
    }
}
