//! A run's result line, and the rule that compares two result files
//! against the bounds `BENCHMARK.json` fixes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Value;

/// `BENCHMARK.json`, baked in at build time: the harness reads its default
/// run length and its regression bounds from the same file the driver does.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Metric values by name, as a run computes them.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run prints as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of which failed.
    pub failed: u64,
    /// `(name, unit, value)` in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    /// Assembles the result: every metric of `table`, in order, with the
    /// value the run computed (0 for a layer the workload never entered; a
    /// non-finite value is a harness bug and is reported as 0 with
    /// `correct = false`).
    ///
    /// # Panics
    ///
    /// Panics if `values` holds a name `table` lacks — a misspelt metric
    /// would otherwise silently read 0.
    #[must_use]
    pub fn new(
        attempted: u64,
        failed: u64,
        table: &[(&'static str, &'static str)],
        values: &Values,
    ) -> Self {
        for name in values.keys() {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "{name} was computed but is not in the metric table"
            );
        }
        let mut finite = true;
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                finite &= value.is_finite();
                (name, unit, if value.is_finite() { value } else { 0.0 })
            })
            .collect();
        RunResult {
            correct: failed == 0 && finite,
            attempted: attempted.max(1),
            failed,
            metrics,
        }
    }

    /// The one-line JSON object the driver reads.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{}` prints the shortest text that reads back as the same
            // f64: every measured digit, nothing rounded.
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One end-to-end metric's regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline by which the metric may worsen.
    pub bound: f64,
}

/// The `end_to_end` bounds of a parsed `BENCHMARK.json`.
///
/// # Errors
///
/// Returns what is missing or malformed.
pub fn bounds_of(benchmark: &Value) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .filter(|b| (0.0..=1.0).contains(b))
                .ok_or_else(|| format!("{name}: no bound in [0, 1]"))?;
            Ok(Bound {
                name: name.to_owned(),
                better,
                bound,
            })
        })
        .collect()
}

/// The share of `baseline` by which `candidate` is worse (negative when it
/// is better).
#[must_use]
pub fn worse_by(better: Better, baseline: f64, candidate: f64) -> f64 {
    let delta = match better {
        Better::Lower => candidate - baseline,
        Better::Higher => baseline - candidate,
    };
    if baseline == 0.0 {
        // A zero baseline has no share to lose; any worsening breaches.
        return if delta > 0.0 { f64::INFINITY } else { 0.0 };
    }
    delta / baseline.abs()
}

/// One metric × workload comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// [`worse_by`] of the two.
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
}

impl Row {
    /// `true` when the candidate is worse than the bound allows.
    #[must_use]
    pub fn breaches(&self) -> bool {
        self.worse_by > self.bound
    }
}

fn metric_value(result: &Value, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Compares two result files (as written by `e2e all --out`): one [`Row`]
/// per bounded metric × baseline workload, plus a list of structural
/// problems (a workload or metric the candidate lacks, an incorrect run).
/// The comparison passes when no row breaches and no problem is listed.
///
/// # Errors
///
/// Returns an error when the baseline file has no `workloads` object.
pub fn compare(
    bounds: &[Bound],
    baseline: &Value,
    candidate: &Value,
) -> Result<(Vec<Row>, Vec<String>), String> {
    let base_workloads = baseline
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or("baseline file has no workloads object")?;
    let mut rows = Vec::new();
    let mut problems = Vec::new();
    for (workload, base) in base_workloads {
        let Some(cand) = candidate.get("workloads").and_then(|w| w.get(workload)) else {
            problems.push(format!("{workload}: missing from the candidate file"));
            continue;
        };
        if cand.get("correct").and_then(Value::as_bool) != Some(true) {
            problems.push(format!("{workload}: candidate run is not correct"));
        }
        for bound in bounds {
            let Some(baseline) = metric_value(base, &bound.name) else {
                continue; // the baseline never reported it: nothing to hold
            };
            let Some(candidate) = metric_value(cand, &bound.name) else {
                problems.push(format!("{workload}: candidate lacks {}", bound.name));
                continue;
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: bound.name.clone(),
                baseline,
                candidate,
                worse_by: worse_by(bound.better, baseline, candidate),
                bound: bound.bound,
            });
        }
    }
    Ok((rows, problems))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn result_line_has_the_contract_shape_and_reads_back() {
        let mut values = Values::new();
        values.insert("events_per_s", 371.25);
        let table = [("events_per_s", "1/s"), ("setup_s", "s")];
        let result = RunResult::new(10, 0, &table, &values);
        let doc = parse(&result.to_json()).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(metric_value(&doc, "events_per_s"), Some(371.25));
        assert_eq!(
            metric_value(&doc, "setup_s"),
            Some(0.0),
            "unreported metrics read 0"
        );
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        assert!(!result.to_json().contains('\n'));
    }

    #[test]
    fn failures_and_non_finite_values_are_not_correct() {
        let table = [("x", "ms")];
        assert!(!RunResult::new(5, 1, &table, &Values::new()).correct);
        let mut values = Values::new();
        values.insert("x", f64::NAN);
        let result = RunResult::new(5, 0, &table, &values);
        assert!(!result.correct);
        assert!(parse(&result.to_json()).is_ok());
        assert_eq!(RunResult::new(0, 0, &table, &Values::new()).attempted, 1);
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 200.0, 150.0) - 0.25).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 200.0, 250.0) < 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 1.0), f64::INFINITY);
    }

    fn file(events_per_s: f64, latency: f64, correct: bool) -> Value {
        parse(&format!(
            r#"{{"workloads": {{"churn_k1": {{"correct": {correct}, "attempted": 1, "failed": 0,
                "metrics": {{"events_per_s": {{"value": {events_per_s}, "unit": "1/s"}},
                             "lat_ms": {{"value": {latency}, "unit": "ms"}}}}}}}}}}"#
        ))
        .unwrap()
    }

    fn test_bounds() -> Vec<Bound> {
        bounds_of(
            &parse(
                r#"{"end_to_end": [
                    {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                    {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.2},
                    {"name": "absent", "unit": "s", "better": "lower", "bound": 0.2}]}"#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn compare_passes_within_bounds_and_flags_each_breach() {
        let bounds = test_bounds();
        let base = file(100.0, 10.0, true);

        let (rows, problems) = compare(&bounds, &base, &file(91.0, 11.9, true)).unwrap();
        assert_eq!(rows.len(), 2, "a metric the baseline lacks is not compared");
        assert!(problems.is_empty());
        assert!(rows.iter().all(|r| !r.breaches()));

        let (rows, _) = compare(&bounds, &base, &file(89.0, 12.1, true)).unwrap();
        assert!(rows.iter().all(Row::breaches));

        // Better in both directions never breaches.
        let (rows, _) = compare(&bounds, &base, &file(500.0, 1.0, true)).unwrap();
        assert!(rows.iter().all(|r| !r.breaches() && r.worse_by < 0.0));
    }

    #[test]
    fn compare_reports_incorrect_or_missing_candidates() {
        let bounds = test_bounds();
        let base = file(100.0, 10.0, true);
        let (_, problems) = compare(&bounds, &base, &file(100.0, 10.0, false)).unwrap();
        assert_eq!(problems.len(), 1);
        let empty = parse(r#"{"workloads": {}}"#).unwrap();
        let (rows, problems) = compare(&bounds, &base, &empty).unwrap();
        assert!(rows.is_empty());
        assert_eq!(problems.len(), 1);
        assert!(compare(&bounds, &empty.get("workloads").unwrap().clone(), &base).is_err());
    }

    #[test]
    fn the_repository_bounds_parse() {
        let bounds = bounds_of(&parse(BENCHMARK_JSON).unwrap()).unwrap();
        assert_eq!(bounds.len(), crate::spec::END_TO_END.len());
        assert!(bounds.iter().all(|b| b.bound <= 0.25));
    }
}
