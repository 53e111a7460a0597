//! Metric collection and the two output shapes: `workload/metric value
//! unit` lines for people, one JSON object on the last line for tools.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured, all digits.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Metrics in the order they were measured.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The value of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// A value and its unit, as the result line carries them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    /// The measurement.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The machine-readable result of one run of one workload: the last
/// line of standard output, with exactly these four keys.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultLine {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted (fits, publishes, predict requests, checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

/// One line of a `--out` file: a [`ResultLine`] plus which run it was,
/// so `compare` can group runs by workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload the line describes.
    pub workload: String,
    /// `--seed` of the run.
    pub seed: u64,
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// `--seed` of the run.
    pub seed: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics the result line carries.
    pub metrics: Metrics,
    /// Context printed for people only (`name`, `value`).
    pub notes: Vec<(String, String)>,
    /// Descriptions of the first few failures.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Whether the run counts as correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.0.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable lines.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.notes {
            out.push_str(&format!("{}/{name} {value}\n", self.workload));
        }
        for m in &self.metrics.0 {
            out.push_str(&format!(
                "{}/{} {} {}\n",
                self.workload, m.name, m.value, m.unit
            ));
        }
        out.push_str(&format!(
            "{}/operations attempted {} failed {}\n",
            self.workload, self.attempted, self.failed
        ));
        for e in &self.errors {
            out.push_str(&format!("{}/FAILED {e}\n", self.workload));
        }
        out
    }

    /// The result line.
    pub fn result_line(&self) -> ResultLine {
        ResultLine {
            correct: self.correct(),
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics: self
                .metrics
                .0
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        MetricValue {
                            // JSON has no NaN; `correct` already says so.
                            value: if m.value.is_finite() { m.value } else { -1.0 },
                            unit: m.unit.to_string(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// The `--out` record.
    pub fn run_record(&self) -> RunRecord {
        let line = self.result_line();
        RunRecord {
            workload: self.workload.clone(),
            seed: self.seed,
            correct: line.correct,
            attempted: line.attempted,
            failed: line.failed,
            metrics: line.metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_and_flags_non_finite_values() {
        let mut metrics = Metrics::default();
        metrics.push("fit_wall_s", 3.0217, "s");
        metrics.push("holdout_loss", f64::NAN, "ratio");
        let outcome = Outcome {
            workload: "gbdt_deep".into(),
            seed: 7,
            attempted: 12,
            failed: 0,
            metrics,
            notes: vec![("state_root_fs".into(), "ext4".into())],
            errors: Vec::new(),
        };
        assert!(!outcome.correct(), "a NaN metric is not a correct run");
        let line = outcome.result_line();
        assert_eq!(line.metrics["holdout_loss"].value, -1.0);
        let json = serde_json::to_string(&line).unwrap();
        assert!(json.starts_with("{\"correct\":false,\"attempted\":12,\"failed\":0,\"metrics\":{"));
        let back: ResultLine = serde_json::from_str(&json).unwrap();
        assert_eq!(back, line);
        let record = outcome.run_record();
        assert_eq!((record.workload.as_str(), record.seed), ("gbdt_deep", 7));
        let json = serde_json::to_string(&record).unwrap();
        assert_eq!(serde_json::from_str::<RunRecord>(&json).unwrap(), record);
        assert!(outcome.lines().contains("gbdt_deep/fit_wall_s 3.0217 s\n"));
        assert!(outcome.lines().contains("gbdt_deep/state_root_fs ext4\n"));
    }
}
