//! The journal's on-disk record schema (version 1).
//!
//! Every record is one line of compact JSON. Floats round-trip exactly:
//! the writer uses shortest-round-trip formatting and renders the
//! non-finite failure sentinels as `Infinity` / `-Infinity` / `NaN`
//! tokens, which the reader parses back bit-for-bit — a journaled loss of
//! `+inf` (a failed trial) survives the round trip.
//!
//! # Schema evolution
//!
//! [`SCHEMA_VERSION`] is bumped whenever a field changes meaning or a
//! required field is added. Readers accept only their own major version:
//! replay feeds journaled outcomes back into live search state, so a
//! misinterpreted field would silently corrupt a resumed run — refusing
//! an unknown version is the safe behaviour. Purely additive optional
//! fields (serde defaults) do not bump the version.

use serde::{Deserialize, Serialize};

/// Journal schema version written into every header.
pub const SCHEMA_VERSION: u32 = 1;

/// Identity of the dataset a journal was recorded against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetInfo {
    /// Dataset name.
    pub name: String,
    /// Task kind (`"binary"` / `"multiclass"` / `"regression"`).
    pub task: String,
    /// Number of rows.
    pub rows: usize,
    /// Number of feature columns.
    pub features: usize,
    /// Content fingerprint (FNV-1a over the dataset's values); resume
    /// refuses a journal whose fingerprint does not match the data it is
    /// asked to continue on.
    pub fingerprint: u64,
}

/// The first record of every journal: run configuration + dataset
/// fingerprint. Resume verifies these against the continuing run's
/// settings before replaying a single trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Schema version of every record in this file.
    pub schema_version: u32,
    /// Random seed of the run.
    pub seed: u64,
    /// Time budget in (wall or virtual) seconds.
    pub time_budget: f64,
    /// Trial cap, if any.
    pub max_trials: Option<usize>,
    /// Initial sample size for data subsampling.
    pub sample_size_init: usize,
    /// Whether data subsampling was enabled.
    pub sampling: bool,
    /// The search's proposer: FLAML's learner selection (`"eci"` /
    /// `"round-robin"`) or a baseline system (`"bohb"` / `"bo"` /
    /// `"random"` / `"hyperband"`).
    pub learner_selection: String,
    /// Resampling choice (`"auto"` / `"cv"` / `"holdout"`).
    pub resample: String,
    /// Metric optimized (empty = the task default).
    pub metric: String,
    /// Estimator roster, in order.
    pub estimators: Vec<String>,
    /// `"wall"` or `"virtual"` budget accounting.
    pub time_source: String,
    /// The dataset the run searched on.
    pub dataset: DatasetInfo,
}

/// One committed trial, as journaled (one JSONL line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialLine {
    /// 1-based trial index.
    pub iter: usize,
    /// Learner evaluated.
    pub learner: String,
    /// Configuration rendered as `name=value` pairs (human-readable;
    /// lossy).
    pub config: String,
    /// Natural-unit configuration values in parameter order (lossless).
    pub config_values: Vec<f64>,
    /// Sample size used.
    pub sample_size: usize,
    /// Final validation loss (may be `Infinity`, the failure sentinel).
    pub loss: f64,
    /// Final-attempt status name.
    pub status: String,
    /// Trial mode (`"search"` / `"sample-up"`).
    pub mode: String,
    /// Retry attempts consumed (0 = first attempt was final).
    pub attempts: usize,
    /// Budget cost charged per attempt, in charge order. Replay advances
    /// the budget clock by these one at a time, reproducing the live
    /// run's floating-point accumulation bit-for-bit.
    pub attempt_costs: Vec<f64>,
    /// Total budget cost of the trial (sum of `attempt_costs`, as summed
    /// by the live run).
    pub cost: f64,
    /// Budget elapsed when the trial committed (wall or virtual seconds).
    pub total_time: f64,
    /// Measured wall seconds, regardless of the budget clock.
    #[serde(default)]
    pub wall_secs: f64,
    /// Prepared-data cache hits during this trial's preparation.
    #[serde(default)]
    pub prepared_hits: usize,
    /// Prepared-data cache misses during this trial's preparation.
    #[serde(default)]
    pub prepared_misses: usize,
    /// Prepared-data cache entries evicted under the byte budget during
    /// this trial's preparation.
    #[serde(default)]
    pub prepared_evictions: usize,
    /// Bytes of dataset copies the zero-copy data plane avoided
    /// materializing for this trial.
    #[serde(default)]
    pub bytes_copied_saved: usize,
    /// Written as 0: no trial fit continues a cached tree prefix.
    /// Journals from searches that still had a cross-trial tree cache
    /// carry its counts here. The key stays, with the two below, until
    /// the next versioned journal change, so existing canonical bytes
    /// keep their value.
    #[serde(default)]
    pub tree_cache_hits: usize,
    /// Written as 0 (see `tree_cache_hits`).
    #[serde(default)]
    pub tree_cache_misses: usize,
    /// Written as 0 (see `tree_cache_hits`).
    #[serde(default)]
    pub trees_saved: usize,
    /// The trial's base evaluation seed.
    pub seed: u64,
    /// Whether the trial improved the run's global best error.
    pub improved: bool,
    /// Global best error after this trial.
    pub best_loss: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> TrialLine {
        TrialLine {
            iter: 3,
            learner: "lightgbm".into(),
            config: "trees=4, lr=0.1000".into(),
            config_values: vec![4.0, 0.1],
            sample_size: 500,
            loss: 0.125,
            status: "ok".into(),
            mode: "search".into(),
            attempts: 0,
            attempt_costs: vec![0.05],
            cost: 0.05,
            total_time: 0.2,
            wall_secs: 0.01,
            prepared_hits: 2,
            prepared_misses: 1,
            prepared_evictions: 0,
            bytes_copied_saved: 4096,
            tree_cache_hits: 1,
            tree_cache_misses: 0,
            trees_saved: 12,
            seed: 7,
            improved: true,
            best_loss: 0.125,
        }
    }

    #[test]
    fn trial_line_round_trips_through_json() {
        let l = line();
        let json = serde_json::to_string(&l).unwrap();
        let back: TrialLine = serde_json::from_str(&json).unwrap();
        assert_eq!(l, back);
    }

    #[test]
    fn failure_sentinel_loss_round_trips() {
        let mut l = line();
        l.loss = f64::INFINITY;
        l.best_loss = f64::INFINITY;
        l.status = "panicked".into();
        let json = serde_json::to_string(&l).unwrap();
        assert!(json.contains("Infinity"));
        let back: TrialLine = serde_json::from_str(&json).unwrap();
        assert!(back.loss.is_infinite() && back.loss > 0.0);
        assert_eq!(l, back);
    }
}
