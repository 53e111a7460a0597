//! The method registry: one entry point to run FLAML, its ablations, or
//! any baseline with a common signature, plus train/test evaluation.

use flaml_core::{
    AutoMl, AutoMlError, AutoMlResult, EventSink, FaultPlan, LearnerSelection, ResampleChoice,
    TimeSource,
};
use flaml_data::Dataset;
use flaml_metrics::{scaled_score, Metric, ScaleAnchors};

/// Every system the harness can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// FLAML with all components enabled.
    Flaml,
    /// Ablation: round-robin learner choice instead of ECI.
    FlamlRoundRobin,
    /// Ablation: no data subsampling.
    FlamlFullData,
    /// Ablation: always cross-validate.
    FlamlCv,
    /// HpBandSter stand-in (TPE x Hyperband, shared search space).
    Bohb,
    /// BO over the joint space (auto-sklearn family stand-in).
    Bo,
    /// Uniform random joint search (randomized-grid stand-in).
    Random,
    /// Random configs under Hyperband allocation.
    Hyperband,
}

impl Method {
    /// Every method the harness knows, in display order. The single
    /// source of truth for [`Method::parse`].
    pub const ALL: [Method; 8] = [
        Method::Flaml,
        Method::FlamlRoundRobin,
        Method::FlamlFullData,
        Method::FlamlCv,
        Method::Bohb,
        Method::Bo,
        Method::Random,
        Method::Hyperband,
    ];

    /// All methods of the comparative study (Figure 5).
    pub const COMPARATIVE: [Method; 5] = [
        Method::Flaml,
        Method::Bohb,
        Method::Bo,
        Method::Random,
        Method::Hyperband,
    ];

    /// FLAML and its ablations (Figures 7–8).
    pub const ABLATIONS: [Method; 4] = [
        Method::Flaml,
        Method::FlamlRoundRobin,
        Method::FlamlFullData,
        Method::FlamlCv,
    ];

    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Flaml => "flaml",
            Method::FlamlRoundRobin => "roundrobin",
            Method::FlamlFullData => "fulldata",
            Method::FlamlCv => "cv",
            Method::Bohb => "bohb",
            Method::Bo => "bo",
            Method::Random => "random",
            Method::Hyperband => "hyperband",
        }
    }

    /// Parses a method name (as printed by [`Method::name`]).
    pub fn parse(s: &str) -> Option<Method> {
        Method::ALL.into_iter().find(|m| m.name() == s)
    }

    /// Runs the method on `train` under `cfg`: its budget, seed and
    /// clock, `sample_init` (FLAML's initial sample size and the fidelity
    /// floor of the bandit baselines, so every system sees the same
    /// knob), and the execution knobs of the `flaml-exec` runtime — a
    /// worker count for the trial-execution pool, an optional trial-event
    /// sink, fault plan and journal. Every method — FLAML, its ablations
    /// and the baselines — is one [`AutoMl::fit`], so all of them honor
    /// every knob.
    ///
    /// # Errors
    ///
    /// Propagates [`AutoMlError`] from the search.
    pub fn run_with(&self, train: &Dataset, cfg: &RunConfig) -> Result<AutoMlResult, AutoMlError> {
        let mut automl = AutoMl::new()
            .time_budget(cfg.budget_secs)
            .seed(cfg.seed)
            .sample_size_init(cfg.sample_init)
            .time_source(cfg.time_source)
            .workers(cfg.workers);
        if let Some(cap) = cfg.max_trials {
            automl = automl.max_trials(cap);
        }
        if let Some(sink) = &cfg.event_sink {
            automl = automl.event_sink(sink.clone());
        }
        if let Some(plan) = cfg.fault_plan {
            automl = automl.fault_plan(plan);
        }
        automl = journaled(automl, cfg.journal.as_deref(), cfg.resume);
        automl = match self {
            Method::Flaml => automl,
            Method::FlamlRoundRobin => automl.learner_selection(LearnerSelection::RoundRobin),
            Method::FlamlFullData => automl.sampling(false),
            Method::FlamlCv => automl.resample(ResampleChoice::AlwaysCv),
            Method::Bohb => automl.learner_selection(LearnerSelection::Bohb),
            Method::Bo => automl.learner_selection(LearnerSelection::Bo),
            Method::Random => automl.learner_selection(LearnerSelection::Random),
            Method::Hyperband => automl.learner_selection(LearnerSelection::Hyperband),
        };
        automl.fit(train)
    }
}

/// Execution knobs shared by every method (see [`Method::run_with`]).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Time budget in (wall or virtual) seconds.
    pub budget_secs: f64,
    /// Random seed.
    pub seed: u64,
    /// FLAML's initial sample size / the bandit baselines' fidelity floor.
    pub sample_init: usize,
    /// Wall or virtual budget accounting.
    pub time_source: TimeSource,
    /// Optional trial cap.
    pub max_trials: Option<usize>,
    /// Worker count of the trial-execution pool (1 = sequential).
    pub workers: usize,
    /// Optional subscriber for per-trial telemetry events.
    pub event_sink: Option<EventSink>,
    /// Optional deterministic fault-injection plan (`--chaos seed:rate`).
    pub fault_plan: Option<FaultPlan>,
    /// Optional crash-safe trial journal for the run.
    pub journal: Option<std::path::PathBuf>,
    /// With `journal` set: continue from the journal if it already
    /// exists, instead of starting it over.
    pub resume: bool,
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Journals `automl`'s trials to `path`. Under `resume` an existing log
/// is continued; a fresh path (new cell, wiped directory) starts a new
/// journal instead of erroring.
pub(crate) fn journaled(automl: AutoMl, path: Option<&std::path::Path>, resume: bool) -> AutoMl {
    match path {
        Some(path) if resume && path.exists() => automl.resume_from(path),
        Some(path) => automl.journal(path),
        None => automl,
    }
}

/// Splits a dataset into a train/test pair by a shuffled `1 - ratio` /
/// `ratio` cut (the harness's stand-in for the benchmark's OpenML folds).
pub fn holdout_split(data: &Dataset, test_ratio: f64, seed: u64) -> (Dataset, Dataset) {
    let shuffled = data.shuffled(seed.wrapping_mul(31).wrapping_add(17));
    let n = shuffled.n_rows();
    let cut = ((n as f64) * (1.0 - test_ratio)).round() as usize;
    let cut = cut.clamp(1, n - 1);
    let train = shuffled.select(&(0..cut).collect::<Vec<_>>());
    let test = shuffled.select(&(cut..n).collect::<Vec<_>>());
    (train, test)
}

/// Evaluates a result's model on the test set and calibrates it to the
/// benchmark's scaled score with `anchors` (constant predictor = 0,
/// tuned random forest = 1; see [`crate::calibration_anchors`]).
///
/// Returns `(raw_score, scaled_score)`.
pub fn evaluate_scaled(
    result: &AutoMlResult,
    test: &Dataset,
    metric: Metric,
    anchors: ScaleAnchors,
) -> (f64, f64) {
    let raw = metric
        .score(&result.model.predict(test), test.target())
        .unwrap_or(f64::NEG_INFINITY);
    (raw, scaled_score(raw, anchors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration_anchors;
    use flaml_core::default_virtual_cost;
    use flaml_data::Task;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn data(n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(0);
        let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let y: Vec<f64> = (0..n).map(|i| f64::from(x0[i] > x1[i])).collect();
        Dataset::new("m", Task::Binary, vec![x0, x1], y).unwrap()
    }

    #[test]
    fn names_round_trip() {
        for m in Method::ALL {
            assert_eq!(Method::parse(m.name()), Some(m));
        }
        assert_eq!(Method::parse("nope"), None);
    }

    #[test]
    fn all_covers_comparative_and_ablations() {
        for m in Method::COMPARATIVE.iter().chain(Method::ABLATIONS.iter()) {
            assert!(Method::ALL.contains(m), "{m} missing from ALL");
        }
    }

    #[test]
    fn holdout_split_partitions() {
        let d = data(100);
        let (train, test) = holdout_split(&d, 0.2, 1);
        assert_eq!(train.n_rows(), 80);
        assert_eq!(test.n_rows(), 20);
    }

    /// A sequential, unjournaled virtual-clock run of `budget_secs`
    /// capped at `max_trials`.
    fn cfg(budget_secs: f64, max_trials: usize) -> RunConfig {
        RunConfig {
            budget_secs,
            seed: 0,
            sample_init: 100,
            time_source: TimeSource::Virtual(default_virtual_cost),
            max_trials: Some(max_trials),
            workers: 1,
            event_sink: None,
            fault_plan: None,
            journal: None,
            resume: false,
        }
    }

    #[test]
    fn every_method_runs() {
        let d = data(400);
        for m in [Method::Flaml, Method::FlamlCv, Method::Bohb, Method::Random] {
            let r = m
                .run_with(&d, &cfg(0.5, 8))
                .unwrap_or_else(|e| panic!("{m}: {e}"));
            assert!(!r.trials.is_empty(), "{m}");
        }
    }

    #[test]
    fn scaled_evaluation_produces_finite_scores() {
        let d = data(500);
        let (train, test) = holdout_split(&d, 0.2, 2);
        let r = Method::Flaml.run_with(&train, &cfg(0.5, 10)).unwrap();
        let clock = TimeSource::Virtual(default_virtual_cost);
        let base = AutoMl::new().time_budget(0.3).time_source(clock);
        let anchors = calibration_anchors(&train, &test, r.metric, base).unwrap();
        let (raw, scaled) = evaluate_scaled(&r, &test, r.metric, anchors);
        assert!(raw.is_finite());
        assert!(scaled.is_finite());
    }
}
