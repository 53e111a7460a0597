//! The public AutoML API: settings, trial records, and results.
//!
//! Mirrors the paper's scikit-learn-style interface:
//!
//! ```text
//! automl.fit(X_train, y_train, time_budget=60, estimator_list=[...])
//! ```
//!
//! becomes
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use flaml_core::AutoMl;
//! use flaml_data::{Dataset, Task};
//!
//! let x: Vec<f64> = (0..300).map(|i| i as f64 / 300.0).collect();
//! let noise: Vec<f64> = (0..300).map(|i| ((i * 31) % 17) as f64).collect();
//! let y: Vec<f64> = x.iter().map(|v| f64::from(*v > 0.5)).collect();
//! let data = Dataset::new("demo", Task::Binary, vec![x, noise], y)?;
//!
//! let result = AutoMl::new()
//!     .time_budget(1.0)
//!     .seed(42)
//!     .fit(&data)?;
//! let predictions = result.model.predict(&data);
//! # let _ = predictions;
//! # Ok(())
//! # }
//! ```

use crate::clock::TimeSource;
use crate::controller::{sanitize, Search};
use crate::custom::CustomLearner;
use crate::learner::{Estimator, LearnerKind};
use crate::resample::{ResampleStrategy, TrialStatus};
use flaml_data::Dataset;
use flaml_exec::FaultPlan;
use flaml_journal::JournalError;
use flaml_learners::FittedModel;
use flaml_metrics::Metric;
use flaml_search::{Config, SearchSpace};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::path::PathBuf;

/// Which proposer drives the search: FLAML's (Steps 1–2, with the
/// learner picked by ECI or round-robin) or one of the baseline systems
/// the paper compares against. Every policy runs through the same
/// controller — trial executor, budget clock, retry policy, journal and
/// refit — so their traces are directly comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LearnerSelection {
    /// ECI-based randomized prioritization (FLAML).
    Eci,
    /// Round-robin over the estimator list (the paper's `roundrobin`
    /// ablation).
    RoundRobin,
    /// HpBandSter's BOHB: TPE × Hyperband over sample-size fidelity, in
    /// the joint learner × hyperparameter space.
    Bohb,
    /// TPE over the joint space on full data (the BO family:
    /// auto-sklearn, cloud-automl stand-in).
    Bo,
    /// Uniform random search over the joint space on full data
    /// (randomized-grid stand-in).
    Random,
    /// Random configurations under Hyperband allocation (Li et al.
    /// 2017).
    Hyperband,
}

impl LearnerSelection {
    /// Stable lowercase name, as recorded in a trial journal's header.
    pub fn name(&self) -> &'static str {
        match self {
            LearnerSelection::Eci => "eci",
            LearnerSelection::RoundRobin => "round-robin",
            LearnerSelection::Bohb => "bohb",
            LearnerSelection::Bo => "bo",
            LearnerSelection::Random => "random",
            LearnerSelection::Hyperband => "hyperband",
        }
    }

    /// Parses a name as produced by [`LearnerSelection::name`].
    pub fn parse(name: &str) -> Option<LearnerSelection> {
        [
            LearnerSelection::Eci,
            LearnerSelection::RoundRobin,
            LearnerSelection::Bohb,
            LearnerSelection::Bo,
            LearnerSelection::Random,
            LearnerSelection::Hyperband,
        ]
        .into_iter()
        .find(|s| s.name() == name)
    }
}

/// How the resampling strategy is chosen (Step 0).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ResampleChoice {
    /// The paper's thresholding rule.
    Auto,
    /// Always cross-validate (the paper's `cv` ablation).
    AlwaysCv,
    /// Always hold out.
    AlwaysHoldout,
}

impl ResampleChoice {
    /// Stable lowercase name, as recorded in a trial journal's header.
    pub fn name(&self) -> &'static str {
        match self {
            ResampleChoice::Auto => "auto",
            ResampleChoice::AlwaysCv => "cv",
            ResampleChoice::AlwaysHoldout => "holdout",
        }
    }

    /// Parses a name as produced by [`ResampleChoice::name`].
    pub fn parse(name: &str) -> Option<ResampleChoice> {
        [
            ResampleChoice::Auto,
            ResampleChoice::AlwaysCv,
            ResampleChoice::AlwaysHoldout,
        ]
        .into_iter()
        .find(|c| c.name() == name)
    }
}

/// Whether a trial searched a new configuration or grew the sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrialMode {
    /// A new configuration: proposed by FLOW² under FLAML's policies, by
    /// the sampler (TPE or random) under the baselines'.
    Search,
    /// A configuration re-evaluated at a larger sample size: FLAML's
    /// incumbent at a doubled sample, or a Hyperband survivor promoted
    /// to the next rung.
    SampleUp,
}

impl TrialMode {
    /// Stable lowercase name, as recorded in a trial journal.
    pub fn name(&self) -> &'static str {
        match self {
            TrialMode::Search => "search",
            TrialMode::SampleUp => "sample-up",
        }
    }

    /// Parses a mode name as produced by [`TrialMode::name`].
    pub fn parse(name: &str) -> Option<TrialMode> {
        match name {
            "search" => Some(TrialMode::Search),
            "sample-up" => Some(TrialMode::SampleUp),
            _ => None,
        }
    }
}

/// One completed trial, as recorded in [`AutoMlResult::trials`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialRecord {
    /// 1-based trial index.
    pub iter: usize,
    /// Name of the learner evaluated.
    pub learner: String,
    /// The configuration, rendered as `name=value` pairs.
    pub config: String,
    /// Sample size used.
    pub sample_size: usize,
    /// Validation error observed (metric loss; may be infinite).
    pub error: f64,
    /// Cost charged for this trial (seconds of the active clock).
    pub cost: f64,
    /// Total budget consumed when the trial finished.
    pub total_time: f64,
    /// Search or sample-growth trial.
    pub mode: TrialMode,
    /// Whether this trial improved the global best error.
    pub improved_global: bool,
    /// Best global error after this trial.
    pub best_error_so_far: f64,
    /// ECI of every learner after this trial (empty unless ECI selects).
    pub eci_snapshot: Vec<(String, f64)>,
    /// Whether a fit of this trial ran past its cooperative deadline.
    #[serde(default)]
    pub timed_out: bool,
    /// Whether a fit of this trial panicked (absorbed as a failure).
    #[serde(default)]
    pub panicked: bool,
    /// How the trial's final attempt ended.
    #[serde(default)]
    pub status: TrialStatus,
    /// Number of retries this trial consumed (0 = succeeded or gave up
    /// on the first attempt).
    #[serde(default)]
    pub n_retries: usize,
    /// The configuration's natural-unit values in parameter order. The
    /// lossless counterpart of the rendered `config` string (which
    /// truncates floats for readability).
    #[serde(default)]
    pub config_values: Vec<f64>,
}

/// Error from [`AutoMl::fit`].
#[derive(Debug)]
pub enum AutoMlError {
    /// The estimator list was empty.
    NoEstimators,
    /// No trial produced a finite validation error, so there is no model
    /// to return.
    NoViableModel,
    /// The final refit of the best configuration failed.
    RefitFailed(flaml_learners::FitError),
    /// The dataset has too few rows to split into train and validation.
    TooFewRows {
        /// Rows present.
        rows: usize,
        /// Minimum rows required.
        needed: usize,
    },
    /// A classification target with fewer than two classes present —
    /// nothing to discriminate, so every trial would fail.
    DegenerateTarget {
        /// Distinct classes actually present in the target.
        classes_present: usize,
    },
    /// Every feature column is degenerate (constant or all-NaN), so no
    /// model can learn anything after dropping them.
    NoUsableFeatures,
    /// A trial journal could not be opened (unreadable file, missing or
    /// corrupt header, unsupported schema version).
    Journal(JournalError),
    /// The journal file could not be created or written.
    JournalIo(std::io::Error),
    /// Durable persistence failed mid-run (`ENOSPC`, failed fsync, torn
    /// write): records the search believed committed may not be on
    /// disk, so the run fails with the typed storage error instead of
    /// returning a result whose journal silently lies. The journal file
    /// itself is already truncated back to its last committed record.
    Durability(flaml_store::StorageError),
    /// The journal was recorded under a different run configuration or
    /// dataset; resuming or retraining from it would be meaningless.
    ResumeMismatch {
        /// Which header field disagreed.
        field: &'static str,
        /// The value recorded in the journal.
        journal: String,
        /// The value of the run asked to resume.
        run: String,
    },
    /// Replay proposed a different trial than the journal recorded — the
    /// journal does not belong to this run's deterministic trajectory.
    ResumeDiverged {
        /// 1-based trial number at which replay and journal disagreed.
        trial: usize,
        /// What disagreed.
        detail: String,
    },
    /// The journal's best trial used a learner this build cannot
    /// reconstruct by name (e.g. a custom learner).
    UnknownLearner(String),
    /// A custom learner's name is a builtin learner's name or another
    /// custom learner's: journals, traces and warm starts identify a
    /// learner by name, so every name must have one owner.
    DuplicateLearner(String),
    /// Stored configuration values — a journal line's, a warm-start
    /// point's — do not fit the named learner's search space.
    ConfigMismatch {
        /// The learner the values were stored for.
        learner: String,
        /// Parameters in the learner's search space.
        expected: usize,
        /// Values stored.
        found: usize,
    },
    /// Compiling, saving or loading a serving artifact failed.
    Artifact(flaml_serve::ArtifactError),
    /// The time budget is not a finite number of seconds above zero.
    BadTimeBudget(f64),
}

impl fmt::Display for AutoMlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutoMlError::NoEstimators => write!(f, "estimator list is empty"),
            AutoMlError::NoViableModel => {
                write!(f, "no trial produced a finite validation error")
            }
            AutoMlError::RefitFailed(e) => write!(f, "refit of best config failed: {e}"),
            AutoMlError::TooFewRows { rows, needed } => {
                write!(f, "dataset has {rows} rows; at least {needed} are required")
            }
            AutoMlError::DegenerateTarget { classes_present } => write!(
                f,
                "classification target has {classes_present} distinct class(es); at least 2 are required"
            ),
            AutoMlError::NoUsableFeatures => {
                write!(f, "every feature column is constant or all-NaN")
            }
            AutoMlError::Journal(e) => write!(f, "trial journal unusable: {e}"),
            AutoMlError::JournalIo(e) => write!(f, "trial journal write failed: {e}"),
            AutoMlError::Durability(e) => write!(f, "durable persistence failed: {e}"),
            AutoMlError::ResumeMismatch { field, journal, run } => write!(
                f,
                "journal does not match this run: {field} is {journal} in the journal but {run} here"
            ),
            AutoMlError::ResumeDiverged { trial, detail } => write!(
                f,
                "replay diverged from the journal at trial {trial}: {detail}"
            ),
            AutoMlError::UnknownLearner(name) => {
                write!(f, "journaled learner {name:?} is not a builtin learner")
            }
            AutoMlError::DuplicateLearner(name) => write!(
                f,
                "custom learner {name:?} reuses a builtin or another custom learner's name"
            ),
            AutoMlError::ConfigMismatch {
                learner,
                expected,
                found,
            } => write!(
                f,
                "stored configuration of {learner:?} has {found} values; its search space has {expected} parameters"
            ),
            AutoMlError::Artifact(e) => write!(f, "serving artifact error: {e}"),
            AutoMlError::BadTimeBudget(budget) => write!(
                f,
                "time budget must be a finite number of seconds above 0, got {budget}"
            ),
        }
    }
}

impl Error for AutoMlError {}

impl From<JournalError> for AutoMlError {
    fn from(e: JournalError) -> AutoMlError {
        AutoMlError::Journal(e)
    }
}

impl From<flaml_serve::ArtifactError> for AutoMlError {
    fn from(e: flaml_serve::ArtifactError) -> AutoMlError {
        AutoMlError::Artifact(e)
    }
}

/// The outcome of an AutoML run.
#[derive(Debug)]
pub struct AutoMlResult {
    /// Name of the best configuration's learner.
    pub best_learner: String,
    /// Best configuration (natural units).
    pub best_config: Config,
    /// Best configuration rendered as `name=value` pairs.
    pub best_config_rendered: String,
    /// Best validation error.
    pub best_error: f64,
    /// The final model, retrained on all training rows.
    pub model: FittedModel,
    /// Every trial in order.
    pub trials: Vec<TrialRecord>,
    /// The resampling strategy used.
    pub strategy: ResampleStrategy,
    /// The metric optimized.
    pub metric: Metric,
    /// Total retries spent across all trials.
    pub n_retries: usize,
    /// Number of quarantine episodes (a learner entering quarantine;
    /// the same learner can contribute more than once if it recovers
    /// and relapses).
    pub n_quarantined: usize,
}

/// Serializable summary of an [`AutoMlResult`] (everything except the
/// model itself).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ResultSummary {
    best_learner: String,
    best_config: String,
    best_config_values: Vec<f64>,
    best_error: f64,
    metric: String,
    strategy: String,
    n_trials: usize,
    n_retries: usize,
    n_quarantined: usize,
    trials: Vec<TrialRecord>,
}

impl AutoMlResult {
    /// The whole result (minus the trained model) as a JSON object:
    /// best learner/config/error, metric, resampling strategy, failure
    /// counters, and the full trial trace.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&ResultSummary {
            best_learner: self.best_learner.clone(),
            best_config: self.best_config_rendered.clone(),
            best_config_values: self.best_config.values().to_vec(),
            best_error: self.best_error,
            metric: self.metric.name().to_string(),
            strategy: self.strategy.to_string(),
            n_trials: self.trials.len(),
            n_retries: self.n_retries,
            n_quarantined: self.n_quarantined,
            trials: self.trials.clone(),
        })
        .expect("summary serialization is infallible")
    }
}

/// A model rebuilt from a journal by [`retrain_from_log`], without any
/// searching.
#[derive(Debug)]
pub struct Retrained {
    /// Name of the journaled best learner.
    pub learner: String,
    /// The journaled best configuration (natural units).
    pub config: Config,
    /// The configuration rendered as `name=value` pairs.
    pub config_rendered: String,
    /// The journaled validation loss of that configuration.
    pub loss: f64,
    /// The model, retrained exactly as the original run's final refit:
    /// same learner, configuration, seed, and data preparation.
    pub model: FittedModel,
}

/// Rebuilds the best model recorded in the journal at `path` — FLAML's
/// `retrain_from_log` — without running a single search trial. The
/// dataset must fingerprint-match the journal's header; the refit then
/// repeats the original run's final refit (same degenerate-column
/// cleanup, same seeded shuffle, same learner/configuration/seed), so
/// its predictions equal the original best model's exactly.
///
/// # Errors
///
/// Returns [`AutoMlError`] if the journal is unusable, records no
/// finite-loss trial, was recorded against different data, names a
/// non-builtin learner, stores a configuration that does not fit that
/// learner's space, or the refit fails.
pub fn retrain_from_log(
    path: impl AsRef<std::path::Path>,
    data: &Dataset,
) -> Result<Retrained, AutoMlError> {
    let journal = flaml_journal::Journal::read(path)?;
    let best = journal.best_trial().ok_or(AutoMlError::NoViableModel)?;
    let kind = LearnerKind::parse(&best.learner)
        .ok_or_else(|| AutoMlError::UnknownLearner(best.learner.clone()))?;

    // The controller's own data preparation, so the refit sees the
    // original run's rows and columns bit-for-bit.
    let (data, _) = sanitize(data)?;
    let fingerprint = data.fingerprint();
    if fingerprint != journal.header.dataset.fingerprint {
        return Err(AutoMlError::ResumeMismatch {
            field: "dataset fingerprint",
            journal: format!("{:#018x}", journal.header.dataset.fingerprint),
            run: format!("{fingerprint:#018x}"),
        });
    }

    let shuffled = data.shuffled(journal.header.seed);
    let space = kind.space(shuffled.n_rows());
    let config = stored_config(&best.learner, &best.config_values, &space)?;
    let model = Estimator::Builtin(kind)
        .fit(&shuffled, &config, &space, journal.header.seed, None, None)
        .map_err(AutoMlError::RefitFailed)?;
    Ok(Retrained {
        learner: best.learner.clone(),
        config_rendered: config.render(&space),
        config,
        loss: best.loss,
        model,
    })
}

/// `values` as a configuration of `learner`'s `space`, or the typed
/// error for stored values (a journal line's, a warm-start point's) that
/// do not fit it.
pub(crate) fn stored_config(
    learner: &str,
    values: &[f64],
    space: &SearchSpace,
) -> Result<Config, AutoMlError> {
    if values.len() != space.dim() {
        return Err(AutoMlError::ConfigMismatch {
            learner: learner.to_string(),
            expected: space.dim(),
            found: values.len(),
        });
    }
    Ok(Config::from(values.to_vec()))
}

/// Builder-style AutoML entry point (the library's `fit()`).
#[derive(Debug, Clone)]
pub struct AutoMl {
    pub(crate) time_budget: f64,
    pub(crate) metric: Option<Metric>,
    pub(crate) estimators: Vec<LearnerKind>,
    pub(crate) seed: u64,
    pub(crate) sample_size_init: usize,
    pub(crate) sampling: bool,
    pub(crate) learner_selection: LearnerSelection,
    pub(crate) resample_choice: ResampleChoice,
    pub(crate) max_trials: Option<usize>,
    pub(crate) time_source: TimeSource,
    pub(crate) ensemble: bool,
    pub(crate) custom_learners: Vec<std::sync::Arc<dyn CustomLearner>>,
    pub(crate) workers: usize,
    pub(crate) event_sink: Option<flaml_exec::EventSink>,
    pub(crate) max_retries: usize,
    pub(crate) quarantine_after: usize,
    pub(crate) quarantine_probe_every: usize,
    pub(crate) fault_plan: Option<FaultPlan>,
    pub(crate) journal_path: Option<PathBuf>,
    pub(crate) resume: bool,
    pub(crate) starting_points: Vec<(String, Vec<f64>, f64)>,
    pub(crate) prepared_cache: bool,
    pub(crate) prepared_cache_bytes: usize,
    /// Storage backend for journal persistence. `None` means the real
    /// filesystem ([`flaml_store::DiskStorage`]); tests inject
    /// [`flaml_store::ChaosStorage`] here to fault the journal's I/O.
    pub(crate) storage: Option<std::sync::Arc<dyn flaml_store::Storage>>,
}

impl Default for AutoMl {
    fn default() -> Self {
        AutoMl {
            time_budget: 60.0,
            metric: None,
            estimators: LearnerKind::ALL.to_vec(),
            seed: 0,
            // The paper starts at 10K rows on datasets up to 1M rows; this
            // reproduction's workloads are ~100x smaller, so the scaled
            // default keeps the same number of doublings available.
            sample_size_init: 500,
            sampling: true,
            learner_selection: LearnerSelection::Eci,
            resample_choice: ResampleChoice::Auto,
            max_trials: None,
            time_source: TimeSource::Wall,
            ensemble: false,
            custom_learners: Vec::new(),
            workers: 1,
            event_sink: None,
            max_retries: 1,
            quarantine_after: 3,
            quarantine_probe_every: 8,
            fault_plan: None,
            journal_path: None,
            resume: false,
            starting_points: Vec::new(),
            prepared_cache: true,
            prepared_cache_bytes: 256 * 1024 * 1024,
            storage: None,
        }
    }
}

impl AutoMl {
    /// Creates an AutoML instance with the paper's defaults.
    pub fn new() -> AutoMl {
        AutoMl::default()
    }

    /// Sets the time budget in seconds (wall or virtual).
    pub fn time_budget(mut self, seconds: f64) -> AutoMl {
        self.time_budget = seconds;
        self
    }

    /// Sets the optimization metric (default: the task's benchmark
    /// metric — roc-auc / log-loss / r2).
    pub fn metric(mut self, metric: Metric) -> AutoMl {
        self.metric = Some(metric);
        self
    }

    /// Restricts the estimator list (the API's `estimator_list`).
    pub fn estimators(mut self, estimators: impl Into<Vec<LearnerKind>>) -> AutoMl {
        self.estimators = estimators.into();
        self
    }

    /// Sets the random seed.
    pub fn seed(mut self, seed: u64) -> AutoMl {
        self.seed = seed;
        self
    }

    /// Sets the initial sample size for data subsampling.
    pub fn sample_size_init(mut self, s: usize) -> AutoMl {
        self.sample_size_init = s.max(1);
        self
    }

    /// Enables or disables data subsampling (disable = the paper's
    /// `fulldata` ablation).
    pub fn sampling(mut self, on: bool) -> AutoMl {
        self.sampling = on;
        self
    }

    /// Chooses the proposer: FLAML's, with ECI or round-robin learner
    /// choice, or a baseline system's. The baselines search the joint
    /// learner × hyperparameter space of the estimator list; the
    /// fidelity ones (BOHB, Hyperband) start at the initial sample size.
    /// They share FLAML's retry policy ([`AutoMl::max_retries`]) but not
    /// its first-trial rule or ECI calibration.
    pub fn learner_selection(mut self, sel: LearnerSelection) -> AutoMl {
        self.learner_selection = sel;
        self
    }

    /// Overrides the resampling-strategy choice.
    pub fn resample(mut self, choice: ResampleChoice) -> AutoMl {
        self.resample_choice = choice;
        self
    }

    /// Caps the number of trials (useful for deterministic tests).
    pub fn max_trials(mut self, n: usize) -> AutoMl {
        self.max_trials = Some(n);
        self
    }

    /// Switches budget accounting to a deterministic virtual cost model.
    pub fn time_source(mut self, source: TimeSource) -> AutoMl {
        self.time_source = source;
        self
    }

    /// Registers a user-defined learner (the paper's `add_learner`). The
    /// learner joins the estimator list and is searched like any builtin
    /// one: ECI prioritization, FLOW² over its declared space, and the
    /// sample-size schedule all apply. Its name must be its own: see
    /// [`AutoMl::validate`].
    pub fn add_learner(mut self, learner: std::sync::Arc<dyn CustomLearner>) -> AutoMl {
        self.custom_learners.push(learner);
        self
    }

    /// The full estimator roster: builtins then custom learners. A
    /// builtin repeated in the estimator list joins once.
    pub(crate) fn roster(&self) -> Vec<Estimator> {
        let mut out: Vec<Estimator> = Vec::new();
        for &k in &self.estimators {
            if !out
                .iter()
                .any(|e| matches!(e, Estimator::Builtin(b) if *b == k))
            {
                out.push(Estimator::Builtin(k));
            }
        }
        for c in &self.custom_learners {
            out.push(Estimator::Custom(c.clone()));
        }
        out
    }

    /// Sets the worker count of the fold pool (default 1 = fully
    /// sequential, the paper's setting). One trial runs at a time under
    /// every selection policy; with more workers its cross-validation
    /// folds evaluate concurrently (a holdout trial has one fold, so the
    /// extra workers idle). Folds aggregate in fold order, so a
    /// virtual-clock run produces the same trial trace at any worker
    /// count.
    pub fn workers(mut self, workers: usize) -> AutoMl {
        self.workers = workers.max(1);
        self
    }

    /// Subscribes a [`flaml_exec::EventSink`] to this run's trial
    /// telemetry: one `Started` event per trial plus a terminal
    /// `Finished` / `TimedOut` / `Panicked` event carrying learner,
    /// config, sample size, error and charged cost.
    pub fn event_sink(mut self, sink: flaml_exec::EventSink) -> AutoMl {
        self.event_sink = Some(sink);
        self
    }

    /// Caps the number of retries a trial may spend on *transient*
    /// failures (panics, non-finite losses). Retries are charged to the
    /// trial's own budget; deterministic failures and timeouts are never
    /// retried. Default: 1.
    pub fn max_retries(mut self, n: usize) -> AutoMl {
        self.max_retries = n;
        self
    }

    /// Enables or disables the zero-copy data plane (fold views and
    /// pre-binned matrices memoized across trials). Disabling it falls
    /// back to the copy-based data flow: every trial materializes owned
    /// sample and fold datasets and every fit re-bins its columns. The
    /// plane is observationally pure — the trial trace is bit-identical
    /// either way — so this knob only trades memory for speed.
    /// Default: on.
    pub fn prepared_cache(mut self, on: bool) -> AutoMl {
        self.prepared_cache = on;
        self
    }

    /// Caps the bytes the prepared-data cache may hold; the oldest
    /// entries are evicted first when the budget is exceeded. Default:
    /// 256 MiB.
    pub fn prepared_cache_bytes(mut self, bytes: usize) -> AutoMl {
        self.prepared_cache_bytes = bytes;
        self
    }

    /// Quarantines a learner after this many *consecutive* failed trials
    /// (non-finite final error). A quarantined learner is skipped by the
    /// ECI proposer until its next scheduled probe; a successful probe
    /// lifts the quarantine. `0` disables quarantining. Default: 3.
    pub fn quarantine_after(mut self, n: usize) -> AutoMl {
        self.quarantine_after = n;
        self
    }

    /// Sets how many iterations a quarantined learner sits out before it
    /// is offered one probe trial. Default: 8.
    pub fn quarantine_probe_every(mut self, n: usize) -> AutoMl {
        self.quarantine_probe_every = n.max(1);
        self
    }

    /// Injects deterministic faults (panics, slowdowns, poisoned losses)
    /// into trial execution — chaos testing for the failure policy. The
    /// plan is a pure function of `(seed, trial, attempt)`, so injected
    /// faults are identical at any worker count.
    pub fn fault_plan(mut self, plan: FaultPlan) -> AutoMl {
        self.fault_plan = Some(plan);
        self
    }

    /// Journals every committed trial to a crash-safe JSONL log at
    /// `path` (created or truncated at fit time; parent directories are
    /// created). Each record is fsynced before the search proceeds, so a
    /// killed run can be continued with [`AutoMl::resume_from`] losing
    /// at most the trial that was in flight.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> AutoMl {
        self.journal_path = Some(path.into());
        self.resume = false;
        self
    }

    /// Resumes an interrupted run from the journal at `path`: every
    /// committed trial is replayed through the controller (restoring
    /// FLOW² incumbents, ECI state, quarantine counters, and spent
    /// budget exactly), then the search continues — and keeps journaling
    /// — from where the previous process died. The run's settings, seed,
    /// and dataset must match the journal's header; the time budget and
    /// trial cap may differ, which is also how a finished run is
    /// *extended*. Under a virtual clock the continued trace is
    /// byte-identical to an uninterrupted run.
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> AutoMl {
        self.journal_path = Some(path.into());
        self.resume = true;
        self
    }

    /// Routes journal persistence through an explicit
    /// [`flaml_store::Storage`] backend instead of the real filesystem —
    /// the disk-fault-injection entry point
    /// ([`flaml_store::ChaosStorage`]). Storage choice never affects the
    /// search trajectory: with faults disabled, traces are byte-identical
    /// to the default backend's.
    pub fn storage(mut self, storage: std::sync::Arc<dyn flaml_store::Storage>) -> AutoMl {
        self.storage = Some(storage);
        self
    }

    /// Seeds the search from prior results (warm start): for each
    /// `(learner, config_values, loss)` triple — typically
    /// [`flaml_journal::Journal::best_configs`] from an earlier run's
    /// journal — the named learner's FLOW² thread starts at that
    /// configuration instead of its default low-cost init, and its ECI
    /// state is primed with the prior loss. Learners not in the current
    /// estimator list are ignored; a point whose values do not fit its
    /// learner's space fails the search with
    /// [`AutoMlError::ConfigMismatch`] before any journal is created.
    pub fn starting_points(mut self, points: Vec<(String, Vec<f64>, f64)>) -> AutoMl {
        self.starting_points = points;
        self
    }

    /// Enables stacked-ensemble post-processing (paper appendix): the best
    /// configuration of each learner becomes a member, a linear
    /// meta-learner is trained on out-of-fold predictions, and the
    /// returned model is the stack. Off by default to keep overhead low;
    /// the extra training happens after the search budget, as in FLAML.
    pub fn ensemble(mut self, on: bool) -> AutoMl {
        self.ensemble = on;
        self
    }

    /// Checks the settings no search could run under, before any trial
    /// runs or any journal is created: [`AutoMl::fit`] and every
    /// [`crate::SearchHandle`] slice apply it first.
    ///
    /// # Errors
    ///
    /// [`AutoMlError::BadTimeBudget`] unless the time budget is finite
    /// and above zero; [`AutoMlError::DuplicateLearner`] when a custom
    /// learner's name is a builtin learner's (whether or not that
    /// builtin is in the estimator list) or another custom learner's.
    pub fn validate(&self) -> Result<(), AutoMlError> {
        if !(self.time_budget.is_finite() && self.time_budget > 0.0) {
            return Err(AutoMlError::BadTimeBudget(self.time_budget));
        }
        for (i, custom) in self.custom_learners.iter().enumerate() {
            let name = custom.name();
            if LearnerKind::parse(name).is_some()
                || self.custom_learners[..i].iter().any(|c| c.name() == name)
            {
                return Err(AutoMlError::DuplicateLearner(name.to_string()));
            }
        }
        Ok(())
    }

    /// Runs the search on `data` and returns the best model found.
    ///
    /// # Errors
    ///
    /// Returns [`AutoMlError`] if the settings fail
    /// [`AutoMl::validate`], the estimator list is empty, the dataset is
    /// degenerate (fewer than 2 rows, a single-class classification
    /// target, or no usable feature after dropping constant/all-NaN
    /// columns), a warm-start point does not fit its learner's space, no
    /// trial succeeded, or the final refit failed.
    pub fn fit(&self, data: &Dataset) -> Result<AutoMlResult, AutoMlError> {
        let mut search = Search::open(self.clone(), data, None)?;
        search.step(usize::MAX)?;
        search.finish()
    }
}
