//! Step 0 of FLAML's search: the resampling-strategy proposer, plus the
//! trial evaluation that executes a configuration under the chosen
//! strategy.
//!
//! The paper's thresholding rule: use 5-fold cross-validation when the
//! training set has fewer than 100K instances *and* `#instances x
//! #features / budget` is below 10M per hour; otherwise use holdout with
//! ratio 0.1.
//!
//! Evaluation runs on a [`flaml_exec::ExecPool`]: the k folds of a CV
//! trial execute as independent pool jobs (concurrently when the pool
//! has more than one worker), every model fit is panic-isolated (a
//! panicking learner becomes a failed trial, not a dead process), and
//! deadlines are enforced cooperatively through the job context. A
//! single-worker pool evaluates folds inline in fold order, reproducing
//! the sequential fold loop bit-for-bit.

use crate::dataplane::TrialData;
use crate::learner::Estimator;
use flaml_exec::{ExecPool, Job, JobStatus};
use flaml_learners::FittedModel;
use flaml_metrics::Metric;
use flaml_search::{Config, SearchSpace};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// The resampling strategy used to assess each trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ResampleStrategy {
    /// k-fold cross-validation.
    Cv {
        /// Number of folds.
        folds: usize,
    },
    /// Holdout with the given validation ratio.
    Holdout {
        /// Fraction of rows held out for validation.
        ratio: f64,
    },
}

impl ResampleStrategy {
    /// The paper's cross-validation: 5 folds.
    pub(crate) const CV: ResampleStrategy = ResampleStrategy::Cv { folds: 5 };
    /// The paper's holdout: 10 % of the rows validate.
    pub(crate) const HOLDOUT: ResampleStrategy = ResampleStrategy::Holdout { ratio: 0.1 };

    /// Step 0's thresholding rule for a dataset and time budget, with the
    /// paper's numbers: cross-validate below 100K instances when
    /// `instances x features / budget` is also below 10M per hour,
    /// otherwise hold out.
    pub fn choose(n_rows: usize, n_features: usize, budget_secs: f64) -> ResampleStrategy {
        let rate = n_rows as f64 * n_features as f64 / budget_secs.max(1e-9);
        if n_rows < 100_000 && rate < 10.0e6 / 3600.0 {
            ResampleStrategy::CV
        } else {
            ResampleStrategy::HOLDOUT
        }
    }

    /// Number of model fits one trial performs under this strategy.
    pub fn fits_per_trial(&self) -> usize {
        match self {
            ResampleStrategy::Cv { folds } => *folds,
            ResampleStrategy::Holdout { .. } => 1,
        }
    }
}

impl std::fmt::Display for ResampleStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResampleStrategy::Cv { folds } => write!(f, "cv{folds}"),
            ResampleStrategy::Holdout { ratio } => write!(f, "holdout{ratio}"),
        }
    }
}

/// How a trial ended: the typed outcome the controller's failure policy
/// dispatches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TrialStatus {
    /// The trial produced a usable validation error within its deadline.
    #[default]
    Ok,
    /// The trial failed deterministically: an unfittable subsample, a fit
    /// error, or a degenerate metric. Retrying would fail identically.
    Failed,
    /// Some fit ran past its cooperative deadline (the value, if any, is
    /// still usable — the budget was simply overrun).
    TimedOut,
    /// A fit panicked; the panic was absorbed and the trial failed.
    Panicked,
    /// The trial scored, but the loss came back `NaN` — sanitized to
    /// `INFINITY` before it can reach any incumbent.
    NonFiniteLoss,
}

impl TrialStatus {
    /// Stable lowercase name (used in logs and telemetry messages).
    pub fn name(&self) -> &'static str {
        match self {
            TrialStatus::Ok => "ok",
            TrialStatus::Failed => "failed",
            TrialStatus::TimedOut => "timed-out",
            TrialStatus::Panicked => "panicked",
            TrialStatus::NonFiniteLoss => "non-finite-loss",
        }
    }

    /// Parses a status name as produced by [`TrialStatus::name`] (how a
    /// journaled status string becomes a typed status again on replay).
    pub fn parse(name: &str) -> Option<TrialStatus> {
        [
            TrialStatus::Ok,
            TrialStatus::Failed,
            TrialStatus::TimedOut,
            TrialStatus::Panicked,
            TrialStatus::NonFiniteLoss,
        ]
        .into_iter()
        .find(|s| s.name() == name)
    }

    /// Whether the failure is *transient* — worth retrying. Panics and
    /// non-finite losses can come from flaky environments (or injected
    /// faults keyed by attempt); deterministic failures and timeouts
    /// would only burn budget on an identical re-run.
    pub fn transient(&self) -> bool {
        matches!(self, TrialStatus::Panicked | TrialStatus::NonFiniteLoss)
    }
}

impl std::fmt::Display for TrialStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The observable result of one trial.
#[derive(Debug)]
pub struct TrialOutcome {
    /// Validation error (the metric's loss; `INFINITY` if the trial
    /// failed, e.g. a single-class subsample). Never `NaN`: a `NaN` loss
    /// is sanitized to `INFINITY` and flagged
    /// [`TrialStatus::NonFiniteLoss`].
    pub error: f64,
    /// The model trained during a one-fold (holdout) trial; CV trials
    /// defer training the final model.
    pub model: Option<FittedModel>,
    /// Number of model fits the trial performed.
    pub n_fits: usize,
    /// Virtual-cost complexity factor of the evaluated configuration.
    pub cost_factor: f64,
    /// How the trial ended.
    pub status: TrialStatus,
    /// Panic or diagnostic message, if any.
    pub message: Option<String>,
}

impl TrialOutcome {
    /// A trial that failed before any model fit.
    fn aborted(cost_factor: f64) -> TrialOutcome {
        TrialOutcome {
            error: f64::INFINITY,
            model: None,
            n_fits: 0,
            cost_factor,
            status: TrialStatus::Failed,
            message: None,
        }
    }

    /// Whether any fit of this trial panicked.
    pub fn panicked(&self) -> bool {
        self.status == TrialStatus::Panicked
    }

    /// Whether this trial ran past its cooperative deadline.
    pub fn timed_out(&self) -> bool {
        self.status == TrialStatus::TimedOut
    }
}

/// Evaluates `config` for `kind` on a prepared [`TrialData`], scoring
/// each of its folds with `metric`. Each fold's fit is one job on `pool`:
/// CV folds run concurrently when the pool has more than one worker, and
/// a `pool` with one worker reproduces the sequential fold loop exactly.
/// Holdout is the one-fold case of the same loop.
///
/// Failures (unfittable subsample, degenerate metric, a panicking
/// learner) surface as `error = INFINITY` rather than an `Err`, because
/// a failed trial is a legitimate observation for the search.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_trial_prepared(
    trial: &TrialData,
    kind: &Estimator,
    config: &Config,
    space: &SearchSpace,
    metric: Metric,
    seed: u64,
    deadline: Option<Duration>,
    pool: &ExecPool,
) -> TrialOutcome {
    let cost_factor = kind.cost_factor(config, space);
    let n_fits = trial.folds.len();
    if n_fits == 0 {
        return TrialOutcome::aborted(cost_factor);
    }
    // A one-fold (holdout) trial keeps its model; CV defers training the
    // final model, so its folds' models are dropped as soon as scored.
    let keep_model = n_fits == 1;
    // Split any deadline evenly across folds so CV cannot overrun even
    // when folds run one after another.
    let per_fold = deadline.map(|d| d / n_fits as u32);
    // Once one fold's fit fails the trial error is infinite regardless of
    // the other folds; later folds short-circuit. With one worker this
    // reproduces the sequential loop's early break exactly.
    let aborted = AtomicBool::new(false);
    let aborted = &aborted;
    // A job yields its fold's raw loss (possibly NaN, so the aggregation
    // can tell a non-finite loss from a fit failure) and kept model, or
    // `None` when the fit failed or was skipped.
    let jobs: Vec<_> = trial
        .folds
        .iter()
        .map(|fold| {
            Job::new(move |ctx: &flaml_exec::JobCtx| {
                if aborted.load(Ordering::SeqCst) {
                    return None;
                }
                let fitted = kind.fit(
                    &fold.train,
                    config,
                    space,
                    seed,
                    ctx.remaining(),
                    fold.bins.as_deref(),
                );
                match fitted {
                    Ok(model) => {
                        let err = metric
                            .loss(&model.predict(&fold.valid), &fold.valid_target)
                            .unwrap_or(f64::INFINITY);
                        Some((err, keep_model.then_some(model)))
                    }
                    Err(_) => {
                        aborted.store(true, Ordering::SeqCst);
                        None
                    }
                }
            })
            .deadline(per_fold)
        })
        .collect();

    // Aggregate in fold (= submission) order so the floating-point sum is
    // identical to the sequential loop's.
    let mut losses = Vec::with_capacity(n_fits);
    let mut model = None;
    let (mut saw_nan, mut panicked, mut timed_out) = (false, false, false);
    let mut message = None;
    for result in pool.run_batch(jobs, None) {
        timed_out |= result.status.timed_out();
        match result.status {
            JobStatus::Finished(Some((err, m))) | JobStatus::TimedOut(Some((err, m))) => {
                model = model.or(m);
                if err.is_nan() {
                    saw_nan = true;
                } else {
                    losses.push(err);
                }
            }
            JobStatus::Finished(None) | JobStatus::TimedOut(None) => {}
            JobStatus::Panicked(msg) => {
                panicked = true;
                message.get_or_insert(msg);
            }
        }
    }
    // A lone fold's loss keeps its own bits: `0.0 + -0.0` is `+0.0`.
    let error = match losses.as_slice() {
        _ if losses.len() < n_fits => f64::INFINITY,
        [only] => *only,
        all => all.iter().fold(0.0, |total, err| total + err) / n_fits as f64,
    };
    let status = if panicked {
        TrialStatus::Panicked
    } else if saw_nan {
        TrialStatus::NonFiniteLoss
    } else if !error.is_finite() {
        TrialStatus::Failed
    } else if timed_out {
        TrialStatus::TimedOut
    } else {
        TrialStatus::Ok
    };
    TrialOutcome {
        error,
        model,
        n_fits,
        cost_factor,
        status,
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataplane::DataPlane;
    use flaml_data::{Dataset, Task};

    /// Evaluates `config` for `kind` on the first `sample_size` rows of
    /// the (pre-shuffled) dataset under `strategy`, deriving the trial's
    /// views and bin artifacts fresh — what the controller's data plane
    /// would produce on a cache miss.
    #[allow(clippy::too_many_arguments)]
    fn run_trial(
        shuffled: &Dataset,
        kind: &Estimator,
        config: &Config,
        space: &SearchSpace,
        sample_size: usize,
        strategy: ResampleStrategy,
        metric: Metric,
        seed: u64,
        deadline: Option<Duration>,
        pool: &ExecPool,
    ) -> TrialOutcome {
        let mut plane = DataPlane::new(shuffled.view(), strategy, true, usize::MAX);
        let (trial, _) = plane.prepare(sample_size, kind.max_bin(config, space));
        run_trial_prepared(&trial, kind, config, space, metric, seed, deadline, pool)
    }

    fn data(n: usize, d: usize) -> Dataset {
        let cols: Vec<Vec<f64>> = (0..d)
            .map(|j| {
                (0..n)
                    .map(|i| ((i * (j + 3)) % 17) as f64 + i as f64 / n as f64)
                    .collect()
            })
            .collect();
        let y: Vec<f64> = (0..n).map(|i| f64::from(i % 2 == 0)).collect();
        Dataset::new("d", Task::Binary, cols, y).unwrap()
    }

    #[test]
    fn rule_picks_cv_for_small_cheap_tasks() {
        // 1000 x 5 over 3600s => rate 1.39/s, far below 2778/s.
        assert_eq!(
            ResampleStrategy::choose(1_000, 5, 3600.0),
            ResampleStrategy::Cv { folds: 5 }
        );
    }

    #[test]
    fn rule_picks_holdout_for_big_data() {
        assert_eq!(
            ResampleStrategy::choose(200_000, 5, 3600.0),
            ResampleStrategy::Holdout { ratio: 0.1 }
        );
    }

    #[test]
    fn rule_picks_holdout_when_budget_is_tight() {
        // 50k x 100 over 60s => 83k/s >> 2778/s.
        assert_eq!(
            ResampleStrategy::choose(50_000, 100, 60.0),
            ResampleStrategy::Holdout { ratio: 0.1 }
        );
    }

    #[test]
    fn holdout_trial_returns_model_and_finite_error() {
        let d = data(200, 3).shuffled(0);
        let kind = Estimator::Builtin(crate::LearnerKind::LightGbm);
        let space = kind.space(200);
        let out = run_trial(
            &d,
            &kind,
            &space.init_config(),
            &space,
            200,
            ResampleStrategy::Holdout { ratio: 0.1 },
            Metric::RocAuc,
            0,
            None,
            &ExecPool::sequential(),
        );
        assert!(out.error.is_finite());
        assert!(out.model.is_some());
        assert_eq!(out.n_fits, 1);
        assert_eq!(out.status, TrialStatus::Ok);
    }

    #[test]
    fn cv_trial_averages_folds() {
        let d = data(200, 3).shuffled(0);
        let kind = Estimator::Builtin(crate::LearnerKind::LightGbm);
        let space = kind.space(200);
        let out = run_trial(
            &d,
            &kind,
            &space.init_config(),
            &space,
            200,
            ResampleStrategy::Cv { folds: 5 },
            Metric::RocAuc,
            0,
            None,
            &ExecPool::sequential(),
        );
        assert!(out.error.is_finite());
        assert!(out.model.is_none(), "cv defers the final model");
        assert_eq!(out.n_fits, 5);
    }

    #[test]
    fn cv_trial_is_identical_across_worker_counts() {
        let d = data(300, 4).shuffled(1);
        let kind = Estimator::Builtin(crate::LearnerKind::LightGbm);
        let space = kind.space(300);
        let run = |workers: usize| {
            run_trial(
                &d,
                &kind,
                &space.init_config(),
                &space,
                300,
                ResampleStrategy::Cv { folds: 5 },
                Metric::RocAuc,
                7,
                None,
                &ExecPool::new(workers),
            )
        };
        let seq = run(1);
        for workers in [2, 4, 8] {
            let par = run(workers);
            assert_eq!(
                seq.error.to_bits(),
                par.error.to_bits(),
                "workers={workers}"
            );
            assert_eq!(seq.n_fits, par.n_fits);
        }
    }

    #[test]
    fn subsampling_uses_prefix() {
        let d = data(1000, 3).shuffled(0);
        let kind = Estimator::Builtin(crate::LearnerKind::LightGbm);
        let space = kind.space(1000);
        let out = run_trial(
            &d,
            &kind,
            &space.init_config(),
            &space,
            100,
            ResampleStrategy::Holdout { ratio: 0.1 },
            Metric::RocAuc,
            0,
            None,
            &ExecPool::sequential(),
        );
        assert!(out.error.is_finite());
    }

    #[test]
    fn degenerate_sample_fails_softly() {
        // All-positive dataset: binary GBDT cannot fit.
        let n = 50;
        let col: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y = vec![1.0; n];
        let d = Dataset::new("deg", Task::Binary, vec![col], y).unwrap();
        let kind = Estimator::Builtin(crate::LearnerKind::LightGbm);
        let space = kind.space(n);
        let out = run_trial(
            &d,
            &kind,
            &space.init_config(),
            &space,
            n,
            ResampleStrategy::Holdout { ratio: 0.1 },
            Metric::RocAuc,
            0,
            None,
            &ExecPool::sequential(),
        );
        assert!(out.error.is_infinite());
        assert!(!out.panicked());
        assert_eq!(out.status, TrialStatus::Failed);
    }

    #[test]
    fn panicking_learner_becomes_failed_trial() {
        use crate::custom::CustomLearner;
        use flaml_search::{Domain, ParamDef};
        use std::sync::Arc;

        #[derive(Debug)]
        struct Bomb;
        impl CustomLearner for Bomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn space(&self, _n: usize) -> SearchSpace {
                SearchSpace::new(vec![ParamDef::new("x", Domain::float(0.0, 1.0), 0.5)])
                    .expect("valid space")
            }
            fn fit(
                &self,
                _data: &flaml_data::DatasetView,
                _config: &Config,
                _space: &SearchSpace,
                _seed: u64,
                _budget: Option<Duration>,
            ) -> Result<FittedModel, flaml_learners::FitError> {
                panic!("bomb learner always panics");
            }
        }

        let d = data(120, 2).shuffled(0);
        let kind = Estimator::Custom(Arc::new(Bomb));
        let space = kind.space(120);
        for strategy in [
            ResampleStrategy::Holdout { ratio: 0.1 },
            ResampleStrategy::Cv { folds: 3 },
        ] {
            let out = run_trial(
                &d,
                &kind,
                &space.init_config(),
                &space,
                120,
                strategy,
                Metric::RocAuc,
                0,
                None,
                &ExecPool::sequential(),
            );
            assert!(out.error.is_infinite(), "{strategy}");
            assert_eq!(out.status, TrialStatus::Panicked, "{strategy}");
            assert!(out.status.transient(), "{strategy}");
            assert!(
                out.message.as_deref().unwrap_or("").contains("bomb"),
                "{strategy}"
            );
        }
    }
}
