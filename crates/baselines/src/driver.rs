//! One driver for all baseline AutoML systems, sharing FLAML's trial
//! executor, budget clock and record format so traces are directly
//! comparable.

use crate::joint::JointSpace;
use flaml_core::{
    run_trial, AutoMl, AutoMlError, AutoMlResult, BudgetClock, Estimator, ExecPool, LearnerKind,
    ResampleStrategy, TimeSource, TrialInfo, TrialMode, TrialRecord,
};
use flaml_data::Dataset;
use flaml_metrics::Metric;
use flaml_search::{Config, Hyperband, JobSource, RandomSearch, SearchSpace, Tpe};
use std::time::Instant;

/// Which baseline system to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// TPE × Hyperband over sample-size fidelity (HpBandSter/BOHB).
    Bohb,
    /// TPE over the joint space on full data (BO family: auto-sklearn,
    /// cloud-automl stand-in).
    Bo,
    /// Uniform random search on full data (randomized-grid stand-in).
    RandomSearch,
    /// Random configs under Hyperband allocation (Li et al. 2017).
    Hyperband,
}

impl BaselineKind {
    /// Display name used in experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            BaselineKind::Bohb => "bohb",
            BaselineKind::Bo => "bo",
            BaselineKind::RandomSearch => "random",
            BaselineKind::Hyperband => "hyperband",
        }
    }
}

impl std::fmt::Display for BaselineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Settings shared by all baselines (mirrors [`flaml_core::AutoMl`]).
#[derive(Debug, Clone)]
pub struct BaselineSettings {
    /// Time budget in (wall or virtual) seconds.
    pub time_budget: f64,
    /// Metric to optimize; `None` = the task's benchmark default.
    pub metric: Option<Metric>,
    /// Learners in the joint space.
    pub estimators: Vec<LearnerKind>,
    /// Random seed.
    pub seed: u64,
    /// Minimum sample size for fidelity-based baselines (BOHB,
    /// Hyperband); `r_min = sample_size_min / n`.
    pub sample_size_min: usize,
    /// Trial cap for deterministic tests.
    pub max_trials: Option<usize>,
    /// Wall or virtual budget accounting.
    pub time_source: TimeSource,
    /// Worker count of the trial-execution pool (CV folds evaluate
    /// concurrently; 1 = the sequential fold loop).
    pub workers: usize,
}

impl Default for BaselineSettings {
    fn default() -> Self {
        BaselineSettings {
            time_budget: 60.0,
            metric: None,
            estimators: LearnerKind::ALL.to_vec(),
            seed: 0,
            sample_size_min: 500,
            max_trials: None,
            time_source: TimeSource::Wall,
            workers: 1,
        }
    }
}

/// Where a baseline's fresh points come from.
enum Sampler {
    Tpe(Tpe),
    Random(RandomSearch),
}

impl Sampler {
    fn ask(&mut self) -> Vec<f64> {
        match self {
            Sampler::Tpe(tpe) => tpe.ask(),
            Sampler::Random(rs) => rs.ask(),
        }
    }

    fn tell(&mut self, error: f64) {
        match self {
            Sampler::Tpe(tpe) => tpe.tell(error),
            Sampler::Random(rs) => rs.tell(error),
        }
    }
}

/// Runs a baseline AutoML system on `data` and returns a result in the
/// same shape as FLAML's.
///
/// # Errors
///
/// Returns [`AutoMlError`] if the time budget is not finite and above
/// zero (the rule of [`AutoMl::validate`]), the estimator list has fewer
/// than two entries, or no trial produced a finite error.
pub fn run_baseline(
    kind: BaselineKind,
    data: &Dataset,
    settings: &BaselineSettings,
) -> Result<AutoMlResult, AutoMlError> {
    AutoMl::new().time_budget(settings.time_budget).validate()?;
    if settings.estimators.len() < 2 {
        return Err(AutoMlError::NoEstimators);
    }
    let metric = settings
        .metric
        .unwrap_or_else(|| Metric::default_for(data.task()));
    let mut clock = BudgetClock::new(settings.time_source);
    let shuffled = data.shuffled(settings.seed);
    let n = shuffled.n_rows();
    let d = shuffled.n_features();
    // The same rule and thresholds as FLAML.
    let strategy = ResampleStrategy::choose(n, d, settings.time_budget);
    let joint = JointSpace::new(&settings.estimators, n);
    let r_min = (settings.sample_size_min.min(n) as f64 / n as f64).clamp(1e-6, 1.0);

    // Per-baseline seed offsets keep the proposal streams of different
    // systems independent even when the caller passes one seed.
    let seed = settings.seed
        ^ match kind {
            BaselineKind::RandomSearch => 0x52414e44,
            BaselineKind::Bo => 0x424f,
            BaselineKind::Bohb => 0x424f4842,
            BaselineKind::Hyperband => 0x48422121,
        };
    let mut sampler = match kind {
        BaselineKind::Bo | BaselineKind::Bohb => {
            Sampler::Tpe(Tpe::new(joint.space().clone(), seed))
        }
        BaselineKind::RandomSearch | BaselineKind::Hyperband => {
            Sampler::Random(RandomSearch::new(joint.space().clone(), seed))
        }
    };
    // The fidelity baselines size each trial (and promote survivors)
    // by a Hyperband schedule; the others run every trial on full data.
    let mut hyperband = match kind {
        BaselineKind::Bohb | BaselineKind::Hyperband => Some(Hyperband::new(3, r_min)),
        BaselineKind::Bo | BaselineKind::RandomSearch => None,
    };

    let pool = ExecPool::new(settings.workers.max(1));
    let mut trials: Vec<TrialRecord> = Vec::new();
    let mut best: Option<(LearnerKind, Config, SearchSpace, f64)> = None;
    let mut best_model = None;
    let mut iter = 0usize;

    loop {
        if let Some(cap) = settings.max_trials {
            if iter >= cap {
                break;
            }
        }
        if iter > 0 && clock.elapsed() >= settings.time_budget {
            break;
        }

        // Propose a joint point and a sample size.
        let job = hyperband.as_mut().map(Hyperband::next_job);
        let (point, sample_size, mode) = match &job {
            None => (sampler.ask(), n, TrialMode::Search),
            Some(job) => {
                let s = ((job.fidelity * n as f64).round() as usize).clamp(1, n);
                match &job.source {
                    JobSource::Fresh => (sampler.ask(), s, TrialMode::Search),
                    JobSource::Promoted(cfg) => (cfg.clone(), s, TrialMode::SampleUp),
                }
            }
        };

        let (learner, config, subspace) = joint.split(&point);
        let estimator = Estimator::Builtin(learner);
        let deadline = clock.deadline(settings.time_budget);
        let t0 = Instant::now();
        let mut outcome = run_trial(
            &shuffled,
            &estimator,
            &config,
            subspace,
            sample_size,
            strategy,
            metric,
            settings.seed.wrapping_add(iter as u64),
            deadline,
            &pool,
        );
        let measured = t0.elapsed().as_secs_f64();
        let info = TrialInfo {
            learner_cost_constant: learner.cost_constant(),
            sample_size,
            n_features: d,
            cost_factor: outcome.cost_factor,
            n_fits: outcome.n_fits.max(1),
        };
        let cost = clock.charge(&info, measured);

        // Feed the proposer.
        if mode == TrialMode::Search {
            sampler.tell(outcome.error);
        }
        if let (Some(hb), Some(job)) = (hyperband.as_mut(), &job) {
            hb.report(job, point, outcome.error);
        }

        let improved_global = outcome.error.is_finite()
            && best
                .as_ref()
                .map(|(_, _, _, e)| outcome.error < *e)
                .unwrap_or(true);
        if improved_global {
            best = Some((learner, config.clone(), subspace.clone(), outcome.error));
            best_model = outcome.model.take();
        }
        iter += 1;
        trials.push(TrialRecord {
            iter,
            learner: learner.name().to_string(),
            config: config.render(subspace),
            config_values: config.values().to_vec(),
            sample_size,
            error: outcome.error,
            cost,
            total_time: clock.elapsed(),
            mode,
            improved_global,
            best_error_so_far: best
                .as_ref()
                .map(|(_, _, _, e)| *e)
                .unwrap_or(f64::INFINITY),
            eci_snapshot: Vec::new(),
            timed_out: outcome.timed_out(),
            panicked: outcome.panicked(),
            status: outcome.status,
            n_retries: 0,
        });
    }

    let Some((best_learner, best_config, best_space, best_error)) = best else {
        return Err(AutoMlError::NoViableModel);
    };
    let (spent, refit_budget) = clock.refit_deadline(settings.time_budget);
    let model = match (spent, best_model) {
        (true, Some(m)) => m,
        (_, best_model) => match Estimator::Builtin(best_learner).fit(
            &shuffled,
            &best_config,
            &best_space,
            settings.seed,
            refit_budget,
            None,
        ) {
            Ok(m) => m,
            Err(e) => match best_model {
                Some(m) => m,
                None => return Err(AutoMlError::RefitFailed(e)),
            },
        },
    };

    Ok(AutoMlResult {
        best_learner: best_learner.name().to_string(),
        best_config_rendered: best_config.render(&best_space),
        best_config,
        best_error,
        model,
        trials,
        strategy,
        metric,
        n_retries: 0,
        n_quarantined: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flaml_core::default_virtual_cost;
    use flaml_data::Task;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| f64::from(x0[i] + x1[i] * 0.5 > 0.75))
            .collect();
        Dataset::new("b", Task::Binary, vec![x0, x1], y).unwrap()
    }

    fn settings(budget: f64) -> BaselineSettings {
        BaselineSettings {
            time_budget: budget,
            estimators: vec![LearnerKind::LightGbm, LearnerKind::Lr],
            sample_size_min: 100,
            time_source: TimeSource::Virtual(default_virtual_cost),
            ..BaselineSettings::default()
        }
    }

    #[test]
    fn every_baseline_runs_end_to_end() {
        let data = dataset(600, 0);
        for kind in [
            BaselineKind::RandomSearch,
            BaselineKind::Bo,
            BaselineKind::Bohb,
            BaselineKind::Hyperband,
        ] {
            let r = run_baseline(kind, &data, &settings(1.0)).unwrap();
            assert!(!r.trials.is_empty(), "{kind}");
            assert!(r.best_error.is_finite(), "{kind}");
            assert_eq!(r.model.predict(&data).n_rows(), 600, "{kind}");
        }
    }

    #[test]
    fn bohb_uses_low_fidelity_first() {
        let data = dataset(900, 1);
        // Uncapped budget + trial cap: bracket 2 has 9 rung-0 jobs, so by
        // trial 13 a promoted (SampleUp) job must have been issued.
        let mut s = settings(1e9);
        s.max_trials = Some(13);
        let r = run_baseline(BaselineKind::Bohb, &data, &s).unwrap();
        let first = &r.trials[0];
        assert!(
            first.sample_size < 900,
            "BOHB's first bracket must subsample, got {}",
            first.sample_size
        );
        // Some promoted jobs must appear at higher fidelity.
        assert!(r.trials.iter().any(|t| t.mode == TrialMode::SampleUp));
    }

    #[test]
    fn random_search_uses_full_data() {
        let data = dataset(400, 2);
        let r = run_baseline(BaselineKind::RandomSearch, &data, &settings(1.0)).unwrap();
        assert!(r.trials.iter().all(|t| t.sample_size == 400));
    }

    #[test]
    fn single_learner_is_rejected() {
        let data = dataset(100, 3);
        let mut s = settings(1.0);
        s.estimators = vec![LearnerKind::Lr];
        assert!(matches!(
            run_baseline(BaselineKind::Bo, &data, &s),
            Err(AutoMlError::NoEstimators)
        ));
    }

    #[test]
    fn deterministic_under_virtual_clock() {
        let data = dataset(500, 4);
        let run = |seed| {
            let mut s = settings(0.5);
            s.seed = seed;
            run_baseline(BaselineKind::Bohb, &data, &s)
                .unwrap()
                .trials
                .iter()
                .map(|t| (t.learner.clone(), t.config.clone(), t.sample_size))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn max_trials_caps_all_baselines() {
        let data = dataset(300, 5);
        for kind in [BaselineKind::RandomSearch, BaselineKind::Bohb] {
            let mut s = settings(1e9);
            s.max_trials = Some(5);
            let r = run_baseline(kind, &data, &s).unwrap();
            assert_eq!(r.trials.len(), 5, "{kind}");
        }
    }

    #[test]
    fn unusable_budgets_are_typed_errors_before_any_trial() {
        // NaN never trips the stop check and a wall deadline cannot hold
        // ±inf; the trial cap makes a regression fail here, not hang.
        let data = dataset(300, 6);
        for source in [TimeSource::Wall, TimeSource::Virtual(default_virtual_cost)] {
            let run = |kind, budget: f64, cap: usize| {
                let mut s = settings(budget);
                s.time_source = source;
                s.max_trials = Some(cap);
                run_baseline(kind, &data, &s)
            };
            for kind in [BaselineKind::RandomSearch, BaselineKind::Bohb] {
                for budget in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
                    match run(kind, budget, 3) {
                        Err(AutoMlError::BadTimeBudget(b)) => {
                            assert_eq!(b.to_bits(), budget.to_bits())
                        }
                        other => panic!(
                            "{kind} {budget} under {}: {:?}",
                            source.name(),
                            other.map(|r| r.trials.len())
                        ),
                    }
                }
                // A finite budget too large for a `Duration` bounds nothing.
                let r = run(kind, 1e20, 2).unwrap();
                assert_eq!(r.trials.len(), 2, "{kind} under {}", source.name());
            }
        }
    }
}
