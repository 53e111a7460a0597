//! Integration tests of the AutoML controller: budget behaviour, the
//! sample-size schedule, ECI dynamics, ablation switches and final-model
//! quality.

use flaml_core::{
    default_virtual_cost, AutoMl, AutoMlError, LearnerKind, LearnerSelection, ResampleChoice,
    TimeSource, TrialMode,
};
use flaml_data::{Dataset, DatasetView, Task};
use flaml_metrics::Metric;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn binary_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let x2: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let y: Vec<f64> = (0..n)
        .map(|i| {
            let signal = x0[i] * 2.0 + (x1[i] - 0.5).powi(2) * 4.0 - x2[i];
            f64::from(signal + 0.2 * rng.gen::<f64>() > 1.0)
        })
        .collect();
    Dataset::new("itest-binary", Task::Binary, vec![x0, x1, x2], y).unwrap()
}

fn regression_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let y: Vec<f64> = (0..n)
        .map(|i| (x0[i] * 6.0).sin() * 2.0 + x1[i] * 3.0 + 0.1 * rng.gen::<f64>())
        .collect();
    Dataset::new("itest-reg", Task::Regression, vec![x0, x1], y).unwrap()
}

fn virtual_automl() -> AutoMl {
    AutoMl::new()
        .time_source(TimeSource::Virtual(default_virtual_cost))
        .sample_size_init(100)
}

#[test]
fn finds_a_reasonable_binary_model() {
    let data = binary_dataset(1200, 0);
    let result = virtual_automl()
        .time_budget(3.0)
        .max_trials(120)
        .estimators([LearnerKind::LightGbm, LearnerKind::Lr])
        .seed(1)
        .fit(&data)
        .unwrap();
    assert!(result.best_error < 0.2, "auc regret {}", result.best_error);
    let pred = result.model.predict(&data);
    let train_loss = Metric::RocAuc.loss(&pred, data.target()).unwrap();
    assert!(train_loss < 0.2, "train auc regret {train_loss}");
    assert!(!result.trials.is_empty());
}

#[test]
fn regression_task_uses_r2_by_default() {
    let data = regression_dataset(800, 1);
    let result = virtual_automl()
        .time_budget(2.0)
        .max_trials(80)
        .estimators([LearnerKind::LightGbm, LearnerKind::Lr])
        .seed(2)
        .fit(&data)
        .unwrap();
    assert_eq!(result.metric, Metric::R2);
    assert!(result.best_error < 0.5, "1 - r2 = {}", result.best_error);
}

#[test]
fn first_trial_is_the_fastest_learner_at_init_sample() {
    let data = binary_dataset(2000, 2);
    let result = virtual_automl()
        .time_budget(1.0)
        .max_trials(10)
        .seed(3)
        .fit(&data)
        .unwrap();
    let first = &result.trials[0];
    assert_eq!(first.learner, "lightgbm");
    assert_eq!(first.sample_size, 100);
    assert_eq!(first.mode, TrialMode::Search);
    // The init config is the low-cost one: 4 trees, 4 leaves.
    assert!(first.config.contains("tree_num=4"), "{}", first.config);
    assert!(first.config.contains("leaf_num=4"), "{}", first.config);
}

#[test]
fn sample_size_grows_by_doubling() {
    let data = binary_dataset(3000, 3);
    let result = virtual_automl()
        .time_budget(5.0)
        .max_trials(100)
        .estimators([LearnerKind::LightGbm])
        .seed(4)
        .fit(&data)
        .unwrap();
    let sizes: Vec<usize> = result
        .trials
        .iter()
        .filter(|t| t.mode == TrialMode::SampleUp)
        .map(|t| t.sample_size)
        .collect();
    assert!(!sizes.is_empty(), "sampling schedule never grew the sample");
    for w in sizes.windows(2) {
        assert!(
            w[1] >= w[0],
            "sample sizes must be non-decreasing: {sizes:?}"
        );
    }
    // Each SampleUp doubles (until the full size caps it).
    let search_sizes: Vec<usize> = result.trials.iter().map(|t| t.sample_size).collect();
    assert!(search_sizes.iter().all(|&s| s <= 3000));
}

#[test]
fn budget_is_respected_by_virtual_clock() {
    let data = binary_dataset(1500, 4);
    let result = virtual_automl()
        .time_budget(1.5)
        .max_trials(60)
        .seed(5)
        .fit(&data)
        .unwrap();
    // The final trial may start just before the budget ends; everything
    // before it must be within budget.
    for t in &result.trials[..result.trials.len() - 1] {
        assert!(
            t.total_time - t.cost <= 1.5 + 1e-9,
            "trial {} started past the budget",
            t.iter
        );
    }
}

#[test]
fn eci_snapshots_cover_all_learners() {
    let data = binary_dataset(600, 5);
    let estimators = [LearnerKind::LightGbm, LearnerKind::Rf, LearnerKind::Lr];
    let result = virtual_automl()
        .time_budget(2.0)
        .max_trials(60)
        .estimators(estimators)
        .seed(6)
        .fit(&data)
        .unwrap();
    for t in &result.trials {
        assert_eq!(t.eci_snapshot.len(), 3, "trial {}", t.iter);
        for (_, eci) in &t.eci_snapshot {
            assert!(*eci > 0.0, "ECI must stay positive");
        }
    }
}

#[test]
fn round_robin_cycles_learners() {
    let data = binary_dataset(600, 6);
    let estimators = [LearnerKind::LightGbm, LearnerKind::Rf, LearnerKind::Lr];
    let result = virtual_automl()
        .time_budget(10.0)
        .estimators(estimators)
        .learner_selection(LearnerSelection::RoundRobin)
        .max_trials(9)
        .seed(7)
        .fit(&data)
        .unwrap();
    let learners: Vec<String> = result.trials.iter().map(|t| t.learner.clone()).collect();
    // Trial 0 is the fastest learner; afterwards iter % 3 cycles.
    for (i, l) in learners.iter().enumerate().skip(1) {
        assert_eq!(l, estimators[i % 3].name(), "trial {i}");
    }
    assert!(result.trials.iter().all(|t| t.eci_snapshot.is_empty()));
}

#[test]
fn fulldata_ablation_disables_sampling() {
    let data = binary_dataset(1200, 7);
    let result = virtual_automl()
        .time_budget(2.0)
        .max_trials(40)
        .estimators([LearnerKind::LightGbm])
        .sampling(false)
        .seed(8)
        .fit(&data)
        .unwrap();
    assert!(result
        .trials
        .iter()
        .all(|t| t.sample_size == 1200 && t.mode == TrialMode::Search));
}

#[test]
fn resample_override_forces_cv() {
    let data = binary_dataset(400, 8);
    let result = virtual_automl()
        .time_budget(1.0)
        .max_trials(20)
        .estimators([LearnerKind::LightGbm])
        .resample(ResampleChoice::AlwaysCv)
        .seed(9)
        .fit(&data)
        .unwrap();
    assert_eq!(
        result.strategy,
        flaml_core::ResampleStrategy::Cv { folds: 5 }
    );
}

#[test]
fn empty_estimator_list_is_an_error() {
    let data = binary_dataset(100, 9);
    let err = AutoMl::new().estimators(Vec::new()).fit(&data);
    assert!(matches!(err, Err(AutoMlError::NoEstimators)));
}

#[test]
fn deterministic_under_virtual_clock() {
    let data = binary_dataset(800, 10);
    let run = |seed| {
        let r = virtual_automl()
            .time_budget(1.0)
            .max_trials(40)
            .estimators([LearnerKind::LightGbm, LearnerKind::Lr])
            .seed(seed)
            .fit(&data)
            .unwrap();
        r.trials
            .iter()
            .map(|t| (t.learner.clone(), t.config.clone(), t.sample_size))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(11), run(11));
    assert_ne!(run(11), run(12));
}

#[test]
fn max_trials_caps_the_loop() {
    let data = binary_dataset(500, 11);
    let result = virtual_automl()
        .time_budget(1e9)
        .max_trials(7)
        .seed(13)
        .fit(&data)
        .unwrap();
    assert_eq!(result.trials.len(), 7);
}

#[test]
fn trial_costs_accumulate_into_total_time() {
    let data = binary_dataset(700, 12);
    let result = virtual_automl()
        .time_budget(2.0)
        .max_trials(60)
        .seed(14)
        .fit(&data)
        .unwrap();
    let mut acc = 0.0;
    for t in &result.trials {
        acc += t.cost;
        assert!(
            (t.total_time - acc).abs() < 1e-9,
            "total_time must be the cost prefix sum"
        );
    }
}

#[test]
fn best_error_is_monotone_over_trials() {
    let data = binary_dataset(900, 13);
    let result = virtual_automl()
        .time_budget(3.0)
        .max_trials(80)
        .seed(15)
        .fit(&data)
        .unwrap();
    let mut last = f64::INFINITY;
    for t in &result.trials {
        assert!(t.best_error_so_far <= last + 1e-12);
        last = t.best_error_so_far;
    }
    assert_eq!(last, result.best_error);
}

#[test]
fn multiclass_runs_end_to_end() {
    let n = 600;
    let mut rng = StdRng::seed_from_u64(21);
    let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let y: Vec<f64> = (0..n)
        .map(|i| {
            if x0[i] > 0.6 {
                2.0
            } else if x1[i] > 0.5 {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    let data = Dataset::new("mc", Task::MultiClass(3), vec![x0, x1], y).unwrap();
    let result = virtual_automl()
        .time_budget(2.0)
        .max_trials(60)
        .estimators([LearnerKind::LightGbm, LearnerKind::Rf])
        .seed(16)
        .fit(&data)
        .unwrap();
    assert_eq!(result.metric, Metric::LogLoss);
    let pred = result.model.predict(&data);
    let acc_loss = Metric::Accuracy.loss(&pred, data.target()).unwrap();
    assert!(acc_loss < 0.15, "train error {acc_loss}");
}

#[test]
fn custom_learner_participates_in_the_search() {
    use flaml_core::CustomLearner;
    use flaml_learners::{FitError, FittedModel, Linear, LinearParams};
    use flaml_search::{Config, Domain, ParamDef, SearchSpace};
    use std::sync::Arc;
    use std::time::Duration;

    #[derive(Debug)]
    struct TinyLr;

    impl CustomLearner for TinyLr {
        fn name(&self) -> &str {
            "tiny_lr"
        }
        fn space(&self, _n: usize) -> SearchSpace {
            SearchSpace::new(vec![ParamDef::new(
                "c",
                Domain::log_float(0.01, 100.0),
                1.0,
            )])
            .expect("valid")
        }
        fn cost_constant(&self) -> f64 {
            1.5
        }
        fn fit(
            &self,
            data: &DatasetView,
            config: &Config,
            space: &SearchSpace,
            seed: u64,
            budget: Option<Duration>,
        ) -> Result<FittedModel, FitError> {
            Linear::fit_bounded(
                data,
                &LinearParams {
                    c: config.get(space, "c"),
                    max_iter: 10,
                },
                seed,
                budget,
            )
            .map(FittedModel::from)
        }
    }

    let data = binary_dataset(600, 40);
    let result = virtual_automl()
        .time_budget(2.0)
        .max_trials(30)
        .estimators([LearnerKind::LightGbm])
        .add_learner(Arc::new(TinyLr))
        .seed(41)
        .fit(&data)
        .unwrap();
    let custom_trials = result
        .trials
        .iter()
        .filter(|t| t.learner == "tiny_lr")
        .count();
    assert!(custom_trials > 0, "custom learner never tried");
    // ECI snapshots must include the custom learner.
    assert!(result
        .trials
        .iter()
        .all(|t| t.eci_snapshot.iter().any(|(name, _)| name == "tiny_lr")));
}

#[test]
fn ensemble_option_returns_a_stacked_model() {
    let data = binary_dataset(800, 30);
    let result = virtual_automl()
        .time_budget(2.0)
        .max_trials(40)
        .estimators([LearnerKind::LightGbm, LearnerKind::Rf, LearnerKind::Lr])
        .ensemble(true)
        .seed(30)
        .fit(&data)
        .unwrap();
    assert!(
        matches!(result.model, flaml_learners::FittedModel::Stacked(_)),
        "ensemble(true) should produce a stacked model when members exist"
    );
    let pred = result.model.predict(&data);
    let loss = Metric::RocAuc.loss(&pred, data.target()).unwrap();
    assert!(loss < 0.25, "ensemble train auc regret {loss}");
}

#[test]
fn wall_clock_budget_is_roughly_respected() {
    let data = binary_dataset(2000, 17);
    let t0 = std::time::Instant::now();
    let result = AutoMl::new()
        .time_budget(1.0)
        .sample_size_init(200)
        .estimators([LearnerKind::LightGbm, LearnerKind::Rf])
        .seed(18)
        .fit(&data)
        .unwrap();
    let elapsed = t0.elapsed().as_secs_f64();
    assert!(
        elapsed < 4.0,
        "1s budget took {elapsed}s (deadline guard failed)"
    );
    assert!(!result.trials.is_empty());
}

/// A custom learner that takes whatever name it is given: a one-knob
/// shallow forest whose knob is called `depth`.
#[derive(Debug)]
struct Named(&'static str);

impl flaml_core::CustomLearner for Named {
    fn name(&self) -> &str {
        self.0
    }
    fn space(&self, _n: usize) -> flaml_search::SearchSpace {
        use flaml_search::{Domain, ParamDef, SearchSpace};
        SearchSpace::new(vec![ParamDef::new("depth", Domain::int(1, 6), 3.0)]).expect("valid")
    }
    fn fit(
        &self,
        data: &DatasetView,
        config: &flaml_search::Config,
        space: &flaml_search::SearchSpace,
        seed: u64,
        budget: Option<std::time::Duration>,
    ) -> Result<flaml_learners::FittedModel, flaml_learners::FitError> {
        use flaml_learners::{FittedModel, Forest, ForestParams};
        let params = ForestParams {
            n_trees: 4,
            max_depth: Some(config.get(space, "depth") as usize),
            ..ForestParams::default()
        };
        Forest::fit_bounded(data, &params, seed, budget).map(FittedModel::from)
    }
}

/// Runs `automl` and requires the refusal a second owner of `name` gets,
/// before any trial.
fn assert_duplicate(automl: AutoMl, name: &str) {
    let data = binary_dataset(300, 60);
    match automl.max_trials(4).fit(&data) {
        Err(AutoMlError::DuplicateLearner(dup)) => assert_eq!(dup, name),
        other => panic!("expected DuplicateLearner({name:?}), got {other:?}"),
    }
}

#[test]
fn a_custom_learner_named_like_a_listed_builtin_is_rejected() {
    // Journals would name both "lr", and a retrain would rebuild the
    // builtin from the custom learner's values.
    let automl = virtual_automl()
        .estimators([LearnerKind::LightGbm, LearnerKind::Lr])
        .add_learner(std::sync::Arc::new(Named("lr")));
    assert_duplicate(automl, "lr");
}

#[test]
fn a_custom_learner_named_like_an_unlisted_builtin_is_rejected() {
    let automl = virtual_automl()
        .estimators([LearnerKind::LightGbm])
        .add_learner(std::sync::Arc::new(Named("xgboost")));
    assert_duplicate(automl, "xgboost");
}

#[test]
fn two_custom_learners_with_one_name_are_rejected() {
    let automl = virtual_automl()
        .estimators([LearnerKind::LightGbm])
        .add_learner(std::sync::Arc::new(Named("shallow")))
        .add_learner(std::sync::Arc::new(Named("shallow")));
    assert_duplicate(automl, "shallow");
}

#[test]
fn repeated_builtins_still_join_once() {
    let result = virtual_automl()
        .estimators([
            LearnerKind::LightGbm,
            LearnerKind::Lr,
            LearnerKind::LightGbm,
        ])
        .add_learner(std::sync::Arc::new(Named("shallow")))
        .max_trials(6)
        .fit(&binary_dataset(300, 61))
        .unwrap();
    let mut names: Vec<&str> = result.trials[0]
        .eci_snapshot
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    names.sort_unstable();
    assert_eq!(names, ["lightgbm", "lr", "shallow"]);
}

#[test]
fn selection_and_resample_names_parse_back() {
    for sel in [
        LearnerSelection::Eci,
        LearnerSelection::RoundRobin,
        LearnerSelection::Bohb,
        LearnerSelection::Bo,
        LearnerSelection::Random,
        LearnerSelection::Hyperband,
    ] {
        assert_eq!(LearnerSelection::parse(sel.name()), Some(sel));
    }
    for choice in [
        ResampleChoice::Auto,
        ResampleChoice::AlwaysCv,
        ResampleChoice::AlwaysHoldout,
    ] {
        assert_eq!(ResampleChoice::parse(choice.name()), Some(choice));
    }
    assert_eq!(LearnerSelection::parse("nope"), None);
    assert_eq!(ResampleChoice::parse("nope"), None);
}
