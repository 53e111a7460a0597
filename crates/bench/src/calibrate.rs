//! The AutoML benchmark's scaled-score calibration (Gijsbers et al. 2019),
//! used throughout the paper's Figures 5, 6, 8 and Table 9: a constant
//! class-prior (or label-mean) predictor maps to score 0 and a tuned
//! random forest maps to score 1.

use flaml_core::{AutoMl, AutoMlError, LearnerKind, LearnerSelection};
use flaml_data::{Dataset, Task};
use flaml_metrics::{Metric, Pred, ScaleAnchors};

/// The constant baseline predictor: class priors for classification,
/// label mean for regression, fitted on `train` and emitted for `n_test`
/// rows.
pub fn constant_predictor(train: &Dataset, n_test: usize) -> Pred {
    match train.task() {
        Task::Regression => {
            let mean = train.target().iter().sum::<f64>() / train.n_rows() as f64;
            Pred::from_values(vec![mean; n_test])
        }
        _ => {
            let priors = train.class_priors().expect("classification task");
            let k = priors.len();
            let mut p = Vec::with_capacity(n_test * k);
            for _ in 0..n_test {
                p.extend_from_slice(&priors);
            }
            Pred::Probs { n_classes: k, p }
        }
    }
}

/// Computes the benchmark's scale anchors on a train/test pair: the raw
/// score of the constant predictor (anchor 0) and of the reference model
/// (anchor 1), both evaluated on `test`. The reference is a random
/// forest tuned by random search — one [`AutoMl::fit`] of
/// [`LearnerSelection::Random`] over `[Rf]` under `metric` — and refit
/// on all of `train`. `base` carries everything else of that search:
/// its time budget, seed and clock, and any trial cap or journal.
///
/// # Errors
///
/// Returns [`AutoMlError`] if the reference forest could not be tuned,
/// [`AutoMlError::BadTimeBudget`] among them for an unusable budget.
pub fn calibration_anchors(
    train: &Dataset,
    test: &Dataset,
    metric: Metric,
    base: AutoMl,
) -> Result<ScaleAnchors, AutoMlError> {
    let baseline_pred = constant_predictor(train, test.n_rows());
    let baseline = metric
        .score(&baseline_pred, test.target())
        .unwrap_or(f64::NEG_INFINITY);
    let rf = base
        .learner_selection(LearnerSelection::Random)
        .estimators([LearnerKind::Rf])
        .metric(metric)
        .fit(train)?
        .model;
    let reference = metric
        .score(&rf.predict(test), test.target())
        .unwrap_or(f64::NEG_INFINITY);
    Ok(ScaleAnchors::new(baseline, reference))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flaml_core::{default_virtual_cost, TimeSource};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn split_dataset(n: usize, seed: u64) -> (Dataset, Dataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| f64::from((x0[i] - 0.5) * (x1[i] - 0.5) > 0.0))
            .collect();
        let d = Dataset::new("cal", Task::Binary, vec![x0, x1], y).unwrap();
        let cut = n * 4 / 5;
        let train = d.select(&(0..cut).collect::<Vec<_>>());
        let test = d.select(&(cut..n).collect::<Vec<_>>());
        (train, test)
    }

    #[test]
    fn constant_predictor_matches_priors() {
        let (train, _) = split_dataset(200, 0);
        let pred = constant_predictor(&train, 3);
        let (k, p) = pred.probs().unwrap();
        assert_eq!(k, 2);
        let priors = train.class_priors().unwrap();
        assert!((p[0] - priors[0]).abs() < 1e-12);
        assert_eq!(pred.n_rows(), 3);
    }

    #[test]
    fn constant_predictor_regression_is_mean() {
        let y = vec![1.0, 2.0, 3.0];
        let train = Dataset::new("r", Task::Regression, vec![vec![0.0, 1.0, 2.0]], y).unwrap();
        let pred = constant_predictor(&train, 2);
        assert_eq!(pred.values().unwrap(), &[2.0, 2.0]);
    }

    #[test]
    fn anchors_order_sensibly() {
        let (train, test) = split_dataset(800, 1);
        let base = AutoMl::new()
            .time_budget(1.0)
            .time_source(TimeSource::Virtual(default_virtual_cost))
            .max_trials(4);
        let anchors = calibration_anchors(&train, &test, Metric::RocAuc, base).unwrap();
        // A tuned forest must beat the constant predictor on a learnable
        // task (auc 0.5 for the constant model).
        assert!(
            anchors.reference > anchors.baseline,
            "rf {} <= const {}",
            anchors.reference,
            anchors.baseline
        );
    }

    #[test]
    fn unusable_rf_budgets_are_typed_errors_before_any_trial() {
        // NaN never trips the stop check and a wall deadline cannot hold
        // ±inf; the trial cap makes a regression fail here, not hang.
        let (train, test) = split_dataset(300, 2);
        for source in [TimeSource::Wall, TimeSource::Virtual(default_virtual_cost)] {
            let anchors = |budget: f64, cap: usize| {
                let base = AutoMl::new()
                    .time_budget(budget)
                    .time_source(source)
                    .max_trials(cap);
                calibration_anchors(&train, &test, Metric::RocAuc, base)
            };
            for budget in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
                match anchors(budget, 3) {
                    Err(AutoMlError::BadTimeBudget(b)) => assert_eq!(b.to_bits(), budget.to_bits()),
                    other => panic!("{budget} under {}: {:?}", source.name(), other.map(|_| ())),
                }
            }
            // A finite budget too large for a `Duration` bounds nothing.
            assert!(anchors(1e20, 2).is_ok(), "1e20 under {}", source.name());
        }
    }
}
