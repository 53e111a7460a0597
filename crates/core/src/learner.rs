//! Mapping from search-space configurations to concrete learner
//! parameters, and the trial-time fit entry point.

use crate::spaces::LearnerKind;
use flaml_data::DatasetView;
use flaml_learners::{
    FitError, FittedModel, Forest, ForestParams, Gbdt, GbdtParams, Growth, Linear, LinearParams,
    PreparedBins, SplitCriterion,
};
use flaml_search::{Config, SearchSpace};
use std::time::Duration;

/// The CatBoost-style learner's round cap; the searched hyperparameter is
/// the early-stopping patience, as in Table 5.
const CATBOOST_MAX_ROUNDS: usize = 2048;
/// Oblivious-tree leaf budget (depth 6, CatBoost's default).
const CATBOOST_MAX_LEAVES: usize = 64;

/// Builds the concrete learner parameters for `kind` from a decoded
/// configuration, fits on `data`, and returns the model.
///
/// `budget` bounds the training time (the controller passes the remaining
/// AutoML budget so no trial can overrun it).
///
/// # Errors
///
/// Returns [`FitError`] if the configuration is invalid for the learner or
/// the data is unusable (e.g. a single-class subsample).
pub fn fit_learner(
    kind: LearnerKind,
    data: impl Into<DatasetView>,
    config: &Config,
    space: &SearchSpace,
    seed: u64,
    budget: Option<Duration>,
) -> Result<FittedModel, FitError> {
    let data: DatasetView = data.into();
    fit_learner_prepared(kind, &data, config, space, seed, budget, None)
}

/// Like [`fit_learner`], but lets GBDT learners reuse a pre-binned
/// training matrix prepared by the data plane. `prepared` is consulted
/// only when its `max_bin` equals the configuration's (the learner
/// verifies the match); otherwise bins are computed from `data`, so the
/// fitted model is bit-identical with or without the artifact.
///
/// # Errors
///
/// Returns [`FitError`] if the configuration is invalid for the learner or
/// the data is unusable (e.g. a single-class subsample).
pub fn fit_learner_prepared(
    kind: LearnerKind,
    data: &DatasetView,
    config: &Config,
    space: &SearchSpace,
    seed: u64,
    budget: Option<Duration>,
    prepared: Option<&PreparedBins>,
) -> Result<FittedModel, FitError> {
    match kind {
        LearnerKind::LightGbm => {
            let params = lightgbm_params(config, space);
            Gbdt::fit_prepared(data, &params, seed, budget, prepared).map(FittedModel::from)
        }
        LearnerKind::XgBoost => {
            let params = xgboost_params(config, space);
            Gbdt::fit_prepared(data, &params, seed, budget, prepared).map(FittedModel::from)
        }
        LearnerKind::CatBoost => {
            let params = GbdtParams {
                n_trees: CATBOOST_MAX_ROUNDS,
                max_leaves: CATBOOST_MAX_LEAVES,
                min_child_weight: 1e-3,
                learning_rate: config.get(space, "learning_rate"),
                subsample: 1.0,
                reg_alpha: 1e-10,
                reg_lambda: 3.0,
                colsample_bytree: 1.0,
                colsample_bylevel: 1.0,
                max_bin: 255,
                growth: Growth::Oblivious,
                early_stop_rounds: Some(config.get(space, "early_stop_rounds") as usize),
            };
            Gbdt::fit_prepared(data, &params, seed, budget, prepared).map(FittedModel::from)
        }
        LearnerKind::Rf | LearnerKind::ExtraTrees => {
            let params = ForestParams {
                n_trees: config.get(space, "tree_num") as usize,
                max_features: config.get(space, "max_features"),
                criterion: if config.get(space, "split_criterion") as i64 == 0 {
                    SplitCriterion::Gini
                } else {
                    SplitCriterion::Entropy
                },
                extra: kind == LearnerKind::ExtraTrees,
                max_depth: None,
            };
            Forest::fit_bounded(data, &params, seed, budget).map(FittedModel::from)
        }
        LearnerKind::Lr => {
            let params = LinearParams {
                c: config.get(space, "c"),
                max_iter: 25,
            };
            Linear::fit_bounded(data, &params, seed, budget).map(FittedModel::from)
        }
    }
}

fn lightgbm_params(config: &Config, space: &SearchSpace) -> GbdtParams {
    GbdtParams {
        n_trees: config.get(space, "tree_num") as usize,
        max_leaves: config.get(space, "leaf_num") as usize,
        min_child_weight: config.get(space, "min_child_weight"),
        learning_rate: config.get(space, "learning_rate"),
        subsample: config.get(space, "subsample"),
        reg_alpha: config.get(space, "reg_alpha"),
        reg_lambda: config.get(space, "reg_lambda"),
        colsample_bytree: config.get(space, "colsample_bytree"),
        colsample_bylevel: 1.0,
        max_bin: config.get(space, "max_bin") as usize,
        growth: Growth::LeafWise,
        early_stop_rounds: None,
    }
}

fn xgboost_params(config: &Config, space: &SearchSpace) -> GbdtParams {
    GbdtParams {
        n_trees: config.get(space, "tree_num") as usize,
        max_leaves: config.get(space, "leaf_num") as usize,
        min_child_weight: config.get(space, "min_child_weight"),
        learning_rate: config.get(space, "learning_rate"),
        subsample: config.get(space, "subsample"),
        reg_alpha: config.get(space, "reg_alpha"),
        reg_lambda: config.get(space, "reg_lambda"),
        colsample_bytree: config.get(space, "colsample_bytree"),
        colsample_bylevel: config.get(space, "colsample_bylevel"),
        max_bin: 255,
        growth: Growth::DepthWise,
        early_stop_rounds: None,
    }
}

/// A rough complexity factor for the configuration, used by the virtual
/// clock's deterministic cost model (`trees x leaves` for tree learners).
pub fn config_cost_factor(kind: LearnerKind, config: &Config, space: &SearchSpace) -> f64 {
    match kind {
        LearnerKind::LightGbm | LearnerKind::XgBoost => {
            config.get(space, "tree_num") * config.get(space, "leaf_num")
        }
        LearnerKind::CatBoost => {
            // Rounds are governed by early stopping; patience is a proxy.
            config.get(space, "early_stop_rounds") * CATBOOST_MAX_LEAVES as f64
        }
        LearnerKind::Rf | LearnerKind::ExtraTrees => config.get(space, "tree_num") * 32.0,
        LearnerKind::Lr => 64.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flaml_data::{Dataset, Task};

    fn toy_binary(n: usize) -> Dataset {
        let x: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let x2: Vec<f64> = (0..n).map(|i| ((i * 7) % n) as f64 / n as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| f64::from(v > 0.5)).collect();
        Dataset::new("toy", Task::Binary, vec![x, x2], y).unwrap()
    }

    #[test]
    fn every_learner_fits_its_init_config() {
        let data = toy_binary(120);
        for kind in LearnerKind::ALL {
            let space = kind.space(data.n_rows());
            let config = space.init_config();
            let model = fit_learner(kind, &data, &config, &space, 0, None)
                .unwrap_or_else(|e| panic!("{kind} failed on init config: {e}"));
            let pred = model.predict(&data);
            assert_eq!(pred.n_rows(), data.n_rows(), "{kind}");
        }
    }

    #[test]
    fn every_learner_fits_regression() {
        let n = 120;
        let x: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| v * 2.0 + 1.0).collect();
        let data = Dataset::new("reg", Task::Regression, vec![x], y).unwrap();
        for kind in LearnerKind::ALL {
            let space = kind.space(data.n_rows());
            let config = space.init_config();
            let model = fit_learner(kind, &data, &config, &space, 0, None)
                .unwrap_or_else(|e| panic!("{kind} failed on regression: {e}"));
            assert!(model.predict(&data).values().is_ok(), "{kind}");
        }
    }

    #[test]
    fn cost_factor_grows_with_model_size() {
        let space = LearnerKind::LightGbm.space(100_000);
        let small = space.init_config();
        let big = space.decode(&vec![1.0; space.dim()]);
        assert!(
            config_cost_factor(LearnerKind::LightGbm, &big, &space)
                > config_cost_factor(LearnerKind::LightGbm, &small, &space)
        );
    }
}
