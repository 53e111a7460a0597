//! User-defined learners — the paper's `add_learner` API ("It is easy to
//! add customized learners or metrics in FLAML").
//!
//! A custom learner supplies its name, its hyperparameter search space
//! (with low-cost initial values, like Table 5's bold entries), an
//! optional cost constant for the ECI initialization of untried learners,
//! and a `fit` that returns any [`FittedModel`] — including
//! [`FittedModel::Custom`] wrapping a user model type.
//!
//! # Example
//!
//! ```
//! use flaml_core::{AutoMl, CustomLearner};
//! use flaml_data::DatasetView;
//! use flaml_learners::{FitError, FittedModel, Forest, ForestParams};
//! use flaml_search::{Config, Domain, ParamDef, SearchSpace};
//! use std::time::Duration;
//!
//! /// A shallow-forest learner with one searched hyperparameter.
//! #[derive(Debug)]
//! struct ShallowForest;
//!
//! impl CustomLearner for ShallowForest {
//!     fn name(&self) -> &str {
//!         "shallow_forest"
//!     }
//!     fn space(&self, n_rows: usize) -> SearchSpace {
//!         let cap = n_rows.min(256) as i64;
//!         SearchSpace::new(vec![ParamDef::new(
//!             "tree_num",
//!             Domain::log_int(4, cap.max(5)),
//!             4.0,
//!         )])
//!         .expect("valid space")
//!     }
//!     fn fit(
//!         &self,
//!         data: &DatasetView,
//!         config: &Config,
//!         space: &SearchSpace,
//!         seed: u64,
//!         budget: Option<Duration>,
//!     ) -> Result<FittedModel, FitError> {
//!         let params = ForestParams {
//!             n_trees: config.get(space, "tree_num") as usize,
//!             max_depth: Some(3),
//!             ..ForestParams::default()
//!         };
//!         Forest::fit_bounded(data, &params, seed, budget).map(FittedModel::from)
//!     }
//! }
//!
//! let automl = AutoMl::new().add_learner(std::sync::Arc::new(ShallowForest));
//! # let _ = automl;
//! ```

use flaml_data::DatasetView;
use flaml_learners::{FitError, FittedModel};
use flaml_search::{Config, SearchSpace};
use std::time::Duration;

/// A user-defined learner pluggable into the AutoML search.
pub trait CustomLearner: std::fmt::Debug + Send + Sync {
    /// The learner's name, as trial records, journals and reports
    /// identify it. It must differ from every builtin learner's name and
    /// from every other custom learner's, or [`crate::AutoMl::validate`]
    /// rejects the settings with [`crate::AutoMlError::DuplicateLearner`].
    fn name(&self) -> &str;

    /// The hyperparameter search space for a dataset of `n_rows` rows.
    /// Initial values should be the learner's cheapest configuration.
    fn space(&self, n_rows: usize) -> SearchSpace;

    /// Expected cost of the cheapest configuration relative to the
    /// fastest learner's cheapest trial (the paper's appendix constants;
    /// LightGBM is 1.0). Used to initialize ECI before the first trial.
    fn cost_constant(&self) -> f64 {
        2.0
    }

    /// Trains a model for the decoded configuration. `budget`, when set,
    /// bounds training time; implementations should return a usable
    /// partial model rather than exceeding it.
    ///
    /// `data` is a zero-copy [`DatasetView`] (the search loop never
    /// materializes subsamples or folds); every builtin learner's `fit`
    /// accepts it directly, and `data.materialize()` recovers an owned
    /// `Dataset` for learners that need one.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] for invalid configurations or unusable data.
    fn fit(
        &self,
        data: &DatasetView,
        config: &Config,
        space: &SearchSpace,
        seed: u64,
        budget: Option<Duration>,
    ) -> Result<FittedModel, FitError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Estimator, LearnerKind};
    use flaml_data::{Dataset, Task};
    use flaml_learners::{Linear, LinearParams};
    use flaml_search::{Domain, ParamDef};
    use std::sync::Arc;

    #[derive(Debug)]
    struct Stub;

    impl CustomLearner for Stub {
        fn name(&self) -> &str {
            "stub"
        }
        fn space(&self, _n: usize) -> SearchSpace {
            SearchSpace::new(vec![ParamDef::new("c", Domain::log_float(0.1, 10.0), 1.0)])
                .expect("valid")
        }
        fn cost_constant(&self) -> f64 {
            3.5
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
                    max_iter: 5,
                },
                seed,
                budget,
            )
            .map(FittedModel::from)
        }
    }

    fn toy() -> Dataset {
        let x: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..60).map(|i| f64::from(i >= 30)).collect();
        Dataset::new("t", Task::Binary, vec![x], y).unwrap()
    }

    #[test]
    fn estimator_dispatch_builtin() {
        let e = Estimator::from(LearnerKind::Lr);
        assert_eq!(e.name(), "lr");
        assert_eq!(e.cost_constant(), 160.0);
        assert_eq!(e.space(100).dim(), 1);
    }

    #[test]
    fn estimator_dispatch_custom() {
        let e = Estimator::Custom(Arc::new(Stub));
        assert_eq!(e.name(), "stub");
        assert_eq!(e.cost_constant(), 3.5);
        let data = toy();
        let space = e.space(data.n_rows());
        let model = e
            .fit(&data, &space.init_config(), &space, 0, None, None)
            .expect("stub fits");
        assert_eq!(model.predict(&data).n_rows(), 60);
    }

    #[test]
    fn custom_cost_factor_uses_tree_num_if_present() {
        let e = Estimator::Custom(Arc::new(Stub));
        let space = e.space(100);
        let f = e.cost_factor(&space.init_config(), &space);
        assert_eq!(f, 64.0, "no tree_num in the stub space");
    }

    #[test]
    fn max_bin_tracks_the_learner_params() {
        let lgbm = Estimator::from(LearnerKind::LightGbm);
        let space = lgbm.space(1000);
        let config = space.init_config();
        assert_eq!(
            lgbm.max_bin(&config, &space),
            Some(config.get(&space, "max_bin") as usize),
            "lightgbm searches max_bin"
        );
        for fixed in [LearnerKind::XgBoost, LearnerKind::CatBoost] {
            let e = Estimator::from(fixed);
            let space = e.space(1000);
            assert_eq!(e.max_bin(&space.init_config(), &space), Some(255));
        }
        for unbinned in [LearnerKind::Rf, LearnerKind::ExtraTrees, LearnerKind::Lr] {
            let e = Estimator::from(unbinned);
            let space = e.space(1000);
            assert_eq!(e.max_bin(&space.init_config(), &space), None);
        }
        let custom = Estimator::Custom(Arc::new(Stub));
        let space = custom.space(100);
        assert_eq!(custom.max_bin(&space.init_config(), &space), None);
    }
}
