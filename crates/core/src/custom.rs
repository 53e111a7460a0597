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

use crate::spaces::LearnerKind;
use flaml_data::DatasetView;
use flaml_learners::{FitError, FittedModel, PreparedBins};
use flaml_search::{Config, SearchSpace};
use std::sync::Arc;
use std::time::Duration;

/// A user-defined learner pluggable into the AutoML search.
pub trait CustomLearner: std::fmt::Debug + Send + Sync {
    /// Unique learner name (used in trial records and reports).
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

/// A searchable estimator: one of the six builtin learners or a
/// user-registered [`CustomLearner`].
#[derive(Debug, Clone)]
pub enum Estimator {
    /// A builtin learner of the paper's ML layer.
    Builtin(LearnerKind),
    /// A user-defined learner.
    Custom(Arc<dyn CustomLearner>),
}

impl Estimator {
    /// The learner's name.
    pub fn name(&self) -> String {
        match self {
            Estimator::Builtin(k) => k.name().to_string(),
            Estimator::Custom(c) => c.name().to_string(),
        }
    }

    /// The learner's search space for `n_rows` training rows.
    pub fn space(&self, n_rows: usize) -> SearchSpace {
        match self {
            Estimator::Builtin(k) => k.space(n_rows),
            Estimator::Custom(c) => c.space(n_rows),
        }
    }

    /// The ECI initialization constant.
    pub fn cost_constant(&self) -> f64 {
        match self {
            Estimator::Builtin(k) => k.cost_constant(),
            Estimator::Custom(c) => c.cost_constant(),
        }
    }

    /// Trains a model for the decoded configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] for invalid configurations or unusable data.
    pub fn fit(
        &self,
        data: impl Into<DatasetView>,
        config: &Config,
        space: &SearchSpace,
        seed: u64,
        budget: Option<Duration>,
    ) -> Result<FittedModel, FitError> {
        let data: DatasetView = data.into();
        self.fit_prepared(&data, config, space, seed, budget, None)
    }

    /// Like [`Estimator::fit`], but reuses a cached [`PreparedBins`]
    /// artifact when the learner bins its features and the artifact's
    /// `max_bin` matches the configuration's. A mismatched or absent
    /// artifact falls back to computing bins from `data` — the fitted
    /// model is bit-identical either way.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] for invalid configurations or unusable data.
    pub fn fit_prepared(
        &self,
        data: &DatasetView,
        config: &Config,
        space: &SearchSpace,
        seed: u64,
        budget: Option<Duration>,
        prepared: Option<&PreparedBins>,
    ) -> Result<FittedModel, FitError> {
        match self {
            Estimator::Builtin(k) => crate::learner::fit_learner_prepared(
                *k, data, config, space, seed, budget, prepared,
            ),
            Estimator::Custom(c) => c.fit(data, config, space, seed, budget),
        }
    }

    /// The binning resolution this learner fits `config` with, or `None`
    /// for learners that do not bin. The data plane prepares (and caches)
    /// a [`PreparedBins`] artifact per `(sample, fold, max_bin)` key;
    /// returning exactly the `max_bin` that
    /// [`crate::fit_learner`] will put in the learner's
    /// parameters is what makes the cached artifact admissible.
    pub fn max_bin(&self, config: &Config, space: &SearchSpace) -> Option<usize> {
        match self {
            Estimator::Builtin(LearnerKind::LightGbm) => {
                Some(config.get(space, "max_bin") as usize)
            }
            Estimator::Builtin(LearnerKind::XgBoost | LearnerKind::CatBoost) => Some(255),
            Estimator::Builtin(LearnerKind::Rf | LearnerKind::ExtraTrees | LearnerKind::Lr)
            | Estimator::Custom(_) => None,
        }
    }

    /// The virtual-clock complexity factor of a configuration.
    pub fn cost_factor(&self, config: &Config, space: &SearchSpace) -> f64 {
        match self {
            Estimator::Builtin(k) => crate::learner::config_cost_factor(*k, config, space),
            // Without learner-specific knowledge, scale by tree_num-like
            // parameters if present, else a constant.
            Estimator::Custom(_) => space
                .index_of("tree_num")
                .map(|i| config.values()[i] * 32.0)
                .unwrap_or(64.0),
        }
    }
}

impl From<LearnerKind> for Estimator {
    fn from(k: LearnerKind) -> Self {
        Estimator::Builtin(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flaml_data::{Dataset, Task};
    use flaml_learners::{Linear, LinearParams};
    use flaml_search::{Domain, ParamDef};

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
            .fit(&data, &space.init_config(), &space, 0, None)
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
