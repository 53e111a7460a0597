//! The learners a search runs: the six builtin learners of FLAML's
//! default ML layer — each defined once here by its name, cost constant,
//! default search space (the paper's Table 5) and the mapping from a
//! configuration to its parameters — and [`Estimator`], the closed
//! builtin-or-custom type a search's roster holds.
//!
//! Each learner's space lists its searched hyperparameters with ranges and
//! the low-cost initial values (the table's bold entries); upper bounds on
//! tree and leaf counts depend on the training-set size `S` as
//! `min(32768, S)` (`min(2048, S)` for the sklearn forests).

use crate::custom::CustomLearner;
use flaml_data::DatasetView;
use flaml_learners::{
    FitError, FittedModel, Forest, ForestParams, Gbdt, GbdtParams, Growth, Linear, LinearParams,
    PreparedBins, SplitCriterion,
};
use flaml_search::{Config, Domain, ParamDef, SearchSpace};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// The CatBoost-style learner's round cap; the searched hyperparameter is
/// the early-stopping patience, as in Table 5.
const CATBOOST_MAX_ROUNDS: usize = 2048;
/// Oblivious-tree leaf budget (depth 6, CatBoost's default).
const CATBOOST_MAX_LEAVES: usize = 64;

/// The six learners of FLAML's default ML layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LearnerKind {
    /// Leaf-wise histogram GBDT (LightGBM-style).
    LightGbm,
    /// Depth-wise histogram GBDT (XGBoost-style).
    XgBoost,
    /// Oblivious-tree GBDT with early stopping (CatBoost-style).
    CatBoost,
    /// Random forest (sklearn-style).
    Rf,
    /// Extremely randomized trees (sklearn-style).
    ExtraTrees,
    /// L2-regularized logistic/ridge regression (sklearn lr).
    Lr,
}

/// The concrete parameters a builtin learner fits a configuration with.
enum Params {
    Gbdt(GbdtParams),
    Forest(ForestParams),
    Linear(LinearParams),
}

impl Params {
    /// The virtual clock's model-complexity factor: trees x leaves for
    /// boosting (patience x leaves under early stopping, which governs
    /// the rounds), 32 leaves per forest tree, a constant for the
    /// linear model.
    fn cost_factor(&self) -> f64 {
        match self {
            Params::Gbdt(p) => (p.early_stop_rounds.unwrap_or(p.n_trees) * p.max_leaves) as f64,
            Params::Forest(p) => p.n_trees as f64 * 32.0,
            Params::Linear(_) => 64.0,
        }
    }
}

impl LearnerKind {
    /// All learners, in FLAML's default estimator-list order.
    pub const ALL: [LearnerKind; 6] = [
        LearnerKind::LightGbm,
        LearnerKind::XgBoost,
        LearnerKind::CatBoost,
        LearnerKind::Rf,
        LearnerKind::ExtraTrees,
        LearnerKind::Lr,
    ];

    /// Short name used in logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            LearnerKind::LightGbm => "lightgbm",
            LearnerKind::XgBoost => "xgboost",
            LearnerKind::CatBoost => "catboost",
            LearnerKind::Rf => "rf",
            LearnerKind::ExtraTrees => "extra_tree",
            LearnerKind::Lr => "lr",
        }
    }

    /// Parses a learner name as used by [`LearnerKind::name`].
    pub fn parse(name: &str) -> Option<LearnerKind> {
        LearnerKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// The paper's predefined cost constants (appendix): the expected cost
    /// of a learner's cheapest configuration as a multiple of the fastest
    /// learner's cheapest trial.
    pub fn cost_constant(&self) -> f64 {
        match self {
            LearnerKind::LightGbm => 1.0,
            LearnerKind::XgBoost => 1.6,
            LearnerKind::ExtraTrees => 1.9,
            LearnerKind::Rf => 2.0,
            LearnerKind::CatBoost => 15.0,
            LearnerKind::Lr => 160.0,
        }
    }

    /// The default search space for a training set of `n_rows` rows
    /// (Table 5). Initial values are the table's bold entries.
    pub fn space(&self, n_rows: usize) -> SearchSpace {
        let s = n_rows.max(5) as i64;
        let boost_cap = s.min(32_768);
        let forest_cap = s.min(2_048);
        let params = match self {
            LearnerKind::XgBoost => vec![
                ParamDef::new("tree_num", Domain::log_int(4, boost_cap), 4.0),
                ParamDef::new("leaf_num", Domain::log_int(4, boost_cap), 4.0),
                ParamDef::new("min_child_weight", Domain::log_float(0.01, 20.0), 20.0),
                ParamDef::new("learning_rate", Domain::log_float(0.01, 1.0), 0.1),
                ParamDef::new("subsample", Domain::float(0.6, 1.0), 1.0),
                ParamDef::new("reg_alpha", Domain::log_float(1e-10, 1.0), 1e-10),
                ParamDef::new("reg_lambda", Domain::log_float(1e-10, 1.0), 1.0),
                ParamDef::new("colsample_bylevel", Domain::float(0.6, 1.0), 1.0),
                ParamDef::new("colsample_bytree", Domain::float(0.7, 1.0), 1.0),
            ],
            LearnerKind::LightGbm => vec![
                ParamDef::new("tree_num", Domain::log_int(4, boost_cap), 4.0),
                ParamDef::new("leaf_num", Domain::log_int(4, boost_cap), 4.0),
                ParamDef::new("min_child_weight", Domain::log_float(0.01, 20.0), 20.0),
                ParamDef::new("learning_rate", Domain::log_float(0.01, 1.0), 0.1),
                ParamDef::new("subsample", Domain::float(0.6, 1.0), 1.0),
                ParamDef::new("reg_alpha", Domain::log_float(1e-10, 1.0), 1e-10),
                ParamDef::new("reg_lambda", Domain::log_float(1e-10, 1.0), 1.0),
                ParamDef::new("max_bin", Domain::log_int(7, 1023), 255.0),
                ParamDef::new("colsample_bytree", Domain::float(0.7, 1.0), 1.0),
            ],
            LearnerKind::CatBoost => vec![
                ParamDef::new("early_stop_rounds", Domain::int(10, 150), 10.0),
                ParamDef::new("learning_rate", Domain::log_float(0.005, 0.2), 0.1),
            ],
            LearnerKind::Rf | LearnerKind::ExtraTrees => vec![
                ParamDef::new("tree_num", Domain::log_int(4, forest_cap), 4.0),
                ParamDef::new("max_features", Domain::float(0.1, 1.0), 1.0),
                ParamDef::new("split_criterion", Domain::categorical(2), 0.0),
            ],
            LearnerKind::Lr => vec![ParamDef::new(
                "c",
                Domain::log_float(0.03125, 32_768.0),
                1.0,
            )],
        };
        SearchSpace::new(params).expect("table 5 spaces are well-formed")
    }

    /// The one mapping from a configuration of this learner's `space` to
    /// the parameters it fits with. Fitting, the data plane's `max_bin`
    /// and the virtual cost factor all read it.
    fn params(&self, config: &Config, space: &SearchSpace) -> Params {
        let get = |name| config.get(space, name);
        match self {
            LearnerKind::LightGbm | LearnerKind::XgBoost => {
                let xgboost = *self == LearnerKind::XgBoost;
                Params::Gbdt(GbdtParams {
                    n_trees: get("tree_num") as usize,
                    max_leaves: get("leaf_num") as usize,
                    min_child_weight: get("min_child_weight"),
                    learning_rate: get("learning_rate"),
                    subsample: get("subsample"),
                    reg_alpha: get("reg_alpha"),
                    reg_lambda: get("reg_lambda"),
                    colsample_bytree: get("colsample_bytree"),
                    colsample_bylevel: if xgboost {
                        get("colsample_bylevel")
                    } else {
                        1.0
                    },
                    max_bin: if xgboost {
                        255
                    } else {
                        get("max_bin") as usize
                    },
                    growth: if xgboost {
                        Growth::DepthWise
                    } else {
                        Growth::LeafWise
                    },
                    early_stop_rounds: None,
                })
            }
            LearnerKind::CatBoost => Params::Gbdt(GbdtParams {
                n_trees: CATBOOST_MAX_ROUNDS,
                max_leaves: CATBOOST_MAX_LEAVES,
                min_child_weight: 1e-3,
                learning_rate: get("learning_rate"),
                subsample: 1.0,
                reg_alpha: 1e-10,
                reg_lambda: 3.0,
                colsample_bytree: 1.0,
                colsample_bylevel: 1.0,
                max_bin: 255,
                growth: Growth::Oblivious,
                early_stop_rounds: Some(get("early_stop_rounds") as usize),
            }),
            LearnerKind::Rf | LearnerKind::ExtraTrees => Params::Forest(ForestParams {
                n_trees: get("tree_num") as usize,
                max_features: get("max_features"),
                criterion: if get("split_criterion") as i64 == 0 {
                    SplitCriterion::Gini
                } else {
                    SplitCriterion::Entropy
                },
                extra: *self == LearnerKind::ExtraTrees,
                max_depth: None,
            }),
            LearnerKind::Lr => Params::Linear(LinearParams {
                c: get("c"),
                max_iter: 25,
            }),
        }
    }
}

impl std::fmt::Display for LearnerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
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

    /// Trains a model for the decoded configuration. `budget`, when set,
    /// bounds the training time. `prepared` is a cached bin artifact the
    /// data plane built; a learner that bins its features adopts it only
    /// when its `max_bin` equals the configuration's, and otherwise (or
    /// without one) computes bins from `data` — the fitted model is
    /// bit-identical either way.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] for invalid configurations or unusable data
    /// (e.g. a single-class subsample).
    pub fn fit(
        &self,
        data: impl Into<DatasetView>,
        config: &Config,
        space: &SearchSpace,
        seed: u64,
        budget: Option<Duration>,
        prepared: Option<&PreparedBins>,
    ) -> Result<FittedModel, FitError> {
        let data: DatasetView = data.into();
        let kind = match self {
            Estimator::Builtin(k) => k,
            Estimator::Custom(c) => return c.fit(&data, config, space, seed, budget),
        };
        match kind.params(config, space) {
            Params::Gbdt(p) => {
                Gbdt::fit_prepared(data, &p, seed, budget, prepared).map(FittedModel::from)
            }
            Params::Forest(p) => Forest::fit_bounded(data, &p, seed, budget).map(FittedModel::from),
            Params::Linear(p) => Linear::fit_bounded(data, &p, seed, budget).map(FittedModel::from),
        }
    }

    /// The binning resolution this learner fits `config` with, or `None`
    /// for learners that do not bin. The data plane prepares (and caches)
    /// a [`PreparedBins`] artifact per `(sample, fold, max_bin)` key;
    /// this reads the same parameters [`Estimator::fit`] fits with, which
    /// is what makes the cached artifact admissible.
    pub fn max_bin(&self, config: &Config, space: &SearchSpace) -> Option<usize> {
        match self {
            Estimator::Builtin(k) => match k.params(config, space) {
                Params::Gbdt(p) => Some(p.max_bin),
                Params::Forest(_) | Params::Linear(_) => None,
            },
            Estimator::Custom(_) => None,
        }
    }

    /// The virtual-clock complexity factor of a configuration.
    pub(crate) fn cost_factor(&self, config: &Config, space: &SearchSpace) -> f64 {
        match self {
            Estimator::Builtin(k) => k.params(config, space).cost_factor(),
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

    fn toy_binary(n: usize) -> Dataset {
        let x: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let x2: Vec<f64> = (0..n).map(|i| ((i * 7) % n) as f64 / n as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| f64::from(v > 0.5)).collect();
        Dataset::new("toy", Task::Binary, vec![x, x2], y).unwrap()
    }

    #[test]
    fn all_names_round_trip() {
        for k in LearnerKind::ALL {
            assert_eq!(LearnerKind::parse(k.name()), Some(k));
        }
        assert_eq!(LearnerKind::parse("nope"), None);
    }

    #[test]
    fn cost_constants_match_the_appendix() {
        assert_eq!(LearnerKind::LightGbm.cost_constant(), 1.0);
        assert_eq!(LearnerKind::XgBoost.cost_constant(), 1.6);
        assert_eq!(LearnerKind::ExtraTrees.cost_constant(), 1.9);
        assert_eq!(LearnerKind::Rf.cost_constant(), 2.0);
        assert_eq!(LearnerKind::CatBoost.cost_constant(), 15.0);
        assert_eq!(LearnerKind::Lr.cost_constant(), 160.0);
    }

    #[test]
    fn tree_caps_depend_on_dataset_size() {
        let small = LearnerKind::XgBoost.space(100);
        let c = small.init_config();
        assert_eq!(c.get(&small, "tree_num"), 4.0);
        // Upper bound is min(32768, S): decode(1.0) must be 100.
        let idx = small.index_of("tree_num").unwrap();
        assert_eq!(small.params()[idx].domain.decode(1.0), 100.0);
        let big = LearnerKind::XgBoost.space(1_000_000);
        let idx = big.index_of("tree_num").unwrap();
        assert_eq!(big.params()[idx].domain.decode(1.0), 32_768.0);
    }

    #[test]
    fn init_values_are_low_cost() {
        for k in LearnerKind::ALL {
            let space = k.space(10_000);
            let init = space.init_config();
            if let Some(i) = space.index_of("tree_num") {
                assert_eq!(init.values()[i], 4.0, "{k}: init tree_num");
            }
            if let Some(i) = space.index_of("leaf_num") {
                assert_eq!(init.values()[i], 4.0, "{k}: init leaf_num");
            }
        }
    }

    #[test]
    fn spaces_have_expected_dimensions() {
        assert_eq!(LearnerKind::XgBoost.space(1000).dim(), 9);
        assert_eq!(LearnerKind::LightGbm.space(1000).dim(), 9);
        assert_eq!(LearnerKind::CatBoost.space(1000).dim(), 2);
        assert_eq!(LearnerKind::Rf.space(1000).dim(), 3);
        assert_eq!(LearnerKind::ExtraTrees.space(1000).dim(), 3);
        assert_eq!(LearnerKind::Lr.space(1000).dim(), 1);
    }

    #[test]
    fn every_learner_fits_its_init_config() {
        let data = toy_binary(120);
        for kind in LearnerKind::ALL {
            let space = kind.space(data.n_rows());
            let config = space.init_config();
            let model = Estimator::from(kind)
                .fit(&data, &config, &space, 0, None, None)
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
            let model = Estimator::from(kind)
                .fit(&data, &config, &space, 0, None, None)
                .unwrap_or_else(|e| panic!("{kind} failed on regression: {e}"));
            assert!(model.predict(&data).values().is_ok(), "{kind}");
        }
    }

    #[test]
    fn cost_factor_grows_with_model_size() {
        let lgbm = Estimator::from(LearnerKind::LightGbm);
        let space = lgbm.space(100_000);
        let small = space.init_config();
        let big = space.decode(&vec![1.0; space.dim()]);
        assert!(lgbm.cost_factor(&big, &space) > lgbm.cost_factor(&small, &space));
    }
}
