//! The ML layer of the FLAML reproduction: every learner of the paper's
//! Table 5 search space, implemented from scratch.
//!
//! * [`Gbdt`] — histogram-based gradient-boosted decision trees with three
//!   growth policies standing in for the three boosting libraries the paper
//!   searches over: leaf-wise ([`Growth::LeafWise`], LightGBM-style),
//!   depth-wise ([`Growth::DepthWise`], XGBoost-style) and oblivious trees
//!   with early stopping ([`Growth::Oblivious`], CatBoost-style).
//! * [`Forest`] — bagged decision trees (random forest) and
//!   extremely-randomized trees (extra-trees), sharing one tree core.
//! * [`Linear`] — L2-regularized logistic regression (classification) and
//!   ridge regression (regression tasks), trained with averaged SGD.
//!
//! All learners consume anything convertible into a zero-copy
//! [`flaml_data::DatasetView`] (an owned [`flaml_data::Dataset`], a
//! subsample view, a fold view, ...) and produce a [`FittedModel`] whose
//! [`FittedModel::predict`] returns a [`flaml_metrics::Pred`] ready for
//! metric evaluation. [`PreparedSort`] and [`PreparedBins`] let callers
//! hoist the per-fit binning work of [`Gbdt`] out of repeated trials.
//! Every boosting fit is one cold loop over its rounds: no search or
//! refit continues another fit's trees (DESIGN §17 says why).
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use flaml_data::{Dataset, Task};
//! use flaml_learners::{Gbdt, GbdtParams};
//!
//! let x: Vec<f64> = (0..200).map(|i| i as f64 / 200.0).collect();
//! let y: Vec<f64> = x.iter().map(|v| f64::from(*v > 0.5)).collect();
//! let data = Dataset::new("step", Task::Binary, vec![x], y)?;
//! let model = Gbdt::fit(&data, &GbdtParams::default(), 0)?;
//! let pred = model.predict(&data);
//! # let _ = pred;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod binning;
mod dtree;
mod error;
mod forest;
mod gbdt;
mod hist;
mod linear;
pub mod link;
mod stacking;

pub use binning::{BinMapper, BinnedDataset, PreparedBins, PreparedSort};
pub use dtree::{goes_left, DTreeNode, DecisionTree, SplitCriterion, TreeParams};
pub use error::FitError;
pub use forest::{Forest, ForestModel, ForestParams};
pub use gbdt::{Gbdt, GbdtModel, GbdtNode, GbdtParams, Growth};
pub use linear::{Encoding, Linear, LinearModel, LinearParams, MAX_ONE_HOT};
pub use stacking::{fit_meta, member_columns, meta_features, StackedModel};

use flaml_data::DatasetView;
use flaml_metrics::Pred;
use std::sync::Arc;

/// Object-safe model trait for user-defined learners: anything that can
/// predict on a dataset can be wrapped into [`FittedModel::Custom`].
pub trait DynModel: std::fmt::Debug + Send + Sync {
    /// Predicts on `data` (probabilities for classification, values for
    /// regression).
    fn predict_dyn(&self, data: &DatasetView) -> Pred;
}

/// A trained model from any learner in the ML layer.
#[derive(Debug, Clone)]
pub enum FittedModel {
    /// Gradient-boosted decision trees.
    Gbdt(GbdtModel),
    /// Random forest or extra-trees ensemble.
    Forest(ForestModel),
    /// Logistic or ridge regression.
    Linear(LinearModel),
    /// A stacked ensemble of other fitted models.
    Stacked(Box<StackedModel>),
    /// A user-defined model (see [`DynModel`]).
    Custom(Arc<dyn DynModel>),
}

impl FittedModel {
    /// Predicts on `data` (class probabilities for classification tasks,
    /// values for regression).
    pub fn predict(&self, data: impl Into<DatasetView>) -> Pred {
        let data: DatasetView = data.into();
        match self {
            FittedModel::Gbdt(m) => m.predict(&data),
            FittedModel::Forest(m) => m.predict(&data),
            FittedModel::Linear(m) => m.predict(&data),
            FittedModel::Stacked(m) => m.predict(&data),
            FittedModel::Custom(m) => m.predict_dyn(&data),
        }
    }

    /// Split-count feature importance for tree models, `None` for models
    /// without a per-feature split notion (linear, stacked, custom).
    pub fn feature_importance(&self) -> Option<Vec<f64>> {
        match self {
            FittedModel::Gbdt(m) => Some(m.feature_importance()),
            FittedModel::Forest(m) => Some(m.feature_importance()),
            _ => None,
        }
    }
}

/// `weights` scaled to sum to 1; all zeros stay zeros.
fn normalized(mut weights: Vec<f64>) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    if total > 0.0 {
        weights.iter_mut().for_each(|w| *w /= total);
    }
    weights
}

impl From<GbdtModel> for FittedModel {
    fn from(m: GbdtModel) -> Self {
        FittedModel::Gbdt(m)
    }
}

impl From<ForestModel> for FittedModel {
    fn from(m: ForestModel) -> Self {
        FittedModel::Forest(m)
    }
}

impl From<LinearModel> for FittedModel {
    fn from(m: LinearModel) -> Self {
        FittedModel::Linear(m)
    }
}

impl From<StackedModel> for FittedModel {
    fn from(m: StackedModel) -> Self {
        FittedModel::Stacked(Box::new(m))
    }
}
