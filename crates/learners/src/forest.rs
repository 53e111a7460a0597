//! Random forests and extra-trees, built on [`crate::DecisionTree`].
//!
//! The paper's Table 5 searches `tree num`, `max features` and the split
//! criterion for both `sklearn random forest` and `sklearn extra trees`;
//! the two differ in bootstrap (RF resamples rows, ET uses all rows) and
//! threshold selection (ET draws one random threshold per feature).

use crate::dtree::{DecisionTree, Grower, SplitCriterion, TreeParams};
use crate::error::check_params;
use crate::FitError;
use flaml_data::{DatasetView, Task};
use flaml_metrics::Pred;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Hyperparameters of the [`Forest`] learner.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestParams {
    /// Number of trees ("tree num").
    pub n_trees: usize,
    /// Fraction of features considered per split ("max features").
    pub max_features: f64,
    /// Split criterion; ignored (forced to variance) on regression tasks.
    pub criterion: SplitCriterion,
    /// Extra-trees mode: no bootstrap, random thresholds.
    pub extra: bool,
    /// Depth cap per tree (`None` grows to purity, sklearn's default).
    pub max_depth: Option<usize>,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 100,
            max_features: 0.5,
            criterion: SplitCriterion::Gini,
            extra: false,
            max_depth: None,
        }
    }
}

/// The forest learner. Construct models via [`Forest::fit`].
#[derive(Debug, Clone, Copy)]
pub struct Forest;

/// A fitted forest.
#[derive(Debug, Clone)]
pub struct ForestModel {
    trees: Vec<DecisionTree>,
    task: Task,
    n_features: usize,
}

impl Forest {
    /// Fits a forest. Accepts anything convertible into a
    /// [`DatasetView`] (`&Dataset`, `&DatasetView`, ...).
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] for out-of-range hyperparameters.
    pub fn fit(
        data: impl Into<DatasetView>,
        params: &ForestParams,
        seed: u64,
    ) -> Result<ForestModel, FitError> {
        Self::fit_bounded(data, params, seed, None)
    }

    /// Like [`Forest::fit`] but stops adding trees when `budget` elapses
    /// (at least one tree is always built).
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] for out-of-range hyperparameters.
    pub fn fit_bounded(
        data: impl Into<DatasetView>,
        params: &ForestParams,
        seed: u64,
        budget: Option<Duration>,
    ) -> Result<ForestModel, FitError> {
        let data: DatasetView = data.into();
        let share = params.max_features;
        let outside = !(share > 0.0 && share <= 1.0);
        check_params(&[
            (params.n_trees == 0, "n_trees", 0.0, "must be >= 1"),
            (outside, "max_features", share, "must be in (0, 1]"),
        ])?;
        let start = Instant::now();
        let n = data.n_rows();
        let criterion = if data.task() == Task::Regression {
            SplitCriterion::Variance
        } else {
            params.criterion
        };
        let tree_params = TreeParams {
            max_features: params.max_features,
            criterion,
            random_threshold: params.extra,
            min_samples_leaf: 1,
            max_depth: params.max_depth,
        };
        let mut grower = Grower::new(&data, &tree_params);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trees = Vec::with_capacity(params.n_trees);
        for t in 0..params.n_trees {
            if t > 0 && budget.is_some_and(|b| start.elapsed() >= b) {
                break;
            }
            let rows: Vec<usize> = if params.extra {
                (0..n).collect()
            } else {
                (0..n).map(|_| rng.gen_range(0..n)).collect()
            };
            trees.push(grower.grow(&rows, &mut rng));
        }
        Ok(ForestModel {
            trees,
            task: data.task(),
            n_features: data.n_features(),
        })
    }
}

impl ForestModel {
    /// Number of trees actually built.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Split-count feature importance, normalized to sum to 1 (all zeros
    /// if no tree ever split).
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut counts = vec![0.0; self.n_features];
        for tree in &self.trees {
            tree.accumulate_split_counts(&mut counts);
        }
        crate::normalized(counts)
    }

    /// Predicts by averaging per-tree leaf distributions (classification)
    /// or leaf means (regression).
    ///
    /// The eval matrix is gathered into plain column slices once up front
    /// and every tree traverses those slices, instead of re-dispatching
    /// each value lookup through the view's row selection at every tree
    /// visit; the gathered values are identical, so the predictions are
    /// identical. The same column path serves compiled artifacts.
    ///
    /// # Panics
    ///
    /// Panics if `data` has a different feature count than training data.
    pub fn predict(&self, data: impl Into<DatasetView>) -> Pred {
        let data: DatasetView = data.into();
        let cols: Vec<Vec<f64>> = (0..data.n_features())
            .map(|j| data.column_values(j).collect())
            .collect();
        self.predict_cols(&cols, data.n_rows())
    }

    /// Predicts from pre-gathered feature columns (`cols[j][i]` is the
    /// value of feature `j` at row `i`). This is the code path
    /// [`ForestModel::predict`] uses after gathering its view once.
    ///
    /// # Panics
    ///
    /// Panics if `cols` has a different feature count than training data.
    fn predict_cols(&self, cols: &[Vec<f64>], n: usize) -> Pred {
        assert_eq!(
            cols.len(),
            self.n_features,
            "predicting with a different feature count"
        );
        let m = self.trees.len() as f64;
        match self.task {
            Task::Regression => {
                let mut out = vec![0.0; n];
                for tree in &self.trees {
                    for (i, o) in out.iter_mut().enumerate() {
                        *o += tree.eval_cols(cols, i)[0];
                    }
                }
                for o in &mut out {
                    *o /= m;
                }
                Pred::from_values(out)
            }
            Task::Binary | Task::MultiClass(_) => {
                let k = self.task.n_classes().expect("classification");
                let mut p = vec![0.0; n * k];
                for tree in &self.trees {
                    for i in 0..n {
                        let dist = tree.eval_cols(cols, i);
                        for c in 0..k {
                            p[i * k + c] += dist[c];
                        }
                    }
                }
                for v in &mut p {
                    *v /= m;
                }
                Pred::Probs { n_classes: k, p }
            }
        }
    }

    /// The fitted trees, for compilation into a serving artifact.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// The task the model was trained for.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Number of feature columns the model was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flaml_data::Dataset;
    use flaml_metrics::Metric;

    fn blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x0 = Vec::with_capacity(n);
        let mut x1 = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % 2;
            let center = if c == 0 { -1.0 } else { 1.0 };
            x0.push(center + rng.gen::<f64>() - 0.5);
            x1.push(center + rng.gen::<f64>() - 0.5);
            y.push(c as f64);
        }
        Dataset::new("blobs", Task::Binary, vec![x0, x1], y).unwrap()
    }

    #[test]
    fn rf_separates_blobs() {
        let d = blobs(300, 0);
        let m = Forest::fit(
            &d,
            &ForestParams {
                n_trees: 20,
                ..ForestParams::default()
            },
            0,
        )
        .unwrap();
        let loss = Metric::Accuracy.loss(&m.predict(&d), d.target()).unwrap();
        assert!(loss < 0.02, "train error {loss}");
    }

    #[test]
    fn extra_trees_separate_blobs() {
        let d = blobs(300, 1);
        let m = Forest::fit(
            &d,
            &ForestParams {
                n_trees: 20,
                extra: true,
                ..ForestParams::default()
            },
            0,
        )
        .unwrap();
        let loss = Metric::Accuracy.loss(&m.predict(&d), d.target()).unwrap();
        assert!(loss < 0.03, "train error {loss}");
    }

    #[test]
    fn regression_forest_uses_variance() {
        let x: Vec<f64> = (0..200).map(|i| i as f64 / 200.0).collect();
        let y: Vec<f64> = x.iter().map(|&v| v * v).collect();
        let d = Dataset::new("sq", Task::Regression, vec![x], y).unwrap();
        let m = Forest::fit(
            &d,
            &ForestParams {
                n_trees: 30,
                criterion: SplitCriterion::Gini, // overridden internally
                ..ForestParams::default()
            },
            0,
        )
        .unwrap();
        let loss = Metric::R2.loss(&m.predict(&d), d.target()).unwrap();
        assert!(loss < 0.01, "1 - r2 = {loss}");
    }

    #[test]
    fn probabilities_normalized() {
        let d = blobs(100, 2);
        let m = Forest::fit(&d, &ForestParams::default(), 0).unwrap();
        let pred = m.predict(&d);
        let (_, p) = pred.probs().unwrap();
        for row in p.chunks_exact(2) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn budget_caps_tree_count() {
        let d = blobs(3000, 3);
        let m = Forest::fit_bounded(
            &d,
            &ForestParams {
                n_trees: 10_000,
                ..ForestParams::default()
            },
            0,
            Some(Duration::from_millis(60)),
        )
        .unwrap();
        assert!(m.n_trees() >= 1);
        assert!(m.n_trees() < 10_000);
    }

    #[test]
    fn validates_params() {
        let d = blobs(50, 4);
        assert!(Forest::fit(
            &d,
            &ForestParams {
                n_trees: 0,
                ..ForestParams::default()
            },
            0
        )
        .is_err());
        assert!(Forest::fit(
            &d,
            &ForestParams {
                max_features: 0.0,
                ..ForestParams::default()
            },
            0
        )
        .is_err());
    }

    #[test]
    fn feature_importance_finds_the_signal() {
        let n = 300;
        let mut rng = StdRng::seed_from_u64(31);
        let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let y: Vec<f64> = x0.iter().map(|&v| f64::from(v > 0.5)).collect();
        let d = Dataset::new("imp", Task::Binary, vec![x0, x1], y).unwrap();
        // Shallow exhaustive trees: split counts concentrate on the
        // signal (deep fully-grown trees spend many splits cleaning up
        // noise partitions, diluting split-count importance).
        let m = Forest::fit(
            &d,
            &ForestParams {
                n_trees: 10,
                max_features: 1.0,
                max_depth: Some(2),
                ..ForestParams::default()
            },
            0,
        )
        .unwrap();
        let imp = m.feature_importance();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.6, "signal feature importance {imp:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let d = blobs(200, 5);
        let params = ForestParams {
            n_trees: 5,
            ..ForestParams::default()
        };
        let a = Forest::fit(&d, &params, 9).unwrap().predict(&d);
        let b = Forest::fit(&d, &params, 9).unwrap().predict(&d);
        assert_eq!(a, b);
    }
}
