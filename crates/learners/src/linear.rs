//! Linear models: L2-regularized logistic regression (the paper's
//! `sklearn lr` learner, hyperparameter `C`) and ridge regression for
//! regression tasks.
//!
//! Features are standardized; categorical columns are one-hot encoded;
//! missing values are mean-imputed (zero after standardization). Binary
//! classification is solved by IRLS (Newton) with a ridge term, multiclass
//! by one-vs-rest, ridge regression by normal equations — all via a small
//! in-crate Cholesky solver, so convergence is fast and deterministic.

use crate::error::check_params;
use crate::link::sigmoid;
use crate::FitError;
use flaml_data::{DatasetView, FeatureKind, Task};
use flaml_metrics::Pred;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Hyperparameters of the [`Linear`] learner.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearParams {
    /// Inverse regularization strength, as in scikit-learn: larger `C`
    /// means weaker regularization. Table 5 range: `[0.03125, 32768]`.
    pub c: f64,
    /// Maximum IRLS iterations for classification.
    pub max_iter: usize,
}

impl Default for LinearParams {
    fn default() -> Self {
        LinearParams {
            c: 1.0,
            max_iter: 25,
        }
    }
}

/// The linear learner. Construct models via [`Linear::fit`].
#[derive(Debug, Clone, Copy)]
pub struct Linear;

/// The most categories a feature is one-hot encoded over; a categorical
/// feature with more is standardized like a numeric one.
pub const MAX_ONE_HOT: usize = 64;

/// How each raw feature column is embedded into the design matrix.
/// Public (and serializable) so serving artifacts can store the fitted
/// encodings and rebuild an identical model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Encoding {
    /// Standardized numeric column: `(value - mean) / std`.
    Numeric {
        /// Mean of the finite training values.
        mean: f64,
        /// Standard deviation of the finite training values (floored).
        std: f64,
    },
    /// One-hot over `cardinality` categories.
    OneHot {
        /// Number of categories (one design column each).
        cardinality: usize,
    },
}

/// A fitted linear model.
#[derive(Debug, Clone)]
pub struct LinearModel {
    encodings: Vec<Encoding>,
    /// Weight matrix: `weights[g]` has one weight per design column plus a
    /// trailing intercept; one group for regression/binary, `k` for
    /// multiclass one-vs-rest.
    weights: Vec<Vec<f64>>,
    task: Task,
    /// Label standardization for regression targets.
    y_mean: f64,
    y_std: f64,
}

impl Linear {
    /// Fits a linear model. Accepts anything convertible into a
    /// [`DatasetView`] (`&Dataset`, `&DatasetView`, ...).
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] for non-positive `C` or unusable data.
    pub fn fit(
        data: impl Into<DatasetView>,
        params: &LinearParams,
        seed: u64,
    ) -> Result<LinearModel, FitError> {
        Self::fit_bounded(data, params, seed, None)
    }

    /// Like [`Linear::fit`] but stops IRLS refinement when `budget`
    /// elapses. The seed is accepted for interface uniformity; the solver
    /// is deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] for non-positive `C` or unusable data.
    pub fn fit_bounded(
        data: impl Into<DatasetView>,
        params: &LinearParams,
        _seed: u64,
        budget: Option<Duration>,
    ) -> Result<LinearModel, FitError> {
        let data: DatasetView = data.into();
        let c = params.c;
        check_params(&[
            (c <= 0.0 || c.is_nan(), "c", c, "must be > 0"),
            (params.max_iter == 0, "max_iter", 0.0, "must be >= 1"),
        ])?;
        let start = Instant::now();
        let encodings = build_encodings(&data);
        let x = design_matrix(&data, &encodings);
        let d = x.n_cols; // includes intercept
        let n = data.n_rows();
        let lambda = 1.0 / (params.c * n as f64);

        let y = data.gather_target();
        let task = data.task();
        let (weights, y_mean, y_std) = match task {
            Task::Regression => {
                let y_mean = y.iter().sum::<f64>() / n as f64;
                let y_std = {
                    let var = y.iter().map(|v| (v - y_mean) * (v - y_mean)).sum::<f64>() / n as f64;
                    var.sqrt().max(1e-12)
                };
                let ys: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();
                (vec![ridge_solve(&x, &ys, lambda)?], y_mean, y_std)
            }
            Task::Binary => {
                let w = irls(&x, &y, lambda, params.max_iter, budget, start)?;
                (vec![w], 0.0, 1.0)
            }
            Task::MultiClass(k) => {
                let mut weights = Vec::with_capacity(k);
                for c in 0..k {
                    let targets: Vec<f64> = y.iter().map(|&y| f64::from(y as usize == c)).collect();
                    // A class can be absent from a subsample; a zero model
                    // (uniform probability) is the sensible fallback.
                    let w = if targets.iter().all(|&t| t == 0.0) {
                        vec![0.0; d]
                    } else {
                        irls(&x, &targets, lambda, params.max_iter, budget, start)?
                    };
                    weights.push(w);
                }
                (weights, 0.0, 1.0)
            }
        };
        Ok(LinearModel {
            encodings,
            weights,
            task,
            y_mean,
            y_std,
        })
    }
}

impl LinearModel {
    /// Reassembles a model from its fitted parts (e.g. a deserialized
    /// serving artifact). A model rebuilt from the accessors of an
    /// existing model predicts identically.
    pub fn from_parts(
        encodings: Vec<Encoding>,
        weights: Vec<Vec<f64>>,
        task: Task,
        y_mean: f64,
        y_std: f64,
    ) -> LinearModel {
        LinearModel {
            encodings,
            weights,
            task,
            y_mean,
            y_std,
        }
    }

    /// The fitted per-feature encodings.
    pub fn encodings(&self) -> &[Encoding] {
        &self.encodings
    }

    /// The fitted weight groups (design columns + intercept each).
    pub fn weights(&self) -> &[Vec<f64>] {
        &self.weights
    }

    /// The task the model was trained for.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Regression target mean (0 for classification).
    pub fn y_mean(&self) -> f64 {
        self.y_mean
    }

    /// Regression target standard deviation (1 for classification).
    pub fn y_std(&self) -> f64 {
        self.y_std
    }

    /// Predicts class probabilities (classification) or values
    /// (regression).
    ///
    /// # Panics
    ///
    /// Panics if `data` has a different feature count than training data.
    pub fn predict(&self, data: impl Into<DatasetView>) -> Pred {
        let data: DatasetView = data.into();
        assert_eq!(
            data.n_features(),
            self.encodings.len(),
            "predicting with a different feature count"
        );
        let x = design_matrix(&data, &self.encodings);
        self.predict_design(&x)
    }

    /// Predicts from raw feature columns (`columns[j][i]` is the value of
    /// feature `j` at row `i`), bypassing dataset construction. The design
    /// matrix is built by the same code over the same values in the same
    /// order as [`LinearModel::predict`], so the output is bit-identical
    /// to predicting on a dataset holding these columns.
    ///
    /// # Panics
    ///
    /// Panics if `columns` has a different feature count than training
    /// data.
    pub fn predict_columns(&self, columns: &[Vec<f64>], n_rows: usize) -> Pred {
        assert_eq!(
            columns.len(),
            self.encodings.len(),
            "predicting with a different feature count"
        );
        let x = design_from(n_rows, &self.encodings, |i, j| columns[j][i]);
        self.predict_design(&x)
    }

    fn predict_design(&self, x: &Design) -> Pred {
        match self.task {
            Task::Regression => {
                let margins = x.matvec(&self.weights[0]);
                Pred::from_values(
                    margins
                        .into_iter()
                        .map(|m| m * self.y_std + self.y_mean)
                        .collect(),
                )
            }
            Task::Binary => {
                let margins = x.matvec(&self.weights[0]);
                Pred::binary_probs(margins.into_iter().map(sigmoid).collect())
            }
            Task::MultiClass(k) => {
                let n = x.n_rows;
                let mut p = vec![0.0; n * k];
                for (c, w) in self.weights.iter().enumerate() {
                    for (i, m) in x.matvec(w).into_iter().enumerate() {
                        p[i * k + c] = sigmoid(m);
                    }
                }
                // One-vs-rest: normalize the per-class sigmoids.
                for row in p.chunks_exact_mut(k) {
                    let total: f64 = row.iter().sum();
                    if total > 0.0 {
                        for v in row.iter_mut() {
                            *v /= total;
                        }
                    } else {
                        for v in row.iter_mut() {
                            *v = 1.0 / k as f64;
                        }
                    }
                }
                Pred::Probs { n_classes: k, p }
            }
        }
    }
}

fn build_encodings(data: &DatasetView) -> Vec<Encoding> {
    (0..data.n_features())
        .map(|j| match data.feature_kind(j) {
            FeatureKind::Categorical { cardinality } if cardinality <= MAX_ONE_HOT => {
                Encoding::OneHot { cardinality }
            }
            _ => {
                let finite: Vec<f64> = data.column_values(j).filter(|v| !v.is_nan()).collect();
                if finite.is_empty() {
                    Encoding::Numeric {
                        mean: 0.0,
                        std: 1.0,
                    }
                } else {
                    let mean = finite.iter().sum::<f64>() / finite.len() as f64;
                    let var = finite.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                        / finite.len() as f64;
                    Encoding::Numeric {
                        mean,
                        std: var.sqrt().max(1e-12),
                    }
                }
            }
        })
        .collect()
}

/// Row-major dense design matrix with a trailing all-ones intercept column.
struct Design {
    rows: Vec<f64>,
    n_rows: usize,
    n_cols: usize,
}

impl Design {
    fn row(&self, i: usize) -> &[f64] {
        &self.rows[i * self.n_cols..(i + 1) * self.n_cols]
    }

    fn matvec(&self, w: &[f64]) -> Vec<f64> {
        (0..self.n_rows)
            .map(|i| self.row(i).iter().zip(w).map(|(a, b)| a * b).sum())
            .collect()
    }
}

fn design_matrix(data: &DatasetView, encodings: &[Encoding]) -> Design {
    design_from(data.n_rows(), encodings, |i, j| data.value(i, j))
}

/// Builds the design matrix from any value source; the view-based and
/// column-based predict paths share this exact construction so their
/// outputs agree bit-for-bit.
fn design_from(n: usize, encodings: &[Encoding], value: impl Fn(usize, usize) -> f64) -> Design {
    let n_cols: usize = encodings
        .iter()
        .map(|e| match e {
            Encoding::Numeric { .. } => 1,
            Encoding::OneHot { cardinality } => *cardinality,
        })
        .sum::<usize>()
        + 1;
    let mut rows = vec![0.0; n * n_cols];
    for i in 0..n {
        let out = &mut rows[i * n_cols..(i + 1) * n_cols];
        let mut at = 0usize;
        for (j, enc) in encodings.iter().enumerate() {
            let v = value(i, j);
            match enc {
                Encoding::Numeric { mean, std } => {
                    out[at] = if v.is_nan() { 0.0 } else { (v - mean) / std };
                    at += 1;
                }
                Encoding::OneHot { cardinality } => {
                    if !v.is_nan() {
                        let c = v as usize;
                        if c < *cardinality {
                            out[at + c] = 1.0;
                        }
                    }
                    at += cardinality;
                }
            }
        }
        out[n_cols - 1] = 1.0; // intercept
    }
    Design {
        rows,
        n_rows: n,
        n_cols,
    }
}

/// Solves `A w = b` for symmetric positive-definite `A` (row-major, d x d)
/// by Cholesky decomposition, adding jitter on near-singularity.
fn cholesky_solve(mut a: Vec<f64>, mut b: Vec<f64>, d: usize) -> Result<Vec<f64>, FitError> {
    // Add escalating jitter until the factorization succeeds.
    for attempt in 0..6 {
        let jitter = if attempt == 0 {
            0.0
        } else {
            1e-10 * 10f64.powi(attempt)
        };
        let mut l = a.clone();
        if jitter > 0.0 {
            for i in 0..d {
                l[i * d + i] += jitter;
            }
        }
        if let Some(l) = try_cholesky(&mut l, d) {
            // Forward solve L z = b, back solve L^T w = z.
            let mut z = b.clone();
            for i in 0..d {
                let mut s = z[i];
                for k in 0..i {
                    s -= l[i * d + k] * z[k];
                }
                z[i] = s / l[i * d + i];
            }
            let mut w = z;
            for i in (0..d).rev() {
                let mut s = w[i];
                for k in i + 1..d {
                    s -= l[k * d + i] * w[k];
                }
                w[i] = s / l[i * d + i];
            }
            return Ok(w);
        }
    }
    // Should be unreachable with jitter; degrade to a zero model.
    a.clear();
    b.clear();
    Err(FitError::BadData(
        "normal equations not positive definite even with jitter".into(),
    ))
}

/// In-place lower Cholesky; returns `None` if not positive definite.
fn try_cholesky(a: &mut [f64], d: usize) -> Option<&[f64]> {
    for i in 0..d {
        for j in 0..=i {
            let mut s = a[i * d + j];
            for k in 0..j {
                s -= a[i * d + k] * a[j * d + k];
            }
            if i == j {
                if s <= 0.0 {
                    return None;
                }
                a[i * d + j] = s.sqrt();
            } else {
                a[i * d + j] = s / a[j * d + j];
            }
        }
    }
    Some(a)
}

/// Ridge regression by normal equations; the intercept column is not
/// regularized.
fn ridge_solve(x: &Design, y: &[f64], lambda: f64) -> Result<Vec<f64>, FitError> {
    let d = x.n_cols;
    let n = x.n_rows;
    let mut a = vec![0.0; d * d];
    let mut b = vec![0.0; d];
    for (i, &yi) in y.iter().enumerate().take(n) {
        let row = x.row(i);
        for p in 0..d {
            b[p] += row[p] * yi;
            for q in 0..=p {
                a[p * d + q] += row[p] * row[q];
            }
        }
    }
    // Symmetrize and regularize (skip the intercept at index d-1).
    for p in 0..d {
        for q in p + 1..d {
            a[p * d + q] = a[q * d + p];
        }
    }
    let reg = lambda * n as f64;
    for p in 0..d - 1 {
        a[p * d + p] += reg;
    }
    cholesky_solve(a, b, d)
}

/// IRLS (Newton) for L2-regularized logistic regression on 0/1 targets.
fn irls(
    x: &Design,
    targets: &[f64],
    lambda: f64,
    max_iter: usize,
    budget: Option<Duration>,
    start: Instant,
) -> Result<Vec<f64>, FitError> {
    let d = x.n_cols;
    let n = x.n_rows;
    let reg = lambda * n as f64;
    let mut w = vec![0.0; d];
    for iter in 0..max_iter {
        if iter > 0 && budget.is_some_and(|b| start.elapsed() >= b) {
            break;
        }
        let margins = x.matvec(&w);
        // Gradient and Hessian of the penalized log-loss.
        let mut grad = vec![0.0; d];
        let mut hess = vec![0.0; d * d];
        for i in 0..n {
            let p = sigmoid(margins[i]);
            let g = p - targets[i];
            let h = (p * (1.0 - p)).max(1e-9);
            let row = x.row(i);
            for a in 0..d {
                grad[a] += g * row[a];
                let ha = h * row[a];
                for b in 0..=a {
                    hess[a * d + b] += ha * row[b];
                }
            }
        }
        for a in 0..d {
            for b in a + 1..d {
                hess[a * d + b] = hess[b * d + a];
            }
        }
        for a in 0..d - 1 {
            grad[a] += reg * w[a];
            hess[a * d + a] += reg;
        }
        let step = cholesky_solve(hess, grad.clone(), d)?;
        let mut max_change = 0.0f64;
        for a in 0..d {
            w[a] -= step[a];
            max_change = max_change.max(step[a].abs());
        }
        if max_change < 1e-8 {
            break;
        }
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LinearModel {
        /// Number of design-matrix columns (including intercept).
        fn n_weights(&self) -> usize {
            self.weights[0].len()
        }
    }
    use flaml_data::Dataset;
    use flaml_metrics::Metric;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn linear_binary(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
        let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
        let y: Vec<f64> = x0
            .iter()
            .zip(&x1)
            .map(|(&a, &b)| f64::from(2.0 * a - b + 0.3 > 0.0))
            .collect();
        Dataset::new("lin", Task::Binary, vec![x0, x1], y).unwrap()
    }

    #[test]
    fn logistic_separates_linear_data() {
        let d = linear_binary(400, 0);
        let m = Linear::fit(&d, &LinearParams::default(), 0).unwrap();
        let loss = Metric::Accuracy.loss(&m.predict(&d), d.target()).unwrap();
        assert!(loss < 0.02, "train error {loss}");
    }

    #[test]
    fn ridge_recovers_linear_function() {
        let n = 300;
        let mut rng = StdRng::seed_from_u64(1);
        let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let y: Vec<f64> = x0
            .iter()
            .zip(&x1)
            .map(|(&a, &b)| 3.0 * a - 2.0 * b + 1.0)
            .collect();
        let d = Dataset::new("rr", Task::Regression, vec![x0, x1], y).unwrap();
        let m = Linear::fit(
            &d,
            &LinearParams {
                c: 1e6,
                ..LinearParams::default()
            },
            0,
        )
        .unwrap();
        let loss = Metric::R2.loss(&m.predict(&d), d.target()).unwrap();
        assert!(loss < 1e-6, "1 - r2 = {loss}");
    }

    #[test]
    fn stronger_regularization_shrinks_weights() {
        let d = linear_binary(200, 2);
        let free = Linear::fit(
            &d,
            &LinearParams {
                c: 1e4,
                ..LinearParams::default()
            },
            0,
        )
        .unwrap();
        let tight = Linear::fit(
            &d,
            &LinearParams {
                c: 1e-3,
                ..LinearParams::default()
            },
            0,
        )
        .unwrap();
        let norm = |m: &LinearModel| {
            m.weights[0][..m.weights[0].len() - 1]
                .iter()
                .map(|w| w * w)
                .sum::<f64>()
        };
        assert!(norm(&tight) < norm(&free) / 10.0);
    }

    #[test]
    fn multiclass_one_vs_rest() {
        let n = 300;
        let mut rng = StdRng::seed_from_u64(3);
        let mut x0 = Vec::new();
        let mut x1 = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let c = i % 3;
            let (cx, cy) = [(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)][c];
            x0.push(cx + rng.gen::<f64>() - 0.5);
            x1.push(cy + rng.gen::<f64>() - 0.5);
            y.push(c as f64);
        }
        let d = Dataset::new("3c", Task::MultiClass(3), vec![x0, x1], y).unwrap();
        let m = Linear::fit(&d, &LinearParams::default(), 0).unwrap();
        let loss = Metric::Accuracy.loss(&m.predict(&d), d.target()).unwrap();
        assert!(loss < 0.02, "train error {loss}");
        let pred = m.predict(&d);
        let (_, p) = pred.probs().unwrap();
        for row in p.chunks_exact(3) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn one_hot_encoding_used_for_categoricals() {
        let n = 120;
        let cat: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let y: Vec<f64> = cat.iter().map(|&c| f64::from(c == 1.0)).collect();
        let d = Dataset::with_kinds(
            "cat",
            Task::Binary,
            vec![cat],
            vec![FeatureKind::Categorical { cardinality: 3 }],
            y,
        )
        .unwrap();
        let m = Linear::fit(&d, &LinearParams::default(), 0).unwrap();
        // A purely numeric treatment cannot separate class 1 (middle
        // category); one-hot can.
        let loss = Metric::Accuracy.loss(&m.predict(&d), d.target()).unwrap();
        assert!(loss < 0.01, "train error {loss}");
        assert_eq!(m.n_weights(), 4, "3 one-hot columns + intercept");
    }

    #[test]
    fn nan_features_are_imputed() {
        let mut x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        x[3] = f64::NAN;
        x[77] = f64::NAN;
        let y: Vec<f64> = (0..100).map(|i| f64::from(i >= 50)).collect();
        let d = Dataset::new("nan", Task::Binary, vec![x], y).unwrap();
        let m = Linear::fit(&d, &LinearParams::default(), 0).unwrap();
        for p in m.predict(&d).positive_scores().unwrap() {
            assert!(p.is_finite());
        }
    }

    #[test]
    fn validates_params() {
        let d = linear_binary(50, 4);
        assert!(Linear::fit(
            &d,
            &LinearParams {
                c: 0.0,
                ..LinearParams::default()
            },
            0
        )
        .is_err());
        assert!(Linear::fit(
            &d,
            &LinearParams {
                max_iter: 0,
                ..LinearParams::default()
            },
            0
        )
        .is_err());
    }
}
