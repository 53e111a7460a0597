use crate::view::DatasetView;
use crate::DataError;
use flaml_store::Fnv1a;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The kind of a feature column.
///
/// Categorical columns store category indices as `f64` values; learners may
/// exploit the distinction (e.g. one-hot encode for linear models). Missing
/// values are represented as `NaN` in either kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureKind {
    /// Real-valued feature.
    Numeric,
    /// Categorical feature with the given number of categories.
    Categorical {
        /// Number of distinct categories (indices `0..cardinality`).
        cardinality: usize,
    },
}

/// The prediction task a dataset defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Task {
    /// Binary classification; labels are 0.0 or 1.0.
    Binary,
    /// Multi-class classification with the given number of classes;
    /// labels are class indices stored as `f64`.
    MultiClass(usize),
    /// Regression; labels are arbitrary finite reals.
    Regression,
}

impl Task {
    /// Number of classes, or `None` for regression.
    pub fn n_classes(&self) -> Option<usize> {
        match self {
            Task::Binary => Some(2),
            Task::MultiClass(k) => Some(*k),
            Task::Regression => None,
        }
    }

    /// Whether this is a classification task.
    pub fn is_classification(&self) -> bool {
        !matches!(self, Task::Regression)
    }

    /// The task's name on the wire and in durable state (HTTP dataset
    /// payloads, stream headers, chunk files): `"binary"`,
    /// `"regression"` or `"multiclass:<k>"`.
    pub fn wire_name(self) -> String {
        match self {
            Task::Binary => "binary".to_string(),
            Task::Regression => "regression".to_string(),
            Task::MultiClass(k) => format!("multiclass:{k}"),
        }
    }

    /// Parses a name as printed by [`Task::wire_name`]. The name comes
    /// from outside the process, so the class count is bounded here:
    /// below 2 is not a classification problem, and nothing downstream
    /// may size a buffer by a count above 65 535.
    ///
    /// # Errors
    ///
    /// A message naming the offending string and the accepted forms.
    pub fn parse_wire(name: &str) -> Result<Task, String> {
        match name {
            "binary" => Ok(Task::Binary),
            "regression" => Ok(Task::Regression),
            other => other
                .strip_prefix("multiclass:")
                .and_then(|k| k.parse().ok())
                .filter(|k| (2..=MAX_WIRE_CLASSES).contains(k))
                .map(Task::MultiClass)
                .ok_or_else(|| {
                    format!(
                        "unknown task {other:?}; expected binary, regression, or \
                         multiclass:<k> with k in 2..={MAX_WIRE_CLASSES}"
                    )
                }),
        }
    }
}

/// Largest class count [`Task::parse_wire`] accepts.
const MAX_WIRE_CLASSES: usize = 65_535;

/// The one wire form of a [`Dataset`]: HTTP `/fit` and `/stream`
/// bodies, request sidecars and stream chunk files. Bytes become a
/// dataset only through [`DatasetPayload::into_dataset`], which runs
/// every [`Dataset::with_kinds`] check.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetPayload {
    /// Dataset name (informational; excluded from fingerprints).
    pub name: String,
    /// Task name as printed by [`Task::wire_name`].
    pub task: String,
    /// Feature columns, column-major.
    pub columns: Vec<Vec<f64>>,
    /// Cardinality per column: 0 = numeric, k > 0 = categorical with k
    /// categories. Absent or empty: every column is numeric.
    #[serde(default)]
    pub cardinalities: Vec<usize>,
    /// Target values, one per row.
    pub target: Vec<f64>,
}

impl DatasetPayload {
    /// The payload of `data`, every column's kind included. The round
    /// trip through [`DatasetPayload::into_dataset`] is bit-exact: the
    /// rebuilt dataset's [`Dataset::fingerprint`] equals the original's.
    pub fn from_dataset(data: &Dataset) -> DatasetPayload {
        DatasetPayload {
            name: data.name().to_string(),
            task: data.task().wire_name(),
            columns: data.columns().to_vec(),
            cardinalities: data
                .feature_kinds()
                .iter()
                .map(|kind| match kind {
                    FeatureKind::Numeric => 0,
                    FeatureKind::Categorical { cardinality } => *cardinality,
                })
                .collect(),
            target: data.target().to_vec(),
        }
    }

    /// Builds the dataset through [`Dataset::with_kinds`], moving the
    /// columns and target instead of copying them.
    ///
    /// # Errors
    ///
    /// A message for an unknown task string, or for data
    /// [`Dataset::with_kinds`] refuses (ragged columns, bad labels, bad
    /// category values, a cardinality list of another length than the
    /// columns, …).
    pub fn into_dataset(self) -> Result<Dataset, String> {
        let task = Task::parse_wire(&self.task)?;
        let kinds = if self.cardinalities.is_empty() {
            vec![FeatureKind::Numeric; self.columns.len()]
        } else {
            self.cardinalities
                .iter()
                .map(|&cardinality| match cardinality {
                    0 => FeatureKind::Numeric,
                    cardinality => FeatureKind::Categorical { cardinality },
                })
                .collect()
        };
        Dataset::with_kinds(self.name, task, self.columns, kinds, self.target)
            .map_err(|e| format!("invalid dataset: {e:?}"))
    }
}

/// The shared, immutable storage behind a [`Dataset`] and every
/// [`DatasetView`] derived from it. Never exposed mutably once wrapped in
/// an `Arc`; row subsets are expressed as index views over this storage.
#[derive(Debug, Clone)]
pub(crate) struct DatasetCore {
    pub(crate) name: String,
    pub(crate) task: Task,
    pub(crate) columns: Vec<Vec<f64>>,
    pub(crate) kinds: Vec<FeatureKind>,
    pub(crate) target: Vec<f64>,
}

/// A column-major, in-memory tabular dataset.
///
/// Feature values are `f64`; missing values are `NaN`. Labels for
/// classification tasks are class indices stored as `f64`. The column-major
/// layout favours the histogram construction done by the tree learners.
///
/// Storage is shared behind an `Arc`: cloning a dataset, or deriving
/// [`DatasetView`]s from it via [`Dataset::view`] /
/// [`Dataset::shuffled_view`], never copies the column data. `Dataset` is
/// a thin constructor for the root view; the row-subset operations
/// ([`Dataset::select`], [`Dataset::prefix`]) still return owned copies
/// for compatibility, while the view equivalents are O(rows).
#[derive(Debug, Clone)]
pub struct Dataset {
    pub(crate) core: Arc<DatasetCore>,
}

impl Dataset {
    /// Creates a dataset with all columns marked [`FeatureKind::Numeric`].
    ///
    /// # Errors
    ///
    /// Returns [`DataError`] if the columns are ragged, empty, or the labels
    /// are not valid class indices for a classification `task`.
    pub fn new(
        name: impl Into<String>,
        task: Task,
        columns: Vec<Vec<f64>>,
        target: Vec<f64>,
    ) -> Result<Self, DataError> {
        let kinds = vec![FeatureKind::Numeric; columns.len()];
        Self::with_kinds(name, task, columns, kinds, target)
    }

    /// Creates a dataset with explicit per-column feature kinds.
    ///
    /// # Errors
    ///
    /// Returns [`DataError`] if the columns are ragged, empty, the kinds
    /// vector has the wrong length, a categorical column holds a value
    /// that is neither `NaN` nor an integer in `0..cardinality`, or the
    /// labels are invalid for `task`.
    pub fn with_kinds(
        name: impl Into<String>,
        task: Task,
        columns: Vec<Vec<f64>>,
        kinds: Vec<FeatureKind>,
        target: Vec<f64>,
    ) -> Result<Self, DataError> {
        if columns.is_empty() {
            return Err(DataError::NoFeatures);
        }
        if target.is_empty() {
            return Err(DataError::Empty);
        }
        if kinds.len() != columns.len() {
            return Err(DataError::KindMismatch {
                columns: columns.len(),
                kinds: kinds.len(),
            });
        }
        for (j, col) in columns.iter().enumerate() {
            if col.len() != target.len() {
                return Err(DataError::RaggedColumns {
                    expected: target.len(),
                    column: j,
                    actual: col.len(),
                });
            }
        }
        for (column, (col, kind)) in columns.iter().zip(&kinds).enumerate() {
            if let FeatureKind::Categorical { cardinality } = *kind {
                let valid =
                    |v: f64| v.is_nan() || (v.fract() == 0.0 && v >= 0.0 && v < cardinality as f64);
                if let Some(row) = col.iter().position(|&v| !valid(v)) {
                    return Err(DataError::BadCategory {
                        row,
                        column,
                        value: col[row],
                        cardinality,
                    });
                }
            }
        }
        if let Some(k) = task.n_classes() {
            for (i, &y) in target.iter().enumerate() {
                if !(y.fract() == 0.0 && y >= 0.0 && (y as usize) < k) {
                    return Err(DataError::BadLabel {
                        row: i,
                        value: y,
                        n_classes: k,
                    });
                }
            }
        }
        Ok(Dataset {
            core: Arc::new(DatasetCore {
                name: name.into(),
                task,
                columns,
                kinds,
                target,
            }),
        })
    }

    /// Dataset name (used in experiment reports).
    pub fn name(&self) -> &str {
        &self.core.name
    }

    /// The prediction task.
    pub fn task(&self) -> Task {
        self.core.task
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.core.target.len()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.core.columns.len()
    }

    /// The values of feature column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.n_features()`.
    pub fn column(&self, j: usize) -> &[f64] {
        &self.core.columns[j]
    }

    /// All feature columns.
    pub fn columns(&self) -> &[Vec<f64>] {
        &self.core.columns
    }

    /// The kind of feature column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.n_features()`.
    pub fn feature_kind(&self, j: usize) -> FeatureKind {
        self.core.kinds[j]
    }

    /// All feature kinds.
    pub fn feature_kinds(&self) -> &[FeatureKind] {
        &self.core.kinds
    }

    /// The target vector.
    pub fn target(&self) -> &[f64] {
        &self.core.target
    }

    /// The value of feature `j` at row `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn value(&self, i: usize, j: usize) -> f64 {
        self.core.columns[j][i]
    }

    /// Renames the dataset (builder-style), returning it.
    pub fn renamed(mut self, name: impl Into<String>) -> Self {
        Arc::make_mut(&mut self.core).name = name.into();
        self
    }

    /// The zero-copy root view over all rows of this dataset. O(1): the
    /// view shares this dataset's column storage.
    pub fn view(&self) -> DatasetView {
        DatasetView::root(Arc::clone(&self.core))
    }

    /// The empirical class distribution, `None` for regression.
    pub fn class_priors(&self) -> Option<Vec<f64>> {
        let k = self.core.task.n_classes()?;
        let mut counts = vec![0usize; k];
        for &y in &self.core.target {
            counts[y as usize] += 1;
        }
        let n = self.n_rows() as f64;
        Some(counts.into_iter().map(|c| c as f64 / n).collect())
    }

    /// A new dataset with rows reordered as `order` (must be a permutation
    /// or a subset of row indices; duplicates are allowed, enabling
    /// bootstrap resamples).
    ///
    /// This copies the selected rows; [`DatasetView::select`] is the
    /// zero-copy equivalent.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or `order` is empty.
    pub fn select(&self, order: &[usize]) -> Dataset {
        assert!(!order.is_empty(), "cannot select zero rows");
        let columns = self
            .core
            .columns
            .iter()
            .map(|col| order.iter().map(|&i| col[i]).collect())
            .collect();
        let target = order.iter().map(|&i| self.core.target[i]).collect();
        Dataset {
            core: Arc::new(DatasetCore {
                name: self.core.name.clone(),
                task: self.core.task,
                columns,
                kinds: self.core.kinds.clone(),
                target,
            }),
        }
    }

    /// The first `s` rows (the paper's prefix subsample of shuffled data).
    ///
    /// `s` is clamped to `1..=n_rows`. This copies the prefix;
    /// [`DatasetView::prefix`] is the zero-copy equivalent.
    pub fn prefix(&self, s: usize) -> Dataset {
        let s = s.clamp(1, self.n_rows());
        let columns = self
            .core
            .columns
            .iter()
            .map(|col| col[..s].to_vec())
            .collect();
        Dataset {
            core: Arc::new(DatasetCore {
                name: self.core.name.clone(),
                task: self.core.task,
                columns,
                kinds: self.core.kinds.clone(),
                target: self.core.target[..s].to_vec(),
            }),
        }
    }

    /// A shuffled copy of the dataset.
    ///
    /// For classification tasks the shuffle is *stratified*: within each
    /// class the rows are shuffled, then classes are interleaved so that
    /// every prefix of the result preserves the class ratio (the paper
    /// shuffles stratified by label so prefix samples are unbiased).
    pub fn shuffled(&self, seed: u64) -> Dataset {
        let order = self.shuffle_order(seed);
        self.select(&order)
    }

    /// A zero-copy shuffled view: the same row order as
    /// [`Dataset::shuffled`] expressed as an index view over this
    /// dataset's storage, built in O(rows) instead of O(rows × features).
    pub fn shuffled_view(&self, seed: u64) -> DatasetView {
        let order = self.shuffle_order(seed);
        self.view().select(&order)
    }

    /// The row order that [`Dataset::shuffled`] applies.
    pub fn shuffle_order(&self, seed: u64) -> Vec<usize> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = self.n_rows();
        match self.core.task.n_classes() {
            None => {
                let mut order: Vec<usize> = (0..n).collect();
                order.shuffle(&mut rng);
                order
            }
            Some(k) => {
                // Shuffle within classes, then emit rows by repeatedly
                // drawing from the class whose emitted share lags its prior
                // the most: every prefix stays close to stratified.
                let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); k];
                for (i, &y) in self.core.target.iter().enumerate() {
                    by_class[y as usize].push(i);
                }
                for rows in &mut by_class {
                    rows.shuffle(&mut rng);
                }
                let totals: Vec<usize> = by_class.iter().map(Vec::len).collect();
                let mut emitted = vec![0usize; k];
                let mut order = Vec::with_capacity(n);
                for step in 1..=n {
                    // Pick the class with the largest deficit between its
                    // fair share at this step and what it has emitted.
                    let mut best = None;
                    let mut best_deficit = f64::NEG_INFINITY;
                    for c in 0..k {
                        if emitted[c] >= totals[c] {
                            continue;
                        }
                        let fair = totals[c] as f64 * step as f64 / n as f64;
                        let deficit = fair - emitted[c] as f64;
                        if deficit > best_deficit {
                            best_deficit = deficit;
                            best = Some(c);
                        }
                    }
                    let c = best.expect("some class must have rows left");
                    order.push(by_class[c][emitted[c]]);
                    emitted[c] += 1;
                }
                order
            }
        }
    }

    /// A content fingerprint: FNV-1a over the task, shape, and the raw
    /// bits of every feature and target value. Two datasets fingerprint
    /// equal iff they hold bit-identical data for the same task — the
    /// check a trial journal uses to refuse resuming against different
    /// data. The name is deliberately excluded (renames are harmless).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        let mut eat = |word: u64| h = h.update(&word.to_le_bytes());
        eat(match self.core.task {
            Task::Binary => 1,
            Task::MultiClass(k) => 2 | ((k as u64) << 8),
            Task::Regression => 3,
        });
        eat(self.n_rows() as u64);
        eat(self.n_features() as u64);
        for (col, kind) in self.core.columns.iter().zip(&self.core.kinds) {
            eat(match kind {
                FeatureKind::Numeric => 0,
                FeatureKind::Categorical { cardinality } => 1 | ((*cardinality as u64) << 8),
            });
            for &v in col {
                eat(v.to_bits());
            }
        }
        for &y in &self.core.target {
            eat(y.to_bits());
        }
        h.finish()
    }

    /// Number of distinct label values present (for classification; the
    /// count of classes that actually occur, which can be smaller than
    /// the task's nominal class count). `None` for regression. Memory
    /// is O(rows) whatever the nominal class count.
    pub fn distinct_labels(&self) -> Option<usize> {
        self.core.task.n_classes()?;
        let mut labels: Vec<u64> = self.core.target.iter().map(|&y| y as u64).collect();
        labels.sort_unstable();
        labels.dedup();
        Some(labels.len())
    }

    /// Indices of feature columns that carry no signal: columns whose
    /// non-NaN values are all equal (constant) or that contain no non-NaN
    /// value at all. Such columns cannot inform any split or coefficient,
    /// and an all-NaN column can push imputation-free learners into
    /// producing NaN losses.
    pub fn degenerate_columns(&self) -> Vec<usize> {
        self.core
            .columns
            .iter()
            .enumerate()
            .filter(|(_, col)| {
                let mut first = None;
                for &v in col.iter() {
                    if v.is_nan() {
                        continue;
                    }
                    match first {
                        None => first = Some(v),
                        Some(f) if v != f => return false,
                        Some(_) => {}
                    }
                }
                true
            })
            .map(|(j, _)| j)
            .collect()
    }

    /// A copy of the dataset without the feature columns in `drop`
    /// (indices into `0..n_features`, duplicates and any order allowed).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::NoFeatures`] if every column would be
    /// dropped, so a sanitization pass can never produce a featureless
    /// dataset.
    pub fn drop_columns(&self, drop: &[usize]) -> Result<Dataset, DataError> {
        let dropped: std::collections::BTreeSet<usize> = drop.iter().copied().collect();
        let keep: Vec<usize> = (0..self.n_features())
            .filter(|j| !dropped.contains(j))
            .collect();
        if keep.is_empty() {
            return Err(DataError::NoFeatures);
        }
        Ok(Dataset {
            core: Arc::new(DatasetCore {
                name: self.core.name.clone(),
                task: self.core.task,
                columns: keep.iter().map(|&j| self.core.columns[j].clone()).collect(),
                kinds: keep.iter().map(|&j| self.core.kinds[j]).collect(),
                target: self.core.target.clone(),
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize, task: Task) -> Dataset {
        let col0: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let col1: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let target: Vec<f64> = match task {
            Task::Regression => (0..n).map(|i| i as f64 * 0.5).collect(),
            Task::Binary => (0..n).map(|i| (i % 2) as f64).collect(),
            Task::MultiClass(k) => (0..n).map(|i| (i % k) as f64).collect(),
        };
        Dataset::new("toy", task, vec![col0, col1], target).unwrap()
    }

    #[test]
    fn new_validates_ragged() {
        let err = Dataset::new(
            "bad",
            Task::Regression,
            vec![vec![1.0, 2.0], vec![1.0]],
            vec![0.0, 1.0],
        )
        .unwrap_err();
        assert!(matches!(err, DataError::RaggedColumns { column: 1, .. }));
    }

    #[test]
    fn new_validates_labels() {
        let err =
            Dataset::new("bad", Task::Binary, vec![vec![1.0, 2.0]], vec![0.0, 2.0]).unwrap_err();
        assert!(matches!(err, DataError::BadLabel { row: 1, .. }));
    }

    #[test]
    fn new_rejects_empty() {
        assert_eq!(
            Dataset::new("e", Task::Regression, vec![], vec![1.0]).unwrap_err(),
            DataError::NoFeatures
        );
        assert_eq!(
            Dataset::new("e", Task::Regression, vec![vec![]], vec![]).unwrap_err(),
            DataError::Empty
        );
    }

    #[test]
    fn kinds_length_checked() {
        let err = Dataset::with_kinds(
            "bad",
            Task::Regression,
            vec![vec![1.0]],
            vec![FeatureKind::Numeric, FeatureKind::Numeric],
            vec![1.0],
        )
        .unwrap_err();
        assert!(matches!(err, DataError::KindMismatch { .. }));
    }

    #[test]
    fn categorical_values_must_be_missing_or_a_category_index() {
        let build = |values: Vec<f64>| {
            Dataset::with_kinds(
                "cat",
                Task::Regression,
                vec![vec![0.5, 1.5, 2.5], values],
                vec![
                    FeatureKind::Numeric,
                    FeatureKind::Categorical { cardinality: 3 },
                ],
                vec![0.0, 1.0, 2.0],
            )
        };
        assert!(build(vec![0.0, f64::NAN, 2.0]).is_ok());
        for (bad, row) in [
            (vec![0.0, -1.0, 2.0], 1),
            (vec![2.5, 1.0, 2.0], 0),
            (vec![0.0, 1.0, 3.0], 2),
            (vec![f64::INFINITY, 1.0, 2.0], 0),
        ] {
            let value = bad[row];
            assert_eq!(
                build(bad).unwrap_err(),
                DataError::BadCategory {
                    row,
                    column: 1,
                    value,
                    cardinality: 3
                }
            );
        }
    }

    #[test]
    fn payload_keeps_kinds_and_counts_them() {
        let d = Dataset::with_kinds(
            "mixed",
            Task::Binary,
            vec![vec![0.5, 1.5, 2.5], vec![0.0, 2.0, 1.0]],
            vec![
                FeatureKind::Numeric,
                FeatureKind::Categorical { cardinality: 3 },
            ],
            vec![0.0, 1.0, 1.0],
        )
        .unwrap();
        let mut payload = DatasetPayload::from_dataset(&d);
        assert_eq!(payload.cardinalities, [0, 3]);
        let back = payload.clone().into_dataset().unwrap();
        assert_eq!(back.fingerprint(), d.fingerprint());
        assert_eq!(back.feature_kinds(), d.feature_kinds());

        payload.cardinalities.clear();
        let numeric = payload.clone().into_dataset().unwrap();
        assert_eq!(numeric.feature_kinds(), [FeatureKind::Numeric; 2]);

        payload.cardinalities = vec![0, 3, 0];
        let err = payload.into_dataset().unwrap_err();
        assert!(err.contains("KindMismatch"), "{err}");
    }

    #[test]
    fn select_reorders_rows() {
        let d = toy(4, Task::Regression);
        let s = d.select(&[3, 1]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.value(0, 0), 3.0);
        assert_eq!(s.value(1, 0), 1.0);
        assert_eq!(s.target(), &[1.5, 0.5]);
    }

    #[test]
    fn select_allows_duplicates_for_bootstrap() {
        let d = toy(3, Task::Regression);
        let s = d.select(&[0, 0, 2]);
        assert_eq!(s.column(0), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn prefix_clamps() {
        let d = toy(10, Task::Regression);
        assert_eq!(d.prefix(3).n_rows(), 3);
        assert_eq!(d.prefix(0).n_rows(), 1);
        assert_eq!(d.prefix(99).n_rows(), 10);
    }

    #[test]
    fn clone_shares_storage() {
        let d = toy(10, Task::Regression);
        let c = d.clone();
        assert!(std::ptr::eq(d.column(0).as_ptr(), c.column(0).as_ptr()));
    }

    #[test]
    fn renamed_does_not_disturb_other_handles() {
        let d = toy(5, Task::Regression);
        let original = d.clone();
        let renamed = d.renamed("other");
        assert_eq!(original.name(), "toy");
        assert_eq!(renamed.name(), "other");
        assert_eq!(original.column(0), renamed.column(0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let d = toy(100, Task::Regression);
        let mut order = d.shuffle_order(7);
        order.sort_unstable();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_is_deterministic_per_seed() {
        let d = toy(50, Task::Binary);
        assert_eq!(d.shuffle_order(1), d.shuffle_order(1));
        assert_ne!(d.shuffle_order(1), d.shuffle_order(2));
    }

    #[test]
    fn stratified_shuffle_balances_prefixes() {
        // 90/10 imbalanced binary labels: every prefix of the shuffle should
        // contain the minority class at roughly its prior.
        let n = 1000;
        let col: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let target: Vec<f64> = (0..n).map(|i| if i < 100 { 1.0 } else { 0.0 }).collect();
        let d = Dataset::new("imb", Task::Binary, vec![col], target).unwrap();
        let s = d.shuffled(3);
        for &prefix in &[50usize, 100, 200, 500] {
            let p = s.prefix(prefix);
            let minority = p.target().iter().filter(|&&y| y == 1.0).count() as f64;
            let ratio = minority / prefix as f64;
            assert!(
                (ratio - 0.1).abs() < 0.03,
                "prefix {prefix} minority ratio {ratio}"
            );
        }
    }

    #[test]
    fn class_priors_sum_to_one() {
        let d = toy(9, Task::MultiClass(3));
        let p = d.class_priors().unwrap();
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regression_has_no_priors() {
        assert!(toy(5, Task::Regression).class_priors().is_none());
    }

    #[test]
    fn distinct_labels_counts_present_classes() {
        let d = Dataset::new(
            "one-class",
            Task::Binary,
            vec![vec![1.0, 2.0, 3.0]],
            vec![1.0, 1.0, 1.0],
        )
        .unwrap();
        assert_eq!(d.distinct_labels(), Some(1));
        assert_eq!(toy(10, Task::Binary).distinct_labels(), Some(2));
        assert_eq!(toy(10, Task::Regression).distinct_labels(), None);
        // A nominal class count far beyond memory costs nothing: the
        // count is over the labels present, not over `0..k`.
        let huge = Dataset::new(
            "huge-k",
            Task::MultiClass(1 << 44),
            vec![vec![1.0, 2.0, 3.0]],
            vec![0.0, 7.0, 7.0],
        )
        .unwrap();
        assert_eq!(huge.distinct_labels(), Some(2));
    }

    /// Journals, chunk files and stream events record this value, so it
    /// is on-disk format. Expected values captured at 647bf4f (before
    /// the hash moved to `flaml_store::Fnv1a`) by printing
    /// `fingerprint()` of exactly these datasets.
    #[test]
    fn fingerprint_values_are_unchanged() {
        for (task, golden) in [
            (Task::MultiClass(3), 0x7c54_5658_351a_801e_u64),
            (Task::Binary, 0x2a90_fd1e_329c_2530),
            (Task::Regression, 0x9d52_0782_7fb9_934a),
        ] {
            let d = Dataset::with_kinds(
                "golden",
                task,
                vec![vec![0.5, -0.0, f64::NAN], vec![0.0, 1.0, 2.0]],
                vec![
                    FeatureKind::Numeric,
                    FeatureKind::Categorical { cardinality: 3 },
                ],
                vec![0.0, 1.0, 1.0],
            )
            .unwrap();
            assert_eq!(d.fingerprint(), golden, "{task:?}");
        }
    }

    #[test]
    fn wire_names_round_trip_and_bound_the_class_count() {
        for t in [
            Task::Binary,
            Task::Regression,
            Task::MultiClass(2),
            Task::MultiClass(65_535),
        ] {
            assert_eq!(Task::parse_wire(&t.wire_name()), Ok(t));
        }
        for bad in [
            "nope",
            "multiclass",
            "multiclass:",
            "multiclass:0",
            "multiclass:1",
            "multiclass:65536",
            "multiclass:17592186044416",
            "multiclass:99999999999999999999999",
            "multiclass:-3",
            "multiclass:3 ",
            "Binary",
        ] {
            let err = Task::parse_wire(bad).expect_err(bad);
            assert!(err.contains("2..=65535"), "{bad}: {err}");
        }
    }

    #[test]
    fn degenerate_columns_finds_constant_and_all_nan() {
        let d = Dataset::new(
            "deg",
            Task::Regression,
            vec![
                vec![1.0, 2.0, 3.0],                // informative
                vec![5.0, 5.0, 5.0],                // constant
                vec![f64::NAN, f64::NAN, f64::NAN], // all missing
                vec![7.0, f64::NAN, 7.0],           // constant modulo NaN
            ],
            vec![0.0, 1.0, 2.0],
        )
        .unwrap();
        assert_eq!(d.degenerate_columns(), vec![1, 2, 3]);
    }

    #[test]
    fn drop_columns_keeps_the_rest_aligned() {
        let d = toy(5, Task::Binary);
        let kept = d.drop_columns(&[0]).unwrap();
        assert_eq!(kept.n_features(), 1);
        assert_eq!(kept.column(0), d.column(1));
        assert_eq!(kept.target(), d.target());
    }

    #[test]
    fn drop_all_columns_is_an_error() {
        let d = toy(5, Task::Binary);
        assert_eq!(d.drop_columns(&[0, 1]).unwrap_err(), DataError::NoFeatures);
    }
}
