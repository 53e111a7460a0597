//! Zero-copy row views over shared dataset storage.
//!
//! A [`DatasetView`] is the unit of data the search loop hands to
//! learners: an `Arc` to the immutable column storage of a root
//! [`Dataset`] plus a row selection. Deriving a subsample
//! ([`DatasetView::prefix`]), a fold ([`DatasetView::select`]) or a
//! shuffle ([`Dataset::shuffled_view`]) costs O(rows) for the index
//! vector — never O(rows × features) for copied columns — and cloning a
//! view (e.g. to move it into a worker job) is O(1).
//!
//! A view iterates rows in selection order, so every value sequence a
//! learner observes through a view is identical to what it would observe
//! on the materialized copy [`DatasetView::materialize`] produces; the
//! two fit paths are bit-identical.

use crate::dataset::DatasetCore;
use crate::{Dataset, FeatureKind, Task};
use std::sync::Arc;

/// Which rows of the root storage a view exposes, in order.
#[derive(Debug, Clone)]
enum RowSel {
    /// The first `s` rows of the root storage, in storage order. Lets
    /// hot paths borrow contiguous column slices directly.
    Prefix(usize),
    /// Arbitrary root-row indices, in view order (duplicates allowed,
    /// enabling bootstrap resamples).
    Indices(Arc<[u32]>),
}

/// A zero-copy, clonable view of a [`Dataset`]: shared column storage
/// plus a row selection.
#[derive(Debug, Clone)]
pub struct DatasetView {
    core: Arc<DatasetCore>,
    rows: RowSel,
}

impl DatasetView {
    pub(crate) fn root(core: Arc<DatasetCore>) -> DatasetView {
        let n = core.target.len();
        DatasetView {
            core,
            rows: RowSel::Prefix(n),
        }
    }

    /// Number of rows the view exposes.
    pub fn n_rows(&self) -> usize {
        match &self.rows {
            RowSel::Prefix(s) => *s,
            RowSel::Indices(ix) => ix.len(),
        }
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.core.columns.len()
    }

    /// The prediction task.
    pub fn task(&self) -> Task {
        self.core.task
    }

    /// The root dataset's name.
    pub fn name(&self) -> &str {
        &self.core.name
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

    /// The value of feature `j` at view row `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn value(&self, i: usize, j: usize) -> f64 {
        self.core.columns[j][self.root_row(i)]
    }

    /// The target value at view row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n_rows()`.
    pub fn target_at(&self, i: usize) -> f64 {
        self.core.target[self.root_row(i)]
    }

    /// Maps a view row index to its root storage row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n_rows()`.
    fn root_row(&self, i: usize) -> usize {
        match &self.rows {
            RowSel::Prefix(s) => {
                assert!(i < *s, "row {i} out of bounds for a {s}-row view");
                i
            }
            RowSel::Indices(ix) => ix[i] as usize,
        }
    }

    /// The target values of the view's rows, gathered in view order.
    pub fn gather_target(&self) -> Vec<f64> {
        match &self.rows {
            RowSel::Prefix(s) => self.core.target[..*s].to_vec(),
            RowSel::Indices(ix) => ix.iter().map(|&i| self.core.target[i as usize]).collect(),
        }
    }

    /// Iterates the values of feature column `j` in view row order.
    pub fn column_values(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        let col = &self.core.columns[j];
        (0..self.n_rows()).map(move |i| col[self.root_row_unchecked(i)])
    }

    fn root_row_unchecked(&self, i: usize) -> usize {
        match &self.rows {
            RowSel::Prefix(_) => i,
            RowSel::Indices(ix) => ix[i] as usize,
        }
    }

    /// The first `s` rows of the view (clamped to `1..=n_rows`), as a new
    /// view. O(1) for prefix views, O(s) for index views.
    pub fn prefix(&self, s: usize) -> DatasetView {
        let s = s.clamp(1, self.n_rows());
        let rows = match &self.rows {
            RowSel::Prefix(_) => RowSel::Prefix(s),
            RowSel::Indices(ix) => RowSel::Indices(ix[..s].to_vec().into()),
        };
        DatasetView {
            core: Arc::clone(&self.core),
            rows,
        }
    }

    /// A new view of the given *view-local* rows, in order (duplicates
    /// allowed). O(rows): only the composed index vector is built.
    ///
    /// # Panics
    ///
    /// Panics if `order` is empty or any index is out of bounds.
    pub fn select(&self, order: &[usize]) -> DatasetView {
        assert!(!order.is_empty(), "cannot select zero rows");
        let indices: Vec<u32> = order
            .iter()
            .map(|&i| {
                let root = self.root_row(i);
                u32::try_from(root).expect("datasets are limited to u32::MAX rows")
            })
            .collect();
        DatasetView {
            core: Arc::clone(&self.core),
            rows: RowSel::Indices(indices.into()),
        }
    }

    /// Copies the view into an owned [`Dataset`] — exactly the dataset
    /// the copy-based `Dataset::select`/`Dataset::prefix` path would have
    /// produced for the same rows.
    pub fn materialize(&self) -> Dataset {
        let columns = (0..self.n_features())
            .map(|j| self.column_values(j).collect())
            .collect();
        let target = self.gather_target();
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

    /// Approximate heap footprint of the view's own row selection in
    /// bytes (the shared column storage is not counted).
    pub fn selection_bytes(&self) -> usize {
        match &self.rows {
            RowSel::Prefix(_) => 0,
            RowSel::Indices(ix) => ix.len() * std::mem::size_of::<u32>(),
        }
    }

    /// Bytes a copy-based materialization of this view would allocate
    /// (features + target as `f64`) — what the zero-copy path saves.
    pub fn materialized_bytes(&self) -> usize {
        self.n_rows() * (self.n_features() + 1) * std::mem::size_of::<f64>()
    }

    /// Whether two views share the same root storage.
    pub fn same_root(&self, other: &DatasetView) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }
}

impl From<&Dataset> for DatasetView {
    fn from(d: &Dataset) -> DatasetView {
        d.view()
    }
}

impl From<Dataset> for DatasetView {
    fn from(d: Dataset) -> DatasetView {
        d.view()
    }
}

impl From<&DatasetView> for DatasetView {
    fn from(v: &DatasetView) -> DatasetView {
        v.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let col0: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let col1: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        Dataset::new("toy", Task::Binary, vec![col0, col1], y).unwrap()
    }

    #[test]
    fn root_view_matches_dataset() {
        let d = toy(10);
        let v = d.view();
        assert_eq!(v.n_rows(), 10);
        assert_eq!(v.n_features(), 2);
        for i in 0..10 {
            assert_eq!(v.value(i, 0), d.value(i, 0));
            assert_eq!(v.target_at(i), d.target()[i]);
        }
    }

    #[test]
    fn view_shares_storage_with_dataset() {
        let d = toy(10);
        let v = d.view();
        assert!(v.same_root(&d.view()));
        assert_eq!(v.selection_bytes(), 0);
    }

    #[test]
    fn prefix_view_matches_prefix_copy() {
        let d = toy(20);
        let v = d.view().prefix(7);
        let copy = d.prefix(7);
        assert_eq!(v.n_rows(), copy.n_rows());
        assert_eq!(v.gather_target(), copy.target());
        assert_eq!(
            v.column_values(1).collect::<Vec<_>>(),
            copy.column(1).to_vec()
        );
    }

    #[test]
    fn select_view_matches_select_copy() {
        let d = toy(10);
        let order = [9, 0, 0, 4];
        let v = d.view().select(&order);
        let copy = d.select(&order);
        assert_eq!(v.materialize().fingerprint(), copy.fingerprint());
    }

    #[test]
    fn nested_selection_composes() {
        let d = toy(12);
        // View-local selection on top of a prefix: row i of the prefix is
        // root row i.
        let v = d.view().prefix(6).select(&[5, 1]);
        assert_eq!(v.value(0, 0), 5.0);
        assert_eq!(v.value(1, 0), 1.0);
        // And on top of an index view, selection is view-local again.
        let w = v.select(&[1]);
        assert_eq!(w.value(0, 0), 1.0);
        assert_eq!(w.n_rows(), 1);
    }

    #[test]
    fn shuffled_view_matches_shuffled_copy() {
        let d = toy(50);
        let v = d.shuffled_view(3);
        let copy = d.shuffled(3);
        assert_eq!(v.materialize().fingerprint(), copy.fingerprint());
        assert!(v.same_root(&d.view()));
    }

    #[test]
    fn prefix_of_index_view_truncates_in_view_order() {
        let d = toy(10);
        let v = d.view().select(&[8, 6, 4, 2]).prefix(2);
        assert_eq!(v.n_rows(), 2);
        assert_eq!(v.value(0, 0), 8.0);
        assert_eq!(v.value(1, 0), 6.0);
    }

    #[test]
    fn materialized_bytes_counts_columns_and_target() {
        let d = toy(10);
        let v = d.view().prefix(4);
        assert_eq!(v.materialized_bytes(), 4 * 3 * 8);
    }

    #[test]
    #[should_panic(expected = "cannot select zero rows")]
    fn empty_selection_panics() {
        let d = toy(4);
        let _ = d.view().select(&[]);
    }
}
