//! Borrowed slab views and the one evaluator over them.
//!
//! [`CompiledModel`] owns its structure-of-arrays slabs as `Vec`s; the
//! binary blob format (`flaml-blob`) reads the same slabs in place out
//! of the blob's bytes. Both render themselves as a [`ModelView`] — a tree of borrowed
//! slices — and every prediction in the stack runs through the single
//! evaluator defined here. That is what makes the "bit-identical across
//! backings" contract structural rather than aspirational: there is
//! exactly one accumulation order, owned models and blobs merely feed
//! it different pointers.
//!
//! Two tiny enums absorb the representational differences a blob
//! backing needs:
//!
//! * [`LeafFlags`] — `Vec<bool>` in owned models, a raw `u8` slab on
//!   disk (reinterpreting blob bytes as `bool` would be UB).
//! * [`FloatSlab`] — `f64` thresholds/cuts, or the optional
//!   f32-quantized section of a blob. Quantized slabs are only ever
//!   written when every value round-trips `f64 → f32 → f64` exactly, so
//!   the widening read here reproduces the original bits by
//!   construction.
//!
//! The evaluator does not walk the slabs themselves: it walks the
//! [`Tables`] built from them once per served model — every tree node
//! packed into one entry, leaves pointing at themselves — taking
//! [`LANES`] rows through each tree together for exactly the tree's
//! depth in steps.

use crate::artifact::{
    CompiledForest, CompiledGbdt, CompiledLinear, CompiledModel, CompiledStacked,
};
use crate::error::ArtifactError;
use flaml_data::{DatasetView, Task};
use flaml_learners::link::{sigmoid, softmax_in_place};
use flaml_learners::{goes_left, BinMapper, LinearModel};
use flaml_metrics::Pred;
use std::borrow::Cow;
use std::hint::select_unpredictable;

/// Rows walked through a tree together: their dependent node loads
/// overlap instead of queueing behind one another.
const LANES: usize = 8;

/// Per-node leaf flags over either backing.
#[derive(Debug, Clone, Copy)]
pub enum LeafFlags<'a> {
    /// Owned models store `Vec<bool>`.
    Bools(&'a [bool]),
    /// Mapped slabs store one byte per node (nonzero = leaf).
    Bytes(&'a [u8]),
}

impl LeafFlags<'_> {
    /// Whether node `i` is a leaf.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        match self {
            LeafFlags::Bools(b) => b[i],
            LeafFlags::Bytes(b) => b[i] != 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            LeafFlags::Bools(b) => b.len(),
            LeafFlags::Bytes(b) => b.len(),
        }
    }
}

/// A float slab over either precision. Reads widen `f32 → f64`, which
/// is exact for every value a quantized section is allowed to hold.
#[derive(Debug, Clone, Copy)]
pub enum FloatSlab<'a> {
    /// Full-precision values.
    F64(&'a [f64]),
    /// Quantized values (each round-trips to its original `f64` bits).
    F32(&'a [f32]),
}

impl FloatSlab<'_> {
    /// Value `i`, widened to `f64`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        match self {
            FloatSlab::F64(v) => v[i],
            FloatSlab::F32(v) => f64::from(v[i]),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            FloatSlab::F64(v) => v.len(),
            FloatSlab::F32(v) => v.len(),
        }
    }

    /// The whole slab as owned `f64`s.
    pub fn to_vec(&self) -> Vec<f64> {
        match self {
            FloatSlab::F64(v) => v.to_vec(),
            FloatSlab::F32(v) => v.iter().map(|&x| f64::from(x)).collect(),
        }
    }
}

/// Per-feature bin cut points over either layout: nested `Vec`s (owned
/// models) or a flat value slab with prefix-sum offsets (blobs).
#[derive(Debug, Clone, Copy)]
pub enum CutsRef<'a> {
    /// Owned ragged cuts.
    Nested(&'a [Vec<f64>]),
    /// Flat cuts: feature `j` owns `values[offsets[j]..offsets[j + 1]]`.
    Flat {
        /// `n_features + 1` nondecreasing prefix offsets.
        offsets: &'a [u64],
        /// All cut points, feature-major.
        values: FloatSlab<'a>,
    },
}

impl CutsRef<'_> {
    /// Feature columns the cuts describe.
    pub fn n_features(&self) -> usize {
        match self {
            CutsRef::Nested(c) => c.len(),
            CutsRef::Flat { offsets, .. } => offsets.len().saturating_sub(1),
        }
    }

    /// Materializes the ragged form [`BinMapper::from_cuts`] consumes.
    pub fn to_vecs(&self) -> Vec<Vec<f64>> {
        match self {
            CutsRef::Nested(c) => c.to_vec(),
            CutsRef::Flat { offsets, values } => offsets
                .windows(2)
                .map(|w| {
                    (w[0] as usize..w[1] as usize)
                        .map(|i| values.get(i))
                        .collect()
                })
                .collect(),
        }
    }
}

/// A boosted ensemble's slabs, borrowed from either backing. See
/// [`crate::CompiledGbdt`] for the layout contract.
#[derive(Debug, Clone)]
pub struct GbdtView<'a> {
    /// Task the model was trained for.
    pub task: Task,
    /// Score groups per boosting round.
    pub n_groups: usize,
    /// Initial score per group.
    pub init_scores: &'a [f64],
    /// Per-feature bin cut points of the training-time mapper.
    pub cuts: CutsRef<'a>,
    /// Slab index of each tree's root, in boosting order.
    pub tree_roots: &'a [u32],
    /// Split feature per node.
    pub feature: &'a [u32],
    /// Split threshold (bin index) per node.
    pub threshold: &'a [u32],
    /// Absolute slab index of the left child per node.
    pub left: &'a [u32],
    /// Absolute slab index of the right child per node.
    pub right: &'a [u32],
    /// Leaf value per node.
    pub leaf_value: &'a [f64],
    /// Whether each node is a leaf.
    pub is_leaf: LeafFlags<'a>,
}

/// A forest's slabs, borrowed from either backing. See
/// [`crate::CompiledForest`] for the layout contract.
#[derive(Debug, Clone)]
pub struct ForestView<'a> {
    /// Task the model was trained for.
    pub task: Task,
    /// Feature columns the model was trained on.
    pub n_features: usize,
    /// Values stored per leaf.
    pub leaf_width: usize,
    /// Slab index of each tree's root.
    pub tree_roots: &'a [u32],
    /// Split feature per node.
    pub feature: &'a [u32],
    /// Split threshold (raw feature value) per node; possibly the
    /// quantized section, whose widening read is exact by construction.
    pub threshold: FloatSlab<'a>,
    /// Absolute slab index of the left child per node.
    pub left: &'a [u32],
    /// Absolute slab index of the right child per node.
    pub right: &'a [u32],
    /// Whether each node is a leaf.
    pub is_leaf: LeafFlags<'a>,
    /// `leaf_width` output values per node, node-parallel.
    pub values: &'a [f64],
}

/// Any compiled model rendered as borrowed slabs — the input of the one
/// evaluator both the JSON-backed [`CompiledModel`] and blob-backed
/// models share.
#[derive(Debug, Clone)]
pub enum ModelView<'a> {
    /// Boosted trees.
    Gbdt(GbdtView<'a>),
    /// Random forest / extra-trees.
    Forest(ForestView<'a>),
    /// Logistic / ridge regression (evaluated through the training-time
    /// [`LinearModel`], restored from these parts).
    Linear(&'a CompiledLinear),
    /// Stacked ensemble: member views plus the linear meta-learner.
    Stacked {
        /// Base members, in ensemble order.
        members: Vec<ModelView<'a>>,
        /// The meta-learner over member prediction columns.
        meta: &'a CompiledLinear,
        /// Task the ensemble was assembled for.
        task: Task,
    },
}

/// An [`ArtifactError::Layout`] from a format string.
macro_rules! layout {
    ($($arg:tt)*) => {
        ArtifactError::Layout(format!($($arg)*))
    };
}

/// The tree half of [`ModelView::check`]: node slabs of one length
/// (`more` holds the other node-parallel slabs' lengths), roots in
/// range and, on every internal node, an in-range feature and strictly
/// forward children.
fn check_trees(
    roots: &[u32],
    feature: &[u32],
    left: &[u32],
    right: &[u32],
    is_leaf: LeafFlags<'_>,
    n_features: usize,
    more: &[usize],
) -> Result<(), ArtifactError> {
    let n = feature.len();
    let lens = [left.len(), right.len(), is_leaf.len()];
    if lens.iter().chain(more).any(|&l| l != n) {
        return Err(layout!("node slabs disagree on {n} nodes"));
    }
    if let Some(&r) = roots.iter().find(|&&r| r as usize >= n) {
        return Err(layout!("tree root {r} out of range ({n} nodes)"));
    }
    for i in (0..n).filter(|&i| !is_leaf.get(i)) {
        if feature[i] as usize >= n_features {
            let f = feature[i];
            return Err(layout!("node {i} splits on feature {f} of {n_features}"));
        }
        for (name, child) in [("left", left[i]), ("right", right[i])] {
            if child as usize <= i || child as usize >= n {
                return Err(layout!("node {i} has non-forward {name} child {child}"));
            }
        }
    }
    Ok(())
}

impl<'m> ModelView<'m> {
    /// The task the viewed model predicts.
    pub fn task(&self) -> Task {
        match self {
            ModelView::Gbdt(v) => v.task,
            ModelView::Forest(v) => v.task,
            ModelView::Linear(m) => m.task,
            ModelView::Stacked { task, .. } => *task,
        }
    }

    /// Feature columns the model expects at [`ModelView::bind`] time.
    pub fn n_features(&self) -> usize {
        match self {
            ModelView::Gbdt(v) => v.cuts.n_features(),
            ModelView::Forest(v) => v.n_features,
            ModelView::Linear(m) => m.encodings.len(),
            ModelView::Stacked { members, .. } => {
                members.first().map(ModelView::n_features).unwrap_or(0)
            }
        }
    }

    /// The structural check both artifact loaders run before a model is
    /// served, so no accepted file can make the evaluator loop, index
    /// out of bounds or panic: equal node-slab lengths, roots in range,
    /// in-range features and strictly forward children on internal
    /// nodes (which is what bounds every tree walk, and what lets
    /// [`Tables::build`] find each tree's depth in one reverse pass),
    /// one initial score per score group, `leaf_width` values per forest
    /// node, and at most 65 534 cuts per feature (more would not fit a
    /// two-byte bin).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Layout`] naming the first violation.
    pub fn check(&self) -> Result<(), ArtifactError> {
        match self {
            ModelView::Gbdt(v) => {
                let groups = match v.task {
                    Task::MultiClass(k) => k,
                    Task::Regression | Task::Binary => 1,
                };
                if v.n_groups != groups || v.init_scores.len() != groups {
                    let (g, s) = (v.n_groups, v.init_scores.len());
                    return Err(layout!(
                        "{g} groups, {s} init scores for a {groups}-group task"
                    ));
                }
                let most_cuts = match v.cuts {
                    CutsRef::Nested(c) => c.iter().map(Vec::len).max(),
                    CutsRef::Flat { offsets, .. } => offsets
                        .windows(2)
                        .map(|w| w[1].saturating_sub(w[0]) as usize)
                        .max(),
                };
                if let Some(cuts @ 65_535..) = most_cuts {
                    return Err(layout!(
                        "a feature has {cuts} cuts; two-byte bins fit 65534"
                    ));
                }
                let (f, more) = (v.cuts.n_features(), [v.threshold.len(), v.leaf_value.len()]);
                check_trees(
                    v.tree_roots,
                    v.feature,
                    v.left,
                    v.right,
                    v.is_leaf,
                    f,
                    &more,
                )
            }
            ModelView::Forest(v) => {
                let (n, w) = (v.feature.len(), v.leaf_width);
                if w != v.task.n_classes().unwrap_or(1) {
                    return Err(layout!("leaf width {w} for a {:?} task", v.task));
                }
                if n.checked_mul(w) != Some(v.values.len()) {
                    let k = v.values.len();
                    return Err(layout!("{k} leaf values for {n} nodes of width {w}"));
                }
                let (f, more) = (v.n_features, [v.threshold.len()]);
                check_trees(
                    v.tree_roots,
                    v.feature,
                    v.left,
                    v.right,
                    v.is_leaf,
                    f,
                    &more,
                )
            }
            ModelView::Linear(_) => Ok(()),
            ModelView::Stacked { members, .. } => {
                let n_features = self.n_features();
                if members.iter().any(|m| m.n_features() != n_features) {
                    return Err(layout!("stacked members differ in feature count"));
                }
                members.iter().try_for_each(ModelView::check)
            }
        }
    }

    /// The meta-feature columns for `data`: the same extraction
    /// [`flaml_learners::member_columns`] performs, but over member
    /// predictions (which are bit-identical to interpreted ones).
    fn member_columns(
        members: &[ModelView<'m>],
        tables: &'m [Table],
        data: &DatasetView,
    ) -> Vec<Vec<f64>> {
        let n = data.n_rows();
        let mut columns: Vec<Vec<f64>> = Vec::new();
        for (member, table) in members.iter().zip(tables) {
            match member.clone().bind_table(table, data).predict() {
                Pred::Values(v) => {
                    assert_eq!(v.len(), n);
                    columns.push(v);
                }
                Pred::Probs { n_classes, p } => {
                    for c in 0..n_classes.saturating_sub(1) {
                        columns.push(p.chunks_exact(n_classes).map(|row| row[c]).collect());
                    }
                }
            }
        }
        columns
    }

    /// Binds the view and its `tables` to one request matrix: bins /
    /// gathers (row-major) / encodes the matrix **once**, returning an
    /// evaluator whose [`Bound::eval_range`] is pure per-row work.
    /// Binding up front is what makes row-chunked batched inference
    /// byte-identical to a single sequential pass.
    ///
    /// # Panics
    ///
    /// Panics if `data` has a different feature count than the model
    /// was trained on, or if `tables` were built for another model.
    pub fn bind(self, tables: &'m Tables, data: &DatasetView) -> Bound<'m> {
        self.bind_table(&tables.0, data)
    }

    fn bind_table(self, table: &'m Table, data: &DatasetView) -> Bound<'m> {
        let n_rows = data.n_rows();
        if let ModelView::Gbdt(_) | ModelView::Forest(_) = self {
            assert_eq!(
                data.n_features(),
                self.n_features(),
                "predicting with a different feature count"
            );
        }
        let inner = match (self, table) {
            (ModelView::Gbdt(view), Table::Gbdt(mapper, packed)) => {
                // The request matrix is binned once through the
                // training-time mapper, exactly as the interpreted
                // model's predict does, then laid out row by row.
                let binned = mapper.transform(data);
                let columns = (0..binned.n_features()).map(|j| binned.column(j).iter().copied());
                BoundInner::Gbdt(view, Lanes::new(packed, n_rows, columns))
            }
            (ModelView::Forest(view), Table::Forest(packed)) => {
                let columns = (0..data.n_features()).map(|j| data.column_values(j));
                BoundInner::Forest(view, Lanes::new(packed, n_rows, columns))
            }
            (ModelView::Linear(_), Table::Linear(model)) => {
                let cols = gather_columns(data);
                BoundInner::Linear { model, cols }
            }
            (ModelView::Stacked { members, .. }, Table::Stacked(model, tables)) => {
                let cols = ModelView::member_columns(&members, tables, data);
                BoundInner::Linear { model, cols }
            }
            _ => panic!("evaluator tables built for a different model"),
        };
        Bound { inner, n_rows }
    }

    /// Materializes the view as an owned [`CompiledModel`] — a straight
    /// slab copy with no re-flattening, so a blob can enter
    /// registries that hold owned models. The copy preserves the
    /// *stored* node order: a hot-first blob written by an older build
    /// materializes with permuted slabs (predictions are identical;
    /// slab-level `==` against the original compiled model is not).
    pub fn to_compiled(&self) -> CompiledModel {
        match self {
            ModelView::Gbdt(v) => CompiledModel::Gbdt(CompiledGbdt {
                cuts: v.cuts.to_vecs(),
                n_groups: v.n_groups,
                init_scores: v.init_scores.to_vec(),
                task: v.task,
                tree_roots: v.tree_roots.to_vec(),
                feature: v.feature.to_vec(),
                threshold: v.threshold.to_vec(),
                left: v.left.to_vec(),
                right: v.right.to_vec(),
                leaf_value: v.leaf_value.to_vec(),
                is_leaf: (0..v.is_leaf.len()).map(|i| v.is_leaf.get(i)).collect(),
            }),
            ModelView::Forest(v) => CompiledModel::Forest(CompiledForest {
                task: v.task,
                n_features: v.n_features,
                leaf_width: v.leaf_width,
                tree_roots: v.tree_roots.to_vec(),
                feature: v.feature.to_vec(),
                threshold: v.threshold.to_vec(),
                left: v.left.to_vec(),
                right: v.right.to_vec(),
                is_leaf: (0..v.is_leaf.len()).map(|i| v.is_leaf.get(i)).collect(),
                values: v.values.to_vec(),
            }),
            ModelView::Linear(m) => CompiledModel::Linear((*m).clone()),
            ModelView::Stacked {
                members,
                meta,
                task,
            } => CompiledModel::Stacked(Box::new(CompiledStacked {
                members: members.iter().map(ModelView::to_compiled).collect(),
                meta: (*meta).clone(),
                task: *task,
            })),
        }
    }
}

impl CompiledModel {
    /// Renders the owned model as borrowed slabs (see [`ModelView`]).
    pub fn view(&self) -> ModelView<'_> {
        match self {
            CompiledModel::Gbdt(m) => ModelView::Gbdt(GbdtView {
                task: m.task,
                n_groups: m.n_groups,
                init_scores: &m.init_scores,
                cuts: CutsRef::Nested(&m.cuts),
                tree_roots: &m.tree_roots,
                feature: &m.feature,
                threshold: &m.threshold,
                left: &m.left,
                right: &m.right,
                leaf_value: &m.leaf_value,
                is_leaf: LeafFlags::Bools(&m.is_leaf),
            }),
            CompiledModel::Forest(m) => ModelView::Forest(ForestView {
                task: m.task,
                n_features: m.n_features,
                leaf_width: m.leaf_width,
                tree_roots: &m.tree_roots,
                feature: &m.feature,
                threshold: FloatSlab::F64(&m.threshold),
                left: &m.left,
                right: &m.right,
                is_leaf: LeafFlags::Bools(&m.is_leaf),
                values: &m.values,
            }),
            CompiledModel::Linear(m) => ModelView::Linear(m),
            CompiledModel::Stacked(m) => ModelView::Stacked {
                members: m.members.iter().map(CompiledModel::view).collect(),
                meta: &m.meta,
                task: m.task,
            },
        }
    }
}

/// A model that can answer requests: its slab view plus the [`Tables`]
/// the evaluator walks. Values that serve many requests keep their
/// tables ([`crate::VersionedModel`], blob models); a bare
/// [`CompiledModel`] builds them for the call.
pub trait Servable {
    /// The model's view and its tables.
    fn parts(&self) -> (ModelView<'_>, Cow<'_, Tables>);

    /// Predicts on `data` through the shared evaluator.
    fn serve(&self, data: &DatasetView) -> Pred {
        let (view, tables) = self.parts();
        view.bind(&tables, data).predict()
    }
}

impl Servable for CompiledModel {
    fn parts(&self) -> (ModelView<'_>, Cow<'_, Tables>) {
        let view = self.view();
        let tables = Tables::build(&view);
        (view, Cow::Owned(tables))
    }
}

/// One tree of a packed table: where its walk starts and how many steps
/// it takes — its depth, so every row is on a leaf by the last step.
#[derive(Debug, Clone, Copy)]
struct Tree {
    root: u32,
    depth: u32,
}

/// A tree node packed for the walk into one entry: 16 bytes with a
/// boosted tree's bin threshold, 24 with a forest's `f64` one. A leaf is
/// its own left and right child (and reads feature 0).
#[derive(Debug, Clone, Copy)]
struct Node<T> {
    feature: u32,
    threshold: T,
    left: u32,
    right: u32,
}

/// How a node's threshold sends a request cell left.
trait Split: Copy {
    /// What a request holds per feature: a bin, or a raw value.
    type Cell: Copy + Default;
    fn goes_left(self, cell: Self::Cell) -> bool;
}

impl Split for u32 {
    type Cell = u16;
    #[inline]
    fn goes_left(self, bin: u16) -> bool {
        u32::from(bin) <= self
    }
}

impl Split for f64 {
    type Cell = f64;
    #[inline]
    fn goes_left(self, v: f64) -> bool {
        goes_left(v, self)
    }
}

/// The packed nodes of one ensemble and its trees.
#[derive(Debug, Clone)]
struct Packed<T> {
    nodes: Vec<Node<T>>,
    trees: Vec<Tree>,
}

impl<T: Split> Packed<T> {
    /// Packs node `i` from `split(i)` = `(feature, threshold, left,
    /// right)`, leaves as self-loops, then finds every tree's depth in
    /// one reverse pass: children follow their parent
    /// ([`ModelView::check`]), so their heights are known first.
    fn new(
        roots: &[u32],
        is_leaf: LeafFlags<'_>,
        split: impl Fn(usize) -> (u32, T, u32, u32),
    ) -> Self {
        let nodes: Vec<Node<T>> = (0..is_leaf.len())
            .map(|i| {
                let ((feature, threshold, left, right), leaf) = (split(i), is_leaf.get(i));
                let at = i as u32;
                Node {
                    feature: if leaf { 0 } else { feature },
                    threshold,
                    left: if leaf { at } else { left },
                    right: if leaf { at } else { right },
                }
            })
            .collect();
        let mut height = vec![0u32; nodes.len()];
        for (i, node) in nodes.iter().enumerate().rev() {
            if node.left as usize != i {
                height[i] = 1 + height[node.left as usize].max(height[node.right as usize]);
            }
        }
        let tree = |&root: &u32| Tree {
            root,
            depth: height[root as usize],
        };
        let trees = roots.iter().map(tree).collect();
        Packed { nodes, trees }
    }
}

/// What a model needs besides its slabs to answer requests, built once
/// per served model ([`Tables::build`]): each tree node packed into one
/// entry — `[feature, bin threshold, left, right]` (16 bytes) for
/// boosted trees; feature, children and the `f64` threshold (24 bytes)
/// for forests — with leaves as self-loops, each tree's depth, the
/// boosted model's bin mapper and the restored linear models.
#[derive(Debug, Clone)]
pub struct Tables(Table);

#[derive(Debug, Clone)]
enum Table {
    Gbdt(BinMapper, Packed<u32>),
    Forest(Packed<f64>),
    Linear(LinearModel),
    Stacked(LinearModel, Vec<Table>),
}

impl Tables {
    /// Builds the tables of `view`.
    ///
    /// # Panics
    ///
    /// Panics if `view` fails [`ModelView::check`]. Both loaders run
    /// that check, so only a hand-built model can get here invalid.
    pub fn build(view: &ModelView<'_>) -> Tables {
        if let Err(e) = view.check() {
            panic!("serving a structurally invalid model: {e}");
        }
        Tables(Table::of(view))
    }
}

impl Table {
    fn of(view: &ModelView<'_>) -> Table {
        match view {
            ModelView::Gbdt(v) => Table::Gbdt(
                BinMapper::from_cuts(v.cuts.to_vecs()),
                Packed::new(v.tree_roots, v.is_leaf, |i| {
                    (v.feature[i], v.threshold[i], v.left[i], v.right[i])
                }),
            ),
            ModelView::Forest(v) => Table::Forest(Packed::new(v.tree_roots, v.is_leaf, |i| {
                (v.feature[i], v.threshold.get(i), v.left[i], v.right[i])
            })),
            ModelView::Linear(m) => Table::Linear(m.to_model()),
            ModelView::Stacked { members, meta, .. } => {
                Table::Stacked(meta.to_model(), members.iter().map(Table::of).collect())
            }
        }
    }
}

fn gather_columns(data: &DatasetView) -> Vec<Vec<f64>> {
    (0..data.n_features())
        .map(|j| data.column_values(j).collect())
        .collect()
}

/// A packed ensemble bound to a row-major request matrix.
struct Lanes<'a, T: Split> {
    packed: &'a Packed<T>,
    /// `stride` cells per row.
    cells: Vec<T::Cell>,
    stride: usize,
}

impl<'a, T: Split> Lanes<'a, T> {
    fn new<C>(
        packed: &'a Packed<T>,
        n_rows: usize,
        columns: impl ExactSizeIterator<Item = C>,
    ) -> Self
    where
        C: Iterator<Item = T::Cell>,
    {
        let stride = columns.len();
        let mut cells = vec![T::Cell::default(); n_rows * stride];
        for (j, column) in columns.enumerate() {
            for (r, x) in column.enumerate() {
                cells[r * stride + j] = x;
            }
        }
        Lanes {
            packed,
            cells,
            stride,
        }
    }

    /// Walks rows `lo..hi` through every tree and calls `add(t, r, leaf)`
    /// for each tree `t` in order and row `lo + r`, so each row meets
    /// its trees in order. Blocks of [`LANES`] rows walk together; the
    /// ragged tail walks one row at a time.
    #[inline]
    fn walk(&self, lo: usize, hi: usize, mut add: impl FnMut(usize, usize, usize)) {
        let full = lo + (hi - lo) / LANES * LANES;
        for (t, &tree) in self.packed.trees.iter().enumerate() {
            for row in (lo..full).step_by(LANES) {
                for (l, leaf) in self.block(tree, row).into_iter().enumerate() {
                    add(t, row - lo + l, leaf as usize);
                }
            }
            for row in full..hi {
                add(t, row - lo, self.one(tree, row) as usize);
            }
        }
    }

    /// The leaves rows `row..row + LANES` reach in `tree`, stepping
    /// together as many steps as the tree is deep: a lane that reaches
    /// its leaf early stays there, and no lane waits on a branch.
    #[inline]
    fn block(&self, tree: Tree, row: usize) -> [u32; LANES] {
        let rows: [&[T::Cell]; LANES] =
            std::array::from_fn(|l| &self.cells[(row + l) * self.stride..][..self.stride]);
        let mut at = [tree.root; LANES];
        for _ in 0..tree.depth {
            for (a, cells) in at.iter_mut().zip(&rows) {
                let node = self.packed.nodes[*a as usize];
                let left = node.threshold.goes_left(cells[node.feature as usize]);
                *a = select_unpredictable(left, node.left, node.right);
            }
        }
        at
    }

    /// The leaf one row reaches in `tree`, stepping until it sits on it
    /// — which it does, since children follow their parent. A branch,
    /// not a select: one row has nothing else to overlap, so running
    /// ahead down the predicted side wins.
    #[inline]
    fn one(&self, tree: Tree, row: usize) -> u32 {
        let cells = &self.cells[row * self.stride..][..self.stride];
        let mut at = tree.root;
        let mut node = self.packed.nodes[at as usize];
        while node.left != at {
            let left = node.threshold.goes_left(cells[node.feature as usize]);
            at = if left { node.left } else { node.right };
            node = self.packed.nodes[at as usize];
        }
        at
    }
}

/// A model view bound to one request matrix (see [`ModelView::bind`]).
/// All per-request setup — binning, column gathering, member
/// prediction — happened at bind time; [`Bound::eval_range`] touches
/// only the rows it is asked for, so disjoint ranges can run on
/// different workers and concatenate into exactly the sequential
/// result.
pub struct Bound<'m> {
    inner: BoundInner<'m>,
    n_rows: usize,
}

enum BoundInner<'m> {
    Gbdt(GbdtView<'m>, Lanes<'m, u32>),
    Forest(ForestView<'m>, Lanes<'m, f64>),
    Linear {
        model: &'m LinearModel,
        cols: Vec<Vec<f64>>,
    },
}

impl Bound<'_> {
    /// Rows in the bound request matrix.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Output values per row in the flat representation
    /// [`Bound::eval_range`] produces.
    pub fn width(&self) -> usize {
        let task = match &self.inner {
            BoundInner::Gbdt(view, _) => view.task,
            BoundInner::Forest(view, _) => return view.leaf_width,
            BoundInner::Linear { model, .. } => model.task(),
        };
        match task {
            Task::Regression | Task::Binary => 1,
            Task::MultiClass(k) => k,
        }
    }

    /// Evaluates rows `lo..hi`, returning `(hi - lo) * width` values in
    /// row-major order. Row-independent math: the concatenation of
    /// adjacent ranges is bitwise equal to one evaluation of the union.
    pub fn eval_range(&self, lo: usize, hi: usize) -> Vec<f64> {
        match &self.inner {
            BoundInner::Gbdt(view, lanes) => {
                let k = view.n_groups;
                let mut scores = view.init_scores.repeat(hi - lo);
                // Each row adds its trees' leaves in boosting order, the
                // interpreted `raw_scores` order, whatever its block.
                lanes.walk(lo, hi, |t, r, leaf| {
                    scores[r * k + t % k] += view.leaf_value[leaf];
                });
                match view.task {
                    Task::Regression => scores,
                    Task::Binary => scores.iter().map(|&f| sigmoid(f)).collect(),
                    Task::MultiClass(k) => {
                        let mut p = scores;
                        for row in p.chunks_exact_mut(k) {
                            softmax_in_place(row);
                        }
                        p
                    }
                }
            }
            BoundInner::Forest(view, lanes) => {
                let w = view.leaf_width;
                let m = view.tree_roots.len() as f64;
                let mut out = vec![0.0; (hi - lo) * w];
                lanes.walk(lo, hi, |_, r, leaf| {
                    let vals = &view.values[leaf * w..(leaf + 1) * w];
                    for (o, v) in out[r * w..(r + 1) * w].iter_mut().zip(vals) {
                        *o += *v;
                    }
                });
                for v in &mut out {
                    *v /= m;
                }
                out
            }
            BoundInner::Linear { model, cols } => {
                let sub: Vec<Vec<f64>> = cols.iter().map(|c| c[lo..hi].to_vec()).collect();
                match model.predict_columns(&sub, hi - lo) {
                    Pred::Values(v) => v,
                    pred @ Pred::Probs { .. } => match model.task() {
                        Task::Binary => pred
                            .positive_scores()
                            .expect("binary probabilities carry positive scores"),
                        _ => pred.probs().expect("probabilities").1.to_vec(),
                    },
                }
            }
        }
    }

    /// Wraps a full flat evaluation (the concatenation of
    /// [`Bound::eval_range`] chunks covering every row, in order) into
    /// the model's [`Pred`], exactly as the interpreted predict does.
    pub fn finish(&self, flat: Vec<f64>) -> Pred {
        let task = match &self.inner {
            BoundInner::Gbdt(view, _) => view.task,
            BoundInner::Forest(view, _) => match view.task {
                Task::Regression => return Pred::from_values(flat),
                Task::Binary | Task::MultiClass(_) => {
                    let n_classes = view.leaf_width;
                    return Pred::Probs { n_classes, p: flat };
                }
            },
            BoundInner::Linear { model, .. } => model.task(),
        };
        match task {
            Task::Regression => Pred::from_values(flat),
            Task::Binary => Pred::binary_probs(flat),
            Task::MultiClass(k) => Pred::Probs {
                n_classes: k,
                p: flat,
            },
        }
    }

    /// Every row in one pass.
    fn predict(&self) -> Pred {
        self.finish(self.eval_range(0, self.n_rows))
    }
}
