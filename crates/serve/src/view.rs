//! Borrowed slab views: one evaluation path over any slab backing.
//!
//! [`CompiledModel`] owns its structure-of-arrays slabs as `Vec`s; the
//! binary blob format (`flaml-blob`) maps the same slabs straight off
//! disk. Both render themselves as a [`ModelView`] — a tree of borrowed
//! slices — and every prediction in the stack runs through the single
//! evaluator defined here. That is what makes the "bit-identical across
//! backings" contract structural rather than aspirational: there is
//! exactly one accumulation order, owned and mapped models merely feed
//! it different pointers.
//!
//! Two tiny enums absorb the representational differences a mapped
//! backing needs:
//!
//! * [`LeafFlags`] — `Vec<bool>` in owned models, a raw `u8` slab on
//!   disk (reinterpreting mapped bytes as `bool` would be UB).
//! * [`FloatSlab`] — `f64` thresholds/cuts, or the optional
//!   f32-quantized section of a blob. Quantized slabs are only ever
//!   written when every value round-trips `f64 → f32 → f64` exactly, so
//!   the widening read here reproduces the original bits by
//!   construction.

use crate::artifact::{
    CompiledForest, CompiledGbdt, CompiledLinear, CompiledModel, CompiledStacked,
};
use flaml_data::{DatasetView, Task};
use flaml_learners::link::{sigmoid, softmax_in_place};
use flaml_learners::{goes_left, BinMapper, LinearModel, PreparedBins};
use flaml_metrics::Pred;

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

    /// Nodes covered by the flags.
    pub fn len(&self) -> usize {
        match self {
            LeafFlags::Bools(b) => b.len(),
            LeafFlags::Bytes(b) => b.len(),
        }
    }

    /// Whether the slab is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Values in the slab.
    pub fn len(&self) -> usize {
        match self {
            FloatSlab::F64(v) => v.len(),
            FloatSlab::F32(v) => v.len(),
        }
    }

    /// Whether the slab is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
/// models) or a flat value slab with prefix-sum offsets (mapped blobs).
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

impl GbdtView<'_> {
    fn eval_tree(&self, root: u32, binned: &flaml_learners::BinnedDataset, row: usize) -> f64 {
        let mut at = root as usize;
        loop {
            if self.is_leaf.get(at) {
                return self.leaf_value[at];
            }
            let bin = binned.column(self.feature[at] as usize)[row];
            at = if u32::from(bin) <= self.threshold[at] {
                self.left[at] as usize
            } else {
                self.right[at] as usize
            };
        }
    }
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

impl ForestView<'_> {
    fn leaf_of(&self, root: u32, cols: &[Vec<f64>], row: usize) -> usize {
        let mut at = root as usize;
        loop {
            if self.is_leaf.get(at) {
                return at;
            }
            let v = cols[self.feature[at] as usize][row];
            at = if goes_left(v, self.threshold.get(at)) {
                self.left[at] as usize
            } else {
                self.right[at] as usize
            };
        }
    }
}

/// Any compiled model rendered as borrowed slabs — the input of the one
/// evaluator both the JSON-backed [`CompiledModel`] and mmap-backed
/// blobs share.
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

    /// The meta-feature columns for `data`: the same extraction
    /// [`flaml_learners::member_columns`] performs, but over member
    /// predictions (which are bit-identical to interpreted ones).
    fn member_columns(members: &[ModelView<'m>], data: &DatasetView) -> Vec<Vec<f64>> {
        let n = data.n_rows();
        let mut columns: Vec<Vec<f64>> = Vec::new();
        for member in members {
            match member.clone().predict_view(data) {
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

    /// Binds the view to one request matrix: bins / gathers / encodes
    /// the matrix **once**, returning an evaluator whose
    /// [`Bound::eval_range`] is pure per-row work. Binding up front is
    /// what makes row-chunked batched inference byte-identical to a
    /// single sequential pass.
    ///
    /// # Panics
    ///
    /// Panics if `data` has a different feature count than the model
    /// was trained on, or if a boosted model carries a feature with
    /// more than 65534 cuts (no fit produces one: `max_bin` above
    /// 65535 is a typed fit error).
    pub fn bind(self, data: &DatasetView) -> Bound<'m> {
        let n_rows = data.n_rows();
        let inner = match self {
            ModelView::Gbdt(view) => {
                assert_eq!(
                    data.n_features(),
                    view.cuts.n_features(),
                    "predicting with a different feature count"
                );
                // The request matrix is binned once through the
                // training-time mapper, exactly as the interpreted
                // model's predict does.
                let bins =
                    PreparedBins::from_mapper(BinMapper::from_cuts(view.cuts.to_vecs()), data);
                BoundInner::Gbdt { view, bins }
            }
            ModelView::Forest(view) => {
                assert_eq!(
                    data.n_features(),
                    view.n_features,
                    "predicting with a different feature count"
                );
                let cols = gather_columns(data);
                BoundInner::Forest { view, cols }
            }
            ModelView::Linear(m) => BoundInner::Linear {
                model: m.to_model(),
                cols: gather_columns(data),
            },
            ModelView::Stacked { members, meta, .. } => BoundInner::Linear {
                model: meta.to_model(),
                cols: ModelView::member_columns(&members, data),
            },
        };
        Bound { inner, n_rows }
    }

    /// Predicts on `data` through the shared evaluator.
    pub fn predict_view(self, data: &DatasetView) -> Pred {
        let bound = self.bind(data);
        let flat = bound.eval_range(0, bound.n_rows());
        bound.finish(flat)
    }

    /// Materializes the view as an owned [`CompiledModel`] — a straight
    /// slab copy with no re-flattening, so a mapped blob can enter
    /// registries that hold owned models. Note the copy preserves the
    /// *stored* node order: a hot-first blob materializes with permuted
    /// slabs (predictions are identical; slab-level `==` against the
    /// original compiled model is not).
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

fn gather_columns(data: &DatasetView) -> Vec<Vec<f64>> {
    (0..data.n_features())
        .map(|j| data.column_values(j).collect())
        .collect()
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
    Gbdt {
        view: GbdtView<'m>,
        bins: PreparedBins,
    },
    Forest {
        view: ForestView<'m>,
        cols: Vec<Vec<f64>>,
    },
    Linear {
        model: LinearModel,
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
        match &self.inner {
            BoundInner::Gbdt { view, .. } => match view.task {
                Task::Regression | Task::Binary => 1,
                Task::MultiClass(k) => k,
            },
            BoundInner::Forest { view, .. } => view.leaf_width,
            BoundInner::Linear { model, .. } => match model.task() {
                Task::Regression | Task::Binary => 1,
                Task::MultiClass(k) => k,
            },
        }
    }

    /// Evaluates rows `lo..hi`, returning `(hi - lo) * width` values in
    /// row-major order. Row-independent math: the concatenation of
    /// adjacent ranges is bitwise equal to one evaluation of the union.
    pub fn eval_range(&self, lo: usize, hi: usize) -> Vec<f64> {
        match &self.inner {
            BoundInner::Gbdt { view, bins } => {
                let n = hi - lo;
                let k = view.n_groups;
                let mut scores = vec![0.0; n * k];
                for slot in scores.chunks_exact_mut(k) {
                    slot.copy_from_slice(view.init_scores);
                }
                // Tree-outer accumulation in boosting order: per row,
                // additions happen in exactly the interpreted
                // `raw_scores` order.
                for (t, &root) in view.tree_roots.iter().enumerate() {
                    let c = t % k;
                    for (r, slot) in scores.chunks_exact_mut(k).enumerate() {
                        slot[c] += view.eval_tree(root, bins.binned(), lo + r);
                    }
                }
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
            BoundInner::Forest { view, cols } => {
                let n = hi - lo;
                let w = view.leaf_width;
                let m = view.tree_roots.len() as f64;
                let mut out = vec![0.0; n * w];
                for &root in view.tree_roots {
                    for (r, slot) in out.chunks_exact_mut(w).enumerate() {
                        let leaf = view.leaf_of(root, cols, lo + r);
                        let vals = &view.values[leaf * w..(leaf + 1) * w];
                        for (o, v) in slot.iter_mut().zip(vals) {
                            *o += *v;
                        }
                    }
                }
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
        match &self.inner {
            BoundInner::Gbdt { view, .. } => match view.task {
                Task::Regression => Pred::from_values(flat),
                Task::Binary => Pred::binary_probs(flat),
                Task::MultiClass(k) => Pred::Probs {
                    n_classes: k,
                    p: flat,
                },
            },
            BoundInner::Forest { view, .. } => match view.task {
                Task::Regression => Pred::from_values(flat),
                Task::Binary | Task::MultiClass(_) => Pred::Probs {
                    n_classes: view.leaf_width,
                    p: flat,
                },
            },
            BoundInner::Linear { model, .. } => match model.task() {
                Task::Regression => Pred::from_values(flat),
                Task::Binary => Pred::binary_probs(flat),
                Task::MultiClass(k) => Pred::Probs {
                    n_classes: k,
                    p: flat,
                },
            },
        }
    }
}
