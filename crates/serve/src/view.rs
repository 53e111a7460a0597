//! The one structural check and the one evaluator over
//! [`CompiledModel`].
//!
//! Both artifact loaders end in an owned [`CompiledModel`]: the JSON
//! loader deserializes one, the binary blob loader (`flaml-blob`)
//! decodes one. [`CompiledModel::check`] then proves it safe to serve —
//! once, in the loader; nothing behind it checks again — and every
//! prediction in the stack runs through the single evaluator defined
//! here, which trusts the model it is given. That is what makes the
//! "bit-identical across backings" contract structural rather than
//! aspirational: there is exactly one representation and one
//! accumulation order, whatever file the model came from.
//!
//! The evaluator does not walk the slabs themselves: it walks the
//! [`Tables`] built from them once per served model — every tree node
//! packed into one entry, leaves pointing at themselves — taking
//! [`LANES`] rows through each tree together for exactly the tree's
//! depth in steps.

use crate::artifact::{CompiledForest, CompiledGbdt, CompiledLinear, CompiledModel};
use crate::error::ArtifactError;
use flaml_data::{DatasetView, Task};
use flaml_learners::link::{sigmoid, softmax_in_place};
use flaml_learners::{goes_left, BinMapper, Encoding, LinearModel, MAX_ONE_HOT};
use flaml_metrics::Pred;
use std::borrow::Cow;
use std::hint::select_unpredictable;

/// Rows walked through a tree together: their dependent node loads
/// overlap instead of queueing behind one another.
const LANES: usize = 8;

/// An [`ArtifactError::Layout`] from a format string.
macro_rules! layout {
    ($($arg:tt)*) => {
        ArtifactError::Layout(format!($($arg)*))
    };
}

/// Score groups of `task`: one per class of a multi-class task, one
/// otherwise.
fn score_groups(task: Task) -> usize {
    match task {
        Task::MultiClass(k) => k,
        Task::Regression | Task::Binary => 1,
    }
}

/// The tree half of [`CompiledModel::check`]: node slabs of one length
/// (`more` holds the other node-parallel slabs' lengths), roots in
/// range and, on every internal node, an in-range feature and strictly
/// forward children.
fn check_trees(
    roots: &[u32],
    feature: &[u32],
    left: &[u32],
    right: &[u32],
    is_leaf: &[bool],
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
    for i in (0..n).filter(|&i| !is_leaf[i]) {
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

/// The linear half of [`CompiledModel::check`]: one weight group per
/// score group, one-hot cardinalities within the learner's own cap, and
/// every group exactly as long as the design row it multiplies.
fn check_linear(m: &CompiledLinear) -> Result<(), ArtifactError> {
    let groups = score_groups(m.task);
    if m.weights.len() != groups {
        let g = m.weights.len();
        return Err(layout!("{g} weight groups for a {groups}-group task"));
    }
    // One design column per numeric feature, `cardinality` per one-hot
    // feature, then the intercept.
    let mut width = 1usize;
    for (j, encoding) in m.encodings.iter().enumerate() {
        let columns = match *encoding {
            Encoding::Numeric { .. } => 1,
            Encoding::OneHot { cardinality } if cardinality <= MAX_ONE_HOT => cardinality,
            Encoding::OneHot { cardinality } => {
                return Err(layout!(
                    "feature {j} is one-hot over {cardinality} categories; the cap is {MAX_ONE_HOT}"
                ));
            }
        };
        width = width
            .checked_add(columns)
            .ok_or_else(|| layout!("design width overflows"))?;
    }
    if let Some((g, w)) = m.weights.iter().enumerate().find(|(_, w)| w.len() != width) {
        let n = w.len();
        return Err(layout!(
            "weight group {g} has {n} weights for {width} columns"
        ));
    }
    Ok(())
}

impl CompiledModel {
    /// The structural check both artifact loaders run before a model is
    /// served, so no accepted file can make the evaluator loop, index
    /// out of bounds, panic or allocate without bound: at least two
    /// classes in a multi-class task; equal node-slab lengths, roots in
    /// range, in-range features and strictly forward children on
    /// internal nodes (which is what bounds every tree walk, and what
    /// lets [`Tables::build`] find each tree's depth in one reverse
    /// pass); one initial score per score group and at most 65 534 cuts
    /// per feature (more would not fit a two-byte bin); a forest with a
    /// tree and `leaf_width` values per node; one linear weight group
    /// per score group, each as long as the design row, and one-hot
    /// cardinalities of at most [`MAX_ONE_HOT`]; and a stacked
    /// meta-learner with one input per member prediction column.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Layout`] naming the first violation.
    pub fn check(&self) -> Result<(), ArtifactError> {
        if let Task::MultiClass(k @ 0..=1) = self.task() {
            return Err(layout!("a multi-class task with {k} classes"));
        }
        match self {
            CompiledModel::Gbdt(m) => {
                let groups = score_groups(m.task);
                if m.n_groups != groups || m.init_scores.len() != groups {
                    let (g, s) = (m.n_groups, m.init_scores.len());
                    return Err(layout!(
                        "{g} groups, {s} init scores for a {groups}-group task"
                    ));
                }
                if let Some(cuts @ 65_535..) = m.cuts.iter().map(Vec::len).max() {
                    return Err(layout!(
                        "a feature has {cuts} cuts; two-byte bins fit 65534"
                    ));
                }
                let more = [m.threshold.len(), m.leaf_value.len()];
                check_trees(
                    &m.tree_roots,
                    &m.feature,
                    &m.left,
                    &m.right,
                    &m.is_leaf,
                    m.cuts.len(),
                    &more,
                )
            }
            CompiledModel::Forest(m) => {
                let (n, w) = (m.feature.len(), m.leaf_width);
                if w != m.task.n_classes().unwrap_or(1) {
                    return Err(layout!("leaf width {w} for a {:?} task", m.task));
                }
                if m.tree_roots.is_empty() {
                    return Err(layout!("a forest without trees"));
                }
                if n.checked_mul(w) != Some(m.values.len()) {
                    let k = m.values.len();
                    return Err(layout!("{k} leaf values for {n} nodes of width {w}"));
                }
                check_trees(
                    &m.tree_roots,
                    &m.feature,
                    &m.left,
                    &m.right,
                    &m.is_leaf,
                    m.n_features,
                    &[m.threshold.len()],
                )
            }
            CompiledModel::Linear(m) => check_linear(m),
            CompiledModel::Stacked(m) => {
                let n_features = self.n_features();
                if m.members.iter().any(|x| x.n_features() != n_features) {
                    return Err(layout!("stacked members differ in feature count"));
                }
                m.members.iter().try_for_each(CompiledModel::check)?;
                check_linear(&m.meta)?;
                // What `member_columns` extracts: a regression member's
                // values, every class but the last of a classifier's
                // probabilities.
                let Some(columns) = m
                    .members
                    .iter()
                    .map(|x| match x.task() {
                        Task::MultiClass(k) => k - 1,
                        Task::Regression | Task::Binary => 1,
                    })
                    .try_fold(0usize, usize::checked_add)
                else {
                    return Err(layout!("member prediction columns overflow"));
                };
                let inputs = m.meta.encodings.len();
                if inputs != columns {
                    return Err(layout!(
                        "a meta-learner over {inputs} inputs for {columns} member columns"
                    ));
                }
                Ok(())
            }
        }
    }

    /// Binds the model and its `tables` to one request matrix: bins /
    /// gathers (row-major) / encodes the matrix **once**, returning an
    /// evaluator whose [`Bound::eval_range`] is pure per-row work.
    /// Binding up front is what makes row-chunked batched inference
    /// byte-identical to a single sequential pass.
    ///
    /// # Panics
    ///
    /// Panics if `data` has a different feature count than the model
    /// was trained on, or if `tables` were built for another model.
    pub fn bind<'m>(&'m self, tables: &'m Tables, data: &DatasetView) -> Bound<'m> {
        bind(self, &tables.0, data)
    }
}

/// The meta-feature columns for `data`: the same extraction
/// [`flaml_learners::member_columns`] performs, but over member
/// predictions (which are bit-identical to interpreted ones).
fn member_columns(
    members: &[CompiledModel],
    tables: &[Table],
    data: &DatasetView,
) -> Vec<Vec<f64>> {
    let n = data.n_rows();
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for (member, table) in members.iter().zip(tables) {
        match bind(member, table, data).predict() {
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

fn bind<'m>(model: &'m CompiledModel, table: &'m Table, data: &DatasetView) -> Bound<'m> {
    let n_rows = data.n_rows();
    if let CompiledModel::Gbdt(_) | CompiledModel::Forest(_) = model {
        assert_eq!(
            data.n_features(),
            model.n_features(),
            "predicting with a different feature count"
        );
    }
    let inner = match (model, table) {
        (CompiledModel::Gbdt(m), Table::Gbdt(mapper, packed)) => {
            // The request matrix is binned once through the
            // training-time mapper, exactly as the interpreted model's
            // predict does, then laid out row by row.
            let binned = mapper.transform(data);
            let columns = (0..binned.n_features()).map(|j| binned.column(j).iter().copied());
            BoundInner::Gbdt(m, Lanes::new(packed, n_rows, columns))
        }
        (CompiledModel::Forest(m), Table::Forest(packed)) => {
            let columns = (0..data.n_features()).map(|j| data.column_values(j));
            BoundInner::Forest(m, Lanes::new(packed, n_rows, columns))
        }
        (CompiledModel::Linear(_), Table::Linear(model)) => {
            let cols = gather_columns(data);
            BoundInner::Linear { model, cols }
        }
        (CompiledModel::Stacked(m), Table::Stacked(model, tables)) => {
            let cols = member_columns(&m.members, tables, data);
            BoundInner::Linear { model, cols }
        }
        _ => panic!("evaluator tables built for a different model"),
    };
    Bound { inner, n_rows }
}

/// A model that can answer requests: a [`CompiledModel`] plus the
/// [`Tables`] the evaluator walks. Values that serve many requests keep
/// their tables ([`crate::VersionedModel`], blob models); a bare
/// [`CompiledModel`] builds them for the call.
pub trait Servable {
    /// The model and its tables.
    fn parts(&self) -> (&CompiledModel, Cow<'_, Tables>);

    /// Predicts on `data` through the shared evaluator.
    fn serve(&self, data: &DatasetView) -> Pred {
        let (model, tables) = self.parts();
        model.bind(&tables, data).predict()
    }
}

impl Servable for CompiledModel {
    fn parts(&self) -> (&CompiledModel, Cow<'_, Tables>) {
        (self, Cow::Owned(Tables::build(self)))
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
    /// ([`CompiledModel::check`]), so their heights are known first.
    fn new(roots: &[u32], is_leaf: &[bool], split: impl Fn(usize) -> (u32, T, u32, u32)) -> Self {
        let nodes: Vec<Node<T>> = (0..is_leaf.len())
            .map(|i| {
                let ((feature, threshold, left, right), leaf) = (split(i), is_leaf[i]);
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
    /// Builds the tables of `model`, trusting its structure: a model
    /// read from a file passed [`CompiledModel::check`] in its loader,
    /// and one compiled from a fitted learner is well formed by
    /// construction. A hand-built model that breaks a rule of that
    /// check may panic, here or when it predicts.
    pub fn build(model: &CompiledModel) -> Tables {
        Tables(Table::of(model))
    }
}

impl Table {
    fn of(model: &CompiledModel) -> Table {
        match model {
            CompiledModel::Gbdt(m) => Table::Gbdt(
                BinMapper::from_cuts(m.cuts.clone()),
                Packed::new(&m.tree_roots, &m.is_leaf, |i| {
                    (m.feature[i], m.threshold[i], m.left[i], m.right[i])
                }),
            ),
            CompiledModel::Forest(m) => {
                Table::Forest(Packed::new(&m.tree_roots, &m.is_leaf, |i| {
                    (m.feature[i], m.threshold[i], m.left[i], m.right[i])
                }))
            }
            CompiledModel::Linear(m) => Table::Linear(m.to_model()),
            CompiledModel::Stacked(m) => {
                Table::Stacked(m.meta.to_model(), m.members.iter().map(Table::of).collect())
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

/// A model bound to one request matrix (see [`CompiledModel::bind`]).
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
    Gbdt(&'m CompiledGbdt, Lanes<'m, u32>),
    Forest(&'m CompiledForest, Lanes<'m, f64>),
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
        match &self.inner {
            BoundInner::Gbdt(m, _) => m.n_groups,
            BoundInner::Forest(m, _) => m.leaf_width,
            BoundInner::Linear { model, .. } => score_groups(model.task()),
        }
    }

    /// Evaluates rows `lo..hi`, returning `(hi - lo) * width` values in
    /// row-major order. Row-independent math: the concatenation of
    /// adjacent ranges is bitwise equal to one evaluation of the union.
    pub fn eval_range(&self, lo: usize, hi: usize) -> Vec<f64> {
        match &self.inner {
            BoundInner::Gbdt(m, lanes) => {
                let k = m.n_groups;
                let mut scores = m.init_scores.repeat(hi - lo);
                // Each row adds its trees' leaves in boosting order, the
                // interpreted `raw_scores` order, whatever its block.
                lanes.walk(lo, hi, |t, r, leaf| {
                    scores[r * k + t % k] += m.leaf_value[leaf];
                });
                match m.task {
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
            BoundInner::Forest(m, lanes) => {
                let w = m.leaf_width;
                let n_trees = m.tree_roots.len() as f64;
                let mut out = vec![0.0; (hi - lo) * w];
                lanes.walk(lo, hi, |_, r, leaf| {
                    let vals = &m.values[leaf * w..(leaf + 1) * w];
                    for (o, v) in out[r * w..(r + 1) * w].iter_mut().zip(vals) {
                        *o += *v;
                    }
                });
                for v in &mut out {
                    *v /= n_trees;
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
            BoundInner::Gbdt(m, _) => m.task,
            BoundInner::Forest(m, _) => match m.task {
                Task::Regression => return Pred::from_values(flat),
                Task::Binary | Task::MultiClass(_) => {
                    let n_classes = m.leaf_width;
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
