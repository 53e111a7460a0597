//! Histogram-based gradient-boosted decision trees.
//!
//! One boosting core with three tree-growth policies stands in for the
//! three boosting libraries in the paper's ML layer:
//!
//! * [`Growth::LeafWise`] — best-first growth bounded by `max_leaves`
//!   (LightGBM's strategy);
//! * [`Growth::DepthWise`] — level-by-level growth (XGBoost's classic
//!   strategy), still bounded by `max_leaves`;
//! * [`Growth::Oblivious`] — one shared split per level (CatBoost's
//!   symmetric trees), typically combined with
//!   [`GbdtParams::early_stop_rounds`].
//!
//! Split gains use the second-order formulation with L1/L2 regularization
//! (`reg_alpha`, `reg_lambda`) and `min_child_weight` on the hessian sum;
//! rows and columns can be subsampled (`subsample`, `colsample_bytree`,
//! `colsample_bylevel`). All of these are searched by FLAML (Table 5).

use crate::binning::{BinMapper, BinnedDataset, PreparedBins, PreparedSort, MAX_BIN};
use crate::error::check_params;
use crate::hist::{leaf_value, split_gain, GradPair, HistBuilder, NodeTask, Split};
use crate::link::{sigmoid, softmax_in_place};
use crate::FitError;
use flaml_data::{DatasetView, Task};
use flaml_metrics::Pred;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Tree growth policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Growth {
    /// Best-first (leaf-wise) growth: repeatedly split the leaf with the
    /// highest gain until `max_leaves` is reached.
    LeafWise,
    /// Level-by-level (depth-wise) growth until `max_leaves` is reached.
    DepthWise,
    /// Oblivious (symmetric) trees: all leaves of a level share one split.
    Oblivious,
}

/// Hyperparameters of the [`Gbdt`] learner, mirroring the paper's Table 5.
#[derive(Debug, Clone, PartialEq)]
pub struct GbdtParams {
    /// Number of boosting rounds ("tree num").
    pub n_trees: usize,
    /// Maximum leaves per tree ("leaf num").
    pub max_leaves: usize,
    /// Minimum hessian sum required in each child.
    pub min_child_weight: f64,
    /// Shrinkage applied to each tree's leaf values.
    pub learning_rate: f64,
    /// Row subsample fraction per tree, in `(0, 1]`.
    pub subsample: f64,
    /// L1 regularization on leaf values.
    pub reg_alpha: f64,
    /// L2 regularization on leaf values.
    pub reg_lambda: f64,
    /// Column subsample fraction per tree, in `(0, 1]`.
    pub colsample_bytree: f64,
    /// Column subsample fraction per level, in `(0, 1]`.
    pub colsample_bylevel: f64,
    /// Maximum histogram bins per feature. Values below 2 are clamped
    /// to 2 (fewer value bins cannot express a split); values above
    /// 65535 are rejected, because bin indices are stored in two bytes.
    pub max_bin: usize,
    /// Tree growth policy.
    pub growth: Growth,
    /// If set, hold out 10% of the training rows and stop after this many
    /// rounds without validation improvement (CatBoost-style).
    pub early_stop_rounds: Option<usize>,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_trees: 100,
            max_leaves: 31,
            min_child_weight: 1e-3,
            learning_rate: 0.1,
            subsample: 1.0,
            reg_alpha: 1e-10,
            reg_lambda: 1.0,
            colsample_bytree: 1.0,
            colsample_bylevel: 1.0,
            max_bin: 255,
            growth: Growth::LeafWise,
            early_stop_rounds: None,
        }
    }
}

impl GbdtParams {
    /// The first out-of-range hyperparameter, in declaration order.
    fn validate(&self) -> Result<(), FitError> {
        let outside = |v: f64, hi: f64| !(v > 0.0 && v <= hi);
        let (leaves, lr) = (self.max_leaves as f64, self.learning_rate);
        let (sub, mcw) = (self.subsample, self.min_child_weight);
        let (tree, level) = (self.colsample_bytree, self.colsample_bylevel);
        let (bins, reg) = (self.max_bin as f64, self.reg_alpha.min(self.reg_lambda));
        let unit = "must be in (0, 1]";
        check_params(&[
            (self.n_trees == 0, "n_trees", 0.0, "must be >= 1"),
            (leaves < 2.0, "max_leaves", leaves, "must be >= 2"),
            (outside(lr, 2.0), "learning_rate", lr, "must be in (0, 2]"),
            (outside(sub, 1.0), "subsample", sub, unit),
            (outside(tree, 1.0), "colsample_bytree", tree, unit),
            (outside(level, 1.0), "colsample_bylevel", level, unit),
            (mcw < 0.0, "min_child_weight", mcw, "must be >= 0"),
            (self.max_bin > MAX_BIN, "max_bin", bins, "must be <= 65535"),
            (reg < 0.0, "reg_alpha/reg_lambda", reg, "must be >= 0"),
        ])
    }
}

/// The gradient-boosting learner. Construct models via [`Gbdt::fit`].
#[derive(Debug, Clone, Copy)]
pub struct Gbdt;

/// A tree as it is exported, plus each node's split gain (0 for leaves),
/// which feeds gain-weighted feature importance.
#[derive(Debug, Clone, Default)]
struct Tree {
    nodes: Vec<GbdtNode>,
    gains: Vec<f64>,
}

impl Tree {
    /// Appends a leaf and returns its index.
    fn push_leaf(&mut self, value: f64) -> usize {
        self.nodes.push(GbdtNode {
            leaf_value: value,
            is_leaf: true,
            ..GbdtNode::default()
        });
        self.gains.push(0.0);
        self.nodes.len() - 1
    }

    /// Evaluates the tree on pre-binned feature columns for row `row`.
    fn eval_binned(&self, binned: &BinnedDataset, row: usize) -> f64 {
        let mut at = 0usize;
        loop {
            let node = &self.nodes[at];
            if node.is_leaf {
                return node.leaf_value;
            }
            let bin = binned.column(node.feature as usize)[row];
            at = if u32::from(bin) <= node.threshold {
                node.left as usize
            } else {
                node.right as usize
            };
        }
    }
}

/// One flattened boosted-tree node, as exported to the serving layer.
/// Thresholds are bin indices (a row goes left when `bin <= threshold`;
/// `NaN` always bins to 0, the leftmost bin); child indices are local to
/// the exporting tree.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GbdtNode {
    /// Feature column the node splits on (0 for leaves).
    pub feature: u32,
    /// Bin-index split threshold (0 for leaves).
    pub threshold: u32,
    /// Tree-local index of the left child (0 for leaves).
    pub left: u32,
    /// Tree-local index of the right child (0 for leaves).
    pub right: u32,
    /// Leaf value (0 for internal nodes).
    pub leaf_value: f64,
    /// Whether the node is a leaf.
    pub is_leaf: bool,
}

/// A trained gradient-boosting model.
#[derive(Debug, Clone)]
pub struct GbdtModel {
    mapper: BinMapper,
    /// Trees grouped by round: `trees[round * n_groups + class]`.
    trees: Vec<Tree>,
    n_groups: usize,
    init_scores: Vec<f64>,
    task: Task,
    n_features: usize,
}

impl GbdtModel {
    /// The fitted bin mapper (serving artifacts store its cut points).
    pub fn mapper(&self) -> &BinMapper {
        &self.mapper
    }

    /// Number of score groups per row: 1 for regression/binary, `k` for
    /// `k`-class tasks.
    pub fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// Per-group initial scores added to every row before boosting.
    pub fn init_scores(&self) -> &[f64] {
        &self.init_scores
    }

    /// The task the model was trained for.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Number of feature columns the model was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Flattened per-tree node lists in boosting order (tree `t` scores
    /// group `t % n_groups`), for compilation into a serving artifact.
    pub fn export_trees(&self) -> Vec<Vec<GbdtNode>> {
        self.trees.iter().map(|tree| tree.nodes.clone()).collect()
    }
    /// Gain-weighted feature importance, normalized to sum to 1 (all
    /// zeros if no tree ever split). Weighting by objective gain rather
    /// than split count keeps the tie-break splits of already-pure nodes
    /// (whose gain is ~0 but positive under L2 regularization) from
    /// diluting the features that actually reduce the loss.
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut counts = vec![0.0; self.n_features];
        for tree in &self.trees {
            for (node, gain) in tree.nodes.iter().zip(&tree.gains) {
                if !node.is_leaf {
                    counts[node.feature as usize] += gain.max(0.0);
                }
            }
        }
        crate::normalized(counts)
    }

    /// Raw (margin) scores per row and group, before the link function.
    ///
    /// Rows are binned once up front and every tree is evaluated on the
    /// pre-binned matrix, instead of re-binning each feature value at
    /// every tree traversal; `bin` is deterministic per value, so the
    /// scores are identical to per-row re-binning.
    pub fn raw_scores(&self, data: impl Into<DatasetView>) -> Vec<f64> {
        let data: DatasetView = data.into();
        assert_eq!(
            data.n_features(),
            self.n_features,
            "predicting with a different feature count"
        );
        let n = data.n_rows();
        let k = self.n_groups;
        let binned = self.mapper.transform(&data);
        let mut scores = self.init_scores.repeat(n);
        for (t, tree) in self.trees.iter().enumerate() {
            let c = t % k;
            for (i, slot) in scores.chunks_exact_mut(k).enumerate() {
                slot[c] += tree.eval_binned(&binned, i);
            }
        }
        scores
    }

    /// Predicts class probabilities (classification) or values
    /// (regression).
    ///
    /// # Panics
    ///
    /// Panics if `data` has a different number of features than the
    /// training data.
    pub fn predict(&self, data: impl Into<DatasetView>) -> Pred {
        let raw = self.raw_scores(data);
        match self.task {
            Task::Regression => Pred::from_values(raw),
            Task::Binary => Pred::binary_probs(raw.iter().map(|&f| sigmoid(f)).collect()),
            Task::MultiClass(k) => {
                let mut p = raw;
                for row in p.chunks_exact_mut(k) {
                    softmax_in_place(row);
                }
                Pred::Probs { n_classes: k, p }
            }
        }
    }
}

impl Gbdt {
    /// Fits a boosting model. Accepts anything convertible into a
    /// [`DatasetView`] (`&Dataset`, `&DatasetView`, ...).
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] for out-of-range hyperparameters or unusable
    /// data (single-class classification training set).
    pub fn fit(
        data: impl Into<DatasetView>,
        params: &GbdtParams,
        seed: u64,
    ) -> Result<GbdtModel, FitError> {
        Self::fit_prepared(data, params, seed, None, None)
    }

    /// Like [`Gbdt::fit`] but stops adding trees once `budget` elapses,
    /// returning the model built so far (at least one round), as FLAML
    /// passes the remaining time budget into each trial; and reuses a
    /// [`PreparedBins`] artifact (shared bin cuts plus the pre-binned
    /// feature matrix) when one is supplied for the same `max_bin` and shape as `data`; a mismatched
    /// or absent artifact falls back to binning in place, through the same
    /// [`PreparedSort`] → [`PreparedBins`] path, so the fitted model is
    /// bit-identical either way.
    ///
    /// # Errors
    ///
    /// Same as [`Gbdt::fit`].
    pub fn fit_prepared(
        data: impl Into<DatasetView>,
        params: &GbdtParams,
        seed: u64,
        budget: Option<Duration>,
        prepared: Option<&PreparedBins>,
    ) -> Result<GbdtModel, FitError> {
        // `start` is captured before binning so the budget covers the
        // whole fit.
        let start = Instant::now();
        let data: DatasetView = data.into();
        params.validate()?;
        let n = data.n_rows();
        let task = data.task();
        let n_groups = match task {
            Task::Regression | Task::Binary => 1,
            Task::MultiClass(k) => k,
        };
        let shape = (params.max_bin, n, data.n_features());
        let fits = |p: &&PreparedBins| {
            (p.max_bin(), p.binned().n_rows(), p.mapper().n_features()) == shape
        };
        let bin_here =
            || PreparedBins::prepare(&PreparedSort::compute(&data), &data, params.max_bin);
        let prepared = prepared
            .filter(fits)
            .map_or_else(|| Cow::Owned(bin_here()), Cow::Borrowed);
        let (mapper, binned) = (prepared.mapper().clone(), prepared.binned());
        let y = data.gather_target();

        // Early-stopping holdout: every 10th row (the controller shuffles
        // data, so a stride is a random sample).
        let early_stop = params.early_stop_rounds.filter(|_| n >= 20);
        let (train_rows, valid_rows): (Vec<u32>, Vec<u32>) =
            (0..n as u32).partition(|i| early_stop.is_none() || i % 10 != 9);

        let init_scores = init_scores(task, &y, &train_rows)?;
        let mut scores = init_scores.repeat(n);
        // Per-row `[gradient, hessian]` of the group being fitted.
        let mut gh: Vec<GradPair> = vec![[0.0; 2]; n];
        // `0..n_features`, built once: what column sampling draws from.
        let all_features: Vec<u32> = (0..data.n_features() as u32).collect();
        // This round's row subsample (unused when `subsample == 1`).
        let mut sampled_rows: Vec<u32> = Vec::new();
        let mut hist = HistBuilder::default();
        // The arena range of each node of the tree just grown.
        let mut node_rows: Vec<Range<usize>> = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trees: Vec<Tree> = Vec::new();
        let (mut best_valid, mut best_round, mut rounds_since_best) = (f64::INFINITY, 0, 0);

        for round in 0..params.n_trees {
            // The budget never stops round 0: a fit returns at least one
            // round.
            if round > 0 && budget.is_some_and(|b| start.elapsed() >= b) {
                break;
            }
            // Row subsample for this round (shared across groups): one
            // draw per training row.
            sampled_rows.clear();
            if params.subsample < 1.0 {
                sampled_rows.extend(
                    train_rows
                        .iter()
                        .filter(|_| rng.gen::<f64>() < params.subsample),
                );
            }
            let rows: &[u32] = if sampled_rows.is_empty() {
                &train_rows
            } else {
                &sampled_rows
            };

            for c in 0..n_groups {
                compute_gradients(task, &y, &scores, n_groups, c, &mut gh);
                let tree = TreeGrower {
                    binned,
                    gh: &gh,
                    params,
                    rng: &mut rng,
                    hist: &mut hist,
                    node_rows: &mut node_rows,
                }
                .grow(rows, &all_features);
                // Update scores on all rows (train + valid) for the group.
                add_tree_scores(
                    &tree,
                    &hist,
                    &node_rows,
                    rows,
                    binned,
                    &mut scores,
                    (n_groups, c),
                );
                trees.push(tree);
            }

            // Early stopping on the internal holdout; a patience of 0
            // stops like a patience of 1.
            if let Some(patience) = early_stop {
                let loss = holdout_loss(task, &y, &scores, n_groups, &valid_rows);
                if loss < best_valid - 1e-12 {
                    best_valid = loss;
                    best_round = round;
                    rounds_since_best = 0;
                } else {
                    rounds_since_best += 1;
                    if rounds_since_best >= patience.max(1) {
                        break;
                    }
                }
            }
        }

        // Truncate to the best round when early stopping was active.
        if early_stop.is_some() {
            trees.truncate((best_round + 1) * n_groups);
        }
        if trees.is_empty() {
            let mut tree = Tree::default();
            tree.push_leaf(0.0);
            trees.push(tree);
        }
        Ok(GbdtModel {
            mapper,
            trees,
            n_groups,
            init_scores,
            task,
            n_features: data.n_features(),
        })
    }
}

fn init_scores(task: Task, y: &[f64], rows: &[u32]) -> Result<Vec<f64>, FitError> {
    match task {
        Task::Regression => {
            let mean = rows.iter().map(|&i| y[i as usize]).sum::<f64>() / rows.len() as f64;
            Ok(vec![mean])
        }
        Task::Binary => {
            let pos = rows.iter().filter(|&&i| y[i as usize] == 1.0).count();
            if pos == 0 || pos == rows.len() {
                return Err(FitError::BadData(
                    "binary training sample contains a single class".into(),
                ));
            }
            let p = pos as f64 / rows.len() as f64;
            Ok(vec![(p / (1.0 - p)).ln()])
        }
        Task::MultiClass(k) => {
            let mut counts = vec![0usize; k];
            for &i in rows {
                counts[y[i as usize] as usize] += 1;
            }
            // Laplace smoothing keeps init finite for absent classes.
            let total = rows.len() as f64 + k as f64;
            Ok(counts
                .iter()
                .map(|&c| ((c as f64 + 1.0) / total).ln())
                .collect())
        }
    }
}

fn compute_gradients(
    task: Task,
    y: &[f64],
    scores: &[f64],
    n_groups: usize,
    class: usize,
    gh: &mut [GradPair],
) {
    match task {
        Task::Regression => {
            for i in 0..y.len() {
                gh[i] = [scores[i] - y[i], 1.0];
            }
        }
        Task::Binary => {
            for i in 0..y.len() {
                let p = sigmoid(scores[i]);
                gh[i] = [p - y[i], (p * (1.0 - p)).max(1e-16)];
            }
        }
        Task::MultiClass(k) => {
            for i in 0..y.len() {
                let row = &scores[i * n_groups..i * n_groups + k];
                let p = softmax_at(row, class);
                let target = f64::from(y[i] as usize == class);
                gh[i] = [p - target, (2.0 * p * (1.0 - p)).max(1e-16)];
            }
        }
    }
    // The histogram engine tells a bin holding rows by its hessian sum.
    debug_assert!(gh.iter().all(|&[_, h]| h > 0.0), "a hessian is not > 0");
}

/// Adds `tree`'s value to `scores[row * n_groups + c]` for every row,
/// once, as a walk per row would. The tree was just grown by `hist` on
/// the ascending rows `sample`, node `i` owning arena range
/// `node_rows[i]`: a leaf's value goes to the rows of its range (the
/// sampled rows the tree routes to it); only the other rows walk.
fn add_tree_scores(
    tree: &Tree,
    hist: &HistBuilder,
    node_rows: &[Range<usize>],
    sample: &[u32],
    binned: &BinnedDataset,
    scores: &mut [f64],
    (n_groups, c): (usize, usize),
) {
    for (node, range) in tree.nodes.iter().zip(node_rows) {
        if node.is_leaf {
            for &r in hist.rows(range) {
                scores[r as usize * n_groups + c] += node.leaf_value;
            }
        }
    }
    let n = scores.len() / n_groups;
    if sample.len() < n {
        let mut sampled = sample.iter().copied().peekable();
        for i in 0..n {
            if sampled.next_if_eq(&(i as u32)).is_none() {
                scores[i * n_groups + c] += tree.eval_binned(binned, i);
            }
        }
    }
}

/// The softmax probability of `class` in one row of raw scores.
fn softmax_at(row: &[f64], class: usize) -> f64 {
    let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let denom: f64 = row.iter().map(|&v| (v - max).exp()).sum();
    (row[class] - max).exp() / denom
}

fn holdout_loss(task: Task, y: &[f64], scores: &[f64], n_groups: usize, rows: &[u32]) -> f64 {
    let mut total = 0.0;
    match task {
        Task::Regression => {
            for &i in rows {
                let d = scores[i as usize] - y[i as usize];
                total += d * d;
            }
        }
        Task::Binary => {
            for &i in rows {
                let p = sigmoid(scores[i as usize]).clamp(1e-15, 1.0 - 1e-15);
                total -= if y[i as usize] == 1.0 {
                    p.ln()
                } else {
                    (1.0 - p).ln()
                };
            }
        }
        Task::MultiClass(k) => {
            for &i in rows {
                let row = &scores[i as usize * n_groups..i as usize * n_groups + k];
                let p = softmax_at(row, y[i as usize] as usize).clamp(1e-15, 1.0 - 1e-15);
                total -= p.ln();
            }
        }
    }
    total / rows.len() as f64
}

/// Draws `ceil(fraction * len)` of `all` without replacement (a partial
/// Fisher-Yates); at `fraction >= 1` borrows `all` and draws nothing.
fn sample_features<'a>(all: &'a [u32], fraction: f64, rng: &mut StdRng) -> Cow<'a, [u32]> {
    if fraction >= 1.0 {
        return Cow::Borrowed(all);
    }
    let want = ((all.len() as f64 * fraction).ceil() as usize).clamp(1, all.len());
    let mut pool = all.to_vec();
    for i in 0..want {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(want);
    Cow::Owned(pool)
}

/// Everything one tree's growth reads: the binned matrix, this group's
/// gradients, the parameters, the fit's RNG and its histogram engine.
struct TreeGrower<'a> {
    binned: &'a BinnedDataset,
    gh: &'a [GradPair],
    params: &'a GbdtParams,
    rng: &'a mut StdRng,
    hist: &'a mut HistBuilder,
    /// Filled with the arena range of each node, by node index.
    node_rows: &'a mut Vec<Range<usize>>,
}

impl TreeGrower<'_> {
    /// Grows one tree over `rows` under the configured growth policy.
    fn grow(mut self, rows: &[u32], all_features: &[u32]) -> Tree {
        let tree_features = sample_features(all_features, self.params.colsample_bytree, self.rng);
        let g_sum: f64 = rows.iter().map(|&r| self.gh[r as usize][0]).sum();
        let h_sum: f64 = rows.iter().map(|&r| self.gh[r as usize][1]).sum();
        let mut tree = Tree::default();
        tree.push_leaf(leaf_value(g_sum, h_sum, self.params));
        let root = NodeTask {
            node: 0,
            rows: self.hist.start_tree(self.binned, rows),
            g_sum,
            h_sum,
        };
        self.node_rows.clear();
        self.node_rows.push(root.rows.clone());
        match self.params.growth {
            Growth::LeafWise => self.grow_leaf_wise(&tree_features, &mut tree, root),
            Growth::DepthWise => self.grow_depth_wise(&tree_features, &mut tree, root),
            Growth::Oblivious => self.grow_oblivious(&tree_features, &mut tree, root),
        }
        tree
    }

    fn best_split(&mut self, features: &[u32], task: &NodeTask) -> Option<Split> {
        self.hist
            .best_split(self.binned, self.gh, features, task, self.params)
    }

    /// Applies `split` to `task`'s node: partitions its rows, pushes two
    /// child leaves onto the tree and returns their tasks.
    fn apply_split(&mut self, tree: &mut Tree, task: NodeTask, split: Split) -> [NodeTask; 2] {
        let mid = self
            .hist
            .partition(self.binned, &task.rows, split.feature, split.threshold);
        let left_id = tree.nodes.len();
        let children = [
            (task.rows.start..mid, split.left_g, split.left_h),
            (mid..task.rows.end, split.right_g, split.right_h),
        ];
        tree.gains[task.node] = split.gain;
        let parent = &mut tree.nodes[task.node];
        parent.is_leaf = false;
        parent.feature = split.feature;
        parent.threshold = split.threshold;
        parent.left = left_id as u32;
        parent.right = left_id as u32 + 1;
        let params = self.params;
        children.map(|(rows, g_sum, h_sum)| {
            let node = tree.push_leaf(leaf_value(g_sum, h_sum, params));
            self.node_rows.push(rows.clone());
            NodeTask {
                node,
                rows,
                g_sum,
                h_sum,
            }
        })
    }

    /// Samples `task`'s level features and queues it if it has a split
    /// and the tree `may_grow`. The sample is drawn either way.
    fn push_candidate(
        &mut self,
        tree_features: &[u32],
        task: NodeTask,
        may_grow: bool,
        candidates: &mut Vec<(NodeTask, Split)>,
    ) {
        let feats = sample_features(tree_features, self.params.colsample_bylevel, self.rng);
        if !may_grow {
            return;
        }
        if let Some(s) = self.best_split(&feats, &task) {
            candidates.push((task, s));
        }
    }

    fn grow_leaf_wise(&mut self, tree_features: &[u32], tree: &mut Tree, root: NodeTask) {
        // Candidate leaves with their best splits; pick the max gain greedily.
        let mut candidates: Vec<(NodeTask, Split)> = Vec::new();
        self.push_candidate(tree_features, root, true, &mut candidates);
        let mut n_leaves = 1usize;
        while n_leaves < self.params.max_leaves && !candidates.is_empty() {
            let best_idx = candidates
                .iter()
                .enumerate()
                .max_by(|a, b| a.1 .1.gain.partial_cmp(&b.1 .1.gain).unwrap())
                .map(|(i, _)| i)
                .expect("non-empty candidates");
            let (task, split) = candidates.swap_remove(best_idx);
            n_leaves += 1;
            // The split that reaches `max_leaves` ends the tree, so its
            // children's splits could never be taken.
            let may_grow = n_leaves < self.params.max_leaves;
            for child in self.apply_split(tree, task, split) {
                if child.rows.len() >= 2 {
                    self.push_candidate(tree_features, child, may_grow, &mut candidates);
                }
            }
        }
    }

    fn grow_depth_wise(&mut self, tree_features: &[u32], tree: &mut Tree, root: NodeTask) {
        let mut level = vec![root];
        let mut n_leaves = 1usize;
        while !level.is_empty() && n_leaves < self.params.max_leaves {
            let feats = sample_features(tree_features, self.params.colsample_bylevel, self.rng);
            let mut next = Vec::new();
            for task in level {
                if n_leaves >= self.params.max_leaves || task.rows.len() < 2 {
                    continue;
                }
                if let Some(split) = self.best_split(&feats, &task) {
                    next.extend(self.apply_split(tree, task, split));
                    n_leaves += 1;
                }
            }
            level = next;
        }
    }

    fn grow_oblivious(&mut self, tree_features: &[u32], tree: &mut Tree, root: NodeTask) {
        let depth_cap = (self.params.max_leaves as f64).log2().ceil().max(1.0) as usize;
        let mut level = vec![root];
        for _ in 0..depth_cap {
            let feats = sample_features(tree_features, self.params.colsample_bylevel, self.rng);
            // The single (feature, threshold) with the best *total* gain
            // across all leaves of the level.
            let Some((feature, threshold)) =
                self.hist
                    .best_level_split(self.binned, self.gh, &feats, &level, self.params)
            else {
                break;
            };
            let col = self.binned.column(feature as usize);
            let mut next = Vec::with_capacity(2 * level.len());
            for task in level {
                // Recompute the per-leaf stats for the shared condition,
                // in row order: this sum, not the histogram prefix, is
                // what the children's leaf values are made of.
                let mut lg = 0.0;
                let mut lh = 0.0;
                for &r in self.hist.rows(&task.rows) {
                    if u32::from(col[r as usize]) <= threshold {
                        lg += self.gh[r as usize][0];
                        lh += self.gh[r as usize][1];
                    }
                }
                // This leaf's share of the level's total gain (can be
                // negative for leaves the shared condition fits poorly).
                let (rg, rh) = (task.g_sum - lg, task.h_sum - lh);
                let parent_obj = task.objective(self.params);
                let split = Split {
                    feature,
                    threshold,
                    gain: split_gain([lg, lh], [rg, rh], parent_obj, self.params),
                    left_g: lg,
                    left_h: lh,
                    right_g: rg,
                    right_h: rh,
                };
                next.extend(self.apply_split(tree, task, split));
            }
            level = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flaml_data::Dataset;
    use flaml_metrics::Metric;
    use rand::Rng;

    fn step_data(n: usize) -> Dataset {
        let x: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| f64::from(v > 0.5)).collect();
        Dataset::new("step", Task::Binary, vec![x], y).unwrap()
    }

    fn xor_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let y: Vec<f64> = x0
            .iter()
            .zip(&x1)
            .map(|(&a, &b)| f64::from((a > 0.5) != (b > 0.5)))
            .collect();
        Dataset::new("xor", Task::Binary, vec![x0, x1], y).unwrap()
    }

    fn sine_regression(n: usize) -> Dataset {
        let x: Vec<f64> = (0..n).map(|i| i as f64 / n as f64 * 6.0).collect();
        let y: Vec<f64> = x.iter().map(|&v| v.sin() * 3.0 + 1.0).collect();
        Dataset::new("sine", Task::Regression, vec![x], y).unwrap()
    }

    #[test]
    fn learns_step_function() {
        let d = step_data(400);
        let m = Gbdt::fit(&d, &GbdtParams::default(), 0).unwrap();
        let loss = Metric::RocAuc.loss(&m.predict(&d), d.target()).unwrap();
        assert!(loss < 0.01, "auc regret {loss} too high");
    }

    #[test]
    fn learns_xor_all_growth_policies() {
        let d = xor_data(800, 1);
        for growth in [Growth::LeafWise, Growth::DepthWise, Growth::Oblivious] {
            let params = GbdtParams {
                growth,
                n_trees: 60,
                ..GbdtParams::default()
            };
            let m = Gbdt::fit(&d, &params, 0).unwrap();
            let loss = Metric::Accuracy.loss(&m.predict(&d), d.target()).unwrap();
            assert!(loss < 0.06, "{growth:?} train error {loss} too high");
        }
    }

    #[test]
    fn regression_fits_sine() {
        let d = sine_regression(500);
        let params = GbdtParams {
            n_trees: 150,
            ..GbdtParams::default()
        };
        let m = Gbdt::fit(&d, &params, 0).unwrap();
        let r2_loss = Metric::R2.loss(&m.predict(&d), d.target()).unwrap();
        assert!(r2_loss < 0.02, "1 - r2 = {r2_loss}");
    }

    #[test]
    fn multiclass_probabilities_sum_to_one() {
        let n = 300;
        let x: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| (v * 3.0).floor().min(2.0)).collect();
        let d = Dataset::new("3c", Task::MultiClass(3), vec![x], y).unwrap();
        let m = Gbdt::fit(&d, &GbdtParams::default(), 0).unwrap();
        let pred = m.predict(&d);
        let (k, p) = pred.probs().unwrap();
        assert_eq!(k, 3);
        for row in p.chunks_exact(3) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        let loss = Metric::Accuracy.loss(&m.predict(&d), d.target()).unwrap();
        assert!(loss < 0.05);
    }

    #[test]
    fn more_leaves_fit_training_data_better() {
        let d = xor_data(600, 3);
        let small = Gbdt::fit(
            &d,
            &GbdtParams {
                max_leaves: 2,
                n_trees: 20,
                ..GbdtParams::default()
            },
            0,
        )
        .unwrap();
        let large = Gbdt::fit(
            &d,
            &GbdtParams {
                max_leaves: 64,
                n_trees: 20,
                ..GbdtParams::default()
            },
            0,
        )
        .unwrap();
        let l_small = Metric::LogLoss
            .loss(&small.predict(&d), d.target())
            .unwrap();
        let l_large = Metric::LogLoss
            .loss(&large.predict(&d), d.target())
            .unwrap();
        assert!(
            l_large < l_small,
            "64-leaf trees ({l_large}) must beat stumps ({l_small}) on train"
        );
    }

    #[test]
    fn heavy_regularization_shrinks_leaf_values() {
        let d = sine_regression(200);
        let free = Gbdt::fit(
            &d,
            &GbdtParams {
                n_trees: 5,
                reg_lambda: 1e-10,
                ..GbdtParams::default()
            },
            0,
        )
        .unwrap();
        let reg = Gbdt::fit(
            &d,
            &GbdtParams {
                n_trees: 5,
                reg_lambda: 1000.0,
                ..GbdtParams::default()
            },
            0,
        )
        .unwrap();
        let spread = |m: &GbdtModel, d: &Dataset| {
            let v = m.raw_scores(d);
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - mean).abs()).fold(0.0, f64::max)
        };
        assert!(spread(&reg, &d) < spread(&free, &d));
    }

    #[test]
    fn min_child_weight_limits_splits() {
        let d = xor_data(200, 5);
        let m = Gbdt::fit(
            &d,
            &GbdtParams {
                min_child_weight: 1e9,
                n_trees: 3,
                ..GbdtParams::default()
            },
            0,
        )
        .unwrap();
        // No split can satisfy the hessian constraint => all trees are
        // single leaves.
        assert_eq!(m.total_leaves(), 3);
    }

    #[test]
    fn early_stopping_truncates_rounds() {
        // 20% label noise: past some round the validation loss can only
        // get worse, so patience must fire well before the round cap.
        let mut rng = StdRng::seed_from_u64(7);
        let n = 500;
        let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let y: Vec<f64> = x0
            .iter()
            .zip(&x1)
            .map(|(&a, &b)| {
                let clean = f64::from((a > 0.5) != (b > 0.5));
                if rng.gen::<f64>() < 0.2 {
                    1.0 - clean
                } else {
                    clean
                }
            })
            .collect();
        let d = Dataset::new("noisy-xor", Task::Binary, vec![x0, x1], y).unwrap();
        let m = Gbdt::fit(
            &d,
            &GbdtParams {
                n_trees: 400,
                early_stop_rounds: Some(5),
                growth: Growth::Oblivious,
                max_leaves: 16,
                learning_rate: 0.3,
                ..GbdtParams::default()
            },
            0,
        )
        .unwrap();
        assert!(
            m.n_rounds() < 400,
            "early stopping should cut {} rounds",
            m.n_rounds()
        );
    }

    #[test]
    fn nan_features_are_handled() {
        let mut x: Vec<f64> = (0..200).map(|i| i as f64 / 200.0).collect();
        for i in (0..200).step_by(7) {
            x[i] = f64::NAN;
        }
        let y: Vec<f64> = (0..200).map(|i| f64::from(i >= 100)).collect();
        let d = Dataset::new("nan", Task::Binary, vec![x], y).unwrap();
        let m = Gbdt::fit(&d, &GbdtParams::default(), 0).unwrap();
        let pred = m.predict(&d);
        for &p in &pred.positive_scores().unwrap() {
            assert!(p.is_finite());
        }
    }

    #[test]
    fn validates_params() {
        let d = step_data(50);
        for bad in [
            GbdtParams {
                n_trees: 0,
                ..GbdtParams::default()
            },
            GbdtParams {
                max_leaves: 1,
                ..GbdtParams::default()
            },
            GbdtParams {
                learning_rate: 0.0,
                ..GbdtParams::default()
            },
            GbdtParams {
                subsample: 0.0,
                ..GbdtParams::default()
            },
            GbdtParams {
                reg_alpha: -1.0,
                ..GbdtParams::default()
            },
        ] {
            assert!(Gbdt::fit(&d, &bad, 0).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn max_bin_is_clamped_below_and_rejected_above() {
        let d = xor_data(200, 4);
        let with = |max_bin: usize| GbdtParams {
            max_bin,
            n_trees: 3,
            ..GbdtParams::default()
        };
        // Below two value bins: clamped to 2, the same model.
        let two = Gbdt::fit(&d, &with(2), 0).unwrap().raw_scores(&d);
        for low in [0, 1] {
            assert_eq!(Gbdt::fit(&d, &with(low), 0).unwrap().raw_scores(&d), two);
        }
        // The last max_bin whose bin indices fit two bytes, and the
        // first that would wrap them.
        assert!(Gbdt::fit(&d, &with(65_535), 0).is_ok());
        assert_eq!(
            Gbdt::fit(&d, &with(65_536), 0).err(),
            Some(FitError::BadParam {
                name: "max_bin",
                value: 65_536.0,
                constraint: "must be <= 65535",
            })
        );
    }

    #[test]
    fn single_class_binary_is_bad_data() {
        let d = Dataset::new(
            "one",
            Task::Binary,
            vec![vec![1.0, 2.0, 3.0]],
            vec![1.0, 1.0, 1.0],
        )
        .unwrap();
        assert!(matches!(
            Gbdt::fit(&d, &GbdtParams::default(), 0),
            Err(FitError::BadData(_))
        ));
    }

    impl GbdtModel {
        /// Number of boosting rounds kept (after early stopping).
        fn n_rounds(&self) -> usize {
            self.trees.len() / self.n_groups
        }

        /// Total number of leaves across all trees.
        fn total_leaves(&self) -> usize {
            self.trees.iter().map(Tree::n_leaves).sum()
        }
    }

    impl Tree {
        fn n_leaves(&self) -> usize {
            self.nodes.iter().filter(|n| n.is_leaf).count()
        }
    }

    /// Every bit of a model: cuts, nodes and initial scores.
    fn model_bits(m: &GbdtModel) -> Vec<u64> {
        let cuts = m.mapper().cuts().iter().flatten().map(|v| v.to_bits());
        let nodes = m.export_trees().into_iter().flatten().flat_map(|n| {
            let links = [n.feature, n.threshold, n.left, n.right].map(u64::from);
            links
                .into_iter()
                .chain([n.leaf_value.to_bits(), u64::from(n.is_leaf)])
        });
        let init = m.init_scores().iter().map(|v| v.to_bits());
        cuts.chain(nodes).chain(init).collect()
    }

    #[test]
    fn an_artifact_of_another_shape_is_not_used() {
        let d = xor_data(300, 11);
        let params = GbdtParams {
            n_trees: 5,
            ..GbdtParams::default()
        };
        let want = model_bits(&Gbdt::fit_prepared(&d, &params, 1, None, None).unwrap());
        // Fewer rows, more rows, more features: each is binned in place.
        let wide = Dataset::new(
            "wide",
            Task::Binary,
            vec![
                d.column(0).to_vec(),
                d.column(1).to_vec(),
                d.column(0).to_vec(),
            ],
            d.target().to_vec(),
        )
        .unwrap();
        for other in [d.view().prefix(200), xor_data(400, 12).view(), wide.view()] {
            let sort = PreparedSort::compute(&other);
            let prepared = PreparedBins::prepare(&sort, &other, params.max_bin);
            let got = Gbdt::fit_prepared(&d, &params, 1, None, Some(&prepared)).unwrap();
            assert_eq!(model_bits(&got), want, "{} rows", other.n_rows());
        }
    }

    proptest::proptest! {
        #[test]
        fn leaf_range_scores_equal_the_per_row_walk(
            seed in 0u64..1_000_000_000,
            n in proptest::prop_oneof![
                proptest::strategy::Just(2usize),
                proptest::strategy::Just(3),
                // One holdout row: the only row outside a full sample.
                proptest::strategy::Just(10),
                proptest::strategy::Just(19),
                proptest::strategy::Just(41),
                proptest::strategy::Just(257),
                proptest::strategy::Just(1_500),
            ],
            growth in 0usize..3,
            max_leaves in 2usize..40,
            subsample in 0u8..2,
            early_stop in 0u8..2,
            n_groups in 1usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cols: Vec<Vec<f64>> = (0..3)
                .map(|_| {
                    (0..n)
                        .map(|_| match rng.gen_range(0..10) {
                            0 => f64::NAN,
                            1 => -0.0,
                            2 => 0.0,
                            k => f64::from(rng.gen_range(0..k * 40)),
                        })
                        .collect()
                })
                .collect();
            let y = (0..n).map(|_| rng.gen::<f64>()).collect();
            let d = Dataset::new("scores", Task::Regression, cols, y).unwrap();
            let max_bin = [2, 7, 63, 255, 1023][rng.gen_range(0..5)];
            let prepared = PreparedBins::prepare(&PreparedSort::compute(&d), &d, max_bin);
            let binned = prepared.binned();
            // The sample a round grows on: the training rows (all, or all
            // but the early-stopping holdout), row-subsampled or not.
            let train: Vec<u32> = (0..n as u32)
                .filter(|i| early_stop == 0 || i % 10 != 9)
                .collect();
            let keep = rng.gen::<f64>();
            let mut sample: Vec<u32> = train
                .iter()
                .copied()
                .filter(|_| subsample == 0 || rng.gen::<f64>() < keep)
                .collect();
            if sample.is_empty() {
                sample = train;
            }
            let gh: Vec<GradPair> = (0..n)
                .map(|_| [rng.gen::<f64>() * 2.0 - 1.0, (rng.gen::<f64>() * 0.25).max(1e-16)])
                .collect();
            let params = GbdtParams {
                max_leaves,
                growth: [Growth::LeafWise, Growth::DepthWise, Growth::Oblivious][growth],
                colsample_bylevel: [1.0, 0.5][rng.gen_range(0..2)],
                min_child_weight: [0.0, 1e-3, 1.0][rng.gen_range(0..3)],
                ..GbdtParams::default()
            };
            let all_features = [0, 1, 2];
            let (mut hist, mut node_rows) = (HistBuilder::default(), Vec::new());
            let tree = TreeGrower {
                binned,
                gh: &gh,
                params: &params,
                rng: &mut rng,
                hist: &mut hist,
                node_rows: &mut node_rows,
            }
            .grow(&sample, &all_features);
            let c = seed as usize % n_groups;
            let before: Vec<f64> = (0..n * n_groups).map(|i| (i as f64).sin()).collect();
            let mut got = before.clone();
            add_tree_scores(&tree, &hist, &node_rows, &sample, binned, &mut got, (n_groups, c));
            let mut want = before;
            for i in 0..n {
                want[i * n_groups + c] += tree.eval_binned(binned, i);
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = xor_data(300, 11);
        let params = GbdtParams {
            subsample: 0.8,
            colsample_bytree: 0.9,
            n_trees: 10,
            ..GbdtParams::default()
        };
        let a = Gbdt::fit(&d, &params, 42).unwrap().raw_scores(&d);
        let b = Gbdt::fit(&d, &params, 42).unwrap().raw_scores(&d);
        assert_eq!(a, b);
    }

    #[test]
    fn budget_bound_caps_rounds() {
        let d = xor_data(2000, 13);
        let params = GbdtParams {
            n_trees: 100_000,
            max_leaves: 64,
            ..GbdtParams::default()
        };
        let m = Gbdt::fit_prepared(&d, &params, 0, Some(Duration::from_millis(50)), None).unwrap();
        assert!(m.n_rounds() < 100_000);
        assert!(m.n_rounds() >= 1);
    }

    #[test]
    fn feature_importance_finds_the_signal() {
        // Feature 0 carries the label; feature 1 is noise.
        let mut rng = StdRng::seed_from_u64(23);
        let n = 400;
        let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let y: Vec<f64> = x0.iter().map(|&v| f64::from(v > 0.5)).collect();
        let d = Dataset::new("imp", Task::Binary, vec![x0, x1], y).unwrap();
        let m = Gbdt::fit(
            &d,
            &GbdtParams {
                n_trees: 20,
                ..GbdtParams::default()
            },
            0,
        )
        .unwrap();
        let imp = m.feature_importance();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.8, "signal feature importance {imp:?}");
    }

    #[test]
    fn oblivious_trees_are_symmetric() {
        let d = xor_data(400, 17);
        let m = Gbdt::fit(
            &d,
            &GbdtParams {
                growth: Growth::Oblivious,
                max_leaves: 8,
                n_trees: 3,
                ..GbdtParams::default()
            },
            0,
        )
        .unwrap();
        // With max_leaves = 8 an oblivious tree has at most 3 levels, and
        // every tree has 2^depth leaves (or 1 if no split found).
        for tree in &m.trees {
            let leaves = tree.n_leaves();
            assert!(
                [1, 2, 4, 8].contains(&leaves),
                "oblivious tree must have power-of-two leaves, got {leaves}"
            );
        }
    }
}
