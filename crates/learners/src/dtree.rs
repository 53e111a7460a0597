//! A classic (non-boosted) decision tree over raw feature values, shared
//! by the random-forest and extra-trees learners.
//!
//! Splits minimize gini impurity, entropy, or variance; the extra-trees
//! variant replaces the threshold search with a single uniformly random
//! threshold per candidate feature (Geurts et al.), which is what the
//! paper's `extra trees` learner does. Missing values travel to the left
//! child.

use crate::binning::ranked;
use flaml_data::DatasetView;
use rand::rngs::StdRng;
use rand::Rng;

/// Split quality criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitCriterion {
    /// Gini impurity (classification).
    Gini,
    /// Information gain / entropy (classification).
    Entropy,
    /// Variance reduction (regression).
    Variance,
}

/// Parameters of a single decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    /// Fraction of features considered at each split, in `(0, 1]`.
    pub max_features: f64,
    /// Split criterion.
    pub criterion: SplitCriterion,
    /// Extra-trees mode: one uniformly random threshold per feature
    /// instead of an exhaustive threshold search.
    pub random_threshold: bool,
    /// Minimum rows in each leaf.
    pub min_samples_leaf: usize,
    /// Optional depth cap.
    pub max_depth: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_features: 1.0,
            criterion: SplitCriterion::Gini,
            random_threshold: false,
            min_samples_leaf: 1,
            max_depth: None,
        }
    }
}

/// A fitted decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<DTreeNode>,
    n_classes: usize,
}

/// One flattened decision-tree node, as stored by the tree and read by
/// the serving layer. Thresholds are raw feature values; a row goes left
/// when [`goes_left`] holds; child indices are local to the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DTreeNode {
    /// Feature column the node splits on (0 for leaves).
    pub feature: u32,
    /// Raw-value split threshold (0 for leaves).
    pub threshold: f64,
    /// Tree-local index of the left child (0 for leaves).
    pub left: u32,
    /// Tree-local index of the right child (0 for leaves).
    pub right: u32,
    /// Whether the node is a leaf.
    pub is_leaf: bool,
    /// Class distribution (classification) or `[mean]` (regression).
    pub value: Vec<f64>,
}

/// Whether row value `v` goes to the left child of a split at `threshold`.
/// Missing values always go left. Public because the compiled serving
/// layer must traverse with exactly these semantics.
#[inline]
pub fn goes_left(v: f64, threshold: f64) -> bool {
    v.is_nan() || v <= threshold
}

impl DecisionTree {
    /// Fits a tree on the view-local rows `rows` of `data` (duplicates
    /// allowed, which is how forests pass bootstrap samples). Accepts
    /// anything convertible into a [`DatasetView`] (`&Dataset`,
    /// `&DatasetView`, ...).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or contains out-of-range indices.
    pub fn fit(
        data: impl Into<DatasetView>,
        rows: &[usize],
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> Self {
        Grower::new(&data.into(), params).grow(rows, rng)
    }

    /// The leaf value vector for view row `row` of `data`: class
    /// distribution for classification, `[mean]` for regression.
    pub fn eval(&self, data: &DatasetView, row: usize) -> &[f64] {
        self.descend(|feature| data.value(row, feature))
    }

    /// Like [`DecisionTree::eval`], but over pre-gathered feature columns
    /// (`cols[j][row]` is the value of feature `j` at row `row`). Gathering
    /// once per predict call and traversing every tree against the plain
    /// slices replaces a per-value row-selection dispatch through the view;
    /// the values are identical, so the leaf reached is identical.
    pub fn eval_cols(&self, cols: &[Vec<f64>], row: usize) -> &[f64] {
        self.descend(|feature| cols[feature][row])
    }

    fn descend(&self, value_of: impl Fn(usize) -> f64) -> &[f64] {
        let mut node = &self.nodes[0];
        while !node.is_leaf {
            let left = goes_left(value_of(node.feature as usize), node.threshold);
            node = &self.nodes[if left { node.left } else { node.right } as usize];
        }
        &node.value
    }

    /// Number of classes the tree predicts (0 for regression).
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Flattened node list for compilation into a serving artifact.
    pub fn export_nodes(&self) -> &[DTreeNode] {
        &self.nodes
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf).count()
    }

    /// Adds one count per internal node to `counts[feature]`.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is shorter than the largest split feature index.
    pub fn accumulate_split_counts(&self, counts: &mut [f64]) {
        for node in &self.nodes {
            if !node.is_leaf {
                counts[node.feature as usize] += 1.0;
            }
        }
    }

    /// Maximum depth of the tree.
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[DTreeNode], at: usize) -> usize {
            let n = &nodes[at];
            if n.is_leaf {
                0
            } else {
                1 + rec(nodes, n.left as usize).max(rec(nodes, n.right as usize))
            }
        }
        rec(&self.nodes, 0)
    }
}

/// Most thresholds the exhaustive search scores per (node, feature).
const MAX_CANDIDATES: usize = 15;

/// The rank of a missing value; never a candidate.
const NAN_RANK: u32 = u32::MAX;

/// Grows the trees of one forest over one view. Built once per fit, it
/// gathers the view's columns and target (every row index below is
/// view-local), ranks the columns when thresholds are searched
/// exhaustively, and owns every buffer growth needs, so a node
/// allocates nothing but its children's leaf values.
///
/// The random stream is part of the model: per node that passes the
/// size, depth and purity checks, `gen_range(i..d)` feature draws over
/// an identity-reset buffer, then per sampled feature one
/// [`random_threshold`] draw (extra-trees, and only where the node's
/// values differ); the left subtree wholly before the right; trees in
/// order. Any other order changes every later draw.
///
/// - `ranks[j]`, in exhaustive mode only: feature `j`'s sorted distinct
///   values and each row's index into them.
/// - `rows`: the tree's rows; a node owns a contiguous range of them,
///   in sample order.
/// - `counts`: the class counts of the nodes on the path being grown,
///   `n_classes` apiece. The root's are counted once; a child's are its
///   parent's winning candidate's, so purity, impurity and the leaf
///   distribution are read off them without touching a row.
/// - `buckets[b * n_classes + c]`: the node's class-`c` rows in bucket
///   `b` (see [`bucket`]) of the feature being scored.
/// - `lc`, `rc`: left and right class counts of the candidate being
///   scored; `best_lc`: the left counts of the best candidate so far.
/// - `spill`: the right-going rows of the partition in progress.
pub(crate) struct Grower<'a> {
    params: &'a TreeParams,
    n_classes: usize,
    cols: Vec<Vec<f64>>,
    target: Vec<f64>,
    ranks: Vec<(Vec<f64>, Vec<u32>)>,
    nodes: Vec<DTreeNode>,
    rows: Vec<usize>,
    counts: Vec<usize>,
    features: Vec<u32>,
    node_ranks: Vec<u32>,
    cuts: Vec<f64>,
    buckets: Vec<usize>,
    lc: Vec<usize>,
    rc: Vec<usize>,
    best_lc: Vec<usize>,
    spill: Vec<usize>,
}

impl<'a> Grower<'a> {
    pub(crate) fn new(data: &DatasetView, params: &'a TreeParams) -> Self {
        let n_classes = data.task().n_classes().unwrap_or(0);
        let cols: Vec<Vec<f64>> = (0..data.n_features())
            .map(|j| data.column_values(j).collect())
            .collect();
        Grower {
            params,
            n_classes,
            ranks: if params.random_threshold {
                Vec::new()
            } else {
                cols.iter().map(|col| ranked(col, NAN_RANK)).collect()
            },
            features: vec![0; cols.len()],
            cols,
            target: data.gather_target(),
            nodes: Vec::new(),
            rows: Vec::new(),
            counts: Vec::new(),
            node_ranks: Vec::new(),
            cuts: Vec::with_capacity(MAX_CANDIDATES),
            buckets: vec![0; (MAX_CANDIDATES + 1) * n_classes],
            lc: vec![0; n_classes],
            rc: vec![0; n_classes],
            best_lc: vec![0; n_classes],
            spill: Vec::new(),
        }
    }

    /// Grows one tree on `rows` (duplicates allowed).
    pub(crate) fn grow(&mut self, rows: &[usize], rng: &mut StdRng) -> DecisionTree {
        assert!(!rows.is_empty(), "cannot fit a tree on zero rows");
        self.rows.clear();
        self.rows.extend_from_slice(rows);
        self.counts.clear();
        self.counts.resize(self.n_classes, 0);
        if self.n_classes > 0 {
            for &r in rows {
                self.counts[self.target[r] as usize] += 1;
            }
        }
        let root = self.leaf(0, rows.len(), 0);
        self.nodes.push(root);
        self.split(0, 0, rows.len(), 0, 0, rng);
        DecisionTree {
            nodes: std::mem::take(&mut self.nodes),
            n_classes: self.n_classes,
        }
    }

    /// A leaf over `rows[lo..hi]` whose class counts start at `counts[at]`.
    fn leaf(&self, lo: usize, hi: usize, at: usize) -> DTreeNode {
        let n = (hi - lo) as f64;
        let value = if self.n_classes == 0 {
            let sum: f64 = self.rows[lo..hi].iter().map(|&r| self.target[r]).sum();
            vec![sum / n]
        } else {
            let counts = &self.counts[at..at + self.n_classes];
            counts.iter().map(|&c| c as f64 / n).collect()
        };
        DTreeNode {
            feature: 0,
            threshold: 0.0,
            left: 0,
            right: 0,
            is_leaf: true,
            value,
        }
    }

    fn is_pure(&self, lo: usize, hi: usize, at: usize) -> bool {
        if self.n_classes > 0 {
            return self.counts[at..at + self.n_classes].contains(&(hi - lo));
        }
        let first = self.target[self.rows[lo]];
        self.rows[lo..hi].iter().all(|&r| self.target[r] == first)
    }

    fn split(
        &mut self,
        node: usize,
        lo: usize,
        hi: usize,
        depth: usize,
        at: usize,
        rng: &mut StdRng,
    ) {
        if hi - lo < 2 * self.params.min_samples_leaf.max(1)
            || self.params.max_depth.is_some_and(|cap| depth >= cap)
            || self.is_pure(lo, hi, at)
        {
            return;
        }
        let Some((feature, threshold)) = self.find_split(lo, hi, at, rng) else {
            return;
        };
        // Stable, so both children keep sample order (regression sums
        // over it): left rows close up in place, right rows pass through
        // `spill`.
        let col = &self.cols[feature as usize];
        let mut mid = lo;
        self.spill.clear();
        for i in lo..hi {
            let r = self.rows[i];
            if goes_left(col[r], threshold) {
                self.rows[mid] = r;
                mid += 1;
            } else {
                self.spill.push(r);
            }
        }
        self.rows[mid..hi].copy_from_slice(&self.spill);
        let k = self.n_classes;
        let below = self.counts.len();
        self.counts.extend_from_slice(&self.best_lc);
        for c in 0..k {
            self.counts.push(self.counts[at + c] - self.best_lc[c]);
        }
        let left = self.nodes.len();
        self.nodes.push(self.leaf(lo, mid, below));
        self.nodes.push(self.leaf(mid, hi, below + k));
        let parent = &mut self.nodes[node];
        parent.is_leaf = false;
        parent.feature = feature;
        parent.threshold = threshold;
        parent.left = left as u32;
        parent.right = left as u32 + 1;
        self.split(left, lo, mid, depth + 1, below, rng);
        self.split(left + 1, mid, hi, depth + 1, below + k, rng);
        self.counts.truncate(below);
    }

    /// The best `(feature, threshold)` for `rows[lo..hi]`, leaving the
    /// winner's left class counts in `best_lc`.
    fn find_split(
        &mut self,
        lo: usize,
        hi: usize,
        at: usize,
        rng: &mut StdRng,
    ) -> Option<(u32, f64)> {
        let (criterion, min_samples_leaf) = (self.params.criterion, self.params.min_samples_leaf);
        let (d, k, n) = (self.cols.len(), self.n_classes, hi - lo);
        let want = ((d as f64 * self.params.max_features).ceil() as usize).clamp(1, d);
        (self.features.iter_mut().zip(0..)).for_each(|(f, i)| *f = i);
        for i in 0..want {
            let j = rng.gen_range(i..d);
            self.features.swap(i, j);
        }
        let rows = &self.rows[lo..hi];
        let node_counts = &self.counts[at..at + k];
        let parent_impurity = match k {
            0 => variance(&self.target, rows),
            _ => class_impurity(node_counts, n, criterion),
        };
        let side_impurity = |counts: &[usize], n: usize| match n {
            0 => 0.0,
            _ => class_impurity(counts, n, criterion),
        };
        let (lc, rc, best_lc) = (&mut self.lc, &mut self.rc, &mut self.best_lc);
        let mut best: Option<(u32, f64, f64)> = None; // (feature, threshold, gain)
        for &j in &self.features[..want] {
            let col = &self.cols[j as usize];
            self.cuts.clear();
            if self.params.random_threshold {
                self.cuts.extend(random_threshold(col, rows, rng));
            } else {
                let (uniques, rank) = &self.ranks[j as usize];
                self.node_ranks.clear();
                let present = rows.iter().map(|&r| rank[r]).filter(|&q| q != NAN_RANK);
                self.node_ranks.extend(present);
                rank_cuts(uniques, &mut self.node_ranks, &mut self.cuts);
            }
            if k > 0 && !self.cuts.is_empty() {
                self.buckets[..(self.cuts.len() + 1) * k].fill(0);
                for &r in rows {
                    let b = bucket(col[r], &self.cuts);
                    self.buckets[b * k + self.target[r] as usize] += 1;
                }
                lc.fill(0);
            }
            let mut ln = 0;
            for (b, &t) in self.cuts.iter().enumerate() {
                let (li, ri);
                if k == 0 {
                    (li, ln, ri) = split_variances(col, &self.target, rows, t);
                } else {
                    // Every row of buckets `0..=b` goes left at cut `b`.
                    for (l, &c) in lc.iter_mut().zip(&self.buckets[b * k..]) {
                        *l += c;
                        ln += c;
                    }
                    for c in 0..k {
                        rc[c] = node_counts[c] - lc[c];
                    }
                    (li, ri) = (side_impurity(lc, ln), side_impurity(rc, n - ln));
                }
                if ln < min_samples_leaf || n - ln < min_samples_leaf {
                    continue;
                }
                let weighted = (ln as f64 * li + (n - ln) as f64 * ri) / n as f64;
                let gain = parent_impurity - weighted;
                if gain > 1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((j, t, gain));
                    best_lc.copy_from_slice(lc);
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

/// The bucket of value `v` among a feature's `cuts`: how many of them
/// send it right. Cuts ascend (or there is one), so the rows that go
/// left at cut `b` are exactly those of buckets `0..=b`. Counted through
/// [`goes_left`] itself, so a `NaN` value, and a `NaN` or infinite cut,
/// land where the partition that follows puts them.
fn bucket(v: f64, cuts: &[f64]) -> usize {
    cuts.iter().filter(|&&t| !goes_left(v, t)).count()
}

/// Up to [`MAX_CANDIDATES`] quantile thresholds of a node's non-missing
/// values (midpoints between consecutive distinct values when few),
/// appended to `cuts`. `node_ranks` holds the indices of the node's
/// non-missing rows into `uniques`, the feature's sorted distinct values: sorting and
/// deduplicating small integers finds the same distinct values as
/// sorting the floats, since equal values share a rank, and which of
/// `0.0` / `-0.0` stands for a rank cannot move a midpoint.
fn rank_cuts(uniques: &[f64], node_ranks: &mut Vec<u32>, cuts: &mut Vec<f64>) {
    node_ranks.sort_unstable();
    node_ranks.dedup();
    let m = node_ranks.len();
    if m < 2 {
        return;
    }
    let mid = |pos: usize| {
        (uniques[node_ranks[pos - 1] as usize] + uniques[node_ranks[pos] as usize]) / 2.0
    };
    if m <= MAX_CANDIDATES + 1 {
        return cuts.extend((1..m).map(mid));
    }
    for q in 1..=MAX_CANDIDATES {
        let cut = mid((q * m / (MAX_CANDIDATES + 1)).clamp(1, m - 1));
        if cuts.last().is_none_or(|&last| cut > last) {
            cuts.push(cut);
        }
    }
}

/// Population variance of the targets of `rows`, two passes in row order.
fn variance(y: &[f64], rows: &[usize]) -> f64 {
    let n = rows.len() as f64;
    let mean = rows.iter().map(|&r| y[r]).sum::<f64>() / n;
    rows.iter()
        .map(|&r| (y[r] - mean) * (y[r] - mean))
        .sum::<f64>()
        / n
}

fn class_impurity(counts: &[usize], total: usize, criterion: SplitCriterion) -> f64 {
    let total = total as f64;
    match criterion {
        SplitCriterion::Gini => {
            1.0 - counts
                .iter()
                .map(|&c| {
                    let p = c as f64 / total;
                    p * p
                })
                .sum::<f64>()
        }
        SplitCriterion::Entropy => -counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total;
                p * p.ln()
            })
            .sum::<f64>(),
        SplitCriterion::Variance => unreachable!("variance handled separately"),
    }
}

/// Left target variance, left size and right target variance of a
/// split, from sums and squared sums accumulated in row order.
fn split_variances(col: &[f64], y: &[f64], rows: &[usize], threshold: f64) -> (f64, usize, f64) {
    let (mut ls, mut lss, mut ln) = (0.0, 0.0, 0usize);
    let (mut rs, mut rss, mut rn) = (0.0, 0.0, 0usize);
    for &r in rows {
        let t = y[r];
        if goes_left(col[r], threshold) {
            ls += t;
            lss += t * t;
            ln += 1;
        } else {
            rs += t;
            rss += t * t;
            rn += 1;
        }
    }
    let var = |s: f64, ss: f64, n: usize| {
        if n == 0 {
            0.0
        } else {
            let nf = n as f64;
            (ss / nf - (s / nf) * (s / nf)).max(0.0)
        }
    };
    (var(ls, lss, ln), ln, var(rs, rss, rn))
}

/// One uniformly random threshold strictly inside the node's value range
/// (extra-trees), or `None` for constant/missing-only columns.
fn random_threshold(col: &[f64], rows: &[usize], rng: &mut StdRng) -> Option<f64> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &r in rows {
        let v = col[r];
        if !v.is_nan() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if lo >= hi {
        return None;
    }
    // Uniform in (lo, hi): values equal to hi go right, so the split is
    // never trivial on the value range.
    Some(rng.gen_range(lo..hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flaml_data::{Dataset, Task};
    use rand::SeedableRng;

    fn checkerboard(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0).collect();
        let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0).collect();
        let y: Vec<f64> = x0
            .iter()
            .zip(&x1)
            .map(|(&a, &b)| f64::from((a.floor() as i64 + b.floor() as i64) % 2 == 0))
            .collect();
        Dataset::new("cb", Task::Binary, vec![x0, x1], y).unwrap()
    }

    #[test]
    fn overfits_training_data_without_limits() {
        let d = checkerboard(300, 0);
        let rows: Vec<usize> = (0..300).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let t = DecisionTree::fit(&d, &rows, &TreeParams::default(), &mut rng);
        for i in 0..300 {
            let dist = t.eval(&d.view(), i);
            let pred = f64::from(dist[1] > dist[0]);
            assert_eq!(pred, d.target()[i], "row {i}");
        }
    }

    #[test]
    fn depth_cap_respected() {
        let d = checkerboard(300, 1);
        let rows: Vec<usize> = (0..300).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let t = DecisionTree::fit(
            &d,
            &rows,
            &TreeParams {
                max_depth: Some(3),
                ..TreeParams::default()
            },
            &mut rng,
        );
        assert!(t.depth() <= 3);
        assert!(t.n_leaves() <= 8);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let d = checkerboard(200, 2);
        let rows: Vec<usize> = (0..200).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let t = DecisionTree::fit(
            &d,
            &rows,
            &TreeParams {
                min_samples_leaf: 50,
                ..TreeParams::default()
            },
            &mut rng,
        );
        assert!(t.n_leaves() <= 4, "{} leaves", t.n_leaves());
    }

    #[test]
    fn regression_variance_split() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| if v < 50.0 { 1.0 } else { 9.0 })
            .collect();
        let d = Dataset::new("r", Task::Regression, vec![x], y).unwrap();
        let rows: Vec<usize> = (0..100).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let t = DecisionTree::fit(
            &d,
            &rows,
            &TreeParams {
                criterion: SplitCriterion::Variance,
                max_depth: Some(1),
                ..TreeParams::default()
            },
            &mut rng,
        );
        assert!((t.eval(&d.view(), 0)[0] - 1.0).abs() < 1e-9);
        assert!((t.eval(&d.view(), 99)[0] - 9.0).abs() < 1e-9);
    }

    #[test]
    fn entropy_and_gini_both_split_informative_feature() {
        let x0: Vec<f64> = (0..100).map(|i| f64::from(i >= 50)).collect();
        let x1: Vec<f64> = (0..100).map(|i| (i % 7) as f64).collect();
        let y: Vec<f64> = (0..100).map(|i| f64::from(i >= 50)).collect();
        let d = Dataset::new("inf", Task::Binary, vec![x0, x1], y).unwrap();
        let rows: Vec<usize> = (0..100).collect();
        for criterion in [SplitCriterion::Gini, SplitCriterion::Entropy] {
            let mut rng = StdRng::seed_from_u64(0);
            let t = DecisionTree::fit(
                &d,
                &rows,
                &TreeParams {
                    criterion,
                    max_depth: Some(1),
                    ..TreeParams::default()
                },
                &mut rng,
            );
            assert_eq!(t.nodes[0].feature, 0, "{criterion:?} must pick feature 0");
        }
    }

    #[test]
    fn random_threshold_mode_still_learns() {
        let d = checkerboard(400, 4);
        let rows: Vec<usize> = (0..400).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let t = DecisionTree::fit(
            &d,
            &rows,
            &TreeParams {
                random_threshold: true,
                ..TreeParams::default()
            },
            &mut rng,
        );
        let mut correct = 0;
        for i in 0..400 {
            let dist = t.eval(&d.view(), i);
            if f64::from(dist[1] > dist[0]) == d.target()[i] {
                correct += 1;
            }
        }
        assert!(correct > 380, "{correct}/400");
    }

    #[test]
    fn nan_rows_go_left_and_predict() {
        let x = vec![f64::NAN, 1.0, 2.0, 3.0, f64::NAN, 5.0, 6.0, 7.0];
        let y = vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0];
        let d = Dataset::new("nan", Task::Binary, vec![x], y).unwrap();
        let rows: Vec<usize> = (0..8).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let t = DecisionTree::fit(&d, &rows, &TreeParams::default(), &mut rng);
        for i in 0..8 {
            let dist = t.eval(&d.view(), i);
            assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn pure_node_stays_leaf() {
        let d = Dataset::new(
            "pure",
            Task::Binary,
            vec![vec![1.0, 2.0, 3.0, 4.0]],
            vec![1.0, 1.0, 1.0, 0.0],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let t = DecisionTree::fit(&d, &[0, 1, 2], &TreeParams::default(), &mut rng);
        assert_eq!(t.n_leaves(), 1, "all-ones subset must not split");
    }
}
