//! The histogram engine of the boosting learner: the one place that
//! accumulates per-bin gradient sums, scans them for splits, and owns a
//! tree's row lists. Every growth policy in [`crate::gbdt`] reaches the
//! data through [`HistBuilder`].
//!
//! **Exactness contract.** A node's histogram of feature `j` is, per
//! bin, the sum of `(g, h)` over the node's rows *in node row order*,
//! starting from `+0.0`; a split scan adds bins *in bin order*. Those
//! two orders fix every floating-point sum, so the [`Split`]s — and with
//! them trees, journals and artifacts — are bit-identical to the plain
//! per-feature loop kept as the `#[cfg(test)]` oracle below. Anything
//! that reorders either sum (parent-minus-sibling subtraction, row
//! chunking) changes reference bits and is not done here.
//!
//! **Layout.** Bins are two-byte column-major cells
//! ([`BinnedDataset`]). A node's `(g, h)` pairs are gathered once into
//! a node-ordered stream; the rows are then passed over once per group
//! of [`GROUP`] features, each feature adding into its own region of
//! one flat slab of `[g, h]` cells (`region k` = cells
//! `k * stride..(k + 1) * stride`, `stride` = the widest feature's bin
//! count). No per-bin row counter is kept: the only two questions the
//! scan asks of the counts are "is any row left of threshold `t`" (`t >=`
//! first seen bin) and "is every row left of it" (`t >=` last seen bin),
//! and every row's hessian is `> 0` (regression uses `1.0`, the
//! classification losses clamp at `1e-16`), so a bin holds a row exactly
//! when its hessian sum is `> 0`. After a scan only the seen cells are
//! cleared, so nothing is allocated or zeroed per node beyond what the
//! node touched.
//!
//! **Seen bins follow the node.** A feature's seen bins, ascending, are
//! found one of two ways with the same result. A node with more than half
//! as many rows as the feature has bins compacts the region branch-free,
//! keeping the cells with a positive hessian sum. Any other node sets one
//! bit per row in a bitmap of the bins and reads the set bits back in
//! order, so a deep node of a few rows costs its rows plus `bins / 64`
//! words, not a walk of every bin. The factor of one half is not tuned:
//! crossovers at a quarter, a half and all of the bins timed alike on
//! the `catboost_fold_*` benches and `gbdt_deep` (DESIGN §17).
//!
//! **Oblivious levels.** An oblivious level picks the one `(feature,
//! threshold)` whose gain *summed over the level's leaves* is highest;
//! the oracle adds each leaf's gain into a per-threshold total, leaves in
//! order, onto `+0.0`. A leaf's valid splits come in runs: every
//! threshold from one seen bin up to the next shares one split. So each
//! leaf of two or more rows contributes its runs (a leaf of fewer has no
//! split), and the level total is constant between two consecutive run
//! starts or ends of any leaf — *boundaries*. Each run adds `+gain` at its
//! start and `-gain` at its end of a per-feature difference array, and
//! one ascending sweep over the marked boundaries reads every total to
//! within `slack`: adding `n` terms in any order errs by at most
//! `γₙ·Σ|term|` (`γₙ ≈ n·u`), the sweep adds two terms per run and the
//! exact fold one per leaf, so both together err by under
//! `n·ε·Σ|gain|`, and `slack` is four times that to cover its own
//! rounding. Only the boundaries whose upper bound (`swept + slack`)
//! reaches the best lower bound (`swept − slack`, and `1e-12`) are added
//! up exactly, leaf by leaf in the oracle's order, and the first maximum
//! in `(feature slot, threshold)` order wins, so the chosen split is the
//! oracle's bit for bit. Every run start and end is a boundary, even
//! where the difference cell nets to zero: equal gains of two leaves can
//! cancel there while the leaf-ordered fold, which adds other terms in
//! between, still differs. The level costs its leaves' rows and runs, not
//! leaves × features × bins.

use crate::binning::{Bin, BinnedDataset};
use crate::gbdt::GbdtParams;
use std::cmp::Ordering::Less;
use std::ops::Range;

/// Features accumulated per pass over a node's rows: enough independent
/// add chains to hide the store-to-load latency of consecutive rows
/// landing in one bin, few enough that the slab regions stay in L1.
const GROUP: usize = 8;

/// One `(gradient, hessian)` pair.
pub(crate) type GradPair = [f64; 2];

/// Soft-thresholded gradient sum for L1 regularization.
fn thresholded(g: f64, alpha: f64) -> f64 {
    if g > alpha {
        g - alpha
    } else if g < -alpha {
        g + alpha
    } else {
        0.0
    }
}

fn leaf_objective(g: f64, h: f64, params: &GbdtParams) -> f64 {
    let t = thresholded(g, params.reg_alpha);
    t * t / (h + params.reg_lambda)
}

/// The shrunken leaf value for gradient sums `(g, h)`.
pub(crate) fn leaf_value(g: f64, h: f64, params: &GbdtParams) -> f64 {
    params.learning_rate * (-thresholded(g, params.reg_alpha) / (h + params.reg_lambda))
}

/// A candidate split of one node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Split {
    pub(crate) feature: u32,
    pub(crate) threshold: u32,
    pub(crate) gain: f64,
    pub(crate) left_g: f64,
    pub(crate) left_h: f64,
    pub(crate) right_g: f64,
    pub(crate) right_h: f64,
}

/// The objective gain of splitting a node with objective `parent_obj`
/// into children summing to `left` and `right` (`[g, h]` each).
pub(crate) fn split_gain(
    left: GradPair,
    right: GradPair,
    parent_obj: f64,
    params: &GbdtParams,
) -> f64 {
    leaf_objective(left[0], left[1], params) + leaf_objective(right[0], right[1], params)
        - parent_obj
}

/// A node awaiting a split: its index in the tree, its rows (a range of
/// the builder's arena) and their gradient sums.
#[derive(Debug)]
pub(crate) struct NodeTask {
    pub(crate) node: usize,
    pub(crate) rows: Range<usize>,
    pub(crate) g_sum: f64,
    pub(crate) h_sum: f64,
}

impl NodeTask {
    /// The node's objective as an unsplit leaf.
    pub(crate) fn objective(&self, params: &GbdtParams) -> f64 {
        leaf_objective(self.g_sum, self.h_sum, params)
    }
}

/// One feature's finished histogram, handed to the split scans.
struct FeatureHist<'a> {
    feature: u32,
    /// `[g, h]` per bin.
    cells: &'a [GradPair],
    /// The bins some row of the node fell in, ascending.
    seen_bins: &'a [Bin],
}

impl FeatureHist<'_> {
    /// Calls `on` with every run of thresholds that share one split —
    /// each seen bin but the last, up to the next seen bin — and that
    /// split's gain and child sums, in bin order, skipping splits that
    /// leave a child under `min_child_weight`. The gain is not
    /// thresholded here: oblivious levels sum negative gains too.
    ///
    /// Thresholds below the first seen bin have no row on the left and
    /// those from the last seen bin on have none on the right. An unseen
    /// bin in between holds `+0.0`, and no prefix is ever `-0.0` (the
    /// chain starts at `+0.0`), so adding it would change no bit: it
    /// repeats the split of the seen bin before it.
    fn for_each_split(
        &self,
        node: &NodeTask,
        params: &GbdtParams,
        mut on: impl FnMut(Range<u32>, f64, GradPair, GradPair),
    ) {
        let parent_obj = node.objective(params);
        let mut left = [0.0; 2];
        for run in self.seen_bins.windows(2) {
            let cell = self.cells[run[0] as usize];
            left = [left[0] + cell[0], left[1] + cell[1]];
            let right = [node.g_sum - left[0], node.h_sum - left[1]];
            if left[1] < params.min_child_weight || right[1] < params.min_child_weight {
                continue;
            }
            let gain = split_gain(left, right, parent_obj, params);
            on(u32::from(run[0])..u32::from(run[1]), gain, left, right);
        }
    }
}

/// Sets bit `i` of a bitmap.
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// Calls `on` with every set bit of `words`, ascending, and clears them.
fn drain_bits(words: &mut [u64], mut on: impl FnMut(usize)) {
    for (w, word) in words.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            on(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// The accumulation scratch: node-ordered gradients and the slabs.
#[derive(Debug, Clone, Default)]
struct Slabs {
    /// `(g, h)` of the current node's rows, in node row order.
    node_gh: Vec<GradPair>,
    /// `GROUP` regions of `stride` `[g, h]` cells; all zero between nodes.
    cells: Vec<GradPair>,
    /// The seen bins of the feature being scanned (`stride` slots).
    seen_bins: Vec<Bin>,
    /// One bit per bin; all clear between features.
    seen_bits: Vec<u64>,
    stride: usize,
}

/// The histogram-accumulation loop — the only one in the crate. Adds
/// each row's `(g, h)` into its bin of each of `K` features, rows in
/// the order given, so every per-bin sum adds its rows in node order.
fn accumulate<const K: usize>(
    cols: [&[Bin]; K],
    rows: &[u32],
    node_gh: &[GradPair],
    cells: &mut [GradPair],
    stride: usize,
) {
    for (&r, &[g, h]) in rows.iter().zip(node_gh) {
        for (k, col) in cols.iter().enumerate() {
            let cell = &mut cells[k * stride + col[r as usize] as usize];
            cell[0] += g;
            cell[1] += h;
        }
    }
}

impl Slabs {
    /// Builds the histogram of every feature in `features` over `rows`
    /// and hands each to `visit` with its position in `features`, in
    /// `features` order.
    fn for_each_hist(
        &mut self,
        binned: &BinnedDataset,
        rows: &[u32],
        gh: &[GradPair],
        features: &[u32],
        mut visit: impl FnMut(usize, &FeatureHist<'_>),
    ) {
        let node_gh = &mut self.node_gh[..rows.len()];
        for (slot, &r) in node_gh.iter_mut().zip(rows) {
            *slot = gh[r as usize];
        }
        let stride = self.stride;
        for (g, group) in features.chunks(GROUP).enumerate() {
            let col = |k: usize| binned.column(group[k] as usize);
            let cells = &mut self.cells[..];
            macro_rules! dispatch {
                ($($k:literal)*) => {
                    match group.len() {
                        $($k => accumulate::<$k>(std::array::from_fn(col), rows, node_gh, cells, stride),)*
                        n => unreachable!("chunks({GROUP}) yielded {n} features"),
                    }
                };
            }
            dispatch!(1 2 3 4 5 6 7 8);
            for (k, &feature) in group.iter().enumerate() {
                let n_bins = binned.n_bins(feature as usize);
                let cells = &mut self.cells[k * stride..k * stride + n_bins];
                let mut n_seen = 0;
                if 2 * rows.len() <= n_bins {
                    let bits = &mut self.seen_bits[..n_bins.div_ceil(64)];
                    for &r in rows {
                        set_bit(bits, usize::from(col(k)[r as usize]));
                    }
                    drain_bits(bits, |bin| {
                        self.seen_bins[n_seen] = bin as Bin;
                        n_seen += 1;
                    });
                } else {
                    // Branch-free compaction: every bin is written at the
                    // cursor, which only moves past the seen ones — those
                    // with a positive hessian sum.
                    for (bin, cell) in cells.iter().enumerate() {
                        self.seen_bins[n_seen] = bin as Bin;
                        n_seen += usize::from(cell[1] > 0.0);
                    }
                }
                let seen_bins = &self.seen_bins[..n_seen];
                visit(
                    g * GROUP + k,
                    &FeatureHist {
                        feature,
                        cells,
                        seen_bins,
                    },
                );
                for &bin in seen_bins {
                    cells[bin as usize] = [0.0; 2];
                }
            }
        }
    }
}

/// One split of one leaf of an oblivious level: the thresholds
/// `start..end` it covers and its gain.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: u32,
    end: u32,
    gain: f64,
}

/// An oblivious level's valid splits and the scratch that searches them
/// (see the module docs). `runs` is leaf-major, then by feature slot, then
/// by threshold: the `l`-th searched leaf's runs in slot `s` (a leaf of
/// fewer than 2 rows is not searched) are
/// `runs[bounds[i]..bounds[i + 1]]`, `i = l * n_slots + s`. `diff` holds
/// each slot's difference array of level totals (`stride` cells a slot)
/// and `marks` one bit per threshold where a run starts or ends; both are
/// clear between levels. `abs_sum` is `Σ |gain|`; `near_best` collects
/// the marked `(slot, t)` that may hold the maximum, with swept totals.
#[derive(Debug, Clone, Default)]
struct LevelRuns {
    runs: Vec<Run>,
    bounds: Vec<usize>,
    n_slots: usize,
    stride: usize,
    diff: Vec<f64>,
    marks: Vec<u64>,
    abs_sum: f64,
    near_best: Vec<(usize, usize, f64)>,
}

impl LevelRuns {
    /// Starts a level of `n_slots` features of at most `stride` bins.
    fn start(&mut self, n_slots: usize, stride: usize) {
        (self.n_slots, self.stride, self.abs_sum) = (n_slots, stride, 0.0);
        self.runs.clear();
        self.bounds.clear();
        self.bounds.push(0);
        self.diff.resize(n_slots * stride, 0.0);
        self.marks.resize(n_slots * stride.div_ceil(64), 0);
    }

    /// Adds a run of the current leaf in `slot`.
    fn push(&mut self, slot: usize, start: u32, end: u32, gain: f64) {
        let marks = &mut self.marks[slot * self.stride.div_ceil(64)..];
        for (t, delta) in [(start, gain), (end, -gain)] {
            self.diff[slot * self.stride + t as usize] += delta;
            set_bit(marks, t as usize);
        }
        self.abs_sum += gain.abs();
        self.runs.push(Run { start, end, gain });
    }

    /// The exact total of `(slot, t)`: the covering runs' gains added
    /// leaf by leaf onto `+0.0`, the oracle's order.
    fn total(&self, slot: usize, t: usize) -> f64 {
        let mut total = 0.0;
        for leaf in self.bounds.windows(2).skip(slot).step_by(self.n_slots) {
            let runs = &self.runs[leaf[0]..leaf[1]];
            let run = runs.partition_point(|r| r.end as usize <= t);
            if runs.get(run).is_some_and(|r| r.start as usize <= t) {
                total += runs[run].gain;
            }
        }
        total
    }

    /// The first `(slot, t)` whose exact total is the highest above
    /// `1e-12`; leaves the scratch clear.
    fn best(&mut self) -> Option<(usize, u32)> {
        let n_terms = 2 * self.runs.len() + self.bounds.len() / self.n_slots.max(1);
        let slack = 4.0 * n_terms as f64 * f64::EPSILON * self.abs_sum;
        let (words, mut floor) = (self.stride.div_ceil(64), 1e-12_f64);
        self.near_best.clear();
        for slot in 0..self.n_slots {
            let (diff, mut acc) = (&mut self.diff[slot * self.stride..], 0.0);
            drain_bits(&mut self.marks[slot * words..(slot + 1) * words], |t| {
                acc += std::mem::take(&mut diff[t]);
                floor = floor.max(acc - slack);
                // Not `Less`: a NaN bound is kept, not skipped.
                if (acc + slack).partial_cmp(&floor) != Some(Less) {
                    self.near_best.push((slot, t, acc));
                }
            });
        }
        let mut best: Option<(usize, u32, f64)> = None;
        for &(slot, t, acc) in &self.near_best {
            if (acc + slack).partial_cmp(&floor) != Some(Less) {
                let total = self.total(slot, t);
                if total > 1e-12 && best.is_none_or(|(_, _, b)| total > b) {
                    best = Some((slot, t as u32, total));
                }
            }
        }
        best.map(|(slot, t, _)| (slot, t))
    }
}

/// Per-fit histogram scratch plus the row-index arena of the tree being
/// grown. Buffers are sized by [`HistBuilder::start_tree`] and reused
/// for every node of every tree of the fit.
#[derive(Debug, Clone, Default)]
pub(crate) struct HistBuilder {
    /// The current tree's rows; each node owns a contiguous range.
    arena: Vec<u32>,
    /// Right-child rows in flight during a partition.
    spill: Vec<u32>,
    slabs: Slabs,
    level: LevelRuns,
}

impl HistBuilder {
    /// Loads `rows` as the root of a new tree and sizes the scratch for
    /// `binned`. Returns the root's arena range.
    pub(crate) fn start_tree(&mut self, binned: &BinnedDataset, rows: &[u32]) -> Range<usize> {
        self.arena.clear();
        self.arena.extend_from_slice(rows);
        self.spill.resize(rows.len(), 0);
        self.slabs.node_gh.resize(rows.len(), [0.0; 2]);
        let stride = (0..binned.n_features())
            .map(|j| binned.n_bins(j))
            .max()
            .unwrap_or(0);
        self.slabs.stride = stride;
        self.slabs.cells.resize(GROUP * stride, [0.0; 2]);
        self.slabs.seen_bins.resize(stride, 0);
        self.slabs.seen_bits.resize(stride.div_ceil(64), 0);
        0..rows.len()
    }

    /// The rows of a node, in node order.
    pub(crate) fn rows(&self, node: &Range<usize>) -> &[u32] {
        &self.arena[node.clone()]
    }

    /// The best split of `node` over `features`: the highest gain above
    /// `1e-12`, the earliest `(feature, threshold)` winning ties.
    pub(crate) fn best_split(
        &mut self,
        binned: &BinnedDataset,
        gh: &[GradPair],
        features: &[u32],
        node: &NodeTask,
        params: &GbdtParams,
    ) -> Option<Split> {
        let mut best: Option<Split> = None;
        let rows = &self.arena[node.rows.clone()];
        self.slabs
            .for_each_hist(binned, rows, gh, features, |_, hist| {
                // Of a run of thresholds with one gain the first wins.
                hist.for_each_split(node, params, |thresholds, gain, left, right| {
                    if gain > 1e-12 && best.is_none_or(|b| gain > b.gain) {
                        best = Some(Split {
                            feature: hist.feature,
                            threshold: thresholds.start,
                            gain,
                            left_g: left[0],
                            left_h: left[1],
                            right_g: right[0],
                            right_h: right[1],
                        });
                    }
                });
            });
        best
    }

    /// The single `(feature, threshold)` with the best gain summed over
    /// all `leaves` of an oblivious level (leaves added in the order
    /// given), or `None` if no cell's total exceeds `1e-12`.
    pub(crate) fn best_level_split(
        &mut self,
        binned: &BinnedDataset,
        gh: &[GradPair],
        features: &[u32],
        leaves: &[NodeTask],
        params: &GbdtParams,
    ) -> Option<(u32, u32)> {
        let level = &mut self.level;
        level.start(features.len(), self.slabs.stride);
        // A leaf of fewer than 2 rows has no split, so adds no runs.
        for leaf in leaves.iter().filter(|leaf| leaf.rows.len() >= 2) {
            let rows = &self.arena[leaf.rows.clone()];
            self.slabs
                .for_each_hist(binned, rows, gh, features, |slot, hist| {
                    hist.for_each_split(leaf, params, |thresholds, gain, _, _| {
                        level.push(slot, thresholds.start, thresholds.end, gain);
                    });
                    level.bounds.push(level.runs.len());
                });
        }
        let (slot, threshold) = level.best()?;
        Some((features[slot], threshold))
    }

    /// Stably partitions `node`'s rows by `bin <= threshold` on
    /// `feature` — left rows first, both sides keeping node order — and
    /// returns the arena index where the right child starts.
    pub(crate) fn partition(
        &mut self,
        binned: &BinnedDataset,
        node: &Range<usize>,
        feature: u32,
        threshold: u32,
    ) -> usize {
        let col = binned.column(feature as usize);
        let rows = &mut self.arena[node.clone()];
        let spill = &mut self.spill[..rows.len()];
        let (mut n_left, mut n_right) = (0, 0);
        // Both stores happen for every row and only the counters depend
        // on the comparison, so the loop has no data-dependent branch;
        // `n_left <= i` keeps the in-place store behind the read cursor.
        for i in 0..rows.len() {
            let r = rows[i];
            let goes_left = u32::from(col[r as usize]) <= threshold;
            rows[n_left] = r;
            spill[n_right] = r;
            n_left += usize::from(goes_left);
            n_right += usize::from(!goes_left);
        }
        rows[n_left..].copy_from_slice(&spill[..n_right]);
        node.start + n_left
    }
}

#[cfg(test)]
mod tests {
    //! The engine against the loop it replaced, bit for bit.

    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[derive(Debug, Clone, Copy, Default)]
    struct BinStats {
        g: f64,
        h: f64,
        n: u32,
    }

    /// The reference: the per-feature array-of-structs gather loop and
    /// counted prefix scan `gbdt.rs` carried before this engine (commit
    /// 69463ef), kept verbatim apart from the bin and gradient types.
    fn oracle_best_split(
        binned: &BinnedDataset,
        rows: &[u32],
        gh: &[GradPair],
        features: &[u32],
        g_sum: f64,
        h_sum: f64,
        params: &GbdtParams,
    ) -> Option<Split> {
        let parent_obj = leaf_objective(g_sum, h_sum, params);
        let mut best: Option<Split> = None;
        let mut hist: Vec<BinStats> = Vec::new();
        for &j in features {
            let n_bins = binned.n_bins(j as usize);
            hist.clear();
            hist.resize(n_bins, BinStats::default());
            let col = binned.column(j as usize);
            for &r in rows {
                let s = &mut hist[col[r as usize] as usize];
                s.g += gh[r as usize][0];
                s.h += gh[r as usize][1];
                s.n += 1;
            }
            let total_n = rows.len() as u32;
            let mut lg = 0.0;
            let mut lh = 0.0;
            let mut ln = 0u32;
            for (t, h) in hist.iter().enumerate().take(n_bins - 1) {
                lg += h.g;
                lh += h.h;
                ln += h.n;
                if ln == 0 {
                    continue;
                }
                if ln == total_n {
                    break;
                }
                let rg = g_sum - lg;
                let rh = h_sum - lh;
                if lh < params.min_child_weight || rh < params.min_child_weight {
                    continue;
                }
                let gain =
                    leaf_objective(lg, lh, params) + leaf_objective(rg, rh, params) - parent_obj;
                if gain > 1e-12 && best.is_none_or(|b| gain > b.gain) {
                    best = Some(Split {
                        feature: j,
                        threshold: t as u32,
                        gain,
                        left_g: lg,
                        left_h: lh,
                        right_g: rg,
                        right_h: rh,
                    });
                }
            }
        }
        best
    }

    /// The reference for an oblivious level: feature-outer, leaf-inner,
    /// one `gains` vector per feature — the pre-engine loop of
    /// `grow_oblivious`.
    fn oracle_level_split(
        binned: &BinnedDataset,
        leaves: &[(Vec<u32>, f64, f64)],
        gh: &[GradPair],
        features: &[u32],
        params: &GbdtParams,
    ) -> Option<(u32, u32)> {
        let mut best_total: Option<(u32, u32, f64)> = None;
        let mut hist: Vec<BinStats> = Vec::new();
        for &j in features {
            let n_bins = binned.n_bins(j as usize);
            let col = binned.column(j as usize);
            let mut gains = vec![0.0f64; n_bins.saturating_sub(1)];
            let mut any_valid = vec![false; n_bins.saturating_sub(1)];
            for (rows, g_sum, h_sum) in leaves {
                hist.clear();
                hist.resize(n_bins, BinStats::default());
                for &r in rows {
                    let s = &mut hist[col[r as usize] as usize];
                    s.g += gh[r as usize][0];
                    s.h += gh[r as usize][1];
                    s.n += 1;
                }
                let parent_obj = leaf_objective(*g_sum, *h_sum, params);
                let total_n = rows.len() as u32;
                let mut lg = 0.0;
                let mut lh = 0.0;
                let mut ln = 0u32;
                for t in 0..n_bins.saturating_sub(1) {
                    lg += hist[t].g;
                    lh += hist[t].h;
                    ln += hist[t].n;
                    if ln == 0 || ln == total_n {
                        continue;
                    }
                    let rg = g_sum - lg;
                    let rh = h_sum - lh;
                    if lh < params.min_child_weight || rh < params.min_child_weight {
                        continue;
                    }
                    let gain = leaf_objective(lg, lh, params) + leaf_objective(rg, rh, params)
                        - parent_obj;
                    gains[t] += gain;
                    any_valid[t] = true;
                }
            }
            for (t, (&g, &valid)) in gains.iter().zip(&any_valid).enumerate() {
                if valid && g > 1e-12 && best_total.is_none_or(|(_, _, b)| g > b) {
                    best_total = Some((j, t as u32, g));
                }
            }
        }
        best_total.map(|(j, t, _)| (j, t))
    }

    /// A random node: `n_features` binned columns over twice the node's
    /// rows (so the ascending row list has gaps), missing-value rows in
    /// bin 0, bin counts from 2 to `max_bin` 1 023 (so small nodes see
    /// few of their bins), columns that leave most bins empty, gradients
    /// from a five-value palette (exact gain ties) or the unit interval,
    /// at unit scale or `1e8` (gains near `1e16`, of both signs under a
    /// large `reg_lambda`, whose level totals cancel), and regularization
    /// from the corners of the search space.
    struct Case {
        binned: BinnedDataset,
        gh: Vec<GradPair>,
        rows: Vec<u32>,
        features: Vec<u32>,
        params: GbdtParams,
    }

    fn case(seed: u64, n_rows: usize, n_features: usize) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_total = 2 * n_rows + 1;
        let n_bins: Vec<usize> = (0..n_features)
            .map(|_| [2, 3, 5, 17, 64, 256, 300, 1_024][rng.gen_range(0..8)])
            .collect();
        let columns = n_bins
            .iter()
            .map(|&nb| {
                let sparse = rng.gen::<f64>() < 0.4;
                (0..n_total)
                    .map(|_| {
                        if rng.gen::<f64>() < 0.1 {
                            0
                        } else if sparse {
                            (rng.gen_range(0..3) * (nb / 3)) as Bin
                        } else {
                            rng.gen_range(0..nb) as Bin
                        }
                    })
                    .collect()
            })
            .collect();
        let palette = rng.gen::<f64>() < 0.5;
        let unit_hess = rng.gen::<f64>() < 0.5;
        let scale = [1.0, 1e8][rng.gen_range(0..2)];
        let gh = (0..n_total)
            .map(|_| {
                let g = scale
                    * if palette {
                        [-1.0, -0.5, 0.0, 0.5, 1.0][rng.gen_range(0..5)]
                    } else {
                        rng.gen::<f64>() * 2.0 - 1.0
                    };
                let h = if unit_hess {
                    1.0
                } else {
                    (rng.gen::<f64>() * 0.25).max(1e-16)
                };
                [g, h]
            })
            .collect();
        let mut rows: Vec<u32> = (0..n_total as u32)
            .filter(|_| rng.gen::<f64>() < 0.6)
            .collect();
        rows.truncate(n_rows);
        let mut features: Vec<u32> = (0..n_features as u32).collect();
        for i in (1..features.len()).rev() {
            features.swap(i, rng.gen_range(0..i + 1));
        }
        let params = GbdtParams {
            min_child_weight: [0.0, 1e-3, 1.0, 5.0, 1e9][rng.gen_range(0..5)],
            reg_alpha: [0.0, 1e-10, 0.3][rng.gen_range(0..3)],
            reg_lambda: [1e-10, 1.0, 30.0][rng.gen_range(0..3)],
            ..GbdtParams::default()
        };
        Case {
            binned: BinnedDataset::from_columns(columns, n_bins),
            gh,
            rows,
            features,
            params,
        }
    }

    fn sums(rows: &[u32], gh: &[GradPair]) -> (f64, f64) {
        (
            rows.iter().map(|&r| gh[r as usize][0]).sum(),
            rows.iter().map(|&r| gh[r as usize][1]).sum(),
        )
    }

    fn split_bits(s: Option<Split>) -> Option<(u32, u32, [u64; 5])> {
        s.map(|s| {
            let floats = [s.gain, s.left_g, s.left_h, s.right_g, s.right_h];
            (s.feature, s.threshold, floats.map(f64::to_bits))
        })
    }

    proptest! {
        #[test]
        fn best_split_equals_the_oracle_bit_for_bit(
            seed in 0u64..1_000_000_000,
            n_rows in prop_oneof![
                Just(2usize), Just(3), Just(40), Just(100), Just(255), Just(257), Just(5_000)
            ],
            n_features in 1usize..=9,
        ) {
            let c = case(seed, n_rows, n_features);
            let (g_sum, h_sum) = sums(&c.rows, &c.gh);
            let want = oracle_best_split(
                &c.binned, &c.rows, &c.gh, &c.features, g_sum, h_sum, &c.params,
            );
            let mut hist = HistBuilder::default();
            let node = NodeTask {
                node: 0,
                rows: hist.start_tree(&c.binned, &c.rows),
                g_sum,
                h_sum,
            };
            // Twice: the second pass runs on the scratch the first left.
            for _ in 0..2 {
                let got = hist.best_split(&c.binned, &c.gh, &c.features, &node, &c.params);
                prop_assert_eq!(split_bits(got), split_bits(want));
            }
        }

        #[test]
        fn level_split_and_partition_equal_the_oracle(
            seed in 0u64..1_000_000_000,
            n_rows in prop_oneof![
                Just(3usize), Just(40), Just(100), Just(255), Just(257), Just(2_000)
            ],
            n_features in 1usize..=9,
            depth in 2usize..=5,
        ) {
            let c = case(seed, n_rows, n_features);
            let mut hist = HistBuilder::default();
            let root = hist.start_tree(&c.binned, &c.rows);
            // Split the root two to five times on arbitrary conditions:
            // the level is up to 32 leaves, many with 0 or 1 rows at depth
            // 4–5 and a few large ones (full-width compaction) at depth 2.
            let mut level = vec![(root, c.rows.clone())];
            for (depth, &feature) in c.features.iter().cycle().take(depth).enumerate() {
                let threshold = (c.binned.n_bins(feature as usize) / (2 + depth)) as u32;
                let col = c.binned.column(feature as usize);
                let mut next = Vec::new();
                for (range, rows) in level {
                    let mid = hist.partition(&c.binned, &range, feature, threshold);
                    let (left, right): (Vec<u32>, Vec<u32>) = rows
                        .iter()
                        .partition(|&&r| u32::from(col[r as usize]) <= threshold);
                    prop_assert_eq!(hist.rows(&(range.start..mid)), &left[..]);
                    prop_assert_eq!(hist.rows(&(mid..range.end)), &right[..]);
                    next.push((range.start..mid, left));
                    next.push((mid..range.end, right));
                }
                level = next;
            }
            let oracle_leaves: Vec<(Vec<u32>, f64, f64)> = level
                .iter()
                .map(|(_, rows)| {
                    let (g, h) = sums(rows, &c.gh);
                    (rows.clone(), g, h)
                })
                .collect();
            let leaves: Vec<NodeTask> = level
                .iter()
                .zip(&oracle_leaves)
                .map(|((range, _), &(_, g_sum, h_sum))| NodeTask {
                    node: 0,
                    rows: range.clone(),
                    g_sum,
                    h_sum,
                })
                .collect();
            let want =
                oracle_level_split(&c.binned, &oracle_leaves, &c.gh, &c.features, &c.params);
            // Twice: the second search runs on the scratch the first left.
            for _ in 0..2 {
                let got =
                    hist.best_level_split(&c.binned, &c.gh, &c.features, &leaves, &c.params);
                prop_assert_eq!(got, want);
            }
        }

        #[test]
        fn level_search_equals_the_dense_fold(
            seed in 0u64..1_000_000_000,
            n_leaves in 1usize..=32,
            n_slots in 1usize..=4,
        ) {
            // Runs over few thresholds with gains from a palette of
            // repeats, opposite signs and magnitudes 1e16 apart: runs of
            // different leaves meet with equal gains and the swept totals
            // lose whole terms to cancellation.
            let mut rng = StdRng::seed_from_u64(seed);
            let stride = [3, 9, 70][rng.gen_range(0..3)];
            let palette = [1.0, -1.0, 0.5, 3.0, 1e-13, 1e16, -1e16, 0.1, -0.3];
            let mut level = LevelRuns::default();
            level.start(n_slots, stride);
            for i in 0..n_leaves * n_slots {
                let mut t = rng.gen_range(0..stride);
                while rng.gen::<f64>() < 0.7 && t + 1 < stride {
                    let end = rng.gen_range(t + 1..stride);
                    let gain = palette[rng.gen_range(0..palette.len())];
                    level.push(i % n_slots, t as u32, end as u32, gain);
                    t = end;
                }
                level.bounds.push(level.runs.len());
            }
            let want = dense_level_fold(&level);
            prop_assert_eq!(level.best(), want);
            // The search leaves the scratch clear for the next level.
            prop_assert!(level.diff.iter().all(|d| d.to_bits() == 0));
            prop_assert!(level.marks.iter().all(|&w| w == 0));
        }
    }

    /// The reference for [`LevelRuns::best`]: every `(slot, t)`'s total,
    /// added leaf by leaf onto `+0.0` as the pre-engine loop did.
    fn dense_level_fold(level: &LevelRuns) -> Option<(usize, u32)> {
        let (n_slots, stride) = (level.n_slots, level.stride);
        let mut totals = vec![0.0f64; n_slots * stride];
        for (i, leaf) in level.bounds.windows(2).enumerate() {
            for run in &level.runs[leaf[0]..leaf[1]] {
                for t in run.start..run.end {
                    totals[i % n_slots * stride + t as usize] += run.gain;
                }
            }
        }
        let mut best: Option<(usize, u32, f64)> = None;
        for (at, &total) in totals.iter().enumerate() {
            if total > 1e-12 && best.is_none_or(|(_, _, b)| total > b) {
                best = Some((at / stride, (at % stride) as u32, total));
            }
        }
        best.map(|(slot, t, _)| (slot, t))
    }

    #[test]
    fn runs_that_meet_with_equal_gains_are_each_searched() {
        // Leaves in the order a, c, d, b. The runs of a (1..3) and b
        // (3..5) have one gain, so the difference array is 0 at 3, yet
        // the folds differ: ((1 + 1e16) - 1e16) = 0 over 1..3 but
        // ((1e16 - 1e16) + 1) = 1 over 3..5. The oracle picks 3.
        let mut level = LevelRuns::default();
        level.start(1, 7);
        for (start, end, gain) in [(1, 3, 1.0), (0, 6, 1e16), (0, 6, -1e16), (3, 5, 1.0)] {
            level.push(0, start, end, gain);
            level.bounds.push(level.runs.len());
        }
        assert_eq!(dense_level_fold(&level), Some((0, 3)));
        assert_eq!(level.best(), Some((0, 3)));
    }
}
