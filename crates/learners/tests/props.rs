//! Property-based tests of the ML layer: binning invariants, probability
//! normalization, prediction-bound guarantees under arbitrary data, and
//! the forest grower against the per-candidate evaluation it replaced.

use flaml_data::{Dataset, Task};
use flaml_learners::{
    goes_left, BinMapper, DTreeNode, DecisionTree, Forest, ForestParams, Gbdt, GbdtNode,
    GbdtParams, Growth, Linear, LinearParams, SplitCriterion, TreeParams,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The tree grower as it stood before forests grew in one pass per
/// (node, feature): every candidate threshold of a node comes from a
/// stable float sort of the node's values and is scored by its own pass
/// over the node's rows; purity, impurity and leaf values each re-read
/// the rows. Kept here, and only here, as the reference the one-pass
/// grower must reproduce bit for bit — trees and random stream alike.
mod oracle {
    use super::*;

    pub fn fit(
        data: &Dataset,
        rows: &[usize],
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> Vec<DTreeNode> {
        let n_classes = data.task().n_classes().unwrap_or(0);
        let mut nodes = vec![leaf(data, rows, n_classes)];
        grow(&mut nodes, data, 0, rows.to_vec(), 0, params, rng);
        nodes
    }

    /// The forest loop around [`fit`]: bootstrap draws and trees share
    /// one stream, in order.
    pub fn forest(data: &Dataset, params: &ForestParams, seed: u64) -> Vec<Vec<DTreeNode>> {
        let n = data.n_rows();
        let tree_params = TreeParams {
            max_features: params.max_features,
            criterion: match data.task() {
                Task::Regression => SplitCriterion::Variance,
                _ => params.criterion,
            },
            random_threshold: params.extra,
            min_samples_leaf: 1,
            max_depth: params.max_depth,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        (0..params.n_trees)
            .map(|_| {
                let rows: Vec<usize> = if params.extra {
                    (0..n).collect()
                } else {
                    (0..n).map(|_| rng.gen_range(0..n)).collect()
                };
                fit(data, &rows, &tree_params, &mut rng)
            })
            .collect()
    }

    fn leaf(data: &Dataset, rows: &[usize], n_classes: usize) -> DTreeNode {
        let y = data.target();
        let value = if n_classes == 0 {
            vec![rows.iter().map(|&r| y[r]).sum::<f64>() / rows.len() as f64]
        } else {
            let mut dist = vec![0.0; n_classes];
            for &r in rows {
                dist[y[r] as usize] += 1.0;
            }
            let total = rows.len() as f64;
            for v in &mut dist {
                *v /= total;
            }
            dist
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

    fn grow(
        nodes: &mut Vec<DTreeNode>,
        data: &Dataset,
        node: usize,
        rows: Vec<usize>,
        depth: usize,
        params: &TreeParams,
        rng: &mut StdRng,
    ) {
        let n_classes = data.task().n_classes().unwrap_or(0);
        if rows.len() < 2 * params.min_samples_leaf.max(1) {
            return;
        }
        if params.max_depth.is_some_and(|cap| depth >= cap) {
            return;
        }
        let y = data.target();
        if rows.iter().all(|&r| y[r] == y[rows[0]]) {
            return;
        }
        let Some((feature, threshold)) = find_split(data, &rows, params, n_classes, rng) else {
            return;
        };
        let col = data.column(feature as usize);
        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) = rows
            .into_iter()
            .partition(|&r| goes_left(col[r], threshold));
        if left_rows.len() < params.min_samples_leaf || right_rows.len() < params.min_samples_leaf {
            return;
        }
        let left_id = nodes.len() as u32;
        nodes.push(leaf(data, &left_rows, n_classes));
        nodes.push(leaf(data, &right_rows, n_classes));
        let parent = &mut nodes[node];
        parent.is_leaf = false;
        parent.feature = feature;
        parent.threshold = threshold;
        parent.left = left_id;
        parent.right = left_id + 1;
        grow(
            nodes,
            data,
            left_id as usize,
            left_rows,
            depth + 1,
            params,
            rng,
        );
        grow(
            nodes,
            data,
            left_id as usize + 1,
            right_rows,
            depth + 1,
            params,
            rng,
        );
    }

    fn find_split(
        data: &Dataset,
        rows: &[usize],
        params: &TreeParams,
        n_classes: usize,
        rng: &mut StdRng,
    ) -> Option<(u32, f64)> {
        let d = data.n_features();
        let want = ((d as f64 * params.max_features).ceil() as usize).clamp(1, d);
        let mut features: Vec<u32> = (0..d as u32).collect();
        for i in 0..want {
            let j = rng.gen_range(i..features.len());
            features.swap(i, j);
        }
        features.truncate(want);

        let parent_impurity = impurity(data, rows, params.criterion, n_classes);
        let mut best: Option<(u32, f64, f64)> = None; // (feature, threshold, score)
        for &j in &features {
            let col = data.column(j as usize);
            let candidates = if params.random_threshold {
                random_threshold(col, rows, rng).into_iter().collect()
            } else {
                candidate_thresholds(col, rows)
            };
            for t in candidates {
                let (li, ln, ri, rn) =
                    split_impurities(data, rows, j as usize, t, params.criterion, n_classes);
                if ln < params.min_samples_leaf || rn < params.min_samples_leaf {
                    continue;
                }
                let total = (ln + rn) as f64;
                let weighted = (ln as f64 * li + rn as f64 * ri) / total;
                let gain = parent_impurity - weighted;
                if gain > 1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((j, t, gain));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }

    fn impurity(
        data: &Dataset,
        rows: &[usize],
        criterion: SplitCriterion,
        n_classes: usize,
    ) -> f64 {
        let y = data.target();
        match criterion {
            SplitCriterion::Variance => {
                let n = rows.len() as f64;
                let mean = rows.iter().map(|&r| y[r]).sum::<f64>() / n;
                rows.iter()
                    .map(|&r| (y[r] - mean) * (y[r] - mean))
                    .sum::<f64>()
                    / n
            }
            SplitCriterion::Gini | SplitCriterion::Entropy => {
                let mut counts = vec![0usize; n_classes];
                for &r in rows {
                    counts[y[r] as usize] += 1;
                }
                class_impurity(&counts, rows.len(), criterion)
            }
        }
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

    /// Impurities and sizes of the two sides of a split: one pass over
    /// the node's rows per candidate.
    fn split_impurities(
        data: &Dataset,
        rows: &[usize],
        feature: usize,
        threshold: f64,
        criterion: SplitCriterion,
        n_classes: usize,
    ) -> (f64, usize, f64, usize) {
        let col = data.column(feature);
        let y = data.target();
        if criterion == SplitCriterion::Variance {
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
            (var(ls, lss, ln), ln, var(rs, rss, rn), rn)
        } else {
            let mut lc = vec![0usize; n_classes];
            let mut rc = vec![0usize; n_classes];
            let (mut ln, mut rn) = (0usize, 0usize);
            for &r in rows {
                if goes_left(col[r], threshold) {
                    lc[y[r] as usize] += 1;
                    ln += 1;
                } else {
                    rc[y[r] as usize] += 1;
                    rn += 1;
                }
            }
            let li = if ln == 0 {
                0.0
            } else {
                class_impurity(&lc, ln, criterion)
            };
            let ri = if rn == 0 {
                0.0
            } else {
                class_impurity(&rc, rn, criterion)
            };
            (li, ln, ri, rn)
        }
    }

    /// Up to 15 quantile thresholds of the node's non-missing values
    /// (midpoints between consecutive distinct values when few), from a
    /// stable sort and dedup of the values themselves.
    pub fn candidate_thresholds(col: &[f64], rows: &[usize]) -> Vec<f64> {
        let mut values: Vec<f64> = rows
            .iter()
            .map(|&r| col[r])
            .filter(|v| !v.is_nan())
            .collect();
        if values.len() < 2 {
            return Vec::new();
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after filter"));
        values.dedup();
        if values.len() < 2 {
            return Vec::new();
        }
        const MAX_CANDIDATES: usize = 15;
        if values.len() <= MAX_CANDIDATES + 1 {
            return values.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
        }
        let mut out = Vec::with_capacity(MAX_CANDIDATES);
        for q in 1..=MAX_CANDIDATES {
            let pos = (q * values.len() / (MAX_CANDIDATES + 1)).clamp(1, values.len() - 1);
            let cut = (values[pos - 1] + values[pos]) / 2.0;
            if out.last().is_none_or(|&last| cut > last) {
                out.push(cut);
            }
        }
        out
    }

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
        Some(rng.gen_range(lo..hi))
    }
}

/// Every field of every node, floats as bits (a `NaN` threshold must
/// compare equal to itself).
fn node_bits(nodes: &[DTreeNode]) -> Vec<(u32, u64, u32, u32, bool, Vec<u64>)> {
    nodes
        .iter()
        .map(|n| {
            let value = n.value.iter().map(|v| v.to_bits()).collect();
            (
                n.feature,
                n.threshold.to_bits(),
                n.left,
                n.right,
                n.is_leaf,
                value,
            )
        })
        .collect()
}

/// Feature values a tree must not stumble over: missing cells, both
/// zeros, subnormals, magnitudes whose midpoints and ranges overflow
/// (a `+inf` midpoint, `+inf` and `NaN` random thresholds), infinities,
/// and a handful of small integers for heavy ties.
fn awkward_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -100f64..100.0,
        -100f64..100.0,
        -100f64..100.0,
        (0u8..4).prop_map(f64::from),
        (0u8..4).prop_map(f64::from),
        Just(f64::NAN),
        Just(0.0f64),
        Just(-0.0f64),
        Just(2.5e-310f64),
        Just(-4.0e-320f64),
        Just(1e308f64),
        Just(1.5e308f64),
        Just(-1e308f64),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

/// Three awkward columns under 2-7 class or regression labels.
fn arb_awkward_dataset() -> impl Strategy<Value = Dataset> {
    (1usize..8, 24usize..90).prop_flat_map(|(k, n)| {
        (
            proptest::collection::vec(awkward_value(), n),
            proptest::collection::vec(awkward_value(), n),
            proptest::collection::vec(-1f64..1.0, n),
            proptest::collection::vec(0u8..k.max(2) as u8, n),
        )
            .prop_map(move |(c0, c1, c2, y)| {
                let task = match k {
                    1 => Task::Regression,
                    2 => Task::Binary,
                    _ => Task::MultiClass(k),
                };
                let y = y.into_iter().map(f64::from).collect();
                Dataset::new("awkward", task, vec![c0, c1, c2], y).unwrap()
            })
    })
}

fn arb_binary_dataset() -> impl Strategy<Value = Dataset> {
    (20usize..120).prop_flat_map(|n| {
        (
            proptest::collection::vec(-100f64..100.0, n),
            proptest::collection::vec(-1f64..1.0, n),
            proptest::collection::vec(0u8..2, n),
        )
            .prop_filter("both classes", |(_, _, y)| y.contains(&0) && y.contains(&1))
            .prop_map(|(c0, c1, y)| {
                Dataset::new(
                    "p",
                    Task::Binary,
                    vec![c0, c1],
                    y.into_iter().map(f64::from).collect(),
                )
                .unwrap()
            })
    })
}

fn arb_regression_dataset() -> impl Strategy<Value = Dataset> {
    (20usize..120).prop_flat_map(|n| {
        (
            proptest::collection::vec(-100f64..100.0, n),
            proptest::collection::vec(-50f64..50.0, n),
        )
            .prop_map(|(c0, y)| Dataset::new("p", Task::Regression, vec![c0], y).unwrap())
    })
}

/// One exported GBDT node with its leaf value as bits.
type NodeBits = (u32, u32, u32, u32, u64, bool);

/// A dataset of any task kind whose features mix ordinary values with
/// NaN (missing) and subnormal magnitudes — the awkward inputs the
/// binning layer must absorb without breaking bit-exact tree prefixes.
fn arb_messy_dataset() -> impl Strategy<Value = Dataset> {
    // The stub's `prop_oneof!` draws arms uniformly; repeating the
    // numeric arm biases features toward ordinary values.
    let feature = |n: usize| {
        proptest::collection::vec(
            prop_oneof![
                -100f64..100.0,
                -100f64..100.0,
                -100f64..100.0,
                -100f64..100.0,
                -100f64..100.0,
                -100f64..100.0,
                Just(f64::NAN),
                Just(2.5e-310f64),
                Just(-4.0e-320f64),
            ],
            n,
        )
    };
    (0usize..3, 24usize..90).prop_flat_map(move |(kind, n)| {
        let labels = match kind {
            0 => proptest::collection::vec(0u8..2, n)
                .prop_filter("both classes", |y| y.contains(&0) && y.contains(&1))
                .boxed(),
            1 => proptest::collection::vec(0u8..3, n)
                .prop_filter("all classes", |y| {
                    y.contains(&0) && y.contains(&1) && y.contains(&2)
                })
                .boxed(),
            _ => proptest::collection::vec(0u8..200, n).boxed(),
        };
        (feature(n), feature(n), labels).prop_map(move |(c0, c1, y)| {
            let task = match kind {
                0 => Task::Binary,
                1 => Task::MultiClass(3),
                _ => Task::Regression,
            };
            let y = y.into_iter().map(f64::from).collect();
            Dataset::new("messy", task, vec![c0, c1], y).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn binning_is_monotone_and_bounded(
        col in proptest::collection::vec(-1e6f64..1e6, 2..300),
        max_bin in 2usize..64,
    ) {
        let n = col.len();
        let data = Dataset::new(
            "b",
            Task::Regression,
            vec![col.clone()],
            (0..n).map(|i| i as f64).collect(),
        ).unwrap();
        let mapper = BinMapper::fit(&data, max_bin);
        prop_assert!(mapper.n_bins(0) <= max_bin + 2);
        let mut pairs: Vec<(f64, u32)> = col.iter().map(|&v| (v, mapper.bin(0, v))).collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in pairs.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn gbdt_probabilities_are_normalized(data in arb_binary_dataset(), seed in 0u64..20) {
        let params = GbdtParams { n_trees: 5, ..GbdtParams::default() };
        let model = Gbdt::fit(&data, &params, seed).unwrap();
        let pred = model.predict(&data);
        let (_, p) = pred.probs().unwrap();
        for row in p.chunks_exact(2) {
            prop_assert!((row[0] + row[1] - 1.0).abs() < 1e-9);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn forest_probabilities_are_normalized(data in arb_binary_dataset(), seed in 0u64..20) {
        let params = ForestParams { n_trees: 5, ..ForestParams::default() };
        let model = Forest::fit(&data, &params, seed).unwrap();
        let pred = model.predict(&data);
        let (_, p) = pred.probs().unwrap();
        for row in p.chunks_exact(2) {
            prop_assert!((row[0] + row[1] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn forest_regression_stays_in_label_range(data in arb_regression_dataset(), seed in 0u64..20) {
        // Averaged leaf means can never leave the label range.
        let params = ForestParams { n_trees: 5, ..ForestParams::default() };
        let model = Forest::fit(&data, &params, seed).unwrap();
        let lo = data.target().iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.target().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &v in model.predict(&data).values().unwrap() {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{} outside [{}, {}]", v, lo, hi);
        }
    }

    #[test]
    fn linear_predictions_are_finite(data in arb_binary_dataset()) {
        let model = Linear::fit(&data, &LinearParams::default(), 0).unwrap();
        for p in model.predict(&data).positive_scores().unwrap() {
            prop_assert!(p.is_finite());
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn gbdt_deterministic_for_same_seed(data in arb_binary_dataset(), seed in 0u64..10) {
        let params = GbdtParams { n_trees: 3, subsample: 0.8, ..GbdtParams::default() };
        let a = Gbdt::fit(&data, &params, seed).unwrap().raw_scores(&data);
        let b = Gbdt::fit(&data, &params, seed).unwrap().raw_scores(&data);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn gbdt_trees_are_a_prefix_of_a_longer_fit(
        data in arb_messy_dataset(),
        n in 2usize..9,
        ksel in 0usize..3,
        sampled in 0u8..2,
        seed in 0u64..5,
    ) {
        // No boosting round reads `n_trees`, so the first `k · groups`
        // trees of an `n`-round fit are a `k`-round fit, bit for bit —
        // at the k ∈ {1, n-1} edges, across binary/multiclass/regression
        // objectives, with NaN and subnormal features, and with row and
        // column sampling drawing from the fit's RNG.
        let k = [1, n - 1, n / 2][ksel];
        let (subsample, colsample_bytree) = if sampled == 1 { (0.7, 0.6) } else { (1.0, 1.0) };
        let params = GbdtParams { n_trees: n, subsample, colsample_bytree, ..GbdtParams::default() };
        let long = Gbdt::fit(&data, &params, seed).unwrap();
        let short = Gbdt::fit(&data, &GbdtParams { n_trees: k, ..params }, seed).unwrap();
        let bits = |trees: &[Vec<GbdtNode>]| -> Vec<Vec<NodeBits>> {
            trees
                .iter()
                .map(|tree| {
                    tree.iter()
                        .map(|n| (n.feature, n.threshold, n.left, n.right, n.leaf_value.to_bits(), n.is_leaf))
                        .collect()
                })
                .collect()
        };
        let groups = long.n_groups();
        prop_assert_eq!(long.export_trees().len(), n * groups);
        prop_assert_eq!(
            bits(&long.export_trees()[..k * groups]),
            bits(&short.export_trees()),
            "k = {}", k
        );
    }

    #[test]
    fn gbdt_trees_ignore_appended_unsplittable_columns(
        data in arb_messy_dataset(),
        extra in 1usize..10,
        growth in prop_oneof![
            Just(Growth::LeafWise),
            Just(Growth::DepthWise),
            Just(Growth::Oblivious),
        ],
    ) {
        // The histogram engine accumulates features in groups; columns
        // that cannot split (constant, or missing everywhere) appended
        // after the real ones move every group boundary and remainder
        // (2 features become 3..=11) but may not move one bit of a tree.
        // (The bit-for-bit comparison of single splits with the loop the
        // engine replaced lives beside its `#[cfg(test)]` oracle in
        // `src/hist.rs`, which an integration test cannot reach.)
        let n = data.n_rows();
        let mut cols = data.columns().to_vec();
        for k in 0..extra {
            cols.push(vec![if k % 2 == 0 { 7.0 } else { f64::NAN }; n]);
        }
        let wide = Dataset::new("wide", data.task(), cols, data.target().to_vec()).unwrap();
        let params = GbdtParams { n_trees: 4, max_leaves: 8, growth, ..GbdtParams::default() };
        let bits = |d: &Dataset| -> Vec<(u32, u32, u32, u32, u64, bool)> {
            Gbdt::fit(d, &params, 3)
                .unwrap()
                .export_trees()
                .iter()
                .flatten()
                .map(|n| (n.feature, n.threshold, n.left, n.right, n.leaf_value.to_bits(), n.is_leaf))
                .collect()
        };
        prop_assert_eq!(bits(&data), bits(&wide));
    }

    #[test]
    fn forests_match_the_per_candidate_oracle(
        data in arb_awkward_dataset(),
        (extra, entropy) in (0u8..2, 0u8..2),
        (features, depth) in (1usize..4, 0usize..7),
        order in proptest::collection::vec(0usize..24, 30..70),
        seed in 0u64..1000,
    ) {
        // Fit on a view that repeats and reorders rows, so the grower's
        // gathered columns are not the storage's; the oracle gets the
        // same rows as a plain dataset.
        let view = data.view().select(&order);
        let params = ForestParams {
            n_trees: 3,
            max_features: features as f64 / 3.0,
            criterion: if entropy == 1 { SplitCriterion::Entropy } else { SplitCriterion::Gini },
            extra: extra == 1,
            max_depth: (depth > 0).then_some(depth),
        };
        let model = Forest::fit(&view, &params, seed).unwrap();
        let want = oracle::forest(&view.materialize(), &params, seed);
        prop_assert_eq!(model.n_trees(), want.len());
        for (tree, want) in model.trees().iter().zip(&want) {
            prop_assert_eq!(node_bits(tree.export_nodes()), node_bits(want));
        }
    }

    #[test]
    fn single_trees_match_the_oracle_and_leave_the_stream_where_it_did(
        data in arb_awkward_dataset(),
        (extra, entropy, leaf) in (0u8..2, 0u8..2, 0usize..4),
        (features, depth) in (1usize..4, 0usize..7),
        rows in proptest::collection::vec(0usize..24, 1..80),
        seed in 0u64..1000,
    ) {
        let params = TreeParams {
            max_features: features as f64 / 3.0,
            criterion: match (data.task(), entropy) {
                (Task::Regression, _) => SplitCriterion::Variance,
                (_, 1) => SplitCriterion::Entropy,
                _ => SplitCriterion::Gini,
            },
            random_threshold: extra == 1,
            min_samples_leaf: leaf,
            max_depth: (depth > 0).then_some(depth),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oracle_rng = StdRng::seed_from_u64(seed);
        let tree = DecisionTree::fit(&data, &rows, &params, &mut rng);
        let want = oracle::fit(&data, &rows, &params, &mut oracle_rng);
        prop_assert_eq!(node_bits(tree.export_nodes()), node_bits(&want));
        // Same number of draws, in the same order: the next tree of a
        // forest would see the same stream.
        prop_assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>());
    }

    #[test]
    fn every_rank_derived_cut_is_the_float_sorted_cut(
        col in proptest::collection::vec(awkward_value(), 2..60),
        picks in proptest::collection::vec(0usize..1000, 2..90),
    ) {
        // The grower derives a node's candidate cuts from integer ranks;
        // the oracle sorts the node's floats. Make each oracle cut the
        // one perfect split in turn: the tree's root must then carry
        // that cut's exact bits (or those of the first cut that parts
        // the node the same way, which wins the tie in both).
        let rows: Vec<usize> = picks.iter().map(|p| p % col.len()).collect();
        let cuts = oracle::candidate_thresholds(&col, &rows);
        let goes = |t: f64| -> Vec<bool> { rows.iter().map(|&r| goes_left(col[r], t)).collect() };
        let params = TreeParams { max_depth: Some(1), ..TreeParams::default() };
        for &cut in &cuts {
            let y = col.iter().map(|&v| f64::from(!goes_left(v, cut))).collect();
            let data = Dataset::new("cut", Task::Binary, vec![col.clone()], y).unwrap();
            let tree = DecisionTree::fit(&data, &rows, &params, &mut StdRng::seed_from_u64(0));
            let nodes = tree.export_nodes();
            let side = goes(cut);
            if side.iter().all(|&l| l) || side.iter().all(|&l| !l) {
                prop_assert_eq!(nodes.len(), 1, "cut {} parts nothing", cut);
                continue;
            }
            let first = cuts.iter().find(|&&t| goes(t) == side).expect("the cut itself");
            prop_assert_eq!(nodes.len(), 3, "cut {} must split", cut);
            prop_assert_eq!(nodes[0].threshold.to_bits(), first.to_bits(), "cut {}", cut);
            prop_assert_eq!(&nodes[1].value, &vec![1.0, 0.0]);
            prop_assert_eq!(&nodes[2].value, &vec![0.0, 1.0]);
        }
    }
}
