//! Property-based tests of the ML layer: binning invariants, probability
//! normalization, and prediction-bound guarantees under arbitrary data.

use flaml_data::{Dataset, Task};
use flaml_learners::{
    BinMapper, Forest, ForestParams, Gbdt, GbdtParams, Growth, Linear, LinearParams,
};
use proptest::prelude::*;

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

/// A dataset of any task kind whose features mix ordinary values with
/// NaN (missing) and subnormal magnitudes — the awkward inputs the
/// binning layer must absorb without breaking continuation exactness.
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
    fn gbdt_continuation_is_bit_exact(
        data in arb_messy_dataset(),
        n in 2usize..9,
        ksel in 0usize..4,
        seed in 0u64..5,
    ) {
        // fit(n) == fit(k) + fit_continue(n - k), bit for bit, for every
        // split point — including the k ∈ {0, 1, n-1} edges — across
        // binary/multiclass/regression objectives and features containing
        // NaN and subnormal values.
        let k = [0, 1, n - 1, n / 2][ksel];
        let params = GbdtParams { n_trees: n, ..GbdtParams::default() };
        let full = Gbdt::fit(&data, &params, seed).unwrap();

        let mut state = Gbdt::fit_start(&data, &params, seed, None).unwrap();
        Gbdt::fit_continue(&mut state, k);
        prop_assert_eq!(state.rounds_done(), k);
        Gbdt::fit_continue(&mut state, n - k);
        prop_assert_eq!(state.rounds_done(), n);
        let staged = state.model();

        let full_bits: Vec<u64> =
            full.raw_scores(&data).iter().map(|v| v.to_bits()).collect();
        let staged_bits: Vec<u64> =
            staged.raw_scores(&data).iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(full_bits, staged_bits, "k = {}", k);

        // A backward snapshot at k rounds equals the direct k-round fit.
        if k >= 1 {
            let short = Gbdt::fit(
                &data,
                &GbdtParams { n_trees: k, ..params },
                seed,
            ).unwrap();
            let short_bits: Vec<u64> =
                short.raw_scores(&data).iter().map(|v| v.to_bits()).collect();
            let snap_bits: Vec<u64> = state
                .model_at(k)
                .raw_scores(&data)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            prop_assert_eq!(short_bits, snap_bits, "backward snapshot at k = {}", k);
        }
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
}
