//! Model-level golden fingerprints of the boosting and forest learners.
//!
//! The histogram engine's contract is exactness: a refactor of how
//! histograms are accumulated may not move one bit of any tree. Each
//! fingerprint below is FNV-1a 64 over a fitted model's
//! `export_trees()` (feature, threshold, left, right as little-endian
//! `u32`, `leaf_value.to_bits()` as little-endian `u64`, `is_leaf` as
//! one byte, in tree then node order) followed by the bits of
//! `init_scores()`.
//!
//! How the table was produced: this file, with an empty `GOLDEN`
//! table, was copied into a checkout of commit 69463ef (PR 12, the
//! last commit with the per-feature `Vec<BinStats>` gather loops in
//! `gbdt.rs`) and run with `cargo test -p flaml-learners --test golden
//! -- --nocapture`; the failing assertion prints the table, which was
//! pasted here unchanged. A legitimate change of the reference bits
//! (e.g. histogram subtraction) must regenerate it the same way and say
//! so.

use flaml_data::{Dataset, Task};
use flaml_learners::{
    Forest, ForestModel, ForestParams, Gbdt, GbdtModel, GbdtParams, Growth, SplitCriterion,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_ROWS: usize = 700;
const N_FEATURES: usize = 7;

/// 700 x 7: two informative columns, a coarse integer column, a sparse
/// mostly-zero column, noise, and 5% NaN cells everywhere.
fn corpus(task: Task) -> Dataset {
    let mut rng = StdRng::seed_from_u64(0x90_1d);
    let mut cols: Vec<Vec<f64>> = (0..N_FEATURES)
        .map(|j| {
            (0..N_ROWS)
                .map(|_| match j {
                    2 => f64::from(rng.gen_range(0u32..6)),
                    3 => {
                        if rng.gen::<f64>() < 0.9 {
                            0.0
                        } else {
                            rng.gen::<f64>()
                        }
                    }
                    _ => rng.gen::<f64>() * 2.0 - 1.0,
                })
                .collect()
        })
        .collect();
    let signal: Vec<f64> = (0..N_ROWS)
        .map(|i| cols[0][i] * cols[1][i] + 0.3 * cols[2][i] + 0.2 * rng.gen::<f64>())
        .collect();
    for col in &mut cols {
        for v in col.iter_mut() {
            if rng.gen::<f64>() < 0.05 {
                *v = f64::NAN;
            }
        }
    }
    let y = signal
        .iter()
        .map(|&s| match task {
            Task::Regression => s,
            Task::Binary => f64::from(s > 0.8),
            Task::MultiClass(k) => ((s * 1.5).floor().max(0.0) as usize).min(k - 1) as f64,
        })
        .collect();
    Dataset::new("golden", task, cols, y).unwrap()
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fingerprint(model: &GbdtModel) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for tree in model.export_trees() {
        for n in tree {
            for word in [n.feature, n.threshold, n.left, n.right] {
                fnv1a(&mut h, &word.to_le_bytes());
            }
            fnv1a(&mut h, &n.leaf_value.to_bits().to_le_bytes());
            fnv1a(&mut h, &[u8::from(n.is_leaf)]);
        }
    }
    for s in model.init_scores() {
        fnv1a(&mut h, &s.to_bits().to_le_bytes());
    }
    h
}

/// Growth policy x task x {every row and column, subsampled rows and
/// columns at a small `max_bin`}; the oblivious sampled cells also run
/// the early-stopping holdout.
fn cells() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for growth in [Growth::LeafWise, Growth::DepthWise, Growth::Oblivious] {
        for task in [Task::Binary, Task::MultiClass(3), Task::Regression] {
            let data = corpus(task);
            for sampled in [false, true] {
                let params = if sampled {
                    GbdtParams {
                        n_trees: 12,
                        max_leaves: 24,
                        growth,
                        subsample: 0.7,
                        colsample_bytree: 0.8,
                        colsample_bylevel: 0.6,
                        max_bin: 16,
                        min_child_weight: 0.5,
                        early_stop_rounds: (growth == Growth::Oblivious).then_some(4),
                        ..GbdtParams::default()
                    }
                } else {
                    GbdtParams {
                        n_trees: 12,
                        max_leaves: 24,
                        growth,
                        ..GbdtParams::default()
                    }
                };
                let model = Gbdt::fit(&data, &params, 17).unwrap();
                let name = format!(
                    "{growth:?}/{task:?}/{}",
                    if sampled { "sampled" } else { "full" }
                );
                out.push((name, fingerprint(&model)));
            }
        }
    }
    out
}

const GOLDEN: [(&str, u64); 18] = [
    ("LeafWise/Binary/full", 0x1151b46700cca98f),
    ("LeafWise/Binary/sampled", 0xe2e0b5fbd15d42db),
    ("LeafWise/MultiClass(3)/full", 0x8460dd005defbe73),
    ("LeafWise/MultiClass(3)/sampled", 0xa215fcb17040d176),
    ("LeafWise/Regression/full", 0x5cc0af03e0a192cd),
    ("LeafWise/Regression/sampled", 0x3dceb3f17ea718e0),
    ("DepthWise/Binary/full", 0xcdec690957e410a0),
    ("DepthWise/Binary/sampled", 0x555d79c64d4e1f6f),
    ("DepthWise/MultiClass(3)/full", 0x109c423ee9f226ed),
    ("DepthWise/MultiClass(3)/sampled", 0xeec782023d131dfa),
    ("DepthWise/Regression/full", 0xf6fdba9f47b6aceb),
    ("DepthWise/Regression/sampled", 0x1e7e1822f5f1e9ba),
    ("Oblivious/Binary/full", 0xce743d6fa5119bbf),
    ("Oblivious/Binary/sampled", 0x83aa6d7397092d9f),
    ("Oblivious/MultiClass(3)/full", 0x2c7e9c31535c3878),
    ("Oblivious/MultiClass(3)/sampled", 0x495efc1dd7ac3694),
    ("Oblivious/Regression/full", 0xdfa62923c5b86e00),
    ("Oblivious/Regression/sampled", 0xe176c7b5bc1189de),
];

#[test]
fn trees_match_the_reference_bits() {
    let got = cells();
    let table: String = got
        .iter()
        .map(|(name, fp)| format!("    (\"{name}\", 0x{fp:016x}),\n"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "computed table:\n{table}");
    for ((name, fp), (want_name, want_fp)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, want_name);
        assert_eq!(*fp, want_fp, "{name} moved; computed table:\n{table}");
    }
}

// ---- Forests ----------------------------------------------------------
//
// The forest grower's contract is the same exactness: how a node's
// candidates are scored may change, which `(feature, threshold)` wins —
// and every draw of the shared RNG — may not. Each fingerprint is FNV-1a
// 64 over every node of every tree, in tree then node order: `feature`,
// `left`, `right` as little-endian `u32`, `threshold.to_bits()` as
// little-endian `u64`, `is_leaf` as one byte, then the bits of every
// entry of `value`. The table was produced at commit d50508e (the last
// commit with the per-candidate row scans in `dtree.rs`) the same way as
// the GBDT table above.

/// 240 x 6 three-class rows built to hit the grower's edge cases: a
/// column with `NaN`s, one holding both `0.0` and `-0.0`, a two-valued
/// categorical column, a constant column, a column of heavy ties and an
/// ordinary continuous one. `rf`'s bootstrap adds the duplicated rows.
fn edge_corpus() -> Dataset {
    let n = 240;
    let mut rng = StdRng::seed_from_u64(0xed_9e);
    let with_nan: Vec<f64> = (0..n)
        .map(|_| {
            if rng.gen::<f64>() < 0.2 {
                f64::NAN
            } else {
                rng.gen::<f64>() * 4.0 - 2.0
            }
        })
        .collect();
    let zeros: Vec<f64> = (0..n)
        .map(|_| match rng.gen_range(0u32..4) {
            0 => 0.0,
            1 => -0.0,
            2 => -1.5,
            _ => 2.5,
        })
        .collect();
    let categorical: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(0u32..2))).collect();
    let constant = vec![3.25; n];
    let ties: Vec<f64> = (0..n)
        .map(|_| {
            if rng.gen::<f64>() < 0.85 {
                1.0
            } else {
                f64::from(rng.gen_range(0u32..40)) / 8.0
            }
        })
        .collect();
    let smooth: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let y = (0..n)
        .map(|i| {
            let a = if with_nan[i].is_nan() {
                0.3
            } else {
                with_nan[i]
            };
            let s = a + zeros[i] * 0.5 + categorical[i] + ties[i] * 0.2 + smooth[i];
            (s.floor().max(0.0) as usize).min(2) as f64
        })
        .collect();
    let cols = vec![with_nan, zeros, categorical, constant, ties, smooth];
    Dataset::new("edge", Task::MultiClass(3), cols, y).unwrap()
}

fn forest_fingerprint(model: &ForestModel) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for tree in model.trees() {
        for n in tree.export_nodes().iter() {
            for word in [n.feature, n.left, n.right] {
                fnv1a(&mut h, &word.to_le_bytes());
            }
            fnv1a(&mut h, &n.threshold.to_bits().to_le_bytes());
            fnv1a(&mut h, &[u8::from(n.is_leaf)]);
            for v in &n.value {
                fnv1a(&mut h, &v.to_bits().to_le_bytes());
            }
        }
    }
    h
}

/// {rf, extra_tree} x {gini, entropy} on the binary, 3-class and edge
/// corpora (grown to purity and depth-capped), and variance on the
/// regression corpus.
fn forest_cells() -> Vec<(String, u64)> {
    let corpora = [
        ("binary", corpus(Task::Binary)),
        ("3class", corpus(Task::MultiClass(3))),
        ("edge", edge_corpus()),
        ("regression", corpus(Task::Regression)),
    ];
    let mut out = Vec::new();
    for (corpus_name, data) in &corpora {
        let criteria: &[SplitCriterion] = if data.task() == Task::Regression {
            &[SplitCriterion::Variance]
        } else {
            &[SplitCriterion::Gini, SplitCriterion::Entropy]
        };
        for extra in [false, true] {
            for &criterion in criteria {
                for max_depth in [None, Some(4)] {
                    let params = ForestParams {
                        n_trees: 5,
                        max_features: if max_depth.is_some() { 1.0 } else { 0.6 },
                        criterion,
                        extra,
                        max_depth,
                    };
                    let model = Forest::fit(data, &params, 23).unwrap();
                    let name = format!(
                        "{}/{corpus_name}/{criterion:?}/{}",
                        if extra { "extra_tree" } else { "rf" },
                        if max_depth.is_some() {
                            "depth4"
                        } else {
                            "pure"
                        },
                    );
                    out.push((name, forest_fingerprint(&model)));
                }
            }
        }
    }
    out
}

const FOREST_GOLDEN: [(&str, u64); 28] = [
    ("rf/binary/Gini/pure", 0x238a15622fd8b829),
    ("rf/binary/Gini/depth4", 0x45c4ba9b18191295),
    ("rf/binary/Entropy/pure", 0xd1aa0ae7334eca93),
    ("rf/binary/Entropy/depth4", 0xc681f9b4a21c1d7c),
    ("extra_tree/binary/Gini/pure", 0x99dd6edeb471c3d2),
    ("extra_tree/binary/Gini/depth4", 0xb054a50ef58a374f),
    ("extra_tree/binary/Entropy/pure", 0x2263fda32db9b655),
    ("extra_tree/binary/Entropy/depth4", 0xbf7eeb5d26638db6),
    ("rf/3class/Gini/pure", 0x199c9f8f94a762e4),
    ("rf/3class/Gini/depth4", 0xe04453717a500ee6),
    ("rf/3class/Entropy/pure", 0x833f4b71d1f5743f),
    ("rf/3class/Entropy/depth4", 0xdc305714043c1d91),
    ("extra_tree/3class/Gini/pure", 0xd10f94a47b4cb80d),
    ("extra_tree/3class/Gini/depth4", 0x855536b746a3b714),
    ("extra_tree/3class/Entropy/pure", 0xa576df6c1d1db762),
    ("extra_tree/3class/Entropy/depth4", 0x6a72b0a6330439a5),
    ("rf/edge/Gini/pure", 0x2d20ad063bc281c9),
    ("rf/edge/Gini/depth4", 0x1d7b5b4b3a26939d),
    ("rf/edge/Entropy/pure", 0x72ec71909289ea9e),
    ("rf/edge/Entropy/depth4", 0x432712806d758432),
    ("extra_tree/edge/Gini/pure", 0x34e1130a1af646fe),
    ("extra_tree/edge/Gini/depth4", 0x2c1c0f15fd175f00),
    ("extra_tree/edge/Entropy/pure", 0xa38f57daa59fe3be),
    ("extra_tree/edge/Entropy/depth4", 0x136c40aa7acaf0e3),
    ("rf/regression/Variance/pure", 0x0e8e434d883df523),
    ("rf/regression/Variance/depth4", 0x456a55547a8038ac),
    ("extra_tree/regression/Variance/pure", 0xc77d25843d854736),
    ("extra_tree/regression/Variance/depth4", 0x02c1c8f9bb39f0ed),
];

#[test]
fn forests_match_the_reference_bits() {
    let got = forest_cells();
    let table: String = got
        .iter()
        .map(|(name, fp)| format!("    (\"{name}\", 0x{fp:016x}),\n"))
        .collect();
    assert_eq!(got.len(), FOREST_GOLDEN.len(), "computed table:\n{table}");
    for ((name, fp), (want_name, want_fp)) in got.iter().zip(FOREST_GOLDEN) {
        assert_eq!(name, want_name);
        assert_eq!(*fp, want_fp, "{name} moved; computed table:\n{table}");
    }
}
