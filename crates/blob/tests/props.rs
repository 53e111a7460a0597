//! Property-based tests of the blob format: random fitted models and
//! hand-built slabs with pathological floats round-trip through the
//! binary format bit-identically under every layout-option combination,
//! and corrupted files — truncations, byte flips anywhere, and
//! structurally invalid files whose fingerprint has been re-patched to
//! hash correctly — are always rejected with a typed [`ArtifactError`],
//! never loaded silently and never a panic.

use flaml_blob::{blob_fingerprint, encode_blob, BlobModel, BlobOptions};
use flaml_data::{Dataset, Task};
use flaml_learners::{Encoding, MAX_ONE_HOT};
use flaml_learners::{Forest, ForestParams, Gbdt, GbdtParams, Linear, LinearParams};
use flaml_serve::{
    ArtifactError, CompiledForest, CompiledGbdt, CompiledLinear, CompiledModel, CompiledStacked,
};
use proptest::prelude::*;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (20usize..80, 0usize..3).prop_flat_map(|(n, kind)| {
        (
            proptest::collection::vec(-50f64..50.0, n),
            proptest::collection::vec(-1f64..1.0, n),
        )
            .prop_map(move |(c0, c1)| {
                let (task, y): (Task, Vec<f64>) = match kind {
                    0 => (
                        Task::Binary,
                        c0.iter().map(|&v| f64::from(v > 0.0)).collect(),
                    ),
                    1 => (
                        Task::MultiClass(3),
                        c0.iter()
                            .map(|&v| ((v.abs() / 18.0) as usize).min(2) as f64)
                            .collect(),
                    ),
                    _ => (
                        Task::Regression,
                        c0.iter().zip(&c1).map(|(&a, &b)| a * 0.5 + b).collect(),
                    ),
                };
                Dataset::new("prop", task, vec![c0, c1], y).unwrap()
            })
            .prop_filter("all classes present", |d| match d.task() {
                Task::Binary => d.target().contains(&0.0) && d.target().contains(&1.0),
                Task::MultiClass(k) => (0..k).all(|c| d.target().contains(&(c as f64))),
                Task::Regression => true,
            })
    })
}

fn arb_opts() -> impl Strategy<Value = BlobOptions> {
    (0usize..2).prop_map(|i| BlobOptions { quantize: i != 0 })
}

/// Pathological f64s a binary format is most likely to mangle.
fn arb_edge_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MIN_POSITIVE / 8.0), // subnormal
        Just(-f64::MIN_POSITIVE / 8.0),
        Just(-0.0),
        Just(5e-324), // smallest subnormal
        Just(1e308),
        -1f64..1.0,
    ]
}

fn slab_gbdt(cut: f64, left_leaf: f64, right_leaf: f64) -> CompiledModel {
    CompiledModel::Gbdt(CompiledGbdt {
        cuts: vec![vec![cut]],
        n_groups: 1,
        init_scores: vec![0.0],
        task: Task::Regression,
        tree_roots: vec![0],
        feature: vec![0, 0, 0],
        threshold: vec![1, 0, 0],
        left: vec![1, 0, 0],
        right: vec![2, 0, 0],
        leaf_value: vec![0.0, left_leaf, right_leaf],
        is_leaf: vec![false, true, true],
    })
}

fn slab_forest(threshold: f64, left_leaf: f64, right_leaf: f64) -> CompiledModel {
    CompiledModel::Forest(CompiledForest {
        task: Task::Regression,
        n_features: 1,
        leaf_width: 1,
        tree_roots: vec![0],
        feature: vec![0, 0, 0],
        threshold: vec![threshold, 0.0, 0.0],
        left: vec![1, 0, 0],
        right: vec![2, 0, 0],
        is_leaf: vec![false, true, true],
        values: vec![0.0, left_leaf, right_leaf],
    })
}

/// A multiclass forest whose per-node value rows are genuinely ragged
/// across trees (different depths), plus a multiclass gbdt with ragged
/// cuts (a constant feature with zero cut points next to a rich one) —
/// the flattened offset sections must reproduce both exactly.
fn ragged_multiclass_models() -> Vec<CompiledModel> {
    let forest = CompiledModel::Forest(CompiledForest {
        task: Task::MultiClass(3),
        n_features: 2,
        leaf_width: 3,
        // Tree 0: a stump (1 node). Tree 1: one split (3 nodes).
        tree_roots: vec![0, 1],
        feature: vec![0, 1, 0, 0],
        threshold: vec![0.0, 0.25, 0.0, 0.0],
        left: vec![0, 2, 0, 0],
        right: vec![0, 3, 0, 0],
        is_leaf: vec![true, false, true, true],
        values: vec![
            0.2, 0.3, 0.5, // tree-0 leaf
            0.0, 0.0, 0.0, // internal
            1.0, 0.0, 0.0, // left leaf
            0.0, 0.5, 0.5, // right leaf
        ],
    });
    let gbdt = CompiledModel::Gbdt(CompiledGbdt {
        cuts: vec![vec![], vec![-0.5, 0.0, 0.5]],
        n_groups: 3,
        init_scores: vec![0.1, -0.2, 0.1],
        task: Task::MultiClass(3),
        tree_roots: vec![0, 3, 4],
        feature: vec![1, 0, 0, 0, 1, 0, 0],
        threshold: vec![1, 0, 0, 0, 2, 0, 0],
        left: vec![1, 0, 0, 0, 5, 0, 0],
        right: vec![2, 0, 0, 0, 6, 0, 0],
        leaf_value: vec![0.0, -1.5, 2.5, 0.75, 0.0, 0.25, -0.25],
        is_leaf: vec![false, true, true, true, false, true, true],
    });
    vec![forest, gbdt]
}

fn pred_bits(p: &flaml_metrics::Pred) -> Vec<u64> {
    match p {
        flaml_metrics::Pred::Values(v) => v.iter().map(|x| x.to_bits()).collect(),
        flaml_metrics::Pred::Probs { p, .. } => p.iter().map(|x| x.to_bits()).collect(),
    }
}

/// Re-stamps a hand-corrupted blob so it hashes correctly again —
/// structural rejections must fire on files whose fingerprint is valid.
fn repatch(bytes: &mut [u8]) {
    let fp = blob_fingerprint(bytes);
    bytes[40..48].copy_from_slice(&fp.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fitted_models_round_trip_bit_identically(
        data in arb_dataset(),
        seed in 0u64..20,
        learner in 0usize..3,
        opts in arb_opts(),
    ) {
        let model: flaml_learners::FittedModel = match learner {
            0 => Gbdt::fit(&data, &GbdtParams { n_trees: 6, ..GbdtParams::default() }, seed)
                .unwrap().into(),
            1 => Forest::fit(&data, &ForestParams { n_trees: 4, ..ForestParams::default() }, seed)
                .unwrap().into(),
            _ => Linear::fit(&data, &LinearParams::default(), seed).unwrap().into(),
        };
        let compiled = CompiledModel::compile(&model).unwrap();
        let blob = BlobModel::from_bytes(&encode_blob(&compiled, opts)).unwrap();
        prop_assert_eq!(
            pred_bits(&blob.predict(&data)),
            pred_bits(&compiled.predict(&data))
        );
    }

    #[test]
    fn pathological_floats_survive_the_binary_round_trip(
        left in arb_edge_f64(),
        right in arb_edge_f64(),
        cut in arb_edge_f64(),
        opts in arb_opts(),
        xs in proptest::collection::vec(-2f64..2.0, 5..40),
    ) {
        // NaN/±Inf leaves, subnormal thresholds: blob predictions must
        // match the owned model bit-for-bit under every layout option.
        let threshold = if cut.is_nan() { 0.0 } else { cut };
        let n = xs.len();
        let data = Dataset::new("edge", Task::Regression, vec![xs], vec![0.0; n]).unwrap();
        for model in [slab_gbdt(threshold, left, right), slab_forest(threshold, left, right)] {
            let blob = BlobModel::from_bytes(&encode_blob(&model, opts)).unwrap();
            prop_assert_eq!(
                pred_bits(&blob.predict(&data)),
                pred_bits(&model.predict(&data))
            );
        }
    }

    #[test]
    fn subnormal_thresholds_veto_quantization(sub in prop_oneof![
        Just(5e-324),
        Just(f64::MIN_POSITIVE / 8.0),
        Just(-f64::MIN_POSITIVE / 2.0),
        Just(1e-40), // representable only as an f32 subnormal, inexactly
    ]) {
        // A threshold that cannot round-trip f64 → f32 → f64 must force
        // the f64 slab even when quantization is requested.
        let model = slab_forest(sub, 1.0, 2.0);
        let opts = BlobOptions { quantize: true };
        let blob = BlobModel::from_bytes(&encode_blob(&model, opts)).unwrap();
        prop_assert!(!blob.quantized(), "subnormal {sub:e} must not quantize");
    }

    #[test]
    fn ragged_multiclass_slabs_round_trip(opts in arb_opts(), seed in 0u64..5) {
        let n = 30;
        let c0: Vec<f64> = (0..n).map(|i| f64::from(i) * 0.1 - 1.5 + f64::from(seed as u32)).collect();
        let c1: Vec<f64> = (0..n).map(|i| f64::from(i % 7) * 0.3 - 1.0).collect();
        let data = Dataset::new(
            "ragged",
            Task::MultiClass(3),
            vec![c0, c1],
            (0..n).map(|i| f64::from(i % 3)).collect(),
        ).unwrap();
        for model in ragged_multiclass_models() {
            let blob = BlobModel::from_bytes(&encode_blob(&model, opts)).unwrap();
            prop_assert_eq!(
                pred_bits(&blob.predict(&data)),
                pred_bits(&model.predict(&data))
            );
        }
    }

    #[test]
    fn truncated_blobs_are_rejected_with_a_typed_error(
        data in arb_dataset(),
        opts in arb_opts(),
        frac in 0.0f64..0.999,
    ) {
        let model: flaml_learners::FittedModel =
            Linear::fit(&data, &LinearParams::default(), 0).unwrap().into();
        let bytes = encode_blob(&CompiledModel::compile(&model).unwrap(), opts);
        let cut = ((bytes.len() as f64) * frac) as usize;
        let err = BlobModel::from_bytes(&bytes[..cut]).unwrap_err();
        prop_assert!(
            matches!(err, ArtifactError::Layout(_)),
            "truncation to {cut} bytes gave {err:?}"
        );
    }

    #[test]
    fn flipped_bytes_never_load_silently(
        data in arb_dataset(),
        opts in arb_opts(),
        at_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let model: flaml_learners::FittedModel =
            Linear::fit(&data, &LinearParams::default(), 1).unwrap().into();
        let mut bytes = encode_blob(&CompiledModel::compile(&model).unwrap(), opts);
        let at = ((bytes.len() - 1) as f64 * at_frac) as usize;
        bytes[at] ^= flip;
        // Every byte of the file is authenticated (the fingerprint
        // covers header and padding too), so a flip anywhere must
        // surface as one of the typed rejections — never a load.
        match BlobModel::from_bytes(&bytes) {
            Ok(_) => prop_assert!(false, "flip {flip:#x} at {at} loaded silently"),
            Err(
                ArtifactError::BadMagic { .. }
                | ArtifactError::Version { .. }
                | ArtifactError::Layout(_)
                | ArtifactError::FingerprintMismatch { .. },
            ) => {}
            Err(other) => prop_assert!(false, "untyped rejection {other:?}"),
        }
    }

    #[test]
    fn structural_corruption_is_layout_even_when_the_hash_is_valid(
        data in arb_dataset(),
        case in 0usize..4,
    ) {
        let model: flaml_learners::FittedModel = Forest::fit(
            &data, &ForestParams { n_trees: 3, ..ForestParams::default() }, 2,
        ).unwrap().into();
        let mut bytes = encode_blob(
            &CompiledModel::compile(&model).unwrap(),
            BlobOptions::default(),
        );
        match case {
            0 => {
                // Misalign the first section's offset by 8 bytes.
                let off = u64::from_le_bytes(bytes[72..80].try_into().unwrap());
                bytes[72..80].copy_from_slice(&(off + 8).to_le_bytes());
            }
            1 => {
                // Blow the first section's count past the file end.
                bytes[80..88].copy_from_slice(&u64::MAX.to_le_bytes());
            }
            2 => {
                // Unknown element type on the first section.
                bytes[68..72].copy_from_slice(&99u32.to_le_bytes());
            }
            _ => {
                // Claim one more model than the structure contains.
                let n = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
                bytes[24..28].copy_from_slice(&(n + 1).to_le_bytes());
            }
        }
        repatch(&mut bytes);
        let err = BlobModel::from_bytes(&bytes).unwrap_err();
        prop_assert!(
            matches!(err, ArtifactError::Layout(_)),
            "case {case} gave {err:?} instead of a layout error"
        );
    }
}

#[test]
fn header_probes_fire_before_the_fingerprint() {
    let model = slab_forest(0.5, 1.0, 2.0);
    let good = encode_blob(&model, BlobOptions::default());

    let mut foreign = good.clone();
    foreign[0..8].copy_from_slice(b"NOTABLOB");
    repatch(&mut foreign);
    assert!(matches!(
        BlobModel::from_bytes(&foreign).unwrap_err(),
        ArtifactError::BadMagic { .. }
    ));

    let mut future = good.clone();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    repatch(&mut future);
    assert!(matches!(
        BlobModel::from_bytes(&future).unwrap_err(),
        ArtifactError::Version {
            found: 99,
            supported: 1
        }
    ));

    let mut swapped = good.clone();
    swapped[12..16].copy_from_slice(&0x0D0C_0B0Au32.to_le_bytes());
    repatch(&mut swapped);
    assert!(matches!(
        BlobModel::from_bytes(&swapped).unwrap_err(),
        ArtifactError::Layout(_)
    ));

    // A stale fingerprint (without repatching) is its own typed error.
    let mut stale = good;
    stale[100] ^= 0x40;
    assert!(matches!(
        BlobModel::from_bytes(&stale).unwrap_err(),
        ArtifactError::FingerprintMismatch { .. }
    ));
}

#[test]
fn more_cuts_than_a_two_byte_bin_holds_is_a_typed_layout_error() {
    // The blob loader runs the same structural check as the JSON one:
    // a 65 535th cut on a feature used to panic on every predict.
    let with_cuts = |n: usize| {
        let mut model = slab_gbdt(0.5, -1.0, 1.0);
        if let CompiledModel::Gbdt(m) = &mut model {
            m.cuts = vec![(0..n).map(|c| c as f64).collect()];
        }
        encode_blob(&model, BlobOptions::default())
    };
    let data = Dataset::new(
        "wide",
        Task::Regression,
        vec![vec![0.25, 7e4]],
        vec![0.0; 2],
    )
    .unwrap();
    assert_eq!(
        BlobModel::from_bytes(&with_cuts(65_534))
            .unwrap()
            .predict(&data)
            .n_rows(),
        2
    );
    let err = BlobModel::from_bytes(&with_cuts(65_535)).unwrap_err();
    assert!(
        matches!(&err, ArtifactError::Layout(m) if m.contains("65535 cuts")),
        "{err}"
    );
}

#[test]
fn truncated_file_on_disk_is_rejected_through_the_file_path() {
    let model = slab_gbdt(0.5, -1.0, 1.0);
    let bytes = encode_blob(&model, BlobOptions::default());
    let dir = std::env::temp_dir().join(format!("flaml_blob_trunc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("torn.artifact.blob");
    std::fs::write(&path, &bytes[..bytes.len() - 16]).unwrap();
    assert!(matches!(
        BlobModel::open(&path).unwrap_err(),
        ArtifactError::Layout(_)
    ));
    std::fs::remove_dir_all(&dir).ok();
}

fn linear(task: Task, encodings: Vec<Encoding>, weights: Vec<Vec<f64>>) -> CompiledLinear {
    CompiledLinear {
        encodings,
        weights,
        task,
        y_mean: 0.0,
        y_std: 1.0,
    }
}

fn numeric(n: usize) -> Vec<Encoding> {
    vec![
        Encoding::Numeric {
            mean: 0.0,
            std: 1.0
        };
        n
    ]
}

fn one_hot(cardinality: usize) -> Vec<Encoding> {
    vec![Encoding::OneHot { cardinality }]
}

/// A stacked ensemble of one binary member (one prediction column)
/// under a meta-learner over `inputs` columns.
fn stacked(inputs: usize) -> CompiledModel {
    let member = linear(Task::Binary, numeric(1), vec![vec![0.5, 0.1]]);
    CompiledModel::Stacked(Box::new(CompiledStacked {
        members: vec![CompiledModel::Linear(member)],
        meta: linear(Task::Binary, numeric(inputs), vec![vec![1.0; inputs + 1]]),
        task: Task::Binary,
    }))
}

#[test]
fn linear_parts_that_do_not_fit_their_encodings_are_refused_by_both_loaders() {
    let lin = |task, encodings, weights| CompiledModel::Linear(linear(task, encodings, weights));
    let hostile = [
        (
            "no weight groups",
            lin(Task::Regression, numeric(1), vec![]),
        ),
        (
            "3 groups for 2 classes",
            lin(Task::MultiClass(2), numeric(1), vec![vec![0.5, 0.1]; 3]),
        ),
        (
            "a huge one-hot cardinality",
            lin(
                Task::Regression,
                one_hot(usize::MAX / 4),
                vec![vec![0.5; 2]],
            ),
        ),
        (
            "one category over the cap",
            lin(
                Task::Regression,
                one_hot(MAX_ONE_HOT + 1),
                vec![vec![0.5; MAX_ONE_HOT + 2]],
            ),
        ),
        (
            "a group without its intercept",
            lin(Task::Regression, numeric(2), vec![vec![5.0, 10.0]]),
        ),
        ("a meta-learner over 2 of 1 member columns", stacked(2)),
    ];
    for (case, model) in &hostile {
        match CompiledModel::from_artifact_str(&model.to_artifact_string()) {
            Err(ArtifactError::Layout(_)) => {}
            other => panic!("{case}: the JSON loader gave {other:?}"),
        }
        match BlobModel::from_bytes(&encode_blob(model, BlobOptions::tuned())) {
            Err(ArtifactError::Layout(_)) => {}
            other => panic!("{case}: the blob loader gave {other:?}"),
        }
    }
    let fitting = [
        lin(
            Task::Regression,
            one_hot(MAX_ONE_HOT),
            vec![vec![0.5; MAX_ONE_HOT + 1]],
        ),
        lin(Task::MultiClass(2), numeric(1), vec![vec![0.5, 0.1]; 2]),
        stacked(1),
    ];
    for model in &fitting {
        assert!(CompiledModel::from_artifact_str(&model.to_artifact_string()).is_ok());
        assert!(BlobModel::from_bytes(&encode_blob(model, BlobOptions::tuned())).is_ok());
    }
}

/// Section `tag`'s table entry: the byte offset of its data and of its
/// count field.
fn entry(bytes: &[u8], tag: u32) -> (usize, usize) {
    let n = u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
    let at = (0..n)
        .map(|i| 64 + 24 * i)
        .find(|&at| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) == tag)
        .expect("section present");
    let off = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
    (off as usize, at + 16)
}

/// Meta counts that wrap when multiplied or incremented are a layout
/// error, not an arithmetic overflow or an allocation of their size.
#[test]
fn meta_counts_that_overflow_are_a_layout_error() {
    let model = CompiledModel::Linear(linear(Task::Regression, numeric(1), vec![vec![0.5, 0.1]]));
    let good = encode_blob(&model, BlobOptions::default());
    let (meta, _) = entry(&good, 0);
    // 3 · n_encodings wraps to 2 words, the count the encodings
    // section is set to.
    let mut encodings = good.clone();
    let (_, count) = entry(&encodings, 12);
    encodings[count..count + 8].copy_from_slice(&2u64.to_le_bytes());
    let wraps_to_2 = 2u64.wrapping_mul(0xAAAA_AAAA_AAAA_AAAB);
    assert_eq!(wraps_to_2.wrapping_mul(3), 2);
    encodings[meta + 40..meta + 48].copy_from_slice(&wraps_to_2.to_le_bytes());
    // n_groups + 1 wraps to 0.
    let mut groups = good;
    groups[meta + 48..meta + 56].copy_from_slice(&u64::MAX.to_le_bytes());
    for (case, mut bytes) in [("encodings", encodings), ("groups", groups)] {
        repatch(&mut bytes);
        match BlobModel::from_bytes(&bytes) {
            Err(ArtifactError::Layout(_)) => {}
            other => panic!("{case}: {other:?}"),
        }
    }
}
