//! Property-based tests of the artifact format: random fitted models
//! and hand-built slabs with pathological floats (NaN/Inf leaf values,
//! subnormal thresholds) serialize → deserialize → predict
//! bit-identically, and corrupt or truncated artifacts are rejected
//! with a typed error.

use flaml_data::{Dataset, Task};
use flaml_learners::{Forest, ForestParams, Gbdt, GbdtParams, Linear, LinearParams};
use flaml_serve::{ArtifactError, CompiledForest, CompiledGbdt, CompiledModel};
use proptest::prelude::*;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (20usize..100, 0usize..3).prop_flat_map(|(n, kind)| {
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

/// A tiny hand-built boosted slab: one tree, one split on feature 0,
/// with caller-chosen threshold-adjacent leaf values. Lets the
/// round-trip property reach leaf payloads (NaN, ±Inf, subnormals) a
/// real fit would never produce.
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

fn pred_bits(model: &CompiledModel, data: &Dataset) -> Vec<u64> {
    use flaml_metrics::Pred;
    match model.predict(data) {
        Pred::Values(v) => v.iter().map(|x| x.to_bits()).collect(),
        Pred::Probs { p, .. } => p.iter().map(|x| x.to_bits()).collect(),
    }
}

/// Pathological f64s a serialization layer is most likely to mangle.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fitted_models_round_trip_bit_identically(
        data in arb_dataset(),
        seed in 0u64..20,
        learner in 0usize..3,
    ) {
        let model: flaml_learners::FittedModel = match learner {
            0 => Gbdt::fit(&data, &GbdtParams { n_trees: 6, ..GbdtParams::default() }, seed)
                .unwrap().into(),
            1 => Forest::fit(&data, &ForestParams { n_trees: 4, ..ForestParams::default() }, seed)
                .unwrap().into(),
            _ => Linear::fit(&data, &LinearParams::default(), seed).unwrap().into(),
        };
        let compiled = CompiledModel::compile(&model).unwrap();
        let text = compiled.to_artifact_string();
        let loaded = CompiledModel::from_artifact_str(&text).unwrap();
        prop_assert_eq!(&loaded, &compiled);
        prop_assert_eq!(pred_bits(&loaded, &data), pred_bits(&compiled, &data));
    }

    #[test]
    fn pathological_leaf_values_survive_the_round_trip(
        left in arb_edge_f64(),
        right in arb_edge_f64(),
        cut in arb_edge_f64(),
        xs in proptest::collection::vec(-2f64..2.0, 5..40),
    ) {
        // Subnormal/±Inf cuts and NaN/Inf leaves: predictions of the
        // reloaded artifact must match the original bit-for-bit.
        let threshold = if cut.is_nan() { 0.0 } else { cut };
        let n = xs.len();
        let data = Dataset::new(
            "edge",
            Task::Regression,
            vec![xs],
            vec![0.0; n],
        ).unwrap();
        for model in [slab_gbdt(threshold, left, right), slab_forest(threshold, left, right)] {
            let text = model.to_artifact_string();
            let loaded = CompiledModel::from_artifact_str(&text).unwrap();
            // PartialEq is useless under NaN; byte-compare the
            // serialized form instead (floats render bit-exactly).
            prop_assert_eq!(loaded.to_artifact_string(), text);
            prop_assert_eq!(pred_bits(&loaded, &data), pred_bits(&model, &data));
        }
    }

    #[test]
    fn truncated_artifacts_are_rejected_with_a_typed_error(
        data in arb_dataset(),
        frac in 0.0f64..0.999,
    ) {
        let model: flaml_learners::FittedModel =
            Linear::fit(&data, &LinearParams::default(), 0).unwrap().into();
        let text = CompiledModel::compile(&model).unwrap().to_artifact_string();
        let cut = ((text.len() as f64) * frac) as usize;
        let err = CompiledModel::from_artifact_str(&text[..cut]).unwrap_err();
        prop_assert!(
            matches!(err, ArtifactError::Parse(_)),
            "truncation at {} gave {:?}", cut, err
        );
    }

    #[test]
    fn hostile_child_pointers_and_features_are_typed_layout_errors(
        data in arb_dataset(),
        kind in 0usize..2,
        at_frac in 0.0f64..1.0,
        field in 0usize..3,
        value in prop_oneof![Just(0u32), Just(1), Just(2), Just(u32::MAX), 0u32..64],
    ) {
        // The sender computes the fingerprint, so it proves nothing about
        // the structure: a self-loop or a backward child used to load and
        // then spin the predicting thread forever.
        let model: flaml_learners::FittedModel = if kind == 1 {
            Forest::fit(&data, &ForestParams { n_trees: 3, ..ForestParams::default() }, 1)
                .unwrap().into()
        } else {
            Gbdt::fit(&data, &GbdtParams { n_trees: 3, ..GbdtParams::default() }, 1)
                .unwrap().into()
        };
        let mut compiled = CompiledModel::compile(&model).unwrap();
        let (feature, left, right) = match &mut compiled {
            CompiledModel::Gbdt(m) => (&mut m.feature, &mut m.left, &mut m.right),
            CompiledModel::Forest(m) => (&mut m.feature, &mut m.left, &mut m.right),
            _ => unreachable!("tree models"),
        };
        let at = ((feature.len() - 1) as f64 * at_frac) as usize;
        [feature, left, right][field][at] = value;
        match CompiledModel::from_artifact_str(&compiled.to_artifact_string()) {
            // A mutation the structure tolerates (a leaf's unread field,
            // a forward in-range child or feature) must still predict.
            Ok(loaded) => prop_assert_eq!(loaded.predict(&data).n_rows(), data.n_rows()),
            Err(ArtifactError::Layout(_)) => {}
            Err(other) => prop_assert!(false, "untyped rejection {:?}", other),
        }
    }

    #[test]
    fn corrupted_payload_bytes_never_load_silently(
        data in arb_dataset(),
        seed in 0u64..10,
        at_frac in 0.0f64..1.0,
        flip in 1u8..=127,
    ) {
        let model: flaml_learners::FittedModel =
            Linear::fit(&data, &LinearParams::default(), seed).unwrap().into();
        let compiled = CompiledModel::compile(&model).unwrap();
        let text = compiled.to_artifact_string();
        let mut bytes = text.clone().into_bytes();
        let at = ((bytes.len() - 1) as f64 * at_frac) as usize;
        bytes[at] ^= flip;
        let Ok(corrupt) = String::from_utf8(bytes) else {
            // Not valid UTF-8 any more: the read layer would reject it.
            continue;
        };
        match CompiledModel::from_artifact_str(&corrupt) {
            // A flip can land in ignorable whitespace or flip a digit
            // of the stored fingerprint *and* be detected; the only
            // unacceptable outcome is loading a payload that is not
            // the original model.
            Ok(loaded) => prop_assert_eq!(&loaded, &compiled),
            Err(
                ArtifactError::Parse(_)
                | ArtifactError::BadMagic { .. }
                | ArtifactError::Version { .. }
                | ArtifactError::FingerprintMismatch { .. },
            ) => {}
            Err(other) => prop_assert!(false, "untyped rejection {:?}", other),
        }
    }
}

/// A one-split boosted model whose only feature has `n_cuts` cuts.
fn gbdt_with_cuts(n_cuts: usize) -> CompiledModel {
    let mut model = slab_gbdt(0.5, -1.0, 1.0);
    if let CompiledModel::Gbdt(m) = &mut model {
        m.cuts = vec![(0..n_cuts).map(|c| c as f64).collect()];
    }
    model
}

#[test]
fn more_cuts_than_a_two_byte_bin_holds_is_a_typed_load_error() {
    // 65 534 cuts make 65 536 bins (the missing-value bin included):
    // exactly what a two-byte bin holds. One more used to panic inside
    // `BinMapper::from_cuts` on every predict.
    let data = Dataset::new(
        "wide",
        Task::Regression,
        vec![vec![0.25, 7e4]],
        vec![0.0; 2],
    )
    .unwrap();
    let widest = gbdt_with_cuts(65_534).to_artifact_string();
    let loaded = CompiledModel::from_artifact_str(&widest).unwrap();
    assert_eq!(
        pred_bits(&loaded, &data),
        pred_bits(&gbdt_with_cuts(65_534), &data)
    );
    let too_wide = gbdt_with_cuts(65_535).to_artifact_string();
    let err = CompiledModel::from_artifact_str(&too_wide).unwrap_err();
    assert!(
        matches!(&err, ArtifactError::Layout(m) if m.contains("65535 cuts")),
        "{err}"
    );
}

/// Shapes no learner produces, which used to load and then panic on
/// every predict: a zero-class boosted model (its score slot is the
/// tree index modulo zero) and a forest with no trees whose leaf width
/// sizes a rows × width buffer past what can be allocated.
#[test]
fn zero_class_and_treeless_models_are_typed_load_errors() {
    let mut zero_classes = slab_gbdt(0.5, -1.0, 1.0);
    if let CompiledModel::Gbdt(m) = &mut zero_classes {
        m.task = Task::MultiClass(0);
        m.n_groups = 0;
        m.init_scores.clear();
    }
    let width = usize::MAX / 8;
    let treeless = CompiledModel::Forest(CompiledForest {
        task: Task::MultiClass(width),
        n_features: 1,
        leaf_width: width,
        tree_roots: vec![],
        feature: vec![],
        threshold: vec![],
        left: vec![],
        right: vec![],
        is_leaf: vec![],
        values: vec![],
    });
    for model in [zero_classes, treeless] {
        match CompiledModel::from_artifact_str(&model.to_artifact_string()) {
            Err(ArtifactError::Layout(_)) => {}
            other => panic!("{:?} loaded as {other:?}", model.task()),
        }
    }
}
