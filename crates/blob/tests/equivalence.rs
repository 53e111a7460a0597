//! The format's headline contract: a [`BlobModel`] predicts
//! bit-identically to the JSON-loaded [`CompiledModel`] for **every**
//! learner kind, every task, both layouts (plain and quantized), and
//! both ways in (bytes already in memory and a file on disk).

use flaml_blob::{encode_blob, save_blob, ArtifactFormat, BlobModel, BlobOptions};
use flaml_data::{Dataset, Task};
use flaml_learners::{
    fit_meta, meta_features, FittedModel, Forest, ForestParams, Gbdt, GbdtParams, Linear,
    LinearParams, StackedModel,
};
use flaml_metrics::Pred;
use flaml_serve::CompiledModel;
use flaml_store::DiskStorage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pred_bits(p: &Pred) -> Vec<u64> {
    match p {
        Pred::Values(v) => v.iter().map(|x| x.to_bits()).collect(),
        Pred::Probs { p, .. } => p.iter().map(|x| x.to_bits()).collect(),
    }
}

/// Deterministic datasets, one per task. Feature values are small
/// integers and halves so that at least some fitted thresholds are
/// exactly f32-representable (letting the quantized path actually
/// engage on real models), with a few deliberately non-representable
/// values mixed in so the exactness gate is also exercised.
fn datasets() -> Vec<Dataset> {
    let n = 120;
    let c0: Vec<f64> = (0..n).map(|i| f64::from(i % 17)).collect();
    let c1: Vec<f64> = (0..n).map(|i| f64::from(i % 5) * 0.5 - 1.0).collect();
    let c2: Vec<f64> = (0..n).map(|i| 0.1 * f64::from(i % 7)).collect();
    let mk = |task: Task, y: Vec<f64>, name: &str| {
        Dataset::new(name, task, vec![c0.clone(), c1.clone(), c2.clone()], y).unwrap()
    };
    vec![
        mk(
            Task::Binary,
            (0..n).map(|i| f64::from(i % 17 > 8)).collect(),
            "bin",
        ),
        mk(
            Task::MultiClass(3),
            (0..n).map(|i| f64::from(i % 3)).collect(),
            "multi",
        ),
        mk(
            Task::Regression,
            (0..n)
                .map(|i| f64::from(i % 17) * 0.25 + f64::from(i % 5))
                .collect(),
            "reg",
        ),
    ]
}

fn fit_roster(data: &Dataset) -> Vec<(&'static str, FittedModel)> {
    let gbdt: FittedModel = Gbdt::fit(
        data,
        &GbdtParams {
            n_trees: 12,
            ..GbdtParams::default()
        },
        7,
    )
    .expect("gbdt fit")
    .into();
    let forest: FittedModel = Forest::fit(
        data,
        &ForestParams {
            n_trees: 6,
            ..ForestParams::default()
        },
        7,
    )
    .expect("forest fit")
    .into();
    let linear: FittedModel = Linear::fit(data, &LinearParams::default(), 7)
        .expect("linear fit")
        .into();
    let members = vec![gbdt.clone(), forest.clone()];
    let oof = meta_features(&members, data, data.target().to_vec());
    let stacked: FittedModel =
        StackedModel::new(members, fit_meta(&oof, 7).expect("meta fit"), data.task()).into();
    vec![
        ("gbdt", gbdt),
        ("forest", forest),
        ("linear", linear),
        ("stacked", stacked),
    ]
}

fn option_grid() -> [(&'static str, BlobOptions); 2] {
    [
        ("plain", BlobOptions::default()),
        ("quantized", BlobOptions::tuned()),
    ]
}

#[test]
fn blob_predictions_are_bit_identical_across_every_learner_and_layout() {
    let dir = std::env::temp_dir().join(format!("flaml_blob_equiv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for data in datasets() {
        for (learner, model) in fit_roster(&data) {
            let compiled = CompiledModel::compile(&model).expect("compile");
            // The blob competes against the *JSON round-tripped* model:
            // the two on-disk formats must converge on identical bits.
            let json_loaded =
                CompiledModel::from_artifact_str(&compiled.to_artifact_string()).expect("json");
            let reference = pred_bits(&json_loaded.predict(&data));
            assert_eq!(
                reference,
                pred_bits(&model.predict(&data)),
                "{learner}/{}: compiled vs interpreted",
                data.name()
            );
            for (combo, opts) in option_grid() {
                let ctx = format!("{learner}/{}/{combo}", data.name());

                // In memory: parse the encoded bytes directly.
                let bytes = encode_blob(&compiled, opts);
                let in_memory = BlobModel::from_bytes(&bytes).unwrap_or_else(|e| {
                    panic!("{ctx}: open from bytes failed: {e}");
                });
                assert_eq!(
                    reference,
                    pred_bits(&in_memory.predict(&data)),
                    "{ctx}: from_bytes"
                );

                // On disk: save atomically, reopen from the file.
                let path = dir.join(format!("{}_{learner}_{combo}.artifact.blob", data.name()));
                let fp = save_blob(&compiled, &path, opts).expect("save blob");
                let opened = BlobModel::open(&path).expect("open blob");
                assert_eq!(fp, opened.fingerprint(), "{ctx}: fingerprint");
                assert_eq!(reference, pred_bits(&opened.predict(&data)), "{ctx}: open");
                assert_eq!(opened.task(), compiled.task(), "{ctx}: task");
                assert_eq!(opened.n_features(), compiled.n_features(), "{ctx}: width");

                // Materializing back to an owned model preserves
                // predictions and, with no node permutation, the slabs.
                let owned = opened.to_compiled();
                assert_eq!(
                    reference,
                    pred_bits(&owned.predict(&data)),
                    "{ctx}: to_compiled"
                );
                assert_eq!(owned, compiled, "{ctx}: slabs round-trip exactly");
            }

            // The format dispatch every caller goes through writes the
            // same files as the per-format entry points above.
            let expected = [
                (
                    ArtifactFormat::Json,
                    compiled.to_artifact_string().into_bytes(),
                ),
                (
                    ArtifactFormat::Blob,
                    encode_blob(&compiled, BlobOptions::tuned()),
                ),
            ];
            for (format, bytes) in expected {
                let ctx = format!("{learner}/{}/{format}", data.name());
                let stem = format!("{}_{learner}_dispatch", data.name());
                let path = dir.join(format!("{stem}{}", format.suffix()));
                format
                    .save_with(&DiskStorage, &path, &compiled)
                    .unwrap_or_else(|e| panic!("{ctx}: save: {e}"));
                assert_eq!(std::fs::read(&path).unwrap(), bytes, "{ctx}: bytes");
                let loaded = format
                    .load_with(&DiskStorage, &path)
                    .unwrap_or_else(|e| panic!("{ctx}: load: {e}"));
                assert_eq!(reference, pred_bits(&loaded.predict(&data)), "{ctx}: load");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn layout_flags_reflect_what_was_written() {
    // Every feature value (and hence every split midpoint) sits on an
    // integer or half-integer grid — all exactly f32-representable —
    // so the quantizer is *required* to engage.
    let n = 120;
    let data = Dataset::new(
        "exact",
        Task::Binary,
        vec![
            (0..n).map(|i| f64::from(i % 17)).collect(),
            (0..n).map(|i| f64::from(i % 5) * 0.5).collect(),
        ],
        (0..n).map(|i| f64::from(i % 17 > 8)).collect(),
    )
    .unwrap();
    let (_, model) = fit_roster(&data).remove(0);
    let compiled = CompiledModel::compile(&model).expect("compile");

    let plain = BlobModel::from_bytes(&encode_blob(&compiled, BlobOptions::default())).unwrap();
    assert!(!plain.quantized());

    // Integer-grid cut points are all exactly f32-representable, so the
    // quantizer must engage on this model.
    let quant = BlobModel::from_bytes(&encode_blob(&compiled, BlobOptions::tuned())).unwrap();
    assert!(
        quant.quantized(),
        "f32-exact thresholds must be stored quantized"
    );
    assert!(quant.n_bytes() < plain.n_bytes(), "quantized blob shrinks");
}

#[test]
fn deterministic_bytes_and_stable_fingerprint() {
    let data = &datasets()[2];
    let (_, model) = fit_roster(data).remove(3); // stacked: exercises nesting
    let compiled = CompiledModel::compile(&model).expect("compile");
    let a = encode_blob(&compiled, BlobOptions::tuned());
    let b = encode_blob(&compiled, BlobOptions::tuned());
    assert_eq!(a, b, "same model + options => identical bytes");
    // Quantization is exact-only: it shows in the bytes exactly when
    // some section could take it.
    let engaged = BlobModel::from_bytes(&a).unwrap().quantized();
    assert_eq!(
        a != encode_blob(&compiled, BlobOptions::default()),
        engaged,
        "layout options are visible in the bytes when they engage"
    );
}

/// A forest grown to purity on noisy labels, plus the data it was grown
/// on: a blob of a few hundred kB, many pages long.
fn big_forest() -> (Dataset, CompiledModel) {
    let mut rng = StdRng::seed_from_u64(3);
    let n = 1000;
    let cols: Vec<Vec<f64>> = (0..6)
        .map(|_| (0..n).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let y: Vec<f64> = (0..n)
        .map(|i| f64::from((cols[0][i] + cols[1][i] > 1.0) != (rng.gen::<f64>() < 0.3)))
        .collect();
    let data = Dataset::new("big", Task::Binary, cols, y).unwrap();
    let params = ForestParams {
        n_trees: 20,
        ..ForestParams::default()
    };
    let model: FittedModel = Forest::fit(&data, &params, 3).unwrap().into();
    (data, CompiledModel::compile(&model).unwrap())
}

#[test]
fn a_blob_file_truncated_after_open_still_predicts_the_bits_read_at_open() {
    let (data, compiled) = big_forest();
    let dir = std::env::temp_dir().join(format!("flaml_blob_shrink_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shrinking.artifact.blob");
    save_blob(&compiled, &path, BlobOptions::tuned()).expect("save blob");
    let blob = BlobModel::open(&path).expect("open blob");
    assert!(blob.n_bytes() > 64 * 4096, "{} bytes", blob.n_bytes());
    let before = pred_bits(&blob.predict(&data));
    assert_eq!(before, pred_bits(&compiled.predict(&data)));

    // Shrink the file in place: the open model must not read it again.
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(blob.n_bytes() as u64 / 2).unwrap();
    drop(file);
    assert_eq!(before, pred_bits(&blob.predict(&data)), "predict");
    assert_eq!(
        before,
        pred_bits(&blob.to_compiled().predict(&data)),
        "to_compiled"
    );
    std::fs::remove_dir_all(&dir).ok();
}
