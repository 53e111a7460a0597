//! End-to-end serving guarantees: compiled artifacts predict
//! bit-identically to the interpreted models for every learner kind ×
//! task kind, batched pool inference is byte-identical to sequential,
//! artifacts survive a disk round trip, and the registry never serves
//! a torn or stale-after-promote model under concurrent load.

use flaml_data::{Dataset, FeatureKind, Task};
use flaml_exec::ExecPool;
use flaml_learners::FittedModel;
use flaml_learners::{
    fit_meta, meta_features, Encoding, Forest, ForestParams, Gbdt, GbdtParams, Growth, Linear,
    LinearParams, StackedModel,
};
use flaml_metrics::Pred;
use flaml_serve::{
    ArtifactFile, BatchEngine, CompiledModel, ModelRegistry, ARTIFACT_MAGIC, ARTIFACT_VERSION,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn dataset(task: Task, n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
    let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
    // Sprinkle in missing values so the NaN routing of every tree
    // walker is exercised.
    let x2: Vec<f64> = (0..n)
        .map(|i| {
            if i % 7 == 0 {
                f64::NAN
            } else {
                rng.gen::<f64>()
            }
        })
        .collect();
    let y: Vec<f64> = (0..n)
        .map(|i| match task {
            Task::Binary => f64::from(x0[i] + x1[i] > 0.0),
            Task::MultiClass(k) => (((x0[i] * 1.3 + x1[i]).abs() * 2.0) as usize).min(k - 1) as f64,
            Task::Regression => x0[i] * 2.0 + (x1[i] * 3.0).sin(),
        })
        .collect();
    // A categorical column, so the linear learner one-hot encodes it.
    let x3: Vec<f64> = (0..n).map(|i| (i % 4) as f64).collect();
    let kinds = vec![
        FeatureKind::Numeric,
        FeatureKind::Numeric,
        FeatureKind::Numeric,
        FeatureKind::Categorical { cardinality: 4 },
    ];
    Dataset::with_kinds("serve-test", task, vec![x0, x1, x2, x3], kinds, y).unwrap()
}

fn fit_all(data: &Dataset) -> Vec<(&'static str, FittedModel)> {
    let gbdt: FittedModel = Gbdt::fit(
        data,
        &GbdtParams {
            n_trees: 12,
            ..GbdtParams::default()
        },
        7,
    )
    .unwrap()
    .into();
    let forest: FittedModel = Forest::fit(
        data,
        &ForestParams {
            n_trees: 8,
            ..ForestParams::default()
        },
        7,
    )
    .unwrap()
    .into();
    let linear: FittedModel = Linear::fit(data, &LinearParams::default(), 7)
        .unwrap()
        .into();
    // The tree shapes of the other builtin learners: depth-wise
    // (`xgboost`), oblivious with early stopping (`catboost`) and
    // extremely randomized (`extra_tree`).
    let depth_wise: FittedModel = Gbdt::fit(
        data,
        &GbdtParams {
            n_trees: 8,
            growth: Growth::DepthWise,
            ..GbdtParams::default()
        },
        7,
    )
    .unwrap()
    .into();
    let oblivious: FittedModel = Gbdt::fit(
        data,
        &GbdtParams {
            n_trees: 8,
            growth: Growth::Oblivious,
            early_stop_rounds: Some(3),
            ..GbdtParams::default()
        },
        7,
    )
    .unwrap()
    .into();
    let extra: FittedModel = Forest::fit(
        data,
        &ForestParams {
            n_trees: 6,
            extra: true,
            ..ForestParams::default()
        },
        7,
    )
    .unwrap()
    .into();
    let members = vec![gbdt.clone(), forest.clone()];
    let oof = meta_features(&members, data, data.target().to_vec());
    let meta = fit_meta(&oof, 7).unwrap();
    let stacked: FittedModel = StackedModel::new(members, meta, data.task()).into();
    vec![
        ("gbdt", gbdt),
        ("forest", forest),
        ("linear", linear),
        ("depth_wise", depth_wise),
        ("oblivious", oblivious),
        ("extra", extra),
        ("stacked", stacked),
    ]
}

fn assert_bits_equal(a: &Pred, b: &Pred, what: &str) {
    match (a, b) {
        (Pred::Values(va), Pred::Values(vb)) => {
            assert_eq!(va.len(), vb.len(), "{what}: row count");
            for (i, (x, y)) in va.iter().zip(vb).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: value row {i}");
            }
        }
        (
            Pred::Probs {
                n_classes: ka,
                p: pa,
            },
            Pred::Probs {
                n_classes: kb,
                p: pb,
            },
        ) => {
            assert_eq!(ka, kb, "{what}: class count");
            assert_eq!(pa.len(), pb.len(), "{what}: prob count");
            for (i, (x, y)) in pa.iter().zip(pb).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: prob {i}");
            }
        }
        _ => panic!("{what}: prediction kind mismatch"),
    }
}

fn all_tasks() -> Vec<Task> {
    vec![Task::Binary, Task::MultiClass(3), Task::Regression]
}

#[test]
fn compiled_predictions_bit_identical_for_every_learner_and_task() {
    for task in all_tasks() {
        let data = dataset(task, 160, 11);
        for (name, model) in fit_all(&data) {
            let compiled = CompiledModel::compile(&model).unwrap();
            let interpreted = model.predict(&data);
            let served = compiled.predict(&data);
            assert_bits_equal(&interpreted, &served, &format!("{name} on {task:?}"));
        }
    }
}

#[test]
fn artifact_disk_round_trip_preserves_predictions() {
    let dir = std::env::temp_dir().join("flaml-serve-roundtrip-test");
    for task in all_tasks() {
        let data = dataset(task, 120, 23);
        for (name, model) in fit_all(&data) {
            let compiled = CompiledModel::compile(&model).unwrap();
            let path = dir.join(format!("{name}-{task:?}.json"));
            let fp = compiled.save(&path).unwrap();
            // The file is byte for byte what the derived serializer of
            // the whole document gives (the save path serializes the
            // payload once and writes the envelope around it).
            let derived = serde_json::to_string(&ArtifactFile {
                magic: ARTIFACT_MAGIC.to_string(),
                version: ARTIFACT_VERSION,
                fingerprint: fp,
                model: compiled.clone(),
            })
            .unwrap();
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                derived,
                "{name} on {task:?}: artifact bytes"
            );
            if let CompiledModel::Linear(m) = &compiled {
                let one_hot = Encoding::OneHot { cardinality: 4 };
                assert_eq!(m.encodings[3], one_hot, "{name} on {task:?}");
            }
            // The load runs `CompiledModel::check`, the one structural
            // gate, on the compiled form of every learner and task.
            let loaded = CompiledModel::load(&path).unwrap();
            assert_eq!(loaded, compiled, "{name} on {task:?}: artifact round trip");
            assert_eq!(
                flaml_serve::fingerprint(&serde_json::to_string(&loaded).unwrap()),
                fp
            );
            assert_bits_equal(
                &model.predict(&data),
                &loaded.predict(&data),
                &format!("{name} on {task:?} after reload"),
            );
        }
    }
}

#[test]
fn batched_pool_inference_is_byte_identical_to_sequential() {
    for task in all_tasks() {
        let data = dataset(task, 250, 37);
        for (name, model) in fit_all(&data) {
            let compiled = CompiledModel::compile(&model).unwrap();
            let sequential = model.predict(&data);
            for workers in [1usize, 4] {
                let pool = ExecPool::new(workers);
                // A batch size that does not divide the row count, so
                // the last chunk is ragged.
                let engine = BatchEngine::new(&pool, 48);
                let batched = engine.predict("slot", &compiled, &data);
                assert_bits_equal(
                    &sequential,
                    &batched,
                    &format!("{name} on {task:?} with {workers} workers"),
                );
            }
        }
    }
}

#[test]
fn batch_size_one_still_matches() {
    let data = dataset(Task::Binary, 40, 5);
    let (_, model) = fit_all(&data).remove(0);
    let compiled = CompiledModel::compile(&model).unwrap();
    let pool = ExecPool::new(3);
    let engine = BatchEngine::new(&pool, 1);
    assert_bits_equal(
        &model.predict(&data),
        &engine.predict("one", &compiled, &data),
        "gbdt row-at-a-time",
    );
}

#[test]
fn hot_swap_under_concurrent_load_never_serves_torn_or_stale_models() {
    let data = dataset(Task::Binary, 80, 41);
    // Distinct versions: linear models fit on different seeds.
    let versions: Vec<CompiledModel> = (0..20)
        .map(|seed| {
            let m: FittedModel = Linear::fit(&data, &LinearParams::default(), seed)
                .unwrap()
                .into();
            CompiledModel::compile(&m).unwrap()
        })
        .collect();
    let expected_fp: Vec<u64> = versions
        .iter()
        .map(|m| flaml_serve::fingerprint(&serde_json::to_string(m).unwrap()))
        .collect();

    let registry = Arc::new(ModelRegistry::new());
    let first = versions[0].clone();
    registry.publish("live", first);

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let registry = Arc::clone(&registry);
            let expected_fp = expected_fp.clone();
            std::thread::spawn(move || {
                let mut last_version = 0u64;
                let mut observed = 0usize;
                while last_version < 20 {
                    let snap = registry.get("live").expect("slot always present");
                    // Monotonic: a reader never sees an older version
                    // after a newer one (no rollbacks in this run).
                    assert!(snap.version >= last_version, "stale model served");
                    // Consistent: the served payload is exactly the
                    // published version's payload, never a torn mix.
                    assert_eq!(
                        snap.fingerprint,
                        expected_fp[(snap.version - 1) as usize],
                        "torn model at version {}",
                        snap.version
                    );
                    last_version = snap.version;
                    observed += 1;
                }
                observed
            })
        })
        .collect();

    for v in versions.iter().skip(1) {
        let published = registry.publish("live", v.clone()).version;
        // A get() after publish returns must see at least that version.
        assert!(registry.get("live").unwrap().version >= published);
    }
    for reader in readers {
        let observed = reader.join().expect("reader thread");
        assert!(observed >= 1);
    }
    assert_eq!(registry.n_versions("live"), 20);
}

#[test]
fn custom_models_are_rejected_with_a_typed_error() {
    use flaml_data::DatasetView;
    use flaml_learners::DynModel;

    #[derive(Debug)]
    struct Opaque;
    impl DynModel for Opaque {
        fn predict_dyn(&self, data: &DatasetView) -> Pred {
            Pred::from_values(vec![0.0; data.n_rows()])
        }
    }
    let model = FittedModel::Custom(Arc::new(Opaque));
    assert!(matches!(
        CompiledModel::compile(&model),
        Err(flaml_serve::ArtifactError::Unsupported(_))
    ));
}
