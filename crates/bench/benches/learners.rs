//! Throughput benchmarks of the ML layer: one fit per learner on a fixed
//! synthetic task, plus histogram binning. These ground the virtual cost
//! model and the per-learner cost constants of the appendix.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use flaml_core::{CompiledModel, Estimator, LearnerKind, ModelRegistry};
use flaml_data::{Dataset, Task};
use flaml_learners::{
    BinMapper, Forest, ForestParams, Gbdt, GbdtParams, Growth, Linear, LinearParams,
};
use flaml_serve::Servable;
use flaml_synth::{hyperplane, ClassSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn dataset(n: usize, d: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(0);
    let cols: Vec<Vec<f64>> = (0..d)
        .map(|_| (0..n).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let y: Vec<f64> = (0..n)
        .map(|i| f64::from(cols[0][i] + cols[1][i] > 1.0))
        .collect();
    Dataset::new("bench", Task::Binary, cols, y).unwrap()
}

fn bench_learners(c: &mut Criterion) {
    let data = dataset(2000, 10);

    c.bench_function("gbdt_leafwise_fit_10trees_2000x10", |b| {
        let params = GbdtParams {
            n_trees: 10,
            max_leaves: 31,
            ..GbdtParams::default()
        };
        b.iter(|| black_box(Gbdt::fit(&data, &params, 0).unwrap()));
    });

    c.bench_function("gbdt_depthwise_fit_10trees_2000x10", |b| {
        let params = GbdtParams {
            n_trees: 10,
            max_leaves: 31,
            growth: Growth::DepthWise,
            ..GbdtParams::default()
        };
        b.iter(|| black_box(Gbdt::fit(&data, &params, 0).unwrap()));
    });

    c.bench_function("gbdt_oblivious_fit_10trees_2000x10", |b| {
        let params = GbdtParams {
            n_trees: 10,
            max_leaves: 32,
            growth: Growth::Oblivious,
            ..GbdtParams::default()
        };
        b.iter(|| black_box(Gbdt::fit(&data, &params, 0).unwrap()));
    });

    c.bench_function("rf_fit_10trees_2000x10", |b| {
        let params = ForestParams {
            n_trees: 10,
            max_features: 0.5,
            ..ForestParams::default()
        };
        b.iter(|| black_box(Forest::fit(&data, &params, 0).unwrap()));
    });

    c.bench_function("extra_trees_fit_10trees_2000x10", |b| {
        let params = ForestParams {
            n_trees: 10,
            max_features: 0.5,
            extra: true,
            ..ForestParams::default()
        };
        b.iter(|| black_box(Forest::fit(&data, &params, 0).unwrap()));
    });

    c.bench_function("lr_fit_2000x10", |b| {
        b.iter(|| black_box(Linear::fit(&data, &LinearParams::default(), 0).unwrap()));
    });

    c.bench_function("binning_2000x10_255bins", |b| {
        b.iter_batched(
            || data.clone(),
            |d| {
                let mapper = BinMapper::fit(&d, 255);
                black_box(mapper.transform(&d))
            },
            BatchSize::SmallInput,
        );
    });

    let model = Gbdt::fit(
        &data,
        &GbdtParams {
            n_trees: 50,
            ..GbdtParams::default()
        },
        0,
    )
    .unwrap();
    c.bench_function("gbdt_predict_50trees_2000x10", |b| {
        b.iter(|| black_box(model.predict(&data)));
    });
}

/// The appendix's cost constants, measured on this repository's
/// learners: the fit of each learner's initial (cheapest) configuration
/// on 10 000 x 20 binary rows (a noisy hyperplane: 12 informative and
/// 8 noise columns, so forests grow deep), fastest of 5, as a multiple
/// of `lightgbm`'s. EXPERIMENTS.md records the table.
fn bench_cheapest_configs(c: &mut Criterion) {
    let spec = ClassSpec {
        n: 10_000,
        noise_features: 8,
        ..ClassSpec::default()
    };
    let data = hyperplane(12, 0.3, spec);
    let mut lightgbm_ms = None;
    for kind in LearnerKind::ALL {
        let space = kind.space(data.n_rows());
        let config = space.init_config();
        let est = Estimator::from(kind);
        let fit = || black_box(est.fit(&data, &config, &space, 0, None, None).unwrap());
        let ms = (0..5)
            .map(|_| {
                let start = Instant::now();
                fit();
                start.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min);
        let base = *lightgbm_ms.get_or_insert(ms);
        eprintln!(
            "cheapest_config_10000x20 {kind}: {ms:.1} ms = {:.1} x lightgbm (paper: {} x)",
            ms / base,
            kind.cost_constant()
        );
        c.bench_function(&format!("cheapest_config_{kind}_10000x20"), |b| b.iter(fit));
    }
}

/// Fastest of 7 batches of `iters` calls, in ns per call.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    (0..7)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The serving kernel: ns per tree-row of 1-, 8- and 96-row requests on
/// `mixed_tenants`' 100-tree GBDT (4 000 x 20 hyperplane rows, default
/// params) and on a 100-tree forest, served by a registry version whose
/// evaluator tables are built on its first predict and kept, next to a
/// one-shot `CompiledModel::predict`, which builds the tables for the
/// call — its 1-row figure is mostly that build.
fn bench_serving(c: &mut Criterion) {
    let spec = ClassSpec {
        n: 4_096,
        noise_features: 10,
        seed: 3,
        ..ClassSpec::default()
    };
    let corpus = hyperplane(10, 0.3, spec);
    let train = corpus.prefix(4_000);
    let gbdt = Gbdt::fit(&train, &GbdtParams::default(), 0).unwrap();
    let forest = Forest::fit(train.prefix(1_000), &ForestParams::default(), 0).unwrap();
    let registry = ModelRegistry::new();
    for (name, model) in [("gbdt100", gbdt.into()), ("rf100", forest.into())] {
        let compiled = CompiledModel::compile(&model).unwrap();
        let trees = match &compiled {
            CompiledModel::Gbdt(m) => m.tree_roots.len(),
            CompiledModel::Forest(m) => m.tree_roots.len(),
            _ => unreachable!("tree models"),
        };
        registry.publish(name, compiled.clone());
        let served = registry.get(name).unwrap();
        for rows in [1, 8, 96] {
            let request = corpus
                .view()
                .select(&(4_000..4_000 + rows).collect::<Vec<_>>());
            let iters = 20_000 / rows;
            let per_tree_row = (trees * rows) as f64;
            let ns = ns_per_call(iters, || {
                black_box(served.serve(&request));
            });
            let one_shot = ns_per_call(iters / 20 + 1, || {
                black_box(compiled.predict(&request));
            });
            eprintln!(
                "serving {name} {rows:>2} rows: served {:.2} ns/tree-row ({:.1} us/request), \
                 one-shot {:.1} us/request",
                ns / per_tree_row,
                ns / 1e3,
                one_shot / 1e3
            );
            c.bench_function(&format!("serve_{name}_{rows}rows"), |b| {
                b.iter(|| black_box(served.serve(&request)))
            });
        }
    }
}

criterion_group!(benches, bench_learners, bench_cheapest_configs);
criterion_group!(serving, bench_serving);
criterion_main!(benches, serving);
