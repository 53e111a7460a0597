//! Throughput benchmarks of the ML layer: one fit per learner on a fixed
//! synthetic task, plus histogram binning. These ground the virtual cost
//! model and the per-learner cost constants of the appendix.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use flaml_core::{fit_learner, LearnerKind};
use flaml_data::{Dataset, Task};
use flaml_learners::{
    BinMapper, Forest, ForestParams, Gbdt, GbdtParams, Growth, Linear, LinearParams,
};
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
        let fit = || black_box(fit_learner(kind, &data, &config, &space, 0, None).unwrap());
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

criterion_group!(benches, bench_learners, bench_cheapest_configs);
criterion_main!(benches);
