//! Equivalence sweep for the zero-copy data plane: fitting against an
//! Arc-backed [`DatasetView`] must be bit-identical to fitting against a
//! materialized copy, pre-binned fits must match unprepared fits, and the
//! AutoML trial trace must not change whether the prepared-data cache is
//! on, off, or evicting under a tiny byte budget — at any worker count.

use flaml_core::{
    default_virtual_cost, event_channel, AutoMl, Estimator, LearnerKind, ResampleChoice, Telemetry,
    TimeSource, TrialRecord,
};
use flaml_data::{Dataset, DatasetView, Task};
use flaml_learners::{PreparedBins, PreparedSort};
use flaml_metrics::Pred;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dataset(task: Task, n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let x2: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let y: Vec<f64> = (0..n)
        .map(|i| {
            let signal = x0[i] * 2.0 + (x1[i] - 0.5).powi(2) * 4.0 - x2[i] + 0.1 * rng.gen::<f64>();
            match task {
                Task::Binary => f64::from(signal > 1.0),
                Task::MultiClass(k) => {
                    let k = k as f64;
                    (signal.clamp(0.0, 2.999) / 3.0 * k).floor().min(k - 1.0)
                }
                Task::Regression => signal,
            }
        })
        .collect();
    Dataset::new("dp-sweep", task, vec![x0, x1, x2], y).unwrap()
}

/// The bit patterns of a prediction, so equality is exact — not within
/// epsilon. Zero-copy views must not perturb accumulation order.
fn bits(p: &Pred) -> Vec<u64> {
    match p {
        Pred::Probs { p, .. } => p.iter().map(|v| v.to_bits()).collect(),
        Pred::Values(v) => v.iter().map(|v| v.to_bits()).collect(),
    }
}

fn trace(trials: &[TrialRecord]) -> String {
    serde_json::to_string(trials).expect("trial records serialize")
}

/// Every learner × every task: a model fit through a prefix view and one
/// fit through a scattered-index view must equal models fit on owned
/// materialized copies of the same rows, prediction-for-prediction.
#[test]
fn view_fits_match_materialized_copy_fits() {
    for task in [Task::Binary, Task::MultiClass(3), Task::Regression] {
        let data = dataset(task, 260, 11);
        let shuffled = data.shuffled_view(5);
        let prefix = shuffled.prefix(180);
        let scattered: Vec<usize> = (0..200).map(|i| (i * 7) % 260).collect();
        let select = shuffled.select(&scattered);
        let eval = data.view();
        for kind in LearnerKind::ALL {
            let est = Estimator::from(kind);
            let space = kind.space(prefix.n_rows());
            let config = space.init_config();
            for (label, view) in [("prefix", &prefix), ("select", &select)] {
                let from_view = est
                    .fit(view, &config, &space, 9, None, None)
                    .unwrap_or_else(|e| panic!("{kind}/{task:?}/{label} view fit: {e:?}"));
                let copy = view.materialize();
                let from_copy = est
                    .fit(&copy, &config, &space, 9, None, None)
                    .unwrap_or_else(|e| panic!("{kind}/{task:?}/{label} copy fit: {e:?}"));
                assert_eq!(
                    bits(&from_view.predict(eval.clone())),
                    bits(&from_copy.predict(eval.clone())),
                    "{kind}/{task:?}/{label}: view-trained and copy-trained models disagree"
                );
                // Predicting through a view must equal predicting on an
                // owned copy of the same rows too.
                assert_eq!(
                    bits(&from_view.predict(view.clone())),
                    bits(&from_view.predict(&copy)),
                    "{kind}/{task:?}/{label}: view and copy predictions disagree"
                );
            }
        }
    }
}

/// GBDT fits with externally prepared bins must be bit-identical to the
/// same fit re-binning internally, at the learner's own max_bin.
#[test]
fn prepared_bins_fits_match_unprepared_fits() {
    for task in [Task::Binary, Task::MultiClass(3), Task::Regression] {
        let data = dataset(task, 240, 13);
        let view = data.shuffled_view(3).prefix(200);
        for kind in [
            LearnerKind::LightGbm,
            LearnerKind::XgBoost,
            LearnerKind::CatBoost,
        ] {
            let est = Estimator::from(kind);
            let space = est.space(view.n_rows());
            let config = space.init_config();
            let max_bin = est
                .max_bin(&config, &space)
                .expect("gbdt learners have a max_bin");
            let sort = PreparedSort::compute(view.clone());
            let bins_mat = PreparedBins::prepare(&sort, view.clone(), max_bin);
            let prepared = est
                .fit(&view, &config, &space, 9, None, Some(&bins_mat))
                .unwrap_or_else(|e| panic!("{kind}/{task:?} prepared fit: {e:?}"));
            let fresh = est
                .fit(&view, &config, &space, 9, None, None)
                .unwrap_or_else(|e| panic!("{kind}/{task:?} unprepared fit: {e:?}"));
            assert_eq!(
                bits(&prepared.predict(data.view())),
                bits(&fresh.predict(data.view())),
                "{kind}/{task:?}: prepared-bins fit diverges from internal binning"
            );
        }
    }
}

fn sweep_automl(workers: usize) -> AutoMl {
    AutoMl::new()
        .time_source(TimeSource::Virtual(default_virtual_cost))
        .sample_size_init(100)
        .time_budget(1.5)
        .max_trials(20)
        .estimators([LearnerKind::LightGbm, LearnerKind::Rf, LearnerKind::Lr])
        .resample(ResampleChoice::AlwaysCv)
        .seed(17)
        .workers(workers)
}

/// The trial trace is a pure function of (dataset, settings, seed): the
/// prepared-data cache — on, off, or evicting under a one-byte budget —
/// must never change it, sequentially or with parallel workers.
#[test]
fn cache_on_off_and_evicting_traces_are_identical() {
    let data = dataset(Task::Binary, 600, 19);
    let reference = sweep_automl(1).prepared_cache(true).fit(&data).unwrap();
    assert!(reference.trials.len() > 5, "sweep ran too few trials");
    let want = trace(&reference.trials);
    for workers in [1, 4] {
        for (label, automl) in [
            ("cache on", sweep_automl(workers).prepared_cache(true)),
            ("cache off", sweep_automl(workers).prepared_cache(false)),
            (
                "evicting",
                sweep_automl(workers)
                    .prepared_cache(true)
                    .prepared_cache_bytes(1),
            ),
        ] {
            let run = automl.fit(&data).unwrap();
            assert_eq!(
                want,
                trace(&run.trials),
                "workers={workers}, {label}: trace diverged"
            );
            assert_eq!(
                reference.best_error.to_bits(),
                run.best_error.to_bits(),
                "workers={workers}, {label}: best error diverged"
            );
        }
    }
}

fn telemetry_of(automl: AutoMl, data: &Dataset) -> Telemetry {
    let (sink, rx) = event_channel();
    automl.event_sink(sink).fit(data).unwrap();
    Telemetry::new().drain(&rx)
}

/// With the cache on, repeated trials at one sample size hit the prepared
/// cache and skip dataset copies; with it off every trial misses and the
/// copies actually happen, so no savings may be claimed.
#[test]
fn telemetry_counters_reflect_cache_state() {
    let data = dataset(Task::Binary, 600, 23);
    let on = telemetry_of(sweep_automl(1).prepared_cache(true), &data);
    assert!(on.prepared_hits > 0, "warm trials should hit the cache");
    assert!(on.prepared_misses > 0, "first preparation must miss");
    assert!(
        on.bytes_copied_saved > 0,
        "cache hits should avoid dataset copies"
    );
    let off = telemetry_of(sweep_automl(1).prepared_cache(false), &data);
    assert_eq!(off.prepared_hits, 0, "disabled plane cannot hit");
    assert!(off.prepared_misses > 0, "every disabled trial misses");
    assert_eq!(
        off.bytes_copied_saved, 0,
        "disabled plane materializes real copies, saving nothing"
    );
    // Note: hit/miss units differ by state — enabled counts per cache
    // entry (folds, per-fold sorts, per-fold bins), disabled counts one
    // miss per trial — so the two miss totals are not comparable.
}

/// Eviction telemetry: a one-byte prepared-data budget must surface its
/// evictions, and the default budget must not evict at all.
#[test]
fn prepared_eviction_telemetry_counters() {
    let data = dataset(Task::Binary, 600, 23);
    let on = telemetry_of(sweep_automl(1), &data);
    let evicting = telemetry_of(
        sweep_automl(1).prepared_cache(true).prepared_cache_bytes(1),
        &data,
    );
    assert!(
        evicting.prepared_evictions > 0,
        "a one-byte prepared budget must evict stored entries"
    );
    assert_eq!(
        on.prepared_evictions, 0,
        "the default budget fits this dataset without evicting"
    );
}

/// Views wrap the root dataset without copying feature columns: a prefix
/// selection costs O(1) bytes and a scattered one O(rows) indices, never
/// O(rows × features) values.
#[test]
fn views_do_not_copy_the_dataset() {
    let data = dataset(Task::Regression, 500, 29);
    let view: DatasetView = data.shuffled_view(1);
    assert!(view.same_root(&data.view()));
    assert!(
        view.selection_bytes() < view.materialized_bytes() / 2,
        "shuffled selection ({} bytes) should be far below a copy ({} bytes)",
        view.selection_bytes(),
        view.materialized_bytes()
    );
    let prefix = data.view().prefix(400);
    assert_eq!(
        prefix.selection_bytes(),
        0,
        "prefix selection carries no per-row bytes"
    );
}
