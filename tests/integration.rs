//! Workspace-level integration tests: the facade crate, the full pipeline
//! from synthetic data through FLAML and the baselines to scaled scores.

use flaml::{default_virtual_cost, AutoMl, LearnerKind, LearnerSelection, TimeSource};
use flaml_bench::calibration_anchors;
use flaml_metrics::{scaled_score, Metric};
use flaml_synth::{
    binary_suite, regression_suite, selectivity_dataset, SuiteScale, TableDistribution,
};

fn virtual_source() -> TimeSource {
    TimeSource::Virtual(default_virtual_cost)
}

#[test]
fn facade_reexports_the_core_api() {
    // Compiles = passes: the facade exposes the public API surface.
    let _ = AutoMl::new()
        .time_budget(1.0)
        .estimators([LearnerKind::LightGbm, LearnerKind::XgBoost]);
}

#[test]
fn flaml_beats_the_constant_baseline_on_suite_data() {
    let data = &binary_suite(SuiteScale::Small)[1]; // credit-like blobs
    let shuffled = data.shuffled(0);
    let cut = data.n_rows() * 4 / 5;
    let train = shuffled.prefix(cut);
    let test = shuffled.select(&(cut..data.n_rows()).collect::<Vec<_>>());

    let result = AutoMl::new()
        .time_budget(1.0)
        .max_trials(40)
        .sample_size_init(100)
        .time_source(virtual_source())
        .seed(0)
        .fit(&train)
        .expect("flaml runs");
    let metric = Metric::default_for(data.task());
    let anchors = calibration_anchors(&train, &test, metric, 0.5, 0, virtual_source(), Some(6))
        .expect("anchors");
    let raw = metric
        .score(&result.model.predict(&test), test.target())
        .expect("score");
    let scaled = scaled_score(raw, anchors);
    assert!(
        scaled > 0.0,
        "FLAML must beat the constant predictor (scaled {scaled})"
    );
}

#[test]
fn flaml_and_bohb_share_the_trial_record_format() {
    let data = &regression_suite(SuiteScale::Small)[0];
    let settings = AutoMl::new()
        .time_budget(0.5)
        .max_trials(10)
        .sample_size_init(100)
        .time_source(virtual_source());
    let flaml = settings.clone().fit(data).expect("flaml");
    let bohb = settings
        .learner_selection(LearnerSelection::Bohb)
        .fit(data)
        .expect("bohb");
    for t in flaml.trials.iter().chain(bohb.trials.iter()) {
        assert!(t.cost > 0.0);
        assert!(t.total_time > 0.0);
        assert!(t.sample_size > 0);
    }
    // Regression default metric is r2 for both.
    assert_eq!(flaml.metric, Metric::R2);
    assert_eq!(bohb.metric, Metric::R2);
}

#[test]
fn selectivity_pipeline_end_to_end() {
    let w = selectivity_dataset("2D-T", TableDistribution::Tpch, 2, 1500, 250, 80, 0);
    let result = AutoMl::new()
        .time_budget(0.5)
        .max_trials(15)
        .metric(Metric::QErrorP95)
        .sample_size_init(100)
        .time_source(virtual_source())
        .fit(&w.train)
        .expect("flaml on selectivity");
    let pred = result.model.predict(&w.test);
    let q =
        flaml_metrics::q_error_quantile(pred.values().expect("regression"), w.test.target(), 0.95)
            .expect("q-error");
    assert!(q >= 1.0);
    assert!(q.is_finite());
    // A sane model should land far below the worst case exp(|ln floor|).
    assert!(q < 100.0, "95th-pct q-error {q} is absurd");
}

#[test]
fn ablations_produce_distinct_traces() {
    use flaml::ResampleChoice;
    let data = &binary_suite(SuiteScale::Small)[0];
    let base = AutoMl::new()
        .time_budget(0.5)
        .max_trials(12)
        .sample_size_init(50)
        .time_source(virtual_source())
        .seed(3);
    let flaml = base.clone().fit(data).expect("flaml");
    let fulldata = base.clone().sampling(false).fit(data).expect("fulldata");
    let rr = base
        .clone()
        .learner_selection(LearnerSelection::RoundRobin)
        .fit(data)
        .expect("roundrobin");
    let cv = base
        .clone()
        .resample(ResampleChoice::AlwaysCv)
        .fit(data)
        .expect("cv");
    assert!(fulldata
        .trials
        .iter()
        .all(|t| t.sample_size == data.n_rows()));
    assert!(flaml.trials.iter().any(|t| t.sample_size < data.n_rows()));
    assert!(rr.trials.iter().all(|t| t.eci_snapshot.is_empty()));
    assert!(matches!(cv.strategy, flaml::ResampleStrategy::Cv { .. }));
}

#[test]
fn ensemble_through_the_facade() {
    let data = &binary_suite(SuiteScale::Small)[1];
    let result = AutoMl::new()
        .time_budget(1.0)
        .max_trials(25)
        .sample_size_init(100)
        .estimators([LearnerKind::LightGbm, LearnerKind::Rf, LearnerKind::Lr])
        .ensemble(true)
        .time_source(virtual_source())
        .seed(5)
        .fit(data)
        .expect("ensemble run");
    // With three viable learners the result should be a stacked model
    // whose predictions are valid probabilities.
    if let flaml_learners::FittedModel::Stacked(s) = &result.model {
        assert!(s.n_members() >= 2);
    }
    let pred = result.model.predict(data);
    for p in pred.positive_scores().expect("binary probabilities") {
        assert!((0.0..=1.0).contains(&p));
    }
}

#[test]
fn feature_importance_exposed_on_results() {
    let data = &binary_suite(SuiteScale::Small)[0];
    let result = AutoMl::new()
        .time_budget(0.5)
        .max_trials(10)
        .sample_size_init(100)
        .estimators([LearnerKind::LightGbm, LearnerKind::Rf])
        .time_source(virtual_source())
        .seed(6)
        .fit(data)
        .expect("run");
    let imp = result
        .model
        .feature_importance()
        .expect("tree models expose importance");
    assert_eq!(imp.len(), data.n_features());
    assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9 || imp.iter().all(|&v| v == 0.0));
}

#[test]
fn trial_records_serialize_to_json() {
    let data = &binary_suite(SuiteScale::Small)[0];
    let result = AutoMl::new()
        .time_budget(0.3)
        .max_trials(5)
        .sample_size_init(100)
        .time_source(virtual_source())
        .seed(7)
        .fit(data)
        .expect("run");
    // TrialRecord derives Serialize: round-trip through JSON.
    let json = serde_json::to_string(&result.trials).expect("serialize");
    let back: Vec<flaml::TrialRecord> = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.len(), result.trials.len());
    assert_eq!(back[0].learner, result.trials[0].learner);
}
