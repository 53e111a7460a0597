//! Runs every workload end to end at ~1/20 size with every output check
//! on, and holds the printed metric names to `BENCHMARK.json`.

use flaml_perf::compare::BenchmarkFile;
use flaml_perf::report::Outcome;
use flaml_perf::run::{end_to_end, traced, Reps};
use flaml_perf::workloads::{RunCfg, NAMES};

const SMOKE: RunCfg = RunCfg {
    seed: 7,
    scale: 0.05,
    long_pass: false,
};

fn assert_clean(outcome: &Outcome, expected: Vec<(&str, &str)>) {
    assert_eq!(
        outcome.failed, 0,
        "{}: failed operations: {:?}",
        outcome.workload, outcome.errors
    );
    assert!(
        outcome.correct(),
        "{}: {:?}",
        outcome.workload,
        outcome.metrics
    );
    assert!(outcome.attempted > 0);
    let mut printed: Vec<(&str, &str)> = outcome
        .metrics
        .0
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    let mut expected = expected;
    printed.sort_unstable();
    expected.sort_unstable();
    assert_eq!(
        printed, expected,
        "{}: metric names and units",
        outcome.workload
    );
}

fn smoke(name: &str) {
    let bench = BenchmarkFile::load().expect("BENCHMARK.json");
    assert!(bench.workloads.iter().any(|w| w.name == name));

    // Two repetitions, so the checks that compare repetitions run too.
    let outcome = end_to_end(name, SMOKE, Reps::Count(2));
    assert_clean(
        &outcome,
        bench
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect(),
    );
    for m in &outcome.metrics.0 {
        assert!(
            m.value > 0.0,
            "{name}/{} = {} is not positive",
            m.name,
            m.value
        );
    }
    let loss = outcome.metrics.get("holdout_loss").expect("holdout_loss");
    assert!(loss < 1.0, "{name}: holdout_loss {loss}");

    let outcome = traced(name, SMOKE);
    assert_clean(
        &outcome,
        bench
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect(),
    );
    // The spans are timed independently of the fit they cover, so the
    // share can be wrong in both directions: above 1 if spans overlap or
    // a trial's own seconds exceed the window it ran in, far below 1 if
    // events went missing.
    let share = outcome
        .metrics
        .get("trace.span_sum_share")
        .expect("span sum");
    assert!(
        (0.5..=1.02).contains(&share),
        "{name}: top-level spans cover {share} of the traced fit"
    );
}

#[test]
fn gbdt_deep_smoke() {
    smoke("gbdt_deep");
}

#[test]
fn cv_parallel_smoke() {
    smoke("cv_parallel");
}

#[test]
fn tenant_churn_smoke() {
    smoke("tenant_churn");
}

#[test]
fn mixed_tenants_smoke() {
    smoke("mixed_tenants");
}

#[test]
fn benchmark_json_names_the_workloads_this_crate_runs() {
    let bench = BenchmarkFile::load().expect("BENCHMARK.json");
    let listed: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(listed, NAMES);
    assert_eq!(bench.paths, ["crates/perf"]);
    assert!(bench
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    for m in &bench.end_to_end {
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{}: bound {}",
            m.name,
            m.bound
        );
        assert!(m.better == "lower" || m.better == "higher");
    }
}
