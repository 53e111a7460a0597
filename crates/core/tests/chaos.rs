//! Chaos-mode contract: with a seeded [`FaultPlan`] injecting faults into
//! a meaningful fraction of trials, the search must still complete with a
//! viable model, the telemetry must account for every retry and
//! quarantine, and the virtual-clock trace must stay byte-identical at
//! any worker count (faults are pure functions of `(seed, trial,
//! attempt)`, never of scheduling).

use flaml_core::{
    default_virtual_cost, event_channel, AutoMl, FaultPlan, LearnerKind, LearnerSelection,
    Telemetry, TimeSource, TrialRecord, TrialStatus,
};
use flaml_data::{Dataset, Task};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn binary_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let y: Vec<f64> = (0..n)
        .map(|i| f64::from(x0[i] * 1.5 + (x1[i] - 0.4).powi(2) * 3.0 > 0.9))
        .collect();
    Dataset::new("chaos", Task::Binary, vec![x0, x1], y).unwrap()
}

/// 24% of attempts faulted: 8% panics, 8% slowdowns, 8% poisoned losses.
fn plan() -> FaultPlan {
    FaultPlan::uniform(99, 0.24)
}

fn base(workers: usize) -> AutoMl {
    AutoMl::new()
        .time_source(TimeSource::Virtual(default_virtual_cost))
        .sample_size_init(100)
        .time_budget(1.5)
        .max_trials(30)
        .estimators([LearnerKind::LightGbm, LearnerKind::Rf, LearnerKind::Lr])
        .seed(11)
        .workers(workers)
        .fault_plan(plan())
}

fn trace(trials: &[TrialRecord]) -> String {
    serde_json::to_string(trials).expect("trial records serialize")
}

#[test]
fn chaos_run_completes_with_viable_model_and_matching_telemetry() {
    let data = binary_dataset(700, 5);
    let (sink, rx) = event_channel();
    let result = base(1)
        .event_sink(sink)
        .fit(&data)
        .expect("chaos run still produces a model");
    assert!(result.best_error.is_finite(), "a viable incumbent survives");
    assert!(!result.trials.is_empty());

    // The injected faults must actually have bitten: either a trial kept
    // a non-Ok status or a retry repaired it (the common case — transient
    // faults re-roll and clear on the second attempt).
    let n_failed = result
        .trials
        .iter()
        .filter(|t| t.status != TrialStatus::Ok)
        .count();
    assert!(
        n_failed > 0 || result.n_retries > 0,
        "no faults landed — plan or seed regressed"
    );

    // No NaN ever escapes to a record; failures carry the sentinel.
    for t in &result.trials {
        assert!(!t.error.is_nan(), "trial {} leaked a NaN error", t.iter);
    }

    // Telemetry events agree with the result's own accounting.
    let mut telemetry = Telemetry::default();
    for ev in rx.try_iter() {
        telemetry.record(&ev);
    }
    let record_retries: usize = result.trials.iter().map(|t| t.n_retries).sum();
    assert_eq!(result.n_retries, record_retries);
    assert_eq!(telemetry.retried, record_retries);
    assert_eq!(telemetry.quarantined, result.n_quarantined);
    let record_panics = result.trials.iter().filter(|t| t.panicked).count();
    assert_eq!(telemetry.panicked, record_panics);
}

#[test]
fn chaos_trace_is_worker_count_invariant() {
    let data = binary_dataset(700, 5);
    let seq = base(1).fit(&data).expect("sequential chaos run");
    for workers in [2, 4] {
        let par = base(workers).fit(&data).expect("parallel chaos run");
        assert_eq!(trace(&seq.trials), trace(&par.trials), "workers={workers}");
        assert_eq!(seq.best_error.to_bits(), par.best_error.to_bits());
        assert_eq!(seq.n_retries, par.n_retries);
        assert_eq!(seq.n_quarantined, par.n_quarantined);
    }
}

#[test]
fn round_robin_chaos_trace_is_worker_count_invariant() {
    // Round-robin ignores quarantine, so its chaos trace takes a
    // different path from ECI's; injected faults must still commit
    // identically because they are keyed by trial number, not by which
    // worker ran the attempt.
    let data = binary_dataset(700, 6);
    let seq = base(1)
        .learner_selection(LearnerSelection::RoundRobin)
        .fit(&data)
        .expect("sequential chaos run");
    let par = base(4)
        .learner_selection(LearnerSelection::RoundRobin)
        .fit(&data)
        .expect("parallel chaos run");
    assert_eq!(trace(&seq.trials), trace(&par.trials));
    assert_eq!(seq.n_retries, par.n_retries);
}

#[test]
fn retries_clear_transient_faults() {
    // A panic-only plan at a rate high enough to hit early trials: with
    // retries enabled, some faulted trial must succeed on a later attempt
    // (the plan re-rolls per attempt).
    let data = binary_dataset(500, 7);
    let result = AutoMl::new()
        .time_source(TimeSource::Virtual(default_virtual_cost))
        .sample_size_init(100)
        .time_budget(1.0)
        .max_trials(20)
        .estimators([LearnerKind::LightGbm])
        .seed(3)
        .fault_plan(FaultPlan::new(13).panics(0.5))
        .max_retries(3)
        .fit(&data)
        .expect("retries keep the run alive");
    assert!(
        result.n_retries > 0,
        "a 50% panic rate must trigger retries"
    );
    let recovered = result
        .trials
        .iter()
        .any(|t| t.n_retries > 0 && t.status == TrialStatus::Ok);
    assert!(recovered, "some trial should recover via retry");
}

#[test]
fn quarantine_fires_and_lifts_under_eci_selection() {
    // Poison every attempt of one learner family by running a plan that
    // poisons heavily; with quarantine_after small, quarantines happen.
    let data = binary_dataset(500, 8);
    let result = AutoMl::new()
        .time_source(TimeSource::Virtual(default_virtual_cost))
        .sample_size_init(100)
        .time_budget(1.5)
        .max_trials(30)
        .estimators([LearnerKind::LightGbm, LearnerKind::Rf])
        .seed(4)
        .fault_plan(FaultPlan::new(21).poisons(0.6))
        .max_retries(0)
        .quarantine_after(2)
        .quarantine_probe_every(4)
        .fit(&data)
        .expect("quarantine must not kill the run");
    assert!(
        result.n_quarantined > 0,
        "a 60% poison rate must quarantine"
    );
    assert!(result.best_error.is_finite());
}
