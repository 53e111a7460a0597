//! Journal-backed persistence beyond resume (which determinism.rs
//! covers): trial records surviving JSON round trips, rebuilding the
//! best model from a log without searching, and warm-starting a fresh
//! search from a prior run's best configurations.

use flaml_core::{
    default_virtual_cost, retrain_from_log, AutoMl, AutoMlError, Journal, LearnerKind, TimeSource,
    TrialLine, TrialMode, TrialRecord, TrialStatus,
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
    Dataset::new("journal-test", Task::Binary, vec![x0, x1], y).unwrap()
}

fn base() -> AutoMl {
    AutoMl::new()
        .time_source(TimeSource::Virtual(default_virtual_cost))
        .sample_size_init(100)
        .time_budget(1.0)
        .max_trials(24)
        .estimators([LearnerKind::LightGbm, LearnerKind::Rf, LearnerKind::Lr])
        .seed(7)
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("flaml_journal_{tag}_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn trial_record_round_trips_through_json() {
    let statuses = [
        TrialStatus::Ok,
        TrialStatus::Failed,
        TrialStatus::TimedOut,
        TrialStatus::Panicked,
        TrialStatus::NonFiniteLoss,
    ];
    for (i, status) in statuses.into_iter().enumerate() {
        let failed = status != TrialStatus::Ok;
        let record = TrialRecord {
            iter: i + 1,
            learner: "lightgbm".into(),
            config: "tree_num=4".into(),
            sample_size: 1_000,
            // Failure sentinel for every non-ok status: the +inf loss
            // must survive the trip (it renders as an Infinity token).
            error: if failed { f64::INFINITY } else { 0.125 },
            cost: 0.5,
            total_time: 1.5 * (i + 1) as f64,
            mode: if i % 2 == 0 {
                TrialMode::Search
            } else {
                TrialMode::SampleUp
            },
            improved_global: !failed,
            best_error_so_far: 0.125,
            eci_snapshot: vec![("lightgbm".into(), 2.5), ("rf".into(), 4.0)],
            timed_out: status == TrialStatus::TimedOut,
            panicked: status == TrialStatus::Panicked,
            status,
            n_retries: i,
            config_values: vec![4.0, 0.1, 1e-10],
        };
        let json = serde_json::to_string(&record).unwrap();
        let back: TrialRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.iter, record.iter);
        assert_eq!(back.learner, record.learner);
        assert_eq!(back.error.to_bits(), record.error.to_bits(), "{json}");
        assert_eq!(back.cost.to_bits(), record.cost.to_bits());
        assert_eq!(back.mode, record.mode);
        assert_eq!(back.status, record.status);
        assert_eq!(back.timed_out, record.timed_out);
        assert_eq!(back.panicked, record.panicked);
        assert_eq!(back.n_retries, record.n_retries);
        assert_eq!(
            back.config_values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            record
                .config_values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
        // Render -> parse -> render is a fixed point, so journaled and
        // re-serialized traces compare byte-for-byte.
        assert_eq!(json, serde_json::to_string(&back).unwrap());
    }
}

#[test]
fn retrain_from_log_reproduces_the_best_model_exactly() {
    let data = binary_dataset(600, 11);
    let path = scratch("retrain");
    let result = base().journal(&path).fit(&data).unwrap();

    let retrained = retrain_from_log(&path, &data).unwrap();
    assert_eq!(retrained.learner, result.best_learner);
    assert_eq!(retrained.config_rendered, result.best_config_rendered);

    // Same learner, configuration, seed, and data preparation: the
    // rebuilt model's predictions equal the original's bit-for-bit.
    let original = result.model.predict(&data).positive_scores().unwrap();
    let rebuilt = retrained.model.predict(&data).positive_scores().unwrap();
    assert_eq!(original.len(), rebuilt.len());
    for (i, (a, b)) in original.iter().zip(&rebuilt).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "prediction {i} diverged");
    }

    // Refusal on the wrong dataset: the fingerprint check catches it.
    let other = binary_dataset(600, 12);
    let err = retrain_from_log(&path, &other).unwrap_err();
    assert!(err.to_string().contains("fingerprint"), "got: {err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn retrain_from_log_rejects_a_best_config_that_does_not_fit_its_space() {
    let data = binary_dataset(600, 11);
    let path = scratch("retrain_short_config");
    base().journal(&path).fit(&data).unwrap();
    // Drop the last stored value of every trial line: the best line's
    // values are then one short of its learner's space.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = text.lines();
    let mut edited = format!("{}\n", lines.next().unwrap());
    for line in lines {
        let mut trial: TrialLine = serde_json::from_str(line).unwrap();
        trial.config_values.pop();
        edited += &serde_json::to_string(&trial).unwrap();
        edited.push('\n');
    }
    std::fs::write(&path, edited).unwrap();

    let best = Journal::read(&path).unwrap().best_trial().unwrap().clone();
    match retrain_from_log(&path, &data) {
        Err(AutoMlError::ConfigMismatch {
            learner,
            expected,
            found,
        }) => {
            assert_eq!(learner, best.learner);
            assert_eq!((expected, found), (found + 1, best.config_values.len()));
        }
        other => panic!(
            "expected ConfigMismatch, got {:?}",
            other.map(|r| r.learner)
        ),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_starting_point_that_does_not_fit_its_space_is_a_typed_error() {
    let data = binary_dataset(300, 5);
    let path = scratch("short_starting_point");
    let err = base()
        .journal(&path)
        .starting_points(vec![("lightgbm".into(), vec![4.0, 4.0], 0.3)])
        .fit(&data)
        .unwrap_err();
    match err {
        AutoMlError::ConfigMismatch {
            learner,
            expected,
            found,
        } => assert_eq!((learner.as_str(), expected, found), ("lightgbm", 9, 2)),
        other => panic!("expected ConfigMismatch, got {other}"),
    }
    assert!(!path.exists(), "a refused warm start must leave no journal");
}

/// A binary task hard enough that the initial low-cost configurations
/// are far from optimal: the label depends on feature interactions and
/// carries label noise, so the search needs many FLOW² steps to tune.
fn hard_binary_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let cols: Vec<Vec<f64>> = (0..6)
        .map(|_| (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect())
        .collect();
    let y: Vec<f64> = (0..n)
        .map(|i| {
            let s = cols[0][i] * cols[1][i] * 3.0 + (cols[2][i] + cols[3][i]).sin() * 2.0
                - cols[4][i].powi(3)
                + rng.gen::<f64>() * 0.4;
            f64::from(s > 0.2)
        })
        .collect();
    Dataset::new("journal-hard", Task::Binary, cols, y).unwrap()
}

#[test]
fn warm_start_reaches_prior_best_in_fewer_trials() {
    // Sampling off so losses are measured on the same data in both runs
    // and "reached the prior best" is a like-for-like comparison.
    let data = hard_binary_dataset(800, 11);
    let path = scratch("warm");
    let cold = base()
        .time_budget(12.0)
        .max_trials(48)
        .sampling(false)
        .journal(&path)
        .fit(&data)
        .unwrap();
    let cold_best = cold.best_error;
    let cold_iters = cold
        .trials
        .iter()
        .find(|t| t.error.is_finite() && t.error <= cold_best)
        .map(|t| t.iter)
        .expect("cold run has a best trial");
    assert!(
        cold_iters > 1,
        "workload must not be solved at iter 1 for the comparison to mean anything"
    );

    let journal = Journal::read(&path).unwrap();
    let seeds = journal.best_configs();
    assert!(!seeds.is_empty());
    let warm = base()
        .time_budget(12.0)
        .max_trials(48)
        .sampling(false)
        .starting_points(seeds)
        .fit(&data)
        .unwrap();
    let warm_iters = warm
        .trials
        .iter()
        .find(|t| t.error.is_finite() && t.error <= cold_best)
        .map(|t| t.iter)
        .expect("warm-started run must reach the prior best loss");
    assert!(
        warm_iters < cold_iters,
        "warm start took {warm_iters} trials to reach {cold_best}, cold took {cold_iters}"
    );
    let _ = std::fs::remove_file(&path);
}
