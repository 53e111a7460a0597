//! Degenerate-input contract: `AutoMl::run` must never panic on a
//! pathological dataset. Unsalvageable shapes (single-class targets, a
//! single row, nothing but constant features) return a typed
//! [`AutoMlError`]; salvageable ones (constant or all-NaN columns next to
//! informative ones) are cleaned up and searched normally, with a
//! `Sanitized` telemetry event recording the dropped columns.
//!
//! Written as deterministic sweeps rather than randomized property tests
//! so every shape runs on every CI invocation.

use flaml_core::{
    default_virtual_cost, event_channel, AutoMl, AutoMlError, LearnerKind, SearchHandle, Telemetry,
    TimeSource,
};
use flaml_data::{Dataset, Task};

fn quick(seed: u64) -> AutoMl {
    AutoMl::new()
        .time_source(TimeSource::Virtual(default_virtual_cost))
        .sample_size_init(50)
        .time_budget(0.5)
        .max_trials(6)
        .estimators([LearnerKind::LightGbm, LearnerKind::Lr])
        .seed(seed)
}

/// A learnable column: class-correlated with a deterministic wiggle.
fn informative(n: usize) -> (Vec<f64>, Vec<f64>) {
    let y: Vec<f64> = (0..n).map(|i| f64::from(i % 2 == 0)).collect();
    let x: Vec<f64> = (0..n)
        .map(|i| y[i] * 2.0 + ((i * 7) % 13) as f64 * 0.05)
        .collect();
    (x, y)
}

#[test]
fn single_class_labels_return_degenerate_target() {
    let n = 80;
    let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
    for class in [0.0, 1.0] {
        let d = Dataset::new("one-class", Task::Binary, vec![x.clone()], vec![class; n]).unwrap();
        match quick(0).fit(&d) {
            Err(AutoMlError::DegenerateTarget { classes_present }) => {
                assert_eq!(classes_present, 1)
            }
            other => panic!("expected DegenerateTarget, got {other:?}"),
        }
    }
}

#[test]
fn single_class_multiclass_labels_return_degenerate_target() {
    let n = 60;
    let x: Vec<f64> = (0..n).map(|i| (i % 9) as f64).collect();
    let d = Dataset::new("mc", Task::MultiClass(4), vec![x], vec![2.0; n]).unwrap();
    match quick(1).fit(&d) {
        Err(AutoMlError::DegenerateTarget { classes_present }) => assert_eq!(classes_present, 1),
        other => panic!("expected DegenerateTarget, got {other:?}"),
    }
}

#[test]
fn single_row_returns_too_few_rows() {
    let d = Dataset::new("tiny", Task::Regression, vec![vec![1.0]], vec![3.0]).unwrap();
    match quick(2).fit(&d) {
        Err(AutoMlError::TooFewRows { rows, needed }) => {
            assert_eq!(rows, 1);
            assert_eq!(needed, 2);
        }
        other => panic!("expected TooFewRows, got {other:?}"),
    }
}

#[test]
fn constant_and_nan_columns_are_dropped_and_search_proceeds() {
    let n = 200;
    let (x, y) = informative(n);
    for junk in [vec![5.0; n], vec![f64::NAN; n]] {
        let d = Dataset::new(
            "junky",
            Task::Binary,
            vec![junk.clone(), x.clone()],
            y.clone(),
        )
        .unwrap();
        let (sink, rx) = event_channel();
        let result = quick(3)
            .event_sink(sink)
            .fit(&d)
            .expect("informative column remains; the search must run");
        assert!(result.best_error.is_finite());
        let mut telemetry = Telemetry::default();
        for ev in rx.try_iter() {
            telemetry.record(&ev);
        }
        assert_eq!(telemetry.sanitized, 1, "one cleanup event per run");
    }
}

#[test]
fn all_degenerate_features_return_no_usable_features() {
    let n = 100;
    let y: Vec<f64> = (0..n).map(|i| f64::from(i % 2 == 0)).collect();
    let d = Dataset::new(
        "hopeless",
        Task::Binary,
        vec![vec![1.0; n], vec![f64::NAN; n]],
        y,
    )
    .unwrap();
    match quick(4).fit(&d) {
        Err(AutoMlError::NoUsableFeatures) => {}
        other => panic!("expected NoUsableFeatures, got {other:?}"),
    }
}

#[test]
fn degenerate_shape_sweep_never_panics() {
    // Every pathological shape either fits or returns a typed error —
    // a panic anywhere in the stack fails this test.
    let n = 40;
    let (x, y) = informative(n);
    let shapes: Vec<Dataset> = vec![
        // Two rows only.
        Dataset::new(
            "two-rows",
            Task::Binary,
            vec![vec![0.0, 1.0]],
            vec![0.0, 1.0],
        )
        .unwrap(),
        // Constant column beside a near-constant one.
        Dataset::new(
            "near-constant",
            Task::Binary,
            vec![vec![2.0; n], {
                let mut c = vec![0.5; n];
                c[0] = 0.6;
                c
            }],
            y.clone(),
        )
        .unwrap(),
        // NaN-speckled informative column (not fully degenerate).
        Dataset::new(
            "nan-speckled",
            Task::Binary,
            vec![x
                .iter()
                .enumerate()
                .map(|(i, &v)| if i % 5 == 0 { f64::NAN } else { v })
                .collect()],
            y.clone(),
        )
        .unwrap(),
        // Regression with a constant target (valid, if unhelpful).
        Dataset::new(
            "flat-target",
            Task::Regression,
            vec![x.clone()],
            vec![1.0; n],
        )
        .unwrap(),
    ];
    for (i, d) in shapes.iter().enumerate() {
        match quick(5 + i as u64).fit(d) {
            Ok(result) => assert!(!result.best_error.is_nan(), "{}", d.name()),
            Err(e) => {
                // Typed failure is acceptable; a panic is not.
                let _ = format!("{e}");
            }
        }
    }
}

/// A time budget that is not a finite number of seconds above zero is a
/// typed error returned before any trial runs or any journal is created,
/// under either clock and through either entry point.
#[test]
fn unusable_time_budgets_are_typed_errors_before_any_journal() {
    let (x, y) = informative(120);
    let d = Dataset::new("budget", Task::Binary, vec![x], y).unwrap();
    let clocks = [TimeSource::Virtual(default_virtual_cost), TimeSource::Wall];
    for budget in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
        for (c, clock) in clocks.into_iter().enumerate() {
            let path = std::env::temp_dir().join(format!(
                "flaml_budget_{budget}_{c}_{}.jsonl",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            let settings = quick(0).time_source(clock).time_budget(budget);
            let fitted = settings.clone().journal(&path).fit(&d);
            let sliced = SearchHandle::new(settings, &path).run_slice(&d, 2);
            for (entry, outcome) in [("fit", fitted.err()), ("slice", sliced.err())] {
                match outcome {
                    Some(AutoMlError::BadTimeBudget(b)) => {
                        assert_eq!(b.to_bits(), budget.to_bits(), "{entry} {budget}")
                    }
                    other => panic!("{entry} {budget}: expected BadTimeBudget, got {other:?}"),
                }
            }
            assert!(!path.exists(), "{budget}: a journal was created");
        }
    }
}

/// A finite budget too large for a `Duration` bounds nothing under the
/// wall clock; it must not panic converting the deadline.
#[test]
fn a_budget_beyond_duration_range_runs_under_the_wall_clock() {
    let (x, y) = informative(120);
    let d = Dataset::new("huge-budget", Task::Binary, vec![x], y).unwrap();
    let result = quick(0)
        .time_source(TimeSource::Wall)
        .time_budget(1e308)
        .max_trials(2)
        .fit(&d)
        .unwrap();
    assert_eq!(result.trials.len(), 2);
}
