//! `SearchHandle` cooperative slicing: a search chopped into small
//! slices must leave the exact journal a single uninterrupted run
//! leaves — byte-identical canonical bytes under the virtual clock
//! (`wall_secs`, the one physical-time field, is excluded) — and a
//! handle attached to a half-finished journal (the crash path) must
//! continue it to the same bytes.

use flaml_core::{
    default_virtual_cost, disk, event_channel, AutoMl, AutoMlError, ChaosStorage, CustomLearner,
    IoFault, IoFaultPlan, Journal, LearnerKind, ResampleChoice, SearchHandle, SliceOutcome,
    StorageError, TimeSource, TrialEvent, TrialEventKind,
};
use flaml_data::{Dataset, DatasetView, Task};
use flaml_learners::{FitError, FittedModel, Linear, LinearParams};
use flaml_search::{Config, Domain, ParamDef, SearchSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn binary_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let y: Vec<f64> = (0..n)
        .map(|i| f64::from(x0[i] * 1.5 + (x1[i] - 0.4).powi(2) * 3.0 > 0.9))
        .collect();
    Dataset::new("handle-test", Task::Binary, vec![x0, x1], y).unwrap()
}

fn base() -> AutoMl {
    AutoMl::new()
        .time_source(TimeSource::Virtual(default_virtual_cost))
        .sample_size_init(100)
        .time_budget(5.0)
        .max_trials(18)
        .estimators([LearnerKind::LightGbm, LearnerKind::Rf, LearnerKind::Lr])
        .seed(7)
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("flaml_handle_{tag}_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn sliced_search_journal_is_byte_identical_to_single_shot() {
    let data = binary_dataset(600, 11);

    let reference_path = scratch("ref");
    let reference = base().journal(&reference_path).fit(&data).unwrap();

    let sliced_path = scratch("sliced");
    let mut handle = SearchHandle::new(base(), &sliced_path);
    let mut slices = 0;
    let result = loop {
        slices += 1;
        match handle.run_slice(&data, 4).unwrap() {
            SliceOutcome::Paused { committed, spent } => {
                assert_eq!(committed, handle.committed());
                assert!(spent > 0.0);
                assert!(!handle.is_finished());
            }
            SliceOutcome::Finished(result) => break result,
        }
    };
    assert!(slices > 2, "18 trials in slices of 4 must pause repeatedly");
    assert!(handle.is_finished());
    assert_eq!(result.trials.len(), reference.trials.len());
    assert_eq!(result.best_learner, reference.best_learner);
    assert_eq!(result.best_error.to_bits(), reference.best_error.to_bits());

    let reference_bytes = Journal::read(&reference_path).unwrap().canonical_bytes();
    let sliced_bytes = Journal::read(&sliced_path).unwrap().canonical_bytes();
    assert_eq!(
        reference_bytes, sliced_bytes,
        "sliced journal must be byte-identical to the single-shot journal"
    );
    let _ = std::fs::remove_file(&reference_path);
    let _ = std::fs::remove_file(&sliced_path);
}

#[test]
fn attach_continues_a_crashed_search_to_identical_bytes() {
    let data = binary_dataset(600, 11);

    let reference_path = scratch("crash_ref");
    base().journal(&reference_path).fit(&data).unwrap();

    // "Crash": run a few slices, then drop the handle on the floor.
    let crashed_path = scratch("crash");
    let mut first = SearchHandle::new(base(), &crashed_path);
    assert!(matches!(
        first.run_slice(&data, 5).unwrap(),
        SliceOutcome::Paused { committed: 5, .. }
    ));
    let mid = Journal::read(&crashed_path).unwrap();
    assert_eq!(mid.trials.len(), 5);
    drop(first);

    // A new process attaches to the journal and finishes the search.
    let mut second = SearchHandle::attach(base(), &crashed_path).unwrap();
    assert_eq!(second.committed(), 5);
    assert!(second.spent() > 0.0);
    let result = second.run_to_end(&data, 5).unwrap();
    assert_eq!(result.trials.len(), 18);

    assert_eq!(
        Journal::read(&reference_path).unwrap().canonical_bytes(),
        Journal::read(&crashed_path).unwrap().canonical_bytes(),
        "resumed journal must be byte-identical to an uninterrupted run"
    );
    let _ = std::fs::remove_file(&reference_path);
    let _ = std::fs::remove_file(&crashed_path);
}

#[test]
fn budget_exhaustion_finishes_before_the_trial_cap() {
    let data = binary_dataset(600, 11);
    let path = scratch("budget");
    // A budget far too small for 18 trials: slicing must detect the
    // budget stop (fewer trials than the slice cap allows) and finish.
    let mut handle = SearchHandle::new(base().time_budget(0.05), &path);
    let result = handle.run_to_end(&data, 4).unwrap();
    assert!(handle.is_finished());
    assert!(
        result.trials.len() < 18,
        "0.05s of virtual budget cannot afford the full trial cap"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_slice_on_some_other_dataset_is_refused_and_the_search_stays_parked() {
    let data = binary_dataset(600, 11);
    let reference_path = scratch("data_ref");
    base().journal(&reference_path).fit(&data).unwrap();

    let path = scratch("data");
    let mut handle = SearchHandle::new(base(), &path);
    handle.run_slice(&data, 4).unwrap();

    // Same content behind different storage passes the fingerprint check.
    let same_content = binary_dataset(600, 11);
    assert!(matches!(
        handle.run_slice(&same_content, 4).unwrap(),
        SliceOutcome::Paused { committed: 8, .. }
    ));

    // Different content gets the error a resume against it would.
    match handle.run_slice(&binary_dataset(600, 12), 4) {
        Err(AutoMlError::ResumeMismatch { field, .. }) => assert_eq!(field, "dataset fingerprint"),
        other => panic!("expected ResumeMismatch, got {other:?}"),
    }
    assert_eq!(handle.committed(), 8, "a refused slice runs nothing");

    handle.run_to_end(&data, 4).unwrap();
    assert_eq!(
        Journal::read(&reference_path).unwrap().canonical_bytes(),
        Journal::read(&path).unwrap().canonical_bytes(),
    );
    let _ = std::fs::remove_file(&reference_path);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_failed_journal_append_fails_the_slice_that_saw_it() {
    let data = binary_dataset(600, 11);

    // Fault-free chaos run: where in the op sequence do appends fall?
    let path = scratch("enospc_clean");
    let clean = Arc::new(ChaosStorage::new(disk(), IoFaultPlan::new(1)));
    let mut handle = SearchHandle::new(base().storage(clean.clone()), &path);
    handle.run_slice(&data, 4).unwrap();
    let after_4 = clean.ops_issued();
    handle.run_slice(&data, 4).unwrap();
    let per_append = (clean.ops_issued() - after_4) / 4;
    // The first op of the sixth append: five trials are durable.
    let fatal_op = after_4 + per_append;
    let plan = (0..100_000)
        .map(|seed| IoFaultPlan::new(seed).enospc(0.05))
        .find(|plan| {
            (0..fatal_op).all(|op| plan.decide(op).is_none())
                && plan.decide(fatal_op) == Some(IoFault::NoSpace)
        })
        .expect("some seed runs out of space exactly there");

    let path = scratch("enospc");
    let (sink, events) = event_channel();
    let chaos = Arc::new(ChaosStorage::new(disk(), plan));
    let mut handle = SearchHandle::new(base().storage(chaos).event_sink(sink), &path);
    let spent_4 = match handle.run_slice(&data, 4).unwrap() {
        SliceOutcome::Paused {
            committed: 4,
            spent,
        } => spent,
        other => panic!("expected a pause at 4, got {other:?}"),
    };
    match handle.run_slice(&data, 4) {
        Err(AutoMlError::Durability(StorageError::NoSpace { .. })) => {}
        other => panic!("expected Durability(NoSpace), got {other:?}"),
    }
    // The counts are the live search's, not the last good slice's.
    assert_eq!(handle.committed(), 5);
    assert!(handle.spent() > spent_4);
    assert!(!handle.is_finished());
    assert_eq!(Journal::read(&path).unwrap().trials.len(), 5);
    // And the search stopped at the trial it could not persist: it was
    // started, but no event claims the commit that did not happen.
    let events: Vec<_> = events.try_iter().collect();
    let kinds_of = |trial| -> Vec<TrialEventKind> {
        let about = events.iter().filter(|ev| ev.job_id == trial);
        about.map(|ev| ev.kind).collect()
    };
    for trial in 1..=5 {
        assert_eq!(
            kinds_of(trial),
            [TrialEventKind::Started, TrialEventKind::Finished]
        );
    }
    assert_eq!(kinds_of(6), [TrialEventKind::Started]);
    let committed = events.iter().filter(|ev| ev.meta.is_some()).count();
    assert_eq!(committed, handle.committed());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_parked_wall_clock_search_is_not_billed_for_the_queue() {
    let data = binary_dataset(300, 11);
    let path = scratch("wall");
    let settings = AutoMl::new()
        .time_budget(2.0)
        .max_trials(8)
        .sample_size_init(100)
        .estimators([LearnerKind::Lr])
        .seed(7);
    let mut handle = SearchHandle::new(settings, &path);
    // 2.4 s in the queue against a 2 s budget.
    let result = loop {
        match handle.run_slice(&data, 2).unwrap() {
            SliceOutcome::Paused { .. } => std::thread::sleep(Duration::from_millis(800)),
            SliceOutcome::Finished(result) => break result,
        }
    };
    assert_eq!(result.trials.len(), 8, "queue time ate the budget");
    assert!(handle.spent() < 2.0);
    let _ = std::fs::remove_file(&path);
}

/// A linear learner that counts its fits.
#[derive(Debug, Default)]
struct CountingLr {
    fits: AtomicUsize,
}

impl CustomLearner for CountingLr {
    fn name(&self) -> &str {
        "counting_lr"
    }
    fn space(&self, _n: usize) -> SearchSpace {
        SearchSpace::new(vec![ParamDef::new(
            "c",
            Domain::log_float(0.01, 100.0),
            1.0,
        )])
        .expect("valid")
    }
    fn fit(
        &self,
        data: &DatasetView,
        config: &Config,
        space: &SearchSpace,
        seed: u64,
        budget: Option<Duration>,
    ) -> Result<FittedModel, FitError> {
        self.fits.fetch_add(1, Ordering::SeqCst);
        let params = LinearParams {
            c: config.get(space, "c"),
            max_iter: 10,
        };
        Linear::fit_bounded(data, &params, seed, budget).map(FittedModel::from)
    }
}

#[test]
fn a_sliced_search_fits_exactly_what_a_single_shot_fits() {
    let data = binary_dataset(600, 11);
    let path = scratch("counting");
    let learner = Arc::new(CountingLr::default());
    let settings = base()
        .estimators([])
        .add_learner(learner.clone())
        .resample(ResampleChoice::AlwaysCv);
    let result = SearchHandle::new(settings, &path)
        .run_to_end(&data, 4)
        .unwrap();
    assert_eq!(result.trials.len(), 18);
    assert_eq!(result.n_retries, 0);
    // Every trial's folds, and one refit — not one refit per slice.
    assert_eq!(
        learner.fits.load(Ordering::SeqCst),
        18 * result.strategy.fits_per_trial() + 1
    );
    let _ = std::fs::remove_file(&path);
}

/// The event with its physical-time and cache-temperature fields
/// zeroed, as `Journal::canonical_bytes` zeroes them.
fn canonical(mut ev: TrialEvent) -> String {
    ev.wall_secs = None;
    ev.prepared_hits = 0;
    ev.prepared_misses = 0;
    ev.prepared_evictions = 0;
    ev.bytes_copied_saved = 0;
    ev.tree_cache_hits = 0;
    ev.tree_cache_misses = 0;
    ev.trees_saved = 0;
    format!("{ev:?}")
}

#[test]
fn a_sliced_search_emits_the_event_stream_of_a_single_shot() {
    let clean = binary_dataset(600, 11);
    let mut columns = clean.columns().to_vec();
    columns.insert(1, vec![5.0; 600]);
    let data = Dataset::new("junky", Task::Binary, columns, clean.target().to_vec()).unwrap();

    let (sink, events) = event_channel();
    let path = scratch("events_ref");
    base().journal(&path).event_sink(sink).fit(&data).unwrap();
    let reference: Vec<String> = events.try_iter().map(canonical).collect();
    let _ = std::fs::remove_file(&path);

    let (sink, events) = event_channel();
    let path = scratch("events");
    SearchHandle::new(base().event_sink(sink), &path)
        .run_to_end(&data, 4)
        .unwrap();
    let sliced: Vec<String> = events.try_iter().map(canonical).collect();
    let _ = std::fs::remove_file(&path);

    assert!(reference[0].contains("Sanitized") && reference.len() == 1 + 2 * 18);
    assert_eq!(sliced, reference);
}
