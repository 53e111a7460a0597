//! Determinism contract of the flaml-exec runtime integration: under a
//! virtual clock, the committed trial trace is a pure function of
//! (dataset, settings, seed) — independent of worker count, selection
//! policy, and fold-level parallelism.

use flaml_core::{
    default_virtual_cost, event_channel, AutoMl, LearnerKind, LearnerSelection, ResampleChoice,
    TimeSource, TrialEventKind, TrialRecord,
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
    Dataset::new("det", Task::Binary, vec![x0, x1], y).unwrap()
}

fn base(workers: usize) -> AutoMl {
    AutoMl::new()
        .time_source(TimeSource::Virtual(default_virtual_cost))
        .sample_size_init(100)
        .time_budget(1.0)
        .max_trials(24)
        .estimators([LearnerKind::LightGbm, LearnerKind::Rf, LearnerKind::Lr])
        .seed(7)
        .workers(workers)
}

/// Serializes a trace so comparison is byte-exact (every field, including
/// the float bit patterns rendered by serde).
fn trace(trials: &[TrialRecord]) -> String {
    serde_json::to_string(trials).expect("trial records serialize")
}

#[test]
fn same_seed_virtual_runs_produce_identical_traces() {
    let data = binary_dataset(700, 1);
    let a = base(1).fit(&data).unwrap();
    let b = base(1).fit(&data).unwrap();
    assert_eq!(trace(&a.trials), trace(&b.trials));
    assert_eq!(a.best_error.to_bits(), b.best_error.to_bits());
    assert_eq!(a.best_config_rendered, b.best_config_rendered);
}

#[test]
fn eci_mode_trace_is_worker_count_invariant() {
    // ECI selection keeps trials sequential; the workers parallelize CV
    // folds inside each trial. Fold-order aggregation makes the fold sum
    // bit-exact, so the whole trace must match.
    let data = binary_dataset(600, 2);
    let seq = base(1)
        .resample(ResampleChoice::AlwaysCv)
        .fit(&data)
        .unwrap();
    for workers in [2, 4] {
        let par = base(workers)
            .resample(ResampleChoice::AlwaysCv)
            .fit(&data)
            .unwrap();
        assert_eq!(trace(&seq.trials), trace(&par.trials), "workers={workers}");
        assert_eq!(seq.best_error.to_bits(), par.best_error.to_bits());
    }
}

#[test]
fn round_robin_matches_sequential_trace() {
    // Round-robin runs one trial at a time like ECI; extra workers go to
    // CV folds. Under the virtual clock a workers=1 run must be
    // byte-identical to any worker count. A generous virtual budget so
    // many rounds run whatever configs the search happens to propose;
    // max_trials still caps the run.
    let data = binary_dataset(800, 3);
    let seq = base(1)
        .learner_selection(LearnerSelection::RoundRobin)
        .time_budget(6.0)
        .fit(&data)
        .unwrap();
    assert!(
        seq.trials.len() > 6,
        "need several rounds of the roster, got {}",
        seq.trials.len()
    );
    for workers in [2, 4, 8] {
        let par = base(workers)
            .learner_selection(LearnerSelection::RoundRobin)
            .time_budget(6.0)
            .fit(&data)
            .unwrap();
        assert_eq!(trace(&seq.trials), trace(&par.trials), "workers={workers}");
        assert_eq!(seq.best_learner, par.best_learner);
        assert_eq!(seq.best_error.to_bits(), par.best_error.to_bits());
    }
}

#[test]
fn the_event_stream_matches_the_commits() {
    // One trial in flight: each trial's `Started` is followed by its own
    // terminal event before the next trial starts, and no trial starts
    // that the search does not commit — under both selection policies,
    // at any worker count, when the budget (not the cap) ends the run.
    let data = binary_dataset(600, 8);
    for selection in [LearnerSelection::Eci, LearnerSelection::RoundRobin] {
        for workers in [1, 4] {
            let (sink, rx) = event_channel();
            let result = base(workers)
                .learner_selection(selection)
                .estimators([LearnerKind::LightGbm, LearnerKind::XgBoost, LearnerKind::Rf])
                .time_budget(1.0)
                .max_trials(1000)
                .event_sink(sink)
                .fit(&data)
                .unwrap();
            assert!(result.trials.len() < 1000, "the budget must end the run");
            let seen: Vec<(bool, u64)> = rx
                .try_iter()
                .filter_map(|ev| match ev.kind {
                    TrialEventKind::Started => Some((true, ev.job_id)),
                    TrialEventKind::Finished
                    | TrialEventKind::TimedOut
                    | TrialEventKind::Panicked => Some((false, ev.job_id)),
                    _ => None,
                })
                .collect();
            let expected: Vec<(bool, u64)> = result
                .trials
                .iter()
                .flat_map(|t| [(true, t.iter as u64), (false, t.iter as u64)])
                .collect();
            assert_eq!(seen, expected, "{selection:?} workers={workers}");
        }
    }
}

/// A scratch journal path unique to one (test, workers, k) combination.
fn journal_path(tag: &str, workers: usize, k: usize) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "flaml_determinism_{tag}_w{workers}_k{k}_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn kill_and_resume_reproduces_the_uninterrupted_trace() {
    // The crash-recovery contract: journal a run, kill it after k trials,
    // resume from the journal, and the continued trace must be
    // byte-identical to a run that was never interrupted — for an early,
    // a middle, and a last-moment kill, sequential and parallel. The
    // baseline proposers resume too: replay re-feeds the TPE sampler
    // and the Hyperband schedule (BOHB), and the random sampler. They
    // get a larger budget: the joint space draws the costly `lr` often.
    let data = binary_dataset(700, 5);
    for (selection, budget) in [
        (LearnerSelection::Eci, 1.0),
        (LearnerSelection::Bohb, 1000.0),
        (LearnerSelection::Random, 1000.0),
    ] {
        let base = |workers| {
            base(workers)
                .learner_selection(selection)
                .time_budget(budget)
        };
        for workers in [1usize, 4] {
            let full = base(workers).fit(&data).unwrap();
            let total = full.trials.len();
            assert!(total >= 4, "need a few trials to kill between, got {total}");
            for k in [1, total / 2, total - 1] {
                let tag = format!("resume_{}", selection.name());
                let path = journal_path(&tag, workers, k);
                // "Kill at trial k": cap the journaled run at k trials.
                // The journal then holds exactly the records a SIGKILL at
                // that point would have committed (every record is
                // fsynced).
                let partial = base(workers)
                    .max_trials(k)
                    .journal(&path)
                    .fit(&data)
                    .unwrap();
                assert_eq!(partial.trials.len(), k, "workers={workers} k={k}");
                let resumed = base(workers).resume_from(&path).fit(&data).unwrap();
                assert_eq!(
                    trace(&full.trials),
                    trace(&resumed.trials),
                    "{selection:?} workers={workers} k={k}"
                );
                assert_eq!(full.best_error.to_bits(), resumed.best_error.to_bits());
                assert_eq!(full.best_config_rendered, resumed.best_config_rendered);
                // The resumed process kept journaling: the file must now
                // describe the full run and support a second resume that
                // replays everything and runs nothing.
                let journal = flaml_core::Journal::read(&path).unwrap();
                assert_eq!(journal.trials.len(), total, "workers={workers} k={k}");
                let replayed_only = base(workers).resume_from(&path).fit(&data).unwrap();
                assert_eq!(trace(&full.trials), trace(&replayed_only.trials));
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}

#[test]
fn resume_refuses_a_journal_from_different_settings() {
    let data = binary_dataset(500, 6);
    let path = journal_path("mismatch", 1, 0);
    base(1).max_trials(3).journal(&path).fit(&data).unwrap();
    // Different seed: the replayed proposals would diverge immediately,
    // so resume must refuse up front on the header.
    let err = base(1).seed(8).resume_from(&path).fit(&data).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("seed"), "unexpected error: {msg}");
    // Different dataset content: caught by the fingerprint.
    let other = binary_dataset(500, 99);
    let err = base(1).resume_from(&path).fit(&other).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("fingerprint"), "unexpected error: {msg}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn round_robin_holdout_also_matches() {
    // Same contract when trials are holdout-evaluated (the model is
    // trained inside the trial rather than deferred).
    let data = binary_dataset(500, 4);
    let run = |workers: usize| {
        base(workers)
            .learner_selection(LearnerSelection::RoundRobin)
            .resample(ResampleChoice::AlwaysHoldout)
            .fit(&data)
            .unwrap()
    };
    let seq = run(1);
    let par = run(4);
    assert_eq!(trace(&seq.trials), trace(&par.trials));
}

/// 500 x 5 rows with a `NaN`-holding and a coarse integer column, so the
/// forests' missing-value and tie handling is on the search path.
fn pinned_dataset(task: Task) -> Dataset {
    let n = 500;
    let mut rng = StdRng::seed_from_u64(0x9e_17);
    let mut cols: Vec<Vec<f64>> = (0..5)
        .map(|j| {
            (0..n)
                .map(|_| match j {
                    2 => f64::from(rng.gen_range(0u32..5)),
                    _ => rng.gen::<f64>() * 2.0 - 1.0,
                })
                .collect()
        })
        .collect();
    let signal: Vec<f64> = (0..n)
        .map(|i| cols[0][i] * cols[1][i] + 0.3 * cols[2][i] + 0.2 * rng.gen::<f64>())
        .collect();
    for v in cols[3].iter_mut() {
        if rng.gen::<f64>() < 0.1 {
            *v = f64::NAN;
        }
    }
    let y = signal
        .iter()
        .map(|&s| match task {
            Task::Regression => s,
            Task::Binary => f64::from(s > 0.6),
            Task::MultiClass(k) => ((s * 2.0).floor().max(0.0) as usize).min(k - 1) as f64,
        })
        .collect();
    Dataset::new("pinned", task, cols, y).unwrap()
}

#[test]
fn all_learner_journals_match_the_pinned_bytes() {
    // Model-level goldens (`flaml-learners`' `tests/golden.rs`) pin each
    // forest's bits for one seed; what they cannot see is a learner
    // drawing from its RNG in a different order *across nodes* and still
    // landing on valid trees. The journal can: every loss of every trial
    // of every learner is in it. FNV-1a 64 of `canonical_bytes` for a
    // 20-trial search over the whole roster, values produced at commit
    // d50508e (print the table below with an empty `PINNED` to
    // regenerate, and say why).
    const PINNED: [(&str, u64); 6] = [
        ("binary/w1", 0xada955d43b845457),
        ("binary/w2", 0xada955d43b845457),
        ("3class/w1", 0x90d25992f33322c2),
        ("3class/w2", 0x90d25992f33322c2),
        ("regression/w1", 0xe9a769d65c88cec9),
        ("regression/w2", 0xe9a769d65c88cec9),
    ];
    let tasks = [
        ("binary", Task::Binary),
        ("3class", Task::MultiClass(3)),
        ("regression", Task::Regression),
    ];
    let mut got = Vec::new();
    for (name, task) in tasks {
        let data = pinned_dataset(task);
        for workers in [1usize, 2] {
            let path = journal_path(&format!("pinned_{name}"), workers, 0);
            AutoMl::new()
                .time_source(TimeSource::Virtual(default_virtual_cost))
                .sample_size_init(200)
                .time_budget(60.0)
                .max_trials(20)
                .seed(11)
                .workers(workers)
                .journal(&path)
                .fit(&data)
                .unwrap();
            let journal = flaml_core::Journal::read(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            assert_eq!(journal.trials.len(), 20, "{name} workers={workers}");
            let hash = journal
                .canonical_bytes()
                .bytes()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                });
            got.push((format!("{name}/w{workers}"), hash));
        }
    }
    let table: String = got
        .iter()
        .map(|(name, h)| format!("        (\"{name}\", 0x{h:016x}),\n"))
        .collect();
    assert_eq!(got.len(), PINNED.len(), "computed table:\n{table}");
    for ((name, h), (want_name, want)) in got.iter().zip(PINNED) {
        assert_eq!(name, want_name);
        assert_eq!(*h, want, "{name} moved; computed table:\n{table}");
    }
}

#[test]
fn a_journal_carrying_tree_cache_counts_resumes_exactly() {
    // The fixture is the first five trials of an all-learner search,
    // journaled when searches still ran a cross-trial tree cache: its
    // lines carry non-zero `tree_cache_misses`, which current searches
    // write as 0. Resuming it must still land on the canonical bytes of
    // a run that was never interrupted.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/journal_with_tree_cache_counts_killed_at_trial_5.jsonl"
    );
    let killed = flaml_core::Journal::read(fixture).unwrap();
    assert_eq!(killed.trials.len(), 5);
    assert!(
        killed.trials.iter().any(|t| t.tree_cache_misses > 0),
        "the fixture must carry tree-cache counts"
    );
    let data = pinned_dataset(Task::Binary);
    let settings = || {
        AutoMl::new()
            .time_source(TimeSource::Virtual(default_virtual_cost))
            .sample_size_init(200)
            .time_budget(60.0)
            .max_trials(12)
            .seed(11)
    };
    let resumed = journal_path("counted_resume", 1, 5);
    std::fs::copy(fixture, &resumed).unwrap();
    settings().resume_from(&resumed).fit(&data).unwrap();
    let fresh = journal_path("counted_fresh", 1, 5);
    settings().journal(&fresh).fit(&data).unwrap();
    let canonical = |p: &std::path::Path| flaml_core::Journal::read(p).unwrap().canonical_bytes();
    let (resumed_bytes, fresh_bytes) = (canonical(&resumed), canonical(&fresh));
    let _ = std::fs::remove_file(&resumed);
    let _ = std::fs::remove_file(&fresh);
    assert_eq!(resumed_bytes.lines().count(), 13, "header + 12 trials");
    assert_eq!(resumed_bytes, fresh_bytes);
}
