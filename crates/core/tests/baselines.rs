//! The baseline systems (BOHB, BO, random search, Hyperband) as proposers
//! of the one search loop: each runs end to end through [`AutoMl::fit`],
//! the fidelity ones start below full data, and their traces are pinned.

use flaml_core::{
    default_virtual_cost, AutoMl, AutoMlError, AutoMlResult, LearnerKind, LearnerSelection,
    TimeSource, TrialInfo, TrialMode,
};
use flaml_data::{Dataset, Task};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BASELINES: [LearnerSelection; 4] = [
    LearnerSelection::Random,
    LearnerSelection::Bo,
    LearnerSelection::Bohb,
    LearnerSelection::Hyperband,
];

fn dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let y: Vec<f64> = (0..n)
        .map(|i| f64::from(x0[i] + x1[i] * 0.5 > 0.75))
        .collect();
    Dataset::new("b", Task::Binary, vec![x0, x1], y).unwrap()
}

fn regression(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let cols: Vec<Vec<f64>> = (0..3)
        .map(|_| (0..n).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let y: Vec<f64> = (0..n)
        .map(|i| 2.0 * cols[0][i] - cols[1][i] * cols[2][i] + 0.1 * rng.gen::<f64>())
        .collect();
    Dataset::new("r", Task::Regression, cols, y).unwrap()
}

fn settings(kind: LearnerSelection, budget: f64) -> AutoMl {
    AutoMl::new()
        .learner_selection(kind)
        .time_budget(budget)
        .estimators([LearnerKind::LightGbm, LearnerKind::Lr])
        .sample_size_init(100)
        .time_source(TimeSource::Virtual(default_virtual_cost))
}

#[test]
fn every_baseline_runs_end_to_end() {
    let data = dataset(600, 0);
    for kind in BASELINES {
        let r = settings(kind, 1.0).fit(&data).unwrap();
        assert!(!r.trials.is_empty(), "{kind:?}");
        assert!(r.best_error.is_finite(), "{kind:?}");
        assert_eq!(r.model.predict(&data).n_rows(), 600, "{kind:?}");
    }
}

#[test]
fn bohb_uses_low_fidelity_first() {
    let data = dataset(900, 1);
    // Uncapped budget + trial cap: bracket 2 has 9 rung-0 jobs, so by
    // trial 13 a promoted (SampleUp) job must have been issued.
    let r = settings(LearnerSelection::Bohb, 1e9)
        .max_trials(13)
        .fit(&data)
        .unwrap();
    let first = &r.trials[0];
    assert!(
        first.sample_size < 900,
        "BOHB's first bracket must subsample, got {}",
        first.sample_size
    );
    // Some promoted jobs must appear at higher fidelity.
    assert!(r.trials.iter().any(|t| t.mode == TrialMode::SampleUp));
}

#[test]
fn random_search_uses_full_data() {
    let data = dataset(400, 2);
    let r = settings(LearnerSelection::Random, 1.0).fit(&data).unwrap();
    assert!(r.trials.iter().all(|t| t.sample_size == 400));
}

#[test]
fn deterministic_under_virtual_clock() {
    let data = dataset(500, 4);
    let run = |seed| {
        settings(LearnerSelection::Bohb, 0.5)
            .seed(seed)
            .fit(&data)
            .unwrap()
            .trials
            .iter()
            .map(|t| (t.learner.clone(), t.config.clone(), t.sample_size))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(7), run(7));
}

#[test]
fn max_trials_caps_all_baselines() {
    let data = dataset(300, 5);
    for kind in [LearnerSelection::Random, LearnerSelection::Bohb] {
        let r = settings(kind, 1e9).max_trials(5).fit(&data).unwrap();
        assert_eq!(r.trials.len(), 5, "{kind:?}");
    }
}

#[test]
fn unusable_budgets_are_typed_errors_before_any_trial() {
    // NaN never trips the stop check and a wall deadline cannot hold
    // ±inf; the trial cap makes a regression fail here, not hang.
    let data = dataset(300, 6);
    for source in [TimeSource::Wall, TimeSource::Virtual(default_virtual_cost)] {
        let run = |kind, budget: f64, cap: usize| {
            settings(kind, budget)
                .time_source(source)
                .max_trials(cap)
                .fit(&data)
        };
        for kind in [LearnerSelection::Random, LearnerSelection::Bohb] {
            for budget in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
                match run(kind, budget, 3) {
                    Err(AutoMlError::BadTimeBudget(b)) => {
                        assert_eq!(b.to_bits(), budget.to_bits())
                    }
                    other => panic!(
                        "{kind:?} {budget} under {}: {:?}",
                        source.name(),
                        other.map(|r| r.trials.len())
                    ),
                }
            }
            // A finite budget too large for a `Duration` bounds nothing.
            let r = run(kind, 1e20, 2).unwrap();
            assert_eq!(r.trials.len(), 2, "{kind:?} under {}", source.name());
        }
    }
}

/// The default virtual cost model at a thousandth of its scale, so a
/// small budget still buys the trial cap.
fn cheap_cost(info: &TrialInfo) -> f64 {
    default_virtual_cost(info) * 1e-3
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// FNV-1a over what a baseline's trace decides: per trial the learner,
/// the configuration's bits, the sample size, the mode, and the error,
/// cost and clock bits; then the best error and learner of the run.
fn trace_hash(r: &AutoMlResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in &r.trials {
        fnv(&mut h, t.learner.as_bytes());
        for v in &t.config_values {
            fnv(&mut h, &v.to_bits().to_le_bytes());
        }
        fnv(&mut h, &(t.sample_size as u64).to_le_bytes());
        fnv(&mut h, t.mode.name().as_bytes());
        fnv(&mut h, &t.error.to_bits().to_le_bytes());
        fnv(&mut h, &t.cost.to_bits().to_le_bytes());
        fnv(&mut h, &t.total_time.to_bits().to_le_bytes());
    }
    fnv(&mut h, &r.best_error.to_bits().to_le_bytes());
    fnv(&mut h, r.best_learner.as_bytes());
    h
}

#[test]
fn baseline_traces_match_the_pinned_hashes() {
    // Pinned from the standalone baseline driver these proposers replaced
    // (20 trials each over all six learners, seed 3, fidelity floor 100):
    // moving the baselines into the search loop changed no trial. The
    // binary case cross-validates (600 x 2 rows over 10 s), the
    // regression case holds out (1000 x 3 rows over 1 s).
    let cases = [
        (
            "binary-cv",
            dataset(600, 11),
            10.0,
            [
                0x0443_cdc4_1726_8ebf,
                0xa25f_e564_b61a_1f46,
                0x5303_0fbd_844e_b6bd,
                0x0f62_4b8d_296d_be7b,
            ],
        ),
        (
            "regression-holdout",
            regression(1000, 12),
            1.0,
            [
                0xe6e4_7654_d6a4_c5b7,
                0x48a5_579c_364b_5b26,
                0x212d_381d_5cc9_6d47,
                0x0371_599e_cd03_faa5,
            ],
        ),
    ];
    let kinds = [
        LearnerSelection::Bohb,
        LearnerSelection::Bo,
        LearnerSelection::Random,
        LearnerSelection::Hyperband,
    ];
    for (name, data, budget, pins) in &cases {
        for (kind, pin) in kinds.iter().zip(pins) {
            let r = AutoMl::new()
                .learner_selection(*kind)
                .time_budget(*budget)
                .sample_size_init(100)
                .seed(3)
                .max_trials(20)
                .time_source(TimeSource::Virtual(cheap_cost))
                .fit(data)
                .unwrap();
            assert_eq!(r.trials.len(), 20, "{name} {kind:?}");
            assert_eq!(r.n_retries, 0, "{name} {kind:?}");
            assert_eq!(
                trace_hash(&r),
                *pin,
                "{name} {kind:?}: {:#018x}",
                trace_hash(&r)
            );
        }
    }
}
