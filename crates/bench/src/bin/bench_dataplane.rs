//! Data-plane benchmark: prepare-vs-fit trial throughput with the
//! prepared-data cache on vs. off, on a 5-fold CV smoke grid.
//!
//! Two measurements per dataset:
//!
//! 1. **Purity** — the same AutoML search runs on the virtual clock with
//!    the data plane enabled and disabled; the two trial traces must be
//!    byte-identical (the plane is observationally pure — only wall time
//!    and the hit/miss counters may differ).
//! 2. **Throughput** — the trials that search actually proposed are
//!    replayed as a fixed roster, several cycles per arm after a warmup
//!    cycle (the fastest cycle is reported: interference only ever adds
//!    time). The cache-on arm executes them against a shared
//!    [`DataPlane`] in steady state (fold views and binned matrices all
//!    hit); the cache-off arm takes the copy path every trial:
//!    materialized sample and fold datasets, plus a fresh sort + quantize
//!    inside every fit. Both arms execute the identical trial sequence
//!    and must produce bit-identical losses; only the time differs.
//!
//! The default roster depth (`--max-trials 3`) keeps the workload in the
//! cold-start regime — each learner's first proposals, where FLAML's
//! low-cost-first search always begins and data preparation is a large
//! share of a trial. Deeper rosters (`--max-trials N`) shift the mix
//! toward configurations whose tree-growing cost dwarfs preparation; they
//! measure tree building, not the data plane.
//!
//! Per-dataset speedup is `secs_off / secs_on` over the same work; the
//! aggregate gate is the **geometric mean across datasets** (each dataset
//! weighted equally — a raw total-time ratio would be dominated by
//! whichever dataset has the slowest fits, i.e. by tree-growing time the
//! data plane does not touch). Totals are also reported. The binary exits
//! non-zero when the aggregate falls below `--min-speedup` (default 1.5).
//!
//! The default roster targets the hot path the cache exists for: the
//! binned GBDT learners (`--estimators lightgbm,xgboost`) on full-sample
//! 5-fold CV. Unbinned learners dilute the signal without exercising more
//! of the cache; add them back with `--estimators` to measure whole-roster
//! throughput.
//!
//! ```text
//! cargo run -p flaml-bench --release --bin bench_dataplane
//! ```

use flaml_bench::grid::default_groups;
use flaml_bench::Args;
use flaml_core::{
    default_virtual_cost, run_trial_prepared, AutoMl, AutoMlResult, DataPlane, Estimator, ExecPool,
    LearnerKind, ResampleChoice, ResampleStrategy, TimeSource,
};
use flaml_data::Dataset;
use flaml_exec::{event_channel, Telemetry};
use flaml_metrics::Metric;
use flaml_search::Config;
use serde::Serialize;
use std::time::Instant;

/// One dataset's purity check plus cache-on vs. cache-off throughput.
#[derive(Debug, Clone, Serialize)]
struct DatasetRow {
    dataset: String,
    group: String,
    /// Trials the discovery search ran (the replay roster size).
    roster_trials: usize,
    /// Whether the cache-on and cache-off searches produced byte-identical
    /// trial traces (they must: the data plane is observationally pure).
    trace_identical: bool,
    /// Whether the replayed trials produced bit-identical losses across
    /// the two arms (they must, for the throughput numbers to compare
    /// equal work).
    replay_losses_identical: bool,
    prepared_hits: usize,
    prepared_misses: usize,
    prepared_evictions: usize,
    bytes_copied_saved: usize,
    /// Trials per timed cycle (the roster size); the timings cover one
    /// cycle (the fastest of `--cycles`).
    replay_trials: usize,
    secs_cache_off: f64,
    secs_cache_on: f64,
    trials_per_sec_off: f64,
    trials_per_sec_on: f64,
    speedup: f64,
}

/// The full benchmark report written to `bench_results/`.
#[derive(Debug, Clone, Serialize)]
struct DataplaneReport {
    rows: Vec<DatasetRow>,
    total_replay_trials: usize,
    total_secs_cache_off: f64,
    total_secs_cache_on: f64,
    /// Geometric mean of per-dataset speedups (equal dataset weight);
    /// the pass/fail gate.
    speedup: f64,
    /// Raw total-time ratio, for reference (weighted by dataset cost).
    total_time_speedup: f64,
    min_speedup: f64,
    pass: bool,
}

struct BenchSpec {
    seed: u64,
    budget: f64,
    max_trials: usize,
    estimators: Vec<LearnerKind>,
    cycles: usize,
    sampling: bool,
}

/// One replayable trial: a learner and the configuration the search
/// proposed for it, reconstructed losslessly from the trial record.
struct RosterTrial {
    est: usize,
    config: Config,
    sample_size: usize,
}

fn search_once(data: &Dataset, spec: &BenchSpec, cache: bool) -> Option<(AutoMlResult, Telemetry)> {
    let (sink, events) = event_channel();
    let automl = AutoMl::new()
        .time_budget(spec.budget)
        .time_source(TimeSource::Virtual(default_virtual_cost))
        .resample(ResampleChoice::AlwaysCv)
        .max_trials(spec.max_trials)
        .seed(spec.seed)
        .estimators(spec.estimators.clone())
        .sampling(spec.sampling)
        .event_sink(sink)
        .prepared_cache(cache);
    match automl.fit(data) {
        Ok(r) => Some((r, Telemetry::new().drain(&events))),
        Err(e) => {
            eprintln!("[dataplane] {}: search failed: {e}", data.name());
            None
        }
    }
}

/// Executes the roster `cycles` times (after one untimed warmup cycle)
/// with the data plane enabled or disabled. Returns the *fastest* cycle's
/// seconds — scheduler interference only ever adds time, so the minimum
/// over cycles estimates the true cost — plus the loss of every trial of
/// the first timed cycle, in execution order.
fn replay(
    data: &Dataset,
    roster: &[RosterTrial],
    estimators: &[(Estimator, flaml_search::SearchSpace)],
    spec: &BenchSpec,
    cache: bool,
    pool: &ExecPool,
) -> (f64, Vec<u64>) {
    let shuffled = data.shuffled_view(spec.seed);
    let strategy = ResampleStrategy::Cv { folds: 5 };
    let metric = Metric::default_for(data.task());
    let mut plane = DataPlane::new(shuffled, strategy, cache, 256 * 1024 * 1024);
    let run_cycle = |plane: &mut DataPlane, losses: Option<&mut Vec<u64>>| {
        let mut sink = losses;
        for t in roster {
            let (est, space) = &estimators[t.est];
            let (td, _) = plane.prepare(t.sample_size, est.max_bin(&t.config, space));
            let out = run_trial_prepared(&td, est, &t.config, space, metric, spec.seed, None, pool);
            if let Some(v) = sink.as_mut() {
                v.push(out.error.to_bits());
            }
        }
    };
    run_cycle(&mut plane, None); // warmup: cache-on reaches steady state
    let mut losses = Vec::with_capacity(roster.len());
    let mut best = f64::INFINITY;
    for cycle in 0..spec.cycles {
        let started = Instant::now();
        run_cycle(
            &mut plane,
            if cycle == 0 { Some(&mut losses) } else { None },
        );
        best = best.min(started.elapsed().as_secs_f64());
    }
    (best, losses)
}

fn main() {
    let args = Args::parse();
    let exec = args.exec();
    let per_group = args.usize("per-group", if exec.full { usize::MAX } else { 2 });
    let min_speedup = args.f64("min-speedup", 1.5);
    let cycles = args.usize("cycles", 10);
    let out_path = args.str("out", "bench_results/BENCH_dataplane.json");
    let kinds: Vec<LearnerKind> = args
        .str("estimators", "lightgbm,xgboost")
        .split(',')
        .filter_map(|name| {
            let name = name.trim();
            match LearnerKind::ALL.iter().find(|k| k.name() == name) {
                Some(k) => Some(*k),
                None => {
                    eprintln!("[dataplane] unknown estimator {name:?}, skipping");
                    None
                }
            }
        })
        .collect();
    let spec = BenchSpec {
        seed: exec.seed,
        budget: args.f64("budget", 50.0),
        max_trials: exec.max_trials.unwrap_or(3),
        estimators: kinds.clone(),
        cycles,
        sampling: args.flag("sampling"),
    };
    let pool = ExecPool::new(1);

    let mut rows: Vec<DatasetRow> = Vec::new();
    for (group, datasets) in default_groups(exec.scale(), per_group) {
        for data in &datasets {
            let Some((off_result, _)) = search_once(data, &spec, false) else {
                continue;
            };
            let Some((on_result, telemetry)) = search_once(data, &spec, true) else {
                continue;
            };
            let off_trace = serde_json::to_string(&off_result.trials).expect("serialize trials");
            let on_trace = serde_json::to_string(&on_result.trials).expect("serialize trials");

            let estimators: Vec<(Estimator, flaml_search::SearchSpace)> = kinds
                .iter()
                .map(|k| {
                    let e = Estimator::Builtin(*k);
                    let space = e.space(data.n_rows());
                    (e, space)
                })
                .collect();
            let roster: Vec<RosterTrial> = on_result
                .trials
                .iter()
                .filter(|t| t.error.is_finite() && !t.config_values.is_empty())
                .filter_map(|t| {
                    let est = kinds.iter().position(|k| k.name() == t.learner)?;
                    Some(RosterTrial {
                        est,
                        config: Config::from(t.config_values.clone()),
                        sample_size: t.sample_size,
                    })
                })
                .collect();
            if roster.is_empty() {
                eprintln!(
                    "[dataplane] {group}/{}: empty roster, skipping",
                    data.name()
                );
                continue;
            }

            let (off_secs, off_losses) = replay(data, &roster, &estimators, &spec, false, &pool);
            let (on_secs, on_losses) = replay(data, &roster, &estimators, &spec, true, &pool);
            let replay_trials = roster.len();
            let row = DatasetRow {
                dataset: data.name().to_string(),
                group: group.to_string(),
                roster_trials: roster.len(),
                trace_identical: off_trace == on_trace,
                replay_losses_identical: off_losses == on_losses,
                prepared_hits: telemetry.prepared_hits,
                prepared_misses: telemetry.prepared_misses,
                prepared_evictions: telemetry.prepared_evictions,
                bytes_copied_saved: telemetry.bytes_copied_saved,
                replay_trials,
                secs_cache_off: off_secs,
                secs_cache_on: on_secs,
                trials_per_sec_off: replay_trials as f64 / off_secs.max(1e-9),
                trials_per_sec_on: replay_trials as f64 / on_secs.max(1e-9),
                speedup: off_secs / on_secs.max(1e-9),
            };
            eprintln!(
                "[dataplane] {group}/{}: {} trials replayed, {:.2}s off / {:.2}s on, {:.2}x, \
                 {} hits / {} misses, trace_identical={} losses_identical={}",
                row.dataset,
                row.replay_trials,
                row.secs_cache_off,
                row.secs_cache_on,
                row.speedup,
                row.prepared_hits,
                row.prepared_misses,
                row.trace_identical,
                row.replay_losses_identical,
            );
            rows.push(row);
        }
    }

    let total_trials: usize = rows.iter().map(|r| r.replay_trials).sum();
    let total_off: f64 = rows.iter().map(|r| r.secs_cache_off).sum();
    let total_on: f64 = rows.iter().map(|r| r.secs_cache_on).sum();
    let geomean = if rows.is_empty() {
        0.0
    } else {
        (rows.iter().map(|r| r.speedup.ln()).sum::<f64>() / rows.len() as f64).exp()
    };
    let pure = rows
        .iter()
        .all(|r| r.trace_identical && r.replay_losses_identical);
    let report = DataplaneReport {
        total_replay_trials: total_trials,
        total_secs_cache_off: total_off,
        total_secs_cache_on: total_on,
        speedup: geomean,
        total_time_speedup: total_off / total_on.max(1e-9),
        min_speedup,
        pass: geomean >= min_speedup && pure && total_trials > 0,
        rows,
    };

    flaml_bench::report::write_json(&out_path, &report).expect("write results json");

    println!(
        "data plane: {total_trials} trials replayed per arm, {:.2} trials/sec without cache, \
         {:.2} trials/sec with cache => {:.2}x geomean speedup (need >= {min_speedup}x)",
        total_trials as f64 / total_off.max(1e-9),
        total_trials as f64 / total_on.max(1e-9),
        report.speedup,
    );
    eprintln!("[dataplane] wrote {out_path}");
    if !pure {
        eprintln!("[dataplane] FAIL: cache-on and cache-off runs diverged");
    }
    if !report.pass {
        std::process::exit(1);
    }
}
