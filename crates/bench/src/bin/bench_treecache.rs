//! Tree-cache benchmark: boosting-continuation throughput with the
//! cross-trial tree cache on vs. off, on an `n_trees`-sweep roster.
//!
//! Two measurements per dataset:
//!
//! 1. **Purity** — the same AutoML search runs on the virtual clock with
//!    the tree cache enabled and disabled; the two trial traces must be
//!    byte-identical (warm continuation is bit-identical to a cold fit by
//!    the [`flaml_learners::Gbdt::fit_continue`] contract — only wall
//!    time and the hit/miss counters may differ).
//! 2. **Throughput** — a fixed roster sweeps `tree_num` upward through
//!    each boosting learner's otherwise-initial configuration, the exact
//!    shape FLOW²'s cheap-to-expensive ordering produces. The cache-on
//!    arm continues each trial from the previous sweep step's prefix and
//!    pays only for the marginal trees; the cache-off arm refits every
//!    tree of every trial from round zero. Each timed cycle starts from a
//!    *cold* tree cache (continuation happens within a cycle, not across
//!    cycles), both arms share a steady-state [`DataPlane`] so binning
//!    cost cancels, and both must produce bit-identical losses.
//!
//! Per-dataset speedup is `secs_off / secs_on` over identical work; the
//! aggregate gate is the geometric mean across datasets (equal dataset
//! weight). The binary exits non-zero when the aggregate falls below
//! `--min-speedup` (default 1.3; CI derates this for shared runners).
//!
//! ```text
//! cargo run -p flaml-bench --release --bin bench_treecache
//! ```

use flaml_bench::grid::default_groups;
use flaml_bench::Args;
use flaml_core::{
    default_virtual_cost, run_trial_prepared, AutoMl, AutoMlResult, DataPlane, Estimator, ExecPool,
    LearnerKind, ResampleChoice, ResampleStrategy, TimeSource, TreeCache, TreeCacheStats, TreeKey,
    TrialBoost,
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
    /// Whether the cache-on and cache-off searches produced byte-identical
    /// trial traces (they must: warm continuation is exact).
    trace_identical: bool,
    /// Tree-cache counters of the cache-on search.
    tree_cache_hits: usize,
    tree_cache_misses: usize,
    trees_saved: usize,
    /// Whether the replayed roster produced bit-identical losses across
    /// the two arms.
    replay_losses_identical: bool,
    /// Trials per timed cycle (the roster size).
    replay_trials: usize,
    /// Trees the cache served per replay cycle instead of refitting.
    replay_trees_saved: usize,
    secs_cache_off: f64,
    secs_cache_on: f64,
    trials_per_sec_off: f64,
    trials_per_sec_on: f64,
    speedup: f64,
}

/// The full benchmark report written to `bench_results/`.
#[derive(Debug, Clone, Serialize)]
struct TreecacheReport {
    rows: Vec<DatasetRow>,
    total_replay_trials: usize,
    total_secs_cache_off: f64,
    total_secs_cache_on: f64,
    /// Geometric mean of per-dataset speedups (equal dataset weight);
    /// the pass/fail gate.
    speedup: f64,
    /// Raw total-time ratio, for reference.
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
    sweep: Vec<usize>,
}

/// One replayable trial of the sweep schedule.
struct RosterTrial {
    est: usize,
    config: Config,
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
        .sampling(false)
        .event_sink(sink)
        .tree_cache(cache);
    match automl.fit(data) {
        Ok(r) => Some((r, Telemetry::new().drain(&events))),
        Err(e) => {
            eprintln!("[treecache] {}: search failed: {e}", data.name());
            None
        }
    }
}

/// The `tree_num` sweep: each boosting learner's initial configuration
/// (seed-invariant: no row or column subsampling) with the tree count
/// stepped upward, interleaved across learners in ascending order — so
/// within one pass every trial is a continuation of the learner's
/// previous step.
fn build_roster(
    data: &Dataset,
    estimators: &[(Estimator, flaml_search::SearchSpace)],
    spec: &BenchSpec,
) -> Vec<RosterTrial> {
    let mut roster = Vec::new();
    for &trees in &spec.sweep {
        if trees > data.n_rows() {
            continue;
        }
        for (i, (_, space)) in estimators.iter().enumerate() {
            let Some(tidx) = space.index_of("tree_num") else {
                continue;
            };
            let mut values = space.init_config().values().to_vec();
            values[tidx] = trees as f64;
            roster.push(RosterTrial {
                est: i,
                config: Config::from(values),
            });
        }
    }
    roster
}

/// Executes the roster `cycles` times (after one untimed warmup cycle
/// that brings the shared data plane to steady state). Each cycle runs
/// against a fresh tree cache — continuation happens *within* a cycle,
/// mirroring one search's trial sequence. Returns the fastest cycle's
/// seconds, the first timed cycle's losses in execution order, and one
/// cycle's tree-cache stats.
fn replay(
    data: &Dataset,
    roster: &[RosterTrial],
    estimators: &[(Estimator, flaml_search::SearchSpace)],
    spec: &BenchSpec,
    cache: bool,
    pool: &ExecPool,
) -> (f64, Vec<u64>, TreeCacheStats) {
    let fingerprint = data.fingerprint();
    let shuffled = data.shuffled_view(spec.seed);
    let strategy = ResampleStrategy::Cv { folds: 5 };
    let metric = Metric::default_for(data.task());
    let sample_size = data.n_rows();
    // Both arms share a warmed data plane: binning cost cancels and the
    // measurement isolates tree building.
    let mut plane = DataPlane::new(shuffled, strategy, true, 256 * 1024 * 1024);
    let run_cycle = |plane: &mut DataPlane, losses: Option<&mut Vec<u64>>| -> TreeCacheStats {
        let mut tree_cache = TreeCache::new(cache, 256 * 1024 * 1024);
        let mut sink = losses;
        for t in roster {
            let (est, space) = &estimators[t.est];
            let max_bin = est.max_bin(&t.config, space);
            let (td, _) = plane.prepare(sample_size, max_bin);
            let boost = match (tree_cache.enabled(), est.boost_params(&t.config, space)) {
                (true, Some(bp)) => {
                    let tidx = space.index_of("tree_num");
                    let mut stats = TreeCacheStats::default();
                    let mut keys = Vec::with_capacity(td.folds.len());
                    let mut warm = Vec::with_capacity(td.folds.len());
                    for fi in 0..td.folds.len() {
                        let key = TreeKey::new(
                            est.name(),
                            t.config.values(),
                            tidx,
                            sample_size,
                            fi,
                            bp.max_bin,
                            fingerprint,
                        );
                        match tree_cache.get(&key) {
                            Some(s) => {
                                stats.tree_cache_hits += 1;
                                stats.trees_saved += s.rounds_done().min(bp.n_trees) * s.n_groups();
                                warm.push(Some(s));
                            }
                            None => {
                                stats.tree_cache_misses += 1;
                                warm.push(None);
                            }
                        }
                        keys.push(key);
                    }
                    tree_cache.observe(stats);
                    Some(TrialBoost {
                        params: bp,
                        keys,
                        warm,
                    })
                }
                _ => None,
            };
            let out = run_trial_prepared(
                &td,
                est,
                &t.config,
                space,
                strategy,
                metric,
                spec.seed,
                None,
                pool,
                boost.as_ref(),
            );
            if let Some(tb) = &boost {
                for (key, state) in tb.keys.iter().zip(&out.fold_states) {
                    if let Some(state) = state {
                        tree_cache.store(key.clone(), state.clone());
                    }
                }
            }
            if let Some(v) = sink.as_mut() {
                v.push(out.error.to_bits());
            }
        }
        tree_cache.totals()
    };
    run_cycle(&mut plane, None); // warmup: the data plane reaches steady state
    let mut losses = Vec::with_capacity(roster.len());
    let mut stats = TreeCacheStats::default();
    let mut best = f64::INFINITY;
    for cycle in 0..spec.cycles {
        let started = Instant::now();
        let cycle_stats = run_cycle(
            &mut plane,
            if cycle == 0 { Some(&mut losses) } else { None },
        );
        best = best.min(started.elapsed().as_secs_f64());
        if cycle == 0 {
            stats = cycle_stats;
        }
    }
    (best, losses, stats)
}

fn main() {
    let args = Args::parse();
    let exec = args.exec();
    let per_group = args.usize("per-group", if exec.full { usize::MAX } else { 2 });
    let min_speedup = args.f64("min-speedup", 1.3);
    let cycles = args.usize("cycles", 5);
    let out_path = args.str("out", "bench_results/BENCH_treecache.json");
    let kinds: Vec<LearnerKind> = args
        .str("estimators", "lightgbm,xgboost")
        .split(',')
        .filter_map(|name| {
            let name = name.trim();
            match LearnerKind::ALL.iter().find(|k| k.name() == name) {
                Some(k) => Some(*k),
                None => {
                    eprintln!("[treecache] unknown estimator {name:?}, skipping");
                    None
                }
            }
        })
        .collect();
    let sweep: Vec<usize> = args
        .str("sweep", "4,8,16,32,64")
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect();
    let spec = BenchSpec {
        seed: exec.seed,
        budget: args.f64("budget", 50.0),
        max_trials: exec.max_trials.unwrap_or(8),
        estimators: kinds.clone(),
        cycles,
        sweep,
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
            let roster = build_roster(data, &estimators, &spec);
            if roster.is_empty() {
                eprintln!(
                    "[treecache] {group}/{}: empty roster, skipping",
                    data.name()
                );
                continue;
            }

            let (off_secs, off_losses, _) = replay(data, &roster, &estimators, &spec, false, &pool);
            let (on_secs, on_losses, replay_stats) =
                replay(data, &roster, &estimators, &spec, true, &pool);
            let replay_trials = roster.len();
            let row = DatasetRow {
                dataset: data.name().to_string(),
                group: group.to_string(),
                trace_identical: off_trace == on_trace,
                tree_cache_hits: telemetry.tree_cache_hits,
                tree_cache_misses: telemetry.tree_cache_misses,
                trees_saved: telemetry.trees_saved,
                replay_losses_identical: off_losses == on_losses,
                replay_trials,
                replay_trees_saved: replay_stats.trees_saved,
                secs_cache_off: off_secs,
                secs_cache_on: on_secs,
                trials_per_sec_off: replay_trials as f64 / off_secs.max(1e-9),
                trials_per_sec_on: replay_trials as f64 / on_secs.max(1e-9),
                speedup: off_secs / on_secs.max(1e-9),
            };
            eprintln!(
                "[treecache] {group}/{}: {} trials replayed, {:.3}s off / {:.3}s on, {:.2}x, \
                 {} trees saved/cycle, trace_identical={} losses_identical={}",
                row.dataset,
                row.replay_trials,
                row.secs_cache_off,
                row.secs_cache_on,
                row.speedup,
                row.replay_trees_saved,
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
    let report = TreecacheReport {
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
        "tree cache: {total_trials} trials replayed per arm, {:.2} trials/sec without cache, \
         {:.2} trials/sec with cache => {:.2}x geomean speedup (need >= {min_speedup}x)",
        total_trials as f64 / total_off.max(1e-9),
        total_trials as f64 / total_on.max(1e-9),
        report.speedup,
    );
    eprintln!("[treecache] wrote {out_path}");
    if !pure {
        eprintln!("[treecache] FAIL: cache-on and cache-off runs diverged");
    }
    if !report.pass {
        std::process::exit(1);
    }
}
