//! Serving benchmark: compiled-artifact correctness and batched-pool
//! throughput on a fixed roster of fitted models.
//!
//! Per dataset, the roster (GBDT, random forest, linear, stacked — every
//! learner kind the artifact format covers) is fitted once and each model
//! is checked three ways:
//!
//! 1. **Bit-exactness** — the compiled artifact's predictions must equal
//!    the interpreted [`flaml_learners::FittedModel::predict`]
//!    bit-for-bit.
//! 2. **Round trip** — the artifact is saved and reloaded through the
//!    versioned, fingerprinted on-disk format; the reloaded model and its
//!    predictions must be identical.
//! 3. **Batched identity** — batched inference over the exec pool
//!    (`--concurrency` workers, `--batch` rows per chunk) must be
//!    byte-identical to a sequential pass.
//!
//! Throughput then replays batched prediction `--cycles` times per arm
//! after a warmup (the fastest cycle is reported) against a single-thread
//! sequential arm, on a serving-sized request built by tiling the
//! training matrix to `--rows` rows (default 4096 — real services batch
//! many requests over one model); per-cell speedup is
//! `secs_single / secs_batched` and the pass/fail gate is the geometric
//! mean across cells (default `--min-speedup 2`, derated in single-core
//! CI). A hot-swap loop also
//! publishes a stream of versions into a [`flaml_core::ModelRegistry`]
//! under concurrent readers and fails the run if any reader observes a
//! torn or stale-after-promote model.
//!
//! Per-slot serving telemetry (latency p50/p95/p99, rows/sec, batch
//! occupancy) is folded from the
//! [`flaml_exec::TrialEventKind::ServeBatch`] stream and written to
//! `--out` (default `bench_results/BENCH_serve.json`).
//!
//! ```text
//! cargo run -p flaml-bench --release --bin bench_serve -- --concurrency 4
//! ```

use flaml_bench::grid::default_groups;
use flaml_bench::roster::{fastest, fit_roster, pred_bits, tile_dataset};
use flaml_bench::Args;
use flaml_core::{event_channel, BatchEngine, CompiledModel, ExecPool, ModelRegistry};
use flaml_data::Dataset;
use flaml_learners::{FittedModel, Linear, LinearParams};
use serde::Serialize;
use std::sync::Arc;

/// One dataset × learner correctness-plus-throughput measurement.
#[derive(Debug, Clone, Serialize)]
struct ServeRow {
    dataset: String,
    group: String,
    learner: String,
    rows: usize,
    /// Compiled predictions bit-identical to the interpreted model.
    bits_identical: bool,
    /// Artifact save → load round trip preserved the model and its
    /// predictions.
    artifact_round_trip: bool,
    /// Batched pool inference byte-identical to the sequential pass.
    batched_identical: bool,
    /// Fastest sequential (single-thread, whole-matrix) cycle.
    secs_single: f64,
    /// Fastest batched (pool) cycle.
    secs_batched: f64,
    rows_per_sec_single: f64,
    rows_per_sec_batched: f64,
    speedup: f64,
}

/// Per-slot serving latency summary, from [`flaml_core::Telemetry::by_slot`].
#[derive(Debug, Clone, Serialize)]
struct SlotLatency {
    slot: String,
    batches: usize,
    rows: usize,
    p50_secs: f64,
    p95_secs: f64,
    p99_secs: f64,
    rows_per_sec: f64,
    mean_occupancy: f64,
}

/// The full benchmark report written to `bench_results/`.
#[derive(Debug, Clone, Serialize)]
struct ServeReport {
    workers: usize,
    batch_rows: usize,
    rows: Vec<ServeRow>,
    slots: Vec<SlotLatency>,
    /// Whether the concurrent hot-swap loop only ever observed complete,
    /// current models.
    hot_swap_consistent: bool,
    total_rows_served: usize,
    /// Geometric mean of per-row speedups (equal weight); the gate.
    speedup: f64,
    min_speedup: f64,
    pass: bool,
}

/// Publishes a stream of versions under concurrent readers; returns
/// whether every observation was complete (fingerprint matches the
/// published payload) and monotonic (never stale after a promote).
fn hot_swap_check(data: &Dataset, n_versions: u64) -> bool {
    let versions: Vec<CompiledModel> = (0..n_versions)
        .filter_map(|seed| {
            let m: FittedModel = Linear::fit(data, &LinearParams::default(), seed)
                .ok()?
                .into();
            CompiledModel::compile(&m).ok()
        })
        .collect();
    if versions.len() != n_versions as usize {
        return false;
    }
    let expected: Vec<u64> = versions
        .iter()
        .map(|m| flaml_serve::fingerprint(&serde_json::to_string(m).expect("serialize")))
        .collect();
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("live", versions[0].clone());
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let registry = Arc::clone(&registry);
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut last = 0u64;
                while last < expected.len() as u64 {
                    let snap = registry.get("live").expect("slot exists");
                    if snap.version < last
                        || snap.fingerprint != expected[(snap.version - 1) as usize]
                    {
                        return false;
                    }
                    last = snap.version;
                }
                true
            })
        })
        .collect();
    let mut ok = true;
    for v in versions.iter().skip(1) {
        let published = registry.publish("live", v.clone()).version;
        ok &= registry.get("live").expect("slot exists").version >= published;
    }
    for reader in readers {
        ok &= reader.join().unwrap_or(false);
    }
    ok
}

fn main() {
    let args = Args::parse();
    let exec = args.exec();
    let per_group = args.usize("per-group", if exec.full { usize::MAX } else { 2 });
    let min_speedup = args.f64("min-speedup", 2.0);
    let cycles = args.usize("cycles", 10);
    let out_path = args.str("out", "bench_results/BENCH_serve.json");
    let pool = ExecPool::new(exec.concurrency);
    let (sink, rx) = event_channel();

    let mut rows: Vec<ServeRow> = Vec::new();
    let mut exported = exec.artifact.is_none();
    let req_rows = args.usize("rows", 4096);
    for (group, datasets) in default_groups(exec.scale(), per_group) {
        for data in &datasets {
            let request = tile_dataset(data, req_rows);
            let n = request.n_rows();
            for (learner, model) in fit_roster(data, exec.seed) {
                let compiled = match CompiledModel::compile(&model) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("[serve] {group}/{}: {learner}: {e}", data.name());
                        continue;
                    }
                };
                let interpreted = model.predict(&request);
                let bits_identical =
                    pred_bits(&interpreted) == pred_bits(&compiled.predict(&request));

                let path = std::env::temp_dir().join(format!(
                    "bench_serve_{}_{}_{learner}.artifact.json",
                    std::process::id(),
                    data.name()
                ));
                let artifact_round_trip = match compiled.save(&path).and_then(|_| {
                    let loaded = CompiledModel::load(&path)?;
                    Ok(loaded == compiled
                        && pred_bits(&loaded.predict(&request)) == pred_bits(&interpreted))
                }) {
                    Ok(ok) => ok,
                    Err(e) => {
                        eprintln!("[serve] {group}/{}: {learner} round trip: {e}", data.name());
                        false
                    }
                };
                let _ = std::fs::remove_file(&path);
                if !exported {
                    if let Some(out) = &exec.artifact {
                        let saved = exec.artifact_format.save_with(
                            &flaml_core::DiskStorage,
                            out,
                            &compiled,
                        );
                        match saved {
                            Ok(fp) => {
                                eprintln!(
                                    "[serve] exported {learner} on {} to {} as {} (fingerprint \
                                     {fp:#018x})",
                                    data.name(),
                                    out.display(),
                                    exec.artifact_format,
                                );
                                exported = true;
                            }
                            Err(e) => eprintln!("[serve] --artifact export failed: {e}"),
                        }
                    }
                }

                let slot = format!("{group}/{}/{learner}", data.name());
                let engine = BatchEngine::new(&pool, exec.batch).with_sink(sink.clone());
                let batched_identical = pred_bits(&engine.predict(&slot, &compiled, &request))
                    == pred_bits(&interpreted);

                let secs_single = fastest(cycles, || {
                    std::hint::black_box(compiled.predict(&request));
                });
                let secs_batched = fastest(cycles, || {
                    std::hint::black_box(engine.predict(&slot, &compiled, &request));
                });
                let row = ServeRow {
                    dataset: data.name().to_string(),
                    group: group.to_string(),
                    learner: learner.to_string(),
                    rows: n,
                    bits_identical,
                    artifact_round_trip,
                    batched_identical,
                    secs_single,
                    secs_batched,
                    rows_per_sec_single: n as f64 / secs_single.max(1e-9),
                    rows_per_sec_batched: n as f64 / secs_batched.max(1e-9),
                    speedup: secs_single / secs_batched.max(1e-9),
                };
                eprintln!(
                    "[serve] {group}/{}: {learner}: {} rows, {:.0} rows/s single, {:.0} rows/s \
                     batched ({:.2}x), bits={} round_trip={} batched={}",
                    row.dataset,
                    row.rows,
                    row.rows_per_sec_single,
                    row.rows_per_sec_batched,
                    row.speedup,
                    row.bits_identical,
                    row.artifact_round_trip,
                    row.batched_identical,
                );
                rows.push(row);
            }
        }
    }

    let hot_swap_data = Dataset::new(
        "hot-swap",
        flaml_data::Task::Binary,
        vec![(0..200).map(|i| (i % 31) as f64 / 31.0).collect()],
        (0..200).map(|i| f64::from((i % 31) > 15)).collect(),
    )
    .expect("hot-swap dataset");
    let hot_swap_consistent = hot_swap_check(&hot_swap_data, 12);

    let telemetry = flaml_core::Telemetry::new().drain(&rx);
    let slots: Vec<SlotLatency> = telemetry
        .by_slot
        .iter()
        .map(|(slot, s)| SlotLatency {
            slot: slot.clone(),
            batches: s.batches,
            rows: s.rows,
            p50_secs: s.p50(),
            p95_secs: s.p95(),
            p99_secs: s.p99(),
            rows_per_sec: s.throughput(),
            mean_occupancy: s.mean_occupancy(),
        })
        .collect();

    let correct = rows
        .iter()
        .all(|r| r.bits_identical && r.artifact_round_trip && r.batched_identical);
    let geomean = if rows.is_empty() {
        0.0
    } else {
        (rows.iter().map(|r| r.speedup.ln()).sum::<f64>() / rows.len() as f64).exp()
    };
    let report = ServeReport {
        workers: exec.concurrency,
        batch_rows: exec.batch,
        total_rows_served: telemetry.serve_rows,
        hot_swap_consistent,
        speedup: geomean,
        min_speedup,
        pass: correct && hot_swap_consistent && !rows.is_empty() && geomean >= min_speedup,
        rows,
        slots,
    };

    flaml_bench::report::write_json(&out_path, &report).expect("write results json");

    println!(
        "serve: {} model/dataset cells, {} rows served over the pool ({} workers, batch {}), \
         {:.2}x geomean batched speedup (need >= {min_speedup}x), correctness={}, hot_swap={}",
        report.rows.len(),
        report.total_rows_served,
        report.workers,
        report.batch_rows,
        report.speedup,
        correct,
        report.hot_swap_consistent,
    );
    eprintln!("[serve] wrote {out_path}");
    if !correct {
        eprintln!("[serve] FAIL: a compiled, reloaded or batched prediction diverged");
    }
    if !report.hot_swap_consistent {
        eprintln!("[serve] FAIL: a reader observed a torn or stale model");
    }
    if !report.pass {
        std::process::exit(1);
    }
}
