//! Online AutoML benchmark: a champion–challenger [`flaml_online`]
//! session on a drifting synthetic stream versus a **static** champion
//! that is trained once and never retrained.
//!
//! The stream is piecewise-stationary ([`flaml_synth::DriftStream`]):
//! the concept shifts every `--drift-at` chunks, so a model fitted on
//! one segment degrades measurably on the next. Both arms are scored
//! prequentially — on every chunk *before* anything trains on it:
//!
//! * **online** — the session's serving champion at the moment the
//!   chunk arrives (drift fires challenger rounds; promotions swap the
//!   champion mid-stream);
//! * **static** — a frozen copy of the first champion (the warmup
//!   round's winner), exactly what a deploy-once pipeline would serve.
//!
//! Both arms start from the same warmup model, so every difference is
//! attributable to adaptation. Arms are compared on **prequential
//! error rate** (the streaming-classification standard): it is bounded
//! in `[0, 1]`, so the one or two post-shift chunks where the adapted
//! champion is confidently wrong cannot dominate the mean the way an
//! unbounded log-loss spike would, while a champion stuck on a stale
//! concept pays on every chunk of every later segment. The session
//! itself still detects drift and judges promotions on its own
//! configured loss (log-loss here).
//!
//! The pass/fail gate is relative regret: the online arm's mean error
//! must be at least `--min-gain` (fractionally) below the static
//! arm's, and the run must actually exercise the machinery (a drift
//! event and a post-warmup promotion). Per-chunk losses and promotion
//! counters land in `--out` (default `bench_results/BENCH_online.json`).
//!
//! ```text
//! cargo run -p flaml-bench --release --bin bench_online -- --chunks 24
//! ```

use flaml_bench::Args;
use flaml_core::CompiledModel;
use flaml_data::Dataset;
use flaml_metrics::Metric;
use flaml_online::{OnlineConfig, OnlineRuntime, OnlineSession};
use flaml_synth::DriftStream;
use serde::Serialize;

/// One prequentially scored chunk (both arms had a model).
#[derive(Debug, Clone, Serialize)]
struct ChunkRow {
    chunk: usize,
    segment: usize,
    online_loss: f64,
    static_loss: f64,
    era: u64,
}

/// The full benchmark report written to `bench_results/`.
#[derive(Debug, Clone, Serialize)]
struct OnlineReport {
    seed: u64,
    chunks: usize,
    chunk_rows: usize,
    drift_at: usize,
    promote_margin: f64,
    /// Metric both arms are compared on (prequential error rate).
    metric: String,
    /// Loss the session itself optimizes and detects drift on.
    session_metric: String,
    rows: Vec<ChunkRow>,
    /// Chunks scored for both arms (post-warmup).
    scored_chunks: usize,
    online_mean_loss: f64,
    static_mean_loss: f64,
    /// Fractional improvement of online over static mean loss.
    gain: f64,
    drift_events: usize,
    promotions: usize,
    rejections: usize,
    rollbacks: usize,
    final_era: u64,
    min_gain: f64,
    pass: bool,
}

fn eval(metric: Metric, model: &CompiledModel, data: &Dataset) -> f64 {
    metric
        .loss(&model.predict(data.view()), data.target())
        .unwrap_or(f64::INFINITY)
}

fn main() {
    let args = Args::parse();
    let exec = args.exec();
    let min_gain = args.f64("min-gain", 0.05);
    let out_path = args.str("out", "bench_results/BENCH_online.json");

    let mut stream = DriftStream::new(exec.seed);
    stream.rows = exec.chunk_rows;
    stream.segment_chunks = exec.drift_at;
    stream.features = 4;
    stream.margin_noise = 0.15;

    let mut cfg = OnlineConfig::new(flaml_data::Task::Binary, stream.features);
    cfg.seed = exec.seed;
    cfg.promote_margin = exec.promote_margin;
    // A window tight enough that by the time drift is confirmed the
    // training window is dominated by post-shift chunks — otherwise the
    // challenger learns a blend of both concepts and loses its holdout.
    cfg.window_chunks = 4;
    cfg.holdout_chunks = 1;
    cfg.warmup_chunks = 2;
    // A short drift window confirms a shift one or two chunks in, while
    // the training window still has room for post-shift data.
    cfg.drift_window = 2;
    cfg.drift_threshold = 0.1;
    // Backstop, not pre-emptor: longer than the 2×drift_window run-up
    // the detector needs, so drift still fires first after a shift, but
    // a drift round that trained on a blended window and got rejected
    // (re-anchoring the detector on the degraded plateau) is followed
    // by a clean all-fresh retrain one refresh later.
    cfg.refresh_every = 2 * cfg.window_chunks;
    if let Some(trials) = exec.max_trials {
        cfg.round_trials = trials.max(1);
    }
    // The session's internal loss (drift test, holdout, probation).
    let session_metric = cfg.resolved_metric();
    // The benchmark's regret metric: prequential error rate.
    let metric = Metric::Accuracy;

    let state_dir =
        std::env::temp_dir().join(format!("bench_online_{}_{}", std::process::id(), exec.seed));
    let _ = std::fs::remove_dir_all(&state_dir);
    let runtime = OnlineRuntime {
        workers: exec.jobs.max(1),
        ..OnlineRuntime::local()
    };
    let mut session =
        OnlineSession::create(&state_dir, cfg, runtime).expect("online session creates");

    // Prequential loop: score the serving champion (and the frozen
    // static champion) on each chunk BEFORE pushing it — the same
    // test-then-train order the session itself journals.
    let mut static_model: Option<CompiledModel> = None;
    let mut rows: Vec<ChunkRow> = Vec::new();
    for i in 0..exec.chunks {
        let data = stream.chunk(i);
        if let (Some(champion), Some(frozen)) = (session.champion_model(), static_model.as_ref()) {
            let row = ChunkRow {
                chunk: i,
                segment: stream.segment_of(i),
                online_loss: eval(metric, champion, &data),
                static_loss: eval(metric, frozen, &data),
                era: session.status().era,
            };
            eprintln!(
                "[online] chunk {:>3} (segment {}): online {:.4} static {:.4} era {}",
                row.chunk, row.segment, row.online_loss, row.static_loss, row.era
            );
            rows.push(row);
        }
        let outcome = session.push_chunk(&data).expect("chunk ingestion");
        if let flaml_online::ChunkOutcome::Processed {
            champion_loss: Some(l),
            ..
        } = &outcome
        {
            eprintln!(
                "[online] chunk {i:>3}: session {} {l:.4}",
                session_metric.name()
            );
        }
        if let flaml_online::ChunkOutcome::Processed {
            round: Some(r),
            rolled_back,
            ..
        } = &outcome
        {
            eprintln!(
                "[online] chunk {i:>3}: round {} ({}) challenger {:.4} vs champion {:.4} -> {}{}",
                r.round,
                r.reason,
                r.challenger_loss,
                r.champion_loss,
                if r.promoted { "promoted" } else { "rejected" },
                if *rolled_back {
                    " (after rollback)"
                } else {
                    ""
                },
            );
        }
        if static_model.is_none() {
            // The warmup round just promoted the first champion: freeze
            // a copy as the never-retrained arm.
            static_model = session.champion_model().cloned();
        }
    }

    let status = session.status();
    let n = rows.len();
    let mean = |f: fn(&ChunkRow) -> f64| {
        if n == 0 {
            f64::INFINITY
        } else {
            rows.iter().map(f).sum::<f64>() / n as f64
        }
    };
    let online_mean = mean(|r| r.online_loss);
    let static_mean = mean(|r| r.static_loss);
    let gain = if static_mean > 0.0 && static_mean.is_finite() {
        1.0 - online_mean / static_mean
    } else {
        0.0
    };
    let exercised = status.drift_events >= 1 && status.promotions >= 2;
    let report = OnlineReport {
        seed: exec.seed,
        chunks: exec.chunks,
        chunk_rows: exec.chunk_rows,
        drift_at: exec.drift_at,
        promote_margin: exec.promote_margin,
        metric: metric.name().to_string(),
        session_metric: session_metric.name().to_string(),
        scored_chunks: n,
        online_mean_loss: online_mean,
        static_mean_loss: static_mean,
        gain,
        drift_events: status.drift_events,
        promotions: status.promotions,
        rejections: status.rejections,
        rollbacks: status.rollbacks,
        final_era: status.era,
        min_gain,
        pass: n > 0 && exercised && online_mean.is_finite() && gain >= min_gain,
        rows,
    };

    flaml_bench::report::write_json(&out_path, &report).expect("write results json");
    let _ = std::fs::remove_dir_all(&state_dir);

    println!(
        "online: {} chunks ({} scored), prequential error {:.4} online vs {:.4} static \
         ({:+.1}% gain, need >= {:.1}%), {} drift, {} promotions, {} rollbacks, era {}",
        report.chunks,
        report.scored_chunks,
        report.online_mean_loss,
        report.static_mean_loss,
        report.gain * 100.0,
        report.min_gain * 100.0,
        report.drift_events,
        report.promotions,
        report.rollbacks,
        report.final_era,
    );
    eprintln!("[online] wrote {out_path}");
    if !exercised {
        eprintln!(
            "[online] FAIL: stream too quiet (drift {}, promotions {}) — \
             nothing to benchmark",
            report.drift_events, report.promotions
        );
    }
    if !report.pass {
        std::process::exit(1);
    }
}
