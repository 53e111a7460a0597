//! Shared fixtures for the online integration suites: scratch dirs, a
//! small fast drifting stream, and a config tuned for test speed (one
//! cheap learner, tiny windows, tight trial caps).

#![allow(dead_code)]

use flaml_core::{LearnerKind, Storage};
use flaml_data::{Dataset, Task};
use flaml_online::{OnlineConfig, OnlineRuntime};
use flaml_synth::DriftStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NONCE: AtomicU64 = AtomicU64::new(0);

/// A unique empty scratch directory (removed if it already exists).
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flaml-online-{tag}-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small, fast drifting stream: 60-row chunks, 4 features, a concept
/// shift every 6 chunks.
pub fn stream(seed: u64) -> DriftStream {
    let mut s = DriftStream::new(seed);
    s.rows = 60;
    s.features = 4;
    s.segment_chunks = 6;
    s.margin_noise = 0.15;
    s
}

/// One 60-row, one-feature chunk of the concept `y = x > 0.5` (A), or
/// of its negation (NOT-A) when `flipped`; `idx` varies the rows. A
/// stream that flips to NOT-A and back drives drift, promotion and
/// then a probation rollback or a rejected round.
pub fn flip_chunk(idx: usize, flipped: bool) -> Dataset {
    let rows = 60;
    let x: Vec<f64> = (0..rows)
        .map(|r| ((r * 7919 + idx * 104_729) % 997) as f64 / 997.0)
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|&v| {
            let label = v > 0.5;
            f64::from(if flipped { !label } else { label })
        })
        .collect();
    Dataset::new(format!("flip-{idx}"), Task::Binary, vec![x], y).unwrap()
}

/// A config sized for test speed, matched to [`stream`].
pub fn fast_config(s: &DriftStream) -> OnlineConfig {
    let mut cfg = OnlineConfig::new(Task::Binary, s.features);
    cfg.seed = s.seed;
    cfg.estimators = vec![LearnerKind::Lr];
    cfg.window_chunks = 4;
    cfg.holdout_chunks = 1;
    cfg.warmup_chunks = 2;
    cfg.drift_window = 3;
    cfg.drift_threshold = 0.1;
    cfg.promote_margin = 0.005;
    cfg.probation_chunks = 2;
    cfg.round_budget = 5.0;
    cfg.round_trials = 4;
    cfg
}

/// A runtime over `storage` with `workers` search threads, no registry.
pub fn runtime(storage: Arc<dyn Storage>, workers: usize) -> OnlineRuntime {
    OnlineRuntime {
        storage,
        workers,
        registry: None,
        slot: "online".to_string(),
    }
}
