//! Where a run keeps its files: everything lives under `runs/` in this
//! crate's directory (gitignored), never outside the checkout.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NONCE: AtomicU64 = AtomicU64::new(0);

/// `crates/perf/runs/`, the only directory the benchmark writes to.
pub fn runs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("runs")
}

/// A fresh, empty directory under [`runs_dir`], unique to this process
/// and call.
///
/// # Panics
///
/// Panics if the directory cannot be created: nothing can run then.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = runs_dir().join(format!(
        "state-{}-{}-{tag}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create state directory under crates/perf/runs");
    dir
}
