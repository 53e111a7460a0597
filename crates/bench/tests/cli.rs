//! The execution flags the figure binaries share, end to end through
//! `fig5_scores` on its smallest virtual-clock grid (one dataset per
//! group, one 0.3 s budget): the results JSON is byte-identical at any
//! `--jobs`, after a `--max-trials` kill and a `--resume`, and under
//! `--chaos`; every journal a run writes replays exactly through
//! `journal_tool verify-replay`.

use flaml_bench::GridResult;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flaml_bench_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `fig5_scores` on the smallest grid with `flags`, writing
/// `dir/<name>.json`, and returns that results JSON.
fn fig5(dir: &Path, name: &str, flags: &[&str]) -> String {
    let out = dir.join(format!("{name}.json"));
    let run = Command::new(env!("CARGO_BIN_EXE_fig5_scores"))
        .args(["--virtual", "--budgets", "0.3", "--per-group", "1"])
        .args(["--rf-budget", "0.3"])
        .args(flags)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run fig5_scores");
    assert!(
        run.status.success(),
        "fig5_scores {flags:?} failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    std::fs::read_to_string(&out).expect("fig5_scores wrote its results")
}

#[test]
fn the_job_count_does_not_change_the_results() {
    let dir = scratch("jobs");
    assert_eq!(
        fig5(&dir, "jobs4", &["--jobs", "4"]),
        fig5(&dir, "jobs1", &["--jobs", "1"])
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_grid_killed_at_trial_three_resumes_to_the_uninterrupted_results() {
    let dir = scratch("resume");
    let journals = dir.join("journals");
    let journals = journals.to_str().expect("a UTF-8 temp path");
    let uninterrupted = fig5(&dir, "full", &["--jobs", "1"]);
    let partial = fig5(
        &dir,
        "partial",
        &["--jobs", "1", "--max-trials", "3", "--journal", journals],
    );
    assert_ne!(partial, uninterrupted, "--max-trials 3 must cut the runs");
    let resumed = fig5(
        &dir,
        "resumed",
        &["--jobs", "1", "--journal", journals, "--resume"],
    );
    assert_eq!(resumed, uninterrupted);

    let mut replayed = 0;
    for entry in std::fs::read_dir(journals).unwrap() {
        let path = entry.unwrap().path();
        let run = Command::new(env!("CARGO_BIN_EXE_journal_tool"))
            .arg("verify-replay")
            .arg(&path)
            .output()
            .expect("run journal_tool");
        assert!(
            run.status.success(),
            "verify-replay {} failed: {}{}",
            path.display(),
            String::from_utf8_lossy(&run.stdout),
            String::from_utf8_lossy(&run.stderr)
        );
        replayed += 1;
    }
    assert!(replayed > 0, "the grid wrote no journals");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_results_do_not_depend_on_the_job_count() {
    let dir = scratch("chaos");
    let chaos = ["--chaos", "7:0.25"];
    let parallel = fig5(&dir, "chaos4", &[&["--jobs", "4"][..], &chaos].concat());
    let sequential = fig5(&dir, "chaos1", &[&["--jobs", "1"][..], &chaos].concat());
    assert_eq!(parallel, sequential);
    let results: Vec<GridResult> = serde_json::from_str(&parallel).unwrap();
    assert!(
        results.iter().any(|r| r.n_retries > 0),
        "rate 0.25 injected no fault"
    );
    std::fs::remove_dir_all(&dir).ok();
}
