//! The execution flags the figure binaries share, end to end through
//! `fig5_scores` on its smallest virtual-clock grid (one dataset per
//! group, one 0.3 s budget): the results JSON is byte-identical at any
//! `--jobs`, after a `--max-trials` kill and a `--resume`, and under
//! `--chaos`; every journal a run writes — the baselines' too — replays
//! exactly through `journal_tool verify-replay`, which refuses a header
//! naming a proposer or resampling choice it does not know.

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

/// Runs `journal_tool verify-replay` on the journal at `path`.
fn verify_replay(path: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_journal_tool"))
        .arg("verify-replay")
        .arg(path)
        .output()
        .expect("run journal_tool")
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

    let mut replayed = Vec::new();
    for entry in std::fs::read_dir(journals).unwrap() {
        let path = entry.unwrap().path();
        let run = verify_replay(&path);
        assert!(
            run.status.success(),
            "verify-replay {} failed: {}{}",
            path.display(),
            String::from_utf8_lossy(&run.stdout),
            String::from_utf8_lossy(&run.stderr)
        );
        let header = flaml_core::Journal::read(&path).unwrap().header;
        replayed.push(header.learner_selection);
    }
    // Every method of the comparative study journals its cell.
    replayed.sort();
    replayed.dedup();
    assert_eq!(replayed, ["bo", "bohb", "eci", "hyperband", "random"]);
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

#[test]
fn verify_replay_refuses_a_header_name_it_does_not_know() {
    let dir = scratch("names");
    let journals = dir.join("journals");
    fig5(
        &dir,
        "cut",
        &[
            "--jobs",
            "1",
            "--max-trials",
            "2",
            "--journal",
            journals.to_str().expect("a UTF-8 temp path"),
        ],
    );
    let bohb = std::fs::read_dir(&journals)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .find(|path| path.to_string_lossy().contains("_bohb_"))
        .expect("the grid journals its BOHB cell");
    let text = std::fs::read_to_string(&bohb).unwrap();
    assert!(verify_replay(&bohb).status.success());
    for (field, known) in [("learner_selection", "bohb"), ("resample", "auto")] {
        let from = format!("\"{field}\":\"{known}\"");
        assert!(text.contains(&from), "{from} not in the header");
        let tampered = dir.join(format!("{field}.jsonl"));
        let to = format!("\"{field}\":\"nope\"");
        std::fs::write(&tampered, text.replacen(&from, &to, 1)).unwrap();
        let run = verify_replay(&tampered);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "{field} \"nope\" verified");
        assert!(
            stderr.contains("\"nope\" in header"),
            "{field}: no unknown-name refusal in {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
