//! Cross-process page sharing: two processes mapping the same blob share
//! its physical pages instead of holding a copy each.
//!
//! The test re-runs its own binary twice as a probe. The first probe
//! (the holder) maps the blob, touches every page, reports, and keeps the
//! mapping alive until its stdin closes; the second maps the same file
//! while the holder still holds it. Each resident page then counts half
//! to each process, so the second mapper's `/proc/self/smaps` must read
//! `Pss` well under `Rss` for the mapping.

#![cfg(target_os = "linux")]

use flaml_blob::{save_blob, BlobModel, BlobOptions};
use flaml_data::{Dataset, Task};
use flaml_learners::{FittedModel, Forest, ForestParams};
use flaml_serve::CompiledModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Command, Stdio};

/// This test's name: the probes re-run exactly it.
const TEST_NAME: &str = "two_mappers_share_a_blobs_pages";
/// Set on a probe run: the blob to map.
const PROBE_BLOB: &str = "FLAML_PAGE_SHARE_PROBE_BLOB";
/// Set on the holder: keep the mapping until stdin closes.
const PROBE_HOLD: &str = "FLAML_PAGE_SHARE_PROBE_HOLD";
/// Prefix of the one line a probe reports.
const REPORT: &str = "page-probe ";

/// A forest grown to purity on noisy labels: a blob of a few hundred
/// kB, so the mapping spans many pages.
fn big_model() -> CompiledModel {
    let mut rng = StdRng::seed_from_u64(3);
    let n = 1000;
    let cols: Vec<Vec<f64>> = (0..6)
        .map(|_| (0..n).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let y: Vec<f64> = (0..n)
        .map(|i| f64::from((cols[0][i] + cols[1][i] > 1.0) != (rng.gen::<f64>() < 0.3)))
        .collect();
    let data = Dataset::new("page-share", Task::Binary, cols, y).unwrap();
    let params = ForestParams {
        n_trees: 20,
        ..ForestParams::default()
    };
    let model: FittedModel = Forest::fit(&data, &params, 3).unwrap().into();
    CompiledModel::compile(&model).unwrap()
}

/// Sums `Rss:` / `Pss:` in kB over every `/proc/self/smaps` block whose
/// header line names `path`.
fn smaps_kb(path: &str) -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
    let kb = |v: &str| -> u64 {
        let n = v.split_whitespace().next().expect("a kB value");
        n.parse().expect("kB value parses")
    };
    let (mut rss, mut pss, mut in_block) = (0, 0, false);
    for line in text.lines() {
        if line.contains(path) {
            in_block = true;
        } else if in_block {
            if let Some(v) = line.strip_prefix("Rss:") {
                rss += kb(v);
            } else if let Some(v) = line.strip_prefix("Pss:") {
                pss += kb(v);
            } else if line.starts_with("VmFlags:") {
                in_block = false;
            }
        }
    }
    (rss, pss)
}

/// The probe side: map the blob, touch every page, report one line, and
/// under [`PROBE_HOLD`] keep the mapping until stdin closes.
fn probe(path: &str) {
    let blob = BlobModel::open(path).expect("probe: open blob");
    // Copying the slabs out reads every page of the mapping.
    std::hint::black_box(blob.to_compiled());
    let (rss_kb, pss_kb) = smaps_kb(path);
    println!(
        "{REPORT}is_mmap={} rss_kb={rss_kb} pss_kb={pss_kb}",
        blob.is_mmap()
    );
    std::io::stdout().flush().expect("flush the report");
    if std::env::var_os(PROBE_HOLD).is_some() {
        let mut line = String::new();
        let _ = std::io::stdin().read_line(&mut line);
    }
}

/// This test binary, re-run as a probe of `blob`.
fn probe_command(blob: &Path) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("test binary path"));
    cmd.args([TEST_NAME, "--exact", "--nocapture", "--test-threads", "1"])
        .env(PROBE_BLOB, blob)
        .stdout(Stdio::piped());
    cmd
}

/// `(is_mmap, rss_kb, pss_kb)` from a probe's stdout.
fn parse_report(output: &str) -> (bool, u64, u64) {
    let line = output
        .lines()
        .find_map(|l| l.split_once(REPORT).map(|(_, rest)| rest))
        .unwrap_or_else(|| panic!("no probe report in {output:?}"));
    let field = |key: &str| {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .unwrap_or_else(|| panic!("no {key} in {line:?}"))
    };
    (
        field("is_mmap") == "true",
        field("rss_kb").parse().expect("rss_kb"),
        field("pss_kb").parse().expect("pss_kb"),
    )
}

#[test]
fn two_mappers_share_a_blobs_pages() {
    if let Ok(path) = std::env::var(PROBE_BLOB) {
        probe(&path);
        return;
    }
    let dir = std::env::temp_dir().join(format!("flaml_blob_page_share_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shared.artifact.blob");
    save_blob(&big_model(), &path, BlobOptions::tuned()).expect("save blob");

    let mut holder = probe_command(&path)
        .env(PROBE_HOLD, "1")
        .stdin(Stdio::piped())
        .spawn()
        .expect("spawn the holder");
    // The holder's report is the barrier: its mapping is resident.
    let mut held = BufReader::new(holder.stdout.take().expect("holder stdout"));
    let mut holder_out = String::new();
    while !holder_out.contains(REPORT) {
        let read = held.read_line(&mut holder_out).expect("read the holder");
        assert!(read > 0, "holder exited before reporting: {holder_out:?}");
    }
    let second = probe_command(&path)
        .output()
        .expect("run the second mapper");
    drop(holder.stdin.take()); // releases the holder
    held.read_to_string(&mut holder_out)
        .expect("drain the holder");
    assert!(
        holder.wait().expect("holder exit").success(),
        "{holder_out}"
    );
    assert!(second.status.success(), "second mapper failed");
    std::fs::remove_dir_all(&dir).ok();

    let (holder_mapped, holder_rss, _) = parse_report(&holder_out);
    let (mapped, rss_kb, pss_kb) = parse_report(&String::from_utf8_lossy(&second.stdout));
    assert!(holder_mapped && mapped, "both probes must map the file");
    assert!(holder_rss > 0 && rss_kb > 0, "the mapping must be resident");
    // Fully shared between two mappers is Pss = Rss / 2 up to per-page
    // rounding; 0.7 leaves room for it.
    assert!(
        pss_kb * 10 <= rss_kb * 7,
        "second mapper: Rss {rss_kb} kB, Pss {pss_kb} kB — the pages are not shared"
    );
}
