//! The determinism contract of the promotion trace: byte-identical
//! journals across worker counts, across kill-and-reopen at every chunk
//! boundary, and across crashpoint sweeps that kill the session at
//! every mutating storage op (mirroring the server's durability suite)
//! on four streams: a drift promotion, a probation rollback, a rejected
//! drift round with its armed retry, and a rollback on a chunk where a
//! scheduled round is due. Every recovered session must also report the
//! uninterrupted session's `status()`. A committed stream directory with
//! a categorical column, written by an earlier build, must match what
//! this build writes and reopen.

mod common;

use common::{fast_config, flip_chunk, runtime, scratch, stream};
use flaml_core::{
    AutoMlError, ChaosStorage, DiskStorage, IoFaultPlan, Journal, LearnerKind, Storage,
    StorageError, StorageFile,
};
use flaml_data::{Dataset, FeatureKind, Task};
use flaml_online::{kind, LogError, OnlineConfig, OnlineError, OnlineSession, StreamStatus};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const CHUNKS: usize = 12;

/// One uninterrupted run of `chunks` on the real disk: the status
/// after each prefix (`statuses[i]` after `i` chunks) and the final
/// journal.
struct Reference {
    statuses: Vec<StreamStatus>,
    journal: String,
}

fn uninterrupted(dir: &Path, cfg: &OnlineConfig, workers: usize, chunks: &[Dataset]) -> Reference {
    let mut session =
        OnlineSession::create(dir, cfg.clone(), runtime(flaml_core::disk(), workers)).unwrap();
    let mut statuses = vec![session.status()];
    for chunk in chunks {
        session.push_chunk(chunk).unwrap();
        statuses.push(session.status());
    }
    let journal = String::from_utf8(session.journal_bytes().unwrap()).unwrap();
    Reference { statuses, journal }
}

/// The first `n` chunks of the standard test stream.
fn standard_chunks(n: usize) -> Vec<Dataset> {
    let s = stream(11);
    (0..n).map(|i| s.chunk(i)).collect()
}

/// Pushes chunks `0..n` of the standard test stream into a fresh
/// session at `dir`.
fn run_reference(dir: &Path, workers: usize, n: usize) -> Reference {
    let reference = uninterrupted(dir, &fast_config(&stream(11)), workers, &standard_chunks(n));
    let status = reference.statuses.last().unwrap();
    assert!(
        status.promotions >= 2 && status.drift_events >= 1,
        "reference run too quiet to be a meaningful gate: {status:?}"
    );
    reference
}

#[test]
fn trace_is_byte_identical_across_worker_counts() {
    let dir1 = scratch("workers1");
    let dir4 = scratch("workers4");
    let one = run_reference(&dir1, 1, CHUNKS).journal;
    let four = run_reference(&dir4, 4, CHUNKS).journal;
    assert_eq!(
        one, four,
        "promotion trace depends on worker count — virtual clock broken"
    );

    // The challenger search journals are deterministic too.
    for entry in std::fs::read_dir(dir1.join("rounds")).unwrap() {
        let name = entry.unwrap().file_name();
        let a = Journal::read(dir1.join("rounds").join(&name))
            .unwrap()
            .canonical_bytes();
        let b = Journal::read(dir4.join("rounds").join(&name))
            .unwrap()
            .canonical_bytes();
        assert_eq!(a, b, "round journal {name:?} diverged across workers");
    }
}

#[test]
fn reopen_between_every_chunk_matches_uninterrupted() {
    let reference = run_reference(&scratch("reopen_ref"), 1, CHUNKS);

    let dir = scratch("reopen");
    let s = stream(11);
    let cfg = fast_config(&s);
    drop(OnlineSession::create(&dir, cfg, runtime(flaml_core::disk(), 1)).unwrap());
    for i in 0..CHUNKS {
        // A brand-new process per chunk: open, push, drop.
        let mut session = OnlineSession::open(&dir, runtime(flaml_core::disk(), 1)).unwrap();
        assert_eq!(session.status().chunks, i, "reopen lost or invented chunks");
        assert_eq!(
            session.status(),
            reference.statuses[i],
            "reopen before chunk {i}"
        );
        session.push_chunk(&s.chunk(i)).unwrap();
        assert_eq!(
            session.status(),
            reference.statuses[i + 1],
            "push of chunk {i}"
        );
    }
    let session = OnlineSession::open(&dir, runtime(flaml_core::disk(), 1)).unwrap();
    assert_eq!(session.status(), reference.statuses[CHUNKS]);
    assert_eq!(
        String::from_utf8(session.journal_bytes().unwrap()).unwrap(),
        reference.journal,
        "reopening between chunks changed the trace"
    );
}

/// The real disk, except that every read of round 1's search journal
/// fails — the read round 2's warm start makes.
#[derive(Debug, Default)]
struct RoundOneUnreadable {
    refused: AtomicUsize,
}

impl Storage for RoundOneUnreadable {
    fn create(&self, path: &Path) -> Result<Box<dyn StorageFile>, StorageError> {
        DiskStorage.create(path)
    }
    fn append(&self, path: &Path) -> Result<Box<dyn StorageFile>, StorageError> {
        DiskStorage.append(path)
    }
    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        if path.ends_with("rounds/round_0001.jsonl") {
            self.refused.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::Io {
                op: "read",
                path: path.to_path_buf(),
                source: std::io::Error::other("injected read failure"),
            });
        }
        DiskStorage.read(path)
    }
    fn file_len(&self, path: &Path) -> Result<u64, StorageError> {
        DiskStorage.file_len(path)
    }
    fn truncate_file(&self, path: &Path, len: u64) -> Result<(), StorageError> {
        DiskStorage.truncate_file(path, len)
    }
    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError> {
        DiskStorage.rename(from, to)
    }
    fn remove(&self, path: &Path) -> Result<(), StorageError> {
        DiskStorage.remove(path)
    }
    fn create_dir_all(&self, dir: &Path) -> Result<(), StorageError> {
        DiskStorage.create_dir_all(dir)
    }
    fn sync_dir(&self, dir: &Path) -> Result<(), StorageError> {
        DiskStorage.sync_dir(dir)
    }
    fn scan(&self, dir: &Path) -> Result<Vec<PathBuf>, StorageError> {
        DiskStorage.scan(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        DiskStorage.exists(path)
    }
    fn is_dir(&self, path: &Path) -> bool {
        DiskStorage.is_dir(path)
    }
}

#[test]
fn a_failed_warm_start_read_wedges_the_session_and_reopen_resumes_exactly() {
    let reference = run_reference(&scratch("warm_ref"), 1, CHUNKS).journal;

    // Round 2 warm-starts from round 1's journal through the stream's
    // storage; when that read fails, the push fails and wedges the
    // session instead of running the round cold.
    let dir = scratch("warm_fail");
    let s = stream(11);
    let storage = Arc::new(RoundOneUnreadable::default());
    let mut session = OnlineSession::create(
        &dir,
        fast_config(&s),
        runtime(Arc::clone(&storage) as Arc<dyn Storage>, 1),
    )
    .unwrap();
    let (failed_at, err) = (0..CHUNKS)
        .find_map(|i| session.push_chunk(&s.chunk(i)).err().map(|e| (i, e)))
        .expect("round 2's warm start must read round 1's journal through the storage");
    assert!(
        matches!(err, OnlineError::AutoMl(AutoMlError::Journal(_))),
        "chunk {failed_at}: {err}"
    );
    assert_eq!(storage.refused.load(Ordering::Relaxed), 1);
    assert_eq!(session.status().rounds, 2, "the failure is round 2's");
    assert!(session.is_wedged());
    drop(session);

    // Reopening on the plain disk finishes the interrupted chunk, and
    // the rest of the stream lands on the uninterrupted trace.
    let mut session = OnlineSession::open(&dir, runtime(flaml_core::disk(), 1)).unwrap();
    assert_eq!(session.status().chunks, failed_at + 1);
    for i in failed_at + 1..CHUNKS {
        session.push_chunk(&s.chunk(i)).unwrap();
    }
    assert_eq!(
        String::from_utf8(session.journal_bytes().unwrap()).unwrap(),
        reference,
        "a failed warm-start read changed the promotion trace"
    );
}

/// Kills a fresh session of `cfg` at every mutating storage op the
/// lifecycle of `chunks` issues, recovers on the real disk (open, or
/// recreate if the crash preceded the durable header), pushes whatever
/// is missing, and requires the uninterrupted run's journal bytes and
/// `status()` after every recovered prefix. Returns the uninterrupted
/// run and its mutating-op count.
fn crash_sweep(tag: &str, cfg: &OnlineConfig, chunks: &[Dataset]) -> (Reference, u64) {
    let reference = uninterrupted(&scratch(&format!("{tag}_ref")), cfg, 1, chunks);
    let chaos_session = |dir: &Path, chaos: &Arc<ChaosStorage>| {
        OnlineSession::create(
            dir,
            cfg.clone(),
            runtime(Arc::clone(chaos) as Arc<dyn Storage>, 1),
        )
    };

    // Fault-free chaos run: count every mutating storage op the stream
    // lifecycle issues.
    let total = {
        let chaos = Arc::new(ChaosStorage::new(flaml_core::disk(), IoFaultPlan::new(1)));
        let mut session = chaos_session(&scratch(&format!("{tag}_count")), &chaos).unwrap();
        for chunk in chunks {
            session.push_chunk(chunk).unwrap();
        }
        assert_eq!(
            String::from_utf8(session.journal_bytes().unwrap()).unwrap(),
            reference.journal
        );
        chaos.ops_issued()
    };

    for k in 0..total {
        let dir = scratch(&format!("{tag}_{k}"));
        let chaos = Arc::new(ChaosStorage::new(
            flaml_core::disk(),
            IoFaultPlan::new(1).crash_at(k),
        ));
        let crashed = (|| -> Result<(), OnlineError> {
            let mut session = chaos_session(&dir, &chaos)?;
            for chunk in chunks {
                session.push_chunk(chunk)?;
            }
            Ok(())
        })()
        .is_err();
        assert!(crashed, "{tag} op {k}: the injected crash did not surface");

        let mut session = match OnlineSession::open(&dir, runtime(flaml_core::disk(), 1)) {
            Ok(session) => session,
            Err(OnlineError::Journal(LogError::Missing)) => {
                OnlineSession::create(&dir, cfg.clone(), runtime(flaml_core::disk(), 1))
                    .unwrap_or_else(|e| panic!("{tag} op {k}: recreate failed: {e}"))
            }
            Err(e) => panic!("{tag} op {k}: reopen failed: {e}"),
        };
        let done = session.status().chunks;
        assert!(
            done <= chunks.len(),
            "{tag} op {k}: recovery invented chunks"
        );
        assert_eq!(
            session.status(),
            reference.statuses[done],
            "{tag} op {k}: recovered status differs from the uninterrupted one"
        );
        for (i, chunk) in chunks.iter().enumerate().skip(done) {
            session
                .push_chunk(chunk)
                .unwrap_or_else(|e| panic!("{tag} op {k}: chunk {i} failed after recovery: {e}"));
            assert_eq!(
                session.status(),
                reference.statuses[i + 1],
                "{tag} op {k}: status after chunk {i} differs"
            );
        }
        assert_eq!(
            String::from_utf8(session.journal_bytes().unwrap()).unwrap(),
            reference.journal,
            "{tag} op {k}: promotion trace diverged after crash + recovery"
        );
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    }
    (reference, total)
}

/// The one-feature flip stream: `runs` of (concept, chunk count), A =
/// unflipped.
fn flip_stream(runs: &[(bool, usize)]) -> Vec<Dataset> {
    runs.iter()
        .flat_map(|&(flipped, n)| std::iter::repeat_n(flipped, n))
        .enumerate()
        .map(|(idx, flipped)| flip_chunk(idx, flipped))
        .collect()
}

fn flip_config() -> OnlineConfig {
    let mut cfg = fast_config(&stream(5));
    cfg.features = 1;
    cfg
}

#[test]
fn crashpoint_sweep_recovers_byte_identically_at_every_op() {
    // Shorter stream than the other suites: the sweep replays it once
    // per mutating storage op.
    let (reference, total) = crash_sweep("sweep", &fast_config(&stream(11)), &standard_chunks(8));
    let status = reference.statuses.last().unwrap();
    assert!(
        status.promotions >= 2,
        "sweep stream must exercise warmup + drift promotion: {status:?}"
    );
    // The exact count pins the sequence of mutating storage ops.
    assert_eq!(total, 129, "mutating storage ops of the stream lifecycle");
}

#[test]
fn crashpoint_sweep_through_a_probation_rollback() {
    // A, then a flip long enough for a drift challenger to win, then A
    // again: probation restores the warmup champion.
    let chunks = flip_stream(&[(false, 4), (true, 4), (false, 4)]);
    let (reference, total) = crash_sweep("sweep_rollback", &flip_config(), &chunks);
    let status = reference.statuses.last().unwrap();
    assert_eq!(
        (status.drift_events, status.promotions, status.rollbacks),
        (1, 2, 1),
        "{status:?}"
    );
    assert_eq!(status.era, 1, "the warmup champion is restored");
    assert_eq!(total, 185, "mutating storage ops of the stream lifecycle");
}

#[test]
fn crashpoint_sweep_through_a_rejected_drift_round_and_its_retry() {
    // One flipped chunk fewer: the drift challenger loses its holdout,
    // and the retry it arms loses too.
    let chunks = flip_stream(&[(false, 4), (true, 3), (false, 4)]);
    let (reference, total) = crash_sweep("sweep_reject", &flip_config(), &chunks);
    let status = reference.statuses.last().unwrap();
    assert_eq!(
        (status.drift_events, status.promotions, status.rejections),
        (1, 1, 2),
        "{status:?}"
    );
    let round = format!("\"kind\":\"{}\"", kind::ROUND);
    assert!(
        reference
            .journal
            .lines()
            .any(|l| l.contains(&round) && l.contains("\"reason\":\"retry\"")),
        "the rejected drift round must arm a retry"
    );
    assert_eq!(total, 177, "mutating storage ops of the stream lifecycle");
}

#[test]
fn crashpoint_sweep_through_a_rollback_while_a_scheduled_round_is_due() {
    // With `refresh_every = 1` a scheduled round is due on every chunk,
    // the one whose probation fails included. The rollback suppresses
    // that round live, so recovery after the `rollback` event commits
    // must suppress it too.
    let mut cfg = flip_config();
    cfg.refresh_every = 1;
    let chunks = flip_stream(&[(false, 4), (true, 4), (false, 2)]);
    let (reference, total) = crash_sweep("sweep_due", &cfg, &chunks);
    let status = reference.statuses.last().unwrap();
    assert_eq!(
        (status.promotions, status.rejections, status.rollbacks),
        (3, 3, 1),
        "{status:?}"
    );
    assert_eq!(total, 238, "mutating storage ops of the stream lifecycle");
}

/// Chunk `idx` of the stream in `tests/fixtures/mixed_stream`: 30 rows,
/// one numeric column and one categorical column of 3 categories.
fn mixed_chunk(idx: usize) -> Dataset {
    let rows = 30;
    let x: Vec<f64> = (0..rows)
        .map(|r| ((r * 7919 + idx * 104_729) % 997) as f64 / 997.0)
        .collect();
    let c: Vec<f64> = (0..rows).map(|r| ((r + idx) % 3) as f64).collect();
    let y: Vec<f64> = x
        .iter()
        .zip(&c)
        .map(|(&v, &k)| f64::from(v + 0.2 * k > 0.6))
        .collect();
    Dataset::with_kinds(
        format!("mixed-{idx}"),
        Task::Binary,
        vec![x, c],
        vec![
            FeatureKind::Numeric,
            FeatureKind::Categorical { cardinality: 3 },
        ],
        y,
    )
    .unwrap()
}

fn mixed_config() -> OnlineConfig {
    let mut cfg = OnlineConfig::new(Task::Binary, 2);
    cfg.seed = 3;
    cfg.estimators = vec![LearnerKind::Lr];
    cfg.window_chunks = 4;
    cfg.holdout_chunks = 1;
    cfg.warmup_chunks = 2;
    cfg.round_budget = 5.0;
    cfg.round_trials = 3;
    cfg
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        let target = to.join(path.file_name().unwrap());
        if path.is_dir() {
            copy_dir(&path, &target);
        } else {
            std::fs::copy(&path, &target).unwrap();
        }
    }
}

#[test]
fn a_stream_directory_from_the_chunk_payload_era_reopens_byte_identically() {
    // `tests/fixtures/mixed_stream` was written by the build whose chunk
    // files came from `flaml_online::ChunkPayload` (key order `name,
    // task, columns, cardinalities, target`): chunks 0..3 of
    // `mixed_chunk` under `mixed_config`, a warmup round included.
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mixed_stream");
    let chunk0 = std::fs::read_to_string(fixture.join("chunks/c000000.json")).unwrap();
    let order = ["\"columns\"", "\"cardinalities\":[0,3]", "\"target\""].map(|k| chunk0.find(k));
    assert!(
        order[0] < order[1] && order[1] < order[2] && order[0].is_some(),
        "fixture key order: {order:?}"
    );

    // Today's build writes the same state for the same chunks: every
    // file byte for byte, the round journal canonically (its wall
    // times are not canonical).
    let fresh = scratch("mixed_fresh");
    let mut session =
        OnlineSession::create(&fresh, mixed_config(), runtime(flaml_core::disk(), 1)).unwrap();
    for i in 0..3 {
        session.push_chunk(&mixed_chunk(i)).unwrap();
    }
    for file in [
        "online.jsonl",
        "chunks/c000000.json",
        "chunks/c000001.json",
        "chunks/c000002.json",
        "champions/era_0001.artifact.json",
    ] {
        assert_eq!(
            std::fs::read(fresh.join(file)).unwrap(),
            std::fs::read(fixture.join(file)).unwrap(),
            "{file}"
        );
    }
    let round = "rounds/round_0001.jsonl";
    assert_eq!(
        Journal::read(fresh.join(round)).unwrap().canonical_bytes(),
        Journal::read(fixture.join(round))
            .unwrap()
            .canonical_bytes()
    );

    // The old directory reopens with its categorical window, refuses a
    // chunk of other kinds and goes on exactly like the fresh session.
    let old = scratch("mixed_old");
    copy_dir(&fixture, &old);
    let mut reopened = OnlineSession::open(&old, runtime(flaml_core::disk(), 1)).unwrap();
    assert_eq!(reopened.status(), session.status());
    let numeric = Dataset::new(
        "numeric",
        Task::Binary,
        mixed_chunk(3).columns().to_vec(),
        mixed_chunk(3).target().to_vec(),
    )
    .unwrap();
    assert!(matches!(
        reopened.push_chunk(&numeric),
        Err(OnlineError::SchemaMismatch { .. })
    ));
    assert_eq!(
        reopened.push_chunk(&mixed_chunk(3)).unwrap(),
        session.push_chunk(&mixed_chunk(3)).unwrap()
    );
    assert_eq!(
        reopened.journal_bytes().unwrap(),
        session.journal_bytes().unwrap()
    );
    let _ = std::fs::remove_dir_all(&fresh);
    let _ = std::fs::remove_dir_all(&old);
}
