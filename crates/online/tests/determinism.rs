//! The determinism contract of the promotion trace: byte-identical
//! journals across worker counts, across kill-and-reopen at every chunk
//! boundary, and across a crashpoint sweep that kills the session at
//! every mutating storage op (mirroring the server's durability suite).

mod common;

use common::{fast_config, runtime, scratch, stream};
use flaml_core::{
    AutoMlError, ChaosStorage, DiskStorage, IoFaultPlan, Journal, Storage, StorageError,
    StorageFile,
};
use flaml_online::{LogError, OnlineError, OnlineSession};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const CHUNKS: usize = 12;

/// Pushes chunks `0..n` of the standard test stream into a fresh
/// session at `dir` and returns the final journal bytes.
fn run_reference(dir: &std::path::Path, workers: usize, n: usize) -> String {
    let s = stream(11);
    let cfg = fast_config(&s);
    let mut session =
        OnlineSession::create(dir, cfg, runtime(flaml_core::disk(), workers)).unwrap();
    for i in 0..n {
        session.push_chunk(&s.chunk(i)).unwrap();
    }
    let status = session.status();
    assert!(
        status.promotions >= 2 && status.drift_events >= 1,
        "reference run too quiet to be a meaningful gate: {status:?}"
    );
    String::from_utf8(session.journal_bytes().unwrap()).unwrap()
}

#[test]
fn trace_is_byte_identical_across_worker_counts() {
    let dir1 = scratch("workers1");
    let dir4 = scratch("workers4");
    let one = run_reference(&dir1, 1, CHUNKS);
    let four = run_reference(&dir4, 4, CHUNKS);
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
        session.push_chunk(&s.chunk(i)).unwrap();
    }
    let session = OnlineSession::open(&dir, runtime(flaml_core::disk(), 1)).unwrap();
    assert_eq!(
        String::from_utf8(session.journal_bytes().unwrap()).unwrap(),
        reference,
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
    let reference = run_reference(&scratch("warm_ref"), 1, CHUNKS);

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

#[test]
fn crashpoint_sweep_recovers_byte_identically_at_every_op() {
    // Shorter stream than the other suites: the sweep replays it once
    // per mutating storage op.
    let n = 8;
    let s = stream(11);
    let cfg = fast_config(&s);

    let reference = {
        let dir = scratch("sweep_ref");
        let mut session =
            OnlineSession::create(&dir, cfg.clone(), runtime(flaml_core::disk(), 1)).unwrap();
        for i in 0..n {
            session.push_chunk(&s.chunk(i)).unwrap();
        }
        let status = session.status();
        assert!(
            status.promotions >= 2,
            "sweep stream must exercise warmup + drift promotion: {status:?}"
        );
        String::from_utf8(session.journal_bytes().unwrap()).unwrap()
    };

    // Fault-free chaos run: count every mutating storage op the stream
    // lifecycle issues.
    let total = {
        let dir = scratch("sweep_count");
        let chaos = Arc::new(ChaosStorage::new(flaml_core::disk(), IoFaultPlan::new(1)));
        let mut session = OnlineSession::create(
            &dir,
            cfg.clone(),
            runtime(Arc::clone(&chaos) as Arc<dyn flaml_core::Storage>, 1),
        )
        .unwrap();
        for i in 0..n {
            session.push_chunk(&s.chunk(i)).unwrap();
        }
        assert_eq!(
            String::from_utf8(session.journal_bytes().unwrap()).unwrap(),
            reference
        );
        chaos.ops_issued()
    };
    assert!(
        total >= 30,
        "expected the stream lifecycle to issue many storage ops, got {total}"
    );

    for k in 0..total {
        let dir = scratch(&format!("sweep_{k}"));
        let chaos = Arc::new(ChaosStorage::new(
            flaml_core::disk(),
            IoFaultPlan::new(1).crash_at(k),
        ));
        let crashed = (|| -> Result<(), OnlineError> {
            let mut session = OnlineSession::create(
                &dir,
                cfg.clone(),
                runtime(Arc::clone(&chaos) as Arc<dyn flaml_core::Storage>, 1),
            )?;
            for i in 0..n {
                session.push_chunk(&s.chunk(i))?;
            }
            Ok(())
        })()
        .is_err();
        assert!(crashed, "op {k}: the injected crash did not surface");

        // Recover on the real disk: open (or recreate, if the crash
        // preceded the durable header) and push whatever is missing.
        let mut session = match OnlineSession::open(&dir, runtime(flaml_core::disk(), 1)) {
            Ok(session) => session,
            Err(OnlineError::Journal(LogError::Missing)) => {
                OnlineSession::create(&dir, cfg.clone(), runtime(flaml_core::disk(), 1))
                    .unwrap_or_else(|e| panic!("op {k}: recreate failed: {e}"))
            }
            Err(e) => panic!("op {k}: reopen failed: {e}"),
        };
        let done = session.status().chunks;
        assert!(done <= n, "op {k}: recovery invented chunks");
        for i in done..n {
            session
                .push_chunk(&s.chunk(i))
                .unwrap_or_else(|e| panic!("op {k}: chunk {i} failed after recovery: {e}"));
        }
        assert_eq!(
            String::from_utf8(session.journal_bytes().unwrap()).unwrap(),
            reference,
            "op {k}: promotion trace diverged after crash + recovery"
        );
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
