//! flaml-store: the durable storage layer of the FLAML reproduction.
//!
//! Everything the stack persists — write-ahead journals, request
//! sidecars, terminal records, compiled-model artifacts, bench
//! reports — goes through one small [`Storage`] trait instead of ad-hoc
//! `std::fs` calls. That buys three things:
//!
//! 1. **A single atomic-publish protocol.** [`atomic_write_file`]
//!    implements temp file → write → fsync → rename → parent-dir fsync,
//!    so every multi-byte publish in the stack is all-or-nothing: a
//!    crash at any instruction leaves either the old file, no file, or
//!    a stale `*.tmp` that recovery sweeps away — never a torn final
//!    name.
//! 2. **Typed failures.** [`StorageError`] distinguishes `ENOSPC`
//!    ([`StorageError::NoSpace`]), failed fsyncs, torn writes, and
//!    simulated crashes, so the service layer can answer a structured
//!    `507` instead of a generic `500` and telemetry can count fault
//!    classes separately.
//! 3. **Deterministic disk chaos.** [`ChaosStorage`] wraps any storage
//!    with a seeded [`IoFaultPlan`] whose decisions are pure functions
//!    of `(seed, op-index)` — the storage-layer mirror of the exec
//!    layer's `FaultPlan` — so crashpoint sweeps can enumerate every
//!    injected I/O op of a run and replay a crash at each one.
//!
//! Two more decisions live here because every durable format needs
//! them: the fsync-on-commit line log ([`LineLog`] / [`read_log`], the
//! protocol under the trial journal and the stream journal) and the
//! FNV-1a content hash ([`Fnv1a`]) behind every fingerprint.
//!
//! The crate is std-only and dependency-free by design: it sits below
//! every other crate in the workspace.

#![warn(missing_docs)]

mod chaos;
mod disk;
mod error;
mod fnv;
mod log;

pub use chaos::{ChaosStorage, IoFault, IoFaultPlan};
pub use disk::DiskStorage;
pub use error::{is_enospc, StorageError};
pub use fnv::Fnv1a;
pub use log::{read_log, to_line, CommittedLog, LineLog, LogReadError};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An open writable file. Writes are buffered by the OS until
/// [`StorageFile::sync_data`]; the durability contract of every caller
/// is "bytes before the last successful sync are on disk".
pub trait StorageFile: Send + std::fmt::Debug {
    /// Writes the whole buffer (or fails, possibly having persisted a
    /// prefix — see [`StorageError::TornWrite`]).
    fn write_all(&mut self, buf: &[u8]) -> Result<(), StorageError>;
    /// Flushes file data to the device (`fdatasync`).
    fn sync_data(&mut self) -> Result<(), StorageError>;
    /// Truncates the file to `len` bytes (drops a torn tail).
    fn truncate(&mut self, len: u64) -> Result<(), StorageError>;
}

/// The file operations the stack actually uses, abstracted so a chaos
/// wrapper can inject faults underneath any component. Implementations
/// must be shareable across threads ([`Send`] + [`Sync`]) because one
/// storage instance backs the whole server.
pub trait Storage: Send + Sync + std::fmt::Debug {
    /// Creates (truncating) a file for writing.
    fn create(&self, path: &Path) -> Result<Box<dyn StorageFile>, StorageError>;
    /// Opens an existing file for appending.
    fn append(&self, path: &Path) -> Result<Box<dyn StorageFile>, StorageError>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError>;
    /// Length of a file in bytes.
    fn file_len(&self, path: &Path) -> Result<u64, StorageError>;
    /// Truncates the file at `path` to `len` bytes and syncs it —
    /// the journal's resume step (drop everything past the committed
    /// prefix) in one durable operation.
    fn truncate_file(&self, path: &Path, len: u64) -> Result<(), StorageError>;
    /// Atomically renames `from` to `to` (same filesystem).
    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError>;
    /// Removes a file.
    fn remove(&self, path: &Path) -> Result<(), StorageError>;
    /// Creates a directory and its parents.
    fn create_dir_all(&self, dir: &Path) -> Result<(), StorageError>;
    /// Fsyncs a directory, making renames within it durable.
    fn sync_dir(&self, dir: &Path) -> Result<(), StorageError>;
    /// Entries of a directory, sorted by path; a missing directory
    /// scans as empty.
    fn scan(&self, dir: &Path) -> Result<Vec<PathBuf>, StorageError>;
    /// Whether a path exists.
    fn exists(&self, path: &Path) -> bool;
    /// Whether a path is a directory.
    fn is_dir(&self, path: &Path) -> bool;
    /// The real filesystem path behind `path`, if this storage is plain
    /// disk and the file may be memory-mapped directly. Fault-injecting
    /// and virtual storages return `None` (the default): a mapping
    /// would bypass their interception, so callers must fall back to
    /// [`Storage::read`], which stays under fault control.
    fn mmap_source(&self, path: &Path) -> Option<PathBuf> {
        let _ = path;
        None
    }
}

/// The production storage as a shareable handle.
pub fn disk() -> Arc<dyn Storage> {
    Arc::new(DiskStorage)
}

/// Process-wide nonce for temp-file names. A counter (not randomness)
/// so chaos runs stay deterministic: op sequences depend only on the
/// order of storage calls, never on entropy.
static TMP_NONCE: AtomicU64 = AtomicU64::new(0);

/// The temp-file path [`atomic_write_file`] writes before renaming over
/// `path`: `.{filename}.{nonce}.tmp` in the same directory (rename must
/// not cross filesystems).
fn tmp_path_for(path: &Path) -> PathBuf {
    let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unnamed".to_string());
    path.with_file_name(format!(".{name}.{nonce}.tmp"))
}

/// Whether a directory entry is a stale temp left by an interrupted
/// [`atomic_write_file`] — recovery deletes these on sight.
pub fn is_stale_tmp(path: &Path) -> bool {
    match path.file_name().and_then(|n| n.to_str()) {
        Some(name) => name.starts_with('.') && name.ends_with(".tmp"),
        None => false,
    }
}

/// Deletes every stale temp ([`is_stale_tmp`]) directly under `dir` —
/// the recovery sweep. Temps are never referenced by any protocol
/// state, so removal is always safe; a missing `dir` holds none. Every
/// removal is attempted even if an earlier one fails.
///
/// # Errors
///
/// The scan failure, or the first failed removal.
pub fn sweep_stale_tmps(storage: &dyn Storage, dir: &Path) -> Result<(), StorageError> {
    let mut first_failure = Ok(());
    for entry in storage.scan(dir)? {
        if is_stale_tmp(&entry) {
            let removed = storage.remove(&entry);
            first_failure = first_failure.and(removed);
        }
    }
    first_failure
}

/// Creates the directory `path` will live in (and its parents), if
/// `path` names one.
///
/// # Errors
///
/// The storage failure from creating it.
pub fn create_parent_dir(storage: &dyn Storage, path: &Path) -> Result<(), StorageError> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => storage.create_dir_all(dir),
        _ => Ok(()),
    }
}

/// Atomically publishes `bytes` at `path`: write a same-directory temp
/// file, fsync it, rename it over `path`, fsync the parent directory.
/// A crash at any step leaves either the previous contents of `path`
/// (or its absence) plus at most a stale temp that [`is_stale_tmp`]
/// identifies — never a torn file under the final name. On failure the
/// temp is best-effort removed.
pub fn atomic_write_file(
    storage: &dyn Storage,
    path: &Path,
    bytes: &[u8],
) -> Result<(), StorageError> {
    let tmp = tmp_path_for(path);
    let publish = (|| {
        let mut file = storage.create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_data()?;
        drop(file);
        storage.rename(&tmp, path)
    })();
    if let Err(e) = publish {
        // Clean up the temp if we can; the original error is what the
        // caller needs to see either way.
        let _ = storage.remove(&tmp);
        return Err(e);
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            storage.sync_dir(parent)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flaml-store-{tag}-{}",
            TMP_NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn atomic_write_publishes_and_overwrites() {
        let dir = scratch("atomic");
        let path = dir.join("out.json");
        let disk = DiskStorage;
        atomic_write_file(&disk, &path, b"first").expect("publish");
        assert_eq!(fs::read(&path).expect("read"), b"first");
        atomic_write_file(&disk, &path, b"second, longer").expect("republish");
        assert_eq!(fs::read(&path).expect("read"), b"second, longer");
        // No temp debris.
        let leftovers: Vec<_> = disk
            .scan(&dir)
            .expect("scan")
            .into_iter()
            .filter(|p| is_stale_tmp(p))
            .collect();
        assert!(leftovers.is_empty(), "stale temps: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_storage_round_trips_and_scans_sorted() {
        let dir = scratch("disk");
        let disk = DiskStorage;
        for name in ["b.txt", "a.txt", "c.txt"] {
            let mut f = disk.create(&dir.join(name)).expect("create");
            f.write_all(name.as_bytes()).expect("write");
            f.sync_data().expect("sync");
        }
        let names: Vec<_> = disk
            .scan(&dir)
            .expect("scan")
            .into_iter()
            .map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        assert_eq!(
            names,
            vec![
                Some("a.txt".to_string()),
                Some("b.txt".to_string()),
                Some("c.txt".to_string())
            ]
        );
        assert_eq!(disk.read(&dir.join("a.txt")).expect("read"), b"a.txt");
        assert_eq!(disk.file_len(&dir.join("a.txt")).expect("len"), 5);
        assert!(disk.scan(&dir.join("missing")).expect("scan").is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_file_drops_the_tail() {
        let dir = scratch("trunc");
        let disk = DiskStorage;
        let path = dir.join("j.jsonl");
        let mut f = disk.create(&path).expect("create");
        f.write_all(b"committed\ntorn-tai").expect("write");
        f.sync_data().expect("sync");
        drop(f);
        disk.truncate_file(&path, 10).expect("truncate");
        assert_eq!(disk.read(&path).expect("read"), b"committed\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_maps_to_no_space() {
        // /dev/full returns ENOSPC on write on Linux; skip elsewhere.
        let full = Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let disk = DiskStorage;
        let mut f = match disk.append(full) {
            Ok(f) => f,
            Err(_) => return,
        };
        let err = f.write_all(b"x").expect_err("write to /dev/full fails");
        assert!(err.is_no_space(), "unexpected error: {err}");
    }

    #[test]
    fn chaos_decide_is_deterministic_and_rate_accurate() {
        let plan = IoFaultPlan::uniform(42, 0.3);
        let first: Vec<_> = (0..2000).map(|op| plan.decide(op)).collect();
        let second: Vec<_> = (0..2000).map(|op| plan.decide(op)).collect();
        assert_eq!(first, second);
        let faults = first.iter().filter(|f| f.is_some()).count();
        assert!((450..=750).contains(&faults), "{faults}/2000 faults");
    }

    #[test]
    fn chaos_parse_round_trips() {
        let plan = IoFaultPlan::parse("7:0.3").expect("valid spec");
        assert_eq!(plan.seed(), 7);
        assert!((plan.total_rate() - 0.3).abs() < 1e-12);
        assert!(IoFaultPlan::parse("nope").is_none());
        assert!(IoFaultPlan::parse("1:1.5").is_none());
        assert!(IoFaultPlan::parse("1:-0.1").is_none());
    }

    #[test]
    fn chaos_crash_point_tears_the_write_and_latches() {
        let dir = scratch("crash");
        let path = dir.join("file.bin");
        // Fault-free run to count ops: create + write + sync = 3.
        let clean = ChaosStorage::new(disk(), IoFaultPlan::new(1));
        let mut f = clean.create(&path).expect("create");
        f.write_all(b"hello world").expect("write");
        f.sync_data().expect("sync");
        drop(f);
        assert_eq!(clean.ops_issued(), 3);

        // Crash at the write (op 1): a strict prefix lands on disk,
        // everything afterwards fails, including reads.
        let chaos = ChaosStorage::new(disk(), IoFaultPlan::new(1).crash_at(1));
        let mut f = chaos.create(&path).expect("create survives");
        let err = f.write_all(b"hello world").expect_err("write crashes");
        assert!(err.is_crash());
        let on_disk = fs::read(&path).expect("read outside chaos");
        assert!(on_disk.len() < b"hello world".len());
        assert_eq!(&b"hello world"[..on_disk.len()], &on_disk[..]);
        assert!(chaos.crashed());
        assert!(f.sync_data().expect_err("dead").is_crash());
        assert!(chaos.read(&path).expect_err("dead").is_crash());
        assert!(!chaos.exists(&path));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_injected_enospc_is_typed() {
        let dir = scratch("enospc");
        let chaos = ChaosStorage::new(disk(), IoFaultPlan::new(9).enospc(1.0));
        let err = chaos
            .create(&dir.join("x"))
            .expect_err("every op hits ENOSPC");
        assert!(err.is_no_space());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_short_write_persists_a_prefix() {
        let dir = scratch("short");
        let path = dir.join("x");
        let chaos = ChaosStorage::new(disk(), IoFaultPlan::new(3).short_writes(1.0));
        // create consumes op 0 (short-write inapplicable -> no fault).
        let mut f = chaos.create(&path).expect("create");
        let payload = vec![0xAB; 256];
        let err = f.write_all(&payload).expect_err("short write");
        match err {
            StorageError::TornWrite {
                written, requested, ..
            } => {
                assert_eq!(requested, 256);
                assert!(written < 256);
                assert_eq!(fs::read(&path).expect("read").len(), written);
            }
            other => panic!("expected TornWrite, got {other}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_under_crash_never_tears_the_final_name() {
        let dir = scratch("atomic-crash");
        let path = dir.join("artifact.json");
        let payload = b"{\"model\":\"payload-of-known-bytes\"}";
        // Count ops in a clean publish.
        let clean = ChaosStorage::new(disk(), IoFaultPlan::new(5));
        atomic_write_file(&clean, &path, payload).expect("clean publish");
        let total = clean.ops_issued();
        assert!(total >= 4, "create+write+sync+rename+dirsync, got {total}");

        for k in 0..total {
            let dir_k = scratch(&format!("atomic-crash-{k}"));
            let path_k = dir_k.join("artifact.json");
            let chaos = ChaosStorage::new(disk(), IoFaultPlan::new(5).crash_at(k));
            let res = atomic_write_file(&chaos, &path_k, payload);
            let disk = DiskStorage;
            match res {
                Ok(()) => {
                    assert_eq!(disk.read(&path_k).expect("read"), payload);
                }
                Err(e) => {
                    assert!(e.is_crash(), "crash expected at op {k}, got {e}");
                    // The final name either does not exist or holds the
                    // complete payload — never a torn file.
                    if disk.exists(&path_k) {
                        assert_eq!(
                            disk.read(&path_k).expect("read"),
                            payload,
                            "torn publish at op {k}"
                        );
                    }
                    // Debris is only ever a stale temp, which recovery sweeps.
                    for entry in disk.scan(&dir_k).expect("scan") {
                        if entry != path_k {
                            assert!(is_stale_tmp(&entry), "unexpected debris {entry:?}");
                        }
                    }
                }
            }
            let _ = fs::remove_dir_all(&dir_k);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_failure_cleans_its_temp() {
        let dir = scratch("cleanup");
        let path = dir.join("out.json");
        // Fail the data fsync; unlike a crash, the storage stays alive,
        // so the helper must remove its temp before returning the error.
        let chaos = ChaosStorage::new(disk(), IoFaultPlan::new(0).sync_fails(1.0));
        let err = atomic_write_file(&chaos, &path, b"data").expect_err("sync fails");
        assert!(matches!(err, StorageError::SyncFailed { .. }));
        let disk = DiskStorage;
        assert!(!disk.exists(&path));
        assert!(
            disk.scan(&dir).expect("scan").is_empty(),
            "temp not cleaned"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
