//! Seeded disk-fault injection: [`ChaosStorage`] wraps any [`Storage`]
//! and injects short writes, failed fsyncs, `ENOSPC`, and crash-points
//! as pure functions of `(seed, op-index)` — the storage-layer twin of
//! the exec layer's `FaultPlan`.
//!
//! Every *mutating* operation the wrapper forwards (create, append,
//! each `write_all`, each `sync_data`, truncate, rename, remove, mkdir,
//! dir fsync) consumes exactly one op index, in issue order. Whether an
//! op is faulted depends only on the plan and that index — never on
//! wall time or scheduling — so a failing chaos run is replayed exactly
//! by re-running with the same seed, and a crashpoint sweep can
//! enumerate op indices from a clean run and crash at each one in turn.
//! Read-side ops (read/scan/stat/exists) are never faulted and consume
//! no index, except after a simulated crash, when *everything* fails:
//! a dead process performs no further I/O of any kind.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::StorageError;
use crate::{Storage, StorageFile};

/// A fault the plan injects into one storage operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// A `write_all` persists only a deterministic prefix of its buffer,
    /// then fails. Non-write ops roll this as "no fault".
    ShortWrite,
    /// An `fsync`/`fdatasync` reports failure (durability of earlier
    /// bytes is now unknown). Non-sync ops roll this as "no fault".
    SyncFail,
    /// The op fails with `ENOSPC`.
    NoSpace,
    /// The process "dies" at this op: a write persists a torn prefix
    /// first, and every subsequent op on the same storage fails.
    Crash,
}

/// A seeded, deterministic disk-fault plan.
///
/// Build with [`IoFaultPlan::new`] plus the rate setters,
/// [`IoFaultPlan::uniform`] / [`IoFaultPlan::parse`] for the
/// `--io-chaos seed:rate` form, or [`IoFaultPlan::crash_at`] to place a
/// single crash-point for a crashpoint sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoFaultPlan {
    seed: u64,
    short_write_rate: f64,
    sync_fail_rate: f64,
    enospc_rate: f64,
    crash_at: Option<u64>,
}

/// SplitMix64 finalizer — same mix as the exec layer's `FaultPlan`, so
/// both chaos planes share one well-tested hashing idiom.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl IoFaultPlan {
    /// A plan with the given seed, all rates zero, and no crash-point.
    pub fn new(seed: u64) -> IoFaultPlan {
        IoFaultPlan {
            seed,
            short_write_rate: 0.0,
            sync_fail_rate: 0.0,
            enospc_rate: 0.0,
            crash_at: None,
        }
    }

    /// A plan injecting faults at `rate` total probability per op, split
    /// evenly across short writes, failed fsyncs, and `ENOSPC` (the
    /// `--io-chaos seed:rate` semantics). No crash-point.
    pub fn uniform(seed: u64, rate: f64) -> IoFaultPlan {
        let each = rate.clamp(0.0, 1.0) / 3.0;
        IoFaultPlan {
            seed,
            short_write_rate: each,
            sync_fail_rate: each,
            enospc_rate: each,
            crash_at: None,
        }
    }

    /// Parses the `seed:rate` form (e.g. `"7:0.05"`).
    pub fn parse(s: &str) -> Option<IoFaultPlan> {
        let (seed, rate) = s.split_once(':')?;
        let seed: u64 = seed.trim().parse().ok()?;
        let rate: f64 = rate.trim().parse().ok()?;
        if !(0.0..=1.0).contains(&rate) {
            return None;
        }
        Some(IoFaultPlan::uniform(seed, rate))
    }

    /// Sets the per-op short-write probability.
    #[must_use]
    pub fn short_writes(mut self, rate: f64) -> IoFaultPlan {
        self.short_write_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-op fsync-failure probability.
    #[must_use]
    pub fn sync_fails(mut self, rate: f64) -> IoFaultPlan {
        self.sync_fail_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-op `ENOSPC` probability.
    #[must_use]
    pub fn enospc(mut self, rate: f64) -> IoFaultPlan {
        self.enospc_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Places a deterministic crash at op index `k` (0-based). The op at
    /// index `k` fails as a crash (writes persist a torn prefix first)
    /// and every later op fails [`StorageError::Crashed`].
    #[must_use]
    pub fn crash_at(mut self, k: u64) -> IoFaultPlan {
        self.crash_at = Some(k);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total per-op random fault probability (crash-points excluded —
    /// they are scheduled, not rolled).
    pub fn total_rate(&self) -> f64 {
        (self.short_write_rate + self.sync_fail_rate + self.enospc_rate).min(1.0)
    }

    /// Decides the fault (if any) for op index `op`. Pure: depends only
    /// on the plan and its argument. The scheduled crash-point takes
    /// precedence over rolled faults.
    pub fn decide(&self, op: u64) -> Option<IoFault> {
        if self.crash_at == Some(op) {
            return Some(IoFault::Crash);
        }
        let h = mix(self.seed ^ mix(op.wrapping_mul(0xA24B_AED4_963E_E407)));
        // 53 uniform bits -> [0, 1).
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u < self.short_write_rate {
            Some(IoFault::ShortWrite)
        } else if u < self.short_write_rate + self.sync_fail_rate {
            Some(IoFault::SyncFail)
        } else if u < self.short_write_rate + self.sync_fail_rate + self.enospc_rate {
            Some(IoFault::NoSpace)
        } else {
            None
        }
    }

    /// The torn prefix length for a short write or crash at op `op` of a
    /// `total`-byte buffer: deterministic, in `[0, total)`.
    fn torn_len(&self, op: u64, total: usize) -> usize {
        if total == 0 {
            return 0;
        }
        (mix(self.seed ^ mix(op) ^ 0x70_4E) % total as u64) as usize
    }
}

/// Shared mutable state of one [`ChaosStorage`]: the op counter and
/// crash latch live behind an `Arc` so file handles created by the
/// wrapper keep consuming the same op sequence.
#[derive(Debug)]
struct ChaosState {
    plan: IoFaultPlan,
    ops: AtomicU64,
    crashed: AtomicBool,
}

impl ChaosState {
    /// Claims the next op index and returns the fault decided for it,
    /// honoring the crash latch.
    fn next_op(&self, path: &Path) -> Result<(u64, Option<IoFault>), StorageError> {
        self.check_alive(path)?;
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        let fault = self.plan.decide(op);
        if fault == Some(IoFault::Crash) {
            self.crashed.store(true, Ordering::SeqCst);
        }
        Ok((op, fault))
    }

    fn check_alive(&self, _path: &Path) -> Result<(), StorageError> {
        if self.crashed.load(Ordering::SeqCst) {
            Err(StorageError::Crashed {
                op_index: self.plan.crash_at.unwrap_or(0),
            })
        } else {
            Ok(())
        }
    }

    fn fault_err(&self, fault: IoFault, op: u64, path: &Path) -> StorageError {
        match fault {
            IoFault::NoSpace => StorageError::NoSpace {
                path: path.to_path_buf(),
                injected: true,
            },
            IoFault::SyncFail => StorageError::SyncFailed {
                path: path.to_path_buf(),
                detail: format!("injected sync failure at op {op}"),
                injected: true,
            },
            IoFault::Crash => StorageError::Crashed { op_index: op },
            IoFault::ShortWrite => StorageError::TornWrite {
                path: path.to_path_buf(),
                written: 0,
                requested: 0,
            },
        }
    }
}

/// A [`Storage`] wrapper that injects the faults its [`IoFaultPlan`]
/// schedules. Cloning shares the op counter and crash latch, so a
/// single plan governs every component holding a handle to the same
/// chaos instance.
#[derive(Clone)]
pub struct ChaosStorage {
    inner: Arc<dyn Storage>,
    state: Arc<ChaosState>,
}

impl fmt::Debug for ChaosStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosStorage")
            .field("plan", &self.state.plan)
            .field("ops", &self.state.ops.load(Ordering::SeqCst))
            .field("crashed", &self.state.crashed.load(Ordering::SeqCst))
            .finish()
    }
}

impl ChaosStorage {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: Arc<dyn Storage>, plan: IoFaultPlan) -> ChaosStorage {
        ChaosStorage {
            inner,
            state: Arc::new(ChaosState {
                plan,
                ops: AtomicU64::new(0),
                crashed: AtomicBool::new(false),
            }),
        }
    }

    /// Number of faultable (mutating) ops issued so far — a clean run's
    /// final count is the crashpoint sweep's enumeration bound.
    pub fn ops_issued(&self) -> u64 {
        self.state.ops.load(Ordering::SeqCst)
    }

    /// Whether the simulated crash has fired.
    pub fn crashed(&self) -> bool {
        self.state.crashed.load(Ordering::SeqCst)
    }

    /// The plan this wrapper injects.
    pub fn plan(&self) -> IoFaultPlan {
        self.state.plan
    }

    /// Faults one non-write mutating op: claims an index, maps
    /// inapplicable faults (short writes need a buffer) to "no fault".
    fn gate(&self, path: &Path) -> Result<(), StorageError> {
        let (op, fault) = self.state.next_op(path)?;
        match fault {
            None | Some(IoFault::ShortWrite) | Some(IoFault::SyncFail) => Ok(()),
            Some(f) => Err(self.state.fault_err(f, op, path)),
        }
    }
}

/// A file handle that routes its writes/syncs through the shared chaos
/// state.
#[derive(Debug)]
struct ChaosFile {
    inner: Box<dyn StorageFile>,
    state: Arc<ChaosState>,
    path: PathBuf,
}

impl StorageFile for ChaosFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), StorageError> {
        let (op, fault) = self.state.next_op(&self.path)?;
        match fault {
            None | Some(IoFault::SyncFail) => self.inner.write_all(buf),
            Some(IoFault::NoSpace) => Err(StorageError::NoSpace {
                path: self.path.clone(),
                injected: true,
            }),
            Some(IoFault::ShortWrite) => {
                let torn = self.state.plan.torn_len(op, buf.len());
                self.inner.write_all(&buf[..torn])?;
                Err(StorageError::TornWrite {
                    path: self.path.clone(),
                    written: torn,
                    requested: buf.len(),
                })
            }
            Some(IoFault::Crash) => {
                // The process dies mid-write(2): a torn prefix lands on
                // disk, nothing after it ever does.
                let torn = self.state.plan.torn_len(op, buf.len());
                let _ = self.inner.write_all(&buf[..torn]);
                Err(StorageError::Crashed { op_index: op })
            }
        }
    }

    fn sync_data(&mut self) -> Result<(), StorageError> {
        let (op, fault) = self.state.next_op(&self.path)?;
        match fault {
            None | Some(IoFault::ShortWrite) => self.inner.sync_data(),
            Some(IoFault::NoSpace) => Err(StorageError::NoSpace {
                path: self.path.clone(),
                injected: true,
            }),
            Some(IoFault::SyncFail) => Err(StorageError::SyncFailed {
                path: self.path.clone(),
                detail: format!("injected sync failure at op {op}"),
                injected: true,
            }),
            Some(IoFault::Crash) => Err(StorageError::Crashed { op_index: op }),
        }
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        let (op, fault) = self.state.next_op(&self.path)?;
        match fault {
            None | Some(IoFault::ShortWrite) | Some(IoFault::SyncFail) => self.inner.truncate(len),
            Some(f) => Err(self.state.fault_err(f, op, &self.path)),
        }
    }
}

impl Storage for ChaosStorage {
    fn create(&self, path: &Path) -> Result<Box<dyn StorageFile>, StorageError> {
        self.gate(path)?;
        let inner = self.inner.create(path)?;
        Ok(Box::new(ChaosFile {
            inner,
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
        }))
    }

    fn append(&self, path: &Path) -> Result<Box<dyn StorageFile>, StorageError> {
        self.gate(path)?;
        let inner = self.inner.append(path)?;
        Ok(Box::new(ChaosFile {
            inner,
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
        }))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        self.state.check_alive(path)?;
        self.inner.read(path)
    }

    fn file_len(&self, path: &Path) -> Result<u64, StorageError> {
        self.state.check_alive(path)?;
        self.inner.file_len(path)
    }

    fn truncate_file(&self, path: &Path, len: u64) -> Result<(), StorageError> {
        self.gate(path)?;
        self.inner.truncate_file(path, len)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError> {
        self.gate(from)?;
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> Result<(), StorageError> {
        self.gate(path)?;
        self.inner.remove(path)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<(), StorageError> {
        self.gate(dir)?;
        self.inner.create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> Result<(), StorageError> {
        let (op, fault) = self.state.next_op(dir)?;
        match fault {
            None | Some(IoFault::ShortWrite) => self.inner.sync_dir(dir),
            Some(f) => Err(self.state.fault_err(f, op, dir)),
        }
    }

    fn scan(&self, dir: &Path) -> Result<Vec<PathBuf>, StorageError> {
        self.state.check_alive(dir)?;
        self.inner.scan(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        !self.state.crashed.load(Ordering::SeqCst) && self.inner.exists(path)
    }

    fn is_dir(&self, path: &Path) -> bool {
        !self.state.crashed.load(Ordering::SeqCst) && self.inner.is_dir(path)
    }
}
