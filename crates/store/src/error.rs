//! Typed errors of the durable storage layer.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Why a storage operation failed.
///
/// Callers branch on the *shape* of the failure, not its message:
/// [`StorageError::NoSpace`] means the device is (really or by
/// injection) out of room and retrying is pointless — the typical
/// mapping is a `507 Insufficient Storage`; [`StorageError::Crashed`]
/// is the chaos layer's simulated process death and only ever appears
/// in tests; everything else is an ordinary I/O failure tagged with the
/// operation and path that raised it.
#[derive(Debug)]
pub enum StorageError {
    /// A filesystem operation failed.
    Io {
        /// Operation name (`"create"`, `"rename"`, `"sync-dir"`, …).
        op: &'static str,
        /// Path the operation addressed.
        path: PathBuf,
        /// Underlying error.
        source: io::Error,
    },
    /// The device is out of space (`ENOSPC`, real or injected).
    NoSpace {
        /// Path whose write hit the full device.
        path: PathBuf,
        /// Whether a chaos plan injected this failure.
        injected: bool,
    },
    /// An `fsync`/`fdatasync` failed: previously written bytes may or
    /// may not be durable, so the caller must treat the file as suspect.
    SyncFailed {
        /// Path of the file whose sync failed.
        path: PathBuf,
        /// Underlying detail.
        detail: String,
        /// Whether a chaos plan injected this failure.
        injected: bool,
    },
    /// A write persisted only a prefix of its buffer before failing —
    /// the on-disk tail is torn. Always injected (real kernels surface
    /// short writes as errors from `write_all` with unspecified partial
    /// state; the chaos layer makes that state explicit).
    TornWrite {
        /// Path of the torn file.
        path: PathBuf,
        /// Bytes actually persisted.
        written: usize,
        /// Bytes the caller asked for.
        requested: usize,
    },
    /// The chaos layer's simulated crash: the process "died" at this
    /// operation index. Every later operation on the same storage also
    /// fails with this, exactly as a dead process performs no further
    /// I/O.
    Crashed {
        /// Index of the operation at which the simulated crash fired.
        op_index: u64,
    },
}

impl StorageError {
    /// A value that could not be rendered into the bytes to write
    /// (`op` names the step, e.g. `"serialize-record"`): nothing reached
    /// the device.
    pub fn unwritable(op: &'static str, path: &Path, detail: impl fmt::Display) -> StorageError {
        StorageError::Io {
            op,
            path: path.to_path_buf(),
            source: io::Error::new(io::ErrorKind::InvalidData, detail.to_string()),
        }
    }

    /// Whether this failure means the device is out of space.
    pub fn is_no_space(&self) -> bool {
        matches!(self, StorageError::NoSpace { .. })
    }

    /// Whether this is the chaos layer's simulated crash.
    pub fn is_crash(&self) -> bool {
        matches!(self, StorageError::Crashed { .. })
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { op, path, source } => {
                write!(f, "storage {op} failed at {}: {source}", path.display())
            }
            StorageError::NoSpace { path, injected } => write!(
                f,
                "no space left on device at {}{}",
                path.display(),
                if *injected { " (injected)" } else { "" }
            ),
            StorageError::SyncFailed {
                path,
                detail,
                injected,
            } => write!(
                f,
                "fsync failed at {}: {detail}{}",
                path.display(),
                if *injected { " (injected)" } else { "" }
            ),
            StorageError::TornWrite {
                path,
                written,
                requested,
            } => write!(
                f,
                "torn write at {}: {written} of {requested} bytes persisted (injected)",
                path.display()
            ),
            StorageError::Crashed { op_index } => {
                write!(f, "simulated crash at storage op {op_index}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<StorageError> for io::Error {
    fn from(e: StorageError) -> io::Error {
        let kind = match &e {
            StorageError::Io { source, .. } => source.kind(),
            _ => io::ErrorKind::Other,
        };
        io::Error::new(kind, e.to_string())
    }
}

/// Whether an [`io::Error`] is `ENOSPC` (matched on the raw OS code so
/// it works on every toolchain; `ErrorKind::StorageFull` is newer than
/// some supported compilers).
pub fn is_enospc(e: &io::Error) -> bool {
    e.raw_os_error() == Some(28)
}
