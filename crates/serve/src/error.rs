//! Typed errors of the serving artifact layer.

use std::fmt;

/// Why compiling, saving or loading a serving artifact failed.
///
/// Every rejection path of [`crate::CompiledModel::load`] maps to a
/// distinct variant, so callers can tell a torn download
/// ([`ArtifactError::Parse`]) from a foreign file
/// ([`ArtifactError::BadMagic`]) from a corrupted payload
/// ([`ArtifactError::FingerprintMismatch`]).
#[derive(Debug)]
pub enum ArtifactError {
    /// Reading or writing the artifact file failed.
    Io(std::io::Error),
    /// The file is not parseable artifact JSON (corrupt or truncated).
    Parse(String),
    /// The file parses but does not carry the artifact magic string.
    BadMagic {
        /// The magic string found in the file.
        found: String,
    },
    /// The artifact was written by an unsupported format version.
    Version {
        /// Format version found in the file.
        found: u32,
        /// Format version this build supports.
        supported: u32,
    },
    /// The file's structural layout is invalid: truncated slabs or
    /// misaligned section offsets in a binary artifact, or — in either
    /// format — out-of-range or backward node indices, inconsistent slab
    /// lengths, more cuts on a feature than a bin can hold, or linear
    /// weights that do not fit their encodings (see
    /// [`crate::CompiledModel::check`]). Distinct from
    /// [`ArtifactError::Parse`] so operators can tell a torn download
    /// from a file that hashes correctly but violates the layout
    /// contract.
    Layout(String),
    /// The model payload does not hash to the fingerprint in the header.
    FingerprintMismatch {
        /// Fingerprint recorded in the header.
        expected: u64,
        /// Fingerprint recomputed from the payload.
        found: u64,
    },
    /// The model cannot be compiled into an artifact (e.g. a custom
    /// dynamic model, whose prediction code lives outside the artifact).
    Unsupported(String),
    /// Durable persistence of the artifact failed (`ENOSPC`, failed
    /// fsync, torn write) — the typed storage failure, so the service
    /// layer can answer a structured 507 on a full disk.
    Storage(flaml_store::StorageError),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact io error: {e}"),
            ArtifactError::Parse(msg) => write!(f, "artifact parse error: {msg}"),
            ArtifactError::BadMagic { found } => {
                write!(f, "not a flaml artifact (magic {found:?})")
            }
            ArtifactError::Version { found, supported } => {
                write!(
                    f,
                    "artifact format v{found} not supported (this build reads v{supported})"
                )
            }
            ArtifactError::Layout(msg) => write!(f, "artifact layout error: {msg}"),
            ArtifactError::FingerprintMismatch { expected, found } => {
                write!(
                    f,
                    "artifact fingerprint mismatch: header {expected:#018x}, payload {found:#018x}"
                )
            }
            ArtifactError::Unsupported(msg) => write!(f, "model cannot be compiled: {msg}"),
            ArtifactError::Storage(e) => write!(f, "artifact storage error: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            ArtifactError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> ArtifactError {
        ArtifactError::Io(e)
    }
}

impl From<flaml_store::StorageError> for ArtifactError {
    fn from(e: flaml_store::StorageError) -> ArtifactError {
        ArtifactError::Storage(e)
    }
}

impl ArtifactError {
    /// Whether the failure means the device is out of space.
    pub fn is_no_space(&self) -> bool {
        matches!(self, ArtifactError::Storage(e) if e.is_no_space())
    }
}
