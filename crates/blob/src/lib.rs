//! Binary model artifacts.
//!
//! The JSON artifact (`flaml-serve`) is the portable interchange form:
//! human-inspectable, schema-tolerant, byte-order-free. This crate adds
//! the *serving* form — a versioned, little-endian blob with one
//! 64-byte-aligned section per [`CompiledModel`] structure-of-arrays
//! node slab. Opening one is a file read + header validation + an
//! FNV-1a fingerprint pass + a straight little-endian decode of each
//! section into an owned [`CompiledModel`]: no text to parse.
//!
//! The contract that makes the format safe to prefer is
//! **bit-identity**: a [`BlobModel`] predicts exactly the same bits as
//! the JSON-loaded [`CompiledModel`] for every learner, because both
//! loaders produce the same representation, pass the same
//! [`CompiledModel::check`] and feed the single evaluator. The one layout
//! option ([`BlobOptions`]) keeps that contract by construction: f32
//! quantization is only applied to slabs whose every value round-trips
//! `f64 → f32 → f64` bit-exactly (widening reads then restore the
//! original doubles). Blobs that older builds wrote in hot-first node
//! order ([`FLAG_HOT_FIRST`]) still open and predict the same bits.
//!
//! ```no_run
//! use flaml_blob::{save_blob, BlobModel, BlobOptions};
//! # fn demo(compiled: flaml_serve::CompiledModel, request: flaml_data::DatasetView) {
//! save_blob(&compiled, "model.artifact.blob", BlobOptions::tuned()).unwrap();
//! let blob = BlobModel::open("model.artifact.blob").unwrap();
//! let pred = blob.predict(&request); // bit-identical to compiled.predict
//! # let _ = pred;
//! # }
//! ```

#![warn(missing_docs)]

mod format;
mod model;

pub use format::{
    blob_fingerprint, encode_blob, save_blob, save_blob_with, BlobOptions, BLOB_ALIGN, BLOB_MAGIC,
    BLOB_VERSION, ENDIAN_MARK, FLAG_HOT_FIRST, FLAG_QUANTIZED,
};
pub use model::BlobModel;

// The error and model types a blob consumer needs, so depending on
// `flaml-serve` directly is optional.
pub use flaml_serve::{ArtifactError, CompiledModel};

use flaml_store::Storage;
use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// Which on-disk artifact representation to write.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ArtifactFormat {
    /// The portable JSON document (`.artifact.json`) — default.
    #[default]
    Json,
    /// The binary blob (`.artifact.blob`).
    Blob,
}

impl ArtifactFormat {
    /// Every supported format, in preference order for loading (blob
    /// first: loaders that find both siblings take the cheaper one).
    pub const ALL: [ArtifactFormat; 2] = [ArtifactFormat::Blob, ArtifactFormat::Json];

    /// The file-name suffix artifacts of this format carry.
    pub fn suffix(self) -> &'static str {
        match self {
            ArtifactFormat::Json => ".artifact.json",
            ArtifactFormat::Blob => ".artifact.blob",
        }
    }

    /// Publishes `model` at `path` in this format (atomically, through
    /// `storage`), returning the artifact fingerprint: the payload
    /// fingerprint of a JSON document, the whole-file fingerprint of a
    /// blob. Blobs use the tuned layout (exact-only quantization), which
    /// changes no predicted bit.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Storage`] on persistence failures.
    pub fn save_with(
        self,
        storage: &dyn Storage,
        path: &Path,
        model: &CompiledModel,
    ) -> Result<u64, ArtifactError> {
        match self {
            ArtifactFormat::Json => model.save_with(storage, path),
            ArtifactFormat::Blob => save_blob_with(storage, path, model, BlobOptions::tuned()),
        }
    }

    /// Reads and verifies the artifact of this format at `path`.
    ///
    /// # Errors
    ///
    /// As [`CompiledModel::load_with`] / [`BlobModel::open_with`].
    pub fn load_with(
        self,
        storage: &dyn Storage,
        path: &Path,
    ) -> Result<CompiledModel, ArtifactError> {
        match self {
            ArtifactFormat::Json => CompiledModel::load_with(storage, path),
            ArtifactFormat::Blob => BlobModel::open_with(storage, path).map(CompiledModel::from),
        }
    }

    /// The CLI name (`json` / `blob`).
    pub fn as_str(self) -> &'static str {
        match self {
            ArtifactFormat::Json => "json",
            ArtifactFormat::Blob => "blob",
        }
    }
}

impl fmt::Display for ArtifactFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ArtifactFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<ArtifactFormat, String> {
        match s {
            "json" => Ok(ArtifactFormat::Json),
            "blob" => Ok(ArtifactFormat::Blob),
            other => Err(format!("unknown artifact format {other:?} (json|blob)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_names_round_trip() {
        for f in ArtifactFormat::ALL {
            assert_eq!(f.as_str().parse::<ArtifactFormat>().unwrap(), f);
        }
        assert!("yaml".parse::<ArtifactFormat>().is_err());
        assert_eq!(ArtifactFormat::default(), ArtifactFormat::Json);
    }

    #[test]
    fn suffixes_are_distinct_siblings() {
        assert_ne!(ArtifactFormat::Json.suffix(), ArtifactFormat::Blob.suffix());
        for f in ArtifactFormat::ALL {
            assert!(f.suffix().starts_with(".artifact."));
        }
    }
}
