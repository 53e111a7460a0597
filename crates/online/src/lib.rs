//! Streaming AutoML with champion–challenger promotion (ChaCha).
//!
//! Batch FLAML assumes a fixed dataset; this crate handles the online
//! setting of Wu et al. (ICML 2021): data arrives as a stream of chunks
//! whose underlying concept can shift. An [`OnlineSession`] serves a
//! **champion** model and evaluates it prequentially (test-then-train)
//! on every incoming chunk. A seeded, deterministic [`DriftDetector`]
//! watches the champion's per-chunk loss; when the recent losses shift
//! up, the session launches a **challenger round** — a budgeted
//! [`flaml_core::SearchHandle`] search over a sliding window of recent
//! chunks, warm-started from the previous round's best configurations.
//! A [`PromotionPolicy`] promotes the challenger (through the serving
//! registry's publish path) only when it beats the champion on held-out
//! recent data by a configurable margin, and can roll the promotion
//! back if the new champion underperforms during a short probation.
//!
//! Everything the loop decides — chunk fingerprints, per-chunk evals,
//! drift events, round starts, promotions, rejections, rollbacks — is
//! journaled through an fsync-on-commit [`flaml_store::LineLog`] before
//! taking effect, so a `kill -9` at any point resumes to a **byte-identical
//! promotion trace**: the recovered session replays the committed
//! prefix, finishes the interrupted step, and continues exactly as an
//! uninterrupted run would have.
//!
//! ```no_run
//! use flaml_data::Task;
//! use flaml_online::{OnlineConfig, OnlineRuntime, OnlineSession};
//! use flaml_synth::DriftStream;
//!
//! # fn main() -> Result<(), flaml_online::OnlineError> {
//! let stream = DriftStream::new(7);
//! let cfg = OnlineConfig::new(Task::Binary, stream.features);
//! let mut session = OnlineSession::create("streams/demo", cfg, OnlineRuntime::local())?;
//! for i in 0..32 {
//!     session.push_chunk(&stream.chunk(i))?;
//! }
//! println!("{:?}", session.status());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod chunk;
mod drift;
mod journal;
mod promote;
mod session;

pub use chunk::concat_chunks;
pub use drift::{DriftDetector, DriftSignal};
pub use journal::{kind, LogError, OnlineEvent, OnlineHeader, ONLINE_SCHEMA_VERSION};
pub use promote::PromotionPolicy;
pub use session::{
    ChunkOutcome, OnlineConfig, OnlineRuntime, OnlineSession, RoundOutcome, StreamStatus,
};

use flaml_core::{AutoMlError, StorageError};
use flaml_metrics::MetricError;
use std::fmt;

/// Errors from the online layer.
#[derive(Debug)]
pub enum OnlineError {
    /// A storage operation failed; the session is no longer trusted and
    /// must be reopened (see [`OnlineError::Wedged`]).
    Durability(StorageError),
    /// The stream journal could not be read.
    Journal(LogError),
    /// A challenger search failed.
    AutoMl(AutoMlError),
    /// A model evaluation failed.
    Metric(MetricError),
    /// An incoming chunk does not match the stream's schema.
    SchemaMismatch {
        /// The schema the stream was created with.
        expected: String,
        /// The schema of the offending chunk.
        got: String,
    },
    /// Durable state failed validation (bad header, fingerprint
    /// mismatch, missing window chunk…).
    Corrupt(String),
    /// An invalid [`OnlineConfig`].
    Config(String),
    /// A previous push failed mid-chunk; in-memory state may be ahead
    /// of or behind the journal. Reopen the session with
    /// [`OnlineSession::open`] to recover.
    Wedged,
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::Durability(e) => write!(f, "storage failure: {e}"),
            OnlineError::Journal(e) => write!(f, "stream journal unreadable: {e}"),
            OnlineError::AutoMl(e) => write!(f, "challenger search failed: {e}"),
            OnlineError::Metric(e) => write!(f, "evaluation failed: {e}"),
            OnlineError::SchemaMismatch { expected, got } => {
                write!(f, "chunk schema mismatch: expected {expected}, got {got}")
            }
            OnlineError::Corrupt(msg) => write!(f, "stream state corrupt: {msg}"),
            OnlineError::Config(msg) => write!(f, "invalid online config: {msg}"),
            OnlineError::Wedged => {
                write!(f, "session wedged by an earlier failure; reopen to recover")
            }
        }
    }
}

impl std::error::Error for OnlineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OnlineError::Durability(e) => Some(e),
            OnlineError::Journal(e) => Some(e),
            OnlineError::AutoMl(e) => Some(e),
            OnlineError::Metric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for OnlineError {
    fn from(e: StorageError) -> OnlineError {
        OnlineError::Durability(e)
    }
}

impl From<MetricError> for OnlineError {
    fn from(e: MetricError) -> OnlineError {
        OnlineError::Metric(e)
    }
}
