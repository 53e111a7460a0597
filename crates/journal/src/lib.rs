//! Crash-safe trial journal: an append-only write-ahead log of AutoML
//! trials, plus the machinery to read it back for resume, replay and
//! warm-starting (the Rust counterpart of the Python FLAML's
//! `log_file_name` / `retrain_from_log` persistence).
//!
//! # Format
//!
//! A journal is a JSONL file: the first line is a [`JournalHeader`]
//! (schema version, run configuration fingerprint, dataset fingerprint),
//! every following line is one committed [`TrialLine`]. Records are
//! appended by a [`JournalWriter`] with **fsync-on-commit**: a record is
//! durable before the search proceeds past the trial it describes, so a
//! crash can lose at most the record being written when the process died.
//!
//! # Crash safety
//!
//! The reader ([`Journal::read`]) is *torn-tail tolerant*: a record
//! counts as committed only if it is newline-terminated and parses; at
//! the first corrupt or truncated line the reader stops and returns the
//! maximal committed prefix, never an error. A journal interrupted at any
//! byte therefore loses at most the one trial whose write was torn.
//!
//! # Who writes
//!
//! The search controller owns its [`JournalWriter`] and calls
//! [`JournalWriter::append`] itself when it commits a trial, then checks
//! [`JournalWriter::take_error`]: a failed append fails that commit with
//! a typed error, before any telemetry event describes the trial. The
//! journal is not a telemetry consumer and this crate does not know the
//! event types.

#![warn(missing_docs)]

mod reader;
mod record;
mod writer;

pub use reader::{Journal, JournalError};
pub use record::{DatasetInfo, JournalHeader, TrialLine, SCHEMA_VERSION};
pub use writer::JournalWriter;
