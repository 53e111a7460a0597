//! The one durable line log of the stack: an append-only file of
//! newline-terminated records under an fsync-on-commit protocol, and
//! the committed-prefix reader that is its other half.
//!
//! The trial journal (`flaml-journal`) and the stream journal
//! (`flaml-online`) are both instances: each serialises its own header
//! and record types to one line apiece through [`to_line`] and maps the
//! errors; how a line commits, how a failed append is undone and what a reader may trust
//! after a crash are decided here and nowhere else.
//!
//! **Commit.** [`LineLog::append`] writes `line + '\n'` and then
//! `sync_data`s before returning, so a record the caller has seen
//! committed survives a kill or power loss. If either step fails the
//! file is truncated back to the committed prefix, so torn bytes can
//! never glue onto a later record.
//!
//! **Read.** A line counts as committed only if it is
//! newline-terminated, valid UTF-8 *and* accepted by the caller's
//! parser. [`read_log`] stops at the first line failing any of these
//! and reports the byte length of the prefix before it; a crash at any
//! byte therefore costs at most the record being written.
//!
//! **Resume.** [`LineLog::resume`] truncates the file to that length
//! before appending after it.

use serde::Serialize;
use std::fmt;
use std::path::Path;

use crate::{create_parent_dir, Storage, StorageError, StorageFile};

/// One log line for `record`: its JSON, without the newline. A record
/// that does not serialise is the typed failure of `op` on `path`.
///
/// # Errors
///
/// [`StorageError::unwritable`] when serialisation fails.
pub fn to_line<T: Serialize>(
    record: &T,
    op: &'static str,
    path: &Path,
) -> Result<String, StorageError> {
    serde_json::to_string(record).map_err(|e| StorageError::unwritable(op, path, e))
}

/// The append side of a line log.
#[derive(Debug)]
pub struct LineLog {
    file: Box<dyn StorageFile>,
    /// Bytes known durably committed (header + fsynced records).
    committed_len: u64,
}

impl LineLog {
    /// Creates (truncating) the log at `path`, creating parent
    /// directories as needed, and durably commits `header_line` as its
    /// first line.
    ///
    /// # Errors
    ///
    /// The storage failure from creating, writing or syncing.
    pub fn create(
        storage: &dyn Storage,
        path: &Path,
        header_line: &str,
    ) -> Result<LineLog, StorageError> {
        create_parent_dir(storage, path)?;
        let mut log = LineLog {
            file: storage.create(path)?,
            committed_len: 0,
        };
        log.append(header_line)?;
        Ok(log)
    }

    /// Reopens an existing log for a resumed run: truncates the file to
    /// `committed_bytes` (as reported by [`read_log`]), dropping any
    /// torn tail, and appends after it.
    ///
    /// # Errors
    ///
    /// The storage failure from truncating or opening.
    pub fn resume(
        storage: &dyn Storage,
        path: &Path,
        committed_bytes: u64,
    ) -> Result<LineLog, StorageError> {
        storage.truncate_file(path, committed_bytes)?;
        Ok(LineLog {
            file: storage.append(path)?,
            committed_len: committed_bytes,
        })
    }

    /// Appends one record durably: the line is on disk before this
    /// returns `Ok`. `line` must not contain a newline.
    ///
    /// # Errors
    ///
    /// The storage failure from writing or syncing; the file is first
    /// truncated back to its committed prefix (if even that fails, the
    /// reader's torn-tail tolerance still covers recovery).
    pub fn append(&mut self, line: &str) -> Result<(), StorageError> {
        debug_assert!(!line.contains('\n'), "a record is exactly one line");
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        let commit = self
            .file
            .write_all(&buf)
            .and_then(|()| self.file.sync_data());
        match commit {
            Ok(()) => {
                self.committed_len += buf.len() as u64;
                Ok(())
            }
            Err(e) => {
                let _ = self.file.truncate(self.committed_len);
                Err(e)
            }
        }
    }

    /// Bytes known durably committed so far.
    pub fn committed_len(&self) -> u64 {
        self.committed_len
    }
}

impl Drop for LineLog {
    fn drop(&mut self) {
        // Best-effort durability on shutdown: errors are unreportable
        // here and every committed append already fsynced itself.
        let _ = self.file.sync_data();
    }
}

/// A line log read back: its header, every committed record, and the
/// byte length of that committed prefix (trailing newlines included).
#[derive(Debug, Clone, PartialEq)]
pub struct CommittedLog<H, R> {
    /// The parsed first line.
    pub header: H,
    /// Committed records, in commit order.
    pub records: Vec<R>,
    /// What to pass to [`LineLog::resume`].
    pub committed_bytes: u64,
}

/// Why a line log has no usable committed prefix. A torn or corrupt
/// *record* is not here: it ends the prefix, it does not fail the read.
#[derive(Debug)]
pub enum LogReadError {
    /// The file could not be read.
    Storage(StorageError),
    /// The file is empty or its first line never got its newline: no
    /// header was ever durably committed.
    NoHeader,
    /// A complete first line exists but the header parser refused it
    /// (its message is carried).
    BadHeader(String),
}

impl fmt::Display for LogReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogReadError::Storage(e) => write!(f, "{e}"),
            LogReadError::NoHeader => write!(f, "empty or truncated first line"),
            LogReadError::BadHeader(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for LogReadError {}

/// Reads the committed prefix of the line log at `path`.
/// `parse_header` sees the first line, `parse_record` every later one;
/// reading stops at the first line that is unterminated, not UTF-8, or
/// for which `parse_record` returns `None` — everything after the first
/// damage is suspect.
///
/// # Errors
///
/// See [`LogReadError`].
pub fn read_log<H, R>(
    storage: &dyn Storage,
    path: &Path,
    parse_header: impl FnOnce(&str) -> Result<H, String>,
    mut parse_record: impl FnMut(&str) -> Option<R>,
) -> Result<CommittedLog<H, R>, LogReadError> {
    let bytes = storage.read(path).map_err(LogReadError::Storage)?;
    // A final line without its `\n` is a torn write: `split_inclusive`
    // yields it last, and `strip_suffix` refuses it.
    let mut lines = bytes
        .split_inclusive(|&b| b == b'\n')
        .map_while(|line| line.strip_suffix(b"\n"));
    let header_line = lines.next().ok_or(LogReadError::NoHeader)?;
    let header = std::str::from_utf8(header_line)
        .map_err(|e| e.to_string())
        .and_then(parse_header)
        .map_err(LogReadError::BadHeader)?;
    let mut committed_bytes = header_line.len() as u64 + 1;
    let mut records = Vec::new();
    for line in lines {
        let Some(record) = std::str::from_utf8(line).ok().and_then(&mut parse_record) else {
            break;
        };
        records.push(record);
        committed_bytes += line.len() as u64 + 1;
    }
    Ok(CommittedLog {
        header,
        records,
        committed_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{disk, ChaosStorage, DiskStorage, IoFaultPlan};
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("flaml-store-log-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Header `h<digits>`, records `r<digits>`; anything else is damage.
    fn read(path: &Path) -> Result<CommittedLog<u32, u32>, LogReadError> {
        read_log(
            &DiskStorage,
            path,
            |l| {
                l.strip_prefix('h')
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| format!("bad header {l:?}"))
            },
            |l| l.strip_prefix('r')?.parse().ok(),
        )
    }

    fn write_three(path: &Path) -> u64 {
        let mut log = LineLog::create(&DiskStorage, path, "h1").unwrap();
        for r in ["r10", "r200", "r3000"] {
            log.append(r).unwrap();
        }
        log.committed_len()
    }

    #[test]
    fn round_trip_reports_every_record_and_the_exact_length() {
        let dir = scratch("round-trip");
        let path = dir.join("nested/log.jsonl");
        let committed = write_three(&path);
        assert_eq!(std::fs::read(&path).unwrap(), b"h1\nr10\nr200\nr3000\n");
        let log = read(&path).unwrap();
        assert_eq!(log.header, 1);
        assert_eq!(log.records, vec![10, 200, 3000]);
        assert_eq!(log.committed_bytes, committed);
        assert_eq!(committed, 18);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tail_torn_at_any_byte_of_the_last_record_is_dropped() {
        let dir = scratch("torn-tail");
        let path = dir.join("log.jsonl");
        write_three(&path);
        let full = std::fs::read(&path).unwrap();
        let before_last = full.len() - "r3000\n".len();
        for cut in before_last..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let log = read(&path).unwrap();
            assert_eq!(log.records, vec![10, 200], "cut at byte {cut}");
            assert_eq!(log.committed_bytes, before_last as u64, "cut at byte {cut}");

            // Resuming truncates the torn bytes away and the next
            // record lands cleanly after the committed prefix.
            let mut resumed = LineLog::resume(&DiskStorage, &path, log.committed_bytes).unwrap();
            resumed.append("r7").unwrap();
            drop(resumed);
            assert_eq!(std::fs::read(&path).unwrap(), b"h1\nr10\nr200\nr7\n");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_in_the_middle_ends_the_prefix_there() {
        let dir = scratch("middle");
        let path = dir.join("log.jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, b"h1\nr1\ngarbage\nr3\n").unwrap();
        let log = read(&path).unwrap();
        assert_eq!(log.records, vec![1], "records after damage are suspect");
        assert_eq!(log.committed_bytes, 6);
        // Bytes that are not UTF-8 are damage too, never a panic.
        std::fs::write(&path, b"h1\nr1\nr\xff2\nr3\n").unwrap();
        assert_eq!(read(&path).unwrap().records, vec![1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_torn_and_unparseable_headers_are_told_apart() {
        let dir = scratch("header");
        let path = dir.join("log.jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(read(&path), Err(LogReadError::Storage(_))));
        for torn in [&b""[..], b"h", b"h1"] {
            std::fs::write(&path, torn).unwrap();
            assert!(matches!(read(&path), Err(LogReadError::NoHeader)));
        }
        for bad in [&b"x1\n"[..], b"h\xff\n", b"\n"] {
            std::fs::write(&path, bad).unwrap();
            assert!(matches!(read(&path), Err(LogReadError::BadHeader(_))));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_write_or_sync_leaves_exactly_the_committed_prefix() {
        let dir = scratch("failed-append");
        let path = dir.join("log.jsonl");
        let committed = write_three(&path);
        for (what, plan) in [
            ("short write", IoFaultPlan::new(3).short_writes(1.0)),
            ("failed sync", IoFaultPlan::new(3).sync_fails(1.0)),
        ] {
            let chaos = ChaosStorage::new(disk(), plan);
            let mut log = LineLog::resume(&chaos, &path, committed).unwrap();
            let err = log.append("r44444444").expect_err(what);
            assert!(
                matches!(
                    err,
                    StorageError::TornWrite { .. } | StorageError::SyncFailed { .. }
                ),
                "{what}: {err}"
            );
            assert_eq!(log.committed_len(), committed, "{what}");
            drop(log);
            assert_eq!(
                std::fs::read(&path).unwrap(),
                b"h1\nr10\nr200\nr3000\n",
                "{what}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_entry_point_issues_its_fixed_sequence_of_mutating_ops() {
        // Crashpoint sweeps enumerate these indices; a change here
        // renumbers every recorded crash.
        let dir = scratch("ops");
        let path = dir.join("log.jsonl");
        let chaos = ChaosStorage::new(disk(), IoFaultPlan::new(0));
        let mut log = LineLog::create(&chaos, &path, "h1").unwrap();
        assert_eq!(chaos.ops_issued(), 4, "mkdir + create + write + sync");
        log.append("r1").unwrap();
        assert_eq!(chaos.ops_issued(), 6, "write + sync");
        drop(log);
        assert_eq!(chaos.ops_issued(), 7, "sync on drop");
        let log = LineLog::resume(&chaos, &path, 6).unwrap();
        assert_eq!(chaos.ops_issued(), 9, "truncate + open");
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
