//! The append side of the journal: fsync-on-commit JSONL writing.

use crate::record::{JournalHeader, TrialLine};
use flaml_store::{disk, to_line, LineLog, Storage, StorageError};
use std::io;
use std::path::{Path, PathBuf};

/// Appends journal records with fsync-on-commit: the typed face of
/// [`flaml_store::LineLog`], which owns the commit protocol (write,
/// sync, truncate back to the committed prefix on failure, best-effort
/// sync on drop).
///
/// A failed [`JournalWriter::append`] does not panic or return: the
/// error is latched for [`JournalWriter::take_error`], which the owner
/// checks right after the append (the search controller fails the
/// commit with it).
///
/// All I/O goes through a [`Storage`] handle — [`flaml_store::DiskStorage`]
/// by default, or a chaos wrapper in fault-injection tests (the `_with`
/// constructors).
#[derive(Debug)]
pub struct JournalWriter {
    log: LineLog,
    path: PathBuf,
    /// First storage error encountered while appending, if any.
    error: Option<StorageError>,
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path` and durably writes its
    /// header record. Parent directories are created as needed.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or syncing the file.
    pub fn create(path: impl AsRef<Path>, header: &JournalHeader) -> io::Result<JournalWriter> {
        JournalWriter::create_with(disk().as_ref(), path.as_ref(), header).map_err(io::Error::from)
    }

    /// [`JournalWriter::create`] against an explicit [`Storage`].
    ///
    /// # Errors
    ///
    /// Returns the typed storage failure from creating or syncing.
    pub fn create_with(
        storage: &dyn Storage,
        path: &Path,
        header: &JournalHeader,
    ) -> Result<JournalWriter, StorageError> {
        let header = to_line(header, "serialize-header", path)?;
        Ok(JournalWriter {
            log: LineLog::create(storage, path, &header)?,
            path: path.to_path_buf(),
            error: None,
        })
    }

    /// Reopens a journal for a resumed run: truncates the file to its
    /// committed prefix (dropping any torn tail, so new records can
    /// never glue onto torn bytes) and appends after it. Pass the
    /// `committed_bytes` reported by [`crate::Journal::read`].
    ///
    /// # Errors
    ///
    /// Returns any I/O error from opening, truncating, or syncing.
    pub fn resume(path: impl AsRef<Path>, committed_bytes: u64) -> io::Result<JournalWriter> {
        JournalWriter::resume_with(disk().as_ref(), path.as_ref(), committed_bytes)
            .map_err(io::Error::from)
    }

    /// [`JournalWriter::resume`] against an explicit [`Storage`].
    ///
    /// # Errors
    ///
    /// Returns the typed storage failure from opening, truncating, or
    /// syncing.
    pub fn resume_with(
        storage: &dyn Storage,
        path: &Path,
        committed_bytes: u64,
    ) -> Result<JournalWriter, StorageError> {
        Ok(JournalWriter {
            log: LineLog::resume(storage, path, committed_bytes)?,
            path: path.to_path_buf(),
            error: None,
        })
    }

    /// Appends one committed trial record durably. A failed append is
    /// recorded (see [`JournalWriter::take_error`]) but does not panic.
    pub fn append(&mut self, line: &TrialLine) {
        if self.error.is_some() {
            return;
        }
        let committed =
            to_line(line, "serialize-record", &self.path).and_then(|json| self.log.append(&json));
        self.error = committed.err();
    }

    /// The first append error encountered, if any (taking it resets the
    /// writer's error state).
    pub fn take_error(&mut self) -> Option<StorageError> {
        self.error.take()
    }

    /// Bytes known durably committed so far.
    pub fn committed_len(&self) -> u64 {
        self.log.committed_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::Journal;
    use crate::record::{DatasetInfo, SCHEMA_VERSION};

    fn header() -> JournalHeader {
        JournalHeader {
            schema_version: SCHEMA_VERSION,
            seed: 7,
            time_budget: 1.0,
            max_trials: Some(10),
            sample_size_init: 100,
            sampling: true,
            learner_selection: "eci".into(),
            resample: "auto".into(),
            metric: "".into(),
            estimators: vec!["lightgbm".into(), "lr".into()],
            time_source: "virtual".into(),
            dataset: DatasetInfo {
                name: "t".into(),
                task: "binary".into(),
                rows: 100,
                features: 2,
                fingerprint: 0xfeed,
            },
        }
    }

    fn line(iter: usize) -> TrialLine {
        TrialLine {
            iter,
            learner: "lightgbm".into(),
            config: "x=1".into(),
            config_values: vec![1.0],
            sample_size: 100,
            loss: 0.5 / iter as f64,
            status: "ok".into(),
            mode: "search".into(),
            attempts: 0,
            attempt_costs: vec![0.1],
            cost: 0.1,
            total_time: 0.1 * iter as f64,
            wall_secs: 0.0,
            prepared_hits: 0,
            prepared_misses: 0,
            prepared_evictions: 0,
            bytes_copied_saved: 0,
            tree_cache_hits: 0,
            tree_cache_misses: 0,
            trees_saved: 0,
            seed: 7,
            improved: true,
            best_loss: 0.5 / iter as f64,
        }
    }

    #[test]
    fn create_append_read_round_trip() {
        let dir = std::env::temp_dir().join("flaml-journal-writer-test");
        let path = dir.join("run.jsonl");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append(&line(1));
        w.append(&line(2));
        assert!(w.take_error().is_none());
        drop(w);

        let committed = Journal::read(&path).unwrap().committed_bytes;
        let mut w = JournalWriter::resume(&path, committed).unwrap();
        w.append(&line(3));
        drop(w);

        let j = Journal::read(&path).unwrap();
        assert_eq!(j.header, header());
        assert_eq!(j.trials.len(), 3);
        assert_eq!(j.trials[2], line(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_append_truncates_to_committed_prefix_and_latches() {
        use flaml_store::{ChaosStorage, DiskStorage, IoFaultPlan};
        let dir = std::env::temp_dir().join("flaml-journal-chaos-append");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");

        // Count the ops of one clean append so the chaos run can fault
        // exactly the second record's write.
        let clean = ChaosStorage::new(flaml_store::disk(), IoFaultPlan::new(0));
        let mut w = JournalWriter::create_with(&clean, &path, &header()).unwrap();
        let after_create = clean.ops_issued();
        w.append(&line(1));
        let per_append = clean.ops_issued() - after_create;
        drop(w);

        // Short-write every op: header creation would fail, so create
        // cleanly first, then reopen under chaos for the append.
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append(&line(1));
        drop(w);
        let committed = Journal::read(&path).unwrap().committed_bytes;

        let chaotic = ChaosStorage::new(flaml_store::disk(), IoFaultPlan::new(3).short_writes(1.0));
        let mut w = JournalWriter::resume_with(&chaotic, &path, committed).unwrap();
        w.append(&line(2));
        let err = w.take_error().expect("the torn append is reported");
        assert!(matches!(err, StorageError::TornWrite { .. }), "{err}");
        drop(w);
        assert!(per_append >= 1);

        // The file is exactly its committed prefix — no torn bytes —
        // and reads back as the one committed record.
        assert_eq!(DiskStorage.file_len(&path).unwrap(), committed);
        let j = Journal::read(&path).unwrap();
        assert_eq!(j.trials.len(), 1);
        assert_eq!(j.committed_bytes, committed);

        // A failure while reopening is returned, typed, not latched.
        let full = ChaosStorage::new(flaml_store::disk(), IoFaultPlan::new(1).enospc(1.0));
        let err = JournalWriter::resume_with(&full, &path, committed).unwrap_err();
        assert!(err.is_no_space(), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The file a fixed header and three records produce, byte for
    /// byte. The expected text was captured at 647bf4f (the commit
    /// before the writer moved onto `flaml_store::LineLog`) by running
    /// exactly this sequence and printing the file; the determinism
    /// suites compare run against run inside one build and would not
    /// see the format drift.
    #[test]
    fn golden_file_bytes_are_unchanged() {
        const GOLDEN: &str = concat!(
            r#"{"schema_version":1,"seed":7,"time_budget":1,"max_trials":10,"sample_size_init":100,"sampling":true,"learner_selection":"eci","resample":"auto","metric":"","estimators":["lightgbm","lr"],"time_source":"virtual","dataset":{"name":"t","task":"binary","rows":100,"features":2,"fingerprint":65261}}"#,
            "\n",
            r#"{"iter":1,"learner":"lightgbm","config":"x=1","config_values":[1],"sample_size":100,"loss":0.5,"status":"ok","mode":"search","attempts":0,"attempt_costs":[0.1],"cost":0.1,"total_time":0.1,"wall_secs":0,"prepared_hits":0,"prepared_misses":0,"prepared_evictions":0,"bytes_copied_saved":0,"tree_cache_hits":0,"tree_cache_misses":0,"trees_saved":0,"seed":7,"improved":true,"best_loss":0.5}"#,
            "\n",
            r#"{"iter":2,"learner":"lightgbm","config":"x=1","config_values":[1],"sample_size":100,"loss":0.25,"status":"ok","mode":"search","attempts":0,"attempt_costs":[0.1],"cost":0.1,"total_time":0.2,"wall_secs":0,"prepared_hits":0,"prepared_misses":0,"prepared_evictions":0,"bytes_copied_saved":0,"tree_cache_hits":0,"tree_cache_misses":0,"trees_saved":0,"seed":7,"improved":true,"best_loss":0.25}"#,
            "\n",
            r#"{"iter":3,"learner":"lightgbm","config":"x=1","config_values":[1],"sample_size":100,"loss":0.16666666666666666,"status":"ok","mode":"search","attempts":0,"attempt_costs":[0.1],"cost":0.1,"total_time":0.30000000000000004,"wall_secs":0,"prepared_hits":0,"prepared_misses":0,"prepared_evictions":0,"bytes_copied_saved":0,"tree_cache_hits":0,"tree_cache_misses":0,"trees_saved":0,"seed":7,"improved":true,"best_loss":0.16666666666666666}"#,
            "\n",
        );
        let dir = std::env::temp_dir().join("flaml-journal-golden");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("run.jsonl");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        for i in 1..=3 {
            w.append(&line(i));
        }
        assert_eq!(w.committed_len(), GOLDEN.len() as u64);
        drop(w);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), GOLDEN);
        std::fs::remove_dir_all(&dir).ok();
    }
}
