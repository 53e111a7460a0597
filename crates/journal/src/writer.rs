//! The append side of the journal: fsync-on-commit JSONL writing.

use crate::record::{JournalHeader, TrialLine};
use flaml_exec::{EventSink, TrialEvent};
use flaml_store::{disk, LineLog, Storage, StorageError};
use serde::Serialize;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Appends journal records with fsync-on-commit: the typed face of
/// [`flaml_store::LineLog`], which owns the commit protocol (write,
/// sync, truncate back to the committed prefix on failure, best-effort
/// sync on drop).
///
/// I/O errors after creation are reported once via
/// [`JournalWriter::take_error`] and otherwise swallowed: persistence
/// must never crash a search mid-run.
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

/// One JSONL line for `record`.
fn to_line<T: Serialize>(
    record: &T,
    op: &'static str,
    path: &Path,
) -> Result<String, StorageError> {
    serde_json::to_string(record).map_err(|e| StorageError::unwritable(op, path, e))
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
    /// committed prefix (discarding any torn tail, so new records can
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

    /// Consumes one trial event, appending a record if it is a committed
    /// terminal event (carries an error and full trial metadata).
    pub fn on_event(&mut self, event: &TrialEvent) {
        if let Some(line) = TrialLine::from_event(event) {
            self.append(&line);
        }
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

    /// Wraps the writer in a synchronous [`EventSink`]: every committed
    /// terminal event emitted into the sink is appended (and fsynced)
    /// before the emitting thread proceeds. Fan this together with live
    /// telemetry sinks via [`EventSink::fanout`]. Use
    /// [`JournalWriter::into_shared`] instead when the caller needs to
    /// observe append errors after the run.
    pub fn into_sink(self) -> EventSink {
        self.into_shared().sink()
    }

    /// Wraps the writer in a [`SharedJournalWriter`], which hands out
    /// sinks *and* keeps a handle for checking [`take_error`] once the
    /// run is over.
    ///
    /// [`take_error`]: SharedJournalWriter::take_error
    pub fn into_shared(self) -> SharedJournalWriter {
        SharedJournalWriter(Arc::new(Mutex::new(self)))
    }
}

/// A clonable handle to a [`JournalWriter`] that separates *writing*
/// (the [`EventSink`] from [`SharedJournalWriter::sink`], handed to the
/// search) from *error observation* ([`SharedJournalWriter::take_error`],
/// checked by the owner after the run). This is how a search turns a
/// mid-run `ENOSPC` into a typed terminal failure instead of silently
/// dropping records.
#[derive(Debug, Clone)]
pub struct SharedJournalWriter(Arc<Mutex<JournalWriter>>);

impl SharedJournalWriter {
    /// A synchronous sink appending committed terminal events to the
    /// shared writer.
    pub fn sink(&self) -> EventSink {
        let writer = Arc::clone(&self.0);
        EventSink::callback(move |event| {
            if let Ok(mut w) = writer.lock() {
                w.on_event(event);
            }
        })
    }

    /// The first append error encountered, if any (taking it resets the
    /// writer's error state).
    pub fn take_error(&self) -> Option<StorageError> {
        self.0.lock().ok().and_then(|mut w| w.take_error())
    }

    /// Bytes known durably committed so far.
    pub fn committed_len(&self) -> u64 {
        self.0.lock().map(|w| w.committed_len()).unwrap_or(0)
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
    fn event_sink_appends_committed_terminals_only() {
        use flaml_exec::{TrialEvent, TrialEventKind, TrialMeta};
        let dir = std::env::temp_dir().join("flaml-journal-sink-test");
        let path = dir.join("run.jsonl");
        let sink = JournalWriter::create(&path, &header()).unwrap().into_sink();

        sink.emit(TrialEvent::new(TrialEventKind::Started));
        let mut ev = TrialEvent::new(TrialEventKind::Finished);
        ev.job_id = 1;
        ev.learner = "lr".into();
        ev.error = Some(0.25);
        ev.cost = Some(0.1);
        ev.meta = Some(TrialMeta {
            mode: "search".into(),
            status: "ok".into(),
            attempt_costs: vec![0.1],
            best_error: 0.25,
            improved: true,
            config_values: vec![0.5],
            ..TrialMeta::default()
        });
        sink.emit(ev.clone());
        // A discarded speculative trial: terminal kind but no error/meta.
        let mut discarded = TrialEvent::new(TrialEventKind::Finished);
        discarded.message = Some("speculative trial discarded".into());
        sink.emit(discarded);
        drop(sink);

        let j = Journal::read(&path).unwrap();
        assert_eq!(j.trials.len(), 1);
        assert_eq!(j.trials[0].learner, "lr");
        assert_eq!(j.trials[0].loss, 0.25);
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
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_writer_reports_errors_after_the_run() {
        use flaml_store::{ChaosStorage, IoFaultPlan};
        let dir = std::env::temp_dir().join("flaml-journal-shared-err");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append(&line(1));
        drop(w);

        let chaotic = ChaosStorage::new(flaml_store::disk(), IoFaultPlan::new(1).enospc(1.0));
        let committed = Journal::read(&path).unwrap().committed_bytes;
        let shared = JournalWriter::resume_with(&chaotic, &path, committed)
            .expect_err("open hits injected ENOSPC");
        assert!(shared.is_no_space());

        // With faults off the shared handle reports no error.
        let shared = JournalWriter::resume(&path, committed)
            .unwrap()
            .into_shared();
        let sink = shared.sink();
        drop(sink);
        assert!(shared.take_error().is_none());
        assert!(shared.committed_len() > 0);
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
