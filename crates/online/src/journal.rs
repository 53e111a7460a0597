//! The stream journal: a durable, torn-tail-tolerant record of the
//! online loop's every decision.
//!
//! One JSONL file per stream: a header line (the stream's full
//! configuration — the durable source of truth a recovering process
//! reopens with) followed by one [`OnlineEvent`] per state transition:
//! chunk ingested, champion evaluated, drift detected, challenger round
//! started, promotion / rejection / rollback decided. Events carry no
//! wall-clock time and no process-local identifiers, so the byte
//! content of the journal is a pure function of the stream's chunks and
//! configuration — the property the determinism suite asserts across
//! worker counts and kill-and-resume runs.
//!
//! The file is a [`flaml_store::LineLog`]: how a line commits, how a
//! failed append is undone and what a reader may trust after a crash
//! are that type's contract (DESIGN.md §15). This module only says what
//! a line holds — [`flaml_store::to_line`] out, [`read_log`] back in.

use flaml_store::{CommittedLog, LogReadError, Storage, StorageError};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Stream-journal schema version.
pub const ONLINE_SCHEMA_VERSION: u32 = 1;

/// First line of a stream journal: the full stream configuration.
/// Recovery rebuilds an [`crate::OnlineConfig`] from this, so the
/// journal alone (plus the persisted window chunks and champion
/// artifacts next to it) is sufficient to resume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineHeader {
    /// Schema version ([`ONLINE_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Master seed for challenger searches.
    pub seed: u64,
    /// Task name as printed by [`flaml_data::Task::wire_name`].
    pub task: String,
    /// Features per chunk row.
    pub features: usize,
    /// Evaluation metric name ([`flaml_metrics::Metric::name`]).
    pub metric: String,
    /// Learner names searched by challenger rounds.
    pub estimators: Vec<String>,
    /// Sliding-window length in chunks.
    pub window_chunks: usize,
    /// Most recent chunks held out from challenger training.
    pub holdout_chunks: usize,
    /// Chunks accumulated before the first (warmup) round.
    pub warmup_chunks: usize,
    /// Drift-detector recent-window length.
    pub drift_window: usize,
    /// Drift-detector loss-shift threshold.
    pub drift_threshold: f64,
    /// Loss margin a challenger must beat the champion by.
    pub promote_margin: f64,
    /// Post-promotion probation length in chunks (0 = no rollback).
    pub probation_chunks: usize,
    /// Scheduled challenger rounds every N chunks (0 = drift-only).
    pub refresh_every: usize,
    /// Virtual-seconds budget per challenger search.
    pub round_budget: f64,
    /// Trial cap per challenger search.
    pub round_trials: usize,
}

/// Event kinds, as stored in [`OnlineEvent::kind`].
pub mod kind {
    /// A chunk was ingested (fingerprint + rows recorded).
    pub const CHUNK: &str = "chunk";
    /// A model (champion, or the previous champion during probation)
    /// was evaluated on the incoming chunk.
    pub const EVAL: &str = "eval";
    /// The drift detector fired.
    pub const DRIFT: &str = "drift";
    /// A challenger round started (its search journal is durable state).
    pub const ROUND: &str = "round";
    /// A challenger was promoted to champion.
    pub const PROMOTE: &str = "promote";
    /// A challenger lost to the champion.
    pub const REJECT: &str = "reject";
    /// Probation failed; the previous champion was restored.
    pub const ROLLBACK: &str = "rollback";
}

/// One committed state transition of the online loop. A single flat
/// struct (rather than a tagged enum) keeps the serialized layout
/// identical across kinds; unused fields are zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineEvent {
    /// Event kind (see [`kind`]).
    pub kind: String,
    /// Index of the chunk during whose processing the event happened.
    pub chunk: usize,
    /// Chunk fingerprint ([`flaml_data::Dataset::fingerprint`]);
    /// `chunk` events only.
    pub fingerprint: u64,
    /// Chunk rows; `chunk` events only.
    pub rows: usize,
    /// Champion era the event concerns (1-based; `eval`, `promote`,
    /// `rollback`).
    pub era: u64,
    /// Challenger round index (1-based; `round`, `promote`, `reject`).
    pub round: u64,
    /// Per-chunk eval loss (`eval`), or the challenger's held-out loss
    /// (`promote` / `reject`).
    pub loss: f64,
    /// Drift baseline mean (`drift`), or the champion's held-out loss
    /// (`promote` / `reject`; infinite when there was no champion).
    pub baseline: f64,
    /// Drift recent-window mean (`drift` events only).
    pub recent: f64,
    /// Round trigger ("warmup" | "drift" | "scheduled"); `round` and
    /// `promote` events.
    pub reason: String,
    /// Era-based version now served (`promote`: the new era;
    /// `rollback`: the era rolled back to).
    pub version: u64,
    /// Era served before the event (0 = none) — the exact rollback
    /// target recorded at promotion time.
    pub previous: u64,
    /// Champion artifact fingerprint (`promote` events only).
    pub model_fp: u64,
}

impl OnlineEvent {
    /// A zeroed event of `kind` for chunk `chunk`.
    pub fn new(kind: &str, chunk: usize) -> OnlineEvent {
        OnlineEvent {
            kind: kind.to_string(),
            chunk,
            fingerprint: 0,
            rows: 0,
            era: 0,
            round: 0,
            loss: 0.0,
            baseline: 0.0,
            recent: 0.0,
            reason: String::new(),
            version: 0,
            previous: 0,
            model_fp: 0,
        }
    }
}

/// Why a stream journal could not be opened. Torn trailing *events* are
/// not an error (the reader truncates to the committed prefix); only a
/// missing file, an unparseable header, or a wrong schema version is.
#[derive(Debug)]
pub enum LogError {
    /// The file does not exist, or its header line never committed
    /// (a crash before the first sync) — either way, no stream state
    /// was ever durable and the caller may recreate from scratch.
    Missing,
    /// A storage failure reading or writing.
    Storage(StorageError),
    /// A complete header line exists but does not parse, or the schema
    /// version is unsupported: the journal is damaged beyond resume.
    Corrupt(String),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Missing => write!(f, "stream journal missing or header never committed"),
            LogError::Storage(e) => write!(f, "stream journal storage error: {e}"),
            LogError::Corrupt(msg) => write!(f, "stream journal corrupt: {msg}"),
        }
    }
}

impl std::error::Error for LogError {}

/// Reads a stream journal's committed prefix (see [`LogError`]).
///
/// # Errors
///
/// [`LogError::Missing`] when no committed header exists,
/// [`LogError::Corrupt`] for header damage, [`LogError::Storage`] for
/// read failures.
pub(crate) fn read_log(
    storage: &dyn Storage,
    path: &Path,
) -> Result<CommittedLog<OnlineHeader, OnlineEvent>, LogError> {
    if !storage.exists(path) {
        return Err(LogError::Missing);
    }
    let log = flaml_store::read_log(
        storage,
        path,
        |line| serde_json::from_str::<OnlineHeader>(line).map_err(|e| format!("bad header: {e}")),
        |line| serde_json::from_str::<OnlineEvent>(line).ok(),
    )
    .map_err(|e| match e {
        LogReadError::Storage(e) => LogError::Storage(e),
        // Nothing was ever durably committed.
        LogReadError::NoHeader => LogError::Missing,
        LogReadError::BadHeader(msg) => LogError::Corrupt(msg),
    })?;
    if log.header.schema_version != ONLINE_SCHEMA_VERSION {
        return Err(LogError::Corrupt(format!(
            "schema version {} unsupported (reader speaks {ONLINE_SCHEMA_VERSION})",
            log.header.schema_version
        )));
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flaml_store::{disk, to_line, LineLog};

    fn header() -> OnlineHeader {
        OnlineHeader {
            schema_version: ONLINE_SCHEMA_VERSION,
            seed: 7,
            task: "binary".into(),
            features: 4,
            metric: "log_loss".into(),
            estimators: vec!["lr".into()],
            window_chunks: 6,
            holdout_chunks: 1,
            warmup_chunks: 3,
            drift_window: 3,
            drift_threshold: 0.08,
            promote_margin: 0.01,
            probation_chunks: 2,
            refresh_every: 0,
            round_budget: 4.0,
            round_trials: 6,
        }
    }

    fn create(storage: &dyn Storage, path: &Path) -> LineLog {
        let header = to_line(&header(), "serialize-header", path).unwrap();
        LineLog::create(storage, path, &header).unwrap()
    }

    fn append(log: &mut LineLog, path: &Path, ev: &OnlineEvent) {
        log.append(&to_line(ev, "serialize-event", path).unwrap())
            .unwrap();
    }

    #[test]
    fn round_trip_and_torn_tail() {
        let dir = std::env::temp_dir().join("flaml-online-journal-test");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("online.jsonl");
        let storage = disk();
        let mut log = create(storage.as_ref(), &path);
        let mut ev = OnlineEvent::new(kind::CHUNK, 0);
        ev.fingerprint = 0xfeed;
        ev.rows = 128;
        append(&mut log, &path, &ev);
        let mut eval = OnlineEvent::new(kind::EVAL, 0);
        eval.era = 1;
        eval.loss = 0.25;
        append(&mut log, &path, &eval);
        drop(log);

        let contents = read_log(storage.as_ref(), &path).unwrap();
        assert_eq!(contents.header, header());
        assert_eq!(contents.records, vec![ev.clone(), eval.clone()]);

        // Torn tail: append garbage without a newline — reader returns
        // the committed prefix; resume truncates it away.
        let committed = contents.committed_bytes;
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"kind\":\"ev").unwrap();
        drop(f);
        let contents = read_log(storage.as_ref(), &path).unwrap();
        assert_eq!(contents.records.len(), 2);
        assert_eq!(contents.committed_bytes, committed);
        let log = LineLog::resume(storage.as_ref(), &path, committed).unwrap();
        drop(log);
        assert_eq!(storage.file_len(&path).unwrap(), committed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_torn_header_report_missing() {
        let dir = std::env::temp_dir().join("flaml-online-journal-missing");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let storage = disk();
        let path = dir.join("online.jsonl");
        assert!(matches!(
            read_log(storage.as_ref(), &path),
            Err(LogError::Missing)
        ));
        // A header that never got its newline is as if never written.
        std::fs::write(&path, b"{\"schema_version\":1").unwrap();
        assert!(matches!(
            read_log(storage.as_ref(), &path),
            Err(LogError::Missing)
        ));
        // A complete but unparseable header is corruption.
        std::fs::write(&path, b"not json\n").unwrap();
        assert!(matches!(
            read_log(storage.as_ref(), &path),
            Err(LogError::Corrupt(_))
        ));
        // So is a header from another schema version.
        let mut alien = header();
        alien.schema_version = 999;
        std::fs::write(&path, to_line(&alien, "test", &path).unwrap() + "\n").unwrap();
        assert!(matches!(
            read_log(storage.as_ref(), &path),
            Err(LogError::Corrupt(msg)) if msg.contains("999")
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn infinite_losses_round_trip() {
        let dir = std::env::temp_dir().join("flaml-online-journal-inf");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("online.jsonl");
        let storage = disk();
        let mut log = create(storage.as_ref(), &path);
        let mut ev = OnlineEvent::new(kind::REJECT, 4);
        ev.loss = 0.5;
        ev.baseline = f64::INFINITY;
        append(&mut log, &path, &ev);
        drop(log);
        let contents = read_log(storage.as_ref(), &path).unwrap();
        assert_eq!(contents.records[0].baseline, f64::INFINITY);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The file a fixed header and three events produce, byte for byte.
    /// The expected text was captured at 647bf4f (when this crate still
    /// had its own `EventLog` writer) by running exactly this sequence
    /// through `EventLog::create` / `append` and printing the file; the
    /// determinism suites compare run against run inside one build and
    /// would not see the format drift.
    #[test]
    fn golden_file_bytes_are_unchanged() {
        const GOLDEN: &str = concat!(
            r#"{"schema_version":1,"seed":7,"task":"binary","features":4,"metric":"log_loss","estimators":["lr"],"window_chunks":6,"holdout_chunks":1,"warmup_chunks":3,"drift_window":3,"drift_threshold":0.08,"promote_margin":0.01,"probation_chunks":2,"refresh_every":0,"round_budget":4,"round_trials":6}"#,
            "\n",
            r#"{"kind":"chunk","chunk":0,"fingerprint":65261,"rows":128,"era":0,"round":0,"loss":0,"baseline":0,"recent":0,"reason":"","version":0,"previous":0,"model_fp":0}"#,
            "\n",
            r#"{"kind":"eval","chunk":0,"fingerprint":0,"rows":0,"era":1,"round":0,"loss":0.25,"baseline":0,"recent":0,"reason":"","version":0,"previous":0,"model_fp":0}"#,
            "\n",
            r#"{"kind":"reject","chunk":4,"fingerprint":0,"rows":0,"era":0,"round":2,"loss":0.5,"baseline":Infinity,"recent":0,"reason":"drift","version":0,"previous":0,"model_fp":0}"#,
            "\n",
        );
        let dir = std::env::temp_dir().join("flaml-online-journal-golden");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("online.jsonl");
        let storage = disk();
        let mut log = create(storage.as_ref(), &path);
        let mut chunk = OnlineEvent::new(kind::CHUNK, 0);
        chunk.fingerprint = 0xfeed;
        chunk.rows = 128;
        let mut eval = OnlineEvent::new(kind::EVAL, 0);
        eval.era = 1;
        eval.loss = 0.25;
        let mut reject = OnlineEvent::new(kind::REJECT, 4);
        reject.round = 2;
        reject.loss = 0.5;
        reject.baseline = f64::INFINITY;
        reject.reason = "drift".into();
        for ev in [&chunk, &eval, &reject] {
            append(&mut log, &path, ev);
        }
        drop(log);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), GOLDEN);
        let contents = read_log(storage.as_ref(), &path).unwrap();
        assert_eq!(contents.records, vec![chunk, eval, reject]);
        assert_eq!(contents.committed_bytes, GOLDEN.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }
}
