//! The read side of the journal: torn-tail-tolerant parsing plus the
//! queries resume and warm-start need.

use crate::record::{JournalHeader, TrialLine, SCHEMA_VERSION};
use flaml_store::{read_log, LogReadError, Storage};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;

/// Why a journal could not be opened.
///
/// Note what is *not* here: a torn or corrupt trial record. Trial-line
/// damage is expected after a crash and handled by truncation
/// ([`Journal::read`] returns the maximal committed prefix). Only damage
/// that makes the whole file meaningless — unreadable, no parseable
/// header, or a header from a different schema — is an error.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read at all.
    Io(io::Error),
    /// The file has no parseable header line.
    BadHeader(String),
    /// The header's schema version is not the one this reader speaks.
    SchemaVersion {
        /// Version found in the header.
        found: u32,
        /// Version this reader supports.
        supported: u32,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::BadHeader(msg) => write!(f, "journal has no valid header: {msg}"),
            JournalError::SchemaVersion { found, supported } => write!(
                f,
                "journal schema version {found} is not supported (reader speaks {supported})"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

/// A journal read back from disk: the header plus every committed trial.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// The run-configuration header (first line of the file).
    pub header: JournalHeader,
    /// Committed trials, in commit order.
    pub trials: Vec<TrialLine>,
    /// Length in bytes of the committed prefix (header + committed
    /// trials, trailing newlines included). A resuming writer truncates
    /// the file to this length first, so a torn tail can never glue
    /// itself onto the next appended record.
    pub committed_bytes: u64,
}

impl Journal {
    /// Reads a journal, tolerating a torn tail: the typed face of
    /// [`flaml_store::read_log`], which owns the committed-prefix rule
    /// (a record counts only if its line is newline-terminated **and**
    /// parses; the first line failing either ends the prefix). A crash
    /// mid-write therefore loses at most the record that was being
    /// written, never the journal.
    ///
    /// # Errors
    ///
    /// Only an unreadable file, a missing/corrupt header line, or an
    /// unsupported schema version error out.
    pub fn read(path: impl AsRef<Path>) -> Result<Journal, JournalError> {
        Journal::read_with(flaml_store::disk().as_ref(), path.as_ref())
    }

    /// [`Journal::read`] against an explicit [`flaml_store::Storage`] —
    /// the fault-injection entry point.
    ///
    /// # Errors
    ///
    /// As [`Journal::read`]; storage failures surface as
    /// [`JournalError::Io`].
    pub fn read_with(storage: &dyn Storage, path: &Path) -> Result<Journal, JournalError> {
        let log = read_log(
            storage,
            path,
            |line| serde_json::from_str::<JournalHeader>(line).map_err(|e| e.to_string()),
            |line| serde_json::from_str::<TrialLine>(line).ok(),
        )
        .map_err(|e| match e {
            LogReadError::Storage(e) => JournalError::Io(e.into()),
            unusable => JournalError::BadHeader(unusable.to_string()),
        })?;
        if log.header.schema_version != SCHEMA_VERSION {
            return Err(JournalError::SchemaVersion {
                found: log.header.schema_version,
                supported: SCHEMA_VERSION,
            });
        }
        Ok(Journal {
            header: log.header,
            trials: log.records,
            committed_bytes: log.committed_bytes,
        })
    }

    /// The committed trial with the lowest loss, if any finite-loss trial
    /// was committed. Ties go to the earliest trial, matching the live
    /// run's strict-improvement rule.
    pub fn best_trial(&self) -> Option<&TrialLine> {
        self.trials.iter().filter(|t| t.loss.is_finite()).fold(
            None,
            |best: Option<&TrialLine>, t| match best {
                Some(b) if b.loss <= t.loss => Some(b),
                _ => Some(t),
            },
        )
    }

    /// The best committed configuration per learner: for each learner
    /// with at least one finite-loss trial, its `(config_values, loss)`
    /// at that learner's lowest loss (earliest on ties). Ordered by
    /// learner name. This is the warm-start seed set: each learner's
    /// FLOW² search starts from its own prior best, and the losses prime
    /// the ECI selector.
    pub fn best_configs(&self) -> Vec<(String, Vec<f64>, f64)> {
        let mut best: BTreeMap<&str, &TrialLine> = BTreeMap::new();
        for t in self.trials.iter().filter(|t| t.loss.is_finite()) {
            match best.get(t.learner.as_str()) {
                Some(b) if b.loss <= t.loss => {}
                _ => {
                    best.insert(&t.learner, t);
                }
            }
        }
        best.into_iter()
            .map(|(name, t)| (name.to_string(), t.config_values.clone(), t.loss))
            .collect()
    }

    /// The journal re-serialized with every record's process-lifetime
    /// fields zeroed: the *deterministic* bytes of a run. `wall_secs`
    /// records physical time; `prepared_hits` / `prepared_misses` /
    /// `prepared_evictions` record the warmth of the in-process
    /// prepared-data cache; `tree_cache_hits` / `tree_cache_misses` /
    /// `trees_saved` recorded the warmth of a since-removed in-process
    /// tree cache (current searches write 0). All of these depend on how
    /// the process ran (a resumed run restarts
    /// with cold caches), not on the search trajectory, so two journals
    /// of the same virtual-clock search — live, sliced, or
    /// killed-and-resumed — compare equal here. (`TrialLine`'s JSON
    /// round-trip is a fixed point, so every other field still compares
    /// byte-for-byte.)
    pub fn canonical_bytes(&self) -> String {
        let mut out =
            serde_json::to_string(&self.header).expect("header serialization is infallible");
        out.push('\n');
        for trial in &self.trials {
            let mut trial = trial.clone();
            trial.wall_secs = 0.0;
            trial.prepared_hits = 0;
            trial.prepared_misses = 0;
            trial.prepared_evictions = 0;
            trial.tree_cache_hits = 0;
            trial.tree_cache_misses = 0;
            trial.trees_saved = 0;
            out.push_str(
                &serde_json::to_string(&trial).expect("record serialization is infallible"),
            );
            out.push('\n');
        }
        out
    }

    /// Total budget cost charged across every committed attempt — the
    /// budget a resumed run has already spent.
    pub fn spent_budget(&self) -> f64 {
        self.trials
            .iter()
            .flat_map(|t| t.attempt_costs.iter())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::DatasetInfo;
    use crate::writer::JournalWriter;

    fn header() -> JournalHeader {
        JournalHeader {
            schema_version: SCHEMA_VERSION,
            seed: 1,
            time_budget: 2.0,
            max_trials: None,
            sample_size_init: 50,
            sampling: false,
            learner_selection: "eci".into(),
            resample: "cv".into(),
            metric: "log_loss".into(),
            estimators: vec!["rf".into()],
            time_source: "virtual".into(),
            dataset: DatasetInfo {
                name: "d".into(),
                task: "binary".into(),
                rows: 10,
                features: 1,
                fingerprint: 1,
            },
        }
    }

    fn line(iter: usize, learner: &str, loss: f64) -> TrialLine {
        TrialLine {
            iter,
            learner: learner.into(),
            config: String::new(),
            config_values: vec![iter as f64],
            sample_size: 50,
            loss,
            status: "ok".into(),
            mode: "search".into(),
            attempts: 0,
            attempt_costs: vec![0.25, 0.5],
            cost: 0.75,
            total_time: 0.75 * iter as f64,
            wall_secs: 0.0,
            prepared_hits: 0,
            prepared_misses: 0,
            prepared_evictions: 0,
            bytes_copied_saved: 0,
            tree_cache_hits: 0,
            tree_cache_misses: 0,
            trees_saved: 0,
            seed: 1,
            improved: false,
            best_loss: loss,
        }
    }

    fn write_journal(name: &str, trials: &[TrialLine]) -> std::path::PathBuf {
        let path = std::env::temp_dir()
            .join("flaml-journal-reader-test")
            .join(name);
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        for t in trials {
            w.append(t);
        }
        path
    }

    #[test]
    fn torn_tail_is_truncated_not_an_error() {
        let path = write_journal("torn.jsonl", &[line(1, "rf", 0.5), line(2, "rf", 0.4)]);
        let full = std::fs::read(&path).unwrap();
        // Chop off the trailing newline and some bytes: record 2 is torn.
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let j = Journal::read(&path).unwrap();
        assert_eq!(j.trials.len(), 1);
        assert_eq!(j.trials[0], line(1, "rf", 0.5));

        // Resuming truncates the torn tail, and appended records land
        // cleanly after the committed prefix.
        let mut w = JournalWriter::resume(&path, j.committed_bytes).unwrap();
        w.append(&line(2, "rf", 0.35));
        drop(w);
        let j = Journal::read(&path).unwrap();
        assert_eq!(j.trials.len(), 2);
        assert_eq!(j.trials[1].loss, 0.35);
    }

    #[test]
    fn corrupt_middle_line_truncates_there() {
        let path = write_journal("mid.jsonl", &[line(1, "rf", 0.5)]);
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| {
                use std::io::Write;
                f.write_all(b"{\"iter\": garbage\n")?;
                f.write_all(
                    serde_json::to_string(&line(3, "rf", 0.3))
                        .unwrap()
                        .as_bytes(),
                )?;
                f.write_all(b"\n")
            })
            .unwrap();
        let j = Journal::read(&path).unwrap();
        assert_eq!(j.trials.len(), 1, "records after corruption are suspect");
    }

    #[test]
    fn missing_header_is_an_error() {
        let dir = std::env::temp_dir().join("flaml-journal-reader-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        assert!(matches!(
            Journal::read(&path),
            Err(JournalError::BadHeader(_))
        ));
        std::fs::write(&path, "not json\n").unwrap();
        assert!(matches!(
            Journal::read(&path),
            Err(JournalError::BadHeader(_))
        ));
    }

    #[test]
    fn wrong_schema_version_is_an_error() {
        let path = write_journal("v999.jsonl", &[]);
        let text = std::fs::read_to_string(&path).unwrap();
        let bumped = text.replacen(
            &format!("\"schema_version\":{SCHEMA_VERSION}"),
            "\"schema_version\":999",
            1,
        );
        assert_ne!(text, bumped, "header rewrite must hit the version field");
        std::fs::write(&path, bumped).unwrap();
        assert!(matches!(
            Journal::read(&path),
            Err(JournalError::SchemaVersion { found: 999, .. })
        ));
    }

    #[test]
    fn best_trial_ignores_failure_sentinels_and_breaks_ties_early() {
        let trials = vec![
            line(1, "rf", f64::INFINITY),
            line(2, "rf", 0.4),
            line(3, "lr", 0.4),
        ];
        let path = write_journal("best.jsonl", &trials);
        let j = Journal::read(&path).unwrap();
        assert_eq!(j.best_trial().unwrap().iter, 2, "earliest of the tie");
    }

    #[test]
    fn best_configs_picks_per_learner_minimum() {
        let trials = vec![
            line(1, "rf", 0.5),
            line(2, "lr", f64::INFINITY),
            line(3, "rf", 0.3),
            line(4, "lr", 0.6),
        ];
        let path = write_journal("configs.jsonl", &trials);
        let j = Journal::read(&path).unwrap();
        let best = j.best_configs();
        assert_eq!(
            best,
            vec![
                ("lr".to_string(), vec![4.0], 0.6),
                ("rf".to_string(), vec![3.0], 0.3),
            ]
        );
    }

    #[test]
    fn spent_budget_sums_every_attempt() {
        let path = write_journal("spent.jsonl", &[line(1, "rf", 0.5), line(2, "rf", 0.4)]);
        let j = Journal::read(&path).unwrap();
        assert!((j.spent_budget() - 1.5).abs() < 1e-12);
    }
}
