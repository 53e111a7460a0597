//! The online champion–challenger loop ([`OnlineSession`]).
//!
//! # Live pipeline (per chunk, strictly sequential)
//!
//! 1. persist the chunk payload atomically, then journal a `chunk`
//!    event (fingerprint + rows) and slide the training window;
//! 2. evaluate the champion on the *raw incoming* chunk (prequential:
//!    the chunk is tested on before anything trains on it), journal an
//!    `eval` event, feed the loss to the [`DriftDetector`];
//! 3. during probation, also evaluate the *previous* champion and, once
//!    the probation window closes, either journal a `rollback` (and
//!    restore it) or silently pass;
//! 4. decide whether a challenger round runs — warmup (no champion
//!    yet), drift (detector fired; journal a `drift` event), or a
//!    scheduled refresh — journal a `round` event, run a warm-started
//!    budgeted [`SearchHandle`] search on the window minus the holdout,
//!    score champion and challenger on the holdout, and journal the
//!    `promote` / `reject` decision.
//!
//! # State is a fold of the journal
//!
//! The stream's state (counters, eras, probation sums, the drift
//! detector, the fingerprints of the window's chunks and the current
//! chunk's progress mask) changes in one place, `apply`, which folds
//! one committed event into it. A live step commits its event — append,
//! then `apply` — and keeps only side effects for itself: scoring
//! models, writing chunk files and artifacts, running searches,
//! publishing to or rolling back the registry. Nothing in the state
//! grows with the stream's length.
//!
//! # Crash recovery
//!
//! Every decision is journaled *before* it takes effect elsewhere, and
//! every non-journal artifact (chunk payloads, champion artifacts,
//! round search journals) is written atomically and is either
//! deterministic to recompute or read back and verified. Because the
//! pipeline is strictly sequential, at most the **last** chunk's
//! processing can be incomplete after a crash. [`OnlineSession::open`]
//! calls the same `apply` on every committed event, loads the two
//! models and the window the state names, then runs the last chunk
//! through the same `run_chunk` a live push uses: each step its
//! progress mask records is skipped, the rest are recomputed
//! identically. The resulting journal is byte-identical to an
//! uninterrupted run's.

use crate::chunk::{concat_chunks, schema};
use crate::drift::{DriftDetector, DriftSignal};
use crate::journal::{kind, read_log, LogError, OnlineEvent, OnlineHeader, ONLINE_SCHEMA_VERSION};
use crate::promote::PromotionPolicy;
use crate::OnlineError;
use flaml_core::{
    default_virtual_cost, disk, AutoMl, AutoMlError, CompiledModel, Journal, LearnerKind,
    ModelRegistry, PromoteReason, SearchHandle, Storage, TimeSource,
};
use flaml_data::{Dataset, DatasetPayload, Task};
use flaml_metrics::Metric;
use flaml_store::{sweep_stale_tmps, to_line, LineLog};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;

/// Stream configuration; round-trips through the journal header, so a
/// recovered session runs under exactly the creating session's config.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineConfig {
    /// Master seed; challenger round `r` searches with a seed derived
    /// from `(seed, r)`.
    pub seed: u64,
    /// Stream task.
    pub task: Task,
    /// Features per row (fixed for the stream's lifetime).
    pub features: usize,
    /// Evaluation metric; `None` picks log-loss for classification
    /// (ROC-AUC is undefined on single-class chunks) and MSE for
    /// regression.
    pub metric: Option<Metric>,
    /// Learners challenger rounds search over.
    pub estimators: Vec<LearnerKind>,
    /// Sliding-window length in chunks; challengers train on it.
    pub window_chunks: usize,
    /// Most recent chunks held out (from training) to score challenger
    /// vs. champion.
    pub holdout_chunks: usize,
    /// Chunks accumulated before the warmup round trains the first
    /// champion.
    pub warmup_chunks: usize,
    /// Drift-detector recent-window length (chunks).
    pub drift_window: usize,
    /// Drift-detector loss-shift threshold.
    pub drift_threshold: f64,
    /// Margin a challenger's holdout loss must beat the champion's by.
    pub promote_margin: f64,
    /// Chunks a fresh champion is compared against its predecessor
    /// before the promotion is final (0 disables rollback).
    pub probation_chunks: usize,
    /// Scheduled challenger round every N chunks without one (0 = only
    /// drift-triggered rounds).
    pub refresh_every: usize,
    /// Virtual-seconds budget per challenger search.
    pub round_budget: f64,
    /// Trial cap per challenger search.
    pub round_trials: usize,
}

impl OnlineConfig {
    /// Defaults for a stream of `task` with `features` columns.
    pub fn new(task: Task, features: usize) -> OnlineConfig {
        OnlineConfig {
            seed: 0,
            task,
            features,
            metric: None,
            estimators: vec![LearnerKind::LightGbm, LearnerKind::Lr],
            window_chunks: 6,
            holdout_chunks: 1,
            warmup_chunks: 3,
            drift_window: 3,
            drift_threshold: 0.08,
            promote_margin: 0.01,
            probation_chunks: 2,
            refresh_every: 0,
            round_budget: 5.0,
            round_trials: 8,
        }
    }

    /// The metric actually used (see [`OnlineConfig::metric`]).
    pub fn resolved_metric(&self) -> Metric {
        self.metric.unwrap_or(match self.task {
            Task::Regression => Metric::Mse,
            _ => Metric::LogLoss,
        })
    }

    fn validate(&self) -> Result<(), OnlineError> {
        let fail = |msg: &str| Err(OnlineError::Config(msg.to_string()));
        if self.features == 0 {
            return fail("features must be >= 1");
        }
        if self.window_chunks < 2 {
            return fail("window_chunks must be >= 2");
        }
        if self.holdout_chunks == 0 || self.holdout_chunks >= self.window_chunks {
            return fail("holdout_chunks must be in 1..window_chunks");
        }
        if self.warmup_chunks <= self.holdout_chunks || self.warmup_chunks > self.window_chunks {
            return fail("warmup_chunks must be in holdout_chunks+1..=window_chunks");
        }
        if self.drift_window == 0 {
            return fail("drift_window must be >= 1");
        }
        if !(self.drift_threshold.is_finite() && self.drift_threshold >= 0.0) {
            return fail("drift_threshold must be finite and >= 0");
        }
        if !(self.promote_margin.is_finite() && self.promote_margin >= 0.0) {
            return fail("promote_margin must be finite and >= 0");
        }
        if !(self.round_budget.is_finite() && self.round_budget > 0.0) {
            return fail("round_budget must be positive");
        }
        if self.round_trials == 0 {
            return fail("round_trials must be >= 1");
        }
        if self.estimators.is_empty() {
            return fail("estimators must not be empty");
        }
        Ok(())
    }

    fn to_header(&self) -> OnlineHeader {
        OnlineHeader {
            schema_version: ONLINE_SCHEMA_VERSION,
            seed: self.seed,
            task: self.task.wire_name(),
            features: self.features,
            metric: self.resolved_metric().name().to_string(),
            estimators: self
                .estimators
                .iter()
                .map(|e| e.name().to_string())
                .collect(),
            window_chunks: self.window_chunks,
            holdout_chunks: self.holdout_chunks,
            warmup_chunks: self.warmup_chunks,
            drift_window: self.drift_window,
            drift_threshold: self.drift_threshold,
            promote_margin: self.promote_margin,
            probation_chunks: self.probation_chunks,
            refresh_every: self.refresh_every,
            round_budget: self.round_budget,
            round_trials: self.round_trials,
        }
    }

    fn from_header(h: &OnlineHeader) -> Result<OnlineConfig, OnlineError> {
        let task = Task::parse_wire(&h.task).map_err(OnlineError::Corrupt)?;
        let metric = Metric::parse(&h.metric)
            .ok_or_else(|| OnlineError::Corrupt(format!("unknown metric {:?}", h.metric)))?;
        let estimators = h
            .estimators
            .iter()
            .map(|name| {
                LearnerKind::parse(name)
                    .ok_or_else(|| OnlineError::Corrupt(format!("unknown learner {name:?}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(OnlineConfig {
            seed: h.seed,
            task,
            features: h.features,
            metric: Some(metric),
            estimators,
            window_chunks: h.window_chunks,
            holdout_chunks: h.holdout_chunks,
            warmup_chunks: h.warmup_chunks,
            drift_window: h.drift_window,
            drift_threshold: h.drift_threshold,
            promote_margin: h.promote_margin,
            probation_chunks: h.probation_chunks,
            refresh_every: h.refresh_every,
            round_budget: h.round_budget,
            round_trials: h.round_trials,
        })
    }
}

/// Process-local wiring (NOT durable; recovery takes a fresh one): the
/// storage backend, worker count for challenger searches, and the
/// optional serving registry promotions publish through.
#[derive(Clone)]
pub struct OnlineRuntime {
    /// Storage backend for the journal, chunks, and artifacts.
    pub storage: Arc<dyn Storage>,
    /// Worker threads for challenger searches. Searches run on a
    /// virtual clock, so the promotion trace is byte-identical at any
    /// worker count.
    pub workers: usize,
    /// Registry promotions publish to (and rollbacks roll back in).
    pub registry: Option<Arc<ModelRegistry>>,
    /// Registry slot name.
    pub slot: String,
}

impl OnlineRuntime {
    /// Real-disk storage, one worker, no registry.
    pub fn local() -> OnlineRuntime {
        OnlineRuntime {
            storage: disk(),
            workers: 1,
            registry: None,
            slot: "online".to_string(),
        }
    }
}

/// What one `push_chunk` did.
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkOutcome {
    /// The chunk's fingerprint matches the last committed chunk —
    /// a retried delivery; nothing happened.
    Duplicate,
    /// The chunk was processed to completion.
    Processed {
        /// The chunk's index in the stream.
        chunk: usize,
        /// Champion's prequential loss on this chunk (None before the
        /// first champion exists).
        champion_loss: Option<f64>,
        /// Whether the drift detector fired on this chunk.
        drifted: bool,
        /// The challenger round this chunk triggered, if any.
        round: Option<RoundOutcome>,
        /// Whether probation failed and the previous champion was
        /// restored.
        rolled_back: bool,
    },
}

/// A finished challenger round, as `/stream` reports it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundOutcome {
    /// Round index (1-based).
    pub round: u64,
    /// Trigger: "warmup" | "drift" | "scheduled".
    pub reason: String,
    /// Whether the challenger was promoted.
    pub promoted: bool,
    /// Challenger's holdout loss (infinite if the search found no
    /// viable model).
    pub challenger_loss: f64,
    /// Champion's holdout loss (infinite when there was no champion).
    pub champion_loss: f64,
}

/// A snapshot of the stream's counters, for status endpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStatus {
    /// Chunks fully or partially ingested (the next chunk's index).
    pub chunks: usize,
    /// Challenger rounds started.
    pub rounds: u64,
    /// Era of the serving champion (0 = none yet).
    pub era: u64,
    /// Drift events fired.
    pub drift_events: usize,
    /// Promotions (including warmup).
    pub promotions: usize,
    /// Rejected challenger rounds.
    pub rejections: usize,
    /// Probation rollbacks.
    pub rollbacks: usize,
    /// Champion's loss on the most recent evaluated chunk.
    pub last_loss: Option<f64>,
    /// Probation chunks remaining for the current champion (0 = not on
    /// probation).
    pub probation_left: usize,
    /// Chunks currently in the sliding window.
    pub window: usize,
}

/// What the current chunk's pipeline has already committed. `apply`
/// resets it at each `chunk` event and fills it in as the chunk's later
/// events commit; `run_chunk` skips every step it records, which is
/// nothing on a live push and the committed prefix on recovery.
#[derive(Debug, Default)]
struct Progress {
    /// Champion era when the chunk arrived (0 = none): the prequential
    /// eval runs against it even if a round later in the chunk promotes
    /// a new champion.
    era_at_start: u64,
    /// Whether probation was running when the chunk arrived; a
    /// promotion during the chunk starts probation with the next one.
    probation_at_start: bool,
    champ_eval: Option<f64>,
    drift_signal: Option<DriftSignal>,
    prev_eval: bool,
    rolled_back: bool,
    drift_committed: bool,
    round: Option<(u64, String)>,
    decided: bool,
}

/// The stream's state: a fold of its committed events. Only `apply`
/// changes it — after each commit on a live push, and over the
/// read-back journal on recovery.
#[derive(Debug)]
struct Folded {
    next_chunk: usize,
    /// Fingerprints of the last `window_chunks` chunks, oldest first.
    fps: VecDeque<u64>,
    chunks_since_round: usize,
    /// Chunks until the follow-up round a rejected drift round armed
    /// (`Some(0)` = due). See the round decision in `run_chunk`.
    retry_in: Option<usize>,
    rounds: u64,
    next_era: u64,
    champ_era: u64,
    /// The probation predecessor's era (0 = no probation). Non-zero
    /// with `probation_left == 0` only while a failed probation's
    /// rollback is due.
    prev_era: u64,
    probation_left: usize,
    prob_cur: f64,
    prob_prev: f64,
    detector: DriftDetector,
    n_drift: usize,
    n_promote: usize,
    n_reject: usize,
    n_rollback: usize,
    last_loss: Option<f64>,
    progress: Progress,
}

/// A durable streaming AutoML session (see the module docs).
pub struct OnlineSession {
    cfg: OnlineConfig,
    rt: OnlineRuntime,
    dir: PathBuf,
    log: LineLog,
    metric: Metric,
    policy: PromotionPolicy,
    state: Folded,
    window: VecDeque<(usize, Dataset)>,
    /// Compiled models of the eras `state` names: the champion and the
    /// probation predecessor.
    models: BTreeMap<u64, CompiledModel>,
    wedged: bool,
}

impl OnlineSession {
    /// Creates a fresh stream at `dir` (journal `online.jsonl`, plus
    /// `chunks/`, `rounds/`, and `champions/` as they fill).
    ///
    /// # Errors
    ///
    /// [`OnlineError::Corrupt`] if a stream already exists at `dir`
    /// (use [`OnlineSession::open`]); [`OnlineError::Config`] for an
    /// invalid config; storage errors.
    pub fn create(
        dir: impl Into<PathBuf>,
        cfg: OnlineConfig,
        rt: OnlineRuntime,
    ) -> Result<OnlineSession, OnlineError> {
        let dir = dir.into();
        cfg.validate()?;
        let journal = dir.join("online.jsonl");
        match read_log(rt.storage.as_ref(), &journal) {
            Err(LogError::Missing) => {}
            Ok(_) => {
                return Err(OnlineError::Corrupt(format!(
                    "stream already exists at {}; use open",
                    dir.display()
                )))
            }
            Err(LogError::Corrupt(msg)) => return Err(OnlineError::Corrupt(msg)),
            Err(LogError::Storage(e)) => return Err(OnlineError::Durability(e)),
        }
        rt.storage.create_dir_all(&dir)?;
        let header = to_line(&cfg.to_header(), "serialize-header", &journal)?;
        let log = LineLog::create(rt.storage.as_ref(), &journal, &header)?;
        Ok(OnlineSession::blank(dir, cfg, rt, log))
    }

    /// Opens an existing stream at `dir`, completing any step a crash
    /// interrupted (an unfinished challenger round resumes its search
    /// journal; a persisted-but-unjournaled chunk is processed). After
    /// `open` returns, the journal is byte-identical to what an
    /// uninterrupted run would have written.
    ///
    /// # Errors
    ///
    /// [`OnlineError::Journal`] with [`LogError::Missing`] if no
    /// stream exists; [`OnlineError::Corrupt`] if durable state fails
    /// validation; storage errors.
    pub fn open(dir: impl Into<PathBuf>, rt: OnlineRuntime) -> Result<OnlineSession, OnlineError> {
        let dir = dir.into();
        let journal = dir.join("online.jsonl");
        let contents = read_log(rt.storage.as_ref(), &journal).map_err(OnlineError::Journal)?;
        let cfg = OnlineConfig::from_header(&contents.header)?;
        cfg.validate()?;
        let log = LineLog::resume(rt.storage.as_ref(), &journal, contents.committed_bytes)?;
        let mut s = OnlineSession::blank(dir, cfg, rt, log);
        for sub in ["", "chunks", "rounds", "champions"] {
            sweep_stale_tmps(s.rt.storage.as_ref(), &s.dir.join(sub))?;
        }
        for ev in &contents.records {
            s.apply(ev)?;
        }
        let named = [s.state.prev_era, s.state.champ_era];
        for era in named.into_iter().filter(|&era| era != 0) {
            let model = CompiledModel::load_with(s.rt.storage.as_ref(), &s.champion_path(era))
                .map_err(artifact_err)?;
            s.models.insert(era, model);
        }
        s.load_window()?;

        // Restore serving state: the registry is process-local, so
        // republish the probation predecessor (rollback target) first,
        // then the current champion on top of it.
        if let Some(reg) = &s.rt.registry {
            for model in named.iter().filter_map(|era| s.models.get(era)) {
                reg.publish_with(&s.rt.slot, model.clone(), PromoteReason::Manual);
            }
        }
        s.finish_pending()?;
        Ok(s)
    }

    fn blank(dir: PathBuf, cfg: OnlineConfig, rt: OnlineRuntime, log: LineLog) -> OnlineSession {
        let state = Folded {
            next_chunk: 0,
            fps: VecDeque::new(),
            chunks_since_round: 0,
            retry_in: None,
            rounds: 0,
            next_era: 1,
            champ_era: 0,
            prev_era: 0,
            probation_left: 0,
            prob_cur: 0.0,
            prob_prev: 0.0,
            detector: DriftDetector::new(cfg.drift_window, cfg.drift_threshold),
            n_drift: 0,
            n_promote: 0,
            n_reject: 0,
            n_rollback: 0,
            last_loss: None,
            progress: Progress::default(),
        };
        OnlineSession {
            metric: cfg.resolved_metric(),
            policy: PromotionPolicy::new(cfg.promote_margin),
            cfg,
            rt,
            dir,
            log,
            state,
            window: VecDeque::new(),
            models: BTreeMap::new(),
            wedged: false,
        }
    }

    /// Ingests one chunk and runs the full pipeline on it (see the
    /// module docs). Re-delivering the last chunk (same fingerprint) is
    /// an idempotent no-op returning [`ChunkOutcome::Duplicate`].
    ///
    /// # Errors
    ///
    /// [`OnlineError::SchemaMismatch`] — a chunk whose task, width or
    /// column kinds differ from the stream's, refused before anything is
    /// persisted — leaves the session usable; any other error wedges it
    /// ([`OnlineError::Wedged`] thereafter) — in-memory state can no
    /// longer be trusted against the journal, and the caller must
    /// [`OnlineSession::open`] a fresh one, which recovers exactly.
    pub fn push_chunk(&mut self, data: &Dataset) -> Result<ChunkOutcome, OnlineError> {
        if self.wedged {
            return Err(OnlineError::Wedged);
        }
        // The window's chunks share one schema, kinds included: a chunk
        // of another one is refused here, before it is persisted, rather
        // than failing the window assembly of every later round.
        let kinds = self.window.back().map(|(_, last)| last.feature_kinds());
        if data.task() != self.cfg.task
            || data.n_features() != self.cfg.features
            || kinds.is_some_and(|kinds| kinds != data.feature_kinds())
        {
            return Err(OnlineError::SchemaMismatch {
                expected: schema(
                    self.cfg.task,
                    self.cfg.features,
                    kinds.unwrap_or(data.feature_kinds()),
                ),
                got: schema(data.task(), data.n_features(), data.feature_kinds()),
            });
        }
        if self.state.fps.back() == Some(&data.fingerprint()) {
            return Ok(ChunkOutcome::Duplicate);
        }
        let index = self.state.next_chunk;
        let result = self
            .persist_chunk(index, data)
            .and_then(|()| self.run_chunk(index, data));
        if result.is_err() {
            self.wedged = true;
        }
        result
    }

    /// The committed promotion trace (all events since stream start),
    /// read back from the journal.
    ///
    /// # Errors
    ///
    /// [`OnlineError::Journal`] if the journal cannot be read.
    pub fn events(&self) -> Result<Vec<OnlineEvent>, OnlineError> {
        let journal = self.dir.join("online.jsonl");
        let contents =
            read_log(self.rt.storage.as_ref(), &journal).map_err(OnlineError::Journal)?;
        Ok(contents.records)
    }

    /// The stream's counters.
    pub fn status(&self) -> StreamStatus {
        let st = &self.state;
        StreamStatus {
            chunks: st.next_chunk,
            rounds: st.rounds,
            era: st.champ_era,
            drift_events: st.n_drift,
            promotions: st.n_promote,
            rejections: st.n_reject,
            rollbacks: st.n_rollback,
            last_loss: st.last_loss,
            probation_left: if st.prev_era != 0 {
                st.probation_left
            } else {
                0
            },
            window: self.window.len(),
        }
    }

    /// The stream's config (as stored in the journal header).
    pub fn config(&self) -> &OnlineConfig {
        &self.cfg
    }

    /// Whether an earlier failure wedged this session (every push now
    /// returns [`OnlineError::Wedged`]; reopen to recover).
    pub fn is_wedged(&self) -> bool {
        self.wedged
    }

    /// The stream directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// The serving champion's compiled model, if a champion exists.
    pub fn champion_model(&self) -> Option<&CompiledModel> {
        self.models.get(&self.state.champ_era)
    }

    /// Raw bytes of the stream journal — the promotion trace the
    /// determinism suite compares across worker counts and crashes.
    pub fn journal_bytes(&self) -> Result<Vec<u8>, OnlineError> {
        Ok(self.rt.storage.read(&self.dir.join("online.jsonl"))?)
    }

    // ------------------------------------------------------------------
    // Pipeline
    // ------------------------------------------------------------------

    /// Runs chunk `index` through the pipeline, skipping each step the
    /// chunk's progress mask records as committed. A live push enters
    /// with `index == next_chunk` and commits every step; recovery
    /// re-enters with the last committed chunk and commits the rest.
    fn run_chunk(&mut self, index: usize, data: &Dataset) -> Result<ChunkOutcome, OnlineError> {
        if index == self.state.next_chunk {
            let mut ev = OnlineEvent::new(kind::CHUNK, index);
            ev.fingerprint = data.fingerprint();
            ev.rows = data.n_rows();
            self.commit(ev)?;
        }
        if self.window.back().map(|(i, _)| *i) != Some(index) {
            self.window.push_back((index, data.clone()));
        }
        while self.window.len() > self.cfg.window_chunks {
            self.window.pop_front();
        }
        self.prune_chunk_files(index)?;

        // Prequential champion eval — against the champion serving
        // when the chunk *arrived* (a round later in this chunk may
        // promote a new one).
        let p = &self.state.progress;
        if p.era_at_start != 0 && p.champ_eval.is_none() {
            self.commit_eval(index, p.era_at_start, data)?;
        }
        // Probation: score the previous champion on the same chunk.
        // `apply` decides once the window closes: a pass just ends
        // probation, a failure leaves the rollback below due.
        let p = &self.state.progress;
        if p.probation_at_start && !p.prev_eval {
            self.commit_eval(index, self.state.prev_era, data)?;
        }
        if self.state.prev_era != 0 && self.state.probation_left == 0 {
            let mut ev = OnlineEvent::new(kind::ROLLBACK, index);
            ev.era = self.state.prev_era;
            ev.version = self.state.prev_era;
            ev.previous = self.state.champ_era;
            self.commit(ev)?;
            if let Some(reg) = &self.rt.registry {
                reg.rollback(&self.rt.slot);
            }
        }

        // Round decision. Suppressed while a rollback just happened or
        // probation is still running — the last promotion must settle
        // before the next challenger.
        let p = &self.state.progress;
        let resumed = p.round.is_some();
        if !resumed && !p.rolled_back && self.state.prev_era == 0 {
            let reason = if self.state.champ_era == 0 {
                (self.window.len() >= self.cfg.warmup_chunks).then_some("warmup")
            } else if let Some(sig) = p.drift_signal {
                if !p.drift_committed {
                    let mut ev = OnlineEvent::new(kind::DRIFT, index);
                    ev.era = self.state.champ_era;
                    ev.baseline = sig.baseline;
                    ev.recent = sig.recent;
                    self.commit(ev)?;
                }
                Some("drift")
            } else if self.state.retry_in == Some(0) {
                // A drift-triggered challenger lost its holdout — almost
                // always because the training window still held the old
                // concept when drift was confirmed. The window has since
                // refreshed with post-shift chunks; try once more.
                Some("retry")
            } else if self.cfg.refresh_every > 0
                && self.state.chunks_since_round >= self.cfg.refresh_every
            {
                Some("scheduled")
            } else {
                None
            };
            if let Some(reason) = reason {
                let mut ev = OnlineEvent::new(kind::ROUND, index);
                ev.round = self.state.rounds + 1;
                ev.reason = reason.to_string();
                self.commit(ev)?;
            }
        }
        let round = match self.state.progress.round.clone() {
            Some((round_id, reason)) if !self.state.progress.decided => {
                Some(self.complete_round(index, round_id, &reason, resumed)?)
            }
            _ => None,
        };

        let p = &self.state.progress;
        Ok(ChunkOutcome::Processed {
            chunk: index,
            champion_loss: p.champ_eval,
            drifted: p.drift_committed,
            round,
            rolled_back: p.rolled_back,
        })
    }

    /// Scores era `era`'s model on the chunk and journals the `eval`.
    fn commit_eval(&mut self, index: usize, era: u64, data: &Dataset) -> Result<(), OnlineError> {
        let model = self.models.get(&era).ok_or_else(|| {
            OnlineError::Corrupt(format!("no model for era {era} at chunk {index}"))
        })?;
        let mut ev = OnlineEvent::new(kind::EVAL, index);
        ev.era = era;
        ev.loss = eval_model(self.metric, model, data)?;
        self.commit(ev)
    }

    /// Trains a challenger for round `round_id`, scores it against the
    /// champion on the holdout, and journals the promote / reject
    /// decision. `resumed` reattaches a partially-written search
    /// journal instead of starting fresh.
    fn complete_round(
        &mut self,
        index: usize,
        round_id: u64,
        reason: &str,
        resumed: bool,
    ) -> Result<RoundOutcome, OnlineError> {
        let datasets: Vec<&Dataset> = self.window.iter().map(|(_, d)| d).collect();
        let split = datasets
            .len()
            .saturating_sub(self.cfg.holdout_chunks)
            .max(1);
        let train = concat_chunks(&format!("round-{round_id}-train"), &datasets[..split])?;
        let holdout = if split < datasets.len() {
            concat_chunks(&format!("round-{round_id}-holdout"), &datasets[split..])?
        } else {
            // Degenerate single-chunk window: score on the training
            // chunk rather than nothing.
            train.clone()
        };

        let journal_path = self.round_journal_path(round_id);
        self.rt.storage.create_dir_all(&self.dir.join("rounds"))?;
        let settings = self.round_settings(round_id)?;
        let mut handle = if resumed && self.rt.storage.exists(&journal_path) {
            // A torn or mismatched search journal is recreatable state:
            // fall back to a fresh deterministic search.
            SearchHandle::attach(settings.clone(), &journal_path)
                .unwrap_or_else(|_| SearchHandle::new(settings, &journal_path))
        } else {
            SearchHandle::new(settings, &journal_path)
        };
        let result = match handle.run_to_end(&train, self.cfg.round_trials) {
            Ok(r) => Some(r),
            Err(AutoMlError::NoViableModel) => None,
            Err(e) => return Err(OnlineError::AutoMl(e)),
        };

        let compiled = match &result {
            Some(r) => Some(r.compile().map_err(|e| {
                OnlineError::Corrupt(format!("challenger artifact compile failed: {e}"))
            })?),
            None => None,
        };
        let challenger_loss = match &compiled {
            Some(m) => eval_model(self.metric, m, &holdout)?,
            None => f64::INFINITY,
        };
        let champion_loss = match self.champion_model() {
            Some(m) => eval_model(self.metric, m, &holdout)?,
            None => f64::INFINITY,
        };

        let promoted =
            compiled.is_some() && self.policy.should_promote(challenger_loss, champion_loss);
        let mut ev = OnlineEvent::new(
            if promoted {
                kind::PROMOTE
            } else {
                kind::REJECT
            },
            index,
        );
        ev.round = round_id;
        ev.loss = challenger_loss;
        ev.baseline = champion_loss;
        ev.reason = reason.to_string();
        if promoted {
            let model = compiled.expect("promoted implies compiled");
            let era = self.state.next_era;
            let artifact = self.champion_path(era);
            self.rt
                .storage
                .create_dir_all(&self.dir.join("champions"))?;
            ev.model_fp = model
                .save_with(self.rt.storage.as_ref(), &artifact)
                .map_err(artifact_err)?;
            ev.era = era;
            ev.version = era;
            ev.previous = self.state.champ_era;
            self.commit(ev)?;
            if let Some(reg) = &self.rt.registry {
                let why = if reason == "drift" || reason == "retry" {
                    PromoteReason::Drift
                } else {
                    PromoteReason::Scheduled
                };
                reg.publish_with(&self.rt.slot, model.clone(), why);
            }
            self.models.insert(era, model);
        } else {
            self.commit(ev)?;
        }
        Ok(RoundOutcome {
            round: round_id,
            reason: reason.to_string(),
            promoted,
            challenger_loss,
            champion_loss,
        })
    }

    /// The AutoMl settings for challenger round `round_id`: virtual
    /// clock (worker-count independent), per-round derived seed, and a
    /// warm start from the previous round's best configurations. The
    /// previous round's journal is read through the stream's storage,
    /// and a failed read is an error (it wedges the session like any
    /// other storage failure), never a silent cold start.
    fn round_settings(&self, round_id: u64) -> Result<AutoMl, OnlineError> {
        let mut settings = AutoMl::new()
            .time_budget(self.cfg.round_budget)
            .max_trials(self.cfg.round_trials)
            .seed(round_seed(self.cfg.seed, round_id))
            .estimators(self.cfg.estimators.clone())
            .metric(self.metric)
            .time_source(TimeSource::Virtual(default_virtual_cost))
            .workers(self.rt.workers.max(1))
            .storage(Arc::clone(&self.rt.storage));
        if round_id > 1 {
            // Warm start (ChaCha's "champion seeds the challengers"):
            // the previous round's journal is complete — rounds finish
            // before the next begins — so this read is identical on
            // the live and recovery paths.
            let previous = self.round_journal_path(round_id - 1);
            let journal = Journal::read_with(self.rt.storage.as_ref(), &previous)
                .map_err(|e| OnlineError::AutoMl(AutoMlError::Journal(e)))?;
            let points = journal.best_configs();
            if !points.is_empty() {
                settings = settings.starting_points(points);
            }
        }
        Ok(settings)
    }

    /// Appends `ev` to the journal, then folds it into the state and
    /// drops the models of eras the state no longer names.
    fn commit(&mut self, ev: OnlineEvent) -> Result<(), OnlineError> {
        let journal = self.dir.join("online.jsonl");
        self.log
            .append(&to_line(&ev, "serialize-event", &journal)?)?;
        self.apply(&ev)?;
        let (champ, prev) = (self.state.champ_era, self.state.prev_era);
        self.models.retain(|&era, _| era == champ || era == prev);
        Ok(())
    }

    /// Folds one committed event into the stream's state — the only
    /// code that changes it, on the live path and on recovery alike.
    /// Every rule is a pure function of the event and the state, so a
    /// replayed journal rebuilds exactly what the live session held.
    fn apply(&mut self, ev: &OnlineEvent) -> Result<(), OnlineError> {
        let st = &mut self.state;
        let p = &mut st.progress;
        match ev.kind.as_str() {
            kind::CHUNK => {
                st.next_chunk = ev.chunk + 1;
                st.fps.push_back(ev.fingerprint);
                if st.fps.len() > self.cfg.window_chunks {
                    st.fps.pop_front();
                }
                st.chunks_since_round += 1;
                st.retry_in = st.retry_in.map(|r| r.saturating_sub(1));
                *p = Progress {
                    era_at_start: st.champ_era,
                    probation_at_start: st.prev_era != 0 && st.probation_left > 0,
                    ..Progress::default()
                };
            }
            kind::EVAL if ev.era == st.champ_era && ev.era != 0 => {
                if st.prev_era != 0 && st.probation_left > 0 {
                    st.prob_cur += ev.loss;
                }
                st.last_loss = Some(ev.loss);
                p.champ_eval = Some(ev.loss);
                p.drift_signal = st.detector.observe(ev.loss);
            }
            kind::EVAL if ev.era == st.prev_era && ev.era != 0 => {
                st.prob_prev += ev.loss;
                st.probation_left = st.probation_left.saturating_sub(1);
                p.prev_eval = true;
                // The last probation eval decides: a pass writes no
                // event and ends probation here; a failure keeps
                // `prev_era` until the `rollback` event commits.
                if st.probation_left == 0
                    && !self.policy.should_roll_back(st.prob_prev, st.prob_cur)
                {
                    st.prev_era = 0;
                }
            }
            kind::EVAL => {
                return Err(OnlineError::Corrupt(format!(
                    "eval event for unknown era {} at chunk {}",
                    ev.era, ev.chunk
                )))
            }
            kind::DRIFT => {
                st.n_drift += 1;
                p.drift_committed = true;
            }
            kind::ROUND => {
                st.rounds = ev.round;
                st.chunks_since_round = 0;
                st.retry_in = None;
                p.round = Some((ev.round, ev.reason.clone()));
            }
            kind::PROMOTE => {
                st.n_promote += 1;
                st.next_era = st.next_era.max(ev.era + 1);
                if ev.previous != 0 && self.cfg.probation_chunks > 0 {
                    st.prev_era = ev.previous;
                    st.probation_left = self.cfg.probation_chunks;
                    st.prob_cur = 0.0;
                    st.prob_prev = 0.0;
                } else {
                    st.prev_era = 0;
                    st.probation_left = 0;
                }
                st.champ_era = ev.era;
                st.detector.reset();
                p.decided = true;
            }
            kind::REJECT => {
                st.n_reject += 1;
                st.detector.reset();
                if ev.reason == "drift" {
                    // One follow-up once the sliding window is fully
                    // post-shift; a rejected retry does not re-arm, so
                    // a false alarm costs exactly one extra search.
                    st.retry_in = Some(self.cfg.window_chunks.saturating_sub(1));
                }
                p.decided = true;
            }
            kind::ROLLBACK => {
                st.n_rollback += 1;
                st.champ_era = ev.version;
                st.prev_era = 0;
                st.probation_left = 0;
                st.detector.reset();
                p.rolled_back = true;
            }
            other => {
                return Err(OnlineError::Corrupt(format!(
                    "unknown event kind {other:?} at chunk {}",
                    ev.chunk
                )))
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Durable chunk files
    // ------------------------------------------------------------------

    fn persist_chunk(&mut self, index: usize, data: &Dataset) -> Result<(), OnlineError> {
        let payload = serde_json::to_string(&DatasetPayload::from_dataset(data))
            .map_err(|e| OnlineError::Corrupt(format!("chunk serialize failed: {e}")))?;
        self.rt.storage.create_dir_all(&self.dir.join("chunks"))?;
        flaml_core::atomic_write_file(
            self.rt.storage.as_ref(),
            &self.chunk_path(index),
            payload.as_bytes(),
        )?;
        Ok(())
    }

    fn prune_chunk_files(&mut self, index: usize) -> Result<(), OnlineError> {
        if index >= self.cfg.window_chunks {
            let old = self.chunk_path(index - self.cfg.window_chunks);
            if self.rt.storage.exists(&old) {
                self.rt.storage.remove(&old)?;
            }
        }
        Ok(())
    }

    fn chunk_path(&self, index: usize) -> PathBuf {
        self.dir.join("chunks").join(format!("c{index:06}.json"))
    }

    fn round_journal_path(&self, round_id: u64) -> PathBuf {
        self.dir
            .join("rounds")
            .join(format!("round_{round_id:04}.jsonl"))
    }

    fn champion_path(&self, era: u64) -> PathBuf {
        self.dir
            .join("champions")
            .join(format!("era_{era:04}.artifact.json"))
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    /// Decodes persisted chunk `index`.
    fn read_chunk(&self, index: usize) -> Result<Dataset, OnlineError> {
        let bytes = self
            .rt
            .storage
            .read(&self.chunk_path(index))
            .map_err(|e| OnlineError::Corrupt(format!("chunk {index} unreadable: {e}")))?;
        let text = String::from_utf8(bytes)
            .map_err(|_| OnlineError::Corrupt(format!("chunk {index} not UTF-8")))?;
        serde_json::from_str::<DatasetPayload>(&text)
            .map_err(|e| e.to_string())
            .and_then(DatasetPayload::into_dataset)
            .map_err(|e| OnlineError::Corrupt(format!("chunk {index} invalid: {e}")))
    }

    /// Reloads the sliding window from the persisted chunk files,
    /// verifying each against its journaled fingerprint.
    fn load_window(&mut self) -> Result<(), OnlineError> {
        let start = self.state.next_chunk - self.state.fps.len();
        for (index, &fp) in (start..).zip(&self.state.fps) {
            let data = self.read_chunk(index)?;
            if data.fingerprint() != fp {
                return Err(OnlineError::Corrupt(format!(
                    "window chunk {index} fingerprint mismatch"
                )));
            }
            self.window.push_back((index, data));
        }
        Ok(())
    }

    /// Completes whatever a crash interrupted: the last chunk's
    /// remaining pipeline steps, then a chunk that was persisted but
    /// never journaled.
    fn finish_pending(&mut self) -> Result<(), OnlineError> {
        if let Some((index, data)) = self.window.back().cloned() {
            self.run_chunk(index, &data)?;
        }
        let next = self.state.next_chunk;
        if self.rt.storage.exists(&self.chunk_path(next)) {
            let data = self.read_chunk(next)?;
            self.run_chunk(next, &data)?;
        }
        Ok(())
    }
}

fn eval_model(metric: Metric, model: &CompiledModel, data: &Dataset) -> Result<f64, OnlineError> {
    let pred = model.predict(data.view());
    Ok(metric.loss(&pred, data.target())?)
}

fn artifact_err(e: flaml_core::ArtifactError) -> OnlineError {
    OnlineError::Corrupt(format!("champion artifact: {e}"))
}

/// SplitMix64-style mix of the stream seed and a round index, so every
/// round searches with a distinct deterministic seed.
fn round_seed(seed: u64, round_id: u64) -> u64 {
    let mut z = seed ^ round_id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_through_header() {
        let mut cfg = OnlineConfig::new(Task::Binary, 6);
        cfg.seed = 42;
        cfg.refresh_every = 10;
        let back = OnlineConfig::from_header(&cfg.to_header()).unwrap();
        let mut want = cfg.clone();
        want.metric = Some(want.resolved_metric());
        assert_eq!(back, want);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let ok = OnlineConfig::new(Task::Binary, 4);
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.holdout_chunks = bad.window_chunks;
        assert!(matches!(bad.validate(), Err(OnlineError::Config(_))));
        let mut bad = ok.clone();
        bad.warmup_chunks = 1;
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.estimators.clear();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn round_seed_is_deterministic_and_spread() {
        assert_eq!(round_seed(7, 3), round_seed(7, 3));
        assert_ne!(round_seed(7, 3), round_seed(7, 4));
        assert_ne!(round_seed(7, 3), round_seed(8, 3));
    }

    #[test]
    fn resolved_metric_defaults_by_task() {
        assert_eq!(
            OnlineConfig::new(Task::Binary, 3).resolved_metric(),
            Metric::LogLoss
        );
        assert_eq!(
            OnlineConfig::new(Task::Regression, 3).resolved_metric(),
            Metric::Mse
        );
        let mut cfg = OnlineConfig::new(Task::Binary, 3);
        cfg.metric = Some(Metric::Accuracy);
        assert_eq!(cfg.resolved_metric(), Metric::Accuracy);
    }
}
