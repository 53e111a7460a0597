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
//! # Crash recovery
//!
//! Every decision is journaled *before* it takes effect elsewhere, and
//! every non-journal artifact (chunk payloads, champion artifacts,
//! round search journals) is written atomically and is either
//! deterministic to recompute or read back and verified. Because the
//! pipeline is strictly sequential, at most the **last** chunk's
//! processing can be incomplete after a crash. [`OnlineSession::open`]
//! replays the committed events to rebuild the exact in-memory state
//! (including the drift detector, which is a pure function of the
//! journaled losses), then re-enters the pipeline for the last chunk
//! with a progress mask of the steps already committed — each step is
//! skipped if committed, recomputed identically if not. The resulting
//! journal is byte-identical to an uninterrupted run's.

use crate::chunk::{concat_chunks, ChunkPayload};
use crate::drift::{DriftDetector, DriftSignal};
use crate::journal::{
    kind, read_log, to_line, LogError, OnlineEvent, OnlineHeader, ONLINE_SCHEMA_VERSION,
};
use crate::promote::PromotionPolicy;
use crate::OnlineError;
use flaml_core::{
    default_virtual_cost, disk, AutoMl, AutoMlError, CompiledModel, Journal, LearnerKind,
    ModelRegistry, PromoteReason, SearchHandle, Storage, TimeSource,
};
use flaml_data::{Dataset, Task};
use flaml_metrics::Metric;
use flaml_store::{sweep_stale_tmps, LineLog};
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

/// A finished challenger round.
#[derive(Debug, Clone, PartialEq)]
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

/// A champion (or probation predecessor): the era it was promoted in
/// and its compiled artifact.
#[derive(Debug, Clone)]
struct Champion {
    era: u64,
    model: CompiledModel,
}

/// Progress mask for the chunk being (re-)processed: which pipeline
/// steps already have committed journal events. Live pushes start from
/// `default()`; recovery folds the committed tail of the journal into
/// one of these and re-enters the pipeline with it.
#[derive(Debug, Clone, Default)]
struct Progress {
    chunk: Option<usize>,
    /// Champion era when the chunk's processing started (`Some(0)` =
    /// none). Live pushes leave this `None` (the current champion *is*
    /// the chunk-start champion); recovery needs it because a round
    /// later in the same chunk may have replaced the champion — the
    /// prequential eval must not rerun against the new one.
    era_at_start: Option<u64>,
    /// Whether probation was already running when the chunk's
    /// processing started. Same recovery concern as `era_at_start`: a
    /// promotion *during* this chunk starts probation for the next
    /// chunk, not retroactively for this one.
    probation_at_start: Option<bool>,
    champ_eval: Option<f64>,
    prev_eval: bool,
    drift_committed: bool,
    drift_signal: Option<DriftSignal>,
    round: Option<(u64, String)>,
    decided: bool,
}

/// Scalar state recovered by folding the committed journal events.
struct FoldState {
    next_chunk: usize,
    last_fp: u64,
    chunks_since_round: usize,
    rounds: u64,
    next_era: u64,
    champ_era: u64,
    prev_era: u64,
    probation_left: usize,
    prob_cur: f64,
    prob_prev: f64,
    detector: DriftDetector,
    retry_in: Option<usize>,
    n_drift: usize,
    n_promote: usize,
    n_reject: usize,
    n_rollback: usize,
    last_loss: Option<f64>,
    chunk_fps: BTreeMap<usize, u64>,
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
    detector: DriftDetector,
    next_chunk: usize,
    last_fp: u64,
    window: VecDeque<(usize, Dataset)>,
    champion: Option<Champion>,
    prev: Option<Champion>,
    next_era: u64,
    rounds: u64,
    chunks_since_round: usize,
    /// Chunks until the follow-up round a rejected drift round armed
    /// (`Some(0)` = due). See the round-decision chain in `process`.
    retry_in: Option<usize>,
    probation_left: usize,
    prob_cur: f64,
    prob_prev: f64,
    n_drift: usize,
    n_promote: usize,
    n_reject: usize,
    n_rollback: usize,
    last_loss: Option<f64>,
    events: Vec<OnlineEvent>,
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

        let fold = s.fold(&contents.records)?;
        s.next_chunk = fold.next_chunk;
        s.last_fp = fold.last_fp;
        s.chunks_since_round = fold.chunks_since_round;
        s.retry_in = fold.retry_in;
        s.rounds = fold.rounds;
        s.next_era = fold.next_era;
        s.probation_left = fold.probation_left;
        s.prob_cur = fold.prob_cur;
        s.prob_prev = fold.prob_prev;
        s.detector = fold.detector;
        s.n_drift = fold.n_drift;
        s.n_promote = fold.n_promote;
        s.n_reject = fold.n_reject;
        s.n_rollback = fold.n_rollback;
        s.last_loss = fold.last_loss;
        s.events = contents.records;

        s.champion = s.load_champion(fold.champ_era)?;
        s.prev = s.load_champion(fold.prev_era)?;
        s.load_window(&fold.chunk_fps)?;

        // Restore serving state: the registry is process-local, so
        // republish the probation predecessor (rollback target) first,
        // then the current champion on top of it.
        if let Some(reg) = &s.rt.registry {
            if let Some(prev) = &s.prev {
                reg.publish_with(&s.rt.slot, prev.model.clone(), PromoteReason::Manual);
            }
            if let Some(champ) = &s.champion {
                reg.publish_with(&s.rt.slot, champ.model.clone(), PromoteReason::Manual);
            }
        }

        s.finish_pending(fold.progress)?;
        Ok(s)
    }

    fn blank(dir: PathBuf, cfg: OnlineConfig, rt: OnlineRuntime, log: LineLog) -> OnlineSession {
        let metric = cfg.resolved_metric();
        let policy = PromotionPolicy::new(cfg.promote_margin);
        let detector = DriftDetector::new(cfg.drift_window, cfg.drift_threshold);
        OnlineSession {
            cfg,
            rt,
            dir,
            log,
            metric,
            policy,
            detector,
            next_chunk: 0,
            last_fp: 0,
            window: VecDeque::new(),
            champion: None,
            prev: None,
            next_era: 1,
            rounds: 0,
            chunks_since_round: 0,
            retry_in: None,
            probation_left: 0,
            prob_cur: 0.0,
            prob_prev: 0.0,
            n_drift: 0,
            n_promote: 0,
            n_reject: 0,
            n_rollback: 0,
            last_loss: None,
            events: Vec::new(),
            wedged: false,
        }
    }

    /// Ingests one chunk and runs the full pipeline on it (see the
    /// module docs). Re-delivering the last chunk (same fingerprint) is
    /// an idempotent no-op returning [`ChunkOutcome::Duplicate`].
    ///
    /// # Errors
    ///
    /// [`OnlineError::SchemaMismatch`] leaves the session usable; any
    /// other error wedges it ([`OnlineError::Wedged`] thereafter) —
    /// in-memory state can no longer be trusted against the journal,
    /// and the caller must [`OnlineSession::open`] a fresh one, which
    /// recovers exactly.
    pub fn push_chunk(&mut self, data: &Dataset) -> Result<ChunkOutcome, OnlineError> {
        if self.wedged {
            return Err(OnlineError::Wedged);
        }
        if data.task() != self.cfg.task || data.n_features() != self.cfg.features {
            return Err(OnlineError::SchemaMismatch {
                expected: format!(
                    "{} x{} features",
                    self.cfg.task.wire_name(),
                    self.cfg.features
                ),
                got: format!(
                    "{} x{} features",
                    data.task().wire_name(),
                    data.n_features()
                ),
            });
        }
        if data.n_rows() == 0 {
            return Err(OnlineError::Corrupt("empty chunk".to_string()));
        }
        if self.next_chunk > 0 && data.fingerprint() == self.last_fp {
            return Ok(ChunkOutcome::Duplicate);
        }
        let index = self.next_chunk;
        let result = self
            .persist_chunk(index, data)
            .and_then(|()| self.run_chunk(index, data.clone(), Progress::default()));
        if result.is_err() {
            self.wedged = true;
        }
        result
    }

    /// The committed promotion trace (all events since stream start).
    pub fn events(&self) -> &[OnlineEvent] {
        &self.events
    }

    /// The stream's counters.
    pub fn status(&self) -> StreamStatus {
        StreamStatus {
            chunks: self.next_chunk,
            rounds: self.rounds,
            era: self.champion.as_ref().map_or(0, |c| c.era),
            drift_events: self.n_drift,
            promotions: self.n_promote,
            rejections: self.n_reject,
            rollbacks: self.n_rollback,
            last_loss: self.last_loss,
            probation_left: if self.prev.is_some() {
                self.probation_left
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
        self.champion.as_ref().map(|c| &c.model)
    }

    /// Raw bytes of the stream journal — the promotion trace the
    /// determinism suite compares across worker counts and crashes.
    pub fn journal_bytes(&self) -> Result<Vec<u8>, OnlineError> {
        Ok(self.rt.storage.read(&self.dir.join("online.jsonl"))?)
    }

    // ------------------------------------------------------------------
    // Pipeline
    // ------------------------------------------------------------------

    /// Runs (or resumes, per `prog`) the pipeline for chunk `index`.
    fn run_chunk(
        &mut self,
        index: usize,
        data: Dataset,
        mut prog: Progress,
    ) -> Result<ChunkOutcome, OnlineError> {
        let fp = data.fingerprint();
        if prog.chunk.is_none() {
            let mut ev = OnlineEvent::new(kind::CHUNK, index);
            ev.fingerprint = fp;
            ev.rows = data.n_rows();
            self.commit(ev)?;
            self.next_chunk = index + 1;
            self.last_fp = fp;
            self.chunks_since_round += 1;
            self.retry_in = self.retry_in.map(|r| r.saturating_sub(1));
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
        let mut champion_loss = None;
        let eval_era = match prog.era_at_start {
            Some(0) => None,
            Some(era) => Some(era),
            None => self.champion.as_ref().map(|c| c.era),
        };
        if let Some(champ_era) = eval_era {
            let loss = match prog.champ_eval {
                Some(loss) => loss,
                None => {
                    let model = self.champion.as_ref().expect("era implies champion");
                    let loss = eval_model(self.metric, &model.model, &data)?;
                    let mut ev = OnlineEvent::new(kind::EVAL, index);
                    ev.era = champ_era;
                    ev.loss = loss;
                    self.commit(ev)?;
                    if self.prev.is_some() && self.probation_left > 0 {
                        self.prob_cur += loss;
                    }
                    self.last_loss = Some(loss);
                    prog.drift_signal = self.detector.observe(loss);
                    loss
                }
            };
            champion_loss = Some(loss);
        }

        // Probation: score the previous champion on the same chunk and
        // decide once the probation window closes. The decision is a
        // pure function of the journaled eval sums, so recovery
        // recomputes it identically.
        let mut rolled_back = false;
        let probation_active = match prog.probation_at_start {
            Some(active) => active,
            None => self.prev.is_some() && self.probation_left > 0,
        };
        if probation_active && self.prev.is_some() && self.probation_left > 0 && !prog.prev_eval {
            let prev = self.prev.as_ref().expect("checked above");
            let prev_era = prev.era;
            let loss = eval_model(self.metric, &prev.model, &data)?;
            let mut ev = OnlineEvent::new(kind::EVAL, index);
            ev.era = prev_era;
            ev.loss = loss;
            self.commit(ev)?;
            self.prob_prev += loss;
            self.probation_left -= 1;
        }
        if self.prev.is_some() && self.probation_left == 0 {
            if self.policy.should_roll_back(self.prob_prev, self.prob_cur) {
                let prev = self.prev.take().expect("checked above");
                let current_era = self.champion.as_ref().map_or(0, |c| c.era);
                let mut ev = OnlineEvent::new(kind::ROLLBACK, index);
                ev.era = prev.era;
                ev.version = prev.era;
                ev.previous = current_era;
                self.commit(ev)?;
                self.n_rollback += 1;
                if let Some(reg) = &self.rt.registry {
                    reg.rollback(&self.rt.slot);
                }
                self.champion = Some(prev);
                self.detector.reset();
                rolled_back = true;
            } else {
                self.prev = None;
            }
        }

        // Round decision. Suppressed while a rollback just happened or
        // probation is still running (`prev` is only Some then) — the
        // last promotion must settle before the next challenger.
        let mut drifted = prog.drift_committed;
        let mut round_outcome = None;
        if let Some((round_id, reason)) = prog.round.clone() {
            if !prog.decided {
                round_outcome = Some(self.complete_round(index, round_id, &reason, true)?);
            }
        } else if !rolled_back && self.prev.is_none() {
            if self.champion.is_none() {
                if self.window.len() >= self.cfg.warmup_chunks {
                    round_outcome = Some(self.start_round(index, "warmup")?);
                }
            } else if let Some(sig) = prog.drift_signal {
                if !prog.drift_committed {
                    let era = self.champion.as_ref().expect("champion exists").era;
                    let mut ev = OnlineEvent::new(kind::DRIFT, index);
                    ev.era = era;
                    ev.baseline = sig.baseline;
                    ev.recent = sig.recent;
                    self.commit(ev)?;
                    self.n_drift += 1;
                }
                drifted = true;
                round_outcome = Some(self.start_round(index, "drift")?);
            } else if self.retry_in == Some(0) {
                // A drift-triggered challenger lost its holdout — almost
                // always because the training window still held the old
                // concept when drift was confirmed. The window has since
                // refreshed with post-shift chunks; try once more.
                round_outcome = Some(self.start_round(index, "retry")?);
            } else if self.cfg.refresh_every > 0
                && self.chunks_since_round >= self.cfg.refresh_every
            {
                round_outcome = Some(self.start_round(index, "scheduled")?);
            }
        }

        Ok(ChunkOutcome::Processed {
            chunk: index,
            champion_loss,
            drifted,
            round: round_outcome,
            rolled_back,
        })
    }

    /// Journals a `round` event and runs the round to its decision.
    fn start_round(&mut self, index: usize, reason: &str) -> Result<RoundOutcome, OnlineError> {
        let round_id = self.rounds + 1;
        let mut ev = OnlineEvent::new(kind::ROUND, index);
        ev.round = round_id;
        ev.reason = reason.to_string();
        self.commit(ev)?;
        self.rounds = round_id;
        self.chunks_since_round = 0;
        self.retry_in = None;
        self.complete_round(index, round_id, reason, false)
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
        let champion_loss = match &self.champion {
            Some(c) => eval_model(self.metric, &c.model, &holdout)?,
            None => f64::INFINITY,
        };

        let promoted =
            compiled.is_some() && self.policy.should_promote(challenger_loss, champion_loss);
        if promoted {
            let model = compiled.expect("promoted implies compiled");
            let era = self.next_era;
            let artifact = self.champion_path(era);
            self.rt
                .storage
                .create_dir_all(&self.dir.join("champions"))?;
            let model_fp = model
                .save_with(self.rt.storage.as_ref(), &artifact)
                .map_err(artifact_err)?;
            let previous_era = self.champion.as_ref().map_or(0, |c| c.era);

            let mut ev = OnlineEvent::new(kind::PROMOTE, index);
            ev.era = era;
            ev.round = round_id;
            ev.loss = challenger_loss;
            ev.baseline = champion_loss;
            ev.reason = reason.to_string();
            ev.version = era;
            ev.previous = previous_era;
            ev.model_fp = model_fp;
            self.commit(ev)?;
            self.n_promote += 1;
            self.next_era = era + 1;

            if let Some(reg) = &self.rt.registry {
                let why = if reason == "drift" || reason == "retry" {
                    PromoteReason::Drift
                } else {
                    PromoteReason::Scheduled
                };
                reg.publish_with(&self.rt.slot, model.clone(), why);
            }
            let old = self.champion.replace(Champion { era, model });
            if let Some(old) = old {
                if self.cfg.probation_chunks > 0 {
                    self.prev = Some(old);
                    self.probation_left = self.cfg.probation_chunks;
                    self.prob_cur = 0.0;
                    self.prob_prev = 0.0;
                }
            }
            self.detector.reset();
        } else {
            let mut ev = OnlineEvent::new(kind::REJECT, index);
            ev.round = round_id;
            ev.loss = challenger_loss;
            ev.baseline = champion_loss;
            ev.reason = reason.to_string();
            self.commit(ev)?;
            self.n_reject += 1;
            self.detector.reset();
            if reason == "drift" {
                // One follow-up once the sliding window is fully
                // post-shift; a rejected retry does not re-arm, so a
                // false alarm costs exactly one extra search.
                self.retry_in = Some(self.cfg.window_chunks.saturating_sub(1));
            }
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

    fn commit(&mut self, ev: OnlineEvent) -> Result<(), OnlineError> {
        let journal = self.dir.join("online.jsonl");
        self.log
            .append(&to_line(&ev, "serialize-event", &journal)?)?;
        self.events.push(ev);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Durable chunk files
    // ------------------------------------------------------------------

    fn persist_chunk(&mut self, index: usize, data: &Dataset) -> Result<(), OnlineError> {
        let payload = serde_json::to_string(&ChunkPayload::from_dataset(data))
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

    /// Replays the committed events into the scalar state an
    /// uninterrupted session would hold, plus the progress mask of the
    /// last chunk. The drift detector is rebuilt by feeding it the
    /// journaled champion losses — it is a pure function of them.
    fn fold(&self, events: &[OnlineEvent]) -> Result<FoldState, OnlineError> {
        let mut f = FoldState {
            next_chunk: 0,
            last_fp: 0,
            chunks_since_round: 0,
            rounds: 0,
            next_era: 1,
            champ_era: 0,
            prev_era: 0,
            probation_left: 0,
            prob_cur: 0.0,
            prob_prev: 0.0,
            detector: DriftDetector::new(self.cfg.drift_window, self.cfg.drift_threshold),
            retry_in: None,
            n_drift: 0,
            n_promote: 0,
            n_reject: 0,
            n_rollback: 0,
            last_loss: None,
            chunk_fps: BTreeMap::new(),
            progress: Progress::default(),
        };
        // A probation decision that *passes* writes no event; it is
        // implied by any later event. Rollbacks are explicit.
        let settle_probation = |f: &mut FoldState| {
            if f.prev_era != 0 && f.probation_left == 0 {
                f.prev_era = 0;
            }
        };
        for ev in events {
            match ev.kind.as_str() {
                kind::CHUNK => {
                    settle_probation(&mut f);
                    f.next_chunk = ev.chunk + 1;
                    f.last_fp = ev.fingerprint;
                    f.chunks_since_round += 1;
                    f.retry_in = f.retry_in.map(|r| r.saturating_sub(1));
                    f.chunk_fps.insert(ev.chunk, ev.fingerprint);
                    f.progress = Progress {
                        chunk: Some(ev.chunk),
                        era_at_start: Some(f.champ_era),
                        probation_at_start: Some(f.prev_era != 0 && f.probation_left > 0),
                        ..Progress::default()
                    };
                }
                kind::EVAL => {
                    if ev.era == f.champ_era && f.champ_era != 0 {
                        if f.prev_era != 0 && f.probation_left > 0 {
                            f.prob_cur += ev.loss;
                        }
                        f.last_loss = Some(ev.loss);
                        f.progress.champ_eval = Some(ev.loss);
                        f.progress.drift_signal = f.detector.observe(ev.loss);
                    } else if ev.era == f.prev_era && f.prev_era != 0 {
                        f.prob_prev += ev.loss;
                        f.probation_left = f.probation_left.saturating_sub(1);
                        f.progress.prev_eval = true;
                    } else {
                        return Err(OnlineError::Corrupt(format!(
                            "eval event for unknown era {} at chunk {}",
                            ev.era, ev.chunk
                        )));
                    }
                }
                kind::DRIFT => {
                    settle_probation(&mut f);
                    f.n_drift += 1;
                    f.progress.drift_committed = true;
                }
                kind::ROUND => {
                    settle_probation(&mut f);
                    f.rounds = ev.round;
                    f.chunks_since_round = 0;
                    f.retry_in = None;
                    f.progress.round = Some((ev.round, ev.reason.clone()));
                    f.progress.decided = false;
                }
                kind::PROMOTE => {
                    f.n_promote += 1;
                    f.next_era = f.next_era.max(ev.era + 1);
                    if ev.previous != 0 && self.cfg.probation_chunks > 0 {
                        f.prev_era = ev.previous;
                        f.probation_left = self.cfg.probation_chunks;
                        f.prob_cur = 0.0;
                        f.prob_prev = 0.0;
                    } else {
                        f.prev_era = 0;
                        f.probation_left = 0;
                    }
                    f.champ_era = ev.era;
                    f.detector.reset();
                    f.progress.decided = true;
                }
                kind::REJECT => {
                    f.n_reject += 1;
                    f.detector.reset();
                    if ev.reason == "drift" {
                        f.retry_in = Some(self.cfg.window_chunks.saturating_sub(1));
                    }
                    f.progress.decided = true;
                }
                kind::ROLLBACK => {
                    f.n_rollback += 1;
                    f.champ_era = ev.version;
                    f.prev_era = 0;
                    f.probation_left = 0;
                    f.detector.reset();
                }
                other => {
                    return Err(OnlineError::Corrupt(format!(
                        "unknown event kind {other:?} at chunk {}",
                        ev.chunk
                    )))
                }
            }
        }
        Ok(f)
    }

    /// Loads the champion artifact for `era` (0 = none).
    fn load_champion(&self, era: u64) -> Result<Option<Champion>, OnlineError> {
        if era == 0 {
            return Ok(None);
        }
        let model = CompiledModel::load_with(self.rt.storage.as_ref(), &self.champion_path(era))
            .map_err(artifact_err)?;
        Ok(Some(Champion { era, model }))
    }

    /// Reloads the sliding window from the persisted chunk files,
    /// verifying each against its journaled fingerprint.
    fn load_window(&mut self, chunk_fps: &BTreeMap<usize, u64>) -> Result<(), OnlineError> {
        let start = self.next_chunk.saturating_sub(self.cfg.window_chunks);
        for index in start..self.next_chunk {
            let bytes = self.rt.storage.read(&self.chunk_path(index)).map_err(|e| {
                OnlineError::Corrupt(format!("window chunk {index} unreadable: {e}"))
            })?;
            let text = String::from_utf8(bytes)
                .map_err(|_| OnlineError::Corrupt(format!("window chunk {index} not UTF-8")))?;
            let payload: ChunkPayload = serde_json::from_str(&text)
                .map_err(|e| OnlineError::Corrupt(format!("window chunk {index} invalid: {e}")))?;
            let data = payload.into_dataset()?;
            if chunk_fps.get(&index) != Some(&data.fingerprint()) {
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
    fn finish_pending(&mut self, progress: Progress) -> Result<(), OnlineError> {
        if let Some(index) = progress.chunk {
            let data = self
                .window
                .back()
                .filter(|(i, _)| *i == index)
                .map(|(_, d)| d.clone())
                .ok_or_else(|| {
                    OnlineError::Corrupt(format!("last chunk {index} missing from window"))
                })?;
            self.run_chunk(index, data, progress)?;
        }
        let pending = self.chunk_path(self.next_chunk);
        if self.rt.storage.exists(&pending) {
            let bytes = self.rt.storage.read(&pending)?;
            let text = String::from_utf8(bytes)
                .map_err(|_| OnlineError::Corrupt("pending chunk not UTF-8".to_string()))?;
            let payload: ChunkPayload = serde_json::from_str(&text)
                .map_err(|e| OnlineError::Corrupt(format!("pending chunk invalid: {e}")))?;
            let data = payload.into_dataset()?;
            self.run_chunk(self.next_chunk, data, Progress::default())?;
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
