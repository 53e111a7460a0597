//! The AutoML controller: FLAML's main loop (paper Figure 3) as a
//! resumable state machine, [`Search`].
//!
//! Step 0 chooses the resampling strategy once; then Steps 1–3 repeat
//! until the budget runs out: sample a learner with probability `∝ 1/ECI`,
//! let its proposer either grow the sample size (when `ECI1 >= ECI2`) or
//! ask FLOW² for new hyperparameters, run the trial, and feed the observed
//! error and cost back into ECI and FLOW². Step-size adaptation and
//! restarts are enabled only at the full sample size; a restart resets the
//! learner's sample size to the initial value.
//!
//! The baseline systems the paper compares against (BOHB, BO, random
//! search, Hyperband) are the second arm of the same proposer
//! ([`crate::joint`]): they pick a learner and its configuration from one
//! joint space, and everything after the proposal — execution, charging,
//! retries, journal, records and refit — is this loop's.
//!
//! # One driver
//!
//! A search is [`Search::open`]ed (validation, Step 0, journal create or
//! resume-and-replay, proposer seeding), [`Search::step`]ped (the propose
//! → execute → commit loop, up to a trial count) and
//! [`Search::finish`]ed (refit, optional stack). [`AutoMl::fit`] is the
//! three calls back to back; [`crate::SearchHandle`] keeps the `Search`
//! between `step`s, so pausing a search is simply not stepping it.
//!
//! # Parallel execution
//!
//! One trial is in flight at a time, under every selection policy: the
//! loop proposes, runs and observes each trial before it proposes the
//! next, as the paper's Figure 3 does. [`AutoMl::workers`] sizes the
//! [`flaml_exec::ExecPool`] that evaluates a trial's CV folds
//! concurrently; with one worker (the default) everything runs inline.
//! Fold-order aggregation keeps the fold sum bit-exact, so under a
//! virtual clock the committed trace is byte-identical at any worker
//! count.

use crate::automl::{
    stored_config, AutoMl, AutoMlError, AutoMlResult, LearnerSelection, ResampleChoice, TrialMode,
    TrialRecord,
};
use crate::clock::{BudgetClock, TrialInfo};
use crate::dataplane::{DataPlane, PrepStats, TrialData};
use crate::eci::{sample_by_inverse_eci, EciState};
use crate::ensemble::{build_stacked, MemberSpec};
use crate::joint::Joint;
use crate::learner::Estimator;
use crate::resample::{run_trial_prepared, ResampleStrategy, TrialOutcome, TrialStatus};
use flaml_data::{Dataset, DatasetView, Task};
use flaml_exec::{
    EventSink, ExecPool, Job, JobResult, JobStatus, TrialEvent, TrialEventKind, TrialMeta,
};
use flaml_journal::{
    DatasetInfo, Journal, JournalHeader, JournalWriter, TrialLine, SCHEMA_VERSION,
};
use flaml_learners::FittedModel;
use flaml_metrics::Metric;
use flaml_search::{Config, Flow2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// The sample-size growth factor `c` of ECI2 and of each sample-up
/// trial: the paper doubles the sample.
const SAMPLE_GROWTH: f64 = 2.0;

struct LearnerState {
    kind: Estimator,
    space: flaml_search::SearchSpace,
    flow2: Flow2,
    eci: EciState,
    sample_size: usize,
    /// Consecutive trials of this learner that ended with a non-finite
    /// final error (any status other than a usable value).
    consecutive_failures: usize,
    /// Whether the learner is currently quarantined: the ECI proposer
    /// skips it until the probe iteration arrives.
    quarantined: bool,
    /// Iteration at which a quarantined learner gets its next probe.
    probe_at: usize,
}

/// One proposed-but-not-yet-committed trial.
struct Proposal {
    /// Learner index into `states`, and that learner's name.
    li: usize,
    learner: String,
    /// 1-based trial number this proposal will commit as.
    trial_no: usize,
    mode: TrialMode,
    trial_s: usize,
    config: Config,
    /// The configuration as `name=value` pairs.
    rendered: String,
    seed: u64,
    /// Pure function of (learner, config): usable even when the trial
    /// itself panicked before reporting.
    cost_factor: f64,
    /// The trial's prepared views and bin artifacts, built by the data
    /// plane at proposal time (on the controller thread, so cache state
    /// advances in deterministic proposal order). `None` during replay,
    /// which never executes.
    data: Option<Arc<TrialData>>,
    /// Cache hit/miss accounting for this trial's preparation.
    prep: PrepStats,
}

/// The incumbent: the best finite-loss trial committed so far.
struct Best {
    li: usize,
    config: Config,
    error: f64,
    /// The trial's own model (holdout trials train one; CV defers it,
    /// and replayed trials never had one).
    model: Option<FittedModel>,
}

/// Why [`Search::step`] returned.
pub(crate) enum Stop {
    /// The caller's `stop_at` was reached with trials and budget left:
    /// the search is paused, not over.
    Slice,
    /// The run's `max_trials` was reached.
    Target,
    /// The time budget is exhausted.
    Budget,
}

/// Emits a trial event carrying `p`'s identity, when anyone listens.
fn emit(
    sink: Option<&EventSink>,
    kind: TrialEventKind,
    p: &Proposal,
    fill: impl FnOnce(&mut TrialEvent),
) {
    if let Some(sink) = sink {
        let mut ev = TrialEvent::new(kind);
        ev.job_id = p.trial_no as u64;
        ev.learner = p.learner.clone();
        ev.config = p.rendered.clone();
        ev.sample_size = p.trial_s;
        fill(&mut ev);
        sink.emit(ev);
    }
}

/// Up-front input validation: fails fast with a typed error on datasets
/// no trial could ever learn from, and degrades gracefully on ones that
/// are salvageable — constant / all-NaN feature columns are dropped.
/// Returns the dataset every trial sees and which columns went.
pub(crate) fn sanitize(data: &Dataset) -> Result<(Dataset, Vec<usize>), AutoMlError> {
    if data.n_rows() < 2 {
        return Err(AutoMlError::TooFewRows {
            rows: data.n_rows(),
            needed: 2,
        });
    }
    if let Some(classes) = data.distinct_labels() {
        if classes < 2 {
            return Err(AutoMlError::DegenerateTarget {
                classes_present: classes,
            });
        }
    }
    let dropped = data.degenerate_columns();
    let clean = if dropped.is_empty() {
        data.clone()
    } else {
        data.drop_columns(&dropped)
            .map_err(|_| AutoMlError::NoUsableFeatures)?
    };
    Ok((clean, dropped))
}

/// The journal-header identity of a sanitized dataset.
fn dataset_info(clean: &Dataset) -> DatasetInfo {
    DatasetInfo {
        name: clean.name().to_string(),
        task: match clean.task() {
            Task::Binary => "binary".to_string(),
            Task::MultiClass(k) => format!("multiclass{k}"),
            Task::Regression => "regression".to_string(),
        },
        rows: clean.n_rows(),
        features: clean.n_features(),
        fingerprint: clean.fingerprint(),
    }
}

fn check_field(field: &'static str, journal: String, run: String) -> Result<(), AutoMlError> {
    if journal == run {
        Ok(())
    } else {
        Err(AutoMlError::ResumeMismatch {
            field,
            journal,
            run,
        })
    }
}

/// Verifies that the dataset a search was recorded against is the one
/// it is asked to continue on.
fn verify_dataset(journal: &DatasetInfo, run: &DatasetInfo) -> Result<(), AutoMlError> {
    check_field("dataset task", journal.task.clone(), run.task.clone())?;
    check_field(
        "dataset fingerprint",
        format!("{:#018x}", journal.fingerprint),
        format!("{:#018x}", run.fingerprint),
    )
}

/// Verifies that a journal's header matches the run asked to resume
/// from it. The time budget and trial cap are deliberately *not*
/// compared: passing a larger budget is how an interrupted (or even
/// finished) run is extended.
fn verify_resume_header(journal: &JournalHeader, run: &JournalHeader) -> Result<(), AutoMlError> {
    let fields = |h: &JournalHeader| {
        [
            ("seed", h.seed.to_string()),
            ("sample_size_init", h.sample_size_init.to_string()),
            ("sampling", h.sampling.to_string()),
            ("learner_selection", h.learner_selection.clone()),
            ("resample", h.resample.clone()),
            ("metric", h.metric.clone()),
            ("estimators", format!("{:?}", h.estimators)),
            ("time_source", h.time_source.clone()),
        ]
    };
    for ((field, journal), (_, run)) in fields(journal).into_iter().zip(fields(run)) {
        check_field(field, journal, run)?;
    }
    verify_dataset(&journal.dataset, &run.dataset)
}

/// One divergence check during replay: the re-proposed trial must equal
/// the journaled one in every identifying respect.
fn verify_replay_line(line: &TrialLine, p: &Proposal) -> Result<(), AutoMlError> {
    let journal = (
        line.iter,
        line.learner.as_str(),
        line.mode.as_str(),
        line.sample_size,
        line.config_values.as_slice(),
    );
    let replay = (
        p.trial_no,
        p.learner.as_str(),
        p.mode.name(),
        p.trial_s,
        p.config.values(),
    );
    if journal == replay {
        Ok(())
    } else {
        Err(AutoMlError::ResumeDiverged {
            trial: p.trial_no,
            detail: format!("journal records {journal:?}, replay proposed {replay:?}"),
        })
    }
}

/// One search, from opened to finished (see the module docs).
///
/// What it holds is what a *parked* search costs: proposer, ECI and
/// quarantine state, the budget clock, the RNG, the trial records, the
/// incumbent's trial model and the open journal writer. The data plane
/// is deliberately *not* here — it lives for one [`Search::step`] call,
/// so a parked search pins no cache bytes.
pub(crate) struct Search {
    settings: AutoMl,
    /// The dataset as the caller passed it, for [`Search::verify_data`].
    input: Dataset,
    /// Identity of the sanitized dataset (`rows` / `features` are the
    /// `n` / `d` every trial sees).
    dataset: DatasetInfo,
    shuffled: DatasetView,
    strategy: ResampleStrategy,
    metric: Metric,
    /// Parked by the owner while the search waits between steps.
    pub(crate) clock: BudgetClock,
    /// Written by [`Search::commit`] itself, never through the event
    /// sink: a persistence failure (ENOSPC, failed fsync) must fail the
    /// commit that hit it, and telemetry cannot fail anything.
    journal: Option<JournalWriter>,
    /// Journaled trials not yet replayed.
    replay: VecDeque<TrialLine>,
    states: Vec<LearnerState>,
    /// The baselines' proposer; `None` under FLAML's own policies.
    joint: Option<Joint>,
    /// The learner the paper runs first, to calibrate the base trial cost.
    fastest: usize,
    /// Evaluates one trial's CV folds concurrently.
    fold_pool: ExecPool,
    rng: StdRng,
    trials: Vec<TrialRecord>,
    n_retries: usize,
    n_quarantined: usize,
    best: Option<Best>,
}

impl Search {
    /// Validates and sanitizes `data`, chooses the resampling strategy,
    /// creates the journal — or resumes it, replaying every committed
    /// trial — and seeds the proposers. `parsed` is the journal at
    /// `settings.journal_path` when the caller already read it.
    pub(crate) fn open(
        settings: AutoMl,
        data: &Dataset,
        parsed: Option<Journal>,
    ) -> Result<Search, AutoMlError> {
        settings.validate()?;
        let roster = settings.roster();
        if roster.is_empty() {
            return Err(AutoMlError::NoEstimators);
        }
        let clock = BudgetClock::new(settings.time_source);
        let (clean, dropped) = sanitize(data)?;
        if let (false, Some(sink)) = (dropped.is_empty(), &settings.event_sink) {
            let mut ev = TrialEvent::new(TrialEventKind::Sanitized);
            ev.message = Some(format!(
                "dropped {} degenerate feature column(s): {:?}",
                dropped.len(),
                dropped
            ));
            sink.emit(ev);
        }
        let metric = settings
            .metric
            .unwrap_or_else(|| Metric::default_for(clean.task()));
        let shuffled = clean.shuffled_view(settings.seed);
        let dataset = dataset_info(&clean);
        let n = dataset.rows;

        let strategy = match settings.resample_choice {
            ResampleChoice::Auto => {
                ResampleStrategy::choose(n, dataset.features, settings.time_budget)
            }
            ResampleChoice::AlwaysCv => ResampleStrategy::CV,
            ResampleChoice::AlwaysHoldout => ResampleStrategy::HOLDOUT,
        };
        let init_s = if settings.sampling {
            settings.sample_size_init.min(n)
        } else {
            n
        };

        let mut states: Vec<LearnerState> = roster
            .into_iter()
            .enumerate()
            .map(|(idx, kind)| {
                let space = kind.space(n);
                let mut flow2 =
                    Flow2::new(space.clone(), settings.seed ^ (0x1111 * (idx as u64 + 1)));
                flow2.set_adaptation(init_s >= n);
                LearnerState {
                    // Pre-calibration placeholder; replaced after the
                    // first trial measures the base cost.
                    eci: EciState::new(kind.cost_constant()),
                    kind,
                    space,
                    flow2,
                    sample_size: init_s,
                    consecutive_failures: 0,
                    quarantined: false,
                    probe_at: 0,
                }
            })
            .collect();

        // Warm start: seed FLOW² threads and ECI priors from prior results
        // (typically a previous journal's per-learner best configurations).
        // Applied before any trial, so a resumed run that was originally
        // warm-started replays identically when given the same points;
        // and before the journal exists, so a point that does not fit its
        // learner's space leaves no journal behind.
        for (name, values, loss) in &settings.starting_points {
            if let Some(st) = states.iter_mut().find(|s| s.kind.name() == *name) {
                let point = st.space.encode(&stored_config(name, values, &st.space)?);
                st.flow2.seed_point(&point);
                st.eci.set_prior_err(*loss);
            }
        }

        // Journal setup: on a fresh run, create the log and durably write
        // its header; on resume, read the old log back (verifying its
        // header against this run), queue its committed trials for replay,
        // and reopen it for appending (truncating any torn tail first).
        let mut replay: VecDeque<TrialLine> = VecDeque::new();
        let mut journal: Option<JournalWriter> = None;
        if let Some(path) = &settings.journal_path {
            let storage = settings.storage.clone().unwrap_or_else(flaml_store::disk);
            let header = JournalHeader {
                schema_version: SCHEMA_VERSION,
                seed: settings.seed,
                time_budget: settings.time_budget,
                max_trials: settings.max_trials,
                sample_size_init: settings.sample_size_init,
                sampling: settings.sampling,
                learner_selection: settings.learner_selection.name().to_string(),
                resample: settings.resample_choice.name().to_string(),
                metric: metric.name().to_string(),
                estimators: states.iter().map(|st| st.kind.name()).collect(),
                time_source: settings.time_source.name().to_string(),
                dataset: dataset.clone(),
            };
            let writer = if settings.resume {
                let on_disk = match parsed {
                    Some(journal) => journal,
                    None => Journal::read_with(storage.as_ref(), path)?,
                };
                verify_resume_header(&on_disk.header, &header)?;
                replay = on_disk.trials.into();
                JournalWriter::resume_with(storage.as_ref(), path, on_disk.committed_bytes)
            } else {
                JournalWriter::create_with(storage.as_ref(), path, &header)
            };
            journal = Some(writer.map_err(AutoMlError::Durability)?);
        }

        let fastest = states
            .iter()
            .enumerate()
            .min_by(|a, b| {
                a.1.kind
                    .cost_constant()
                    .total_cmp(&b.1.kind.cost_constant())
            })
            .map(|(i, _)| i)
            .expect("non-empty estimators");
        let joint = Joint::new(
            settings.learner_selection,
            states.iter().map(|st| (st.kind.name(), &st.space)),
            settings.seed,
            init_s as f64 / n as f64,
        );

        let mut search = Search {
            input: data.clone(),
            dataset,
            shuffled,
            strategy,
            metric,
            clock,
            journal,
            states,
            joint,
            fastest,
            fold_pool: ExecPool::new(settings.workers),
            rng: StdRng::seed_from_u64(settings.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            trials: Vec::new(),
            n_retries: 0,
            n_quarantined: 0,
            best: None,
            settings,
            replay,
        };
        // Replay, once per process: re-commit the journaled prefix.
        search.step(search.replay.len())?;
        Ok(search)
    }

    /// Committed trials so far.
    pub(crate) fn committed(&self) -> usize {
        self.trials.len()
    }

    /// Budget seconds on the clock when the last trial committed.
    pub(crate) fn spent(&self) -> f64 {
        self.trials.last().map_or(0.0, |t| t.total_time)
    }

    /// Checks that `data` is the dataset this search was opened on — the
    /// same storage, or failing that the same sanitized content — with
    /// the error a resume against the wrong data gets.
    pub(crate) fn verify_data(&self, data: &Dataset) -> Result<(), AutoMlError> {
        if data.view().same_root(&self.input.view()) {
            return Ok(());
        }
        verify_dataset(&self.dataset, &dataset_info(&sanitize(data)?.0))
    }

    fn global_best(&self) -> f64 {
        self.best.as_ref().map_or(f64::INFINITY, |b| b.error)
    }

    /// Runs attempt `attempt` of `p` as a one-job batch on the
    /// controller thread, so a panic becomes a failed attempt and a
    /// return past the wall-clock deadline a timed-out one. Retries vary
    /// the seed so a genuinely flaky fit gets a different draw, not a
    /// replay of the same failure.
    fn attempt(&self, p: &Proposal, attempt: u32) -> JobResult<TrialOutcome> {
        let st = &self.states[p.li];
        let td = p.data.as_deref().expect("live trials carry prepared data");
        let seed = p
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(attempt as u64));
        let deadline = self.clock.deadline(self.settings.time_budget);
        // The job borrows what it reads, not the whole search: the journal
        // writer is the controller thread's alone.
        let (metric, fold_pool) = (self.metric, &self.fold_pool);
        let job = Job::new(move |_ctx| {
            run_trial_prepared(
                td, &st.kind, &p.config, &st.space, metric, seed, deadline, fold_pool,
            )
        })
        .deadline(deadline);
        let job = match self.settings.fault_plan {
            Some(plan) => plan.instrument(job, p.trial_no as u64, attempt),
            None => job,
        };
        ExecPool::sequential()
            .run_batch(vec![job], None)
            .pop()
            .expect("one job in, one result out")
    }

    /// Turns one attempt's raw [`JobResult`] into a committed
    /// [`TrialOutcome`] and charges it to the budget. Folds the job-level
    /// status (pool timeout, pool-level panic) into the trial status,
    /// applies the fault plan's poison for this attempt, and sanitizes any
    /// non-finite loss so nothing downstream (FLOW², ECI, the global best)
    /// can ever observe a `NaN`. Returns `(outcome, cost, measured wall
    /// seconds)`.
    fn settle(
        &mut self,
        result: JobResult<TrialOutcome>,
        p: &Proposal,
        attempt: u32,
    ) -> (TrialOutcome, f64, f64) {
        let measured = result.wall_secs;
        let trial_timed_out = result.status.timed_out();
        let mut outcome = match result.status {
            JobStatus::Finished(mut o) | JobStatus::TimedOut(mut o) => {
                if trial_timed_out && o.status == TrialStatus::Ok {
                    o.status = TrialStatus::TimedOut;
                }
                o
            }
            JobStatus::Panicked(msg) => TrialOutcome {
                error: f64::INFINITY,
                model: None,
                n_fits: self.strategy.fits_per_trial(),
                cost_factor: p.cost_factor,
                status: TrialStatus::Panicked,
                message: Some(msg),
            },
        };
        let poison = self
            .settings
            .fault_plan
            .and_then(|plan| plan.poison(p.trial_no as u64, attempt));
        if let Some(bad) = poison {
            outcome.error = bad;
            outcome.model = None;
            outcome.status = TrialStatus::NonFiniteLoss;
            outcome.message = Some(format!(
                "injected fault: poisoned loss ({bad}) on attempt {attempt}"
            ));
        }
        if outcome.error.is_nan() {
            outcome.error = f64::INFINITY;
            if outcome.status == TrialStatus::Ok || outcome.status == TrialStatus::TimedOut {
                outcome.status = TrialStatus::NonFiniteLoss;
            }
        }
        let info = TrialInfo {
            learner_cost_constant: self.states[p.li].kind.cost_constant(),
            sample_size: p.trial_s,
            n_features: self.dataset.features,
            cost_factor: outcome.cost_factor,
            n_fits: outcome.n_fits.max(1),
        };
        let cost = self.clock.charge(&info, measured);
        (outcome, cost, measured)
    }

    /// Steps 1 + 2 for trial index `it`: learner choice, then
    /// hyperparameters and sample size. Replayed trials (`live` false)
    /// never execute, so they skip preparation: resume costs no
    /// data-plane work and no cache churn.
    fn propose(&mut self, it: usize, live: bool, plane: &mut DataPlane) -> Proposal {
        let n = self.dataset.rows;
        let (li, mode, trial_s, config) = match self.joint.as_mut() {
            // A baseline picks learner, configuration and sample size
            // from its joint space; FLAML's fastest-learner-first rule
            // does not apply to it.
            Some(joint) => joint.ask(n),
            None => {
                let li = if it == 0 {
                    self.fastest
                } else if self.settings.learner_selection == LearnerSelection::RoundRobin {
                    // Round-robin ignores quarantine: the ablation gives
                    // every learner the same share of trials by policy,
                    // so a failure budget is not its to apply.
                    it % self.states.len()
                } else {
                    let global_best = self.global_best();
                    let states = &self.states;
                    // Quarantined learners sit out until their probe
                    // iteration; if everything is quarantined, fall
                    // back to the full roster (FairChance must hold).
                    let mut eligible: Vec<usize> = (0..states.len())
                        .filter(|&i| !states[i].quarantined || it >= states[i].probe_at)
                        .collect();
                    if eligible.is_empty() {
                        eligible = (0..states.len()).collect();
                    }
                    let ecis: Vec<f64> = eligible
                        .iter()
                        .map(|&i| states[i].eci.eci(global_best, SAMPLE_GROWTH))
                        .collect();
                    eligible[sample_by_inverse_eci(&ecis, self.rng.gen::<f64>())]
                };
                let st = &mut self.states[li];
                let grow_sample = st.eci.tried()
                    && st.sample_size < n
                    && st.eci.eci1() >= st.eci.eci2(SAMPLE_GROWTH);
                let (mode, trial_s, point) = if grow_sample {
                    let s_new = ((st.sample_size as f64 * SAMPLE_GROWTH) as usize).min(n);
                    (TrialMode::SampleUp, s_new, st.flow2.best_point())
                } else {
                    (TrialMode::Search, st.sample_size, st.flow2.ask())
                };
                (li, mode, trial_s, st.space.decode(&point))
            }
        };
        let st = &self.states[li];
        let learner = st.kind.name();
        let (data, prep) = if live {
            let (td, prep) = plane.prepare(trial_s, st.kind.max_bin(&config, &st.space));
            (Some(Arc::new(td)), prep)
        } else {
            (None, PrepStats::default())
        };
        Proposal {
            li,
            trial_no: it + 1,
            mode,
            trial_s,
            rendered: config.render(&st.space),
            cost_factor: st.kind.cost_factor(&config, &st.space),
            config,
            learner,
            seed: self.settings.seed.wrapping_add(it as u64),
            data,
            prep,
        }
    }

    /// Runs the propose → execute → commit loop until `stop_at` trials
    /// are committed, the run's trial cap is reached, or the budget runs
    /// out — whichever comes first — and says which. While journaled
    /// trials remain queued the loop *replays* instead of executing.
    ///
    /// The zero-copy data plane (each trial's views and bin artifacts,
    /// memoized across trials) lives for this call only. It is owned by
    /// the controller thread — filled at proposal time — and
    /// observationally pure: cached artifacts are bit-identical to fresh
    /// computation, so traces depend neither on the cache settings nor on
    /// where a search was sliced.
    pub(crate) fn step(&mut self, stop_at: usize) -> Result<Stop, AutoMlError> {
        let mut plane = DataPlane::new(
            self.shuffled.clone(),
            self.strategy,
            self.settings.prepared_cache,
            self.settings.prepared_cache_bytes,
        );
        let budget = self.settings.time_budget;
        let target = self.settings.max_trials.unwrap_or(usize::MAX);
        loop {
            let iter = self.trials.len();
            if iter >= target {
                return Ok(Stop::Target);
            }
            if iter > 0 && self.clock.elapsed() >= budget {
                return Ok(Stop::Budget);
            }
            if iter >= stop_at {
                return Ok(Stop::Slice);
            }

            // Proposals are generated during replay exactly as live (so
            // every RNG advances identically), but outcomes and costs come
            // from the journal.
            let live = self.replay.is_empty();
            let p = self.propose(iter, live, &mut plane);
            // Step 3: run the trial and observe its error and cost.
            let result = live.then(|| {
                emit(
                    self.settings.event_sink.as_ref(),
                    TrialEventKind::Started,
                    &p,
                    |_| (),
                );
                self.attempt(&p, 0)
            });
            self.commit(&p, result)?;
        }
    }

    /// Commits one trial. Its journal line is obtained exactly once —
    /// built from the settled attempts (live) or popped from the replay
    /// queue (`result` is `None`) — and everything after reads that line:
    /// the proposers' feedback, the append (live only), the events that
    /// describe the commit, and the trial record, in that order.
    fn commit(
        &mut self,
        p: &Proposal,
        result: Option<JobResult<TrialOutcome>>,
    ) -> Result<(), AutoMlError> {
        let n = self.dataset.rows;
        // No events during replay: the journaled records already describe
        // these trials.
        let sink = self
            .settings
            .event_sink
            .clone()
            .filter(|_| result.is_some());
        let sink = sink.as_ref();

        let (line, mut ran) = if let Some(result) = result {
            let (mut outcome, mut cost, mut measured) = self.settle(result, p, 0);
            let mut attempt_costs = vec![cost];
            // Transient failures (panics, non-finite losses) get retried
            // on the trial's own budget: every attempt is charged like a
            // fresh evaluation, the fault plan re-rolls per attempt, and
            // deterministic failures / timeouts are never retried.
            let mut attempt: u32 = 0;
            while outcome.status.transient()
                && (attempt as usize) < self.settings.max_retries
                && self.clock.elapsed() < self.settings.time_budget
            {
                attempt += 1;
                emit(sink, TrialEventKind::Retried, p, |ev| {
                    ev.message = Some(format!("retry {attempt} after {}", outcome.status));
                });
                let retry = self.attempt(p, attempt);
                let (o, c, m) = self.settle(retry, p, attempt);
                attempt_costs.push(c);
                cost += c;
                measured += m;
                outcome = o;
            }
            let improved = outcome.error.is_finite() && outcome.error < self.global_best();
            let line = TrialLine {
                iter: p.trial_no,
                learner: p.learner.clone(),
                config: p.rendered.clone(),
                config_values: p.config.values().to_vec(),
                sample_size: p.trial_s,
                loss: outcome.error,
                status: outcome.status.to_string(),
                mode: p.mode.name().to_string(),
                attempts: attempt as usize,
                attempt_costs,
                cost,
                total_time: self.clock.elapsed(),
                wall_secs: measured,
                prepared_hits: p.prep.prepared_hits,
                prepared_misses: p.prep.prepared_misses,
                prepared_evictions: p.prep.prepared_evictions,
                bytes_copied_saved: p.prep.bytes_copied_saved,
                // No fit continues cached trees, so these are always 0;
                // the keys stay until the next versioned journal change
                // so canonical bytes and the journal pins hold.
                tree_cache_hits: 0,
                tree_cache_misses: 0,
                trees_saved: 0,
                seed: p.seed,
                improved,
                best_loss: if improved {
                    outcome.error
                } else {
                    self.global_best()
                },
            };
            (line, Some(outcome))
        } else {
            // Replay: the journaled line substitutes for execution. The
            // budget clock re-applies the recorded per-attempt charges in
            // order (reproducing the live run's float accumulation
            // bit-for-bit), and the recorded loss feeds the proposers
            // exactly as the live outcome did.
            let line = self
                .replay
                .pop_front()
                .expect("replaying implies a queued record");
            verify_replay_line(&line, p)?;
            for &c in &line.attempt_costs {
                self.clock.advance(c);
            }
            (line, None)
        };
        let status = TrialStatus::parse(&line.status).unwrap_or(TrialStatus::Ok);
        self.n_retries += line.attempts;

        // Feedback into the proposers.
        match self.joint.as_mut() {
            // The baselines keep no ECI state, so nothing is calibrated.
            Some(joint) => joint.tell(p.mode, line.loss),
            None => {
                let st = &mut self.states[p.li];
                match p.mode {
                    TrialMode::Search => {
                        st.flow2.tell(line.loss);
                        st.eci.on_trial(line.cost, line.loss);
                    }
                    TrialMode::SampleUp => {
                        st.sample_size = p.trial_s;
                        st.flow2.set_best_err(line.loss);
                        let improved = st.eci.on_trial(line.cost, line.loss);
                        if !improved && line.loss.is_finite() {
                            // Errors are only comparable at the same
                            // sample size: rebase the learner's
                            // incumbent error. A failed (infinite) trial
                            // must not poison it, or the learner would
                            // never be selected again (Property 3,
                            // FairChance).
                            st.eci.rebase_err(line.loss);
                        }
                        if st.sample_size >= n {
                            st.flow2.set_adaptation(true);
                        }
                    }
                }
                // Restart a converged thread (full sample size only).
                if st.sample_size >= n && st.flow2.converged() {
                    st.flow2.restart();
                    if self.settings.sampling {
                        st.sample_size = self.settings.sample_size_init.min(n);
                        st.flow2.set_adaptation(st.sample_size >= n);
                    }
                }
                // Calibrate untried learners' ECI after the very first
                // trial.
                if p.trial_no == 1 {
                    for (i, st) in self.states.iter_mut().enumerate() {
                        if i != p.li {
                            st.eci
                                .set_untried_estimate(line.cost * st.kind.cost_constant());
                        }
                    }
                }
            }
        }

        if line.improved {
            self.best = Some(Best {
                li: p.li,
                config: p.config.clone(),
                error: line.loss,
                model: ran.as_mut().and_then(|outcome| outcome.model.take()),
            });
        }

        // Per-learner failure budget: consecutive non-finite trials
        // quarantine a learner (the ECI proposer skips it until its
        // next probe); any usable value lifts the quarantine. The
        // bookkeeping runs in every mode so traces stay deterministic,
        // but only ECI selection consults it. The event waits for the
        // append, like every event about this commit.
        let st = &mut self.states[p.li];
        let next_probe = p.trial_no + self.settings.quarantine_probe_every;
        let mut quarantine_event = None;
        if line.loss.is_finite() {
            st.consecutive_failures = 0;
            if st.quarantined {
                st.quarantined = false;
                quarantine_event = Some((
                    TrialEventKind::Unquarantined,
                    "probe trial succeeded; quarantine lifted".to_string(),
                ));
            }
        } else {
            st.consecutive_failures += 1;
            if st.quarantined {
                // Failed probe: back to the bench until the next.
                st.probe_at = next_probe;
            } else if self.settings.quarantine_after > 0
                && st.consecutive_failures >= self.settings.quarantine_after
            {
                st.quarantined = true;
                st.probe_at = next_probe;
                self.n_quarantined += 1;
                quarantine_event = Some((
                    TrialEventKind::Quarantined,
                    format!(
                        "quarantined after {} consecutive failures; probe at trial {}",
                        st.consecutive_failures, st.probe_at
                    ),
                ));
            }
        }

        // A persistence failure invalidates the run even though the
        // search itself is healthy: the caller believes every committed
        // trial is on disk, and here that stopped being true. The writer
        // already truncated the journal back to its last committed
        // record, which is exactly what `trials` still holds and what
        // the sink has been told.
        if let (Some(journal), true) = (&mut self.journal, ran.is_some()) {
            journal.append(&line);
            if let Some(e) = journal.take_error() {
                return Err(AutoMlError::Durability(e));
            }
        }

        if let Some((kind, message)) = quarantine_event {
            emit(sink, kind, p, |ev| {
                // Quarantine events are about the learner, not a config.
                ev.config.clear();
                ev.message = Some(message);
            });
        }
        emit(
            sink,
            match status {
                TrialStatus::Panicked => TrialEventKind::Panicked,
                TrialStatus::TimedOut => TrialEventKind::TimedOut,
                _ => TrialEventKind::Finished,
            },
            p,
            |ev| {
                ev.error = Some(line.loss);
                ev.cost = Some(line.cost);
                ev.wall_secs = Some(line.wall_secs);
                ev.message = ran.and_then(|outcome| outcome.message);
                ev.prepared_hits = line.prepared_hits;
                ev.prepared_misses = line.prepared_misses;
                ev.prepared_evictions = line.prepared_evictions;
                ev.bytes_copied_saved = line.bytes_copied_saved;
                ev.meta = Some(TrialMeta {
                    mode: line.mode.clone(),
                    status: line.status.clone(),
                    attempts: line.attempts,
                    attempt_costs: line.attempt_costs.clone(),
                    total_time: line.total_time,
                    seed: line.seed,
                    config_values: line.config_values.clone(),
                    improved: line.improved,
                    best_error: line.best_loss,
                });
            },
        );

        let eci_snapshot = if self.settings.learner_selection == LearnerSelection::Eci {
            self.states
                .iter()
                .map(|s| (s.kind.name(), s.eci.eci(line.best_loss, SAMPLE_GROWTH)))
                .collect()
        } else {
            Vec::new()
        };
        self.trials.push(TrialRecord {
            iter: line.iter,
            learner: line.learner,
            config: line.config,
            config_values: line.config_values,
            sample_size: line.sample_size,
            error: line.loss,
            cost: line.cost,
            total_time: line.total_time,
            mode: p.mode,
            improved_global: line.improved,
            best_error_so_far: line.best_loss,
            eci_snapshot,
            timed_out: status == TrialStatus::TimedOut,
            panicked: status == TrialStatus::Panicked,
            status,
            n_retries: line.attempts,
        });
        Ok(())
    }

    /// Ends the search: retrains the best configuration on the full
    /// training data (CV trials defer training; holdout trials trained on
    /// 90% of a sample), optionally stacks, and hands over the result.
    pub(crate) fn finish(self) -> Result<AutoMlResult, AutoMlError> {
        let settings = &self.settings;
        let Some(best) = self.best else {
            return Err(AutoMlError::NoViableModel);
        };
        let best_kind = &self.states[best.li].kind;
        let best_space = &self.states[best.li].space;

        // Fall back to the trial's model when the budget is spent (or the
        // refit fails); only when there is no trial model either (CV
        // defers its models) does the refit run on its grace budget,
        // since returning no model at all would turn a finished search
        // into an error.
        let (spent, refit_budget) = self.clock.refit_deadline(settings.time_budget);
        let model = match (spent, best.model) {
            (true, Some(m)) => m,
            (_, trial_model) => {
                match best_kind.fit(
                    &self.shuffled,
                    &best.config,
                    best_space,
                    settings.seed,
                    refit_budget,
                    None,
                ) {
                    Ok(m) => m,
                    Err(e) => trial_model.ok_or(AutoMlError::RefitFailed(e))?,
                }
            }
        };

        // Optional stacked-ensemble post-processing (paper appendix).
        let model = if settings.ensemble {
            let specs: Vec<MemberSpec> = self
                .states
                .iter()
                .filter(|st| st.eci.tried() && st.eci.best_err().is_finite())
                .map(|st| MemberSpec {
                    kind: st.kind.clone(),
                    config: st.space.decode(&st.flow2.best_point()),
                    space: st.space.clone(),
                    error: st.eci.best_err(),
                })
                .collect();
            build_stacked(&self.shuffled, specs, 4, 5, settings.seed, refit_budget).unwrap_or(model)
        } else {
            model
        };

        Ok(AutoMlResult {
            best_learner: best_kind.name(),
            best_config_rendered: best.config.render(best_space),
            best_config: best.config,
            best_error: best.error,
            model,
            trials: self.trials,
            strategy: self.strategy,
            metric: self.metric,
            n_retries: self.n_retries,
            n_quarantined: self.n_quarantined,
        })
    }
}
