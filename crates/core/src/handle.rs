//! Cooperative pause/resume slicing of a search: [`SearchHandle`].
//!
//! A multi-tenant service cannot let one tenant's `fit` monopolize the
//! shared pool until its budget runs out. [`SearchHandle`] chops a
//! journal-backed search into *slices* of a few trials each: a
//! scheduler runs one slice, parks the handle, and runs some other
//! tenant's slice — proportional time-sharing without threads being
//! preempted mid-trial.
//!
//! Pausing is simply not stepping. The handle owns the same search
//! state machine [`AutoMl::fit`] drives — opened on the first slice,
//! stepped a few trials per slice, finished (refit included) once — so
//! a sliced run does exactly the work of a one-shot run, and under a
//! virtual clock its journal's canonical bytes
//! ([`Journal::canonical_bytes`]) are **identical** to one's.
//!
//! A parked search keeps its proposer, ECI and quarantine state, its
//! budget clock (stopped, so time in the queue is not billed), RNG,
//! trial records, the incumbent's trial model and its open journal
//! writer. It does *not* keep the prepared-data cache: that is rebuilt
//! cold inside each slice, so the cache bytes a service holds are
//! bounded by the slices actually running, not by the searches in
//! flight.
//!
//! The journal is for crashes. Every committed trial is durable before
//! the search proceeds, so a new process can [`SearchHandle::attach`]
//! to a dead one's journal: the first slice then replays the committed
//! prefix through the state machine once (restoring FLOW² incumbents,
//! ECI state and spent budget exactly) and continues to the bytes an
//! uninterrupted run would have written.

use crate::automl::{AutoMl, AutoMlError, AutoMlResult};
use crate::controller::{Search, Stop};
use flaml_data::Dataset;
use flaml_journal::Journal;
use std::path::PathBuf;

/// What one [`SearchHandle::run_slice`] call concluded.
#[derive(Debug)]
pub enum SliceOutcome {
    /// The slice's trial cap was hit with search budget remaining; call
    /// [`SearchHandle::run_slice`] again to continue.
    Paused {
        /// Committed trials on disk so far.
        committed: usize,
        /// Budget seconds spent so far.
        spent: f64,
    },
    /// The search ran to completion (target trial cap or budget
    /// exhaustion) and produced its final result.
    Finished(Box<AutoMlResult>),
}

enum State {
    /// Not opened in this process yet. [`SearchHandle::attach`] leaves
    /// the journal it parsed here for the search to replay.
    Pending(Box<(AutoMl, Option<Journal>)>),
    /// Open, and parked between slices.
    Parked(Box<Search>),
    /// Finished or failed: the search is gone, its last counts remain.
    Closed {
        committed: usize,
        spent: f64,
        finished: bool,
    },
}

/// A journal-backed search that runs in cooperative slices (see the
/// module docs).
pub struct SearchHandle {
    journal: PathBuf,
    state: State,
}

impl SearchHandle {
    /// A handle for a fresh search journaling to `journal` (created /
    /// truncated on the first slice). `settings` carries the run's full
    /// configuration — its `max_trials` is the *target* cap the sliced
    /// search works toward; any `journal`/`resume_from` already set on
    /// it is overridden.
    pub fn new(settings: AutoMl, journal: impl Into<PathBuf>) -> SearchHandle {
        let journal = journal.into();
        SearchHandle {
            state: State::Pending(Box::new((settings.journal(&journal), None))),
            journal,
        }
    }

    /// A handle resuming the existing journal at `journal` — the crash
    /// recovery path. `settings` must match the journal's header (same
    /// seed, estimators, dataset…), exactly as [`AutoMl::resume_from`]
    /// requires; mismatches surface as [`AutoMlError::ResumeMismatch`]
    /// on the first slice.
    ///
    /// # Errors
    ///
    /// Returns [`AutoMlError::Journal`] if the journal cannot be read
    /// through the settings' storage.
    pub fn attach(
        settings: AutoMl,
        journal: impl Into<PathBuf>,
    ) -> Result<SearchHandle, AutoMlError> {
        let journal = journal.into();
        let storage = settings.storage.clone().unwrap_or_else(flaml_store::disk);
        let on_disk = Journal::read_with(storage.as_ref(), &journal)?;
        Ok(SearchHandle {
            state: State::Pending(Box::new((settings.resume_from(&journal), Some(on_disk)))),
            journal,
        })
    }

    /// Committed trials on disk: read from the live search, so it is
    /// current even after a slice that failed.
    pub fn committed(&self) -> usize {
        match &self.state {
            State::Pending(pending) => pending.1.as_ref().map_or(0, |j| j.trials.len()),
            State::Parked(search) => search.committed(),
            State::Closed { committed, .. } => *committed,
        }
    }

    /// Budget seconds spent so far (current even after a failed slice).
    pub fn spent(&self) -> f64 {
        match &self.state {
            State::Pending(pending) => pending.1.as_ref().map_or(0.0, Journal::spent_budget),
            State::Parked(search) => search.spent(),
            State::Closed { spent, .. } => *spent,
        }
    }

    /// Whether a slice already returned [`SliceOutcome::Finished`].
    pub fn is_finished(&self) -> bool {
        matches!(self.state, State::Closed { finished: true, .. })
    }

    /// The journal path this handle drives.
    pub fn journal_path(&self) -> &std::path::Path {
        &self.journal
    }

    /// Runs up to `slice_trials` more trials (at least 1), then yields.
    ///
    /// Returns [`SliceOutcome::Finished`] when the search hit its
    /// target trial cap or exhausted its time budget within the slice —
    /// the journal then holds the complete run and the final model has
    /// been refit. Otherwise returns [`SliceOutcome::Paused`]; the
    /// journal holds every committed trial, so should this process die
    /// a [`SearchHandle::attach`]ed handle in another can continue.
    ///
    /// `data` must be the dataset of every other slice: the same
    /// storage, or failing that the same content.
    ///
    /// # Errors
    ///
    /// [`AutoMlError::ResumeMismatch`] when `data` is some other
    /// dataset; the search stays parked. Any other [`AutoMlError`]
    /// comes from the search itself — a journal append that failed
    /// surfaces as [`AutoMlError::Durability`] from the slice that saw
    /// it — and closes the handle: the journal on disk is then the only
    /// state left, and a new [`SearchHandle::attach`] resumes from it.
    /// No finite loss yet is not an error until the search ends.
    ///
    /// # Panics
    ///
    /// If the handle is closed: a slice already returned `Finished` or
    /// a search error.
    pub fn run_slice(
        &mut self,
        data: &Dataset,
        slice_trials: usize,
    ) -> Result<SliceOutcome, AutoMlError> {
        let closed = State::Closed {
            committed: self.committed(),
            spent: self.spent(),
            finished: false,
        };
        let mut search = match std::mem::replace(&mut self.state, closed) {
            State::Pending(pending) => Box::new(Search::open(pending.0, data, pending.1)?),
            State::Parked(mut search) => {
                if let Err(mismatch) = search.verify_data(data) {
                    self.state = State::Parked(search);
                    return Err(mismatch);
                }
                search.clock.unpark();
                search
            }
            State::Closed { .. } => panic!("run_slice on a closed SearchHandle"),
        };
        let stop = search.step(search.committed() + slice_trials.max(1));
        let (committed, spent) = (search.committed(), search.spent());
        let closed = |finished| State::Closed {
            committed,
            spent,
            finished,
        };
        self.state = closed(false);
        if let Stop::Slice = stop? {
            search.clock.park();
            self.state = State::Parked(search);
            return Ok(SliceOutcome::Paused { committed, spent });
        }
        let result = search.finish()?;
        self.state = closed(true);
        Ok(SliceOutcome::Finished(Box::new(result)))
    }

    /// Runs slices of `slice_trials` back to back until the search
    /// finishes. Equivalent to a single `fit`, byte-identical journal
    /// included; exists mostly for tests and simple callers.
    ///
    /// # Errors
    ///
    /// Any [`AutoMlError`] from the underlying search.
    pub fn run_to_end(
        &mut self,
        data: &Dataset,
        slice_trials: usize,
    ) -> Result<AutoMlResult, AutoMlError> {
        loop {
            if let SliceOutcome::Finished(result) = self.run_slice(data, slice_trials)? {
                return Ok(*result);
            }
        }
    }
}
