//! Admission control and fair budget sharing across tenant searches.
//!
//! Every accepted `/fit` becomes a [`SearchJob`] wrapping a
//! [`SearchHandle`]; worker threads repeatedly pick a job, run **one
//! slice** (a few trials), and put it back. The pick rule is deficit
//! fairness: each tenant accumulates the budget seconds its slices
//! have charged, and the runnable job belonging to the least-charged
//! tenant goes next — so a tenant running one search and a tenant
//! running five split the pool's time per *tenant*, not per search.
//! Every slice is accounted to telemetry as a
//! [`TrialEventKind::TenantSlice`] event, and the queue depth is
//! sampled as [`TrialEventKind::ServeQueueDepth`] on every transition.
//!
//! Admission is a hard bound on queued-plus-running searches
//! ([`Scheduler::submit`] returns the counts for a typed 429); crash
//! recovery re-admits journaled searches outside the bound, because a
//! restart must never drop work it already accepted.
//!
//! A search that ends writes its model to its slot file (the one
//! durable copy) and then the [`SearchStatus`] it ended with to
//! `{id}.status.json`: its terminal record, which recovery reads in
//! place of the search.

use crate::api::SearchStatus;
use flaml_core::{
    ArtifactFormat, AutoMlError, AutoMlResult, CompiledModel, EventSink, Journal, ModelRegistry,
    SearchHandle, SliceOutcome, TrialEvent, TrialEventKind,
};
use flaml_data::Dataset;
use flaml_store::{atomic_write_file, Storage};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One admitted search: identity, data, and the sliced handle.
pub struct SearchJob {
    /// Owning tenant.
    pub tenant: String,
    /// Search id, unique within the tenant.
    pub id: String,
    /// Slot the result publishes into.
    pub slot: String,
    /// Trials per fair-share slice.
    pub slice_trials: usize,
    /// The sliced, journal-backed search.
    pub handle: SearchHandle,
    /// Training data.
    pub data: Dataset,
}

struct Queues {
    queued: VecDeque<SearchJob>,
    running: usize,
    /// Budget seconds charged per tenant, the fairness currency.
    deficits: BTreeMap<String, f64>,
}

/// The shared fit scheduler (see the module docs).
pub struct Scheduler {
    root: PathBuf,
    max_inflight: usize,
    registry: Arc<ModelRegistry>,
    sink: EventSink,
    storage: Arc<dyn Storage>,
    artifact_format: ArtifactFormat,
    queues: Mutex<Queues>,
    work: Condvar,
    statuses: Mutex<BTreeMap<(String, String), SearchStatus>>,
    shutdown: AtomicBool,
}

impl Scheduler {
    /// A scheduler writing artifacts under `root` (through `storage`)
    /// in `artifact_format` and publishing into `registry`; at most
    /// `max_inflight` searches queued or running.
    pub fn new(
        root: PathBuf,
        max_inflight: usize,
        registry: Arc<ModelRegistry>,
        sink: EventSink,
        storage: Arc<dyn Storage>,
        artifact_format: ArtifactFormat,
    ) -> Scheduler {
        Scheduler {
            root,
            max_inflight: max_inflight.max(1),
            registry,
            sink,
            storage,
            artifact_format,
            queues: Mutex::new(Queues {
                queued: VecDeque::new(),
                running: 0,
                deficits: BTreeMap::new(),
            }),
            work: Condvar::new(),
            statuses: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Searches currently queued or running.
    pub fn inflight(&self) -> usize {
        let q = self.queues.lock().expect("scheduler lock");
        q.queued.len() + q.running
    }

    /// Admits `job` if the in-flight bound allows, or returns
    /// `(inflight, max_inflight)` for the 429 body. An admitted job's
    /// status starts as `"queued"`.
    pub fn submit(&self, job: SearchJob) -> Result<(), (usize, usize)> {
        {
            let q = self.queues.lock().expect("scheduler lock");
            let inflight = q.queued.len() + q.running;
            if inflight >= self.max_inflight {
                return Err((inflight, self.max_inflight));
            }
        }
        self.admit(job);
        Ok(())
    }

    /// Admits `job` unconditionally — the crash-recovery path, which
    /// must never drop work a previous process accepted.
    pub fn submit_recovered(&self, job: SearchJob) {
        self.admit(job);
    }

    fn admit(&self, job: SearchJob) {
        self.set_status(&job, "queued");
        let depth;
        {
            let mut q = self.queues.lock().expect("scheduler lock");
            // A tenant joins at the current minimum so it gets its fair
            // turn immediately without erasing others' history.
            let floor = q.deficits.values().copied().fold(f64::INFINITY, f64::min);
            q.deficits
                .entry(job.tenant.clone())
                .or_insert(if floor.is_finite() { floor } else { 0.0 });
            q.queued.push_back(job);
            depth = q.queued.len() + q.running;
        }
        self.emit_depth(depth);
        self.work.notify_one();
    }

    /// Records a terminal status directly — for recovered searches that
    /// already finished or failed on a previous process.
    pub fn record_terminal(&self, tenant: &str, status: SearchStatus) {
        self.statuses
            .lock()
            .expect("status lock")
            .insert((tenant.to_string(), status.id.clone()), status);
    }

    /// The status of one search, if known.
    pub fn status(&self, tenant: &str, id: &str) -> Option<SearchStatus> {
        self.statuses
            .lock()
            .expect("status lock")
            .get(&(tenant.to_string(), id.to_string()))
            .cloned()
    }

    /// Counts of searches by state, for `/stats`.
    pub fn state_counts(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for s in self.statuses.lock().expect("status lock").values() {
            *out.entry(s.state.clone()).or_insert(0) += 1;
        }
        out
    }

    /// Stops the worker loops (idempotent). Queued jobs stay queued —
    /// their journals make them recoverable by the next process.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.work.notify_all();
    }

    /// One worker loop: run until [`Scheduler::stop`]. Spawn this on a
    /// dedicated thread; multiple workers share the queue safely.
    pub fn run_worker(self: &Arc<Self>) {
        loop {
            let Some(mut job) = self.next_job() else {
                return;
            };
            let spent_before = job.handle.spent();
            let committed_before = job.handle.committed();
            self.set_status(&job, "running");
            self.emit_depth_now();

            let slice = catch_unwind(AssertUnwindSafe(|| {
                job.handle.run_slice(&job.data, job.slice_trials)
            }));
            let charged = job.handle.spent() - spent_before;
            let trials = job.handle.committed() - committed_before;
            self.charge(&job.tenant, charged, trials);

            match slice {
                Ok(Ok(SliceOutcome::Paused { .. })) => {
                    self.set_status(&job, "queued");
                    let depth;
                    {
                        let mut q = self.queues.lock().expect("scheduler lock");
                        q.running -= 1;
                        q.queued.push_back(job);
                        depth = q.queued.len() + q.running;
                    }
                    self.emit_depth(depth);
                    self.work.notify_one();
                }
                // A search leaves the admission bound *before* its
                // terminal status shows: a client that reads "finished"
                // and submits its next search at once must find room.
                Ok(Ok(SliceOutcome::Finished(result))) => {
                    let published = self.publish(&job, &result);
                    self.finish_one();
                    match published {
                        Ok(version) => self.settle(
                            &job,
                            "finished",
                            Some(result.best_error),
                            Some(version),
                            None,
                        ),
                        Err(msg) => self.settle(&job, "failed", None, None, Some(msg)),
                    }
                }
                Ok(Err(e)) => {
                    // A durability failure (ENOSPC, failed fsync) is a
                    // storage fault, not a search defect: count it so
                    // operators can tell a full disk from a bad config.
                    if matches!(e, AutoMlError::Durability(_)) {
                        self.emit_storage_fault(&job.tenant, &e.to_string());
                    }
                    self.finish_one();
                    self.settle(&job, "failed", None, None, Some(e.to_string()));
                }
                Err(panic) => {
                    let msg = format!("slice panicked: {}", panic_message(&panic));
                    self.finish_one();
                    self.settle(&job, "failed", None, None, Some(msg));
                }
            }
        }
    }

    /// Blocks for the fairest runnable job; `None` on shutdown.
    fn next_job(&self) -> Option<SearchJob> {
        let mut q = self.queues.lock().expect("scheduler lock");
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(idx) = pick_fairest(&q) {
                let job = q.queued.remove(idx).expect("index from pick_fairest");
                q.running += 1;
                return Some(job);
            }
            q = self.work.wait(q).expect("scheduler lock");
        }
    }

    fn finish_one(&self) {
        let depth;
        {
            let mut q = self.queues.lock().expect("scheduler lock");
            q.running -= 1;
            depth = q.queued.len() + q.running;
        }
        self.emit_depth(depth);
        self.work.notify_one();
    }

    fn charge(&self, tenant: &str, cost: f64, trials: usize) {
        {
            let mut q = self.queues.lock().expect("scheduler lock");
            *q.deficits.entry(tenant.to_string()).or_insert(0.0) += cost.max(0.0);
        }
        let mut ev = TrialEvent::new(TrialEventKind::TenantSlice);
        ev.tenant = tenant.to_string();
        ev.cost = Some(cost.max(0.0));
        ev.sample_size = trials;
        self.sink.emit(ev);
    }

    /// Writes `compiled` to `{stem}{suffix}` in the configured format
    /// and best-effort removes the other-format sibling, so recovery
    /// never resurrects a stale model from a previous format setting.
    pub(crate) fn write_artifact(
        &self,
        compiled: &CompiledModel,
        dir: &std::path::Path,
        stem: &str,
    ) -> Result<u64, flaml_core::ArtifactError> {
        let format = self.artifact_format;
        let path = dir.join(format!("{stem}{}", format.suffix()));
        let fp = format.save_with(self.storage.as_ref(), &path, compiled)?;
        for other in ArtifactFormat::ALL {
            if other != format {
                let _ = self
                    .storage
                    .remove(&dir.join(format!("{stem}{}", other.suffix())));
            }
        }
        Ok(fp)
    }

    fn publish(&self, job: &SearchJob, result: &AutoMlResult) -> Result<u64, String> {
        let compiled = result
            .compile()
            .map_err(|e: AutoMlError| format!("compiling best model failed: {e}"))?;
        // The slot file is the one durable copy of the model: restart
        // republishes it. It publishes atomically, so a crash in here
        // leaves the old slot file or the new one, never a torn one.
        let slots_dir = self.root.join(&job.tenant).join("slots");
        self.write_artifact(&compiled, &slots_dir, &job.slot)
            .map_err(|e| {
                self.emit_storage_fault(&job.tenant, &e.to_string());
                format!("writing slot artifact failed: {e}")
            })?;
        Ok(self
            .registry
            .publish(&format!("{}/{}", job.tenant, job.slot), compiled)
            .version)
    }

    /// Shows the status `job` ended with and writes it atomically as
    /// the search's terminal record, `{id}.status.json`, which recovery
    /// reads instead of re-deriving the search. A record that is lost
    /// costs only that re-derivation from the journal on restart, so a
    /// failed write is counted as a storage fault and the status shown
    /// stands.
    fn settle(
        &self,
        job: &SearchJob,
        state: &str,
        best_loss: Option<f64>,
        published_version: Option<u64>,
        error: Option<String>,
    ) {
        let status = self.set_status_full(job, state, best_loss, published_version, error);
        let record = terminal_record(&self.root.join(&job.tenant), &job.id);
        let text = serde_json::to_string(&status).expect("statuses always serialize");
        if let Err(e) = atomic_write_file(self.storage.as_ref(), &record, text.as_bytes()) {
            self.emit_storage_fault(&job.tenant, &format!("writing terminal record: {e}"));
        }
    }

    pub(crate) fn emit_storage_fault(&self, tenant: &str, detail: &str) {
        let mut ev = TrialEvent::new(TrialEventKind::StorageFault);
        ev.tenant = tenant.to_string();
        ev.message = Some(detail.to_string());
        self.sink.emit(ev);
    }

    fn set_status(&self, job: &SearchJob, state: &str) {
        self.set_status_full(job, state, None, None, None);
    }

    fn set_status_full(
        &self,
        job: &SearchJob,
        state: &str,
        best_loss: Option<f64>,
        published_version: Option<u64>,
        error: Option<String>,
    ) -> SearchStatus {
        // Keep the last observed best loss when a slice has none to
        // report (statuses only ever gain information).
        let mut statuses = self.statuses.lock().expect("status lock");
        let prior_best = statuses
            .get(&(job.tenant.clone(), job.id.clone()))
            .and_then(|s| s.best_loss);
        let status = SearchStatus {
            id: job.id.clone(),
            state: state.to_string(),
            committed: job.handle.committed(),
            spent: job.handle.spent(),
            best_loss: best_loss.or(prior_best),
            slot: job.slot.clone(),
            published_version,
            error,
        };
        statuses.insert((job.tenant.clone(), job.id.clone()), status.clone());
        status
    }

    fn emit_depth_now(&self) {
        let depth = self.inflight();
        self.emit_depth(depth);
    }

    fn emit_depth(&self, depth: usize) {
        let mut ev = TrialEvent::new(TrialEventKind::ServeQueueDepth);
        ev.sample_size = depth;
        self.sink.emit(ev);
    }
}

/// Index of the queued job whose tenant has the smallest deficit;
/// FIFO breaks ties (the front-most job of the least-charged tenant).
fn pick_fairest(q: &Queues) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (idx, job) in q.queued.iter().enumerate() {
        let deficit = q.deficits.get(&job.tenant).copied().unwrap_or(0.0);
        if best.is_none_or(|(d, _)| deficit < d) {
            best = Some((deficit, idx));
        }
    }
    best.map(|(_, idx)| idx)
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// The terminal record of search `id` in `tenant_dir`:
/// `{id}.status.json`, the [`SearchStatus`] it ended with.
pub(crate) fn terminal_record(tenant_dir: &Path, id: &str) -> PathBuf {
    tenant_dir.join(format!("{id}.status.json"))
}

/// Reads the journal-backed progress of a search — committed trials,
/// spent budget, best loss — through `storage`; used by recovery to
/// report the statuses of searches it cannot re-admit.
pub(crate) fn journal_progress(
    storage: &dyn flaml_core::Storage,
    path: &Path,
) -> (usize, f64, Option<f64>) {
    match Journal::read_with(storage, path) {
        Ok(j) => {
            let best = j.best_trial().map(|t| t.loss);
            (j.trials.len(), j.spent_budget(), best)
        }
        Err(_) => (0, 0.0, None),
    }
}
