//! Trial telemetry: structured events emitted as trials start and end,
//! and an aggregator that turns an event stream into counts.
//!
//! Events flow into an [`EventSink`], which is cheap to clone and safe to
//! share across pool workers. A sink is one of two shapes:
//!
//! - a **channel** sink ([`event_channel`]) buffering events on a standard
//!   mpsc channel for later draining (sends to a dropped receiver are
//!   silently discarded);
//! - a **callback** sink ([`EventSink::callback`]) invoking a closure
//!   synchronously on the emitting thread — what a live aggregate (a
//!   server's [`Telemetry`] behind a mutex) wants.
//!
//! Sinks are telemetry and nothing else: emitting cannot fail, so nothing
//! that must be able to fail a run — the trial journal above all — is
//! ever a sink. A committed trial is appended to its journal by the
//! controller itself, *before* the events that describe the commit.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc;
use std::sync::Arc;

/// What happened to a trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialEventKind {
    /// The trial began executing.
    Started,
    /// The trial completed within its deadline.
    Finished,
    /// The trial completed, but past its cooperative deadline.
    TimedOut,
    /// The trial panicked (and was converted into a failed trial).
    Panicked,
    /// A transient trial failure is being retried (one event per retry
    /// attempt, before the attempt runs).
    Retried,
    /// A learner was quarantined after consecutive failures; the ECI
    /// proposer stops proposing it until a probe succeeds.
    Quarantined,
    /// A quarantined learner's probe succeeded; it rejoins the roster.
    Unquarantined,
    /// The input data was sanitized before the search (e.g. constant or
    /// all-NaN feature columns dropped); details in the message.
    Sanitized,
    /// A serving batch completed: `label` names the registry slot,
    /// `sample_size` carries the row count and `wall_secs` the batch
    /// latency.
    ServeBatch,
    /// A new model version was promoted into a registry slot.
    ServePromoted,
    /// A registry slot was rolled back to an earlier model version.
    ServeRolledBack,
    /// An admission controller rejected a request (e.g. a fit submitted
    /// past the in-flight search cap); `tenant` names the rejected
    /// tenant and the message carries the reason.
    ServeRejected,
    /// A gauge sample of an admission queue's depth: `sample_size`
    /// carries the number of searches queued or running when the event
    /// was emitted (on admit, dequeue, and completion).
    ServeQueueDepth,
    /// One fair-share scheduling slice of a tenant's search completed:
    /// `tenant` names the tenant, `cost` the budget seconds charged to
    /// the slice and `sample_size` the trials it committed.
    TenantSlice,
    /// A corrupt or unreadable durable file was quarantined during
    /// recovery (renamed to `*.corrupt` instead of aborting startup);
    /// the message carries the original path.
    StorageQuarantined,
    /// A durable-storage operation failed (`ENOSPC`, failed fsync, torn
    /// write, failed marker write); the message carries the typed error.
    StorageFault,
    /// An HTTP connection was dropped after a socket read/write timeout
    /// — a stalled client that can no longer pin a connection thread.
    ServeTimedOut,
}

impl TrialEventKind {
    /// Stable lowercase name (used in logs and reports).
    pub fn name(&self) -> &'static str {
        match self {
            TrialEventKind::Started => "started",
            TrialEventKind::Finished => "finished",
            TrialEventKind::TimedOut => "timed-out",
            TrialEventKind::Panicked => "panicked",
            TrialEventKind::Retried => "retried",
            TrialEventKind::Quarantined => "quarantined",
            TrialEventKind::Unquarantined => "unquarantined",
            TrialEventKind::Sanitized => "sanitized",
            TrialEventKind::ServeBatch => "serve-batch",
            TrialEventKind::ServePromoted => "serve-promoted",
            TrialEventKind::ServeRolledBack => "serve-rolled-back",
            TrialEventKind::ServeRejected => "serve-rejected",
            TrialEventKind::ServeQueueDepth => "serve-queue-depth",
            TrialEventKind::TenantSlice => "tenant-slice",
            TrialEventKind::StorageQuarantined => "storage-quarantined",
            TrialEventKind::StorageFault => "storage-fault",
            TrialEventKind::ServeTimedOut => "serve-timed-out",
        }
    }
}

/// Extended per-trial metadata attached to *committed* terminal events.
///
/// Live displays only need the event's headline fields; this is the rest
/// of the trial's journal line. The emitting controller fills it on the
/// one terminal event per committed trial, after the line is durable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrialMeta {
    /// Trial mode: `"search"` or `"sample-up"`.
    pub mode: String,
    /// Final-attempt status name (`"ok"`, `"failed"`, `"timed-out"`,
    /// `"panicked"`, `"non-finite-loss"`).
    pub status: String,
    /// Retry attempts the trial consumed (0 = first attempt was final).
    pub attempts: usize,
    /// Budget cost charged per attempt, in charge order. Replaying these
    /// charges one by one reproduces the budget clock's floating-point
    /// accumulation exactly.
    pub attempt_costs: Vec<f64>,
    /// Total budget elapsed when the trial committed.
    pub total_time: f64,
    /// The trial's base evaluation seed.
    pub seed: u64,
    /// Natural-unit configuration values, in search-space parameter order
    /// (lossless, unlike the rendered `config` string).
    pub config_values: Vec<f64>,
    /// Whether the trial improved the run's global best error.
    pub improved: bool,
    /// Global best error after this trial.
    pub best_error: f64,
}

/// One structured trial event.
#[derive(Debug, Clone)]
pub struct TrialEvent {
    /// Event kind.
    pub kind: TrialEventKind,
    /// Job/trial id (submission index within its run).
    pub job_id: u64,
    /// Free-form label (e.g. `"dataset/method"`).
    pub label: String,
    /// Tenant the event is accounted to in a multi-tenant service
    /// (empty outside the server: library runs have no tenancy).
    pub tenant: String,
    /// Learner evaluated, if known.
    pub learner: String,
    /// Rendered configuration, if known.
    pub config: String,
    /// Training sample size, if known.
    pub sample_size: usize,
    /// Observed validation error (terminal events only).
    pub error: Option<f64>,
    /// Charged cost in budget seconds (terminal events only).
    pub cost: Option<f64>,
    /// Measured wall seconds (terminal events only).
    pub wall_secs: Option<f64>,
    /// Panic or diagnostic message, if any.
    pub message: Option<String>,
    /// Prepared-data cache hits during this trial's preparation
    /// (committed terminal events only; 0 elsewhere).
    pub prepared_hits: usize,
    /// Prepared-data cache misses during this trial's preparation.
    pub prepared_misses: usize,
    /// Prepared-data cache entries evicted under the byte budget during
    /// this trial's preparation.
    pub prepared_evictions: usize,
    /// Bytes of dataset copies the zero-copy data plane avoided
    /// materializing for this trial.
    pub bytes_copied_saved: usize,
    /// Always 0: no trial fit continues a cached tree prefix. Kept,
    /// with the two fields below, because `flaml-perf` still reads all
    /// three; they leave with the typed trial events.
    pub tree_cache_hits: usize,
    /// Always 0 (see `tree_cache_hits`).
    pub tree_cache_misses: usize,
    /// Always 0 (see `tree_cache_hits`).
    pub trees_saved: usize,
    /// Full per-trial metadata (committed terminal events only).
    pub meta: Option<TrialMeta>,
}

impl TrialEvent {
    /// A bare event of `kind` with empty metadata.
    pub fn new(kind: TrialEventKind) -> TrialEvent {
        TrialEvent {
            kind,
            job_id: 0,
            label: String::new(),
            tenant: String::new(),
            learner: String::new(),
            config: String::new(),
            sample_size: 0,
            error: None,
            cost: None,
            wall_secs: None,
            message: None,
            prepared_hits: 0,
            prepared_misses: 0,
            prepared_evictions: 0,
            bytes_copied_saved: 0,
            tree_cache_hits: 0,
            tree_cache_misses: 0,
            trees_saved: 0,
            meta: None,
        }
    }
}

enum SinkInner {
    Channel(mpsc::Sender<TrialEvent>),
    Callback(Arc<dyn Fn(&TrialEvent) + Send + Sync>),
}

impl Clone for SinkInner {
    fn clone(&self) -> SinkInner {
        match self {
            SinkInner::Channel(tx) => SinkInner::Channel(tx.clone()),
            SinkInner::Callback(f) => SinkInner::Callback(f.clone()),
        }
    }
}

/// The consuming end a run emits trial events into (see the module docs
/// for the two sink shapes).
#[derive(Clone)]
pub struct EventSink {
    inner: SinkInner,
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            SinkInner::Channel(_) => f.write_str("EventSink::Channel"),
            SinkInner::Callback(_) => f.write_str("EventSink::Callback"),
        }
    }
}

impl EventSink {
    /// A sink that invokes `f` synchronously on the emitting thread for
    /// every event. The callback must not panic; it runs on the run's
    /// own threads.
    pub fn callback(f: impl Fn(&TrialEvent) + Send + Sync + 'static) -> EventSink {
        EventSink {
            inner: SinkInner::Callback(Arc::new(f)),
        }
    }

    /// Emits an event. Errors (e.g. a dropped channel receiver) are
    /// ignored: telemetry is strictly best-effort and must never fail a
    /// run.
    pub fn emit(&self, event: TrialEvent) {
        match &self.inner {
            SinkInner::Channel(tx) => {
                let _ = tx.send(event);
            }
            SinkInner::Callback(f) => f(&event),
        }
    }
}

/// Creates a trial-event channel: a cloneable sink plus its receiver.
pub fn event_channel() -> (EventSink, mpsc::Receiver<TrialEvent>) {
    let (tx, rx) = mpsc::channel();
    (
        EventSink {
            inner: SinkInner::Channel(tx),
        },
        rx,
    )
}

/// Per-learner event counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LearnerCounts {
    /// Trials finished within deadline.
    pub finished: usize,
    /// Trials past their cooperative deadline.
    pub timed_out: usize,
    /// Trials that panicked.
    pub panicked: usize,
    /// Retry attempts charged to this learner's trials.
    pub retried: usize,
    /// Times this learner was quarantined.
    pub quarantined: usize,
}

/// Per-tenant resource accounting in a multi-tenant service, folded
/// from tenant-carrying events (`TenantSlice`, serving traffic and
/// admission rejections emitted with a non-empty `tenant`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantUsage {
    /// Fair-share scheduling slices run for this tenant's searches.
    pub fit_slices: usize,
    /// Search trials committed across those slices.
    pub fit_trials: usize,
    /// Budget seconds charged to this tenant's searches.
    pub fit_cost_secs: f64,
    /// Serving batches completed for this tenant.
    pub serve_batches: usize,
    /// Rows served to this tenant.
    pub serve_rows: usize,
    /// Requests of this tenant rejected by admission control.
    pub rejected: usize,
}

/// Batch latencies a [`SlotStats`] keeps for its percentiles: the most
/// recent ones, so a long-lived server's memory per slot is bounded.
const LATENCY_WINDOW: usize = 4096;

/// Serving statistics of one registry slot, folded from its
/// `ServeBatch` events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlotStats {
    /// Completed batches (chunks).
    pub batches: usize,
    /// Rows served.
    pub rows: usize,
    /// Total batch wall seconds (sum over batches).
    pub total_secs: f64,
    occupancy_sum: f64,
    /// The last [`LATENCY_WINDOW`] batch latencies, oldest first.
    latencies: VecDeque<f64>,
}

impl SlotStats {
    fn record(&mut self, event: &TrialEvent) {
        self.batches += 1;
        self.rows += event.sample_size;
        let wall = event.wall_secs.unwrap_or(0.0);
        self.total_secs += wall;
        self.occupancy_sum += event.cost.unwrap_or(0.0);
        if self.latencies.len() == LATENCY_WINDOW {
            self.latencies.pop_front();
        }
        self.latencies.push_back(wall);
    }

    /// The `q`-th latency percentile in seconds: nearest-rank over the
    /// most recent batch latencies (0 with no batches).
    fn latency_percentile(&self, q: f64) -> f64 {
        let mut window: Vec<f64> = self.latencies.iter().copied().collect();
        let n = window.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q / 100.0) * n as f64).ceil() as usize;
        *window
            .select_nth_unstable_by(rank.clamp(1, n) - 1, f64::total_cmp)
            .1
    }

    /// Median batch latency in seconds.
    pub fn p50(&self) -> f64 {
        self.latency_percentile(50.0)
    }

    /// 95th-percentile batch latency in seconds.
    pub fn p95(&self) -> f64 {
        self.latency_percentile(95.0)
    }

    /// 99th-percentile batch latency in seconds.
    pub fn p99(&self) -> f64 {
        self.latency_percentile(99.0)
    }

    /// Rows per second over every batch recorded (0 with no wall time).
    pub fn throughput(&self) -> f64 {
        if self.total_secs > 0.0 {
            self.rows as f64 / self.total_secs
        } else {
            0.0
        }
    }

    /// Mean batch occupancy: rows per batch over the configured batch
    /// capacity, averaged across batches (1.0 = every batch full).
    pub fn mean_occupancy(&self) -> f64 {
        if self.batches > 0 {
            self.occupancy_sum / self.batches as f64
        } else {
            0.0
        }
    }
}

/// The one fold of a trial-event stream: search, serving, tenancy and
/// storage counts, as the server's `/stats` and the benches read them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// `Started` events seen.
    pub started: usize,
    /// `Finished` events seen.
    pub finished: usize,
    /// `TimedOut` events seen.
    pub timed_out: usize,
    /// `Panicked` events seen.
    pub panicked: usize,
    /// `Retried` events seen (retry attempts across all trials).
    pub retried: usize,
    /// `Quarantined` events seen.
    pub quarantined: usize,
    /// `Unquarantined` events seen.
    pub unquarantined: usize,
    /// `Sanitized` events seen (input-data cleanups before the search).
    pub sanitized: usize,
    /// `ServeBatch` events seen (completed serving batches).
    pub serve_batches: usize,
    /// Rows served, summed over `ServeBatch` events' `sample_size`.
    pub serve_rows: usize,
    /// `ServePromoted` events seen (registry slot promotions).
    pub serve_promoted: usize,
    /// Promotions by reason (`"drift"` / `"scheduled"` / `"manual"`, as
    /// the registry puts it in the event's message; an event without one
    /// counts under `"manual"`).
    pub promoted_reasons: BTreeMap<String, usize>,
    /// `ServeRolledBack` events seen (registry slot rollbacks).
    pub serve_rolled_back: usize,
    /// `ServeRejected` events seen (admission-control rejections).
    pub serve_rejected: usize,
    /// Last observed admission queue depth (`ServeQueueDepth` gauge).
    pub serve_queue_depth: usize,
    /// Highest admission queue depth observed.
    pub serve_queue_depth_max: usize,
    /// `TenantSlice` events seen (fair-share search slices).
    pub tenant_slices: usize,
    /// `StorageQuarantined` events seen (corrupt files sidelined during
    /// recovery).
    pub storage_quarantined: usize,
    /// `StorageFault` events seen (durable-storage operation failures).
    pub storage_faults: usize,
    /// `ServeTimedOut` events seen (connections dropped on socket
    /// timeout).
    pub serve_timed_out: usize,
    /// Prepared-data cache hits summed over all events.
    pub prepared_hits: usize,
    /// Prepared-data cache misses summed over all events.
    pub prepared_misses: usize,
    /// Prepared-data cache evictions summed over all events.
    pub prepared_evictions: usize,
    /// Bytes of dataset copies the zero-copy data plane avoided
    /// materializing, summed over all events.
    pub bytes_copied_saved: usize,
    /// Per-learner counts keyed by learner name (unnamed trials group
    /// under the empty string).
    pub by_learner: BTreeMap<String, LearnerCounts>,
    /// Per-tenant accounting keyed by tenant name (events with an empty
    /// `tenant` are not attributed).
    pub by_tenant: BTreeMap<String, TenantUsage>,
    /// Per-slot serving statistics keyed by the `ServeBatch` events'
    /// `label`.
    pub by_slot: BTreeMap<String, SlotStats>,
}

impl Telemetry {
    /// An empty aggregate.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Folds one event in.
    pub fn record(&mut self, event: &TrialEvent) {
        self.prepared_hits += event.prepared_hits;
        self.prepared_misses += event.prepared_misses;
        self.prepared_evictions += event.prepared_evictions;
        self.bytes_copied_saved += event.bytes_copied_saved;
        let mut tenant = (!event.tenant.is_empty())
            .then(|| self.by_tenant.entry(event.tenant.clone()).or_default());
        match event.kind {
            TrialEventKind::Started => self.started += 1,
            TrialEventKind::Finished => {
                self.finished += 1;
                self.learner(event).finished += 1;
            }
            TrialEventKind::TimedOut => {
                self.timed_out += 1;
                self.learner(event).timed_out += 1;
            }
            TrialEventKind::Panicked => {
                self.panicked += 1;
                self.learner(event).panicked += 1;
            }
            TrialEventKind::Retried => {
                self.retried += 1;
                self.learner(event).retried += 1;
            }
            TrialEventKind::Quarantined => {
                self.quarantined += 1;
                self.learner(event).quarantined += 1;
            }
            TrialEventKind::Unquarantined => self.unquarantined += 1,
            TrialEventKind::Sanitized => self.sanitized += 1,
            TrialEventKind::ServeBatch => {
                self.serve_batches += 1;
                self.serve_rows += event.sample_size;
                self.by_slot
                    .entry(event.label.clone())
                    .or_default()
                    .record(event);
                if let Some(usage) = &mut tenant {
                    usage.serve_batches += 1;
                    usage.serve_rows += event.sample_size;
                }
            }
            TrialEventKind::ServePromoted => {
                self.serve_promoted += 1;
                let reason = event.message.as_deref().unwrap_or("manual");
                *self.promoted_reasons.entry(reason.to_string()).or_insert(0) += 1;
            }
            TrialEventKind::ServeRolledBack => self.serve_rolled_back += 1,
            TrialEventKind::ServeRejected => {
                self.serve_rejected += 1;
                if let Some(usage) = &mut tenant {
                    usage.rejected += 1;
                }
            }
            TrialEventKind::ServeQueueDepth => {
                self.serve_queue_depth = event.sample_size;
                self.serve_queue_depth_max = self.serve_queue_depth_max.max(event.sample_size);
            }
            TrialEventKind::TenantSlice => {
                self.tenant_slices += 1;
                if let Some(usage) = &mut tenant {
                    usage.fit_slices += 1;
                    usage.fit_trials += event.sample_size;
                    usage.fit_cost_secs += event.cost.unwrap_or(0.0);
                }
            }
            TrialEventKind::StorageQuarantined => self.storage_quarantined += 1,
            TrialEventKind::StorageFault => self.storage_faults += 1,
            TrialEventKind::ServeTimedOut => self.serve_timed_out += 1,
        }
    }

    /// The counts of the learner `event` is about (unnamed trials group
    /// under the empty string).
    fn learner(&mut self, event: &TrialEvent) -> &mut LearnerCounts {
        self.by_learner.entry(event.learner.clone()).or_default()
    }

    /// Drains every event currently buffered in `rx` (non-blocking) and
    /// folds them in. Returns `self` for chaining.
    pub fn drain(mut self, rx: &mpsc::Receiver<TrialEvent>) -> Telemetry {
        while let Ok(ev) = rx.try_recv() {
            self.record(&ev);
        }
        self
    }

    /// Total terminal events (finished + timed out + panicked).
    pub fn total_terminal(&self) -> usize {
        self.finished + self.timed_out + self.panicked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_survives_dropped_receiver() {
        let (sink, rx) = event_channel();
        drop(rx);
        sink.emit(TrialEvent::new(TrialEventKind::Started));
    }

    #[test]
    fn callback_sink_runs_synchronously() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = seen.clone();
        let sink = EventSink::callback(move |ev| {
            assert_eq!(ev.kind, TrialEventKind::Finished);
            seen2.fetch_add(1, Ordering::SeqCst);
        });
        sink.emit(TrialEvent::new(TrialEventKind::Finished));
        assert_eq!(
            seen.load(Ordering::SeqCst),
            1,
            "callback ran before emit returned"
        );
    }

    #[test]
    fn telemetry_counts_by_kind_and_learner() {
        let (sink, rx) = event_channel();
        let mut ev = TrialEvent::new(TrialEventKind::Started);
        ev.learner = "gbm".into();
        sink.emit(ev.clone());
        ev.kind = TrialEventKind::Finished;
        sink.emit(ev.clone());
        ev.kind = TrialEventKind::Panicked;
        sink.emit(ev.clone());
        ev.kind = TrialEventKind::TimedOut;
        ev.learner = "lr".into();
        sink.emit(ev);
        let t = Telemetry::new().drain(&rx);
        assert_eq!(t.started, 1);
        assert_eq!(t.finished, 1);
        assert_eq!(t.panicked, 1);
        assert_eq!(t.timed_out, 1);
        assert_eq!(t.total_terminal(), 3);
        assert_eq!(t.by_learner["gbm"].finished, 1);
        assert_eq!(t.by_learner["gbm"].panicked, 1);
        assert_eq!(t.by_learner["lr"].timed_out, 1);
    }

    #[test]
    fn telemetry_sums_data_plane_counters() {
        let (sink, rx) = event_channel();
        let mut ev = TrialEvent::new(TrialEventKind::Finished);
        ev.prepared_hits = 2;
        ev.prepared_misses = 3;
        ev.prepared_evictions = 1;
        ev.bytes_copied_saved = 4096;
        sink.emit(ev.clone());
        ev.prepared_hits = 5;
        ev.prepared_misses = 0;
        ev.prepared_evictions = 2;
        ev.bytes_copied_saved = 1024;
        sink.emit(ev);
        let t = Telemetry::new().drain(&rx);
        assert_eq!(t.prepared_hits, 7);
        assert_eq!(t.prepared_misses, 3);
        assert_eq!(t.prepared_evictions, 3);
        assert_eq!(t.bytes_copied_saved, 5120);
    }

    #[test]
    fn telemetry_counts_serving_events() {
        let (sink, rx) = event_channel();
        let mut ev = TrialEvent::new(TrialEventKind::ServeBatch);
        ev.label = "prod/churn".into();
        ev.sample_size = 128;
        sink.emit(ev.clone());
        ev.sample_size = 64;
        sink.emit(ev.clone());
        ev.kind = TrialEventKind::ServePromoted;
        ev.sample_size = 0;
        sink.emit(ev.clone());
        ev.kind = TrialEventKind::ServeRolledBack;
        sink.emit(ev);
        let t = Telemetry::new().drain(&rx);
        assert_eq!(t.serve_batches, 2);
        assert_eq!(t.serve_rows, 192);
        assert_eq!(t.serve_promoted, 1);
        assert_eq!(t.serve_rolled_back, 1);
        assert_eq!(t.total_terminal(), 0, "serving events are not terminal");
        assert!(t.by_learner.is_empty(), "serving events carry no learner");
    }

    #[test]
    fn telemetry_counts_admission_and_tenant_events() {
        let (sink, rx) = event_channel();
        let mut ev = TrialEvent::new(TrialEventKind::ServeRejected);
        ev.tenant = "acme".into();
        sink.emit(ev.clone());
        ev.kind = TrialEventKind::ServeQueueDepth;
        ev.sample_size = 7;
        sink.emit(ev.clone());
        ev.sample_size = 3;
        sink.emit(ev.clone());
        ev.kind = TrialEventKind::TenantSlice;
        ev.sample_size = 4;
        ev.cost = Some(1.5);
        sink.emit(ev.clone());
        ev.sample_size = 2;
        ev.cost = Some(0.5);
        sink.emit(ev.clone());
        ev.kind = TrialEventKind::ServeBatch;
        ev.sample_size = 64;
        ev.cost = None;
        sink.emit(ev);
        let t = Telemetry::new().drain(&rx);
        assert_eq!(t.serve_rejected, 1);
        assert_eq!(t.serve_queue_depth, 3, "gauge keeps the last sample");
        assert_eq!(t.serve_queue_depth_max, 7);
        assert_eq!(t.tenant_slices, 2);
        let usage = &t.by_tenant["acme"];
        assert_eq!(usage.rejected, 1);
        assert_eq!(usage.fit_slices, 2);
        assert_eq!(usage.fit_trials, 6);
        assert!((usage.fit_cost_secs - 2.0).abs() < 1e-12);
        assert_eq!(usage.serve_batches, 1);
        assert_eq!(usage.serve_rows, 64);
        assert_eq!(t.total_terminal(), 0, "tenant events are not terminal");
    }

    #[test]
    fn telemetry_counts_robustness_events() {
        let (sink, rx) = event_channel();
        let mut ev = TrialEvent::new(TrialEventKind::Retried);
        ev.learner = "gbm".into();
        sink.emit(ev.clone());
        sink.emit(ev.clone());
        ev.kind = TrialEventKind::Quarantined;
        sink.emit(ev.clone());
        ev.kind = TrialEventKind::Unquarantined;
        sink.emit(ev.clone());
        ev.kind = TrialEventKind::Sanitized;
        sink.emit(ev);
        let t = Telemetry::new().drain(&rx);
        assert_eq!(t.retried, 2);
        assert_eq!(t.quarantined, 1);
        assert_eq!(t.unquarantined, 1);
        assert_eq!(t.sanitized, 1);
        assert_eq!(t.total_terminal(), 0, "robustness events are not terminal");
        assert_eq!(t.by_learner["gbm"].retried, 2);
        assert_eq!(t.by_learner["gbm"].quarantined, 1);
    }

    fn batch(slot: &str, rows: usize, wall: f64, occupancy: f64) -> TrialEvent {
        let mut ev = TrialEvent::new(TrialEventKind::ServeBatch);
        ev.label = slot.to_string();
        ev.sample_size = rows;
        ev.wall_secs = Some(wall);
        ev.cost = Some(occupancy);
        ev
    }

    #[test]
    fn aggregates_per_slot() {
        let mut t = Telemetry::new();
        t.record(&batch("a", 32, 0.010, 1.0));
        t.record(&batch("a", 16, 0.030, 0.5));
        t.record(&batch("b", 8, 0.002, 0.25));
        t.record(&TrialEvent::new(TrialEventKind::ServePromoted));
        let mut drifted = TrialEvent::new(TrialEventKind::ServePromoted);
        drifted.message = Some("drift".to_string());
        t.record(&drifted);
        t.record(&TrialEvent::new(TrialEventKind::ServeRolledBack));
        t.record(&TrialEvent::new(TrialEventKind::Finished));
        t.record(&TrialEvent::new(TrialEventKind::ServeRejected));
        let mut depth = TrialEvent::new(TrialEventKind::ServeQueueDepth);
        depth.sample_size = 5;
        t.record(&depth);
        depth.sample_size = 2;
        t.record(&depth);
        assert_eq!(t.serve_rows, 56);
        assert_eq!(t.serve_batches, 3);
        assert_eq!(t.serve_promoted, 2);
        assert_eq!(
            t.promoted_reasons["manual"], 1,
            "no reason counts as manual"
        );
        assert_eq!(t.promoted_reasons["drift"], 1);
        assert_eq!(t.serve_rolled_back, 1);
        assert_eq!(t.serve_rejected, 1);
        assert_eq!(t.serve_queue_depth, 2, "gauge keeps the last sample");
        assert_eq!(t.serve_queue_depth_max, 5);
        let a = &t.by_slot["a"];
        assert_eq!(a.batches, 2);
        assert_eq!(a.rows, 48);
        assert!((a.total_secs - 0.040).abs() < 1e-12);
        assert!((a.throughput() - 48.0 / 0.040).abs() < 1e-6);
        assert!((a.mean_occupancy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut t = Telemetry::new();
        for i in 1..=100 {
            t.record(&batch("s", 1, i as f64, 1.0));
        }
        let s = &t.by_slot["s"];
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p95(), 95.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.latency_percentile(100.0), 100.0);
        assert_eq!(s.latency_percentile(0.0), 1.0);
    }

    #[test]
    fn empty_slot_stats_are_zero() {
        let s = SlotStats::default();
        assert_eq!(s.p50(), 0.0);
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.mean_occupancy(), 0.0);
    }

    #[test]
    fn slot_latency_memory_is_bounded_to_the_recent_window() {
        const N: usize = 100_000;
        let mut t = Telemetry::new();
        // Latencies in a scrambled order, so the window is not sorted.
        let wall = |i: usize| ((i * 7919) % 10_007) as f64;
        for i in 0..N {
            t.record(&batch("s", 2, wall(i), 0.5));
        }
        let s = &t.by_slot["s"];
        assert_eq!(s.latencies.len(), LATENCY_WINDOW);
        assert_eq!((s.batches, s.rows, t.serve_rows), (N, 2 * N, 2 * N));
        assert_eq!(s.total_secs, (0..N).map(wall).sum::<f64>());
        assert_eq!(s.mean_occupancy(), 0.5);
        let mut recent: Vec<f64> = (N - LATENCY_WINDOW..N).map(wall).collect();
        recent.sort_by(f64::total_cmp);
        let nearest_rank = |q: f64| recent[(q / 100.0 * recent.len() as f64).ceil() as usize - 1];
        assert_eq!(s.p50(), nearest_rank(50.0));
        assert_eq!(s.p95(), nearest_rank(95.0));
        assert_eq!(s.p99(), nearest_rank(99.0));
    }
}
