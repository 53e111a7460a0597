//! The worker pool: scoped threads taking jobs in submission order.
//!
//! Design points:
//!
//! - **Scoped threads.** Workers are spawned with [`std::thread::scope`]
//!   per batch, so jobs may borrow the caller's data (datasets, spaces)
//!   without `'static` bounds or reference counting.
//! - **Deterministic results.** Jobs start in submission order (each
//!   worker takes the next ticket from an atomic counter) and, whichever
//!   finishes first, results are returned in *submission* order. A pool
//!   with one worker (or one job) executes inline on the caller's thread
//!   in submission order, which is the determinism contract the AutoML
//!   controller builds on.
//! - **Panic isolation.** A panicking job is caught on its worker and
//!   reported as [`JobStatus::Panicked`]; the worker keeps taking
//!   tickets and the process survives.
//! - **Cooperative deadlines.** Jobs observe their deadline through
//!   [`crate::JobCtx`]; the pool never kills a thread. Jobs returning
//!   past their deadline are classified [`JobStatus::TimedOut`].

use crate::event::{EventSink, TrialEvent, TrialEventKind};
use crate::job::{execute, Job, JobMeta, JobResult, JobStatus};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-width worker pool. Creating one is free — threads are spawned
/// per batch and joined before [`ExecPool::run_batch`] returns.
#[derive(Debug, Clone, Copy)]
pub struct ExecPool {
    workers: usize,
}

impl ExecPool {
    /// A pool with `workers` worker threads (clamped to at least 1).
    pub fn new(workers: usize) -> ExecPool {
        ExecPool {
            workers: workers.max(1),
        }
    }

    /// The single-worker pool: executes every batch inline, in
    /// submission order, on the caller's thread.
    pub fn sequential() -> ExecPool {
        ExecPool::new(1)
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether batches run inline on the caller's thread.
    pub fn is_sequential(&self) -> bool {
        self.workers == 1
    }

    /// Runs every job to completion and returns their results in
    /// submission order. When a sink is given, the pool emits a
    /// `Started` event as each job begins and a terminal event
    /// (`Finished` / `TimedOut` / `Panicked`) as it ends; terminal
    /// events carry wall time and the panic message but no error/cost,
    /// which only the caller knows.
    pub fn run_batch<T: Send>(
        &self,
        jobs: Vec<Job<'_, T>>,
        events: Option<&EventSink>,
    ) -> Vec<JobResult<T>> {
        if jobs.is_empty() {
            return Vec::new();
        }
        if self.workers == 1 || jobs.len() == 1 {
            // Inline fast path: submission order, caller's thread. This
            // is byte-identical to a plain sequential loop (plus panic
            // isolation).
            return jobs
                .into_iter()
                .enumerate()
                .map(|(i, job)| run_one(stamp(job, i), events))
                .collect();
        }

        let n = jobs.len();
        let slots: Vec<Mutex<Option<Job<'_, T>>>> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| Mutex::new(Some(stamp(job, i))))
            .collect();
        let results: Vec<Mutex<Option<JobResult<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        // The counter publishes no data (a job is handed over through its
        // slot's mutex), so `Relaxed` suffices.
        let next_ticket = AtomicUsize::new(0);
        let workers = self.workers.min(n);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next_ticket.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = slots[i]
                        .lock()
                        .expect("slot lock")
                        .take()
                        .expect("each ticket is issued once");
                    let result = run_one(job, events);
                    *results[i].lock().expect("result lock") = Some(result);
                });
            }
        });
        results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result lock")
                    .expect("every job ran to completion")
            })
            .collect()
    }
}

/// Stamps the submission index into the job's metadata.
fn stamp<T>(mut job: Job<'_, T>, index: usize) -> Job<'_, T> {
    job.meta.id = index as u64;
    job
}

/// Executes one job with optional event emission.
fn run_one<'env, T>(job: Job<'env, T>, events: Option<&EventSink>) -> JobResult<T> {
    if let Some(sink) = events {
        sink.emit(meta_event(TrialEventKind::Started, &job.meta));
    }
    let result = execute(job);
    if let Some(sink) = events {
        let kind = match &result.status {
            JobStatus::Finished(_) => TrialEventKind::Finished,
            JobStatus::TimedOut(_) => TrialEventKind::TimedOut,
            JobStatus::Panicked(_) => TrialEventKind::Panicked,
        };
        let mut ev = meta_event(kind, &result.meta);
        ev.wall_secs = Some(result.wall_secs);
        if let JobStatus::Panicked(msg) = &result.status {
            ev.message = Some(msg.clone());
        }
        sink.emit(ev);
    }
    result
}

/// Builds an event carrying a job's metadata.
fn meta_event(kind: TrialEventKind, meta: &JobMeta) -> TrialEvent {
    let mut ev = TrialEvent::new(kind);
    ev.job_id = meta.id;
    ev.label = meta.label.clone();
    ev.learner = meta.learner.clone();
    ev.config = meta.config.clone();
    ev.sample_size = meta.sample_size;
    ev
}
