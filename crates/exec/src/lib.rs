//! `flaml-exec` — the parallel trial-execution runtime.
//!
//! AutoML with a fixed budget is throughput-bound: every idle core is
//! budget wasted. This crate provides the workspace's execution
//! substrate: a dependency-free worker pool that runs [`Job`]s with
//!
//! - **per-job cooperative deadlines** ([`JobCtx::remaining`] /
//!   [`JobCtx::expired`]) — the runtime never kills a thread; trials are
//!   asked to stop and flagged [`JobStatus::TimedOut`] when they return
//!   late;
//! - **panic isolation** — a panicking trial becomes
//!   [`JobStatus::Panicked`] (a failed trial), not a dead process;
//! - **structured telemetry** — an mpsc [`TrialEvent`] channel
//!   (started / finished / timed-out / panicked, with learner, config,
//!   sample size, error, cost) plus a [`Telemetry`] aggregator;
//! - **deterministic results** — results always return in submission
//!   order, and a single-worker pool executes inline on the caller's
//!   thread, so `workers = 1` reproduces a sequential loop exactly.
//!   Dispatch is first-in first-out;
//! - **deterministic fault injection** — a seeded [`FaultPlan`] wraps
//!   any job with panics, slowdowns past the deadline, or poisoned
//!   (NaN/Inf) losses at configured per-trial probabilities, purely as a
//!   function of `(seed, trial, attempt)`, so failure policies can be
//!   tested under chaos without losing trace determinism.
//!
//! Three layers of the workspace sit on top of it: the benchmark grid
//! farms independent (method × dataset × budget) cells to the pool
//! (`--jobs N`), cross-validation evaluates folds concurrently, and the
//! AutoML controller runs each trial as a one-job batch on the
//! sequential pool, which gives every attempt panic isolation and
//! deadline classification.
//!
//! ```
//! use flaml_exec::{ExecPool, Job};
//!
//! let pool = ExecPool::new(4);
//! let inputs = [1u64, 2, 3, 4, 5];
//! let jobs = inputs.iter().map(|&x| Job::new(move |_ctx| x * x)).collect();
//! let results = pool.run_batch(jobs, None);
//! let squares: Vec<u64> = results
//!     .into_iter()
//!     .filter_map(|r| r.status.into_value())
//!     .collect();
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]); // submission order
//! ```

#![warn(missing_docs)]

mod event;
mod fault;
mod job;
mod pool;

pub use event::{
    event_channel, EventSink, LearnerCounts, SlotStats, Telemetry, TenantUsage, TrialEvent,
    TrialEventKind, TrialMeta,
};
pub use fault::{FaultPlan, InjectedFault};
pub use job::{Job, JobCtx, JobMeta, JobResult, JobStatus};
pub use pool::ExecPool;
