//! The FLAML AutoML layer (the paper's contribution, Section 4).
//!
//! The system has two layers: the ML layer ([`flaml_learners`]) holds the
//! candidate learners, and this AutoML layer drives the search with four
//! components (paper Figure 3):
//!
//! 1. **Resampling-strategy proposer** ([`ResampleStrategy::choose`]) —
//!    cross validation vs. holdout by a thresholding rule on data size
//!    and budget.
//! 2. **Learner proposer** ([`EciState`]) — each learner is chosen with
//!    probability proportional to `1/ECI`, its *estimated cost for
//!    improvement*.
//! 3. **Hyperparameter and sample-size proposer** — FLOW² randomized
//!    direct search ([`flaml_search::Flow2`]) interleaved with
//!    sample-size doubling, choosing between them by comparing `ECI1`
//!    with `ECI2`.
//! 4. **Controller** — runs trials, observes error and cost, and feeds
//!    both back.
//!
//! The baseline systems of the paper's comparison (BOHB, BO, random
//! search, Hyperband) are further [`LearnerSelection`]s: they propose
//! from one joint learner × hyperparameter space, and the same
//! controller runs, charges, journals and refits their trials.
//!
//! The entry point is [`AutoMl`]:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use flaml_core::{AutoMl, LearnerKind};
//! use flaml_data::{Dataset, Task};
//!
//! let x: Vec<f64> = (0..400).map(|i| (i % 97) as f64 / 97.0).collect();
//! let y: Vec<f64> = x.iter().map(|v| f64::from(*v > 0.4)).collect();
//! let data = Dataset::new("quick", Task::Binary, vec![x], y)?;
//!
//! let result = AutoMl::new()
//!     .time_budget(1.0)
//!     .estimators([LearnerKind::LightGbm, LearnerKind::Lr])
//!     .fit(&data)?;
//! println!("best: {} ({})", result.best_learner, result.best_config_rendered);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod automl;
mod clock;
mod controller;
mod custom;
mod dataplane;
mod eci;
mod ensemble;
mod handle;
mod joint;
mod learner;
mod resample;
mod serving;

pub use automl::{
    retrain_from_log, AutoMl, AutoMlError, AutoMlResult, LearnerSelection, ResampleChoice,
    Retrained, TrialMode, TrialRecord,
};
pub use clock::{default_virtual_cost, TimeSource, TrialInfo};
pub use custom::CustomLearner;
pub use dataplane::{DataPlane, FoldData, PrepStats, TrialData};
pub use eci::{sample_by_inverse_eci, EciState};
pub use ensemble::{build_stacked, MemberSpec};
pub use handle::{SearchHandle, SliceOutcome};
pub use learner::{Estimator, LearnerKind};
pub use resample::{ResampleStrategy, TrialOutcome, TrialStatus};
pub use serving::export_artifact_from_log;

// Re-export the execution runtime so downstream crates can size pools and
// subscribe to trial telemetry without depending on flaml-exec directly.
pub use flaml_exec::{
    event_channel, EventSink, ExecPool, FaultPlan, InjectedFault, SlotStats, Telemetry,
    TenantUsage, TrialEvent, TrialEventKind,
};

// Re-export the journal so resume/warm-start workflows (read a log, seed
// `starting_points`, inspect best trials) need only this crate.
pub use flaml_journal::{Journal, JournalError, JournalHeader, TrialLine};

// Re-export the storage layer so fault-injection tests and durability
// tooling (chaos plans, atomic publish) need only this crate.
pub use flaml_store::{
    atomic_write_file, disk, ChaosStorage, DiskStorage, IoFault, IoFaultPlan, Storage,
    StorageError, StorageFile,
};

// Re-export the serving stack so "fit, then serve" needs only this crate:
// compile the winner, publish it to a registry, batch-predict on the pool.
pub use flaml_serve::{
    ArtifactError, BatchEngine, CompiledModel, ModelRegistry, PromoteReason, Published,
    VersionedModel,
};

// Re-export the binary artifact layer alongside: same "fit, then
// serve" story, from a blob whose slabs are read in place.
pub use flaml_blob::{
    encode_blob, save_blob, save_blob_with, ArtifactFormat, BlobModel, BlobOptions, BLOB_MAGIC,
};
