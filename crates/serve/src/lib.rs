//! Model serving for the FLAML reproduction: compiled tree artifacts,
//! a versioned hot-swap registry, and batched inference on the shared
//! exec pool.
//!
//! The serving stack closes the loop the paper's library leaves to its
//! host application: once AutoML has found and fit a model, this crate
//! turns it into something a service can load, swap and query.
//!
//! * [`CompiledModel`] — every learner flattened into
//!   structure-of-arrays node slabs with a versioned, fingerprinted
//!   on-disk JSON format ([`CompiledModel::save`] /
//!   [`CompiledModel::load`]). Compiled predictions are bit-identical
//!   to the interpreted [`flaml_learners::FittedModel::predict`].
//! * [`BatchEngine`] — row-chunked batched inference over an
//!   [`flaml_exec::ExecPool`]; submission-order reduction keeps batched
//!   output byte-identical to a sequential pass.
//! * [`ModelRegistry`] — named, versioned serving slots with atomic
//!   `Arc`-swap hot-reload and rollback; a reader never observes a torn
//!   model. Each [`VersionedModel`] keeps the evaluator [`Tables`] it
//!   builds on its first predict.
//!
//! Serving telemetry is not a type of this crate: the engine and the
//! registry emit into the same [`flaml_exec::TrialEvent`] stream the
//! training stack uses, and [`flaml_exec::Telemetry`] folds it — per-slot
//! throughput, batch occupancy and latency percentiles over each slot's
//! most recent 4 096 batches in [`flaml_exec::Telemetry::by_slot`],
//! promotions by reason in [`flaml_exec::Telemetry::promoted_reasons`].
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use flaml_data::{Dataset, Task};
//! use flaml_learners::{FittedModel, Gbdt, GbdtParams};
//! use flaml_serve::{BatchEngine, CompiledModel, ModelRegistry};
//! use flaml_exec::ExecPool;
//!
//! let x: Vec<f64> = (0..200).map(|i| i as f64 / 200.0).collect();
//! let y: Vec<f64> = x.iter().map(|v| f64::from(*v > 0.5)).collect();
//! let data = Dataset::new("step", Task::Binary, vec![x], y)?;
//! let model: FittedModel = Gbdt::fit(&data, &GbdtParams::default(), 0)?.into();
//!
//! let compiled = CompiledModel::compile(&model)?;
//! assert_eq!(compiled.predict(&data), model.predict(&data));
//!
//! let registry = ModelRegistry::new();
//! registry.publish("step", compiled);
//!
//! let pool = ExecPool::new(2);
//! let engine = BatchEngine::new(&pool, 64);
//! let served = registry.get("step").unwrap();
//! let batched = engine.predict("step", &*served, &data);
//! assert_eq!(batched, model.predict(&data));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod artifact;
mod batch;
mod error;
mod registry;
mod view;

pub use artifact::{
    fingerprint, ArtifactFile, CompiledForest, CompiledGbdt, CompiledLinear, CompiledModel,
    CompiledStacked, ARTIFACT_MAGIC, ARTIFACT_VERSION,
};
pub use batch::BatchEngine;
pub use error::ArtifactError;
pub use registry::{ModelRegistry, PromoteReason, Published, VersionedModel};
pub use view::{Bound, Servable, Tables};
