//! The model registry: named serving slots with versioned, atomic
//! hot-swap and rollback.
//!
//! Each slot holds the full version history of the models published to
//! it. Readers take an `Arc` snapshot of the current version under a
//! read lock — a reader either sees the version that was current before
//! a concurrent publish or the one after it, never a torn or
//! half-written model, because the model behind the `Arc` is immutable.
//! Publishing appends a new version and swaps the current pointer under
//! the write lock; rollback steps the pointer back without dropping
//! history, so a rolled-back version can be rolled forward again by
//! republishing.

use crate::artifact::{fingerprint, CompiledModel};
use crate::view::{Servable, Tables};
use flaml_exec::{EventSink, TrialEvent, TrialEventKind};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

/// One published model version: immutable once created, shared by
/// `Arc` so a hot-swap never invalidates an in-flight reader.
#[derive(Debug, Clone)]
pub struct VersionedModel {
    /// Slot the model was published to.
    pub name: String,
    /// Version within the slot (1-based, monotonically increasing).
    pub version: u64,
    /// FNV-1a fingerprint of the model's serialized payload (the same
    /// value an artifact file records).
    pub fingerprint: u64,
    /// The compiled model.
    pub model: CompiledModel,
    /// Built on the version's first predict, so a version that is never
    /// served costs no table memory.
    tables: OnceLock<Tables>,
}

impl Servable for VersionedModel {
    fn parts(&self) -> (&CompiledModel, Cow<'_, Tables>) {
        let tables = self.tables.get_or_init(|| Tables::build(&self.model));
        (&self.model, Cow::Borrowed(tables))
    }
}

#[derive(Debug)]
struct Slot {
    versions: Vec<Arc<VersionedModel>>,
    current: usize,
}

/// Why a model version was promoted into its slot. Surfaced in the
/// promotion event's message and counted per reason in
/// [`flaml_exec::Telemetry::promoted_reasons`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromoteReason {
    /// An online challenger beat the champion after a detected drift.
    Drift,
    /// A scheduled (warmup or periodic) challenger round won.
    Scheduled,
    /// An operator or API client published directly.
    Manual,
}

impl PromoteReason {
    /// Stable lowercase name ("drift" | "scheduled" | "manual").
    pub fn name(&self) -> &'static str {
        match self {
            PromoteReason::Drift => "drift",
            PromoteReason::Scheduled => "scheduled",
            PromoteReason::Manual => "manual",
        }
    }

    /// Parses a name as printed by [`PromoteReason::name`].
    pub fn parse(s: &str) -> Option<PromoteReason> {
        match s {
            "drift" => Some(PromoteReason::Drift),
            "scheduled" => Some(PromoteReason::Scheduled),
            "manual" => Some(PromoteReason::Manual),
            _ => None,
        }
    }
}

/// The outcome of a publish: the new current version and the version
/// that was current immediately before it (`None` for a fresh slot).
/// The previous version is the exact rollback target an online
/// promoter records in its journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Published {
    /// The version just published (now current).
    pub version: u64,
    /// The version that was being served before this publish, if any.
    pub previous: Option<u64>,
}

/// Named, versioned serving slots with atomic hot-swap (see the module
/// docs for the consistency guarantees).
#[derive(Debug, Default)]
pub struct ModelRegistry {
    slots: RwLock<BTreeMap<String, Slot>>,
    sink: Option<EventSink>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// An empty registry emitting [`TrialEventKind::ServePromoted`] /
    /// [`TrialEventKind::ServeRolledBack`] events into `sink`.
    pub fn with_sink(sink: EventSink) -> ModelRegistry {
        ModelRegistry {
            slots: RwLock::new(BTreeMap::new()),
            sink: Some(sink),
        }
    }

    /// Publishes `model` as the next version of slot `name` and makes
    /// it current, attributed to [`PromoteReason::Manual`]. Returns the
    /// new version number and the previously-served one.
    pub fn publish(&self, name: &str, model: CompiledModel) -> Published {
        self.publish_with(name, model, PromoteReason::Manual)
    }

    /// [`ModelRegistry::publish`] with an explicit promotion reason
    /// (carried on the emitted event and tallied per reason in
    /// [`flaml_exec::Telemetry::promoted_reasons`]).
    pub fn publish_with(
        &self,
        name: &str,
        model: CompiledModel,
        reason: PromoteReason,
    ) -> Published {
        let payload = serde_json::to_string(&model).expect("compiled models always serialize");
        let fp = fingerprint(&payload);
        let version;
        let previous;
        {
            let mut slots = self.slots.write().expect("registry lock");
            let slot = slots.entry(name.to_string()).or_insert(Slot {
                versions: Vec::new(),
                current: 0,
            });
            previous = slot.versions.get(slot.current).map(|v| v.version);
            version = slot.versions.last().map_or(1, |v| v.version + 1);
            slot.versions.push(Arc::new(VersionedModel {
                name: name.to_string(),
                version,
                fingerprint: fp,
                model,
                tables: OnceLock::new(),
            }));
            slot.current = slot.versions.len() - 1;
        }
        if let Some(sink) = &self.sink {
            let mut ev = TrialEvent::new(TrialEventKind::ServePromoted);
            ev.label = name.to_string();
            ev.job_id = version;
            ev.message = Some(reason.name().to_string());
            sink.emit(ev);
        }
        Published { version, previous }
    }

    /// The currently served version of slot `name`, or `None` for an
    /// unknown slot. The returned snapshot stays valid (and unchanged)
    /// across any number of concurrent publishes.
    pub fn get(&self, name: &str) -> Option<Arc<VersionedModel>> {
        let slots = self.slots.read().expect("registry lock");
        slots
            .get(name)
            .and_then(|slot| slot.versions.get(slot.current).cloned())
    }

    /// Steps slot `name` back to the previous version. Returns the
    /// version now being served, or `None` if the slot is unknown or
    /// already at its oldest version.
    pub fn rollback(&self, name: &str) -> Option<u64> {
        let version;
        {
            let mut slots = self.slots.write().expect("registry lock");
            let slot = slots.get_mut(name)?;
            if slot.current == 0 {
                return None;
            }
            slot.current -= 1;
            version = slot.versions[slot.current].version;
        }
        self.emit(TrialEventKind::ServeRolledBack, name, version);
        Some(version)
    }

    /// Number of versions ever published to slot `name` (rollback does
    /// not shrink history).
    pub fn n_versions(&self, name: &str) -> usize {
        let slots = self.slots.read().expect("registry lock");
        slots.get(name).map_or(0, |slot| slot.versions.len())
    }

    /// Names of all slots, sorted.
    pub fn slot_names(&self) -> Vec<String> {
        let slots = self.slots.read().expect("registry lock");
        slots.keys().cloned().collect()
    }

    fn emit(&self, kind: TrialEventKind, name: &str, version: u64) {
        if let Some(sink) = &self.sink {
            let mut ev = TrialEvent::new(kind);
            ev.label = name.to_string();
            ev.job_id = version;
            ev.message = Some(format!("v{version}"));
            sink.emit(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::CompiledLinear;
    use flaml_data::Task;
    use flaml_exec::{event_channel, Telemetry};
    use flaml_learners::Encoding;

    fn model(w: f64) -> CompiledModel {
        CompiledModel::Linear(CompiledLinear {
            encodings: vec![Encoding::Numeric {
                mean: 0.0,
                std: 1.0,
            }],
            weights: vec![vec![w, 0.0]],
            task: Task::Regression,
            y_mean: 0.0,
            y_std: 1.0,
        })
    }

    #[test]
    fn publish_get_rollback_cycle() {
        let (sink, rx) = event_channel();
        let reg = ModelRegistry::with_sink(sink);
        assert!(reg.get("m").is_none());
        assert_eq!(
            reg.publish("m", model(1.0)),
            Published {
                version: 1,
                previous: None
            }
        );
        assert_eq!(
            reg.publish("m", model(2.0)),
            Published {
                version: 2,
                previous: Some(1)
            }
        );
        assert_eq!(reg.get("m").unwrap().version, 2);
        assert_eq!(reg.rollback("m"), Some(1));
        assert_eq!(reg.get("m").unwrap().version, 1);
        assert_eq!(reg.rollback("m"), None, "already at the oldest version");
        assert_eq!(reg.n_versions("m"), 2, "rollback keeps history");
        // Republishing after a rollback continues the version sequence;
        // `previous` reports the *served* version, i.e. the rollback
        // target, not the newest history entry.
        assert_eq!(
            reg.publish("m", model(3.0)),
            Published {
                version: 3,
                previous: Some(1)
            }
        );
        assert_eq!(reg.get("m").unwrap().version, 3);
        assert_eq!(reg.slot_names(), vec!["m".to_string()]);
        let t = Telemetry::new().drain(&rx);
        assert_eq!(t.serve_promoted, 3);
        assert_eq!(t.serve_rolled_back, 1);
    }

    #[test]
    fn snapshots_survive_later_publishes() {
        let reg = ModelRegistry::new();
        reg.publish("m", model(1.0));
        let snap = reg.get("m").unwrap();
        reg.publish("m", model(2.0));
        assert_eq!(snap.version, 1, "snapshot is immutable");
        assert_eq!(snap.model, model(1.0));
        assert_eq!(reg.get("m").unwrap().version, 2);
    }

    #[test]
    fn fingerprint_matches_artifact_fingerprint() {
        let reg = ModelRegistry::new();
        reg.publish("m", model(1.5));
        let published = reg.get("m").unwrap();
        let dir = std::env::temp_dir().join("flaml-serve-registry-test");
        let path = dir.join("m.json");
        let fp = model(1.5).save(&path).unwrap();
        assert_eq!(published.fingerprint, fp);
    }
}
