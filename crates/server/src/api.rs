//! The service's JSON wire types, shared by the server, its clients and
//! the recovery tests.
//!
//! [`FitRequest`] is the contract that makes crash recovery
//! *verifiable*: the server persists every accepted request as a
//! sidecar JSON file next to the tenant's journal, and
//! [`FitRequest::to_automl`] and [`DatasetPayload::into_dataset`] of
//! its `dataset` are the **only** way either side turns a request into
//! a run. A verifier can
//! therefore re-run any search from its sidecar in a fresh process and
//! byte-compare journals — there is no second code path to drift.

use flaml_core::{default_virtual_cost, AutoMl, LearnerKind, TimeSource};
pub use flaml_data::DatasetPayload;
use flaml_data::Task;
use flaml_online::RoundOutcome;
use serde::{Deserialize, Serialize};

/// Default trials per scheduler slice when a request does not say.
pub const DEFAULT_SLICE_TRIALS: usize = 4;

/// A tenant's request to run an AutoML search and publish the winner.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FitRequest {
    /// Tenant slot the best model is published into when the search
    /// finishes.
    pub slot: String,
    /// Search budget in virtual seconds (the service always runs the
    /// deterministic virtual clock so resumed traces can be verified).
    pub time_budget: f64,
    /// Trial cap (`None` = budget-bound only).
    #[serde(default)]
    pub max_trials: Option<usize>,
    /// Random seed.
    #[serde(default)]
    pub seed: u64,
    /// Estimator names (empty = every builtin learner).
    #[serde(default)]
    pub estimators: Vec<String>,
    /// Initial subsample size override.
    #[serde(default)]
    pub sample_size_init: Option<usize>,
    /// Trials the scheduler runs per fair-share slice.
    #[serde(default)]
    pub slice_trials: Option<usize>,
    /// The training data, inline.
    pub dataset: DatasetPayload,
}

impl FitRequest {
    /// Builds the exact [`AutoMl`] settings this request runs under —
    /// the single construction point shared by server and verifier.
    ///
    /// # Errors
    ///
    /// Returns a message naming any unknown estimator, or a time budget
    /// [`AutoMl::validate`] refuses.
    pub fn to_automl(&self) -> Result<AutoMl, String> {
        let mut automl = AutoMl::new()
            .time_budget(self.time_budget)
            .seed(self.seed)
            .time_source(TimeSource::Virtual(default_virtual_cost));
        automl.validate().map_err(|e| e.to_string())?;
        if let Some(n) = self.max_trials {
            automl = automl.max_trials(n);
        }
        if let Some(s) = self.sample_size_init {
            automl = automl.sample_size_init(s);
        }
        if !self.estimators.is_empty() {
            let kinds = self
                .estimators
                .iter()
                .map(|name| {
                    LearnerKind::parse(name).ok_or_else(|| format!("unknown estimator {name:?}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            automl = automl.estimators(kinds);
        }
        Ok(automl)
    }

    /// Trials per scheduler slice for this search.
    pub fn slice_trials(&self) -> usize {
        self.slice_trials.unwrap_or(DEFAULT_SLICE_TRIALS).max(1)
    }
}

/// Optional stream tuning knobs, honored on the chunk that *creates*
/// the stream (later chunks run under the config journaled at
/// creation; resending different options is not an error, just inert).
/// Absent fields take the [`flaml_online::OnlineConfig`] defaults.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StreamOptions {
    /// Master seed for challenger searches.
    #[serde(default)]
    pub seed: Option<u64>,
    /// Evaluation metric name (default: log-loss for classification,
    /// MSE for regression).
    #[serde(default)]
    pub metric: Option<String>,
    /// Estimator names challenger rounds search over.
    #[serde(default)]
    pub estimators: Vec<String>,
    /// Sliding-window length in chunks.
    #[serde(default)]
    pub window_chunks: Option<usize>,
    /// Recent chunks held out to score challenger vs. champion.
    #[serde(default)]
    pub holdout_chunks: Option<usize>,
    /// Chunks accumulated before the first (warmup) round.
    #[serde(default)]
    pub warmup_chunks: Option<usize>,
    /// Drift-detector recent-window length in chunks.
    #[serde(default)]
    pub drift_window: Option<usize>,
    /// Drift-detector loss-shift threshold.
    #[serde(default)]
    pub drift_threshold: Option<f64>,
    /// Margin a challenger must beat the champion by on the holdout.
    #[serde(default)]
    pub promote_margin: Option<f64>,
    /// Probation chunks before a promotion is final (0 = no rollback).
    #[serde(default)]
    pub probation_chunks: Option<usize>,
    /// Scheduled challenger round every N chunks (0 = drift-only).
    #[serde(default)]
    pub refresh_every: Option<usize>,
    /// Virtual-seconds budget per challenger search.
    #[serde(default)]
    pub round_budget: Option<f64>,
    /// Trial cap per challenger search.
    #[serde(default)]
    pub round_trials: Option<usize>,
}

impl StreamOptions {
    /// Resolves the options against the defaults for a stream of
    /// `task` with `features` columns.
    ///
    /// # Errors
    ///
    /// Returns a message naming any unknown metric or estimator.
    pub fn to_config(
        &self,
        task: Task,
        features: usize,
    ) -> Result<flaml_online::OnlineConfig, String> {
        let mut cfg = flaml_online::OnlineConfig::new(task, features);
        if let Some(seed) = self.seed {
            cfg.seed = seed;
        }
        if let Some(name) = &self.metric {
            cfg.metric = Some(
                flaml_metrics::Metric::parse(name)
                    .ok_or_else(|| format!("unknown metric {name:?}"))?,
            );
        }
        if !self.estimators.is_empty() {
            cfg.estimators = self
                .estimators
                .iter()
                .map(|name| {
                    LearnerKind::parse(name).ok_or_else(|| format!("unknown estimator {name:?}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
        }
        if let Some(v) = self.window_chunks {
            cfg.window_chunks = v;
        }
        if let Some(v) = self.holdout_chunks {
            cfg.holdout_chunks = v;
        }
        if let Some(v) = self.warmup_chunks {
            cfg.warmup_chunks = v;
        }
        if let Some(v) = self.drift_window {
            cfg.drift_window = v;
        }
        if let Some(v) = self.drift_threshold {
            cfg.drift_threshold = v;
        }
        if let Some(v) = self.promote_margin {
            cfg.promote_margin = v;
        }
        if let Some(v) = self.probation_chunks {
            cfg.probation_chunks = v;
        }
        if let Some(v) = self.refresh_every {
            cfg.refresh_every = v;
        }
        if let Some(v) = self.round_budget {
            cfg.round_budget = v;
        }
        if let Some(v) = self.round_trials {
            cfg.round_trials = v;
        }
        Ok(cfg)
    }
}

/// One stream chunk: the inline data plus (optionally) the stream
/// config for the creating chunk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamChunkRequest {
    /// Stream tuning, honored when this chunk creates the stream.
    #[serde(default)]
    pub options: Option<StreamOptions>,
    /// The chunk's rows, inline.
    pub dataset: DatasetPayload,
}

/// `200` body for a stream chunk push.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamPushResponse {
    /// Stream slot (also the `/predict` slot serving its champion).
    pub slot: String,
    /// The chunk's index in the stream.
    pub chunk: usize,
    /// Whether the chunk was a duplicate redelivery (nothing happened).
    pub duplicate: bool,
    /// Champion's prequential loss on this chunk, once one exists.
    pub champion_loss: Option<f64>,
    /// Whether the drift detector fired on this chunk.
    pub drifted: bool,
    /// Whether probation failed and the previous champion was restored.
    pub rolled_back: bool,
    /// The challenger round this chunk triggered, if any.
    pub round: Option<RoundOutcome>,
    /// Era of the serving champion after this chunk (0 = none yet).
    pub era: u64,
}

/// Stream status, as returned by `GET /tenants/{t}/stream/{s}/status`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamStatusBody {
    /// Stream slot.
    pub slot: String,
    /// Chunks ingested (the next chunk's index).
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
    /// Probation chunks remaining for the current champion.
    pub probation_left: usize,
    /// Chunks currently in the sliding window.
    pub window: usize,
}

impl StreamStatusBody {
    /// Wraps an [`flaml_online::StreamStatus`] snapshot for the wire.
    pub fn from_status(slot: &str, s: &flaml_online::StreamStatus) -> StreamStatusBody {
        StreamStatusBody {
            slot: slot.to_string(),
            chunks: s.chunks,
            rounds: s.rounds,
            era: s.era,
            drift_events: s.drift_events,
            promotions: s.promotions,
            rejections: s.rejections,
            rollbacks: s.rollbacks,
            last_loss: s.last_loss,
            probation_left: s.probation_left,
            window: s.window,
        }
    }
}

/// A tenant's batched prediction request against a published slot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictRequest {
    /// Slot to serve from.
    pub slot: String,
    /// Feature columns, column-major (must match the model's feature
    /// count).
    pub columns: Vec<Vec<f64>>,
}

/// `202 Accepted` body for a fit submission.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FitAccepted {
    /// Server-assigned search id, unique per tenant.
    pub id: String,
    /// Owning tenant.
    pub tenant: String,
    /// Poll here: `/tenants/{tenant}/searches/{id}`.
    pub status_path: String,
}

/// `429` body when admission control rejects a fit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Rejected {
    /// Human-readable reason.
    pub error: String,
    /// Searches currently queued or running.
    pub inflight: usize,
    /// The configured admission bound.
    pub max_inflight: usize,
}

/// Search status, as returned by the status endpoint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchStatus {
    /// Search id.
    pub id: String,
    /// `"queued"`, `"running"`, `"finished"`, or `"failed"`.
    pub state: String,
    /// Committed trials so far.
    pub committed: usize,
    /// Budget seconds spent so far.
    pub spent: f64,
    /// Best loss so far, if any trial succeeded.
    pub best_loss: Option<f64>,
    /// Slot the result publishes into.
    pub slot: String,
    /// Registry version published on finish.
    pub published_version: Option<u64>,
    /// Failure detail when `state == "failed"`.
    pub error: Option<String>,
}

/// Prediction response: flattened scores plus shape.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictResponse {
    /// Rows predicted.
    pub rows: usize,
    /// Classes per row (1 for regression).
    pub n_classes: usize,
    /// Row-major flattened predictions, length `rows * n_classes`.
    pub values: Vec<f64>,
    /// Registry version that served the request.
    pub version: u64,
    /// Fingerprint of the serving model.
    pub fingerprint: u64,
}

/// Generic error body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Human-readable message.
    pub error: String,
}

impl ErrorBody {
    /// Serializes `{"error": msg}`.
    pub fn json(msg: impl Into<String>) -> String {
        serde_json::to_string(&ErrorBody { error: msg.into() })
            .expect("error body serialization is infallible")
    }
}

/// A name usable as a tenant, slot, or search id: `[A-Za-z0-9_-]`,
/// 1–64 chars. Path-traversal-proof by construction (journals and
/// sidecars live at paths built from these names).
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_request_round_trips_and_builds() {
        let req = FitRequest {
            slot: "churn".into(),
            time_budget: 2.0,
            max_trials: Some(10),
            seed: 3,
            estimators: vec!["lightgbm".into(), "lr".into()],
            sample_size_init: Some(100),
            slice_trials: None,
            dataset: DatasetPayload {
                name: "d".into(),
                task: "binary".into(),
                columns: vec![vec![0.0, 1.0, 0.5, 0.25]],
                cardinalities: vec![],
                target: vec![0.0, 1.0, 1.0, 0.0],
            },
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: FitRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(json, serde_json::to_string(&back).unwrap());
        back.to_automl().unwrap();
        assert_eq!(back.slice_trials(), DEFAULT_SLICE_TRIALS);
        let data = back.dataset.into_dataset().unwrap();
        assert_eq!(data.n_rows(), 4);
    }

    #[test]
    fn bad_inputs_are_typed_errors() {
        let mut req = FitRequest {
            slot: "s".into(),
            time_budget: 1.0,
            max_trials: None,
            seed: 0,
            estimators: vec!["not-a-learner".into()],
            sample_size_init: None,
            slice_trials: None,
            dataset: DatasetPayload {
                name: "d".into(),
                task: "ternary".into(),
                columns: vec![vec![0.0]],
                cardinalities: vec![],
                target: vec![0.0],
            },
        };
        assert!(req.to_automl().unwrap_err().contains("not-a-learner"));
        assert!(req
            .dataset
            .clone()
            .into_dataset()
            .unwrap_err()
            .contains("ternary"));
        req.dataset.task = "multiclass:3".into();
        req.dataset.target = vec![5.0];
        assert!(req
            .dataset
            .clone()
            .into_dataset()
            .unwrap_err()
            .contains("invalid dataset"));
        req.estimators.clear();
        for budget in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            req.time_budget = budget;
            let err = req.to_automl().unwrap_err();
            assert!(err.contains("time budget"), "{budget}: {err}");
        }
    }

    #[test]
    fn stream_options_resolve_against_defaults() {
        let defaults = StreamOptions::default().to_config(Task::Binary, 3).unwrap();
        assert_eq!(defaults, flaml_online::OnlineConfig::new(Task::Binary, 3));

        let opts = StreamOptions {
            seed: Some(7),
            metric: Some("mse".into()),
            estimators: vec!["lr".into()],
            window_chunks: Some(5),
            promote_margin: Some(0.25),
            ..StreamOptions::default()
        };
        let cfg = opts.to_config(Task::Regression, 2).unwrap();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.window_chunks, 5);
        assert_eq!(cfg.promote_margin, 0.25);
        assert_eq!(cfg.estimators, vec![LearnerKind::Lr]);

        let bad = StreamOptions {
            metric: Some("nope".into()),
            ..StreamOptions::default()
        };
        assert!(bad.to_config(Task::Binary, 1).unwrap_err().contains("nope"));
    }

    #[test]
    fn stream_chunk_request_round_trips() {
        let req = StreamChunkRequest {
            options: Some(StreamOptions {
                seed: Some(3),
                ..StreamOptions::default()
            }),
            dataset: DatasetPayload {
                name: "chunk-0".into(),
                task: "binary".into(),
                columns: vec![vec![0.0, 1.0]],
                cardinalities: vec![],
                target: vec![0.0, 1.0],
            },
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: StreamChunkRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(json, serde_json::to_string(&back).unwrap());
        let data = back.dataset.into_dataset().unwrap();
        assert_eq!(
            DatasetPayload::from_dataset(&data).columns,
            req.dataset.columns
        );
        // A bare chunk (no options) is also a valid request.
        let bare: StreamChunkRequest = serde_json::from_str(
            r#"{"dataset":{"name":"c","task":"binary","columns":[[0,1]],"target":[0,1]}}"#,
        )
        .unwrap();
        assert!(bare.options.is_none());
    }

    #[test]
    fn a_push_response_keeps_its_bytes() {
        let response = StreamPushResponse {
            slot: "s".into(),
            chunk: 1,
            duplicate: false,
            champion_loss: None,
            drifted: false,
            rolled_back: false,
            round: Some(RoundOutcome {
                round: 1,
                reason: "warmup".into(),
                promoted: true,
                challenger_loss: 0.5,
                champion_loss: f64::INFINITY,
            }),
            era: 1,
        };
        assert_eq!(
            serde_json::to_string(&response).unwrap(),
            r#"{"slot":"s","chunk":1,"duplicate":false,"champion_loss":null,"drifted":false,"rolled_back":false,"round":{"round":1,"reason":"warmup","promoted":true,"challenger_loss":0.5,"champion_loss":Infinity},"era":1}"#
        );
    }

    #[test]
    fn name_validation_rejects_traversal() {
        assert!(valid_name("tenant-1_A"));
        assert!(!valid_name(""));
        assert!(!valid_name("../etc"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
