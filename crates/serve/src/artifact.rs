//! Compiled serving artifacts: every learner flattened into
//! structure-of-arrays node slabs with a versioned, fingerprinted
//! on-disk format.
//!
//! A [`CompiledModel`] is a self-contained, serializable rendering of a
//! fitted model. Tree ensembles become flat parallel arrays (feature /
//! threshold / child / leaf-value slabs with per-tree root offsets —
//! the layout serving-oriented tree compilers use), linear models keep
//! their encodings and weight groups verbatim. The compiled evaluators
//! replicate the interpreted models' accumulation orders *exactly*, so
//! compiled predictions are bit-identical to
//! [`flaml_learners::FittedModel::predict`].
//!
//! On disk an artifact is one JSON document: a magic string, a format
//! version, an FNV-1a fingerprint of the serialized model payload, and
//! the payload itself. [`CompiledModel::load`] rejects foreign files,
//! unknown versions, truncation and payload corruption with typed
//! [`ArtifactError`]s before a single prediction is made.

use crate::error::ArtifactError;
use crate::view::Servable;
use flaml_data::{DatasetView, Task};
use flaml_learners::{Encoding, FittedModel, ForestModel, GbdtModel, LinearModel, StackedModel};
use flaml_metrics::Pred;
use flaml_store::{atomic_write_file, create_parent_dir, Fnv1a, Storage};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Magic string opening every artifact file.
pub const ARTIFACT_MAGIC: &str = "flaml-artifact";

/// Artifact format version this build writes and reads.
pub const ARTIFACT_VERSION: u32 = 1;

/// FNV-1a hash of a serialized payload (the artifact integrity check).
pub fn fingerprint(payload: &str) -> u64 {
    Fnv1a::new().update(payload.as_bytes()).finish()
}

/// A boosted ensemble compiled to structure-of-arrays form.
///
/// All trees are concatenated into one node slab; `tree_roots[t]` is
/// the slab index of tree `t`'s root and child indices are absolute
/// slab indices. Thresholds are bin indices against the mapper rebuilt
/// from `cuts` (a row goes left when `bin <= threshold`), exactly as in
/// the interpreted trees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledGbdt {
    /// Per-feature sorted bin cut points of the training-time mapper.
    pub cuts: Vec<Vec<f64>>,
    /// Score groups per boosting round (1, or the class count).
    pub n_groups: usize,
    /// Initial score per group.
    pub init_scores: Vec<f64>,
    /// Task the model was trained for.
    pub task: Task,
    /// Slab index of each tree's root, in boosting order.
    pub tree_roots: Vec<u32>,
    /// Split feature per node.
    pub feature: Vec<u32>,
    /// Split threshold (bin index) per node.
    pub threshold: Vec<u32>,
    /// Absolute slab index of the left child per node.
    pub left: Vec<u32>,
    /// Absolute slab index of the right child per node.
    pub right: Vec<u32>,
    /// Leaf value per node (0 for internal nodes).
    pub leaf_value: Vec<f64>,
    /// Whether the node is a leaf.
    pub is_leaf: Vec<bool>,
}

impl CompiledGbdt {
    /// Flattens a fitted boosting model.
    pub fn from_model(m: &GbdtModel) -> CompiledGbdt {
        let mut tree_roots = Vec::new();
        let mut feature = Vec::new();
        let mut threshold = Vec::new();
        let mut left = Vec::new();
        let mut right = Vec::new();
        let mut leaf_value = Vec::new();
        let mut is_leaf = Vec::new();
        for tree in m.export_trees() {
            let base = feature.len() as u32;
            tree_roots.push(base);
            for n in tree {
                feature.push(n.feature);
                threshold.push(n.threshold);
                left.push(base + n.left);
                right.push(base + n.right);
                leaf_value.push(n.leaf_value);
                is_leaf.push(n.is_leaf);
            }
        }
        CompiledGbdt {
            cuts: m.mapper().cuts().to_vec(),
            n_groups: m.n_groups(),
            init_scores: m.init_scores().to_vec(),
            task: m.task(),
            tree_roots,
            feature,
            threshold,
            left,
            right,
            leaf_value,
            is_leaf,
        }
    }
}

/// A forest compiled to structure-of-arrays form.
///
/// Same slab layout as [`CompiledGbdt`], but thresholds are raw feature
/// values compared with [`flaml_learners::goes_left`] and every node
/// carries `leaf_width` output values (leaf class distribution or leaf
/// mean; zeros for internal nodes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledForest {
    /// Task the model was trained for.
    pub task: Task,
    /// Feature columns the model was trained on.
    pub n_features: usize,
    /// Values stored per leaf (1 for regression, class count otherwise).
    pub leaf_width: usize,
    /// Slab index of each tree's root.
    pub tree_roots: Vec<u32>,
    /// Split feature per node.
    pub feature: Vec<u32>,
    /// Split threshold (raw feature value) per node.
    pub threshold: Vec<f64>,
    /// Absolute slab index of the left child per node.
    pub left: Vec<u32>,
    /// Absolute slab index of the right child per node.
    pub right: Vec<u32>,
    /// Whether the node is a leaf.
    pub is_leaf: Vec<bool>,
    /// `leaf_width` output values per node, node-parallel.
    pub values: Vec<f64>,
}

impl CompiledForest {
    /// Flattens a fitted forest.
    pub fn from_model(m: &ForestModel) -> CompiledForest {
        let leaf_width = m.task().n_classes().unwrap_or(1);
        let mut tree_roots = Vec::new();
        let mut feature = Vec::new();
        let mut threshold = Vec::new();
        let mut left = Vec::new();
        let mut right = Vec::new();
        let mut is_leaf = Vec::new();
        let mut values = Vec::new();
        for tree in m.trees() {
            let base = feature.len() as u32;
            tree_roots.push(base);
            for n in tree.export_nodes() {
                feature.push(n.feature);
                threshold.push(n.threshold);
                left.push(base + n.left);
                right.push(base + n.right);
                is_leaf.push(n.is_leaf);
                if n.is_leaf {
                    assert_eq!(n.value.len(), leaf_width, "leaf value width");
                    values.extend_from_slice(&n.value);
                } else {
                    values.extend(std::iter::repeat_n(0.0, leaf_width));
                }
            }
        }
        CompiledForest {
            task: m.task(),
            n_features: m.n_features(),
            leaf_width,
            tree_roots,
            feature,
            threshold,
            left,
            right,
            is_leaf,
            values,
        }
    }
}

/// A linear model in artifact form: the exact encodings and weight
/// groups of the fitted model, restored verbatim at serving time so the
/// compiled path *is* the interpreted path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledLinear {
    /// Per-feature input encodings.
    pub encodings: Vec<Encoding>,
    /// Weight groups (design columns plus intercept each).
    pub weights: Vec<Vec<f64>>,
    /// Task the model was trained for.
    pub task: Task,
    /// Regression target mean (0 for classification).
    pub y_mean: f64,
    /// Regression target standard deviation (1 for classification).
    pub y_std: f64,
}

impl CompiledLinear {
    /// Captures a fitted linear model.
    pub fn from_model(m: &LinearModel) -> CompiledLinear {
        CompiledLinear {
            encodings: m.encodings().to_vec(),
            weights: m.weights().to_vec(),
            task: m.task(),
            y_mean: m.y_mean(),
            y_std: m.y_std(),
        }
    }

    /// Restores the live model (shares all prediction code with
    /// training-time models).
    pub fn to_model(&self) -> LinearModel {
        LinearModel::from_parts(
            self.encodings.clone(),
            self.weights.clone(),
            self.task,
            self.y_mean,
            self.y_std,
        )
    }
}

/// A stacked ensemble in artifact form: compiled members plus the
/// linear meta-learner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledStacked {
    /// Compiled base members, in ensemble order.
    pub members: Vec<CompiledModel>,
    /// The meta-learner over member prediction columns.
    pub meta: CompiledLinear,
    /// Task the ensemble was assembled for.
    pub task: Task,
}

impl CompiledStacked {
    /// Compiles a stacked ensemble (members first, then the meta model).
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Unsupported`] if any member cannot be
    /// compiled.
    pub fn from_model(m: &StackedModel) -> Result<CompiledStacked, ArtifactError> {
        let members = m
            .members()
            .iter()
            .map(CompiledModel::compile)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CompiledStacked {
            members,
            meta: CompiledLinear::from_model(m.meta()),
            task: m.task(),
        })
    }
}

/// Any learner compiled into serving form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CompiledModel {
    /// Boosted trees.
    Gbdt(CompiledGbdt),
    /// Random forest / extra-trees.
    Forest(CompiledForest),
    /// Logistic / ridge regression.
    Linear(CompiledLinear),
    /// Stacked ensemble.
    Stacked(Box<CompiledStacked>),
}

impl CompiledModel {
    /// Compiles a fitted model into artifact form.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Unsupported`] for custom dynamic models,
    /// whose prediction code cannot be captured in a data-only artifact.
    pub fn compile(model: &FittedModel) -> Result<CompiledModel, ArtifactError> {
        match model {
            FittedModel::Gbdt(m) => Ok(CompiledModel::Gbdt(CompiledGbdt::from_model(m))),
            FittedModel::Forest(m) => Ok(CompiledModel::Forest(CompiledForest::from_model(m))),
            FittedModel::Linear(m) => Ok(CompiledModel::Linear(CompiledLinear::from_model(m))),
            FittedModel::Stacked(m) => Ok(CompiledModel::Stacked(Box::new(
                CompiledStacked::from_model(m)?,
            ))),
            FittedModel::Custom(_) => Err(ArtifactError::Unsupported(
                "custom dynamic models carry no serializable structure".into(),
            )),
        }
    }

    /// The task the compiled model predicts.
    pub fn task(&self) -> Task {
        match self {
            CompiledModel::Gbdt(m) => m.task,
            CompiledModel::Forest(m) => m.task,
            CompiledModel::Linear(m) => m.task,
            CompiledModel::Stacked(m) => m.task,
        }
    }

    /// Feature columns the model expects at predict time. Lets callers
    /// (e.g. a request front end) reject a mis-shaped matrix with a
    /// typed error instead of panicking.
    pub fn n_features(&self) -> usize {
        match self {
            CompiledModel::Gbdt(m) => m.cuts.len(),
            CompiledModel::Forest(m) => m.n_features,
            CompiledModel::Linear(m) => m.encodings.len(),
            CompiledModel::Stacked(m) => m
                .members
                .first()
                .map(CompiledModel::n_features)
                .unwrap_or(0),
        }
    }

    /// Predicts on `data` through the compiled evaluator, building its
    /// [`crate::Tables`] for this one call. Bit-identical to the source
    /// [`FittedModel::predict`].
    pub fn predict(&self, data: impl Into<DatasetView>) -> Pred {
        self.serve(&data.into())
    }

    /// The artifact document and its payload fingerprint. The payload
    /// is serialized once and spliced into the envelope, which is
    /// written out field by field exactly as [`ArtifactFile`]'s derived
    /// serializer would (`serve.rs` asserts the bytes are equal).
    fn artifact_text(&self) -> (String, u64) {
        let payload = serde_json::to_string(self).expect("compiled models always serialize");
        let fp = fingerprint(&payload);
        let text = format!(
            "{{\"magic\":\"{ARTIFACT_MAGIC}\",\"version\":{ARTIFACT_VERSION},\
             \"fingerprint\":{fp},\"model\":{payload}}}"
        );
        (text, fp)
    }

    /// Serializes into the artifact document (magic + version +
    /// fingerprint + payload).
    pub fn to_artifact_string(&self) -> String {
        self.artifact_text().0
    }

    /// Parses and verifies an artifact document.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Parse`] for corrupt or truncated JSON,
    /// [`ArtifactError::BadMagic`] / [`ArtifactError::Version`] for
    /// foreign or future files, [`ArtifactError::FingerprintMismatch`]
    /// when the payload does not hash to the recorded fingerprint,
    /// [`ArtifactError::Layout`] when it fails [`CompiledModel::check`]
    /// (the sender computes the fingerprint, so it proves nothing about
    /// the structure).
    pub fn from_artifact_str(text: &str) -> Result<CompiledModel, ArtifactError> {
        // Probe the header first (the derived deserializer ignores the
        // unknown `model` field) so magic/version mismatches get their
        // typed error instead of a generic payload parse failure.
        let header: ArtifactHeader =
            serde_json::from_str(text).map_err(|e| ArtifactError::Parse(e.to_string()))?;
        if header.magic != ARTIFACT_MAGIC {
            return Err(ArtifactError::BadMagic {
                found: header.magic,
            });
        }
        if header.version != ARTIFACT_VERSION {
            return Err(ArtifactError::Version {
                found: header.version,
                supported: ARTIFACT_VERSION,
            });
        }
        let file: ArtifactFile =
            serde_json::from_str(text).map_err(|e| ArtifactError::Parse(e.to_string()))?;
        let payload =
            serde_json::to_string(&file.model).map_err(|e| ArtifactError::Parse(e.to_string()))?;
        let found = fingerprint(&payload);
        if found != file.fingerprint {
            return Err(ArtifactError::FingerprintMismatch {
                expected: file.fingerprint,
                found,
            });
        }
        file.model.check()?;
        Ok(file.model)
    }

    /// Writes the artifact to `path` (creating parent directories) and
    /// returns its payload fingerprint.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] on filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<u64, ArtifactError> {
        self.save_with(flaml_store::disk().as_ref(), path.as_ref())
    }

    /// [`CompiledModel::save`] against an explicit
    /// [`flaml_store::Storage`]. The artifact is published atomically —
    /// temp file, fsync, rename, parent-dir fsync — so a crash at any
    /// point leaves either the previous artifact or none, never a torn
    /// file under the final name.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Storage`] on persistence failures.
    pub fn save_with(&self, storage: &dyn Storage, path: &Path) -> Result<u64, ArtifactError> {
        create_parent_dir(storage, path)?;
        let (text, fp) = self.artifact_text();
        atomic_write_file(storage, path, text.as_bytes())?;
        Ok(fp)
    }

    /// Reads and verifies an artifact from `path`.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledModel::from_artifact_str`], plus
    /// [`ArtifactError::Io`] on read failures.
    pub fn load(path: impl AsRef<Path>) -> Result<CompiledModel, ArtifactError> {
        let text = std::fs::read_to_string(path)?;
        CompiledModel::from_artifact_str(&text)
    }

    /// [`CompiledModel::load`] against an explicit
    /// [`flaml_store::Storage`].
    ///
    /// # Errors
    ///
    /// Same as [`CompiledModel::from_artifact_str`], plus
    /// [`ArtifactError::Storage`] on read failures.
    pub fn load_with(storage: &dyn Storage, path: &Path) -> Result<CompiledModel, ArtifactError> {
        let bytes = storage.read(path)?;
        let text = String::from_utf8_lossy(&bytes);
        CompiledModel::from_artifact_str(&text)
    }
}

/// The on-disk artifact document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtifactFile {
    /// Always [`ARTIFACT_MAGIC`].
    pub magic: String,
    /// Format version ([`ARTIFACT_VERSION`]).
    pub version: u32,
    /// FNV-1a fingerprint of the serialized `model` payload.
    pub fingerprint: u64,
    /// The compiled model payload.
    pub model: CompiledModel,
}

/// Header-only probe of an artifact document (the payload field is
/// ignored during deserialization).
#[derive(Debug, Deserialize)]
struct ArtifactHeader {
    magic: String,
    version: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_fnv1a() {
        assert_eq!(fingerprint("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn artifact_header_rejections_are_typed() {
        let linear = CompiledModel::Linear(CompiledLinear {
            encodings: vec![Encoding::Numeric {
                mean: 0.0,
                std: 1.0,
            }],
            weights: vec![vec![0.5, 0.1]],
            task: Task::Regression,
            y_mean: 0.0,
            y_std: 1.0,
        });
        let text = linear.to_artifact_string();

        let foreign = text.replace(ARTIFACT_MAGIC, "not-an-artifact");
        assert!(matches!(
            CompiledModel::from_artifact_str(&foreign),
            Err(ArtifactError::BadMagic { .. })
        ));

        let future = text.replace("\"version\":1", "\"version\":99");
        assert!(matches!(
            CompiledModel::from_artifact_str(&future),
            Err(ArtifactError::Version { found: 99, .. })
        ));

        let truncated = &text[..text.len() / 2];
        assert!(matches!(
            CompiledModel::from_artifact_str(truncated),
            Err(ArtifactError::Parse(_))
        ));

        let corrupted = text.replace("0.5", "0.25");
        assert!(matches!(
            CompiledModel::from_artifact_str(&corrupted),
            Err(ArtifactError::FingerprintMismatch { .. })
        ));

        assert!(CompiledModel::from_artifact_str(&text).is_ok());
    }
}
