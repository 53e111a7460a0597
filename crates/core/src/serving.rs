//! Bridges AutoML results to the serving stack: compile a run's best
//! model into a [`CompiledModel`] artifact, export it to disk, or go
//! journal → retrain → artifact in one call.

use std::path::Path;

use flaml_blob::ArtifactFormat;
use flaml_data::Dataset;
use flaml_serve::CompiledModel;
use flaml_store::disk;

use crate::automl::{retrain_from_log, AutoMlError, AutoMlResult, Retrained};

impl AutoMlResult {
    /// Compiles the run's final refit model into a serving artifact.
    ///
    /// # Errors
    ///
    /// Returns [`AutoMlError::Artifact`] if the model is a custom
    /// learner the artifact format cannot represent.
    pub fn compile(&self) -> Result<CompiledModel, AutoMlError> {
        Ok(CompiledModel::compile(&self.model)?)
    }

    /// Compiles the final model and writes it to `path` as a versioned,
    /// fingerprinted artifact in `format`: the portable JSON document,
    /// or the binary blob whose predictions are bit-identical.
    /// Returns the artifact fingerprint.
    ///
    /// # Errors
    ///
    /// Returns [`AutoMlError::Artifact`] if compilation or the write
    /// fails.
    pub fn export_artifact(
        &self,
        path: impl AsRef<Path>,
        format: ArtifactFormat,
    ) -> Result<u64, AutoMlError> {
        Ok(format.save_with(disk().as_ref(), path.as_ref(), &self.compile()?)?)
    }
}

impl Retrained {
    /// Compiles the retrained model into a serving artifact.
    ///
    /// # Errors
    ///
    /// Returns [`AutoMlError::Artifact`] if the model is a custom
    /// learner the artifact format cannot represent.
    pub fn compile(&self) -> Result<CompiledModel, AutoMlError> {
        Ok(CompiledModel::compile(&self.model)?)
    }

    /// Compiles the retrained model and writes it to `path` in `format`
    /// (see [`AutoMlResult::export_artifact`]). Returns the artifact
    /// fingerprint.
    ///
    /// # Errors
    ///
    /// Returns [`AutoMlError::Artifact`] if compilation or the write
    /// fails.
    pub fn export_artifact(
        &self,
        path: impl AsRef<Path>,
        format: ArtifactFormat,
    ) -> Result<u64, AutoMlError> {
        Ok(format.save_with(disk().as_ref(), path.as_ref(), &self.compile()?)?)
    }
}

/// Rebuilds the journaled best model ([`retrain_from_log`]) and writes
/// it straight to `out` as a serving artifact in `format` — the
/// journal-to-service deployment path in one call. Returns the
/// retrained model alongside so callers can inspect the learner,
/// configuration and loss.
///
/// # Errors
///
/// Returns [`AutoMlError`] if the journal is unusable (see
/// [`retrain_from_log`]) or the artifact cannot be compiled or written.
pub fn export_artifact_from_log(
    journal: impl AsRef<Path>,
    data: &Dataset,
    out: impl AsRef<Path>,
    format: ArtifactFormat,
) -> Result<Retrained, AutoMlError> {
    let retrained = retrain_from_log(journal, data)?;
    retrained.export_artifact(out, format)?;
    Ok(retrained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automl::AutoMl;
    use crate::learner::LearnerKind;
    use flaml_data::Task;
    use flaml_metrics::Pred;

    fn dataset() -> Dataset {
        let x: Vec<f64> = (0..240).map(|i| (i % 83) as f64 / 83.0).collect();
        let y: Vec<f64> = x.iter().map(|v| f64::from(*v > 0.45)).collect();
        Dataset::new("serving", Task::Binary, vec![x], y).unwrap()
    }

    fn bits(p: &Pred) -> Vec<u64> {
        match p {
            Pred::Values(v) => v.iter().map(|x| x.to_bits()).collect(),
            Pred::Probs { p, .. } => p.iter().map(|x| x.to_bits()).collect(),
        }
    }

    #[test]
    fn automl_result_exports_a_loadable_bit_identical_artifact() {
        let data = dataset();
        let result = AutoMl::new()
            .time_budget(0.5)
            .estimators([LearnerKind::LightGbm])
            .fit(&data)
            .unwrap();
        let compiled = result.compile().unwrap();
        assert_eq!(
            bits(&compiled.predict(&data)),
            bits(&result.model.predict(&data))
        );

        let path = std::env::temp_dir().join("flaml-core-serving-test/automl.artifact.json");
        let fp = result.export_artifact(&path, ArtifactFormat::Json).unwrap();
        let loaded = CompiledModel::load(&path).unwrap();
        assert_eq!(loaded, compiled);
        assert_eq!(
            flaml_serve::fingerprint(&serde_json::to_string(&loaded).unwrap()),
            fp
        );
    }

    #[test]
    fn blob_export_opens_and_predicts_bit_identically() {
        let data = dataset();
        let result = AutoMl::new()
            .time_budget(0.5)
            .estimators([LearnerKind::LightGbm])
            .fit(&data)
            .unwrap();
        let path = std::env::temp_dir().join("flaml-core-serving-test/automl.artifact.blob");
        let fp = result.export_artifact(&path, ArtifactFormat::Blob).unwrap();
        let blob = flaml_blob::BlobModel::open(&path).unwrap();
        assert_eq!(blob.fingerprint(), fp);
        assert_eq!(
            bits(&blob.predict(&data)),
            bits(&result.model.predict(&data)),
            "blob artifact must predict exactly like the run's model"
        );
    }

    #[test]
    fn journal_to_artifact_pipeline_round_trips() {
        let data = dataset();
        let dir = std::env::temp_dir().join("flaml-core-serving-test");
        let log = dir.join("run.jsonl");
        let _ = std::fs::remove_file(&log);
        let result = AutoMl::new()
            .time_budget(0.5)
            .estimators([LearnerKind::Lr])
            .journal(&log)
            .fit(&data)
            .unwrap();

        let out = dir.join("from-log.artifact.json");
        let retrained = export_artifact_from_log(&log, &data, &out, ArtifactFormat::Json).unwrap();
        assert_eq!(retrained.learner, result.best_learner);
        let loaded = CompiledModel::load(&out).unwrap();
        assert_eq!(
            bits(&loaded.predict(&data)),
            bits(&result.model.predict(&data)),
            "journal-exported artifact must predict exactly like the run's model"
        );
    }

    #[test]
    fn custom_models_surface_the_artifact_error_variant() {
        use flaml_data::DatasetView;
        use flaml_learners::{DynModel, FittedModel};
        use std::sync::Arc;

        #[derive(Debug)]
        struct Opaque;
        impl DynModel for Opaque {
            fn predict_dyn(&self, data: &DatasetView) -> Pred {
                Pred::from_values(vec![0.0; data.n_rows()])
            }
        }

        let data = dataset();
        let mut result = AutoMl::new()
            .time_budget(0.2)
            .estimators([LearnerKind::Lr])
            .fit(&data)
            .unwrap();
        result.model = FittedModel::Custom(Arc::new(Opaque));
        assert!(matches!(
            result.compile(),
            Err(AutoMlError::Artifact(
                flaml_serve::ArtifactError::Unsupported(_)
            ))
        ));
    }
}
