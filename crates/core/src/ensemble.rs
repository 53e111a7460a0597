//! Optional stacked-ensemble post-processing (paper appendix): after the
//! search, the best configuration of each learner becomes an ensemble
//! member; a linear meta-learner is trained on their cross-validated
//! out-of-fold predictions; members are then retrained on the full
//! training data. Off by default (FLAML keeps overhead low), enabled with
//! [`crate::AutoMl::ensemble`].

use crate::learner::Estimator;
use flaml_data::{stratified_kfold, Dataset, DatasetView};
use flaml_learners::{fit_meta, meta_features, FittedModel, StackedModel};
use flaml_search::{Config, SearchSpace};
use std::time::Duration;

/// One ensemble member: a learner with its best searched configuration.
#[derive(Debug, Clone)]
pub struct MemberSpec {
    /// The learner.
    pub kind: Estimator,
    /// Its best configuration.
    pub config: Config,
    /// The configuration's search space.
    pub space: SearchSpace,
    /// The validation error that ranked it.
    pub error: f64,
}

/// Builds a stacked ensemble from the top member specs (ranked by error,
/// at most `max_members`), using `folds`-fold out-of-fold predictions for
/// the meta-learner.
///
/// Returns `None` when fewer than two viable members exist or any
/// training step fails — the caller then falls back to the single best
/// model, so enabling ensembles can never lose a result.
pub fn build_stacked(
    shuffled: &DatasetView,
    mut specs: Vec<MemberSpec>,
    max_members: usize,
    folds: usize,
    seed: u64,
    budget: Option<Duration>,
) -> Option<FittedModel> {
    specs.retain(|s| s.error.is_finite());
    specs.sort_by(|a, b| a.error.total_cmp(&b.error));
    specs.truncate(max_members.max(2));
    if specs.len() < 2 {
        return None;
    }
    let fold_idx = stratified_kfold(shuffled, folds).ok()?;
    let n = shuffled.n_rows();

    // Out-of-fold predictions, one slot per (row, member) feature column.
    // Build per-fold member models and scatter their validation
    // predictions into OOF row order.
    let mut oof_members: Vec<Vec<FittedModel>> = Vec::with_capacity(fold_idx.len());
    for fold in &fold_idx {
        let train = shuffled.select(&fold.train);
        let mut models = Vec::with_capacity(specs.len());
        for spec in &specs {
            let m = spec
                .kind
                .fit(&train, &spec.config, &spec.space, seed, budget, None)
                .ok()?;
            models.push(m);
        }
        oof_members.push(models);
    }

    // Assemble the OOF meta-feature dataset: evaluate each fold's models
    // on that fold's validation rows, then stitch rows back into original
    // order. Column count comes from a probe on the first fold.
    let probe = meta_features(
        &oof_members[0],
        shuffled.select(&fold_idx[0].valid),
        fold_idx[0]
            .valid
            .iter()
            .map(|&i| shuffled.target_at(i))
            .collect(),
    );
    let n_meta = probe.n_features();
    let mut columns = vec![vec![0.0f64; n]; n_meta];
    let mut target = vec![0.0f64; n];
    for (fold, models) in fold_idx.iter().zip(&oof_members) {
        let valid = shuffled.select(&fold.valid);
        let feats = meta_features(
            models,
            &valid,
            fold.valid.iter().map(|&i| shuffled.target_at(i)).collect(),
        );
        for (local, &global) in fold.valid.iter().enumerate() {
            for (c, column) in columns.iter_mut().enumerate() {
                column[global] = feats.value(local, c);
            }
            target[global] = shuffled.target_at(global);
        }
    }
    let oof = Dataset::new("oof", shuffled.task(), columns, target).ok()?;
    let meta = fit_meta(&oof, seed).ok()?;

    // Retrain members on the full data for the deployable ensemble.
    let mut members = Vec::with_capacity(specs.len());
    for spec in &specs {
        let m = spec
            .kind
            .fit(shuffled, &spec.config, &spec.space, seed, budget, None)
            .ok()?;
        members.push(m);
    }
    Some(StackedModel::new(members, meta, shuffled.task()).into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LearnerKind;
    use flaml_data::Task;
    use flaml_metrics::Metric;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn data(n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(0);
        let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| f64::from(x0[i] + 0.3 * x1[i] + 0.1 * rng.gen::<f64>() > 0.65))
            .collect();
        Dataset::new("e", Task::Binary, vec![x0, x1], y).unwrap()
    }

    fn spec(kind: crate::LearnerKind, n: usize, error: f64) -> MemberSpec {
        let space = kind.space(n);
        MemberSpec {
            kind: Estimator::Builtin(kind),
            config: space.init_config(),
            space,
            error,
        }
    }

    #[test]
    fn builds_a_working_ensemble() {
        let d = data(400).shuffled(0);
        let specs = vec![
            spec(LearnerKind::LightGbm, 400, 0.1),
            spec(LearnerKind::Rf, 400, 0.2),
            spec(LearnerKind::Lr, 400, 0.3),
        ];
        let model = build_stacked(&d.view(), specs, 4, 5, 0, None).expect("ensemble builds");
        let pred = model.predict(&d);
        let loss = Metric::RocAuc.loss(&pred, d.target()).unwrap();
        assert!(loss < 0.2, "ensemble auc regret {loss}");
        assert!(matches!(model, FittedModel::Stacked(_)));
    }

    #[test]
    fn single_member_returns_none() {
        let d = data(200).shuffled(0);
        let specs = vec![spec(LearnerKind::LightGbm, 200, 0.1)];
        assert!(build_stacked(&d.view(), specs, 4, 5, 0, None).is_none());
    }

    #[test]
    fn infinite_error_members_are_dropped() {
        let d = data(200).shuffled(0);
        let specs = vec![
            spec(LearnerKind::LightGbm, 200, 0.1),
            spec(LearnerKind::Rf, 200, f64::INFINITY),
        ];
        assert!(
            build_stacked(&d.view(), specs, 4, 5, 0, None).is_none(),
            "one finite member is not an ensemble"
        );
    }

    #[test]
    fn max_members_caps_size() {
        let d = data(400).shuffled(0);
        let specs = vec![
            spec(LearnerKind::LightGbm, 400, 0.1),
            spec(LearnerKind::Rf, 400, 0.2),
            spec(LearnerKind::ExtraTrees, 400, 0.3),
            spec(LearnerKind::Lr, 400, 0.4),
        ];
        let model = build_stacked(&d.view(), specs, 2, 5, 0, None).expect("ensemble builds");
        let FittedModel::Stacked(s) = model else {
            panic!("expected stacked model");
        };
        assert_eq!(s.n_members(), 2, "capped at the 2 best members");
    }
}
