//! The baselines' proposer: one flat learner × hyperparameter space,
//! searched by TPE or uniform random sampling, optionally under a
//! Hyperband schedule over sample-size fidelity.
//!
//! HpBandSter, auto-sklearn-style BO and random search all search one
//! flat space whose first coordinate selects the learner and whose
//! remaining coordinates are the union of every learner's Table 5
//! parameters (inactive coordinates are simply ignored at evaluation
//! time, the standard flat encoding of conditional spaces). A one-learner
//! roster has no learner coordinate.
//!
//! [`Joint`] plugs into [`crate::controller`]'s `Search` as the second
//! arm of its proposer: the trial executor, budget clock, retry policy,
//! journal and refit are the ones FLAML's own search uses.

use crate::automl::{LearnerSelection, TrialMode};
use flaml_search::{
    Config, Domain, Hyperband, Job, JobSource, ParamDef, RandomSearch, SearchSpace, Tpe,
};

/// A flat joint space over several learners.
#[derive(Debug, Clone)]
pub(crate) struct JointSpace {
    space: SearchSpace,
    subspaces: Vec<SearchSpace>,
    offsets: Vec<usize>,
}

impl JointSpace {
    /// Builds the joint space over `(learner name, learner space)` pairs.
    pub(crate) fn new<'a>(
        learners: impl ExactSizeIterator<Item = (String, &'a SearchSpace)>,
    ) -> JointSpace {
        let mut params = Vec::new();
        if learners.len() > 1 {
            params.push(ParamDef::new(
                "learner",
                Domain::categorical(learners.len()),
                0.0,
            ));
        }
        let mut subspaces = Vec::with_capacity(learners.len());
        let mut offsets = Vec::with_capacity(learners.len());
        for (name, sub) in learners {
            offsets.push(params.len());
            for p in sub.params() {
                params.push(ParamDef::new(
                    format!("{name}_{}", p.name),
                    p.domain,
                    p.init,
                ));
            }
            subspaces.push(sub.clone());
        }
        JointSpace {
            space: SearchSpace::new(params).expect("joint space is well-formed"),
            subspaces,
            offsets,
        }
    }

    /// The flat search space (for samplers and surrogates).
    pub(crate) fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// Splits a unit-cube point of the joint space into the selected
    /// learner's index, its decoded configuration, and its subspace.
    ///
    /// # Panics
    ///
    /// Panics if the point length does not match the joint dimension.
    pub(crate) fn split(&self, point: &[f64]) -> (usize, Config, &SearchSpace) {
        assert_eq!(point.len(), self.space.dim(), "point/space mismatch");
        let k = self.subspaces.len();
        let l_idx = if k == 1 {
            0
        } else {
            (point[0] * k as f64).floor().min(k as f64 - 1.0).max(0.0) as usize
        };
        let sub = &self.subspaces[l_idx];
        let off = self.offsets[l_idx];
        (l_idx, sub.decode(&point[off..off + sub.dim()]), sub)
    }
}

/// Where a baseline's fresh points come from.
enum Sampler {
    Tpe(Tpe),
    Random(RandomSearch),
}

/// The baselines' proposer state: the joint space, the sampler, the
/// optional Hyperband schedule, and the one point in flight.
pub(crate) struct Joint {
    space: JointSpace,
    sampler: Sampler,
    /// The fidelity baselines (BOHB, Hyperband) size each trial — and
    /// promote survivors — by a Hyperband schedule; the others run every
    /// trial on full data.
    hyperband: Option<Hyperband>,
    /// The proposed point and its Hyperband job, until its loss is told.
    pending: Option<(Vec<f64>, Option<Job>)>,
}

impl Joint {
    /// The proposer of a baseline `selection` over `learners`, or `None`
    /// for FLAML's own policies. `r_min` is the Hyperband fidelity floor
    /// (initial sample size / rows).
    pub(crate) fn new<'a>(
        selection: LearnerSelection,
        learners: impl ExactSizeIterator<Item = (String, &'a SearchSpace)>,
        seed: u64,
        r_min: f64,
    ) -> Option<Joint> {
        // Per-baseline seed offsets keep the proposal streams of
        // different systems independent even when the caller passes one
        // seed.
        let (tpe, offset, fidelity) = match selection {
            LearnerSelection::Eci | LearnerSelection::RoundRobin => return None,
            LearnerSelection::Bohb => (true, 0x424f4842, true),
            LearnerSelection::Bo => (true, 0x424f, false),
            LearnerSelection::Random => (false, 0x52414e44, false),
            LearnerSelection::Hyperband => (false, 0x48422121, true),
        };
        let space = JointSpace::new(learners);
        let flat = space.space().clone();
        let sampler = if tpe {
            Sampler::Tpe(Tpe::new(flat, seed ^ offset))
        } else {
            Sampler::Random(RandomSearch::new(flat, seed ^ offset))
        };
        Some(Joint {
            space,
            sampler,
            hyperband: fidelity.then(|| Hyperband::new(3, r_min.clamp(1e-6, 1.0))),
            pending: None,
        })
    }

    /// Proposes the next trial on `n` rows: the learner index, the mode,
    /// the sample size and the configuration.
    pub(crate) fn ask(&mut self, n: usize) -> (usize, TrialMode, usize, Config) {
        let job = self.hyperband.as_mut().map(Hyperband::next_job);
        let (point, sample_size, mode) = match &job {
            None => (self.sampler.ask(), n, TrialMode::Search),
            Some(job) => {
                let s = ((job.fidelity * n as f64).round() as usize).clamp(1, n);
                match &job.source {
                    JobSource::Fresh => (self.sampler.ask(), s, TrialMode::Search),
                    JobSource::Promoted(cfg) => (cfg.clone(), s, TrialMode::SampleUp),
                }
            }
        };
        let (li, config, _) = self.space.split(&point);
        self.pending = Some((point, job));
        (li, mode, sample_size, config)
    }

    /// Feeds the loss of the last proposed trial back: a fresh point to
    /// the sampler, every point to the Hyperband schedule.
    pub(crate) fn tell(&mut self, mode: TrialMode, loss: f64) {
        let (point, job) = self.pending.take().expect("a told trial was proposed");
        if mode == TrialMode::Search {
            self.sampler.tell(loss);
        }
        if let (Some(hb), Some(job)) = (self.hyperband.as_mut(), &job) {
            hb.report(job, point, loss);
        }
    }
}

impl Sampler {
    fn ask(&mut self) -> Vec<f64> {
        match self {
            Sampler::Tpe(tpe) => tpe.ask(),
            Sampler::Random(rs) => rs.ask(),
        }
    }

    fn tell(&mut self, error: f64) {
        match self {
            Sampler::Tpe(tpe) => tpe.tell(error),
            Sampler::Random(rs) => rs.tell(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LearnerKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn joint(learners: &[LearnerKind], n_rows: usize) -> JointSpace {
        let spaces: Vec<SearchSpace> = learners.iter().map(|k| k.space(n_rows)).collect();
        JointSpace::new(
            learners
                .iter()
                .zip(&spaces)
                .map(|(k, s)| (k.name().to_string(), s)),
        )
    }

    #[test]
    fn dimensions_add_up() {
        let learners = [LearnerKind::LightGbm, LearnerKind::XgBoost, LearnerKind::Lr];
        let js = joint(&learners, 1000);
        assert_eq!(js.space().dim(), 1 + 9 + 9 + 1);
    }

    #[test]
    fn split_selects_each_learner() {
        let learners = [LearnerKind::LightGbm, LearnerKind::Lr];
        let js = joint(&learners, 1000);
        let d = js.space().dim();
        let mut point = vec![0.5; d];
        point[0] = 0.1;
        let (k, _, sub) = js.split(&point);
        assert_eq!(learners[k], LearnerKind::LightGbm);
        assert_eq!(sub.dim(), 9);
        point[0] = 0.9;
        let (k, cfg, sub) = js.split(&point);
        assert_eq!(learners[k], LearnerKind::Lr);
        assert_eq!(sub.dim(), 1);
        assert!(cfg.get(sub, "c") > 0.0);
    }

    #[test]
    fn split_round_trips_subspace_values() {
        let learners = [LearnerKind::Rf, LearnerKind::Lr];
        let js = joint(&learners, 500);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            let p = js.space().random_point(&mut rng);
            let (k, cfg, sub) = js.split(&p);
            let k = learners[k];
            // Every decoded value must lie in its domain.
            for (def, &v) in sub.params().iter().zip(cfg.values()) {
                let u = def.domain.encode(v);
                let back = def.domain.decode(u);
                assert!(
                    (back - v).abs() < 1e-9,
                    "{k}: {} = {v} not stable",
                    def.name
                );
            }
        }
    }

    #[test]
    fn a_single_learner_has_no_learner_coordinate() {
        let js = joint(&[LearnerKind::Lr], 100);
        assert_eq!(js.space().dim(), 1);
        let (k, cfg, sub) = js.split(&[0.5]);
        assert_eq!(k, 0);
        assert!(cfg.get(sub, "c") > 0.0);
    }
}
