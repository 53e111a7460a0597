//! Estimated Cost for Improvement (ECI), the quantity behind FLAML's
//! learner proposer (paper Section 4.2, Eq. 1).
//!
//! For each learner `l` the tracker maintains `K0` (total cost spent on
//! `l`), `K1`/`K2` (total cost at the two most recent best-error updates),
//! `δ` (the error reduction between those two best configurations) and
//! `κ` (the cost of the current best trial). From these:
//!
//! ```text
//! ECI1 = max(K0 − K1, K1 − K2)       cost to improve at the current size
//! ECI2 = c · κ                        cost to double the sample size
//! ECI  = max( (ε̃_l − ε̃*)(K0 − K2)/δ , min(ECI1, ECI2) )
//! ```
//!
//! with the paper's special case `δ = 0 → δ := ε̃_l, τ := K0`, and untried
//! learners initialized to `base_cost × cost_constant(l)` where
//! `base_cost` is the cheapest trial of the fastest learner.

/// Per-learner ECI bookkeeping.
#[derive(Debug, Clone)]
pub struct EciState {
    /// Total cost spent on this learner so far (`K0`).
    k0: f64,
    /// Total cost at the most recent best-error update (`K1`).
    k1: f64,
    /// Total cost at the second most recent best-error update (`K2`).
    k2: f64,
    /// Error reduction between the two most recent best configs (`δ`).
    delta: f64,
    /// Cost of the trial that produced the current best config (`κ`).
    kappa: f64,
    /// Best validation error observed for this learner (`ε̃_l`).
    best_err: f64,
    /// Number of best-error updates so far.
    n_updates: usize,
    /// Number of trials so far.
    n_trials: usize,
    /// ECI1 estimate used before the first trial.
    untried_estimate: f64,
}

impl EciState {
    /// Creates the state for an untried learner whose first-trial cost is
    /// estimated as `untried_estimate` (base cost x the learner's cost
    /// constant).
    pub fn new(untried_estimate: f64) -> EciState {
        EciState {
            k0: 0.0,
            k1: 0.0,
            k2: 0.0,
            delta: 0.0,
            kappa: untried_estimate.max(1e-9),
            best_err: f64::INFINITY,
            n_updates: 0,
            n_trials: 0,
            untried_estimate: untried_estimate.max(1e-9),
        }
    }

    /// Updates the untried-cost estimate (used once the fastest learner's
    /// first trial has measured the base cost).
    pub fn set_untried_estimate(&mut self, estimate: f64) {
        if self.n_trials == 0 {
            self.untried_estimate = estimate.max(1e-9);
            self.kappa = self.untried_estimate;
        }
    }

    /// Seeds the learner's best error from a prior run (warm start): the
    /// learner must now *beat* its historical best to count as improving,
    /// and the ECI gap term prices lagging learners against real prior
    /// results instead of `INFINITY`. Only meaningful before the first
    /// trial; a `NaN` is sanitized to the failure sentinel.
    pub fn set_prior_err(&mut self, err: f64) {
        if self.n_trials == 0 {
            self.best_err = if err.is_nan() { f64::INFINITY } else { err };
        }
    }

    /// Records a finished trial of this learner with the given cost and
    /// validation error. Returns `true` if the learner's best error
    /// improved.
    pub fn on_trial(&mut self, cost: f64, err: f64) -> bool {
        // A NaN error would compare false against every incumbent and
        // then leak through rebase; map it to the failure sentinel.
        let err = if err.is_nan() { f64::INFINITY } else { err };
        let cost = cost.max(1e-9);
        self.k0 += cost;
        self.n_trials += 1;
        let improved = err < self.best_err;
        if improved {
            self.delta = if self.best_err.is_finite() {
                self.best_err - err
            } else {
                0.0
            };
            self.best_err = err;
            self.k2 = self.k1;
            self.k1 = self.k0;
            self.kappa = cost;
            self.n_updates += 1;
        }
        improved
    }

    /// Overrides the learner's best error (used when the sample size grows
    /// and the incumbent config is re-scored on the larger sample).
    pub fn rebase_err(&mut self, err: f64) {
        self.best_err = if err.is_nan() { f64::INFINITY } else { err };
    }

    /// Whether this learner has been tried.
    pub fn tried(&self) -> bool {
        self.n_trials > 0
    }

    /// Number of trials recorded.
    pub fn n_trials(&self) -> usize {
        self.n_trials
    }

    /// Best validation error (`ε̃_l`).
    pub fn best_err(&self) -> f64 {
        self.best_err
    }

    /// Cost of the current best trial (`κ`).
    pub fn kappa(&self) -> f64 {
        self.kappa
    }

    /// `ECI1`: estimated cost to find an improvement at the current sample
    /// size. For untried learners, the calibrated initial estimate.
    pub fn eci1(&self) -> f64 {
        if !self.tried() {
            return self.untried_estimate;
        }
        let v = (self.k0 - self.k1).max(self.k1 - self.k2);
        // Just after an update K0 == K1; at least one more trial at the
        // incumbent's cost will be needed.
        if v > 0.0 {
            v
        } else {
            self.kappa
        }
    }

    /// `ECI2`: estimated cost to re-try the current configuration with the
    /// sample size multiplied by `c` (the paper uses `c = 2`).
    pub fn eci2(&self, c: f64) -> f64 {
        c * self.kappa
    }

    /// `ECI`: estimated cost for this learner to beat the global best
    /// error `global_best` (Eq. 1).
    pub fn eci(&self, global_best: f64, c: f64) -> f64 {
        let base = self.eci1().min(self.eci2(c));
        if !self.tried() {
            return base;
        }
        let gap = self.best_err - global_best;
        if gap <= 0.0 || gap.is_nan() || !global_best.is_finite() {
            // This learner holds the best error: case (a).
            return base;
        }
        // Case (b): cost to close the gap at this learner's improvement
        // rate v = delta / tau.
        let (delta, tau) = if self.delta > 0.0 && self.n_updates >= 2 {
            (self.delta, self.k0 - self.k2)
        } else {
            // Special case: the first searched config is still the best.
            (self.best_err.max(1e-12), self.k0)
        };
        let fill_gap = gap * tau / delta.max(1e-12);
        fill_gap.max(base)
    }
}

/// Samples an index with probability proportional to `1 / eci[i]`
/// (the paper's randomized learner choice), given a uniform draw
/// `u ∈ [0, 1)`.
pub fn sample_by_inverse_eci(ecis: &[f64], u: f64) -> usize {
    debug_assert!(!ecis.is_empty());
    let weights: Vec<f64> = ecis.iter().map(|&e| 1.0 / e.max(1e-12)).collect();
    let total: f64 = weights.iter().sum();
    let mut cut = u.clamp(0.0, 1.0 - 1e-15) * total;
    for (i, w) in weights.iter().enumerate() {
        if cut < *w {
            return i;
        }
        cut -= w;
    }
    ecis.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untried_uses_calibrated_estimate() {
        let e = EciState::new(2.5);
        assert!(!e.tried());
        assert_eq!(e.eci1(), 2.5);
        assert_eq!(e.eci(0.1, 2.0), 2.5_f64.min(2.0 * 2.5));
    }

    #[test]
    fn prior_err_must_be_beaten_to_improve() {
        let mut e = EciState::new(1.0);
        e.set_prior_err(0.3);
        assert_eq!(e.best_err(), 0.3);
        assert!(!e.tried(), "a prior is not a trial");
        assert!(!e.on_trial(1.0, 0.5), "worse than the prior");
        assert!(e.on_trial(1.0, 0.2), "beats the prior");
        // After the first trial the prior is frozen in.
        e.set_prior_err(0.01);
        assert_eq!(e.best_err(), 0.2);
    }

    #[test]
    fn first_trial_sets_best() {
        let mut e = EciState::new(1.0);
        assert!(e.on_trial(3.0, 0.4));
        assert_eq!(e.best_err(), 0.4);
        assert_eq!(e.kappa(), 3.0);
    }

    #[test]
    fn eci1_tracks_cost_between_updates() {
        let mut e = EciState::new(1.0);
        e.on_trial(1.0, 0.5); // update 1: K1 = 1
        e.on_trial(1.0, 0.6); // no update: K0 = 2
        e.on_trial(1.0, 0.7); // no update: K0 = 3
                              // K0 - K1 = 2, K1 - K2 = 1 => ECI1 = 2.
        assert_eq!(e.eci1(), 2.0);
        e.on_trial(1.0, 0.4); // update 2: K2 = 1, K1 = 4
                              // K0 - K1 = 0, K1 - K2 = 3 => ECI1 = 3.
        assert_eq!(e.eci1(), 3.0);
    }

    #[test]
    fn eci2_is_c_times_kappa() {
        let mut e = EciState::new(1.0);
        e.on_trial(2.0, 0.5);
        assert_eq!(e.eci2(2.0), 4.0);
        e.on_trial(6.0, 0.3); // new best with cost 6
        assert_eq!(e.eci2(2.0), 12.0);
    }

    #[test]
    fn best_learner_uses_case_a() {
        let mut e = EciState::new(1.0);
        e.on_trial(1.0, 0.2);
        e.on_trial(2.0, 0.1);
        // This learner *is* the global best: ECI = min(ECI1, ECI2).
        let eci = e.eci(0.1, 2.0);
        assert_eq!(eci, e.eci1().min(e.eci2(2.0)));
    }

    #[test]
    fn lagging_learner_pays_for_the_gap() {
        let mut slow = EciState::new(1.0);
        slow.on_trial(1.0, 0.5); // update: K1 = 1
        slow.on_trial(1.0, 0.45); // update: K2 = 1, K1 = 2, δ = 0.05
                                  // Global best is far below: the gap term dominates.
        let eci = slow.eci(0.10, 2.0);
        // gap = 0.35, τ = K0 − K2 = 1 => cost = 0.35 * 1 / 0.05 = 7.
        assert!((eci - 7.0).abs() < 1e-9, "eci = {eci}");
    }

    #[test]
    fn self_correcting_failed_trials_raise_eci() {
        let mut e = EciState::new(1.0);
        e.on_trial(1.0, 0.3);
        let before = e.eci(0.2, 2.0);
        e.on_trial(2.0, 0.9); // expensive failure
        let after = e.eci(0.2, 2.0);
        assert!(after > before, "{after} <= {before}");
    }

    #[test]
    fn delta_zero_special_case() {
        let mut e = EciState::new(1.0);
        e.on_trial(4.0, 0.5); // single update => δ = 0 case
        let eci = e.eci(0.25, 2.0);
        // δ := ε̃_l = 0.5, τ := K0 = 4; gap = 0.25 => 0.25 * 4 / 0.5 = 2.
        // min(ECI1, ECI2) = min(4, 8) = 4 => max(2, 4) = 4.
        assert_eq!(eci, 4.0);
    }

    #[test]
    fn rebase_overrides_best_error() {
        let mut e = EciState::new(1.0);
        e.on_trial(1.0, 0.2);
        e.rebase_err(0.35);
        assert_eq!(e.best_err(), 0.35);
    }

    #[test]
    fn inverse_sampling_prefers_low_eci() {
        let ecis = [1.0, 9.0];
        // Weights 1 and 1/9: the first index owns 90% of the mass.
        let mut first = 0;
        for i in 0..1000 {
            let u = i as f64 / 1000.0;
            if sample_by_inverse_eci(&ecis, u) == 0 {
                first += 1;
            }
        }
        assert!((850..=950).contains(&first), "{first}/1000");
    }

    #[test]
    fn inverse_sampling_covers_all_indices() {
        let ecis = [1.0, 1.0, 1.0];
        let mut seen = [false; 3];
        for i in 0..300 {
            seen[sample_by_inverse_eci(&ecis, i as f64 / 300.0)] = true;
        }
        assert!(seen.iter().all(|&s| s), "every learner keeps a chance");
    }
}
