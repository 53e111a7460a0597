//! Budget accounting for the AutoML controller.
//!
//! The paper charges each trial its measured CPU time. For deterministic
//! tests and reproducible experiment traces this crate also supports a
//! *virtual* clock that charges an analytic cost model instead; the
//! controller's behaviour (ECI updates, sample-size schedule, stopping)
//! is then a pure function of the seed.

use std::time::{Duration, Instant};

/// Facts about a trial that a virtual cost model may use.
#[derive(Debug, Clone, Copy)]
pub struct TrialInfo {
    /// The trained learner's relative cost constant (see
    /// [`crate::LearnerKind::cost_constant`]).
    pub learner_cost_constant: f64,
    /// Number of training rows used (sample size x folds handled via
    /// `n_fits`).
    pub sample_size: usize,
    /// Number of feature columns.
    pub n_features: usize,
    /// Rough model-complexity factor (e.g. trees x leaves).
    pub cost_factor: f64,
    /// Number of model fits the trial performed (k for k-fold CV, 1 for
    /// holdout).
    pub n_fits: usize,
}

/// Where trial costs come from.
#[derive(Debug, Clone, Copy)]
pub enum TimeSource {
    /// Measured wall-clock seconds (the paper's setting).
    Wall,
    /// A deterministic analytic model of trial cost in virtual seconds.
    Virtual(fn(&TrialInfo) -> f64),
}

impl TimeSource {
    /// Stable lowercase name (`"wall"` / `"virtual"`), as recorded in a
    /// trial journal's header. Distinct virtual cost models are not
    /// distinguished: replay re-applies *recorded* costs, so only trials
    /// run after the resume point are charged under the current model.
    pub fn name(&self) -> &'static str {
        match self {
            TimeSource::Wall => "wall",
            TimeSource::Virtual(_) => "virtual",
        }
    }
}

/// A reasonable default virtual cost model: linear in rows x features x
/// fits, scaled by model complexity. Only relative magnitudes matter.
pub fn default_virtual_cost(info: &TrialInfo) -> f64 {
    let volume = info.sample_size as f64 * info.n_features as f64 * info.n_fits as f64;
    let complexity = 1.0 + info.cost_factor / 256.0;
    let learner_factor = info.learner_cost_constant;
    // Scaled so that a cheap init trial on ~500 x 10 data costs about
    // 0.05 virtual seconds: a 1-second virtual budget buys tens of trials,
    // keeping virtual-clock tests fast while preserving relative costs.
    1e-5 * volume * complexity * learner_factor
}

/// Tracks elapsed budget in wall or virtual seconds.
#[derive(Debug)]
pub(crate) struct BudgetClock {
    source: TimeSource,
    start: Instant,
    virtual_now: f64,
    /// Wall-clock budget `start.elapsed()` cannot see: what
    /// [`BudgetClock::advance`] charged for trials replayed from an
    /// earlier process, and what [`BudgetClock::park`] folded in.
    wall_offset: f64,
}

impl BudgetClock {
    /// Starts the clock.
    pub(crate) fn new(source: TimeSource) -> BudgetClock {
        BudgetClock {
            source,
            start: Instant::now(),
            virtual_now: 0.0,
            wall_offset: 0.0,
        }
    }

    /// Whether this clock runs on wall time.
    fn is_wall(&self) -> bool {
        matches!(self.source, TimeSource::Wall)
    }

    /// Seconds elapsed since the clock started (plus any
    /// [`BudgetClock::advance`]d pre-spent budget).
    pub(crate) fn elapsed(&self) -> f64 {
        match self.source {
            TimeSource::Wall => self.start.elapsed().as_secs_f64() + self.wall_offset,
            TimeSource::Virtual(_) => self.virtual_now,
        }
    }

    /// The deadline of a trial starting now under `budget`: on a wall
    /// clock the budget left, but at least 50 ms; a virtual clock, or a
    /// budget too large for a [`Duration`], bounds nothing.
    pub(crate) fn deadline(&self, budget: f64) -> Option<Duration> {
        let remaining = budget - self.elapsed();
        self.is_wall()
            .then(|| Duration::try_from_secs_f64(remaining.max(0.05)).ok())
            .flatten()
    }

    /// The final refit after a search under `budget`: whether a wall
    /// clock has spent the whole budget (a caller holding the best
    /// trial's model then keeps it), and the refit's deadline — the time
    /// left, but at least 50 ms and at most `budget`, so an exhausted
    /// budget grants no extra time. A virtual clock, or a budget too
    /// large for a [`Duration`], bounds nothing.
    pub(crate) fn refit_deadline(&self, budget: f64) -> (bool, Option<Duration>) {
        let remaining = self.is_wall().then(|| (budget - self.elapsed()).max(0.0));
        let deadline =
            remaining.and_then(|r| Duration::try_from_secs_f64(r.max(0.05).min(budget)).ok());
        (remaining.is_some_and(|r| r <= 0.0), deadline)
    }

    /// Advances the clock by an externally recorded cost without charging
    /// a trial — how journal replay re-applies a previous process's
    /// spending. On a virtual clock this performs the same `+=` a live
    /// [`BudgetClock::charge`] would have, so replaying a run's recorded
    /// per-attempt costs in order reproduces its elapsed time
    /// bit-for-bit.
    pub(crate) fn advance(&mut self, secs: f64) {
        match self.source {
            TimeSource::Wall => self.wall_offset += secs,
            TimeSource::Virtual(_) => self.virtual_now += secs,
        }
    }

    /// Stops a wall clock while its search waits its turn: the time
    /// run so far is folded into the offset, so nothing between here
    /// and [`BudgetClock::unpark`] is billed. Virtual time only moves
    /// when charged, so a virtual clock reads the same throughout.
    pub(crate) fn park(&mut self) {
        self.wall_offset += self.start.elapsed().as_secs_f64();
        self.unpark();
    }

    /// Restarts a [`BudgetClock::park`]ed wall clock.
    pub(crate) fn unpark(&mut self) {
        self.start = Instant::now();
    }

    /// Charges one trial: returns the cost in this clock's seconds and
    /// advances virtual time if applicable. `measured` is the trial's
    /// measured wall seconds.
    pub(crate) fn charge(&mut self, info: &TrialInfo, measured: f64) -> f64 {
        match self.source {
            TimeSource::Wall => measured.max(1e-9),
            TimeSource::Virtual(model) => {
                let cost = model(info).max(1e-9);
                self.virtual_now += cost;
                cost
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(s: usize) -> TrialInfo {
        TrialInfo {
            learner_cost_constant: 1.0,
            sample_size: s,
            n_features: 10,
            cost_factor: 16.0,
            n_fits: 1,
        }
    }

    #[test]
    fn virtual_clock_accumulates_model_costs() {
        let mut clock = BudgetClock::new(TimeSource::Virtual(default_virtual_cost));
        assert_eq!(clock.elapsed(), 0.0);
        let c1 = clock.charge(&info(1000), 123.0);
        let c2 = clock.charge(&info(2000), 456.0);
        assert!((clock.elapsed() - (c1 + c2)).abs() < 1e-12);
        assert!((c2 / c1 - 2.0).abs() < 1e-9, "cost linear in sample size");
    }

    #[test]
    fn advance_replays_costs_bit_for_bit() {
        let mut live = BudgetClock::new(TimeSource::Virtual(default_virtual_cost));
        let costs: Vec<f64> = (1..=5).map(|s| live.charge(&info(s * 700), 0.0)).collect();
        let mut replay = BudgetClock::new(TimeSource::Virtual(default_virtual_cost));
        for c in costs {
            replay.advance(c);
        }
        assert_eq!(live.elapsed().to_bits(), replay.elapsed().to_bits());
    }

    #[test]
    fn advance_offsets_a_wall_clock() {
        let mut clock = BudgetClock::new(TimeSource::Wall);
        clock.advance(10.0);
        assert!(clock.elapsed() >= 10.0);
    }

    #[test]
    fn a_parked_wall_clock_is_not_billed() {
        let mut clock = BudgetClock::new(TimeSource::Wall);
        std::thread::sleep(std::time::Duration::from_millis(20));
        clock.park();
        let at_park = clock.elapsed();
        assert!(at_park >= 0.02, "time before the park counts");
        std::thread::sleep(std::time::Duration::from_millis(150));
        clock.unpark();
        let resumed = clock.elapsed();
        assert!(resumed >= 0.02, "parking keeps the budget already spent");
        assert!(
            resumed < at_park + 0.1,
            "150 ms in the queue must not be billed, got {resumed} after {at_park}"
        );
    }

    #[test]
    fn parking_leaves_a_virtual_clock_untouched() {
        let mut clock = BudgetClock::new(TimeSource::Virtual(default_virtual_cost));
        clock.charge(&info(1000), 0.0);
        let before = clock.elapsed().to_bits();
        clock.park();
        std::thread::sleep(std::time::Duration::from_millis(5));
        clock.unpark();
        assert_eq!(clock.elapsed().to_bits(), before);
    }

    #[test]
    fn wall_clock_charges_measured_time() {
        let mut clock = BudgetClock::new(TimeSource::Wall);
        let c = clock.charge(&info(1000), 0.25);
        assert_eq!(c, 0.25);
        assert!(clock.is_wall());
    }

    #[test]
    fn default_model_scales_with_learner_constant() {
        let lgbm = default_virtual_cost(&info(1000));
        let lr = default_virtual_cost(&TrialInfo {
            learner_cost_constant: 160.0,
            ..info(1000)
        });
        assert!((lr / lgbm - 160.0).abs() < 1e-9);
    }

    #[test]
    fn cv_fits_multiply_cost() {
        let one = default_virtual_cost(&info(1000));
        let five = default_virtual_cost(&TrialInfo {
            n_fits: 5,
            ..info(1000)
        });
        assert!((five / one - 5.0).abs() < 1e-9);
    }
}
