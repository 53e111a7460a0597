//! Windowed loss-shift drift detection over the champion's per-chunk
//! evaluation losses.
//!
//! The detector is the trigger of the online loop: the champion is
//! evaluated on every incoming chunk *before* anything trains on it
//! (prequential, "test then train"), and the resulting loss sequence is
//! fed to [`DriftDetector::observe`]. When the mean loss of the most
//! recent `window` chunks exceeds the mean of everything before them in
//! the current era by more than `threshold`, the detector fires and the
//! session launches a challenger round.
//!
//! The test is deliberately a pure function of the observed losses —
//! no wall clock, no randomness — so a resumed session that replays the
//! journaled losses reconstructs the exact detector state and fires at
//! the exact same chunk. That purity is what makes the promotion trace
//! byte-identical across kill-and-resume and across worker counts.
//!
//! State is O(`window`) however long an era runs: the last `window`
//! losses in a ring, plus a running sum and count of the era's earlier
//! losses. The sum adds in arrival order from `-0.0`, as
//! `Iterator::sum` does, so the journaled means keep their bits. A
//! window too large to ever fill (`2 * window` overflows) never fires.

use std::collections::VecDeque;

/// What a firing detector saw: the pre-shift baseline mean and the
/// recent-window mean that exceeded it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSignal {
    /// Mean loss of the era's chunks before the recent window.
    pub baseline: f64,
    /// Mean loss of the last `window` chunks.
    pub recent: f64,
}

/// A deterministic windowed loss-shift test (see the module docs).
#[derive(Debug, Clone)]
pub struct DriftDetector {
    window: usize,
    threshold: f64,
    /// The era's last `window` losses, oldest first.
    recent: VecDeque<f64>,
    /// Sum and count of the era's losses before `recent`.
    earlier_sum: f64,
    earlier_n: usize,
}

impl DriftDetector {
    /// A detector firing when the last `window` losses exceed the
    /// preceding baseline mean by more than `threshold`. The baseline
    /// needs at least `window` observations of its own, so the earliest
    /// possible firing is `2 * window` chunks into an era, and a window
    /// for which `2 * window` overflows never fires.
    pub fn new(window: usize, threshold: f64) -> DriftDetector {
        DriftDetector {
            window: window.max(1),
            threshold,
            recent: VecDeque::new(),
            earlier_sum: -0.0,
            earlier_n: 0,
        }
    }

    /// Feeds one per-chunk champion loss; returns the drift signal if
    /// the loss shift crosses the threshold at this observation.
    /// Non-finite losses (a failed evaluation) are clamped out rather
    /// than poisoning the means.
    pub fn observe(&mut self, loss: f64) -> Option<DriftSignal> {
        self.recent
            .push_back(if loss.is_finite() { loss } else { 0.0 });
        if self.recent.len() > self.window {
            let oldest = self.recent.pop_front().expect("ring is over-full");
            self.earlier_sum += oldest;
            self.earlier_n += 1;
        }
        if self.len() < self.window.saturating_mul(2) {
            return None;
        }
        let recent = self.recent.iter().sum::<f64>() / self.window as f64;
        let baseline = self.earlier_sum / self.earlier_n as f64;
        if recent - baseline > self.threshold {
            Some(DriftSignal { baseline, recent })
        } else {
            None
        }
    }

    /// Losses observed in the current era.
    pub fn len(&self) -> usize {
        self.earlier_n + self.recent.len()
    }

    /// Whether no losses have been observed this era.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Re-anchors the detector at an era boundary (promotion, rollback,
    /// or a rejected challenger round): the old era's losses no longer
    /// describe the model now being served.
    pub fn reset(&mut self) {
        self.recent.clear();
        self.earlier_sum = -0.0;
        self.earlier_n = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The detector as first written: every loss of the era in a `Vec`,
    /// both means re-summed on every observation. The oracle the ring
    /// must match bit for bit.
    struct Oracle {
        window: usize,
        threshold: f64,
        losses: Vec<f64>,
    }

    impl Oracle {
        fn observe(&mut self, loss: f64) -> Option<DriftSignal> {
            self.losses.push(if loss.is_finite() { loss } else { 0.0 });
            let n = self.losses.len();
            if n < self.window.saturating_mul(2) {
                return None;
            }
            let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
            let recent = mean(&self.losses[n - self.window..]);
            let baseline = mean(&self.losses[..n - self.window]);
            (recent - baseline > self.threshold).then_some(DriftSignal { baseline, recent })
        }
    }

    fn loss() -> impl Strategy<Value = f64> {
        prop_oneof![
            0.0..2.0,
            -1.0..1.0,
            Just(0.0),
            Just(-0.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
        ]
    }

    fn bits(sig: Option<DriftSignal>) -> Option<(u64, u64)> {
        sig.map(|s| (s.baseline.to_bits(), s.recent.to_bits()))
    }

    proptest! {
        #[test]
        fn ring_matches_the_vec_oracle_bit_for_bit(
            window in 1usize..6,
            threshold in 0.0..0.5,
            losses in proptest::collection::vec(loss(), 0..64),
            reset_every in 0usize..20,
        ) {
            let mut ring = DriftDetector::new(window, threshold);
            let mut oracle = Oracle { window, threshold, losses: Vec::new() };
            for (i, &l) in losses.iter().enumerate() {
                if reset_every > 0 && i % reset_every == reset_every - 1 {
                    ring.reset();
                    oracle.losses.clear();
                }
                prop_assert_eq!(bits(ring.observe(l)), bits(oracle.observe(l)), "loss {} ({})", i, l);
                prop_assert_eq!(ring.len(), oracle.losses.len());
            }
        }
    }

    #[test]
    fn an_all_negative_zero_baseline_keeps_its_sign() {
        // The running sum starts where `Iterator::sum` does, at -0.0.
        let seq = [-0.0, -0.0, 1.0, 1.0];
        let mut ring = DriftDetector::new(2, 0.5);
        let mut oracle = Oracle {
            window: 2,
            threshold: 0.5,
            losses: Vec::new(),
        };
        let got: Vec<_> = seq.iter().map(|&l| bits(ring.observe(l))).collect();
        let want: Vec<_> = seq.iter().map(|&l| bits(oracle.observe(l))).collect();
        assert_eq!(got, want);
        assert_eq!(got[3], Some(((-0.0f64).to_bits(), 1.0f64.to_bits())));
    }

    #[test]
    fn a_window_that_cannot_fill_never_fires() {
        let mut d = DriftDetector::new(usize::MAX, 0.0);
        for i in 0..100 {
            assert_eq!(d.observe(f64::from(i)), None);
        }
        assert_eq!(d.len(), 100);
    }

    #[test]
    fn fires_only_on_a_real_shift() {
        let mut d = DriftDetector::new(3, 0.1);
        for _ in 0..10 {
            assert_eq!(d.observe(0.30), None, "stationary losses never fire");
        }
        // Loss jumps by 0.3: fires as soon as the recent window is
        // dominated by post-shift chunks.
        let mut fired = None;
        for i in 0..6 {
            if let Some(sig) = d.observe(0.60) {
                fired = Some((i, sig));
                break;
            }
        }
        let (at, sig) = fired.expect("shift must fire");
        assert!(at <= 3, "fired within one window of the shift, got {at}");
        assert!(sig.recent > sig.baseline + 0.1);
    }

    #[test]
    fn needs_two_windows_before_firing() {
        let mut d = DriftDetector::new(4, 0.0);
        for i in 0..7 {
            assert_eq!(d.observe(i as f64), None, "observation {i} is too early");
        }
        assert!(d.observe(7.0).is_some(), "2*window observations suffice");
    }

    #[test]
    fn reset_reanchors() {
        let mut d = DriftDetector::new(2, 0.05);
        for _ in 0..4 {
            d.observe(0.2);
        }
        assert!(d.observe(0.9).is_some(), "shift detected");
        d.reset();
        assert!(d.is_empty());
        for _ in 0..8 {
            assert_eq!(
                d.observe(0.9),
                None,
                "post-reset the high loss is the new baseline"
            );
        }
    }

    #[test]
    fn deterministic_replay_matches() {
        let seq = [0.2, 0.21, 0.19, 0.2, 0.5, 0.52, 0.51, 0.5];
        let run = |xs: &[f64]| {
            let mut d = DriftDetector::new(2, 0.1);
            xs.iter().map(|&l| d.observe(l)).collect::<Vec<_>>()
        };
        assert_eq!(run(&seq), run(&seq));
    }

    #[test]
    fn non_finite_losses_are_clamped() {
        let mut d = DriftDetector::new(1, 0.5);
        d.observe(f64::NAN);
        d.observe(f64::INFINITY);
        assert_eq!(d.len(), 2);
        assert!(d.observe(0.1).is_none(), "clamped values keep means finite");
    }
}
