//! Hyperband — the bandit-based fidelity scheduler of Li et al. (2017).
//!
//! Fidelity is expressed as a fraction `r` of the full budget (for the
//! BOHB AutoML baseline, the fraction of the training sample used).
//! Brackets run from the most exploratory (`s = s_max`, many configs at
//! fidelity `eta^-s`) to the most conservative (`s = 0`, few configs at
//! full fidelity), promoting the top `1/eta` of each rung, and cycle
//! indefinitely — exactly the allocation HpBandSter pairs with its TPE
//! model in the paper's comparison.

use std::collections::VecDeque;

/// Where the configuration of a [`Job`] comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSource {
    /// The caller must supply a fresh configuration (from TPE, random…).
    Fresh,
    /// A configuration promoted from the previous rung, to be re-evaluated
    /// at the job's (higher) fidelity.
    Promoted(Vec<f64>),
}

/// One unit of work issued by the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Monotonically increasing job identifier.
    pub id: u64,
    /// Configuration source.
    pub source: JobSource,
    /// Fidelity fraction in `(0, 1]`.
    pub fidelity: f64,
    /// Bracket index `s` this job belongs to (for diagnostics).
    pub bracket: usize,
    /// Rung index within the bracket.
    pub rung: usize,
}

struct Rung {
    fidelity: f64,
    queue: VecDeque<JobSource>,
    results: Vec<(Vec<f64>, f64)>,
    size: usize,
}

/// Synchronous Hyperband scheduler with a `next_job` / `report` interface.
///
/// The caller must report each job before requesting the next one (the
/// paper's setting is sequential: one trial at a time on one core).
pub struct Hyperband {
    eta: usize,
    s_max: usize,
    current_s: usize,
    rung_idx: usize,
    rung: Rung,
    next_id: u64,
    outstanding: Option<u64>,
}

impl std::fmt::Debug for Hyperband {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hyperband")
            .field("eta", &self.eta)
            .field("s_max", &self.s_max)
            .field("bracket", &self.current_s)
            .field("rung", &self.rung_idx)
            .finish()
    }
}

impl Hyperband {
    /// Creates a scheduler.
    ///
    /// `r_min` is the smallest fidelity fraction (e.g. `initial sample /
    /// full sample`); `eta` is the halving rate (3 in BOHB).
    ///
    /// # Panics
    ///
    /// Panics if `eta < 2` or `r_min` is not in `(0, 1]`.
    pub fn new(eta: usize, r_min: f64) -> Hyperband {
        assert!(eta >= 2, "eta must be at least 2");
        assert!(r_min > 0.0 && r_min <= 1.0, "r_min must be in (0, 1]");
        let s_max = if r_min >= 1.0 {
            0
        } else {
            ((1.0 / r_min).ln() / (eta as f64).ln()).floor() as usize
        };
        let mut hb = Hyperband {
            eta,
            s_max,
            current_s: s_max,
            rung_idx: 0,
            rung: Rung {
                fidelity: 1.0,
                queue: VecDeque::new(),
                results: Vec::new(),
                size: 0,
            },
            next_id: 0,
            outstanding: None,
        };
        hb.start_bracket(s_max);
        hb
    }

    /// Maximum bracket index (`s_max`).
    pub fn s_max(&self) -> usize {
        self.s_max
    }

    fn bracket_width(&self, s: usize) -> usize {
        // n = ceil((s_max + 1) / (s + 1)) * eta^s
        let base = (self.s_max + 1).div_ceil(s + 1);
        base * self.eta.pow(s as u32)
    }

    fn start_bracket(&mut self, s: usize) {
        let n = self.bracket_width(s);
        let fidelity = (self.eta as f64).powi(-(s as i32));
        self.current_s = s;
        self.rung_idx = 0;
        self.rung = Rung {
            fidelity,
            queue: (0..n).map(|_| JobSource::Fresh).collect(),
            results: Vec::new(),
            size: n,
        };
    }

    fn advance(&mut self) {
        // Current rung fully reported: promote or start the next bracket.
        let s = self.current_s;
        if self.rung_idx >= s {
            // Last rung of the bracket → next bracket (cycle).
            let next_s = if s == 0 { self.s_max } else { s - 1 };
            self.start_bracket(next_s);
            return;
        }
        let keep = (self.rung.size / self.eta).max(1);
        let mut results = std::mem::take(&mut self.rung.results);
        results.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        results.truncate(keep);
        let fidelity = (self.rung.fidelity * self.eta as f64).min(1.0);
        self.rung_idx += 1;
        self.rung = Rung {
            fidelity,
            queue: results
                .into_iter()
                .map(|(cfg, _)| JobSource::Promoted(cfg))
                .collect(),
            results: Vec::new(),
            size: keep,
        };
    }

    /// Issues the next job.
    ///
    /// # Panics
    ///
    /// Panics if the previous job has not been reported.
    pub fn next_job(&mut self) -> Job {
        assert!(
            self.outstanding.is_none(),
            "previous job not reported before next_job()"
        );
        while self.rung.queue.is_empty() {
            self.advance();
        }
        let source = self.rung.queue.pop_front().expect("non-empty queue");
        let id = self.next_id;
        self.next_id += 1;
        self.outstanding = Some(id);
        Job {
            id,
            source,
            fidelity: self.rung.fidelity,
            bracket: self.current_s,
            rung: self.rung_idx,
        }
    }

    /// Reports the outcome of `job`: the configuration that was evaluated
    /// (echoed back for `Fresh` jobs) and its error.
    ///
    /// # Panics
    ///
    /// Panics if `job` is not the outstanding job.
    pub fn report(&mut self, job: &Job, config: Vec<f64>, err: f64) {
        assert_eq!(
            self.outstanding.take(),
            Some(job.id),
            "reporting a job that is not outstanding"
        );
        self.rung.results.push((config, err));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s_max_matches_formula() {
        let hb = Hyperband::new(3, 1.0 / 27.0);
        assert_eq!(hb.s_max(), 3);
        let hb = Hyperband::new(3, 0.05); // 1/0.05 = 20 => log3(20) = 2.7 => 2
        assert_eq!(hb.s_max(), 2);
        let hb = Hyperband::new(2, 1.0);
        assert_eq!(hb.s_max(), 0);
    }

    #[test]
    fn first_bracket_is_most_exploratory() {
        let mut hb = Hyperband::new(3, 1.0 / 9.0);
        assert_eq!(hb.s_max(), 2);
        let job = hb.next_job();
        assert_eq!(job.bracket, 2);
        assert_eq!(job.rung, 0);
        assert!((job.fidelity - 1.0 / 9.0).abs() < 1e-12);
        assert_eq!(job.source, JobSource::Fresh);
        hb.report(&job, vec![0.5], 1.0);
    }

    #[test]
    fn promotes_the_best_third() {
        let mut hb = Hyperband::new(3, 1.0 / 3.0);
        // s_max = 1: bracket 1 has n = ceil(2/2)*3 = 3 configs at 1/3.
        let mut first_rung = Vec::new();
        for i in 0..3 {
            let job = hb.next_job();
            assert_eq!(job.rung, 0);
            let cfg = vec![i as f64 / 10.0];
            // Report errors so config index 1 is the best.
            hb.report(&job, cfg.clone(), [5.0, 0.0, 9.0][i]);
            first_rung.push(cfg);
        }
        // Next rung: 1 promoted config (the best) at full fidelity.
        let job = hb.next_job();
        assert_eq!(job.rung, 1);
        assert!((job.fidelity - 1.0).abs() < 1e-12);
        assert_eq!(job.source, JobSource::Promoted(first_rung[1].clone()));
        hb.report(&job, first_rung[1].clone(), 0.0);
        // Bracket 1 done → bracket 0: fresh configs at full fidelity.
        let job = hb.next_job();
        assert_eq!(job.bracket, 0);
        assert_eq!(job.source, JobSource::Fresh);
        assert!((job.fidelity - 1.0).abs() < 1e-12);
        hb.report(&job, vec![0.0], 0.0);
    }

    #[test]
    fn brackets_cycle_forever() {
        let mut hb = Hyperband::new(2, 0.5);
        // s_max = 1. Run enough jobs to wrap through brackets 1, 0, 1 …
        let mut seen_brackets = Vec::new();
        for i in 0..40 {
            let job = hb.next_job();
            seen_brackets.push(job.bracket);
            hb.report(&job, vec![i as f64], i as f64);
        }
        assert!(seen_brackets.contains(&0));
        assert!(seen_brackets.contains(&1));
        // After a 0-bracket the scheduler must return to s_max.
        let mut wrapped = false;
        for w in seen_brackets.windows(2) {
            if w[0] == 0 && w[1] == 1 {
                wrapped = true;
            }
        }
        assert!(wrapped, "brackets must cycle: {seen_brackets:?}");
    }

    #[test]
    #[should_panic(expected = "not reported")]
    fn double_next_job_panics() {
        let mut hb = Hyperband::new(3, 0.5);
        let _ = hb.next_job();
        let _ = hb.next_job();
    }

    #[test]
    fn fidelity_never_exceeds_one() {
        let mut hb = Hyperband::new(3, 0.4);
        for i in 0..50 {
            let job = hb.next_job();
            assert!(job.fidelity <= 1.0 + 1e-12);
            assert!(job.fidelity > 0.0);
            hb.report(&job, vec![i as f64], (i % 7) as f64);
        }
    }
}
