//! Drifting-stream generator for online AutoML.
//!
//! ChaCha-style online AutoML (Wu et al., ICML 2021) is evaluated on
//! piecewise-stationary streams: the concept is fixed within a segment
//! and shifts abruptly at segment boundaries. [`DriftStream`] produces
//! such a stream as a *pure function of (seed, chunk index)*: chunk `i`
//! is bit-identical no matter in which order, in which process, or how
//! many times it is generated. That property is what lets the online
//! determinism suite kill a stream mid-flight and regenerate the exact
//! same chunks on resume.
//!
//! Each segment `s = i / segment_chunks` draws a fresh hyperplane
//! normal `w_s` (and intercept) from a seed derived only from
//! `(seed, s)`; rows of chunk `i` are drawn from a seed derived only
//! from `(seed, i)`. Labels are `sign(x . w_s + b_s + noise)`, so the
//! decision boundary rotates at every segment boundary and a champion
//! fitted on one segment degrades measurably on the next.
//!
//! # Example
//!
//! ```
//! use flaml_synth::DriftStream;
//!
//! let stream = DriftStream::new(7);
//! let a = stream.chunk(3);
//! let b = stream.chunk(3);
//! assert_eq!(a.fingerprint(), b.fingerprint());
//! ```

use flaml_data::{Dataset, Task};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// A deterministic piecewise-stationary binary-classification stream.
///
/// The stream is an infinite sequence of chunks; [`DriftStream::chunk`]
/// materializes any chunk independently. Concept shifts happen exactly
/// at chunk indices that are multiples of `segment_chunks`.
#[derive(Debug, Clone, Copy)]
pub struct DriftStream {
    /// Master seed; everything else is derived from it.
    pub seed: u64,
    /// Rows per chunk.
    pub rows: usize,
    /// Numeric features per row.
    pub features: usize,
    /// Chunks per stationary segment (the concept shifts every
    /// `segment_chunks` chunks). Must be >= 1.
    pub segment_chunks: usize,
    /// Std-dev of the additive noise on the decision margin; larger
    /// means noisier labels (`~0.1` easy, `~0.5` hard).
    pub margin_noise: f64,
}

impl DriftStream {
    /// A stream with library defaults: 120-row chunks, 6 features,
    /// a concept shift every 8 chunks, moderate label noise.
    pub fn new(seed: u64) -> DriftStream {
        DriftStream {
            seed,
            rows: 120,
            features: 6,
            segment_chunks: 8,
            margin_noise: 0.2,
        }
    }

    /// The segment (concept) index that chunk `index` belongs to.
    fn segment_of(&self, index: usize) -> usize {
        index / self.segment_chunks.max(1)
    }

    /// The hyperplane normal and intercept of segment `segment`,
    /// derived purely from `(seed, segment)`. Consecutive segments are
    /// guaranteed to disagree: the draw is rejected (re-salted) until
    /// its cosine similarity with the previous segment's normal drops
    /// below 0.2, so every boundary is a real concept shift.
    pub fn concept(&self, segment: usize) -> (Vec<f64>, f64) {
        let mut w = self.draw_concept(segment, 0);
        if segment > 0 {
            let (prev, _) = self.concept(segment - 1);
            let mut salt = 1u64;
            while cosine(&w.0, &prev) > 0.2 {
                w = self.draw_concept(segment, salt);
                salt += 1;
            }
        }
        w
    }

    fn draw_concept(&self, segment: usize, salt: u64) -> (Vec<f64>, f64) {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, segment_tag(segment), salt));
        let unit = Normal::new(0.0, 1.0).expect("valid");
        let v: Vec<f64> = (0..self.features).map(|_| unit.sample(&mut rng)).collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
        let w: Vec<f64> = v.into_iter().map(|x| x / norm).collect();
        let b = rng.gen::<f64>() * 0.2 - 0.1;
        (w, b)
    }

    /// Materializes chunk `index` of the stream. Pure in
    /// `(self, index)`: repeated calls return bit-identical datasets
    /// (equal [`Dataset::fingerprint`]).
    pub fn chunk(&self, index: usize) -> Dataset {
        assert!(self.rows >= 2 && self.features >= 1);
        let (w, b) = self.concept(self.segment_of(index));
        let mut rng = StdRng::seed_from_u64(mix(self.seed, 0x6368_756e_6b00_0000, index as u64));
        let noise = Normal::new(0.0, self.margin_noise.max(1e-9)).expect("valid");
        let mut columns = vec![Vec::with_capacity(self.rows); self.features];
        let mut y = Vec::with_capacity(self.rows);
        for _ in 0..self.rows {
            let mut margin = b;
            for (j, col) in columns.iter_mut().enumerate() {
                let x = rng.gen::<f64>() * 2.0 - 1.0;
                margin += x * w[j];
                col.push(x);
            }
            margin += noise.sample(&mut rng);
            y.push(if margin > 0.0 { 1.0 } else { 0.0 });
        }
        // Tiny chunks can come out single-class under heavy noise; force
        // at least one row of each class so chunk-level metrics (and
        // stratified resampling downstream) stay well defined. The fix
        // is itself deterministic: flip the first row's label.
        if y.iter().all(|&v| v == y[0]) {
            y[0] = 1.0 - y[0];
        }
        let name = format!("drift-s{}-c{}", self.segment_of(index), index);
        Dataset::new(&name, Task::Binary, columns, y).expect("generator output is consistent")
    }
}

/// SplitMix64-style mixing of three words into one RNG seed.
fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .wrapping_add(c);
    z ^= z >> 30;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn segment_tag(segment: usize) -> u64 {
    0x7365_676d_656e_7400u64 ^ (segment as u64)
}

fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
    dot / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_pure_in_seed_and_index() {
        let s1 = DriftStream::new(11);
        let s2 = DriftStream::new(11);
        for i in [0, 3, 8, 17] {
            assert_eq!(s1.chunk(i).fingerprint(), s2.chunk(i).fingerprint());
        }
        // Order independence: generating 17 first changes nothing.
        let early = s1.chunk(2).fingerprint();
        let _ = s1.chunk(17);
        assert_eq!(s1.chunk(2).fingerprint(), early);
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            DriftStream::new(1).chunk(0).fingerprint(),
            DriftStream::new(2).chunk(0).fingerprint()
        );
    }

    #[test]
    fn segments_shift_the_concept() {
        let s = DriftStream::new(5);
        let (w0, _) = s.concept(0);
        let (w1, _) = s.concept(1);
        assert!(cosine(&w0, &w1) < 0.2, "boundary must be a real shift");
        // Within a segment the concept is constant.
        assert_eq!(s.segment_of(0), s.segment_of(7));
        assert_ne!(s.segment_of(7), s.segment_of(8));
    }

    #[test]
    fn chunks_are_two_class_and_well_formed() {
        let s = DriftStream {
            rows: 24,
            ..DriftStream::new(9)
        };
        for i in 0..12 {
            let d = s.chunk(i);
            assert_eq!(d.n_rows(), 24);
            assert_eq!(d.n_features(), 6);
            assert_eq!(d.task(), Task::Binary);
            assert_eq!(d.distinct_labels(), Some(2));
        }
    }
}
