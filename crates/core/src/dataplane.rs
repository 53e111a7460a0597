//! The zero-copy data plane: a trial-wide cache of prepared data.
//!
//! Every trial at sample size `s` under a fixed resampling strategy uses
//! the *same* derived data: the prefix sample, its train/validation
//! folds, and — for binned learners — the per-fold sorted-unique feature
//! values and pre-binned two-byte matrices. The seed controller re-derived
//! all of it per trial by materializing `O(rows × features)` copies; the
//! [`DataPlane`] derives each artifact once as `Arc`-backed
//! [`DatasetView`]s / [`PreparedBins`] and hands trials cheap clones.
//!
//! Caching is **observationally pure**: a cached artifact is bit-for-bit
//! the artifact a fresh computation produces (views iterate rows in
//! selection order; [`flaml_learners::BinMapper::from_sorted`] equals a
//! direct fit), so the search trace is byte-identical whether the plane
//! is enabled, disabled (which reproduces the seed's per-trial copy
//! path), or evicting under memory pressure. Only the hit/miss/eviction
//! counters and wall time observe the cache.
//!
//! The plane is owned and mutated by the controller's main thread at
//! proposal time — worker jobs only read the `Arc`s captured in their
//! [`TrialData`] — so no locking is needed and the preparation order is
//! deterministic at any worker count.

use crate::resample::ResampleStrategy;
use flaml_data::{stratified_kfold, train_test_split, DatasetView};
use flaml_learners::{PreparedBins, PreparedSort};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// One resampling fold, prepared for zero-copy consumption by a trial.
#[derive(Debug, Clone)]
pub struct FoldData {
    /// Training rows, as a view into the root storage.
    pub train: DatasetView,
    /// Validation rows, as a view into the root storage.
    pub valid: DatasetView,
    /// The validation targets, gathered once per sample size.
    pub valid_target: Arc<[f64]>,
    /// The pre-binned training matrix for the trial's `max_bin`, when
    /// the learner bins its features; `None` for unbinned learners.
    pub bins: Option<Arc<PreparedBins>>,
}

/// Everything one trial needs from the data plane: the sample view plus
/// its prepared folds (holdout = one fold; an empty fold list records a
/// deterministic split failure, which the trial reports as aborted).
#[derive(Debug, Clone)]
pub struct TrialData {
    /// The first-`s`-rows sample the trial evaluates on.
    pub sample: DatasetView,
    /// The prepared folds, in fold order.
    pub folds: Vec<FoldData>,
}

/// Per-trial data-preparation statistics, and (summed) run totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrepStats {
    /// Prepared artifacts served from the cache.
    pub prepared_hits: usize,
    /// Prepared artifacts computed fresh.
    pub prepared_misses: usize,
    /// Cached artifacts evicted under the byte budget while preparing
    /// this trial's data.
    pub prepared_evictions: usize,
    /// Bytes the copy-based seed path would have allocated to hand this
    /// trial its sample and fold datasets (a pure function of the trial,
    /// identical whether the cache hit or missed). Zero when the plane
    /// is disabled — the copies then actually happen.
    pub bytes_copied_saved: usize,
}

/// The fold views shared by every trial at one sample size.
#[derive(Debug)]
struct SampleFolds {
    sample: DatasetView,
    folds: Vec<CachedFold>,
}

#[derive(Debug, Clone)]
struct CachedFold {
    train: DatasetView,
    valid: DatasetView,
    valid_target: Arc<[f64]>,
}

/// Cache-entry identity for the insertion-order eviction queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheKey {
    Folds(usize),
    Sort(usize, usize),
    Bins(usize, usize, usize),
}

/// The prepared-data cache, keyed by `(sample_size, fold, max_bin)`.
///
/// Eviction is deterministic LRU-by-insertion under a byte budget:
/// entries leave in exactly the order they were created, and creation
/// order is the (deterministic) trial proposal order — so two runs of
/// the same search evict identically, and an evicted artifact is simply
/// recomputed (bit-identically) on next use.
#[derive(Debug)]
pub struct DataPlane {
    root: DatasetView,
    strategy: ResampleStrategy,
    enabled: bool,
    budget_bytes: usize,
    folds: BTreeMap<usize, Arc<SampleFolds>>,
    sorts: BTreeMap<(usize, usize), Arc<PreparedSort>>,
    bins: BTreeMap<(usize, usize, usize), Arc<PreparedBins>>,
    order: VecDeque<(CacheKey, usize)>,
    held_bytes: usize,
    totals: PrepStats,
}

impl DataPlane {
    /// A data plane over the (pre-shuffled) root view. `enabled = false`
    /// disables the plane entirely and reproduces the seed's copy-based
    /// data flow: every trial materializes its sample and fold datasets
    /// as owned copies and prepares no bins, so each fit re-derives its
    /// binning internally. The trial results are bit-identical either
    /// way; only time and allocations differ.
    pub fn new(
        root: DatasetView,
        strategy: ResampleStrategy,
        enabled: bool,
        budget_bytes: usize,
    ) -> DataPlane {
        DataPlane {
            root,
            strategy,
            enabled,
            budget_bytes,
            folds: BTreeMap::new(),
            sorts: BTreeMap::new(),
            bins: BTreeMap::new(),
            order: VecDeque::new(),
            held_bytes: 0,
            totals: PrepStats::default(),
        }
    }

    /// Prepares (or fetches) everything a trial at `sample_size` needs.
    /// `max_bin` is the trial's binning resolution
    /// ([`crate::Estimator::max_bin`]); `None` skips bin preparation.
    pub fn prepare(
        &mut self,
        sample_size: usize,
        max_bin: Option<usize>,
    ) -> (TrialData, PrepStats) {
        if !self.enabled {
            return self.prepare_copied(sample_size);
        }
        let mut stats = PrepStats::default();
        let views = self.sample_folds(sample_size, &mut stats);

        // What the copy path allocated per trial: the materialized prefix
        // sample plus a materialized train and validation dataset per fold.
        stats.bytes_copied_saved += views.sample.materialized_bytes();
        for f in &views.folds {
            stats.bytes_copied_saved += f.train.materialized_bytes() + f.valid.materialized_bytes();
        }

        let folds = views
            .folds
            .iter()
            .enumerate()
            .map(|(fi, f)| FoldData {
                train: f.train.clone(),
                valid: f.valid.clone(),
                valid_target: f.valid_target.clone(),
                bins: max_bin.map(|mb| self.fold_bins(&views, sample_size, fi, mb, &mut stats)),
            })
            .collect();
        let trial = TrialData {
            sample: views.sample.clone(),
            folds,
        };
        self.totals.prepared_hits += stats.prepared_hits;
        self.totals.prepared_misses += stats.prepared_misses;
        self.totals.prepared_evictions += stats.prepared_evictions;
        self.totals.bytes_copied_saved += stats.bytes_copied_saved;
        (trial, stats)
    }

    /// The seed's per-trial copy path, taken when the plane is disabled:
    /// the prefix sample and each fold's train/validation rows become
    /// owned [`flaml_data::Dataset`] copies (root views over fresh
    /// storage) and no bins are prepared, so every fit re-sorts and
    /// re-quantizes its columns. Nothing is cached and nothing is saved —
    /// only the fold derivation counts as a (fresh) prepared artifact.
    fn prepare_copied(&mut self, s: usize) -> (TrialData, PrepStats) {
        let stats = PrepStats {
            prepared_misses: 1,
            ..PrepStats::default()
        };
        let views = compute_folds(&self.root, self.strategy, s);
        let folds = views
            .folds
            .iter()
            .map(|f| FoldData {
                train: f.train.materialize().view(),
                valid: f.valid.materialize().view(),
                valid_target: f.valid_target.clone(),
                bins: None,
            })
            .collect();
        let trial = TrialData {
            sample: views.sample.materialize().view(),
            folds,
        };
        self.totals.prepared_misses += stats.prepared_misses;
        (trial, stats)
    }

    /// Run totals across every `prepare` call so far.
    pub fn totals(&self) -> PrepStats {
        self.totals
    }

    /// Bytes currently held by cached artifacts.
    pub fn held_bytes(&self) -> usize {
        self.held_bytes
    }

    fn sample_folds(&mut self, s: usize, stats: &mut PrepStats) -> Arc<SampleFolds> {
        if let Some(v) = self.folds.get(&s) {
            stats.prepared_hits += 1;
            return v.clone();
        }
        stats.prepared_misses += 1;
        let v = Arc::new(compute_folds(&self.root, self.strategy, s));
        let bytes: usize = v
            .folds
            .iter()
            .map(|f| {
                f.train.selection_bytes()
                    + f.valid.selection_bytes()
                    + f.valid_target.len() * std::mem::size_of::<f64>()
            })
            .sum();
        self.folds.insert(s, v.clone());
        stats.prepared_evictions += self.remember(CacheKey::Folds(s), bytes);
        v
    }

    fn fold_sort(
        &mut self,
        views: &SampleFolds,
        s: usize,
        fi: usize,
        stats: &mut PrepStats,
    ) -> Arc<PreparedSort> {
        if let Some(x) = self.sorts.get(&(s, fi)) {
            stats.prepared_hits += 1;
            return x.clone();
        }
        stats.prepared_misses += 1;
        let sort = Arc::new(PreparedSort::compute(&views.folds[fi].train));
        let bytes = sort.heap_bytes();
        self.sorts.insert((s, fi), sort.clone());
        stats.prepared_evictions += self.remember(CacheKey::Sort(s, fi), bytes);
        sort
    }

    fn fold_bins(
        &mut self,
        views: &SampleFolds,
        s: usize,
        fi: usize,
        mb: usize,
        stats: &mut PrepStats,
    ) -> Arc<PreparedBins> {
        if let Some(b) = self.bins.get(&(s, fi, mb)) {
            stats.prepared_hits += 1;
            return b.clone();
        }
        stats.prepared_misses += 1;
        let sort = self.fold_sort(views, s, fi, stats);
        let prepared = Arc::new(PreparedBins::prepare(&sort, &views.folds[fi].train, mb));
        let bytes = prepared.heap_bytes();
        self.bins.insert((s, fi, mb), prepared.clone());
        stats.prepared_evictions += self.remember(CacheKey::Bins(s, fi, mb), bytes);
        prepared
    }

    /// Records a fresh entry and evicts from the front of the insertion
    /// queue while over budget (never the entry just inserted, so a trial
    /// always finds its own artifacts). Returns how many entries were
    /// evicted, for the trial's `prepared_evictions` accounting.
    fn remember(&mut self, key: CacheKey, bytes: usize) -> usize {
        self.held_bytes += bytes;
        self.order.push_back((key, bytes));
        let mut evicted = 0;
        while self.held_bytes > self.budget_bytes && self.order.len() > 1 {
            let (victim, freed) = self.order.pop_front().expect("len checked");
            self.held_bytes -= freed;
            evicted += 1;
            match victim {
                CacheKey::Folds(s) => {
                    self.folds.remove(&s);
                }
                CacheKey::Sort(s, fi) => {
                    self.sorts.remove(&(s, fi));
                }
                CacheKey::Bins(s, fi, mb) => {
                    self.bins.remove(&(s, fi, mb));
                }
            }
        }
        evicted
    }
}

/// Derives the fold views for the first `s` rows of `root` — exactly the
/// rows and order the copy path's `prefix` + `select` produced. An empty
/// fold list records a deterministic split failure.
fn compute_folds(root: &DatasetView, strategy: ResampleStrategy, s: usize) -> SampleFolds {
    let sample = root.prefix(s);
    let folds_idx = match strategy {
        ResampleStrategy::Holdout { ratio } => {
            train_test_split(sample.n_rows(), ratio).map(|f| vec![f])
        }
        ResampleStrategy::Cv { folds } => stratified_kfold(&sample, folds),
    };
    let folds = match folds_idx {
        Ok(idx) => idx
            .iter()
            .map(|f| {
                let train = sample.select(&f.train);
                let valid = sample.select(&f.valid);
                let valid_target: Arc<[f64]> = valid.gather_target().into();
                CachedFold {
                    train,
                    valid,
                    valid_target,
                }
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    SampleFolds { sample, folds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flaml_data::{Dataset, Task};

    fn data(n: usize) -> Dataset {
        let x0: Vec<f64> = (0..n).map(|i| ((i * 7) % 23) as f64).collect();
        let x1: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        Dataset::new("dp", Task::Binary, vec![x0, x1], y).unwrap()
    }

    #[test]
    fn cached_trial_data_equals_fresh() {
        let d = data(200).shuffled(3);
        let strategy = ResampleStrategy::Cv { folds: 5 };
        let mut plane = DataPlane::new(d.view(), strategy, true, usize::MAX);
        let mut cold = DataPlane::new(d.view(), strategy, false, 0);
        let (a, sa) = plane.prepare(100, Some(255));
        let (b, sb) = plane.prepare(100, Some(255));
        let (c, sc) = cold.prepare(100, Some(255));
        assert_eq!(sa.prepared_hits, 0);
        assert!(sb.prepared_hits > 0 && sb.prepared_misses == 0);
        assert_eq!(sa.bytes_copied_saved, sb.bytes_copied_saved);
        assert!(sa.bytes_copied_saved > 0);
        for (x, y) in a.folds.iter().zip(&b.folds) {
            assert_eq!(
                x.train.materialize().fingerprint(),
                y.train.materialize().fingerprint()
            );
            assert_eq!(x.valid_target, y.valid_target);
            let (xb, yb) = (x.bins.as_ref().unwrap(), y.bins.as_ref().unwrap());
            assert_eq!(xb.max_bin(), yb.max_bin());
            for j in 0..2 {
                assert_eq!(xb.binned().column(j), yb.binned().column(j));
            }
        }
        // The disabled plane reproduces the seed's copy path: same rows,
        // owned storage, no prepared bins, nothing saved.
        assert_eq!(
            sc,
            PrepStats {
                prepared_misses: 1,
                ..PrepStats::default()
            }
        );
        assert!(!c.sample.same_root(&d.view()));
        for (x, y) in a.folds.iter().zip(&c.folds) {
            assert_eq!(
                x.train.materialize().fingerprint(),
                y.train.materialize().fingerprint()
            );
            assert_eq!(x.valid_target, y.valid_target);
            assert!(y.bins.is_none());
            assert!(!y.train.same_root(&d.view()));
        }
    }

    #[test]
    fn views_share_root_storage() {
        let d = data(100).shuffled(0);
        let mut plane = DataPlane::new(
            d.view(),
            ResampleStrategy::Holdout { ratio: 0.1 },
            true,
            usize::MAX,
        );
        let (t, stats) = plane.prepare(50, None);
        assert!(t.sample.same_root(&d.view()));
        assert_eq!(t.folds.len(), 1);
        assert!(t.folds[0].train.same_root(&d.view()));
        assert!(t.folds[0].bins.is_none());
        // 50 rows x (2 features + target) x 8 bytes for the sample, plus
        // the train/valid materializations the copy path made.
        assert_eq!(
            stats.bytes_copied_saved,
            (50 + 45 + 5) * 3 * std::mem::size_of::<f64>()
        );
    }

    #[test]
    fn byte_budget_evicts_in_insertion_order() {
        let d = data(300).shuffled(1);
        let strategy = ResampleStrategy::Cv { folds: 5 };
        // A budget too small for two sample sizes: preparing the second
        // evicts the first, so revisiting the first misses again.
        let mut plane = DataPlane::new(d.view(), strategy, true, 4_000);
        plane.prepare(100, Some(255));
        let (_, s2) = plane.prepare(200, Some(255));
        assert!(plane.held_bytes() <= 4_000 + 2_000, "budget roughly held");
        assert!(
            s2.prepared_evictions > 0,
            "the second sample size must push the first out"
        );
        let (_, s3) = plane.prepare(100, Some(255));
        assert!(
            s3.prepared_misses > 0,
            "evicted sample size is recomputed, not served"
        );
        assert!(
            plane.totals().prepared_evictions >= s2.prepared_evictions,
            "run totals accumulate evictions"
        );
    }

    #[test]
    fn split_failure_yields_empty_folds() {
        let d = data(4);
        let mut plane = DataPlane::new(
            d.view(),
            ResampleStrategy::Cv { folds: 5 },
            true,
            usize::MAX,
        );
        let (t, _) = plane.prepare(3, None);
        assert!(t.folds.is_empty(), "3 rows cannot make 5 folds");
    }
}
