//! Histogram binning shared by the gradient-boosting learners.
//!
//! Feature values are discretized into at most `max_bin` bins using
//! quantile cut points, the construction used by LightGBM (whose `max_bin`
//! is itself a searched hyperparameter in the paper's Table 5). Bin `0` is
//! reserved for missing values (`NaN`); a split at threshold `t` sends bins
//! `<= t` left, so missing values always travel with the leftmost bin.

use flaml_data::DatasetView;

/// The stored bin index type. Two bytes per cell instead of four halves
/// the binned matrix (the largest per-view artifact the data plane
/// caches) and the cache lines a histogram pass touches.
pub(crate) type Bin = u16;

/// The largest `max_bin` whose bin indices (`0..=max_bin`, bin 0 being
/// the missing-value bin) all fit [`Bin`].
pub(crate) const MAX_BIN: usize = Bin::MAX as usize;

/// The per-feature sorted-unique non-NaN values of one data view: the
/// expensive part of quantile binning, computed once and shared.
///
/// [`BinMapper`]'s cut points are a pure function of this sorted-unique
/// set (the seed path sorts then dedups before deriving cuts), so a
/// mapper built via [`BinMapper::from_sorted`] for any `max_bin` is
/// bit-identical to one built directly from the raw columns — the sort
/// is paid once per view instead of once per trial.
#[derive(Debug, Clone)]
pub struct PreparedSort {
    /// `columns[j]` holds feature `j`'s distinct non-NaN values, sorted.
    columns: Vec<Vec<f64>>,
}

impl PreparedSort {
    /// Sorts and dedups every feature column of `data`.
    pub fn compute(data: impl Into<DatasetView>) -> PreparedSort {
        let data: DatasetView = data.into();
        let columns = (0..data.n_features())
            .map(|j| sorted_uniques(data.column_values(j)))
            .collect();
        PreparedSort { columns }
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.columns.len()
    }

    /// Approximate heap footprint in bytes (for cache budgeting).
    pub fn heap_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|c| c.len() * std::mem::size_of::<f64>())
            .sum()
    }
}

pub(crate) fn sorted_uniques(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut values: Vec<f64> = values.filter(|v| !v.is_nan()).collect();
    // Stable on purpose: `-0.0 == 0.0`, so `dedup` keeps whichever zero
    // came first in the input, and only a stable sort preserves that
    // order. `sort_unstable_by` would make the survivor's sign depend
    // on the sort's internals (input `[0.0, -0.0]` is a counter-example
    // to "provably the same"), so it is not used.
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after filter"));
    values.dedup();
    values
}

/// Values binned together by [`bin_lanes`] during a column transform.
const LANES: usize = 8;

/// The bins of `N` values under one feature's `cuts`: 0 for `NaN`,
/// otherwise `1 + #cuts below v` — the same answer as
/// `1 + cuts.partition_point(|&c| c < v)`. The lower bound takes a
/// fixed number of steps per cut list and a conditional move per step,
/// and the `N` searches share those steps, so their dependent loads
/// overlap instead of queueing behind one another.
///
/// Every constructor of [`BinMapper`] keeps `cuts.len() < MAX_BIN`, so
/// the index fits [`Bin`] and the cast cannot wrap.
fn bin_lanes<const N: usize>(cuts: &[f64], values: [f64; N]) -> [Bin; N] {
    let mut base = [0usize; N];
    let mut size = cuts.len();
    while size > 1 {
        let half = size / 2;
        for (b, &v) in base.iter_mut().zip(&values) {
            let mid = *b + half;
            *b = std::hint::select_unpredictable(cuts[mid] < v, mid, *b);
        }
        size -= half;
    }
    std::array::from_fn(|k| {
        let v = values[k];
        // `NaN` compares false with every cut, so `below` is 0 for it.
        let below = base[k] + usize::from(size == 1 && cuts[base[k]] < v);
        (usize::from(!v.is_nan()) + below) as Bin
    })
}

/// Per-feature quantile cut points mapping raw values to bin indices.
#[derive(Debug, Clone)]
pub struct BinMapper {
    /// `cuts[j]` holds the sorted cut points of feature `j`.
    cuts: Vec<Vec<f64>>,
}

impl BinMapper {
    /// Builds a mapper with at most `max_bin` value bins per feature
    /// (missing-value bin excluded). Accepts anything convertible into a
    /// [`DatasetView`] (`&Dataset`, `&DatasetView`, ...).
    ///
    /// `max_bin` is clamped to `2..=65535`: fewer than two value bins
    /// cannot express a split, and bin indices are stored in two bytes.
    /// ([`crate::Gbdt::fit`] rejects a `max_bin` above that range as a
    /// typed error before it gets here.)
    pub fn fit(data: impl Into<DatasetView>, max_bin: usize) -> BinMapper {
        let data: DatasetView = data.into();
        let max_bin = max_bin.clamp(2, MAX_BIN);
        let cuts = (0..data.n_features())
            .map(|j| Self::cuts_from_sorted(&sorted_uniques(data.column_values(j)), max_bin))
            .collect();
        BinMapper { cuts }
    }

    /// Builds a mapper from a precomputed [`PreparedSort`], skipping the
    /// per-trial sort. Produces exactly the cuts [`BinMapper::fit`] would
    /// for the same view and `max_bin`.
    ///
    /// `max_bin` is clamped to `2..=65535`, as in [`BinMapper::fit`].
    pub fn from_sorted(sort: &PreparedSort, max_bin: usize) -> BinMapper {
        let max_bin = max_bin.clamp(2, MAX_BIN);
        let cuts = sort
            .columns
            .iter()
            .map(|values| Self::cuts_from_sorted(values, max_bin))
            .collect();
        BinMapper { cuts }
    }

    /// Derives quantile cuts from a column's sorted-unique value set.
    fn cuts_from_sorted(values: &[f64], max_bin: usize) -> Vec<f64> {
        if values.is_empty() {
            return Vec::new();
        }
        if values.len() <= max_bin {
            // One bin per distinct value: cuts at midpoints.
            return values.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
        }
        // Quantile cuts: max_bin bins need max_bin - 1 interior cuts.
        let mut cuts = Vec::with_capacity(max_bin - 1);
        for q in 1..max_bin {
            let pos = q * values.len() / max_bin;
            let pos = pos.min(values.len() - 1).max(1);
            let cut = (values[pos - 1] + values[pos]) / 2.0;
            if cuts.last().is_none_or(|&last| cut > last) {
                cuts.push(cut);
            }
        }
        cuts
    }

    /// Rebuilds a mapper from stored cut points — e.g. the cuts embedded
    /// in a compiled serving artifact. A mapper built from the cuts of an
    /// existing mapper bins every value identically to the original.
    ///
    /// # Panics
    ///
    /// Panics if a feature has more than 65534 cuts: its bin indices
    /// would not fit the two-byte bin type, and no mapper this crate
    /// fits has that many.
    pub fn from_cuts(cuts: Vec<Vec<f64>>) -> BinMapper {
        assert!(
            cuts.iter().all(|c| c.len() < MAX_BIN),
            "a feature with more than {} cuts cannot be binned",
            MAX_BIN - 1
        );
        BinMapper { cuts }
    }

    /// The per-feature sorted cut points.
    pub fn cuts(&self) -> &[Vec<f64>] {
        &self.cuts
    }

    /// Number of features the mapper was fit on.
    pub fn n_features(&self) -> usize {
        self.cuts.len()
    }

    /// Approximate heap footprint of the cut points in bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.cuts
            .iter()
            .map(|c| std::mem::size_of_val(c.as_slice()))
            .sum()
    }

    /// Number of bins of feature `j`, including the missing-value bin 0.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn n_bins(&self, j: usize) -> usize {
        self.cuts[j].len() + 2
    }

    /// The bin index of raw value `v` for feature `j`: 0 for `NaN`,
    /// otherwise `1 + #cuts below v`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn bin(&self, j: usize, v: f64) -> u32 {
        u32::from(bin_lanes(&self.cuts[j], [v])[0])
    }

    /// Bins an entire dataset or view (must have the same number of
    /// features), row-ordered as the view iterates.
    ///
    /// # Panics
    ///
    /// Panics if the feature count differs from the fit-time dataset.
    pub fn transform(&self, data: impl Into<DatasetView>) -> BinnedDataset {
        let data: DatasetView = data.into();
        assert_eq!(
            data.n_features(),
            self.n_features(),
            "binning a dataset with a different feature count"
        );
        let n_rows = data.n_rows();
        let mut bins: Vec<Bin> = Vec::with_capacity(n_rows * self.n_features());
        for (j, cuts) in self.cuts.iter().enumerate() {
            let mut values = data.column_values(j);
            for _ in 0..n_rows / LANES {
                let lanes: [f64; LANES] =
                    std::array::from_fn(|_| values.next().expect("n_rows values per column"));
                bins.extend(bin_lanes(cuts, lanes));
            }
            bins.extend(values.map(|v| bin_lanes(cuts, [v])[0]));
        }
        BinnedDataset {
            bins,
            n_rows,
            n_bins: (0..self.n_features()).map(|j| self.n_bins(j)).collect(),
        }
    }
}

/// The build-once, reuse-everywhere binning artifact of one training
/// view at one `max_bin`: the fitted [`BinMapper`] plus the pre-binned
/// two-byte feature matrix. Sharing it across trials removes the per-trial
/// sort + quantize + transform from `Gbdt::fit`'s critical path.
#[derive(Debug, Clone)]
pub struct PreparedBins {
    mapper: BinMapper,
    binned: BinnedDataset,
    max_bin: usize,
}

impl PreparedBins {
    /// Bins `data` with cuts derived from `sort` (which must have been
    /// computed over the same view). `max_bin` is recorded unclamped so
    /// callers can match a prepared artifact to a trial's configuration.
    pub fn prepare(
        sort: &PreparedSort,
        data: impl Into<DatasetView>,
        max_bin: usize,
    ) -> PreparedBins {
        let data: DatasetView = data.into();
        let mapper = BinMapper::from_sorted(sort, max_bin);
        let binned = mapper.transform(&data);
        PreparedBins {
            mapper,
            binned,
            max_bin,
        }
    }

    /// The requested (unclamped) `max_bin` this artifact was built for.
    pub fn max_bin(&self) -> usize {
        self.max_bin
    }

    /// The fitted mapper.
    pub fn mapper(&self) -> &BinMapper {
        &self.mapper
    }

    /// The pre-binned training matrix.
    pub fn binned(&self) -> &BinnedDataset {
        &self.binned
    }

    /// Approximate heap footprint in bytes (for cache budgeting).
    pub fn heap_bytes(&self) -> usize {
        self.mapper.heap_bytes() + self.binned.heap_bytes()
    }
}

/// A dataset discretized by a [`BinMapper`]: one flat column-major
/// matrix of two-byte bin indices (feature `j` owns cells
/// `j * n_rows..(j + 1) * n_rows`).
#[derive(Debug, Clone)]
pub struct BinnedDataset {
    bins: Vec<Bin>,
    n_rows: usize,
    n_bins: Vec<usize>,
}

impl BinnedDataset {
    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.n_bins.len()
    }

    /// The bin indices of feature `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn column(&self, j: usize) -> &[u16] {
        &self.bins[j * self.n_rows..(j + 1) * self.n_rows]
    }

    /// Builds a matrix straight from bin columns (engine tests).
    #[cfg(test)]
    pub(crate) fn from_columns(columns: Vec<Vec<Bin>>, n_bins: Vec<usize>) -> BinnedDataset {
        BinnedDataset {
            n_rows: columns.first().map_or(0, Vec::len),
            bins: columns.concat(),
            n_bins,
        }
    }

    /// Approximate heap footprint in bytes (for cache budgeting).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.bins.as_slice()) + std::mem::size_of_val(self.n_bins.as_slice())
    }

    /// The number of bins of feature `j` (missing-value bin included).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn n_bins(&self, j: usize) -> usize {
        self.n_bins[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flaml_data::{Dataset, Task};

    fn data(cols: Vec<Vec<f64>>) -> Dataset {
        let n = cols[0].len();
        Dataset::new(
            "t",
            Task::Regression,
            cols,
            vec![0.5; n]
                .iter()
                .enumerate()
                .map(|(i, _)| i as f64)
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn few_distinct_values_get_exact_bins() {
        let d = data(vec![vec![1.0, 2.0, 1.0, 3.0, 2.0]]);
        let m = BinMapper::fit(&d, 255);
        // Distinct values 1, 2, 3 => cuts at 1.5, 2.5 => bins 1, 2, 3.
        assert_eq!(m.bin(0, 1.0), 1);
        assert_eq!(m.bin(0, 2.0), 2);
        assert_eq!(m.bin(0, 3.0), 3);
        assert_eq!(m.n_bins(0), 4);
    }

    #[test]
    fn nan_maps_to_bin_zero() {
        let d = data(vec![vec![1.0, f64::NAN, 3.0]]);
        let m = BinMapper::fit(&d, 255);
        assert_eq!(m.bin(0, f64::NAN), 0);
        assert!(m.bin(0, 1.0) >= 1);
    }

    #[test]
    fn all_nan_column_has_single_bin() {
        let d = data(vec![vec![f64::NAN, f64::NAN]]);
        let m = BinMapper::fit(&d, 255);
        assert_eq!(m.n_bins(0), 2);
        assert_eq!(m.bin(0, f64::NAN), 0);
        assert_eq!(m.bin(0, 7.0), 1);
    }

    #[test]
    fn bins_are_monotone_in_value() {
        let col: Vec<f64> = (0..1000).map(|i| (i as f64 * 17.0) % 101.0).collect();
        let d = data(vec![col.clone()]);
        let m = BinMapper::fit(&d, 16);
        let mut pairs: Vec<(f64, u32)> = col.iter().map(|&v| (v, m.bin(0, v))).collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in pairs.windows(2) {
            assert!(w[0].1 <= w[1].1, "bin must be monotone in value");
        }
    }

    #[test]
    fn max_bin_respected() {
        let col: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let d = data(vec![col]);
        let m = BinMapper::fit(&d, 32);
        assert!(m.n_bins(0) <= 34, "32 value bins + NaN bin + overflow bin");
        // Bins should be roughly balanced for uniform data.
        let binned = m.transform(&d);
        let mut counts = vec![0usize; m.n_bins(0)];
        for &b in binned.column(0) {
            counts[b as usize] += 1;
        }
        let nonzero: Vec<usize> = counts.into_iter().filter(|&c| c > 0).collect();
        let max = *nonzero.iter().max().unwrap() as f64;
        let min = *nonzero.iter().min().unwrap() as f64;
        assert!(max / min < 2.5, "quantile bins stay balanced: {min}..{max}");
    }

    #[test]
    fn transform_round_trips_bin_of_value() {
        let col = vec![5.0, 1.0, 9.0, f64::NAN, 2.0];
        let d = data(vec![col.clone()]);
        let m = BinMapper::fit(&d, 8);
        let binned = m.transform(&d);
        for (i, &v) in col.iter().enumerate() {
            assert_eq!(u32::from(binned.column(0)[i]), m.bin(0, v));
        }
        assert_eq!(binned.n_rows(), 5);
        assert_eq!(binned.n_features(), 1);
    }

    #[test]
    fn constant_column_single_value_bin() {
        let d = data(vec![vec![4.0; 10]]);
        let m = BinMapper::fit(&d, 255);
        assert_eq!(m.n_bins(0), 2);
        assert_eq!(m.bin(0, 4.0), 1);
    }

    #[test]
    fn from_sorted_matches_direct_fit_for_every_max_bin() {
        let mut col: Vec<f64> = (0..500)
            .map(|i| {
                if i % 7 == 0 {
                    f64::NAN
                } else {
                    (i as f64 * 37.0) % 113.0
                }
            })
            .collect();
        // Both zeros, in both orders, among duplicates.
        col.extend([0.0, -0.0, 5.0, 5.0, -0.0, 0.0, f64::NAN, 5.0]);
        let d = data(vec![col.clone()]);
        let sort = PreparedSort::compute(&d);
        let distinct = sort.columns[0].len();
        let mut max_bins = vec![0usize, 1, 2, 3, 8, 16, 64, 255, 1024, 70_000];
        // One bin per distinct value starts exactly at `distinct`.
        max_bins.extend([distinct - 1, distinct, distinct + 1]);
        for max_bin in max_bins {
            let direct = BinMapper::fit(&d, max_bin);
            let shared = BinMapper::from_sorted(&sort, max_bin);
            assert_eq!(direct.cuts.len(), shared.cuts.len());
            for (a, b) in direct.cuts.iter().zip(&shared.cuts) {
                let a_bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let b_bits: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(a_bits, b_bits, "max_bin={max_bin}");
            }
            // The lane-parallel column transform, the single-value
            // `bin` and the plain definition agree on every value,
            // cuts themselves and the signed zeros included.
            let cuts = &shared.cuts[0];
            let mut probes = col.clone();
            probes.extend(cuts.iter().copied());
            probes.extend([f64::NEG_INFINITY, f64::INFINITY, -1e-320, 1e-320]);
            let probe_data = data(vec![probes.clone()]);
            let binned = shared.transform(&probe_data);
            for (&v, &got) in probes.iter().zip(binned.column(0)) {
                let want = if v.is_nan() {
                    0
                } else {
                    1 + cuts.partition_point(|&c| c < v) as u32
                };
                assert_eq!(u32::from(got), want, "max_bin={max_bin} v={v}");
                assert_eq!(shared.bin(0, v), want, "max_bin={max_bin} v={v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot be binned")]
    fn more_cuts_than_two_bytes_index_are_refused() {
        BinMapper::from_cuts(vec![(0..65_535).map(f64::from).collect()]);
    }

    #[test]
    fn the_widest_mapper_still_fits_the_bin_type() {
        // 70 000 distinct values at the largest max_bin: 65 534 cuts, top
        // bin 65 535.
        let d = data(vec![(0..70_000).map(f64::from).collect()]);
        let m = BinMapper::fit(&d, usize::MAX);
        assert_eq!(m.n_bins(0), 65_536);
        assert_eq!(m.bin(0, 1e9), 65_535);
        assert_eq!(m.transform(&d).column(0)[69_999], 65_535);
    }

    #[test]
    fn binned_bytes_are_two_per_cell() {
        let d = data(vec![vec![1.0, 2.0, 3.0, 4.0], vec![4.0, 3.0, 2.0, 1.0]]);
        let sort = PreparedSort::compute(&d);
        let prepared = PreparedBins::prepare(&sort, &d, 8);
        let cells = 2 * 4 * std::mem::size_of::<Bin>();
        let n_bins = 2 * std::mem::size_of::<usize>();
        let cuts = 2 * 3 * std::mem::size_of::<f64>();
        assert_eq!(prepared.binned().heap_bytes(), cells + n_bins);
        assert_eq!(prepared.heap_bytes(), cells + n_bins + cuts);
    }

    #[test]
    fn prepared_bins_match_fit_plus_transform() {
        let col: Vec<f64> = (0..300).map(|i| (i as f64 * 17.0) % 101.0).collect();
        let d = data(vec![col]);
        let sort = PreparedSort::compute(&d);
        let prepared = PreparedBins::prepare(&sort, &d, 16);
        let mapper = BinMapper::fit(&d, 16);
        let binned = mapper.transform(&d);
        assert_eq!(prepared.max_bin(), 16);
        assert_eq!(prepared.binned().column(0), binned.column(0));
        assert!(prepared.heap_bytes() > 0);
        assert!(sort.heap_bytes() > 0);
    }

    #[test]
    fn view_transform_matches_materialized_transform() {
        let col: Vec<f64> = (0..100).map(|i| ((i * 31) % 19) as f64).collect();
        let d = data(vec![col]);
        let view = d.view().select(&[90, 5, 5, 40, 77]);
        let copy = view.materialize();
        let m_view = BinMapper::fit(&view, 8);
        let m_copy = BinMapper::fit(&copy, 8);
        assert_eq!(
            m_view.transform(&view).column(0),
            m_copy.transform(&copy).column(0)
        );
    }
}
