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

/// The per-feature value order of one data view: the expensive part of
/// quantile binning, computed once and shared.
///
/// Each feature keeps its non-NaN rows in ascending value order and where
/// each run of one value starts; a distinct value is read from the view
/// at its run's first row. [`BinMapper`]'s cut points are a pure function
/// of the sorted-unique values, so a mapper built via
/// [`BinMapper::from_sorted`] for any `max_bin` is bit-identical to one
/// built directly from the raw columns, and [`PreparedBins::prepare`]
/// bins every row in one walk of the order instead of a search per
/// value — the sort is paid once per view instead of once per trial.
#[derive(Debug, Clone)]
pub struct PreparedSort {
    /// The view the order was computed over (shares its storage).
    view: DatasetView,
    columns: Vec<SortedColumn>,
}

/// One feature's non-NaN rows (view positions) sorted by value, ties and
/// the two zeros in row order, and where each run of one value starts.
/// A run's first row holds its value's first occurrence, which is the
/// distinct value binning uses (of `-0.0` and `0.0`, the earlier one).
#[derive(Debug, Clone)]
struct SortedColumn {
    rows: Vec<u32>,
    starts: Vec<u32>,
}

impl SortedColumn {
    fn len(&self) -> usize {
        self.starts.len()
    }

    /// Where run `i` starts in `rows`; `rows.len()` for `i == len()`.
    fn start(&self, i: usize) -> usize {
        self.starts.get(i).map_or(self.rows.len(), |&s| s as usize)
    }
}

impl PreparedSort {
    /// Sorts every feature column of `data`.
    pub fn compute(data: impl Into<DatasetView>) -> PreparedSort {
        let view: DatasetView = data.into();
        let columns = (0..view.n_features())
            .map(|j| key_sort(view.column_values(j)))
            .collect();
        PreparedSort { view, columns }
    }

    /// Approximate heap footprint in bytes (for cache budgeting); the
    /// view's storage is shared, not counted.
    pub fn heap_bytes(&self) -> usize {
        let cells = |c: &SortedColumn| c.rows.len() + c.starts.len();
        self.columns.iter().map(cells).sum::<usize>() * std::mem::size_of::<u32>()
    }
}

/// An order-preserving key of a non-NaN value: `key(a) < key(b)` exactly
/// when `a < b`, and the two zeros share a key (`-0.0 + 0.0` is `+0.0`).
fn sort_key(v: f64) -> u64 {
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Sorts the non-NaN positions of `values` by [`sort_key`], ties in
/// position order — the order a stable sort by value gives — with a
/// stable least-significant-digit radix sort of `(key, position)` pairs.
/// All eight bytes' counts come from one pass; a byte every key shares
/// would leave the order as it is, so its pass is skipped.
fn key_sort(values: impl Iterator<Item = f64>) -> SortedColumn {
    // Gathered by a loop of its own, so that the loads of a view's
    // scattered rows overlap.
    let values: Vec<f64> = values.collect();
    let mut pairs = Vec::with_capacity(values.len());
    let mut counts = [[0usize; 256]; 8];
    for (i, &v) in values.iter().enumerate().filter(|(_, v)| !v.is_nan()) {
        let key = sort_key(v);
        for (d, count) in counts.iter_mut().enumerate() {
            count[(key >> (8 * d)) as u8 as usize] += 1;
        }
        pairs.push((key, i as u32));
    }
    let n = pairs.len();
    let mut scratch = vec![(0, 0); n];
    for (d, count) in counts.iter().enumerate().filter(|(_, c)| !c.contains(&n)) {
        let mut next = [0usize; 256];
        for b in 1..256 {
            next[b] = next[b - 1] + count[b - 1];
        }
        for &pair in &pairs {
            let digit = (pair.0 >> (8 * d)) as u8 as usize;
            scratch[next[digit]] = pair;
            next[digit] += 1;
        }
        std::mem::swap(&mut pairs, &mut scratch);
    }
    let starts = (0..n as u32)
        .filter(|&i| i == 0 || pairs[i as usize - 1].0 != pairs[i as usize].0)
        .collect();
    let rows = pairs.into_iter().map(|(_, row)| row).collect();
    SortedColumn { rows, starts }
}

/// The sorted distinct non-NaN values of `values` — of equal values (the
/// two zeros) the first in input order — and each value's rank among
/// them, its run in the key sort (`nan_rank` for a `NaN`).
pub(crate) fn ranked(values: &[f64], nan_rank: u32) -> (Vec<f64>, Vec<u32>) {
    let col = key_sort(values.iter().copied());
    let mut ranks = vec![nan_rank; values.len()];
    for i in 0..col.len() {
        for &r in &col.rows[col.start(i)..col.start(i + 1)] {
            ranks[r as usize] = i as u32;
        }
    }
    let first = |&s: &u32| values[col.rows[s as usize] as usize];
    (col.starts.iter().map(first).collect(), ranks)
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

/// A cut and, when its own two values settle it, the index of the first
/// distinct value above it.
type Cut = (f64, Option<usize>);

/// Derives quantile cuts from a column's `n` sorted-unique values,
/// `value(i)` being the `i`-th. A cut is the midpoint of values `pos - 1`
/// and `pos`; unless that sum overflowed or is `NaN` it lies between
/// them, so no earlier value is above it and the first above is value
/// `pos`, or `pos + 1` when the midpoint rounded onto value `pos`.
fn cuts_from_sorted(n: usize, value: impl Fn(usize) -> f64, max_bin: usize) -> Vec<Cut> {
    let cut_at = |pos: usize| {
        let (below, above) = (value(pos - 1), value(pos));
        let cut = (below + above) / 2.0;
        let settled = below <= cut && cut <= above;
        (cut, settled.then(|| pos + usize::from(cut == above)))
    };
    if n == 0 {
        return Vec::new();
    }
    if n <= max_bin {
        // One bin per distinct value: cuts at midpoints.
        return (1..n).map(cut_at).collect();
    }
    // Quantile cuts: max_bin bins need max_bin - 1 interior cuts.
    let mut cuts: Vec<Cut> = Vec::with_capacity(max_bin - 1);
    for q in 1..max_bin {
        let (cut, first_above) = cut_at((q * n / max_bin).min(n - 1).max(1));
        if cuts.last().is_none_or(|&(last, _)| cut > last) {
            cuts.push((cut, first_above));
        }
    }
    cuts
}

/// Every feature's [`cuts_from_sorted`] over the order `sort` holds.
fn sorted_cuts(sort: &PreparedSort, max_bin: usize) -> Vec<Vec<Cut>> {
    let max_bin = max_bin.clamp(2, MAX_BIN);
    let columns = sort.columns.iter().enumerate();
    let cuts = columns.map(|(j, col)| {
        let distinct = |i: usize| {
            sort.view
                .value(col.rows[col.starts[i] as usize] as usize, j)
        };
        cuts_from_sorted(col.len(), distinct, max_bin)
    });
    cuts.collect()
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
        BinMapper::from_sorted(&PreparedSort::compute(data), max_bin)
    }

    /// Builds a mapper from a precomputed [`PreparedSort`], skipping the
    /// per-trial sort: the cuts [`BinMapper::fit`] derives for the view
    /// the sort was computed over. `max_bin` is clamped as there.
    pub fn from_sorted(sort: &PreparedSort, max_bin: usize) -> BinMapper {
        BinMapper::from_cut_list(&sorted_cuts(sort, max_bin))
    }

    fn from_cut_list(cuts: &[Vec<Cut>]) -> BinMapper {
        let cuts = cuts.iter().map(|c| c.iter().map(|&(cut, _)| cut).collect());
        BinMapper {
            cuts: cuts.collect(),
        }
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
        self.binned(bins, n_rows)
    }

    fn binned(&self, bins: Vec<Bin>, n_rows: usize) -> BinnedDataset {
        let n_bins = (0..self.n_features()).map(|j| self.n_bins(j)).collect();
        BinnedDataset {
            bins,
            n_rows,
            n_bins,
        }
    }
}

/// Bins the view `sort` was computed over under `cuts` in one walk of
/// each feature's value order. A value's bin is `1 + #cuts below it`;
/// the values ascend and the cuts do not descend, so the runs of bin
/// `1 + k` are those from the end of bin `k`'s up to the first run above
/// cut `k` — which [`cuts_from_sorted`] mostly knows, and a lower bound
/// over the runs finds otherwise — and every row is written once. The
/// rows outside every run (the `NaN`s) keep bin 0.
///
/// The one cut that is not ordered, the `NaN` midpoint of `-inf` and
/// `+inf`, only arises when those are a feature's only values: no value
/// is above it, which the lower bound finds too (`v > NaN` is false).
fn bin_sorted(cuts: &[Vec<Cut>], sort: &PreparedSort) -> Vec<Bin> {
    let n_rows = sort.view.n_rows();
    let mut bins: Vec<Bin> = vec![0; n_rows * cuts.len()];
    for ((j, cuts), col) in cuts.iter().enumerate().zip(&sort.columns) {
        let out = &mut bins[j * n_rows..(j + 1) * n_rows];
        let value = |s: &u32| sort.view.value(col.rows[*s as usize] as usize, j);
        let mut run = 0;
        for below in 0..=cuts.len() {
            let end = match cuts.get(below) {
                Some(&(_, Some(first_above))) => first_above,
                Some(&(cut, None)) => {
                    run + col.starts[run..].partition_point(|s| !value(s).gt(&cut))
                }
                None => col.len(),
            };
            for &r in &col.rows[col.start(run)..col.start(end)] {
                out[r as usize] = (1 + below) as Bin;
            }
            run = end;
        }
    }
    bins
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
    /// Bins `data` with cuts derived from `sort`, in one walk of each
    /// feature's value order: the bins [`BinMapper::transform`] gives,
    /// without its search per value. `max_bin` is recorded unclamped so
    /// callers can match a prepared artifact to a trial's configuration.
    ///
    /// # Panics
    ///
    /// Panics if `sort` was computed over a view of another length: it
    /// must have been computed over `data`.
    pub fn prepare(
        sort: &PreparedSort,
        data: impl Into<DatasetView>,
        max_bin: usize,
    ) -> PreparedBins {
        let data: DatasetView = data.into();
        assert_eq!(data.n_rows(), sort.view.n_rows(), "not the sorted view");
        let cuts = sorted_cuts(sort, max_bin);
        let mapper = BinMapper::from_cut_list(&cuts);
        let binned = mapper.binned(bin_sorted(&cuts, sort), data.n_rows());
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
    use proptest::prelude::*;

    impl BinnedDataset {
        /// Builds a matrix straight from bin columns (engine tests).
        pub(crate) fn from_columns(columns: Vec<Vec<Bin>>, n_bins: Vec<usize>) -> BinnedDataset {
            BinnedDataset {
                n_rows: columns.first().map_or(0, Vec::len),
                bins: columns.concat(),
                n_bins,
            }
        }
    }

    /// The reference sort: the stable sort and `dedup` this module used
    /// before the key sort, verbatim.
    fn oracle_sorted_uniques(values: impl Iterator<Item = f64>) -> Vec<f64> {
        let mut values: Vec<f64> = values.filter(|v| !v.is_nan()).collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after filter"));
        values.dedup();
        values
    }

    /// The reference cut derivation over a sorted-unique slice, verbatim.
    fn oracle_cuts(values: &[f64], max_bin: usize) -> Vec<f64> {
        if values.is_empty() {
            return Vec::new();
        }
        if values.len() <= max_bin {
            return values.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
        }
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

    /// The reference fit path: cuts from the stable sort, then a search
    /// per value ([`BinMapper::transform`]).
    fn oracle_bins(data: &DatasetView, max_bin: usize) -> (BinMapper, BinnedDataset) {
        let max_bin = max_bin.clamp(2, MAX_BIN);
        let cuts = (0..data.n_features())
            .map(|j| oracle_cuts(&oracle_sorted_uniques(data.column_values(j)), max_bin))
            .collect();
        let mapper = BinMapper { cuts };
        let binned = mapper.transform(data);
        (mapper, binned)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A value a sort or a cut can trip over: missing cells, both zeros,
    /// subnormals, midpoints that overflow, infinities, small integers
    /// for heavy ties, and plain floats.
    fn awkward_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            -100f64..100.0,
            -100f64..100.0,
            (0u8..4).prop_map(f64::from),
            Just(f64::NAN),
            Just(0.0f64),
            Just(-0.0f64),
            Just(2.5e-310f64),
            Just(-4.0e-320f64),
            Just(1e308f64),
            Just(1.5e308f64),
            Just(-1e308f64),
            Just(-1.5e308f64),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
        ]
    }

    /// A column of `n` values: awkward, few distinct (ties and the two
    /// zeros in either order; only infinities, whose midpoint cut is
    /// `NaN`), constant, or all `NaN`.
    fn awkward_column(n: usize) -> impl Strategy<Value = Vec<f64>> {
        let zeros = prop_oneof![Just(0.0f64), Just(-0.0f64), Just(1.0f64), Just(f64::NAN)];
        let infinities = prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(f64::NAN)];
        prop_oneof![
            proptest::collection::vec(awkward_value(), n),
            proptest::collection::vec(awkward_value(), n),
            proptest::collection::vec(zeros, n),
            proptest::collection::vec(infinities, n),
            proptest::collection::vec((0u16..2_000).prop_map(|v| f64::from(v) / 7.0), n),
            awkward_value().prop_map(move |v| vec![v; n]),
            Just(vec![f64::NAN; n]),
        ]
    }

    /// A view over one to four awkward columns: the whole dataset or a
    /// reordering selection with repeated rows.
    fn awkward_view() -> impl Strategy<Value = DatasetView> {
        (1usize..=4, 1usize..400).prop_flat_map(|(n_features, n)| {
            (
                proptest::collection::vec(awkward_column(n), n_features),
                proptest::collection::vec(0usize..n, 1..2 * n + 1),
                0u8..2,
            )
                .prop_map(move |(cols, order, select)| {
                    let d = data(cols);
                    if select == 1 {
                        d.view().select(&order)
                    } else {
                        d.view()
                    }
                })
        })
    }

    proptest! {
        #[test]
        fn ranks_equal_the_stable_sort_and_a_search_bit_for_bit(view in awkward_view()) {
            for j in 0..view.n_features() {
                let col: Vec<f64> = view.column_values(j).collect();
                let (uniques, ranks) = ranked(&col, u32::MAX);
                let want = oracle_sorted_uniques(col.iter().copied());
                prop_assert_eq!(bits(&uniques), bits(&want));
                for (v, &rank) in col.iter().zip(&ranks) {
                    let search = want.partition_point(|u| u < v) as u32;
                    prop_assert_eq!(rank, if v.is_nan() { u32::MAX } else { search });
                }
            }
        }

        #[test]
        fn the_sort_walk_equals_fit_plus_transform_bit_for_bit(
            view in awkward_view(),
            max_bin in 2usize..1024,
        ) {
            let sort = PreparedSort::compute(&view);
            let distinct = (0..view.n_features()).map(|j| sort.columns[j].len());
            let mut max_bins = vec![2, 3, 255, 1023, max_bin];
            for d in distinct {
                // One bin per distinct value starts exactly at `d`.
                max_bins.extend([d.saturating_sub(1).max(2), d.max(2), d + 1]);
            }
            for max_bin in max_bins {
                let prepared = PreparedBins::prepare(&sort, &view, max_bin);
                let (mapper, binned) = oracle_bins(&view, max_bin);
                prop_assert_eq!(prepared.max_bin(), max_bin);
                for j in 0..view.n_features() {
                    let (got, want) = (&prepared.mapper().cuts[j], &mapper.cuts[j]);
                    prop_assert_eq!(bits(got), bits(want), "max_bin={}", max_bin);
                    prop_assert_eq!(prepared.binned().column(j), binned.column(j));
                    prop_assert_eq!(prepared.binned().n_bins(j), binned.n_bins(j));
                }
                prop_assert_eq!(prepared.binned().n_rows(), view.n_rows());
            }
        }
    }

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
