//! `compare <runsA> <runsB>`: applies the bounds of `BENCHMARK.json` to
//! two sets of runs.
//!
//! For each workload × end-to-end metric it prints both sides' median
//! and quartiles and one verdict. The same tool answers "do two sets of
//! runs of the *same* code agree?" (every row must read `unchanged`)
//! and "did a change help?" (rows must read `improved`, by the rule
//! below, and nothing may read `regressed`).

use crate::report::RunRecord;
use crate::stats::quartiles;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct BoundedMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of A's median by which B's may worsen.
    pub bound: f64,
}

/// A workload entry of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadEntry {
    /// Workload name.
    pub name: String,
}

/// A per-layer entry of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct LayerMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
}

/// The parts of `BENCHMARK.json` this crate reads.
#[derive(Debug, Clone, Deserialize)]
pub struct BenchmarkFile {
    /// Directories that hold the benchmark.
    pub paths: Vec<String>,
    /// The workloads.
    pub workloads: Vec<WorkloadEntry>,
    /// The bounded metrics.
    pub end_to_end: Vec<BoundedMetric>,
    /// The unbounded per-layer metrics.
    pub per_layer: Vec<LayerMetric>,
}

impl BenchmarkFile {
    /// Reads the repository's `BENCHMARK.json` (two levels above this
    /// crate).
    ///
    /// # Errors
    ///
    /// Returns a message when the file is missing or malformed.
    pub fn load() -> Result<BenchmarkFile, String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// What a row concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better: every run beats every run of A, or its median is
    /// better by more than A's interquartile range and it wins at
    /// least nine tenths of the pairs.
    Improved,
    /// B's median is within the bound of A's and the spread is narrow
    /// enough to say so.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The spread of either side is wider than the bound and B is not
    /// uniformly better: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// Lowercase name, as printed.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A for one metric. `lower_is_better` orients the
/// comparison; `bound` is the allowed worsening as a share of A's
/// median. Pairs are `(a[i], b[i])` over the common prefix.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    // Orient so that smaller is always better.
    let orient = |v: &[f64]| -> Vec<f64> {
        v.iter()
            .map(|x| if lower_is_better { *x } else { -*x })
            .collect()
    };
    let (oa, ob) = (orient(a), orient(b));
    let [a1, a_med, a3] = quartiles(&oa);
    let [b1, b_med, b3] = quartiles(&ob);
    let scale = a_med.abs().max(f64::MIN_POSITIVE);

    let worst_b = ob.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let best_a = oa.iter().copied().fold(f64::INFINITY, f64::min);
    if worst_b < best_a {
        return Verdict::Improved;
    }
    if (b_med - a_med) / scale > bound {
        return Verdict::Regressed;
    }
    let spread = ((a3 - a1) / scale).max((b3 - b1) / b_med.abs().max(f64::MIN_POSITIVE));
    if spread > bound {
        return Verdict::Unresolved;
    }
    let pairs = oa.len().min(ob.len());
    let wins = oa.iter().zip(&ob).filter(|(x, y)| y < x).count();
    let losses = oa.iter().zip(&ob).filter(|(x, y)| y > x).count();
    let decided = wins + losses;
    if a_med - b_med > a3 - a1 && pairs >= 10 && decided > 0 && wins * 10 >= decided * 9 {
        return Verdict::Improved;
    }
    Verdict::Unchanged
}

/// Loads run records from a file of JSON lines, or from every file in
/// a directory (sorted by name, so runs pair up in order).
///
/// # Errors
///
/// Returns a message naming the unreadable path or the malformed line.
pub fn load_runs(path: &Path) -> Result<Vec<RunRecord>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            let p = entry.map_err(|e| e.to_string())?.path();
            if p.is_file() {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut runs = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record: RunRecord = serde_json::from_str(line)
                .map_err(|e| format!("{}:{}: {e}", file.display(), n + 1))?;
            runs.push(record);
        }
    }
    if runs.is_empty() {
        return Err(format!("{}: no run records", path.display()));
    }
    Ok(runs)
}

fn values(runs: &[RunRecord], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).map(|m| m.value))
        .collect()
}

/// The comparison table and whether any row regressed.
pub fn compare(bench: &BenchmarkFile, a: &[RunRecord], b: &[RunRecord]) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    out.push_str(&format!(
        "{:<14} {:<20} {:>34} {:>34} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B vs A", "bound"
    ));
    for workload in &bench.workloads {
        for metric in &bench.end_to_end {
            let va = values(a, &workload.name, &metric.name);
            let vb = values(b, &workload.name, &metric.name);
            if va.len() < 2 || vb.len() < 2 {
                out.push_str(&format!(
                    "{:<14} {:<20} needs at least two runs on each side ({} vs {})\n",
                    workload.name,
                    metric.name,
                    va.len(),
                    vb.len()
                ));
                continue;
            }
            let lower = metric.better == "lower";
            let verdict = judge(&va, &vb, lower, metric.bound);
            regressed |= verdict == Verdict::Regressed;
            *tally.entry(verdict.name()).or_insert(0) += 1;
            let [a1, am, a3] = quartiles(&va);
            let [b1, bm, b3] = quartiles(&vb);
            let side =
                |m: f64, q1: f64, q3: f64, n: usize| format!("{m:.5} [{q1:.5}, {q3:.5}] ({n})");
            out.push_str(&format!(
                "{:<14} {:<20} {:>34} {:>34} {:>+7.2}% {:>5.0}%  {}\n",
                workload.name,
                format!("{} ({})", metric.name, metric.unit),
                side(am, a1, a3, va.len()),
                side(bm, b1, b3, vb.len()),
                100.0 * (bm - am) / am.abs().max(f64::MIN_POSITIVE),
                100.0 * metric.bound,
                verdict.name()
            ));
        }
    }
    let failed = |runs: &[RunRecord]| runs.iter().filter(|r| !r.correct).count();
    out.push_str(&format!(
        "verdicts: {tally:?}; incorrect runs: A {} of {}, B {} of {}\n",
        failed(a),
        a.len(),
        failed(b),
        b.len()
    ));
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + step * (f64::from(i) - 4.5))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = around(4.0, 0.01);
        // Same code, second set: medians agree.
        assert_eq!(
            judge(&a, &around(4.01, 0.01), true, 0.10),
            Verdict::Unchanged
        );
        // Median 15 % worse, bound 10 %.
        assert_eq!(
            judge(&a, &around(4.6, 0.01), true, 0.10),
            Verdict::Regressed
        );
        // Every run of B beats every run of A.
        assert_eq!(judge(&a, &around(3.0, 0.01), true, 0.10), Verdict::Improved);
        // For a higher-is-better metric the same numbers flip.
        assert_eq!(
            judge(&a, &around(3.0, 0.01), false, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &around(4.6, 0.01), false, 0.10),
            Verdict::Improved
        );
        // Spread (IQR/median ~ 19 %) wider than the bound: cannot tell.
        let noisy = around(4.0, 0.15);
        assert_eq!(judge(&a, &noisy, true, 0.10), Verdict::Unresolved);
        // Better by more than A's IQR, wins 10/10 pairwise, but ranges
        // overlap: still an improvement by the pairing rule.
        let a = around(4.0, 0.02);
        let b: Vec<f64> = a.iter().map(|x| x - 0.15).collect();
        assert_eq!(judge(&a, &b, true, 0.10), Verdict::Improved);
        // Better by less than A's IQR: unchanged.
        let b: Vec<f64> = a.iter().map(|x| x - 0.02).collect();
        assert_eq!(judge(&a, &b, true, 0.10), Verdict::Unchanged);
    }
}
