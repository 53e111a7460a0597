//! Plain-text report formatting: aligned tables, box-plot summaries and
//! the win-percentage computation of the paper's Table 9.

use serde::{Deserialize, Serialize};
use std::path::Path;

/// Publishes `value` as pretty-printed JSON at `path`, creating parent
/// directories as needed. The write is atomic, so a crashed run never
/// leaves a torn results file for a later load to choke on.
///
/// # Errors
///
/// Returns any serialization or I/O error.
pub(crate) fn write_json<T: Serialize + ?Sized>(path: &str, value: &T) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let (storage, path) = (flaml_store::disk(), Path::new(path));
    flaml_store::create_parent_dir(storage.as_ref(), path)?;
    Ok(flaml_store::atomic_write_file(
        storage.as_ref(),
        path,
        json.as_bytes(),
    )?)
}

/// Renders an aligned plain-text table with a header row.
///
/// # Panics
///
/// Panics if any row's width differs from the header's.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let width = header.len();
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), width, "row {i} has wrong width");
    }
    let mut col_widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (j, cell) in row.iter().enumerate() {
            col_widths[j] = col_widths[j].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_string()
    };
    out.push_str(&fmt_row(header.to_vec(), &col_widths));
    out.push('\n');
    out.push_str(&"-".repeat(col_widths.iter().sum::<usize>() + 2 * (width - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(
            row.iter().map(String::as_str).collect(),
            &col_widths,
        ));
        out.push('\n');
    }
    out
}

/// Five-number summary of a sample (Figure 6's box plots, as text).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxStats {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes the five-number summary; returns `None` for empty input.
pub fn box_stats(values: &[f64]) -> Option<BoxStats> {
    if values.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q = |p: f64| -> f64 {
        // Linear interpolation between closest ranks.
        let idx = p * (v.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        if lo == hi {
            v[lo]
        } else {
            v[lo] + (idx - lo as f64) * (v[hi] - v[lo])
        }
    };
    Some(BoxStats {
        min: v[0],
        q1: q(0.25),
        median: q(0.5),
        q3: q(0.75),
        max: v[v.len() - 1],
    })
}

impl BoxStats {
    /// One-line rendering: `min [q1 | median | q3] max`.
    pub fn render(&self) -> String {
        format!(
            "{:+.3} [{:+.3} | {:+.3} | {:+.3}] {:+.3}",
            self.min, self.q1, self.median, self.q3, self.max
        )
    }
}

/// The paper's Table 9 statistic: the percentage of paired scores where
/// `a >= b - tolerance` (FLAML better than or equal to the baseline,
/// with the paper's 0.1% tolerance on scaled scores).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn percent_better_or_equal(a: &[f64], b: &[f64], tolerance: f64) -> f64 {
    assert_eq!(a.len(), b.len(), "paired scores must align");
    if a.is_empty() {
        return 0.0;
    }
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| **x >= **y - tolerance)
        .count();
    100.0 * wins as f64 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["name", "score"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["longer-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a "));
        assert!(lines[3].starts_with("longer-name"));
        // The score column starts at the same offset in every row.
        let off = lines[0].find("score").unwrap();
        assert_eq!(&lines[2][off..off + 3], "1.0");
    }

    #[test]
    #[should_panic(expected = "wrong width")]
    fn table_rejects_ragged_rows() {
        let _ = render_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn box_stats_median_and_quartiles() {
        let s = box_stats(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn box_stats_empty_is_none() {
        assert!(box_stats(&[]).is_none());
    }

    #[test]
    fn percent_with_tolerance() {
        let flaml = [1.0, 0.5, 0.8];
        let base = [0.9, 0.5004, 0.9];
        // Within 0.001 tolerance the second pair counts as a win.
        let pct = percent_better_or_equal(&flaml, &base, 0.001);
        assert!((pct - 66.666).abs() < 0.1, "{pct}");
    }

    #[test]
    fn percent_empty_is_zero() {
        assert_eq!(percent_better_or_equal(&[], &[], 0.0), 0.0);
    }

    #[test]
    fn telemetry_collector_counts_a_flaml_run() {
        use flaml_core::{
            default_virtual_cost, event_channel, AutoMl, LearnerKind, Telemetry, TimeSource,
        };
        use flaml_data::{Dataset, Task};

        let x: Vec<f64> = (0..300).map(|i| (i % 91) as f64 / 91.0).collect();
        let y: Vec<f64> = x.iter().map(|v| f64::from(*v > 0.5)).collect();
        let data = Dataset::new("t", Task::Binary, vec![x], y).unwrap();
        let (sink, events) = event_channel();
        let result = AutoMl::new()
            .time_budget(0.5)
            .estimators([LearnerKind::LightGbm, LearnerKind::Lr])
            .time_source(TimeSource::Virtual(default_virtual_cost))
            .max_trials(6)
            .sample_size_init(100)
            .event_sink(sink)
            .fit(&data)
            .unwrap();
        let telemetry = Telemetry::new().drain(&events);
        assert_eq!(telemetry.started, result.trials.len());
        assert_eq!(telemetry.total_terminal(), result.trials.len());
        assert!(telemetry.by_learner.values().all(|c| c.panicked == 0));
    }
}
