//! CSV rendering and parsing of journaled trial records, shared by
//! `journal_tool export-csv` and anything that wants the trial trace in
//! a spreadsheet. The column set is the analysis-facing subset of
//! [`TrialLine`] — including the data-plane counters
//! (`prepared_hits` / `prepared_misses` / `bytes_copied_saved` /
//! `prepared_evictions`) and the tree-cache counters
//! (`tree_cache_hits` / `tree_cache_misses` / `trees_saved`, written as
//! 0 by current searches; older journals carry counts) — with the
//! free-text `config` quoted and last so the fixed columns split on
//! plain commas.

use flaml_core::TrialLine;

/// Header row of the trial CSV, in column order.
pub const TRIAL_CSV_HEADER: &str = "iter,learner,mode,status,sample_size,loss,cost,total_time,\
     wall_secs,attempts,improved,best_loss,prepared_hits,prepared_misses,bytes_copied_saved,\
     prepared_evictions,tree_cache_hits,tree_cache_misses,trees_saved,config";

/// One parsed row of the trial CSV: the analysis-facing subset of
/// [`TrialLine`] that [`render_trials_csv`] exports.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialCsvRow {
    /// 1-based trial index.
    pub iter: usize,
    /// Learner evaluated.
    pub learner: String,
    /// Trial mode (`"search"` / `"sample-up"`).
    pub mode: String,
    /// Final-attempt status name.
    pub status: String,
    /// Sample size used.
    pub sample_size: usize,
    /// Final validation loss (`inf` = the failure sentinel).
    pub loss: f64,
    /// Total budget cost of the trial.
    pub cost: f64,
    /// Budget elapsed when the trial committed.
    pub total_time: f64,
    /// Measured wall seconds.
    pub wall_secs: f64,
    /// Retry attempts consumed.
    pub attempts: usize,
    /// Whether the trial improved the run's best error.
    pub improved: bool,
    /// Global best error after this trial.
    pub best_loss: f64,
    /// Prepared-data cache hits during preparation.
    pub prepared_hits: usize,
    /// Prepared-data cache misses during preparation.
    pub prepared_misses: usize,
    /// Bytes of dataset copies the zero-copy data plane avoided.
    pub bytes_copied_saved: usize,
    /// Prepared-data cache entries evicted under the byte budget.
    pub prepared_evictions: usize,
    /// The journal's `tree_cache_hits` (0 in current journals).
    pub tree_cache_hits: usize,
    /// The journal's `tree_cache_misses` (0 in current journals).
    pub tree_cache_misses: usize,
    /// The journal's `trees_saved` (0 in current journals).
    pub trees_saved: usize,
    /// Configuration rendered as `name=value` pairs.
    pub config: String,
}

/// Renders journaled trials as CSV (header + one row per trial). Floats
/// use shortest-round-trip formatting, so a [`parse_trials_csv`] of the
/// output recovers every numeric field bit-for-bit.
pub fn render_trials_csv(trials: &[TrialLine]) -> String {
    let mut csv = String::from(TRIAL_CSV_HEADER);
    csv.push('\n');
    for t in trials {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},\"{}\"\n",
            t.iter,
            t.learner,
            t.mode,
            t.status,
            t.sample_size,
            t.loss,
            t.cost,
            t.total_time,
            t.wall_secs,
            t.attempts,
            t.improved,
            t.best_loss,
            t.prepared_hits,
            t.prepared_misses,
            t.bytes_copied_saved,
            t.prepared_evictions,
            t.tree_cache_hits,
            t.tree_cache_misses,
            t.trees_saved,
            t.config.replace('"', "\"\""),
        ));
    }
    csv
}

/// Parses a CSV produced by [`render_trials_csv`] back into rows.
///
/// # Errors
///
/// Returns a message naming the offending line when the header is
/// missing, a row has too few columns, or a numeric field fails to
/// parse.
pub fn parse_trials_csv(csv: &str) -> Result<Vec<TrialCsvRow>, String> {
    let mut lines = csv.lines();
    match lines.next() {
        Some(h) if h == TRIAL_CSV_HEADER => {}
        other => return Err(format!("bad or missing header row: {other:?}")),
    }
    let mut rows = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let row = parse_row(line).map_err(|e| format!("row {}: {e} in {line:?}", i + 1))?;
        rows.push(row);
    }
    Ok(rows)
}

fn parse_row(line: &str) -> Result<TrialCsvRow, String> {
    let fields: Vec<&str> = line.splitn(20, ',').collect();
    if fields.len() != 20 {
        return Err(format!("expected 20 columns, found {}", fields.len()));
    }
    fn num<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("bad {name} value {v:?}"))
    }
    let config = fields[19];
    let config = config
        .strip_prefix('"')
        .and_then(|c| c.strip_suffix('"'))
        .ok_or_else(|| format!("config column is not quoted: {config:?}"))?
        .replace("\"\"", "\"");
    Ok(TrialCsvRow {
        iter: num("iter", fields[0])?,
        learner: fields[1].to_string(),
        mode: fields[2].to_string(),
        status: fields[3].to_string(),
        sample_size: num("sample_size", fields[4])?,
        loss: num("loss", fields[5])?,
        cost: num("cost", fields[6])?,
        total_time: num("total_time", fields[7])?,
        wall_secs: num("wall_secs", fields[8])?,
        attempts: num("attempts", fields[9])?,
        improved: num("improved", fields[10])?,
        best_loss: num("best_loss", fields[11])?,
        prepared_hits: num("prepared_hits", fields[12])?,
        prepared_misses: num("prepared_misses", fields[13])?,
        bytes_copied_saved: num("bytes_copied_saved", fields[14])?,
        prepared_evictions: num("prepared_evictions", fields[15])?,
        tree_cache_hits: num("tree_cache_hits", fields[16])?,
        tree_cache_misses: num("tree_cache_misses", fields[17])?,
        trees_saved: num("trees_saved", fields[18])?,
        config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(iter: usize) -> TrialLine {
        TrialLine {
            iter,
            learner: "lightgbm".into(),
            config: "trees=4, lr=0.1000, note=\"q\"".into(),
            config_values: vec![4.0, 0.1],
            sample_size: 500 + iter,
            loss: 0.125 + iter as f64 * 0.001,
            status: "ok".into(),
            mode: "search".into(),
            attempts: iter % 3,
            attempt_costs: vec![0.05],
            cost: 0.05,
            total_time: 0.2,
            wall_secs: 0.017,
            prepared_hits: iter * 2,
            prepared_misses: iter,
            prepared_evictions: iter % 2,
            bytes_copied_saved: iter * 4096,
            tree_cache_hits: iter % 4,
            tree_cache_misses: iter % 3,
            trees_saved: iter * 17,
            seed: 7,
            improved: iter.is_multiple_of(2),
            best_loss: 0.125,
        }
    }

    #[test]
    fn csv_round_trips_every_exported_field() {
        let trials: Vec<TrialLine> = (1..=5).map(line).collect();
        let csv = render_trials_csv(&trials);
        assert!(csv.starts_with(TRIAL_CSV_HEADER));
        assert!(csv.contains("prepared_hits,prepared_misses,bytes_copied_saved"));
        assert!(csv.contains("prepared_evictions,tree_cache_hits,tree_cache_misses,trees_saved"));
        let rows = parse_trials_csv(&csv).unwrap();
        assert_eq!(rows.len(), trials.len());
        for (row, t) in rows.iter().zip(&trials) {
            assert_eq!(row.iter, t.iter);
            assert_eq!(row.learner, t.learner);
            assert_eq!(row.mode, t.mode);
            assert_eq!(row.status, t.status);
            assert_eq!(row.sample_size, t.sample_size);
            assert_eq!(row.loss.to_bits(), t.loss.to_bits());
            assert_eq!(row.cost.to_bits(), t.cost.to_bits());
            assert_eq!(row.total_time.to_bits(), t.total_time.to_bits());
            assert_eq!(row.wall_secs.to_bits(), t.wall_secs.to_bits());
            assert_eq!(row.attempts, t.attempts);
            assert_eq!(row.improved, t.improved);
            assert_eq!(row.best_loss.to_bits(), t.best_loss.to_bits());
            assert_eq!(row.prepared_hits, t.prepared_hits);
            assert_eq!(row.prepared_misses, t.prepared_misses);
            assert_eq!(row.bytes_copied_saved, t.bytes_copied_saved);
            assert_eq!(row.prepared_evictions, t.prepared_evictions);
            assert_eq!(row.tree_cache_hits, t.tree_cache_hits);
            assert_eq!(row.tree_cache_misses, t.tree_cache_misses);
            assert_eq!(row.trees_saved, t.trees_saved);
            assert_eq!(row.config, t.config, "embedded quotes must unescape");
        }
    }

    #[test]
    fn failure_sentinel_loss_round_trips() {
        let mut t = line(1);
        t.loss = f64::INFINITY;
        t.best_loss = f64::INFINITY;
        let rows = parse_trials_csv(&render_trials_csv(&[t])).unwrap();
        assert!(rows[0].loss.is_infinite() && rows[0].loss > 0.0);
    }

    #[test]
    fn malformed_rows_are_rejected_with_context() {
        assert!(parse_trials_csv("nope\n").is_err());
        let short = format!("{TRIAL_CSV_HEADER}\n1,2,3\n");
        assert!(parse_trials_csv(&short).unwrap_err().contains("20 columns"));
        let bad = format!(
            "{TRIAL_CSV_HEADER}\nX,lgbm,search,ok,5,0.1,0.1,0.1,0.1,0,true,0.1,0,0,0,0,0,0,0,\"c\"\n"
        );
        assert!(parse_trials_csv(&bad).unwrap_err().contains("bad iter"));
    }
}
