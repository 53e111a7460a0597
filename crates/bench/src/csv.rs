//! CSV rendering of journaled trial records, for `journal_tool
//! export-csv` and anything that wants the trial trace in a
//! spreadsheet. The column set is the analysis-facing subset of
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

/// Renders journaled trials as CSV (header + one row per trial). Floats
/// use shortest-round-trip formatting, so parsing a field back recovers
/// its value bit-for-bit; a failed trial's loss is the sentinel `inf`.
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

    /// The cells of each data row: 19 fixed columns split on plain
    /// commas, then the quoted config with its doubled quotes undone.
    fn rows(csv: &str) -> Vec<Vec<String>> {
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(TRIAL_CSV_HEADER));
        lines
            .map(|row| {
                let mut cells: Vec<String> = row.splitn(20, ',').map(str::to_string).collect();
                assert_eq!(cells.len(), 20, "{row:?}");
                let config = cells[19]
                    .strip_prefix('"')
                    .and_then(|c| c.strip_suffix('"'));
                cells[19] = config.expect("config is quoted").replace("\"\"", "\"");
                cells
            })
            .collect()
    }

    fn bits(cell: &str) -> u64 {
        cell.parse::<f64>().unwrap().to_bits()
    }

    #[test]
    fn csv_round_trips_every_exported_field() {
        let trials: Vec<TrialLine> = (1..=5).map(line).collect();
        let rows = rows(&render_trials_csv(&trials));
        assert_eq!(rows.len(), trials.len());
        for (c, t) in rows.iter().zip(&trials) {
            assert_eq!(c[0], t.iter.to_string());
            assert_eq!(c[1], t.learner);
            assert_eq!(c[2], t.mode);
            assert_eq!(c[3], t.status);
            assert_eq!(c[4], t.sample_size.to_string());
            assert_eq!(bits(&c[5]), t.loss.to_bits());
            assert_eq!(bits(&c[6]), t.cost.to_bits());
            assert_eq!(bits(&c[7]), t.total_time.to_bits());
            assert_eq!(bits(&c[8]), t.wall_secs.to_bits());
            assert_eq!(c[9], t.attempts.to_string());
            assert_eq!(c[10].parse::<bool>(), Ok(t.improved));
            assert_eq!(bits(&c[11]), t.best_loss.to_bits());
            assert_eq!(c[12], t.prepared_hits.to_string());
            assert_eq!(c[13], t.prepared_misses.to_string());
            assert_eq!(c[14], t.bytes_copied_saved.to_string());
            assert_eq!(c[15], t.prepared_evictions.to_string());
            assert_eq!(c[16], t.tree_cache_hits.to_string());
            assert_eq!(c[17], t.tree_cache_misses.to_string());
            assert_eq!(c[18], t.trees_saved.to_string());
            assert_eq!(c[19], t.config, "embedded quotes must unescape");
        }
    }

    #[test]
    fn failure_sentinel_loss_round_trips() {
        let mut t = line(1);
        t.loss = f64::INFINITY;
        t.best_loss = f64::INFINITY;
        let rows = rows(&render_trials_csv(&[t]));
        assert_eq!(bits(&rows[0][5]), f64::INFINITY.to_bits());
        assert_eq!(bits(&rows[0][11]), f64::INFINITY.to_bits());
    }

    #[test]
    fn renders_a_known_line_exactly() {
        let failed = TrialLine {
            iter: 3,
            learner: "lightgbm".into(),
            config: "trees=4, lr=0.1000, note=\"q\"".into(),
            config_values: vec![4.0, 0.1],
            sample_size: 503,
            loss: f64::INFINITY,
            status: "failed".into(),
            mode: "search".into(),
            attempts: 1,
            attempt_costs: vec![0.05],
            cost: 0.05,
            // 0.1 + 0.2 needs all 17 significant digits to round-trip.
            total_time: 0.1 + 0.2,
            wall_secs: 0.017,
            prepared_hits: 6,
            prepared_misses: 3,
            prepared_evictions: 1,
            bytes_copied_saved: 12_288,
            tree_cache_hits: 3,
            tree_cache_misses: 0,
            trees_saved: 51,
            seed: 7,
            improved: false,
            best_loss: 0.125,
        };
        assert_eq!(
            render_trials_csv(&[failed]),
            format!(
                "{TRIAL_CSV_HEADER}\n\
                 3,lightgbm,search,failed,503,inf,0.05,0.30000000000000004,0.017,1,false,0.125,\
                 6,3,12288,1,3,0,51,\"trees=4, lr=0.1000, note=\"\"q\"\"\"\n"
            )
        );
    }
}
