//! Figure 6 — box plots of the scaled-score difference between FLAML and
//! each baseline, under equal budgets (top row) and with FLAML given a
//! smaller budget (bottom row). Positive = FLAML better.
//!
//! Reads `bench_results/fig5.json` if present (run `fig5_scores` first);
//! otherwise runs a quick grid itself.
//!
//! ```text
//! cargo run -p flaml-bench --release --bin fig6_boxplot
//! ```

use flaml_bench::grid::load_or_run;
use flaml_bench::{box_stats, paired_scores, render_table, Args};

fn main() {
    let args = Args::parse();
    let path = args.str("from", "bench_results/fig5.json");
    let results = load_or_run(&path, &args);

    let mut budgets: Vec<f64> = results.iter().map(|r| r.budget).collect();
    budgets.sort_by(|a, b| a.partial_cmp(b).unwrap());
    budgets.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    let baselines = ["bohb", "bo", "random", "hyperband"];

    println!("== Equal budgets: scaled score difference (FLAML - baseline) ==");
    let mut rows = Vec::new();
    for &budget in &budgets {
        for base in &baselines {
            let (f, b) = paired_scores(&results, ("flaml", budget), (base, budget));
            let diffs: Vec<f64> = f.iter().zip(&b).map(|(x, y)| x - y).collect();
            if let Some(s) = box_stats(&diffs) {
                rows.push(vec![
                    format!("{budget}s"),
                    base.to_string(),
                    diffs.len().to_string(),
                    s.render(),
                ]);
            }
        }
    }
    println!(
        "{}",
        render_table(
            &["budget", "baseline", "n", "min [q1 | median | q3] max"],
            &rows
        )
    );

    println!("\n== Smaller FLAML budget: FLAML at b_i vs baseline at b_(i+1) ==");
    let mut rows = Vec::new();
    for w in budgets.windows(2) {
        for base in &baselines {
            let (f, b) = paired_scores(&results, ("flaml", w[0]), (base, w[1]));
            let diffs: Vec<f64> = f.iter().zip(&b).map(|(x, y)| x - y).collect();
            if let Some(s) = box_stats(&diffs) {
                rows.push(vec![
                    format!("{}s vs {}s", w[0], w[1]),
                    base.to_string(),
                    diffs.len().to_string(),
                    s.render(),
                ]);
            }
        }
    }
    println!(
        "{}",
        render_table(
            &["budgets", "baseline", "n", "min [q1 | median | q3] max"],
            &rows
        )
    );
}
