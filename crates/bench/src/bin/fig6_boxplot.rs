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

use flaml_bench::grid::{default_groups, load_results, save_results};
use flaml_bench::{box_stats, paired_scores, render_table, run_grid, Args, GridSpec, Method};

fn main() {
    let args = Args::parse();
    let exec = args.exec();
    let path = args.str("from", "bench_results/fig5.json");
    let results = match load_results(&path) {
        Some(r) => {
            eprintln!("[fig6] loaded {} results from {path}", r.len());
            r
        }
        None => {
            eprintln!("[fig6] {path} missing; running a quick grid");
            let spec = GridSpec {
                budgets: args.f64_list("budgets", &[0.5, 2.0, 8.0]),
                methods: Method::COMPARATIVE.to_vec(),
                seed: exec.seed,
                time_source: exec.time_source,
                rf_budget: args.f64("rf-budget", 2.0),
                max_trials: exec.max_trials,
                jobs: exec.jobs,
                chaos: exec.chaos,
                journal_dir: exec.journal_dir.clone(),
                resume: exec.resume,
                ..GridSpec::default()
            };
            let groups = default_groups(exec.scale(), args.usize("per-group", 2));
            let r = run_grid(&groups, &spec);
            save_results(&path, &r).expect("write results json");
            r
        }
    };

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
