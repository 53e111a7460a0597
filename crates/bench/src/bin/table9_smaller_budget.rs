//! Table 9 — percentage of tasks where FLAML's error is better than or
//! equal to each baseline's while FLAML uses a *smaller* time budget
//! (0.1% tolerance on the scaled score, as in the paper).
//!
//! Reads `bench_results/fig5.json` if present; otherwise runs a quick
//! grid.
//!
//! ```text
//! cargo run -p flaml-bench --release --bin table9_smaller_budget
//! ```

use flaml_bench::grid::{default_groups, load_results, save_results};
use flaml_bench::run_grid;
use flaml_bench::{paired_scores, percent_better_or_equal, render_table, Args, GridSpec, Method};

fn main() {
    let args = Args::parse();
    let exec = args.exec();
    let path = args.str("from", "bench_results/fig5.json");
    let tolerance = args.f64("tolerance", 0.001);
    let results = match load_results(&path) {
        Some(r) => r,
        None => {
            eprintln!("[table9] {path} missing; running a quick grid");
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
    assert!(
        budgets.len() >= 3,
        "table 9 needs three budget levels, found {budgets:?}"
    );
    let (b0, b1, b2) = (budgets[0], budgets[1], budgets[2]);
    // The paper's columns: 1m-vs-10m, 10m-vs-1h, 1m-vs-1h.
    let pairs = [(b0, b1), (b1, b2), (b0, b2)];

    let mut rows = Vec::new();
    for base in ["bohb", "bo", "random", "hyperband"] {
        let mut row = vec![format!("FLAML vs {base}")];
        for (small, large) in pairs {
            let (f, b) = paired_scores(&results, ("flaml", small), (base, large));
            let pct = percent_better_or_equal(&f, &b, tolerance);
            row.push(format!("{pct:.0}% (n={})", f.len()));
        }
        rows.push(row);
    }
    let h0 = format!("{b0}s vs {b1}s");
    let h1 = format!("{b1}s vs {b2}s");
    let h2 = format!("{b0}s vs {b2}s");
    println!(
        "% of tasks where FLAML with the SMALLER budget is better or equal (tolerance {tolerance}):\n"
    );
    println!("{}", render_table(&["comparison", &h0, &h1, &h2], &rows));
}
