//! Figure 8 — scaled-score differences between FLAML and its own
//! ablation variants (roundrobin / fulldata / cv) over the dataset
//! suites, per budget. Positive = the full FLAML is better.
//!
//! ```text
//! cargo run -p flaml-bench --release --bin fig8_ablation_all
//! ```

use flaml_bench::grid::{default_groups, save_results};
use flaml_bench::{box_stats, paired_scores, render_table, run_grid, Args, GridSpec, Method};

fn main() {
    let args = Args::parse();
    let exec = args.exec();
    let full = exec.full;
    let budgets = args.f64_list("budgets", &[0.5, 2.0, 8.0]);
    let per_group = args.usize("per-group", if full { usize::MAX } else { 2 });

    let spec = GridSpec {
        budgets: budgets.clone(),
        methods: Method::ABLATIONS.to_vec(),
        seed: exec.seed,
        sample_init: args.usize("sample-init", 500),
        time_source: exec.time_source,
        rf_budget: args.f64("rf-budget", 2.0),
        max_trials: exec.max_trials,
        jobs: exec.jobs,
        chaos: exec.chaos,
        journal_dir: exec.journal_dir.clone(),
        resume: exec.resume,
        ..GridSpec::default()
    };
    let groups = default_groups(exec.scale(), per_group);
    let results = run_grid(&groups, &spec);
    let out_path = args.str("out", "bench_results/fig8.json");
    save_results(&out_path, &results).expect("write results json");
    eprintln!("[fig8] wrote {} results to {out_path}", results.len());

    println!("Scaled score difference (FLAML - variant); positive = full FLAML better:\n");
    let mut rows = Vec::new();
    for &budget in &budgets {
        for variant in ["roundrobin", "fulldata", "cv"] {
            let (f, v) = paired_scores(&results, ("flaml", budget), (variant, budget));
            let diffs: Vec<f64> = f.iter().zip(&v).map(|(x, y)| x - y).collect();
            if let Some(s) = box_stats(&diffs) {
                let wins = diffs.iter().filter(|d| **d >= -1e-3).count();
                rows.push(vec![
                    format!("{budget}s"),
                    variant.to_string(),
                    diffs.len().to_string(),
                    s.render(),
                    format!("{wins}/{}", diffs.len()),
                ]);
            }
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "budget",
                "variant",
                "n",
                "min [q1 | median | q3] max",
                "flaml >= variant"
            ],
            &rows
        )
    );
}
