//! Figure 5 — scaled scores of every method on every dataset at every
//! budget, grouped by task type (the paper's radar charts, as tables).
//!
//! Writes the raw grid to `bench_results/fig5.json`, which
//! `fig6_boxplot` and `table9_smaller_budget` reuse.
//!
//! ```text
//! cargo run -p flaml-bench --release --bin fig5_scores -- \
//!     --budgets 0.5,2,8 --per-group 2        # quick subset (default)
//! cargo run -p flaml-bench --release --bin fig5_scores -- --full
//! cargo run -p flaml-bench --release --bin fig5_scores -- \
//!     --virtual --jobs 8                     # parallel cells, same scores
//! ```
//!
//! `--jobs N` farms independent grid cells to N pool workers; under
//! `--virtual` (deterministic virtual-clock accounting) the scores are
//! identical at any job count, just faster on multi-core.
//!
//! `--journal DIR` writes one crash-safe trial journal per cell (every
//! method, baselines included);
//! a later invocation with `--journal DIR --resume` replays the committed
//! trials and continues (e.g. after a kill, or with a larger
//! `--max-trials`).

use flaml_bench::grid::{default_groups, save_results};
use flaml_bench::{render_table, run_grid, Args, GridSpec, Method};

fn main() {
    let args = Args::parse();
    let exec = args.exec();
    let full = exec.full;
    let budgets = args.f64_list("budgets", &[0.5, 2.0, 8.0]);
    let per_group = args.usize("per-group", if full { usize::MAX } else { 2 });
    let group_filter = args.str("group", "all");
    let out_path = args.str(
        "out",
        &if group_filter == "all" {
            "bench_results/fig5.json".to_string()
        } else {
            format!("bench_results/fig5_{group_filter}.json")
        },
    );

    let mut groups = default_groups(exec.scale(), per_group);
    if group_filter != "all" {
        groups.retain(|(g, _)| *g == group_filter);
        assert!(!groups.is_empty(), "unknown group {group_filter}");
    }
    let spec = GridSpec {
        budgets: budgets.clone(),
        methods: Method::COMPARATIVE.to_vec(),
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
    let results = run_grid(&groups, &spec);
    save_results(&out_path, &results).expect("write results json");
    let (timeouts, panics, retries, quarantines) = results.iter().fold((0, 0, 0, 0), |acc, r| {
        (
            acc.0 + r.n_timeouts,
            acc.1 + r.n_panics,
            acc.2 + r.n_retries,
            acc.3 + r.n_quarantined,
        )
    });
    eprintln!(
        "[fig5] wrote {} results to {out_path} ({timeouts} trial timeouts, {panics} panics, \
         {retries} retries, {quarantines} quarantines)",
        results.len()
    );

    // One table per (group, budget): rows = datasets, cols = methods.
    let methods: Vec<&str> = Method::COMPARATIVE.iter().map(|m| m.name()).collect();
    for (group, datasets) in &groups {
        for &budget in &budgets {
            println!("\n== {group} tasks, budget {budget}s (scaled score; >1 beats tuned RF) ==");
            let mut rows = Vec::new();
            for d in datasets {
                let mut row = vec![d.name().to_string()];
                for m in &methods {
                    let cell = results
                        .iter()
                        .find(|r| {
                            r.dataset == d.name()
                                && r.method == *m
                                && (r.budget - budget).abs() < 1e-9
                        })
                        .map(|r| format!("{:.3}", r.scaled_score))
                        .unwrap_or_else(|| "-".into());
                    row.push(cell);
                }
                rows.push(row);
            }
            let mut header = vec!["dataset"];
            header.extend(methods.iter());
            println!("{}", render_table(&header, &rows));
        }
    }

    // Win counts per budget: on how many datasets does FLAML have the top
    // scaled score?
    println!("\nFLAML top-1 count per budget:");
    for &budget in &budgets {
        let mut datasets: Vec<&str> = results
            .iter()
            .filter(|r| (r.budget - budget).abs() < 1e-9)
            .map(|r| r.dataset.as_str())
            .collect();
        datasets.sort();
        datasets.dedup();
        let mut wins = 0;
        for d in &datasets {
            let best = results
                .iter()
                .filter(|r| r.dataset == *d && (r.budget - budget).abs() < 1e-9)
                .max_by(|a, b| a.scaled_score.partial_cmp(&b.scaled_score).unwrap());
            if let Some(b) = best {
                if b.method == "flaml" {
                    wins += 1;
                }
            }
        }
        println!("  {budget}s: {wins}/{} datasets", datasets.len());
    }
}
