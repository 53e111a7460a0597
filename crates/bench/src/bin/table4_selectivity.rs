//! Table 4 — 95th-percentile q-error for selectivity estimation with a
//! one-CPU-minute budget (scaled here), comparing FLAML against a BO
//! AutoML (auto-sklearn stand-in), random search (TPOT stand-in) and the
//! Manual configuration of Dutt et al. (XGBoost, 16 trees, 16 leaves).
//!
//! Models regress `ln(selectivity)`; FLAML and the baselines directly
//! optimize the q-error quantile via the custom-metric API — the paper's
//! "it is easy to add customized metrics" feature in action.
//!
//! ```text
//! cargo run -p flaml-bench --release --bin table4_selectivity -- --budget 5
//! ```

use flaml_bench::{render_table, Args};
use flaml_core::{AutoMl, Estimator, LearnerKind, LearnerSelection};
use flaml_data::Dataset;
use flaml_metrics::{q_error_quantile, Metric};
use flaml_search::Config;
use std::time::Instant;

/// q-error (95th percentile) of a model's ln-space predictions on `test`.
fn qerr(model: &flaml_learners::FittedModel, test: &Dataset) -> f64 {
    let pred = model.predict(test);
    let values = pred.values().expect("regression predictions");
    q_error_quantile(values, test.target(), 0.95).expect("non-empty test set")
}

/// The Manual configuration from Dutt et al.: XGBoost with 16 trees and
/// 16 leaves, other hyperparameters at their initial values.
fn manual_model(train: &Dataset, seed: u64) -> flaml_learners::FittedModel {
    let kind = LearnerKind::XgBoost;
    let space = kind.space(train.n_rows());
    let mut values: Vec<f64> = space.init_config().values().to_vec();
    values[space.index_of("tree_num").expect("param")] = 16.0;
    values[space.index_of("leaf_num").expect("param")] = 16.0;
    values[space.index_of("learning_rate").expect("param")] = 0.3;
    values[space.index_of("min_child_weight").expect("param")] = 1.0;
    let config = Config::from(values);
    Estimator::from(kind)
        .fit(train, &config, &space, seed, None, None)
        .expect("manual config fits")
}

fn main() {
    let args = Args::parse();
    let exec = args.exec();
    let budget = args.f64("budget", 5.0);
    let seed = exec.seed;
    let quick = args.flag("quick");
    let suite = if quick {
        flaml_synth::selectivity_suite_scaled(seed, 2_000, 300, 100)
    } else {
        flaml_synth::selectivity_suite(seed)
    };

    println!("95th-percentile q-error, budget {budget}s per method (Manual = XGBoost 16x16):\n");
    let mut rows = Vec::new();
    for w in &suite {
        eprintln!("[table4] {} ...", w.name);
        let mut row = vec![w.name.clone()];

        // FLAML, the BO AutoML (auto-sklearn stand-in) and random search
        // (TPOT stand-in), each optimizing the q-error quantile directly.
        for (name, selection) in [
            ("flaml", LearnerSelection::Eci),
            ("bo", LearnerSelection::Bo),
            ("random", LearnerSelection::Random),
        ] {
            let t0 = Instant::now();
            let mut automl = AutoMl::new()
                .time_budget(budget)
                .metric(Metric::QErrorP95)
                .seed(seed)
                .learner_selection(selection);
            if let Some(path) =
                exec.journal_file(&flaml_bench::journal_stem(&w.name, name, budget, seed))
            {
                automl = if exec.resume && path.exists() {
                    automl.resume_from(path)
                } else {
                    automl.journal(path)
                };
            }
            match automl.fit(&w.train) {
                Ok(r) => row.push(format!(
                    "{:.2} ({:.0}s)",
                    qerr(&r.model, &w.test),
                    t0.elapsed().as_secs_f64()
                )),
                Err(e) => row.push(format!("fail: {e}")),
            }
        }

        // Manual configuration.
        let manual = manual_model(&w.train, seed);
        row.push(format!("{:.2}", qerr(&manual, &w.test)));

        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &[
                "dataset",
                "FLAML",
                "BO (auto-sk.)",
                "Random (TPOT)",
                "Manual"
            ],
            &rows
        )
    );
}
