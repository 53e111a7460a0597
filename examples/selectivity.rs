//! The paper's Section 5.3 application: selectivity estimation for a
//! query optimizer. FLAML searches for a regression model of
//! `ln(selectivity)` under a tight budget, directly optimizing the
//! 95th-percentile q-error, and is compared against the Manual
//! configuration of Dutt et al. (XGBoost, 16 trees, 16 leaves).
//!
//! ```text
//! cargo run --release --example selectivity
//! ```

use flaml::{AutoMl, Estimator, LearnerKind};
use flaml_metrics::{q_error_quantile, Metric};
use flaml_search::Config;
use flaml_synth::{selectivity_dataset, TableDistribution};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-dimensional clustered table with 2000 labelled range queries.
    let workload = selectivity_dataset(
        "4D-Forest",
        TableDistribution::Forest,
        4,
        10_000,
        2_000,
        500,
        0,
    );
    println!(
        "workload {}: {} train queries, {} test queries",
        workload.name,
        workload.train.n_rows(),
        workload.test.n_rows()
    );

    // FLAML with the q-error quantile as a custom optimization metric.
    let result = AutoMl::new()
        .time_budget(3.0)
        .metric(Metric::QErrorP95)
        .seed(0)
        .fit(&workload.train)?;
    let pred = result.model.predict(&workload.test);
    let flaml_q = q_error_quantile(pred.values()?, workload.test.target(), 0.95)?;
    println!(
        "FLAML  : {} ({}) -> 95th-pct q-error {flaml_q:.2}",
        result.best_learner, result.best_config_rendered
    );

    // The Manual configuration recommended by Dutt et al.
    let kind = LearnerKind::XgBoost;
    let space = kind.space(workload.train.n_rows());
    let mut values: Vec<f64> = space.init_config().values().to_vec();
    values[space.index_of("tree_num").expect("param exists")] = 16.0;
    values[space.index_of("leaf_num").expect("param exists")] = 16.0;
    values[space.index_of("learning_rate").expect("param exists")] = 0.3;
    values[space.index_of("min_child_weight").expect("param exists")] = 1.0;
    let manual = Estimator::from(kind).fit(
        &workload.train,
        &Config::from(values),
        &space,
        0,
        None,
        None,
    )?;
    let pred = manual.predict(&workload.test);
    let manual_q = q_error_quantile(pred.values()?, workload.test.target(), 0.95)?;
    println!("Manual : xgboost 16 trees x 16 leaves -> 95th-pct q-error {manual_q:.2}");

    if flaml_q < manual_q {
        println!("FLAML beats the manual configuration (as in the paper's Table 4).");
    } else {
        println!("Manual config wins on this draw; rerun with a larger budget.");
    }
    Ok(())
}
