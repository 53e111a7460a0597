//! Benchmark harness for the FLAML reproduction: everything needed to
//! regenerate the paper's tables and figures on the synthetic workloads.
//!
//! One binary per experiment (see `src/bin/`):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig1_anytime` | Figure 1 (a–c): per-trial regret/cost vs. time |
//! | `fig4_eci` | Figure 4: best error per learner + ECI trajectory |
//! | `table3_case_study` | Table 3: config trace, FLAML vs. BOHB |
//! | `table5_space` | Table 5: the default search space |
//! | `fig5_scores` | Figure 5: scaled scores per dataset x budget |
//! | `fig6_boxplot` | Figure 6: score-difference box plots |
//! | `table9_smaller_budget` | Table 9: % tasks won with smaller budget |
//! | `fig7_ablation` | Figure 7: ablation error curves |
//! | `fig8_ablation_all` | Figure 8: ablation score differences |
//! | `table4_selectivity` | Table 4: selectivity-estimation q-errors |
//! | `journal_tool` | (no figure) inspect / verify-replay / export-csv on trial journals |
//!
//! The figure and table binaries accept the shared execution flags
//! parsed by [`cli::ExecArgs`] — `--seed`, `--jobs`, `--virtual`,
//! `--chaos`, `--max-trials`, `--full`, and `--journal DIR` / `--resume`
//! for crash-safe journaling and continuation of every method's runs —
//! FLAML, its ablations and the baselines are all one `AutoMl::fit`;
//! `tests/cli.rs` runs them end to end. Throughput and latency of the
//! library's layers are measured by `flaml-perf` (`crates/perf`), not
//! here.
//!
//! The library half provides the shared machinery: a [`Method`] registry
//! over FLAML, its ablations and the baselines; the comparative-study
//! [`grid`] runner with scaled-score [`calibrate`]ion; and plain-text
//! [`report`] formatting (tables, box-plot summaries, win percentages).

#![warn(missing_docs)]

pub mod calibrate;
pub mod cli;
pub mod csv;
pub mod grid;
pub mod report;
pub mod run;

pub use calibrate::{calibration_anchors, constant_predictor};
pub use cli::{journal_stem, Args, ExecArgs};
pub use csv::{render_trials_csv, TRIAL_CSV_HEADER};
pub use grid::{paired_scores, run_grid, GridResult, GridSpec};
pub use report::{box_stats, percent_better_or_equal, render_table, BoxStats};
pub use run::{evaluate_scaled, holdout_split, Method, RunConfig};
