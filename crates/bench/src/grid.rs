//! The comparative-study grid (datasets × budgets × methods) behind
//! Figures 5, 6, 8 and Table 9: run every method on every dataset at every
//! budget, evaluate on a held-out test split, and calibrate to the
//! benchmark's scaled score.
//!
//! With [`GridSpec::jobs`] > 1 the independent (dataset, budget, method)
//! cells execute concurrently on a [`flaml_exec::ExecPool`]; results come
//! back in submission order, so the results vector is identical at any
//! job count (stderr progress lines may interleave).

use crate::calibrate::calibration_anchors;
use crate::run::{evaluate_scaled, holdout_split, journaled, Method, RunConfig};
use flaml_core::{AutoMl, ExecPool, TimeSource};
use flaml_data::Dataset;
use flaml_exec::{event_channel, Job, Telemetry};
use flaml_metrics::{Metric, ScaleAnchors};
use serde::{Deserialize, Serialize};

/// One grid cell's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridResult {
    /// Dataset name.
    pub dataset: String,
    /// Dataset group ("binary" / "multiclass" / "regression").
    pub group: String,
    /// Method name.
    pub method: String,
    /// Budget in seconds.
    pub budget: f64,
    /// Raw test score (metric-dependent, higher is better).
    pub raw_score: f64,
    /// Benchmark-calibrated scaled score (0 = constant, 1 = tuned RF).
    pub scaled_score: f64,
    /// Number of trials the method completed.
    pub n_trials: usize,
    /// Best learner the method selected.
    pub best_learner: String,
    /// Trials that ran past their cooperative deadline.
    #[serde(default)]
    pub n_timeouts: usize,
    /// Trials whose learner panicked (absorbed as failed trials).
    #[serde(default)]
    pub n_panics: usize,
    /// Retries spent on transient failures across all trials.
    #[serde(default)]
    pub n_retries: usize,
    /// Learner quarantine episodes during the run.
    #[serde(default)]
    pub n_quarantined: usize,
}

/// Grid configuration.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Budgets in seconds, ascending (the paper's 1m / 10m / 1h, scaled).
    pub budgets: Vec<f64>,
    /// Methods to compare.
    pub methods: Vec<Method>,
    /// Test-set fraction per dataset.
    pub test_ratio: f64,
    /// Seed.
    pub seed: u64,
    /// FLAML's initial sample size / the bandit baselines' fidelity floor.
    pub sample_init: usize,
    /// Wall or virtual budget accounting.
    pub time_source: TimeSource,
    /// Budget for tuning the reference random forest of the calibration.
    pub rf_budget: f64,
    /// Optional per-run trial cap (keeps smoke runs fast).
    pub max_trials: Option<usize>,
    /// Grid cells to execute concurrently (1 = sequential).
    pub jobs: usize,
    /// Optional deterministic fault injection (`--chaos seed:rate`),
    /// applied to every method's trial execution.
    pub chaos: Option<flaml_core::FaultPlan>,
    /// Optional directory receiving one crash-safe trial journal per
    /// cell, named `<dataset>_<method>_<budget>s_seed<seed>.jsonl`
    /// (see [`crate::journal_stem`]), and one per dataset's calibration
    /// forest, `<dataset>_reference_<rf_budget>s_seed<seed>.jsonl`.
    pub journal_dir: Option<std::path::PathBuf>,
    /// With `journal_dir` set: cells and calibration forests whose
    /// journal already exists resume from it (replaying committed
    /// trials) instead of starting over.
    pub resume: bool,
}

impl Default for GridSpec {
    fn default() -> Self {
        GridSpec {
            budgets: vec![0.5, 2.0, 8.0],
            methods: Method::COMPARATIVE.to_vec(),
            test_ratio: 0.2,
            seed: 0,
            sample_init: 500,
            time_source: TimeSource::Wall,
            rf_budget: 2.0,
            max_trials: None,
            jobs: 1,
            chaos: None,
            journal_dir: None,
            resume: false,
        }
    }
}

/// A dataset prepared for its grid cells: the shared split and the
/// shared calibration anchors.
struct Prepared {
    train: Dataset,
    test: Dataset,
    metric: Metric,
    anchors: ScaleAnchors,
}

/// Runs the grid over `(group, datasets)` pairs, printing one progress
/// line per cell to stderr.
///
/// [`GridSpec::jobs`] independent cells run concurrently; the results
/// vector is in cell submission order (dataset, then budget, then
/// method) regardless of the job count.
pub fn run_grid(groups: &[(&str, Vec<Dataset>)], spec: &GridSpec) -> Vec<GridResult> {
    let pool = ExecPool::new(spec.jobs.max(1));

    // Stage 1: one train/test split and one calibration per dataset,
    // shared across all of its (budget, method) cells. Datasets are
    // independent, so preparation itself runs on the pool.
    let flat: Vec<(&str, &Dataset)> = groups
        .iter()
        .flat_map(|(g, ds)| ds.iter().map(move |d| (*g, d)))
        .collect();
    // Every search journals under `journal_dir`, the reference forests
    // too, so a resumed grid keeps the interrupted run's anchors.
    let journal = |data: &Dataset, method: &str, budget: f64| {
        let stem = crate::journal_stem(data.name(), method, budget, spec.seed);
        spec.journal_dir
            .as_ref()
            .map(|dir| dir.join(format!("{stem}.jsonl")))
    };
    let prep_jobs: Vec<Job<'_, Option<Prepared>>> = flat
        .iter()
        .map(|&(_, data)| {
            Job::new(move |_ctx| {
                let (train, test) = holdout_split(data, spec.test_ratio, spec.seed);
                let metric = Metric::default_for(data.task());
                let search = AutoMl::new()
                    .time_budget(spec.rf_budget)
                    .seed(spec.seed)
                    .time_source(spec.time_source);
                let capped = match spec.max_trials {
                    Some(n) => search.max_trials(n),
                    None => search,
                };
                let path = journal(data, "reference", spec.rf_budget);
                let base = journaled(capped, path.as_deref(), spec.resume);
                match calibration_anchors(&train, &test, metric, base) {
                    Ok(anchors) => Some(Prepared {
                        train,
                        test,
                        metric,
                        anchors,
                    }),
                    Err(e) => {
                        eprintln!("[grid] {}: calibration failed: {e}", data.name());
                        None
                    }
                }
            })
            .label(data.name())
        })
        .collect();
    let prepared: Vec<Option<Prepared>> = pool
        .run_batch(prep_jobs, None)
        .into_iter()
        .map(|r| r.status.into_value().flatten())
        .collect();

    // Stage 2: every (dataset, budget, method) cell is an independent
    // pool job. Submission order fixes the output order.
    let mut cells: Vec<(usize, f64, Method)> = Vec::new();
    for (i, prep) in prepared.iter().enumerate() {
        if prep.is_some() {
            for &budget in &spec.budgets {
                for &method in &spec.methods {
                    cells.push((i, budget, method));
                }
            }
        }
    }
    let flat_ref = &flat;
    let prepared_ref = &prepared;
    let cell_jobs: Vec<Job<'_, Option<GridResult>>> = cells
        .iter()
        .map(|&(i, budget, method)| {
            Job::new(move |_ctx| {
                let (group, data) = flat_ref[i];
                let prep = prepared_ref[i]
                    .as_ref()
                    .expect("only prepared cells queued");
                let (sink, events) = event_channel();
                let journal = journal(data, method.name(), budget);
                let result = match method.run_with(
                    &prep.train,
                    &RunConfig {
                        budget_secs: budget,
                        seed: spec.seed,
                        sample_init: spec.sample_init,
                        time_source: spec.time_source,
                        max_trials: spec.max_trials,
                        workers: 1,
                        event_sink: Some(sink),
                        fault_plan: spec.chaos,
                        journal,
                        resume: spec.resume,
                    },
                ) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("[grid] {} / {method} @ {budget}s failed: {e}", data.name());
                        return None;
                    }
                };
                let telemetry = Telemetry::new().drain(&events);
                let (raw, scaled) = evaluate_scaled(&result, &prep.test, prep.metric, prep.anchors);
                eprintln!(
                    "[grid] {group}/{} {method} @ {budget}s: scaled {scaled:.3} ({} trials)",
                    data.name(),
                    result.trials.len()
                );
                // Trials replayed from a journal emit no events; their
                // records carry the flags.
                let n_timeouts = telemetry
                    .timed_out
                    .max(result.trials.iter().filter(|t| t.timed_out).count());
                let n_panics = telemetry
                    .panicked
                    .max(result.trials.iter().filter(|t| t.panicked).count());
                let n_retries = telemetry.retried.max(result.n_retries);
                let n_quarantined = telemetry.quarantined.max(result.n_quarantined);
                Some(GridResult {
                    dataset: data.name().to_string(),
                    group: group.to_string(),
                    method: method.name().to_string(),
                    budget,
                    raw_score: raw,
                    scaled_score: scaled,
                    n_trials: result.trials.len(),
                    best_learner: result.best_learner.clone(),
                    n_timeouts,
                    n_panics,
                    n_retries,
                    n_quarantined,
                })
            })
            .label(format!("{}/{method}@{budget}", flat_ref[i].1.name()))
        })
        .collect();
    pool.run_batch(cell_jobs, None)
        .into_iter()
        .filter_map(|r| r.status.into_value().flatten())
        .collect()
}

/// Serializes grid results to a JSON file (pretty-printed, stable
/// order), published atomically.
///
/// # Errors
///
/// Returns any I/O or serialization error.
pub fn save_results(path: &str, results: &[GridResult]) -> std::io::Result<()> {
    crate::report::write_json(path, results)
}

/// Loads grid results saved by [`save_results`]; `None` if the file does
/// not exist or cannot be parsed.
pub fn load_results(path: &str) -> Option<Vec<GridResult>> {
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

/// The results `fig5_scores` saved at `path`, or — when there are none
/// — a quick grid of [`crate::Args::grid_spec`] over `--per-group`
/// (default 2) datasets a group, saved there.
pub fn load_or_run(path: &str, args: &crate::Args) -> Vec<GridResult> {
    if let Some(results) = load_results(path) {
        eprintln!("[grid] loaded {} results from {path}", results.len());
        return results;
    }
    eprintln!("[grid] {path} missing; running a quick grid");
    let groups = default_groups(args.exec().scale(), args.usize("per-group", 2));
    let results = run_grid(&groups, &args.grid_spec());
    save_results(path, &results).expect("write results json");
    results
}

/// The default grid used by Figures 5/6 and Table 9 when no results file
/// is given: a subset of each suite (or all of it with `full = true`).
pub fn default_groups(
    scale: flaml_synth::SuiteScale,
    per_group: usize,
) -> Vec<(&'static str, Vec<Dataset>)> {
    // Spread the subset across the size-ordered suite so small and large
    // datasets are both represented.
    let take = |v: Vec<Dataset>| -> Vec<Dataset> {
        if per_group >= v.len() {
            return v;
        }
        let n = v.len();
        let mut picked: Vec<usize> = (0..per_group)
            .map(|i| i * (n - 1) / (per_group - 1).max(1))
            .collect();
        picked.dedup();
        let mut v: Vec<Option<Dataset>> = v.into_iter().map(Some).collect();
        picked
            .into_iter()
            .map(|i| v[i].take().expect("unique index"))
            .collect()
    };
    vec![
        ("binary", take(flaml_synth::binary_suite(scale))),
        ("multiclass", take(flaml_synth::multiclass_suite(scale))),
        ("regression", take(flaml_synth::regression_suite(scale))),
    ]
}

/// Extracts the paired scores of `(method, budget)` across datasets, in
/// dataset order, for win-rate and box-plot computations. Only datasets
/// where both sides have results are included.
pub fn paired_scores(
    results: &[GridResult],
    a: (&str, f64),
    b: (&str, f64),
) -> (Vec<f64>, Vec<f64>) {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let find = |method: &str, budget: f64, dataset: &str| -> Option<f64> {
        results
            .iter()
            .find(|r| {
                r.method == method && (r.budget - budget).abs() < 1e-9 && r.dataset == dataset
            })
            .map(|r| r.scaled_score)
    };
    let mut datasets: Vec<&str> = results.iter().map(|r| r.dataset.as_str()).collect();
    datasets.dedup();
    let mut seen = std::collections::BTreeSet::new();
    for d in datasets {
        if !seen.insert(d) {
            continue;
        }
        if let (Some(x), Some(y)) = (find(a.0, a.1, d), find(b.0, b.1, d)) {
            xs.push(x);
            ys.push(y);
        }
    }
    (xs, ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flaml_core::default_virtual_cost;
    use flaml_synth::{binary_suite, SuiteScale};

    #[test]
    fn tiny_grid_produces_results() {
        let datasets = vec![binary_suite(SuiteScale::Small)[0].clone()];
        let spec = GridSpec {
            budgets: vec![0.3],
            methods: vec![Method::Flaml, Method::Random],
            time_source: TimeSource::Virtual(default_virtual_cost),
            rf_budget: 0.3,
            max_trials: Some(6),
            sample_init: 100,
            ..GridSpec::default()
        };
        let results = run_grid(&[("binary", datasets)], &spec);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.scaled_score.is_finite());
            assert!(r.n_trials > 0);
        }
    }

    #[test]
    fn parallel_grid_matches_sequential() {
        let datasets = vec![binary_suite(SuiteScale::Small)[0].clone()];
        let spec = GridSpec {
            budgets: vec![0.2, 0.4],
            methods: vec![Method::Flaml, Method::Random],
            time_source: TimeSource::Virtual(default_virtual_cost),
            rf_budget: 0.3,
            max_trials: Some(5),
            sample_init: 100,
            ..GridSpec::default()
        };
        let groups = [("binary", datasets)];
        let sequential = run_grid(&groups, &spec);
        let parallel = run_grid(
            &groups,
            &GridSpec {
                jobs: 4,
                ..spec.clone()
            },
        );
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.dataset, p.dataset);
            assert_eq!(s.method, p.method);
            assert_eq!(s.budget, p.budget);
            // Virtual clock: identical cells must score identically.
            assert_eq!(s.scaled_score.to_bits(), p.scaled_score.to_bits());
            assert_eq!(s.n_trials, p.n_trials);
        }
    }

    #[test]
    fn paired_scores_align_by_dataset() {
        let results = vec![
            GridResult {
                dataset: "a".into(),
                group: "binary".into(),
                method: "flaml".into(),
                budget: 1.0,
                raw_score: 0.9,
                scaled_score: 1.1,
                n_trials: 5,
                best_learner: "lightgbm".into(),
                n_timeouts: 0,
                n_panics: 0,
                n_retries: 0,
                n_quarantined: 0,
            },
            GridResult {
                dataset: "a".into(),
                group: "binary".into(),
                method: "bohb".into(),
                budget: 1.0,
                raw_score: 0.8,
                scaled_score: 0.7,
                n_trials: 5,
                best_learner: "xgboost".into(),
                n_timeouts: 0,
                n_panics: 0,
                n_retries: 0,
                n_quarantined: 0,
            },
            GridResult {
                dataset: "b".into(),
                group: "binary".into(),
                method: "flaml".into(),
                budget: 1.0,
                raw_score: 0.5,
                scaled_score: 0.4,
                n_trials: 5,
                best_learner: "rf".into(),
                n_timeouts: 0,
                n_panics: 0,
                n_retries: 0,
                n_quarantined: 0,
            },
        ];
        let (xs, ys) = paired_scores(&results, ("flaml", 1.0), ("bohb", 1.0));
        assert_eq!(xs, vec![1.1]);
        assert_eq!(ys, vec![0.7]);
    }
}
