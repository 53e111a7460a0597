//! Inspect, verify, and export crash-safe trial journals written by
//! `--journal` runs (see [`flaml_core::AutoMl::journal`]).
//!
//! ```text
//! journal_tool inspect <journal.jsonl>
//! journal_tool verify-replay <journal.jsonl> [--test-ratio 0.2]
//! journal_tool export-csv <journal.jsonl> [--out trials.csv]
//! ```
//!
//! `inspect` prints the header, the committed trials, the per-learner
//! best configurations, and — when a `<stem>.status.json` sibling
//! exists next to the journal (the terminal record `flaml-server`
//! writes when a search finishes or fails) — that record verbatim.
//! `export-csv` renders the trial records as CSV.
//! `verify-replay` is the strong check: it reconstructs the run's
//! settings from the journal header, locates the dataset among the
//! built-in synthetic suites (by name, then by the header's content
//! fingerprint — both the full dataset and its standard train split are
//! tried), replays the journal through a fresh controller on a copy, and
//! compares the replayed trace bit-for-bit against the journaled one.

use flaml_bench::{holdout_split, render_table, Args};
use flaml_core::{
    default_virtual_cost, AutoMl, Journal, JournalHeader, LearnerKind, LearnerSelection,
    ResampleChoice, TimeSource,
};
use flaml_data::Dataset;
use flaml_metrics::Metric;
use flaml_synth::{binary_suite, multiclass_suite, regression_suite, SuiteScale};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, path) = match (argv.first(), argv.get(1)) {
        (Some(c), Some(p)) if !p.starts_with("--") => (c.as_str(), p.as_str()),
        _ => {
            eprintln!(
                "usage: journal_tool <inspect|verify-replay|export-csv> <journal.jsonl> [flags]"
            );
            std::process::exit(2);
        }
    };
    let args = Args::from_tokens(argv.iter().skip(2).cloned());
    let journal = match Journal::read(path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("[journal-tool] cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match cmd {
        "inspect" => inspect(&journal, path),
        "export-csv" => export_csv(&journal, args.opt_str("out")),
        "verify-replay" => {
            if !verify_replay(&journal, path, args.f64("test-ratio", 0.2)) {
                std::process::exit(1);
            }
        }
        other => {
            eprintln!("unknown subcommand {other}; expected inspect, verify-replay or export-csv");
            std::process::exit(2);
        }
    }
}

fn inspect(journal: &Journal, path: &str) {
    let h = &journal.header;
    println!("run:");
    println!("  schema         v{}", h.schema_version);
    println!("  seed           {}", h.seed);
    println!("  budget         {}s ({})", h.time_budget, h.time_source);
    println!(
        "  max_trials     {}",
        h.max_trials.map_or("-".into(), |n| n.to_string())
    );
    println!(
        "  sampling       {} (init {})",
        h.sampling, h.sample_size_init
    );
    println!(
        "  selection      {} / resample {} / metric {}",
        h.learner_selection, h.resample, h.metric
    );
    println!("  estimators     {}", h.estimators.join(", "));
    println!(
        "dataset: {} ({}, {} x {}, fingerprint {:#018x})",
        h.dataset.name, h.dataset.task, h.dataset.rows, h.dataset.features, h.dataset.fingerprint
    );
    println!(
        "journal: {} committed trials, {} committed bytes, {:.4}s budget spent",
        journal.trials.len(),
        journal.committed_bytes,
        journal.spent_budget()
    );
    print_terminal_record(path);
    println!();

    let rows: Vec<Vec<String>> = journal
        .trials
        .iter()
        .map(|t| {
            vec![
                t.iter.to_string(),
                t.learner.clone(),
                t.mode.clone(),
                t.status.clone(),
                t.sample_size.to_string(),
                if t.loss.is_finite() {
                    format!("{:.6}", t.loss)
                } else {
                    "fail".into()
                },
                format!("{:.4}", t.cost),
                format!("{:.4}", t.total_time),
                t.attempts.to_string(),
                if t.improved {
                    "*".into()
                } else {
                    String::new()
                },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "iter", "learner", "mode", "status", "sample", "loss", "cost_s", "time_s",
                "retries", "best"
            ],
            &rows
        )
    );

    match journal.best_trial() {
        Some(best) => println!(
            "\nbest: trial {} — {} (loss {:.6}) {}",
            best.iter, best.learner, best.loss, best.config
        ),
        None => println!("\nbest: none (no finite-loss trial committed)"),
    }
    let configs = journal.best_configs();
    if !configs.is_empty() {
        println!("per-learner best (warm-start seeds):");
        for (learner, values, loss) in configs {
            println!("  {learner:12} loss {loss:.6}  values {values:?}");
        }
    }
}

/// Prints the journal's `<stem>.status.json` sibling verbatim, when one
/// exists.
fn print_terminal_record(journal_path: &str) {
    let record = std::path::Path::new(journal_path).with_extension("status.json");
    if let Ok(text) = std::fs::read_to_string(&record) {
        println!("terminal record {}: {}", record.display(), text.trim_end());
    }
}

fn export_csv(journal: &Journal, out: Option<String>) {
    let csv = flaml_bench::render_trials_csv(&journal.trials);
    match out {
        Some(path) => {
            std::fs::write(&path, csv).expect("write csv");
            eprintln!(
                "[journal-tool] wrote {} trials to {path}",
                journal.trials.len()
            );
        }
        None => print!("{csv}"),
    }
}

/// Finds the dataset the journal was recorded against among the built-in
/// synthetic suites: match by name, then confirm by replaying the
/// controller's cleanup + fingerprint. Both the full dataset and its
/// standard train split (what the grid binaries journal) are candidates.
fn find_dataset(header: &JournalHeader, test_ratio: f64) -> Option<Dataset> {
    let mut candidates: Vec<Dataset> = Vec::new();
    for scale in [SuiteScale::Small, SuiteScale::Full] {
        for suite in [
            binary_suite(scale),
            multiclass_suite(scale),
            regression_suite(scale),
        ] {
            for d in suite {
                if d.name() == header.dataset.name {
                    let (train, _) = holdout_split(&d, test_ratio, header.seed);
                    candidates.push(train);
                    candidates.push(d);
                }
            }
        }
    }
    candidates.into_iter().find(|d| {
        let cleaned;
        let d = match d.degenerate_columns() {
            cols if cols.is_empty() => d,
            cols => match d.drop_columns(&cols) {
                Ok(c) => {
                    cleaned = c;
                    &cleaned
                }
                Err(_) => return false,
            },
        };
        d.n_rows() == header.dataset.rows
            && d.n_features() == header.dataset.features
            && d.fingerprint() == header.dataset.fingerprint
    })
}

/// Rebuilds the run from the header, resumes it on a scratch copy with
/// the trial cap at the journal's length (replay everything, run
/// nothing), and diffs the replayed trace against the journal.
fn verify_replay(journal: &Journal, path: &str, test_ratio: f64) -> bool {
    let h = &journal.header;
    let Some(data) = find_dataset(h, test_ratio) else {
        eprintln!(
            "[journal-tool] dataset {:?} (fingerprint {:#018x}) not found in the built-in \
             synthetic suites; verify-replay only supports journals recorded on them",
            h.dataset.name, h.dataset.fingerprint
        );
        return false;
    };
    let mut estimators = Vec::new();
    for name in &h.estimators {
        match LearnerKind::parse(name) {
            Some(kind) => estimators.push(kind),
            None => {
                eprintln!("[journal-tool] unknown estimator {name:?} in header");
                return false;
            }
        }
    }
    let Some(metric) = Metric::parse(&h.metric) else {
        eprintln!("[journal-tool] unknown metric {:?} in header", h.metric);
        return false;
    };
    let Some(selection) = LearnerSelection::parse(&h.learner_selection) else {
        eprintln!(
            "[journal-tool] unknown learner selection {:?} in header",
            h.learner_selection
        );
        return false;
    };
    let Some(resample) = ResampleChoice::parse(&h.resample) else {
        eprintln!(
            "[journal-tool] unknown resample choice {:?} in header",
            h.resample
        );
        return false;
    };

    // Resume reopens the journal for appending (and truncates any torn
    // tail), so verification runs on a scratch copy, never the original.
    let copy = std::env::temp_dir().join(format!(
        "journal_verify_{}_{}.jsonl",
        std::process::id(),
        h.dataset.fingerprint
    ));
    if let Err(e) = std::fs::copy(path, &copy) {
        eprintln!("[journal-tool] cannot copy journal for verification: {e}");
        return false;
    }

    let mut automl = AutoMl::new()
        .seed(h.seed)
        .time_budget(h.time_budget)
        .max_trials(journal.trials.len())
        .sample_size_init(h.sample_size_init)
        .sampling(h.sampling)
        .metric(metric)
        .estimators(estimators)
        .learner_selection(selection)
        .resample(resample)
        .resume_from(&copy);
    if h.time_source == "virtual" {
        automl = automl.time_source(TimeSource::Virtual(default_virtual_cost));
    }

    let result = automl.fit(&data);
    let _ = std::fs::remove_file(&copy);
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[journal-tool] replay failed: {e}");
            return false;
        }
    };

    if result.trials.len() != journal.trials.len() {
        eprintln!(
            "[journal-tool] replay produced {} trials, journal has {}",
            result.trials.len(),
            journal.trials.len()
        );
        return false;
    }
    for (r, j) in result.trials.iter().zip(&journal.trials) {
        let mismatch = r.iter != j.iter
            || r.learner != j.learner
            || r.sample_size != j.sample_size
            || r.error.to_bits() != j.loss.to_bits()
            || r.cost.to_bits() != j.cost.to_bits()
            || r.mode.name() != j.mode
            || r.status.to_string() != j.status
            || r.config_values != j.config_values;
        if mismatch {
            eprintln!(
                "[journal-tool] divergence at trial {}: replayed ({}, {}, s={}, loss={}, \
                 cost={}) vs journaled ({}, {}, s={}, loss={}, cost={})",
                j.iter,
                r.learner,
                r.mode.name(),
                r.sample_size,
                r.error,
                r.cost,
                j.learner,
                j.mode,
                j.sample_size,
                j.loss,
                j.cost
            );
            return false;
        }
    }
    println!(
        "[journal-tool] OK: {} trials replayed bit-identically ({} on {}, {:.4}s budget)",
        journal.trials.len(),
        h.estimators.join("/"),
        h.dataset.name,
        journal.spent_budget()
    );
    true
}
