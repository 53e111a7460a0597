//! Minimal argument parsing shared by the experiment binaries
//! (`--key value` pairs and `--flag` switches; no external dependencies),
//! plus [`ExecArgs`]: the execution knobs the figure and table binaries
//! share — `--seed`, `--jobs`, `--virtual`, `--chaos`, `--max-trials`,
//! `--journal DIR` / `--resume`, `--full` — parsed in one place. A flag
//! no binary reads is ignored.

use flaml_core::{default_virtual_cost, TimeSource};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: HashSet<String>,
}

impl Args {
    /// Parses `std::env::args()`. A token `--key` followed by a non-`--`
    /// token is a key/value pair; a `--key` followed by another `--key`
    /// (or nothing) is a flag.
    pub fn parse() -> Args {
        Self::from_tokens(std::env::args().skip(1))
    }

    /// Parses an explicit token stream (testable).
    pub fn from_tokens(tokens: impl IntoIterator<Item = String>) -> Args {
        let tokens: Vec<String> = tokens.into_iter().collect();
        let mut args = Args::default();
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            if let Some(key) = t.strip_prefix("--") {
                if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                    args.values.insert(key.to_string(), tokens[i + 1].clone());
                    i += 2;
                } else {
                    args.flags.insert(key.to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        args
    }

    /// A float value, or the default.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.values
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// An integer value, or the default.
    pub fn usize(&self, key: &str, default: usize) -> usize {
        self.values
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// A u64 value, or the default.
    pub fn u64(&self, key: &str, default: u64) -> u64 {
        self.values
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// A string value, or the default.
    pub fn str(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A string value, if present.
    pub fn opt_str(&self, key: &str) -> Option<String> {
        self.values.get(key).cloned()
    }

    /// An integer value, if present.
    fn opt_usize(&self, key: &str) -> Option<usize> {
        self.values.get(key).and_then(|v| v.parse().ok())
    }

    /// Whether `--flag` was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.contains(key)
    }

    /// Comma-separated float list, or the default.
    pub fn f64_list(&self, key: &str, default: &[f64]) -> Vec<f64> {
        match self.values.get(key) {
            None => default.to_vec(),
            Some(v) => v.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        }
    }

    /// The `--chaos seed:rate` fault-injection spec, if present and
    /// well-formed (e.g. `--chaos 7:0.25`). A malformed spec aborts with
    /// an error message rather than silently running without faults.
    pub fn chaos(&self) -> Option<flaml_core::FaultPlan> {
        let spec = self.values.get("chaos")?;
        match flaml_core::FaultPlan::parse(spec) {
            Some(plan) => Some(plan),
            None => {
                eprintln!("invalid --chaos spec {spec:?}: expected seed:rate with rate in [0, 1]");
                std::process::exit(2);
            }
        }
    }

    /// Parses the execution knobs shared by every experiment binary.
    /// Aborts with a message when `--resume` is given without
    /// `--journal` (there is nothing to resume from).
    pub fn exec(&self) -> ExecArgs {
        let journal_dir = self.opt_str("journal").map(PathBuf::from);
        let resume = self.flag("resume");
        if resume && journal_dir.is_none() {
            eprintln!("--resume requires --journal DIR (the directory holding the journals)");
            std::process::exit(2);
        }
        ExecArgs {
            seed: self.u64("seed", 0),
            jobs: self.usize("jobs", 1),
            time_source: if self.flag("virtual") {
                TimeSource::Virtual(default_virtual_cost)
            } else {
                TimeSource::Wall
            },
            chaos: self.chaos(),
            max_trials: self.opt_usize("max-trials"),
            journal_dir,
            resume,
            full: self.flag("full"),
        }
    }
}

/// The execution knobs shared by the figure and table binaries, parsed
/// once by [`Args::exec`] instead of per-binary:
///
/// - `--seed N` — run seed (default 0);
/// - `--jobs N` — concurrent grid cells / pool workers;
/// - `--virtual` — deterministic virtual-clock budget accounting;
/// - `--chaos seed:rate` — deterministic fault injection;
/// - `--max-trials N` — per-run trial cap (also the "kill at trial N"
///   knob of the resume test in `tests/cli.rs`);
/// - `--journal DIR` — journal every run (FLAML and baselines) to
///   `DIR/<dataset>_<method>_<budget>s_seed<seed>.jsonl`;
/// - `--resume` — continue from the journals already in `DIR`;
/// - `--full` — full-scale dataset suites.
#[derive(Debug, Clone)]
pub struct ExecArgs {
    /// Run seed.
    pub seed: u64,
    /// Concurrent grid cells / pool workers.
    pub jobs: usize,
    /// Wall or virtual budget accounting (`--virtual`).
    pub time_source: TimeSource,
    /// Deterministic fault injection, if requested.
    pub chaos: Option<flaml_core::FaultPlan>,
    /// Optional per-run trial cap.
    pub max_trials: Option<usize>,
    /// Directory receiving one journal file per FLAML run.
    pub journal_dir: Option<PathBuf>,
    /// Whether to resume from journals already in `journal_dir`.
    pub resume: bool,
    /// Full-scale dataset suites (`--full`).
    pub full: bool,
}

impl ExecArgs {
    /// The dataset-suite scale implied by `--full`.
    pub fn scale(&self) -> flaml_synth::SuiteScale {
        if self.full {
            flaml_synth::SuiteScale::Full
        } else {
            flaml_synth::SuiteScale::Small
        }
    }

    /// The journal path for one run, if journaling is enabled:
    /// `DIR/<stem>.jsonl` (see [`journal_stem`]).
    pub fn journal_file(&self, stem: &str) -> Option<PathBuf> {
        self.journal_dir
            .as_ref()
            .map(|d| d.join(format!("{stem}.jsonl")))
    }

    /// A [`crate::run::RunConfig`] carrying these shared knobs. The
    /// journal path is per-run, so callers set `journal` themselves
    /// (usually via [`ExecArgs::journal_file`] + [`journal_stem`]).
    pub fn run_config(&self, budget_secs: f64, sample_init: usize) -> crate::run::RunConfig {
        crate::run::RunConfig {
            budget_secs,
            seed: self.seed,
            sample_init,
            time_source: self.time_source,
            max_trials: self.max_trials,
            workers: 1,
            event_sink: None,
            fault_plan: self.chaos,
            journal: None,
            resume: self.resume,
        }
    }
}

/// The canonical journal file stem for one run:
/// `<dataset>_<method>_<budget>s_seed<seed>`.
pub fn journal_stem(dataset: &str, method: &str, budget: f64, seed: u64) -> String {
    format!("{dataset}_{method}_{budget}s_seed{seed}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::from_tokens(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_values_and_flags() {
        let a = args("--budget 2.5 --full --seed 7");
        assert_eq!(a.f64("budget", 1.0), 2.5);
        assert!(a.flag("full"));
        assert_eq!(a.u64("seed", 0), 7);
        assert!(!a.flag("missing"));
        assert_eq!(a.f64("missing", 9.0), 9.0);
    }

    #[test]
    fn parses_lists() {
        let a = args("--budgets 0.5,2,8");
        assert_eq!(a.f64_list("budgets", &[1.0]), vec![0.5, 2.0, 8.0]);
        assert_eq!(a.f64_list("other", &[1.0]), vec![1.0]);
    }

    #[test]
    fn exec_parses_shared_knobs() {
        let e = args("--seed 3 --jobs 4 --virtual --max-trials 9 --journal logs").exec();
        assert_eq!(e.seed, 3);
        assert_eq!(e.jobs, 4);
        assert!(matches!(e.time_source, TimeSource::Virtual(_)));
        assert_eq!(e.max_trials, Some(9));
        assert!(!e.resume);
        assert_eq!(
            e.journal_file(&journal_stem("adult-like", "flaml", 0.5, 3)),
            Some(PathBuf::from("logs/adult-like_flaml_0.5s_seed3.jsonl"))
        );

        let e = args("--journal logs --resume").exec();
        assert!(e.resume);
        assert!(matches!(e.time_source, TimeSource::Wall));
        assert_eq!(e.max_trials, None);
        assert_eq!(e.journal_file("x"), Some(PathBuf::from("logs/x.jsonl")));

        let e = args("").exec();
        assert_eq!(e.journal_file("x"), None);
    }
}
