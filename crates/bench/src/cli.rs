//! Minimal argument parsing shared by the experiment binaries
//! (`--key value` pairs and `--flag` switches; no external dependencies),
//! plus [`ExecArgs`]: the execution knobs every binary shares —
//! `--seed`, `--jobs`, `--virtual`, `--chaos`, `--max-trials`,
//! `--journal DIR` / `--resume`, `--full` — parsed in one place instead
//! of ten.

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
    pub fn opt_usize(&self, key: &str) -> Option<usize> {
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
        let jobs = self.usize("jobs", 1);
        ExecArgs {
            seed: self.u64("seed", 0),
            jobs,
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
            batch: self.usize("batch", 32).max(1),
            concurrency: self.usize("concurrency", jobs).max(1),
            artifact: self.opt_str("artifact").map(PathBuf::from),
            port: self.usize("port", 8700).min(u16::MAX as usize) as u16,
            tenants: self.usize("tenants", 2).max(1),
            max_inflight: self.usize("max-inflight", 8).max(1),
            chunks: self.usize("chunks", 24).max(1),
            chunk_rows: self.usize("chunk-rows", 120).max(8),
            drift_at: self.usize("drift-at", 8).max(2),
            promote_margin: self.f64("promote-margin", 0.01).max(0.0),
            artifact_format: match self.opt_str("artifact-format") {
                None => flaml_core::ArtifactFormat::Json,
                Some(spec) => spec.parse().unwrap_or_else(|e| {
                    eprintln!("invalid --artifact-format: {e}");
                    std::process::exit(2);
                }),
            },
        }
    }
}

/// The execution knobs shared by every experiment binary, parsed once by
/// [`Args::exec`] instead of per-binary:
///
/// - `--seed N` — run seed (default 0);
/// - `--jobs N` — concurrent grid cells / pool workers;
/// - `--virtual` — deterministic virtual-clock budget accounting;
/// - `--chaos seed:rate` — deterministic fault injection;
/// - `--max-trials N` — per-run trial cap (also the "kill at trial N"
///   knob of the resume smoke test);
/// - `--journal DIR` — journal every FLAML run to
///   `DIR/<dataset>_<method>_<budget>s_seed<seed>.jsonl`;
/// - `--resume` — continue from the journals already in `DIR`;
/// - `--full` — full-scale dataset suites;
/// - `--batch N` — serving batch size in rows (default 32, clamped ≥ 1);
/// - `--concurrency N` — serving pool workers (default: `--jobs`);
/// - `--artifact PATH` — export the winning model as a serving artifact;
/// - `--port N` — service port to target or bind (default 8700);
/// - `--tenants N` — tenants a service load generator simulates
///   (default 2, clamped ≥ 1);
/// - `--max-inflight N` — the service admission bound (default 8,
///   clamped ≥ 1);
/// - `--chunks N` — stream length in chunks for online benchmarks
///   (default 24, clamped ≥ 1);
/// - `--chunk-rows N` — rows per stream chunk (default 120, clamped
///   ≥ 8);
/// - `--drift-at N` — chunks per stream concept segment, i.e. a
///   concept shift every N chunks (default 8, clamped ≥ 2);
/// - `--promote-margin X` — margin a challenger must beat the champion
///   by to be promoted (default 0.01, clamped ≥ 0);
/// - `--artifact-format json|blob` — format for exported serving
///   artifacts (default json; any other value aborts with exit 2).
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
    /// Serving batch size in rows (`--batch`, default 32, always ≥ 1).
    pub batch: usize,
    /// Serving pool workers (`--concurrency`, default: `jobs`, always
    /// ≥ 1).
    pub concurrency: usize,
    /// Where to export the winning model as a serving artifact
    /// (`--artifact PATH`), if requested.
    pub artifact: Option<PathBuf>,
    /// Service port to target or bind (`--port`, default 8700).
    pub port: u16,
    /// Tenants a service load generator simulates (`--tenants`,
    /// default 2, always ≥ 1).
    pub tenants: usize,
    /// Service admission bound (`--max-inflight`, default 8, always
    /// ≥ 1).
    pub max_inflight: usize,
    /// Stream length in chunks for online benchmarks (`--chunks`,
    /// default 24, always ≥ 1).
    pub chunks: usize,
    /// Rows per stream chunk (`--chunk-rows`, default 120, always ≥ 8).
    pub chunk_rows: usize,
    /// Chunks per stream concept segment — a concept shift every N
    /// chunks (`--drift-at`, default 8, always ≥ 2).
    pub drift_at: usize,
    /// Promotion margin for online champion–challenger benchmarks
    /// (`--promote-margin`, default 0.01, always ≥ 0).
    pub promote_margin: f64,
    /// Format for exported serving artifacts (`--artifact-format
    /// json|blob`, default json; anything else aborts with exit 2).
    pub artifact_format: flaml_core::ArtifactFormat,
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

    #[test]
    fn exec_parses_serving_knobs() {
        let e = args("--jobs 4 --batch 128 --concurrency 2 --artifact model.json").exec();
        assert_eq!(e.batch, 128);
        assert_eq!(e.concurrency, 2);
        assert_eq!(e.artifact, Some(PathBuf::from("model.json")));

        // Defaults: batch 32, concurrency follows --jobs, no artifact.
        let e = args("--jobs 3").exec();
        assert_eq!(e.batch, 32);
        assert_eq!(e.concurrency, 3);
        assert_eq!(e.artifact, None);

        // Degenerate values are clamped to 1, never 0.
        let e = args("--batch 0 --concurrency 0").exec();
        assert_eq!(e.batch, 1);
        assert_eq!(e.concurrency, 1);
    }

    #[test]
    fn exec_parses_server_knobs() {
        let e = args("--port 9100 --tenants 5 --max-inflight 3").exec();
        assert_eq!(e.port, 9100);
        assert_eq!(e.tenants, 5);
        assert_eq!(e.max_inflight, 3);

        // Defaults, and clamping of degenerate values.
        let e = args("").exec();
        assert_eq!(e.port, 8700);
        assert_eq!(e.tenants, 2);
        assert_eq!(e.max_inflight, 8);
        let e = args("--tenants 0 --max-inflight 0 --port 99999").exec();
        assert_eq!(e.tenants, 1);
        assert_eq!(e.max_inflight, 1);
        assert_eq!(e.port, u16::MAX);
    }

    #[test]
    fn exec_parses_online_knobs() {
        let e = args("--chunks 16 --chunk-rows 100 --drift-at 6 --promote-margin 0.02").exec();
        assert_eq!(e.chunks, 16);
        assert_eq!(e.chunk_rows, 100);
        assert_eq!(e.drift_at, 6);
        assert_eq!(e.promote_margin, 0.02);

        // Defaults, and clamping of degenerate values.
        let e = args("").exec();
        assert_eq!(e.chunks, 24);
        assert_eq!(e.chunk_rows, 120);
        assert_eq!(e.drift_at, 8);
        assert_eq!(e.promote_margin, 0.01);
        let e = args("--chunks 0 --chunk-rows 1 --drift-at 1 --promote-margin -3").exec();
        assert_eq!(e.chunks, 1);
        assert_eq!(e.chunk_rows, 8);
        assert_eq!(e.drift_at, 2);
        assert_eq!(e.promote_margin, 0.0);
    }

    #[test]
    fn exec_parses_artifact_format() {
        use flaml_core::ArtifactFormat;
        assert_eq!(args("").exec().artifact_format, ArtifactFormat::Json);
        assert_eq!(
            args("--artifact-format json").exec().artifact_format,
            ArtifactFormat::Json
        );
        assert_eq!(
            args("--artifact-format blob").exec().artifact_format,
            ArtifactFormat::Blob
        );
        // An invalid value exits(2) rather than silently defaulting —
        // covered here only at the parse layer, since exit() would kill
        // the test harness.
        assert!("yaml".parse::<ArtifactFormat>().is_err());
    }
}
