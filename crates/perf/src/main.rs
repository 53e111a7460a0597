//! `flaml-perf` command line: `run`, `compare`.

use flaml_perf::compare::{compare, load_runs, BenchmarkFile};
use flaml_perf::report::Outcome;
use flaml_perf::run::{end_to_end, traced, Reps};
use flaml_perf::workloads::{RunCfg, NAMES};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage: flaml-perf run     [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                          [--out FILE]
       flaml-perf compare <runsA> <runsB>

run      every workload (or one), each in a process of its own; prints every
         metric as `workload/metric value unit`, then one JSON object.
         --trace 0 (default) is the end-to-end run: repetitions of the
         workload on fresh state for --seconds (default 30).
         --trace 1 is the separate traced run: per-layer metrics and
         runs/trace-<W>.json. Its work is fixed (two repetitions and the
         layer probes), so --seconds does not apply to it.
compare  two sets of --out files (a file or a directory each) under the
         bounds of BENCHMARK.json.
workloads: gbdt_deep cv_parallel tenant_churn mixed_tenants";

#[derive(Debug)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value:?}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                if !NAMES.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value:?}; expected one of {NAMES:?}"
                    ));
                }
                parsed.workload = Some(value.clone());
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: not a positive number"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(parsed)
}

fn append_record(path: &Path, outcome: &Outcome) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let line = serde_json::to_string(&outcome.run_record()).expect("record serializes");
    writeln!(file, "{line}")
}

/// Runs one workload in this process.
fn run_one(name: &str, args: &RunArgs) -> ExitCode {
    let cfg = RunCfg {
        seed: args.seed,
        scale: 1.0,
        long_pass: false,
    };
    let outcome = if args.trace {
        traced(name, cfg)
    } else {
        end_to_end(name, cfg, Reps::Seconds(args.seconds))
    };
    print!("{}", outcome.lines());
    if let Some(path) = &args.out {
        if let Err(e) = append_record(path, &outcome) {
            eprintln!("flaml-perf: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        serde_json::to_string(&outcome.result_line()).expect("result serializes")
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process of its own, so peak
/// memory and warm caches do not leak from one workload into the next.
fn run_all(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("flaml-perf: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for name in NAMES {
        let mut child = Command::new(&exe);
        child
            .arg("run")
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(out) = &args.out {
            child.arg("--out").arg(out);
        }
        // `status` waits for the child to end.
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("{name} ({status})")),
            Err(e) => failed.push(format!("{name} ({e})")),
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("flaml-perf: failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn run_compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let loaded = BenchmarkFile::load().and_then(|bench| {
        let a = load_runs(Path::new(a))?;
        let b = load_runs(Path::new(b))?;
        Ok((bench, a, b))
    });
    match loaded {
        Ok((bench, a, b)) => {
            let (table, regressed) = compare(&bench, &a, &b);
            print!("{table}");
            if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("flaml-perf compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        "run" => match parse_run(rest) {
            Ok(parsed) => match parsed.workload.clone() {
                Some(name) => run_one(&name, &parsed),
                None => run_all(&parsed),
            },
            Err(e) => {
                eprintln!("flaml-perf: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        "compare" => run_compare(rest),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
