//! Drives a workload's repetitions and reduces them to the metrics.
//!
//! The end-to-end run repeats the workload on fresh state for as long
//! as `--seconds` allows and reports, for every timing, the *lower
//! quartile* over the repetitions (the upper one where higher is
//! better). The work of a repetition is fixed, so whatever differs
//! between two repetitions is the host: noise there only ever adds
//! time and comes in stretches of seconds, which rules out the mean
//! and the median (they follow the stretches), and now and then the
//! host runs a quarter *faster* for a few seconds, which rules out the
//! minimum (one run catches such a stretch, the next does not). The
//! traced run is separate: one untraced and one traced repetition,
//! then the layer probes.

use crate::harness::Ops;
use crate::layers;
use crate::procfs;
use crate::report::{Metrics, Outcome};
use crate::stats::{highest_supported, lower_quartile, median, upper_quartile};
use crate::trace::Tracer;
use crate::workloads::{run_rep, Rep, RunCfg};
use std::time::Instant;

/// How many repetitions a run makes.
#[derive(Debug, Clone, Copy)]
pub enum Reps {
    /// Exactly this many (the smoke test).
    Count(usize),
    /// As many as end within this many seconds, and at least
    /// [`MIN_REPS`]: how `--seconds` is honoured. The count changes how
    /// well the quartiles are known, never the work they describe.
    Seconds(f64),
}

/// Fewest repetitions a timed run makes, so that a quartile is not
/// simply the only value there is.
pub const MIN_REPS: usize = 4;

impl Reps {
    /// Whether another repetition fits after `done` of them, the
    /// longest of which took `longest_s`, `elapsed_s` into the run.
    fn allows(self, done: usize, elapsed_s: f64, longest_s: f64) -> bool {
        match self {
            Reps::Count(n) => done < n.max(1),
            Reps::Seconds(s) => done < MIN_REPS || elapsed_s + longest_s <= s,
        }
    }
}

fn fold_ops(reps: &[Rep]) -> Ops {
    let mut ops = Ops::default();
    for rep in reps {
        ops.absorb(rep.ops.clone());
    }
    ops
}

/// Checks that hold across repetitions of the same fixed work.
fn cross_checks(reps: &[Rep], ops: &mut Ops) {
    let first = &reps[0];
    for (i, rep) in reps.iter().enumerate().skip(1) {
        ops.check(rep.trials == first.trials, || {
            format!(
                "repetition {i} committed {} trials, repetition 0 {}",
                rep.trials, first.trials
            )
        });
        ops.check(rep.journals == first.journals, || {
            format!("repetition {i}: Journal::canonical_bytes differ from repetition 0")
        });
        ops.check(rep.artifact_bytes == first.artifact_bytes, || {
            format!("repetition {i}: artifact size differs from repetition 0")
        });
        ops.check(
            rep.holdout_loss.to_bits() == first.holdout_loss.to_bits(),
            || format!("repetition {i}: holdout_loss differs from repetition 0"),
        );
        // Journal lines carry measured seconds, whose digit count moves
        // bytes_written by a few bytes; the operation counts are exact.
        ops.check(
            (rep.store.fsyncs, rep.store.renames) == (first.store.fsyncs, first.store.renames),
            || {
                format!(
                    "repetition {i}: store counts {:?} differ from {:?}",
                    rep.store, first.store
                )
            },
        );
    }
    for (i, rep) in reps.iter().enumerate() {
        ops.check(!rep.pass.lat_ms.is_empty(), || {
            format!("repetition {i}: no predict request was answered")
        });
    }
}

fn outcome(
    name: &str,
    cfg: RunCfg,
    ops: Ops,
    metrics: Metrics,
    notes: Vec<(String, String)>,
) -> Outcome {
    Outcome {
        workload: name.to_string(),
        seed: cfg.seed,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        notes,
        errors: ops.errors,
    }
}

fn machine_notes(notes: &mut Vec<(String, String)>) {
    notes.push((
        "state_root_fs".into(),
        format!(
            "{} (fsyncs counted, not issued)",
            procfs::fs_type(&crate::state::runs_dir())
        ),
    ));
    notes.push((
        "available_parallelism".into(),
        std::thread::available_parallelism()
            .map_or(1, |c| c.get())
            .to_string(),
    ));
}

/// The end-to-end run: repetitions on fresh state, nine metrics.
pub fn end_to_end(name: &str, cfg: RunCfg, reps: Reps) -> Outcome {
    let steal0 = procfs::host_steal();
    let started = Instant::now();
    let mut runs: Vec<Rep> = Vec::new();
    let mut longest_s = 0.0f64;
    while reps.allows(runs.len(), started.elapsed().as_secs_f64(), longest_s) {
        let rep_started = Instant::now();
        runs.push(run_rep(name, cfg, None).0);
        longest_s = longest_s.max(rep_started.elapsed().as_secs_f64());
    }
    let mut ops = fold_ops(&runs);
    cross_checks(&runs, &mut ops);

    let of = |f: fn(&Rep) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    let answered = |r: &&Rep| !r.pass.lat_ms.is_empty();
    let passes = |f: fn(&Rep) -> f64| -> Vec<f64> { runs.iter().filter(answered).map(f).collect() };
    let setups = of(|r| r.setup_s);
    let fit_walls = of(|r| r.fit_wall_s);
    let fit_cpus = of(|r| r.fit_cpu_s);
    let p50s = passes(|r| r.pass.p50_ms());
    let rates = passes(|r| r.pass.rows_per_s());

    let fit_wall_s = lower_quartile(&fit_walls);
    let or_nan = |v: &[f64], f: fn(&[f64]) -> f64| if v.is_empty() { f64::NAN } else { f(v) };
    let mut m = Metrics::default();
    m.push("setup_s", lower_quartile(&setups), "s");
    m.push("fit_wall_s", fit_wall_s, "s");
    m.push("fit_cpu_s", lower_quartile(&fit_cpus), "s");
    m.push(
        "trials_per_s",
        runs[0].trials as f64 / fit_wall_s.max(1e-9),
        "1/s",
    );
    m.push("predict_p50_ms", or_nan(&p50s, lower_quartile), "ms");
    m.push(
        "predict_rows_per_s",
        or_nan(&rates, upper_quartile),
        "rows/s",
    );
    m.push("holdout_loss", runs[0].holdout_loss, "ratio");
    m.push("peak_rss_mb", procfs::peak_rss_mib(), "MiB");
    m.push("artifact_kb", runs[0].artifact_bytes as f64 / 1024.0, "KiB");

    let mut notes = Vec::new();
    machine_notes(&mut notes);
    notes.push(("repetitions".into(), runs.len().to_string()));
    notes.push(("trials".into(), runs[0].trials.to_string()));
    // Every repetition's value, so a reader can see what the quartile
    // was taken over (and try another reducer on a kept log).
    for (what, unit, values) in [
        ("setup_s", "s", &setups),
        ("fit_wall_s", "s", &fit_walls),
        ("fit_cpu_s", "s", &fit_cpus),
        ("predict_p50_ms", "ms", &p50s),
        ("predict_rows_per_s", "rows/s", &rates),
    ] {
        notes.push((
            format!("{what}_all"),
            format!("{values:?} {unit} (median {:.6})", or_nan(values, median)),
        ));
    }
    notes.push((
        "predict_samples_per_pass".into(),
        format!(
            "{:?}",
            runs.iter().map(|r| r.pass.lat_ms.len()).collect::<Vec<_>>()
        ),
    ));
    notes.push((
        "generator_late_ms".into(),
        format!("{:.3}", median(&of(|r| r.pass.late_ms_max))),
    ));
    notes.push(("store_counts".into(), format!("{:?}", runs[0].store)));
    notes.push((
        "host_steal_pct".into(),
        format!("{:.2}", procfs::steal_pct(steal0, procfs::host_steal())),
    ));
    outcome(name, cfg, ops, m, notes)
}

/// The traced run: per-layer metrics, spans to `runs/trace-<name>.json`.
pub fn traced(name: &str, cfg: RunCfg) -> Outcome {
    let cfg = RunCfg {
        long_pass: true,
        ..cfg
    };
    let (untraced, _) = run_rep(name, cfg, None);
    let tracer = Tracer::new();
    let (rep, probe) = run_rep(name, cfg, Some(&tracer));
    let mut ops = Ops::default();
    ops.absorb(untraced.ops.clone());
    ops.absorb(rep.ops.clone());
    cross_checks(&[untraced.clone(), rep.clone()], &mut ops);

    let mut m = Metrics::default();
    match probe {
        Some(probe) => layers::measure(probe, &rep, untraced.fit_wall_s, &mut m, &mut ops),
        None => {
            ops.check(false, || {
                "the traced repetition published no model to probe".to_string()
            });
        }
    }

    let mut notes = Vec::new();
    machine_notes(&mut notes);
    notes.push((
        "seconds".into(),
        "not applied: the traced run is fixed work (two repetitions and the probes)".into(),
    ));
    notes.push(("traced_fit_wall_s".into(), format!("{:.4}", rep.fit_wall_s)));
    notes.push((
        "untraced_fit_wall_s".into(),
        format!("{:.4}", untraced.fit_wall_s),
    ));
    if let Some((q, v)) = highest_supported(&rep.pass.lat_ms) {
        notes.push((
            "predict_highest_supported_percentile".into(),
            format!(
                "p{} = {v:.4} ms of {} samples",
                q * 100.0,
                rep.pass.lat_ms.len()
            ),
        ));
    }
    let path = crate::state::runs_dir().join(format!("trace-{name}.json"));
    match std::fs::write(&path, tracer.to_json()) {
        Ok(()) => notes.push((
            "trace_json".into(),
            format!("{} ({} spans)", path.display(), tracer.spans().len()),
        )),
        Err(e) => {
            ops.check(false, || format!("writing {}: {e}", path.display()));
        }
    }
    outcome(name, cfg, ops, m, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_bound_the_run_after_the_fewest_repetitions() {
        let timed = Reps::Seconds(30.0);
        // The first MIN_REPS run whatever they cost.
        assert!(timed.allows(0, 0.0, 0.0));
        assert!(timed.allows(MIN_REPS - 1, 100.0, 40.0));
        // After that, only while the longest one seen still fits.
        assert!(timed.allows(MIN_REPS, 26.0, 3.0));
        assert!(!timed.allows(MIN_REPS, 28.0, 3.0));
        // A count is a count.
        assert!(Reps::Count(2).allows(1, 1e9, 1e9));
        assert!(!Reps::Count(2).allows(2, 0.0, 0.0));
        assert!(Reps::Count(0).allows(0, 0.0, 0.0));
    }
}
