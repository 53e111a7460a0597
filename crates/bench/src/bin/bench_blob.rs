//! Binary-artifact benchmark: blob open-to-first-predict speedup over
//! the JSON artifact, layout-option correctness, and cross-process
//! page sharing.
//!
//! Per dataset, the serving roster (GBDT, random forest, linear,
//! stacked) is fitted once and each model is exported both ways — the
//! portable JSON document and the mmap-able binary blob. Three checks:
//!
//! 1. **Bit-exactness across every layout** — plain and quantized
//!    thresholds (the two [`BlobOptions`]) — the opened blob's
//!    predictions must equal the JSON-loaded [`CompiledModel`]'s
//!    bit-for-bit.
//! 2. **Open-to-first-predict latency** — the time from cold handle to
//!    the first prediction on a small probe request, JSON
//!    (`load` + predict) vs blob (`open` + predict). The gate is the
//!    geometric-mean speedup across dataset x learner cells (default
//!    `--min-speedup 5`, derated in CI): the blob must make model
//!    loading essentially free next to a JSON parse.
//! 3. **Page sharing** — two child processes map the same blob
//!    (`--map-probe PATH`, an internal mode) and the second's
//!    `/proc/self/smaps` must show `Pss` well under `Rss` for the
//!    mapping: the kernel shares the read-only pages instead of copying
//!    them per process. Skipped (reported, not failed) when the blob
//!    fell back to a heap read — e.g. a filesystem that cannot mmap.
//!
//! The report is written to `--out` (default
//! `bench_results/BENCH_blob.json`).
//!
//! ```text
//! cargo run -p flaml-bench --release --bin bench_blob -- --min-speedup 5
//! ```

use flaml_bench::grid::default_groups;
use flaml_bench::roster::{fastest, fit_roster, pred_bits, tile_dataset};
use flaml_bench::Args;
use flaml_core::{encode_blob, save_blob, BlobModel, BlobOptions, CompiledModel};
use flaml_data::Dataset;
use serde::Serialize;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// One dataset x learner blob-vs-JSON measurement.
#[derive(Debug, Clone, Serialize)]
struct BlobRow {
    dataset: String,
    group: String,
    learner: String,
    json_bytes: usize,
    blob_bytes: usize,
    /// Every [`BlobOptions`] layout predicted bit-identically to the
    /// JSON-loaded model.
    bits_identical: bool,
    /// The tuned blob actually got the quantized-threshold section.
    quantized: bool,
    /// Fastest JSON load + first-predict cycle.
    secs_json: f64,
    /// Fastest blob open + first-predict cycle.
    secs_blob: f64,
    speedup: f64,
}

/// The cross-process page-sharing probe result.
#[derive(Debug, Clone, Serialize)]
struct PageShare {
    /// Whether the probe ran against a real mmap (false = heap
    /// fallback or unreadable smaps; the check is skipped, not failed).
    probed: bool,
    /// Second mapper's resident kB for the blob mapping.
    rss_kb: u64,
    /// Second mapper's proportional-set kB for the same mapping.
    pss_kb: u64,
    /// `pss <= 0.7 * rss`: the pages are genuinely shared.
    shared: bool,
    note: String,
}

/// The full benchmark report.
#[derive(Debug, Clone, Serialize)]
struct BlobReport {
    rows: Vec<BlobRow>,
    page_share: PageShare,
    /// Geometric mean of per-cell open-to-first-predict speedups.
    speedup: f64,
    min_speedup: f64,
    pass: bool,
}

/// The first `rows` rows of `data` — a small serving request so the
/// open-to-first-predict timing is dominated by artifact opening, not
/// by inference.
fn head(data: &Dataset, rows: usize) -> Dataset {
    let n = data.n_rows().min(rows.max(1));
    let cols: Vec<Vec<f64>> = data.columns().iter().map(|c| c[..n].to_vec()).collect();
    Dataset::new(data.name(), data.task(), cols, data.target()[..n].to_vec())
        .expect("probe dataset")
}

/// Sums `Rss:`/`Pss:` over every `/proc/self/smaps` block whose header
/// names `path`. Returns zeros when smaps is unavailable.
fn smaps_for(path: &str) -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/smaps").unwrap_or_default();
    let kb = |line: &str| {
        line.split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let (mut rss, mut pss, mut in_block) = (0, 0, false);
    for line in text.lines() {
        if line.contains(path) {
            in_block = true;
        } else if in_block {
            if let Some(v) = line.strip_prefix("Rss:") {
                rss += kb(v);
            } else if let Some(v) = line.strip_prefix("Pss:") {
                pss += kb(v);
            } else if line.starts_with("VmFlags:") {
                in_block = false;
            }
        }
    }
    (rss, pss)
}

/// The `--map-probe` child: map the blob, touch every page, report the
/// mapping's residency as one JSON line, and with `--hold` keep the
/// mapping alive until stdin closes (so a second prober overlaps it).
fn run_map_probe(path: &str, hold: bool) -> ! {
    let blob = BlobModel::open(path).expect("map-probe: open blob");
    // Materializing the slabs reads every data page into the page
    // cache and this process's resident set.
    std::hint::black_box(blob.to_compiled());
    let (rss_kb, pss_kb) = smaps_for(path);
    println!(
        "{{\"is_mmap\":{},\"rss_kb\":{rss_kb},\"pss_kb\":{pss_kb}}}",
        u8::from(blob.is_mmap())
    );
    std::io::stdout().flush().expect("flush probe line");
    if hold {
        let mut line = String::new();
        let _ = std::io::stdin().read_line(&mut line);
    }
    std::process::exit(0);
}

/// Scrapes `"key":N` out of a probe child's JSON line.
fn probe_field(line: &str, key: &str) -> u64 {
    line.split(&format!("\"{key}\":"))
        .nth(1)
        .map(|tail| {
            tail.chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap_or(0)
        })
        .unwrap_or(0)
}

/// Spawns two children mapping `blob_path` concurrently and checks the
/// second one's smaps: with the first still holding the mapping, the
/// shared pages split, so `Pss` must land well under `Rss`.
fn page_share_probe(blob_path: &Path) -> PageShare {
    let skip = |note: String| PageShare {
        probed: false,
        rss_kb: 0,
        pss_kb: 0,
        shared: false,
        note,
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return skip(format!("current_exe failed: {e}")),
    };
    let mut holder = match Command::new(&exe)
        .arg("--map-probe")
        .arg(blob_path)
        .arg("--hold")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
    {
        Ok(child) => child,
        Err(e) => return skip(format!("spawning holder failed: {e}")),
    };
    // The holder's report line doubles as the "mapped and resident"
    // barrier; it then blocks on stdin with the mapping alive.
    let mut ready = String::new();
    let holder_ok = holder
        .stdout
        .take()
        .map(BufReader::new)
        .and_then(|mut r| r.read_line(&mut ready).ok())
        .is_some();
    let measured = Command::new(&exe)
        .arg("--map-probe")
        .arg(blob_path)
        .output();
    drop(holder.stdin.take()); // release the holder
    let _ = holder.wait();
    let out = match measured {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).into_owned(),
        Ok(out) => return skip(format!("prober exited with {}", out.status)),
        Err(e) => return skip(format!("spawning prober failed: {e}")),
    };
    if !holder_ok || probe_field(&ready, "is_mmap") == 0 || probe_field(&out, "is_mmap") == 0 {
        return skip("blob did not mmap (heap fallback); sharing not measurable".into());
    }
    let rss_kb = probe_field(&out, "rss_kb");
    let pss_kb = probe_field(&out, "pss_kb");
    if rss_kb == 0 {
        return skip("smaps reported no resident pages for the mapping".into());
    }
    PageShare {
        probed: true,
        rss_kb,
        pss_kb,
        // Fully shared between two mappers would be pss = rss/2 plus
        // per-page rounding; 0.7 leaves headroom for unshared tails.
        shared: pss_kb * 10 <= rss_kb * 7,
        note: format!("second mapper: rss {rss_kb} kB, pss {pss_kb} kB"),
    }
}

/// Both layouts: plain, and the tuned one [`save_blob`] writes below.
fn option_grid() -> [BlobOptions; 2] {
    [BlobOptions::default(), BlobOptions::tuned()]
}

fn main() {
    let args = Args::parse();
    if let Some(path) = args.opt_str("map-probe") {
        run_map_probe(&path, args.flag("hold"));
    }
    let exec = args.exec();
    let per_group = args.usize("per-group", if exec.full { usize::MAX } else { 2 });
    let min_speedup = args.f64("min-speedup", 5.0);
    let cycles = args.usize("cycles", 20);
    let probe_rows = args.usize("probe-rows", 64);
    let out_path = args.str("out", "bench_results/BENCH_blob.json");
    let scratch = std::env::temp_dir().join(format!("flaml_bench_blob_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    let mut rows: Vec<BlobRow> = Vec::new();
    let mut biggest_blob: Option<(usize, PathBuf)> = None;
    for (group, datasets) in default_groups(exec.scale(), per_group) {
        for data in &datasets {
            let request = tile_dataset(data, probe_rows);
            let probe = head(&request, probe_rows);
            for (learner, model) in fit_roster(data, exec.seed) {
                let compiled = match CompiledModel::compile(&model) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("[blob] {group}/{}: {learner}: {e}", data.name());
                        continue;
                    }
                };
                let json_path = scratch.join(format!("{}_{learner}.artifact.json", data.name()));
                let blob_path = scratch.join(format!("{}_{learner}.artifact.blob", data.name()));
                compiled.save(&json_path).expect("save json artifact");
                save_blob(&compiled, &blob_path, BlobOptions::tuned()).expect("save blob");

                // Reference bits come from the JSON round trip — the
                // portable format is the ground truth the blob must hit.
                let reference = CompiledModel::load(&json_path).expect("load json artifact");
                let want = pred_bits(&reference.predict(&probe));
                let mut bits_identical = true;
                for opts in option_grid() {
                    let blob =
                        BlobModel::from_bytes(&encode_blob(&compiled, opts)).expect("open blob");
                    if pred_bits(&blob.predict(&probe)) != want {
                        eprintln!(
                            "[blob] {group}/{}: {learner}: predictions diverged with {opts:?}",
                            data.name()
                        );
                        bits_identical = false;
                    }
                }

                let tuned = BlobModel::open(&blob_path).expect("open tuned blob");
                let quantized = tuned.quantized();
                let blob_bytes = tuned.n_bytes();
                drop(tuned);
                let json_bytes =
                    std::fs::metadata(&json_path).expect("json metadata").len() as usize;
                if biggest_blob.as_ref().is_none_or(|(n, _)| blob_bytes > *n) {
                    biggest_blob = Some((blob_bytes, blob_path.clone()));
                }

                let secs_json = fastest(cycles, || {
                    let m = CompiledModel::load(&json_path).expect("timed json load");
                    std::hint::black_box(m.predict(&probe));
                });
                let secs_blob = fastest(cycles, || {
                    let m = BlobModel::open(&blob_path).expect("timed blob open");
                    std::hint::black_box(m.predict(&probe));
                });
                let row = BlobRow {
                    dataset: data.name().to_string(),
                    group: group.to_string(),
                    learner: learner.to_string(),
                    json_bytes,
                    blob_bytes,
                    bits_identical,
                    quantized,
                    secs_json,
                    secs_blob,
                    speedup: secs_json / secs_blob.max(1e-9),
                };
                eprintln!(
                    "[blob] {group}/{}: {learner}: {} B json -> {} B blob, open+predict {:.1}us \
                     json vs {:.1}us blob ({:.1}x), bits={} quantized={}",
                    row.dataset,
                    row.json_bytes,
                    row.blob_bytes,
                    row.secs_json * 1e6,
                    row.secs_blob * 1e6,
                    row.speedup,
                    row.bits_identical,
                    row.quantized,
                );
                rows.push(row);
            }
        }
    }

    let page_share = match &biggest_blob {
        Some((_, path)) => page_share_probe(path),
        None => PageShare {
            probed: false,
            rss_kb: 0,
            pss_kb: 0,
            shared: false,
            note: "no blob written".into(),
        },
    };

    let correct = rows.iter().all(|r| r.bits_identical);
    let geomean = if rows.is_empty() {
        0.0
    } else {
        (rows.iter().map(|r| r.speedup.ln()).sum::<f64>() / rows.len() as f64).exp()
    };
    let report = BlobReport {
        page_share: page_share.clone(),
        speedup: geomean,
        min_speedup,
        pass: correct
            && !rows.is_empty()
            && geomean >= min_speedup
            && (!page_share.probed || page_share.shared),
        rows,
    };

    flaml_bench::report::write_json(&out_path, &report).expect("write results json");
    let _ = std::fs::remove_dir_all(&scratch);

    println!(
        "blob: {} model/dataset cells, {:.1}x geomean open-to-first-predict speedup (need >= \
         {min_speedup}x), bits_identical={}, page_share={}",
        report.rows.len(),
        report.speedup,
        correct,
        if !report.page_share.probed {
            format!("skipped ({})", report.page_share.note)
        } else if report.page_share.shared {
            format!("shared ({})", report.page_share.note)
        } else {
            format!("NOT shared ({})", report.page_share.note)
        },
    );
    eprintln!("[blob] wrote {out_path}");
    if !correct {
        eprintln!("[blob] FAIL: a blob layout predicted differently from the JSON artifact");
    }
    if report.page_share.probed && !report.page_share.shared {
        eprintln!("[blob] FAIL: two mappers did not share the blob's pages");
    }
    if !report.pass {
        std::process::exit(1);
    }
}
