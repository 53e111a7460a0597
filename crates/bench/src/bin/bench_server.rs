//! Service load generator and crash-recovery verifier for
//! `flaml-server`.
//!
//! **Load phase** (default): against a running server, per tenant —
//! publish a locally-compiled artifact into a `static` slot, submit
//! `--fits` search requests, then drive `--requests` prediction
//! requests of `--rows` rows each, measuring *client-side* latency.
//! Unless `--no-wait`, every accepted search is then polled to a
//! terminal state. The run fails (exit 1) when prediction p99 exceeds
//! `--max-p99-ms`, throughput falls below `--min-rows-per-sec`, any
//! request errors, or any awaited search fails — so the service's
//! mixed fit/predict path is a gated benchmark, not a demo.
//!
//! **Verify phase** (`--verify`): for every request sidecar under
//! `--root`, wait for the server to report the search finished, then
//! re-run the *same* request in-process (sidecars and the server share
//! [`flaml_server::FitRequest::to_automl`], so there is one
//! construction path) and byte-compare canonical journal bytes. This
//! is the crash-recovery gate: the CI smoke test kills the server
//! mid-search, restarts it, and runs `--verify` to prove the resumed
//! traces are byte-identical to uninterrupted runs.
//!
//! The JSON report lands in `--out`
//! (default `bench_results/BENCH_server.json`).
//!
//! ```text
//! flaml-server --port 8700 --root state &
//! cargo run -p flaml-bench --release --bin bench_server -- \
//!     --port 8700 --tenants 2 --fits 1 --requests 200
//! cargo run -p flaml-bench --release --bin bench_server -- \
//!     --port 8700 --root state --verify
//! ```

use flaml_bench::Args;
use flaml_core::Journal;
use flaml_server::{DatasetPayload, FitAccepted, FitRequest, PredictRequest, SearchStatus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One-shot HTTP request; returns `(status, body)`.
fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| e.to_string())?;
    stream
        .write_all(body.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| e.to_string())?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut line = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        if line.trim_end().is_empty() {
            break;
        }
    }
    let mut body = String::new();
    reader
        .read_to_string(&mut body)
        .map_err(|e| e.to_string())?;
    Ok((status, body))
}

/// Deterministic binary-classification payload (same generator family
/// as the serving benches: two informative features, smooth boundary).
fn payload(n: usize, seed: u64) -> DatasetPayload {
    let mut rng = StdRng::seed_from_u64(seed);
    let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let y: Vec<f64> = (0..n)
        .map(|i| f64::from(x0[i] * 1.5 + (x1[i] - 0.4).powi(2) * 3.0 > 0.9))
        .collect();
    DatasetPayload {
        name: format!("bench-server-{seed}"),
        task: "binary".into(),
        columns: vec![x0, x1],
        target: y,
    }
}

fn fit_request(seed: u64, budget: f64, max_trials: usize) -> FitRequest {
    FitRequest {
        slot: "searched".into(),
        time_budget: budget,
        max_trials: Some(max_trials),
        seed,
        estimators: vec!["lightgbm".into(), "rf".into(), "lr".into()],
        sample_size_init: Some(100),
        slice_trials: Some(4),
        dataset: payload(400, seed),
    }
}

/// The load-phase report written to `bench_results/`.
#[derive(Debug, Serialize)]
struct LoadReport {
    tenants: usize,
    fits_submitted: usize,
    fits_accepted: usize,
    /// Typed 429s — admission control working, not an error.
    fits_rejected: usize,
    predict_requests: usize,
    rows_per_request: usize,
    predict_errors: usize,
    p50_ms: f64,
    p99_ms: f64,
    rows_per_sec: f64,
    max_p99_ms: f64,
    min_rows_per_sec: f64,
    searches_finished: usize,
    searches_failed: usize,
    waited: bool,
    pass: bool,
}

/// The verify-phase report.
#[derive(Debug, Serialize)]
struct VerifyReport {
    searches: usize,
    identical: usize,
    mismatched: Vec<String>,
    pass: bool,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn await_terminal(
    addr: &str,
    tenant: &str,
    id: &str,
    wait_secs: u64,
) -> Result<SearchStatus, String> {
    let deadline = Instant::now() + Duration::from_secs(wait_secs);
    loop {
        let (status, body) = http(addr, "GET", &format!("/tenants/{tenant}/searches/{id}"), "")?;
        if status != 200 {
            return Err(format!("status poll {tenant}/{id} -> {status}: {body}"));
        }
        let parsed: SearchStatus =
            serde_json::from_str(&body).map_err(|e| format!("bad status body: {e}"))?;
        if parsed.state == "finished" || parsed.state == "failed" {
            return Ok(parsed);
        }
        if Instant::now() > deadline {
            return Err(format!(
                "search {tenant}/{id} still {:?} after {wait_secs}s",
                parsed.state
            ));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn write_report<T: Serialize>(out_path: &str, report: &T) {
    flaml_bench::report::write_json(out_path, report).expect("write results json");
    eprintln!("[server] wrote {out_path}");
}

fn run_load(args: &Args, addr: &str, out_path: &str) {
    let exec = args.exec();
    let tenants: Vec<String> = (0..exec.tenants).map(|i| format!("t{i}")).collect();
    let fits = args.usize("fits", 1);
    let requests = args.usize("requests", 200);
    let rows = args.usize("rows", 256);
    let budget = args.f64("budget", 5.0);
    let max_trials = exec.max_trials.unwrap_or(10);
    let wait_secs = args.usize("wait-secs", 180) as u64;
    let max_p99_ms = args.f64("max-p99-ms", 50.0);
    let min_rows_per_sec = args.f64("min-rows-per-sec", 20_000.0);
    let no_wait = args.flag("no-wait");

    // A model every tenant can predict against immediately: fit a tiny
    // search locally, compile, publish into each tenant's static slot.
    let seed_request = fit_request(exec.seed, budget, 3);
    let artifact = seed_request
        .to_automl()
        .expect("local automl")
        .fit(&seed_request.to_dataset().expect("local dataset"))
        .expect("local fit")
        .compile()
        .expect("local compile")
        .to_artifact_string();
    for tenant in &tenants {
        let (status, body) = http(
            addr,
            "POST",
            &format!("/tenants/{tenant}/slots/static"),
            &artifact,
        )
        .expect("publish static slot");
        assert_eq!(status, 200, "publishing static slot failed: {body}");
    }

    // Fit stream: round-robin across tenants; 429s are recorded, not
    // fatal (that is admission control doing its job under load).
    let mut accepted: Vec<(String, String)> = Vec::new();
    let mut rejected = 0usize;
    let mut submitted = 0usize;
    for round in 0..fits {
        for (t, tenant) in tenants.iter().enumerate() {
            let request = fit_request(
                exec.seed + 1 + (round * tenants.len() + t) as u64,
                budget,
                max_trials,
            );
            let body = serde_json::to_string(&request).expect("serialize fit");
            let (status, body) =
                http(addr, "POST", &format!("/tenants/{tenant}/fit"), &body).expect("submit fit");
            submitted += 1;
            match status {
                202 => {
                    let ok: FitAccepted = serde_json::from_str(&body).expect("202 body");
                    accepted.push((tenant.clone(), ok.id));
                }
                429 => rejected += 1,
                other => panic!("fit -> {other}: {body}"),
            }
        }
    }

    // Predict stream under the concurrent fit load, client-side timed.
    let predict_body = {
        let mut rng = StdRng::seed_from_u64(exec.seed ^ 0x9e37);
        let columns: Vec<Vec<f64>> = (0..2)
            .map(|_| (0..rows).map(|_| rng.gen::<f64>()).collect())
            .collect();
        serde_json::to_string(&PredictRequest {
            slot: "static".into(),
            columns,
        })
        .expect("serialize predict")
    };
    let mut latencies = Vec::with_capacity(requests);
    let mut predict_errors = 0usize;
    let started = Instant::now();
    for i in 0..requests {
        let tenant = &tenants[i % tenants.len()];
        let t0 = Instant::now();
        match http(
            addr,
            "POST",
            &format!("/tenants/{tenant}/predict"),
            &predict_body,
        ) {
            Ok((200, _)) => latencies.push(t0.elapsed().as_secs_f64() * 1e3),
            Ok((status, body)) => {
                eprintln!("[server] predict -> {status}: {body}");
                predict_errors += 1;
            }
            Err(e) => {
                eprintln!("[server] predict error: {e}");
                predict_errors += 1;
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p50_ms = percentile(&latencies, 0.50);
    let p99_ms = percentile(&latencies, 0.99);
    let rows_per_sec = if elapsed > 0.0 {
        (latencies.len() * rows) as f64 / elapsed
    } else {
        0.0
    };

    // Drain the searches so the journals are complete for --verify.
    let mut finished = 0usize;
    let mut failed = 0usize;
    if !no_wait {
        for (tenant, id) in &accepted {
            match await_terminal(addr, tenant, id, wait_secs) {
                Ok(s) if s.state == "finished" => finished += 1,
                Ok(s) => {
                    eprintln!("[server] search {tenant}/{id} failed: {:?}", s.error);
                    failed += 1;
                }
                Err(e) => {
                    eprintln!("[server] {e}");
                    failed += 1;
                }
            }
        }
    }

    let pass = predict_errors == 0
        && !latencies.is_empty()
        && p99_ms <= max_p99_ms
        && rows_per_sec >= min_rows_per_sec
        && failed == 0;
    let report = LoadReport {
        tenants: tenants.len(),
        fits_submitted: submitted,
        fits_accepted: accepted.len(),
        fits_rejected: rejected,
        predict_requests: requests,
        rows_per_request: rows,
        predict_errors,
        p50_ms,
        p99_ms,
        rows_per_sec,
        max_p99_ms,
        min_rows_per_sec,
        searches_finished: finished,
        searches_failed: failed,
        waited: !no_wait,
        pass,
    };
    write_report(out_path, &report);
    println!(
        "server load: {} tenants, {}/{} fits accepted ({} admission-rejected), \
         predict p50 {:.3}ms p99 {:.3}ms (max {max_p99_ms}ms), {:.0} rows/sec \
         (min {min_rows_per_sec}), searches finished={finished} failed={failed}",
        report.tenants,
        report.fits_accepted,
        report.fits_submitted,
        report.fits_rejected,
        p50_ms,
        p99_ms,
        rows_per_sec,
    );
    if !pass {
        eprintln!("[server] FAIL: latency/throughput gate or search failure (see report)");
        std::process::exit(1);
    }
}

fn run_verify(args: &Args, addr: &str, root: &std::path::Path, out_path: &str) {
    let wait_secs = args.usize("wait-secs", 180) as u64;
    let mut searches = 0usize;
    let mut identical = 0usize;
    let mut mismatched = Vec::new();
    let tenant_dirs = std::fs::read_dir(root).expect("read state root");
    for entry in tenant_dirs.filter_map(|e| e.ok()) {
        if !entry.path().is_dir() {
            continue;
        }
        let tenant = entry.file_name().to_string_lossy().into_owned();
        let mut sidecars: Vec<std::path::PathBuf> = std::fs::read_dir(entry.path())
            .expect("read tenant dir")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".request.json"))
            })
            .collect();
        sidecars.sort();
        for sidecar in sidecars {
            let id = sidecar
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix(".request.json"))
                .expect("sidecar name")
                .to_string();
            searches += 1;
            let label = format!("{tenant}/{id}");
            // The server must finish the (possibly resumed) search.
            match await_terminal(addr, &tenant, &id, wait_secs) {
                Ok(s) if s.state == "finished" => {}
                Ok(s) => {
                    mismatched.push(format!("{label}: state {} ({:?})", s.state, s.error));
                    continue;
                }
                Err(e) => {
                    mismatched.push(format!("{label}: {e}"));
                    continue;
                }
            }
            // Re-run the identical request in-process and byte-compare.
            let request: FitRequest =
                serde_json::from_str(&std::fs::read_to_string(&sidecar).expect("read sidecar"))
                    .expect("parse sidecar");
            let ref_path = std::env::temp_dir().join(format!(
                "bench_server_ref_{}_{tenant}_{id}.jsonl",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&ref_path);
            let reference = request
                .to_automl()
                .expect("sidecar automl")
                .journal(&ref_path)
                .fit(&request.to_dataset().expect("sidecar dataset"))
                .map(|_| {
                    Journal::read(&ref_path)
                        .expect("reference journal")
                        .canonical_bytes()
                });
            let _ = std::fs::remove_file(&ref_path);
            let served = Journal::read(entry.path().join(format!("{id}.jsonl")))
                .expect("server journal")
                .canonical_bytes();
            match reference {
                Ok(reference) if reference == served => identical += 1,
                Ok(_) => mismatched.push(format!("{label}: journal bytes diverged")),
                Err(e) => mismatched.push(format!("{label}: reference run failed: {e}")),
            }
        }
    }
    let pass = searches > 0 && mismatched.is_empty();
    let report = VerifyReport {
        searches,
        identical,
        mismatched: mismatched.clone(),
        pass,
    };
    write_report(out_path, &report);
    println!(
        "server verify: {identical}/{searches} searches byte-identical to in-process reference runs"
    );
    if !pass {
        for m in &mismatched {
            eprintln!("[server] FAIL: {m}");
        }
        if searches == 0 {
            eprintln!(
                "[server] FAIL: no request sidecars under {}",
                root.display()
            );
        }
        std::process::exit(1);
    }
}

fn main() {
    let args = Args::parse();
    let exec = args.exec();
    let addr = args.str("addr", &format!("127.0.0.1:{}", exec.port));
    if args.flag("verify") {
        let root = std::path::PathBuf::from(args.str("root", "flaml-server-state"));
        let out_path = args.str("out", "bench_results/BENCH_server_verify.json");
        run_verify(&args, &addr, &root, &out_path);
    } else {
        let out_path = args.str("out", "bench_results/BENCH_server.json");
        run_load(&args, &addr, &out_path);
    }
}
