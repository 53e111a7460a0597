//! `flaml-server` binary: bind a port, recover state, serve tenants.
//!
//! ```text
//! flaml-server [--port N] [--root DIR] [--max-inflight N]
//!              [--batch-rows N] [--serve-workers N] [--fit-workers N]
//!              [--tenants a,b,c] [--socket-timeout SECS]
//!              [--artifact-format json|blob] [--io-chaos SEED:RATE]
//! ```
//!
//! `--artifact-format blob` publishes artifacts as binary
//! blobs instead of JSON documents; recovery reads both regardless.
//! `--socket-timeout 0` disables socket timeouts. `--io-chaos`
//! wraps the disk in a seeded fault-injecting storage (short writes,
//! failed fsyncs, ENOSPC at the given rate) — a chaos-testing mode,
//! never for production.

use flaml_core::{ChaosStorage, IoFaultPlan};
use flaml_server::{Server, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mut cfg = ServerConfig::default();
    let mut port = 8700u16;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--port" => port = value("--port").parse().expect("--port: u16"),
            "--root" => cfg.root = PathBuf::from(value("--root")),
            "--max-inflight" => {
                cfg.max_inflight = value("--max-inflight")
                    .parse()
                    .expect("--max-inflight: usize");
            }
            "--batch-rows" => {
                cfg.batch_rows = value("--batch-rows").parse().expect("--batch-rows: usize");
            }
            "--serve-workers" => {
                cfg.serve_workers = value("--serve-workers")
                    .parse()
                    .expect("--serve-workers: usize");
            }
            "--fit-workers" => {
                cfg.fit_workers = value("--fit-workers")
                    .parse()
                    .expect("--fit-workers: usize");
            }
            "--tenants" => {
                cfg.tenants = Some(
                    value("--tenants")
                        .split(',')
                        .filter(|t| !t.is_empty())
                        .map(str::to_string)
                        .collect(),
                );
            }
            "--artifact-format" => {
                cfg.artifact_format = value("--artifact-format")
                    .parse()
                    .unwrap_or_else(|e| panic!("--artifact-format: {e}"));
            }
            "--socket-timeout" => {
                let secs: u64 = value("--socket-timeout")
                    .parse()
                    .expect("--socket-timeout: seconds");
                cfg.socket_timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--io-chaos" => {
                let spec = value("--io-chaos");
                let plan = IoFaultPlan::parse(&spec)
                    .unwrap_or_else(|| panic!("--io-chaos: SEED:RATE, got {spec:?}"));
                eprintln!("warning: disk chaos enabled ({spec}); not for production");
                cfg.storage = Arc::new(ChaosStorage::new(Arc::clone(&cfg.storage), plan));
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let root = cfg.root.clone();
    let server = Server::new(cfg).expect("server init");
    let listener = std::net::TcpListener::bind(("0.0.0.0", port)).expect("bind server port");
    let addr = listener.local_addr().expect("local addr");
    println!(
        "flaml-server listening on {addr} (state root {})",
        root.display()
    );
    server.serve(listener);
}
