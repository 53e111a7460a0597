//! Disk-fault chaos: the durability contract of the whole fit → journal
//! → artifact → publish pipeline, enforced by enumerating injected I/O
//! faults.
//!
//! The gate test is the crashpoint sweep: a fault-free chaos run counts
//! every mutating storage op the lifecycle issues, then the server is
//! re-run once per op with a simulated crash at exactly that op. After
//! each crash a restart against the real disk must converge to the same
//! terminal state — a finished search whose journal is canonically
//! byte-identical to a never-interrupted reference run — or a clean,
//! typed absence (the client saw an error and no durable intent
//! exists). Never a wedge, never a torn file under a final name.

mod common;

use common::{await_terminal, http, payload, scratch_root};
use flaml_core::{
    ArtifactFormat, BlobModel, BlobOptions, ChaosStorage, IoFaultPlan, Journal, SearchHandle,
};
use flaml_server::{FitRequest, SearchStatus, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// The smallest search that exercises the full durable pipeline:
/// sidecar, journal create + per-trial commits, slot artifact, terminal
/// record.
fn tiny_fit_request(slot: &str) -> FitRequest {
    FitRequest {
        slot: slot.into(),
        time_budget: 5.0,
        max_trials: Some(3),
        seed: 7,
        estimators: vec!["lr".into()],
        sample_size_init: Some(100),
        slice_trials: Some(4),
        dataset: payload(120, 11),
    }
}

fn config(root: PathBuf, storage: Option<Arc<ChaosStorage>>) -> ServerConfig {
    ServerConfig {
        root,
        max_inflight: 4,
        batch_rows: 64,
        serve_workers: 1,
        fit_workers: 1,
        storage: match storage {
            Some(chaos) => chaos,
            None => flaml_core::disk(),
        },
        ..ServerConfig::default()
    }
}

fn start(cfg: ServerConfig) -> (Server, SocketAddr) {
    Server::new(cfg)
        .expect("server init")
        .start("127.0.0.1:0")
        .expect("server start")
}

/// Reference journal bytes for `request`, produced by an uninterrupted
/// run on the real disk.
fn reference_bytes(request: &FitRequest, tag: &str) -> String {
    let path = std::env::temp_dir().join(format!(
        "flaml_durability_ref_{tag}_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let data = request.dataset.clone().into_dataset().expect("dataset");
    request
        .to_automl()
        .expect("automl")
        .journal(&path)
        .fit(&data)
        .expect("reference fit");
    let bytes = Journal::read(&path)
        .expect("reference journal")
        .canonical_bytes();
    let _ = std::fs::remove_file(&path);
    bytes
}

fn stats_counter(addr: SocketAddr, field: &str) -> u64 {
    let (status, body) = http(addr, "GET", "/stats", "");
    assert_eq!(status, 200, "stats failed: {body}");
    // The vendored serde_json has no dynamic Value; scrape the one
    // integer field out of the flat stats body instead.
    let key = format!("\"{field}\":");
    let tail = body
        .split(&key)
        .nth(1)
        .unwrap_or_else(|| panic!("stats field {field} missing: {body}"));
    tail.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("stats field {field} not an integer: {body}"))
}

#[test]
fn crashpoint_sweep_recovers_byte_identically_at_every_op() {
    let request = tiny_fit_request("sweep");
    let reference = reference_bytes(&request, "sweep");
    let body = serde_json::to_string(&request).expect("serialize request");

    // Fault-free chaos run: count every mutating storage op in the
    // accepted-to-published lifecycle.
    let total = {
        let root = scratch_root("sweep_clean");
        let chaos = Arc::new(ChaosStorage::new(flaml_core::disk(), IoFaultPlan::new(1)));
        let (server, addr) = start(config(root.clone(), Some(Arc::clone(&chaos))));
        let (status, resp) = http(addr, "POST", "/tenants/acme/fit", &body);
        assert_eq!(status, 202, "{resp}");
        let done = await_terminal(addr, "acme", "s0000");
        assert_eq!(done.state, "finished", "{:?}", done.error);
        server.stop();
        let resumed = Journal::read(root.join("acme/s0000.jsonl"))
            .expect("journal")
            .canonical_bytes();
        assert_eq!(resumed, reference, "fault-free chaos run diverged");
        chaos.ops_issued()
    };
    // Pinned: a change that adds or drops a storage op on the search
    // lifecycle must say so here.
    assert_eq!(total, 29, "mutating storage ops of one search lifecycle");

    for k in 0..total {
        let root = scratch_root(&format!("sweep_{k}"));
        let chaos = Arc::new(ChaosStorage::new(
            flaml_core::disk(),
            IoFaultPlan::new(1).crash_at(k),
        ));
        let (server, addr) = start(config(root.clone(), Some(Arc::clone(&chaos))));
        let (status, _resp) = http(addr, "POST", "/tenants/acme/fit", &body);
        let admitted = status == 202;
        if admitted {
            // The search must reach a terminal state even though the
            // storage died underneath it — failed is fine, wedged is not.
            let done = await_terminal(addr, "acme", "s0000");
            assert!(
                done.state == "finished" || done.state == "failed",
                "op {k}: non-terminal state {}",
                done.state
            );
        } else {
            assert_eq!(status, 500, "op {k}: unexpected admission status");
        }
        server.stop();

        // Restart on the real disk: recovery must converge to the
        // reference run, re-admitting from whatever survived.
        let (server, addr) = start(config(root.clone(), None));
        let (status, _) = http(addr, "GET", "/tenants/acme/searches/s0000", "");
        if status == 404 {
            // The crash preceded the durable sidecar: the client saw an
            // error and no intent survived. Resubmit and finish.
            let (status, resp) = http(addr, "POST", "/tenants/acme/fit", &body);
            assert_eq!(status, 202, "op {k}: resubmit failed: {resp}");
        }
        let done = await_terminal(addr, "acme", "s0000");
        assert_eq!(
            done.state, "finished",
            "op {k}: recovery did not finish: {:?}",
            done.error
        );
        let resumed = Journal::read(root.join("acme/s0000.jsonl"))
            .expect("journal parses after recovery")
            .canonical_bytes();
        assert_eq!(resumed, reference, "op {k}: journal diverged after crash");
        // The published winner serves.
        let predict = "{\"slot\":\"sweep\",\"columns\":[[0.5,0.1],[0.2,0.9]]}";
        let (status, resp) = http(addr, "POST", "/tenants/acme/predict", predict);
        assert_eq!(status, 200, "op {k}: predict after recovery failed: {resp}");
        server.stop();
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn torn_journal_tail_resumes_byte_identically_at_every_offset() {
    let request = tiny_fit_request("torn");
    let reference = reference_bytes(&request, "torn");
    let data = request.dataset.clone().into_dataset().expect("dataset");

    // A pristine finished journal to tear.
    let pristine = std::env::temp_dir().join(format!(
        "flaml_durability_torn_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&pristine);
    request
        .to_automl()
        .expect("automl")
        .journal(&pristine)
        .fit(&data)
        .expect("pristine fit");
    let bytes = std::fs::read(&pristine).expect("journal bytes");
    let last_record_start = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|i| i + 1)
        .expect("journal has records");

    // Tear the final record at every byte offset — from losing it
    // whole to keeping all but its newline — and resume each time.
    for cut in last_record_start..bytes.len() {
        let torn = std::env::temp_dir().join(format!(
            "flaml_durability_torn_{}_{cut}.jsonl",
            std::process::id()
        ));
        std::fs::write(&torn, &bytes[..cut]).expect("write torn journal");
        let mut handle = SearchHandle::attach(request.to_automl().expect("automl"), &torn)
            .unwrap_or_else(|e| panic!("attach at cut {cut} failed: {e}"));
        handle
            .run_to_end(&data, 4)
            .unwrap_or_else(|e| panic!("resume at cut {cut} failed: {e}"));
        let resumed = Journal::read(&torn)
            .expect("torn journal parses")
            .canonical_bytes();
        assert_eq!(resumed, reference, "cut {cut}: resumed journal diverged");
        let _ = std::fs::remove_file(&torn);
    }
    let _ = std::fs::remove_file(&pristine);
}

#[test]
fn torn_sidecar_is_quarantined_and_server_keeps_serving() {
    let request = tiny_fit_request("sidecar");
    let sidecar_bytes = serde_json::to_string(&request)
        .expect("serialize")
        .into_bytes();

    // Every proper prefix of a JSON document is unreadable; sweep a few
    // representative tears including empty and almost-complete.
    let cuts = [0, 1, sidecar_bytes.len() / 2, sidecar_bytes.len() - 1];
    for cut in cuts {
        let root = scratch_root(&format!("sidecar_{cut}"));
        let tenant_dir = root.join("acme");
        std::fs::create_dir_all(&tenant_dir).expect("tenant dir");
        std::fs::write(tenant_dir.join("s0000.request.json"), &sidecar_bytes[..cut])
            .expect("torn sidecar");

        let (server, addr) = start(config(root.clone(), None));
        let done = await_terminal(addr, "acme", "s0000");
        assert_eq!(done.state, "failed", "cut {cut}");
        assert!(
            done.error.as_deref().unwrap_or("").contains("quarantined"),
            "cut {cut}: error should mention quarantine: {:?}",
            done.error
        );
        assert!(
            tenant_dir.join("s0000.request.json.corrupt").exists(),
            "cut {cut}: sidecar not quarantined"
        );
        assert!(
            !tenant_dir.join("s0000.request.json").exists(),
            "cut {cut}: corrupt sidecar left in place"
        );
        assert!(stats_counter(addr, "storage_quarantined") >= 1);

        // The loss is contained: new work on the same server succeeds.
        let body = serde_json::to_string(&tiny_fit_request("fresh")).expect("serialize");
        let (status, resp) = http(addr, "POST", "/tenants/acme/fit", &body);
        assert_eq!(status, 202, "cut {cut}: {resp}");
        let done = await_terminal(addr, "acme", "s0001");
        assert_eq!(done.state, "finished", "cut {cut}: {:?}", done.error);
        server.stop();
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn corrupt_terminal_record_is_quarantined_and_rederived() {
    let request = tiny_fit_request("record");
    let reference = reference_bytes(&request, "record");
    let body = serde_json::to_string(&request).expect("serialize");

    // Run a search to completion to get a real terminal record.
    let root = scratch_root("record");
    let (server, addr) = start(config(root.clone(), None));
    let (status, resp) = http(addr, "POST", "/tenants/acme/fit", &body);
    assert_eq!(status, 202, "{resp}");
    let done = await_terminal(addr, "acme", "s0000");
    assert_eq!(done.state, "finished", "{:?}", done.error);
    server.stop();

    let record = root.join("acme/s0000.status.json");
    let pristine = std::fs::read_to_string(&record).expect("record text");
    let status: SearchStatus = serde_json::from_str(&pristine).expect("record parses");
    assert_eq!(
        (status.id.as_str(), status.state.as_str()),
        ("s0000", "finished")
    );

    // Tears at every 7th byte offset, then two records that parse but
    // are not this search's terminal status: every one is outside input,
    // quarantined on restart, and the journal re-derives the search.
    let mut cases: Vec<(String, String)> = (0..pristine.len())
        .step_by(7)
        .map(|cut| (format!("cut {cut}"), pristine[..cut].to_string()))
        .collect();
    let mut running = status.clone();
    running.state = "running".into();
    let mut other = status.clone();
    other.id = "s0001".into();
    for (what, record) in [("running", running), ("wrong id", other)] {
        let text = serde_json::to_string(&record).expect("serialize");
        cases.push((what.to_string(), text));
    }
    for (what, bytes) in cases {
        std::fs::write(&record, bytes).expect("corrupt record");

        let (server, addr) = start(config(root.clone(), None));
        let done = await_terminal(addr, "acme", "s0000");
        assert_eq!(done.state, "finished", "{what}: {:?}", done.error);
        assert!(stats_counter(addr, "storage_quarantined") >= 1, "{what}");
        assert!(
            root.join("acme/s0000.status.json.corrupt").exists(),
            "{what}: record not quarantined"
        );
        let resumed = Journal::read(root.join("acme/s0000.jsonl"))
            .expect("journal")
            .canonical_bytes();
        assert_eq!(resumed, reference, "{what}: journal changed");
        let predict = "{\"slot\":\"record\",\"columns\":[[0.5,0.1],[0.2,0.9]]}";
        let (status, resp) = http(addr, "POST", "/tenants/acme/predict", predict);
        assert_eq!(status, 200, "{what}: {resp}");
        server.stop();
        // The re-derived search wrote a fresh record that parses.
        let rewritten: SearchStatus =
            serde_json::from_str(&std::fs::read_to_string(&record).expect("record rewritten"))
                .unwrap_or_else(|e| panic!("{what}: rewritten record unreadable: {e}"));
        assert_eq!(rewritten.state, "finished", "{what}");
        let _ = std::fs::remove_file(root.join("acme/s0000.status.json.corrupt"));
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_pretty_printed_fit_body_is_persisted_verbatim_and_resumes() {
    let request = tiny_fit_request("pretty");
    let reference = reference_bytes(&request, "pretty");
    let body = format!(
        "\n  {}  \n",
        serde_json::to_string_pretty(&request).expect("serialize")
    );

    // A fault-free chaos run counts the lifecycle's ops; the crash
    // then lands halfway through it, after the sidecar.
    let total = {
        let root = scratch_root("pretty_clean");
        let chaos = Arc::new(ChaosStorage::new(flaml_core::disk(), IoFaultPlan::new(1)));
        let (server, addr) = start(config(root.clone(), Some(Arc::clone(&chaos))));
        let (status, resp) = http(addr, "POST", "/tenants/acme/fit", &body);
        assert_eq!(status, 202, "{resp}");
        await_terminal(addr, "acme", "s0000");
        server.stop();
        let _ = std::fs::remove_dir_all(&root);
        chaos.ops_issued()
    };
    let root = scratch_root("pretty");
    let chaos = Arc::new(ChaosStorage::new(
        flaml_core::disk(),
        IoFaultPlan::new(1).crash_at(total / 2),
    ));
    let (server, addr) = start(config(root.clone(), Some(chaos)));
    let (status, resp) = http(addr, "POST", "/tenants/acme/fit", &body);
    assert_eq!(status, 202, "{resp}");
    let done = await_terminal(addr, "acme", "s0000");
    assert_eq!(done.state, "failed", "the crash must land mid-search");
    server.stop();

    let sidecar = std::fs::read(root.join("acme/s0000.request.json")).expect("sidecar");
    assert!(
        sidecar == body.as_bytes(),
        "the sidecar is not the body as sent"
    );

    let (server, addr) = start(config(root.clone(), None));
    let done = await_terminal(addr, "acme", "s0000");
    assert_eq!(done.state, "finished", "{:?}", done.error);
    let resumed = Journal::read(root.join("acme/s0000.jsonl"))
        .expect("journal")
        .canonical_bytes();
    assert_eq!(resumed, reference, "the resumed journal diverged");
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupt_slot_artifact_is_quarantined_not_served() {
    let root = scratch_root("slot_corrupt");
    let slots = root.join("acme/slots");
    std::fs::create_dir_all(&slots).expect("slots dir");
    std::fs::write(
        slots.join("direct.artifact.json"),
        b"{\"not\":\"an artifact\"",
    )
    .expect("corrupt slot");

    let (server, addr) = start(config(root.clone(), None));
    let predict = "{\"slot\":\"direct\",\"columns\":[[0.5,0.1]]}";
    let (status, _) = http(addr, "POST", "/tenants/acme/predict", predict);
    assert_eq!(status, 404, "corrupt slot must not serve");
    assert!(slots.join("direct.artifact.json.corrupt").exists());
    assert!(!slots.join("direct.artifact.json").exists());
    assert!(stats_counter(addr, "storage_quarantined") >= 1);
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn enospc_on_admission_returns_507_and_counts_the_fault() {
    let root = scratch_root("enospc_admit");
    let chaos = Arc::new(ChaosStorage::new(
        flaml_core::disk(),
        IoFaultPlan::new(9).enospc(1.0),
    ));
    let (server, addr) = start(config(root.clone(), Some(chaos)));
    let body = serde_json::to_string(&tiny_fit_request("full")).expect("serialize");
    let (status, resp) = http(addr, "POST", "/tenants/acme/fit", &body);
    assert_eq!(status, 507, "expected Insufficient Storage: {resp}");
    assert!(resp.contains("no space"), "untyped ENOSPC body: {resp}");
    // The server survives a full disk: health and stats still answer.
    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(stats_counter(addr, "storage_faults") >= 1);
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn enospc_mid_search_fails_typed_with_parseable_journal() {
    // Pick a seed whose first injected ENOSPC lands after admission
    // (the sidecar publish is the first ~7 mutating ops) so the fault
    // strikes the journal/artifact phase of a running search. The scan
    // is over the plan's pure decision function, so it is deterministic.
    let plan = (0..100_000u64)
        .map(|seed| IoFaultPlan::new(seed).enospc(0.25))
        .find(|plan| {
            let first = (0..200).find(|&op| plan.decide(op).is_some());
            matches!(first, Some(op) if (10..=24).contains(&op))
        })
        .expect("a seed with a mid-search first fault exists");

    let root = scratch_root("enospc_mid");
    let chaos = Arc::new(ChaosStorage::new(flaml_core::disk(), plan));
    let (server, addr) = start(config(root.clone(), Some(chaos)));
    let body = serde_json::to_string(&tiny_fit_request("mid")).expect("serialize");
    let (status, resp) = http(addr, "POST", "/tenants/acme/fit", &body);
    assert_eq!(status, 202, "admission should precede the fault: {resp}");
    let done = await_terminal(addr, "acme", "s0000");
    assert_eq!(done.state, "failed", "search should fail typed");
    assert!(
        done.error.as_deref().unwrap_or("").contains("no space"),
        "untyped mid-search ENOSPC: {:?}",
        done.error
    );
    // The fault was counted and the server keeps answering.
    assert!(stats_counter(addr, "storage_faults") >= 1);
    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    // The journal never holds torn bytes: if it exists, it parses.
    let journal = root.join("acme/s0000.jsonl");
    if journal.exists() {
        Journal::read(&journal).expect("journal truncated to committed prefix");
    }
    server.stop();

    // After the disk recovers (plain storage), restart converges to a
    // terminal state: finished via journal re-admission, or failed with
    // the persisted typed error if the terminal record survived.
    let (server, addr) = start(config(root.clone(), None));
    let done = await_terminal(addr, "acme", "s0000");
    match done.state.as_str() {
        "finished" => {}
        "failed" => assert!(done.error.is_some(), "persisted failure lost its message"),
        other => panic!("non-terminal state after restart: {other}"),
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stalled_client_gets_408_and_is_counted() {
    let root = scratch_root("timeout");
    let mut cfg = config(root.clone(), None);
    cfg.socket_timeout = Some(Duration::from_millis(150));
    let (server, addr) = start(cfg);

    // Send half a request and stall: the server must time the socket
    // out, answer 408, and drop the connection.
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("client timeout");
    stream
        .write_all(b"POST /tenants/acme/fit HTTP/1.1\r\ncontent-length: 100\r\n")
        .expect("partial request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read 408");
    assert!(
        response.starts_with("HTTP/1.1 408"),
        "expected 408, got: {response}"
    );
    assert!(stats_counter(addr, "serve_timed_out") >= 1);
    // A well-behaved client is unaffected.
    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// Extracts the served-model fingerprint from a `/predict` body.
fn predict_fingerprint(body: &str) -> u64 {
    body.split("\"fingerprint\":")
        .nth(1)
        .unwrap_or_else(|| panic!("no fingerprint in predict body: {body}"))
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("fingerprint parses")
}

#[test]
fn blob_save_crashpoint_sweep_never_tears_the_final_name() {
    // A real fitted model to publish as a binary blob.
    let request = tiny_fit_request("blob");
    let data = request.dataset.clone().into_dataset().expect("dataset");
    let result = request
        .to_automl()
        .expect("automl")
        .fit(&data)
        .expect("fit");
    let compiled = result.compile().expect("compile");

    let dir = scratch_root("blob_save_sweep");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let reference_path = dir.join("ref.artifact.blob");
    let fp = flaml_core::save_blob(&compiled, &reference_path, BlobOptions::tuned())
        .expect("reference save");
    let reference = std::fs::read(&reference_path).expect("reference bytes");

    // Count the mutating storage ops a fault-free blob save issues.
    let total = {
        let chaos = Arc::new(ChaosStorage::new(flaml_core::disk(), IoFaultPlan::new(1)));
        flaml_core::save_blob_with(
            chaos.as_ref(),
            &dir.join("clean.artifact.blob"),
            &compiled,
            BlobOptions::tuned(),
        )
        .expect("clean chaos save");
        chaos.ops_issued()
    };
    assert!(
        total >= 3,
        "blob save should issue several ops, got {total}"
    );

    // Crash at every op: the final name either never appears, or holds
    // the complete byte-identical blob — never a torn prefix.
    for k in 0..total {
        let path = dir.join(format!("crash_{k}.artifact.blob"));
        let chaos = Arc::new(ChaosStorage::new(
            flaml_core::disk(),
            IoFaultPlan::new(1).crash_at(k),
        ));
        let saved =
            flaml_core::save_blob_with(chaos.as_ref(), &path, &compiled, BlobOptions::tuned());
        if path.exists() {
            assert_eq!(
                std::fs::read(&path).expect("blob bytes"),
                reference,
                "op {k}: bytes under the final name are not the complete blob"
            );
            let blob = BlobModel::open(&path)
                .unwrap_or_else(|e| panic!("op {k}: blob under final name rejected: {e}"));
            assert_eq!(blob.fingerprint(), fp, "op {k}");
        } else {
            assert!(
                saved.is_err(),
                "op {k}: save claimed success but the final name is absent"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_blob_format_search_leaves_one_blob_slot_artifact() {
    let request = tiny_fit_request("blobart");
    let body = serde_json::to_string(&request).expect("serialize");

    // Run a search to completion under the blob format.
    let root = scratch_root("blob_artifact");
    let mut cfg = config(root.clone(), None);
    cfg.artifact_format = ArtifactFormat::Blob;
    let (server, addr) = start(cfg);
    let (status, resp) = http(addr, "POST", "/tenants/acme/fit", &body);
    assert_eq!(status, 202, "{resp}");
    let done = await_terminal(addr, "acme", "s0000");
    assert_eq!(done.state, "finished", "{:?}", done.error);
    server.stop();

    // One durable copy of the model: the blob slot file, beside the
    // sidecar, the journal and the terminal record.
    let names = |dir: PathBuf| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("list dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        names.sort();
        names
    };
    assert_eq!(
        names(root.join("acme")),
        [
            "s0000.jsonl",
            "s0000.request.json",
            "s0000.status.json",
            "slots"
        ]
    );
    assert_eq!(names(root.join("acme/slots")), ["blobart.artifact.blob"]);

    // A restart in the default JSON configuration still serves the
    // blob artifact: readers are format-agnostic.
    let (server, addr) = start(config(root.clone(), None));
    let predict = "{\"slot\":\"blobart\",\"columns\":[[0.5,0.1],[0.2,0.9]]}";
    let (status, resp) = http(addr, "POST", "/tenants/acme/predict", predict);
    assert_eq!(status, 200, "{resp}");
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn slot_recovery_prefers_blob_and_falls_back_to_json_when_corrupt() {
    // Two distinct models so the served fingerprint identifies which
    // sibling recovery picked.
    let fit = |seed: u64| {
        let mut request = tiny_fit_request("dual");
        request.seed = seed;
        request.dataset = payload(120, seed);
        let data = request.dataset.clone().into_dataset().expect("dataset");
        request
            .to_automl()
            .expect("automl")
            .fit(&data)
            .expect("fit")
            .compile()
            .expect("compile")
    };
    let model_a = fit(3);
    let model_b = fit(41);

    let probe = "{\"slot\":\"dual\",\"columns\":[[0.5,0.1],[0.2,0.9]]}";
    let served_fp = |root: PathBuf| {
        let (server, addr) = start(config(root, None));
        let (status, resp) = http(addr, "POST", "/tenants/acme/predict", probe);
        assert_eq!(status, 200, "{resp}");
        let fp = predict_fingerprint(&resp);
        server.stop();
        fp
    };

    // Baseline fingerprints from single-format roots. The blob uses
    // the default layout so its recovered CompiledModel is identical
    // to `model_a` slab-for-slab.
    let root_a = scratch_root("dual_a");
    flaml_core::save_blob(
        &model_a,
        root_a.join("acme/slots/dual.artifact.blob"),
        flaml_core::BlobOptions::default(),
    )
    .expect("blob save");
    let fp_a = served_fp(root_a.clone());

    let root_b = scratch_root("dual_b");
    model_b
        .save(root_b.join("acme/slots/dual.artifact.json"))
        .expect("json save");
    let fp_b = served_fp(root_b.clone());
    assert_ne!(
        fp_a, fp_b,
        "distinct models should have distinct fingerprints"
    );

    // Both siblings present: the blob (model A) wins.
    let root = scratch_root("dual_both");
    let slots = root.join("acme/slots");
    flaml_core::save_blob(
        &model_a,
        slots.join("dual.artifact.blob"),
        flaml_core::BlobOptions::default(),
    )
    .expect("blob save");
    model_b
        .save(slots.join("dual.artifact.json"))
        .expect("json save");
    assert_eq!(
        served_fp(root.clone()),
        fp_a,
        "blob sibling must be preferred"
    );

    // Corrupt the blob: recovery quarantines it and serves the JSON.
    let blob_path = slots.join("dual.artifact.blob");
    let bytes = std::fs::read(&blob_path).expect("blob bytes");
    std::fs::write(&blob_path, &bytes[..bytes.len() / 2]).expect("tear blob");
    let (server, addr) = start(config(root.clone(), None));
    let (status, resp) = http(addr, "POST", "/tenants/acme/predict", probe);
    assert_eq!(status, 200, "{resp}");
    assert_eq!(
        predict_fingerprint(&resp),
        fp_b,
        "corrupt blob must fall back to the JSON sibling"
    );
    assert!(slots.join("dual.artifact.blob.corrupt").exists());
    assert!(stats_counter(addr, "storage_quarantined") >= 1);
    server.stop();

    for r in [root_a, root_b, root] {
        let _ = std::fs::remove_dir_all(&r);
    }
}
