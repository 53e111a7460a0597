//! Crash recovery: a server killed mid-search must, on restart, resume
//! the search from its journal and finish with **byte-identical**
//! canonical journal bytes to a never-interrupted reference run, then
//! republish the winner so the tenant's slot serves again.

mod common;

use common::{await_terminal, fit_request, http, scratch_root, RecordingStorage};
use flaml_core::{Journal, SearchHandle};
use flaml_server::{FitAccepted, FitRequest, PredictResponse, SearchStatus, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn config(root: std::path::PathBuf) -> ServerConfig {
    ServerConfig {
        root,
        max_inflight: 4,
        batch_rows: 64,
        serve_workers: 2,
        fit_workers: 1,
        ..ServerConfig::default()
    }
}

#[test]
fn killed_midsearch_server_resumes_byte_identically() {
    let request = fit_request("churn", 12, 7);
    let data = request.dataset.clone().into_dataset().unwrap();

    // Reference: the same request run uninterrupted in one process.
    let ref_path = std::env::temp_dir().join(format!(
        "flaml_server_recovery_ref_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&ref_path);
    request
        .to_automl()
        .unwrap()
        .journal(&ref_path)
        .fit(&data)
        .unwrap();
    let reference = Journal::read(&ref_path).unwrap().canonical_bytes();

    // Simulate a server that accepted the fit (durable sidecar), ran
    // one slice, and was then killed: the journal stops mid-search.
    let root = scratch_root("recovery");
    let tenant_dir = root.join("acme");
    std::fs::create_dir_all(&tenant_dir).unwrap();
    let mut sidecar = std::fs::File::create(tenant_dir.join("s0000.request.json")).unwrap();
    sidecar
        .write_all(serde_json::to_string(&request).unwrap().as_bytes())
        .unwrap();
    drop(sidecar);
    let journal = tenant_dir.join("s0000.jsonl");
    let mut handle = SearchHandle::new(request.to_automl().unwrap(), &journal);
    handle.run_slice(&data, 5).unwrap();
    let half = Journal::read(&journal).unwrap().trials.len();
    assert!(
        half > 0 && half < 12,
        "crash must land mid-search, got {half}"
    );
    drop(handle);

    // Restart: recovery re-admits the search and finishes it.
    let (server, addr) = Server::new(config(root.clone()))
        .unwrap()
        .start("127.0.0.1:0")
        .unwrap();
    let done = await_terminal(addr, "acme", "s0000");
    assert_eq!(done.state, "finished", "resume failed: {:?}", done.error);
    assert!(done.published_version.is_some());

    // The resumed journal is canonically byte-identical to the
    // uninterrupted reference run.
    let resumed = Journal::read(&journal).unwrap().canonical_bytes();
    assert_eq!(
        resumed, reference,
        "resumed journal diverged from reference"
    );

    // The republished winner serves.
    let predict = "{\"slot\":\"churn\",\"columns\":[[0.5,0.1],[0.2,0.9]]}";
    let (status, body) = http(addr, "POST", "/tenants/acme/predict", predict);
    assert_eq!(status, 200, "predict after recovery failed: {body}");
    server.stop();

    // A second restart finds the terminal record: the search reports
    // finished without re-running, the slot still serves, and new ids
    // continue past the recovered one.
    let (server, addr) = Server::new(config(root))
        .unwrap()
        .start("127.0.0.1:0")
        .unwrap();
    let done = await_terminal(addr, "acme", "s0000");
    assert_eq!(done.state, "finished");
    assert_eq!(done.committed, 12);
    let (status, _) = http(addr, "POST", "/tenants/acme/predict", predict);
    assert_eq!(status, 200);
    let unchanged = Journal::read(&journal).unwrap().canonical_bytes();
    assert_eq!(
        unchanged, reference,
        "restart must not touch a finished journal"
    );

    let (status, body) = http(
        addr,
        "POST",
        "/tenants/acme/fit",
        &serde_json::to_string(&fit_request("other", 4, 1)).unwrap(),
    );
    assert_eq!(status, 202, "{body}");
    let accepted: FitAccepted = serde_json::from_str(&body).unwrap();
    assert_eq!(accepted.id, "s0001", "ids must continue after recovery");
    let done = await_terminal(addr, "acme", "s0001");
    assert_eq!(done.state, "finished", "{:?}", done.error);
    server.stop();
}

/// A `flaml-server` process, killed when dropped so a failed assertion
/// never leaves one running.
struct ServerProcess(Child);

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts the `flaml-server` binary over `root` on an ephemeral port;
/// returns it with the loopback address of the port it reports.
fn spawn_server(root: &Path) -> (ServerProcess, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_flaml-server"))
        .args(["--port", "0", "--max-inflight", "4", "--root"])
        .arg(root)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn flaml-server");
    let stdout = child.stdout.take().expect("server stdout");
    let server = ServerProcess(child);
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the listening line");
    let bound: SocketAddr = line
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|addr| addr.parse().ok())
        .unwrap_or_else(|| panic!("no listening address in {line:?}"));
    (server, SocketAddr::from(([127, 0, 0, 1], bound.port())))
}

#[test]
fn a_sigkilled_server_process_resumes_byte_identically() {
    let root = scratch_root("sigkill");
    let mut request = fit_request("churn", 40, 13);
    request.time_budget = 60.0;
    let (mut server, addr) = spawn_server(&root);
    let (status, body) = http(
        addr,
        "POST",
        "/tenants/acme/fit",
        &serde_json::to_string(&request).unwrap(),
    );
    assert_eq!(status, 202, "{body}");
    let id = serde_json::from_str::<FitAccepted>(&body).unwrap().id;
    let tenant_dir = root.join("acme");
    let journal = tenant_dir.join(format!("{id}.jsonl"));

    // SIGKILL the process as soon as its journal holds a committed trial.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !Journal::read(&journal).is_ok_and(|j| !j.trials.is_empty()) {
        assert!(Instant::now() < deadline, "no trial committed within 10 s");
        std::thread::sleep(Duration::from_millis(2));
    }
    server.0.kill().expect("SIGKILL the server");
    server.0.wait().expect("reap the server");
    let killed_at = Journal::read(&journal).unwrap().trials.len();

    // Restart on the same root; meanwhile run the durable sidecar's
    // request uninterrupted in this process, as a verifier would.
    let (_server, addr) = spawn_server(&root);
    let sidecar = std::fs::read_to_string(tenant_dir.join(format!("{id}.request.json"))).unwrap();
    let sidecar: FitRequest = serde_json::from_str(&sidecar).unwrap();
    let ref_path = std::env::temp_dir().join(format!(
        "flaml_server_sigkill_ref_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&ref_path);
    sidecar
        .to_automl()
        .unwrap()
        .journal(&ref_path)
        .fit(&sidecar.dataset.clone().into_dataset().unwrap())
        .unwrap();
    let reference = Journal::read(&ref_path).unwrap();
    let _ = std::fs::remove_file(&ref_path);
    assert!(
        killed_at > 0 && killed_at < reference.trials.len(),
        "the kill must land mid-search: {killed_at} of {} trials",
        reference.trials.len()
    );

    let done = await_terminal(addr, "acme", &id);
    assert_eq!(done.state, "finished", "resume failed: {:?}", done.error);
    assert_eq!(done.committed, reference.trials.len());
    assert_eq!(
        Journal::read(&journal).unwrap().canonical_bytes(),
        reference.canonical_bytes(),
        "the resumed journal diverged from the uninterrupted run"
    );
    drop(_server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn direct_publishes_survive_restart_and_roll_back() {
    let request = fit_request("direct", 6, 21);
    let data = request.dataset.clone().into_dataset().unwrap();
    let result = request.to_automl().unwrap().fit(&data).unwrap();
    let artifact_v1 = result.compile().unwrap().to_artifact_string();

    let root = scratch_root("publish");
    let (server, addr) = Server::new(config(root.clone()))
        .unwrap()
        .start("127.0.0.1:0")
        .unwrap();
    let (status, body) = http(addr, "POST", "/tenants/acme/slots/direct", &artifact_v1);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, "{\"version\":1}");
    let (status, body) = http(addr, "POST", "/tenants/acme/slots/direct", &artifact_v1);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, "{\"version\":2}");
    let (status, body) = http(addr, "POST", "/tenants/acme/slots/direct/rollback", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, "{\"version\":1}");
    server.stop();

    // The durable slot file makes the publish survive a restart.
    let (server, addr) = Server::new(config(root))
        .unwrap()
        .start("127.0.0.1:0")
        .unwrap();
    let predict = "{\"slot\":\"direct\",\"columns\":[[0.5,0.1],[0.2,0.9]]}";
    let (status, body) = http(addr, "POST", "/tenants/acme/predict", predict);
    assert_eq!(status, 200, "slot lost across restart: {body}");
    server.stop();
}

#[test]
fn recovery_reads_sidecars_markers_and_journals_through_storage() {
    let root = scratch_root("storage_reads");
    let tenant_dir = root.join("acme");
    std::fs::create_dir_all(&tenant_dir).unwrap();
    let request = fit_request("churn", 4, 3);
    let body = serde_json::to_string(&request).unwrap();
    // s0000 failed on a previous process; s0001 was killed mid-search.
    let failed_sidecar = tenant_dir.join("s0000.request.json");
    let record = tenant_dir.join("s0000.status.json");
    std::fs::write(&failed_sidecar, &body).unwrap();
    let failed = SearchStatus {
        id: "s0000".into(),
        state: "failed".into(),
        committed: 0,
        spent: 0.0,
        best_loss: None,
        slot: "churn".into(),
        published_version: None,
        error: Some("search failed: boom".into()),
    };
    std::fs::write(&record, serde_json::to_string(&failed).unwrap()).unwrap();
    let running_sidecar = tenant_dir.join("s0001.request.json");
    let journal = tenant_dir.join("s0001.jsonl");
    std::fs::write(&running_sidecar, &body).unwrap();
    let data = request.dataset.clone().into_dataset().unwrap();
    let mut handle = SearchHandle::new(request.to_automl().unwrap(), &journal);
    handle.run_slice(&data, 2).unwrap();
    drop(handle);

    let storage = Arc::new(RecordingStorage::default());
    let server = Server::new(ServerConfig {
        storage: storage.clone(),
        ..config(root)
    })
    .unwrap();
    let reads = storage.reads();
    for path in [&record, &running_sidecar, &journal] {
        assert!(
            reads.contains(path),
            "{} was not read through the storage: {reads:?}",
            path.display()
        );
    }
    // A terminal record stands in for the search: its sidecar, which
    // carries the whole dataset, is not read.
    assert!(
        !reads.contains(&failed_sidecar),
        "the sidecar of a terminal search was read: {reads:?}"
    );

    // The recovered statuses carry what was read.
    let (server, addr) = server.start("127.0.0.1:0").unwrap();
    let done = await_terminal(addr, "acme", "s0000");
    assert_eq!(done.state, "failed");
    assert_eq!(done.error.as_deref(), Some("search failed: boom"));
    let done = await_terminal(addr, "acme", "s0001");
    assert_eq!(done.state, "finished", "resume failed: {:?}", done.error);
    assert_eq!(done.committed, 4);
    server.stop();
}

#[test]
fn a_sidecar_without_cardinalities_recovers() {
    // A sidecar written before datasets carried kinds has no
    // `cardinalities` key: recovery reads it as all-numeric and resumes
    // the search it recorded.
    let request = fit_request("churn", 6, 9);
    let body = serde_json::to_string(&request).unwrap();
    let old_body = body.replace("\"cardinalities\":[],", "");
    assert!(!old_body.contains("cardinalities"), "{old_body}");
    let root = scratch_root("old_sidecar");
    let tenant_dir = root.join("acme");
    std::fs::create_dir_all(&tenant_dir).unwrap();
    std::fs::write(tenant_dir.join("s0000.request.json"), &old_body).unwrap();
    let journal = tenant_dir.join("s0000.jsonl");
    let data = request.dataset.clone().into_dataset().unwrap();
    let mut handle = SearchHandle::new(request.to_automl().unwrap(), &journal);
    handle.run_slice(&data, 2).unwrap();
    drop(handle);

    let reference_path = std::env::temp_dir().join(format!(
        "flaml_server_old_sidecar_ref_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&reference_path);
    request
        .to_automl()
        .unwrap()
        .journal(&reference_path)
        .fit(&data)
        .unwrap();
    let reference = Journal::read(&reference_path).unwrap().canonical_bytes();
    let _ = std::fs::remove_file(&reference_path);

    let (server, addr) = Server::new(config(root.clone()))
        .unwrap()
        .start("127.0.0.1:0")
        .unwrap();
    let done = await_terminal(addr, "acme", "s0000");
    assert_eq!(done.state, "finished", "resume failed: {:?}", done.error);
    assert_eq!(
        Journal::read(&journal).unwrap().canonical_bytes(),
        reference
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// `(fingerprint, version)` that `slot` of tenant `acme` serves.
fn served(addr: SocketAddr, slot: &str) -> (u64, u64) {
    let predict = format!("{{\"slot\":\"{slot}\",\"columns\":[[0.5,0.1],[0.2,0.9]]}}");
    let (status, body) = http(addr, "POST", "/tenants/acme/predict", &predict);
    assert_eq!(status, 200, "predict from {slot} failed: {body}");
    let response: PredictResponse = serde_json::from_str(&body).unwrap();
    (response.fingerprint, response.version)
}

#[test]
fn a_direct_publish_after_a_finished_search_survives_restart() {
    let root = scratch_root("publish_after_search");
    let (server, addr) = Server::new(config(root.clone()))
        .unwrap()
        .start("127.0.0.1:0")
        .unwrap();
    for (slot, seed) in [("a", 1), ("b", 2)] {
        let body = serde_json::to_string(&fit_request(slot, 4, seed)).unwrap();
        let (status, body) = http(addr, "POST", "/tenants/acme/fit", &body);
        assert_eq!(status, 202, "{body}");
    }
    for id in ["s0000", "s0001"] {
        let done = await_terminal(addr, "acme", id);
        assert_eq!(done.state, "finished", "{id}: {:?}", done.error);
    }
    // Publish b's slot file into a, over s0000's model.
    let (searched, _) = served(addr, "a");
    let (fp_b, _) = served(addr, "b");
    assert_ne!(searched, fp_b, "the two searches should differ");
    let b_artifact = std::fs::read_to_string(root.join("acme/slots/b.artifact.json")).unwrap();
    let (status, body) = http(addr, "POST", "/tenants/acme/slots/a", &b_artifact);
    assert_eq!(status, 200, "{body}");
    assert_eq!(served(addr, "a"), (fp_b, 2));
    server.stop();

    // Each slot serves its slot file at version 1 after a restart, and
    // the finished search only reports its status.
    for restart in 1..=2 {
        let (server, addr) = Server::new(config(root.clone()))
            .unwrap()
            .start("127.0.0.1:0")
            .unwrap();
        assert_eq!(served(addr, "a"), (fp_b, 1), "restart {restart}");
        let done = await_terminal(addr, "acme", "s0000");
        assert_eq!(done.state, "finished", "restart {restart}");
        server.stop();
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_root_written_before_terminal_records_recovers_once() {
    let root = scratch_root("legacy_root");
    let tenant_dir = root.join("acme");
    std::fs::create_dir_all(&tenant_dir).unwrap();
    // s0000 finished under the old layout: a complete journal and a
    // completion artifact beside the slot file's place.
    let finished = fit_request("done", 4, 3);
    let data = finished.dataset.clone().into_dataset().unwrap();
    let finished_sidecar = tenant_dir.join("s0000.request.json");
    std::fs::write(&finished_sidecar, serde_json::to_string(&finished).unwrap()).unwrap();
    let result = finished
        .to_automl()
        .unwrap()
        .journal(tenant_dir.join("s0000.jsonl"))
        .fit(&data)
        .unwrap();
    let legacy_artifact = tenant_dir.join("s0000.artifact.json");
    result.compile().unwrap().save(&legacy_artifact).unwrap();
    // s0001 failed under the old layout: a partial journal and a
    // `.failed` marker.
    let failed = fit_request("broke", 6, 5);
    let failed_sidecar = tenant_dir.join("s0001.request.json");
    std::fs::write(&failed_sidecar, serde_json::to_string(&failed).unwrap()).unwrap();
    let mut handle = SearchHandle::new(failed.to_automl().unwrap(), tenant_dir.join("s0001.jsonl"));
    handle
        .run_slice(&failed.dataset.clone().into_dataset().unwrap(), 2)
        .unwrap();
    drop(handle);
    let legacy_marker = tenant_dir.join("s0001.failed");
    std::fs::write(&legacy_marker, "search failed: boom").unwrap();

    // The first restart re-derives each search once from its journal,
    // and each leaves a terminal record.
    let (server, addr) = Server::new(config(root.clone()))
        .unwrap()
        .start("127.0.0.1:0")
        .unwrap();
    let mut ended = Vec::new();
    for id in ["s0000", "s0001"] {
        let done = await_terminal(addr, "acme", id);
        let record = std::fs::read_to_string(tenant_dir.join(format!("{id}.status.json")))
            .unwrap_or_else(|e| panic!("{id} left no terminal record: {e}"));
        let record: SearchStatus = serde_json::from_str(&record).unwrap();
        assert_eq!(
            (&record.state, record.committed),
            (&done.state, done.committed)
        );
        ended.push(done);
    }
    server.stop();
    let journals = || {
        ["s0000", "s0001"].map(|id| std::fs::read(tenant_dir.join(format!("{id}.jsonl"))).unwrap())
    };
    let before = journals();

    // The second restart re-runs nothing: it reads the records, neither
    // sidecar nor legacy file, and leaves the journals as they were.
    let storage = Arc::new(RecordingStorage::default());
    let (server, addr) = Server::new(ServerConfig {
        storage: storage.clone(),
        ..config(root.clone())
    })
    .unwrap()
    .start("127.0.0.1:0")
    .unwrap();
    let reads = storage.reads();
    for path in [
        &finished_sidecar,
        &failed_sidecar,
        &legacy_artifact,
        &legacy_marker,
    ] {
        assert!(!reads.contains(path), "{} was read", path.display());
        assert!(path.exists(), "{} was removed", path.display());
    }
    for (id, first) in ["s0000", "s0001"].into_iter().zip(&ended) {
        let again = await_terminal(addr, "acme", id);
        assert_eq!(
            (&again.state, again.committed),
            (&first.state, first.committed)
        );
    }
    server.stop();
    assert_eq!(
        journals(),
        before,
        "a journal changed on the second restart"
    );
    let _ = std::fs::remove_dir_all(&root);
}
