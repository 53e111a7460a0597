//! End-to-end service tests over a real socket: the fit → status →
//! predict lifecycle, admission control, input validation, the direct
//! publish/rollback slot routes, and the connection lifecycle (the
//! connection bound's typed `503`, `stop` waking a blocked `accept`,
//! peers that vanish mid-request).

mod common;

use common::{await_terminal, fit_request, http, read_response, scratch_root};
use flaml_core::Journal;
use flaml_data::{Dataset, FeatureKind};
use flaml_server::{
    DatasetPayload, ErrorBody, FitAccepted, PredictResponse, Rejected, Server, ServerConfig,
    StreamChunkRequest,
};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

fn start(root: std::path::PathBuf, max_inflight: usize) -> (Server, std::net::SocketAddr) {
    let cfg = ServerConfig {
        root,
        max_inflight,
        batch_rows: 64,
        serve_workers: 2,
        fit_workers: 1,
        ..ServerConfig::default()
    };
    Server::new(cfg)
        .expect("server init")
        .start("127.0.0.1:0")
        .expect("bind")
}

/// The keys of the JSON object that opens at the start of `text`, in
/// order (the vendored serde_json has no dynamic value to ask, and the
/// stats body has no string that needs unescaping).
fn object_keys(text: &str) -> Vec<&str> {
    let (mut keys, mut depth, mut string_start) = (Vec::new(), 0, None);
    for (i, c) in text.char_indices() {
        match (string_start, c) {
            (Some(start), '"') => {
                if depth == 1 && text[i + 1..].starts_with(':') {
                    keys.push(&text[start..i]);
                }
                string_start = None;
            }
            (None, '"') => string_start = Some(i + 1),
            (None, '{') => depth += 1,
            (None, '}') if depth == 1 => break,
            (None, '}') => depth -= 1,
            _ => {}
        }
    }
    keys
}

#[test]
fn fit_predict_lifecycle() {
    let (server, addr) = start(scratch_root("lifecycle"), 4);

    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));

    let request = fit_request("churn", 10, 3);
    let (status, body) = http(
        addr,
        "POST",
        "/tenants/acme/fit",
        &serde_json::to_string(&request).unwrap(),
    );
    assert_eq!(status, 202, "fit rejected: {body}");
    let accepted: FitAccepted = serde_json::from_str(&body).unwrap();
    assert_eq!(accepted.tenant, "acme");

    let done = await_terminal(addr, "acme", &accepted.id);
    assert_eq!(done.state, "finished", "search failed: {:?}", done.error);
    assert!(done.committed > 0);
    assert!(done.best_loss.is_some());
    let version = done.published_version.expect("publish on finish");
    assert!(version >= 1);

    // Predict against the published slot.
    let rows = 8;
    let predict = serde_json::to_string(&flaml_server::PredictRequest {
        slot: "churn".into(),
        columns: vec![vec![0.5; rows], vec![0.25; rows]],
    })
    .unwrap();
    let (status, body) = http(addr, "POST", "/tenants/acme/predict", &predict);
    assert_eq!(status, 200, "predict failed: {body}");
    let response: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(response.rows, rows);
    assert_eq!(response.values.len(), rows * response.n_classes);
    assert_eq!(response.version, version);

    // Tenants are isolated: the same slot name elsewhere is 404.
    let (status, _) = http(addr, "POST", "/tenants/rival/predict", &predict);
    assert_eq!(status, 404);

    // Stats reflect the work and attribute it to the tenant.
    let (status, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    // The body's keys are the operator surface (`flaml-perf` and the
    // durability suite read them by name): exactly these, no more.
    let entry = |key: &str| {
        let quoted = format!("\"{key}\":");
        let at = stats
            .find(&quoted)
            .unwrap_or_else(|| panic!("no {key} in {stats}"));
        object_keys(&stats[at + quoted.len()..])
    };
    assert_eq!(
        object_keys(&stats),
        [
            "searches",
            "inflight",
            "max_inflight",
            "trials_started",
            "trials_finished",
            "tenant_slices",
            "serve_rejected",
            "serve_queue_depth",
            "serve_queue_depth_max",
            "storage_quarantined",
            "storage_faults",
            "serve_timed_out",
            "promoted",
            "rolled_back",
            "by_tenant",
            "slots",
        ]
    );
    assert_eq!(
        entry("acme"),
        [
            "fit_slices",
            "fit_trials",
            "fit_cost_secs",
            "serve_batches",
            "serve_rows",
            "rejected",
        ]
    );
    assert_eq!(
        entry("acme/churn"),
        ["batches", "rows", "p50_secs", "p99_secs", "rows_per_sec"]
    );

    server.stop();
}

#[test]
fn admission_control_rejects_excess_fits_with_429() {
    let (server, addr) = start(scratch_root("admission"), 1);

    let request = serde_json::to_string(&fit_request("slot-a", 18, 5)).unwrap();
    let (status, body) = http(addr, "POST", "/tenants/t1/fit", &request);
    assert_eq!(status, 202, "first fit rejected: {body}");
    let first: FitAccepted = serde_json::from_str(&body).unwrap();

    // The bound is 1, the first search is in flight: reject.
    let (status, body) = http(addr, "POST", "/tenants/t2/fit", &request);
    assert_eq!(status, 429, "expected 429, got {status}: {body}");
    let rejected: Rejected = serde_json::from_str(&body).unwrap();
    assert_eq!(rejected.max_inflight, 1);
    assert!(rejected.inflight >= 1);

    let done = await_terminal(addr, "t1", &first.id);
    assert_eq!(done.state, "finished", "search failed: {:?}", done.error);

    // Rejections are counted in telemetry.
    let (_, stats) = http(addr, "GET", "/stats", "");
    assert!(
        stats.contains("\"serve_rejected\":1"),
        "rejection not counted in {stats}"
    );

    // Admission comes before the parse: a full server answers 429 to a
    // body it would otherwise have to call 400 — it never read it.
    let (status, body) = http(addr, "POST", "/tenants/t1/fit", &request);
    assert_eq!(status, 202, "refill rejected: {body}");
    let refill: FitAccepted = serde_json::from_str(&body).unwrap();
    let (status, body) = http(addr, "POST", "/tenants/t2/fit", "not json");
    assert_eq!(
        status, 429,
        "expected 429 before any parse, got {status}: {body}"
    );
    let rejected: Rejected = serde_json::from_str(&body).unwrap();
    assert_eq!(rejected.max_inflight, 1);
    let done = await_terminal(addr, "t1", &refill.id);
    assert_eq!(done.state, "finished", "search failed: {:?}", done.error);
    let (status, _) = http(addr, "POST", "/tenants/t2/fit", "not json");
    assert_eq!(status, 400, "with room again the body is parsed");

    server.stop();
}

#[test]
fn bad_inputs_get_typed_errors() {
    let (server, addr) = start(scratch_root("validation"), 4);

    let (status, _) = http(addr, "GET", "/nope", "");
    assert_eq!(status, 404);

    let (status, _) = http(addr, "POST", "/tenants/..%2Fetc/fit", "{}");
    assert_eq!(status, 400);

    let (status, body) = http(addr, "POST", "/tenants/acme/fit", "not json");
    assert_eq!(status, 400);
    assert!(body.contains("bad JSON body"));

    let mut request = fit_request("slot", 4, 1);
    request.estimators = vec!["not-a-learner".into()];
    let (status, body) = http(
        addr,
        "POST",
        "/tenants/acme/fit",
        &serde_json::to_string(&request).unwrap(),
    );
    assert_eq!(status, 400);
    assert!(body.contains("not-a-learner"));

    // Predict against an empty slot is 404; rollback on it is 409.
    let predict = "{\"slot\":\"ghost\",\"columns\":[[1.0]]}";
    let (status, _) = http(addr, "POST", "/tenants/acme/predict", predict);
    assert_eq!(status, 404);
    let (status, _) = http(addr, "POST", "/tenants/acme/slots/ghost/rollback", "");
    assert_eq!(status, 409);

    server.stop();
}

#[test]
fn a_nan_time_budget_is_a_400_before_any_sidecar() {
    let root = scratch_root("nan_budget");
    let (server, addr) = start(root.clone(), 4);

    // A time budget no search can run under is refused before anything
    // is persisted or admitted — the vendored JSON reads `NaN` as a
    // number, so only validation stands in the way.
    let inflight = |stats: &str| {
        let at = stats.find("\"inflight\":").expect("inflight in stats") + 11;
        let digits: String = stats[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse::<usize>().expect("inflight count")
    };
    let (_, stats) = http(addr, "GET", "/stats", "");
    let before = inflight(&stats);
    let mut request = fit_request("slot", 4, 1);
    request.time_budget = f64::NAN;
    let body = serde_json::to_string(&request).unwrap();
    assert!(body.contains("\"time_budget\":NaN"), "{body}");
    let (status, reply) = http(addr, "POST", "/tenants/acme/fit", &body);
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("time budget"), "{reply}");
    assert_eq!(
        sidecar_count(&root),
        0,
        "a refused fit must leave no sidecar"
    );
    let (_, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(inflight(&stats), before, "a refused fit holds no slot");

    server.stop();
}

/// The `.request.json` sidecars under `root/acme`.
fn sidecar_count(root: &std::path::Path) -> usize {
    std::fs::read_dir(root.join("acme"))
        .map(|dir| {
            dir.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(".request.json"))
                .count()
        })
        .unwrap_or(0)
}

/// Posts `body` as a fit, waits for it to finish, and returns the
/// search's canonical journal.
fn fit_to_journal(root: &std::path::Path, addr: SocketAddr, body: &str) -> String {
    let (status, reply) = http(addr, "POST", "/tenants/acme/fit", body);
    assert_eq!(status, 202, "{reply}");
    let id = serde_json::from_str::<FitAccepted>(&reply).unwrap().id;
    let done = await_terminal(addr, "acme", &id);
    assert_eq!(done.state, "finished", "{:?}", done.error);
    let journal = root.join("acme").join(format!("{id}.jsonl"));
    Journal::read(&journal).unwrap().canonical_bytes()
}

#[test]
fn a_fit_body_without_cardinalities_runs_the_all_numeric_search() {
    let root = scratch_root("no_cardinalities");
    let (server, addr) = start(root.clone(), 4);
    let body = serde_json::to_string(&fit_request("slot", 6, 3)).unwrap();
    let without = body.replace("\"cardinalities\":[],", "");
    assert!(!without.contains("cardinalities"), "{without}");
    let journal = fit_to_journal(&root, addr, &without);
    // The canonical journal FNV of this body under the build that had no
    // `cardinalities` key: a body without it still runs that search.
    assert_eq!(flaml_serve::fingerprint(&journal), 0xebf4_4433_f762_2f72);
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cardinalities_of_the_wrong_length_are_a_400_without_a_sidecar() {
    let root = scratch_root("bad_cardinalities");
    let (server, addr) = start(root.clone(), 4);
    let mut request = fit_request("slot", 4, 1);
    for cardinalities in [vec![0], vec![0, 2, 0]] {
        request.dataset.cardinalities = cardinalities;
        let body = serde_json::to_string(&request).unwrap();
        let (status, reply) = http(addr, "POST", "/tenants/acme/fit", &body);
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains("KindMismatch"), "{reply}");
    }
    assert_eq!(
        sidecar_count(&root),
        0,
        "a refused fit must leave no sidecar"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_categorical_value_that_is_not_a_category_is_a_400_without_a_sidecar() {
    // Column 1 declared categorical with 3 categories: -1.0 and 2.5 are
    // not category indices, so the dataset gate refuses the body before
    // the sidecar is written.
    let root = scratch_root("bad_category");
    let (server, addr) = start(root.clone(), 4);
    for bad in [-1.0, 2.5] {
        let mut request = fit_request("slot", 4, 1);
        let n = request.dataset.target.len();
        request.dataset.cardinalities = vec![0, 3];
        request.dataset.columns[1] = (0..n).map(|i| (i % 3) as f64).collect();
        request.dataset.columns[1][7] = bad;
        let body = serde_json::to_string(&request).unwrap();
        let (status, reply) = http(addr, "POST", "/tenants/acme/fit", &body);
        assert_eq!(status, 400, "{bad}: {reply}");
        assert!(reply.contains("BadCategory"), "{bad}: {reply}");
    }
    assert_eq!(
        sidecar_count(&root),
        0,
        "a refused fit must leave no sidecar"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_categorical_fit_journals_like_the_library() {
    // Column 2 is categorical: `lr` one-hot encodes it, and the kinds
    // enter the dataset fingerprint the journal header records.
    let numeric = fit_request("slot", 8, 5).dataset.into_dataset().unwrap();
    let mut columns = numeric.columns().to_vec();
    columns.push((0..numeric.n_rows()).map(|i| (i % 5) as f64).collect());
    let mut kinds = numeric.feature_kinds().to_vec();
    kinds.push(FeatureKind::Categorical { cardinality: 5 });
    let data = Dataset::with_kinds(
        numeric.name(),
        numeric.task(),
        columns,
        kinds,
        numeric.target().to_vec(),
    )
    .unwrap();
    let mut request = fit_request("slot", 8, 5);
    request.dataset = DatasetPayload::from_dataset(&data);

    let reference_path = std::env::temp_dir().join(format!(
        "flaml_server_categorical_ref_{}.jsonl",
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

    let root = scratch_root("categorical_fit");
    let (server, addr) = start(root.clone(), 4);
    let body = serde_json::to_string(&request).unwrap();
    assert_eq!(fit_to_journal(&root, addr, &body), reference);
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn predict_feature_mismatch_is_400_and_wrong_artifact_rejected() {
    let (server, addr) = start(scratch_root("features"), 4);

    let request = fit_request("m", 6, 9);
    let (status, body) = http(
        addr,
        "POST",
        "/tenants/acme/fit",
        &serde_json::to_string(&request).unwrap(),
    );
    assert_eq!(status, 202, "{body}");
    let accepted: FitAccepted = serde_json::from_str(&body).unwrap();
    let done = await_terminal(addr, "acme", &accepted.id);
    assert_eq!(done.state, "finished", "{:?}", done.error);

    // Model was trained on 2 features; send 3.
    let predict = "{\"slot\":\"m\",\"columns\":[[1.0],[1.0],[1.0]]}";
    let (status, body) = http(addr, "POST", "/tenants/acme/predict", predict);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("feature column"), "{body}");

    // Publishing garbage bytes into a slot is a typed 400.
    let (status, body) = http(addr, "POST", "/tenants/acme/slots/m", "not an artifact");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad artifact"), "{body}");

    server.stop();
}

/// A class count from the wire is bounded by the task codec
/// (`Task::parse_wire`, 2..=65535): `multiclass:17592186044416` used to
/// pass validation and abort the whole process on a `k`-sized
/// allocation, and `multiclass:1` used to be accepted by `/fit` only.
/// Both are a typed 400 on both routes, and the process keeps serving.
#[test]
fn hostile_class_counts_are_typed_400s_and_the_server_survives() {
    let (server, addr) = start(scratch_root("class-bound"), 4);

    let good = serde_json::to_string(&fit_request("m", 6, 9)).unwrap();
    let (status, body) = http(addr, "POST", "/tenants/acme/fit", &good);
    assert_eq!(status, 202, "{body}");
    let accepted: FitAccepted = serde_json::from_str(&body).unwrap();
    let done = await_terminal(addr, "acme", &accepted.id);
    assert_eq!(done.state, "finished", "{:?}", done.error);

    for task in ["multiclass:17592186044416", "multiclass:1"] {
        let mut fit = fit_request("evil", 4, 1);
        fit.dataset.task = task.into();
        let chunk = StreamChunkRequest {
            options: None,
            dataset: fit.dataset.clone(),
        };
        for (route, body) in [
            ("/tenants/mallory/fit", serde_json::to_string(&fit).unwrap()),
            (
                "/tenants/mallory/stream/evil",
                serde_json::to_string(&chunk).unwrap(),
            ),
        ] {
            let (status, reply) = http(addr, "POST", route, &body);
            assert_eq!(status, 400, "{task} on {route}: {reply}");
            assert!(reply.contains("2..=65535"), "{task} on {route}: {reply}");
        }
    }

    let predict = "{\"slot\":\"m\",\"columns\":[[0.5],[0.25]]}";
    let (status, body) = http(addr, "POST", "/tenants/acme/predict", predict);
    assert_eq!(status, 200, "predict after hostile requests: {body}");
    let response: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(response.rows, 1);

    server.stop();
}

/// The sender computes an artifact's fingerprint, so a correctly hashed
/// artifact can still be hostile: a GBDT root whose children point back
/// at itself used to load, publish, and pin the predicting connection
/// thread (and a core) in an endless walk. It is a typed `400` now, and
/// the server keeps answering.
#[test]
fn self_looping_artifacts_are_typed_400s_and_the_server_survives() {
    use flaml_serve::{CompiledGbdt, CompiledModel};
    let (server, addr) = start(scratch_root("self-loop"), 4);
    let looping = CompiledModel::Gbdt(CompiledGbdt {
        cuts: vec![vec![0.5]],
        n_groups: 1,
        init_scores: vec![0.0],
        task: flaml_data::Task::Regression,
        tree_roots: vec![0],
        feature: vec![0, 0, 0],
        threshold: vec![1, 0, 0],
        left: vec![0, 0, 0],
        right: vec![0, 0, 0],
        leaf_value: vec![0.0, -1.0, 1.0],
        is_leaf: vec![false, true, true],
    });
    let (status, body) = http(
        addr,
        "POST",
        "/tenants/acme/slots/loop",
        &looping.to_artifact_string(),
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("non-forward"), "{body}");
    let predict = "{\"slot\":\"loop\",\"columns\":[[0.25]]}";
    assert_eq!(
        http(addr, "POST", "/tenants/acme/predict", predict).0,
        404,
        "nothing was published"
    );
    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));
    server.stop();
}

/// A linear artifact is checked against its own encodings before it is
/// published: weight groups that do not match the task or the design
/// width, a one-hot cardinality over the learner's cap and a stacked
/// meta-learner over the wrong number of member columns used to load
/// and then panic, allocate without bound or silently drop the
/// intercept on every predict. Each is a typed `400` now, and no slot
/// file is written.
#[test]
fn linear_parts_that_do_not_fit_their_encodings_are_typed_400s() {
    use flaml_data::Task;
    use flaml_learners::Encoding;
    use flaml_serve::{CompiledLinear, CompiledModel, CompiledStacked};
    let numeric = |n: usize| {
        vec![
            Encoding::Numeric {
                mean: 0.0,
                std: 1.0
            };
            n
        ]
    };
    let linear = |task, encodings, weights| CompiledLinear {
        encodings,
        weights,
        task,
        y_mean: 0.0,
        y_std: 1.0,
    };
    let one_hot = |cardinality| vec![Encoding::OneHot { cardinality }];
    let lin = |task, encodings, weights| CompiledModel::Linear(linear(task, encodings, weights));
    let stacked = CompiledModel::Stacked(Box::new(CompiledStacked {
        members: vec![lin(Task::Binary, numeric(1), vec![vec![0.5, 0.1]])],
        meta: linear(Task::Binary, numeric(2), vec![vec![1.0; 3]]),
        task: Task::Binary,
    }));
    let hostile = [
        ("groupless", lin(Task::Regression, numeric(1), vec![])),
        (
            "three",
            lin(Task::MultiClass(2), numeric(1), vec![vec![0.5, 0.1]; 3]),
        ),
        (
            "huge",
            lin(
                Task::Regression,
                one_hot(usize::MAX / 4),
                vec![vec![0.5; 2]],
            ),
        ),
        (
            "short",
            lin(Task::Regression, numeric(2), vec![vec![5.0, 10.0]]),
        ),
        ("stacked", stacked),
    ];
    let root = scratch_root("linear-parts");
    let (server, addr) = start(root.clone(), 4);
    for (slot, model) in &hostile {
        let route = format!("/tenants/acme/slots/{slot}");
        let (status, body) = http(addr, "POST", &route, &model.to_artifact_string());
        assert_eq!(status, 400, "{slot}: {body}");
        assert!(body.contains("layout"), "{slot}: {body}");
        for suffix in [".artifact.json", ".artifact.blob"] {
            let file = root.join(format!("acme/slots/{slot}{suffix}"));
            assert!(!file.exists(), "{slot}: {} was written", file.display());
        }
        let predict = format!("{{\"slot\":\"{slot}\",\"columns\":[[0.25]]}}");
        assert_eq!(
            http(addr, "POST", "/tenants/acme/predict", &predict).0,
            404,
            "{slot}: nothing was published"
        );
    }
    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));
    server.stop();
}

/// `server.rs`'s `MAX_CONNECTIONS`, which is private to the crate.
const MAX_CONNECTIONS: usize = 256;

/// One kept-alive `GET` on an open connection.
fn get(reader: &mut BufReader<TcpStream>, path: &str) -> std::io::Result<(u16, String)> {
    let request = format!("GET {path} HTTP/1.1\r\nhost: test\r\n\r\n");
    reader.get_mut().write_all(request.as_bytes())?;
    read_response(reader)
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    BufReader::new(TcpStream::connect(addr).expect("connect"))
}

/// `/stats.serve_rejected`, asked for on a connection already held.
fn rejected_count(held: &mut BufReader<TcpStream>) -> usize {
    let (status, stats) = get(held, "/stats").expect("stats");
    assert_eq!(status, 200, "{stats}");
    let key = "\"serve_rejected\":";
    let at = stats.find(key).expect("serve_rejected") + key.len();
    let digits: String = stats[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("serve_rejected count")
}

#[test]
fn connection_flood_gets_a_typed_503_and_the_server_recovers() {
    let (server, addr) = start(scratch_root("flood"), 4);

    // Fill the bound with idle connections. Each has answered one
    // request, so each is past `accept` and holding a thread.
    let mut held: Vec<_> = (0..MAX_CONNECTIONS).map(|_| connect(addr)).collect();
    for conn in &mut held {
        assert_eq!(get(conn, "/healthz").expect("held connection").0, 200);
    }
    let before = rejected_count(&mut held[0]);

    // The next connection is answered by the accept thread before it
    // has sent a byte: typed body, counted, closed.
    let mut refused = connect(addr);
    let (status, body) = read_response(&mut refused).expect("refusal");
    assert_eq!(status, 503, "{body}");
    let error: ErrorBody = serde_json::from_str(&body).expect("typed 503 body");
    assert!(error.error.contains("too many connections"), "{body}");
    let mut rest = Vec::new();
    assert_eq!(refused.read_to_end(&mut rest).expect("closed"), 0);
    assert_eq!(rejected_count(&mut held[0]), before + 1);

    // The held connections are still served, and once they close their
    // places come back — each thread gives its own up as it sees the
    // EOF, so the first tries may still be refused (or reset, when the
    // request crosses the refusal on the wire).
    let last = &mut held[MAX_CONNECTIONS - 1];
    assert_eq!(get(last, "/healthz").expect("held connection").0, 200);
    drop(held);
    let recovered = (0..500).any(|_| {
        matches!(get(&mut connect(addr), "/healthz"), Ok((200, _))) || {
            std::thread::sleep(Duration::from_millis(10));
            false
        }
    });
    assert!(recovered, "no place came back after the flood closed");

    server.stop();
}

#[test]
fn stop_wakes_a_blocked_accept_and_releases_the_port() {
    let server = Server::new(ServerConfig {
        root: scratch_root("stop-rebind"),
        ..ServerConfig::default()
    })
    .expect("server init");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let (returned, serve_returned) = std::sync::mpsc::channel();
    let serving = server.clone();
    let thread = std::thread::spawn(move || {
        serving.serve(listener);
        returned.send(()).expect("test still waiting");
    });
    assert_eq!(http(addr, "GET", "/healthz", "").0, 200);

    // `serve` is blocked in `accept` with nothing to accept: only the
    // wake-up connection of `stop` can bring it back.
    server.stop();
    serve_returned
        .recv_timeout(Duration::from_secs(2))
        .expect("serve returns within 2 s of stop()");
    thread.join().expect("serve thread");
    let rebound = TcpListener::bind(addr).expect("the port is free again");

    // Nobody is listening for the wake-up of a second stop — not even
    // the new owner of the port, which sees no connection from it.
    rebound.set_nonblocking(true).expect("nonblocking");
    server.stop();
    assert!(rebound.accept().is_err(), "a second stop() connected");
}

#[test]
fn stop_without_serve_and_stop_twice_are_harmless() {
    let idle = Server::new(ServerConfig {
        root: scratch_root("stop-idle"),
        ..ServerConfig::default()
    })
    .expect("server init");
    idle.stop();
    idle.stop();

    let (server, addr) = start(scratch_root("stop-twice"), 4);
    assert_eq!(http(addr, "GET", "/healthz", "").0, 200);
    server.stop();
    server.stop();
}

/// Peers that vanish at every point of a request — right after the
/// handshake, mid request line, mid body, and with the response unread
/// (the close then answers the server's bytes with a reset; std cannot
/// set `SO_LINGER` 0 to reset any earlier) — cost their own connection
/// and nothing else.
#[test]
fn vanishing_peers_do_not_end_the_accept_loop() {
    let (server, addr) = start(scratch_root("vanish"), 4);
    let full = "GET /stats HTTP/1.1\r\nhost: test\r\n\r\n";
    let mid_body = "POST /tenants/t/fit HTTP/1.1\r\ncontent-length: 64\r\n\r\n{\"slot\":";
    for round in 0..16 {
        for prefix in ["", "GET /hea", mid_body, full] {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(prefix.as_bytes()).expect("write");
            drop(stream);
        }
        let (status, body) = http(addr, "GET", "/healthz", "");
        assert_eq!(status, 200, "round {round}: {body}");
    }
    server.stop();
}

#[test]
fn a_drift_window_that_cannot_fill_never_fires_and_the_stream_recovers() {
    // `2 * drift_window` overflows: the detector must treat the window
    // as never full, not panic on the first champion eval while the
    // stream's lock is held (and again on every restart's replay).
    let root = scratch_root("huge_drift_window");
    let mut s = flaml_synth::DriftStream::new(3);
    s.rows = 60;
    s.features = 4;
    let options = flaml_server::StreamOptions {
        seed: Some(3),
        estimators: vec!["lr".into()],
        drift_window: Some(1 << 63),
        round_trials: Some(4),
        ..flaml_server::StreamOptions::default()
    };
    let status = |addr| {
        let (code, body) = http(addr, "GET", "/tenants/acme/stream/wide/status", "");
        assert_eq!(code, 200, "status failed: {body}");
        serde_json::from_str::<flaml_server::StreamStatusBody>(&body).unwrap()
    };

    let (server, addr) = start(root.clone(), 4);
    // Default warmup is 3 chunks: the fourth is the first the champion
    // is evaluated on.
    for i in 0..4 {
        let request = StreamChunkRequest {
            options: Some(options.clone()),
            dataset: flaml_server::DatasetPayload::from_dataset(&s.chunk(i)),
        };
        let (code, body) = http(
            addr,
            "POST",
            "/tenants/acme/stream/wide",
            &serde_json::to_string(&request).unwrap(),
        );
        assert_eq!(code, 200, "chunk {i}: {body}");
    }
    let before = status(addr);
    assert_eq!((before.chunks, before.era, before.drift_events), (4, 1, 0));
    server.stop();

    let (server, addr) = start(root.clone(), 4);
    let after = status(addr);
    assert_eq!((after.chunks, after.era), (4, 1), "{after:?}");
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}
