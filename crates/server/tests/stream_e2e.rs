//! End-to-end tests for the streaming endpoints: chunk ingestion,
//! drift-triggered promotion, serving the stream champion through
//! `/predict`, and restart recovery to a byte-identical trace.

mod common;

use common::{http, scratch_root};
use flaml_server::{
    DatasetPayload, PredictResponse, Server, ServerConfig, StreamChunkRequest, StreamOptions,
    StreamPushResponse, StreamStatusBody,
};
use flaml_synth::DriftStream;
use std::net::SocketAddr;
use std::path::Path;

/// The small fast drifting stream the online crate's own suites use:
/// 60-row chunks, 4 features, a concept shift every 6 chunks.
fn drift_stream() -> DriftStream {
    let mut s = DriftStream::new(11);
    s.rows = 60;
    s.features = 4;
    s.segment_chunks = 6;
    s.margin_noise = 0.15;
    s
}

/// Stream options tuned for test speed, matched to [`drift_stream`].
fn fast_options(seed: u64) -> StreamOptions {
    StreamOptions {
        seed: Some(seed),
        estimators: vec!["lr".into()],
        window_chunks: Some(4),
        holdout_chunks: Some(1),
        warmup_chunks: Some(2),
        drift_window: Some(3),
        drift_threshold: Some(0.1),
        promote_margin: Some(0.005),
        probation_chunks: Some(2),
        round_trials: Some(4),
        ..StreamOptions::default()
    }
}

fn start_server(root: &Path) -> (Server, SocketAddr) {
    let cfg = ServerConfig {
        root: root.to_path_buf(),
        ..ServerConfig::default()
    };
    Server::new(cfg)
        .expect("server builds")
        .start("127.0.0.1:0")
        .expect("server binds")
}

/// Pushes one chunk of `s` and returns the parsed response.
fn push(addr: SocketAddr, slot: &str, s: &DriftStream, i: usize) -> StreamPushResponse {
    let request = StreamChunkRequest {
        options: Some(fast_options(s.seed)),
        dataset: DatasetPayload::from_dataset(&s.chunk(i)),
    };
    let (status, body) = http(
        addr,
        "POST",
        &format!("/tenants/acme/stream/{slot}"),
        &serde_json::to_string(&request).unwrap(),
    );
    assert_eq!(status, 200, "chunk {i} rejected: {body}");
    serde_json::from_str(&body).expect("push response parses")
}

fn stream_status(addr: SocketAddr, slot: &str) -> StreamStatusBody {
    let (status, body) = http(
        addr,
        "GET",
        &format!("/tenants/acme/stream/{slot}/status"),
        "",
    );
    assert_eq!(status, 200, "status failed: {body}");
    serde_json::from_str(&body).expect("status body parses")
}

#[test]
fn stream_ingests_drifts_and_serves_the_champion() {
    let root = scratch_root("stream_e2e");
    let (server, addr) = start_server(&root);
    let s = drift_stream();

    // Chunk 0: stream created, no champion yet.
    let first = push(addr, "clicks", &s, 0);
    assert_eq!(first.chunk, 0);
    assert_eq!(first.era, 0);
    assert_eq!(first.champion_loss, None);

    // Two full segments: warmup promotes, the shift fires drift, and a
    // challenger takes over.
    for i in 1..2 * s.segment_chunks {
        push(addr, "clicks", &s, i);
    }
    let status = stream_status(addr, "clicks");
    assert_eq!(status.chunks, 2 * s.segment_chunks);
    assert!(status.drift_events >= 1, "no drift detected: {status:?}");
    assert!(
        status.promotions >= 2,
        "no post-drift promotion: {status:?}"
    );
    assert!(status.era >= 2, "champion never replaced: {status:?}");

    // The stream champion serves through the ordinary predict route.
    let probe = s.chunk(0);
    let predict = serde_json::to_string(&flaml_server::PredictRequest {
        slot: "clicks".into(),
        columns: probe.columns().to_vec(),
    })
    .unwrap();
    let (code, body) = http(addr, "POST", "/tenants/acme/predict", &predict);
    assert_eq!(code, 200, "predict from stream slot failed: {body}");
    let response: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(response.rows, probe.n_rows());
    assert!(response.version >= 1);

    // Redelivering the last chunk is an idempotent no-op.
    let dup = push(addr, "clicks", &s, 2 * s.segment_chunks - 1);
    assert!(dup.duplicate, "redelivery must dedupe: {dup:?}");

    // A chunk with the wrong schema is a 400 and does not wedge.
    let mut wide = drift_stream();
    wide.features = s.features + 2;
    let bad = StreamChunkRequest {
        options: None,
        dataset: DatasetPayload::from_dataset(&wide.chunk(0)),
    };
    let (code, body) = http(
        addr,
        "POST",
        "/tenants/acme/stream/clicks",
        &serde_json::to_string(&bad).unwrap(),
    );
    assert_eq!(code, 400, "schema mismatch must be a 400: {body}");
    push(addr, "clicks", &s, 2 * s.segment_chunks);

    // Unknown stream and invalid slot names are typed errors.
    let (code, _) = http(addr, "GET", "/tenants/acme/stream/nope/status", "");
    assert_eq!(code, 404);
    let (code, _) = http(addr, "GET", "/tenants/acme/stream/..%2Fx/status", "");
    assert_eq!(code, 400);

    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stream_survives_restart_with_a_byte_identical_trace() {
    let s = drift_stream();
    let n = 2 * s.segment_chunks;

    // Uninterrupted reference: one server ingests the whole stream.
    let ref_root = scratch_root("stream_ref");
    let (server, addr) = start_server(&ref_root);
    for i in 0..n {
        push(addr, "clicks", &s, i);
    }
    let reference_status = stream_status(addr, "clicks");
    server.stop();
    let journal = |root: &Path| {
        std::fs::read(
            root.join("acme")
                .join("streams")
                .join("clicks")
                .join("online.jsonl"),
        )
        .expect("stream journal exists")
    };
    let reference = journal(&ref_root);

    // Killed-and-restarted run: half the stream, stop (equivalent to a
    // crash, by design), then a fresh server over the same root.
    let root = scratch_root("stream_restart");
    let (server, addr) = start_server(&root);
    for i in 0..n / 2 {
        push(addr, "clicks", &s, i);
    }
    server.stop();
    // Let the accept loop wind down before a new process takes over.
    std::thread::sleep(std::time::Duration::from_millis(50));

    let (server, addr) = start_server(&root);
    // Recovery reopened the stream: status works and the champion
    // serves again before any new chunk arrives.
    let recovered = stream_status(addr, "clicks");
    assert_eq!(recovered.chunks, n / 2, "recovery lost or invented chunks");
    assert!(recovered.era >= 1, "recovered stream has no champion");
    let probe = s.chunk(0);
    let predict = serde_json::to_string(&flaml_server::PredictRequest {
        slot: "clicks".into(),
        columns: probe.columns().to_vec(),
    })
    .unwrap();
    let (code, body) = http(addr, "POST", "/tenants/acme/predict", &predict);
    assert_eq!(code, 200, "recovered champion must serve: {body}");

    for i in n / 2..n {
        push(addr, "clicks", &s, i);
    }
    let final_status = stream_status(addr, "clicks");
    assert_eq!(
        final_status, reference_status,
        "restart changed the stream's counters"
    );
    assert_eq!(
        String::from_utf8(journal(&root)).unwrap(),
        String::from_utf8(reference).unwrap(),
        "restart changed the promotion trace"
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&ref_root);
}

#[test]
fn a_chunk_with_other_kinds_is_a_400_and_the_stream_goes_on() {
    let root = scratch_root("stream_kinds");
    let (server, addr) = start_server(&root);
    let s = drift_stream();
    push(addr, "clicks", &s, 0);

    // Chunk 1 again, column 0 declared categorical (with category
    // values): the same task and width, another schema. It is refused
    // before it is persisted.
    let mut request = StreamChunkRequest {
        options: None,
        dataset: DatasetPayload::from_dataset(&s.chunk(1)),
    };
    request.dataset.cardinalities[0] = 4;
    request.dataset.columns[0] = (0..s.rows).map(|i| (i % 4) as f64).collect();
    let (code, body) = http(
        addr,
        "POST",
        "/tenants/acme/stream/clicks",
        &serde_json::to_string(&request).unwrap(),
    );
    assert_eq!(code, 400, "a chunk of other kinds must be a 400: {body}");
    let chunk_file = root.join("acme/streams/clicks/chunks/c000001.json");
    assert!(!chunk_file.exists(), "the refused chunk was persisted");

    // The next good chunk is accepted, at the index the refused one
    // would have taken.
    assert_eq!(push(addr, "clicks", &s, 1).chunk, 1);
    assert!(chunk_file.exists());
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_chunk_with_a_value_that_is_not_a_category_is_a_400_and_persists_nothing() {
    let root = scratch_root("stream_bad_category");
    let (server, addr) = start_server(&root);
    let s = drift_stream();
    let chunk_file = root.join("acme/streams/clicks/chunks/c000000.json");
    for bad in [-1.0, 2.5] {
        // Column 0 declared categorical with 4 categories, one value
        // outside them: the first chunk of a new stream is refused
        // before anything reaches the disk.
        let mut request = StreamChunkRequest {
            options: Some(fast_options(s.seed)),
            dataset: DatasetPayload::from_dataset(&s.chunk(0)),
        };
        request.dataset.cardinalities[0] = 4;
        request.dataset.columns[0] = (0..s.rows).map(|i| (i % 4) as f64).collect();
        request.dataset.columns[0][3] = bad;
        let (code, body) = http(
            addr,
            "POST",
            "/tenants/acme/stream/clicks",
            &serde_json::to_string(&request).unwrap(),
        );
        assert_eq!(code, 400, "{bad}: {body}");
        assert!(body.contains("BadCategory"), "{bad}: {body}");
        assert!(
            !chunk_file.exists(),
            "{bad}: the refused chunk was persisted"
        );
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}
