//! Shared helpers for the server integration tests: a tiny HTTP
//! client, a deterministic dataset generator, scratch roots, and a
//! storage that records what it was asked to read.

// Each test binary compiles its own copy; not every binary uses every
// helper.
#![allow(dead_code)]

use flaml_core::{DiskStorage, Storage, StorageError, StorageFile};
use flaml_server::{DatasetPayload, FitRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One-shot HTTP request; returns `(status, body)`.
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    read_response(&mut BufReader::new(stream)).expect("response")
}

/// Reads one response — status line, headers, `content-length` body —
/// off a connection that may stay open afterwards.
pub fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, String)> {
    let bad = |what: &str| std::io::Error::other(what.to_string());
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line.split_whitespace().nth(1).and_then(|s| s.parse().ok());
    let status = status.ok_or_else(|| bad("no status code"))?;
    let mut length = 0;
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        if let Some(value) = line.strip_prefix("content-length:") {
            length = value.trim().parse().map_err(|_| bad("content-length"))?;
        }
        if line.trim_end().is_empty() {
            break;
        }
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(|body| (status, body))
        .map_err(|_| bad("body is not UTF-8"))
}

/// Deterministic binary-classification payload.
pub fn payload(n: usize, seed: u64) -> DatasetPayload {
    let mut rng = StdRng::seed_from_u64(seed);
    let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let x1: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let y: Vec<f64> = (0..n)
        .map(|i| f64::from(x0[i] * 1.5 + (x1[i] - 0.4).powi(2) * 3.0 > 0.9))
        .collect();
    DatasetPayload {
        name: "server-test".into(),
        task: "binary".into(),
        columns: vec![x0, x1],
        cardinalities: vec![],
        target: y,
    }
}

/// A standard small search request.
pub fn fit_request(slot: &str, max_trials: usize, seed: u64) -> FitRequest {
    FitRequest {
        slot: slot.into(),
        time_budget: 5.0,
        max_trials: Some(max_trials),
        seed,
        estimators: vec!["lightgbm".into(), "rf".into(), "lr".into()],
        sample_size_init: Some(100),
        slice_trials: Some(4),
        dataset: payload(400, 11),
    }
}

/// Fresh scratch directory for a server state root.
pub fn scratch_root(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("flaml_server_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// Polls a search status until it leaves `queued`/`running`; returns
/// the final status body. Panics after ~60s.
pub fn await_terminal(addr: SocketAddr, tenant: &str, id: &str) -> flaml_server::SearchStatus {
    for _ in 0..600 {
        let (status, body) = http(addr, "GET", &format!("/tenants/{tenant}/searches/{id}"), "");
        assert_eq!(status, 200, "status poll failed: {body}");
        let parsed: flaml_server::SearchStatus =
            serde_json::from_str(&body).expect("status body parses");
        if parsed.state == "finished" || parsed.state == "failed" {
            return parsed;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    panic!("search {tenant}/{id} did not reach a terminal state");
}

/// The real disk, recording every path read through it: what shows
/// that a component reads through its configured [`Storage`] rather
/// than `std::fs`.
#[derive(Debug, Default)]
pub struct RecordingStorage {
    reads: Mutex<Vec<PathBuf>>,
}

impl RecordingStorage {
    /// Every path passed to `read` so far, in call order.
    pub fn reads(&self) -> Vec<PathBuf> {
        self.reads.lock().expect("recording lock").clone()
    }
}

impl Storage for RecordingStorage {
    fn create(&self, path: &Path) -> Result<Box<dyn StorageFile>, StorageError> {
        DiskStorage.create(path)
    }
    fn append(&self, path: &Path) -> Result<Box<dyn StorageFile>, StorageError> {
        DiskStorage.append(path)
    }
    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        self.reads
            .lock()
            .expect("recording lock")
            .push(path.to_path_buf());
        DiskStorage.read(path)
    }
    fn file_len(&self, path: &Path) -> Result<u64, StorageError> {
        DiskStorage.file_len(path)
    }
    fn truncate_file(&self, path: &Path, len: u64) -> Result<(), StorageError> {
        DiskStorage.truncate_file(path, len)
    }
    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError> {
        DiskStorage.rename(from, to)
    }
    fn remove(&self, path: &Path) -> Result<(), StorageError> {
        DiskStorage.remove(path)
    }
    fn create_dir_all(&self, dir: &Path) -> Result<(), StorageError> {
        DiskStorage.create_dir_all(dir)
    }
    fn sync_dir(&self, dir: &Path) -> Result<(), StorageError> {
        DiskStorage.sync_dir(dir)
    }
    fn scan(&self, dir: &Path) -> Result<Vec<PathBuf>, StorageError> {
        DiskStorage.scan(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        DiskStorage.exists(path)
    }
    fn is_dir(&self, path: &Path) -> bool {
        DiskStorage.is_dir(path)
    }
}
