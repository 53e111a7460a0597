//! Pieces every workload shares: the per-repetition server fixture,
//! operation accounting, the closed and open request loops, and
//! scoring of served predictions.

use crate::httpc::{self, Conn};
use crate::stats;
use crate::storage::CountingStorage;
use flaml_blob::ArtifactFormat;
use flaml_data::Dataset;
use flaml_metrics::{Metric, Pred};
use flaml_server::server::{Server, ServerConfig};
use flaml_server::{PredictRequest, PredictResponse};
use flaml_store::Storage;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Operations attempted and failed. A fit, a publish, a predict
/// request and an output check are each one operation; a refused or
/// non-2xx request is a failure (and carries no latency sample).
#[derive(Debug, Default, Clone)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub errors: Vec<String>,
}

impl Ops {
    /// Counts one operation; a `false` outcome is a failure described
    /// by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
        ok
    }

    /// Counts one HTTP exchange that must answer `want`; returns the
    /// body when it did.
    pub fn expect(
        &mut self,
        reply: std::io::Result<(u16, Vec<u8>)>,
        want: u16,
        what: &str,
    ) -> Option<Vec<u8>> {
        match reply {
            Ok((status, body)) if status == want => {
                self.attempted += 1;
                Some(body)
            }
            Ok((status, body)) => {
                self.check(false, || {
                    format!(
                        "{what}: status {status}, expected {want}: {}",
                        String::from_utf8_lossy(&body[..body.len().min(200)])
                    )
                });
                None
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// One repetition's server on fresh state: a new root under `runs/`,
/// a counting storage, and an in-process [`Server`] on `127.0.0.1:0`.
pub struct Fixture {
    /// The state root (removed on drop).
    pub root: PathBuf,
    /// The storage every durable write of this repetition goes through.
    pub storage: Arc<CountingStorage>,
    /// The running server.
    pub server: Server,
    /// Its address.
    pub addr: SocketAddr,
}

impl Fixture {
    /// Creates the root, builds and starts the server, and returns once
    /// `GET /healthz` answers 200. Everything but `root`, `storage` and
    /// the artifact format is [`ServerConfig::default`].
    ///
    /// # Errors
    ///
    /// Returns the I/O error that stopped the server from coming up.
    pub fn start(tag: &str, artifact_format: ArtifactFormat) -> std::io::Result<Fixture> {
        let root = crate::state::scratch_dir(tag);
        Fixture::start_on(root, Arc::new(CountingStorage::new()), artifact_format)
    }

    /// [`Fixture::start`] on an existing root: the recovery path.
    ///
    /// # Errors
    ///
    /// Same as [`Fixture::start`].
    pub fn start_on(
        root: PathBuf,
        storage: Arc<CountingStorage>,
        artifact_format: ArtifactFormat,
    ) -> std::io::Result<Fixture> {
        let cfg = ServerConfig {
            root: root.clone(),
            storage: Arc::clone(&storage) as Arc<dyn Storage>,
            artifact_format,
            ..ServerConfig::default()
        };
        let (server, addr) = Server::new(cfg)?.start("127.0.0.1:0")?;
        let health = httpc::render("GET", "/healthz", b"", false);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match httpc::one_shot(addr, &health) {
                Ok((200, _)) => break,
                _ if Instant::now() > deadline => {
                    server.stop();
                    return Err(std::io::Error::other("server never answered /healthz"));
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        Ok(Fixture {
            root,
            storage,
            server,
            addr,
        })
    }

    /// Stops the server but keeps the root: what a crash leaves behind.
    pub fn into_root(mut self) -> (PathBuf, Arc<CountingStorage>) {
        self.server.stop();
        let root = std::mem::take(&mut self.root);
        (root, Arc::clone(&self.storage))
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.server.stop();
        if !self.root.as_os_str().is_empty() {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }
}

/// One pre-rendered predict request and the rows it carries.
#[derive(Debug, Clone)]
pub struct PredictCall {
    /// The complete HTTP request.
    pub bytes: Vec<u8>,
    /// The same rows as a dataset (target = the true labels), for
    /// scoring and the in-process comparison.
    pub data: Dataset,
    /// Index of the model (tenant slot) the request addresses.
    pub model: usize,
}

/// Renders `POST /tenants/{tenant}/predict` for the rows of `data`.
pub fn render_predict(tenant: &str, slot: &str, data: &Dataset, keep_alive: bool) -> Vec<u8> {
    let body = serde_json::to_string(&PredictRequest {
        slot: slot.to_string(),
        columns: data.columns().to_vec(),
    })
    .expect("predict request serializes");
    httpc::render(
        "POST",
        &format!("/tenants/{tenant}/predict"),
        body.as_bytes(),
        keep_alive,
    )
}

/// Client-side latencies of one predict pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Request→response milliseconds of every answered request,
    /// ascending.
    pub lat_ms: Vec<f64>,
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
    /// Rows answered.
    pub rows: u64,
    /// Open loop only: how late the generator sent the latest request,
    /// in milliseconds (0 for a closed loop).
    pub late_ms_max: f64,
}

impl Pass {
    /// Median latency.
    pub fn p50_ms(&self) -> f64 {
        stats::percentile(&self.lat_ms, 0.50)
    }

    /// Rows answered per wall second.
    pub fn rows_per_s(&self) -> f64 {
        self.rows as f64 / self.wall_s.max(1e-9)
    }
}

/// Closed loop, one client: request `i` is `calls[i % len]`, sent when
/// reply `i - 1` has arrived. With `keep_alive` all requests share one
/// connection; without it each opens its own (and the connect is part
/// of the latency, as it is for such a client). Returns the pass and
/// the raw reply bodies of the first cycle through `calls`.
pub fn closed_loop(
    addr: SocketAddr,
    calls: &[PredictCall],
    n: usize,
    keep_alive: bool,
    ops: &mut Ops,
) -> (Pass, Vec<Option<Vec<u8>>>) {
    let mut pass = Pass::default();
    let mut first_cycle: Vec<Option<Vec<u8>>> = vec![None; calls.len()];
    let mut conn = None;
    let started = Instant::now();
    for i in 0..n {
        let call = &calls[i % calls.len()];
        let sent = Instant::now();
        let reply = if keep_alive {
            if conn.is_none() {
                conn = Conn::connect(addr).ok();
            }
            match conn.as_mut() {
                Some(c) => c.exchange(&call.bytes),
                None => Err(std::io::Error::other("connect refused")),
            }
        } else {
            httpc::one_shot(addr, &call.bytes)
        };
        let lat = sent.elapsed();
        if reply.is_err() {
            conn = None;
        }
        if let Some(body) = ops.expect(reply, 200, "predict") {
            pass.lat_ms.push(lat.as_secs_f64() * 1e3);
            pass.rows += call.data.n_rows() as u64;
            if i < calls.len() {
                first_cycle[i] = Some(body);
            }
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass.lat_ms.sort_by(f64::total_cmp);
    (pass, first_cycle)
}

/// Time as the open loop sees it, so the due-time accounting can be
/// tested against a clock that only moves when told to.
pub trait Clock {
    /// Seconds since some fixed origin.
    fn now(&mut self) -> f64;
    /// Returns once `now() >= t` (at once when it already is).
    fn sleep_until(&mut self, t: f64);
}

/// The real clock.
#[derive(Debug)]
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose origin is now.
    pub fn new() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&mut self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn sleep_until(&mut self, t: f64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_secs_f64(t - now));
        }
    }
}

/// What an open loop measured, one entry per request sent.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct OpenLoopLog {
    /// Seconds from when each request was *due* to when its reply
    /// arrived: a stall is charged to every request it delayed.
    pub latency_s: Vec<f64>,
    /// Seconds each request was sent after it was due.
    pub late_s: Vec<f64>,
}

/// Open loop on one connection: request `i` is due at `i / rate_hz`
/// seconds after the start, whatever happened to the ones before it.
/// A reply that stalls past later due times makes those requests late
/// — they are sent back to back as soon as the connection is free and
/// timed from their due time — never skipped. Runs while
/// `more(clock, i)` says so; `exchange(clock, i)` sends request `i`
/// and returns when its reply is in.
pub fn open_loop<C: Clock>(
    clock: &mut C,
    rate_hz: f64,
    mut more: impl FnMut(&mut C, usize) -> bool,
    mut exchange: impl FnMut(&mut C, usize),
) -> OpenLoopLog {
    let start = clock.now();
    let mut log = OpenLoopLog::default();
    let mut i = 0;
    while more(clock, i) {
        let due = start + i as f64 / rate_hz;
        clock.sleep_until(due);
        let sent = clock.now();
        exchange(clock, i);
        let done = clock.now();
        log.late_s.push(sent - due);
        log.latency_s.push(done - due);
        i += 1;
    }
    log
}

/// The flattened values of a prediction, as `/predict` returns them.
fn flat_values(pred: &Pred) -> (usize, &[f64]) {
    match pred {
        Pred::Values(v) => (1, v),
        Pred::Probs { n_classes, p } => (*n_classes, p),
    }
}

/// Parses a `/predict` reply.
pub fn parse_predict(body: &[u8]) -> Option<PredictResponse> {
    serde_json::from_str(std::str::from_utf8(body).ok()?).ok()
}

/// Whether a served reply carries exactly the bits the model computes
/// in process.
pub fn bit_equal(reply: &PredictResponse, local: &Pred) -> bool {
    let (n_classes, values) = flat_values(local);
    reply.n_classes == n_classes
        && reply.values.len() == values.len()
        && reply
            .values
            .iter()
            .zip(values)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// The best constant predictor fitted on `train` — class priors, or
/// the target mean — repeated for `n` rows.
fn constant_pred(train: &Dataset, n: usize) -> Pred {
    match train.class_priors() {
        Some(priors) => Pred::Probs {
            n_classes: priors.len(),
            p: priors
                .iter()
                .copied()
                .cycle()
                .take(n * priors.len())
                .collect(),
        },
        None => {
            let mean = train.target().iter().sum::<f64>() / train.n_rows().max(1) as f64;
            Pred::Values(vec![mean; n])
        }
    }
}

/// Loss of served predictions (`values`, flattened as `/predict`
/// returns them) on rows with true `labels`, as a ratio of the
/// constant predictor's loss on the same rows: below 1 means the
/// model learned something. The loss is the one the search minimised
/// (`1 - AUC` binary, log-loss multiclass, `1 - R²` regression):
/// scoring a binary model by log-loss instead would punish the
/// over-confident probabilities an AUC-driven search is free to pick
/// (one tenant of `tenant_churn` scored 2.8x *worse* than a constant
/// that way while ranking its rows almost perfectly).
pub fn holdout_ratio(train: &Dataset, labels: &[f64], values: Vec<f64>) -> f64 {
    let task = train.task();
    let pred = match task.n_classes() {
        Some(k) => Pred::Probs {
            n_classes: k,
            p: values,
        },
        None => Pred::Values(values),
    };
    let metric = Metric::default_for(task);
    let model = metric.loss(&pred, labels).unwrap_or(f64::NAN);
    let base = metric
        .loss(&constant_pred(train, labels.len()), labels)
        .unwrap_or(f64::NAN);
    model / base
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that moves only when slept on or advanced.
    struct FakeClock(f64);

    impl Clock for FakeClock {
        fn now(&mut self) -> f64 {
            self.0
        }
        fn sleep_until(&mut self, t: f64) {
            if t > self.0 {
                self.0 = t;
            }
        }
    }

    #[test]
    fn a_stalled_reply_makes_later_requests_late_not_skipped() {
        // 100 req/s for 10 requests; every reply takes 1 ms except
        // request 2, which stalls for 35 ms.
        let service = |i: usize| if i == 2 { 0.035 } else { 0.001 };
        let mut clock = FakeClock(5.0);
        let log = open_loop(&mut clock, 100.0, |_, i| i < 10, |c, i| c.0 += service(i));
        // Nothing skipped.
        assert_eq!(log.latency_s.len(), 10);
        let ms = |s: f64| (s * 1e3).round() as i64;
        // On time before the stall.
        assert_eq!(ms(log.late_s[0]), 0);
        assert_eq!(ms(log.latency_s[1]), 1);
        // The stalled request itself: sent on time, 35 ms to answer.
        assert_eq!(ms(log.late_s[2]), 0);
        assert_eq!(ms(log.latency_s[2]), 35);
        // Request 3 was due at +30 ms but the connection was busy until
        // +55 ms: sent 25 ms late, and charged from its due time.
        assert_eq!(ms(log.late_s[3]), 25);
        assert_eq!(ms(log.latency_s[3]), 26);
        // The backlog drains one service time per request: 4 was due at
        // +40, sent at +56.
        assert_eq!(ms(log.late_s[4]), 16);
        assert_eq!(ms(log.late_s[5]), 7);
        // ... and the generator is back on schedule afterwards.
        assert_eq!(ms(log.late_s[6]), 0);
        assert_eq!(ms(log.latency_s[9]), 1);
    }

    #[test]
    fn failed_operations_are_counted_and_described() {
        let mut ops = Ops::default();
        assert!(ops.check(true, || unreachable!()));
        assert!(!ops.check(false, || "bits differ".to_string()));
        assert!(ops
            .expect(Ok((200, b"ok".to_vec())), 200, "predict")
            .is_some());
        assert!(ops
            .expect(Ok((429, b"busy".to_vec())), 200, "predict")
            .is_none());
        assert!(ops
            .expect(Err(std::io::Error::other("refused")), 200, "predict")
            .is_none());
        assert_eq!((ops.attempted, ops.failed), (5, 3));
        assert_eq!(ops.errors.len(), 3);
        assert!(ops.errors[1].contains("429"));
    }

    #[test]
    fn bit_equality_is_exact() {
        let local = Pred::Probs {
            n_classes: 2,
            p: vec![0.25, 0.75],
        };
        let mut reply = PredictResponse {
            rows: 1,
            n_classes: 2,
            values: vec![0.25, 0.75],
            version: 1,
            fingerprint: 0,
        };
        assert!(bit_equal(&reply, &local));
        reply.values[1] = f64::from_bits(0.75f64.to_bits() + 1);
        assert!(!bit_equal(&reply, &local));
    }
}
