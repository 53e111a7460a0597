//! The multi-tenant service: shared state, request routing, crash
//! recovery, and the accept loop.
//!
//! ## Tenancy model
//!
//! Every route is rooted at `/tenants/{tenant}`. A tenant owns named
//! model slots (registry keys `tenant/slot`) and searches; everything
//! durable lives under `root/{tenant}/`: the search journal
//! (`{id}.jsonl`), the request sidecar (`{id}.request.json`), the
//! terminal record of a search that finished or failed
//! (`{id}.status.json`, the [`SearchStatus`] it ended with), and the
//! durable slot registry (`slots/{slot}.artifact.json` or `.blob` per
//! [`ServerConfig::artifact_format`]) — the one durable copy of each
//! served model. Recovery reads either artifact format, blob preferred.
//! Names are restricted to `[A-Za-z0-9_-]`, so no request can escape
//! its tenant's directory.
//!
//! ## Recovery protocol
//!
//! The sidecar is written (and fsynced) *before* a fit is admitted, so
//! after a kill the directory tree is the full intent log. On startup
//! the server replays it: slot files are republished, each at version
//! 1 (registry versions and rollback are per process); a search with a
//! terminal record is recorded as that status, without reading its
//! sidecar or publishing anything; and every remaining sidecar is
//! re-admitted — with [`SearchHandle::attach`] when its journal exists,
//! from scratch otherwise. Because searches run under the virtual clock
//! and the journal replays deterministically, the resumed trace is
//! byte-identical (canonically) to a never-interrupted run, and a
//! search that died between its slot write and its record republishes
//! the same bits.

use crate::api::{
    valid_name, ErrorBody, FitAccepted, FitRequest, PredictRequest, PredictResponse, Rejected,
    SearchStatus, StreamChunkRequest, StreamPushResponse, StreamStatusBody,
};
use crate::http::{is_timeout, read_request, write_response, Request};
use crate::scheduler::{journal_progress, terminal_record, Scheduler, SearchJob};
use flaml_core::{
    ArtifactFormat, BatchEngine, BlobModel, CompiledModel, EventSink, ExecPool, ModelRegistry,
    SearchHandle, Telemetry, TrialEvent, TrialEventKind,
};
use flaml_data::{Dataset, Task};
use flaml_online::{ChunkOutcome, OnlineError, OnlineRuntime, OnlineSession};
use flaml_store::{atomic_write_file, sweep_stale_tmps, Storage};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::io::{BufReader, ErrorKind};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Durable state root (journals, sidecars, artifacts).
    pub root: PathBuf,
    /// Admission bound: max searches queued or running.
    pub max_inflight: usize,
    /// Rows per serving batch.
    pub batch_rows: usize,
    /// Workers in the shared serving pool.
    pub serve_workers: usize,
    /// Fit scheduler worker threads time-slicing searches.
    pub fit_workers: usize,
    /// Tenant allow-list (`None` = any well-formed tenant name).
    pub tenants: Option<Vec<String>>,
    /// Backend for every durable write (sidecars, terminal records,
    /// artifacts, journals). Production uses [`flaml_store::disk`];
    /// tests wrap it in a [`flaml_store::ChaosStorage`] to inject disk
    /// faults.
    pub storage: Arc<dyn Storage>,
    /// Read/write timeout on client sockets (`None` = block forever).
    /// A stalled client beyond the timeout gets a 408 and its
    /// connection thread back.
    pub socket_timeout: Option<Duration>,
    /// Format new artifacts are published in: the portable JSON
    /// document (default) or the binary blob. Recovery and
    /// `/predict` read both regardless — the knob only picks what
    /// *writes* produce.
    pub artifact_format: ArtifactFormat,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            root: PathBuf::from("flaml-server-state"),
            max_inflight: 8,
            batch_rows: 256,
            serve_workers: 2,
            fit_workers: 1,
            tenants: None,
            storage: flaml_store::disk(),
            socket_timeout: Some(Duration::from_secs(30)),
            artifact_format: ArtifactFormat::Json,
        }
    }
}

/// Most connections served at once — a thread and a descriptor each.
/// The next one is answered `503` by the accept thread itself, so a
/// connection flood is a counted refusal, not thread or descriptor
/// exhaustion. A constant like the body cap: 256 fits a 1 024-descriptor
/// soft limit with room for the state root's files.
const MAX_CONNECTIONS: usize = 256;

struct Inner {
    cfg: ServerConfig,
    registry: Arc<ModelRegistry>,
    pool: ExecPool,
    scheduler: Arc<Scheduler>,
    telemetry: Arc<Mutex<Telemetry>>,
    sink: EventSink,
    next_ids: Mutex<BTreeMap<String, u64>>,
    /// Open streaming sessions keyed `tenant/slot`. Each session is its
    /// own mutex: a challenger round blocks only its stream, not the
    /// map (chunks for other streams keep flowing).
    streams: Mutex<BTreeMap<String, Arc<Mutex<OnlineSession>>>>,
    shutdown: AtomicBool,
    /// Connections being served, at most [`MAX_CONNECTIONS`].
    connections: AtomicUsize,
    /// Where [`Server::serve`] blocks in `accept`, for [`Server::stop`]
    /// to wake it.
    listening: Mutex<Option<SocketAddr>>,
}

/// A connection thread's place under [`MAX_CONNECTIONS`]; the drop — on
/// return or while a panic unwinds — gives it back.
struct ConnectionSlot(Server);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.inner.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The multi-tenant AutoML service.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Builds the server state and runs crash recovery against
    /// `cfg.root` (see the module docs). Does not bind a socket —
    /// follow with [`Server::serve`] or [`Server::start`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the state root cannot be created or
    /// scanned.
    pub fn new(cfg: ServerConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&cfg.root)?;
        let telemetry = Arc::new(Mutex::new(Telemetry::new()));
        let fold = Arc::clone(&telemetry);
        let sink = EventSink::callback(move |ev| fold.lock().expect("telemetry lock").record(ev));
        let registry = Arc::new(ModelRegistry::with_sink(sink.clone()));
        let scheduler = Arc::new(Scheduler::new(
            cfg.root.clone(),
            cfg.max_inflight,
            Arc::clone(&registry),
            sink.clone(),
            Arc::clone(&cfg.storage),
            cfg.artifact_format,
        ));
        let server = Server {
            inner: Arc::new(Inner {
                pool: ExecPool::new(cfg.serve_workers),
                registry,
                scheduler,
                telemetry,
                sink,
                next_ids: Mutex::new(BTreeMap::new()),
                streams: Mutex::new(BTreeMap::new()),
                shutdown: AtomicBool::new(false),
                connections: AtomicUsize::new(0),
                listening: Mutex::new(None),
                cfg,
            }),
        };
        server.recover()?;
        for _ in 0..server.inner.cfg.fit_workers.max(1) {
            let scheduler = Arc::clone(&server.inner.scheduler);
            std::thread::spawn(move || scheduler.run_worker());
        }
        Ok(server)
    }

    /// Replays the durable state under the root (module docs: recovery
    /// protocol). Corrupt files are quarantined to `*.corrupt` — never
    /// served, never fatal — and stale `*.tmp` debris from interrupted
    /// atomic publishes is swept.
    fn recover(&self) -> std::io::Result<()> {
        let storage = Arc::clone(&self.inner.cfg.storage);
        let root = &self.inner.cfg.root;
        for tenant_path in storage.scan(root).map_err(std::io::Error::from)? {
            if !storage.is_dir(&tenant_path) {
                continue;
            }
            let tenant = tenant_path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if !valid_name(&tenant) {
                continue;
            }
            let slots_dir = tenant_path.join("slots");
            // Interrupted-publish temps; best effort, recovery goes on.
            for dir in [&tenant_path, &slots_dir] {
                let _ = sweep_stale_tmps(storage.as_ref(), dir);
            }
            // 1. Republish the durable slot registry; a slot file that
            //    no longer parses is sidelined instead of served. A
            //    slot may carry a `.blob`, a `.json`, or (after a
            //    format switch interrupted mid-publish) both — blob is
            //    preferred and a corrupt file falls back to the other.
            let mut slot_names = std::collections::BTreeSet::new();
            for file in storage.scan(&slots_dir).unwrap_or_default() {
                let Some(name) = file.file_name().and_then(|n| n.to_str()) else {
                    continue;
                };
                for format in ArtifactFormat::ALL {
                    if let Some(slot) = name.strip_suffix(format.suffix()) {
                        slot_names.insert(slot.to_string());
                    }
                }
            }
            for slot in slot_names {
                if let Some(model) = self.load_artifact(&tenant, &slots_dir, &slot) {
                    self.inner
                        .registry
                        .publish(&format!("{tenant}/{slot}"), model);
                }
            }
            // 2. Replay every accepted search, newest id last.
            let sidecars: Vec<PathBuf> = storage
                .scan(&tenant_path)
                .map_err(std::io::Error::from)?
                .into_iter()
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.ends_with(".request.json"))
                })
                .collect();
            for sidecar in sidecars {
                let id = sidecar
                    .file_name()
                    .and_then(|n| n.to_str())
                    .and_then(|n| n.strip_suffix(".request.json"))
                    .unwrap_or_default()
                    .to_string();
                self.bump_next_id(&tenant, &id);
                self.recover_search(&tenant, &id, &sidecar);
            }
            // 3. Reopen every streaming session, completing interrupted
            //    chunks and republishing stream champions.
            self.recover_streams(&tenant, &tenant_path);
        }
        Ok(())
    }

    /// Renames a corrupt durable file to `{name}.corrupt` and records a
    /// [`TrialEventKind::StorageQuarantined`] event carrying the path
    /// and the parse failure. Recovery continues either way.
    fn quarantine(&self, path: &std::path::Path, tenant: &str, why: &str) {
        let quarantined = path.with_file_name(format!(
            "{}.corrupt",
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default()
        ));
        let moved = self.inner.cfg.storage.rename(path, &quarantined);
        let mut ev = TrialEvent::new(TrialEventKind::StorageQuarantined);
        ev.tenant = tenant.to_string();
        ev.label = path.display().to_string();
        ev.message = Some(match moved {
            Ok(()) => why.to_string(),
            Err(e) => format!("{why} (quarantine rename failed: {e})"),
        });
        self.inner.sink.emit(ev);
    }

    /// Loads the slot file `{slot}.artifact.blob` or
    /// `{slot}.artifact.json` from `dir`, blob first (the cheaper
    /// open: no parse). A file that fails validation is quarantined
    /// and the next format is tried, so a corrupt blob degrades to its
    /// JSON sibling instead of losing the model.
    fn load_artifact(
        &self,
        tenant: &str,
        dir: &std::path::Path,
        slot: &str,
    ) -> Option<CompiledModel> {
        let storage = self.inner.cfg.storage.as_ref();
        for format in ArtifactFormat::ALL {
            let path = dir.join(format!("{slot}{}", format.suffix()));
            if !storage.exists(&path) {
                continue;
            }
            match format.load_with(storage, &path) {
                Ok(model) => return Some(model),
                Err(e) => {
                    self.quarantine(&path, tenant, &format!("slot artifact ({format}): {e}"));
                }
            }
        }
        None
    }

    fn recover_search(&self, tenant: &str, id: &str, sidecar: &std::path::Path) {
        let tenant_dir = self.inner.cfg.root.join(tenant);
        let journal = tenant_dir.join(format!("{id}.jsonl"));
        let record = terminal_record(&tenant_dir, id);
        let storage = self.inner.cfg.storage.as_ref();
        let read_text = |path: &std::path::Path| {
            storage
                .read(path)
                .ok()
                .and_then(|bytes| String::from_utf8(bytes).ok())
        };
        // Finished or failed on a previous process: the terminal record
        // is its status, and its model (if any) is already in its slot
        // file. Any other record is outside input — sidelined, and the
        // search re-derived from its journal, which writes a new one.
        if storage.exists(&record) {
            let status = read_text(&record)
                .and_then(|text| serde_json::from_str::<SearchStatus>(&text).ok())
                .filter(|s| s.id == id && matches!(s.state.as_str(), "finished" | "failed"));
            match status {
                Some(status) => {
                    self.inner.scheduler.record_terminal(tenant, status);
                    return;
                }
                None => self.quarantine(&record, tenant, "unusable terminal record"),
            }
        }
        let request: Option<FitRequest> =
            read_text(sidecar).and_then(|text| serde_json::from_str(&text).ok());
        let failed = |slot: &str, error: String| {
            let (committed, spent, best_loss) = journal_progress(storage, &journal);
            SearchStatus {
                id: id.to_string(),
                state: "failed".to_string(),
                committed,
                spent,
                best_loss,
                slot: slot.to_string(),
                published_version: None,
                error: Some(error),
            }
        };
        let Some(request) = request else {
            // The sidecar is the intent record; without it the search
            // cannot be reconstructed. Sideline it and report the loss.
            self.quarantine(sidecar, tenant, "unreadable request sidecar");
            let error = "unreadable request sidecar (quarantined)".to_string();
            self.inner
                .scheduler
                .record_terminal(tenant, failed("", error));
            return;
        };
        // In flight when the process died: re-admit, resuming the
        // journal byte-identically where one exists. An unreadable
        // journal is quarantined and the search restarts from scratch —
        // slower, but never wedged.
        let automl = request.to_automl();
        let slice_trials = request.slice_trials();
        let FitRequest { slot, dataset, .. } = request;
        let built = automl.and_then(|automl| {
            let automl = automl.storage(Arc::clone(&self.inner.cfg.storage));
            let data = dataset.into_dataset()?;
            let handle = if storage.exists(&journal) {
                match SearchHandle::attach(automl.clone(), &journal) {
                    Ok(handle) => handle,
                    Err(e) => {
                        self.quarantine(&journal, tenant, &format!("search journal: {e}"));
                        SearchHandle::new(automl, &journal)
                    }
                }
            } else {
                SearchHandle::new(automl, &journal)
            };
            Ok((handle, data))
        });
        match built {
            Ok((handle, data)) => {
                self.inner.scheduler.submit_recovered(SearchJob {
                    tenant: tenant.to_string(),
                    id: id.to_string(),
                    slot,
                    slice_trials,
                    handle,
                    data,
                });
            }
            Err(msg) => {
                self.inner
                    .scheduler
                    .record_terminal(tenant, failed(&slot, msg));
            }
        }
    }

    fn bump_next_id(&self, tenant: &str, seen: &str) {
        if let Some(n) = seen.strip_prefix('s').and_then(|n| n.parse::<u64>().ok()) {
            let mut ids = self.inner.next_ids.lock().expect("id lock");
            let next = ids.entry(tenant.to_string()).or_insert(0);
            *next = (*next).max(n + 1);
        }
    }

    fn assign_id(&self, tenant: &str) -> String {
        let mut ids = self.inner.next_ids.lock().expect("id lock");
        let next = ids.entry(tenant.to_string()).or_insert(0);
        let id = format!("s{:04}", *next);
        *next += 1;
        id
    }

    /// Serves connections on `listener` until [`Server::stop`]: blocks
    /// in `accept` and gives each connection a thread of its own (a
    /// kept-alive connection would pin a pooled worker for up to
    /// `socket_timeout`), at most `MAX_CONNECTIONS` (256) at once. Requests
    /// are handled keep-alive. Returns — releasing the port — after
    /// `stop`, or after an `accept` error it cannot retry, which is
    /// reported as a `ServeRejected` event first.
    pub fn serve(&self, listener: TcpListener) {
        if let Ok(mut addr) = listener.local_addr() {
            // `stop` connects here; a wildcard bind listens on loopback.
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr.ip() {
                    IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            *self.inner.listening.lock().expect("listening lock") = Some(addr);
        }
        while !self.inner.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                // Re-read the flag: `stop`'s wake-up connection (and any
                // that raced it) is dropped, never served.
                Ok(_) if self.inner.shutdown.load(Ordering::SeqCst) => break,
                Ok((stream, _)) => self.admit(stream),
                // A signal, or a peer that reset while still queued.
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                    ) => {}
                Err(e) => {
                    self.emit_rejected("", format!("accept failed, no longer serving: {e}"));
                    break;
                }
            }
        }
    }

    /// Hands `stream` to a connection thread, or — over the bound, or
    /// when the thread cannot be spawned — answers `503` right here on
    /// the accept thread: typed, `connection: close`, counted in
    /// `/stats` as a rejection. The reply fits the send buffer of a
    /// fresh socket, so the write cannot block the acceptor.
    fn admit(&self, stream: TcpStream) {
        let stream = Arc::new(stream);
        let claimed = self
            .inner
            .connections
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < MAX_CONNECTIONS).then_some(n + 1)
            })
            .is_ok();
        let served = claimed && {
            let (slot, stream) = (ConnectionSlot(self.clone()), Arc::clone(&stream));
            // A failed spawn drops the closure, and with it the slot.
            std::thread::Builder::new()
                .spawn(move || slot.0.handle_connection(&stream))
                .is_ok()
        };
        if !served {
            let why = "too many connections";
            self.emit_rejected("", why.to_string());
            let _ = write_response(&*stream, 503, &ErrorBody::json(why), false);
        }
    }

    fn emit_rejected(&self, tenant: &str, why: String) {
        let mut ev = TrialEvent::new(TrialEventKind::ServeRejected);
        ev.tenant = tenant.to_string();
        ev.message = Some(why);
        self.inner.sink.emit(ev);
    }

    /// Binds `addr` (use port 0 for an ephemeral port), spawns the
    /// accept loop on a background thread, and returns the running
    /// server plus its local address.
    ///
    /// # Errors
    ///
    /// Returns any bind error.
    pub fn start(self, addr: &str) -> std::io::Result<(Server, std::net::SocketAddr)> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let server = self.clone();
        std::thread::spawn(move || server.serve(listener));
        Ok((self, local))
    }

    /// Stops the accept loop and the fit workers. Queued searches stay
    /// journaled and resume on the next start — stopping is equivalent
    /// to a crash, by design. The flag is set first and the acceptor
    /// then woken out of its blocking `accept` by one loopback connect;
    /// with no `serve` running, or on a second call, there is nobody to
    /// wake.
    pub fn stop(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.scheduler.stop();
        let listening = self.inner.listening.lock().expect("listening lock").take();
        if let Some(addr) = listening {
            // Refused or timed out means `accept` is not waiting.
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }

    fn handle_connection(&self, stream: &TcpStream) {
        // Small JSON responses + Nagle + delayed ACK = ~20ms floors;
        // a latency-gated service always wants immediate writes.
        let _ = stream.set_nodelay(true);
        // Socket timeouts bound how long a stalled client can pin this
        // thread.
        let _ = stream.set_read_timeout(self.inner.cfg.socket_timeout);
        let _ = stream.set_write_timeout(self.inner.cfg.socket_timeout);
        // `Read` and `Write` are implemented for `&TcpStream`: both
        // directions share the connection's one descriptor.
        let mut reader = BufReader::new(stream);
        loop {
            let request = match read_request(&mut reader) {
                Ok(Some(r)) => r,
                Ok(None) => return,
                Err(e) => {
                    let (status, msg) = if is_timeout(&e) {
                        self.inner
                            .sink
                            .emit(TrialEvent::new(TrialEventKind::ServeTimedOut));
                        (408, "request timed out".to_string())
                    } else {
                        (400, e.to_string())
                    };
                    let _ = write_response(stream, status, &ErrorBody::json(msg), false);
                    return;
                }
            };
            let keep_alive = request.keep_alive;
            let (status, body) = catch_unwind(AssertUnwindSafe(|| self.route(&request)))
                .unwrap_or_else(|_| (500, ErrorBody::json("request handler panicked")));
            if write_response(stream, status, &body, keep_alive).is_err() || !keep_alive {
                return;
            }
        }
    }

    /// Dispatches one request to its reply; a handler's refusal (the
    /// `Err` it left through `?`) is sent like any other.
    fn route(&self, req: &Request) -> Reply {
        let segments = req.segments();
        let handled = match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => Ok((200, "{\"ok\":true}".to_string())),
            ("GET", ["stats"]) => Ok(self.stats()),
            ("POST", ["tenants", tenant, "fit"]) => self.handle_fit(tenant, &req.body),
            ("GET", ["tenants", tenant, "searches", id]) => self.handle_status(tenant, id),
            ("POST", ["tenants", tenant, "predict"]) => self.handle_predict(tenant, &req.body),
            ("POST", ["tenants", tenant, "slots", slot]) => {
                self.handle_publish(tenant, slot, &req.body)
            }
            ("POST", ["tenants", tenant, "slots", slot, "rollback"]) => {
                self.handle_rollback(tenant, slot)
            }
            ("POST", ["tenants", tenant, "stream", slot]) => {
                self.handle_stream_push(tenant, slot, &req.body)
            }
            ("GET", ["tenants", tenant, "stream", slot, "status"]) => {
                self.handle_stream_status(tenant, slot)
            }
            _ => Err((404, ErrorBody::json("no such route"))),
        };
        handled.unwrap_or_else(|refusal| refusal)
    }

    fn check_tenant(&self, tenant: &str) -> Result<(), Reply> {
        if !valid_name(tenant) {
            return Err(bad_request("invalid tenant name"));
        }
        match &self.inner.cfg.tenants {
            Some(allowed) if !allowed.iter().any(|t| t == tenant) => {
                Err((403, ErrorBody::json(format!("unknown tenant {tenant:?}"))))
            }
            _ => Ok(()),
        }
    }

    fn handle_fit(&self, tenant: &str, body: &[u8]) -> Handled {
        self.check_tenant(tenant)?;
        // Admission before the parse (up to 64 MiB) and the `Dataset`
        // build: a rejected request costs neither and leaves no trace
        // except the telemetry counter. `submit` re-checks for the race.
        let inflight = self.inner.scheduler.inflight();
        if inflight >= self.inner.cfg.max_inflight {
            return Err(self.reject_fit(tenant, inflight));
        }
        let request: FitRequest = parse_json(body)?;
        check_slot(&request.slot)?;
        let automl = request.to_automl().map_err(bad_request)?;
        let slice_trials = request.slice_trials();
        // The columns move into the dataset: past this point the body
        // bytes and the dataset are the only copies.
        let FitRequest { slot, dataset, .. } = request;
        let data = dataset.into_dataset().map_err(bad_request)?;
        let id = self.assign_id(tenant);
        let tenant_dir = self.inner.cfg.root.join(tenant);
        let journal = tenant_dir.join(format!("{id}.jsonl"));
        // Persist the sidecar durably BEFORE admitting: once the client
        // sees 202, a kill at any point leaves enough on disk to resume.
        // It is the body as received — it parsed as a `FitRequest`, and
        // recovery parses it with the same parser. Atomic publish, so a
        // crash mid-write cannot leave a torn sidecar that recovery
        // would quarantine.
        let storage = Arc::clone(&self.inner.cfg.storage);
        storage
            .create_dir_all(&tenant_dir)
            .and_then(|()| {
                atomic_write_file(
                    storage.as_ref(),
                    &tenant_dir.join(format!("{id}.request.json")),
                    body,
                )
            })
            .map_err(|e| {
                self.storage_fault(tenant, "persisting request failed", &e, e.is_no_space())
            })?;
        let job = SearchJob {
            tenant: tenant.to_string(),
            id: id.clone(),
            slot,
            slice_trials,
            handle: SearchHandle::new(automl.storage(Arc::clone(&storage)), &journal),
            data,
        };
        match self.inner.scheduler.submit(job) {
            Ok(()) => {
                let accepted = FitAccepted {
                    id: id.clone(),
                    tenant: tenant.to_string(),
                    status_path: format!("/tenants/{tenant}/searches/{id}"),
                };
                Ok(reply(202, &accepted))
            }
            Err((inflight, _)) => {
                // Lost the admission race; drop the sidecar again.
                let _ = storage.remove(&tenant_dir.join(format!("{id}.request.json")));
                Err(self.reject_fit(tenant, inflight))
            }
        }
    }

    /// A failed durable write: counted as a `StorageFault` event and
    /// answered `507` when the disk is full, `500` otherwise.
    fn storage_fault(&self, tenant: &str, what: &str, e: &dyn Display, no_space: bool) -> Reply {
        let detail = e.to_string();
        self.inner.scheduler.emit_storage_fault(tenant, &detail);
        let status = if no_space { 507 } else { 500 };
        (status, ErrorBody::json(format!("{what}: {detail}")))
    }

    fn reject_fit(&self, tenant: &str, inflight: usize) -> Reply {
        let body = Rejected {
            error: "too many searches in flight".to_string(),
            inflight,
            max_inflight: self.inner.cfg.max_inflight,
        };
        self.emit_rejected(tenant, body.error.clone());
        reply(429, &body)
    }

    fn handle_status(&self, tenant: &str, id: &str) -> Handled {
        self.check_tenant(tenant)?;
        match self.inner.scheduler.status(tenant, id) {
            Some(status) => Ok(reply(200, &status)),
            None => Err((404, ErrorBody::json(format!("no search {id:?}")))),
        }
    }

    fn handle_predict(&self, tenant: &str, body: &[u8]) -> Handled {
        self.check_tenant(tenant)?;
        let request: PredictRequest = parse_json(body)?;
        check_slot(&request.slot)?;
        let key = format!("{tenant}/{}", request.slot);
        let Some(served) = self.inner.registry.get(&key) else {
            let msg = format!("no model in slot {:?}", request.slot);
            return Err((404, ErrorBody::json(msg)));
        };
        let expected = served.model.n_features();
        if request.columns.len() != expected {
            return Err(bad_request(format!(
                "model expects {expected} feature column(s), request has {}",
                request.columns.len()
            )));
        }
        let rows = request.columns.first().map_or(0, Vec::len);
        if rows == 0 || request.columns.iter().any(|c| c.len() != rows) {
            return Err(bad_request("columns must be non-empty and equal-length"));
        }
        // Prediction input needs no labels; a zero regression target
        // satisfies the Dataset invariants without affecting inference.
        let data = Dataset::new(
            key.clone(),
            Task::Regression,
            request.columns,
            vec![0.0; rows],
        )
        .map_err(|e| bad_request(format!("invalid matrix: {e:?}")))?;
        let tenant_name = tenant.to_string();
        let inner_sink = self.inner.sink.clone();
        let engine = BatchEngine::new(&self.inner.pool, self.inner.cfg.batch_rows).with_sink(
            EventSink::callback(move |ev| {
                let mut ev = ev.clone();
                ev.tenant = tenant_name.clone();
                inner_sink.emit(ev);
            }),
        );
        // Serve under the registry key so slot stats are per-tenant, and
        // through the version itself so its evaluator tables are reused.
        let pred = catch_unwind(AssertUnwindSafe(|| {
            engine.predict(&key, served.as_ref(), &data)
        }))
        .map_err(|_| (500, ErrorBody::json("prediction panicked")))?;
        let (n_classes, values) = match pred {
            flaml_metrics::Pred::Values(v) => (1, v),
            flaml_metrics::Pred::Probs { n_classes, p } => (n_classes, p),
        };
        let response = PredictResponse {
            rows,
            n_classes,
            values,
            version: served.version,
            fingerprint: served.fingerprint,
        };
        Ok(reply(200, &response))
    }

    fn handle_publish(&self, tenant: &str, slot: &str, body: &[u8]) -> Handled {
        self.check_tenant(tenant)?;
        check_slot(slot)?;
        // Sniff the format from the payload itself: a binary blob
        // leads with its magic, everything else must be the UTF-8 JSON
        // document. Either way the model re-persists in the server's
        // configured format — the wire format and the disk format are
        // independent choices.
        let model = if body.starts_with(&flaml_core::BLOB_MAGIC) {
            BlobModel::from_bytes(body)
                .map(CompiledModel::from)
                .map_err(|e| bad_request(format!("bad blob artifact: {e}")))?
        } else {
            let text =
                std::str::from_utf8(body).map_err(|_| bad_request("artifact body is not UTF-8"))?;
            CompiledModel::from_artifact_str(text)
                .map_err(|e| bad_request(format!("bad artifact: {e}")))?
        };
        // Durable slot registry first, then the live swap.
        let slots_dir = self.inner.cfg.root.join(tenant).join("slots");
        self.inner
            .scheduler
            .write_artifact(&model, &slots_dir, slot)
            .map_err(|e| {
                self.storage_fault(tenant, "persisting slot failed", &e, e.is_no_space())
            })?;
        let version = self
            .inner
            .registry
            .publish(&format!("{tenant}/{slot}"), model)
            .version;
        Ok((200, format!("{{\"version\":{version}}}")))
    }

    fn handle_rollback(&self, tenant: &str, slot: &str) -> Handled {
        self.check_tenant(tenant)?;
        match self.inner.registry.rollback(&format!("{tenant}/{slot}")) {
            Some(version) => Ok((200, format!("{{\"version\":{version}}}"))),
            None => Err((
                409,
                ErrorBody::json("slot unknown or already at its oldest version"),
            )),
        }
    }

    /// Process-local wiring for the stream at `tenant`/`slot`:
    /// challenger searches share the fit worker count, and promotions
    /// publish straight into the serving registry under the same key
    /// `/predict` reads, so the stream's champion serves immediately.
    fn stream_runtime(&self, tenant: &str, slot: &str) -> OnlineRuntime {
        OnlineRuntime {
            storage: Arc::clone(&self.inner.cfg.storage),
            workers: self.inner.cfg.fit_workers.max(1),
            registry: Some(Arc::clone(&self.inner.registry)),
            slot: format!("{tenant}/{slot}"),
        }
    }

    /// Reopens every streaming session under `tenant_path/streams`.
    /// [`OnlineSession::open`] replays the stream journal, completes
    /// any chunk interrupted by the kill, and republishes the champion
    /// — so the resumed promotion trace is byte-identical with a
    /// never-killed process and the slot serves again at once. A
    /// stream that fails to open is quarantined like any other corrupt
    /// durable state.
    fn recover_streams(&self, tenant: &str, tenant_path: &std::path::Path) {
        let storage = &self.inner.cfg.storage;
        let streams_dir = tenant_path.join("streams");
        let _ = sweep_stale_tmps(storage.as_ref(), &streams_dir);
        for dir in storage.scan(&streams_dir).unwrap_or_default() {
            if !storage.is_dir(&dir) {
                continue;
            }
            let slot = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if !valid_name(&slot) {
                continue;
            }
            match OnlineSession::open(&dir, self.stream_runtime(tenant, &slot)) {
                Ok(session) => {
                    self.inner
                        .streams
                        .lock()
                        .expect("streams lock")
                        .insert(format!("{tenant}/{slot}"), Arc::new(Mutex::new(session)));
                }
                Err(e) => self.quarantine(&dir, tenant, &format!("stream state: {e}")),
            }
        }
    }

    fn handle_stream_push(&self, tenant: &str, slot: &str, body: &[u8]) -> Handled {
        self.check_tenant(tenant)?;
        check_slot(slot)?;
        let request: StreamChunkRequest = parse_json(body)?;
        let StreamChunkRequest { dataset, options } = request;
        let chunk = dataset.into_dataset().map_err(bad_request)?;
        let key = format!("{tenant}/{slot}");
        let cell = {
            // Map lock held only for lookup/creation, never across a
            // push: a challenger round blocks its own stream only.
            let mut streams = self.inner.streams.lock().expect("streams lock");
            match streams.get(&key) {
                Some(cell) => Arc::clone(cell),
                None => {
                    // First chunk for this slot: open the durable
                    // stream if one exists on disk, otherwise create it
                    // under the request's options.
                    let dir = self.inner.cfg.root.join(tenant).join("streams").join(slot);
                    let rt = self.stream_runtime(tenant, slot);
                    let opened = match OnlineSession::open(&dir, rt.clone()) {
                        Err(OnlineError::Journal(flaml_online::LogError::Missing)) => {
                            let options = options.clone().unwrap_or_default();
                            let cfg = options
                                .to_config(chunk.task(), chunk.n_features())
                                .map_err(bad_request)?;
                            OnlineSession::create(&dir, cfg, rt)
                        }
                        other => other,
                    };
                    let session = opened.map_err(|e| self.stream_error(tenant, &e))?;
                    let cell = Arc::new(Mutex::new(session));
                    streams.insert(key.clone(), Arc::clone(&cell));
                    cell
                }
            }
        };
        let mut session = cell.lock().expect("stream session lock");
        match session.push_chunk(&chunk) {
            Ok(outcome) => {
                let era = session.status().era;
                let response = match outcome {
                    ChunkOutcome::Duplicate => StreamPushResponse {
                        slot: slot.to_string(),
                        chunk: session.status().chunks.saturating_sub(1),
                        duplicate: true,
                        champion_loss: None,
                        drifted: false,
                        rolled_back: false,
                        round: None,
                        era,
                    },
                    ChunkOutcome::Processed {
                        chunk,
                        champion_loss,
                        drifted,
                        round,
                        rolled_back,
                    } => StreamPushResponse {
                        slot: slot.to_string(),
                        chunk,
                        duplicate: false,
                        champion_loss,
                        drifted,
                        rolled_back,
                        round,
                        era,
                    },
                };
                Ok(reply(200, &response))
            }
            Err(e) => {
                // A mid-chunk failure wedges the session. Recover in
                // place — reopening replays the journal and completes
                // whatever the failed push committed — so the client's
                // retry of this chunk lands on a healthy session (and
                // dedupes if the chunk actually finished).
                if session.is_wedged() {
                    let dir = session.dir().to_path_buf();
                    if let Ok(reopened) =
                        OnlineSession::open(&dir, self.stream_runtime(tenant, slot))
                    {
                        *session = reopened;
                    }
                }
                Err(self.stream_error(tenant, &e))
            }
        }
    }

    /// Maps an [`OnlineError`] to an HTTP response: schema and config
    /// problems are the client's (400), state conflicts are 409, and
    /// storage failures surface as 507/500 with a telemetry event.
    fn stream_error(&self, tenant: &str, e: &OnlineError) -> Reply {
        let status = match e {
            OnlineError::SchemaMismatch { .. } | OnlineError::Config(_) => 400,
            OnlineError::Wedged | OnlineError::Corrupt(_) => 409,
            OnlineError::Durability(s) => {
                return self.storage_fault(tenant, "storage failure", s, s.is_no_space())
            }
            _ => 500,
        };
        (status, ErrorBody::json(e.to_string()))
    }

    fn handle_stream_status(&self, tenant: &str, slot: &str) -> Handled {
        self.check_tenant(tenant)?;
        check_slot(slot)?;
        let cell = {
            let streams = self.inner.streams.lock().expect("streams lock");
            streams.get(&format!("{tenant}/{slot}")).cloned()
        };
        match cell {
            Some(cell) => {
                let session = cell.lock().expect("stream session lock");
                Ok(reply(
                    200,
                    &StreamStatusBody::from_status(slot, &session.status()),
                ))
            }
            None => Err((404, ErrorBody::json(format!("no stream {slot:?}")))),
        }
    }

    fn stats(&self) -> Reply {
        // The scheduler's locks are never taken under the telemetry
        // lock, which every event emission needs; the body is built under
        // it and serialized after.
        let searches = self.inner.scheduler.state_counts();
        let inflight = self.inner.scheduler.inflight();
        let telemetry = self.inner.telemetry.lock().expect("telemetry lock");
        let by_tenant = telemetry
            .by_tenant
            .iter()
            .map(|(tenant, u)| {
                (
                    tenant.clone(),
                    TenantStats {
                        fit_slices: u.fit_slices,
                        fit_trials: u.fit_trials,
                        fit_cost_secs: u.fit_cost_secs,
                        serve_batches: u.serve_batches,
                        serve_rows: u.serve_rows,
                        rejected: u.rejected,
                    },
                )
            })
            .collect();
        let slots = telemetry
            .by_slot
            .iter()
            .map(|(name, s)| {
                (
                    name.clone(),
                    SlotStatsBody {
                        batches: s.batches,
                        rows: s.rows,
                        p50_secs: s.p50(),
                        p99_secs: s.p99(),
                        rows_per_sec: s.throughput(),
                    },
                )
            })
            .collect();
        let body = StatsBody {
            searches,
            inflight,
            max_inflight: self.inner.cfg.max_inflight,
            trials_started: telemetry.started,
            trials_finished: telemetry.finished,
            tenant_slices: telemetry.tenant_slices,
            serve_rejected: telemetry.serve_rejected,
            serve_queue_depth: telemetry.serve_queue_depth,
            serve_queue_depth_max: telemetry.serve_queue_depth_max,
            storage_quarantined: telemetry.storage_quarantined,
            storage_faults: telemetry.storage_faults,
            serve_timed_out: telemetry.serve_timed_out,
            promoted: telemetry.serve_promoted,
            rolled_back: telemetry.serve_rolled_back,
            by_tenant,
            slots,
        };
        drop(telemetry);
        reply(200, &body)
    }
}

/// `/stats` body.
#[derive(Debug, Serialize)]
struct StatsBody {
    searches: BTreeMap<String, usize>,
    inflight: usize,
    max_inflight: usize,
    trials_started: usize,
    trials_finished: usize,
    tenant_slices: usize,
    serve_rejected: usize,
    serve_queue_depth: usize,
    serve_queue_depth_max: usize,
    storage_quarantined: usize,
    storage_faults: usize,
    serve_timed_out: usize,
    promoted: usize,
    rolled_back: usize,
    by_tenant: BTreeMap<String, TenantStats>,
    slots: BTreeMap<String, SlotStatsBody>,
}

#[derive(Debug, Serialize)]
struct TenantStats {
    fit_slices: usize,
    fit_trials: usize,
    fit_cost_secs: f64,
    serve_batches: usize,
    serve_rows: usize,
    rejected: usize,
}

#[derive(Debug, Serialize)]
struct SlotStatsBody {
    batches: usize,
    rows: usize,
    p50_secs: f64,
    p99_secs: f64,
    rows_per_sec: f64,
}

/// A rendered reply: `(status, json_body)`.
type Reply = (u16, String);

/// What a handler returns: its answer, or the refusal that left it
/// through `?`. Both are sent the same way.
type Handled = Result<Reply, Reply>;

/// Renders a reply; the wire types always serialize.
fn reply(status: u16, body: &impl Serialize) -> Reply {
    let body = serde_json::to_string(body).expect("response serialization");
    (status, body)
}

fn bad_request(msg: impl Into<String>) -> Reply {
    (400, ErrorBody::json(msg))
}

fn check_slot(slot: &str) -> Result<(), Reply> {
    if valid_name(slot) {
        Ok(())
    } else {
        Err(bad_request("invalid slot name"))
    }
}

fn parse_json<T: for<'de> serde::Deserialize<'de>>(body: &[u8]) -> Result<T, Reply> {
    let text = std::str::from_utf8(body).map_err(|_| bad_request("body is not UTF-8"))?;
    serde_json::from_str(text).map_err(|e| bad_request(format!("bad JSON body: {e}")))
}
