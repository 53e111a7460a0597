//! The four fixed-work workloads.
//!
//! Every search runs under `TimeSource::Virtual(default_virtual_cost)`
//! with a fixed virtual budget or trial cap, so the trial trace is a
//! pure function of its training rows and only the seconds vary. The
//! training corpus of each workload is drawn from a frozen seed (a
//! constant of its spec): a FLOW²/ECI search is chaotic in its data (the
//! `gbdt_deep` search on corpora drawn from seeds 1–6 took 4.8–17.2 s),
//! so a corpus that changed with `--seed` would change the *work* by
//! 3.5× and no bound could hold. `--seed` draws the traffic: how the
//! unseen rows are batched into requests and the order they are sent
//! in.
//!
//! One repetition = set-up (timed as `setup_s`) → fit phase on fresh
//! state → one predict pass → output checks.

use crate::harness::{
    bit_equal, closed_loop, holdout_ratio, open_loop, parse_predict, render_predict, Fixture, Ops,
    Pass, PredictCall, WallClock,
};
use crate::httpc::{self, Conn};
use crate::procfs::cpu_secs;
use crate::storage::StoreSnapshot;
use crate::trace::Tracer;
use flaml_blob::{save_blob_with, ArtifactFormat, BlobOptions};
use flaml_core::{
    default_virtual_cost, AutoMl, AutoMlResult, LearnerKind, ResampleChoice, TimeSource,
};
use flaml_data::Dataset;
use flaml_exec::{EventSink, TrialEvent, TrialEventKind};
use flaml_journal::Journal;
use flaml_learners::{Gbdt, GbdtParams};
use flaml_serve::CompiledModel;
use flaml_server::{DatasetPayload, FitAccepted, FitRequest, SearchStatus};
use flaml_store::Storage;
use flaml_synth::{blobs, friedman1, hyperplane, ClassSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Workload names, in the order a full run executes them.
pub const NAMES: [&str; 4] = ["gbdt_deep", "cv_parallel", "tenant_churn", "mixed_tenants"];

/// Seed of every search: frozen, like the corpus, so the trace repeats.
const SEARCH_SEED: u64 = 1;

/// How often a client polls a search's status.
const POLL_EVERY: Duration = Duration::from_millis(5);

/// Rate of the `mixed_tenants` open loop.
pub const OPEN_LOOP_HZ: f64 = 300.0;

/// What a run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// `--seed`: draws request batches and send order.
    pub seed: u64,
    /// Linear size factor: 1.0 is the frozen size, the smoke test ~1/20.
    pub scale: f64,
    /// Four times the requests per closed-loop pass: the traced run's
    /// pass, long enough to back a p99.
    pub long_pass: bool,
}

impl RunCfg {
    fn rows(&self, n: usize, floor: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(floor)
    }

    /// Request counts shrink with the square root of the scale so a
    /// smoke run still has enough samples for a percentile.
    fn requests(&self, n: usize) -> usize {
        let n = ((n as f64 * self.scale.sqrt()).round() as usize).max(40);
        if self.long_pass {
            4 * n
        } else {
            n
        }
    }
}

/// What happened inside one traced `fit`, from its trial events.
#[derive(Debug, Clone, Default)]
pub struct FitEvents {
    /// Committed trials.
    pub trials: usize,
    /// Σ of the trials' measured wall seconds.
    pub trial_s_total: f64,
    /// `fit` called → first trial started.
    pub prepare_s: f64,
    /// First trial started → last trial finished.
    pub window_s: f64,
    /// Last trial finished → `fit` returned.
    pub refit_s: f64,
    /// Prepared-data cache hits and misses.
    pub prepared: (usize, usize),
    /// Tree-cache hits and misses.
    pub tree_cache: (usize, usize),
    /// Trees continued from cached prefixes.
    pub trees_saved: usize,
}

/// Everything the traced run adds to a repetition.
#[derive(Debug, Clone, Default)]
pub struct FitTrace {
    /// Trial-level view of the fit (of the in-process reference fit on
    /// the service path, where the server owns the event sink).
    pub events: FitEvents,
    /// Wall seconds of the fit those events describe.
    pub events_fit_s: f64,
    /// `fit` returned → artifact on disk.
    pub export_s: f64,
    /// Artifact on disk → publish answered.
    pub publish_s: f64,
    /// Publish answered → first predict answered.
    pub first_predict_s: f64,
    /// Median `POST …/fit` → `202` milliseconds (service path).
    pub fit_accept_ms: f64,
}

/// One repetition's measurements.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Data generation + request rendering + server up to `/healthz`.
    pub setup_s: f64,
    /// Rows → published model: first call into the fit until the first
    /// `200` from `/predict` on every published slot.
    pub fit_wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub fit_cpu_s: f64,
    /// Committed trials over all searches.
    pub trials: usize,
    /// Σ of the measured wall seconds of those trials, as journaled.
    pub trial_s: f64,
    /// `Journal::canonical_bytes` of every search, in submission order.
    pub journals: Vec<String>,
    /// The predict pass.
    pub pass: Pass,
    /// Served loss ÷ constant-predictor loss on unseen rows (mean over
    /// tenants).
    pub holdout_loss: f64,
    /// Bytes of the published artifact(s).
    pub artifact_bytes: u64,
    /// Durable operations of the whole repetition.
    pub store: StoreSnapshot,
    /// Operations attempted and failed.
    pub ops: Ops,
    /// Present on the traced run.
    pub trace: Option<FitTrace>,
}

/// What a traced repetition leaves running for the layer probes.
pub struct Probe {
    /// The repetition's server, still up.
    pub fixture: Fixture,
    /// The workload's (first) training set.
    pub train: Dataset,
    /// The (first) published model, as loaded from its artifact.
    pub model: CompiledModel,
    /// One predict request of the workload.
    pub call: PredictCall,
    /// Tenant and slot that request addresses.
    pub slot: (String, String),
    /// The search settings of the workload's (first) search, without
    /// journal or storage.
    pub settings: AutoMl,
    /// Format the workload publishes in.
    pub format: ArtifactFormat,
}

/// Runs one repetition of workload `name`. With a tracer, spans are
/// recorded and the fixture is handed back alive.
///
/// # Panics
///
/// Panics on an unknown workload name or when the server cannot start:
/// nothing can be measured then.
pub fn run_rep(name: &str, cfg: RunCfg, tracer: Option<&Tracer>) -> (Rep, Option<Probe>) {
    match name {
        "gbdt_deep" => library_rep(&gbdt_deep(cfg), cfg, tracer),
        "cv_parallel" => library_rep(&cv_parallel(cfg), cfg, tracer),
        "tenant_churn" => tenant_churn_rep(cfg, tracer),
        "mixed_tenants" => mixed_tenants_rep(cfg, tracer),
        other => panic!("unknown workload {other:?}; expected one of {NAMES:?}"),
    }
}

// ---------------------------------------------------------------------
// Shared steps
// ---------------------------------------------------------------------

/// The pool rows `lo..hi` in the order `seed` draws them. Every pool
/// row is sent (and scored) under every seed — only the batching and
/// the order change — so `holdout_loss` does not move with the seed.
fn draw_rows(lo: usize, hi: usize, seed: u64) -> Vec<usize> {
    let mut rows: Vec<usize> = (lo..hi).collect();
    rows.shuffle(&mut StdRng::seed_from_u64(seed));
    rows
}

/// Cuts `rows` of `corpus` into predict calls of `per_call` rows.
fn render_calls(
    corpus: &Dataset,
    rows: &[usize],
    per_call: usize,
    tenant: &str,
    slot: &str,
    model: usize,
    keep_alive: bool,
) -> Vec<PredictCall> {
    rows.chunks(per_call)
        .map(|chunk| {
            let data = corpus.select(chunk);
            PredictCall {
                bytes: render_predict(tenant, slot, &data, keep_alive),
                data,
                model,
            }
        })
        .collect()
}

/// Collects a fit's trial events with the instant each arrived.
#[derive(Clone, Default)]
struct TrialLog(Arc<Mutex<Vec<(Instant, TrialEvent)>>>);

impl TrialLog {
    fn sink(&self) -> EventSink {
        let log = Arc::clone(&self.0);
        EventSink::callback(move |ev| {
            if matches!(
                ev.kind,
                TrialEventKind::Started
                    | TrialEventKind::Finished
                    | TrialEventKind::TimedOut
                    | TrialEventKind::Panicked
            ) {
                log.lock()
                    .expect("trial log lock")
                    .push((Instant::now(), ev.clone()));
            }
        })
    }

    /// Folds the log into [`FitEvents`] and records one `core.trial`
    /// span per committed trial under `parent`.
    fn fold(
        &self,
        called: Instant,
        returned: Instant,
        tracer: &Tracer,
        parent: u64,
        group: &str,
    ) -> FitEvents {
        let log = self.0.lock().expect("trial log lock");
        let mut out = FitEvents::default();
        let first_start = log
            .iter()
            .find(|(_, e)| e.kind == TrialEventKind::Started)
            .map_or(called, |(t, _)| *t);
        let mut last_end = first_start;
        for (at, ev) in log.iter() {
            let (Some(wall), Some(_)) = (ev.wall_secs, ev.meta.as_ref()) else {
                continue;
            };
            out.trials += 1;
            out.trial_s_total += wall;
            out.prepared.0 += ev.prepared_hits;
            out.prepared.1 += ev.prepared_misses;
            out.tree_cache.0 += ev.tree_cache_hits;
            out.tree_cache.1 += ev.tree_cache_misses;
            out.trees_saved += ev.trees_saved;
            last_end = *at;
            let start = at.checked_sub(Duration::from_secs_f64(wall)).unwrap_or(*at);
            tracer.record(
                parent,
                group,
                &format!("core.trial[{}]", ev.learner),
                start,
                *at,
            );
        }
        out.prepare_s = first_start.duration_since(called).as_secs_f64();
        out.window_s = last_end.duration_since(first_start).as_secs_f64();
        out.refit_s = returned.saturating_duration_since(last_end).as_secs_f64();
        out
    }
}

/// Runs `settings.fit(data)`; with a tracer, also folds its events.
fn timed_fit(
    settings: AutoMl,
    data: &Dataset,
    tracer: Option<&Tracer>,
    group: &str,
) -> (Result<AutoMlResult, String>, FitEvents, f64) {
    let log = TrialLog::default();
    let settings = match tracer {
        Some(_) => settings.event_sink(log.sink()),
        None => settings,
    };
    let called = Instant::now();
    let result = settings.fit(data).map_err(|e| e.to_string());
    let returned = Instant::now();
    let events = match tracer {
        Some(tracer) => {
            let fit = tracer.record(0, group, "core.fit", called, returned);
            log.fold(called, returned, tracer, fit, group)
        }
        None => FitEvents::default(),
    };
    (
        result,
        events,
        returned.duration_since(called).as_secs_f64(),
    )
}

/// Reads one search's journal into the repetition: canonical bytes,
/// trial count, and the seconds its trials measured.
fn fold_journal(path: &std::path::Path, rep: &mut Rep, ops: &mut Ops) {
    match Journal::read(path) {
        Ok(journal) => {
            ops.attempted += 1;
            rep.journals.push(journal.canonical_bytes());
            rep.trials += journal.trials.len();
            rep.trial_s += journal.trials.iter().map(|t| t.wall_secs).sum::<f64>();
        }
        Err(e) => {
            ops.check(false, || format!("journal {}: {e}", path.display()));
        }
    }
}

fn load_artifact(path: &std::path::Path, ops: &mut Ops) -> Option<CompiledModel> {
    let loaded = if path.extension().is_some_and(|e| e == "blob") {
        flaml_blob::BlobModel::open(path).map(|b| b.to_compiled())
    } else {
        CompiledModel::load(path)
    };
    match loaded {
        Ok(model) => {
            ops.attempted += 1;
            Some(model)
        }
        Err(e) => {
            ops.check(false, || format!("artifact {}: {e}", path.display()));
            None
        }
    }
}

/// Compares a sample of first-cycle replies with in-process
/// predictions of the same rows, bit for bit, and returns the parsed
/// replies of the whole cycle.
fn check_replies(
    calls: &[PredictCall],
    replies: &[Option<Vec<u8>>],
    models: &[Option<CompiledModel>],
    ops: &mut Ops,
) -> Vec<Option<flaml_server::PredictResponse>> {
    // Every reply is parsed (the holdout score needs them all); every
    // `stride`-th is also recomputed in process.
    let stride = (calls.len() / 16).max(1);
    calls
        .iter()
        .zip(replies)
        .enumerate()
        .map(|(i, (call, reply))| {
            let parsed = reply.as_deref().and_then(parse_predict);
            if reply.is_some() {
                ops.check(parsed.is_some(), || {
                    format!("reply {i} is not a PredictResponse")
                });
            }
            if i % stride == 0 {
                if let (Some(parsed), Some(Some(model))) = (&parsed, models.get(call.model)) {
                    let local = model.predict(&call.data);
                    ops.check(bit_equal(parsed, &local), || {
                        format!("reply {i} differs from in-process CompiledModel::predict")
                    });
                }
            }
            parsed
        })
        .collect()
}

/// Mean over models of served loss ÷ constant-predictor loss.
fn score_holdout(
    trains: &[&Dataset],
    calls: &[PredictCall],
    replies: &[Option<flaml_server::PredictResponse>],
    ops: &mut Ops,
) -> f64 {
    let mut ratios = Vec::new();
    for (m, train) in trains.iter().enumerate() {
        let mut labels = Vec::new();
        let mut values = Vec::new();
        for (call, reply) in calls.iter().zip(replies) {
            if call.model == m {
                if let Some(reply) = reply {
                    labels.extend_from_slice(call.data.target());
                    values.extend_from_slice(&reply.values);
                }
            }
        }
        if !labels.is_empty() {
            ratios.push(holdout_ratio(train, &labels, values));
        }
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    ops.check(mean < 1.0, || {
        format!("holdout_loss {mean:.4} is not below the constant predictor's 1.0")
    });
    mean
}

// ---------------------------------------------------------------------
// Library path: gbdt_deep and cv_parallel
// ---------------------------------------------------------------------

/// Frozen sizes of a library-path workload.
#[derive(Debug, Clone)]
pub struct LibrarySpec {
    name: &'static str,
    n_train: usize,
    n_pool: usize,
    rows_per_request: usize,
    requests_per_pass: usize,
    budget: f64,
    format: ArtifactFormat,
    /// Draws the first `n` rows of the workload's frozen corpus.
    make: fn(usize) -> Dataset,
    settings: fn() -> AutoMl,
}

fn gbdt_deep_data(n: usize) -> Dataset {
    hyperplane(
        30,
        0.3,
        ClassSpec {
            n,
            noise_features: 20,
            seed: 5,
            ..ClassSpec::default()
        },
    )
}

fn gbdt_deep_settings() -> AutoMl {
    AutoMl::new()
        .estimators([LearnerKind::LightGbm, LearnerKind::XgBoost])
        .resample(ResampleChoice::AlwaysHoldout)
        .workers(2)
}

/// `gbdt_deep`: two boosted-tree learners on 30 000 × 50 rows.
pub fn gbdt_deep(cfg: RunCfg) -> LibrarySpec {
    LibrarySpec {
        name: "gbdt_deep",
        n_train: cfg.rows(30_000, 600),
        n_pool: cfg.rows(16_384, 600),
        rows_per_request: cfg.rows(256, 16),
        requests_per_pass: cfg.requests(300),
        budget: 120.0 * cfg.scale,
        format: ArtifactFormat::Blob,
        make: gbdt_deep_data,
        settings: gbdt_deep_settings,
    }
}

fn cv_parallel_data(n: usize) -> Dataset {
    blobs(
        5,
        12,
        2.0,
        ClassSpec {
            n,
            noise_features: 8,
            categorical_features: 2,
            seed: 5,
            ..ClassSpec::default()
        },
    )
}

fn cv_parallel_settings() -> AutoMl {
    AutoMl::new().resample(ResampleChoice::AlwaysCv).workers(2)
}

/// `cv_parallel`: all six learners, 5-fold CV on the pool, 4 000 × 22.
pub fn cv_parallel(cfg: RunCfg) -> LibrarySpec {
    LibrarySpec {
        name: "cv_parallel",
        n_train: cfg.rows(4_000, 300),
        n_pool: cfg.rows(16_384, 200),
        rows_per_request: cfg.rows(128, 8),
        requests_per_pass: cfg.requests(300),
        budget: 70.0 * cfg.scale,
        format: ArtifactFormat::Json,
        make: cv_parallel_data,
        settings: cv_parallel_settings,
    }
}

const LIB_TENANT: &str = "t";
const LIB_SLOT: &str = "s";

/// What set-up leaves for a library-path repetition.
struct LibraryInputs {
    train: Dataset,
    calls: Vec<PredictCall>,
    fixture: Fixture,
    started: Instant,
    ready: Instant,
}

fn library_setup(spec: &LibrarySpec, cfg: RunCfg) -> LibraryInputs {
    let started = Instant::now();
    let corpus = (spec.make)(spec.n_train + spec.n_pool);
    let train = corpus.prefix(spec.n_train);
    let rows = draw_rows(spec.n_train, spec.n_train + spec.n_pool, cfg.seed);
    let calls = render_calls(
        &corpus,
        &rows,
        spec.rows_per_request,
        LIB_TENANT,
        LIB_SLOT,
        0,
        true,
    );
    let fixture = Fixture::start(spec.name, spec.format).expect("server starts");
    LibraryInputs {
        train,
        calls,
        fixture,
        started,
        ready: Instant::now(),
    }
}

fn library_rep(spec: &LibrarySpec, cfg: RunCfg, tracer: Option<&Tracer>) -> (Rep, Option<Probe>) {
    let mut rep = Rep::default();
    let mut ops = Ops::default();
    let group = format!("{}-search", spec.name);

    let LibraryInputs {
        train,
        calls,
        fixture,
        started: setup_start,
        ready: setup_end,
    } = library_setup(spec, cfg);
    rep.setup_s = setup_end.duration_since(setup_start).as_secs_f64();

    // ---- fit: rows -> published model --------------------------------
    let dir = fixture.root.join("library");
    let journal = dir.join("search.jsonl");
    let artifact = dir.join(format!("model{}", spec.format.suffix()));
    let storage: Arc<dyn Storage> = Arc::clone(&fixture.storage) as Arc<dyn Storage>;
    let settings = (spec.settings)()
        .seed(SEARCH_SEED)
        .time_budget(spec.budget)
        .time_source(TimeSource::Virtual(default_virtual_cost));
    let run = settings
        .clone()
        .journal(&journal)
        .storage(Arc::clone(&storage));

    let cpu0 = cpu_secs();
    let t0 = Instant::now();
    let (result, events, fit_s) = timed_fit(run, &train, tracer, &group);
    let t_fit = Instant::now();
    let exported = result.and_then(|r| {
        let compiled = r.compile().map_err(|e| e.to_string())?;
        match spec.format {
            ArtifactFormat::Blob => {
                save_blob_with(storage.as_ref(), &artifact, &compiled, BlobOptions::tuned())
            }
            ArtifactFormat::Json => compiled.save_with(storage.as_ref(), &artifact),
        }
        .map_err(|e| e.to_string())?;
        std::fs::read(&artifact).map_err(|e| e.to_string())
    });
    let t_export = Instant::now();
    let published = match exported {
        Ok(bytes) => {
            ops.attempted += 1;
            rep.artifact_bytes = bytes.len() as u64;
            let publish = httpc::render(
                "POST",
                &format!("/tenants/{LIB_TENANT}/slots/{LIB_SLOT}"),
                &bytes,
                false,
            );
            ops.expect(httpc::one_shot(fixture.addr, &publish), 200, "publish")
                .is_some()
        }
        Err(e) => ops.check(false, || format!("fit/export: {e}")),
    };
    let t_publish = Instant::now();
    if published {
        let first = Conn::connect(fixture.addr).and_then(|mut c| c.exchange(&calls[0].bytes));
        ops.expect(first, 200, "first predict");
    }
    let t1 = Instant::now();
    rep.fit_wall_s = t1.duration_since(t0).as_secs_f64();
    rep.fit_cpu_s = cpu_secs() - cpu0;

    if let Some(tracer) = tracer {
        tracer.record(0, &group, "harness.setup", setup_start, setup_end);
        tracer.record(0, &group, "serve.export", t_fit, t_export);
        tracer.record(0, &group, "server.publish", t_export, t_publish);
        tracer.record(0, &group, "server.first_predict", t_publish, t1);
        rep.trace = Some(FitTrace {
            events,
            events_fit_s: fit_s,
            export_s: t_export.duration_since(t_fit).as_secs_f64(),
            publish_s: t_publish.duration_since(t_export).as_secs_f64(),
            first_predict_s: t1.duration_since(t_publish).as_secs_f64(),
            fit_accept_ms: 0.0,
        });
    }

    // ---- predict pass and output checks ------------------------------
    let (pass, replies) = closed_loop(fixture.addr, &calls, spec.requests_per_pass, true, &mut ops);
    rep.pass = pass;
    fold_journal(&journal, &mut rep, &mut ops);
    let model = load_artifact(&artifact, &mut ops);
    let models = [model];
    let parsed = check_replies(&calls, &replies, &models, &mut ops);
    rep.holdout_loss = score_holdout(&[&train], &calls, &parsed, &mut ops);
    rep.store = fixture.storage.counts().snapshot();
    rep.ops = ops;

    let [model] = models;
    let probe = match (tracer, model) {
        (Some(_), Some(model)) => Some(Probe {
            fixture,
            train,
            model,
            call: calls[0].clone(),
            slot: (LIB_TENANT.to_string(), LIB_SLOT.to_string()),
            settings,
            format: spec.format,
        }),
        _ => None,
    };
    (rep, probe)
}

// ---------------------------------------------------------------------
// Service path: shared client steps
// ---------------------------------------------------------------------

fn fit_request_bytes(tenant: &str, request: &FitRequest) -> Vec<u8> {
    let body = serde_json::to_string(request).expect("fit request serializes");
    httpc::render(
        "POST",
        &format!("/tenants/{tenant}/fit"),
        body.as_bytes(),
        true,
    )
}

/// Submits one fit; returns the search id on `202`.
fn submit(conn: &mut Conn, bytes: &[u8], ops: &mut Ops) -> Option<(String, f64)> {
    let sent = Instant::now();
    let body = ops.expect(conn.exchange(bytes), 202, "fit")?;
    let accept_ms = sent.elapsed().as_secs_f64() * 1e3;
    let accepted: Option<FitAccepted> = std::str::from_utf8(&body)
        .ok()
        .and_then(|t| serde_json::from_str(t).ok());
    match accepted {
        Some(a) => Some((a.id, accept_ms)),
        None => {
            ops.check(false, || "202 body is not a FitAccepted".to_string());
            None
        }
    }
}

/// Polls one search; `Some(true)` finished, `Some(false)` still going,
/// `None` failed (counted).
fn poll(conn: &mut Conn, tenant: &str, id: &str, ops: &mut Ops) -> Option<bool> {
    let request = httpc::render(
        "GET",
        &format!("/tenants/{tenant}/searches/{id}"),
        b"",
        true,
    );
    let status: Option<SearchStatus> = conn
        .exchange(&request)
        .ok()
        .filter(|(status, _)| *status == 200)
        .and_then(|(_, body)| String::from_utf8(body).ok())
        .and_then(|text| serde_json::from_str(&text).ok());
    match status {
        Some(s) if s.state == "finished" => {
            ops.attempted += 1;
            Some(true)
        }
        Some(s) if s.state == "failed" => {
            ops.check(false, || {
                format!(
                    "search {tenant}/{id} failed: {}",
                    s.error.unwrap_or_default()
                )
            });
            None
        }
        Some(_) => Some(false),
        None => {
            ops.check(false, || {
                format!("status poll {tenant}/{id} got no SearchStatus")
            });
            None
        }
    }
}

/// Path of the slot artifact a finished search published (JSON is the
/// server default).
fn slot_artifact(fixture: &Fixture, tenant: &str, slot: &str) -> std::path::PathBuf {
    fixture
        .root
        .join(tenant)
        .join("slots")
        .join(format!("{slot}{}", ArtifactFormat::Json.suffix()))
}

// ---------------------------------------------------------------------
// tenant_churn
// ---------------------------------------------------------------------

const CHURN_TENANTS: usize = 8;
const CHURN_SEARCHES_PER_TENANT: usize = 2;
const CHURN_SLOT: &str = "live";

fn churn_corpus(tenant: usize, n: usize) -> Dataset {
    let seed = 1_000 + tenant as u64;
    // 6-8 features; tasks cycle binary / multiclass:3 / regression.
    let extra = (tenant / 3) % 3;
    match tenant % 3 {
        0 => hyperplane(
            4,
            0.3,
            ClassSpec {
                n,
                noise_features: 2 + extra,
                seed,
                ..ClassSpec::default()
            },
        ),
        1 => blobs(
            3,
            4,
            1.0,
            ClassSpec {
                n,
                noise_features: 2 + extra,
                seed,
                ..ClassSpec::default()
            },
        ),
        _ => friedman1(n, 6 + extra, 1.0, seed),
    }
}

fn churn_request(train: &Dataset, search: usize, max_trials: usize) -> FitRequest {
    FitRequest {
        slot: CHURN_SLOT.to_string(),
        // Never binding: the trial cap ends the search.
        time_budget: 60.0,
        max_trials: Some(max_trials),
        seed: SEARCH_SEED + search as u64,
        estimators: Vec::new(),
        sample_size_init: Some(100),
        slice_trials: None,
        dataset: DatasetPayload::from_dataset(train),
    }
}

/// What set-up leaves for a `tenant_churn` repetition.
struct ChurnInputs {
    tenants: Vec<String>,
    trains: Vec<Dataset>,
    /// `fit_bytes[tenant][search]`: the rendered fit requests.
    fit_bytes: Vec<Vec<Vec<u8>>>,
    /// Tenant 0's first request, for the in-process reference fit.
    first_request: FitRequest,
    /// One-row calls, round-robin over the tenants' slots.
    calls: Vec<PredictCall>,
    requests_per_pass: usize,
    fixture: Fixture,
    started: Instant,
    ready: Instant,
}

fn churn_setup(cfg: RunCfg) -> ChurnInputs {
    let n_train = 400;
    let n_pool = 40;
    let max_trials = ((16.0 * cfg.scale.sqrt()).round() as usize).max(6);

    let started = Instant::now();
    let tenants: Vec<String> = (0..CHURN_TENANTS).map(|i| format!("tenant{i}")).collect();
    let mut trains = Vec::new();
    let mut fit_bytes: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut per_tenant_calls = Vec::new();
    let mut first_request = None;
    for (i, tenant) in tenants.iter().enumerate() {
        let corpus = churn_corpus(i, n_train + n_pool);
        let train = corpus.prefix(n_train);
        let requests: Vec<FitRequest> = (0..CHURN_SEARCHES_PER_TENANT)
            .map(|s| churn_request(&train, s, max_trials))
            .collect();
        fit_bytes.push(
            requests
                .iter()
                .map(|r| fit_request_bytes(tenant, r))
                .collect(),
        );
        if first_request.is_none() {
            first_request = requests.into_iter().next();
        }
        let rows = draw_rows(
            n_train,
            n_train + n_pool,
            cfg.seed.wrapping_mul(31).wrapping_add(i as u64),
        );
        // One row per request, a connection per request.
        per_tenant_calls.push(render_calls(
            &corpus, &rows, 1, tenant, CHURN_SLOT, i, false,
        ));
        trains.push(train);
    }
    // Round-robin over the slots: row r of tenant 0, 1, ... then row r+1.
    let mut calls = Vec::with_capacity(CHURN_TENANTS * n_pool);
    for r in 0..n_pool {
        for tenant_calls in &per_tenant_calls {
            calls.push(tenant_calls[r].clone());
        }
    }
    let fixture = Fixture::start("tenant_churn", ArtifactFormat::Json).expect("server starts");
    ChurnInputs {
        tenants,
        trains,
        fit_bytes,
        first_request: first_request.expect("tenant 0 has a request"),
        calls,
        requests_per_pass: cfg.requests(320),
        fixture,
        started,
        ready: Instant::now(),
    }
}

fn tenant_churn_rep(cfg: RunCfg, tracer: Option<&Tracer>) -> (Rep, Option<Probe>) {
    let mut rep = Rep::default();
    let mut ops = Ops::default();
    let ChurnInputs {
        tenants,
        mut trains,
        fit_bytes,
        first_request,
        mut calls,
        requests_per_pass,
        fixture,
        started: setup_start,
        ready: setup_end,
    } = churn_setup(cfg);
    rep.setup_s = setup_end.duration_since(setup_start).as_secs_f64();

    // ---- fit: every tenant runs its searches back to back ------------
    // One search in flight per tenant keeps the server at its default
    // admission bound of 8, so no fit is ever refused.
    let cpu0 = cpu_secs();
    let t0 = Instant::now();
    let mut accept_ms = Vec::new();
    let mut ids: Vec<Vec<String>> = vec![Vec::new(); CHURN_TENANTS];
    let mut submitted_at: Vec<Instant> = vec![t0; CHURN_TENANTS];
    match Conn::connect(fixture.addr) {
        Ok(mut conn) => {
            let mut in_flight: Vec<Option<String>> = vec![None; CHURN_TENANTS];
            for i in 0..CHURN_TENANTS {
                submitted_at[i] = Instant::now();
                if let Some((id, ms)) = submit(&mut conn, &fit_bytes[i][0], &mut ops) {
                    accept_ms.push(ms);
                    ids[i].push(id.clone());
                    in_flight[i] = Some(id);
                }
            }
            while in_flight.iter().any(Option::is_some) {
                std::thread::sleep(POLL_EVERY);
                for i in 0..CHURN_TENANTS {
                    let Some(id) = in_flight[i].clone() else {
                        continue;
                    };
                    match poll(&mut conn, &tenants[i], &id, &mut ops) {
                        Some(false) => {}
                        done => {
                            in_flight[i] = None;
                            if let Some(tracer) = tracer {
                                tracer.record(
                                    0,
                                    &format!("{}/{id}", tenants[i]),
                                    "server.search",
                                    submitted_at[i],
                                    Instant::now(),
                                );
                            }
                            let next = ids[i].len();
                            if done == Some(true) && next < CHURN_SEARCHES_PER_TENANT {
                                submitted_at[i] = Instant::now();
                                if let Some((id, ms)) =
                                    submit(&mut conn, &fit_bytes[i][next], &mut ops)
                                {
                                    accept_ms.push(ms);
                                    ids[i].push(id.clone());
                                    in_flight[i] = Some(id);
                                }
                            }
                        }
                    }
                }
            }
        }
        Err(e) => {
            ops.check(false, || format!("connect for fits: {e}"));
        }
    }
    let t_done = Instant::now();
    for call in calls.iter().take(CHURN_TENANTS) {
        ops.expect(
            httpc::one_shot(fixture.addr, &call.bytes),
            200,
            "first predict",
        );
    }
    let t1 = Instant::now();
    rep.fit_wall_s = t1.duration_since(t0).as_secs_f64();
    rep.fit_cpu_s = cpu_secs() - cpu0;

    // ---- predict pass and output checks ------------------------------
    let (pass, replies) = closed_loop(fixture.addr, &calls, requests_per_pass, false, &mut ops);
    rep.pass = pass;
    let mut models = Vec::new();
    for (i, tenant) in tenants.iter().enumerate() {
        ops.check(ids[i].len() == CHURN_SEARCHES_PER_TENANT, || {
            format!("{tenant} ran {} of its searches", ids[i].len())
        });
        for id in &ids[i] {
            let journal = fixture.root.join(tenant).join(format!("{id}.jsonl"));
            fold_journal(&journal, &mut rep, &mut ops);
        }
        let path = slot_artifact(&fixture, tenant, CHURN_SLOT);
        rep.artifact_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        models.push(load_artifact(&path, &mut ops));
    }
    let parsed = check_replies(&calls, &replies, &models, &mut ops);
    let train_refs: Vec<&Dataset> = trains.iter().collect();
    rep.holdout_loss = score_holdout(&train_refs, &calls, &parsed, &mut ops);
    rep.store = fixture.storage.counts().snapshot();

    let mut probe = None;
    if let Some(tracer) = tracer {
        tracer.record(0, "tenant_churn", "harness.setup", setup_start, setup_end);
        tracer.record(0, "tenant_churn", "server.searches", t0, t_done);
        tracer.record(0, "tenant_churn", "server.first_predict", t_done, t1);
        // The server owns the sink of its searches, so the trial-level
        // view comes from running tenant 0's first request in process.
        let settings = first_request.to_automl().expect("request builds");
        let (result, events, fit_s) = timed_fit(
            settings.clone(),
            &trains[0],
            Some(tracer),
            "tenant0-reference",
        );
        ops.check(result.is_ok(), || "reference fit failed".to_string());
        accept_ms.sort_by(f64::total_cmp);
        rep.trace = Some(FitTrace {
            events,
            events_fit_s: fit_s,
            fit_accept_ms: crate::stats::median(&accept_ms),
            ..FitTrace::default()
        });
        if let Some(model) = models.swap_remove(0) {
            probe = Some(Probe {
                fixture,
                train: trains.swap_remove(0),
                model,
                call: calls.swap_remove(0),
                slot: (tenants[0].clone(), CHURN_SLOT.to_string()),
                settings,
                format: ArtifactFormat::Json,
            });
        }
    }
    rep.ops = ops;
    (rep, probe)
}

// ---------------------------------------------------------------------
// mixed_tenants
// ---------------------------------------------------------------------

const SERVE_TENANT: &str = "serve";
const SEARCH_TENANT: &str = "search";
const MIXED_SLOT: &str = "live";

/// What set-up leaves for a `mixed_tenants` repetition.
struct MixedInputs {
    serve_train: Dataset,
    serve_model: Option<CompiledModel>,
    serve_calls: Vec<PredictCall>,
    search_train: Dataset,
    request: FitRequest,
    fit_bytes: Vec<u8>,
    search_calls: Vec<PredictCall>,
    fixture: Fixture,
    ops: Ops,
    started: Instant,
    ready: Instant,
}

fn mixed_setup(cfg: RunCfg) -> MixedInputs {
    let serve_rows = cfg.rows(4_000, 400);
    let serve_pool = 6_144;
    let rows_per_request = 96;
    let search_rows = cfg.rows(2_500, 300);
    let search_pool = cfg.rows(1_024, 128);
    let budget = 40.0 * cfg.scale;
    let mut ops = Ops::default();

    let started = Instant::now();
    // Tenant `serve`: a 100-tree GBDT on 4 000 x 20, published before
    // the clock starts.
    let serve_corpus = hyperplane(
        10,
        0.3,
        ClassSpec {
            n: serve_rows + serve_pool,
            noise_features: 10,
            seed: 3,
            ..ClassSpec::default()
        },
    );
    let serve_train = serve_corpus.prefix(serve_rows);
    let serve_model = Gbdt::fit(&serve_train, &GbdtParams::default(), SEARCH_SEED)
        .ok()
        .and_then(|m| CompiledModel::compile(&m.into()).ok());
    let serve_calls = render_calls(
        &serve_corpus,
        &draw_rows(serve_rows, serve_rows + serve_pool, cfg.seed),
        rows_per_request,
        SERVE_TENANT,
        MIXED_SLOT,
        0,
        true,
    );
    // Tenant `search`: one all-learner search on 2 500 x 12.
    let search_corpus = blobs(
        3,
        8,
        1.5,
        ClassSpec {
            n: search_rows + search_pool,
            noise_features: 4,
            seed: 4,
            ..ClassSpec::default()
        },
    );
    let search_train = search_corpus.prefix(search_rows);
    let request = FitRequest {
        slot: MIXED_SLOT.to_string(),
        time_budget: budget,
        max_trials: None,
        seed: SEARCH_SEED,
        estimators: Vec::new(),
        sample_size_init: None,
        slice_trials: None,
        dataset: DatasetPayload::from_dataset(&search_train),
    };
    let fit_bytes = fit_request_bytes(SEARCH_TENANT, &request);
    let search_calls = render_calls(
        &search_corpus,
        &draw_rows(
            search_rows,
            search_rows + search_pool,
            cfg.seed.wrapping_add(1),
        ),
        rows_per_request,
        SEARCH_TENANT,
        MIXED_SLOT,
        1,
        true,
    );
    let fixture = Fixture::start("mixed_tenants", ArtifactFormat::Json).expect("server starts");
    match &serve_model {
        Some(model) => {
            let publish = httpc::render(
                "POST",
                &format!("/tenants/{SERVE_TENANT}/slots/{MIXED_SLOT}"),
                model.to_artifact_string().as_bytes(),
                false,
            );
            ops.expect(
                httpc::one_shot(fixture.addr, &publish),
                200,
                "publish serve",
            );
        }
        None => {
            ops.check(false, || "fitting the serve model failed".to_string());
        }
    }
    MixedInputs {
        serve_train,
        serve_model,
        serve_calls,
        search_train,
        request,
        fit_bytes,
        search_calls,
        fixture,
        ops,
        started,
        ready: Instant::now(),
    }
}

fn mixed_tenants_rep(cfg: RunCfg, tracer: Option<&Tracer>) -> (Rep, Option<Probe>) {
    let mut rep = Rep::default();
    let MixedInputs {
        serve_train,
        serve_model,
        serve_calls,
        search_train,
        request,
        fit_bytes,
        search_calls,
        fixture,
        mut ops,
        started: setup_start,
        ready: setup_end,
    } = mixed_setup(cfg);
    rep.setup_s = setup_end.duration_since(setup_start).as_secs_f64();

    // ---- fit beside an open loop of predicts -------------------------
    let cpu0 = cpu_secs();
    let t0 = Instant::now();
    let mut accept_ms = 0.0;
    let mut search_id = None;
    let mut poller = Conn::connect(fixture.addr).ok();
    if let Some(conn) = poller.as_mut() {
        if let Some((id, ms)) = submit(conn, &fit_bytes, &mut ops) {
            accept_ms = ms;
            search_id = Some(id);
        }
    } else {
        ops.check(false, || "connect for the fit failed".to_string());
    }
    let stop = AtomicBool::new(search_id.is_none());
    let addr = fixture.addr;
    let loop_started = Instant::now();
    let (log, loop_ops, loop_rows) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            let mut ops = Ops::default();
            let mut rows = 0u64;
            let mut conn = Conn::connect(addr).ok();
            let mut clock = WallClock::new();
            let log = open_loop(
                &mut clock,
                OPEN_LOOP_HZ,
                |_, _| !stop.load(Ordering::SeqCst),
                |_, i| {
                    let call = &serve_calls[i % serve_calls.len()];
                    let reply = match conn.as_mut() {
                        Some(c) => c.exchange(&call.bytes),
                        None => Err(std::io::Error::other("connect refused")),
                    };
                    if reply.is_err() {
                        conn = Conn::connect(addr).ok();
                    }
                    if ops.expect(reply, 200, "predict").is_some() {
                        rows += call.data.n_rows() as u64;
                    }
                },
            );
            (log, ops, rows)
        });
        if let (Some(conn), Some(id)) = (poller.as_mut(), search_id.as_ref()) {
            loop {
                std::thread::sleep(POLL_EVERY);
                if poll(conn, SEARCH_TENANT, id, &mut ops) != Some(false) {
                    break;
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
        generator.join().expect("open-loop generator panicked")
    });
    let t_done = Instant::now();
    let loop_failed = loop_ops.failed;
    ops.absorb(loop_ops);
    ops.expect(
        Conn::connect(addr).and_then(|mut c| c.exchange(&search_calls[0].bytes)),
        200,
        "first predict",
    );
    let t1 = Instant::now();
    rep.fit_wall_s = t1.duration_since(t0).as_secs_f64();
    rep.fit_cpu_s = cpu_secs() - cpu0;

    // A failed request has no latency sample; with none failed, entry
    // i of the log is request i.
    let mut lat_ms: Vec<f64> = if loop_failed == 0 {
        log.latency_s.iter().map(|s| s * 1e3).collect()
    } else {
        Vec::new()
    };
    lat_ms.sort_by(f64::total_cmp);
    rep.pass = Pass {
        lat_ms,
        wall_s: t_done.duration_since(loop_started).as_secs_f64(),
        rows: loop_rows,
        late_ms_max: log.late_s.iter().copied().fold(0.0, f64::max) * 1e3,
    };

    // ---- output checks (clock stopped) -------------------------------
    // `serve`: replay one cycle closed-loop and compare bits.
    let n_check = serve_calls.len().min(16);
    let (_, serve_replies) = closed_loop(addr, &serve_calls[..n_check], n_check, true, &mut ops);
    // `search`: score the published model on its unseen rows.
    let (_, search_replies) = closed_loop(addr, &search_calls, search_calls.len(), true, &mut ops);
    let search_artifact = slot_artifact(&fixture, SEARCH_TENANT, MIXED_SLOT);
    rep.artifact_bytes = std::fs::metadata(&search_artifact).map_or(0, |m| m.len());
    let models = [serve_model, load_artifact(&search_artifact, &mut ops)];
    check_replies(&serve_calls[..n_check], &serve_replies, &models, &mut ops);
    let parsed = check_replies(&search_calls, &search_replies, &models, &mut ops);
    // Model index 1 is `search`; index 0 has no calls in this slice.
    rep.holdout_loss = score_holdout(
        &[&serve_train, &search_train],
        &search_calls,
        &parsed,
        &mut ops,
    );
    if let Some(id) = &search_id {
        let journal = fixture.root.join(SEARCH_TENANT).join(format!("{id}.jsonl"));
        fold_journal(&journal, &mut rep, &mut ops);
    }
    rep.store = fixture.storage.counts().snapshot();

    let mut probe = None;
    if let Some(tracer) = tracer {
        tracer.record(0, "mixed_tenants", "harness.setup", setup_start, setup_end);
        tracer.record(0, "search", "server.search", t0, t_done);
        tracer.record(0, "search", "server.first_predict", t_done, t1);
        for (i, (lat, late)) in log.latency_s.iter().zip(&log.late_s).enumerate() {
            let due = loop_started + Duration::from_secs_f64(i as f64 / OPEN_LOOP_HZ);
            tracer.record(
                0,
                &format!("request-{i}"),
                "server.predict",
                due + Duration::from_secs_f64(late.max(0.0)),
                due + Duration::from_secs_f64(lat.max(0.0)),
            );
        }
        let settings = request.to_automl().expect("request builds");
        let (result, events, fit_s) = timed_fit(
            settings.clone(),
            &search_train,
            Some(tracer),
            "search-reference",
        );
        ops.check(result.is_ok(), || "reference fit failed".to_string());
        rep.trace = Some(FitTrace {
            events,
            events_fit_s: fit_s,
            fit_accept_ms: accept_ms,
            ..FitTrace::default()
        });
        let [serve_model, _] = models;
        if let Some(model) = serve_model {
            probe = Some(Probe {
                fixture,
                train: search_train,
                model,
                call: serve_calls[0].clone(),
                slot: (SERVE_TENANT.to_string(), MIXED_SLOT.to_string()),
                settings,
                format: ArtifactFormat::Json,
            });
        }
    }
    rep.ops = ops;
    (rep, probe)
}
