//! Per-layer numbers of the traced run.
//!
//! Each layer is timed from outside, around its public functions, on
//! the workload's own data; counts come from the trial events, the
//! counting storage and `GET /stats`. Nothing here is gated — these
//! numbers say *where* an end-to-end metric moved.

use crate::harness::{Fixture, Ops};
use crate::httpc::{self, Conn};
use crate::report::Metrics;
use crate::stats::{fastest, highest_supported, median};
use crate::workloads::{Probe, Rep};
use flaml_blob::{save_blob_with, BlobModel, BlobOptions};
use flaml_core::{
    sample_by_inverse_eci, DataPlane, EciState, LearnerKind, ResampleStrategy, SearchHandle,
};
use flaml_data::{stratified_kfold, Dataset, Task};
use flaml_exec::{ExecPool, Job};
use flaml_journal::{Journal, JournalWriter};
use flaml_learners::{
    FittedModel, Forest, ForestParams, Gbdt, GbdtParams, Linear, LinearParams, PreparedBins,
    PreparedSort,
};
use flaml_online::{OnlineConfig, OnlineRuntime, OnlineSession};
use flaml_search::Flow2;
use flaml_serve::{BatchEngine, CompiledModel, ModelRegistry};
use flaml_server::{DatasetPayload, FitAccepted, FitRequest, SearchStatus};
use flaml_store::{atomic_write_file, Storage};
use flaml_synth::DriftStream;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn ms_of(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Milliseconds of each of `n` calls.
fn ms_each(n: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..n).map(|_| ms_of(&mut f)).collect()
}

/// Updates of the reference kernel.
const REF_KERNEL_UPDATES: usize = 160_000_000;

/// A fixed histogram gather that touches no code of this repository:
/// when it slows down, the host did, not the program.
fn ref_kernel_ms() -> f64 {
    const ROWS: usize = 1 << 16;
    let bins: Vec<u16> = (0..ROWS)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u16)
        .collect();
    let grad: Vec<f32> = (0..ROWS).map(|i| (i % 97) as f32 * 0.01).collect();
    let mut hist = [0f32; 256];
    ms_of(|| {
        for _ in 0..REF_KERNEL_UPDATES / ROWS {
            for (b, g) in bins.iter().zip(&grad) {
                hist[*b as usize] += *g;
            }
            black_box(&mut hist);
        }
    })
}

/// Runs every layer probe and appends its metrics. Consumes the probe:
/// the last step stops the server and recovers from its root.
pub fn measure(
    probe: Probe,
    rep: &Rep,
    untraced_fit_wall_s: f64,
    out: &mut Metrics,
    ops: &mut Ops,
) {
    let steal0 = crate::procfs::host_steal();
    let Probe {
        fixture,
        train,
        model,
        call,
        slot,
        settings,
        format,
    } = probe;
    let storage: Arc<dyn Storage> = Arc::clone(&fixture.storage) as Arc<dyn Storage>;
    let dir = fixture.root.join("probes");
    std::fs::create_dir_all(&dir).expect("probe directory");
    let view = train.view();
    let n = train.n_rows() as f64;

    // ---- machine ------------------------------------------------------
    out.push(
        "machine.ref_kernel_ms",
        fastest(&[ref_kernel_ms(), ref_kernel_ms(), ref_kernel_ms()]),
        "ms",
    );

    // ---- data ---------------------------------------------------------
    let folds = ms_each(3, || {
        let shuffled = train.shuffled_view(1);
        black_box(shuffled.prefix(shuffled.n_rows() / 2));
        if train.task().is_classification() {
            black_box(stratified_kfold(&shuffled, 5).expect("5 folds"));
        } else {
            black_box(flaml_data::kfold(shuffled.n_rows(), 5).expect("5 folds"));
        }
    });
    out.push("data.split_views_ms", fastest(&folds), "ms");

    // ---- learners -----------------------------------------------------
    let mut bins = None;
    let prep = ms_each(2, || {
        let sort = PreparedSort::compute(&view);
        bins = Some(PreparedBins::prepare(&sort, &view, 255));
    });
    out.push("learners.bin_prepare_ms", fastest(&prep), "ms");
    // 20 rounds, not the default 100: a tree costs the same in round 1
    // and round 100, and the full view makes each one expensive enough.
    let params = GbdtParams {
        n_trees: 20,
        ..GbdtParams::default()
    };
    let mut gbdt = None;
    let gbdt_ms = ms_of(|| {
        gbdt = Gbdt::fit_prepared(&view, &params, 1, None, bins.as_ref()).ok();
    });
    out.push("learners.gbdt_fit_ms", gbdt_ms, "ms");
    out.push(
        "learners.gbdt_tree_us",
        gbdt_ms * 1e3 / params.n_trees as f64,
        "us",
    );
    let small = train.prefix(train.n_rows().min(100));
    let small_params = GbdtParams {
        n_trees: 4,
        max_leaves: 4,
        ..GbdtParams::default()
    };
    let small_ms = ms_each(200, || {
        black_box(Gbdt::fit(&small, &small_params, 1).ok());
    });
    out.push("learners.small_fit_us", median(&small_ms) * 1e3, "us");
    let capped = train.prefix(train.n_rows().min(2_000));
    let forest_params = ForestParams {
        n_trees: 10,
        ..ForestParams::default()
    };
    out.push(
        "learners.forest_fit_ms",
        ms_of(|| {
            black_box(Forest::fit(&capped, &forest_params, 1).ok());
        }),
        "ms",
    );
    out.push(
        "learners.linear_fit_ms",
        ms_of(|| {
            black_box(Linear::fit(&capped, &LinearParams::default(), 1).ok());
        }),
        "ms",
    );
    let fitted: Option<FittedModel> = gbdt.map(Into::into);
    if let Some(fitted) = &fitted {
        let ms = ms_each(3, || {
            black_box(fitted.predict(&view));
        });
        out.push("learners.predict_us_per_row", fastest(&ms) * 1e3 / n, "us");
    }
    ops.check(fitted.is_some(), || "probe GBDT fit failed".to_string());

    // ---- search -------------------------------------------------------
    let mut flow2 = Flow2::new(LearnerKind::LightGbm.space(train.n_rows()), 1);
    let flow2_ms = ms_of(|| {
        for i in 0..10_000u32 {
            if flow2.converged() {
                flow2.restart();
            }
            let point = flow2.ask();
            flow2.tell(1.0 / (1.0 + f64::from(i % 13) + point[0]));
        }
    });
    out.push("search.flow2_ask_tell_us", flow2_ms * 1e3 / 10_000.0, "us");

    // ---- core ---------------------------------------------------------
    let trace = rep.trace.clone().unwrap_or_default();
    let ev = &trace.events;
    out.push("core.trials", rep.trials as f64, "count");
    out.push("core.trial_s_total", rep.trial_s, "s");
    out.push(
        "core.overhead_share",
        1.0 - rep.trial_s / rep.fit_wall_s.max(1e-9),
        "ratio",
    );
    out.push("core.prepare_s", ev.prepare_s, "s");
    out.push(
        "core.between_trials_s",
        (ev.window_s - ev.trial_s_total).max(0.0),
        "s",
    );
    out.push("core.refit_export_s", ev.refit_s + trace.export_s, "s");
    let mut eci: Vec<EciState> = (0..6)
        .map(|k| EciState::new(0.01 * f64::from(k + 1)))
        .collect();
    let eci_ms = ms_of(|| {
        for i in 0..100_000u32 {
            let l = (i % 6) as usize;
            eci[l].on_trial(0.01 + f64::from(i % 7) * 1e-3, 1.0 / f64::from(i + 2));
            let ecis: Vec<f64> = eci.iter().map(|e| e.eci(0.1, 1.0)).collect();
            black_box(sample_by_inverse_eci(&ecis, f64::from(i % 100) / 100.0));
        }
    });
    out.push("core.eci_step_us", eci_ms * 1e3 / 100_000.0, "us");
    let plane_ms = ms_each(2, || {
        let mut plane = DataPlane::new(
            train.shuffled_view(1),
            ResampleStrategy::Cv { folds: 5 },
            true,
            256 << 20,
        );
        black_box(plane.prepare(train.n_rows(), Some(255)));
    });
    out.push("core.dataplane_prepare_ms", fastest(&plane_ms), "ms");
    let ratio = |(hits, misses): (usize, usize)| hits as f64 / (hits + misses).max(1) as f64;
    out.push("core.prepared_hit_ratio", ratio(ev.prepared), "ratio");
    out.push("core.tree_cache_hit_ratio", ratio(ev.tree_cache), "ratio");
    out.push("core.trees_saved", ev.trees_saved as f64, "count");
    let sliced_journal = dir.join("sliced.jsonl");
    let mut handle = SearchHandle::new(
        settings.clone().storage(Arc::clone(&storage)),
        &sliced_journal,
    );
    let mut sliced_ok = false;
    let sliced_s = ms_of(|| sliced_ok = handle.run_to_end(&train, 4).is_ok()) / 1e3;
    ops.check(sliced_ok, || "sliced reference search failed".to_string());
    out.push(
        "core.sliced_over_oneshot",
        sliced_s / trace.events_fit_s.max(1e-9),
        "ratio",
    );

    // ---- exec ---------------------------------------------------------
    let pool = ExecPool::new(2);
    let batch_ms = ms_each(2_000, || {
        let jobs: Vec<Job<'_, ()>> = (0..5).map(|_| Job::new(|_| ())).collect();
        black_box(pool.run_batch(jobs, None));
    });
    out.push("exec.run_batch_us", median(&batch_ms) * 1e3, "us");
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    out.push(
        "exec.parallel_efficiency",
        rep.fit_cpu_s / (rep.fit_wall_s * cores as f64).max(1e-9),
        "ratio",
    );

    // ---- journal ------------------------------------------------------
    if let Ok(journal) = Journal::read(&sliced_journal) {
        let path = dir.join("append.jsonl");
        let mut writer =
            JournalWriter::create_with(storage.as_ref(), &path, &journal.header).expect("journal");
        let append_ms = ms_of(|| {
            for line in journal.trials.iter().cycle().take(2_000) {
                writer.append(line);
            }
        });
        drop(writer);
        out.push("journal.append_us", append_ms * 1e3 / 2_000.0, "us");
        out.push(
            "journal.read_ms",
            fastest(&ms_each(3, || {
                black_box(Journal::read(&path).ok());
            })),
            "ms",
        );
    }

    // ---- store --------------------------------------------------------
    out.push("store.fsyncs", rep.store.fsyncs as f64, "count");
    out.push("store.renames", rep.store.renames as f64, "count");
    out.push(
        "store.bytes_written",
        rep.store.bytes_written as f64,
        "bytes",
    );
    let payload = vec![0xA5u8; 64 << 10];
    let write_ms = ms_each(50, || {
        atomic_write_file(storage.as_ref(), &dir.join("atomic.bin"), &payload).expect("write");
    });
    out.push("store.atomic_write_ms", median(&write_ms), "ms");

    // ---- serve --------------------------------------------------------
    if let Some(fitted) = &fitted {
        let mut compiled = None;
        let compile_ms = ms_each(3, || compiled = CompiledModel::compile(fitted).ok());
        out.push("serve.compile_ms", fastest(&compile_ms), "ms");
        if let Some(compiled) = compiled {
            let path = dir.join("probe.artifact.json");
            let save_ms = ms_each(3, || {
                compiled.save_with(storage.as_ref(), &path).expect("save");
            });
            out.push("serve.json_save_ms", fastest(&save_ms), "ms");
            let load_ms = ms_each(3, || {
                black_box(CompiledModel::load(&path).ok());
            });
            out.push("serve.json_load_ms", fastest(&load_ms), "ms");
        }
    }
    let batch_rows = call.data.n_rows() as f64;
    let kernel_ms = ms_each(200, || {
        black_box(model.predict(&call.data));
    });
    let kernel_p50_ms = median(&kernel_ms);
    out.push(
        "serve.predict_us_per_row",
        kernel_p50_ms * 1e3 / batch_rows,
        "us",
    );
    let tile: Vec<usize> = (0..4_096).map(|i| i % call.data.n_rows()).collect();
    let tiled = call.data.select(&tile);
    let engine = BatchEngine::new(&pool, 256);
    let engine_ms = ms_each(20, || {
        black_box(engine.predict("probe", &model, &tiled));
    });
    out.push(
        "serve.batch_engine_us_per_row",
        median(&engine_ms) * 1e3 / 4_096.0,
        "us",
    );
    let registry = ModelRegistry::new();
    let mut copies: Vec<CompiledModel> = (0..20).map(|_| model.clone()).collect();
    let publish_ms = ms_each(20, || {
        black_box(registry.publish("probe", copies.pop().expect("a copy per publish")));
    });
    out.push("serve.registry_publish_us", median(&publish_ms) * 1e3, "us");

    // ---- blob ---------------------------------------------------------
    let blob_path = dir.join("probe.artifact.blob");
    let blob_write = ms_each(3, || {
        save_blob_with(storage.as_ref(), &blob_path, &model, BlobOptions::tuned()).expect("blob");
    });
    out.push("blob.write_ms", fastest(&blob_write), "ms");
    let open_ms = ms_each(50, || {
        black_box(BlobModel::open(&blob_path).ok());
    });
    out.push("blob.open_us", median(&open_ms) * 1e3, "us");
    let first_ms = ms_each(20, || {
        let blob = BlobModel::open(&blob_path).expect("open");
        black_box(blob.predict(&call.data));
    });
    out.push("blob.open_first_predict_us", median(&first_ms) * 1e3, "us");
    if let Ok(blob) = BlobModel::open(&blob_path) {
        let ms = ms_each(200, || {
            black_box(blob.predict(&call.data));
        });
        out.push(
            "blob.predict_us_per_row",
            median(&ms) * 1e3 / batch_rows,
            "us",
        );
        out.push("blob.bytes", blob.n_bytes() as f64, "bytes");
    }

    // ---- online -------------------------------------------------------
    let stream = DriftStream::new(1);
    let session = OnlineSession::create(
        dir.join("stream"),
        OnlineConfig::new(Task::Binary, stream.features),
        OnlineRuntime {
            storage: Arc::clone(&storage),
            ..OnlineRuntime::local()
        },
    );
    match session {
        Ok(mut session) => {
            let mut pushed = true;
            let push_ms = ms_each(40, || {
                let chunk = stream.chunk(black_box(session.status().chunks));
                pushed &= session.push_chunk(&chunk).is_ok();
            });
            ops.check(pushed, || "a stream chunk was refused".to_string());
            let status = session.status();
            out.push("online.push_chunk_ms", median(&push_ms), "ms");
            out.push("online.rounds", status.rounds as f64, "count");
            out.push("online.promotions", status.promotions as f64, "count");
        }
        Err(e) => {
            ops.check(false, || format!("online session: {e}"));
        }
    }

    // ---- server -------------------------------------------------------
    server_probes(
        fixture,
        &train,
        &model,
        &call,
        &slot,
        format,
        kernel_p50_ms,
        rep,
        out,
        ops,
    );

    // ---- the trace itself ----------------------------------------------
    out.push(
        "trace.overhead_pct",
        100.0 * (rep.fit_wall_s / untraced_fit_wall_s.max(1e-9) - 1.0),
        "%",
    );
    // Top-level spans of the fit, each timed on its own: prepare (fit
    // called -> first trial started), the trials (the sum of the seconds
    // each trial measured for itself, not the window they ran in),
    // refit (last trial finished -> fit returned) and, on the library
    // path, export, publish and first predict. What they leave
    // uncovered is the time between trials (`core.between_trials_s`),
    // which no event brackets from outside. On the service path the
    // server owns the sink, so the share describes the in-process
    // reference fit.
    let in_fit = ev.prepare_s + ev.trial_s_total + ev.refit_s;
    let (covered, whole) = if trace.export_s > 0.0 {
        (
            in_fit + trace.export_s + trace.publish_s + trace.first_predict_s,
            rep.fit_wall_s,
        )
    } else {
        (in_fit, trace.events_fit_s)
    };
    out.push("trace.span_sum_share", covered / whole.max(1e-9), "ratio");
    // The tail the end-to-end run does not gate: the highest percentile
    // this (four times longer) pass can back with ten samples beyond.
    if let Some((_, tail)) = highest_supported(&rep.pass.lat_ms) {
        out.push("server.client_tail_ms", tail, "ms");
    }
    out.push("generator.late_ms", rep.pass.late_ms_max, "ms");
    out.push(
        "machine.steal_pct",
        crate::procfs::steal_pct(steal0, crate::procfs::host_steal()),
        "%",
    );
}

#[allow(clippy::too_many_arguments)]
fn server_probes(
    fixture: Fixture,
    train: &Dataset,
    model: &CompiledModel,
    call: &crate::harness::PredictCall,
    slot: &(String, String),
    format: flaml_blob::ArtifactFormat,
    kernel_p50_ms: f64,
    rep: &Rep,
    out: &mut Metrics,
    ops: &mut Ops,
) {
    let addr = fixture.addr;
    let health_ka = httpc::render("GET", "/healthz", b"", true);
    let health_close = httpc::render("GET", "/healthz", b"", false);
    let mut conn = Conn::connect(addr).expect("probe connection");
    let mut ok = true;
    let ka_ms = ms_each(500, || {
        ok &= matches!(conn.exchange(&health_ka), Ok((200, _)))
    });
    let http_us = median(&ka_ms) * 1e3;
    out.push("server.http_overhead_us", http_us, "us");
    let new_ms = ms_each(300, || {
        ok &= matches!(httpc::one_shot(addr, &health_close), Ok((200, _)));
    });
    out.push(
        "server.connect_overhead_us",
        median(&new_ms) * 1e3 - http_us,
        "us",
    );
    // Same rows, same connection kind as the keep-alive workloads:
    // what share of a request is not the predict kernel.
    let keep_alive_call = crate::harness::render_predict(&slot.0, &slot.1, &call.data, true);
    let wire_ms = ms_each(200, || {
        ok &= matches!(conn.exchange(&keep_alive_call), Ok((200, _)));
    });
    ops.check(ok, || {
        "a server probe request was not answered 200".to_string()
    });
    let pool = ExecPool::new(2);
    let engine = BatchEngine::new(&pool, 256);
    let local_ms = ms_each(200, || {
        black_box(engine.predict("probe", model, &call.data));
    });
    out.push(
        "server.predict_wire_share",
        1.0 - median(&local_ms) / median(&wire_ms).max(1e-9),
        "ratio",
    );
    out.push(
        "server.kernel_share",
        kernel_p50_ms / median(&wire_ms).max(1e-9),
        "ratio",
    );

    // Fit acceptance: the service path measured it on its own fits; the
    // library path submits its training rows once, here.
    let mut accept_ms = rep.trace.as_ref().map_or(0.0, |t| t.fit_accept_ms);
    if accept_ms == 0.0 {
        let request = FitRequest {
            slot: "probe".to_string(),
            time_budget: 1.0,
            max_trials: Some(1),
            seed: 1,
            estimators: vec!["lightgbm".to_string()],
            sample_size_init: Some(100),
            slice_trials: None,
            dataset: DatasetPayload::from_dataset(train),
        };
        let body = serde_json::to_string(&request).expect("fit request serializes");
        let bytes = httpc::render(
            "POST",
            &format!("/tenants/{}/fit", slot.0),
            body.as_bytes(),
            true,
        );
        let sent = Instant::now();
        let accepted: Option<FitAccepted> = ops
            .expect(conn.exchange(&bytes), 202, "probe fit")
            .and_then(|b| String::from_utf8(b).ok())
            .and_then(|t| serde_json::from_str(&t).ok());
        accept_ms = sent.elapsed().as_secs_f64() * 1e3;
        if let Some(accepted) = accepted {
            let status = httpc::render("GET", &accepted.status_path, b"", true);
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                std::thread::sleep(Duration::from_millis(5));
                let state: Option<SearchStatus> = conn
                    .exchange(&status)
                    .ok()
                    .and_then(|(_, b)| String::from_utf8(b).ok())
                    .and_then(|t| serde_json::from_str(&t).ok());
                match state {
                    Some(s) if s.state == "queued" || s.state == "running" => {
                        if Instant::now() > deadline {
                            ops.check(false, || "probe fit never finished".to_string());
                            break;
                        }
                    }
                    Some(s) => {
                        ops.check(s.state == "finished", || format!("probe fit {}", s.state));
                        break;
                    }
                    None => {
                        ops.check(false, || "probe fit status unreadable".to_string());
                        break;
                    }
                }
            }
        }
    }
    out.push("server.fit_accept_ms", accept_ms, "ms");

    // What the server itself counted.
    let stats = conn
        .exchange(&httpc::render("GET", "/stats", b"", true))
        .ok()
        .and_then(|(_, b)| String::from_utf8(b).ok())
        .and_then(|t| serde_json::from_str::<ServerStats>(&t).ok());
    match stats {
        Some(stats) => {
            let key = format!("{}/{}", slot.0, slot.1);
            let slot_stats = stats.slots.get(&key);
            out.push(
                "server.slot_p50_ms",
                slot_stats.map_or(0.0, |s| s.p50_secs * 1e3),
                "ms",
            );
            out.push(
                "server.slot_p99_ms",
                slot_stats.map_or(0.0, |s| s.p99_secs * 1e3),
                "ms",
            );
            let rejected: usize = stats.by_tenant.values().map(|t| t.rejected).sum();
            out.push(
                "server.rejected",
                (rejected + stats.serve_rejected) as f64,
                "count",
            );
            out.push("server.timeouts", stats.serve_timed_out as f64, "count");
            out.push("server.slices", stats.tenant_slices as f64, "count");
        }
        None => {
            ops.check(false, || "GET /stats unreadable".to_string());
        }
    }
    drop(conn);

    // Recovery: stop (= crash), rebuild on the populated root, first 200.
    let (root, storage) = fixture.into_root();
    let close_call = crate::harness::render_predict(&slot.0, &slot.1, &call.data, false);
    let started = Instant::now();
    match Fixture::start_on(root, storage, format) {
        Ok(recovered) => {
            ops.expect(
                httpc::one_shot(recovered.addr, &close_call),
                200,
                "predict after recovery",
            );
            out.push(
                "server.recover_ms",
                started.elapsed().as_secs_f64() * 1e3,
                "ms",
            );
        }
        Err(e) => {
            ops.check(false, || format!("recovery: {e}"));
        }
    }
}

/// The fields of `GET /stats` the probes read.
#[derive(Debug, serde::Deserialize)]
struct ServerStats {
    tenant_slices: usize,
    serve_rejected: usize,
    serve_timed_out: usize,
    by_tenant: std::collections::BTreeMap<String, TenantStats>,
    slots: std::collections::BTreeMap<String, SlotStats>,
}

#[derive(Debug, serde::Deserialize)]
struct TenantStats {
    rejected: usize,
}

#[derive(Debug, serde::Deserialize)]
struct SlotStats {
    p50_secs: f64,
    p99_secs: f64,
}
