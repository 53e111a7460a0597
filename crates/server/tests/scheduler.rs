//! `Scheduler` accounting: a tenant's deficit is charged with what its
//! slices really committed — also when the slice then failed — and a
//! search stops counting against the admission bound before its terminal
//! status can be read.

mod common;

use common::{fit_request, scratch_root};
use flaml_core::{
    disk, event_channel, ArtifactFormat, ChaosStorage, EventSink, IoFault, IoFaultPlan,
    ModelRegistry, SearchHandle, TrialEventKind,
};
use flaml_server::{Scheduler, SearchJob};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

#[test]
fn a_slice_that_fails_after_committing_trials_is_charged_for_them() {
    let request = fit_request("charge", 12, 7);
    let data = request.dataset.clone().into_dataset().unwrap();
    let root = scratch_root("charge");
    std::fs::create_dir_all(root.join("acme")).unwrap();
    let journal = root.join("acme/s0000.jsonl");

    // Fault-free chaos run: where in the op sequence do appends fall?
    let clean = Arc::new(ChaosStorage::new(disk(), IoFaultPlan::new(1)));
    let mut handle = SearchHandle::new(
        request.to_automl().unwrap().storage(clean.clone()),
        &journal,
    );
    handle.run_slice(&data, 4).unwrap();
    let after_4 = clean.ops_issued();
    handle.run_slice(&data, 4).unwrap();
    let per_append = (clean.ops_issued() - after_4) / 4;
    // The disk fills at the seventh append: the second slice of four
    // dies after committing two trials.
    let fatal_op = after_4 + 2 * per_append;
    let plan = (0..100_000)
        .map(|seed| IoFaultPlan::new(seed).enospc(0.05))
        .find(|plan| {
            (0..fatal_op).all(|op| plan.decide(op).is_none())
                && plan.decide(fatal_op) == Some(IoFault::NoSpace)
        })
        .expect("some seed runs out of space exactly there");

    let chaos = Arc::new(ChaosStorage::new(disk(), plan));
    let (sink, events) = event_channel();
    let scheduler = Arc::new(Scheduler::new(
        root.clone(),
        4,
        Arc::new(ModelRegistry::new()),
        sink,
        chaos.clone(),
        ArtifactFormat::Json,
    ));
    let automl = request.to_automl().unwrap().storage(chaos);
    scheduler
        .submit(SearchJob {
            tenant: "acme".into(),
            id: "s0000".into(),
            slot: request.slot.clone(),
            slice_trials: request.slice_trials(),
            handle: SearchHandle::new(automl, &journal),
            data,
        })
        .unwrap();
    let worker = {
        let scheduler = Arc::clone(&scheduler);
        std::thread::spawn(move || scheduler.run_worker())
    };
    let status = loop {
        let status = scheduler.status("acme", "s0000").expect("admitted");
        if status.state == "failed" || status.state == "finished" {
            break status;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    scheduler.stop();
    worker.join().unwrap();

    assert_eq!(status.state, "failed", "{status:?}");
    assert_eq!(status.committed, 6);
    let slices: Vec<(usize, f64)> = events
        .try_iter()
        .filter(|ev| ev.kind == TrialEventKind::TenantSlice)
        .map(|ev| (ev.sample_size, ev.cost.unwrap()))
        .collect();
    assert_eq!(slices.len(), 2, "{slices:?}");
    assert_eq!(slices[0].0, 4);
    assert_eq!(slices[1].0, 2, "the failed slice's two trials are charged");
    assert!(slices[1].1 > 0.0, "and so is their cost");
    let _ = std::fs::remove_dir_all(&root);
}

/// A client that reads "finished" submits its next search at once
/// (`tenant_churn` does, one search in flight per tenant at a bound of
/// 8), and `/fit` checks admission before it parses: the finished
/// search must already have left the bound, or that fit is a `429`. The
/// sink runs on the worker's thread, so what it sees when the depth
/// gauge reads 0 is exactly the order the worker did things in.
#[test]
fn a_search_leaves_the_admission_bound_before_its_terminal_status_shows() {
    let request = fit_request("order", 4, 7);
    let root = scratch_root("order");
    std::fs::create_dir_all(root.join("acme")).unwrap();
    let scheduler_cell: Arc<OnceLock<Arc<Scheduler>>> = Arc::new(OnceLock::new());
    let seen_at_depth_0 = Arc::new(Mutex::new(Vec::new()));
    let sink = {
        let (cell, seen) = (Arc::clone(&scheduler_cell), Arc::clone(&seen_at_depth_0));
        EventSink::callback(move |ev| {
            if ev.kind == TrialEventKind::ServeQueueDepth && ev.sample_size == 0 {
                let scheduler = cell.get().expect("set before the worker starts");
                let status = scheduler.status("acme", "s0000").expect("admitted");
                seen.lock()
                    .unwrap()
                    .push((status.state, scheduler.inflight()));
            }
        })
    };
    let scheduler = Arc::new(Scheduler::new(
        root.clone(),
        1,
        Arc::new(ModelRegistry::new()),
        sink,
        disk(),
        ArtifactFormat::Json,
    ));
    assert!(scheduler_cell.set(Arc::clone(&scheduler)).is_ok());
    scheduler
        .submit(SearchJob {
            tenant: "acme".into(),
            id: "s0000".into(),
            slot: request.slot.clone(),
            slice_trials: request.slice_trials(),
            handle: SearchHandle::new(request.to_automl().unwrap(), root.join("acme/s0000.jsonl")),
            data: request.dataset.clone().into_dataset().unwrap(),
        })
        .unwrap();
    let worker = {
        let scheduler = Arc::clone(&scheduler);
        std::thread::spawn(move || scheduler.run_worker())
    };
    while scheduler.status("acme", "s0000").expect("admitted").state != "finished" {
        std::thread::sleep(Duration::from_millis(10));
    }
    // What a chaining client relies on, in the order it happens.
    assert_eq!(scheduler.inflight(), 0);
    scheduler.stop();
    worker.join().unwrap();
    assert_eq!(
        *seen_at_depth_0.lock().unwrap(),
        [("running".to_string(), 0)],
        "the place was free while the status still read running"
    );
    let _ = std::fs::remove_dir_all(&root);
}
