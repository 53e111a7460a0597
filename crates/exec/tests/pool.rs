//! Behavioural tests of the execution runtime: ordering, panic
//! isolation, cooperative deadlines, and telemetry.

use flaml_exec::{event_channel, ExecPool, Job, JobStatus, Telemetry, TrialEventKind};
use std::time::Duration;

#[test]
fn results_come_back_in_submission_order() {
    for workers in [1, 2, 4, 8] {
        let pool = ExecPool::new(workers);
        let jobs = (0..32)
            .map(|i| {
                Job::new(move |_| {
                    // Stagger finish times so completion order differs
                    // from submission order under real parallelism.
                    std::thread::sleep(Duration::from_millis((32 - i) % 7));
                    i
                })
            })
            .collect();
        let results = pool.run_batch(jobs, None);
        let values: Vec<u64> = results
            .into_iter()
            .filter_map(|r| r.status.into_value())
            .collect();
        assert_eq!(values, (0..32).collect::<Vec<u64>>(), "workers={workers}");
    }
}

#[test]
fn single_worker_pool_runs_inline_in_submission_order() {
    // With one worker, jobs run on the caller's thread: side effects
    // happen in exact submission order with no interleaving.
    let pool = ExecPool::sequential();
    assert!(pool.is_sequential());
    let caller = std::thread::current().id();
    let order = std::sync::Mutex::new(Vec::new());
    let jobs = (0..8)
        .map(|i| {
            let order = &order;
            Job::new(move |_| {
                assert_eq!(std::thread::current().id(), caller, "inline execution");
                order.lock().unwrap().push(i);
                i
            })
        })
        .collect();
    let results = pool.run_batch(jobs, None);
    assert_eq!(order.into_inner().unwrap(), (0..8).collect::<Vec<u64>>());
    assert!(results.iter().all(|r| !r.status.panicked()));
}

#[test]
fn panicking_job_is_isolated_and_reported() {
    let pool = ExecPool::new(4);
    let jobs = (0..10)
        .map(|i| {
            Job::new(move |_| {
                if i == 3 {
                    panic!("trial {i} exploded");
                }
                i
            })
            .label(format!("job-{i}"))
        })
        .collect();
    let results = pool.run_batch(jobs, None);
    assert_eq!(results.len(), 10);
    for (i, r) in results.iter().enumerate() {
        if i == 3 {
            match &r.status {
                JobStatus::Panicked(msg) => assert!(msg.contains("exploded"), "{msg}"),
                other => panic!("expected panic status, got {other:?}"),
            }
        } else {
            assert_eq!(r.status.value(), Some(&(i as u64)));
        }
    }
}

#[test]
fn deadline_is_cooperative_and_flags_timeout() {
    let pool = ExecPool::sequential();
    let jobs = vec![
        // Ignores its deadline and overruns: classified TimedOut.
        Job::new(|_| {
            std::thread::sleep(Duration::from_millis(20));
            1u32
        })
        .deadline(Some(Duration::from_millis(1))),
        // Observes its deadline and stops early: Finished.
        Job::new(|ctx| {
            let mut n = 0u32;
            while !ctx.expired() && n < 3 {
                std::thread::sleep(Duration::from_millis(1));
                n += 1;
            }
            n
        })
        .deadline(Some(Duration::from_millis(500))),
        // No deadline: never times out.
        Job::new(|ctx| {
            assert!(ctx.remaining().is_none());
            assert!(!ctx.expired());
            7u32
        }),
    ];
    let results = pool.run_batch(jobs, None);
    assert!(results[0].status.timed_out());
    assert_eq!(results[0].status.value(), Some(&1));
    assert!(matches!(results[1].status, JobStatus::Finished(3)));
    assert!(matches!(results[2].status, JobStatus::Finished(7)));
}

#[test]
fn remaining_counts_down_from_deadline() {
    let pool = ExecPool::sequential();
    let jobs = vec![Job::new(|ctx: &flaml_exec::JobCtx| {
        let before = ctx.remaining().unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let after = ctx.remaining().unwrap();
        (before, after)
    })
    .deadline(Some(Duration::from_secs(10)))];
    let (before, after) = pool.run_batch(jobs, None)[0]
        .status
        .value()
        .copied()
        .unwrap();
    assert!(after < before);
    assert!(before <= Duration::from_secs(10));
}

#[test]
fn events_cover_every_job_with_matching_terminals() {
    for workers in [1, 4] {
        let pool = ExecPool::new(workers);
        let (sink, rx) = event_channel();
        let jobs = (0..12)
            .map(|i| {
                Job::new(move |_| {
                    if i % 4 == 0 {
                        panic!("boom");
                    }
                    i
                })
                .label(format!("cell-{i}"))
            })
            .collect();
        let results = pool.run_batch(jobs, Some(&sink));
        drop(sink);
        let telemetry = Telemetry::new().drain(&rx);
        assert_eq!(telemetry.started, 12, "workers={workers}");
        assert_eq!(telemetry.total_terminal(), 12, "workers={workers}");
        assert_eq!(telemetry.panicked, 3, "workers={workers}");
        assert_eq!(telemetry.finished, 9, "workers={workers}");
        let n_panicked = results.iter().filter(|r| r.status.panicked()).count();
        assert_eq!(n_panicked, 3);
    }
}

#[test]
fn event_metadata_echoes_job_meta() {
    let pool = ExecPool::sequential();
    let (sink, rx) = event_channel();
    let meta = flaml_exec::JobMeta {
        label: "bin/flaml @ 2s".into(),
        learner: "lightgbm".into(),
        config: "tree_num=4".into(),
        sample_size: 500,
        ..Default::default()
    };
    let jobs = vec![Job::new(|_| 1u8).meta(meta)];
    pool.run_batch(jobs, Some(&sink));
    drop(sink);
    let events: Vec<_> = rx.iter().collect();
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].kind, TrialEventKind::Started);
    assert_eq!(events[1].kind, TrialEventKind::Finished);
    for ev in &events {
        assert_eq!(ev.label, "bin/flaml @ 2s");
        assert_eq!(ev.learner, "lightgbm");
        assert_eq!(ev.config, "tree_num=4");
        assert_eq!(ev.sample_size, 500);
    }
    assert!(events[1].wall_secs.is_some());
}

#[test]
fn pool_parallelism_overlaps_work() {
    // Two workers on two sleeping jobs should take roughly one sleep,
    // not two. Generous bounds keep this robust on loaded CI hosts.
    let pool = ExecPool::new(2);
    let t0 = std::time::Instant::now();
    let jobs = (0..2)
        .map(|_| {
            Job::new(|_| {
                std::thread::sleep(Duration::from_millis(120));
            })
        })
        .collect();
    pool.run_batch::<()>(jobs, None);
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(220),
        "expected overlap, took {elapsed:?}"
    );
}

#[test]
fn zero_requested_workers_clamps_to_one() {
    let pool = ExecPool::new(0);
    assert_eq!(pool.workers(), 1);
    let results = pool.run_batch(vec![Job::new(|_| 42u8)], None);
    assert_eq!(results[0].status.value(), Some(&42));
}

#[test]
fn empty_batch_is_fine() {
    let pool = ExecPool::new(4);
    let results: Vec<flaml_exec::JobResult<u8>> = pool.run_batch(Vec::new(), None);
    assert!(results.is_empty());
}

#[test]
fn jobs_may_borrow_caller_state() {
    // The 'env lifetime: jobs read a stack-allocated dataset without Arc.
    let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
    let pool = ExecPool::new(4);
    let jobs = (0..8)
        .map(|chunk: usize| {
            let data = &data;
            Job::new(move |_| data[chunk * 125..(chunk + 1) * 125].iter().sum::<f64>())
        })
        .collect();
    let results = pool.run_batch(jobs, None);
    let total: f64 = results.iter().filter_map(|r| r.status.value()).sum();
    assert_eq!(total, data.iter().sum::<f64>());
}
