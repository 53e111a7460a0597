//! End-to-end behavior of the online loop on a drifting stream:
//! warmup, drift-triggered promotion, probation, and idempotency.

mod common;

use common::{fast_config, flip_chunk, scratch, stream};
use flaml_core::CompiledModel;
use flaml_data::{Dataset, FeatureKind, Task};
use flaml_metrics::Metric;
use flaml_online::{kind, ChunkOutcome, OnlineConfig, OnlineError, OnlineRuntime, OnlineSession};
use flaml_synth::DriftStream;

#[test]
fn warmup_trains_a_first_champion() {
    let dir = scratch("warmup");
    let s = stream(11);
    let cfg = fast_config(&s);
    let mut session = OnlineSession::create(&dir, cfg.clone(), OnlineRuntime::local()).unwrap();

    // Before warmup fills the window there is no champion and no eval.
    for i in 0..cfg.warmup_chunks - 1 {
        match session.push_chunk(&s.chunk(i)).unwrap() {
            ChunkOutcome::Processed {
                champion_loss,
                round,
                ..
            } => {
                assert_eq!(champion_loss, None, "chunk {i}: no champion yet");
                assert!(round.is_none(), "chunk {i}: too early for a round");
            }
            other => panic!("chunk {i}: unexpected outcome {other:?}"),
        }
    }

    // The warmup chunk triggers the first round, which promotes.
    match session.push_chunk(&s.chunk(cfg.warmup_chunks - 1)).unwrap() {
        ChunkOutcome::Processed { round, .. } => {
            let round = round.expect("warmup round runs");
            assert_eq!(round.reason, "warmup");
            assert!(round.promoted, "warmup always promotes a viable model");
            assert_eq!(round.champion_loss, f64::INFINITY);
        }
        other => panic!("unexpected outcome {other:?}"),
    }

    let status = session.status();
    assert_eq!(status.era, 1);
    assert_eq!(status.promotions, 1);
    assert_eq!(status.rollbacks, 0);
    assert!(session.champion_model().is_some());

    // Subsequent chunks are evaluated prequentially.
    match session.push_chunk(&s.chunk(cfg.warmup_chunks)).unwrap() {
        ChunkOutcome::Processed { champion_loss, .. } => {
            let loss = champion_loss.expect("champion evaluates every chunk");
            assert!(loss.is_finite());
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    assert!(session.status().last_loss.is_some());
}

#[test]
fn concept_shift_fires_drift_and_promotes_a_challenger() {
    let dir = scratch("drift");
    let s = stream(11);
    let cfg = fast_config(&s);
    let mut session = OnlineSession::create(&dir, cfg, OnlineRuntime::local()).unwrap();

    // Two full segments: the shift between them must be detected.
    for i in 0..2 * s.segment_chunks {
        session.push_chunk(&s.chunk(i)).unwrap();
    }

    let status = session.status();
    assert!(status.drift_events >= 1, "no drift detected: {status:?}");
    assert!(
        status.promotions >= 2,
        "expected a post-drift promotion: {status:?}"
    );
    assert!(status.era >= 2, "champion never replaced: {status:?}");

    let events = session.events().unwrap();
    assert!(
        events
            .iter()
            .any(|e| e.kind == kind::PROMOTE && e.reason == "drift"),
        "no drift-reason promotion in trace"
    );
    // The drift promotion records the displaced era for rollback.
    let promo = events
        .iter()
        .find(|e| e.kind == kind::PROMOTE && e.reason == "drift")
        .unwrap();
    assert!(promo.previous >= 1);
    assert!(promo.model_fp != 0);
    assert!(
        promo.loss + 1e-12 < promo.baseline,
        "challenger must beat champion on the holdout"
    );

    // Probation after the promotion: both eras evaluated on the same
    // chunk.
    let probation_chunk = events
        .iter()
        .filter(|e| e.kind == kind::EVAL)
        .map(|e| e.chunk)
        .fold(
            std::collections::BTreeMap::<usize, usize>::new(),
            |mut m, c| {
                *m.entry(c).or_insert(0) += 1;
                m
            },
        );
    assert!(
        probation_chunk.values().any(|&n| n == 2),
        "no probation double-eval found"
    );
}

#[test]
fn duplicate_delivery_is_idempotent() {
    let dir = scratch("dup");
    let s = stream(5);
    let cfg = fast_config(&s);
    let mut session = OnlineSession::create(&dir, cfg, OnlineRuntime::local()).unwrap();

    session.push_chunk(&s.chunk(0)).unwrap();
    let before = session.journal_bytes().unwrap();
    assert_eq!(
        session.push_chunk(&s.chunk(0)).unwrap(),
        ChunkOutcome::Duplicate
    );
    assert_eq!(
        session.journal_bytes().unwrap(),
        before,
        "a duplicate must not touch the journal"
    );
    // The next distinct chunk proceeds normally.
    match session.push_chunk(&s.chunk(1)).unwrap() {
        ChunkOutcome::Processed { chunk, .. } => assert_eq!(chunk, 1),
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn schema_mismatch_is_rejected_without_wedging() {
    let dir = scratch("schema");
    let s = stream(5);
    let cfg = fast_config(&s);
    let mut session = OnlineSession::create(&dir, cfg, OnlineRuntime::local()).unwrap();
    session.push_chunk(&s.chunk(0)).unwrap();

    let mut wide = s;
    wide.features = s.features + 2;
    match session.push_chunk(&wide.chunk(1)) {
        Err(OnlineError::SchemaMismatch { .. }) => {}
        other => panic!("expected schema mismatch, got {other:?}"),
    }
    // The session is still usable.
    session.push_chunk(&s.chunk(1)).unwrap();
    assert_eq!(session.status().chunks, 2);
}

#[test]
fn a_chunk_whose_kinds_differ_is_refused_before_it_is_persisted() {
    let dir = scratch("kinds");
    let s = stream(5);
    let mut session = OnlineSession::create(&dir, fast_config(&s), OnlineRuntime::local()).unwrap();
    session.push_chunk(&s.chunk(0)).unwrap();

    // Same task and width; column 0 declared categorical (and holding
    // category indices, as a categorical column must). The second chunk
    // fills the warmup window, so had it been taken in, the warmup round
    // would have failed to assemble the window.
    let numeric = s.chunk(1);
    let mut kinds = numeric.feature_kinds().to_vec();
    kinds[0] = FeatureKind::Categorical { cardinality: 4 };
    let mut columns = numeric.columns().to_vec();
    columns[0] = (0..numeric.n_rows()).map(|i| (i % 4) as f64).collect();
    let categorical = Dataset::with_kinds(
        numeric.name(),
        numeric.task(),
        columns,
        kinds,
        numeric.target().to_vec(),
    )
    .unwrap();
    match session.push_chunk(&categorical) {
        Err(OnlineError::SchemaMismatch { got, .. }) => {
            assert!(got.contains("Categorical"), "{got}")
        }
        other => panic!("expected schema mismatch, got {other:?}"),
    }
    assert!(!dir.join("chunks").join("c000001.json").exists());
    assert_eq!(session.status().chunks, 1);

    // The session is still usable, and so is the directory.
    session.push_chunk(&numeric).unwrap();
    assert_eq!(session.status().chunks, 2);
    drop(session);
    let reopened = OnlineSession::open(&dir, OnlineRuntime::local()).unwrap();
    assert_eq!(reopened.status().chunks, 2);
}

/// A longer stream with the library's default learners: 120-row chunks,
/// 4 features, a concept shift every 8 chunks, and a window tight
/// enough that by the time drift is confirmed the training window is
/// dominated by post-shift chunks.
fn long_stream() -> (DriftStream, OnlineConfig) {
    let mut s = DriftStream::new(0);
    s.rows = 120;
    s.features = 4;
    s.segment_chunks = 8;
    s.margin_noise = 0.15;
    let mut cfg = OnlineConfig::new(Task::Binary, s.features);
    cfg.seed = s.seed;
    cfg.window_chunks = 4;
    cfg.holdout_chunks = 1;
    cfg.warmup_chunks = 2;
    cfg.drift_window = 2;
    cfg.drift_threshold = 0.1;
    (s, cfg)
}

#[test]
fn rejected_drift_round_arms_a_retry_that_survives_restart() {
    // On the long stream drift is confirmed at the segment boundary
    // itself, so the drift round trains on a window still dominated by
    // the old concept, loses its holdout, and is rejected. The
    // rejection must arm exactly one follow-up round
    // `window_chunks - 1` chunks later — after the window has
    // refreshed with post-shift data — and that retry must promote.
    let (s, cfg) = long_stream();
    let n = 21;

    let dir = scratch("retry");
    let mut session = OnlineSession::create(&dir, cfg.clone(), OnlineRuntime::local()).unwrap();
    for i in 0..n {
        session.push_chunk(&s.chunk(i)).unwrap();
    }
    let events = session.events().unwrap();
    let reference = session.journal_bytes().unwrap();

    let reject = events
        .iter()
        .find(|e| e.kind == kind::REJECT && e.reason == "drift")
        .expect("boundary drift round must be rejected");
    let retry = events
        .iter()
        .find(|e| e.kind == kind::ROUND && e.reason == "retry")
        .expect("rejected drift round must arm a retry");
    assert_eq!(
        retry.chunk,
        reject.chunk + cfg.window_chunks - 1,
        "retry fires once the window is fully post-shift"
    );
    assert!(
        !events
            .iter()
            .any(|e| e.kind == kind::ROUND && e.reason == "retry" && e.chunk > retry.chunk),
        "a retry must not re-arm"
    );
    assert!(
        events
            .iter()
            .any(|e| e.kind == kind::PROMOTE && e.reason == "retry"),
        "retry round trained on the refreshed window must promote"
    );

    // Kill the session mid-countdown (after the rejection, before the
    // retry): recovery must rebuild the armed countdown from the
    // journal and produce a byte-identical trace.
    let cut = reject.chunk + 1;
    let dir2 = scratch("retry-resume");
    let mut session = OnlineSession::create(&dir2, cfg, OnlineRuntime::local()).unwrap();
    for i in 0..=cut {
        session.push_chunk(&s.chunk(i)).unwrap();
    }
    drop(session);
    let mut session = OnlineSession::open(&dir2, OnlineRuntime::local()).unwrap();
    for i in cut + 1..n {
        session.push_chunk(&s.chunk(i)).unwrap();
    }
    assert_eq!(
        String::from_utf8(session.journal_bytes().unwrap()).unwrap(),
        String::from_utf8(reference).unwrap(),
        "restart mid-countdown changed the promotion trace"
    );
}

#[test]
fn adapting_beats_a_never_retrained_champion() {
    // Both arms are scored prequentially on every chunk before the
    // session trains on it: the session's serving champion, and a
    // frozen copy of the first (warmup) champion — what a deploy-once
    // pipeline would serve. They are compared on error rate, which is
    // bounded, so the one or two post-shift chunks where the adapted
    // champion is confidently wrong cannot dominate the mean, while a
    // champion stuck on a stale concept pays on every later chunk.
    // Challenger rounds run on the virtual clock, so the numbers are a
    // pure function of the seed.
    let (s, mut cfg) = long_stream();
    // Backstop, not pre-emptor: longer than the 2 × drift_window run-up
    // the detector needs, so drift still fires first after a shift, but
    // a drift round rejected on a blended window is followed by an
    // all-fresh retrain one refresh later.
    cfg.refresh_every = 2 * cfg.window_chunks;
    let error = |model: &CompiledModel, data: &Dataset| {
        Metric::Accuracy
            .loss(&model.predict(data.view()), data.target())
            .unwrap()
    };

    let mut session =
        OnlineSession::create(scratch("regret"), cfg, OnlineRuntime::local()).unwrap();
    let mut frozen: Option<CompiledModel> = None;
    let (mut adapted, mut fixed, mut scored) = (0.0, 0.0, 0);
    for i in 0..24 {
        let data = s.chunk(i);
        if let (Some(champion), Some(frozen)) = (session.champion_model(), &frozen) {
            adapted += error(champion, &data);
            fixed += error(frozen, &data);
            scored += 1;
        }
        session.push_chunk(&data).unwrap();
        if frozen.is_none() {
            frozen = session.champion_model().cloned();
        }
    }
    let (adapted, fixed) = (adapted / f64::from(scored), fixed / f64::from(scored));
    let status = session.status();
    assert!(status.drift_events >= 1, "no drift fired: {status:?}");
    assert!(status.promotions >= 2, "no challenger promoted: {status:?}");
    assert!(
        adapted <= 0.95 * fixed,
        "over {scored} chunks the adapting champion erred {adapted:.4} against the \
         frozen one's {fixed:.4}: less than 5 % better"
    );
}

#[test]
fn reverting_concept_rolls_back_the_promotion() {
    // Hand-built stream: concept A, a brief flip to NOT-A (drift fires,
    // a challenger trained on the flipped chunks wins the flipped
    // holdout), then back to A — where the old champion clearly beats
    // the new one, so probation must roll the promotion back.
    let dir = scratch("rollback");
    let s = stream(5);
    let mut cfg = fast_config(&s);
    cfg.features = 1;
    let probation = cfg.probation_chunks;
    assert!(probation >= 1, "test requires probation enabled");
    let mut session = OnlineSession::create(&dir, cfg.clone(), OnlineRuntime::local()).unwrap();

    let mut idx = 0;
    let mut push = |session: &mut OnlineSession, flipped: bool| {
        let out = session.push_chunk(&flip_chunk(idx, flipped)).unwrap();
        idx += 1;
        out
    };

    // Concept A until well past warmup.
    for _ in 0..cfg.warmup_chunks + 2 {
        push(&mut session, false);
    }
    assert_eq!(session.status().era, 1, "warmup champion");

    // Flip the concept until a challenger is promoted.
    let mut promoted = false;
    for _ in 0..3 * cfg.window_chunks {
        if let ChunkOutcome::Processed { round: Some(r), .. } = push(&mut session, true) {
            if r.promoted {
                promoted = true;
                break;
            }
        }
    }
    assert!(promoted, "flip never promoted: {:?}", session.status());
    assert!(session.status().probation_left > 0);

    // Revert to A: the old champion dominates, probation fails.
    for _ in 0..probation {
        push(&mut session, false);
    }
    let status = session.status();
    assert_eq!(status.rollbacks, 1, "no rollback: {status:?}");
    assert_eq!(status.era, 1, "old champion restored: {status:?}");
    assert!(
        session
            .events()
            .unwrap()
            .iter()
            .any(|e| e.kind == kind::ROLLBACK && e.version == 1),
        "rollback event missing"
    );
}
