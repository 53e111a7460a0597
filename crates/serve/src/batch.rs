//! Batched inference over the exec pool.
//!
//! A [`BatchEngine`] splits each request matrix into fixed-size row
//! chunks and runs them as pool jobs. Because [`crate::CompiledModel::bind`]
//! does all per-request setup up front and chunk evaluation is pure
//! per-row math, concatenating the chunk results in submission order —
//! which [`flaml_exec::ExecPool::run_batch`] guarantees — produces
//! output byte-identical to one sequential pass, regardless of worker
//! count or dispatch interleaving.
//!
//! Every completed chunk emits a [`TrialEventKind::ServeBatch`] event:
//! `label` carries the slot name, `sample_size` the chunk's row count,
//! `wall_secs` the chunk latency and `cost` the batch occupancy (rows
//! over configured batch capacity). [`flaml_exec::Telemetry`] folds
//! these into per-slot latency percentiles and throughput
//! ([`flaml_exec::Telemetry::by_slot`]).

use crate::view::Servable;
use flaml_data::DatasetView;
use flaml_exec::{EventSink, ExecPool, Job, JobStatus, TrialEvent, TrialEventKind};
use flaml_metrics::Pred;

/// Batched inference engine over a shared [`ExecPool`].
#[derive(Debug)]
pub struct BatchEngine<'p> {
    pool: &'p ExecPool,
    batch_rows: usize,
    sink: Option<EventSink>,
}

impl<'p> BatchEngine<'p> {
    /// An engine chunking requests into `batch_rows`-row batches
    /// (clamped to at least 1).
    pub fn new(pool: &'p ExecPool, batch_rows: usize) -> BatchEngine<'p> {
        BatchEngine {
            pool,
            batch_rows: batch_rows.max(1),
            sink: None,
        }
    }

    /// Attaches a telemetry sink receiving one
    /// [`TrialEventKind::ServeBatch`] event per completed chunk.
    #[must_use]
    pub fn with_sink(mut self, sink: EventSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Configured rows per batch.
    pub fn batch_rows(&self) -> usize {
        self.batch_rows
    }

    /// Predicts on `data` with `model` — a [`crate::CompiledModel`], or a
    /// value that keeps its evaluator tables such as a registry
    /// [`crate::VersionedModel`] — chunked across the pool.
    /// Byte-identical to `model.predict(data)` and to the source
    /// interpreted model.
    ///
    /// # Panics
    ///
    /// Panics if `data` has the wrong feature count or a chunk
    /// evaluation panics.
    pub fn predict<M: Servable + ?Sized>(
        &self,
        slot: &str,
        model: &M,
        data: impl Into<DatasetView>,
    ) -> Pred {
        let data: DatasetView = data.into();
        let (model, tables) = model.parts();
        let bound = model.bind(&tables, &data);
        let n = bound.n_rows();
        let chunks: Vec<(usize, usize)> = (0..n)
            .step_by(self.batch_rows)
            .map(|lo| (lo, (lo + self.batch_rows).min(n)))
            .collect();
        let bound_ref = &bound;
        let jobs: Vec<Job<'_, Vec<f64>>> = chunks
            .iter()
            .map(|&(lo, hi)| {
                Job::new(move |_| bound_ref.eval_range(lo, hi)).label(format!("{slot}[{lo}..{hi}]"))
            })
            .collect();
        // Results come back in submission order even under parallel
        // dispatch, so the concatenation below is deterministic.
        let results = self.pool.run_batch(jobs, None);
        let mut flat = Vec::with_capacity(n * bound.width());
        for (result, &(lo, hi)) in results.into_iter().zip(&chunks) {
            self.emit(slot, hi - lo, result.wall_secs);
            match result.status {
                JobStatus::Panicked(msg) => {
                    panic!("serving batch {slot} rows {lo}..{hi} panicked: {msg}")
                }
                status => flat.extend(status.into_value().expect("non-panic jobs carry a value")),
            }
        }
        bound.finish(flat)
    }

    fn emit(&self, slot: &str, rows: usize, wall_secs: f64) {
        if let Some(sink) = &self.sink {
            let mut ev = TrialEvent::new(TrialEventKind::ServeBatch);
            ev.label = slot.to_string();
            ev.sample_size = rows;
            ev.wall_secs = Some(wall_secs);
            ev.cost = Some(rows as f64 / self.batch_rows as f64);
            sink.emit(ev);
        }
    }
}
