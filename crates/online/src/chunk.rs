//! Durable chunk representation and window assembly.
//!
//! Every ingested chunk is persisted (atomically) before any journal
//! event mentions it, so a resumed session can rebuild its sliding
//! training window from disk without replaying the stream source.
//! A chunk file holds the [`flaml_data::DatasetPayload`] of its chunk;
//! [`concat_chunks`] materializes a window of chunks into the single
//! [`Dataset`] a challenger trains on.

use crate::OnlineError;
use flaml_data::{Dataset, FeatureKind, Task};

/// A chunk schema as an error message names it: task and feature count,
/// then the column kinds when any is categorical.
pub(crate) fn schema(task: Task, features: usize, kinds: &[FeatureKind]) -> String {
    let text = format!("{} x{features} features", task.wire_name());
    if kinds.iter().all(|k| *k == FeatureKind::Numeric) {
        text
    } else {
        format!("{text}, kinds {kinds:?}")
    }
}

/// Concatenates a window of schema-identical chunks (same task, same
/// column count and kinds) into one training dataset, rows in chunk
/// order.
///
/// # Errors
///
/// [`OnlineError::SchemaMismatch`] if the chunks disagree on task or
/// column layout; [`OnlineError::Corrupt`] for an empty window.
pub fn concat_chunks(name: &str, chunks: &[&Dataset]) -> Result<Dataset, OnlineError> {
    let first = *chunks
        .first()
        .ok_or_else(|| OnlineError::Corrupt("empty chunk window".to_string()))?;
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); first.n_features()];
    let mut target = Vec::new();
    for chunk in chunks {
        if chunk.task() != first.task()
            || chunk.n_features() != first.n_features()
            || chunk.feature_kinds() != first.feature_kinds()
        {
            return Err(OnlineError::SchemaMismatch {
                expected: schema(first.task(), first.n_features(), first.feature_kinds()),
                got: schema(chunk.task(), chunk.n_features(), chunk.feature_kinds()),
            });
        }
        for (dst, src) in columns.iter_mut().zip(chunk.columns()) {
            dst.extend_from_slice(src);
        }
        target.extend_from_slice(chunk.target());
    }
    Dataset::with_kinds(
        name,
        first.task(),
        columns,
        first.feature_kinds().to_vec(),
        target,
    )
    .map_err(|e| OnlineError::Corrupt(format!("window assembly failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flaml_data::DatasetPayload;

    fn chunk(name: &str, base: f64) -> Dataset {
        Dataset::new(
            name,
            Task::Binary,
            vec![vec![base, base + 1.0, base + 2.0, base + 3.0]],
            vec![0.0, 1.0, 0.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn payload_round_trip_is_bit_exact() {
        let d = chunk("c0", 0.5);
        let json = serde_json::to_string(&DatasetPayload::from_dataset(&d)).unwrap();
        let back: DatasetPayload = serde_json::from_str(&json).unwrap();
        let rebuilt = back.into_dataset().unwrap();
        assert_eq!(rebuilt.fingerprint(), d.fingerprint());
        assert_eq!(rebuilt.name(), "c0");
    }

    #[test]
    fn concat_stacks_rows_in_order() {
        let a = chunk("a", 0.0);
        let b = chunk("b", 10.0);
        let w = concat_chunks("w", &[&a, &b]).unwrap();
        assert_eq!(w.n_rows(), 8);
        assert_eq!(w.column(0)[4], 10.0);
    }

    #[test]
    fn concat_rejects_schema_mismatch() {
        let a = chunk("a", 0.0);
        let b = Dataset::new(
            "b",
            Task::Binary,
            vec![vec![0.0, 1.0], vec![1.0, 0.0]],
            vec![0.0, 1.0],
        )
        .unwrap();
        assert!(matches!(
            concat_chunks("w", &[&a, &b]),
            Err(OnlineError::SchemaMismatch { .. })
        ));
        assert!(concat_chunks("w", &[]).is_err());
    }
}
