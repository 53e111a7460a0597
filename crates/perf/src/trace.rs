//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer (and from trial events for what happens inside a `fit`),
//! kept in memory, and written to `trace.json` when the run ends —
//! nothing is written while a clock is running.

use serde::Serialize;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Unique within the trace (1-based; 0 is "no parent").
    pub id: u64,
    /// Id of the span that caused this one (0 for a top-level span).
    pub parent: u64,
    /// What the span belongs to: one id per search or request.
    pub group: String,
    /// Layer-qualified name, e.g. `core.trial` or `server.publish`.
    pub name: String,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    /// Seconds since the tracer was created.
    pub end_s: f64,
}

impl Span {
    /// The span's length in seconds.
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Collects spans; shared by reference across the harness threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose time zero is now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records `[start, end]` and returns the new span's id.
    pub fn record(
        &self,
        parent: u64,
        group: &str,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("tracer lock");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            group: group.to_string(),
            name: name.to_string(),
            start_s: start.saturating_duration_since(self.origin).as_secs_f64(),
            end_s: end.saturating_duration_since(self.origin).as_secs_f64(),
        });
        id
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock").clone()
    }

    /// The whole trace as a JSON array.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.spans()).expect("spans serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_keep_parent_group_and_times() {
        let tracer = Tracer::new();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let fit = tracer.record(0, "search-1", "fit", at(0), at(100));
        tracer.record(fit, "search-1", "core.trial", at(10), at(40));
        tracer.record(fit, "search-1", "core.trial", at(40), at(90));
        tracer.record(0, "request-1", "server.predict", at(100), at(101));
        let spans = tracer.spans();
        // Self time = own duration minus what the children cover.
        let children: f64 = spans
            .iter()
            .filter(|s| s.parent == fit)
            .map(Span::secs)
            .sum();
        assert!((children - 0.080).abs() < 1e-9);
        assert!((spans[0].secs() - children - 0.020).abs() < 1e-9);
        assert_eq!(spans[3].parent, 0);
        assert!(tracer
            .to_json()
            .starts_with("[{\"id\":1,\"parent\":0,\"group\":\"search-1\""));
    }
}
