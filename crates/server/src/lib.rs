//! A multi-tenant AutoML service for the FLAML reproduction.
//!
//! `flaml-server` puts an HTTP front end on the whole stack — search
//! ([`flaml_core::AutoMl`]), journaling ([`flaml_core::Journal`]), and
//! serving ([`flaml_core::ModelRegistry`] / [`flaml_core::BatchEngine`])
//! — and multiplexes many tenants onto shared execution pools:
//!
//! * **Admission control** — at most `max_inflight` searches queued or
//!   running; excess `/fit` requests get a typed `429` with the current
//!   counts — decided before the body is parsed — and every rejection
//!   is counted per tenant in telemetry.
//! * **Bounded connections** — the accept loop blocks in `accept` and
//!   gives each connection a thread, at most 256 at once; the next
//!   connection gets a typed `503` from the accept thread itself,
//!   counted with the `429`s in `/stats.serve_rejected`, and
//!   [`Server::stop`] wakes the blocked `accept` with one loopback
//!   connect (see [`server`]).
//! * **Fair budget sharing** — searches run in small slices under a
//!   deficit scheduler: the runnable search of the least-charged tenant
//!   goes next, so pool time divides per tenant, not per search (see
//!   [`scheduler`]).
//! * **Crash recovery** — every accepted fit is persisted (request
//!   sidecar + trial journal) before the client sees `202`. A killed
//!   server replays the tree on restart: slot files — the one durable
//!   copy of each served model — are republished, searches that ended
//!   are recorded from their terminal records, and in-flight searches
//!   resume their journals byte-identically under the deterministic
//!   virtual clock (see [`server`]).
//!
//! The HTTP layer is a dependency-free `std::net` HTTP/1.1 subset
//! ([`http`]) whose head cap holds while a request is read; wire types
//! live in [`api`] and are shared with clients, so a verifier can re-run
//! any search from its sidecar and byte-compare journals.
//!
//! # Routes
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness |
//! | `GET /stats` | telemetry: per-tenant usage, slot latency, queue depth |
//! | `POST /tenants/{t}/fit` | submit a search (`202` / `429`) |
//! | `GET /tenants/{t}/searches/{id}` | search status |
//! | `POST /tenants/{t}/predict` | batched prediction from a slot |
//! | `POST /tenants/{t}/slots/{s}` | publish an artifact directly |
//! | `POST /tenants/{t}/slots/{s}/rollback` | roll a slot back |
//! | `POST /tenants/{t}/stream/{s}` | push one chunk into a streaming AutoML session |
//! | `GET /tenants/{t}/stream/{s}/status` | stream status: era, drift events, promotions |
//!
//! Streaming slots are champion–challenger [`flaml_online`] sessions:
//! every pushed chunk is evaluated prequentially, drift triggers a
//! budgeted challenger search, and promotions publish into the same
//! registry key `/predict` reads. Stream state is journaled under
//! `root/{tenant}/streams/{slot}/` and recovers byte-identically after
//! a kill, like searches.

#![warn(missing_docs)]

pub mod api;
pub mod http;
pub mod scheduler;
pub mod server;

pub use api::{
    valid_name, DatasetPayload, ErrorBody, FitAccepted, FitRequest, PredictRequest,
    PredictResponse, Rejected, SearchStatus, StreamChunkRequest, StreamOptions, StreamPushResponse,
    StreamStatusBody, DEFAULT_SLICE_TRIALS,
};
pub use scheduler::{Scheduler, SearchJob};
pub use server::{Server, ServerConfig};
