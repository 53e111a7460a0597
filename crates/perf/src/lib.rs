//! flaml-perf: the repository's benchmark.
//!
//! One command runs four fixed-work workloads through the public API
//! only — `AutoMl::fit`, artifact export, and an in-process
//! `flaml_server::Server` driven over real TCP — prints every metric by
//! name with its unit, checks the outputs, and fails on any failed
//! check. `README.md` in this crate has the metric, workload and
//! interaction tables and the rules the numbers are produced under.

#![warn(missing_docs)]

pub mod compare;
pub mod harness;
pub mod httpc;
pub mod layers;
pub mod procfs;
pub mod report;
pub mod run;
pub mod state;
pub mod stats;
pub mod storage;
pub mod trace;
pub mod workloads;
