//! End-to-end and per-layer benchmark of the staged five-pool server
//! and the thread-per-request baseline. See `NOTES.md` in this
//! directory for the workloads, the metrics and how they relate.

pub mod alloc;
pub mod cli;
pub mod client;
pub mod deploy;
pub mod live;
pub mod procstat;
pub mod replay;
pub mod rng;
pub mod scrape;
pub mod spans;
pub mod stats;
pub mod workload;
