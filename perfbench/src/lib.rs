//! The repository benchmark: three end-to-end workloads over the paper
//! reproduction, driven through the library's public API the way
//! `repro` drives it, plus a per-layer host-time ledger. See
//! `README.md` for the workloads, the metric table and how to run it.

pub mod facts;
pub mod ledger;
pub mod metric;
pub mod stamp;
pub mod stats;
pub mod workload;
