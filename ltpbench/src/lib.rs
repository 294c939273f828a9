//! End-to-end and per-layer benchmark of the LTP simulator; see `README.md`
//! in this package for the workloads, the metrics and why they were chosen.

#![forbid(unsafe_code)]

pub mod args;
pub mod http;
pub mod norm;
pub mod plan;
pub mod report;
pub mod run;
pub mod sys;
