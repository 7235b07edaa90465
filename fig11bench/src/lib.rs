//! The Fig. 11 cold/warm and messy-data benchmark of the Rumble engine.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to run it.

pub mod mix;
pub mod procfs;
pub mod report;
pub mod spans;
pub mod stats;
pub mod trace;
pub mod workload;
