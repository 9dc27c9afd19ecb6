//! The repo's wall-clock benchmark: seven named workloads, six end-to-end
//! metrics, and the access/drain ladders, all timed from outside the
//! simulator through its public API. See `README.md` for the glossary.

pub mod compare;
pub mod harness;
pub mod json;
pub mod ladder;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;
