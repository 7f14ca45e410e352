#![warn(missing_docs)]

//! # fred-bench — experiment harness
//!
//! One binary per figure/table of the paper's evaluation (see
//! `DESIGN.md` §3 for the index) plus shared table-formatting helpers.
//! Host-time performance is measured by the separate `fredbench`
//! package, not here.

pub mod churn;
pub mod report;
pub mod table;
pub mod traceopt;
