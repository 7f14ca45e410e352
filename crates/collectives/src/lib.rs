#![warn(missing_docs)]

//! # fred-collectives — collective communication plans and cost models
//!
//! Endpoint-based collective algorithms compiled to *plans*: serial
//! phases of concurrent point-to-point transfers, each with an explicit
//! route. Plans are topology-agnostic — routing is delegated to a
//! [`plan::RouteProvider`] supplied by the mesh (`fred-mesh`) or the
//! FRED tree (`fred-core::fabric`) — so the baseline and FRED backends
//! differ only in topology and routes, exactly the controlled variable
//! of the paper's evaluation.
//!
//! Modules:
//!
//! * [`plan`] — the plan representation, data only: plans run in
//!   `fred_workloads`, whose `trainer::run_plan` times one alone,
//! * [`ring`] — ring Reduce-Scatter / All-Gather / All-Reduce /
//!   All-to-All (with the two reverse-direction concurrent chunks used
//!   by the paper's mesh baseline, §7.2),
//! * [`hierarchical`] — the two-level (BlueConnect-style) ring
//!   composition of Fred-A/C's endpoint collectives (§7.2),
//! * [`cost`] — closed-form α-β cost models used to cross-validate the
//!   flow-level simulator.

pub mod cost;
pub mod hierarchical;
pub mod plan;
pub mod ring;

pub use plan::{CommPlan, Phase, RouteProvider, Transfer};
