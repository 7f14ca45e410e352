#![warn(missing_docs)]

//! # fred-cluster — multi-tenant training on one wafer-scale fabric
//!
//! The paper evaluates FRED one job at a time; real wafers are shared.
//! This crate schedules *concurrent* training jobs onto a single
//! fabric and measures the tenancy costs the solo benches cannot see:
//! queueing delay (a wide job waits while no run of free NPU slots
//! fits it), makespan stretch under interference, and cross-tenant
//! fairness.
//!
//! * [`job`] — what a tenant submits: a model-zoo entry, a 3D
//!   parallelism strategy, a priority class, an arrival time and an
//!   optional job-relative fault plan,
//! * [`arrivals`] — seeded Poisson arrival generation over the model
//!   zoo (trace-driven runs pass an explicit `Vec<JobSpec>` instead),
//! * [`placement`] — contiguous NPU-slot carving (first fit),
//! * [`scheduler`] — the shared-fabric event loop: per-job
//!   [`fred_workloads::exec::ScheduleExecutor`]s interleaved through
//!   one [`fred_sim::netsim::FlowNetwork`], priority classes mapped to
//!   fair-share tenant ranks, preemption and requeue,
//! * [`metrics`] — job-level SLO metrics: queueing delay, stretch,
//!   Jain fairness, utilization.
//!
//! See `DESIGN.md` §9 for the job model, placement rules, isolation
//! semantics and the determinism contract (a cluster of one High-class
//! job is bit-identical to the standalone trainer).

pub mod arrivals;
pub mod job;
pub mod metrics;
pub mod placement;
pub mod scheduler;

pub use job::{JobClass, JobSpec};
pub use metrics::{ClusterReport, JobRecord};
pub use placement::SlotMap;
pub use scheduler::{
    run_cluster, run_cluster_traced, Cluster, ClusterConfig, ClusterError, ClusterState,
};
