//! Jobs: what a tenant submits to the cluster.
//!
//! A job is one training iteration of a model-zoo entry under a 3D
//! parallelism strategy — the same unit [`fred_workloads::trainer::simulate`]
//! runs solo. The cluster adds what solo training does not have: a
//! priority class (mapped onto the fair-share solver's tenant ranks),
//! an arrival time, and an optional job-relative fault plan.

use fred_core::placement::Strategy3D;
use fred_sim::fault::FaultPlan;
use fred_sim::time::Time;
use fred_workloads::model::{DnnModel, ExecutionMode};
use fred_workloads::schedule::ScheduleParams;

/// Priority class of a job, mapped directly onto a fabric tenant rank:
/// every flow of a job carries its class's rank, and the max-min
/// solver fills ranks strictly in order — a High job's traffic is
/// never slowed by Normal or Low traffic sharing its links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobClass {
    /// Production / latency-critical. Tenant rank 0 — the same rank
    /// solo jobs run at, so a lone High job is bit-identical to the
    /// standalone trainer.
    High,
    /// Default class. Tenant rank 1.
    Normal,
    /// Best-effort / preemptible-first. Tenant rank 2.
    Low,
}

impl JobClass {
    /// Every class, highest priority first.
    pub const ALL: [JobClass; 3] = [JobClass::High, JobClass::Normal, JobClass::Low];

    /// The fabric tenant rank this class maps to (0 = served first).
    pub fn tenant_rank(self) -> u8 {
        match self {
            JobClass::High => 0,
            JobClass::Normal => 1,
            JobClass::Low => 2,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            JobClass::High => "high",
            JobClass::Normal => "normal",
            JobClass::Low => "low",
        }
    }
}

/// One submitted job: a model, its parallelism, and its tenancy terms.
///
/// Doubles as the trace format — a `Vec<JobSpec>` *is* an arrival
/// trace, whether hand-written or drawn from the seeded Poisson
/// generator in [`crate::arrivals`].
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Display name (unique names make reports readable; the scheduler
    /// does not require uniqueness).
    pub name: String,
    /// The model to train.
    pub model: DnnModel,
    /// 3D parallelism degrees; `mp × dp × pp` NPU slots are carved.
    pub strategy: Strategy3D,
    /// Scheduling inputs (minibatch, microbatches, per-NPU FLOP/s).
    pub params: ScheduleParams,
    /// Priority class (tenant rank + preemption precedence).
    pub class: JobClass,
    /// When the job arrives at the cluster (absolute).
    pub arrival: Time,
    /// Job-relative fault plan: event times are offsets from the job's
    /// first start. [`FaultPlan::none`] for healthy runs.
    pub faults: FaultPlan,
}

impl JobSpec {
    /// A Normal-class job arriving at time zero with no faults.
    pub fn new(
        name: impl Into<String>,
        model: DnnModel,
        strategy: Strategy3D,
        params: ScheduleParams,
    ) -> JobSpec {
        JobSpec {
            name: name.into(),
            model,
            strategy,
            params,
            class: JobClass::Normal,
            arrival: Time::ZERO,
            faults: FaultPlan::none(),
        }
    }

    /// Sets the priority class.
    pub fn with_class(mut self, class: JobClass) -> JobSpec {
        self.class = class;
        self
    }

    /// Sets the arrival time.
    pub fn with_arrival(mut self, arrival: Time) -> JobSpec {
        self.arrival = arrival;
        self
    }

    /// Contiguous NPU slots the job needs (one per worker).
    pub fn npus(&self) -> usize {
        self.strategy.worker_count()
    }

    /// Whether the cluster can run this job. Weight-streaming models
    /// stream layer windows to *every* NPU on the wafer and cannot
    /// share the fabric with co-tenants; only weight-stationary jobs
    /// are schedulable.
    pub fn is_schedulable(&self) -> bool {
        self.model.execution == ExecutionMode::WeightStationary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_ranks_are_strictly_ordered() {
        let ranks: Vec<u8> = JobClass::ALL.iter().map(|c| c.tenant_rank()).collect();
        assert_eq!(ranks, vec![0, 1, 2]);
    }

    #[test]
    fn weight_streaming_jobs_are_not_schedulable() {
        let model = DnnModel::gpt3();
        let strategy = Strategy3D::new(1, 1, 2);
        let params = ScheduleParams::sweep_default(&model, strategy);
        let job = JobSpec::new("g", model, strategy, params);
        assert!(!job.is_schedulable());

        let model = DnnModel::resnet152();
        let strategy = Strategy3D::new(1, 4, 1);
        let params = ScheduleParams::sweep_default(&model, strategy);
        let job = JobSpec::new("r", model, strategy, params);
        assert!(job.is_schedulable());
        assert_eq!(job.npus(), 4);
    }
}
