//! Per-iteration training task graphs (§3.1, §7.3).
//!
//! A training iteration is compiled into a DAG of *compute* tasks
//! (roofline-timed layer execution on a virtual worker — one MP group
//! at a (dp, pp) coordinate, whose members run in lockstep) and *comm*
//! tasks (compiled [`CommPlan`]s with an exposure type, which also
//! names their priority class). Two execution modes are supported:
//!
//! * **weight stationary** (§3.1.1): GPipe microbatch pipelining with
//!   Megatron MP All-Reduces inside every forward/backward stage, PP
//!   multicasts at stage boundaries, and ZeRO-2 DP communication
//!   (gradient Reduce-Scatter + parameter All-Gather) at the end;
//! * **weight streaming** (§3.1.2): the model flows through the wafer
//!   in windows of `pp` consecutive layers; each window is streamed in
//!   (double-buffered with compute), microbatches traverse the window
//!   pipeline, and during the backward pass weight gradients stream
//!   back out, reduced across DP on the way (the reverse of Fig 4).
//!
//! Comm tasks hold shared plans (`Rc<CommPlan>`). Within one
//! [`build_schedule`] every backend call with identical inputs — the
//! same operation, groups and byte count — compiles once, and every
//! task issuing it shares that plan. A weight-streaming iteration
//! repeats the same few collectives in every layer window, so a
//! schedule holds thousands of comm tasks but only tens of plans. The
//! task graph itself is shared too (`Rc<[_]>`), so cloning a
//! [`Schedule`] copies no task, dependency list or route.

use std::collections::HashMap;
use std::rc::Rc;

use fred_collectives::plan::CommPlan;
use fred_core::placement::{Placement, Strategy3D};
use fred_sim::time::Duration;

use crate::backend::FabricBackend;
use crate::model::{DnnModel, ExecutionMode};
use crate::report::CommType;

/// Index of a task within a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

/// Index of a virtual worker (`w = pp + PP · dp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub usize);

/// What a task does.
#[derive(Debug, Clone)]
pub enum TaskBody {
    /// Busy compute on one virtual worker.
    Compute {
        /// The worker that executes (and is occupied by) this task.
        worker: WorkerId,
        /// Roofline duration.
        duration: Duration,
    },
    /// A communication operation.
    Comm {
        /// The compiled plan, shared by every task of the schedule
        /// that issues the same backend call.
        plan: Rc<CommPlan>,
        /// Exposure attribution (Fig 10 stack segment); its
        /// [`CommType::priority`] is the flows' priority class.
        ctype: CommType,
    },
}

/// One node of the iteration DAG.
#[derive(Debug, Clone)]
pub struct Task {
    /// Payload.
    pub body: TaskBody,
    /// Tasks that must finish before this one starts.
    pub deps: Vec<TaskId>,
}

/// A compiled training iteration. Its task graph is fixed once built
/// and shared by every clone: [`Schedule::new`] derives each task's
/// dependents, which every executor sharing the schedule reads.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// All tasks; `TaskId` indexes into this.
    pub tasks: Rc<[Task]>,
    /// Per virtual worker, the ordered list of tasks it waits on
    /// (computes it runs + comms that block it) — the basis for
    /// exposed-communication accounting.
    pub worker_chains: Rc<[Vec<TaskId>]>,
    /// Strategy string for reports.
    pub strategy: String,
    /// Minibatch samples per iteration.
    pub minibatch: usize,
    /// Per task, the tasks that list it in their `deps`, in task
    /// order: the graph's reverse edges.
    pub(crate) dependents: Rc<[Vec<TaskId>]>,
}

/// Scheduling inputs beyond the model and strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleParams {
    /// Minibatch samples per iteration (§7.3: DP × 16 or DP × 40).
    pub minibatch: usize,
    /// Microbatches the minibatch is split into (§7.3 footnote 6).
    pub microbatches: usize,
    /// Per-NPU peak FLOP/s.
    pub npu_flops: f64,
}

impl ScheduleParams {
    /// The paper's §8.1–8.2 setting: minibatch = DP × 16, with the
    /// Table 6 microbatch counts (8 for Transformer-17B PP(2), 2 for
    /// GPT-3 PP(2), 1 otherwise).
    pub fn paper_default(model: &DnnModel, strategy: Strategy3D) -> ScheduleParams {
        let microbatches = if strategy.pp == 1 {
            1
        } else if model.execution == ExecutionMode::WeightStreaming {
            strategy.pp
        } else {
            4 * strategy.pp
        };
        ScheduleParams {
            minibatch: strategy.dp * 16,
            microbatches,
            npu_flops: fred_core::params::PhysicalParams::paper().npu_flops,
        }
    }

    /// The §8.3 sweep setting: minibatch = DP × 40, microbatches per
    /// footnote 6 (≈ proportional to PP for fine-grained pipelining).
    pub fn sweep_default(model: &DnnModel, strategy: Strategy3D) -> ScheduleParams {
        let microbatches = match (model.execution, strategy.pp) {
            (_, 1) => 1,
            (ExecutionMode::WeightStreaming, pp) => pp,
            (ExecutionMode::WeightStationary, 2) => 10,
            (ExecutionMode::WeightStationary, pp) if pp <= 10 => 20,
            (ExecutionMode::WeightStationary, _) => 40,
        };
        ScheduleParams {
            minibatch: strategy.dp * 40,
            microbatches,
            npu_flops: fred_core::params::PhysicalParams::paper().npu_flops,
        }
    }
}

/// The exact inputs of one backend compile call: the operation, its
/// physical NPU group(s) and its byte count as bits. The backend's
/// compile methods are pure functions of these inputs, so equal keys
/// compile equal plans, and keying on the bits never merges two byte
/// counts a fresh compile would treat differently.
#[derive(PartialEq, Eq, Hash)]
enum PlanKey {
    AllReduce(Vec<usize>, u64),
    ReduceScatter(Vec<usize>, u64),
    AllGather(Vec<usize>, u64),
    Stage(Vec<usize>, Vec<usize>, u64),
    StreamIn(u64),
    StreamOut(u64),
    InputLoad(u64),
}

impl PlanKey {
    fn compile(&self, backend: &FabricBackend) -> CommPlan {
        match self {
            PlanKey::AllReduce(group, b) => backend.all_reduce(group, f64::from_bits(*b)),
            PlanKey::ReduceScatter(group, b) => backend.reduce_scatter(group, f64::from_bits(*b)),
            PlanKey::AllGather(group, b) => backend.all_gather(group, f64::from_bits(*b)),
            PlanKey::Stage(srcs, dsts, b) => backend.stage_transfer(srcs, dsts, f64::from_bits(*b)),
            PlanKey::StreamIn(b) => backend.stream_in(f64::from_bits(*b)),
            PlanKey::StreamOut(b) => backend.stream_out(f64::from_bits(*b)),
            PlanKey::InputLoad(b) => backend.input_load(f64::from_bits(*b)),
        }
    }
}

struct Builder<'a> {
    model: &'a DnnModel,
    strategy: Strategy3D,
    placement: &'a Placement,
    backend: &'a FabricBackend,
    params: ScheduleParams,
    tasks: Vec<Task>,
    chains: Vec<Vec<TaskId>>,
    /// Every plan compiled so far, by its inputs. Only looked up, never
    /// iterated, so its order cannot reach the schedule.
    plans: HashMap<PlanKey, Rc<CommPlan>>,
}

impl<'a> Builder<'a> {
    fn worker(&self, dp: usize, pp: usize) -> WorkerId {
        WorkerId(pp + self.strategy.pp * dp)
    }

    /// The plan for `key`, compiled on first use and shared after.
    fn plan(&mut self, key: PlanKey) -> Rc<CommPlan> {
        let backend = self.backend;
        Rc::clone(
            self.plans
                .entry(key)
                .or_insert_with_key(|key| Rc::new(key.compile(backend))),
        )
    }

    fn push(&mut self, body: TaskBody, deps: Vec<TaskId>) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(Task { body, deps });
        id
    }

    fn push_compute(&mut self, w: WorkerId, secs: f64, deps: Vec<TaskId>) -> TaskId {
        let id = self.push(
            TaskBody::Compute {
                worker: w,
                duration: Duration::from_secs(secs.max(0.0)),
            },
            deps,
        );
        self.chains[w.0].push(id);
        id
    }

    fn push_comm(
        &mut self,
        plan: Rc<CommPlan>,
        ctype: CommType,
        deps: Vec<TaskId>,
        blocked: &[WorkerId],
    ) -> TaskId {
        let id = self.push(TaskBody::Comm { plan, ctype }, deps);
        for w in blocked {
            self.chains[w.0].push(id);
        }
        id
    }

    /// Samples per microbatch per DP replica.
    fn mb_samples(&self) -> f64 {
        self.params.minibatch as f64 / self.strategy.dp as f64 / self.params.microbatches as f64
    }

    /// Roofline seconds for `layers` layers of one microbatch on one
    /// NPU (MP-sharded).
    fn compute_secs(&self, layers: f64, backward: bool) -> f64 {
        let per_sample = if backward {
            self.model.flops_per_sample_bwd()
        } else {
            self.model.flops_per_sample_fwd()
        };
        let share = layers / self.model.layers as f64 / self.strategy.mp as f64;
        per_sample * self.mb_samples() * share
            / (self.params.npu_flops
                * self.model.compute_efficiency
                * self.model.compute_calibration)
    }

    /// Combined Megatron MP All-Reduce bytes for `layers` layers of one
    /// microbatch in one pass.
    fn mp_bytes(&self, layers: f64) -> f64 {
        self.model.mp_all_reduces_per_layer() as f64
            * layers
            * self.model.activation_bytes(self.mb_samples())
    }

    fn mp_comm(&mut self, dp: usize, pp: usize, layers: f64, deps: Vec<TaskId>) -> TaskId {
        let group = self
            .backend
            .physical_group(&self.placement.mp_group_npus(dp, pp));
        let plan = self.plan(PlanKey::AllReduce(group, self.mp_bytes(layers).to_bits()));
        let w = self.worker(dp, pp);
        self.push_comm(plan, CommType::Mp, deps, &[w])
    }

    /// PP boundary: the source MP group feeds the destination MP group
    /// member-to-member (identical outputs, §8.1 footnote 8).
    fn pp_comm(&mut self, dp: usize, from_pp: usize, to_pp: usize, deps: Vec<TaskId>) -> TaskId {
        let srcs = self
            .backend
            .physical_group(&self.placement.mp_group_npus(dp, from_pp));
        let dsts = self
            .backend
            .physical_group(&self.placement.mp_group_npus(dp, to_pp));
        let bytes = self.model.activation_bytes(self.mb_samples());
        let plan = self.plan(PlanKey::Stage(srcs, dsts, bytes.to_bits()));
        let w = self.worker(dp, to_pp);
        self.push_comm(plan, CommType::Pp, deps, &[w])
    }

    #[allow(clippy::needless_range_loop)]
    fn build_weight_stationary(&mut self) {
        let s = self.strategy;
        let m = self.params.microbatches;
        let layers_per_stage = self.model.layers as f64 / s.pp as f64;

        // Input load feeds every stage-0 worker's first microbatch.
        let load_bytes = self.params.minibatch as f64 * self.model.sample_bytes;
        let load_plan = self.plan(PlanKey::InputLoad(load_bytes.to_bits()));
        let stage0: Vec<WorkerId> = (0..s.dp).map(|d| self.worker(d, 0)).collect();
        let load = self.push_comm(load_plan, CommType::InputLoad, vec![], &stage0);

        // fwd_done[d][p][mb] = task that completes (compute + MP) fwd.
        let mut fwd_done = vec![vec![vec![TaskId(0); m]; s.pp]; s.dp];
        let mut prev_in_worker: Vec<Option<TaskId>> = vec![None; s.dp * s.pp];
        // Forward pass with GPipe pipelining.
        for mb in 0..m {
            for d in 0..s.dp {
                for p in 0..s.pp {
                    let w = self.worker(d, p);
                    let mut deps = Vec::new();
                    if let Some(prev) = prev_in_worker[w.0] {
                        deps.push(prev);
                    }
                    if p == 0 {
                        if mb == 0 {
                            deps.push(load);
                        }
                    } else {
                        // Activation arrival from the previous stage.
                        let arrive = self.pp_comm(d, p - 1, p, vec![fwd_done[d][p - 1][mb]]);
                        deps.push(arrive);
                    }
                    let c = self.push_compute(w, self.compute_secs(layers_per_stage, false), deps);
                    let done = if s.mp > 1 {
                        self.mp_comm(d, p, layers_per_stage, vec![c])
                    } else {
                        c
                    };
                    fwd_done[d][p][mb] = done;
                    prev_in_worker[w.0] = Some(done);
                }
            }
        }

        // Backward pass (GPipe flush: last stage starts after its final
        // forward microbatch).
        let mut bwd_done = vec![vec![vec![TaskId(0); m]; s.pp]; s.dp];
        for mb in 0..m {
            for d in 0..s.dp {
                for p in (0..s.pp).rev() {
                    let w = self.worker(d, p);
                    let mut deps = Vec::new();
                    if let Some(prev) = prev_in_worker[w.0] {
                        deps.push(prev);
                    }
                    if p + 1 < s.pp {
                        // Gradient arrival from the next stage.
                        let arrive = self.pp_comm(d, p + 1, p, vec![bwd_done[d][p + 1][mb]]);
                        deps.push(arrive);
                    }
                    let c = self.push_compute(w, self.compute_secs(layers_per_stage, true), deps);
                    let done = if s.mp > 1 {
                        self.mp_comm(d, p, layers_per_stage, vec![c])
                    } else {
                        c
                    };
                    bwd_done[d][p][mb] = done;
                    prev_in_worker[w.0] = Some(done);
                }
            }
        }

        // ZeRO-2 DP communication: gradient Reduce-Scatter followed by
        // parameter All-Gather per (mp, pp) DP group (§7.3).
        if s.dp > 1 {
            let grad_bytes_per_member = self.model.grad_bytes() / (s.mp as f64 * s.pp as f64);
            for mp in 0..s.mp {
                for p in 0..s.pp {
                    let group = self
                        .backend
                        .physical_group(&self.placement.dp_group_npus(mp, p));
                    let deps: Vec<TaskId> = (0..s.dp).map(|d| bwd_done[d][p][m - 1]).collect();
                    let blocked: Vec<WorkerId> = (0..s.dp).map(|d| self.worker(d, p)).collect();
                    let bits = grad_bytes_per_member.to_bits();
                    let rs = self.plan(PlanKey::ReduceScatter(group.clone(), bits));
                    let rs_id = self.push_comm(rs, CommType::Dp, deps, &blocked);
                    let ag = self.plan(PlanKey::AllGather(group, bits));
                    self.push_comm(ag, CommType::Dp, vec![rs_id], &blocked);
                }
            }
        }
    }

    #[allow(clippy::needless_range_loop)]
    fn build_weight_streaming(&mut self) {
        let s = self.strategy;
        let m = self.params.microbatches;
        // Each round streams in a window of `pp` consecutive layers —
        // one layer per pipeline stage (§7.3: GPT-3's PP = 2 brings 2
        // consecutive layers onto the wafer at a time).
        let rounds = self.model.layers.div_ceil(s.pp);
        let chunk_bytes = self.model.model_bytes() / rounds as f64;
        let grad_chunk = self.model.grad_bytes() / rounds as f64;
        let all_workers: Vec<WorkerId> = (0..s.dp)
            .flat_map(|d| (0..s.pp).map(move |p| WorkerId(p + s.pp * d)))
            .collect();

        // Input load (cannot be prefetched during streaming — the I/O
        // channels are busy, §8.2).
        let load_bytes = self.params.minibatch as f64 * self.model.sample_bytes;
        let load_plan = self.plan(PlanKey::InputLoad(load_bytes.to_bits()));
        let load = self.push_comm(load_plan, CommType::InputLoad, vec![], &all_workers);

        let mut prev_in_worker: Vec<Option<TaskId>> = vec![None; s.dp * s.pp];
        let mut prev_stream: Option<TaskId> = None;
        let mut prev_round_done: [Vec<TaskId>; 2] = [Vec::new(), Vec::new()];
        let mut prev_grad_stream: Option<TaskId> = None;

        let mut run_pass = |this: &mut Builder<'a>, backward: bool| {
            for r in 0..rounds {
                // Stream the window in (serialised on the I/O channels,
                // double-buffered: it refills the buffer of round r − 2,
                // so it waits for that round and overlaps round r − 1).
                let mut deps = Vec::new();
                if let Some(prev) = prev_stream {
                    deps.push(prev);
                }
                if r == 0 && !backward {
                    deps.push(load);
                }
                deps.extend(prev_round_done[r % 2].iter().copied());
                let plan = this.plan(PlanKey::StreamIn(chunk_bytes.to_bits()));
                let stream = this.push_comm(plan, CommType::Streaming, deps, &all_workers);
                prev_stream = Some(stream);

                // The window pipeline: microbatches through pp stages of
                // one layer each.
                let mut done_stage = vec![vec![TaskId(0); m]; s.pp];
                for mb in 0..m {
                    for d in 0..s.dp {
                        for p in 0..s.pp {
                            let w = this.worker(d, p);
                            let mut deps = vec![stream];
                            if let Some(prev) = prev_in_worker[w.0] {
                                deps.push(prev);
                            }
                            if p > 0 {
                                let arrive = this.pp_comm(d, p - 1, p, vec![done_stage[p - 1][mb]]);
                                deps.push(arrive);
                            }
                            let c = this.push_compute(w, this.compute_secs(1.0, backward), deps);
                            let done = if s.mp > 1 {
                                this.mp_comm(d, p, 1.0, vec![c])
                            } else {
                                c
                            };
                            done_stage[p][mb] = done;
                            prev_in_worker[w.0] = Some(done);
                        }
                    }
                }
                // The round's barrier: every worker's last task.
                let round_done: Vec<TaskId> = prev_in_worker.iter().flatten().copied().collect();
                prev_round_done[r % 2] = round_done.clone();

                // Backward rounds stream the window's weight gradients
                // back out, reduced across DP on the way (§7.3).
                if backward {
                    let mut gdeps = round_done;
                    if let Some(prev) = prev_grad_stream {
                        gdeps.push(prev);
                    }
                    let plan = this.plan(PlanKey::StreamOut(grad_chunk.to_bits()));
                    let g = this.push_comm(plan, CommType::Streaming, gdeps, &[]);
                    prev_grad_stream = Some(g);
                }
            }
        };

        run_pass(self, false);
        run_pass(self, true);

        // The iteration ends when the last gradient chunk has left the
        // wafer; block every worker on it.
        if let Some(g) = prev_grad_stream {
            for w in &all_workers {
                self.chains[w.0].push(g);
            }
        }
    }
}

/// Compiles one training iteration for `model` under `strategy`,
/// placed by `placement`, on `backend`.
///
/// # Panics
///
/// Panics if the strategy needs more workers than the backend has NPUs
/// or if `minibatch` is not a positive multiple of `dp × microbatches`
/// granularity (fractional samples per microbatch are permitted, zero
/// is not).
pub fn build_schedule(
    model: &DnnModel,
    strategy: Strategy3D,
    placement: &Placement,
    backend: &FabricBackend,
    params: ScheduleParams,
) -> Schedule {
    assert!(
        placement.max_slot() < backend.npu_count(),
        "{strategy} needs NPU slots up to {}, backend has {}",
        placement.max_slot(),
        backend.npu_count()
    );
    assert!(params.minibatch > 0 && params.microbatches > 0);
    let mut builder = Builder {
        model,
        strategy,
        placement,
        backend,
        params,
        tasks: Vec::new(),
        chains: vec![Vec::new(); strategy.dp * strategy.pp],
        plans: HashMap::new(),
    };
    match model.execution {
        ExecutionMode::WeightStationary => builder.build_weight_stationary(),
        ExecutionMode::WeightStreaming => builder.build_weight_streaming(),
    }
    let (tasks, chains) = (builder.tasks, builder.chains);
    Schedule::new(tasks, chains, strategy.to_string(), params.minibatch)
}

impl Schedule {
    /// A schedule of `tasks`, with each task's dependents derived from
    /// the `deps` lists.
    ///
    /// # Panics
    ///
    /// Panics if a dependency names a task past `tasks`.
    pub fn new(
        tasks: Vec<Task>,
        worker_chains: Vec<Vec<TaskId>>,
        strategy: String,
        minibatch: usize,
    ) -> Schedule {
        let mut dependents = vec![Vec::new(); tasks.len()];
        for (i, t) in tasks.iter().enumerate() {
            for d in &t.deps {
                dependents[d.0].push(TaskId(i));
            }
        }
        Schedule {
            tasks: tasks.into(),
            worker_chains: worker_chains.into(),
            strategy,
            minibatch,
            dependents: dependents.into(),
        }
    }

    /// Total busy-compute seconds of worker `w`.
    pub fn worker_compute_secs(&self, w: usize) -> f64 {
        self.worker_chains[w]
            .iter()
            .filter_map(|&t| match &self.tasks[t.0].body {
                TaskBody::Compute { duration, .. } => Some(duration.as_secs()),
                TaskBody::Comm { .. } => None,
            })
            .sum()
    }

    /// Number of communication tasks.
    pub fn comm_task_count(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| matches!(t.body, TaskBody::Comm { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_core::params::FabricConfig;
    use fred_core::placement::PlacementPolicy;

    fn build(
        model: &DnnModel,
        strategy: Strategy3D,
        config: FabricConfig,
    ) -> (Schedule, FabricBackend) {
        let backend = FabricBackend::new(config);
        let placement = Placement::new(strategy, PlacementPolicy::MpPpDp);
        let params = ScheduleParams::paper_default(model, strategy);
        (
            build_schedule(model, strategy, &placement, &backend, params),
            backend,
        )
    }

    #[test]
    fn resnet_schedule_is_pure_dp() {
        let m = DnnModel::resnet152();
        let (s, _) = build(&m, m.default_strategy, FabricConfig::BaselineMesh);
        // 20 workers, each: 1 fwd + 1 bwd compute; plus input load and
        // 1 RS + 1 AG DP comm.
        assert_eq!(s.worker_chains.len(), 20);
        let computes = s.tasks.len() - s.comm_task_count();
        assert_eq!(computes, 40);
        assert_eq!(s.comm_task_count(), 1 + 2);
        assert!(s.worker_compute_secs(0) > 0.0);
    }

    #[test]
    fn transformer17b_schedule_has_all_three_comm_types() {
        let m = DnnModel::transformer_17b();
        let (s, _) = build(&m, m.default_strategy, FabricConfig::FredD);
        let mut kinds = std::collections::BTreeSet::new();
        for t in s.tasks.iter() {
            if let TaskBody::Comm { ctype, .. } = &t.body {
                kinds.insert(*ctype);
            }
        }
        assert!(kinds.contains(&CommType::Mp));
        assert!(kinds.contains(&CommType::Pp));
        assert!(kinds.contains(&CommType::Dp));
        assert!(kinds.contains(&CommType::InputLoad));
        assert!(!kinds.contains(&CommType::Streaming));
    }

    #[test]
    fn streaming_schedule_streams_model_three_times() {
        let m = DnnModel::gpt3();
        let (s, _) = build(&m, m.default_strategy, FabricConfig::FredD);
        let mut stream_bytes = 0.0;
        for t in s.tasks.iter() {
            if let TaskBody::Comm {
                plan,
                ctype: CommType::Streaming,
                ..
            } = &t.body
            {
                // Streaming plans are single-phase; count the payload
                // entering/leaving through the ext-memory links (one
                // transfer per channel carries the chunk shard).
                stream_bytes += plan
                    .phases
                    .iter()
                    .flat_map(|p| &p.transfers)
                    .filter(|tr| {
                        tr.src == crate::backend::EXT_LABEL || tr.dst == crate::backend::EXT_LABEL
                    })
                    .map(|tr| tr.bytes)
                    .sum::<f64>();
            }
        }
        // fwd in + bwd in + grads out = 3 model sizes (within rounding).
        let expected = 3.0 * m.model_bytes();
        assert!(
            (stream_bytes - expected).abs() / expected < 0.05,
            "streamed {stream_bytes:.3e}, expected {expected:.3e}"
        );
    }

    #[test]
    fn streaming_schedule_counts_io_transfers() {
        let m = DnnModel::transformer_1t();
        let (s, _) = build(&m, m.default_strategy, FabricConfig::BaselineMesh);
        // 120 layers, PP=1: 120 rounds x 2 passes stream-ins + 120 grad
        // stream-outs + 1 input load.
        let streams = s
            .tasks
            .iter()
            .filter(|t| {
                matches!(
                    &t.body,
                    TaskBody::Comm {
                        ctype: CommType::Streaming,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(streams, 120 * 2 + 120);
    }

    #[test]
    fn pipeline_dependencies_are_acyclic_and_ordered() {
        let m = DnnModel::transformer_17b();
        let (s, _) = build(&m, m.default_strategy, FabricConfig::BaselineMesh);
        // All deps point backwards (the builder emits in topological
        // order), which guarantees acyclicity.
        for (i, t) in s.tasks.iter().enumerate() {
            for d in &t.deps {
                assert!(d.0 < i, "task {i} depends on later task {}", d.0);
            }
        }
    }

    #[test]
    fn task_deps_point_backwards() {
        // The builder emits tasks in topological order.
        let m = DnnModel::transformer_17b();
        let (s, _) = build(&m, m.default_strategy, FabricConfig::BaselineMesh);
        assert!(s.tasks.iter().any(|t| !t.deps.is_empty()));
        for (task, t) in s.tasks.iter().enumerate() {
            for dep in &t.deps {
                assert!(dep.0 < task, "edge ({task}, {}) points forward", dep.0);
            }
        }
    }

    #[test]
    fn microbatching_divides_compute() {
        let m = DnnModel::transformer_17b();
        let strategy = Strategy3D::new(1, 1, 2);
        let backend = FabricBackend::new(FabricConfig::BaselineMesh);
        let placement = Placement::new(strategy, PlacementPolicy::MpPpDp);
        let mut params = ScheduleParams::paper_default(&m, strategy);
        params.microbatches = 8;
        let s = build_schedule(&m, strategy, &placement, &backend, params);
        // Each of 2 workers runs 8 fwd + 8 bwd computes.
        let computes = s.tasks.len() - s.comm_task_count();
        assert_eq!(computes, 2 * 16);
        // Total compute per worker is independent of microbatch count.
        params.microbatches = 1;
        let s1 = build_schedule(&m, strategy, &placement, &backend, params);
        assert!((s.worker_compute_secs(0) - s1.worker_compute_secs(0)).abs() < 1e-9);
    }

    #[test]
    fn stream_in_prefetches_one_round_ahead() {
        // Double buffering: from the third round on, a forward stream-in
        // waits for the previous stream-in and for the last task of
        // every worker in round r − 2, whose buffer it refills. It never
        // waits for round r − 1, which it overlaps.
        let m = DnnModel::gpt3();
        let (s, _) = build(&m, m.default_strategy, FabricConfig::BaselineMesh);
        let rounds = m.layers.div_ceil(m.default_strategy.pp);
        let stream_ins: Vec<usize> = s
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                matches!(&t.body, TaskBody::Comm { plan, .. } if plan.label.ends_with("stream-in"))
            })
            .map(|(i, _)| i)
            .take(rounds)
            .collect();
        assert_eq!(stream_ins.len(), 48);
        for r in 2..rounds {
            // Round k's tasks lie strictly between stream-ins k and k + 1.
            let in_round = |t: usize, k: usize| stream_ins[k] < t && t < stream_ins[k + 1];
            let mut expected: Vec<usize> = s
                .worker_chains
                .iter()
                .filter_map(|chain| {
                    chain
                        .iter()
                        .map(|t| t.0)
                        .filter(|&t| in_round(t, r - 2))
                        .max()
                })
                .collect();
            expected.push(stream_ins[r - 1]);
            expected.sort_unstable();
            let mut deps: Vec<usize> = s.tasks[stream_ins[r]].deps.iter().map(|t| t.0).collect();
            deps.sort_unstable();
            assert_eq!(deps, expected, "round {r}");
            assert!(
                !deps.iter().any(|&t| in_round(t, r - 1)),
                "round {r} waits on round {}",
                r - 1
            );
        }
    }

    /// The plan of every comm task, in task order.
    fn comm_plans(s: &Schedule) -> Vec<&Rc<CommPlan>> {
        s.tasks
            .iter()
            .filter_map(|t| match &t.body {
                TaskBody::Comm { plan, .. } => Some(plan),
                TaskBody::Compute { .. } => None,
            })
            .collect()
    }

    #[test]
    fn streaming_windows_share_one_stream_in_plan() {
        let m = DnnModel::gpt3();
        let (s, _) = build(&m, m.default_strategy, FabricConfig::FredD);
        let stream_ins: Vec<&Rc<CommPlan>> = s
            .tasks
            .iter()
            .filter_map(|t| match &t.body {
                TaskBody::Comm {
                    plan,
                    ctype: CommType::Streaming,
                    ..
                } if plan.label.ends_with("stream-in") => Some(plan),
                _ => None,
            })
            .collect();
        // 96 layers in windows of PP = 2, streamed in on both passes.
        assert_eq!(stream_ins.len(), 2 * 48);
        for plan in &stream_ins {
            assert!(Rc::ptr_eq(plan, stream_ins[0]));
        }
    }

    #[test]
    fn schedule_clone_shares_every_plan() {
        let m = DnnModel::transformer_17b();
        let (s, _) = build(&m, m.default_strategy, FabricConfig::BaselineMesh);
        let copy = s.clone();
        assert!(Rc::ptr_eq(&s.tasks, &copy.tasks));
        assert!(Rc::ptr_eq(&s.worker_chains, &copy.worker_chains));
        assert!(Rc::ptr_eq(&s.dependents, &copy.dependents));
        let (a, b) = (comm_plans(&s), comm_plans(&copy));
        assert_eq!(a.len(), s.comm_task_count());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!(Rc::ptr_eq(x, y));
        }
    }

    #[test]
    fn plan_sharing_is_exact_and_complete() {
        // (model, comm tasks, distinct plans), the same on every
        // fabric. One allocation per distinct value: a key too fine
        // would leave equal plans unshared, one too coarse would merge
        // different plans and lower the count.
        let cases = [
            (DnnModel::gpt3(), 3_025, 18),
            (DnnModel::transformer_17b(), 157, 25),
            (DnnModel::transformer_1t(), 361, 3),
            (DnnModel::resnet152(), 3, 3),
        ];
        for config in [
            FabricConfig::BaselineMesh,
            FabricConfig::FredC,
            FabricConfig::FredD,
        ] {
            let backend = FabricBackend::new(config);
            for (m, tasks, distinct) in &cases {
                let strategy = m.default_strategy;
                let placement = Placement::new(strategy, PlacementPolicy::for_fabric(config));
                let params = ScheduleParams::paper_default(m, strategy);
                let s = build_schedule(m, strategy, &placement, &backend, params);
                let plans = comm_plans(&s);
                let mut allocations: Vec<&Rc<CommPlan>> = Vec::new();
                for plan in &plans {
                    if !allocations.iter().any(|a| Rc::ptr_eq(a, plan)) {
                        allocations.push(plan);
                    }
                }
                let mut values: Vec<&CommPlan> = Vec::new();
                for plan in &allocations {
                    if !values.iter().any(|v| *v == plan.as_ref()) {
                        values.push(plan);
                    }
                }
                let got = (plans.len(), allocations.len(), values.len());
                assert_eq!(
                    got,
                    (*tasks, *distinct, *distinct),
                    "{} on {config:?}",
                    m.name
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn oversize_strategy_rejected() {
        let m = DnnModel::transformer_17b();
        let _ = build(&m, Strategy3D::new(7, 3, 1), FabricConfig::FredD);
    }
}
