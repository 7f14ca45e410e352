//! Resumable schedule execution against a shared network.
//!
//! [`ScheduleExecutor`] is the trainer's event loop factored into a
//! state machine that does not own the clock: it reacts to flow
//! completions and due compute finishes pushed in by a driver, and
//! stages/injects its own flows into a [`FlowNetwork`] it is handed by
//! reference. Two drivers exist:
//!
//! * the trainer ([`crate::trainer::run_iteration`] and
//!   [`crate::trainer::simulate_faulted`]) — one executor, one private
//!   network: the classic single-job iteration, a thin loop around the
//!   executor;
//! * `fred-cluster`'s scheduler — many executors interleaved through
//!   one shared network under a single global clock, each namespaced by
//!   a disjoint correlation-tag range and a tenant rank.
//!
//! Both drivers share one contract per event instant: advance the
//! clock, fire due faults ([`fred_sim::fault::FaultPlan::fire_due`]),
//! route completions, flush staged flows, release due computes, settle.
//! Every batch of flows — staged phases and fault evictees alike —
//! reaches the network through [`repair_and_inject`].
//!
//! Namespacing: flows are tagged `tag_base + task_index + 1` (tag 0
//! stays the "foreign flow" sentinel) and carry the executor's tenant
//! rank, so the allocator isolates tenants and completions route back
//! to the owning executor by tag range alone.
//!
//! The task graph, reverse edges included, is the shared [`Schedule`]'s;
//! an executor holds only progress. A capture ([`ExecState`]) is taken
//! between event instants, and [`ScheduleExecutor::new`] is the restore
//! of empty progress: both derive each task's unfinished dependencies,
//! the finished count and the ready tasks from what has started and
//! finished.

use std::collections::BTreeMap;
use std::rc::Rc;

use fred_core::codec::{SnapshotError, Value};
use fred_core::snapshot::{field, Snap};
use fred_sim::events::EventQueue;
use fred_sim::flow::FlowSpec;
use fred_sim::netsim::{track_of, FlowNetwork};
use fred_sim::time::Time;
use fred_sim::topology::LinkId;
use fred_telemetry::event::{next_span_id, TraceEvent, Track};
use fred_telemetry::sink::TraceSink;

use crate::backend::FabricBackend;
use crate::error::{PendingTask, TrainError};
use crate::schedule::{Schedule, TaskBody, TaskId};

/// Per-task timing from one simulated iteration.
#[derive(Debug, Clone)]
pub struct IterationTiming {
    /// Start time per task.
    pub start: Vec<Time>,
    /// Finish time per task.
    pub finish: Vec<Time>,
    /// End-to-end iteration time.
    pub makespan: Time,
}

#[derive(Debug)]
struct CommState {
    phase: usize,
    outstanding: usize,
}

/// Maps a flow-completion tag back to the comm-task index. The trainer
/// tags flows with `task index + 1`; tag 0 is reserved for untagged
/// (foreign) flows and maps to no task.
pub fn comm_task_of_tag(tag: u64) -> Option<usize> {
    tag.checked_sub(1).map(|v| v as usize)
}

/// Injects `flows` into `net` as one batch (one solver delta), first
/// re-routing any that cross a failed link onto a surviving path
/// (fabric-aware when both endpoints are NPUs, generic BFS otherwise;
/// priority, tag and tenant are kept). A no-op for an empty batch, and
/// with no failed link the flows go in untouched — the zero-fault code
/// path stays bit-identical.
///
/// # Errors
///
/// [`TrainError::Unroutable`] if failures cut some flow's endpoints
/// apart, [`TrainError::Route`] if the network rejects the batch.
pub fn repair_and_inject(
    net: &mut FlowNetwork,
    backend: &FabricBackend,
    mut flows: Vec<FlowSpec>,
) -> Result<(), TrainError> {
    if flows.is_empty() {
        return Ok(());
    }
    if net.any_link_failed() {
        let blocked = |l: LinkId| net.is_link_failed(l);
        let topo = net.topology();
        for f in flows
            .iter_mut()
            .filter(|f| f.route.iter().any(|&l| blocked(l)))
        {
            let src = topo.link(f.route[0]).src;
            let dst = topo.link(*f.route.last().expect("non-empty route")).dst;
            f.route = match (backend.npu_index(src), backend.npu_index(dst)) {
                (Some(a), Some(b)) => backend.npu_route_avoiding(a, b, blocked),
                _ => topo.shortest_path_avoiding(src, dst, blocked),
            }
            .ok_or(TrainError::Unroutable {
                task: comm_task_of_tag(f.tag).map(TaskId),
            })?;
        }
    }
    net.inject_batch(flows)?;
    Ok(())
}

/// Identity of one executor within a shared network: its tag namespace,
/// tenant rank and (optional) telemetry label prefix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecConfig {
    /// Flows are tagged `tag_base + task_index + 1`; drivers sharing a
    /// network give each executor a disjoint range of
    /// `schedule.tasks.len()` tags starting at `tag_base + 1`. Zero for
    /// single-job runs (the classic trainer tags).
    pub tag_base: u64,
    /// Tenant rank stamped on every flow (0 = highest precedence; see
    /// [`FlowSpec::tenant`]). Zero for single-job runs.
    pub tenant: u8,
    /// Telemetry span-label prefix (`"<prefix>/<label>"`), so per-job
    /// attribution stays readable in shared traces. `None` keeps the
    /// classic single-job labels byte-for-byte.
    pub label: Option<String>,
}

/// Captured executor progress: which tasks have started and finished,
/// and where each running one stands, as plain data, each fact once.
///
/// The schedule, the [`ExecConfig`] and the trace sink are
/// configuration: a restore is handed the same ones again. What follows
/// from the schedule and this progress is not captured: restore counts
/// each task's unfinished dependencies and the finished tasks, takes as
/// ready every task that has not started (it is neither done, in flight
/// nor queued) and whose dependencies have all finished, and numbers
/// the compute queue by position.
/// Captures are taken only between event instants, so no flow is
/// staged and no finished task awaits a settle. Telemetry span ids are
/// deliberately excluded: traces restart at the restore point, so tasks
/// already running resume without an open span (the dependency edge
/// emitter skips the zero sentinel).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecState {
    /// Start time per task (ZERO until started).
    pub start: Vec<Time>,
    /// Finish time per task (ZERO until finished).
    pub finish: Vec<Time>,
    /// Finished flag per task.
    pub done: Vec<bool>,
    /// In-flight comm tasks as `(task, next_phase, outstanding)`,
    /// sorted by task index. A comm task leaves it when it finishes.
    pub comm: Vec<(usize, usize, usize)>,
    /// Pending compute finishes `(at, task)`, in the order they
    /// release (see [`fred_sim::events::EventQueue::entries`]).
    pub compute_queue: Vec<(Time, usize)>,
}

/// The trainer's dependency-driven event loop as a resumable state
/// machine over an external clock. See the [module docs](self) for the
/// driver contract.
#[derive(Debug)]
pub struct ScheduleExecutor {
    schedule: Rc<Schedule>,
    cfg: ExecConfig,
    sink: Rc<dyn TraceSink>,
    tracing: bool,
    indegree: Vec<usize>,
    start: Vec<Time>,
    finish: Vec<Time>,
    done: Vec<bool>,
    comm: BTreeMap<usize, CommState>,
    compute_queue: EventQueue<usize>,
    completed: usize,
    // Span id per task, nonzero once the task has started under this
    // executor (telemetry only, empty untraced; the id outlives the
    // task so dependency edges can reference finished predecessors).
    span_ids: Vec<u64>,
    /// Tasks ready to start, popped back-to-front; between instants
    /// only a fresh executor has any.
    ready_stack: Vec<usize>,
    /// Tasks finished at the current instant, awaiting settle.
    finished_now: Vec<usize>,
    /// Flows staged by comm tasks at the current timestep, injected as
    /// one batch (one solver delta) by the next flush.
    staged: Vec<FlowSpec>,
}

impl ScheduleExecutor {
    /// Creates an executor with nothing started, so every
    /// dependency-free task is ready: the restore of empty progress.
    /// Nothing touches the network until the first
    /// [`ScheduleExecutor::settle`].
    pub fn new(schedule: Rc<Schedule>, cfg: ExecConfig, sink: Rc<dyn TraceSink>) -> Self {
        let n = schedule.tasks.len();
        let nothing_started = ExecState {
            start: vec![Time::ZERO; n],
            finish: vec![Time::ZERO; n],
            done: vec![false; n],
            comm: Vec::new(),
            compute_queue: Vec::new(),
        };
        Self::resume(schedule, cfg, sink, nothing_started)
    }

    /// Captures the executor's progress as plain data. Restoring with
    /// [`ScheduleExecutor::restore`] against the same schedule and
    /// config resumes bit-identically (modulo telemetry spans — see
    /// [`ExecState`]). A fresh executor's capture is valid too: its
    /// ready tasks follow from its progress.
    ///
    /// # Panics
    ///
    /// Panics with "executor captured mid-instant" if flows are staged
    /// or a finished task awaits a settle: between
    /// [`ScheduleExecutor::handle_completion`] or
    /// [`ScheduleExecutor::release_computes_due`] and the next
    /// [`ScheduleExecutor::settle`].
    pub fn snapshot(&self) -> ExecState {
        assert!(
            self.staged.is_empty() && self.finished_now.is_empty(),
            "executor captured mid-instant: settle before capturing"
        );
        ExecState {
            start: self.start.clone(),
            finish: self.finish.clone(),
            done: self.done.clone(),
            comm: self
                .comm
                .iter()
                .map(|(&i, s)| (i, s.phase, s.outstanding))
                .collect(),
            compute_queue: self.compute_queue.entries(),
        }
    }

    /// Rebuilds an executor from a [`ScheduleExecutor::snapshot`] and
    /// the same schedule and config it was captured against — the
    /// arguments [`ScheduleExecutor::new`] took. What the capture does
    /// not hold is derived as for a fresh executor (see [`ExecState`]).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] if the state does not pair with the
    /// schedule: a per-task vector of another length than the task
    /// count, a queued task out of range, or an in-flight comm entry
    /// naming no comm task.
    pub fn restore(
        schedule: Rc<Schedule>,
        cfg: ExecConfig,
        sink: Rc<dyn TraceSink>,
        state: ExecState,
    ) -> Result<Self, SnapshotError> {
        let n = schedule.tasks.len();
        let pairing = |what: String| Err(SnapshotError::Mismatch(what));
        for (name, len) in [
            ("start", state.start.len()),
            ("finish", state.finish.len()),
            ("done", state.done.len()),
        ] {
            if len != n {
                return pairing(format!(
                    ".{name}: {len} entries but the schedule has {n} tasks"
                ));
            }
        }
        if let Some(&(_, i)) = state.compute_queue.iter().find(|&&(_, i)| i >= n) {
            return pairing(format!("task {i} out of range ({n} tasks)"));
        }
        let is_comm = |i: usize| {
            schedule
                .tasks
                .get(i)
                .is_some_and(|t| matches!(t.body, TaskBody::Comm { .. }))
        };
        if let Some(&(i, ..)) = state.comm.iter().find(|&&(i, ..)| !is_comm(i)) {
            return pairing(format!(".comm: task {i} is no comm task of the schedule"));
        }
        Ok(Self::resume(schedule, cfg, sink, state))
    }

    /// The executor at `progress`, which pairs with `schedule`, with
    /// what [`ExecState`] leaves out derived from it. Ready tasks are
    /// listed in task order and popped back-to-front.
    fn resume(
        schedule: Rc<Schedule>,
        cfg: ExecConfig,
        sink: Rc<dyn TraceSink>,
        progress: ExecState,
    ) -> Self {
        let ExecState {
            start,
            finish,
            done,
            comm,
            compute_queue,
        } = progress;
        let n = schedule.tasks.len();
        let indegree: Vec<usize> = schedule
            .tasks
            .iter()
            .map(|t| t.deps.iter().filter(|d| !done[d.0]).count())
            .collect();
        // A task has started once it is in flight, queued or done.
        let mut started = done.clone();
        for i in comm.iter().map(|&(i, ..)| i) {
            started[i] = true;
        }
        for &(_, i) in &compute_queue {
            started[i] = true;
        }
        let ready_stack = (0..n)
            .filter(|&i| !started[i] && indegree[i] == 0)
            .collect();
        let completed = done.iter().filter(|&&d| d).count();
        let tracing = sink.enabled();
        ScheduleExecutor {
            schedule,
            cfg,
            sink,
            tracing,
            indegree,
            start,
            finish,
            done,
            comm: comm
                .into_iter()
                .map(|(i, phase, outstanding)| (i, CommState { phase, outstanding }))
                .collect(),
            compute_queue: EventQueue::from_entries(compute_queue),
            completed,
            span_ids: if tracing { vec![0; n] } else { Vec::new() },
            ready_stack,
            finished_now: Vec::new(),
            staged: Vec::new(),
        }
    }

    /// The schedule being executed.
    pub fn schedule(&self) -> &Rc<Schedule> {
        &self.schedule
    }

    /// Whether every task has finished.
    pub fn is_done(&self) -> bool {
        self.completed == self.schedule.tasks.len()
    }

    /// The first tag of this executor's namespace, less one: its flows
    /// are tagged `tag_base + task_index + 1`.
    pub fn tag_base(&self) -> u64 {
        self.cfg.tag_base
    }

    /// Whether `tag` belongs to this executor's namespace.
    pub fn owns_tag(&self, tag: u64) -> bool {
        tag > self.cfg.tag_base && tag <= self.cfg.tag_base + self.schedule.tasks.len() as u64
    }

    /// One past the last tag this executor uses (`tag_base +
    /// task_count`); the next executor sharing the network starts its
    /// namespace here.
    pub fn tag_end(&self) -> u64 {
        self.cfg.tag_base + self.schedule.tasks.len() as u64
    }

    /// The earliest pending compute finish, if any.
    pub fn next_compute_time(&self) -> Option<Time> {
        self.compute_queue.peek_time()
    }

    /// Every unfinished task with its unfinished dependencies — the
    /// stall diagnostic payload.
    pub fn pending_tasks(&self) -> Vec<PendingTask> {
        (0..self.schedule.tasks.len())
            .filter(|&i| !self.done[i])
            .map(|i| PendingTask {
                id: TaskId(i),
                blocked_on: self.schedule.tasks[i]
                    .deps
                    .iter()
                    .copied()
                    .filter(|d| !self.done[d.0])
                    .collect(),
            })
            .collect()
    }

    /// The stall error for the current state (no pending events but
    /// unfinished tasks).
    pub fn stalled(&self) -> TrainError {
        TrainError::Stalled {
            completed: self.completed,
            total: self.schedule.tasks.len(),
            pending: self.pending_tasks(),
        }
    }

    /// Per-task timing collected so far. Meaningful once
    /// [`ScheduleExecutor::is_done`]; times are absolute on the shared
    /// clock (a cluster driver subtracts the job's start).
    pub fn timing(&self) -> IterationTiming {
        let makespan = self.finish.iter().copied().max().unwrap_or(Time::ZERO);
        IterationTiming {
            start: self.start.clone(),
            finish: self.finish.clone(),
            makespan,
        }
    }

    /// The instant the last task finished (absolute).
    pub fn completion_time(&self) -> Time {
        self.finish.iter().copied().max().unwrap_or(Time::ZERO)
    }

    /// Routes a flow completion with `tag` back into the owning comm
    /// task; the task's next phase is staged when its last outstanding
    /// transfer lands. Tags at or below `tag_base` (foreign/sentinel)
    /// are ignored.
    ///
    /// # Errors
    ///
    /// [`TrainError::UnknownCommTag`] if the tag is in this executor's
    /// namespace arithmetic but maps to no in-flight comm task with an
    /// outstanding transfer.
    pub fn handle_completion(&mut self, tag: u64) -> Result<(), TrainError> {
        let Some(i) = tag
            .checked_sub(self.cfg.tag_base)
            .and_then(comm_task_of_tag)
        else {
            return Ok(());
        };
        let Some(state) = self.comm.get_mut(&i).filter(|s| s.outstanding > 0) else {
            return Err(TrainError::UnknownCommTag { tag });
        };
        state.outstanding -= 1;
        if state.outstanding == 0 && self.advance_comm(i) {
            self.finished_now.push(i);
        }
        Ok(())
    }

    /// Moves every compute task due exactly at `now` into the
    /// finished-now set; a following [`ScheduleExecutor::settle`]
    /// completes them.
    pub fn release_computes_due(&mut self, now: Time) {
        while self.compute_queue.peek_time() == Some(now) {
            let ev = self.compute_queue.pop().expect("peeked");
            self.finished_now.push(ev.event);
        }
    }

    /// Releases staged flows into `net` as one batch, re-planned around
    /// failed links first when faults are active. No-op when nothing is
    /// staged.
    ///
    /// # Errors
    ///
    /// As [`repair_and_inject`].
    pub fn flush_staged(
        &mut self,
        net: &mut FlowNetwork,
        backend: &FabricBackend,
    ) -> Result<(), TrainError> {
        if !self.staged.is_empty() {
            let _prof = fred_telemetry::prof::scope("exec.flush_staged");
            repair_and_inject(net, backend, std::mem::take(&mut self.staged))?;
        }
        Ok(())
    }

    /// Runs the zero-time cascade at the current instant: starts every
    /// ready task, injects staged flows, settles finished tasks and the
    /// tasks those releases make ready, until the state is quiescent and
    /// only the clock can make progress. This is the classic trainer's
    /// inner loop verbatim — same network-operation order, so solo runs
    /// through a driver are bit-identical.
    ///
    /// # Errors
    ///
    /// Propagates staged-flow injection failures (see
    /// [`ScheduleExecutor::flush_staged`]).
    pub fn settle(
        &mut self,
        net: &mut FlowNetwork,
        backend: &FabricBackend,
    ) -> Result<(), TrainError> {
        loop {
            // Start everything that became ready at the current time.
            while let Some(i) = self.ready_stack.pop() {
                self.start_task(i, net);
            }
            // Release every flow staged by the ready tasks as one batch.
            self.flush_staged(net, backend)?;
            // Settle zero-duration completions before advancing time.
            if self.finished_now.is_empty() {
                return Ok(());
            }
            let mut finished = std::mem::take(&mut self.finished_now);
            for i in finished.drain(..) {
                self.finish_task(i, net);
            }
            self.finished_now = finished;
        }
    }

    /// Stages the next non-empty phase of comm task `i`; returns true
    /// if the task is finished instead (no phases left). All flows
    /// staged at one timestep are released with a single `inject_batch`
    /// (one solver delta).
    fn advance_comm(&mut self, i: usize) -> bool {
        let schedule = self.schedule.clone();
        let TaskBody::Comm { plan, ctype } = &schedule.tasks[i].body else {
            unreachable!("advance_comm on a compute task")
        };
        let state = self.comm.get_mut(&i).expect("comm state exists");
        while state.phase < plan.phases.len() {
            let transfers = &plan.phases[state.phase].transfers;
            state.phase += 1;
            if !transfers.is_empty() {
                // The tag is the task index shifted by one past the
                // namespace base: tag 0 stays the "no owner" sentinel.
                let tag = self.cfg.tag_base + i as u64 + 1;
                self.staged.extend(transfers.iter().map(|t| {
                    FlowSpec::new(t.route.clone(), t.bytes)
                        .with_priority(ctype.priority())
                        .with_tag(tag)
                        .with_tenant(self.cfg.tenant)
                }));
                state.outstanding = transfers.len();
                return false;
            }
        }
        true
    }

    /// Starts task `i` at the network's current time.
    fn start_task(&mut self, i: usize, net: &FlowNetwork) {
        let t = net.now();
        self.start[i] = t;
        if self.tracing {
            self.emit_phase_begin(i, t);
        }
        let schedule = self.schedule.clone();
        match &schedule.tasks[i].body {
            TaskBody::Compute { duration, .. } => {
                self.compute_queue.schedule(t + *duration, i);
            }
            TaskBody::Comm { .. } => {
                self.comm.insert(
                    i,
                    CommState {
                        phase: 0,
                        outstanding: 0,
                    },
                );
                if self.advance_comm(i) {
                    self.finished_now.push(i);
                }
            }
        }
    }

    /// Marks task `i` finished at the current time, drops its comm
    /// cursor and releases its dependents.
    fn finish_task(&mut self, i: usize, net: &FlowNetwork) {
        if self.done[i] {
            return;
        }
        self.done[i] = true;
        self.finish[i] = net.now();
        self.completed += 1;
        self.comm.remove(&i);
        if let Some(&span) = self.span_ids.get(i).filter(|&&span| span != 0) {
            let track = match &self.schedule.tasks[i].body {
                TaskBody::Compute { .. } => Track::Compute,
                TaskBody::Comm { ctype, .. } => track_of(ctype.priority()),
            };
            self.sink.record(TraceEvent::PhaseEnd {
                t: net.now().as_secs(),
                track,
                span,
            });
        }
        for &dep in &self.schedule.dependents[i] {
            self.indegree[dep.0] -= 1;
            if self.indegree[dep.0] == 0 {
                self.ready_stack.push(dep.0);
            }
        }
    }

    /// Telemetry for a task start: its span, correlation tag and
    /// happens-before edges.
    fn emit_phase_begin(&mut self, i: usize, t: Time) {
        let (track, label, bytes, npus) = match &self.schedule.tasks[i].body {
            TaskBody::Compute { worker, .. } => {
                (Track::Compute, format!("compute w{}", worker.0), 0.0, 0)
            }
            TaskBody::Comm { plan, ctype, .. } => {
                let mut srcs: Vec<usize> = plan
                    .phases
                    .iter()
                    .flat_map(|p| p.transfers.iter().map(|tr| tr.src))
                    .collect();
                srcs.sort_unstable();
                srcs.dedup();
                (
                    track_of(ctype.priority()),
                    plan.label.clone(),
                    plan.total_bytes(),
                    srcs.len() as u32,
                )
            }
        };
        let label = match &self.cfg.label {
            Some(prefix) => format!("{prefix}/{label}"),
            None => label,
        };
        let span = next_span_id();
        self.span_ids[i] = span;
        // Comm spans claim their flows through the namespaced
        // correlation tag (see advance_comm).
        let tag = match &self.schedule.tasks[i].body {
            TaskBody::Comm { .. } => self.cfg.tag_base + i as u64 + 1,
            TaskBody::Compute { .. } => 0,
        };
        self.sink.record(TraceEvent::PhaseBegin {
            t: t.as_secs(),
            track,
            span,
            label: label.into(),
            bytes,
            npus,
            tag,
        });
        // The schedule's dependency edges become the trace's
        // happens-before DAG.
        for d in &self.schedule.tasks[i].deps {
            let pred = self.span_ids[d.0];
            if pred != 0 {
                self.sink.record(TraceEvent::SpanDep {
                    t: t.as_secs(),
                    span,
                    pred,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot serialization.
// ---------------------------------------------------------------------

impl Snap for ExecState {
    fn encode(&self) -> Value {
        Value::Obj(vec![
            ("start".into(), self.start.encode()),
            ("finish".into(), self.finish.encode()),
            ("done".into(), self.done.encode()),
            ("comm".into(), self.comm.encode()),
            ("compute_queue".into(), self.compute_queue.encode()),
        ])
    }

    fn decode(v: &Value) -> Result<ExecState, SnapshotError> {
        Ok(ExecState {
            start: field(v, "start")?,
            finish: field(v, "finish")?,
            done: field(v, "done")?,
            comm: field(v, "comm")?,
            compute_queue: field(v, "compute_queue")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> ExecState {
        ExecState {
            start: vec![Time::ZERO, Time::from_secs(0.5), Time::ZERO],
            finish: vec![Time::from_secs(0.25), Time::ZERO, Time::ZERO],
            done: vec![true, false, false],
            comm: vec![(1, 2, 3)],
            compute_queue: vec![(Time::from_secs(1.5), 2)],
        }
    }

    #[test]
    fn exec_state_round_trips_through_value() {
        let state = sample_state();
        let v = state.encode();
        assert_eq!(ExecState::decode(&v).unwrap(), state);
        // And through the binary codec.
        let bytes = fred_core::codec::to_binary(&v);
        let back = fred_core::codec::from_binary(&bytes).unwrap();
        assert_eq!(ExecState::decode(&back).unwrap(), state);
    }

    #[test]
    fn completion_with_nothing_outstanding_is_an_unknown_tag() {
        use crate::model::DnnModel;
        use crate::schedule::{build_schedule, ScheduleParams};
        use fred_core::params::FabricConfig;
        use fred_core::placement::{Placement, PlacementPolicy};
        use fred_telemetry::sink::NullSink;
        let model = DnnModel::resnet152();
        let strategy = model.default_strategy;
        let backend = FabricBackend::new(FabricConfig::FredD);
        let placement = Placement::new(strategy, PlacementPolicy::MpPpDp);
        let params = ScheduleParams::paper_default(&model, strategy);
        let schedule = Rc::new(build_schedule(
            &model, strategy, &placement, &backend, params,
        ));
        let i = schedule
            .tasks
            .iter()
            .position(|t| matches!(t.body, TaskBody::Comm { .. }))
            .expect("a comm task");
        let fresh =
            ScheduleExecutor::new(schedule.clone(), ExecConfig::default(), Rc::new(NullSink));
        // A capture claiming the comm task is in flight with every
        // transfer already landed.
        let mut state = fresh.snapshot();
        state.comm = vec![(i, 1, 0)];
        let mut exec =
            ScheduleExecutor::restore(schedule, ExecConfig::default(), Rc::new(NullSink), state)
                .unwrap();
        let tag = i as u64 + 1;
        assert_eq!(
            exec.handle_completion(tag),
            Err(TrainError::UnknownCommTag { tag })
        );
    }

    /// ResNet-152 pipelined and data-parallel on Fred-D: a stage's
    /// compute waits on its previous microbatch and on the stage before
    /// it, a gradient reduce-scatter on every replica.
    fn pipelined_resnet() -> (FabricBackend, Rc<Schedule>) {
        use crate::model::DnnModel;
        use crate::schedule::{build_schedule, ScheduleParams};
        use fred_core::params::FabricConfig;
        use fred_core::placement::{Placement, PlacementPolicy, Strategy3D};
        let model = DnnModel::resnet152();
        let strategy = Strategy3D::new(1, 2, 2);
        let fabric = FabricConfig::FredD;
        let backend = FabricBackend::new(fabric);
        let placement = Placement::new(strategy, PlacementPolicy::for_fabric(fabric));
        let params = ScheduleParams::sweep_default(&model, strategy);
        let schedule = build_schedule(&model, strategy, &placement, &backend, params);
        (backend, Rc::new(schedule))
    }

    #[test]
    fn restoring_at_every_event_instant_recounts_partly_finished_dependencies() {
        use fred_telemetry::sink::NullSink;
        let (backend, schedule) = pipelined_resnet();
        let cfg = ExecConfig::default;
        // Finish times, and how many captures held a task with both
        // finished and unfinished dependencies.
        let run = |restore_each_instant: bool| {
            let mut net = FlowNetwork::new(backend.topology());
            let mut ex = ScheduleExecutor::new(schedule.clone(), cfg(), Rc::new(NullSink));
            let mut partly_finished = 0;
            ex.settle(&mut net, &backend).unwrap();
            while !ex.is_done() {
                if restore_each_instant {
                    let state = ex.snapshot();
                    // Progress only: a comm task leaves its cursor
                    // behind when it finishes.
                    assert!(
                        state.comm.iter().all(|&(i, ..)| !state.done[i]),
                        "a finished comm task in {:?}",
                        state.comm
                    );
                    let done = |d: &TaskId| state.done[d.0];
                    partly_finished += usize::from(
                        schedule
                            .tasks
                            .iter()
                            .any(|t| t.deps.iter().any(done) && !t.deps.iter().all(done)),
                    );
                    ex = ScheduleExecutor::restore(
                        schedule.clone(),
                        cfg(),
                        Rc::new(NullSink),
                        state,
                    )
                    .unwrap();
                    let topo = backend.topology();
                    net = FlowNetwork::restore(topo, Rc::new(NullSink), net.snapshot()).unwrap();
                }
                let next = [ex.next_compute_time(), net.next_event()]
                    .into_iter()
                    .flatten()
                    .min()
                    .expect("the run stalled");
                net.advance_to(next);
                for c in net.drain_completed() {
                    ex.handle_completion(c.tag).unwrap();
                }
                ex.flush_staged(&mut net, &backend).unwrap();
                ex.release_computes_due(next);
                ex.settle(&mut net, &backend).unwrap();
            }
            let finish: Vec<u64> = ex
                .timing()
                .finish
                .iter()
                .map(|t| t.as_secs().to_bits())
                .collect();
            (finish, partly_finished)
        };
        let (reference, _) = run(false);
        let (resumed, partly_finished) = run(true);
        assert!(
            partly_finished > 0,
            "no capture was mid-way through a task's dependencies"
        );
        assert_eq!(resumed, reference);
    }

    #[test]
    #[should_panic(expected = "executor captured mid-instant")]
    fn capturing_between_a_completion_and_its_settle_panics() {
        use fred_telemetry::sink::NullSink;
        let (backend, schedule) = pipelined_resnet();
        let mut net = FlowNetwork::new(backend.topology());
        let mut ex = ScheduleExecutor::new(schedule, ExecConfig::default(), Rc::new(NullSink));
        ex.settle(&mut net, &backend).unwrap();
        // Up to the first completion that ends a phase or a task, whose
        // next phase or dependents the settle would start.
        while ex.staged.is_empty() && ex.finished_now.is_empty() {
            let next = net.next_event().expect("the input load is in flight");
            net.advance_to(next);
            for c in net.drain_completed() {
                ex.handle_completion(c.tag).unwrap();
            }
        }
        ex.snapshot();
    }

    #[test]
    fn repair_and_inject_rehangs_an_in_network_tree_around_a_dead_trunk() {
        use fred_core::params::FabricConfig;
        use fred_sim::flow::Priority;
        let backend = FabricBackend::new(FabricConfig::FredD);
        let FabricBackend::Fred(f) = &backend else {
            panic!("Fred-D is a tree")
        };
        let group: Vec<usize> = (0..f.npu_count()).collect();
        let flows: Vec<FlowSpec> = f
            .in_network_all_reduce(&group, 1e9)
            .into_iter()
            .map(|(route, bytes)| {
                FlowSpec::new(route, bytes)
                    .with_priority(Priority::Dp)
                    .with_tag(3)
                    .with_tenant(2)
            })
            .collect();
        // The L1–L2 trunk of the third L1 switch, which serves NPU 8.
        let dead = f.npu_route(8, 0)[1];
        let mut net = FlowNetwork::new(backend.topology());
        assert!(net.fail_link(dead).is_empty());
        repair_and_inject(&mut net, &backend, flows.clone()).unwrap();
        // A fresh network fills its slab in injection order.
        let state = net.snapshot();
        assert_eq!(state.flows.len(), flows.len());
        let topo = net.topology();
        let mut moved = 0;
        for ((spec, live), solver) in flows.iter().zip(&state.flows).zip(&state.solver.flows) {
            let (live, solver) = (live.as_ref().unwrap(), solver.as_ref().unwrap());
            let route: Vec<LinkId> = solver.links.iter().map(|&l| LinkId(l)).collect();
            assert!(!route.contains(&dead));
            // Each leg keeps its endpoints, tag and tenant.
            assert_eq!(
                topo.validate_route(&route).unwrap(),
                topo.validate_route(&spec.route).unwrap()
            );
            assert_eq!((live.tag, live.tenant), (3, 2));
            moved += usize::from(route != spec.route);
        }
        // Exactly one leg (the dead trunk's) was re-routed.
        assert_eq!(moved, 1);
        let done = net.run_to_completion();
        assert_eq!(done.len(), flows.len());
        assert!(done.iter().all(|c| c.tag == 3));
    }
}
