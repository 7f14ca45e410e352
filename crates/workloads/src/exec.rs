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

use std::collections::BTreeMap;
use std::rc::Rc;

use fred_sim::events::EventQueue;
use fred_sim::flow::FlowSpec;
use fred_sim::netsim::FlowNetwork;
use fred_sim::time::Time;
use fred_sim::topology::LinkId;
use fred_telemetry::event::{next_span_id, TraceEvent, Track};
use fred_telemetry::sink::TraceSink;

use crate::backend::FabricBackend;
use crate::error::{PendingTask, TrainError};
use crate::report::CommType;
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

/// Maps an exposure type to its telemetry display track.
fn track_of_comm(ctype: CommType) -> Track {
    match ctype {
        CommType::Mp => Track::Mp,
        CommType::Pp => Track::Pp,
        CommType::Dp => Track::Dp,
        CommType::InputLoad | CommType::Streaming => Track::Bulk,
    }
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

/// Captured executor progress: everything [`ScheduleExecutor`] mutates
/// while running, as plain data.
///
/// The schedule itself, the trace sink and the derived `dependents`
/// adjacency are configuration — a restore is handed the same schedule
/// and rebuilds them. Telemetry span bookkeeping (`spans`/`span_ids`)
/// is deliberately excluded: traces restart at the restore point, so
/// tasks already running resume without an open span (the dependency
/// edge emitter skips the zero sentinel).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecState {
    /// The executor's namespace identity.
    pub cfg: ExecConfig,
    /// Remaining unfinished-dependency count per task.
    pub indegree: Vec<usize>,
    /// Start time per task (ZERO until started).
    pub start: Vec<Time>,
    /// Finish time per task (ZERO until finished).
    pub finish: Vec<Time>,
    /// Finished flag per task.
    pub done: Vec<bool>,
    /// In-flight comm tasks as `(task, next_phase, outstanding)`,
    /// sorted by task index.
    pub comm: Vec<(usize, usize, usize)>,
    /// Pending compute finishes (see
    /// [`fred_sim::events::EventQueue::entries`]).
    pub compute_queue: Vec<(Time, u64, usize)>,
    /// The compute queue's next tie-break sequence number.
    pub compute_next_seq: u64,
    /// Tasks finished so far.
    pub completed: usize,
    /// Tasks ready to start (popped back-to-front).
    pub ready_stack: Vec<usize>,
    /// Tasks that finished at the current instant, awaiting settle.
    pub finished_now: Vec<usize>,
    /// Flows staged but not yet injected.
    pub staged: Vec<FlowSpec>,
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
    dependents: Vec<Vec<TaskId>>,
    start: Vec<Time>,
    finish: Vec<Time>,
    done: Vec<bool>,
    comm: BTreeMap<usize, CommState>,
    compute_queue: EventQueue<usize>,
    completed: usize,
    // Open span per running task / persistent span id per task
    // (telemetry only; the id survives PhaseEnd so dependency edges can
    // reference predecessors that already finished).
    spans: Vec<Option<u64>>,
    span_ids: Vec<u64>,
    ready_stack: Vec<usize>,
    finished_now: Vec<usize>,
    /// Flows staged by comm tasks at the current timestep, injected as
    /// one batch (one solver delta) by the next flush.
    staged: Vec<FlowSpec>,
}

impl ScheduleExecutor {
    /// Creates an executor with every dependency-free task ready to
    /// start. Nothing touches the network until the first
    /// [`ScheduleExecutor::settle`].
    pub fn new(schedule: Rc<Schedule>, cfg: ExecConfig, sink: Rc<dyn TraceSink>) -> Self {
        let n = schedule.tasks.len();
        let indegree: Vec<usize> = schedule.tasks.iter().map(|t| t.deps.len()).collect();
        let mut dependents: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for (i, t) in schedule.tasks.iter().enumerate() {
            for d in &t.deps {
                dependents[d.0].push(TaskId(i));
            }
        }
        // Tasks with no dependencies start in schedule order; the stack
        // pops them back-to-front exactly like the classic trainer.
        let ready_stack: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        for &i in &ready_stack {
            debug_assert_eq!(indegree[i], 0);
        }
        let tracing = sink.enabled();
        ScheduleExecutor {
            schedule,
            cfg,
            sink,
            tracing,
            indegree,
            dependents,
            start: vec![Time::ZERO; n],
            finish: vec![Time::ZERO; n],
            done: vec![false; n],
            comm: BTreeMap::new(),
            compute_queue: EventQueue::new(),
            completed: 0,
            spans: vec![None; n],
            span_ids: vec![0; n],
            ready_stack,
            finished_now: Vec::new(),
            staged: Vec::new(),
        }
    }

    /// Captures every piece of mutable executor state as plain data.
    /// Restoring with [`ScheduleExecutor::restore`] against the same
    /// schedule resumes bit-identically (modulo telemetry spans — see
    /// [`ExecState`]).
    pub fn snapshot(&self) -> ExecState {
        ExecState {
            cfg: self.cfg.clone(),
            indegree: self.indegree.clone(),
            start: self.start.clone(),
            finish: self.finish.clone(),
            done: self.done.clone(),
            comm: self
                .comm
                .iter()
                .map(|(&i, s)| (i, s.phase, s.outstanding))
                .collect(),
            compute_queue: self.compute_queue.entries(),
            compute_next_seq: self.compute_queue.next_seq(),
            completed: self.completed,
            ready_stack: self.ready_stack.clone(),
            finished_now: self.finished_now.clone(),
            staged: self.staged.clone(),
        }
    }

    /// Rebuilds an executor from a [`ScheduleExecutor::snapshot`] and
    /// the same schedule it was captured against.
    ///
    /// # Panics
    ///
    /// If the state's per-task vectors do not match the schedule's task
    /// count or reference out-of-range tasks — a snapshot/schedule
    /// pairing error, not file corruption (which the codec layer
    /// reports as typed errors before state structs are ever built).
    pub fn restore(schedule: Rc<Schedule>, sink: Rc<dyn TraceSink>, state: ExecState) -> Self {
        let n = schedule.tasks.len();
        assert_eq!(state.indegree.len(), n, "indegree/task-count mismatch");
        assert_eq!(state.start.len(), n, "start/task-count mismatch");
        assert_eq!(state.finish.len(), n, "finish/task-count mismatch");
        assert_eq!(state.done.len(), n, "done/task-count mismatch");
        let mut dependents: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for (i, t) in schedule.tasks.iter().enumerate() {
            for d in &t.deps {
                dependents[d.0].push(TaskId(i));
            }
        }
        let mut comm = BTreeMap::new();
        for &(i, phase, outstanding) in &state.comm {
            assert!(i < n, "comm task {i} out of range");
            comm.insert(i, CommState { phase, outstanding });
        }
        for &i in state.ready_stack.iter().chain(&state.finished_now) {
            assert!(i < n, "task {i} out of range");
        }
        let tracing = sink.enabled();
        ScheduleExecutor {
            schedule,
            cfg: state.cfg,
            sink,
            tracing,
            indegree: state.indegree,
            dependents,
            start: state.start,
            finish: state.finish,
            done: state.done,
            comm,
            compute_queue: EventQueue::from_entries(state.compute_queue, state.compute_next_seq),
            completed: state.completed,
            spans: vec![None; n],
            span_ids: vec![0; n],
            ready_stack: state.ready_stack,
            finished_now: state.finished_now,
            staged: state.staged,
        }
    }

    /// The schedule being executed.
    pub fn schedule(&self) -> &Rc<Schedule> {
        &self.schedule
    }

    /// Tasks finished so far.
    pub fn completed_count(&self) -> usize {
        self.completed
    }

    /// Total tasks in the schedule.
    pub fn total_tasks(&self) -> usize {
        self.schedule.tasks.len()
    }

    /// Whether every task has finished.
    pub fn is_done(&self) -> bool {
        self.completed == self.schedule.tasks.len()
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
    /// namespace arithmetic but maps to no in-flight comm task.
    pub fn handle_completion(&mut self, tag: u64) -> Result<(), TrainError> {
        let Some(i) = tag
            .checked_sub(self.cfg.tag_base)
            .and_then(comm_task_of_tag)
        else {
            return Ok(());
        };
        let Some(state) = self.comm.get_mut(&i) else {
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
        let TaskBody::Comm { plan, priority, .. } = &schedule.tasks[i].body else {
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
                        .with_priority(*priority)
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

    /// Marks task `i` finished at the current time and releases its
    /// dependents.
    fn finish_task(&mut self, i: usize, net: &FlowNetwork) {
        if self.done[i] {
            return;
        }
        self.done[i] = true;
        self.finish[i] = net.now();
        self.completed += 1;
        if let Some(span) = self.spans[i].take() {
            let track = match &self.schedule.tasks[i].body {
                TaskBody::Compute { .. } => Track::Compute,
                TaskBody::Comm { ctype, .. } => track_of_comm(*ctype),
            };
            self.sink.record(TraceEvent::PhaseEnd {
                t: net.now().as_secs(),
                track,
                span,
            });
        }
        let deps = std::mem::take(&mut self.dependents[i]);
        for &dep in &deps {
            self.indegree[dep.0] -= 1;
            if self.indegree[dep.0] == 0 {
                self.ready_stack.push(dep.0);
            }
        }
        self.dependents[i] = deps;
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
                    track_of_comm(*ctype),
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
        self.spans[i] = Some(span);
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

use fred_core::codec::{SnapshotError, Value};
use fred_core::snapshot::{
    arr_of, bools, bools_of, field, flow_spec_from_value, flow_spec_to_value, tenant_of, time_of,
    u64_of, usize_of, usizes, usizes_of, v_time, v_u64,
};

impl ExecState {
    /// Encodes the state for the shared snapshot codec.
    pub fn to_value(&self) -> Value {
        let comm = Value::Arr(
            self.comm
                .iter()
                .map(|&(i, phase, outstanding)| {
                    Value::Arr(vec![
                        v_u64(i as u64),
                        v_u64(phase as u64),
                        v_u64(outstanding as u64),
                    ])
                })
                .collect(),
        );
        let queue = Value::Arr(
            self.compute_queue
                .iter()
                .map(|&(at, seq, task)| {
                    Value::Arr(vec![v_time(at), v_u64(seq), v_u64(task as u64)])
                })
                .collect(),
        );
        Value::Obj(vec![
            ("tag_base".into(), v_u64(self.cfg.tag_base)),
            ("tenant".into(), v_u64(u64::from(self.cfg.tenant))),
            (
                "label".into(),
                match &self.cfg.label {
                    Some(l) => Value::Str(l.clone()),
                    None => Value::Null,
                },
            ),
            ("indegree".into(), usizes(&self.indegree)),
            (
                "start".into(),
                Value::Arr(self.start.iter().map(|&t| v_time(t)).collect()),
            ),
            (
                "finish".into(),
                Value::Arr(self.finish.iter().map(|&t| v_time(t)).collect()),
            ),
            ("done".into(), bools(&self.done)),
            ("comm".into(), comm),
            ("compute_queue".into(), queue),
            ("compute_next_seq".into(), v_u64(self.compute_next_seq)),
            ("completed".into(), v_u64(self.completed as u64)),
            ("ready_stack".into(), usizes(&self.ready_stack)),
            ("finished_now".into(), usizes(&self.finished_now)),
            (
                "staged".into(),
                Value::Arr(self.staged.iter().map(flow_spec_to_value).collect()),
            ),
        ])
    }

    /// Decodes [`ExecState::to_value`] with typed errors on any shape
    /// mismatch.
    pub fn from_value(v: &Value) -> Result<ExecState, SnapshotError> {
        let ctx = "exec";
        let comm = arr_of(field(v, "comm", ctx)?, ctx)?
            .iter()
            .map(|e| {
                let e = arr_of(e, "exec.comm")?;
                if e.len() != 3 {
                    return Err(SnapshotError::Mismatch(
                        "exec.comm: expected 3 elements".into(),
                    ));
                }
                Ok((
                    usize_of(&e[0], "exec.comm.task")?,
                    usize_of(&e[1], "exec.comm.phase")?,
                    usize_of(&e[2], "exec.comm.outstanding")?,
                ))
            })
            .collect::<Result<Vec<_>, SnapshotError>>()?;
        let compute_queue = arr_of(field(v, "compute_queue", ctx)?, ctx)?
            .iter()
            .map(|e| {
                let e = arr_of(e, "exec.compute_queue")?;
                if e.len() != 3 {
                    return Err(SnapshotError::Mismatch(
                        "exec.compute_queue: expected 3 elements".into(),
                    ));
                }
                Ok((
                    time_of(&e[0], "exec.compute_queue.at")?,
                    u64_of(&e[1], "exec.compute_queue.seq")?,
                    usize_of(&e[2], "exec.compute_queue.task")?,
                ))
            })
            .collect::<Result<Vec<_>, SnapshotError>>()?;
        let staged = arr_of(field(v, "staged", ctx)?, ctx)?
            .iter()
            .map(|f| flow_spec_from_value(f, "exec.staged"))
            .collect::<Result<Vec<_>, SnapshotError>>()?;
        let label = match field(v, "label", ctx)? {
            Value::Null => None,
            Value::Str(s) => Some(s.clone()),
            other => {
                return Err(SnapshotError::Mismatch(format!(
                    "exec.label: expected string or null, found {other:?}"
                )))
            }
        };
        let time_vec = |key: &str| -> Result<Vec<Time>, SnapshotError> {
            arr_of(field(v, key, ctx)?, ctx)?
                .iter()
                .map(|t| time_of(t, key))
                .collect()
        };
        Ok(ExecState {
            cfg: ExecConfig {
                tag_base: u64_of(field(v, "tag_base", ctx)?, ctx)?,
                tenant: tenant_of(field(v, "tenant", ctx)?, ctx)?,
                label,
            },
            indegree: usizes_of(field(v, "indegree", ctx)?, ctx)?,
            start: time_vec("start")?,
            finish: time_vec("finish")?,
            done: bools_of(field(v, "done", ctx)?, ctx)?,
            comm,
            compute_queue,
            compute_next_seq: u64_of(field(v, "compute_next_seq", ctx)?, ctx)?,
            completed: usize_of(field(v, "completed", ctx)?, ctx)?,
            ready_stack: usizes_of(field(v, "ready_stack", ctx)?, ctx)?,
            finished_now: usizes_of(field(v, "finished_now", ctx)?, ctx)?,
            staged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> ExecState {
        ExecState {
            cfg: ExecConfig {
                tag_base: 64,
                tenant: 2,
                label: Some("job3".into()),
            },
            indegree: vec![0, 1, 2],
            start: vec![Time::ZERO, Time::from_secs(0.5), Time::ZERO],
            finish: vec![Time::from_secs(0.25), Time::ZERO, Time::ZERO],
            done: vec![true, false, false],
            comm: vec![(1, 2, 3)],
            compute_queue: vec![(Time::from_secs(1.5), 7, 2)],
            compute_next_seq: 8,
            completed: 1,
            ready_stack: vec![2],
            finished_now: vec![],
            staged: vec![FlowSpec::new(vec![LinkId(0), LinkId(3)], 1e9)
                .with_tag(66)
                .with_tenant(2)],
        }
    }

    #[test]
    fn exec_state_round_trips_through_value() {
        let state = sample_state();
        let v = state.to_value();
        assert_eq!(ExecState::from_value(&v).unwrap(), state);
        // And through the binary codec.
        let bytes = fred_core::codec::to_binary(&v);
        let back = fred_core::codec::from_binary(&bytes).unwrap();
        assert_eq!(ExecState::from_value(&back).unwrap(), state);
    }

    #[test]
    fn tenant_outside_the_class_space_is_rejected() {
        // 51 is one past the largest tenant whose classes fit a u8; 300
        // does not fit a u8 at all.
        for tenant in [51, 300] {
            let Value::Obj(mut fields) = sample_state().to_value() else {
                panic!("not an object")
            };
            for (key, v) in &mut fields {
                if key == "tenant" {
                    *v = v_u64(tenant);
                }
            }
            let got = ExecState::from_value(&Value::Obj(fields));
            assert!(matches!(got, Err(SnapshotError::Mismatch(_))), "{got:?}");
        }
    }
}
