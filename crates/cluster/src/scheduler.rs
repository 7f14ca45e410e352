//! The cluster scheduler: many jobs, one fabric, one clock.
//!
//! [`run_cluster`] runs per-job executors through one [`Stepper`], the
//! event loop the trainer runs one executor through, and wraps each of
//! its steps with admission, dispatch, preemption and retirement. Each
//! placed job gets a fresh correlation-tag range (completions route
//! back by tag alone) and a tenant rank equal to its [`JobClass`], so
//! the fair-share solver isolates classes in bandwidth: High traffic is
//! served strictly before Normal, Normal before Low, on every contended
//! link. Job starts and finishes are solver *deltas* (`inject_batch` /
//! completion drains) — the world is never re-solved from scratch.
//!
//! ## Dispatch and preemption
//!
//! Queued jobs wait in per-class FIFO queues. Dispatch walks classes
//! High→Low placing each queue's head until it no longer fits, then
//! lets lower classes backfill — a narrow Low job may start ahead of a
//! blocked wide High job (this favours utilization; the stranded
//! head's delay is visible in the p99 queueing metric). Each job takes
//! the leftmost free slot window wide enough. Preemption evicts
//! strictly-lower-class jobs from a slot window when the highest
//! blocked head cannot be placed any other way: victims lose their
//! in-flight iteration, return to the *front* of their class queue,
//! and restart from scratch on fresh tags.
//!
//! ## Determinism contract
//!
//! A cluster run is a pure function of its inputs: jobs are processed
//! in arrival order (submission order on ties), running executors in
//! start order, and every random choice lives in the seeded arrival
//! generator. A single High-class job arriving at time zero reproduces
//! [`fred_workloads::trainer::simulate`] *bit-identically*: same
//! placement base, same tag namespace, same tenant rank, same step.

use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::error::Error;
use std::fmt;
use std::rc::Rc;

use fred_core::codec::{SnapshotError, Value};
use fred_core::params::FabricConfig;
use fred_core::placement::{Placement, PlacementPolicy, Strategy3D};
use fred_core::snapshot::{field, Snap};
use fred_sim::netsim::{CoreState, FlowNetwork};
use fred_sim::time::Time;
use fred_telemetry::event::TraceEvent;
use fred_telemetry::sink::{NullSink, TraceSink};
use fred_workloads::backend::FabricBackend;
use fred_workloads::error::TrainError;
use fred_workloads::exec::{ExecConfig, ExecState, ScheduleExecutor, Stepper};
use fred_workloads::model::DnnModel;
use fred_workloads::schedule::{build_schedule, Schedule, ScheduleParams};
use fred_workloads::trainer::simulate;

use crate::job::{JobClass, JobSpec};
use crate::metrics::{ClusterReport, JobRecord};
use crate::placement::SlotMap;

/// The fabric a cluster runs on, and the compile context that every
/// clone of the config shares. Placement is first fit and preemption is
/// always on (module docs).
///
/// The context memoises the pure computations the cluster layer
/// repeats: the fabric of each [`FabricConfig`], each job's schedule
/// per (fabric, model, strategy, placement base, params), and each
/// solo reference makespan per (fabric, model, strategy, params).
/// [`ClusterConfig::new`] starts an empty one and builds nothing.
/// Clones share it, so a [`Cluster::restore`] through a clone of the
/// capturing cluster's config compiles nothing, and a DSE worker
/// builds its fabric once. A hit is the value a fresh computation
/// returns, bit for bit (DESIGN.md §9.6). The context holds `Rc`s,
/// so a `ClusterConfig` is not `Send`: make one per thread.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The fabric every job shares.
    pub fabric: FabricConfig,
    ctx: Rc<CompileContext>,
}

impl ClusterConfig {
    /// A config over `fabric` with an empty compile context.
    pub fn new(fabric: FabricConfig) -> ClusterConfig {
        ClusterConfig {
            fabric,
            ctx: Rc::default(),
        }
    }

    /// The backend of [`ClusterConfig::fabric`], built on first use and
    /// shared by every clone of this config.
    pub fn backend(&self) -> Rc<FabricBackend> {
        let fabric = self.fabric;
        memo(
            &self.ctx.fabrics,
            |&f| f == fabric,
            || fabric,
            || Rc::new(FabricBackend::new(fabric)),
        )
    }

    /// `spec`'s schedule placed at slot `base`.
    fn schedule(&self, spec: &JobSpec, base: usize) -> Rc<Schedule> {
        memo(
            &self.ctx.schedules,
            |(k, b)| *b == base && k.matches(self.fabric, spec),
            || (JobKey::new(self.fabric, spec), base),
            || {
                let policy = PlacementPolicy::for_fabric(self.fabric);
                let placement = Placement::with_base(spec.strategy, policy, base);
                let backend = self.backend();
                Rc::new(build_schedule(
                    &spec.model,
                    spec.strategy,
                    &placement,
                    &backend,
                    spec.params,
                ))
            },
        )
    }

    /// `spec`'s makespan run alone on a private network of the fabric:
    /// the stretch denominator.
    fn solo_secs(&self, spec: &JobSpec) -> f64 {
        memo(
            &self.ctx.solos,
            |k| k.matches(self.fabric, spec),
            || JobKey::new(self.fabric, spec),
            || {
                simulate(&spec.model, spec.strategy, &self.backend(), spec.params)
                    .expect("solo reference run completes on a healthy fabric")
                    .total
                    .as_secs()
            },
        )
    }
}

/// The memo tables behind [`ClusterConfig`]. A key holds every input
/// its computation reads; a job's name, class, arrival and fault plan
/// are not among them (faults act on the network, not on plans).
#[derive(Default)]
struct CompileContext {
    fabrics: Memo<FabricConfig, Rc<FabricBackend>>,
    /// Keyed by the job and its placement base (the placement policy
    /// follows from the fabric).
    schedules: Memo<(JobKey, usize), Rc<Schedule>>,
    solos: Memo<JobKey, f64>,
}

/// A memo table: each key beside the value computed from it.
type Memo<K, V> = RefCell<Vec<(K, V)>>;

/// Sizes only: a context can hold dozens of schedules.
impl fmt::Debug for CompileContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompileContext")
            .field("fabrics", &self.fabrics.borrow().len())
            .field("schedules", &self.schedules.borrow().len())
            .field("solos", &self.solos.borrow().len())
            .finish()
    }
}

/// What a job's schedule and solo run read besides its placement base.
struct JobKey {
    fabric: FabricConfig,
    model: DnnModel,
    strategy: Strategy3D,
    params: ScheduleParams,
}

impl JobKey {
    fn new(fabric: FabricConfig, spec: &JobSpec) -> JobKey {
        JobKey {
            fabric,
            model: spec.model.clone(),
            strategy: spec.strategy,
            params: spec.params,
        }
    }

    /// Whether `spec` on `fabric` has these inputs, the whole model
    /// included; the cheap fields are compared first.
    fn matches(&self, fabric: FabricConfig, spec: &JobSpec) -> bool {
        self.fabric == fabric
            && self.strategy == spec.strategy
            && self.params == spec.params
            && self.model == spec.model
    }
}

/// The value stored under the first key `hit` accepts, or else the
/// value `make` computes, then stored under `key()`. No borrow is held
/// while `make` runs, so a panic inside it leaves the table usable.
fn memo<K, V: Clone>(
    table: &Memo<K, V>,
    hit: impl Fn(&K) -> bool,
    key: impl FnOnce() -> K,
    make: impl FnOnce() -> V,
) -> V {
    if let Some((_, v)) = table.borrow().iter().find(|(k, _)| hit(k)) {
        return v.clone();
    }
    let v = make();
    table.borrow_mut().push((key(), v.clone()));
    v
}

/// Why a cluster run could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A job's model is weight-streaming: it streams layer windows to
    /// every NPU and cannot share the fabric (see
    /// [`JobSpec::is_schedulable`]).
    UnsupportedExecution {
        /// The offending job's name.
        job: String,
    },
    /// A job needs more NPU slots than the fabric has, so it can never
    /// be placed.
    JobTooWide {
        /// The offending job's name.
        job: String,
        /// Slots the job needs.
        npus: usize,
        /// Slots the fabric offers.
        slots: usize,
    },
    /// A job's executor failed (stall, unroutable transfer, rejected
    /// flow — see [`TrainError`]).
    Train {
        /// The failing job's name, or `<no job>` for a failure no job
        /// owns (see [`fred_workloads::exec::StepError`]).
        job: String,
        /// The underlying trainer error.
        err: TrainError,
    },
    /// The cluster ran out of pending events with jobs unfinished — a
    /// scheduling deadlock.
    Stalled {
        /// Jobs still queued.
        queued: usize,
        /// Jobs still running.
        running: usize,
        /// Jobs that did complete.
        completed: usize,
    },
    /// [`Cluster::restore`] was handed a state that does not pair with
    /// its config and job list.
    Snapshot(SnapshotError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnsupportedExecution { job } => write!(
                f,
                "job `{job}` is weight-streaming and cannot share the fabric"
            ),
            ClusterError::JobTooWide { job, npus, slots } => write!(
                f,
                "job `{job}` needs {npus} NPU slots but the fabric has {slots}"
            ),
            ClusterError::Train { job, err } => write!(f, "job `{job}` failed: {err}"),
            ClusterError::Stalled {
                queued,
                running,
                completed,
            } => write!(
                f,
                "cluster stalled with no pending events: {queued} queued, {running} running, \
                 {completed} completed"
            ),
            ClusterError::Snapshot(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ClusterError {}

/// Runs `jobs` to completion on one shared fabric and reports per-job
/// SLO metrics. Untraced (zero-overhead [`NullSink`]).
///
/// # Errors
///
/// See [`ClusterError`].
pub fn run_cluster(cfg: &ClusterConfig, jobs: Vec<JobSpec>) -> Result<ClusterReport, ClusterError> {
    run_cluster_traced(cfg, jobs, Rc::new(NullSink))
}

/// [`run_cluster`] with telemetry recorded into `sink`: per-job spans
/// are label-prefixed with the job name, and job lifecycle marks
/// (queued, started, preempted, finished) land on the iteration track.
///
/// # Errors
///
/// See [`ClusterError`].
pub fn run_cluster_traced(
    cfg: &ClusterConfig,
    jobs: Vec<JobSpec>,
    sink: Rc<dyn TraceSink>,
) -> Result<ClusterReport, ClusterError> {
    let mut cluster = Cluster::new(cfg.clone(), jobs, sink)?;
    cluster.run_to_completion()?;
    Ok(cluster.into_report())
}

/// A resumable cluster simulation: [`run_cluster`] is
/// [`Cluster::new`] + [`Cluster::run_to_completion`] +
/// [`Cluster::into_report`], but the pieces compose — a driver can run
/// to a chosen instant, [`Cluster::snapshot`] the whole stack
/// (scheduler, every in-flight executor, the shared network), and
/// later [`Cluster::restore`] it to resume bit-identically, including
/// mid-fault and mid-preemption.
pub struct Cluster {
    cfg: ClusterConfig,
    jobs: Vec<JobSpec>,
    backend: Rc<FabricBackend>,
    /// The network and the running jobs' executors, each owned by its
    /// job index, with every job's first start and fault cursor.
    run: Stepper,
    sink: Rc<dyn TraceSink>,
    tracing: bool,
    /// [`TraceSink::dropped`] reading when this run began.
    dropped_baseline: u64,
    /// Each running job's slots; a job's placement base is its first.
    slotmap: SlotMap,
    /// Pending job indices, one FIFO per class rank.
    queues: [VecDeque<usize>; 3],
    /// Job indices sorted by arrival.
    order: Vec<usize>,
    arrival_cursor: usize,
    completion: Vec<Time>,
    preempt_count: Vec<u32>,
    busy_npu_secs: f64,
}

/// Validates `jobs` against a fabric of `slots` NPUs and derives the
/// arrival order [`Cluster::restore`] admits them in.
fn validate_and_order(jobs: &[JobSpec], slots: usize) -> Result<Vec<usize>, ClusterError> {
    for j in jobs {
        if !j.is_schedulable() {
            return Err(ClusterError::UnsupportedExecution {
                job: j.name.clone(),
            });
        }
        if j.npus() > slots {
            return Err(ClusterError::JobTooWide {
                job: j.name.clone(),
                npus: j.npus(),
                slots,
            });
        }
    }
    // Arrival order; stable sort keeps submission order on ties.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        jobs[a]
            .arrival
            .partial_cmp(&jobs[b].arrival)
            .expect("finite arrival time")
    });
    Ok(order)
}

/// Checks that a [`ClusterState`] pairs with `jobs` (admitted in
/// `order`) on a fabric of `slots` NPUs, so [`Cluster::restore`] can
/// index by it, and returns the slot map the running jobs' windows
/// make.
fn check_pairing(
    state: &ClusterState,
    jobs: &[JobSpec],
    order: &[usize],
    slots: usize,
) -> Result<SlotMap, SnapshotError> {
    let n = jobs.len();
    let bad = |what: String| Err(SnapshotError::Mismatch(what));
    for (name, len) in [
        ("first_start", state.first_start.len()),
        ("completion", state.completion.len()),
        ("preempt_count", state.preempt_count.len()),
        ("fault_cursor", state.fault_cursor.len()),
    ] {
        if len != n {
            return bad(format!(".{name}: {len} entries but there are {n} jobs"));
        }
    }
    if state.arrival_cursor > n {
        return bad(format!(
            ".arrival_cursor: {} past {n} jobs",
            state.arrival_cursor
        ));
    }
    if let Some(j) = state.queues.iter().flatten().find(|&&j| j >= n) {
        return bad(format!(".queues: job {j} out of range ({n} jobs)"));
    }
    // Each queue holds the jobs of one class, by tenant rank.
    for (rank, q) in state.queues.iter().enumerate() {
        let stray = q
            .iter()
            .find(|&&j| jobs[j].class.tenant_rank() as usize != rank);
        if let Some(&j) = stray {
            return bad(format!(
                ".queues[{rank}]: job {j} is {} but queued at rank {rank}",
                jobs[j].class.name()
            ));
        }
    }
    // Admission precedes queueing and any start.
    let mut admitted = vec![false; n];
    for &j in &order[..state.arrival_cursor] {
        admitted[j] = true;
    }
    if let Some(j) = (0..n).find(|&j| !admitted[j] && state.first_start[j].is_some()) {
        return bad(format!(
            ".arrival_cursor: job {j} started but is not admitted"
        ));
    }
    if let Some(j) = state.queues.iter().flatten().find(|&&j| !admitted[j]) {
        return bad(format!(
            ".arrival_cursor: job {j} is queued but not admitted"
        ));
    }
    // The clock never passes an arrival without admitting it.
    let now = state.net.now;
    if let Some(&j) = order.get(state.arrival_cursor) {
        if jobs[j].arrival < now {
            return bad(format!(
                ".net.now: clock {now} is later than the arrival of job {j} at {} (.arrival_cursor)",
                jobs[j].arrival
            ));
        }
    }
    // The running jobs' windows fit the fabric without overlapping;
    // they are the slot map.
    let mut slotmap = SlotMap::new(slots);
    for (k, r) in state.running.iter().enumerate() {
        let Some(spec) = jobs.get(r.job) else {
            return bad(format!(
                ".running[{k}].job: job {} out of range ({n} jobs)",
                r.job
            ));
        };
        let fits = r.base.checked_add(spec.npus()).is_some_and(|end| {
            end <= slots && (r.base..end).all(|s| slotmap.owner_of(s).is_none())
        });
        if !fits {
            return bad(format!(
                ".running[{k}].base: slots {}.. do not fit job {} ({} NPUs)",
                r.base,
                r.job,
                spec.npus()
            ));
        }
        slotmap.occupy(r.base, spec.npus(), r.job);
    }
    // Every admitted job is queued, running, or started and finished:
    // exactly one of these.
    let mut places = vec![0usize; n];
    for &j in state.queues.iter().flatten() {
        places[j] += 1;
    }
    for r in &state.running {
        places[r.job] += 1;
    }
    for &j in &order[..state.arrival_cursor] {
        if places[j] > 1 {
            return bad(format!(".queues: job {j} is queued or running twice"));
        }
        if places[j] == 0 && state.first_start[j].is_none() {
            return bad(format!(
                ".queues: job {j} is admitted but neither queued, running nor finished"
            ));
        }
    }
    Ok(slotmap)
}

impl Cluster {
    /// Validates `jobs`, builds the shared network on the config's
    /// fabric, and admits and places everything due at time zero.
    /// Nothing has advanced yet. The cluster is the restore of a state
    /// with nothing admitted over a fresh network
    /// ([`CoreState::new`]).
    ///
    /// # Errors
    ///
    /// See [`ClusterError`].
    pub fn new(
        cfg: ClusterConfig,
        jobs: Vec<JobSpec>,
        sink: Rc<dyn TraceSink>,
    ) -> Result<Cluster, ClusterError> {
        let n = jobs.len();
        let nothing_admitted = ClusterState {
            net: CoreState::new(&cfg.backend().topology()),
            queues: Default::default(),
            running: Vec::new(),
            arrival_cursor: 0,
            next_tag_base: 0,
            first_start: vec![None; n],
            completion: vec![Time::ZERO; n],
            preempt_count: vec![0; n],
            fault_cursor: vec![0; n],
            busy_npu_secs: 0.0,
        };
        let mut cluster = Cluster::restore(cfg, jobs, sink, nothing_admitted)?;
        cluster.admit_arrivals(Time::ZERO);
        cluster.dispatch()?;
        cluster.emit_sched_samples(Time::ZERO);
        Ok(cluster)
    }

    /// The shared clock.
    pub fn now(&self) -> Time {
        self.run.net().now()
    }

    /// Whether every job has completed: all are admitted and none is
    /// queued or running.
    pub fn is_done(&self) -> bool {
        self.arrival_cursor == self.jobs.len()
            && self.run.running().len() == 0
            && self.queues.iter().all(VecDeque::is_empty)
    }

    /// The instant of the next pending event (arrival, compute finish,
    /// network event or fault), if any. (`&mut` because the network
    /// prunes stale drain predictions lazily while peeking.)
    pub fn next_event(&mut self) -> Option<Time> {
        let ta = self
            .order
            .get(self.arrival_cursor)
            .map(|&j| self.jobs[j].arrival);
        let jobs = &self.jobs;
        let tr = self.run.next_event(|j| &jobs[j].faults);
        [ta, tr].into_iter().flatten().min()
    }

    /// Processes exactly one event instant: one [`Stepper::step`] to
    /// `next`, then retires finished jobs and dispatches the queues.
    fn step_at(&mut self, next: Time) -> Result<(), ClusterError> {
        let now = self.run.net().now();
        // Occupancy integrates between event instants (membership only
        // changes at instants).
        self.busy_npu_secs +=
            self.slotmap.used() as f64 * (next.as_secs() - now.as_secs()).max(0.0);
        let jobs = &self.jobs;
        if let Err((owner, err)) = self.run.step(next, &self.backend, |j| &jobs[j].faults) {
            let job = owner.map_or_else(|| "<no job>".into(), |j| jobs[j].name.clone());
            return Err(ClusterError::Train { job, err });
        }
        self.retire_finished();
        self.admit_arrivals(next);
        self.dispatch()?;
        self.emit_sched_samples(next);
        Ok(())
    }

    /// Runs until every job completes: [`Cluster::run_until`] the
    /// largest instant, which no event is past.
    ///
    /// # Errors
    ///
    /// See [`ClusterError`]; [`ClusterError::Stalled`] when events run
    /// out with jobs unfinished.
    pub fn run_to_completion(&mut self) -> Result<(), ClusterError> {
        self.run_until(Time::from_secs(f64::MAX))
    }

    /// Processes every event at or before `t`, leaving the clock at
    /// the last processed instant — a clean capture point for
    /// [`Cluster::snapshot`]. Returns early (Ok) once the next event
    /// lies beyond `t` or the run completes.
    ///
    /// # Errors
    ///
    /// See [`Cluster::run_to_completion`].
    pub fn run_until(&mut self, t: Time) -> Result<(), ClusterError> {
        while !self.is_done() {
            let Some(next) = self.next_event() else {
                let queued = self.queues.iter().map(VecDeque::len).sum();
                let running = self.run.running().len();
                let completed = self.arrival_cursor - queued - running;
                return Err(ClusterError::Stalled {
                    queued,
                    running,
                    completed,
                });
            };
            if next > t {
                return Ok(());
            }
            self.step_at(next)?;
        }
        Ok(())
    }

    /// Captures the entire cluster stack — scheduler bookkeeping,
    /// every in-flight executor, and the shared network — as plain
    /// data. The job list and config are *not* captured;
    /// [`Cluster::restore`] is handed the same ones again.
    pub fn snapshot(&self) -> ClusterState {
        ClusterState {
            net: self.run.net().snapshot(),
            queues: [
                self.queues[0].iter().copied().collect(),
                self.queues[1].iter().copied().collect(),
                self.queues[2].iter().copied().collect(),
            ],
            running: self
                .run
                .running()
                .map(|(job, exec)| RunningState {
                    job,
                    base: (0..self.slotmap.slots())
                        .find(|&s| self.slotmap.owner_of(s) == Some(job))
                        .expect("a running job holds slots"),
                    tag_base: exec.tag_base(),
                    exec: exec.snapshot(),
                })
                .collect(),
            arrival_cursor: self.arrival_cursor,
            next_tag_base: self.run.next_tag_base(),
            first_start: self.run.clocks().iter().map(|c| c.0).collect(),
            completion: self.completion.clone(),
            preempt_count: self.preempt_count.clone(),
            fault_cursor: self.run.clocks().iter().map(|c| c.1).collect(),
            busy_npu_secs: self.busy_npu_secs,
        }
    }

    /// Rebuilds a cluster from a [`Cluster::snapshot`], the same
    /// config and the same job list it was captured against: the one
    /// place a cluster is put together. Running forward from here is
    /// bit-identical to the uninterrupted run (telemetry excepted:
    /// traces restart at the restore point). The fabric and the running
    /// jobs' schedules come from the config's compile context: a clone
    /// of the capturing cluster's config compiles nothing, a fresh one
    /// compiles them once. The network shares the fabric's topology.
    ///
    /// # Errors
    ///
    /// The same job-validation errors as [`Cluster::new`], and
    /// [`ClusterError::Snapshot`] naming the field when the state does
    /// not pair with the config and jobs (DESIGN.md §12.1 lists the
    /// rules; the network's, executors' and [`Stepper`]'s restores judge
    /// their own parts).
    pub fn restore(
        cfg: ClusterConfig,
        jobs: Vec<JobSpec>,
        sink: Rc<dyn TraceSink>,
        state: ClusterState,
    ) -> Result<Cluster, ClusterError> {
        let backend = cfg.backend();
        let slots = backend.npu_count();
        let order = validate_and_order(&jobs, slots)?;
        let slotmap =
            check_pairing(&state, &jobs, &order, slots).map_err(ClusterError::Snapshot)?;
        let net = FlowNetwork::restore(backend.topology(), sink.clone(), state.net)
            .map_err(|e| ClusterError::Snapshot(SnapshotError::Mismatch(format!(".net.{e}"))))?;
        let tracing = sink.enabled();
        // Baseline, not zero: the caller may hand us a sink that
        // already dropped events in an earlier run; the report carries
        // this run's losses only.
        let dropped_baseline = sink.dropped();
        let mut running = Vec::with_capacity(state.running.len());
        for r in state.running {
            let spec = &jobs[r.job];
            let exec_cfg = ExecConfig {
                tag_base: r.tag_base,
                tenant: spec.class.tenant_rank(),
                label: Some(spec.name.clone()),
            };
            let exec = ScheduleExecutor::restore(
                cfg.schedule(spec, r.base),
                exec_cfg,
                sink.clone(),
                r.exec,
            )
            .map_err(ClusterError::Snapshot)?;
            running.push((r.job, exec));
        }
        let clocks = state.first_start.into_iter().zip(state.fault_cursor);
        let run = Stepper::restore(net, running, state.next_tag_base, clocks.collect())
            .map_err(ClusterError::Snapshot)?;
        Ok(Cluster {
            cfg,
            jobs,
            backend,
            run,
            sink,
            tracing,
            dropped_baseline,
            slotmap,
            queues: state.queues.map(VecDeque::from),
            order,
            arrival_cursor: state.arrival_cursor,
            completion: state.completion,
            preempt_count: state.preempt_count,
            busy_npu_secs: state.busy_npu_secs,
        })
    }

    /// Scheduler-state gauges for the flight recorder: per-class queue
    /// depth, running jobs, occupied slots and the cumulative
    /// preemption count. One sample per event instant — the recorder
    /// coalesces same-window updates, so this stays cheap even on
    /// event-dense runs.
    fn emit_sched_samples(&self, now: Time) {
        if !self.tracing {
            return;
        }
        let t = now.as_secs();
        for (rank, q) in self.queues.iter().enumerate() {
            let class = JobClass::ALL[rank].name();
            self.sink.record(TraceEvent::Sample {
                t,
                key: format!("queue_depth/{class}").into(),
                value: q.len() as f64,
            });
        }
        let preemptions = self.preempt_count.iter().map(|&c| c as u64).sum::<u64>();
        for (key, value) in [
            ("running_jobs", self.run.running().len() as f64),
            ("slots_used", self.slotmap.used() as f64),
            ("preemptions_total", preemptions as f64),
        ] {
            let key = key.into();
            self.sink.record(TraceEvent::Sample { t, key, value });
        }
    }

    /// Moves every job with `arrival <= now` from the arrival stream
    /// into its class queue.
    fn admit_arrivals(&mut self, now: Time) {
        while let Some(&j) = self.order.get(self.arrival_cursor) {
            if self.jobs[j].arrival > now {
                break;
            }
            self.arrival_cursor += 1;
            let rank = self.jobs[j].class.tenant_rank() as usize;
            self.queues[rank].push_back(j);
            if self.tracing {
                self.sink.record(TraceEvent::IterStage {
                    t: now.as_secs(),
                    label: format!(
                        "job {} queued ({})",
                        self.jobs[j].name,
                        self.jobs[j].class.name()
                    )
                    .into(),
                });
            }
        }
    }

    /// Places queued jobs: classes High→Low, FIFO head-of-line within
    /// a class, lower classes backfilling past a blocked head. Falls
    /// back to preemption for the highest blocked head.
    fn dispatch(&mut self) -> Result<(), ClusterError> {
        let _prof = fred_telemetry::prof::scope("cluster.dispatch");
        loop {
            let mut placed_any = false;
            for rank in 0..self.queues.len() {
                while let Some(&job) = self.queues[rank].front() {
                    let width = self.jobs[job].npus();
                    let Some(base) = self.slotmap.find(width) else {
                        break;
                    };
                    self.queues[rank].pop_front();
                    self.start_job(job, base, width)?;
                    placed_any = true;
                }
            }
            if placed_any {
                continue;
            }
            // The highest-class blocked head gets one preemption
            // attempt per round.
            let head = (0..self.queues.len()).find_map(|r| self.queues[r].front().map(|&j| (r, j)));
            if let Some((rank, job)) = head {
                if self.try_preempt_for(rank, job)? {
                    continue;
                }
            }
            return Ok(());
        }
    }

    /// Searches for a `width`-slot window freeable by evicting only
    /// strictly-lower-class jobs, minimizing (victim count, base).
    fn preempt_window(&self, width: usize, rank: usize) -> Option<(usize, Vec<usize>)> {
        let _prof = fred_telemetry::prof::scope("cluster.preempt_window");
        let slots = self.slotmap.slots();
        let mut best: Option<(usize, usize, Vec<usize>)> = None;
        for base in 0..=slots.saturating_sub(width) {
            let mut victims: BTreeSet<usize> = BTreeSet::new();
            let mut ok = true;
            for s in base..base + width {
                match self.slotmap.owner_of(s) {
                    None => {}
                    Some(j) => {
                        if (self.jobs[j].class.tenant_rank() as usize) > rank {
                            victims.insert(j);
                        } else {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if !ok || victims.is_empty() {
                continue;
            }
            let cand = (victims.len(), base, victims.into_iter().collect::<Vec<_>>());
            if best.as_ref().is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                best = Some(cand);
            }
        }
        best.map(|(_, base, victims)| (base, victims))
    }

    /// Preempts strictly-lower-class jobs to place the head `job` of
    /// class-rank `rank`. Returns whether a placement happened.
    fn try_preempt_for(&mut self, rank: usize, job: usize) -> Result<bool, ClusterError> {
        let width = self.jobs[job].npus();
        let Some((base, mut victims)) = self.preempt_window(width, rank) else {
            return Ok(false);
        };
        // Requeue victims at the *front* of their class queues so they
        // restart before anything that arrived after them; pushing in
        // reverse arrival order keeps the earliest arrival frontmost.
        victims.sort_by(|&a, &b| {
            self.jobs[a]
                .arrival
                .partial_cmp(&self.jobs[b].arrival)
                .expect("finite arrival time")
                .then(a.cmp(&b))
        });
        for &v in victims.iter().rev() {
            self.preempt(v);
        }
        let head = self.queues[rank].pop_front();
        debug_assert_eq!(head, Some(job));
        self.start_job(job, base, width)?;
        Ok(true)
    }

    /// Preempts a running job ([`Stepper::preempt`]; its iteration
    /// restarts from scratch), frees its slots and requeues it at the
    /// front of its class.
    fn preempt(&mut self, job: usize) {
        self.run.preempt(job);
        self.slotmap.release(job);
        self.preempt_count[job] += 1;
        let rank = self.jobs[job].class.tenant_rank() as usize;
        self.queues[rank].push_front(job);
        if self.tracing {
            self.sink.record(TraceEvent::IterStage {
                t: self.run.net().now().as_secs(),
                label: format!("job {} preempted", self.jobs[job].name).into(),
            });
        }
    }

    /// Places and starts one job at `base`, with its schedule from the
    /// compile context.
    fn start_job(&mut self, job: usize, base: usize, width: usize) -> Result<(), ClusterError> {
        let spec = &self.jobs[job];
        let schedule = self.cfg.schedule(spec, base);
        self.slotmap.occupy(base, width, job);
        if self.tracing {
            self.sink.record(TraceEvent::IterStage {
                t: self.run.net().now().as_secs(),
                label: format!("job {} start @ slots {}..{}", spec.name, base, base + width).into(),
            });
        }
        let (tenant, label) = (spec.class.tenant_rank(), Some(spec.name.clone()));
        let started = self.run.start(job, schedule, tenant, label, &self.backend);
        started.map_err(|err| ClusterError::Train {
            job: self.jobs[job].name.clone(),
            err,
        })
    }

    /// Frees the slots of every executor that just finished and
    /// records its completion.
    fn retire_finished(&mut self) {
        while let Some((job, exec)) = self.run.take_finished() {
            self.slotmap.release(job);
            self.completion[job] = exec.completion_time();
            if self.tracing {
                self.sink.record(TraceEvent::IterStage {
                    t: self.run.net().now().as_secs(),
                    label: format!("job {} finished", self.jobs[job].name).into(),
                });
            }
        }
    }

    /// Builds the report. Solo makespans (the stretch denominator) run
    /// each distinct (model, strategy, params) once per compile context,
    /// on a private network of the same fabric. Meaningful once
    /// [`Cluster::is_done`].
    pub fn into_report(self) -> ClusterReport {
        let mut records = Vec::with_capacity(self.jobs.len());
        let mut makespan = Time::ZERO;
        for (j, spec) in self.jobs.iter().enumerate() {
            let solo_secs = self.cfg.solo_secs(spec);
            let completion = self.completion[j];
            makespan = makespan.max(completion);
            records.push(JobRecord {
                name: spec.name.clone(),
                class: spec.class,
                npus: spec.npus(),
                arrival: spec.arrival,
                first_start: self.run.clocks()[j].0.expect("every job completed"),
                completion,
                preemptions: self.preempt_count[j],
                solo_secs,
            });
        }
        if self.tracing {
            // Per-tenant stretch is only knowable here (the solo
            // denominator was just computed); emit one sample per job
            // completion, time-ordered so series stay monotone.
            let mut by_completion: Vec<&JobRecord> = records.iter().collect();
            by_completion.sort_by(|a, b| {
                a.completion
                    .as_secs()
                    .partial_cmp(&b.completion.as_secs())
                    .expect("finite completion")
            });
            for r in by_completion {
                self.sink.record(TraceEvent::Sample {
                    t: r.completion.as_secs(),
                    key: format!("stretch/{}", r.class.name()).into(),
                    value: r.stretch(),
                });
            }
        }
        let dropped_events = self.sink.dropped().saturating_sub(self.dropped_baseline);
        if dropped_events > 0 {
            eprintln!(
                "warning: cluster trace dropped {dropped_events} events (ring full); \
                 stretch/queue series and traces are truncated"
            );
        }
        ClusterReport {
            fabric: self.cfg.fabric.name().into(),
            records,
            makespan,
            npu_slots: self.slotmap.slots(),
            busy_npu_secs: self.busy_npu_secs,
            preemptions: self.preempt_count.iter().sum(),
            dropped_events,
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot state and serialization.
// ---------------------------------------------------------------------

/// One running job inside a [`ClusterState`]: where the scheduler
/// placed it and which tags it gave it, and its executor's progress.
/// The executor's tenant rank and span label follow from the job.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningState {
    /// Index into the submitted job list.
    pub job: usize,
    /// First slot of the job's carve-out.
    pub base: usize,
    /// Its executor's tag base (see [`ExecConfig::tag_base`]).
    pub tag_base: u64,
    /// The executor's captured progress.
    pub exec: ExecState,
}

/// Captured cluster progress: everything [`Cluster`] mutates while
/// running, as plain data, each fact once. The config and job list are
/// configuration and are handed to [`Cluster::restore`] alongside
/// this. The slot map is not captured, because it is the running jobs'
/// windows, nor is the finished-job count, because every admitted job
/// that is neither queued nor running has finished.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterState {
    /// The shared network.
    pub net: CoreState,
    /// Per-class FIFO queues of pending job indices, front first.
    pub queues: [Vec<usize>; 3],
    /// In-flight jobs in placement order.
    pub running: Vec<RunningState>,
    /// Next unprocessed index into the arrival order.
    pub arrival_cursor: usize,
    /// Next fresh tag-namespace base.
    pub next_tag_base: u64,
    /// First-start instant per job.
    pub first_start: Vec<Option<Time>>,
    /// Completion instant per job (ZERO until finished).
    pub completion: Vec<Time>,
    /// Preemptions suffered per job.
    pub preempt_count: Vec<u32>,
    /// Per-job cursor into its fault plan.
    pub fault_cursor: Vec<usize>,
    /// Integrated slot-seconds of occupancy.
    pub busy_npu_secs: f64,
}

impl ClusterState {
    /// Encodes the state for the shared snapshot codec ([`Snap::encode`]).
    pub fn to_value(&self) -> Value {
        self.encode()
    }

    /// Decodes [`ClusterState::to_value`] ([`Snap::decode`]).
    pub fn from_value(v: &Value) -> Result<ClusterState, SnapshotError> {
        ClusterState::decode(v)
    }
}

impl Snap for RunningState {
    fn encode(&self) -> Value {
        Value::Obj(vec![
            ("job".into(), self.job.encode()),
            ("base".into(), self.base.encode()),
            ("tag_base".into(), self.tag_base.encode()),
            ("exec".into(), self.exec.encode()),
        ])
    }

    fn decode(v: &Value) -> Result<RunningState, SnapshotError> {
        Ok(RunningState {
            job: field(v, "job")?,
            base: field(v, "base")?,
            tag_base: field(v, "tag_base")?,
            exec: field(v, "exec")?,
        })
    }
}

impl Snap for ClusterState {
    fn encode(&self) -> Value {
        Value::Obj(vec![
            ("net".into(), self.net.encode()),
            ("queues".into(), self.queues.encode()),
            ("running".into(), self.running.encode()),
            ("arrival_cursor".into(), self.arrival_cursor.encode()),
            ("next_tag_base".into(), self.next_tag_base.encode()),
            ("first_start".into(), self.first_start.encode()),
            ("completion".into(), self.completion.encode()),
            ("preempt_count".into(), self.preempt_count.encode()),
            ("fault_cursor".into(), self.fault_cursor.encode()),
            ("busy_npu_secs".into(), self.busy_npu_secs.encode()),
        ])
    }

    fn decode(v: &Value) -> Result<ClusterState, SnapshotError> {
        Ok(ClusterState {
            net: field(v, "net")?,
            queues: field(v, "queues")?,
            running: field(v, "running")?,
            arrival_cursor: field(v, "arrival_cursor")?,
            next_tag_base: field(v, "next_tag_base")?,
            first_start: field(v, "first_start")?,
            completion: field(v, "completion")?,
            preempt_count: field(v, "preempt_count")?,
            fault_cursor: field(v, "fault_cursor")?,
            busy_npu_secs: field(v, "busy_npu_secs")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobClass;
    use fred_sim::fault::{FaultEvent, FaultKind, FaultPlan};
    use fred_sim::topology::LinkId;

    fn resnet_job(name: &str, dp: usize) -> JobSpec {
        let model = DnnModel::resnet152();
        let strategy = Strategy3D::new(1, dp, 1);
        let params = ScheduleParams::sweep_default(&model, strategy);
        JobSpec::new(name, model, strategy, params)
    }

    #[test]
    fn solo_high_job_matches_standalone_trainer_bit_for_bit() {
        for fabric in [FabricConfig::BaselineMesh, FabricConfig::FredD] {
            let job = resnet_job("solo", 4).with_class(JobClass::High);
            let backend = FabricBackend::new(fabric);
            let solo = simulate(&job.model, job.strategy, &backend, job.params).unwrap();
            let report = run_cluster(&ClusterConfig::new(fabric), vec![job]).unwrap();
            let rec = &report.records[0];
            assert_eq!(
                rec.service_secs(),
                solo.total.as_secs(),
                "{} cluster-of-one diverged from simulate()",
                fabric.name()
            );
            assert_eq!(rec.queueing_delay_secs(), 0.0);
            assert_eq!(rec.stretch(), 1.0);
            assert_eq!(report.preemptions, 0);
        }
    }

    #[test]
    fn solo_reference_runs_tell_npu_speeds_apart() {
        // Two jobs that differ only in NPU speed need their own solo
        // runs: each record's stretch denominator is its own spec's.
        let fast = resnet_job("fast", 4);
        let mut slow = resnet_job("slow", 4);
        slow.params.npu_flops /= 2.0;
        let backend = FabricBackend::new(FabricConfig::FredD);
        let report = run_cluster(
            &ClusterConfig::new(FabricConfig::FredD),
            vec![fast.clone(), slow.clone()],
        )
        .unwrap();
        for (rec, job) in report.records.iter().zip([&fast, &slow]) {
            let solo = simulate(&job.model, job.strategy, &backend, job.params).unwrap();
            assert_eq!(
                rec.solo_secs.to_bits(),
                solo.total.as_secs().to_bits(),
                "{}",
                rec.name
            );
        }
    }

    #[test]
    fn jobs_that_agree_on_every_key_field_share_a_schedule_and_a_solo_run() {
        // Same model, strategy, params and base (the second arrives
        // after the first finishes, so both start at slot 0); another
        // name, class, arrival and fault plan.
        let cfg = ClusterConfig::new(FabricConfig::FredD);
        let first = resnet_job("first", 4).with_class(JobClass::High);
        let later = Time::from_secs(2.0 * cfg.solo_secs(&first));
        let second = JobSpec {
            faults: FaultPlan::new(vec![FaultEvent {
                at: Time::ZERO,
                link: LinkId(0),
                kind: FaultKind::LinkDegrade(0.5),
            }]),
            ..resnet_job("second", 4)
                .with_class(JobClass::Low)
                .with_arrival(later)
        };
        let mut cluster =
            Cluster::new(cfg.clone(), vec![first, second], Rc::new(NullSink)).unwrap();
        let schedule = cluster.run.running().next().unwrap().1.schedule().clone();
        cluster.run_until(later).unwrap();
        let (job, exec) = cluster.run.running().next().unwrap();
        let at_slot_0 = cluster.slotmap.owner_of(0);
        assert_eq!(
            (job, at_slot_0),
            (1, Some(1)),
            "the second job runs at slot 0"
        );
        assert!(Rc::ptr_eq(exec.schedule(), &schedule));
        cluster.run_to_completion().unwrap();
        let report = cluster.into_report();
        let [a, b] = &report.records[..] else {
            panic!("two records")
        };
        assert_eq!(a.solo_secs.to_bits(), b.solo_secs.to_bits());
        assert_eq!(cfg.ctx.schedules.borrow().len(), 1);
        assert_eq!(cfg.ctx.solos.borrow().len(), 1);
    }

    #[test]
    fn a_change_to_any_key_field_compiles_and_runs_afresh() {
        let cfg = ClusterConfig::new(FabricConfig::FredD);
        // Pipelined, so the microbatch count moves the makespan too.
        let model = DnnModel::resnet152();
        let strategy = Strategy3D::new(1, 2, 2);
        let params = ScheduleParams::sweep_default(&model, strategy);
        let job = JobSpec::new("job", model, strategy, params);
        let cached = cfg.schedule(&job, 0);
        let cached_solo = cfg.solo_secs(&job);
        let with = |edit: fn(&mut JobSpec)| {
            let mut spec = job.clone();
            edit(&mut spec);
            spec
        };
        let mut mesh = cfg.clone();
        mesh.fabric = FabricConfig::BaselineMesh;
        let cases = [
            (
                "model",
                &cfg,
                with(|j| j.model.compute_calibration *= 2.0),
                0,
            ),
            ("strategy", &cfg, with(|j| j.strategy.dp = 4), 0),
            ("base", &cfg, job.clone(), 4),
            ("minibatch", &cfg, with(|j| j.params.minibatch *= 2), 0),
            ("microbatches", &cfg, with(|j| j.params.microbatches = 5), 0),
            ("npu_flops", &cfg, with(|j| j.params.npu_flops /= 2.0), 0),
            ("fabric", &mesh, job.clone(), 0),
        ];
        for (field, cfg, spec, base) in cases {
            let backend = FabricBackend::new(cfg.fabric);
            let placement =
                Placement::with_base(spec.strategy, PlacementPolicy::for_fabric(cfg.fabric), base);
            let fresh = build_schedule(
                &spec.model,
                spec.strategy,
                &placement,
                &backend,
                spec.params,
            );
            let schedule = cfg.schedule(&spec, base);
            assert!(!Rc::ptr_eq(&schedule, &cached), "{field}");
            assert_eq!(format!("{schedule:?}"), format!("{fresh:?}"), "{field}");
            assert_ne!(format!("{fresh:?}"), format!("{cached:?}"), "{field}");
            let solo = simulate(&spec.model, spec.strategy, &backend, spec.params)
                .unwrap()
                .total
                .as_secs();
            assert_eq!(cfg.solo_secs(&spec).to_bits(), solo.to_bits(), "{field}");
            // A solo run is always placed at slot 0.
            assert_eq!(solo == cached_solo, field == "base", "{field}");
        }
    }

    #[test]
    fn restores_share_the_capturing_context_and_also_resume_cold() {
        let low_a = resnet_job("low-a", 10).with_class(JobClass::Low);
        let low_b = resnet_job("low-b", 10).with_class(JobClass::Low);
        let solo = ClusterConfig::new(FabricConfig::FredD).solo_secs(&low_a);
        let mk = || {
            vec![
                low_a.clone(),
                low_b.clone(),
                resnet_job("high", 10)
                    .with_class(JobClass::High)
                    .with_arrival(Time::from_secs(solo * 0.25)),
            ]
        };
        let reference = run_cluster(&ClusterConfig::new(FabricConfig::FredD), mk()).unwrap();
        let cfg = ClusterConfig::new(FabricConfig::FredD);
        let mut cluster = Cluster::new(cfg.clone(), mk(), Rc::new(NullSink)).unwrap();
        // Past the preemption: the High job and a Low job run.
        cluster.run_until(Time::from_secs(solo * 0.5)).unwrap();
        assert_eq!(cluster.run.running().len(), 2);
        let state = cluster.snapshot();
        let compiled = cfg.ctx.schedules.borrow().len();
        let warm = Cluster::restore(cfg.clone(), mk(), Rc::new(NullSink), state.clone()).unwrap();
        assert_eq!(
            cfg.ctx.schedules.borrow().len(),
            compiled,
            "compiled on restore"
        );
        assert_eq!(cfg.ctx.fabrics.borrow().len(), 1);
        assert!(Rc::ptr_eq(&warm.backend, &cluster.backend));
        for ((_, w), (_, c)) in warm.run.running().zip(cluster.run.running()) {
            assert!(Rc::ptr_eq(w.schedule(), c.schedule()));
        }
        // A fresh config is what a process restoring from a file has.
        let cold = ClusterConfig::new(FabricConfig::FredD);
        let cold = Cluster::restore(cold, mk(), Rc::new(NullSink), state).unwrap();
        for (path, mut resumed) in [("warm", warm), ("cold", cold)] {
            resumed.run_to_completion().unwrap();
            let report = resumed.into_report();
            assert_eq!(report.first_difference(&reference), None, "{path}");
        }
    }

    #[test]
    fn two_disjoint_jobs_run_concurrently() {
        let jobs = vec![resnet_job("a", 4), resnet_job("b", 4)];
        let report = run_cluster(&ClusterConfig::new(FabricConfig::FredD), jobs).unwrap();
        // Both start at t=0 (20 slots, 4+4 fit side by side).
        for rec in &report.records {
            assert_eq!(rec.queueing_delay_secs(), 0.0);
        }
        assert!(report.utilization() > 0.0);
    }

    #[test]
    fn queueing_delay_appears_when_the_fabric_is_full() {
        // Three 8-wide jobs on 20 slots: two fit, the third queues.
        let jobs = vec![resnet_job("a", 8), resnet_job("b", 8), resnet_job("c", 8)];
        let report = run_cluster(&ClusterConfig::new(FabricConfig::FredD), jobs).unwrap();
        let delayed: Vec<_> = report
            .records
            .iter()
            .filter(|r| r.queueing_delay_secs() > 0.0)
            .collect();
        assert_eq!(delayed.len(), 1, "exactly one job should queue");
        assert_eq!(delayed[0].name, "c");
    }

    #[test]
    fn high_arrival_preempts_a_low_job() {
        // Fill the fabric with Low jobs, then a High job arrives.
        let low_a = resnet_job("low-a", 10).with_class(JobClass::Low);
        let low_b = resnet_job("low-b", 10).with_class(JobClass::Low);
        let backend = FabricBackend::new(FabricConfig::FredD);
        let solo = simulate(&low_a.model, low_a.strategy, &backend, low_a.params).unwrap();
        let high = resnet_job("high", 10)
            .with_class(JobClass::High)
            .with_arrival(Time::from_secs(solo.total.as_secs() * 0.25));
        let report = run_cluster(
            &ClusterConfig::new(FabricConfig::FredD),
            vec![low_a, low_b, high],
        )
        .unwrap();
        assert_eq!(report.preemptions, 1);
        let high_rec = report.records.iter().find(|r| r.name == "high").unwrap();
        assert_eq!(
            high_rec.queueing_delay_secs(),
            0.0,
            "preemption should start the High job immediately"
        );
        let victim = report
            .records
            .iter()
            .find(|r| r.preemptions == 1)
            .expect("one victim");
        assert_eq!(victim.class, JobClass::Low);
        // The victim restarted and still finished.
        assert!(victim.completion > high_rec.first_start);
    }

    #[test]
    fn a_preempted_jobs_fault_cursor_survives_its_restart() {
        use fred_telemetry::sink::RingRecorder;
        // The High arrival preempts low-a, the victim at the lower base.
        let backend = FabricBackend::new(FabricConfig::FredD);
        let low_a = resnet_job("low-a", 10).with_class(JobClass::Low);
        let solo = simulate(&low_a.model, low_a.strategy, &backend, low_a.params)
            .unwrap()
            .total
            .as_secs();
        // Two degradations, timed from low-a's first start: the first
        // falls due while it runs, the second while it waits preempted.
        let (early, late) = (backend.npu_route(0, 1)[0], backend.npu_route(2, 3)[0]);
        let degrade = |at: f64, link| FaultEvent {
            at: Time::from_secs(at),
            link,
            kind: FaultKind::LinkDegrade(0.5),
        };
        let faults = FaultPlan::new(vec![degrade(solo * 0.1, early), degrade(solo * 0.5, late)]);
        let jobs = vec![
            JobSpec { faults, ..low_a },
            resnet_job("low-b", 10).with_class(JobClass::Low),
            resnet_job("high", 10)
                .with_class(JobClass::High)
                .with_arrival(Time::from_secs(solo * 0.25)),
        ];
        let ring = Rc::new(RingRecorder::new());
        let cfg = ClusterConfig::new(FabricConfig::FredD);
        let report = run_cluster_traced(&cfg, jobs, ring.clone()).unwrap();
        assert_eq!(ring.overwritten(), 0);
        assert_eq!(report.records[0].preemptions, 1);
        let events = ring.events();
        let starts: Vec<f64> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::IterStage { t, label } if label.starts_with("job low-a start") => {
                    Some(*t)
                }
                _ => None,
            })
            .collect();
        let [first, restart] = starts[..] else {
            panic!("low-a starts twice, not at {starts:?}")
        };
        assert_eq!(first, 0.0);
        assert!(restart > solo * 0.5, "low-a restarts at {restart}");
        let fired: Vec<(f64, u32)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Fault { t, link, .. } => Some((*t, *link)),
                _ => None,
            })
            .collect();
        // The first fires once and not again at the restart; the
        // second fires at the restart instant.
        assert_eq!(
            fired,
            [(solo * 0.1, early.0 as u32), (restart, late.0 as u32)]
        );
    }

    #[test]
    fn an_unroutable_transfer_names_its_job_and_that_jobs_task() {
        use fred_workloads::schedule::{TaskBody, TaskId};
        // Two ResNet-152 DP-4 jobs of 11 tasks side by side: `a` on
        // slots 0..4 with tags 1..=11, `b` on slots 4..8 with 12..=22.
        let backend = FabricBackend::new(FabricConfig::FredD);
        let cfg = ClusterConfig::new(FabricConfig::FredD);
        let (a, b) = (resnet_job("a", 4), resnet_job("b", 4));
        // The job and task the run fails on when `a`'s plan fails
        // `link` at `at`.
        let fail = |b: &JobSpec, at: f64, link: LinkId| {
            let a = JobSpec {
                faults: FaultPlan::new(vec![FaultEvent {
                    at: Time::from_secs(at),
                    link,
                    kind: FaultKind::LinkFail,
                }]),
                ..a.clone()
            };
            match run_cluster(&cfg, vec![a, b.clone()]).unwrap_err() {
                ClusterError::Train {
                    job,
                    err:
                        TrainError::Unroutable {
                            task: Some(TaskId(t)),
                        },
                } => (job, t),
                e => panic!("failing {link:?}: {e}"),
            }
        };
        // Whether task `t` of the job placed at `base` has a transfer
        // over `link`.
        let crosses = |base: usize, t: usize, link: LinkId| {
            let schedule = cfg.schedule(&a, base);
            assert_eq!(schedule.tasks.len(), 11);
            let Some(TaskBody::Comm { plan, .. }) = schedule.tasks.get(t).map(|t| &t.body) else {
                return false;
            };
            let mut transfers = plan.phases.iter().flat_map(|p| &p.transfers);
            transfers.any(|tr| tr.route.contains(&link))
        };
        // An uplink fails at the start: the job whose gradient crosses
        // it fails when it stages that flow.
        for (npu, job, base) in [(1, "a", 0), (5, "b", 4)] {
            let uplink = backend.npu_route(npu, npu ^ 1)[0];
            let (named, t) = fail(&b, 0.0, uplink);
            assert_eq!(named, job, "NPU {npu}'s uplink");
            assert!(crosses(base, t, uplink), "{job}'s task {t}");
        }
        // `b` arrives after `a`'s input load has landed, and NPU 5's
        // downlink fails while `b`'s input load into it is in flight:
        // the eviction's re-injection names `b`, whose flow it is.
        let later = cfg.solo_secs(&a) * 0.5;
        let downlink = *backend.npu_route(4, 5).last().unwrap();
        let b_later = b.clone().with_arrival(Time::from_secs(later));
        let (named, t) = fail(&b_later, later + 1e-7, downlink);
        assert_eq!(named, "b");
        assert!(crosses(4, t, downlink), "b's task {t}");
    }

    #[test]
    fn weight_streaming_jobs_are_rejected() {
        let model = DnnModel::gpt3();
        let strategy = Strategy3D::new(1, 1, 2);
        let params = ScheduleParams::sweep_default(&model, strategy);
        let err = run_cluster(
            &ClusterConfig::new(FabricConfig::FredD),
            vec![JobSpec::new("g", model, strategy, params)],
        )
        .unwrap_err();
        assert!(matches!(err, ClusterError::UnsupportedExecution { .. }));
    }

    #[test]
    fn too_wide_jobs_are_rejected() {
        let err = run_cluster(
            &ClusterConfig::new(FabricConfig::FredD),
            vec![resnet_job("wide", 21)],
        )
        .unwrap_err();
        assert!(matches!(err, ClusterError::JobTooWide { npus: 21, .. }));
    }

    #[test]
    fn snapshot_restore_mid_preemption_run_is_bit_identical() {
        use fred_telemetry::sink::NullSink;
        // Same shape as the preemption test: the High arrival at 25%
        // of the Low solo time forces an eviction; capturing right
        // before it exercises restore with queued + running jobs and
        // in-flight flows.
        let low_a = resnet_job("low-a", 10).with_class(JobClass::Low);
        let low_b = resnet_job("low-b", 10).with_class(JobClass::Low);
        let backend = FabricBackend::new(FabricConfig::FredD);
        let solo = simulate(&low_a.model, low_a.strategy, &backend, low_a.params).unwrap();
        let high_at = solo.total.as_secs() * 0.25;
        let mk = || {
            vec![
                low_a.clone(),
                low_b.clone(),
                resnet_job("high", 10)
                    .with_class(JobClass::High)
                    .with_arrival(Time::from_secs(high_at)),
            ]
        };
        let cfg = ClusterConfig::new(FabricConfig::FredD);
        let reference = run_cluster(&cfg, mk()).unwrap();
        for frac in [0.2, 0.5] {
            let mut cluster = Cluster::new(cfg.clone(), mk(), Rc::new(NullSink)).unwrap();
            cluster
                .run_until(Time::from_secs(high_at * frac / 0.25))
                .unwrap();
            let state = cluster.snapshot();
            // Through the full codec: Value -> binary -> Value -> state.
            let bytes = fred_core::codec::to_binary(&state.to_value());
            let decoded =
                ClusterState::from_value(&fred_core::codec::from_binary(&bytes).unwrap()).unwrap();
            assert_eq!(decoded, state);
            let mut resumed =
                Cluster::restore(cfg.clone(), mk(), Rc::new(NullSink), decoded).unwrap();
            // The restored stack re-captures identically.
            assert_eq!(resumed.snapshot(), state);
            resumed.run_to_completion().unwrap();
            let report = resumed.into_report();
            assert_eq!(
                report.first_difference(&reference),
                None,
                "diverged after restore at frac {frac}"
            );
        }
    }
}
