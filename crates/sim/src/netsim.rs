//! The event-driven flow-level network simulator.
//!
//! [`FlowNetwork`] owns a [`Topology`] and a set of in-flight flows.
//! Rates come from the persistent incremental allocator
//! ([`crate::solver::FairShareSolver`]): injections and completions are
//! handed to the solver as deltas and *coalesced* — the solver runs
//! lazily at the next [`FlowNetwork::next_event`] /
//! [`FlowNetwork::advance_to`], so all set changes at one timestamp
//! cost a single (component-local) refill. Between refills every flow
//! progresses linearly at its assigned rate, so each flow's drain time
//! is known in closed form the moment its rate is assigned; drain
//! predictions sit in a heap instead of being rediscovered by scanning
//! the active set every event.
//!
//! A flow's lifecycle:
//!
//! 1. *injected* — starts draining immediately at its allocated rate;
//! 2. *drained* — all bytes have left the source; the flow stops
//!    consuming bandwidth;
//! 3. *completed* — one route-latency later the tail arrives at the
//!    destination and a [`CompletedFlow`] record is emitted.
//!
//! The separation of (2) and (3) models store-and-forward-free
//! (cut-through) pipelining: bandwidth is held only while bytes are being
//! pushed, and the constant propagation delay is appended at the end.
//!
//! Byte accounting is lazy to match and per flow: each flow carries an
//! `updated_at` watermark and its bytes left are debited only when its
//! rate changes, it is evicted or it drains, so a rate refill touches
//! exactly the flows whose rate changed.
//!
//! The solver is the only owner of each flow's route and rate, of link
//! capacities and of the live-flow count. The network keeps, under the
//! solver's key, only what the event loop adds: flow identity, bytes
//! left and their watermark, the drain-heap generation, injection time
//! and tail latency.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use fred_telemetry::event::{TraceEvent, Track};
use fred_telemetry::sink::{NullSink, TraceSink};

use crate::flow::{fill_class, FlowId, FlowSpec, Priority, MAX_TENANT};
use crate::solver::{FairShareSolver, FlowKey, SolverStats};
use crate::time::{Duration, Time};
use crate::topology::{LinkId, Route, RouteError, Topology};

/// Maps a priority class to its telemetry display track.
pub fn track_of(priority: Priority) -> Track {
    match priority {
        Priority::Mp => Track::Mp,
        Priority::Pp => Track::Pp,
        Priority::Dp => Track::Dp,
        Priority::Control | Priority::Bulk => Track::Bulk,
    }
}

/// Bytes below which a flow is considered fully drained (guards against
/// floating-point residue).
const DRAIN_EPS: f64 = 1e-6;

/// Default minimum drain-heap size before lazy-deletion garbage is
/// compacted away (below this, stale entries are cheaper than a
/// rebuild).
const HEAP_COMPACTION_MIN: usize = 64;

/// Lifecycle events (injections, drains, completions) processed by all
/// [`FlowNetwork`] instances in this process. Benchmarks read it to
/// report `events_per_sec` without threading counters through every
/// harness.
static GLOBAL_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Drain-heap compactions performed by all networks in this process
/// (see [`FlowNetwork::heap_compactions`]).
static GLOBAL_COMPACTIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide lifecycle event count (injections + drains +
/// completions) across every [`FlowNetwork`] ever constructed.
/// Monotonic; sample before and after a workload and subtract.
pub fn global_events_processed() -> u64 {
    GLOBAL_EVENTS.load(Ordering::Relaxed)
}

/// Process-wide drain-heap compaction count across every
/// [`FlowNetwork`] ever constructed. Monotonic; exported as
/// `sim.solver/heap_compactions` in bench reports.
pub fn global_heap_compactions() -> u64 {
    GLOBAL_COMPACTIONS.load(Ordering::Relaxed)
}

/// The event-loop fields of one bandwidth-consuming flow: a slab
/// element of the network and of its [`CoreState`]. Its route and rate
/// live in the solver under the same key. Every field that feeds future
/// arithmetic (the byte watermark, the drain-entry generation) is
/// carried verbatim, so a restored network continues the exact float
/// sequence and rebuilds the exact drain entry.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowState {
    /// The id returned by [`FlowNetwork::inject`].
    pub id: FlowId,
    /// Priority class.
    pub priority: Priority,
    /// Tenant rank.
    pub tenant: u8,
    /// Caller tag.
    pub tag: u64,
    /// Bytes left as of `updated_at` (lazy accounting).
    pub remaining: f64,
    /// Watermark of the last byte settlement / rate change.
    pub updated_at: Time,
    /// Generation of this flow's live drain-heap entry (0 until its
    /// first rate assignment); entries with a stale generation are
    /// discarded on pop.
    pub generation: u64,
    /// Injection instant.
    pub injected_at: Time,
    /// Tail (route) latency.
    pub latency: Duration,
}

impl FlowState {
    /// Debits the bytes moved at `rate` since the watermark and moves
    /// the watermark to `now`.
    fn settle(&mut self, rate: f64, now: Time) {
        let dt = (now - self.updated_at).as_secs();
        if rate > 0.0 && dt > 0.0 {
            self.remaining -= (rate * dt).min(self.remaining);
        }
        self.updated_at = now;
    }

    /// When this flow drains at `rate` (positive) from its settled
    /// bytes: the instant of the drain entry its last rate assignment
    /// pushed.
    ///
    /// # Panics
    ///
    /// Panics if the flow never drains (`remaining / rate` is not
    /// finite).
    fn drain_instant(&self, rate: f64) -> Time {
        self.updated_at + Duration::from_secs((self.remaining / rate).max(0.0))
    }
}

/// A flow forcibly removed from the network by [`FlowNetwork::fail_link`]
/// because its route crossed the failed link. The caller (the trainer's
/// fault handler, or any re-planning layer) is expected to re-route the
/// remaining bytes and re-inject them.
#[derive(Debug, Clone, PartialEq)]
pub struct EvictedFlow {
    /// The id the flow had while in flight.
    pub id: FlowId,
    /// The tag from the [`FlowSpec`].
    pub tag: u64,
    /// The flow's priority class.
    pub priority: Priority,
    /// The flow's tenant rank (preserve it when re-injecting, or the
    /// flow loses its isolation class).
    pub tenant: u8,
    /// Bytes still unsent when the link died (the payload to re-inject).
    pub remaining_bytes: f64,
    /// The route the flow was using (crosses the failed link).
    pub route: Route,
    /// When the flow was originally injected.
    pub injected_at: Time,
}

/// Record of a finished flow.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedFlow {
    /// The id returned by [`FlowNetwork::inject`].
    pub id: FlowId,
    /// The tag from the [`FlowSpec`].
    pub tag: u64,
    /// The flow's priority class.
    pub priority: Priority,
    /// When the flow was injected.
    pub injected_at: Time,
    /// When the last byte arrived at the destination.
    pub completed_at: Time,
}

/// The order completions surface in: by arrival, ties by flow id.
fn completion_key(c: &CompletedFlow) -> (Time, FlowId) {
    (c.completed_at, c.id)
}

/// A drained flow waiting out its tail latency: the completion record
/// it becomes, ordered by [`completion_key`].
#[derive(Debug, Clone, PartialEq)]
struct PendingNotice(CompletedFlow);

impl Eq for PendingNotice {}
impl Ord for PendingNotice {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        completion_key(&self.0).cmp(&completion_key(&other.0))
    }
}
impl PartialOrd for PendingNotice {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A scheduled drain instant: `(when, flow id, generation, slot)`. The
/// generation pins the entry to one rate assignment; re-pushing on
/// every rate change plus discarding stale generations implements a
/// decrease-key-free priority queue (lazy deletion). Ties at one
/// instant break on the *flow id*, which is stable under solver-slot
/// reuse, so the pop order does not depend on how generation numbers
/// were interleaved.
type DrainEntry = Reverse<(Time, u64, u64, u32)>;

/// Serializable image of a [`FlowNetwork`]: the simulation state the
/// next event needs, structurally faithful down to slab holes. Captured
/// by [`FlowNetwork::snapshot`]; restoring and running to completion is
/// bit-identical to never having paused, and two networks in the same
/// simulated state capture equal states.
///
/// Deliberately excluded: the telemetry sink (configuration, supplied
/// on restore), solver scratch (restarted at zero), the drain-heap
/// compaction floor and count (a test hook and a statistic, back at the
/// default and at zero after a restore), the process-wide counters
/// (profiling aggregates, not simulation state), and what restore
/// derives from the rest: the drain heap (one entry per flow with a
/// positive rate, from its settled bytes and rate) with its live-entry
/// count, and the telemetry mirror of per-link allocations, which is
/// the solver's allocation.
///
/// The fields are plain data, and any values of their types decode:
/// how they relate to each other and to the topology is checked by
/// [`FlowNetwork::restore`], the one judge of a capture.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreState {
    /// Simulation clock.
    pub now: Time,
    /// Next flow id to allocate.
    pub next_id: u64,
    /// The flow slab, holes included (slot = solver [`FlowKey`]).
    pub flows: Vec<Option<FlowState>>,
    /// The fair-share solver's image: routes, rates, link capacities.
    pub solver: crate::solver::SolverState,
    /// Drain-entry generation counter: the last generation assigned.
    pub next_generation: u64,
    /// Drained flows waiting out their tail latency, as the completion
    /// records they become, sorted by `(completed_at, id)`.
    pub pending: Vec<CompletedFlow>,
    /// Completions buffered but not yet drained by the caller.
    pub completed: Vec<CompletedFlow>,
    /// Links killed by faults.
    pub failed: Vec<bool>,
    /// Lifecycle events processed by this network.
    pub events: u64,
}

/// Flow-level network simulator over a fixed [`Topology`].
///
/// See the [crate-level example](crate) for basic usage.
#[derive(Debug)]
pub struct FlowNetwork {
    topo: Topology,
    now: Time,
    next_id: u64,
    /// Bandwidth-consuming flows, indexed by solver [`FlowKey`]. The
    /// solver's slab and this one allocate keys in lockstep (one
    /// `add_flow`/`remove_flow` per slot transition), so the key is
    /// shared.
    flows: Vec<Option<FlowState>>,
    solver: FairShareSolver,
    /// Predicted drain instants (lazy deletion via generations).
    drains: BinaryHeap<DrainEntry>,
    /// Entries in `drains` whose generation is still live (one per
    /// flow with a positive rate); the rest is lazy-deletion garbage
    /// that compaction reclaims.
    live_drains: usize,
    /// Heap size below which compaction never runs.
    compaction_min: usize,
    compactions: u64,
    next_generation: u64,
    /// Drained flows waiting out their tail latency.
    pending: BinaryHeap<Reverse<PendingNotice>>,
    completed: Vec<CompletedFlow>,
    /// Links killed by [`FlowNetwork::fail_link`]; failed links reject
    /// new injections and are what routing layers must detour around.
    failed: Vec<bool>,
    events: u64,
    /// Telemetry sink; [`NullSink`] (zero overhead) by default.
    sink: Rc<dyn TraceSink>,
    /// Cached `sink.enabled()`: every emission site checks this flag
    /// before building an event.
    tracing: bool,
    /// Last emitted per-link allocated rate (telemetry scratch; only
    /// maintained while tracing, when it equals the solver's
    /// allocation after every solve).
    link_alloc: Vec<f64>,
    /// Reusable buffer for the changed flows of a refill, each with
    /// its rate before the refill.
    changed_scratch: Vec<(FlowKey, f64)>,
}

impl FlowNetwork {
    /// Creates a simulator over `topo` with the clock at zero and
    /// tracing disabled.
    pub fn new(topo: Topology) -> FlowNetwork {
        FlowNetwork::with_sink(topo, Rc::new(NullSink))
    }

    /// Creates a simulator that records structured events into `sink`.
    ///
    /// With any sink, simulation results are bit-identical to an
    /// untraced run: instrumentation only observes state.
    pub fn with_sink(topo: Topology, sink: Rc<dyn TraceSink>) -> FlowNetwork {
        let capacities: Vec<f64> = topo.links().map(|(_, l)| l.bandwidth).collect();
        let n = capacities.len();
        let net = FlowNetwork {
            topo,
            now: Time::ZERO,
            next_id: 0,
            flows: Vec::new(),
            solver: FairShareSolver::new(capacities),
            drains: BinaryHeap::new(),
            live_drains: 0,
            compaction_min: HEAP_COMPACTION_MIN,
            compactions: 0,
            next_generation: 0,
            pending: BinaryHeap::new(),
            completed: Vec::new(),
            failed: vec![false; n],
            events: 0,
            tracing: sink.enabled(),
            sink,
            link_alloc: vec![0.0; n],
            changed_scratch: Vec::new(),
        };
        net.record_topology();
        net
    }

    /// Marks the start of a simulation segment within the recording
    /// and gives the analysis layer the capacities it needs to re-cost
    /// flows at their contention-free rate.
    fn record_topology(&self) {
        if self.tracing {
            self.sink.record(TraceEvent::Topology {
                t: self.now.as_secs(),
                capacities: self.solver.capacities().into(),
            });
        }
    }

    /// The telemetry sink events are recorded into. Higher layers
    /// (collective execution, the trainer) emit their span events
    /// through this same sink so one trace holds the whole story.
    pub fn sink(&self) -> &Rc<dyn TraceSink> {
        &self.sink
    }

    /// The current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of flows currently consuming bandwidth or waiting out their
    /// tail latency.
    pub fn in_flight(&self) -> usize {
        self.solver.len() + self.pending.len()
    }

    /// Drain-heap compactions this instance has performed since it was
    /// built or restored; a restored heap holds no garbage, so the count
    /// starts at zero (see [`global_heap_compactions`] for the
    /// process-wide counter behind the `sim.solver/heap_compactions`
    /// report key).
    pub fn heap_compactions(&self) -> u64 {
        self.compactions
    }

    /// The incremental solver's cost counters (solves, whole-set
    /// solves, refilled flows).
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.stats()
    }

    fn count_event(&mut self) {
        self.events += 1;
        GLOBAL_EVENTS.fetch_add(1, Ordering::Relaxed);
    }

    /// Injects a flow at the current time. The solver delta is deferred:
    /// all injections and completions at one timestamp are flushed as a
    /// single refill by the next [`FlowNetwork::next_event`] /
    /// [`FlowNetwork::advance_to`].
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] if the route is not a contiguous path in
    /// the topology or crosses a link killed by
    /// [`FlowNetwork::fail_link`]. The network is unchanged on error.
    pub fn inject(&mut self, spec: FlowSpec) -> Result<FlowId, RouteError> {
        self.check_route(&spec.route)?;
        Ok(self.inject_checked(spec))
    }

    /// Injects several flows at the current time. Since the solver runs
    /// lazily, this is equivalent to repeated [`FlowNetwork::inject`]
    /// calls; it is kept as the idiomatic entry point for starting a
    /// collective phase.
    ///
    /// # Errors
    ///
    /// Returns the first [`RouteError`] among the specs. Every route is
    /// validated up front, so on error *no* flow has been injected —
    /// a phase either starts whole or not at all.
    pub fn inject_batch(&mut self, specs: Vec<FlowSpec>) -> Result<Vec<FlowId>, RouteError> {
        let _prof = fred_telemetry::prof::scope("netsim.inject_batch");
        fred_telemetry::prof::record_value("netsim.inject_batch_flows", specs.len() as f64);
        for spec in &specs {
            self.check_route(&spec.route)?;
        }
        Ok(specs
            .into_iter()
            .map(|spec| self.inject_checked(spec))
            .collect())
    }

    /// Rejects a route that is not a contiguous path in the topology or
    /// that crosses a failed link.
    fn check_route(&self, route: &[LinkId]) -> Result<(), RouteError> {
        self.topo.validate_route(route)?;
        match route.iter().find(|l| self.failed[l.0]) {
            Some(&dead) => Err(RouteError::FailedLink(dead)),
            None => Ok(()),
        }
    }

    /// [`FlowNetwork::inject`] for a route [`FlowNetwork::check_route`]
    /// accepted.
    fn inject_checked(&mut self, spec: FlowSpec) -> FlowId {
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let flow = FlowState {
            id,
            priority: spec.priority,
            tenant: spec.tenant,
            tag: spec.tag,
            remaining: spec.bytes,
            updated_at: self.now,
            generation: 0,
            injected_at: self.now,
            latency: self.topo.route_latency(&spec.route),
        };
        self.count_event();
        if self.tracing {
            self.sink.record(TraceEvent::FlowInjected {
                t: self.now.as_secs(),
                id: id.0,
                tag: flow.tag,
                bytes: spec.bytes,
                track: track_of(flow.priority),
                links: spec.route.iter().map(|l| l.0 as u32).collect(),
            });
        }
        if flow.remaining <= DRAIN_EPS || spec.route.is_empty() {
            // Nothing to drain (or node-local): completes after latency.
            self.count_event(); // its drain is implicit
            self.push_pending(flow);
        } else {
            let class = fill_class(flow.tenant, flow.priority);
            let links = spec.route.iter().map(|l| l.0).collect();
            let slot = self.solver.add_flow_class(links, class).0 as usize;
            if slot == self.flows.len() {
                self.flows.push(Some(flow));
            } else {
                debug_assert!(self.flows[slot].is_none(), "solver key collision");
                self.flows[slot] = Some(flow);
            }
        }
        id
    }

    /// Current capacity of a link (bytes/s): the topology bandwidth,
    /// reduced by [`FlowNetwork::degrade_link`], zero after
    /// [`FlowNetwork::fail_link`].
    pub fn link_capacity(&self, link: LinkId) -> f64 {
        self.solver.capacity(link.0)
    }

    /// Whether `link` has been killed by [`FlowNetwork::fail_link`].
    pub fn is_link_failed(&self, link: LinkId) -> bool {
        self.failed[link.0]
    }

    /// Whether any link has been killed (cheap guard: the zero-fault
    /// fast paths branch on this to stay bit-identical to a fault-free
    /// build).
    pub fn any_link_failed(&self) -> bool {
        self.failed.iter().any(|&f| f)
    }

    /// Kills `link` at the current instant: its capacity drops to zero,
    /// new injections across it are rejected, and every in-flight flow
    /// crossing it is *evicted*, in slot order, and returned with its
    /// unsent byte count so the caller can re-route and re-inject. Byte
    /// accounting of evicted flows is settled at their pre-fault rate
    /// up to now. Surviving flows that shared a bottleneck with the
    /// dead link's flows are re-solved by the incremental allocator at
    /// the next event.
    ///
    /// Idempotent: failing an already-dead link evicts nothing.
    pub fn fail_link(&mut self, link: LinkId) -> Vec<EvictedFlow> {
        if self.failed[link.0] {
            return Vec::new();
        }
        self.failed[link.0] = true;
        self.solver.set_capacity(link.0, 0.0);
        // A route crossing the link twice is listed twice.
        let mut victims = self.solver.link_flows(link.0).to_vec();
        victims.sort_unstable();
        victims.dedup();
        let evicted: Vec<EvictedFlow> = victims
            .into_iter()
            .map(|key| self.evict_slot(key as usize))
            .collect();
        if self.tracing {
            self.sink.record(TraceEvent::Fault {
                t: self.now.as_secs(),
                link: link.0 as u32,
                capacity_fraction: 0.0,
                evicted: evicted.len() as u32,
            });
        }
        evicted
    }

    /// Degrades `link` to `fraction` of its topology bandwidth (a lossy
    /// port surviving at reduced width). Flows crossing it keep flowing
    /// at the re-solved lower rate; nothing is evicted. A `fraction` of
    /// `0.0` is a full failure — use [`FlowNetwork::fail_link`], which
    /// also evicts. A link [`FlowNetwork::fail_link`] killed stays dead:
    /// degrading it changes nothing and records no event.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0.0, 1.0]`.
    pub fn degrade_link(&mut self, link: LinkId, fraction: f64) {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "degrade fraction must be in (0, 1], got {fraction} (use fail_link for 0)"
        );
        if self.failed[link.0] {
            return;
        }
        self.solver
            .set_capacity(link.0, self.topo.link(link).bandwidth * fraction);
        if self.tracing {
            self.sink.record(TraceEvent::Fault {
                t: self.now.as_secs(),
                link: link.0 as u32,
                capacity_fraction: fraction,
                evicted: 0,
            });
        }
    }

    /// Forcibly evicts every bandwidth-consuming flow whose tag
    /// satisfies `pred`, in slot order, settling moved bytes exactly
    /// like a link-fault eviction but leaving link capacities untouched
    /// — the preemption entry point for a scheduling layer that owns
    /// disjoint tag ranges per job. Flows already drained and waiting
    /// out their tail latency are *not* recalled; their completions
    /// still surface and the caller is expected to drop retired tags.
    pub fn evict_flows_matching(&mut self, mut pred: impl FnMut(u64) -> bool) -> Vec<EvictedFlow> {
        let mut evicted = Vec::new();
        for slot in 0..self.flows.len() {
            if self.flows[slot].as_ref().is_some_and(|f| pred(f.tag)) {
                evicted.push(self.evict_slot(slot));
            }
        }
        evicted
    }

    /// Removes the flow in `slot` from the active set, settling the
    /// bytes it moved at its pre-eviction rate up to now. The stale
    /// drain prediction is discarded on pop (empty slot / bumped
    /// generation).
    fn evict_slot(&mut self, slot: usize) -> EvictedFlow {
        let key = FlowKey(slot as u32);
        let mut f = self.flows[slot].take().expect("evict_slot on a dead slot");
        let rate = self.solver.rate(key);
        if rate > 0.0 {
            // Its live drain entry just went stale.
            self.live_drains -= 1;
        }
        f.settle(rate, self.now);
        let route = self
            .solver
            .flow_links(key)
            .iter()
            .map(|&l| LinkId(l))
            .collect();
        self.solver.remove_flow(key);
        self.count_event();
        EvictedFlow {
            id: f.id,
            tag: f.tag,
            priority: f.priority,
            tenant: f.tenant,
            remaining_bytes: f.remaining,
            route,
            injected_at: f.injected_at,
        }
    }

    fn push_pending(&mut self, f: FlowState) {
        self.pending.push(Reverse(PendingNotice(CompletedFlow {
            id: f.id,
            tag: f.tag,
            priority: f.priority,
            injected_at: f.injected_at,
            completed_at: self.now + f.latency,
        })));
    }

    /// Flushes pending solver deltas: one component-local refill
    /// covering every injection/completion since the last flush.
    /// Settles byte accounting and re-predicts drain times for exactly
    /// the flows whose rate changed.
    fn flush_rates(&mut self) {
        if !self.solver.solve() {
            return;
        }
        let mut changed = std::mem::take(&mut self.changed_scratch);
        changed.clear();
        changed.extend_from_slice(self.solver.changed_flows());
        let now = self.now;
        for &(key, old_rate) in &changed {
            let f = self.flows[key.0 as usize]
                .as_mut()
                .expect("solver changed a dead flow");
            // Debit bytes moved at the old rate up to now.
            f.settle(old_rate, now);
            if old_rate > 0.0 {
                // The generation bump below invalidates its live entry.
                self.live_drains -= 1;
            }
            let rate = self.solver.rate(key);
            // Feasibility: no allocation can beat the flow's solo
            // (bottleneck-capacity) rate — the ideal rate the analysis
            // layer re-costs against.
            debug_assert!(
                rate <= crate::fairshare::solo_rate(
                    self.solver.capacities(),
                    self.solver.flow_links(key)
                ) + 1e-9,
                "allocated rate exceeds contention-free rate"
            );
            // Re-predict the drain. The old heap entry (if any) is
            // invalidated by the generation bump and discarded on pop.
            self.next_generation += 1;
            f.generation = self.next_generation;
            if rate > 0.0 {
                let at = f.drain_instant(rate);
                self.drains.push(Reverse((at, f.id.0, f.generation, key.0)));
                self.live_drains += 1;
            }
        }
        if self.tracing {
            self.emit_rate_telemetry(changed.len() as u32);
        }
        // Heap depth after re-prediction, stale (lazy-deleted) entries
        // included: the churn that compaction has to keep in check.
        fred_telemetry::prof::record_value("netsim.drain_heap_depth", self.drains.len() as f64);
        self.changed_scratch = changed;
        self.maybe_compact();
    }

    /// Rebuilds the drain heap without its lazy-deletion garbage once
    /// dead entries exceed half the heap (and the heap is big enough
    /// for the rebuild to pay for itself). Pop order is untouched: a
    /// binary heap's pop sequence is a pure function of the entry
    /// *set*, and only provably-stale entries are dropped.
    fn maybe_compact(&mut self) {
        if self.drains.len() < self.compaction_min || self.drains.len() <= 2 * self.live_drains {
            return;
        }
        let mut entries = std::mem::take(&mut self.drains).into_vec();
        entries.retain(|&Reverse((_, _, generation, slot))| {
            self.flows[slot as usize]
                .as_ref()
                .is_some_and(|f| f.generation == generation)
        });
        debug_assert_eq!(entries.len(), self.live_drains, "live-entry count drifted");
        self.drains = BinaryHeap::from(entries);
        self.compactions += 1;
        GLOBAL_COMPACTIONS.fetch_add(1, Ordering::Relaxed);
    }

    /// Emits a rate-reallocation epoch (the active-flow count and how
    /// many flows changed rate) when some rate changed, plus a
    /// utilization sample for every touched link whose allocated rate
    /// moved, even when no rate did: a link whose last flow left
    /// reports its drop to zero. Only called while tracing.
    fn emit_rate_telemetry(&mut self, changed: u32) {
        let t = self.now.as_secs();
        if changed > 0 {
            self.sink.record(TraceEvent::RateEpoch {
                t,
                active_flows: self.solver.len() as u32,
                changed,
            });
        }
        for &l in self.solver.touched_links() {
            let new = self.solver.link_allocated(l);
            let capacity = self.solver.capacity(l);
            if (new - self.link_alloc[l]).abs() > 1e-9 * capacity.max(1.0) {
                // A dead link (capacity 0) reports utilization 0, not NaN.
                let utilization = if capacity > 0.0 { new / capacity } else { 0.0 };
                self.sink.record(TraceEvent::LinkUtil {
                    t,
                    link: l as u32,
                    utilization,
                });
            }
            self.link_alloc[l] = new;
        }
    }

    /// Earliest valid drain prediction, discarding entries orphaned by
    /// rate changes or completed flows.
    fn peek_drain(&mut self) -> Option<Time> {
        while let Some(&Reverse((at, _, generation, slot))) = self.drains.peek() {
            let live = self.flows[slot as usize]
                .as_ref()
                .is_some_and(|f| f.generation == generation);
            if live {
                // Predictions never precede the clock: they are pushed
                // as `now + eta` with `eta >= 0`.
                return Some(at.max(self.now));
            }
            self.drains.pop();
        }
        None
    }

    /// The next instant at which simulator state changes on its own
    /// (a drain finishing or a tail latency expiring), if any.
    ///
    /// Takes `&mut self` because it is also the solver flush point:
    /// deltas accumulated since the last call are folded into one
    /// refill here, which is what coalesces same-timestamp injections
    /// and completions.
    pub fn next_event(&mut self) -> Option<Time> {
        self.flush_rates();
        let drain = self.peek_drain();
        let notice = self.pending.peek().map(|Reverse(p)| p.0.completed_at);
        match (drain, notice) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advances the clock to `t`, processing every internal event on the
    /// way. Completions are buffered; retrieve them with
    /// [`FlowNetwork::drain_completed`].
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub fn advance_to(&mut self, t: Time) {
        assert!(
            t >= self.now,
            "cannot advance backwards: {t} < {}",
            self.now
        );
        loop {
            match self.next_event() {
                Some(te) if te <= t => {
                    self.now = te;
                    self.settle_at(te);
                }
                _ => break,
            }
        }
        self.now = t;
    }

    /// Processes drained flows and expired tail latencies at the current
    /// instant. Termination is structural: every due drain entry either
    /// removes a flow or is a stale discard, so the event loop always
    /// makes progress (no Zeno stalls even when many near-equal flows
    /// finish within float residue of each other).
    fn settle_at(&mut self, t: Time) {
        debug_assert_eq!(t, self.now);
        while let Some(&Reverse((at, _, generation, slot))) = self.drains.peek() {
            if at > self.now {
                break;
            }
            self.drains.pop();
            let slot = slot as usize;
            let stale = self.flows[slot]
                .as_ref()
                .is_none_or(|f| f.generation != generation);
            if stale {
                continue;
            }
            let f = self.flows[slot].take().expect("checked live");
            self.live_drains -= 1;
            self.solver.remove_flow(FlowKey(slot as u32));
            self.count_event();
            if self.tracing {
                self.sink.record(TraceEvent::FlowDrained {
                    t: self.now.as_secs(),
                    id: f.id.0,
                });
            }
            self.push_pending(f);
        }
        // Expired latency tails become completions.
        while let Some(Reverse(p)) = self.pending.peek() {
            if p.0.completed_at <= self.now {
                let Reverse(PendingNotice(c)) = self.pending.pop().expect("peeked");
                self.count_event();
                if self.tracing {
                    self.sink.record(TraceEvent::FlowCompleted {
                        t: c.completed_at.as_secs(),
                        id: c.id.0,
                        tag: c.tag,
                        injected_at: c.injected_at.as_secs(),
                        track: track_of(c.priority),
                    });
                }
                self.completed.push(c);
            } else {
                break;
            }
        }
    }

    /// Removes and returns all buffered completions, ordered by
    /// completion time.
    pub fn drain_completed(&mut self) -> Vec<CompletedFlow> {
        let mut out = std::mem::take(&mut self.completed);
        out.sort_by_key(completion_key);
        out
    }

    /// Runs until every in-flight flow has completed and returns all
    /// completions ordered by completion time.
    ///
    /// # Panics
    ///
    /// Panics if progress stalls (e.g. every remaining flow has rate
    /// zero), which would otherwise loop forever.
    pub fn run_to_completion(&mut self) -> Vec<CompletedFlow> {
        while self.in_flight() > 0 {
            let te = self
                .next_event()
                .expect("in-flight flows but no next event: simulation stalled");
            self.advance_to(te);
        }
        self.drain_completed()
    }

    /// Test hook: lowers the drain-heap compaction floor so small
    /// workloads can exercise the rebuild path (`usize::MAX` disables
    /// compaction entirely). Not simulation state: snapshots leave it
    /// out and a restored network starts at the default.
    pub fn set_heap_compaction_min(&mut self, min: usize) {
        self.compaction_min = min;
    }

    /// Captures the simulator's state. Restoring the capture with
    /// [`FlowNetwork::restore`] and running to completion is
    /// bit-identical (completion times, rate epochs, evicted bytes) to
    /// never having paused. Valid at any point between public calls,
    /// including mid-fault with evicted flows awaiting re-injection.
    /// The drain heap is left out (restore rebuilds it), so the capture
    /// does not depend on when the heap last compacted.
    pub fn snapshot(&self) -> CoreState {
        let mut pending: Vec<CompletedFlow> =
            self.pending.iter().map(|Reverse(p)| p.0.clone()).collect();
        pending.sort_by_key(completion_key);
        CoreState {
            now: self.now,
            next_id: self.next_id,
            flows: self.flows.clone(),
            solver: self.solver.snapshot(),
            next_generation: self.next_generation,
            pending,
            completed: self.completed.clone(),
            failed: self.failed.clone(),
            events: self.events,
        }
    }

    /// Rebuilds a simulator from a [`FlowNetwork::snapshot`] capture
    /// over `topo`, the topology the capture was taken from, recording
    /// into `sink`. When the sink is enabled a fresh
    /// [`TraceEvent::Topology`] marker is emitted at the restored clock
    /// — the same segment marker [`FlowNetwork::with_sink`] emits at
    /// construction — so analysis layers can re-cost the resumed
    /// segment on its own. The drain heap holds one entry `(updated_at +
    /// remaining / rate, id, generation, slot)` per flow with a positive
    /// solver rate, bit for bit the one its last rate assignment pushed;
    /// the lazy-deletion garbage beside it never popped as live. The
    /// telemetry mirror starts as the solver's allocation, so a capture
    /// taken untraced resumes into a traced sink without reporting a
    /// change no solve made.
    ///
    /// # Errors
    ///
    /// This is the one judge of a capture's rules (decoding checks only
    /// shapes). A [`StateMismatch`] names the field at fault if:
    ///
    /// - a per-link vector does not have the topology's link count, or
    ///   a pending seed link or a route crosses a link past it;
    /// - a link's capacity is not between zero and its bandwidth (zero
    ///   once failed);
    /// - the two slabs differ in length or in which slots they occupy,
    ///   or a free key repeats or names an occupied slot;
    /// - a flow's bytes left are not finite or are negative, or its
    ///   generation is above `next_generation` or is 0 while its rate
    ///   is positive (a later flow in its slot could take a retired
    ///   entry for its own);
    /// - a flow's solver class is not [`fill_class`] of its tenant and
    ///   priority, or its tenant is past [`MAX_TENANT`];
    /// - a flow with a positive rate never drains (its drain instant is
    ///   not finite);
    /// - the clock is later than a flow's drain instant or a pending
    ///   notice, or earlier than a flow's injection or byte watermark.
    pub fn restore(
        topo: Topology,
        sink: Rc<dyn TraceSink>,
        state: CoreState,
    ) -> Result<FlowNetwork, StateMismatch> {
        let bad = |field: &'static str, why: String| Err(StateMismatch { field, why });
        let links = topo.links().count();
        for (field, len) in [
            ("solver.capacities", state.solver.capacities.len()),
            ("solver.link_alloc", state.solver.link_alloc.len()),
            ("failed", state.failed.len()),
        ] {
            if len != links {
                let why = format!("covers {len} links but the topology has {links}");
                return bad(field, why);
            }
        }
        if let Some(l) = state.solver.seed_links.iter().find(|&&l| l >= links) {
            let why = format!("link {l} is out of range ({links} links)");
            return bad("solver.seed_links", why);
        }
        // A degraded link keeps a share of its bandwidth; a failed one
        // has none.
        for (LinkId(l), link) in topo.links() {
            let (cap, failed) = (state.solver.capacities[l], state.failed[l]);
            if !(0.0..=link.bandwidth).contains(&cap) || (failed && cap != 0.0) {
                let why = format!(
                    "link {l} (failed: {failed}) has capacity {cap}; its bandwidth is {}",
                    link.bandwidth
                );
                return bad("solver.capacities", why);
            }
        }
        // The two slabs share keys, and the solver's free stack holds
        // each of its empty slots at most once.
        let slots = state.flows.len();
        if state.solver.flows.len() != slots {
            let why = format!("{} slots, the network's {slots}", state.solver.flows.len());
            return bad("solver.flows", why);
        }
        let mut freed = vec![false; slots];
        for &k in &state.solver.free {
            let k = k as usize;
            let empty = matches!(state.solver.flows.get(k), Some(None));
            if !empty || std::mem::replace(&mut freed[k], true) {
                let why = format!("key {k} repeats or names no empty slot");
                return bad("solver.free", why);
            }
        }
        let now = state.now;
        let behind = |what: &str, at: Time| {
            let why = format!("clock {now} is later than the {what} at {at}");
            bad("now", why)
        };
        if let Some(c) = state.pending.iter().find(|c| c.completed_at < now) {
            return behind("pending notice", c.completed_at);
        }
        // Settling a flow debits its bytes from the watermark up to the
        // clock, and each rate assignment stamps a fresh generation on
        // the flow and, when the rate is positive, pushes its drain
        // entry.
        let mut drains = Vec::new();
        let slabs = state.flows.iter().zip(&state.solver.flows);
        for (k, (f, sf)) in slabs.enumerate() {
            let (f, sf) = match (f, sf) {
                (Some(f), Some(sf)) => (f, sf),
                (None, None) => continue,
                _ => {
                    let why = format!("slot {k} is occupied in only one of the two slabs");
                    return bad("flows", why);
                }
            };
            if f.injected_at > now || f.updated_at > now {
                let why = format!(
                    "slot {k} has injected_at {} and updated_at {}, but the clock is {now}",
                    f.injected_at, f.updated_at
                );
                return bad("flows", why);
            }
            if !(f.remaining.is_finite() && f.remaining >= 0.0) {
                let why = format!("slot {k} has {} bytes left", f.remaining);
                return bad("flows", why);
            }
            let rated = sf.rate > 0.0;
            if f.generation > state.next_generation || (rated && f.generation == 0) {
                let why = format!(
                    "slot {k} has generation {} at rate {}; the last one assigned is {}",
                    f.generation, sf.rate, state.next_generation
                );
                return bad("flows", why);
            }
            if f.tenant > MAX_TENANT || sf.class != fill_class(f.tenant, f.priority) {
                let why = format!(
                    "slot {k} has class {}, not that of tenant {} (at most {MAX_TENANT}) at priority {}",
                    sf.class, f.tenant, f.priority
                );
                return bad("solver.flows", why);
            }
            if let Some(l) = sf.links.iter().find(|&&l| l >= links) {
                let why = format!("slot {k} crosses link {l}, out of range ({links} links)");
                return bad("solver.flows", why);
            }
            if rated {
                if !(f.updated_at.as_secs() + f.remaining / sf.rate).is_finite() {
                    let why = format!(
                        "slot {k} never drains its {} bytes at rate {}",
                        f.remaining, sf.rate
                    );
                    return bad("solver.flows", why);
                }
                let at = f.drain_instant(sf.rate);
                if at < now {
                    return behind(&format!("drain of slot {k}"), at);
                }
                drains.push(Reverse((at, f.id.0, f.generation, k as u32)));
            }
        }
        let link_alloc = state.solver.link_alloc.clone();
        let net = FlowNetwork {
            topo,
            now: state.now,
            next_id: state.next_id,
            flows: state.flows,
            solver: FairShareSolver::restore(state.solver),
            live_drains: drains.len(),
            drains: BinaryHeap::from(drains),
            compaction_min: HEAP_COMPACTION_MIN,
            compactions: 0,
            next_generation: state.next_generation,
            pending: state
                .pending
                .into_iter()
                .map(PendingNotice)
                .map(Reverse)
                .collect(),
            completed: state.completed,
            failed: state.failed,
            events: state.events,
            tracing: sink.enabled(),
            sink,
            link_alloc,
            changed_scratch: Vec::new(),
        };
        net.record_topology();
        Ok(net)
    }
}

/// Why [`FlowNetwork::restore`] refused a [`CoreState`]: the field
/// that disagrees with the topology or with the rest of the state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateMismatch {
    /// The [`CoreState`] field at fault.
    pub field: &'static str,
    /// How it disagrees.
    pub why: String,
}

impl fmt::Display for StateMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.why)
    }
}

impl std::error::Error for StateMismatch {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{NodeKind, Topology};

    fn two_node_net(bw: f64, lat: f64) -> (FlowNetwork, crate::topology::LinkId) {
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Npu, "a");
        let b = topo.add_node(NodeKind::Npu, "b");
        let l = topo.add_link(a, b, bw, lat);
        (FlowNetwork::new(topo), l)
    }

    #[test]
    fn single_flow_takes_bytes_over_bandwidth() {
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![l], 500.0)).unwrap();
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert!((done[0].completed_at.as_secs() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn latency_is_appended_after_drain() {
        let (mut net, l) = two_node_net(100.0, 0.5);
        net.inject(FlowSpec::new(vec![l], 100.0)).unwrap();
        let done = net.run_to_completion();
        assert!((done[0].completed_at.as_secs() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        // f0: 100 B, f1: 300 B on a 100 B/s link.
        // Phase 1: both at 50 B/s until f0 drains at t=2 (100 B each).
        // Phase 2: f1 alone at 100 B/s for its remaining 200 B -> t=4.
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![l], 100.0).with_tag(0))
            .unwrap();
        net.inject(FlowSpec::new(vec![l], 300.0).with_tag(1))
            .unwrap();
        let done = net.run_to_completion();
        assert_eq!(done[0].tag, 0);
        assert!((done[0].completed_at.as_secs() - 2.0).abs() < 1e-9);
        assert_eq!(done[1].tag, 1);
        assert!((done[1].completed_at.as_secs() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn priority_preemption_starves_then_releases() {
        // MP flow (100 B) and DP flow (100 B) on the same 100 B/s link:
        // MP finishes at t=1, DP at t=2.
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(
            FlowSpec::new(vec![l], 100.0)
                .with_priority(Priority::Dp)
                .with_tag(3),
        )
        .unwrap();
        net.inject(
            FlowSpec::new(vec![l], 100.0)
                .with_priority(Priority::Mp)
                .with_tag(1),
        )
        .unwrap();
        let done = net.run_to_completion();
        assert_eq!(done[0].tag, 1);
        assert!((done[0].completed_at.as_secs() - 1.0).abs() < 1e-9);
        assert_eq!(done[1].tag, 3);
        assert!((done[1].completed_at.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn late_injection_reallocates() {
        // f0 alone for 1 s (100 B drained), then f1 joins; both at 50 B/s.
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![l], 200.0).with_tag(0))
            .unwrap();
        net.advance_to(Time::from_secs(1.0));
        net.inject(FlowSpec::new(vec![l], 100.0).with_tag(1))
            .unwrap();
        let done = net.run_to_completion();
        // f0 remaining 100 at t=1 -> drains at t=3; f1 100 B -> t=3 too.
        assert!((done[0].completed_at.as_secs() - 3.0).abs() < 1e-9);
        assert!((done[1].completed_at.as_secs() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_flow_completes_after_latency_only() {
        let (mut net, l) = two_node_net(100.0, 0.25);
        net.inject(FlowSpec::new(vec![l], 0.0)).unwrap();
        let done = net.run_to_completion();
        assert!((done[0].completed_at.as_secs() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn node_local_flow_completes_immediately() {
        let (mut net, _) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![], 1e9)).unwrap();
        let done = net.run_to_completion();
        assert_eq!(done[0].completed_at, Time::ZERO);
    }

    #[test]
    fn multi_hop_flow_bounded_by_slowest_link() {
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Npu, "a");
        let b = topo.add_node(NodeKind::SwitchL1, "s");
        let c = topo.add_node(NodeKind::Npu, "c");
        let l0 = topo.add_link(a, b, 100.0, 0.0);
        let l1 = topo.add_link(b, c, 25.0, 0.0);
        let mut net = FlowNetwork::new(topo);
        net.inject(FlowSpec::new(vec![l0, l1], 100.0)).unwrap();
        let done = net.run_to_completion();
        assert!((done[0].completed_at.as_secs() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn inject_batch_matches_sequential_injects() {
        let (mut a, la) = two_node_net(100.0, 0.0);
        let (mut b, lb) = two_node_net(100.0, 0.0);
        let specs_a: Vec<FlowSpec> = (0..5)
            .map(|i| FlowSpec::new(vec![la], 100.0).with_tag(i))
            .collect();
        for s in specs_a {
            a.inject(s).unwrap();
        }
        let specs_b: Vec<FlowSpec> = (0..5)
            .map(|i| FlowSpec::new(vec![lb], 100.0).with_tag(i))
            .collect();
        b.inject_batch(specs_b).unwrap();
        let da = a.run_to_completion();
        let db = b.run_to_completion();
        assert_eq!(da.len(), db.len());
        for (x, y) in da.iter().zip(&db) {
            assert_eq!(x.tag, y.tag);
            assert!((x.completed_at.as_secs() - y.completed_at.as_secs()).abs() < 1e-12);
        }
    }

    #[test]
    fn inject_batch_handles_mixed_empty_and_real_flows() {
        let (mut net, l) = two_node_net(100.0, 0.0);
        let ids = net
            .inject_batch(vec![
                FlowSpec::new(vec![], 1e6).with_tag(0),
                FlowSpec::new(vec![l], 100.0).with_tag(1),
                FlowSpec::new(vec![l], 0.0).with_tag(2),
            ])
            .unwrap();
        assert_eq!(ids.len(), 3);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 3);
        // The node-local and zero-byte flows complete instantly.
        assert_eq!(done[0].completed_at, Time::ZERO);
        assert_eq!(done[1].completed_at, Time::ZERO);
        assert!((done[2].completed_at.as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zeno_guard_terminates_near_equal_flows() {
        // Hundreds of nearly-identical flows completing at nearly the
        // same instant: each due drain prediction removes its flow, so
        // the event loop terminates structurally even when predictions
        // collide within float residue of one another.
        let (mut net, l) = two_node_net(1e12, 2e-8);
        let flows: Vec<FlowSpec> = (0..256)
            .map(|i| FlowSpec::new(vec![l], 1e9 + (i as f64) * 1e-3).with_tag(i))
            .collect();
        net.inject_batch(flows).unwrap();
        let done = net.run_to_completion();
        assert_eq!(done.len(), 256);
    }

    #[test]
    fn deferred_solve_coalesces_same_timestamp_deltas() {
        // 10 separate injects at t=0 must cost one solver refill, not 10.
        let (mut net, l) = two_node_net(100.0, 0.0);
        for i in 0..10 {
            net.inject(FlowSpec::new(vec![l], 100.0).with_tag(i))
                .unwrap();
        }
        assert_eq!(net.solver_stats().solves, 0, "solve must be lazy");
        net.next_event();
        assert_eq!(net.solver_stats().solves, 1, "deltas must coalesce");
        let done = net.run_to_completion();
        assert_eq!(done.len(), 10);
    }

    #[test]
    fn event_counters_track_lifecycle() {
        let before_global = global_events_processed();
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![l], 100.0)).unwrap();
        net.inject(FlowSpec::new(vec![], 1.0)).unwrap();
        net.run_to_completion();
        // 2 injections + 2 drains (one implicit) + 2 completions.
        assert_eq!(net.snapshot().events, 6);
        assert!(global_events_processed() >= before_global + 6);
    }

    #[test]
    fn link_util_drops_to_zero_when_the_last_flow_drains() {
        use fred_telemetry::sink::RingRecorder;

        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Npu, "a");
        let b = topo.add_node(NodeKind::Npu, "b");
        let l = topo.add_link(a, b, 100.0, 0.5);
        let rec = Rc::new(RingRecorder::new());
        let mut net = FlowNetwork::with_sink(topo, rec.clone());
        net.inject(FlowSpec::new(vec![l], 500.0)).unwrap();
        net.run_to_completion();
        // The drain at t = 5 s changes no rate, but it empties the link.
        let last = rec.events().into_iter().rev().find_map(|e| match e {
            TraceEvent::LinkUtil {
                t,
                link,
                utilization,
            } if link as usize == l.0 => Some((t, utilization)),
            _ => None,
        });
        assert_eq!(last, Some((5.0, 0.0)));
        let solver: Vec<f64> = (0..net.link_alloc.len())
            .map(|l| net.solver.link_allocated(l))
            .collect();
        assert_eq!(net.link_alloc, solver);
    }

    #[test]
    fn untraced_capture_resumed_traced_reports_the_same_link_utilization() {
        use fred_telemetry::sink::RingRecorder;

        // Link 0 carries A and B, link 1 carries B and C, 50 B/s each.
        // When A drains at t = 2, B and C still share link 1 at 50 B/s
        // each: link 1's allocation does not move, so no `LinkUtil`
        // for it.
        let run = |capture_at: Option<f64>| {
            let mut topo = Topology::new();
            let a = topo.add_node(NodeKind::Npu, "a");
            let b = topo.add_node(NodeKind::Npu, "b");
            let c = topo.add_node(NodeKind::Npu, "c");
            let l0 = topo.add_link(a, b, 100.0, 0.0);
            let l1 = topo.add_link(b, c, 100.0, 0.0);
            let rec = Rc::new(RingRecorder::new());
            let sink: Rc<dyn TraceSink> = match capture_at {
                Some(_) => Rc::new(NullSink),
                None => rec.clone(),
            };
            let mut net = FlowNetwork::with_sink(topo.clone(), sink);
            for (route, bytes) in [(vec![l0], 100.0), (vec![l0, l1], 300.0), (vec![l1], 1e3)] {
                net.inject(FlowSpec::new(route, bytes)).unwrap();
            }
            if let Some(t) = capture_at {
                net.advance_to(Time::from_secs(t));
                net = FlowNetwork::restore(topo, rec.clone(), net.snapshot()).unwrap();
            }
            net.run_to_completion();
            rec.events()
                .into_iter()
                .filter_map(|e| match e {
                    TraceEvent::LinkUtil {
                        t,
                        link,
                        utilization,
                    } if t > 1.0 => Some((t, link, utilization)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let uninterrupted = run(None);
        assert_eq!(uninterrupted.len(), 3, "{uninterrupted:?}");
        assert_eq!(run(Some(1.0)), uninterrupted);
    }

    #[test]
    fn heap_compaction_triggers_and_preserves_results() {
        // Repeated same-link churn: every injection re-rates the
        // survivor set, orphaning heap entries. With the floor lowered
        // the garbage crosses 50% and compaction must fire — without
        // changing a single completion time relative to a run where
        // compaction is disabled, or a byte of the capture taken before
        // the runs complete.
        let run = |compaction_min: usize| {
            let (mut net, l) = two_node_net(100.0, 1e-6);
            net.set_heap_compaction_min(compaction_min);
            for i in 0..64u64 {
                net.inject(FlowSpec::new(vec![l], 40.0 + i as f64).with_tag(i))
                    .unwrap();
                net.next_event();
            }
            let state = net.snapshot();
            let done = net.run_to_completion();
            let times: Vec<(u64, Time)> = done.iter().map(|c| (c.tag, c.completed_at)).collect();
            (times, net.heap_compactions(), state)
        };
        let (baseline, none, uncompacted) = run(usize::MAX);
        let (compacted, some, state) = run(8);
        assert_eq!(none, 0);
        assert!(some > 0, "compaction never fired");
        assert_eq!(baseline, compacted, "compaction changed results");
        assert_eq!(state, uncompacted, "compaction changed the capture");
    }

    #[test]
    fn compaction_counter_is_global_and_monotone() {
        let before = global_heap_compactions();
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.set_heap_compaction_min(4);
        for i in 0..32u64 {
            net.inject(FlowSpec::new(vec![l], 60.0 + i as f64).with_tag(i))
                .unwrap();
            net.next_event();
        }
        net.run_to_completion();
        assert!(net.heap_compactions() > 0);
        assert!(global_heap_compactions() >= before + net.heap_compactions());
    }

    #[test]
    fn traced_run_matches_untraced_and_records_lifecycle() {
        use fred_telemetry::event::TraceEvent;
        use fred_telemetry::sink::RingRecorder;
        use std::rc::Rc;

        let build = || {
            let mut topo = Topology::new();
            let a = topo.add_node(NodeKind::Npu, "a");
            let b = topo.add_node(NodeKind::Npu, "b");
            let c = topo.add_node(NodeKind::Npu, "c");
            let ab = topo.add_link(a, b, 100.0, 1e-6);
            let bc = topo.add_link(b, c, 50.0, 1e-6);
            (topo, ab, bc)
        };
        let run = |mut net: FlowNetwork| {
            let (_, ab, bc) = build();
            net.inject(
                FlowSpec::new(vec![ab], 100.0)
                    .with_tag(0)
                    .with_priority(Priority::Mp),
            )
            .unwrap();
            net.inject(FlowSpec::new(vec![ab, bc], 300.0).with_tag(1))
                .unwrap();
            net.inject(
                FlowSpec::new(vec![bc], 40.0)
                    .with_tag(2)
                    .with_priority(Priority::Dp),
            )
            .unwrap();
            let mut done = net.run_to_completion();
            done.sort_by_key(|c| c.tag);
            done.iter()
                .map(|c| (c.tag, c.completed_at))
                .collect::<Vec<_>>()
        };

        let (topo, ..) = build();
        let plain = run(FlowNetwork::new(topo));

        let rec = Rc::new(RingRecorder::new());
        let (topo, ..) = build();
        let traced = run(FlowNetwork::with_sink(topo, rec.clone()));

        // Identical simulation results, bit for bit.
        assert_eq!(plain, traced);

        // The recorder saw the full lifecycle of each flow.
        let events = rec.events();
        let injected = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::FlowInjected { .. }))
            .count();
        let drained = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::FlowDrained { .. }))
            .count();
        let completed = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::FlowCompleted { .. }))
            .count();
        assert_eq!(injected, 3);
        assert_eq!(drained, 3);
        assert_eq!(completed, 3);
        // Every rate epoch reports a non-zero changed count (delta-aware
        // emission: epochs where nothing changed are suppressed).
        let epochs: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::RateEpoch { changed, .. } => Some(*changed),
                _ => None,
            })
            .collect();
        assert!(!epochs.is_empty());
        assert!(epochs.iter().all(|&c| c > 0));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::LinkUtil { .. })));
        // Tracks follow the flow priorities.
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::FlowInjected {
                track: fred_telemetry::event::Track::Mp,
                ..
            }
        )));
    }

    #[test]
    fn discontiguous_route_is_a_clean_error() {
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Npu, "a");
        let b = topo.add_node(NodeKind::Npu, "b");
        let c = topo.add_node(NodeKind::Npu, "c");
        let ab = topo.add_link(a, b, 1.0, 0.0);
        let ca = topo.add_link(c, a, 1.0, 0.0);
        let mut net = FlowNetwork::new(topo);
        let err = net.inject(FlowSpec::new(vec![ab, ca], 1.0)).unwrap_err();
        assert!(matches!(err, RouteError::Discontiguous { .. }));
        // Nothing was injected.
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn inject_batch_is_all_or_nothing() {
        let (mut net, l) = two_node_net(100.0, 0.0);
        let err = net
            .inject_batch(vec![
                FlowSpec::new(vec![l], 100.0).with_tag(0),
                FlowSpec::new(vec![LinkId(99)], 100.0).with_tag(1),
            ])
            .unwrap_err();
        assert_eq!(err, RouteError::UnknownLink(LinkId(99)));
        assert_eq!(net.in_flight(), 0, "no partial phase on error");
    }

    #[test]
    fn fail_link_evicts_and_survivors_speed_up() {
        // Two parallel a->b links; one flow on each. Killing link 0
        // mid-drain evicts its flow with the unsent bytes settled, and
        // the other flow is untouched.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Npu, "a");
        let b = topo.add_node(NodeKind::Npu, "b");
        let l0 = topo.add_link(a, b, 100.0, 0.0);
        let l1 = topo.add_link(a, b, 100.0, 0.0);
        let mut net = FlowNetwork::new(topo);
        net.inject(FlowSpec::new(vec![l0], 200.0).with_tag(7))
            .unwrap();
        net.inject(FlowSpec::new(vec![l1], 200.0).with_tag(8))
            .unwrap();
        net.advance_to(Time::from_secs(1.0));
        let evicted = net.fail_link(l0);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].tag, 7);
        assert!((evicted[0].remaining_bytes - 100.0).abs() < 1e-9);
        assert_eq!(evicted[0].route, vec![l0]);
        assert!(net.is_link_failed(l0));
        assert!(net.any_link_failed());
        assert_eq!(net.link_capacity(l0), 0.0);
        // Re-failing is a no-op.
        assert!(net.fail_link(l0).is_empty());
        // New injections across the dead link are rejected…
        let err = net.inject(FlowSpec::new(vec![l0], 1.0)).unwrap_err();
        assert_eq!(err, RouteError::FailedLink(l0));
        // …while the survivor finishes on schedule (200 B at 100 B/s).
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 8);
        assert!((done[0].completed_at.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fail_link_evicts_each_flow_once_in_slot_order() {
        // Links a->b and b->a; one route crosses a->b twice. Freeing
        // slot 0 and refilling it leaves a->b's incidence list out of
        // slot order and holding slot 1 twice.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Npu, "a");
        let b = topo.add_node(NodeKind::Npu, "b");
        let ab = topo.add_link(a, b, 100.0, 0.0);
        let ba = topo.add_link(b, a, 100.0, 0.0);
        let mut net = FlowNetwork::new(topo);
        let routes = [vec![ab], vec![ab, ba, ab], vec![ab], vec![ba, ab], vec![ba]];
        let inject = |net: &mut FlowNetwork, tag: usize| {
            net.inject(FlowSpec::new(routes[tag].clone(), 100.0).with_tag(tag as u64))
                .unwrap();
        };
        for tag in 0..3 {
            inject(&mut net, tag);
        }
        assert_eq!(net.evict_flows_matching(|tag| tag == 0).len(), 1);
        inject(&mut net, 3); // reuses slot 0
        inject(&mut net, 4); // slot 3, never crosses a->b
        let evicted = net.fail_link(ab);
        let tags: Vec<u64> = evicted.iter().map(|e| e.tag).collect();
        assert_eq!(tags, vec![3, 1, 2], "one eviction per flow, in slot order");
        for e in &evicted {
            assert_eq!(e.route, routes[e.tag as usize]);
        }
        assert_eq!(net.in_flight(), 1);
    }

    #[test]
    fn degrading_a_failed_link_leaves_it_dead() {
        use fred_telemetry::sink::RingRecorder;

        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Npu, "a");
        let b = topo.add_node(NodeKind::Npu, "b");
        let l = topo.add_link(a, b, 100.0, 0.0);
        let rec = Rc::new(RingRecorder::new());
        let mut net = FlowNetwork::with_sink(topo, rec.clone());
        net.fail_link(l);
        net.degrade_link(l, 0.5);
        assert!(net.is_link_failed(l));
        assert_eq!(net.link_capacity(l), 0.0);
        let err = net.inject(FlowSpec::new(vec![l], 1.0)).unwrap_err();
        assert_eq!(err, RouteError::FailedLink(l));
        // Only the failure reaches the trace.
        let faults: Vec<(u32, f64)> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Fault {
                    link,
                    capacity_fraction,
                    ..
                } => Some((*link, *capacity_fraction)),
                _ => None,
            })
            .collect();
        assert_eq!(faults, vec![(l.0 as u32, 0.0)]);
    }

    #[test]
    fn fail_link_reallocates_shared_bottleneck() {
        // Flows f0 (l0) and f1 (l1) both continue through shared l2.
        // Killing l0 evicts f0 and f1 inherits the freed l2 share.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Npu, "a");
        let b = topo.add_node(NodeKind::Npu, "b");
        let c = topo.add_node(NodeKind::SwitchL1, "s");
        let d = topo.add_node(NodeKind::Npu, "d");
        let l0 = topo.add_link(a, c, 100.0, 0.0);
        let l1 = topo.add_link(b, c, 100.0, 0.0);
        let l2 = topo.add_link(c, d, 100.0, 0.0);
        let mut net = FlowNetwork::new(topo);
        net.inject(FlowSpec::new(vec![l0, l2], 100.0).with_tag(0))
            .unwrap();
        net.inject(FlowSpec::new(vec![l1, l2], 150.0).with_tag(1))
            .unwrap();
        // Both run at 50 B/s on the l2 bottleneck for 1 s.
        net.advance_to(Time::from_secs(1.0));
        let evicted = net.fail_link(l0);
        assert_eq!(evicted.len(), 1);
        assert!((evicted[0].remaining_bytes - 50.0).abs() < 1e-9);
        // f1 has 100 B left and now owns l2: done at t=2.
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert!((done[0].completed_at.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn evict_flows_matching_preempts_by_tag_and_keeps_tenant() {
        // Two flows on one link, tags 10 and 20. Preempting tag 10 at
        // t=1 settles its half of the shared link and leaves tag 20 to
        // finish alone at full rate.
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![l], 200.0).with_tag(10).with_tenant(2))
            .unwrap();
        net.inject(FlowSpec::new(vec![l], 200.0).with_tag(20).with_tenant(2))
            .unwrap();
        net.advance_to(Time::from_secs(1.0));
        let evicted = net.evict_flows_matching(|tag| tag == 10);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].tag, 10);
        assert_eq!(evicted[0].tenant, 2, "tenant survives eviction");
        // 1 s at 50 B/s each: 150 B unsent.
        assert!((evicted[0].remaining_bytes - 150.0).abs() < 1e-9);
        // No link was failed — this is preemption, not a fault.
        assert!(!net.any_link_failed());
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 20);
        // Remaining 150 B at 100 B/s from t=1.
        assert!((done[0].completed_at.as_secs() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn tenant_ranks_isolate_bandwidth_strictly() {
        // A tenant-1 MP flow yields entirely to a tenant-0 Bulk flow:
        // inter-tenant precedence dominates intra-job priority.
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![l], 100.0).with_tag(1))
            .unwrap();
        net.inject(
            FlowSpec::new(vec![l], 100.0)
                .with_priority(Priority::Mp)
                .with_tag(2)
                .with_tenant(1),
        )
        .unwrap();
        let done = net.run_to_completion();
        assert_eq!(done[0].tag, 1);
        assert!((done[0].completed_at.as_secs() - 1.0).abs() < 1e-9);
        assert_eq!(done[1].tag, 2);
        assert!((done[1].completed_at.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degrade_link_slows_without_evicting() {
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![l], 100.0)).unwrap();
        net.advance_to(Time::from_secs(0.5));
        // Half the bytes are out; the link drops to quarter width.
        net.degrade_link(l, 0.25);
        assert!(!net.is_link_failed(l));
        assert_eq!(net.link_capacity(l), 25.0);
        let done = net.run_to_completion();
        // Remaining 50 B at 25 B/s -> t = 0.5 + 2.0.
        assert_eq!(done.len(), 1);
        assert!((done[0].completed_at.as_secs() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn fault_events_reach_the_sink() {
        use fred_telemetry::sink::RingRecorder;

        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Npu, "a");
        let b = topo.add_node(NodeKind::Npu, "b");
        let l0 = topo.add_link(a, b, 100.0, 0.0);
        let l1 = topo.add_link(a, b, 100.0, 0.0);
        let rec = Rc::new(RingRecorder::new());
        let mut net = FlowNetwork::with_sink(topo, rec.clone());
        net.inject(FlowSpec::new(vec![l0], 100.0)).unwrap();
        net.next_event();
        net.fail_link(l0);
        net.degrade_link(l1, 0.5);
        let faults: Vec<(u32, f64, u32)> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Fault {
                    link,
                    capacity_fraction,
                    evicted,
                    ..
                } => Some((*link, *capacity_fraction, *evicted)),
                _ => None,
            })
            .collect();
        assert_eq!(faults, vec![(l0.0 as u32, 0.0, 1), (l1.0 as u32, 0.5, 0)]);
    }

    #[test]
    fn snapshot_restore_mid_fault_is_bit_identical() {
        // A run with staggered injections, a mid-run link failure and a
        // re-injection of the evicted bytes. Snapshot immediately after
        // the fault (evicted flows in hand, completions buffered,
        // pending deltas unsolved), restore into a fresh network, and
        // the remainder must match the uninterrupted run bit for bit.
        let build = || {
            let mut topo = Topology::new();
            let a = topo.add_node(NodeKind::Npu, "a");
            let b = topo.add_node(NodeKind::Npu, "b");
            let l0 = topo.add_link(a, b, 100.0, 1e-6);
            let l1 = topo.add_link(a, b, 80.0, 2e-6);
            (topo, l0, l1)
        };
        let phase1 = |net: &mut FlowNetwork, l0: LinkId, l1: LinkId| {
            for i in 0..6u64 {
                let l = if i % 2 == 0 { l0 } else { l1 };
                net.inject(FlowSpec::new(vec![l], 120.0 + i as f64).with_tag(i))
                    .unwrap();
            }
            net.advance_to(Time::from_secs(1.0));
            net.inject(FlowSpec::new(vec![l0], 300.0).with_tag(100))
                .unwrap();
            net.advance_to(Time::from_secs(1.5));
            net.fail_link(l0)
        };
        let finish = |net: &mut FlowNetwork, l1: LinkId, evicted: Vec<EvictedFlow>| {
            // Re-route the evicted bytes over the surviving link.
            for ev in evicted {
                net.inject(
                    FlowSpec::new(vec![l1], ev.remaining_bytes)
                        .with_priority(ev.priority)
                        .with_tag(ev.tag + 1000),
                )
                .unwrap();
            }
            let mut done = net.run_to_completion();
            done.sort_by_key(|c| c.tag);
            done.iter()
                .map(|c| (c.tag, c.completed_at.as_secs().to_bits()))
                .collect::<Vec<_>>()
        };

        let (topo, l0, l1) = build();
        let mut base = FlowNetwork::new(topo);
        let ev = phase1(&mut base, l0, l1);
        let uninterrupted = finish(&mut base, l1, ev.clone());

        let (topo, l0b, l1b) = build();
        let mut paused = FlowNetwork::new(topo);
        let ev2 = phase1(&mut paused, l0b, l1b);
        assert_eq!(ev, ev2);
        let state = paused.snapshot();
        drop(paused);
        let (topo, _, l1c) = build();
        let mut resumed = FlowNetwork::restore(topo, Rc::new(NullSink), state.clone()).unwrap();
        // A snapshot of the restored (untouched) network is stable.
        assert_eq!(resumed.snapshot(), state);
        assert_eq!(finish(&mut resumed, l1c, ev2), uninterrupted);
    }
}
