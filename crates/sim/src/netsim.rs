//! The event-driven flow-level network simulator.
//!
//! [`FlowNetwork`] shares a [`Topology`] and owns a set of in-flight
//! flows.
//! Rates come from the persistent incremental allocator
//! ([`crate::solver::FairShareSolver`]): injections and completions are
//! handed to the solver as deltas and *coalesced* — the solver runs
//! lazily at the next [`FlowNetwork::next_event`] /
//! [`FlowNetwork::advance_to`], so all set changes at one timestamp
//! cost a single (component-local) refill. Between refills every flow
//! progresses linearly at its assigned rate, so each flow's drain time
//! is known in closed form the moment its rate is assigned; drain
//! predictions sit in a queue keyed by instant instead of being
//! rediscovered by scanning the active set every event. A collective
//! phase's flows carry equal bytes at equal rates, so the flows one
//! refill re-rates drain at one bit-identical instant: the queue keeps
//! one bucket per distinct instant, and so does the queue of drained
//! flows waiting out their tail latency.
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
//! left and their watermark, the drain-entry generation, injection
//! time and tail latency.

use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use fred_telemetry::event::{TraceEvent, Track};
use fred_telemetry::sink::{NullSink, TraceSink};

use crate::events::InstantQueue;
use crate::flow::{fill_class, FlowId, FlowSpec, Priority, MAX_TENANT};
use crate::solver::{FairShareSolver, FlowKey, SolverStats};
use crate::time::{Duration, Time};
use crate::topology::{LinkId, RouteError, Topology};

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

/// Default minimum number of queued drain entries before lazy-deletion
/// garbage is compacted away (below this, stale entries are cheaper
/// than a sweep).
const HEAP_COMPACTION_MIN: usize = 64;

/// Lifecycle events (injections, drains, completions) processed by all
/// [`FlowNetwork`] instances in this process. Benchmarks read it to
/// report `events_per_sec` without threading counters through every
/// harness.
static GLOBAL_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Drain-queue compactions performed by all networks in this process
/// (see [`FlowNetwork::heap_compactions`]).
static GLOBAL_COMPACTIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide lifecycle event count (injections + drains +
/// completions) across every [`FlowNetwork`] ever constructed.
/// Monotonic; sample before and after a workload and subtract.
pub fn global_events_processed() -> u64 {
    GLOBAL_EVENTS.load(Ordering::Relaxed)
}

fn count_event() {
    GLOBAL_EVENTS.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide drain-queue compaction count across every
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
    /// Generation of this flow's live drain entry (0 until its first
    /// rate assignment); queued entries with a stale generation are
    /// discarded when they are reached.
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

    /// The completion record of this flow drained at `now`: its tail
    /// arrives one route latency later.
    fn notice(&self, now: Time) -> CompletedFlow {
        CompletedFlow {
            id: self.id,
            tag: self.tag,
            priority: self.priority,
            injected_at: self.injected_at,
            completed_at: now + self.latency,
        }
    }

    /// When this flow drains at `rate` from its settled bytes: the
    /// instant of the drain entry a rate assignment of `rate` pushes.
    /// `None`, and no entry, when it never drains: at a rate that is
    /// not positive (zero, or the NaN or negative one only a damaged
    /// capture holds), and when the instant is past the largest
    /// representable time. Such a flow gets its next prediction at its
    /// next re-rate.
    fn drain_instant(&self, rate: f64) -> Option<Time> {
        let at = self.updated_at.as_secs() + (self.remaining / rate).max(0.0);
        (rate > 0.0 && at.is_finite()).then(|| Time::from_secs(at))
    }
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

/// A predicted drain, queued at its instant: flow `id` in solver slot
/// `slot`, as of rate assignment `generation`. Re-queueing on every
/// rate change and discarding entries whose generation is no longer
/// the flow's gives a queue without decrease-key (lazy deletion).
/// Entries due at one instant are taken by ascending flow id, which
/// is stable under solver-slot reuse, so the order does not depend on
/// how generation numbers were interleaved.
#[derive(Debug, Clone, Copy)]
struct Drain {
    id: u64,
    generation: u64,
    slot: u32,
}

impl Drain {
    /// Whether this is its flow's live entry: the slot still holds the
    /// flow at this generation.
    fn is_live(&self, flows: &[Option<FlowState>]) -> bool {
        flows[self.slot as usize]
            .as_ref()
            .is_some_and(|f| f.generation == self.generation)
    }
}

/// Serializable image of a [`FlowNetwork`]: the simulation state the
/// next event needs, structurally faithful down to slab holes. Captured
/// by [`FlowNetwork::snapshot`]; restoring and running to completion is
/// bit-identical to never having paused, and two networks in the same
/// simulated state capture equal states.
///
/// Deliberately excluded: the telemetry sink (configuration, supplied
/// on restore), solver scratch (restarted at zero), the drain-queue
/// compaction floor and the compaction and solver cost counts (a test
/// hook and statistics, back at the default and at zero after a
/// restore), the process-wide counters (profiling aggregates, not
/// simulation state), and what restore derives from the rest: the
/// failed links (those with capacity zero), the drain queue (one entry
/// per flow with a finite drain instant at its positive rate, from its
/// settled bytes and rate) with its live-entry count, the pending
/// notices' queue (each notice at its `completed_at`), and, for an
/// enabled sink, the telemetry mirror of per-link allocations (each
/// link's sum of its flows' rates).
///
/// The fields are plain data, and any values of their types decode:
/// how they relate to each other and to the topology is checked by
/// [`FlowNetwork::restore`], the one judge of a capture and the one
/// place a network is put together: a fresh network is the restore of
/// [`CoreState::new`].
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
}

impl CoreState {
    /// The capture of a fresh network over `topo`: the clock at zero,
    /// no flow, and each link at its bandwidth.
    pub fn new(topo: &Topology) -> CoreState {
        CoreState {
            now: Time::ZERO,
            next_id: 0,
            flows: Vec::new(),
            solver: crate::solver::SolverState::new(
                topo.links().map(|(_, l)| l.bandwidth).collect(),
            ),
            next_generation: 0,
            pending: Vec::new(),
            completed: Vec::new(),
        }
    }
}

/// Flow-level network simulator over a fixed [`Topology`].
///
/// See the [crate-level example](crate) for basic usage.
#[derive(Debug)]
pub struct FlowNetwork {
    /// The topology, shared with the fabric that built it and every
    /// other network over it.
    topo: Rc<Topology>,
    now: Time,
    next_id: u64,
    /// Bandwidth-consuming flows, indexed by solver [`FlowKey`]. The
    /// solver's slab and this one allocate keys in lockstep (one
    /// `add_flow`/`remove_flow` per slot transition), so the key is
    /// shared.
    flows: Vec<Option<FlowState>>,
    solver: FairShareSolver,
    /// Predicted drains by instant (lazy deletion via generations).
    drains: InstantQueue<Drain>,
    /// Entries in `drains` whose generation is still live (one per
    /// flow with a drain instant); the rest is lazy-deletion garbage
    /// that compaction reclaims.
    live_drains: usize,
    /// Queued drain entries below which compaction never runs.
    compaction_min: usize,
    compactions: u64,
    next_generation: u64,
    /// Drained flows waiting out their tail latency, as the completion
    /// records they become, each due at its `completed_at`.
    pending: InstantQueue<CompletedFlow>,
    /// Completions not yet handed out, in `(completed_at, id)` order
    /// unless restored otherwise. Kept across calls, so its buffer is
    /// allocated once.
    completed: Vec<CompletedFlow>,
    /// Telemetry sink; [`NullSink`] (zero overhead) by default.
    sink: Rc<dyn TraceSink>,
    /// Cached `sink.enabled()`: every emission site checks this flag
    /// before building an event.
    tracing: bool,
    /// Per-link allocated rate sums as of each link's last solve, the
    /// `LinkUtil` baseline. Kept only while tracing (empty otherwise).
    link_alloc: Vec<f64>,
    /// Telemetry scratch: the refilled links' sums before the refill.
    alloc_before: Vec<f64>,
}

impl FlowNetwork {
    /// Creates a simulator over `topo` with the clock at zero and
    /// tracing disabled. A shared topology is held, not copied.
    pub fn new(topo: impl Into<Rc<Topology>>) -> FlowNetwork {
        FlowNetwork::with_sink(topo, Rc::new(NullSink))
    }

    /// Creates a simulator that records structured events into `sink`:
    /// the restore of a fresh network's capture ([`CoreState::new`]).
    ///
    /// With any sink, simulation results are bit-identical to an
    /// untraced run: instrumentation only observes state.
    pub fn with_sink(topo: impl Into<Rc<Topology>>, sink: Rc<dyn TraceSink>) -> FlowNetwork {
        let topo = topo.into();
        let fresh = CoreState::new(&topo);
        FlowNetwork::restore(topo, sink, fresh).expect("a fresh network's capture restores")
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

    /// Drain-queue compactions this instance has performed since it
    /// was built or restored; a restored queue holds no garbage, so the
    /// count starts at zero (see [`global_heap_compactions`] for the
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

    /// Injects several flows at the current time, draining `specs` and
    /// leaving its capacity for the caller's next batch. Since the
    /// solver runs lazily, this is equivalent to repeated
    /// [`FlowNetwork::inject`] calls; it is kept as the idiomatic entry
    /// point for starting a collective phase.
    ///
    /// # Errors
    ///
    /// Returns the first [`RouteError`] among the specs. Every route is
    /// validated up front, so on error *no* flow has been injected and
    /// `specs` is left as it was — a phase either starts whole or not
    /// at all.
    pub fn inject_batch(&mut self, specs: &mut Vec<FlowSpec>) -> Result<(), RouteError> {
        let _prof = fred_telemetry::prof::scope("netsim.inject_batch");
        fred_telemetry::prof::record_value("netsim.inject_batch_flows", specs.len() as f64);
        for spec in specs.iter() {
            self.check_route(&spec.route)?;
        }
        for spec in specs.drain(..) {
            self.inject_checked(spec);
        }
        Ok(())
    }

    /// Rejects a route that is not a contiguous path in the topology or
    /// that crosses a failed link.
    fn check_route(&self, route: &[LinkId]) -> Result<(), RouteError> {
        self.topo.validate_route(route)?;
        match route.iter().find(|&&l| self.is_link_failed(l)) {
            Some(&dead) => Err(RouteError::FailedLink(dead)),
            None => Ok(()),
        }
    }

    /// [`FlowNetwork::inject`] for a route [`FlowNetwork::check_route`]
    /// accepted. A bandwidth-consuming flow's shared route moves into
    /// the solver as is.
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
        count_event();
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
            count_event(); // its drain is implicit
            let notice = flow.notice(self.now);
            self.pending.push(notice.completed_at, notice);
        } else {
            let class = fill_class(flow.tenant, flow.priority);
            let slot = self.solver.add_flow_class(spec.route, class).0 as usize;
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

    /// Whether `link` has been killed by [`FlowNetwork::fail_link`]:
    /// its capacity is zero, which no live or degraded link has.
    pub fn is_link_failed(&self, link: LinkId) -> bool {
        self.solver.capacity(link.0) == 0.0
    }

    /// Whether any link has been killed (cheap guard: the zero-fault
    /// fast paths branch on this to stay bit-identical to a fault-free
    /// build).
    pub fn any_link_failed(&self) -> bool {
        self.solver.capacities().contains(&0.0)
    }

    /// Kills `link` at the current instant: its capacity drops to zero,
    /// new injections across it are rejected, and every in-flight flow
    /// crossing it is *evicted*, in slot order, and returned as the
    /// [`FlowSpec`] of its unsent bytes (see
    /// [`FlowNetwork::evict_flows_matching`]) so the caller can re-route
    /// and re-inject it. Byte accounting of evicted flows is settled at
    /// their pre-fault rate up to now. Surviving flows that shared a
    /// bottleneck with the dead link's flows are re-solved by the
    /// incremental allocator at the next event.
    ///
    /// Idempotent: failing an already-dead link evicts nothing.
    pub fn fail_link(&mut self, link: LinkId) -> Vec<FlowSpec> {
        if self.is_link_failed(link) {
            return Vec::new();
        }
        self.solver.set_capacity(link.0, 0.0);
        // A route crossing the link twice is listed twice.
        let mut victims = self.solver.link_flows(link.0).to_vec();
        victims.sort_unstable();
        victims.dedup();
        let evicted: Vec<FlowSpec> = victims
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
    /// Panics if `fraction` is not in `(0.0, 1.0]`, or if the degraded
    /// capacity underflows to zero, which would read as a failure.
    pub fn degrade_link(&mut self, link: LinkId, fraction: f64) {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "degrade fraction must be in (0, 1], got {fraction} (use fail_link for 0)"
        );
        let capacity = self.topo.link(link).bandwidth * fraction;
        assert!(
            capacity > 0.0,
            "degrading {link} by {fraction} leaves no capacity (use fail_link for 0)"
        );
        if self.is_link_failed(link) {
            return;
        }
        self.solver.set_capacity(link.0, capacity);
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
    /// disjoint tag ranges per job. Each evicted flow comes back as the
    /// [`FlowSpec`] of its unsent bytes: its shared route (the
    /// allocation it was injected with), priority, tag and tenant.
    /// Flows already drained and waiting out their tail latency are
    /// *not* recalled; their completions still surface and the caller
    /// is expected to drop retired tags.
    pub fn evict_flows_matching(&mut self, mut pred: impl FnMut(u64) -> bool) -> Vec<FlowSpec> {
        let mut evicted = Vec::new();
        for slot in 0..self.flows.len() {
            if self.flows[slot].as_ref().is_some_and(|f| pred(f.tag)) {
                evicted.push(self.evict_slot(slot));
            }
        }
        evicted
    }

    /// Removes the flow in `slot` from the active set, settling the
    /// bytes it moved at its pre-eviction rate up to now, and returns
    /// the spec of its unsent bytes. The stale drain prediction is
    /// discarded on pop (empty slot / bumped generation).
    fn evict_slot(&mut self, slot: usize) -> FlowSpec {
        let key = FlowKey(slot as u32);
        let mut f = self.flows[slot].take().expect("evict_slot on a dead slot");
        let rate = self.solver.rate(key);
        if f.drain_instant(rate).is_some() {
            // Its live drain entry just went stale.
            self.live_drains -= 1;
        }
        f.settle(rate, self.now);
        let route = Rc::clone(self.solver.flow_links(key));
        self.solver.remove_flow(key);
        count_event();
        FlowSpec {
            route,
            bytes: f.remaining,
            priority: f.priority,
            tag: f.tag,
            tenant: f.tenant,
        }
    }

    /// Flushes pending solver deltas: one component-local refill
    /// covering every injection/completion since the last flush.
    /// Settles byte accounting and re-predicts drain times for exactly
    /// the flows whose rate changed.
    fn flush_rates(&mut self) {
        if !self.solver.solve() {
            return;
        }
        let changed = self.solver.changed_flows();
        let changed_count = changed.len() as u32;
        let now = self.now;
        let predictions = changed.iter().filter_map(|&(key, old_rate)| {
            let f = self.flows[key.0 as usize]
                .as_mut()
                .expect("solver changed a dead flow");
            if f.drain_instant(old_rate).is_some() {
                // The generation bump below invalidates its live entry.
                self.live_drains -= 1;
            }
            // Debit bytes moved at the old rate up to now.
            f.settle(old_rate, now);
            let rate = self.solver.rate(key);
            // Feasibility: no allocation can beat the flow's solo
            // (bottleneck-capacity) rate — the ideal rate the analysis
            // layer re-costs against. It is `fairshare::solo_rate`,
            // taken in place: that function wants link indices, and
            // collecting them would allocate per re-rated flow.
            debug_assert!(
                rate <= self
                    .solver
                    .flow_links(key)
                    .iter()
                    .map(|l| self.solver.capacity(l.0))
                    .fold(f64::INFINITY, f64::min)
                    + 1e-9,
                "allocated rate exceeds contention-free rate"
            );
            // Re-predict the drain. The old entry (if any) is
            // invalidated by the generation bump and discarded when
            // reached.
            self.next_generation += 1;
            f.generation = self.next_generation;
            let at = f.drain_instant(rate)?;
            self.live_drains += 1;
            let drain = Drain {
                id: f.id.0,
                generation: f.generation,
                slot: key.0,
            };
            Some((at, drain))
        });
        // The re-rated flows of a collective phase drain at one instant,
        // so the queue groups these entries into few runs.
        self.drains.extend(predictions);
        if self.tracing {
            self.emit_rate_telemetry(changed_count);
        }
        // Queued entries after re-prediction, stale (lazy-deleted) ones
        // included: the churn that compaction has to keep in check.
        fred_telemetry::prof::record_value("netsim.drain_heap_depth", self.drains.len() as f64);
        self.maybe_compact();
    }

    /// Sweeps the lazy-deletion garbage out of the drain queue once
    /// dead entries exceed half the queue (and the queue is big enough
    /// for the sweep to pay for itself). No result moves: only
    /// provably-stale entries are dropped, and stale entries are
    /// skipped wherever they are met.
    fn maybe_compact(&mut self) {
        if self.drains.len() < self.compaction_min || self.drains.len() <= 2 * self.live_drains {
            return;
        }
        let flows = &self.flows;
        self.drains.retain(|d| d.is_live(flows));
        debug_assert_eq!(
            self.drains.len(),
            self.live_drains,
            "live-entry count drifted"
        );
        self.compactions += 1;
        GLOBAL_COMPACTIONS.fetch_add(1, Ordering::Relaxed);
    }

    /// Emits a rate-reallocation epoch (the active-flow count and how
    /// many flows changed rate) when some rate changed, plus a
    /// utilization sample for every touched link whose allocated rate
    /// moved, even when no rate did: a link whose last flow left
    /// reports its drop to zero. Only called while tracing.
    ///
    /// Each touched link's sum is rebuilt from the refilled component,
    /// flows by ascending key and each route in order, so a link's sum
    /// takes the same float operations however the flow set got there.
    fn emit_rate_telemetry(&mut self, changed: u32) {
        let t = self.now.as_secs();
        if changed > 0 {
            self.sink.record(TraceEvent::RateEpoch {
                t,
                active_flows: self.solver.len() as u32,
                changed,
            });
        }
        let links = self.solver.touched_links();
        self.alloc_before.clear();
        for &l in links {
            self.alloc_before
                .push(std::mem::replace(&mut self.link_alloc[l], 0.0));
        }
        for f in self.solver.touched_flows() {
            for &LinkId(l) in f.links.iter() {
                self.link_alloc[l] += f.rate;
            }
        }
        for (&l, &before) in links.iter().zip(&self.alloc_before) {
            let new = self.link_alloc[l];
            let capacity = self.solver.capacity(l);
            if (new - before).abs() > 1e-9 * capacity.max(1.0) {
                // A dead link (capacity 0) reports utilization 0, not NaN.
                let utilization = if capacity > 0.0 { new / capacity } else { 0.0 };
                self.sink.record(TraceEvent::LinkUtil {
                    t,
                    link: l as u32,
                    utilization,
                });
            }
        }
    }

    /// Earliest valid drain prediction, discarding entries orphaned by
    /// rate changes or completed flows.
    fn peek_drain(&mut self) -> Option<Time> {
        let flows = &self.flows;
        // Predictions never precede the clock: they are pushed as
        // `now + eta` with `eta >= 0`.
        let at = self.drains.first_live(|d| d.is_live(flows))?;
        Some(at.max(self.now))
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
        // Notices are never stale.
        let notice = self.pending.first_instant();
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
    /// instant. Each due bucket is taken in instant order and its
    /// entries by ascending flow id: drains `(at, id)` (a flow has one
    /// live entry), so the solver frees slots in that order, and
    /// notices `(completed_at, id)`, the order completions surface in.
    /// Termination is structural: every due drain entry either removes
    /// a flow or is a stale discard, so the event loop always makes
    /// progress (no Zeno stalls even when many near-equal flows finish
    /// within float residue of each other).
    fn settle_at(&mut self, t: Time) {
        debug_assert_eq!(t, self.now);
        let now = self.now;
        while let Some(mut due) = self.drains.take_due(now) {
            let flows = &self.flows;
            due.retain(|d| d.is_live(flows));
            due.sort_unstable_by_key(|d| d.id);
            self.live_drains -= due.len();
            // Each drained flow leaves the solver, in id order, and its
            // notice is queued at its arrival.
            self.pending.extend(due.iter().map(|d| {
                let f = self.flows[d.slot as usize].take().expect("checked live");
                self.solver.remove_flow(FlowKey(d.slot));
                count_event();
                if self.tracing {
                    self.sink.record(TraceEvent::FlowDrained {
                        t: now.as_secs(),
                        id: f.id.0,
                    });
                }
                let notice = f.notice(now);
                (notice.completed_at, notice)
            }));
            self.drains.recycle(due);
        }
        // Expired latency tails become completions.
        while let Some(mut due) = self.pending.take_due(now) {
            due.sort_unstable_by_key(|c| c.id);
            for c in due.drain(..) {
                count_event();
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
            }
            self.pending.recycle(due);
        }
    }

    /// Removes and returns all buffered completions, ordered by
    /// completion time, ties by flow id.
    pub fn drain_completed(&mut self) -> Vec<CompletedFlow> {
        // `settle_at` appends in this order; only a restored buffer can
        // hold another.
        if !self.completed.is_sorted_by_key(completion_key) {
            self.completed.sort_by_key(completion_key);
        }
        self.completed.drain(..).collect()
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

    /// Test hook: lowers the drain-queue compaction floor so small
    /// workloads can exercise the sweep (`usize::MAX` disables
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
    /// The drain queue is left out (restore rebuilds it), so the
    /// capture does not depend on when the queue last compacted.
    pub fn snapshot(&self) -> CoreState {
        let mut pending: Vec<CompletedFlow> = self.pending.iter().map(|(_, c)| c.clone()).collect();
        pending.sort_by_key(completion_key);
        CoreState {
            now: self.now,
            next_id: self.next_id,
            flows: self.flows.clone(),
            solver: self.solver.snapshot(),
            next_generation: self.next_generation,
            pending,
            completed: self.completed.clone(),
        }
    }

    /// Rebuilds a simulator from a [`FlowNetwork::snapshot`] capture
    /// over `topo`, the topology the capture was taken from (shared,
    /// not copied), recording into `sink`. This is the one place a
    /// network is put together: [`FlowNetwork::with_sink`] restores
    /// [`CoreState::new`]. When the sink is enabled a
    /// [`TraceEvent::Topology`] marker is emitted at the restored clock,
    /// so analysis layers can re-cost each segment on its own. The
    /// drain queue holds one entry `(id, generation, slot)` at
    /// `updated_at + remaining / rate` per flow with a positive solver
    /// rate whose drain instant is finite, bit for bit the one its last
    /// rate assignment queued; the lazy-deletion garbage beside it was
    /// never taken as live. A flow whose instant is past the largest
    /// representable time gets no entry, as in the live network. Each
    /// pending notice is queued at its `completed_at`. A link with
    /// capacity zero is failed. For an enabled sink, the telemetry
    /// mirror sums each link's flow rates in the order a solve does
    /// (flows by ascending key), which is the sum as of the link's last
    /// solve unless the link lost a flow since: a capture taken untraced
    /// resumes into a traced sink without reporting a change no solve
    /// made, except on such a link.
    ///
    /// # Errors
    ///
    /// This is the one judge of a capture's rules (decoding checks only
    /// shapes). A [`StateMismatch`] names the field at fault if:
    ///
    /// - `next_id` or `next_generation` is past 2^53, or a flow, a
    ///   pending notice or a buffered completion has an id at or above
    ///   `next_id` (the next injection would reuse it);
    /// - the capacities do not cover the topology's links, or a pending
    ///   seed link or a route crosses a link past them;
    /// - a link's capacity is not between zero and its bandwidth;
    /// - the two slabs differ in length or in which slots they occupy,
    ///   or a free key repeats or names an occupied slot;
    /// - a flow's bytes left are not finite or are negative, or its
    ///   generation is above `next_generation` or is 0 while its rate
    ///   is positive (a later flow in its slot could take a retired
    ///   entry for its own);
    /// - a flow's solver class is not [`fill_class`] of its tenant and
    ///   priority, or its tenant is past [`MAX_TENANT`];
    /// - the clock is later than a flow's drain instant or a pending
    ///   notice, or earlier than a flow's injection or byte watermark.
    pub fn restore(
        topo: impl Into<Rc<Topology>>,
        sink: Rc<dyn TraceSink>,
        state: CoreState,
    ) -> Result<FlowNetwork, StateMismatch> {
        let topo = topo.into();
        let bad = |field: &'static str, why: String| Err(StateMismatch { field, why });
        // Injections and rate assignments add one unchecked; 2^53, the
        // largest integer a capture stores as a number, leaves room.
        for (field, counter) in [
            ("next_id", state.next_id),
            ("next_generation", state.next_generation),
        ] {
            if counter > 1 << 53 {
                return bad(field, format!("{counter} is past 2^53"));
            }
        }
        // Every id a capture holds was handed out before it.
        let next_id = state.next_id;
        let issued = |what: &str, FlowId(id): FlowId| {
            let why = format!("{what} has flow id {id}, but ids up to {next_id} are unissued");
            bad("next_id", why)
        };
        let mut notices = state.pending.iter().chain(&state.completed);
        if let Some(c) = notices.find(|c| c.id.0 >= next_id) {
            return issued("a pending or buffered completion", c.id);
        }
        let links = topo.links().count();
        let len = state.solver.capacities.len();
        if len != links {
            let why = format!("covers {len} links but the topology has {links}");
            return bad("solver.capacities", why);
        }
        if let Some(l) = state.solver.seed_links.iter().find(|&&l| l >= links) {
            let why = format!("link {l} is out of range ({links} links)");
            return bad("solver.seed_links", why);
        }
        // A degraded link keeps a share of its bandwidth; a failed one
        // has none.
        for (LinkId(l), link) in topo.links() {
            let cap = state.solver.capacities[l];
            if !(0.0..=link.bandwidth).contains(&cap) {
                let why = format!(
                    "link {l} has capacity {cap}; its bandwidth is {}",
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
        // the flow and, when it has a drain instant, pushes its drain
        // entry.
        let tracing = sink.enabled();
        let mut link_alloc = if tracing {
            vec![0.0; links]
        } else {
            Vec::new()
        };
        let mut drains = InstantQueue::default();
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
            if f.id.0 >= next_id {
                return issued(&format!("slot {k}"), f.id);
            }
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
            if let Some(LinkId(l)) = sf.links.iter().find(|l| l.0 >= links) {
                let why = format!("slot {k} crosses link {l}, out of range ({links} links)");
                return bad("solver.flows", why);
            }
            if tracing {
                for &LinkId(l) in sf.links.iter() {
                    link_alloc[l] += sf.rate;
                }
            }
            if let Some(at) = f.drain_instant(sf.rate) {
                if at < now {
                    return behind(&format!("drain of slot {k}"), at);
                }
                let drain = Drain {
                    id: f.id.0,
                    generation: f.generation,
                    slot: k as u32,
                };
                drains.push(at, drain);
            }
        }
        let mut pending = InstantQueue::default();
        pending.extend(state.pending.into_iter().map(|c| (c.completed_at, c)));
        let net = FlowNetwork {
            topo,
            now: state.now,
            next_id: state.next_id,
            flows: state.flows,
            solver: FairShareSolver::restore(state.solver),
            live_drains: drains.len(),
            drains,
            compaction_min: HEAP_COMPACTION_MIN,
            compactions: 0,
            next_generation: state.next_generation,
            pending,
            completed: state.completed,
            tracing,
            sink,
            link_alloc,
            alloc_before: Vec::new(),
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
        let mut specs_b: Vec<FlowSpec> = (0..5)
            .map(|i| FlowSpec::new(vec![lb], 100.0).with_tag(i))
            .collect();
        b.inject_batch(&mut specs_b).unwrap();
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
        net.inject_batch(&mut vec![
            FlowSpec::new(vec![], 1e6).with_tag(0),
            FlowSpec::new(vec![l], 100.0).with_tag(1),
            FlowSpec::new(vec![l], 0.0).with_tag(2),
        ])
        .unwrap();
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
        let mut flows: Vec<FlowSpec> = (0..256)
            .map(|i| FlowSpec::new(vec![l], 1e9 + (i as f64) * 1e-3).with_tag(i))
            .collect();
        net.inject_batch(&mut flows).unwrap();
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
        // 2 injections + 2 drains (one implicit) + 2 completions; other
        // tests' networks may count concurrently.
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
        // The mirror holds each link's sum of its flows' rates.
        let sums: Vec<f64> = (0..net.link_alloc.len())
            .map(|l| {
                let keys = net.solver.link_flows(l).iter();
                keys.map(|&k| net.solver.rate(FlowKey(k))).sum()
            })
            .collect();
        assert_eq!(net.link_alloc, sums);
    }

    #[test]
    fn untraced_capture_resumed_traced_reports_the_same_link_utilization() {
        use fred_telemetry::sink::RingRecorder;

        // Link 0 carries A and B, link 1 carries B and C, 50 B/s each.
        // When A drains at t = 2, B and C still share link 1 at 50 B/s
        // each: link 1's allocation does not move, so no `LinkUtil`
        // for it. With `late`, D joins link 0 at t = 1 and the capture
        // is taken before its solve, which moves no link's sum: D's
        // rate 0.0 leaves every sum restore rebuilds exact, so the
        // resumed run reports no change at t = 1 either.
        let run = |capture: bool, late: bool| {
            let mut topo = Topology::new();
            let a = topo.add_node(NodeKind::Npu, "a");
            let b = topo.add_node(NodeKind::Npu, "b");
            let c = topo.add_node(NodeKind::Npu, "c");
            let l0 = topo.add_link(a, b, 100.0, 0.0);
            let l1 = topo.add_link(b, c, 100.0, 0.0);
            let rec = Rc::new(RingRecorder::new());
            let sink: Rc<dyn TraceSink> = if capture {
                Rc::new(NullSink)
            } else {
                rec.clone()
            };
            let mut net = FlowNetwork::with_sink(topo.clone(), sink);
            for (route, bytes) in [(vec![l0], 100.0), (vec![l0, l1], 300.0), (vec![l1], 1e3)] {
                net.inject(FlowSpec::new(route, bytes)).unwrap();
            }
            net.advance_to(Time::from_secs(1.0));
            if late {
                net.inject(FlowSpec::new(vec![l0], 50.0)).unwrap();
            }
            if capture {
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
                    } if t >= 1.0 => Some((t, link, utilization)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        for late in [false, true] {
            let uninterrupted = run(false, late);
            assert_eq!(uninterrupted.len(), 3, "{uninterrupted:?}");
            assert_eq!(run(true, late), uninterrupted);
        }
    }

    #[test]
    fn heap_compaction_triggers_and_preserves_results() {
        // Repeated same-link churn: every injection re-rates the
        // survivor set, orphaning queued entries. With the floor lowered
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
    fn same_instant_drains_free_slots_by_flow_id() {
        // Flows 0 and 1 take slots 0 and 1 and are evicted in slot
        // order, so flows 3 and 4 refill slots 1 and 0: slot order
        // (4, 3, 2) reverses id order. Flows 2-4 carry equal bytes at
        // equal rates, so they drain at one instant and arrive one
        // latency later, at one instant too.
        let (mut net, l) = two_node_net(100.0, 0.5);
        let inject = |net: &mut FlowNetwork, tag: u64| {
            net.inject(FlowSpec::new(vec![l], 300.0).with_tag(tag))
                .unwrap()
        };
        for tag in 0..3 {
            inject(&mut net, tag);
        }
        assert_eq!(net.evict_flows_matching(|tag| tag < 2).len(), 2);
        for tag in 3..5 {
            inject(&mut net, tag);
        }
        let slot_of = |net: &FlowNetwork, id: FlowId| {
            net.flows
                .iter()
                .position(|f| f.as_ref().is_some_and(|f| f.id == id))
        };
        let slots = [2, 3, 4].map(|id| slot_of(&net, FlowId(id)));
        assert_eq!(slots, [Some(2), Some(1), Some(0)]);
        let done = net.run_to_completion();
        let ids: Vec<u64> = done.iter().map(|c| c.id.0).collect();
        assert_eq!(ids, [2, 3, 4], "completions by flow id");
        assert!(done.iter().all(|c| c.completed_at == done[0].completed_at));
        // The drains freed slots 2, 1, 0 in id order, so the next flow
        // takes slot 0, the last one freed.
        let next = inject(&mut net, 5);
        assert_eq!(slot_of(&net, next), Some(0));
    }

    #[test]
    fn same_instant_notices_surface_by_flow_id() {
        use fred_telemetry::sink::RingRecorder;

        // Flow 1 drains first (t = 1) but crosses the slower link, so
        // both flows arrive at t = 2: flow 1's notice is queued before
        // flow 0's, and flow 0 still completes first.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Npu, "a");
        let b = topo.add_node(NodeKind::Npu, "b");
        let c = topo.add_node(NodeKind::Npu, "c");
        let fast = topo.add_link(a, b, 100.0, 0.5);
        let slow = topo.add_link(a, c, 100.0, 1.0);
        let rec = Rc::new(RingRecorder::new());
        let mut net = FlowNetwork::with_sink(topo, rec.clone());
        net.inject(FlowSpec::new(vec![fast], 150.0)).unwrap();
        net.inject(FlowSpec::new(vec![slow], 100.0)).unwrap();
        let done = net.run_to_completion();
        let arrivals = |ids: Vec<(f64, u64)>| assert_eq!(ids, [(2.0, 0), (2.0, 1)]);
        arrivals(
            done.iter()
                .map(|c| (c.completed_at.as_secs(), c.id.0))
                .collect(),
        );
        arrivals(
            rec.events()
                .into_iter()
                .filter_map(|e| match e {
                    TraceEvent::FlowCompleted { t, id, .. } => Some((t, id)),
                    _ => None,
                })
                .collect(),
        );
    }

    #[test]
    fn a_restored_completion_buffer_drains_in_order() {
        // Only a capture can hand the buffer over out of order.
        let (net, _) = two_node_net(100.0, 0.0);
        let mut state = net.snapshot();
        let record = |id: u64, at: f64| CompletedFlow {
            id: FlowId(id),
            tag: id,
            priority: Priority::Bulk,
            injected_at: Time::ZERO,
            completed_at: Time::from_secs(at),
        };
        state.completed = vec![record(1, 1.0), record(0, 1.0), record(2, 0.5)];
        state.next_id = 3;
        let mut net = FlowNetwork::restore(Rc::clone(&net.topo), Rc::new(NullSink), state).unwrap();
        let ids: Vec<u64> = net.drain_completed().iter().map(|c| c.id.0).collect();
        assert_eq!(ids, [2, 0, 1]);
        assert!(net.drain_completed().is_empty());
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
        let mut batch = vec![
            FlowSpec::new(vec![l], 100.0).with_tag(0),
            FlowSpec::new(vec![LinkId(99)], 100.0).with_tag(1),
        ];
        let err = net.inject_batch(&mut batch).unwrap_err();
        assert_eq!(err, RouteError::UnknownLink(LinkId(99)));
        assert_eq!(net.in_flight(), 0, "no partial phase on error");
        assert_eq!(batch.len(), 2, "a rejected batch is left whole");
        // An accepted batch is drained and keeps its buffer.
        batch.pop();
        let capacity = batch.capacity();
        net.inject_batch(&mut batch).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.capacity(), capacity);
        assert_eq!(net.in_flight(), 1);
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
        let route: Rc<[LinkId]> = Rc::new([l0]);
        net.inject(FlowSpec::new(Rc::clone(&route), 200.0).with_tag(7))
            .unwrap();
        net.inject(FlowSpec::new(vec![l1], 200.0).with_tag(8))
            .unwrap();
        net.advance_to(Time::from_secs(1.0));
        let evicted = net.fail_link(l0);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].tag, 7);
        assert!((evicted[0].bytes - 100.0).abs() < 1e-9);
        // The route comes back as the allocation it went in as.
        assert!(Rc::ptr_eq(&evicted[0].route, &route));
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
            assert_eq!(*e.route, routes[e.tag as usize][..]);
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
    fn a_zero_capacity_link_restores_failed() {
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![l], 100.0)).unwrap();
        net.fail_link(l);
        let topo = net.topology().clone();
        let mut net = FlowNetwork::restore(topo, Rc::new(NullSink), net.snapshot()).unwrap();
        assert!(net.is_link_failed(l));
        let err = net.inject(FlowSpec::new(vec![l], 1.0)).unwrap_err();
        assert_eq!(err, RouteError::FailedLink(l));
    }

    #[test]
    fn a_drain_past_the_largest_time_gets_no_entry_and_restores() {
        // 1e9 B at 1e-303 B/s drains after 1e312 s, which no `f64`
        // holds: the flow keeps its rate but gets no drain entry.
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![l], 1e9)).unwrap();
        net.advance_to(Time::from_secs(1.0));
        net.degrade_link(l, 1e-305);
        assert_eq!(net.next_event(), None);
        assert_eq!(net.in_flight(), 1);
        let topo = Rc::clone(&net.topo);
        let mut restored = FlowNetwork::restore(topo, Rc::new(NullSink), net.snapshot()).unwrap();
        assert_eq!(restored.next_event(), None);
        assert_eq!(restored.snapshot(), net.snapshot());
        // Back at full width, both drain the 9.999999e8 B left at the
        // same instant.
        let mut done = Vec::new();
        for net in [&mut net, &mut restored] {
            net.degrade_link(l, 1.0);
            let c = net.run_to_completion();
            assert_eq!(c.len(), 1);
            done.push(c[0].completed_at);
        }
        assert_eq!(done[0], done[1]);
        assert_eq!(done[0], Time::from_secs(1.0 + (1e9 - 100.0) / 100.0));
    }

    /// Ids and generations a restored network would hand out again, or
    /// add past `u64::MAX`, are typed errors naming their counter.
    #[test]
    fn counters_that_would_reuse_or_overflow_are_mismatches() {
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![l], 100.0)).unwrap();
        net.inject(FlowSpec::new(vec![l], 0.0)).unwrap();
        net.advance_to(Time::ZERO);
        assert_eq!(net.snapshot().completed.len(), 1);
        type Edit = fn(&mut CoreState);
        let edits: [(&str, Edit); 5] = [
            ("next_id", |s| s.next_id = u64::MAX - 5),
            ("next_generation", |s| s.next_generation = u64::MAX - 5),
            // The live flow is id 0 and the buffered completion id 1.
            ("next_id", |s| s.next_id = 0),
            ("next_id", |s| s.next_id = 1),
            ("next_id", |s| s.next_id = (1 << 53) + 1),
        ];
        for (field, edit) in edits {
            let mut state = net.snapshot();
            edit(&mut state);
            let topo = Rc::clone(&net.topo);
            let err = FlowNetwork::restore(topo, Rc::new(NullSink), state).unwrap_err();
            assert_eq!(err.field, field, "{err}");
        }
        let topo = Rc::clone(&net.topo);
        let mut state = net.snapshot();
        state.next_id = 1 << 53;
        assert!(FlowNetwork::restore(topo, Rc::new(NullSink), state).is_ok());
    }

    #[test]
    #[should_panic(expected = "leaves no capacity")]
    fn degrading_to_no_capacity_panics() {
        let (mut net, l) = two_node_net(1e-300, 0.0);
        net.degrade_link(l, 1e-300);
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
        assert!((evicted[0].bytes - 50.0).abs() < 1e-9);
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
        assert!((evicted[0].bytes - 150.0).abs() < 1e-9);
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
        let finish = |net: &mut FlowNetwork, l1: LinkId, evicted: Vec<FlowSpec>| {
            // Re-route the evicted bytes over the surviving link.
            for ev in evicted {
                net.inject(
                    FlowSpec::new(vec![l1], ev.bytes)
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
