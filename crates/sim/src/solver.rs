//! Persistent, incrementally-updated max-min fair-share solver.
//!
//! [`FairShareSolver`] owns the link ↔ flow incidence structure of the
//! active flow set — each flow's route and rate, the link capacities
//! and the live count have no other owner — and recomputes rates
//! *incrementally*: an [`FairShareSolver::add_flow`] /
//! [`FairShareSolver::remove_flow`] delta marks the touched links
//! dirty, and the next [`FairShareSolver::solve`] re-runs progressive
//! filling only over the *connected component* of links and flows
//! transitively reachable from the dirty links (through shared links,
//! across every priority class).
//! Rates outside the component are provably unchanged — no flow outside
//! the component shares a link with any flow inside it, so the
//! progressive-filling solution decomposes exactly — and stay frozen.
//!
//! This turns the simulator's hot path from O(flows × links) per event
//! into O(component) per event: with the mostly-local traffic of a
//! wafer-scale fabric, a completing flow typically disturbs only its
//! own neighbourhood. When churn *is* global (a wafer-wide collective
//! phase boundary) the component grows to the whole active set and the
//! refill costs what the from-scratch allocator does
//! ([`SolverStats::global_solves`] counts these solves).
//!
//! The correctness contract — the foundation later PRs build on — is
//! *rate identity*: after any sequence of deltas, [`FairShareSolver`]
//! rates equal a from-scratch [`crate::fairshare::max_min_rates`] run
//! over the current active set exactly, bit for bit
//! (`tests/property_fairshare_incremental.rs` compares `to_bits()`
//! under randomized churn). The solver and the oracle both pick
//! bottleneck links in ascending-index order, and every flow frozen in
//! one round subtracts the same share from each link it crosses, so
//! each link sees the same floating-point operations in the same order.

use crate::flow::Priority;

/// Same drained-capacity clamp as the from-scratch allocator
/// ([`crate::fairshare::max_min_rates`]); keeping them identical is
/// part of the rate-identity contract.
const EPS: f64 = 1e-9;

/// Handle to a flow registered with a [`FairShareSolver`]. Keys are
/// reused after [`FairShareSolver::remove_flow`]; holders must not
/// dereference a key they removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey(pub u32);

/// One registered flow: a slab element of the solver and of its
/// [`SolverState`], which preserves slab order and holes exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverFlow {
    /// Link indices the flow crosses (multiset, in route order).
    pub links: Box<[usize]>,
    /// Strict fill class, 0 filled first. Single-tenant callers pass
    /// [`Priority::rank`]; the cluster layer composes tenant × priority
    /// into one ordinal (see [`FairShareSolver::add_flow_class`]).
    pub class: u8,
    /// Rate as of the last solve.
    pub rate: f64,
}

/// Complete mutable state of a [`FairShareSolver`], captured by
/// [`FairShareSolver::snapshot`] and revived, as part of a network
/// capture, by [`FlowNetwork::restore`](crate::netsim::FlowNetwork::restore).
///
/// The capture holds each fact once. Slab holes and the free-key stack
/// are preserved verbatim, because key reuse order decides future slot
/// assignment. The live count and the per-link incidence lists are not
/// captured: restore counts the occupied slots and lists each live
/// slot's route in key order. Incidence order never changes a bit
/// (every walk over a list is order-free or sorts its result; see
/// DESIGN.md §7.2). Scratch is **not** captured either: restore zeros
/// the stamped marks and restarts both stamp counters (the solve
/// epoch and the refill's class pass) at zero. Each counter is bumped
/// before it stamps, so no zero mark is ever current. Pending deltas
/// (`seed_links`, `dirty`) are captured so a snapshot taken between a
/// delta and its solve resumes exactly, and so is `link_alloc`: for a
/// link with a pending delta it holds the sum before the delta.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverState {
    /// Per-link capacities (bytes/s), indexed by `LinkId.0`.
    pub capacities: Vec<f64>,
    /// The flow slab, holes included.
    pub flows: Vec<Option<SolverFlow>>,
    /// Free-key stack, top last.
    pub free: Vec<u32>,
    /// Allocated rate sum per link as of the last solve.
    pub link_alloc: Vec<f64>,
    /// Dirty seed links pending the next solve (may repeat).
    pub seed_links: Vec<usize>,
    /// Whether deltas are pending.
    pub dirty: bool,
    /// Cost counters at capture.
    pub stats: SolverStats,
}

/// Running cost counters, exposed for benchmarks and telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverStats {
    /// Total solves that ran (dirty deltas flushed).
    pub solves: u64,
    /// Solves whose dirty component held every live flow, so the
    /// refill redid the whole allocation (node-local flows, which never
    /// join a component, must be absent for a solve to count).
    pub global_solves: u64,
    /// Flows whose rate was recomputed, summed over all solves (the
    /// work actually done; compare against `solves × live flows` for
    /// the from-scratch cost).
    pub refilled_flows: u64,
    /// Largest single dirty component refilled (flows): the worst case
    /// of one solve's work.
    pub max_component: u64,
}

// Process-wide mirrors of the per-solver counters, so bench harnesses
// can report solver cost without a handle on every network built
// inside a run (same pattern as `netsim::global_events_processed`).
static TOTAL_SOLVES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static TOTAL_GLOBAL_SOLVES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static TOTAL_REFILLED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static MAX_COMPONENT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Solver cost counters accumulated across every [`FairShareSolver`]
/// in the process since start (monotone; diff two readings to scope a
/// run).
pub fn global_solver_stats() -> SolverStats {
    use std::sync::atomic::Ordering::Relaxed;
    SolverStats {
        solves: TOTAL_SOLVES.load(Relaxed),
        global_solves: TOTAL_GLOBAL_SOLVES.load(Relaxed),
        refilled_flows: TOTAL_REFILLED.load(Relaxed),
        max_component: MAX_COMPONENT.load(Relaxed),
    }
}

/// Persistent max-min fair allocator over a fixed set of links.
///
/// See the [module docs](self) for the incremental algorithm and the
/// rate-identity contract.
#[derive(Debug)]
pub struct FairShareSolver {
    capacities: Vec<f64>,
    flows: Vec<Option<SolverFlow>>,
    free: Vec<u32>,
    live: usize,
    /// Flow keys crossing each link.
    link_flows: Vec<Vec<u32>>,
    /// Current allocated rate sum per link (kept for telemetry and
    /// feasibility checks).
    link_alloc: Vec<f64>,
    /// Links touched by deltas since the last solve (may repeat).
    seed_links: Vec<usize>,
    dirty: bool,
    // Persistent scratch (epoch-stamped so nothing is ever cleared).
    epoch: u64,
    link_mark: Vec<u64>,
    flow_mark: Vec<u64>,
    // Class-pass stamp of `refill`: a flow is unfrozen in the running
    // pass iff its `flow_pass` equals `pass`.
    pass: u64,
    flow_pass: Vec<u64>,
    remaining: Vec<f64>,
    counts: Vec<usize>,
    new_rate: Vec<f64>,
    // Outputs of the last solve.
    changed: Vec<(FlowKey, f64)>,
    touched_links: Vec<usize>,
    stats: SolverStats,
}

impl FairShareSolver {
    /// Creates a solver over links with the given capacities (bytes/s,
    /// indexed by `LinkId.0`).
    pub fn new(capacities: Vec<f64>) -> FairShareSolver {
        let n = capacities.len();
        FairShareSolver {
            capacities,
            flows: Vec::new(),
            free: Vec::new(),
            live: 0,
            link_flows: vec![Vec::new(); n],
            link_alloc: vec![0.0; n],
            seed_links: Vec::new(),
            dirty: false,
            epoch: 0,
            link_mark: vec![0; n],
            flow_mark: Vec::new(),
            pass: 0,
            flow_pass: Vec::new(),
            remaining: vec![0.0; n],
            counts: vec![0; n],
            new_rate: Vec::new(),
            changed: Vec::new(),
            touched_links: Vec::new(),
            stats: SolverStats::default(),
        }
    }

    /// Number of flows currently registered.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no flows are registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether deltas are pending a [`FairShareSolver::solve`].
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Cost counters accumulated since construction.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Registers a flow crossing `links` (indices into the capacity
    /// table, multiset semantics identical to
    /// [`crate::fairshare::AllocFlow`]). The flow's rate is `0.0`
    /// (or `f64::INFINITY` for an empty, node-local route) until the
    /// next [`FairShareSolver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if a link index is out of range.
    pub fn add_flow(&mut self, links: &[usize], priority: Priority) -> FlowKey {
        self.add_flow_class(links.into(), priority.rank() as u8)
    }

    /// Registers a flow under an explicit numeric fill class (0 filled
    /// first; classes are strict, exactly like [`Priority`] ranks),
    /// taking ownership of its route. [`FairShareSolver::add_flow`]
    /// delegates here with `priority.rank()`, so single-tenant callers
    /// see identical arithmetic; multi-tenant callers pass
    /// [`crate::flow::fill_class`] to give higher tenants strict
    /// precedence on shared links.
    ///
    /// # Panics
    ///
    /// Panics if a link index is out of range.
    pub fn add_flow_class(&mut self, links: Box<[usize]>, class: u8) -> FlowKey {
        let rate = if links.is_empty() { f64::INFINITY } else { 0.0 };
        for &l in links.iter() {
            assert!(
                l < self.capacities.len(),
                "flow references unknown link index {l}"
            );
        }
        let key = match self.free.pop() {
            Some(k) => k,
            None => {
                self.flows.push(None);
                self.flow_mark.push(0);
                self.flow_pass.push(0);
                self.new_rate.push(0.0);
                (self.flows.len() - 1) as u32
            }
        };
        self.live += 1;
        for &l in links.iter() {
            self.link_flows[l].push(key);
            self.seed_links.push(l);
            self.dirty = true;
        }
        self.flows[key as usize] = Some(SolverFlow { links, class, rate });
        FlowKey(key)
    }

    /// Removes a flow; its links become dirty seeds for the next
    /// [`FairShareSolver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `key` does not name a live flow.
    pub fn remove_flow(&mut self, key: FlowKey) {
        let flow = self.flows[key.0 as usize]
            .take()
            .expect("remove_flow on a dead key");
        self.live -= 1;
        self.free.push(key.0);
        for &l in flow.links.iter() {
            // A flow crossing the same link twice holds two incidence
            // slots; drop exactly one per traversal.
            let pos = self.link_flows[l]
                .iter()
                .position(|&k| k == key.0)
                .expect("incidence list out of sync");
            self.link_flows[l].swap_remove(pos);
            self.seed_links.push(l);
            self.dirty = true;
        }
    }

    /// The rate assigned at the last [`FairShareSolver::solve`]
    /// (`0.0` for a flow added since, `f64::INFINITY` for node-local
    /// flows).
    ///
    /// # Panics
    ///
    /// Panics if `key` does not name a live flow.
    pub fn rate(&self, key: FlowKey) -> f64 {
        self.flows[key.0 as usize]
            .as_ref()
            .expect("rate of a dead key")
            .rate
    }

    /// The links a live flow crosses, in route order.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not name a live flow.
    pub(crate) fn flow_links(&self, key: FlowKey) -> &[usize] {
        &self.flows[key.0 as usize]
            .as_ref()
            .expect("links of a dead key")
            .links
    }

    /// Keys of the live flows crossing `link`, once per traversal, in
    /// incidence order (not sorted).
    ///
    /// # Panics
    ///
    /// Panics if the link index is out of range.
    pub(crate) fn link_flows(&self, link: usize) -> &[u32] {
        &self.link_flows[link]
    }

    /// Flows whose rate changed in the last [`FairShareSolver::solve`],
    /// each with its rate before that solve (removed flows are never
    /// reported).
    pub fn changed_flows(&self) -> &[(FlowKey, f64)] {
        &self.changed
    }

    /// Links whose allocation was recomputed in the last
    /// [`FairShareSolver::solve`] (a superset of the links whose
    /// allocated sum actually changed).
    pub fn touched_links(&self) -> &[usize] {
        &self.touched_links
    }

    /// Current allocated rate sum on a link.
    ///
    /// # Panics
    ///
    /// Panics if the link index is out of range.
    pub fn link_allocated(&self, link: usize) -> f64 {
        self.link_alloc[link]
    }

    /// Current capacity of a link (bytes/s).
    ///
    /// # Panics
    ///
    /// Panics if the link index is out of range.
    pub fn capacity(&self, link: usize) -> f64 {
        self.capacities[link]
    }

    /// Current capacity of every link (bytes/s), indexed by `LinkId.0`.
    pub(crate) fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Changes a link's capacity (the fault-injection entry point:
    /// `0.0` models a dead link, intermediate values a degraded one).
    /// The link becomes a dirty seed, so the next
    /// [`FairShareSolver::solve`] re-runs progressive filling over its
    /// component and every flow crossing it picks up the new share.
    ///
    /// # Panics
    ///
    /// Panics if the link index is out of range or `capacity` is
    /// negative/NaN.
    pub fn set_capacity(&mut self, link: usize, capacity: f64) {
        assert!(
            link < self.capacities.len(),
            "set_capacity on unknown link index {link}"
        );
        assert!(
            capacity.is_finite() && capacity >= 0.0,
            "link capacity must be finite and non-negative, got {capacity}"
        );
        if self.capacities[link] == capacity {
            return;
        }
        self.capacities[link] = capacity;
        self.seed_links.push(link);
        self.dirty = true;
    }

    /// Flushes pending deltas: recomputes the dirty component and
    /// freezes the rest. Returns `true` when a solve actually ran;
    /// inspect [`FairShareSolver::changed_flows`] /
    /// [`FairShareSolver::touched_links`] afterwards.
    pub fn solve(&mut self) -> bool {
        if !self.dirty {
            return false;
        }
        let _prof = fred_telemetry::prof::scope("solver.solve");
        self.dirty = false;
        self.stats.solves += 1;
        self.epoch += 1;
        let epoch = self.epoch;

        // Component discovery: BFS from the dirty seed links through
        // the incidence structure. A seed link whose last flow left
        // joins with no flows, so the refill zeroes its allocation.
        let mut comp_links: Vec<usize> = Vec::new();
        let mut comp_flows: Vec<u32> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..self.seed_links.len() {
            let l = self.seed_links[i];
            if self.link_mark[l] != epoch {
                self.link_mark[l] = epoch;
                stack.push(l);
            }
        }
        self.seed_links.clear();
        while let Some(l) = stack.pop() {
            comp_links.push(l);
            for i in 0..self.link_flows[l].len() {
                let fk = self.link_flows[l][i];
                if self.flow_mark[fk as usize] == epoch {
                    continue;
                }
                self.flow_mark[fk as usize] = epoch;
                comp_flows.push(fk);
                let flow = self.flows[fk as usize].as_ref().expect("live incidence");
                for &l2 in flow.links.iter() {
                    if self.link_mark[l2] != epoch {
                        self.link_mark[l2] = epoch;
                        stack.push(l2);
                    }
                }
            }
        }
        // Ascending order makes the filling arithmetic identical to the
        // from-scratch allocator (rate identity) and the solve
        // deterministic regardless of delta history.
        comp_links.sort_unstable();
        comp_flows.sort_unstable();
        let comp = comp_flows.len() as u64;
        let global = comp_flows.len() == self.live;
        self.stats.refilled_flows += comp;
        self.stats.max_component = self.stats.max_component.max(comp);
        if global {
            self.stats.global_solves += 1;
        }
        {
            use std::sync::atomic::Ordering::Relaxed;
            TOTAL_SOLVES.fetch_add(1, Relaxed);
            TOTAL_REFILLED.fetch_add(comp, Relaxed);
            MAX_COMPONENT.fetch_max(comp, Relaxed);
            if global {
                TOTAL_GLOBAL_SOLVES.fetch_add(1, Relaxed);
            }
        }
        fred_telemetry::prof::record_value("solver.component_flows", comp as f64);
        self.refill(&comp_links, &comp_flows);
        true
    }

    /// Captures the solver's complete mutable state. See
    /// [`SolverState`] for what is (and is not) serialized.
    pub fn snapshot(&self) -> SolverState {
        SolverState {
            capacities: self.capacities.clone(),
            flows: self.flows.clone(),
            free: self.free.clone(),
            link_alloc: self.link_alloc.clone(),
            seed_links: self.seed_links.clone(),
            dirty: self.dirty,
            stats: self.stats,
        }
    }

    /// Rebuilds a solver from a [`FairShareSolver::snapshot`] capture.
    /// Continuing the restored solver is bit-identical to continuing
    /// the captured one: slab layout, free-key order and the
    /// pending-delta set are revived verbatim, the live count and the
    /// incidence lists are rebuilt from the slab, and the stamped
    /// scratch and its counters restart at zero (see [`SolverState`]).
    ///
    /// # Panics
    ///
    /// Panics if the state breaks a rule (per-link vector lengths
    /// disagree, or a route crosses a link out of range). Its one
    /// caller, [`crate::netsim::FlowNetwork::restore`], rejects such a
    /// state with a typed error first.
    pub(crate) fn restore(state: SolverState) -> FairShareSolver {
        let n = state.capacities.len();
        assert_eq!(state.link_alloc.len(), n, "link_alloc length mismatch");
        let slab = state.flows.len();
        let mut link_flows = vec![Vec::new(); n];
        let mut live = 0;
        for (k, f) in state.flows.iter().enumerate() {
            let Some(f) = f else { continue };
            live += 1;
            for &l in f.links.iter() {
                link_flows[l].push(k as u32);
            }
        }
        FairShareSolver {
            capacities: state.capacities,
            flows: state.flows,
            free: state.free,
            live,
            link_flows,
            link_alloc: state.link_alloc,
            seed_links: state.seed_links,
            dirty: state.dirty,
            epoch: 0,
            link_mark: vec![0; n],
            flow_mark: vec![0; slab],
            pass: 0,
            flow_pass: vec![0; slab],
            remaining: vec![0.0; n],
            counts: vec![0; n],
            new_rate: vec![0.0; slab],
            changed: Vec::new(),
            touched_links: Vec::new(),
            stats: state.stats,
        }
    }

    /// Progressive filling restricted to one component. `links` must
    /// contain every link crossed by a flow in `flow_keys` and no link
    /// crossed by any other flow; both slices must be sorted ascending.
    fn refill(&mut self, links: &[usize], flow_keys: &[u32]) {
        for &l in links {
            self.remaining[l] = self.capacities[l];
            debug_assert_eq!(self.counts[l], 0, "scratch counts not clean");
        }
        // Strict classes fill highest (lowest ordinal) first. Only the
        // classes present in the component are visited, in ascending
        // order — the same subsequence the old fixed `Priority::ALL`
        // walk produced (absent classes were skipped there too), so the
        // filling arithmetic is unchanged for single-tenant flow sets.
        let mut classes: Vec<u8> = flow_keys
            .iter()
            .map(|&fk| {
                self.flows[fk as usize]
                    .as_ref()
                    .expect("live component")
                    .class
            })
            .collect();
        classes.sort_unstable();
        classes.dedup();
        let mut used_links: Vec<usize> = Vec::new();
        for class in classes {
            // Stamp this class's routed flows with a fresh pass number:
            // the bottleneck walk below freezes exactly the stamped
            // flows, un-stamping each as it goes.
            self.pass += 1;
            let pass = self.pass;
            let mut unfrozen = 0usize;
            for &fk in flow_keys {
                let f = self.flows[fk as usize].as_ref().expect("live component");
                if f.class != class {
                    continue;
                }
                if f.links.is_empty() {
                    self.new_rate[fk as usize] = f64::INFINITY;
                    continue;
                }
                self.flow_pass[fk as usize] = pass;
                unfrozen += 1;
                for &l in f.links.iter() {
                    self.counts[l] += 1;
                }
            }
            if unfrozen == 0 {
                continue;
            }
            used_links.clear();
            used_links.extend(links.iter().copied().filter(|&l| self.counts[l] > 0));
            while unfrozen > 0 {
                let mut bottleneck: Option<(usize, f64)> = None;
                used_links.retain(|&l| self.counts[l] > 0);
                for &l in &used_links {
                    let share = (self.remaining[l].max(0.0)) / self.counts[l] as f64;
                    if bottleneck.is_none_or(|(_, s)| share < s) {
                        bottleneck = Some((l, share));
                    }
                }
                let Some((bl, share)) = bottleneck else { break };
                let share = share.max(0.0);
                // Freeze every stamped flow crossing `bl`. Unstamped
                // entries are other classes, flows frozen earlier, or
                // the second slot of a route crossing `bl` twice. Every
                // flow frozen here subtracts the same `share`, so each
                // link sees the same operation sequence in any visit
                // order: the result is bit-identical to freezing in
                // ascending key order.
                let mut frozen = 0usize;
                for i in 0..self.link_flows[bl].len() {
                    let fk = self.link_flows[bl][i] as usize;
                    if self.flow_pass[fk] != pass {
                        continue;
                    }
                    self.flow_pass[fk] = 0;
                    self.new_rate[fk] = share;
                    let f = self.flows[fk].as_ref().expect("live component");
                    for &l in f.links.iter() {
                        self.remaining[l] -= share;
                        if self.remaining[l] < EPS {
                            self.remaining[l] = 0.0;
                        }
                        self.counts[l] -= 1;
                    }
                    frozen += 1;
                }
                debug_assert!(frozen > 0, "bottleneck link had no flows");
                unfrozen -= frozen;
            }
        }

        // Commit: report changed rates and rebuild the allocation sums
        // of every touched link.
        self.changed.clear();
        self.touched_links.clear();
        self.touched_links.extend_from_slice(links);
        for &l in links {
            self.link_alloc[l] = 0.0;
        }
        for &fk in flow_keys {
            let f = self.flows[fk as usize].as_mut().expect("live component");
            let new = self.new_rate[fk as usize];
            if new != f.rate {
                self.changed.push((FlowKey(fk), f.rate));
                f.rate = new;
            }
            for &l in f.links.iter() {
                self.link_alloc[l] += f.rate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairshare::{max_min_rates, AllocFlow};

    fn oracle(caps: &[f64], specs: &[(Vec<usize>, Priority)]) -> Vec<f64> {
        let flows: Vec<AllocFlow<'_>> = specs
            .iter()
            .map(|(links, p)| AllocFlow {
                links,
                priority: *p,
            })
            .collect();
        max_min_rates(caps, &flows)
    }

    #[test]
    fn matches_oracle_on_static_set() {
        let cases = [
            (
                vec![10.0, 4.0],
                vec![
                    (vec![0, 1], Priority::Bulk),
                    (vec![1], Priority::Bulk),
                    (vec![0], Priority::Bulk),
                    // Crosses link 1 twice: two incidence slots, one freeze.
                    (vec![1, 0, 1], Priority::Bulk),
                ],
            ),
            // Mixed priorities: the Mp flow fills link 2 first.
            (
                vec![7.0, 5.0, 3.0],
                vec![
                    (vec![0, 1], Priority::Bulk),
                    (vec![1, 2], Priority::Bulk),
                    (vec![0, 2], Priority::Bulk),
                    (vec![2], Priority::Mp),
                ],
            ),
        ];
        for (caps, specs) in cases {
            let mut s = FairShareSolver::new(caps.clone());
            let keys: Vec<FlowKey> = specs.iter().map(|(l, p)| s.add_flow(l, *p)).collect();
            assert!(s.solve());
            let want = oracle(&caps, &specs);
            for (k, w) in keys.iter().zip(&want) {
                assert_eq!(s.rate(*k).to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn removal_updates_only_the_component() {
        // Two disjoint pairs of contending flows on separate links.
        let caps = vec![100.0, 60.0];
        let mut s = FairShareSolver::new(caps);
        let a0 = s.add_flow(&[0], Priority::Bulk);
        let a1 = s.add_flow(&[0], Priority::Bulk);
        let b0 = s.add_flow(&[1], Priority::Bulk);
        let b1 = s.add_flow(&[1], Priority::Bulk);
        s.solve();
        assert_eq!(s.rate(a0), 50.0);
        assert_eq!(s.rate(b0), 30.0);
        // Removing a0 only disturbs link 0's component.
        s.remove_flow(a0);
        assert!(s.solve());
        assert_eq!(s.rate(a1), 100.0);
        assert_eq!(s.changed_flows(), &[(a1, 50.0)]);
        assert!(s.touched_links().contains(&0));
        assert!(!s.touched_links().contains(&1));
        assert_eq!(s.rate(b0), 30.0);
        assert_eq!(s.rate(b1), 30.0);
    }

    #[test]
    fn priority_classes_fill_strictly() {
        let mut s = FairShareSolver::new(vec![100.0]);
        let hi = s.add_flow(&[0], Priority::Mp);
        let lo = s.add_flow(&[0], Priority::Dp);
        s.solve();
        assert_eq!(s.rate(hi), 100.0);
        assert_eq!(s.rate(lo), 0.0);
        s.remove_flow(hi);
        s.solve();
        assert_eq!(s.rate(lo), 100.0);
    }

    #[test]
    fn tenant_composed_classes_fill_strictly_across_tenants() {
        // Tenant 0 Bulk (class 4) still outranks tenant 1 Mp (class
        // 5·1+1 = 6): tenants are the outer key of the composite class.
        use crate::flow::fill_class;
        let mut s = FairShareSolver::new(vec![100.0]);
        let t0_bulk = s.add_flow_class(Box::new([0]), fill_class(0, Priority::Bulk));
        let t1_mp = s.add_flow_class(Box::new([0]), fill_class(1, Priority::Mp));
        let t1_dp = s.add_flow_class(Box::new([0]), fill_class(1, Priority::Dp));
        s.solve();
        assert_eq!(s.rate(t0_bulk), 100.0);
        assert_eq!(s.rate(t1_mp), 0.0);
        assert_eq!(s.rate(t1_dp), 0.0);
        // Within the starved tenant, its own priorities still order.
        s.remove_flow(t0_bulk);
        s.solve();
        assert_eq!(s.rate(t1_mp), 100.0);
        assert_eq!(s.rate(t1_dp), 0.0);
    }

    #[test]
    fn rank_class_delegation_matches_explicit_class() {
        // add_flow(links, p) and add_flow_class(links, p.rank()) are the
        // same operation — the tenant-0 bit-identity contract.
        let specs = [
            (vec![0usize, 1], Priority::Dp),
            (vec![1], Priority::Mp),
            (vec![0], Priority::Bulk),
        ];
        let caps = vec![9.0, 6.0];
        let via_priority = {
            let mut s = FairShareSolver::new(caps.clone());
            let keys: Vec<FlowKey> = specs.iter().map(|(l, p)| s.add_flow(l, *p)).collect();
            s.solve();
            keys.iter().map(|&k| s.rate(k)).collect::<Vec<f64>>()
        };
        let via_class = {
            let mut s = FairShareSolver::new(caps);
            let keys: Vec<FlowKey> = specs
                .iter()
                .map(|(l, p)| s.add_flow_class(l.as_slice().into(), p.rank() as u8))
                .collect();
            s.solve();
            keys.iter().map(|&k| s.rate(k)).collect::<Vec<f64>>()
        };
        assert_eq!(via_priority, via_class);
    }

    #[test]
    fn empty_route_is_infinite_and_not_dirty() {
        let mut s = FairShareSolver::new(vec![10.0]);
        let k = s.add_flow(&[], Priority::Bulk);
        assert_eq!(s.rate(k), f64::INFINITY);
        assert!(!s.is_dirty());
        s.remove_flow(k);
        assert!(!s.is_dirty());
    }

    #[test]
    fn coalesced_deltas_solve_once() {
        let mut s = FairShareSolver::new(vec![100.0]);
        let a = s.add_flow(&[0], Priority::Bulk);
        let _b = s.add_flow(&[0], Priority::Bulk);
        s.remove_flow(a);
        assert!(s.solve());
        assert_eq!(s.stats().solves, 1);
        assert!(!s.solve(), "clean solver must not re-solve");
    }

    #[test]
    fn global_solves_count_components_holding_every_live_flow() {
        let mut s = FairShareSolver::new(vec![100.0, 60.0]);
        let a = s.add_flow(&[0], Priority::Bulk);
        s.add_flow(&[1], Priority::Bulk);
        // Both flows are new: the component is the whole live set.
        s.solve();
        assert_eq!(s.stats().global_solves, 1);
        // Removing `a` leaves link 1's component frozen.
        s.remove_flow(a);
        s.add_flow(&[0], Priority::Bulk);
        s.solve();
        assert!(!s.touched_links().contains(&1));
        assert_eq!(s.stats().solves, 2);
        assert_eq!(s.stats().global_solves, 1);
        assert_eq!(s.stats().max_component, 2);
    }

    #[test]
    fn key_reuse_after_removal() {
        let mut s = FairShareSolver::new(vec![10.0, 20.0]);
        let a = s.add_flow(&[0], Priority::Bulk);
        s.solve();
        s.remove_flow(a);
        let b = s.add_flow(&[1], Priority::Bulk);
        assert_eq!(a.0, b.0, "slab reuses freed keys");
        s.solve();
        assert_eq!(s.rate(b), 20.0);
        assert_eq!(s.link_allocated(0), 0.0);
        assert_eq!(s.link_allocated(1), 20.0);
    }

    #[test]
    fn set_capacity_reallocates_component() {
        let mut s = FairShareSolver::new(vec![100.0, 60.0]);
        let a = s.add_flow(&[0], Priority::Bulk);
        let b = s.add_flow(&[1], Priority::Bulk);
        s.solve();
        assert_eq!(s.rate(a), 100.0);
        // Halving link 0 only disturbs link 0's component.
        s.set_capacity(0, 50.0);
        assert!(s.solve());
        assert_eq!(s.rate(a), 50.0);
        assert_eq!(s.rate(b), 60.0);
        assert_eq!(s.changed_flows(), &[(a, 100.0)]);
        assert_eq!(s.capacity(0), 50.0);
        // A dead link starves its flows entirely.
        s.set_capacity(0, 0.0);
        s.solve();
        assert_eq!(s.rate(a), 0.0);
        // No-op capacity writes stay clean.
        s.set_capacity(1, 60.0);
        assert!(!s.is_dirty());
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically_mid_dirty() {
        // Build history that exercises slab holes, free-key reuse order
        // and swap_remove incidence order, then capture with deltas
        // still pending and compare continuations bitwise.
        let caps = vec![9.0, 6.0, 4.0];
        let mut s = FairShareSolver::new(caps);
        let a = s.add_flow(&[0, 1], Priority::Bulk);
        let _b = s.add_flow(&[1], Priority::Mp);
        let c = s.add_flow(&[0, 2], Priority::Bulk);
        s.solve();
        s.remove_flow(a);
        s.set_capacity(2, 2.0); // pending deltas at capture time
        let state = s.snapshot();
        assert!(state.dirty);
        let mut r = FairShareSolver::restore(state.clone());
        assert_eq!(r.snapshot(), state, "snapshot of a restore is stable");

        // Identical continuation on both: solve, new flow (must reuse
        // the same freed key), solve again.
        let continue_run = |s: &mut FairShareSolver| -> Vec<(u32, u64)> {
            s.solve();
            let d = s.add_flow(&[0, 1, 2], Priority::Dp);
            s.solve();
            let mut out = vec![(d.0, s.rate(d).to_bits()), (c.0, s.rate(c).to_bits())];
            out.push((u32::MAX, s.stats().solves));
            for l in 0..3 {
                out.push((l as u32, s.link_allocated(l).to_bits()));
            }
            out
        };
        assert_eq!(continue_run(&mut s), continue_run(&mut r));
    }

    #[test]
    fn link_alloc_tracks_feasibility() {
        let caps = vec![9.0, 6.0];
        let mut s = FairShareSolver::new(caps.clone());
        for i in 0..5 {
            let links: Vec<usize> = if i % 2 == 0 { vec![0, 1] } else { vec![1] };
            s.add_flow(&links, Priority::Bulk);
        }
        s.solve();
        for (l, cap) in caps.iter().enumerate() {
            assert!(s.link_allocated(l) <= cap + 1e-6);
        }
    }
}
