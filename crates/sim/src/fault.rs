//! Deterministic fault injection: seeded plans of link failures and
//! degradations applied to a running [`FlowNetwork`].
//!
//! Wafer-scale integration lives or dies by defect tolerance (FRED §3):
//! a dead micro-switch port must be routed around, not abort the run.
//! This module is the *plan* half of the fault layer — a sorted,
//! reproducible list of [`FaultEvent`]s saying which link loses how
//! much capacity when. The *mechanism* half lives in
//! [`FlowNetwork::fail_link`] / [`FlowNetwork::degrade_link`] (capacity
//! loss + flow eviction) and in the fabric crates' fault-aware routers
//! (`npu_route_avoiding` on the FRED tree, `xy_route_avoiding` on the
//! mesh), which detour the evicted traffic.
//!
//! Determinism contract: plans are generated from an explicit
//! [`Rng64`] seed, events are kept sorted by
//! `(time, link)`, and an **empty plan injects nothing** — a simulation
//! driven with [`FaultPlan::none`] takes the exact code path of a
//! fault-free build and stays bit-identical to it. The seeded generator
//! ([`FaultPlan::seeded_link_failures`]) additionally guarantees
//! *survivability* (it never disconnects the fabric) and *nestedness*
//! (the failed set at a lower fraction is a prefix of the set at a
//! higher fraction with the same seed), which is what makes
//! makespan-vs-failure-fraction sweeps meaningful.

use std::collections::HashSet;

use crate::flow::FlowSpec;
use crate::netsim::{EvictedFlow, FlowNetwork};
use crate::rng::Rng64;
use crate::time::Time;
use crate::topology::{LinkId, NodeId, NodeKind, Topology};

/// What happens to the link when the fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The link dies: capacity drops to zero, in-flight flows crossing
    /// it are evicted, and new injections across it are rejected.
    LinkFail,
    /// The link survives at the given fraction of its bandwidth
    /// (a lossy port running at reduced width). Must be in `(0, 1]`.
    LinkDegrade(f64),
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: Time,
    /// The affected link.
    pub link: LinkId,
    /// Failure or degradation.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Applies this fault to `net`, returning the flows evicted by a
    /// [`FaultKind::LinkFail`] (empty for degradations). The caller is
    /// responsible for re-routing and re-injecting the evictees.
    pub fn apply(&self, net: &mut FlowNetwork) -> Vec<EvictedFlow> {
        match self.kind {
            FaultKind::LinkFail => net.fail_link(self.link),
            FaultKind::LinkDegrade(fraction) => {
                net.degrade_link(self.link, fraction);
                Vec::new()
            }
        }
    }
}

/// A deterministic, time-sorted list of faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: injects nothing, and guarantees the simulation
    /// takes the same code path (and produces bit-identical results)
    /// as one with no fault layer at all.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builds a plan from arbitrary events; they are sorted by
    /// `(time, link)` so application order is independent of
    /// construction order.
    pub fn new(mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by(|a, b| a.at.cmp(&b.at).then(a.link.cmp(&b.link)));
        FaultPlan { events }
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The events, sorted by `(time, link)`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The next fault horizon for an event-loop driver holding `cursor`
    /// into this plan: the event's `at`, offset by the driver's `start`
    /// (event times are relative to it), clamped to `now` when overdue
    /// (a restarted job catching up). `None` once the plan is spent.
    pub fn next_due(&self, cursor: usize, start: Time, now: Time) -> Option<Time> {
        self.events.get(cursor).map(|ev| due(start, ev).max(now))
    }

    /// Applies every event due by `now` (see [`FaultPlan::next_due`])
    /// to `net`, advancing `cursor` past them, and returns the evicted
    /// flows as specs carrying their remaining bytes, priority, tag and
    /// tenant — ready to be re-routed and re-injected by the driver.
    pub fn fire_due(
        &self,
        cursor: &mut usize,
        start: Time,
        now: Time,
        net: &mut FlowNetwork,
    ) -> Vec<FlowSpec> {
        let mut evicted = Vec::new();
        while let Some(ev) = self.events.get(*cursor).filter(|ev| due(start, ev) <= now) {
            *cursor += 1;
            evicted.extend(ev.apply(net).into_iter().map(|e| {
                FlowSpec::new(e.route, e.remaining_bytes)
                    .with_priority(e.priority)
                    .with_tag(e.tag)
                    .with_tenant(e.tenant)
            }));
        }
        evicted
    }

    /// Generates a *survivable* plan failing `fraction` of `topo`'s
    /// links at time `at`, seeded by `seed`.
    ///
    /// Candidates are shuffled with [`Rng64`] and accepted greedily,
    /// skipping any link whose failure would change which nodes can
    /// reach / be reached from the rest of the fabric (so every NPU
    /// pair, and every NPU↔external-memory path, stays routable and a
    /// degraded run can always complete). Because acceptance does not
    /// depend on the target count, the plan for a smaller fraction is
    /// a strict prefix of the plan for a larger one under the same
    /// seed — sweeps over the fraction axis fail *nested* link sets.
    ///
    /// The target count is `round(fraction × link_count)`; fewer links
    /// fail if the topology runs out of survivable candidates first.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    pub fn seeded_link_failures(topo: &Topology, fraction: f64, at: Time, seed: u64) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "failure fraction must be in [0, 1], got {fraction}"
        );
        let target = (fraction * topo.link_count() as f64).round() as usize;
        if target == 0 {
            return FaultPlan::none();
        }
        let mut rng = Rng64::seed_from_u64(seed);
        let mut candidates: Vec<LinkId> = topo.links().map(|(id, _)| id).collect();
        rng.shuffle(&mut candidates);

        // Reachability baseline from/to an anchor node: greedy
        // acceptance must never shrink either set. Reachability is
        // transitive through the anchor, so preserving both sets
        // preserves connectivity between every pair that had it.
        let anchor = topo
            .nodes_of_kind(NodeKind::Npu)
            .first()
            .copied()
            .unwrap_or(NodeId(0));
        let mut failed: HashSet<LinkId> = HashSet::new();
        let fwd0 = reachable(topo, anchor, false, &failed);
        let bwd0 = reachable(topo, anchor, true, &failed);

        let mut events = Vec::with_capacity(target);
        for cand in candidates {
            if events.len() == target {
                break;
            }
            failed.insert(cand);
            let ok = reachable(topo, anchor, false, &failed) == fwd0
                && reachable(topo, anchor, true, &failed) == bwd0;
            if ok {
                events.push(FaultEvent {
                    at,
                    link: cand,
                    kind: FaultKind::LinkFail,
                });
            } else {
                failed.remove(&cand);
            }
        }
        FaultPlan::new(events)
    }
}

/// When `ev` fires for a driver whose fault clock started at `start`.
fn due(start: Time, ev: &FaultEvent) -> Time {
    Time::from_secs(start.as_secs() + ev.at.as_secs())
}

/// Nodes reachable from `from` (or reaching it, with `reverse`) without
/// crossing a failed link.
fn reachable(
    topo: &Topology,
    from: NodeId,
    reverse: bool,
    failed: &HashSet<LinkId>,
) -> HashSet<NodeId> {
    let mut seen: HashSet<NodeId> = HashSet::new();
    seen.insert(from);
    let mut stack = vec![from];
    while let Some(at) = stack.pop() {
        let links = if reverse {
            topo.incoming(at)
        } else {
            topo.outgoing(at)
        };
        for &l in links {
            if failed.contains(&l) {
                continue;
            }
            let next = if reverse {
                topo.link(l).src
            } else {
                topo.link(l).dst
            };
            if seen.insert(next) {
                stack.push(next);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Priority;

    fn ladder(n: usize) -> Topology {
        // n NPUs in a ring of duplex links: every single link failure
        // is survivable, failing both directions of every rung is not.
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..n)
            .map(|i| t.add_node(NodeKind::Npu, format!("n{i}")))
            .collect();
        for i in 0..n {
            t.add_duplex_link(nodes[i], nodes[(i + 1) % n], 100.0, 0.0);
        }
        t
    }

    #[test]
    fn empty_plan_is_empty() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        let topo = ladder(4);
        assert_eq!(
            FaultPlan::seeded_link_failures(&topo, 0.0, Time::ZERO, 1),
            plan
        );
    }

    #[test]
    fn empty_plan_fires_nothing_and_leaves_the_network_alone() {
        let plan = FaultPlan::none();
        let mut net = FlowNetwork::new(ladder(3));
        net.inject(FlowSpec::new(vec![LinkId(0)], 100.0)).unwrap();
        net.next_event();
        let before = net.snapshot();
        let now = Time::from_secs(5.0);
        assert_eq!(plan.next_due(0, Time::ZERO, now), None);
        let mut cursor = 0;
        assert!(plan
            .fire_due(&mut cursor, Time::ZERO, now, &mut net)
            .is_empty());
        assert_eq!(cursor, 0);
        assert_eq!(net.snapshot(), before);
    }

    /// A failure of link 0 at 1 s and a degradation of link 2 at 2 s.
    fn two_event_plan() -> FaultPlan {
        FaultPlan::new(vec![
            FaultEvent {
                at: Time::from_secs(1.0),
                link: LinkId(0),
                kind: FaultKind::LinkFail,
            },
            FaultEvent {
                at: Time::from_secs(2.0),
                link: LinkId(2),
                kind: FaultKind::LinkDegrade(0.5),
            },
        ])
    }

    #[test]
    fn next_due_at_zero_offset_is_the_event_time() {
        let plan = two_event_plan();
        for (cursor, ev) in plan.events().iter().enumerate() {
            assert_eq!(plan.next_due(cursor, Time::ZERO, Time::ZERO), Some(ev.at));
        }
        assert_eq!(plan.next_due(2, Time::ZERO, Time::ZERO), None);
    }

    #[test]
    fn next_due_shifts_by_start_and_clamps_overdue_to_now() {
        let plan = two_event_plan();
        let start = Time::from_secs(0.5);
        assert_eq!(
            plan.next_due(0, start, Time::ZERO),
            Some(Time::from_secs(1.5))
        );
        assert_eq!(
            plan.next_due(1, start, Time::ZERO),
            Some(Time::from_secs(2.5))
        );
        // Both events are overdue at 3 s: the horizon is now itself.
        let now = Time::from_secs(3.0);
        assert_eq!(plan.next_due(0, start, now), Some(now));
        assert_eq!(plan.next_due(1, Time::ZERO, now), Some(now));
    }

    #[test]
    fn fire_due_applies_due_events_and_respecs_evictees() {
        let plan = two_event_plan();
        let mut net = FlowNetwork::new(ladder(3));
        net.inject(
            FlowSpec::new(vec![LinkId(0)], 100.0)
                .with_priority(Priority::Mp)
                .with_tag(7)
                .with_tenant(2),
        )
        .unwrap();
        net.next_event();
        let start = Time::from_secs(0.5);
        let mut cursor = 0;
        // Link 0's failure is due at 1.5 s, not yet at 1 s.
        let early = Time::from_secs(1.0);
        assert!(plan
            .fire_due(&mut cursor, start, early, &mut net)
            .is_empty());
        assert_eq!(cursor, 0);
        assert!(!net.any_link_failed());

        let specs = plan.fire_due(&mut cursor, start, Time::from_secs(1.5), &mut net);
        assert_eq!(cursor, 1);
        assert!(net.is_link_failed(LinkId(0)));
        assert_eq!(specs.len(), 1);
        let s = &specs[0];
        assert_eq!(s.route, vec![LinkId(0)]);
        assert_eq!((s.priority, s.tag, s.tenant), (Priority::Mp, 7, 2));
        assert_eq!(s.bytes, 100.0, "nothing moved before the failure");

        // The degradation evicts nothing but still advances the cursor.
        let rest = plan.fire_due(&mut cursor, start, Time::from_secs(9.0), &mut net);
        assert!(rest.is_empty());
        assert_eq!(cursor, 2);
        assert_eq!(net.link_capacity(LinkId(2)), 50.0);
    }

    #[test]
    fn events_sort_by_time_then_link() {
        let t1 = Time::from_secs(1.0);
        let t2 = Time::from_secs(2.0);
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: t2,
                link: LinkId(0),
                kind: FaultKind::LinkFail,
            },
            FaultEvent {
                at: t1,
                link: LinkId(5),
                kind: FaultKind::LinkFail,
            },
            FaultEvent {
                at: t1,
                link: LinkId(2),
                kind: FaultKind::LinkDegrade(0.5),
            },
        ]);
        let order: Vec<(Time, LinkId)> = plan.events().iter().map(|e| (e.at, e.link)).collect();
        assert_eq!(
            order,
            vec![(t1, LinkId(2)), (t1, LinkId(5)), (t2, LinkId(0))]
        );
    }

    #[test]
    fn seeded_plan_is_deterministic_and_nested() {
        let topo = ladder(16); // 32 directed links
        let a = FaultPlan::seeded_link_failures(&topo, 0.125, Time::ZERO, 42);
        let b = FaultPlan::seeded_link_failures(&topo, 0.125, Time::ZERO, 42);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::seeded_link_failures(&topo, 0.25, Time::ZERO, 42);
        assert!(a.len() < c.len());
        // Nested: the smaller plan's link set is a subset of the larger.
        let small: HashSet<LinkId> = a.events().iter().map(|e| e.link).collect();
        let large: HashSet<LinkId> = c.events().iter().map(|e| e.link).collect();
        assert!(small.is_subset(&large));
        let other_seed = FaultPlan::seeded_link_failures(&topo, 0.25, Time::ZERO, 43);
        assert_ne!(c, other_seed, "different seed, different plan");
    }

    #[test]
    fn seeded_plan_preserves_connectivity() {
        let topo = ladder(8);
        // Ask for far more failures than survivability allows.
        let plan = FaultPlan::seeded_link_failures(&topo, 1.0, Time::ZERO, 7);
        assert!(plan.len() < topo.link_count());
        let failed: HashSet<LinkId> = plan.events().iter().map(|e| e.link).collect();
        let npus = topo.nodes_of_kind(NodeKind::Npu);
        let seen = reachable(&topo, npus[0], false, &failed);
        for &n in &npus {
            assert!(seen.contains(&n), "{n} unreachable after faults");
        }
    }

    #[test]
    fn apply_fails_and_degrades_links() {
        let topo = ladder(3);
        let l = LinkId(0);
        let mut net = FlowNetwork::new(topo);
        net.inject(FlowSpec::new(vec![l], 100.0)).unwrap();
        net.next_event();
        let fail = FaultEvent {
            at: Time::ZERO,
            link: l,
            kind: FaultKind::LinkFail,
        };
        let evicted = fail.apply(&mut net);
        assert_eq!(evicted.len(), 1);
        assert!(net.is_link_failed(l));
        let degrade = FaultEvent {
            at: Time::ZERO,
            link: LinkId(2),
            kind: FaultKind::LinkDegrade(0.5),
        };
        assert!(degrade.apply(&mut net).is_empty());
        assert_eq!(net.link_capacity(LinkId(2)), 50.0);
    }
}
