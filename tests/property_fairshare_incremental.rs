//! Differential property test for the incremental fair-share solver.
//!
//! The rate-identity contract (DESIGN.md §7): after any sequence of
//! add/remove deltas, the persistent `FairShareSolver` must produce the
//! same per-flow rates as a from-scratch `max_min_rates` run over the
//! current live set — bit for bit — regardless of how the deltas were
//! batched and regardless of the global-refill threshold. Routes may
//! cross a link more than once. Every allocation must also respect the
//! solo-rate upper bound (no flow can beat its bottleneck-link
//! capacity).

use fred::sim::fairshare::{max_min_rates, solo_rate, AllocFlow};
use fred::sim::flow::Priority;
use fred::sim::rng::Rng64;
use fred::sim::solver::{FairShareSolver, FlowKey};

/// One live flow as the harness tracks it (mirrors the solver's view).
#[derive(Debug, Clone)]
struct LiveFlow {
    key: FlowKey,
    links: Vec<usize>,
    priority: Priority,
}

fn random_links(rng: &mut Rng64, n_links: usize) -> Vec<usize> {
    // Mostly short routes (1–4 links), occasionally node-local (empty).
    if rng.gen_range(0, 16) == 0 {
        return Vec::new();
    }
    let hops = rng.gen_range_inclusive(1, 4);
    let mut links = Vec::with_capacity(hops + 1);
    for _ in 0..hops {
        let l = rng.gen_range(0, n_links);
        if !links.contains(&l) {
            links.push(l);
        }
    }
    // Sometimes cross one link twice (the solver then holds two
    // incidence slots for the flow on it).
    if rng.gen_range(0, 8) == 0 {
        let again = links[rng.gen_range(0, links.len())];
        links.push(again);
    }
    links
}

fn random_priority(rng: &mut Rng64) -> Priority {
    Priority::ALL[rng.gen_range(0, Priority::ALL.len())]
}

/// Compares the solver's rates against a from-scratch oracle run over
/// the live set (oracle flows ordered by ascending solver key, matching
/// the solver's own fill order).
fn assert_rate_identity(solver: &FairShareSolver, live: &[LiveFlow], caps: &[f64], context: &str) {
    let mut sorted: Vec<&LiveFlow> = live.iter().collect();
    sorted.sort_by_key(|f| f.key.0);
    let alloc: Vec<AllocFlow<'_>> = sorted
        .iter()
        .map(|f| AllocFlow {
            links: &f.links,
            priority: f.priority,
        })
        .collect();
    let want = max_min_rates(caps, &alloc);
    for (f, w) in sorted.iter().zip(&want) {
        let got = solver.rate(f.key);
        assert_eq!(
            got.to_bits(),
            w.to_bits(),
            "{context}: flow {:?} (links {:?}, {:?}): incremental {got} vs oracle {w}",
            f.key,
            f.links,
            f.priority,
        );
        // Solo-rate upper bound: no allocation beats the flow's
        // bottleneck capacity.
        assert!(
            got <= solo_rate(caps, &f.links),
            "{context}: flow {:?} rate {got} exceeds solo rate {}",
            f.key,
            solo_rate(caps, &f.links),
        );
    }
}

/// Drives `steps` random churn operations through the solver with the
/// given refill threshold, checking rate identity after every solve.
fn churn_case(seed: u64, n_links: usize, steps: usize, refill_fraction: Option<f64>) {
    let mut rng = Rng64::seed_from_u64(seed);
    let caps: Vec<f64> = (0..n_links)
        .map(|_| 1e9 * (1.0 + rng.gen_f64() * 999.0))
        .collect();
    let mut solver = FairShareSolver::new(caps.clone());
    if let Some(f) = refill_fraction {
        solver.set_refill_fraction(f);
    }
    let mut live: Vec<LiveFlow> = Vec::new();

    for step in 0..steps {
        // 1–4 deltas per solve: exercises coalescing of adds and
        // removes into one dirty set.
        let deltas = rng.gen_range_inclusive(1, 4);
        for _ in 0..deltas {
            let adding = live.is_empty() || rng.gen_range(0, 5) < 3;
            if adding {
                let links = random_links(&mut rng, n_links);
                let priority = random_priority(&mut rng);
                let key = solver.add_flow(&links, priority);
                live.push(LiveFlow {
                    key,
                    links,
                    priority,
                });
            } else {
                let victim = rng.gen_range(0, live.len());
                let f = live.swap_remove(victim);
                solver.remove_flow(f.key);
            }
        }
        solver.solve();
        let ctx = format!(
            "seed {seed} fraction {refill_fraction:?} step {step} ({} live)",
            live.len()
        );
        assert_rate_identity(&solver, &live, &caps, &ctx);
    }
}

#[test]
fn incremental_matches_oracle_under_churn_default_threshold() {
    for seed in [1u64, 2, 3, 0xFEED] {
        churn_case(seed, 48, 120, None);
    }
}

#[test]
fn incremental_matches_oracle_with_global_fallback_forced() {
    // fraction 0.0: every solve takes the global path.
    for seed in [7u64, 8] {
        churn_case(seed, 48, 80, Some(0.0));
    }
}

#[test]
fn incremental_matches_oracle_with_fallback_disabled() {
    // A huge fraction never falls back: pure component-local refills.
    for seed in [11u64, 12] {
        churn_case(seed, 48, 80, Some(1e9));
    }
}

#[test]
fn incremental_matches_oracle_on_sparse_disjoint_traffic() {
    // Few flows over many links: components stay tiny, maximising the
    // frozen-rate reuse the incremental path is supposed to get right.
    for seed in [21u64, 22] {
        churn_case(seed, 256, 100, None);
    }
}

#[test]
fn changed_flows_reports_are_sound() {
    // Rates of flows NOT reported as changed must be bitwise stable
    // across a solve — the delta-aware telemetry depends on it.
    let mut rng = Rng64::seed_from_u64(99);
    let n_links = 32;
    let caps: Vec<f64> = (0..n_links).map(|_| 1e9 * (1.0 + rng.gen_f64())).collect();
    let mut solver = FairShareSolver::new(caps.clone());
    let mut live: Vec<LiveFlow> = Vec::new();
    for _ in 0..40 {
        let links = random_links(&mut rng, n_links);
        let priority = random_priority(&mut rng);
        let key = solver.add_flow(&links, priority);
        live.push(LiveFlow {
            key,
            links,
            priority,
        });
    }
    solver.solve();
    for round in 0..30 {
        let before: Vec<(FlowKey, f64)> =
            live.iter().map(|f| (f.key, solver.rate(f.key))).collect();
        let victim = rng.gen_range(0, live.len());
        let f = live.swap_remove(victim);
        solver.remove_flow(f.key);
        solver.solve();
        let changed: Vec<FlowKey> = solver.changed_flows().to_vec();
        for (key, old_rate) in before {
            if key == f.key || changed.contains(&key) {
                continue;
            }
            assert_eq!(
                solver.rate(key),
                old_rate,
                "round {round}: unchanged flow {key:?} moved without being reported"
            );
        }
        assert_rate_identity(&solver, &live, &caps, &format!("round {round}"));
    }
}

// ---------------------------------------------------------------------------
// Drain-heap compaction invariance on the event engine.
//
// Compaction only drops provably-stale drain-heap entries, so the
// threshold that triggers it is a pure performance knob: the same call
// sequence must produce bit-identical results — completions, evictions,
// rejections, makespan, settled link bytes and the full trace — whether
// the heap is compacted eagerly or never.
// ---------------------------------------------------------------------------

use std::rc::Rc;

use fred::mesh::topology::MeshFabric;
use fred::sim::flow::FlowSpec;
use fred::sim::netsim::FlowNetwork;
use fred::sim::topology::LinkId;
use fred::telemetry::event::TraceEvent;
use fred::telemetry::sink::RingRecorder;

/// Everything one run produces, in comparable form.
#[derive(Debug, PartialEq)]
struct Transcript {
    /// `(completed_at bits, tag)` per completion, sorted.
    completions: Vec<(u64, u64)>,
    /// Per eviction op: `(tag, remaining-bytes bits)` sorted by tag —
    /// the settled-bytes check (settlement happens at eviction).
    evictions: Vec<Vec<(u64, u64)>>,
    /// Which injections were rejected (routes over failed links).
    rejected: Vec<u64>,
    /// Final clock, bitwise.
    makespan_bits: u64,
    /// Per-link carried bytes at the end of the run, bitwise.
    link_bytes: Vec<u64>,
    /// The recorded trace, event for event.
    events: Vec<TraceEvent>,
}

/// Drives a deterministic mixed workload — short and mesh-crossing
/// flows over three tenants, a mid-run link failure and degradation,
/// and a tenant-targeted preemption — through `net`, returning the
/// comparable transcript.
fn drive(mesh: &MeshFabric, mut net: FlowNetwork, rec: &Rc<RingRecorder>, seed: u64) -> Transcript {
    let mut rng = Rng64::seed_from_u64(seed);
    let quadrant = 4usize; // the 8x8 mesh seen as 2x2 quadrants
    let mut seq = 0u64;
    let mut completions: Vec<(u64, u64)> = Vec::new();
    let mut evictions = Vec::new();
    let mut rejected = Vec::new();
    let n_links = mesh.clone_topology().link_count();

    let draw = |rng: &mut Rng64, seq: &mut u64, cross: bool| -> FlowSpec {
        let sx = rng.gen_range(0, 8);
        let sy = rng.gen_range(0, 8);
        let (dx, dy) = if cross {
            // Destination in another quadrant: a long route.
            loop {
                let x = rng.gen_range(0, 8);
                let y = rng.gen_range(0, 8);
                if (x / quadrant, y / quadrant) != (sx / quadrant, sy / quadrant) {
                    break (x, y);
                }
            }
        } else {
            // Same quadrant, different NPU.
            loop {
                let x = (sx / quadrant) * quadrant + rng.gen_range(0, quadrant);
                let y = (sy / quadrant) * quadrant + rng.gen_range(0, quadrant);
                if (x, y) != (sx, sy) {
                    break (x, y);
                }
            }
        };
        let tenant = rng.gen_range(0, 3) as u8;
        let pri = Priority::ALL[rng.gen_range(0, Priority::ALL.len())];
        let tag = ((tenant as u64) << 56) | *seq;
        *seq += 1;
        FlowSpec::new(
            mesh.xy_route(mesh.npu_at(sx, sy), mesh.npu_at(dx, dy)),
            1e5 + rng.gen_f64() * 4e6,
        )
        .with_priority(pri)
        .with_tenant(tenant)
        .with_tag(tag)
    };

    for round in 0..12 {
        // Inject a burst (occasionally mesh-crossing).
        for _ in 0..rng.gen_range_inclusive(2, 6) {
            let cross = rng.gen_range(0, 4) == 0;
            let spec = draw(&mut rng, &mut seq, cross);
            let tag = spec.tag;
            if net.inject(spec).is_err() {
                rejected.push(tag);
            }
        }
        // Mid-run faults: one failure, one degradation.
        if round == 4 {
            let link = LinkId(rng.gen_range(0, n_links));
            let mut ev: Vec<(u64, u64)> = net
                .fail_link(link)
                .iter()
                .map(|e| (e.tag, e.remaining_bytes.to_bits()))
                .collect();
            ev.sort_unstable();
            evictions.push(ev);
        }
        if round == 6 {
            let link = LinkId(rng.gen_range(0, n_links));
            net.degrade_link(link, 0.25 + 0.5 * rng.gen_f64());
        }
        // Tenant preemption mid-run: evict every tenant-2 flow.
        if round == 8 {
            let mut ev: Vec<(u64, u64)> = net
                .evict_flows_matching(|tag| tag >> 56 == 2)
                .iter()
                .map(|e| (e.tag, e.remaining_bytes.to_bits()))
                .collect();
            ev.sort_unstable();
            evictions.push(ev);
        }
        // Let some events play out before the next burst.
        for _ in 0..rng.gen_range_inclusive(1, 3) {
            let Some(t) = net.next_event() else { break };
            net.advance_to(t);
            completions.extend(
                net.drain_completed()
                    .iter()
                    .map(|c| (c.completed_at.as_secs().to_bits(), c.tag)),
            );
        }
    }
    completions.extend(
        net.run_to_completion()
            .iter()
            .map(|c| (c.completed_at.as_secs().to_bits(), c.tag)),
    );
    completions.sort_unstable();

    Transcript {
        completions,
        evictions,
        rejected,
        makespan_bits: net.now().as_secs().to_bits(),
        link_bytes: (0..n_links)
            .map(|l| net.link_carried_bytes(LinkId(l)).to_bits())
            .collect(),
        events: rec.events(),
    }
}

fn mesh8() -> MeshFabric {
    MeshFabric::new(8, 8, 750e9, 128e9, 20e-9)
}

#[test]
fn heap_compaction_threshold_is_result_invariant() {
    // Aggressive compaction (threshold 1) vs disabled (usize::MAX):
    // bitwise-identical transcripts.
    let seed = 0xC0DEC0u64;
    let mesh = mesh8();
    let run = |min: usize| -> Transcript {
        let rec = Rc::new(RingRecorder::new());
        let mut net = FlowNetwork::with_sink(mesh.clone_topology(), rec.clone());
        net.set_heap_compaction_min(min);
        drive(&mesh, net, &rec, seed)
    };
    assert_eq!(run(1), run(usize::MAX));

    // And aggressive compaction must actually fire under heavy
    // eviction churn: 3/4 of the heap goes dead in one preemption,
    // tripping the dead-majority trigger at threshold 1.
    let mut net = FlowNetwork::new(mesh.clone_topology());
    net.set_heap_compaction_min(1);
    for i in 0..64u64 {
        let x = (i % 4) as usize;
        let y = ((i / 4) % 4) as usize;
        let route = mesh.xy_route(mesh.npu_at(x, y), mesh.npu_at((x + 1) % 4, y));
        net.inject(FlowSpec::new(route, 1e6).with_tag(i))
            .expect("mesh routes are valid");
    }
    // Force a solver flush so every flow holds a live heap entry
    // before the preemption marks 3/4 of them dead.
    net.next_event();
    let evicted = net.evict_flows_matching(|tag| tag % 4 != 0);
    assert_eq!(evicted.len(), 48);
    net.run_to_completion();
    assert!(
        net.heap_compactions() > 0,
        "threshold 1 with 75% dead heap entries must trigger compactions"
    );
}
