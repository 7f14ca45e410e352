//! Cross-crate integration: the flow-level simulator against the
//! closed-form cost models, and the paper's §8.1 effective-bandwidth
//! orderings.

use std::rc::Rc;

use fred::collectives::ring::{self, Direction};
use fred::collectives::{cost, CommPlan};
use fred::core::params::FabricConfig;
use fred::hwmodel::iohotspot;
use fred::mesh::topology::MeshFabric;
use fred::mesh::{rings, streaming};
use fred::sim::flow::{FlowSpec, Priority};
use fred::sim::netsim::FlowNetwork;
use fred::telemetry::sink::NullSink;
use fred::workloads::backend::FabricBackend;
use fred::workloads::report::CommType;
use fred::workloads::trainer::run_plan;

/// `plan` run alone on `backend` in `ctype`'s priority class, in
/// seconds.
fn seconds(backend: &FabricBackend, plan: CommPlan, ctype: CommType) -> f64 {
    run_plan(plan, ctype, backend, Rc::new(NullSink))
        .unwrap()
        .as_secs()
}

/// A 2×2 mesh of 100 B/s links: a 4-node duplex ring 0–1–3–2.
fn square() -> (FabricBackend, MeshFabric) {
    let mesh = MeshFabric::new(2, 2, 100.0, 100.0, 0.0);
    (FabricBackend::Mesh(mesh.clone()), mesh)
}

/// A unidirectional ring All-Reduce of 400 B around the square runs
/// 2·(4−1) phases of 100 B per link: the α-β time, 6 s.
#[test]
fn ring_all_reduce_matches_alpha_beta_time() {
    let (backend, mesh) = square();
    let plan = ring::all_reduce(&[0, 1, 3, 2], 400.0, Direction::Unidirectional, &mesh);
    assert_eq!(plan.phase_count(), 6);
    let secs = seconds(&backend, plan, CommType::Streaming);
    assert_eq!(cost::ring_all_reduce_time(4, 400.0, 100.0, 0.0), 6.0);
    assert!((secs - 6.0).abs() < 1e-9, "got {secs}");
}

/// Splitting each ring step into two reverse-direction halves uses both
/// directions of every duplex link: half the time, 3 s.
#[test]
fn bidirectional_ring_halves_time_on_a_duplex_ring() {
    let (backend, mesh) = square();
    let plan = ring::all_reduce(&[0, 1, 3, 2], 400.0, Direction::Bidirectional, &mesh);
    let secs = seconds(&backend, plan, CommType::Streaming);
    assert!((secs - 3.0).abs() < 1e-9, "got {secs}");
}

/// The mesh's wafer All-Reduce (a Hamiltonian ring, §7.2) beats the
/// snake ring, which pays long wrap-around hops, on a 4×4 mesh.
#[test]
fn mesh_wafer_all_reduce_beats_the_snake_ring() {
    let mesh = MeshFabric::new(4, 4, 100.0, 10.0, 0.0);
    let backend = FabricBackend::Mesh(mesh.clone());
    let group: Vec<usize> = (0..16).collect();
    let wafer = seconds(
        &backend,
        rings::wafer_all_reduce(&mesh, &group, 1600.0),
        CommType::Dp,
    );
    let snake = seconds(
        &backend,
        rings::all_reduce(&mesh, &group, 1600.0),
        CommType::Dp,
    );
    assert!(wafer > 0.0);
    assert!(wafer <= snake, "wafer {wafer} s vs snake ring {snake} s");
}

/// §8.1: the baseline's wafer-wide All-Reduce is bounded by its corner
/// NPUs (2 links each): about 1.5 TBps effective, not 3 TBps.
#[test]
fn corner_bound_limits_wafer_allreduce_bandwidth() {
    let mesh = MeshFabric::paper_baseline();
    let backend = FabricBackend::Mesh(mesh.clone());
    let d = 20e9;
    let group: Vec<usize> = (0..20).collect();
    let plan = rings::wafer_all_reduce(&mesh, &group, d);
    let eff = cost::endpoint_all_reduce_traffic(20, d) / seconds(&backend, plan, CommType::Dp);
    assert!(
        eff > 0.8e12 && eff < 2.2e12,
        "effective BW {eff:.3e} outside the corner-bounded band"
    );
}

/// Ring All-Reduce on the FRED tree matches the α-β model when run
/// contention-free: a single L1 cluster at full NPU bandwidth.
#[test]
fn simulated_ring_matches_cost_model() {
    let backend = FabricBackend::new(FabricConfig::FredC);
    let d = 8e9;
    let group = vec![0usize, 1, 2, 3]; // one L1 cluster
    let plan = match &backend {
        FabricBackend::Fred(f) => {
            ring::all_reduce(&group, d, Direction::Unidirectional, &|a, b| {
                f.npu_route(a, b)
            })
        }
        FabricBackend::Mesh(_) => unreachable!(),
    };
    let secs = seconds(&backend, plan, CommType::Streaming);
    let predicted = cost::ring_all_reduce_time(4, d, 3e12, 0.0);
    let err = (secs - predicted).abs() / predicted;
    assert!(err < 0.02, "sim {secs} vs model {predicted}");
}

/// The §8.1 wafer-wide All-Reduce ordering across all five Table 5
/// configurations.
#[test]
fn wafer_allreduce_ordering_holds() {
    let d = 10e9;
    let group: Vec<usize> = (0..20).collect();
    let mut time = std::collections::HashMap::new();
    for config in FabricConfig::ALL {
        let b = FabricBackend::new(config);
        let plan = b.all_reduce(&group, d);
        time.insert(config, seconds(&b, plan, CommType::Streaming));
    }
    use FabricConfig::*;
    // Fred-D fastest; baseline ~1.5 TBps effective; Fred-D ~2x baseline's
    // effective bandwidth with half the traffic => ~2.5x faster.
    assert!(time[&FredD] < time[&FredC]);
    assert!(time[&FredC] < time[&BaselineMesh]);
    assert!(time[&FredB] < time[&FredA]);
    let baseline_eff = cost::endpoint_all_reduce_traffic(20, d) / time[&BaselineMesh];
    assert!(
        (baseline_eff - 1.5e12).abs() / 1.5e12 < 0.1,
        "baseline effective BW {baseline_eff:.3e} (expected ~1.5 TBps)"
    );
    let fred_d_eff = d / time[&FredD];
    assert!(
        (fred_d_eff - 3e12).abs() / 3e12 < 0.1,
        "Fred-D effective BW {fred_d_eff:.3e} (expected ~3 TBps)"
    );
}

/// §3.2.1 / §8.2: simulated concurrent streaming on the baseline mesh
/// reproduces the closed-form 0.65 line-rate fraction; FRED streams at
/// full rate.
#[test]
fn streaming_linerate_fractions() {
    // Mesh: 0.651.
    let mesh = MeshFabric::paper_baseline();
    let mut net = FlowNetwork::new(mesh.clone_topology());
    for io in 0..mesh.io_count() {
        for (route, bytes) in streaming::streaming_in_flows(&mesh, io, 128e9) {
            net.inject(FlowSpec::new(route, bytes)).unwrap();
        }
    }
    let done = net.run_to_completion();
    let t = done
        .iter()
        .map(|c| c.completed_at.as_secs())
        .fold(0.0, f64::max);
    let predicted = iohotspot::achievable_channel_rate(5, 128e9, 750e9) / 128e9;
    assert!(
        (1.0 / t - predicted).abs() < 0.03,
        "mesh fraction {}",
        1.0 / t
    );

    // FRED (in-network): full line rate.
    let fred = FabricBackend::new(FabricConfig::FredD);
    let bytes = 18.0 * 128e9;
    let plan = fred.stream_in(bytes);
    let secs = seconds(&fred, plan, CommType::Streaming);
    assert!((secs - 1.0).abs() < 0.05, "fred stream {secs}");
}

/// Priorities: an MP collective injected during a DP collective
/// preempts it on shared links (§5.4) — the MP op finishes as if alone.
#[test]
fn mp_preempts_dp_on_shared_fabric() {
    let b = FabricBackend::new(FabricConfig::FredD);
    let group: Vec<usize> = (0..20).collect();
    let d = 1e9;
    let mut net = FlowNetwork::new(b.topology());
    // Long-running DP op over everything.
    for phase in &b.all_reduce(&group, 50.0 * d).phases {
        let mut flows: Vec<_> = phase
            .transfers
            .iter()
            .map(|t| {
                fred::sim::flow::FlowSpec::new(t.route.clone(), t.bytes)
                    .with_priority(Priority::Dp)
                    .with_tag(1)
            })
            .collect();
        net.inject_batch(&mut flows).unwrap();
    }
    // MP op arrives; must complete in ~d / 3 TBps despite the DP load.
    for phase in &b.all_reduce(&[0, 1, 2, 3], d).phases {
        let mut flows: Vec<_> = phase
            .transfers
            .iter()
            .map(|t| {
                fred::sim::flow::FlowSpec::new(t.route.clone(), t.bytes)
                    .with_priority(Priority::Mp)
                    .with_tag(2)
            })
            .collect();
        net.inject_batch(&mut flows).unwrap();
    }
    let done = net.run_to_completion();
    let mp_done = done
        .iter()
        .filter(|c| c.tag == 2)
        .map(|c| c.completed_at.as_secs())
        .fold(0.0, f64::max);
    let alone = d / 3e12;
    assert!(
        mp_done < alone * 1.1,
        "MP op took {mp_done} vs {alone} alone — priority preemption failed"
    );
}
