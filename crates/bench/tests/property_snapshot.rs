//! Property tests for the snapshot/restore contract (DESIGN.md §12):
//! capturing at *any* event boundary of a faulted, evicted or preempted
//! run and resuming — through the full binary codec — must be
//! bit-identical to never having stopped, and damaged snapshot files,
//! or snapshots that do not pair with their configuration, must fail
//! with typed errors, never panics.

use std::rc::Rc;

use fred_cluster::{Cluster, ClusterConfig, ClusterError, ClusterState, JobClass, JobSpec};
use fred_core::codec::{self, SnapshotError};
use fred_core::params::FabricConfig;
use fred_core::placement::Strategy3D;
use fred_core::snapshot::{SimState, Snap};
use fred_mesh::topology::MeshFabric;
use fred_sim::fault::FaultPlan;
use fred_sim::flow::{FlowSpec, Priority};
use fred_sim::netsim::{CoreState, FlowNetwork};
use fred_sim::time::Time;
use fred_telemetry::sink::NullSink;
use fred_workloads::backend::FabricBackend;
use fred_workloads::model::DnnModel;
use fred_workloads::schedule::ScheduleParams;
use fred_workloads::trainer::simulate;

/// One banked observation: completions (kind 0, completed-at bits) and
/// settled evictions (kind 1, remaining-bytes bits), in arrival order.
type Banked = Vec<(u8, u64, u64)>;

fn mesh() -> MeshFabric {
    MeshFabric::new(4, 4, 750e9, 128e9, 20e-9)
}

fn flow(
    m: &MeshFabric,
    s: (usize, usize),
    d: (usize, usize),
    mb: f64,
    p: Priority,
    tag: u64,
) -> FlowSpec {
    FlowSpec::new(m.xy_route(m.npu_at(s.0, s.1), m.npu_at(d.0, d.1)), mb * 1e6)
        .with_priority(p)
        .with_tag(tag)
}

/// Wave 1: spread over the mesh, several flows crossing the link that
/// the script later kills (so the fault mid-run evicts live traffic).
fn wave1(m: &MeshFabric) -> Vec<FlowSpec> {
    vec![
        flow(m, (0, 0), (2, 2), 4.0, Priority::Mp, 0),
        flow(m, (3, 0), (3, 2), 6.0, Priority::Dp, 1),
        flow(m, (3, 0), (3, 3), 8.0, Priority::Bulk, 2),
        flow(m, (1, 1), (0, 3), 3.0, Priority::Mp, 3),
        flow(m, (2, 0), (0, 1), 5.0, Priority::Dp, 4),
        flow(m, (3, 1), (1, 3), 7.0, Priority::Bulk, 5),
        flow(m, (0, 2), (2, 3), 2.0, Priority::Mp, 6),
        flow(m, (2, 2), (3, 3), 9.0, Priority::Dp, 7),
    ]
}

/// Wave 2 (injected mid-run): confined to columns 0–2, so XY routes
/// never touch the column-3 link failed at step 3.
fn wave2(m: &MeshFabric) -> Vec<FlowSpec> {
    vec![
        flow(m, (0, 0), (2, 1), 3.0, Priority::Mp, 8),
        flow(m, (1, 2), (0, 0), 6.0, Priority::Dp, 9),
        flow(m, (2, 3), (0, 2), 4.0, Priority::Bulk, 10),
        flow(m, (0, 1), (1, 3), 5.0, Priority::Mp, 11),
        flow(m, (2, 1), (1, 0), 2.0, Priority::Dp, 12),
    ]
}

fn bank_evicted(banked: &mut Banked, evicted: Vec<fred_sim::netsim::EvictedFlow>) {
    for e in evicted {
        banked.push((1, e.tag, e.remaining_bytes.to_bits()));
    }
}

/// Scripted mutations keyed by event-boundary index, applied *before*
/// the boundary's event is processed. The resume loop re-enters here
/// with the step counter carried by the test, so an uninterrupted run
/// and any capture/resume split replay the same script.
fn plain_actions(net: &mut FlowNetwork, m: &MeshFabric, step: usize, banked: &mut Banked) {
    match step {
        3 => {
            let dead = m.xy_route(m.npu_at(3, 0), m.npu_at(3, 1))[0];
            bank_evicted(banked, net.fail_link(dead));
        }
        4 => {
            net.inject_batch(wave2(m))
                .expect("wave 2 avoids the dead link");
        }
        7 => {
            let slow = m.xy_route(m.npu_at(0, 0), m.npu_at(0, 1))[0];
            net.degrade_link(slow, 0.5);
        }
        9 => {
            bank_evicted(banked, net.evict_flows_matching(|tag| tag % 4 == 1));
        }
        _ => {}
    }
}

/// Drives the faulted/evicted plain-network script from `*step`,
/// stopping before boundary `stop_before` (`None` = run dry).
fn drive_plain(
    net: &mut FlowNetwork,
    m: &MeshFabric,
    step: &mut usize,
    banked: &mut Banked,
    stop_before: Option<usize>,
) {
    loop {
        if stop_before == Some(*step) {
            return;
        }
        plain_actions(net, m, *step, banked);
        let Some(te) = net.next_event() else { return };
        net.advance_to(te);
        for c in net.drain_completed() {
            banked.push((0, c.tag, c.completed_at.as_secs().to_bits()));
        }
        *step += 1;
    }
}

#[test]
fn every_boundary_of_a_faulted_evicted_run_resumes_bit_identically() {
    let m = mesh();
    // Uninterrupted reference.
    let mut reference = FlowNetwork::new(m.clone_topology());
    reference.inject_batch(wave1(&m)).unwrap();
    let mut ref_banked = Banked::new();
    let mut ref_step = 0;
    drive_plain(&mut reference, &m, &mut ref_step, &mut ref_banked, None);
    let ref_now = reference.now().as_secs().to_bits();
    assert!(ref_step > 10, "script too short to be interesting");

    for boundary in 0..=ref_step {
        let mut net = FlowNetwork::new(m.clone_topology());
        net.inject_batch(wave1(&m)).unwrap();
        let mut banked = Banked::new();
        let mut step = 0;
        drive_plain(&mut net, &m, &mut step, &mut banked, Some(boundary));
        // Capture through the versioned container and the codec.
        let mut sim = SimState::new();
        sim.insert("net", net.snapshot().encode());
        let from_bin = SimState::from_binary(&sim.to_binary()).unwrap();
        assert_eq!(
            from_bin, sim,
            "binary codec not lossless at boundary {boundary}"
        );
        let state = CoreState::decode(from_bin.section("net").unwrap()).unwrap();
        let mut resumed =
            FlowNetwork::restore(m.clone_topology(), Rc::new(NullSink), state).unwrap();
        drive_plain(&mut resumed, &m, &mut step, &mut banked, None);
        assert_eq!(
            resumed.now().as_secs().to_bits(),
            ref_now,
            "clock diverged resuming from boundary {boundary}"
        );
        assert_eq!(
            banked, ref_banked,
            "completions/evictions diverged resuming from boundary {boundary}"
        );
    }
}

#[test]
fn cluster_boundaries_with_faults_and_preemption_resume_bit_identically() {
    let model = DnnModel::resnet152();
    let strategy = Strategy3D::new(1, 10, 1);
    let params = ScheduleParams::sweep_default(&model, strategy);
    let job = |name: &str| JobSpec::new(name, model.clone(), strategy, params);
    let backend = FabricBackend::new(FabricConfig::FredD);
    let solo = simulate(&model, strategy, &backend, params)
        .unwrap()
        .total
        .as_secs();
    // Two Low jobs fill the wafer; the High arrival forces a
    // preemption; the fault plan on low-a fires while it runs.
    let faults = FaultPlan::seeded_link_failures(
        &backend.topology(),
        0.03,
        Time::from_secs(solo * 0.35),
        0xFA_17,
    );
    assert!(!faults.is_empty());
    let mk = || {
        vec![
            job("low-a")
                .with_class(JobClass::Low)
                .with_faults(faults.clone()),
            job("low-b").with_class(JobClass::Low),
            job("high")
                .with_class(JobClass::High)
                .with_arrival(Time::from_secs(solo * 0.25)),
        ]
    };
    let cfg = ClusterConfig::new(FabricConfig::FredD);

    let mut reference = Cluster::new(cfg.clone(), mk(), Rc::new(NullSink)).unwrap();
    reference.run_to_completion().unwrap();
    let baseline = reference.into_report();

    // Walk one cluster forward, capturing at every event boundary;
    // resume a sampled subset to completion (every boundary would be
    // O(n²) full runs — the stride still lands captures mid-fault,
    // mid-preemption, and mid-queue).
    let mut walker = Cluster::new(cfg.clone(), mk(), Rc::new(NullSink)).unwrap();
    let mut boundary = 0usize;
    while let Some(t) = walker.next_event() {
        let state = walker.snapshot();
        let mut sim = SimState::new();
        sim.insert("cluster", state.to_value());
        let decoded = SimState::from_binary(&sim.to_binary()).unwrap();
        assert_eq!(
            decoded, sim,
            "binary codec not lossless at boundary {boundary}"
        );
        if boundary.is_multiple_of(7) {
            let st = ClusterState::from_value(decoded.section("cluster").unwrap()).unwrap();
            let mut resumed = Cluster::restore(cfg.clone(), mk(), Rc::new(NullSink), st).unwrap();
            resumed.run_to_completion().unwrap();
            let report = resumed.into_report();
            assert_eq!(
                report.makespan.as_secs().to_bits(),
                baseline.makespan.as_secs().to_bits(),
                "makespan diverged resuming from boundary {boundary}"
            );
            assert_eq!(report.preemptions, baseline.preemptions);
            for (a, b) in report.records.iter().zip(&baseline.records) {
                assert_eq!(
                    a.completion.as_secs().to_bits(),
                    b.completion.as_secs().to_bits(),
                    "job {} diverged resuming from boundary {boundary}",
                    a.name
                );
                assert_eq!(a.preemptions, b.preemptions);
            }
        }
        walker.run_until(t).unwrap();
        boundary += 1;
    }
    assert!(boundary > 20, "cluster script too short to be interesting");
    assert!(baseline.preemptions > 0, "scenario must actually preempt");
}

#[test]
fn damaged_snapshot_files_yield_typed_errors_not_panics() {
    // A real snapshot to damage.
    let m = mesh();
    let mut net = FlowNetwork::new(m.clone_topology());
    net.inject_batch(wave1(&m)).unwrap();
    if let Some(t) = net.next_event() {
        net.advance_to(t);
    }
    let mut sim = SimState::new();
    sim.insert("net", net.snapshot().encode());
    let good = sim.to_binary();
    assert!(SimState::from_binary(&good).is_ok());

    // Wrong magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        SimState::from_binary(&bad),
        Err(SnapshotError::BadMagic)
    ));

    // Wrong version.
    let mut bad = good.clone();
    bad[8] = bad[8].wrapping_add(1);
    assert!(matches!(
        SimState::from_binary(&bad),
        Err(SnapshotError::BadVersion { .. })
    ));

    // Truncation at every prefix length must error, never panic.
    for len in 0..good.len().min(64) {
        assert!(SimState::from_binary(&good[..len]).is_err());
    }
    assert!(SimState::from_binary(&good[..good.len() - 1]).is_err());

    // Every single-byte corruption either fails typed or decodes to
    // *some* value — it must never panic. (Sampled stride keeps this
    // fast; the interesting corruptions are tags/varints early on.)
    for i in (12..good.len()).step_by(7) {
        let mut bad = good.clone();
        bad[i] ^= 0x55;
        let _ = SimState::from_binary(&bad);
    }

    // A well-formed file whose section has the wrong shape is a typed
    // mismatch.
    let mut wrong_shape = SimState::new();
    wrong_shape.insert("net", codec::Value::Num(42.0));
    let decoded = SimState::from_binary(&wrong_shape.to_binary()).unwrap();
    assert!(matches!(
        CoreState::decode(decoded.section("net").unwrap()),
        Err(SnapshotError::Mismatch(_))
    ));

    // Codec-level detail: a valid header followed by a string whose
    // claimed length exceeds the buffer is typed, not an allocation.
    let mut claim = Vec::new();
    claim.extend_from_slice(&codec::SNAPSHOT_MAGIC);
    claim.extend_from_slice(&codec::SNAPSHOT_VERSION.to_le_bytes());
    claim.extend_from_slice(&[4, 0xFF, 0xFF, 0xFF, 0x7F]);
    assert!(codec::from_binary(&claim).is_err());
}

#[test]
fn snapshots_that_disagree_with_their_configuration_are_typed_errors() {
    // Two Low jobs share the wafer; the High job has not arrived yet.
    let model = DnnModel::resnet152();
    let strategy = Strategy3D::new(1, 10, 1);
    let params = ScheduleParams::sweep_default(&model, strategy);
    let job = |name: &str| JobSpec::new(name, model.clone(), strategy, params);
    let backend = FabricBackend::new(FabricConfig::FredD);
    let solo = simulate(&model, strategy, &backend, params)
        .unwrap()
        .total
        .as_secs();
    let jobs = vec![
        job("low-a").with_class(JobClass::Low),
        job("low-b").with_class(JobClass::Low),
        job("high")
            .with_class(JobClass::High)
            .with_arrival(Time::from_secs(solo * 0.25)),
    ];
    let cfg = ClusterConfig::new(FabricConfig::FredD);
    let mut cluster = Cluster::new(cfg.clone(), jobs.clone(), Rc::new(NullSink)).unwrap();
    cluster.run_until(Time::from_secs(solo * 0.1)).unwrap();
    let good = cluster.snapshot();
    assert_eq!(good.running.len(), 2, "both Low jobs run at the capture");
    let restore =
        |st: ClusterState| Cluster::restore(cfg.clone(), jobs.clone(), Rc::new(NullSink), st);
    assert!(restore(good.clone()).is_ok());

    // One-field edits that still decode, each with the field its error
    // must name.
    type Edit = fn(&mut ClusterState);
    let edits: [(&str, Edit); 7] = [
        (".slot_owners", |s| {
            s.slot_owners.pop();
        }),
        (".first_start", |s| {
            s.first_start.pop();
        }),
        (".queues", |s| s.queues[1].push(999)),
        (".running[0].job", |s| s.running[0].job = 999),
        (".running[0].base", |s| s.running[0].base = 19),
        (".indegree", |s| {
            s.running[0].exec.indegree.pop();
        }),
        // The network one link short of the topology.
        ("solver.capacities", |s| {
            let net = &mut s.net;
            net.solver.capacities.pop();
            net.solver.link_flows.pop();
            net.solver.link_alloc.pop();
            net.failed.pop();
            net.link_alloc.pop();
        }),
    ];
    for (field, edit) in edits {
        let mut st = good.clone();
        edit(&mut st);
        let mut sim = SimState::new();
        sim.insert("cluster", st.to_value());
        let decoded = SimState::from_binary(&sim.to_binary()).unwrap();
        let st = ClusterState::from_value(decoded.section("cluster").unwrap())
            .unwrap_or_else(|e| panic!("edit of {field} must decode: {e}"));
        match restore(st) {
            Err(ClusterError::Snapshot(SnapshotError::Mismatch(why))) => {
                assert!(why.contains(field), "edit of {field}: {why}");
            }
            Err(e) => panic!("edit of {field}: {e}"),
            Ok(_) => panic!("edit of {field} restored"),
        }
    }
}

#[test]
fn truncation_at_every_fixed_width_boundary_is_typed_truncated() {
    use fred_core::codec::Value;
    // A document whose binary image exercises every fixed-width field
    // the format has — the 8-byte magic, the 4-byte version, and 8-byte
    // f64 payloads (including negative-zero and non-finite bit
    // patterns) — interleaved with variable-width strings and varints.
    let v = Value::Obj(vec![
        (
            "nums".into(),
            Value::Arr(vec![
                Value::Num(0.0),
                Value::Num(-0.0),
                Value::Num(1.5e300),
                Value::Num(f64::NEG_INFINITY),
                Value::Num(f64::from_bits(0x7FF8_0000_DEAD_BEEF)),
            ]),
        ),
        ("s".into(), Value::Str("tail".into())),
        ("b".into(), Value::Bool(true)),
    ]);
    let bytes = codec::to_binary(&v);
    assert!(codec::from_binary(&bytes).is_ok());

    // Every strict prefix — cutting inside the magic, inside the
    // version word, inside any f64 payload, or anywhere else — must be
    // exactly `Truncated`: never a panic, never mis-typed.
    for len in 0..bytes.len() {
        let err = codec::from_binary(&bytes[..len]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Truncated),
            "prefix of {len}/{} bytes gave {err:?}, expected Truncated",
            bytes.len()
        );
    }

    // Targeted minimal buffers: a version word cut at each of its four
    // byte boundaries, and a number tag followed by 0..8 payload bytes.
    for cut in 0..4 {
        let mut short = Vec::new();
        short.extend_from_slice(&codec::SNAPSHOT_MAGIC);
        short.extend_from_slice(&codec::SNAPSHOT_VERSION.to_le_bytes()[..cut]);
        assert!(
            matches!(codec::from_binary(&short), Err(SnapshotError::Truncated)),
            "version cut at byte {cut}"
        );
    }
    for cut in 0..8 {
        let mut short = Vec::new();
        short.extend_from_slice(&codec::SNAPSHOT_MAGIC);
        short.extend_from_slice(&codec::SNAPSHOT_VERSION.to_le_bytes());
        short.push(3); // TAG_NUM
        short.extend_from_slice(&1.25f64.to_bits().to_le_bytes()[..cut]);
        assert!(
            matches!(codec::from_binary(&short), Err(SnapshotError::Truncated)),
            "f64 payload cut at byte {cut}"
        );
    }
}
