//! Property tests for the snapshot/restore contract (DESIGN.md §12):
//! capturing at *any* event boundary of a faulted, evicted or preempted
//! run and resuming — through the full binary codec — must be
//! bit-identical to never having stopped, and damaged snapshot files,
//! or snapshots that do not pair with their configuration, must fail
//! with typed errors, never panics.

use std::rc::Rc;

use fred_cluster::{Cluster, ClusterConfig, ClusterError, ClusterState, JobClass, JobSpec};
use fred_core::codec::{self, SnapshotError, Value};
use fred_core::params::FabricConfig;
use fred_core::placement::Strategy3D;
use fred_core::snapshot::{SimState, Snap};
use fred_mesh::topology::MeshFabric;
use fred_sim::fault::FaultPlan;
use fred_sim::flow::{FlowSpec, Priority};
use fred_sim::netsim::{CoreState, FlowNetwork};
use fred_sim::rng::Rng64;
use fred_sim::time::{Duration, Time};
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

fn bank_evicted(banked: &mut Banked, evicted: Vec<FlowSpec>) {
    for e in evicted {
        banked.push((1, e.tag, e.bytes.to_bits()));
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
            net.inject_batch(&mut wave2(m))
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
    reference.inject_batch(&mut wave1(&m)).unwrap();
    let mut ref_banked = Banked::new();
    let mut ref_step = 0;
    drive_plain(&mut reference, &m, &mut ref_step, &mut ref_banked, None);
    let ref_now = reference.now().as_secs().to_bits();
    assert!(ref_step > 10, "script too short to be interesting");

    for boundary in 0..=ref_step {
        let mut net = FlowNetwork::new(m.clone_topology());
        net.inject_batch(&mut wave1(&m)).unwrap();
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
            JobSpec {
                faults: faults.clone(),
                ..job("low-a").with_class(JobClass::Low)
            },
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
    // mid-preemption, and mid-queue). Resumes alternate between a clone
    // of the capturing config, whose compile context already holds the
    // fabric, the schedules and the solo runs, and a fresh config that
    // compiles them again, as a process restoring from a file does.
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
            let resume_cfg = if boundary.is_multiple_of(14) {
                cfg.clone()
            } else {
                ClusterConfig::new(FabricConfig::FredD)
            };
            let mut resumed = Cluster::restore(resume_cfg, mk(), Rc::new(NullSink), st).unwrap();
            assert_eq!(
                resumed.snapshot(),
                state,
                "restore changed the state at boundary {boundary}"
            );
            resumed.run_to_completion().unwrap();
            let report = resumed.into_report();
            assert_eq!(
                report.first_difference(&baseline),
                None,
                "diverged resuming from boundary {boundary}"
            );
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
    net.inject_batch(&mut wave1(&m)).unwrap();
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

/// Two Low jobs that fill a Fred-D wafer and a High job that arrives a
/// quarter of a solo run later, with the config they run on and the
/// solo run time in seconds.
fn two_low_jobs_and_a_high() -> (ClusterConfig, Vec<JobSpec>, f64) {
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
    (ClusterConfig::new(FabricConfig::FredD), jobs, solo)
}

/// The [`two_low_jobs_and_a_high`] cluster captured at `frac` of a solo
/// run, with the config and jobs it pairs with. At 0.1 the two Low jobs
/// share the wafer and the High job has not arrived yet; at 0.3 the
/// High job runs and the Low job it preempted waits in its queue.
fn two_low_jobs_capture(frac: f64) -> (ClusterConfig, Vec<JobSpec>, ClusterState) {
    let (cfg, jobs, solo) = two_low_jobs_and_a_high();
    let mut cluster = Cluster::new(cfg.clone(), jobs.clone(), Rc::new(NullSink)).unwrap();
    cluster.run_until(Time::from_secs(solo * frac)).unwrap();
    let state = cluster.snapshot();
    (cfg, jobs, state)
}

/// The same cluster captured at the first event boundary after which a
/// live flow's rate changes, so a resumed run settles that flow's bytes
/// from their restored watermark; with the flow's slot.
fn rerate_capture(cfg: &ClusterConfig, jobs: &[JobSpec]) -> (ClusterState, usize) {
    let mut walker = Cluster::new(cfg.clone(), jobs.to_vec(), Rc::new(NullSink)).unwrap();
    let mut prev: Option<ClusterState> = None;
    while let Some(t) = walker.next_event() {
        let state = walker.snapshot();
        if let Some(before) = prev {
            // A flow still in its slot whose watermark moved.
            let slot = before.net.flows.iter().zip(&state.net.flows).position(|pair| {
                matches!(pair, (Some(a), Some(b)) if a.id == b.id && a.updated_at != b.updated_at)
            });
            if let Some(slot) = slot {
                return (before, slot);
            }
        }
        prev = Some(state);
        walker.run_until(t).unwrap();
    }
    panic!("no event re-rates a live flow");
}

#[test]
fn snapshots_that_disagree_with_their_configuration_are_typed_errors() {
    let (cfg, jobs, good) = two_low_jobs_capture(0.1);
    assert_eq!(good.running.len(), 2, "both Low jobs run at the capture");
    let tags = good.running.iter().map(|r| r.tag_base);
    assert_eq!((tags.collect(), good.next_tag_base), (vec![0, 23], 46));
    let restore =
        |st: ClusterState| Cluster::restore(cfg.clone(), jobs.clone(), Rc::new(NullSink), st);
    assert!(restore(good.clone()).is_ok());
    // The edited state must still decode, and restoring it must fail
    // with a mismatch that names `field`.
    let expect_mismatch = |field: &str, st: ClusterState| {
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
    };

    // One-field edits, each with the field its error must name.
    type Edit = fn(&mut ClusterState);
    let edits: [(&str, Edit); 20] = [
        (".first_start", |s| {
            s.first_start.pop();
        }),
        (".queues", |s| s.queues[1].push(999)),
        // A running job queued as well.
        (".queues", |s| s.queues[2].push(s.running[0].job)),
        (".running[0].job", |s| s.running[0].job = 999),
        (".running[0].base", |s| s.running[0].base = 19),
        // The jobs' tags are 1..=23 and 24..=46, and 46 were handed out.
        // The second job on the first one's tags, on tags never handed
        // out, and the handed-out tags one job short.
        (".running[1].tag_base", |s| s.running[1].tag_base = 0),
        (".running[1].tag_base", |s| s.running[1].tag_base = 1046),
        (".next_tag_base", |s| s.next_tag_base = 23),
        // A base the next start's tag count would carry past u64::MAX.
        (".next_tag_base", |s| s.next_tag_base = u64::MAX - 5),
        (".start", |s| {
            s.running[0].exec.start.pop();
        }),
        (".net.solver.capacities", |s| {
            s.net.solver.capacities[0] = -1.0
        }),
        // The clock past the events the state still holds.
        (".net.now", |s| s.net.now += Duration::from_secs(1.0)),
        // A job that arrived before the clock but was never admitted.
        (".arrival_cursor", |s| s.arrival_cursor -= 1),
        // The network one link short of the topology.
        ("solver.capacities", |s| {
            s.net.solver.capacities.pop();
        }),
        // A route through a link the fabric does not have.
        (".net.solver.flows", |s| {
            let n = s.net.solver.capacities.len();
            let f = s.net.solver.flows.iter_mut().flatten().next().unwrap();
            f.links = f
                .links
                .iter()
                .copied()
                .chain([fred_sim::topology::LinkId(n)])
                .collect();
        }),
        // A free key naming an occupied slot.
        (".net.solver.free", |s| {
            let k = s.net.solver.flows.iter().position(Option::is_some).unwrap();
            s.net.solver.free.push(k as u32);
        }),
        // A class that disagrees with the flow's tenant and priority.
        (".net.solver.flows", |s| {
            let f = s.net.solver.flows.iter_mut().flatten().next().unwrap();
            f.class += 1;
        }),
        // Counters the next injection or rate assignment would carry
        // past u64::MAX, and a next id a live flow already holds.
        (".net.next_id", |s| s.net.next_id = u64::MAX - 5),
        (".net.next_generation", |s| {
            s.net.next_generation = u64::MAX - 5
        }),
        (".net.next_id", |s| {
            s.net.next_id = s.net.flows.iter().flatten().next().unwrap().id.0;
        }),
    ];
    for (field, edit) in edits {
        let mut st = good.clone();
        edit(&mut st);
        expect_mismatch(field, st);
    }

    // A byte watermark past the clock, on a flow the next event
    // re-rates: resumed, the run would settle that flow backwards.
    let (rerate, slot) = rerate_capture(&cfg, &jobs);
    assert!(restore(rerate.clone()).is_ok());
    let mut st = rerate.clone();
    let flow = st.net.flows[slot].as_mut().unwrap();
    flow.updated_at += Duration::from_secs(1.0);
    expect_mismatch(".net.flows", st);
    // Infinite bytes left on the same flow: resumed, its re-rating
    // would predict a drain at no instant.
    let mut st = rerate;
    st.net.flows[slot].as_mut().unwrap().remaining = f64::INFINITY;
    expect_mismatch(".net.flows", st);

    // The preempted Low job moved from its own queue to the High one:
    // resumed, it would be dispatched as High.
    let (_, _, mut st) = two_low_jobs_capture(0.3);
    assert_eq!(st.queues, [vec![], vec![], vec![0]]);
    assert!(restore(st.clone()).is_ok());
    st.queues = [vec![0], vec![], vec![]];
    expect_mismatch(".queues[0]", st);
}

/// Every edit site of a value tree: numbers, booleans and non-empty
/// arrays, each as the child-index path from the root.
fn edit_sites(v: &Value, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let children: Vec<&Value> = match v {
        Value::Num(_) | Value::Bool(_) => return out.push(path.clone()),
        Value::Arr(xs) => {
            if !xs.is_empty() {
                out.push(path.clone());
            }
            xs.iter().collect()
        }
        Value::Obj(kv) => kv.iter().map(|(_, x)| x).collect(),
        Value::Null | Value::Str(_) => return,
    };
    for (i, c) in children.into_iter().enumerate() {
        path.push(i);
        edit_sites(c, path, out);
        path.pop();
    }
}

/// Applies one random single-leaf edit at `path`: a number becomes
/// n+1, n−1, 0, 2n+7, 10⁶ or −1; an array loses its last element,
/// duplicates one, or swaps its first and last; a boolean flips.
fn edit_at(v: &mut Value, path: &[usize], rng: &mut Rng64) {
    let Some((&i, rest)) = path.split_first() else {
        match v {
            Value::Num(n) => {
                *n = [*n + 1.0, *n - 1.0, 0.0, *n * 2.0 + 7.0, 1e6, -1.0][rng.gen_range(0, 6)];
            }
            Value::Bool(b) => *b = !*b,
            Value::Arr(xs) => match rng.gen_range(0, 3) {
                0 => drop(xs.pop()),
                1 => xs.insert(
                    rng.gen_range(0, xs.len()),
                    xs[rng.gen_range(0, xs.len())].clone(),
                ),
                _ => {
                    let last = xs.len() - 1;
                    xs.swap(0, last);
                }
            },
            _ => unreachable!("not an edit site"),
        }
        return;
    };
    match v {
        Value::Arr(xs) => edit_at(&mut xs[i], rest, rng),
        Value::Obj(kv) => edit_at(&mut kv[i].1, rest, rng),
        _ => unreachable!("paths only descend through containers"),
    }
}

#[test]
fn single_leaf_edits_restore_and_run_or_fail_typed() {
    // Seeded single-leaf edits of two real captures, each driven
    // through decode, restore, a run to completion and, when the run
    // completes, the report: every step must return Ok or a typed
    // error — a panic fails the test. The second
    // capture is followed by rate changes, so edited watermarks, rates
    // and capacities reach a settle.
    let (cfg, jobs, low) = two_low_jobs_capture(0.1);
    let (rerate, _) = rerate_capture(&cfg, &jobs);
    let mut rng = Rng64::seed_from_u64(1);
    for good in [low, rerate] {
        let tree = good.to_value();
        let mut sites = Vec::new();
        edit_sites(&tree, &mut Vec::new(), &mut sites);
        // Edits rejected at decode, at restore, and restored and run.
        let mut outcomes = [0usize; 3];
        for _ in 0..2_000 {
            let mut v = tree.clone();
            edit_at(&mut v, &sites[rng.gen_range(0, sites.len())], &mut rng);
            let Ok(st) = ClusterState::from_value(&v) else {
                outcomes[0] += 1;
                continue;
            };
            match Cluster::restore(cfg.clone(), jobs.clone(), Rc::new(NullSink), st) {
                Err(_) => outcomes[1] += 1,
                Ok(mut cluster) => {
                    if cluster.run_to_completion().is_ok() {
                        cluster.into_report();
                    }
                    outcomes[2] += 1;
                }
            }
        }
        assert!(outcomes.iter().all(|&n| n > 0), "outcomes {outcomes:?}");
    }
}

#[test]
fn truncation_at_every_fixed_width_boundary_is_typed_truncated() {
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
