//! The discrete-event trainer (the role of ASTRA-SIM's system layer,
//! §7.4).
//!
//! Four entry points, one event loop:
//!
//! * [`run_iteration`] executes a compiled [`Schedule`] against the
//!   flow-level network simulator;
//! * [`simulate`] places, schedules, runs and reports one iteration of
//!   a model under a 3D strategy;
//! * [`simulate_faulted`] is [`simulate`] under a [`FaultPlan`] with
//!   telemetry recorded into a [`TraceSink`]; the other two run with
//!   [`FaultPlan::none`] and a [`NullSink`];
//! * [`run_plan`] times one [`CommPlan`] alone (the §8.1
//!   microbenchmarks), as a chain of one-phase comm tasks.
//!
//! The loop is a [`Stepper`] running one executor, started at time
//! zero over a private network. Compute tasks occupy their virtual
//! worker for a roofline duration; comm tasks progress phase by phase
//! through the shared network, contending with every other in-flight
//! collective under max-min fairness and MP > PP > DP priority.
//! Completion times feed the exposed-communication accounting of
//! [`TrainingReport`] (§7.4: exposed time = time the workload waits on
//! communication not overlapped with compute).

use std::collections::BTreeMap;
use std::rc::Rc;

use fred_collectives::plan::CommPlan;
use fred_core::placement::{Placement, PlacementPolicy, Strategy3D};
use fred_sim::fault::FaultPlan;
use fred_sim::netsim::FlowNetwork;
use fred_sim::time::{Duration, Time};
use fred_telemetry::event::TraceEvent;
use fred_telemetry::sink::{NullSink, TraceSink};

use crate::backend::FabricBackend;
use crate::error::TrainError;
use crate::exec::Stepper;
use crate::model::DnnModel;
use crate::report::{CommType, TrainingReport};
use crate::schedule::{build_schedule, Schedule, ScheduleParams, Task, TaskBody, TaskId};

pub use crate::exec::IterationTiming;

/// Executes `schedule` on a fresh simulator over `backend`'s topology.
/// The executor holds a clone, which shares the schedule's task graph.
///
/// # Errors
///
/// [`TrainError::Stalled`] if the dependency graph deadlocks,
/// [`TrainError::Route`] if a plan route is invalid.
pub fn run_iteration(
    schedule: &Schedule,
    backend: &FabricBackend,
) -> Result<IterationTiming, TrainError> {
    run_iteration_faulted(
        Rc::new(schedule.clone()),
        backend,
        &FaultPlan::none(),
        Rc::new(NullSink),
    )
}

/// Runs `plan` alone on a fresh network over `backend`'s topology,
/// recording into `sink`, and returns its duration. Phase `k` runs as a
/// comm task of type `ctype` labelled `<label>[k]` that waits for phase
/// `k - 1`: one span and one batch each, through [`run_iteration`]'s
/// loop, with no iteration stage.
///
/// # Errors
///
/// [`TrainError::Route`] if a plan route is invalid.
pub fn run_plan(
    plan: CommPlan,
    ctype: CommType,
    backend: &FabricBackend,
    sink: Rc<dyn TraceSink>,
) -> Result<Duration, TrainError> {
    let label = plan.label;
    let tasks = plan
        .phases
        .into_iter()
        .enumerate()
        .map(|(k, phase)| Task {
            body: TaskBody::Comm {
                plan: Rc::new(CommPlan {
                    label: format!("{label}[{k}]"),
                    phases: vec![phase],
                }),
                ctype,
            },
            deps: k.checked_sub(1).map(TaskId).into_iter().collect(),
        })
        .collect();
    let chain = Rc::new(Schedule::new(tasks, Vec::new(), label, 0));
    let net = FlowNetwork::with_sink(backend.topology(), sink);
    let timing = run_alone(net, chain, backend, &FaultPlan::none())?;
    Ok(timing.makespan - Time::ZERO)
}

/// The trainer's iteration: [`run_alone`] over a private network
/// recording into `sink`, between two iteration-stage markers. Timing
/// results are bit-identical whatever the sink.
fn run_iteration_faulted(
    schedule: Rc<Schedule>,
    backend: &FabricBackend,
    faults: &FaultPlan,
    sink: Rc<dyn TraceSink>,
) -> Result<IterationTiming, TrainError> {
    let net = FlowNetwork::with_sink(backend.topology(), sink.clone());
    let tracing = sink.enabled();
    if tracing {
        sink.record(TraceEvent::IterStage {
            t: 0.0,
            label: "iteration-start".into(),
        });
    }
    let timing = run_alone(net, schedule, backend, faults)?;
    if tracing {
        sink.record(TraceEvent::IterStage {
            t: timing.makespan.as_secs(),
            label: "iteration-end".into(),
        });
    }
    Ok(timing)
}

/// The one loop of every single-schedule run: `schedule` driven to
/// completion over `net` under `faults` (see [`Stepper::step`]).
fn run_alone(
    net: FlowNetwork,
    schedule: Rc<Schedule>,
    backend: &FabricBackend,
    faults: &FaultPlan,
) -> Result<IterationTiming, TrainError> {
    // One owner, started at time zero with the classic tags (0, n] and
    // tenant rank 0: its fault times count from zero, and its network
    // carries no tag but its own.
    let mut run = Stepper::new(net, 1);
    run.start(0, schedule, 0, None, backend)?;
    let plan = |_| faults;
    loop {
        if let Some((_, ex)) = run.take_finished() {
            return Ok(ex.timing());
        }
        let Some(next) = run.next_event(plan) else {
            let (_, ex) = run.running().next().expect("an unfinished executor runs");
            return Err(ex.stalled());
        };
        run.step(next, backend, plan).map_err(|(_, err)| err)?;
    }
}

/// Builds the exposed-communication breakdown from a timed iteration
/// (§7.4): walking each worker's wait chain, a comm task contributes
/// the time by which its completion extends past everything the worker
/// had already waited for.
pub fn breakdown(
    schedule: &Schedule,
    timing: &IterationTiming,
    workload: &str,
    config: &str,
) -> TrainingReport {
    let workers = schedule.worker_chains.len().max(1) as f64;
    let mut exposed: BTreeMap<CommType, f64> = BTreeMap::new();
    let mut compute_total = 0.0;
    for chain in schedule.worker_chains.iter() {
        let mut horizon = Time::ZERO;
        for &t in chain {
            match &schedule.tasks[t.0].body {
                TaskBody::Compute { duration, .. } => {
                    compute_total += duration.as_secs();
                    horizon = horizon.max(timing.finish[t.0]);
                }
                TaskBody::Comm { ctype, .. } => {
                    let f = timing.finish[t.0];
                    if f > horizon {
                        *exposed.entry(*ctype).or_insert(0.0) += (f - horizon).as_secs();
                        horizon = f;
                    }
                }
            }
        }
    }
    TrainingReport {
        workload: workload.into(),
        config: config.into(),
        strategy: schedule.strategy.clone(),
        minibatch: schedule.minibatch,
        total: timing.makespan - Time::ZERO,
        compute: Duration::from_secs(compute_total / workers),
        exposed: exposed
            .into_iter()
            .map(|(k, v)| (k, Duration::from_secs(v / workers)))
            .collect(),
    }
}

/// End-to-end convenience: place, schedule, simulate and report one
/// training iteration of `model` under `strategy` on `backend`, with
/// the paper's placement policy for the fabric
/// ([`PlacementPolicy::for_fabric`]).
///
/// # Errors
///
/// Fails under the same conditions as [`run_iteration`].
pub fn simulate(
    model: &DnnModel,
    strategy: Strategy3D,
    backend: &FabricBackend,
    params: ScheduleParams,
) -> Result<TrainingReport, TrainError> {
    simulate_faulted(
        model,
        strategy,
        backend,
        params,
        &FaultPlan::none(),
        Rc::new(NullSink),
    )
}

/// [`simulate`] under a deterministic [`FaultPlan`], with every network
/// event, collective phase and trainer task recorded into `sink`. With
/// [`FaultPlan::none`] the result is bit-identical to [`simulate`]
/// whatever the sink.
///
/// # Errors
///
/// In addition to [`run_iteration`]'s errors:
/// [`TrainError::Unroutable`] if failures cut some transfer's endpoints
/// apart, [`TrainError::UnknownCommTag`] if a completion cannot be
/// attributed to a comm task.
pub fn simulate_faulted(
    model: &DnnModel,
    strategy: Strategy3D,
    backend: &FabricBackend,
    params: ScheduleParams,
    faults: &FaultPlan,
    sink: Rc<dyn TraceSink>,
) -> Result<TrainingReport, TrainError> {
    let placement = Placement::new(strategy, PlacementPolicy::for_fabric(backend.config()));
    let schedule = Rc::new(build_schedule(model, strategy, &placement, backend, params));
    let timing = run_iteration_faulted(Rc::clone(&schedule), backend, faults, sink)?;
    Ok(breakdown(
        &schedule,
        &timing,
        &model.name,
        backend.config().name(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DnnModel;
    use crate::schedule::TaskId;
    use fred_core::params::FabricConfig;

    fn quick_params(minibatch: usize, microbatches: usize) -> ScheduleParams {
        ScheduleParams {
            minibatch,
            microbatches,
            npu_flops: 1000e12,
        }
    }

    #[test]
    fn resnet_dp_iteration_runs_and_breaks_down() {
        let m = DnnModel::resnet152();
        let backend = FabricBackend::new(FabricConfig::BaselineMesh);
        let r = simulate(&m, m.default_strategy, &backend, quick_params(320, 1)).unwrap();
        assert!(r.total.as_secs() > 0.0);
        assert!(r.compute.as_secs() > 0.0);
        // Pure DP: DP must be the dominant exposed type; no MP/PP.
        assert!(r.exposed_for(CommType::Dp).as_secs() > 0.0);
        assert_eq!(r.exposed_for(CommType::Mp), Duration::ZERO);
        assert_eq!(r.exposed_for(CommType::Pp), Duration::ZERO);
        // Total >= compute (nothing can hide compute).
        assert!(r.total.as_secs() >= r.compute.as_secs() * 0.99);
    }

    #[test]
    fn fred_d_beats_baseline_on_resnet() {
        // Fig 10 headline: Fred-D improves ResNet-152 end-to-end time.
        let m = DnnModel::resnet152();
        let base = simulate(
            &m,
            m.default_strategy,
            &FabricBackend::new(FabricConfig::BaselineMesh),
            quick_params(320, 1),
        )
        .unwrap();
        let fred = simulate(
            &m,
            m.default_strategy,
            &FabricBackend::new(FabricConfig::FredD),
            quick_params(320, 1),
        )
        .unwrap();
        let speedup = fred.speedup_over(&base);
        assert!(speedup > 1.05, "Fred-D speedup {speedup:.2} <= 1.05");
        // And the DP exposed time specifically shrinks.
        assert!(fred.exposed_for(CommType::Dp) < base.exposed_for(CommType::Dp));
    }

    #[test]
    fn transformer_pipeline_exposes_all_types() {
        let m = DnnModel::transformer_17b();
        let backend = FabricBackend::new(FabricConfig::BaselineMesh);
        let r = simulate(&m, m.default_strategy, &backend, quick_params(48, 4)).unwrap();
        assert!(r.exposed_for(CommType::Mp).as_secs() > 0.0);
        assert!(r.exposed_for(CommType::Dp).as_secs() > 0.0);
        assert!(r.total >= r.compute);
    }

    #[test]
    fn streaming_workload_is_streaming_bound() {
        let m = DnnModel::transformer_1t();
        let backend = FabricBackend::new(FabricConfig::BaselineMesh);
        let r = simulate(&m, m.default_strategy, &backend, quick_params(20, 1)).unwrap();
        let streaming = r.exposed_for(CommType::Streaming).as_secs();
        assert!(streaming > 0.0, "no streaming exposure: {r}");
        // 2 TB x 3 passes over ~1.5 TBps effective: streaming dominates
        // every other comm type.
        for t in [CommType::Mp, CommType::Pp, CommType::Dp] {
            assert!(r.exposed_for(t).as_secs() <= streaming);
        }
    }

    #[test]
    fn makespan_bounded_below_by_critical_compute() {
        let m = DnnModel::transformer_17b();
        let backend = FabricBackend::new(FabricConfig::FredD);
        let params = quick_params(48, 4);
        let placement = Placement::new(m.default_strategy, PlacementPolicy::MpPpDp);
        let schedule = build_schedule(&m, m.default_strategy, &placement, &backend, params);
        let timing = run_iteration(&schedule, &backend).unwrap();
        let w0_compute = schedule.worker_compute_secs(0);
        assert!(timing.makespan.as_secs() >= w0_compute);
        // Start/finish are consistent.
        for i in 0..schedule.tasks.len() {
            assert!(timing.finish[i] >= timing.start[i]);
            for d in &schedule.tasks[i].deps {
                assert!(timing.start[i] >= timing.finish[d.0]);
            }
        }
    }

    #[test]
    fn priorities_let_mp_cut_ahead_of_dp() {
        // Construct contention: run T-17B on the mesh where MP/DP share
        // links; MP (higher priority) exposure should stay bounded even
        // under DP pressure. This is a smoke test of the §5.4 policy.
        let m = DnnModel::transformer_17b();
        let backend = FabricBackend::new(FabricConfig::BaselineMesh);
        let r = simulate(
            &m,
            fred_core::placement::Strategy3D::new(2, 5, 2),
            &backend,
            quick_params(80, 2),
        )
        .unwrap();
        assert!(r.total.as_secs() > 0.0);
    }

    #[test]
    fn cyclic_schedule_stalls_with_diagnostics() {
        use crate::schedule::Task;
        use fred_sim::time::Duration as D;
        // t0 is fine; t1 and t2 wait on each other — a dependency cycle
        // the trainer must surface as a typed stall, not a panic.
        let backend = FabricBackend::new(FabricConfig::BaselineMesh);
        let mk = |deps: Vec<TaskId>| Task {
            deps,
            body: TaskBody::Compute {
                worker: crate::schedule::WorkerId(0),
                duration: D::from_secs(1.0),
            },
        };
        let schedule = Schedule::new(
            vec![mk(vec![]), mk(vec![TaskId(2)]), mk(vec![TaskId(1)])],
            vec![vec![TaskId(0), TaskId(1), TaskId(2)]],
            "cyclic-test".into(),
            1,
        );
        let err = run_iteration(&schedule, &backend).unwrap_err();
        let TrainError::Stalled {
            completed,
            total,
            pending,
        } = err
        else {
            panic!("expected Stalled, got {err:?}");
        };
        assert_eq!((completed, total), (1, 3));
        assert_eq!(pending.len(), 2);
        assert_eq!(pending[0].id, TaskId(1));
        assert_eq!(pending[0].blocked_on, vec![TaskId(2)]);
        assert_eq!(pending[1].blocked_on, vec![TaskId(1)]);
    }

    #[test]
    fn faulted_iteration_degrades_but_completes() {
        use fred_sim::fault::FaultPlan;
        use fred_sim::time::Time;
        let m = DnnModel::transformer_17b();
        let backend = FabricBackend::new(FabricConfig::FredD);
        let base = simulate(&m, m.default_strategy, &backend, quick_params(48, 4)).unwrap();
        let topo = backend.topology();
        let faults = FaultPlan::seeded_link_failures(&topo, 0.02, Time::ZERO, 7);
        assert!(!faults.is_empty());
        let faulted = simulate_faulted(
            &m,
            m.default_strategy,
            &backend,
            quick_params(48, 4),
            &faults,
            Rc::new(NullSink),
        )
        .unwrap();
        // Degradation can only slow the iteration down.
        assert!(faulted.total.as_secs() >= base.total.as_secs() * 0.999);
    }

    #[test]
    fn a_link_too_slow_to_drain_stalls_the_iteration() {
        // Degraded to 1e-320 of its width, NPU 0's uplink gives its
        // flows a positive rate at which they drain past the largest
        // representable time. They get no drain entry, so the
        // iteration runs out of events with its gradients in flight.
        use fred_sim::fault::{FaultEvent, FaultKind};
        let m = DnnModel::resnet152();
        let backend = FabricBackend::new(FabricConfig::FredD);
        let faults = FaultPlan::new(vec![FaultEvent {
            at: Time::ZERO,
            link: backend.npu_route(0, 1)[0],
            kind: FaultKind::LinkDegrade(1e-320),
        }]);
        let err = simulate_faulted(
            &m,
            m.default_strategy,
            &backend,
            quick_params(320, 1),
            &faults,
            Rc::new(NullSink),
        )
        .unwrap_err();
        assert!(matches!(err, TrainError::Stalled { .. }), "{err:?}");
    }

    /// A 2×2 mesh of 100 B/s links: a 4-node duplex ring 0–1–3–2.
    fn square() -> FabricBackend {
        FabricBackend::Mesh(fred_mesh::topology::MeshFabric::new(
            2, 2, 100.0, 100.0, 0.0,
        ))
    }

    /// A plan labelled `label` of `phases`, each a list of
    /// `(src, dst, bytes)` transfers routed on `b`.
    fn plan_of(b: &FabricBackend, label: &str, phases: &[&[(usize, usize, f64)]]) -> CommPlan {
        let transfer = |&(src, dst, bytes)| fred_collectives::plan::Transfer {
            src,
            dst,
            bytes,
            route: b.npu_route(src, dst).into(),
        };
        CommPlan {
            label: label.into(),
            phases: phases
                .iter()
                .map(|p| fred_collectives::plan::Phase {
                    transfers: p.iter().map(transfer).collect(),
                })
                .collect(),
        }
    }

    fn run_untraced(b: &FabricBackend, plan: CommPlan) -> Result<Duration, TrainError> {
        run_plan(plan, CommType::Streaming, b, Rc::new(NullSink))
    }

    #[test]
    fn plan_phases_run_serially() {
        let b = square();
        let plan = plan_of(&b, "serial", &[&[(0, 1, 100.0)], &[(1, 3, 100.0)]]);
        // Two serial 1-second phases on different links.
        let d = run_untraced(&b, plan).unwrap();
        assert!((d.as_secs() - 2.0).abs() < 1e-9, "got {d}");
    }

    #[test]
    fn concurrent_transfers_of_a_phase_share_links() {
        let b = square();
        let plan = plan_of(&b, "contended", &[&[(0, 1, 100.0), (0, 1, 100.0)]]);
        let d = run_untraced(&b, plan).unwrap();
        assert!((d.as_secs() - 2.0).abs() < 1e-9, "got {d}");
    }

    #[test]
    fn a_plan_with_an_invalid_route_is_a_route_error() {
        use fred_sim::topology::{LinkId, RouteError};
        let b = square();
        let mut plan = plan_of(&b, "bad", &[&[(0, 1, 1.0)]]);
        plan.phases[0].transfers[0].route = Rc::new([LinkId(99)]);
        assert_eq!(
            run_untraced(&b, plan),
            Err(TrainError::Route(RouteError::UnknownLink(LinkId(99))))
        );
    }

    /// The shape the `analysis` leaves of the microbenchmarks rest on:
    /// per phase one span labelled `<label>[k]` with the phase's bytes
    /// and source count, an edge to phase k − 1, its flows on the
    /// span's tag, and no iteration stage.
    #[test]
    fn a_traced_plan_is_one_span_per_phase_in_a_chain() {
        use fred_telemetry::event::Track;
        use fred_telemetry::sink::RingRecorder;
        let b = square();
        let plan = plan_of(
            &b,
            "p",
            &[
                &[(0, 1, 100.0), (0, 2, 50.0)],
                &[],
                &[(1, 3, 100.0), (2, 3, 100.0), (3, 2, 20.0)],
            ],
        );
        let sink = Rc::new(RingRecorder::new());
        let d = run_plan(plan, CommType::Dp, &b, sink.clone()).unwrap();
        assert!((d.as_secs() - 2.0).abs() < 1e-9, "got {d}");
        let events = sink.events();
        assert!(!events
            .iter()
            .any(|e| matches!(e, TraceEvent::IterStage { .. })));
        let mut spans = Vec::new();
        let (mut deps, mut ends, mut flows) = (Vec::new(), Vec::new(), Vec::new());
        for e in &events {
            match e {
                TraceEvent::PhaseBegin {
                    t,
                    track,
                    span,
                    label,
                    bytes,
                    npus,
                    tag,
                } => {
                    assert_eq!(*track, Track::Dp);
                    spans.push((*span, *tag));
                    let begun = (label.to_string(), *t, *bytes, *npus);
                    ends.push((begun, None));
                }
                TraceEvent::SpanDep { span, pred, .. } => deps.push((*span, *pred)),
                TraceEvent::PhaseEnd { t, span, .. } => {
                    let k = spans.iter().position(|s| s.0 == *span).unwrap();
                    assert_eq!(ends[k].1.replace(*t), None, "span {span} ended twice");
                }
                TraceEvent::FlowInjected { tag, .. } => flows.push((spans.len() - 1, *tag)),
                _ => {}
            }
        }
        assert_eq!(
            ends,
            [
                (("p[0]".to_string(), 0.0, 150.0, 1), Some(1.0)),
                (("p[1]".to_string(), 1.0, 0.0, 0), Some(1.0)),
                (("p[2]".to_string(), 1.0, 220.0, 3), Some(2.0)),
            ]
        );
        assert_eq!(deps, [(spans[1].0, spans[0].0), (spans[2].0, spans[1].0)]);
        let tagged: Vec<_> = flows
            .iter()
            .map(|&(k, tag)| (k, tag == spans[k].1))
            .collect();
        assert_eq!(
            tagged,
            [(0, true), (0, true), (2, true), (2, true), (2, true)]
        );
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        let m = DnnModel::resnet152();
        let backend = FabricBackend::new(FabricConfig::FredD);
        let params = quick_params(320, 1);
        let plain = simulate(&m, m.default_strategy, &backend, params).unwrap();
        let faulted = simulate_faulted(
            &m,
            m.default_strategy,
            &backend,
            params,
            &FaultPlan::none(),
            Rc::new(NullSink),
        )
        .unwrap();
        assert_eq!(plain, faulted);
    }
}
