//! `train-streaming` and `train-stationary`: the single-job training
//! iterations behind the paper's fig10 and fig11, one unit per
//! `simulate`-equivalent iteration.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use fred_core::params::FabricConfig;
use fred_core::placement::{Placement, PlacementPolicy, Strategy3D};
use fred_sim::netsim::FlowNetwork;
use fred_sim::rng::Rng64;
use fred_telemetry::prof;
use fred_telemetry::sink::NullSink;
use fred_workloads::backend::FabricBackend;
use fred_workloads::error::TrainError;
use fred_workloads::exec::{ExecConfig, IterationTiming, ScheduleExecutor};
use fred_workloads::model::DnnModel;
use fred_workloads::report::TrainingReport;
use fred_workloads::schedule::{build_schedule, Schedule, ScheduleParams};
use fred_workloads::trainer::{breakdown, run_iteration};

use crate::stats::Digest;
use crate::trace::{span, Layer, SpanId, Tracer};
use crate::{guarded, PassOut, Workload};

/// fig10's fabrics, in its column order.
const FIG10_FABRICS: [FabricConfig; 3] = [
    FabricConfig::BaselineMesh,
    FabricConfig::FredC,
    FabricConfig::FredD,
];

/// fig11 compares the baseline with Fred-D.
const FIG11_FABRICS: [FabricConfig; 2] = [FabricConfig::BaselineMesh, FabricConfig::FredD];

/// fig11(a)'s Transformer-17B strategies (MP, DP, PP).
const STRATEGIES_17B: [(usize, usize, usize); 8] = [
    (20, 1, 1),
    (10, 2, 1),
    (5, 4, 1),
    (5, 2, 2),
    (4, 5, 1),
    (2, 5, 2),
    (2, 2, 5),
    (1, 20, 1),
];

/// fig11(b)'s Transformer-1T strategies (MP, DP, PP).
const STRATEGIES_1T: [(usize, usize, usize); 7] = [
    (20, 1, 1),
    (10, 1, 2),
    (5, 1, 4),
    (5, 4, 1),
    (4, 1, 5),
    (2, 5, 2),
    (1, 20, 1),
];

/// The speedups the paper quotes: fig10's Fred-D speedup per model,
/// and fig11's average speedup and exposed-communication gain.
const PAPER_FIG10: [(&str, f64); 4] = [
    ("ResNet-152", 1.76),
    ("Transformer-17B", 1.87),
    ("GPT-3", 1.34),
    ("Transformer-1T", 1.40),
];
const PAPER_FIG11: [(&str, f64, f64); 2] = [
    ("Transformer-17B", 1.63, 4.22),
    ("Transformer-1T", 1.44, 3.92),
];

/// One training iteration to simulate.
struct Unit {
    /// Golden key: figure, model, strategy (fig11) and fabric.
    key: String,
    model: DnnModel,
    strategy: Strategy3D,
    params: ScheduleParams,
    fabric: FabricConfig,
}

/// A `train-*` workload: its fabrics, its units in seed-shuffled
/// order, and the latest report of each unit.
pub struct Train {
    backends: Vec<FabricBackend>,
    units: Vec<Unit>,
    fig11: DnnModel,
    fig11_strategies: Vec<Strategy3D>,
    reports: BTreeMap<String, TrainingReport>,
}

impl Train {
    /// `train-streaming`: fig10's GPT-3 and Transformer-1T runs on all
    /// three fabrics plus fig11's Transformer-1T sweep (20 units).
    pub fn streaming(seed: u64, tr: Option<&mut Tracer>) -> Train {
        Train::build(
            &[DnnModel::gpt3(), DnnModel::transformer_1t()],
            DnnModel::transformer_1t(),
            &STRATEGIES_1T,
            seed,
            tr,
        )
    }

    /// `train-stationary`: fig10's ResNet-152 and Transformer-17B runs
    /// on all three fabrics plus fig11's Transformer-17B sweep (22
    /// units).
    pub fn stationary(seed: u64, tr: Option<&mut Tracer>) -> Train {
        Train::build(
            &[DnnModel::resnet152(), DnnModel::transformer_17b()],
            DnnModel::transformer_17b(),
            &STRATEGIES_17B,
            seed,
            tr,
        )
    }

    fn build(
        fig10: &[DnnModel],
        fig11: DnnModel,
        strategies: &[(usize, usize, usize)],
        seed: u64,
        mut tr: Option<&mut Tracer>,
    ) -> Train {
        let backends = FIG10_FABRICS
            .iter()
            .map(|&f| {
                span(&mut tr, "backend.new", Layer::Backend, 0, || {
                    FabricBackend::new(f)
                })
            })
            .collect();
        let mut units = Vec::new();
        for model in fig10 {
            let strategy = model.default_strategy;
            for fabric in FIG10_FABRICS {
                units.push(Unit {
                    key: format!("fig10/{}/{fabric}", model.name),
                    model: model.clone(),
                    strategy,
                    params: ScheduleParams::paper_default(model, strategy),
                    fabric,
                });
            }
        }
        let fig11_strategies: Vec<Strategy3D> = strategies
            .iter()
            .map(|&(mp, dp, pp)| Strategy3D::new(mp, dp, pp))
            .collect();
        for &strategy in &fig11_strategies {
            for fabric in FIG11_FABRICS {
                units.push(Unit {
                    key: format!("fig11/{}/{strategy}/{fabric}", fig11.name),
                    model: fig11.clone(),
                    strategy,
                    params: ScheduleParams::sweep_default(&fig11, strategy),
                    fabric,
                });
            }
        }
        Rng64::seed_from_u64(seed).shuffle(&mut units);
        Train {
            backends,
            units,
            fig11,
            fig11_strategies,
            reports: BTreeMap::new(),
        }
    }

    fn backend(&self, fabric: FabricConfig) -> &FabricBackend {
        let i = FIG10_FABRICS
            .iter()
            .position(|&f| f == fabric)
            .expect("every unit runs on a fig10 fabric");
        &self.backends[i]
    }

    /// The report of `key`'s latest run.
    fn report(&self, key: &str) -> Option<&TrainingReport> {
        self.reports.get(key)
    }

    /// This workload's simulated speedups beside the paper's, as
    /// `(what, simulated, paper)`. Computed exactly as the fig10 and
    /// fig11 binaries compute theirs.
    fn paper_comparisons(&self) -> Vec<(String, f64, f64)> {
        let mut rows = Vec::new();
        for (model, paper) in PAPER_FIG10 {
            let base = self.report(&format!("fig10/{model}/Baseline"));
            let fred = self.report(&format!("fig10/{model}/Fred-D"));
            if let (Some(base), Some(fred)) = (base, fred) {
                rows.push((
                    format!("fig10 {model} Fred-D speedup"),
                    fred.speedup_over(base),
                    paper,
                ));
            }
        }
        'models: for (model, paper_speedup, paper_gain) in PAPER_FIG11 {
            if model != self.fig11.name {
                continue;
            }
            let mut speedups = Vec::new();
            let mut gains = Vec::new();
            // Strategy order, so the averages sum exactly as fig11 does.
            for &s in &self.fig11_strategies {
                let prefix = format!("fig11/{model}/{s}");
                let (Some(rb), Some(rf)) = (
                    self.report(&format!("{prefix}/Baseline")),
                    self.report(&format!("{prefix}/Fred-D")),
                ) else {
                    continue 'models;
                };
                let per = 1e3 / ScheduleParams::sweep_default(&self.fig11, s).minibatch as f64;
                let (bt, ft) = (rb.total.as_secs() * per, rf.total.as_secs() * per);
                let (be, fe) = (
                    rb.exposed_total().as_secs() * per,
                    rf.exposed_total().as_secs() * per,
                );
                let gain = if fe > 0.0 { be / fe } else { f64::INFINITY };
                speedups.push(bt / ft);
                gains.push(gain.min(50.0));
            }
            let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            rows.push((
                format!("fig11 {model} avg speedup"),
                avg(&speedups),
                paper_speedup,
            ));
            rows.push((
                format!("fig11 {model} avg exposed gain"),
                avg(&gains),
                paper_gain,
            ));
        }
        rows
    }
}

/// `simulate`'s schedule for `u`: the paper's placement policy per
/// fabric (MP-PP-DP on FRED, MP-DP-PP on the mesh).
fn schedule_for(u: &Unit, backend: &FabricBackend) -> Schedule {
    let policy = if backend.config().is_fred() {
        PlacementPolicy::MpPpDp
    } else {
        PlacementPolicy::MpDpPp
    };
    let placement = Placement::new(u.strategy, policy);
    build_schedule(&u.model, u.strategy, &placement, backend, u.params)
}

/// `run_iteration`'s event loop driven through the executor's and the
/// network's public stepping API, timing each run of consecutive calls
/// into one layer. Without faults it makes the same calls in the same
/// order, so its result must be bit-identical.
fn replica_iteration(
    schedule: &Schedule,
    backend: &FabricBackend,
    tr: &mut Tracer,
    net_id: SpanId,
    exec_id: SpanId,
) -> Result<IterationTiming, TrainError> {
    let mut net = tr.call(net_id, 1, || FlowNetwork::new(backend.topology()));
    let mut ex = tr.call(exec_id, 2, || {
        let mut ex = ScheduleExecutor::new(
            Rc::new(schedule.clone()),
            ExecConfig::default(),
            Rc::new(NullSink),
        );
        ex.settle(&mut net, backend).map(|()| ex)
    })?;
    while !ex.is_done() {
        let tc = ex.next_compute_time();
        // next_event, advance_to, drain_completed.
        let stepped = tr.call(net_id, 3, || {
            let next = [tc, net.next_event()].into_iter().flatten().min()?;
            net.advance_to(next);
            Some((next, net.drain_completed()))
        });
        let Some((next, completed)) = stepped else {
            return Err(ex.stalled());
        };
        // handle_completion per flow, flush_staged, release_computes_due, settle.
        tr.call(exec_id, completed.len() as u64 + 3, || {
            for c in completed {
                ex.handle_completion(c.tag)?;
            }
            ex.flush_staged(&mut net, backend)?;
            ex.release_computes_due(next);
            ex.settle(&mut net, backend)
        })?;
    }
    let timing = tr.call(exec_id, 1, || ex.timing());
    // Freeing the executor and the network is part of their cost.
    tr.call(exec_id, 0, move || drop(ex));
    tr.call(net_id, 0, move || drop(net));
    Ok(timing)
}

/// Digest of an iteration's simulated outputs: every task's finish time.
fn digest(timing: &IterationTiming) -> u64 {
    let mut d = Digest::default();
    timing.finish.iter().for_each(|t| d.f64(t.as_secs()));
    d.finish()
}

impl Workload for Train {
    fn run_pass(
        &mut self,
        _pass: usize,
        deadline: Option<Instant>,
        mut tr: Option<&mut Tracer>,
        between: &mut dyn FnMut(),
    ) -> PassOut {
        let mut out = PassOut::default();
        for (i, u) in self.units.iter().enumerate() {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            between();
            let backend = self.backend(u.fabric);
            let unit = i as u32;
            let t0 = Instant::now();
            let result = guarded(|| match tr.as_deref_mut() {
                None => {
                    let schedule = schedule_for(u, backend);
                    let timing = run_iteration(&schedule, backend)?;
                    let report =
                        breakdown(&schedule, &timing, &u.model.name, backend.config().name());
                    Ok((timing, report))
                }
                Some(tr) => {
                    let span = tr.open("unit", Layer::Bench, unit);
                    let r = traced_unit(u, backend, tr, unit);
                    tr.close(span);
                    r
                }
            });
            out.unit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match result {
                Ok((timing, report)) => {
                    out.digests.push((u.key.clone(), digest(&timing)));
                    self.reports.insert(u.key.clone(), report);
                }
                Err(why) => out.failures.push(format!("{}: {why}", u.key)),
            }
        }
        out
    }

    /// `paper_err`: the mean relative error of the simulated speedups
    /// against the paper's.
    fn summary(&self) -> (Vec<(&'static str, f64, &'static str)>, Vec<String>) {
        let rows = self.paper_comparisons();
        if rows.is_empty() {
            return (Vec::new(), Vec::new());
        }
        let err = rows
            .iter()
            .map(|(_, sim, paper)| (sim - paper).abs() / paper)
            .sum::<f64>()
            / rows.len() as f64;
        let notes = rows
            .iter()
            .map(|(what, sim, paper)| format!("simulated {what}: {sim} (paper {paper})"))
            .collect();
        (vec![("paper_err", err, "fraction")], notes)
    }
}

/// One unit through the replica loop, with a span around every call.
fn traced_unit(
    u: &Unit,
    backend: &FabricBackend,
    tr: &mut Tracer,
    unit: u32,
) -> Result<(IterationTiming, TrainingReport), TrainError> {
    let before = prof::snapshot();
    let schedule = tr.span("schedule.build", Layer::Schedule, unit, || {
        schedule_for(u, backend)
    });
    tr.count("schedule.tasks", schedule.tasks.len() as f64);
    let net_id = tr.busy("netsim.calls", Layer::Netsim, unit);
    let exec_id = tr.busy("exec.calls", Layer::Exec, unit);
    let timing = replica_iteration(&schedule, backend, tr, net_id, exec_id);
    // Solves run inside the network's calls; staged flows are injected
    // inside the executor's.
    tr.prof_children(&before, &prof::snapshot(), unit, |site| {
        if site == "solver.solve" {
            net_id
        } else {
            exec_id
        }
    });
    let timing = timing?;
    let report = tr.span("trainer.breakdown", Layer::Trainer, unit, || {
        breakdown(&schedule, &timing, &u.model.name, backend.config().name())
    });
    tr.span("schedule.free", Layer::Schedule, unit, move || {
        drop(schedule)
    });
    Ok((timing, report))
}
