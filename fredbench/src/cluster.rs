//! `cluster` and `snapshot`: multi-tenant runs of the `paper_mix` jobs
//! through `fred_cluster`, the second with a snapshot round trip every
//! few event instants.

use std::rc::Rc;
use std::time::Instant;

use fred_cluster::arrivals::{paper_mix, poisson_arrivals, JobTemplate, DEFAULT_CLASS_MIX};
use fred_cluster::{
    run_cluster, Cluster, ClusterConfig, ClusterError, ClusterReport, ClusterState, JobClass,
    JobSpec,
};
use fred_core::params::FabricConfig;
use fred_core::snapshot::SimState;
use fred_telemetry::prof;
use fred_telemetry::sink::NullSink;
use fred_workloads::backend::FabricBackend;
use fred_workloads::trainer::simulate;

use crate::stats::Digest;
use crate::trace::{span, span_sites, Layer, Tracer};
use crate::{guarded, PassOut, Traced, Workload};

/// Offered loads of the `cluster` workload, as fractions of the
/// fabric's NPU-seconds.
const LOADS: [f64; 3] = [0.3, 0.6, 0.9];

/// The fabrics every load runs on, with identical arrival traces.
const FABRICS: [FabricConfig; 2] = [FabricConfig::BaselineMesh, FabricConfig::FredD];

/// Jobs per `cluster` unit.
const CLUSTER_JOBS: usize = 250;

/// Jobs in the `snapshot` run, offered at its load.
const SNAPSHOT_JOBS: usize = 200;
const SNAPSHOT_LOAD: f64 = 0.9;

/// Event instants between snapshot round trips.
const SNAPSHOT_EVERY: usize = 8;

/// Seed of the `snapshot` workload's fixed arrival trace.
const SNAPSHOT_TRACE_SEED: u64 = 0x54AF_0007;

/// The job templates and the arrival rate that offers load 1.0, as
/// `cluster_sweep` calibrates it: NPU-slots over the mean NPU-seconds
/// of one arrival, from Fred-D solo makespans.
fn calibrate(tr: &mut Option<&mut Tracer>) -> (Vec<JobTemplate>, f64) {
    let templates = paper_mix();
    let fredd = span(tr, "backend.new", Layer::Backend, 0, || {
        FabricBackend::new(FabricConfig::FredD)
    });
    let mean_work = templates
        .iter()
        .map(|t| {
            let solo = span_sites(tr, "trainer.simulate", Layer::Trainer, 0, || {
                simulate(&t.model, t.strategy, &fredd, t.params)
            })
            .expect("solo calibration run completes");
            t.npus() as f64 * solo.total.as_secs()
        })
        .sum::<f64>()
        / templates.len() as f64;
    (templates, fredd.npu_count() as f64 / mean_work)
}

/// A seed for one unit's arrivals, derived from the workload seed.
fn derive(seed: u64, parts: &[u64]) -> u64 {
    let mut d = Digest::default();
    d.bytes(&seed.to_le_bytes());
    parts.iter().for_each(|p| d.bytes(&p.to_le_bytes()));
    d.finish()
}

/// Digest of a cluster run's simulated outputs: every job's first
/// start, completion and preemption count, after checking that each
/// job starts after it arrives and ends after it starts.
fn digest(report: &ClusterReport) -> Result<u64, String> {
    let mut d = Digest::default();
    for r in &report.records {
        if r.first_start < r.arrival || r.completion < r.first_start {
            return Err(format!(
                "job {} arrived {:?}, started {:?}, completed {:?}",
                r.name, r.arrival, r.first_start, r.completion
            ));
        }
        d.f64(r.first_start.as_secs());
        d.f64(r.completion.as_secs());
        d.f64(f64::from(r.preemptions));
    }
    Ok(d.finish())
}

/// Processes the next event instant.
fn step(c: &mut Cluster) -> Result<(), ClusterError> {
    match c.next_event() {
        Some(t) => c.run_until(t),
        // No pending event: this reports the stall.
        None => c.run_to_completion(),
    }
}

/// Steps `c` until it is done or `limit` instants have passed.
fn untraced_steps(c: &mut Cluster, limit: usize) -> Result<(), ClusterError> {
    for _ in 0..limit {
        if c.is_done() {
            break;
        }
        step(c)?;
    }
    Ok(())
}

/// Steps `c` until it is done or `limit` instants have passed, summing
/// the steps into one busy span with the profiler sites inside them.
fn traced_steps(
    c: &mut Cluster,
    tr: &mut Tracer,
    unit: u32,
    limit: usize,
) -> Result<(), ClusterError> {
    let id = tr.busy("cluster.step", Layer::Scheduler, unit);
    let before = prof::snapshot();
    let mut r = Ok(());
    for _ in 0..limit {
        if c.is_done() {
            break;
        }
        r = tr.call(id, 1, || step(c));
        if r.is_err() {
            break;
        }
    }
    tr.prof_children(&before, &prof::snapshot(), unit, |_| id);
    r
}

/// `run_cluster` as `Cluster::new`, one step per event instant, and
/// `Cluster::into_report`, each traced.
fn traced_cluster(
    cfg: ClusterConfig,
    jobs: Vec<JobSpec>,
    tr: &mut Tracer,
    unit: u32,
) -> Result<ClusterReport, ClusterError> {
    let n = jobs.len();
    let mut c = tr.span_sites("cluster.new", Layer::Scheduler, unit, || {
        Cluster::new(cfg, jobs, Rc::new(NullSink))
    })?;
    traced_steps(&mut c, tr, unit, usize::MAX)?;
    let report = tr.span_sites("cluster.report", Layer::Scheduler, unit, || c.into_report());
    tr.count("scheduler.jobs", n as f64);
    tr.count("scheduler.preemptions", f64::from(report.preemptions));
    Ok(report)
}

/// The `cluster` workload: Poisson arrivals of the `paper_mix` jobs on
/// the mesh and Fred-D at three loads, with preemption on. Every pass
/// draws fresh arrivals.
pub struct ClusterWorkload {
    seed: u64,
    templates: Vec<JobTemplate>,
    rate_per_load: f64,
}

impl ClusterWorkload {
    /// Calibrates the arrival rate.
    pub fn new(seed: u64, mut tr: Option<&mut Tracer>) -> ClusterWorkload {
        let (templates, rate_per_load) = calibrate(&mut tr);
        ClusterWorkload {
            seed,
            templates,
            rate_per_load,
        }
    }
}

impl Workload for ClusterWorkload {
    fn run_pass(
        &mut self,
        pass: usize,
        deadline: Option<Instant>,
        mut tr: Option<&mut Tracer>,
        between: &mut dyn FnMut(),
    ) -> PassOut {
        let mut out = PassOut::default();
        for (i, fabric) in FABRICS.iter().enumerate() {
            for (l, load) in LOADS.iter().enumerate() {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return out;
                }
                between();
                let unit = (i * LOADS.len() + l) as u32;
                let key = format!("p{pass}/{fabric}/load{load}");
                // Both fabrics see the same trace at each load.
                let jobs = poisson_arrivals(
                    &self.templates,
                    load * self.rate_per_load,
                    CLUSTER_JOBS,
                    DEFAULT_CLASS_MIX,
                    derive(self.seed, &[pass as u64, l as u64]),
                );
                let cfg = ClusterConfig::new(*fabric);
                let t0 = Instant::now();
                let report = guarded(|| match tr.as_deref_mut() {
                    None => run_cluster(&cfg, jobs),
                    Some(tr) => {
                        let id = tr.open("unit", Layer::Bench, unit);
                        let r = traced_cluster(cfg, jobs, tr, unit);
                        tr.close(id);
                        r
                    }
                });
                out.unit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                match report.and_then(|r| digest(&r)) {
                    Ok(d) => out.digests.push((key, d)),
                    Err(why) => out.failures.push(format!("{key}: {why}")),
                }
            }
        }
        out
    }

    /// A cluster of one High-class job reproduces `simulate` exactly,
    /// on both fabrics, for a template the seed picks.
    fn checks(&mut self, _traced: Option<Traced<'_>>) -> Vec<Result<(), String>> {
        let t = &self.templates[(self.seed % self.templates.len() as u64) as usize];
        FABRICS
            .iter()
            .map(|&fabric| {
                let solo = guarded(|| {
                    simulate(&t.model, t.strategy, &FabricBackend::new(fabric), t.params)
                })?
                .total
                .as_secs();
                let job = JobSpec::new("solo-check", t.model.clone(), t.strategy, t.params)
                    .with_class(JobClass::High);
                let report = guarded(|| run_cluster(&ClusterConfig::new(fabric), vec![job]))?;
                let service = report.records[0].service_secs();
                if service.to_bits() == solo.to_bits() {
                    Ok(())
                } else {
                    Err(format!(
                        "{fabric}: a cluster of one {} job took {service} s, simulate {solo} s",
                        t.stem
                    ))
                }
            })
            .collect()
    }
}

/// The `snapshot` workload: one Fred-D cluster at high load that is
/// captured, encoded, decoded and restored every few event instants,
/// continuing from the restored copy. A unit is one round trip.
///
/// The arrival trace is fixed, so every seed does the same amount of
/// work; the seed picks the instants the captures land on.
pub struct SnapshotWorkload {
    cfg: ClusterConfig,
    jobs: Vec<JobSpec>,
    /// Event instants before the first capture.
    first: usize,
    /// Digest of the latest resumed run.
    resumed: Option<u64>,
}

impl SnapshotWorkload {
    /// Calibrates the load and draws the jobs.
    pub fn new(seed: u64, mut tr: Option<&mut Tracer>) -> SnapshotWorkload {
        let (templates, rate_per_load) = calibrate(&mut tr);
        let jobs = poisson_arrivals(
            &templates,
            SNAPSHOT_LOAD * rate_per_load,
            SNAPSHOT_JOBS,
            DEFAULT_CLASS_MIX,
            SNAPSHOT_TRACE_SEED,
        );
        SnapshotWorkload {
            cfg: ClusterConfig::new(FabricConfig::FredD),
            jobs,
            first: 1 + (seed % SNAPSHOT_EVERY as u64) as usize,
            resumed: None,
        }
    }

    /// Captures `c`, encodes and decodes the capture, and replaces `c`
    /// with a cluster restored from it. Each stage frees what it
    /// consumed, inside its own span.
    fn round_trip(
        &self,
        c: &mut Cluster,
        tr: &mut Option<&mut Tracer>,
        unit: u32,
    ) -> Result<(), String> {
        let sim = span(tr, "snapshot.capture", Layer::Snapshot, unit, || {
            let mut sim = SimState::new();
            sim.insert("cluster", c.snapshot().to_value());
            sim
        });
        let bytes = span(tr, "codec.encode", Layer::Codec, unit, move || {
            sim.to_binary()
        });
        if let Some(tr) = tr {
            tr.count("codec.bytes", bytes.len() as f64);
        }
        let back = span(tr, "codec.decode", Layer::Codec, unit, move || {
            SimState::from_binary(&bytes)
        })
        .map_err(|e| e.to_string())?;
        span(tr, "snapshot.restore", Layer::Snapshot, unit, move || {
            let state = back
                .section("cluster")
                .and_then(ClusterState::from_value)
                .map_err(|e| e.to_string())?;
            // Dropping the old copy is part of continuing from the new one.
            *c = Cluster::restore(
                self.cfg.clone(),
                self.jobs.clone(),
                Rc::new(NullSink),
                state,
            )
            .map_err(|e| e.to_string())?;
            Ok(())
        })
    }

    /// One run with round trips; the unit times go to `unit_ms`.
    /// `between` runs before every round trip.
    fn resumed_run(
        &self,
        tr: &mut Option<&mut Tracer>,
        unit_ms: &mut Vec<f64>,
        between: &mut dyn FnMut(),
    ) -> Result<ClusterReport, String> {
        let mut c = span_sites(tr, "cluster.new", Layer::Scheduler, 0, || {
            Cluster::new(self.cfg.clone(), self.jobs.clone(), Rc::new(NullSink))
        })
        .map_err(|e| e.to_string())?;
        let mut unit = 0u32;
        let mut instants = self.first;
        loop {
            match tr {
                Some(tr) => traced_steps(&mut c, tr, unit, instants),
                None => untraced_steps(&mut c, instants),
            }
            .map_err(|e| e.to_string())?;
            instants = SNAPSHOT_EVERY;
            if c.is_done() {
                break;
            }
            between();
            let t0 = Instant::now();
            let done = self.round_trip(&mut c, tr, unit);
            unit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            done.map_err(|why| format!("round trip {unit}: {why}"))?;
            unit += 1;
        }
        let report = span_sites(tr, "cluster.report", Layer::Scheduler, unit, || {
            c.into_report()
        });
        if let Some(tr) = tr {
            tr.count("scheduler.jobs", self.jobs.len() as f64);
            tr.count("scheduler.preemptions", f64::from(report.preemptions));
        }
        Ok(report)
    }
}

impl Workload for SnapshotWorkload {
    fn run_pass(
        &mut self,
        _pass: usize,
        _deadline: Option<Instant>,
        mut tr: Option<&mut Tracer>,
        between: &mut dyn FnMut(),
    ) -> PassOut {
        let mut out = PassOut::default();
        let report = guarded(|| self.resumed_run(&mut tr, &mut out.unit_ms, between));
        match report.and_then(|r| digest(&r)) {
            Ok(d) => {
                self.resumed = Some(d);
                out.digests.push(("resumed".into(), d));
            }
            Err(why) => out.failures.push(format!("resumed run: {why}")),
        }
        out
    }

    /// The resumed run is bit-identical to an uninterrupted one.
    fn checks(&mut self, _traced: Option<Traced<'_>>) -> Vec<Result<(), String>> {
        let reference =
            guarded(|| run_cluster(&self.cfg, self.jobs.clone())).and_then(|r| digest(&r));
        vec![match (reference, self.resumed) {
            (Ok(r), Some(s)) if r == s => Ok(()),
            (Ok(r), s) => Err(format!(
                "resumed run digest {s:016x?} differs from the uninterrupted run's {r:016x}"
            )),
            (Err(why), _) => Err(format!("uninterrupted run: {why}")),
        }]
    }
}
