//! Cluster sweep — multi-tenant SLOs vs offered load, mesh vs Fred-D.
//!
//! The paper benches one job at a time; this sweep shares the wafer.
//! A seeded Poisson stream of weight-stationary jobs (2–10 NPUs wide,
//! 20% High / 60% Normal / 20% Low) is offered to the baseline mesh
//! and to Fred-D at increasing load, and the cluster scheduler places,
//! isolates and (when needed) preempts them on one shared fabric. Both
//! fabrics see the *identical* arrival trace at each load point, so
//! every difference in the table is fabric, not luck.
//!
//! Offered load ρ is calibrated in NPU-seconds: the arrival rate is
//! `ρ × slots / E[npus × solo_secs]`, with solo makespans measured on
//! Fred-D (the faster fabric — at equal traces the mesh therefore runs
//! *above* its own ρ, which is the point of the comparison).
//!
//! Reported per (fabric, load): fabric utilization (occupied
//! NPU-seconds over offered), p99 queueing delay, p99 / mean makespan
//! stretch vs solo, Jain fairness over per-job speed, and preemption
//! count.
//!
//! The zero-churn self-check runs a cluster of exactly one High-class
//! job on each fabric and asserts its service time is *bit-identical*
//! to the standalone trainer — the scheduler adds no modeling error,
//! only tenancy.
//!
//! Snapshot modes (exclusive with the sweep, on the Fred-D
//! highest-load scenario): `--snapshot-at <secs>` captures mid-run to
//! `cluster_sweep.snapshot.bin`, continues, then reloads and verifies
//! the resumed run bit-identical (a time past the end of the run writes
//! no file and exits 2); `--restore <path>` resumes a snapshot and
//! verifies it against the uninterrupted run. Both record into the
//! `--trace`, `--report` and `--dashboard` outputs like the sweep.

use std::path::{Path, PathBuf};

use fred_bench::table::{fmt_secs, Table};
use fred_bench::traceopt::TraceOpts;
use fred_cluster::arrivals::{paper_mix, poisson_arrivals, DEFAULT_CLASS_MIX};
use fred_cluster::{run_cluster_traced, Cluster, ClusterConfig, ClusterState, JobClass, JobSpec};
use fred_core::codec::SnapshotError;
use fred_core::params::FabricConfig;
use fred_core::placement::Strategy3D;
use fred_core::snapshot::SimState;
use fred_sim::time::Time;
use fred_workloads::backend::FabricBackend;
use fred_workloads::model::DnnModel;
use fred_workloads::schedule::ScheduleParams;
use fred_workloads::trainer::simulate;

/// Sweep seed: fixed so every arrival trace (and therefore every
/// reported metric) is reproducible across runs and machines.
const SEED: u64 = 0xC1_05;

/// Offered loads swept (fraction of the fabric's NPU-seconds).
const LOADS: [f64; 3] = [0.3, 0.6, 0.9];

/// Jobs per load point.
const JOBS: usize = 16;

/// Section name carrying the cluster state inside the snapshot file.
const SECTION: &str = "cluster";

/// Expected NPU-seconds one arrival brings, measured on Fred-D solo
/// makespans — the arrival-rate calibration shared by the sweep and
/// the snapshot scenario.
fn calibrate(templates: &[fred_cluster::arrivals::JobTemplate]) -> f64 {
    let fredd = FabricBackend::new(FabricConfig::FredD);
    templates
        .iter()
        .map(|t| {
            let solo = simulate(&t.model, t.strategy, &fredd, t.params)
                .expect("solo calibration run completes");
            t.npus() as f64 * solo.total.as_secs()
        })
        .sum::<f64>()
        / templates.len() as f64
}

/// The deterministic scenario snapshot/restore operates on: Fred-D at
/// the highest swept load — the point with queueing and preemption, so
/// the capture exercises the scheduler's full state.
fn snapshot_scenario() -> (ClusterConfig, Vec<JobSpec>) {
    let templates = paper_mix();
    let slots = FabricBackend::new(FabricConfig::FredD).npu_count() as f64;
    let rate = LOADS[2] * slots / calibrate(&templates);
    let jobs = poisson_arrivals(&templates, rate, JOBS, DEFAULT_CLASS_MIX, SEED + 2);
    (ClusterConfig::new(FabricConfig::FredD), jobs)
}

fn read_snapshot(path: &Path) -> Result<ClusterState, SnapshotError> {
    ClusterState::from_value(SimState::read_binary(path)?.section(SECTION)?)
}

fn main() {
    let mut snapshot_at: Option<f64> = None;
    let mut restore: Option<PathBuf> = None;
    let mut opts = TraceOpts::from_args_with("cluster_sweep", |flag, next| match flag {
        "--snapshot-at" => {
            snapshot_at = Some(parse_secs("--snapshot-at", next));
            true
        }
        "--restore" => {
            restore = Some(PathBuf::from(next().unwrap_or_else(|| {
                eprintln!("cluster_sweep: --restore expects a path");
                std::process::exit(2);
            })));
            true
        }
        _ => false,
    });
    if let Some(path) = &restore {
        let (cfg, jobs) = snapshot_scenario();
        let cannot_restore = |e: &dyn std::fmt::Display| -> ! {
            eprintln!("cluster_sweep: cannot restore {}: {e}", path.display());
            std::process::exit(1);
        };
        let state = read_snapshot(path).unwrap_or_else(|e| cannot_restore(&e));
        let mut reference =
            Cluster::new(cfg.clone(), jobs.clone(), opts.sink()).expect("snapshot scenario admits");
        reference
            .run_to_completion()
            .expect("uninterrupted reference run completes");
        let mut resumed =
            Cluster::restore(cfg, jobs, opts.sink(), state).unwrap_or_else(|e| cannot_restore(&e));
        resumed.run_to_completion().expect("resumed run completes");
        let full = reference.into_report();
        if let Some(field) = resumed.into_report().first_difference(&full) {
            panic!("RESUME VIOLATION: {field} diverged");
        }
        println!(
            "cluster_sweep: resumed {} to completion; makespan {} and every job's \
             timeline bit-identical to the uninterrupted run",
            path.display(),
            fmt_secs(full.makespan.as_secs())
        );
        opts.finish();
        return;
    }
    if let Some(at) = snapshot_at {
        let (cfg, jobs) = snapshot_scenario();
        let mut cluster =
            Cluster::new(cfg.clone(), jobs.clone(), opts.sink()).expect("snapshot scenario admits");
        cluster
            .run_until(Time::from_secs(at))
            .expect("run to the capture point completes");
        if cluster.is_done() {
            eprintln!(
                "cluster_sweep: --snapshot-at {at} is past the end of the run (makespan {})",
                fmt_secs(cluster.into_report().makespan.as_secs())
            );
            std::process::exit(2);
        }
        let state = cluster.snapshot();
        let path = Path::new("cluster_sweep.snapshot.bin");
        let mut sim = SimState::new();
        sim.insert(SECTION, state.to_value());
        sim.write_binary(path)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        cluster
            .run_to_completion()
            .expect("continued run completes");
        let full = cluster.into_report();
        let reread = read_snapshot(path)
            .unwrap_or_else(|e| panic!("snapshot file failed to round-trip: {e}"));
        let mut resumed = Cluster::restore(cfg, jobs, opts.sink(), reread)
            .expect("snapshot pairs with the scenario");
        resumed.run_to_completion().expect("resumed run completes");
        if let Some(field) = resumed.into_report().first_difference(&full) {
            panic!("RESUME VIOLATION: {field} diverged");
        }
        println!(
            "cluster_sweep: captured at {at} s into {} and verified the resumed run \
             bit-identical (makespan {})",
            path.display(),
            fmt_secs(full.makespan.as_secs())
        );
        opts.finish();
        return;
    }
    let templates = paper_mix();

    // Calibrate the arrival rate against Fred-D solo makespans: the
    // expected NPU-seconds one arrival brings.
    let fredd = FabricBackend::new(FabricConfig::FredD);
    let slots = fredd.npu_count() as f64;
    let mean_work = calibrate(&templates);

    // Zero-churn self-check: a cluster of one High job reproduces the
    // standalone trainer bit-for-bit on both fabrics.
    for config in [FabricConfig::BaselineMesh, FabricConfig::FredD] {
        let model = DnnModel::resnet152();
        let strategy = Strategy3D::new(1, 4, 1);
        let params = ScheduleParams::sweep_default(&model, strategy);
        let backend = FabricBackend::new(config);
        let solo = simulate(&model, strategy, &backend, params)
            .expect("solo reference run completes")
            .total
            .as_secs();
        let job = JobSpec::new("solo-check", model, strategy, params).with_class(JobClass::High);
        let report = run_cluster_traced(&ClusterConfig::new(config), vec![job], opts.sink())
            .expect("single-job cluster run completes");
        let service = report.records[0].service_secs();
        assert!(
            service == solo,
            "{}: cluster-of-one broke bit-identity: {service} vs {solo}",
            config.name()
        );
        opts.metric(format!("{}/solo_check/secs", config.name()), service);
    }

    let mut table = Table::new(vec![
        "config",
        "load",
        "jobs",
        "util",
        "p99 queue",
        "p99 stretch",
        "mean stretch",
        "jain",
        "preempts",
    ]);
    for config in [FabricConfig::BaselineMesh, FabricConfig::FredD] {
        let backend = FabricBackend::new(config);
        opts.name_links(&backend.topology());
        for (li, load) in LOADS.iter().enumerate() {
            let rate = load * slots / mean_work;
            // Same per-load seed for both fabrics: identical traces.
            let jobs =
                poisson_arrivals(&templates, rate, JOBS, DEFAULT_CLASS_MIX, SEED + li as u64);
            let report = run_cluster_traced(&ClusterConfig::new(config), jobs, opts.sink())
                .unwrap_or_else(|e| {
                    panic!("{} at load {load}: cluster run failed: {e}", config.name())
                });
            let util = report.utilization();
            let p99_q = report.queueing_delay_secs(0.99);
            let p99_s = report.stretch(0.99);
            let mean_s = report.mean_stretch();
            let jain = report.jain_fairness();
            table.row(vec![
                config.name().into(),
                format!("{:.0}%", load * 100.0),
                format!("{}", report.records.len()),
                format!("{:.1}%", util * 100.0),
                fmt_secs(p99_q),
                format!("{p99_s:.2}x"),
                format!("{mean_s:.2}x"),
                format!("{jain:.3}"),
                format!("{}", report.preemptions),
            ]);
            let pct = (load * 100.0) as u64;
            opts.metric(format!("{}/load{pct}/utilization", config.name()), util);
            opts.metric(format!("{}/load{pct}/p99_queue_secs", config.name()), p99_q);
            opts.metric(format!("{}/load{pct}/p99_stretch", config.name()), p99_s);
            opts.metric(format!("{}/load{pct}/mean_stretch", config.name()), mean_s);
            opts.metric(format!("{}/load{pct}/jain", config.name()), jain);
            opts.metric(
                format!("{}/load{pct}/preemptions", config.name()),
                report.preemptions as f64,
            );
        }
    }
    table.print("Cluster sweep — Poisson arrivals, identical traces per load, 20-NPU wafer");
    println!(
        "\nSelf-check passed: a cluster of one High-class job is bit-identical to the \
         standalone trainer on both fabrics. Load is calibrated in NPU-seconds against \
         Fred-D solo makespans; the mesh sees the same arrival stream."
    );
    opts.finish();
}

fn parse_secs(flag: &str, next: &mut dyn FnMut() -> Option<String>) -> f64 {
    let v = next().unwrap_or_else(|| {
        eprintln!("cluster_sweep: {flag} expects seconds");
        std::process::exit(2);
    });
    match v.parse::<f64>() {
        Ok(t) if t.is_finite() && t >= 0.0 => t,
        _ => {
            eprintln!("cluster_sweep: {flag} expects finite seconds >= 0, got `{v}`");
            std::process::exit(2);
        }
    }
}
