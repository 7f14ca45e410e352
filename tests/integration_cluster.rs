//! Multi-tenant cluster integration: a cluster of one job must be
//! bit-identical to the standalone trainer (and to the committed
//! cluster-sweep baseline), placement must respect contiguity and
//! fragmentation, preemption must trade Low-class progress for
//! High-class latency, and the whole pipeline must be deterministic.

use fred::cluster::arrivals::{paper_mix, poisson_arrivals, DEFAULT_CLASS_MIX};
use fred::cluster::{run_cluster, ClusterConfig, JobClass, JobSpec};
use fred::core::params::FabricConfig;
use fred::core::placement::Strategy3D;
use fred::sim::time::Time;
use fred::workloads::backend::FabricBackend;
use fred::workloads::model::DnnModel;
use fred::workloads::schedule::ScheduleParams;
use fred::workloads::trainer::simulate;

fn resnet_job(name: &str, dp: usize) -> JobSpec {
    let model = DnnModel::resnet152();
    let strategy = Strategy3D::new(1, dp, 1);
    let params = ScheduleParams::sweep_default(&model, strategy);
    JobSpec::new(name, model, strategy, params)
}

fn t17b_job(name: &str, mp: usize, dp: usize, pp: usize) -> JobSpec {
    let model = DnnModel::transformer_17b();
    let strategy = Strategy3D::new(mp, dp, pp);
    let params = ScheduleParams::sweep_default(&model, strategy);
    JobSpec::new(name, model, strategy, params)
}

/// The acceptance criterion: a single-job, zero-churn cluster row is
/// bit-identical to the standalone trainer path on both fabrics — the
/// scheduler layer adds tenancy, not modeling error.
#[test]
fn cluster_of_one_is_bit_identical_to_standalone_trainer() {
    for config in [FabricConfig::BaselineMesh, FabricConfig::FredD] {
        for job in [
            resnet_job("r", 4).with_class(JobClass::High),
            t17b_job("t", 2, 5, 2).with_class(JobClass::High),
        ] {
            let backend = FabricBackend::new(config);
            let solo = simulate(&job.model, job.strategy, &backend, job.params).unwrap();
            let report = run_cluster(&ClusterConfig::new(config), vec![job]).unwrap();
            let rec = &report.records[0];
            assert!(
                rec.service_secs() == solo.total.as_secs(),
                "{}/{}: cluster {} vs solo {}",
                config.name(),
                rec.name,
                rec.service_secs(),
                solo.total.as_secs()
            );
            assert_eq!(rec.queueing_delay_secs(), 0.0);
            assert_eq!(rec.stretch(), 1.0);
        }
    }
}

/// The committed cluster-sweep baseline's solo-check rows equal a
/// fresh `simulate()` bit-for-bit (JSON floats round-trip exactly).
#[test]
fn committed_baseline_solo_check_matches_simulate() {
    let baseline = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/baselines/BENCH_cluster_sweep.json"
    ))
    .expect("committed cluster-sweep baseline exists");
    let report = fred_bench::report::parse(&baseline).expect("baseline parses");
    let sim = report.get("sim").expect("baseline has sim metrics");

    let model = DnnModel::resnet152();
    let strategy = Strategy3D::new(1, 4, 1);
    let params = ScheduleParams::sweep_default(&model, strategy);
    for config in [FabricConfig::BaselineMesh, FabricConfig::FredD] {
        let committed = sim
            .get(&format!("{}/solo_check/secs", config.name()))
            .and_then(|v| v.as_f64())
            .expect("baseline has the solo-check service time");
        let backend = FabricBackend::new(config);
        let solo = simulate(&model, strategy, &backend, params).unwrap();
        assert!(
            solo.total.as_secs() == committed,
            "{}: simulate {} != committed solo check {committed}",
            config.name(),
            solo.total.as_secs()
        );
    }
}

/// Placement is contiguous and fragmentation-aware end to end: jobs
/// whose widths exactly tile the 20-slot wafer all start immediately,
/// while a job wider than any free run queues even though enough
/// total slots are free.
#[test]
fn contiguous_placement_governs_queueing() {
    // 8 + 8 = 16 slots used, 4 free in one run: a 4-wide job fits, a
    // 5-wide job queues.
    let jobs = vec![
        resnet_job("a", 8),
        resnet_job("b", 8),
        resnet_job("fits", 4),
        resnet_job("queued", 5),
    ];
    let report = run_cluster(&ClusterConfig::new(FabricConfig::FredD), jobs).unwrap();
    let by_name = |n: &str| report.records.iter().find(|r| r.name == n).unwrap();
    assert_eq!(by_name("a").queueing_delay_secs(), 0.0);
    assert_eq!(by_name("b").queueing_delay_secs(), 0.0);
    assert_eq!(by_name("fits").queueing_delay_secs(), 0.0);
    assert!(by_name("queued").queueing_delay_secs() > 0.0);
}

/// First-fit placement is complete (every job runs) and
/// deterministic.
#[test]
fn first_fit_completes_deterministically() {
    let mk = || {
        vec![
            resnet_job("a", 8),
            t17b_job("b", 2, 2, 1),
            resnet_job("c", 5),
            t17b_job("d", 2, 1, 1).with_class(JobClass::Low),
        ]
    };
    let cfg = ClusterConfig::new(FabricConfig::FredD);
    let r1 = run_cluster(&cfg, mk()).unwrap();
    let r2 = run_cluster(&cfg, mk()).unwrap();
    assert_eq!(r1.records.len(), 4);
    assert!(r1.records.iter().all(|r| r.completion > Time::ZERO));
    for (x, y) in r1.records.iter().zip(&r2.records) {
        assert_eq!(x.first_start, y.first_start, "nondeterministic");
        assert_eq!(x.completion, y.completion);
    }
}

/// Preemption end to end: a High arrival on a full wafer evicts a Low
/// job, runs at full isolation, and the victim restarts and finishes.
#[test]
fn preemption_trades_low_progress_for_high_latency() {
    let backend = FabricBackend::new(FabricConfig::FredD);
    let wide = resnet_job("low", 10).with_class(JobClass::Low);
    let solo = simulate(&wide.model, wide.strategy, &backend, wide.params).unwrap();
    let mk = || {
        vec![
            resnet_job("low-a", 10).with_class(JobClass::Low),
            resnet_job("low-b", 10).with_class(JobClass::Low),
            resnet_job("high", 10)
                .with_class(JobClass::High)
                .with_arrival(Time::from_secs(solo.total.as_secs() * 0.5)),
        ]
    };
    let with_preempt = run_cluster(&ClusterConfig::new(FabricConfig::FredD), mk()).unwrap();
    let high_p = with_preempt
        .records
        .iter()
        .find(|r| r.name == "high")
        .unwrap();
    assert_eq!(with_preempt.preemptions, 1);
    assert_eq!(high_p.queueing_delay_secs(), 0.0);
    // Everybody still finishes under preemption, victims included.
    assert!(with_preempt.records.iter().all(|r| r.service_secs() > 0.0));
}

/// The full generator → scheduler → metrics pipeline is a pure
/// function of the seed.
#[test]
fn seeded_pipeline_is_reproducible() {
    let templates = paper_mix();
    let mk = || poisson_arrivals(&templates, 400.0, 10, DEFAULT_CLASS_MIX, 0x5EED);
    let cfg = ClusterConfig::new(FabricConfig::FredD);
    let r1 = run_cluster(&cfg, mk()).unwrap();
    let r2 = run_cluster(&cfg, mk()).unwrap();
    assert_eq!(r1.makespan, r2.makespan);
    assert_eq!(r1.busy_npu_secs, r2.busy_npu_secs);
    assert_eq!(r1.preemptions, r2.preemptions);
    for (a, b) in r1.records.iter().zip(&r2.records) {
        assert_eq!(a.completion, b.completion);
    }
    // The run actually multi-tenants: at this rate several jobs
    // overlap, so someone's stretch must exceed 1.
    assert!(
        r1.records.iter().any(|r| r.stretch() > 1.0),
        "no interference at all — rate too low for a multi-tenant test"
    );
}
