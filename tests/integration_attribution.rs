//! End-to-end attribution integration: a traced training iteration's
//! critical-path attribution must account for every nanosecond of the
//! makespan (the invariant the bench reports are validated against).

use std::rc::Rc;

use fred::core::params::FabricConfig;
use fred::core::placement::Strategy3D;
use fred::sim::fault::FaultPlan;
use fred::telemetry::analysis::Analysis;
use fred::telemetry::sink::RingRecorder;
use fred::workloads::backend::FabricBackend;
use fred::workloads::model::DnnModel;
use fred::workloads::schedule::ScheduleParams;
use fred::workloads::trainer::simulate_faulted;

fn analyze(config: FabricConfig, strategy: Strategy3D) -> (Analysis, f64) {
    let model = DnnModel::transformer_17b();
    let backend = FabricBackend::new(config);
    let params = ScheduleParams::sweep_default(&model, strategy);
    let rec = Rc::new(RingRecorder::new());
    let report = simulate_faulted(
        &model,
        strategy,
        &backend,
        params,
        &FaultPlan::none(),
        rec.clone(),
    )
    .unwrap();
    assert_eq!(rec.overwritten(), 0, "trace must not overflow in this test");
    let analysis = Analysis::from_events(&rec.events());
    (analysis, report.total.as_secs())
}

/// The acceptance-criterion invariant: Σ attribution buckets ==
/// makespan within 1e-6 relative, on a real 3D-parallel iteration.
#[test]
fn attribution_sums_to_makespan_on_traced_training_run() {
    for config in [FabricConfig::BaselineMesh, FabricConfig::FredD] {
        let (analysis, total_secs) = analyze(config, Strategy3D::new(2, 5, 2));
        assert!(!analysis.runs.is_empty(), "expected at least one segment");
        let makespan = analysis.total_makespan();
        let attributed = analysis.totals().total();
        let rel = (attributed - makespan).abs() / makespan.max(f64::MIN_POSITIVE);
        assert!(
            rel < 1e-6,
            "{config:?}: attribution {attributed} != makespan {makespan} (rel {rel:.3e})"
        );
        // The analysis makespan covers the simulated iteration.
        assert!(
            makespan >= total_secs * (1.0 - 1e-6),
            "{config:?}: makespan {makespan} < simulated total {total_secs}"
        );
        // A 3D-parallel run must show both compute and communication on
        // the critical path.
        let totals = analysis.totals();
        assert!(totals.get(fred::telemetry::Bucket::Compute) > 0.0);
        assert!(
            totals.exposed_comm_total() + totals.get(fred::telemetry::Bucket::Contention) > 0.0
        );
    }
}

/// Per-run invariant holds too (each Topology segment independently).
#[test]
fn every_segment_attribution_matches_its_makespan() {
    let (analysis, _) = analyze(FabricConfig::BaselineMesh, Strategy3D::new(5, 2, 2));
    for (i, run) in analysis.runs.iter().enumerate() {
        let rel =
            (run.attribution.total() - run.makespan).abs() / run.makespan.max(f64::MIN_POSITIVE);
        assert!(
            rel < 1e-6,
            "segment {i}: {} != {} (rel {rel:.3e})",
            run.attribution.total(),
            run.makespan
        );
    }
}
