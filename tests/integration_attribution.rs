//! End-to-end attribution integration: a traced training iteration's
//! critical-path attribution must account for every nanosecond of the
//! makespan (the invariant the bench reports are validated against),
//! and the streaming analysis sink must split a multi-run recording
//! into exactly the analyses of its runs recorded alone.

use std::rc::Rc;

use fred::core::params::FabricConfig;
use fred::core::placement::Strategy3D;
use fred::sim::fault::FaultPlan;
use fred::telemetry::analysis::{Analysis, AnalysisSink, RunAnalysis};
use fred::telemetry::sink::{RingRecorder, TeeSink, TraceSink};
use fred::workloads::backend::FabricBackend;
use fred::workloads::model::DnnModel;
use fred::workloads::schedule::ScheduleParams;
use fred::workloads::trainer::simulate_faulted;

/// Simulates one iteration recording into `sink`; returns the
/// simulated makespan in seconds.
fn record(
    model: &DnnModel,
    config: FabricConfig,
    strategy: Strategy3D,
    sink: Rc<dyn TraceSink>,
) -> f64 {
    let backend = FabricBackend::new(config);
    let params = ScheduleParams::sweep_default(model, strategy);
    simulate_faulted(model, strategy, &backend, params, &FaultPlan::none(), sink)
        .unwrap()
        .total
        .as_secs()
}

fn analyze(config: FabricConfig, strategy: Strategy3D) -> (Analysis, f64) {
    let sink = Rc::new(AnalysisSink::new());
    let total = record(&DnnModel::transformer_17b(), config, strategy, sink.clone());
    (sink.finish(), total)
}

fn assert_sums_to_makespan(run: &RunAnalysis, ctx: &str) {
    let rel = (run.attribution.total() - run.makespan).abs() / run.makespan.max(f64::MIN_POSITIVE);
    assert!(
        rel < 1e-6,
        "{ctx}: {} != {} (rel {rel:.3e})",
        run.attribution.total(),
        run.makespan
    );
}

/// The acceptance-criterion invariant: Σ attribution buckets ==
/// makespan within 1e-6 relative, on a real 3D-parallel iteration.
#[test]
fn attribution_sums_to_makespan_on_traced_training_run() {
    for config in [FabricConfig::BaselineMesh, FabricConfig::FredD] {
        let (analysis, total_secs) = analyze(config, Strategy3D::new(2, 5, 2));
        assert!(!analysis.runs.is_empty(), "expected at least one run");
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

/// Per-run invariant holds too (each Topology-delimited run
/// independently).
#[test]
fn every_segment_attribution_matches_its_makespan() {
    let (analysis, _) = analyze(FabricConfig::BaselineMesh, Strategy3D::new(5, 2, 2));
    for (i, run) in analysis.runs.iter().enumerate() {
        assert_sums_to_makespan(run, &format!("run {i}"));
    }
}

/// Three iterations recorded into one sink give one analysis per
/// `FlowNetwork`, each identical to the analysis of that run recorded
/// alone — while a 1024-event ring teed alongside overflows.
#[test]
fn streaming_sink_analyses_every_run_of_a_recording() {
    let model = DnnModel::resnet152();
    let strategy = model.default_strategy;
    let configs = [
        FabricConfig::BaselineMesh,
        FabricConfig::FredC,
        FabricConfig::FredD,
    ];
    let ring = Rc::new(RingRecorder::with_capacity(1024));
    let sink = Rc::new(AnalysisSink::new());
    let tee: Rc<dyn TraceSink> = Rc::new(TeeSink(ring.clone(), sink.clone()));
    let totals: Vec<f64> = configs
        .iter()
        .map(|&config| record(&model, config, strategy, tee.clone()))
        .collect();
    assert!(ring.overwritten() > 0, "the 1024-event ring must overflow");

    let analysis = sink.finish();
    assert_eq!(
        analysis.runs.len(),
        configs.len(),
        "one run per FlowNetwork"
    );
    for ((config, run), total) in configs.iter().zip(&analysis.runs).zip(totals) {
        let alone = Rc::new(AnalysisSink::new());
        record(&model, *config, strategy, alone.clone());
        let streamed = Analysis {
            runs: vec![run.clone()],
        };
        assert_eq!(streamed.to_json(), alone.finish().to_json(), "{config:?}");
        assert_sums_to_makespan(run, &format!("{config:?}"));
        assert!(
            run.makespan >= total * (1.0 - 1e-6),
            "{config:?}: makespan {} < simulated total {total}",
            run.makespan
        );
    }
}
