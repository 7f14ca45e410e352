//! End-to-end integration: the Fig 10 / Fig 11 claims at test
//! granularity — FRED beats the baseline on every Table 6 workload and
//! slashes exposed communication.

use fred::core::params::FabricConfig;
use fred::workloads::backend::FabricBackend;
use fred::workloads::model::DnnModel;
use fred::workloads::schedule::ScheduleParams;
use fred::workloads::trainer::simulate;

/// Fig 10: Fred-D improves end-to-end time on all four workloads, and
/// exposed communication shrinks substantially.
#[test]
fn fred_d_beats_baseline_on_all_table6_workloads() {
    let baseline = FabricBackend::new(FabricConfig::BaselineMesh);
    let fred_d = FabricBackend::new(FabricConfig::FredD);
    for model in DnnModel::all_paper_workloads() {
        let strategy = model.default_strategy;
        let params = ScheduleParams::paper_default(&model, strategy);
        let rb = simulate(&model, strategy, &baseline, params).unwrap();
        let rf = simulate(&model, strategy, &fred_d, params).unwrap();
        let speedup = rf.speedup_over(&rb);
        assert!(
            speedup > 1.2,
            "{}: Fred-D speedup {speedup:.2} too small ({rb} vs {rf})",
            model.name
        );
        assert!(
            speedup < 2.5,
            "{}: Fred-D speedup {speedup:.2} implausibly large",
            model.name
        );
        let exposed_gain = rb.exposed_total().as_secs() / rf.exposed_total().as_secs().max(1e-12);
        assert!(
            exposed_gain > 1.5,
            "{}: exposed comm gain only {exposed_gain:.2}",
            model.name
        );
    }
}

/// Fig 10 on ResNet-152: Fred-C beats the baseline, and Fred-D's time
/// is within 10% of Fred-C's. Fred-C is not between the baseline and
/// Fred-D here: it edges past Fred-D (deviation D4 in EXPERIMENTS.md).
#[test]
fn fred_c_beats_baseline_and_fred_d_is_within_10pct_of_fred_c() {
    let model = DnnModel::resnet152();
    let strategy = model.default_strategy;
    let params = ScheduleParams::paper_default(&model, strategy);
    let rb = simulate(
        &model,
        strategy,
        &FabricBackend::new(FabricConfig::BaselineMesh),
        params,
    )
    .unwrap();
    let rc = simulate(
        &model,
        strategy,
        &FabricBackend::new(FabricConfig::FredC),
        params,
    )
    .unwrap();
    let rd = simulate(
        &model,
        strategy,
        &FabricBackend::new(FabricConfig::FredD),
        params,
    )
    .unwrap();
    assert!(
        rc.total < rb.total,
        "Fred-C {rc} not faster than baseline {rb}"
    );
    assert!(
        rd.total.as_secs() < rc.total.as_secs() * 1.1,
        "Fred-D {rd} more than 10% slower than Fred-C {rc}"
    );
}

/// The compute component is fabric-invariant: the network must never
/// change how much arithmetic the workload does.
#[test]
fn compute_time_is_fabric_invariant() {
    let model = DnnModel::transformer_17b();
    let strategy = model.default_strategy;
    let params = ScheduleParams::paper_default(&model, strategy);
    let mut computes = Vec::new();
    for config in FabricConfig::ALL {
        let r = simulate(&model, strategy, &FabricBackend::new(config), params).unwrap();
        computes.push(r.compute.as_secs());
    }
    for w in computes.windows(2) {
        assert!(
            (w[0] - w[1]).abs() < 1e-9,
            "compute differs across fabrics: {computes:?}"
        );
    }
}

/// Normalisation sanity: doubling the minibatch (at fixed microbatch
/// structure) must not double per-sample cost.
#[test]
fn per_sample_time_is_subadditive_in_minibatch() {
    let model = DnnModel::resnet152();
    let strategy = model.default_strategy;
    let backend = FabricBackend::new(FabricConfig::BaselineMesh);
    let mut p1 = ScheduleParams::paper_default(&model, strategy);
    let mut p2 = p1;
    p1.minibatch = 320;
    p2.minibatch = 640;
    let r1 = simulate(&model, strategy, &backend, p1).unwrap();
    let r2 = simulate(&model, strategy, &backend, p2).unwrap();
    // DP comm is minibatch-independent, so per-sample time drops.
    assert!(r2.time_per_sample() < r1.time_per_sample());
}

/// Weight-streaming exposure shrinks when moving from the mesh to
/// Fred-D (the §8.2 GPT-3/1T mechanism: 0.65x -> 1.0x line rate).
#[test]
fn streaming_exposure_shrinks_on_fred() {
    use fred::workloads::report::CommType;
    let model = DnnModel::transformer_1t();
    let strategy = model.default_strategy;
    let params = ScheduleParams::paper_default(&model, strategy);
    let rb = simulate(
        &model,
        strategy,
        &FabricBackend::new(FabricConfig::BaselineMesh),
        params,
    )
    .unwrap();
    let rf = simulate(
        &model,
        strategy,
        &FabricBackend::new(FabricConfig::FredD),
        params,
    )
    .unwrap();
    let sb = rb.exposed_for(CommType::Streaming).as_secs();
    let sf = rf.exposed_for(CommType::Streaming).as_secs();
    assert!(sb > 0.0, "baseline shows no streaming exposure");
    assert!(sf < sb * 0.5, "streaming exposure {sf} not halved vs {sb}");
}
