//! Observability-layer integration: flight-recorder determinism over
//! real simulations, histogram quantiles against a sorted-reference
//! oracle, dashboard self-containment, and `RingRecorder` overflow
//! counts propagating into cluster reports.

use std::collections::BTreeMap;
use std::rc::Rc;

use fred::cluster::{run_cluster_traced, ClusterConfig, JobClass, JobSpec};
use fred::core::params::FabricConfig;
use fred::core::placement::Strategy3D;
use fred::sim::time::Time;
use fred::telemetry::dashboard;
use fred::telemetry::sink::{RingRecorder, TeeSink};
use fred::telemetry::timeseries::{FlightRecorder, FlightSnapshot, LogHistogram};
use fred::workloads::model::DnnModel;
use fred::workloads::schedule::ScheduleParams;

fn resnet_job(name: &str, dp: usize) -> JobSpec {
    let model = DnnModel::resnet152();
    let strategy = Strategy3D::new(1, dp, 1);
    let params = ScheduleParams::sweep_default(&model, strategy);
    JobSpec::new(name, model, strategy, params)
}

/// A small two-tenant cluster run recorded into a fresh flight
/// recorder; returns the snapshot and the report's dropped count.
fn traced_run(ring_capacity: Option<usize>) -> (FlightSnapshot, u64) {
    let jobs = vec![
        resnet_job("hi", 4).with_class(JobClass::High),
        resnet_job("lo", 4)
            .with_class(JobClass::Low)
            .with_arrival(Time::from_secs(0.001)),
    ];
    let flight = Rc::new(FlightRecorder::new());
    let report = match ring_capacity {
        Some(cap) => {
            let sink = Rc::new(TeeSink(
                Rc::new(RingRecorder::with_capacity(cap)),
                flight.clone(),
            ));
            run_cluster_traced(&ClusterConfig::new(FabricConfig::FredD), jobs, sink).unwrap()
        }
        None => run_cluster_traced(
            &ClusterConfig::new(FabricConfig::FredD),
            jobs,
            flight.clone(),
        )
        .unwrap(),
    };
    (flight.snapshot(), report.dropped_events)
}

/// Same simulation, same seed → bit-identical snapshots. The flight
/// recorder's decimation, link-series cap and sample coalescing are
/// all deterministic, so recorded series are a regression surface.
#[test]
fn flight_recorder_is_deterministic_across_runs() {
    let (a, da) = traced_run(None);
    let (b, db) = traced_run(None);
    assert!(!a.is_empty(), "a real run records series");
    assert_eq!(a, b, "snapshots must be bit-identical at fixed seed");
    assert_eq!(da, db);
}

/// Flight-recorder quantiles agree with a sorted-reference oracle to
/// within the log-bucket resolution contract: the exact quantile lies
/// inside `quantile_bounds`, and the point estimate is within one
/// bucket (a factor of 2) of it.
#[test]
fn histogram_quantiles_match_sorted_oracle() {
    let mut h = LogHistogram::new(1e-9);
    // Deterministic LCG — heavy-tailed values across many buckets.
    let mut x: u64 = 0x5EED_CAFE;
    let mut values = Vec::with_capacity(5000);
    for _ in 0..5000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let v = 1e-8 * ((x >> 33) as f64 + 1.0).powf(1.7);
        values.push(v);
        h.record(v);
    }
    let mut sorted = values.clone();
    sorted.sort_by(f64::total_cmp);
    for q in [0.05, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
        let exact = sorted[((q * sorted.len() as f64).ceil() as usize).max(1) - 1];
        let (lo, hi) = h.quantile_bounds(q);
        assert!(
            lo <= exact && exact <= hi,
            "q={q}: oracle {exact} outside bucket bounds [{lo}, {hi}]"
        );
        let est = h.quantile(q);
        assert!(
            est >= exact / 2.0 && est <= exact * 2.0,
            "q={q}: estimate {est} more than one bucket from oracle {exact}"
        );
    }
    assert_eq!(h.count(), 5000);
    let mean_oracle = values.iter().sum::<f64>() / values.len() as f64;
    assert!((h.mean() - mean_oracle).abs() <= 1e-12 * mean_oracle.abs());
}

/// The dashboard over a real run is a complete standalone document:
/// per-tenant and per-link series present, no external references.
#[test]
fn dashboard_from_live_run_is_self_contained() {
    let (snap, _) = traced_run(None);
    let html = dashboard::render("itest", &snap, &BTreeMap::new());
    assert!(html.starts_with("<!DOCTYPE html>"));
    assert!(html.ends_with("</body></html>"));
    assert!(html.contains("queue_depth/"), "per-tenant series rendered");
    assert!(html.contains("link_util/"), "per-link heatmap rendered");
    assert!(html.contains("<svg"));
    for needle in ["http://", "https://", "<script", "<link", "@import", "url("] {
        assert!(!html.contains(needle), "external reference: {needle}");
    }
}

/// Satellite: ring overflow propagates into `ClusterReport` — a tiny
/// ring drops events, the report records how many, and an ample ring
/// reports zero.
#[test]
fn cluster_report_carries_dropped_event_count() {
    let (_, dropped_small) = traced_run(Some(64));
    assert!(
        dropped_small > 0,
        "a 64-event ring must overflow on a real cluster run"
    );
    let (_, dropped_big) = traced_run(Some(1 << 22));
    assert_eq!(dropped_big, 0, "an ample ring drops nothing");
    let (_, dropped_flight_only) = traced_run(None);
    assert_eq!(dropped_flight_only, 0, "the flight recorder never drops");
}
