//! Figure 11 — Baseline vs Fred-D across parallelization strategies.
//!
//! Sweeps strategies for Transformer-17B (a) and Transformer-1T (b)
//! with minibatch = DP × 40 and the footnote-6 microbatch counts,
//! reporting per-sample totals, the average speedup, and the average
//! exposed-communication improvement.
//!
//! Paper reference: averaged across strategies Fred-D cuts exposed
//! communication 4.22× / 3.92× and speeds training 1.63× / 1.44× for
//! Transformer-17B / Transformer-1T; under Fred-D the most
//! compute-efficient strategy also becomes the fastest end-to-end.

use fred_bench::table::Table;
use fred_bench::traceopt::TraceOpts;
use fred_core::params::FabricConfig;
use fred_core::placement::Strategy3D;
use fred_sim::fault::FaultPlan;
use fred_workloads::backend::FabricBackend;
use fred_workloads::model::DnnModel;
use fred_workloads::schedule::ScheduleParams;
use fred_workloads::trainer::simulate_faulted;

fn strategies_17b() -> Vec<Strategy3D> {
    vec![
        Strategy3D::new(20, 1, 1),
        Strategy3D::new(10, 2, 1),
        Strategy3D::new(5, 4, 1),
        Strategy3D::new(5, 2, 2),
        Strategy3D::new(4, 5, 1),
        Strategy3D::new(2, 5, 2),
        Strategy3D::new(2, 2, 5),
        Strategy3D::new(1, 20, 1),
    ]
}

fn strategies_1t() -> Vec<Strategy3D> {
    vec![
        Strategy3D::new(20, 1, 1),
        Strategy3D::new(10, 1, 2),
        Strategy3D::new(5, 1, 4),
        Strategy3D::new(5, 4, 1),
        Strategy3D::new(4, 1, 5),
        Strategy3D::new(2, 5, 2),
        Strategy3D::new(1, 20, 1),
    ]
}

fn sweep(model: &DnnModel, strategies: &[Strategy3D], opts: &mut TraceOpts) {
    let baseline = FabricBackend::new(FabricConfig::BaselineMesh);
    let fred_d = FabricBackend::new(FabricConfig::FredD);
    // With both fabrics in one trace, link counters take Fred-D's names.
    opts.name_links(&fred_d.topology());
    let mut table = Table::new(vec![
        "strategy",
        "base total/sample (ms)",
        "fredD total/sample (ms)",
        "speedup",
        "base exposed (ms)",
        "fredD exposed (ms)",
        "exposed gain",
    ]);
    let mut speedups = Vec::new();
    let mut exposed_gains = Vec::new();
    let mut best_base: Option<(f64, String)> = None;
    let mut best_fred: Option<(f64, String)> = None;
    let mut best_compute: Option<(f64, String)> = None;
    let none = FaultPlan::none();
    for &s in strategies {
        let params = ScheduleParams::sweep_default(model, s);
        let rb = simulate_faulted(model, s, &baseline, params, &none, opts.sink()).unwrap();
        let rf = simulate_faulted(model, s, &fred_d, params, &none, opts.sink()).unwrap();
        let per = 1e3 / params.minibatch as f64;
        let (bt, ft) = (rb.total.as_secs() * per, rf.total.as_secs() * per);
        let (be, fe) = (
            rb.exposed_total().as_secs() * per,
            rf.exposed_total().as_secs() * per,
        );
        let speedup = bt / ft;
        let gain = if fe > 0.0 { be / fe } else { f64::INFINITY };
        opts.metric(format!("{}/{s}/base_ms_per_sample", model.name), bt);
        opts.metric(format!("{}/{s}/fredd_ms_per_sample", model.name), ft);
        speedups.push(speedup);
        exposed_gains.push(gain.min(50.0));
        let label = s.to_string();
        let cmp = rb.compute.as_secs() * per;
        if best_base.as_ref().is_none_or(|(t, _)| bt < *t) {
            best_base = Some((bt, label.clone()));
        }
        if best_fred.as_ref().is_none_or(|(t, _)| ft < *t) {
            best_fred = Some((ft, label.clone()));
        }
        if best_compute.as_ref().is_none_or(|(t, _)| cmp < *t) {
            best_compute = Some((cmp, label.clone()));
        }
        table.row(vec![
            label,
            format!("{bt:.3}"),
            format!("{ft:.3}"),
            format!("{speedup:.2}x"),
            format!("{be:.3}"),
            format!("{fe:.3}"),
            format!("{gain:.2}x"),
        ]);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    opts.metric(format!("{}/avg_speedup", model.name), avg(&speedups));
    opts.metric(
        format!("{}/avg_exposed_gain", model.name),
        avg(&exposed_gains),
    );
    table.row(vec![
        "Avg".into(),
        String::new(),
        String::new(),
        format!("{:.2}x", avg(&speedups)),
        String::new(),
        String::new(),
        format!("{:.2}x", avg(&exposed_gains)),
    ]);
    table.print(&format!(
        "Fig 11 — {} (baseline vs Fred-D, per-sample)",
        model.name
    ));
    let (_, compute_best) = best_compute.unwrap();
    let (_, base_best) = best_base.unwrap();
    let (_, fred_best) = best_fred.unwrap();
    println!("most compute-efficient strategy: {compute_best}");
    println!("best end-to-end on baseline:     {base_best}");
    println!("best end-to-end on Fred-D:       {fred_best}");
}

fn main() {
    let mut opts = TraceOpts::from_args("fig11");
    sweep(&DnnModel::transformer_17b(), &strategies_17b(), &mut opts);
    sweep(&DnnModel::transformer_1t(), &strategies_1t(), &mut opts);
    println!(
        "\npaper reference: avg speedup 1.63x (17B) / 1.44x (1T); avg exposed-comm \
         improvement 4.22x / 3.92x; the most compute-efficient strategy becomes \
         the best end-to-end under Fred-D"
    );
    opts.finish();
}
