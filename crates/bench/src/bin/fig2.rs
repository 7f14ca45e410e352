//! Figure 2 — compute/communication overhead per parallelization
//! strategy for Transformer-17B on the baseline 2D mesh.
//!
//! Sweeps 3D-parallelism factorizations of the 20-NPU wafer (including
//! a non-aligned strategy) with minibatch = DP × 40 and reports the
//! per-sample normalised breakdown. Expected shape: communication
//! overhead varies wildly across strategies and can make
//! compute-efficient strategies (e.g. MP(20)) lose end-to-end.

use fred_bench::table::Table;
use fred_bench::traceopt::TraceOpts;
use fred_core::params::FabricConfig;
use fred_core::placement::Strategy3D;
use fred_sim::fault::FaultPlan;
use fred_workloads::backend::FabricBackend;
use fred_workloads::model::DnnModel;
use fred_workloads::schedule::ScheduleParams;
use fred_workloads::trainer::simulate_faulted;

/// The strategy set of Fig 2 (products of 20, plus one non-aligned).
pub fn fig2_strategies() -> Vec<Strategy3D> {
    vec![
        Strategy3D::new(20, 1, 1),
        Strategy3D::new(10, 2, 1),
        Strategy3D::new(5, 4, 1),
        Strategy3D::new(5, 2, 2),
        Strategy3D::new(5, 1, 4),
        Strategy3D::new(4, 5, 1),
        Strategy3D::new(2, 5, 2),
        Strategy3D::new(2, 2, 5),
        Strategy3D::new(1, 20, 1),
        Strategy3D::new(1, 2, 10),
        Strategy3D::new(2, 10, 1),
        Strategy3D::new(1, 10, 2),
        // Non-aligned (uses 15 of 20 NPUs, §3.2.3).
        Strategy3D::new(5, 3, 1),
    ]
}

fn main() {
    let mut opts = TraceOpts::from_args("fig2");
    let model = DnnModel::transformer_17b();
    let backend = FabricBackend::new(FabricConfig::BaselineMesh);
    opts.name_links(&backend.topology());
    let none = FaultPlan::none();
    let mut table = Table::new(vec![
        "strategy",
        "minibatch",
        "compute/sample (ms)",
        "exposed comm/sample (ms)",
        "total/sample (ms)",
        "comm share",
    ]);
    for strategy in fig2_strategies() {
        let params = ScheduleParams::sweep_default(&model, strategy);
        let r = simulate_faulted(&model, strategy, &backend, params, &none, opts.sink()).unwrap();
        let per = 1e3 / r.minibatch as f64;
        let compute = r.compute.as_secs() * per;
        let exposed = r.exposed_total().as_secs() * per;
        let total = r.total.as_secs() * per;
        opts.metric(format!("{strategy}/total_ms_per_sample"), total);
        opts.metric(format!("{strategy}/exposed_ms_per_sample"), exposed);
        table.row(vec![
            r.strategy.clone(),
            r.minibatch.to_string(),
            format!("{compute:.3}"),
            format!("{exposed:.3}"),
            format!("{total:.3}"),
            format!("{:.0}%", 100.0 * exposed / total),
        ]);
    }
    table.print("Fig 2 — Transformer-17B strategies on the baseline 2D mesh (per-sample)");
    opts.finish();
}
