//! Figure 9 — communication microbenchmarks.
//!
//! For two parallelization strategies of Transformer-17B
//! (MP(20)-DP(1)-PP(1) and MP(2)-DP(5)-PP(2)), runs each
//! 3D-parallelism communication phase *alone* on every Table 5 fabric
//! and reports the phase time and the effective per-NPU bandwidth
//! (§8.1's metric: bytes each NPU must send under the algorithm,
//! divided by the phase duration).
//!
//! Expected shape (paper §8.1): for the wafer-wide MP All-Reduce the
//! baseline sits near 1.5 TBps (corner-bounded), Fred-A ≈ baseline,
//! Fred-B in between, Fred-C/D near 3 TBps with Fred-D halving the
//! traffic; for the DP phase of MP(2)-DP(5)-PP(2), Fred-A drops *below*
//! the baseline (≈375 GBps vs 750 GBps) and Fred-C/D recover.

use std::rc::Rc;

use fred_bench::table::{fmt_bw, fmt_secs, Table};
use fred_bench::traceopt::TraceOpts;
use fred_collectives::hierarchical::merge_concurrent;
use fred_collectives::plan::CommPlan;
use fred_core::params::FabricConfig;
use fred_core::placement::{Placement, PlacementPolicy, Strategy3D};
use fred_telemetry::sink::TraceSink;
use fred_workloads::backend::FabricBackend;
use fred_workloads::model::DnnModel;
use fred_workloads::report::CommType;
use fred_workloads::trainer::run_plan;

fn phase_row(
    backend: &FabricBackend,
    label: &str,
    plans: Vec<CommPlan>,
    per_npu_traffic: f64,
    table: &mut Table,
    sink: Rc<dyn TraceSink>,
) -> f64 {
    let merged = merge_concurrent(label, plans);
    let secs = run_plan(merged, CommType::Streaming, backend, sink)
        .expect("benchmark plans run on a healthy fabric")
        .as_secs();
    table.row(vec![
        backend.config().name().into(),
        label.into(),
        fmt_secs(secs),
        fmt_bw(per_npu_traffic / secs),
    ]);
    secs
}

fn main() {
    let mut opts = TraceOpts::from_args("fig9");
    let model = DnnModel::transformer_17b();
    // Per the §8.1 microbenchmarks: one Megatron All-Reduce payload at
    // minibatch = DP x 16.
    for strategy in [Strategy3D::new(20, 1, 1), Strategy3D::new(2, 5, 2)] {
        println!("\n#### Strategy {strategy} (Transformer-17B payloads) ####");
        let mut table = Table::new(vec!["config", "phase", "time", "effective NPU BW"]);
        let samples = 16.0 * strategy.dp as f64 / strategy.dp as f64; // per-replica samples
        let ar_bytes = model.activation_bytes(samples) * 64.0; // a layer-stack burst
        let grad_bytes = model.grad_bytes() / (strategy.mp * strategy.pp) as f64;

        for config in FabricConfig::ALL {
            let backend = FabricBackend::new(config);
            opts.name_links(&backend.topology());
            let pl = Placement::new(strategy, PlacementPolicy::for_fabric(config));

            // MP phase: all MP groups all-reduce concurrently.
            if strategy.mp > 1 {
                let groups: Vec<Vec<usize>> = pl
                    .all_mp_groups()
                    .iter()
                    .map(|g| backend.physical_group(g))
                    .collect();
                let per_npu = if config.in_network_collectives() && strategy.mp > 2 {
                    ar_bytes
                } else {
                    fred_collectives::cost::endpoint_all_reduce_traffic(strategy.mp, ar_bytes)
                };
                let plans = groups
                    .iter()
                    .map(|g| backend.all_reduce(g, ar_bytes))
                    .collect();
                let secs = phase_row(
                    &backend,
                    "MP all-reduce",
                    plans,
                    per_npu,
                    &mut table,
                    opts.sink(),
                );
                opts.metric(format!("{strategy}/{}/MP/secs", config.name()), secs);
            }
            // DP phase.
            if strategy.dp > 1 {
                let groups: Vec<Vec<usize>> = pl
                    .all_dp_groups()
                    .iter()
                    .map(|g| backend.physical_group(g))
                    .collect();
                let per_npu = if config.in_network_collectives() && strategy.dp > 2 {
                    grad_bytes
                } else {
                    fred_collectives::cost::endpoint_all_reduce_traffic(strategy.dp, grad_bytes)
                };
                let plans = groups
                    .iter()
                    .map(|g| backend.all_reduce(g, grad_bytes))
                    .collect();
                let secs = phase_row(
                    &backend,
                    "DP all-reduce",
                    plans,
                    per_npu,
                    &mut table,
                    opts.sink(),
                );
                opts.metric(format!("{strategy}/{}/DP/secs", config.name()), secs);
            }
            // PP phase: every stage feeds the next, member-to-member.
            if strategy.pp > 1 {
                let mut plans = Vec::new();
                for d in 0..strategy.dp {
                    for p in 0..strategy.pp - 1 {
                        let srcs = backend.physical_group(&pl.mp_group_npus(d, p));
                        let dsts = backend.physical_group(&pl.mp_group_npus(d, p + 1));
                        plans.push(backend.stage_transfer(&srcs, &dsts, ar_bytes));
                    }
                }
                let secs = phase_row(
                    &backend,
                    "PP transfer",
                    plans,
                    ar_bytes,
                    &mut table,
                    opts.sink(),
                );
                opts.metric(format!("{strategy}/{}/PP/secs", config.name()), secs);
            }
        }
        table.print(&format!("Fig 9 — {strategy}"));
    }
    opts.finish();
}
