//! Figure 5 — the device-placement trade-off (§3.2.2).
//!
//! For MP(2)-DP(4)-PP(2) (the paper's Fig 5 strategy), sweeps placement
//! policies on the baseline mesh and on Fred-D, timing each parallelism
//! phase in isolation. Expected shape: on the mesh every row favours
//! two dimensions and congests the third (Fig 5a vs 5b); on Fred-D the
//! rows coincide — placement stops mattering.

use std::rc::Rc;

use fred_bench::table::Table;
use fred_bench::traceopt::TraceOpts;
use fred_collectives::hierarchical::merge_concurrent;
use fred_collectives::plan::CommPlan;
use fred_core::params::FabricConfig;
use fred_core::placement::{Placement, PlacementPolicy, Strategy3D};
use fred_telemetry::sink::TraceSink;
use fred_workloads::backend::FabricBackend;
use fred_workloads::report::CommType;
use fred_workloads::trainer::run_plan;

/// `plans` run concurrently in the bulk class, in milliseconds.
fn phase_time(backend: &FabricBackend, plans: Vec<CommPlan>, sink: Rc<dyn TraceSink>) -> f64 {
    let merged = merge_concurrent("phase", plans);
    run_plan(merged, CommType::Streaming, backend, sink)
        .expect("benchmark plans run on a healthy fabric")
        .as_secs()
        * 1e3
}

fn main() {
    let mut opts = TraceOpts::from_args("fig5_placement");
    let strategy = Strategy3D::new(2, 4, 2);
    let bytes = 1e9;
    for config in [FabricConfig::BaselineMesh, FabricConfig::FredD] {
        let backend = FabricBackend::new(config);
        opts.name_links(&backend.topology());
        let mut table = Table::new(vec![
            "placement",
            "MP (ms)",
            "DP (ms)",
            "PP (ms)",
            "worst phase",
        ]);
        for policy in PlacementPolicy::ALL {
            let pl = Placement::new(strategy, policy);
            let mp = phase_time(
                &backend,
                pl.all_mp_groups()
                    .iter()
                    .map(|g| backend.all_reduce(&backend.physical_group(g), bytes))
                    .collect(),
                opts.sink(),
            );
            let dp = phase_time(
                &backend,
                pl.all_dp_groups()
                    .iter()
                    .map(|g| backend.all_reduce(&backend.physical_group(g), bytes))
                    .collect(),
                opts.sink(),
            );
            let pp = phase_time(
                &backend,
                (0..strategy.dp)
                    .flat_map(|d| (0..strategy.pp - 1).map(move |p| (d, p)))
                    .map(|(d, p)| {
                        backend.stage_transfer(
                            &backend.physical_group(&pl.mp_group_npus(d, p)),
                            &backend.physical_group(&pl.mp_group_npus(d, p + 1)),
                            bytes,
                        )
                    })
                    .collect(),
                opts.sink(),
            );
            let worst = [("MP", mp), ("DP", dp), ("PP", pp)]
                .into_iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            for (dim, ms) in [("MP", mp), ("DP", dp), ("PP", pp)] {
                opts.metric(format!("{}/{policy:?}/{dim}_ms", config.name()), ms);
            }
            table.row(vec![
                format!("{policy:?}"),
                format!("{mp:.3}"),
                format!("{dp:.3}"),
                format!("{pp:.3}"),
                format!("{} ({:.3} ms)", worst.0, worst.1),
            ]);
        }
        table.print(&format!(
            "Fig 5 — {} placements for {strategy} (1 GB/collective)",
            config.name()
        ));
    }
    println!(
        "\nreading: no mesh placement makes all three phases fast at once \
         (§3.2.2: \"mathematically impossible\"); Fred-D rows are identical."
    );
    opts.finish();
}
