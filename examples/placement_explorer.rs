//! Device-placement explorer (§3.2.2, Fig 5).
//!
//! On the rigid mesh, every placement of a 3D strategy favours some
//! parallelism dimensions and congests others; on FRED, the §5.3
//! placement keeps every phase congestion-free. This example sweeps
//! placement policies for MP(2)-DP(4)-PP(2) (Fig 5's strategy, on 16 of
//! the 20 NPUs) and prints each phase's standalone duration per policy.
//!
//! Run with: `cargo run --release --example placement_explorer`

use std::rc::Rc;

use fred::collectives::hierarchical::merge_concurrent;
use fred::core::params::FabricConfig;
use fred::core::placement::{Placement, PlacementPolicy, Strategy3D};
use fred::telemetry::sink::NullSink;
use fred::workloads::backend::FabricBackend;
use fred::workloads::report::CommType;
use fred::workloads::trainer::run_plan;

fn phase_time(backend: &FabricBackend, plans: Vec<fred::collectives::CommPlan>) -> f64 {
    let merged = merge_concurrent("phase", plans);
    run_plan(merged, CommType::Streaming, backend, Rc::new(NullSink))
        .expect("placement sweep runs on a healthy fabric")
        .as_secs()
}

fn main() {
    let strategy = Strategy3D::new(2, 4, 2);
    let bytes = 1e9;
    for config in [FabricConfig::BaselineMesh, FabricConfig::FredD] {
        let backend = FabricBackend::new(config);
        println!(
            "\n### {} — {strategy}, 1 GB per collective ###",
            config.name()
        );
        println!(
            "{:<10} {:>10} {:>10} {:>10}",
            "placement", "MP (ms)", "DP (ms)", "PP (ms)"
        );
        for policy in PlacementPolicy::ALL {
            let pl = Placement::new(strategy, policy);
            let mp = phase_time(
                &backend,
                pl.all_mp_groups()
                    .iter()
                    .map(|g| backend.all_reduce(&backend.physical_group(g), bytes))
                    .collect(),
            );
            let dp = phase_time(
                &backend,
                pl.all_dp_groups()
                    .iter()
                    .map(|g| backend.all_reduce(&backend.physical_group(g), bytes))
                    .collect(),
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
            );
            println!(
                "{:<10} {:>10.3} {:>10.3} {:>10.3}",
                format!("{policy:?}"),
                mp * 1e3,
                dp * 1e3,
                pp * 1e3
            );
        }
    }
    println!(
        "\nreading: on the mesh no column is best for all placements (the Fig 5 \
         trade-off); on Fred-D the rows are nearly identical — placement stops \
         mattering (§3.2.2)."
    );
}
