//! Figure 6 — non-aligned parallelization strategies (§3.2.3).
//!
//! MP(5)-DP(3)-PP(1) uses 15 of the 20 NPUs, so its groups cannot align
//! with the mesh dimensions: logical rings acquire multi-hop edges
//! (Fig 6a) and different DP groups collide under X-Y routing (Fig 6b).
//! On FRED the same groups route conflict-free at full bandwidth.

use fred_bench::table::{fmt_bw, Table};
use fred_bench::traceopt::TraceOpts;
use fred_collectives::hierarchical::merge_concurrent;
use fred_core::params::FabricConfig;
use fred_core::placement::{Placement, PlacementPolicy, Strategy3D};
use fred_mesh::rings::{ring_hop_count, snake_order};
use fred_mesh::topology::MeshFabric;
use fred_workloads::backend::FabricBackend;
use fred_workloads::report::CommType;
use fred_workloads::trainer::run_plan;

fn main() {
    let mut opts = TraceOpts::from_args("fig6_nonaligned");
    let strategy = Strategy3D::new(5, 3, 1);
    let mesh = MeshFabric::paper_baseline();

    // Fig 6(a): ring shapes of the MP groups on the mesh.
    let pl = Placement::new(strategy, PlacementPolicy::MpDpPp);
    let mesh_backend = FabricBackend::new(FabricConfig::BaselineMesh);
    let mut table = Table::new(vec!["MP group", "members (physical)", "ring hops", "ideal"]);
    for (i, g) in pl.all_mp_groups().iter().enumerate() {
        let phys = mesh_backend.physical_group(g);
        let order = snake_order(&mesh, &phys);
        table.row(vec![
            format!("group {i}"),
            format!("{phys:?}"),
            ring_hop_count(&mesh, &order).to_string(),
            phys.len().to_string(),
        ]);
    }
    table.print("Fig 6(a) — MP(5)-DP(3)-PP(1) ring embeddings on the 5x4 mesh");

    // Fig 6(b): concurrent-phase congestion, mesh vs Fred-D.
    let bytes = 1e9;
    let mut table = Table::new(vec!["config", "phase", "time (ms)", "effective NPU BW"]);
    for config in [FabricConfig::BaselineMesh, FabricConfig::FredD] {
        let backend = FabricBackend::new(config);
        opts.name_links(&backend.topology());
        let pl = Placement::new(strategy, PlacementPolicy::for_fabric(config));
        for (label, groups) in [("MP", pl.all_mp_groups()), ("DP", pl.all_dp_groups())] {
            let n = groups[0].len();
            let plans = groups
                .iter()
                .map(|g| backend.all_reduce(&backend.physical_group(g), bytes))
                .collect();
            let merged = merge_concurrent(label, plans);
            let secs = run_plan(merged, CommType::Streaming, &backend, opts.sink())
                .expect("benchmark plans run on a healthy fabric")
                .as_secs();
            opts.metric(format!("{}/{label}_ms", config.name()), secs * 1e3);
            let per_npu = if config.in_network_collectives() && n > 2 {
                bytes
            } else {
                fred_collectives::cost::endpoint_all_reduce_traffic(n, bytes)
            };
            table.row(vec![
                config.name().into(),
                format!("{label} all-reduce x{}", groups.len()),
                format!("{:.3}", secs * 1e3),
                fmt_bw(per_npu / secs),
            ]);
        }
    }
    table.print("Fig 6(b) — concurrent non-aligned collectives, mesh vs Fred-D");
    println!(
        "\nreading: the mesh pays multi-hop ring edges and inter-group collisions \
         for non-aligned strategies; FRED routes the same groups conflict-free \
         (§3.2.3, §5.3)."
    );
    opts.finish();
}
