//! §8.3 extension — beyond 3D parallelism: Expert Parallelism.
//!
//! EP's signature pattern is All-to-All (expert dispatch/combine). The
//! paper argues qualitatively that extra parallelism dimensions squeeze
//! the mesh's per-dimension bandwidth further while FRED stays flexible.
//! This experiment measures concurrent All-to-Alls among EP groups of
//! varying counts/sizes on every Table 5 fabric.

use fred_bench::table::{fmt_bw, Table};
use fred_bench::traceopt::TraceOpts;
use fred_collectives::hierarchical::merge_concurrent;
use fred_core::params::FabricConfig;
use fred_workloads::backend::FabricBackend;
use fred_workloads::report::CommType;
use fred_workloads::trainer::run_plan;

fn main() {
    let mut opts = TraceOpts::from_args("ep_alltoall");
    let bytes = 1e9;
    let mut table = Table::new(vec!["EP layout", "config", "time (ms)", "effective NPU BW"]);
    // (groups, members) layouts covering 20 NPUs.
    for (groups, members) in [(1usize, 20usize), (2, 10), (4, 5), (5, 4), (10, 2)] {
        for config in FabricConfig::ALL {
            let backend = FabricBackend::new(config);
            opts.name_links(&backend.topology());
            let plans = (0..groups)
                .map(|g| {
                    let slots: Vec<usize> = (0..members).map(|m| g * members + m).collect();
                    let phys = backend.physical_group(&slots);
                    backend.all_to_all(&phys, bytes)
                })
                .collect();
            let merged = merge_concurrent("ep", plans);
            let secs = run_plan(merged, CommType::Mp, &backend, opts.sink())
                .expect("benchmark plans run on a healthy fabric")
                .as_secs();
            // All-to-All traffic per NPU: (n-1)/n * D.
            let per_npu = (members as f64 - 1.0) / members as f64 * bytes;
            opts.metric(
                format!("{groups}xEP{members}/{}/ms", config.name()),
                secs * 1e3,
            );
            table.row(vec![
                format!("{groups} x EP({members})"),
                config.name().into(),
                format!("{:.3}", secs * 1e3),
                fmt_bw(per_npu / secs),
            ]);
        }
    }
    table.print("§8.3 — concurrent EP All-to-Alls (1 GB per NPU pairset)");
    println!(
        "\nreading: All-to-All has no reduction for in-switch execution to \
         exploit, so Fred-B/D match Fred-A/C — the win over the mesh comes \
         entirely from the nonblocking topology (§5.3 option 3 territory)."
    );
    opts.finish();
}
