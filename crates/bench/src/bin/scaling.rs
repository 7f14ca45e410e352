//! Scaling study (§3.2.1's O(N) law + §8.3's multi-wafer discussion).
//!
//! 1. Mesh width sweep: the link bandwidth a mesh needs for full-rate
//!    streaming grows linearly ((2N−1)P), so the achievable I/O
//!    fraction collapses as wafers scale — while a FRED tree only needs
//!    its L1 trunks to match the attached NPU bandwidth (O(1) per NPU).
//! 2. Multi-wafer sweep: the §8.3 hierarchical global All-Reduce across
//!    2–4 wafers, showing the inter-wafer channel bandwidth taking over
//!    as the bottleneck.

use fred_bench::churn::{run_churn, SCALING_SWEEP};
use fred_bench::table::{fmt_bw, Table};
use fred_bench::traceopt::TraceOpts;
use fred_core::multiwafer::MultiWafer;
use fred_core::params::FabricConfig;
use fred_hwmodel::iohotspot;
use fred_sim::flow::Priority;
use fred_sim::netsim::FlowNetwork;

fn main() {
    let mut opts = TraceOpts::from_args("scaling");
    // 1. Mesh vs FRED streaming scalability (closed form).
    let p = 128e9;
    let link = 750e9;
    let mut table = Table::new(vec![
        "NPUs (N x N)",
        "mesh hotspot BW",
        "mesh line-rate fraction",
        "FRED line-rate fraction",
    ]);
    for n in [4usize, 5, 6, 8, 12, 16] {
        let frac = iohotspot::achievable_channel_rate(n, p, link) / p;
        opts.metric(format!("mesh_line_rate_fraction/{n}x{n}"), frac);
        table.row(vec![
            format!("{} ({n}x{n})", n * n),
            fmt_bw(iohotspot::required_link_bw(n, p)),
            format!("{frac:.2}"),
            "1.00".into(), // FRED trunks scale with attached NPUs by construction
        ]);
    }
    table.print("scaling — streaming I/O vs wafer size (128 GB/s channels, 750 GB/s mesh links)");

    // 2. Multi-wafer global All-Reduce.
    let d = 10e9;
    let mut table = Table::new(vec![
        "wafers",
        "inter-wafer BW/channel",
        "global AR time (ms)",
        "effective NPU BW",
    ]);
    for wafers in [2usize, 3, 4] {
        for inter_bw in [128e9, 512e9, 2e12] {
            let mw = MultiWafer::new(wafers, FabricConfig::FredD, 4, inter_bw);
            let topo = mw.clone_topology();
            opts.name_links(&topo);
            let mut net = FlowNetwork::with_sink(topo, opts.sink());
            net.inject_batch(mw.global_all_reduce(d, Priority::Dp, 0))
                .expect("multiwafer routes are valid on a healthy fabric");
            let done = net.run_to_completion();
            let t = done
                .iter()
                .map(|c| c.completed_at.as_secs())
                .fold(0.0, f64::max);
            opts.metric(
                format!("global_ar_ms/{wafers}w/{}", fmt_bw(inter_bw)),
                t * 1e3,
            );
            table.row(vec![
                wafers.to_string(),
                fmt_bw(inter_bw),
                format!("{:.3}", t * 1e3),
                fmt_bw(d / t),
            ]);
        }
    }
    table.print("scaling — §8.3 hierarchical global All-Reduce across wafers (10 GB)");
    println!(
        "\nreading: on-wafer FRED keeps each NPU at 3 TB/s regardless of wafer \
         count; the inter-wafer channels set the ceiling, as §8.3 anticipates."
    );

    // 3. Simulator-throughput churn sweep: the fair-share solver is the
    //    dominant cost at the 1k–4k-NPU points, so events/s here tracks
    //    the allocator directly (a host timing: reported under `perf`,
    //    never gated by `bench-diff`).
    let mut table = Table::new(vec![
        "NPUs",
        "flows",
        "sim makespan (ms)",
        "wall (s)",
        "events/s",
    ]);
    for cfg in &SCALING_SWEEP {
        let r = run_churn(cfg);
        let npus = cfg.npus();
        opts.metric(format!("churn_makespan_ms/{npus}"), r.makespan_secs * 1e3);
        opts.metric(format!("churn_checksum_secs/{npus}"), r.completion_checksum);
        opts.perf(format!("events_per_sec/{npus}"), r.events_per_sec());
        table.row(vec![
            npus.to_string(),
            cfg.flows.to_string(),
            format!("{:.3}", r.makespan_secs * 1e3),
            format!("{:.3}", r.wall_secs),
            format!("{:.0}", r.events_per_sec()),
        ]);
    }
    table.print("scaling — flow-churn simulator throughput (local traffic, target concurrency)");
    opts.finish();
}
