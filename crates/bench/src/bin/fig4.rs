//! Figure 4 / §3.2.1 — the mesh I/O streaming hotspot.
//!
//! Three views of the same law:
//!
//! 1. closed-form: hotspot multiplier (2N − 1) and required link
//!    bandwidth per mesh width;
//! 2. empirical: per-link load counted from the concrete broadcast
//!    trees on the constructed mesh;
//! 3. simulated: achieved line-rate fraction when all 18 channels of
//!    the 5×4 baseline stream concurrently (expected ≈ 0.65).

use fred_bench::table::{fmt_bw, Table};
use fred_bench::traceopt::TraceOpts;
use fred_hwmodel::iohotspot;
use fred_mesh::streaming;
use fred_mesh::topology::MeshFabric;
use fred_sim::flow::FlowSpec;
use fred_sim::netsim::FlowNetwork;

fn main() {
    let mut opts = TraceOpts::from_args("fig4");
    // 1. Closed-form sweep.
    let mut t = Table::new(vec![
        "mesh width N",
        "hotspot (x P)",
        "required link BW",
        "line-rate fraction @750GB/s",
    ]);
    for row in iohotspot::hotspot_sweep(&[3, 4, 5, 6, 8, 12, 16], 128e9, 750e9) {
        t.row(vec![
            row.cols.to_string(),
            format!("{}", row.multiplier),
            fmt_bw(row.required_bw),
            format!("{:.2}", row.linerate_fraction),
        ]);
    }
    t.print("Fig 4 — closed-form hotspot law ((2N-1)·P, 128 GB/s channels)");
    // The 5x4 baseline needs (2·5 − 1) · 128 GB/s links (paper: 1152).
    opts.metric(
        "baseline_required_link_bw_gbps",
        iohotspot::required_link_bw(5, 128e9) / 1e9,
    );

    // 2. Empirical tree loads on concrete meshes.
    let mut t = Table::new(vec![
        "mesh",
        "max simultaneous channel load",
        "closed form 2N-1",
    ]);
    for (c, r) in [(4usize, 4usize), (5, 4), (6, 6), (8, 8)] {
        let mesh = MeshFabric::new(c, r, 750e9, 128e9, 20e-9);
        t.row(vec![
            format!("{c}x{r}"),
            streaming::hotspot_factor(&mesh).to_string(),
            (2 * c.max(r) - 1).to_string(),
        ]);
    }
    t.print("Fig 4(B) — empirical per-link loads of the broadcast trees");

    // 3. Simulated concurrent streaming on the paper baseline.
    let mesh = MeshFabric::paper_baseline();
    opts.name_links(&mesh.clone_topology());
    let mut net = FlowNetwork::with_sink(mesh.clone_topology(), opts.sink());
    let bytes = 128e9; // one second at channel line rate
    for io in 0..mesh.io_count() {
        for (route, bytes) in streaming::streaming_in_flows(&mesh, io, bytes) {
            net.inject(FlowSpec::new(route, bytes))
                .expect("streaming flows route on a healthy mesh");
        }
    }
    let done = net.run_to_completion();
    let t_end = done
        .iter()
        .map(|c| c.completed_at.as_secs())
        .fold(0.0, f64::max);
    opts.metric("baseline_line_rate_fraction", 1.0 / t_end);
    println!(
        "\nsimulated 18-channel concurrent streaming on the 5x4 baseline: \
         line-rate fraction {:.3} (paper: 750/1152 = 0.651)",
        1.0 / t_end
    );
    opts.finish();
}
