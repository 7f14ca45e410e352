//! §8.3 — going beyond a single wafer: the hierarchical global
//! All-Reduce (intra-wafer Reduce-Scatter → inter-wafer All-Reduce over
//! boundary NPUs → intra-wafer All-Gather) across a small FRED cluster.
//!
//! Run with: `cargo run --release --example multiwafer`

use fred::core::multiwafer::MultiWafer;
use fred::sim::flow::{FlowSpec, Priority};
use fred::sim::netsim::FlowNetwork;

fn main() {
    let d = 10e9; // 10 GB gradient all-reduce
    println!("global All-Reduce of 10 GB across FRED wafers (4 boundary channels/wafer)\n");
    println!(
        "{:<8} {:<24} {:<16} {:<16}",
        "wafers", "inter-wafer BW/channel", "time (ms)", "eff. NPU BW"
    );
    for wafers in [2usize, 4] {
        for inter_bw in [128e9, 512e9, 2e12] {
            let mw = MultiWafer::new(wafers, inter_bw);
            let mut net = FlowNetwork::new(mw.clone_topology());
            let flows = mw
                .global_all_reduce(d)
                .into_iter()
                .map(|(route, bytes)| FlowSpec::new(route, bytes).with_priority(Priority::Dp));
            net.inject_batch(&mut flows.collect())
                .expect("multiwafer routes are valid on a healthy fabric");
            let done = net.run_to_completion();
            let t = done
                .iter()
                .map(|c| c.completed_at.as_secs())
                .fold(0.0, f64::max);
            println!(
                "{:<8} {:<24} {:<16.3} {:<16.2}",
                wafers,
                format!("{:.0} GB/s", inter_bw / 1e9),
                t * 1e3,
                d / t / 1e12
            );
        }
    }
    println!(
        "\nEvery NPU link still carries exactly D bytes (the in-network property \
         survives the wafer hierarchy); the inter-wafer channels set the ceiling."
    );
}
