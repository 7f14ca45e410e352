//! Weight-streaming broadcast/reduce trees on the mesh (Fig 4, §3.2.1).
//!
//! When a weight shard enters from an I/O channel it must reach every
//! NPU (pure-DP weight streaming; Fig 4A). The MPI-style one-to-many
//! pattern on a mesh streams along the channel's facing dimension
//! first, then fans out along the perpendicular dimension from every
//! node on that line. Because a stream occupies *every edge of its
//! tree* simultaneously (packets are pipelined), the per-link load when
//! all `2(cols+rows)` channels stream at rate `P` reaches `(2N−1)P` on
//! an N-wide mesh (Fig 4B) — the hotspot that caps streaming at a
//! fraction of line rate (§8.2: 750/1152 ≈ 0.65 for the baseline).
//!
//! The reverse trees sum weight gradients back out to the channels
//! (Fig 4 caption).

use fred_sim::topology::{LinkId, Route};

use crate::topology::{IoSide, MeshFabric};

/// The directed mesh edges of I/O channel `io`'s broadcast tree
/// (entry NPU excluded — I/O and external links are added by
/// [`streaming_in_flows`]).
///
/// Left/right channels stream along their row first, then every row
/// node fans out along its column; top/bottom channels stream along
/// their column first, then fan out along rows.
pub fn broadcast_tree_links(mesh: &MeshFabric, io: usize) -> Vec<LinkId> {
    const EAST: usize = 0;
    const WEST: usize = 1;
    const SOUTH: usize = 2;
    const NORTH: usize = 3;
    let ch = mesh.channels()[io];
    let entry = mesh.io_entry_npu(io);
    let (ex, ey) = mesh.coords(entry);
    let mut links = Vec::new();

    let walk = |mut x: usize, mut y: usize, dir: usize, links: &mut Vec<LinkId>| loop {
        let id = mesh.npu_at(x, y);
        match mesh.neighbor_link(id, dir) {
            Some(l) => {
                links.push(l);
                match dir {
                    EAST => x += 1,
                    WEST => x -= 1,
                    SOUTH => y += 1,
                    NORTH => y -= 1,
                    _ => unreachable!(),
                }
            }
            None => break,
        }
    };

    match ch.side {
        IoSide::Left | IoSide::Right => {
            // Primary: the row, away from the entry edge.
            let dir = if ch.side == IoSide::Left { EAST } else { WEST };
            walk(ex, ey, dir, &mut links);
            // Secondary: every row node fans out along its column.
            for x in 0..mesh.cols() {
                walk(x, ey, SOUTH, &mut links);
                walk(x, ey, NORTH, &mut links);
            }
        }
        IoSide::Top | IoSide::Bottom => {
            let dir = if ch.side == IoSide::Top { SOUTH } else { NORTH };
            walk(ex, ey, dir, &mut links);
            for y in 0..mesh.rows() {
                walk(ex, y, EAST, &mut links);
                walk(ex, y, WEST, &mut links);
            }
        }
    }
    links
}

/// Concurrent `(route, bytes)` legs modelling channel `io` streaming
/// `bytes` onto the wafer and broadcasting to all NPUs: first the
/// external-memory→entry-NPU leg, then one leg per tree edge — each
/// carrying the full `bytes` (pipelined stream).
pub fn streaming_in_flows(mesh: &MeshFabric, io: usize, bytes: f64) -> Vec<(Route, f64)> {
    let ingress = mesh.ext_to_npu_route(io, mesh.io_entry_npu(io));
    let tree = broadcast_tree_links(mesh, io).into_iter().map(|l| vec![l]);
    std::iter::once(ingress)
        .chain(tree)
        .map(|route| (route, bytes))
        .collect()
}

/// Concurrent legs modelling the reverse direction: weight gradients
/// reduced over the same tree (edges reversed) and written out through
/// channel `io` to external memory by the last leg.
pub fn streaming_out_flows(mesh: &MeshFabric, io: usize, bytes: f64) -> Vec<(Route, f64)> {
    let topo = mesh.topology();
    let mut legs: Vec<(Route, f64)> = broadcast_tree_links(mesh, io)
        .into_iter()
        .map(|l| {
            let link = topo.link(l);
            let rev = topo
                .find_link(link.dst, link.src)
                .expect("mesh links are duplex");
            (vec![rev], bytes)
        })
        .collect();
    legs.push((mesh.npu_to_ext_route(mesh.io_entry_npu(io), io), bytes));
    legs
}

/// Static per-link load multipliers when *every* channel streams at
/// rate `P` simultaneously: `load[l]` = number of broadcast trees using
/// directed link `l`. The maximum is the Fig 4B hotspot factor
/// (`2N − 1` for an N-column mesh).
pub fn simultaneous_channel_loads(mesh: &MeshFabric) -> Vec<usize> {
    let mut loads = vec![0usize; mesh.topology().link_count()];
    for io in 0..mesh.io_count() {
        for l in broadcast_tree_links(mesh, io) {
            loads[l.0] += 1;
        }
    }
    loads
}

/// The hotspot factor: max of [`simultaneous_channel_loads`].
pub fn hotspot_factor(mesh: &MeshFabric) -> usize {
    simultaneous_channel_loads(mesh)
        .into_iter()
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_sim::flow::FlowSpec;
    use fred_sim::netsim::FlowNetwork;
    use std::collections::BTreeSet;

    #[test]
    fn tree_reaches_every_npu_exactly_once() {
        let m = MeshFabric::paper_baseline();
        for io in 0..m.io_count() {
            let links = broadcast_tree_links(&m, io);
            // A spanning tree of 20 nodes rooted at the entry has 19 edges.
            assert_eq!(links.len(), 19, "io {io}");
            let mut reached = BTreeSet::from([m.io_entry_npu(io)]);
            for l in &links {
                let link = m.topology().link(*l);
                let npu = m.npu_index(link.dst).expect("tree edges end at NPUs");
                assert!(
                    reached.insert(npu) || npu == m.io_entry_npu(io),
                    "npu {npu} reached twice"
                );
            }
            assert_eq!(reached.len(), 20, "io {io} tree does not span");
        }
    }

    #[test]
    fn hotspot_factor_matches_2n_minus_1_law() {
        // Square meshes with 4N channels: hotspot = 2N - 1 (Fig 4B).
        for n in [3usize, 4, 5] {
            let m = MeshFabric::new(n, n, 1e9, 1e8, 0.0);
            assert_eq!(hotspot_factor(&m), 2 * n - 1, "N={n}");
        }
        // The 5×4 baseline: 2*5 - 1 = 9 (columns dominate).
        let m = MeshFabric::paper_baseline();
        assert_eq!(hotspot_factor(&m), 9);
    }

    #[test]
    fn simultaneous_streaming_throttles_to_65_percent() {
        // §8.2 GPT-3 analysis: all 18 channels streaming concurrently
        // achieve 750/1152 = 0.65x of the 128 GBps line rate.
        let m = MeshFabric::paper_baseline();
        let mut net = FlowNetwork::new(m.clone_topology());
        let bytes = 128e9; // 1 second at line rate
        for io in 0..m.io_count() {
            for (route, bytes) in streaming_in_flows(&m, io, bytes) {
                net.inject(FlowSpec::new(route, bytes)).unwrap();
            }
        }
        let done = net.run_to_completion();
        let t = done.iter().map(|c| c.completed_at).max().unwrap().as_secs();
        let achieved_fraction = 1.0 / t;
        let predicted = fred_hwmodel::iohotspot::achievable_channel_rate(5, 128e9, 750e9) / 128e9;
        assert!(
            (achieved_fraction - predicted).abs() / predicted < 0.05,
            "simulated fraction {achieved_fraction:.3} vs predicted {predicted:.3}"
        );
    }

    #[test]
    fn single_stream_runs_at_line_rate() {
        let m = MeshFabric::paper_baseline();
        let mut net = FlowNetwork::new(m.clone_topology());
        for (route, bytes) in streaming_in_flows(&m, 0, 128e9) {
            net.inject(FlowSpec::new(route, bytes)).unwrap();
        }
        let done = net.run_to_completion();
        let t = done.iter().map(|c| c.completed_at).max().unwrap().as_secs();
        // One stream is bottlenecked only by its own 128 GBps channel.
        assert!((t - 1.0).abs() < 0.01, "t = {t}");
    }

    #[test]
    fn out_flows_mirror_in_flows() {
        let m = MeshFabric::paper_baseline();
        let inn = streaming_in_flows(&m, 5, 1e9);
        let out = streaming_out_flows(&m, 5, 1e9);
        assert_eq!(inn.len(), out.len());
        for (route, _) in inn.iter().chain(&out) {
            m.topology().validate_route(route).unwrap();
        }
    }
}
