//! Beyond a single wafer (§8.3 discussion).
//!
//! When a model needs more than one wafer, the paper sketches a
//! hierarchical scheme: a global All-Reduce decomposes into
//!
//! 1. a special **intra-wafer Reduce-Scatter** performed by FRED where
//!    only the boundary NPUs (those with I/O access) hold the results,
//! 2. an **inter-wafer All-Reduce** over those boundary NPUs across
//!    wafers, and
//! 3. a final **intra-wafer All-Gather** broadcasting the result to
//!    every NPU on each wafer.
//!
//! This module builds a multi-wafer topology (each wafer a Fred-D
//! [`WaferFabric`], wafers joined by inter-wafer links between their
//! I/O controllers) and compiles the three-step global All-Reduce into
//! per-link `(route, bytes)` legs for the simulator.

use std::rc::Rc;

use fred_sim::topology::{LinkId, NodeId, NodeKind, Route, Topology};

use crate::fabric::WaferFabric;
use crate::params::{FabricConfig, PhysicalParams};

/// Boundary aggregation points per wafer (bonded groups of I/O
/// controllers), each with its own inter-wafer ring.
const BOUNDARY: usize = 4;

/// A cluster of Fred-D wafers joined by inter-wafer links.
#[derive(Debug, Clone)]
pub struct MultiWafer {
    /// Built once and shared, like [`WaferFabric`]'s.
    topo: Rc<Topology>,
    wafers: usize,
    npus_per_wafer: usize,
    /// `npu[(w, i)]` node ids, wafer-major.
    npus: Vec<NodeId>,
    npu_up: Vec<LinkId>,
    npu_down: Vec<LinkId>,
    l1_up: Vec<LinkId>,
    l1_down: Vec<LinkId>,
    l1_count_per_wafer: usize,
    /// Inter-wafer ring links between boundary aggregation points:
    /// `ring[(w, b)]` connects wafer w's boundary b to wafer w+1's.
    ring_fwd: Vec<LinkId>,
    ring_rev: Vec<LinkId>,
}

impl MultiWafer {
    /// Builds `wafers` copies of the 20-NPU Fred-D wafer, joined by an
    /// inter-wafer ring of `inter_bw` bytes/s per boundary channel.
    /// Each wafer exposes four boundary aggregation points (bonded
    /// groups of I/O controllers).
    ///
    /// # Panics
    ///
    /// Panics if `wafers < 2`.
    pub fn new(wafers: usize, inter_bw: f64) -> MultiWafer {
        assert!(wafers >= 2, "a multi-wafer system needs at least 2 wafers");
        let config = FabricConfig::FredD;
        let params = PhysicalParams::paper();
        let single = WaferFabric::new(config, &params);
        let npus_per_wafer = single.npu_count();
        let l1_count = single.l1_count();
        let lat = params.link_latency;

        let mut topo = Topology::new();
        let mut npus = Vec::new();
        let mut npu_up = Vec::new();
        let mut npu_down = Vec::new();
        let mut l1_up = Vec::new();
        let mut l1_down = Vec::new();
        let mut boundary_nodes = Vec::new();

        for w in 0..wafers {
            let l1s: Vec<NodeId> = (0..l1_count)
                .map(|i| topo.add_node(NodeKind::SwitchL1, format!("w{w}.l1.{i}")))
                .collect();
            let l2 = topo.add_node(NodeKind::SwitchL2, format!("w{w}.l2"));
            for i in 0..npus_per_wafer {
                let npu = topo.add_node(NodeKind::Npu, format!("w{w}.npu{i}"));
                let l1 = i / (npus_per_wafer / l1_count);
                let (up, down) = topo.add_duplex_link(npu, l1s[l1], params.npu_bw, lat);
                npus.push(npu);
                npu_up.push(up);
                npu_down.push(down);
            }
            for &l1 in &l1s {
                let (up, down) = topo.add_duplex_link(l1, l2, config.l1_l2_bw(), lat);
                l1_up.push(up);
                l1_down.push(down);
            }
            // Boundary aggregation points hang off L1 switches
            // round-robin, at the inter-wafer channel bandwidth.
            for b in 0..BOUNDARY {
                let node = topo.add_node(NodeKind::IoController, format!("w{w}.boundary{b}"));
                let l1 = l1s[b % l1_count];
                topo.add_duplex_link(node, l1, inter_bw, lat);
                boundary_nodes.push(node);
            }
        }

        // Inter-wafer ring per boundary channel.
        let mut ring_fwd = Vec::new();
        let mut ring_rev = Vec::new();
        for w in 0..wafers {
            for b in 0..BOUNDARY {
                let here = boundary_nodes[w * BOUNDARY + b];
                let there = boundary_nodes[((w + 1) % wafers) * BOUNDARY + b];
                let (f, r) = topo.add_duplex_link(here, there, inter_bw, 10.0 * lat);
                ring_fwd.push(f);
                ring_rev.push(r);
            }
        }

        MultiWafer {
            topo: Rc::new(topo),
            wafers,
            npus_per_wafer,
            npus,
            npu_up,
            npu_down,
            l1_up,
            l1_down,
            l1_count_per_wafer: l1_count,
            ring_fwd,
            ring_rev,
        }
    }

    /// The composed topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The shared topology for a simulator to hold: a pointer clone,
    /// never a copy.
    pub fn clone_topology(&self) -> Rc<Topology> {
        Rc::clone(&self.topo)
    }

    /// Number of wafers.
    pub fn wafers(&self) -> usize {
        self.wafers
    }

    /// NPUs per wafer.
    pub fn npus_per_wafer(&self) -> usize {
        self.npus_per_wafer
    }

    /// Node id of NPU `i` on wafer `w`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn npu(&self, w: usize, i: usize) -> NodeId {
        assert!(w < self.wafers && i < self.npus_per_wafer);
        self.npus[w * self.npus_per_wafer + i]
    }

    /// Compiles the §8.3 three-step global All-Reduce of `bytes` over
    /// every NPU of every wafer into concurrent legs (pipelined,
    /// in-network on each wafer):
    ///
    /// 1. intra-wafer Reduce-Scatter toward the boundary: every NPU
    ///    pushes `bytes` up; each boundary point ends with a
    ///    `bytes / 4` shard of the wafer-reduced data;
    /// 2. inter-wafer ring All-Reduce of each shard across wafers
    ///    (`2(W−1)/W` of the shard per boundary link);
    /// 3. intra-wafer All-Gather: `bytes` broadcast back down to every
    ///    NPU.
    pub fn global_all_reduce(&self, bytes: f64) -> Vec<(Route, f64)> {
        let mut legs = Vec::new();
        let shard = bytes / BOUNDARY as f64;
        let w_traffic = 2.0 * (self.wafers as f64 - 1.0) / self.wafers as f64;
        for w in 0..self.wafers {
            for i in 0..self.npus_per_wafer {
                let g = w * self.npus_per_wafer + i;
                // Step 1 up + step 3 down on every NPU link.
                legs.push((vec![self.npu_up[g]], bytes));
                legs.push((vec![self.npu_down[g]], bytes));
            }
            for l in 0..self.l1_count_per_wafer {
                let g = w * self.l1_count_per_wafer + l;
                // Partial sums converge over L2 (step 1) and the result
                // fans back out (step 3).
                legs.push((vec![self.l1_up[g]], bytes));
                legs.push((vec![self.l1_down[g]], bytes));
            }
            // Step 2: ring All-Reduce of each boundary shard.
            for b in 0..BOUNDARY {
                let g = w * BOUNDARY + b;
                legs.push((vec![self.ring_fwd[g]], shard * w_traffic / 2.0));
                legs.push((vec![self.ring_rev[g]], shard * w_traffic / 2.0));
            }
        }
        legs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_sim::flow::FlowSpec;
    use fred_sim::netsim::FlowNetwork;

    fn cluster(wafers: usize) -> MultiWafer {
        MultiWafer::new(wafers, 256e9)
    }

    #[test]
    fn builds_expected_shape() {
        let mw = cluster(3);
        assert_eq!(mw.wafers(), 3);
        assert_eq!(mw.npus_per_wafer(), 20);
        // Nodes: per wafer 5 L1 + 1 L2 + 20 NPU + 4 boundary = 30.
        assert_eq!(mw.topology().node_count(), 90);
    }

    #[test]
    fn global_allreduce_routes_validate() {
        let mw = cluster(2);
        let legs = mw.global_all_reduce(1e9);
        for (route, _) in &legs {
            mw.topology().validate_route(route).unwrap();
        }
        // Per wafer: 40 NPU legs + 10 L1 legs + 8 ring legs.
        assert_eq!(legs.len(), 2 * (40 + 10 + 8));
    }

    #[test]
    fn inter_wafer_bandwidth_dominates_completion() {
        // With skinny inter-wafer channels the global AR is bound by
        // step 2; with fat channels it is bound by the on-wafer 3 TBps.
        let d = 10e9;
        let time_with = |inter_bw: f64| {
            let mw = MultiWafer::new(2, inter_bw);
            let mut net = FlowNetwork::new(mw.clone_topology());
            let legs = mw.global_all_reduce(d);
            net.inject_batch(&mut legs.into_iter().map(|(r, b)| FlowSpec::new(r, b)).collect())
                .unwrap();
            let done = net.run_to_completion();
            done.iter()
                .map(|c| c.completed_at.as_secs())
                .fold(0.0, f64::max)
        };
        let skinny = time_with(64e9);
        let fat = time_with(10e12);
        assert!(skinny > fat * 2.0, "skinny {skinny} vs fat {fat}");
        // Fat channels: bound by npu links at D / 3 TBps.
        assert!((fat - d / 3e12).abs() / (d / 3e12) < 0.2, "fat {fat}");
        // Skinny: bound by the shard ring on 64 GB/s channels.
        let shard = d / 4.0;
        let expected = shard * 0.5 / 64e9; // 2(W-1)/W / 2 per direction
        assert!(
            (skinny - expected).abs() / expected < 0.2,
            "skinny {skinny} vs {expected}"
        );
    }

    #[test]
    fn scaling_wafers_keeps_on_wafer_traffic_constant() {
        let d = 1e9;
        for w in [2usize, 3, 4] {
            let mw = cluster(w);
            let legs = mw.global_all_reduce(d);
            // Every NPU link still carries exactly D (in-network
            // property preserved across the hierarchy).
            let npu_legs: Vec<_> = legs
                .iter()
                .filter(|(route, _)| {
                    let link = mw.topology().link(route[0]);
                    mw.topology().node(link.src).kind == NodeKind::Npu
                })
                .collect();
            assert_eq!(npu_legs.len(), mw.wafers() * mw.npus_per_wafer());
            assert!(npu_legs.iter().all(|(_, bytes)| *bytes == d));
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_wafer_rejected() {
        let _ = cluster(1);
    }
}
