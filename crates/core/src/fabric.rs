//! The hierarchical wafer-scale FRED fabric (Fig 8, §6.1–§6.2).
//!
//! [`WaferFabric`] instantiates the paper's 2-level (almost) fat-tree:
//! NPUs and I/O controllers hang off L1 (leaf) FRED switches; L1
//! switches connect to a logical L2 (spine) layer. The physical chiplet
//! decomposition of each logical switch (Fig 8b / Table 4) is handled by
//! the area/power model in `fred-hwmodel`; for performance simulation
//! the logical tree is the right granularity, because a FRED switch is
//! internally nonblocking for conflict-free flow sets (proved by
//! [`crate::routing`]) — contention only occurs on the external
//! NPU–L1, L1–L2 and I/O links.
//!
//! The module also compiles *in-network* collectives into flow sets for
//! the flow-level simulator: with in-switch reduction/distribution, an
//! All-Reduce of D bytes puts exactly D bytes on every tree link it
//! touches (§2.2), half the endpoint-based traffic.

use fred_sim::flow::{FlowSpec, Priority};
use fred_sim::topology::{LinkId, NodeId, NodeKind, Route, Topology};

use crate::params::{FabricConfig, PhysicalParams, NPUS_PER_L1};

/// The wafer-scale FRED fabric instance.
///
/// ```
/// use fred_core::fabric::WaferFabric;
/// use fred_core::params::{FabricConfig, PhysicalParams};
///
/// let fabric = WaferFabric::new(FabricConfig::FredD, &PhysicalParams::paper());
/// assert_eq!(fabric.npu_count(), 20);
/// assert_eq!(fabric.bisection_bw(), 30e12); // Table 5
/// // Same-L1 NPUs are two hops apart; cross-L1 four.
/// assert_eq!(fabric.npu_route(0, 3).len(), 2);
/// assert_eq!(fabric.npu_route(0, 19).len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct WaferFabric {
    topo: Topology,
    config: FabricConfig,
    npus: Vec<NodeId>,
    l1s: Vec<NodeId>,
    l2: NodeId,
    ios: Vec<NodeId>,
    ext: NodeId,
    /// Index of the L1 switch each NPU attaches to.
    l1_of_npu: Vec<usize>,
    /// Index of the L1 switch each I/O controller attaches to.
    l1_of_io: Vec<usize>,
    // Link tables (duplex pairs).
    npu_up: Vec<LinkId>,
    npu_down: Vec<LinkId>,
    l1_up: Vec<LinkId>,
    l1_down: Vec<LinkId>,
    io_up: Vec<LinkId>,
    io_down: Vec<LinkId>,
    ext_to_io: Vec<LinkId>,
    io_to_ext: Vec<LinkId>,
}

impl WaferFabric {
    /// Builds the paper's 20-NPU / 18-I/O instance for a FRED
    /// configuration from Table 5.
    ///
    /// # Panics
    ///
    /// Panics if `config` is [`FabricConfig::BaselineMesh`] (built by
    /// the `fred-mesh` crate instead).
    pub fn new(config: FabricConfig, params: &PhysicalParams) -> WaferFabric {
        assert!(
            config.is_fred(),
            "the baseline mesh is built by fred-mesh, not WaferFabric"
        );
        Self::with_shape(
            config,
            params,
            params.npu_count,
            NPUS_PER_L1,
            params.io_count,
        )
    }

    /// Builds a fabric with an explicit shape (used by scaling sweeps
    /// and tests). `npus_per_l1` NPUs attach to each L1; I/O controllers
    /// are distributed round-robin-at-the-end across L1 switches as
    /// evenly as possible.
    ///
    /// # Panics
    ///
    /// Panics if `npu_count` is not a multiple of `npus_per_l1`, or if
    /// `config` is the baseline mesh.
    pub fn with_shape(
        config: FabricConfig,
        params: &PhysicalParams,
        npu_count: usize,
        npus_per_l1: usize,
        io_count: usize,
    ) -> WaferFabric {
        assert!(config.is_fred());
        assert!(
            npus_per_l1 > 0 && npu_count.is_multiple_of(npus_per_l1),
            "npu_count {npu_count} must be a multiple of npus_per_l1 {npus_per_l1}"
        );
        let l1_count = npu_count / npus_per_l1;
        let lat = params.link_latency;

        let mut topo = Topology::new();
        let npus: Vec<NodeId> = (0..npu_count)
            .map(|i| topo.add_node(NodeKind::Npu, format!("npu{i}")))
            .collect();
        let l1s: Vec<NodeId> = (0..l1_count)
            .map(|i| topo.add_node(NodeKind::SwitchL1, format!("l1.{i}")))
            .collect();
        let l2 = topo.add_node(NodeKind::SwitchL2, "l2");
        let ios: Vec<NodeId> = (0..io_count)
            .map(|i| topo.add_node(NodeKind::IoController, format!("io{i}")))
            .collect();
        let ext = topo.add_node(NodeKind::ExternalMemory, "ext");

        let mut npu_up = Vec::new();
        let mut npu_down = Vec::new();
        let mut l1_of_npu = Vec::new();
        for (i, &npu) in npus.iter().enumerate() {
            let l1 = i / npus_per_l1;
            l1_of_npu.push(l1);
            let (up, down) = topo.add_duplex_link(npu, l1s[l1], params.npu_bw, lat);
            npu_up.push(up);
            npu_down.push(down);
        }

        let mut l1_up = Vec::new();
        let mut l1_down = Vec::new();
        for &l1 in &l1s {
            let (up, down) = topo.add_duplex_link(l1, l2, config.l1_l2_bw(), lat);
            l1_up.push(up);
            l1_down.push(down);
        }

        let mut io_up = Vec::new();
        let mut io_down = Vec::new();
        let mut ext_to_io = Vec::new();
        let mut io_to_ext = Vec::new();
        let mut l1_of_io = Vec::new();
        for (i, &io) in ios.iter().enumerate() {
            let l1 = if l1_count == 0 { 0 } else { i % l1_count };
            l1_of_io.push(l1);
            let (up, down) = topo.add_duplex_link(io, l1s[l1], params.io_bw, lat);
            io_up.push(up);
            io_down.push(down);
            let (e2i, i2e) = topo.add_duplex_link(ext, io, params.io_bw, lat);
            ext_to_io.push(e2i);
            io_to_ext.push(i2e);
        }

        WaferFabric {
            topo,
            config,
            npus,
            l1s,
            l2,
            ios,
            ext,
            l1_of_npu,
            l1_of_io,
            npu_up,
            npu_down,
            l1_up,
            l1_down,
            io_up,
            io_down,
            ext_to_io,
            io_to_ext,
        }
    }

    /// The underlying topology (pass to
    /// [`fred_sim::netsim::FlowNetwork::new`]).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Clones the topology out (the simulator takes ownership).
    pub fn clone_topology(&self) -> Topology {
        self.topo.clone()
    }

    /// The configuration this fabric was built for.
    pub fn config(&self) -> FabricConfig {
        self.config
    }

    /// Number of NPUs.
    pub fn npu_count(&self) -> usize {
        self.npus.len()
    }

    /// Number of I/O controllers.
    pub fn io_count(&self) -> usize {
        self.ios.len()
    }

    /// Number of L1 switches.
    pub fn l1_count(&self) -> usize {
        self.l1s.len()
    }

    /// Node id of NPU `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn npu(&self, i: usize) -> NodeId {
        self.npus[i]
    }

    /// The NPU index whose node id is `node`, or `None` if `node` is
    /// not an NPU. O(1): NPUs are created first, so their node ids are
    /// contiguous from the first NPU's.
    pub fn npu_index(&self, node: NodeId) -> Option<usize> {
        let base = self.npus.first()?.0;
        let i = node.0.checked_sub(base)?;
        (i < self.npus.len() && self.npus[i] == node).then_some(i)
    }

    /// Node id of I/O controller `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn io(&self, i: usize) -> NodeId {
        self.ios[i]
    }

    /// The external-memory node.
    pub fn external_memory(&self) -> NodeId {
        self.ext
    }

    /// The logical L2 spine node.
    pub fn l2(&self) -> NodeId {
        self.l2
    }

    /// Node id of L1 switch `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn l1(&self, i: usize) -> NodeId {
        self.l1s[i]
    }

    /// Index of the L1 switch NPU `i` attaches to.
    pub fn l1_of_npu(&self, i: usize) -> usize {
        self.l1_of_npu[i]
    }

    /// NPU indices attached to L1 switch `l1`.
    pub fn npus_of_l1(&self, l1: usize) -> Vec<usize> {
        (0..self.npus.len())
            .filter(|&i| self.l1_of_npu[i] == l1)
            .collect()
    }

    /// Partitions a group of NPU indices by their L1 switch, preserving
    /// order within each part. Used by hierarchical collectives.
    pub fn partition_by_l1(&self, group: &[usize]) -> Vec<Vec<usize>> {
        let mut parts: Vec<Vec<usize>> = vec![Vec::new(); self.l1s.len()];
        for &n in group {
            parts[self.l1_of_npu[n]].push(n);
        }
        parts.retain(|p| !p.is_empty());
        parts
    }

    /// Route between two NPUs: up to the common L1, or over the L2 spine.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range; returns an empty route if
    /// `a == b`.
    pub fn npu_route(&self, a: usize, b: usize) -> Route {
        if a == b {
            return Vec::new();
        }
        let (la, lb) = (self.l1_of_npu[a], self.l1_of_npu[b]);
        if la == lb {
            vec![self.npu_up[a], self.npu_down[b]]
        } else {
            vec![
                self.npu_up[a],
                self.l1_up[la],
                self.l1_down[lb],
                self.npu_down[b],
            ]
        }
    }

    /// Fault-aware variant of [`WaferFabric::npu_route`]: returns the
    /// standard up/down tree route when it crosses no blocked link,
    /// otherwise the shortest surviving path. In the 2-level tree the
    /// only redundancy around a dead L1–L2 trunk runs through a
    /// neighbouring L1 switch's I/O controllers and the external-memory
    /// hub, so detours are longer but keep the pair connected. Returns
    /// `None` when the blocked set cuts `a` from `b` (e.g. a dead
    /// NPU–L1 link, the NPU's only attachment).
    pub fn npu_route_avoiding(
        &self,
        a: usize,
        b: usize,
        blocked: impl Fn(LinkId) -> bool,
    ) -> Option<Route> {
        let standard = self.npu_route(a, b);
        if !standard.iter().any(|&l| blocked(l)) {
            return Some(standard);
        }
        self.topo
            .shortest_path_avoiding(self.npus[a], self.npus[b], blocked)
    }

    /// Route from I/O controller `io` to NPU `npu`.
    pub fn io_to_npu_route(&self, io: usize, npu: usize) -> Route {
        let (li, ln) = (self.l1_of_io[io], self.l1_of_npu[npu]);
        if li == ln {
            vec![self.io_up[io], self.npu_down[npu]]
        } else {
            vec![
                self.io_up[io],
                self.l1_up[li],
                self.l1_down[ln],
                self.npu_down[npu],
            ]
        }
    }

    /// Route from NPU `npu` to I/O controller `io`.
    pub fn npu_to_io_route(&self, npu: usize, io: usize) -> Route {
        let (ln, li) = (self.l1_of_npu[npu], self.l1_of_io[io]);
        if ln == li {
            vec![self.npu_up[npu], self.io_down[io]]
        } else {
            vec![
                self.npu_up[npu],
                self.l1_up[ln],
                self.l1_down[li],
                self.io_down[io],
            ]
        }
    }

    /// Route from external memory through `io` to `npu` (weight
    /// streaming ingress).
    pub fn ext_to_npu_route(&self, io: usize, npu: usize) -> Route {
        let mut r = vec![self.ext_to_io[io]];
        r.extend(self.io_to_npu_route(io, npu));
        r
    }

    /// Route from `npu` through `io` to external memory (gradient
    /// streaming egress).
    pub fn npu_to_ext_route(&self, npu: usize, io: usize) -> Route {
        let mut r = self.npu_to_io_route(npu, io);
        r.push(self.io_to_ext[io]);
        r
    }

    /// Compiles an **in-network All-Reduce** among the NPU indices in
    /// `group` into concurrent flows: each member pushes `bytes` up into
    /// its L1 switch (reduced in-switch), partial sums cross the L1–L2
    /// links once when the group spans switches, and the result is
    /// broadcast back down — exactly D bytes on every touched link
    /// (§2.2, §6.1).
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty or contains an out-of-range index.
    pub fn in_network_all_reduce(
        &self,
        group: &[usize],
        bytes: f64,
        priority: Priority,
        tag: u64,
    ) -> Vec<FlowSpec> {
        assert!(!group.is_empty(), "all-reduce group must not be empty");
        let mut flows = Vec::new();
        if group.len() == 1 {
            return flows;
        }
        let parts = self.partition_by_l1(group);
        let spans_l2 = parts.len() > 1;
        for &n in group {
            // Up: NPU -> L1 (reduced in the L1 switch).
            flows.push(
                FlowSpec::new(vec![self.npu_up[n]], bytes)
                    .with_priority(priority)
                    .with_tag(tag),
            );
            // Down: L1 -> NPU (broadcast from the L1 switch).
            flows.push(
                FlowSpec::new(vec![self.npu_down[n]], bytes)
                    .with_priority(priority)
                    .with_tag(tag),
            );
        }
        if spans_l2 {
            for part in &parts {
                let l1 = self.l1_of_npu[part[0]];
                flows.push(
                    FlowSpec::new(vec![self.l1_up[l1]], bytes)
                        .with_priority(priority)
                        .with_tag(tag),
                );
                flows.push(
                    FlowSpec::new(vec![self.l1_down[l1]], bytes)
                        .with_priority(priority)
                        .with_tag(tag),
                );
            }
        }
        flows
    }

    /// Compiles an **in-network Reduce** of `bytes` from the NPUs in
    /// `group` to I/O controller `io` (weight-streaming gradient
    /// egress): D bytes up each NPU link, D across each touched L1–L2
    /// link, D down to the I/O controller and out to external memory.
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty.
    pub fn in_network_reduce_to_io(
        &self,
        group: &[usize],
        io: usize,
        bytes: f64,
        priority: Priority,
        tag: u64,
    ) -> Vec<FlowSpec> {
        assert!(!group.is_empty());
        let io_l1 = self.l1_of_io[io];
        let mut flows = Vec::new();
        for &n in group {
            flows.push(
                FlowSpec::new(vec![self.npu_up[n]], bytes)
                    .with_priority(priority)
                    .with_tag(tag),
            );
        }
        // Partial sums cross L1->L2 for every L1 that is not the I/O's
        // own, then L2->L1(io).
        let parts = self.partition_by_l1(group);
        let mut remote = false;
        for part in &parts {
            let l1 = self.l1_of_npu[part[0]];
            if l1 != io_l1 {
                remote = true;
                flows.push(
                    FlowSpec::new(vec![self.l1_up[l1]], bytes)
                        .with_priority(priority)
                        .with_tag(tag),
                );
            }
        }
        if remote {
            flows.push(
                FlowSpec::new(vec![self.l1_down[io_l1]], bytes)
                    .with_priority(priority)
                    .with_tag(tag),
            );
        }
        flows.push(
            FlowSpec::new(vec![self.io_down[io], self.io_to_ext[io]], bytes)
                .with_priority(priority)
                .with_tag(tag),
        );
        flows
    }

    /// Compiles an **in-network Multicast** of `bytes` from I/O
    /// controller `io` to the NPUs in `group` (weight-streaming
    /// ingress): the switches replicate, so each touched link carries
    /// exactly D bytes.
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty.
    pub fn in_network_multicast_from_io(
        &self,
        group: &[usize],
        io: usize,
        bytes: f64,
        priority: Priority,
        tag: u64,
    ) -> Vec<FlowSpec> {
        assert!(!group.is_empty());
        let io_l1 = self.l1_of_io[io];
        let mut flows = Vec::new();
        flows.push(
            FlowSpec::new(vec![self.ext_to_io[io], self.io_up[io]], bytes)
                .with_priority(priority)
                .with_tag(tag),
        );
        let parts = self.partition_by_l1(group);
        let mut remote = false;
        for part in &parts {
            let l1 = self.l1_of_npu[part[0]];
            if l1 != io_l1 {
                remote = true;
                flows.push(
                    FlowSpec::new(vec![self.l1_down[l1]], bytes)
                        .with_priority(priority)
                        .with_tag(tag),
                );
            }
        }
        if remote {
            flows.push(
                FlowSpec::new(vec![self.l1_up[io_l1]], bytes)
                    .with_priority(priority)
                    .with_tag(tag),
            );
        }
        for &n in group {
            flows.push(
                FlowSpec::new(vec![self.npu_down[n]], bytes)
                    .with_priority(priority)
                    .with_tag(tag),
            );
        }
        flows
    }

    /// Compiles an **in-network Reduce-Scatter** among `group`: every
    /// member pushes its full `bytes` up (reduced in-switch per shard),
    /// and each member receives only its `bytes / n` shard back down.
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty.
    pub fn in_network_reduce_scatter(
        &self,
        group: &[usize],
        bytes: f64,
        priority: Priority,
        tag: u64,
    ) -> Vec<FlowSpec> {
        assert!(!group.is_empty());
        let n = group.len() as f64;
        let mut flows = Vec::new();
        if group.len() == 1 {
            return flows;
        }
        let parts = self.partition_by_l1(group);
        for &m in group {
            flows.push(
                FlowSpec::new(vec![self.npu_up[m]], bytes)
                    .with_priority(priority)
                    .with_tag(tag),
            );
            flows.push(
                FlowSpec::new(vec![self.npu_down[m]], bytes / n)
                    .with_priority(priority)
                    .with_tag(tag),
            );
        }
        if parts.len() > 1 {
            for part in &parts {
                let l1 = self.l1_of_npu[part[0]];
                // Partial sums up (full payload), shards down.
                flows.push(
                    FlowSpec::new(vec![self.l1_up[l1]], bytes)
                        .with_priority(priority)
                        .with_tag(tag),
                );
                flows.push(
                    FlowSpec::new(vec![self.l1_down[l1]], bytes * part.len() as f64 / n)
                        .with_priority(priority)
                        .with_tag(tag),
                );
            }
        }
        flows
    }

    /// Compiles an **in-network All-Gather** among `group`: every member
    /// pushes only its `bytes / n` shard up, and the switches broadcast
    /// the concatenation (`bytes`) back down to every member.
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty.
    pub fn in_network_all_gather(
        &self,
        group: &[usize],
        bytes: f64,
        priority: Priority,
        tag: u64,
    ) -> Vec<FlowSpec> {
        assert!(!group.is_empty());
        let n = group.len() as f64;
        let mut flows = Vec::new();
        if group.len() == 1 {
            return flows;
        }
        let parts = self.partition_by_l1(group);
        for &m in group {
            flows.push(
                FlowSpec::new(vec![self.npu_up[m]], bytes / n)
                    .with_priority(priority)
                    .with_tag(tag),
            );
            flows.push(
                FlowSpec::new(vec![self.npu_down[m]], bytes)
                    .with_priority(priority)
                    .with_tag(tag),
            );
        }
        if parts.len() > 1 {
            for part in &parts {
                let l1 = self.l1_of_npu[part[0]];
                flows.push(
                    FlowSpec::new(vec![self.l1_up[l1]], bytes * part.len() as f64 / n)
                        .with_priority(priority)
                        .with_tag(tag),
                );
                flows.push(
                    FlowSpec::new(vec![self.l1_down[l1]], bytes)
                        .with_priority(priority)
                        .with_tag(tag),
                );
            }
        }
        flows
    }

    /// Compiles an **in-network Multicast** of `bytes` from NPU `src` to
    /// the NPUs in `dsts` (PP activation forwarding, §8.1): the switches
    /// replicate, so each touched link carries exactly `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `dsts` is empty.
    pub fn in_network_multicast_from_npu(
        &self,
        src: usize,
        dsts: &[usize],
        bytes: f64,
        priority: Priority,
        tag: u64,
    ) -> Vec<FlowSpec> {
        assert!(!dsts.is_empty());
        let src_l1 = self.l1_of_npu[src];
        let real_dsts: Vec<usize> = dsts.iter().copied().filter(|&d| d != src).collect();
        let mut flows = Vec::new();
        if real_dsts.is_empty() {
            return flows;
        }
        flows.push(
            FlowSpec::new(vec![self.npu_up[src]], bytes)
                .with_priority(priority)
                .with_tag(tag),
        );
        let parts = self.partition_by_l1(&real_dsts);
        let spans = parts.iter().any(|p| self.l1_of_npu[p[0]] != src_l1);
        if spans {
            flows.push(
                FlowSpec::new(vec![self.l1_up[src_l1]], bytes)
                    .with_priority(priority)
                    .with_tag(tag),
            );
            for part in &parts {
                let l1 = self.l1_of_npu[part[0]];
                if l1 != src_l1 {
                    flows.push(
                        FlowSpec::new(vec![self.l1_down[l1]], bytes)
                            .with_priority(priority)
                            .with_tag(tag),
                    );
                }
            }
        }
        for &d in &real_dsts {
            flows.push(
                FlowSpec::new(vec![self.npu_down[d]], bytes)
                    .with_priority(priority)
                    .with_tag(tag),
            );
        }
        flows
    }

    /// Bisection bandwidth of the tree (sum of L1–L2 capacities divided
    /// by two), bytes/s.
    pub fn bisection_bw(&self) -> f64 {
        let per_l1 = self.topo.link(self.l1_up[0]).bandwidth;
        per_l1 * self.l1s.len() as f64 / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{FabricConfig, PhysicalParams, TBPS};

    fn fabric(c: FabricConfig) -> WaferFabric {
        WaferFabric::new(c, &PhysicalParams::paper())
    }

    #[test]
    fn paper_instance_shape() {
        let f = fabric(FabricConfig::FredD);
        assert_eq!(f.npu_count(), 20);
        assert_eq!(f.l1_count(), 5);
        assert_eq!(f.io_count(), 18);
        assert_eq!(f.l1_of_npu(0), 0);
        assert_eq!(f.l1_of_npu(19), 4);
        assert_eq!(f.npus_of_l1(2), vec![8, 9, 10, 11]);
    }

    #[test]
    fn bisection_matches_table5() {
        assert_eq!(fabric(FabricConfig::FredA).bisection_bw(), 3.75e12);
        assert_eq!(fabric(FabricConfig::FredD).bisection_bw(), 30e12);
    }

    #[test]
    fn routes_are_valid_paths() {
        let f = fabric(FabricConfig::FredC);
        let topo = f.topology();
        // Same-L1 route: 2 hops.
        let r = f.npu_route(0, 3);
        assert_eq!(r.len(), 2);
        topo.validate_route(&r).unwrap();
        // Cross-L1 route: 4 hops.
        let r = f.npu_route(0, 19);
        assert_eq!(r.len(), 4);
        assert_eq!(
            topo.validate_route(&r).unwrap(),
            Some((f.npu(0), f.npu(19)))
        );
        // Self route is empty.
        assert!(f.npu_route(7, 7).is_empty());
    }

    #[test]
    fn npu_index_inverts_npu() {
        let f = fabric(FabricConfig::FredD);
        for i in 0..f.npu_count() {
            assert_eq!(f.npu_index(f.npu(i)), Some(i));
        }
        assert_eq!(f.npu_index(f.l1(0)), None);
        assert_eq!(f.npu_index(f.l2()), None);
        assert_eq!(f.npu_index(f.external_memory()), None);
    }

    #[test]
    fn route_avoiding_detours_around_dead_trunk() {
        let f = fabric(FabricConfig::FredD);
        let topo = f.topology();
        // Healthy fabric: identical to the standard route.
        assert_eq!(
            f.npu_route_avoiding(0, 19, |_| false),
            Some(f.npu_route(0, 19))
        );
        // Kill NPU 0's L1–L2 uplink: the detour must avoid it, still
        // connect the same endpoints, and be longer than the tree path.
        let dead = f.l1_up[f.l1_of_npu(0)];
        let detour = f.npu_route_avoiding(0, 19, |l| l == dead).unwrap();
        assert!(!detour.contains(&dead));
        assert_eq!(
            topo.validate_route(&detour).unwrap(),
            Some((f.npu(0), f.npu(19)))
        );
        assert!(detour.len() > f.npu_route(0, 19).len());
        // A dead NPU–L1 uplink is the NPU's only way out: unroutable.
        let only_exit = f.npu_up[0];
        assert_eq!(f.npu_route_avoiding(0, 19, |l| l == only_exit), None);
        // Same-L1 pairs detour over the spine when one leg's down-link
        // dies... but npu_down[b] is b's only way in, so instead kill a
        // trunk that the same-L1 route never touches: route unchanged.
        let r = f.npu_route_avoiding(0, 3, |l| l == dead).unwrap();
        assert_eq!(r, f.npu_route(0, 3));
    }

    #[test]
    fn io_and_ext_routes_are_valid() {
        let f = fabric(FabricConfig::FredD);
        let topo = f.topology();
        for io in 0..f.io_count() {
            for npu in [0usize, 7, 19] {
                let r = f.ext_to_npu_route(io, npu);
                let ends = topo.validate_route(&r).unwrap().unwrap();
                assert_eq!(ends, (f.external_memory(), f.npu(npu)));
                let r = f.npu_to_ext_route(npu, io);
                let ends = topo.validate_route(&r).unwrap().unwrap();
                assert_eq!(ends, (f.npu(npu), f.external_memory()));
            }
        }
    }

    #[test]
    fn in_network_all_reduce_puts_d_bytes_per_link() {
        let f = fabric(FabricConfig::FredD);
        let d = 1e9;
        // Wafer-wide group: every NPU link carries D up and D down; every
        // L1 carries D up and D down.
        let flows = f.in_network_all_reduce(&(0..20).collect::<Vec<_>>(), d, Priority::Dp, 0);
        // 20 up + 20 down + 5 l1-up + 5 l1-down.
        assert_eq!(flows.len(), 50);
        for fl in &flows {
            assert_eq!(fl.bytes, d);
            assert_eq!(fl.route.len(), 1);
        }
    }

    #[test]
    fn in_network_all_reduce_within_one_l1_skips_spine() {
        let f = fabric(FabricConfig::FredD);
        let flows = f.in_network_all_reduce(&[0, 1, 2, 3], 1e6, Priority::Mp, 0);
        // 4 up + 4 down, no L1-L2 flows.
        assert_eq!(flows.len(), 8);
        let l1_links: Vec<_> = flows
            .iter()
            .filter(|fl| {
                let link = f.topology().link(fl.route[0]);
                f.topology().node(link.src).kind.is_switch()
                    && f.topology().node(link.dst).kind.is_switch()
            })
            .collect();
        assert!(l1_links.is_empty());
    }

    #[test]
    fn singleton_all_reduce_is_free() {
        let f = fabric(FabricConfig::FredB);
        assert!(f
            .in_network_all_reduce(&[5], 1e9, Priority::Dp, 0)
            .is_empty());
    }

    #[test]
    fn reduce_to_io_touches_each_l1_once() {
        let f = fabric(FabricConfig::FredD);
        let group: Vec<usize> = (0..20).collect();
        let flows = f.in_network_reduce_to_io(&group, 0, 1e9, Priority::Bulk, 0);
        // 20 NPU-up + 4 remote L1-up + 1 L2->L1(io) + 1 io egress.
        assert_eq!(flows.len(), 26);
        for fl in &flows {
            f.topology().validate_route(&fl.route).unwrap();
        }
    }

    #[test]
    fn multicast_from_io_replicates_down() {
        let f = fabric(FabricConfig::FredD);
        let group: Vec<usize> = (0..20).collect();
        let flows = f.in_network_multicast_from_io(&group, 3, 1e9, Priority::Bulk, 7);
        // 1 ingress + 4 remote L1-down + 1 L1(io)-up + 20 NPU-down.
        assert_eq!(flows.len(), 26);
        assert!(flows.iter().all(|fl| fl.tag == 7));
    }

    #[test]
    fn partition_by_l1_groups_members() {
        let f = fabric(FabricConfig::FredC);
        let parts = f.partition_by_l1(&[0, 1, 4, 5, 19]);
        assert_eq!(parts, vec![vec![0, 1], vec![4, 5], vec![19]]);
    }

    #[test]
    fn l1_l2_bandwidth_follows_config() {
        let fa = fabric(FabricConfig::FredA);
        let fd = fabric(FabricConfig::FredD);
        let bw = |f: &WaferFabric| f.topology().link(f.l1_up[0]).bandwidth;
        assert_eq!(bw(&fa), 1.5 * TBPS);
        assert_eq!(bw(&fd), 12.0 * TBPS);
    }

    #[test]
    #[should_panic(expected = "fred-mesh")]
    fn mesh_config_rejected() {
        let _ = fabric(FabricConfig::BaselineMesh);
    }
}
