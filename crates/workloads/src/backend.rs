//! Network backends: the Table 5 configurations behind one interface.
//!
//! [`FabricBackend`] compiles every communication operation the trainer
//! issues into a [`CommPlan`], using:
//!
//! * the **baseline mesh**: snake-ring / hierarchical-2D endpoint
//!   collectives with X-Y routes, Fig 4 streaming trees;
//! * **Fred-A/C**: endpoint collectives on the tree (hierarchical
//!   2-level ring over the L1 partition, §7.2), binomial trees for
//!   multicast, pipelined streaming over endpoint trees;
//! * **Fred-B/D**: in-network collectives — each touched link carries
//!   exactly the collective payload once (§2.2).
//!
//! In-network operations compile to a *single-phase* plan whose
//! transfers are the per-link flows (pipelined through the switches);
//! endpoint operations keep their serial phase structure.

use fred_collectives::hierarchical;
use fred_collectives::plan::{CommPlan, Phase, Transfer};
use fred_collectives::ring::{self, Direction};
use fred_collectives::tree;
use fred_core::fabric::WaferFabric;
use fred_core::params::{FabricConfig, PhysicalParams};
use fred_mesh::topology::MeshFabric;
use fred_mesh::{rings, streaming};
use fred_sim::flow::{FlowSpec, Priority};
use fred_sim::topology::{LinkId, NodeId, Route, Topology};

/// Label for the external-memory endpoint in [`Transfer`] records.
pub const EXT_LABEL: usize = 20_000;

/// A Table 5 fabric configuration ready to compile communication
/// operations.
///
/// ```
/// use fred_core::params::FabricConfig;
/// use fred_workloads::backend::FabricBackend;
///
/// let fred_d = FabricBackend::new(FabricConfig::FredD);
/// // In-network All-Reduce: one phase, D bytes per touched link.
/// let plan = fred_d.all_reduce(&[0, 1, 2, 3], 1e9);
/// assert_eq!(plan.phase_count(), 1);
///
/// let mesh = FabricBackend::new(FabricConfig::BaselineMesh);
/// // Endpoint ring on the mesh: 2(n-1) serial phases.
/// let plan = mesh.all_reduce(&[0, 1, 2, 3], 1e9);
/// assert_eq!(plan.phase_count(), 6);
/// ```
#[derive(Debug, Clone)]
pub enum FabricBackend {
    /// The 5×4 baseline mesh.
    Mesh(MeshFabric),
    /// A FRED tree (A/B/C/D per its `FabricConfig`).
    Fred(WaferFabric),
}

impl FabricBackend {
    /// Builds the backend for `config` with the paper's physical
    /// parameters.
    pub fn new(config: FabricConfig) -> FabricBackend {
        let params = PhysicalParams::paper();
        match config {
            FabricConfig::BaselineMesh => FabricBackend::Mesh(MeshFabric::paper_baseline()),
            c => FabricBackend::Fred(WaferFabric::new(c, &params)),
        }
    }

    /// The configuration this backend implements.
    pub fn config(&self) -> FabricConfig {
        match self {
            FabricBackend::Mesh(_) => FabricConfig::BaselineMesh,
            FabricBackend::Fred(f) => f.config(),
        }
    }

    /// Number of NPUs.
    pub fn npu_count(&self) -> usize {
        match self {
            FabricBackend::Mesh(m) => m.npu_count(),
            FabricBackend::Fred(f) => f.npu_count(),
        }
    }

    /// Number of I/O channels.
    pub fn io_count(&self) -> usize {
        match self {
            FabricBackend::Mesh(m) => m.io_count(),
            FabricBackend::Fred(f) => f.io_count(),
        }
    }

    /// A clone of the topology for the simulator.
    pub fn topology(&self) -> Topology {
        match self {
            FabricBackend::Mesh(m) => m.clone_topology(),
            FabricBackend::Fred(f) => f.clone_topology(),
        }
    }

    /// NPU-to-NPU route.
    pub fn npu_route(&self, src: usize, dst: usize) -> Route {
        match self {
            FabricBackend::Mesh(m) => m.xy_route(src, dst),
            FabricBackend::Fred(f) => f.npu_route(src, dst),
        }
    }

    /// The NPU index owning topology node `node`, if it is an NPU.
    pub fn npu_index(&self, node: NodeId) -> Option<usize> {
        match self {
            FabricBackend::Mesh(m) => m.npu_index(node),
            FabricBackend::Fred(f) => f.npu_index(node),
        }
    }

    /// NPU-to-NPU route avoiding `blocked` links: the fabric's standard
    /// route when it survives, otherwise its fault-detour policy (YX
    /// then BFS on the mesh, neighbour-trunk BFS on the tree). `None`
    /// if the failures disconnect the pair.
    pub fn npu_route_avoiding(
        &self,
        src: usize,
        dst: usize,
        blocked: impl Fn(LinkId) -> bool,
    ) -> Option<Route> {
        match self {
            FabricBackend::Mesh(m) => m.xy_route_avoiding(src, dst, blocked),
            FabricBackend::Fred(f) => f.npu_route_avoiding(src, dst, blocked),
        }
    }

    /// Maps a *placement slot* (consecutive logical position produced by
    /// the device-placement policy) to a physical NPU id. On the mesh,
    /// consecutive slots follow the boustrophedon (snake) walk so that
    /// slot `i` and slot `i+1` are always physically adjacent — the
    /// 2D-aware layout real mesh placements use (§3.2.2). On the FRED
    /// tree the identity suffices: consecutive NPUs share an L1 switch.
    pub fn physical_npu(&self, slot: usize) -> usize {
        match self {
            FabricBackend::Mesh(m) => {
                let cols = m.cols();
                let y = slot / cols;
                let x = slot % cols;
                let x = if y.is_multiple_of(2) { x } else { cols - 1 - x };
                y * cols + x
            }
            FabricBackend::Fred(_) => slot,
        }
    }

    /// Maps a whole group of placement slots to physical NPU ids.
    pub fn physical_group(&self, slots: &[usize]) -> Vec<usize> {
        slots.iter().map(|&s| self.physical_npu(s)).collect()
    }

    fn in_network(&self) -> bool {
        self.config().in_network_collectives()
    }

    /// All-Reduce of `bytes` among `group`.
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty.
    pub fn all_reduce(&self, group: &[usize], bytes: f64) -> CommPlan {
        assert!(!group.is_empty());
        if group.len() == 1 {
            return CommPlan::new("allreduce-noop");
        }
        match self {
            FabricBackend::Mesh(m) => rings::wafer_all_reduce(m, group, bytes),
            FabricBackend::Fred(f) => {
                if self.in_network() {
                    flows_to_plan(
                        "innet-allreduce",
                        f.in_network_all_reduce(group, bytes, Priority::Bulk, 0),
                    )
                } else {
                    let clusters = f.partition_by_l1(group);
                    hierarchical::all_reduce(
                        &clusters,
                        bytes,
                        Direction::Unidirectional,
                        &|a, b| f.npu_route(a, b),
                    )
                }
            }
        }
    }

    /// Reduce-Scatter of `bytes` among `group`.
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty.
    pub fn reduce_scatter(&self, group: &[usize], bytes: f64) -> CommPlan {
        assert!(!group.is_empty());
        if group.len() == 1 {
            return CommPlan::new("rs-noop");
        }
        match self {
            FabricBackend::Mesh(m) => rings::reduce_scatter(m, group, bytes),
            FabricBackend::Fred(f) => {
                if self.in_network() {
                    flows_to_plan(
                        "innet-reduce-scatter",
                        f.in_network_reduce_scatter(group, bytes, Priority::Bulk, 0),
                    )
                } else {
                    let clusters = f.partition_by_l1(group);
                    hierarchical::reduce_scatter(
                        &clusters,
                        bytes,
                        Direction::Unidirectional,
                        &|a, b| f.npu_route(a, b),
                    )
                }
            }
        }
    }

    /// All-Gather of `bytes` among `group`.
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty.
    pub fn all_gather(&self, group: &[usize], bytes: f64) -> CommPlan {
        assert!(!group.is_empty());
        if group.len() == 1 {
            return CommPlan::new("ag-noop");
        }
        match self {
            FabricBackend::Mesh(m) => rings::all_gather(m, group, bytes),
            FabricBackend::Fred(f) => {
                if self.in_network() {
                    flows_to_plan(
                        "innet-allgather",
                        f.in_network_all_gather(group, bytes, Priority::Bulk, 0),
                    )
                } else {
                    let clusters = f.partition_by_l1(group);
                    hierarchical::all_gather(
                        &clusters,
                        bytes,
                        Direction::Unidirectional,
                        &|a, b| f.npu_route(a, b),
                    )
                }
            }
        }
    }

    /// All-to-All of `bytes` among `group` (no reduction, so always
    /// endpoint-based).
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty.
    pub fn all_to_all(&self, group: &[usize], bytes: f64) -> CommPlan {
        assert!(!group.is_empty());
        match self {
            FabricBackend::Mesh(m) => rings::all_to_all(m, group, bytes),
            FabricBackend::Fred(f) => ring::all_to_all(group, bytes, &|a, b| f.npu_route(a, b)),
        }
    }

    /// Point-to-point transfer (PP stage boundary).
    pub fn p2p(&self, src: usize, dst: usize, bytes: f64) -> CommPlan {
        match self {
            FabricBackend::Mesh(m) => ring::point_to_point(src, dst, bytes, m),
            FabricBackend::Fred(f) => {
                ring::point_to_point(src, dst, bytes, &|a, b| f.npu_route(a, b))
            }
        }
    }

    /// Multicast of `bytes` from NPU `src` to `dsts` (PP activation
    /// forwarding when the next stage has MP peers, §8.1 footnote 8).
    ///
    /// # Panics
    ///
    /// Panics if `dsts` is empty.
    pub fn multicast(&self, src: usize, dsts: &[usize], bytes: f64) -> CommPlan {
        assert!(!dsts.is_empty());
        match self {
            FabricBackend::Mesh(m) => tree::multicast(src, dsts, bytes, m),
            FabricBackend::Fred(f) => {
                if self.in_network() {
                    flows_to_plan(
                        "innet-multicast",
                        f.in_network_multicast_from_npu(src, dsts, bytes, Priority::Bulk, 0),
                    )
                } else {
                    tree::multicast(src, dsts, bytes, &|a, b| f.npu_route(a, b))
                }
            }
        }
    }

    /// PP stage-boundary transfer from one MP group to the next (§8.1
    /// footnote 8): every member of an MP group holds the same output
    /// activations, so each destination member is fed by a distinct
    /// source member in parallel (one hop at line rate). When the
    /// groups' sizes differ, sources are reused round-robin.
    ///
    /// # Panics
    ///
    /// Panics if either group is empty.
    pub fn stage_transfer(&self, src_group: &[usize], dst_group: &[usize], bytes: f64) -> CommPlan {
        assert!(!src_group.is_empty() && !dst_group.is_empty());
        let mut phase = Phase::default();
        for (i, &dst) in dst_group.iter().enumerate() {
            let src = src_group[i % src_group.len()];
            if src != dst {
                phase.transfers.push(Transfer {
                    src,
                    dst,
                    bytes,
                    route: self.npu_route(src, dst),
                });
            }
        }
        CommPlan {
            label: "pp-stage-transfer".into(),
            phases: vec![phase],
        }
    }

    /// Streams `total_bytes` of weights from external memory onto the
    /// wafer, broadcast to all NPUs: every I/O channel carries an equal
    /// shard concurrently (pipelined; single phase).
    pub fn stream_in(&self, total_bytes: f64) -> CommPlan {
        let per_channel = total_bytes / self.io_count() as f64;
        match self {
            FabricBackend::Mesh(m) => {
                let mut phase = Phase::default();
                for io in 0..m.io_count() {
                    // The first flow is the external-memory ingress; the
                    // rest are broadcast-tree edges (label src/dst 0 so
                    // traffic accounting can separate I/O from fabric).
                    for (i, f) in
                        streaming::streaming_in_flows(m, io, per_channel, Priority::Bulk, io as u64)
                            .into_iter()
                            .enumerate()
                    {
                        let src = if i == 0 { EXT_LABEL } else { 0 };
                        phase.transfers.push(flow_to_transfer(f, src, 0));
                    }
                }
                CommPlan {
                    label: "mesh-stream-in".into(),
                    phases: vec![phase],
                }
            }
            FabricBackend::Fred(f) => {
                let group: Vec<usize> = (0..f.npu_count()).collect();
                let mut phase = Phase::default();
                if self.in_network() {
                    for io in 0..f.io_count() {
                        for (i, fl) in f
                            .in_network_multicast_from_io(
                                &group,
                                io,
                                per_channel,
                                Priority::Bulk,
                                io as u64,
                            )
                            .into_iter()
                            .enumerate()
                        {
                            let src = if i == 0 { EXT_LABEL } else { 0 };
                            phase.transfers.push(flow_to_transfer(fl, src, 0));
                        }
                    }
                } else {
                    // Endpoint streaming: each channel feeds one NPU under
                    // its L1; a pipelined *hierarchical* tree spreads it on
                    // (one representative per L1 cluster, then L1-local
                    // fan-out) so each L1–L2 trunk carries the stream once
                    // per cluster rather than once per receiver.
                    for io in 0..f.io_count() {
                        let entry = io % f.npu_count();
                        phase.transfers.push(Transfer {
                            src: EXT_LABEL,
                            dst: entry,
                            bytes: per_channel,
                            route: f.ext_to_npu_route(io, entry),
                        });
                        for cluster in f.partition_by_l1(&group) {
                            // Rotate the representative per channel so no
                            // single NPU's link serves every stream.
                            let rep = if cluster.contains(&entry) {
                                entry
                            } else {
                                cluster[io % cluster.len()]
                            };
                            if rep != entry {
                                phase.transfers.push(Transfer {
                                    src: entry,
                                    dst: rep,
                                    bytes: per_channel,
                                    route: f.npu_route(entry, rep),
                                });
                            }
                            for &n in &cluster {
                                if n != rep {
                                    phase.transfers.push(Transfer {
                                        src: rep,
                                        dst: n,
                                        bytes: per_channel,
                                        route: f.npu_route(rep, n),
                                    });
                                }
                            }
                        }
                    }
                }
                CommPlan {
                    label: "fred-stream-in".into(),
                    phases: vec![phase],
                }
            }
        }
    }

    /// Streams `total_bytes` of weight gradients off the wafer,
    /// reduced across all NPUs on the way out (the reverse of Fig 4).
    pub fn stream_out(&self, total_bytes: f64) -> CommPlan {
        let per_channel = total_bytes / self.io_count() as f64;
        match self {
            FabricBackend::Mesh(m) => {
                let mut phase = Phase::default();
                for io in 0..m.io_count() {
                    // The last flow is the external-memory egress.
                    let flows = streaming::streaming_out_flows(
                        m,
                        io,
                        per_channel,
                        Priority::Bulk,
                        io as u64,
                    );
                    let last = flows.len() - 1;
                    for (i, f) in flows.into_iter().enumerate() {
                        let dst = if i == last { EXT_LABEL } else { 0 };
                        phase.transfers.push(flow_to_transfer(f, 0, dst));
                    }
                }
                CommPlan {
                    label: "mesh-stream-out".into(),
                    phases: vec![phase],
                }
            }
            FabricBackend::Fred(f) => {
                let group: Vec<usize> = (0..f.npu_count()).collect();
                let mut phase = Phase::default();
                if self.in_network() {
                    for io in 0..f.io_count() {
                        let flows = f.in_network_reduce_to_io(
                            &group,
                            io,
                            per_channel,
                            Priority::Bulk,
                            io as u64,
                        );
                        let last = flows.len() - 1;
                        for (i, fl) in flows.into_iter().enumerate() {
                            let dst = if i == last { EXT_LABEL } else { 0 };
                            phase.transfers.push(flow_to_transfer(fl, 0, dst));
                        }
                    }
                } else {
                    // Mirror of stream_in: L1-local reduction to one
                    // representative per cluster, representatives to the
                    // exit NPU, exit to external memory.
                    for io in 0..f.io_count() {
                        let exit = io % f.npu_count();
                        for cluster in f.partition_by_l1(&group) {
                            let rep = if cluster.contains(&exit) {
                                exit
                            } else {
                                cluster[io % cluster.len()]
                            };
                            for &n in &cluster {
                                if n != rep {
                                    phase.transfers.push(Transfer {
                                        src: n,
                                        dst: rep,
                                        bytes: per_channel,
                                        route: f.npu_route(n, rep),
                                    });
                                }
                            }
                            if rep != exit {
                                phase.transfers.push(Transfer {
                                    src: rep,
                                    dst: exit,
                                    bytes: per_channel,
                                    route: f.npu_route(rep, exit),
                                });
                            }
                        }
                        phase.transfers.push(Transfer {
                            src: exit,
                            dst: EXT_LABEL,
                            bytes: per_channel,
                            route: f.npu_to_ext_route(exit, io),
                        });
                    }
                }
                CommPlan {
                    label: "fred-stream-out".into(),
                    phases: vec![phase],
                }
            }
        }
    }

    /// Loads `total_bytes` of input samples: each channel delivers an
    /// equal shard to NPUs round-robin (scatter — inputs differ per
    /// NPU, so no broadcast).
    pub fn input_load(&self, total_bytes: f64) -> CommPlan {
        let per_channel = total_bytes / self.io_count() as f64;
        let mut phase = Phase::default();
        for io in 0..self.io_count() {
            let npu = io % self.npu_count();
            let route = match self {
                FabricBackend::Mesh(m) => m.ext_to_npu_route(io, npu),
                FabricBackend::Fred(f) => f.ext_to_npu_route(io, npu),
            };
            phase.transfers.push(Transfer {
                src: EXT_LABEL,
                dst: npu,
                bytes: per_channel,
                route,
            });
        }
        CommPlan {
            label: "input-load".into(),
            phases: vec![phase],
        }
    }
}

fn flow_to_transfer(f: FlowSpec, src: usize, dst: usize) -> Transfer {
    Transfer {
        src,
        dst,
        bytes: f.bytes,
        route: f.route,
    }
}

fn flows_to_plan(label: &str, flows: Vec<FlowSpec>) -> CommPlan {
    let mut phase = Phase::default();
    for f in flows {
        phase.transfers.push(flow_to_transfer(f, 0, 0));
    }
    CommPlan {
        label: label.into(),
        phases: vec![phase],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_collectives::plan::execute_standalone;

    fn backends() -> Vec<FabricBackend> {
        FabricConfig::ALL
            .iter()
            .map(|&c| FabricBackend::new(c))
            .collect()
    }

    #[test]
    fn all_backends_build_and_expose_shape() {
        for b in backends() {
            assert_eq!(b.npu_count(), 20);
            assert_eq!(b.io_count(), 18);
            assert!(b.topology().node_count() > 20);
        }
    }

    #[test]
    fn all_collectives_have_valid_routes() {
        let group: Vec<usize> = (0..20).collect();
        let sub: Vec<usize> = vec![0, 4, 8, 12, 16];
        for b in backends() {
            let topo = b.topology();
            for plan in [
                b.all_reduce(&group, 1e6),
                b.all_reduce(&sub, 1e6),
                b.reduce_scatter(&group, 1e6),
                b.all_gather(&sub, 1e6),
                b.all_to_all(&sub, 1e6),
                b.p2p(0, 19, 1e6),
                b.multicast(0, &[5, 10, 15], 1e6),
                b.stream_in(1e9),
                b.stream_out(1e9),
                b.input_load(1e6),
            ] {
                for phase in &plan.phases {
                    for t in &phase.transfers {
                        topo.validate_route(&t.route)
                            .unwrap_or_else(|e| panic!("{} / {}: {e}", b.config(), plan.label));
                    }
                }
            }
        }
    }

    /// §8.1 Fig 9 left: wafer-wide All-Reduce effective-bandwidth
    /// ordering across configurations: Fred-D ≥ Fred-C > Fred-B >
    /// Fred-A, with the baseline between Fred-A and Fred-C.
    #[test]
    fn fig9_wafer_allreduce_ordering() {
        let group: Vec<usize> = (0..20).collect();
        let d = 10e9;
        let mut t = std::collections::HashMap::new();
        for b in backends() {
            let plan = b.all_reduce(&group, d);
            let (dur, _) = execute_standalone(b.topology(), &plan, d).unwrap();
            t.insert(b.config(), dur.as_secs());
        }
        use FabricConfig::*;
        assert!(
            t[&FredD] < t[&FredB],
            "D {:?} vs B {:?}",
            t[&FredD],
            t[&FredB]
        );
        assert!(t[&FredC] < t[&FredA], "C vs A");
        assert!(
            t[&FredD] < t[&BaselineMesh] / 1.5,
            "D must beat baseline clearly"
        );
        assert!(t[&FredB] < t[&FredA], "in-network helps at equal bisection");
        // Fred-D's effective NPU bandwidth ~3 TBps with D bytes traffic:
        // duration ~ D/3e12.
        assert!(
            (t[&FredD] - d / 3e12).abs() / (d / 3e12) < 0.1,
            "FredD {}",
            t[&FredD]
        );
    }

    /// §8.1 Fig 9 right: the DP phase of MP(2)-DP(5)-PP(2). Fred-A is
    /// *worse* than the baseline (375 GBps vs 750 GBps effective), the
    /// crossover the paper uses to motivate Fred-C/D.
    #[test]
    fn fig9_dp_phase_fred_a_loses_to_baseline() {
        use fred_core::placement::{Placement, PlacementPolicy, Strategy3D};
        let pl = Placement::new(Strategy3D::new(2, 5, 2), PlacementPolicy::MpPpDp);
        let d = 10e9;
        let time_for = |cfg: FabricConfig| {
            let b = FabricBackend::new(cfg);
            // All 4 concurrent DP All-Reduces (one per (mp, pp)).
            let plans: Vec<CommPlan> = pl
                .all_dp_groups()
                .into_iter()
                .map(|g| b.all_reduce(&g, d))
                .collect();
            let merged = fred_collectives::hierarchical::merge_concurrent("dp", plans);
            let (dur, _) = execute_standalone(b.topology(), &merged, d).unwrap();
            dur.as_secs()
        };
        let baseline = time_for(FabricConfig::BaselineMesh);
        let fred_a = time_for(FabricConfig::FredA);
        let fred_c = time_for(FabricConfig::FredC);
        let fred_d = time_for(FabricConfig::FredD);
        assert!(
            fred_a > baseline,
            "Fred-A {fred_a} should lose to baseline {baseline}"
        );
        assert!(
            fred_c < baseline,
            "Fred-C {fred_c} should beat baseline {baseline}"
        );
        assert!(
            fred_d < fred_c * 1.01,
            "Fred-D {fred_d} at least matches Fred-C {fred_c}"
        );
    }

    #[test]
    fn stream_in_faster_on_fred_than_mesh() {
        // §8.2: the mesh streams at 0.65x line rate; FRED at full rate.
        let bytes = 18.0 * 128e9; // 1 s at full line rate
        let mesh = FabricBackend::new(FabricConfig::BaselineMesh);
        let fred = FabricBackend::new(FabricConfig::FredD);
        let (tm, _) = execute_standalone(mesh.topology(), &mesh.stream_in(bytes), bytes).unwrap();
        let (tf, _) = execute_standalone(fred.topology(), &fred.stream_in(bytes), bytes).unwrap();
        assert!((tf.as_secs() - 1.0).abs() < 0.05, "fred stream {tf}");
        let ratio = tf.as_secs() / tm.as_secs();
        assert!((ratio - 0.65).abs() < 0.05, "line-rate fraction {ratio}");
    }

    #[test]
    fn singleton_groups_compile_to_noops() {
        for b in backends() {
            assert_eq!(b.all_reduce(&[3], 1e9).phase_count(), 0);
            assert_eq!(b.reduce_scatter(&[3], 1e9).phase_count(), 0);
            assert_eq!(b.all_gather(&[3], 1e9).phase_count(), 0);
        }
    }
}
