//! The baseline 2D-mesh wafer fabric (§7.1, Table 5).
//!
//! NPUs sit at grid coordinates `(x, y)` with `id = y·cols + x`;
//! neighbouring NPUs are joined by duplex 750 GBps links (each NPU's
//! 3 TBps is split over its four mesh ports). Every *border position*
//! of every edge carries one I/O controller, so a `cols × rows` mesh
//! has `2·cols + 2·rows` controllers (corners serve two edges) — 18
//! for the paper's 5×4 instance. Each controller also links to the
//! off-wafer external memory.

use std::rc::Rc;

use fred_sim::topology::{LinkId, NodeId, NodeKind, Route, Topology};

use fred_collectives::plan::RouteProvider;

/// Which edge of the mesh an I/O controller sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoSide {
    /// y = 0 row, column index.
    Top,
    /// y = rows−1 row, column index.
    Bottom,
    /// x = 0 column, row index.
    Left,
    /// x = cols−1 column, row index.
    Right,
}

/// An I/O controller's position on the border.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IoChannel {
    /// The edge this channel enters from.
    pub side: IoSide,
    /// Coordinate along that edge (column for top/bottom, row for
    /// left/right).
    pub index: usize,
}

/// The baseline mesh fabric.
///
/// ```
/// use fred_mesh::topology::MeshFabric;
///
/// let mesh = MeshFabric::paper_baseline();
/// assert_eq!((mesh.cols(), mesh.rows()), (5, 4));
/// assert_eq!(mesh.io_count(), 18);
/// // X-Y routing: x first, then y.
/// let hops = mesh.xy_route(mesh.npu_at(0, 0), mesh.npu_at(3, 2)).len();
/// assert_eq!(hops, 5);
/// // Corner NPUs have only two mesh links — the §8.1 bandwidth bound.
/// assert_eq!(mesh.degree(mesh.npu_at(0, 0)), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MeshFabric {
    /// Built once; clones of the fabric and every network over it
    /// share it.
    topo: Rc<Topology>,
    cols: usize,
    rows: usize,
    npus: Vec<NodeId>,
    ios: Vec<NodeId>,
    channels: Vec<IoChannel>,
    ext: NodeId,
    /// `link[dir][npu]`: outgoing mesh link of `npu` in direction
    /// `dir` (0=east, 1=west, 2=south, 3=north), if it exists.
    dir_links: [Vec<Option<LinkId>>; 4],
    io_in: Vec<LinkId>,
    io_out: Vec<LinkId>,
    ext_to_io: Vec<LinkId>,
    io_to_ext: Vec<LinkId>,
}

const EAST: usize = 0;
const WEST: usize = 1;
const SOUTH: usize = 2;
const NORTH: usize = 3;

impl MeshFabric {
    /// Builds the paper's 5×4 baseline with Table 3 parameters.
    pub fn paper_baseline() -> MeshFabric {
        let p = fred_core::params::PhysicalParams::paper();
        MeshFabric::new(
            fred_core::params::MESH_COLS,
            fred_core::params::MESH_ROWS,
            fred_core::params::MESH_LINK_BW,
            p.io_bw,
            p.link_latency,
        )
    }

    /// Builds a `cols × rows` mesh with the given per-direction link
    /// bandwidth, per-I/O-channel bandwidth and link latency.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is smaller than 2.
    pub fn new(cols: usize, rows: usize, link_bw: f64, io_bw: f64, latency: f64) -> MeshFabric {
        assert!(cols >= 2 && rows >= 2, "mesh must be at least 2x2");
        let mut topo = Topology::new();
        let npus: Vec<NodeId> = (0..cols * rows)
            .map(|i| topo.add_node(NodeKind::Npu, format!("npu{}_{}", i % cols, i / cols)))
            .collect();

        let mut dir_links: [Vec<Option<LinkId>>; 4] =
            std::array::from_fn(|_| vec![None; cols * rows]);
        for y in 0..rows {
            for x in 0..cols {
                let id = y * cols + x;
                if x + 1 < cols {
                    let (e, w) = topo.add_duplex_link(npus[id], npus[id + 1], link_bw, latency);
                    dir_links[EAST][id] = Some(e);
                    dir_links[WEST][id + 1] = Some(w);
                }
                if y + 1 < rows {
                    let (s, n) = topo.add_duplex_link(npus[id], npus[id + cols], link_bw, latency);
                    dir_links[SOUTH][id] = Some(s);
                    dir_links[NORTH][id + cols] = Some(n);
                }
            }
        }

        // One I/O channel per border position per facing edge.
        let mut channels = Vec::new();
        for x in 0..cols {
            channels.push(IoChannel {
                side: IoSide::Top,
                index: x,
            });
        }
        for x in 0..cols {
            channels.push(IoChannel {
                side: IoSide::Bottom,
                index: x,
            });
        }
        for y in 0..rows {
            channels.push(IoChannel {
                side: IoSide::Left,
                index: y,
            });
        }
        for y in 0..rows {
            channels.push(IoChannel {
                side: IoSide::Right,
                index: y,
            });
        }

        let ext = topo.add_node(NodeKind::ExternalMemory, "ext");
        let mut ios = Vec::new();
        let mut io_in = Vec::new();
        let mut io_out = Vec::new();
        let mut ext_to_io = Vec::new();
        let mut io_to_ext = Vec::new();
        for (i, ch) in channels.iter().enumerate() {
            let io = topo.add_node(NodeKind::IoController, format!("io{i}"));
            let entry = npus[Self::entry_of(ch, cols, rows)];
            let (inn, out) = topo.add_duplex_link(io, entry, io_bw, latency);
            let (e2i, i2e) = topo.add_duplex_link(ext, io, io_bw, latency);
            ios.push(io);
            io_in.push(inn);
            io_out.push(out);
            ext_to_io.push(e2i);
            io_to_ext.push(i2e);
        }

        MeshFabric {
            topo: Rc::new(topo),
            cols,
            rows,
            npus,
            ios,
            channels,
            ext,
            dir_links,
            io_in,
            io_out,
            ext_to_io,
            io_to_ext,
        }
    }

    fn entry_of(ch: &IoChannel, cols: usize, rows: usize) -> usize {
        match ch.side {
            IoSide::Top => ch.index,
            IoSide::Bottom => (rows - 1) * cols + ch.index,
            IoSide::Left => ch.index * cols,
            IoSide::Right => ch.index * cols + cols - 1,
        }
    }

    /// Columns in the mesh.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Rows in the mesh.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of NPUs.
    pub fn npu_count(&self) -> usize {
        self.npus.len()
    }

    /// Number of I/O channels.
    pub fn io_count(&self) -> usize {
        self.ios.len()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The shared topology for a simulator to hold: a pointer clone,
    /// never a copy.
    pub fn clone_topology(&self) -> Rc<Topology> {
        Rc::clone(&self.topo)
    }

    /// Grid coordinates of NPU `id`.
    pub fn coords(&self, id: usize) -> (usize, usize) {
        (id % self.cols, id / self.cols)
    }

    /// NPU id at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the grid.
    pub fn npu_at(&self, x: usize, y: usize) -> usize {
        assert!(
            x < self.cols && y < self.rows,
            "({x},{y}) outside {}x{}",
            self.cols,
            self.rows
        );
        y * self.cols + x
    }

    /// Node id of NPU `i`.
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

    /// The external-memory node.
    pub fn external_memory(&self) -> NodeId {
        self.ext
    }

    /// The I/O channel descriptors, in controller-index order.
    pub fn channels(&self) -> &[IoChannel] {
        &self.channels
    }

    /// The NPU where I/O controller `io` enters the mesh.
    pub fn io_entry_npu(&self, io: usize) -> usize {
        Self::entry_of(&self.channels[io], self.cols, self.rows)
    }

    /// X-Y (dimension-ordered) route between two NPUs: traverse the x
    /// dimension first, then y — the deterministic routing used in real
    /// mesh systems (§7.2).
    pub fn xy_route(&self, src: usize, dst: usize) -> Route {
        let (mut x, mut y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let mut route = Vec::new();
        while x != dx {
            let id = y * self.cols + x;
            if x < dx {
                route.push(self.dir_links[EAST][id].expect("east link exists"));
                x += 1;
            } else {
                route.push(self.dir_links[WEST][id].expect("west link exists"));
                x -= 1;
            }
        }
        while y != dy {
            let id = y * self.cols + x;
            if y < dy {
                route.push(self.dir_links[SOUTH][id].expect("south link exists"));
                y += 1;
            } else {
                route.push(self.dir_links[NORTH][id].expect("north link exists"));
                y -= 1;
            }
        }
        route
    }

    /// Y-X (y first, then x) route between two NPUs — the secondary
    /// dimension order, used as the first detour when the X-Y route
    /// crosses a failed link.
    pub fn yx_route(&self, src: usize, dst: usize) -> Route {
        let (mut x, mut y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let mut route = Vec::new();
        while y != dy {
            let id = y * self.cols + x;
            if y < dy {
                route.push(self.dir_links[SOUTH][id].expect("south link exists"));
                y += 1;
            } else {
                route.push(self.dir_links[NORTH][id].expect("north link exists"));
                y -= 1;
            }
        }
        while x != dx {
            let id = y * self.cols + x;
            if x < dx {
                route.push(self.dir_links[EAST][id].expect("east link exists"));
                x += 1;
            } else {
                route.push(self.dir_links[WEST][id].expect("west link exists"));
                x -= 1;
            }
        }
        route
    }

    /// Fault-aware variant of [`MeshFabric::xy_route`]: X-Y if it
    /// crosses no blocked link, else Y-X (same hop count, the other
    /// corner of the rectangle), else the shortest surviving path —
    /// which pays a detour penalty in extra hops. Returns `None` when
    /// the blocked set cuts `src` from `dst`.
    pub fn xy_route_avoiding(
        &self,
        src: usize,
        dst: usize,
        blocked: impl Fn(LinkId) -> bool,
    ) -> Option<Route> {
        let xy = self.xy_route(src, dst);
        if !xy.iter().any(|&l| blocked(l)) {
            return Some(xy);
        }
        let yx = self.yx_route(src, dst);
        if !yx.iter().any(|&l| blocked(l)) {
            return Some(yx);
        }
        self.topo
            .shortest_path_avoiding(self.npus[src], self.npus[dst], blocked)
    }

    /// Route from I/O controller `io` into NPU `npu` (X-Y after entry).
    pub fn io_to_npu_route(&self, io: usize, npu: usize) -> Route {
        let mut r = vec![self.io_in[io]];
        r.extend(self.xy_route(self.io_entry_npu(io), npu));
        r
    }

    /// Route from NPU `npu` out through I/O controller `io`.
    pub fn npu_to_io_route(&self, npu: usize, io: usize) -> Route {
        let mut r = self.xy_route(npu, self.io_entry_npu(io));
        r.push(self.io_out[io]);
        r
    }

    /// Route from external memory through `io` to `npu`.
    pub fn ext_to_npu_route(&self, io: usize, npu: usize) -> Route {
        let mut r = vec![self.ext_to_io[io]];
        r.extend(self.io_to_npu_route(io, npu));
        r
    }

    /// Route from `npu` through `io` to external memory.
    pub fn npu_to_ext_route(&self, npu: usize, io: usize) -> Route {
        let mut r = self.npu_to_io_route(npu, io);
        r.push(self.io_to_ext[io]);
        r
    }

    /// The outgoing mesh link of `npu` towards an adjacent NPU, if it
    /// exists. Directions: 0 = east (+x), 1 = west, 2 = south (+y),
    /// 3 = north.
    pub fn neighbor_link(&self, npu: usize, dir: usize) -> Option<LinkId> {
        self.dir_links[dir][npu]
    }

    /// Number of mesh links this NPU has (2 at corners, 3 on edges, 4
    /// inside) — the corner-NPU limit behind the baseline's 1.5 TBps
    /// effective bandwidth (§8.1).
    pub fn degree(&self, npu: usize) -> usize {
        (0..4).filter(|&d| self.dir_links[d][npu].is_some()).count()
    }
}

impl RouteProvider for MeshFabric {
    fn route(&self, src: usize, dst: usize) -> Route {
        self.xy_route(src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_shape() {
        let m = MeshFabric::paper_baseline();
        assert_eq!(m.npu_count(), 20);
        assert_eq!(m.io_count(), 18);
        assert_eq!((m.cols(), m.rows()), (5, 4));
        // 2*(4*5 + 5*3) directed NPU links? Count: horizontal 4 per row * 4 rows,
        // vertical 5 per column * 3: 16+15=31 duplex = 62 directed, plus
        // 18 * 2 io links * 2 (io-npu, ext-io) = 72 -> 134.
        assert_eq!(m.topology().link_count(), 62 + 72);
    }

    #[test]
    fn corner_npus_have_two_links() {
        let m = MeshFabric::paper_baseline();
        assert_eq!(m.degree(m.npu_at(0, 0)), 2);
        assert_eq!(m.degree(m.npu_at(4, 3)), 2);
        assert_eq!(m.degree(m.npu_at(2, 0)), 3);
        assert_eq!(m.degree(m.npu_at(2, 2)), 4);
    }

    #[test]
    fn xy_routes_go_x_then_y() {
        let m = MeshFabric::paper_baseline();
        let src = m.npu_at(0, 0);
        let dst = m.npu_at(3, 2);
        let route = m.xy_route(src, dst);
        assert_eq!(route.len(), 5);
        let ends = m.topology().validate_route(&route).unwrap().unwrap();
        assert_eq!(ends, (m.npu(src), m.npu(dst)));
        // First three hops move east along row 0.
        for l in &route[..3] {
            let link = m.topology().link(*l);
            let s = m.topology().node(link.src).label.clone();
            assert!(s.ends_with("_0"), "hop from {s} not in row 0");
        }
    }

    #[test]
    fn all_pairs_route_valid() {
        let m = MeshFabric::new(4, 3, 1e9, 1e8, 0.0);
        for a in 0..12 {
            for b in 0..12 {
                let r = m.xy_route(a, b);
                let (ax, ay) = m.coords(a);
                let (bx, by) = m.coords(b);
                assert_eq!(r.len(), ax.abs_diff(bx) + ay.abs_diff(by));
                m.topology().validate_route(&r).unwrap();
            }
        }
    }

    #[test]
    fn npu_index_inverts_npu() {
        let m = MeshFabric::paper_baseline();
        for i in 0..m.npu_count() {
            assert_eq!(m.npu_index(m.npu(i)), Some(i));
        }
        assert_eq!(m.npu_index(m.external_memory()), None);
        // I/O controller node ids follow the NPUs; none maps back.
        for io in 0..m.io_count() {
            assert_eq!(m.npu_index(m.ios[io]), None);
        }
    }

    #[test]
    fn route_avoiding_falls_back_yx_then_bfs() {
        let m = MeshFabric::paper_baseline();
        let src = m.npu_at(0, 0);
        let dst = m.npu_at(2, 2);
        // Healthy: identical to X-Y.
        assert_eq!(
            m.xy_route_avoiding(src, dst, |_| false),
            Some(m.xy_route(src, dst))
        );
        // Block the first X-Y hop: Y-X has the same length and avoids it.
        let first = m.xy_route(src, dst)[0];
        let r = m.xy_route_avoiding(src, dst, |l| l == first).unwrap();
        assert_eq!(r, m.yx_route(src, dst));
        assert_eq!(r.len(), m.xy_route(src, dst).len());
        m.topology().validate_route(&r).unwrap();
        // Block the first hop of both dimension orders: that is every
        // mesh exit of the corner, so the BFS detour escapes through an
        // I/O controller and the external-memory hub. Same endpoints,
        // strictly longer than the healthy route.
        let f2 = m.yx_route(src, dst)[0];
        let r = m
            .xy_route_avoiding(src, dst, |l| l == first || l == f2)
            .unwrap();
        assert!(!r.contains(&first) && !r.contains(&f2));
        let ends = m.topology().validate_route(&r).unwrap().unwrap();
        assert_eq!(ends, (m.npu(src), m.npu(dst)));
        assert!(r.len() > m.xy_route(src, dst).len());
        // Corner (0,0) has exactly two mesh exits, but BFS may still
        // escape through an I/O controller and the external-memory hub;
        // additionally cutting the corner's io links isolates it.
        let io_exits: Vec<LinkId> = (0..m.io_count())
            .filter(|&io| m.io_entry_npu(io) == src)
            .map(|io| m.io_out[io])
            .collect();
        assert_eq!(
            m.xy_route_avoiding(src, dst, |l| l == first || l == f2 || io_exits.contains(&l)),
            None
        );
    }

    #[test]
    fn io_channels_cover_all_edges() {
        let m = MeshFabric::paper_baseline();
        let tops = m
            .channels()
            .iter()
            .filter(|c| c.side == IoSide::Top)
            .count();
        let lefts = m
            .channels()
            .iter()
            .filter(|c| c.side == IoSide::Left)
            .count();
        assert_eq!(tops, 5);
        assert_eq!(lefts, 4);
        // Corner (0,0) serves a top channel and a left channel.
        let corner = m.npu_at(0, 0);
        let serving: Vec<usize> = (0..m.io_count())
            .filter(|&io| m.io_entry_npu(io) == corner)
            .collect();
        assert_eq!(serving.len(), 2);
    }

    #[test]
    fn io_and_ext_routes_validate() {
        let m = MeshFabric::paper_baseline();
        for io in 0..m.io_count() {
            for npu in [0usize, 7, 19] {
                m.topology()
                    .validate_route(&m.ext_to_npu_route(io, npu))
                    .unwrap();
                m.topology()
                    .validate_route(&m.npu_to_ext_route(npu, io))
                    .unwrap();
            }
        }
    }

    #[test]
    fn route_provider_is_xy() {
        let m = MeshFabric::paper_baseline();
        assert_eq!(RouteProvider::route(&m, 0, 19), m.xy_route(0, 19));
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn degenerate_mesh_rejected() {
        let _ = MeshFabric::new(1, 5, 1.0, 1.0, 0.0);
    }
}
