//! Network topology graph: nodes, directed links, and routes.
//!
//! A [`Topology`] is a directed multigraph. Nodes model NPUs, switches
//! (FRED L1/L2, mesh routers are implicit in the NPU nodes), I/O
//! controllers and off-wafer storage; links carry a bandwidth (bytes/s)
//! and a propagation latency (seconds). Routes are explicit link
//! sequences, produced by the topology-specific routing logic in
//! `fred-mesh` and `fred-core`.

use std::collections::HashMap;
use std::fmt;

use crate::time::Duration;

/// Identifier of a node within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifier of a directed link within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// The role a node plays on the wafer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A compute NPU (H100-class chiplet + HBM stacks, Table 3).
    Npu,
    /// A FRED L1 (leaf) switch.
    SwitchL1,
    /// A FRED L2 (spine) switch.
    SwitchL2,
    /// A CXL I/O controller bridging the wafer to external memory.
    IoController,
    /// Off-wafer external memory/storage (aggregation point behind the
    /// I/O controllers in the weight-streaming execution model).
    ExternalMemory,
}

impl NodeKind {
    /// True for the two switch roles.
    pub fn is_switch(self) -> bool {
        matches!(self, NodeKind::SwitchL1 | NodeKind::SwitchL2)
    }
}

/// A node of the topology.
#[derive(Debug, Clone)]
pub struct Node {
    /// The role of this node.
    pub kind: NodeKind,
    /// Human-readable label used in reports and error messages.
    pub label: String,
}

/// A directed link of the topology.
#[derive(Debug, Clone)]
pub struct Link {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Capacity in bytes per second.
    pub bandwidth: f64,
    /// Propagation latency.
    pub latency: Duration,
}

/// An ordered sequence of links forming a path. Empty routes model
/// node-local transfers (they complete after zero network time).
pub type Route = Vec<LinkId>;

/// A directed multigraph of nodes and links.
///
/// ```
/// use fred_sim::topology::{NodeKind, Topology};
/// let mut topo = Topology::new();
/// let a = topo.add_node(NodeKind::Npu, "npu0");
/// let b = topo.add_node(NodeKind::Npu, "npu1");
/// let ab = topo.add_link(a, b, 750e9, 20e-9);
/// assert_eq!(topo.link(ab).src, a);
/// assert_eq!(topo.find_link(a, b), Some(ab));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// (src, dst) -> the first link added between them.
    by_endpoints: HashMap<(NodeId, NodeId), LinkId>,
    /// Outgoing links per node.
    outgoing: HashMap<NodeId, Vec<LinkId>>,
    /// Incoming links per node.
    incoming: HashMap<NodeId, Vec<LinkId>>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: NodeKind, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            kind,
            label: label.into(),
        });
        id
    }

    /// Adds a directed link and returns its id.
    ///
    /// `bandwidth` is in bytes/second, `latency_secs` in seconds.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist, the endpoints are equal,
    /// or `bandwidth` is not strictly positive.
    pub fn add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bandwidth: f64,
        latency_secs: f64,
    ) -> LinkId {
        assert!(src.0 < self.nodes.len(), "unknown source node {src}");
        assert!(dst.0 < self.nodes.len(), "unknown destination node {dst}");
        assert_ne!(src, dst, "self-links are not allowed");
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "link bandwidth must be positive, got {bandwidth}"
        );
        let id = LinkId(self.links.len());
        self.links.push(Link {
            src,
            dst,
            bandwidth,
            latency: Duration::from_secs(latency_secs),
        });
        self.by_endpoints.entry((src, dst)).or_insert(id);
        self.outgoing.entry(src).or_default().push(id);
        self.incoming.entry(dst).or_default().push(id);
        id
    }

    /// Adds a pair of directed links (one each way) with identical
    /// bandwidth and latency, returning `(src->dst, dst->src)`.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth: f64,
        latency_secs: f64,
    ) -> (LinkId, LinkId) {
        let fwd = self.add_link(a, b, bandwidth, latency_secs);
        let rev = self.add_link(b, a, bandwidth, latency_secs);
        (fwd, rev)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Returns the node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Returns the link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Iterates over `(NodeId, &Node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Iterates over `(LinkId, &Link)` pairs.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i), l))
    }

    /// All node ids of a given kind, in id order.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| n.kind == kind)
            .map(|(id, _)| id)
            .collect()
    }

    /// The first link from `src` to `dst`, if any.
    pub fn find_link(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.by_endpoints.get(&(src, dst)).copied()
    }

    /// Outgoing links of `node`.
    pub fn outgoing(&self, node: NodeId) -> &[LinkId] {
        self.outgoing.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Incoming links of `node`.
    pub fn incoming(&self, node: NodeId) -> &[LinkId] {
        self.incoming.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Checks that `route` is a contiguous path, returning its endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] if any link id is out of range or two
    /// consecutive links do not share an endpoint. An empty route yields
    /// `None` (node-local transfer).
    pub fn validate_route(&self, route: &[LinkId]) -> Result<Option<(NodeId, NodeId)>, RouteError> {
        let Some(&first) = route.first() else {
            return Ok(None);
        };
        for &l in route {
            if l.0 >= self.links.len() {
                return Err(RouteError::UnknownLink(l));
            }
        }
        let mut at = self.link(first).dst;
        for &l in &route[1..] {
            let link = self.link(l);
            if link.src != at {
                return Err(RouteError::Discontiguous {
                    expected: at,
                    found: link.src,
                    link: l,
                });
            }
            at = link.dst;
        }
        Ok(Some((self.link(first).src, at)))
    }

    /// Total propagation latency along a route.
    pub fn route_latency(&self, route: &[LinkId]) -> Duration {
        route
            .iter()
            .fold(Duration::ZERO, |acc, &l| acc + self.link(l).latency)
    }

    /// Shortest path (fewest hops, BFS) from `src` to `dst` that never
    /// traverses a link for which `blocked` returns true.
    ///
    /// This is the generic re-route oracle of the fault layer: the
    /// topology-specific routers (X-Y on the mesh, up-down on the FRED
    /// tree) fall back to it when their deterministic route crosses a
    /// failed link, passing the set of failed links as `blocked`.
    pub fn shortest_path_avoiding(
        &self,
        src: NodeId,
        dst: NodeId,
        blocked: impl Fn(LinkId) -> bool,
    ) -> Option<Route> {
        if src == dst {
            return Some(Vec::new());
        }
        let mut prev: HashMap<NodeId, LinkId> = HashMap::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(src);
        while let Some(at) = queue.pop_front() {
            for &l in self.outgoing(at) {
                if blocked(l) {
                    continue;
                }
                let next = self.link(l).dst;
                if next != src && !prev.contains_key(&next) {
                    prev.insert(next, l);
                    if next == dst {
                        let mut route = Vec::new();
                        let mut cur = dst;
                        while cur != src {
                            let l = prev[&cur];
                            route.push(l);
                            cur = self.link(l).src;
                        }
                        route.reverse();
                        return Some(route);
                    }
                    queue.push_back(next);
                }
            }
        }
        None
    }
}

/// Errors produced by [`Topology::validate_route`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// A link id in the route does not exist in the topology.
    UnknownLink(LinkId),
    /// The route crosses a link that has been killed by fault
    /// injection ([`crate::netsim::FlowNetwork::fail_link`]).
    FailedLink(LinkId),
    /// Two consecutive links do not share an endpoint.
    Discontiguous {
        /// Node where the previous link ended.
        expected: NodeId,
        /// Node where the offending link starts.
        found: NodeId,
        /// The offending link.
        link: LinkId,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::UnknownLink(l) => write!(f, "route references unknown link {l}"),
            RouteError::FailedLink(l) => write!(f, "route crosses failed link {l}"),
            RouteError::Discontiguous {
                expected,
                found,
                link,
            } => write!(
                f,
                "route is discontiguous at link {link}: expected start {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for RouteError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> (Topology, Vec<NodeId>, Vec<LinkId>) {
        let mut t = Topology::new();
        let n: Vec<_> = (0..3)
            .map(|i| t.add_node(NodeKind::Npu, format!("n{i}")))
            .collect();
        let l01 = t.add_link(n[0], n[1], 100.0, 1e-9);
        let l12 = t.add_link(n[1], n[2], 200.0, 2e-9);
        (t, n, vec![l01, l12])
    }

    #[test]
    fn adds_nodes_and_links() {
        let (t, n, l) = line3();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.link(l[0]).src, n[0]);
        assert_eq!(t.link(l[1]).dst, n[2]);
        assert_eq!(t.node(n[0]).label, "n0");
    }

    #[test]
    fn duplex_links_are_symmetric() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Npu, "a");
        let b = t.add_node(NodeKind::SwitchL1, "s");
        let (f, r) = t.add_duplex_link(a, b, 3e12, 20e-9);
        assert_eq!(t.link(f).src, a);
        assert_eq!(t.link(r).src, b);
        assert_eq!(t.find_link(b, a), Some(r));
    }

    #[test]
    fn validates_contiguous_routes() {
        let (t, n, l) = line3();
        assert_eq!(t.validate_route(&[l[0], l[1]]).unwrap(), Some((n[0], n[2])));
        assert_eq!(t.validate_route(&[]).unwrap(), None);
    }

    #[test]
    fn rejects_discontiguous_routes() {
        let (t, _, l) = line3();
        let err = t.validate_route(&[l[1], l[0]]).unwrap_err();
        assert!(matches!(err, RouteError::Discontiguous { .. }));
        assert!(t.validate_route(&[LinkId(99)]).is_err());
    }

    #[test]
    fn route_latency_sums_links() {
        let (t, _, l) = line3();
        let route = vec![l[0], l[1]];
        assert!((t.route_latency(&route).as_nanos() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bfs_finds_shortest_path() {
        let (t, n, l) = line3();
        let bfs = |src, dst| t.shortest_path_avoiding(src, dst, |_| false);
        assert_eq!(bfs(n[0], n[2]).unwrap(), vec![l[0], l[1]]);
        assert_eq!(bfs(n[0], n[0]).unwrap(), Vec::<LinkId>::new());
        // No reverse links exist.
        assert!(bfs(n[2], n[0]).is_none());
    }

    #[test]
    fn bfs_avoiding_detours_around_blocked_links() {
        // Diamond: a -> b -> d and a -> c -> d. Blocking a->b forces
        // the c detour; blocking both a-exits disconnects d.
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Npu, "a");
        let b = t.add_node(NodeKind::Npu, "b");
        let c = t.add_node(NodeKind::Npu, "c");
        let d = t.add_node(NodeKind::Npu, "d");
        let ab = t.add_link(a, b, 100.0, 0.0);
        let bd = t.add_link(b, d, 100.0, 0.0);
        let ac = t.add_link(a, c, 100.0, 0.0);
        let cd = t.add_link(c, d, 100.0, 0.0);
        assert_eq!(
            t.shortest_path_avoiding(a, d, |l| l == ab),
            Some(vec![ac, cd])
        );
        assert_eq!(
            t.shortest_path_avoiding(a, d, |_| false),
            Some(vec![ab, bd])
        );
        assert_eq!(t.shortest_path_avoiding(a, d, |l| l == ab || l == ac), None);
    }

    #[test]
    fn nodes_of_kind_filters() {
        let mut t = Topology::new();
        t.add_node(NodeKind::Npu, "a");
        let s = t.add_node(NodeKind::SwitchL1, "s");
        t.add_node(NodeKind::Npu, "b");
        assert_eq!(t.nodes_of_kind(NodeKind::SwitchL1), vec![s]);
        assert_eq!(t.nodes_of_kind(NodeKind::Npu).len(), 2);
        assert!(NodeKind::SwitchL2.is_switch());
        assert!(!NodeKind::Npu.is_switch());
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_link_panics() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Npu, "a");
        let b = t.add_node(NodeKind::Npu, "b");
        t.add_link(a, b, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Npu, "a");
        t.add_link(a, a, 1.0, 0.0);
    }
}
