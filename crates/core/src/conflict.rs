//! Conflict graphs and exact graph colouring (§5.2–§5.3, Fig 7i–j).
//!
//! Two flows *conflict* at a recursion level when they share an input
//! unit or an output unit: the unit has exactly one link to each middle
//! subnetwork, so conflicting flows must be routed through different
//! middles. FRED expresses this as graph colouring with m colours; a
//! *routing conflict* (Fig 7j) is an uncolourable conflict graph.
//!
//! Colouring is exact: DSATUR ordering with full backtracking. The
//! graphs are tiny (one node per concurrent flow), so exactness is
//! cheap, and it matters — the paper defines "conflict" as the
//! *non-existence* of a colouring, not as the failure of a greedy
//! heuristic. A greedy colouring is also provided for the ablation study
//! in the benchmark harness.

use std::collections::BTreeSet;
use std::fmt;

use crate::flow::Flow;
use crate::interconnect::PortUnit;

/// An undirected conflict graph over the flows of one routing phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictGraph {
    adj: Vec<BTreeSet<usize>>,
}

impl ConflictGraph {
    /// Builds the conflict graph for `flows` at a stage with `r` full
    /// units (ports 2k, 2k+1) plus an optional tail port.
    ///
    /// `unit_of` maps an external port number to its unit.
    pub fn from_flows(flows: &[Flow], unit_of: impl Fn(usize) -> PortUnit) -> ConflictGraph {
        let n = flows.len();
        let mut adj = vec![BTreeSet::new(); n];
        // For each unit, the set of flows touching it on the input
        // (resp. output) side.
        let mut in_units: std::collections::HashMap<usize, Vec<usize>> = Default::default();
        let mut out_units: std::collections::HashMap<usize, Vec<usize>> = Default::default();
        for (i, f) in flows.iter().enumerate() {
            let mut seen_in = BTreeSet::new();
            for &p in f.ips() {
                if let PortUnit::Unit(k) = unit_of(p) {
                    if seen_in.insert(k) {
                        in_units.entry(k).or_default().push(i);
                    }
                }
            }
            let mut seen_out = BTreeSet::new();
            for &p in f.ops() {
                if let PortUnit::Unit(k) = unit_of(p) {
                    if seen_out.insert(k) {
                        out_units.entry(k).or_default().push(i);
                    }
                }
            }
        }
        for members in in_units.values().chain(out_units.values()) {
            for (a, &i) in members.iter().enumerate() {
                for &j in &members[a + 1..] {
                    adj[i].insert(j);
                    adj[j].insert(i);
                }
            }
        }
        ConflictGraph { adj }
    }

    /// Number of nodes (flows).
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Neighbours of node `i`.
    pub fn neighbors(&self, i: usize) -> &BTreeSet<usize> {
        &self.adj[i]
    }

    /// Exact colouring with at most `colors` colours.
    ///
    /// Returns one colour per node, or `None` if no proper colouring
    /// exists. Uses DSATUR ordering with backtracking, which is exact.
    pub fn color(&self, colors: usize) -> Option<Vec<usize>> {
        let n = self.adj.len();
        if n == 0 {
            return Some(Vec::new());
        }
        if colors == 0 {
            return None;
        }
        let mut assignment: Vec<Option<usize>> = vec![None; n];
        if self.backtrack(colors, &mut assignment) {
            Some(
                assignment
                    .into_iter()
                    .map(|c| c.expect("complete colouring"))
                    .collect(),
            )
        } else {
            None
        }
    }

    fn backtrack(&self, colors: usize, assignment: &mut Vec<Option<usize>>) -> bool {
        // DSATUR: pick the uncoloured node with the most distinctly
        // coloured neighbours (break ties by degree, then index).
        let pick = (0..self.adj.len())
            .filter(|&i| assignment[i].is_none())
            .max_by_key(|&i| {
                let sat: BTreeSet<usize> =
                    self.adj[i].iter().filter_map(|&j| assignment[j]).collect();
                (sat.len(), self.adj[i].len(), usize::MAX - i)
            });
        let Some(i) = pick else { return true };
        let forbidden: BTreeSet<usize> =
            self.adj[i].iter().filter_map(|&j| assignment[j]).collect();
        for c in 0..colors {
            if !forbidden.contains(&c) {
                assignment[i] = Some(c);
                if self.backtrack(colors, assignment) {
                    return true;
                }
                assignment[i] = None;
            }
        }
        false
    }

    /// Greedy first-fit colouring in index order; may fail on graphs the
    /// exact solver can colour. Used by the ablation bench.
    pub fn greedy_color(&self, colors: usize) -> Option<Vec<usize>> {
        let mut out = Vec::with_capacity(self.adj.len());
        for i in 0..self.adj.len() {
            let forbidden: BTreeSet<usize> = self.adj[i]
                .iter()
                .filter(|&&j| j < i)
                .map(|&j| out[j])
                .collect();
            let c = (0..colors).find(|c| !forbidden.contains(c))?;
            out.push(c);
        }
        Some(out)
    }
}

/// A routing conflict: the conflict graph at some recursion level cannot
/// be coloured with the available middle subnetworks (Fig 7j).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingConflict {
    /// Port count of the (sub)network where colouring failed.
    pub ports: usize,
    /// Number of middle subnetworks (colours) available.
    pub m: usize,
    /// Number of flows that had to be coloured.
    pub flows: usize,
    /// Recursion depth (0 = outermost switch level).
    pub depth: usize,
}

impl fmt::Display for RoutingConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "routing conflict: {} flows on Fred{}({}) at depth {} cannot be {}-coloured",
            self.flows, self.m, self.ports, self.depth, self.m
        )
    }
}

impl std::error::Error for RoutingConflict {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Flow;

    fn unit_of_even(r: usize) -> impl Fn(usize) -> PortUnit {
        move |p| {
            assert!(p < 2 * r);
            PortUnit::Unit(p / 2)
        }
    }

    #[test]
    fn disjoint_flows_have_no_edges() {
        let flows = vec![
            Flow::all_reduce([0, 1]).unwrap(),
            Flow::all_reduce([2, 3]).unwrap(),
        ];
        let g = ConflictGraph::from_flows(&flows, unit_of_even(4));
        assert_eq!(g.len(), 2);
        assert!(g.neighbors(0).is_empty() && g.neighbors(1).is_empty());
    }

    #[test]
    fn shared_input_unit_creates_edge() {
        // Ports 0 and 1 share unit 0.
        let flows = vec![Flow::unicast(0, 4), Flow::unicast(1, 6)];
        let g = ConflictGraph::from_flows(&flows, unit_of_even(4));
        assert!(g.neighbors(0).contains(&1) && g.neighbors(1).contains(&0));
    }

    #[test]
    fn shared_output_unit_creates_edge() {
        let flows = vec![Flow::unicast(0, 4), Flow::unicast(2, 5)];
        let g = ConflictGraph::from_flows(&flows, unit_of_even(4));
        assert!(g.neighbors(0).contains(&1) && g.neighbors(1).contains(&0));
    }

    #[test]
    fn tail_port_never_conflicts() {
        // Port 8 is the tail on Fred(9): r = 4.
        let unit_of = |p: usize| {
            if p == 8 {
                PortUnit::Tail
            } else {
                PortUnit::Unit(p / 2)
            }
        };
        let flows = vec![Flow::unicast(8, 0), Flow::unicast(1, 2)];
        let g = ConflictGraph::from_flows(&flows, unit_of);
        assert!(g.neighbors(0).is_empty());
    }

    #[test]
    fn triangle_needs_three_colors() {
        // Fig 7(j): a cyclic dependency among three flows.
        let mut g = ConflictGraph {
            adj: vec![BTreeSet::new(); 3],
        };
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            g.adj[a].insert(b);
            g.adj[b].insert(a);
        }
        assert!(g.color(2).is_none());
        let c = g.color(3).unwrap();
        assert_ne!(c[0], c[1]);
        assert_ne!(c[1], c[2]);
        assert_ne!(c[0], c[2]);
    }

    #[test]
    fn even_cycle_is_two_colorable() {
        let mut g = ConflictGraph {
            adj: vec![BTreeSet::new(); 4],
        };
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            g.adj[a].insert(b);
            g.adj[b].insert(a);
        }
        let c = g.color(2).unwrap();
        for i in 0..4 {
            for &j in g.neighbors(i) {
                assert_ne!(c[i], c[j]);
            }
        }
    }

    #[test]
    fn exact_beats_greedy_on_crown_like_graph() {
        // Path coloured badly by greedy order: nodes 0-2 adjacent to 3 in
        // a pattern where first-fit wastes colours. Construct the classic
        // greedy-failure: bipartite graph with "crossed" edges.
        // Nodes 0,1,2,3: edges (0,3),(1,2). Greedy in index order with
        // 2 colours: 0->c0, 1->c0, 2->c1, 3->c1: proper. Make it fail:
        // edges (0,1'),(1,0') style needs 6 nodes.
        let mut g = ConflictGraph {
            adj: vec![BTreeSet::new(); 6],
        };
        // Bipartite: {0,2,4} vs {1,3,5}, edges (0,3),(0,5),(2,1),(2,5),(4,1),(4,3).
        for (a, b) in [(0, 3), (0, 5), (2, 1), (2, 5), (4, 1), (4, 3)] {
            g.adj[a].insert(b);
            g.adj[b].insert(a);
        }
        // Greedy (index order) gives 0->0, 1->0, 2->1, 3->1, 4->2: fails with 2.
        assert!(g.greedy_color(2).is_none());
        // Exact succeeds (the graph is bipartite).
        assert!(g.color(2).is_some());
    }

    #[test]
    fn empty_graph_colors_trivially() {
        let g = ConflictGraph { adj: vec![] };
        assert_eq!(g.color(2), Some(vec![]));
        assert!(g.is_empty());
    }

    /// Brute-force oracle: tries every assignment.
    fn colorable_brute(g: &ConflictGraph, colors: usize) -> bool {
        let n = g.len();
        if n == 0 {
            return true;
        }
        let mut assignment = vec![0usize; n];
        loop {
            let proper = (0..n).all(|i| {
                g.neighbors(i)
                    .iter()
                    .all(|&j| assignment[i] != assignment[j])
            });
            if proper {
                return true;
            }
            // Increment the mixed-radix counter.
            let mut k = 0;
            loop {
                if k == n {
                    return false;
                }
                assignment[k] += 1;
                if assignment[k] < colors {
                    break;
                }
                assignment[k] = 0;
                k += 1;
            }
        }
    }

    #[test]
    fn dsatur_matches_brute_force_on_small_graphs() {
        // Exhaustive cross-check on all graphs over 5 nodes with a
        // deterministic edge-set sweep.
        for mask in 0u32..1024 {
            let mut g = ConflictGraph {
                adj: vec![BTreeSet::new(); 5],
            };
            let mut bit = 0;
            for a in 0..5usize {
                for b in a + 1..5 {
                    if mask & (1 << bit) != 0 {
                        g.adj[a].insert(b);
                        g.adj[b].insert(a);
                    }
                    bit += 1;
                }
            }
            for colors in 2..=3usize {
                let exact = g.color(colors).is_some();
                let brute = colorable_brute(&g, colors);
                assert_eq!(exact, brute, "mask {mask:#b}, {colors} colours");
                if let Some(c) = g.color(colors) {
                    for i in 0..5 {
                        for &j in g.neighbors(i) {
                            assert_ne!(c[i], c[j]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn coloring_respects_all_edges_property() {
        // Random-ish stress: ring of 7 with chords, 3 colours.
        let mut g = ConflictGraph {
            adj: vec![BTreeSet::new(); 7],
        };
        for i in 0..7 {
            let j = (i + 1) % 7;
            g.adj[i].insert(j);
            g.adj[j].insert(i);
        }
        let c = g.color(3).unwrap();
        for i in 0..7 {
            for &j in g.neighbors(i) {
                assert_ne!(c[i], c[j], "edge ({i},{j}) monochromatic");
            }
        }
        // An odd cycle is not 2-colourable.
        assert!(g.color(2).is_none());
    }
}
