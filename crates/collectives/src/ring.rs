//! Ring collective algorithms (§2.2, §7.2).
//!
//! The classic bandwidth-optimal endpoint algorithms: Reduce-Scatter and
//! All-Gather in `n − 1` steps of `D/n` bytes per endpoint, All-Reduce
//! as their composition (total traffic `2(n−1)/n · D` per endpoint —
//! the 2× overhead versus in-network execution that motivates FRED).
//!
//! For the mesh baseline the paper uses *two concurrent chunks in
//! reverse directions* to use both directions of every duplex link
//! (§7.2, following Kumar & Jouppi); [`Direction::Bidirectional`]
//! reproduces that.

use crate::plan::{CommPlan, Phase, RouteProvider, Transfer};

/// Chunk circulation scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Direction {
    /// One chunk circulating clockwise.
    Unidirectional,
    /// Two half-size chunks circulating in opposite directions,
    /// doubling link-direction utilisation on duplex topologies.
    #[default]
    Bidirectional,
}

fn ring_steps(
    label: &str,
    order: &[usize],
    bytes_per_step: f64,
    steps: usize,
    direction: Direction,
    routes: &impl RouteProvider,
) -> CommPlan {
    let n = order.len();
    let mut plan = CommPlan::new(label);
    // A 2-member "ring" has a single edge: clockwise and
    // counter-clockwise are the same link, so splitting the chunk
    // would just self-contend. Fall back to one full-size chunk.
    let direction = if n == 2 {
        Direction::Unidirectional
    } else {
        direction
    };
    // Every step sends over the same ring edges, in the same order: one
    // transfer per member, or two in opposite directions. Each edge's
    // route is asked for once and shared by all the steps.
    let edge = |src: usize, dst: usize, bytes: f64| Transfer {
        src,
        dst,
        bytes,
        route: routes.route(src, dst).into(),
    };
    let mut step = Phase::default();
    for i in 0..n {
        let (src, cw) = (order[i], order[(i + 1) % n]);
        match direction {
            Direction::Unidirectional => step.transfers.push(edge(src, cw, bytes_per_step)),
            Direction::Bidirectional => {
                let ccw = order[(i + n - 1) % n];
                step.transfers.push(edge(src, cw, bytes_per_step / 2.0));
                step.transfers.push(edge(src, ccw, bytes_per_step / 2.0));
            }
        }
    }
    plan.phases = vec![step; steps];
    plan
}

/// Ring Reduce-Scatter of `bytes` over `order`: `n − 1` steps of `D/n`.
///
/// # Panics
///
/// Panics if `order` is empty.
pub fn reduce_scatter(
    order: &[usize],
    bytes: f64,
    direction: Direction,
    routes: &impl RouteProvider,
) -> CommPlan {
    assert!(!order.is_empty(), "ring group must not be empty");
    let n = order.len();
    if n == 1 {
        return CommPlan::new("ring-reduce-scatter");
    }
    ring_steps(
        "ring-reduce-scatter",
        order,
        bytes / n as f64,
        n - 1,
        direction,
        routes,
    )
}

/// Ring All-Gather of `bytes` over `order`: `n − 1` steps of `D/n`.
///
/// # Panics
///
/// Panics if `order` is empty.
pub fn all_gather(
    order: &[usize],
    bytes: f64,
    direction: Direction,
    routes: &impl RouteProvider,
) -> CommPlan {
    assert!(!order.is_empty(), "ring group must not be empty");
    let n = order.len();
    if n == 1 {
        return CommPlan::new("ring-allgather");
    }
    ring_steps(
        "ring-allgather",
        order,
        bytes / n as f64,
        n - 1,
        direction,
        routes,
    )
}

/// Ring All-Reduce = Reduce-Scatter followed by All-Gather:
/// `2(n − 1)` steps, `2(n−1)/n · D` bytes sent per endpoint.
///
/// # Panics
///
/// Panics if `order` is empty.
pub fn all_reduce(
    order: &[usize],
    bytes: f64,
    direction: Direction,
    routes: &impl RouteProvider,
) -> CommPlan {
    let mut plan = reduce_scatter(order, bytes, direction, routes)
        .chain(all_gather(order, bytes, direction, routes));
    plan.label = "ring-allreduce".into();
    plan
}

/// All-to-All over `order`: `n − 1` shift steps; in step `j` endpoint
/// `i` sends its `D/n` shard to endpoint `i + j`.
///
/// # Panics
///
/// Panics if `order` is empty.
pub fn all_to_all(order: &[usize], bytes: f64, routes: &impl RouteProvider) -> CommPlan {
    assert!(!order.is_empty(), "group must not be empty");
    let n = order.len();
    let mut plan = CommPlan::new("all-to-all");
    if n == 1 {
        return plan;
    }
    let shard = bytes / n as f64;
    for j in 1..n {
        let mut phase = Phase::default();
        for i in 0..n {
            let (src, dst) = (order[i], order[(i + j) % n]);
            phase.transfers.push(Transfer {
                src,
                dst,
                bytes: shard,
                route: routes.route(src, dst).into(),
            });
        }
        plan.phases.push(phase);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_sim::topology::{NodeKind, Route, Topology};

    /// The links of a physical ring of `n` nodes with per-direction
    /// bandwidth `bw`; routes are single neighbour hops.
    struct RingTopo {
        cw: Vec<fred_sim::topology::LinkId>,
        ccw: Vec<fred_sim::topology::LinkId>,
        n: usize,
    }

    fn ring_topo(n: usize, bw: f64) -> RingTopo {
        let mut topo = Topology::new();
        let nodes: Vec<_> = (0..n)
            .map(|i| topo.add_node(NodeKind::Npu, format!("n{i}")))
            .collect();
        let mut cw = Vec::new();
        let mut ccw = Vec::new();
        for i in 0..n {
            let j = (i + 1) % n;
            let (f, r) = topo.add_duplex_link(nodes[i], nodes[j], bw, 0.0);
            cw.push(f);
            ccw.push(r);
        }
        RingTopo { cw, ccw, n }
    }

    impl RouteProvider for RingTopo {
        fn route(&self, src: usize, dst: usize) -> Route {
            if dst == (src + 1) % self.n {
                vec![self.cw[src]]
            } else if src == (dst + 1) % self.n {
                vec![self.ccw[dst]]
            } else {
                panic!("ring test only routes neighbours ({src} -> {dst})")
            }
        }
    }

    #[test]
    fn per_endpoint_traffic_is_2_n_minus_1_over_n() {
        let rt = ring_topo(5, 100.0);
        let order: Vec<usize> = (0..5).collect();
        let d = 1000.0;
        for dir in [Direction::Unidirectional, Direction::Bidirectional] {
            let plan = all_reduce(&order, d, dir, &rt);
            let per_npu = plan.bytes_sent_by(2);
            let expected = 2.0 * 4.0 / 5.0 * d;
            assert!(
                (per_npu - expected).abs() < 1e-6,
                "{dir:?}: {per_npu} vs {expected}"
            );
        }
    }

    #[test]
    fn reduce_scatter_and_all_gather_have_n_minus_1_phases() {
        let rt = ring_topo(6, 1.0);
        let order: Vec<usize> = (0..6).collect();
        assert_eq!(
            reduce_scatter(&order, 60.0, Direction::Unidirectional, &rt).phase_count(),
            5
        );
        assert_eq!(
            all_gather(&order, 60.0, Direction::Unidirectional, &rt).phase_count(),
            5
        );
    }

    #[test]
    fn singleton_groups_are_free() {
        let rt = ring_topo(3, 1.0);
        assert_eq!(
            all_reduce(&[1], 100.0, Direction::Unidirectional, &rt).phase_count(),
            0
        );
        assert_eq!(all_to_all(&[2], 100.0, &rt).phase_count(), 0);
    }

    #[test]
    fn all_to_all_shifts_by_distance() {
        let rt = ring_topo(4, 1.0);
        // Only check structure; routes need neighbours so use a full
        // route closure instead.
        let routes = |_s: usize, _d: usize| -> Route { vec![] };
        let plan = all_to_all(&[0, 1, 2, 3], 100.0, &routes);
        assert_eq!(plan.phase_count(), 3);
        for (jm1, phase) in plan.phases.iter().enumerate() {
            let j = jm1 + 1;
            for (i, t) in phase.transfers.iter().enumerate() {
                assert_eq!(t.src, i);
                assert_eq!(t.dst, (i + j) % 4);
                assert!((t.bytes - 25.0).abs() < 1e-12);
            }
        }
        drop(rt);
    }
}
