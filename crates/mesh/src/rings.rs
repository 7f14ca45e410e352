//! Logical-ring embedding on the mesh (§7.2, §3.2.3).
//!
//! For collectives among arbitrary NPU subsets the baseline "builds
//! logical rings between involved NPUs and performs the ring algorithm".
//! The ring order matters: a bad order inflates hop counts and creates
//! the congestion of Fig 6. We use the *snake* (boustrophedon) order —
//! row-major with alternating row direction — which is the standard
//! Hamiltonian embedding on meshes and degrades gracefully for sparse,
//! non-aligned groups.

use crate::topology::MeshFabric;
use fred_collectives::plan::CommPlan;
use fred_collectives::ring::{self, Direction};

/// Orders `group` along the mesh snake: even rows left→right, odd rows
/// right→left. Consecutive members are as close as the group's shape
/// allows; for a full mesh this is a Hamiltonian ring with unit hops
/// (except the closing edge).
pub fn snake_order(mesh: &MeshFabric, group: &[usize]) -> Vec<usize> {
    let mut ordered: Vec<usize> = group.to_vec();
    ordered.sort_by_key(|&n| {
        let (x, y) = mesh.coords(n);
        let xx = if y % 2 == 0 { x } else { mesh.cols() - 1 - x };
        (y, xx)
    });
    ordered.dedup();
    ordered
}

/// A Hamiltonian cycle over the full mesh with unit hops everywhere —
/// the embedding the baseline's wafer-wide ring collectives use so that
/// both directions of every traversed link carry exactly one of the two
/// reverse-circulating chunks (§7.2). Exists whenever either dimension
/// is even; returns `None` otherwise (odd×odd grids have no Hamiltonian
/// cycle).
pub fn hamiltonian_order(mesh: &MeshFabric) -> Option<Vec<usize>> {
    let (cols, rows) = (mesh.cols(), mesh.rows());
    // Construct for even row count; transpose logically otherwise.
    let (c, r, transposed) = if rows % 2 == 0 {
        (cols, rows, false)
    } else if cols % 2 == 0 {
        (rows, cols, true)
    } else {
        return None;
    };
    let at = |x: usize, y: usize| {
        if transposed {
            mesh.npu_at(y, x)
        } else {
            mesh.npu_at(x, y)
        }
    };
    let mut order = Vec::with_capacity(c * r);
    // Across the top row, then snake rows 1..r-1 over columns 1..c-1,
    // then return up column 0.
    for x in 0..c {
        order.push(at(x, 0));
    }
    for y in 1..r {
        if y % 2 == 1 {
            for x in (1..c).rev() {
                order.push(at(x, y));
            }
        } else {
            for x in 1..c {
                order.push(at(x, y));
            }
        }
    }
    for y in (1..r).rev() {
        order.push(at(0, y));
    }
    Some(order)
}

/// Total X-Y hop count around the ring `order` (a congestion proxy used
/// by the Fig 6 analysis).
pub fn ring_hop_count(mesh: &MeshFabric, order: &[usize]) -> usize {
    if order.len() < 2 {
        return 0;
    }
    (0..order.len())
        .map(|i| mesh.xy_route(order[i], order[(i + 1) % order.len()]).len())
        .sum()
}

/// Ring All-Reduce among `group` on the mesh, snake-ordered, with the
/// paper's two reverse-direction chunks.
///
/// # Panics
///
/// Panics if `group` is empty.
pub fn all_reduce(mesh: &MeshFabric, group: &[usize], bytes: f64) -> CommPlan {
    ring::all_reduce(
        &snake_order(mesh, group),
        bytes,
        Direction::Bidirectional,
        mesh,
    )
}

/// Ring Reduce-Scatter among `group`.
///
/// # Panics
///
/// Panics if `group` is empty.
pub fn reduce_scatter(mesh: &MeshFabric, group: &[usize], bytes: f64) -> CommPlan {
    ring::reduce_scatter(
        &snake_order(mesh, group),
        bytes,
        Direction::Bidirectional,
        mesh,
    )
}

/// Ring All-Gather among `group`.
///
/// # Panics
///
/// Panics if `group` is empty.
pub fn all_gather(mesh: &MeshFabric, group: &[usize], bytes: f64) -> CommPlan {
    ring::all_gather(
        &snake_order(mesh, group),
        bytes,
        Direction::Bidirectional,
        mesh,
    )
}

/// All-to-All among `group`, X-Y routed shift permutations.
///
/// # Panics
///
/// Panics if `group` is empty.
pub fn all_to_all(mesh: &MeshFabric, group: &[usize], bytes: f64) -> CommPlan {
    ring::all_to_all(&snake_order(mesh, group), bytes, mesh)
}

/// The wafer-wide All-Reduce of the baseline (§7.2, Kumar & Jouppi):
/// the full mesh is traversed as a unit-hop Hamiltonian cycle and the
/// ring algorithm circulates **two chunks in reverse directions**, so
/// both directions of every cycle link stay busy — bounding effective
/// per-NPU bandwidth at 2 links × 750 GBps = 1.5 TBps, the corner-NPU
/// limit of §8.1.
///
/// Falls back to the snake ring when `group` is not the full mesh (the
/// non-aligned congestion of §3.2.3) or no Hamiltonian cycle exists.
pub fn wafer_all_reduce(mesh: &MeshFabric, group: &[usize], bytes: f64) -> CommPlan {
    if group.len() == mesh.npu_count() {
        if let Some(order) = hamiltonian_order(mesh) {
            return ring::all_reduce(&order, bytes, Direction::Bidirectional, mesh);
        }
    }
    all_reduce(mesh, group, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snake_order_unit_hops_on_full_mesh() {
        let m = MeshFabric::paper_baseline();
        let group: Vec<usize> = (0..20).collect();
        let order = snake_order(&m, &group);
        assert_eq!(order.len(), 20);
        // All consecutive hops are 1 except the closing edge (3 hops:
        // from (0,3) back to (0,0)).
        for w in order.windows(2) {
            assert_eq!(m.xy_route(w[0], w[1]).len(), 1, "{} -> {}", w[0], w[1]);
        }
        assert_eq!(ring_hop_count(&m, &order), 19 + 3);
    }

    #[test]
    fn snake_order_on_sparse_group() {
        let m = MeshFabric::paper_baseline();
        // The non-aligned MP(5)-DP(3) shapes of Fig 6 produce groups like
        // this; the snake order still yields a ring, just with >1 hops.
        let group = vec![0, 1, 2, 3, 4, 5, 6]; // first MP group of MP(7)
        let order = snake_order(&m, &group);
        assert_eq!(order.len(), 7);
        assert!(ring_hop_count(&m, &order) >= 7);
    }

    #[test]
    fn hamiltonian_cycle_has_unit_hops() {
        for (c, r) in [(5usize, 4usize), (4, 4), (4, 3), (6, 5), (2, 2)] {
            let m = MeshFabric::new(c, r, 1e9, 1e8, 0.0);
            let order = hamiltonian_order(&m)
                .unwrap_or_else(|| panic!("{c}x{r} should have a Hamiltonian cycle"));
            assert_eq!(order.len(), c * r, "{c}x{r}: visits every NPU once");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..c * r).collect::<Vec<_>>());
            for i in 0..order.len() {
                let j = (i + 1) % order.len();
                assert_eq!(
                    m.xy_route(order[i], order[j]).len(),
                    1,
                    "{c}x{r}: hop {} -> {} not unit",
                    order[i],
                    order[j]
                );
            }
        }
        // Odd x odd has no Hamiltonian cycle.
        let m = MeshFabric::new(3, 3, 1e9, 1e8, 0.0);
        assert!(hamiltonian_order(&m).is_none());
    }

    #[test]
    fn wafer_all_reduce_uses_hamiltonian_ring() {
        let m = MeshFabric::paper_baseline();
        let group: Vec<usize> = (0..20).collect();
        let plan = wafer_all_reduce(&m, &group, 1e6);
        assert_eq!(plan.label, "ring-allreduce");
        // Ring of 20: 2*(20-1) phases.
        assert_eq!(plan.phase_count(), 38);
    }

    #[test]
    fn partial_group_falls_back_to_ring() {
        let m = MeshFabric::paper_baseline();
        let plan = wafer_all_reduce(&m, &[0, 1, 2, 5, 6, 7], 1e6);
        assert_eq!(plan.label, "ring-allreduce");
    }

    #[test]
    fn all_to_all_routes_on_mesh() {
        let m = MeshFabric::paper_baseline();
        let plan = all_to_all(&m, &[0, 4, 15, 19], 4e6);
        assert_eq!(plan.phase_count(), 3);
        for p in &plan.phases {
            for t in &p.transfers {
                m.topology().validate_route(&t.route).unwrap();
            }
        }
    }
}
