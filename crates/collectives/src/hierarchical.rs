//! Two-level hierarchical collectives (§7.2).
//!
//! Fred-A/Fred-C run a *hierarchical 2-level ring* (BlueConnect-style,
//! Cho et al.): Reduce-Scatter inside each L1 cluster, an All-Reduce
//! ring across clusters for each shard position, then All-Gather inside
//! each cluster — reducing L1–L2 traffic. Every ring here is
//! unidirectional.
//!
//! The generic composition here takes an arbitrary partition of the
//! group into equal-size clusters. Unequal partitions fall back to a
//! flat ring (correct, if slower), which matches how non-aligned groups
//! degrade on rigid hierarchies (§3.2.3).

use crate::plan::{CommPlan, Phase, RouteProvider};
use crate::ring::{self, Direction};

/// Every ring of the composition runs one way round.
const DIRECTION: Direction = Direction::Unidirectional;

/// Merges plans that execute concurrently into one plan, aligning them
/// phase by phase (shorter plans simply stop participating).
pub fn merge_concurrent(label: &str, plans: Vec<CommPlan>) -> CommPlan {
    let mut merged = CommPlan::new(label);
    let depth = plans.iter().map(CommPlan::phase_count).max().unwrap_or(0);
    for k in 0..depth {
        let mut phase = Phase::default();
        for plan in &plans {
            if let Some(p) = plan.phases.get(k) {
                phase.transfers.extend(p.transfers.iter().cloned());
            }
        }
        merged.phases.push(phase);
    }
    merged
}

/// Hierarchical All-Reduce of `bytes` over `clusters` (a partition of
/// the group).
///
/// ```
/// use fred_collectives::hierarchical::all_reduce;
/// use fred_sim::topology::Route;
///
/// let clusters = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
/// let routes = |_s: usize, _d: usize| -> Route { vec![] };
/// let plan = all_reduce(&clusters, 800.0, &routes);
/// // intra RS (3) + inter AR (2) + intra AG (3)
/// assert_eq!(plan.phase_count(), 8);
/// ```
///
/// With `G` equal clusters of `n` members each:
///
/// 1. `n − 1` phases: ring Reduce-Scatter inside every cluster
///    (concurrently);
/// 2. `2(G − 1)` phases: for every shard position `j`, a ring All-Reduce
///    of the `D/n` shard across the clusters' `j`-th members (all `n`
///    position-rings concurrently);
/// 3. `n − 1` phases: ring All-Gather inside every cluster.
///
/// A single cluster degenerates to a plain ring All-Reduce. Unequal
/// cluster sizes fall back to a flat ring over the concatenation.
///
/// # Panics
///
/// Panics if `clusters` is empty or any cluster is empty.
pub fn all_reduce(clusters: &[Vec<usize>], bytes: f64, routes: &impl RouteProvider) -> CommPlan {
    assert!(!clusters.is_empty(), "cluster partition must not be empty");
    assert!(
        clusters.iter().all(|c| !c.is_empty()),
        "clusters must not be empty"
    );
    if clusters.len() == 1 {
        return ring::all_reduce(&clusters[0], bytes, DIRECTION, routes);
    }
    let n = clusters[0].len();
    if clusters.iter().any(|c| c.len() != n) {
        // Non-aligned partition: flat ring fallback.
        let flat: Vec<usize> = clusters.iter().flatten().copied().collect();
        let mut plan = ring::all_reduce(&flat, bytes, DIRECTION, routes);
        plan.label = "hier-allreduce-flat-fallback".into();
        return plan;
    }

    // 1. Intra-cluster Reduce-Scatter.
    let intra_rs = merge_concurrent(
        "hier-intra-rs",
        clusters
            .iter()
            .map(|c| ring::reduce_scatter(c, bytes, DIRECTION, routes))
            .collect(),
    );
    // 2. Inter-cluster All-Reduce per shard position.
    let shard = bytes / n as f64;
    let inter = merge_concurrent(
        "hier-inter-ar",
        (0..n)
            .map(|j| {
                let position_ring: Vec<usize> = clusters.iter().map(|c| c[j]).collect();
                ring::all_reduce(&position_ring, shard, DIRECTION, routes)
            })
            .collect(),
    );
    // 3. Intra-cluster All-Gather.
    let intra_ag = merge_concurrent(
        "hier-intra-ag",
        clusters
            .iter()
            .map(|c| ring::all_gather(c, bytes, DIRECTION, routes))
            .collect(),
    );

    let mut plan = intra_rs.chain(inter).chain(intra_ag);
    plan.label = "hier-allreduce".into();
    plan
}

/// Hierarchical Reduce-Scatter: intra-cluster Reduce-Scatter followed by
/// inter-cluster Reduce-Scatter per shard position. Used by ZeRO-style
/// DP sharding on the tree.
///
/// # Panics
///
/// Panics if `clusters` is empty or any cluster is empty; unequal
/// clusters fall back to a flat ring.
pub fn reduce_scatter(
    clusters: &[Vec<usize>],
    bytes: f64,
    routes: &impl RouteProvider,
) -> CommPlan {
    assert!(!clusters.is_empty() && clusters.iter().all(|c| !c.is_empty()));
    if clusters.len() == 1 {
        return ring::reduce_scatter(&clusters[0], bytes, DIRECTION, routes);
    }
    let n = clusters[0].len();
    if clusters.iter().any(|c| c.len() != n) {
        let flat: Vec<usize> = clusters.iter().flatten().copied().collect();
        return ring::reduce_scatter(&flat, bytes, DIRECTION, routes);
    }
    let intra = merge_concurrent(
        "hier-intra-rs",
        clusters
            .iter()
            .map(|c| ring::reduce_scatter(c, bytes, DIRECTION, routes))
            .collect(),
    );
    let shard = bytes / n as f64;
    let inter = merge_concurrent(
        "hier-inter-rs",
        (0..n)
            .map(|j| {
                let position_ring: Vec<usize> = clusters.iter().map(|c| c[j]).collect();
                ring::reduce_scatter(&position_ring, shard, DIRECTION, routes)
            })
            .collect(),
    );
    let mut plan = intra.chain(inter);
    plan.label = "hier-reduce-scatter".into();
    plan
}

/// Hierarchical All-Gather: the mirror of [`reduce_scatter`].
///
/// # Panics
///
/// Panics if `clusters` is empty or any cluster is empty.
pub fn all_gather(clusters: &[Vec<usize>], bytes: f64, routes: &impl RouteProvider) -> CommPlan {
    assert!(!clusters.is_empty() && clusters.iter().all(|c| !c.is_empty()));
    if clusters.len() == 1 {
        return ring::all_gather(&clusters[0], bytes, DIRECTION, routes);
    }
    let n = clusters[0].len();
    if clusters.iter().any(|c| c.len() != n) {
        let flat: Vec<usize> = clusters.iter().flatten().copied().collect();
        return ring::all_gather(&flat, bytes, DIRECTION, routes);
    }
    let shard = bytes / n as f64;
    let inter = merge_concurrent(
        "hier-inter-ag",
        (0..n)
            .map(|j| {
                let position_ring: Vec<usize> = clusters.iter().map(|c| c[j]).collect();
                ring::all_gather(&position_ring, shard, DIRECTION, routes)
            })
            .collect(),
    );
    let intra = merge_concurrent(
        "hier-intra-ag",
        clusters
            .iter()
            .map(|c| ring::all_gather(c, bytes, DIRECTION, routes))
            .collect(),
    );
    let mut plan = inter.chain(intra);
    plan.label = "hier-allgather".into();
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_sim::topology::Route;

    fn no_routes() -> impl RouteProvider {
        |_s: usize, _d: usize| -> Route { vec![] }
    }

    #[test]
    fn phase_structure_for_equal_clusters() {
        // 2 clusters of 4: intra RS = 3, inter AR = 2*(2-1) = 2, intra AG = 3.
        let clusters = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
        let plan = all_reduce(&clusters, 800.0, &no_routes());
        assert_eq!(plan.phase_count(), 3 + 2 + 3);
        // Per-NPU traffic: intra 2*(3/4)*D + inter 2*(1/2)*(D/4).
        let per_npu = plan.bytes_sent_by(0);
        let expected = 2.0 * 0.75 * 800.0 + 2.0 * 0.5 * 200.0;
        assert!((per_npu - expected).abs() < 1e-9, "{per_npu} vs {expected}");
    }

    #[test]
    fn single_cluster_degenerates_to_ring() {
        let clusters = vec![vec![0, 1, 2]];
        let plan = all_reduce(&clusters, 300.0, &no_routes());
        assert_eq!(plan.label, "ring-allreduce");
        assert_eq!(plan.phase_count(), 4);
    }

    #[test]
    fn unequal_clusters_fall_back_to_flat_ring() {
        let clusters = vec![vec![0, 1], vec![2], vec![3, 4, 5]];
        let plan = all_reduce(&clusters, 600.0, &no_routes());
        assert_eq!(plan.label, "hier-allreduce-flat-fallback");
        // Flat ring over 6 members: 10 phases.
        assert_eq!(plan.phase_count(), 10);
    }

    #[test]
    fn merge_concurrent_aligns_phasewise() {
        let routes = no_routes();
        let a = ring::all_reduce(&[0, 1, 2], 30.0, Direction::Unidirectional, &routes);
        let b = ring::all_reduce(&[3, 4], 30.0, Direction::Unidirectional, &routes);
        let m = merge_concurrent("m", vec![a, b]);
        // a: 4 phases of 3 transfers; b: 2 phases of 2 transfers.
        assert_eq!(m.phase_count(), 4);
        assert_eq!(m.phases[0].transfers.len(), 5);
        assert_eq!(m.phases[3].transfers.len(), 3);
    }

    #[test]
    fn rs_and_ag_compose_to_ar_traffic() {
        let clusters = vec![vec![0, 1], vec![2, 3], vec![4, 5]];
        let d = 1200.0;
        let routes = no_routes();
        let rs = reduce_scatter(&clusters, d, &routes);
        let ag = all_gather(&clusters, d, &routes);
        let ar = all_reduce(&clusters, d, &routes);
        assert!((rs.total_bytes() + ag.total_bytes() - ar.total_bytes()).abs() < 1e-9);
    }

    #[test]
    fn position_rings_connect_matching_offsets() {
        let clusters = vec![vec![10, 11], vec![20, 21]];
        let plan = all_reduce(&clusters, 100.0, &no_routes());
        // Inter phases are after the single intra-RS phase (n-1 = 1).
        let inter = &plan.phases[1];
        for t in &inter.transfers {
            // Position rings pair 10<->20 and 11<->21, never 10<->21.
            assert_eq!(t.src % 10, t.dst % 10, "{} -> {}", t.src, t.dst);
        }
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_partition_rejected() {
        let _ = all_reduce(&[], 1.0, &no_routes());
    }
}
