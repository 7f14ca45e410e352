//! Closed-form α-β cost models (§2.2, §8.1).
//!
//! These formulas are the paper's own analytical vocabulary (per-NPU
//! traffic, effective bandwidth) expressed as code. They serve as test
//! oracles for the flow-level simulator: the integration tests check
//! that simulated collective durations match these expressions on
//! contention-free topologies.

/// Per-endpoint traffic of an endpoint-based (ring) All-Reduce of `d`
/// bytes among `n` endpoints: `2(n−1)/n · d` (§2.2).
pub fn endpoint_all_reduce_traffic(n: usize, d: f64) -> f64 {
    if n <= 1 {
        0.0
    } else {
        2.0 * (n as f64 - 1.0) / n as f64 * d
    }
}

/// Per-endpoint traffic of an in-network All-Reduce: exactly `d` bytes
/// sent (and received) regardless of group size (§2.2).
pub fn in_network_all_reduce_traffic(_n: usize, d: f64) -> f64 {
    d
}

/// Duration of a ring All-Reduce of `d` bytes among `n` endpoints when
/// each endpoint sustains `bw` bytes/s, plus `alpha` seconds of
/// per-phase latency over the `2(n−1)` phases.
pub fn ring_all_reduce_time(n: usize, d: f64, bw: f64, alpha: f64) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let phases = 2.0 * (n as f64 - 1.0);
    endpoint_all_reduce_traffic(n, d) / bw + phases * alpha
}

/// Duration of a ring Reduce-Scatter (or All-Gather): `(n−1)/n · d`
/// bytes per endpoint at `bw`, `n − 1` phases of latency `alpha`.
pub fn ring_reduce_scatter_time(n: usize, d: f64, bw: f64, alpha: f64) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    (n as f64 - 1.0) / n as f64 * d / bw + (n as f64 - 1.0) * alpha
}

/// Duration of an in-network All-Reduce: `d` bytes through the
/// narrowest link on the up/down tree path, plus one round of latency.
pub fn in_network_all_reduce_time(d: f64, bottleneck_bw: f64, alpha: f64) -> f64 {
    d / bottleneck_bw + alpha
}

/// Duration of a two-level hierarchical ring All-Reduce: `g` clusters
/// of `n` endpoints, intra-cluster bandwidth `bw_intra`, per-endpoint
/// inter-cluster bandwidth `bw_inter` (§8.1's Fred-A/Fred-C analysis).
///
/// intra-RS + intra-AG move `2(n−1)/n · d` at `bw_intra`; the inter
/// phase moves `2(g−1)/g · d/n` at `bw_inter`.
pub fn hierarchical_all_reduce_time(
    g: usize,
    n: usize,
    d: f64,
    bw_intra: f64,
    bw_inter: f64,
    alpha: f64,
) -> f64 {
    if g <= 1 {
        return ring_all_reduce_time(n, d, bw_intra, alpha);
    }
    if n <= 1 {
        return ring_all_reduce_time(g, d, bw_inter, alpha);
    }
    let intra = endpoint_all_reduce_traffic(n, d) / bw_intra;
    let inter = endpoint_all_reduce_traffic(g, d / n as f64) / bw_inter;
    let phases = 2.0 * (n as f64 - 1.0) + 2.0 * (g as f64 - 1.0);
    intra + inter + phases * alpha
}

/// The paper's "effective NPU bandwidth utilisation" metric (§8.1):
/// bytes each NPU must send under the algorithm divided by the
/// collective's duration.
pub fn effective_npu_bw(per_npu_traffic: f64, duration_secs: f64) -> f64 {
    if duration_secs <= 0.0 {
        f64::INFINITY
    } else {
        per_npu_traffic / duration_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_formulas() {
        assert!((endpoint_all_reduce_traffic(20, 1e9) - 1.9e9).abs() < 1.0);
        assert_eq!(endpoint_all_reduce_traffic(1, 1e9), 0.0);
        assert_eq!(in_network_all_reduce_traffic(20, 1e9), 1e9);
        // The ~2x traffic gap that motivates in-network execution.
        let ratio = endpoint_all_reduce_traffic(20, 1.0) / in_network_all_reduce_traffic(20, 1.0);
        assert!(ratio > 1.8 && ratio < 2.0);
    }

    #[test]
    fn ring_time_zero_latency() {
        // 4 nodes, 400 B, 100 B/s: 2*3 phases * 100B/4 / 100 = 6 s.
        assert!((ring_all_reduce_time(4, 400.0, 100.0, 0.0) - 6.0).abs() < 1e-12);
        assert_eq!(ring_all_reduce_time(1, 400.0, 100.0, 0.0), 0.0);
    }

    #[test]
    fn ring_time_includes_alpha_term() {
        let t = ring_all_reduce_time(4, 0.0, 100.0, 1e-6);
        assert!((t - 6e-6).abs() < 1e-15);
        let t = ring_reduce_scatter_time(4, 0.0, 100.0, 1e-6);
        assert!((t - 3e-6).abs() < 1e-15);
    }

    #[test]
    fn hierarchical_matches_section_8_1_fred_a() {
        // Fig 9 left (wafer-wide AR): 5 clusters of 4, NPU-L1 3 TBps,
        // NPU-L2 share 375 GBps. Effective-BW shape: far below Fred-D's
        // 3 TBps, in the same decade as the baseline's 1.5 TBps.
        let d = 1e9;
        let t = hierarchical_all_reduce_time(5, 4, d, 3e12, 375e9, 0.0);
        let eff = effective_npu_bw(endpoint_all_reduce_traffic(20, d), t);
        assert!(eff > 0.8e12 && eff < 2.5e12, "eff = {eff:.3e}");
        // Fred-C: inter share rises to 3 TBps; effective BW ~3 TBps.
        let t = hierarchical_all_reduce_time(5, 4, d, 3e12, 3e12, 0.0);
        let eff = effective_npu_bw(endpoint_all_reduce_traffic(20, d), t);
        assert!(eff > 2.5e12 && eff < 3.5e12, "eff = {eff:.3e}");
    }

    #[test]
    fn in_network_beats_endpoint_at_equal_bandwidth() {
        let d = 1e9;
        let endpoint = ring_all_reduce_time(20, d, 3e12, 0.0);
        let in_net = in_network_all_reduce_time(d, 3e12, 0.0);
        assert!(in_net < endpoint);
        assert!((endpoint / in_net - 1.9).abs() < 0.01);
    }

    #[test]
    fn degenerate_hierarchies() {
        let flat = ring_all_reduce_time(6, 600.0, 10.0, 0.0);
        assert_eq!(
            hierarchical_all_reduce_time(1, 6, 600.0, 10.0, 99.0, 0.0),
            flat
        );
        let inter_only = ring_all_reduce_time(6, 600.0, 10.0, 0.0);
        assert_eq!(
            hierarchical_all_reduce_time(6, 1, 600.0, 99.0, 10.0, 0.0),
            inter_only
        );
    }
}
