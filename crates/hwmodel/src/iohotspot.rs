//! The mesh I/O streaming hotspot analysis (§3.2.1, Fig 4).
//!
//! Closed-form version of the channel-load argument and the workspace's
//! one owner of the `(2N − 1)·P` law; the empirical counterpart
//! (simulated streaming on a concrete mesh) lives in
//! `fred-mesh::streaming`, whose tests and the integration tests
//! cross-check it against [`achievable_channel_rate`].

/// Per-link load profile of rightward row edges when all channels of an
/// `cols`-wide mesh stream simultaneously at rate `P`: the edge between
/// columns `x` and `x+1` carries `1 + 2(x+1)` streams (one facing-row
/// channel plus the top/bottom channels at columns ≤ x).
pub fn edge_load_profile(cols: usize) -> Vec<usize> {
    (0..cols.saturating_sub(1))
        .map(|x| 1 + 2 * (x + 1))
        .collect()
}

/// The hotspot multiplier: max of the load profile, `(2·cols − 1)`
/// (§3.2.1's `(2N − 1)P` law).
pub fn hotspot_multiplier(cols: usize) -> usize {
    edge_load_profile(cols).into_iter().max().unwrap_or(1)
}

/// Link bandwidth needed to stream every channel at full rate `p`
/// (bytes/s): `(2N − 1) · p`.
pub fn required_link_bw(cols: usize, p: f64) -> f64 {
    hotspot_multiplier(cols) as f64 * p
}

/// The achievable per-channel rate given `link_bw`:
/// `min(p, link_bw / (2N − 1))` (§3.2.1: "the I/O channel rate must be
/// scaled down proportionally").
pub fn achievable_channel_rate(cols: usize, p: f64, link_bw: f64) -> f64 {
    p.min(link_bw / hotspot_multiplier(cols) as f64)
}

/// One row of the Fig 4 analysis table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotspotRow {
    /// Mesh width N.
    pub cols: usize,
    /// Hotspot multiplier (2N − 1).
    pub multiplier: usize,
    /// Required link bandwidth for full line rate, bytes/s.
    pub required_bw: f64,
    /// Fraction of line rate achievable with the given link bandwidth.
    pub linerate_fraction: f64,
}

/// Sweeps mesh widths for the Fig 4 / §3.2.1 scaling table.
pub fn hotspot_sweep(widths: &[usize], p: f64, link_bw: f64) -> Vec<HotspotRow> {
    widths
        .iter()
        .map(|&cols| HotspotRow {
            cols,
            multiplier: hotspot_multiplier(cols),
            required_bw: required_link_bw(cols, p),
            linerate_fraction: (achievable_channel_rate(cols, p, link_bw) / p).min(1.0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4b_example() {
        // 4x4 mesh: hotspot 7P.
        assert_eq!(hotspot_multiplier(4), 7);
        assert_eq!(edge_load_profile(4), vec![3, 5, 7]);
    }

    #[test]
    fn baseline_gpt3_numbers() {
        // §8.2: (2*5-1) * 128 GBps = 1152 GBps required; with 750 GBps
        // links the channels run at 750/1152 = 0.65x line rate.
        assert_eq!(required_link_bw(5, 128e9), 1152e9);
        let rate = achievable_channel_rate(5, 128e9, 750e9);
        assert!((rate / 128e9 - 0.6510416).abs() < 1e-6);
    }

    #[test]
    fn required_bw_grows_linearly_with_width() {
        let sweep = hotspot_sweep(&[2, 4, 8, 16], 1.0, f64::INFINITY);
        for w in sweep.windows(2) {
            assert!(w[1].required_bw > w[0].required_bw);
        }
        assert_eq!(sweep[3].multiplier, 31);
        // With infinite links everything runs at line rate.
        assert!(sweep.iter().all(|r| r.linerate_fraction == 1.0));
    }

    #[test]
    fn fat_links_are_never_the_limit() {
        assert_eq!(achievable_channel_rate(2, 10.0, 1e9), 10.0);
        // At p = 1 the rate is the line-rate fraction.
        assert_eq!(achievable_channel_rate(2, 1.0, 10.0), 1.0);
        assert_eq!(hotspot_multiplier(1), 1);
    }
}
