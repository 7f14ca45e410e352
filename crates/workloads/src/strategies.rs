//! Strategy-space enumeration (§8.3, Fig 2/11 sweeps).
//!
//! The compiler searching for the best parallelization strategy needs
//! the space of candidate (MP, DP, PP) triples for a given NPU count.

use fred_core::placement::Strategy3D;

/// All strategies whose worker count is exactly `npus` (aligned
/// strategies), ordered MP-descending.
pub fn aligned_strategies(npus: usize) -> Vec<Strategy3D> {
    let mut out = Vec::new();
    for mp in (1..=npus).rev() {
        if !npus.is_multiple_of(mp) {
            continue;
        }
        let rest = npus / mp;
        for dp in 1..=rest {
            if !rest.is_multiple_of(dp) {
                continue;
            }
            out.push(Strategy3D::new(mp, dp, rest / dp));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_count_for_20() {
        let all = aligned_strategies(20);
        // d(20) triples: number of ordered factorizations of 20 into 3
        // factors = 18.
        assert_eq!(all.len(), 18);
        assert!(all.contains(&Strategy3D::new(20, 1, 1)));
        assert!(all.contains(&Strategy3D::new(2, 5, 2)));
        assert!(all.contains(&Strategy3D::new(1, 20, 1)));
        assert!(all.iter().all(|s| s.worker_count() == 20));
        // MP-descending order: first entry is MP(20).
        assert_eq!(all[0], Strategy3D::new(20, 1, 1));
    }
}
