//! Device placement for 3D parallelism (§3.2.2, §5.3 option 4).
//!
//! Device placement assigns each logical training worker — identified by
//! its coordinates in the (MP, DP, PP) grid — to a physical NPU. FRED's
//! policy places the workers of each MP group on consecutive NPUs, then
//! iterates over PP, then DP (§5.3): combined with Fred₃ switches this
//! keeps all 3D-parallelism communication patterns conflict-free.
//! Alternative orders are provided to reproduce the congestion trade-off
//! of Fig 5 on the mesh.

use std::fmt;

use crate::params::FabricConfig;

/// A 3D parallelization strategy: the size of each parallelism
/// dimension, written MP(m)-DP(d)-PP(p) in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Strategy3D {
    /// Model/tensor-parallel degree.
    pub mp: usize,
    /// Data-parallel degree.
    pub dp: usize,
    /// Pipeline-parallel degree.
    pub pp: usize,
}

impl Strategy3D {
    /// Creates a strategy.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(mp: usize, dp: usize, pp: usize) -> Strategy3D {
        assert!(
            mp > 0 && dp > 0 && pp > 0,
            "all parallelism degrees must be positive"
        );
        Strategy3D { mp, dp, pp }
    }

    /// Total workers = mp × dp × pp.
    pub fn worker_count(&self) -> usize {
        self.mp * self.dp * self.pp
    }

    /// All worker coordinates, MP-fastest order.
    pub fn workers(&self) -> impl Iterator<Item = Worker> + '_ {
        let (mp, dp, pp) = (self.mp, self.dp, self.pp);
        (0..pp).flat_map(move |p| {
            (0..dp).flat_map(move |d| {
                (0..mp).map(move |m| Worker {
                    mp: m,
                    dp: d,
                    pp: p,
                })
            })
        })
    }

    /// Workers of the MP group identified by (dp, pp).
    pub fn mp_group(&self, dp: usize, pp: usize) -> Vec<Worker> {
        (0..self.mp).map(|m| Worker { mp: m, dp, pp }).collect()
    }

    /// Workers of the DP group identified by (mp, pp).
    pub fn dp_group(&self, mp: usize, pp: usize) -> Vec<Worker> {
        (0..self.dp).map(|d| Worker { mp, dp: d, pp }).collect()
    }

    /// Workers of the PP group identified by (mp, dp).
    pub fn pp_group(&self, mp: usize, dp: usize) -> Vec<Worker> {
        (0..self.pp).map(|p| Worker { mp, dp, pp: p }).collect()
    }
}

impl fmt::Display for Strategy3D {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MP({})-DP({})-PP({})", self.mp, self.dp, self.pp)
    }
}

/// A logical training worker's coordinates (the paper's 3-digit id:
/// MP digit, DP digit, PP digit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Worker {
    /// Offset within the MP group.
    pub mp: usize,
    /// Offset within the DP group.
    pub dp: usize,
    /// Offset within the PP group.
    pub pp: usize,
}

impl fmt::Display for Worker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}{}", self.mp, self.dp, self.pp)
    }
}

/// The order in which dimensions vary when laying workers onto
/// consecutive NPUs; the first dimension varies fastest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementPolicy {
    /// FRED's policy (§5.3): MP fastest, then PP, then DP.
    #[default]
    MpPpDp,
    /// MP fastest, then DP, then PP — Fig 5(a)'s mesh mapping, which
    /// favours MP/DP but congests PP.
    MpDpPp,
    /// DP fastest, then PP, then MP — Fig 5(b)'s mesh mapping, which
    /// favours DP/PP but congests MP.
    DpPpMp,
    /// PP fastest, then MP, then DP.
    PpMpDp,
}

impl PlacementPolicy {
    /// All policies.
    pub const ALL: [PlacementPolicy; 4] = [
        PlacementPolicy::MpPpDp,
        PlacementPolicy::MpDpPp,
        PlacementPolicy::DpPpMp,
        PlacementPolicy::PpMpDp,
    ];

    /// The paper's policy for `fabric`: FRED uses the §5.3 MP-PP-DP
    /// policy; the mesh baseline uses the MP-favouring mapping of
    /// Fig 5(a).
    pub fn for_fabric(fabric: FabricConfig) -> PlacementPolicy {
        if fabric.is_fred() {
            PlacementPolicy::MpPpDp
        } else {
            PlacementPolicy::MpDpPp
        }
    }
}

/// An assignment of workers to physical NPU indices.
///
/// ```
/// use fred_core::placement::{Placement, PlacementPolicy, Strategy3D, Worker};
///
/// // §5.3: MP groups land on consecutive NPUs.
/// let pl = Placement::new(Strategy3D::new(4, 5, 1), PlacementPolicy::MpPpDp);
/// assert_eq!(pl.mp_group_npus(0, 0), vec![0, 1, 2, 3]);
/// assert_eq!(pl.npu_of(Worker { mp: 2, dp: 1, pp: 0 }), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    strategy: Strategy3D,
    policy: PlacementPolicy,
    /// Worker (in MP-fastest linear order) → NPU index.
    npu_of_worker: Vec<usize>,
}

impl Placement {
    /// Places `strategy`'s workers onto NPUs `0..worker_count` using
    /// `policy`.
    pub fn new(strategy: Strategy3D, policy: PlacementPolicy) -> Placement {
        Placement::with_base(strategy, policy, 0)
    }

    /// Places `strategy`'s workers onto the contiguous NPU window
    /// `base..base + worker_count` — the multi-tenant entry point: a
    /// cluster scheduler carves a window out of the fabric and places
    /// each job's workers inside it, preserving the policy's relative
    /// layout (consecutive slots stay physically adjacent under both
    /// the FRED tree's identity mapping and the mesh's snake walk).
    pub fn with_base(strategy: Strategy3D, policy: PlacementPolicy, base: usize) -> Placement {
        let (m, d, p) = (strategy.mp, strategy.dp, strategy.pp);
        let mut npu_of_worker = vec![usize::MAX; strategy.worker_count()];
        let linear = |w: Worker| w.mp + m * (w.dp + d * w.pp);
        // Enumerate workers with the policy's fastest-first nesting.
        let order: Vec<Worker> = match policy {
            PlacementPolicy::MpPpDp => (0..d)
                .flat_map(|dd| {
                    (0..p).flat_map(move |pp| (0..m).map(move |mm| Worker { mp: mm, dp: dd, pp }))
                })
                .collect(),
            PlacementPolicy::MpDpPp => (0..p)
                .flat_map(|pp| {
                    (0..d).flat_map(move |dd| (0..m).map(move |mm| Worker { mp: mm, dp: dd, pp }))
                })
                .collect(),
            PlacementPolicy::DpPpMp => (0..m)
                .flat_map(|mm| {
                    (0..p).flat_map(move |pp| (0..d).map(move |dd| Worker { mp: mm, dp: dd, pp }))
                })
                .collect(),
            PlacementPolicy::PpMpDp => (0..d)
                .flat_map(|dd| {
                    (0..m).flat_map(move |mm| (0..p).map(move |pp| Worker { mp: mm, dp: dd, pp }))
                })
                .collect(),
        };
        for (next, w) in order.into_iter().enumerate() {
            npu_of_worker[linear(w)] = base + next;
        }
        Placement {
            strategy,
            policy,
            npu_of_worker,
        }
    }

    /// The highest NPU index this placement assigns (= `base +
    /// worker_count - 1`); backends bound-check against this rather
    /// than the worker count so based placements validate correctly.
    pub fn max_slot(&self) -> usize {
        self.npu_of_worker
            .iter()
            .copied()
            .max()
            .expect("a strategy always has at least one worker")
    }

    /// Physical NPU index hosting `worker`.
    ///
    /// # Panics
    ///
    /// Panics if the worker is outside the strategy grid.
    pub fn npu_of(&self, worker: Worker) -> usize {
        let s = self.strategy;
        assert!(
            worker.mp < s.mp && worker.dp < s.dp && worker.pp < s.pp,
            "worker {worker} outside {s}"
        );
        self.npu_of_worker[worker.mp + s.mp * (worker.dp + s.dp * worker.pp)]
    }

    /// NPU indices of the MP group (dp, pp), in MP-offset order.
    pub fn mp_group_npus(&self, dp: usize, pp: usize) -> Vec<usize> {
        self.strategy
            .mp_group(dp, pp)
            .into_iter()
            .map(|w| self.npu_of(w))
            .collect()
    }

    /// NPU indices of the DP group (mp, pp).
    pub fn dp_group_npus(&self, mp: usize, pp: usize) -> Vec<usize> {
        self.strategy
            .dp_group(mp, pp)
            .into_iter()
            .map(|w| self.npu_of(w))
            .collect()
    }

    /// NPU indices of the PP group (mp, dp).
    pub fn pp_group_npus(&self, mp: usize, dp: usize) -> Vec<usize> {
        self.strategy
            .pp_group(mp, dp)
            .into_iter()
            .map(|w| self.npu_of(w))
            .collect()
    }

    /// All MP groups as NPU index lists.
    pub fn all_mp_groups(&self) -> Vec<Vec<usize>> {
        let s = self.strategy;
        (0..s.pp)
            .flat_map(|p| (0..s.dp).map(move |d| (d, p)))
            .map(|(d, p)| self.mp_group_npus(d, p))
            .collect()
    }

    /// All DP groups as NPU index lists.
    pub fn all_dp_groups(&self) -> Vec<Vec<usize>> {
        let s = self.strategy;
        (0..s.pp)
            .flat_map(|p| (0..s.mp).map(move |m| (m, p)))
            .map(|(m, p)| self.dp_group_npus(m, p))
            .collect()
    }

    /// All PP groups as NPU index lists.
    pub fn all_pp_groups(&self) -> Vec<Vec<usize>> {
        let s = self.strategy;
        (0..s.dp)
            .flat_map(|d| (0..s.mp).map(move |m| (m, d)))
            .map(|(m, d)| self.pp_group_npus(m, d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Flow;
    use crate::interconnect::Interconnect;
    use crate::routing::route_flows;

    #[test]
    fn strategy_counts() {
        let s = Strategy3D::new(4, 3, 2);
        assert_eq!(s.worker_count(), 24);
        assert_eq!(s.workers().count(), 24);
        assert_eq!(s.to_string(), "MP(4)-DP(3)-PP(2)");
    }

    #[test]
    fn fig1_groups() {
        // Fig 1: MP(4)-DP(3)-PP(2); workers 000,100,200,300 form an MP
        // group; 300,310,320 form a DP group.
        let s = Strategy3D::new(4, 3, 2);
        let mp = s.mp_group(0, 0);
        assert_eq!(
            mp.iter().map(Worker::to_string).collect::<Vec<_>>(),
            vec!["000", "100", "200", "300"]
        );
        let dp = s.dp_group(3, 0);
        assert_eq!(
            dp.iter().map(Worker::to_string).collect::<Vec<_>>(),
            vec!["300", "310", "320"]
        );
    }

    #[test]
    fn fred_policy_places_mp_groups_consecutively() {
        let s = Strategy3D::new(2, 5, 2);
        let pl = Placement::new(s, PlacementPolicy::MpPpDp);
        for d in 0..s.dp {
            for p in 0..s.pp {
                let npus = pl.mp_group_npus(d, p);
                assert_eq!(
                    npus[1],
                    npus[0] + 1,
                    "MP group ({d},{p}) not consecutive: {npus:?}"
                );
            }
        }
        // And PP iterates next: the PP peers of worker (0, d, *) are
        // `mp` apart.
        let pp0 = pl.pp_group_npus(0, 0);
        assert_eq!(pp0[1], pp0[0] + s.mp);
    }

    #[test]
    fn placement_is_a_bijection() {
        for policy in PlacementPolicy::ALL {
            let s = Strategy3D::new(5, 2, 2);
            let pl = Placement::new(s, policy);
            let mut seen: Vec<usize> = s.workers().map(|w| pl.npu_of(w)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..20).collect::<Vec<_>>(), "{policy:?}");
        }
    }

    #[test]
    fn groups_partition_all_npus() {
        let s = Strategy3D::new(2, 5, 2);
        let pl = Placement::new(s, PlacementPolicy::MpPpDp);
        let mut all: Vec<usize> = pl.all_mp_groups().into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
        // One DP group per (mp, pp) and one PP group per (mp, dp).
        assert_eq!(pl.all_dp_groups().len(), s.mp * s.pp);
        assert_eq!(pl.all_pp_groups().len(), s.mp * s.dp);
    }

    /// §5.3: Fred₃ switches + the MP-PP-DP placement suffice to route
    /// the concurrent collectives of each 3D-parallelism phase without
    /// conflicts. Exercised on a single 20-port switch for several
    /// strategies (aligned and non-aligned).
    #[test]
    fn concurrent_3d_phases_route_conflict_free_on_fred3() {
        let net = Interconnect::new(3, 20).unwrap();
        for (mp, dp, pp) in [
            (2, 5, 2),
            (4, 5, 1),
            (5, 2, 2),
            (2, 2, 5),
            (20, 1, 1),
            (5, 3, 1),
        ] {
            let s = Strategy3D::new(mp, dp, pp);
            let pl = Placement::new(s, PlacementPolicy::MpPpDp);
            // Concurrent MP All-Reduces (one per MP group).
            let mp_flows: Vec<Flow> = pl
                .all_mp_groups()
                .into_iter()
                .filter(|g| g.len() > 1)
                .map(|g| Flow::all_reduce(g).unwrap())
                .collect();
            if !mp_flows.is_empty() {
                let routed =
                    route_flows(&net, &mp_flows).unwrap_or_else(|e| panic!("{s} MP phase: {e}"));
                routed.verify(&mp_flows).unwrap();
            }
            // Concurrent DP All-Reduces.
            let dp_flows: Vec<Flow> = pl
                .all_dp_groups()
                .into_iter()
                .filter(|g| g.len() > 1)
                .map(|g| Flow::all_reduce(g).unwrap())
                .collect();
            if !dp_flows.is_empty() {
                let routed =
                    route_flows(&net, &dp_flows).unwrap_or_else(|e| panic!("{s} DP phase: {e}"));
                routed.verify(&dp_flows).unwrap();
            }
            // Concurrent PP transfers (each stage multicasts to the next).
            let pp_flows: Vec<Flow> = pl
                .all_pp_groups()
                .into_iter()
                .filter(|g| g.len() > 1)
                .map(|g| Flow::unicast(g[0], g[1]))
                .collect();
            if !pp_flows.is_empty() {
                // PP unicasts may share endpoints across groups; validate
                // first and skip invalid combinations.
                if crate::flow::validate_phase(&pp_flows, 20).is_ok() {
                    let routed = route_flows(&net, &pp_flows)
                        .unwrap_or_else(|e| panic!("{s} PP phase: {e}"));
                    routed.verify(&pp_flows).unwrap();
                }
            }
        }
    }

    #[test]
    fn based_placement_offsets_every_slot() {
        let s = Strategy3D::new(2, 2, 2);
        let zero = Placement::new(s, PlacementPolicy::MpPpDp);
        let based = Placement::with_base(s, PlacementPolicy::MpPpDp, 7);
        for w in s.workers() {
            assert_eq!(based.npu_of(w), zero.npu_of(w) + 7);
        }
        assert_eq!(zero.max_slot(), 7);
        assert_eq!(based.max_slot(), 14);
        // Group structure is translation-invariant.
        assert_eq!(
            based.mp_group_npus(0, 0),
            zero.mp_group_npus(0, 0)
                .into_iter()
                .map(|n| n + 7)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        let _ = Strategy3D::new(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_grid_worker_rejected() {
        let s = Strategy3D::new(2, 2, 2);
        let pl = Placement::new(s, PlacementPolicy::MpPpDp);
        let _ = pl.npu_of(Worker {
            mp: 2,
            dp: 0,
            pp: 0,
        });
    }
}
