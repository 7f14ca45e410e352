//! Simple and compound collective algorithms on the flow fabric
//! (Table 2).
//!
//! *Simple* patterns map to a single [`Flow`]; *compound* patterns are
//! broken into multiple serial steps, each step being a set of flows
//! routed concurrently. [`compile`] returns the step list for any
//! pattern; each step's flows are intended to be passed to
//! [`crate::routing::route_flows`] as one phase.

use std::fmt;

use crate::flow::{Flow, FlowError};

/// A collective communication pattern among switch ports (Fig 3 /
/// Table 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pattern {
    /// One source port to one destination port.
    Unicast {
        /// Source port.
        src: usize,
        /// Destination port.
        dst: usize,
    },
    /// One source port to several destination ports.
    Multicast {
        /// Source port.
        src: usize,
        /// Destination ports.
        dsts: Vec<usize>,
    },
    /// Several source ports reduced onto one destination port.
    Reduce {
        /// Source ports.
        srcs: Vec<usize>,
        /// Destination port.
        dst: usize,
    },
    /// Reduce + broadcast among one group (inputs = outputs).
    AllReduce {
        /// Participating ports.
        group: Vec<usize>,
    },
    /// Globally reduced data scattered across the group; broken into
    /// serial Reduce flows, one per output port.
    ReduceScatter {
        /// Participating ports.
        group: Vec<usize>,
    },
    /// Every port's data broadcast to all; broken into serial Multicast
    /// flows, one per input port.
    AllGather {
        /// Participating ports.
        group: Vec<usize>,
    },
    /// One port's data split across the group; serial Unicasts, one per
    /// output port.
    Scatter {
        /// Source port.
        src: usize,
        /// Destination ports.
        dsts: Vec<usize>,
    },
    /// The group's data collected on one port; serial Unicasts, one per
    /// input port.
    Gather {
        /// Source ports.
        srcs: Vec<usize>,
        /// Destination port.
        dst: usize,
    },
    /// Each port sends a distinct shard to each other port; i serial
    /// steps of shift-by-j Unicast permutations.
    AllToAll {
        /// Participating ports.
        group: Vec<usize>,
    },
}

impl Pattern {
    /// Short lowercase name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Pattern::Unicast { .. } => "unicast",
            Pattern::Multicast { .. } => "multicast",
            Pattern::Reduce { .. } => "reduce",
            Pattern::AllReduce { .. } => "all-reduce",
            Pattern::ReduceScatter { .. } => "reduce-scatter",
            Pattern::AllGather { .. } => "all-gather",
            Pattern::Scatter { .. } => "scatter",
            Pattern::Gather { .. } => "gather",
            Pattern::AllToAll { .. } => "all-to-all",
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One serial step of a compiled collective: flows routed concurrently.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Flows to route in this step.
    pub flows: Vec<Flow>,
    /// Fraction of the collective's total payload that each flow in
    /// this step carries (e.g. `1/i` for each Reduce-Scatter step).
    pub payload_fraction: f64,
}

/// Compiles a pattern into its serial steps per Table 2.
///
/// # Errors
///
/// Returns [`FlowError::Empty`] if any port set of the pattern is
/// empty.
pub fn compile(pattern: &Pattern) -> Result<Vec<Step>, FlowError> {
    let one = |flow: Flow, frac: f64| Step {
        flows: vec![flow],
        payload_fraction: frac,
    };
    match pattern {
        Pattern::Unicast { src, dst } => Ok(vec![one(Flow::unicast(*src, *dst), 1.0)]),
        Pattern::Multicast { src, dsts } => {
            Ok(vec![one(Flow::multicast(*src, dsts.iter().copied())?, 1.0)])
        }
        Pattern::Reduce { srcs, dst } => {
            Ok(vec![one(Flow::reduce_to(srcs.iter().copied(), *dst)?, 1.0)])
        }
        Pattern::AllReduce { group } => {
            Ok(vec![one(Flow::all_reduce(group.iter().copied())?, 1.0)])
        }
        Pattern::ReduceScatter { group } => {
            if group.is_empty() {
                return Err(FlowError::Empty);
            }
            let frac = 1.0 / group.len() as f64;
            group
                .iter()
                .map(|&dst| Ok(one(Flow::reduce_to(group.iter().copied(), dst)?, frac)))
                .collect()
        }
        Pattern::AllGather { group } => {
            if group.is_empty() {
                return Err(FlowError::Empty);
            }
            let frac = 1.0 / group.len() as f64;
            group
                .iter()
                .map(|&src| Ok(one(Flow::multicast(src, group.iter().copied())?, frac)))
                .collect()
        }
        Pattern::Scatter { src, dsts } => {
            if dsts.is_empty() {
                return Err(FlowError::Empty);
            }
            let frac = 1.0 / dsts.len() as f64;
            Ok(dsts
                .iter()
                .map(|&d| one(Flow::unicast(*src, d), frac))
                .collect())
        }
        Pattern::Gather { srcs, dst } => {
            if srcs.is_empty() {
                return Err(FlowError::Empty);
            }
            let frac = 1.0 / srcs.len() as f64;
            Ok(srcs
                .iter()
                .map(|&s| one(Flow::unicast(s, *dst), frac))
                .collect())
        }
        Pattern::AllToAll { group } => {
            if group.is_empty() {
                return Err(FlowError::Empty);
            }
            let n = group.len();
            let frac = 1.0 / n as f64;
            // Step j: each input unicasts to the output at distance j
            // (Table 2). Step 0 (distance 0) is a local copy; skip it
            // when the group has more than one member.
            let mut steps = Vec::new();
            for j in 1..n {
                let flows: Vec<Flow> = (0..n)
                    .map(|i| Flow::unicast(group[i], group[(i + j) % n]))
                    .collect();
                steps.push(Step {
                    flows,
                    payload_fraction: frac,
                });
            }
            if steps.is_empty() {
                // Single-member group: degenerate local copy.
                steps.push(Step {
                    flows: vec![Flow::unicast(group[0], group[0])],
                    payload_fraction: frac,
                });
            }
            Ok(steps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interconnect::Interconnect;
    use crate::routing::route_flows;

    fn all_steps_route(pattern: &Pattern, m: usize, ports: usize) {
        let net = Interconnect::new(m, ports).unwrap();
        for (i, step) in compile(pattern).unwrap().iter().enumerate() {
            let routed = route_flows(&net, &step.flows)
                .unwrap_or_else(|e| panic!("{pattern} step {i}: {e}"));
            routed.verify(&step.flows).unwrap();
        }
    }

    #[test]
    fn simple_patterns_are_one_step() {
        for p in [
            Pattern::Unicast { src: 0, dst: 5 },
            Pattern::Multicast {
                src: 1,
                dsts: vec![2, 3, 4],
            },
            Pattern::Reduce {
                srcs: vec![0, 2, 4],
                dst: 6,
            },
            Pattern::AllReduce {
                group: vec![1, 3, 5, 7],
            },
        ] {
            assert_eq!(compile(&p).unwrap().len(), 1);
            all_steps_route(&p, 2, 8);
        }
    }

    #[test]
    fn reduce_scatter_has_group_size_steps() {
        let p = Pattern::ReduceScatter {
            group: vec![0, 2, 4, 6],
        };
        let steps = compile(&p).unwrap();
        assert_eq!(steps.len(), 4);
        for (j, s) in steps.iter().enumerate() {
            assert_eq!(s.flows.len(), 1);
            assert_eq!(s.flows[0].ops().len(), 1);
            assert!(s.flows[0].ops().contains(&[0, 2, 4, 6][j]));
            assert!((s.payload_fraction - 0.25).abs() < 1e-12);
        }
        all_steps_route(&p, 2, 8);
    }

    #[test]
    fn all_gather_is_serial_multicasts() {
        let p = Pattern::AllGather {
            group: vec![1, 3, 5],
        };
        let steps = compile(&p).unwrap();
        assert_eq!(steps.len(), 3);
        for s in &steps {
            assert_eq!(s.flows[0].ips().len(), 1);
            assert_eq!(s.flows[0].ops().len(), 3);
        }
        all_steps_route(&p, 2, 8);
    }

    #[test]
    fn scatter_and_gather_are_serial_unicasts() {
        let s = Pattern::Scatter {
            src: 0,
            dsts: vec![1, 2, 3],
        };
        assert_eq!(compile(&s).unwrap().len(), 3);
        all_steps_route(&s, 2, 8);
        let g = Pattern::Gather {
            srcs: vec![4, 5, 6],
            dst: 7,
        };
        assert_eq!(compile(&g).unwrap().len(), 3);
        all_steps_route(&g, 2, 8);
    }

    #[test]
    fn all_to_all_steps_are_shift_permutations() {
        let p = Pattern::AllToAll {
            group: vec![0, 1, 2, 3],
        };
        let steps = compile(&p).unwrap();
        // Distances 1..=3.
        assert_eq!(steps.len(), 3);
        for (j, s) in steps.iter().enumerate() {
            assert_eq!(s.flows.len(), 4);
            for (i, f) in s.flows.iter().enumerate() {
                let src = *f.ips().iter().next().unwrap();
                let dst = *f.ops().iter().next().unwrap();
                assert_eq!(src, i);
                assert_eq!(dst, (i + j + 1) % 4);
            }
        }
        all_steps_route(&p, 2, 8);
    }

    #[test]
    fn empty_groups_rejected() {
        assert!(compile(&Pattern::AllReduce { group: vec![] }).is_err());
        assert!(compile(&Pattern::ReduceScatter { group: vec![] }).is_err());
        assert!(compile(&Pattern::Scatter {
            src: 0,
            dsts: vec![]
        })
        .is_err());
        assert!(compile(&Pattern::AllToAll { group: vec![] }).is_err());
    }

    #[test]
    fn table2_cardinalities() {
        // |IPs|/|OPs| per Table 2.
        let steps = compile(&Pattern::AllReduce {
            group: vec![0, 1, 2],
        })
        .unwrap();
        let f = &steps[0].flows[0];
        assert_eq!(f.ips(), f.ops());
        let steps = compile(&Pattern::Reduce {
            srcs: vec![0, 1],
            dst: 2,
        })
        .unwrap();
        let f = &steps[0].flows[0];
        assert!(f.ips().len() > 1 && f.ops().len() == 1);
        let steps = compile(&Pattern::Multicast {
            src: 0,
            dsts: vec![1, 2],
        })
        .unwrap();
        let f = &steps[0].flows[0];
        assert!(f.ips().len() == 1 && f.ops().len() > 1);
    }

    #[test]
    fn compound_patterns_route_on_odd_fred3() {
        for p in [
            Pattern::ReduceScatter {
                group: vec![0, 4, 8, 10],
            },
            Pattern::AllGather {
                group: vec![1, 5, 9],
            },
            Pattern::AllToAll {
                group: vec![0, 3, 6, 9],
            },
        ] {
            all_steps_route(&p, 3, 11);
        }
    }
}
