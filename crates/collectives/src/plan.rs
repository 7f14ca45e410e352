//! Communication plans: serial phases of concurrent routed transfers.

use std::fmt;

use fred_sim::flow::{FlowSpec, Priority};
use fred_sim::netsim::{track_of, FlowNetwork};
use fred_sim::time::{Duration, Time};
use fred_sim::topology::{Route, RouteError};
use fred_telemetry::event::{next_span_id, TraceEvent};

/// Supplies the route between two endpoints (NPU indices, plus any
/// backend-specific identifiers). Implemented by the mesh's X-Y router
/// and the FRED fabric's tree router.
pub trait RouteProvider {
    /// The route from `src` to `dst`. An empty route means the endpoints
    /// are co-located (node-local transfer).
    fn route(&self, src: usize, dst: usize) -> Route;
}

impl<F> RouteProvider for F
where
    F: Fn(usize, usize) -> Route,
{
    fn route(&self, src: usize, dst: usize) -> Route {
        self(src, dst)
    }
}

/// One point-to-point transfer of a plan phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Transfer {
    /// Source endpoint (NPU index).
    pub src: usize,
    /// Destination endpoint (NPU index).
    pub dst: usize,
    /// Payload bytes.
    pub bytes: f64,
    /// Route from `src` to `dst`.
    pub route: Route,
}

/// A set of transfers executed concurrently.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Phase {
    /// The concurrent transfers.
    pub transfers: Vec<Transfer>,
}

impl Phase {
    /// Total bytes moved in this phase.
    pub fn total_bytes(&self) -> f64 {
        self.transfers.iter().map(|t| t.bytes).sum()
    }
}

/// Why a [`CommPlan`] could not run to completion.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A phase's flows were rejected by the network (invalid route or
    /// a route crossing a failed link).
    Route {
        /// Index of the failing phase.
        phase: usize,
        /// The underlying routing error.
        source: RouteError,
    },
    /// Transfers were in flight but the network had no pending event;
    /// the plan would deadlock instead of completing.
    Stalled {
        /// Index of the stalled phase.
        phase: usize,
        /// Transfers still outstanding in that phase.
        outstanding: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Route { phase, source } => {
                write!(f, "phase {phase} rejected by the network: {source}")
            }
            PlanError::Stalled { phase, outstanding } => write!(
                f,
                "phase {phase} stalled with {outstanding} transfer(s) in flight and no pending event"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// An endpoint-based collective compiled to serial phases.
///
/// Phase `k + 1` starts only when every transfer of phase `k` has
/// completed (the synchronous-step model standard for ring and tree
/// collectives).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CommPlan {
    /// Label used in reports (e.g. `"ring-allreduce"`).
    pub label: String,
    /// The serial phases.
    pub phases: Vec<Phase>,
}

impl CommPlan {
    /// Creates an empty plan with a label.
    pub fn new(label: impl Into<String>) -> CommPlan {
        CommPlan {
            label: label.into(),
            phases: Vec::new(),
        }
    }

    /// Total bytes moved across all phases (the algorithm's traffic).
    pub fn total_bytes(&self) -> f64 {
        self.phases.iter().map(Phase::total_bytes).sum()
    }

    /// Total bytes *sent by* endpoint `npu` across all phases.
    pub fn bytes_sent_by(&self, npu: usize) -> f64 {
        self.phases
            .iter()
            .flat_map(|p| &p.transfers)
            .filter(|t| t.src == npu)
            .map(|t| t.bytes)
            .sum()
    }

    /// Number of phases.
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }

    /// Appends the phases of `other` after this plan's phases.
    pub fn chain(mut self, other: CommPlan) -> CommPlan {
        self.phases.extend(other.phases);
        self
    }

    /// Executes the plan alone on a fresh view of `net`, phase by
    /// phase, and returns the end-to-end duration. Used by the
    /// microbenchmarks; the trainer interleaves plans itself and
    /// repairs routes around failed links
    /// (`fred_workloads::exec::repair_and_inject`).
    ///
    /// # Errors
    ///
    /// [`PlanError::Route`] if the network rejects a phase (an invalid
    /// route, or one crossing a failed link), [`PlanError::Stalled`] if
    /// a phase would deadlock.
    pub fn execute(
        &self,
        net: &mut FlowNetwork,
        priority: Priority,
    ) -> Result<Duration, PlanError> {
        let start = net.now();
        let track = track_of(priority);
        let mut prev_span: Option<u64> = None;
        for (k, phase) in self.phases.iter().enumerate() {
            // Phase-boundary telemetry: one duration span per plan
            // phase on the priority's parallelism track. The span id
            // doubles as the flow correlation tag, and consecutive
            // phases are chained with happens-before edges so the
            // analysis layer can reconstruct the serial plan DAG.
            let span = if net.sink().enabled() {
                let span = next_span_id();
                let mut npus: Vec<usize> = phase.transfers.iter().map(|t| t.src).collect();
                npus.sort_unstable();
                npus.dedup();
                net.sink().record(TraceEvent::PhaseBegin {
                    t: net.now().as_secs(),
                    track,
                    span,
                    label: format!("{}[{k}]", self.label).into(),
                    bytes: phase.total_bytes(),
                    npus: npus.len() as u32,
                    tag: span,
                });
                if let Some(pred) = prev_span {
                    net.sink().record(TraceEvent::SpanDep {
                        t: net.now().as_secs(),
                        span,
                        pred,
                    });
                }
                prev_span = Some(span);
                Some(span)
            } else {
                None
            };
            // All transfers of a phase start together: one batch, one
            // solver delta.
            let flows: Vec<FlowSpec> = phase
                .transfers
                .iter()
                .map(|t| {
                    FlowSpec::new(t.route.clone(), t.bytes)
                        .with_priority(priority)
                        .with_tag(span.unwrap_or(0))
                })
                .collect();
            let injected = net
                .inject_batch(flows)
                .map_err(|source| PlanError::Route { phase: k, source })?;
            let mut outstanding = injected.len();
            while outstanding > 0 {
                let Some(te) = net.next_event() else {
                    return Err(PlanError::Stalled {
                        phase: k,
                        outstanding,
                    });
                };
                net.advance_to(te);
                outstanding -= net.drain_completed().len();
            }
            if let Some(span) = span {
                net.sink().record(TraceEvent::PhaseEnd {
                    t: net.now().as_secs(),
                    track,
                    span,
                });
            }
        }
        Ok(net.now() - start)
    }
}

/// Convenience: executes `plan` on a fresh network over `topo` and
/// returns (duration, effective per-endpoint bandwidth) where the
/// bandwidth is `collective_bytes / duration` — the paper's
/// "effective NPU BW utilization" metric from §8.1.
///
/// # Errors
///
/// Propagates [`PlanError`] from [`CommPlan::execute`]. A fresh
/// network has no failed links, so errors only arise from invalid
/// plan routes.
pub fn execute_standalone(
    topo: fred_sim::topology::Topology,
    plan: &CommPlan,
    collective_bytes: f64,
) -> Result<(Duration, f64), PlanError> {
    let mut net = FlowNetwork::new(topo);
    let d = plan.execute(&mut net, Priority::Bulk)?;
    debug_assert_eq!(net.now(), Time::ZERO + d);
    let bw = if d.as_secs() > 0.0 {
        collective_bytes / d.as_secs()
    } else {
        f64::INFINITY
    };
    Ok((d, bw))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_sim::topology::{NodeKind, Topology};

    fn line(n: usize, bw: f64) -> (Topology, Vec<fred_sim::topology::LinkId>) {
        let mut t = Topology::new();
        let nodes: Vec<_> = (0..n)
            .map(|i| t.add_node(NodeKind::Npu, format!("n{i}")))
            .collect();
        let mut fwd = Vec::new();
        for w in nodes.windows(2) {
            let (f, _) = t.add_duplex_link(w[0], w[1], bw, 0.0);
            fwd.push(f);
        }
        (t, fwd)
    }

    #[test]
    fn phases_execute_serially() {
        let (topo, l) = line(3, 100.0);
        let mut plan = CommPlan::new("test");
        plan.phases.push(Phase {
            transfers: vec![Transfer {
                src: 0,
                dst: 1,
                bytes: 100.0,
                route: vec![l[0]],
            }],
        });
        plan.phases.push(Phase {
            transfers: vec![Transfer {
                src: 1,
                dst: 2,
                bytes: 100.0,
                route: vec![l[1]],
            }],
        });
        let mut net = FlowNetwork::new(topo);
        let d = plan.execute(&mut net, Priority::Bulk).unwrap();
        // Two serial 1-second phases.
        assert!((d.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_transfers_share_links() {
        let (topo, l) = line(2, 100.0);
        let mut plan = CommPlan::new("contended");
        plan.phases.push(Phase {
            transfers: vec![
                Transfer {
                    src: 0,
                    dst: 1,
                    bytes: 100.0,
                    route: vec![l[0]],
                },
                Transfer {
                    src: 0,
                    dst: 1,
                    bytes: 100.0,
                    route: vec![l[0]],
                },
            ],
        });
        let mut net = FlowNetwork::new(topo);
        let d = plan.execute(&mut net, Priority::Bulk).unwrap();
        assert!((d.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn execute_rejects_a_phase_across_a_failed_link() {
        let (topo, l) = line(2, 100.0);
        let mut plan = CommPlan::new("dead");
        plan.phases.push(Phase {
            transfers: vec![Transfer {
                src: 0,
                dst: 1,
                bytes: 100.0,
                route: vec![l[0]],
            }],
        });
        let mut net = FlowNetwork::new(topo);
        assert!(net.fail_link(l[0]).is_empty());
        assert_eq!(
            plan.execute(&mut net, Priority::Bulk),
            Err(PlanError::Route {
                phase: 0,
                source: RouteError::FailedLink(l[0]),
            })
        );
    }

    #[test]
    fn execute_rejects_invalid_routes_cleanly() {
        let (topo, _) = line(2, 100.0);
        let mut plan = CommPlan::new("bad");
        plan.phases.push(Phase {
            transfers: vec![Transfer {
                src: 0,
                dst: 1,
                bytes: 1.0,
                route: vec![fred_sim::topology::LinkId(99)],
            }],
        });
        let mut net = FlowNetwork::new(topo);
        assert_eq!(
            plan.execute(&mut net, Priority::Bulk),
            Err(PlanError::Route {
                phase: 0,
                source: RouteError::UnknownLink(fred_sim::topology::LinkId(99)),
            })
        );
    }

    #[test]
    fn accounting_helpers() {
        let (_, l) = line(3, 100.0);
        let mut plan = CommPlan::new("acct");
        plan.phases.push(Phase {
            transfers: vec![
                Transfer {
                    src: 0,
                    dst: 1,
                    bytes: 10.0,
                    route: vec![l[0]],
                },
                Transfer {
                    src: 1,
                    dst: 2,
                    bytes: 20.0,
                    route: vec![l[1]],
                },
            ],
        });
        assert_eq!(plan.total_bytes(), 30.0);
        assert_eq!(plan.bytes_sent_by(0), 10.0);
        assert_eq!(plan.bytes_sent_by(1), 20.0);
        assert_eq!(plan.bytes_sent_by(2), 0.0);
        assert_eq!(plan.phase_count(), 1);
    }

    #[test]
    fn chain_concatenates_phases() {
        let a = CommPlan {
            label: "a".into(),
            phases: vec![Phase::default(), Phase::default()],
        };
        let b = CommPlan {
            label: "b".into(),
            phases: vec![Phase::default()],
        };
        assert_eq!(a.chain(b).phase_count(), 3);
    }

    #[test]
    fn closure_is_a_route_provider() {
        let provider = |_s: usize, _d: usize| -> Route { vec![] };
        assert!(RouteProvider::route(&provider, 0, 1).is_empty());
    }
}
