//! Communication plans: serial phases of concurrent routed transfers,
//! as data only. `fred_workloads` runs them and sets each flow's
//! priority, tag and tenant.

use std::rc::Rc;

use fred_sim::topology::{LinkId, Route};

/// Supplies the route between two endpoints (NPU indices, plus any
/// backend-specific identifiers). Implemented by the mesh's X-Y router
/// and the FRED fabric's tree router. A plan converts each route it
/// asks for into a [`Transfer::route`] once, when it is compiled.
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
    /// Route from `src` to `dst`, allocated once when the plan is
    /// compiled and shared with every flow injected from it.
    pub route: Rc<[LinkId]>,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_helpers() {
        let mut plan = CommPlan::new("acct");
        plan.phases.push(Phase {
            transfers: vec![
                Transfer {
                    src: 0,
                    dst: 1,
                    bytes: 10.0,
                    route: Rc::new([LinkId(0)]),
                },
                Transfer {
                    src: 1,
                    dst: 2,
                    bytes: 20.0,
                    route: Rc::new([LinkId(1)]),
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
