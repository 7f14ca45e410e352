//! The flow abstraction (§5.1).
//!
//! A *flow* on Fred_m(P) is a pair of port sets: the data on every input
//! port in `IPs` is reduced, and the result is broadcast to every output
//! port in `OPs`. All collective patterns (Table 2) are expressed as one
//! or more flows.

use std::collections::BTreeSet;
use std::fmt;

/// Index of a flow within one routing phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowIdx(pub usize);

impl fmt::Display for FlowIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// A communication flow: reduce over `ips`, broadcast to `ops`.
///
/// ```
/// use fred_core::flow::Flow;
/// let ar = Flow::all_reduce([3, 4, 5])?;
/// assert_eq!(ar.ips(), ar.ops());
/// let mc = Flow::multicast(0, [1, 2])?;
/// assert_eq!(mc.ips().len(), 1);
/// # Ok::<(), fred_core::flow::FlowError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Flow {
    ips: BTreeSet<usize>,
    ops: BTreeSet<usize>,
}

impl Flow {
    /// Creates a flow from explicit input and output port sets.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Empty`] if either set is empty.
    pub fn new(
        ips: impl IntoIterator<Item = usize>,
        ops: impl IntoIterator<Item = usize>,
    ) -> Result<Flow, FlowError> {
        let ips: BTreeSet<usize> = ips.into_iter().collect();
        let ops: BTreeSet<usize> = ops.into_iter().collect();
        if ips.is_empty() || ops.is_empty() {
            return Err(FlowError::Empty);
        }
        Ok(Flow { ips, ops })
    }

    /// A unicast flow: one input port to one output port.
    pub fn unicast(src: usize, dst: usize) -> Flow {
        Flow {
            ips: BTreeSet::from([src]),
            ops: BTreeSet::from([dst]),
        }
    }

    /// A multicast flow: one input port to several output ports.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Empty`] if `dsts` is empty.
    pub fn multicast(src: usize, dsts: impl IntoIterator<Item = usize>) -> Result<Flow, FlowError> {
        Flow::new([src], dsts)
    }

    /// A reduce flow: several input ports reduced to one output port.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Empty`] if `srcs` is empty.
    pub fn reduce_to(srcs: impl IntoIterator<Item = usize>, dst: usize) -> Result<Flow, FlowError> {
        Flow::new(srcs, [dst])
    }

    /// An All-Reduce flow: the same ports act as inputs and outputs.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Empty`] if `group` is empty.
    pub fn all_reduce(group: impl IntoIterator<Item = usize> + Clone) -> Result<Flow, FlowError> {
        Flow::new(group.clone(), group)
    }

    /// The input port set.
    pub fn ips(&self) -> &BTreeSet<usize> {
        &self.ips
    }

    /// The output port set.
    pub fn ops(&self) -> &BTreeSet<usize> {
        &self.ops
    }
}

impl fmt::Display for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{:?} -> {:?}}}", self.ips, self.ops)
    }
}

/// Errors constructing or validating flows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// A flow must have at least one input and one output port.
    Empty,
    /// A port appears in the input sets of two different flows.
    OverlappingInputs {
        /// The shared port.
        port: usize,
        /// The two clashing flows.
        flows: (FlowIdx, FlowIdx),
    },
    /// A port appears in the output sets of two different flows.
    OverlappingOutputs {
        /// The shared port.
        port: usize,
        /// The two clashing flows.
        flows: (FlowIdx, FlowIdx),
    },
    /// A flow references a port outside the interconnect.
    PortOutOfRange {
        /// The offending flow.
        flow: FlowIdx,
        /// The offending port.
        port: usize,
        /// Number of ports available.
        ports: usize,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Empty => write!(f, "flow must have at least one input and one output port"),
            FlowError::OverlappingInputs { port, flows } => {
                write!(
                    f,
                    "input port {port} is claimed by both {} and {}",
                    flows.0, flows.1
                )
            }
            FlowError::OverlappingOutputs { port, flows } => {
                write!(
                    f,
                    "output port {port} is claimed by both {} and {}",
                    flows.0, flows.1
                )
            }
            FlowError::PortOutOfRange { flow, port, ports } => {
                write!(
                    f,
                    "{flow} references port {port}, but the switch has only {ports} ports"
                )
            }
        }
    }
}

impl std::error::Error for FlowError {}

/// Validates that a set of flows can coexist in one phase: every input
/// port sources at most one flow, every output port sinks at most one
/// flow, and all ports are within range.
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate_phase(flows: &[Flow], ports: usize) -> Result<(), FlowError> {
    let mut in_owner: Vec<Option<FlowIdx>> = vec![None; ports];
    let mut out_owner: Vec<Option<FlowIdx>> = vec![None; ports];
    for (i, flow) in flows.iter().enumerate() {
        let idx = FlowIdx(i);
        for &p in flow.ips() {
            if p >= ports {
                return Err(FlowError::PortOutOfRange {
                    flow: idx,
                    port: p,
                    ports,
                });
            }
            if let Some(prev) = in_owner[p] {
                return Err(FlowError::OverlappingInputs {
                    port: p,
                    flows: (prev, idx),
                });
            }
            in_owner[p] = Some(idx);
        }
        for &p in flow.ops() {
            if p >= ports {
                return Err(FlowError::PortOutOfRange {
                    flow: idx,
                    port: p,
                    ports,
                });
            }
            if let Some(prev) = out_owner[p] {
                return Err(FlowError::OverlappingOutputs {
                    port: p,
                    flows: (prev, idx),
                });
            }
            out_owner[p] = Some(idx);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_build_expected_sets() {
        let u = Flow::unicast(1, 5);
        assert_eq!(u.ips(), &BTreeSet::from([1]));
        assert_eq!(u.ops(), &BTreeSet::from([5]));

        let r = Flow::reduce_to([0, 1, 2], 2).unwrap();
        assert_eq!(r.ips(), &BTreeSet::from([0, 1, 2]));
        assert_eq!(r.ops(), &BTreeSet::from([2]));

        let m = Flow::multicast(3, [0, 7]).unwrap();
        assert_eq!(m.ips(), &BTreeSet::from([3]));
        assert_eq!(m.ops(), &BTreeSet::from([0, 7]));

        let ar = Flow::all_reduce([2, 4, 6]).unwrap();
        assert_eq!(ar.ips(), &BTreeSet::from([2, 4, 6]));
        assert_eq!(ar.ops(), ar.ips());
    }

    #[test]
    fn empty_sets_rejected() {
        assert_eq!(Flow::new([], [1]).unwrap_err(), FlowError::Empty);
        assert_eq!(
            Flow::new([1], std::iter::empty()).unwrap_err(),
            FlowError::Empty
        );
        assert!(Flow::all_reduce(std::iter::empty::<usize>()).is_err());
    }

    #[test]
    fn phase_validation_accepts_disjoint() {
        let flows = vec![
            Flow::all_reduce([0, 1, 2]).unwrap(),
            Flow::all_reduce([3, 4, 5]).unwrap(),
        ];
        assert!(validate_phase(&flows, 8).is_ok());
    }

    #[test]
    fn phase_validation_rejects_shared_input() {
        let flows = vec![Flow::unicast(0, 1), Flow::unicast(0, 2)];
        assert!(matches!(
            validate_phase(&flows, 4),
            Err(FlowError::OverlappingInputs { port: 0, .. })
        ));
    }

    #[test]
    fn phase_validation_rejects_shared_output() {
        let flows = vec![Flow::unicast(0, 3), Flow::unicast(1, 3)];
        assert!(matches!(
            validate_phase(&flows, 4),
            Err(FlowError::OverlappingOutputs { port: 3, .. })
        ));
    }

    #[test]
    fn input_of_one_flow_may_be_output_of_another() {
        // Port 1 sinks flow A and sources flow B: legal (ports are duplex).
        let flows = vec![Flow::unicast(0, 1), Flow::unicast(1, 0)];
        assert!(validate_phase(&flows, 2).is_ok());
    }

    #[test]
    fn phase_validation_rejects_out_of_range() {
        let flows = vec![Flow::unicast(0, 9)];
        assert!(matches!(
            validate_phase(&flows, 4),
            Err(FlowError::PortOutOfRange { port: 9, .. })
        ));
    }

    #[test]
    fn duplicate_ports_within_one_flow_collapse() {
        let f = Flow::new([1, 1, 2], [3, 3]).unwrap();
        assert_eq!(f.ips().len(), 2);
        assert_eq!(f.ops().len(), 1);
    }
}
