//! The recursive conflict-free collective routing protocol (§5.2–§5.3).
//!
//! Routing takes a set of concurrent [`Flow`]s and a static
//! [`Interconnect`] and produces a [`RoutedNetwork`]: a per-level record
//! of every unit configuration (reduce / distribute / route), the middle
//! subnetwork chosen for each flow, and the recursively routed middles.
//!
//! Per the paper, at each level:
//!
//! 1. flows sharing an input or output unit must use different middle
//!    subnetworks — expressed as a conflict graph coloured with m
//!    colours ([`crate::conflict`]);
//! 2. if both input ports of a unit belong to the same flow, the
//!    reduction feature is activated;
//! 3. if both output ports of a unit belong to the same flow, the
//!    distribution feature is activated;
//! 4. routing then recurses into each middle subnetwork with the induced
//!    flows; a colouring failure at *any* level marks the entire routing
//!    as conflicting (§5.3).
//!
//! The result can be *functionally evaluated*: payloads pushed in at the
//! input ports flow through the configured units, reductions sum
//! element-wise, and [`RoutedNetwork::verify`] proves that every flow's
//! output ports receive exactly the sum of its input ports — the
//! correctness guarantee behind FRED's in-switch collectives.

use std::fmt;

use crate::conflict::{ConflictGraph, RoutingConflict};
use crate::flow::{validate_phase, Flow, FlowError};
use crate::interconnect::{Interconnect, NetKind, PortUnit};

/// Configuration of a 2×m input unit for one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InputUnitConfig {
    /// Unused this phase.
    #[default]
    Idle,
    /// Each port independently forwarded to a middle subnetwork
    /// (`None` = port unused).
    Route {
        /// Middle index for the unit's even port.
        out0: Option<usize>,
        /// Middle index for the unit's odd port.
        out1: Option<usize>,
    },
    /// Reduction feature active: both ports belong to one flow; their
    /// sum goes to middle `out`.
    Reduce {
        /// Middle index receiving the reduced value.
        out: usize,
    },
}

/// Configuration of an m×2 output unit for one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputUnitConfig {
    /// Unused this phase.
    #[default]
    Idle,
    /// Each port independently fed from a middle subnetwork.
    Route {
        /// Middle index feeding the unit's even port.
        src0: Option<usize>,
        /// Middle index feeding the unit's odd port.
        src1: Option<usize>,
    },
    /// Distribution feature active: the value from middle `src` is
    /// broadcast to both ports.
    Broadcast {
        /// Middle index sourcing the broadcast value.
        src: usize,
    },
}

/// A routed base switch: the flows it must realise locally. Base
/// switches (Fred_m(2), Fred_m(3)) realise any valid flow set among
/// their ports with their internal R/D/RD-μSwitches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafRoute {
    /// Port count (2 or 3).
    pub ports: usize,
    /// Flows realised locally.
    pub flows: Vec<Flow>,
}

/// A routed recursive stage.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedStage {
    /// External port count at this level.
    pub ports: usize,
    /// Number of full input/output units.
    pub r: usize,
    /// Whether the tail port exists.
    pub odd: bool,
    /// Middle subnetwork count.
    pub m: usize,
    /// Middle subnetwork assigned to each flow (indexed like the flow
    /// slice passed to [`route_flows`] at this level).
    pub flow_colors: Vec<usize>,
    /// Per input unit configuration.
    pub input_units: Vec<InputUnitConfig>,
    /// Per output unit configuration.
    pub output_units: Vec<OutputUnitConfig>,
    /// Middle chosen by the input-side demux for the tail port.
    pub demux: Option<usize>,
    /// Middle chosen by the output-side mux for the tail port.
    pub mux: Option<usize>,
    /// Recursively routed middle subnetworks.
    pub middles: Vec<RoutedNetwork>,
}

/// A fully routed (sub)network.
#[derive(Debug, Clone, PartialEq)]
pub enum RoutedNetwork {
    /// A routed base switch.
    Leaf(LeafRoute),
    /// A routed recursive stage.
    Stage(Box<RoutedStage>),
}

/// Errors from [`route_flows`].
#[derive(Debug, Clone, PartialEq)]
pub enum RouteFlowsError {
    /// The flow set itself is invalid (overlapping ports, out of range).
    InvalidFlows(FlowError),
    /// The flows are valid but cannot be routed concurrently (Fig 7j).
    Conflict(RoutingConflict),
}

impl fmt::Display for RouteFlowsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteFlowsError::InvalidFlows(e) => write!(f, "invalid flow set: {e}"),
            RouteFlowsError::Conflict(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for RouteFlowsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouteFlowsError::InvalidFlows(e) => Some(e),
            RouteFlowsError::Conflict(c) => Some(c),
        }
    }
}

impl From<FlowError> for RouteFlowsError {
    fn from(e: FlowError) -> Self {
        RouteFlowsError::InvalidFlows(e)
    }
}

impl From<RoutingConflict> for RouteFlowsError {
    fn from(c: RoutingConflict) -> Self {
        RouteFlowsError::Conflict(c)
    }
}

/// Routes `flows` concurrently on `net`.
///
/// # Errors
///
/// * [`RouteFlowsError::InvalidFlows`] if flows overlap on a port or
///   reference ports outside the interconnect;
/// * [`RouteFlowsError::Conflict`] if the conflict graph at some
///   recursion level cannot be coloured with `net.m()` colours.
pub fn route_flows(net: &Interconnect, flows: &[Flow]) -> Result<RoutedNetwork, RouteFlowsError> {
    validate_phase(flows, net.ports())?;
    Ok(route_level(net, flows, 0)?)
}

fn route_level(
    net: &Interconnect,
    flows: &[Flow],
    depth: usize,
) -> Result<RoutedNetwork, RoutingConflict> {
    match net.kind() {
        NetKind::Leaf2 | NetKind::Leaf3 => Ok(RoutedNetwork::Leaf(LeafRoute {
            ports: net.ports(),
            flows: flows.to_vec(),
        })),
        NetKind::Stage { r, odd, middle } => {
            let r = *r;
            let odd = *odd;
            let m = net.m();
            let graph = ConflictGraph::from_flows(flows, |p| net.unit_of_port(p));
            let colors = graph.color(m).ok_or(RoutingConflict {
                ports: net.ports(),
                m,
                flows: flows.len(),
                depth,
            })?;

            // Port -> owning flow on the input/output side.
            let mut in_owner: Vec<Option<usize>> = vec![None; net.ports()];
            let mut out_owner: Vec<Option<usize>> = vec![None; net.ports()];
            for (i, f) in flows.iter().enumerate() {
                for &p in f.ips() {
                    in_owner[p] = Some(i);
                }
                for &p in f.ops() {
                    out_owner[p] = Some(i);
                }
            }

            let mut input_units = vec![InputUnitConfig::Idle; r];
            let mut output_units = vec![OutputUnitConfig::Idle; r];
            for k in 0..r {
                let (a, b) = (in_owner[2 * k], in_owner[2 * k + 1]);
                input_units[k] = match (a, b) {
                    (Some(fa), Some(fb)) if fa == fb => InputUnitConfig::Reduce { out: colors[fa] },
                    (None, None) => InputUnitConfig::Idle,
                    _ => {
                        let out0 = a.map(|f| colors[f]);
                        let out1 = b.map(|f| colors[f]);
                        debug_assert!(
                            out0.is_none() || out0 != out1,
                            "colouring allowed two flows to share a middle via unit {k}"
                        );
                        InputUnitConfig::Route { out0, out1 }
                    }
                };
                let (a, b) = (out_owner[2 * k], out_owner[2 * k + 1]);
                output_units[k] = match (a, b) {
                    (Some(fa), Some(fb)) if fa == fb => {
                        OutputUnitConfig::Broadcast { src: colors[fa] }
                    }
                    (None, None) => OutputUnitConfig::Idle,
                    _ => {
                        let src0 = a.map(|f| colors[f]);
                        let src1 = b.map(|f| colors[f]);
                        debug_assert!(src0.is_none() || src0 != src1);
                        OutputUnitConfig::Route { src0, src1 }
                    }
                };
            }
            let demux = if odd {
                in_owner[2 * r].map(|f| colors[f])
            } else {
                None
            };
            let mux = if odd {
                out_owner[2 * r].map(|f| colors[f])
            } else {
                None
            };

            // Induced flows per middle subnetwork.
            let tail_mid_port = r; // middle port index for the tail
            let mut induced: Vec<Vec<Flow>> = vec![Vec::new(); m];
            for (i, f) in flows.iter().enumerate() {
                let mut ips = std::collections::BTreeSet::new();
                let mut ops = std::collections::BTreeSet::new();
                for &p in f.ips() {
                    match net.unit_of_port(p) {
                        PortUnit::Unit(k) => {
                            ips.insert(k);
                        }
                        PortUnit::Tail => {
                            ips.insert(tail_mid_port);
                        }
                    }
                }
                for &p in f.ops() {
                    match net.unit_of_port(p) {
                        PortUnit::Unit(k) => {
                            ops.insert(k);
                        }
                        PortUnit::Tail => {
                            ops.insert(tail_mid_port);
                        }
                    }
                }
                let induced_flow =
                    Flow::new(ips, ops).expect("induced flow port sets are non-empty");
                induced[colors[i]].push(induced_flow);
            }

            let middles = induced
                .into_iter()
                .map(|fs| route_level(middle, &fs, depth + 1))
                .collect::<Result<Vec<_>, _>>()?;

            Ok(RoutedNetwork::Stage(Box::new(RoutedStage {
                ports: net.ports(),
                r,
                odd,
                m,
                flow_colors: colors,
                input_units,
                output_units,
                demux,
                mux,
                middles,
            })))
        }
    }
}

/// Errors from functional evaluation of a routed network.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// A flow's input port had no payload.
    MissingInput {
        /// The empty port.
        port: usize,
    },
    /// Wrong number of payload slots supplied.
    WrongArity {
        /// Expected slot count (the network's port count).
        expected: usize,
        /// Supplied slot count.
        got: usize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::MissingInput { port } => {
                write!(f, "no payload supplied on input port {port}")
            }
            EvalError::WrongArity { expected, got } => {
                write!(f, "expected {expected} payload slots, got {got}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// A discrepancy found by [`RoutedNetwork::verify`].
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// The flow whose contract was violated (index into the verified
    /// flow slice).
    pub flow: usize,
    /// The output port where the discrepancy was observed.
    pub port: usize,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flow {} violated at output port {}: {}",
            self.flow, self.port, self.detail
        )
    }
}

impl std::error::Error for VerifyError {}

impl RoutedNetwork {
    /// External port count.
    pub fn ports(&self) -> usize {
        match self {
            RoutedNetwork::Leaf(l) => l.ports,
            RoutedNetwork::Stage(s) => s.ports,
        }
    }

    /// Pushes payloads through the configured datapath. `inputs[p]` is
    /// the payload presented at input port `p` (or `None`). Returns the
    /// payload appearing at each output port.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] if the slot count is wrong or a configured
    /// path is missing its payload.
    pub fn evaluate(
        &self,
        inputs: &[Option<Vec<f64>>],
    ) -> Result<Vec<Option<Vec<f64>>>, EvalError> {
        if inputs.len() != self.ports() {
            return Err(EvalError::WrongArity {
                expected: self.ports(),
                got: inputs.len(),
            });
        }
        match self {
            RoutedNetwork::Leaf(l) => {
                let mut out: Vec<Option<Vec<f64>>> = vec![None; l.ports];
                for f in &l.flows {
                    let mut acc: Option<Vec<f64>> = None;
                    for &p in f.ips() {
                        let v = inputs[p]
                            .as_ref()
                            .ok_or(EvalError::MissingInput { port: p })?;
                        acc = Some(match acc {
                            None => v.clone(),
                            Some(a) => reduce(&a, v),
                        });
                    }
                    let val = acc.expect("flow has at least one input");
                    for &p in f.ops() {
                        debug_assert!(out[p].is_none(), "output port {p} written twice");
                        out[p] = Some(val.clone());
                    }
                }
                Ok(out)
            }
            RoutedNetwork::Stage(s) => {
                let mid_ports = s.middles[0].ports();
                let mut mid_in: Vec<Vec<Option<Vec<f64>>>> = vec![vec![None; mid_ports]; s.m];
                for (k, cfg) in s.input_units.iter().enumerate() {
                    let v0 = inputs[2 * k].as_ref();
                    let v1 = inputs[2 * k + 1].as_ref();
                    match *cfg {
                        InputUnitConfig::Idle => {}
                        InputUnitConfig::Route { out0, out1 } => {
                            if let Some(c) = out0 {
                                let v = v0.ok_or(EvalError::MissingInput { port: 2 * k })?;
                                mid_in[c][k] = Some(v.clone());
                            }
                            if let Some(c) = out1 {
                                let v = v1.ok_or(EvalError::MissingInput { port: 2 * k + 1 })?;
                                debug_assert!(mid_in[c][k].is_none());
                                mid_in[c][k] = Some(v.clone());
                            }
                        }
                        InputUnitConfig::Reduce { out } => {
                            let a = v0.ok_or(EvalError::MissingInput { port: 2 * k })?;
                            let b = v1.ok_or(EvalError::MissingInput { port: 2 * k + 1 })?;
                            mid_in[out][k] = Some(reduce(a, b));
                        }
                    }
                }
                if let Some(c) = s.demux {
                    let v = inputs[2 * s.r]
                        .as_ref()
                        .ok_or(EvalError::MissingInput { port: 2 * s.r })?;
                    mid_in[c][s.r] = Some(v.clone());
                }

                let mid_out: Vec<Vec<Option<Vec<f64>>>> = s
                    .middles
                    .iter()
                    .zip(mid_in)
                    .map(|(mid, input)| mid.evaluate(&input))
                    .collect::<Result<_, _>>()?;

                let mut out: Vec<Option<Vec<f64>>> = vec![None; s.ports];
                for (k, cfg) in s.output_units.iter().enumerate() {
                    match *cfg {
                        OutputUnitConfig::Idle => {}
                        OutputUnitConfig::Route { src0, src1 } => {
                            if let Some(c) = src0 {
                                out[2 * k] = mid_out[c][k].clone();
                            }
                            if let Some(c) = src1 {
                                out[2 * k + 1] = mid_out[c][k].clone();
                            }
                        }
                        OutputUnitConfig::Broadcast { src } => {
                            out[2 * k] = mid_out[src][k].clone();
                            out[2 * k + 1] = mid_out[src][k].clone();
                        }
                    }
                }
                if let Some(c) = s.mux {
                    out[2 * s.r] = mid_out[c][s.r].clone();
                }
                Ok(out)
            }
        }
    }

    /// Proves that this routing realises `flows`: injecting a distinct
    /// payload at every input port, each flow's output ports must carry
    /// exactly the sum of that flow's input payloads, and untouched
    /// output ports must stay empty.
    ///
    /// Payloads are powers of two (exact in `f64`) when the port count
    /// allows, so the check is bit-exact.
    ///
    /// # Errors
    ///
    /// Returns the first discrepancy found.
    ///
    /// # Panics
    ///
    /// Panics if evaluation itself fails, which indicates an internal
    /// routing bug rather than a caller error.
    pub fn verify(&self, flows: &[Flow]) -> Result<(), VerifyError> {
        let p = self.ports();
        let stim = |port: usize| -> f64 {
            if p <= 52 {
                (2.0f64).powi(port as i32)
            } else {
                // Deterministic pseudo-random, distinct per port.
                let x = (port as f64 + 1.0) * 997.0;
                (x * 1.618_033_988_749).fract() + 1.0
            }
        };
        let mut inputs: Vec<Option<Vec<f64>>> = vec![None; p];
        for f in flows {
            for &ip in f.ips() {
                inputs[ip] = Some(vec![stim(ip)]);
            }
        }
        let outputs = self
            .evaluate(&inputs)
            .expect("routed network must evaluate");

        let mut expected: Vec<Option<(usize, f64)>> = vec![None; p];
        for (i, f) in flows.iter().enumerate() {
            let sum: f64 = f.ips().iter().map(|&ip| stim(ip)).sum();
            for &op in f.ops() {
                expected[op] = Some((i, sum));
            }
        }
        for port in 0..p {
            match (&outputs[port], expected[port]) {
                (Some(got), Some((flow, want))) => {
                    let ok = if p <= 52 {
                        got.len() == 1 && got[0] == want
                    } else {
                        got.len() == 1 && (got[0] - want).abs() < 1e-9 * want.abs().max(1.0)
                    };
                    if !ok {
                        return Err(VerifyError {
                            flow,
                            port,
                            detail: format!("expected {want}, got {got:?}"),
                        });
                    }
                }
                (None, Some((flow, want))) => {
                    return Err(VerifyError {
                        flow,
                        port,
                        detail: format!("expected {want}, port carried nothing"),
                    });
                }
                (Some(got), None) => {
                    return Err(VerifyError {
                        flow: usize::MAX,
                        port,
                        detail: format!("port should be idle but carried {got:?}"),
                    });
                }
                (None, None) => {}
            }
        }
        Ok(())
    }

    /// Number of in-fabric reduction operations this routing performs
    /// (stage units with the R feature active, plus leaf-level
    /// reductions).
    pub fn reduction_count(&self) -> usize {
        match self {
            RoutedNetwork::Leaf(l) => l
                .flows
                .iter()
                .map(|f| f.ips().len().saturating_sub(1))
                .sum(),
            RoutedNetwork::Stage(s) => {
                let local = s
                    .input_units
                    .iter()
                    .filter(|c| matches!(c, InputUnitConfig::Reduce { .. }))
                    .count();
                local
                    + s.middles
                        .iter()
                        .map(RoutedNetwork::reduction_count)
                        .sum::<usize>()
            }
        }
    }

    /// Number of in-fabric distribution (broadcast) operations.
    pub fn distribution_count(&self) -> usize {
        match self {
            RoutedNetwork::Leaf(l) => l
                .flows
                .iter()
                .map(|f| f.ops().len().saturating_sub(1))
                .sum(),
            RoutedNetwork::Stage(s) => {
                let local = s
                    .output_units
                    .iter()
                    .filter(|c| matches!(c, OutputUnitConfig::Broadcast { .. }))
                    .count();
                local
                    + s.middles
                        .iter()
                        .map(RoutedNetwork::distribution_count)
                        .sum::<usize>()
            }
        }
    }

    /// Number of active (non-idle) stage units plus active leaves.
    pub fn active_unit_count(&self) -> usize {
        match self {
            RoutedNetwork::Leaf(l) => usize::from(!l.flows.is_empty()),
            RoutedNetwork::Stage(s) => {
                let inputs = s
                    .input_units
                    .iter()
                    .filter(|c| !matches!(c, InputUnitConfig::Idle))
                    .count();
                let outputs = s
                    .output_units
                    .iter()
                    .filter(|c| !matches!(c, OutputUnitConfig::Idle))
                    .count();
                inputs
                    + outputs
                    + s.middles
                        .iter()
                        .map(RoutedNetwork::active_unit_count)
                        .sum::<usize>()
            }
        }
    }
}

/// What an active reduction feature computes: the element-wise sum of
/// two payloads.
///
/// # Panics
///
/// Panics if the payload lengths differ.
fn reduce(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "reduced payloads must have equal length");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(m: usize, p: usize) -> Interconnect {
        Interconnect::new(m, p).unwrap()
    }

    #[test]
    fn routes_single_unicast_everywhere() {
        for p in [2, 3, 4, 5, 8, 11, 12, 16] {
            let fabric = net(2, p);
            for src in 0..p {
                for dst in 0..p {
                    let flows = vec![Flow::unicast(src, dst)];
                    let routed = route_flows(&fabric, &flows)
                        .unwrap_or_else(|e| panic!("P={p} {src}->{dst}: {e}"));
                    routed.verify(&flows).unwrap();
                }
            }
        }
    }

    #[test]
    fn routes_fig7h_two_all_reduces() {
        // Fig 7(h): green AR over {0,1,2} and orange AR over {3,4,5} on
        // Fred2(8).
        let fabric = net(2, 8);
        let flows = vec![
            Flow::all_reduce([0usize, 1, 2]).unwrap(),
            Flow::all_reduce([3usize, 4, 5]).unwrap(),
        ];
        let routed = route_flows(&fabric, &flows).unwrap();
        routed.verify(&flows).unwrap();
        assert!(routed.reduction_count() >= 2);
        assert!(routed.distribution_count() >= 2);
    }

    #[test]
    fn triangle_conflict_on_m2_resolved_by_m3() {
        // Three pairwise-conflicting All-Reduces (circular dependency as
        // in Fig 7j): not routable with m=2, routable with m=3.
        let flows = vec![
            Flow::all_reduce([0usize, 2]).unwrap(),
            Flow::all_reduce([3usize, 4]).unwrap(),
            Flow::all_reduce([1usize, 5]).unwrap(),
        ];
        let err = route_flows(&net(2, 8), &flows).unwrap_err();
        assert!(matches!(err, RouteFlowsError::Conflict(_)));

        let routed = route_flows(&net(3, 8), &flows).unwrap();
        routed.verify(&flows).unwrap();
    }

    #[test]
    fn wafer_wide_all_reduce_uses_reductions() {
        for p in [4usize, 8, 12, 16] {
            let fabric = net(3, p);
            let flows = vec![Flow::all_reduce(0..p).unwrap()];
            let routed = route_flows(&fabric, &flows).unwrap();
            routed.verify(&flows).unwrap();
            // A P-way reduce needs exactly P-1 pairwise reductions.
            assert_eq!(routed.reduction_count(), p - 1, "P={p}");
            assert_eq!(routed.distribution_count(), p - 1, "P={p}");
        }
    }

    #[test]
    fn full_permutations_route_on_benes() {
        // Rearrangeable nonblocking for unicast when m=2 (§5.3): route
        // several full permutations on Fred2(8).
        let fabric = net(2, 8);
        let perms: [[usize; 8]; 4] = [
            [0, 1, 2, 3, 4, 5, 6, 7],
            [7, 6, 5, 4, 3, 2, 1, 0],
            [1, 0, 3, 2, 5, 4, 7, 6],
            [3, 7, 1, 5, 0, 4, 2, 6],
        ];
        for perm in perms {
            let flows: Vec<Flow> = perm
                .iter()
                .enumerate()
                .map(|(s, &d)| Flow::unicast(s, d))
                .collect();
            let routed =
                route_flows(&fabric, &flows).unwrap_or_else(|e| panic!("perm {perm:?}: {e}"));
            routed.verify(&flows).unwrap();
        }
    }

    #[test]
    fn odd_port_network_routes_collectives() {
        let fabric = net(3, 11);
        let flows = vec![
            Flow::all_reduce([0usize, 3, 10]).unwrap(),
            Flow::all_reduce([1usize, 4, 7]).unwrap(),
            Flow::reduce_to([5usize, 8], 9).unwrap(),
        ];
        let routed = route_flows(&fabric, &flows).unwrap();
        routed.verify(&flows).unwrap();
    }

    #[test]
    fn multicast_and_reduce_route() {
        let fabric = net(2, 8);
        let flows = vec![
            Flow::multicast(0, [2, 3, 5]).unwrap(),
            Flow::reduce_to([1, 4, 6], 7).unwrap(),
        ];
        let routed = route_flows(&fabric, &flows).unwrap();
        routed.verify(&flows).unwrap();
    }

    #[test]
    fn asymmetric_flow_ips_ne_ops() {
        let fabric = net(3, 12);
        // Reduce-scatter-ish step: reduce over {0..5}, deliver to {6,7}.
        let flows = vec![Flow::new(0..6, [6, 7]).unwrap()];
        let routed = route_flows(&fabric, &flows).unwrap();
        routed.verify(&flows).unwrap();
    }

    #[test]
    fn invalid_flow_sets_rejected_before_routing() {
        let fabric = net(2, 8);
        let flows = vec![Flow::unicast(0, 1), Flow::unicast(0, 2)];
        assert!(matches!(
            route_flows(&fabric, &flows),
            Err(RouteFlowsError::InvalidFlows(_))
        ));
        let flows = vec![Flow::unicast(0, 99)];
        assert!(matches!(
            route_flows(&fabric, &flows),
            Err(RouteFlowsError::InvalidFlows(_))
        ));
    }

    #[test]
    fn empty_flow_set_routes_trivially() {
        let routed = route_flows(&net(2, 8), &[]).unwrap();
        assert_eq!(routed.reduction_count(), 0);
        assert_eq!(routed.active_unit_count(), 0);
        let out = routed.evaluate(&vec![None; 8]).unwrap();
        assert!(out.iter().all(Option::is_none));
    }

    #[test]
    fn three_concurrent_flows_fig7i() {
        // Fig 7(i): three AR flows on Fred2(8), colourable with 2 colours.
        let flows = vec![
            Flow::all_reduce([0usize, 1]).unwrap(),
            Flow::all_reduce([2usize, 3, 4]).unwrap(),
            Flow::all_reduce([5usize, 6, 7]).unwrap(),
        ];
        let routed = route_flows(&net(2, 8), &flows).unwrap();
        routed.verify(&flows).unwrap();
    }

    #[test]
    fn verify_catches_tampered_routing() {
        let fabric = net(2, 4);
        let flows = vec![Flow::unicast(0, 3)];
        let routed = route_flows(&fabric, &flows).unwrap();
        // Verifying against a different contract must fail.
        let wrong = vec![Flow::unicast(0, 2)];
        assert!(routed.verify(&wrong).is_err());
    }

    #[test]
    fn evaluate_rejects_wrong_arity() {
        let routed = route_flows(&net(2, 4), &[]).unwrap();
        assert!(matches!(
            routed.evaluate(&[None, None]),
            Err(EvalError::WrongArity {
                expected: 4,
                got: 2
            })
        ));
    }

    #[test]
    fn concurrent_all_to_all_step_routes() {
        // One step of All-to-All: shift-by-1 permutation among 6 of 8 ports.
        let group = [0usize, 1, 2, 3, 4, 5];
        let flows: Vec<Flow> = group
            .iter()
            .enumerate()
            .map(|(i, &src)| Flow::unicast(src, group[(i + 1) % group.len()]))
            .collect();
        let routed = route_flows(&net(2, 8), &flows).unwrap();
        routed.verify(&flows).unwrap();
    }
}
