//! Flows: point-to-point transfers along a fixed route.

use std::fmt;

use crate::topology::Route;

/// Identifier of an injected flow within a
/// [`FlowNetwork`](crate::netsim::FlowNetwork).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Strict priority class of a flow, mirroring the paper's virtual-channel
/// assignment (§5.4 / §6.2.3): one control class plus one data class per
/// parallelism dimension, with MP > PP > DP.
///
/// Higher-priority flows are allocated bandwidth first; lower classes
/// receive only leftover capacity (the flow-level analogue of FRED
/// preempting the current communication for a higher-priority one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// ACK/NACK and other control traffic (highest).
    Control,
    /// Model/tensor-parallel traffic.
    Mp,
    /// Pipeline-parallel traffic.
    Pp,
    /// Data-parallel traffic.
    Dp,
    /// I/O streaming and everything else (lowest).
    #[default]
    Bulk,
}

impl Priority {
    /// All classes, highest first.
    pub const ALL: [Priority; 5] = [
        Priority::Control,
        Priority::Mp,
        Priority::Pp,
        Priority::Dp,
        Priority::Bulk,
    ];

    /// Numeric rank, 0 = highest priority.
    pub fn rank(self) -> usize {
        match self {
            Priority::Control => 0,
            Priority::Mp => 1,
            Priority::Pp => 2,
            Priority::Dp => 3,
            Priority::Bulk => 4,
        }
    }
}

/// Largest tenant rank. The allocator's fill classes are a `u8`, one
/// per `(tenant, priority)` pair (see [`fill_class`]), so 256 classes
/// hold 51 tenants of five priorities each.
pub const MAX_TENANT: u8 = ((u8::MAX as usize + 1) / Priority::ALL.len() - 1) as u8;

/// The allocator fill class of a flow: `(tenant, priority)`
/// lexicographic, 0 filled first. Tenant 0 yields exactly the priority
/// rank, so single-tenant runs hit the same solver arithmetic as
/// [`FairShareSolver::add_flow`](crate::solver::FairShareSolver::add_flow).
pub fn fill_class(tenant: u8, priority: Priority) -> u8 {
    tenant * Priority::ALL.len() as u8 + priority.rank() as u8
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Priority::Control => "control",
            Priority::Mp => "mp",
            Priority::Pp => "pp",
            Priority::Dp => "dp",
            Priority::Bulk => "bulk",
        };
        f.write_str(s)
    }
}

/// Specification of one flow to inject into the network.
///
/// ```
/// use fred_sim::flow::{FlowSpec, Priority};
/// use fred_sim::topology::LinkId;
///
/// let f = FlowSpec::new(vec![LinkId(0), LinkId(1)], 4096.0)
///     .with_priority(Priority::Mp)
///     .with_tag(7);
/// assert_eq!(f.bytes, 4096.0);
/// assert_eq!(f.priority, Priority::Mp);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// The links the flow traverses, in order. An empty route models a
    /// node-local transfer, which completes immediately.
    pub route: Route,
    /// Payload size in bytes. Fractional bytes are permitted — collective
    /// algorithms routinely divide payloads by group sizes.
    pub bytes: f64,
    /// Strict priority class.
    pub priority: Priority,
    /// Opaque tag propagated to the completion record; higher layers use
    /// it to map completions back to collective phases.
    pub tag: u64,
    /// Tenant rank for inter-job bandwidth isolation (0 = highest, the
    /// default, and the only rank single-job simulations use). The
    /// allocator fills classes in `(tenant, priority)` lexicographic
    /// order, so a higher-ranked tenant's traffic strictly preempts a
    /// lower one's on shared links.
    pub tenant: u8,
}

impl FlowSpec {
    /// Creates a flow over `route` carrying `bytes` bytes at the default
    /// ([`Priority::Bulk`]) priority.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is negative or not finite.
    pub fn new(route: Route, bytes: f64) -> FlowSpec {
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "flow size must be finite and non-negative, got {bytes}"
        );
        FlowSpec {
            route,
            bytes,
            priority: Priority::default(),
            tag: 0,
            tenant: 0,
        }
    }

    /// Sets the priority class.
    pub fn with_priority(mut self, priority: Priority) -> FlowSpec {
        self.priority = priority;
        self
    }

    /// Sets the completion tag.
    pub fn with_tag(mut self, tag: u64) -> FlowSpec {
        self.tag = tag;
        self
    }

    /// Sets the tenant rank (0 = highest precedence; see
    /// [`FlowSpec::tenant`]).
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is past [`MAX_TENANT`], whose fill classes
    /// would overflow the allocator's `u8` class space.
    pub fn with_tenant(mut self, tenant: u8) -> FlowSpec {
        assert!(
            tenant <= MAX_TENANT,
            "tenant rank {tenant} overflows the class space"
        );
        self.tenant = tenant;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkId;

    #[test]
    fn builder_sets_fields() {
        let f = FlowSpec::new(vec![LinkId(3)], 10.0)
            .with_priority(Priority::Dp)
            .with_tag(42);
        assert_eq!(f.route, vec![LinkId(3)]);
        assert_eq!(f.priority, Priority::Dp);
        assert_eq!(f.tag, 42);
        assert_eq!(f.tenant, 0, "default tenant is rank 0");
        assert_eq!(f.with_tenant(2).tenant, 2);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn oversized_tenant_rank_panics() {
        let _ = FlowSpec::new(vec![], 1.0).with_tenant(255);
    }

    #[test]
    fn priority_order_is_mp_pp_dp() {
        assert!(Priority::Control < Priority::Mp);
        assert!(Priority::Mp < Priority::Pp);
        assert!(Priority::Pp < Priority::Dp);
        assert!(Priority::Dp < Priority::Bulk);
        assert_eq!(Priority::Mp.rank(), 1);
        for (i, p) in Priority::ALL.iter().enumerate() {
            assert_eq!(p.rank(), i);
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_size_panics() {
        let _ = FlowSpec::new(vec![], -1.0);
    }

    #[test]
    fn zero_byte_flows_are_allowed() {
        let f = FlowSpec::new(vec![], 0.0);
        assert_eq!(f.bytes, 0.0);
    }
}
