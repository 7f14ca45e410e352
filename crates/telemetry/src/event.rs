//! Structured simulation events.
//!
//! Events carry raw identifiers and `f64` seconds so every layer of
//! the stack (netsim, collectives, trainer) can emit without this
//! crate depending on any of them. [`TraceEvent::FlowDrained`],
//! [`TraceEvent::FlowCompleted`], [`TraceEvent::RateEpoch`] and
//! [`TraceEvent::LinkUtil`] are `Copy` data end to end;
//! [`TraceEvent::FlowInjected`] carries its route (one small boxed
//! slice per flow) so the analysis layer can re-cost every flow at its
//! contention-free rate and attribute link contention to phase pairs.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which display track an event belongs to — one per parallelism
/// dimension plus housekeeping tracks. Mirrors the paper's MP / PP /
/// DP phase taxonomy (§3.1) and the virtual-channel classes (§5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Track {
    /// Model/tensor-parallel collectives.
    Mp,
    /// Pipeline-parallel stage transfers.
    Pp,
    /// Data-parallel gradient collectives.
    Dp,
    /// Input loading, weight streaming and other bulk traffic.
    Bulk,
    /// Compute tasks (trainer roofline spans).
    Compute,
    /// Whole-iteration stage markers.
    Iteration,
}

impl Track {
    /// All tracks, in display order.
    pub const ALL: [Track; 6] = [
        Track::Mp,
        Track::Pp,
        Track::Dp,
        Track::Bulk,
        Track::Compute,
        Track::Iteration,
    ];

    /// Stable small integer for exporters (Perfetto `tid`).
    pub fn index(self) -> u32 {
        match self {
            Track::Mp => 0,
            Track::Pp => 1,
            Track::Dp => 2,
            Track::Bulk => 3,
            Track::Compute => 4,
            Track::Iteration => 5,
        }
    }

    /// Short lowercase slug for series names and label values
    /// (`open_phases/mp`, `queue_depth/dp`).
    pub fn short(self) -> &'static str {
        match self {
            Track::Mp => "mp",
            Track::Pp => "pp",
            Track::Dp => "dp",
            Track::Bulk => "bulk",
            Track::Compute => "compute",
            Track::Iteration => "iter",
        }
    }

    /// Human-readable track name.
    pub fn name(self) -> &'static str {
        match self {
            Track::Mp => "MP (tensor parallel)",
            Track::Pp => "PP (pipeline parallel)",
            Track::Dp => "DP (data parallel)",
            Track::Bulk => "bulk / streaming",
            Track::Compute => "compute",
            Track::Iteration => "iteration",
        }
    }
}

impl fmt::Display for Track {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured simulation event. Times are simulation seconds.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A fresh simulator was constructed over a topology. Marks the
    /// start of a new simulation *segment* within one recording (the
    /// figure binaries run several simulations into one sink) and
    /// carries the per-link capacities the analysis layer needs to
    /// re-cost flows at their contention-free rate.
    Topology {
        /// Simulation time (always the new simulator's clock zero).
        t: f64,
        /// Capacity in bytes/s per link, indexed by `LinkId.0`.
        capacities: Box<[f64]>,
    },
    /// A flow started draining bytes into the network.
    FlowInjected {
        /// Simulation time.
        t: f64,
        /// Flow id (unique per network).
        id: u64,
        /// Caller-supplied tag (collective phase, task id, …).
        tag: u64,
        /// Payload bytes.
        bytes: f64,
        /// Priority-derived track.
        track: Track,
        /// Route as link indices (`LinkId.0`), in traversal order.
        links: Box<[u32]>,
    },
    /// A flow pushed its last byte (stops consuming bandwidth).
    FlowDrained {
        /// Simulation time.
        t: f64,
        /// Flow id.
        id: u64,
    },
    /// A flow's tail arrived at the destination.
    FlowCompleted {
        /// Simulation time.
        t: f64,
        /// Flow id.
        id: u64,
        /// Caller-supplied tag.
        tag: u64,
        /// When the flow was injected (for completion-time metrics).
        injected_at: f64,
        /// Priority-derived track.
        track: Track,
    },
    /// The fair-share solver refilled rates after the active set
    /// changed (a rate-reallocation epoch). Emission is delta-aware:
    /// epochs where no rate actually moved are suppressed.
    RateEpoch {
        /// Simulation time.
        t: f64,
        /// Flows holding bandwidth after the refill.
        active_flows: u32,
        /// Flows whose rate actually changed in this refill (always
        /// non-zero for emitted epochs).
        changed: u32,
    },
    /// Utilization sample for one link, emitted when a refill moves
    /// its allocated rate (also when no flow's rate changed, as when
    /// the link's last flow drains).
    LinkUtil {
        /// Simulation time.
        t: f64,
        /// Link index (`LinkId.0`).
        link: u32,
        /// Allocated rate / capacity, in `[0, 1]`.
        utilization: f64,
    },
    /// A collective phase (or other span) began.
    PhaseBegin {
        /// Simulation time.
        t: f64,
        /// Display track.
        track: Track,
        /// Span id pairing this with its [`TraceEvent::PhaseEnd`].
        span: u64,
        /// Span label (plan label, task name, …).
        label: Box<str>,
        /// Bytes the phase moves (0 when unknown).
        bytes: f64,
        /// Endpoints participating (0 when unknown).
        npus: u32,
        /// Correlation tag: flows injected with this
        /// [`TraceEvent::FlowInjected::tag`] while the span is open
        /// belong to it (0 when the span owns no flows).
        tag: u64,
    },
    /// A collective phase ended.
    PhaseEnd {
        /// Simulation time.
        t: f64,
        /// Display track.
        track: Track,
        /// Span id of the matching [`TraceEvent::PhaseBegin`].
        span: u64,
    },
    /// A happens-before edge between two spans: `span` could not start
    /// before `pred` finished (a trainer task dependency or the serial
    /// phase ordering of a collective plan). The analysis layer uses
    /// these edges to reconstruct the causal DAG and its critical path.
    SpanDep {
        /// Simulation time the edge was observed (the successor's
        /// start).
        t: f64,
        /// The successor span id.
        span: u64,
        /// The predecessor span id.
        pred: u64,
    },
    /// An instantaneous trainer iteration-stage marker.
    IterStage {
        /// Simulation time.
        t: f64,
        /// Marker label.
        label: Box<str>,
    },
    /// A fault fired: a link lost capacity (failure or degradation).
    /// Lets traces and the attribution analyzer show which stalls and
    /// re-routes are fault-induced.
    Fault {
        /// Simulation time.
        t: f64,
        /// Link index (`LinkId.0`).
        link: u32,
        /// Remaining capacity as a fraction of the link's design
        /// bandwidth: `0.0` for a full failure, `(0, 1)` for a
        /// degradation.
        capacity_fraction: f64,
        /// In-flight flows evicted for re-routing (0 for degradations).
        evicted: u32,
    },
    /// A generic named measurement for quantities the core event
    /// vocabulary doesn't model — the cluster scheduler's per-class
    /// queue depth, running-job counts and per-job stretch flow
    /// through here. The flight recorder folds samples into a gauge
    /// series per `key`; other consumers may ignore them.
    Sample {
        /// Simulation time.
        t: f64,
        /// Series name, `base/detail` by convention
        /// (`queue_depth/high`, `stretch/job3`).
        key: Box<str>,
        /// Sampled value.
        value: f64,
    },
}

impl TraceEvent {
    /// The simulation time the event occurred at.
    pub fn time(&self) -> f64 {
        match *self {
            TraceEvent::Topology { t, .. }
            | TraceEvent::FlowInjected { t, .. }
            | TraceEvent::FlowDrained { t, .. }
            | TraceEvent::FlowCompleted { t, .. }
            | TraceEvent::RateEpoch { t, .. }
            | TraceEvent::LinkUtil { t, .. }
            | TraceEvent::PhaseBegin { t, .. }
            | TraceEvent::PhaseEnd { t, .. }
            | TraceEvent::SpanDep { t, .. }
            | TraceEvent::IterStage { t, .. }
            | TraceEvent::Fault { t, .. }
            | TraceEvent::Sample { t, .. } => t,
        }
    }
}

/// Process-wide span-id source for [`TraceEvent::PhaseBegin`] /
/// [`TraceEvent::PhaseEnd`] pairs. Ids are unique within a process;
/// they never affect simulation results, only trace pairing.
pub fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_unique() {
        let a = next_span_id();
        let b = next_span_id();
        assert_ne!(a, b);
    }

    #[test]
    fn time_accessor_covers_all_variants() {
        let evs = [
            TraceEvent::FlowInjected {
                t: 1.0,
                id: 0,
                tag: 0,
                bytes: 1.0,
                track: Track::Mp,
                links: Box::new([0]),
            },
            TraceEvent::FlowDrained { t: 2.0, id: 0 },
            TraceEvent::FlowCompleted {
                t: 3.0,
                id: 0,
                tag: 0,
                injected_at: 1.0,
                track: Track::Mp,
            },
            TraceEvent::RateEpoch {
                t: 4.0,
                active_flows: 2,
                changed: 1,
            },
            TraceEvent::LinkUtil {
                t: 5.0,
                link: 0,
                utilization: 0.5,
            },
            TraceEvent::PhaseBegin {
                t: 6.0,
                track: Track::Dp,
                span: 1,
                label: "x".into(),
                bytes: 0.0,
                npus: 0,
                tag: 0,
            },
            TraceEvent::PhaseEnd {
                t: 7.0,
                track: Track::Dp,
                span: 1,
            },
            TraceEvent::IterStage {
                t: 8.0,
                label: "fwd".into(),
            },
            TraceEvent::Topology {
                t: 9.0,
                capacities: Box::new([100.0]),
            },
            TraceEvent::SpanDep {
                t: 10.0,
                span: 2,
                pred: 1,
            },
            TraceEvent::Fault {
                t: 11.0,
                link: 3,
                capacity_fraction: 0.0,
                evicted: 2,
            },
            TraceEvent::Sample {
                t: 12.0,
                key: "queue_depth/high".into(),
                value: 4.0,
            },
        ];
        for (i, e) in evs.iter().enumerate() {
            assert_eq!(e.time(), (i + 1) as f64);
        }
    }

    #[test]
    fn track_indices_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for t in Track::ALL {
            assert!(seen.insert(t.index()), "duplicate tid for {t}");
        }
    }
}
