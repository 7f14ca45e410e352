#![warn(missing_docs)]

//! # fred-sim — discrete-event, flow-level network simulation substrate
//!
//! This crate is the network-simulation substrate used by the FRED
//! reproduction in place of the paper's ASTRA-SIM backend. It provides:
//!
//! * [`time::Time`] / [`time::Duration`] — simulation clock newtypes,
//! * [`topology::Topology`] — a directed multigraph of nodes and
//!   bandwidth/latency-annotated links,
//! * [`flow::FlowSpec`] — a point-to-point transfer along a fixed route,
//! * [`fairshare`] — a max-min fair bandwidth allocator with strict
//!   priority classes (the paper's MP > PP > DP preemption, §5.4),
//! * [`netsim::FlowNetwork`] — the event-driven simulator that advances
//!   flows to completion under the allocator,
//! * [`events::InstantQueue`] — the one time-ordered queue, one bucket
//!   per instant: the network's drains and notices and the schedule
//!   executor's compute finishes in `fred-workloads`.
//!
//! The model is *flow-level*: bandwidth on each link is shared max-min
//! fairly among the flows crossing it, recomputed whenever the set of
//! active flows changes. This reproduces the contention, hotspot and
//! effective-bandwidth phenomena the paper reasons about (per-NPU GB/s in
//! each communication phase) without per-packet state. Packet-level
//! behaviour of a single FRED switch (virtual channels, credits,
//! Go-Back-N) is modelled separately in `fred-core::microsim`.
//!
//! ## Example
//!
//! ```
//! use fred_sim::flow::FlowSpec;
//! use fred_sim::netsim::FlowNetwork;
//! use fred_sim::topology::{NodeKind, Topology};
//!
//! // Two nodes, one 100 B/s link, two equal flows => 50 B/s each.
//! let mut topo = Topology::new();
//! let a = topo.add_node(NodeKind::Npu, "a");
//! let b = topo.add_node(NodeKind::Npu, "b");
//! let l = topo.add_link(a, b, 100.0, 0.0);
//!
//! let mut net = FlowNetwork::new(topo);
//! net.inject(FlowSpec::new(vec![l], 100.0).with_tag(1)).unwrap();
//! net.inject(FlowSpec::new(vec![l], 100.0).with_tag(2)).unwrap();
//! let done = net.run_to_completion();
//! assert_eq!(done.len(), 2);
//! assert!((done[0].completed_at.as_secs() - 2.0).abs() < 1e-9);
//! ```

pub mod events;
pub mod fairshare;
pub mod fault;
pub mod flow;
pub mod netsim;
pub mod rng;
pub mod solver;
pub mod time;
pub mod topology;
