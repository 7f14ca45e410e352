#![warn(missing_docs)]

//! # fred-core — the FRED switch, interconnect, routing and wafer fabric
//!
//! This crate implements the paper's primary contribution (§4–§6):
//!
//! * [`microswitch`] — the R-/D-/RD-μSwitch building blocks (Fig 7e–g),
//! * [`interconnect`] — the recursive Fred_m(P) Clos-like interconnect
//!   for an arbitrary number of ports (Fig 7b–d),
//! * [`flow`] — the flow abstraction: a set of input ports reduced and
//!   broadcast to a set of output ports (§5.1),
//! * [`conflict`] — conflict-graph construction and exact graph
//!   colouring (§5.2, Fig 7i–j),
//! * [`routing`] — the recursive conflict-free routing protocol that
//!   materialises per-μSwitch configurations and evaluates the
//!   configured datapath functionally (§5.2–§5.3),
//! * [`collective`] — simple and compound collective algorithms compiled
//!   to flow steps (Table 2),
//! * [`switch`] — a FRED switch with a control unit storing per-phase
//!   configurations (§6.2.3),
//! * [`fabric`] — the hierarchical 2-level wafer-scale fabric instance
//!   with 20 NPUs and 18 I/O controllers (Fig 8, Table 5),
//! * [`placement`] — the congestion-aware device-placement policy for 3D
//!   parallelism (§5.3, option 4),
//! * [`params`] — physical constants (Table 3) and the Fred-A/B/C/D
//!   evaluation configurations (Table 5),
//! * [`microsim`] — a cycle-level packet model of one FRED switch with
//!   virtual channels, credit flow control, priority preemption and
//!   Go-Back-N retransmission (§5.4, §6.2.3),
//! * [`resolve`] — the §5.3 conflict-resolution strategies (blocking
//!   and endpoint decomposition),
//! * [`multiwafer`] — the §8.3 multi-wafer hierarchy and its
//!   three-step global All-Reduce,
//! * [`codec`] — the workspace's shared serde-free JSON + binary value
//!   codec (no external dependencies),
//! * [`snapshot`] — the versioned [`snapshot::SimState`] container and
//!   the [`snapshot::Snap`] trait every simulator layer's state
//!   implements, the foundation of bit-identical snapshot/resume.
//!
//! ## Quick example: route two concurrent All-Reduces on Fred₂(8)
//!
//! ```
//! use fred_core::flow::Flow;
//! use fred_core::interconnect::Interconnect;
//! use fred_core::routing::route_flows;
//!
//! let fabric = Interconnect::new(2, 8)?;
//! // The green and orange All-Reduces of Fig 7(h).
//! let flows = vec![
//!     Flow::all_reduce([0, 1, 2])?,
//!     Flow::all_reduce([3, 4, 5])?,
//! ];
//! let routed = route_flows(&fabric, &flows)?;
//! assert!(routed.verify(&flows).is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod codec;
pub mod collective;
pub mod conflict;
pub mod fabric;
pub mod flow;
pub mod interconnect;
pub mod microsim;
pub mod microswitch;
pub mod multiwafer;
pub mod params;
pub mod placement;
pub mod resolve;
pub mod routing;
pub mod snapshot;
pub mod switch;

pub use conflict::RoutingConflict;
pub use flow::Flow;
pub use interconnect::Interconnect;
pub use routing::{route_flows, RoutedNetwork};
