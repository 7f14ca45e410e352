#![warn(missing_docs)]

//! # fred-telemetry — simulation observability
//!
//! FRED's claims are about *where time and bandwidth go* inside one
//! training iteration: link-level contention, overlapping MP/PP/DP
//! collective phases, effective per-NPU bandwidth. This crate gives
//! every layer of the reproduction a common way to make that visible:
//!
//! * [`event::TraceEvent`] — structured simulation events: flow
//!   lifecycle (injected / drained / completed), rate-reallocation
//!   epochs with per-link utilization samples, collective phase
//!   begin/end, and trainer iteration stages;
//! * [`sink::TraceSink`] — the recording trait the simulator layers
//!   emit through. [`sink::NullSink`] is the zero-overhead default
//!   (instrumented code checks [`sink::TraceSink::enabled`] and skips
//!   event construction entirely); [`sink::RingRecorder`] is a
//!   preallocated ring-buffer recorder that never allocates per event
//!   once constructed;
//! * [`perfetto`] — a Chrome-trace / Perfetto JSON exporter. Open the
//!   emitted file at <https://ui.perfetto.dev>: collective phases
//!   render as duration spans, one track per parallelism dimension
//!   (MP / PP / DP), per-link utilization and active-flow counts as
//!   counter tracks;
//! * [`analysis`] / [`attribution`] — critical-path reconstruction
//!   over the recorded span DAG, charging every makespan second to
//!   {compute, exposed MP/PP/DP/bulk communication, contention,
//!   unattributed} via ideal-rate re-costing, plus the per-link
//!   contention matrix (which phase pairs shared a link and how much
//!   slowdown each inflicted). [`analysis::AnalysisSink`] is a
//!   streaming [`sink::TraceSink`] that analyses each run as it ends;
//! * [`timeseries`] — the continuous flight recorder: a streaming
//!   [`sink::TraceSink`] that folds the event stream into bounded,
//!   decimating time series (per-link utilization, per-tenant queue
//!   depth and stretch, phase mix) and log-bucketed completion-time
//!   histograms;
//! * [`prof`] — the scoped host-side self-profiler for the
//!   simulator's own hot paths (solver solves, batch injection,
//!   placement search), one relaxed atomic load when disabled;
//! * [`dashboard`] — a self-contained offline HTML dashboard over a
//!   flight-recorder snapshot: inline-SVG sparklines, a
//!   link-utilization heatmap and completion-time histograms.
//!
//! The crate is dependency-free and knows nothing about the simulator:
//! events carry raw ids (`u64` flows, `u32` links) and seconds as
//! `f64`, so `fred-sim`, `fred-collectives` and `fred-workloads` can
//! all emit into one sink without a layering cycle.
//!
//! ## Example
//!
//! ```
//! use fred_telemetry::analysis::AnalysisSink;
//! use fred_telemetry::event::{TraceEvent, Track};
//! use fred_telemetry::sink::{RingRecorder, TeeSink, TraceSink};
//!
//! let sink = TeeSink(RingRecorder::with_capacity(1024), AnalysisSink::new());
//! sink.record(TraceEvent::PhaseBegin {
//!     t: 0.0, track: Track::Mp, span: 1, label: "ring-allreduce".into(),
//!     bytes: 1e9, npus: 20, tag: 0,
//! });
//! sink.record(TraceEvent::PhaseEnd { t: 0.5, track: Track::Mp, span: 1 });
//! let analysis = sink.1.finish();
//! assert_eq!(analysis.runs.len(), 1);
//! assert_eq!(analysis.total_makespan(), 0.5);
//! let rec = &sink.0;
//! let mut json = Vec::new();
//! fred_telemetry::perfetto::export_chrome_trace(&rec.events(), &Default::default(), &mut json)
//!     .unwrap();
//! assert!(String::from_utf8(json).unwrap().contains("traceEvents"));
//! ```

pub mod analysis;
pub mod attribution;
pub mod dashboard;
pub mod event;
pub mod json;
pub mod perfetto;
pub mod prof;
pub mod sink;
pub mod timeseries;

pub use analysis::{Analysis, AnalysisSink};
pub use attribution::{Attribution, Bucket};
pub use event::{TraceEvent, Track};
pub use sink::{NullSink, RingRecorder, TeeSink, TraceSink};
pub use timeseries::{FlightRecorder, FlightSnapshot, LogHistogram, Series, SeriesKind};
