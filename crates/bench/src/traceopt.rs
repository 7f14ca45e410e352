//! `--trace` / `--report` / `--dashboard` command-line support for
//! figure binaries.
//!
//! Every instrumented binary accepts:
//!
//! * `--trace <path>` — record telemetry and write a Chrome-trace /
//!   Perfetto JSON file (open at <https://ui.perfetto.dev>);
//! * `--report <path>` — write a versioned machine-readable
//!   [`BenchReport`](crate::report::BenchReport) JSON
//!   (`BENCH_<name>.json` by convention) with the binary's headline
//!   simulated results and solver cost counters (`sim`), host timings
//!   (`perf`), and critical-path attribution — the input to
//!   `bench-diff`;
//! * `--dashboard <path>` — write a self-contained offline HTML
//!   dashboard (inline SVG sparklines and a link-utilization heatmap,
//!   no CDN) from the flight-recorder time series;
//! * `--prof` — enable the host-side self-profiler; its site table
//!   lands in the report (`prof` section) and the dashboard.
//!
//! Binary-specific flags (`dse_sweep`'s `--threads`, `cluster_sweep`'s
//! `--snapshot-at` and `--restore`) go through
//! [`TraceOpts::from_args_with`]; every other binary rejects them as
//! unknown arguments.
//!
//! Any flag alone turns recording on; with none, the binary runs
//! untraced through the zero-overhead `NullSink` and produces
//! bit-identical simulation results. Each output has its own sink, and
//! the binary records into whichever were requested: `--trace` into
//! the ring recorder (whole events, bounded by overwriting), `--report`
//! into the [`AnalysisSink`] (one analysis per run, bounded by the
//! largest run), `--dashboard` into the flight recorder (bounded by
//! decimation, spans the whole process).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use fred_sim::solver::SolverStats;
use fred_sim::topology::Topology;
use fred_telemetry::analysis::AnalysisSink;
use fred_telemetry::dashboard;
use fred_telemetry::perfetto::{export_chrome_trace, TraceMeta};
use fred_telemetry::prof;
use fred_telemetry::sink::{NullSink, RingRecorder, TeeSink, TraceSink};
use fred_telemetry::timeseries::FlightRecorder;

use crate::report::BenchReport;

/// Parsed tracing options plus the shared sink to simulate with.
#[derive(Debug)]
pub struct TraceOpts {
    /// Where to write the Chrome-trace JSON, if requested.
    pub trace_path: Option<PathBuf>,
    /// Where to write the bench report JSON, if requested.
    pub report_path: Option<PathBuf>,
    /// Where to write the offline HTML dashboard, if requested.
    pub dashboard_path: Option<PathBuf>,
    recorder: Option<Rc<RingRecorder>>,
    analysis: Option<Rc<AnalysisSink>>,
    flight: Option<Rc<FlightRecorder>>,
    prof_enabled: bool,
    link_names: Vec<String>,
    process_name: String,
    report: Option<BenchReport>,
    started: Instant,
    events_at_start: u64,
    solver_at_start: SolverStats,
    compactions_at_start: u64,
}

impl TraceOpts {
    /// Parses the shared flags (`--trace <path>`, `--report <path>`,
    /// …) out of the process arguments. `process_name` labels the
    /// trace and report (use the figure name). Also starts the wall
    /// timer that `--report` records.
    ///
    /// # Panics
    ///
    /// Panics with a usage message when a flag is missing its value
    /// or an argument is unrecognised.
    pub fn from_args(process_name: &str) -> TraceOpts {
        TraceOpts::from_args_with(process_name, |_, _| false)
    }

    /// [`TraceOpts::from_args`] with an escape hatch for binaries that
    /// take extra flags: `custom(flag, next_arg)` is called for every
    /// argument this parser does not recognise, with a closure that
    /// pulls the flag's value off the argument stream. Return `true`
    /// if the flag was consumed; `false` falls through to the usage
    /// error.
    ///
    /// # Panics
    ///
    /// As [`TraceOpts::from_args`].
    pub fn from_args_with(
        process_name: &str,
        mut custom: impl FnMut(&str, &mut dyn FnMut() -> Option<String>) -> bool,
    ) -> TraceOpts {
        let mut trace_path = None;
        let mut report_path = None;
        let mut dashboard_path = None;
        let mut prof_enabled = false;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--trace" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage(process_name, "--trace"));
                    trace_path = Some(PathBuf::from(v));
                }
                "--report" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage(process_name, "--report"));
                    report_path = Some(PathBuf::from(v));
                }
                "--dashboard" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage(process_name, "--dashboard"));
                    dashboard_path = Some(PathBuf::from(v));
                }
                "--prof" => prof_enabled = true,
                other => {
                    if !custom(other, &mut || args.next()) {
                        eprintln!("{process_name}: unknown argument `{other}`");
                        usage(process_name, other);
                    }
                }
            }
        }
        if prof_enabled {
            prof::set_enabled(true);
            prof::reset();
        }
        let recorder = trace_path.as_ref().map(|_| Rc::new(RingRecorder::new()));
        let analysis = report_path.as_ref().map(|_| Rc::new(AnalysisSink::new()));
        let flight = dashboard_path
            .as_ref()
            .map(|_| Rc::new(FlightRecorder::new()));
        let report = report_path.as_ref().map(|_| BenchReport::new(process_name));
        TraceOpts {
            trace_path,
            report_path,
            dashboard_path,
            recorder,
            analysis,
            flight,
            prof_enabled,
            link_names: Vec::new(),
            process_name: process_name.to_string(),
            report,
            started: Instant::now(),
            events_at_start: fred_sim::netsim::global_events_processed(),
            solver_at_start: fred_sim::solver::global_solver_stats(),
            compactions_at_start: fred_sim::netsim::global_heap_compactions(),
        }
    }

    /// Records one headline simulated result in the report's `sim`
    /// section (e.g. `opts.metric("mesh/MP/secs", d.as_secs())`). A
    /// no-op when `--report` was not given; keys should be stable
    /// across commits because `bench-diff` compares them exactly.
    pub fn metric(&mut self, key: impl Into<String>, value: f64) {
        if let Some(r) = &mut self.report {
            r.metric(key, value);
        }
    }

    /// Records one host timing in the report's `perf` section (e.g.
    /// events/s or a speedup measured on this machine). A no-op when
    /// `--report` was not given; `bench-diff` prints these but never
    /// fails on them.
    pub fn perf(&mut self, key: impl Into<String>, value: f64) {
        if let Some(r) = &mut self.report {
            r.perf(key, value);
        }
    }

    /// The sink to pass into simulations: every requested output's
    /// sink, teed together, or the zero-overhead [`NullSink`] when none
    /// was requested.
    pub fn sink(&self) -> Rc<dyn TraceSink> {
        let recorder = self.recorder.clone().map(|s| s as Rc<dyn TraceSink>);
        let analysis = self.analysis.clone().map(|s| s as Rc<dyn TraceSink>);
        let flight = self.flight.clone().map(|s| s as Rc<dyn TraceSink>);
        let mut sinks = [recorder, analysis, flight].into_iter().flatten();
        let first = sinks.next().unwrap_or_else(|| Rc::new(NullSink));
        sinks.fold(first, |tee, s| Rc::new(TeeSink(tee, s)))
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.recorder.is_some() || self.analysis.is_some() || self.flight.is_some()
    }

    /// Names the trace's link-counter tracks after `topo`'s endpoints
    /// (`"src->dst"`). Call with the topology being simulated; with
    /// several topologies per run, the last call wins and earlier
    /// configs' link ids fall back to `link<i>` naming.
    pub fn name_links(&mut self, topo: &Topology) {
        if !self.enabled() {
            return;
        }
        self.link_names = topo
            .links()
            .map(|(_, l)| format!("{}->{}", topo.node(l.src).label, topo.node(l.dst).label))
            .collect();
    }

    /// Writes the requested output files and reports what was written
    /// (plus any trace ring overflow) on stderr; under `--prof` without
    /// `--report`, also prints the profiler site table there. Call
    /// once, after the last simulation.
    ///
    /// # Panics
    ///
    /// Panics if an output file cannot be written.
    pub fn finish(mut self) {
        if !self.enabled() && !self.prof_enabled {
            return;
        }
        let prof_sites = if self.prof_enabled {
            prof::snapshot()
        } else {
            BTreeMap::new()
        };
        if let (Some(rec), Some(path)) = (&self.recorder, &self.trace_path) {
            if rec.overwritten() > 0 {
                eprintln!(
                    "{}: WARNING: trace ring overflowed; oldest {} events dropped — \
                     the trace below is incomplete",
                    self.process_name,
                    rec.overwritten()
                );
            }
            let events = rec.events();
            let meta = TraceMeta {
                link_names: self.link_names.clone(),
                process_name: Some(self.process_name.clone()),
            };
            let mut out = std::fs::File::create(path)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
            export_chrome_trace(&events, &meta, &mut out)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            eprintln!(
                "{}: wrote {} trace events to {} (open at https://ui.perfetto.dev)",
                self.process_name,
                events.len(),
                path.display()
            );
        }
        if let (Some(sink), Some(path), Some(report)) =
            (&self.analysis, &self.report_path, &mut self.report)
        {
            let analysis = sink.finish();
            let wall_secs = self.started.elapsed().as_secs_f64();
            report.perf("wall_secs", wall_secs);
            // Simulator throughput over this binary's whole run:
            // flow lifecycle events processed per wall-clock second.
            let lifecycle_events =
                fred_sim::netsim::global_events_processed() - self.events_at_start;
            report.perf(
                "events_per_sec",
                lifecycle_events as f64 / wall_secs.max(f64::MIN_POSITIVE),
            );
            // Solver cost over this run (process-wide deltas):
            // deterministic simulation quantities, so they are part
            // of the exact regression surface like any other sim key.
            let sv = fred_sim::solver::global_solver_stats();
            let s0 = self.solver_at_start;
            for (key, value) in [
                ("solver/solves", sv.solves - s0.solves),
                ("solver/global_solves", sv.global_solves - s0.global_solves),
                (
                    "solver/refilled_flows",
                    sv.refilled_flows - s0.refilled_flows,
                ),
                ("solver/max_component", sv.max_component),
                (
                    "solver/heap_compactions",
                    fred_sim::netsim::global_heap_compactions() - self.compactions_at_start,
                ),
            ] {
                report.metric(key, value as f64);
            }
            eprintln!("{}", analysis.summary());
            report.analysis = Some(analysis);
            if !prof_sites.is_empty() {
                report.prof_json = Some(prof::to_json(&prof_sites));
            }
            report
                .write(path)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            eprintln!(
                "{}: wrote bench report ({} sim metrics) to {} — compare with `bench-diff`",
                self.process_name,
                report.sim.len(),
                path.display()
            );
        }
        if let (Some(flight), Some(path)) = (&self.flight, &self.dashboard_path) {
            std::fs::write(
                path,
                dashboard::render(&self.process_name, &flight.snapshot(), &prof_sites),
            )
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            eprintln!(
                "{}: wrote dashboard to {} (self-contained; open in any browser)",
                self.process_name,
                path.display()
            );
        }
        if self.prof_enabled && !prof_sites.is_empty() && self.report_path.is_none() {
            // No report to carry the table — summarize on stderr so
            // `--prof` alone is still useful.
            eprintln!("{}: profiler sites:", self.process_name);
            for (site, st) in &prof_sites {
                eprintln!(
                    "  {site}: n={} total={:.6} mean={:.9} max={:.9}",
                    st.count,
                    st.total,
                    st.mean(),
                    st.max
                );
            }
        }
    }
}

fn usage(process_name: &str, flag: &str) -> ! {
    eprintln!(
        "usage: {process_name} [--trace <path>] [--report <path>] \
         [--dashboard <path>] [--prof]  (failed at `{flag}`)"
    );
    std::process::exit(2);
}
