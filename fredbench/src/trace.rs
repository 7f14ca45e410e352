//! Spans recorded around the benchmark's calls into the simulator's
//! layers, kept in memory, and the self time each layer owns.
//!
//! A span is either an *interval* (one call, with its start and end)
//! or a *busy* span: calls made once per simulated event, summed into
//! one span per (unit, layer) with a call count so memory stays
//! bounded. The simulator's own `prof` sites become busy spans too,
//! subtracted from the outside call that encloses them.
//!
//! A span's self time is its host time minus what its children cover:
//! the union of its interval children (so overlapping children count
//! once) plus the summed busy time of its busy children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use fred_telemetry::prof::{self, SiteStats};

/// The simulator layers host time is attributed to, named after the
/// repository's modules, plus the benchmark's own loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `fred_sim::solver`: the incremental fair-share solver.
    Solver,
    /// `fred_sim::netsim`: the flow-level event engine.
    Netsim,
    /// `fred_workloads::exec`: the schedule executor.
    Exec,
    /// `fred_workloads::schedule`: placement and schedule construction,
    /// including collective-plan compilation.
    Schedule,
    /// `fred_workloads::backend`: fabric construction.
    Backend,
    /// `fred_workloads::trainer`: breakdown and calibration runs.
    Trainer,
    /// `fred_cluster::scheduler`: everything inside `Cluster` that the
    /// simulator's profiler sites do not split off.
    Scheduler,
    /// `fred_dse::runner`: the sweep runner and per-point evaluation.
    DseRunner,
    /// `fred_dse::pareto`: front extraction.
    Pareto,
    /// `fred_core::codec`: binary encode and decode.
    Codec,
    /// `fred_core::snapshot` with `Cluster::snapshot`/`restore`.
    Snapshot,
    /// The benchmark's own loop between calls.
    Bench,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 12] = [
        Layer::Solver,
        Layer::Netsim,
        Layer::Exec,
        Layer::Schedule,
        Layer::Backend,
        Layer::Trainer,
        Layer::Scheduler,
        Layer::DseRunner,
        Layer::Pareto,
        Layer::Codec,
        Layer::Snapshot,
        Layer::Bench,
    ];

    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Solver => "solver",
            Layer::Netsim => "netsim",
            Layer::Exec => "exec",
            Layer::Schedule => "schedule",
            Layer::Backend => "backend",
            Layer::Trainer => "trainer",
            Layer::Scheduler => "scheduler",
            Layer::DseRunner => "dse_runner",
            Layer::Pareto => "pareto",
            Layer::Codec => "codec",
            Layer::Snapshot => "snapshot",
            Layer::Bench => "bench",
        }
    }
}

/// Index of a span in [`Tracer::spans`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called (`"schedule.build"`, `"solver.solve"`, …).
    pub name: &'static str,
    /// The layer its self time belongs to.
    pub layer: Layer,
    /// The unit of work it served.
    pub unit: u32,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Whether this is one call with a known interval; otherwise only
    /// its busy time is known.
    pub interval: bool,
    /// First call's start, ns since the tracer began.
    pub start_ns: u64,
    /// Last call's end, ns since the tracer began.
    pub end_ns: u64,
    /// Host time inside the span's calls (`end - start` for an interval).
    pub busy_ns: u64,
    /// Calls summed into the span.
    pub calls: u64,
}

/// The simulator's profiler sites: name, layer, and the sites that may
/// enclose them, innermost first. Parents precede their children.
const PROF_SITES: [(&str, Layer, &[&str]); 6] = [
    ("dse.point", Layer::DseRunner, &[]),
    ("cluster.dispatch", Layer::Scheduler, &["dse.point"]),
    (
        "cluster.preempt_window",
        Layer::Scheduler,
        &["cluster.dispatch", "dse.point"],
    ),
    ("exec.flush_staged", Layer::Exec, &["dse.point"]),
    (
        "netsim.inject_batch",
        Layer::Netsim,
        &["exec.flush_staged", "dse.point"],
    ),
    ("solver.solve", Layer::Solver, &["dse.point"]),
];

/// A reading of the simulator's profiler table.
pub type ProfTable = BTreeMap<&'static str, SiteStats>;

/// Records spans in memory for one traced run. A new span's parent is
/// the innermost interval span still open.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    open: Vec<SpanId>,
    /// Counts the benchmark records beside its spans, summed by name.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Starts an interval span; finish it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, layer: Layer, unit: u32) -> SpanId {
        let now = self.now_ns();
        let id = self.push(Span {
            name,
            layer,
            unit,
            parent: self.open.last().copied(),
            interval: true,
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            calls: 1,
        });
        self.open.push(id);
        id
    }

    /// Ends open span `id`. Spans opened inside it and left open (by a
    /// unit that panicked) are abandoned with no busy time.
    pub fn close(&mut self, id: SpanId) {
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.busy_ns = now - s.start_ns;
    }

    /// Runs `f` inside a new interval span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        unit: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, layer, unit);
        let r = f();
        self.close(id);
        r
    }

    /// [`Tracer::span`] with the profiler time accrued inside `f`
    /// recorded as the span's children.
    pub fn span_sites<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        unit: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let before = prof::snapshot();
        let id = self.open(name, layer, unit);
        let r = f();
        self.close(id);
        self.prof_children(&before, &prof::snapshot(), unit, |_| id);
        r
    }

    /// Adds `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_default() += v;
    }

    /// Creates an empty busy span that [`Tracer::call`] sums calls into.
    pub fn busy(&mut self, name: &'static str, layer: Layer, unit: u32) -> SpanId {
        let now = self.now_ns();
        self.push(Span {
            name,
            layer,
            unit,
            parent: self.open.last().copied(),
            interval: false,
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            calls: 0,
        })
    }

    /// Runs `f`, which makes `calls` calls into the layer, summed into
    /// busy span `id`. Timing a run of consecutive calls to one layer
    /// at once keeps the clock reads out of the loop between them.
    pub fn call<R>(&mut self, id: SpanId, calls: u64, f: impl FnOnce() -> R) -> R {
        let t0 = self.now_ns();
        let r = f();
        let t1 = self.now_ns();
        let s = &mut self.spans[id];
        if s.calls == 0 {
            s.start_ns = t0;
        }
        s.calls += calls;
        s.busy_ns += t1 - t0;
        s.end_ns = t1;
        r
    }

    /// Adds the profiler time accrued between `before` and `after` as
    /// busy spans: each site under the innermost enclosing site that
    /// fired, otherwise under `outer(site)`.
    pub fn prof_children(
        &mut self,
        before: &ProfTable,
        after: &ProfTable,
        unit: u32,
        outer: impl Fn(&'static str) -> SpanId,
    ) {
        let mut made: Vec<(&'static str, SpanId)> = Vec::new();
        for (site, layer, enclosing) in PROF_SITES {
            let Some(a) = after.get(site) else { continue };
            let b = before.get(site).copied().unwrap_or_default();
            let calls = a.count - b.count;
            if calls == 0 {
                continue;
            }
            let parent = enclosing
                .iter()
                .find_map(|e| made.iter().find(|(m, _)| m == e).map(|&(_, id)| id))
                .unwrap_or_else(|| outer(site));
            let at = self.spans[parent].start_ns;
            let id = self.push(Span {
                name: site,
                layer,
                unit,
                parent: Some(parent),
                interval: false,
                start_ns: at,
                end_ns: at,
                busy_ns: ((a.total - b.total).max(0.0) * 1e9) as u64,
                calls,
            });
            made.push((site, id));
        }
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&kids)
            .map(|(s, kids)| {
                let mut intervals: Vec<(u64, u64)> = Vec::new();
                let mut busy = 0u64;
                for &k in kids {
                    let c = &self.spans[k];
                    if c.interval {
                        intervals.push((c.start_ns, c.end_ns));
                    } else {
                        busy += c.busy_ns;
                    }
                }
                s.busy_ns.saturating_sub(union_ns(intervals) + busy)
            })
            .collect()
    }

    /// Writes every span with its self time as JSON.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        )?;
        for (i, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"layer\":\"{}\",\"unit\":{},\"parent\":{parent},\
                 \"interval\":{},\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{},\
                 \"self_ns\":{own}}}",
                s.name,
                s.layer.name(),
                s.unit,
                s.interval,
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                s.calls
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// Runs `f`, inside an interval span when there is a tracer.
pub fn span<R>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    layer: Layer,
    unit: u32,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        Some(tr) => tr.span(name, layer, unit, f),
        None => f(),
    }
}

/// Runs `f`, inside an interval span with its profiler sites when there
/// is a tracer.
pub fn span_sites<R>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    layer: Layer,
    unit: u32,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        Some(tr) => tr.span_sites(name, layer, unit, f),
        None => f(),
    }
}

/// Total length covered by possibly overlapping intervals.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (lo, hi) in intervals {
        match cur {
            Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
            _ => {
                if let Some((clo, chi)) = cur {
                    total += chi - clo;
                }
                cur = Some((lo, hi));
            }
        }
    }
    total + cur.map_or(0, |(lo, hi)| hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            layer: Layer::Bench,
            unit: 0,
            parent,
            interval: true,
            start_ns: start,
            end_ns: end,
            busy_ns: end - start,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children_once() {
        let spans = vec![
            interval("root", None, 0, 100),
            // Two children overlapping on [20, 30]: they cover 40, not 50.
            interval("a", Some(0), 10, 30),
            interval("b", Some(0), 20, 50),
            // A grandchild counts against its parent only.
            interval("a.inner", Some(1), 12, 18),
            // A busy child covers its summed call time.
            Span {
                interval: false,
                busy_ns: 7,
                calls: 3,
                ..interval("busy", Some(0), 60, 90)
            },
        ];
        let tr = Tracer {
            spans,
            ..Tracer::default()
        };
        assert_eq!(tr.self_ns(), vec![100 - 40 - 7, 20 - 6, 30, 6, 7]);
    }

    #[test]
    fn union_merges_touching_and_nested_intervals() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (10, 20)]), 20);
        assert_eq!(union_ns(vec![(5, 50), (10, 20), (60, 70)]), 55);
    }

    #[test]
    fn busy_spans_sum_their_calls_and_own_profiler_sites() {
        let mut tr = Tracer::default();
        let root = tr.open("unit", Layer::Bench, 0);
        let net = tr.busy("netsim.calls", Layer::Netsim, 0);
        let exec = tr.busy("exec.calls", Layer::Exec, 0);
        for _ in 0..3 {
            tr.call(net, 2, || std::hint::black_box(1));
        }
        tr.close(root);
        assert_eq!(tr.spans[net].calls, 6);
        assert_eq!(tr.spans[net].parent, Some(root));
        assert_eq!(tr.spans[root].parent, None);
        let site = |count, total| SiteStats {
            count,
            total,
            max: total,
        };
        let before = ProfTable::from([("solver.solve", site(2, 1.0))]);
        let after = ProfTable::from([
            ("solver.solve", site(5, 1.5)),
            ("exec.flush_staged", site(4, 0.25)),
            ("netsim.inject_batch", site(4, 0.125)),
        ]);
        tr.prof_children(&before, &after, 0, |s| {
            if s == "solver.solve" {
                net
            } else {
                exec
            }
        });
        let by_name = |n: &str| tr.spans.iter().position(|s| s.name == n).unwrap();
        let (solve, flush, inject) = (
            by_name("solver.solve"),
            by_name("exec.flush_staged"),
            by_name("netsim.inject_batch"),
        );
        assert_eq!(tr.spans[solve].parent, Some(net));
        assert_eq!(tr.spans[solve].calls, 3);
        assert_eq!(tr.spans[solve].busy_ns, 500_000_000);
        assert_eq!(tr.spans[flush].parent, Some(exec));
        assert_eq!(tr.spans[inject].parent, Some(flush));
        let own = tr.self_ns();
        assert_eq!(own[flush], 125_000_000);
        assert_eq!(own[inject], 125_000_000);
    }
}
