//! Critical-path and contention attribution over a recorded trace.
//!
//! [`AnalysisSink`] reconstructs, for every simulation *run* of a
//! recording (runs are delimited by [`TraceEvent::Topology`] markers —
//! one per `FlowNetwork` construction), the causal DAG of the run:
//!
//! * **nodes** are spans ([`TraceEvent::PhaseBegin`]/`PhaseEnd` pairs:
//!   trainer compute/comm tasks, or the serial phases of a standalone
//!   collective plan);
//! * **edges** are the recorded [`TraceEvent::SpanDep`] happens-before
//!   constraints (trainer task dependencies, plan phase ordering);
//! * **flows** attach to the span whose correlation `tag` they carry.
//!
//! From the DAG it computes the **critical path** — walking backwards
//! from the last-finishing span through, at each step, the predecessor
//! that finished last — and charges every second of the makespan to an
//! [`Attribution`] bucket. Communication spans are split by *ideal-rate
//! re-costing*: each flow is re-costed at the rate it would get running
//! alone (the bottleneck-link capacity from the run's
//! [`TraceEvent::Topology`] record), giving the span's contention-free
//! duration; that part is exposed communication for the span's
//! dimension, the remainder is [`Bucket::Contention`].
//!
//! It also builds the per-link **contention matrix**: for every link,
//! which span pairs had flows active on it simultaneously, for how
//! long, and how much of each victim's slowdown (observed drain time
//! minus contention-free drain time) each culprit inflicted.
//!
//! The sink folds each event into the open run's records as it is
//! recorded and reduces them to a [`RunAnalysis`] when the run ends, so
//! memory is bounded by the largest run and no analysis ever sees a
//! truncated trace. [`Analysis::from_events`] runs a recorded slice
//! through the same sink.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::attribution::{Attribution, Bucket};
use crate::event::{TraceEvent, Track};
use crate::json::{push_num, push_str_lit};
use crate::sink::TraceSink;

/// Spans/steps closer in time than this are considered simultaneous.
const T_EPS: f64 = 1e-12;

/// Maximum critical-path steps and contention entries serialised into
/// JSON (the in-memory structures always hold everything).
const JSON_PATH_CAP: usize = 64;
/// Maximum contention-matrix entries serialised into JSON.
const JSON_CONTENTION_CAP: usize = 32;

/// One step of a run's critical path, latest first.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalStep {
    /// Span label.
    pub label: String,
    /// Display track.
    pub track: Track,
    /// Span begin time (seconds).
    pub begin: f64,
    /// Seconds this step contributes to the makespan.
    pub secs: f64,
    /// The step's contention-free duration (== `secs` for compute).
    pub ideal_secs: f64,
}

/// One cell of the per-link contention matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionEntry {
    /// Link index (`LinkId.0`).
    pub link: u32,
    /// Label of the span whose flows were slowed.
    pub victim: String,
    /// Label of the span sharing the link.
    pub culprit: String,
    /// Seconds the two spans had flows simultaneously active on the
    /// link.
    pub overlap_secs: f64,
    /// Victim slowdown seconds attributed to this culprit on this link
    /// (observed minus contention-free drain time, blamed
    /// proportionally to overlap).
    pub slowdown_secs: f64,
}

/// The analysis of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunAnalysis {
    /// End-to-end duration of the run (latest span end / flow
    /// completion).
    pub makespan: f64,
    /// Where every makespan second went. `attribution.total()` equals
    /// `makespan` by construction.
    pub attribution: Attribution,
    /// The critical path, last-finishing step first.
    pub critical_path: Vec<CriticalStep>,
    /// Contention matrix entries, largest slowdown first.
    pub contention: Vec<ContentionEntry>,
    /// Flows observed in the run.
    pub flows: usize,
    /// Spans observed in the run.
    pub spans: usize,
    /// Fault events (link failures/degradations) in the run —
    /// non-zero means part of the contention/exposed-comm attribution
    /// is fault-induced (flows re-routed over detours).
    pub faults: usize,
}

/// The full analysis of a recording: one [`RunAnalysis`] per run plus
/// aggregate totals.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Per-run analyses, in recording order.
    pub runs: Vec<RunAnalysis>,
}

#[derive(Debug, Clone)]
struct FlowRec {
    bytes: f64,
    links: Box<[u32]>,
    track: Track,
    injected: f64,
    drained: Option<f64>,
    completed: Option<f64>,
    /// Index of the owning span in [`RunState::span_order`].
    span: Option<usize>,
}

#[derive(Debug, Clone)]
struct SpanRec {
    label: Box<str>,
    track: Track,
    begin: f64,
    end: f64,
    closed: bool,
    /// This span's index in [`RunState::span_order`].
    order: usize,
    preds: Vec<u64>,
    flow_idx: Vec<usize>,
}

impl Analysis {
    /// Analyses a recording, splitting it into runs at every
    /// [`TraceEvent::Topology`] marker (as [`AnalysisSink`] does).
    pub fn from_events(events: &[TraceEvent]) -> Analysis {
        let sink = AnalysisSink::new();
        for e in events {
            sink.fold(e);
        }
        sink.finish()
    }

    /// Attribution summed over every run. The invariant
    /// `totals().total() == total_makespan()` holds within float
    /// tolerance.
    pub fn totals(&self) -> Attribution {
        let mut t = Attribution::default();
        for r in &self.runs {
            t.merge(&r.attribution);
        }
        t
    }

    /// Sum of run makespans.
    pub fn total_makespan(&self) -> f64 {
        self.runs.iter().map(|r| r.makespan).sum()
    }

    /// Renders the analysis as a JSON object (critical paths capped at
    /// 64 steps and contention matrices at 32 entries per run; the
    /// in-memory structures are complete).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\"total_makespan_secs\":");
        push_num(&mut s, self.total_makespan());
        s.push_str(",\"attribution\":");
        self.totals().push_json(&mut s);
        s.push_str(",\"runs\":[");
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            r.push_json(&mut s);
        }
        s.push_str("]}");
        s
    }

    /// A short human-readable bottleneck summary for stderr reporting.
    pub fn summary(&self) -> String {
        let totals = self.totals();
        let mut out = String::new();
        let makespan = self.total_makespan();
        out.push_str(&format!(
            "attribution over {} run(s), {:.6} s total:",
            self.runs.len(),
            makespan
        ));
        for b in Bucket::ALL {
            let v = totals.get(b);
            if v > 0.0 {
                out.push_str(&format!(
                    "\n  {:<13} {:.6} s ({:.1}%)",
                    b.key(),
                    v,
                    100.0 * v / makespan.max(f64::MIN_POSITIVE)
                ));
            }
        }
        let faults: usize = self.runs.iter().map(|r| r.faults).sum();
        if faults > 0 {
            out.push_str(&format!(
                "\n  {faults} fault(s) injected — contention/exposed-comm \
                 above includes fault-induced detours"
            ));
        }
        out
    }
}

impl RunAnalysis {
    fn push_json(&self, s: &mut String) {
        s.push_str("{\"makespan_secs\":");
        push_num(s, self.makespan);
        s.push_str(",\"spans\":");
        push_num(s, self.spans as f64);
        s.push_str(",\"flows\":");
        push_num(s, self.flows as f64);
        s.push_str(",\"faults\":");
        push_num(s, self.faults as f64);
        s.push_str(",\"attribution\":");
        self.attribution.push_json(s);
        s.push_str(",\"critical_path\":[");
        for (i, c) in self.critical_path.iter().take(JSON_PATH_CAP).enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"label\":");
            push_str_lit(s, &c.label);
            s.push_str(",\"track\":");
            push_str_lit(s, c.track.name());
            s.push_str(",\"begin_secs\":");
            push_num(s, c.begin);
            s.push_str(",\"secs\":");
            push_num(s, c.secs);
            s.push_str(",\"ideal_secs\":");
            push_num(s, c.ideal_secs);
            s.push('}');
        }
        s.push_str("],\"critical_path_steps\":");
        push_num(s, self.critical_path.len() as f64);
        s.push_str(",\"contention\":[");
        for (i, c) in self.contention.iter().take(JSON_CONTENTION_CAP).enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"link\":");
            push_num(s, c.link as f64);
            s.push_str(",\"victim\":");
            push_str_lit(s, &c.victim);
            s.push_str(",\"culprit\":");
            push_str_lit(s, &c.culprit);
            s.push_str(",\"overlap_secs\":");
            push_num(s, c.overlap_secs);
            s.push_str(",\"slowdown_secs\":");
            push_num(s, c.slowdown_secs);
            s.push('}');
        }
        s.push_str("],\"contention_pairs\":");
        push_num(s, self.contention.len() as f64);
        s.push('}');
    }
}

/// The rate a flow over `links` gets with the network to itself: the
/// bottleneck-link capacity. `None` when any link is outside the known
/// capacity table (re-costing is then impossible).
fn solo_rate(capacities: &[f64], links: &[u32]) -> Option<f64> {
    if links.is_empty() {
        return Some(f64::INFINITY);
    }
    let mut rate = f64::INFINITY;
    for &l in links {
        rate = rate.min(*capacities.get(l as usize)?);
    }
    Some(rate)
}

/// The contention-free completion time of a flow: bytes over the solo
/// rate, plus the (contention-independent) observed tail latency.
/// Falls back to the observed completion time when re-costing is
/// impossible.
fn ideal_fct(f: &FlowRec, capacities: &[f64]) -> f64 {
    let observed = f
        .completed
        .or(f.drained)
        .map(|t| (t - f.injected).max(0.0))
        .unwrap_or(0.0);
    let Some(rate) = solo_rate(capacities, &f.links) else {
        return observed;
    };
    let ideal_drain = if rate.is_finite() && rate > 0.0 {
        f.bytes / rate
    } else {
        0.0
    };
    let tail = match (f.drained, f.completed) {
        (Some(d), Some(c)) => (c - d).max(0.0),
        _ => 0.0,
    };
    (ideal_drain + tail).min(observed.max(ideal_drain + tail))
}

/// Observed minus contention-free drain time of a flow, clamped at
/// zero. `None` when the flow never drained or re-costing is
/// impossible.
fn flow_slowdown(f: &FlowRec, capacities: &[f64]) -> Option<f64> {
    let drained = f.drained?;
    let rate = solo_rate(capacities, &f.links)?;
    if !rate.is_finite() || rate <= 0.0 {
        return None;
    }
    Some(((drained - f.injected) - f.bytes / rate).max(0.0))
}

/// A [`TraceSink`] that analyses each run as it is recorded.
///
/// Every event is folded into the open run's records; the next
/// [`TraceEvent::Topology`] marker (or [`AnalysisSink::finish`]) ends
/// the run and keeps only its [`RunAnalysis`]. Events before the first
/// marker form a leading run of their own, and runs with no makespan,
/// span or flow are dropped. Memory is bounded by the largest run, and
/// the sink never drops an event.
#[derive(Debug, Default)]
pub struct AnalysisSink {
    open: RefCell<Option<RunState>>,
    done: RefCell<Analysis>,
}

impl AnalysisSink {
    /// Creates an empty sink.
    pub fn new() -> AnalysisSink {
        AnalysisSink::default()
    }

    /// Ends the open run and returns the analysis of every run recorded
    /// so far, leaving the sink empty.
    pub fn finish(&self) -> Analysis {
        self.close(self.open.take());
        self.done.take()
    }

    fn fold(&self, e: &TraceEvent) {
        let mut open = self.open.borrow_mut();
        if matches!(e, TraceEvent::Topology { .. }) {
            self.close(open.take());
        }
        open.get_or_insert_with(RunState::default).on_event(e);
    }

    fn close(&self, run: Option<RunState>) {
        let Some(r) = run.map(RunState::finish) else {
            return;
        };
        if r.makespan > 0.0 || r.spans > 0 || r.flows > 0 {
            self.done.borrow_mut().runs.push(r);
        }
    }
}

impl TraceSink for AnalysisSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, ev: TraceEvent) {
        self.fold(&ev);
    }
}

/// The records of the run being recorded.
#[derive(Debug, Default)]
struct RunState {
    capacities: Vec<f64>,
    spans: HashMap<u64, SpanRec>,
    span_order: Vec<u64>,
    flows: Vec<FlowRec>,
    flow_by_id: HashMap<u64, usize>,
    /// tag -> currently open span claiming that tag.
    open_tag: HashMap<u64, u64>,
    last_t: f64,
    faults: usize,
}

impl RunState {
    fn on_event(&mut self, e: &TraceEvent) {
        self.last_t = self.last_t.max(e.time());
        match e {
            TraceEvent::Topology { capacities, .. } => self.capacities = capacities.to_vec(),
            TraceEvent::PhaseBegin {
                t,
                track,
                span,
                label,
                tag,
                ..
            } => {
                self.spans.insert(
                    *span,
                    SpanRec {
                        label: label.clone(),
                        track: *track,
                        begin: *t,
                        end: *t,
                        closed: false,
                        order: self.span_order.len(),
                        preds: Vec::new(),
                        flow_idx: Vec::new(),
                    },
                );
                self.span_order.push(*span);
                if *tag != 0 {
                    self.open_tag.insert(*tag, *span);
                }
            }
            TraceEvent::PhaseEnd { t, span, .. } => {
                if let Some(s) = self.spans.get_mut(span) {
                    s.end = (*t).max(s.begin);
                    s.closed = true;
                }
                self.open_tag.retain(|_, v| v != span);
            }
            TraceEvent::SpanDep { span, pred, .. } => {
                if let Some(s) = self.spans.get_mut(span) {
                    s.preds.push(*pred);
                }
            }
            TraceEvent::FlowInjected {
                t,
                id,
                tag,
                bytes,
                track,
                links,
            } => {
                let idx = self.flows.len();
                let owner = if *tag != 0 {
                    self.open_tag
                        .get(tag)
                        .and_then(|sid| self.spans.get_mut(sid))
                } else {
                    None
                };
                let span = owner.map(|s| {
                    s.flow_idx.push(idx);
                    s.order
                });
                self.flows.push(FlowRec {
                    bytes: *bytes,
                    links: links.clone(),
                    track: *track,
                    injected: *t,
                    drained: None,
                    completed: None,
                    span,
                });
                self.flow_by_id.insert(*id, idx);
            }
            TraceEvent::FlowDrained { t, id } => {
                if let Some(&i) = self.flow_by_id.get(id) {
                    self.flows[i].drained = Some(*t);
                }
            }
            TraceEvent::FlowCompleted { t, id, .. } => {
                if let Some(&i) = self.flow_by_id.get(id) {
                    self.flows[i].completed = Some(*t);
                }
            }
            TraceEvent::Fault { .. } => self.faults += 1,
            TraceEvent::RateEpoch { .. }
            | TraceEvent::LinkUtil { .. }
            | TraceEvent::IterStage { .. }
            | TraceEvent::Sample { .. } => {}
        }
    }

    fn finish(mut self) -> RunAnalysis {
        // The id maps only serve the fold. Free them before the
        // contention matrix, which sets the run's peak memory.
        drop(self.flow_by_id);
        drop(self.open_tag);
        // Close spans still open when the run ended at the last
        // observed time so downstream arithmetic stays finite.
        for s in self.spans.values_mut() {
            if !s.closed {
                s.end = s.end.max(self.last_t);
            }
        }

        let mut run = RunAnalysis {
            flows: self.flows.len(),
            spans: self.spans.len(),
            faults: self.faults,
            ..RunAnalysis::default()
        };

        if self.spans.is_empty() {
            analyze_bare_flows(&self.flows, &self.capacities, &mut run);
        } else {
            attribute_critical_path(&self.spans, &self.flows, &self.capacities, &mut run);
        }
        run.contention =
            contention_matrix(&self.spans, &self.span_order, &self.flows, &self.capacities);
        run
    }
}

/// Attribution for runs with spans: walk the critical path from
/// the last-finishing span backwards through latest-finishing
/// predecessors, charging each covered interval to its span's bucket
/// (split ideal/contention for communication spans).
fn attribute_critical_path(
    spans: &HashMap<u64, SpanRec>,
    flows: &[FlowRec],
    capacities: &[f64],
    run: &mut RunAnalysis,
) {
    let last = spans
        .iter()
        .max_by(|a, b| a.1.end.total_cmp(&b.1.end).then(b.0.cmp(a.0)))
        .map(|(id, _)| *id);
    let Some(mut current) = last else { return };
    run.makespan = spans[&current].end;
    let mut cursor = run.makespan;

    loop {
        let s = &spans[&current];
        // An unexplained gap between this span's end and the time the
        // critical successor started.
        if s.end < cursor - T_EPS {
            run.attribution.add(Bucket::Unattributed, cursor - s.end);
            cursor = s.end;
        }
        let seg = (cursor.min(s.end) - s.begin).max(0.0);
        if seg > 0.0 {
            let (ideal, bucket) = span_ideal(s, flows, capacities, seg);
            run.attribution.add(bucket, ideal);
            run.attribution.add(Bucket::Contention, seg - ideal);
            run.critical_path.push(CriticalStep {
                label: s.label.to_string(),
                track: s.track,
                begin: s.begin,
                secs: seg,
                ideal_secs: ideal,
            });
        }
        cursor = s.begin.min(cursor);
        if cursor <= T_EPS {
            break;
        }
        // The binding predecessor: the one that finished last.
        let next = s
            .preds
            .iter()
            .filter_map(|p| spans.get(p).map(|sp| (*p, sp.end)))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(p, _)| p);
        match next {
            Some(p) => current = p,
            None => {
                // Root span that still started after t = 0 with no
                // recorded cause.
                run.attribution.add(Bucket::Unattributed, cursor);
                break;
            }
        }
    }
    run.critical_path.shrink_to_fit();
}

/// The contention-free duration of `span` (capped at its attributed
/// share `seg`) and the bucket its ideal time belongs to.
///
/// Flows of the span are grouped into serial injection batches (one
/// per plan phase — a batch is every flow injected at the same
/// instant); the ideal duration is the sum over batches of the slowest
/// re-costed flow.
fn span_ideal(s: &SpanRec, flows: &[FlowRec], capacities: &[f64], seg: f64) -> (f64, Bucket) {
    let bucket = Bucket::for_track(s.track);
    if bucket == Bucket::Compute || s.flow_idx.is_empty() {
        return (seg, bucket);
    }
    let mut batches: Vec<(f64, f64)> = Vec::new(); // (inject_t, max ideal fct)
    for &fi in &s.flow_idx {
        let f = &flows[fi];
        let fct = ideal_fct(f, capacities);
        match batches.last_mut() {
            Some((t, m)) if (f.injected - *t).abs() <= T_EPS => *m = m.max(fct),
            _ => batches.push((f.injected, fct)),
        }
    }
    let ideal: f64 = batches.iter().map(|(_, m)| m).sum();
    (ideal.min(seg), bucket)
}

/// Attribution fallback for runs that inject flows without any
/// span structure (raw microbenchmarks): batches of simultaneous
/// injections are treated as serial phases, each charged to the track
/// of its slowest re-costed flow; the rest of the makespan is
/// contention.
fn analyze_bare_flows(flows: &[FlowRec], capacities: &[f64], run: &mut RunAnalysis) {
    run.makespan = flows
        .iter()
        .filter_map(|f| f.completed.or(f.drained))
        .fold(0.0, f64::max);
    if run.makespan <= 0.0 {
        return;
    }
    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by(|&a, &b| flows[a].injected.total_cmp(&flows[b].injected));
    let mut remaining = run.makespan;
    let mut batch_start = None::<f64>;
    let mut batch_best: Option<(f64, Track)> = None;
    let flush = |best: &mut Option<(f64, Track)>, remaining: &mut f64, run: &mut RunAnalysis| {
        if let Some((fct, track)) = best.take() {
            let charged = fct.min(*remaining);
            run.attribution.add(Bucket::for_track(track), charged);
            *remaining -= charged;
        }
    };
    for &i in &order {
        let f = &flows[i];
        if batch_start.is_none_or(|t| (f.injected - t).abs() > T_EPS) {
            flush(&mut batch_best, &mut remaining, run);
            batch_start = Some(f.injected);
        }
        let fct = ideal_fct(f, capacities);
        if batch_best.is_none_or(|(m, _)| fct > m) {
            batch_best = Some((fct, f.track));
        }
    }
    flush(&mut batch_best, &mut remaining, run);
    run.attribution.add(Bucket::Contention, remaining);
}

/// Builds the per-link contention matrix: overlap seconds per (link,
/// victim span, culprit span) triple, plus each victim's slowdown
/// blamed proportionally to overlap.
fn contention_matrix(
    spans: &HashMap<u64, SpanRec>,
    span_order: &[u64],
    flows: &[FlowRec],
    capacities: &[f64],
) -> Vec<ContentionEntry> {
    // Labels are interned as ids in sorted label order, so ordering or
    // summing by id is ordering or summing by label.
    let untracked: Vec<String> = Track::ALL
        .iter()
        .map(|t| format!("untracked ({t})"))
        .collect();
    let mut names: Vec<&str> = spans
        .values()
        .map(|s| &*s.label)
        .chain(untracked.iter().map(String::as_str))
        .collect();
    names.sort_unstable();
    names.dedup();
    let id_of = |name: &str| names.binary_search(&name).expect("label is interned") as u32;
    let span_label: Vec<u32> = span_order
        .iter()
        .map(|id| id_of(&spans[id].label))
        .collect();
    let flow_label: Vec<u32> = flows
        .iter()
        .map(|f| match f.span {
            Some(i) => span_label[i],
            None => id_of(&untracked[f.track.index() as usize]),
        })
        .collect();

    // Per link: active intervals (flow index, start, end).
    let mut per_link: HashMap<u32, Vec<(usize, f64, f64)>> = HashMap::new();
    for (i, f) in flows.iter().enumerate() {
        let Some(d) = f.drained else { continue };
        if d <= f.injected {
            continue;
        }
        for &l in f.links.iter() {
            per_link.entry(l).or_default().push((i, f.injected, d));
        }
    }

    // (link, victim flow) -> (culprit label, overlap seconds), sorted by
    // label: summing the weights in any other order would let the
    // blamed slowdown differ by a few ulps between identical runs.
    fn add_overlap(weights: &mut Vec<(u32, f64)>, culprit: u32, ov: f64) {
        match weights.binary_search_by_key(&culprit, |&(c, _)| c) {
            Ok(k) => weights[k].1 += ov,
            Err(k) => weights.insert(k, (culprit, ov)),
        }
    }
    let mut overlap_w: HashMap<(u32, usize), Vec<(u32, f64)>> = HashMap::new();
    for (l, intervals) in per_link.iter_mut() {
        intervals.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        for i in 0..intervals.len() {
            let (fi, si, ei) = intervals[i];
            for &(fj, sj, ej) in intervals.iter().skip(i + 1) {
                if sj >= ei {
                    break; // sorted by start: nothing later overlaps fi
                }
                let ov = ei.min(ej) - sj.max(si);
                if ov <= 0.0 {
                    continue;
                }
                add_overlap(overlap_w.entry((*l, fi)).or_default(), flow_label[fj], ov);
                add_overlap(overlap_w.entry((*l, fj)).or_default(), flow_label[fi], ov);
            }
        }
    }

    // Distribute each flow's slowdown over its (link, culprit) overlap
    // weights; accumulate per (link, victim label, culprit label).
    let mut cells: HashMap<(u32, u32, u32), (f64, f64)> = HashMap::new();
    for (i, f) in flows.iter().enumerate() {
        let total_w: f64 = f
            .links
            .iter()
            .filter_map(|l| overlap_w.get(&(*l, i)))
            .flat_map(|w| w.iter().map(|&(_, x)| x))
            .sum();
        let slowdown = flow_slowdown(f, capacities).unwrap_or(0.0);
        for &l in f.links.iter() {
            let Some(w) = overlap_w.get(&(l, i)) else {
                continue;
            };
            for &(culprit, x) in w {
                let cell = cells
                    .entry((l, flow_label[i], culprit))
                    .or_insert((0.0, 0.0));
                cell.0 += x;
                if total_w > 0.0 {
                    cell.1 += slowdown * x / total_w;
                }
            }
        }
    }

    let mut out: Vec<_> = cells.into_iter().collect();
    out.sort_by(|(ka, (oa, sa)), (kb, (ob, sb))| {
        sb.total_cmp(sa).then(ob.total_cmp(oa)).then(ka.cmp(kb))
    });
    out.into_iter()
        .map(
            |((link, victim, culprit), (overlap, slow))| ContentionEntry {
                link,
                victim: names[victim as usize].to_string(),
                culprit: names[culprit as usize].to_string(),
                overlap_secs: overlap,
                slowdown_secs: slow,
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(t: f64, track: Track, span: u64, label: &str, tag: u64) -> TraceEvent {
        TraceEvent::PhaseBegin {
            t,
            track,
            span,
            label: label.into(),
            bytes: 0.0,
            npus: 0,
            tag,
        }
    }

    fn end(t: f64, track: Track, span: u64) -> TraceEvent {
        TraceEvent::PhaseEnd { t, track, span }
    }

    fn dep(t: f64, span: u64, pred: u64) -> TraceEvent {
        TraceEvent::SpanDep { t, span, pred }
    }

    #[test]
    fn serial_plan_path_equals_makespan() {
        // Three chained compute spans: 0-1, 1-3, 3-6.
        let evs = vec![
            begin(0.0, Track::Compute, 1, "a", 0),
            end(1.0, Track::Compute, 1),
            begin(1.0, Track::Compute, 2, "b", 0),
            dep(1.0, 2, 1),
            end(3.0, Track::Compute, 2),
            begin(3.0, Track::Compute, 3, "c", 0),
            dep(3.0, 3, 2),
            end(6.0, Track::Compute, 3),
        ];
        let a = Analysis::from_events(&evs);
        assert_eq!(a.runs.len(), 1);
        let r = &a.runs[0];
        assert!((r.makespan - 6.0).abs() < 1e-12);
        assert_eq!(r.critical_path.len(), 3);
        // Path time == makespan; every second is compute.
        let path_secs: f64 = r.critical_path.iter().map(|c| c.secs).sum();
        assert!((path_secs - 6.0).abs() < 1e-12);
        assert!((r.attribution.get(Bucket::Compute) - 6.0).abs() < 1e-12);
        assert!((r.attribution.total() - r.makespan).abs() < 1e-12);
    }

    #[test]
    fn independent_phases_path_is_max() {
        // Two independent spans 0-2 and 0-5: the path is the longer
        // one, and the attribution covers exactly the makespan.
        let evs = vec![
            begin(0.0, Track::Mp, 1, "short", 0),
            begin(0.0, Track::Dp, 2, "long", 0),
            end(2.0, Track::Mp, 1),
            end(5.0, Track::Dp, 2),
        ];
        let a = Analysis::from_events(&evs);
        let r = &a.runs[0];
        assert!((r.makespan - 5.0).abs() < 1e-12);
        assert_eq!(r.critical_path.len(), 1);
        assert_eq!(r.critical_path[0].label, "long");
        // No flows recorded: the whole span charges to its dimension.
        assert!((r.attribution.get(Bucket::CommDp) - 5.0).abs() < 1e-12);
        assert_eq!(r.attribution.get(Bucket::CommMp), 0.0);
        assert!((r.attribution.total() - r.makespan).abs() < 1e-12);
    }

    #[test]
    fn unexplained_start_is_unattributed() {
        // A single span starting at t=2 with no predecessor: the lead-in
        // is unattributed, keeping the sum == makespan invariant.
        let evs = vec![
            begin(2.0, Track::Compute, 1, "late", 0),
            end(3.0, Track::Compute, 1),
        ];
        let a = Analysis::from_events(&evs);
        let r = &a.runs[0];
        assert!((r.makespan - 3.0).abs() < 1e-12);
        assert!((r.attribution.get(Bucket::Compute) - 1.0).abs() < 1e-12);
        assert!((r.attribution.get(Bucket::Unattributed) - 2.0).abs() < 1e-12);
        assert!((r.attribution.total() - r.makespan).abs() < 1e-12);
    }

    /// Two single-flow phases sharing one 100 B/s link: each flow has
    /// 100 bytes, both run 0→2 s at the 50 B/s fair share. Solo, each
    /// would finish in 1 s, so each suffers 1 s of slowdown — blamed
    /// entirely on the other phase.
    fn shared_link_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Topology {
                t: 0.0,
                capacities: Box::new([100.0]),
            },
            begin(0.0, Track::Mp, 1, "phase-a", 11),
            begin(0.0, Track::Dp, 2, "phase-b", 22),
            TraceEvent::FlowInjected {
                t: 0.0,
                id: 0,
                tag: 11,
                bytes: 100.0,
                track: Track::Mp,
                links: Box::new([0]),
            },
            TraceEvent::FlowInjected {
                t: 0.0,
                id: 1,
                tag: 22,
                bytes: 100.0,
                track: Track::Dp,
                links: Box::new([0]),
            },
            TraceEvent::FlowDrained { t: 2.0, id: 0 },
            TraceEvent::FlowDrained { t: 2.0, id: 1 },
            TraceEvent::FlowCompleted {
                t: 2.0,
                id: 0,
                tag: 11,
                injected_at: 0.0,
                track: Track::Mp,
            },
            TraceEvent::FlowCompleted {
                t: 2.0,
                id: 1,
                tag: 22,
                injected_at: 0.0,
                track: Track::Dp,
            },
            end(2.0, Track::Mp, 1),
            end(2.0, Track::Dp, 2),
        ]
    }

    #[test]
    fn contention_matrix_blames_the_sharing_phase() {
        let a = Analysis::from_events(&shared_link_events());
        let r = &a.runs[0];
        assert!((r.makespan - 2.0).abs() < 1e-12);

        // The matrix has both directed pairs on link 0, each with 2 s
        // of overlap and 1 s of inflicted slowdown.
        let find = |victim: &str, culprit: &str| {
            r.contention
                .iter()
                .find(|c| c.victim == victim && c.culprit == culprit)
                .unwrap_or_else(|| panic!("no ({victim}, {culprit}) cell: {:?}", r.contention))
        };
        let ab = find("phase-a", "phase-b");
        assert_eq!(ab.link, 0);
        assert!((ab.overlap_secs - 2.0).abs() < 1e-9, "{ab:?}");
        assert!((ab.slowdown_secs - 1.0).abs() < 1e-9, "{ab:?}");
        let ba = find("phase-b", "phase-a");
        assert!((ba.slowdown_secs - 1.0).abs() < 1e-9, "{ba:?}");
    }

    /// One victim flow sharing link 0 with three culprit phases whose
    /// overlaps (0.1, 0.2 and 0.3 s) sum to different floats in
    /// different orders: the blamed slowdown must not depend on the
    /// order a map happens to iterate in.
    #[test]
    fn contention_matrix_is_bit_identical_across_runs() {
        let mut evs = vec![
            TraceEvent::Topology {
                t: 0.0,
                capacities: Box::new([100.0]),
            },
            begin(0.0, Track::Dp, 1, "victim", 1),
        ];
        for (k, drained) in [(2, 0.1), (3, 0.2), (4, 0.3)] {
            evs.push(begin(0.0, Track::Mp, k, &format!("culprit-{k}"), k));
            evs.push(TraceEvent::FlowInjected {
                t: 0.0,
                id: k,
                tag: k,
                bytes: 1.0,
                track: Track::Mp,
                links: Box::new([0]),
            });
            evs.push(TraceEvent::FlowDrained { t: drained, id: k });
        }
        evs.push(TraceEvent::FlowInjected {
            t: 0.0,
            id: 1,
            tag: 1,
            bytes: 100.0,
            track: Track::Dp,
            links: Box::new([0]),
        });
        evs.push(TraceEvent::FlowDrained { t: 10.0, id: 1 });

        let first = Analysis::from_events(&evs).runs[0].contention.clone();
        let victim_cells = first.iter().filter(|c| c.victim == "victim").count();
        assert_eq!(victim_cells, 3, "{first:?}");
        for _ in 0..32 {
            assert_eq!(Analysis::from_events(&evs).runs[0].contention, first);
        }
    }

    /// Three culprits share link 0 with one victim, their labels
    /// arriving out of sorted order. Each cell's overlap is its
    /// culprit's weight, and the victim's 9 s slowdown is split by the
    /// weights summed in label order — a sum in arrival order differs
    /// in the last bit.
    #[test]
    fn contention_weights_sum_in_label_order() {
        let culprits = [("c-zeta", 0.1), ("c-alpha", 0.2), ("c-mid", 0.3)];
        let mut evs = vec![TraceEvent::Topology {
            t: 0.0,
            capacities: Box::new([100.0]),
        }];
        for (k, (label, drained)) in (1..).zip(culprits) {
            evs.push(begin(0.0, Track::Mp, k, label, k));
            evs.push(TraceEvent::FlowInjected {
                t: 0.0,
                id: k,
                tag: k,
                bytes: 1.0,
                track: Track::Mp,
                links: Box::new([0]),
            });
            evs.push(TraceEvent::FlowDrained { t: drained, id: k });
        }
        evs.push(begin(0.0, Track::Dp, 9, "victim", 9));
        evs.push(TraceEvent::FlowInjected {
            t: 0.0,
            id: 9,
            tag: 9,
            bytes: 100.0,
            track: Track::Dp,
            links: Box::new([0]),
        });
        evs.push(TraceEvent::FlowDrained { t: 10.0, id: 9 });

        let label_order = (0.2 + 0.3) + 0.1;
        assert_ne!(label_order, (0.1 + 0.2) + 0.3);
        let r = &Analysis::from_events(&evs).runs[0];
        for (label, w) in culprits {
            let c = r
                .contention
                .iter()
                .find(|c| c.victim == "victim" && c.culprit == label)
                .unwrap_or_else(|| panic!("no (victim, {label}) cell: {:?}", r.contention));
            assert_eq!(c.overlap_secs.to_bits(), w.to_bits(), "{c:?}");
            let slowdown = 0.0 + 9.0 * w / label_order;
            assert_eq!(c.slowdown_secs.to_bits(), slowdown.to_bits(), "{c:?}");
        }
    }

    #[test]
    fn ideal_recosting_splits_comm_and_contention() {
        let a = Analysis::from_events(&shared_link_events());
        let r = &a.runs[0];
        // Critical path: one of the two phases (2 s observed, 1 s
        // ideal): 1 s exposed comm + 1 s contention.
        let comm = r.attribution.get(Bucket::CommMp) + r.attribution.get(Bucket::CommDp);
        assert!((comm - 1.0).abs() < 1e-9, "{:?}", r.attribution);
        assert!(
            (r.attribution.get(Bucket::Contention) - 1.0).abs() < 1e-9,
            "{:?}",
            r.attribution
        );
        assert!((r.attribution.total() - r.makespan).abs() < 1e-9);
    }

    #[test]
    fn segments_split_on_topology_markers() {
        let mut evs = shared_link_events();
        evs.extend(shared_link_events());
        let a = Analysis::from_events(&evs);
        assert_eq!(a.runs.len(), 2);
        assert!((a.total_makespan() - 4.0).abs() < 1e-9);
        assert!((a.totals().total() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bare_flow_segment_still_attributes() {
        // A flow with no span structure at all.
        let evs = vec![
            TraceEvent::Topology {
                t: 0.0,
                capacities: Box::new([100.0]),
            },
            TraceEvent::FlowInjected {
                t: 0.0,
                id: 0,
                tag: 0,
                bytes: 200.0,
                track: Track::Bulk,
                links: Box::new([0]),
            },
            TraceEvent::FlowDrained { t: 2.0, id: 0 },
            TraceEvent::FlowCompleted {
                t: 2.5,
                id: 0,
                tag: 0,
                injected_at: 0.0,
                track: Track::Bulk,
            },
        ];
        let a = Analysis::from_events(&evs);
        let r = &a.runs[0];
        assert!((r.makespan - 2.5).abs() < 1e-12);
        // Solo: 200 B / 100 B/s + 0.5 s tail = 2.5 s — all ideal bulk.
        assert!((r.attribution.get(Bucket::CommBulk) - 2.5).abs() < 1e-9);
        assert_eq!(r.attribution.get(Bucket::Contention), 0.0);
        assert!((r.attribution.total() - r.makespan).abs() < 1e-9);
    }

    #[test]
    fn json_is_balanced() {
        let a = Analysis::from_events(&shared_link_events());
        let j = a.to_json();
        let braces: i64 = j
            .chars()
            .map(|c| match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(braces, 0);
        assert!(j.contains("\"attribution\""));
        assert!(j.contains("\"contention\""));
    }
}
