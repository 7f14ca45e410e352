//! Chrome-trace / Perfetto JSON export.
//!
//! Renders recorded [`TraceEvent`]s in the Trace Event Format that
//! both `chrome://tracing` and <https://ui.perfetto.dev> open
//! directly:
//!
//! * collective phases become complete (`"ph":"X"`) duration spans on
//!   one named thread-track per parallelism dimension (MP / PP / DP /
//!   bulk / compute);
//! * per-link utilization samples and the active-flow count become
//!   counter (`"ph":"C"`) tracks;
//! * trainer iteration-stage markers become instant (`"ph":"i"`)
//!   events.
//!
//! Timestamps are microseconds (the format's unit) converted from the
//! simulator's seconds.

use std::collections::BTreeMap;
use std::io::{self, Write};

use crate::event::{TraceEvent, Track};
use crate::json::{push_num, push_str_lit};

/// The `pid` used for span/marker tracks.
const PID_PHASES: u32 = 1;
/// The `pid` used for counter tracks.
const PID_COUNTERS: u32 = 2;

/// Exporter configuration.
#[derive(Debug, Clone, Default)]
pub struct TraceMeta {
    /// Human-readable link names, indexed by link id; links beyond the
    /// end (or an empty vec) are named `link<i>`.
    pub link_names: Vec<String>,
    /// Optional experiment name shown as the process name.
    pub process_name: Option<String>,
}

impl TraceMeta {
    fn link_name(&self, link: u32) -> String {
        self.link_names
            .get(link as usize)
            .cloned()
            .unwrap_or_else(|| format!("link{link}"))
    }
}

fn us(t: f64) -> f64 {
    t * 1e6
}

/// Writes the events as one Chrome-trace JSON document.
///
/// Unpaired [`TraceEvent::PhaseBegin`]s (a trace cut off mid-phase)
/// are closed at the last timestamp observed so the file stays valid.
pub fn export_chrome_trace(
    events: &[TraceEvent],
    meta: &TraceMeta,
    out: &mut impl Write,
) -> io::Result<()> {
    let mut body = String::with_capacity(events.len() * 96 + 1024);
    body.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    fn push_event(body: &mut String, first: &mut bool, ev: String) {
        if !*first {
            body.push(',');
        }
        *first = false;
        body.push_str(&ev);
    }

    // Process/thread naming metadata.
    let pname = meta.process_name.as_deref().unwrap_or("fred-sim");
    for (pid, suffix) in [(PID_PHASES, "phases"), (PID_COUNTERS, "counters")] {
        let mut ev = String::new();
        ev.push_str("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":");
        push_num(&mut ev, pid as f64);
        ev.push_str(",\"args\":{\"name\":");
        push_str_lit(&mut ev, &format!("{pname} — {suffix}"));
        ev.push_str("}}");
        push_event(&mut body, &mut first, ev);
    }
    for track in Track::ALL {
        let mut ev = String::new();
        ev.push_str("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":");
        push_num(&mut ev, PID_PHASES as f64);
        ev.push_str(",\"tid\":");
        push_num(&mut ev, track.index() as f64);
        ev.push_str(",\"args\":{\"name\":");
        push_str_lit(&mut ev, track.name());
        ev.push_str("}}");
        push_event(&mut body, &mut first, ev);
    }

    // Pair phase begin/end into complete ("X") events.
    struct OpenSpan {
        t: f64,
        track: Track,
        label: Box<str>,
        bytes: f64,
        npus: u32,
    }
    // Ordered by span id, so spans a truncated trace leaves open are
    // closed in a reproducible order.
    let mut open: BTreeMap<u64, OpenSpan> = BTreeMap::new();
    let mut last_t = 0.0_f64;

    fn emit_span(body: &mut String, first: &mut bool, s: &OpenSpan, end: f64) {
        let dur = (end - s.t).max(0.0);
        let mut ev = String::new();
        ev.push_str("{\"ph\":\"X\",\"pid\":");
        push_num(&mut ev, PID_PHASES as f64);
        ev.push_str(",\"tid\":");
        push_num(&mut ev, s.track.index() as f64);
        ev.push_str(",\"name\":");
        push_str_lit(&mut ev, &s.label);
        ev.push_str(",\"cat\":");
        push_str_lit(&mut ev, s.track.name());
        ev.push_str(",\"ts\":");
        push_num(&mut ev, us(s.t));
        ev.push_str(",\"dur\":");
        push_num(&mut ev, us(dur));
        ev.push_str(",\"args\":{\"bytes\":");
        push_num(&mut ev, s.bytes);
        ev.push_str(",\"npus\":");
        push_num(&mut ev, s.npus as f64);
        if dur > 0.0 && s.bytes > 0.0 && s.npus > 0 {
            ev.push_str(",\"eff_GBps_per_npu\":");
            push_num(&mut ev, s.bytes / dur / s.npus as f64 / 1e9);
        }
        ev.push_str("}}");
        push_event(body, first, ev);
    }

    for e in events {
        last_t = last_t.max(e.time());
        match e {
            TraceEvent::PhaseBegin {
                t,
                track,
                span,
                label,
                bytes,
                npus,
                ..
            } => {
                open.insert(
                    *span,
                    OpenSpan {
                        t: *t,
                        track: *track,
                        label: label.clone(),
                        bytes: *bytes,
                        npus: *npus,
                    },
                );
            }
            TraceEvent::PhaseEnd { t, span, .. } => {
                if let Some(s) = open.remove(span) {
                    emit_span(&mut body, &mut first, &s, *t);
                }
            }
            TraceEvent::LinkUtil {
                t,
                link,
                utilization,
            } => {
                let mut ev = String::new();
                ev.push_str("{\"ph\":\"C\",\"pid\":");
                push_num(&mut ev, PID_COUNTERS as f64);
                ev.push_str(",\"name\":");
                push_str_lit(&mut ev, &format!("util {}", meta.link_name(*link)));
                ev.push_str(",\"ts\":");
                push_num(&mut ev, us(*t));
                ev.push_str(",\"args\":{\"utilization\":");
                push_num(&mut ev, *utilization);
                ev.push_str("}}");
                push_event(&mut body, &mut first, ev);
            }
            TraceEvent::RateEpoch {
                t,
                active_flows,
                changed,
            } => {
                let mut ev = String::new();
                ev.push_str("{\"ph\":\"C\",\"pid\":");
                push_num(&mut ev, PID_COUNTERS as f64);
                ev.push_str(",\"name\":\"active flows\",\"ts\":");
                push_num(&mut ev, us(*t));
                ev.push_str(",\"args\":{\"flows\":");
                push_num(&mut ev, *active_flows as f64);
                ev.push_str(",\"changed\":");
                push_num(&mut ev, *changed as f64);
                ev.push_str("}}");
                push_event(&mut body, &mut first, ev);
            }
            TraceEvent::Fault {
                t,
                link,
                capacity_fraction,
                evicted,
            } => {
                // A fault is a process-scoped instant on the iteration
                // track: visible as a pin at the moment the fabric
                // degraded, with the details in args.
                let mut ev = String::new();
                ev.push_str("{\"ph\":\"i\",\"s\":\"p\",\"pid\":");
                push_num(&mut ev, PID_PHASES as f64);
                ev.push_str(",\"tid\":");
                push_num(&mut ev, Track::Iteration.index() as f64);
                ev.push_str(",\"name\":");
                let verb = if *capacity_fraction == 0.0 {
                    "FAULT: link failed"
                } else {
                    "FAULT: link degraded"
                };
                push_str_lit(&mut ev, &format!("{verb} {}", meta.link_name(*link)));
                ev.push_str(",\"ts\":");
                push_num(&mut ev, us(*t));
                ev.push_str(",\"args\":{\"capacity_fraction\":");
                push_num(&mut ev, *capacity_fraction);
                ev.push_str(",\"evicted_flows\":");
                push_num(&mut ev, *evicted as f64);
                ev.push_str("}}");
                push_event(&mut body, &mut first, ev);
            }
            TraceEvent::IterStage { t, label } => {
                let mut ev = String::new();
                ev.push_str("{\"ph\":\"i\",\"s\":\"p\",\"pid\":");
                push_num(&mut ev, PID_PHASES as f64);
                ev.push_str(",\"tid\":");
                push_num(&mut ev, Track::Iteration.index() as f64);
                ev.push_str(",\"name\":");
                push_str_lit(&mut ev, label);
                ev.push_str(",\"ts\":");
                push_num(&mut ev, us(*t));
                ev.push('}');
                push_event(&mut body, &mut first, ev);
            }
            // Individual flow lifecycle events are aggregated by the
            // metrics layer rather than drawn (hundreds of thousands
            // of instants would drown the phase view); topology
            TraceEvent::Sample { t, key, value } => {
                // Generic samples render as counter tracks, like
                // link utilization.
                let mut ev = String::new();
                ev.push_str("{\"ph\":\"C\",\"pid\":");
                push_num(&mut ev, PID_COUNTERS as f64);
                ev.push_str(",\"name\":");
                push_str_lit(&mut ev, key);
                ev.push_str(",\"ts\":");
                push_num(&mut ev, us(*t));
                ev.push_str(",\"args\":{\"value\":");
                push_num(&mut ev, *value);
                ev.push_str("}}");
                push_event(&mut body, &mut first, ev);
            }
            // markers and span dependencies belong to the analysis
            // layer.
            TraceEvent::FlowInjected { .. }
            | TraceEvent::FlowDrained { .. }
            | TraceEvent::FlowCompleted { .. }
            | TraceEvent::Topology { .. }
            | TraceEvent::SpanDep { .. } => {}
        }
    }

    // Close any span left open by a truncated trace, in span-id order.
    for s in open.values() {
        emit_span(&mut body, &mut first, s, last_t);
    }

    body.push_str("]}");
    out.write_all(body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PhaseBegin {
                t: 0.0,
                track: Track::Mp,
                span: 1,
                label: "mp-allreduce".into(),
                bytes: 2e9,
                npus: 4,
                tag: 0,
            },
            TraceEvent::LinkUtil {
                t: 0.0,
                link: 0,
                utilization: 1.0,
            },
            TraceEvent::RateEpoch {
                t: 0.0,
                active_flows: 4,
                changed: 4,
            },
            TraceEvent::LinkUtil {
                t: 0.5,
                link: 0,
                utilization: 0.0,
            },
            TraceEvent::PhaseEnd {
                t: 0.5,
                track: Track::Mp,
                span: 1,
            },
            TraceEvent::IterStage {
                t: 0.5,
                label: "fwd done".into(),
            },
        ]
    }

    fn export(evs: &[TraceEvent]) -> String {
        let mut out = Vec::new();
        export_chrome_trace(evs, &TraceMeta::default(), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn emits_spans_counters_and_markers() {
        let s = export(&sample_events());
        assert!(s.contains("\"ph\":\"X\""), "no duration span: {s}");
        assert!(s.contains("\"ph\":\"C\""), "no counter: {s}");
        assert!(s.contains("\"ph\":\"i\""), "no instant: {s}");
        assert!(s.contains("mp-allreduce"));
        assert!(s.contains("util link0"));
        // 0.5 s span => 500000 us duration.
        assert!(s.contains("\"dur\":500000"), "{s}");
        // Effective bandwidth: 2e9 bytes / 0.5 s / 4 npus = 1 GB/s.
        assert!(s.contains("\"eff_GBps_per_npu\":1"), "{s}");
    }

    #[test]
    fn unclosed_spans_are_flushed() {
        let evs = vec![
            TraceEvent::PhaseBegin {
                t: 0.0,
                track: Track::Dp,
                span: 9,
                label: "open".into(),
                bytes: 0.0,
                npus: 0,
                tag: 0,
            },
            TraceEvent::RateEpoch {
                t: 2.0,
                active_flows: 0,
                changed: 0,
            },
        ];
        let s = export(&evs);
        assert!(s.contains("\"name\":\"open\""));
        assert!(s.contains("\"dur\":2000000"));
    }

    #[test]
    fn unclosed_spans_are_flushed_in_span_id_order() {
        let evs: Vec<TraceEvent> = [40, 7, 19, 3]
            .into_iter()
            .map(|span| TraceEvent::PhaseBegin {
                t: 0.0,
                track: Track::Mp,
                span,
                label: format!("s{span}").into(),
                bytes: 0.0,
                npus: 0,
                tag: 0,
            })
            .collect();
        let first = export(&evs);
        for _ in 0..16 {
            assert_eq!(export(&evs), first);
        }
        let at = |name: &str| first.find(&format!("\"name\":\"{name}\"")).unwrap();
        assert!(at("s3") < at("s7") && at("s7") < at("s19") && at("s19") < at("s40"));
    }

    #[test]
    fn output_is_balanced_json() {
        // A structural sanity check without a JSON parser: braces and
        // brackets balance and the document starts/ends as an object.
        let s = export(&sample_events());
        assert!(s.starts_with('{') && s.ends_with('}'));
        let braces: i64 = s
            .chars()
            .map(|c| match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(braces, 0);
        let brackets: i64 = s
            .chars()
            .map(|c| match c {
                '[' => 1,
                ']' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(brackets, 0);
    }

    #[test]
    fn link_names_are_used() {
        let meta = TraceMeta {
            link_names: vec!["npu0->sw0".into()],
            process_name: Some("fig9".into()),
        };
        let mut out = Vec::new();
        export_chrome_trace(&sample_events(), &meta, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("util npu0->sw0"));
        assert!(s.contains("fig9"));
    }
}
