//! Prometheus text exposition (version 0.0.4) export and a minimal
//! parser.
//!
//! [`render`] turns a [`FlightSnapshot`] plus optional profiler sites
//! into the classic `# HELP` / `# TYPE` / sample-line format that
//! Prometheus, VictoriaMetrics and `promtool` all ingest. Series names
//! like `link_util/3` become a metric `fred_link_util` with a
//! `{detail="3",segment="0"}` label pair; histograms become the
//! standard `_bucket{le=...}` / `_sum` / `_count` triplet. Only the
//! final value of each series is exposed — exposition is a
//! point-in-time scrape format, not a time-series archive (the
//! archive lives in the dashboard).
//!
//! [`parse`] implements just enough of the exposition grammar to
//! validate our own output (CI's smoke assertion and the round-trip
//! unit test): comment/TYPE lines, metric names, label sets with
//! escaped string values, and float sample values.

use std::collections::BTreeMap;

use crate::prof::SiteStats;
use crate::timeseries::{FlightSnapshot, LogHistogram};

fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() && !(i == 0 && c.is_ascii_digit());
        out.push(if ok || c == '_' || c == ':' { c } else { '_' });
    }
    out
}

fn push_label_escaped(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

fn fmt_value(v: f64) -> String {
    crate::json::fmt_num(v)
}

fn push_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            push_label_escaped(out, v);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(&fmt_value(value));
    out.push('\n');
}

fn push_histogram(out: &mut String, name: &str, labels: &[(&str, &str)], h: &LogHistogram) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cum = 0u64;
    for (le, c) in h.buckets() {
        cum += c;
        let le_s = fmt_value(le);
        let mut bl: Vec<(&str, &str)> = labels.to_vec();
        bl.push(("le", &le_s));
        push_sample(out, &format!("{name}_bucket"), &bl, cum as f64);
    }
    let mut bl: Vec<(&str, &str)> = labels.to_vec();
    bl.push(("le", "+Inf"));
    push_sample(out, &format!("{name}_bucket"), &bl, h.count() as f64);
    push_sample(out, &format!("{name}_sum"), labels, h.sum());
    push_sample(out, &format!("{name}_count"), labels, h.count() as f64);
}

/// Renders a flight-recorder snapshot (and, when non-empty, profiler
/// site stats) as Prometheus text exposition. All metrics carry the
/// `fred_` prefix; multi-segment runs are distinguished by a
/// `segment` label.
pub fn render(snap: &FlightSnapshot, prof: &BTreeMap<&'static str, SiteStats>) -> String {
    let mut out = String::with_capacity(8192);
    out.push_str("# HELP fred_series Final values of fred flight-recorder series.\n");
    // Group series by sanitized metric name so each # TYPE line is
    // emitted once, as the format requires.
    type MetricRow = (String, Vec<(String, String)>, f64);
    let mut by_metric: BTreeMap<String, Vec<MetricRow>> = BTreeMap::new();
    for seg in &snap.segments {
        let seg_label = seg.segment.to_string();
        for s in &seg.series {
            let Some(v) = s.last_value() else { continue };
            let (base, detail) = match s.name.split_once('/') {
                Some((b, d)) => (b, Some(d)),
                None => (s.name.as_str(), None),
            };
            let metric = format!("fred_{}", sanitize(base));
            let mut labels = vec![("segment".to_string(), seg_label.clone())];
            if let Some(d) = detail {
                labels.push(("detail".to_string(), d.to_string()));
            }
            by_metric
                .entry(metric)
                .or_default()
                .push((s.kind.prom_type().to_string(), labels, v));
        }
    }
    for (metric, samples) in &by_metric {
        out.push_str(&format!("# TYPE {metric} {}\n", samples[0].0));
        for (_, labels, v) in samples {
            let lrefs: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            push_sample(&mut out, metric, &lrefs, *v);
        }
    }
    for seg in &snap.segments {
        if seg.fct.is_empty() {
            continue;
        }
        let seg_label = seg.segment.to_string();
        push_histogram(
            &mut out,
            "fred_flow_completion_seconds",
            &[("segment", &seg_label)],
            &seg.fct,
        );
    }
    if snap.link_series_dropped > 0 {
        out.push_str("# TYPE fred_link_series_dropped counter\n");
        push_sample(
            &mut out,
            "fred_link_series_dropped",
            &[],
            snap.link_series_dropped as f64,
        );
    }
    if !prof.is_empty() {
        out.push_str("# TYPE fred_prof_total gauge\n");
        for (site, st) in prof {
            push_sample(&mut out, "fred_prof_total", &[("site", site)], st.total);
        }
        out.push_str("# TYPE fred_prof_count counter\n");
        for (site, st) in prof {
            push_sample(
                &mut out,
                "fred_prof_count",
                &[("site", site)],
                st.count as f64,
            );
        }
    }
    out
}

/// One parsed exposition sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name.
    pub name: String,
    /// Label key/value pairs in appearance order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Parses Prometheus text exposition into its sample lines. Comment
/// (`#`) and blank lines are skipped. Returns `Err` with a
/// line-numbered message on any malformed line — this is the
/// validator CI runs against our own output.
pub fn parse(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_sample(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(out)
}

fn parse_sample(line: &str) -> Result<PromSample, String> {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len()
        && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b':')
    {
        i += 1;
    }
    if i == 0 || bytes[0].is_ascii_digit() {
        return Err(format!("invalid metric name in {line:?}"));
    }
    let name = line[..i].to_string();
    let mut labels = Vec::new();
    let rest = &line[i..];
    let rest = if let Some(stripped) = rest.strip_prefix('{') {
        let close = find_label_end(stripped)
            .ok_or_else(|| format!("unterminated label set in {line:?}"))?;
        parse_labels(&stripped[..close], &mut labels)?;
        &stripped[close + 1..]
    } else {
        rest
    };
    let value_str = rest.trim();
    if value_str.is_empty() {
        return Err(format!("missing value in {line:?}"));
    }
    // Exposition allows a trailing timestamp; take the first token.
    let value_tok = value_str.split_ascii_whitespace().next().unwrap();
    let value = match value_tok {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse::<f64>()
            .map_err(|_| format!("bad value {v:?} in {line:?}"))?,
    };
    Ok(PromSample {
        name,
        labels,
        value,
    })
}

/// Index of the closing `}` of a label body, honouring quoted,
/// escape-capable label values.
fn find_label_end(s: &str) -> Option<usize> {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '}' if !in_str => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_labels(body: &str, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("missing '=' in label body {body:?}"))?;
        let key = rest[..eq].trim().to_string();
        if key.is_empty() {
            return Err(format!("empty label name in {body:?}"));
        }
        let after = rest[eq + 1..].trim_start();
        let mut chars = after.char_indices();
        if chars.next().map(|(_, c)| c) != Some('"') {
            return Err(format!("label value must be quoted in {body:?}"));
        }
        let mut value = String::new();
        let mut escaped = false;
        let mut end = None;
        for (i, c) in chars {
            if escaped {
                value.push(match c {
                    'n' => '\n',
                    other => other,
                });
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            } else {
                value.push(c);
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value in {body:?}"))?;
        out.push((key, value));
        rest = after[end + 1..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::sink::TraceSink;
    use crate::timeseries::FlightRecorder;

    fn sample_snapshot() -> FlightSnapshot {
        let r = FlightRecorder::new();
        r.record(TraceEvent::Topology {
            t: 0.0,
            capacities: Box::new([1.0, 1.0]),
        });
        r.record(TraceEvent::LinkUtil {
            t: 0.5,
            link: 1,
            utilization: 0.75,
        });
        r.record(TraceEvent::RateEpoch {
            t: 0.5,
            active_flows: 12,
            changed: 3,
        });
        r.record(TraceEvent::FlowInjected {
            t: 0.1,
            id: 0,
            tag: 7,
            bytes: 1e6,
            track: crate::event::Track::Dp,
            links: Box::new([0]),
        });
        r.record(TraceEvent::FlowCompleted {
            t: 0.9,
            id: 0,
            tag: 7,
            injected_at: 0.1,
            track: crate::event::Track::Dp,
        });
        r.snapshot()
    }

    #[test]
    fn render_parse_round_trip() {
        let snap = sample_snapshot();
        let text = render(&snap, &BTreeMap::new());
        assert!(!text.is_empty());
        let samples = parse(&text).expect("our own output must parse");
        assert!(!samples.is_empty());
        let util = samples
            .iter()
            .find(|s| s.name == "fred_link_util")
            .expect("link_util exported");
        assert_eq!(util.value, 0.75);
        assert!(util.labels.iter().any(|(k, v)| k == "detail" && v == "1"));
        let active = samples
            .iter()
            .find(|s| s.name == "fred_active_flows")
            .expect("active_flows exported");
        assert_eq!(active.value, 12.0);
        // Histogram triplet present and cumulative buckets end at count.
        let count = samples
            .iter()
            .find(|s| s.name == "fred_flow_completion_seconds_count")
            .expect("histogram count");
        assert_eq!(count.value, 1.0);
        let inf_bucket = samples
            .iter()
            .find(|s| {
                s.name == "fred_flow_completion_seconds_bucket"
                    && s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf")
            })
            .expect("+Inf bucket");
        assert_eq!(inf_bucket.value, 1.0);
    }

    #[test]
    fn parse_handles_escapes_and_rejects_garbage() {
        let ok = parse("m{a=\"x\\\"y\",b=\"z\"} 1.5 1234\n# comment\n\nn 2\n").unwrap();
        assert_eq!(ok[0].labels[0].1, "x\"y");
        assert_eq!(ok[0].value, 1.5);
        assert_eq!(ok[1].name, "n");
        assert!(parse("3bad 1\n").is_err());
        assert!(parse("m{a=unquoted} 1\n").is_err());
        assert!(parse("m{a=\"x\"} \n").is_err());
        assert!(parse("m{a=\"x\" 1\n").is_err());
    }
}
