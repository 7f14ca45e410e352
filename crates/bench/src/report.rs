//! Versioned machine-readable bench reports (`BENCH_<name>.json`) and
//! the comparison logic behind the `bench-diff` binary.
//!
//! Every figure/scaling binary can emit one [`BenchReport`]. Each of
//! its sections has one rule:
//!
//! * `sim` — headline simulated results (key/value metrics) and
//!   `analysis` — the critical-path attribution summary from
//!   [`fred_telemetry::analysis`], when recording was on. Both are
//!   deterministic, so [`diff`] requires every leaf in them to match
//!   exactly: numbers by `==` on the parsed `f64` (the writer's
//!   shortest round-trip formatting makes that exact), strings and
//!   booleans by equality, and a leaf present on one side only counts
//!   as a change.
//! * `perf` — host timings (`wall_secs`, `events_per_sec`, …). They
//!   measure the machine, not the simulation: [`diff`] pairs them for
//!   printing and never gates on them. Host speed is gated by the
//!   statistical `fredbench` harness instead.
//! * `prof` — the optional self-profiler site table (not compared).
//!
//! The workspace is dependency-free, so reading reports back uses the
//! minimal recursive-descent JSON parser shared with the snapshot
//! machinery ([`fred_core::codec::parse`], re-exported here) — it
//! supports exactly the JSON this workspace emits (objects, arrays,
//! numbers, strings, booleans, null).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::Path;

use fred_telemetry::analysis::Analysis;
use fred_telemetry::json::{push_num, push_str_lit};

/// Current report schema version. Bump when the report shape changes
/// incompatibly; `bench-diff` refuses to compare mismatched versions.
pub const SCHEMA_VERSION: f64 = 3.0;

/// Relative tolerance for the attribution-sum invariant
/// (`Σ buckets == total makespan`).
pub const SUM_TOLERANCE: f64 = 1e-6;

/// One machine-readable bench report.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    /// Report name (the figure binary, e.g. `"fig9"`).
    pub name: String,
    /// Headline simulated results, in insertion order. Keys should be
    /// stable across commits: `bench-diff` compares them exactly.
    pub sim: Vec<(String, f64)>,
    /// Host timings, in insertion order (`wall_secs` at least).
    /// Printed by `bench-diff`, never gated.
    pub perf: Vec<(String, f64)>,
    /// Critical-path attribution, when the run recorded a trace.
    pub analysis: Option<Analysis>,
    /// Host-side profiler sites, pre-rendered with
    /// [`fred_telemetry::prof::to_json`] (wall-clock — not diffed).
    pub prof_json: Option<String>,
}

impl BenchReport {
    /// Creates an empty report for `name`.
    pub fn new(name: impl Into<String>) -> BenchReport {
        BenchReport {
            name: name.into(),
            ..BenchReport::default()
        }
    }

    /// Records one simulated result. Re-recording a key overwrites it.
    pub fn metric(&mut self, key: impl Into<String>, value: f64) {
        upsert(&mut self.sim, key.into(), value);
    }

    /// Records one host timing. Re-recording a key overwrites it.
    pub fn perf(&mut self, key: impl Into<String>, value: f64) {
        upsert(&mut self.perf, key.into(), value);
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\"schema_version\":");
        push_num(&mut s, SCHEMA_VERSION);
        s.push_str(",\"name\":");
        push_str_lit(&mut s, &self.name);
        for (section, pairs) in [("sim", &self.sim), ("perf", &self.perf)] {
            s.push_str(",\"");
            s.push_str(section);
            s.push_str("\":{");
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_str_lit(&mut s, k);
                s.push(':');
                push_num(&mut s, *v);
            }
            s.push('}');
        }
        if let Some(a) = &self.analysis {
            s.push_str(",\"analysis\":");
            s.push_str(&a.to_json());
        }
        if let Some(p) = &self.prof_json {
            s.push_str(",\"prof\":");
            s.push_str(p);
        }
        s.push('}');
        s
    }

    /// Writes the report to `path`.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn upsert(pairs: &mut Vec<(String, f64)>, key: String, value: f64) {
    match pairs.iter_mut().find(|(k, _)| *k == key) {
        Some((_, v)) => *v = value,
        None => pairs.push((key, value)),
    }
}

// ---------------------------------------------------------------------
// JSON value + parser: shared with the snapshot codec in `fred-core`.
// ---------------------------------------------------------------------

pub use fred_core::codec::{parse, Value};

// ---------------------------------------------------------------------
// Self-check and diff.
// ---------------------------------------------------------------------

/// Validates one parsed report: schema version, required fields, and
/// the attribution-sum invariant (`Σ buckets == makespan` within
/// [`SUM_TOLERANCE`] relative, per run and in aggregate). Returns
/// human-readable info lines on success.
pub fn self_check(report: &Value) -> Result<Vec<String>, String> {
    let mut info = Vec::new();
    let version = report
        .get("schema_version")
        .and_then(Value::as_f64)
        .ok_or("missing schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {SCHEMA_VERSION}"
        ));
    }
    let name = report
        .get("name")
        .and_then(Value::as_str)
        .ok_or("missing name")?;
    let sim = numeric_section(report, "sim")?;
    let perf = numeric_section(report, "perf")?;
    let wall = perf
        .iter()
        .find(|(k, _)| k == "wall_secs")
        .and_then(|(_, v)| v.as_f64())
        .ok_or("perf missing wall_secs")?;
    if wall.is_nan() || wall < 0.0 {
        return Err(format!("wall_secs {wall} is not a non-negative number"));
    }
    info.push(format!(
        "{name}: schema v{version}, {} sim metric(s), {} perf metric(s), wall {wall:.3}s",
        sim.len(),
        perf.len()
    ));

    if let Some(analysis) = report.get("analysis") {
        check_attribution_sum(analysis, "analysis", &mut info)?;
        if let Some(Value::Arr(runs)) = analysis.get("runs") {
            for (i, run) in runs.iter().enumerate() {
                check_run_sum(run, i)?;
            }
            info.push(format!(
                "attribution invariant holds over {} run(s)",
                runs.len()
            ));
        }
    }
    Ok(info)
}

/// The fields of the flat all-numbers object `report[section]`.
fn numeric_section<'v>(report: &'v Value, section: &str) -> Result<&'v [(String, Value)], String> {
    let Some(Value::Obj(fields)) = report.get(section) else {
        return Err(format!("{section} is missing or not an object"));
    };
    for (k, v) in fields {
        if v.as_f64().is_none() {
            return Err(format!("{section} metric `{k}` is not a number"));
        }
    }
    Ok(fields)
}

fn attribution_total(node: &Value, ctx: &str) -> Result<f64, String> {
    let attr = node
        .get("attribution")
        .ok_or_else(|| format!("{ctx}: missing attribution"))?;
    let Value::Obj(buckets) = attr else {
        return Err(format!("{ctx}: attribution is not an object"));
    };
    let mut total = 0.0;
    for (k, v) in buckets {
        total += v
            .as_f64()
            .ok_or_else(|| format!("{ctx}: bucket `{k}` is not a number"))?;
    }
    Ok(total)
}

fn check_attribution_sum(node: &Value, ctx: &str, info: &mut Vec<String>) -> Result<(), String> {
    let total = attribution_total(node, ctx)?;
    let makespan = node
        .get("total_makespan_secs")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{ctx}: missing total_makespan_secs"))?;
    let denom = makespan.abs().max(f64::MIN_POSITIVE);
    let rel = (total - makespan).abs() / denom;
    if rel > SUM_TOLERANCE {
        return Err(format!(
            "{ctx}: attribution sum {total} != makespan {makespan} \
             (relative error {rel:.3e} > {SUM_TOLERANCE:.0e})"
        ));
    }
    info.push(format!(
        "{ctx}: attribution sums to makespan ({makespan:.6}s, rel err {rel:.1e})"
    ));
    Ok(())
}

fn check_run_sum(run: &Value, i: usize) -> Result<(), String> {
    let ctx = format!("run[{i}]");
    let total = attribution_total(run, &ctx)?;
    let makespan = run
        .get("makespan_secs")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{ctx}: missing makespan_secs"))?;
    let denom = makespan.abs().max(f64::MIN_POSITIVE);
    let rel = (total - makespan).abs() / denom;
    if rel > SUM_TOLERANCE {
        return Err(format!(
            "{ctx}: attribution sum {total} != makespan {makespan} \
             (relative error {rel:.3e})"
        ));
    }
    Ok(())
}

/// One leaf path with its value in each of two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafPair {
    /// Path of the leaf (e.g. `sim.fig9/mesh/MP/secs` or
    /// `analysis.runs[0].contention[2].slowdown_secs`).
    pub key: String,
    /// Value in the baseline report (`None` when missing).
    pub a: Option<Value>,
    /// Value in the candidate report (`None` when missing).
    pub b: Option<Value>,
}

impl fmt::Display for LeafPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |v: &Option<Value>| {
            v.as_ref()
                .map_or("(missing)".into(), fred_core::codec::to_json)
        };
        write!(f, "{}: {} -> {}", self.key, show(&self.a), show(&self.b))
    }
}

/// The result of comparing two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Diff {
    /// How many `sim`/`analysis` leaf paths were compared.
    pub compared: usize,
    /// The `sim`/`analysis` leaves that differ (or exist on one side
    /// only), by path. Any entry here is a regression.
    pub changed: Vec<LeafPair>,
    /// Every `perf` leaf, side by side, by path. Informational only.
    pub perf: Vec<LeafPair>,
}

/// Compares two parsed reports: every leaf under `sim` and `analysis`
/// exactly, and pairs up the `perf` leaves for printing.
pub fn diff(a: &Value, b: &Value) -> Result<Diff, String> {
    for (label, v) in [("baseline", a), ("candidate", b)] {
        let version = v
            .get("schema_version")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{label}: missing schema_version"))?;
        if version != SCHEMA_VERSION {
            return Err(format!("{label}: unsupported schema_version {version}"));
        }
    }
    let exact = pair_leaves(a, b, &["sim", "analysis"]);
    Ok(Diff {
        compared: exact.len(),
        changed: exact.into_iter().filter(|p| p.a != p.b).collect(),
        perf: pair_leaves(a, b, &["perf"]),
    })
}

/// Pairs the leaves under `sections` of both reports by path.
fn pair_leaves(a: &Value, b: &Value, sections: &[&str]) -> Vec<LeafPair> {
    let (la, lb) = (leaves(a, sections), leaves(b, sections));
    let keys: BTreeSet<&String> = la.keys().chain(lb.keys()).collect();
    keys.into_iter()
        .map(|k| LeafPair {
            key: k.clone(),
            a: la.get(k).map(|v| (*v).clone()),
            b: lb.get(k).map(|v| (*v).clone()),
        })
        .collect()
}

/// Every scalar leaf under `sections` of `report`, by path.
fn leaves<'v>(report: &'v Value, sections: &[&str]) -> BTreeMap<String, &'v Value> {
    fn walk<'v>(path: String, v: &'v Value, out: &mut BTreeMap<String, &'v Value>) {
        match v {
            Value::Obj(fields) => {
                for (k, x) in fields {
                    walk(format!("{path}.{k}"), x, out);
                }
            }
            Value::Arr(items) => {
                for (i, x) in items.iter().enumerate() {
                    walk(format!("{path}[{i}]"), x, out);
                }
            }
            leaf => {
                out.insert(path, leaf);
            }
        }
    }
    let mut out = BTreeMap::new();
    for section in sections {
        if let Some(v) = report.get(section) {
            walk((*section).to_string(), v, &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        let mut r = BenchReport::new("figX");
        r.perf("wall_secs", 0.25);
        r.metric("mesh/MP/secs", 1.5);
        r.metric("fredd/MP/secs", 0.75);
        r
    }

    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    #[test]
    fn report_roundtrips_through_parser() {
        let r = sample_report();
        let v = parse(&r.to_json()).unwrap();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("figX"));
        assert_eq!(
            v.get("schema_version").and_then(Value::as_f64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(
            v.get("sim")
                .and_then(|s| s.get("mesh/MP/secs"))
                .and_then(Value::as_f64),
            Some(1.5)
        );
        assert_eq!(
            v.get("perf")
                .and_then(|s| s.get("wall_secs"))
                .and_then(Value::as_f64),
            Some(0.25)
        );
        assert!(self_check(&v).is_ok());
    }

    #[test]
    fn metric_and_perf_overwrite_existing_keys() {
        let mut r = sample_report();
        r.metric("mesh/MP/secs", 2.0);
        r.perf("wall_secs", 0.5);
        assert_eq!(r.sim.iter().filter(|(k, _)| k == "mesh/MP/secs").count(), 1);
        assert_eq!(r.sim[0].1, 2.0);
        assert_eq!(r.perf, vec![("wall_secs".to_string(), 0.5)]);
    }

    #[test]
    fn parser_handles_nesting_escapes_and_numbers() {
        let v =
            parse(r#"{"a": [1, -2.5e3, true, null], "s": "x\"y\nA", "o": {"k": 0.125}}"#).unwrap();
        let Value::Arr(a) = v.get("a").unwrap() else {
            panic!()
        };
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[2].as_bool(), Some(true));
        assert_eq!(a[3], Value::Null);
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x\"y\nA"));
        assert_eq!(
            v.get("o").and_then(|o| o.get("k")).and_then(Value::as_f64),
            Some(0.125)
        );
        assert!(parse("{\"unterminated\": ").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn identical_reports_diff_clean() {
        let v = parse(&sample_report().to_json()).unwrap();
        let d = diff(&v, &v).unwrap();
        assert_eq!(d.compared, 2);
        assert!(d.changed.is_empty());
        assert_eq!(d.perf.len(), 1);
        assert_eq!(d.perf[0].key, "perf.wall_secs");
    }

    #[test]
    fn one_ulp_sim_change_is_a_difference() {
        let a = parse(&sample_report().to_json()).unwrap();
        let mut changed = sample_report();
        changed.metric("mesh/MP/secs", next_up(1.5));
        let b = parse(&changed.to_json()).unwrap();
        let d = diff(&a, &b).unwrap();
        assert_eq!(d.changed.len(), 1);
        assert_eq!(d.changed[0].key, "sim.mesh/MP/secs");
        assert_eq!(d.changed[0].b, Some(Value::Num(next_up(1.5))));
    }

    #[test]
    fn nested_analysis_leaves_are_compared_exactly() {
        let doc = |slowdown: f64, victim: &str| {
            format!(
                r#"{{"schema_version":3,"name":"x","sim":{{}},"perf":{{"wall_secs":0}},
                "analysis":{{"runs":[{{"contention":[
                {{"victim":"a","slowdown_secs":1}},
                {{"victim":"{victim}","slowdown_secs":{slowdown}}}]}}]}}}}"#
            )
        };
        let x = 0.1;
        let a = parse(&doc(x, "b")).unwrap();
        assert!(diff(&a, &a).unwrap().changed.is_empty());
        for (b, key) in [
            (
                doc(next_up(x), "b"),
                "analysis.runs[0].contention[1].slowdown_secs",
            ),
            (doc(x, "c"), "analysis.runs[0].contention[1].victim"),
        ] {
            let d = diff(&a, &parse(&b).unwrap()).unwrap();
            let keys: Vec<_> = d.changed.iter().map(|p| p.key.as_str()).collect();
            assert_eq!(keys, [key]);
        }
    }

    #[test]
    fn diff_flags_missing_keys() {
        let a = parse(&sample_report().to_json()).unwrap();
        let mut fewer = BenchReport::new("figX");
        fewer.metric("mesh/MP/secs", 1.5);
        let b = parse(&fewer.to_json()).unwrap();
        let d = diff(&a, &b).unwrap();
        assert_eq!(
            d.changed,
            vec![LeafPair {
                key: "sim.fredd/MP/secs".into(),
                a: Some(Value::Num(0.75)),
                b: None,
            }]
        );
        assert_eq!(
            d.changed[0].to_string(),
            "sim.fredd/MP/secs: 0.75 -> (missing)"
        );
    }

    #[test]
    fn perf_leaves_never_count_as_changes() {
        let a = parse(&sample_report().to_json()).unwrap();
        let mut slower = sample_report();
        slower.perf("wall_secs", 0.5);
        slower.perf("events_per_sec", 1e6);
        let b = parse(&slower.to_json()).unwrap();
        let d = diff(&a, &b).unwrap();
        assert!(d.changed.is_empty());
        let keys: Vec<_> = d.perf.iter().map(|p| p.key.as_str()).collect();
        assert_eq!(keys, ["perf.events_per_sec", "perf.wall_secs"]);
        assert_eq!(d.perf[0].a, None);
    }

    #[test]
    fn self_check_rejects_broken_invariant() {
        // Attribution that does not sum to the makespan.
        let doc = r#"{"schema_version":3,"name":"x","sim":{},"perf":{"wall_secs":0},
            "analysis":{"total_makespan_secs":2.0,
            "attribution":{"compute":1.0,"contention":0.5},"runs":[]}}"#;
        let v = parse(doc).unwrap();
        let err = self_check(&v).unwrap_err();
        assert!(err.contains("attribution sum"), "{err}");
    }

    #[test]
    fn self_check_accepts_valid_analysis() {
        let doc = r#"{"schema_version":3,"name":"x","sim":{"m":1},"perf":{"wall_secs":0.1},
            "analysis":{"total_makespan_secs":1.5,
            "attribution":{"compute":1.0,"contention":0.5},
            "runs":[{"makespan_secs":1.5,
                     "attribution":{"compute":1.0,"contention":0.5}}]}}"#;
        let v = parse(doc).unwrap();
        let info = self_check(&v).unwrap();
        assert!(
            info.iter()
                .any(|l| l.contains("invariant holds over 1 run")),
            "{info:?}"
        );
    }

    #[test]
    fn self_check_rejects_wrong_schema_version() {
        for version in [2, 99] {
            let doc = format!(
                r#"{{"schema_version":{version},"name":"x","sim":{{}},"perf":{{"wall_secs":0}}}}"#
            );
            let err = self_check(&parse(&doc).unwrap()).unwrap_err();
            assert!(err.contains("schema_version"), "{err}");
        }
    }

    #[test]
    fn self_check_requires_numeric_perf_with_wall_secs() {
        for (perf, why) in [
            ("", "perf is missing"),
            (r#","perf":[1]"#, "not an object"),
            (r#","perf":{"wall_secs":"fast"}"#, "is not a number"),
            (r#","perf":{"wall_secs":0,"x":true}"#, "is not a number"),
            (r#","perf":{"events_per_sec":1}"#, "perf missing wall_secs"),
            (r#","perf":{"wall_secs":-1}"#, "non-negative"),
        ] {
            let doc = format!(r#"{{"schema_version":3,"name":"x","sim":{{}}{perf}}}"#);
            let err = self_check(&parse(&doc).unwrap()).unwrap_err();
            assert!(err.contains(why), "{perf}: {err}");
        }
    }

    #[test]
    fn report_with_analysis_passes_self_check() {
        use fred_telemetry::event::{TraceEvent, Track};
        let mut r = sample_report();
        let evs = [
            TraceEvent::PhaseBegin {
                t: 0.0,
                track: Track::Compute,
                span: 1,
                label: "c".into(),
                bytes: 0.0,
                npus: 0,
                tag: 0,
            },
            TraceEvent::PhaseEnd {
                t: 2.0,
                track: Track::Compute,
                span: 1,
            },
        ];
        r.analysis = Some(Analysis::from_events(&evs));
        let v = parse(&r.to_json()).unwrap();
        let info = self_check(&v).unwrap();
        assert!(
            info.iter().any(|l| l.contains("sums to makespan")),
            "{info:?}"
        );
    }
}
