//! Integration tests for the bench-report pipeline: report files on
//! disk, the `bench-diff` binary's exit codes, and self-check.

use std::path::PathBuf;
use std::process::{Command, Output};

use fred_bench::report::{self, BenchReport};
use fred_sim::rng::Rng64;

fn bench_diff() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bench-diff"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fred-bench-test-{}-{name}", std::process::id()));
    p
}

fn write_report(name: &str, metrics: &[(&str, f64)]) -> PathBuf {
    let mut r = BenchReport::new("itest");
    r.perf("wall_secs", 0.01);
    for (k, v) in metrics {
        r.metric(*k, *v);
    }
    let path = tmp(name);
    r.write(&path).unwrap();
    path
}

fn write_doc(name: &str, doc: &str) -> PathBuf {
    let path = tmp(name);
    std::fs::write(&path, doc).unwrap();
    path
}

fn diff_files(a: &PathBuf, b: &PathBuf) -> Output {
    bench_diff().arg(a).arg(b).output().unwrap()
}

/// The next representable `f64` above `x`: the smallest possible change.
fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

#[test]
fn identical_reports_exit_zero() {
    let a = write_report("same-a.json", &[("m1", 1.0), ("m2", 2.0)]);
    let b = write_report("same-b.json", &[("m1", 1.0), ("m2", 2.0)]);
    let st = bench_diff().arg(&a).arg(&b).status().unwrap();
    assert!(st.success());
    std::fs::remove_file(a).ok();
    std::fs::remove_file(b).ok();
}

#[test]
fn one_ulp_sim_change_exits_one() {
    let x = 0.184802;
    let a = write_report("ulp-a.json", &[("makespan_secs", x)]);
    let same = write_report("ulp-same.json", &[("makespan_secs", x)]);
    let b = write_report("ulp-b.json", &[("makespan_secs", next_up(x))]);
    assert_eq!(diff_files(&a, &same).status.code(), Some(0));
    let out = diff_files(&a, &b);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a one-ulp makespan change must fail"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CHANGED  sim.makespan_secs"), "{stdout}");
    for p in [a, same, b] {
        std::fs::remove_file(p).ok();
    }
}

/// A leaf deep inside `analysis` (a contention pair's slowdown) is part
/// of the exact regression surface, not just the headline buckets.
#[test]
fn one_ulp_nested_analysis_change_exits_one() {
    let doc = |slowdown: f64| {
        format!(
            r#"{{"schema_version":3,"name":"itest","sim":{{"m":1}},"perf":{{"wall_secs":0}},
            "analysis":{{
            "total_makespan_secs":1,"attribution":{{"compute":1}},
            "runs":[{{"makespan_secs":1,"attribution":{{"compute":1}},"contention":[
            {{"link":3,"victim":"mp","culprit":"dp","overlap_secs":0.5,"slowdown_secs":0.25}},
            {{"link":7,"victim":"dp","culprit":"mp","overlap_secs":0.5,"slowdown_secs":{slowdown}}}
            ]}}]}}}}"#
        )
    };
    let x = 0.1;
    let a = write_doc("nested-a.json", &doc(x));
    let same = write_doc("nested-same.json", &doc(x));
    let b = write_doc("nested-b.json", &doc(next_up(x)));
    assert_eq!(diff_files(&a, &same).status.code(), Some(0));
    let out = diff_files(&a, &b);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("CHANGED  analysis.runs[0].contention[1].slowdown_secs"),
        "{stdout}"
    );
    for p in [a, same, b] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn perf_changes_never_fail_and_are_printed() {
    let mut fast = BenchReport::new("itest");
    fast.metric("m", 1.0);
    fast.perf("wall_secs", 1.0);
    fast.perf("events_per_sec", 1e6);
    fast.perf("speedup/256", 9.0);
    // 2x slower, and one perf leaf missing on the candidate side.
    let mut slow = BenchReport::new("itest");
    slow.metric("m", 1.0);
    slow.perf("wall_secs", 2.0);
    slow.perf("events_per_sec", 5e5);
    let (a, b) = (tmp("perf-a.json"), tmp("perf-b.json"));
    fast.write(&a).unwrap();
    slow.write(&b).unwrap();
    let out = diff_files(&a, &b);
    assert_eq!(out.status.code(), Some(0), "perf must never gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in [
        "perf     perf.wall_secs: 1 -> 2",
        "perf     perf.events_per_sec: 1000000 -> 500000",
        "perf     perf.speedup/256: 9 -> (missing)",
    ] {
        assert!(stdout.contains(line), "missing `{line}` in:\n{stdout}");
    }
    std::fs::remove_file(a).ok();
    std::fs::remove_file(b).ok();
}

#[test]
fn missing_metric_is_a_regression() {
    let a = write_report("miss-a.json", &[("m1", 1.0), ("m2", 2.0)]);
    let b = write_report("miss-b.json", &[("m1", 1.0)]);
    assert_eq!(diff_files(&a, &b).status.code(), Some(1));
    assert_eq!(diff_files(&b, &a).status.code(), Some(1));
    std::fs::remove_file(a).ok();
    std::fs::remove_file(b).ok();
}

#[test]
fn self_check_accepts_valid_and_rejects_invalid() {
    let good = write_report("sc-good.json", &[("m1", 1.0)]);
    let st = bench_diff()
        .args(["--self-check", good.to_str().unwrap()])
        .status()
        .unwrap();
    assert!(st.success());

    let bad = [
        // Attribution breaks the sum invariant.
        r#"{"schema_version":3,"name":"x","sim":{},"perf":{"wall_secs":0},
           "analysis":{"total_makespan_secs":5.0,
           "attribution":{"compute":1.0},"runs":[]}}"#,
        // Schema 1: top-level wall_secs, host timings mixed into sim.
        r#"{"schema_version":1,"name":"x","wall_secs":0,"sim":{"events_per_sec":1}}"#,
        // No perf section.
        r#"{"schema_version":3,"name":"x","sim":{}}"#,
        // Non-numeric perf leaf.
        r#"{"schema_version":3,"name":"x","sim":{},"perf":{"wall_secs":"slow"}}"#,
    ];
    for (i, doc) in bad.iter().enumerate() {
        let path = write_doc(&format!("sc-bad-{i}.json"), doc);
        let st = bench_diff()
            .args(["--self-check", path.to_str().unwrap()])
            .status()
            .unwrap();
        assert_eq!(st.code(), Some(1), "{doc}");
        std::fs::remove_file(path).ok();
    }
    std::fs::remove_file(good).ok();
}

#[test]
fn usage_errors_exit_two() {
    let st = bench_diff().arg("only-one.json").status().unwrap();
    assert_eq!(st.code(), Some(2));
    let st = bench_diff().status().unwrap();
    assert_eq!(st.code(), Some(2));
    // The diff is exact: there is no `--threshold` flag.
    let st = bench_diff()
        .args(["a.json", "b.json", "--threshold", "0.05"])
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(2));
    // There is no Prometheus check mode.
    let st = bench_diff()
        .args(["--check-prom", "fred.prom"])
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(2));
}

#[test]
fn written_report_parses_and_diffs_via_library() {
    let path = write_report("lib.json", &[("m", 4.0)]);
    let text = std::fs::read_to_string(&path).unwrap();
    let v = report::parse(&text).unwrap();
    assert!(report::self_check(&v).is_ok());
    let d = report::diff(&v, &v).unwrap();
    assert_eq!(d.compared, 1);
    assert!(d.changed.is_empty());
    std::fs::remove_file(path).ok();
}

/// Seeded single-byte edits of committed baselines — a truncation, or a
/// byte replaced, deleted or inserted — each driven through the parser
/// and, when it parses, through self-check and a diff against the
/// original. Every call must return `Ok` or `Err`: a panic fails the
/// test.
#[test]
fn single_byte_edits_of_baselines_parse_check_and_diff_without_panics() {
    // JSON structure, number syntax, and letters of the literals.
    const BYTES: &[u8] = b"{}[]:,\"\\ 0123456789.eE+-truefalsn";
    let mut rng = Rng64::seed_from_u64(5);
    for name in [
        "table4",
        "dse",
        "scaling",
        "fig7_routing",
        "memory_feasibility",
    ] {
        let path = format!(
            "{}/../../results/baselines/BENCH_{name}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let original = report::parse(&text).unwrap();
        assert!(report::self_check(&original).is_ok(), "{name}");
        // Edits that failed to parse, and that parsed.
        let mut outcomes = [0usize; 2];
        for _ in 0..2_000 {
            let mut bytes = text.clone().into_bytes();
            let at = rng.gen_range(0, bytes.len());
            let byte = BYTES[rng.gen_range(0, BYTES.len())];
            match rng.gen_range(0, 4) {
                0 => bytes.truncate(at),
                1 => bytes[at] = byte,
                2 => drop(bytes.remove(at)),
                _ => bytes.insert(at, byte),
            }
            // The baselines and the edit alphabet are ASCII.
            let edited = String::from_utf8(bytes).unwrap();
            let Ok(v) = report::parse(&edited) else {
                outcomes[0] += 1;
                continue;
            };
            let _ = report::self_check(&v);
            let _ = report::diff(&original, &v);
            let _ = report::diff(&v, &original);
            outcomes[1] += 1;
        }
        assert!(outcomes.iter().all(|&n| n > 0), "{name}: {outcomes:?}");
    }
}
