//! Compares two `BENCH_<name>.json` reports and fails on any change to
//! their simulated results.
//!
//! ```text
//! bench-diff <baseline.json> <candidate.json>
//! bench-diff --self-check <report.json> [<report.json> ...]
//! ```
//!
//! Diff mode compares every leaf under `sim` and `analysis` exactly and
//! exits non-zero when any differs or exists on one side only; it
//! prints the `perf` host timings side by side and never fails on them.
//! Self-check mode validates a report in isolation: schema version,
//! required fields, and the attribution-sum invariant (Σ buckets ==
//! makespan within 1e-6 relative).
//!
//! Exit codes: 0 = clean, 1 = changed or invalid report, 2 = usage.

use fred_bench::report::{self, Value};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

fn run(args: &[String]) -> i32 {
    if args.first().map(String::as_str) == Some("--self-check") {
        return self_check(&args[1..]);
    }
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return usage(&format!("unknown flag `{flag}`"));
    }
    let [a, b] = args else {
        return usage("expected exactly two report files");
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-diff: {e}");
            return 1;
        }
    };
    let d = match report::diff(&a, &b) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench-diff: {e}");
            return 1;
        }
    };
    let name = |v: &Value| {
        v.get("name")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    println!(
        "bench-diff: {} vs {} — {} sim/analysis leaves compared exactly",
        name(&a),
        name(&b),
        d.compared
    );
    for p in &d.perf {
        println!("  perf     {p}");
    }
    for c in &d.changed {
        println!("  CHANGED  {c}");
    }
    if d.changed.is_empty() {
        println!("bench-diff: sim and analysis identical");
        0
    } else {
        println!(
            "bench-diff: {} sim/analysis leaf/leaves changed",
            d.changed.len()
        );
        1
    }
}

fn self_check(paths: &[String]) -> i32 {
    if paths.is_empty() {
        return usage("--self-check needs at least one report file");
    }
    let mut failed = 0usize;
    for path in paths {
        match load(path).and_then(|v| report::self_check(&v).map_err(|e| format!("{path}: {e}"))) {
            Ok(info) => {
                println!("bench-diff: {path} OK");
                for line in info {
                    println!("  {line}");
                }
            }
            Err(e) => {
                eprintln!("bench-diff: FAIL {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        1
    } else {
        0
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    report::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn usage(why: &str) -> i32 {
    eprintln!("bench-diff: {why}");
    eprintln!("usage: bench-diff <baseline.json> <candidate.json>");
    eprintln!("       bench-diff --self-check <report.json> [<report.json> ...]");
    2
}
