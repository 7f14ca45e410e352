//! Design-space-exploration sweep: the capacity-planning experiment.
//!
//! Evaluates a [`SweepSpec`] — NPU array dims × link-bandwidth ratio ×
//! external-memory hub capacity × model-zoo workload × fault severity
//! × tenant mix — against the multi-tenant cluster simulator, with
//! per-point panic isolation, mid-sweep checkpointing and
//! bit-identical kill/resume, then extracts the Pareto front over
//! normalized makespan / area / power / TCO. See `DESIGN.md` §13.
//!
//! Extra flags beyond the standard tracing set:
//!
//! * `--threads <n>` — evaluate points on `n` worker threads; `0` or
//!   absent defers to the `FRED_THREADS` environment variable (default
//!   1). Rows are bit-identical at every thread count;
//! * `--full` — run the ≥ 200-point [`SweepSpec::full`] sweep instead
//!   of the CI smoke grid;
//! * `--checkpoint <path>` — write a resumable checkpoint after every
//!   chunk;
//! * `--resume` — resume from `--checkpoint` if the file exists
//!   (without `--checkpoint` it is a usage error, exit 2);
//! * `--stop-after-chunks <n>` — exit cleanly after `n` chunks (the
//!   kill half of a kill/resume demonstration);
//! * `--inject-panic <idx>` — force point `idx` to panic, to
//!   demonstrate that a crashing point becomes a typed error row.
//!
//! Report keys (`--report BENCH_dse.json`): `dse/p<i>/status`
//! (0 ok / 1 infeasible / 2 error), `dse/p<i>/norm_makespan_secs`,
//! `dse/p<i>/area_mm2`, `dse/p<i>/power_w`, `dse/p<i>/tco_dollars`,
//! `dse/p<i>/mean_stretch`, and the aggregates `dse/points`,
//! `dse/ok`, `dse/infeasible`, `dse/errors`, `dse/front_size`,
//! `dse/dominated`. With `--dashboard`, the explored objective space
//! lands as `dse/*` series (indexed by point) so the front scatter is
//! visible next to the progress track.

use std::path::PathBuf;

use fred_bench::table::{fmt_secs, Table};
use fred_bench::traceopt::TraceOpts;
use fred_dse::runner::{PointOutcome, RunOpts};
use fred_dse::{bench_metrics, pareto_front, run_sweep, SweepSpec};
use fred_telemetry::event::TraceEvent;

fn main() {
    let mut full = false;
    let mut checkpoint: Option<PathBuf> = None;
    let mut resume = false;
    let mut stop_after_chunks: Option<usize> = None;
    let mut inject_panic: Option<usize> = None;
    let mut threads = 0usize;
    let mut opts = TraceOpts::from_args_with("dse_sweep", |flag, next| match flag {
        "--full" => {
            full = true;
            true
        }
        "--checkpoint" => {
            checkpoint = Some(PathBuf::from(next().unwrap_or_else(|| {
                eprintln!("dse_sweep: --checkpoint expects a path");
                std::process::exit(2);
            })));
            true
        }
        "--resume" => {
            resume = true;
            true
        }
        "--stop-after-chunks" => {
            stop_after_chunks = Some(parse_usize("--stop-after-chunks", next));
            true
        }
        "--inject-panic" => {
            inject_panic = Some(parse_usize("--inject-panic", next));
            true
        }
        "--threads" => {
            threads = parse_usize("--threads", next);
            true
        }
        _ => false,
    });
    if resume && checkpoint.is_none() {
        eprintln!("dse_sweep: --resume needs --checkpoint <path>");
        std::process::exit(2);
    }
    let spec = if full {
        SweepSpec::full()
    } else {
        SweepSpec::smoke()
    };

    let run_opts = RunOpts {
        threads,
        checkpoint,
        resume,
        stop_after_chunks,
        panic_at: inject_panic,
        sink: opts.enabled().then(|| opts.sink()),
    };
    let outcome = run_sweep(&spec, &run_opts).unwrap_or_else(|e| {
        eprintln!("dse_sweep: {e}");
        std::process::exit(1);
    });
    let rows = &outcome.rows;
    let total = spec.point_count();
    if rows.len() < total {
        // Interrupted by --stop-after-chunks: report progress and make
        // the partial state obvious instead of emitting a half-front.
        println!(
            "dse_sweep[{}]: stopped after {} chunks — {}/{} points complete \
             (resume with --resume --checkpoint <path>)",
            spec.name,
            outcome.chunks_run,
            rows.len(),
            total
        );
        opts.finish();
        return;
    }

    let front = pareto_front(rows);
    for (key, value) in bench_metrics(rows, &front) {
        opts.metric(key, value);
    }

    // Dashboard scatter: the explored objective space as
    // point-indexed series, front membership as a 0/1 trace.
    if opts.enabled() {
        let sink = opts.sink();
        for (i, row) in rows.iter().enumerate() {
            if let PointOutcome::Metrics(m) = &row.outcome {
                let t = i as f64;
                let s = |key: &str, value: f64| {
                    sink.record(TraceEvent::Sample {
                        t,
                        key: key.into(),
                        value,
                    });
                };
                s("dse/norm_makespan_secs", m.norm_makespan_secs);
                s("dse/area_mm2", m.area_mm2);
                s("dse/power_w", m.power_w);
                s("dse/tco_dollars", m.tco_dollars);
                s(
                    "dse/on_front",
                    if front.front.contains(&i) { 1.0 } else { 0.0 },
                );
            }
        }
    }

    let mut table = Table::new(vec![
        "point",
        "design",
        "norm makespan",
        "area mm2",
        "power W",
        "tco $",
    ]);
    for &i in &front.front {
        let row = &rows[i];
        let PointOutcome::Metrics(m) = &row.outcome else {
            continue;
        };
        table.row(vec![
            i.to_string(),
            row.point.label(),
            fmt_secs(m.norm_makespan_secs),
            format!("{:.0}", m.area_mm2),
            format!("{:.0}", m.power_w),
            format!("{:.6}", m.tco_dollars),
        ]);
    }
    table.print(&format!(
        "dse_sweep[{}] — Pareto front: {} of {} points ({} dominated, \
         {} infeasible, {} errors{})",
        spec.name,
        front.front.len(),
        rows.len(),
        front.dominated,
        front.infeasible,
        front.errors,
        if outcome.resumed_rows > 0 {
            format!(
                "; resumed past {} checkpointed points",
                outcome.resumed_rows
            )
        } else {
            String::new()
        }
    ));
    println!(
        "\nreading: each front row is a fabric configuration no other explored \
         point beats on all four axes at once — the capacity-planning menu. \
         Dominated points paid area/power/TCO without buying normalized \
         makespan; infeasible points lacked external-memory hub capacity for \
         their workload's optimizer spill."
    );
    opts.finish();
}

fn parse_usize(flag: &str, next: &mut dyn FnMut() -> Option<String>) -> usize {
    let v = next().unwrap_or_else(|| {
        eprintln!("dse_sweep: {flag} expects an integer");
        std::process::exit(2);
    });
    v.parse().unwrap_or_else(|_| {
        eprintln!("dse_sweep: {flag} expects an integer, got `{v}`");
        std::process::exit(2);
    })
}
