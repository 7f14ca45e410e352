//! The chunked, panic-isolated, checkpointable sweep runner.
//!
//! Points are evaluated in chunks of [`SweepSpec::chunk`]. Within a
//! chunk, `std::thread::scope` workers claim points through an atomic
//! counter and each evaluation runs under `catch_unwind`: a crashing
//! point becomes a typed [`PointOutcome::Error`] row and the sweep
//! continues — one adversarial configuration never kills the other
//! 199. After every chunk joins, rows are appended *in enumeration
//! order* and, when a checkpoint path is set, the completed prefix is
//! written as a versioned [`SimState`] via `fred_core::codec`. A
//! killed sweep resumes from the last completed chunk and the resumed
//! row list is bit-identical to an uninterrupted run — per-point
//! randomness is pre-derived during enumeration
//! ([`SweepSpec::enumerate`]), so neither thread count nor resume
//! history can reach it.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use fred_cluster::arrivals::poisson_arrivals;
use fred_cluster::{run_cluster, ClusterConfig};
use fred_core::codec::{SnapshotError, Value};
use fred_core::params::FabricConfig;
use fred_core::snapshot::{arr_of, f64_of, field, u64_of, usize_of, v_f64, v_u64, SimState};
use fred_sim::fault::{FaultEvent, FaultKind, FaultPlan};
use fred_sim::rng::Rng64;
use fred_sim::time::Time;
use fred_telemetry::event::TraceEvent;
use fred_telemetry::prof;
use fred_telemetry::sink::TraceSink;
use fred_workloads::backend::FabricBackend;

use crate::cost::{design_cost, hub_gb_required, normalized_makespan, tco_dollars};
use crate::spec::{SweepPoint, SweepSpec, Workload};

/// Measured + modeled results of one successfully simulated point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointMetrics {
    /// Measured cluster makespan on the paper fabric, seconds.
    pub makespan_secs: f64,
    /// Weak-scaling-normalized makespan for the point's array,
    /// seconds — the Pareto performance axis.
    pub norm_makespan_secs: f64,
    /// Mean per-job makespan stretch.
    pub mean_stretch: f64,
    /// 99th-percentile per-job stretch.
    pub p99_stretch: f64,
    /// Jain's fairness index over per-job speed.
    pub fairness: f64,
    /// NPU-slot utilization.
    pub utilization: f64,
    /// Modeled silicon area, mm² — Pareto axis.
    pub area_mm2: f64,
    /// Modeled power draw, W — Pareto axis.
    pub power_w: f64,
    /// Modeled dollars to finish the normalized run — Pareto axis.
    pub tco_dollars: f64,
}

/// A point evaluation that did not produce metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct PointError {
    /// Panic payload or typed simulation error, as text.
    pub message: String,
}

/// What happened at one design point.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// Simulated successfully.
    Metrics(PointMetrics),
    /// Excluded before simulation: the external-memory hub cannot
    /// hold the workload's optimizer spill.
    Infeasible {
        /// Hub capacity the workload would need, GB per NPU.
        hub_gb_required: f64,
    },
    /// The evaluation panicked or the cluster returned a typed error;
    /// the sweep continued without it.
    Error(PointError),
}

/// One row of the sweep result: the point and its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRow {
    /// The design point evaluated.
    pub point: SweepPoint,
    /// Its outcome.
    pub outcome: PointOutcome,
}

/// Runner options. `Default` is a serial, checkpoint-free run.
#[derive(Default)]
pub struct RunOpts {
    /// Worker threads; `0` reads `FRED_THREADS` (defaulting to 1).
    pub threads: usize,
    /// Checkpoint file written after every completed chunk.
    pub checkpoint: Option<PathBuf>,
    /// Resume from `checkpoint` if it exists (hard error if it was
    /// written by a different spec).
    pub resume: bool,
    /// Stop (successfully) after this many chunks — the test hook
    /// that simulates a killed sweep.
    pub stop_after_chunks: Option<usize>,
    /// Force the point with this index to panic — the test hook for
    /// panic isolation.
    pub panic_at: Option<usize>,
    /// Progress sink: a `dse/completed_points` sample is recorded
    /// after every chunk (coordinator thread only — sinks are not
    /// `Send`).
    pub sink: Option<Rc<dyn TraceSink>>,
}

/// The result of [`run_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// One row per evaluated point, in enumeration order. Shorter
    /// than the spec's point count only when `stop_after_chunks`
    /// interrupted the run.
    pub rows: Vec<PointRow>,
    /// Rows loaded from the checkpoint instead of evaluated.
    pub resumed_rows: usize,
    /// Chunks evaluated in this invocation.
    pub chunks_run: usize,
}

/// Evaluates one design point (no panic isolation — the runner wraps
/// this in `catch_unwind`).
///
/// The point's fabric knobs are encoded as a [`FaultPlan`] attached
/// to the first-arriving job, so they take effect the moment the
/// cluster starts running: `fault_fraction` becomes a survivable
/// seeded link-failure set, and `bw_ratio < 1` becomes a
/// [`FaultKind::LinkDegrade`] on every *surviving* link (a killed link
/// stays dead under a degrade, so the failure set is left out of the
/// plan).
pub fn evaluate_point(spec: &SweepSpec, point: &SweepPoint) -> PointRow {
    let _scope = prof::scope("dse.point");
    let templates = point.workload.templates();
    let required = hub_gb_required(&templates);
    if required > point.hub_gb {
        return PointRow {
            point: point.clone(),
            outcome: PointOutcome::Infeasible {
                hub_gb_required: required,
            },
        };
    }
    let mut prng = Rng64::from_state(point.rng_state);
    let arrival_seed = prng.split().state();
    let fault_seed = prng.split().state();
    let mut jobs = poisson_arrivals(
        &templates,
        spec.arrival_rate,
        spec.jobs,
        point.tenant_mix,
        arrival_seed,
    );
    let cfg = ClusterConfig::new(FabricConfig::FredD);
    let topo = FabricBackend::new(cfg.fabric).topology();
    let mut events: Vec<FaultEvent> = Vec::new();
    if point.fault_fraction > 0.0 {
        let failures =
            FaultPlan::seeded_link_failures(&topo, point.fault_fraction, Time::ZERO, fault_seed);
        events.extend(failures.events().iter().cloned());
    }
    if point.bw_ratio < 1.0 {
        let failed: HashSet<usize> = events.iter().map(|e| e.link.0).collect();
        for (link, _) in topo.links() {
            if !failed.contains(&link.0) {
                events.push(FaultEvent {
                    at: Time::ZERO,
                    link,
                    kind: FaultKind::LinkDegrade(point.bw_ratio),
                });
            }
        }
    }
    if !events.is_empty() {
        // Job faults are job-relative offsets from first start; the
        // first-arriving job starts first, so a zero-offset plan on it
        // reshapes the fabric before any traffic flows.
        jobs[0].faults = FaultPlan::new(events);
    }
    let outcome = match run_cluster(&cfg, jobs) {
        Ok(report) => {
            let makespan = report.makespan.as_secs();
            let norm = normalized_makespan(makespan, point.npus());
            let cost = design_cost(point);
            PointOutcome::Metrics(PointMetrics {
                makespan_secs: makespan,
                norm_makespan_secs: norm,
                mean_stretch: report.mean_stretch(),
                p99_stretch: report.stretch(0.99),
                fairness: report.jain_fairness(),
                utilization: report.utilization(),
                area_mm2: cost.area_mm2,
                power_w: cost.power_w,
                tco_dollars: tco_dollars(&cost, norm),
            })
        }
        Err(e) => PointOutcome::Error(PointError {
            message: format!("cluster error: {e:?}"),
        }),
    };
    PointRow {
        point: point.clone(),
        outcome,
    }
}

/// Runs the sweep: chunked work-queue execution with per-point panic
/// isolation, optional mid-sweep checkpointing and resume. See the
/// [module docs](self) for the execution model and determinism
/// argument.
///
/// # Errors
///
/// Only checkpoint I/O and resume-validation errors are returned;
/// per-point failures become [`PointOutcome::Error`] rows.
pub fn run_sweep(spec: &SweepSpec, opts: &RunOpts) -> Result<SweepOutcome, SnapshotError> {
    let points = spec.enumerate();
    let mut rows: Vec<PointRow> = Vec::new();
    if opts.resume {
        if let Some(path) = &opts.checkpoint {
            if path.exists() {
                rows = load_checkpoint(spec, path)?;
                if rows.len() > points.len() {
                    return Err(SnapshotError::Mismatch(format!(
                        "checkpoint has {} rows but the spec enumerates {} points",
                        rows.len(),
                        points.len()
                    )));
                }
            }
        }
    }
    let resumed_rows = rows.len();
    let threads = resolve_threads(opts.threads);
    // Hoisted out of the worker closures: `opts` itself holds the
    // (non-`Sync`) coordinator sink.
    let panic_at = opts.panic_at;
    let mut chunks_run = 0usize;
    for chunk in points[resumed_rows..].chunks(spec.chunk) {
        if opts.stop_after_chunks == Some(chunks_run) {
            break;
        }
        let slots: Vec<Mutex<Option<PointRow>>> = chunk.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = threads.min(chunk.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= chunk.len() {
                            break;
                        }
                        let point = &chunk[i];
                        let row = catch_unwind(AssertUnwindSafe(|| {
                            if panic_at == Some(point.index) {
                                panic!("injected panic at point {}", point.index);
                            }
                            evaluate_point(spec, point)
                        }))
                        .unwrap_or_else(|payload| PointRow {
                            point: point.clone(),
                            outcome: PointOutcome::Error(PointError {
                                message: panic_message(payload.as_ref()),
                            }),
                        });
                        *slots[i]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(row);
                    }
                    prof::flush_thread();
                });
            }
        });
        for slot in slots {
            let row = slot
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every claimed slot is filled at the join barrier");
            rows.push(row);
        }
        chunks_run += 1;
        if let Some(path) = &opts.checkpoint {
            write_checkpoint(spec, &rows, path)?;
        }
        if let Some(sink) = &opts.sink {
            sink.record(TraceEvent::Sample {
                t: rows.len() as f64,
                key: "dse/completed_points".into(),
                value: rows.len() as f64 / points.len() as f64,
            });
        }
        prof::record_value("dse.chunk_points", chunk.len() as f64);
    }
    Ok(SweepOutcome {
        rows,
        resumed_rows,
        chunks_run,
    })
}

/// `0` → `FRED_THREADS` (default 1), clamped to at least 1: the
/// meaning of `dse_sweep --threads` and of an unset [`RunOpts::threads`].
/// Design points are independent, so the thread count changes only
/// wall time, never a row.
fn resolve_threads(threads: usize) -> usize {
    let threads = if threads == 0 {
        std::env::var("FRED_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or(1)
    } else {
        threads
    };
    threads.max(1)
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Checkpoint layout version (bump on incompatible row changes).
const CHECKPOINT_VERSION: u64 = 1;

/// Writes the completed row prefix as a binary [`SimState`].
pub fn write_checkpoint(
    spec: &SweepSpec,
    rows: &[PointRow],
    path: &Path,
) -> Result<(), SnapshotError> {
    let mut sim = SimState::new();
    sim.insert(
        "dse",
        Value::Obj(vec![
            ("version".into(), v_u64(CHECKPOINT_VERSION)),
            ("fingerprint".into(), v_u64(spec.fingerprint())),
            (
                "rows".into(),
                Value::Arr(rows.iter().map(row_to_value).collect()),
            ),
        ]),
    );
    sim.write_binary(path)
}

/// Reads a checkpoint back, validating the layout version and the
/// spec fingerprint.
pub fn load_checkpoint(spec: &SweepSpec, path: &Path) -> Result<Vec<PointRow>, SnapshotError> {
    let sim = SimState::read_binary(path)?;
    let dse = sim.section("dse")?;
    let version = u64_of(field(dse, "version", "dse")?, "dse.version")?;
    if version != CHECKPOINT_VERSION {
        return Err(SnapshotError::Mismatch(format!(
            "dse checkpoint version {version} (this build reads {CHECKPOINT_VERSION})"
        )));
    }
    let fp = u64_of(field(dse, "fingerprint", "dse")?, "dse.fingerprint")?;
    if fp != spec.fingerprint() {
        return Err(SnapshotError::Mismatch(
            "checkpoint was written by a different sweep spec".into(),
        ));
    }
    arr_of(field(dse, "rows", "dse")?, "dse.rows")?
        .iter()
        .map(row_from_value)
        .collect()
}

fn row_to_value(row: &PointRow) -> Value {
    let p = &row.point;
    let mut fields = vec![
        ("index".into(), v_u64(p.index as u64)),
        ("cols".into(), v_u64(p.array.0 as u64)),
        ("rows".into(), v_u64(p.array.1 as u64)),
        ("bw_ratio".into(), v_f64(p.bw_ratio)),
        ("hub_gb".into(), v_f64(p.hub_gb)),
        ("workload".into(), v_u64(p.workload.tag())),
        ("fault_fraction".into(), v_f64(p.fault_fraction)),
        (
            "mix".into(),
            Value::Arr(p.tenant_mix.iter().map(|&x| v_f64(x)).collect()),
        ),
        ("rng_state".into(), v_u64(p.rng_state)),
    ];
    match &row.outcome {
        PointOutcome::Metrics(m) => {
            fields.push(("outcome".into(), Value::Str("ok".into())));
            fields.push((
                "metrics".into(),
                Value::Obj(vec![
                    ("makespan_secs".into(), v_f64(m.makespan_secs)),
                    ("norm_makespan_secs".into(), v_f64(m.norm_makespan_secs)),
                    ("mean_stretch".into(), v_f64(m.mean_stretch)),
                    ("p99_stretch".into(), v_f64(m.p99_stretch)),
                    ("fairness".into(), v_f64(m.fairness)),
                    ("utilization".into(), v_f64(m.utilization)),
                    ("area_mm2".into(), v_f64(m.area_mm2)),
                    ("power_w".into(), v_f64(m.power_w)),
                    ("tco_dollars".into(), v_f64(m.tco_dollars)),
                ]),
            ));
        }
        PointOutcome::Infeasible { hub_gb_required } => {
            fields.push(("outcome".into(), Value::Str("infeasible".into())));
            fields.push(("hub_gb_required".into(), v_f64(*hub_gb_required)));
        }
        PointOutcome::Error(e) => {
            fields.push(("outcome".into(), Value::Str("error".into())));
            fields.push(("message".into(), Value::Str(e.message.clone())));
        }
    }
    Value::Obj(fields)
}

fn str_of<'a>(v: &'a Value, ctx: &str) -> Result<&'a str, SnapshotError> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(SnapshotError::Mismatch(format!(
            "{ctx}: expected string, found {other:?}"
        ))),
    }
}

fn row_from_value(v: &Value) -> Result<PointRow, SnapshotError> {
    let ctx = "dse.row";
    let mix_vals = arr_of(field(v, "mix", ctx)?, "dse.row.mix")?;
    if mix_vals.len() != 3 {
        return Err(SnapshotError::Mismatch(
            "dse.row.mix: expected 3 fractions".into(),
        ));
    }
    let mut tenant_mix = [0.0; 3];
    for (i, m) in mix_vals.iter().enumerate() {
        tenant_mix[i] = f64_of(m, "dse.row.mix")?;
    }
    let tag = u64_of(field(v, "workload", ctx)?, "dse.row.workload")?;
    let workload = Workload::from_tag(tag)
        .ok_or_else(|| SnapshotError::Mismatch(format!("dse.row.workload: unknown tag {tag}")))?;
    let point = SweepPoint {
        index: usize_of(field(v, "index", ctx)?, "dse.row.index")?,
        array: (
            usize_of(field(v, "cols", ctx)?, "dse.row.cols")?,
            usize_of(field(v, "rows", ctx)?, "dse.row.rows")?,
        ),
        bw_ratio: f64_of(field(v, "bw_ratio", ctx)?, "dse.row.bw_ratio")?,
        hub_gb: f64_of(field(v, "hub_gb", ctx)?, "dse.row.hub_gb")?,
        workload,
        fault_fraction: f64_of(field(v, "fault_fraction", ctx)?, "dse.row.fault_fraction")?,
        tenant_mix,
        rng_state: u64_of(field(v, "rng_state", ctx)?, "dse.row.rng_state")?,
    };
    let outcome = match str_of(field(v, "outcome", ctx)?, "dse.row.outcome")? {
        "ok" => {
            let m = field(v, "metrics", ctx)?;
            let g = |key: &str| f64_of(field(m, key, "dse.row.metrics")?, key);
            PointOutcome::Metrics(PointMetrics {
                makespan_secs: g("makespan_secs")?,
                norm_makespan_secs: g("norm_makespan_secs")?,
                mean_stretch: g("mean_stretch")?,
                p99_stretch: g("p99_stretch")?,
                fairness: g("fairness")?,
                utilization: g("utilization")?,
                area_mm2: g("area_mm2")?,
                power_w: g("power_w")?,
                tco_dollars: g("tco_dollars")?,
            })
        }
        "infeasible" => PointOutcome::Infeasible {
            hub_gb_required: f64_of(field(v, "hub_gb_required", ctx)?, "dse.row.hub_gb_required")?,
        },
        "error" => PointOutcome::Error(PointError {
            message: str_of(field(v, "message", ctx)?, "dse.row.message")?.to_string(),
        }),
        other => {
            return Err(SnapshotError::Mismatch(format!(
                "dse.row.outcome: unknown variant `{other}`"
            )))
        }
    };
    Ok(PointRow { point, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        // 4 grid points + 1 random, rn152-only (fast, always feasible),
        // chunk of 2 so checkpoints land mid-sweep.
        SweepSpec {
            name: "tiny".into(),
            seed: 7,
            jobs: 3,
            arrival_rate: 20.0,
            chunk: 2,
            array_dims: vec![(5, 4), (4, 4)],
            bw_ratio: vec![1.0, 0.5],
            hub_gb: vec![64.0],
            workload: vec![Workload::Rn152],
            fault_fraction: vec![0.0],
            tenant_mix: vec![[0.2, 0.6, 0.2]],
            random_points: 1,
        }
    }

    #[test]
    fn rows_roundtrip_through_the_codec_bit_identically() {
        let spec = tiny_spec();
        let rows = run_sweep(&spec, &RunOpts::default()).unwrap().rows;
        assert_eq!(rows.len(), 5);
        let dir = std::env::temp_dir().join("fred_dse_roundtrip_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        write_checkpoint(&spec, &rows, &path).unwrap();
        let back = load_checkpoint(&spec, &path).unwrap();
        assert_eq!(back, rows, "codec roundtrip must be exact");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_of_an_older_state_layout_is_rejected_by_version() {
        let spec = tiny_spec();
        let dir = std::env::temp_dir().join("fred_dse_old_layout_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        write_checkpoint(&spec, &[], &path).unwrap();
        // Rewrite the file as state layout 3 under the current codec.
        let Value::Obj(mut fields) = fred_core::codec::read_binary(&path).unwrap() else {
            panic!("not an object")
        };
        let version = fields.iter_mut().find(|(k, _)| k == "version").unwrap();
        version.1 = v_u64(3);
        fred_core::codec::write_binary(&path, &Value::Obj(fields)).unwrap();
        let err = load_checkpoint(&spec, &path).unwrap_err();
        assert!(
            matches!(err, SnapshotError::BadVersion { found: 3, .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("state layout version 3"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn degraded_bandwidth_slows_the_cluster_down() {
        let spec = tiny_spec();
        let points = spec.enumerate();
        // Points 0 and 1 differ only in bw_ratio (1.0 vs 0.5) — same
        // array, same workload, same rng stream shape.
        let full = evaluate_point(&spec, &points[0]);
        let half = evaluate_point(&spec, &points[1]);
        let (PointOutcome::Metrics(f), PointOutcome::Metrics(h)) = (&full.outcome, &half.outcome)
        else {
            panic!("both points must simulate: {full:?} {half:?}");
        };
        assert!(
            h.makespan_secs > f.makespan_secs,
            "half bandwidth must not be faster: {} vs {}",
            h.makespan_secs,
            f.makespan_secs
        );
        assert!(h.power_w < f.power_w, "thinner links draw less power");
    }

    #[test]
    fn infeasible_hub_points_are_gated_not_simulated() {
        let mut spec = tiny_spec();
        spec.workload = vec![Workload::T17b];
        spec.hub_gb = vec![32.0];
        let points = spec.enumerate();
        let row = evaluate_point(&spec, &points[0]);
        match row.outcome {
            PointOutcome::Infeasible { hub_gb_required } => {
                assert!(hub_gb_required > 32.0);
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn injected_panic_becomes_a_typed_error_row() {
        let spec = tiny_spec();
        let opts = RunOpts {
            panic_at: Some(2),
            ..RunOpts::default()
        };
        let out = run_sweep(&spec, &opts).unwrap();
        assert_eq!(out.rows.len(), 5, "the sweep must not abort");
        match &out.rows[2].outcome {
            PointOutcome::Error(e) => {
                assert!(e.message.contains("injected panic at point 2"), "{e:?}");
            }
            other => panic!("expected error row, got {other:?}"),
        }
        assert!(out
            .rows
            .iter()
            .enumerate()
            .all(|(i, r)| i == 2 || matches!(r.outcome, PointOutcome::Metrics(_))));
    }

    #[test]
    fn resume_from_mid_sweep_checkpoint_is_bit_identical() {
        let spec = tiny_spec();
        let baseline = run_sweep(&spec, &RunOpts::default()).unwrap().rows;

        let dir = std::env::temp_dir().join("fred_dse_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        std::fs::remove_file(&path).ok();

        // "Kill" the sweep after one chunk (2 of 5 points)…
        let killed = run_sweep(
            &spec,
            &RunOpts {
                checkpoint: Some(path.clone()),
                stop_after_chunks: Some(1),
                ..RunOpts::default()
            },
        )
        .unwrap();
        assert_eq!(killed.rows.len(), 2);
        assert_eq!(killed.chunks_run, 1);

        // …then resume to completion.
        let resumed = run_sweep(
            &spec,
            &RunOpts {
                checkpoint: Some(path.clone()),
                resume: true,
                ..RunOpts::default()
            },
        )
        .unwrap();
        assert_eq!(resumed.resumed_rows, 2);
        assert_eq!(
            resumed.rows, baseline,
            "resumed sweep must be bit-identical to the uninterrupted run"
        );

        // A different spec must refuse the checkpoint.
        let mut other = spec.clone();
        other.seed ^= 0xFF;
        let err = run_sweep(
            &other,
            &RunOpts {
                checkpoint: Some(path.clone()),
                resume: true,
                ..RunOpts::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn thread_count_does_not_change_the_rows() {
        let spec = tiny_spec();
        let serial = run_sweep(
            &spec,
            &RunOpts {
                threads: 1,
                ..RunOpts::default()
            },
        )
        .unwrap();
        let parallel = run_sweep(
            &spec,
            &RunOpts {
                threads: 4,
                ..RunOpts::default()
            },
        )
        .unwrap();
        assert_eq!(serial.rows, parallel.rows);
    }
}
