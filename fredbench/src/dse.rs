//! `dse`: the full 224-point capacity-planning sweep and its Pareto
//! front, one sweep per unit.

use std::time::Instant;

use fred_dse::{
    load_checkpoint, pareto_front, run_sweep, write_checkpoint, ParetoFront, PointOutcome,
    PointRow, RunOpts, SweepSpec,
};

use crate::stats::Digest;
use crate::trace::{span, span_sites, Layer, Tracer};
use crate::{guarded, PassOut, Traced, Workload};

/// `SweepSpec::full()` reseeded per pass; one thread, set explicitly so
/// `FRED_THREADS` cannot change the run, and no checkpoint.
pub struct Dse {
    seed: u64,
    points: usize,
}

impl Dse {
    /// Enumerates the first pass's points.
    pub fn new(seed: u64, mut tr: Option<&mut Tracer>) -> Dse {
        let points = span(&mut tr, "dse.enumerate", Layer::DseRunner, 0, || {
            spec(seed, 0).enumerate().len()
        });
        Dse { seed, points }
    }
}

fn spec(seed: u64, pass: usize) -> SweepSpec {
    SweepSpec {
        seed: seed.wrapping_add(pass as u64),
        ..SweepSpec::full()
    }
}

fn sweep(spec: &SweepSpec, threads: usize) -> Result<Vec<PointRow>, String> {
    let opts = RunOpts {
        threads,
        ..RunOpts::default()
    };
    run_sweep(spec, &opts)
        .map(|o| o.rows)
        .map_err(|e| e.to_string())
}

/// Digest of every row's outcome and the front, after checking that
/// every point ran and the front accounts for every row.
fn digest(rows: &[PointRow], front: &ParetoFront, points: usize) -> Result<u64, String> {
    if rows.len() != points || front.errors > 0 {
        return Err(format!(
            "{} rows for {points} points, {} errors",
            rows.len(),
            front.errors
        ));
    }
    if front.front.len() + front.dominated + front.infeasible + front.errors != rows.len() {
        return Err(format!("front {front:?} does not account for every row"));
    }
    let mut d = Digest::default();
    for row in rows {
        match &row.outcome {
            PointOutcome::Metrics(m) => [
                m.makespan_secs,
                m.norm_makespan_secs,
                m.mean_stretch,
                m.p99_stretch,
                m.fairness,
                m.utilization,
                m.area_mm2,
                m.power_w,
                m.tco_dollars,
            ]
            .into_iter()
            .for_each(|x| d.f64(x)),
            PointOutcome::Infeasible { hub_gb_required } => d.f64(*hub_gb_required),
            PointOutcome::Error(e) => d.bytes(e.message.as_bytes()),
        }
    }
    front.front.iter().for_each(|&i| d.f64(i as f64));
    Ok(d.finish())
}

impl Workload for Dse {
    fn run_pass(
        &mut self,
        pass: usize,
        _deadline: Option<Instant>,
        mut tr: Option<&mut Tracer>,
        between: &mut dyn FnMut(),
    ) -> PassOut {
        let mut out = PassOut::default();
        let spec = spec(self.seed, pass);
        between();
        let t0 = Instant::now();
        let result = guarded(|| {
            let rows = span_sites(&mut tr, "dse.run_sweep", Layer::DseRunner, 0, || {
                sweep(&spec, 1)
            })?;
            let front = span(&mut tr, "pareto.front", Layer::Pareto, 0, || {
                pareto_front(&rows)
            });
            Ok::<_, String>((rows, front))
        });
        out.unit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let key = format!("p{pass}");
        match result.and_then(|(rows, front)| {
            if let Some(tr) = tr {
                tr.count("dse.points", rows.len() as f64);
                tr.count("dse.infeasible", front.infeasible as f64);
            }
            digest(&rows, &front, self.points)
        }) {
            Ok(d) => out.digests.push((key, d)),
            Err(why) => out.failures.push(format!("{key}: {why}")),
        }
        out
    }

    /// In the traced run: the same sweep at two threads gives the same
    /// rows (and its speed-up is recorded), and a checkpoint of the rows
    /// reads back unchanged (and its write and read times are recorded).
    fn checks(&mut self, traced: Option<Traced<'_>>) -> Vec<Result<(), String>> {
        let Some(Traced { tr, out }) = traced else {
            return Vec::new();
        };
        let spec = spec(self.seed, 0);
        let timed = |threads| {
            let t = Instant::now();
            let rows = sweep(&spec, threads);
            (t.elapsed().as_secs_f64(), rows)
        };
        let (t1, rows) = timed(1);
        let (t2, rows_t2) = timed(2);
        let Ok(rows) = rows else {
            return vec![rows.map(drop)];
        };
        tr.count("dse_runner.speedup_t2", t1 / t2);
        let threads = match rows_t2 {
            Ok(r) if r == rows => Ok(()),
            Ok(_) => Err("the sweep at 2 threads gave other rows than at 1".into()),
            Err(why) => Err(why),
        };
        let path = out.join("dse-checkpoint.bin");
        let t = Instant::now();
        let written = write_checkpoint(&spec, &rows, &path);
        tr.count("dse_runner.checkpoint_write_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let read = written.and_then(|()| load_checkpoint(&spec, &path));
        tr.count("dse_runner.checkpoint_read_s", t.elapsed().as_secs_f64());
        let checkpoint = match read {
            Ok(back) if back == rows => Ok(()),
            Ok(_) => Err("the checkpoint read back other rows".into()),
            Err(e) => Err(format!("checkpoint: {e}")),
        };
        vec![threads, checkpoint]
    }
}
