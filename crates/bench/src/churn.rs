//! Randomized flow-churn workload over a wafer-scale mesh.
//!
//! The solver-bound stress of the `scaling` binary's churn sweep and
//! profiler-overhead check: a fixed population of mostly-local transfers
//! is kept at a target concurrency over an N×N mesh, so every
//! completion immediately admits a replacement. Each completion and
//! each injection changes the active-flow set, making the fair-share
//! allocator — not flow arithmetic — the dominant cost. Traffic is
//! local (bounded Chebyshev distance), so rate changes stay confined
//! to a small neighbourhood of the fabric; this is the regime where an
//! incremental solver beats from-scratch progressive filling.
//!
//! All randomness comes from [`fred_sim::rng::Rng64`], so a (config,
//! seed) pair is a fully deterministic workload: makespan and the
//! completion-time checksum are exact regression surfaces, while the
//! wall clock and events/s measure simulator throughput.

use std::time::Instant;

use fred_mesh::topology::MeshFabric;
use fred_sim::flow::{FlowSpec, Priority};
use fred_sim::netsim::FlowNetwork;
use fred_sim::rng::Rng64;

/// One churn configuration.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Mesh side (NPUs = side × side).
    pub side: usize,
    /// Total flows pushed through the network.
    pub flows: usize,
    /// Target number of concurrently active flows.
    pub concurrency: usize,
    /// Maximum Chebyshev distance between a flow's endpoints.
    pub locality: usize,
    /// RNG seed; equal seeds give identical workloads.
    pub seed: u64,
}

impl ChurnConfig {
    /// NPUs in the mesh.
    pub fn npus(&self) -> usize {
        self.side * self.side
    }
}

/// Deterministic results plus throughput measurements of one churn run.
#[derive(Debug, Clone, Copy)]
pub struct ChurnResult {
    /// Simulated end-to-end time (deterministic).
    pub makespan_secs: f64,
    /// Sum of all completion times (deterministic; a cheap whole-run
    /// checksum for `bench-diff`).
    pub completion_checksum: f64,
    /// Flow lifecycle events processed: injections + drains +
    /// completions (deterministic).
    pub events: u64,
    /// Wall-clock seconds the simulation took.
    pub wall_secs: f64,
}

impl ChurnResult {
    /// Lifecycle events per wall-clock second — the simulator
    /// throughput headline.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(f64::MIN_POSITIVE)
    }
}

/// Draws the next transfer: a source NPU and a destination within
/// `locality` Chebyshev distance (never equal to the source), with a
/// payload in [1, 17) MB and a priority cycling over MP/DP/Bulk.
fn draw_flow(mesh: &MeshFabric, cfg: &ChurnConfig, rng: &mut Rng64, seq: usize) -> FlowSpec {
    let side = cfg.side;
    let src = rng.gen_range(0, side * side);
    let (sx, sy) = mesh.coords(src);
    let reach = cfg.locality.max(1);
    let dst = loop {
        let dx = rng.gen_range_inclusive(0, 2 * reach) as isize - reach as isize;
        let dy = rng.gen_range_inclusive(0, 2 * reach) as isize - reach as isize;
        let x = (sx as isize + dx).clamp(0, side as isize - 1) as usize;
        let y = (sy as isize + dy).clamp(0, side as isize - 1) as usize;
        let d = mesh.npu_at(x, y);
        if d != src {
            break d;
        }
    };
    let bytes = 1e6 + rng.gen_f64() * 16e6;
    let priority = match seq % 3 {
        0 => Priority::Mp,
        1 => Priority::Dp,
        _ => Priority::Bulk,
    };
    FlowSpec::new(mesh.xy_route(src, dst), bytes).with_priority(priority)
}

/// Runs one churn configuration to completion on a fresh mesh network.
///
/// # Panics
///
/// Panics if the simulation stalls (an engine bug, not a workload
/// property).
pub fn run_churn(cfg: &ChurnConfig) -> ChurnResult {
    let mesh = MeshFabric::new(cfg.side, cfg.side, 750e9, 128e9, 20e-9);
    let mut rng = Rng64::seed_from_u64(cfg.seed);
    let mut net = FlowNetwork::new(mesh.clone_topology());

    let started = Instant::now();
    let initial = cfg.concurrency.min(cfg.flows);
    let mut drawn = 0usize;
    // One buffer for every batch: injection drains it.
    let mut batch: Vec<FlowSpec> = (0..initial)
        .map(|_| {
            drawn += 1;
            draw_flow(&mesh, cfg, &mut rng, drawn - 1)
        })
        .collect();
    net.inject_batch(&mut batch)
        .expect("churn draws XY routes on a healthy mesh; injection cannot fail");

    let mut completed = 0usize;
    let mut checksum = 0.0_f64;
    while completed < cfg.flows {
        let te = net
            .next_event()
            .expect("churn stalled: flows outstanding but no pending event");
        net.advance_to(te);
        let done = net.drain_completed();
        if done.is_empty() {
            continue;
        }
        completed += done.len();
        for c in &done {
            checksum += c.completed_at.as_secs();
        }
        // Refill to the target concurrency, one batch per timestep.
        let refill = done.len().min(cfg.flows - drawn);
        if refill > 0 {
            batch.extend((0..refill).map(|_| {
                drawn += 1;
                draw_flow(&mesh, cfg, &mut rng, drawn - 1)
            }));
            net.inject_batch(&mut batch)
                .expect("churn draws XY routes on a healthy mesh; injection cannot fail");
        }
    }
    ChurnResult {
        makespan_secs: net.now().as_secs(),
        completion_checksum: checksum,
        // inject + drain + complete per flow.
        events: 3 * cfg.flows as u64,
        wall_secs: started.elapsed().as_secs_f64(),
    }
}

/// The `scaling` binary's churn sweep: 256 / 1 024 / 4 096 NPUs, the
/// largest being the acceptance gate for solver throughput.
pub const SCALING_SWEEP: [ChurnConfig; 3] = [
    ChurnConfig {
        side: 16,
        flows: 2048,
        concurrency: 128,
        locality: 4,
        seed: 0xC0FF_EE01,
    },
    ChurnConfig {
        side: 32,
        flows: 6144,
        concurrency: 256,
        locality: 4,
        seed: 0xC0FF_EE02,
    },
    ChurnConfig {
        side: 64,
        flows: 12288,
        concurrency: 256,
        locality: 4,
        seed: 0xC0FF_EE03,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChurnConfig {
        ChurnConfig {
            side: 4,
            flows: 64,
            concurrency: 16,
            locality: 2,
            seed: 7,
        }
    }

    #[test]
    fn churn_is_deterministic() {
        let a = run_churn(&tiny());
        let b = run_churn(&tiny());
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.completion_checksum, b.completion_checksum);
        assert_eq!(a.events, b.events);
        assert!(a.makespan_secs > 0.0);
    }

    #[test]
    fn churn_completes_every_flow() {
        let cfg = tiny();
        let r = run_churn(&cfg);
        assert_eq!(r.events, 3 * cfg.flows as u64);
        assert!(r.events_per_sec() > 0.0);
    }
}
