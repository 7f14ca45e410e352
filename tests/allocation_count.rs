//! The host cost of a flow: one training iteration's exact heap
//! allocation count, bounded by the flows it injects.
//!
//! Each route is allocated once, when its plan is compiled, and shared
//! from the plan through the injected flow to the solver; the solver
//! keeps its per-solve work lists; the executor keeps its staged-flow
//! buffer; a schedule's clone shares its task graph, and the network
//! shares the fabric's topology. The network queues drains and tail
//! notices by instant, reusing emptied buckets, and keeps its
//! completion buffer across calls. So an iteration that injects 168k
//! flows allocates about a thousand and a half times, not twice per
//! flow.
//!
//! The file holds one test, so it gets a test binary of its own whose
//! global allocator is the counting one below. It counts per thread, so
//! the test harness's other threads cannot skew the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fred::core::params::FabricConfig;
use fred::core::placement::{Placement, PlacementPolicy};
use fred::workloads::backend::FabricBackend;
use fred::workloads::model::DnnModel;
use fred::workloads::schedule::{build_schedule, ScheduleParams, TaskBody};
use fred::workloads::trainer::run_iteration;

thread_local! {
    /// Allocator calls (allocations and reallocations) on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting every call that hands out memory.
struct Counting;

fn count() {
    // A thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a `const`-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Transformer-1T on Fred-D under the paper's schedule: its weight
/// streaming injects 168,498 flows per iteration, most over routes of
/// one or two links.
#[test]
fn an_iteration_allocates_less_than_once_per_sixty_four_injected_flows() {
    let model = DnnModel::transformer_1t();
    let strategy = model.default_strategy;
    let fabric = FabricConfig::FredD;
    let backend = FabricBackend::new(fabric);
    let placement = Placement::new(strategy, PlacementPolicy::for_fabric(fabric));
    let params = ScheduleParams::paper_default(&model, strategy);
    let schedule = build_schedule(&model, strategy, &placement, &backend, params);
    let flows: u64 = schedule
        .tasks
        .iter()
        .map(|t| match &t.body {
            TaskBody::Comm { plan, .. } => {
                plan.phases.iter().map(|p| p.transfers.len() as u64).sum()
            }
            TaskBody::Compute { .. } => 0,
        })
        .sum();
    let run = || {
        allocations_of(|| {
            run_iteration(&schedule, &backend).expect("the iteration runs");
        })
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "two runs of one iteration allocate alike");
    assert!(
        first * 64 < flows,
        "{first} allocations for {flows} injected flows: one per {:.1}",
        flows as f64 / first as f64
    );
}
