//! Heap-allocation budget of the simulator's steady state.
//!
//! A counting global allocator tallies this thread's allocations while a
//! warmed-up simulator commits a fixed number of instructions. Release
//! builds only: debug builds attach the scheduling oracle and slot
//! accounting to every simulator, and those observers allocate per event.
//! Run with `cargo test --release -p mos-sim --test alloc_budget`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mos_core::WakeupStyle;
use mos_sim::{MachineConfig, Simulator};
use mos_workload::spec2000;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System`; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const WARMUP: u64 = 50_000;
const MEASURED: u64 = 200_000;

/// Heap allocations per committed instruction after the warm-up.
fn allocs_per_commit(bench: &str, cfg: MachineConfig) -> f64 {
    let trace = spec2000::by_name(bench).expect("known bench").trace(42);
    let mut sim = Simulator::new(cfg, trace);
    let warm = sim.run(WARMUP).committed;
    let before = allocs();
    let end = sim.run(WARMUP + MEASURED).committed;
    (allocs() - before) as f64 / (end - warm) as f64
}

/// At most two heap allocations per commit on the loop-bound (gzip) and
/// memory-bound (mcf) models, with and without macro-op scheduling. What
/// remains is per-uop payload the pipeline hands on: each uop's list of
/// in-flight source tags, and the return-address-stack snapshot a branch
/// keeps for recovery.
#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds attach allocating observers")]
fn steady_state_stays_within_two_allocations_per_commit() {
    let mut report = Vec::new();
    for bench in ["gzip", "mcf"] {
        for (kind, cfg) in [
            ("base", MachineConfig::base_32()),
            (
                "mop-wor",
                MachineConfig::macro_op(WakeupStyle::WiredOr, Some(32), 1),
            ),
        ] {
            report.push((bench, kind, allocs_per_commit(bench, cfg)));
        }
    }
    for &(bench, kind, per) in &report {
        assert!(
            per <= 2.0,
            "{bench}/{kind}: {per:.2} allocations per commit; all: {report:?}"
        );
    }
}
