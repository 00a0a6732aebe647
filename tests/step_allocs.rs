//! Heap-allocation budget of one training step: the tiny model's
//! `Trainer::train_step`, warm, counted on the calling thread.
//!
//! Tensor shapes, strides and per-op layout temporaries live on the stack,
//! parameter names are joined from parts in one reused buffer (only the
//! indexed block prefixes are formatted per forward) and the tape is built
//! at the previous step's size, so a step allocates little beyond its
//! tensors' data buffers. A change that puts per-op metadata back on the heap adds
//! thousands of allocations a step and fails here.

use scalefold::{Trainer, TrainerConfig};
use sf_data::featurize::featurize;
use sf_data::SyntheticDataset;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made on this thread while running `f`.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Allocations of the warm step below, as measured (the same step made
/// 12,178 before shapes moved off the heap, 3,960 while attention offsets
/// were per-call vectors and Q/K/V/gate one stacked projection, and 3,257
/// while every layer formatted its module and parameter names).
const MEASURED: usize = 2_760;
/// Room for small unrelated changes: 10%.
const HEADROOM: usize = 276;

#[test]
fn warm_tiny_step_stays_within_its_allocation_budget() {
    // One compute thread: every allocation of the step lands on this one.
    sf_tensor::pool::set_num_threads(1);
    let cfg = TrainerConfig::tiny();
    let ds = SyntheticDataset::new(cfg.seed, 3);
    let batches: Vec<_> = (0..3)
        .map(|i| featurize(&ds.record(i), &cfg.model, cfg.seed ^ i as u64))
        .collect();
    let mut trainer = Trainer::new(cfg);
    trainer.train_step(&batches[0]);
    trainer.train_step(&batches[1]);
    let (n, report) = allocs_in(|| trainer.train_step(&batches[2]));
    assert!(!report.skipped && report.loss.is_finite());
    assert!(
        n <= MEASURED + HEADROOM,
        "a warm tiny step made {n} allocations, budget {MEASURED} + {HEADROOM}"
    );
}
