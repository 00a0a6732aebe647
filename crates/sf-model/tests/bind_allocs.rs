//! Counts heap allocations of a warm `bind_linear`: binding a layer whose
//! parameters exist allocates only the leaves' copies of its weight and
//! bias, and formats no parameter name however many parts it has.
//!
//! The counter is per thread, so the harness's other threads do not
//! disturb it.

use sf_autograd::{Graph, ParamStore};
use sf_model::linear::bind_linear;
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

/// A four-part layer name, as a module inside an indexed block passes it.
const PREFIX: [&str; 3] = ["evoformer", "block0", "msa_transition"];
const LAYER: &str = "fc1";

#[test]
fn warm_linear_bind_allocates_only_its_leaves() {
    let mut store = ParamStore::new();
    let mut g = Graph::new();
    // Three binds create the parameters and grow the tape's vectors to
    // capacity 8 (two entries per bind), so the fourth measures the bind
    // alone.
    for _ in 0..3 {
        bind_linear(&mut g, &mut store, &PREFIX, LAYER, 6, 8);
    }
    assert_eq!(
        store.names(),
        [
            "evoformer.block0.msa_transition.fc1.bias",
            "evoformer.block0.msa_transition.fc1.weight"
        ]
    );
    let leaf = |name: &str| {
        let value = store.get(name).expect("bound").clone();
        allocs_in(|| value.clone()).0
    };
    let leaves: usize = store.names().iter().map(|name| leaf(name)).sum();
    assert_eq!(leaves, 2, "a tensor copy is one allocation");
    let (n, _) = allocs_in(|| bind_linear(&mut g, &mut store, &PREFIX, LAYER, 6, 8));
    assert_eq!(
        n, leaves,
        "a warm bind allocates its two leaves and no name"
    );
}
