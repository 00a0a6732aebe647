//! Counts heap allocations on the parameter-binding path: looking up an
//! existing parameter allocates nothing, and binding one into the tape
//! allocates only the leaf's copy of the tensor.
//!
//! The counter is per thread, so the harness's other threads do not
//! disturb it.

use sf_autograd::{Graph, ParamStore};
use sf_tensor::Tensor;
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

const NAME: &str = "evoformer.block0.msa_row_attn.linear_q.weight";

fn filled_store() -> ParamStore {
    let mut store = ParamStore::new();
    for i in 0..40 {
        store.insert(format!("param.{i:02}.weight"), Tensor::ones(&[3, 5]));
    }
    store.insert(NAME, Tensor::ones(&[4, 6]));
    store
}

#[test]
fn store_hit_allocates_nothing() {
    let mut store = filled_store();
    let (n, slot) = allocs_in(|| store.slot_or_init(NAME, || panic!("no init on a hit")));
    assert_eq!(n, 0, "slot_or_init hit");
    let (n, found) = allocs_in(|| store.slot(NAME));
    assert_eq!((n, found), (0, Some(slot)), "slot lookup");
}

#[test]
fn binding_an_existing_name_allocates_only_the_leaf() {
    let mut store = filled_store();
    let (leaf, _) = allocs_in(|| store.get(NAME).expect("present").clone());
    assert!(leaf > 0, "a tensor copy allocates");
    let mut g = Graph::new();
    // Five binds grow the tape's vectors to capacity 8, so the sixth
    // measures the bind alone.
    for _ in 0..5 {
        g.use_param_or_init(&mut store, NAME, || panic!("no init on a hit"));
    }
    let (n, _) = allocs_in(|| g.use_param_or_init(&mut store, NAME, || panic!("no init on a hit")));
    assert_eq!(n, leaf, "use_param_or_init");
}
