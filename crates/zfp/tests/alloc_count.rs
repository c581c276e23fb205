//! Allocation accounting for the block loops: `compress` and `decompress`
//! keep every per-block buffer on the stack, so the number of allocations
//! does not grow with the number of blocks (the output vector's doubling
//! aside).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use arc_zfp::{compress, decompress, ZfpMode};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on the test thread while a `counted` closure runs, so the
    /// libtest harness thread's own allocations are not counted.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

/// Count one allocation, if this thread is measuring. `try_with` because the
/// allocator also runs during TLS teardown.
fn note() {
    let _ = MEASURING.try_with(|m| {
        if m.get() {
            ALLOCS.fetch_add(1, Ordering::SeqCst);
        }
    });
}

// SAFETY: a pure forwarding allocator — every method delegates to `System`
// with unchanged arguments, so `System`'s allocation guarantees carry over;
// the side counter is an atomic with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: contract inherited from `GlobalAlloc::alloc`; discharged below
    // by forwarding to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller passed, under the same contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: contract inherited from `GlobalAlloc::alloc_zeroed`; discharged
    // below by forwarding to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller passed, under the same contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: contract inherited from `GlobalAlloc::dealloc`; discharged
    // below by forwarding to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by `System` in `alloc`/`alloc_zeroed`/
        // `realloc` above with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: contract inherited from `GlobalAlloc::realloc`; discharged
    // below by forwarding to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr`/`layout` come from a prior `System` allocation and
        // `new_size` is forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCS.load(Ordering::SeqCst);
    MEASURING.with(|m| m.set(true));
    let r = f();
    MEASURING.with(|m| m.set(false));
    (r, ALLOCS.load(Ordering::SeqCst) - before)
}

fn field(edge: usize) -> Vec<f32> {
    (0..edge * edge * edge)
        .map(|i| {
            let x = i as f32;
            (x * 0.013).sin() * 9.0 + (x * 0.0009).cos() * 4.0 + (i % 7) as f32 * 1e-3
        })
        .collect()
}

#[test]
fn block_loops_do_not_allocate_per_block() {
    for mode in [ZfpMode::FixedAccuracy(1e-3), ZfpMode::FixedRate(8.0)] {
        // 512 blocks against 4 096: eight times the blocks may add only the
        // three doublings of the payload vector.
        let mut runs = Vec::new();
        for edge in [32usize, 64] {
            let data = field(edge);
            let dims = [edge; 3];
            let (stream, c_allocs) = counted(|| compress(&data, &dims, mode).unwrap());
            let (decoded, d_allocs) = counted(|| decompress(&stream).unwrap());
            assert_eq!(decoded.data.len(), data.len());
            runs.push((c_allocs, d_allocs));
        }
        let [(c_small, d_small), (c_large, d_large)] = runs[..] else { unreachable!() };
        assert!(c_large <= c_small + 4, "{mode:?}: compress {c_small} -> {c_large} allocations");
        assert!(c_large < 48, "{mode:?}: compress made {c_large} allocations");
        assert_eq!(d_large, d_small, "{mode:?}: decompress allocations grew with the grid");
        assert!(d_large < 8, "{mode:?}: decompress made {d_large} allocations");
    }
}
