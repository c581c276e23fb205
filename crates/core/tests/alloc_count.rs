//! Engine-level allocation accounting: the container encode path allocates
//! one full-size buffer plus a small constant (header scratch), and the
//! borrowing decode one payload-sized copy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use arc_core::container::unpack;
use arc_core::engine::{arc_engine_decode, arc_engine_encode, arc_engine_encode_sharded};
use arc_core::{ArcContext, ArcOptions, TrainingOptions};
use arc_ecc::EccConfig;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on the test thread while a `counted` closure runs — the libtest
    /// harness thread allocates on its own schedule (capture plumbing,
    /// timeout bookkeeping), and a process-global count flakes on it. The
    /// paths under measurement here are sequential (1 thread), so scoping
    /// the count to this thread loses nothing.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

/// Count one allocation of `size` bytes, if this thread is measuring.
/// `try_with` because the allocator also runs during TLS teardown.
fn note(size: usize) {
    let _ = MEASURING.try_with(|m| {
        if m.get() {
            ALLOCS.fetch_add(1, Ordering::SeqCst);
            BYTES.fetch_add(size, Ordering::SeqCst);
        }
    });
}

// SAFETY: a pure forwarding allocator — every method delegates to `System`
// with unchanged arguments, so `System`'s allocation guarantees carry over;
// the side counters are atomics with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: contract inherited from `GlobalAlloc::alloc`; discharged below
    // by forwarding to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller passed, under the same contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: contract inherited from `GlobalAlloc::alloc_zeroed`; discharged
    // below by forwarding to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
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
        note(new_size);
        // SAFETY: `ptr`/`layout` come from a prior `System` allocation and
        // `new_size` is forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn counted<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    let allocs0 = ALLOCS.load(Ordering::SeqCst);
    let bytes0 = BYTES.load(Ordering::SeqCst);
    MEASURING.with(|m| m.set(true));
    let r = f();
    MEASURING.with(|m| m.set(false));
    (r, ALLOCS.load(Ordering::SeqCst) - allocs0, BYTES.load(Ordering::SeqCst) - bytes0)
}

#[test]
fn engine_container_path_allocation_bounds() {
    // 2.5 MiB → three chunks at the default 1 MiB chunk size, so any
    // per-chunk allocation or concat pass would show up as extra
    // buffer-scale bytes.
    let data: Vec<u8> = (0..2_621_440).map(|i| ((i * 131) ^ (i >> 7)) as u8).collect();
    let cfg = EccConfig::secded(true);

    // Warm lazily-initialized code tables (Hamming layouts, header RS).
    let warm = arc_engine_encode(&data[..4096], cfg, 1).unwrap();
    arc_engine_decode(&warm, 1).unwrap();

    // Encode: one container allocation plus small header scratch.
    let (encoded, allocs, bytes) = counted(|| arc_engine_encode(&data, cfg, 1).unwrap());
    assert!(
        bytes < encoded.len() + 8192,
        "encode allocated {bytes} bytes for a {} byte container — more than one full buffer",
        encoded.len()
    );
    // Header serialization + duplicated RS header coding costs a constant
    // number of small allocations; the chunk loop itself contributes none.
    assert!(allocs < 128, "encode made {allocs} allocations — expected a small constant");

    // The borrowing decode pays one payload-sized copy and nothing else
    // buffer-scale.
    let ((out, _), _, bytes) = counted(|| arc_engine_decode(&encoded, 1).unwrap());
    assert_eq!(out, data);
    assert!(
        bytes < encoded.len() + 8192,
        "borrowing decode allocated {bytes} bytes for a {} byte container",
        encoded.len()
    );

    // The one-shot v2 wrapper is one push through the streaming encoder
    // into an exactly-sized sink.
    let shard_size = 256 << 10;
    drop(arc_engine_encode_sharded(&data[..4096], cfg, 1, shard_size).unwrap());
    let (sharded, _, bytes) =
        counted(|| arc_engine_encode_sharded(&data, cfg, 1, shard_size).unwrap());
    assert_one_shot_v2_bound(&sharded, bytes);
    assert_eq!(arc_engine_decode(&sharded, 1).unwrap().0, data);

    // `arc_encode` is the same one-shot v2 encode, at the default shard size;
    // its throughput feedback into the training table is a constant.
    let ctx = ArcContext::init(ArcOptions {
        max_threads: 1,
        cache_path: None,
        training: TrainingOptions {
            sample_bytes: 32 << 10,
            rs_sample_bytes: 16 << 10,
            space: vec![cfg],
        },
    })
    .unwrap();
    drop(ctx.encode_with(&data[..4096], cfg, 1).unwrap());
    let (protected, _, bytes) = counted(|| ctx.encode_with(&data, cfg, 1).unwrap());
    assert_one_shot_v2_bound(&protected, bytes);
    assert_eq!(arc_engine_decode(&protected, 1).unwrap().0, data);
}

/// A one-shot v2 encode at one thread allocates the container, the
/// encoder's staging and output buffers ((threads + 1) encoded shards
/// covers both), the index and header scratch. A sink that grew would
/// allocate twice that.
fn assert_one_shot_v2_bound(container: &Vec<u8>, bytes: usize) {
    let (encoded_shard, index_len) = {
        let u = unpack(container).unwrap();
        (u.index.unwrap().entries[0].encoded_len, u.meta.sharding.unwrap().index_len)
    };
    let threads = 1;
    assert!(
        bytes < container.len() + (threads + 1) * encoded_shard + index_len + 8192,
        "one-shot v2 encode allocated {bytes} bytes for a {} byte container",
        container.len()
    );
    assert_eq!(container.capacity(), container.len(), "sink was not reserved to the exact length");
}
