//! Counting-allocator proof of the zero-copy pipeline's allocation
//! contract: sequential `ParallelCodec::encode` makes exactly one heap
//! allocation (the returned container) and a clean sequential
//! `decode_in_place` makes none for the bit-oriented schemes and for the two
//! stock extension families (`ileave-rs`, `bch`), `ileave-rs` also over a
//! chunk of many batches of message groups.
//!
//! Everything lives in one `#[test]` so no sibling test can allocate
//! concurrently, and the counters only advance on the measuring thread
//! while a `counted` region is live — the libtest harness thread makes
//! small allocations of its own (capture plumbing, timeout bookkeeping) at
//! unpredictable moments, and a process-global count flakes on them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use arc_ecc::{Bch, EccConfig, EccScheme, Interleaved, ParallelCodec};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on the test thread while a `counted` closure runs. The codec
    /// paths under measurement are sequential (1 thread), so scoping the
    /// count to this thread loses nothing.
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
fn sequential_pipeline_allocation_contract() {
    let data: Vec<u8> = (0..200_000).map(|i| ((i * 31) ^ (i >> 6)) as u8).collect();
    let chunk = 64 * 1024;

    let bit_schemes =
        [EccConfig::parity(8).unwrap(), EccConfig::hamming(true), EccConfig::secded(true)];

    // Warm up every scheme's lazily-initialized lookup tables (Hamming /
    // SEC-DED layouts live in OnceLocks) so the counters below only see
    // steady-state behaviour.
    for cfg in bit_schemes.iter().copied().chain([EccConfig::rs(16, 4).unwrap()]) {
        let codec = ParallelCodec::with_chunk_size(cfg, 1, chunk).unwrap();
        let warm = codec.encode(&data[..4096]);
        codec.decode(&warm, 4096).unwrap();
    }

    // Encode: exactly one allocation — the container itself.
    for cfg in bit_schemes.iter().copied().chain([EccConfig::rs(16, 4).unwrap()]) {
        let codec = ParallelCodec::with_chunk_size(cfg, 1, chunk).unwrap();
        let (encoded, allocs, bytes) = counted(|| codec.encode(&data));
        assert_eq!(allocs, 1, "{cfg}: encode must allocate only the container");
        assert_eq!(bytes, encoded.len(), "{cfg}: the single allocation is the container");
        drop(encoded);
    }

    // Clean decode_in_place: zero allocations for the bit-oriented schemes.
    for cfg in bit_schemes {
        let codec = ParallelCodec::with_chunk_size(cfg, 1, chunk).unwrap();
        let mut encoded = codec.encode(&data);
        let ((), allocs, _) = counted(|| {
            let report = codec.decode_in_place(&mut encoded, data.len()).unwrap();
            assert!(report.is_clean());
        });
        assert_eq!(allocs, 0, "{cfg}: clean in-place decode must not allocate");
        assert_eq!(&encoded[..data.len()], &data[..]);
    }

    {
        // The codeword families: the LFSR registers and the strip of lane
        // state live on the stack, and no `Poly` is built unless a codeword's
        // remainder disagrees. 199 999 bytes leave `ileave-rs` a ragged last
        // chunk, so the one-lane-at-a-time tail is under the count too.
        let data = &data[..199_999];
        let families: [(&str, Arc<dyn EccScheme>); 2] = [
            ("ileave-rs", Arc::new(Interleaved::new(32, 64).unwrap())),
            ("bch", Arc::new(Bch::new(2).unwrap())),
        ];
        for (name, scheme) in families {
            let codec = ParallelCodec::with_chunk_size(scheme, 1, chunk).unwrap();
            let warm = codec.encode(&data[..4096]);
            codec.decode(&warm, 4096).unwrap();
            let (mut encoded, allocs, bytes) = counted(|| codec.encode(data));
            assert_eq!(
                (allocs, bytes),
                (1, encoded.len()),
                "{name}: encode allocates the container"
            );
            let ((), allocs, _) = counted(|| {
                let report = codec.decode_in_place(&mut encoded, data.len()).unwrap();
                assert!(report.is_clean());
            });
            assert_eq!(allocs, 0, "{name}: clean in-place decode must not allocate");
            assert_eq!(&encoded[..data.len()], data);
        }

        // One 1 MiB + 1 byte chunk: 73 full message groups, so several
        // batches of groups through the lane kernel, then a ragged tail.
        let data: Vec<u8> = (0..(1 << 20) + 1).map(|i| ((i * 29) ^ (i >> 7)) as u8).collect();
        let scheme: Arc<dyn EccScheme> = Arc::new(Interleaved::new(32, 64).unwrap());
        let codec = ParallelCodec::with_chunk_size(scheme, 1, data.len()).unwrap();
        let mut encoded = codec.encode(&data);
        let ((), allocs, _) = counted(|| {
            let report = codec.decode_in_place(&mut encoded, data.len()).unwrap();
            assert!(report.is_clean());
        });
        assert_eq!(allocs, 0, "ileave-rs: clean in-place decode across batches must not allocate");
        assert_eq!(&encoded[..data.len()], &data[..]);
    }

    // RS's verify path keeps small per-chunk device lists; in-place decode
    // must stay far below a full-buffer copy.
    let rs = ParallelCodec::with_chunk_size(EccConfig::rs(16, 4).unwrap(), 1, chunk).unwrap();
    let mut encoded = rs.encode(&data);
    let ((), _, bytes) = counted(|| {
        rs.decode_in_place(&mut encoded, data.len()).unwrap();
    });
    assert!(bytes < 4096, "rs clean decode allocated {bytes} bytes");

    // The borrowing decode wrapper pays exactly one payload-sized copy.
    let codec = ParallelCodec::with_chunk_size(EccConfig::secded(true), 1, chunk).unwrap();
    let encoded = codec.encode(&data);
    let ((out, _), allocs, bytes) = counted(|| codec.decode(&encoded, data.len()).unwrap());
    assert_eq!(out, data);
    assert_eq!(allocs, 1, "borrowing decode must copy the payload exactly once");
    assert_eq!(bytes, encoded.len());
}
