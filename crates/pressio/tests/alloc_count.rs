//! Allocation accounting for the slab frame decoder: a k-slab decode
//! allocates the output field once and decodes every slab into its rows of
//! it — no slab-sized `f32` buffer and no concatenation pass. Decoding the
//! k slabs as bare streams, each into its own vector, is the yardstick: the
//! frame may allocate no more than that.
//!
//! One test in this binary: the counter is process-wide, so that it sees the
//! decode's worker threads too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use arc_pressio::{decompress, CompressorSpec, Dataset};

struct CountingAlloc;

static MEASURING: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicUsize = AtomicUsize::new(0);
/// Sizes of the allocations of at least `BIG` bytes.
static BIG_SIZES: Mutex<Vec<usize>> = Mutex::new(Vec::new());
static BIG: AtomicUsize = AtomicUsize::new(usize::MAX);

fn note(size: usize) {
    if MEASURING.load(Ordering::SeqCst) {
        BYTES.fetch_add(size, Ordering::SeqCst);
        if size >= BIG.load(Ordering::SeqCst) {
            // `try_lock`: the push below may itself allocate, on this thread.
            if let Ok(mut sizes) = BIG_SIZES.try_lock() {
                sizes.push(size);
            }
        }
    }
}

// SAFETY: a pure forwarding allocator — every method delegates to `System`
// with unchanged arguments, so `System`'s allocation guarantees carry over;
// the side counters have no effect on the returned memory.
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
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr`/`layout` come from a prior `System` allocation and
        // `new_size` is forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Run `f`, returning its result, the bytes it allocated (on any thread)
/// and the sizes of its allocations of at least `big` bytes.
fn counted<R>(big: usize, f: impl FnOnce() -> R) -> (R, usize, Vec<usize>) {
    BYTES.store(0, Ordering::SeqCst);
    BIG.store(big, Ordering::SeqCst);
    BIG_SIZES.lock().unwrap().reserve(64);
    MEASURING.store(true, Ordering::SeqCst);
    let r = f();
    MEASURING.store(false, Ordering::SeqCst);
    let sizes = std::mem::take(&mut *BIG_SIZES.lock().unwrap());
    (r, BYTES.load(Ordering::SeqCst), sizes)
}

const DIMS: [usize; 3] = [64, 96, 80];
const ROWS: [usize; 4] = [16, 16, 16, 16];

fn field() -> Vec<f32> {
    (0..DIMS.iter().product::<usize>())
        .map(|i| {
            let x = i as f32;
            (x * 0.013).sin() * 9.0 + (x * 0.0009).cos() * 4.0 + (i % 7) as f32 * 1e-3
        })
        .collect()
}

/// Decode `frame` and, one by one, the `bare` streams of its slabs; hold the
/// frame decode to the output field once and to what its slabs cost alone.
fn frame_decode_allocates_no_slab_copy(name: &str, frame: &[u8], bare: &[Vec<u8>]) {
    let field_bytes = DIMS.iter().product::<usize>() * 4;
    let slab_bytes = field_bytes / ROWS.len();
    let (decoded, frame_bytes, big) = counted(slab_bytes, || decompress(frame, u64::MAX).unwrap());
    assert_eq!(decoded.dims, DIMS, "{name}");
    // The yardstick: each slab decoded alone, into a vector of its own.
    let (pieces, bare_bytes, _) = counted(usize::MAX, || {
        bare.iter().map(|s| decompress(s, u64::MAX).unwrap().data).collect::<Vec<_>>()
    });
    assert_eq!(decoded.data, pieces.concat(), "{name}: frame decode differs from its slabs");
    // One output field; a copy per slab would add `field_bytes` more.
    assert_eq!(big.iter().filter(|&&b| b >= field_bytes).count(), 1, "{name}: {big:?}");
    assert!(
        frame_bytes <= bare_bytes + (64 << 10),
        "{name}: frame decode allocated {frame_bytes} bytes, its slabs alone {bare_bytes}"
    );
}

#[test]
fn a_k_slab_decode_allocates_the_field_once_and_no_slab_copy() {
    let data = field();
    let ds = Dataset { data: &data, dims: &DIMS };
    let slabs: Vec<&[f32]> = data.chunks(data.len() / ROWS.len()).collect();
    let slab_dims = [ROWS[0], DIMS[1], DIMS[2]];

    let sz = CompressorSpec::SzAbs(1e-3);
    let cfg = arc_sz::SzConfig { bound: arc_sz::ErrorBound::Abs(1e-3), ..Default::default() };
    let bare: Vec<_> =
        slabs.iter().map(|s| arc_sz::compress(s, &slab_dims, &cfg).unwrap()).collect();
    frame_decode_allocates_no_slab_copy("sz-abs", &sz.compress_rows(&ds, &ROWS).unwrap(), &bare);

    let zfp = CompressorSpec::ZfpRate(8.0);
    let mode = arc_zfp::ZfpMode::FixedRate(8.0);
    let bare: Vec<_> =
        slabs.iter().map(|s| arc_zfp::compress(s, &slab_dims, mode).unwrap()).collect();
    let frame = zfp.compress_rows(&ds, &ROWS).unwrap();
    frame_decode_allocates_no_slab_copy("zfp-rate", &frame, &bare);
    // ZFP decodes with no heap scratch at all: the field is the only
    // allocation of a slab's size or more.
    let (_, _, big) =
        counted(data.len() * 4 / ROWS.len(), || decompress(&frame, u64::MAX).unwrap());
    assert_eq!(big, [data.len() * 4]);
}
