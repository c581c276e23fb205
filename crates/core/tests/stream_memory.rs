//! Streaming-encoder scheduling guarantees: output bytes are a pure
//! function of the input (identical across thread counts) and — via a
//! peak-live-bytes counting allocator — peak memory during a streaming
//! encode is O(threads × shard), independent of input size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

use arc_core::stream::{StreamEncoder, StreamOptions, StreamSink};
use arc_core::{arc_engine_encode_sharded, ArcError};
use arc_ecc::EccConfig;

/// Live heap bytes across the whole process (alloc adds, dealloc
/// subtracts) and the high-water mark. A process-global count is the
/// honest RSS proxy here: the encoder's scoped worker threads are part of
/// its footprint, so they must not be exempt.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

struct PeakAlloc;

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size as isize, Ordering::SeqCst) + size as isize;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size as isize, Ordering::SeqCst);
}

// SAFETY: a pure forwarding allocator — every method delegates to `System`
// with unchanged arguments, so `System`'s allocation guarantees carry over;
// the side counters are atomics with no effect on the returned memory.
unsafe impl GlobalAlloc for PeakAlloc {
    // SAFETY: contract inherited from `GlobalAlloc::alloc`; discharged below
    // by forwarding to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout the caller passed, under the same contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: contract inherited from `GlobalAlloc::alloc_zeroed`; discharged
    // below by forwarding to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout the caller passed, under the same contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: contract inherited from `GlobalAlloc::dealloc`; discharged
    // below by forwarding to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        // SAFETY: `ptr` was produced by `System` in `alloc`/`alloc_zeroed`/
        // `realloc` above with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: contract inherited from `GlobalAlloc::realloc`; discharged
    // below by forwarding to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_dealloc(layout.size());
        on_alloc(new_size);
        // SAFETY: `ptr`/`layout` come from a prior `System` allocation and
        // `new_size` is forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: PeakAlloc = PeakAlloc;

/// The two tests share the process-global counters: serialize them.
static SERIAL: Mutex<()> = Mutex::new(());

/// Run `f` and return its result plus the peak heap growth (bytes above
/// the live level at entry) observed anywhere in the process while it ran.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let live0 = LIVE.load(Ordering::SeqCst);
    PEAK.store(live0, Ordering::SeqCst);
    let r = f();
    let peak = PEAK.load(Ordering::SeqCst) - live0;
    (r, peak.max(0) as usize)
}

/// Byte sink that discards payload bytes, so the measured footprint is the
/// encoder's own buffering — the sink models a network socket or file.
struct NullSink {
    high_water: usize,
}

impl StreamSink for NullSink {
    fn write_at(&mut self, offset: usize, bytes: &[u8]) -> Result<(), ArcError> {
        self.high_water = self.high_water.max(offset + bytes.len());
        Ok(())
    }
}

fn payload(len: usize) -> Vec<u8> {
    // xorshift-ish fill: cheap, incompressible-looking, deterministic.
    let mut x = 0x9E37_79B9u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

/// Streaming output is byte-identical across 1, 2 and 8 threads, and the
/// stats report the resolved thread count.
#[test]
fn output_is_deterministic_across_threads() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let data = payload(6 << 20);
    let shard_size = 512 << 10;
    let shards = data.len().div_ceil(shard_size);
    let config = EccConfig::secded(true);
    let reference = arc_engine_encode_sharded(&data, config, 1, shard_size).unwrap();
    for threads in [1usize, 2, 8] {
        let opts = StreamOptions { threads, shard_size };
        let mut enc = StreamEncoder::new(Vec::new(), config, opts).unwrap();
        for piece in data.chunks(100_003) {
            enc.push(piece).unwrap();
        }
        let (got, stats) = enc.finish().unwrap();
        assert_eq!(got, reference, "threads={threads}");
        assert_eq!((stats.shards, stats.workers), (shards, threads));
    }
}

/// Peak allocation during a streaming encode of a 64 MiB input is bounded
/// by the group geometry — a small multiple of (threads × encoded shard) —
/// and nowhere near the input (or container) size the one-shot path
/// needs. This is the bounded-memory contract of DESIGN.md §14. At two
/// threads each group of two shards is one chunk pass on two workers, so
/// the bound holds with the chunk workers running.
#[test]
fn peak_memory_is_threads_by_shard_not_input_sized() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let input_len = 64 << 20;
    let shard_size = 4 << 20;
    let config = EccConfig::secded(true);
    let data = payload(input_len);
    let opts = StreamOptions { threads: 2, shard_size };

    // Warm lazily-initialized code tables so they don't count.
    drop(arc_engine_encode_sharded(&data[..1 << 20], config, 1, shard_size).unwrap());

    let (result, peak) = peak_during(|| {
        let sink = NullSink { high_water: 0 };
        let mut enc = StreamEncoder::new(sink, config, opts)?;
        for piece in data.chunks(1 << 20) {
            enc.push(piece)?;
        }
        enc.finish()
    });
    let (sink, stats) = result.unwrap();
    assert_eq!(stats.data_len, input_len);
    assert_eq!(sink.high_water, stats.container_len, "container fully written");
    let workers = stats.workers;
    assert_eq!(workers, 2);

    // Budget: the encoder's two buffers, one group of plaintext shards
    // staged and one group of encoded shards, plus slack for the
    // index/entries/job lists. For 2 threads, shard=4 MiB, SEC-DED(64)
    // encoded = 4.5 MiB this is 18 MiB vs the 64 MiB input and ~72 MiB
    // container.
    let encoded_shard = shard_size + shard_size / 8;
    let budget = workers * (shard_size + encoded_shard) + (1 << 20);
    assert!(
        peak <= budget,
        "peak live bytes {peak} exceed group budget {budget} (threads={workers}, shard={shard_size})"
    );
    assert!(
        peak < input_len / 2,
        "peak live bytes {peak} should be far below the {input_len}-byte input"
    );
}
