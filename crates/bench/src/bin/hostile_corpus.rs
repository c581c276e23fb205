//! `hostile_corpus` — the full hostile-input sweep with allocation
//! accounting.
//!
//! Runs every mutation family of [`arc_faultsim::hostile`] against every
//! workspace decoder at the default (full-size) configuration, and layers
//! one extra invariant on top of the harness's panic/timeout/output-budget
//! checks: no single case may **allocate** more than [`ALLOC_BUDGET`]
//! bytes, however it returns. A decoder that politely errors *after*
//! reserving a 2 GiB buffer for a corrupt length field still fails here.
//!
//! Exit status is non-zero when any case violates the totality contract;
//! each violation is printed with its `(target, stream, case)` triple and
//! the sweep seed, which together reproduce the exact corrupt buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use arc_faultsim::hostile::{builtin_targets, mutations, run_case, HostileConfig};
use arc_faultsim::ReturnStatus;

struct CountingAlloc;

static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: a pure forwarding allocator — every method delegates to `System`
// with unchanged arguments, so `System`'s allocation guarantees carry over;
// the side counter is an atomic with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: contract inherited from `GlobalAlloc::alloc`; discharged below
    // by forwarding to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::SeqCst);
        // SAFETY: same layout the caller passed, under the same contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: contract inherited from `GlobalAlloc::alloc_zeroed`; discharged
    // below by forwarding to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::SeqCst);
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
        BYTES.fetch_add(new_size, Ordering::SeqCst);
        // SAFETY: `ptr`/`layout` come from a prior `System` allocation and
        // `new_size` is forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Per-case allocation ceiling. Deliberately generous — the worker copies
/// the case buffer and may legitimately produce up to the 32 MiB output
/// budget plus codec scratch — but far below what an unchecked hostile
/// length field (up to 2^31 and beyond) would demand.
const ALLOC_BUDGET: usize = 256 << 20;

fn main() {
    // Panicking cases are expected to be *caught and classified* by the
    // harness; silence the default hook so a failure sweep stays readable.
    std::panic::set_hook(Box::new(|_| {}));

    let cfg = HostileConfig::default();
    let targets = builtin_targets();

    let mut cases = 0usize;
    let mut rejected = 0usize;
    let mut completed = 0usize;
    let mut worst = Duration::ZERO;
    let mut worst_alloc = 0usize;
    let mut failures: Vec<String> = Vec::new();

    for target in &targets {
        for stream in &target.streams {
            for (case, buf) in mutations(stream, &cfg) {
                let bytes0 = BYTES.load(Ordering::SeqCst);
                let (status, detail, elapsed) = run_case(&target.decode, &buf, &cfg);
                let allocated = BYTES.load(Ordering::SeqCst).saturating_sub(bytes0);
                cases += 1;
                worst = worst.max(elapsed);
                worst_alloc = worst_alloc.max(allocated);
                let id = format!("{}/{}/{}", target.name, stream.name, case);
                match status {
                    ReturnStatus::CompressorException => rejected += 1,
                    ReturnStatus::Completed => completed += 1,
                    _ => {
                        failures.push(format!("{id}: {}: {detail}", status.label()));
                        continue;
                    }
                }
                if allocated > ALLOC_BUDGET {
                    failures
                        .push(format!("{id}: allocated {allocated} bytes (budget {ALLOC_BUDGET})"));
                }
            }
        }
    }

    let _ = std::panic::take_hook();
    println!(
        "hostile_corpus: {cases} cases over {} targets (seed {:#x}): \
         {rejected} rejected, {completed} completed, {} violations",
        targets.len(),
        cfg.seed,
        failures.len()
    );
    println!(
        "  worst case {worst:?}, peak per-case allocation {:.1} MiB",
        worst_alloc as f64 / (1024.0 * 1024.0)
    );
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL {f}");
        }
        std::process::exit(1);
    }
}
