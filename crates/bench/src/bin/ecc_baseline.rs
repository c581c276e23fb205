//! Record the `ecc_throughput` baseline into `BENCH_ecc.json`.
//!
//! Measures encode (`encode_into`), clean in-place decode
//! (`decode_in_place`), and decode with correctable corruption for every
//! built-in scheme across a thread sweep of {1, 2, max}
//! (`available_parallelism`, recorded as `max_threads`; duplicate points
//! are collapsed), then prints a JSON document (hand-rolled — the repo
//! takes no serde dependency). Each row carries `effective_workers` (the
//! worker count after the bytes-per-thread floor of DESIGN.md §13 — a
//! probe below the floor runs sequentially even when the codec owns a
//! pool) and `scaling_efficiency` (encode MiB/s at `threads` divided by
//! `threads` × the scheme's 1-thread MiB/s; 1.0 is perfect scaling).
//!
//! A `"range"` section times random access over a v2 sharded container:
//! `decode_range` of one shard-sized slice against a full decode of the
//! same container, through a cold reader each rep so the shard cache never
//! hides decode work. `range_speedup` (full / range) is the partial-read
//! win `scripts/bench_ecc.sh` regression-gates.
//!
//! Single-thread rows also carry a per-stage breakdown of the encode path
//! (`stage_copy_s` for the data memcpy, `stage_parity_s` for the per-chunk
//! parity kernels); the stages are measured directly — not through the
//! telemetry feature — so the numbers are valid in the default build, and
//! their sum is expected to land within 5% of `encode_s`. Redirect to the
//! repo root to refresh the committed baseline:
//!
//! ```text
//! cargo run -p arc-bench --release --bin ecc_baseline > BENCH_ecc.json
//! ```

use std::time::Instant;

use arc_bench::{inject_correctable, scaling_schemes};
use arc_ecc::{EccScheme, ParallelCodec};

const PROBE_BYTES: usize = 4 << 20;
const RS_PROBE_BYTES: usize = 1 << 20;
const REPS: usize = 5;
/// Round-robin reps for the encode-stage breakdown (total, copy, parity
/// measured in turn so noise hits all three alike; min of each).
const STAGE_REPS: usize = 15;
/// Correctable soft errors injected for the corrupt-decode column.
const INJECT_ERRORS: usize = 500;

fn probe(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 29) as u8).collect()
}

/// Wall time of one call to `f`, in seconds.
fn one_sec(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Best-of-`REPS` wall time for `f`, in seconds.
fn best_secs(mut f: impl FnMut()) -> f64 {
    f(); // warm up
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Decode throughput against a pre-corrupted template, refreshing the
/// working buffer from the template each rep and subtracting the measured
/// memcpy cost so the column isolates verify-and-correct work.
fn corrupt_decode_secs(codec: &ParallelCodec, template: &[u8], data_len: usize) -> f64 {
    let mut work = template.to_vec();
    let copy = best_secs(|| work.copy_from_slice(template));
    let total = best_secs(|| {
        work.copy_from_slice(template);
        codec.decode_in_place(&mut work, data_len).expect("correctable decode");
    });
    (total - copy).max(f64::MIN_POSITIVE)
}

/// Time the range-read path: best-of-reps `decode_range` of one
/// shard-sized slice vs a full `arc_engine_decode`, both over the same v2
/// container. Returns `(full_s, range_s)`.
fn range_probe(data: &[u8], shard_size: usize) -> (f64, f64) {
    let config = arc_ecc::EccConfig::secded(true);
    let encoded =
        arc_core::arc_engine_encode_sharded(data, config, 1, shard_size).expect("v2 encode");
    // Slice in the middle, aligned to nothing in particular.
    let offset = data.len() / 2 + 37;
    let len = shard_size / 2;
    let full = best_secs(|| {
        arc_core::arc_engine_decode(&encoded, 1).expect("full decode");
    });
    let range = best_secs(|| {
        // Cold reader, zero cache: every rep pays real per-shard decode.
        let mut reader = arc_core::ArcReader::with_cache_capacity(&encoded, 1, 0).expect("reader");
        reader.decode_range(offset, len).expect("range decode");
    });
    (full, range)
}

fn main() {
    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut thread_points = vec![1, 2, max_threads];
    thread_points.sort_unstable();
    thread_points.dedup();

    let mut entries = Vec::new();
    for (name, config) in scaling_schemes() {
        let len = if name == "Reed-Solomon" { RS_PROBE_BYTES } else { PROBE_BYTES };
        let data = probe(len);
        let corrects = config.capability().corrects_sparse;
        // 1-thread encode MiB/s, the denominator for `scaling_efficiency`
        // (thread_points always starts at 1).
        let mut base_mbps: Option<f64> = None;
        for &threads in &thread_points {
            let codec = ParallelCodec::new(config, threads).expect("codec");
            let mut out = vec![0u8; codec.encoded_len(data.len())];
            // Per-stage breakdown of the sequential encode path: the data
            // memcpy and the per-chunk parity loop are timed separately,
            // mirroring exactly what the 1-thread `encode_into` does, so
            // the two stages should sum to ~`encode_s` (warn beyond 5%).
            // Total and stages are measured round-robin in the same loop so
            // transient system noise lands on all three alike.
            let (enc, stages) = if threads == 1 {
                // Same buffer layout as the sequential `encode_into`: one
                // container split into a data region and a parity region,
                // so each stage touches exactly the memory the real path
                // does. `black_box` keeps the memcpy from being elided.
                let mut container = vec![0u8; codec.encoded_len(data.len())];
                let (data_out, parity_out) = container.split_at_mut(data.len());
                codec.encode_into(&data, &mut out); // warm up
                let (mut enc, mut copy, mut par) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
                for _ in 0..STAGE_REPS {
                    enc = enc.min(one_sec(|| codec.encode_into(&data, &mut out)));
                    copy = copy.min(one_sec(|| {
                        data_out.copy_from_slice(&data);
                        std::hint::black_box(&mut *data_out);
                    }));
                    par = par.min(one_sec(|| {
                        let mut rest = &mut *parity_out;
                        for chunk in data.chunks(codec.chunk_size()) {
                            let (p, r) = rest.split_at_mut(config.parity_len(chunk.len()));
                            config.encode_parity_into(chunk, p);
                            rest = r;
                        }
                        std::hint::black_box(&mut *parity_out);
                    }));
                }
                if ((copy + par) - enc).abs() > 0.05 * enc {
                    eprintln!(
                        "warning: {name} stage sum {:.3e}s deviates >5% from \
                         encode {enc:.3e}s",
                        copy + par
                    );
                }
                (enc, Some((copy, par)))
            } else {
                (best_secs(|| codec.encode_into(&data, &mut out)), None)
            };
            let mut encoded = codec.encode(&data);
            let dec = best_secs(|| {
                codec.decode_in_place(&mut encoded, data.len()).expect("clean decode");
            });
            // Corrupt-decode column: parity-only schemes detect but cannot
            // correct, so the column is null for them.
            let corrupt = corrects.then(|| {
                let mut template = codec.encode(&data);
                inject_correctable(
                    &mut template,
                    &config,
                    codec.chunk_size(),
                    data.len(),
                    INJECT_ERRORS,
                    7,
                );
                corrupt_decode_secs(&codec, &template, data.len())
            });
            let mbps = |secs: f64| len as f64 / secs / (1 << 20) as f64;
            let corrupt_field = match corrupt {
                Some(secs) => format!("{:.1}", mbps(secs)),
                None => "null".to_string(),
            };
            let (copy_field, parity_field) = match stages {
                Some((c, p)) => (format!("{c:.6e}"), format!("{p:.6e}")),
                None => ("null".to_string(), "null".to_string()),
            };
            let enc_mbps = mbps(enc);
            if threads == 1 {
                base_mbps = Some(enc_mbps);
            }
            let efficiency = match base_mbps {
                Some(base) if base > 0.0 => {
                    format!("{:.2}", enc_mbps / (threads as f64 * base))
                }
                _ => "null".to_string(),
            };
            entries.push(format!(
                concat!(
                    "    {{\"scheme\": \"{}\", \"threads\": {}, \"effective_workers\": {}, ",
                    "\"bytes\": {}, ",
                    "\"encode_mib_s\": {:.1}, \"decode_clean_mib_s\": {:.1}, ",
                    "\"decode_corrupt_mib_s\": {}, \"scaling_efficiency\": {}, ",
                    "\"encode_s\": {:.6e}, ",
                    "\"stage_copy_s\": {}, \"stage_parity_s\": {}}}"
                ),
                name,
                threads,
                codec.effective_workers(len),
                len,
                enc_mbps,
                mbps(dec),
                corrupt_field,
                efficiency,
                enc,
                copy_field,
                parity_field
            ));
        }
    }

    let range_data = probe(PROBE_BYTES);
    let shard_size = PROBE_BYTES / 16;
    let (full_s, range_s) = range_probe(&range_data, shard_size);

    println!("{{");
    println!("  \"bench\": \"ecc_throughput\",");
    println!("  \"unit\": \"MiB/s\",");
    println!("  \"reps\": {REPS},");
    println!("  \"max_threads\": {max_threads},");
    // Core count of the recording machine: scripts/bench_ecc.sh refuses to
    // compare scaling points recorded on different hardware.
    println!("  \"recorded_cores\": {max_threads},");
    println!("  \"inject_errors\": {INJECT_ERRORS},");
    println!(
        concat!(
            "  \"range\": {{\"bytes\": {}, \"shard_size\": {}, \"slice_len\": {}, ",
            "\"full_decode_s\": {:.6e}, \"range_decode_s\": {:.6e}, ",
            "\"range_speedup\": {:.2}}},"
        ),
        PROBE_BYTES,
        shard_size,
        shard_size / 2,
        full_s,
        range_s,
        full_s / range_s
    );
    println!("  \"results\": [");
    println!("{}", entries.join(",\n"));
    println!("  ]");
    println!("}}");
}
