//! Figure 8: ECC encoding throughput against thread count, per method.
//!
//! Paper findings on the 40-core node: near-linear scaling for every
//! method; 40-vs-1 speedups of 19.7× (parity), 26.8× (Hamming), 33.9×
//! (SEC-DED), 16.4× (Reed-Solomon); throughput ordering parity ≫ Hamming >
//! SEC-DED ≫ Reed-Solomon, spanning 0.04–3730 MB/s.

use arc_bench::{
    ecc_probe_bytes, print_table, scaling_probe, scaling_schemes, thread_cell, RunScale,
};
use arc_core::thread_ladder;
use arc_ecc::parallel::timed_encode;
use arc_ecc::ParallelCodec;

fn main() {
    let scale = RunScale::from_env();
    let base = ecc_probe_bytes(scale);
    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let ladder = thread_ladder(max_threads);
    println!(
        "probe: CESM bytes ({:.1} MB) tiled to one bytes-per-thread floor per thread, threads {:?}",
        base.len() as f64 / 1e6,
        ladder
    );
    let reps = scale.trials(1, 3, 10);
    let mut rows = Vec::new();
    for (name, config) in scaling_schemes() {
        let probe = scaling_probe(&base, &config, max_threads);
        let mut per_thread = Vec::new();
        for &t in &ladder {
            let codec = ParallelCodec::new(config, t).expect("codec");
            let mut best = 0.0f64;
            for _ in 0..reps {
                let (_, sample) = timed_encode(&codec, &probe);
                best = best.max(sample.mb_per_s());
            }
            per_thread.push((best, codec.effective_workers(probe.len())));
        }
        let speedup = per_thread.last().unwrap().0 / per_thread.first().unwrap().0.max(1e-12);
        let mut row = vec![name.to_string(), format!("{:.1}", probe.len() as f64 / 1e6)];
        row.extend(per_thread.iter().map(|&(v, w)| thread_cell(v, w)));
        row.push(format!("{speedup:.1}x"));
        rows.push(row);
    }
    let mut headers: Vec<String> = vec!["method".into(), "probe MB".into()];
    headers.extend(ladder.iter().map(|t| format!("{t}T MB/s (workers)")));
    headers.push(format!("{}v1 speedup", ladder.last().unwrap()));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table("Fig 8: encoding throughput vs threads", &header_refs, &rows);
    println!("\npaper speedups at 40 threads: parity 19.7x, hamming 26.8x, secded 33.9x, rs 16.4x");
    println!(
        "shape checks: near-linear scaling per method; ordering parity > hamming >\n\
         secded > reed-solomon in absolute MB/s."
    );
}
