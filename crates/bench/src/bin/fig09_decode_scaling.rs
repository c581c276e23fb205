//! Figure 9: error-free ECC decoding throughput against thread count.
//!
//! Paper findings: 40-vs-1 speedups of 18.6× (parity), 33.5× (Hamming),
//! 33.5× (SEC-DED), 18.3× (Reed-Solomon); range 10.64–3602 MB/s. Note
//! Reed-Solomon *decodes* fast when clean — verification is a checksum
//! sweep — even though it encodes slowly (Fig 8d vs 9d).

use arc_bench::{
    ecc_probe_bytes, print_table, scaling_probe, scaling_schemes, thread_cell, RunScale,
};
use arc_core::thread_ladder;
use arc_ecc::parallel::{timed_decode, timed_encode};
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
        // Encode once at max threads; decode at each ladder step.
        let enc_codec = ParallelCodec::new(config, max_threads).expect("codec");
        let (encoded, _) = timed_encode(&enc_codec, &probe);
        let mut per_thread = Vec::new();
        for &t in &ladder {
            let codec = ParallelCodec::new(config, t).expect("codec");
            let mut best = 0.0f64;
            for _ in 0..reps {
                let (_, report, sample) =
                    timed_decode(&codec, &encoded, probe.len()).expect("clean decode");
                assert!(report.is_clean());
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
    print_table("Fig 9: error-free decoding throughput vs threads", &header_refs, &rows);
    println!("\npaper speedups at 40 threads: parity 18.6x, hamming 33.5x, secded 33.5x, rs 18.3x");
    println!(
        "shape checks: near-linear scaling; Reed-Solomon decode ≫ Reed-Solomon encode\n\
         (clean decode is a CRC sweep, Fig 9d vs Fig 8d)."
    );
}
