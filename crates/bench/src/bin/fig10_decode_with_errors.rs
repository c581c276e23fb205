//! Figure 10: decoding throughput with 1 and with 100,000 correctable soft
//! errors present in the encoded data.
//!
//! Paper findings: with a single correctable error only Reed-Solomon slows
//! down (repair cost drops its 40-thread speedup from 18.3× to 2.7×); with
//! 100,000 correctable errors all correcting methods drop hard (40-thread
//! speedups 2.64× / 2.43× / 1.1×) yet stay above ~7 MB/s and still repair
//! everything. Parity is excluded — it cannot correct.

use arc_bench::{
    ecc_probe_bytes, inject_correctable, print_table, scaling_probe, scaling_schemes, thread_cell,
    RunScale,
};
use arc_core::thread_ladder;
use arc_ecc::parallel::{timed_decode, timed_encode, DEFAULT_CHUNK_SIZE};
use arc_ecc::{EccConfig, ParallelCodec};

fn main() {
    let scale = RunScale::from_env();
    let base = ecc_probe_bytes(scale);
    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let ladder = thread_ladder(max_threads);
    let heavy_errors = scale.trials(2_000, 20_000, 100_000);
    println!(
        "probe: CESM bytes ({:.1} MB) tiled to one bytes-per-thread floor per thread, \
         threads {:?}, heavy-error count {}",
        base.len() as f64 / 1e6,
        ladder,
        heavy_errors
    );
    for error_count in [1usize, heavy_errors] {
        let mut rows = Vec::new();
        for (name, config) in scaling_schemes() {
            if matches!(config, EccConfig::Parity(_)) {
                continue; // cannot correct — excluded as in the paper
            }
            let probe = scaling_probe(&base, &config, max_threads);
            let enc_codec = ParallelCodec::new(config, max_threads).expect("codec");
            let (mut encoded, _) = timed_encode(&enc_codec, &probe);
            let injected = inject_correctable(
                &mut encoded,
                &config,
                DEFAULT_CHUNK_SIZE,
                probe.len(),
                error_count,
                0x000F_1610,
            );
            let mut per_thread = Vec::new();
            for &t in &ladder {
                let codec = ParallelCodec::new(config, t).expect("codec");
                let (out, report, sample) =
                    timed_decode(&codec, &encoded, probe.len()).expect("correctable decode");
                assert_eq!(out, probe, "{name}: repair must restore the data");
                assert!(!report.is_clean(), "{name}: something must have been repaired");
                per_thread.push((sample.mb_per_s(), codec.effective_workers(probe.len())));
            }
            let speedup = per_thread.last().unwrap().0 / per_thread.first().unwrap().0.max(1e-12);
            let mut row = vec![
                name.to_string(),
                format!("{:.1}", probe.len() as f64 / 1e6),
                injected.to_string(),
            ];
            row.extend(per_thread.iter().map(|&(v, w)| thread_cell(v, w)));
            row.push(format!("{speedup:.1}x"));
            rows.push(row);
        }
        let mut headers: Vec<String> = vec!["method".into(), "probe MB".into(), "injected".into()];
        headers.extend(ladder.iter().map(|t| format!("{t}T MB/s (workers)")));
        headers.push("speedup".into());
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        print_table(
            &format!("Fig 10: decode throughput with {error_count} correctable error(s)"),
            &header_refs,
            &rows,
        );
    }
    println!(
        "\npaper shape: 1 error leaves Hamming/SEC-DED untouched but drops RS hard\n\
         (repair cost); heavy errors drop every method's scaling, yet all still\n\
         correct the data and stay usable."
    );
}
