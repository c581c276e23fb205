//! Ablations of design choices called out in DESIGN.md §5:
//!
//! 1. **SZ final lossless pass on/off** — the ZStd-like stage buys
//!    compression ratio but widens the span a bit flip can destroy.
//! 2. **Hamming/SEC-DED block width** — 8- vs 64-bit codewords trade
//!    storage overhead against correction density and throughput.
//! 3. **Reed-Solomon chunk granularity** — smaller chunks bound burst
//!    damage per stripe group but add fixed costs.

use arc_bench::{dataset_at, fmt, print_table, RunScale};
use arc_datasets::SdrDataset;
use arc_ecc::parallel::{timed_decode, timed_encode};
use arc_ecc::{EccConfig, EccScheme, ParallelCodec};
use arc_faultsim::{run_campaign, sample_bits, ReturnStatus};
use arc_pressio::BoundSpec;

fn sz_lossless_ablation(scale: RunScale) {
    let field = dataset_at(scale, SdrDataset::CesmCldlow);
    let trials = scale.trials(100, 300, 1500);
    let mut rows = Vec::new();
    for final_lossless in [true, false] {
        let eps = 0.01;
        let cfg = arc_sz::SzConfig {
            bound: arc_sz::ErrorBound::Abs(eps),
            final_lossless,
            ..Default::default()
        };
        let stream = arc_sz::compress(&field.data, &field.dims, &cfg).expect("compress");
        let cr = field.byte_len() as f64 / stream.len() as f64;
        let bits = sample_bits(stream.len() as u64 * 8, trials, 0xAB1);
        let report = run_campaign(&field.data, &stream, &bits, Some(BoundSpec::Abs(eps)));
        let pcts: Vec<f64> =
            report.trials.iter().filter_map(|t| t.metrics?.percent_incorrect).collect();
        rows.push(vec![
            if final_lossless { "with zstd-like pass" } else { "without" }.to_string(),
            fmt(cr),
            format!("{:.1}%", report.percent(ReturnStatus::Completed)),
            fmt(pcts.iter().sum::<f64>() / pcts.len().max(1) as f64),
        ]);
    }
    print_table(
        "Ablation 1: SZ final lossless pass (CESM, ε = 0.01)",
        &["variant", "compression ratio", "Completed", "avg % incorrect"],
        &rows,
    );
    println!(
        "reading: the pass raises CR; it also concentrates detectable structure\n\
         (tables/framing), so some flips raise exceptions instead of completing —\n\
         without it every flip lands in quantization codes and silently propagates."
    );
}

fn block_width_ablation(scale: RunScale) {
    let field = dataset_at(scale, SdrDataset::CesmCldlow);
    let data: Vec<u8> = field.data.iter().flat_map(|x| x.to_le_bytes()).collect();
    let mut rows = Vec::new();
    for (label, config) in [
        ("hamming w8", EccConfig::hamming(false)),
        ("hamming w64", EccConfig::hamming(true)),
        ("secded w8", EccConfig::secded(false)),
        ("secded w64", EccConfig::secded(true)),
    ] {
        let codec = ParallelCodec::new(config, 1).expect("codec");
        let (encoded, enc) = timed_encode(&codec, &data);
        let (_, _, dec) = timed_decode(&codec, &encoded, data.len()).expect("decode");
        rows.push(vec![
            label.to_string(),
            format!("{:.1}%", config.storage_overhead() * 100.0),
            fmt(enc.mb_per_s()),
            fmt(dec.mb_per_s()),
        ]);
    }
    print_table(
        "Ablation 2: Hamming/SEC-DED block width (1 thread)",
        &["config", "overhead", "encode MB/s", "decode MB/s"],
        &rows,
    );
    println!("expected: w64 variants cost ~4-5x less storage; w8 corrects denser errors.");
}

fn rs_chunk_ablation(scale: RunScale) {
    let field = dataset_at(scale, SdrDataset::CesmCldlow);
    let data: Vec<u8> = field.data.iter().flat_map(|x| x.to_le_bytes()).collect();
    let data = &data[..data.len().min(4 << 20)];
    let config = EccConfig::rs(223, 32).expect("static");
    let mut rows = Vec::new();
    for chunk in [64 << 10, 256 << 10, 1 << 20, 4 << 20] {
        let codec = ParallelCodec::with_chunk_size(config, 1, chunk).expect("codec");
        let (encoded, enc) = timed_encode(&codec, data);
        let (_, _, dec) = timed_decode(&codec, &encoded, data.len()).expect("decode");
        let dev_bytes = chunk.div_ceil(223);
        rows.push(vec![
            format!("{} KiB", chunk >> 10),
            fmt(enc.mb_per_s()),
            fmt(dec.mb_per_s()),
            format!("{} KiB", (dev_bytes * 32) >> 10),
        ]);
    }
    print_table(
        "Ablation 3: Reed-Solomon chunk granularity (RS(223,32), 1 thread)",
        &["chunk", "encode MB/s", "decode MB/s", "max burst repaired per chunk (m·device)"],
        &rows,
    );
    println!("expected: throughput roughly flat; larger chunks repair longer bursts\nbut concentrate risk (m devices per chunk regardless of chunk size).");
}

fn ecc_vs_replication_ablation(scale: RunScale) {
    // §2.2: ECC "requires significantly less overhead compared to keeping
    // multiple copies of a dataset". Quantify it against N-modular
    // replication at equivalent protection classes.
    use arc_ecc::Replication;
    let field = dataset_at(scale, SdrDataset::CesmCldlow);
    let data: Vec<u8> = field.data.iter().flat_map(|x| x.to_le_bytes()).collect();
    let data = &data[..data.len().min(2 << 20)];
    let mut rows = Vec::new();
    let schemes: Vec<(&str, &str, Box<dyn arc_ecc::EccScheme>)> = vec![
        ("SEC-DED w64", "corrects sparse single-bit", Box::new(arc_ecc::SecDed::w64())),
        (
            "RS(223,32)",
            "corrects bursts (32 devices)",
            Box::new(arc_ecc::ReedSolomon::new(223, 32).unwrap()),
        ),
        ("2x replication", "detects (cannot vote)", Box::new(Replication::new(2).unwrap())),
        ("3x replication (TMR)", "corrects sparse + burst", Box::new(Replication::tmr())),
    ];
    for (name, class, scheme) in &schemes {
        let enc = scheme.encode(data);
        let t0 = std::time::Instant::now();
        let _ = scheme.encode(data);
        let secs = t0.elapsed().as_secs_f64();
        rows.push(vec![
            name.to_string(),
            class.to_string(),
            format!("{:.1}%", 100.0 * (enc.len() - data.len()) as f64 / data.len() as f64),
            fmt(data.len() as f64 / 1e6 / secs),
        ]);
    }
    print_table(
        "Ablation 4: ECC vs keeping copies (the §2.2 storage argument)",
        &["scheme", "protection class", "storage overhead", "encode MB/s"],
        &rows,
    );
    println!("expected: comparable protection at 12.5-14% (ECC) vs 100-200% (copies).");
}

fn main() {
    let scale = RunScale::from_env();
    sz_lossless_ablation(scale);
    block_width_ablation(scale);
    rs_chunk_ablation(scale);
    ecc_vs_replication_ablation(scale);
}
