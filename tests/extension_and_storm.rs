//! Cross-crate integration for the future-work features: the custom-ECC
//! extension API (a caller-registered replication scheme beside the stock
//! `ileave-rs` interleaved Reed-Solomon) and machine fault-mix storms.

use std::sync::Arc;

use arc::core::{decode_with_registry, encode_with_scheme, standard_extensions, ExtensionRegistry};
use arc::faultsim::storm;
use arc::SystemProfile;
use arc_ecc::{EccScheme, Replication};

fn checkpoint(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 131) ^ (i >> 7)) as u8).collect()
}

fn registry() -> ExtensionRegistry {
    let mut r = standard_extensions().unwrap();
    r.register("tmr", Arc::new(Replication::tmr())).unwrap();
    r
}

#[test]
fn custom_schemes_survive_their_design_storms() {
    let data = checkpoint(500_000);
    let r = registry();
    // TMR vs a Cielo-like storm (bursts up to 512 bytes).
    let enc = encode_with_scheme(&data, &r, "tmr", 2).unwrap();
    let mut struck = enc.clone();
    storm(&mut struck, 25, &SystemProfile::cielo(), 0xE57);
    let (out, report) = decode_with_registry(&struck, 2, &r).unwrap();
    assert_eq!(out, data);
    assert!(!report.correction.is_clean());

    // Interleaved RS vs sparse single-bit weather.
    let enc = encode_with_scheme(&data, &r, "ileave-rs", 2).unwrap();
    let mut struck = enc.clone();
    let single_only = SystemProfile { single_bit_fraction: 1.0, ..SystemProfile::hopper() };
    storm(&mut struck, 30, &single_only, 0xE58);
    let (out, report) = decode_with_registry(&struck, 2, &r).unwrap();
    assert_eq!(out, data);
    assert!(report.correction.corrected_bits >= 1);
}

#[test]
fn interleaved_rs_beats_plain_secded_on_bursts() {
    let data = checkpoint(200_000);
    // A 24-byte burst: plain SEC-DED must fail, the 64-lane interleave wins.
    let il = registry().get("ileave-rs").unwrap();
    let mut enc = il.encode(&data);
    for b in &mut enc[50_000..50_024] {
        *b = !*b;
    }
    let (out, _) = il.decode(&enc, data.len()).unwrap();
    assert_eq!(out, data);

    let plain = arc_ecc::SecDed::w64();
    let mut enc = plain.encode(&data);
    for b in &mut enc[50_000..50_024] {
        *b = !*b;
    }
    assert!(plain.decode(&enc, data.len()).is_err());
}

#[test]
fn extension_overheads_match_their_contracts() {
    // Seven whole RS(223|32) codewords in each of ileave-rs's 64 lanes: a
    // short tail codeword per lane would round its parity bill up.
    let data = checkpoint(64 * 223 * 7);
    let r = registry();
    let tmr = encode_with_scheme(&data, &r, "tmr", 1).unwrap();
    let il = encode_with_scheme(&data, &r, "ileave-rs", 1).unwrap();
    let overhead = |enc: &Vec<u8>| (enc.len() as f64 - data.len() as f64) / data.len() as f64;
    assert!(overhead(&tmr) > 1.9, "TMR ≈ 200%: {}", overhead(&tmr));
    assert!(overhead(&il) < 0.15, "interleave ≈ 32/223: {}", overhead(&il));
}

#[test]
fn custom_constraint_predicate_filters_candidates() {
    use arc::core::{joint_optimizer_with, thread_ladder, TrainingTable};
    use arc::{EccConfig, EncodeRequest};
    let space = EccConfig::standard_space();
    let mut table = TrainingTable::new();
    for cfg in &space {
        for t in thread_ladder(4) {
            table.record(cfg, t, 25.0 * t as f64, 50.0 * t as f64);
        }
    }
    // Custom constraint: only configurations whose parity for a 1 MiB chunk
    // is a multiple of 8 bytes (an alignment-sensitive consumer).
    let sel = joint_optimizer_with(&table, &space, &EncodeRequest::default(), 4, |c| {
        arc_ecc::EccScheme::parity_len(c, 1 << 20) % 8 == 0
    })
    .unwrap();
    assert_eq!(arc_ecc::EccScheme::parity_len(&sel.config, 1 << 20) % 8, 0);
}

#[test]
fn storms_against_unprotected_data_always_corrupt() {
    let data = checkpoint(100_000);
    for seed in 0..5u64 {
        let mut struck = data.clone();
        let summary = storm(&mut struck, 10, &SystemProfile::hopper(), seed);
        assert!(summary.bits_flipped > 0);
        assert_ne!(struck, data, "seed {seed}");
    }
}
