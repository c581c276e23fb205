//! Cross-crate integration: every decode path is total over corrupt bytes.
//!
//! A reduced-size deterministic run of the hostile harness
//! ([`arc::faultsim::hostile`]) — the full sweep lives in the
//! `hostile_corpus` bench binary — plus targeted regressions for the
//! specific panic classes fixed by the hardening pass: container header
//! truncation at every byte boundary, the ZFP fixed-rate budget underflow,
//! and lossless length-field inflation.

use std::time::Duration;

use arc::core::container;
use arc::core::decode_with_threads;
use arc::faultsim::hostile::{builtin_targets, sweep, HostileConfig};
use arc::faultsim::ReturnStatus;
use arc::lossless::LosslessError;
use arc::EccConfig;

/// The harness itself, at CI scale: every decoder, all four mutation
/// families, deterministic, and fast enough for the tier-1 suite.
#[test]
fn hostile_sweep_is_clean_at_ci_scale() {
    let cfg = HostileConfig::quick();
    let report = sweep(&builtin_targets(), &cfg);
    assert!(report.cases() > 300, "corpus unexpectedly small: {}", report.summary());
    assert!(
        report.is_clean(),
        "totality violations:\n{}",
        report.failures.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
    // Both permitted classes must be represented: an all-Compressor-Exception
    // corpus would mean the golden streams are broken, an all-Completed one
    // that the mutations are too gentle.
    let rejected = report.count(ReturnStatus::CompressorException);
    assert!(rejected > 0 && report.count(ReturnStatus::Completed) > 0, "{}", report.summary());
}

/// Same seed, same corpus, same counts — the reproduction contract.
#[test]
fn hostile_sweep_is_deterministic() {
    let cfg = HostileConfig {
        flips: 4,
        truncations: 2,
        inflations: 2,
        splices: 1,
        ..HostileConfig::default()
    };
    let a = sweep(&builtin_targets(), &cfg);
    let b = sweep(&builtin_targets(), &cfg);
    assert_eq!(a.counts, b.counts);
}

/// Container decode must reject — never panic on — a container cut at
/// every byte boundary through its RS-protected header (satellite for the
/// seven former panic sites in `container.rs`).
#[test]
fn container_truncated_at_every_header_boundary_errs() {
    let data: Vec<u8> = (0..10_000u32).map(|i| (i % 253) as u8).collect();
    let encoded = arc::core::arc_engine_encode(&data, EccConfig::secded(true), 1).unwrap();
    let meta = container::unpack(&encoded).unwrap().meta;
    let hlen = container::header_len(&meta);
    assert!(hlen < encoded.len());
    for cut in 0..=hlen {
        let slice = &encoded[..cut];
        assert!(container::unpack(slice).is_err(), "unpack accepted a {cut}-byte header prefix");
        assert!(
            decode_with_threads(slice, 1).is_err(),
            "decode accepted a {cut}-byte header prefix"
        );
    }
    // One byte short of complete must still fail; the intact buffer must
    // still round-trip (the truncation loop really is exercising the
    // boundary, not a broken fixture).
    assert!(decode_with_threads(&encoded[..encoded.len() - 1], 1).is_err());
    assert_eq!(decode_with_threads(&encoded, 1).unwrap().0, data);
}

/// Regression: a fixed-rate ZFP stream whose per-block bit budget is
/// smaller than the 17-bit block header used to underflow
/// (`budget - header`) and panic in debug builds. The encoder refuses to
/// produce such a stream (rate 2.0 on a 1-D 4-element block gives budget
/// 8), so a hostile one is handcrafted: the decoder must treat the header
/// as consuming the whole budget, not wrap around.
#[test]
fn zfp_handcrafted_low_rate_stream_decodes_without_underflow() {
    let mut evil: Vec<u8> = Vec::new();
    evil.extend_from_slice(arc::zfp::MAGIC);
    evil.push(arc::zfp::VERSION);
    evil.push(1); // mode tag: FixedRate
    evil.extend_from_slice(&2.0f64.to_le_bytes()); // in-range rate, tiny budget
    evil.push(1); // ndims
    evil.push(4); // dim varint: one 4-element block
    evil.push(3); // payload length varint
    evil.extend_from_slice(&[0u8; 3]); // FLAG_NORMAL + zero emax/kmax fields
    let out = arc::zfp::decompress(&evil).expect("underflow-free decode");
    assert_eq!(out.dims, vec![4]);
    assert_eq!(out.data.len(), 4);
}

/// An inflated declared-length field must be refused up front with the
/// work-budget error — not answered with a multi-gigabyte allocation.
#[test]
fn lossless_inflated_length_fields_hit_the_work_budget() {
    let text = b"budget budget budget ".repeat(64);
    // The frame carries the declared original length as a varint right
    // after the 4-byte magic; splice in a valid 5-byte varint for 2^35 − 1
    // (≈32 GiB) ahead of the real stream body.
    let huge = [0xFFu8, 0xFF, 0xFF, 0xFF, 0x7F];
    let bytes = arc::lossless::zstd_like::compress(&text);
    let mut evil = bytes[..4].to_vec();
    evil.extend_from_slice(&huge);
    evil.extend_from_slice(&bytes[4..]);
    let zstd_r = arc::lossless::zstd_like::decompress_with_limit(&evil, 1 << 20);
    assert!(
        matches!(zstd_r, Err(LosslessError::WorkBudgetExceeded { demanded, budget })
            if demanded == (1 << 35) - 1 && budget == 1 << 20),
        "zstd-like classified the inflated length as {zstd_r:?}"
    );
}

/// The wall-clock guard actually fires and the sweep reports it rather
/// than hanging (the paper's *Timeout* class).
#[test]
fn wall_clock_guard_catches_a_hung_decoder() {
    use arc::faultsim::hostile::{run_case, DecodeFn};
    use std::sync::Arc;
    let hung: DecodeFn = Arc::new(|_, _| loop {
        std::thread::sleep(Duration::from_millis(50));
    });
    let cfg =
        HostileConfig { max_case_duration: Duration::from_millis(120), ..HostileConfig::default() };
    let (status, _, elapsed) = run_case(&hung, &[0u8; 8], &cfg);
    assert_eq!(status, ReturnStatus::Timeout);
    assert!(elapsed >= Duration::from_millis(120));
}
