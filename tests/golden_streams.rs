//! Golden compressed-stream regression tests: the SZ and ZFP encoders must
//! produce byte-for-byte stable output for a fixed input (FNV-1a checksums
//! below).
//!
//! To regenerate after an *intentional* stream-format change, run:
//! `ARC_REGENERATE_GOLDEN=1 cargo test --test golden_streams -- --nocapture`
//! and paste the printed constants.

use arc::sz::{self, ErrorBound, SzConfig};
use arc::zfp::{self, ZfpMode};

/// Deterministic 32×32 smooth field — representative of the paper's
/// climate-style inputs without depending on dataset generators.
fn fixed_field() -> Vec<f32> {
    (0..32 * 32)
        .map(|i| {
            let (r, c) = ((i / 32) as f32, (i % 32) as f32);
            (r * 0.13).sin() * 4.0 + (c * 0.07).cos() * 2.5 + (r * c * 0.002).sin()
        })
        .collect()
}

/// 64-bit FNV-1a over the stream bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn sz_streams() -> Vec<(String, Vec<u8>)> {
    let data = fixed_field();
    [ErrorBound::Abs(1e-3), ErrorBound::PwRel(1e-2), ErrorBound::Psnr(60.0)]
        .into_iter()
        .map(|bound| {
            let cfg = SzConfig { bound, ..SzConfig::default() };
            let stream = sz::compress(&data, &[32, 32], &cfg).unwrap();
            (format!("sz:{bound:?}"), stream)
        })
        .collect()
}

fn zfp_streams() -> Vec<(String, Vec<u8>)> {
    let data = fixed_field();
    [ZfpMode::FixedAccuracy(1e-3), ZfpMode::FixedRate(8.0)]
        .into_iter()
        .map(|mode| {
            let stream = zfp::compress(&data, &[32, 32], mode).unwrap();
            (format!("zfp:{mode:?}"), stream)
        })
        .collect()
}

/// (stream id, byte length, FNV-1a of the bytes).
const GOLDEN_STREAMS: &[(&str, usize, u64)] = &[
    ("sz:Abs(0.001)", 792, 0x1eabe7d84f8c548b),
    ("sz:PwRel(0.01)", 910, 0x23d68a9091323f2f),
    ("sz:Psnr(60.0)", 669, 0xaaaebe29ddaf6e50),
    ("zfp:FixedAccuracy(0.001)", 1219, 0xcd6c15086c9afa4b),
    ("zfp:FixedRate(8.0)", 1043, 0x03fc992854a12509),
];

#[test]
fn compressed_streams_match_golden_checksums() {
    let actual: Vec<(String, Vec<u8>)> = sz_streams().into_iter().chain(zfp_streams()).collect();
    if std::env::var("ARC_REGENERATE_GOLDEN").is_ok() {
        for (id, bytes) in &actual {
            println!("    (\"{id}\", {}, {:#018x}),", bytes.len(), fnv1a(bytes));
        }
        return;
    }
    assert_eq!(GOLDEN_STREAMS.len(), actual.len(), "stream list drifted from snapshot");
    for ((gid, glen, gsum), (id, bytes)) in GOLDEN_STREAMS.iter().zip(&actual) {
        assert_eq!(gid, id, "stream order drifted from snapshot");
        assert_eq!(*glen, bytes.len(), "stream length changed for {id}");
        assert_eq!(*gsum, fnv1a(bytes), "stream bytes changed for {id}");
    }
}

/// The snapshotted streams must still round-trip within their bounds.
#[test]
fn golden_streams_still_round_trip() {
    let data = fixed_field();
    for (id, stream) in sz_streams() {
        let decoded = sz::decompress(&stream).unwrap();
        assert_eq!(decoded.dims, vec![32, 32], "{id}");
        assert_eq!(decoded.data.len(), data.len(), "{id}");
    }
    for (id, stream) in zfp_streams() {
        let decoded = zfp::decompress(&stream).unwrap();
        assert_eq!(decoded.dims, vec![32, 32], "{id}");
        assert_eq!(decoded.data.len(), data.len(), "{id}");
    }
}
