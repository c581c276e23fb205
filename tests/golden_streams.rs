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

/// A 1-D field (257 values: 64 full blocks and one padded) and a 3-D field
/// (12×10×9: 64-coefficient blocks, two of three axes padded), each smooth
/// with a deterministic high-frequency term so no coefficient is exactly zero.
fn nd_fields() -> Vec<(Vec<usize>, Vec<f32>)> {
    [vec![257usize], vec![12, 10, 9]]
        .into_iter()
        .map(|dims| {
            let n: usize = dims.iter().product();
            let data = (0..n)
                .map(|i| {
                    let x = i as f32;
                    let hash = (i as u32).wrapping_mul(0x9E37_79B1) >> 20;
                    (x * 0.031).sin() * 6.0 + (x * 0.0047).cos() * 3.0 + hash as f32 * 1e-4
                })
                .collect();
            (dims, data)
        })
        .collect()
}

/// SZ-ABS, SZ-PWREL, ZFP-ACC (a loose tolerance and one tight enough that the
/// unpadded 3-D blocks code with all 64 coefficients active) and ZFP-Rate over
/// [`nd_fields`]: (stream id, stream, decoded values as little-endian bytes).
fn nd_streams() -> Vec<(String, Vec<u8>, Vec<u8>)> {
    let le_bytes = |v: &[f32]| v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
    let mut out = Vec::new();
    for (dims, data) in nd_fields() {
        for bound in [ErrorBound::Abs(1e-3), ErrorBound::PwRel(1e-2)] {
            let cfg = SzConfig { bound, ..SzConfig::default() };
            let stream = sz::compress(&data, &dims, &cfg).unwrap();
            let decoded = sz::decompress(&stream).unwrap();
            assert_eq!(decoded.dims, dims);
            out.push((format!("{dims:?} sz:{bound:?}"), stream, le_bytes(&decoded.data)));
        }
        let modes =
            [ZfpMode::FixedAccuracy(1e-2), ZfpMode::FixedAccuracy(1e-6), ZfpMode::FixedRate(8.0)];
        for mode in modes {
            let stream = zfp::compress(&data, &dims, mode).unwrap();
            let decoded = zfp::decompress(&stream).unwrap();
            assert_eq!(decoded.dims, dims);
            out.push((format!("{dims:?} zfp:{mode:?}"), stream, le_bytes(&decoded.data)));
        }
    }
    out
}

/// (stream id, byte length, FNV-1a of the bytes).
const GOLDEN_STREAMS: &[(&str, usize, u64)] = &[
    ("sz:Abs(0.001)", 792, 0x1eabe7d84f8c548b),
    ("sz:PwRel(0.01)", 910, 0x23d68a9091323f2f),
    ("sz:Psnr(60.0)", 669, 0xaaaebe29ddaf6e50),
    ("zfp:FixedAccuracy(0.001)", 1219, 0xcd6c15086c9afa4b),
    ("zfp:FixedRate(8.0)", 1043, 0x03fc992854a12509),
];

/// The 1-D and 3-D streams of [`nd_streams`], recorded before the bit path
/// under both compressors was rewritten: (stream id, byte length, FNV-1a of
/// the stream, FNV-1a of what it decodes to).
const GOLDEN_ND_STREAMS: &[(&str, usize, u64, u64)] = &[
    ("[257] sz:Abs(0.001)", 835, 0xeac8c59cccadb15c, 0xba99a1d44b3e0a61),
    ("[257] sz:PwRel(0.01)", 468, 0x15ec965bb029c68f, 0x6288b7c535382ca2),
    ("[257] zfp:FixedAccuracy(0.01)", 583, 0x71f7c0a89fea3626, 0xf41c92c738070e63),
    ("[257] zfp:FixedAccuracy(1e-6)", 1002, 0xaec67fc38ac42ce9, 0xdf1dbde3d8b59e13),
    ("[257] zfp:FixedRate(8.0)", 279, 0xe2f739b3e6f37acd, 0x2483020750626a3c),
    ("[12, 10, 9] sz:Abs(0.001)", 2295, 0xd08efbcd46e66396, 0xca71e1996a2d4cad),
    ("[12, 10, 9] sz:PwRel(0.01)", 1577, 0x41e49699bb7ca41a, 0xedb52fcea6d90549),
    ("[12, 10, 9] zfp:FixedAccuracy(0.01)", 3106, 0x27e3f8bba4af155d, 0xd348f17faa54b363),
    ("[12, 10, 9] zfp:FixedAccuracy(1e-6)", 5783, 0xe61dd875d537b2fe, 0x255ed494da391b31),
    ("[12, 10, 9] zfp:FixedRate(8.0)", 1748, 0x6867e96af0ba9d3b, 0x2c0b9d61b174db64),
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

#[test]
fn nd_streams_and_their_decodes_match_golden_checksums() {
    let actual = nd_streams();
    if std::env::var("ARC_REGENERATE_GOLDEN").is_ok() {
        for (id, bytes, decoded) in &actual {
            let (len, sum) = (bytes.len(), fnv1a(bytes));
            println!("    (\"{id}\", {len}, {sum:#018x}, {:#018x}),", fnv1a(decoded));
        }
        return;
    }
    assert_eq!(GOLDEN_ND_STREAMS.len(), actual.len(), "stream list drifted from snapshot");
    for ((gid, glen, gsum, gdec), (id, bytes, decoded)) in GOLDEN_ND_STREAMS.iter().zip(&actual) {
        assert_eq!(gid, id, "stream order drifted from snapshot");
        assert_eq!(*glen, bytes.len(), "stream length changed for {id}");
        assert_eq!(*gsum, fnv1a(bytes), "stream bytes changed for {id}");
        assert_eq!(*gdec, fnv1a(decoded), "decoded values changed for {id}");
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
