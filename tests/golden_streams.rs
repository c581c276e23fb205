//! Golden compressed-stream regression tests: the SZ and ZFP encoders must
//! produce byte-for-byte stable output for a fixed input (FNV-1a checksums
//! below).
//!
//! To regenerate after an *intentional* stream-format change, run:
//! `ARC_REGENERATE_GOLDEN=1 cargo test --test golden_streams -- --nocapture`
//! and paste the printed constants.

use arc::datasets::SdrDataset;
use arc::lossless::bitio::read_varint;
use arc::lossless::lz77::{tokenize, Lz77Config, Token, MAX_MATCH, WINDOW};
use arc::lossless::zstd_like;
use arc::sz::{self, ErrorBound, GridShape, Predictor, PredictorKind, SzConfig};
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

fn le_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// SplitMix64: the seeded byte and noise source of the fields below.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 96×130 field built to reach every branch of the SZ element loop: a
/// smooth region with negatives, a block of exact zeros (both signs), NaN and
/// both infinities, and from row 48 on sign-flipping noise across fourteen
/// decades, which at 256 bins is unpredictable in either domain.
fn adversarial_field() -> (Vec<usize>, Vec<f32>) {
    let (rows, cols) = (96usize, 130usize);
    let mut state = 0xADu64;
    let mut data = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let smooth = ((r as f32) * 0.11).sin() * 3.0 - ((c as f32) * 0.05).cos() * 2.0;
            let x = if r >= 48 && c % 2 == 0 {
                let h = splitmix(&mut state);
                let mag = 10f32.powi((h % 14) as i32 - 7) * (1.0 + (h >> 40) as f32 * 1e-7);
                if h & (1 << 20) == 0 {
                    mag
                } else {
                    -mag
                }
            } else if (10..20).contains(&r) && (30..70).contains(&c) {
                if c % 3 == 0 {
                    -0.0
                } else {
                    0.0
                }
            } else {
                smooth
            };
            data.push(x);
        }
    }
    data[5 * cols + 5] = f32::NAN;
    data[5 * cols + 6] = f32::INFINITY;
    data[40 * cols + 129] = f32::NEG_INFINITY;
    data[41 * cols] = f32::NAN;
    data[95 * cols + 129] = f32::INFINITY;
    (vec![rows, cols], data)
}

/// Share of elements a stream written without the final pass holds as
/// literals: header, varint body length, then the body's varint code-block
/// length, the code block and the varint literal count.
fn literal_share(stream: &[u8], n: usize) -> f64 {
    let mut pos = 0;
    sz::stream::Header::read(stream, &mut pos).unwrap();
    read_varint(stream, &mut pos).unwrap();
    let code_block = read_varint(stream, &mut pos).unwrap() as usize;
    pos += code_block;
    read_varint(stream, &mut pos).unwrap() as f64 / n as f64
}

/// The three dataset stand-ins at `test_dims()` under the two bounds
/// arcbench's `sz_checkpoint` uses (NYX under SZ-ABS is the body that crosses
/// the LZ window several times), then [`adversarial_field`] under both bounds
/// and both predictors at 256 bins.
fn sz_field_streams() -> Vec<(String, Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    let mut push = |id: String, data: &[f32], dims: &[usize], cfg: &SzConfig| {
        let stream = sz::compress(data, dims, cfg).unwrap();
        let decoded = sz::decompress(&stream).unwrap();
        assert_eq!(decoded.dims, dims);
        out.push((id, stream, le_bytes(&decoded.data)));
    };
    for ds in SdrDataset::ALL {
        let field = ds.generate_test();
        for bound in [ErrorBound::Abs(0.1), ErrorBound::PwRel(0.1)] {
            let cfg = SzConfig { bound, ..SzConfig::default() };
            push(format!("{} sz:{bound:?}", ds.name()), &field.data, &field.dims, &cfg);
        }
    }
    let (dims, data) = adversarial_field();
    for bound in [ErrorBound::Abs(1e-3), ErrorBound::PwRel(1e-2)] {
        for kind in [PredictorKind::Lorenzo, PredictorKind::Lorenzo2] {
            let cfg =
                SzConfig { bound, quant_bins: 256, predictor: Some(kind), ..SzConfig::default() };
            let bare = SzConfig { final_lossless: false, ..cfg };
            let share = literal_share(&sz::compress(&data, &dims, &bare).unwrap(), data.len());
            assert!(share > 0.25, "adversarial {bound:?} {kind:?}: literal share {share}");
            push(format!("adversarial sz:{bound:?} {kind:?}"), &data, &dims, &cfg);
        }
    }
    out
}

/// Inputs for `zstd_like::compress` longer than twice any window-sized ring
/// (300 KiB against `WINDOW` = 64 KiB). `planted`: seeded noise holding a
/// 40-byte block repeated at distance exactly `WINDOW` (the farthest legal
/// match), another repeated at `WINDOW + 1` (one too far: literals), and a
/// single-byte run of 1 000 > `MAX_MATCH`. Deep in a noise run the parse
/// searches one position in hundreds, so each copy of the two blocks follows
/// a 1 KiB fill that ends in a match: the run restarts and the block's first
/// byte is searched. A third 40-byte repeat, 40 000 bytes back with no fill,
/// is passed over as literals. `low-entropy`: a four-symbol source, so every
/// position has a full hash chain and many equal-length candidates, which
/// pins chain depth and tie-breaks.
fn lz_inputs() -> Vec<(&'static str, Vec<u8>)> {
    let n = 300 << 10;
    let mut state = 0x1Au64;
    let mut planted: Vec<u8> = (0..n).map(|_| (splitmix(&mut state) >> 56) as u8).collect();
    let fill_before = |data: &mut Vec<u8>, at: usize| data[at - 1024..at].fill(0xC3);
    for (at, dist) in [(70_000usize, WINDOW), (150_000, WINDOW + 1)] {
        fill_before(&mut planted, at);
        fill_before(&mut planted, at + dist);
        planted.copy_within(at..at + 40, at + dist);
    }
    planted.copy_within(260_000..260_040, 300_000);
    planted[250_000..251_000].fill(0x55);
    let tokens = tokenize(&planted, &Lz77Config::default());
    let has = |len: usize, dist: usize| {
        tokens.contains(&Token::Match { len: len as u32, dist: dist as u32 })
    };
    assert!(has(40, WINDOW), "the block at distance WINDOW must be matched whole");
    assert!(has(MAX_MATCH, 1), "the run must be cut at MAX_MATCH");
    assert!(!tokens
        .iter()
        .any(|t| matches!(t, Token::Match { dist, .. } if *dist as usize > WINDOW)));
    let mut at = 0;
    for t in &tokens {
        let len = match *t {
            Token::Literal(_) => 1,
            Token::Match { len, .. } => len as usize,
        };
        if (300_000 - len + 1..300_040).contains(&at) {
            assert!(matches!(t, Token::Literal(_)), "a repeat deep in noise is stepped over");
        }
        at += len;
    }
    let low: Vec<u8> = (0..n)
        .map(|_| {
            let h = splitmix(&mut state);
            [b'a', b'a', b'a', b'b', b'a', b'c', b'b', b'd'][(h >> 61) as usize]
        })
        .collect();
    vec![("planted", planted), ("low-entropy", low)]
}

/// (stream id, byte length, FNV-1a of the bytes).
const GOLDEN_STREAMS: &[(&str, usize, u64)] = &[
    ("sz:Abs(0.001)", 792, 0x1eabe7d84f8c548b),
    ("sz:PwRel(0.01)", 911, 0xa5e02f9e0bd0ab61),
    ("sz:Psnr(60.0)", 669, 0xaaaebe29ddaf6e50),
    ("zfp:FixedAccuracy(0.001)", 1219, 0xcd6c15086c9afa4b),
    ("zfp:FixedRate(8.0)", 1043, 0x03fc992854a12509),
];

/// The 1-D and 3-D streams of [`nd_streams`], recorded before the bit path
/// under both compressors was rewritten, the SZ stream checksums re-recorded
/// when the LZ parse began to step through literal runs (the decode
/// checksums did not move): (stream id, byte length, FNV-1a of the stream,
/// FNV-1a of what it decodes to).
const GOLDEN_ND_STREAMS: &[(&str, usize, u64, u64)] = &[
    ("[257] sz:Abs(0.001)", 835, 0xeac8c59cccadb15c, 0xba99a1d44b3e0a61),
    ("[257] sz:PwRel(0.01)", 468, 0x15ec965bb029c68f, 0x6288b7c535382ca2),
    ("[257] zfp:FixedAccuracy(0.01)", 583, 0x71f7c0a89fea3626, 0xf41c92c738070e63),
    ("[257] zfp:FixedAccuracy(1e-6)", 1002, 0xaec67fc38ac42ce9, 0xdf1dbde3d8b59e13),
    ("[257] zfp:FixedRate(8.0)", 279, 0xe2f739b3e6f37acd, 0x2483020750626a3c),
    ("[12, 10, 9] sz:Abs(0.001)", 2295, 0xd08efbcd46e66396, 0xca71e1996a2d4cad),
    ("[12, 10, 9] sz:PwRel(0.01)", 1579, 0x1b1c36a512976d3a, 0xedb52fcea6d90549),
    ("[12, 10, 9] zfp:FixedAccuracy(0.01)", 3106, 0x27e3f8bba4af155d, 0xd348f17faa54b363),
    ("[12, 10, 9] zfp:FixedAccuracy(1e-6)", 5783, 0xe61dd875d537b2fe, 0x255ed494da391b31),
    ("[12, 10, 9] zfp:FixedRate(8.0)", 1748, 0x6867e96af0ba9d3b, 0x2c0b9d61b174db64),
];

/// The streams of [`sz_field_streams`], recorded before the SZ element loop
/// and the LZ match finder were rewritten, the stream checksums re-recorded
/// when the parse began to step through literal runs (the decode checksums
/// did not move): (stream id, byte length, FNV-1a of the stream, FNV-1a of
/// what it decodes to).
const GOLDEN_SZ_FIELD_STREAMS: &[(&str, usize, u64, u64)] = &[
    ("CESM sz:Abs(0.1)", 5019, 0xc489f4506bd6f7a2, 0xc70a5e95fee5ea55),
    ("CESM sz:PwRel(0.1)", 10121, 0x89fc2945ea9d9117, 0x1ee354d5f6ba703a),
    ("Hurricane Isabel sz:Abs(0.1)", 180511, 0x59e49660715d48fa, 0x3187ab69dfa002d7),
    ("Hurricane Isabel sz:PwRel(0.1)", 35347, 0x2a8794a3be4bc077, 0x9fc7ea3b27917aad),
    ("NYX sz:Abs(0.1)", 802407, 0xb2e8d1dc68600d7b, 0x84ff476959ba8e30),
    ("NYX sz:PwRel(0.1)", 115903, 0xd4b50b200e7a865b, 0xb9de896709766513),
    ("adversarial sz:Abs(0.001) Lorenzo", 24660, 0xcd92807a0a002c99, 0x74d5097d83b378cc),
    ("adversarial sz:Abs(0.001) Lorenzo2", 26888, 0x853b9d657728649a, 0xba89ea3a2d1cfc2d),
    ("adversarial sz:PwRel(0.01) Lorenzo", 27012, 0x7055e069ec8ab431, 0x1221810f43b3ff1c),
    ("adversarial sz:PwRel(0.01) Lorenzo2", 28414, 0xbb4b484b0029f4c1, 0xe13596be67df0942),
];

/// `zstd_like::compress` of [`lz_inputs`], re-recorded at the same point:
/// (input id, frame length, FNV-1a of the frame).
const GOLDEN_LZ_FRAMES: &[(&str, usize, u64)] =
    &[("planted", 304015, 0xb9b301e01ae2e6d8), ("low-entropy", 113112, 0x66724b1435d08e16)];

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

#[test]
fn sz_field_streams_and_their_decodes_match_golden_checksums() {
    let actual = sz_field_streams();
    if std::env::var("ARC_REGENERATE_GOLDEN").is_ok() {
        for (id, bytes, decoded) in &actual {
            let (len, sum) = (bytes.len(), fnv1a(bytes));
            println!("    (\"{id}\", {len}, {sum:#018x}, {:#018x}),", fnv1a(decoded));
        }
        return;
    }
    assert_eq!(GOLDEN_SZ_FIELD_STREAMS.len(), actual.len(), "stream list drifted from snapshot");
    for ((gid, glen, gsum, gdec), (id, bytes, decoded)) in
        GOLDEN_SZ_FIELD_STREAMS.iter().zip(&actual)
    {
        assert_eq!(gid, id, "stream order drifted from snapshot");
        assert_eq!(*glen, bytes.len(), "stream length changed for {id}");
        assert_eq!(*gsum, fnv1a(bytes), "stream bytes changed for {id}");
        assert_eq!(*gdec, fnv1a(decoded), "decoded values changed for {id}");
    }
}

#[test]
fn lz_frames_match_golden_checksums() {
    let actual: Vec<(&str, Vec<u8>)> = lz_inputs()
        .into_iter()
        .map(|(id, input)| {
            let frame = zstd_like::compress(&input);
            assert_eq!(zstd_like::decompress(&frame).unwrap(), input, "{id}");
            (id, frame)
        })
        .collect();
    if std::env::var("ARC_REGENERATE_GOLDEN").is_ok() {
        for (id, frame) in &actual {
            println!("    (\"{id}\", {}, {:#018x}),", frame.len(), fnv1a(frame));
        }
        return;
    }
    assert_eq!(GOLDEN_LZ_FRAMES.len(), actual.len(), "input list drifted from snapshot");
    for ((gid, glen, gsum), (id, frame)) in GOLDEN_LZ_FRAMES.iter().zip(&actual) {
        assert_eq!(gid, id, "input order drifted from snapshot");
        assert_eq!(*glen, frame.len(), "frame length changed for {id}");
        assert_eq!(*gsum, fnv1a(frame), "frame bytes changed for {id}");
    }
}

/// `select_predictor` used to copy the field into a `Vec<f64>` and predict
/// from that; reading the `f32` slice directly must choose the same kind on
/// the three datasets, and both modes must record it.
#[test]
fn predictor_choice_on_the_datasets_is_what_the_copying_selector_chose() {
    for ds in SdrDataset::ALL {
        let field = ds.generate_test();
        let shape = GridShape::new(&field.dims).unwrap();
        let as64: Vec<f64> = field.data.iter().map(|&x| x as f64).collect();
        let residual = |kind| {
            let predictor = Predictor::new(kind, shape.clone());
            (8..as64.len())
                .step_by((as64.len() / 4096).max(1))
                .filter(|&idx| as64[idx].is_finite())
                .fold(0.0f64, |sum, idx| sum + (as64[idx] - predictor.predict(&as64, idx)).abs())
        };
        let copying = if residual(PredictorKind::Lorenzo2) < residual(PredictorKind::Lorenzo) {
            PredictorKind::Lorenzo2
        } else {
            PredictorKind::Lorenzo
        };
        assert_eq!(sz::select_predictor(&field.data, &shape), copying, "{}", ds.name());
        for bound in [ErrorBound::Abs(0.1), ErrorBound::PwRel(0.1)] {
            let cfg = SzConfig { bound, ..SzConfig::default() };
            let stream = sz::compress(&field.data, &field.dims, &cfg).unwrap();
            let header = sz::stream::Header::read(&stream, &mut 0).unwrap();
            assert_eq!(header.predictor, copying, "{} {bound:?}", ds.name());
        }
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
