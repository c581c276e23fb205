//! Every public decode surface wraps one scheme dispatch (`resolve_scheme`)
//! and, for the one-shot surfaces, one decode body. This table holds them to
//! it: for a built-in container, an extension container with its registry
//! and one without, every surface returns the same bytes and correction
//! counts — and every whole-container surface the same `ArcDecodeReport`
//! field for field — or refuses with the same typed `InvalidRequest`
//! (naming the registry entry points where the surface takes none). Clean
//! input, one correctable flip per shard, a wiped primary header copy and a
//! wiped first index copy, v1 and v2. Then the
//! failures: the same damaged container is the same `ArcError` from every
//! surface. Below them: the two small defects the shared body removed.

use arc_core::container::{encode_mono, header_len, unpack, write_header};
use arc_core::{
    arc_engine_decode, arc_engine_encode, arc_engine_encode_sharded, decode_with_registry,
    encode_sharded_with_scheme, encode_with_scheme, standard_extensions, ArcDecodeReport, ArcError,
    ArcReader, ExtensionRegistry,
};
use arc_ecc::{CorrectionReport, EccConfig, EccError, EccScheme, ParallelCodec};

/// Decoded bytes, payload corrections, and — from every surface but the
/// range reader, whose report is per read — the whole-container report.
type Decoded = (Vec<u8>, CorrectionReport, Option<ArcDecodeReport>);
type Outcome = Result<Decoded, ArcError>;
type Surface = fn(&[u8], Option<&ExtensionRegistry>) -> Outcome;

fn reader_outcome(reader: Result<ArcReader<'_>, ArcError>) -> Outcome {
    let mut reader = reader?;
    let len = reader.data_len();
    reader.decode_range(0, len).map(|(data, report)| (data, report.correction, None))
}

fn whole((data, report): (Vec<u8>, ArcDecodeReport)) -> Decoded {
    (data, report.correction, Some(report))
}

/// (name, takes a registry, the call). Surfaces that take no registry
/// ignore the one they are offered — that is the point of the third case.
const SURFACES: [(&str, bool, Surface); 4] = [
    ("arc_engine_decode", false, |b, _| arc_engine_decode(b, 1).map(whole)),
    ("decode_with_registry", true, |b, r| {
        decode_with_registry(b, 1, r.expect("surface takes a registry")).map(whole)
    }),
    ("ArcReader::open", false, |b, _| reader_outcome(ArcReader::open(b, 1))),
    ("ArcReader::open_with_registry", true, |b, r| {
        reader_outcome(ArcReader::open_with_registry(b, 1, r.expect("surface takes a registry")))
    }),
];

const REGISTRY_ENTRY_POINTS: [&str; 2] = ["decode_with_registry", "ArcReader::open_with_registry"];

fn sample(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 149) ^ (i >> 6) ^ 0x3C) as u8).collect()
}

const SHARD: usize = 16 << 10;

/// Flip one bit in the data bytes of every shard (or of the one v1 payload).
fn flip_each_shard(container: &mut [u8]) -> u64 {
    let u = unpack(container).unwrap();
    let base = u.payload_offset;
    let offsets: Vec<usize> = match &u.index {
        Some(index) => index.entries.iter().map(|e| e.offset + e.decoded_len / 2).collect(),
        None => vec![u.meta.data_len / 2],
    };
    for off in &offsets {
        container[base + off] ^= 0x10;
    }
    offsets.len() as u64
}

/// Overwrite the primary header codeword: it follows the 6-byte length
/// prefix and is half of what precedes the payload.
fn wipe_primary_header(container: &mut [u8]) {
    let payload_offset = unpack(container).unwrap().payload_offset;
    container[6..6 + (payload_offset - 6) / 2].fill(0xA5);
}

/// Overwrite the first of the three index copies (v2 only; a v1 container
/// has none and comes back untouched).
fn wipe_first_index_copy(container: &mut [u8]) {
    let u = unpack(container).unwrap();
    if let Some(sharding) = u.meta.sharding {
        let start = u.payload_offset + u.meta.payload_len;
        container[start..start + sharding.index_len].fill(0xA5);
    }
}

#[test]
fn every_surface_agrees_on_bytes_corrections_and_refusals() {
    let standard = standard_extensions().unwrap();
    let empty = ExtensionRegistry::new();
    let data = sample(100_000);
    let config = EccConfig::secded(true);
    let x_v1 = encode_with_scheme(&data, &standard, "bch", 1).unwrap();
    let x_v2 = encode_sharded_with_scheme(&data, &standard, "bch", 1, SHARD).unwrap();
    // No writer chooses a chunk size, but every decoder must honour the one a
    // header records: 16 KiB chunks put seven in this v1 payload, and BCH's
    // 1000-byte blocks straddle their seams, so no other chunk size lays the
    // payload out the same way.
    let codec = ParallelCodec::with_chunk_size(standard.get("bch").unwrap(), 1, 16 << 10).unwrap();
    let x_chunked = encode_mono(&data, &codec, "x:bch").unwrap();
    // (label, container, registry on offer, does that registry resolve the id?)
    let cases: Vec<(&str, Vec<u8>, &ExtensionRegistry, bool)> = vec![
        ("builtin v1", arc_engine_encode(&data, config, 1).unwrap(), &standard, true),
        ("builtin v2", arc_engine_encode_sharded(&data, config, 1, SHARD).unwrap(), &empty, true),
        ("x: v1 +registry", x_v1.clone(), &standard, true),
        ("x: v2 +registry", x_v2.clone(), &standard, true),
        ("x: v1 +registry, 7 chunks", x_chunked, &standard, true),
        ("x: v1 -registry", x_v1, &empty, false),
        ("x: v2 -registry", x_v2, &empty, false),
    ];
    for (label, clean, registry, registry_resolves) in cases {
        let builtin = label.starts_with("builtin");
        let v2 = unpack(&clean).unwrap().index.is_some();
        let mut damaged = clean.clone();
        let flips = flip_each_shard(&mut damaged);
        let mut no_primary_header = clean.clone();
        wipe_primary_header(&mut no_primary_header);
        let mut no_first_index = clean.clone();
        wipe_first_index_copy(&mut no_first_index);
        // (damage, container, payload flips, backup header used?, index copy
        // that answers on v2)
        let inputs = [
            ("clean", &clean, 0u64, false, 0usize),
            ("one flip per shard", &damaged, flips, false, 0),
            ("primary header wiped", &no_primary_header, 0, true, 0),
            ("first index copy wiped", &no_first_index, 0, false, 1),
        ];
        for (damage, input, expect_corrected, expect_backup, expect_copy) in inputs {
            let expect_clean = expect_corrected == 0 && !expect_backup && !(v2 && expect_copy > 0);
            let mut agreed: Option<CorrectionReport> = None;
            let mut agreed_report: Option<ArcDecodeReport> = None;
            for (name, takes_registry, surface) in SURFACES {
                let what = format!("{label} / {name} / {damage}");
                let outcome = surface(input, Some(registry));
                if builtin || (takes_registry && registry_resolves) {
                    let (bytes, correction, report) =
                        outcome.unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(bytes, data, "{what}");
                    assert_eq!(correction.corrected_bits, expect_corrected, "{what}");
                    assert_eq!(*agreed.get_or_insert(correction), correction, "{what}");
                    let Some(report) = report else { continue };
                    assert_eq!(report.is_clean(), expect_clean, "{what}: {report:?}");
                    assert_eq!(report.data_len, data.len(), "{what}");
                    assert_eq!(report.shards, if v2 { data.len().div_ceil(SHARD) } else { 0 });
                    assert_eq!(report.used_backup_header, expect_backup, "{what}");
                    // A v1 container has no index, so reports no index repair.
                    let index_copy = report.index_repair.map(|r| (r.copy_used, r.majority_voted));
                    assert_eq!(index_copy, v2.then_some((expect_copy, false)), "{what}");
                    let agreed_report = agreed_report.get_or_insert_with(|| report.clone());
                    assert_eq!(*agreed_report, report, "{what}");
                } else {
                    let Err(ArcError::InvalidRequest(msg)) = outcome else {
                        panic!("{what}: expected InvalidRequest, got {outcome:?}");
                    };
                    assert!(msg.contains("x:bch"), "{what}: {msg}");
                    if !takes_registry {
                        for entry in REGISTRY_ENTRY_POINTS {
                            assert!(msg.contains(entry), "{what}: {msg:?} does not name {entry}");
                        }
                    }
                }
            }
        }
    }
}

/// Two flips in one 8-byte block of the first shard: Hamming(71,64) "repairs"
/// a third bit, and only the shard's end-to-end CRC can notice.
fn flip_two_bits_of_one_block(container: &mut [u8]) {
    let at = unpack(container).unwrap().payload_offset + 64;
    container[at] ^= 0x01;
    container[at + 1] ^= 0x01;
}

/// Overwrite the data bytes of the third shard (or, on v1, as many bytes
/// of the one payload from the same decoded offset).
fn wipe_a_shard(container: &mut [u8]) {
    let base = unpack(container).unwrap().payload_offset;
    container[base + 2 * SHARD..base + 3 * SHARD].fill(0xA5);
}

/// Overwrite both header codewords, leaving the length prefix to find them by.
fn wipe_both_headers(container: &mut [u8]) {
    let payload_offset = unpack(container).unwrap().payload_offset;
    container[6..payload_offset].fill(0x55);
}

/// The same damaged container is the same typed error from every surface
/// that can resolve its scheme.
#[test]
fn every_surface_agrees_on_the_error() {
    let standard = standard_extensions().unwrap();
    let data = sample(100_000);
    let hamming = EccConfig::hamming(true);
    let secded = EccConfig::secded(true);
    let v1 = |config| arc_engine_encode(&data, config, 1).unwrap();
    let v2 = |config| arc_engine_encode_sharded(&data, config, 1, SHARD).unwrap();
    let x_v1 = encode_with_scheme(&data, &standard, "bch", 1).unwrap();
    let x_v2 = encode_sharded_with_scheme(&data, &standard, "bch", 1, SHARD).unwrap();
    type Damage = fn(&mut [u8]);
    type Expect = fn(&ArcError) -> bool;
    let shard_0_crc: Expect = |e| {
        matches!(e, ArcError::Ecc(EccError::Uncorrectable { detail, .. })
            if detail == "shard 0: end-to-end CRC mismatch after ECC decode")
    };
    let ecc_layer: Expect = |e| {
        matches!(e, ArcError::Ecc(EccError::Uncorrectable { detail, .. })
            if !detail.contains("end-to-end CRC"))
    };
    let corrupted: Expect = |e| matches!(e, ArcError::Corrupted(_));
    // (label, container, damage, built-in?, what the agreed error must be)
    let cases: Vec<(&str, Vec<u8>, Damage, bool, Expect)> = vec![
        ("hamming v1, miscorrection", v1(hamming), flip_two_bits_of_one_block, true, shard_0_crc),
        ("hamming v2, miscorrection", v2(hamming), flip_two_bits_of_one_block, true, shard_0_crc),
        ("secded v1, shard wiped", v1(secded), wipe_a_shard, true, ecc_layer),
        ("secded v2, shard wiped", v2(secded), wipe_a_shard, true, ecc_layer),
        ("x:bch v1, shard wiped", x_v1, wipe_a_shard, false, ecc_layer),
        ("x:bch v2, shard wiped", x_v2, wipe_a_shard, false, ecc_layer),
        ("v1, both headers wiped", v1(secded), wipe_both_headers, true, corrupted),
        ("v2, both headers wiped", v2(secded), wipe_both_headers, true, corrupted),
    ];
    for (label, mut container, damage, builtin, expected) in cases {
        damage(&mut container);
        let mut agreed: Option<ArcError> = None;
        for (name, takes_registry, surface) in SURFACES {
            if !(builtin || takes_registry) {
                continue;
            }
            let Err(error) = surface(&container, Some(&standard)) else {
                panic!("{label} / {name}: decoded a damaged container");
            };
            assert!(expected(&error), "{label} / {name}: {error:?}");
            assert_eq!(*agreed.get_or_insert_with(|| error.clone()), error, "{label} / {name}");
        }
    }
}

/// An end-to-end CRC failure names the scheme that ran. The registry path
/// used to report the literal `"custom"` for every extension.
#[test]
fn end_to_end_crc_failure_names_the_extension_scheme() {
    let registry = standard_extensions().unwrap();
    let data = sample(20_000);
    let mut container = encode_with_scheme(&data, &registry, "bch", 1).unwrap();
    // Re-issue the header with a wrong whole-data CRC: ECC finds nothing to
    // repair, and only the end-to-end check can notice.
    let mut meta = unpack(&container).unwrap().meta;
    meta.data_crc ^= 1;
    let hlen = header_len(&meta);
    write_header(&meta, &mut container[..hlen]).unwrap();
    let real_name = registry.get("bch").unwrap().name();
    match decode_with_registry(&container, 1, &registry) {
        Err(ArcError::Ecc(EccError::Uncorrectable { scheme, detail })) => {
            assert_eq!(scheme, real_name);
            assert_ne!(scheme, "custom");
            assert!(detail.contains("end-to-end CRC"), "{detail}");
        }
        other => panic!("expected an end-to-end CRC failure, got {other:?}"),
    }
}

/// `decode_with_registry` on a built-in container is `arc_engine_decode`:
/// one header recovery, one index vote, one report (it used to unpack twice).
#[test]
fn registry_decode_of_a_damaged_builtin_container_reports_like_engine_decode() {
    let registry = standard_extensions().unwrap();
    let data = sample(80_000);
    let mut container =
        arc_engine_encode_sharded(&data, EccConfig::secded(true), 1, SHARD).unwrap();
    flip_each_shard(&mut container);
    let (payload_offset, payload_len, index_len) = {
        let u = unpack(&container).unwrap();
        (u.payload_offset, u.meta.payload_len, u.meta.sharding.unwrap().index_len)
    };
    // Destroy the primary header codeword and the first index copy, and
    // nick the second so its RS codewords have something to repair.
    let header_cw = (payload_offset - 6) / 2;
    container[6..6 + header_cw].fill(0xAA);
    let istart = payload_offset + payload_len;
    container[istart..istart + index_len].fill(0x55);
    container[istart + index_len + 3] ^= 0xFF;

    let (engine_data, engine_report) = arc_engine_decode(&container, 1).unwrap();
    let (registry_data, registry_report) = decode_with_registry(&container, 1, &registry).unwrap();
    assert_eq!(engine_data, data);
    assert_eq!(registry_data, data);
    assert_eq!(registry_report, engine_report);
    assert!(engine_report.used_backup_header);
    let repair = engine_report.index_repair.expect("v2 container reports its index repair");
    assert_eq!((repair.copy_used, repair.majority_voted), (1, false));
    assert!(repair.symbols_corrected >= 1);
    assert_eq!(engine_report.config, Some(EccConfig::secded(true)));
}

/// The whole-data CRC is the shards' CRCs combined, and under device RS a
/// shard's CRC is the combine of its device CRCs: neither may turn a wrong
/// stored CRC into a pass. A header whose data CRC is wrong but correctly
/// RS-encoded, and an index whose CRC for one shard is wrong, are the same
/// typed `Uncorrectable` from every surface — one-shot and range.
#[test]
fn combined_crcs_still_reject_a_wrong_stored_crc() {
    let registry = ExtensionRegistry::new();
    let data = sample(100_000);
    for config in [EccConfig::rs(20, 4).unwrap(), EccConfig::secded(true)] {
        let encode = |d: &[u8]| arc_engine_encode_sharded(d, config, 1, SHARD).unwrap();
        let clean = encode(&data);

        let mut bad_header = clean.clone();
        let mut meta = unpack(&bad_header).unwrap().meta;
        meta.data_crc ^= 1;
        let hlen = header_len(&meta);
        write_header(&meta, &mut bad_header[..hlen]).unwrap();

        // Shard 1 swapped for a consistent encoding of other bytes: the ECC
        // layer finds nothing to repair and only the index CRC disagrees.
        let mut other = data.clone();
        other[SHARD + 5] ^= 0x80;
        let donor = encode(&other);
        let u = unpack(&clean).unwrap();
        let e = u.index.unwrap().entries[1];
        let region = u.payload_offset + e.offset..u.payload_offset + e.offset + e.encoded_len;
        let mut bad_index = clean.clone();
        bad_index[region.clone()].copy_from_slice(&donor[region]);

        let cases = [
            ("header data CRC", bad_header, "end-to-end CRC mismatch after ECC decode"),
            (
                "index CRC of shard 1",
                bad_index,
                "shard 1: end-to-end CRC mismatch after ECC decode",
            ),
        ];
        for (label, container, expected) in cases {
            let mut agreed: Option<ArcError> = None;
            for (name, _, surface) in SURFACES {
                let what = format!("{config} / {label} / {name}");
                let error = match surface(&container, Some(&registry)) {
                    Err(error) => error,
                    Ok(_) => panic!("{what}: decoded a container with a wrong stored CRC"),
                };
                let detail = match &error {
                    ArcError::Ecc(EccError::Uncorrectable { detail, .. }) => detail,
                    other => panic!("{what}: expected Uncorrectable, got {other:?}"),
                };
                assert_eq!(detail, expected, "{what}");
                assert_eq!(*agreed.get_or_insert_with(|| error.clone()), error, "{what}");
            }
        }
    }
}
