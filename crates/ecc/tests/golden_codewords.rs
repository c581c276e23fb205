//! Golden bytes of the ECC families: FNV-1a checksums of what
//! `Interleaved`, `RsCodeword`, `Bch`, `Hamming`, `SecDed` and
//! `ReedSolomon` put on the wire, and what a damaged buffer decodes to, so
//! a kernel change underneath them cannot move a byte or a report silently.
//!
//! To regenerate after an *intentional* format change, run:
//! `ARC_REGENERATE_GOLDEN=1 cargo test -p arc-ecc --test golden_codewords -- --nocapture`
//! and paste the printed constants.

use arc_ecc::{
    Bch, CorrectionReport, EccError, EccScheme, Hamming, Interleaved, ReedSolomon, RsCodeword,
    SecDed,
};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Deterministic bytes with no period a lane or a codeword could line up with.
fn input(n: usize, salt: u64) -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ salt.wrapping_mul(0xD134_2543_DE82_EF95);
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

/// (nsym, depth): the stock pair, a narrow one, a depth that is not a
/// multiple of 64, the two extremes of `nsym`, and the deepest interleave.
const LANE_GRID: [(usize, usize); 6] = [(32, 64), (8, 4), (16, 100), (2, 2), (250, 3), (32, 4096)];
/// Empty, shorter than a row, around one row, exactly one message per lane
/// at the stock pair, one byte past it, and a ragged multi-message length.
const LANE_LENGTHS: [usize; 8] = [0, 1, 63, 64, 65, 223 * 64, 223 * 64 + 1, 50_001];

fn check<T: std::fmt::Debug + PartialEq>(name: &str, golden: &[T], actual: &[T]) {
    if std::env::var("ARC_REGENERATE_GOLDEN").is_ok() {
        println!("{name}: {actual:x?}");
        return;
    }
    assert_eq!(golden, actual, "{name} drifted from its snapshot");
}

/// One row per `LANE_GRID` pair, one column per `LANE_LENGTHS` entry.
#[rustfmt::skip]
const GOLDEN_LANES: [[u64; 8]; 6] = [
    [0xcbf29ce484222325, 0xe87b117b1cb04ba5, 0x736a511439be9dbd, 0x80c8247cf20c53a1,
     0xb7f4dcd73e68b9, 0x5563bc56d218066f, 0xf352bba0d59963e1, 0xd0e81685a70e4803],
    [0xcbf29ce484222325, 0x427df3c24708b16d, 0xa050c6952daa0779, 0x2ed68e3fbe74a30f,
     0x788df511c0e9ee33, 0x71bdde0d07714b33, 0x37c95b6097110c47, 0xcf7447a0abd52ed],
    [0xcbf29ce484222325, 0xb9d9360123cf525, 0x90a8cd05af5331ab, 0xde609df98d20be65,
     0x96aba20ceda00b27, 0x40052d0b543d2923, 0xe17bfa15875db235, 0x374f97ee9d075903],
    [0xcbf29ce484222325, 0x5474471b86c8b479, 0x3432d36f64c00b69, 0xb8665e7444ffd457,
     0x88549c97797f5d63, 0x57633e005430348f, 0x20c24bfb7443bdad, 0xef5fe15a35723abb],
    [0xcbf29ce484222325, 0x6db82c8a6b800421, 0x5888ff1c56b74801, 0xca227971e24edd2b,
     0x62e9adb8ca3ce10f, 0xead85a89f72bced5, 0x616e20579e9b6487, 0xcd30413f5d7895bb],
    [0xcbf29ce484222325, 0x92f4960328fa7bbd, 0x7128dd9f8c33be21, 0x7185cdec8b5a8c31,
     0x1c718be4213285b5, 0x85d20683a6c9135d, 0x9da57f142fdded57, 0xfd9a58dea0c756af],
];

#[test]
fn interleaved_rs_encodings_match_golden_checksums() {
    let actual: Vec<[u64; 8]> = LANE_GRID
        .iter()
        .map(|&(nsym, depth)| {
            let s = Interleaved::new(nsym, depth).unwrap();
            LANE_LENGTHS.map(|n| fnv1a(&s.encode(&input(n, (nsym * depth) as u64))))
        })
        .collect();
    check("GOLDEN_LANES", &GOLDEN_LANES, &actual);
}

/// (nsym, depth, data_len, corrected_bits, blocks_checked, fnv of the
/// repaired `data ‖ parity` buffer).
const GOLDEN_LANE_REPAIRS: [(usize, usize, usize, u64, u64, u64); 6] = [
    (0x20, 0x40, 0xc351, 0x20b, 0x100, 0xa8b160191ebe53d7),
    (0x8, 0x4, 0xc351, 0x8c, 0xcc, 0x4e8a3cf47f275221),
    (0x10, 0x64, 0xc351, 0x199, 0x12c, 0x560d8de44c175171),
    (0x2, 0x2, 0xc351, 0x1, 0xc6, 0x13394e68f41d5b73),
    (0xfa, 0x3, 0xc351, 0x169, 0x2712, 0xa967c28452655e0f),
    (0x20, 0x1000, 0xc351, 0x7d4, 0x1000, 0x6446bfe9a7056615),
];

/// Damage within every codeword's budget, in data and in parity: a burst of
/// `depth · t / 2` data bytes from offset 7, one byte every 97 rows after
/// it, and one byte in each of the first three parity slots. The repaired buffer must be the encoder's output again.
#[test]
fn interleaved_rs_repairs_match_golden_reports() {
    let actual: Vec<(usize, usize, usize, u64, u64, u64)> = LANE_GRID
        .iter()
        .map(|&(nsym, depth)| {
            let s = Interleaved::new(nsym, depth).unwrap();
            let n = 50_001;
            let clean = s.encode(&input(n, 7));
            let mut bad = clean.clone();
            let burst = (depth * (nsym / 2) / 2).clamp(1, 2000);
            for b in &mut bad[7..7 + burst] {
                *b ^= 0xA5;
            }
            if nsym >= 8 {
                for i in (7 + burst + depth..n).step_by(97 * depth + 1) {
                    bad[i] ^= 0x3C;
                }
                for slot in 0..3 {
                    bad[n + slot * nsym + 1] ^= 0x81;
                }
            }
            let CorrectionReport { corrected_bits, blocks_checked, .. } =
                s.verify_and_correct_in_place(&mut bad, n).unwrap();
            assert_eq!(bad, clean, "nsym={nsym} depth={depth}: repair is not the encoding");
            (nsym, depth, n, corrected_bits, blocks_checked, fnv1a(&bad))
        })
        .collect();
    check("GOLDEN_LANE_REPAIRS", &GOLDEN_LANE_REPAIRS, &actual);
}

/// nsym × {1-byte message, maximal message}.
const GOLDEN_CODEWORDS: [(usize, u64, u64); 3] = [
    (0x20, 0xe42d7666d462ae7, 0x4bd0bb03e1903129),
    (0x2, 0xf92e401be421266f, 0xca1235a6e2a024b3),
    (0xfa, 0xf9dac4ae0efb446b, 0x85777c2fe8e28871),
];

#[test]
fn single_codeword_encodings_match_golden_checksums() {
    // 32 is both `HEADER_NSYM` and `INDEX_NSYM` in arc-core's container.
    let actual: Vec<(usize, u64, u64)> = [32usize, 2, 250]
        .iter()
        .map(|&nsym| {
            let rs = RsCodeword::new(nsym).unwrap();
            let short = rs.encode(&input(1, nsym as u64)).unwrap();
            let long = rs.encode(&input(rs.max_message_len(), nsym as u64)).unwrap();
            assert_eq!((short.len(), long.len()), (1 + nsym, 255));
            (nsym, fnv1a(&short), fnv1a(&long))
        })
        .collect();
    check("GOLDEN_CODEWORDS", &GOLDEN_CODEWORDS, &actual);
}

const GOLDEN_BCH: [u64; 4] =
    [0x127185eb481148f4, 0xa675a757564905f1, 0x89a6be6fd1c08990, 0x155a4533f58c9ad4];

#[test]
fn bch_encodings_match_golden_checksums() {
    let b = Bch::new(2).unwrap();
    let actual: Vec<u64> =
        [1usize, 999, 1000, 1001].iter().map(|&n| fnv1a(&b.encode(&input(n, 2)))).collect();
    check("GOLDEN_BCH", &GOLDEN_BCH, &actual);
}

/// (t, corrected_bits, blocks_checked, fnv of the repaired buffer) for
/// `t` flips in every block of a 4 321-byte buffer, one of them in the
/// block's parity slot.
const GOLDEN_BCH_REPAIRS: [(usize, u64, u64, u64); 4] = [
    (0x1, 0x5, 0x5, 0x7a2dd211ce3dd44b),
    (0x2, 0xa, 0x5, 0x4f0bf26718d290e8),
    (0x3, 0xf, 0x5, 0x3f0dffa0a79b5e05),
    (0x4, 0x14, 0x5, 0x6dfa67432010cd4b),
];

#[test]
fn bch_repairs_match_golden_reports() {
    let actual: Vec<(usize, u64, u64, u64)> = (1..=4usize)
        .map(|t| {
            let b = Bch::new(t).unwrap();
            let n = 4321;
            let clean = b.encode(&input(n, t as u64));
            let mut bad = clean.clone();
            let pbytes = b.parity_len(1);
            for block in 0..n.div_ceil(1000) {
                for k in 1..t {
                    bad[(block * 1000 + 37 * k).min(n - 1)] ^= 0x10 >> k;
                }
                bad[n + block * pbytes + pbytes - 1] ^= 0x01;
            }
            let CorrectionReport { corrected_bits, blocks_checked, .. } =
                b.verify_and_correct_in_place(&mut bad, n).unwrap();
            assert_eq!(bad, clean, "t={t}: repair is not the encoding");
            (t, corrected_bits, blocks_checked, fnv1a(&bad))
        })
        .collect();
    check("GOLDEN_BCH_REPAIRS", &GOLDEN_BCH_REPAIRS, &actual);
}

/// Damaged buffers per `t` in [`bch_damage_matches_golden_outcomes`].
const BCH_DAMAGE_CASES: usize = 10_000;

/// Per `t`: FNV-1a over every case's outcome (the report and repaired bytes
/// of an `Ok`, the text of an error), then how many cases decoded `Ok`,
/// how many erred, and how many `Ok`s are not the encoding — miscorrections
/// of damage beyond `t` flips in some block.
#[rustfmt::skip]
const GOLDEN_BCH_DAMAGE: [(usize, u64, usize, usize, usize); 4] = [
    (0x1, 0xbcb556c02b99b8bf, 0x1eb1, 0x85f, 0x12c2),
    (0x2, 0xfbd47db7ee5ab8ae, 0x1892, 0xe7e, 0x58a),
    (0x3, 0x682a57ca5c3fc0a1, 0x1988, 0xd88, 0x118),
    (0x4, 0xc77ad85cb16ee987, 0x1b68, 0xba8, 0x31),
];

/// BCH's decoder has no oracle in the tree, so what it makes of damage is
/// pinned here: 1..=t+3 bit flips anywhere in a 1..=2 100-byte buffer, its
/// parity included, so that some blocks stay within `t` and some do not.
#[test]
fn bch_damage_matches_golden_outcomes() {
    let actual: Vec<(usize, u64, usize, usize, usize)> = (1..=4usize)
        .map(|t| {
            let b = Bch::new(t).unwrap();
            let mut x = 0x2545_F491_4F6C_DD1Du64 ^ t as u64;
            let mut below = |n: usize| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % n as u64) as usize
            };
            let (mut transcript, mut ok, mut err, mut wrong) = (Vec::new(), 0, 0, 0);
            for case in 0..BCH_DAMAGE_CASES {
                let n = 1 + below(2100);
                let clean = b.encode(&input(n, (t * BCH_DAMAGE_CASES + case) as u64));
                let mut bad = clean.clone();
                for _ in 0..1 + below(t + 3) {
                    let bit = below(8 * bad.len());
                    bad[bit / 8] ^= 1 << (bit % 8);
                }
                let mut seen = Vec::new();
                match b.verify_and_correct_in_place(&mut bad, n) {
                    Ok(r) => {
                        ok += 1;
                        wrong += usize::from(bad != clean);
                        seen.extend(
                            [r.corrected_bits, r.corrected_devices, r.blocks_checked]
                                .iter()
                                .flat_map(|v| v.to_le_bytes()),
                        );
                        seen.extend_from_slice(&bad);
                    }
                    Err(e) => {
                        err += 1;
                        seen.extend_from_slice(e.to_string().as_bytes());
                    }
                }
                transcript.extend_from_slice(&fnv1a(&seen).to_le_bytes());
            }
            (t, fnv1a(&transcript), ok, err, wrong)
        })
        .collect();
    check("GOLDEN_BCH_DAMAGE", &GOLDEN_BCH_DAMAGE, &actual);
}

// ---- The built-in families: Hamming, SEC-DED and device Reed-Solomon ----

/// Hamming(12,8), Hamming(71,64), SEC-DED(13,8), SEC-DED(72,64).
/// Each with its data bytes and stored parity bits per block.
fn sec_codes() -> [(Box<dyn EccScheme>, usize, usize); 4] {
    [
        (Box::new(Hamming::w8()), 1, 4),
        (Box::new(Hamming::w64()), 8, 7),
        (Box::new(SecDed::w8()), 1, 5),
        (Box::new(SecDed::w64()), 8, 8),
    ]
}

/// Lengths that end mid-block for the 8-byte codes and mid-device for RS.
const RAGGED_LENGTHS: [usize; 7] = [0, 1, 7, 8, 9, 1000, 4099];

/// FNV-1a of the parity region, one row per scheme (the four of
/// `sec_codes`, then `rs:16:4` and `rs:223:32`), one column per
/// `RAGGED_LENGTHS` entry.
#[rustfmt::skip]
const GOLDEN_BUILTIN_PARITY: [[u64; 7]; 6] = [
    [0xcbf29ce484222325, 0xaf63bc4c8601b62c, 0x62fade120e65a6f2, 0x62fb8e120e66d202,
     0x984475ae78b6ec17, 0x7610c3274110d9e9, 0xdb54581a82e2ec3e],
    [0xcbf29ce484222325, 0xaf63ba4c8601b2c6, 0xaf63d74c8601e40d, 0xaf639f4c860184e5,
     0x7cc9007b494ca53, 0x26cb228f32fc76ad, 0xfcff7ce326e117f1],
    [0xcbf29ce484222325, 0xaf63be4c8601b992, 0x2472b25499f8dbfa, 0x2473325499f9b57a,
     0xe973f6c1a34f4f03, 0xa6e24241a07fe842, 0xe31d9083265ec107],
    [0xcbf29ce484222325, 0xaf63c14c8601beab, 0xaf644b4c8602a929, 0xaf648b4c860315e9,
     0xaeea207b73e451d, 0x2ae66a0eae7ea70c, 0xeebf32243c1f9d65],
    [0xcbf29ce484222325, 0x35d82265bf577457, 0x4757a85b0d4b0db2, 0xddf564900e8b56e4,
     0xd187adde1c654e30, 0xdb18d06d574593a9, 0xdd957c3687243df9],
    [0xcbf29ce484222325, 0x105747cd237ef2bf, 0x8415c2378c094275, 0x185df8dcabf4f1b7,
     0x3bd49cb3c1b35dec, 0x5a8e0e37f9f4af1f, 0x5b3f49b902aaf8fe],
];

#[test]
fn builtin_parity_regions_match_golden_checksums() {
    let mut schemes: Vec<Box<dyn EccScheme>> = sec_codes().into_iter().map(|c| c.0).collect();
    schemes.push(Box::new(ReedSolomon::new(16, 4).unwrap()));
    schemes.push(Box::new(ReedSolomon::new(223, 32).unwrap()));
    let actual: Vec<[u64; 7]> = schemes
        .iter()
        .enumerate()
        .map(|(row, s)| {
            RAGGED_LENGTHS.map(|n| {
                let parity = s.encode_parity(&input(n, row as u64));
                assert_eq!(parity.len(), s.parity_len(n));
                fnv1a(&parity)
            })
        })
        .collect();
    check("GOLDEN_BUILTIN_PARITY", &GOLDEN_BUILTIN_PARITY, &actual);
}

/// One character per damaged buffer. `Ok(n)` with the encoder's bytes back
/// is the digit `n`; `Ok(n)` with any other bytes (a miscorrection, or a
/// flip no block covers) is the letter `n` places after `a`; an
/// `Uncorrectable` naming the scheme is `U`, a `Malformed` is `M`.
fn outcome(s: &dyn EccScheme, clean: &[u8], mut bad: Vec<u8>, n: usize) -> char {
    match s.verify_and_correct_in_place(&mut bad, n) {
        Ok(r) if r.corrected_devices != 0 || r.corrected_bits > 9 => '?',
        Ok(r) if bad == clean => (b'0' + r.corrected_bits as u8) as char,
        Ok(r) => (b'a' + r.corrected_bits as u8) as char,
        Err(EccError::Uncorrectable { scheme, .. }) if scheme == s.name() => 'U',
        Err(EccError::Malformed { .. }) => 'M',
        Err(_) => '?',
    }
}

/// Three blocks: 3 bytes for the one-byte codes; 8 + 8 + 5 for the
/// eight-byte codes, so the last block carries 24 bits of tail padding.
fn three_blocks(block_bytes: usize) -> usize {
    if block_bytes == 1 {
        3
    } else {
        21
    }
}

/// Every single flip of the three-block buffer, data region then parity
/// region, in bit order. The flips past the last parity group (the pad bits
/// of the last parity byte) belong to no block and are left standing.
#[rustfmt::skip]
const GOLDEN_SEC_SINGLE_FLIPS: [&str; 4] = [
    "111111111111111111111111111111111111aaaa",
    "1111111111111111111111111111111111111111111111111111111111111111\
     1111111111111111111111111111111111111111111111111111111111111111\
     1111111111111111111111111111111111111111111111111111111111111aaa",
    "111111111111111111111111111111111111111a",
    "1111111111111111111111111111111111111111111111111111111111111111\
     1111111111111111111111111111111111111111111111111111111111111111\
     1111111111111111111111111111111111111111111111111111111111111111",
];

#[test]
fn sec_single_flip_outcomes_match_golden() {
    let actual: Vec<String> = sec_codes()
        .iter()
        .map(|(s, block_bytes, _)| {
            let n = three_blocks(*block_bytes);
            let clean = s.encode(&input(n, 11));
            (0..clean.len() * 8)
                .map(|bit| {
                    let mut bad = clean.clone();
                    bad[bit / 8] ^= 1 << (bit % 8);
                    outcome(s.as_ref(), &clean, bad, n)
                })
                .collect()
        })
        .collect();
    let golden: Vec<String> = GOLDEN_SEC_SINGLE_FLIPS.iter().map(|s| s.to_string()).collect();
    check("GOLDEN_SEC_SINGLE_FLIPS", &golden, &actual);
}

/// A bit of block `.0`'s codeword: data bit `.1`, or stored parity bit
/// `.1` (Hamming bits first; SEC-DED's overall bit is the last one).
#[derive(Clone, Copy, Debug)]
enum Bit {
    D(usize, usize),
    P(usize, usize),
}
use Bit::{D, P};

/// Multi-bit damage to the one-byte codes (codeword positions: data bits
/// 0..8 sit at 3, 5, 6, 7, 9, 10, 11, 12). Rows naming parity bit 4 apply
/// to SEC-DED only.
const MULTI_FLIPS_W8: [&[Bit]; 12] = [
    &[D(0, 0), D(0, 1)],          // 3 ^ 5 = 6: a data position
    &[D(0, 3), D(0, 5)],          // 7 ^ 10 = 13: beyond the codeword
    &[D(1, 7), P(1, 0)],          // 12 ^ 1 = 13: beyond the codeword
    &[D(1, 0), P(1, 0)],          // 3 ^ 1 = 2: a parity position
    &[P(2, 0), P(2, 1)],          // 1 ^ 2 = 3: a data position
    &[D(0, 2), D(1, 2)],          // one each in two blocks: both repairable
    &[D(2, 6), P(2, 4)],          // data + overall
    &[P(0, 3), P(0, 4)],          // Hamming + overall
    &[D(0, 0), D(0, 1), D(0, 2)], // 3 ^ 5 ^ 6 = 0: syndrome clean, weight odd
    &[D(0, 3), D(0, 5), P(0, 4)], // syndrome 13 with the overall bit agreeing it is single
    &[D(1, 0), D(1, 1), D(1, 3)], // 3 ^ 5 ^ 7 = 1: a parity position
    &[D(2, 0), D(2, 4), D(2, 6), D(2, 7)],
];

/// Multi-bit damage to the eight-byte codes. Block 2 is the ragged one:
/// data bits 40..64 are padding, at codeword positions 47..=71 (less 64).
/// Rows naming parity bit 7 apply to SEC-DED only.
const MULTI_FLIPS_W64: [&[Bit]; 12] = [
    &[D(0, 0), D(0, 1)],            // 3 ^ 5 = 6: a data position
    &[D(0, 60), D(0, 7)],           // 67 ^ 12 = 79: beyond the codeword
    &[D(2, 12), D(2, 26)],          // 18 ^ 33 = 51: tail padding
    &[D(2, 39), P(2, 0)],           // 46 ^ 1 = 47: first padding position
    &[D(2, 0), P(2, 6)],            // 3 ^ 64 = 67: tail padding
    &[D(1, 63), P(1, 2)],           // 71 ^ 4 = 67: a data position of a full block
    &[D(0, 9), D(1, 9), D(2, 9)],   // one per block: all repairable
    &[D(1, 5), P(1, 7)],            // data + overall
    &[D(2, 12), D(2, 26), P(2, 7)], // syndrome 51 with the overall bit agreeing it is single
    &[D(0, 60), D(0, 7), P(0, 7)],  // syndrome 79 likewise
    &[D(1, 0), D(1, 1), D(1, 2)],   // 3 ^ 5 ^ 6 = 0: syndrome clean, weight odd
    &[D(2, 1), D(2, 2), D(2, 30), D(2, 31)],
];

/// One string per code, one character per applicable `MULTI_FLIPS_*` row.
const GOLDEN_SEC_MULTI_FLIPS: [&str; 4] =
    ["bUUbb2abU", "bUUUUb3aa", "UUUUU2UUbUbU", "UUUUUU3UUUba"];

#[test]
fn sec_multi_flip_outcomes_match_golden() {
    let actual: Vec<String> = sec_codes()
        .iter()
        .map(|(s, block_bytes, pb)| {
            let n = three_blocks(*block_bytes);
            let clean = s.encode(&input(n, 11));
            let rows: &[&[Bit]] =
                if *block_bytes == 1 { &MULTI_FLIPS_W8 } else { &MULTI_FLIPS_W64 };
            rows.iter()
                .filter(|row| row.iter().all(|b| !matches!(b, P(_, p) if p >= pb)))
                .map(|row| {
                    let mut bad = clean.clone();
                    for &b in row.iter() {
                        let bit = match b {
                            D(block, i) => block * block_bytes * 8 + i,
                            P(block, i) => n * 8 + block * pb + i,
                        };
                        bad[bit / 8] ^= 1 << (bit % 8);
                    }
                    outcome(s.as_ref(), &clean, bad, n)
                })
                .collect()
        })
        .collect();
    let golden: Vec<String> = GOLDEN_SEC_MULTI_FLIPS.iter().map(|s| s.to_string()).collect();
    check("GOLDEN_SEC_MULTI_FLIPS", &golden, &actual);
}

/// (k, m, trashed devices, corrected_devices, blocks_checked, fnv of the
/// repaired `data ‖ parity` buffer) over a 4 099-byte buffer, whose last
/// data device is short.
const GOLDEN_RS_REPAIRS: [(usize, usize, usize, u64, u64, u64); 4] = [
    (0x10, 0x4, 0x1, 0x1, 0x14, 0x56ce9db5a8998690),
    (0x10, 0x4, 0x4, 0x4, 0x14, 0x56ce9db5a8998690),
    (0xdf, 0x20, 0x1, 0x1, 0xff, 0xa2d3ad4bb2ecc828),
    (0xdf, 0x20, 0x20, 0x20, 0xff, 0xa2d3ad4bb2ecc828),
];

/// Device `3` trashed, then `m` devices: the short data device holding the
/// last byte, every other data device from 2 up, and code device 1.
#[test]
fn device_rs_repairs_match_golden_reports() {
    let actual: Vec<(usize, usize, usize, u64, u64, u64)> = [(16usize, 4usize), (223, 32)]
        .iter()
        .flat_map(|&(k, m)| [(k, m, 1usize), (k, m, m)])
        .map(|(k, m, trashed)| {
            let rs = ReedSolomon::new(k, m).unwrap();
            let n = 4099;
            let d = rs.device_size(n);
            let clean = rs.encode(&input(n, (k + m) as u64));
            let mut bad = clean.clone();
            let devices: Vec<usize> = if trashed == 1 {
                vec![3]
            } else {
                [(n - 1) / d, k + 1].into_iter().chain((1..m - 1).map(|i| 2 * i)).collect()
            };
            assert_eq!(devices.len(), trashed);
            for dev in devices {
                // Code devices follow the `n` data bytes, `d` bytes each.
                let start = if dev < k { dev * d } else { n + (dev - k) * d };
                let end = if dev < k { (start + d).min(n) } else { start + d };
                for b in &mut bad[start..end] {
                    *b = !*b;
                }
            }
            let report = rs.verify_and_correct_in_place(&mut bad, n).unwrap();
            assert_eq!(bad, clean, "rs:{k}:{m} after {trashed}: repair is not the encoding");
            assert_eq!(report.corrected_bits, 0);
            (k, m, trashed, report.corrected_devices, report.blocks_checked, fnv1a(&bad))
        })
        .collect();
    check("GOLDEN_RS_REPAIRS", &GOLDEN_RS_REPAIRS, &actual);
}
