//! Golden bytes of the codeword-RS and BCH families: FNV-1a checksums of
//! what `Interleaved(RsBlock)`, `RsCodeword` and `Bch` put on the wire, and
//! of what a damaged buffer decodes to, so a kernel change underneath them
//! cannot move a byte or a report silently.
//!
//! To regenerate after an *intentional* format change, run:
//! `ARC_REGENERATE_GOLDEN=1 cargo test -p arc-ecc --test golden_codewords -- --nocapture`
//! and paste the printed constants.

use arc_ecc::{Bch, CorrectionReport, EccScheme, Interleaved, RsBlock, RsCodeword};

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
            let s = Interleaved::new(RsBlock::new(nsym).unwrap(), depth).unwrap();
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
            let s = Interleaved::new(RsBlock::new(nsym).unwrap(), depth).unwrap();
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
            let short = rs.encode(&input(1, nsym as u64));
            let long = rs.encode(&input(rs.max_message_len(), nsym as u64));
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
