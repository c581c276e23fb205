//! Hamming single-error-correcting codes, plain and SEC-DED.
//!
//! ARC offers Hamming over one-byte blocks — Hamming(12,8) — and eight-byte
//! blocks — Hamming(71,64) (§5.2: "both generate parity bits for one byte or
//! eight byte data blocks at a time"). The wide variant trades correction
//! density for storage: 4 parity bits per 8 data bits (50% overhead) versus
//! 7 per 64 (10.9%).
//!
//! SEC-DED (single-error-correct, double-error-detect) is the same code plus
//! one overall parity bit per block (§2.2): (13,8) or (72,64). The extra bit
//! tells single errors (overall parity flips) from double errors (overall
//! parity holds while the syndrome is non-zero), which plain Hamming
//! silently miscorrects. It is the scheme ARC selects for the paper's §6.3
//! resiliency evaluation (1 error/MB → SEC-DED over every eight bytes).
//! Both are one type, [`Sec`], switched on that bit: [`Hamming`] and
//! [`SecDed`].
//!
//! Layout: data bytes are stored unmodified; the packed parity bits follow in
//! a trailing region, `r` bits per block. This keeps the encoded stream
//! readable without decoding and lets the syndrome logic repair errors in
//! either region.

use crate::bits::{chunked, chunked_mut, get_bit, read_bits_at, set_bit, PackedBitWriter};
use crate::codec::{
    single_correct_rate_per_mb, Capability, CorrectionReport, EccError, EccScheme, MB,
};

/// Block width choices for Hamming and SEC-DED codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockWidth {
    /// 8 data bits per codeword — Hamming(12,8) / SEC-DED(13,8).
    W8,
    /// 64 data bits per codeword — Hamming(71,64) / SEC-DED(72,64).
    W64,
}

impl BlockWidth {
    /// Data bits per block.
    pub(crate) fn data_bits(self) -> u32 {
        match self {
            BlockWidth::W8 => 8,
            BlockWidth::W64 => 64,
        }
    }

    /// Data bytes per block.
    pub(crate) fn data_bytes(self) -> usize {
        (self.data_bits() / 8) as usize
    }

    /// Hamming parity bits per block (excluding SEC-DED's extra bit).
    pub(crate) fn hamming_parity_bits(self) -> u32 {
        match self {
            BlockWidth::W8 => 4,  // 2^4 = 16 >= 8 + 4 + 1
            BlockWidth::W64 => 7, // 2^7 = 128 >= 64 + 7 + 1
        }
    }
}

/// Positional layout of a Hamming codeword: positions 1..=n, powers of two
/// hold parity, the rest hold data bits in order.
#[derive(Debug)]
pub(crate) struct Layout {
    /// Number of parity bits r.
    pub r: u32,
    /// For each parity bit i, a mask over the d data bits it covers.
    pub data_masks: Vec<u64>,
    /// Position (1-based) of each data bit within the codeword (kept for
    /// documentation and the layout tests; decoding uses the inverse map).
    #[cfg_attr(not(test), allow(dead_code))]
    pub data_pos: Vec<u32>,
    /// Inverse map: codeword position 0..=n → data-bit index (None for
    /// parity and the unused position 0), where n = d + r is the codeword
    /// length.
    pub pos_to_databit: Vec<Option<u32>>,
}

impl Layout {
    pub(crate) fn new(width: BlockWidth) -> Layout {
        let d = width.data_bits();
        let r = width.hamming_parity_bits();
        let n = d + r;
        // Bounded: d, n, r derive from the fixed BlockWidth enum (<= 64 data bits).
        let mut data_pos = Vec::with_capacity(d as usize);
        // Bounded: n = d + r derives from the fixed BlockWidth enum.
        let mut pos_to_databit = vec![None; (n + 1) as usize];
        let mut j = 0u32;
        for (pos, slot) in (1..=n).zip(pos_to_databit.iter_mut().skip(1)) {
            if !pos.is_power_of_two() {
                data_pos.push(pos);
                *slot = Some(j);
                j += 1;
            }
        }
        // Bounded: r derives from the fixed BlockWidth enum.
        let mut data_masks = vec![0u64; r as usize];
        for (bit, &pos) in data_pos.iter().enumerate() {
            for (i, mask) in data_masks.iter_mut().enumerate() {
                if pos & (1 << i) != 0 {
                    *mask |= 1u64 << bit;
                }
            }
        }
        Layout { r, data_masks, data_pos, pos_to_databit }
    }

    /// Parity bits for one data block (low `r` bits of the result).
    #[inline]
    pub(crate) fn parity_of(&self, data: u64) -> u32 {
        let mut p = 0u32;
        for (i, &mask) in self.data_masks.iter().enumerate() {
            p |= (((data & mask).count_ones()) & 1) << i;
        }
        p
    }
}

static LAYOUT_W8: std::sync::OnceLock<Layout> = std::sync::OnceLock::new();
static LAYOUT_W64: std::sync::OnceLock<Layout> = std::sync::OnceLock::new();

pub(crate) fn layout(width: BlockWidth) -> &'static Layout {
    match width {
        BlockWidth::W8 => LAYOUT_W8.get_or_init(|| Layout::new(BlockWidth::W8)),
        BlockWidth::W64 => LAYOUT_W64.get_or_init(|| Layout::new(BlockWidth::W64)),
    }
}

/// A data block (one `chunks(width.data_bytes())` chunk) as a
/// little-endian integer, zero-padding a ragged tail block.
#[inline]
pub(crate) fn load_block(block: &[u8]) -> u64 {
    // Full W64 block: one unaligned word load.
    if let Ok(w) = <[u8; 8]>::try_from(block) {
        return u64::from_le_bytes(w);
    }
    let mut v = 0u64;
    for (k, &b) in block.iter().enumerate() {
        v |= (b as u64) << (8 * k);
    }
    v
}

/// Write `v` back into its block (bytes beyond a ragged tail block are
/// dropped; padding bits can never be flipped by correction because they
/// are zero in every recomputation).
#[inline]
pub(crate) fn store_block(block: &mut [u8], v: u64) {
    for (b, byte) in block.iter_mut().zip(v.to_le_bytes()) {
        *b = byte;
    }
}

/// Overall (even) parity across the data block and its Hamming bits.
#[inline]
pub(crate) fn overall(block: u64, hamming_bits: u32) -> bool {
    ((block.count_ones() + hamming_bits.count_ones()) & 1) == 1
}

/// The SEC code over [`BlockWidth`] blocks, monomorphised on `OVERALL`:
/// whether each block's stored parity group ends in the overall parity bit
/// that makes the code SEC-DED (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sec<const OVERALL: bool> {
    /// Codeword width.
    pub width: BlockWidth,
}

/// Hamming SEC: (12,8) or (71,64). Wire name `hamming`.
pub type Hamming = Sec<false>;

/// SEC-DED, Hamming plus an overall parity bit: (13,8) or (72,64). Wire name
/// `secded`.
pub type SecDed = Sec<true>;

/// What one odd-weight syndrome asks for.
enum Flip {
    /// Data bit of the block.
    Data(u32),
    /// Bit of the block's stored parity group.
    Stored(u32),
}

impl<const OVERALL: bool> Sec<OVERALL> {
    const NAME: &'static str = if OVERALL { "secded" } else { "hamming" };

    /// Hamming(12,8) / SEC-DED(13,8): one data byte per codeword.
    pub fn w8() -> Self {
        Sec { width: BlockWidth::W8 }
    }

    /// Hamming(71,64) / SEC-DED(72,64): eight data bytes per codeword.
    pub fn w64() -> Self {
        Sec { width: BlockWidth::W64 }
    }

    /// Stored parity bits per block: the Hamming bits, then the overall bit.
    fn group_bits(&self) -> u32 {
        self.width.hamming_parity_bits() + u32::from(OVERALL)
    }

    fn blocks(&self, data_len: usize) -> usize {
        data_len.div_ceil(self.width.data_bytes())
    }
}

impl<const OVERALL: bool> EccScheme for Sec<OVERALL> {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn parity_len(&self, data_len: usize) -> usize {
        (self.blocks(data_len) * self.group_bits() as usize).div_ceil(8)
    }

    fn storage_overhead(&self) -> f64 {
        self.group_bits() as f64 / self.width.data_bits() as f64
    }

    fn encode_parity_into(&self, data: &[u8], parity: &mut [u8]) {
        let (lay, pb) = (layout(self.width), self.group_bits());
        // One parity group per block, packed with whole-word stores; the
        // writer covers every parity byte, so no fill(0) pass is needed.
        let mut w = PackedBitWriter::new(parity);
        for block in chunked(data, self.width.data_bytes()) {
            let block = load_block(block);
            let ham = lay.parity_of(block);
            let top = if OVERALL { (overall(block, ham) as u64) << lay.r } else { 0 };
            w.push(ham as u64 | top, pb);
        }
        w.finish();
    }

    fn verify_and_correct(
        &self,
        data: &mut [u8],
        parity: &mut [u8],
    ) -> Result<CorrectionReport, EccError> {
        let expected = self.parity_len(data.len());
        if parity.len() != expected {
            return Err(EccError::Malformed {
                detail: format!(
                    "{} parity region {} bytes, expected {expected}",
                    Self::NAME,
                    parity.len()
                ),
            });
        }
        let uncorrectable = |detail| Err(EccError::Uncorrectable { scheme: Self::NAME, detail });
        let (lay, width, pb) = (layout(self.width), self.width, self.group_bits());
        let blocks = self.blocks(data.len());
        let mut report = CorrectionReport { blocks_checked: blocks as u64, ..Default::default() };
        for (i, bytes) in chunked_mut(data, width.data_bytes()).enumerate() {
            let block = load_block(bytes);
            let base = i as u64 * pb as u64;
            let group = read_bits_at(parity, base, pb);
            #[expect(clippy::cast_possible_truncation, reason = "group holds pb <= 8 bits")]
            let stored = (group as u32) & ((1 << lay.r) - 1);
            let syndrome = lay.parity_of(block) ^ stored;
            // Did an odd number of bits flip? SEC-DED's overall bit says:
            // even weight across the received data, Hamming bits and overall
            // bit means no. Plain Hamming has no such witness and takes every
            // non-zero syndrome for a single error (and so miscorrects a
            // double one).
            let odd = if OVERALL {
                overall(block, stored) != ((group >> lay.r) & 1 == 1)
            } else {
                syndrome != 0
            };
            // An odd weight is taken for a single error, at the codeword
            // position the syndrome spells: none for the overall bit, a
            // power of two for a Hamming bit.
            let flip = match (syndrome, odd) {
                (0, false) => continue,
                (_, false) => {
                    return uncorrectable(format!("double-bit error detected in block {i}"))
                }
                (0, true) => Flip::Stored(lay.r),
                (s, true) => match lay.pos_to_databit.get(s as usize) {
                    Some(Some(bit)) => Flip::Data(*bit),
                    Some(None) => Flip::Stored(s.trailing_zeros()),
                    None => {
                        return uncorrectable(format!(
                            "impossible syndrome {s} in block {i} (multi-bit error)"
                        ))
                    }
                },
            };
            match flip {
                Flip::Data(bit) => {
                    // Flipping a zero-padding bit of the tail block means the
                    // error is actually beyond the data — multi-bit damage.
                    if bit as usize >= bytes.len() * 8 {
                        return uncorrectable(format!(
                            "syndrome points into tail padding of block {i}"
                        ));
                    }
                    store_block(bytes, block ^ (1u64 << bit));
                }
                Flip::Stored(bit) => {
                    let idx = base + bit as u64;
                    set_bit(parity, idx, !get_bit(parity, idx));
                }
            }
            report.corrected_bits += 1;
        }
        Ok(report)
    }

    fn capability(&self) -> Capability {
        let codewords_per_mb = MB / self.width.data_bytes() as f64;
        Capability {
            detects_sparse: true,
            corrects_sparse: true,
            corrects_burst: false,
            correctable_per_mb: single_correct_rate_per_mb(codewords_per_mb),
        }
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
mod tests {
    use super::*;
    use crate::bits::flip_bit;

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 131 + 17) % 251) as u8).collect()
    }

    /// Every SEC code: both widths, without and with the overall bit.
    fn codes() -> [(Box<dyn EccScheme>, BlockWidth, bool); 4] {
        [
            (Box::new(Hamming::w8()), BlockWidth::W8, false),
            (Box::new(Hamming::w64()), BlockWidth::W64, false),
            (Box::new(SecDed::w8()), BlockWidth::W8, true),
            (Box::new(SecDed::w64()), BlockWidth::W64, true),
        ]
    }

    #[test]
    fn layout_w8_is_12_8() {
        let lay = layout(BlockWidth::W8);
        assert_eq!(lay.r, 4);
        assert_eq!(lay.pos_to_databit.len(), 12 + 1);
        assert_eq!(lay.data_pos, vec![3, 5, 6, 7, 9, 10, 11, 12]);
    }

    #[test]
    fn layout_w64_is_71_64() {
        let lay = layout(BlockWidth::W64);
        assert_eq!(lay.r, 7);
        assert_eq!(lay.pos_to_databit.len(), 71 + 1);
        assert_eq!(lay.data_pos.len(), 64);
    }

    #[test]
    fn clean_round_trip_both_widths() {
        for (code, width, _) in codes() {
            let data = sample(1000);
            let enc = code.encode(&data);
            let (out, report) = code.decode(&enc, data.len()).unwrap();
            assert_eq!(out, data, "{} {width:?}", code.name());
            assert!(report.is_clean());
        }
    }

    #[test]
    fn packed_parity_matches_per_bit_reference() {
        // The word-packed encoder must be bit-identical to the per-bit
        // set_bit reference at every ragged length (wire format is pinned
        // by the golden-container snapshots): per block, the Hamming bits,
        // then SEC-DED's overall bit.
        for (code, width, with_overall) in codes() {
            let lay = layout(width);
            let pb = u64::from(lay.r) + u64::from(with_overall);
            for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1001] {
                let data = sample(len);
                let mut reference = vec![0u8; code.parity_len(len)];
                for (i, block) in data.chunks(width.data_bytes()).enumerate() {
                    let block = load_block(block);
                    let ham = lay.parity_of(block);
                    let base = i as u64 * pb;
                    for bit in 0..lay.r {
                        if ham & (1 << bit) != 0 {
                            set_bit(&mut reference, base + u64::from(bit), true);
                        }
                    }
                    if with_overall && overall(block, ham) {
                        set_bit(&mut reference, base + u64::from(lay.r), true);
                    }
                }
                assert_eq!(
                    code.encode_parity(&data),
                    reference,
                    "{} {width:?} len={len}",
                    code.name()
                );
            }
        }
    }

    #[test]
    fn corrects_every_single_bit_flip_w8() {
        for (code, _, _) in codes().into_iter().filter(|c| c.1 == BlockWidth::W8) {
            let data = sample(48);
            let enc = code.encode(&data);
            for bit in 0..(enc.len() as u64 * 8) {
                let mut bad = enc.clone();
                flip_bit(&mut bad, bit);
                let (out, report) = code.decode(&bad, data.len()).unwrap();
                assert_eq!(out, data, "{}: bit {bit} not corrected", code.name());
                assert_eq!(report.corrected_bits, 1, "{}: bit {bit}", code.name());
            }
        }
    }

    #[test]
    fn corrects_every_single_bit_flip_w64() {
        for (code, _, _) in codes().into_iter().filter(|c| c.1 == BlockWidth::W64) {
            let data = sample(128);
            let enc = code.encode(&data);
            for bit in 0..(enc.len() as u64 * 8) {
                let mut bad = enc.clone();
                flip_bit(&mut bad, bit);
                let (out, _) = code.decode(&bad, data.len()).unwrap();
                assert_eq!(out, data, "{}: bit {bit} not corrected", code.name());
            }
        }
    }

    #[test]
    fn corrects_one_flip_per_block_many_blocks() {
        for code in [&Hamming::w64() as &dyn EccScheme, &SecDed::w64()] {
            let data = sample(8 * 64);
            let mut enc = code.encode(&data);
            // One flip in each of the 64 blocks (64 bits each) — all
            // independently correctable.
            for i in 0..64u64 {
                flip_bit(&mut enc, i * 64 + ((i * 13) % 64));
            }
            let (out, report) = code.decode(&enc, data.len()).unwrap();
            assert_eq!(out, data);
            assert_eq!(report.corrected_bits, 64);
        }
    }

    #[test]
    fn ragged_tail_round_trips_and_corrects() {
        for code in [&Hamming::w64() as &dyn EccScheme, &SecDed::w64()] {
            let data = sample(61); // not a multiple of 8
            let enc = code.encode(&data);
            let (out, _) = code.decode(&enc, data.len()).unwrap();
            assert_eq!(out, data);
            for bit in 0..(data.len() as u64 * 8) {
                let mut bad = enc.clone();
                flip_bit(&mut bad, bit);
                let (out, _) = code.decode(&bad, data.len()).unwrap();
                assert_eq!(out, data, "{}: tail bit {bit}", code.name());
            }
        }
    }

    #[test]
    fn double_error_in_block_is_not_silently_clean() {
        // Plain Hamming may miscorrect a double error; it must never return
        // the corrupted data while claiming zero corrections.
        let h = Hamming::w8();
        let data = sample(16);
        let mut enc = h.encode(&data);
        flip_bit(&mut enc, 0);
        flip_bit(&mut enc, 3);
        match h.decode(&enc, data.len()) {
            Err(_) => {}
            Ok((out, report)) => {
                assert!(!report.is_clean());
                // Miscorrection is permitted (classic Hamming limitation),
                // silence is not.
                let _ = out;
            }
        }
    }

    #[test]
    fn secded_detects_every_double_bit_flip_within_a_block_w8() {
        let s = SecDed::w8();
        let data = sample(4);
        let enc = s.encode(&data);
        // All pairs within block 0's codeword: data bits 0..8 plus its 5
        // parity bits at the start of the parity region.
        let mut codeword_bits: Vec<u64> = (0..8u64).collect();
        let parity_base = data.len() as u64 * 8;
        codeword_bits.extend((0..5u64).map(|b| parity_base + b));
        for (ai, &a) in codeword_bits.iter().enumerate() {
            for &b in &codeword_bits[ai + 1..] {
                let mut bad = enc.clone();
                flip_bit(&mut bad, a);
                flip_bit(&mut bad, b);
                assert!(s.decode(&bad, data.len()).is_err(), "double flip ({a},{b}) not detected");
            }
        }
    }

    #[test]
    fn secded_detects_double_bit_flips_within_w64_block() {
        let s = SecDed::w64();
        let data = sample(8);
        let enc = s.encode(&data);
        for a in 0..64u64 {
            for b in (a + 1)..64u64 {
                let mut bad = enc.clone();
                flip_bit(&mut bad, a);
                flip_bit(&mut bad, b);
                assert!(s.decode(&bad, data.len()).is_err(), "pair ({a},{b})");
            }
        }
    }

    #[test]
    fn overheads_match_paper_widths() {
        assert!((Hamming::w8().storage_overhead() - 0.5).abs() < 1e-12);
        assert!((Hamming::w64().storage_overhead() - 7.0 / 64.0).abs() < 1e-12);
        assert!((SecDed::w8().storage_overhead() - 5.0 / 8.0).abs() < 1e-12);
        assert!((SecDed::w64().storage_overhead() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn capability_reports_sparse_correction() {
        let cap = Hamming::w64().capability();
        assert!(cap.corrects_sparse && cap.detects_sparse && !cap.corrects_burst);
        assert!(cap.correctable_per_mb > 10.0);
    }

    #[test]
    fn paper_1_error_per_mb_case_is_within_capability() {
        // §6.3: resiliency constraint of 1 error/MB selects SEC-DED per 8
        // bytes, guaranteed to catch any single error.
        let cap = SecDed::w64().capability();
        assert!(cap.correctable_per_mb >= 1.0);
        assert!(cap.corrects_sparse);
    }

    #[test]
    fn empty_input() {
        for (code, _, _) in codes() {
            let enc = code.encode(&[]);
            assert!(enc.is_empty());
            assert!(code.decode(&enc, 0).unwrap().0.is_empty());
        }
    }
}
