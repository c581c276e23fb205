//! Hamming single-error-correcting codes.
//!
//! ARC offers Hamming over one-byte blocks — Hamming(12,8) — and eight-byte
//! blocks — Hamming(71,64) (§5.2: "both generate parity bits for one byte or
//! eight byte data blocks at a time"). The wide variant trades correction
//! density for storage: 4 parity bits per 8 data bits (50% overhead) versus
//! 7 per 64 (10.9%).
//!
//! Layout: data bytes are stored unmodified; the packed parity bits follow in
//! a trailing region, `r` bits per block. This keeps the encoded stream
//! readable without decoding and lets the syndrome logic repair errors in
//! either region.

use crate::bits::{get_bit, read_bits_at, set_bit, PackedBitWriter};
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
    /// Codeword length n = d + r.
    pub n: u32,
    /// For each parity bit i, a mask over the d data bits it covers.
    pub data_masks: Vec<u64>,
    /// Position (1-based) of each data bit within the codeword (kept for
    /// documentation and the layout tests; decoding uses the inverse map).
    #[cfg_attr(not(test), allow(dead_code))]
    pub data_pos: Vec<u32>,
    /// Inverse map: codeword position → data-bit index (None for parity).
    pub pos_to_databit: Vec<Option<u32>>,
}

impl Layout {
    pub(crate) fn new(width: BlockWidth) -> Layout {
        let d = width.data_bits();
        let r = width.hamming_parity_bits();
        let n = d + r;
        // arc-lint: bounded(d, n, r derive from the fixed BlockWidth enum (<= 64 data bits))
        let mut data_pos = Vec::with_capacity(d as usize);
        // arc-lint: bounded(n = d + r derives from the fixed BlockWidth enum)
        let mut pos_to_databit = vec![None; (n + 1) as usize];
        let mut j = 0u32;
        for pos in 1..=n {
            if !pos.is_power_of_two() {
                data_pos.push(pos);
                pos_to_databit[pos as usize] = Some(j);
                j += 1;
            }
        }
        debug_assert_eq!(j, d);
        // arc-lint: bounded(r derives from the fixed BlockWidth enum)
        let mut data_masks = vec![0u64; r as usize];
        for (bit, &pos) in data_pos.iter().enumerate() {
            for (i, mask) in data_masks.iter_mut().enumerate() {
                if pos & (1 << i) != 0 {
                    *mask |= 1u64 << bit;
                }
            }
        }
        Layout { r, n, data_masks, data_pos, pos_to_databit }
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

/// Read block `i` of `data` as a little-endian integer, zero-padding the tail.
#[inline]
pub(crate) fn load_block(data: &[u8], i: usize, width: BlockWidth) -> u64 {
    let bs = width.data_bytes();
    let start = i * bs;
    if start + 8 <= data.len() && bs == 8 {
        // Full W64 block: one unaligned word load via a fixed-size copy the
        // guard above makes infallible.
        let mut w = [0u8; 8];
        w.copy_from_slice(&data[start..start + 8]);
        return u64::from_le_bytes(w);
    }
    let end = (start + bs).min(data.len());
    let mut v = 0u64;
    for (k, &b) in data[start..end].iter().enumerate() {
        v |= (b as u64) << (8 * k);
    }
    v
}

/// Write block `i` back into `data` (tail bytes beyond the slice are dropped;
/// padding bits can never be flipped by correction because they are zero in
/// every recomputation).
#[inline]
pub(crate) fn store_block(data: &mut [u8], i: usize, width: BlockWidth, v: u64) {
    let bs = width.data_bytes();
    let start = i * bs;
    let end = (start + bs).min(data.len());
    for (k, b) in data[start..end].iter_mut().enumerate() {
        *b = (v >> (8 * k)) as u8;
    }
}

/// Overall (even) parity across the data block and its Hamming bits.
#[inline]
pub(crate) fn overall(block: u64, hamming_bits: u32) -> bool {
    ((block.count_ones() + hamming_bits.count_ones()) & 1) == 1
}

/// The SEC kernel. [`Hamming`] and [`crate::secded::SecDed`] are its two
/// instances, monomorphised on `OVERALL`: whether each block's stored parity
/// group ends in the overall parity bit that makes the code SEC-DED (§2.2).
pub(crate) struct Sec<const OVERALL: bool>(pub(crate) BlockWidth);

/// What one odd-weight syndrome asks for.
enum Flip {
    /// Data bit of the block.
    Data(u32),
    /// Bit of the block's stored parity group.
    Stored(u32),
}

impl<const OVERALL: bool> Sec<OVERALL> {
    pub(crate) const NAME: &'static str = if OVERALL { "secded" } else { "hamming" };

    /// Stored parity bits per block: the Hamming bits, then the overall bit.
    fn group_bits(&self) -> u32 {
        self.0.hamming_parity_bits() + u32::from(OVERALL)
    }

    fn blocks(&self, data_len: usize) -> usize {
        data_len.div_ceil(self.0.data_bytes())
    }

    pub(crate) fn parity_len(&self, data_len: usize) -> usize {
        let bits = self.blocks(data_len) as u64 * self.group_bits() as u64;
        bits.div_ceil(8) as usize
    }

    pub(crate) fn storage_overhead(&self) -> f64 {
        self.group_bits() as f64 / self.0.data_bits() as f64
    }

    pub(crate) fn encode_parity_into(&self, data: &[u8], parity: &mut [u8]) {
        assert_eq!(parity.len(), self.parity_len(data.len()), "parity region size mismatch");
        let (lay, pb) = (layout(self.0), self.group_bits());
        // One parity group per block, packed with whole-word stores; the
        // writer covers every parity byte, so no fill(0) pass is needed.
        let mut w = PackedBitWriter::new(parity);
        for i in 0..self.blocks(data.len()) {
            let block = load_block(data, i, self.0);
            let ham = lay.parity_of(block);
            let top = if OVERALL { (overall(block, ham) as u64) << lay.r } else { 0 };
            w.push(ham as u64 | top, pb);
        }
        w.finish();
    }

    pub(crate) fn verify_and_correct(
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
        let (lay, width, pb) = (layout(self.0), self.0, self.group_bits());
        let blocks = self.blocks(data.len());
        let mut report = CorrectionReport { blocks_checked: blocks as u64, ..Default::default() };
        for i in 0..blocks {
            let block = load_block(data, i, width);
            let base = i as u64 * pb as u64;
            let group = read_bits_at(parity, base, pb);
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
                (s, true) if s > lay.n => {
                    return uncorrectable(format!(
                        "impossible syndrome {s} in block {i} (multi-bit error)"
                    ))
                }
                (s, true) => match lay.pos_to_databit[s as usize] {
                    Some(bit) => Flip::Data(bit),
                    None => Flip::Stored(s.trailing_zeros()),
                },
            };
            match flip {
                Flip::Data(bit) => {
                    // Flipping a zero-padding bit of the tail block means the
                    // error is actually beyond the data — multi-bit damage.
                    let tail_bits =
                        (data.len() - i * width.data_bytes()).min(width.data_bytes()) as u32 * 8;
                    if bit >= tail_bits {
                        return uncorrectable(format!(
                            "syndrome points into tail padding of block {i}"
                        ));
                    }
                    store_block(data, i, width, block ^ (1u64 << bit));
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

    pub(crate) fn capability(&self) -> Capability {
        let codewords_per_mb = MB / self.0.data_bytes() as f64;
        Capability {
            detects_sparse: true,
            corrects_sparse: true,
            corrects_burst: false,
            correctable_per_mb: single_correct_rate_per_mb(codewords_per_mb),
        }
    }
}

/// Hamming SEC code over [`BlockWidth`] blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hamming {
    /// Codeword width.
    pub width: BlockWidth,
}

impl Hamming {
    /// Hamming(12,8): one data byte per codeword.
    pub fn w8() -> Hamming {
        Hamming { width: BlockWidth::W8 }
    }

    /// Hamming(71,64): eight data bytes per codeword.
    pub fn w64() -> Hamming {
        Hamming { width: BlockWidth::W64 }
    }

    fn kernel(&self) -> Sec<false> {
        Sec(self.width)
    }
}

impl EccScheme for Hamming {
    fn name(&self) -> &'static str {
        Sec::<false>::NAME
    }

    fn parity_len(&self, data_len: usize) -> usize {
        self.kernel().parity_len(data_len)
    }

    fn storage_overhead(&self) -> f64 {
        self.kernel().storage_overhead()
    }

    fn encode_parity_into(&self, data: &[u8], parity: &mut [u8]) {
        self.kernel().encode_parity_into(data, parity)
    }

    fn verify_and_correct(
        &self,
        data: &mut [u8],
        parity: &mut [u8],
    ) -> Result<CorrectionReport, EccError> {
        self.kernel().verify_and_correct(data, parity)
    }

    fn capability(&self) -> Capability {
        self.kernel().capability()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::flip_bit;

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 131 + 17) % 251) as u8).collect()
    }

    #[test]
    fn layout_w8_is_12_8() {
        let lay = layout(BlockWidth::W8);
        assert_eq!(lay.r, 4);
        assert_eq!(lay.n, 12);
        assert_eq!(lay.data_pos, vec![3, 5, 6, 7, 9, 10, 11, 12]);
    }

    #[test]
    fn layout_w64_is_71_64() {
        let lay = layout(BlockWidth::W64);
        assert_eq!(lay.r, 7);
        assert_eq!(lay.n, 71);
        assert_eq!(lay.data_pos.len(), 64);
    }

    #[test]
    fn clean_round_trip_both_widths() {
        for h in [Hamming::w8(), Hamming::w64()] {
            let data = sample(1000);
            let enc = h.encode(&data);
            let (out, report) = h.decode(&enc, data.len()).unwrap();
            assert_eq!(out, data);
            assert!(report.is_clean());
        }
    }

    #[test]
    fn packed_parity_matches_per_bit_reference() {
        // The word-packed encoder must be bit-identical to the per-bit
        // set_bit reference at every ragged length (wire format is pinned
        // by the golden-container snapshots).
        for h in [Hamming::w8(), Hamming::w64()] {
            let lay = layout(h.width);
            for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1001] {
                let data = sample(len);
                let mut reference = vec![0u8; h.parity_len(len)];
                for i in 0..len.div_ceil(h.width.data_bytes()) {
                    let p = lay.parity_of(load_block(&data, i, h.width));
                    for bit in 0..lay.r {
                        if p & (1 << bit) != 0 {
                            set_bit(&mut reference, i as u64 * lay.r as u64 + bit as u64, true);
                        }
                    }
                }
                assert_eq!(h.encode_parity(&data), reference, "width={:?} len={len}", h.width);
            }
        }
    }

    #[test]
    fn corrects_every_single_bit_flip_w8() {
        let h = Hamming::w8();
        let data = sample(48);
        let enc = h.encode(&data);
        for bit in 0..(enc.len() as u64 * 8) {
            let mut bad = enc.clone();
            flip_bit(&mut bad, bit);
            let (out, report) = h.decode(&bad, data.len()).unwrap();
            assert_eq!(out, data, "bit {bit} not corrected");
            assert_eq!(report.corrected_bits, 1, "bit {bit}");
        }
    }

    #[test]
    fn corrects_every_single_bit_flip_w64() {
        let h = Hamming::w64();
        let data = sample(128);
        let enc = h.encode(&data);
        for bit in 0..(enc.len() as u64 * 8) {
            let mut bad = enc.clone();
            flip_bit(&mut bad, bit);
            let (out, _) = h.decode(&bad, data.len()).unwrap();
            assert_eq!(out, data, "bit {bit} not corrected");
        }
    }

    #[test]
    fn corrects_one_flip_per_block_many_blocks() {
        let h = Hamming::w64();
        let data = sample(8 * 64);
        let mut enc = h.encode(&data);
        // One flip in each of the 64 blocks (64 bits each) — all
        // independently correctable.
        for i in 0..64u64 {
            flip_bit(&mut enc, i * 64 + (i % 64));
        }
        let (out, report) = h.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
        assert_eq!(report.corrected_bits, 64);
    }

    #[test]
    fn ragged_tail_round_trips_and_corrects() {
        let h = Hamming::w64();
        let data = sample(61); // not a multiple of 8
        let enc = h.encode(&data);
        let (out, _) = h.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
        for bit in 0..(data.len() as u64 * 8) {
            let mut bad = enc.clone();
            flip_bit(&mut bad, bit);
            let (out, _) = h.decode(&bad, data.len()).unwrap();
            assert_eq!(out, data, "tail bit {bit}");
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
    fn overheads_match_paper_widths() {
        assert!((Hamming::w8().storage_overhead() - 0.5).abs() < 1e-12);
        assert!((Hamming::w64().storage_overhead() - 7.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn capability_reports_sparse_correction() {
        let cap = Hamming::w64().capability();
        assert!(cap.corrects_sparse && cap.detects_sparse && !cap.corrects_burst);
        assert!(cap.correctable_per_mb > 10.0);
    }

    #[test]
    fn empty_input() {
        let h = Hamming::w8();
        let enc = h.encode(&[]);
        assert!(enc.is_empty());
        assert!(h.decode(&enc, 0).unwrap().0.is_empty());
    }
}
