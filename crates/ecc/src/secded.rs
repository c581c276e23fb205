//! SEC-DED (single-error-correct, double-error-detect) extended Hamming codes.
//!
//! ARC's SEC-DED is the Hamming code of [`crate::hamming`] plus one overall
//! parity bit per block (§2.2). The extra bit disambiguates single errors
//! (overall parity flips) from double errors (overall parity holds while the
//! syndrome is non-zero), which plain Hamming silently miscorrects. This is
//! the scheme ARC selects for the paper's §6.3 resiliency evaluation
//! (1 error/MB → SEC-DED over every eight bytes).

use crate::bits::{get_bit, read_bits_at, set_bit, PackedBitWriter};
use crate::codec::{
    single_correct_rate_per_mb, Capability, CorrectionReport, EccError, EccScheme, MB,
};
use crate::hamming::{layout, load_block, store_block, BlockWidth};

/// SEC-DED code over [`BlockWidth`] blocks: (13,8) or (72,64).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SecDed {
    /// Codeword width.
    pub width: BlockWidth,
}

impl SecDed {
    /// SEC-DED(13,8): one data byte per codeword, 5 parity bits.
    pub fn w8() -> SecDed {
        SecDed { width: BlockWidth::W8 }
    }

    /// SEC-DED(72,64): eight data bytes per codeword, 8 parity bits.
    pub fn w64() -> SecDed {
        SecDed { width: BlockWidth::W64 }
    }

    /// Parity bits per block: Hamming bits + 1 overall bit.
    fn parity_bits(&self) -> u32 {
        self.width.hamming_parity_bits() + 1
    }

    fn blocks(&self, data_len: usize) -> usize {
        data_len.div_ceil(self.width.data_bytes())
    }

    /// Overall (even) parity across the data block and its Hamming bits.
    #[inline]
    fn overall(block: u64, hamming_bits: u32) -> bool {
        ((block.count_ones() + hamming_bits.count_ones()) & 1) == 1
    }
}

impl EccScheme for SecDed {
    fn name(&self) -> &'static str {
        "secded"
    }

    fn parity_len(&self, data_len: usize) -> usize {
        let bits = self.blocks(data_len) as u64 * self.parity_bits() as u64;
        bits.div_ceil(8) as usize
    }

    fn storage_overhead(&self) -> f64 {
        self.parity_bits() as f64 / self.width.data_bits() as f64
    }

    fn encode_parity_into(&self, data: &[u8], parity: &mut [u8]) {
        assert_eq!(parity.len(), self.parity_len(data.len()), "parity region size mismatch");
        let lay = layout(self.width);
        let pb = self.parity_bits();
        let blocks = self.blocks(data.len());
        // Each block's Hamming bits plus overall bit form one (r+1)-bit
        // group, packed with whole-word stores (no per-bit set_bit and no
        // fill(0) pass — the writer covers every parity byte).
        let mut w = PackedBitWriter::new(parity);
        for i in 0..blocks {
            let block = load_block(data, i, self.width);
            let ham = lay.parity_of(block);
            let group = ham as u64 | ((Self::overall(block, ham) as u64) << lay.r);
            w.push(group, pb);
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
                detail: format!("secded parity region {} bytes, expected {expected}", parity.len()),
            });
        }
        let lay = layout(self.width);
        let pb = self.parity_bits() as u64;
        let blocks = self.blocks(data.len());
        let mut report = CorrectionReport { blocks_checked: blocks as u64, ..Default::default() };
        for i in 0..blocks {
            let mut block = load_block(data, i, self.width);
            let recomputed_ham = lay.parity_of(block);
            let base = i as u64 * pb;
            let group = read_bits_at(parity, base, self.parity_bits());
            let stored_ham = (group as u32) & ((1 << lay.r) - 1);
            let stored_overall = (group >> lay.r) & 1 == 1;
            let syndrome = recomputed_ham ^ stored_ham;
            // Overall parity check: recompute across received data + received
            // Hamming bits + received overall bit; zero means even weight.
            let overall_mismatch = Self::overall(block, stored_ham) != stored_overall;
            match (syndrome, overall_mismatch) {
                (0, false) => {}
                (0, true) => {
                    // Only the overall bit flipped.
                    set_bit(parity, base + lay.r as u64, !stored_overall);
                    report.corrected_bits += 1;
                }
                (s, true) => {
                    // Single error located by the syndrome.
                    if s > lay.n {
                        return Err(EccError::Uncorrectable {
                            scheme: "secded",
                            detail: format!("impossible syndrome {s} in block {i}"),
                        });
                    }
                    match lay.pos_to_databit[s as usize] {
                        Some(bit) => {
                            let tail_bits = (data.len() - i * self.width.data_bytes())
                                .min(self.width.data_bytes())
                                as u32
                                * 8;
                            if bit >= tail_bits {
                                return Err(EccError::Uncorrectable {
                                    scheme: "secded",
                                    detail: format!(
                                        "syndrome points into tail padding of block {i}"
                                    ),
                                });
                            }
                            block ^= 1u64 << bit;
                            store_block(data, i, self.width, block);
                        }
                        None => {
                            let pbit = s.trailing_zeros() as u64;
                            let idx = base + pbit;
                            let cur = get_bit(parity, idx);
                            set_bit(parity, idx, !cur);
                        }
                    }
                    report.corrected_bits += 1;
                }
                (_, false) => {
                    return Err(EccError::Uncorrectable {
                        scheme: "secded",
                        detail: format!("double-bit error detected in block {i}"),
                    });
                }
            }
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
mod tests {
    use super::*;
    use crate::bits::flip_bit;

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 197 + 43) % 256) as u8).collect()
    }

    #[test]
    fn clean_round_trip_both_widths() {
        for s in [SecDed::w8(), SecDed::w64()] {
            let data = sample(777);
            let enc = s.encode(&data);
            let (out, report) = s.decode(&enc, data.len()).unwrap();
            assert_eq!(out, data);
            assert!(report.is_clean());
        }
    }

    #[test]
    fn packed_parity_matches_per_bit_reference() {
        for s in [SecDed::w8(), SecDed::w64()] {
            let lay = layout(s.width);
            for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 777] {
                let data = sample(len);
                let mut reference = vec![0u8; s.parity_len(len)];
                let pb = s.parity_bits() as u64;
                for i in 0..len.div_ceil(s.width.data_bytes()) {
                    let block = load_block(&data, i, s.width);
                    let ham = lay.parity_of(block);
                    let base = i as u64 * pb;
                    for bit in 0..lay.r {
                        if ham & (1 << bit) != 0 {
                            set_bit(&mut reference, base + bit as u64, true);
                        }
                    }
                    if SecDed::overall(block, ham) {
                        set_bit(&mut reference, base + lay.r as u64, true);
                    }
                }
                assert_eq!(s.encode_parity(&data), reference, "width={:?} len={len}", s.width);
            }
        }
    }

    #[test]
    fn corrects_every_single_bit_flip_w8() {
        let s = SecDed::w8();
        let data = sample(40); // 40 blocks * 5 bits = 200 bits = 25 parity bytes
        let enc = s.encode(&data);
        for bit in 0..(enc.len() as u64 * 8) {
            let mut bad = enc.clone();
            flip_bit(&mut bad, bit);
            let (out, report) = s.decode(&bad, data.len()).unwrap();
            assert_eq!(out, data, "bit {bit} not corrected");
            assert_eq!(report.corrected_bits, 1, "bit {bit}");
        }
    }

    #[test]
    fn corrects_every_single_bit_flip_w64() {
        let s = SecDed::w64();
        let data = sample(8 * 16);
        let enc = s.encode(&data);
        for bit in 0..(enc.len() as u64 * 8) {
            let mut bad = enc.clone();
            flip_bit(&mut bad, bit);
            let (out, _) = s.decode(&bad, data.len()).unwrap();
            assert_eq!(out, data, "bit {bit} not corrected");
        }
    }

    #[test]
    fn detects_every_double_bit_flip_within_a_block_w8() {
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
    fn detects_double_bit_flips_within_w64_block() {
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
    fn corrects_one_flip_per_block_independently() {
        let s = SecDed::w64();
        let data = sample(8 * 100);
        let mut enc = s.encode(&data);
        for i in 0..100u64 {
            flip_bit(&mut enc, i * 64 + ((i * 13) % 64));
        }
        let (out, report) = s.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
        assert_eq!(report.corrected_bits, 100);
    }

    #[test]
    fn ragged_tail_corrects() {
        let s = SecDed::w64();
        let data = sample(21);
        let enc = s.encode(&data);
        for bit in 0..(data.len() as u64 * 8) {
            let mut bad = enc.clone();
            flip_bit(&mut bad, bit);
            let (out, _) = s.decode(&bad, data.len()).unwrap();
            assert_eq!(out, data, "tail bit {bit}");
        }
    }

    #[test]
    fn overheads_match_paper_widths() {
        assert!((SecDed::w8().storage_overhead() - 5.0 / 8.0).abs() < 1e-12);
        assert!((SecDed::w64().storage_overhead() - 0.125).abs() < 1e-12);
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
        let s = SecDed::w64();
        let enc = s.encode(&[]);
        assert!(enc.is_empty());
        assert!(s.decode(&enc, 0).unwrap().0.is_empty());
    }
}
