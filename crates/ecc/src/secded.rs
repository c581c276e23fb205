//! SEC-DED (single-error-correct, double-error-detect) extended Hamming codes.
//!
//! ARC's SEC-DED is the Hamming code of [`crate::hamming`] plus one overall
//! parity bit per block (§2.2). The extra bit disambiguates single errors
//! (overall parity flips) from double errors (overall parity holds while the
//! syndrome is non-zero), which plain Hamming silently miscorrects. This is
//! the scheme ARC selects for the paper's §6.3 resiliency evaluation
//! (1 error/MB → SEC-DED over every eight bytes). Encode and decode are
//! [`crate::hamming`]'s one SEC kernel with the overall bit switched on.

use crate::codec::{Capability, CorrectionReport, EccError, EccScheme};
use crate::hamming::{BlockWidth, Sec};

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

    fn kernel(&self) -> Sec<true> {
        Sec(self.width)
    }
}

impl EccScheme for SecDed {
    fn name(&self) -> &'static str {
        Sec::<true>::NAME
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
    use crate::bits::{flip_bit, set_bit};
    use crate::hamming::{layout, load_block, overall};

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
                let pb = lay.r as u64 + 1;
                for i in 0..len.div_ceil(s.width.data_bytes()) {
                    let block = load_block(&data, i, s.width);
                    let ham = lay.parity_of(block);
                    let base = i as u64 * pb;
                    for bit in 0..lay.r {
                        if ham & (1 << bit) != 0 {
                            set_bit(&mut reference, base + bit as u64, true);
                        }
                    }
                    if overall(block, ham) {
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
