//! Single-bit even parity over fixed-size data blocks.
//!
//! ARC's lightest scheme (§2.2, §5.2): one parity bit per block of
//! `bytes_per_parity_bit` data bytes ensures an even number of set bits.
//! Parity detects every odd-weight error in a block but corrects nothing and
//! misses even-weight errors. It is what ARC selects under tight storage and
//! throughput budgets when the user only asks for detection (§6.3 closes with
//! exactly this trade-off).

use crate::bits::{word_at, PackedBitWriter};
use crate::codec::{Capability, CorrectionReport, EccError, EccScheme};

/// Even-parity scheme configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parity {
    /// Data bytes covered by each parity bit. The paper's engine takes this
    /// as the direct user input to `arc_parity_encode()`.
    pub bytes_per_parity_bit: usize,
}

impl Parity {
    /// Create a parity scheme; `bytes_per_parity_bit` must be ≥ 1.
    pub(crate) fn new(bytes_per_parity_bit: usize) -> Result<Self, EccError> {
        if bytes_per_parity_bit == 0 {
            return Err(EccError::InvalidConfig(
                "parity: bytes_per_parity_bit must be >= 1".into(),
            ));
        }
        Ok(Parity { bytes_per_parity_bit })
    }

    fn blocks(&self, data_len: usize) -> usize {
        data_len.div_ceil(self.bytes_per_parity_bit)
    }

    #[inline]
    fn block_parity(block: &[u8]) -> bool {
        // Fold over u64 lanes, then one popcount of the folded word.
        let mut chunks = block.chunks_exact(8);
        let mut acc = 0u64;
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            acc ^= u64::from_le_bytes(w);
        }
        let mut tail = 0u8;
        for &b in chunks.remainder() {
            tail ^= b;
        }
        ((acc.count_ones() ^ tail.count_ones()) & 1) == 1
    }
}

impl EccScheme for Parity {
    fn name(&self) -> &'static str {
        "parity"
    }

    fn parity_len(&self, data_len: usize) -> usize {
        self.blocks(data_len).div_ceil(8)
    }

    fn storage_overhead(&self) -> f64 {
        1.0 / (8.0 * self.bytes_per_parity_bit as f64)
    }

    fn encode_parity_into(&self, data: &[u8], parity: &mut [u8]) {
        // arc-lint: allow(decode-no-panic-transitive, encode-side contract check: every caller sizes parity with parity_len, as EccScheme::encode_parity_into requires)
        assert_eq!(parity.len(), self.parity_len(data.len()), "parity region size mismatch");
        // One bit per block, accumulated and flushed as whole words; the
        // writer covers every parity byte so no fill(0) pass is needed.
        let mut w = PackedBitWriter::new(parity);
        for block in data.chunks(self.bytes_per_parity_bit) {
            w.push(Self::block_parity(block) as u64, 1);
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
                detail: format!("parity region {} bytes, expected {expected}", parity.len()),
            });
        }
        // Recompute parity 64 blocks at a time and compare whole words
        // against the stored region; mismatch bits identify bad blocks.
        let blocks = self.blocks(data.len());
        let mut bad_count = 0u64;
        let mut first_bad = usize::MAX;
        let mut chunks = data.chunks(self.bytes_per_parity_bit);
        let mut base = 0usize;
        while base < blocks {
            let in_word = (blocks - base).min(64);
            let mut acc = 0u64;
            for j in 0..in_word {
                // Block count matches chunk count by construction; `else`
                // ends the sweep instead of aborting.
                let Some(block) = chunks.next() else { break };
                acc |= (Self::block_parity(block) as u64) << j;
            }
            let stored = word_at(parity, base / 8);
            let mask = if in_word == 64 { u64::MAX } else { (1u64 << in_word) - 1 };
            let diff = (acc ^ stored) & mask;
            if diff != 0 {
                bad_count += diff.count_ones() as u64;
                if first_bad == usize::MAX {
                    first_bad = base + diff.trailing_zeros() as usize;
                }
            }
            base += in_word;
        }
        if bad_count == 0 {
            Ok(CorrectionReport { blocks_checked: blocks as u64, ..Default::default() })
        } else {
            Err(EccError::Uncorrectable {
                scheme: "parity",
                detail: format!(
                    "parity mismatch in {bad_count} block(s), first at block {first_bad}"
                ),
            })
        }
    }

    fn capability(&self) -> Capability {
        Capability {
            detects_sparse: true,
            corrects_sparse: false,
            corrects_burst: false,
            correctable_per_mb: 0.0,
        }
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
mod tests {
    use super::*;
    use crate::bits::flip_bit;

    #[test]
    fn rejects_zero_block_size() {
        assert!(Parity::new(0).is_err());
        assert!(Parity::new(1).is_ok());
    }

    #[test]
    fn clean_round_trip() {
        let p = Parity::new(8).unwrap();
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31) as u8).collect();
        let enc = p.encode(&data);
        assert_eq!(enc.len(), data.len() + p.parity_len(data.len()));
        let (out, report) = p.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
        assert!(report.is_clean());
        assert_eq!(report.blocks_checked, 125);
    }

    #[test]
    fn detects_every_single_bit_flip_in_data() {
        let p = Parity::new(4).unwrap();
        let data: Vec<u8> = (0..64u32).map(|i| i as u8).collect();
        let enc = p.encode(&data);
        for bit in 0..(data.len() as u64 * 8) {
            let mut bad = enc.clone();
            flip_bit(&mut bad, bit);
            assert!(p.decode(&bad, data.len()).is_err(), "bit {bit} undetected");
        }
    }

    #[test]
    fn detects_flip_in_parity_region() {
        let p = Parity::new(4).unwrap();
        let data = vec![0xABu8; 64];
        let mut enc = p.encode(&data);
        let parity_bit = data.len() as u64 * 8; // first bit of parity region
        flip_bit(&mut enc, parity_bit);
        assert!(p.decode(&enc, data.len()).is_err());
    }

    #[test]
    fn misses_even_weight_errors_in_one_block() {
        // Documented weakness: two flips in the same block cancel.
        let p = Parity::new(8).unwrap();
        let data = vec![0u8; 64];
        let mut enc = p.encode(&data);
        flip_bit(&mut enc, 0);
        flip_bit(&mut enc, 5);
        let (out, _) = p.decode(&enc, data.len()).unwrap();
        assert_ne!(out, data, "corruption slipped through as expected");
    }

    #[test]
    fn detects_odd_multibit_errors_across_blocks() {
        let p = Parity::new(8).unwrap();
        let data = vec![0x55u8; 128];
        let mut enc = p.encode(&data);
        for bit in [3u64, 100, 777] {
            flip_bit(&mut enc, bit);
        }
        assert!(p.decode(&enc, data.len()).is_err());
    }

    #[test]
    fn overhead_matches_block_size() {
        assert!((Parity::new(1).unwrap().storage_overhead() - 0.125).abs() < 1e-12);
        assert!((Parity::new(8).unwrap().storage_overhead() - 1.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn handles_ragged_tail_block() {
        let p = Parity::new(16).unwrap();
        let data = vec![0xFFu8; 33]; // 2 full blocks + 1-byte tail
        let enc = p.encode(&data);
        let (out, report) = p.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
        assert_eq!(report.blocks_checked, 3);
    }

    #[test]
    fn empty_input() {
        let p = Parity::new(8).unwrap();
        let enc = p.encode(&[]);
        assert!(enc.is_empty());
        let (out, _) = p.decode(&enc, 0).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn wrong_parity_length_is_malformed() {
        let p = Parity::new(8).unwrap();
        let mut data = vec![1u8; 64];
        let mut parity = vec![0u8; 99];
        assert!(matches!(
            p.verify_and_correct(&mut data, &mut parity),
            Err(EccError::Malformed { .. })
        ));
    }
}
