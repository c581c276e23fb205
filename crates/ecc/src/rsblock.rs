//! Block-interleaved codeword Reed-Solomon as an [`EccScheme`].
//!
//! [`crate::rscode::RsCodeword`] is the classical BCH-view RS codec: one
//! codeword, unknown-location correction via Berlekamp–Massey. This module
//! lifts it to the [`EccScheme`] contract so whole buffers can ride the
//! chunk-parallel driver: the data region is cut into messages of
//! `255 − nsym` bytes, each message gets its own `nsym`-byte parity block,
//! and the parity region is the concatenation of those blocks in order.
//!
//! Against ARC's built-in device-oriented RS (CRC-located erasures), this
//! trades throughput for *checksum-free* correction: up to ⌊nsym/2⌋
//! corrupted bytes per codeword are repaired with no side information at
//! all. It is the inner code of the `ileave-rs` extension family: the
//! burst-protection interleaver ([`crate::interleaved::Interleaved`])
//! weaves its codewords across lanes.

use crate::codec::{
    multi_correct_rate_per_mb, Capability, CorrectionReport, EccError, EccScheme, MB,
};
use crate::rscode::RsCodeword;

/// Codeword-level RS over GF(2^8): `255 − nsym`-byte messages, `nsym`
/// parity bytes each, ⌊nsym/2⌋ unknown-location byte corrections per
/// codeword.
#[derive(Debug, Clone)]
pub struct RsBlock {
    rs: RsCodeword,
}

impl RsBlock {
    /// Create a scheme with `nsym` parity bytes per codeword (2..=250).
    pub fn new(nsym: usize) -> Result<RsBlock, EccError> {
        if !(2..=250).contains(&nsym) {
            return Err(EccError::InvalidConfig(format!(
                "rs-block: nsym must be in 2..=250, got {nsym}"
            )));
        }
        Ok(RsBlock { rs: RsCodeword::new(nsym)? })
    }

    /// Parity bytes per codeword.
    pub fn nsym(&self) -> usize {
        self.rs.nsym
    }

    /// Data bytes per codeword.
    pub fn message_len(&self) -> usize {
        self.rs.max_message_len()
    }

    /// Unknown-location byte errors correctable per codeword.
    pub fn max_errors(&self) -> usize {
        self.rs.max_errors()
    }

    /// The codeword codec underneath, for the interleaver's lane kernel.
    pub(crate) fn codeword(&self) -> &RsCodeword {
        &self.rs
    }
}

impl EccScheme for RsBlock {
    fn name(&self) -> &'static str {
        "rs-block"
    }

    fn parity_len(&self, data_len: usize) -> usize {
        data_len.div_ceil(self.message_len()) * self.nsym()
    }

    fn storage_overhead(&self) -> f64 {
        self.nsym() as f64 / self.message_len() as f64
    }

    fn encode_parity_into(&self, data: &[u8], parity: &mut [u8]) {
        assert_eq!(parity.len(), self.parity_len(data.len()), "parity region size mismatch");
        for (msg, slot) in data.chunks(self.message_len()).zip(parity.chunks_exact_mut(self.nsym()))
        {
            self.rs.parity_into(msg, slot);
        }
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
                    "rs-block parity region {} bytes, expected {expected}",
                    parity.len()
                ),
            });
        }
        let mut report = CorrectionReport::default();
        for (msg, slot) in
            data.chunks_mut(self.message_len()).zip(parity.chunks_exact_mut(self.nsym()))
        {
            report.blocks_checked += 1;
            if !self.rs.is_clean(msg, slot) {
                // Symbol-granular repairs are tallied as corrected_bits
                // (one per repaired byte), mirroring the container header's
                // symbols-corrected accounting.
                report.corrected_bits += self.rs.repair(msg, slot)? as u64;
            }
        }
        Ok(report)
    }

    fn capability(&self) -> Capability {
        Capability {
            detects_sparse: true,
            corrects_sparse: true,
            // Bursts up to ⌊nsym/2⌋ bytes inside one codeword; the
            // interleaved wrapper stretches this across lanes.
            corrects_burst: true,
            correctable_per_mb: multi_correct_rate_per_mb(
                MB / self.message_len() as f64,
                self.max_errors(),
            ),
        }
    }

    fn min_bytes_per_thread(&self) -> usize {
        // One LFSR step per message byte is well below the bit-oriented
        // schemes' rate, so a worker pays for itself on a small job.
        1 << 20
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 67) ^ (i >> 3)) as u8).collect()
    }

    #[test]
    fn validates_nsym() {
        assert!(RsBlock::new(0).is_err());
        assert!(RsBlock::new(1).is_err());
        assert!(RsBlock::new(251).is_err());
        assert!(RsBlock::new(32).is_ok());
    }

    #[test]
    fn clean_round_trip_various_sizes() {
        let s = RsBlock::new(16).unwrap();
        for n in [0usize, 1, 100, 239, 240, 1000, 10_000] {
            let data = sample(n);
            let enc = s.encode(&data);
            assert_eq!(enc.len(), n + s.parity_len(n));
            let (out, report) = s.decode(&enc, n).unwrap();
            assert_eq!(out, data, "n={n}");
            assert!(report.is_clean());
        }
    }

    #[test]
    fn corrects_up_to_t_bytes_per_codeword() {
        let s = RsBlock::new(32).unwrap();
        let data = sample(1000);
        let enc = s.encode(&data);
        let mut bad = enc.clone();
        // 16 corrupted bytes confined to the first codeword's message.
        for b in &mut bad[10..26] {
            *b ^= 0xA5;
        }
        let (out, report) = s.decode(&bad, data.len()).unwrap();
        assert_eq!(out, data);
        assert_eq!(report.corrected_bits, 16);
    }

    #[test]
    fn burst_beyond_t_defeats_it() {
        let s = RsBlock::new(32).unwrap();
        let data = sample(1000);
        let enc = s.encode(&data);
        let mut bad = enc.clone();
        // 40 > t = 16 corrupted bytes inside one codeword: must not
        // silently return wrong data claiming success.
        for b in &mut bad[0..40] {
            *b ^= 0xFF;
        }
        match s.decode(&bad, data.len()) {
            Err(_) => {}
            Ok((out, _)) => assert_ne!(out, data),
        }
    }

    #[test]
    fn parity_region_damage_is_repaired() {
        let s = RsBlock::new(16).unwrap();
        let data = sample(500);
        let enc = s.encode(&data);
        let mut bad = enc.clone();
        let plen = s.parity_len(data.len());
        bad[data.len() + 3] ^= 0x77;
        bad[data.len() + plen - 1] ^= 0x01;
        let (out, report) = s.decode(&bad, data.len()).unwrap();
        assert_eq!(out, data);
        assert!(report.corrected_bits >= 1);
        // And the repaired buffer re-verifies clean.
        let mut buf = bad.clone();
        s.verify_and_correct_in_place(&mut buf, data.len()).unwrap();
        let report = s.verify_and_correct_in_place(&mut buf, data.len()).unwrap();
        assert!(report.is_clean());
    }

    #[test]
    fn overhead_and_capability() {
        let s = RsBlock::new(32).unwrap();
        assert_eq!(s.message_len(), 223);
        assert!((s.storage_overhead() - 32.0 / 223.0).abs() < 1e-12);
        let cap = s.capability();
        assert!(cap.corrects_sparse && cap.corrects_burst);
        assert!(cap.correctable_per_mb > 1000.0, "rate={}", cap.correctable_per_mb);
    }

    #[test]
    fn malformed_parity_length_rejected() {
        let s = RsBlock::new(8).unwrap();
        let mut data = sample(100);
        let mut parity = vec![0u8; 7];
        assert!(matches!(
            s.verify_and_correct(&mut data, &mut parity),
            Err(EccError::Malformed { .. })
        ));
    }
}
