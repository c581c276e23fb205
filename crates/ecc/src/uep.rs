//! Unequal error protection: a strong head code, a light tail code.
//!
//! ARC's fault study (§4.1.1 of the paper) shows corruption consequence is
//! wildly position-dependent in lossy-compressed streams: a flip inside an
//! SZ Huffman table or a ZFP block header destroys the whole decode, while
//! a flip in a bit-plane tail costs bounded point error. Uniform codes pay
//! the worst-case rate everywhere; [`Uep`] instead splits each protected
//! region at a byte boundary and runs a *stronger* scheme over the first
//! `head_len` bytes and a cheaper one over the rest, concatenating the two
//! parity regions (head parity first).
//!
//! Under the chunk-parallel driver the split applies per chunk, so the
//! first chunk — where SZ puts its Huffman table and ZFP its stream
//! header — always lands in head protection, and every later chunk donates
//! its first `head_len` bytes as a hedge for block-metadata locality.
//!
//! The [`uep_sz`]/[`uep_zfp`] presets pair a heavy and a light
//! [`RsBlock`]: strong unknown-location correction where a hit is fatal,
//! ~0.5–1.8 % asymptotic overhead where it is not.

use crate::codec::{Capability, CorrectionReport, EccError, EccScheme};
use crate::rsblock::RsBlock;

/// Two-tier unequal error protection over a head/tail byte split.
#[derive(Debug, Clone)]
pub struct Uep<H: EccScheme, T: EccScheme> {
    head: H,
    tail: T,
    head_len: usize,
}

impl<H: EccScheme, T: EccScheme> Uep<H, T> {
    /// Protect the first `head_len` bytes of each region with `head`, the
    /// remainder with `tail`.
    pub fn new(head: H, tail: T, head_len: usize) -> Result<Uep<H, T>, EccError> {
        if head_len == 0 {
            return Err(EccError::InvalidConfig("uep: head_len must be at least 1 byte".into()));
        }
        Ok(Uep { head, tail, head_len })
    }

    /// The strong-code prefix length in bytes.
    pub fn head_len(&self) -> usize {
        self.head_len
    }

    /// The head (strong) scheme.
    pub fn head(&self) -> &H {
        &self.head
    }

    /// The tail (light) scheme.
    pub fn tail(&self) -> &T {
        &self.tail
    }

    fn split(&self, data_len: usize) -> usize {
        self.head_len.min(data_len)
    }
}

impl<H: EccScheme, T: EccScheme> EccScheme for Uep<H, T> {
    fn name(&self) -> &'static str {
        "uep"
    }

    fn parity_len(&self, data_len: usize) -> usize {
        let h = self.split(data_len);
        self.head.parity_len(h) + self.tail.parity_len(data_len - h)
    }

    fn storage_overhead(&self) -> f64 {
        // Asymptotic: the head is a fixed-size prefix, so the tail rate
        // dominates as the region grows.
        self.tail.storage_overhead()
    }

    fn encode_parity_into(&self, data: &[u8], parity: &mut [u8]) {
        assert_eq!(parity.len(), self.parity_len(data.len()), "parity region size mismatch");
        let h = self.split(data.len());
        let (hd, td) = data.split_at(h);
        let (hp, tp) = parity.split_at_mut(self.head.parity_len(h));
        self.head.encode_parity_into(hd, hp);
        self.tail.encode_parity_into(td, tp);
    }

    fn verify_and_correct(
        &self,
        data: &mut [u8],
        parity: &mut [u8],
    ) -> Result<CorrectionReport, EccError> {
        let expected = self.parity_len(data.len());
        if parity.len() != expected {
            return Err(EccError::Malformed {
                detail: format!("uep parity region {} bytes, expected {expected}", parity.len()),
            });
        }
        let h = self.split(data.len());
        let hp_len = self.head.parity_len(h);
        let (hd, td) = data.split_at_mut(h);
        let (hp, tp) = parity.split_at_mut(hp_len);
        let mut report = self.head.verify_and_correct(hd, hp)?;
        report.merge(&self.tail.verify_and_correct(td, tp)?);
        Ok(report)
    }

    fn capability(&self) -> Capability {
        let h = self.head.capability();
        let t = self.tail.capability();
        Capability {
            detects_sparse: h.detects_sparse && t.detects_sparse,
            corrects_sparse: h.corrects_sparse && t.corrects_sparse,
            corrects_burst: h.corrects_burst && t.corrects_burst,
            // The advertised uniform rate is the weaker tier's; the head
            // tier's surplus is the point of the scheme, not a promise.
            correctable_per_mb: h.correctable_per_mb.min(t.correctable_per_mb),
        }
    }

    fn min_bytes_per_thread(&self) -> usize {
        self.head.min_bytes_per_thread().max(self.tail.min_bytes_per_thread())
    }
}

/// SZ preset: RS(191|64) over the first 64 KiB of each chunk (Huffman
/// table territory — 32 unknown-location byte repairs per codeword), a
/// light RS(247|8) over bit-plane tails (~3.3 % asymptotic overhead).
pub fn uep_sz() -> Result<Uep<RsBlock, RsBlock>, EccError> {
    Uep::new(RsBlock::new(64)?, RsBlock::new(8)?, 64 * 1024)
}

/// ZFP preset: RS(223|32) over the first 16 KiB of each chunk (stream
/// header + leading block metadata), RS(251|4) over the rest (~1.6 %
/// asymptotic overhead).
pub fn uep_zfp() -> Result<Uep<RsBlock, RsBlock>, EccError> {
    Uep::new(RsBlock::new(32)?, RsBlock::new(4)?, 16 * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 193) ^ (i >> 4)) as u8).collect()
    }

    #[test]
    fn validates_head_len() {
        let h = RsBlock::new(16).unwrap();
        let t = RsBlock::new(4).unwrap();
        assert!(Uep::new(h.clone(), t.clone(), 0).is_err());
        assert!(Uep::new(h, t, 1024).is_ok());
    }

    #[test]
    fn clean_round_trip_spanning_the_split() {
        let s = Uep::new(RsBlock::new(16).unwrap(), RsBlock::new(4).unwrap(), 1024).unwrap();
        for n in [0usize, 1, 1023, 1024, 1025, 4096, 20_000] {
            let data = sample(n);
            let enc = s.encode(&data);
            assert_eq!(enc.len(), n + s.parity_len(n));
            let (out, report) = s.decode(&enc, n).unwrap();
            assert_eq!(out, data, "n={n}");
            assert!(report.is_clean());
        }
    }

    #[test]
    fn head_survives_damage_that_would_kill_the_tail_code() {
        let s = Uep::new(RsBlock::new(64).unwrap(), RsBlock::new(8).unwrap(), 1024).unwrap();
        let data = sample(8192);
        let enc = s.encode(&data);
        let mut bad = enc.clone();
        // 20 corrupted bytes inside the first head codeword: far beyond the
        // tail code's 4-per-codeword budget, within the head's 32.
        for b in &mut bad[50..70] {
            *b ^= 0xC3;
        }
        let (out, report) = s.decode(&bad, data.len()).unwrap();
        assert_eq!(out, data);
        assert_eq!(report.corrected_bits, 20);

        // The same damage against the bare tail code fails.
        let tail = RsBlock::new(8).unwrap();
        let mut bare = tail.encode(&data);
        for b in &mut bare[50..70] {
            *b ^= 0xC3;
        }
        let r = tail.decode(&bare, data.len());
        assert!(r.is_err() || r.is_ok_and(|(out, _)| out != data));
    }

    #[test]
    fn tail_damage_within_budget_is_corrected() {
        let s = uep_zfp().unwrap();
        let n = 64 * 1024;
        let data = sample(n);
        let enc = s.encode(&data);
        let mut bad = enc.clone();
        // 2 corrupted bytes in one tail codeword (budget: 2 per codeword).
        bad[40_000] ^= 0xFF;
        bad[40_001] ^= 0xFF;
        let (out, _) = s.decode(&bad, n).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn presets_build_and_advertise_sane_tradeoffs() {
        let sz = uep_sz().unwrap();
        let zfp = uep_zfp().unwrap();
        assert!(sz.storage_overhead() < 0.04);
        assert!(zfp.storage_overhead() < 0.02);
        for cap in [sz.capability(), zfp.capability()] {
            assert!(cap.detects_sparse && cap.corrects_sparse && cap.corrects_burst);
            assert!(cap.correctable_per_mb >= 1.0);
        }
        // The head tier must actually be stronger than the tail tier.
        assert!(sz.head().max_errors() > sz.tail().max_errors());
        assert!(zfp.head().max_errors() > zfp.tail().max_errors());
    }

    #[test]
    fn parity_layout_is_head_then_tail() {
        let s = Uep::new(RsBlock::new(16).unwrap(), RsBlock::new(4).unwrap(), 500).unwrap();
        let n = 2000;
        assert_eq!(
            s.parity_len(n),
            RsBlock::new(16).unwrap().parity_len(500) + RsBlock::new(4).unwrap().parity_len(1500)
        );
        // Short regions fall entirely into the head tier.
        assert_eq!(s.parity_len(100), RsBlock::new(16).unwrap().parity_len(100));
    }

    #[test]
    fn malformed_parity_length_rejected() {
        let s = uep_sz().unwrap();
        let mut data = sample(100);
        let mut parity = vec![0u8; 1];
        assert!(matches!(
            s.verify_and_correct(&mut data, &mut parity),
            Err(EccError::Malformed { .. })
        ));
    }
}
