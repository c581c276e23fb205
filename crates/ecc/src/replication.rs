//! N-modular replication: the "keep multiple copies" baseline ECC.
//!
//! §2.2 motivates ECC as "requir\[ing\] significantly less overhead compared
//! to keeping multiple copies of a dataset". This codec makes that
//! comparison concrete: it stores `copies − 1` extra replicas and repairs
//! by majority vote per byte (with ≥3 copies) or detects divergence (with
//! 2). It also anchors the extension API added per the paper's future work
//! ("adding additional ECC algorithms").
//!
//! Voting corrects any damage pattern in which, for every byte position,
//! a strict majority of replicas agree — including long bursts confined to
//! a minority of replicas — at 100·(copies−1)% storage overhead.

use crate::codec::{Capability, CorrectionReport, EccError, EccScheme};
use crate::crc::crc32;

/// Replication codec configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Replication {
    /// Total copies stored (the original plus `copies − 1` replicas).
    pub copies: usize,
}

impl Replication {
    /// Create a replication scheme; `copies` must be ≥ 2.
    pub fn new(copies: usize) -> Result<Replication, EccError> {
        if !(2..=16).contains(&copies) {
            return Err(EccError::InvalidConfig(format!(
                "replication: copies must be in 2..=16, got {copies}"
            )));
        }
        Ok(Replication { copies })
    }

    /// Triple modular redundancy.
    pub fn tmr() -> Replication {
        Replication { copies: 3 }
    }
}

impl EccScheme for Replication {
    fn name(&self) -> &'static str {
        "replication"
    }

    fn parity_len(&self, data_len: usize) -> usize {
        // Replicas plus a CRC per copy (original included) so two-copy mode
        // can tell *which* copy is good, and vote ties can be broken.
        (self.copies - 1) * data_len + 4 * self.copies
    }

    fn storage_overhead(&self) -> f64 {
        (self.copies - 1) as f64
    }

    fn encode_parity_into(&self, data: &[u8], parity: &mut [u8]) {
        // arc-lint: allow(decode-no-panic-transitive, encode-side contract check: every caller sizes parity with parity_len, as EccScheme::encode_parity_into requires)
        assert_eq!(parity.len(), self.parity_len(data.len()), "parity region size mismatch");
        let n = data.len();
        let (replicas, crc_table) = parity.split_at_mut((self.copies - 1) * n);
        if n > 0 {
            for replica in replicas.chunks_exact_mut(n) {
                replica.copy_from_slice(data);
            }
        }
        let crc = crc32(data).to_le_bytes();
        for slot in crc_table.chunks_exact_mut(4) {
            slot.copy_from_slice(&crc);
        }
    }

    fn verify_and_correct(
        &self,
        data: &mut [u8],
        parity: &mut [u8],
    ) -> Result<CorrectionReport, EccError> {
        let n = data.len();
        let expected = self.parity_len(n);
        if parity.len() != expected {
            return Err(EccError::Malformed {
                detail: format!(
                    "replication parity region {} bytes, expected {expected}",
                    parity.len()
                ),
            });
        }
        let (replicas, crc_table) = parity.split_at_mut((self.copies - 1) * n);
        let crc_table = crc_table.as_chunks_mut::<4>().0;
        // The replicas, `n` bytes each. `chunks_exact(0)` panics, and an
        // empty buffer's replicas are empty, so it walks them one byte wide.
        let width = n.max(1);
        // Majority-vote the stored CRC.
        let crcs: Vec<u32> = crc_table.iter().map(|c| u32::from_le_bytes(*c)).collect();
        let voted_crc = majority(&crcs);
        let mut report =
            CorrectionReport { blocks_checked: self.copies as u64, ..Default::default() };
        // Fast path: the primary copy checks out.
        if let Some(vc) = voted_crc {
            if crc32(data) == vc {
                repair_side_data(data, replicas, crc_table, vc, &mut report);
                return Ok(report);
            }
            // Any intact replica restores the data directly.
            if let Some(rep) = replicas.chunks_exact(width).find(|rep| crc32(rep) == vc) {
                data.copy_from_slice(rep);
                report.corrected_devices += 1;
                repair_side_data(data, replicas, crc_table, vc, &mut report);
                return Ok(report);
            }
        }
        // Every copy is damaged (or the CRC vote failed): byte-wise vote.
        if self.copies < 3 {
            return Err(EccError::Uncorrectable {
                scheme: "replication",
                detail: "both copies damaged; two-copy mode can only detect".into(),
            });
        }
        let mut corrected_bytes = 0u64;
        // One cursor per replica, advanced in step with the primary's bytes.
        let mut cursors: Vec<_> = replicas.chunks_exact(width).map(|rep| rep.iter()).collect();
        // arc-lint: bounded(copies is a small config constant validated at construction)
        let mut counts: Vec<(u8, usize)> = Vec::with_capacity(self.copies);
        for (i, byte) in data.iter_mut().enumerate() {
            counts.clear();
            let mut bump = |b: u8| {
                if let Some(e) = counts.iter_mut().find(|(v, _)| *v == b) {
                    e.1 += 1;
                } else {
                    counts.push((b, 1));
                }
            };
            bump(*byte);
            for rep in &mut cursors {
                if let Some(&b) = rep.next() {
                    bump(b);
                }
            }
            // `counts` always holds at least the primary's byte; the zero-vote
            // fallback routes the impossible case to the uncorrectable branch.
            let (winner, votes) =
                counts.iter().copied().max_by_key(|&(_, c)| c).unwrap_or((*byte, 0));
            if votes * 2 <= self.copies {
                return Err(EccError::Uncorrectable {
                    scheme: "replication",
                    detail: format!("no byte-level majority at offset {i}"),
                });
            }
            if *byte != winner {
                *byte = winner;
                corrected_bytes += 1;
            }
        }
        // Re-derive side data from the voted result.
        let vc = crc32(data);
        repair_side_data(data, replicas, crc_table, vc, &mut report);
        report.corrected_bits += corrected_bytes * 8;
        Ok(report)
    }

    fn capability(&self) -> Capability {
        Capability {
            detects_sparse: true,
            corrects_sparse: self.copies >= 3,
            corrects_burst: self.copies >= 3,
            // Votes survive any rate as long as no byte position is hit in
            // a majority of copies; conservative published figure mirrors
            // RS-class strength.
            correctable_per_mb: if self.copies >= 3 { 1024.0 } else { 0.0 },
        }
    }
}

/// Majority element of a small slice, if any.
fn majority(values: &[u32]) -> Option<u32> {
    values.iter().find(|&&v| values.iter().filter(|&&x| x == v).count() * 2 > values.len()).copied()
}

/// After the data is known-good, rewrite damaged replicas and CRC entries.
fn repair_side_data(
    data: &[u8],
    replicas: &mut [u8],
    crc_table: &mut [[u8; 4]],
    voted_crc: u32,
    report: &mut CorrectionReport,
) {
    // One byte wide for an empty buffer, as in `verify_and_correct`.
    for rep in replicas.chunks_exact_mut(data.len().max(1)) {
        if rep != data {
            rep.copy_from_slice(data);
            report.corrected_devices += 1;
        }
    }
    let voted = voted_crc.to_le_bytes();
    for c in crc_table.iter_mut().filter(|c| **c != voted) {
        *c = voted;
        report.corrected_bits += 1;
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 41) ^ (i >> 4)) as u8).collect()
    }

    #[test]
    fn validates_copies() {
        assert!(Replication::new(1).is_err());
        assert!(Replication::new(17).is_err());
        assert!(Replication::new(2).is_ok());
        assert_eq!(Replication::tmr().copies, 3);
    }

    #[test]
    fn clean_round_trip() {
        for copies in [2usize, 3, 5] {
            let r = Replication::new(copies).unwrap();
            let data = sample(500);
            let enc = r.encode(&data);
            assert_eq!(enc.len(), data.len() + r.parity_len(data.len()));
            let (out, report) = r.decode(&enc, data.len()).unwrap();
            assert_eq!(out, data);
            assert!(report.is_clean(), "copies={copies}");
        }
    }

    #[test]
    fn tmr_survives_total_loss_of_primary() {
        let r = Replication::tmr();
        let data = sample(300);
        let mut enc = r.encode(&data);
        for b in &mut enc[..300] {
            *b = 0xEE;
        }
        let (out, report) = r.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
        assert!(report.corrected_devices >= 1);
    }

    #[test]
    fn tmr_survives_scattered_damage_across_all_copies() {
        // Different byte positions damaged in each copy: vote still wins.
        let r = Replication::tmr();
        let data = sample(300);
        let mut enc = r.encode(&data);
        enc[10] ^= 0xFF; // primary
        enc[300 + 200] ^= 0xFF; // replica 0
        enc[600 + 100] ^= 0xFF; // replica 1
        let (out, _) = r.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn vote_fails_when_majority_is_damaged_at_same_offset() {
        let r = Replication::tmr();
        let data = sample(100);
        let mut enc = r.encode(&data);
        // Same offset, same garbage, in 2 of 3 copies *plus* distinct
        // damage elsewhere in each copy so no copy passes its CRC.
        enc[50] = 0xAB;
        enc[100 + 50] = 0xAB;
        enc[200 + 75] ^= 0x01;
        match r.decode(&enc, data.len()) {
            Err(_) => {}
            Ok((out, _)) => {
                // A same-value collusion at one offset wins the vote and
                // silently corrupts — the classic TMR common-mode limit.
                assert_ne!(out, data);
            }
        }
    }

    #[test]
    fn two_copies_detect_but_cannot_correct_double_damage() {
        let r = Replication::new(2).unwrap();
        let data = sample(200);
        let mut enc = r.encode(&data);
        enc[5] ^= 0x01;
        enc[200 + 150] ^= 0x10;
        assert!(r.decode(&enc, data.len()).is_err());
    }

    #[test]
    fn two_copies_recover_from_single_copy_damage() {
        let r = Replication::new(2).unwrap();
        let data = sample(200);
        let mut enc = r.encode(&data);
        enc[7] ^= 0x40; // only the primary is hit
        let (out, _) = r.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn corrupted_crc_table_self_heals() {
        let r = Replication::tmr();
        let data = sample(64);
        let mut enc = r.encode(&data);
        let crc_base = data.len() + 2 * data.len();
        enc[crc_base + 1] ^= 0xFF;
        let (out, report) = r.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
        assert!(!report.is_clean());
    }

    #[test]
    fn overhead_reflects_copies() {
        assert_eq!(Replication::new(2).unwrap().storage_overhead(), 1.0);
        assert_eq!(Replication::tmr().storage_overhead(), 2.0);
    }

    #[test]
    fn capability_matches_copy_count() {
        assert!(!Replication::new(2).unwrap().capability().corrects_sparse);
        assert!(Replication::tmr().capability().corrects_burst);
    }

    #[test]
    fn empty_input() {
        let r = Replication::tmr();
        let enc = r.encode(&[]);
        let (out, _) = r.decode(&enc, 0).unwrap();
        assert!(out.is_empty());
    }
}
