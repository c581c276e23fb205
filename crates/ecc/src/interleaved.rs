//! Byte-lane interleaving wrapper: burst protection for any inner scheme.
//!
//! The crate's one interleaver, generic over the inner [`EccScheme`]: the
//! data region is split round-robin into `depth` byte lanes (lane `j` holds
//! bytes `j, j+depth, j+2·depth, …`), the inner scheme encodes each lane
//! independently, and the parity region is the concatenation of the
//! per-lane parities in lane order.
//!
//! A contiguous run of `b ≤ depth` corrupted bytes in the *data region*
//! touches each lane at most once, so a burst that would overwhelm one
//! inner codeword is diluted into `b` single-**byte** errors in `b`
//! different codewords. That helps an inner code that corrects whole
//! symbols; a bit-correcting inner code (SEC-DED, Hamming, BCH) still sees
//! up to eight flipped bits in one codeword and gains nothing, which is why
//! [`EccScheme::capability`] here passes the inner code's burst flag
//! through unchanged. Wrapped around [`crate::rsblock::RsBlock`] this turns a
//! `t`-byte-per-codeword code into one that absorbs data bursts of up to
//! `depth · t` bytes — at *identical* parity overhead to the bare inner
//! code. The parity region itself stays lane-contiguous, so a burst there
//! is bounded by the inner per-codeword budget; parity is a small fraction
//! of the stream, which keeps that exposure proportionally small.

use crate::codec::{Capability, CorrectionReport, EccError, EccScheme};

/// Maximum interleave depth (byte lanes per buffer).
pub const MAX_INTERLEAVE_DEPTH: usize = 4096;

/// Round-robin byte-lane interleaver over an inner [`EccScheme`].
#[derive(Debug, Clone)]
pub struct Interleaved<S: EccScheme> {
    inner: S,
    depth: usize,
}

impl<S: EccScheme> Interleaved<S> {
    /// Wrap `inner` with `depth` byte lanes (2..=4096).
    pub fn new(inner: S, depth: usize) -> Result<Interleaved<S>, EccError> {
        if !(2..=MAX_INTERLEAVE_DEPTH).contains(&depth) {
            return Err(EccError::InvalidConfig(format!(
                "interleaved: depth must be in 2..={MAX_INTERLEAVE_DEPTH}, got {depth}"
            )));
        }
        Ok(Interleaved { inner, depth })
    }

    /// Number of byte lanes.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The wrapped inner scheme.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Length of lane `j` for a data region of `data_len` bytes.
    fn lane_len(&self, data_len: usize, j: usize) -> usize {
        data_len / self.depth + usize::from(j < data_len % self.depth)
    }
}

impl<S: EccScheme> EccScheme for Interleaved<S> {
    fn name(&self) -> &'static str {
        "interleaved"
    }

    fn parity_len(&self, data_len: usize) -> usize {
        (0..self.depth).map(|j| self.inner.parity_len(self.lane_len(data_len, j))).sum()
    }

    fn storage_overhead(&self) -> f64 {
        // Interleaving permutes bytes; it adds no parity of its own.
        self.inner.storage_overhead()
    }

    fn encode_parity_into(&self, data: &[u8], parity: &mut [u8]) {
        assert_eq!(parity.len(), self.parity_len(data.len()), "parity region size mismatch");
        let mut lane = Vec::with_capacity(self.lane_len(data.len(), 0));
        let mut off = 0usize;
        for j in 0..self.depth {
            lane.clear();
            lane.extend(data.iter().skip(j).step_by(self.depth));
            let plen = self.inner.parity_len(lane.len());
            // arc-lint: bounded(assert above pins parity.len() to the sum of per-lane plens)
            self.inner.encode_parity_into(&lane, &mut parity[off..off + plen]);
            off += plen;
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
                    "interleaved parity region {} bytes, expected {expected}",
                    parity.len()
                ),
            });
        }
        let mut report = CorrectionReport::default();
        // arc-lint: bounded(lane scratch is at most data_len / depth + 1 bytes)
        let mut lane = Vec::with_capacity(self.lane_len(data.len(), 0));
        let mut rest = &mut *parity;
        for j in 0..self.depth {
            lane.clear();
            lane.extend(data.iter().skip(j).step_by(self.depth));
            let plen = self.inner.parity_len(lane.len());
            if plen > rest.len() {
                return Err(EccError::Malformed {
                    detail: format!("interleaved parity region exhausted at lane {j}"),
                });
            }
            let (pslot, tail) = rest.split_at_mut(plen);
            rest = tail;
            let lane_report = self.inner.verify_and_correct(&mut lane, pslot)?;
            if !lane_report.is_clean() {
                // Scatter repaired lane bytes back into the data region.
                for (dst, src) in data.iter_mut().skip(j).step_by(self.depth).zip(lane.iter()) {
                    *dst = *src;
                }
            }
            report.merge(&lane_report);
        }
        Ok(report)
    }

    fn capability(&self) -> Capability {
        let inner = self.inner.capability();
        Capability {
            detects_sparse: inner.detects_sparse,
            corrects_sparse: inner.corrects_sparse,
            // A burst of ≤ depth bytes lands as one whole corrupted byte per
            // lane. Only an inner code that already corrects dense damage
            // (symbols, not bits) absorbs that; lanes widen its reach, they
            // do not create it.
            corrects_burst: inner.corrects_burst,
            correctable_per_mb: inner.correctable_per_mb,
        }
    }

    fn min_bytes_per_thread(&self) -> usize {
        self.inner.min_bytes_per_thread()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsblock::RsBlock;
    use crate::secded::SecDed;

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 131) ^ (i >> 5)) as u8).collect()
    }

    fn scheme(depth: usize) -> Interleaved<RsBlock> {
        Interleaved::new(RsBlock::new(32).unwrap(), depth).unwrap()
    }

    #[test]
    fn validates_depth() {
        let inner = RsBlock::new(8).unwrap();
        assert!(Interleaved::new(inner.clone(), 1).is_err());
        assert!(Interleaved::new(inner.clone(), 4097).is_err());
        assert!(Interleaved::new(inner, 2).is_ok());
    }

    #[test]
    fn clean_round_trip_various_sizes() {
        let s = scheme(16);
        for n in [0usize, 1, 15, 16, 17, 223, 1000, 16 * 223, 50_000] {
            let data = sample(n);
            let enc = s.encode(&data);
            assert_eq!(enc.len(), n + s.parity_len(n));
            let (out, report) = s.decode(&enc, n).unwrap();
            assert_eq!(out, data, "n={n}");
            assert!(report.is_clean());
        }
    }

    #[test]
    fn parity_len_matches_bare_inner_totals() {
        // Interleaving must not change the total parity bill when lanes
        // split evenly into whole codewords.
        let inner = RsBlock::new(32).unwrap();
        let s = Interleaved::new(inner.clone(), 8).unwrap();
        let n = 8 * 223 * 4; // every lane is exactly 4 full codewords
        assert_eq!(s.parity_len(n), inner.parity_len(n));
        assert_eq!(s.storage_overhead(), inner.storage_overhead());
    }

    #[test]
    fn absorbs_burst_that_defeats_bare_inner() {
        let inner = RsBlock::new(32).unwrap();
        let s = Interleaved::new(inner.clone(), 64).unwrap();
        let data = sample(64 * 223);
        let enc = s.encode(&data);

        // A 60-byte contiguous burst: bare RsBlock(32) corrects only 16
        // bytes per codeword, so the same damage on its own encoding fails.
        let mut bare = inner.encode(&data);
        for b in &mut bare[100..160] {
            *b ^= 0xFF;
        }
        let bare_result = inner.decode(&bare, data.len());
        assert!(
            bare_result.is_err() || bare_result.is_ok_and(|(out, _)| out != data),
            "bare inner should not survive a 60-byte burst"
        );

        let mut burst = enc.clone();
        for b in &mut burst[100..160] {
            *b ^= 0xFF;
        }
        let (out, report) = s.decode(&burst, data.len()).unwrap();
        assert_eq!(out, data);
        assert!(!report.is_clean());
    }

    #[test]
    fn parity_region_damage_within_inner_budget_is_survivable() {
        // The parity region is lane-contiguous (not interleaved), so a
        // parity burst lands in ONE inner codeword and is bounded by the
        // inner per-codeword budget (t = 16 here) rather than depth·t.
        let s = scheme(32);
        let data = sample(32 * 223);
        let enc = s.encode(&data);
        let mut bad = enc.clone();
        let pstart = data.len();
        for b in &mut bad[pstart + 5..pstart + 15] {
            *b ^= 0x5A;
        }
        let (out, _) = s.decode(&bad, data.len()).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn capability_reports_burst_only_when_the_inner_code_corrects_bursts() {
        let cap = scheme(16).capability();
        assert!(cap.corrects_burst && cap.corrects_sparse);
        let inner_cap = RsBlock::new(32).unwrap().capability();
        assert_eq!(cap.correctable_per_mb, inner_cap.correctable_per_mb);

        // Symbol-correcting inner: a depth × t byte run is t bytes per lane.
        let (depth, t) = (16usize, 16usize);
        let s = scheme(depth);
        let data = sample(depth * 223 * 2);
        let mut enc = s.encode(&data);
        for b in &mut enc[500..500 + depth * t] {
            *b = !*b;
        }
        assert_eq!(s.decode(&enc, data.len()).unwrap().0, data);

        // Bit-correcting inner: byte lanes hand SEC-DED a whole inverted
        // byte, so no burst claim and a typed error — never wrong bytes.
        let s = Interleaved::new(SecDed::w64(), 64).unwrap();
        let cap = s.capability();
        assert!(cap.corrects_sparse && !cap.corrects_burst);
        let data = sample(4096);
        let mut enc = s.encode(&data);
        for b in &mut enc[1000..1002] {
            *b = !*b;
        }
        assert!(matches!(s.decode(&enc, data.len()), Err(EccError::Uncorrectable { .. })));
    }

    #[test]
    fn malformed_parity_length_rejected() {
        let s = scheme(4);
        let mut data = sample(100);
        let mut parity = vec![0u8; 3];
        assert!(matches!(
            s.verify_and_correct(&mut data, &mut parity),
            Err(EccError::Malformed { .. })
        ));
    }
}
