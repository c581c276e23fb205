//! Codeword-level Reed-Solomon with unknown-location error correction.
//!
//! The device codec in [`crate::rs`] locates corruption with per-device
//! checksums and repairs it as erasures — Jerasure's model. This module is
//! the classical BCH-view alternative: systematic RS(n, k) codewords over
//! GF(2^8) decoded with syndromes → Berlekamp–Massey → Chien search → Forney,
//! correcting up to ⌊nsym/2⌋ *unknown-location* symbol errors per codeword.
//!
//! ARC uses this codec where checksums are unavailable: the self-describing
//! container header must be decodable before any metadata is trusted. It is
//! also benchmarked as an ablation against the CRC-erasure design.
//!
//! Encoding and the clean half of decoding are one kernel, the systematic
//! LFSR that divides by g(x), driven by [`crate::gf256::mul_acc_slice`] in
//! two orientations: along one codeword (`RsCodeword::parity_into`, the
//! register is the slice) and across up to 64 interleaved codewords at
//! once (`RsCodeword::parity_rows_into`, a row of symbols is the slice).
//! A received codeword is clean exactly when its recomputed parity equals
//! its stored parity; only one that disagrees becomes a `gf256::Poly` and meets
//! the decoder above.

use std::sync::OnceLock;

use crate::codec::EccError;
use crate::gf256::{mul_acc_slice, Gf, Poly};

/// Maximum codeword length in GF(2^8).
pub const MAX_CODEWORD: usize = 255;

/// Widest row the across-lanes orientation of the kernel takes: one
/// 512-bit vector, and `nsym` of them stay on the stack.
pub(crate) const STRIP: usize = 64;

/// Per-`nsym` LFSR taps: the coefficients of g(x) = ∏_{i<nsym} (x − α^i),
/// highest degree first, without the monic lead. Immutable once built, so
/// every codec with the same `nsym` shares them, and neither a header encode
/// nor a header decode takes a lock to find them.
static TAPS: [OnceLock<Vec<u8>>; MAX_CODEWORD] = [const { OnceLock::new() }; MAX_CODEWORD];

/// A systematic Reed-Solomon codeword codec with `nsym` parity symbols.
#[derive(Debug, Clone)]
pub struct RsCodeword {
    /// Number of parity symbols appended to each message.
    pub nsym: usize,
    taps: &'static [u8],
}

impl RsCodeword {
    /// Create a codec with `nsym` parity symbols (1 ≤ nsym < 255).
    pub fn new(nsym: usize) -> Result<RsCodeword, EccError> {
        let Some(cell) = TAPS.get(nsym).filter(|_| nsym != 0) else {
            return Err(EccError::InvalidConfig(format!(
                "rs codeword: nsym must be in 1..{MAX_CODEWORD}, got {nsym}"
            )));
        };
        let taps = cell.get_or_init(|| {
            let mut g = Poly::constant(Gf::ONE);
            for i in 0..nsym {
                g = g.mul(&Poly::from_coeffs(vec![Gf::alpha_pow(i), Gf::ONE]));
            }
            (0..nsym).rev().map(|i| g.coeff(i).0).collect()
        });
        Ok(RsCodeword { nsym, taps })
    }

    /// Errors correctable per codeword when locations are unknown.
    pub(crate) fn max_errors(&self) -> usize {
        self.nsym / 2
    }

    /// Largest message length encodable in one codeword.
    pub fn max_message_len(&self) -> usize {
        MAX_CODEWORD - self.nsym
    }

    /// The kernel, one codeword at a time: the remainder of msg·x^nsym mod
    /// g(x) into `parity` (`nsym` bytes, overwritten), by the systematic
    /// LFSR with the register as the slice. Total over any message length.
    pub(crate) fn parity_into(&self, msg: &[u8], parity: &mut [u8]) {
        // arc-lint: allow(decode-no-panic-transitive, every caller hands over an nsym-byte register: is_clean and encode split one at nsym, Interleaved slices its parity buffer to nsym)
        assert_eq!(parity.len(), self.nsym, "parity register must hold nsym symbols");
        parity.fill(0);
        for &symbol in msg {
            // Shift: the lead symbol comes round to the end, is taken as
            // feedback and leaves a zero behind.
            parity.rotate_left(1);
            let Some(last) = parity.last_mut() else { return };
            let feedback = Gf(symbol ^ std::mem::take(last));
            mul_acc_slice(parity, self.taps, feedback);
        }
    }

    /// The kernel across `w ≤ STRIP` independent codewords at once: row `r`
    /// of `rows` holds symbol `r` of all `w` messages, and `state`
    /// (`nsym · w` bytes, overwritten) ends as their parities, row `i`
    /// holding parity symbol `i` of each. The register rows form a ring —
    /// advancing the head replaces shifting `nsym · w` bytes per row.
    pub(crate) fn parity_rows_into<'a>(
        &self,
        rows: impl Iterator<Item = &'a [u8]>,
        w: usize,
        state: &mut [u8],
    ) {
        // arc-lint: allow(decode-no-panic-transitive, Interleaved, the one caller, passes w = STRIP.min(lanes left) >= 1 and a state slice split at nsym * w)
        assert!((1..=STRIP).contains(&w) && state.len() == self.nsym * w, "strip shape");
        state.fill(0);
        let mut feedback = [0u8; STRIP];
        let feedback = feedback.split_at_mut(w).0;
        let mut head = 0;
        for row in rows {
            let (back, front) = state.split_at_mut(head * w);
            let (lead, front) = front.split_at_mut(w);
            for ((f, l), r) in feedback.iter_mut().zip(lead.iter_mut()).zip(row) {
                *f = *l ^ *r;
                *l = 0;
            }
            let ring = front.chunks_exact_mut(w).chain(back.chunks_exact_mut(w));
            for (reg, &tap) in ring.chain(std::iter::once(lead)).zip(self.taps) {
                mul_acc_slice(reg, feedback, Gf(tap));
            }
            head = (head + 1) % self.nsym;
        }
        state.rotate_left(head * w);
    }

    /// The clean test is the encode kernel plus a compare: c(x) mod g(x) is
    /// rem(msg·x^nsym) + parity, and g's roots α^0..α^(nsym−1) are distinct,
    /// so recomputed parity equal to `parity` ⇔ g | c ⇔ every syndrome
    /// c(α^i) is zero.
    pub(crate) fn is_clean(&self, msg: &[u8], parity: &[u8]) -> bool {
        let mut recomputed = [0u8; MAX_CODEWORD];
        let recomputed = recomputed.split_at_mut(self.nsym).0;
        self.parity_into(msg, recomputed);
        recomputed == parity
    }

    /// Encode `msg`, returning `msg ‖ parity` (`msg.len() + nsym` bytes).
    ///
    /// # Panics
    /// Panics if the message is too long for one codeword.
    pub fn encode(&self, msg: &[u8]) -> Vec<u8> {
        // arc-lint: allow(decode-no-panic-transitive, encode side: the container's header and index writers, its callers, keep each message within max_message_len())
        assert!(
            msg.len() + self.nsym <= MAX_CODEWORD,
            "message of {} bytes exceeds RS({MAX_CODEWORD}) with nsym={}",
            msg.len(),
            self.nsym
        );
        // arc-lint: bounded(msg.len() + nsym <= 255 asserted above)
        let mut out = vec![0u8; msg.len() + self.nsym];
        let (head, parity) = out.split_at_mut(msg.len());
        head.copy_from_slice(msg);
        self.parity_into(msg, parity);
        out
    }

    fn codeword_poly(codeword: &[u8]) -> Poly {
        Poly::from_coeffs(codeword.iter().rev().map(|&b| Gf(b)).collect())
    }

    fn syndromes(&self, cw: &Poly) -> Vec<Gf> {
        (0..self.nsym).map(|i| cw.eval(Gf::alpha_pow(i))).collect()
    }

    /// Decode a received codeword, correcting up to ⌊nsym/2⌋ unknown errors.
    /// Returns the message portion and the number of symbols repaired.
    pub fn decode(&self, received: &[u8]) -> Result<(Vec<u8>, usize), EccError> {
        let (n, mut buf) = (received.len(), [0u8; MAX_CODEWORD]);
        let Some(codeword) = buf.get_mut(..n).filter(|_| n > self.nsym) else {
            return Err(self.bad_length(n));
        };
        codeword.copy_from_slice(received);
        let fixed = self.correct_in_place(codeword)?;
        let (msg, _parity) = codeword.split_at(n - self.nsym);
        Ok((msg.to_vec(), fixed))
    }

    fn bad_length(&self, n: usize) -> EccError {
        EccError::Malformed {
            detail: format!("rs codeword length {n} invalid for nsym={}", self.nsym),
        }
    }

    /// Verify `msg ‖ parity` held in two places and repair both in place;
    /// on an error neither is touched. Returns the symbols repaired.
    pub(crate) fn repair(&self, msg: &mut [u8], parity: &mut [u8]) -> Result<usize, EccError> {
        let (n, mut buf) = (msg.len() + parity.len(), [0u8; MAX_CODEWORD]);
        let Some(codeword) = buf.get_mut(..n) else { return Err(self.bad_length(n)) };
        let (m, p) = codeword.split_at_mut(msg.len());
        m.copy_from_slice(msg);
        p.copy_from_slice(parity);
        let fixed = self.correct_in_place(codeword)?;
        let (m, p) = codeword.split_at(msg.len());
        msg.copy_from_slice(m);
        parity.copy_from_slice(p);
        Ok(fixed)
    }

    /// Verify one received codeword and repair up to ⌊nsym/2⌋ unknown
    /// errors in place. Returns the symbols repaired; on an error the
    /// codeword may be partly rewritten.
    fn correct_in_place(&self, codeword: &mut [u8]) -> Result<usize, EccError> {
        let n = codeword.len();
        if n <= self.nsym || n > MAX_CODEWORD {
            return Err(self.bad_length(n));
        }
        let (msg, parity) = codeword.split_at(n - self.nsym);
        if self.is_clean(msg, parity) {
            return Ok(0);
        }
        let synd_poly = Poly::from_coeffs(self.syndromes(&Self::codeword_poly(codeword)));
        let locator = self.berlekamp_massey(&synd_poly)?;
        let positions = self.chien_search(&locator, n)?;
        if positions.len() != locator.degree() {
            return Err(EccError::Uncorrectable {
                scheme: "rs-codeword",
                detail: "error locator roots do not match its degree".into(),
            });
        }
        // Error evaluator Ω(x) = S(x)·Λ(x) mod x^nsym, then Forney.
        let x_nsym = Poly::constant(Gf::ONE).shift(self.nsym);
        let omega = synd_poly.mul(&locator).rem(&x_nsym);
        let loc_deriv = locator.derivative();
        for &pos in &positions {
            let j = n - 1 - pos;
            let xj = Gf::alpha_pow(j);
            let xj_inv = xj.inv();
            let denom = loc_deriv.eval(xj_inv);
            if denom == Gf::ZERO {
                return Err(EccError::Uncorrectable {
                    scheme: "rs-codeword",
                    detail: "Forney denominator vanished".into(),
                });
            }
            let magnitude = xj.mul(omega.eval(xj_inv)).div(denom);
            if let Some(symbol) = codeword.get_mut(pos) {
                *symbol ^= magnitude.0;
            }
        }
        // Paranoia: re-verify the repaired codeword.
        let recheck = self.syndromes(&Self::codeword_poly(codeword));
        if recheck.iter().any(|s| *s != Gf::ZERO) {
            return Err(EccError::Uncorrectable {
                scheme: "rs-codeword",
                detail: "syndromes non-zero after correction (too many errors)".into(),
            });
        }
        Ok(positions.len())
    }

    /// Berlekamp–Massey on the syndromes, bounded so that 2·errors ≤ nsym.
    fn berlekamp_massey(&self, synd: &Poly) -> Result<Poly, EccError> {
        let mut sigma = Poly::constant(Gf::ONE);
        let mut prev = Poly::constant(Gf::ONE);
        let mut l = 0usize;
        let mut m = 1usize;
        let mut b = Gf::ONE;
        for i in 0..self.nsym {
            let mut delta = synd.coeff(i);
            for j in 1..=l {
                delta = delta.add(sigma.coeff(j).mul(synd.coeff(i - j)));
            }
            if delta == Gf::ZERO {
                m += 1;
            } else if 2 * l <= i {
                let temp = sigma.clone();
                let coef = delta.div(b);
                sigma = sigma.add(&prev.scale(coef).shift(m));
                prev = temp;
                l = i + 1 - l;
                b = delta;
                m = 1;
            } else {
                let coef = delta.div(b);
                sigma = sigma.add(&prev.scale(coef).shift(m));
                m += 1;
            }
        }
        if 2 * l > self.nsym {
            return Err(EccError::Uncorrectable {
                scheme: "rs-codeword",
                detail: format!("{l} errors exceed correction bound {}", self.nsym / 2),
            });
        }
        Ok(sigma)
    }

    /// Find codeword positions whose α-powers are roots of the locator.
    fn chien_search(&self, locator: &Poly, n: usize) -> Result<Vec<usize>, EccError> {
        let mut positions = Vec::new();
        for j in 0..n {
            if locator.eval(Gf::alpha_pow(j).inv()) == Gf::ZERO {
                positions.push(n - 1 - j);
            }
        }
        Ok(positions)
    }
}

/// The `Poly` path the kernel replaced, kept as what it is compared against.
#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
pub(crate) mod oracle {
    use crate::gf256::{Gf, Poly};

    fn codeword_poly(codeword: &[u8]) -> Poly {
        Poly::from_coeffs(codeword.iter().rev().map(|&b| Gf(b)).collect())
    }

    /// Parity of `msg`: the coefficients of msg·x^nsym mod ∏ (x − α^i).
    pub(crate) fn parity(nsym: usize, msg: &[u8]) -> Vec<u8> {
        let mut g = Poly::constant(Gf::ONE);
        for i in 0..nsym {
            g = g.mul(&Poly::from_coeffs(vec![Gf::alpha_pow(i), Gf::ONE]));
        }
        let rem = codeword_poly(msg).shift(nsym).rem(&g);
        (0..nsym).rev().map(|i| rem.coeff(i).0).collect()
    }

    /// The clean test: every one of the `nsym` syndromes is zero.
    pub(crate) fn is_clean(nsym: usize, codeword: &[u8]) -> bool {
        let cw = codeword_poly(codeword);
        (0..nsym).all(|i| cw.eval(Gf::alpha_pow(i)) == Gf::ZERO)
    }

    /// Deterministic test bytes and choices.
    pub(crate) struct Rng(pub u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// Uniform in `lo..=hi`.
        pub(crate) fn range(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next() % (hi - lo + 1) as u64) as usize
        }

        pub(crate) fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| (self.next() >> 24) as u8).collect()
        }
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
mod tests {
    use super::oracle::Rng;
    use super::*;

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 73 + 5) % 256) as u8).collect()
    }

    #[test]
    fn lfsr_parity_is_the_poly_remainder_at_every_message_length() {
        let mut rng = Rng(0x5EED_0001);
        for nsym in [2usize, 16, 32, 64, 250] {
            let rs = RsCodeword::new(nsym).unwrap();
            for len in 1..=rs.max_message_len() {
                let msg = rng.bytes(len);
                let cw = rs.encode(&msg);
                assert_eq!(cw[..len], msg[..], "nsym={nsym} len={len}: not systematic");
                assert_eq!(cw[len..], oracle::parity(nsym, &msg)[..], "nsym={nsym} len={len}");
            }
        }
    }

    /// Equal remainders ⇔ all syndromes zero, for clean codewords and for
    /// every way of damaging 1..=3 symbols in message or parity.
    #[test]
    fn remainder_compare_agrees_with_the_syndrome_test() {
        let mut rng = Rng(0x5EED_0002);
        for nsym in [2usize, 7, 32, 250] {
            let rs = RsCodeword::new(nsym).unwrap();
            for _ in 0..60 {
                let len = rng.range(1, rs.max_message_len());
                let msg = rng.bytes(len);
                let mut cw = rs.encode(&msg);
                for _ in 0..rng.range(0, 3) {
                    let at = rng.range(0, cw.len() - 1);
                    cw[at] ^= rng.range(0, 255) as u8;
                }
                // `decode` reports zero repairs only through the remainder compare.
                let by_remainder = rs.decode(&cw) == Ok((msg.clone(), 0));
                assert_eq!(by_remainder, oracle::is_clean(nsym, &cw), "nsym={nsym}");
            }
        }
    }

    #[test]
    fn rows_kernel_is_the_codeword_kernel_in_every_column() {
        let mut rng = Rng(0x5EED_0003);
        for (nsym, w, rows) in [(2, 1, 1), (32, 64, 223), (16, 37, 5), (250, 3, 5), (8, 64, 0)] {
            let rs = RsCodeword::new(nsym).unwrap();
            let data = rng.bytes(rows * w);
            let mut state = vec![0xEEu8; nsym * w];
            rs.parity_rows_into(data.chunks_exact(w), w, &mut state);
            for col in 0..w {
                let msg: Vec<u8> = data.iter().skip(col).step_by(w).copied().collect();
                let column: Vec<u8> = state.iter().skip(col).step_by(w).copied().collect();
                assert_eq!(column, oracle::parity(nsym, &msg), "nsym={nsym} w={w} col={col}");
            }
        }
    }

    #[test]
    fn repair_fixes_both_halves_or_touches_neither() {
        let rs = RsCodeword::new(8).unwrap();
        let msg = sample(40);
        let cw = rs.encode(&msg);
        let (mut m, mut p) = (msg.clone(), cw[40..].to_vec());
        m[3] ^= 0x40;
        p[7] ^= 0x01;
        assert_eq!(rs.repair(&mut m, &mut p), Ok(2));
        assert_eq!((&m[..], &p[..]), (&msg[..], &cw[40..]));
        for b in &mut m[..5] {
            *b ^= 0xFF;
        }
        let before = (m.clone(), p.clone());
        assert!(rs.repair(&mut m, &mut p).is_err());
        assert_eq!((m, p), before);
    }

    #[test]
    fn validates_nsym() {
        assert!(RsCodeword::new(0).is_err());
        assert!(RsCodeword::new(255).is_err());
        assert!(RsCodeword::new(32).is_ok());
    }

    #[test]
    fn clean_round_trip() {
        let rs = RsCodeword::new(16).unwrap();
        let msg = sample(100);
        let cw = rs.encode(&msg);
        assert_eq!(cw.len(), 116);
        let (out, fixed) = rs.decode(&cw).unwrap();
        assert_eq!(out, msg);
        assert_eq!(fixed, 0);
    }

    #[test]
    fn corrects_up_to_t_unknown_errors() {
        let rs = RsCodeword::new(16).unwrap();
        let msg = sample(64);
        let cw = rs.encode(&msg);
        for t in 1..=8usize {
            let mut bad = cw.clone();
            for e in 0..t {
                bad[e * 9 + 1] ^= (0x11 * (e + 1)) as u8;
            }
            let (out, fixed) = rs.decode(&bad).unwrap();
            assert_eq!(out, msg, "t={t}");
            assert_eq!(fixed, t, "t={t}");
        }
    }

    #[test]
    fn detects_more_than_t_errors() {
        let rs = RsCodeword::new(8).unwrap();
        let msg = sample(40);
        let cw = rs.encode(&msg);
        let mut bad = cw.clone();
        // 5 errors with t = 4: either Err, or a decode that cannot silently
        // return the original message claiming success with wrong content.
        for e in 0..5 {
            bad[e * 7] ^= 0xFF;
        }
        match rs.decode(&bad) {
            Err(_) => {}
            Ok((out, _)) => assert_ne!(out, msg, "not required to recover, only to not lie"),
        }
    }

    #[test]
    fn corrects_errors_in_parity_symbols() {
        let rs = RsCodeword::new(10).unwrap();
        let msg = sample(30);
        let mut cw = rs.encode(&msg);
        let n = cw.len();
        cw[n - 1] ^= 0xAA;
        cw[n - 5] ^= 0x01;
        let (out, fixed) = rs.decode(&cw).unwrap();
        assert_eq!(out, msg);
        assert_eq!(fixed, 2);
    }

    #[test]
    fn max_sized_codeword() {
        let rs = RsCodeword::new(32).unwrap();
        let msg = sample(rs.max_message_len());
        let cw = rs.encode(&msg);
        assert_eq!(cw.len(), MAX_CODEWORD);
        let mut bad = cw.clone();
        for i in 0..16 {
            bad[i * 15] ^= 0x80;
        }
        let (out, fixed) = rs.decode(&bad).unwrap();
        assert_eq!(out, msg);
        assert_eq!(fixed, 16);
    }

    #[test]
    #[should_panic]
    fn oversized_message_panics() {
        let rs = RsCodeword::new(32).unwrap();
        rs.encode(&sample(packed_len()));
        fn packed_len() -> usize {
            MAX_CODEWORD
        }
    }

    #[test]
    fn burst_error_within_codeword() {
        let rs = RsCodeword::new(20).unwrap();
        let msg = sample(100);
        let cw = rs.encode(&msg);
        let mut bad = cw.clone();
        for b in &mut bad[40..50] {
            *b = 0x00;
        }
        let (out, fixed) = rs.decode(&bad).unwrap();
        assert_eq!(out, msg);
        assert!(fixed <= 10);
    }
}
