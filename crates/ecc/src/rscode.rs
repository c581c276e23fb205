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
//! LFSR that divides by g(x), driven by `gf256::mul_acc_slice` in
//! two orientations: along one codeword (`RsCodeword::parity_into`, the
//! register is the slice) and across up to `BATCH` interleaved codewords
//! at once (`RsCodeword::parity_rows_into`, a row of symbols is the slice).
//! A received codeword is clean exactly when its recomputed parity equals
//! its stored parity. Only one that disagrees meets the decoder above, which
//! runs in one pass over fixed registers of at most 255 symbols on the stack
//! and accepts its repair by that same compare.

use std::sync::OnceLock;

use crate::bits::{chunked_mut, copy_prefix};
use crate::codec::EccError;
use crate::gf256::{mul_acc_slice, Gf};

/// Maximum codeword length in GF(2^8).
pub const MAX_CODEWORD: usize = 255;

/// Widest row the across-lanes orientation of the kernel takes: 1 KiB, 16
/// 512-bit vectors per `mul_acc_slice` call. Picked by a sweep of 64 B to
/// 4 KiB (DESIGN.md §19): narrower rows pay the per-call overhead again,
/// and wider ones push the `nsym` register rows out of L1.
pub(crate) const BATCH: usize = 1024;

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
            // g(x) highest degree first: multiplying it by (x − α^i) adds
            // α^i times the coefficient above to each coefficient.
            let mut g: Vec<u8> = std::iter::once(1).chain(std::iter::repeat_n(0, nsym)).collect();
            for root in (0..nsym).map(Gf::alpha_pow) {
                let mut above = Gf::ZERO;
                for c in &mut g {
                    (*c, above) = (Gf(*c).add(root.mul(above)).0, Gf(*c));
                }
            }
            g.into_iter().skip(1).collect()
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
    /// Every caller hands over an `nsym`-byte register; a shorter one meets
    /// only as many taps as it holds.
    pub(crate) fn parity_into(&self, msg: &[u8], parity: &mut [u8]) {
        parity.fill(0);
        for &symbol in msg {
            // Shift the register down one symbol, a zero entering at the
            // end; the lead symbol that leaves is the feedback.
            let mut lead = 0;
            for reg in parity.iter_mut().rev() {
                lead = std::mem::replace(reg, lead);
            }
            mul_acc_slice(parity, self.taps, Gf(symbol ^ lead));
        }
    }

    /// The kernel across `width ≤ BATCH` independent codewords at once:
    /// `load(r, feedback)` writes symbol `r` of all `width` messages into
    /// `feedback` (`width` bytes), for every `r < rows`, and `state`
    /// (`nsym · width` bytes, overwritten) ends as their parities, row `i`
    /// holding parity symbol `i` of each. The register rows form a ring —
    /// advancing the head replaces shifting `nsym · width` bytes per row.
    pub(crate) fn parity_rows_into(
        &self,
        rows: usize,
        width: usize,
        state: &mut [u8],
        mut load: impl FnMut(usize, &mut [u8]),
    ) {
        // Interleaved, the one caller, passes 1 <= width <= BATCH and a
        // state slice split at nsym * width; any other shape leaves the
        // state zeroed or partial.
        state.fill(0);
        let mut feedback = [0u8; BATCH];
        let Some(feedback) = feedback.get_mut(..width).filter(|_| width > 0) else { return };
        let mut head = 0;
        for r in 0..rows {
            let Some((back, front)) = state.split_at_mut_checked(head * width) else { return };
            let Some((lead, front)) = front.split_at_mut_checked(width) else { return };
            load(r, feedback);
            for (f, l) in feedback.iter_mut().zip(lead.iter_mut()) {
                *f ^= std::mem::take(l);
            }
            let ring = chunked_mut(front, width).chain(chunked_mut(back, width));
            for (reg, &tap) in ring.chain(std::iter::once(lead)).zip(self.taps) {
                mul_acc_slice(reg, feedback, Gf(tap));
            }
            head = (head + 1) % self.nsym;
        }
        // Rotate the ring so the row at `head` comes first: reversing both
        // sides of the split and then the whole is a left rotation.
        if let Some((ahead, behind)) = state.split_at_mut_checked(head * width) {
            ahead.reverse();
            behind.reverse();
            state.reverse();
        }
    }

    /// c(x) mod g(x) for a received codeword c, highest degree first, in the
    /// first `nsym` symbols: rem(msg·x^nsym) + parity, the recomputed parity
    /// plus the stored one.
    fn remainder(&self, codeword: &[u8]) -> [u8; MAX_CODEWORD] {
        let split = codeword.len().saturating_sub(self.nsym);
        let (msg, parity) = codeword.split_at_checked(split).unwrap_or_default();
        let mut rem = [0u8; MAX_CODEWORD];
        let recomputed = rem.get_mut(..self.nsym).unwrap_or_default();
        self.parity_into(msg, recomputed);
        for (r, p) in recomputed.iter_mut().zip(parity) {
            *r ^= p;
        }
        rem
    }

    /// The clean test is the encode kernel plus a compare: g's roots
    /// α^0..α^(nsym−1) are distinct, so a zero remainder ⇔ g | c ⇔ every
    /// syndrome c(α^i) is zero.
    fn is_clean(&self, codeword: &[u8]) -> bool {
        self.remainder(codeword).iter().all(|&r| r == 0)
    }

    /// Encode `msg`, returning `msg ‖ parity` (`msg.len() + nsym` bytes).
    ///
    /// A message longer than [`RsCodeword::max_message_len`] is
    /// [`EccError::InvalidConfig`]: it does not fit one codeword.
    pub fn encode(&self, msg: &[u8]) -> Result<Vec<u8>, EccError> {
        if msg.len() > self.max_message_len() {
            return Err(EccError::InvalidConfig(format!(
                "message of {} bytes exceeds RS({MAX_CODEWORD}) with nsym={}",
                msg.len(),
                self.nsym
            )));
        }
        let mut out = Vec::with_capacity(msg.len() + self.nsym);
        out.extend_from_slice(msg);
        out.resize(msg.len() + self.nsym, 0);
        self.parity_into(msg, out.get_mut(msg.len()..).unwrap_or_default());
        Ok(out)
    }

    /// Decode a received codeword, correcting up to ⌊nsym/2⌋ unknown errors.
    /// Returns the message portion and the number of symbols repaired.
    pub fn decode(&self, received: &[u8]) -> Result<(Vec<u8>, usize), EccError> {
        let (n, mut buf) = (received.len(), [0u8; MAX_CODEWORD]);
        let Some(codeword) = buf.get_mut(..n).filter(|_| n > self.nsym) else {
            return Err(self.bad_length(n));
        };
        copy_prefix(codeword, received);
        let rem = self.remainder(codeword);
        let fixed = self.correct_in_place(codeword, rem.get(..self.nsym).unwrap_or_default())?;
        Ok((codeword.get(..n - self.nsym).unwrap_or_default().to_vec(), fixed))
    }

    fn bad_length(&self, n: usize) -> EccError {
        EccError::Malformed {
            detail: format!("rs codeword length {n} invalid for nsym={}", self.nsym),
        }
    }

    /// Repair `msg ‖ parity`, held in two places, in place, given its
    /// remainder `rem` (`nsym` symbols: the parity recomputed from `msg`
    /// XOR the stored `parity`, as a scan that just compared them has it);
    /// on an error neither is touched. Returns the symbols repaired.
    pub(crate) fn repair(
        &self,
        msg: &mut [u8],
        parity: &mut [u8],
        rem: &[u8],
    ) -> Result<usize, EccError> {
        let (n, mut buf) = (msg.len() + parity.len(), [0u8; MAX_CODEWORD]);
        let Some(codeword) = buf.get_mut(..n) else { return Err(self.bad_length(n)) };
        for (c, b) in codeword.iter_mut().zip(msg.iter().chain(parity.iter())) {
            *c = *b;
        }
        let fixed = self.correct_in_place(codeword, rem)?;
        for (b, c) in msg.iter_mut().chain(parity.iter_mut()).zip(codeword.iter()) {
            *b = *c;
        }
        Ok(fixed)
    }

    /// Verify one received codeword and repair up to ⌊nsym/2⌋ unknown
    /// errors in place, on stack registers: syndromes from its remainder
    /// `rem` (`nsym` symbols, the recomputed parity XOR the stored one, which
    /// every caller already holds), Berlekamp–Massey, Chien search and
    /// Forney, then the clean test again. Returns the symbols repaired; on
    /// an error the codeword may be partly rewritten.
    fn correct_in_place(&self, codeword: &mut [u8], rem: &[u8]) -> Result<usize, EccError> {
        let (n, nsym) = (codeword.len(), self.nsym);
        if n <= nsym || n > MAX_CODEWORD || rem.len() != nsym {
            return Err(self.bad_length(n));
        }
        if rem.iter().all(|&r| r == 0) {
            return Ok(0);
        }
        let uncorrectable =
            |detail: String| EccError::Uncorrectable { scheme: "rs-codeword", detail };
        // S_i = c(α^i) = r(α^i) for the remainder r = c mod g, since
        // g(α^i) = 0: nsym symbols to evaluate, not the whole codeword.
        let mut synd = [Gf::ZERO; MAX_CODEWORD];
        let synd = synd.get_mut(..nsym).unwrap_or_default();
        for (i, s) in synd.iter_mut().enumerate() {
            *s = horner(rem.iter().map(|&r| Gf(r)), Gf::alpha_pow(i));
        }
        // Coefficient k of S·Λ: Berlekamp–Massey's discrepancy at step k,
        // and Forney's evaluator Ω = S·Λ mod x^nsym below it.
        let product = |sigma: &[Gf], k: usize| {
            let down = synd.get(..=k).unwrap_or_default().iter().rev();
            sigma.iter().zip(down).fold(Gf::ZERO, |acc, (&c, &s)| acc.add(c.mul(s)))
        };

        // Berlekamp–Massey on the locator Λ and B, Λ as it was before the
        // last length change, lowest degree first; deg Λ ≤ l ≤ nsym < 255.
        let mut sigma = [Gf::ZERO; MAX_CODEWORD];
        sigma[0] = Gf::ONE;
        let (mut prev, mut l, mut m, mut b) = (sigma, 0, 1, Gf::ONE);
        for i in 0..nsym {
            let delta = product(&sigma, i);
            if delta != Gf::ZERO {
                let (coef, lengthen) = (delta.div(b), 2 * l <= i);
                // Λ += coef·x^m·B from the top down, so that B can take the
                // old Λ in the same pass: B[k − m] is read before it is set.
                for k in (0..=nsym).rev() {
                    let below = k.checked_sub(m).and_then(|j| prev.get(j));
                    let below = below.map_or(Gf::ZERO, |&p| coef.mul(p));
                    if let (Some(s), Some(p)) = (sigma.get_mut(k), prev.get_mut(k)) {
                        if lengthen {
                            *p = *s;
                        }
                        *s = s.add(below);
                    }
                }
                if lengthen {
                    (l, b, m) = (i + 1 - l, delta, 0);
                }
            }
            m += 1;
        }
        if 2 * l > nsym {
            return Err(uncorrectable(format!("{l} errors exceed correction bound {}", nsym / 2)));
        }
        let degree = sigma.iter().rposition(|&c| c != Gf::ZERO).unwrap_or(0);
        let sigma = sigma.get(..=degree).unwrap_or_default();
        let mut omega = [Gf::ZERO; MAX_CODEWORD];
        for (k, o) in omega.iter_mut().take(nsym).enumerate() {
            *o = product(sigma, k);
        }

        // Chien search: position n − 1 − j is in error when Λ(α^−j) = 0, and
        // Forney gives the error, X_j·Ω(X_j⁻¹) / Λ′(X_j⁻¹) with X_j = α^j. In
        // characteristic 2, Λ′(x) = Σ Λ_(2k+1)·x^(2k). The errors wait in
        // `error` until the roots are known to be deg Λ many: then every
        // root is simple, and no denominator vanishes.
        let (mut error, mut found) = ([0u8; MAX_CODEWORD], 0);
        for (j, e) in error.iter_mut().take(n).rev().enumerate() {
            let (x, x_inv) = (Gf::alpha_pow(j), Gf::alpha_pow(j).inv());
            if horner(sigma.iter().rev().copied(), x_inv) == Gf::ZERO {
                let odd = sigma.iter().skip(1).step_by(2).rev().copied();
                let omega = horner(omega.iter().take(nsym).rev().copied(), x_inv);
                *e = x.mul(omega).div(horner(odd, x_inv.mul(x_inv))).0;
                found += 1;
            }
        }
        if found != degree {
            return Err(uncorrectable("error locator roots do not match its degree".into()));
        }
        for (c, e) in codeword.iter_mut().zip(error) {
            *c ^= e;
        }
        if !self.is_clean(codeword) {
            return Err(uncorrectable(
                "syndromes non-zero after correction (too many errors)".into(),
            ));
        }
        Ok(found)
    }
}

/// Σ c_k·x^k by Horner's rule, the coefficients highest degree first.
fn horner(coeffs: impl Iterator<Item = Gf>, x: Gf) -> Gf {
    coeffs.fold(Gf::ZERO, |acc, c| acc.mul(x).add(c))
}

/// The `Poly` decoder the register one replaced, kept as what it is
/// compared against, with the parity and clean test of its day.
#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
pub(crate) mod oracle {
    use crate::codec::EccError;
    use crate::gf256::{Gf, Poly};

    fn codeword_poly(codeword: &[u8]) -> Poly {
        Poly::from_coeffs(codeword.iter().rev().map(|&b| Gf(b)).collect())
    }

    fn syndromes(nsym: usize, cw: &Poly) -> Vec<Gf> {
        (0..nsym).map(|i| cw.eval(Gf::alpha_pow(i))).collect()
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
        syndromes(nsym, &codeword_poly(codeword)).iter().all(|&s| s == Gf::ZERO)
    }

    fn uncorrectable(detail: String) -> EccError {
        EccError::Uncorrectable { scheme: "rs-codeword", detail }
    }

    /// Repair up to ⌊nsym/2⌋ unknown errors in `codeword` in place and
    /// return how many were repaired (`RsCodeword::correct_in_place`'s
    /// contract, on a codeword of valid length).
    pub(crate) fn decode(nsym: usize, codeword: &mut [u8]) -> Result<usize, EccError> {
        if is_clean(nsym, codeword) {
            return Ok(0);
        }
        let n = codeword.len();
        let synd_poly = Poly::from_coeffs(syndromes(nsym, &codeword_poly(codeword)));
        let locator = berlekamp_massey(nsym, &synd_poly)?;
        let positions: Vec<usize> = (0..n)
            .filter(|&j| locator.eval(Gf::alpha_pow(j).inv()) == Gf::ZERO)
            .map(|j| n - 1 - j)
            .collect();
        if positions.len() != locator.degree() {
            return Err(uncorrectable("error locator roots do not match its degree".into()));
        }
        // Error evaluator Ω(x) = S(x)·Λ(x) mod x^nsym, then Forney.
        let x_nsym = Poly::constant(Gf::ONE).shift(nsym);
        let omega = synd_poly.mul(&locator).rem(&x_nsym);
        let loc_deriv = locator.derivative();
        for &pos in &positions {
            let xj = Gf::alpha_pow(n - 1 - pos);
            let denom = loc_deriv.eval(xj.inv());
            if denom == Gf::ZERO {
                return Err(uncorrectable("Forney denominator vanished".into()));
            }
            codeword[pos] ^= xj.mul(omega.eval(xj.inv())).div(denom).0;
        }
        if !is_clean(nsym, codeword) {
            return Err(uncorrectable(
                "syndromes non-zero after correction (too many errors)".into(),
            ));
        }
        Ok(positions.len())
    }

    /// Berlekamp–Massey on the syndromes, bounded so that 2·errors ≤ nsym.
    fn berlekamp_massey(nsym: usize, synd: &Poly) -> Result<Poly, EccError> {
        let mut sigma = Poly::constant(Gf::ONE);
        let mut prev = Poly::constant(Gf::ONE);
        let (mut l, mut m, mut b) = (0usize, 1usize, Gf::ONE);
        for i in 0..nsym {
            let mut delta = synd.coeff(i);
            for j in 1..=l {
                delta = delta.add(sigma.coeff(j).mul(synd.coeff(i - j)));
            }
            if delta == Gf::ZERO {
                m += 1;
            } else if 2 * l <= i {
                let temp = sigma.clone();
                sigma = sigma.add(&prev.scale(delta.div(b)).shift(m));
                prev = temp;
                (l, b, m) = (i + 1 - l, delta, 1);
            } else {
                sigma = sigma.add(&prev.scale(delta.div(b)).shift(m));
                m += 1;
            }
        }
        if 2 * l > nsym {
            return Err(uncorrectable(format!("{l} errors exceed correction bound {}", nsym / 2)));
        }
        Ok(sigma)
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
                let cw = rs.encode(&msg).unwrap();
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
                let mut cw = rs.encode(&msg).unwrap();
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

    /// Damage `errors` distinct symbols of a fresh `n`-byte codeword and
    /// decode it on the registers and with the `Poly` oracle: the same
    /// `Result`, and every `Ok` a codeword one repair per changed symbol
    /// away, the sent one when `errors` is within ⌊nsym/2⌋.
    fn differential_case(rng: &mut Rng, nsym: usize, n: usize, errors: usize) {
        let rs = RsCodeword::new(nsym).unwrap();
        let sent = rs.encode(&rng.bytes(n - nsym)).unwrap();
        let mut received = sent.clone();
        let mut hit = Vec::new();
        while hit.len() < errors.min(n) {
            let at = rng.range(0, n - 1);
            if !hit.contains(&at) {
                hit.push(at);
                received[at] ^= rng.range(1, 255) as u8;
            }
        }
        let what = format!("nsym={nsym} n={n} errors={errors}");
        let (mut got, mut want) = (received.clone(), received.clone());
        let rem = rs.remainder(&got);
        let result = rs.correct_in_place(&mut got, &rem[..nsym]);
        assert_eq!(result, oracle::decode(nsym, &mut want), "{what}");
        match result {
            Ok(fixed) => {
                assert!(got == want, "{what}: repaired bytes");
                assert!(oracle::is_clean(nsym, &got), "{what}: Ok on a non-codeword");
                let changed = got.iter().zip(&received).filter(|(a, b)| a != b).count();
                assert_eq!(fixed, changed, "{what}: repair count");
                assert!(errors > nsym / 2 || got == sent, "{what}: within capability");
            }
            Err(_) => assert!(errors > nsym / 2, "{what}: within capability"),
        }
    }

    #[test]
    fn register_decoder_matches_the_poly_oracle() {
        let mut rng = Rng(0x5EED_0004);
        for nsym in [2usize, 7, 16, 32, 250] {
            for n in nsym + 1..=MAX_CODEWORD {
                for errors in 0..=nsym / 2 + 3 {
                    differential_case(&mut rng, nsym, n, errors);
                }
            }
        }
    }

    /// `scripts/check.sh --full` runs this.
    #[test]
    #[ignore = "deep differential: 10^5 codewords, run with --release"]
    fn register_decoder_matches_the_poly_oracle_deep() {
        let mut rng = Rng(0x5EED_0005);
        for _ in 0..100_000 {
            let nsym = rng.range(1, MAX_CODEWORD - 1);
            let n = rng.range(nsym + 1, MAX_CODEWORD);
            let errors = rng.range(0, nsym / 2 + 3);
            differential_case(&mut rng, nsym, n, errors);
        }
    }

    #[test]
    fn rows_kernel_is_the_codeword_kernel_in_every_column() {
        let mut rng = Rng(0x5EED_0003);
        for (nsym, w, rows) in
            [(2, 1, 1), (32, 64, 223), (16, 37, 5), (250, 3, 5), (8, 64, 0), (32, BATCH, 223)]
        {
            let rs = RsCodeword::new(nsym).unwrap();
            let data = rng.bytes(rows * w);
            let mut state = vec![0xEEu8; nsym * w];
            rs.parity_rows_into(rows, w, &mut state, |r, feedback| {
                feedback.copy_from_slice(&data[r * w..(r + 1) * w]);
            });
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
        let cw = rs.encode(&msg).unwrap();
        let (mut m, mut p) = (msg.clone(), cw[40..].to_vec());
        m[3] ^= 0x40;
        p[7] ^= 0x01;
        let rem = |m: &[u8], p: &[u8]| rs.remainder(&[m, p].concat())[..8].to_vec();
        let r = rem(&m, &p);
        assert_eq!(rs.repair(&mut m, &mut p, &r), Ok(2));
        assert_eq!((&m[..], &p[..]), (&msg[..], &cw[40..]));
        for b in &mut m[..5] {
            *b ^= 0xFF;
        }
        let before = (m.clone(), p.clone());
        let r = rem(&m, &p);
        assert!(rs.repair(&mut m, &mut p, &r).is_err());
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
        let cw = rs.encode(&msg).unwrap();
        assert_eq!(cw.len(), 116);
        let (out, fixed) = rs.decode(&cw).unwrap();
        assert_eq!(out, msg);
        assert_eq!(fixed, 0);
    }

    #[test]
    fn corrects_up_to_t_unknown_errors() {
        let rs = RsCodeword::new(16).unwrap();
        let msg = sample(64);
        let cw = rs.encode(&msg).unwrap();
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
        let cw = rs.encode(&msg).unwrap();
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
        let mut cw = rs.encode(&msg).unwrap();
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
        let cw = rs.encode(&msg).unwrap();
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
    fn oversized_message_is_an_error() {
        let rs = RsCodeword::new(32).unwrap();
        assert!(matches!(rs.encode(&sample(MAX_CODEWORD)), Err(EccError::InvalidConfig(_))));
        assert!(rs.encode(&sample(rs.max_message_len())).is_ok());
    }

    #[test]
    fn burst_error_within_codeword() {
        let rs = RsCodeword::new(20).unwrap();
        let msg = sample(100);
        let cw = rs.encode(&msg).unwrap();
        let mut bad = cw.clone();
        for b in &mut bad[40..50] {
            *b = 0x00;
        }
        let (out, fixed) = rs.decode(&bad).unwrap();
        assert_eq!(out, msg);
        assert!(fixed <= 10);
    }
}
