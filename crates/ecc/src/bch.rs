//! Binary BCH over GF(2^13) for bit-rot-style random single-bit errors.
//!
//! The RS ladder corrects byte/device-granular damage; for *sparse single
//! bit flips* (DRAM rot, cosmic-ray upsets in cold storage) a binary BCH
//! code reaches the same per-block guarantee at a fraction of the parity
//! bill. This module implements a shortened BCH(8191, 8191 − 13t, t) code:
//! each 1000-byte data block (8000 bits) gets `13·t` parity bits packed
//! into `⌈13t/8⌉` bytes, so a `t = 2` code costs 4 bytes per 1000 — 0.4 %
//! overhead versus 3.1 % for SEC-DED(72,64) — while correcting any 2 bit
//! flips per block with unknown locations.
//!
//! The field is GF(2^13) built on the primitive polynomial
//! x^13 + x^4 + x^3 + x + 1 (0x201B). Encoding divides by the generator
//! (the product of the minimal polynomials of α¹…α^2t) eight bytes per
//! step: the remainder step is GF(2)-linear in the 64-bit word it takes, so
//! it is one `bits::SlicedLinear` read, and a ragged tail steps a byte at a
//! time through the first of its tables. Decoding repeats that division and
//! compares remainders, and only for a block whose remainder disagrees
//! computes the 2t power-sum syndromes from the difference of the two
//! remainders — at most 13t bits, not the block's 8000 — runs
//! Berlekamp–Massey for the error locator, Chien-searches the shortened
//! coordinate range and flips the located bits, all in registers sized by
//! t ≤ 4, then compares remainders again before declaring success —
//! miscorrection is reported as [`EccError::Uncorrectable`], never silent.

#[cfg(test)]
use crate::bits::ByteTable;
use crate::bits::{chunked, chunked_mut, SlicedLinear};
use crate::codec::{
    multi_correct_rate_per_mb, Capability, CorrectionReport, EccError, EccScheme, MB,
};
use std::sync::{Arc, OnceLock};

/// Field size exponent: GF(2^13).
const GF_BITS: usize = 13;
/// Multiplicative group order (= codeword length of the parent code).
const GF_ORD: usize = (1 << GF_BITS) - 1; // 8191
/// Primitive polynomial x^13 + x^4 + x^3 + x + 1.
const GF_POLY: u16 = 0x201B;
/// Data bytes per BCH block (8000 bits + 13t parity ≤ 8191 total).
pub(crate) const BCH_BLOCK: usize = 1000;
/// Largest `t`: the decoder's registers are sized by it.
const MAX_T: usize = 4;

struct Gf13 {
    /// α^i for i in 0..2·8191 (doubled so `exp[log a + log b]` needs no mod).
    exp: Vec<u16>,
    /// log base α; index 0 unused.
    log: Vec<u16>,
}

fn tables() -> &'static Gf13 {
    static TABLES: OnceLock<Gf13> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut powers = Vec::with_capacity(GF_ORD);
        let mut log = vec![0u16; GF_ORD + 1];
        // x is reduced below 2^13 each step, so x << 1 fits a u16.
        let mut x = 1u16;
        for i in (0u16..).take(GF_ORD) {
            powers.push(x);
            if let Some(l) = log.get_mut(usize::from(x)) {
                *l = i;
            }
            x <<= 1;
            if x & (1 << GF_BITS) != 0 {
                x ^= GF_POLY;
            }
        }
        let exp = powers.iter().chain(&powers).copied().collect();
        Gf13 { exp, log }
    })
}

impl Gf13 {
    /// α^e; every exponent the field forms is below 2·8191, the table's
    /// length, and one past it reads as zero.
    #[inline]
    fn exp(&self, e: usize) -> u16 {
        self.exp.get(e).copied().unwrap_or(0)
    }

    /// log_α(a), in 0..8191 for every u16 below 2^13.
    #[inline]
    fn log(&self, a: u16) -> usize {
        self.log.get(usize::from(a)).map_or(0, |&l| usize::from(l))
    }
}

#[inline]
fn gf_mul(gf: &Gf13, a: u16, b: u16) -> u16 {
    if a == 0 || b == 0 {
        return 0;
    }
    gf.exp(gf.log(a) + gf.log(b))
}

#[inline]
fn gf_inv(gf: &Gf13, a: u16) -> u16 {
    // Caller guarantees a != 0 (Berlekamp–Massey divides only by a nonzero
    // previous discrepancy).
    gf.exp(GF_ORD - gf.log(a))
}

/// α^e for e in 0..8191.
#[inline]
fn gf_pow_alpha(gf: &Gf13, e: usize) -> u16 {
    gf.exp(e % GF_ORD)
}

/// Shortened binary BCH(8191, 8191 − 13t, t) over 1000-byte blocks.
#[derive(Debug, Clone)]
pub struct Bch {
    t: usize,
    /// Degree of the generator polynomial: 13t.
    deg: usize,
    /// Parity bytes per block: ⌈13t/8⌉.
    pbytes: usize,
    /// The remainder step, `u ↦ (u(x)·x^deg) mod g(x)` for a 64-bit `u`:
    /// entry `b` of table `k` is `b·x^(8k + deg) mod g`. 16 KiB, built once
    /// per code and shared by its clones.
    rem_tbl: Arc<SlicedLinear<u64>>,
}

/// How one power-sum syndrome S_j is evaluated a byte at a time by
/// `Bch::syndromes`, the oracle of `Bch::syndromes_of_remainder`.
#[cfg(test)]
#[derive(Debug)]
struct Syndrome {
    /// α^j.
    alpha: u16,
    /// The byte step (α^j)^8.
    step: u16,
    /// Byte evaluation table: entry v = Σ bit_m(v)·(α^j)^(7−m).
    tbl: ByteTable<u16>,
}

/// Multiply two binary polynomials held as bit vectors (carry-less).
fn bitpoly_mul(a: u64, b: u64) -> u64 {
    let mut out = 0u64;
    let mut a = a;
    let mut shift = 0;
    while a != 0 {
        if a & 1 != 0 {
            out ^= b << shift;
        }
        a >>= 1;
        shift += 1;
    }
    out
}

/// Minimal polynomial of α^i over GF(2), returned as a bit vector.
fn minimal_poly(gf: &Gf13, i: usize) -> Result<u64, EccError> {
    // Cyclotomic coset of i mod 8191.
    let mut coset = Vec::new();
    let mut j = i % GF_ORD;
    loop {
        coset.push(j);
        j = (j * 2) % GF_ORD;
        if j == i % GF_ORD {
            break;
        }
    }
    // Product of (x + α^j) over the coset, coefficients in GF(2^13).
    let mut poly: Vec<u16> = vec![1];
    for &j in &coset {
        let root = gf_pow_alpha(gf, j);
        // (x + root)·poly: poly shifted up one degree, plus root·poly.
        let shifted = std::iter::once(0).chain(poly.iter().copied());
        let scaled = poly.iter().map(|&c| gf_mul(gf, c, root)).chain(std::iter::once(0));
        poly = shifted.zip(scaled).map(|(a, b)| a ^ b).collect();
    }
    // A minimal polynomial over GF(2) must have 0/1 coefficients.
    let mut bits = 0u64;
    for (k, &c) in poly.iter().enumerate() {
        match c {
            0 => {}
            1 => bits |= 1 << k,
            _ => {
                return Err(EccError::InvalidConfig(format!(
                    "bch: minimal polynomial of alpha^{i} has a non-binary coefficient"
                )))
            }
        }
    }
    Ok(bits)
}

/// The generator g(x) of the `t`-error-correcting code: the lcm of the
/// minimal polynomials of α^1..α^2t. Even powers share the coset of an odd
/// power, so odd representatives suffice.
fn generator(gf: &Gf13, t: usize) -> Result<u64, EccError> {
    let mut gen = 1u64;
    let mut seen: Vec<u64> = Vec::new();
    for i in (1..2 * t).step_by(2) {
        let mp = minimal_poly(gf, i)?;
        if !seen.contains(&mp) {
            gen = bitpoly_mul(gen, mp);
            seen.push(mp);
        }
    }
    Ok(gen)
}

impl Bch {
    /// Create a `t`-error-correcting code, `t` in 1..=4 (13t parity bits
    /// per 1000-byte block).
    pub fn new(t: usize) -> Result<Bch, EccError> {
        if !(1..=MAX_T).contains(&t) {
            return Err(EccError::InvalidConfig(format!("bch: t must be in 1..=4, got {t}")));
        }
        let gf = tables();
        let gen = generator(gf, t)?;
        let deg = (63 - gen.leading_zeros()) as usize;
        if deg != GF_BITS * t {
            return Err(EccError::InvalidConfig(format!(
                "bch: generator degree {deg}, expected {}",
                GF_BITS * t
            )));
        }
        let pbytes = deg.div_ceil(8);

        // x^(i + deg) mod g(x) for each bit i of the word, lowest first:
        // x^deg is g without its lead term, and each next power is one shift
        // and, when the shift reaches x^deg, one reduction by g.
        let mut columns = [0u64; 64];
        let mut power = gen ^ (1 << deg);
        for column in &mut columns {
            *column = power;
            power <<= 1;
            if power & (1 << deg) != 0 {
                power ^= gen;
            }
        }
        let rem_tbl = Arc::new(SlicedLinear::from_columns(&columns));

        Ok(Bch { t, deg, pbytes, rem_tbl })
    }

    /// Parity remainder for one data block: `(m(x)·x^deg) mod g(x)`, eight
    /// bytes per step and then a byte per step for a ragged tail.
    fn encode_block(&self, block: &[u8]) -> u64 {
        let (words, tail) = block.as_chunks::<8>();
        let mut rem = 0u64;
        for word in words {
            // rem·x^64 + w·x^deg = (rem·x^(64 − deg) + w)·x^deg, the first
            // byte of w the highest; deg ≤ 52 keeps rem·x^(64 − deg) in a word.
            rem = self.rem_tbl.of((rem << (64 - self.deg)) ^ u64::from_be_bytes(*word));
        }
        let mask = (1u64 << self.deg) - 1;
        for &byte in tail {
            let [top, ..] = (rem >> (self.deg - 8)).to_le_bytes();
            rem = ((rem << 8) & mask) ^ self.rem_tbl.of_low_byte(top ^ byte);
        }
        rem
    }

    /// Power-sum syndromes S_1..S_2t of a codeword `c(x)` from `d(x) = c(x)
    /// mod g(x)`, which for `block ‖ rem` is `encode_block(block) ^ rem`,
    /// below x^13t. g vanishes at α¹…α²ᵗ, so S_j = c(α^j) = d(α^j): each odd
    /// one sums α^(jq) over the set bits q of d, and each even one is a
    /// square, S_2j = S_j², as c has binary coefficients. The slots past 2t
    /// stay zero.
    fn syndromes_of_remainder(&self, gf: &Gf13, d: u64) -> [u16; 2 * MAX_T] {
        let mut out = [0u16; 2 * MAX_T];
        for j in 1..=2 * self.t {
            let s = if j % 2 == 0 {
                let half = out.get(j / 2 - 1).copied().unwrap_or(0);
                gf_mul(gf, half, half)
            } else {
                let (mut s, mut bits) = (0, d);
                while bits != 0 {
                    s ^= gf_pow_alpha(gf, j * bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
                s
            };
            if let Some(slot) = out.get_mut(j - 1) {
                *slot = s;
            }
        }
        out
    }

    /// Power-sum syndromes S_1..S_2t of `block ‖ rem` (the full codeword)
    /// by a byte-sliced Horner scan of all of it; the slots past 2t stay
    /// zero. The oracle of [`Bch::syndromes_of_remainder`].
    #[cfg(test)]
    fn syndromes(&self, gf: &Gf13, block: &[u8], rem: u64) -> [u16; 2 * MAX_T] {
        let mut out = [0u16; 2 * MAX_T];
        for (s, syn) in out.iter_mut().zip(syndrome_evaluators(self.t)) {
            for &byte in block {
                *s = gf_mul(gf, *s, syn.step) ^ syn.tbl.of(byte);
            }
            for q in (0..self.deg).rev() {
                *s = gf_mul(gf, *s, syn.alpha) ^ ((rem >> q) & 1) as u16;
            }
        }
        out
    }

    /// Berlekamp–Massey: the error locator σ from the syndromes, lowest
    /// degree first, and its degree; `None` when l, the register length,
    /// exceeds `t` or is not deg σ. deg σ ≤ l ≤ 2t throughout.
    fn error_locator(&self, gf: &Gf13, s: &[u16]) -> Option<([u16; 2 * MAX_T + 1], usize)> {
        let mut sigma = [0u16; 2 * MAX_T + 1];
        sigma[0] = 1;
        let (mut prev, mut l, mut m, mut b) = (sigma, 0, 1, 1u16);
        for n in 0..2 * self.t {
            // The discrepancy: coefficient n of S·σ, S_1 the constant term.
            let down = s.get(..=n).unwrap_or_default().iter().rev();
            let d = sigma.iter().zip(down).fold(0, |d, (&c, &sn)| d ^ gf_mul(gf, c, sn));
            if d != 0 {
                let (coef, lengthen) = (gf_mul(gf, d, gf_inv(gf, b)), 2 * l <= n);
                // σ += coef·x^m·prev from the top down, so that prev can take
                // the old σ in the same pass: prev[k − m] is read before it is set.
                for k in (0..sigma.len()).rev() {
                    let below = k.checked_sub(m).and_then(|j| prev.get(j));
                    let below = below.map_or(0, |&p| gf_mul(gf, coef, p));
                    if let (Some(sig), Some(p)) = (sigma.get_mut(k), prev.get_mut(k)) {
                        if lengthen {
                            *p = *sig;
                        }
                        *sig ^= below;
                    }
                }
                if lengthen {
                    (l, b, m) = (n + 1 - l, d, 0);
                }
            }
            m += 1;
        }
        let degree = sigma.iter().rposition(|&c| c != 0).unwrap_or(0);
        (l <= self.t && degree == l).then_some((sigma, degree))
    }

    /// Chien search over the shortened coordinate range: the coefficient
    /// degrees e where σ(α^{-e}) = 0, and how many there are. A non-zero σ
    /// of degree ≤ t has at most t roots, so every one fits.
    fn chien(&self, gf: &Gf13, sigma: &[u16], total_bits: usize) -> ([usize; MAX_T], usize) {
        let (mut roots, mut found) = ([0; MAX_T], 0);
        for e in 0..total_bits.min(GF_ORD) {
            let x_inv = gf_pow_alpha(gf, GF_ORD - e % GF_ORD);
            let mut val = 0u16;
            for &c in sigma.iter().rev() {
                val = gf_mul(gf, val, x_inv) ^ c;
            }
            if val == 0 {
                if let Some(root) = roots.get_mut(found) {
                    *root = e;
                }
                found += 1;
            }
        }
        (roots, found)
    }

    /// Verify and correct one block in place. `rem` is the unpacked parity
    /// remainder; the (possibly repaired) remainder is returned.
    fn correct_block(&self, block: &mut [u8], rem: u64) -> Result<(u64, u64), EccError> {
        // g is the lcm of the minimal polynomials of α¹…α²ᵗ, so the stored
        // remainder equals the recomputed one ⇔ g | c(x) ⇔ S₁…S₂ₜ are all
        // zero: clean is one pass of the encode division, before a repair
        // and after it.
        let d = self.encode_block(block) ^ rem;
        if d == 0 {
            return Ok((rem, 0));
        }
        let gf = tables();
        let s = self.syndromes_of_remainder(gf, d);
        let uncorrectable = |detail: String| EccError::Uncorrectable { scheme: "bch", detail };
        let (sigma, degree) = self
            .error_locator(gf, &s)
            .ok_or_else(|| uncorrectable(format!("more than t = {} bit errors", self.t)))?;
        let total_bits = 8 * block.len() + self.deg;
        let (roots, found) = self.chien(gf, sigma.get(..=degree).unwrap_or_default(), total_bits);
        if found != degree {
            return Err(uncorrectable("error locator has roots outside the block".into()));
        }
        let mut rem = rem;
        for &e in roots.iter().take(found) {
            // Coefficient degree e ↔ bit index k from the block start.
            let k = total_bits - 1 - e;
            if let Some(byte) = block.get_mut(k / 8) {
                *byte ^= 0x80 >> (k % 8);
            } else {
                // Parity bit: msb-first index (k − 8·len) within deg bits.
                let q = self.deg - 1 - (k - 8 * block.len());
                rem ^= 1 << q;
            }
        }
        if self.encode_block(block) != rem {
            return Err(uncorrectable("correction did not re-verify".into()));
        }
        Ok((rem, found as u64))
    }

    fn pack_rem(&self, rem: u64, slot: &mut [u8]) {
        // Big-endian: the last slot byte holds the low byte of `rem`.
        for (byte, b) in slot.iter_mut().rev().zip(rem.to_le_bytes()) {
            *byte = b;
        }
    }

    fn unpack_rem(&self, slot: &[u8]) -> u64 {
        let mut rem = 0u64;
        for &byte in slot {
            rem = (rem << 8) | byte as u64;
        }
        // High padding bits (8·pbytes − deg of them) carry no information;
        // mask them so a flip there cannot masquerade as a parity error.
        rem & ((1u64 << self.deg) - 1)
    }
}

/// The 2t evaluators of [`Bch::syndromes`] for a `t`-error code, S_1
/// first, built once per `t`.
#[cfg(test)]
fn syndrome_evaluators(t: usize) -> &'static [Syndrome] {
    static EVALUATORS: [OnceLock<Vec<Syndrome>>; MAX_T] = [const { OnceLock::new() }; MAX_T];
    let Some(cell) = EVALUATORS.get(t - 1) else { return &[] };
    cell.get_or_init(|| {
        let gf = tables();
        (1..=2 * t)
            .map(|j| {
                let alpha = gf_pow_alpha(gf, j);
                let tbl = ByteTable::from_fn(|v| {
                    let mut s = 0u16;
                    for m in 0..8 {
                        s = gf_mul(gf, s, alpha);
                        if v & (0x80 >> m) != 0 {
                            s ^= 1;
                        }
                    }
                    s
                });
                Syndrome { alpha, step: gf_pow_alpha(gf, 8 * j), tbl }
            })
            .collect()
    })
}

impl EccScheme for Bch {
    fn name(&self) -> &'static str {
        "bch"
    }

    fn parity_len(&self, data_len: usize) -> usize {
        data_len.div_ceil(BCH_BLOCK) * self.pbytes
    }

    fn storage_overhead(&self) -> f64 {
        self.pbytes as f64 / BCH_BLOCK as f64
    }

    fn encode_parity_into(&self, data: &[u8], parity: &mut [u8]) {
        for (block, slot) in chunked(data, BCH_BLOCK).zip(chunked_mut(parity, self.pbytes)) {
            let rem = self.encode_block(block);
            self.pack_rem(rem, slot);
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
                detail: format!("bch parity region {} bytes, expected {expected}", parity.len()),
            });
        }
        let mut report = CorrectionReport::default();
        for (block, slot) in chunked_mut(data, BCH_BLOCK).zip(chunked_mut(parity, self.pbytes)) {
            report.blocks_checked += 1;
            let rem = self.unpack_rem(slot);
            let (fixed_rem, fixed) = self.correct_block(block, rem)?;
            if fixed > 0 {
                self.pack_rem(fixed_rem, slot);
                report.corrected_bits += fixed;
            }
        }
        Ok(report)
    }

    fn capability(&self) -> Capability {
        Capability {
            detects_sparse: true,
            corrects_sparse: true,
            // A byte-granular burst dumps ≥ 8 adjacent bit errors into one
            // block — beyond t ≤ 4. Wrap in `Interleaved` for bursts.
            corrects_burst: false,
            correctable_per_mb: multi_correct_rate_per_mb(MB / BCH_BLOCK as f64, self.t),
        }
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
mod tests {
    use super::*;
    use crate::rscode::oracle::Rng;

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 29) ^ (i >> 7)) as u8).collect()
    }

    #[test]
    fn field_tables_are_primitive() {
        let gf = tables();
        let mut seen = vec![false; GF_ORD + 1];
        for i in 0..GF_ORD {
            let v = gf.exp[i] as usize;
            assert!((1..=GF_ORD).contains(&v));
            assert!(!seen[v], "alpha^{i} repeats: 0x201B would not be primitive");
            seen[v] = true;
        }
        assert_eq!(gf.exp[GF_ORD], 1, "alpha^8191 must wrap to 1");
        // mul/inv sanity.
        for a in [1u16, 2, 1000, 8191] {
            assert_eq!(gf_mul(gf, a, gf_inv(gf, a)), 1);
        }
    }

    #[test]
    fn validates_t_and_generator_degree() {
        assert!(Bch::new(0).is_err());
        assert!(Bch::new(5).is_err());
        for t in 1..=4 {
            let b = Bch::new(t).unwrap();
            assert_eq!(b.deg, GF_BITS * t);
            assert_eq!(b.parity_len(BCH_BLOCK), (GF_BITS * t).div_ceil(8));
        }
    }

    #[test]
    fn clean_round_trip_various_sizes() {
        let b = Bch::new(2).unwrap();
        for n in [0usize, 1, 999, 1000, 1001, 5000, 12_345] {
            let data = sample(n);
            let enc = b.encode(&data);
            assert_eq!(enc.len(), n + b.parity_len(n));
            let (out, report) = b.decode(&enc, n).unwrap();
            assert_eq!(out, data, "n={n}");
            assert!(report.is_clean());
        }
    }

    #[test]
    fn corrects_t_bit_flips_per_block() {
        for t in 1..=4 {
            let b = Bch::new(t).unwrap();
            let data = sample(3 * BCH_BLOCK + 17);
            let enc = b.encode(&data);
            let mut bad = enc.clone();
            // t flips in block 0, t flips in block 2, t in the tail block.
            for k in 0..t {
                bad[10 + 97 * k] ^= 1 << (k % 8);
                bad[2 * BCH_BLOCK + 3 + 101 * k] ^= 1 << ((k + 3) % 8);
                bad[3 * BCH_BLOCK + k] ^= 1 << ((k + 5) % 8);
            }
            let (out, report) = b.decode(&bad, data.len()).unwrap();
            assert_eq!(out, data, "t={t}");
            assert_eq!(report.corrected_bits, 3 * t as u64);
        }
    }

    #[test]
    fn corrects_flips_in_parity_region() {
        let b = Bch::new(2).unwrap();
        let data = sample(2 * BCH_BLOCK);
        let enc = b.encode(&data);
        let mut bad = enc.clone();
        // One data flip + one parity-region flip in block 0.
        bad[500] ^= 0x10;
        bad[data.len() + b.parity_len(data.len()) / 2 - 1] ^= 0x01;
        let (out, report) = b.decode(&bad, data.len()).unwrap();
        assert_eq!(out, data);
        assert!(report.corrected_bits >= 1);
    }

    #[test]
    fn overload_is_detected_not_silent() {
        let b = Bch::new(2).unwrap();
        let data = sample(BCH_BLOCK);
        let enc = b.encode(&data);
        let mut failures = 0;
        for seed in 0..8u64 {
            let mut bad = enc.clone();
            // 5 > t = 2 bit flips in one block.
            for k in 0..5u64 {
                let bit = (seed * 1237 + k * 1031) % (BCH_BLOCK as u64 * 8);
                bad[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
            match b.decode(&bad, data.len()) {
                Err(_) => failures += 1,
                Ok((out, _)) => assert_ne!(out, data, "silent miscorrection at seed {seed}"),
            }
        }
        assert!(failures > 0, "at least some overloads must surface as errors");
    }

    /// Flip `bits` (indices over `block ‖ slot`, msb first) and check the
    /// two clean tests against each other, and against the only way a
    /// lightly flipped codeword can still be clean: every flip fell on a
    /// padding bit of the slot, which `unpack_rem` masks away.
    fn remainder_test_agrees_with_syndromes(b: &Bch, block: &[u8], slot: &[u8], bits: &[usize]) {
        let (mut block, mut slot) = (block.to_vec(), slot.to_vec());
        for &bit in bits {
            match block.get_mut(bit / 8) {
                Some(byte) => *byte ^= 0x80 >> (bit % 8),
                None => slot[bit / 8 - block.len()] ^= 0x80 >> (bit % 8),
            }
        }
        let rem = b.unpack_rem(&slot);
        let by_remainder = b.encode_block(&block) == rem;
        let by_syndromes = b.syndromes(tables(), &block, rem).iter().all(|&s| s == 0);
        let padding = 8 * block.len()..8 * block.len() + (8 * b.pbytes - b.deg);
        let real = bits.iter().filter(|bit| !padding.contains(bit)).count();
        assert_eq!(by_remainder, by_syndromes, "t={} flips {bits:?}", b.t);
        // Minimum distance 2t + 1: up to 2t real flips cannot reach another
        // codeword; three flips can, at t = 1.
        if real <= 2 * b.t {
            assert_eq!(by_remainder, real == 0, "t={} flips {bits:?}", b.t);
        }
    }

    /// Every 1- and 2-bit flip (`exhaustive`) or `samples` of each, then
    /// `samples` 3-bit flips, of a `len`-byte block and its parity slot.
    fn remainder_equivalence(len: usize, exhaustive: bool, samples: usize) {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut below = |n: usize| rng.range(0, n - 1);
        for t in 1..=4 {
            let b = Bch::new(t).unwrap();
            let block = sample(len);
            let mut slot = vec![0u8; b.pbytes];
            b.pack_rem(b.encode_block(&block), &mut slot);
            let n = 8 * (len + b.pbytes);
            remainder_test_agrees_with_syndromes(&b, &block, &slot, &[]);
            if exhaustive {
                for i in 0..n {
                    remainder_test_agrees_with_syndromes(&b, &block, &slot, &[i]);
                    for j in 0..i {
                        remainder_test_agrees_with_syndromes(&b, &block, &slot, &[i, j]);
                    }
                }
            }
            for _ in 0..samples {
                // Half the draws from the slot's end of the codeword, where
                // parity and padding bits are.
                let mut draw =
                    || if below(2) == 0 { below(n) } else { n - 1 - below(8 * b.pbytes) };
                let (i, j, k) = (draw(), draw(), draw());
                remainder_test_agrees_with_syndromes(&b, &block, &slot, &[i]);
                if i != j {
                    remainder_test_agrees_with_syndromes(&b, &block, &slot, &[i, j]);
                }
                if i != j && j != k && i != k {
                    remainder_test_agrees_with_syndromes(&b, &block, &slot, &[i, j, k]);
                }
            }
        }
    }

    /// The syndromes from the remainder against the Horner scan of the
    /// whole codeword, over random blocks (full and ragged) with up to
    /// 2t + 2 random flips in data and parity, at every t.
    #[test]
    fn syndromes_of_remainder_are_the_horner_syndromes() {
        let mut rng = Rng(0x5D5_0B0C);
        let gf = tables();
        for t in 1..=MAX_T {
            let b = Bch::new(t).unwrap();
            for round in 0..300 {
                let len = if round % 3 == 0 { rng.range(1, BCH_BLOCK) } else { BCH_BLOCK };
                let mut block = rng.bytes(len);
                let mut rem = b.encode_block(&block);
                for _ in 0..rng.range(0, 2 * t + 2) {
                    let bit = rng.range(0, 8 * len + b.deg - 1);
                    match block.get_mut(bit / 8) {
                        Some(byte) => *byte ^= 0x80 >> (bit % 8),
                        None => rem ^= 1 << (bit - 8 * len),
                    }
                }
                let d = b.encode_block(&block) ^ rem;
                assert_eq!(
                    b.syndromes_of_remainder(gf, d),
                    b.syndromes(gf, &block, rem),
                    "t={t} len={len}"
                );
            }
        }
    }

    #[test]
    fn remainder_equal_iff_all_syndromes_zero() {
        remainder_equivalence(9, true, 2000);
    }

    /// `scripts/check.sh --full` runs this.
    #[test]
    #[ignore = "deep differential: full-length blocks, run with --release"]
    fn remainder_equal_iff_all_syndromes_zero_deep() {
        remainder_equivalence(BCH_BLOCK, false, 20_000);
        remainder_equivalence(BCH_BLOCK - 1, false, 5_000);
    }

    /// m(x)·x^deg mod g(x) a bit at a time, the first byte's top bit the
    /// highest-degree coefficient: the division the sliced tables replace.
    fn bit_serial_remainder(t: usize, block: &[u8]) -> u64 {
        let (gen, deg) = (generator(tables(), t).unwrap(), GF_BITS * t);
        let mask = (1u64 << deg) - 1;
        let mut rem = 0u64;
        for &byte in block {
            for m in (0..8).rev() {
                let feedback = (rem >> (deg - 1) ^ u64::from(byte >> m)) & 1;
                rem = (rem << 1) & mask;
                if feedback == 1 {
                    rem ^= gen & mask;
                }
            }
        }
        rem
    }

    #[test]
    fn sliced_remainder_is_bit_serial_division_at_every_length() {
        let mut rng = Rng(0xBC4_0001);
        for t in 1..=MAX_T {
            let b = Bch::new(t).unwrap();
            let data = rng.bytes(BCH_BLOCK);
            for len in 0..=BCH_BLOCK {
                let block = &data[..len];
                assert_eq!(
                    b.encode_block(block),
                    bit_serial_remainder(t, block),
                    "t={t} len={len}"
                );
            }
        }
    }

    /// `scripts/check.sh --full` runs this.
    #[test]
    #[ignore = "deep differential: 2·10^4 random blocks, run with --release"]
    fn sliced_remainder_is_bit_serial_division_at_every_length_deep() {
        let mut rng = Rng(0xBC4_0002);
        for _ in 0..20_000 {
            let (t, len) = (rng.range(1, MAX_T), rng.range(0, BCH_BLOCK));
            let (b, block) = (Bch::new(t).unwrap(), rng.bytes(len));
            assert_eq!(b.encode_block(&block), bit_serial_remainder(t, &block), "t={t} len={len}");
        }
    }

    #[test]
    fn overhead_beats_secded() {
        let b = Bch::new(2).unwrap();
        assert!(b.storage_overhead() < 0.005);
        let cap = b.capability();
        assert!(cap.corrects_sparse && !cap.corrects_burst);
        assert!(cap.correctable_per_mb >= 30.0, "rate={}", cap.correctable_per_mb);
    }

    #[test]
    fn malformed_parity_length_rejected() {
        let b = Bch::new(1).unwrap();
        let mut data = sample(100);
        let mut parity = vec![0u8; 1];
        assert!(matches!(
            b.verify_and_correct(&mut data, &mut parity),
            Err(EccError::Malformed { .. })
        ));
    }
}
