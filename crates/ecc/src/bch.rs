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
//! x^13 + x^4 + x^3 + x + 1 (0x201B). Encoding is table-driven CRC-style
//! long division by the generator (the product of the minimal polynomials
//! of α¹…α^2t); decoding repeats that division and compares remainders,
//! and only for a block whose remainder disagrees computes the 2t power-sum
//! syndromes with a byte-sliced Horner scan, runs Berlekamp–Massey for the
//! error locator, Chien-searches the shortened coordinate range, flips the
//! located bits, and re-verifies the syndromes before declaring success —
//! miscorrection is reported as [`EccError::Uncorrectable`], never silent.

use crate::bits::{chunked, chunked_mut, ByteTable};
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
    /// CRC-style byte step table: `tbl[v] = (v·x^deg) mod gen`.
    enc_tbl: Arc<ByteTable<u64>>,
    /// The 2t syndromes' evaluators, S_1 first.
    syn: Arc<[Syndrome]>,
}

/// How one power-sum syndrome S_j is evaluated a byte at a time.
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

impl Bch {
    /// Create a `t`-error-correcting code, `t` in 1..=4 (13t parity bits
    /// per 1000-byte block).
    pub fn new(t: usize) -> Result<Bch, EccError> {
        if !(1..=4).contains(&t) {
            return Err(EccError::InvalidConfig(format!("bch: t must be in 1..=4, got {t}")));
        }
        let gf = tables();
        // g(x) = lcm of minimal polynomials of α^1..α^2t; even powers share
        // the coset of an odd power, so odd representatives suffice.
        let mut gen = 1u64;
        let mut seen: Vec<u64> = Vec::new();
        for i in (1..2 * t).step_by(2) {
            let mp = minimal_poly(gf, i)?;
            if !seen.contains(&mp) {
                gen = bitpoly_mul(gen, mp);
                seen.push(mp);
            }
        }
        let deg = (63 - gen.leading_zeros()) as usize;
        if deg != GF_BITS * t {
            return Err(EccError::InvalidConfig(format!(
                "bch: generator degree {deg}, expected {}",
                GF_BITS * t
            )));
        }
        let pbytes = deg.div_ceil(8);

        // enc_tbl[v] = (v(x)·x^deg) mod g(x).
        let enc_tbl = Arc::new(ByteTable::from_fn(|v| {
            let mut r = u64::from(v) << deg;
            for bit in (deg..deg + 8).rev() {
                if r & (1 << bit) != 0 {
                    r ^= gen << (bit - deg);
                }
            }
            r
        }));

        let syn = (1..=2 * t)
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
            .collect();

        Ok(Bch { t, deg, pbytes, enc_tbl, syn })
    }

    /// Parity remainder for one data block: `(m(x)·x^deg) mod g(x)`.
    fn encode_block(&self, block: &[u8]) -> u64 {
        let mask = (1u64 << self.deg) - 1;
        let mut rem = 0u64;
        for &byte in block {
            let [top, ..] = (rem >> (self.deg - 8)).to_le_bytes();
            rem = ((rem << 8) & mask) ^ self.enc_tbl.of(top ^ byte);
        }
        rem
    }

    /// Power-sum syndromes S_1..S_2t of `block ‖ rem` (the full codeword).
    fn syndromes(&self, gf: &Gf13, block: &[u8], rem: u64) -> Vec<u16> {
        // Bounded: Bch::new caps t at 4, so this allocates ≤ 8 slots.
        let mut out = Vec::with_capacity(2 * self.t);
        for syn in self.syn.iter() {
            let mut s = 0u16;
            for &byte in block {
                s = gf_mul(gf, s, syn.step) ^ syn.tbl.of(byte);
            }
            for q in (0..self.deg).rev() {
                s = gf_mul(gf, s, syn.alpha) ^ ((rem >> q) & 1) as u16;
            }
            out.push(s);
        }
        out
    }

    /// Berlekamp–Massey: error-locator polynomial from the syndromes.
    /// Returns `None` when the locator degree exceeds `t`.
    fn error_locator(&self, gf: &Gf13, s: &[u16]) -> Option<Vec<u16>> {
        let mut sigma: Vec<u16> = vec![1];
        let mut prev: Vec<u16> = vec![1];
        let mut l = 0usize;
        let mut m = 1usize;
        let mut b = 1u16;
        for n in 0..2 * self.t {
            let mut d = *s.get(n)?;
            // Σ σ_i·S_{n−i} for i in 1..=l: σ from its second coefficient
            // against the syndromes before S_n, newest first.
            let earlier = s.get(..n).unwrap_or_default().iter().rev();
            for (&si, &sn) in sigma.iter().skip(1).take(l).zip(earlier) {
                d ^= gf_mul(gf, si, sn);
            }
            if d == 0 {
                m += 1;
                continue;
            }
            let coef = gf_mul(gf, d, gf_inv(gf, b));
            let update = |sigma: &mut Vec<u16>, prev: &[u16], m: usize| {
                if sigma.len() < prev.len() + m {
                    sigma.resize(prev.len() + m, 0);
                }
                for (sig, &c) in sigma.iter_mut().skip(m).zip(prev) {
                    *sig ^= gf_mul(gf, coef, c);
                }
            };
            if 2 * l <= n {
                let keep = sigma.clone();
                update(&mut sigma, &prev, m);
                l = n + 1 - l;
                prev = keep;
                b = d;
                m = 1;
            } else {
                update(&mut sigma, &prev, m);
                m += 1;
            }
        }
        while sigma.last() == Some(&0) {
            sigma.pop();
        }
        (l <= self.t && sigma.len() == l + 1).then_some(sigma)
    }

    /// Chien search over the shortened coordinate range: returns the
    /// coefficient degrees where σ(α^{-e}) = 0, or `None` when the root
    /// count does not match deg σ (uncorrectable).
    fn chien(&self, gf: &Gf13, sigma: &[u16], total_bits: usize) -> Option<Vec<usize>> {
        let expect = sigma.len().saturating_sub(1);
        // Bounded: deg σ ≤ t ≤ 4: berlekamp_massey caps sigma.len().
        let mut roots = Vec::with_capacity(expect);
        for e in 0..total_bits.min(GF_ORD) {
            let x_inv = gf_pow_alpha(gf, GF_ORD - e % GF_ORD);
            let mut val = 0u16;
            for &c in sigma.iter().rev() {
                val = gf_mul(gf, val, x_inv) ^ c;
            }
            if val == 0 {
                roots.push(e);
                if roots.len() > expect {
                    return None;
                }
            }
        }
        (roots.len() == expect).then_some(roots)
    }

    /// Verify and correct one block in place. `rem` is the unpacked parity
    /// remainder; the (possibly repaired) remainder is returned.
    fn correct_block(&self, block: &mut [u8], rem: u64) -> Result<(u64, u64), EccError> {
        // g is the lcm of the minimal polynomials of α¹…α²ᵗ, so the stored
        // remainder equals the recomputed one ⇔ g | c(x) ⇔ S₁…S₂ₜ are all
        // zero: clean is one pass of the encode division.
        if self.encode_block(block) == rem {
            return Ok((rem, 0));
        }
        let gf = tables();
        let s = self.syndromes(gf, block, rem);
        let uncorrectable = |detail: String| EccError::Uncorrectable { scheme: "bch", detail };
        let sigma = self
            .error_locator(gf, &s)
            .ok_or_else(|| uncorrectable(format!("more than t = {} bit errors", self.t)))?;
        let total_bits = 8 * block.len() + self.deg;
        let roots = self
            .chien(gf, &sigma, total_bits)
            .ok_or_else(|| uncorrectable("error locator has roots outside the block".into()))?;
        let mut rem = rem;
        for &e in &roots {
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
        // Paranoia: a repaired codeword must have all-zero syndromes.
        if self.syndromes(gf, block, rem).iter().any(|&x| x != 0) {
            return Err(uncorrectable("correction did not re-verify".into()));
        }
        Ok((rem, roots.len() as u64))
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

    fn min_bytes_per_thread(&self) -> usize {
        1 << 20
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
