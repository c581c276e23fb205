//! Arithmetic over the finite field GF(2^8).
//!
//! Reed-Solomon coding (and the generator-matrix construction used by the
//! device-oriented erasure codec) operates on symbols drawn from GF(2^8),
//! the field of 256 elements represented as polynomials over GF(2) modulo
//! the primitive polynomial `x^8 + x^4 + x^3 + x^2 + 1` (0x11D). This is the
//! same field used by Jerasure with `w = 8`, CCSDS Reed-Solomon, and QR codes.
//!
//! Multiplication and division are implemented with log/antilog tables built
//! once at first use; addition is XOR. All operations are branch-light and
//! allocation-free, suitable for the hot encode/decode loops. Every table
//! is a `ByteTable` read through its `u8`-indexed accessor, so no lookup
//! can leave its table.

use crate::bits::ByteTable;

/// The primitive polynomial used to construct the field, with the implicit
/// x^8 term removed (`x^8 + x^4 + x^3 + x^2 + 1`).
pub(crate) const PRIMITIVE_POLY: u16 = 0x11D;

/// Number of non-zero field elements (the multiplicative group order).
pub(crate) const GROUP_ORDER: usize = 255;

/// Precomputed exp/log tables for GF(2^8).
///
/// `exp` is doubled in length so a sum of two logs needs no `% 255`.
struct Tables {
    exp: [u8; 512],
    log: ByteTable<u8>,
}

impl Tables {
    /// α^e for `e < 510` — a sum of at most two logs, or a log plus 255
    /// minus another.
    #[inline]
    fn exp(&self, e: usize) -> u8 {
        // The mask keeps `e` in the table, so the `get` never misses.
        self.exp.get(e & 511).copied().unwrap_or(0)
    }

    /// log_α(x) for `x ≠ 0`, in 0..255.
    #[inline]
    fn log(&self, x: u8) -> usize {
        usize::from(*self.log.of(x))
    }
}

static TABLES: std::sync::OnceLock<Tables> = std::sync::OnceLock::new();

fn tables() -> &'static Tables {
    TABLES.get_or_init(|| {
        // α^i for i in 0..255, by repeated doubling modulo the polynomial.
        let mut powers = [0u8; GROUP_ORDER];
        let mut x: u16 = 1;
        for p in &mut powers {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "x < 0x100: the reduction below clears bit 8 on every step"
            )]
            let byte = x as u8;
            *p = byte;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= PRIMITIVE_POLY;
            }
        }
        let mut cycle = powers.iter().cycle();
        let exp = std::array::from_fn(|_| cycle.next().copied().unwrap_or(0));
        // α generates the group, so every non-zero byte is exactly one power;
        // log(0) is never read and stays 0.
        let log = ByteTable::from_fn(|v| {
            powers.iter().zip(0..=u8::MAX).find(|&(&p, _)| p == v).map_or(0, |(_, i)| i)
        });
        Tables { exp, log }
    })
}

/// A single element of GF(2^8).
///
/// This is a zero-cost newtype over `u8`; all arithmetic is by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Gf(pub u8);

// Inherent `add`/`mul`/`div` are deliberate: field arithmetic stays
// explicit at call sites (`a.mul(b)` over GF, never machine arithmetic) and
// the names shadow the operator traits on purpose.
#[allow(clippy::should_implement_trait)]
impl Gf {
    /// The additive identity.
    pub const ZERO: Gf = Gf(0);
    /// The multiplicative identity.
    pub const ONE: Gf = Gf(1);
    /// The canonical generator α = 0x02 of the multiplicative group.
    pub(crate) const ALPHA: Gf = Gf(2);

    /// Field addition (XOR). Identical to subtraction in GF(2^8).
    #[inline]
    pub fn add(self, rhs: Gf) -> Gf {
        Gf(self.0 ^ rhs.0)
    }

    /// Field multiplication via log/antilog tables.
    #[inline]
    pub fn mul(self, rhs: Gf) -> Gf {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf::ZERO;
        }
        let t = tables();
        Gf(t.exp(t.log(self.0) + t.log(rhs.0)))
    }

    /// Field division; a zero divisor yields zero.
    ///
    /// Every divisor in the crate is non-zero: α powers, Cauchy `x_j ^ y_i`
    /// over disjoint sets, non-zero pivots, trimmed leading coefficients,
    /// and in decode Berlekamp–Massey's `b` (only ever set to a non-zero
    /// discrepancy) and a Forney denominator checked first. The zero case is
    /// defined rather than a panic so that no input can abort a decode.
    #[inline]
    pub fn div(self, rhs: Gf) -> Gf {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf::ZERO;
        }
        let t = tables();
        Gf(t.exp(t.log(self.0) + GROUP_ORDER - t.log(rhs.0)))
    }

    /// Multiplicative inverse; zero for zero.
    #[inline]
    pub fn inv(self) -> Gf {
        Gf::ONE.div(self)
    }

    /// Raise to an integer power (exponent taken modulo 255 for non-zero base).
    #[inline]
    pub(crate) fn pow(self, e: usize) -> Gf {
        if self.0 == 0 {
            return if e == 0 { Gf::ONE } else { Gf::ZERO };
        }
        let t = tables();
        Gf(t.exp(t.log(self.0) * (e % GROUP_ORDER) % GROUP_ORDER))
    }

    /// α^e — the e-th power of the group generator.
    #[inline]
    pub(crate) fn alpha_pow(e: usize) -> Gf {
        Gf::ALPHA.pow(e)
    }
}

/// Split-nibble multiplication tables for every coefficient, plus the full
/// row tables.
///
/// For a coefficient `c`, `lo[c][n] = c·n` and `hi[c][n] = c·(n << 4)`; by
/// linearity `c·b = lo[c][b & 15] ⊕ hi[c][b >> 4]`. The 16-entry tables are
/// exactly the shape a byte-shuffle instruction (PSHUFB) consumes, which is
/// how the Jerasure-class word-wide kernels get their throughput; the
/// 256-entry rows serve the portable scalar/u64 path.
struct MulTables {
    /// `lo[c][n] = c·n` for n in 0..16.
    lo: ByteTable<[u8; 16]>,
    /// `hi[c][n] = c·(n << 4)` for n in 0..16.
    hi: ByteTable<[u8; 16]>,
    /// `row[c][b] = c·b`.
    row: ByteTable<ByteTable<u8>>,
}

static MUL_TABLES: std::sync::OnceLock<MulTables> = std::sync::OnceLock::new();

fn mul_tables() -> &'static MulTables {
    MUL_TABLES.get_or_init(|| {
        let t = tables();
        // Multiply through log/exp directly; `Gf::mul` stays independent of
        // this builder.
        let mul = |a: u8, b: u8| -> u8 {
            if a == 0 || b == 0 {
                0
            } else {
                t.exp(t.log(a) + t.log(b))
            }
        };
        let nibbles = |c: u8, shift: u32| {
            let mut products = [0u8; 16];
            for (p, n) in products.iter_mut().zip(0u8..) {
                *p = mul(c, n << shift);
            }
            products
        };
        MulTables {
            lo: ByteTable::from_fn(|c| nibbles(c, 0)),
            hi: ByteTable::from_fn(|c| nibbles(c, 4)),
            row: ByteTable::from_fn(|c| ByteTable::from_fn(|b| mul(c, b))),
        }
    })
}

/// Force-build every lazily-initialized lookup table: log/exp, the
/// split-nibble multiply tables and the GFNI affine-matrix operands.
///
/// Hot paths touch the tables through `OnceLock`s; calling this once up
/// front (e.g. when a [`crate::parallel::ParallelCodec`] is constructed)
/// keeps the one-time build out of the timed/parallel region and off the
/// allocation budget of steady-state encode/decode.
pub(crate) fn warm_tables() {
    let _ = mul_tables();
    let _ = gfni_matrices();
    #[cfg(target_arch = "x86_64")]
    let _ = simd_level();
}

/// The 256-entry multiplication row for coefficient `c`: `row[b] = c·b`.
#[inline]
fn row_table(c: Gf) -> &'static ByteTable<u8> {
    mul_tables().row.of(c.0)
}

/// The 8×8 GF(2) matrix of "multiply by `c`", row-major: bit `b` of
/// `rows[r]` is `M[r][b]`, i.e. bit `r` of the product `c·2^b`.
///
/// Multiplication by a constant is linear over GF(2): writing an input byte
/// as bits `x = Σ_b x_b·2^b`, the product is `c·x = Σ_b x_b·(c·2^b)`, so the
/// eight products `c·2^b` are the columns of a bit matrix `M_c` with
/// `c·x = M_c·x`. For any byte `x`: bit `r` of `c·x` equals
/// `parity(rows[r] & x)`.
fn mul_matrix(c: Gf) -> [u8; 8] {
    let mut rows = [0u8; 8];
    for b in 0..8u32 {
        let col = c.mul(Gf(1 << b)).0;
        for (r, row) in rows.iter_mut().enumerate() {
            *row |= ((col >> r) & 1) << b;
        }
    }
    rows
}

/// The qword operand `GF2P8AFFINEQB` expects for "multiply by `c`".
///
/// The instruction computes output bit `r` of each byte as
/// `parity(qword_byte[7 - r] & input_byte)`, so the matrix rows are packed
/// most-significant-row-first into the little-endian qword.
fn gfni_matrix(c: Gf) -> u64 {
    let mut bytes = mul_matrix(c);
    bytes.reverse();
    u64::from_le_bytes(bytes)
}

/// All 256 GFNI matrix operands, indexed by coefficient value.
///
/// Built once behind a `OnceLock`; [`warm_tables`] forces the build so
/// steady-state encode never pays it.
fn gfni_matrices() -> &'static ByteTable<u64> {
    static MATRICES: std::sync::OnceLock<ByteTable<u64>> = std::sync::OnceLock::new();
    MATRICES.get_or_init(|| ByteTable::from_fn(|c| gfni_matrix(Gf(c))))
}

/// Which SIMD kernel the slice operations dispatch to, resolved once from
/// the CPU's feature flags — the only kernel selection in the crate.
///
/// The two GFNI tiers use `GF2P8AFFINEQB`, which applies the coefficient's
/// 8×8 bit matrix ([`gfni_matrix`]) to every byte of a vector in a single
/// instruction — one op per 64/32 bytes versus the four shuffle/xor ops of
/// the PSHUFB split-nibble kernel.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
enum SimdLevel {
    Gfni512,
    Gfni256,
    Avx2,
    Ssse3,
    None,
}

#[cfg(target_arch = "x86_64")]
impl SimdLevel {
    /// Whether this CPU has every feature the level's kernel needs.
    fn detected(self) -> bool {
        let gfni = is_x86_feature_detected!("gfni");
        match self {
            SimdLevel::Gfni512 => {
                gfni && is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512vl")
            }
            SimdLevel::Gfni256 => gfni && is_x86_feature_detected!("avx2"),
            SimdLevel::Avx2 => is_x86_feature_detected!("avx2"),
            SimdLevel::Ssse3 => is_x86_feature_detected!("ssse3"),
            SimdLevel::None => true,
        }
    }
}

/// The widest level this CPU runs.
#[cfg(target_arch = "x86_64")]
fn simd_level() -> SimdLevel {
    static LEVEL: std::sync::OnceLock<SimdLevel> = std::sync::OnceLock::new();
    *LEVEL.get_or_init(|| {
        [SimdLevel::Gfni512, SimdLevel::Gfni256, SimdLevel::Avx2, SimdLevel::Ssse3]
            .into_iter()
            .find(|level| level.detected())
            .unwrap_or(SimdLevel::None)
    })
}

/// `dst` and `src` cut to their common length, so a kernel pairs byte `i`
/// of one with byte `i` of the other and leaves the rest of `dst` alone.
#[inline]
fn paired<'a>(dst: &'a mut [u8], src: &'a [u8]) -> (&'a mut [u8], &'a [u8]) {
    let n = dst.len().min(src.len());
    match (dst.get_mut(..n), src.get(..n)) {
        (Some(dst), Some(src)) => (dst, src),
        _ => (&mut [], &[]),
    }
}

/// `dst[i] ^= src[i]` — the c = 1 case, folded over u64 lanes.
#[inline]
fn xor_slice(dst: &mut [u8], src: &[u8]) {
    let (dst, src) = paired(dst, src);
    let (d8, d_tail) = dst.as_chunks_mut::<8>();
    let (s8, s_tail) = src.as_chunks::<8>();
    for (d, s) in d8.iter_mut().zip(s8) {
        *d = (u64::from_le_bytes(*d) ^ u64::from_le_bytes(*s)).to_le_bytes();
    }
    for (d, s) in d_tail.iter_mut().zip(s_tail) {
        *d ^= s;
    }
}

/// Portable `dst ^= c·src` over 8-byte words: eight branch-free row
/// lookups, then one unaligned u64 load, xor and store of `dst`. The scalar
/// tail is branch-free too.
#[inline]
fn mul_acc_words(dst: &mut [u8], src: &[u8], row: &ByteTable<u8>) {
    let (dst, src) = paired(dst, src);
    let (d8, d_tail) = dst.as_chunks_mut::<8>();
    let (s8, s_tail) = src.as_chunks::<8>();
    for (d, s) in d8.iter_mut().zip(s8) {
        let p = s.map(|s| *row.of(s));
        *d = (u64::from_le_bytes(*d) ^ u64::from_le_bytes(p)).to_le_bytes();
    }
    for (d, s) in d_tail.iter_mut().zip(s_tail) {
        *d ^= row.of(*s);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! PSHUFB split-nibble kernels. Each 16/32-byte lane is multiplied by a
    //! constant with two byte shuffles of the coefficient's 16-entry nibble
    //! tables — the classic Jerasure/ISA-L technique.
    //!
    //! Every kernel walks `dst` and `src` as zipped `[u8; L]` lanes of their
    //! common prefix, so each vector load or store covers one borrowed lane:
    //! no pointer offset is computed, and unequal lengths cannot reach
    //! memory outside either slice.

    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    use super::{gfni_matrices, mul_acc_words, mul_tables, paired, row_table, Gf};

    /// # Safety
    /// Caller must ensure GFNI + AVX-512F/BW are available.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    pub(super) unsafe fn mul_acc_gfni512(dst: &mut [u8], src: &[u8], c: Gf) {
        let (dst, src) = paired(dst, src);
        let mat = *gfni_matrices().of(c.0);
        let (d_lanes, d_tail) = dst.as_chunks_mut::<64>();
        let (s_lanes, s_tail) = src.as_chunks::<64>();
        // SAFETY: each load and store covers exactly one 64-byte lane
        // borrowed from `dst` or `src`.
        unsafe {
            let m = _mm512_set1_epi64(mat as i64);
            for (d, s) in d_lanes.iter_mut().zip(s_lanes) {
                let sv = _mm512_loadu_si512(s.as_ptr() as *const __m512i);
                let prod = _mm512_gf2p8affine_epi64_epi8::<0>(sv, m);
                let dv = _mm512_loadu_si512(d.as_ptr() as *const __m512i);
                _mm512_storeu_si512(d.as_mut_ptr() as *mut __m512i, _mm512_xor_si512(dv, prod));
            }
        }
        mul_acc_words(d_tail, s_tail, row_table(c));
    }

    /// # Safety
    /// Caller must ensure GFNI + AVX2 are available.
    #[target_feature(enable = "gfni,avx2")]
    pub(super) unsafe fn mul_acc_gfni256(dst: &mut [u8], src: &[u8], c: Gf) {
        let (dst, src) = paired(dst, src);
        let mat = *gfni_matrices().of(c.0);
        let (d_lanes, d_tail) = dst.as_chunks_mut::<32>();
        let (s_lanes, s_tail) = src.as_chunks::<32>();
        // SAFETY: each load and store covers exactly one 32-byte lane
        // borrowed from `dst` or `src`.
        unsafe {
            let m = _mm256_set1_epi64x(mat as i64);
            for (d, s) in d_lanes.iter_mut().zip(s_lanes) {
                let sv = _mm256_loadu_si256(s.as_ptr() as *const __m256i);
                let prod = _mm256_gf2p8affine_epi64_epi8::<0>(sv, m);
                let dv = _mm256_loadu_si256(d.as_ptr() as *const __m256i);
                _mm256_storeu_si256(d.as_mut_ptr() as *mut __m256i, _mm256_xor_si256(dv, prod));
            }
        }
        mul_acc_words(d_tail, s_tail, row_table(c));
    }

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_acc_avx2(dst: &mut [u8], src: &[u8], c: Gf) {
        let (dst, src) = paired(dst, src);
        let t = mul_tables();
        let (d_lanes, d_tail) = dst.as_chunks_mut::<32>();
        let (s_lanes, s_tail) = src.as_chunks::<32>();
        // SAFETY: the 16-byte nibble tables are loaded unaligned and
        // broadcast to both 128-bit lanes; each other load and store covers
        // exactly one 32-byte lane borrowed from `dst` or `src`.
        unsafe {
            let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                t.lo.of(c.0).as_ptr() as *const __m128i
            ));
            let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                t.hi.of(c.0).as_ptr() as *const __m128i
            ));
            let mask = _mm256_set1_epi8(0x0F);
            for (d, s) in d_lanes.iter_mut().zip(s_lanes) {
                let sv = _mm256_loadu_si256(s.as_ptr() as *const __m256i);
                let sl = _mm256_and_si256(sv, mask);
                let sh = _mm256_and_si256(_mm256_srli_epi64(sv, 4), mask);
                let prod =
                    _mm256_xor_si256(_mm256_shuffle_epi8(lo, sl), _mm256_shuffle_epi8(hi, sh));
                let dv = _mm256_loadu_si256(d.as_ptr() as *const __m256i);
                _mm256_storeu_si256(d.as_mut_ptr() as *mut __m256i, _mm256_xor_si256(dv, prod));
            }
        }
        mul_acc_words(d_tail, s_tail, row_table(c));
    }

    /// # Safety
    /// Caller must ensure SSSE3 is available.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_acc_ssse3(dst: &mut [u8], src: &[u8], c: Gf) {
        let (dst, src) = paired(dst, src);
        let t = mul_tables();
        let (d_lanes, d_tail) = dst.as_chunks_mut::<16>();
        let (s_lanes, s_tail) = src.as_chunks::<16>();
        // SAFETY: the nibble tables are 16-byte arrays, and each other load
        // and store covers exactly one 16-byte lane borrowed from `dst` or
        // `src`.
        unsafe {
            let lo = _mm_loadu_si128(t.lo.of(c.0).as_ptr() as *const __m128i);
            let hi = _mm_loadu_si128(t.hi.of(c.0).as_ptr() as *const __m128i);
            let mask = _mm_set1_epi8(0x0F);
            for (d, s) in d_lanes.iter_mut().zip(s_lanes) {
                let sv = _mm_loadu_si128(s.as_ptr() as *const __m128i);
                let sl = _mm_and_si128(sv, mask);
                let sh = _mm_and_si128(_mm_srli_epi64(sv, 4), mask);
                let prod = _mm_xor_si128(_mm_shuffle_epi8(lo, sl), _mm_shuffle_epi8(hi, sh));
                let dv = _mm_loadu_si128(d.as_ptr() as *const __m128i);
                _mm_storeu_si128(d.as_mut_ptr() as *mut __m128i, _mm_xor_si128(dv, prod));
            }
        }
        mul_acc_words(d_tail, s_tail, row_table(c));
    }
}

/// Multiply a slice of symbols by a scalar in place: one row-table lookup
/// per byte. Its one caller normalises the t ≤ m pivot rows of an erasure
/// solve, next to t·(k − 1) `mul_acc_slice` calls over the same devices,
/// so it has no SIMD kernels of its own.
pub fn scale_slice(dst: &mut [u8], c: Gf) {
    let row = row_table(c);
    for d in dst {
        *d = *row.of(*d);
    }
}

/// `dst[i] ^= c * src[i]` for every `i` both slices hold — the core kernel
/// of the device-oriented Reed-Solomon encoder. Callers pass equal lengths;
/// on unequal ones the bytes of `dst` past `src` are left as they are.
#[inline]
pub(crate) fn mul_acc_slice(dst: &mut [u8], src: &[u8], c: Gf) {
    if c == Gf::ZERO {
        return;
    }
    if c == Gf::ONE {
        xor_slice(dst, src);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    match simd_level() {
        // SAFETY: the features were detected at runtime.
        SimdLevel::Gfni512 => return unsafe { x86::mul_acc_gfni512(dst, src, c) },
        // SAFETY: the features were detected at runtime.
        SimdLevel::Gfni256 => return unsafe { x86::mul_acc_gfni256(dst, src, c) },
        // SAFETY: the feature was detected at runtime.
        SimdLevel::Avx2 => return unsafe { x86::mul_acc_avx2(dst, src, c) },
        // SAFETY: the feature was detected at runtime.
        SimdLevel::Ssse3 => return unsafe { x86::mul_acc_ssse3(dst, src, c) },
        SimdLevel::None => {}
    }
    mul_acc_words(dst, src, row_table(c));
}

/// Polynomials over GF(2^8), stored lowest-degree coefficient first.
///
/// Used by the Reed-Solomon codeword encoder/decoder (generator polynomial,
/// syndromes, error locator, etc.).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Poly {
    /// Coefficients, index = degree. Highest coefficient is non-zero unless
    /// the polynomial is zero (empty or all-zero is permitted transiently).
    pub coeffs: Vec<Gf>,
}

impl Poly {
    /// The zero polynomial.
    pub(crate) fn zero() -> Poly {
        Poly { coeffs: vec![] }
    }

    /// The constant polynomial `c`.
    pub(crate) fn constant(c: Gf) -> Poly {
        Poly { coeffs: vec![c] }
    }

    /// Construct from coefficients (lowest degree first), trimming zeros.
    pub(crate) fn from_coeffs(coeffs: Vec<Gf>) -> Poly {
        let mut p = Poly { coeffs };
        p.trim();
        p
    }

    /// Degree of the polynomial; 0 for constants and the zero polynomial.
    pub(crate) fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// True when every coefficient is zero.
    pub(crate) fn is_zero(&self) -> bool {
        self.coeffs.iter().all(|c| c.0 == 0)
    }

    fn trim(&mut self) {
        while matches!(self.coeffs.last(), Some(c) if c.0 == 0) {
            self.coeffs.pop();
        }
    }

    /// Coefficient of x^i (zero beyond the stored length).
    #[inline]
    pub(crate) fn coeff(&self, i: usize) -> Gf {
        self.coeffs.get(i).copied().unwrap_or(Gf::ZERO)
    }

    /// Polynomial addition.
    pub(crate) fn add(&self, rhs: &Poly) -> Poly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        // Bounded: RS polynomials over GF(256) have degree <= 255.
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(self.coeff(i).add(rhs.coeff(i)));
        }
        Poly::from_coeffs(out)
    }

    /// Polynomial multiplication (schoolbook; degrees here are tiny).
    pub(crate) fn mul(&self, rhs: &Poly) -> Poly {
        if self.is_zero() || rhs.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![Gf::ZERO; self.coeffs.len() + rhs.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a.0 == 0 {
                continue;
            }
            for (o, &b) in out.iter_mut().skip(i).zip(&rhs.coeffs) {
                *o = o.add(a.mul(b));
            }
        }
        Poly::from_coeffs(out)
    }

    /// Multiply by the scalar `c`.
    pub(crate) fn scale(&self, c: Gf) -> Poly {
        Poly::from_coeffs(self.coeffs.iter().map(|&a| a.mul(c)).collect())
    }

    /// Multiply by x^k (shift coefficients up).
    pub(crate) fn shift(&self, k: usize) -> Poly {
        if self.is_zero() {
            return Poly::zero();
        }
        // Bounded: RS shift distance is bounded by the codeword degree <= 255.
        let mut out = vec![Gf::ZERO; k];
        out.extend_from_slice(&self.coeffs);
        Poly::from_coeffs(out)
    }

    /// Evaluate at `x` by Horner's rule.
    pub(crate) fn eval(&self, x: Gf) -> Gf {
        let mut acc = Gf::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc.mul(x).add(c);
        }
        acc
    }

    /// Formal derivative; in characteristic 2, even-degree terms vanish.
    pub(crate) fn derivative(&self) -> Poly {
        let odd = self.coeffs.iter().enumerate().skip(1);
        Poly::from_coeffs(odd.map(|(i, &c)| if i % 2 == 1 { c } else { Gf::ZERO }).collect())
    }

    /// Remainder of `self` divided by `rhs`; a zero `rhs` (the one caller
    /// divides by x^nsym, never zero) leaves `self` whole.
    pub(crate) fn rem(&self, rhs: &Poly) -> Poly {
        let mut r = self.clone();
        r.trim();
        let Some((d, lead)) = rhs.coeffs.iter().enumerate().rfind(|(_, c)| c.0 != 0) else {
            return r;
        };
        let lead_inv = lead.inv();
        while !r.is_zero() && r.coeffs.len() > d {
            let shift = r.coeffs.len() - 1 - d;
            let Some(&lead) = r.coeffs.last() else { break };
            let c = lead.mul(lead_inv);
            for (x, &y) in r.coeffs.iter_mut().skip(shift).zip(&rhs.coeffs) {
                *x = x.add(y.mul(c));
            }
            r.trim();
        }
        r
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
mod tests {
    use super::*;

    #[test]
    fn add_is_xor() {
        assert_eq!(Gf(0x53).add(Gf(0xCA)), Gf(0x53 ^ 0xCA));
        assert_eq!(Gf(7).add(Gf(7)), Gf::ZERO);
    }

    #[test]
    fn mul_identities() {
        for v in 0..=255u8 {
            assert_eq!(Gf(v).mul(Gf::ONE), Gf(v));
            assert_eq!(Gf(v).mul(Gf::ZERO), Gf::ZERO);
        }
    }

    #[test]
    fn mul_matches_carryless_reference() {
        // Reference: carry-less multiply then reduce mod 0x11D.
        fn slow_mul(a: u8, b: u8) -> u8 {
            let mut acc: u16 = 0;
            let mut a16 = a as u16;
            let mut b16 = b as u16;
            while b16 != 0 {
                if b16 & 1 != 0 {
                    acc ^= a16;
                }
                b16 >>= 1;
                a16 <<= 1;
                if a16 & 0x100 != 0 {
                    a16 ^= PRIMITIVE_POLY;
                }
            }
            acc as u8
        }
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(5) {
                assert_eq!(Gf(a).mul(Gf(b)).0, slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for v in 1..=255u8 {
            assert_eq!(Gf(v).mul(Gf(v).inv()), Gf::ONE, "v={v}");
        }
    }

    #[test]
    fn division_round_trips() {
        for a in 1..=255u8 {
            for b in (1..=255u8).step_by(11) {
                let q = Gf(a).div(Gf(b));
                assert_eq!(q.mul(Gf(b)), Gf(a));
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let g = Gf(0x1D);
        let mut acc = Gf::ONE;
        for e in 0..300 {
            assert_eq!(g.pow(e), acc, "e={e}");
            acc = acc.mul(g);
        }
    }

    #[test]
    fn alpha_generates_group() {
        let mut seen = [false; 256];
        for e in 0..GROUP_ORDER {
            let v = Gf::alpha_pow(e);
            assert!(!seen[v.0 as usize], "alpha^{e} repeated");
            seen[v.0 as usize] = true;
        }
        assert!(!seen[0], "alpha powers never hit zero");
    }

    #[test]
    fn mul_acc_kernel_matches_scalar_loop() {
        let src: Vec<u8> = (0..=255).collect();
        for c in [0u8, 1, 2, 0x1D, 0xFF] {
            let mut dst = vec![0xA5u8; 256];
            let mut expect = dst.clone();
            mul_acc_slice(&mut dst, &src, Gf(c));
            for (e, s) in expect.iter_mut().zip(&src) {
                *e ^= Gf(*s).mul(Gf(c)).0;
            }
            assert_eq!(dst, expect, "c={c}");
        }
    }

    #[test]
    fn scale_slice_matches_mul() {
        let mut v: Vec<u8> = (0..=255).collect();
        scale_slice(&mut v, Gf(0x53));
        for (i, &b) in v.iter().enumerate() {
            assert_eq!(Gf(b), Gf(i as u8).mul(Gf(0x53)));
        }
    }

    #[test]
    fn split_nibble_tables_compose_to_products() {
        let t = mul_tables();
        for c in 0..=255u8 {
            for b in 0..=255u8 {
                let composed = t.lo.of(c)[usize::from(b & 0xF)] ^ t.hi.of(c)[usize::from(b >> 4)];
                assert_eq!(composed, Gf(c).mul(Gf(b)).0, "c={c} b={b}");
                assert_eq!(*t.row.of(c).of(b), composed, "c={c} b={b}");
            }
        }
    }

    #[test]
    fn mul_matrix_matches_field_multiply_exhaustively() {
        for c in 0..=255u8 {
            let rows = mul_matrix(Gf(c));
            for x in 0..=255u8 {
                let mut product = 0u8;
                for (r, &row) in rows.iter().enumerate() {
                    let parity = (row & x).count_ones() & 1;
                    product |= u8::try_from(parity).unwrap() << r;
                }
                assert_eq!(product, Gf(c).mul(Gf(x)).0, "c={c} x={x}");
            }
        }
    }

    #[test]
    fn gfni_matrix_identity_is_reversed_unit_rows() {
        // Multiply-by-one must be the identity map: row r = 1 << r, packed
        // most-significant-row-first.
        assert_eq!(gfni_matrix(Gf::ONE), 0x0102_0408_1020_4080);
    }

    #[test]
    fn gfni_matrix_table_matches_builder() {
        let t = gfni_matrices();
        for c in 0..=255u8 {
            assert_eq!(*t.of(c), gfni_matrix(Gf(c)), "c={c}");
        }
    }

    /// Ragged lengths exercising the word kernel's main loop, word tail, and
    /// byte tail, plus the SIMD kernels' 16/32/64-byte boundaries.
    const KERNEL_LENS: [usize; 16] =
        [0, 1, 7, 8, 9, 15, 16, 31, 33, 63, 64, 65, 127, 128, 129, 200];

    /// `kernel` against the bitwise product for every coefficient and every
    /// length in [`KERNEL_LENS`].
    fn assert_matches_naive(name: &str, kernel: impl Fn(&mut [u8], &[u8], Gf)) {
        for c in 0..=255u8 {
            for len in KERNEL_LENS {
                let src: Vec<u8> =
                    (0..len).map(|i| (i as u8).wrapping_mul(37).wrapping_add(c)).collect();
                let mut dst: Vec<u8> =
                    (0..len).map(|i| (i as u8).wrapping_mul(91) ^ 0xA5).collect();
                let mut expect = dst.clone();
                for (e, &s) in expect.iter_mut().zip(&src) {
                    *e ^= Gf(s).mul(Gf(c)).0;
                }
                kernel(&mut dst, &src, Gf(c));
                assert_eq!(dst, expect, "{name} c={c} len={len}");
            }
        }
    }

    #[test]
    fn mul_acc_slice_matches_naive_for_every_coefficient_and_ragged_len() {
        assert_matches_naive("dispatched", mul_acc_slice);
    }

    /// A `dst ^= c·src` kernel.
    type Kernel = fn(&mut [u8], &[u8], Gf);

    /// Every kernel this CPU runs, by name: the portable word kernel and
    /// each x86 level whose features `detected` finds.
    fn detected_kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> =
            vec![("words", |d, s, c| mul_acc_words(d, s, row_table(c)))];
        #[cfg(target_arch = "x86_64")]
        {
            let levels: [(SimdLevel, &'static str, Kernel); 4] = [
                // SAFETY: kept below only where `detected` found this
                // level's features on this CPU.
                (SimdLevel::Gfni512, "gfni512", |d, s, c| unsafe { x86::mul_acc_gfni512(d, s, c) }),
                // SAFETY: as above.
                (SimdLevel::Gfni256, "gfni256", |d, s, c| unsafe { x86::mul_acc_gfni256(d, s, c) }),
                // SAFETY: as above.
                (SimdLevel::Avx2, "avx2", |d, s, c| unsafe { x86::mul_acc_avx2(d, s, c) }),
                // SAFETY: as above.
                (SimdLevel::Ssse3, "ssse3", |d, s, c| unsafe { x86::mul_acc_ssse3(d, s, c) }),
            ];
            kernels.extend(
                levels.into_iter().filter(|(level, ..)| level.detected()).map(|(_, n, k)| (n, k)),
            );
        }
        kernels
    }

    /// Every level's kernel called directly, not only the one this host
    /// dispatches to; levels the CPU lacks are skipped.
    #[test]
    fn every_simd_level_matches_naive() {
        for (name, kernel) in detected_kernels() {
            assert_matches_naive(name, kernel);
        }
    }

    /// `dst` and `src` of unequal lengths, each side longer in turn: every
    /// kernel, and the dispatcher at c = 0, 1 and a general coefficient,
    /// pairs the common prefix and leaves the rest of `dst` as it was. The
    /// exact-size heap buffers let AddressSanitizer see a read past `src`.
    #[test]
    fn unequal_lengths_pair_the_common_prefix_at_every_level() {
        let dispatched: Kernel = mul_acc_slice;
        let mut kernels = detected_kernels();
        kernels.push(("dispatched", dispatched));
        for (name, kernel) in kernels {
            for dst_len in KERNEL_LENS {
                for src_len in KERNEL_LENS.into_iter().filter(|&n| n != dst_len) {
                    for c in [Gf::ZERO, Gf::ONE, Gf(0x1D)] {
                        let src: Vec<u8> =
                            (0..src_len).map(|i| (i as u8).wrapping_mul(37)).collect();
                        let mut dst: Vec<u8> =
                            (0..dst_len).map(|i| (i as u8).wrapping_mul(91) ^ 0xA5).collect();
                        let mut expect = dst.clone();
                        for (e, &s) in expect.iter_mut().zip(&src) {
                            *e ^= Gf(s).mul(c).0;
                        }
                        kernel(&mut dst, &src, c);
                        assert_eq!(dst, expect, "{name} dst={dst_len} src={src_len} c={c:?}");
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn mul_acc_kernel_matches_scalar_field(
            c: u8,
            src in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            seed: u8,
        ) {
            let c = Gf(c);
            let mut dst: Vec<u8> =
                (0..src.len()).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect();
            let mut reference = dst.clone();
            for (d, &s) in reference.iter_mut().zip(&src) {
                *d ^= c.mul(Gf(s)).0;
            }
            mul_acc_slice(&mut dst, &src, c);
            proptest::prop_assert_eq!(dst, reference);
        }
    }

    #[test]
    fn kernels_handle_unaligned_slices() {
        // Offsets into a larger buffer so the u64/SIMD loads are genuinely
        // unaligned; surrounding bytes must be untouched.
        let base: Vec<u8> = (0..256).map(|i| (i as u8).wrapping_mul(113)).collect();
        for offset in 1..8usize {
            for c in [2u8, 0x1D, 0x8E, 0xFF] {
                let mut buf = base.clone();
                let src = base[offset + 100..offset + 197].to_vec();
                let mut expect = buf.clone();
                for (e, &s) in expect[offset..offset + 97].iter_mut().zip(&src) {
                    *e ^= Gf(s).mul(Gf(c)).0;
                }
                mul_acc_slice(&mut buf[offset..offset + 97], &src, Gf(c));
                assert_eq!(buf, expect, "offset={offset} c={c}");
            }
        }
    }

    #[test]
    fn poly_mul_and_eval_consistent() {
        // (x + 1)(x + 2) evaluated at x must equal product of factors.
        let p1 = Poly::from_coeffs(vec![Gf(1), Gf(1)]);
        let p2 = Poly::from_coeffs(vec![Gf(2), Gf(1)]);
        let prod = p1.mul(&p2);
        for x in 0..=255u8 {
            let x = Gf(x);
            assert_eq!(prod.eval(x), p1.eval(x).mul(p2.eval(x)));
        }
    }

    #[test]
    fn poly_rem_has_lower_degree() {
        let num = Poly::from_coeffs((1..=10).map(Gf).collect());
        let den = Poly::from_coeffs(vec![Gf(3), Gf(0), Gf(1)]);
        let r = num.rem(&den);
        assert!(r.is_zero() || r.degree() < den.degree());
    }

    #[test]
    fn poly_derivative_characteristic_two() {
        // d/dx (a + bx + cx^2 + dx^3) = b + dx^2 in characteristic 2.
        let p = Poly::from_coeffs(vec![Gf(9), Gf(7), Gf(5), Gf(3)]);
        let d = p.derivative();
        assert_eq!(d.coeff(0), Gf(7));
        assert_eq!(d.coeff(1), Gf::ZERO);
        assert_eq!(d.coeff(2), Gf(3));
    }
}
