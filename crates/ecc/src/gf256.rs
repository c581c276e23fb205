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
//! allocation-free, suitable for the hot encode/decode loops.

/// The primitive polynomial used to construct the field, with the implicit
/// x^8 term removed (`x^8 + x^4 + x^3 + x^2 + 1`).
pub(crate) const PRIMITIVE_POLY: u16 = 0x11D;

/// Number of non-zero field elements (the multiplicative group order).
pub(crate) const GROUP_ORDER: usize = 255;

/// Precomputed exp/log tables for GF(2^8).
///
/// `exp` is doubled in length so `mul` can skip the `% 255` reduction.
struct Tables {
    exp: [u8; 512],
    log: [u8; 256],
}

static TABLES: std::sync::OnceLock<Tables> = std::sync::OnceLock::new();

fn tables() -> &'static Tables {
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(GROUP_ORDER) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= PRIMITIVE_POLY;
            }
        }
        for i in GROUP_ORDER..512 {
            exp[i] = exp[i - GROUP_ORDER];
        }
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
        let idx = t.log[self.0 as usize] as usize + t.log[rhs.0 as usize] as usize;
        Gf(t.exp[idx])
    }

    /// Field division.
    ///
    /// # Panics
    /// Panics if `rhs` is zero.
    #[inline]
    pub fn div(self, rhs: Gf) -> Gf {
        assert!(rhs.0 != 0, "division by zero in GF(2^8)");
        if self.0 == 0 {
            return Gf::ZERO;
        }
        let t = tables();
        let idx = t.log[self.0 as usize] as usize + GROUP_ORDER - t.log[rhs.0 as usize] as usize;
        Gf(t.exp[idx])
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if `self` is zero.
    #[inline]
    pub fn inv(self) -> Gf {
        Gf::ONE.div(self)
    }

    /// Raise to an integer power (exponent taken modulo 255 for non-zero base).
    #[inline]
    pub(crate) fn pow(self, mut e: i32) -> Gf {
        if self.0 == 0 {
            return if e == 0 { Gf::ONE } else { Gf::ZERO };
        }
        let t = tables();
        let l = t.log[self.0 as usize] as i64;
        e = e.rem_euclid(GROUP_ORDER as i32);
        let idx = (l * e as i64).rem_euclid(GROUP_ORDER as i64) as usize;
        Gf(t.exp[idx])
    }

    /// α^e — the e-th power of the group generator.
    #[inline]
    pub(crate) fn alpha_pow(e: i32) -> Gf {
        Gf::ALPHA.pow(e)
    }
}

/// Split-nibble multiplication tables for every coefficient, plus the
/// composed full row tables.
///
/// For a coefficient `c`, `lo[c][n] = c·n` and `hi[c][n] = c·(n << 4)`; by
/// linearity `c·b = lo[c][b & 15] ⊕ hi[c][b >> 4]`, so the two 16-entry
/// tables compose into the branch-free 256-entry row `row[c]`. The 16-entry
/// tables are exactly the shape a byte-shuffle instruction (PSHUFB) consumes,
/// which is how the Jerasure-class word-wide kernels get their throughput;
/// the composed rows serve the portable scalar/u64 path and `Gf`-level code.
struct MulTables {
    /// `lo[c][n] = c·n` for n in 0..16.
    lo: Vec<[u8; 16]>,
    /// `hi[c][n] = c·(n << 4)` for n in 0..16.
    hi: Vec<[u8; 16]>,
    /// `row[c][b] = c·b`, composed from `lo`/`hi`.
    row: Vec<[u8; 256]>,
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
                t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
            }
        };
        let mut lo = vec![[0u8; 16]; 256];
        let mut hi = vec![[0u8; 16]; 256];
        let mut row = vec![[0u8; 256]; 256];
        for c in 0..256 {
            for n in 0..16 {
                lo[c][n] = mul(c as u8, n as u8);
                hi[c][n] = mul(c as u8, (n << 4) as u8);
            }
            for b in 0..256 {
                row[c][b] = lo[c][b & 0xF] ^ hi[c][b >> 4];
            }
        }
        MulTables { lo, hi, row }
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
pub(crate) fn row_table(c: Gf) -> &'static [u8; 256] {
    &mul_tables().row[c.0 as usize]
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
fn gfni_matrices() -> &'static [u64; 256] {
    static MATRICES: std::sync::OnceLock<[u64; 256]> = std::sync::OnceLock::new();
    MATRICES.get_or_init(|| {
        let mut out = [0u64; 256];
        for (c, slot) in (0..=255u8).zip(out.iter_mut()) {
            *slot = gfni_matrix(Gf(c));
        }
        out
    })
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

/// Little-endian u64 load from a `chunks_exact(8)` chunk. The clamped copy
/// keeps the conversion infallible — no abort path even if a caller ever
/// hands a short slice.
#[inline]
fn le_word(b: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    let n = b.len().min(8);
    w[..n].copy_from_slice(&b[..n]);
    u64::from_le_bytes(w)
}

/// `dst[i] ^= src[i]` — the c = 1 case, folded over u64 lanes.
#[inline]
fn xor_slice(dst: &mut [u8], src: &[u8]) {
    let mut d8 = dst.chunks_exact_mut(8);
    let mut s8 = src.chunks_exact(8);
    for (d, s) in (&mut d8).zip(&mut s8) {
        let v = le_word(d) ^ le_word(s);
        d.copy_from_slice(&v.to_le_bytes());
    }
    for (d, s) in d8.into_remainder().iter_mut().zip(s8.remainder()) {
        *d ^= s;
    }
}

/// Portable `dst ^= c·src` over 8-byte words: one unaligned u64 load per
/// side, eight branch-free row lookups, one u64 xor/store. The scalar tail
/// is branch-free too.
#[inline]
fn mul_acc_words(dst: &mut [u8], src: &[u8], row: &[u8; 256]) {
    let mut d8 = dst.chunks_exact_mut(8);
    let mut s8 = src.chunks_exact(8);
    for (d, s) in (&mut d8).zip(&mut s8) {
        let sw = le_word(s);
        let mut p = 0u64;
        for k in 0..8 {
            p |= (row[((sw >> (8 * k)) & 0xFF) as usize] as u64) << (8 * k);
        }
        let v = le_word(d) ^ p;
        d.copy_from_slice(&v.to_le_bytes());
    }
    for (d, s) in d8.into_remainder().iter_mut().zip(s8.remainder()) {
        *d ^= row[*s as usize];
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! PSHUFB split-nibble kernels. Each 16/32-byte lane is multiplied by a
    //! constant with two byte shuffles of the coefficient's 16-entry nibble
    //! tables — the classic Jerasure/ISA-L technique.

    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    use super::{gfni_matrices, mul_acc_words, mul_tables, row_table, Gf};

    /// # Safety
    /// Caller must ensure GFNI + AVX-512F/BW are available.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    pub(super) unsafe fn mul_acc_gfni512(dst: &mut [u8], src: &[u8], c: Gf) {
        let mat = gfni_matrices()[c.0 as usize];
        // SAFETY: unaligned loads/stores stay within `dst`/`src` because the
        // loop bound n is their length rounded down to a whole 64-byte lane.
        unsafe {
            let m = _mm512_set1_epi64(mat as i64);
            let n = dst.len() & !63;
            let mut i = 0;
            while i < n {
                let s = _mm512_loadu_si512(src.as_ptr().add(i) as *const __m512i);
                let prod = _mm512_gf2p8affine_epi64_epi8::<0>(s, m);
                let d = _mm512_loadu_si512(dst.as_ptr().add(i) as *const __m512i);
                _mm512_storeu_si512(
                    dst.as_mut_ptr().add(i) as *mut __m512i,
                    _mm512_xor_si512(d, prod),
                );
                i += 64;
            }
            mul_acc_words(&mut dst[n..], &src[n..], row_table(c));
        }
    }

    /// # Safety
    /// Caller must ensure GFNI + AVX2 are available.
    #[target_feature(enable = "gfni,avx2")]
    pub(super) unsafe fn mul_acc_gfni256(dst: &mut [u8], src: &[u8], c: Gf) {
        let mat = gfni_matrices()[c.0 as usize];
        // SAFETY: unaligned loads/stores stay within `dst`/`src` because the
        // loop bound n is their length rounded down to a whole 32-byte lane.
        unsafe {
            let m = _mm256_set1_epi64x(mat as i64);
            let n = dst.len() & !31;
            let mut i = 0;
            while i < n {
                let s = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
                let prod = _mm256_gf2p8affine_epi64_epi8::<0>(s, m);
                let d = _mm256_loadu_si256(dst.as_ptr().add(i) as *const __m256i);
                _mm256_storeu_si256(
                    dst.as_mut_ptr().add(i) as *mut __m256i,
                    _mm256_xor_si256(d, prod),
                );
                i += 32;
            }
            mul_acc_words(&mut dst[n..], &src[n..], row_table(c));
        }
    }

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_acc_avx2(dst: &mut [u8], src: &[u8], c: Gf) {
        let t = mul_tables();
        // SAFETY: the 16-byte nibble tables are loaded unaligned and
        // broadcast to both 128-bit lanes.
        unsafe {
            let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                t.lo[c.0 as usize].as_ptr() as *const __m128i
            ));
            let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                t.hi[c.0 as usize].as_ptr() as *const __m128i
            ));
            let mask = _mm256_set1_epi8(0x0F);
            let n = dst.len() & !31;
            let mut i = 0;
            while i < n {
                let s = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
                let sl = _mm256_and_si256(s, mask);
                let sh = _mm256_and_si256(_mm256_srli_epi64(s, 4), mask);
                let prod =
                    _mm256_xor_si256(_mm256_shuffle_epi8(lo, sl), _mm256_shuffle_epi8(hi, sh));
                let d = _mm256_loadu_si256(dst.as_ptr().add(i) as *const __m256i);
                _mm256_storeu_si256(
                    dst.as_mut_ptr().add(i) as *mut __m256i,
                    _mm256_xor_si256(d, prod),
                );
                i += 32;
            }
            mul_acc_words(&mut dst[n..], &src[n..], row_table(c));
        }
    }

    /// # Safety
    /// Caller must ensure SSSE3 is available.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_acc_ssse3(dst: &mut [u8], src: &[u8], c: Gf) {
        let t = mul_tables();
        // SAFETY: unaligned loads/stores stay within `dst`/`src` because the
        // loop bound n is their length rounded down to a whole 16-byte lane.
        unsafe {
            let lo = _mm_loadu_si128(t.lo[c.0 as usize].as_ptr() as *const __m128i);
            let hi = _mm_loadu_si128(t.hi[c.0 as usize].as_ptr() as *const __m128i);
            let mask = _mm_set1_epi8(0x0F);
            let n = dst.len() & !15;
            let mut i = 0;
            while i < n {
                let s = _mm_loadu_si128(src.as_ptr().add(i) as *const __m128i);
                let sl = _mm_and_si128(s, mask);
                let sh = _mm_and_si128(_mm_srli_epi64(s, 4), mask);
                let prod = _mm_xor_si128(_mm_shuffle_epi8(lo, sl), _mm_shuffle_epi8(hi, sh));
                let d = _mm_loadu_si128(dst.as_ptr().add(i) as *const __m128i);
                _mm_storeu_si128(dst.as_mut_ptr().add(i) as *mut __m128i, _mm_xor_si128(d, prod));
                i += 16;
            }
            mul_acc_words(&mut dst[n..], &src[n..], row_table(c));
        }
    }
}

/// Multiply a slice of symbols by a scalar in place: one row-table lookup
/// per byte. Its one caller normalises the t ≤ m pivot rows of an erasure
/// solve, next to t·(k − 1) [`mul_acc_slice`] calls over the same devices,
/// so it has no SIMD kernels of its own.
pub fn scale_slice(dst: &mut [u8], c: Gf) {
    let row = row_table(c);
    for d in dst {
        *d = row[*d as usize];
    }
}

/// `dst[i] ^= c * src[i]` for all i — the core kernel of the device-oriented
/// Reed-Solomon encoder. `dst` and `src` must have equal length.
#[inline]
pub fn mul_acc_slice(dst: &mut [u8], src: &[u8], c: Gf) {
    debug_assert_eq!(dst.len(), src.len());
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
        // arc-lint: bounded(RS polynomials over GF(256) have degree <= 255)
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
            for (j, &b) in rhs.coeffs.iter().enumerate() {
                out[i + j] = out[i + j].add(a.mul(b));
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
        // arc-lint: bounded(RS shift distance is bounded by the codeword degree <= 255)
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
        let mut out = Vec::with_capacity(self.coeffs.len().saturating_sub(1));
        for i in 1..self.coeffs.len() {
            if i % 2 == 1 {
                out.push(self.coeffs[i]);
            } else {
                out.push(Gf::ZERO);
            }
        }
        Poly::from_coeffs(out)
    }

    /// Remainder of `self` divided by `rhs`.
    ///
    /// # Panics
    /// Panics if `rhs` is zero.
    pub(crate) fn rem(&self, rhs: &Poly) -> Poly {
        assert!(!rhs.is_zero(), "polynomial division by zero");
        let mut r = self.clone();
        r.trim();
        let d = rhs.coeffs.len() - 1;
        let lead_inv = rhs.coeffs[d].inv();
        while !r.is_zero() && r.coeffs.len() > d {
            let shift = r.coeffs.len() - 1 - d;
            let Some(&lead) = r.coeffs.last() else { break };
            let c = lead.mul(lead_inv);
            for i in 0..=d {
                let idx = shift + i;
                r.coeffs[idx] = r.coeffs[idx].add(rhs.coeffs[i].mul(c));
            }
            r.trim();
        }
        r
    }
}

#[cfg(test)]
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
        for e in 0..GROUP_ORDER as i32 {
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
                let composed =
                    t.lo[c as usize][(b & 0xF) as usize] ^ t.hi[c as usize][(b >> 4) as usize];
                assert_eq!(composed, Gf(c).mul(Gf(b)).0, "c={c} b={b}");
                assert_eq!(t.row[c as usize][b as usize], composed, "c={c} b={b}");
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
            assert_eq!(t[c as usize], gfni_matrix(Gf(c)), "c={c}");
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

    /// Every level's kernel called directly, not only the one this host
    /// dispatches to; levels the CPU lacks are skipped.
    #[test]
    fn every_simd_level_matches_naive() {
        assert_matches_naive("words", |d, s, c| mul_acc_words(d, s, row_table(c)));
        #[cfg(target_arch = "x86_64")]
        for (level, name) in [
            (SimdLevel::Gfni512, "gfni512"),
            (SimdLevel::Gfni256, "gfni256"),
            (SimdLevel::Avx2, "avx2"),
            (SimdLevel::Ssse3, "ssse3"),
        ] {
            if !level.detected() {
                continue;
            }
            assert_matches_naive(name, |d, s, c| {
                // SAFETY: `detected` found every feature this level's kernel
                // needs on this CPU just above.
                unsafe {
                    match level {
                        SimdLevel::Gfni512 => x86::mul_acc_gfni512(d, s, c),
                        SimdLevel::Gfni256 => x86::mul_acc_gfni256(d, s, c),
                        SimdLevel::Avx2 => x86::mul_acc_avx2(d, s, c),
                        SimdLevel::Ssse3 => x86::mul_acc_ssse3(d, s, c),
                        SimdLevel::None => mul_acc_words(d, s, row_table(c)),
                    }
                }
            });
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
