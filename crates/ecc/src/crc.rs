//! CRC-32 (IEEE 802.3 polynomial) used to locate corrupted Reed-Solomon
//! devices and to check containers end to end.
//!
//! Jerasure — the library ARC wraps for Reed-Solomon — is an *erasure* code:
//! it repairs devices whose locations are already known. Soft errors give no
//! such location, so the device codec in this crate stores a CRC-32 per
//! device; devices whose checksum no longer matches are declared erased and
//! handed to the erasure decoder. A 32-bit CRC detects all burst errors up to
//! 32 bits and misses a random corruption with probability 2^-32 per device,
//! which is negligible beside the paper's error rates (§6.4: ~1 error per
//! 1.9 days per 8,500-node machine).
//!
//! Every kernel computes the same value. On x86-64 hosts with PCLMULQDQ,
//! inputs of at least one 64-byte fold block run a carry-less-multiply fold
//! (Intel, "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//! Instruction"); everything else runs slice-by-16 tables, which are also the
//! fold's test oracle. CRC-32 is linear, so the CRC of a concatenation
//! follows from the parts' CRCs and lengths ([`crc32_combine`], zlib's
//! `crc32_combine`): that is how the device codec and the container turn
//! checksums they already hold into the checksum of the whole, instead of
//! hashing the same bytes again. The fold constants are the same arithmetic,
//! x^k mod P, evaluated at compile time.

use crate::bits::ByteTable;

/// Length in bytes of a serialized CRC value.
pub(crate) const CRC_LEN: usize = 4;

/// The reflected IEEE polynomial P without its x^32 term: bit 31 is the x^0
/// coefficient, bit 0 the x^31 one.
const POLY: u32 = 0xEDB8_8320;
/// x^0 in the reflected representation.
const ONE: u32 = 0x8000_0000;
/// x^8 mod P: the shift one zero byte applies to the CRC register.
const X8: u32 = ONE >> 8;
/// x^-1 mod P. P has a nonzero constant term, so P = x·Q + 1 and Q = x^-1:
/// Q's coefficients are P's shifted down one degree, with x^31 on top.
const X_INV: u32 = (POLY << 1) | 1;
/// x^-8 mod P: the shift that undoes one zero byte.
const X8_INV: u32 = pow_mod_p(X_INV, 8);
/// Register value before any byte and the mask applied to the final value.
const INIT: u32 = 0xFFFF_FFFF;

/// Inputs shorter than this stay on the table loop: the fold kernel's four
/// 16-byte lanes need one full block to start from.
const FOLD_BLOCK: usize = 64;

/// `r·x mod P` in the reflected representation.
const fn times_x(r: u32) -> u32 {
    (r >> 1) ^ (POLY & 0u32.wrapping_sub(r & 1))
}

/// `a·b mod P` over reflected polynomials — zlib's `multmodp`, bounded by
/// the bits of `a` that remain.
const fn mul_mod_p(mut a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    while a != 0 {
        p ^= b & 0u32.wrapping_sub(a >> 31);
        a <<= 1;
        b = times_x(b);
    }
    p
}

/// `base^n mod P` by square-and-multiply: log₂ n squarings.
const fn pow_mod_p(mut base: u32, mut n: u64) -> u32 {
    let mut p = ONE;
    while n != 0 {
        if n & 1 != 0 {
            p = mul_mod_p(p, base);
        }
        base = mul_mod_p(base, base);
        n >>= 1;
    }
    p
}

/// x^(8·len) mod P: what `len` bytes after a block do to its CRC register.
fn byte_shift(len: usize) -> u32 {
    pow_mod_p(X8, len as u64)
}

/// Slice-by-16 lookup tables. `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[j][b]` advances the contribution of byte `b` through `j`
/// further zero bytes, so sixteen independent lookups fold a whole 16-byte
/// block into the state at once (Intel's "slicing-by-8" generalized).
static TABLES: [ByteTable<u32>; 16] = slice_tables();

#[expect(
    clippy::indexing_slicing,
    reason = "const-evaluated: every index is below its table's length, and one that was not would fail the build"
)]
const fn slice_tables() -> [ByteTable<u32>; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut b = 0u32;
    while b < 256 {
        let mut c = b;
        let mut bit = 0;
        while bit < 8 {
            c = times_x(c);
            bit += 1;
        }
        t[0][b as usize] = c;
        b += 1;
    }
    let mut j = 1;
    while j < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    let mut out = [const { ByteTable([0; 256]) }; 16];
    let mut j = 0;
    while j < 16 {
        out[j] = ByteTable(t[j]);
        j += 1;
    }
    out
}

/// Advance the CRC register `state` over `data`, sixteen bytes per step:
/// sixteen independent table lookups (no loop-carried dependency between
/// them), bit-identical to the byte-at-a-time recurrence.
fn slice16(state: u32, data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &TABLES;
    let (blocks, tail) = data.as_chunks::<16>();
    let mut c = state;
    for &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] in blocks {
        let [x0, x1, x2, x3] = (c ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        c = t15.of(x0)
            ^ t14.of(x1)
            ^ t13.of(x2)
            ^ t12.of(x3)
            ^ t11.of(b4)
            ^ t10.of(b5)
            ^ t9.of(b6)
            ^ t8.of(b7)
            ^ t7.of(b8)
            ^ t6.of(b9)
            ^ t5.of(b10)
            ^ t4.of(b11)
            ^ t3.of(b12)
            ^ t2.of(b13)
            ^ t1.of(b14)
            ^ t0.of(b15);
    }
    for &b in tail {
        let [low, ..] = c.to_le_bytes();
        c = t0.of(low ^ b) ^ (c >> 8);
    }
    c
}

/// Which kernel advances the register over inputs of at least
/// [`FOLD_BLOCK`] bytes, resolved once from the CPU's feature flags.
#[derive(Clone, Copy)]
enum Kernel {
    /// 128-bit PCLMULQDQ folds of 64-byte blocks.
    #[cfg(target_arch = "x86_64")]
    Clmul,
    Table,
}

fn kernel() -> Kernel {
    static KERNEL: std::sync::OnceLock<Kernel> = std::sync::OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") {
            return Kernel::Clmul;
        }
        Kernel::Table
    })
}

/// Advance the CRC register `state` over `data` with the host's kernel.
fn update(state: u32, data: &[u8]) -> u32 {
    if data.len() < FOLD_BLOCK {
        return slice16(state, data);
    }
    match kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `kernel` returns `Clmul` only after runtime detection
        // (`is_x86_feature_detected!("pclmulqdq")`) found the instruction.
        Kernel::Clmul => unsafe { clmul::update(state, data) },
        Kernel::Table => slice16(state, data),
    }
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    //! Carry-less-multiply folding for the reflected CRC-32.
    //!
    //! A 16-byte lane holds a 128-bit polynomial whose low 64 bits are the
    //! high-degree half. Moving the lane `D` bits further along the message
    //! multiplies it by x^D; splitting it into halves `H·x^64 + L` and
    //! reducing, that is `H·(x^(D+64) mod P) ⊕ L·(x^D mod P)` — two 64×33-bit
    //! carry-less products that fit back in 128 bits. Constants are stored
    //! as x^(D±32) mod P shifted left one bit, which absorbs both the
    //! reflection's off-by-one and the 32-bit offset of a reduced value.
    //! Four lanes fold 64 bytes per step; at the end they fold into one,
    //! whose 16 bytes — congruent to the whole message mod P — the table
    //! loop finishes from a zero register, followed by the sub-lane tail.

    use std::arch::x86_64::*;

    use super::{pow_mod_p, slice16, X8};

    /// `[lo, hi]` multipliers that fold a lane `bits` bits forward.
    const fn fold_constants(bits: u64) -> [i64; 2] {
        [shifted(bits + 32), shifted(bits - 32)]
    }

    /// x^bits mod P, reflected, one bit up (a 33-bit multiplier).
    const fn shifted(bits: u64) -> i64 {
        (pow_mod_p(X8, bits / 8) as i64) << 1
    }

    /// Four lanes apart: the loop's stride.
    pub(super) const FOLD_4: [i64; 2] = fold_constants(512);
    /// One lane apart: merging lanes and folding single blocks.
    pub(super) const FOLD_1: [i64; 2] = fold_constants(128);

    #[inline(always)]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, `_mm_loadu_si128` accepts
        // any alignment, and SSE2 is part of the x86-64 baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `lane` moved one fold distance forward (per `k`) and added to `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(lane: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(lane, k);
        let hi = _mm_clmulepi64_si128::<0x11>(lane, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// The register as an XOR into the message's first 32 bits.
    #[inline(always)]
    fn seed(state: u32) -> __m128i {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { _mm_cvtsi64_si128(i64::from(state)) }
    }

    #[inline(always)]
    fn pair([lo, hi]: [i64; 2]) -> __m128i {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { _mm_set_epi64x(hi, lo) }
    }

    /// Advance the CRC register `state` over `data`; inputs shorter than
    /// one fold block go to the table loop.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(state: u32, data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<16>();
        let (quads, singles) = blocks.as_chunks::<4>();
        let Some(([b0, b1, b2, b3], quads)) = quads.split_first() else {
            return slice16(state, data);
        };
        let k4 = pair(FOLD_4);
        let mut x0 = _mm_xor_si128(load(b0), seed(state));
        let (mut x1, mut x2, mut x3) = (load(b1), load(b2), load(b3));
        for [c0, c1, c2, c3] in quads {
            x0 = fold(x0, k4, load(c0));
            x1 = fold(x1, k4, load(c1));
            x2 = fold(x2, k4, load(c2));
            x3 = fold(x3, k4, load(c3));
        }
        // The four lanes merge into one, which folds on through `singles`;
        // its 16 bytes, congruent to the message so far, then run through
        // the table loop ahead of the sub-lane `tail`.
        let k1 = pair(FOLD_1);
        let mut x = fold(fold(fold(x0, k1, x1), k1, x2), k1, x3);
        for block in singles {
            x = fold(x, k1, load(block));
        }
        let lo = _mm_cvtsi128_si64(x).to_le_bytes();
        let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(x, x)).to_le_bytes();
        slice16(slice16(slice16(0, &lo), &hi), tail)
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    !update(INIT, data)
}

/// CRC-32 of `A ‖ B` from `crc32(A)`, `crc32(B)` and `len_b = |B|`, without
/// reading either: `crc(A)·x^(8·len_b) ⊕ crc(B) mod P` (zlib's
/// `crc32_combine`; log₂ `len_b` field squarings).
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    mul_mod_p(crc_a, byte_shift(len_b)) ^ crc_b
}

/// CRC-32 of the concatenation of blocks that are all `block_len` bytes
/// long, from the blocks' CRCs in order: [`crc32_combine`] with the shift
/// computed once, so each further block costs one field multiply.
pub fn crc32_concat(crcs: impl IntoIterator<Item = u32>, block_len: usize) -> u32 {
    let shift = byte_shift(block_len);
    crcs.into_iter().fold(0, |acc, c| mul_mod_p(acc, shift) ^ c)
}

/// CRC-32 of `A` from the CRC-32 of `A ‖ 0^pad` — [`crc32_zero_padded`]
/// undone by the inverse shift, x^(-8·pad) mod P.
pub(crate) fn crc32_strip_zeros(crc: u32, pad: usize) -> u32 {
    mul_mod_p(crc ^ INIT, pow_mod_p(X8_INV, pad as u64)) ^ INIT
}

/// CRC-32 of a slice that is logically extended with `pad` zero bytes.
///
/// The last Reed-Solomon data device is usually shorter than the device size;
/// its checksum is computed over the zero-padded logical device so encode and
/// decode agree without materializing the padding.
pub(crate) fn crc32_zero_padded(data: &[u8], pad: usize) -> u32 {
    // The register, not the masked value, moves through the zero bytes.
    mul_mod_p(crc32(data) ^ INIT, byte_shift(pad)) ^ INIT
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample(n: usize, seed: u32) -> Vec<u8> {
        (0..n as u32).map(|i| (i.wrapping_add(seed).wrapping_mul(2654435761) >> 11) as u8).collect()
    }

    /// The byte-at-a-time recurrence, the ground truth for both kernels.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = INIT;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = times_x(c);
            }
        }
        !c
    }

    /// The fold kernel over `data`, where this host can run it.
    fn fold(state: u32, data: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: PCLMULQDQ was detected on this CPU just above.
            return Some(unsafe { clmul::update(state, data) });
        }
        let _ = (state, data);
        None
    }

    #[test]
    fn known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        let long = sample(10_000, 3);
        assert_eq!(crc32(&long), crc32_bytewise(&long));
    }

    #[test]
    fn fold_constants_are_the_published_ones() {
        // Intel's white paper (and the Linux `crc32-pclmul` glue) lists the
        // four-lane pair for the reflected IEEE polynomial as
        // 0x1_5444_2BD4 (x^544) and 0x1_C6E4_1596 (x^480).
        #[cfg(target_arch = "x86_64")]
        assert_eq!(clmul::FOLD_4, [0x1_5444_2BD4, 0x1_C6E4_1596]);
        #[cfg(target_arch = "x86_64")]
        assert_eq!(clmul::FOLD_1, [0x1_7519_97D0, 0x0_CCAA_009E]);
        assert_eq!(mul_mod_p(1 << 30, X_INV), ONE, "x · x^-1 = 1");
    }

    #[test]
    fn slice_by_16_matches_bytewise_reference() {
        let data = sample(5000, 0);
        for len in [0usize, 1, 3, 15, 16, 17, 31, 32, 33, 64, 255, 256, 1000, 4999, 5000] {
            assert_eq!(!slice16(INIT, &data[..len]), crc32_bytewise(&data[..len]), "len={len}");
        }
        // Unaligned starts exercise every remainder phase.
        for off in 0..17usize {
            assert_eq!(!slice16(INIT, &data[off..]), crc32_bytewise(&data[off..]), "off={off}");
        }
    }

    #[test]
    fn fold_matches_slice_by_16_exhaustively() {
        let data = sample(4096 + 64, 7);
        for start in 0..64 {
            for len in 0..=4096 {
                let input = &data[start..start + len];
                let state = 0x9E37_79B9u32.rotate_left(start as u32);
                if let Some(folded) = fold(state, input) {
                    assert_eq!(folded, slice16(state, input), "start={start} len={len}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fold_matches_slice_by_16_beyond_4096(
            len in 4097usize..200_000,
            start in 0usize..64,
            seed: u32,
            state: u32,
        ) {
            let data = sample(start + len, seed);
            if let Some(folded) = fold(state, &data[start..]) {
                prop_assert_eq!(folded, slice16(state, &data[start..]));
            }
        }

        #[test]
        fn combine_equals_crc_of_concatenation(
            len_a in 0usize..5000,
            len_b in 0usize..5000,
            seed: u32,
        ) {
            let data = sample(len_a + len_b, seed);
            let (a, b) = data.split_at(len_a);
            prop_assert_eq!(crc32_combine(crc32(a), crc32(b), len_b), crc32(&data));
        }

        #[test]
        fn zero_shifts_match_explicit_zeros(len in 0usize..3000, pad in 0usize..9000, seed: u32) {
            let data = sample(len, seed);
            let mut padded = data.clone();
            padded.resize(len + pad, 0);
            prop_assert_eq!(crc32_zero_padded(&data, pad), crc32(&padded));
            prop_assert_eq!(crc32_strip_zeros(crc32(&padded), pad), crc32(&data));
        }
    }

    #[test]
    fn zero_shifts_at_the_edges() {
        let data = b"device payload";
        let crc = crc32(data);
        assert_eq!(crc32_zero_padded(data, 0), crc);
        assert_eq!(crc32_strip_zeros(crc, 0), crc);
        // A pad larger than the data, and the empty data.
        let mut padded = data.to_vec();
        padded.resize(data.len() + 700, 0);
        assert_eq!(crc32_zero_padded(data, 700), crc32(&padded));
        assert_eq!(crc32_strip_zeros(crc32(&padded), 700), crc);
        assert_eq!(crc32_zero_padded(&[], 300), crc32(&[0; 300]));
        assert_eq!(crc32_strip_zeros(crc32(&[0; 300]), 300), 0);
    }

    #[test]
    fn concat_equals_crc_of_equal_blocks() {
        let data = sample(37 * 211, 5);
        let crcs = data.chunks(211).map(crc32);
        assert_eq!(crc32_concat(crcs, 211), crc32(&data));
        assert_eq!(crc32_concat([], 211), 0);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let base = crc32(&data);
        let mut corrupted = data.clone();
        for bit in [0u64, 1, 8, 4095 * 8 + 7] {
            crate::bits::flip_bit(&mut corrupted, bit);
            assert_ne!(crc32(&corrupted), base, "bit {bit}");
            crate::bits::flip_bit(&mut corrupted, bit);
        }
    }
}
