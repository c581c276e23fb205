//! Per-block coding: fixed-point conversion, negabinary mapping, and
//! embedded bit-plane coding with group testing.
//!
//! This follows ZFP's published coding chain (§2.1.2 of the ARC paper):
//! block floats are aligned to a common exponent and converted to signed
//! fixed point, decorrelated by the lifting transform, mapped to negabinary
//! so magnitude ordering survives bit truncation, and emitted one bit plane
//! at a time. Within a plane, already-active coefficients are coded
//! verbatim and the inactive suffix is unary run-length coded ("group
//! testing"), so smooth blocks whose high-frequency coefficients are tiny
//! cost a handful of bits per plane instead of 4^d.

use arc_lossless::bitio::{BitReader, BitWriter};

use crate::error::ZfpError;
use crate::transform::{fwd_transform, inv_transform, sequency_order};

/// Fixed-point precision in bits: block values are scaled so the largest
/// magnitude sits just below 2^(PRECISION−2), leaving headroom for the
/// transform's ≤2-bits-per-axis gain inside an `i64`.
pub const PRECISION: i32 = 40;

/// Highest bit plane the coder will touch (covers transform gain plus the
/// negabinary expansion bit).
pub const K_TOP: u32 = 50;

/// Coefficients in the largest (3-D) block; per-block scratch is this long.
pub(crate) const MAX_BLOCK_LEN: usize = 64;

const NBMASK: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// Two's-complement → negabinary.
#[inline]
pub fn to_negabinary(x: i64) -> u64 {
    (x as u64).wrapping_add(NBMASK) ^ NBMASK
}

/// Negabinary → two's-complement.
#[inline]
pub fn from_negabinary(u: u64) -> i64 {
    ((u ^ NBMASK).wrapping_sub(NBMASK)) as i64
}

/// Exponent `e` such that `2^(e−1) ≤ |x| < 2^e` for the largest magnitude,
/// i.e. the frexp exponent of `max_abs`.
#[inline]
pub fn exponent_of(max_abs: f64) -> i32 {
    ((max_abs.to_bits() >> 52) & 0x7FF) as i32 - 1022
}

/// Convert a block of floats to fixed point against exponent `emax`;
/// returns `q = round(x · 2^S)` with `S = PRECISION − 2 − emax`, ties away
/// from zero.
///
/// The rounding is `(y + 0.5.copysign(y)) as i64` rather than
/// `y.round() as i64`, which is a libm call on baseline x86-64. The two are
/// equal here because `y = x · 2^S` is exact (a power-of-two scale) with
/// at most 24 significant bits, and `|y| < 2^(PRECISION − 2)` since `emax`
/// bounds the block. If `|y| ≥ 2^−30`, the sum `|y| + 0.5` spans at most
/// 53 bits, so it is exact and the truncating cast floors it: the nearest
/// integer, and a tie `m + 0.5` goes to `m + 1`, away from zero. If
/// `|y| < 2^−30`, the sum may round, but stays in `[0.5, 1)` and truncates
/// to 0, which is `round(y)` too. `tests::rounding_matches_libm_deep`
/// checks every f32 significand at every scale where `y` has a fraction.
#[expect(
    clippy::cast_possible_truncation,
    reason = "emax is the block's largest exponent, so |q| < 2^(PRECISION - 1) fits an i64"
)]
pub fn to_fixed_point(block: &[f32], emax: i32, out: &mut [i64]) {
    let scale = (2f64).powi(PRECISION - 2 - emax);
    for (q, &x) in out.iter_mut().zip(block) {
        let y = x as f64 * scale;
        *q = (y + 0.5f64.copysign(y)) as i64;
    }
}

/// Convert fixed-point values back to floats.
#[expect(
    clippy::cast_possible_truncation,
    reason = "rounding back to the f32 precision the block was encoded from is the decode"
)]
pub fn from_fixed_point(q: &[i64], emax: i32, out: &mut [f32]) {
    let scale = (2f64).powi(-(PRECISION - 2 - emax));
    for (x, &v) in out.iter_mut().zip(q) {
        *x = (v as f64 * scale) as f32;
    }
}

/// One round of [`transpose64`]: swap the high `J` columns of row `i` with
/// the low `J` columns of row `i + J` in every `2J`-row band, where `mask`
/// selects each `2J`-bit group's low `J` bits.
#[inline(always)]
fn swap_blocks<const J: usize>(a: &mut [u64; 64], mask: u64) {
    for [lo, hi] in a.as_chunks_mut::<J>().0.as_chunks_mut::<2>().0 {
        for (x, y) in lo.iter_mut().zip(hi) {
            let t = ((*x >> J) ^ *y) & mask;
            *y ^= t;
            *x ^= t << J;
        }
    }
}

/// Transpose a 64×64 bit matrix in place: bit `j` of `a[i]` moves to bit
/// `i` of `a[j]`. Six rounds of block swaps, 32 row pairs each (Hacker's
/// Delight §7-3). On a block's coefficients, zero-padded to 64 rows, it
/// yields the bit planes, plane `k` as word `k`, and turns them back.
#[inline]
pub(crate) fn transpose64(a: &mut [u64; 64]) {
    swap_blocks::<32>(a, 0x0000_0000_FFFF_FFFF);
    swap_blocks::<16>(a, 0x0000_FFFF_0000_FFFF);
    swap_blocks::<8>(a, 0x00FF_00FF_00FF_00FF);
    swap_blocks::<4>(a, 0x0F0F_0F0F_0F0F_0F0F);
    swap_blocks::<2>(a, 0x3333_3333_3333_3333);
    swap_blocks::<1>(a, 0x5555_5555_5555_5555);
}

/// A bit count no wider than a word, as the `u32` the bit I/O calls take.
#[inline]
fn width(bits: u64) -> u32 {
    u32::try_from(bits.min(64)).unwrap_or(64)
}

/// `x >> by`, with every bit gone at `by == 64` (a fully active 3-D block
/// moves all 64 at once).
#[inline]
fn shift_out(x: u64, by: u64) -> u64 {
    x.checked_shr(width(by)).unwrap_or(0)
}

/// Encode bit planes `kmax ..= kmin` (MSB first) of negabinary coefficients
/// already permuted into sequency order. Stops when `budget` bits have been
/// written; returns bits actually written.
///
/// The block is transposed once, so plane `k` is word `k`, coefficient `i`
/// in bit `i`; a 1-D or 2-D block fills the low rows and leaves the rest
/// zero.
pub fn encode_planes(coeffs: &[u64], kmax: u32, kmin: u32, budget: u64, w: &mut BitWriter) -> u64 {
    let size = coeffs.len() as u64;
    let mut planes = [0u64; MAX_BLOCK_LEN];
    for (p, &c) in planes.iter_mut().zip(coeffs) {
        *p = c;
    }
    transpose64(&mut planes);
    let mut left = budget;
    // Coefficients `0..n` are active: a higher plane has shown a set bit.
    let mut n = 0u64;
    for k in (kmin..=kmax).rev() {
        if left == 0 {
            break;
        }
        let mut x = planes.get(k as usize).copied().unwrap_or(0);
        // Verbatim value bits of the active prefix, coefficient 0 first. A
        // budget that ends inside it leaves `left == 0`, ending both loops.
        let take = n.min(left);
        if take > 0 {
            w.write_bits(x.reverse_bits() >> (64 - take), width(take));
            left -= take;
            x = shift_out(x, take);
        }
        // Group-tested unary coding of the inactive suffix: one bit says
        // whether any of it is set, then come the zeros up to the next set
        // coefficient and its one. A budget that ends inside the run cuts it
        // short, and `left == 0` then ends both loops.
        while n < size && left > 0 {
            let any = x != 0;
            w.write_bit(any);
            left -= 1;
            if !any {
                break;
            }
            let zeros = u64::from(x.trailing_zeros());
            // When only the last coefficient is left to be the set one, the
            // group bit has said so already — implicit, no bit spent.
            let one = u64::from(n + zeros != size - 1);
            let run = zeros + one;
            if run > left {
                w.write_bits(0, width(left));
                n += left;
                left = 0;
            } else {
                w.write_bits(one, width(run));
                left -= run;
                n += zeros + 1;
                x = shift_out(x, zeros + 1);
            }
        }
    }
    budget - left
}

/// Permissive read: the next `n` bits, zeros where the stream has ended.
#[inline]
fn read_or_zeros(r: &mut BitReader<'_>, n: u64) -> u64 {
    let v = r.peek_bits(width(n));
    r.consume(n);
    v
}

/// Decode bit planes written by [`encode_planes`]; mirrors its control flow
/// exactly (including early budget exhaustion, which simply leaves lower
/// planes zero).
///
/// An exhausted bitstream reads as zero bits rather than failing: real ZFP
/// decodes from word streams that tail off into zeros, which is what lets
/// corrupted (desynchronized) streams keep "decoding" garbage — the
/// behaviour behind the paper's 100%-Completed finding for ZFP (§4.2).
///
/// Each plane is read into a word. A 3-D block keeps the words and
/// transposes them into its coefficients once; a 1-D or 2-D block ORs each
/// word's set bits into its coefficients as the plane ends, which is faster
/// on the few planes an accuracy-mode 2-D block codes (DESIGN.md §16).
pub fn decode_planes(
    coeffs: &mut [u64],
    kmax: u32,
    kmin: u32,
    budget: u64,
    r: &mut BitReader<'_>,
) -> Result<u64, ZfpError> {
    if coeffs.len() == MAX_BLOCK_LEN {
        let mut planes = [0u64; MAX_BLOCK_LEN];
        let used = read_planes(MAX_BLOCK_LEN as u64, kmax, kmin, budget, r, |k, x| {
            if let Some(p) = planes.get_mut(k as usize) {
                *p = x;
            }
        });
        transpose64(&mut planes);
        for (c, p) in coeffs.iter_mut().zip(planes) {
            *c |= p;
        }
        return Ok(used);
    }
    let size = coeffs.len().min(MAX_BLOCK_LEN) as u64;
    Ok(read_planes(size, kmax, kmin, budget, r, |k, mut x| {
        while x != 0 {
            if let Some(c) = coeffs.get_mut(x.trailing_zeros() as usize) {
                *c |= 1u64 << k;
            }
            x &= x - 1;
        }
    }))
}

/// [`decode_planes`]' reader over `size` coefficients: hands each plane
/// `k` it reads to `deposit(k, x)` as a word, coefficient `i` in bit `i`.
#[inline(always)]
fn read_planes(
    size: u64,
    kmax: u32,
    kmin: u32,
    budget: u64,
    r: &mut BitReader<'_>,
    mut deposit: impl FnMut(u32, u64),
) -> u64 {
    let mut left = budget;
    let mut n = 0u64;
    for k in (kmin..=kmax).rev() {
        if left == 0 {
            break;
        }
        let take = n.min(left);
        // The first bit read is coefficient 0: reverse it into bit 0.
        let mut x = 0;
        if take > 0 {
            x = read_or_zeros(r, take).reverse_bits() >> (64 - take);
            left -= take;
        }
        while n < size && left > 0 {
            let any = read_or_zeros(r, 1) == 1;
            left -= 1;
            if !any {
                break;
            }
            // At most `room` bits come before the last coefficient, whose
            // one is implicit; the budget may end the run sooner.
            let room = size - 1 - n;
            let span = room.min(left);
            let bits = r.peek_bits(width(span));
            if bits == 0 {
                r.consume(span);
                left -= span;
                n += span;
                if span == room {
                    x |= 1 << n;
                    n += 1;
                }
            } else {
                let zeros = u64::from(bits.leading_zeros()) - (64 - span);
                r.consume(zeros + 1);
                left -= zeros + 1;
                n += zeros;
                x |= 1 << n;
                n += 1;
            }
        }
        deposit(k, x);
    }
    budget - left
}

/// Everything needed to code one block: the quantized/transformed
/// coefficients in sequency order as negabinary, plus the plane range that
/// holds information.
pub struct BlockCoefficients {
    /// Negabinary coefficients in sequency order.
    pub nb: Vec<u64>,
    /// Highest set bit plane across all coefficients.
    pub kmax: u32,
}

/// [`forward_block`] into the caller's storage: fills the first
/// `block.len()` entries of `nb` and returns `kmax`.
pub(crate) fn forward_into(
    block: &[f32],
    emax: i32,
    d: usize,
    nb: &mut [u64; MAX_BLOCK_LEN],
) -> u32 {
    let mut q = [0i64; MAX_BLOCK_LEN];
    let q_n = q.get_mut(..block.len().min(MAX_BLOCK_LEN)).unwrap_or_default();
    to_fixed_point(block, emax, q_n);
    fwd_transform(q_n);
    let mut all = 0u64;
    for (slot, &src) in nb.iter_mut().zip(sequency_order(d)) {
        let v = to_negabinary(q.get(src).copied().unwrap_or(0));
        *slot = v;
        all |= v;
    }
    // The block-floating-point scaling keeps kmax ≤ K_TOP.
    if all == 0 {
        0
    } else {
        63 - all.leading_zeros()
    }
}

/// Run the forward pipeline on a padded float block: fixed point →
/// transform → sequency reorder → negabinary.
pub fn forward_block(block: &[f32], emax: i32, d: usize) -> BlockCoefficients {
    let mut nb = [0u64; MAX_BLOCK_LEN];
    let kmax = forward_into(block, emax, d, &mut nb);
    BlockCoefficients { nb: nb.iter().copied().take(block.len()).collect(), kmax }
}

/// Run the inverse pipeline: negabinary (sequency order) → transform⁻¹ →
/// floats.
pub fn inverse_block(nb: &[u64], emax: i32, d: usize, out: &mut [f32]) {
    let mut q = [0i64; MAX_BLOCK_LEN];
    for (&v, &dst) in nb.iter().zip(sequency_order(d)) {
        if let Some(slot) = q.get_mut(dst) {
            *slot = from_negabinary(v);
        }
    }
    let Some(q) = q.get_mut(..nb.len()) else { return };
    inv_transform(q);
    from_fixed_point(q, emax, out);
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
mod tests {
    use super::*;

    #[test]
    fn negabinary_round_trip() {
        for x in [-5i64, -1, 0, 1, 5, i64::MAX / 4, i64::MIN / 4, 1 << 45, -(1 << 45)] {
            assert_eq!(from_negabinary(to_negabinary(x)), x);
        }
        for i in -2000..2000i64 {
            assert_eq!(from_negabinary(to_negabinary(i * 31)), i * 31);
        }
    }

    #[test]
    fn negabinary_magnitude_tracks_bits() {
        // Small magnitudes occupy low bit planes only.
        for x in -100i64..=100 {
            let nb = to_negabinary(x);
            assert!(nb < 1 << 9, "x={x} nb={nb:#x}");
        }
    }

    #[test]
    fn exponent_of_matches_frexp_semantics() {
        assert_eq!(exponent_of(1.0), 1); // 1.0 = 0.5 · 2^1
        assert_eq!(exponent_of(0.5), 0);
        assert_eq!(exponent_of(0.75), 0);
        assert_eq!(exponent_of(2.0), 2);
        assert_eq!(exponent_of(100.0), 7); // 64 ≤ 100 < 128
        for e in [-100i32, -10, 0, 10, 100] {
            let x = (2f64).powi(e) * 0.7;
            let got = exponent_of(x);
            assert!((2f64).powi(got - 1) <= x && x < (2f64).powi(got), "e={e} got={got}");
        }
    }

    #[test]
    fn fixed_point_round_trip_within_half_ulp() {
        let block: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).sin() * 50.0).collect();
        let emax = exponent_of(50.0);
        let mut q = vec![0i64; 16];
        to_fixed_point(&block, emax, &mut q);
        let mut back = vec![0.0f32; 16];
        from_fixed_point(&q, emax, &mut back);
        let res = (2f64).powi(emax - (PRECISION - 2));
        for (a, b) in block.iter().zip(&back) {
            assert!((*a as f64 - *b as f64).abs() <= res, "{a} vs {b}");
        }
    }

    /// [`to_fixed_point`] as it was: libm's `round`, ties away from zero.
    fn to_fixed_point_libm(block: &[f32], emax: i32, out: &mut [i64]) {
        let scale = (2f64).powi(PRECISION - 2 - emax);
        for (q, &x) in out.iter_mut().zip(block) {
            *q = (x as f64 * scale).round() as i64;
        }
    }

    /// Largest `emax − e_x` an f32 block can have: `emax ≤ 128`, and the
    /// least subnormal, 2^−149, has exponent −148.
    const MAX_OFFSET: i32 = 128 + 148;

    /// [`to_fixed_point`] equals libm on `±m · 2^−24` for each significand
    /// `m` (implicit bit included, so `x` has exponent 0) at every block
    /// exponent `emax = 15 ..= MAX_OFFSET`. There `y = ±m · 2^(14 − emax)`
    /// has a fractional part for some `m`, and is a tie for some.
    fn rounding_agrees(significands: &[u32]) {
        for chunk in significands.chunks(MAX_BLOCK_LEN / 2) {
            let block: Vec<f32> = chunk
                .iter()
                .flat_map(|&m| {
                    let x = m as f32 / (1u32 << 24) as f32;
                    [x, -x]
                })
                .collect();
            for emax in 15..=MAX_OFFSET {
                let (mut got, mut want) = ([0i64; MAX_BLOCK_LEN], [0i64; MAX_BLOCK_LEN]);
                to_fixed_point(&block, emax, &mut got);
                to_fixed_point_libm(&block, emax, &mut want);
                assert_eq!(got, want, "emax {emax}, significands {chunk:x?}");
            }
        }
    }

    #[test]
    fn rounding_matches_libm() {
        // A stride through the significands, and at every bit position a
        // tie: that bit set, the bits below it clear, the bits above mixed.
        let stride = (1u32 << 23..1 << 24).step_by(4099);
        let ties = (0..24).flat_map(|t| {
            (0..64u32).map(move |h| {
                ((h.wrapping_mul(0x9E37_79B9) << t << 1 | 1 << t) & 0xFF_FFFF) | 1 << 23
            })
        });
        rounding_agrees(&stride.chain(ties).collect::<Vec<u32>>());
    }

    // Run by `scripts/check.sh --full`: every f32 significand.
    #[test]
    #[ignore = "deep variant"]
    fn rounding_matches_libm_deep() {
        let all: Vec<u32> = (1u32 << 23..1 << 24).collect();
        rounding_agrees(&all);
    }

    fn plane_round_trip(nb: &[u64], kmax: u32, kmin: u32, budget: u64) -> Vec<u64> {
        let mut w = BitWriter::new();
        let written = encode_planes(nb, kmax, kmin, budget, &mut w);
        assert!(written <= budget);
        let bytes = w.into_bytes();
        let mut out = vec![0u64; nb.len()];
        let mut r = BitReader::new(&bytes);
        let consumed = decode_planes(&mut out, kmax, kmin, budget, &mut r).unwrap();
        assert_eq!(consumed, written, "encoder/decoder consumed different bit counts");
        out
    }

    #[test]
    fn planes_lossless_with_unlimited_budget() {
        let patterns: Vec<Vec<u64>> = vec![
            vec![0; 16],
            vec![1; 16],
            (0..16).map(|i| (i as u64) << 3).collect(),
            (0..16).map(|i| (i as u64).wrapping_mul(0x9E37) & 0xFFFF).collect(),
            (0..64).map(|i| if i == 63 { 0xABCDE } else { 0 }).collect(),
        ];
        for nb in patterns {
            let kmax = 40;
            let out = plane_round_trip(&nb, kmax, 0, u64::MAX / 2);
            assert_eq!(out, nb);
        }
    }

    #[test]
    fn truncated_kmin_keeps_high_planes() {
        let nb: Vec<u64> = (0..16).map(|i| (i as u64) * 0x111).collect();
        let kmin = 6;
        let out = plane_round_trip(&nb, 20, kmin, u64::MAX / 2);
        for (a, b) in nb.iter().zip(&out) {
            assert_eq!(a >> kmin, b >> kmin, "high planes must survive");
            assert_eq!(b & ((1 << kmin) - 1), 0, "low planes must be zero");
        }
    }

    #[test]
    fn every_budget_value_round_trips_consistently() {
        // The decoder must mirror the encoder for *any* cutoff point.
        let nb: Vec<u64> = (0..16).map(|i| ((i as u64) << 5) ^ (i as u64 * 3)).collect();
        let full = {
            let mut w = BitWriter::new();
            encode_planes(&nb, 24, 0, u64::MAX / 2, &mut w)
        };
        for budget in 0..=full + 4 {
            let out = plane_round_trip(&nb, 24, 0, budget);
            // Decoded coefficients can only lose low-order information.
            for (a, b) in nb.iter().zip(&out) {
                // Each decoded bit must exist in the original.
                assert_eq!(b & !a, 0, "budget {budget}: decoder invented bit");
            }
        }
    }

    #[test]
    fn group_testing_saves_bits_on_sparse_planes() {
        // One big DC coefficient, everything else zero: cost must be far
        // below the raw 4^d bits per plane.
        let mut nb = vec![0u64; 64];
        nb[0] = 0xF_FFFF;
        let mut w = BitWriter::new();
        let written = encode_planes(&nb, 30, 0, u64::MAX / 2, &mut w);
        let raw = 31 * 64;
        assert!(written < raw / 4, "written {written} vs raw {raw}");
    }

    #[test]
    fn forward_inverse_block_round_trip() {
        for d in 1..=3usize {
            let n = 4usize.pow(d as u32);
            let block: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.21).cos() * 8.0 + 1.0).collect();
            let emax = exponent_of(9.5);
            let bc = forward_block(&block, emax, d);
            let mut out = vec![0.0f32; n];
            inverse_block(&bc.nb, emax, d, &mut out);
            let res = (2f64).powi(emax - (PRECISION - 2 - 2 * d as i32));
            for (a, b) in block.iter().zip(&out) {
                assert!((*a as f64 - *b as f64).abs() <= res, "d={d}: {a} vs {b}");
            }
        }
    }

    /// Plane `k` as a word, one bit per coefficient: the per-plane gather
    /// that [`transpose64`] replaced.
    fn gather_plane_bitwise(coeffs: &[u64], k: i64) -> u64 {
        let mut x = 0;
        for (i, &c) in coeffs.iter().enumerate() {
            x |= ((c >> k) & 1) << i;
        }
        x
    }

    /// The plane coder as it was before it moved whole prefixes and runs:
    /// one `write_bit` per bit.
    fn encode_planes_bitwise(
        coeffs: &[u64],
        kmax: u32,
        kmin: u32,
        budget: u64,
        w: &mut BitWriter,
    ) -> u64 {
        let size = coeffs.len();
        let mut left = budget;
        let mut n = 0usize;
        let mut k = kmax as i64;
        while k >= kmin as i64 && left > 0 {
            let mut x = gather_plane_bitwise(coeffs, k);
            let mut i = 0usize;
            while i < n && left > 0 {
                w.write_bit(x & 1 == 1);
                left -= 1;
                x >>= 1;
                i += 1;
            }
            if i < n {
                break;
            }
            'outer: while n < size && left > 0 {
                let any = x != 0;
                w.write_bit(any);
                left -= 1;
                if !any {
                    break;
                }
                loop {
                    if n == size - 1 {
                        x >>= 1;
                        n += 1;
                        break;
                    }
                    if left == 0 {
                        break 'outer;
                    }
                    let b = x & 1 == 1;
                    w.write_bit(b);
                    left -= 1;
                    x >>= 1;
                    n += 1;
                    if b {
                        break;
                    }
                }
            }
            k -= 1;
        }
        budget - left
    }

    /// Its decoder: one `read_bit().unwrap_or(false)` per bit.
    fn decode_planes_bitwise(
        coeffs: &mut [u64],
        kmax: u32,
        kmin: u32,
        budget: u64,
        r: &mut BitReader<'_>,
    ) -> u64 {
        let size = coeffs.len();
        let mut left = budget;
        let mut n = 0usize;
        let mut k = kmax as i64;
        let read = |left: &mut u64, r: &mut BitReader<'_>| -> bool {
            *left -= 1;
            r.read_bit().unwrap_or(false)
        };
        while k >= kmin as i64 && left > 0 {
            let mut i = 0usize;
            while i < n && left > 0 {
                if read(&mut left, r) {
                    coeffs[i] |= 1u64 << k;
                }
                i += 1;
            }
            if i < n {
                break;
            }
            'outer: while n < size && left > 0 {
                let any = read(&mut left, r);
                if !any {
                    break;
                }
                loop {
                    if n == size - 1 {
                        coeffs[n] |= 1u64 << k;
                        n += 1;
                        break;
                    }
                    if left == 0 {
                        break 'outer;
                    }
                    if read(&mut left, r) {
                        coeffs[n] |= 1u64 << k;
                        n += 1;
                        break;
                    }
                    n += 1;
                }
            }
            k -= 1;
        }
        budget - left
    }

    const UNLIMITED: u64 = u64::MAX / 2;

    /// Same bytes and bit count as the bitwise encoder, and the same
    /// coefficients, bit count and cursor as the bitwise decoder — on the
    /// encoder's own output and on `noise` standing in for a corrupted one.
    fn coders_match_bitwise(nb: &[u64], kmax: u32, kmin: u32, budget: u64, noise: &[u8]) {
        let (mut fast, mut slow) = (BitWriter::new(), BitWriter::new());
        let written = encode_planes(nb, kmax, kmin, budget, &mut fast);
        assert_eq!(written, encode_planes_bitwise(nb, kmax, kmin, budget, &mut slow));
        assert_eq!(fast.bit_len(), slow.bit_len());
        let bytes = fast.into_bytes();
        assert_eq!(bytes, slow.into_bytes(), "kmax {kmax} kmin {kmin} budget {budget}");
        for stream in [&bytes[..], &bytes[..bytes.len() / 2], noise] {
            let (mut got, mut want) = (vec![0u64; nb.len()], vec![0u64; nb.len()]);
            let (mut r, mut r_slow) = (BitReader::new(stream), BitReader::new(stream));
            let consumed = decode_planes(&mut got, kmax, kmin, budget, &mut r).unwrap();
            assert_eq!(consumed, decode_planes_bitwise(&mut want, kmax, kmin, budget, &mut r_slow));
            assert_eq!(got, want, "kmax {kmax} kmin {kmin} budget {budget}");
            assert_eq!(r.bit_pos(), r_slow.bit_pos());
        }
    }

    /// The fact the accuracy-mode trial rests on: with no bit budget the
    /// decoder gets back exactly planes `kmin..=kmax`.
    fn unlimited_decode_is_a_mask(nb: &[u64], kmax: u32) {
        for kmin in 0..=kmax {
            let out = plane_round_trip(nb, kmax, kmin, UNLIMITED);
            let want: Vec<u64> = nb.iter().map(|&c| c & !((1u64 << kmin) - 1)).collect();
            assert_eq!(out, want, "kmin {kmin} kmax {kmax}");
        }
    }

    #[test]
    fn fully_active_3d_block_round_trips_at_every_budget() {
        // Every coefficient set in the top plane: from the second plane on
        // the verbatim prefix is all 64 bits, moved by one 64-bit write.
        let nb: Vec<u64> = (0..64u64).map(|i| (1 << 12) | (i * 0x9D) & 0xFFF).collect();
        let full = encode_planes(&nb, 12, 0, UNLIMITED, &mut BitWriter::new());
        assert!(full > 12 * 64);
        for budget in 0..=full + 2 {
            coders_match_bitwise(&nb, 12, 0, budget, &[0xFF; 128]);
            let out = plane_round_trip(&nb, 12, 0, budget);
            for (a, b) in nb.iter().zip(&out) {
                assert_eq!(b & !a, 0, "budget {budget}: decoder invented bit");
            }
        }
        assert_eq!(plane_round_trip(&nb, 12, 0, full), nb);
        unlimited_decode_is_a_mask(&nb, 12);
    }

    use proptest::prelude::*;

    fn arb_block() -> impl Strategy<Value = (Vec<u64>, Vec<u8>)> {
        let coeffs = (1u32..=3, 0u32..=K_TOP).prop_flat_map(|(d, bits)| {
            // Sparse high planes, dense low ones — the shape transform
            // output has — by masking each coefficient to a random width.
            let n = 4usize.pow(d);
            proptest::collection::vec((any::<u64>(), 0..=bits), n..=n).prop_map(|pairs| {
                pairs.into_iter().map(|(v, w)| v & ((1u64 << w) - 1)).collect::<Vec<u64>>()
            })
        });
        (coeffs, proptest::collection::vec(any::<u8>(), 0..200))
    }

    fn block_agrees(nb: &[u64], noise: &[u8], budget_seed: u64) {
        let all = nb.iter().fold(0, |a, &c| a | c);
        let kmax = if all == 0 { 0 } else { 63 - all.leading_zeros() };
        unlimited_decode_is_a_mask(nb, kmax);
        let full = encode_planes(nb, kmax, 0, UNLIMITED, &mut BitWriter::new());
        for kmin in [0, kmax / 2, kmax] {
            for budget in [UNLIMITED, full, budget_seed % (full + 2), 1, 0] {
                coders_match_bitwise(nb, kmax, kmin, budget, noise);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn transpose64_is_the_bit_transpose_and_an_involution(
            rows in proptest::collection::vec(any::<u64>(), MAX_BLOCK_LEN..=MAX_BLOCK_LEN),
            widths in proptest::collection::vec(0u32..=64, MAX_BLOCK_LEN..=MAX_BLOCK_LEN),
        ) {
            // Rows masked to random widths, so sparse matrices come up too.
            let mut a = [0u64; MAX_BLOCK_LEN];
            for ((a, &row), &w) in a.iter_mut().zip(&rows).zip(&widths) {
                *a = row & u64::MAX.checked_shr(64 - w).unwrap_or(0);
            }
            let mut t = a;
            transpose64(&mut t);
            // Bit `i` of plane `k` is bit `k` of `a[i]`: the bit transpose.
            for (k, &plane) in t.iter().enumerate() {
                prop_assert_eq!(plane, gather_plane_bitwise(&a, k as i64));
            }
            transpose64(&mut t);
            prop_assert_eq!(t, a);
        }

        #[test]
        fn plane_coder_differential((nb, noise) in arb_block(), budget_seed: u64) {
            block_agrees(&nb, &noise, budget_seed);
        }
    }

    // Run by `scripts/check.sh --full`.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        #[ignore = "deep variant"]
        fn plane_coder_differential_deep((nb, noise) in arb_block(), budget_seed: u64) {
            block_agrees(&nb, &noise, budget_seed);
        }
    }
}
