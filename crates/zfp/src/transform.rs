//! ZFP's near-orthogonal integer lifting transform.
//!
//! Each 4-vector is decorrelated with the non-orthogonal transform from the
//! ZFP paper (Lindstrom 2014, §2.1.2 of the ARC paper):
//!
//! ```text
//!          ( 4  4  4  4) (x)
//! 1/16  ·  ( 5  1 −1 −5) (y)
//!          (−4  4  4 −4) (z)
//!          (−2  6 −6  2) (w)
//! ```
//!
//! implemented as integer lifting steps so the inverse reproduces inputs
//! exactly. Multi-dimensional blocks apply the 1-D transform along every
//! axis.

/// Number of samples per block edge.
pub const BLOCK_EDGE: usize = 4;

/// Forward lift of one 4-vector `[x, y, z, w]`.
#[inline]
pub fn fwd_lift([mut x, mut y, mut z, mut w]: [i64; 4]) -> [i64; 4] {
    x += w;
    x >>= 1;
    w -= x;
    z += y;
    z >>= 1;
    y -= z;
    x += z;
    x >>= 1;
    z -= x;
    w += y;
    w >>= 1;
    y -= w;
    w += y >> 1;
    y -= w >> 1;
    [x, y, z, w]
}

/// Inverse lift of one 4-vector (exact inverse of [`fwd_lift`]).
#[inline]
pub fn inv_lift([mut x, mut y, mut z, mut w]: [i64; 4]) -> [i64; 4] {
    y += w >> 1;
    w -= y >> 1;
    y += w;
    w <<= 1;
    w -= y;
    z += x;
    x <<= 1;
    x -= z;
    y += z;
    z <<= 1;
    z -= y;
    w += x;
    x <<= 1;
    x -= w;
    [x, y, z, w]
}

/// Hand every 4-vector of `block` along the axis of stride `S` to `lift`.
/// A group of `4·S` coefficients is four rows of `S`, one per vector
/// element; a block shorter than one group has no vectors along the axis,
/// so a 1-D block has none at strides 4 and 16 and a 2-D block none at 16.
#[inline(always)]
fn lift_axis<const S: usize>(block: &mut [i64], mut lift: impl FnMut(&mut [i64; 4])) {
    for group in block.chunks_exact_mut(4 * S) {
        let [x, y, z, w] = group.as_chunks_mut::<S>().0 else { continue };
        // Four vectors per inner loop: LLVM vectorizes a 16-wide one into
        // code slower than the scalar lifts on baseline x86-64.
        let fours = x.chunks_mut(4).zip(y.chunks_mut(4)).zip(z.chunks_mut(4)).zip(w.chunks_mut(4));
        for (((x, y), z), w) in fours {
            for (((x, y), z), w) in x.iter_mut().zip(y).zip(z).zip(w) {
                let mut v = [*x, *y, *z, *w];
                lift(&mut v);
                [*x, *y, *z, *w] = v;
            }
        }
    }
}

/// Forward transform of a full block (4^d coefficients) in place: the lift
/// along every axis, fastest first.
pub fn fwd_transform(block: &mut [i64]) {
    lift_axis::<1>(block, |v| *v = fwd_lift(*v));
    lift_axis::<4>(block, |v| *v = fwd_lift(*v));
    lift_axis::<16>(block, |v| *v = fwd_lift(*v));
}

/// Inverse transform of a full block in place: [`fwd_transform`]'s lifts
/// undone in reverse order.
pub fn inv_transform(block: &mut [i64]) {
    lift_axis::<16>(block, |v| *v = inv_lift(*v));
    lift_axis::<4>(block, |v| *v = inv_lift(*v));
    lift_axis::<1>(block, |v| *v = inv_lift(*v));
}

/// Total sequency of coefficient `i`: the sum of its per-axis frequency
/// indices, which are its base-4 digits.
const fn sequency(mut i: usize) -> usize {
    let mut sum = 0;
    while i > 0 {
        sum += i % BLOCK_EDGE;
        i /= BLOCK_EDGE;
    }
    sum
}

/// The `N = 4^d` coefficient indices sorted by `(sequency, index)`.
const fn sequency_table<const N: usize>() -> [usize; N] {
    let mut order = [0usize; N];
    let mut slot = 0;
    let mut key = 0;
    while slot < N {
        let mut i = 0;
        while i < N {
            if sequency(i) == key {
                order[slot] = i;
                slot += 1;
            }
            i += 1;
        }
        key += 1;
    }
    order
}

static ORDER_1D: [usize; 4] = sequency_table();
static ORDER_2D: [usize; 16] = sequency_table();
static ORDER_3D: [usize; 64] = sequency_table();

/// Total-sequency coefficient ordering: low-frequency coefficients first
/// (sorted by the sum of per-axis indices, ties broken by linear index).
/// This is the order bit planes serialize coefficients in, so fixed-rate
/// truncation drops the highest frequencies first. One table per
/// dimensionality, built at compile time.
pub fn sequency_order(d: usize) -> &'static [usize] {
    match d {
        1 => &ORDER_1D,
        2 => &ORDER_2D,
        _ => &ORDER_3D,
    }
}

/// The per-dimensionality transforms the per-axis lifts replaced, kept
/// as the oracle they are differential-tested against in `block::tests`.
#[cfg(test)]
pub(crate) mod reference {
    /// Forward lift of one 4-vector at stride `s`.
    fn fwd_lift(p: &mut [i64], offset: usize, s: usize) {
        let v = [p[offset], p[offset + s], p[offset + 2 * s], p[offset + 3 * s]];
        [p[offset], p[offset + s], p[offset + 2 * s], p[offset + 3 * s]] = super::fwd_lift(v);
    }

    /// Inverse lift of one 4-vector at stride `s`.
    fn inv_lift(p: &mut [i64], offset: usize, s: usize) {
        let v = [p[offset], p[offset + s], p[offset + 2 * s], p[offset + 3 * s]];
        [p[offset], p[offset + s], p[offset + 2 * s], p[offset + 3 * s]] = super::inv_lift(v);
    }

    pub(crate) fn fwd_transform(block: &mut [i64], d: usize) {
        match d {
            1 => fwd_lift(block, 0, 1),
            2 => {
                for row in 0..4 {
                    fwd_lift(block, row * 4, 1);
                }
                for col in 0..4 {
                    fwd_lift(block, col, 4);
                }
            }
            _ => {
                for z in 0..4 {
                    for y in 0..4 {
                        fwd_lift(block, z * 16 + y * 4, 1);
                    }
                }
                for z in 0..4 {
                    for x in 0..4 {
                        fwd_lift(block, z * 16 + x, 4);
                    }
                }
                for y in 0..4 {
                    for x in 0..4 {
                        fwd_lift(block, y * 4 + x, 16);
                    }
                }
            }
        }
    }

    pub(crate) fn inv_transform(block: &mut [i64], d: usize) {
        match d {
            1 => inv_lift(block, 0, 1),
            2 => {
                for col in 0..4 {
                    inv_lift(block, col, 4);
                }
                for row in 0..4 {
                    inv_lift(block, row * 4, 1);
                }
            }
            _ => {
                for y in 0..4 {
                    for x in 0..4 {
                        inv_lift(block, y * 4 + x, 16);
                    }
                }
                for z in 0..4 {
                    for x in 0..4 {
                        inv_lift(block, z * 16 + x, 4);
                    }
                }
                for z in 0..4 {
                    for y in 0..4 {
                        inv_lift(block, z * 16 + y * 4, 1);
                    }
                }
            }
        }
    }

    /// Sum of the per-axis frequency indices of coefficient `i` in a
    /// `d`-D block.
    pub(crate) fn sequency(i: usize, d: usize) -> usize {
        match d {
            1 => i,
            2 => (i / 4) + (i % 4),
            _ => (i / 16) + ((i / 4) % 4) + (i % 4),
        }
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
mod tests {
    use super::*;

    fn pseudo(i: usize, salt: u64) -> i64 {
        let h = (i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15 ^ salt);
        ((h >> 24) as i64 & 0xFFFFF) - 0x80000
    }

    // Like real ZFP, the lifting pair is not bit-exact: each `>>1` discards
    // a low bit, so inv(fwd(v)) reconstructs within a few integer ULPs
    // (measured: ≤2 in 1-D, ≤8 in 2-D). The fixed-point scale of 2^38
    // renders this far below any practical error bound, and the accuracy
    // mode verifies the final tolerance per block regardless.
    const LIFT_SLACK: [i64; 4] = [0, 4, 16, 64];

    #[test]
    fn lift_round_trips_within_slack() {
        for salt in 0..200u64 {
            let orig: [i64; 4] = std::array::from_fn(|i| pseudo(i, salt));
            let v = inv_lift(fwd_lift(orig));
            for (a, b) in v.iter().zip(&orig) {
                assert!((a - b).abs() <= LIFT_SLACK[1], "salt {salt}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn lift_round_trips_at_extremes() {
        for vals in [
            [0i64, 0, 0, 0],
            [1 << 40, -(1 << 40), 1 << 40, -(1 << 40)],
            [i64::from(i32::MAX), i64::from(i32::MIN), 0, 1],
        ] {
            let v = inv_lift(fwd_lift(vals));
            for (a, b) in v.iter().zip(&vals) {
                assert!((a - b).abs() <= LIFT_SLACK[1], "{a} vs {b}");
            }
        }
    }

    #[test]
    fn full_transform_round_trips_within_slack() {
        for (d, &slack) in LIFT_SLACK.iter().enumerate().skip(1) {
            let n = BLOCK_EDGE.pow(d as u32);
            for salt in 0..50u64 {
                let mut block: Vec<i64> = (0..n).map(|i| pseudo(i, salt * 7 + d as u64)).collect();
                let orig = block.clone();
                fwd_transform(&mut block);
                inv_transform(&mut block);
                for (a, b) in block.iter().zip(&orig) {
                    assert!((a - b).abs() <= slack, "d={d} salt={salt}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn transform_decorrelates_smooth_ramp() {
        // A linear ramp should concentrate energy in the low coefficients.
        let mut block: Vec<i64> = (0..16).map(|i| (i as i64) * 1000).collect();
        fwd_transform(&mut block);
        let order = sequency_order(2);
        let head: i64 = order[..4].iter().map(|&i| block[i].abs()).sum();
        let tail: i64 = order[8..].iter().map(|&i| block[i].abs()).sum();
        assert!(head > 4 * tail.max(1), "head {head} tail {tail}");
    }

    #[test]
    fn transform_gain_is_bounded() {
        // Coefficient magnitudes may not grow more than ~2 bits per axis.
        for d in 1..=3usize {
            let n = BLOCK_EDGE.pow(d as u32);
            let bound = 1i64 << 40;
            for salt in 0..40u64 {
                let mut block: Vec<i64> = (0..n).map(|i| pseudo(i, salt) % bound).collect();
                fwd_transform(&mut block);
                for &c in &block {
                    assert!(c.abs() < bound << (2 * d + 1), "d={d} c={c}");
                }
            }
        }
    }

    #[test]
    fn sequency_order_is_permutation_starting_at_dc() {
        for d in 1..=3usize {
            let n = BLOCK_EDGE.pow(d as u32);
            let order = sequency_order(d);
            assert_eq!(order.len(), n);
            let mut seen = vec![false; n];
            for &i in order {
                assert!(!seen[i]);
                seen[i] = true;
            }
            assert_eq!(order[0], 0, "DC coefficient first");
            // The definition the tables are built from: a stable sort by
            // total sequency, summed per dimensionality.
            let mut sorted: Vec<usize> = (0..n).collect();
            sorted.sort_by_key(|&i| (reference::sequency(i, d), i));
            assert_eq!(order, sorted);
        }
    }
}
