//! Bit- and slice-level helpers shared by the ECC codecs, the container
//! and the fault injector.
//!
//! The bit helpers address bits within a byte slice using a single linear
//! bit index. Bit `i` lives in byte `i / 8`; within a byte, bit 0 is the
//! least significant bit. This matches how the fault-injection study in the
//! paper indexes "bit 400,005 of the compressed data".
//!
//! The slice helpers ([`chunked`], [`chunked_mut`], [`copy_prefix`]) are the
//! forms of `chunks`, `chunks_mut` and `copy_from_slice` that cannot panic:
//! the library crates deny those (DESIGN.md §10).

use std::ops::BitXor;

/// A table indexed by a byte: [`ByteTable::of`] is its only read, and a
/// `u8` index cannot leave it. The CRC slice tables and the GF(2^8) log,
/// multiply-row and GFNI tables all have this shape.
#[derive(Debug)]
pub(crate) struct ByteTable<T>(pub(crate) [T; 256]);

impl<T> ByteTable<T> {
    /// The table whose entry `b` is `f(b)`.
    pub(crate) fn from_fn(mut f: impl FnMut(u8) -> T) -> ByteTable<T> {
        // `array::from_fn` fills the entries in ascending index order.
        let mut bytes = 0..=u8::MAX;
        ByteTable(std::array::from_fn(|_| f(bytes.next().unwrap_or(u8::MAX))))
    }

    /// Entry `b`.
    #[inline(always)]
    #[expect(clippy::indexing_slicing, reason = "a u8 index into a 256-entry table")]
    pub(crate) fn of(&self, b: u8) -> &T {
        &self.0[usize::from(b)]
    }
}

/// A GF(2)-linear map of a `u64` word, read a byte at a time (slicing by
/// eight): entry `b` of table `k` is the image of `b << 8k`, and the image
/// of a word is the XOR of its eight bytes' entries. SEC-DED's parity group
/// and BCH's remainder step have this shape.
#[derive(Debug)]
pub(crate) struct SlicedLinear<T>([ByteTable<T>; 8]);

impl<T: Copy + Default + BitXor<Output = T>> SlicedLinear<T> {
    /// The tables of the map that sends bit `i` of a word to `columns[i]`,
    /// and a bit past the columns to zero.
    pub(crate) fn from_columns(columns: &[T]) -> SlicedLinear<T> {
        let image = |word: u64| {
            let set = columns.iter().take(64).enumerate().filter(|&(i, _)| word >> i & 1 == 1);
            set.fold(T::default(), |acc, (_, &c)| acc ^ c)
        };
        SlicedLinear(std::array::from_fn(|k| {
            ByteTable::from_fn(|b| image(u64::from(b) << (8 * k)))
        }))
    }

    /// The image of `word`.
    #[inline(always)]
    pub(crate) fn of(&self, word: u64) -> T {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &self.0;
        let [b0, b1, b2, b3, b4, b5, b6, b7] = word.to_le_bytes();
        (*t0.of(b0) ^ *t1.of(b1) ^ *t2.of(b2) ^ *t3.of(b3))
            ^ (*t4.of(b4) ^ *t5.of(b5) ^ *t6.of(b6) ^ *t7.of(b7))
    }

    /// The image of the word `b`, whose only non-zero byte is the low one:
    /// one lookup.
    #[inline(always)]
    pub(crate) fn of_low_byte(&self, b: u8) -> T {
        let [t0, ..] = &self.0;
        *t0.of(b)
    }
}

/// Read bit `idx` of `bytes`; a bit past the end reads as zero.
#[inline]
pub(crate) fn get_bit(bytes: &[u8], idx: u64) -> bool {
    bytes.get((idx / 8) as usize).is_some_and(|byte| (byte >> (idx % 8)) & 1 == 1)
}

/// Set bit `idx` of `bytes` to `value`; a bit past the end is not stored.
#[inline]
pub(crate) fn set_bit(bytes: &mut [u8], idx: u64, value: bool) {
    let Some(b) = bytes.get_mut((idx / 8) as usize) else { return };
    let mask = 1u8 << (idx % 8);
    if value {
        *b |= mask;
    } else {
        *b &= !mask;
    }
}

/// Flip bit `idx` of `bytes` (the soft-error model used throughout); a bit
/// past the end is left alone.
#[inline]
pub fn flip_bit(bytes: &mut [u8], idx: u64) {
    if let Some(b) = bytes.get_mut((idx / 8) as usize) {
        *b ^= 1u8 << (idx % 8);
    }
}

/// `data` in runs of `n` elements, the last one possibly shorter, and no
/// run at all for `n = 0`: `slice::chunks` without its panic.
#[inline]
pub fn chunked<T>(data: &[T], n: usize) -> impl Iterator<Item = &[T]> + Clone {
    let mut rest = if n == 0 { &[][..] } else { data };
    std::iter::from_fn(move || {
        let (head, tail) = rest.split_at_checked(n.min(rest.len()))?;
        rest = tail;
        (!head.is_empty()).then_some(head)
    })
}

/// [`chunked`] over a mutable slice: `slice::chunks_mut` without its panic.
#[inline]
pub fn chunked_mut<T>(data: &mut [T], n: usize) -> impl Iterator<Item = &mut [T]> {
    let mut rest = if n == 0 { &mut [][..] } else { data };
    std::iter::from_fn(move || {
        let taken = std::mem::take(&mut rest);
        let (head, tail) = taken.split_at_mut_checked(n.min(taken.len()))?;
        rest = tail;
        (!head.is_empty()).then_some(head)
    })
}

/// Copy `src` into the front of `dst`, as far as the shorter of the two
/// reaches: `copy_from_slice` without its panic on unequal lengths.
#[inline]
pub fn copy_prefix<T: Copy>(dst: &mut [T], src: &[T]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = *s;
    }
}

/// A fixed-destination bit packer that stores whole 64-bit words.
///
/// The ECC encoders emit one small (≤ 64-bit) parity group per block;
/// packing them through a u128 staging accumulator and flushing aligned
/// 8-byte words replaces the per-bit [`set_bit`] loop in the hot encode
/// paths. The writer covers its destination exactly: after `finish`, every
/// byte of `out` up to the packed bit length has been stored (trailing
/// padding bits of the final partial byte are zero), so callers need no
/// prior `fill(0)`.
#[derive(Debug)]
pub(crate) struct PackedBitWriter<'a> {
    /// The bytes not stored yet.
    out: &'a mut [u8],
    /// Staging bits; the low `nbits` are valid.
    acc: u128,
    nbits: u32,
}

impl<'a> PackedBitWriter<'a> {
    /// Pack into `out`, starting at its first bit.
    pub(crate) fn new(out: &'a mut [u8]) -> Self {
        PackedBitWriter { out, acc: 0, nbits: 0 }
    }

    /// Append the low `n ≤ 64` bits of `value`, least-significant bit
    /// first; `value` has no bits above `n`. Bits that overflow `out` are
    /// not stored.
    #[inline]
    pub(crate) fn push(&mut self, value: u64, n: u32) {
        let n = n.min(64);
        self.acc |= (value as u128) << self.nbits;
        self.nbits += n;
        if self.nbits >= 64 {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "stores the low 64 of the staged bits; the shift below keeps the rest"
            )]
            let low = self.acc as u64;
            if let Some((word, rest)) = std::mem::take(&mut self.out).split_first_chunk_mut() {
                *word = low.to_le_bytes();
                self.out = rest;
            }
            self.acc >>= 64;
            self.nbits -= 64;
        }
    }

    /// Flush the staged tail (if any) as `⌈nbits/8⌉` byte stores.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "after `push`, nbits < 64 so acc fits a u64"
    )]
    pub(crate) fn finish(self) {
        let tail = (self.acc as u64).to_le_bytes();
        for (b, t) in self.out.iter_mut().zip(tail).take(self.nbits.div_ceil(8) as usize) {
            *b = t;
        }
    }
}

/// Read the `n`-bit group starting at bit `idx` of `bytes` (LSB first) with
/// a single zero-padded word load — the decode-side counterpart of
/// [`PackedBitWriter`]. `n` is at most 57 so the group fits one 8-byte
/// window at any bit offset; bits past the slice read as zero.
#[inline]
pub(crate) fn read_bits_at(bytes: &[u8], idx: u64, n: u32) -> u64 {
    let n = n.min(57);
    (word_at(bytes, (idx / 8) as usize) >> (idx % 8)) & ((1u64 << n) - 1)
}

/// The little-endian u64 at byte `at` of `bytes`, zero-padded past the end.
#[inline]
pub(crate) fn word_at(bytes: &[u8], at: usize) -> u64 {
    let rest = bytes.get(at..).unwrap_or_default();
    if let Some(w) = rest.first_chunk() {
        return u64::from_le_bytes(*w);
    }
    let mut w = [0u8; 8];
    w.iter_mut().zip(rest).for_each(|(w, b)| *w = *b);
    u64::from_le_bytes(w)
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
mod tests {
    use super::*;

    #[test]
    fn get_set_flip_round_trip() {
        let mut v = vec![0u8; 4];
        set_bit(&mut v, 0, true);
        set_bit(&mut v, 9, true);
        set_bit(&mut v, 31, true);
        assert_eq!(v, [0b1, 0b10, 0, 0b1000_0000]);
        assert!(get_bit(&v, 9));
        assert!(!get_bit(&v, 8));
        flip_bit(&mut v, 9);
        assert!(!get_bit(&v, 9));
        flip_bit(&mut v, 9);
        assert!(get_bit(&v, 9));
    }

    #[test]
    fn packed_writer_matches_per_bit_reference() {
        // Groups of every width 1..=8 across several total lengths, compared
        // bit-for-bit against a set_bit reference.
        for width in 1u32..=8 {
            for groups in [1usize, 7, 8, 9, 63, 64, 65, 200] {
                let total_bits = groups as u64 * width as u64;
                let len = total_bits.div_ceil(8) as usize;
                let value = |g: usize| ((g as u64 * 2654435761) >> 7) & ((1u64 << width) - 1);
                let mut reference = vec![0u8; len];
                for g in 0..groups {
                    let v = value(g);
                    for b in 0..width as u64 {
                        if (v >> b) & 1 == 1 {
                            set_bit(&mut reference, g as u64 * width as u64 + b, true);
                        }
                    }
                }
                let mut packed = vec![0xEEu8; len]; // must be fully overwritten
                let mut w = PackedBitWriter::new(&mut packed);
                for g in 0..groups {
                    w.push(value(g), width);
                }
                w.finish();
                assert_eq!(packed, reference, "width={width} groups={groups}");
                // And the word-wide reader round-trips every group.
                for g in 0..groups {
                    assert_eq!(
                        read_bits_at(&reference, g as u64 * width as u64, width),
                        value(g),
                        "width={width} group={g}"
                    );
                }
            }
        }
    }

    #[test]
    fn sliced_linear_is_the_xor_of_its_columns() {
        let mut rng = crate::rscode::oracle::Rng(0x511C_ED08);
        for width in [8usize, 13, 64] {
            let columns: Vec<u64> = (0..width).map(|_| rng.next()).collect();
            let sliced = SlicedLinear::from_columns(&columns);
            let image = |word: u64| {
                (0..width).filter(|&i| word >> i & 1 == 1).fold(0, |acc, i| acc ^ columns[i])
            };
            for b in 0..=u8::MAX {
                assert_eq!(sliced.of_low_byte(b), image(u64::from(b)), "width={width} b={b}");
            }
            for _ in 0..1000 {
                let word = rng.next();
                assert_eq!(sliced.of(word), image(word), "width={width} word={word:#x}");
            }
        }
    }

    #[test]
    fn read_bits_at_handles_slice_tail() {
        let bytes = [0xFFu8, 0xA5];
        assert_eq!(read_bits_at(&bytes, 12, 4), 0xA);
        assert_eq!(read_bits_at(&bytes, 8, 8), 0xA5);
        assert_eq!(read_bits_at(&bytes, 15, 1), 1);
    }
}
