//! Bit-level helpers shared by the ECC codecs and the fault injector.
//!
//! All helpers address bits within a byte slice using a single linear bit
//! index. Bit `i` lives in byte `i / 8`; within a byte, bit 0 is the least
//! significant bit. This matches how the fault-injection study in the paper
//! indexes "bit 400,005 of the compressed data".

/// Total number of bits in a byte slice.
#[inline]
pub(crate) fn bit_len(bytes: &[u8]) -> u64 {
    bytes.len() as u64 * 8
}

/// Read bit `idx` of `bytes`.
///
/// # Panics
/// Panics if `idx` is out of range.
#[inline]
pub(crate) fn get_bit(bytes: &[u8], idx: u64) -> bool {
    let byte = bytes[(idx / 8) as usize];
    (byte >> (idx % 8)) & 1 == 1
}

/// Set bit `idx` of `bytes` to `value`.
///
/// # Panics
/// Panics if `idx` is out of range.
#[inline]
pub(crate) fn set_bit(bytes: &mut [u8], idx: u64, value: bool) {
    let b = &mut bytes[(idx / 8) as usize];
    let mask = 1u8 << (idx % 8);
    if value {
        *b |= mask;
    } else {
        *b &= !mask;
    }
}

/// Flip bit `idx` of `bytes` (the soft-error model used throughout).
///
/// # Panics
/// Panics if `idx` is out of range.
#[inline]
pub fn flip_bit(bytes: &mut [u8], idx: u64) {
    bytes[(idx / 8) as usize] ^= 1u8 << (idx % 8);
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
    out: &'a mut [u8],
    /// Staging bits; the low `nbits` are valid.
    acc: u128,
    nbits: u32,
    /// Next byte of `out` to store.
    byte: usize,
}

impl<'a> PackedBitWriter<'a> {
    /// Pack into `out`, starting at its first bit.
    pub(crate) fn new(out: &'a mut [u8]) -> Self {
        PackedBitWriter { out, acc: 0, nbits: 0, byte: 0 }
    }

    /// Append the low `n` bits of `value`, least-significant bit first.
    ///
    /// # Panics
    /// Panics (in debug) if `n > 64` or `value` has bits above `n`, and (in
    /// release, via slice indexing) if the packed bits overflow `out`.
    #[inline]
    pub(crate) fn push(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        debug_assert!(n == 64 || value < (1u64 << n));
        self.acc |= (value as u128) << self.nbits;
        self.nbits += n;
        if self.nbits >= 64 {
            self.out[self.byte..self.byte + 8].copy_from_slice(&(self.acc as u64).to_le_bytes());
            self.byte += 8;
            self.acc >>= 64;
            self.nbits -= 64;
        }
    }

    /// Flush the staged tail (if any) as `⌈nbits/8⌉` byte stores.
    pub(crate) fn finish(mut self) {
        let mut acc = self.acc as u64;
        let mut nbits = self.nbits;
        while nbits > 0 {
            self.out[self.byte] = acc as u8;
            self.byte += 1;
            acc >>= 8;
            nbits = nbits.saturating_sub(8);
        }
    }
}

/// Read the `n`-bit group starting at bit `idx` of `bytes` (LSB first) with
/// a single zero-padded word load — the decode-side counterpart of
/// [`PackedBitWriter`]. `n` must be ≤ 57 so the group fits one 8-byte
/// window at any bit offset.
///
/// # Panics
/// Panics (in debug) if `n > 57` or the group extends past the slice.
#[inline]
pub(crate) fn read_bits_at(bytes: &[u8], idx: u64, n: u32) -> u64 {
    debug_assert!(n <= 57);
    debug_assert!(idx + n as u64 <= bit_len(bytes));
    let byte = (idx / 8) as usize;
    let take = bytes.len().min(byte + 8) - byte;
    let mut w = [0u8; 8];
    w[..take].copy_from_slice(&bytes[byte..byte + take]);
    (u64::from_le_bytes(w) >> (idx % 8)) & ((1u64 << n) - 1)
}

#[cfg(test)]
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
    fn read_bits_at_handles_slice_tail() {
        let bytes = [0xFFu8, 0xA5];
        assert_eq!(read_bits_at(&bytes, 12, 4), 0xA);
        assert_eq!(read_bits_at(&bytes, 8, 8), 0xA5);
        assert_eq!(read_bits_at(&bytes, 15, 1), 1);
    }
}
