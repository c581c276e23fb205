//! Bit-granular stream I/O for entropy coders.
//!
//! Compression streams (Huffman codes, ZFP bit planes) need MSB-first,
//! variable-width reads and writes. Both directions move a machine word at a
//! time (DESIGN.md §16): the writer keeps pending bits in a `u64` and appends
//! eight bytes whenever it fills; the reader tracks an explicit bit cursor,
//! loads a big-endian `u64` window at it, and returns structured errors on
//! exhaustion — a corrupted length field must surface as a decode error (the
//! paper's *Compressor Exception* outcome), never as UB.

use crate::error::LosslessError;

/// MSB-first bit writer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits not yet in `bytes`: the low `pending` bits, oldest highest; the
    /// bits above them are zero.
    acc: u64,
    /// Number of bits held in `acc`, always below 64.
    pending: u32,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the low `n` bits of `value`, most-significant bit first.
    ///
    /// # Panics
    /// Panics if `n > 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        assert!(n <= 64, "write_bits supports at most 64 bits");
        let value = if n == 64 { value } else { value & ((1u64 << n) - 1) };
        let room = 64 - self.pending;
        if n < room {
            self.acc = (self.acc << n) | value;
            self.pending += n;
            return;
        }
        // The top `room` bits of the field complete the word; `rest` < 64
        // bits of it stay pending.
        let rest = n - room;
        let head = value >> rest;
        let word = if room == 64 { head } else { (self.acc << room) | head };
        self.bytes.extend_from_slice(&word.to_be_bytes());
        self.acc = value & ((1u64 << rest) - 1);
        self.pending = rest;
    }

    /// Append a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Pad to a byte boundary with zero bits.
    pub fn align_byte(&mut self) {
        self.write_bits(0, (8 - self.pending % 8) % 8);
    }

    /// Total bits written.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + self.pending as u64
    }

    /// Finish, returning the backing bytes (final byte zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.pending > 0 {
            let word = self.acc << (64 - self.pending);
            let tail = self.pending.div_ceil(8) as usize;
            self.bytes.extend(word.to_be_bytes().into_iter().take(tail));
        }
        self.bytes
    }
}

/// MSB-first bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Wrap a slice; reading starts at bit 0 of byte 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Bits remaining.
    pub fn remaining(&self) -> u64 {
        self.bytes.len() as u64 * 8 - self.pos
    }

    /// Current cursor position in bits.
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// The next `n` bits, MSB-first in the low bits of the result, without
    /// moving the cursor. Bits past the end of the stream read as zero.
    ///
    /// # Panics
    /// Panics if `n > 64`.
    #[inline]
    pub fn peek_bits(&self, n: u32) -> u64 {
        // arc-lint: allow(decode-no-panic-transitive, every caller passes n <= 64: ZFP's field widths and width() clamp to 64, Huffman's max_len <= MAX_CODE_LEN, zstd-like's bucket.min(31))
        assert!(n <= 64, "peek_bits supports at most 64 bits");
        if n == 0 {
            return 0;
        }
        let byte = (self.pos / 8) as usize;
        let skip = (self.pos % 8) as u32;
        let mut window = load_word(self.bytes, byte) << skip;
        if skip + n > 64 {
            // A field this wide that starts mid-byte ends in a ninth byte.
            let ninth = self.bytes.get(byte + 8).copied().unwrap_or(0);
            window |= (ninth as u64) >> (8 - skip);
        }
        window >> (64 - n)
    }

    /// Advance the cursor `n` bits, stopping at the end of the stream. After
    /// [`BitReader::peek_bits`] this is the permissive read: what the stream
    /// does not hold was read as zeros.
    #[inline]
    pub fn consume(&mut self, n: u64) {
        self.pos += n.min(self.remaining());
    }

    /// Read one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, LosslessError> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Read `n` bits MSB-first into the low bits of the result. Past the end
    /// this is an error and the cursor does not move.
    ///
    /// # Panics
    /// Panics if `n > 64`.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, LosslessError> {
        if self.remaining() < n as u64 {
            return Err(exhausted());
        }
        let v = self.peek_bits(n);
        self.pos += n as u64;
        Ok(v)
    }

    /// Skip to the next byte boundary.
    pub fn align_byte(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }
}

/// The eight bytes of `bytes` from `at` on as one big-endian word; bytes past
/// the end read as zero.
#[inline]
fn load_word(bytes: &[u8], at: usize) -> u64 {
    let tail = bytes.get(at..).unwrap_or(&[]);
    match tail.first_chunk::<8>() {
        Some(chunk) => u64::from_be_bytes(*chunk),
        None => load_tail(tail),
    }
}

/// [`load_word`] within eight bytes of the end.
#[cold]
fn load_tail(tail: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    for (dst, src) in word.iter_mut().zip(tail) {
        *dst = *src;
    }
    u64::from_be_bytes(word)
}

#[cold]
fn exhausted() -> LosslessError {
    LosslessError::truncated("bit stream exhausted")
}

/// LEB128-style unsigned varint encoding, used by stream headers.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Decode a varint, advancing `pos`. Fails on truncation or overlong values.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, LosslessError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos).ok_or_else(|| LosslessError::truncated("varint truncated"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(LosslessError::malformed("varint too long"));
        }
        if shift == 63 && (b & 0x7E) != 0 {
            return Err(LosslessError::malformed("varint overflows u64"));
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// The bit-at-a-time writer and reader this module used before it moved a
/// word at a time, kept as the oracle the differential tests here and in
/// `huffman` compare against.
#[cfg(test)]
pub(crate) mod reference {
    use crate::error::LosslessError;

    #[derive(Default)]
    pub(crate) struct BitWriter {
        bytes: Vec<u8>,
        /// Bits used in the final byte (0..8); 0 means byte-aligned.
        partial: u32,
    }

    impl BitWriter {
        pub(crate) fn write_bits(&mut self, value: u64, n: u32) {
            for i in (0..n).rev() {
                let bit = (value >> i) & 1;
                if self.partial == 0 {
                    self.bytes.push(0);
                }
                *self.bytes.last_mut().unwrap() |= (bit as u8) << (7 - self.partial);
                self.partial = (self.partial + 1) % 8;
            }
        }

        pub(crate) fn align_byte(&mut self) {
            self.partial = 0;
        }

        pub(crate) fn bit_len(&self) -> u64 {
            let full = self.bytes.len() as u64 * 8;
            if self.partial == 0 {
                full
            } else {
                full - (8 - self.partial as u64)
            }
        }

        pub(crate) fn bytes(&self) -> &[u8] {
            &self.bytes
        }
    }

    #[derive(Clone)]
    pub(crate) struct BitReader<'a> {
        bytes: &'a [u8],
        pos: u64,
    }

    impl<'a> BitReader<'a> {
        pub(crate) fn new(bytes: &'a [u8]) -> Self {
            BitReader { bytes, pos: 0 }
        }

        pub(crate) fn remaining(&self) -> u64 {
            self.bytes.len() as u64 * 8 - self.pos
        }

        pub(crate) fn bit_pos(&self) -> u64 {
            self.pos
        }

        pub(crate) fn read_bit(&mut self) -> Result<bool, LosslessError> {
            if self.pos >= self.bytes.len() as u64 * 8 {
                return Err(LosslessError::truncated("bit stream exhausted"));
            }
            let byte = self.bytes[(self.pos / 8) as usize];
            let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
            self.pos += 1;
            Ok(bit)
        }

        pub(crate) fn read_bits(&mut self, n: u32) -> Result<u64, LosslessError> {
            if self.remaining() < n as u64 {
                return Err(LosslessError::truncated("bit stream exhausted"));
            }
            let mut v = 0u64;
            for _ in 0..n {
                v = (v << 1) | self.read_bit()? as u64;
            }
            Ok(v)
        }

        pub(crate) fn align_byte(&mut self) {
            self.pos = self.pos.div_ceil(8) * 8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_round_trip() {
        let mut w = BitWriter::new();
        let fields: &[(u64, u32)] = &[(0b1, 1), (0b0, 1), (0xDEADBEEF, 32), (0x3FF, 10), (0, 7)];
        for &(v, n) in fields {
            w.write_bits(v, n);
        }
        let total: u32 = fields.iter().map(|f| f.1).sum();
        assert_eq!(w.bit_len(), total as u64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in fields {
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            assert_eq!(r.read_bits(n).unwrap(), v & mask);
        }
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1010_0000]);
    }

    #[test]
    fn align_byte_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        w.align_byte();
        w.write_bits(0xFF, 8);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1100_0000, 0xFF]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        r.align_byte();
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
    }

    #[test]
    fn reader_errors_on_exhaustion() {
        let bytes = [0xAB];
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(8).is_ok());
        assert!(r.read_bit().is_err());
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn varint_round_trip() {
        let values = [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert!(read_varint(&[0x80, 0x80], &mut pos).is_err());
        let overlong = [0xFF; 11];
        let mut pos = 0;
        assert!(read_varint(&overlong, &mut pos).is_err());
    }

    #[test]
    fn peek_zero_fills_and_consume_stops_at_the_end() {
        let bytes = [0xAB, 0xCD];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(12), 0xABC);
        assert_eq!(r.bit_pos(), 0);
        r.consume(12);
        assert_eq!(r.peek_bits(8), 0xD0, "four real bits, four zeros");
        assert_eq!(r.peek_bits(64), 0xD << 60);
        assert!(r.read_bits(5).is_err());
        assert_eq!(r.bit_pos(), 12, "a failed read leaves the cursor alone");
        r.consume(100);
        assert_eq!((r.bit_pos(), r.remaining()), (16, 0));
        assert_eq!(r.peek_bits(64), 0);
    }

    #[test]
    fn sixty_four_bit_fields_at_every_bit_offset() {
        for skip in 0..8u32 {
            let mut w = BitWriter::new();
            w.write_bits(0x55, skip);
            w.write_bits(0xF0E1_D2C3_B4A5_9687, 64);
            w.write_bits(0b101, 3);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            r.read_bits(skip).unwrap();
            assert_eq!(r.peek_bits(64), 0xF0E1_D2C3_B4A5_9687, "skip {skip}");
            assert_eq!(r.read_bits(64).unwrap(), 0xF0E1_D2C3_B4A5_9687, "skip {skip}");
            assert_eq!(r.read_bits(3).unwrap(), 0b101);
        }
    }

    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    #[derive(Debug, Clone)]
    enum WriteOp {
        Bits(u64, u32),
        Bit(bool),
        Align,
    }

    fn write_ops() -> impl Strategy<Value = Vec<WriteOp>> {
        let bits = || (any::<u64>(), 0u32..=64).prop_map(|(v, n)| WriteOp::Bits(v, n));
        let op = prop_oneof![
            bits(),
            bits(),
            bits(),
            any::<bool>().prop_map(WriteOp::Bit),
            Just(WriteOp::Align)
        ];
        proptest::collection::vec(op, 0..96)
    }

    /// Same bytes and same `bit_len()` as the bit-at-a-time writer after
    /// every step of a random program.
    fn writer_matches_reference(ops: &[WriteOp]) -> Result<(), TestCaseError> {
        let mut fast = BitWriter::new();
        let mut slow = reference::BitWriter::default();
        for op in ops {
            match *op {
                WriteOp::Bits(v, n) => {
                    fast.write_bits(v, n);
                    slow.write_bits(v, n);
                }
                WriteOp::Bit(b) => {
                    fast.write_bit(b);
                    slow.write_bits(b as u64, 1);
                }
                WriteOp::Align => {
                    fast.align_byte();
                    slow.align_byte();
                }
            }
            prop_assert_eq!(fast.bit_len(), slow.bit_len(), "after {:?}", op);
            prop_assert_eq!(fast.clone().into_bytes(), slow.bytes(), "after {:?}", op);
        }
        Ok(())
    }

    #[derive(Debug, Clone)]
    enum ReadOp {
        Bits(u32),
        Bit,
        Align,
        PeekConsume(u32, u64),
    }

    fn read_program() -> impl Strategy<Value = (Vec<u8>, Vec<ReadOp>)> {
        let op = prop_oneof![
            (0u32..=64).prop_map(ReadOp::Bits),
            (0u32..=64).prop_map(ReadOp::Bits),
            Just(ReadOp::Bit),
            Just(ReadOp::Align),
            (0u32..=64, 0u64..=72).prop_map(|(n, m)| ReadOp::PeekConsume(n, m)),
        ];
        (proptest::collection::vec(any::<u8>(), 0..48), proptest::collection::vec(op, 0..64))
    }

    /// Same values, same cursor and the same `Ok`/`Err` past the end as the
    /// bit-at-a-time reader, for which a permissive read is one
    /// `read_bit().unwrap_or(false)` per bit.
    fn reader_matches_reference(bytes: &[u8], ops: &[ReadOp]) -> Result<(), TestCaseError> {
        let mut fast = BitReader::new(bytes);
        let mut slow = reference::BitReader::new(bytes);
        for op in ops {
            match *op {
                ReadOp::Bits(n) => {
                    prop_assert_eq!(fast.read_bits(n).ok(), slow.read_bits(n).ok(), "{:?}", op)
                }
                ReadOp::Bit => prop_assert_eq!(fast.read_bit().ok(), slow.read_bit().ok()),
                ReadOp::Align => {
                    fast.align_byte();
                    slow.align_byte();
                }
                ReadOp::PeekConsume(n, m) => {
                    let mut ahead = slow.clone();
                    let want = (0..n)
                        .fold(0u64, |v, _| (v << 1) | ahead.read_bit().unwrap_or(false) as u64);
                    prop_assert_eq!(fast.peek_bits(n), want, "{:?}", op);
                    fast.consume(m);
                    for _ in 0..m {
                        let _ = slow.read_bit();
                    }
                }
            }
            prop_assert_eq!(fast.bit_pos(), slow.bit_pos(), "after {:?}", op);
            prop_assert_eq!(fast.remaining(), slow.remaining(), "after {:?}", op);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn writer_differential(ops in write_ops()) {
            writer_matches_reference(&ops)?;
        }

        #[test]
        fn reader_differential((bytes, ops) in read_program()) {
            reader_matches_reference(&bytes, &ops)?;
        }
    }

    // Run by `scripts/check.sh --full`.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        #[ignore = "deep variant"]
        fn writer_differential_deep(ops in write_ops()) {
            writer_matches_reference(&ops)?;
        }

        #[test]
        #[ignore = "deep variant"]
        fn reader_differential_deep((bytes, ops) in read_program()) {
            reader_matches_reference(&bytes, &ops)?;
        }
    }
}
