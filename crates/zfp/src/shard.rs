//! Shard-boundary alignment for fixed-rate streams.
//!
//! ZFP-Rate gives every 4^d block exactly `floor(rate · 4^d)` bits, so the
//! bitstream is periodic: after `lcm(block_bits, 8) / 8` bytes the stream
//! is back on a simultaneous block *and* byte boundary. When a fixed-rate
//! stream is stored in a sharded ARC container (`encode_sharded`), picking
//! the shard size as a multiple of that period keeps shard boundaries on
//! block granularity — an uncorrectable shard then maps to a rectangle of
//! whole blocks instead of clipping a block in half, and a range read of a
//! block-aligned region touches no partial blocks in neighbouring shards.
//!
//! [`aligned_shard_size`] is the sizing hook;
//! [`recommended_shard_size`] applies it to a concrete stream (falling
//! back to the caller's target for accuracy-mode streams, whose blocks are
//! variable length and cannot be aligned).

use arc_lossless::bitio::read_varint;

use crate::{ZfpError, ZfpMode, MAGIC, VERSION};

/// Bits each 4^d block occupies in a fixed-rate stream, or `None` for an
/// invalid rate/dimensionality (mirrors [`ZfpMode::FixedRate`] validation).
pub fn rate_block_bits(rate: f64, d: usize) -> Option<u64> {
    if !(1..=3).contains(&d) || !rate.is_finite() || !(2.0..=48.0).contains(&rate) {
        return None;
    }
    let bl = 4u64.checked_pow(u32::try_from(d).ok()?)?;
    #[expect(clippy::cast_possible_truncation, reason = "rate is in 2..=48 and bl <= 64")]
    let bits = (rate * bl as f64).floor() as u64;
    (bits > 0).then_some(bits)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Smallest byte count spanning a whole number of fixed-rate blocks:
/// `lcm(block_bits, 8) / 8` bytes, holding `8 / gcd(block_bits, 8)` blocks.
pub fn block_byte_period(rate: f64, d: usize) -> Option<u64> {
    let bits = rate_block_bits(rate, d)?;
    Some(bits / gcd(bits, 8))
}

/// Largest block-aligned shard size not exceeding `target` (but never
/// below one period): `target` rounded down to a multiple of
/// [`block_byte_period`]. `None` for invalid rate/dimensionality.
pub fn aligned_shard_size(rate: f64, d: usize, target: usize) -> Option<usize> {
    let period = usize::try_from(block_byte_period(rate, d)?).ok()?;
    if target <= period {
        return Some(period);
    }
    Some(target - target % period)
}

/// Parsed framing of a compressed stream (header fields only — nothing of
/// the payload is decoded).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamInfo {
    /// Compression mode recorded in the header.
    pub mode: ZfpMode,
    /// Grid dimensions, slowest-varying first.
    pub dims: Vec<usize>,
    /// Byte offset where the block payload begins.
    pub payload_offset: usize,
    /// Declared payload length in bytes.
    pub payload_len: usize,
}

impl StreamInfo {
    /// Parse and validate a stream's header: the one parser, under
    /// [`stream_info`] and [`crate::decompress_with_limits`] alike.
    ///
    /// Total over arbitrary bytes. Running out of bytes inside a fixed-width
    /// field or before the declared payload ends is [`ZfpError::Truncated`];
    /// dimensions that multiply past `max_elements` are
    /// [`ZfpError::WorkBudgetExceeded`], checked before the payload length
    /// is read; everything else that is wrong is [`ZfpError::Malformed`].
    pub(crate) fn read(bytes: &[u8], max_elements: u64) -> Result<StreamInfo, ZfpError> {
        let truncated = || ZfpError::Truncated("header".into());
        let (magic, rest) = bytes.split_first_chunk::<4>().ok_or_else(truncated)?;
        let [version, tag] = *rest.first_chunk::<2>().ok_or_else(truncated)?;
        if magic != MAGIC {
            return Err(ZfpError::Malformed("bad ZFP magic".into()));
        }
        if version != VERSION {
            return Err(ZfpError::Malformed(format!("unsupported version {version}")));
        }
        let param = bytes.get(6..14).and_then(|b| b.try_into().ok()).ok_or_else(truncated)?;
        let mode = ZfpMode::from_tag(tag, f64::from_le_bytes(param))?;
        let ndims = usize::from(*bytes.get(14).ok_or_else(truncated)?);
        if ndims == 0 || ndims > 3 {
            return Err(ZfpError::Malformed(format!("unsupported dimensionality {ndims}")));
        }
        let mut pos = 15usize;
        // arc-lint: bounded(ndims <= 3 checked above)
        let mut dims = Vec::with_capacity(ndims);
        let mut product: u64 = 1;
        for _ in 0..ndims {
            let v = read_varint(bytes, &mut pos)
                .map_err(|e| ZfpError::Malformed(format!("dims: {e}")))?;
            if v == 0 {
                return Err(ZfpError::Malformed("zero-extent dimension".into()));
            }
            let overflow = || ZfpError::Malformed("dimension overflow".into());
            product = product.checked_mul(v).ok_or_else(overflow)?;
            dims.push(usize::try_from(v).map_err(|_| overflow())?);
        }
        if product > max_elements {
            return Err(ZfpError::WorkBudgetExceeded { demanded: product, budget: max_elements });
        }
        let payload_len = read_varint(bytes, &mut pos)
            .map_err(|e| ZfpError::Malformed(format!("payload length: {e}")))?;
        let payload_len = usize::try_from(payload_len)
            .ok()
            .filter(|&len| bytes.get(pos..).is_some_and(|rest| len <= rest.len()))
            .ok_or_else(|| ZfpError::Truncated("payload".into()))?;
        Ok(StreamInfo { mode, dims, payload_offset: pos, payload_len })
    }
}

/// Parse a stream's header without decoding it. `None` when the bytes are
/// not a well-formed stream of a supported version.
pub fn stream_info(bytes: &[u8]) -> Option<StreamInfo> {
    StreamInfo::read(bytes, u64::MAX).ok()
}

/// Byte offset where a **fixed-rate** stream's block payload begins —
/// shard the slice from this offset to get exact block alignment. `None`
/// for accuracy-mode or malformed streams.
pub fn rate_payload_offset(bytes: &[u8]) -> Option<usize> {
    let info = stream_info(bytes)?;
    matches!(info.mode, ZfpMode::FixedRate(_)).then_some(info.payload_offset)
}

/// Shard size to use when wrapping `bytes` in a sharded ARC container,
/// aiming for `target` bytes per shard: block-aligned for fixed-rate
/// streams, `target` unchanged for anything else (accuracy-mode blocks are
/// variable length; alignment is meaningless).
pub fn recommended_shard_size(bytes: &[u8], target: usize) -> usize {
    let aligned = stream_info(bytes).and_then(|info| match info.mode {
        ZfpMode::FixedRate(rate) => aligned_shard_size(rate, info.dims.len(), target),
        ZfpMode::FixedAccuracy(_) => None,
    });
    aligned.unwrap_or(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, decompress, ZfpMode};

    fn field(dims: &[usize]) -> Vec<f32> {
        let n: usize = dims.iter().product();
        (0..n).map(|i| ((i as f32) * 0.013).sin() * 9.0).collect()
    }

    #[test]
    fn block_bits_and_period() {
        // rate 8, d=2: 128 bits/block → already byte-aligned, 16-byte period.
        assert_eq!(rate_block_bits(8.0, 2), Some(128));
        assert_eq!(block_byte_period(8.0, 2), Some(16));
        // rate 7.5, d=2: 120 bits → lcm(120, 8)/8 = 15 bytes (one block).
        assert_eq!(block_byte_period(7.5, 2), Some(15));
        // rate 2.25, d=1: 9 bits → 9-byte period (8 blocks).
        assert_eq!(rate_block_bits(2.25, 1), Some(9));
        assert_eq!(block_byte_period(2.25, 1), Some(9));
        // rate 16, d=3: 1024 bits → 128 bytes.
        assert_eq!(block_byte_period(16.0, 3), Some(128));
        // Invalid inputs.
        assert_eq!(rate_block_bits(8.0, 0), None);
        assert_eq!(rate_block_bits(8.0, 4), None);
        assert_eq!(rate_block_bits(0.5, 2), None);
        assert_eq!(rate_block_bits(f64::NAN, 2), None);
    }

    #[test]
    fn aligned_size_rounds_down_with_floor_of_one_period() {
        assert_eq!(aligned_shard_size(8.0, 2, 4 << 20), Some(4 << 20)); // already aligned
        assert_eq!(aligned_shard_size(7.5, 2, 100), Some(90)); // 15 · 6
        assert_eq!(aligned_shard_size(7.5, 2, 15), Some(15));
        assert_eq!(aligned_shard_size(7.5, 2, 3), Some(15)); // floor: one period
        assert_eq!(aligned_shard_size(8.0, 5, 100), None);
    }

    #[test]
    fn stream_info_matches_decompress() {
        let dims = [24usize, 36];
        let data = field(&dims);
        for mode in [ZfpMode::FixedRate(8.0), ZfpMode::FixedAccuracy(0.01)] {
            let c = compress(&data, &dims, mode).unwrap();
            let info = stream_info(&c).unwrap();
            assert_eq!(info.mode, mode);
            assert_eq!(info.dims, dims);
            assert_eq!(info.payload_offset + info.payload_len, c.len());
            assert_eq!(decompress(&c).unwrap().dims, dims);
        }
    }

    #[test]
    fn rate_payload_offset_is_rate_only() {
        let dims = [16usize, 16];
        let data = field(&dims);
        let rate = compress(&data, &dims, ZfpMode::FixedRate(4.0)).unwrap();
        let acc = compress(&data, &dims, ZfpMode::FixedAccuracy(0.1)).unwrap();
        let off = rate_payload_offset(&rate).unwrap();
        assert!(off > 14 && off < rate.len());
        assert_eq!(rate_payload_offset(&acc), None);
        assert_eq!(rate_payload_offset(b"not a stream"), None);
        assert_eq!(rate_payload_offset(&rate[..10]), None);
    }

    #[test]
    fn recommended_size_aligns_rate_streams_only() {
        let dims = [32usize, 32];
        let data = field(&dims);
        // 7.5 bits/value → 15-byte period; 1000 rounds down to 990.
        let rate = compress(&data, &dims, ZfpMode::FixedRate(7.5)).unwrap();
        assert_eq!(recommended_shard_size(&rate, 1000), 990);
        let acc = compress(&data, &dims, ZfpMode::FixedAccuracy(0.1)).unwrap();
        assert_eq!(recommended_shard_size(&acc, 1000), 1000);
        assert_eq!(recommended_shard_size(b"garbage", 1000), 1000);
    }

    #[test]
    fn aligned_shards_keep_blocks_whole() {
        // Every shard boundary within the payload lands on a block
        // boundary: boundary bytes are multiples of the period.
        let rate = 7.5;
        let d = 2;
        let bits = rate_block_bits(rate, d).unwrap();
        let shard = aligned_shard_size(rate, d, 1 << 10).unwrap();
        for k in 1..=8u64 {
            let boundary_bits = k * shard as u64 * 8;
            assert_eq!(boundary_bits % bits, 0, "shard boundary {k} splits a block");
        }
    }
}
