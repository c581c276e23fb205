//! Read-time arithmetic for locating blocks in a stream.
//!
//! ZFP-Rate gives every 4^d block exactly `floor(rate · 4^d)` bits
//! ([`rate_block_bits`]), so block `k` of a fixed-rate stream starts
//! `k · block_bits` bits past the payload offset that [`stream_info`]
//! reports. A reader of a sharded ARC container turns a rectangle of
//! blocks into a byte range with nothing more, whatever shard size the
//! writer chose.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, decompress, ZfpMode};

    fn field(dims: &[usize]) -> Vec<f32> {
        let n: usize = dims.iter().product();
        (0..n).map(|i| ((i as f32) * 0.013).sin() * 9.0).collect()
    }

    #[test]
    fn block_bits() {
        assert_eq!(rate_block_bits(8.0, 2), Some(128));
        assert_eq!(rate_block_bits(7.5, 2), Some(120));
        assert_eq!(rate_block_bits(2.25, 1), Some(9));
        assert_eq!(rate_block_bits(16.0, 3), Some(1024));
        // Invalid inputs.
        assert_eq!(rate_block_bits(8.0, 0), None);
        assert_eq!(rate_block_bits(8.0, 4), None);
        assert_eq!(rate_block_bits(0.5, 2), None);
        assert_eq!(rate_block_bits(f64::NAN, 2), None);
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
}
