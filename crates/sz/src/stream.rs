//! Stream framing for the SZ-like codec.
//!
//! The header carries everything the decoder needs before it can trust the
//! body: mode, bound, dimensions, quantization bins, and the effective
//! absolute bound the encoder resolved. Header fields are validated
//! defensively — in the fault study these bytes get flipped, and a corrupted
//! dimension field is precisely how the paper's *Timeout* class arises
//! (§4.2: "corruptions in decompression loop controlling metadata").

use arc_lossless::bitio::{read_varint, write_varint};

use crate::error::SzError;
use crate::modes::ErrorBound;
use crate::predictor::PredictorKind;

/// Stream magic.
pub const MAGIC: &[u8; 4] = b"ASZ1";
/// Format version.
pub const VERSION: u8 = 1;

/// Parsed stream header.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// The user's error-bound selection.
    pub bound: ErrorBound,
    /// Resolved absolute bound in the coding domain.
    pub abs_eb: f64,
    /// Whether the body is coded in the log domain (PWREL).
    pub log_domain: bool,
    /// Grid dimensions, slowest-varying first.
    pub dims: Vec<usize>,
    /// Quantization bin count.
    pub quant_bins: usize,
    /// Whether the body went through the ZStd-like final pass (§2.1.1's
    /// third step; disabling it is the error-propagation ablation in
    /// DESIGN.md §5).
    pub final_lossless: bool,
    /// Predictor the encoder committed to (chosen by sampling, SZ 2.x
    /// style); the decoder must use the same stencil.
    pub predictor: PredictorKind,
}

impl Header {
    /// Total element count.
    pub fn element_count(&self) -> u64 {
        self.dims.iter().map(|&d| d as u64).product()
    }

    /// Serialize to bytes.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(self.bound.tag());
        out.extend_from_slice(&self.bound.param().to_le_bytes());
        out.extend_from_slice(&self.abs_eb.to_le_bytes());
        out.push(self.log_domain as u8);
        out.push(self.final_lossless as u8);
        out.push(self.predictor.tag());
        out.push(self.dims.len() as u8);
        for &d in &self.dims {
            write_varint(out, d as u64);
        }
        write_varint(out, self.quant_bins as u64);
    }

    /// Parse and validate a header, advancing `pos`.
    ///
    /// Total over arbitrary bytes: every field is bounds-checked before the
    /// slice it names is touched, so corruption surfaces as
    /// [`SzError::Malformed`], never a panic.
    pub fn read(bytes: &[u8], pos: &mut usize) -> Result<Header, SzError> {
        let truncated = || SzError::Malformed("header truncated".into());
        let rest = bytes.get(*pos..).ok_or_else(truncated)?;
        let (magic, rest) = rest.split_first_chunk::<4>().ok_or_else(truncated)?;
        if magic != MAGIC {
            return Err(SzError::Malformed("bad SZ magic".into()));
        }
        let (&[version, tag], rest) = rest.split_first_chunk().ok_or_else(truncated)?;
        if version != VERSION {
            return Err(SzError::Malformed(format!("unsupported SZ version {version}")));
        }
        let (param, rest) = rest.split_first_chunk().ok_or_else(truncated)?;
        let (abs_eb, rest) = rest.split_first_chunk().ok_or_else(truncated)?;
        let bound = ErrorBound::from_tag(tag, f64::from_le_bytes(*param))?;
        let abs_eb = f64::from_le_bytes(*abs_eb);
        if !abs_eb.is_finite() || abs_eb <= 0.0 {
            return Err(SzError::Malformed(format!("invalid effective bound {abs_eb}")));
        }
        let (&[log_domain, final_lossless, predictor, ndims], rest) =
            rest.split_first_chunk().ok_or_else(truncated)?;
        let log_domain = match log_domain {
            0 => false,
            1 => true,
            v => return Err(SzError::Malformed(format!("bad log-domain flag {v}"))),
        };
        let final_lossless = match final_lossless {
            0 => false,
            1 => true,
            v => return Err(SzError::Malformed(format!("bad lossless flag {v}"))),
        };
        let predictor = PredictorKind::from_tag(predictor)
            .ok_or_else(|| SzError::Malformed(format!("bad predictor tag {predictor}")))?;
        let ndims = usize::from(ndims);
        if ndims == 0 || ndims > 3 {
            return Err(SzError::Malformed(format!("unsupported dimensionality {ndims}")));
        }
        *pos = bytes.len() - rest.len();
        // Bounded: ndims in 1..=3 checked above.
        let mut dims = Vec::with_capacity(ndims);
        let mut product: u64 = 1;
        for _ in 0..ndims {
            let d = read_varint(bytes, pos).map_err(SzError::from)?;
            if d == 0 {
                return Err(SzError::Malformed("zero-extent dimension".into()));
            }
            product = product
                .checked_mul(d)
                .ok_or_else(|| SzError::Malformed("dimension product overflow".into()))?;
            dims.push(d as usize);
        }
        let quant_bins = read_varint(bytes, pos).map_err(SzError::from)? as usize;
        if !(4..=1 << 24).contains(&quant_bins) {
            return Err(SzError::Malformed(format!("quantization bins {quant_bins} out of range")));
        }
        Ok(Header { bound, abs_eb, log_domain, dims, quant_bins, final_lossless, predictor })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> Header {
        Header {
            bound: ErrorBound::Abs(0.1),
            abs_eb: 0.1,
            log_domain: false,
            dims: vec![100, 500, 500],
            quant_bins: 65536,
            final_lossless: true,
            predictor: PredictorKind::Lorenzo,
        }
    }

    #[test]
    fn round_trip() {
        let h = header();
        let mut buf = Vec::new();
        h.write(&mut buf);
        let mut pos = 0;
        let parsed = Header::read(&buf, &mut pos).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(pos, buf.len());
        assert_eq!(parsed.element_count(), 25_000_000);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let h = header();
        let mut buf = Vec::new();
        h.write(&mut buf);
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(Header::read(&bad, &mut 0).is_err());
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(Header::read(&bad, &mut 0).is_err());
    }

    #[test]
    fn rejects_corrupt_fields() {
        let h = header();
        let mut buf = Vec::new();
        h.write(&mut buf);
        // NaN effective bound.
        let mut bad = buf.clone();
        bad[14..22].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(Header::read(&bad, &mut 0).is_err());
        // Truncation at every prefix must error, never panic.
        for cut in 0..buf.len() {
            assert!(Header::read(&buf[..cut], &mut 0).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn corrupted_dims_are_caught_or_bounded() {
        // Flipping dimension bytes may yield a huge-but-parseable product;
        // parsing succeeds, and the decode-budget layer handles the rest.
        let h = header();
        let mut buf = Vec::new();
        h.write(&mut buf);
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0xFF;
            let _ = Header::read(&bad, &mut 0); // must not panic
        }
    }
}
