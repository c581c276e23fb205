//! # arc-sz — SZ-like error-bounded lossy compressor
//!
//! A from-scratch reproduction of SZ's published pipeline (§2.1.1 of the ARC
//! paper): Lorenzo prediction over reconstructed neighbours, linear-scale
//! quantization against a per-mode error bound, Huffman coding of the
//! quantization bins, and a ZStd-like lossless final pass. Three error-bound
//! modes are supported: absolute (`SZ-ABS`), point-wise relative
//! (`SZ-PWREL`, via log-domain coding), and PSNR-targeted (`SZ-PSNR`).
//!
//! The stream is deliberately *serial* — every value's reconstruction
//! depends on its predecessors and on tables at the head of the stream.
//! That is the structural property behind the paper's fault-injection
//! finding that a single flipped bit corrupts ~10% of decompressed values
//! on average; this crate reproduces the structure, and `arc-faultsim`
//! reproduces the finding.
//!
//! ```
//! use arc_sz::{compress, decompress, ErrorBound, SzConfig};
//!
//! let field: Vec<f32> = (0..32 * 32)
//!     .map(|i| ((i / 32) as f32 * 0.1).sin() + ((i % 32) as f32 * 0.2).cos())
//!     .collect();
//! let cfg = SzConfig { bound: ErrorBound::Abs(1e-3), ..Default::default() };
//! let packed = compress(&field, &[32, 32], &cfg).unwrap();
//! let out = decompress(&packed).unwrap();
//! assert_eq!(out.dims, vec![32, 32]);
//! for (a, b) in field.iter().zip(&out.data) {
//!     assert!((a - b).abs() <= 1e-3 + 1e-7);
//! }
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod modes;
pub mod predictor;
pub mod stream;

pub use error::SzError;
pub use modes::{resolve, BoundPlan, ErrorBound};
pub use predictor::{select_predictor, GridShape, Lorenzo, Predictor, PredictorKind};

use arc_lossless::bitio::{read_varint, write_varint};
use arc_lossless::huffman::{huffman_decode_block, huffman_encode_block};
use stream::Header;

/// Compressor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SzConfig {
    /// Error-bounding mode and parameter.
    pub bound: ErrorBound,
    /// Number of quantization bins (SZ's default is 65536).
    pub quant_bins: usize,
    /// Run the ZStd-like final lossless pass (§2.1.1's third step).
    /// Disabling it trades compression ratio for a shorter error-propagation
    /// span — the ablation DESIGN.md §5 calls out.
    pub final_lossless: bool,
    /// Predictor choice; `None` samples the data and picks the better
    /// stencil (SZ 2.x behaviour).
    pub predictor: Option<PredictorKind>,
}

impl Default for SzConfig {
    fn default() -> Self {
        SzConfig {
            bound: ErrorBound::Abs(1e-3),
            quant_bins: 65536,
            final_lossless: true,
            predictor: None,
        }
    }
}

/// Decode-side resource limits. The element budget is the Timeout guard: a
/// corrupted dimension field that demands implausible work must surface as
/// [`SzError::WorkBudgetExceeded`] rather than grinding "near infinitely"
/// (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeLimits {
    /// Maximum output elements the caller will accept.
    pub max_elements: u64,
}

impl Default for DecodeLimits {
    fn default() -> Self {
        DecodeLimits { max_elements: 1 << 31 }
    }
}

/// A decompressed dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SzDecoded {
    /// Values in row-major order.
    pub data: Vec<f32>,
    /// Grid dimensions, slowest-varying first.
    pub dims: Vec<usize>,
}

/// Sentinel quantization code marking an unpredictable (literal) value.
const CODE_LITERAL: u32 = 0;

/// Compress `data` (row-major, `dims` slowest-first) under `cfg`.
pub fn compress(data: &[f32], dims: &[usize], cfg: &SzConfig) -> Result<Vec<u8>, SzError> {
    let shape =
        GridShape::new(dims).ok_or_else(|| SzError::Malformed(format!("invalid dims {dims:?}")))?;
    if shape.len() != data.len() {
        return Err(SzError::Malformed(format!(
            "dims {:?} describe {} elements but {} provided",
            dims,
            shape.len(),
            data.len()
        )));
    }
    if cfg.quant_bins < 4 || cfg.quant_bins > 1 << 24 {
        return Err(SzError::Malformed(format!("quant_bins {} out of range", cfg.quant_bins)));
    }
    let (mut dmin, mut dmax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in data {
        if x.is_finite() {
            dmin = dmin.min(x as f64);
            dmax = dmax.max(x as f64);
        }
    }
    if !dmin.is_finite() {
        (dmin, dmax) = (0.0, 0.0);
    }
    let plan = resolve(cfg.bound, dmin, dmax)?;
    let eb = plan.abs_eb;
    let rel_eps = match cfg.bound {
        ErrorBound::PwRel(e) => e,
        _ => 0.0,
    };
    let n = data.len();
    let kind = cfg.predictor.unwrap_or_else(|| select_predictor(data, &shape));
    let predictor = Predictor::new(kind, shape.clone());
    let mid = (cfg.quant_bins / 2) as i64;

    let mut codes: Vec<u32> = Vec::with_capacity(n);
    let mut literals: Vec<f32> = Vec::new();
    let mut recon = vec![0.0f64; n];
    let mut zero_mask = vec![0u8; if plan.log_domain { n.div_ceil(8) } else { 0 }];
    let mut sign_mask = vec![0u8; if plan.log_domain { n.div_ceil(8) } else { 0 }];

    // The prediction/quantization stage is one serial loop: each element's
    // quantization depends on the reconstructed neighborhood.
    for idx in 0..n {
        let x = data[idx];
        let pred = predictor.predict(&recon, idx);
        // Transformed-domain target value.
        let (v, masked_zero) = if plan.log_domain {
            if x == 0.0 {
                zero_mask[idx / 8] |= 1 << (idx % 8);
                (pred, true) // costs a zero-quantum code, reconstructs to pred
            } else {
                if x < 0.0 {
                    sign_mask[idx / 8] |= 1 << (idx % 8);
                }
                ((x.abs() as f64).ln(), false)
            }
        } else {
            (x as f64, false)
        };
        let diff = v - pred;
        let q = (diff / (2.0 * eb)).round();
        let predictable = q.is_finite() && q >= -(mid as f64) && q <= (mid - 1) as f64;
        let mut accept = false;
        let mut q_recon = 0.0f64;
        if predictable {
            let qi = q as i64;
            q_recon = pred + qi as f64 * 2.0 * eb;
            if masked_zero {
                accept = true; // output is exactly 0.0 regardless
            } else {
                // Verify against the *final f32 output* the decoder produces.
                let out = if plan.log_domain {
                    let mag = q_recon.exp() as f32;
                    if x < 0.0 {
                        -mag
                    } else {
                        mag
                    }
                } else {
                    q_recon as f32
                };
                accept = if plan.log_domain {
                    (out as f64 - x as f64).abs() <= rel_eps * (x as f64).abs()
                } else {
                    (out as f64 - x as f64).abs() <= eb
                };
            }
        }
        if accept {
            let qi = q as i64;
            codes.push((qi + mid + 1) as u32);
            recon[idx] = q_recon;
        } else {
            codes.push(CODE_LITERAL);
            literals.push(x);
            recon[idx] = if !x.is_finite() {
                0.0
            } else if plan.log_domain {
                if x == 0.0 {
                    pred
                } else {
                    (x.abs() as f64).ln()
                }
            } else {
                x as f64
            };
        }
    }

    // Assemble the body, then run the ZStd-like final pass over it (§2.1.1's
    // third step).
    let mut body = Vec::new();
    let code_block = huffman_encode_block(&codes, cfg.quant_bins + 1).map_err(SzError::Lossless)?;
    write_varint(&mut body, code_block.len() as u64);
    body.extend_from_slice(&code_block);
    write_varint(&mut body, literals.len() as u64);
    for lit in &literals {
        body.extend_from_slice(&lit.to_le_bytes());
    }
    if plan.log_domain {
        body.extend_from_slice(&zero_mask);
        body.extend_from_slice(&sign_mask);
    }
    let packed_body =
        if cfg.final_lossless { arc_lossless::zstd_like::compress(&body) } else { body };

    let header = Header {
        bound: cfg.bound,
        abs_eb: eb,
        log_domain: plan.log_domain,
        dims: dims.to_vec(),
        quant_bins: cfg.quant_bins,
        final_lossless: cfg.final_lossless,
        predictor: kind,
    };
    let mut out = Vec::with_capacity(packed_body.len() + 64);
    header.write(&mut out);
    write_varint(&mut out, packed_body.len() as u64);
    out.extend_from_slice(&packed_body);
    Ok(out)
}

/// Decompress with default limits.
pub fn decompress(bytes: &[u8]) -> Result<SzDecoded, SzError> {
    decompress_with_limits(bytes, &DecodeLimits::default())
}

/// Decompress with explicit resource limits.
pub fn decompress_with_limits(bytes: &[u8], limits: &DecodeLimits) -> Result<SzDecoded, SzError> {
    let mut pos = 0usize;
    let header = Header::read(bytes, &mut pos)?;
    let n64 = header.element_count();
    if n64 > limits.max_elements {
        return Err(SzError::WorkBudgetExceeded { demanded: n64, budget: limits.max_elements });
    }
    let n = n64 as usize;
    let body_len = read_varint(bytes, &mut pos)? as usize;
    let end = pos
        .checked_add(body_len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| SzError::Malformed("body length out of range".into()))?;
    let body = if header.final_lossless {
        // A legitimate body holds at most ~8 bytes per element (4 code-block
        // + 4 literal) plus masks and table framing; budget generously so a
        // corrupt inner length field cannot demand an unbounded allocation.
        let body_budget = n64.saturating_mul(16).saturating_add(1 << 16);
        arc_lossless::zstd_like::decompress_with_limit(&bytes[pos..end], body_budget)?
    } else {
        bytes[pos..end].to_vec()
    };

    // Body parsing is deliberately permissive from here on: real SZ's
    // decoder marches through whatever bits it is handed, so corruption in
    // the entropy-coded body yields *wrong values*, not exceptions — the
    // paper's dominant "Completed" outcome (§4.2). Structural damage the
    // decoder cannot march past (header, section framing) still raises.
    let mut bpos = 0usize;
    let code_block_len = read_varint(&body, &mut bpos)? as usize;
    let code_end = bpos
        .checked_add(code_block_len)
        .filter(|&e| e <= body.len())
        .ok_or_else(|| SzError::Malformed("code block length out of range".into()))?;
    let mut cpos = bpos;
    // A corrupt Huffman payload decodes to however many symbols it can;
    // missing codes fall back to the zero-quantum bin below.
    let mut codes = huffman_decode_block(&body, &mut cpos).unwrap_or_default();
    bpos = code_end;
    let mid = (header.quant_bins / 2) as i64;
    let zero_quantum_code = (mid + 1) as u32;
    // arc-lint: bounded(n <= limits.max_elements checked at header parse)
    codes.resize(n, zero_quantum_code);
    let n_literals = read_varint(&body, &mut bpos)? as usize;
    // There is one literal per unpredictable element at most; a corrupt
    // count exceeding the element total is structural damage, and the
    // byte-length check below stops it from over-reading the body.
    if n_literals as u64 > n64 {
        return Err(SzError::Malformed(format!(
            "literal count {n_literals} exceeds element count {n64}"
        )));
    }
    let lit_end = bpos
        .checked_add(
            n_literals
                .checked_mul(4)
                .ok_or_else(|| SzError::Malformed("literal count overflow".into()))?,
        )
        .filter(|&e| e <= body.len())
        .ok_or_else(|| SzError::Malformed("literal section out of range".into()))?;
    let mut literals = Vec::with_capacity(n_literals.min(1 << 22));
    for chunk in body[bpos..lit_end].chunks_exact(4) {
        let mut b = [0u8; 4];
        b.copy_from_slice(chunk);
        literals.push(f32::from_le_bytes(b));
    }
    bpos = lit_end;
    let (zero_mask, sign_mask) = if header.log_domain {
        let mask_len = n.div_ceil(8);
        let zend = bpos + mask_len;
        let send = zend + mask_len;
        if send > body.len() {
            return Err(SzError::Malformed("mask sections truncated".into()));
        }
        let z = body[bpos..zend].to_vec();
        let s = body[zend..send].to_vec();
        (z, s)
    } else {
        (Vec::new(), Vec::new())
    };

    let shape = GridShape::new(&header.dims)
        .ok_or_else(|| SzError::Malformed("invalid dims in header".into()))?;
    let predictor = Predictor::new(header.predictor, shape);
    let eb = header.abs_eb;
    // arc-lint: bounded(n <= limits.max_elements checked at header parse)
    let mut recon = vec![0.0f64; n];
    // arc-lint: bounded(n <= limits.max_elements checked at header parse)
    let mut out = vec![0.0f32; n];
    let mut lit_cursor = 0usize;
    for idx in 0..n {
        let pred = predictor.predict(&recon, idx);
        let code = codes[idx];
        let is_zero = header.log_domain && (zero_mask[idx / 8] >> (idx % 8)) & 1 == 1;
        let negative = header.log_domain && (sign_mask[idx / 8] >> (idx % 8)) & 1 == 1;
        if code == CODE_LITERAL {
            // An exhausted literal stream (corruption inflated the literal
            // count the codes imply) reads as zeros — garbage, not a crash.
            let x = literals.get(lit_cursor).copied().unwrap_or(0.0);
            lit_cursor += 1;
            recon[idx] = if !x.is_finite() {
                0.0
            } else if header.log_domain {
                if x == 0.0 {
                    pred
                } else {
                    (x.abs() as f64).ln()
                }
            } else {
                x as f64
            };
            out[idx] = x;
        } else {
            // Corrupt codes beyond the bin range clamp to the edge bins.
            let qi = (code as i64 - 1 - mid).clamp(-mid, mid - 1);
            let r = pred + qi as f64 * 2.0 * eb;
            recon[idx] = r;
            out[idx] = if is_zero {
                0.0
            } else if header.log_domain {
                let mag = r.exp() as f32;
                if negative {
                    -mag
                } else {
                    mag
                }
            } else {
                r as f32
            };
        }
    }
    Ok(SzDecoded { data: out, dims: header.dims })
}

/// Convenience: compression ratio of a compressed buffer against its source.
pub fn compression_ratio(original_elements: usize, compressed_len: usize) -> f64 {
    if compressed_len == 0 {
        return f64::INFINITY;
    }
    (original_elements * std::mem::size_of::<f32>()) as f64 / compressed_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_2d(rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| {
                let r = (i / cols) as f32;
                let c = (i % cols) as f32;
                (r * 0.05).sin() * (c * 0.03).cos() * 10.0 + 0.1 * r
            })
            .collect()
    }

    fn max_abs_err(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x as f64 - *y as f64).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn abs_mode_respects_bound() {
        let data = smooth_2d(64, 64);
        for eb in [1.0, 0.1, 1e-3, 1e-5] {
            let cfg = SzConfig { bound: ErrorBound::Abs(eb), ..Default::default() };
            let c = compress(&data, &[64, 64], &cfg).unwrap();
            let d = decompress(&c).unwrap();
            assert_eq!(d.dims, vec![64, 64]);
            assert!(max_abs_err(&data, &d.data) <= eb, "eb={eb}");
        }
    }

    #[test]
    fn pwrel_mode_respects_relative_bound() {
        let data: Vec<f32> = (1..=4096).map(|i| (i as f32 * 0.01).exp() % 1000.0 + 0.001).collect();
        let eps = 0.05;
        let cfg = SzConfig { bound: ErrorBound::PwRel(eps), ..Default::default() };
        let c = compress(&data, &[4096], &cfg).unwrap();
        let d = decompress(&c).unwrap();
        for (x, y) in data.iter().zip(&d.data) {
            let rel = (*x as f64 - *y as f64).abs() / (*x as f64).abs();
            assert!(rel <= eps + 1e-9, "x={x} y={y} rel={rel}");
        }
    }

    #[test]
    fn pwrel_preserves_zeros_and_signs() {
        let data = vec![0.0f32, -1.5, 2.5, 0.0, -0.25, 100.0, 0.0, -1e-30];
        let cfg = SzConfig { bound: ErrorBound::PwRel(0.01), ..Default::default() };
        let c = compress(&data, &[8], &cfg).unwrap();
        let d = decompress(&c).unwrap();
        for (x, y) in data.iter().zip(&d.data) {
            assert_eq!(x.signum(), y.signum(), "{x} vs {y}");
            if *x == 0.0 {
                assert_eq!(*y, 0.0);
            }
        }
    }

    #[test]
    fn psnr_mode_meets_target() {
        let data = smooth_2d(100, 100);
        let target = 60.0;
        let cfg = SzConfig { bound: ErrorBound::Psnr(target), ..Default::default() };
        let c = compress(&data, &[100, 100], &cfg).unwrap();
        let d = decompress(&c).unwrap();
        let n = data.len() as f64;
        let mse: f64 =
            data.iter().zip(&d.data).map(|(x, y)| (*x as f64 - *y as f64).powi(2)).sum::<f64>() / n;
        let range = {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &x in &data {
                lo = lo.min(x as f64);
                hi = hi.max(x as f64);
            }
            hi - lo
        };
        let psnr = 20.0 * (range / mse.sqrt()).log10();
        assert!(psnr >= target, "psnr {psnr} < {target}");
    }

    #[test]
    fn smooth_data_compresses_substantially() {
        let data = smooth_2d(256, 256);
        let cfg = SzConfig { bound: ErrorBound::Abs(0.01), ..Default::default() };
        let c = compress(&data, &[256, 256], &cfg).unwrap();
        let cr = compression_ratio(data.len(), c.len());
        assert!(cr > 4.0, "compression ratio only {cr}");
    }

    #[test]
    fn looser_bound_compresses_more() {
        let data = smooth_2d(128, 128);
        let tight = compress(
            &data,
            &[128, 128],
            &SzConfig { bound: ErrorBound::Abs(1e-5), ..Default::default() },
        )
        .unwrap();
        let loose = compress(
            &data,
            &[128, 128],
            &SzConfig { bound: ErrorBound::Abs(0.5), ..Default::default() },
        )
        .unwrap();
        assert!(loose.len() < tight.len());
    }

    #[test]
    fn three_dimensional_round_trip() {
        let (a, b, c3) = (16, 24, 20);
        let data: Vec<f32> = (0..a * b * c3)
            .map(|i| {
                let z = i / (b * c3);
                let y = (i / c3) % b;
                let x = i % c3;
                (x as f32 * 0.1) + (y as f32 * 0.2).sin() + (z as f32 * 0.3).cos()
            })
            .collect();
        let cfg = SzConfig { bound: ErrorBound::Abs(1e-3), ..Default::default() };
        let packed = compress(&data, &[a, b, c3], &cfg).unwrap();
        let d = decompress(&packed).unwrap();
        assert_eq!(d.dims, vec![a, b, c3]);
        assert!(max_abs_err(&data, &d.data) <= 1e-3);
    }

    #[test]
    fn random_noise_round_trips_within_bound() {
        // Unpredictable data mostly takes the literal path; bound still holds.
        let data: Vec<f32> = (0..2000u64)
            .map(|i| ((i.wrapping_mul(0x9E3779B97F4A7C15) >> 33) as f32 / 1e9) * 100.0 - 50.0)
            .collect();
        let cfg = SzConfig { bound: ErrorBound::Abs(1e-4), ..Default::default() };
        let c = compress(&data, &[2000], &cfg).unwrap();
        let d = decompress(&c).unwrap();
        assert!(max_abs_err(&data, &d.data) <= 1e-4);
    }

    #[test]
    fn nonfinite_values_survive_exactly() {
        let data = vec![1.0f32, f32::NAN, f32::INFINITY, -2.0, f32::NEG_INFINITY, 3.0];
        let cfg = SzConfig { bound: ErrorBound::Abs(0.1), ..Default::default() };
        let c = compress(&data, &[6], &cfg).unwrap();
        let d = decompress(&c).unwrap();
        assert!(d.data[1].is_nan());
        assert_eq!(d.data[2], f32::INFINITY);
        assert_eq!(d.data[4], f32::NEG_INFINITY);
        assert!((d.data[0] - 1.0).abs() <= 0.1);
        assert!((d.data[5] - 3.0).abs() <= 0.1);
    }

    #[test]
    fn dims_mismatch_rejected() {
        let cfg = SzConfig::default();
        assert!(compress(&[1.0; 10], &[3, 4], &cfg).is_err());
        assert!(compress(&[1.0; 12], &[3, 4], &cfg).is_ok());
        assert!(compress(&[1.0; 12], &[0, 12], &cfg).is_err());
        assert!(compress(&[1.0; 12], &[2, 2, 3, 1], &cfg).is_err());
    }

    #[test]
    fn decode_budget_triggers_timeout_class() {
        let data = smooth_2d(32, 32);
        let cfg = SzConfig { bound: ErrorBound::Abs(0.01), ..Default::default() };
        let c = compress(&data, &[32, 32], &cfg).unwrap();
        let limits = DecodeLimits { max_elements: 100 };
        match decompress_with_limits(&c, &limits) {
            Err(SzError::WorkBudgetExceeded { demanded, budget }) => {
                assert_eq!(demanded, 1024);
                assert_eq!(budget, 100);
            }
            other => panic!("expected timeout class, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_stream_never_panics() {
        let data = smooth_2d(48, 48);
        let cfg = SzConfig { bound: ErrorBound::Abs(0.05), ..Default::default() };
        let c = compress(&data, &[48, 48], &cfg).unwrap();
        for i in (0..c.len()).step_by(7) {
            let mut bad = c.clone();
            bad[i] ^= 1 << (i % 8);
            let _ = decompress_with_limits(&bad, &DecodeLimits { max_elements: 1 << 22 });
        }
    }

    #[test]
    fn truncation_is_detected() {
        let data = smooth_2d(16, 16);
        let c = compress(&data, &[16, 16], &SzConfig::default()).unwrap();
        for cut in [0usize, 4, 10, c.len() / 2, c.len() - 1] {
            assert!(decompress(&c[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn single_element_and_tiny_grids() {
        let cfg = SzConfig { bound: ErrorBound::Abs(0.01), ..Default::default() };
        for dims in [vec![1usize], vec![1, 1], vec![1, 1, 1], vec![2, 1, 3]] {
            let n: usize = dims.iter().product();
            let data: Vec<f32> = (0..n).map(|i| i as f32 * 1.5).collect();
            let c = compress(&data, &dims, &cfg).unwrap();
            let d = decompress(&c).unwrap();
            assert_eq!(d.dims, dims);
            assert!(max_abs_err(&data, &d.data) <= 0.01);
        }
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;

    fn smooth(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.01).sin() * 3.0).collect()
    }

    #[test]
    fn no_lossless_pass_round_trips() {
        let data = smooth(64 * 64);
        let cfg =
            SzConfig { final_lossless: false, bound: ErrorBound::Abs(1e-3), ..Default::default() };
        let c = compress(&data, &[64, 64], &cfg).unwrap();
        let d = decompress(&c).unwrap();
        for (a, b) in data.iter().zip(&d.data) {
            assert!((a - b).abs() <= 1e-3 + 1e-7);
        }
    }

    #[test]
    fn lossless_pass_improves_ratio() {
        let data = smooth(128 * 128);
        let with = compress(
            &data,
            &[128, 128],
            &SzConfig { bound: ErrorBound::Abs(1e-2), ..Default::default() },
        )
        .unwrap();
        let without = compress(
            &data,
            &[128, 128],
            &SzConfig { bound: ErrorBound::Abs(1e-2), final_lossless: false, ..Default::default() },
        )
        .unwrap();
        assert!(with.len() < without.len(), "{} vs {}", with.len(), without.len());
    }

    #[test]
    fn flag_survives_in_header() {
        let data = smooth(256);
        for fl in [true, false] {
            let cfg = SzConfig { final_lossless: fl, ..Default::default() };
            let c = compress(&data, &[256], &cfg).unwrap();
            let mut pos = 0;
            let h = stream::Header::read(&c, &mut pos).unwrap();
            assert_eq!(h.final_lossless, fl);
        }
    }
}

#[cfg(test)]
mod predictor_integration_tests {
    use super::*;

    #[test]
    fn forced_predictors_both_round_trip_within_bound() {
        let data: Vec<f32> = (0..96 * 96)
            .map(|i| {
                let x = (i % 96) as f32 / 12.0;
                x * x * 0.05 + ((i / 96) as f32 * 0.1).sin()
            })
            .collect();
        for kind in [PredictorKind::Lorenzo, PredictorKind::Lorenzo2] {
            let cfg = SzConfig {
                bound: ErrorBound::Abs(1e-4),
                predictor: Some(kind),
                ..Default::default()
            };
            let c = compress(&data, &[96, 96], &cfg).unwrap();
            let d = decompress(&c).unwrap();
            for (a, b) in data.iter().zip(&d.data) {
                assert!((a - b).abs() <= 1e-4, "{kind:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn auto_selection_never_loses_to_worst_choice() {
        // The auto-picked predictor must compress at least as well as the
        // worse of the two forced choices.
        let data: Vec<f32> = (0..8192)
            .map(|i| {
                let x = i as f32 / 100.0;
                x * x * 0.01 + x * 0.3
            })
            .collect();
        let size_of = |p: Option<PredictorKind>| {
            let cfg = SzConfig { bound: ErrorBound::Abs(1e-4), predictor: p, ..Default::default() };
            compress(&data, &[8192], &cfg).unwrap().len()
        };
        let auto = size_of(None);
        let l1 = size_of(Some(PredictorKind::Lorenzo));
        let l2 = size_of(Some(PredictorKind::Lorenzo2));
        assert!(auto <= l1.max(l2), "auto {auto} vs l1 {l1} / l2 {l2}");
    }

    #[test]
    fn lorenzo2_wins_on_smooth_quadratic_signals() {
        let data: Vec<f32> = (0..16384)
            .map(|i| {
                let x = i as f32 / 200.0;
                x * x
            })
            .collect();
        let shape = GridShape::new(&[16384]).unwrap();
        assert_eq!(select_predictor(&data, &shape), PredictorKind::Lorenzo2);
        let cfg2 = SzConfig {
            bound: ErrorBound::Abs(1e-3),
            predictor: Some(PredictorKind::Lorenzo2),
            ..Default::default()
        };
        let cfg1 = SzConfig {
            bound: ErrorBound::Abs(1e-3),
            predictor: Some(PredictorKind::Lorenzo),
            ..Default::default()
        };
        let s2 = compress(&data, &[16384], &cfg2).unwrap().len();
        let s1 = compress(&data, &[16384], &cfg1).unwrap().len();
        assert!(s2 <= s1, "lorenzo2 {s2} vs lorenzo {s1}");
    }
}
