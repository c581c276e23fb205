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
// Library code never aborts on the data it protects. Lib targets only (a bin
// may exit on a CLI error); clippy.toml exempts `#[cfg(test)]` code.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// Decode returns the exact bytes or a typed error, never a panic
// (DESIGN.md §10.1): library code has no unchecked index or slice, no std
// method that panics on its argument (clippy.toml's `disallowed-methods`)
// and no `assert!` family. Tests may use all three.
#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::disallowed_methods, clippy::disallowed_macros)
)]

pub mod error;
pub mod modes;
pub mod predictor;
pub mod stream;

pub use error::SzError;
pub use modes::{resolve, BoundPlan, ErrorBound};
pub use predictor::{select_predictor, GridShape, Predictor, PredictorKind};

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

/// `round(diff / 2eb)` for the element loop, when it names a bin.
#[derive(Debug, Clone, Copy)]
struct Quantizer {
    eb: f64,
    two_eb: f64,
    /// `1 / eb`, or NaN when that is not a normal number: then every element
    /// takes the division.
    inv_eb: f64,
    mid: i64,
}

impl Quantizer {
    fn new(eb: f64, quant_bins: usize) -> Quantizer {
        let inv = eb.recip();
        let inv_eb = if inv.is_normal() { inv } else { f64::NAN };
        Quantizer { eb, two_eb: 2.0 * eb, inv_eb, mid: (quant_bins / 2) as i64 }
    }

    /// Twice the bin `(diff / two_eb).round()` — the reconstruction is that
    /// many steps of `eb` from the prediction — or `None` when the bin is
    /// outside `-mid..mid` (NaN included): an unpredictable element.
    ///
    /// `y = diff · inv_eb` is within 4e-9 of twice the quotient once
    /// `|y| < 2·(mid + 1)`. Adding and subtracting 1.5·2⁵³ rounds it to the
    /// nearest even integer, which is twice what the divide rounds to unless
    /// `y` is within `TIE_MARGIN` of an odd one — with no divide, libm `round`
    /// or integer conversion on the loop's dependency chain (DESIGN.md §18).
    /// Near a tie, out of range or NaN, the division decides.
    #[inline(always)]
    fn steps(&self, diff: f64) -> Option<f64> {
        const TO_EVEN: f64 = 1.5 * (1u64 << 53) as f64;
        const TIE_MARGIN: f64 = 2e-6;
        let limit = (2 * self.mid) as f64;
        let y = diff * self.inv_eb;
        let even = (y + TO_EVEN) - TO_EVEN;
        let steps = if y.abs() < limit + 2.0 && (y - even).abs() < 1.0 - TIE_MARGIN {
            even
        } else {
            // `+ 0.0`: a quotient that rounds to -0.0 is bin 0, not -0.0.
            2.0 * (diff / self.two_eb).round() + 0.0
        };
        (-limit <= steps && steps < limit).then_some(steps)
    }
}

/// The encoder's element loop — one serial pass, each element quantized
/// against a prediction from its reconstructed neighbours — and its output.
struct ElementEncoder<'a> {
    data: &'a [f32],
    quantizer: Quantizer,
    rel_eps: f64,
    /// One code per element: [`CODE_LITERAL`], or bin + `mid` + 1.
    codes: Vec<u32>,
    /// The unpredictable elements, verbatim, in order.
    literals: Vec<f32>,
    /// Log domain only (else empty): bit per element, set at ±0 / negatives.
    zero_mask: Vec<u8>,
    sign_mask: Vec<u8>,
}

/// Set bit `idx` of a per-element mask; the mask holds one bit per element.
#[inline]
fn set_mask_bit(mask: &mut [u8], idx: usize) {
    if let Some(byte) = mask.get_mut(idx / 8) {
        *byte |= 1 << (idx % 8);
    }
}

impl<'a> ElementEncoder<'a> {
    fn new(data: &'a [f32], plan: &BoundPlan, rel_eps: f64, quant_bins: usize) -> Self {
        let mask_len = if plan.log_domain { data.len().div_ceil(8) } else { 0 };
        ElementEncoder {
            data,
            quantizer: Quantizer::new(plan.abs_eb, quant_bins),
            rel_eps,
            codes: Vec::with_capacity(data.len()),
            literals: Vec::new(),
            zero_mask: vec![0u8; mask_len],
            sign_mask: vec![0u8; mask_len],
        }
    }

    /// Code element `idx` against `pred` and return its reconstruction.
    /// `ln_x` is `ln|x|`, read only in the log domain.
    #[inline(always)]
    fn encode_element<const LOG: bool>(&mut self, idx: usize, pred: f64, ln_x: f64) -> f64 {
        let x = self.data.get(idx).copied().unwrap_or(0.0);
        // Transformed-domain target value. A zero in the log domain is
        // masked: it costs a zero-quantum code and reconstructs to `pred`.
        let masked_zero = LOG && x == 0.0;
        let v = if masked_zero {
            set_mask_bit(&mut self.zero_mask, idx);
            pred
        } else if LOG {
            if x < 0.0 {
                set_mask_bit(&mut self.sign_mask, idx);
            }
            ln_x
        } else {
            x as f64
        };
        if let Some(steps) = self.quantizer.steps(v - pred) {
            // The decoder's `pred + bin * 2.0 * eb`: `steps` is `bin * 2.0`.
            let q_recon = pred + steps * self.quantizer.eb;
            // Verify against the *final f32 output* the decoder produces
            // (a masked zero is exactly 0.0 regardless).
            let accept = masked_zero
                || if LOG {
                    let mag = q_recon.exp() as f32;
                    let out = if x < 0.0 { -mag } else { mag };
                    (out as f64 - x as f64).abs() <= self.rel_eps * (x as f64).abs()
                } else {
                    (q_recon as f32 as f64 - x as f64).abs() <= self.quantizer.eb
                };
            if accept {
                self.codes.push((steps as i64 / 2 + self.quantizer.mid + 1) as u32);
                return q_recon;
            }
        }
        self.codes.push(CODE_LITERAL);
        self.literals.push(x);
        if x.is_finite() {
            v
        } else {
            0.0
        }
    }

    /// Run the loop over the whole grid. Returns the reconstruction the
    /// decoder will predict from, which nothing after the loop reads.
    fn encode_all(&mut self, predictor: &Predictor, log_domain: bool) -> Vec<f64> {
        let mut recon = vec![0.0f64; self.data.len()];
        // `ln|x|` of the segment at hand, taken before the walk so that the
        // libm call is off the reconstruction's dependency chain.
        let mut logs: Vec<f64> = Vec::new();
        for seg in predictor.segments() {
            let base = seg.start;
            if log_domain {
                logs.clear();
                let seg_data = self.data.get(seg.clone()).unwrap_or_default();
                logs.extend(seg_data.iter().map(|x| (x.abs() as f64).ln()));
                predictor.walk_segment(&mut recon, seg, |idx, pred| {
                    let ln_x = logs.get(idx - base).copied().unwrap_or(0.0);
                    self.encode_element::<true>(idx, pred, ln_x)
                });
            } else {
                predictor.walk_segment(&mut recon, seg, |idx, pred| {
                    self.encode_element::<false>(idx, pred, 0.0)
                });
            }
        }
        recon
    }
}

/// Compress `data` (row-major, `dims` slowest-first) under `cfg`.
pub fn compress(data: &[f32], dims: &[usize], cfg: &SzConfig) -> Result<Vec<u8>, SzError> {
    // Only the PSNR bound reads the value range; the scan is a serial
    // min/max chain over the field, so the other two modes skip it.
    let range =
        if matches!(cfg.bound, ErrorBound::Psnr(_)) { finite_range(data) } else { (0.0, 0.0) };
    compress_in_range(data, dims, cfg, range)
}

/// The smallest and largest finite value of `data`, `(0, 0)` when it has
/// none: the range an SZ-PSNR bound resolves against.
pub fn finite_range(data: &[f32]) -> (f64, f64) {
    let (mut dmin, mut dmax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in data {
        if x.is_finite() {
            dmin = dmin.min(x as f64);
            dmax = dmax.max(x as f64);
        }
    }
    if dmin.is_finite() {
        (dmin, dmax)
    } else {
        (0.0, 0.0)
    }
}

/// [`compress`] with the value range an SZ-PSNR bound resolves against
/// given, not scanned: a slab of a larger field passes the whole field's
/// [`finite_range`], so every slab carries the field's bound. ABS and
/// PW_REL ignore `range`.
pub fn compress_in_range(
    data: &[f32],
    dims: &[usize],
    cfg: &SzConfig,
    range: (f64, f64),
) -> Result<Vec<u8>, SzError> {
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
    let (dmin, dmax) = range;
    let plan = resolve(cfg.bound, dmin, dmax)?;
    let eb = plan.abs_eb;
    let rel_eps = match cfg.bound {
        ErrorBound::PwRel(e) => e,
        _ => 0.0,
    };
    let kind = cfg.predictor.unwrap_or_else(|| select_predictor(data, &shape));
    let predictor = Predictor::new(kind, shape);
    let mut encoder = ElementEncoder::new(data, &plan, rel_eps, cfg.quant_bins);
    encoder.encode_all(&predictor, plan.log_domain);
    let ElementEncoder { codes, literals, zero_mask, sign_mask, .. } = encoder;

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

/// The decoder's element loop: each code or literal applied to a prediction.
struct ElementDecoder<'a> {
    /// One code per element.
    codes: &'a [u32],
    /// The literal stream, consumed in order.
    literals: std::slice::Iter<'a, f32>,
    /// Log domain only (else empty): bit per element.
    zero_mask: &'a [u8],
    sign_mask: &'a [u8],
    eb: f64,
    mid: i64,
    /// The decoded values.
    out: &'a mut [f32],
}

impl ElementDecoder<'_> {
    /// Decode element `idx` against `pred` and return its reconstruction.
    #[inline(always)]
    fn element<const LOG: bool>(&mut self, idx: usize, pred: f64) -> f64 {
        let bit = |mask: &[u8]| mask.get(idx / 8).is_some_and(|b| (b >> (idx % 8)) & 1 == 1);
        let code = self.codes.get(idx).copied().unwrap_or(CODE_LITERAL);
        let (recon, value) = if code == CODE_LITERAL {
            // An exhausted literal stream (corruption inflated the literal
            // count the codes imply) reads as zeros — garbage, not a crash.
            let x = self.literals.next().copied().unwrap_or(0.0);
            let recon = if !x.is_finite() {
                0.0
            } else if !LOG {
                x as f64
            } else if x == 0.0 {
                pred
            } else {
                (x.abs() as f64).ln()
            };
            (recon, x)
        } else {
            // Corrupt codes beyond the bin range clamp to the edge bins.
            let q = (code as i64 - 1 - self.mid).clamp(-self.mid, self.mid - 1);
            let r = pred + (2 * q) as f64 * self.eb;
            let value = if !LOG {
                r as f32
            } else if bit(self.zero_mask) {
                0.0
            } else if bit(self.sign_mask) {
                -(r.exp() as f32)
            } else {
                r.exp() as f32
            };
            (r, value)
        };
        if let Some(slot) = self.out.get_mut(idx) {
            *slot = value;
        }
        recon
    }

    /// Run the loop over the whole grid. Returns the reconstruction the
    /// values were predicted from, which nothing after the loop reads.
    fn run(&mut self, predictor: &Predictor, log_domain: bool) -> Vec<f64> {
        // Bounded: out.len() = n, the caller's buffer, checked at header parse.
        let mut recon = vec![0.0f64; self.out.len()];
        for seg in predictor.segments() {
            if log_domain {
                predictor
                    .walk_segment(&mut recon, seg, |idx, pred| self.element::<true>(idx, pred));
            } else {
                predictor
                    .walk_segment(&mut recon, seg, |idx, pred| self.element::<false>(idx, pred));
            }
        }
        recon
    }
}

/// Decompress with the default budget of 2³¹ elements.
pub fn decompress(bytes: &[u8]) -> Result<SzDecoded, SzError> {
    decompress_with_limits(bytes, 1 << 31)
}

/// Decompress, accepting at most `max_elements` output elements. The
/// element budget is the Timeout guard: a corrupted dimension field that
/// demands implausible work must surface as [`SzError::WorkBudgetExceeded`]
/// rather than grinding "near infinitely" (§4.2).
pub fn decompress_with_limits(bytes: &[u8], max_elements: u64) -> Result<SzDecoded, SzError> {
    let n = element_budget(&Header::read(bytes, &mut 0)?, max_elements)?;
    // Bounded: n <= max_elements checked by element_budget.
    let mut data = vec![0.0f32; n];
    let dims = decompress_into(bytes, &mut data)?;
    Ok(SzDecoded { data, dims })
}

/// The header's element count, if it is at most `max_elements`.
fn element_budget(header: &Header, max_elements: u64) -> Result<usize, SzError> {
    let n = header.element_count();
    if n > max_elements {
        return Err(SzError::WorkBudgetExceeded { demanded: n, budget: max_elements });
    }
    usize::try_from(n).map_err(|_| SzError::Malformed(format!("{n} elements overflow usize")))
}

/// Decompress into `out`, which must hold exactly the stream's element
/// count, and return the stream's dims. The one decode body: a caller
/// that owns a larger field decodes each slab straight into its rows.
/// `out`'s length is the work budget. On `Err`, `out` holds no meaningful
/// values.
pub fn decompress_into(bytes: &[u8], out: &mut [f32]) -> Result<Vec<usize>, SzError> {
    let mut pos = 0usize;
    let header = Header::read(bytes, &mut pos)?;
    let n = element_budget(&header, out.len() as u64)?;
    if out.len() != n {
        return Err(SzError::Malformed(format!("stream holds {n} elements, output {}", out.len())));
    }
    let n64 = n as u64;
    let body_len = read_varint(bytes, &mut pos)? as usize;
    let packed = pos
        .checked_add(body_len)
        .and_then(|end| bytes.get(pos..end))
        .ok_or_else(|| SzError::Malformed("body length out of range".into()))?;
    let body = if header.final_lossless {
        // A legitimate body holds at most ~8 bytes per element (4 code-block
        // + 4 literal) plus masks and table framing; budget generously so a
        // corrupt inner length field cannot demand an unbounded allocation.
        let body_budget = n64.saturating_mul(16).saturating_add(1 << 16);
        arc_lossless::zstd_like::decompress_with_limit(packed, body_budget)?
    } else {
        packed.to_vec()
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
    // Bounded: n = out.len(), the caller's buffer, checked at header parse.
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
        .ok_or_else(|| SzError::Malformed("literal count overflow".into()))?;
    let lit_section = body
        .get(bpos..lit_end)
        .ok_or_else(|| SzError::Malformed("literal section out of range".into()))?;
    let literals: Vec<f32> =
        lit_section.as_chunks::<4>().0.iter().map(|b| f32::from_le_bytes(*b)).collect();
    bpos = lit_end;
    let (zero_mask, sign_mask) = if header.log_domain {
        let mask_len = n.div_ceil(8);
        let masks = body.get(bpos..).and_then(|rest| rest.get(..2 * mask_len));
        masks
            .and_then(|m| m.split_at_checked(mask_len))
            .ok_or_else(|| SzError::Malformed("mask sections truncated".into()))?
    } else {
        Default::default()
    };

    let shape = GridShape::new(&header.dims)
        .ok_or_else(|| SzError::Malformed("invalid dims in header".into()))?;
    let predictor = Predictor::new(header.predictor, shape);
    let mut decoder = ElementDecoder {
        codes: &codes,
        literals: literals.iter(),
        zero_mask,
        sign_mask,
        eb: header.abs_eb,
        mid,
        out,
    };
    decoder.run(&predictor, header.log_domain);
    Ok(header.dims)
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
        let cr = (data.len() * 4) as f64 / c.len() as f64;
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
        match decompress_with_limits(&c, 100) {
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
            let _ = decompress_with_limits(&bad, 1 << 22);
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

/// The element loops as they were before the row walker — a per-index
/// prediction, `(diff / 2eb).round()` and every domain test inside the loop —
/// and the differential tests that hold the new loops to them bit for bit.
#[cfg(test)]
mod differential_tests {
    use super::predictor::reference::predict;
    use super::predictor::walker_tests::random_dims;
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    struct Case {
        shape: GridShape,
        kind: PredictorKind,
        plan: BoundPlan,
        rel_eps: f64,
        quant_bins: usize,
    }

    /// What a loop made of a field, old or new.
    struct Quantized {
        codes: Vec<u32>,
        literals: Vec<f32>,
        zero_mask: Vec<u8>,
        sign_mask: Vec<u8>,
    }

    fn reference_quantize(data: &[f32], case: &Case) -> (Quantized, Vec<f64>) {
        let Case { shape, kind, plan, rel_eps, quant_bins } = case;
        let (n, eb, mid) = (data.len(), plan.abs_eb, (quant_bins / 2) as i64);
        let mut codes: Vec<u32> = Vec::with_capacity(n);
        let mut literals: Vec<f32> = Vec::new();
        let mut recon = vec![0.0f64; n];
        let mut zero_mask = vec![0u8; if plan.log_domain { n.div_ceil(8) } else { 0 }];
        let mut sign_mask = vec![0u8; if plan.log_domain { n.div_ceil(8) } else { 0 }];
        for idx in 0..n {
            let x = data[idx];
            let pred = predict(*kind, shape, &recon, idx);
            let (v, masked_zero) = if plan.log_domain {
                if x == 0.0 {
                    zero_mask[idx / 8] |= 1 << (idx % 8);
                    (pred, true)
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
                    accept = true;
                } else {
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
        (Quantized { codes, literals, zero_mask, sign_mask }, recon)
    }

    fn reference_reconstruct(q: &Quantized, case: &Case) -> (Vec<f32>, Vec<f64>) {
        let Case { shape, kind, plan, quant_bins, .. } = case;
        let (n, eb, mid) = (q.codes.len(), plan.abs_eb, (quant_bins / 2) as i64);
        let mut recon = vec![0.0f64; n];
        let mut out = vec![0.0f32; n];
        let mut lit_cursor = 0usize;
        for idx in 0..n {
            let pred = predict(*kind, shape, &recon, idx);
            let code = q.codes[idx];
            let is_zero = plan.log_domain && (q.zero_mask[idx / 8] >> (idx % 8)) & 1 == 1;
            let negative = plan.log_domain && (q.sign_mask[idx / 8] >> (idx % 8)) & 1 == 1;
            if code == CODE_LITERAL {
                let x = q.literals.get(lit_cursor).copied().unwrap_or(0.0);
                lit_cursor += 1;
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
                out[idx] = x;
            } else {
                let qi = (code as i64 - 1 - mid).clamp(-mid, mid - 1);
                let r = pred + qi as f64 * 2.0 * eb;
                recon[idx] = r;
                out[idx] = if is_zero {
                    0.0
                } else if plan.log_domain {
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
        (out, recon)
    }

    /// A field with every kind of element the loop distinguishes: a smooth
    /// part, both zeros, negatives, NaN, both infinities and noise across
    /// many decades (unpredictable at small `quant_bins`).
    fn random_field(rng: &mut StdRng, n: usize) -> Vec<f32> {
        let scale = [1e-3f32, 1.0, 1e4][rng.random_range(0..3usize)];
        (0..n)
            .map(|i| match rng.random_range(0..40u32) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::NAN,
                3 => [f32::INFINITY, f32::NEG_INFINITY][i % 2],
                4..=9 => {
                    let mag = 10f32.powi(rng.random_range(0..16u32) as i32 - 8);
                    mag * (rng.random::<f32>() - 0.5)
                }
                _ => ((i as f32 * 0.05).sin() - 0.3) * scale,
            })
            .collect()
    }

    fn bits64(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn bits32(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn loops_match_reference(rng: &mut StdRng) {
        let dims = random_dims(rng);
        let shape = GridShape::new(&dims).unwrap();
        let data = random_field(rng, shape.len());
        let eps = [1e-3, 0.1, 0.9][rng.random_range(0..3usize)];
        let plan = if rng.random::<bool>() {
            BoundPlan { abs_eb: (1.0f64 + eps).ln(), log_domain: true }
        } else {
            BoundPlan {
                abs_eb: [1e-4, 0.1, 0.5, 37.0][rng.random_range(0..4usize)],
                log_domain: false,
            }
        };
        let case = Case {
            shape,
            kind: [PredictorKind::Lorenzo, PredictorKind::Lorenzo2][rng.random_range(0..2usize)],
            plan,
            rel_eps: eps,
            quant_bins: [4, 16, 255, 65536, 1 << 24][rng.random_range(0..5usize)],
        };
        let what = format!("{dims:?} {:?} {plan:?} bins {}", case.kind, case.quant_bins);
        let predictor = Predictor::new(case.kind, case.shape.clone());

        let mut encoder = ElementEncoder::new(&data, &plan, eps, case.quant_bins);
        let recon = encoder.encode_all(&predictor, plan.log_domain);
        let ElementEncoder { codes, literals, zero_mask, sign_mask, .. } = encoder;
        let mut q = Quantized { codes, literals, zero_mask, sign_mask };
        let (want, want_recon) = reference_quantize(&data, &case);
        assert_eq!(q.codes, want.codes, "{what}: codes");
        assert_eq!(bits32(&q.literals), bits32(&want.literals), "{what}: literals");
        assert_eq!(q.zero_mask, want.zero_mask, "{what}: zero mask");
        assert_eq!(q.sign_mask, want.sign_mask, "{what}: sign mask");
        assert_eq!(bits64(&recon), bits64(&want_recon), "{what}: encoder reconstruction");

        // Decode what a fault might have left: some codes out of range, some
        // turned into literals the literal stream does not hold.
        for code in q.codes.iter_mut() {
            match rng.random_range(0..50u32) {
                0 => *code = rng.random::<u32>(),
                1 => *code = CODE_LITERAL,
                _ => {}
            }
        }
        let mut out = vec![0.0f32; data.len()];
        let mut decoder = ElementDecoder {
            codes: &q.codes,
            literals: q.literals.iter(),
            zero_mask: &q.zero_mask,
            sign_mask: &q.sign_mask,
            eb: plan.abs_eb,
            mid: (case.quant_bins / 2) as i64,
            out: &mut out,
        };
        let recon = decoder.run(&predictor, plan.log_domain);
        let (want_out, want_recon) = reference_reconstruct(&q, &case);
        assert_eq!(bits32(&out), bits32(&want_out), "{what}: decoded values");
        assert_eq!(bits64(&recon), bits64(&want_recon), "{what}: decoder reconstruction");
    }

    #[test]
    fn element_loops_match_the_per_index_reference() {
        let mut rng = StdRng::seed_from_u64(0x5A);
        for _ in 0..150 {
            loops_match_reference(&mut rng);
        }
    }

    // Run by `scripts/check.sh --full`.
    #[test]
    #[ignore = "deep variant"]
    fn element_loops_match_the_per_index_reference_deep() {
        let mut rng = StdRng::seed_from_u64(0xDE_E95A);
        for _ in 0..10_000 {
            loops_match_reference(&mut rng);
        }
    }

    /// What the old loop did with a difference: `(diff / 2eb).round()`, kept
    /// when it names a bin.
    fn reference_bin(diff: f64, eb: f64, mid: i64) -> Option<i64> {
        let q = (diff / (2.0 * eb)).round();
        (q.is_finite() && q >= -(mid as f64) && q <= (mid - 1) as f64).then_some(q as i64)
    }

    fn assert_steps_match(diff: f64, eb: f64, quant_bins: usize) {
        let quantizer = Quantizer::new(eb, quant_bins);
        let want = reference_bin(diff, eb, quantizer.mid);
        let got = quantizer.steps(diff);
        // Twice the bin, and the very `f64` the old `qi as f64 * 2.0` was.
        let want_steps = want.map(|q| (q as f64 * 2.0).to_bits());
        assert_eq!(got.map(f64::to_bits), want_steps, "diff {diff:e} eb {eb:e} bins {quant_bins}");
    }

    #[test]
    fn rounding_matches_f64_round_at_ties_edges_and_specials() {
        // eb = 0.5 makes the difference its own quotient.
        for bins in [4usize, 256, 65536, 1 << 24] {
            let mid = (bins / 2) as f64;
            let mut quotients = vec![0.5, 2.5, 0.49999999999999994, 0.5000000000000001, 1.5, 0.0];
            quotients.extend([
                mid - 0.5,
                mid + 0.5,
                mid - 1.5,
                mid,
                mid - 1.0,
                mid + 1.0,
                mid + 2.0,
            ]);
            quotients.extend([f64::NAN, f64::INFINITY, 1e300, f64::MIN_POSITIVE, 5e-324]);
            for q in quotients {
                for diff in [q, -q] {
                    assert_steps_match(diff, 0.5, bins);
                }
            }
        }
        // Bounds whose reciprocal is not a normal number: the division path.
        for eb in [f64::MAX, 1e308, 2e-308, 5e-324] {
            for diff in [0.0, 1.0, -3.5e-308, 1e308, -1e-320] {
                assert_steps_match(diff, eb, 65536);
            }
        }
    }

    fn random_roundings(rng: &mut StdRng, cases: usize) {
        for _ in 0..cases {
            let eb =
                f64::from_bits(rng.random_range(0x3E00_0000_0000_0000..0x4200_0000_0000_0000u64));
            let bins = [16usize, 65536, 1 << 24][rng.random_range(0..3usize)];
            let k = rng.random_range(0..bins as u64 + 8) as f64 - (bins / 2) as f64 - 4.0;
            // On a tie (to within the product's rounding), a few ulps either
            // side of it, and anywhere in the bin.
            let tie = (k + 0.5) * (2.0 * eb);
            let nudged = f64::from_bits(tie.to_bits().wrapping_add(rng.random_range(0..7u64)) - 3);
            let inside = (k + rng.random::<f64>()) * (2.0 * eb);
            for diff in [tie, nudged, inside, tie * (1.0 + 2e-6), tie * (1.0 - 2e-6)] {
                assert_steps_match(diff, eb, bins);
            }
        }
    }

    #[test]
    fn rounding_matches_f64_round_on_random_near_ties() {
        random_roundings(&mut StdRng::seed_from_u64(0x71E), 20_000);
    }

    // Run by `scripts/check.sh --full`.
    #[test]
    #[ignore = "deep variant"]
    fn rounding_matches_f64_round_on_random_near_ties_deep() {
        random_roundings(&mut StdRng::seed_from_u64(0xDEE_971E), 5_000_000);
    }
}
