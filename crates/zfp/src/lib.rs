//! # arc-zfp — ZFP-like transform-based lossy compressor
//!
//! A from-scratch reproduction of ZFP's published pipeline (Lindstrom 2014;
//! §2.1.2 of the ARC paper): the grid is cut into independent 4^d blocks,
//! each block is exponent-aligned to signed fixed point, decorrelated with
//! ZFP's near-orthogonal lifting transform, mapped to negabinary, and coded
//! one bit plane at a time with group testing.
//!
//! Two modes mirror the paper's study:
//!
//! * **Fixed accuracy** ([`ZfpMode::FixedAccuracy`], "ZFP-ACC") — bit planes
//!   are kept until the reconstruction error is within the tolerance; the
//!   encoder verifies each block and deepens coding as needed, so the bound
//!   is a hard guarantee. Blocks are variable length, making the stream
//!   serial (corruption can desynchronize later blocks — the behaviour
//!   behind ZFP-ACC's ~10% average error propagation in Fig 3c).
//! * **Fixed rate** ([`ZfpMode::FixedRate`], "ZFP-Rate") — every block gets
//!   exactly `rate · 4^d` bits, truncated mid-plane if necessary. Block `i`
//!   starts at bit `i · rate · 4^d`: random access, fully decoupled blocks,
//!   and the paper's most error-resilient mode (a flip stays inside one
//!   block, Fig 3d) — at the cost of an unbounded error and a fixed 32/rate
//!   compression ratio.

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
// A narrowing `as` silently truncates: the bug that turns a correctable
// symbol into silent corruption. Each remaining site states its value range.
#![deny(clippy::cast_possible_truncation)]

pub mod block;
pub mod codec;
pub mod error;
pub mod shard;
pub mod transform;

pub use block::Grid;
pub use error::ZfpError;
pub use shard::stream_info;

use arc_lossless::bitio::{write_varint, BitReader, BitWriter};
use codec::{
    decode_planes, encode_planes, exponent_of, forward_into, inverse_block, K_TOP, MAX_BLOCK_LEN,
};

/// Stream magic.
pub const MAGIC: &[u8; 4] = b"AZFP";
/// Format version.
pub const VERSION: u8 = 1;

/// Compression mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZfpMode {
    /// Bound the maximum absolute error ("ZFP-ACC" / accuracy mode).
    FixedAccuracy(f64),
    /// Spend exactly `rate` bits per value ("ZFP-Rate").
    FixedRate(f64),
}

impl ZfpMode {
    fn validate(&self) -> Result<(), ZfpError> {
        match *self {
            ZfpMode::FixedAccuracy(e) if e.is_finite() && e > 0.0 => Ok(()),
            ZfpMode::FixedRate(r) if r.is_finite() && (2.0..=48.0).contains(&r) => Ok(()),
            _ => Err(ZfpError::Malformed(format!("invalid mode {self:?}"))),
        }
    }

    fn tag(&self) -> u8 {
        match self {
            ZfpMode::FixedAccuracy(_) => 0,
            ZfpMode::FixedRate(_) => 1,
        }
    }

    fn param(&self) -> f64 {
        match *self {
            ZfpMode::FixedAccuracy(e) => e,
            ZfpMode::FixedRate(r) => r,
        }
    }

    fn from_tag(tag: u8, param: f64) -> Result<ZfpMode, ZfpError> {
        let m = match tag {
            0 => ZfpMode::FixedAccuracy(param),
            1 => ZfpMode::FixedRate(param),
            t => return Err(ZfpError::Malformed(format!("unknown mode tag {t}"))),
        };
        m.validate()?;
        Ok(m)
    }
}

/// A decompressed dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct ZfpDecoded {
    /// Values in row-major order.
    pub data: Vec<f32>,
    /// Grid dimensions, slowest-varying first.
    pub dims: Vec<usize>,
}

/// Per-block flag values.
const FLAG_NORMAL: u64 = 0;
const FLAG_ZERO: u64 = 1;
const FLAG_LITERAL: u64 = 2;

const EMAX_BITS: u32 = 9;
const EMAX_BIAS: i32 = 256;
const KFIELD_BITS: u32 = 6;

/// Compress `data` (row-major, `dims` slowest-first) under `mode`.
pub fn compress(data: &[f32], dims: &[usize], mode: ZfpMode) -> Result<Vec<u8>, ZfpError> {
    mode.validate()?;
    let grid =
        Grid::new(dims).ok_or_else(|| ZfpError::Malformed(format!("invalid dims {dims:?}")))?;
    if grid.len() != data.len() {
        return Err(ZfpError::Malformed(format!(
            "dims {:?} describe {} elements but {} provided",
            dims,
            grid.len(),
            data.len()
        )));
    }
    let d = grid.d();
    let bl = grid.block_len();
    let rate_budget = match mode {
        ZfpMode::FixedRate(r) => {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a validated rate is in 2..=48 and bl <= 64, so the budget is <= 3072"
            )]
            let budget = (r * bl as f64).floor() as u64;
            let header = 2 + EMAX_BITS as u64 + KFIELD_BITS as u64;
            if budget < header + 8 {
                return Err(ZfpError::Malformed(format!(
                    "rate {r} leaves no payload after the {header}-bit block header"
                )));
            }
            Some(budget)
        }
        ZfpMode::FixedAccuracy(_) => None,
    };

    let mut header = Vec::new();
    header.extend_from_slice(MAGIC);
    header.push(VERSION);
    header.push(mode.tag());
    header.extend_from_slice(&mode.param().to_le_bytes());
    #[expect(clippy::cast_possible_truncation, reason = "a validated grid has d <= 3")]
    let d_byte = d as u8;
    header.push(d_byte);
    for &dim in dims {
        write_varint(&mut header, dim as u64);
    }

    let mut w = BitWriter::new();
    let mut blk = [0.0f32; MAX_BLOCK_LEN];
    let blk = blk.get_mut(..bl).unwrap_or_default();
    for b in 0..grid.num_blocks() {
        grid.gather(data, b, blk);
        let start_bits = w.bit_len();
        encode_one_block(blk, d, mode, rate_budget, &mut w)?;
        if let Some(budget) = rate_budget {
            // Pad to the exact per-block budget (fixed rate ⇒ random access).
            let used = w.bit_len() - start_bits;
            let mut pad = budget.saturating_sub(used);
            while pad > 0 {
                let chunk = pad.min(64) as u32;
                w.write_bits(0, chunk);
                pad -= chunk as u64;
            }
        }
    }
    let payload = w.into_bytes();
    let mut out = header;
    write_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Encode one padded block. For fixed accuracy the encoder deepens `kmin`
/// until the decoded block verifies against the tolerance, falling back to
/// a raw literal block when even full precision cannot satisfy it.
fn encode_one_block(
    blk: &[f32],
    d: usize,
    mode: ZfpMode,
    rate_budget: Option<u64>,
    w: &mut BitWriter,
) -> Result<(), ZfpError> {
    let max_abs = blk.iter().fold(0.0f64, |m, &x| m.max((x as f64).abs()));
    if max_abs == 0.0 {
        w.write_bits(FLAG_ZERO, 2);
        return Ok(());
    }
    if !max_abs.is_finite() {
        // Blocks containing non-finite values are stored verbatim.
        w.write_bits(FLAG_LITERAL, 2);
        for &x in blk {
            w.write_bits(x.to_bits() as u64, 32);
        }
        return Ok(());
    }
    let emax = exponent_of(max_abs);
    let mut nb = [0u64; MAX_BLOCK_LEN];
    let kmax = forward_into(blk, emax, d, &mut nb);
    let nb = nb.get(..blk.len()).unwrap_or_default();
    match mode {
        ZfpMode::FixedRate(_) => {
            let Some(budget) = rate_budget else {
                return Err(ZfpError::Malformed("rate budget absent in rate mode".into()));
            };
            let header = 2 + EMAX_BITS as u64 + KFIELD_BITS as u64;
            w.write_bits(FLAG_NORMAL, 2);
            w.write_bits((emax + EMAX_BIAS) as u64, EMAX_BITS);
            w.write_bits(kmax as u64, KFIELD_BITS);
            // A rate low enough that the block header exhausts the budget
            // leaves zero plane bits; saturate rather than underflow.
            encode_planes(nb, kmax, 0, budget.saturating_sub(header), w);
            Ok(())
        }
        ZfpMode::FixedAccuracy(tol) => {
            // Initial guess: the plane whose weight (after transform-gain
            // amplification) drops below the tolerance.
            let scale_log = (codec::PRECISION - 2 - emax) as f64;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a saturating guess, clamped into 0..=kmax before it narrows to u32"
            )]
            let mut kmin = {
                let guess = (tol.log2() + scale_log).floor() as i64 - 2 * d as i64 - 1;
                guess.clamp(0, kmax as i64) as u32
            };
            let mut kept = [0u64; MAX_BLOCK_LEN];
            let mut decoded = [0.0f32; MAX_BLOCK_LEN];
            let kept = kept.get_mut(..blk.len()).unwrap_or_default();
            let decoded = decoded.get_mut(..blk.len()).unwrap_or_default();
            loop {
                // Verify the bound on what the decoder will see: with no bit
                // budget it gets back exactly planes `kmin..=kmax`.
                for (kept, &c) in kept.iter_mut().zip(nb) {
                    *kept = c & !((1u64 << kmin) - 1);
                }
                inverse_block(kept, emax, d, decoded);
                let ok = blk
                    .iter()
                    .zip(decoded.iter())
                    .all(|(a, b)| (*a as f64 - *b as f64).abs() <= tol);
                if ok {
                    w.write_bits(FLAG_NORMAL, 2);
                    w.write_bits((emax + EMAX_BIAS) as u64, EMAX_BITS);
                    w.write_bits(kmax as u64, KFIELD_BITS);
                    w.write_bits(kmin as u64, KFIELD_BITS);
                    encode_planes(nb, kmax, kmin, u64::MAX / 2, w);
                    return Ok(());
                }
                if kmin == 0 {
                    // Fixed-point resolution itself violates the tolerance;
                    // store the block verbatim to keep the guarantee.
                    w.write_bits(FLAG_LITERAL, 2);
                    for &x in blk {
                        w.write_bits(x.to_bits() as u64, 32);
                    }
                    return Ok(());
                }
                kmin = kmin.saturating_sub(2);
            }
        }
    }
}

/// Decompress with the default budget of 2³¹ elements.
pub fn decompress(bytes: &[u8]) -> Result<ZfpDecoded, ZfpError> {
    decompress_with_limits(bytes, 1 << 31)
}

/// Decompress, accepting at most `max_elements` output elements (the
/// Timeout guard, as in `arc-sz`).
pub fn decompress_with_limits(bytes: &[u8], max_elements: u64) -> Result<ZfpDecoded, ZfpError> {
    let info = shard::StreamInfo::read(bytes, max_elements)?;
    let grid = Grid::new(&info.dims).ok_or_else(|| ZfpError::Malformed("invalid dims".into()))?;
    // Bounded: StreamInfo::read checked the element count against max_elements.
    let mut data = vec![0.0f32; grid.len()];
    let dims = decompress_into(bytes, &mut data)?;
    Ok(ZfpDecoded { data, dims })
}

/// Decompress into `out`, which must hold exactly the stream's element
/// count, and return the stream's dims. The one decode body: a caller
/// that owns a larger field decodes each slab straight into its rows.
/// `out`'s length is the work budget. On `Err`, `out` holds no meaningful
/// values.
pub fn decompress_into(bytes: &[u8], out: &mut [f32]) -> Result<Vec<usize>, ZfpError> {
    let shard::StreamInfo { mode, dims, payload_offset, payload_len } =
        shard::StreamInfo::read(bytes, out.len() as u64)?;
    let payload = bytes
        .get(payload_offset..payload_offset + payload_len)
        .ok_or_else(|| ZfpError::Truncated("payload".into()))?;

    let grid = Grid::new(&dims).ok_or_else(|| ZfpError::Malformed("invalid dims".into()))?;
    if out.len() != grid.len() {
        return Err(ZfpError::Malformed(format!(
            "stream holds {} elements, output {}",
            grid.len(),
            out.len()
        )));
    }
    let d = grid.d();
    let bl = grid.block_len();
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the header's rate is validated into 2..=48 and bl <= 64, so <= 3072"
    )]
    let rate_budget = match mode {
        ZfpMode::FixedRate(r) => Some((r * bl as f64).floor() as u64),
        ZfpMode::FixedAccuracy(_) => None,
    };
    let mut r = BitReader::new(payload);
    let mut blk = [0.0f32; MAX_BLOCK_LEN];
    let Some(blk) = blk.get_mut(..bl) else {
        return Err(ZfpError::Malformed("block length exceeds 4^3".into()));
    };
    for b in 0..grid.num_blocks() {
        let start_bits = r.bit_pos();
        decode_one_block(&mut r, d, mode, rate_budget, blk)?;
        if let Some(budget) = rate_budget {
            // Jump to the next block boundary regardless of payload shape;
            // past the end of the stream the remaining blocks decode as zeros.
            let target = start_bits + budget;
            r.consume(target.saturating_sub(r.bit_pos()));
        }
        grid.scatter(out, b, blk);
    }
    Ok(dims)
}

#[expect(
    clippy::cast_possible_truncation,
    reason = "each narrowed value is a read_bits(n) result, which holds n <= 32 bits"
)]
fn decode_one_block(
    r: &mut BitReader<'_>,
    d: usize,
    mode: ZfpMode,
    rate_budget: Option<u64>,
    blk: &mut [f32],
) -> Result<(), ZfpError> {
    // Field reads are permissive: like the real ZFP decoder, a corrupted or
    // exhausted stream produces garbage blocks rather than exceptions (the
    // §4.2 finding that 100% of ZFP fault-injection trials "Completed").
    // Out-of-range control fields are clamped, the reserved flag value is
    // treated as a zero block, and missing bits read as zeros.
    let flag = r.read_bits(2).unwrap_or(FLAG_ZERO);
    match flag {
        FLAG_LITERAL => {
            for x in blk.iter_mut() {
                let bits = r.read_bits(32).unwrap_or(0);
                *x = f32::from_bits(bits as u32);
            }
            Ok(())
        }
        FLAG_NORMAL => {
            let emax = r.read_bits(EMAX_BITS).unwrap_or(0) as i32 - EMAX_BIAS;
            let kmax = (r.read_bits(KFIELD_BITS).unwrap_or(0) as u32).min(K_TOP);
            let mut nb = [0u64; MAX_BLOCK_LEN];
            let Some(nb) = nb.get_mut(..blk.len()) else {
                return Err(ZfpError::Malformed("block length exceeds 4^3".into()));
            };
            match mode {
                ZfpMode::FixedRate(_) => {
                    let header = 2 + EMAX_BITS as u64 + KFIELD_BITS as u64;
                    // A corrupted rate can imply a per-block budget smaller
                    // than the header it just read; saturate to zero plane
                    // bits instead of underflowing.
                    let budget = rate_budget.unwrap_or(0).saturating_sub(header);
                    decode_planes(nb, kmax, 0, budget, r)?;
                }
                ZfpMode::FixedAccuracy(_) => {
                    let kmin = (r.read_bits(KFIELD_BITS).unwrap_or(0) as u32).min(kmax);
                    decode_planes(nb, kmax, kmin, u64::MAX / 2, r)?;
                }
            }
            inverse_block(nb, emax, d, blk);
            Ok(())
        }
        // FLAG_ZERO and the reserved value both clear the block.
        _ => {
            blk.fill(0.0);
            Ok(())
        }
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
mod tests {
    use super::*;

    fn smooth(dims: &[usize]) -> Vec<f32> {
        let n: usize = dims.iter().product();
        (0..n)
            .map(|i| {
                let x = i as f32;
                (x * 0.011).sin() * 20.0 + (x * 0.0007).cos() * 5.0
            })
            .collect()
    }

    fn max_err(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x as f64 - *y as f64).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn accuracy_mode_respects_tolerance() {
        for dims in [vec![300usize], vec![33, 45], vec![10, 12, 14]] {
            let data = smooth(&dims);
            for tol in [10.0, 0.1, 1e-3, 1e-6] {
                let c = compress(&data, &dims, ZfpMode::FixedAccuracy(tol)).unwrap();
                let d = decompress(&c).unwrap();
                assert_eq!(d.dims, dims);
                assert!(
                    max_err(&data, &d.data) <= tol,
                    "dims {dims:?} tol {tol}: err {}",
                    max_err(&data, &d.data)
                );
            }
        }
    }

    #[test]
    fn accuracy_mode_compresses_smooth_data() {
        let dims = [64usize, 64];
        let data = smooth(&dims);
        let c = compress(&data, &dims, ZfpMode::FixedAccuracy(0.1)).unwrap();
        let cr = (data.len() * 4) as f64 / c.len() as f64;
        assert!(cr > 3.0, "cr {cr}");
    }

    #[test]
    fn looser_tolerance_compresses_more() {
        let dims = [48usize, 48];
        let data = smooth(&dims);
        let tight = compress(&data, &dims, ZfpMode::FixedAccuracy(1e-6)).unwrap();
        let loose = compress(&data, &dims, ZfpMode::FixedAccuracy(1.0)).unwrap();
        assert!(loose.len() < tight.len());
    }

    #[test]
    fn rate_mode_hits_exact_ratio() {
        let dims = [64usize, 64, 64]; // divisible by 4 in every axis
        let data = smooth(&dims);
        for rate in [4.0, 8.0, 16.0] {
            let c = compress(&data, &dims, ZfpMode::FixedRate(rate)).unwrap();
            let payload_bits = (data.len() as f64) * rate;
            let total = payload_bits / 8.0 + 32.0; // header slack
            assert!((c.len() as f64) <= total + 8.0, "rate {rate}: {} vs {}", c.len(), total);
            let d = decompress(&c).unwrap();
            // Rate 16 on smooth data should be quite accurate.
            if rate >= 16.0 {
                assert!(max_err(&data, &d.data) < 0.1);
            }
        }
    }

    #[test]
    fn rate_mode_blocks_are_independent() {
        // Corrupting one block's bits must not affect any other block.
        let dims = [32usize, 32];
        let data = smooth(&dims);
        let rate = 8.0;
        let c = compress(&data, &dims, ZfpMode::FixedRate(rate)).unwrap();
        let base = decompress(&c).unwrap().data;
        // Header: magic(4) + version(1) + tag(1) + param(8) + ndims(1) +
        // two 1-byte dim varints, then the payload-length varint.
        let mut p = 4 + 1 + 1 + 8 + 1 + 2;
        let _ = arc_lossless::bitio::read_varint(&c, &mut p).unwrap();
        let payload_start = p;
        let block_bits = (rate * 16.0) as usize;
        // Flip a bit in the middle of block 5.
        let mut bad = c.clone();
        let bit = payload_start * 8 + 5 * block_bits + block_bits / 2;
        bad[bit / 8] ^= 1 << (7 - (bit % 8));
        let corrupted = decompress(&bad).unwrap().data;
        let mut blocks_changed = std::collections::HashSet::new();
        for (i, (a, b)) in base.iter().zip(&corrupted).enumerate() {
            if a != b {
                let (row, col) = (i / 32, i % 32);
                blocks_changed.insert((row / 4, col / 4));
            }
        }
        assert!(blocks_changed.len() <= 1, "changed blocks: {blocks_changed:?}");
    }

    #[test]
    fn constant_and_zero_fields() {
        let dims = [16usize, 16];
        let zeros = vec![0.0f32; 256];
        let c = compress(&zeros, &dims, ZfpMode::FixedAccuracy(1e-9)).unwrap();
        assert!(c.len() < 64, "all-zero field should be tiny: {}", c.len());
        assert_eq!(decompress(&c).unwrap().data, zeros);
        let consts = vec![3.25f32; 256];
        let c = compress(&consts, &dims, ZfpMode::FixedAccuracy(1e-6)).unwrap();
        let d = decompress(&c).unwrap();
        assert!(max_err(&consts, &d.data) <= 1e-6);
    }

    #[test]
    fn nonfinite_blocks_survive_via_literal_escape() {
        let mut data = smooth(&[8, 8]);
        data[10] = f32::NAN;
        data[40] = f32::INFINITY;
        let c = compress(&data, &[8, 8], ZfpMode::FixedAccuracy(0.01)).unwrap();
        let d = decompress(&c).unwrap();
        assert!(d.data[10].is_nan());
        assert_eq!(d.data[40], f32::INFINITY);
    }

    #[test]
    fn impossible_tolerance_falls_back_to_literal() {
        let data = smooth(&[8, 8]);
        let c = compress(&data, &[8, 8], ZfpMode::FixedAccuracy(1e-300)).unwrap();
        let d = decompress(&c).unwrap();
        assert_eq!(d.data, data, "literal escape must be exact");
    }

    #[test]
    fn ragged_grids_round_trip() {
        for dims in [vec![5usize], vec![7, 9], vec![5, 6, 7], vec![1, 1, 1]] {
            let data = smooth(&dims);
            let c = compress(&data, &dims, ZfpMode::FixedAccuracy(1e-3)).unwrap();
            let d = decompress(&c).unwrap();
            assert_eq!(d.dims, dims);
            assert!(max_err(&data, &d.data) <= 1e-3, "dims {dims:?}");
        }
    }

    #[test]
    fn mode_validation() {
        let data = vec![1.0f32; 16];
        assert!(compress(&data, &[4, 4], ZfpMode::FixedAccuracy(0.0)).is_err());
        assert!(compress(&data, &[4, 4], ZfpMode::FixedRate(0.5)).is_err());
        assert!(compress(&data, &[4, 4], ZfpMode::FixedRate(100.0)).is_err());
        assert!(compress(&data, &[4, 5], ZfpMode::FixedRate(8.0)).is_err());
    }

    #[test]
    fn corrupted_stream_never_panics() {
        let dims = [24usize, 24];
        let data = smooth(&dims);
        for mode in [ZfpMode::FixedAccuracy(0.05), ZfpMode::FixedRate(8.0)] {
            let c = compress(&data, &dims, mode).unwrap();
            for i in (0..c.len()).step_by(5) {
                let mut bad = c.clone();
                bad[i] ^= 1 << (i % 8);
                let _ = decompress_with_limits(&bad, 1 << 20);
            }
        }
    }

    #[test]
    fn truncation_detected() {
        let data = smooth(&[16, 16]);
        let c = compress(&data, &[16, 16], ZfpMode::FixedRate(8.0)).unwrap();
        for cut in [0usize, 3, 10, c.len() - 1] {
            assert!(decompress(&c[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn decode_budget_triggers_timeout_class() {
        let data = smooth(&[32, 32]);
        let c = compress(&data, &[32, 32], ZfpMode::FixedAccuracy(0.01)).unwrap();
        match decompress_with_limits(&c, 10) {
            Err(ZfpError::WorkBudgetExceeded { demanded: 1024, budget: 10 }) => {}
            other => panic!("expected timeout class, got {other:?}"),
        }
    }

    #[test]
    fn psnr_improves_with_rate() {
        let dims = [64usize, 64];
        let data = smooth(&dims);
        let mut last_err = f64::INFINITY;
        for rate in [4.0, 8.0, 16.0, 32.0] {
            let c = compress(&data, &dims, ZfpMode::FixedRate(rate)).unwrap();
            let d = decompress(&c).unwrap();
            let err = max_err(&data, &d.data);
            assert!(err <= last_err * 1.5, "rate {rate}: err {err} vs prev {last_err}");
            last_err = err;
        }
        assert!(last_err < 1e-3, "32 bits/value should be near-exact: {last_err}");
    }
}
