//! The compressor abstraction: one trait over SZ and ZFP, mirroring how
//! LibPressio normalizes compressor interactions for the paper's
//! experiments (§4.1.1).

use std::fmt;

use arc_ecc::parallel::ANY_THREADS;

use crate::metrics::BoundSpec;
use crate::slab::{self, SlabDecoder};

/// A borrowed input dataset (row-major f32 grid).
#[derive(Debug, Clone, Copy)]
pub struct Dataset<'a> {
    /// Values, row-major.
    pub data: &'a [f32],
    /// Extents, slowest-varying first (1–3 dims).
    pub dims: &'a [usize],
}

/// A decompressed dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedDataset {
    /// Values, row-major.
    pub data: Vec<f32>,
    /// Extents, slowest-varying first.
    pub dims: Vec<usize>,
}

/// Unified error type; classification drives the fault study's return-status
/// taxonomy.
#[derive(Debug, Clone, PartialEq)]
pub enum PressioError {
    /// The codec rejected the stream/configuration (Compressor Exception).
    Codec(String),
    /// The decode exceeded its work budget (Timeout).
    Timeout {
        /// Work demanded by the (possibly corrupt) stream.
        demanded: u64,
        /// Budget allowed.
        budget: u64,
    },
}

impl fmt::Display for PressioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PressioError::Codec(d) => write!(f, "compressor exception: {d}"),
            PressioError::Timeout { demanded, budget } => {
                write!(f, "decode timeout: work {demanded} over budget {budget}")
            }
        }
    }
}

impl std::error::Error for PressioError {}

impl From<arc_sz::SzError> for PressioError {
    fn from(e: arc_sz::SzError) -> Self {
        match e {
            arc_sz::SzError::WorkBudgetExceeded { demanded, budget } => {
                PressioError::Timeout { demanded, budget }
            }
            other => PressioError::Codec(other.to_string()),
        }
    }
}

impl From<arc_zfp::ZfpError> for PressioError {
    fn from(e: arc_zfp::ZfpError) -> Self {
        match e {
            arc_zfp::ZfpError::WorkBudgetExceeded { demanded, budget } => {
                PressioError::Timeout { demanded, budget }
            }
            other => PressioError::Codec(other.to_string()),
        }
    }
}

/// The LibPressio-like compressor interface.
pub trait Compressor: Send + Sync {
    /// Stable identifier, e.g. `"sz-abs"`.
    fn name(&self) -> String;

    /// Compress a dataset into a self-describing byte stream.
    fn compress(&self, ds: &Dataset<'_>) -> Result<Vec<u8>, PressioError>;

    /// Decompress, limiting output to `max_elements` (the Timeout guard the
    /// fault harness relies on).
    fn decompress_with_limit(
        &self,
        bytes: &[u8],
        max_elements: u64,
    ) -> Result<DecodedDataset, PressioError>;

    /// Decompress with a generous default limit.
    fn decompress(&self, bytes: &[u8]) -> Result<DecodedDataset, PressioError> {
        self.decompress_with_limit(bytes, 1 << 31)
    }

    /// The bound this compressor promises on decompressed values, if any.
    /// Used by the fault study to count incorrect elements.
    fn bound_spec(&self) -> Option<BoundSpec>;
}

/// The five paper configurations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompressorSpec {
    /// SZ with an absolute bound.
    SzAbs(f64),
    /// SZ with a point-wise relative bound.
    SzPwRel(f64),
    /// SZ with a PSNR target.
    SzPsnr(f64),
    /// ZFP accuracy mode.
    ZfpAcc(f64),
    /// ZFP fixed-rate mode (bits per value).
    ZfpRate(f64),
}

impl CompressorSpec {
    /// Stable identifier.
    pub fn name(&self) -> String {
        match self {
            CompressorSpec::SzAbs(e) => format!("sz-abs({e})"),
            CompressorSpec::SzPwRel(e) => format!("sz-pwrel({e})"),
            CompressorSpec::SzPsnr(p) => format!("sz-psnr({p})"),
            CompressorSpec::ZfpAcc(e) => format!("zfp-acc({e})"),
            CompressorSpec::ZfpRate(r) => format!("zfp-rate({r})"),
        }
    }

    /// Family label without the parameter (matches the paper's mode names).
    pub fn family(&self) -> &'static str {
        match self {
            CompressorSpec::SzAbs(_) => "SZ-ABS",
            CompressorSpec::SzPwRel(_) => "SZ-PWREL",
            CompressorSpec::SzPsnr(_) => "SZ-PSNR",
            CompressorSpec::ZfpAcc(_) => "ZFP-ACC",
            CompressorSpec::ZfpRate(_) => "ZFP-Rate",
        }
    }

    /// Same mode with a different scalar parameter (bound-tuning helper).
    pub fn with_param(&self, p: f64) -> CompressorSpec {
        match self {
            CompressorSpec::SzAbs(_) => CompressorSpec::SzAbs(p),
            CompressorSpec::SzPwRel(_) => CompressorSpec::SzPwRel(p),
            CompressorSpec::SzPsnr(_) => CompressorSpec::SzPsnr(p),
            CompressorSpec::ZfpAcc(_) => CompressorSpec::ZfpAcc(p),
            CompressorSpec::ZfpRate(_) => CompressorSpec::ZfpRate(p),
        }
    }

    /// Instantiate the compressor.
    pub fn build(&self) -> Box<dyn Compressor> {
        match *self {
            CompressorSpec::SzAbs(e) => Box::new(SzCompressor::new(arc_sz::ErrorBound::Abs(e))),
            CompressorSpec::SzPwRel(e) => Box::new(SzCompressor::new(arc_sz::ErrorBound::PwRel(e))),
            CompressorSpec::SzPsnr(p) => Box::new(SzCompressor::new(arc_sz::ErrorBound::Psnr(p))),
            CompressorSpec::ZfpAcc(e) => {
                Box::new(ZfpCompressor { mode: arc_zfp::ZfpMode::FixedAccuracy(e) })
            }
            CompressorSpec::ZfpRate(r) => {
                Box::new(ZfpCompressor { mode: arc_zfp::ZfpMode::FixedRate(r) })
            }
        }
    }
}

/// SZ adapter.
pub struct SzCompressor {
    cfg: arc_sz::SzConfig,
}

impl SzCompressor {
    /// Create with a bound and SZ's default quantization bins.
    pub fn new(bound: arc_sz::ErrorBound) -> SzCompressor {
        SzCompressor { cfg: arc_sz::SzConfig { bound, ..Default::default() } }
    }

    /// Compress `ds` as slabs of `rows` rows (see [`slab::plan`]), on every
    /// core: the bare `arc_sz` stream when `rows` is one slab, else a frame.
    pub fn compress_rows(&self, ds: &Dataset<'_>, rows: &[usize]) -> Result<Vec<u8>, PressioError> {
        self.compress_on(ds, rows, ANY_THREADS)
    }

    pub(crate) fn compress_on(
        &self,
        ds: &Dataset<'_>,
        rows: &[usize],
        workers: usize,
    ) -> Result<Vec<u8>, PressioError> {
        // SZ-PSNR resolves its bound once, from the whole field's range, so
        // every slab carries the same absolute bound.
        let range = match self.cfg.bound {
            arc_sz::ErrorBound::Psnr(_) => arc_sz::finite_range(ds.data),
            _ => (0.0, 0.0),
        };
        slab::compress(ds, rows, workers, |data, dims| {
            Ok(arc_sz::compress_in_range(data, dims, &self.cfg, range)?)
        })
    }
}

impl SlabDecoder for SzCompressor {
    fn header_dims(&self, stream: &[u8]) -> Result<Vec<usize>, PressioError> {
        Ok(arc_sz::stream::Header::read(stream, &mut 0)?.dims)
    }

    fn decode_into(&self, stream: &[u8], out: &mut [f32]) -> Result<(), PressioError> {
        let limits = arc_sz::DecodeLimits { max_elements: out.len() as u64 };
        arc_sz::decompress_into(stream, &limits, out)?;
        Ok(())
    }
}

impl Compressor for SzCompressor {
    fn name(&self) -> String {
        match self.cfg.bound {
            arc_sz::ErrorBound::Abs(e) => format!("sz-abs({e})"),
            arc_sz::ErrorBound::PwRel(e) => format!("sz-pwrel({e})"),
            arc_sz::ErrorBound::Psnr(p) => format!("sz-psnr({p})"),
        }
    }

    fn compress(&self, ds: &Dataset<'_>) -> Result<Vec<u8>, PressioError> {
        self.compress_rows(ds, &slab::plan(ds.dims))
    }

    fn decompress_with_limit(
        &self,
        bytes: &[u8],
        max_elements: u64,
    ) -> Result<DecodedDataset, PressioError> {
        if slab::is_frame(bytes) {
            return slab::decompress(self, bytes, max_elements, ANY_THREADS);
        }
        let out = arc_sz::decompress_with_limits(bytes, &arc_sz::DecodeLimits { max_elements })?;
        Ok(DecodedDataset { data: out.data, dims: out.dims })
    }

    fn bound_spec(&self) -> Option<BoundSpec> {
        match self.cfg.bound {
            arc_sz::ErrorBound::Abs(e) => Some(BoundSpec::Abs(e)),
            arc_sz::ErrorBound::PwRel(e) => Some(BoundSpec::PwRel(e)),
            // PSNR does not bound each value (§4.1.3 collects no
            // incorrect-element metric for SZ-PSNR).
            arc_sz::ErrorBound::Psnr(_) => None,
        }
    }
}

/// ZFP adapter.
pub struct ZfpCompressor {
    /// Mode to run.
    pub mode: arc_zfp::ZfpMode,
}

impl ZfpCompressor {
    /// Compress `ds` as slabs of `rows` rows (see [`slab::plan`]), on every
    /// core: the bare `arc_zfp` stream when `rows` is one slab, else a frame.
    pub fn compress_rows(&self, ds: &Dataset<'_>, rows: &[usize]) -> Result<Vec<u8>, PressioError> {
        self.compress_on(ds, rows, ANY_THREADS)
    }

    pub(crate) fn compress_on(
        &self,
        ds: &Dataset<'_>,
        rows: &[usize],
        workers: usize,
    ) -> Result<Vec<u8>, PressioError> {
        slab::compress(ds, rows, workers, |data, dims| {
            Ok(arc_zfp::compress(data, dims, self.mode)?)
        })
    }
}

impl SlabDecoder for ZfpCompressor {
    fn header_dims(&self, stream: &[u8]) -> Result<Vec<usize>, PressioError> {
        let info = arc_zfp::stream_info(stream);
        Ok(info.ok_or_else(|| PressioError::Codec("bad ZFP slab header".into()))?.dims)
    }

    fn decode_into(&self, stream: &[u8], out: &mut [f32]) -> Result<(), PressioError> {
        let limits = arc_zfp::DecodeLimits { max_elements: out.len() as u64 };
        arc_zfp::decompress_into(stream, &limits, out)?;
        Ok(())
    }
}

impl Compressor for ZfpCompressor {
    fn name(&self) -> String {
        match self.mode {
            arc_zfp::ZfpMode::FixedAccuracy(e) => format!("zfp-acc({e})"),
            arc_zfp::ZfpMode::FixedRate(r) => format!("zfp-rate({r})"),
        }
    }

    fn compress(&self, ds: &Dataset<'_>) -> Result<Vec<u8>, PressioError> {
        self.compress_rows(ds, &slab::plan(ds.dims))
    }

    fn decompress_with_limit(
        &self,
        bytes: &[u8],
        max_elements: u64,
    ) -> Result<DecodedDataset, PressioError> {
        if slab::is_frame(bytes) {
            return slab::decompress(self, bytes, max_elements, ANY_THREADS);
        }
        let out = arc_zfp::decompress_with_limits(bytes, &arc_zfp::DecodeLimits { max_elements })?;
        Ok(DecodedDataset { data: out.data, dims: out.dims })
    }

    fn bound_spec(&self) -> Option<BoundSpec> {
        match self.mode {
            arc_zfp::ZfpMode::FixedAccuracy(e) => Some(BoundSpec::Abs(e)),
            // Fixed rate cannot bound error (§2.1.2); Fig 3d instead counts
            // elements against the chosen evaluation bound externally.
            arc_zfp::ZfpMode::FixedRate(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.013).sin() * 4.0).collect()
    }

    #[test]
    fn all_specs_round_trip() {
        let data = field(40 * 40);
        let dims = [40usize, 40];
        let ds = Dataset { data: &data, dims: &dims };
        let specs = [
            CompressorSpec::SzAbs(0.01),
            CompressorSpec::SzPwRel(0.05),
            CompressorSpec::SzPsnr(80.0),
            CompressorSpec::ZfpAcc(0.01),
            CompressorSpec::ZfpRate(8.0),
        ];
        for spec in specs {
            let c = spec.build();
            let packed = c.compress(&ds).unwrap();
            let out = c.decompress(&packed).unwrap();
            assert_eq!(out.dims, dims.to_vec(), "{}", spec.name());
            assert_eq!(out.data.len(), data.len(), "{}", spec.name());
            if let Some(bound) = c.bound_spec() {
                let bad = crate::metrics::incorrect_elements(&data, &out.data, bound);
                assert_eq!(bad, 0, "{} violated its own bound", spec.name());
            }
        }
    }

    #[test]
    fn timeout_classification_propagates() {
        let data = field(64 * 64);
        let ds = Dataset { data: &data, dims: &[64, 64] };
        for spec in [CompressorSpec::SzAbs(0.01), CompressorSpec::ZfpAcc(0.01)] {
            let c = spec.build();
            let packed = c.compress(&ds).unwrap();
            let err = c.decompress_with_limit(&packed, 16).unwrap_err();
            assert!(matches!(err, PressioError::Timeout { .. }), "{}: {err}", spec.name());
        }
    }

    #[test]
    fn spec_name_and_family() {
        assert_eq!(CompressorSpec::SzAbs(0.1).family(), "SZ-ABS");
        assert_eq!(CompressorSpec::ZfpRate(8.0).family(), "ZFP-Rate");
        assert!(CompressorSpec::SzPwRel(0.1).name().contains("pwrel"));
    }

    #[test]
    fn with_param_rebinds() {
        let s = CompressorSpec::ZfpAcc(0.1).with_param(0.5);
        assert_eq!(s, CompressorSpec::ZfpAcc(0.5));
    }

    #[test]
    fn corrupt_streams_surface_as_exceptions_not_panics() {
        let data = field(32 * 32);
        let ds = Dataset { data: &data, dims: &[32, 32] };
        for spec in [CompressorSpec::SzAbs(0.1), CompressorSpec::ZfpRate(8.0)] {
            let c = spec.build();
            let packed = c.compress(&ds).unwrap();
            for i in (0..packed.len()).step_by(11) {
                let mut bad = packed.clone();
                bad[i] ^= 0x80;
                let _ = c.decompress_with_limit(&bad, 1 << 20);
            }
        }
    }
}
