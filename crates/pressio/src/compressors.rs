//! The compressor abstraction: one compressor type over SZ and ZFP, and one
//! decode that reads everything it needs from the stream, mirroring how
//! LibPressio normalizes compressor interactions for the paper's
//! experiments (§4.1.1).

use std::fmt;

use arc_ecc::parallel::ANY_THREADS;

use crate::metrics::BoundSpec;
use crate::slab;

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
    /// Compress a dataset into a self-describing byte stream.
    fn compress(&self, ds: &Dataset<'_>) -> Result<Vec<u8>, PressioError>;

    /// Decompress with a generous default limit: [`decompress`], which
    /// reads everything it needs from the bytes.
    fn decompress(&self, bytes: &[u8]) -> Result<DecodedDataset, PressioError> {
        decompress(bytes, 1 << 31)
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

    /// The compressor, boxed for callers that hold one behind the trait.
    pub fn build(&self) -> Box<dyn Compressor> {
        Box::new(*self)
    }

    /// Compress `ds` as slabs of `rows` rows (see [`slab::plan`]), on every
    /// core: the bare codec stream when `rows` is one slab, else a frame.
    pub fn compress_rows(&self, ds: &Dataset<'_>, rows: &[usize]) -> Result<Vec<u8>, PressioError> {
        self.compress_on(ds, rows, ANY_THREADS)
    }

    pub(crate) fn compress_on(
        &self,
        ds: &Dataset<'_>,
        rows: &[usize],
        workers: usize,
    ) -> Result<Vec<u8>, PressioError> {
        use arc_sz::ErrorBound;
        use arc_zfp::ZfpMode;
        let sz = |bound| {
            let cfg = arc_sz::SzConfig { bound, ..Default::default() };
            // SZ-PSNR resolves its bound once, from the whole field's range,
            // so every slab carries the same absolute bound.
            let range = match bound {
                ErrorBound::Psnr(_) => arc_sz::finite_range(ds.data),
                _ => (0.0, 0.0),
            };
            slab::compress(ds, rows, workers, |data, dims| {
                Ok(arc_sz::compress_in_range(data, dims, &cfg, range)?)
            })
        };
        let zfp = |mode| {
            slab::compress(ds, rows, workers, |data, dims| Ok(arc_zfp::compress(data, dims, mode)?))
        };
        match *self {
            CompressorSpec::SzAbs(e) => sz(ErrorBound::Abs(e)),
            CompressorSpec::SzPwRel(e) => sz(ErrorBound::PwRel(e)),
            CompressorSpec::SzPsnr(p) => sz(ErrorBound::Psnr(p)),
            CompressorSpec::ZfpAcc(e) => zfp(ZfpMode::FixedAccuracy(e)),
            CompressorSpec::ZfpRate(r) => zfp(ZfpMode::FixedRate(r)),
        }
    }
}

impl Compressor for CompressorSpec {
    fn compress(&self, ds: &Dataset<'_>) -> Result<Vec<u8>, PressioError> {
        self.compress_rows(ds, &slab::plan(ds.dims))
    }

    fn bound_spec(&self) -> Option<BoundSpec> {
        match *self {
            CompressorSpec::SzAbs(e) | CompressorSpec::ZfpAcc(e) => Some(BoundSpec::Abs(e)),
            CompressorSpec::SzPwRel(e) => Some(BoundSpec::PwRel(e)),
            // PSNR does not bound each value (§4.1.3 collects no
            // incorrect-element metric for SZ-PSNR). Fixed rate cannot bound
            // error (§2.1.2); Fig 3d instead counts elements against the
            // chosen evaluation bound externally.
            CompressorSpec::SzPsnr(_) | CompressorSpec::ZfpRate(_) => None,
        }
    }
}

/// The codec a bare stream's leading magic names.
#[derive(Clone, Copy)]
pub(crate) enum Codec {
    Sz,
    Zfp,
}

impl Codec {
    /// The codec of `stream`, by its magic; anything else is refused.
    pub(crate) fn of(stream: &[u8]) -> Result<Codec, PressioError> {
        match stream.first_chunk::<4>() {
            Some(magic) if magic == arc_sz::stream::MAGIC => Ok(Codec::Sz),
            Some(magic) if magic == arc_zfp::MAGIC => Ok(Codec::Zfp),
            _ => Err(PressioError::Codec("unknown stream magic".into())),
        }
    }

    /// The dims a bare stream's header declares.
    pub(crate) fn header_dims(self, stream: &[u8]) -> Result<Vec<usize>, PressioError> {
        match self {
            Codec::Sz => Ok(arc_sz::stream::Header::read(stream, &mut 0)?.dims),
            Codec::Zfp => arc_zfp::stream_info(stream)
                .map(|info| info.dims)
                .ok_or_else(|| PressioError::Codec("bad ZFP slab header".into())),
        }
    }

    /// Decode a bare stream into `out`, which holds exactly its elements.
    pub(crate) fn decode_into(self, stream: &[u8], out: &mut [f32]) -> Result<(), PressioError> {
        match self {
            Codec::Sz => {
                arc_sz::decompress_into(stream, out)?;
            }
            Codec::Zfp => {
                arc_zfp::decompress_into(stream, out)?;
            }
        }
        Ok(())
    }
}

/// Decompress any stream this crate writes, from its bytes alone: the
/// leading magic picks the path. A slab frame (`ASLB`) goes to the slab
/// walk, a bare `ASZ1` or `AZFP` stream to its codec; anything else is a
/// [`PressioError::Codec`]. Output over `max_elements` values is the
/// Timeout guard the fault harness relies on.
pub fn decompress(bytes: &[u8], max_elements: u64) -> Result<DecodedDataset, PressioError> {
    if slab::is_frame(bytes) {
        return slab::decompress(bytes, max_elements, ANY_THREADS);
    }
    let (data, dims) = match Codec::of(bytes)? {
        Codec::Sz => {
            let out = arc_sz::decompress_with_limits(bytes, max_elements)?;
            (out.data, out.dims)
        }
        Codec::Zfp => {
            let out = arc_zfp::decompress_with_limits(bytes, max_elements)?;
            (out.data, out.dims)
        }
    };
    Ok(DecodedDataset { data, dims })
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
            let packed = spec.compress(&ds).unwrap();
            let err = decompress(&packed, 16).unwrap_err();
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
            let packed = spec.compress(&ds).unwrap();
            for i in (0..packed.len()).step_by(11) {
                let mut bad = packed.clone();
                bad[i] ^= 0x80;
                let _ = decompress(&bad, 1 << 20);
            }
        }
    }
}
