//! # arc-pressio — compressor abstraction layer
//!
//! The LibPressio stand-in (§4.1.1 of the ARC paper, [Underwood 2020]):
//! one compressor type, [`CompressorSpec`] (the five paper modes, behind the
//! [`Compressor`] trait), normalizing the SZ-like and ZFP-like lossy codecs;
//! the data-integrity metrics the fault study collects (§4.1.3); and a
//! bound-tuning search used to hit target compression ratios (§4.4).
//!
//! Decoding needs no compressor: every stream is self-describing, and
//! [`decompress`] picks its path from the leading magic — a slab frame
//! (`ASLB`), or a bare SZ (`ASZ1`) or ZFP (`AZFP`) stream.
//!
//! ```
//! use arc_pressio::{Compressor, CompressorSpec, Dataset};
//!
//! let data: Vec<f32> = (0..64 * 64).map(|i| (i as f32 * 0.01).sin()).collect();
//! let ds = Dataset { data: &data, dims: &[64, 64] };
//! let packed = CompressorSpec::SzAbs(1e-3).compress(&ds).unwrap();
//! let out = arc_pressio::decompress(&packed, 1 << 20).unwrap();
//! assert_eq!(out.dims, vec![64, 64]);
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

pub mod compressors;
pub mod metrics;
pub mod slab;
pub mod tuning;

pub use compressors::{
    decompress, Compressor, CompressorSpec, Dataset, DecodedDataset, PressioError,
};
pub use metrics::{
    compression_ratio, incorrect_elements, max_abs_diff, percent_incorrect, psnr, rmse,
    value_range, BoundSpec, RunningStats,
};
pub use tuning::{tune_for_ratio, TunedBound};
