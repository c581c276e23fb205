//! # arc — Automated Resiliency for Compression, in Rust
//!
//! A full reproduction of *"ARC: An Automated Approach to Resiliency for
//! Lossy Compressed Data via Error Correcting Codes"* (Fulp, Poulos,
//! Underwood, Calhoun — HPDC 2021), including every substrate the paper's
//! stack depends on. This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `arc-core` | ARC itself: interface, engine, training, optimizers, failure models |
//! | [`ecc`] | `arc-ecc` | parity, Hamming, SEC-DED, Reed-Solomon, parallel codecs |
//! | [`sz`] | `arc-sz` | SZ-like prediction-based lossy compressor (ABS/PWREL/PSNR) |
//! | [`zfp`] | `arc-zfp` | ZFP-like transform-based lossy compressor (ACC/Rate) |
//! | [`pressio`] | `arc-pressio` | LibPressio-like abstraction + integrity metrics |
//! | [`lossless`] | `arc-lossless` | bit I/O, Huffman, LZ77, the zstd-like pipeline |
//! | [`datasets`] | `arc-datasets` | synthetic CESM / Isabel / NYX stand-ins |
//! | [`faultsim`] | `arc-faultsim` | soft-error injection harness |
//!
//! The most common entry points are re-exported at the top level:
//!
//! ```
//! use arc::{ArcContext, ArcOptions, EncodeRequest};
//! use arc::TrainingOptions;
//! use arc_ecc::EccConfig;
//!
//! let ctx = ArcContext::init(ArcOptions {
//!     max_threads: 2,
//!     cache_path: None,
//!     training: TrainingOptions {
//!         sample_bytes: 32 << 10,
//!         rs_sample_bytes: 16 << 10,
//!         space: vec![EccConfig::secded(true)],
//!     },
//!     ..Default::default()
//! }).unwrap();
//! let compressed = vec![1u8; 10_000]; // pretend: lossy-compressed bytes
//! let (protected, _) = ctx.encode(&compressed, &EncodeRequest::default()).unwrap();
//! let (recovered, _) = ctx.decode(&protected).unwrap();
//! assert_eq!(recovered, compressed);
//! ```

/// ARC core (interface, engine, optimizers, training, failure models).
pub use arc_core as core;
/// Synthetic SDRBench dataset stand-ins.
pub use arc_datasets as datasets;
/// Error-correcting-code substrate.
pub use arc_ecc as ecc;
/// Fault-injection harness.
pub use arc_faultsim as faultsim;
/// Lossless compression substrate.
pub use arc_lossless as lossless;
/// Compressor abstraction layer and metrics.
pub use arc_pressio as pressio;
/// SZ-like lossy compressor.
pub use arc_sz as sz;
/// ZFP-like lossy compressor.
pub use arc_zfp as zfp;

pub use arc_core::{
    arc_engine_decode, decode_batch, encode_batch, ArcContext, ArcDecodeReport, ArcError,
    ArcOptions, ArcReader, CacheStats, EncodeRequest, ErrorResponse, MemoryConstraint, RangeReport,
    ResiliencyConstraint, Selection, StreamDecoder, StreamEncoder, StreamOptions, StreamSink,
    SystemProfile, ThroughputConstraint, TrainingOptions, ANY_THREADS,
};
pub use arc_ecc::{EccConfig, EccMethod};
