//! # arc-ecc — error-correcting codes for ARC
//!
//! The ECC substrate of the ARC reproduction (HPDC '21): the four code
//! families the paper's engine exposes (§2.2, §5.2), implemented from
//! scratch, plus the chunk-parallel driver that gives each of them the
//! OpenMP-style thread scaling evaluated in Figures 8–10.
//!
//! * [`parity::Parity`] — single-bit even parity per block (detect-only).
//! * [`hamming::Hamming`] — SEC Hamming over 8- or 64-bit blocks.
//! * [`secded::SecDed`] — extended Hamming, single-correct double-detect.
//! * [`rs::ReedSolomon`] — device-oriented Reed-Solomon (the Jerasure
//!   substitution): CRC-located erasures over a Cauchy generator.
//! * [`rscode::RsCodeword`] — classical BCH-view RS with Berlekamp–Massey
//!   unknown-location decoding (container-header protection, ablations).
//!
//! Extension families for the `arc-core` registry (§7 future work):
//!
//! * [`interleaved::Interleaved`] — codeword RS as an [`codec::EccScheme`],
//!   woven across byte lanes: checksum-free unknown-location byte
//!   correction, with bursts turned into per-codeword singles.
//! * [`bch::Bch`] — shortened binary BCH(8191, 8191−13t, t) over GF(2^13)
//!   for bit-rot at sub-percent overhead.
//! * [`parallel::ParallelCodec`] — chunked thread-parallel encode/decode at
//!   explicit thread counts.
//! * [`config::EccConfig`] — the serializable configuration space ARC's
//!   training phase measures and its optimizers search.
//!
//! ```
//! use arc_ecc::prelude::*;
//!
//! let data = vec![42u8; 1 << 16];
//! let codec = ParallelCodec::new(EccConfig::secded(true), 4).unwrap();
//! let mut encoded = codec.encode(&data);
//! encoded[100] ^= 0x04; // a soft error strikes
//! let (recovered, report) = codec.decode(&encoded, data.len()).unwrap();
//! assert_eq!(recovered, data);
//! assert_eq!(report.corrected_bits, 1);
//! ```

#![warn(missing_docs)]

pub mod bch;
pub mod bits;
pub mod codec;
pub mod config;
pub mod crc;
pub mod gf256;
pub mod hamming;
pub mod interleaved;
pub mod parallel;
pub mod parity;
pub mod replication;
pub mod rs;
pub mod rscode;
pub mod secded;

/// Convenient re-exports of the crate's primary types.
pub mod prelude {
    pub use crate::bch::Bch;
    pub use crate::codec::{Capability, CorrectionReport, EccError, EccScheme};
    pub use crate::config::{EccConfig, EccMethod};
    pub use crate::hamming::{BlockWidth, Hamming};
    pub use crate::interleaved::Interleaved;
    pub use crate::parallel::{ParallelCodec, ThroughputSample, ANY_THREADS, DEFAULT_CHUNK_SIZE};
    pub use crate::parity::Parity;
    pub use crate::replication::Replication;
    pub use crate::rs::ReedSolomon;
    pub use crate::rscode::RsCodeword;
    pub use crate::secded::SecDed;
}

pub use prelude::*;
