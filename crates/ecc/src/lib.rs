//! # arc-ecc — error-correcting codes for ARC
//!
//! The ECC substrate of the ARC reproduction (HPDC '21): the four code
//! families the paper's engine exposes (§2.2, §5.2), implemented from
//! scratch, plus the chunk-parallel driver that gives each of them the
//! OpenMP-style thread scaling evaluated in Figures 8–10.
//!
//! * [`parity::Parity`] — single-bit even parity per block (detect-only).
//! * [`hamming::Hamming`] — SEC Hamming over 8- or 64-bit blocks, and
//!   [`hamming::SecDed`], the same code with an overall parity bit:
//!   single-correct double-detect.
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
//! use arc_ecc::{EccConfig, ParallelCodec};
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
// A narrowing `as` silently truncates: the bug that turns a correctable
// symbol into silent corruption. Each remaining site states its value range.
#![deny(clippy::cast_possible_truncation)]

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

pub use bch::Bch;
pub use codec::{Capability, CorrectionReport, EccError, EccScheme};
pub use config::{EccConfig, EccMethod};
pub use hamming::{Hamming, SecDed};
pub use interleaved::Interleaved;
pub use parallel::{ParallelCodec, ANY_THREADS, DEFAULT_CHUNK_SIZE};
pub use parity::Parity;
pub use replication::Replication;
pub use rs::ReedSolomon;
pub use rscode::RsCodeword;
