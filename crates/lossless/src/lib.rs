//! # arc-lossless — lossless compression substrate
//!
//! From-scratch lossless building blocks standing in for the ZStd
//! dependency of the paper's stack (§2.1.1, §4.4): bit-granular stream I/O,
//! canonical Huffman coding, LZ77 match finding, and the one pipeline built
//! from them — a ZStd-like sectioned format that serves as SZ's final
//! compression stage.
//!
//! ```
//! let data = b"HPC floating-point data ".repeat(64);
//! let packed = arc_lossless::zstd_like::compress(&data);
//! assert!(packed.len() < data.len());
//! assert_eq!(arc_lossless::zstd_like::decompress(&packed).unwrap(), data);
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

pub mod bitio;
pub mod error;
pub mod huffman;
pub mod lz77;
pub mod zstd_like;

pub use error::LosslessError;
