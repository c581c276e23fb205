//! # arc-core — ARC: Automated Resiliency for Compression
//!
//! The paper's primary contribution (HPDC '21, §5): given user constraints
//! on **storage**, **throughput**, and **resiliency**, ARC automatically
//! determines the optimal error-correcting-code configuration and applies
//! it to any `&[u8]` — typically lossy-compressed data, whose single-bit
//! sensitivity the paper's fault study established (§4).
//!
//! The crate mirrors the paper's two access levels:
//!
//! * the **ARC Interface** ([`ArcContext`]) — `arc_init` / `arc_encode` /
//!   `arc_decode` / `arc_close`, with the training phase and on-disk cache
//!   of §5.1;
//! * the **ARC Engine** ([`engine`]) — the Table 1 functions for direct
//!   per-method encode/decode and the three constraint optimizers.
//!
//! ```
//! use arc_core::{ArcContext, ArcOptions, EncodeRequest, MemoryConstraint,
//!                ResiliencyConstraint, ThroughputConstraint, TrainingOptions};
//! use arc_ecc::EccConfig;
//!
//! // Algorithm 1, in Rust. (Tiny training space to keep the doctest fast.)
//! let dir = std::env::temp_dir().join("arc-doctest");
//! let ctx = ArcContext::init(ArcOptions {
//!     max_threads: 2,
//!     cache_path: Some(dir.join("training.tsv")),
//!     training: TrainingOptions {
//!         sample_bytes: 32 << 10,
//!         rs_sample_bytes: 16 << 10,
//!         space: vec![EccConfig::secded(true), EccConfig::rs(32, 8).unwrap()],
//!     },
//!     ..Default::default()
//! }).unwrap();                                           // arc_init()
//!
//! let data = vec![0xC0u8; 100_000]; // e.g. lossy-compressed output
//! let (encoded, _sel) = ctx.encode(&data, &EncodeRequest {
//!     memory: MemoryConstraint::Fraction(0.25),
//!     throughput: ThroughputConstraint::Any,
//!     resiliency: ResiliencyConstraint::ErrorsPerMb(1.0),
//! }).unwrap();                                           // arc_encode()
//!
//! let (decoded, _report) = ctx.decode(&encoded).unwrap(); // arc_decode()
//! ctx.close().unwrap();                                   // arc_close()
//! assert_eq!(decoded, data);
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

pub mod constraints;
pub mod container;
pub mod engine;
pub mod error;
pub mod extension;
pub mod failure;
pub mod interface;
pub mod optimizer;
pub mod reader;
pub mod stream;
pub mod training;

pub use constraints::{
    EncodeRequest, ErrorResponse, MemoryConstraint, ResiliencyConstraint, ThroughputConstraint,
    BURST_RATE_THRESHOLD,
};
pub use container::{ContainerMeta, IndexRepair, Unpacked};
pub use engine::{
    arc_engine_decode, arc_engine_encode, arc_engine_encode_sharded, arc_hamming_decode,
    arc_hamming_encode, arc_parity_decode, arc_parity_encode, arc_reed_solomon_decode,
    arc_reed_solomon_encode, arc_secded_decode, arc_secded_encode, ENGINE_FUNCTIONS,
};
pub use error::ArcError;
pub use extension::{
    decode_with_registry, encode_sharded_with_scheme, encode_with_scheme, standard_extensions,
    ExtensionRegistry, CUSTOM_PREFIX,
};
pub use failure::SystemProfile;
pub use interface::{ArcContext, ArcDecodeReport, ArcOptions, ANY_THREADS};
pub use optimizer::{
    joint_optimizer, joint_optimizer_with, memory_optimizer, throughput_optimizer, Selection,
};
pub use reader::{ArcReader, CacheStats, RangeReport};
pub use stream::{encode_batch, StreamEncodeStats, StreamEncoder, StreamOptions, StreamSink};
pub use training::{
    probe_buffer, thread_ladder, train, Measurement, TrainingOptions, TrainingStats, TrainingTable,
};
