//! # arc-datasets — synthetic SDRBench stand-ins
//!
//! Deterministic generators mimicking the three datasets of the paper's
//! fault-injection study (§4.1.2): the CESM CLDLOW 2-D cloud-fraction
//! field, the Hurricane Isabel 3-D pressure field, and the NYX 3-D
//! temperature field. The real files cannot ship with this repository; the
//! generators reproduce their dimensionality, value regimes, and
//! multi-scale smoothness, which is what the compressed-stream structure —
//! and therefore the fault-injection behaviour — depends on. See DESIGN.md
//! §2 for the substitution rationale.
//!
//! ```
//! use arc_datasets::SdrDataset;
//!
//! let field = SdrDataset::CesmCldlow.generate_test();
//! assert_eq!(field.dims, vec![180, 360]);
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

pub mod fields;
pub mod noise;

pub use fields::{cesm_cldlow, isabel_pressure, nyx_temperature, Field, SdrDataset};
pub use noise::{Fbm, ValueNoise};
