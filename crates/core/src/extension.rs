//! The custom-ECC extension API — the paper's stated future work ("we aim
//! to implement an API to further simplify the addition of custom ECC
//! algorithms and constraints", §7), realized.
//!
//! A custom scheme is anything implementing [`arc_ecc::EccScheme`].
//! Registering it under a name yields containers tagged `x:<name>`; the
//! registry resolves that tag at decode time, and the same chunk-parallel
//! driver, container protection, and end-to-end CRC apply as for built-in
//! methods. Custom *constraints* are expressed as arbitrary predicates via
//! [`crate::optimizer::joint_optimizer_with`].
//!
//! This module is also the crate's one scheme dispatch. Built-in
//! configurations and registry entries alike run as `Arc<dyn EccScheme>`:
//! `resolve_scheme` turns a container's scheme id into one on the decode
//! side, `builtin_scheme` / `ExtensionRegistry::named_scheme` pair the
//! scheme a caller chose with the id its containers carry on the encode
//! side, and every writer and decoder takes what they return.
//!
//! ```
//! use std::sync::Arc;
//! use arc_core::extension::{decode_with_registry, encode_with_scheme, ExtensionRegistry};
//! use arc_ecc::Replication;
//!
//! let mut registry = ExtensionRegistry::new();
//! registry.register("tmr", Arc::new(Replication::tmr())).unwrap();
//!
//! let data = vec![7u8; 10_000];
//! let encoded = encode_with_scheme(&data, &registry, "tmr", 2).unwrap();
//! let (decoded, report) = decode_with_registry(&encoded, 2, &registry).unwrap();
//! assert_eq!(decoded, data);
//! assert_eq!(report.scheme_id, "x:tmr");
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use arc_ecc::{Bch, EccConfig, EccScheme, Interleaved, ParallelCodec};

use crate::container;
use crate::error::ArcError;
use crate::interface::{decode_container, ArcDecodeReport};
use crate::stream;

/// Prefix distinguishing extension scheme ids from built-in ones in the
/// container header.
pub const CUSTOM_PREFIX: &str = "x:";

/// A registry of named custom ECC schemes.
#[derive(Default, Clone)]
pub struct ExtensionRegistry {
    schemes: HashMap<String, Arc<dyn EccScheme>>,
}

impl std::fmt::Debug for ExtensionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtensionRegistry").field("schemes", &self.ids()).finish()
    }
}

impl ExtensionRegistry {
    /// Empty registry.
    pub fn new() -> ExtensionRegistry {
        ExtensionRegistry::default()
    }

    /// Register a scheme under `name` (no prefix). Names must be 1–60
    /// ASCII-graphic characters without `:` and must be unused.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        scheme: Arc<dyn EccScheme>,
    ) -> Result<(), ArcError> {
        let name = name.into();
        if name.is_empty()
            || name.len() > 60
            || !name.bytes().all(|b| b.is_ascii_graphic() && b != b':')
        {
            return Err(ArcError::InvalidRequest(format!(
                "invalid extension scheme name {name:?}"
            )));
        }
        if self.schemes.contains_key(&name) {
            return Err(ArcError::InvalidRequest(format!(
                "extension scheme {name:?} already registered"
            )));
        }
        self.schemes.insert(name, scheme);
        Ok(())
    }

    /// Look up a scheme by bare name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn EccScheme>> {
        self.schemes.get(name).cloned()
    }

    /// Resolve a container scheme id (`x:<name>`).
    pub(crate) fn resolve_id(&self, scheme_id: &str) -> Option<Arc<dyn EccScheme>> {
        scheme_id.strip_prefix(CUSTOM_PREFIX).and_then(|n| self.get(n))
    }

    /// Encode-side dispatch for extensions: the scheme registered under
    /// bare `name`, with the `x:<name>` id its containers carry.
    pub(crate) fn named_scheme(&self, name: &str) -> Result<Resolved, ArcError> {
        let scheme = self.get(name).ok_or_else(|| {
            ArcError::InvalidRequest(format!("no extension scheme named {name:?} registered"))
        })?;
        Ok((format!("{CUSTOM_PREFIX}{name}"), scheme))
    }

    /// Registered names, sorted.
    pub fn ids(&self) -> Vec<String> {
        let mut v: Vec<String> = self.schemes.keys().cloned().collect();
        v.sort();
        v
    }
}

/// The stock extension families, pre-registered:
///
/// * `ileave-rs` — [`Interleaved`] RS(223|32) across 64 byte lanes: data
///   bursts up to 64·16 bytes at bare-RS parity cost;
/// * `bch` — [`Bch`] with t = 2: any two bit flips per 1000-byte block at
///   0.4 % overhead (bit-rot insurance an order cheaper than SEC-DED).
///
/// Both are named by hand (`encode_sharded_with_scheme`,
/// `StreamEncoder::with_registry_scheme`); the optimizer searches the
/// built-in `EccConfig` space only.
pub fn standard_extensions() -> Result<ExtensionRegistry, ArcError> {
    let mut r = ExtensionRegistry::new();
    r.register("ileave-rs", Arc::new(Interleaved::new(32, 64)?))?;
    r.register("bch", Arc::new(Bch::new(2)?))?;
    Ok(r)
}

/// A scheme ready to run: the id its containers carry and the code behind
/// it. Built-ins and extensions are indistinguishable from here on.
pub(crate) type Resolved = (String, Arc<dyn EccScheme>);

/// Encode-side dispatch for built-ins: `config` under its own id.
pub(crate) fn builtin_scheme(config: EccConfig) -> Resolved {
    (config.id(), Arc::new(config))
}

/// Resolve a container scheme id to a runnable scheme: built-in ids parse
/// directly, `x:` ids go through `registry`. The error distinguishes "no
/// registry supplied" from "registry lacks this name" so callers know
/// whether to reach for a `*_with_registry` entry point or fix their
/// registration.
pub(crate) fn resolve_scheme(
    scheme_id: &str,
    registry: Option<&ExtensionRegistry>,
) -> Result<Arc<dyn EccScheme>, ArcError> {
    if let Ok(config) = EccConfig::parse_id(scheme_id) {
        return Ok(Arc::new(config));
    }
    match registry {
        Some(r) => r.resolve_id(scheme_id).ok_or_else(|| {
            ArcError::InvalidRequest(format!(
                "container scheme {scheme_id:?} is not registered in this registry"
            ))
        }),
        None => Err(ArcError::InvalidRequest(format!(
            "container uses extension scheme {scheme_id:?}; supply an ExtensionRegistry \
             (decode_with_registry, ArcReader::open_with_registry)"
        ))),
    }
}

/// Encode `data` with the registered scheme `name`, producing a standard
/// ARC container tagged `x:<name>`.
///
/// `threads` accepts `arc_ecc::parallel::ANY_THREADS` (0) for "all
/// available cores". A wrapper over the v1 writer
/// ([`container::encode_mono`]): the whole container is allocated once and
/// the scheme's `encode_parity_into` scatter-writes its parity in place.
pub fn encode_with_scheme(
    data: &[u8],
    registry: &ExtensionRegistry,
    name: &str,
    threads: usize,
) -> Result<Vec<u8>, ArcError> {
    let (scheme_id, scheme) = registry.named_scheme(name)?;
    let codec = ParallelCodec::new(scheme, threads)?;
    container::encode_mono(data, &codec, &scheme_id)
}

/// Encode `data` with the registered scheme `name` into a v2 **sharded**
/// container tagged `x:<name>` — the random-access layout that
/// [`crate::reader::ArcReader`] serves `decode_range` from. A wrapper over
/// the v2 writer: one push through a [`crate::stream::StreamEncoder`] into
/// an exactly-sized `Vec`.
pub fn encode_sharded_with_scheme(
    data: &[u8],
    registry: &ExtensionRegistry,
    name: &str,
    threads: usize,
    shard_size: usize,
) -> Result<Vec<u8>, ArcError> {
    let scheme = registry.named_scheme(name)?;
    stream::encode_oneshot(data, scheme, threads, shard_size)
}

/// Decode any ARC container, resolving extension ids against `registry`
/// (built-in ids decode as usual) — the same decode body as
/// [`crate::engine::arc_engine_decode`], with a registry to look in.
// arc-lint: decode-root
pub fn decode_with_registry(
    bytes: &[u8],
    threads: usize,
    registry: &ExtensionRegistry,
) -> Result<(Vec<u8>, ArcDecodeReport), ArcError> {
    decode_container(bytes, threads, Some(registry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arc_ecc::Replication;

    fn registry() -> ExtensionRegistry {
        let mut r = ExtensionRegistry::new();
        r.register("tmr", Arc::new(Replication::tmr())).unwrap();
        r.register("mirror", Arc::new(Replication::new(2).unwrap())).unwrap();
        r
    }

    #[test]
    fn register_validates_names() {
        let mut r = ExtensionRegistry::new();
        assert!(r.register("", Arc::new(Replication::tmr())).is_err());
        assert!(r.register("has:colon", Arc::new(Replication::tmr())).is_err());
        assert!(r.register("white space", Arc::new(Replication::tmr())).is_err());
        assert!(r.register("ok-name_1", Arc::new(Replication::tmr())).is_ok());
        assert!(r.register("ok-name_1", Arc::new(Replication::tmr())).is_err(), "duplicate");
        assert_eq!(r.ids(), vec!["ok-name_1".to_string()]);
    }

    #[test]
    fn custom_scheme_round_trips_through_container() {
        let r = registry();
        let data: Vec<u8> = (0..50_000).map(|i| (i % 251) as u8).collect();
        let enc = encode_with_scheme(&data, &r, "tmr", 2).unwrap();
        // TMR triples the storage (plus container framing).
        assert!(enc.len() > data.len() * 3 - 64);
        let (out, report) = decode_with_registry(&enc, 2, &r).unwrap();
        assert_eq!(out, data);
        assert_eq!(report.scheme_id, "x:tmr");
        assert_eq!(report.config, None);
    }

    #[test]
    fn custom_scheme_corrects_a_burst() {
        let r = registry();
        let data: Vec<u8> = (0..30_000).map(|i| (i % 13) as u8).collect();
        let mut enc = encode_with_scheme(&data, &r, "tmr", 1).unwrap();
        let start = enc.len() / 2;
        for b in &mut enc[start..start + 4_000] {
            *b ^= 0xFF;
        }
        let (out, report) = decode_with_registry(&enc, 1, &r).unwrap();
        assert_eq!(out, data);
        assert!(!report.correction.is_clean());
    }

    #[test]
    fn standard_extensions_ship_the_advertised_families() {
        let r = standard_extensions().unwrap();
        assert_eq!(r.ids(), vec!["bch", "ileave-rs"]);
    }

    #[test]
    fn sharded_extension_corrects_a_burst() {
        let r = standard_extensions().unwrap();
        let data: Vec<u8> = (0..150_000).map(|i| (i % 241) as u8).collect();
        let mut enc = encode_sharded_with_scheme(&data, &r, "ileave-rs", 2, 64 * 1024).unwrap();
        // A 200-byte burst in the middle of the payload: well beyond bare
        // RS(223|32)'s 16-per-codeword budget, absorbed by 64-lane
        // interleaving.
        let start = enc.len() / 3;
        for b in &mut enc[start..start + 200] {
            *b ^= 0xFF;
        }
        let (out, report) = decode_with_registry(&enc, 2, &r).unwrap();
        assert_eq!(out, data);
        assert!(!report.correction.is_clean());
    }

    #[test]
    fn two_copy_mirror_detects_but_cannot_fix_double_damage() {
        let r = registry();
        let data = vec![0x42u8; 8_192];
        let mut enc = encode_with_scheme(&data, &r, "mirror", 1).unwrap();
        // Damage both the primary and the replica region of the payload.
        let payload_start = 200; // past the protected header
        enc[payload_start] ^= 0x01;
        enc[payload_start + data.len() + 64] ^= 0x01;
        assert!(decode_with_registry(&enc, 1, &r).is_err());
    }
}
