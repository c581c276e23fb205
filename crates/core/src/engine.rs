//! The ARC Engine (§5.2, Table 1): direct access to each ECC method, for
//! users who want to choose configurations themselves and for developers
//! integrating ARC into a compression pipeline.
//!
//! Every encode function returns a self-describing container, so the
//! matching decode function needs nothing but the bytes (and a thread
//! budget). The decode functions verify the container was produced by the
//! method they are named after — calling `arc_hamming_decode` on
//! Reed-Solomon data is a programming error worth catching loudly.

use arc_ecc::{EccConfig, EccMethod, ParallelCodec};

use crate::container;
use crate::error::ArcError;
use crate::extension::builtin_scheme;
use crate::interface::{decode_container, ArcDecodeReport};
use crate::stream;

/// Encode with an explicit configuration (the general engine entry point).
///
/// `threads` accepts [`arc_ecc::parallel::ANY_THREADS`] (0) for "all
/// available cores". A wrapper over the v1 writer
/// ([`container::encode_mono`]), which allocates the whole container —
/// header prefix plus encoded payload — once and scatter-writes both
/// regions in place.
pub fn arc_engine_encode(
    data: &[u8],
    config: EccConfig,
    threads: usize,
) -> Result<Vec<u8>, ArcError> {
    let (scheme_id, scheme) = builtin_scheme(config);
    let codec = ParallelCodec::new(scheme, threads)?;
    container::encode_mono(data, &codec, &scheme_id)
}

/// Decode any container a built-in scheme protects, v1 or v2. The container
/// is self-describing, so decoding needs no trained context — only a thread
/// budget; [`arc_ecc::parallel::ANY_THREADS`] uses every core.
/// Extension-tagged containers need
/// [`crate::extension::decode_with_registry`].
pub fn arc_engine_decode(
    bytes: &[u8],
    threads: usize,
) -> Result<(Vec<u8>, ArcDecodeReport), ArcError> {
    decode_container(bytes, threads, None)
}

/// Encode into a v2 **sharded** container: each `shard_size`-byte slice of
/// `data` is independently ECC'd and independently decodable, enabling
/// [`crate::reader::ArcReader`] to serve a byte range at per-shard cost.
/// `arc_encode` writes this container at 4 MiB shards, the Table 1
/// functions monolithic v1; both decode through the same entry points.
///
/// A wrapper over the v2 writer: [`crate::stream::StreamEncoder`] into an
/// exactly-sized `Vec`, each shard group one chunk pass on `threads`.
pub fn arc_engine_encode_sharded(
    data: &[u8],
    config: EccConfig,
    threads: usize,
    shard_size: usize,
) -> Result<Vec<u8>, ArcError> {
    Ok(stream::encode_oneshot(data, builtin_scheme(config), threads, shard_size)?.0)
}

fn decode_expecting(
    bytes: &[u8],
    threads: usize,
    method: EccMethod,
) -> Result<(Vec<u8>, ArcDecodeReport), ArcError> {
    let (data, report) = arc_engine_decode(bytes, threads)?;
    let Some(config) = report.config else {
        return Err(ArcError::InvalidRequest(
            "decode resolved no ECC configuration for this container".into(),
        ));
    };
    if config.method() != method {
        return Err(ArcError::InvalidRequest(format!(
            "container was encoded with {config}, not {}",
            method.name()
        )));
    }
    Ok((data, report))
}

/// `arc_parity_encode()`: single-bit even parity over
/// `bytes_per_parity_bit`-byte blocks.
pub fn arc_parity_encode(
    data: &[u8],
    bytes_per_parity_bit: usize,
    threads: usize,
) -> Result<Vec<u8>, ArcError> {
    arc_engine_encode(data, EccConfig::parity(bytes_per_parity_bit)?, threads)
}

/// `arc_parity_decode()`.
pub fn arc_parity_decode(
    bytes: &[u8],
    threads: usize,
) -> Result<(Vec<u8>, ArcDecodeReport), ArcError> {
    decode_expecting(bytes, threads, EccMethod::Parity)
}

/// `arc_hamming_encode()`: Hamming SEC over one-byte (`wide = false`) or
/// eight-byte (`wide = true`) blocks.
pub fn arc_hamming_encode(data: &[u8], wide: bool, threads: usize) -> Result<Vec<u8>, ArcError> {
    arc_engine_encode(data, EccConfig::hamming(wide), threads)
}

/// `arc_hamming_decode()`.
pub fn arc_hamming_decode(
    bytes: &[u8],
    threads: usize,
) -> Result<(Vec<u8>, ArcDecodeReport), ArcError> {
    decode_expecting(bytes, threads, EccMethod::Hamming)
}

/// `arc_secded_encode()`: SEC-DED over one- or eight-byte blocks.
pub fn arc_secded_encode(data: &[u8], wide: bool, threads: usize) -> Result<Vec<u8>, ArcError> {
    arc_engine_encode(data, EccConfig::secded(wide), threads)
}

/// `arc_secded_decode()`.
pub fn arc_secded_decode(
    bytes: &[u8],
    threads: usize,
) -> Result<(Vec<u8>, ArcDecodeReport), ArcError> {
    decode_expecting(bytes, threads, EccMethod::SecDed)
}

/// `arc_reed_solomon_encode()`: `k` data devices, `m` code devices.
pub fn arc_reed_solomon_encode(
    data: &[u8],
    k: usize,
    m: usize,
    threads: usize,
) -> Result<Vec<u8>, ArcError> {
    arc_engine_encode(data, EccConfig::rs(k, m)?, threads)
}

/// `arc_reed_solomon_decode()`.
pub fn arc_reed_solomon_decode(
    bytes: &[u8],
    threads: usize,
) -> Result<(Vec<u8>, ArcDecodeReport), ArcError> {
    decode_expecting(bytes, threads, EccMethod::Rs)
}

/// The ARC Engine function table (Table 1 of the paper), for documentation
/// and the `tab01` harness.
pub const ENGINE_FUNCTIONS: [&str; 11] = [
    "arc_memory_optimizer()",
    "arc_throughput_optimizer()",
    "arc_joint_optimizer()",
    "arc_parity_encode()",
    "arc_parity_decode()",
    "arc_hamming_encode()",
    "arc_hamming_decode()",
    "arc_secded_encode()",
    "arc_secded_decode()",
    "arc_reed_solomon_encode()",
    "arc_reed_solomon_decode()",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 37) ^ (i >> 5)) as u8).collect()
    }

    #[test]
    fn every_engine_pair_round_trips() {
        let data = payload(30_000);
        let enc = arc_parity_encode(&data, 8, 2).unwrap();
        assert_eq!(arc_parity_decode(&enc, 2).unwrap().0, data);
        let enc = arc_hamming_encode(&data, true, 2).unwrap();
        assert_eq!(arc_hamming_decode(&enc, 2).unwrap().0, data);
        let enc = arc_secded_encode(&data, false, 2).unwrap();
        assert_eq!(arc_secded_decode(&enc, 2).unwrap().0, data);
        let enc = arc_reed_solomon_encode(&data, 16, 4, 2).unwrap();
        assert_eq!(arc_reed_solomon_decode(&enc, 2).unwrap().0, data);
    }

    #[test]
    fn mismatched_decode_function_is_rejected() {
        let data = payload(1_000);
        let enc = arc_secded_encode(&data, true, 1).unwrap();
        assert!(matches!(arc_hamming_decode(&enc, 1), Err(ArcError::InvalidRequest(_))));
        // The generic decode still works.
        assert_eq!(arc_engine_decode(&enc, 1).unwrap().0, data);
    }

    #[test]
    fn rs_corrects_burst_through_engine() {
        let data = payload(64_000);
        let mut enc = arc_reed_solomon_encode(&data, 16, 6, 2).unwrap();
        // Burst across ~2 devices inside the payload region.
        let start = enc.len() / 2;
        for b in &mut enc[start..start + 6_000] {
            *b = 0xDD;
        }
        let (out, report) = arc_reed_solomon_decode(&enc, 2).unwrap();
        assert_eq!(out, data);
        assert!(report.correction.corrected_devices >= 1);
    }

    #[test]
    fn secded_corrects_scattered_single_bit_errors() {
        let data = payload(64_000);
        let mut enc = arc_secded_encode(&data, true, 2).unwrap();
        for (i, bit) in [(1000usize, 3u8), (20_000, 6), (50_000, 0)] {
            enc[i] ^= 1 << bit;
        }
        let (out, report) = arc_secded_decode(&enc, 2).unwrap();
        assert_eq!(out, data);
        assert!(report.correction.corrected_bits >= 3);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(arc_parity_encode(&[1, 2, 3], 0, 1).is_err());
        assert!(arc_reed_solomon_encode(&[1, 2, 3], 200, 100, 1).is_err());
        assert!(matches!(
            arc_engine_encode_sharded(&[1, 2, 3], EccConfig::secded(true), 1, 0),
            Err(ArcError::InvalidRequest(_))
        ));
    }

    #[test]
    fn table_1_is_complete() {
        assert_eq!(ENGINE_FUNCTIONS.len(), 11);
        assert!(ENGINE_FUNCTIONS.iter().all(|f| f.ends_with("()")));
    }
}
