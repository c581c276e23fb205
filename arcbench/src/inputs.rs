//! Everything a workload is given: sizes, the seeded generator, set-up
//! (fields, trained context, payload), the ECC schemes under test and
//! correctable fault placement. All of it is a function of `--seed`.

use std::sync::Arc;
use std::time::Instant;

use arc_core::{
    ArcContext, ArcOptions, EncodeRequest, ExtensionRegistry, MemoryConstraint,
    ResiliencyConstraint, StreamEncoder, StreamOptions, ThroughputConstraint, TrainingOptions,
};
use arc_datasets::{Field, SdrDataset};
use arc_ecc::{EccConfig, EccScheme, ParallelCodec};
use arc_pressio::{CompressorSpec, Dataset};

pub const KIB: usize = 1024;
pub const MIB: usize = 1024 * 1024;

/// SplitMix64: the benchmark's own generator, so the op mix depends on the
/// seed alone and not on the repository's stand-in `rand`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; the modulo bias is below 2⁻⁴⁰ at these sizes.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Input sizes. `smoke` runs the same code on test-size inputs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    pub fn dims(&self, ds: SdrDataset) -> Vec<usize> {
        if self.smoke {
            return ds.test_dims();
        }
        match ds {
            SdrDataset::CesmCldlow => vec![900, 1800],
            SdrDataset::IsabelPressure => vec![50, 250, 250],
            SdrDataset::NyxTemperature => vec![128, 128, 128],
        }
    }

    /// Payload of the `ecc_bulk` built-in cells and of the `tile_serve`
    /// container: four times the 16 MiB cache, and beyond any CPU cache.
    pub fn bulk_bytes(&self) -> usize {
        if self.smoke {
            4 * MIB
        } else {
            64 * MIB
        }
    }

    /// Payload of an `ecc_bulk` cell. The two registry schemes run at
    /// 6 to 50 MiB/s, so they get less.
    pub fn cell_bytes(&self, cell: &str) -> usize {
        let full = self.bulk_bytes();
        match cell {
            "ileave_rs" => full / 16,
            "bch" => full / 4,
            _ => full,
        }
    }

    pub fn tile_cache_bytes(&self) -> usize {
        self.bulk_bytes() / 4
    }

    pub fn tile_hot_bytes(&self) -> usize {
        self.bulk_bytes() * 3 / 16
    }

    /// Ops in one `tile_serve` round.
    pub fn tile_round_ops(&self) -> usize {
        if self.smoke {
            500
        } else {
            2000
        }
    }
}

/// The ECC request of the checkpoint workloads. With no throughput floor
/// the optimizer resolves by overhead, not by noisy training throughput.
pub fn checkpoint_request() -> EncodeRequest {
    EncodeRequest {
        memory: MemoryConstraint::Fraction(0.15),
        throughput: ThroughputConstraint::Any,
        resiliency: ResiliencyConstraint::ErrorsPerMb(1.0),
    }
}

/// `arc_init()` with no cache, so training is paid and timed every time.
/// The smoke scale trains the same configuration space on small probes.
pub fn init_context(scale: Scale) -> Result<(ArcContext, f64), String> {
    let t0 = Instant::now();
    let mut training = TrainingOptions::default();
    if scale.smoke {
        training.sample_bytes /= 16;
        training.rs_sample_bytes /= 16;
    }
    let ctx = ArcContext::init(ArcOptions {
        max_threads: 1,
        cache_path: None,
        training,
        ..Default::default()
    })
    .map_err(|e| format!("ArcContext::init: {e}"))?;
    Ok((ctx, t0.elapsed().as_secs_f64()))
}

pub fn generate(ds: SdrDataset, scale: Scale, seed: u64) -> (Field, f64) {
    let t0 = Instant::now();
    let field = ds.generate(&scale.dims(ds), seed);
    (field, t0.elapsed().as_secs_f64())
}

/// A payload of `len` bytes tiled from real compressed streams of the
/// seeded CESM field (SZ-PWREL and ZFP-Rate), as ECC sees them in the
/// checkpoint workloads.
pub fn tiled_payload(field: &Field, len: usize) -> Result<Vec<u8>, String> {
    let mut unit = Vec::new();
    for spec in [CompressorSpec::SzPwRel(0.1), CompressorSpec::ZfpRate(8.0)] {
        let stream = spec
            .build()
            .compress(&Dataset { data: &field.data, dims: &field.dims })
            .map_err(|e| format!("{} on {}: {e}", spec.name(), field.name))?;
        unit.extend_from_slice(&stream);
    }
    if unit.is_empty() {
        return Err("compressed streams are empty".into());
    }
    let mut payload = Vec::with_capacity(len);
    while payload.len() < len {
        payload.extend_from_slice(&unit[..unit.len().min(len - payload.len())]);
    }
    Ok(payload)
}

/// An ECC scheme under test, through one of the two dispatch paths.
#[derive(Clone)]
pub enum Scheme {
    /// `EccConfig` path: `StreamEncoder::new` / `arc_engine_decode`.
    Builtin(EccConfig),
    /// Registry path: `with_registry_scheme` / `decode_with_registry`.
    Registry(Arc<ExtensionRegistry>, &'static str),
}

impl Scheme {
    pub fn of_cell(cell: &str, registry: &Arc<ExtensionRegistry>) -> Result<Scheme, String> {
        let builtin = |c: Result<EccConfig, arc_ecc::EccError>| {
            c.map(Scheme::Builtin).map_err(|e| e.to_string())
        };
        match cell {
            "parity8" => builtin(EccConfig::parity(8)),
            "secded64" => Ok(Scheme::Builtin(EccConfig::secded(true))),
            "rs223_32" => builtin(EccConfig::rs(223, 32)),
            "ileave_rs" => Ok(Scheme::Registry(Arc::clone(registry), "ileave-rs")),
            "bch" => Ok(Scheme::Registry(Arc::clone(registry), "bch")),
            other => Err(format!("unknown ecc cell {other}")),
        }
    }

    pub fn id(&self) -> String {
        match self {
            Scheme::Builtin(c) => c.id(),
            Scheme::Registry(_, name) => format!("{}{name}", arc_core::CUSTOM_PREFIX),
        }
    }

    /// Parity cannot repair, so it sits out every faulty decode.
    pub fn corrects(&self) -> bool {
        !matches!(self, Scheme::Builtin(EccConfig::Parity(_)))
    }

    /// The writer every workload uses: streaming v2 encode into a `Vec`,
    /// one thread, the whole payload in one push.
    pub fn stream_encode(&self, data: &[u8], shard_size: usize) -> Result<Vec<u8>, String> {
        let opts = StreamOptions { threads: 1, shard_size, ..Default::default() };
        let mut enc = match self {
            Scheme::Builtin(c) => StreamEncoder::new(Vec::new(), *c, opts),
            Scheme::Registry(r, name) => {
                StreamEncoder::with_registry_scheme(Vec::new(), r, name, opts)
            }
        }
        .map_err(|e| format!("stream encoder for {}: {e}", self.id()))?;
        enc.push(data).map_err(|e| format!("stream push: {e}"))?;
        let (sink, stats) = enc.finish().map_err(|e| format!("stream finish: {e}"))?;
        if sink.len() != stats.container_len {
            return Err(format!(
                "sink holds {} bytes, stats say {}",
                sink.len(),
                stats.container_len
            ));
        }
        Ok(sink)
    }

    /// The second writer, `arc_engine_encode_sharded` or its registry twin.
    pub fn oneshot_encode(&self, data: &[u8], shard_size: usize) -> Result<Vec<u8>, String> {
        match self {
            Scheme::Builtin(c) => arc_core::arc_engine_encode_sharded(data, *c, 1, shard_size),
            Scheme::Registry(r, name) => {
                arc_core::encode_sharded_with_scheme(data, r, name, 1, shard_size)
            }
        }
        .map_err(|e| format!("one-shot encode with {}: {e}", self.id()))
    }

    pub fn decode(&self, container: &[u8]) -> Result<(Vec<u8>, arc_core::ArcDecodeReport), String> {
        match self {
            Scheme::Builtin(_) => arc_core::arc_engine_decode(container, 1),
            Scheme::Registry(r, _) => arc_core::decode_with_registry(container, 1, r),
        }
        .map_err(|e| format!("decode of {} container: {e}", self.id()))
    }

    /// The bare chunk codec, with no container around it.
    pub fn codec(
        &self,
        threads: usize,
        chunk_size: usize,
    ) -> Result<ParallelCodec<Arc<dyn EccScheme>>, String> {
        let scheme: Arc<dyn EccScheme> = match self {
            Scheme::Builtin(c) => Arc::new(*c),
            Scheme::Registry(r, name) => r.get(name).ok_or(format!("{name} is not registered"))?,
        };
        ParallelCodec::with_chunk_size(scheme, threads, chunk_size).map_err(|e| e.to_string())
    }
}

pub fn standard_registry() -> Result<Arc<ExtensionRegistry>, String> {
    arc_core::standard_extensions().map(Arc::new).map_err(|e| format!("standard_extensions: {e}"))
}

/// Flips per MiB of protected data in every faulty decode.
pub const FLIPS_PER_MIB: usize = 16;

/// Bit positions of correctable soft errors in `region`, which holds the
/// data bytes of one shard or chunk: [`FLIPS_PER_MIB`] per MiB, at most one
/// per 1 KiB window. One flip per window is within the reach of every
/// correcting scheme here: SEC-DED sees at most one per 8-byte block,
/// BCH(t=2) at most two per 1000-byte block, both Reed-Solomon codes at
/// most 16 damaged symbols or devices per MiB.
pub fn correctable_flips(region: std::ops::Range<usize>, seed: u64) -> Vec<u64> {
    let windows = (region.len() / KIB) as u64;
    let count = (region.len() * FLIPS_PER_MIB).div_ceil(MIB).min(windows as usize);
    let mut rng = Rng::new(seed ^ region.start as u64);
    arc_faultsim::sample_bits(windows, count, seed ^ region.start as u64)
        .into_iter()
        .map(|w| (region.start as u64 + w * KIB as u64) * 8 + rng.below(8 * KIB as u64))
        .collect()
}

/// Correctable flips for every shard of a v2 container, placed in the data
/// bytes of each shard's `data ‖ parity` region.
pub fn container_flips(container: &[u8], seed: u64) -> Result<Vec<u64>, String> {
    let unpacked = arc_core::container::unpack(container).map_err(|e| format!("unpack: {e}"))?;
    let index = unpacked.index.ok_or("not a sharded container")?;
    let mut bits = Vec::new();
    for e in &index.entries {
        let start = unpacked.payload_offset + e.offset;
        bits.extend(correctable_flips(start..start + e.decoded_len, seed));
    }
    Ok(bits)
}

/// Flip (or, applied twice, restore) the given bits.
pub fn flip(buf: &mut [u8], bits: &[u64]) {
    for &b in bits {
        arc_faultsim::flip_bit(buf, b);
    }
}

/// Header and index sizes of a v2 container.
pub fn container_layout(container: &[u8]) -> Result<(usize, usize), String> {
    let unpacked = arc_core::container::unpack(container).map_err(|e| format!("unpack: {e}"))?;
    let sharding = unpacked.meta.sharding.ok_or("not a sharded container")?;
    Ok((unpacked.payload_offset, 3 * sharding.index_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_for_a_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(0x5EED), draw(0x5EED));
        assert_ne!(draw(0x5EED), draw(7));
        assert!(draw(1).iter().all(|&v| v < 1000));
    }

    #[test]
    fn flips_keep_one_per_window_and_inside_the_region() {
        let region = 4096..4096 + MIB;
        let bits = correctable_flips(region.clone(), 9);
        assert_eq!(bits.len(), FLIPS_PER_MIB);
        let mut windows: Vec<u64> = bits.iter().map(|b| (b / 8 - 4096) / KIB as u64).collect();
        windows.dedup();
        assert_eq!(windows.len(), FLIPS_PER_MIB, "one flip per 1 KiB window");
        assert!(bits.iter().all(|b| region.contains(&((b / 8) as usize))));
        assert_eq!(bits, correctable_flips(region, 9));
        // A region smaller than a window takes no flips.
        assert!(correctable_flips(0..100, 9).is_empty());
        let mut buf = vec![0u8; 8];
        flip(&mut buf, &[3, 9]);
        assert_eq!(buf[..2], [8, 2]);
        flip(&mut buf, &[3, 9]);
        assert_eq!(buf, vec![0u8; 8]);
    }
}
