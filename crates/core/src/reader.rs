//! Random-access reads over ARC containers: [`ArcReader`] borrows a
//! container and serves `decode_range(offset, len)` requests by touching
//! only the shards that cover the range.
//!
//! Every shard a read touches is copied out of the borrowed container,
//! ECC-verified/corrected by the same [`arc_ecc::ParallelCodec`] machinery the full
//! decode uses, and checked against its per-shard CRC-32 before a single
//! byte is returned — a range read gives the same end-to-end guarantee as
//! a full `arc_decode()`, just scoped to the shards it needed. Decoded
//! shards are kept in a bounded **LRU cache** (capacity in bytes), so a
//! tile-server access pattern — many small reads with locality — pays the
//! ECC cost once per shard, not once per read.
//!
//! Monolithic v1 containers open too: their payload is the one-shard case
//! of the same walk (`container::Shards`), so the first read performs the
//! one full decode and later reads hit the cache.

use std::collections::HashMap;

use arc_ecc::codec::CorrectionReport;

use crate::container::{ContainerMeta, ShardEntry, Shards};
use crate::error::ArcError;
use crate::extension::ExtensionRegistry;

/// Default shard-cache capacity (64 MiB of decoded shards).
pub(crate) const DEFAULT_CACHE_CAPACITY: usize = 64 << 20;

/// Counters for the reader's decoded-shard cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Range-read shard lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to decode the shard.
    pub misses: u64,
    /// Decoded shards evicted to stay under the byte capacity.
    pub evictions: u64,
    /// Decoded bytes currently resident.
    pub resident_bytes: usize,
    /// Configured capacity in bytes.
    pub capacity: usize,
}

/// What one [`ArcReader::decode_range`] call did.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RangeReport {
    /// Shards overlapping the requested range.
    pub shards_touched: usize,
    /// Of those, how many were served from the cache.
    pub cache_hits: usize,
    /// Encoded payload bytes actually run through the ECC decoder by this
    /// call (0 when every shard was cached). The partial-read win is this
    /// number staying far below the container's payload length.
    pub encoded_bytes_decoded: usize,
    /// Repairs performed while decoding the touched shards.
    pub correction: CorrectionReport,
}

/// Bounded byte-capacity LRU of decoded shards.
///
/// Recency is a monotonic tick stamped on every hit/insert; eviction scans
/// for the minimum tick. The scan is O(resident shards), which is small by
/// construction (capacity / shard size), so no intrusive list is needed.
#[derive(Debug)]
struct ShardCache {
    capacity: usize,
    resident: usize,
    tick: u64,
    slots: HashMap<usize, (u64, Vec<u8>)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ShardCache {
    fn new(capacity: usize) -> ShardCache {
        ShardCache {
            capacity,
            resident: 0,
            tick: 0,
            slots: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// If `shard` is resident, refresh its recency, append `lo..hi` of its
    /// decoded bytes to `out`, and return true. Counts the hit/miss.
    fn copy_range(&mut self, shard: usize, lo: usize, hi: usize, out: &mut Vec<u8>) -> bool {
        self.tick += 1;
        match self.slots.get_mut(&shard) {
            Some((tick, data)) => {
                *tick = self.tick;
                out.extend_from_slice(data.get(lo..hi).unwrap_or_default());
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Insert a decoded shard, evicting least-recently-used shards until
    /// the byte budget holds. A shard larger than the whole capacity is
    /// not cached at all (the caller has already used its bytes).
    fn insert(&mut self, shard: usize, mut data: Vec<u8>) {
        if data.len() > self.capacity {
            return;
        }
        // The budget counts lengths, and a decoded shard still owns the
        // capacity of the parity region it was repaired beside.
        data.shrink_to_fit();
        self.tick += 1;
        self.resident += data.len();
        if let Some((_, old)) = self.slots.insert(shard, (self.tick, data)) {
            self.resident -= old.len();
        }
        while self.resident > self.capacity {
            let victim = self
                .slots
                .iter()
                .filter(|(k, _)| **k != shard)
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some((_, evicted)) = self.slots.remove(&victim) {
                self.resident -= evicted.len();
                self.evictions += 1;
            }
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            resident_bytes: self.resident,
            capacity: self.capacity,
        }
    }
}

/// A random-access handle over one ARC container.
///
/// Borrows the container bytes; decoding is per-shard and lazy. Repeat
/// reads are served from the LRU shard cache. The reader is `&mut self`
/// because reads mutate the cache — clone the underlying bytes into
/// multiple readers for concurrent access.
pub struct ArcReader<'a> {
    /// The container's payload region, which shard offsets count from.
    payload: &'a [u8],
    shards: Shards,
    /// Decoded offset at which each shard starts.
    starts: Vec<usize>,
    cache: ShardCache,
}

impl std::fmt::Debug for ArcReader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArcReader")
            .field("scheme_id", &self.shards.meta.scheme_id)
            .field("data_len", &self.shards.meta.data_len)
            .field("shards", &self.shards.entries.len())
            .finish()
    }
}

impl<'a> ArcReader<'a> {
    /// Open a container for random access with the default cache capacity
    /// (64 MiB of decoded shards). `threads` accepts
    /// [`arc_ecc::parallel::ANY_THREADS`] (0) for "all available cores";
    /// parallelism applies within each decoded shard's chunks.
    pub fn open(bytes: &'a [u8], threads: usize) -> Result<ArcReader<'a>, ArcError> {
        Self::with_cache_capacity(bytes, threads, DEFAULT_CACHE_CAPACITY)
    }

    /// As [`ArcReader::open`], additionally resolving extension scheme ids
    /// (`x:<name>`) against `registry`, so v2 containers produced by
    /// [`crate::extension::encode_sharded_with_scheme`] (or a
    /// registry-backed [`crate::stream::StreamEncoder`]) serve
    /// `decode_range` exactly like built-ins.
    pub fn open_with_registry(
        bytes: &'a [u8],
        threads: usize,
        registry: &ExtensionRegistry,
    ) -> Result<ArcReader<'a>, ArcError> {
        Self::build(bytes, threads, DEFAULT_CACHE_CAPACITY, Some(registry))
    }

    /// As [`ArcReader::open`] with an explicit decoded-shard cache
    /// capacity in bytes (0 disables caching).
    pub fn with_cache_capacity(
        bytes: &'a [u8],
        threads: usize,
        capacity: usize,
    ) -> Result<ArcReader<'a>, ArcError> {
        Self::build(bytes, threads, capacity, None)
    }

    fn build(
        bytes: &'a [u8],
        threads: usize,
        capacity: usize,
        registry: Option<&ExtensionRegistry>,
    ) -> Result<ArcReader<'a>, ArcError> {
        let (shards, payload) = Shards::open(bytes, threads, registry)?;
        // Range reads check shards one at a time against the index; the
        // header's data CRC is held to the same index here, from the index
        // CRCs alone, so a reader refuses what the whole decoders refuse.
        shards.check_whole()?;
        let mut starts = Vec::with_capacity(shards.entries.len());
        let mut pos = 0usize;
        for e in &shards.entries {
            starts.push(pos);
            pos += e.decoded_len;
        }
        Ok(ArcReader { payload, shards, starts, cache: ShardCache::new(capacity) })
    }

    /// The container's parsed header.
    pub fn meta(&self) -> &ContainerMeta {
        &self.shards.meta
    }

    /// Original data length in bytes.
    pub fn data_len(&self) -> usize {
        self.shards.meta.data_len
    }

    /// Number of independently decodable shards (1 for v1 containers).
    pub fn shard_count(&self) -> usize {
        self.shards.entries.len()
    }

    /// Cache counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Decode exactly `offset..offset + len` of the original data.
    ///
    /// Touches only the shards covering the range; each is served from the
    /// LRU cache or ECC-decoded + CRC-verified on the spot. The empty
    /// range is valid anywhere in `0..=data_len`.
    pub fn decode_range(
        &mut self,
        offset: usize,
        len: usize,
    ) -> Result<(Vec<u8>, RangeReport), ArcError> {
        let end = offset
            .checked_add(len)
            .ok_or_else(|| ArcError::InvalidRequest("range end overflows".into()))?;
        if end > self.data_len() {
            return Err(ArcError::InvalidRequest(format!(
                "range {offset}..{end} exceeds data length {}",
                self.data_len()
            )));
        }
        // Bounded: len is the caller's request, validated against the container extent above.
        let mut out = Vec::with_capacity(len);
        let mut report = RangeReport::default();
        if len == 0 {
            return Ok((out, report));
        }
        // First covering shard: the last one starting at or before offset.
        let first = self.starts.partition_point(|s| *s <= offset).saturating_sub(1);
        let shards = self.shards.entries.iter().zip(&self.starts).enumerate().skip(first);
        for (i, (e, &start)) in shards {
            if out.len() >= len {
                break;
            }
            // Overlap of [offset, end) with this shard, in shard-local bytes.
            let lo = offset.max(start) - start;
            let hi = end.min(start + e.decoded_len) - start;
            report.shards_touched += 1;
            if self.cache.copy_range(i, lo, hi, &mut out) {
                report.cache_hits += 1;
            } else {
                let (decoded, correction) = self.decode_shard(i, e)?;
                let bytes = decoded.get(lo..hi);
                let short = || ArcError::Corrupted(format!("shard {i} decoded short"));
                out.extend_from_slice(bytes.ok_or_else(short)?);
                report.encoded_bytes_decoded += e.encoded_len;
                report.correction.merge(&correction);
                self.cache.insert(i, decoded);
            }
        }
        Ok((out, report))
    }

    /// Copy shard `i` out of the borrowed container into a fresh buffer and
    /// run the one shard step on it: geometry, repair, CRC.
    fn decode_shard(
        &self,
        i: usize,
        e: &ShardEntry,
    ) -> Result<(Vec<u8>, CorrectionReport), ArcError> {
        let mut buf = Shards::stored(self.payload, i, e)?.to_vec();
        let correction = self.shards.decode_shard(i, e.decoded_len, e.crc, &mut buf)?;
        buf.truncate(e.decoded_len);
        Ok((buf, correction))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::unpack;
    use crate::engine::{arc_engine_encode, arc_engine_encode_sharded};
    use arc_ecc::EccConfig;

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 131) ^ (i >> 3)) as u8).collect()
    }

    fn v2(data: &[u8], shard_size: usize) -> Vec<u8> {
        arc_engine_encode_sharded(data, EccConfig::secded(true), 1, shard_size).unwrap()
    }

    #[test]
    fn range_matches_full_decode_slice() {
        let data = sample(100_000);
        let enc = v2(&data, 16 << 10);
        let mut reader = ArcReader::open(&enc, 1).unwrap();
        for (off, len) in
            [(0usize, 100usize), (16 << 10, 1), (50_000, 33_000), (99_999, 1), (0, 100_000)]
        {
            let (out, _) = reader.decode_range(off, len).unwrap();
            assert_eq!(out, &data[off..off + len], "{off}+{len}");
        }
    }

    #[test]
    fn cache_serves_repeat_reads() {
        let data = sample(64 << 10);
        let enc = v2(&data, 8 << 10);
        let mut reader = ArcReader::open(&enc, 1).unwrap();
        let (_, first) = reader.decode_range(0, 10_000).unwrap();
        assert_eq!(first.cache_hits, 0);
        assert!(first.encoded_bytes_decoded > 0);
        let (_, second) = reader.decode_range(0, 10_000).unwrap();
        assert_eq!(second.cache_hits, second.shards_touched);
        assert_eq!(second.encoded_bytes_decoded, 0);
        let stats = reader.cache_stats();
        assert!(stats.hits >= 2 && stats.misses >= 1);
    }

    #[test]
    fn tiny_cache_evicts_lru() {
        let data = sample(64 << 10);
        let enc = v2(&data, 8 << 10);
        // Room for exactly one decoded 8 KiB shard.
        let mut reader = ArcReader::with_cache_capacity(&enc, 1, 8 << 10).unwrap();
        reader.decode_range(0, 100).unwrap(); // shard 0 resident
        reader.decode_range(8 << 10, 100).unwrap(); // shard 1 evicts shard 0
        let (_, third) = reader.decode_range(0, 100).unwrap(); // shard 0 again: miss
        assert_eq!(third.cache_hits, 0);
        assert!(reader.cache_stats().evictions >= 1);
        assert!(reader.cache_stats().resident_bytes <= 8 << 10);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let data = sample(16 << 10);
        let enc = v2(&data, 4 << 10);
        let mut reader = ArcReader::with_cache_capacity(&enc, 1, 0).unwrap();
        reader.decode_range(0, 100).unwrap();
        let (_, second) = reader.decode_range(0, 100).unwrap();
        assert_eq!(second.cache_hits, 0);
        assert_eq!(reader.cache_stats().resident_bytes, 0);
    }

    #[test]
    fn v1_container_reads_as_single_shard() {
        let data = sample(30_000);
        let enc = arc_engine_encode(&data, EccConfig::secded(true), 1).unwrap();
        let mut reader = ArcReader::open(&enc, 1).unwrap();
        assert_eq!(reader.shard_count(), 1);
        let (out, report) = reader.decode_range(10_000, 5_000).unwrap();
        assert_eq!(out, &data[10_000..15_000]);
        assert_eq!(report.shards_touched, 1);
        // Second read is cached — the one full decode already happened.
        let (_, r2) = reader.decode_range(0, 30_000).unwrap();
        assert_eq!(r2.cache_hits, 1);
    }

    #[test]
    fn empty_range_and_bounds() {
        let data = sample(10_000);
        let enc = v2(&data, 4 << 10);
        let mut reader = ArcReader::open(&enc, 1).unwrap();
        let (out, report) = reader.decode_range(5_000, 0).unwrap();
        assert!(out.is_empty());
        assert_eq!(report.shards_touched, 0);
        let (out, _) = reader.decode_range(10_000, 0).unwrap();
        assert!(out.is_empty());
        assert!(reader.decode_range(10_000, 1).is_err());
        assert!(reader.decode_range(usize::MAX, 2).is_err());
    }

    #[test]
    fn extension_container_serves_ranges_with_registry() {
        let r = crate::extension::standard_extensions().unwrap();
        let data = sample(100_000);
        let enc =
            crate::extension::encode_sharded_with_scheme(&data, &r, "bch", 1, 16 << 10).unwrap();
        // Registry-less open refuses with a pointer to the registry entry
        // point rather than decoding garbage.
        assert!(matches!(ArcReader::open(&enc, 1), Err(ArcError::InvalidRequest(_))));
        let mut reader = ArcReader::open_with_registry(&enc, 1, &r).unwrap();
        for (off, len) in [(0usize, 100usize), (50_000, 33_000), (99_999, 1)] {
            let (out, _) = reader.decode_range(off, len).unwrap();
            assert_eq!(out, &data[off..off + len], "{off}+{len}");
        }
    }

    #[test]
    fn corrupted_shard_is_repaired_and_reported() {
        let data = sample(64 << 10);
        let mut enc = v2(&data, 8 << 10);
        // Flip one bit inside shard 3's encoded region.
        let u = unpack(&enc).unwrap();
        let off = u.payload_offset + u.index.unwrap().entries[3].offset + 100;
        enc[off] ^= 0x04;
        let mut reader = ArcReader::open(&enc, 1).unwrap();
        let (out, report) = reader.decode_range(3 * (8 << 10) + 50, 200).unwrap();
        assert_eq!(out, &data[3 * (8 << 10) + 50..3 * (8 << 10) + 250]);
        assert_eq!(report.correction.corrected_bits, 1);
    }

    #[test]
    fn uncorrectable_shard_raises_without_poisoning_others() {
        let data = sample(64 << 10);
        let mut enc = v2(&data, 8 << 10);
        let u = unpack(&enc).unwrap();
        let start = u.payload_offset + u.index.unwrap().entries[2].offset;
        // Trash half of shard 2 — way beyond SEC-DED's power.
        for b in &mut enc[start + 1_000..start + 4_000] {
            *b = 0x77;
        }
        let mut reader = ArcReader::open(&enc, 1).unwrap();
        assert!(reader.decode_range(2 * (8 << 10), 100).is_err());
        // Other shards still read fine.
        let (out, _) = reader.decode_range(0, 100).unwrap();
        assert_eq!(out, &data[..100]);
        let (out, _) = reader.decode_range(5 * (8 << 10), 100).unwrap();
        assert_eq!(out, &data[5 * (8 << 10)..5 * (8 << 10) + 100]);
    }
}
