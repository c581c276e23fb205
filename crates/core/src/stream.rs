//! Streaming and batched encode front-ends over the container.
//!
//! The engine entry points are one-shot: the whole input (and the whole
//! container) must be resident at once. This module adds two encode-side
//! front-ends (DESIGN.md §14); what they write decodes like any other
//! container, through the one-shot decoders or `ArcReader`.
//!
//! * [`StreamEncoder`] — **the v2 writer**: accepts data in arbitrary-size
//!   pushes, encodes full shards in groups of up to `threads` through
//!   [`par_map`] (a group is encoded and written before the next one
//!   starts, so peak memory is O(threads × shard) regardless of input
//!   size), and emits v2 container bytes to a [`StreamSink`]. Shard
//!   payloads are per-shard [`ParallelCodec::encode_into`] regions. The
//!   one-shot sharded encoders are one push through this encoder into an
//!   exactly-sized `Vec` (`encode_oneshot`), so no second writer exists to
//!   keep in step.
//! * [`encode_batch`] — coalesces many small independent requests into one
//!   chunk pass so requests below the per-scheme bytes-per-thread floor
//!   still fill all workers in aggregate.

use arc_ecc::crc::crc32;
use arc_ecc::parallel::{par_map, resolve_threads};
use arc_ecc::{EccConfig, ParallelCodec};

use crate::container::{self, Codec, ContainerMeta, ShardEntry, ShardingMeta, DEFAULT_SHARD_SIZE};
use crate::error::ArcError;
use crate::extension::{builtin_scheme, ExtensionRegistry, Resolved};

/// Positional byte sink for streaming encode output.
///
/// The encoder emits shard payloads group by group and back-patches the
/// header (whose length fields are only known at [`StreamEncoder::finish`])
/// at offset 0, so the sink must support positional writes rather than
/// append-only ones. Offsets are contiguous in aggregate: every byte of
/// `0..container_len` is written exactly once.
pub trait StreamSink {
    /// Write `bytes` at absolute `offset`, growing the sink if needed.
    fn write_at(&mut self, offset: usize, bytes: &[u8]) -> Result<(), ArcError>;
}

impl StreamSink for Vec<u8> {
    fn write_at(&mut self, offset: usize, bytes: &[u8]) -> Result<(), ArcError> {
        let end = offset
            .checked_add(bytes.len())
            .ok_or_else(|| ArcError::InvalidRequest("sink offset overflows".into()))?;
        if self.len() < end {
            // arc-lint: bounded(encoder-side sink; grows only to the extent the encoder writes)
            self.resize(end, 0);
        }
        let dst = self.get_mut(offset..end);
        dst.ok_or_else(|| ArcError::InvalidRequest("sink range unwritable".into()))?
            .copy_from_slice(bytes);
        Ok(())
    }
}

/// Tuning knobs for [`StreamEncoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOptions {
    /// Threads for shard ECC (`0` = all available cores, as
    /// [`arc_ecc::ANY_THREADS`]; `1` = encode inline on the pushing
    /// thread, nothing spawned). Peak buffering is O(`threads` × shard).
    pub threads: usize,
    /// Decoded bytes per shard (the v2 random-access granule).
    pub shard_size: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions { threads: 1, shard_size: DEFAULT_SHARD_SIZE }
    }
}

/// What a finished streaming encode did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamEncodeStats {
    /// Original bytes pushed.
    pub data_len: usize,
    /// Total container bytes written to the sink.
    pub container_len: usize,
    /// Shards emitted.
    pub shards: usize,
    /// Threads shard groups were encoded on (always ≥ 1; `0` has been
    /// resolved, as [`ParallelCodec::threads`]).
    pub workers: usize,
}

/// Incremental v2 container writer with bounded memory.
///
/// ```
/// use arc_core::stream::{StreamEncoder, StreamOptions};
/// use arc_ecc::EccConfig;
///
/// let opts = StreamOptions { shard_size: 4 << 10, ..StreamOptions::default() };
/// let mut enc = StreamEncoder::new(Vec::new(), EccConfig::secded(true), opts).unwrap();
/// for piece in [&b"hello "[..], &b"streaming "[..], &b"world"[..]] {
///     enc.push(piece).unwrap();
/// }
/// let (container, stats) = enc.finish().unwrap();
/// assert_eq!(stats.data_len, 21);
/// let (decoded, _) = arc_core::arc_engine_decode(&container, 1).unwrap();
/// assert_eq!(&decoded, b"hello streaming world");
/// ```
pub struct StreamEncoder<S: StreamSink> {
    sink: S,
    scheme_id: String,
    /// Sequential codec: shard geometry, and the per-shard encode each
    /// group member runs (parallelism is across the group's shards).
    codec: Codec,
    shard_size: usize,
    workers: usize,
    hlen: usize,
    /// The shard being filled from pushes smaller than a shard.
    staging: Vec<u8>,
    /// Full staged shards waiting for their group (always < `workers`: the
    /// shard that completes a group is encoded from `staging` itself), and
    /// cleared buffers to stage into next.
    parked: Vec<Vec<u8>>,
    spare: Vec<Vec<u8>>,
    /// One encoded-shard buffer per group member, reused across groups.
    outs: Vec<Vec<u8>>,
    data_len: usize,
    payload_pos: usize,
    entries: Vec<ShardEntry>,
}

impl<S: StreamSink> StreamEncoder<S> {
    /// Start a streaming encode into `sink` with a built-in scheme.
    pub fn new(sink: S, config: EccConfig, opts: StreamOptions) -> Result<Self, ArcError> {
        Self::with_scheme(sink, builtin_scheme(config), opts)
    }

    /// Start a streaming encode with the extension scheme registered under
    /// `name`. The finished container is tagged `x:<name>`.
    pub fn with_registry_scheme(
        sink: S,
        registry: &ExtensionRegistry,
        name: &str,
        opts: StreamOptions,
    ) -> Result<Self, ArcError> {
        Self::with_scheme(sink, registry.named_scheme(name)?, opts)
    }

    fn with_scheme(
        sink: S,
        (scheme_id, scheme): Resolved,
        opts: StreamOptions,
    ) -> Result<Self, ArcError> {
        if opts.shard_size == 0 {
            return Err(ArcError::InvalidRequest("shard size must be >= 1".into()));
        }
        let codec = ParallelCodec::new(scheme, 1)?;
        // The header length is a pure function of the scheme id and the
        // sharded flag, so the payload region can start before any length
        // field is known; `finish` back-patches the real header at 0.
        let meta = ContainerMeta {
            scheme_id: scheme_id.clone(),
            chunk_size: codec.chunk_size(),
            data_len: 0,
            payload_len: 0,
            data_crc: 0,
            sharding: Some(ShardingMeta { shard_size: opts.shard_size, index_len: 1 }),
        };
        Ok(StreamEncoder {
            sink,
            scheme_id,
            codec,
            shard_size: opts.shard_size,
            workers: resolve_threads(opts.threads),
            hlen: container::header_len(&meta),
            staging: Vec::with_capacity(opts.shard_size),
            parked: Vec::new(),
            spare: Vec::new(),
            outs: Vec::new(),
            data_len: 0,
            payload_pos: 0,
            entries: Vec::new(),
        })
    }

    /// Append `bytes` to the stream. Returns once every shard group the
    /// push completed has been encoded and handed to the sink.
    ///
    /// Full shards that are entirely contained in `bytes` take a
    /// zero-copy fast path: with no partial shard staged, they are encoded
    /// straight from the caller's buffer, so large pushes skip the staging
    /// memcpy entirely. Output bytes are identical either way.
    pub fn push(&mut self, mut bytes: &[u8]) -> Result<(), ArcError> {
        self.data_len += bytes.len();
        while !bytes.is_empty() {
            if self.staging.is_empty() && bytes.len() >= self.shard_size {
                // Parked shards come first in stream order, so they share
                // the group and the caller's slice only tops it up.
                let n = (bytes.len() / self.shard_size).min(self.workers - self.parked.len());
                let (whole, rest) = bytes.split_at(n * self.shard_size);
                self.encode_group(whole)?;
                bytes = rest;
                continue;
            }
            let room = self.shard_size - self.staging.len();
            let (head, rest) = bytes.split_at(room.min(bytes.len()));
            self.staging.extend_from_slice(head);
            bytes = rest;
            if self.staging.len() < self.shard_size {
                continue;
            }
            if self.parked.len() + 1 == self.workers {
                self.encode_group(&[])?;
            } else {
                // arc-lint: bounded(encoder-side staging; one shard of the caller's chosen size)
                let next = self.spare.pop().unwrap_or_else(|| Vec::with_capacity(self.shard_size));
                self.parked.push(std::mem::replace(&mut self.staging, next));
            }
        }
        Ok(())
    }

    /// Encode one group — the parked shards, the staged shard if there is
    /// one, then the shards of `whole` — on up to `workers` threads, then
    /// write the group to the sink in stream order. At most `workers`
    /// shards per call.
    fn encode_group(&mut self, whole: &[u8]) -> Result<(), ArcError> {
        let first = self.entries.len();
        let staged = Some(&self.staging).filter(|shard| !shard.is_empty());
        let sources = self
            .parked
            .iter()
            .chain(staged)
            .map(Vec::as_slice)
            .chain(whole.chunks(self.shard_size));
        let members = sources.clone().count();
        if self.outs.len() < members {
            // arc-lint: bounded(a group never exceeds `workers` shards)
            self.outs.resize_with(members, Vec::new);
        }
        // Assign every shard its payload offset up front: the offsets are
        // what make the container independent of how the input was grouped.
        for (shard, out) in sources.clone().zip(&mut self.outs) {
            let (decoded_len, encoded_len) = (shard.len(), self.codec.encoded_len(shard.len()));
            if encoded_len > u32::MAX as usize || decoded_len > u32::MAX as usize {
                return Err(ArcError::InvalidRequest(format!(
                    "shard of {decoded_len} bytes overflows the index's u32 length fields"
                )));
            }
            let offset = self.payload_pos;
            self.payload_pos = offset
                .checked_add(encoded_len)
                .ok_or_else(|| ArcError::InvalidRequest("payload length overflows".into()))?;
            self.entries.push(ShardEntry { offset, encoded_len, decoded_len, crc: 0 });
            // arc-lint: bounded(encoded_len computed by the codec from the caller's shard, not decoded input)
            out.resize(encoded_len, 0);
        }
        let codec = &self.codec;
        // Under device RS the shard's CRC is the combine of the device CRCs
        // the encode just wrote; other schemes' shards are hashed here.
        let encode_shard = |shard: &[u8], out: &mut [u8], entry: &mut ShardEntry| {
            codec.encode_into(shard, out);
            entry.crc = codec.data_crc(out, shard.len()).unwrap_or_else(|| crc32(shard));
        };
        let jobs = sources.zip(&mut self.outs).zip(self.entries.iter_mut().skip(first));
        if self.workers > 1 {
            let mut jobs: Vec<_> = jobs.collect();
            par_map(self.workers, &mut jobs, |((shard, out), entry)| {
                encode_shard(shard, out, entry)
            });
        } else {
            jobs.for_each(|((shard, out), entry)| encode_shard(shard, out, entry));
        }
        for (out, entry) in self.outs.iter().zip(self.entries.iter().skip(first)) {
            self.sink.write_at(self.hlen + entry.offset, out)?;
        }
        self.staging.clear();
        self.parked.iter_mut().for_each(Vec::clear);
        self.spare.append(&mut self.parked);
        Ok(())
    }

    /// Flush the partial tail shard with the last group, write the
    /// triplicated index, back-patch the header, and return the sink. The
    /// container depends only on the concatenation of every pushed slice
    /// and on the scheme and shard size — never on how the input was cut
    /// into pushes or on `threads`.
    pub fn finish(mut self) -> Result<(S, StreamEncodeStats), ArcError> {
        self.encode_group(&[])?;
        let index = container::rs_index_encode(&container::serialize_index(&self.entries))?;
        let meta = ContainerMeta {
            scheme_id: self.scheme_id.clone(),
            chunk_size: self.codec.chunk_size(),
            data_len: self.data_len,
            payload_len: self.payload_pos,
            data_crc: container::whole_crc(&self.entries),
            sharding: Some(ShardingMeta { shard_size: self.shard_size, index_len: index.len() }),
        };
        let hlen = container::header_len(&meta);
        if hlen != self.hlen {
            // Unreachable by construction (the header length depends only
            // on fields fixed at `new`), but never write a torn container.
            return Err(ArcError::InvalidRequest("header length changed mid-stream".into()));
        }
        let istart = self.hlen + self.payload_pos;
        for copy in 0..3 {
            self.sink.write_at(istart + copy * index.len(), &index)?;
        }
        // arc-lint: bounded(hlen is the header length for metadata this encoder built itself)
        let mut header = vec![0u8; hlen];
        container::write_header(&meta, &mut header)?;
        self.sink.write_at(0, &header)?;
        let stats = StreamEncodeStats {
            data_len: self.data_len,
            container_len: istart + 3 * index.len(),
            shards: self.entries.len(),
            workers: self.workers,
        };
        Ok((self.sink, stats))
    }
}

/// One-shot v2 encode, the body of every `encode_sharded*` entry point:
/// the whole input pushed once through a [`StreamEncoder`] whose sink is a
/// `Vec` reserved to the container's exact length.
pub(crate) fn encode_oneshot(
    data: &[u8],
    scheme: Resolved,
    threads: usize,
    shard_size: usize,
) -> Result<Vec<u8>, ArcError> {
    let opts = StreamOptions { threads, shard_size };
    let mut enc = StreamEncoder::with_scheme(Vec::new(), scheme, opts)?;
    let index_len = container::index_encoded_len(data.len().div_ceil(shard_size))?;
    let payload_len = enc.codec.sharded_encoded_len(data.len(), shard_size);
    enc.sink.reserve_exact(enc.hlen + payload_len + 3 * index_len);
    enc.push(data)?;
    Ok(enc.finish()?.0)
}

/// Encode many independent requests as one flat chunk pass.
///
/// Each element of the result is byte-identical to
/// [`crate::arc_engine_encode`] of the corresponding request — every
/// container is a `container::mono_frame` of the v1 writer — and only the
/// scheduling differs: chunk jobs from *all* requests land in one list
/// ([`ParallelCodec::encode_many_into`]), so requests individually below
/// the scheme's bytes-per-thread floor still parallelize in aggregate.
pub fn encode_batch(
    requests: &[&[u8]],
    config: EccConfig,
    threads: usize,
) -> Result<Vec<Vec<u8>>, ArcError> {
    let (scheme_id, scheme) = builtin_scheme(config);
    let codec = ParallelCodec::new(scheme, threads)?;
    let frames: Result<Vec<_>, _> =
        requests.iter().map(|data| container::mono_frame(data, &codec, &scheme_id)).collect();
    let mut frames = frames?;
    let mut pairs: Vec<(&[u8], &mut [u8])> = requests
        .iter()
        .zip(&mut frames)
        .map(|(data, (out, hlen))| (*data, &mut out[*hlen..]))
        .collect();
    codec.encode_many_into(&mut pairs);
    Ok(frames.into_iter().map(|(out, _)| out).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_round_trips() {
        let opts = StreamOptions::default();
        let enc = StreamEncoder::new(Vec::new(), EccConfig::secded(true), opts).unwrap();
        let (got, stats) = enc.finish().unwrap();
        assert_eq!(stats.shards, 0);
        assert_eq!(stats.container_len, got.len());
        assert!(crate::engine::arc_engine_decode(&got, 1).unwrap().0.is_empty());
    }
}
