//! Streaming and batched encode front-ends over the container.
//!
//! The engine entry points are one-shot: the whole input (and the whole
//! container) must be resident at once. This module adds two encode-side
//! front-ends (DESIGN.md §14); what they write decodes like any other
//! container, through the one-shot decoders or `ArcReader`.
//!
//! * [`StreamEncoder`] — **the v2 writer**: accepts data in arbitrary-size
//!   pushes, encodes full shards in groups of up to `threads`, each group
//!   one [`ParallelCodec::encode_many_into`] chunk pass into one buffer laid
//!   out as the container lays it out, and hands that buffer to a
//!   [`StreamSink`] in one write. Its two buffers, one group of input and
//!   one of output, keep peak memory at O(threads × shard) regardless of
//!   input size. `arc_encode` and the one-shot sharded encoders are its
//!   groups cut straight from the input into an exactly-sized `Vec`
//!   (`encode_oneshot`), so no second writer exists to keep in step.
//! * [`encode_batch`] — coalesces many small independent requests into one
//!   chunk pass so requests below the per-scheme bytes-per-thread floor
//!   still fill all workers in aggregate.

use std::time::Instant;

use arc_ecc::bits::{chunked, chunked_mut, copy_prefix};
use arc_ecc::crc::crc32;
use arc_ecc::{EccConfig, ParallelCodec};

use crate::container::{self, Codec, ContainerMeta, ShardEntry, ShardingMeta, DEFAULT_SHARD_SIZE};
use crate::error::ArcError;
use crate::extension::{builtin_scheme, ExtensionRegistry, Resolved};

/// Positional byte sink for streaming encode output.
///
/// The encoder emits shard payloads one write per group and back-patches
/// the header (whose length fields are only known at
/// [`StreamEncoder::finish`]) at offset 0, so the sink must support
/// positional writes rather than append-only ones. Offsets are contiguous
/// in aggregate: every byte of `0..container_len` is written exactly once.
pub trait StreamSink {
    /// Write `bytes` at absolute `offset`, growing the sink if needed.
    fn write_at(&mut self, offset: usize, bytes: &[u8]) -> Result<(), ArcError>;
}

/// Overwrites the part of a write inside the current length (the header
/// back-patch) and appends the rest; only a gap before `offset` is
/// zero-filled, never the bytes about to be written.
impl StreamSink for Vec<u8> {
    fn write_at(&mut self, offset: usize, bytes: &[u8]) -> Result<(), ArcError> {
        offset
            .checked_add(bytes.len())
            .ok_or_else(|| ArcError::InvalidRequest("sink offset overflows".into()))?;
        let inside = self.len().saturating_sub(offset).min(bytes.len());
        let (head, tail) = bytes.split_at_checked(inside).unwrap_or((bytes, &[]));
        if let Some(dst) = self.get_mut(offset..offset + inside) {
            copy_prefix(dst, head);
        }
        if !tail.is_empty() {
            // Bounded: encoder-side sink: grows only to the extent the encoder writes.
            self.resize(self.len().max(offset), 0);
            self.extend_from_slice(tail);
        }
        Ok(())
    }
}

/// Tuning knobs for [`StreamEncoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOptions {
    /// Shards per group and workers for its ECC pass (`0` = all cores, as
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
    /// Thread count the shard groups were encoded at (always ≥ 1; `0` has
    /// been resolved, as [`ParallelCodec::threads`]).
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
    /// The codec at the resolved thread count: a group holds up to
    /// `codec.threads()` shards, encoded as one chunk pass.
    codec: Codec,
    shard_size: usize,
    hlen: usize,
    /// The next group's input: whole staged shards, then at most one
    /// partial shard. It never holds a whole group: the shard that
    /// completes one is encoded at once.
    pending: Vec<u8>,
    /// The group's encoded shards back to back, as the container lays them
    /// out; reused from group to group.
    encoded: Vec<u8>,
    data_len: usize,
    payload_pos: usize,
    entries: Vec<ShardEntry>,
    /// Seconds in the groups' ECC passes alone: `arc_encode`'s feedback.
    ecc_seconds: f64,
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
        let codec = ParallelCodec::new(scheme, opts.threads)?;
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
            hlen: container::header_len(&meta),
            pending: Vec::new(),
            encoded: Vec::new(),
            data_len: 0,
            payload_pos: 0,
            entries: Vec::new(),
            ecc_seconds: 0.0,
        })
    }

    /// Append `bytes` to the stream. Returns once every shard group the
    /// push completed has been encoded and handed to the sink.
    ///
    /// Full shards that are entirely contained in `bytes` take a
    /// zero-copy fast path: when `pending` holds only whole shards, they
    /// top its group up straight from the caller's buffer, so large pushes
    /// skip the staging memcpy entirely. Output bytes are identical either
    /// way.
    pub fn push(&mut self, mut bytes: &[u8]) -> Result<(), ArcError> {
        self.data_len += bytes.len();
        let threads = self.codec.threads();
        while !bytes.is_empty() {
            let (staged, partial) =
                (self.pending.len() / self.shard_size, self.pending.len() % self.shard_size);
            if partial == 0 && bytes.len() >= self.shard_size {
                // Staged shards come first in stream order, so they share
                // the group and the caller's slice only tops it up.
                let n = (bytes.len() / self.shard_size).min(threads - staged);
                let (whole, rest) =
                    bytes.split_at_checked(n * self.shard_size).unwrap_or((bytes, &[]));
                self.encode_group(whole)?;
                bytes = rest;
                continue;
            }
            let room = self.shard_size - partial;
            let (head, rest) = bytes.split_at_checked(room).unwrap_or((bytes, &[]));
            // Bounded: grows one shard of the caller's size at a time, up to
            // `threads` shards: the shard that completes a group encodes it.
            self.pending.reserve_exact(room);
            self.pending.extend_from_slice(head);
            bytes = rest;
            if self.pending.len() / self.shard_size == threads {
                self.encode_group(&[])?;
            }
        }
        Ok(())
    }

    /// Encode one group — the shards in `pending`, then the shards of
    /// `whole` — as one chunk pass on up to `codec.threads()` workers into
    /// `encoded`, then hand the group to the sink in one write. At most
    /// `codec.threads()` shards per call.
    fn encode_group(&mut self, whole: &[u8]) -> Result<(), ArcError> {
        let (first, start) = (self.entries.len(), self.payload_pos);
        let sources =
            chunked(&self.pending, self.shard_size).chain(chunked(whole, self.shard_size));
        // Assign every shard its payload offset up front: the offsets are
        // what make the container independent of how the input was grouped.
        for shard in sources.clone() {
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
        }
        // Bounded: at most `codec.threads()` shards, each encoded length
        // computed by the codec from the caller's shard, not decoded input.
        self.encoded.resize(self.payload_pos - start, 0);
        // Every shard but a group's last is whole, so the encoded shards
        // are cut at the whole-shard encoded length.
        let dsts = chunked_mut(&mut self.encoded, self.codec.encoded_len(self.shard_size));
        let mut pairs: Vec<(&[u8], &mut [u8])> = sources.zip(dsts).collect();
        let t0 = Instant::now();
        self.codec.encode_many_into(&mut pairs);
        self.ecc_seconds += t0.elapsed().as_secs_f64();
        // Under device RS the shard's CRC is the combine of the device CRCs
        // the encode just wrote; other schemes' shards are hashed here.
        for ((shard, out), entry) in pairs.iter().zip(self.entries.iter_mut().skip(first)) {
            entry.crc = self.codec.data_crc(out, shard.len()).unwrap_or_else(|| crc32(shard));
        }
        self.sink.write_at(self.hlen + start, &self.encoded)?;
        self.pending.clear();
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
        // Bounded: hlen is the header length for metadata this encoder built itself.
        let mut header = vec![0u8; hlen];
        container::write_header(&meta, &mut header)?;
        self.sink.write_at(0, &header)?;
        let stats = StreamEncodeStats {
            data_len: self.data_len,
            container_len: istart + 3 * index.len(),
            shards: self.entries.len(),
            workers: self.codec.threads(),
        };
        Ok((self.sink, stats))
    }
}

/// One-shot v2 encode, the body of `arc_encode` and every `encode_sharded*`
/// entry point: a [`StreamEncoder`] whose sink is a `Vec` reserved to the
/// container's exact length, handed its groups straight from `data`.
/// Returns the container and the seconds its ECC passes took.
pub(crate) fn encode_oneshot(
    data: &[u8],
    scheme: Resolved,
    threads: usize,
    shard_size: usize,
) -> Result<(Vec<u8>, f64), ArcError> {
    let opts = StreamOptions { threads, shard_size };
    let mut enc = StreamEncoder::with_scheme(Vec::new(), scheme, opts)?;
    let index_len = container::index_encoded_len(data.len().div_ceil(shard_size))?;
    let payload_len = enc.codec.sharded_encoded_len(data.len(), shard_size);
    enc.sink.reserve_exact(enc.hlen + payload_len + 3 * index_len);
    // Nothing is staged: the tail shard ends the last group, not `finish`.
    enc.data_len = data.len();
    for group in chunked(data, enc.codec.threads().saturating_mul(shard_size)) {
        enc.encode_group(group)?;
    }
    let seconds = enc.ecc_seconds;
    Ok((enc.finish()?.0, seconds))
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
        .map(|(data, (out, hlen))| (*data, out.get_mut(*hlen..).unwrap_or_default()))
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

    #[test]
    fn vec_sink_appends_overwrites_and_zero_fills_only_a_gap() {
        let mut sink = Vec::new();
        // An append at the end.
        sink.write_at(0, b"abcd").unwrap();
        sink.write_at(4, b"ef").unwrap();
        assert_eq!(sink, b"abcdef");
        // An overwrite inside the buffer, as the header back-patch, and one
        // that straddles the end.
        sink.write_at(1, b"XY").unwrap();
        assert_eq!(sink, b"aXYdef");
        sink.write_at(5, b"ZZZ").unwrap();
        assert_eq!(sink, b"aXYdeZZZ");
        // A write past the end: the gap reads as zeros.
        sink.write_at(10, b"gh").unwrap();
        assert_eq!(sink, b"aXYdeZZZ\0\0gh");
        // An overflowing offset is refused and changes nothing.
        let err = sink.write_at(usize::MAX, b"i").unwrap_err();
        assert!(matches!(err, ArcError::InvalidRequest(_)), "{err:?}");
        assert_eq!(sink.len(), 12);
    }
}
