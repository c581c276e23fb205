//! Streaming and batched front-ends over the v2 sharded container.
//!
//! The engine entry points are one-shot: the whole input (and the whole
//! container) must be resident at once. This module adds the bounded-memory
//! service layer (DESIGN.md §14):
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
//! * [`StreamDecoder`] — a push-based state machine over the same wire
//!   format: length-prefix vote → RS-protected header (both through
//!   `container::recover_header`, shared with `unpack`) → per-shard decode
//!   (emitting plaintext as each shard completes, without waiting for the
//!   trailing index) → index recovery, which is cross-checked against the
//!   geometry actually decoded. Total over hostile bytes: every failure is
//!   an [`ArcError`], never a panic, and buffering is proportional to the
//!   bytes actually pushed, never to a length a corrupt header claims.
//! * [`encode_batch`] / [`decode_batch`] — coalesce many small independent
//!   requests into one [`par_map`] pass so requests below the per-scheme
//!   bytes-per-thread floor still fill all workers in aggregate.

use arc_ecc::crc::{crc32, Crc32};
use arc_ecc::parallel::{par_map, resolve_threads, DEFAULT_CHUNK_SIZE};
use arc_ecc::{CorrectionReport, EccConfig, ParallelCodec};

use crate::container::{
    self, ContainerMeta, HeaderScan, IndexRepair, ShardEntry, ShardingMeta, Unpacked,
    DEFAULT_SHARD_SIZE,
};
use crate::error::ArcError;
use crate::extension::{builtin_scheme, resolve_scheme, ExtensionRegistry, Resolved};
use crate::interface::{decode_with_threads, ArcDecodeReport, Codec};

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
        self[offset..end].copy_from_slice(bytes);
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
    /// ECC chunk size within a shard ([`DEFAULT_CHUNK_SIZE`] unless a
    /// caller has a reason; it is recorded in the header either way).
    pub chunk_size: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions { threads: 1, shard_size: DEFAULT_SHARD_SIZE, chunk_size: DEFAULT_CHUNK_SIZE }
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
    crc: Crc32,
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
        let codec = ParallelCodec::with_chunk_size(scheme, 1, opts.chunk_size)?;
        // The header length is a pure function of the scheme id and the
        // sharded flag, so the payload region can start before any length
        // field is known; `finish` back-patches the real header at 0.
        let meta = ContainerMeta {
            scheme_id: scheme_id.clone(),
            chunk_size: opts.chunk_size,
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
            crc: Crc32::new(),
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
                self.crc.update(whole);
                self.encode_group(whole)?;
                bytes = rest;
                continue;
            }
            let room = self.shard_size - self.staging.len();
            let (head, rest) = bytes.split_at(room.min(bytes.len()));
            self.staging.extend_from_slice(head);
            self.crc.update(head);
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
        let encode_shard = |shard: &[u8], out: &mut [u8], entry: &mut ShardEntry| {
            codec.encode_into(shard, out);
            entry.crc = crc32(shard);
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
    /// and on the scheme, shard size and chunk size — never on how the
    /// input was cut into pushes or on `threads`.
    pub fn finish(mut self) -> Result<(S, StreamEncodeStats), ArcError> {
        self.encode_group(&[])?;
        let index = container::rs_index_encode(&container::serialize_index(&self.entries))?;
        let meta = ContainerMeta {
            scheme_id: self.scheme_id.clone(),
            chunk_size: self.codec.chunk_size(),
            data_len: self.data_len,
            payload_len: self.payload_pos,
            data_crc: self.crc.finalize(),
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
    chunk_size: usize,
    shard_size: usize,
) -> Result<Vec<u8>, ArcError> {
    let opts = StreamOptions { threads, shard_size, chunk_size };
    let mut enc = StreamEncoder::with_scheme(Vec::new(), scheme, opts)?;
    let index_len = container::index_encoded_len(data.len().div_ceil(shard_size))?;
    let payload_len = enc.codec.sharded_encoded_len(data.len(), shard_size);
    enc.sink.reserve_exact(enc.hlen + payload_len + 3 * index_len);
    enc.push(data)?;
    Ok(enc.finish()?.0)
}

enum Phase {
    /// Buffering the length prefix and header codewords until
    /// [`container::recover_header`] has the `header_need` bytes its next
    /// length candidate asks for.
    Header,
    /// Buffering the current shard's encoded region.
    Shards,
    /// Buffering the three index copies.
    Trailer,
    /// Buffering a monolithic v1 payload.
    MonoBody,
    /// Container complete; any further byte is an error.
    Done,
}

/// Push-based decoder for v1/v2 containers.
///
/// Decoded plaintext is appended to the `out` vector passed to
/// [`StreamDecoder::push`] as soon as each shard's ECC pass completes —
/// the trailing index is verified *after* emission, so a caller that needs
/// end-to-end certainty must wait for [`StreamDecoder::finish`], which
/// cross-checks the recovered index against the streamed geometry and the
/// header's whole-data CRC. Monolithic v1 containers are supported with
/// O(payload) buffering (their format permits nothing better).
///
/// ```
/// use arc_core::stream::StreamDecoder;
/// use arc_ecc::EccConfig;
///
/// let data = vec![7u8; 10_000];
/// let container =
///     arc_core::arc_engine_encode_sharded(&data, EccConfig::secded(true), 1, 2048).unwrap();
/// let mut dec = StreamDecoder::new();
/// let mut out = Vec::new();
/// for piece in container.chunks(997) {
///     dec.push(piece, &mut out).unwrap();
/// }
/// let report = dec.finish().unwrap();
/// assert_eq!(out, data);
/// assert_eq!(report.shards, 5);
/// ```
pub struct StreamDecoder {
    threads: usize,
    /// Extension schemes the header's scheme id may resolve against.
    /// `None` still decodes every built-in container; extension-tagged
    /// headers then fail with a pointer to
    /// [`StreamDecoder::with_registry`].
    registry: Option<ExtensionRegistry>,
    phase: Phase,
    buf: Vec<u8>,
    header_need: usize,
    meta: Option<ContainerMeta>,
    codec: Option<Codec>,
    used_backup_header: bool,
    header_symbols_corrected: usize,
    computed: Vec<ShardEntry>,
    decoded_so_far: usize,
    payload_pos: usize,
    out_crc: Crc32,
    correction: CorrectionReport,
    index_repair: Option<IndexRepair>,
    failed: bool,
}

impl Default for StreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamDecoder {
    /// Decoder with sequential (1-thread) shard decoding.
    pub fn new() -> Self {
        Self::with_threads(1)
    }

    /// Decoder whose per-shard ECC pass may use up to `threads` workers
    /// (`0` = all available cores).
    pub fn with_threads(threads: usize) -> Self {
        StreamDecoder {
            threads,
            registry: None,
            phase: Phase::Header,
            buf: Vec::new(),
            header_need: 6,
            meta: None,
            codec: None,
            used_backup_header: false,
            header_symbols_corrected: 0,
            computed: Vec::new(),
            decoded_so_far: 0,
            payload_pos: 0,
            out_crc: Crc32::new(),
            correction: CorrectionReport::default(),
            index_repair: None,
            failed: false,
        }
    }

    /// As [`StreamDecoder::with_threads`], additionally resolving
    /// extension scheme ids (`x:<name>`) against `registry`, so containers
    /// produced by [`StreamEncoder::with_registry_scheme`] (or the one-shot
    /// extension encoders) stream-decode like built-ins.
    pub fn with_registry(threads: usize, registry: ExtensionRegistry) -> Self {
        StreamDecoder { registry: Some(registry), ..Self::with_threads(threads) }
    }

    /// Feed the next piece of the container, appending any newly decoded
    /// plaintext to `out`. Errors are sticky: once a push fails, the
    /// decoder stays failed.
    pub fn push(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> Result<(), ArcError> {
        if self.failed {
            return Err(ArcError::Corrupted("stream decoder previously failed".into()));
        }
        match self.consume(bytes, out) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.failed = true;
                Err(e)
            }
        }
    }

    /// Declare the stream complete and return the report — field for field
    /// what the one-shot decoders return for the same bytes.
    pub fn finish(self) -> Result<ArcDecodeReport, ArcError> {
        if self.failed {
            return Err(ArcError::Corrupted("stream decoder previously failed".into()));
        }
        if !matches!(self.phase, Phase::Done) {
            return Err(ArcError::Corrupted("container truncated: stream ended early".into()));
        }
        let meta = self
            .meta
            .ok_or_else(|| ArcError::Corrupted("stream decoder lost its header".into()))?;
        if meta.sharding.is_some() && self.out_crc.finalize() != meta.data_crc {
            return Err(ArcError::Corrupted("data CRC mismatch after repair".into()));
        }
        Ok(ArcDecodeReport {
            config: EccConfig::parse_id(&meta.scheme_id).ok(),
            scheme_id: meta.scheme_id,
            data_len: meta.data_len,
            shards: self.computed.len(),
            correction: self.correction,
            used_backup_header: self.used_backup_header,
            header_symbols_corrected: self.header_symbols_corrected,
            index_repair: self.index_repair,
        })
    }

    fn consume(&mut self, mut bytes: &[u8], out: &mut Vec<u8>) -> Result<(), ArcError> {
        while !bytes.is_empty() {
            let need = match self.phase {
                Phase::Header => self.header_need,
                Phase::Shards => self.cur_shard_geometry()?.1,
                Phase::Trailer => {
                    let sh = self.sharding()?;
                    3 * sh.index_len
                }
                Phase::MonoBody => self.meta_ref()?.payload_len,
                Phase::Done => {
                    return Err(ArcError::Corrupted("bytes after container end".into()));
                }
            };
            let take = need.saturating_sub(self.buf.len()).min(bytes.len());
            self.buf.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.buf.len() < need {
                continue;
            }
            match self.phase {
                Phase::Header => self.scan_header(out)?,
                Phase::Shards => {
                    let (dlen, elen) = self.cur_shard_geometry()?;
                    self.complete_shard(dlen, elen, out)?;
                }
                Phase::Trailer => self.complete_trailer()?,
                Phase::MonoBody => self.complete_mono(out)?,
                Phase::Done => {
                    return Err(ArcError::Corrupted("bytes after container end".into()));
                }
            }
        }
        Ok(())
    }

    fn meta_ref(&self) -> Result<&ContainerMeta, ArcError> {
        self.meta
            .as_ref()
            .ok_or_else(|| ArcError::Corrupted("stream decoder lost its header".into()))
    }

    fn sharding(&self) -> Result<ShardingMeta, ArcError> {
        self.meta_ref()?
            .sharding
            .ok_or_else(|| ArcError::Corrupted("stream decoder lost its shard geometry".into()))
    }

    fn codec_ref(&self) -> Result<&Codec, ArcError> {
        self.codec
            .as_ref()
            .ok_or_else(|| ArcError::Corrupted("stream decoder lost its codec".into()))
    }

    /// Decoded/encoded length of the shard currently being buffered.
    fn cur_shard_geometry(&self) -> Result<(usize, usize), ArcError> {
        let meta = self.meta_ref()?;
        let sh = self.sharding()?;
        let remaining = meta.data_len.saturating_sub(self.decoded_so_far);
        let dlen = remaining.min(sh.shard_size);
        if dlen == 0 {
            return Err(ArcError::Corrupted("shard phase with no data remaining".into()));
        }
        Ok((dlen, self.codec_ref()?.encoded_len(dlen)))
    }

    /// The buffer holds what the last scan asked for: run the shared header
    /// recovery over it. A header copy decodes, or the scan names the
    /// (strictly larger) byte count its next candidate needs, or it fails.
    fn scan_header(&mut self, out: &mut Vec<u8>) -> Result<(), ArcError> {
        match container::recover_header(&self.buf)? {
            HeaderScan::NeedBytes(need) => {
                self.header_need = need;
                Ok(())
            }
            HeaderScan::Found(Unpacked {
                meta,
                used_backup_header,
                header_symbols_corrected,
                ..
            }) => {
                self.used_backup_header = used_backup_header;
                self.header_symbols_corrected = header_symbols_corrected;
                self.accept_header(meta, out)
            }
        }
    }

    /// Validate the decoded header's geometry before buffering anything it
    /// promises: the payload and index lengths must be the pure functions
    /// of (`data_len`, `shard_size`, `chunk_size`) the encoder computes,
    /// so a corrupt-but-decodable header cannot demand unbounded memory.
    fn accept_header(&mut self, meta: ContainerMeta, out: &mut Vec<u8>) -> Result<(), ArcError> {
        let scheme = resolve_scheme(&meta.scheme_id, self.registry.as_ref())?;
        let codec = ParallelCodec::with_chunk_size(scheme, self.threads, meta.chunk_size)?;
        match meta.sharding {
            Some(sh) => {
                if codec.sharded_encoded_len(meta.data_len, sh.shard_size) != meta.payload_len {
                    return Err(ArcError::Corrupted(
                        "payload length disagrees with shard geometry".into(),
                    ));
                }
                let shards = meta.data_len.div_ceil(sh.shard_size);
                if container::index_encoded_len(shards)? != sh.index_len {
                    return Err(ArcError::Corrupted(
                        "index length disagrees with shard count".into(),
                    ));
                }
                self.phase = if shards == 0 { Phase::Trailer } else { Phase::Shards };
            }
            None => {
                if codec.encoded_len(meta.data_len) != meta.payload_len {
                    return Err(ArcError::Corrupted(
                        "payload length disagrees with data length".into(),
                    ));
                }
                self.phase = Phase::MonoBody;
            }
        }
        let mono_empty = meta.sharding.is_none() && meta.payload_len == 0;
        self.meta = Some(meta);
        self.codec = Some(codec);
        self.buf.clear();
        if mono_empty {
            // Zero-length v1 body: nothing further will arrive for it.
            self.complete_mono(out)?;
        }
        Ok(())
    }

    fn complete_shard(
        &mut self,
        dlen: usize,
        elen: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), ArcError> {
        let codec = self
            .codec
            .as_ref()
            .ok_or_else(|| ArcError::Corrupted("stream decoder lost its codec".into()))?;
        let report = codec.decode_in_place(&mut self.buf, dlen)?;
        self.correction.merge(&report);
        let shard = &self.buf[..dlen];
        let crc = crc32(shard);
        self.out_crc.update(shard);
        out.extend_from_slice(shard);
        self.computed.push(ShardEntry {
            offset: self.payload_pos,
            encoded_len: elen,
            decoded_len: dlen,
            crc,
        });
        self.payload_pos = self
            .payload_pos
            .checked_add(elen)
            .ok_or_else(|| ArcError::Corrupted("payload offsets overflow".into()))?;
        self.decoded_so_far += dlen;
        self.buf.clear();
        if self.decoded_so_far == self.meta_ref()?.data_len {
            self.phase = Phase::Trailer;
        }
        Ok(())
    }

    /// All three index copies are buffered: recover the index through the
    /// routine `unpack` uses, then require it to equal the geometry and
    /// CRCs of the shards actually streamed — the late end-to-end check
    /// that backs the early plaintext emission.
    fn complete_trailer(&mut self) -> Result<(), ArcError> {
        let (index, repair) = container::recover_index(&self.buf, self.meta_ref()?)?;
        if index.entries != self.computed {
            return Err(ArcError::Corrupted(
                "recovered index disagrees with streamed shards".into(),
            ));
        }
        self.index_repair = Some(repair);
        self.buf.clear();
        self.phase = Phase::Done;
        Ok(())
    }

    fn complete_mono(&mut self, out: &mut Vec<u8>) -> Result<(), ArcError> {
        let data_len = self.meta_ref()?.data_len;
        let codec = self
            .codec
            .as_ref()
            .ok_or_else(|| ArcError::Corrupted("stream decoder lost its codec".into()))?;
        let report = codec.decode_in_place(&mut self.buf, data_len)?;
        self.correction.merge(&report);
        let data = &self.buf[..data_len];
        if crc32(data) != self.meta_ref()?.data_crc {
            return Err(ArcError::Corrupted("data CRC mismatch after repair".into()));
        }
        out.extend_from_slice(data);
        self.buf.clear();
        self.phase = Phase::Done;
        Ok(())
    }
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
    let codec = ParallelCodec::with_chunk_size(scheme, threads, DEFAULT_CHUNK_SIZE)?;
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

/// Per-container outcome of [`decode_batch`]: the decoded bytes and report,
/// or the first error hit while decoding that container.
type DecodeOutcome = Result<(Vec<u8>, ArcDecodeReport), ArcError>;

/// Decode many independent containers as one [`par_map`] pass.
///
/// Order-preserving; each element equals what
/// [`crate::decode_with_threads`] returns for that container. Failures are
/// per-item — one corrupt container never poisons its batch.
pub fn decode_batch(containers: &[&[u8]], threads: usize) -> Vec<DecodeOutcome> {
    let mut jobs = containers.to_vec();
    par_map(resolve_threads(threads), &mut jobs, |bytes| decode_with_threads(bytes, 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 37) ^ (i >> 5)) as u8).collect()
    }

    fn one_shot(data: &[u8], shard_size: usize) -> Vec<u8> {
        crate::engine::arc_engine_encode_sharded(data, EccConfig::secded(true), 1, shard_size)
            .expect("one-shot encode")
    }

    #[test]
    fn empty_input_round_trips() {
        let opts = StreamOptions::default();
        let enc = StreamEncoder::new(Vec::new(), EccConfig::secded(true), opts).unwrap();
        let (got, stats) = enc.finish().unwrap();
        assert_eq!(stats.shards, 0);
        assert_eq!(stats.container_len, got.len());
        assert!(crate::engine::arc_engine_decode(&got, 1).unwrap().0.is_empty());
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        dec.push(&got, &mut out).unwrap();
        assert!(dec.finish().is_ok());
        assert!(out.is_empty());
    }

    #[test]
    fn decoder_streams_v2_in_odd_chunks() {
        let data = sample(40_000);
        let container = one_shot(&data, 4 << 10);
        for chunk in [1usize, 7, 4096, container.len()] {
            let mut dec = StreamDecoder::new();
            let mut out = Vec::new();
            for piece in container.chunks(chunk) {
                dec.push(piece, &mut out).expect("clean push");
            }
            let stats = dec.finish().expect("clean finish");
            assert_eq!(out, data, "chunk={chunk}");
            assert_eq!(stats.shards, data.len().div_ceil(4 << 10));
            assert!(stats.correction.is_clean());
        }
    }

    #[test]
    fn decoder_handles_v1_containers() {
        let data = sample(10_000);
        let container =
            crate::engine::arc_engine_encode(&data, EccConfig::secded(true), 1).unwrap();
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        for piece in container.chunks(313) {
            dec.push(piece, &mut out).unwrap();
        }
        let stats = dec.finish().unwrap();
        assert_eq!(out, data);
        assert_eq!(stats.shards, 0);
    }

    #[test]
    fn decoder_rejects_truncation_and_trailing_garbage() {
        let data = sample(9_000);
        let container = one_shot(&data, 2048);
        // Truncated: finish() must refuse.
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        dec.push(&container[..container.len() - 5], &mut out).unwrap();
        assert!(dec.finish().is_err());
        // Trailing garbage: the extra byte itself must refuse.
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        dec.push(&container, &mut out).unwrap();
        assert!(dec.push(&[0u8], &mut out).is_err());
    }

    #[test]
    fn decoder_errors_are_sticky() {
        // Unanimous length prefix of 40, followed by two 40-byte
        // "codewords" of garbage: both RS decodes fail at the threshold.
        let mut junk = vec![40u8, 0, 40, 0, 40, 0];
        junk.extend(std::iter::repeat_n(0xA5u8, 80));
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        assert!(dec.push(&junk, &mut out).is_err());
        assert!(dec.push(b"more", &mut out).is_err());
        assert!(dec.finish().is_err());
    }

    #[test]
    fn batch_decode_isolates_failures() {
        let good =
            crate::engine::arc_engine_encode(&sample(500), EccConfig::secded(true), 1).unwrap();
        let bad = vec![0u8; 64];
        let items: Vec<&[u8]> = vec![&good, &bad, &good];
        let results = decode_batch(&items, 1);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
    }
}
