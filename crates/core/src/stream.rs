//! Streaming and batched front-ends over the v2 sharded container.
//!
//! The engine entry points are one-shot: the whole input (and the whole
//! container) must be resident at once. This module adds the bounded-memory
//! service layer (DESIGN.md §14):
//!
//! * [`StreamEncoder`] — **the v2 writer**: accepts data in arbitrary-size
//!   pushes, encodes full shards on a bounded ring of in-flight jobs
//!   (back-pressure when the ring is full, so peak memory is O(ring ×
//!   shard) regardless of input size), and emits v2 container bytes to a
//!   [`StreamSink`]. Shard payloads are per-shard
//!   [`ParallelCodec::encode_into`] regions. The one-shot sharded encoders
//!   are one push through this encoder into an exactly-sized `Vec`
//!   (`encode_oneshot`), so no second writer exists to keep in step.
//! * [`StreamDecoder`] — a push-based state machine over the same wire
//!   format: length-prefix vote → RS-protected header (both through
//!   `container::recover_header`, shared with `unpack`) → per-shard decode
//!   (emitting plaintext as each shard completes, without waiting for the
//!   trailing index) → index recovery, which is cross-checked against the
//!   geometry actually decoded. Total over hostile bytes: every failure is
//!   an [`ArcError`], never a panic, and buffering is proportional to the
//!   bytes actually pushed, never to a length a corrupt header claims.
//! * [`encode_batch`] / [`decode_batch`] — coalesce many small independent
//!   requests into one flat pool pass so requests below the per-scheme
//!   bytes-per-thread floor still fill all workers in aggregate.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

use arc_ecc::crc::{crc32, Crc32};
use arc_ecc::parallel::{resolve_threads, DEFAULT_CHUNK_SIZE};
use arc_ecc::{CorrectionReport, EccConfig, EccScheme, ParallelCodec};
use rayon::prelude::*;

use crate::container::{
    self, ContainerMeta, HeaderScan, IndexRepair, ShardEntry, ShardingMeta, Unpacked,
    DEFAULT_SHARD_SIZE,
};
use crate::error::ArcError;
use crate::extension::{builtin_scheme, resolve_scheme, ExtensionRegistry, Resolved};
use crate::interface::{decode_with_threads, ArcDecodeReport, Codec};

/// Positional byte sink for streaming encode output.
///
/// The encoder emits shard payloads as they complete and back-patches the
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
    /// Worker threads for shard ECC (`0` = all available cores, as
    /// [`arc_ecc::ANY_THREADS`]; `1` = encode inline on the pushing
    /// thread, no workers spawned).
    pub threads: usize,
    /// Decoded bytes per shard (the v2 random-access granule).
    pub shard_size: usize,
    /// ECC chunk size within a shard ([`DEFAULT_CHUNK_SIZE`] unless a
    /// caller has a reason; it is recorded in the header either way).
    pub chunk_size: usize,
    /// Maximum in-flight shard jobs. Peak buffering is O(`ring` ×
    /// encoded-shard); a full ring back-pressures `push`.
    pub ring: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            threads: 1,
            shard_size: DEFAULT_SHARD_SIZE,
            chunk_size: DEFAULT_CHUNK_SIZE,
            ring: 4,
        }
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
    /// Worker threads the ring ran (0 = inline encoding, no workers).
    pub workers: usize,
    /// Ring capacity the encoder ran with.
    pub ring: usize,
    /// Times `push`/`finish` blocked because the ring was full — the
    /// back-pressure events that bound peak memory.
    pub backpressure_waits: u64,
}

/// One shard handed to the ring: the staged plaintext and a pre-sized
/// output buffer. Buffers are allocated by the pushing thread and recycled
/// through the free lists, so worker threads allocate nothing.
struct Job {
    seq: usize,
    data: Vec<u8>,
    out: Vec<u8>,
}

/// A finished shard coming back from the ring.
struct Done {
    seq: usize,
    data: Vec<u8>,
    out: Vec<u8>,
    crc: u32,
}

/// The worker side of the bounded ring: a shared job queue, a completion
/// queue, and the thread handles. Dropping the ring closes the job queue,
/// drains completions, and joins every worker.
struct Ring {
    jobs_tx: Option<mpsc::Sender<Job>>,
    done_rx: mpsc::Receiver<Done>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl Drop for Ring {
    fn drop(&mut self) {
        // Closing the job channel lets idle workers exit; draining the
        // completion channel lets busy ones finish their send.
        self.jobs_tx = None;
        while self.done_rx.recv().is_ok() {}
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    jobs: &Mutex<mpsc::Receiver<Job>>,
    done: &mpsc::Sender<Done>,
    scheme: Arc<dyn EccScheme>,
    chunk_size: usize,
) {
    // One sequential codec per worker: shard-level parallelism comes from
    // the ring, so per-shard encode stays single-threaded and allocation
    // free. Construction was already validated by the encoder's own codec;
    // if it fails here anyway, exiting turns into a clean `ArcError::Io`
    // on the encoder side.
    let Ok(codec) = ParallelCodec::with_chunk_size(scheme, 1, chunk_size) else {
        return;
    };
    loop {
        let job = {
            let rx = match jobs.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            match rx.recv() {
                Ok(j) => j,
                Err(_) => return,
            }
        };
        let Job { seq, data, mut out } = job;
        codec.encode_into(&data, &mut out);
        let crc = crc32(&data);
        if done.send(Done { seq, data, out, crc }).is_err() {
            return;
        }
    }
}

impl Ring {
    fn start(
        scheme: Arc<dyn EccScheme>,
        chunk_size: usize,
        workers: usize,
    ) -> Result<Ring, ArcError> {
        let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
        let (done_tx, done_rx) = mpsc::channel::<Done>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        let mut ring = Ring { jobs_tx: Some(jobs_tx), done_rx, handles: Vec::new() };
        for i in 0..workers {
            let rx = Arc::clone(&jobs_rx);
            let tx = done_tx.clone();
            let scheme = Arc::clone(&scheme);
            let handle = thread::Builder::new()
                .name(format!("arc-stream-{i}"))
                .spawn(move || worker_loop(&rx, &tx, scheme, chunk_size))
                .map_err(|e| ArcError::Io(format!("stream worker spawn: {e}")))?;
            ring.handles.push(handle);
        }
        // `done_tx` clones live in the workers; dropping the original here
        // makes `done_rx` disconnect exactly when the last worker exits.
        Ok(ring)
    }
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
    /// Sequential codec for geometry (and inline encode when `workers`
    /// is 0).
    codec: Codec,
    shard_size: usize,
    ring_cap: usize,
    workers: usize,
    hlen: usize,
    staging: Vec<u8>,
    crc: Crc32,
    data_len: usize,
    payload_pos: usize,
    entries: Vec<ShardEntry>,
    next_seq: usize,
    outstanding: usize,
    free_data: Vec<Vec<u8>>,
    free_out: Vec<Vec<u8>>,
    ring: Option<Ring>,
    backpressure_waits: u64,
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
        if opts.ring == 0 {
            return Err(ArcError::InvalidRequest("ring capacity must be >= 1".into()));
        }
        let codec = ParallelCodec::with_chunk_size(Arc::clone(&scheme), 1, opts.chunk_size)?;
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
        let hlen = container::header_len(&meta);
        let workers = resolve_threads(opts.threads);
        let ring = if workers > 1 {
            Some(Ring::start(scheme, opts.chunk_size, workers.min(opts.ring))?)
        } else {
            None
        };
        let workers = ring.as_ref().map(|r| r.handles.len()).unwrap_or(0);
        Ok(StreamEncoder {
            sink,
            scheme_id,
            codec,
            shard_size: opts.shard_size,
            ring_cap: opts.ring,
            workers,
            hlen,
            staging: Vec::with_capacity(opts.shard_size),
            crc: Crc32::new(),
            data_len: 0,
            payload_pos: 0,
            entries: Vec::new(),
            next_seq: 0,
            outstanding: 0,
            free_data: Vec::new(),
            free_out: Vec::new(),
            ring,
            backpressure_waits: 0,
        })
    }

    /// Append `bytes` to the stream. Blocks only when the ring is full
    /// (back-pressure), never on the sink.
    ///
    /// Full shards that are entirely contained in `bytes` take a
    /// zero-copy fast path: with nothing staged, the shard is encoded
    /// (or handed to a worker) straight from the caller's buffer, so
    /// large pushes skip the staging memcpy entirely. Output bytes are
    /// identical either way.
    pub fn push(&mut self, mut bytes: &[u8]) -> Result<(), ArcError> {
        while !bytes.is_empty() {
            if self.staging.is_empty() && bytes.len() >= self.shard_size {
                let (shard, rest) = bytes.split_at(self.shard_size);
                self.crc.update(shard);
                self.data_len += shard.len();
                self.submit_slice(shard)?;
                bytes = rest;
                continue;
            }
            let room = self.shard_size - self.staging.len();
            let take = room.min(bytes.len());
            self.staging.extend_from_slice(&bytes[..take]);
            self.crc.update(&bytes[..take]);
            self.data_len += take;
            bytes = &bytes[take..];
            if self.staging.len() == self.shard_size {
                self.submit_shard()?;
            }
        }
        Ok(())
    }

    /// Receive one finished shard, write it at its (pre-computed) payload
    /// offset, and recycle its buffers. Completion order is arbitrary;
    /// output bytes are not, because every write is positional.
    fn reap_one(&mut self) -> Result<(), ArcError> {
        let done = match &self.ring {
            Some(r) => {
                r.done_rx.recv().map_err(|_| ArcError::Io("stream worker terminated".into()))?
            }
            None => return Err(ArcError::Io("stream ring is not running".into())),
        };
        let offset = self
            .entries
            .get(done.seq)
            .map(|e| e.offset)
            .ok_or_else(|| ArcError::Io("stream completion out of range".into()))?;
        self.sink.write_at(self.hlen + offset, &done.out)?;
        if let Some(e) = self.entries.get_mut(done.seq) {
            e.crc = done.crc;
        }
        self.outstanding -= 1;
        if self.free_data.len() <= self.ring_cap {
            self.free_data.push(done.data);
        }
        if self.free_out.len() <= self.ring_cap {
            self.free_out.push(done.out);
        }
        Ok(())
    }

    /// Validate a shard's lengths against the index's u32 fields, assign
    /// its payload offset, and push its (CRC-pending) index entry.
    /// Returns `(offset, encoded_len)`.
    fn reserve_entry(&mut self, decoded_len: usize) -> Result<(usize, usize), ArcError> {
        let encoded_len = self.codec.encoded_len(decoded_len);
        if encoded_len > u32::MAX as usize || decoded_len > u32::MAX as usize {
            return Err(ArcError::InvalidRequest(format!(
                "shard of {decoded_len} bytes overflows the index's u32 length fields"
            )));
        }
        let offset = self.payload_pos;
        self.payload_pos = offset
            .checked_add(encoded_len)
            .ok_or_else(|| ArcError::InvalidRequest("payload length overflows".into()))?;
        // The CRC slot is filled when the shard's encode completes.
        self.entries.push(ShardEntry { offset, encoded_len, decoded_len, crc: 0 });
        Ok((offset, encoded_len))
    }

    /// Back-pressure: reap completed shards until the ring has a free slot.
    fn wait_for_slot(&mut self) -> Result<(), ArcError> {
        while self.outstanding >= self.ring_cap {
            self.backpressure_waits += 1;
            self.reap_one()?;
        }
        Ok(())
    }

    /// Hand one prepared `(data, out)` pair to the workers.
    fn send_job(&mut self, data: Vec<u8>, out: Vec<u8>) -> Result<(), ArcError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let tx = self
            .ring
            .as_ref()
            .and_then(|r| r.jobs_tx.as_ref())
            .ok_or_else(|| ArcError::Io("stream ring is not running".into()))?;
        tx.send(Job { seq, data, out })
            .map_err(|_| ArcError::Io("stream worker terminated".into()))?;
        self.outstanding += 1;
        Ok(())
    }

    /// Submit the staged (full or tail) shard.
    fn submit_shard(&mut self) -> Result<(), ArcError> {
        if self.ring.is_none() {
            // Inline mode: route through the slice path so the encode
            // reads the staged bytes directly; `take` + restore keeps the
            // staging capacity across shards.
            let staged = std::mem::take(&mut self.staging);
            let result = self.submit_slice(&staged);
            self.staging = staged;
            self.staging.clear();
            return result;
        }
        let (_, encoded_len) = self.reserve_entry(self.staging.len())?;
        self.wait_for_slot()?;
        let mut out = self.free_out.pop().unwrap_or_default();
        // arc-lint: bounded(encoded_len computed by the codec from the caller's shard, not decoded input)
        out.resize(encoded_len, 0);
        let mut data = self.free_data.pop().unwrap_or_default();
        data.clear();
        // Swap, don't copy: the staged buffer becomes the job's and a
        // recycled one becomes the next staging area.
        std::mem::swap(&mut data, &mut self.staging);
        self.send_job(data, out)
    }

    /// Submit one full shard straight from the caller's buffer. Inline
    /// mode encodes from the slice with no staging copy; ring mode copies
    /// it into a recycled job buffer — the one copy a hand-off to another
    /// thread requires, and the same copy the staging path would have made.
    fn submit_slice(&mut self, shard: &[u8]) -> Result<(), ArcError> {
        let (offset, encoded_len) = self.reserve_entry(shard.len())?;
        if self.ring.is_some() {
            self.wait_for_slot()?;
            let mut out = self.free_out.pop().unwrap_or_default();
            // arc-lint: bounded(encoded_len computed by the codec from the caller's slice, not decoded input)
            out.resize(encoded_len, 0);
            let mut data = self.free_data.pop().unwrap_or_default();
            data.clear();
            data.extend_from_slice(shard);
            self.send_job(data, out)
        } else {
            let mut out = self.free_out.pop().unwrap_or_default();
            // arc-lint: bounded(encoded_len computed by the codec from the caller's slice, not decoded input)
            out.resize(encoded_len, 0);
            self.codec.encode_into(shard, &mut out);
            if let Some(e) = self.entries.last_mut() {
                e.crc = crc32(shard);
            }
            self.next_seq += 1;
            self.sink.write_at(self.hlen + offset, &out)?;
            self.free_out.push(out);
            Ok(())
        }
    }

    /// Flush the partial tail shard, drain the ring, write the triplicated
    /// index, back-patch the header, and return the sink. The container
    /// depends only on the concatenation of every pushed slice and on the
    /// scheme, shard size and chunk size — never on how the input was cut
    /// into pushes, on `threads`, or on `ring`.
    pub fn finish(mut self) -> Result<(S, StreamEncodeStats), ArcError> {
        if !self.staging.is_empty() {
            self.submit_shard()?;
        }
        while self.outstanding > 0 {
            self.reap_one()?;
        }
        // Join the workers before sealing the container so a worker that
        // died mid-shard can't leave a silently unwritten region.
        self.ring = None;
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
            ring: self.ring_cap,
            backpressure_waits: self.backpressure_waits,
        };
        Ok((self.sink, stats))
    }
}

/// One-shot v2 encode, the body of every `encode_sharded*` entry point:
/// the whole input pushed once through a [`StreamEncoder`] whose sink is a
/// `Vec` reserved to the container's exact length, on as many ring workers
/// as `threads` resolves to.
pub(crate) fn encode_oneshot(
    data: &[u8],
    scheme: Resolved,
    threads: usize,
    chunk_size: usize,
    shard_size: usize,
) -> Result<Vec<u8>, ArcError> {
    let threads = resolve_threads(threads);
    let opts = StreamOptions { threads, shard_size, chunk_size, ring: threads };
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

/// Workers worth dispatching for a batch totalling `total` bytes — the
/// same bytes-per-thread floor [`ParallelCodec::effective_workers`]
/// applies, but over the batch's *aggregate* size, which is the point of
/// coalescing: many below-floor requests still fill a pool.
fn batch_workers(scheme: &dyn EccScheme, threads: usize, total: usize) -> usize {
    let threads = resolve_threads(threads);
    if threads <= 1 {
        return 1;
    }
    let floor = scheme.min_bytes_per_thread().max(1);
    threads.min(total / floor).max(1)
}

/// Encode many independent requests as one flat pool pass.
///
/// Each element of the result is byte-identical to
/// [`crate::arc_engine_encode`] of the corresponding request — every
/// container is a `container::mono_frame` of the v1 writer — and only the
/// scheduling differs: chunk jobs from *all* requests land in one list
/// driven by a single pool, so requests individually below the scheme's
/// bytes-per-thread floor still parallelize in aggregate.
pub fn encode_batch(
    requests: &[&[u8]],
    config: EccConfig,
    threads: usize,
) -> Result<Vec<Vec<u8>>, ArcError> {
    let (scheme_id, scheme) = builtin_scheme(config);
    let codec = ParallelCodec::with_chunk_size(scheme, 1, DEFAULT_CHUNK_SIZE)?;
    let scheme = codec.config().as_ref();
    let total: usize = requests.iter().map(|d| d.len()).sum();
    let frames: Result<Vec<_>, _> =
        requests.iter().map(|data| container::mono_frame(data, &codec, &scheme_id)).collect();
    let mut frames = frames?;
    // One flat chunk-job list across every request.
    let mut jobs: Vec<(&[u8], &mut [u8], &mut [u8])> = Vec::new();
    for (data, (out, hlen)) in requests.iter().zip(frames.iter_mut()) {
        let region = &mut out[*hlen..];
        let (mut data_rest, mut parity_rest) = region.split_at_mut(data.len());
        for chunk in data.chunks(codec.chunk_size()) {
            let (d, rest) = data_rest.split_at_mut(chunk.len());
            data_rest = rest;
            let (p, rest) = parity_rest.split_at_mut(scheme.parity_len(chunk.len()));
            parity_rest = rest;
            jobs.push((chunk, d, p));
        }
    }
    let run = |(src, dst, parity): &mut (&[u8], &mut [u8], &mut [u8])| {
        dst.copy_from_slice(src);
        scheme.encode_parity_into(src, parity);
    };
    let workers = batch_workers(scheme, threads, total);
    if workers > 1 && jobs.len() > 1 {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .thread_name(|i| format!("arc-batch-{i}"))
            .build()
            .map_err(|e| ArcError::Io(format!("thread pool: {e}")))?;
        pool.install(|| jobs.par_iter_mut().for_each(run));
    } else {
        jobs.iter_mut().for_each(run);
    }
    Ok(frames.into_iter().map(|(out, _)| out).collect())
}

/// Per-container outcome of [`decode_batch`]: the decoded bytes and report,
/// or the first error hit while decoding that container.
type DecodeOutcome = Result<(Vec<u8>, ArcDecodeReport), ArcError>;

/// Decode many independent containers as one flat pool pass.
///
/// Order-preserving; each element equals what
/// [`crate::decode_with_threads`] returns for that container. Failures are
/// per-item — one corrupt container never poisons its batch.
pub fn decode_batch(containers: &[&[u8]], threads: usize) -> Vec<DecodeOutcome> {
    let workers = resolve_threads(threads).min(containers.len()).max(1);
    let mut slots: Vec<Option<DecodeOutcome>> = Vec::new();
    slots.resize_with(containers.len(), || None);
    let mut jobs: Vec<(&[u8], &mut Option<DecodeOutcome>)> =
        containers.iter().copied().zip(slots.iter_mut()).collect();
    let run = |(bytes, slot): &mut (&[u8], &mut Option<_>)| {
        **slot = Some(decode_with_threads(bytes, 1));
    };
    let pool = if workers > 1 {
        rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .thread_name(|i| format!("arc-batch-{i}"))
            .build()
            .ok()
    } else {
        None
    };
    match pool {
        Some(pool) => pool.install(|| jobs.par_iter_mut().for_each(run)),
        None => jobs.iter_mut().for_each(run),
    }
    slots
        .into_iter()
        .map(|s| s.unwrap_or_else(|| Err(ArcError::Io("batch slot unfilled".into()))))
        .collect()
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
