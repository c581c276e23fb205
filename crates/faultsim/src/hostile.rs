//! Deterministic structure-aware hostile-input harness.
//!
//! Where [`crate::trial`] reproduces the paper's *random single-bit* fault
//! model (§4.2), this module attacks the decoders the way a hostile or
//! badly-corrupted storage layer would: seeded multi-bit flips, truncation
//! at every header boundary, length-field inflation, and valid-header /
//! garbage-body splices. The contract under test is **totality**, not
//! correctness: every decode must either return data or return an error —
//! never panic (the paper's *Terminated* class), and never demand unbounded
//! output (corrupted loop-controlling metadata) or hang past a wall-clock
//! guard (both the paper's *Timeout* class).
//!
//! A decode that "succeeds" and hands back garbage is acceptable here —
//! that is the paper's *Completed* class, and detecting it is ARC's job
//! (ECC + end-to-end CRC), not the codec's. A typed error is the
//! *Compressor Exception* class, the ideal outcome.
//!
//! Every case is reproducible: mutation positions derive from
//! [`HostileConfig::seed`] XOR an FNV-1a hash of the stream name, so a
//! failure report's `(target, stream, case)` triple pins down the exact
//! corrupt buffer.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inject::{flip_bit, sample_bits};
use crate::trial::ReturnStatus;

/// Tuning knobs for a hostile sweep.
#[derive(Debug, Clone)]
pub struct HostileConfig {
    /// Master seed; every mutation position derives from it.
    pub seed: u64,
    /// Random multi-bit-flip cases per stream.
    pub flips: usize,
    /// Body truncation cases per stream (header boundaries are always all
    /// exercised on top of these).
    pub truncations: usize,
    /// Length-field-inflation cases per stream (0xFF runs stamped into the
    /// header region).
    pub inflations: usize,
    /// Valid-header / garbage-body splice cases per stream.
    pub splices: usize,
    /// Wall-clock guard per case; a decode still running after this is the
    /// paper's *Timeout* class and a harness failure.
    pub max_case_duration: Duration,
    /// Output-byte budget handed to each decoder; producing (or demanding)
    /// more is a harness failure, reported in the *Timeout* class.
    pub max_output_bytes: u64,
}

impl Default for HostileConfig {
    fn default() -> HostileConfig {
        HostileConfig {
            seed: 0xA5C0_FFEE,
            flips: 64,
            truncations: 32,
            inflations: 16,
            splices: 6,
            max_case_duration: Duration::from_secs(2),
            max_output_bytes: 32 << 20,
        }
    }
}

impl HostileConfig {
    /// A reduced configuration sized for CI unit tests (fewer cases, the
    /// same four mutation families).
    pub fn quick() -> HostileConfig {
        HostileConfig {
            flips: 12,
            truncations: 6,
            inflations: 4,
            splices: 2,
            ..HostileConfig::default()
        }
    }
}

/// A pristine encoded stream plus a hint where its header region ends,
/// used to focus truncation and inflation attacks on structure-bearing
/// bytes.
#[derive(Debug, Clone)]
pub struct GoldenStream {
    /// Label used in failure reports and per-stream seeding.
    pub name: String,
    /// The pristine encoded bytes.
    pub bytes: Vec<u8>,
    /// Byte length of the header/metadata region (clamped to the stream
    /// length when attacks are generated).
    pub header_len: usize,
    /// Byte length of trailing structure (e.g. the triplicated shard index
    /// of a v2 sharded container); 0 for streams whose metadata all lives
    /// up front. When non-zero, three extra mutation families attack the
    /// trailer: truncation at every boundary through it, inflation runs
    /// inside it, and payload/trailer splices.
    pub trailer_len: usize,
}

/// A decode entry point under test. Takes the (possibly corrupt) bytes and
/// an output-byte budget; returns the number of output bytes produced, or
/// a rejection reason.
pub type DecodeFn = Arc<dyn Fn(&[u8], u64) -> Result<u64, String> + Send + Sync>;

/// One decoder plus the golden streams it will be attacked through.
#[derive(Clone)]
pub struct DecodeTarget {
    /// Decoder label (e.g. `"sz"`, `"container"`).
    pub name: String,
    /// Pristine streams this decoder accepts.
    pub streams: Vec<GoldenStream>,
    /// The fallible decode entry point.
    pub decode: DecodeFn,
}

impl std::fmt::Debug for DecodeTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeTarget")
            .field("name", &self.name)
            .field("streams", &self.streams.len())
            .finish()
    }
}

/// A contract-violating case, with enough context to reproduce it.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// Decoder label.
    pub target: String,
    /// Golden stream label.
    pub stream: String,
    /// Mutation case label (family + deterministic position info).
    pub case: String,
    /// The violating status.
    pub status: ReturnStatus,
    /// What [`run_case`] saw: the panic message, the output byte count or
    /// the guard that fired.
    pub detail: String,
}

impl std::fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Self { target, stream, case, status, detail } = self;
        write!(f, "{target}/{stream}/{case}: {}: {detail}", status.label())
    }
}

/// Aggregate result of a hostile sweep.
#[derive(Debug, Clone, Default)]
pub struct HostileReport {
    /// Cases per return status, in [`ReturnStatus::ALL`] order.
    pub counts: [usize; 4],
    /// Every contract-violating case.
    pub failures: Vec<CaseFailure>,
    /// Slowest observed case.
    pub worst_case: Duration,
}

impl HostileReport {
    /// Total cases executed.
    pub fn cases(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Cases that ended in `status`.
    pub fn count(&self, status: ReturnStatus) -> usize {
        self.counts.get(status as usize).copied().unwrap_or(0)
    }

    /// True when no case panicked, hung, or blew the output budget.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        let counts: Vec<String> =
            ReturnStatus::ALL.iter().map(|&s| format!("{} {}", self.count(s), s.label())).collect();
        format!("{} cases: {} (worst case {:?})", self.cases(), counts.join(", "), self.worst_case)
    }

    fn record(
        &mut self,
        target: &str,
        stream: &str,
        case: &str,
        status: ReturnStatus,
        detail: String,
    ) {
        if let Some(count) = self.counts.get_mut(status as usize) {
            *count += 1;
        }
        // A panic, a hang or an over-budget output breaks the contract.
        if matches!(status, ReturnStatus::Terminated | ReturnStatus::Timeout) {
            self.failures.push(CaseFailure {
                target: target.to_string(),
                stream: stream.to_string(),
                case: case.to_string(),
                status,
                detail,
            });
        }
    }
}

/// FNV-1a over a byte string — a tiny, dependency-free stable hash used to
/// derive a per-stream seed from the master seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Generate every labeled hostile mutation of `stream` under `cfg`.
///
/// Four families, all deterministic in `cfg.seed` and the stream name:
///
/// 1. **Bit flips** — `cfg.flips` buffers each with 1–8 seeded flips.
/// 2. **Truncations** — one case per byte boundary through the header
///    region (catching every partial-header length) plus `cfg.truncations`
///    sampled body cut points.
/// 3. **Inflations** — 0xFF runs stamped over header bytes, the classic
///    way to blow up length/count fields.
/// 4. **Splices** — the pristine header followed by garbage bodies
///    (zeros, 0xFF, seeded noise) at assorted lengths.
///
/// Streams with a non-zero `trailer_len` (v2 sharded containers) get three
/// more families aimed at the trailing shard index:
///
/// 5. **Trailer truncation** — one case per byte boundary through the
///    trailer, so every partial-index length is exercised.
/// 6. **Trailer inflation** — 0xFF runs stamped inside the trailer.
/// 7. **Trailer splices** — pristine payload with a garbage trailer, and
///    pristine trailer with a garbage payload (the index then points into
///    noise).
pub fn mutations(stream: &GoldenStream, cfg: &HostileConfig) -> Vec<(String, Vec<u8>)> {
    let bytes = &stream.bytes;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ fnv1a(stream.name.as_bytes()));
    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
    if bytes.is_empty() {
        return cases;
    }
    let total_bits = bytes.len() as u64 * 8;
    let header_end = stream.header_len.min(bytes.len());

    // Family 1: multi-bit flips.
    for i in 0..cfg.flips {
        let nflips = 1 + (i % 8);
        let case_seed: u64 = rng.random();
        let mut buf = bytes.clone();
        for bit in sample_bits(total_bits, nflips.min(total_bits as usize), case_seed) {
            flip_bit(&mut buf, bit);
        }
        cases.push((format!("flip{i}x{nflips}"), buf));
    }

    // Family 2: truncation at every header boundary, then sampled body cuts.
    for cut in 0..=header_end {
        cases.push((format!("trunc-hdr{cut}"), bytes[..cut].to_vec()));
    }
    for i in 0..cfg.truncations {
        let cut = rng.random_range(0..bytes.len());
        cases.push((format!("trunc-body{i}@{cut}"), bytes[..cut].to_vec()));
    }

    // Family 3: length-field inflation — 0xFF runs in the header region.
    for i in 0..cfg.inflations {
        let run = [2usize, 5, 8][i % 3];
        let at = rng.random_range(0..header_end.max(1));
        let mut buf = bytes.clone();
        for b in buf.iter_mut().skip(at).take(run) {
            *b = 0xFF;
        }
        cases.push((format!("inflate{i}@{at}x{run}"), buf));
    }

    // Family 4: pristine header, hostile body.
    let body_lens = [bytes.len().saturating_sub(header_end), 16, 1024];
    for i in 0..cfg.splices {
        let body_len = body_lens[i % body_lens.len()];
        let mut buf = bytes[..header_end].to_vec();
        match i % 3 {
            0 => buf.extend(std::iter::repeat_n(0u8, body_len)),
            1 => buf.extend(std::iter::repeat_n(0xFFu8, body_len)),
            _ => buf.extend((0..body_len).map(|_| rng.random::<u8>())),
        }
        cases.push((format!("splice{i}x{body_len}"), buf));
    }

    // Families 5–7: trailer attacks, only for streams with trailing
    // structure (the triplicated shard index of a v2 container).
    let trailer_len = stream.trailer_len.min(bytes.len().saturating_sub(header_end));
    if trailer_len > 0 {
        let trailer_start = bytes.len() - trailer_len;

        // Family 5: truncation at every boundary through the trailer.
        for cut in trailer_start..bytes.len() {
            cases.push((format!("trunc-tail{cut}"), bytes[..cut].to_vec()));
        }

        // Family 6: 0xFF runs inside the trailer.
        for i in 0..cfg.inflations {
            let run = [3usize, 8, 21][i % 3];
            let at = trailer_start + rng.random_range(0..trailer_len);
            let mut buf = bytes.clone();
            for b in buf.iter_mut().skip(at).take(run) {
                *b = 0xFF;
            }
            cases.push((format!("inflate-tail{i}@{at}x{run}"), buf));
        }

        // Family 7: payload/trailer splices. Even cases keep the payload
        // and replace the trailer; odd cases keep the trailer and replace
        // the payload (a valid-looking index over noise).
        for i in 0..cfg.splices.max(2) {
            let mut buf = bytes.clone();
            let (lo, hi) =
                if i % 2 == 0 { (trailer_start, bytes.len()) } else { (header_end, trailer_start) };
            match i % 3 {
                0 => buf[lo..hi].fill(0),
                1 => buf[lo..hi].fill(0xFF),
                _ => {
                    for b in &mut buf[lo..hi] {
                        *b = rng.random();
                    }
                }
            }
            let region = if i % 2 == 0 { "tail" } else { "body" };
            cases.push((format!("splice-{region}{i}"), buf));
        }
    }

    cases
}

/// Render a panic payload as text without re-panicking.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one decode attempt under the totality contract, returning its
/// class, what decided it (the rejection reason, the output byte count, the
/// panic message or the guard that fired) and its wall time.
///
/// The decode runs on a fresh thread so a hang can be abandoned: on
/// timeout the worker is leaked (it holds only its own copy of the buffer)
/// and the case is reported as [`ReturnStatus::Timeout`]. So is a decode
/// that produces more than [`HostileConfig::max_output_bytes`].
pub fn run_case(
    decode: &DecodeFn,
    bytes: &[u8],
    cfg: &HostileConfig,
) -> (ReturnStatus, String, Duration) {
    let (tx, rx) = mpsc::channel();
    let decode = Arc::clone(decode);
    let buf = bytes.to_vec();
    let budget = cfg.max_output_bytes;
    let start = Instant::now();
    thread::spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(|| decode(&buf, budget)));
        let _ = tx.send(result);
    });
    let (status, detail) = match rx.recv_timeout(cfg.max_case_duration) {
        Err(_) => {
            (ReturnStatus::Timeout, format!("still running after {:?}", cfg.max_case_duration))
        }
        Ok(Err(payload)) => (ReturnStatus::Terminated, panic_message(payload)),
        Ok(Ok(Err(reason))) => (ReturnStatus::CompressorException, reason),
        Ok(Ok(Ok(produced))) if produced > budget => {
            (ReturnStatus::Timeout, format!("{produced} output bytes over a {budget}-byte budget"))
        }
        Ok(Ok(Ok(produced))) => (ReturnStatus::Completed, format!("{produced} output bytes")),
    };
    (status, detail, start.elapsed())
}

/// Sweep every mutation of every stream of every target.
pub fn sweep(targets: &[DecodeTarget], cfg: &HostileConfig) -> HostileReport {
    let mut report = HostileReport::default();
    for target in targets {
        for stream in &target.streams {
            for (case, buf) in mutations(stream, cfg) {
                let (status, detail, elapsed) = run_case(&target.decode, &buf, cfg);
                report.worst_case = report.worst_case.max(elapsed);
                report.record(&target.name, &stream.name, &case, status, detail);
            }
        }
    }
    report
}

/// The smooth 2-D field used to build golden streams (48×48, the same
/// shape class as the paper's SDRBench fields, scaled down for speed).
fn golden_field() -> (Vec<f32>, Vec<usize>) {
    let dims = vec![48usize, 48];
    let data: Vec<f32> = (0..48 * 48)
        .map(|i| {
            let (r, c) = (i / 48, i % 48);
            ((r as f32) * 0.13).sin() * 4.0 + ((c as f32) * 0.07).cos() * 2.5 + 0.5
        })
        .collect();
    (data, dims)
}

/// Build one [`DecodeTarget`] per decode entry point in the workspace:
/// SZ, ZFP, the zstd-like lossless codec, and the ARC ECC container (one
/// golden stream per built-in scheme family).
///
/// Stream construction is infallible in practice; if an encoder ever
/// refuses its golden input the stream is simply omitted (the sweep tests
/// assert the corpus is non-empty).
pub fn builtin_targets() -> Vec<DecodeTarget> {
    let (data, dims) = golden_field();
    let mut targets: Vec<DecodeTarget> = Vec::new();

    // SZ: error-bounded prediction + quantization, ~48-byte header.
    let mut sz_streams = Vec::new();
    for (label, bound) in
        [("sz-abs", arc_sz::ErrorBound::Abs(1e-3)), ("sz-pwrel", arc_sz::ErrorBound::PwRel(1e-2))]
    {
        let cfg = arc_sz::SzConfig { bound, ..arc_sz::SzConfig::default() };
        if let Ok(bytes) = arc_sz::compress(&data, &dims, &cfg) {
            sz_streams.push(GoldenStream {
                name: label.to_string(),
                bytes,
                header_len: 48,
                trailer_len: 0,
            });
        }
    }
    targets.push(DecodeTarget {
        name: "sz".to_string(),
        streams: sz_streams,
        decode: Arc::new(|b, budget| {
            arc_sz::decompress_with_limits(b, (budget / 4).max(1))
                .map(|d| d.data.len() as u64 * 4)
                .map_err(|e| e.to_string())
        }),
    });

    // ZFP: transform coding, ~32-byte header.
    let mut zfp_streams = Vec::new();
    for (label, mode) in [
        ("zfp-acc", arc_zfp::ZfpMode::FixedAccuracy(1e-3)),
        ("zfp-rate", arc_zfp::ZfpMode::FixedRate(8.0)),
    ] {
        if let Ok(bytes) = arc_zfp::compress(&data, &dims, mode) {
            zfp_streams.push(GoldenStream {
                name: label.to_string(),
                bytes,
                header_len: 32,
                trailer_len: 0,
            });
        }
    }
    targets.push(DecodeTarget {
        name: "zfp".to_string(),
        streams: zfp_streams,
        decode: Arc::new(|b, budget| {
            arc_zfp::decompress_with_limits(b, (budget / 4).max(1))
                .map(|d| d.data.len() as u64 * 4)
                .map_err(|e| e.to_string())
        }),
    });

    // arc-pressio's slab frame: the golden field as three 16-row slabs,
    // assembled by the writer the slab planner feeds. The frame head is 74
    // bytes (magic, version, two dims, count, three table rows); the header
    // region adds the first slab's codec header, so truncation and
    // inflation reach every table field.
    let ds = arc_pressio::Dataset { data: &data, dims: &dims };
    let slab_streams = [
        ("slabs-sz-abs", arc_pressio::CompressorSpec::SzAbs(1e-3)),
        ("slabs-zfp-rate", arc_pressio::CompressorSpec::ZfpRate(8.0)),
    ];
    let slab_streams = slab_streams.into_iter().filter_map(|(label, spec)| {
        Some(GoldenStream {
            name: label.to_string(),
            bytes: spec.compress_rows(&ds, &[16, 16, 16]).ok()?,
            header_len: 112,
            trailer_len: 0,
        })
    });
    targets.push(DecodeTarget {
        name: "pressio-slabs".to_string(),
        streams: slab_streams.collect(),
        decode: Arc::new(|b, budget| {
            arc_pressio::decompress(b, (budget / 4).max(1))
                .map(|d| d.data.len() as u64 * 4)
                .map_err(|e| e.to_string())
        }),
    });

    // The lossless codec over a compressible byte corpus.
    let text: Vec<u8> =
        b"the quick brown fox jumps over the lazy dog 0123456789 ".repeat(96).to_vec();
    targets.push(DecodeTarget {
        name: "zstd-like".to_string(),
        streams: vec![GoldenStream {
            name: "zstd-text".to_string(),
            bytes: arc_lossless::zstd_like::compress(&text),
            header_len: 64,
            trailer_len: 0,
        }],
        decode: Arc::new(|b, budget| {
            arc_lossless::zstd_like::decompress_with_limit(b, budget)
                .map(|v| v.len() as u64)
                .map_err(|e| e.to_string())
        }),
    });

    // ARC ECC containers, one stream per built-in scheme family. The
    // container header is fully RS-protected, so its length is the most
    // interesting truncation range.
    let payload: Vec<u8> = (0..24_000u32).map(|i| (i.wrapping_mul(31) % 251) as u8).collect();
    let mut container_streams = Vec::new();
    let configs = [
        ("ecc-parity", arc_ecc::EccConfig::parity(8).ok()),
        ("ecc-secded", Some(arc_ecc::EccConfig::secded(true))),
        ("ecc-rs", arc_ecc::EccConfig::rs(16, 4).ok()),
    ];
    for (label, config) in configs {
        let Some(config) = config else { continue };
        if let Ok(bytes) = arc_core::arc_engine_encode(&payload, config, 1) {
            // The header occupies everything before the payload; probe its
            // true length from the pristine container so every boundary in
            // `0..=header_len` is exercised.
            let header_len = arc_core::container::unpack(&bytes)
                .map(|u| bytes.len() - u.payload.len())
                .unwrap_or(128);
            container_streams.push(GoldenStream {
                name: label.to_string(),
                bytes,
                header_len,
                trailer_len: 0,
            });
        }
    }
    // v2 sharded containers: same payload, small shards so the triplicated
    // trailing index is a meaningful fraction of the stream. `trailer_len`
    // marks it, enabling the trailer mutation families.
    let mut sharded_streams = Vec::new();
    let v2_configs = [
        ("ecc-secded-v2", Some(arc_ecc::EccConfig::secded(true))),
        ("ecc-rs-v2", arc_ecc::EccConfig::rs(16, 4).ok()),
    ];
    for (label, config) in v2_configs {
        let Some(config) = config else { continue };
        if let Ok(bytes) = arc_core::arc_engine_encode_sharded(&payload, config, 1, 2048) {
            let (header_len, trailer_len) = arc_core::container::unpack(&bytes)
                .map(|u| (u.payload_offset, u.meta.sharding.map_or(0, |s| 3 * s.index_len)))
                .unwrap_or((128, 0));
            sharded_streams.push(GoldenStream {
                name: label.to_string(),
                bytes,
                header_len,
                trailer_len,
            });
        }
    }
    container_streams.extend(sharded_streams.iter().cloned());
    targets.push(DecodeTarget {
        name: "container".to_string(),
        streams: container_streams,
        decode: Arc::new(|b, _budget| {
            arc_core::arc_engine_decode(b, 1)
                .map(|(data, _report)| data.len() as u64)
                .map_err(|e| e.to_string())
        }),
    });

    // The random-access reader over the same v2 streams: open + a spread
    // of range reads (start, middle straddling a shard boundary, end).
    // Repeats hit the shard cache, so cache paths see hostile bytes too.
    targets.push(DecodeTarget {
        name: "container-range".to_string(),
        streams: sharded_streams,
        decode: Arc::new(|b, _budget| {
            let mut reader = arc_core::ArcReader::open(b, 1).map_err(|e| e.to_string())?;
            let n = reader.data_len();
            let mut produced = 0u64;
            let probes = [
                (0usize, n.min(512)),
                (n / 2, (n / 3).min(n - n / 2)),
                (n.saturating_sub(100), n.min(100)),
                (0, n.min(512)),
            ];
            for (off, len) in probes {
                let (out, _) = reader.decode_range(off, len).map_err(|e| e.to_string())?;
                produced += out.len() as u64;
            }
            Ok(produced)
        }),
    });

    // Extension-registry containers: one v2 sharded golden stream per
    // stock extension family, attacked through both registry-aware decode
    // surfaces — the one-shot `decode_with_registry` and the random-access
    // reader. These are exactly the paths the extension support routes
    // through the shared shard walk, so hostile bytes must be rejected there
    // with the same totality as for built-ins.
    let ext_payload: Vec<u8> = (0..12_000u32).map(|i| (i.wrapping_mul(37) % 249) as u8).collect();
    let mut ext_streams: Vec<(String, GoldenStream)> = Vec::new();
    if let Ok(registry) = arc_core::standard_extensions() {
        for name in registry.ids() {
            let Ok(bytes) =
                arc_core::encode_sharded_with_scheme(&ext_payload, &registry, &name, 1, 4096)
            else {
                continue;
            };
            let (header_len, trailer_len) = arc_core::container::unpack(&bytes)
                .map(|u| (u.payload_offset, u.meta.sharding.map_or(0, |s| 3 * s.index_len)))
                .unwrap_or((128, 0));
            let stream =
                GoldenStream { name: format!("ext-{name}-v2"), bytes, header_len, trailer_len };
            ext_streams.push((name, stream));
        }
    }
    for (name, stream) in &ext_streams {
        targets.push(DecodeTarget {
            name: format!("ext-{name}"),
            streams: vec![stream.clone()],
            decode: Arc::new(|b, _budget| {
                let registry = arc_core::standard_extensions().map_err(|e| e.to_string())?;
                arc_core::decode_with_registry(b, 1, &registry)
                    .map(|(data, _report)| data.len() as u64)
                    .map_err(|e| e.to_string())
            }),
        });
    }
    let all_ext: Vec<GoldenStream> = ext_streams.into_iter().map(|(_, s)| s).collect();
    targets.push(DecodeTarget {
        name: "ext-range".to_string(),
        streams: all_ext,
        decode: Arc::new(|b, _budget| {
            let registry = arc_core::standard_extensions().map_err(|e| e.to_string())?;
            let mut reader = arc_core::ArcReader::open_with_registry(b, 1, &registry)
                .map_err(|e| e.to_string())?;
            let n = reader.data_len();
            let mut produced = 0u64;
            let probes = [
                (0usize, n.min(256)),
                (n / 2, (n / 4).min(n - n / 2)),
                (n.saturating_sub(64), n.min(64)),
            ];
            for (off, len) in probes {
                let (out, _) = reader.decode_range(off, len).map_err(|e| e.to_string())?;
                produced += out.len() as u64;
            }
            Ok(produced)
        }),
    });
    targets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_covers_every_decoder() {
        let targets = builtin_targets();
        let names: Vec<&str> = targets.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "sz",
                "zfp",
                "pressio-slabs",
                "zstd-like",
                "container",
                "container-range",
                "ext-bch",
                "ext-ileave-rs",
                "ext-range",
            ]
        );
        for t in &targets {
            assert!(!t.streams.is_empty(), "target {} has no golden streams", t.name);
            for s in &t.streams {
                assert!(!s.bytes.is_empty(), "stream {} is empty", s.name);
                // Pristine streams must decode cleanly.
                let (status, detail, _) = run_case(&t.decode, &s.bytes, &HostileConfig::default());
                assert_eq!(status, ReturnStatus::Completed, "pristine {}: {detail}", s.name);
            }
        }
    }

    #[test]
    fn trailer_families_cover_every_index_boundary() {
        let bytes: Vec<u8> = (0..600u32).map(|i| (i % 256) as u8).collect();
        let plain = GoldenStream {
            name: "plain".to_string(),
            bytes: bytes.clone(),
            header_len: 40,
            trailer_len: 0,
        };
        let tailed =
            GoldenStream { name: "plain".to_string(), bytes, header_len: 40, trailer_len: 96 };
        let cfg = HostileConfig::quick();
        let base = mutations(&plain, &cfg);
        let extra = mutations(&tailed, &cfg);
        assert!(base.iter().all(|(name, _)| !name.starts_with("trunc-tail")));
        // One truncation per trailer byte boundary, plus inflations/splices.
        let tail_cuts = extra.iter().filter(|(name, _)| name.starts_with("trunc-tail")).count();
        assert_eq!(tail_cuts, 96);
        assert!(extra.iter().any(|(name, _)| name.starts_with("inflate-tail")));
        assert!(extra.iter().any(|(name, _)| name.starts_with("splice-tail")));
        assert!(extra.iter().any(|(name, _)| name.starts_with("splice-body")));
        assert!(extra.len() > base.len() + 96);
    }

    #[test]
    fn slab_frames_are_attacked_in_dims_table_and_lengths() {
        let targets = builtin_targets();
        let slabs = targets.iter().find(|t| t.name == "pressio-slabs").unwrap();
        assert_eq!(slabs.streams.len(), 2);
        // Frame head: dims at 6..22, slab count at 22..26, then per slab a
        // rows field and a length field of 8 bytes each.
        let regions: [(&str, Vec<usize>); 3] = [
            ("dims", (6..22).collect()),
            ("rows", (0..3).flat_map(|i| 26 + 16 * i..34 + 16 * i).collect()),
            ("lengths", (0..3).flat_map(|i| 34 + 16 * i..42 + 16 * i).collect()),
        ];
        for s in &slabs.streams {
            assert!(s.bytes.starts_with(arc_pressio::slab::FRAME_MAGIC), "{}", s.name);
            assert_eq!(s.bytes[22..26], 3u32.to_le_bytes(), "{}: three slabs", s.name);
            let cases = mutations(s, &HostileConfig::default());
            for (what, at) in &regions {
                let hit = |family: &str| {
                    cases.iter().any(|(name, buf)| {
                        name.starts_with(family)
                            && buf.len() == s.bytes.len()
                            && at.iter().any(|&i| buf[i] != s.bytes[i])
                    })
                };
                assert!(hit("inflate") || hit("flip"), "{}: no case mutates its {what}", s.name);
                let cut = |name: &String| {
                    name.strip_prefix("trunc-hdr").and_then(|n| n.parse::<usize>().ok())
                };
                assert!(
                    cases.iter().filter_map(|(name, _)| cut(name)).any(|n| at.contains(&n)),
                    "{}: no truncation inside its {what}",
                    s.name
                );
            }
        }
    }

    #[test]
    fn v2_streams_carry_trailer_hints() {
        let targets = builtin_targets();
        let container = targets.iter().find(|t| t.name == "container").unwrap();
        let v2: Vec<_> = container.streams.iter().filter(|s| s.name.ends_with("-v2")).collect();
        assert_eq!(v2.len(), 2, "expected secded+rs v2 streams");
        for s in v2 {
            assert!(s.trailer_len > 0, "{} missing trailer_len", s.name);
            assert!(s.trailer_len < s.bytes.len());
        }
    }

    #[test]
    fn mutations_are_deterministic() {
        let stream = GoldenStream {
            name: "det".to_string(),
            bytes: (0..500u32).map(|i| (i % 256) as u8).collect(),
            header_len: 40,
            trailer_len: 0,
        };
        let cfg = HostileConfig::quick();
        assert_eq!(mutations(&stream, &cfg), mutations(&stream, &cfg));
        let other = HostileConfig { seed: 1, ..cfg.clone() };
        assert_ne!(mutations(&stream, &cfg), mutations(&stream, &other));
    }

    #[test]
    fn runner_classifies_panic_timeout_and_budget() {
        let cfg = HostileConfig {
            max_case_duration: Duration::from_millis(100),
            max_output_bytes: 1000,
            ..HostileConfig::default()
        };
        let run = |decode: DecodeFn| {
            let (status, detail, _) = run_case(&decode, &[0u8], &cfg);
            (status, detail)
        };
        let panicker: DecodeFn = Arc::new(|_, _| panic!("boom"));
        assert_eq!(run(panicker), (ReturnStatus::Terminated, "boom".to_string()));

        let sleeper: DecodeFn = Arc::new(|_, _| {
            thread::sleep(Duration::from_secs(5));
            Ok(0)
        });
        assert_eq!(run(sleeper).0, ReturnStatus::Timeout);

        let glutton: DecodeFn = Arc::new(|_, _| Ok(10_000));
        let (status, detail) = run(glutton);
        assert_eq!(status, ReturnStatus::Timeout);
        assert!(detail.starts_with("10000 output bytes"), "{detail}");

        let polite: DecodeFn = Arc::new(|_, _| Err("no".to_string()));
        assert_eq!(run(polite), (ReturnStatus::CompressorException, "no".to_string()));
    }

    #[test]
    fn report_bookkeeping_flags_failures() {
        let mut r = HostileReport::default();
        r.record("t", "s", "c1", ReturnStatus::CompressorException, "no".to_string());
        r.record("t", "s", "c2", ReturnStatus::Completed, "4 output bytes".to_string());
        r.record("t", "s", "c3", ReturnStatus::Terminated, "x".to_string());
        assert_eq!((r.cases(), r.counts), (3, [1, 1, 1, 0]));
        assert!(!r.is_clean());
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].to_string(), "t/s/c3: Terminated: x");
        assert!(r.summary().contains("3 cases"));
    }
}
