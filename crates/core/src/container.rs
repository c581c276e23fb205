//! ARC's self-describing container format.
//!
//! `arc_decode()` receives nothing but a byte array, so the container must
//! carry the ECC configuration, chunk size, and lengths — and those fields
//! must survive the very soft errors ARC exists to protect against. The
//! header is therefore wrapped in a Reed-Solomon codeword with 32 parity
//! symbols (correcting 16 unknown-position byte errors on its own) and
//! stored **twice**; the 2-byte codeword-length prefix is stored three
//! times and majority-voted.
//!
//! Two container versions share the magic and the hardened header:
//!
//! **v1 — monolithic** (version byte `1`): the payload is one
//! chunk-parallel ECC encoding of the user's byte array.
//!
//! ```text
//! ┌─────────────┬───────────────┬───────────────┬─────────────┐
//! │ len ×3 (u16)│ header RS cw  │ header RS cw  │   payload   │
//! └─────────────┴───────────────┴───────────────┴─────────────┘
//! ```
//!
//! **v2 — sharded** (version byte `2`): the payload is split into
//! fixed-size shards, each independently ECC'd and independently
//! decodable, followed by a shard index that is RS-protected and stored
//! **three** times (bytewise majority vote as the last resort). The index
//! is the highest-consequence metadata in the container — losing it means
//! losing random access for every shard — so it gets strictly harder
//! protection than the bulk payload, the same discipline the header
//! already follows.
//!
//! ```text
//! ┌─────────────┬───────────┬───────────┬────────────────┬─────────┬─────────┬─────────┐
//! │ len ×3 (u16)│ header cw │ header cw │ shard payloads │ index ×1│ index ×2│ index ×3│
//! └─────────────┴───────────┴───────────┴────────────────┴─────────┴─────────┴─────────┘
//! ```
//!
//! The header additionally carries a CRC-32 of the *original* data, giving
//! end-to-end detection even for damage an ECC scheme can miss; v2 adds a
//! per-shard CRC-32 to the index so each shard is end-to-end checkable on
//! its own, which is what makes `decode_range` trustworthy without
//! touching the rest of the container.
//!
//! Readers see neither version: `Shards` presents an opened container as
//! a run of shards (a v1 payload being the one-shard case) with one
//! per-shard step — geometry cross-check, ECC repair, CRC — and the one-shot
//! and range decoders are the two drivers over it.

use std::sync::Arc;

use arc_ecc::crc::{crc32, crc32_combine, crc32_concat};
use arc_ecc::{CorrectionReport, EccConfig, EccError, EccScheme, ParallelCodec, RsCodeword};

use crate::error::ArcError;
use crate::extension::{resolve_scheme, ExtensionRegistry};
use crate::interface::ArcDecodeReport;

/// Container magic.
pub(crate) const MAGIC: &[u8; 4] = b"ARC1";
/// Container format version for monolithic (v1) containers.
pub(crate) const VERSION: u8 = 1;
/// Container format version for sharded (v2) containers.
pub(crate) const VERSION_SHARDED: u8 = 2;
/// Parity symbols protecting the header codeword.
pub(crate) const HEADER_NSYM: usize = 32;
/// Parity symbols protecting each RS codeword of the shard index.
pub(crate) const INDEX_NSYM: usize = 32;
/// Raw index bytes per RS codeword: the rest of a maximal codeword.
const INDEX_MESSAGE: usize = arc_ecc::rscode::MAX_CODEWORD - INDEX_NSYM;
/// Default shard size for the sharded encode paths (4 MiB): small enough
/// that a tile read touches a sliver of a large field, large enough that
/// per-shard index overhead stays negligible.
pub(crate) const DEFAULT_SHARD_SIZE: usize = 4 << 20;

/// Serialized size of one shard-index entry: offset `u64`, encoded length
/// `u32`, decoded length `u32`, CRC-32 `u32`, scheme slot `u8` (reserved,
/// always 0 — every v2 container currently uses one scheme for all
/// shards).
pub(crate) const INDEX_ENTRY_BYTES: usize = 21;

/// Sharding parameters carried by a v2 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardingMeta {
    /// Decoded bytes per shard (every shard but the last holds exactly
    /// this many; the last holds the remainder).
    pub shard_size: usize,
    /// Length in bytes of ONE RS-encoded copy of the shard index; three
    /// copies follow the payload back to back.
    pub index_len: usize,
}

/// Decoded header contents.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerMeta {
    /// Identifier of the scheme that encoded the payload: a built-in
    /// [`EccConfig`] id (`"secded:64"`, `"rs:223:32"`, …) or a custom
    /// extension id (`"x:<name>"`, see `arc_core::extension`).
    pub scheme_id: String,
    /// Chunk size the parallel codec used.
    pub chunk_size: usize,
    /// Original (unencoded) data length in bytes.
    pub data_len: usize,
    /// Encoded payload length in bytes.
    pub payload_len: usize,
    /// CRC-32 of the original data (end-to-end check).
    pub data_crc: u32,
    /// Sharding parameters; `None` for monolithic v1 containers.
    pub sharding: Option<ShardingMeta>,
}

/// One shard's entry in the v2 index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardEntry {
    /// Byte offset of the shard's encoded region within the payload.
    pub offset: usize,
    /// Encoded (ECC'd) length of the shard in bytes.
    pub encoded_len: usize,
    /// Decoded (original) length of the shard in bytes.
    pub decoded_len: usize,
    /// CRC-32 of the shard's original bytes (per-shard end-to-end check).
    pub crc: u32,
}

/// The recovered v2 shard index.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardIndex {
    /// Entries in payload order; offsets are contiguous from 0.
    pub entries: Vec<ShardEntry>,
}

impl ShardIndex {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.entries.len()
    }
}

/// How the shard index was recovered during [`unpack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexRepair {
    /// Index bytes repaired by the RS codewords of the winning copy.
    pub symbols_corrected: usize,
    /// Which of the three copies decoded (0-based); meaningless when
    /// `majority_voted` is set.
    pub copy_used: usize,
    /// True when no single copy decoded and the bytewise majority vote of
    /// all three copies was needed.
    pub majority_voted: bool,
}

fn serialize_header(meta: &ContainerMeta) -> Vec<u8> {
    let id = &meta.scheme_id;
    let mut out = Vec::with_capacity(56 + id.len());
    out.extend_from_slice(MAGIC);
    out.push(if meta.sharding.is_some() { VERSION_SHARDED } else { VERSION });
    out.push(id.len() as u8);
    out.extend_from_slice(id.as_bytes());
    out.extend_from_slice(&(meta.chunk_size as u64).to_le_bytes());
    out.extend_from_slice(&(meta.data_len as u64).to_le_bytes());
    out.extend_from_slice(&(meta.payload_len as u64).to_le_bytes());
    if let Some(sh) = &meta.sharding {
        out.extend_from_slice(&(sh.shard_size as u64).to_le_bytes());
        out.extend_from_slice(&(sh.index_len as u64).to_le_bytes());
    }
    out.extend_from_slice(&meta.data_crc.to_le_bytes());
    out
}

pub(crate) fn parse_header(bytes: &[u8]) -> Result<ContainerMeta, ArcError> {
    let bad = |d: &str| ArcError::Corrupted(format!("header: {d}"));
    // arc-lint: bounded(bytes.len() < 6 short-circuits first in this condition)
    if bytes.len() < 6 || &bytes[..4] != MAGIC {
        return Err(bad("bad magic"));
    }
    // arc-lint: bounded(bytes.len() >= 6 checked above)
    let version = bytes[4];
    if version != VERSION && version != VERSION_SHARDED {
        return Err(bad("unsupported version"));
    }
    let sharded = version == VERSION_SHARDED;
    // arc-lint: bounded(bytes.len() >= 6 checked above)
    let id_len = bytes[5] as usize;
    let fixed = 6 + id_len + 8 + 8 + 8 + if sharded { 8 + 8 } else { 0 } + 4;
    if bytes.len() < fixed {
        return Err(bad("truncated"));
    }
    // arc-lint: bounded(bytes.len() >= fixed >= 6 + id_len checked above)
    let id = std::str::from_utf8(&bytes[6..6 + id_len]).map_err(|_| bad("config id not UTF-8"))?;
    if id.is_empty() {
        return Err(bad("empty scheme id"));
    }
    // Built-in ids must parse; extension ids ("x:…") are resolved later
    // against the caller's registry.
    if !id.starts_with("x:") {
        EccConfig::parse_id(id).map_err(|e| bad(&format!("config id: {e}")))?;
    }
    let scheme_id = id.to_string();
    let mut pos = 6 + id_len;
    let mut read_u64 = |bytes: &[u8]| -> u64 {
        let v = le_u64(bytes, pos);
        pos += 8;
        v
    };
    let chunk_size = read_u64(bytes) as usize;
    let data_len = read_u64(bytes) as usize;
    let payload_len = read_u64(bytes) as usize;
    let sharding = if sharded {
        let shard_size = read_u64(bytes) as usize;
        let index_len = read_u64(bytes) as usize;
        if shard_size == 0 {
            return Err(bad("zero shard size"));
        }
        if index_len == 0 {
            return Err(bad("zero index length"));
        }
        Some(ShardingMeta { shard_size, index_len })
    } else {
        None
    };
    let data_crc = le_u32(bytes, pos);
    if chunk_size == 0 {
        return Err(bad("zero chunk size"));
    }
    Ok(ContainerMeta { scheme_id, chunk_size, data_len, payload_len, data_crc, sharding })
}

/// Clamped little-endian `u64` load: bytes past the end read as zero. The
/// `fixed` length check in [`parse_header`] guarantees the range exists;
/// the clamp keeps the parser total even if that invariant ever breaks.
fn le_u64(bytes: &[u8], pos: usize) -> u64 {
    let mut b = [0u8; 8];
    if let Some(src) = bytes.get(pos..pos + 8) {
        b.copy_from_slice(src);
    }
    u64::from_le_bytes(b)
}

/// Clamped little-endian `u32` load (see [`le_u64`]).
fn le_u32(bytes: &[u8], pos: usize) -> u32 {
    let mut b = [0u8; 4];
    if let Some(src) = bytes.get(pos..pos + 4) {
        b.copy_from_slice(src);
    }
    u32::from_le_bytes(b)
}

/// Clamped little-endian `u16` load (see [`le_u64`]).
pub(crate) fn le_u16(bytes: &[u8], pos: usize) -> u16 {
    let mut b = [0u8; 2];
    if let Some(src) = bytes.get(pos..pos + 2) {
        b.copy_from_slice(src);
    }
    u16::from_le_bytes(b)
}

/// Size of the container framing for `meta` — the triplicated length
/// prefix plus both header codewords — i.e. the byte offset at which the
/// payload begins. A pure function of the header fields, so callers can
/// allocate `header_len(meta) + meta.payload_len` (plus three index
/// copies for v2) up front and scatter-write the whole container into it.
pub fn header_len(meta: &ContainerMeta) -> usize {
    // serialize_header: magic 4 + version 1 + id-len byte 1 + id + 3×u64
    // + crc 4, plus shard_size/index_len u64s for sharded containers.
    let header = 34 + meta.scheme_id.len() + if meta.sharding.is_some() { 16 } else { 0 };
    6 + 2 * (header + HEADER_NSYM)
}

/// Write the container framing into `out`, which must be exactly
/// [`header_len`] bytes. `out` may hold arbitrary garbage; every byte is
/// overwritten. An over-long scheme id or a mis-sized buffer is an
/// [`ArcError::InvalidRequest`], never a panic.
pub fn write_header(meta: &ContainerMeta, out: &mut [u8]) -> Result<(), ArcError> {
    if meta.scheme_id.len() > 64 {
        return Err(ArcError::InvalidRequest(format!(
            "scheme id of {} bytes exceeds the container header's 64-byte cap",
            meta.scheme_id.len()
        )));
    }
    let header = serialize_header(meta);
    let Ok(rs) = RsCodeword::new(HEADER_NSYM) else {
        return Err(ArcError::InvalidRequest("header RS codeword unavailable".into()));
    };
    if header.len() > rs.max_message_len() {
        return Err(ArcError::InvalidRequest(format!(
            "header of {} bytes exceeds one RS codeword",
            header.len()
        )));
    }
    let codeword = rs.encode(&header);
    if out.len() != 6 + 2 * codeword.len() {
        return Err(ArcError::InvalidRequest(format!(
            "write_header: buffer is {} bytes, framing needs {}",
            out.len(),
            6 + 2 * codeword.len()
        )));
    }
    let len = (codeword.len() as u16).to_le_bytes();
    // arc-lint: bounded(out.len() == 6 + 2 * codeword.len() checked at entry)
    out[0..2].copy_from_slice(&len);
    // arc-lint: bounded(out.len() == 6 + 2 * codeword.len() checked at entry)
    out[2..4].copy_from_slice(&len);
    // arc-lint: bounded(out.len() == 6 + 2 * codeword.len() checked at entry)
    out[4..6].copy_from_slice(&len);
    // arc-lint: bounded(out.len() == 6 + 2 * codeword.len() checked at entry)
    out[6..6 + codeword.len()].copy_from_slice(&codeword);
    // arc-lint: bounded(out.len() == 6 + 2 * codeword.len() checked at entry)
    out[6 + codeword.len()..].copy_from_slice(&codeword);
    Ok(())
}

/// Serialize the shard index to its raw (pre-RS) byte form:
/// `count u64 ‖ entries (21 B each) ‖ CRC-32` of everything preceding.
/// Shared with the streaming encoder (`crate::stream`), which assembles
/// the identical index incrementally.
pub(crate) fn serialize_index(entries: &[ShardEntry]) -> Vec<u8> {
    let mut raw = Vec::with_capacity(12 + entries.len() * INDEX_ENTRY_BYTES);
    raw.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for e in entries {
        raw.extend_from_slice(&(e.offset as u64).to_le_bytes());
        raw.extend_from_slice(&(e.encoded_len as u32).to_le_bytes());
        raw.extend_from_slice(&(e.decoded_len as u32).to_le_bytes());
        raw.extend_from_slice(&e.crc.to_le_bytes());
        raw.push(0); // scheme slot, reserved
    }
    let crc = crc32(&raw);
    raw.extend_from_slice(&crc.to_le_bytes());
    raw
}

/// RS-protect a raw index: split into maximal messages and encode each as
/// its own codeword. The encoded length is a pure function of the raw
/// length (and vice versa), so no extra framing is needed.
pub(crate) fn rs_index_encode(raw: &[u8]) -> Result<Vec<u8>, ArcError> {
    let Ok(rs) = RsCodeword::new(INDEX_NSYM) else {
        return Err(ArcError::InvalidRequest("index RS codeword unavailable".into()));
    };
    let mut out = Vec::with_capacity(raw.len() + raw.len().div_ceil(INDEX_MESSAGE) * INDEX_NSYM);
    for chunk in raw.chunks(INDEX_MESSAGE) {
        out.extend_from_slice(&rs.encode(chunk));
    }
    Ok(out)
}

/// Length of ONE RS-encoded index copy describing `shards` shards, as
/// [`rs_index_encode`] produces it. Decoders hold a header's `index_len` to
/// it before buffering; the one-shot encoders size their sink with it.
pub(crate) fn index_encoded_len(shards: usize) -> Result<usize, ArcError> {
    let raw_len = shards
        .checked_mul(INDEX_ENTRY_BYTES)
        .and_then(|n| n.checked_add(12))
        .ok_or_else(|| ArcError::Corrupted("shard count overflows".into()))?;
    raw_len
        .div_ceil(INDEX_MESSAGE)
        .checked_mul(INDEX_NSYM)
        .and_then(|p| p.checked_add(raw_len))
        .ok_or_else(|| ArcError::Corrupted("index length overflows".into()))
}

/// Attempt to RS-decode one copy of the index. Returns the raw bytes and
/// the number of symbols repaired, or `None` when any codeword is beyond
/// repair (the caller falls through to the next copy / the majority vote).
fn rs_index_decode(encoded: &[u8]) -> Option<(Vec<u8>, usize)> {
    let rs = RsCodeword::new(INDEX_NSYM).ok()?;
    let cw = INDEX_MESSAGE + INDEX_NSYM;
    let tail = encoded.len() % cw;
    if encoded.is_empty() || (tail != 0 && tail <= INDEX_NSYM) {
        return None;
    }
    let mut raw = Vec::with_capacity(encoded.len());
    let mut fixed = 0usize;
    for chunk in encoded.chunks(cw) {
        let (msg, f) = rs.decode(chunk).ok()?;
        raw.extend_from_slice(&msg);
        fixed += f;
    }
    Some((raw, fixed))
}

/// Parse and validate a raw index against the (already RS-verified)
/// header fields. Everything here is pure arithmetic on small integers;
/// all sums use checked arithmetic so hostile values cannot wrap.
fn parse_index(raw: &[u8], meta: &ContainerMeta) -> Result<ShardIndex, ArcError> {
    let bad = |d: &str| ArcError::Corrupted(format!("shard index: {d}"));
    if raw.len() < 12 {
        return Err(bad("shorter than its framing"));
    }
    let count = le_u64(raw, 0) as usize;
    let expect = count
        .checked_mul(INDEX_ENTRY_BYTES)
        .and_then(|n| n.checked_add(12))
        .ok_or_else(|| bad("entry count overflows"))?;
    if raw.len() != expect {
        return Err(bad("length disagrees with entry count"));
    }
    // arc-lint: bounded(raw.len() == count * INDEX_ENTRY_BYTES + 12 >= 12 checked above)
    if le_u32(raw, raw.len() - 4) != crc32(&raw[..raw.len() - 4]) {
        return Err(bad("CRC mismatch"));
    }
    let sharding = meta.sharding.ok_or_else(|| bad("index present on an unsharded container"))?;
    // arc-lint: bounded(count * INDEX_ENTRY_BYTES + 12 == raw.len() checked above)
    let mut entries = Vec::with_capacity(count);
    let mut next_offset = 0usize;
    let mut total_decoded = 0usize;
    for i in 0..count {
        let base = 8 + i * INDEX_ENTRY_BYTES;
        let offset = le_u64(raw, base) as usize;
        let encoded_len = le_u32(raw, base + 8) as usize;
        let decoded_len = le_u32(raw, base + 12) as usize;
        let crc = le_u32(raw, base + 16);
        // arc-lint: bounded(base + 20 < raw.len() by the entry-count length equality above)
        if raw[base + 20] != 0 {
            return Err(bad("unknown per-shard scheme slot"));
        }
        if offset != next_offset {
            return Err(bad("shard offsets not contiguous"));
        }
        if decoded_len == 0 || decoded_len > sharding.shard_size {
            return Err(bad("shard decoded length out of range"));
        }
        if encoded_len < decoded_len {
            return Err(bad("shard encoded length below decoded length"));
        }
        next_offset =
            offset.checked_add(encoded_len).ok_or_else(|| bad("shard offsets overflow"))?;
        total_decoded = total_decoded
            .checked_add(decoded_len)
            .ok_or_else(|| bad("decoded lengths overflow"))?;
        entries.push(ShardEntry { offset, encoded_len, decoded_len, crc });
    }
    if next_offset != meta.payload_len {
        return Err(bad("encoded lengths disagree with payload length"));
    }
    if total_decoded != meta.data_len {
        return Err(bad("decoded lengths disagree with data length"));
    }
    Ok(ShardIndex { entries })
}

/// Recover the shard index from `trailer`, its three copies back to back:
/// first copy whose RS codewords decode *and* whose contents validate wins;
/// if none does, a bitwise 2-of-3 majority vote across the copies gets one
/// final attempt.
pub(crate) fn recover_index(
    trailer: &[u8],
    meta: &ContainerMeta,
) -> Result<(ShardIndex, IndexRepair), ArcError> {
    let index_len = meta.sharding.map_or(0, |sh| sh.index_len);
    if index_len.checked_mul(3) != Some(trailer.len()) {
        return Err(ArcError::Corrupted("index trailer mis-sized".into()));
    }
    let (first, rest) = trailer.split_at(index_len);
    let (second, third) = rest.split_at(index_len);
    for (copy_used, copy) in [first, second, third].into_iter().enumerate() {
        if let Some((raw, symbols_corrected)) = rs_index_decode(copy) {
            if let Ok(index) = parse_index(&raw, meta) {
                return Ok((
                    index,
                    IndexRepair { symbols_corrected, copy_used, majority_voted: false },
                ));
            }
        }
    }
    // Bitwise triple-modular-redundancy vote: each output bit is the
    // majority of the three copies' bits, which repairs any damage that
    // never hits the same bit in two copies.
    let voted: Vec<u8> = first
        .iter()
        .zip(second)
        .zip(third)
        .map(|((a, b), c)| (a & b) | (a & c) | (b & c))
        .collect();
    if let Some((raw, symbols_corrected)) = rs_index_decode(&voted) {
        if let Ok(index) = parse_index(&raw, meta) {
            return Ok((
                index,
                IndexRepair { symbols_corrected, copy_used: 0, majority_voted: true },
            ));
        }
    }
    Err(ArcError::Corrupted("shard index unrecoverable in all three copies".into()))
}

/// Reserve one monolithic (v1) container for `data`: a single allocation
/// of header prefix plus encoded payload, header already written. Returns
/// the buffer and the offset of the (still unwritten) payload region, which
/// [`encode_mono`] fills itself and `stream::encode_batch` fills for many
/// frames in one flat `par_map` pass.
pub(crate) fn mono_frame(
    data: &[u8],
    codec: &Codec,
    scheme_id: &str,
) -> Result<(Vec<u8>, usize), ArcError> {
    let meta = ContainerMeta {
        scheme_id: scheme_id.to_string(),
        chunk_size: codec.chunk_size(),
        data_len: data.len(),
        payload_len: codec.encoded_len(data.len()),
        data_crc: crc32(data),
        sharding: None,
    };
    let hlen = header_len(&meta);
    // arc-lint: bounded(encode path; sized from the caller's own payload, not decoded input)
    let mut out = vec![0u8; hlen + meta.payload_len];
    write_header(&meta, out.split_at_mut(hlen).0)?;
    Ok((out, hlen))
}

/// The v1 writer: `data` as one chunk-parallel ECC encoding under `codec`'s
/// scheme, tagged `scheme_id`, allocated once and scatter-written in place.
/// Every public v1 encode entry point wraps this function; the v2 writer is
/// [`crate::stream::StreamEncoder`].
pub fn encode_mono(data: &[u8], codec: &Codec, scheme_id: &str) -> Result<Vec<u8>, ArcError> {
    let (mut out, hlen) = mono_frame(data, codec, scheme_id)?;
    codec.encode_into(data, &mut out[hlen..]);
    Ok(out)
}

/// Result of unpacking a container.
#[derive(Debug, Clone, PartialEq)]
pub struct Unpacked<'a> {
    /// Parsed header.
    pub meta: ContainerMeta,
    /// The (still ECC-encoded) payload region. For v2 containers this is
    /// exactly the shard payloads — the index copies that follow are
    /// already digested into `index`.
    pub payload: &'a [u8],
    /// Byte offset of the payload region within the container.
    pub payload_offset: usize,
    /// True when the primary header copy was unusable and the backup copy
    /// saved the day.
    pub used_backup_header: bool,
    /// Header bytes repaired by the RS codeword.
    pub header_symbols_corrected: usize,
    /// The recovered shard index (v2 containers only).
    pub index: Option<ShardIndex>,
    /// How the shard index was recovered (all-zero for v1 containers).
    pub index_repair: IndexRepair,
}

/// Recover the header of a container. Majority-votes the triplicated
/// length, then RS-decodes the primary and backup codeword of each length
/// candidate: the 2-of-3 winner alone, or with no majority every distinct
/// plausible value, shortest first. A candidate whose codewords run past
/// the end of `bytes` is skipped. `payload` is everything after the framing
/// (for v2 still including the index copies) and `index` is unset;
/// [`unpack`] digests both.
fn recover_header(bytes: &[u8]) -> Result<Unpacked<'_>, ArcError> {
    if bytes.len() < 6 {
        return Err(ArcError::Corrupted("container shorter than its length prefix".into()));
    }
    let [a, b, c] = [le_u16(bytes, 0), le_u16(bytes, 2), le_u16(bytes, 4)].map(usize::from);
    let voted = if a == b || a == c {
        a
    } else if b == c {
        b
    } else {
        // No majority: try each in turn below.
        0
    };
    let mut candidates = if voted != 0 { vec![voted] } else { vec![a, b, c] };
    candidates.retain(|l| *l > HEADER_NSYM);
    candidates.sort_unstable();
    candidates.dedup();
    let Ok(rs) = RsCodeword::new(HEADER_NSYM) else {
        return Err(ArcError::Corrupted("header RS codeword unavailable".into()));
    };
    for len in candidates {
        let payload_offset = 6 + 2 * len;
        let Some(payload) = bytes.get(payload_offset..) else {
            continue;
        };
        for (copy, used_backup_header) in [(6..6 + len, false), (6 + len..payload_offset, true)] {
            let Some(Ok((header_bytes, header_symbols_corrected))) =
                bytes.get(copy).map(|codeword| rs.decode(codeword))
            else {
                continue;
            };
            if let Ok(meta) = parse_header(&header_bytes) {
                return Ok(Unpacked {
                    meta,
                    payload,
                    payload_offset,
                    used_backup_header,
                    header_symbols_corrected,
                    index: None,
                    index_repair: IndexRepair::default(),
                });
            }
        }
    }
    Err(ArcError::Corrupted("header unrecoverable in both copies".into()))
}

/// Parse and repair a container produced by [`encode_mono`] or
/// [`crate::stream::StreamEncoder`].
// arc-lint: decode-root
pub fn unpack(bytes: &[u8]) -> Result<Unpacked<'_>, ArcError> {
    let mut u = recover_header(bytes)?;
    match u.meta.sharding {
        None => {
            // Final consistency check against the buffer we have.
            if u.payload.len() != u.meta.payload_len {
                return Err(ArcError::Corrupted(format!(
                    "payload region {} bytes but header declares {}",
                    u.payload.len(),
                    u.meta.payload_len
                )));
            }
        }
        Some(sh) => {
            // v2: the region after the header is payload plus three index
            // copies, and the total must match *exactly* — checked
            // arithmetic so hostile header values (already RS-verified,
            // but belt and braces) cannot wrap, and checked *before* any
            // index-sized allocation so a corrupt length cannot demand
            // memory.
            let expect =
                sh.index_len.checked_mul(3).and_then(|i| u.meta.payload_len.checked_add(i));
            let Some(expect) = expect else {
                return Err(ArcError::Corrupted("header: payload/index lengths overflow".into()));
            };
            if u.payload.len() != expect {
                return Err(ArcError::Corrupted(format!(
                    "sharded region {} bytes but header declares {} payload + 3×{} index",
                    u.payload.len(),
                    u.meta.payload_len,
                    sh.index_len
                )));
            }
            let (payload, trailer) = u.payload.split_at(u.meta.payload_len);
            let (index, repair) = recover_index(trailer, &u.meta)?;
            u.payload = payload;
            u.index = Some(index);
            u.index_repair = repair;
        }
    }
    Ok(u)
}

/// CRC-32 of the whole data from its shards' CRCs, in payload order. Every
/// shard but the last has one length, so this is one [`crc32_concat`] and
/// one [`crc32_combine`], not a field exponentiation per shard.
pub(crate) fn whole_crc(entries: &[ShardEntry]) -> u32 {
    entries.chunk_by(|a, b| a.decoded_len == b.decoded_len).fold(0, |acc, run| {
        let len = run.first().map_or(0, |e| e.decoded_len);
        let crc = crc32_concat(run.iter().map(|e| e.crc), len);
        crc32_combine(acc, crc, len.saturating_mul(run.len()))
    })
}

/// A chunk-parallel codec over a resolved scheme — the only codec type the
/// container paths run.
pub(crate) type Codec = ParallelCodec<Arc<dyn EccScheme>>;

/// An opened container as every decoder walks it: the header's facts, the
/// codec it names, and the payload as a run of independently repairable
/// shards. A v1 payload *is* the one-shard case — offset 0, `payload_len`,
/// `data_len`, `data_crc`; no shard at all when both lengths are zero — so
/// the one-shot and range decoders never ask which version they hold and
/// differ only in where a shard's bytes come from.
pub(crate) struct Shards {
    pub(crate) meta: ContainerMeta,
    pub(crate) codec: Codec,
    /// Shards in payload order, from the index (v2) or the header (v1).
    pub(crate) entries: Vec<ShardEntry>,
    used_backup_header: bool,
    header_symbols_corrected: usize,
    /// How the index was recovered; `None` on v1.
    pub(crate) index_repair: Option<IndexRepair>,
}

impl Shards {
    /// Open a whole container — the one-shot and range decoders' front
    /// half: recover header and index, resolve the scheme, bound the
    /// declared data length. Also returns the payload region the shards'
    /// offsets count from.
    pub(crate) fn open<'a>(
        bytes: &'a [u8],
        threads: usize,
        registry: Option<&ExtensionRegistry>,
    ) -> Result<(Shards, &'a [u8]), ArcError> {
        let Unpacked {
            meta,
            payload,
            used_backup_header,
            header_symbols_corrected,
            index,
            index_repair,
            ..
        } = unpack(bytes)?;
        let scheme = resolve_scheme(&meta.scheme_id, registry)?;
        let codec = ParallelCodec::with_chunk_size(scheme, threads, meta.chunk_size)?;
        // The original data is a subset of the ECC-encoded payload; a corrupt
        // data_len that slipped past the header codeword must not reach the
        // codec's length arithmetic.
        if meta.data_len > payload.len() {
            return Err(ArcError::Corrupted(format!(
                "declared data length {} exceeds payload length {}",
                meta.data_len,
                payload.len()
            )));
        }
        let (entries, index_repair) = match index {
            Some(index) => (index.entries, Some(index_repair)),
            None if meta.data_len == 0 && meta.payload_len == 0 => (Vec::new(), None),
            None => {
                let whole = ShardEntry {
                    offset: 0,
                    encoded_len: meta.payload_len,
                    decoded_len: meta.data_len,
                    crc: meta.data_crc,
                };
                (vec![whole], None)
            }
        };
        let shards = Shards {
            meta,
            codec,
            entries,
            used_backup_header,
            header_symbols_corrected,
            index_repair,
        };
        Ok((shards, payload))
    }

    /// The end-to-end check, once every shard has passed its own: the
    /// header's data CRC against the shards' CRCs combined. Each of those
    /// was held to the index, so this checks header against index without
    /// hashing the data again. A v1 payload's one shard CRC already was this
    /// check.
    pub(crate) fn check_whole(&self) -> Result<(), ArcError> {
        if self.meta.sharding.is_some() && self.meta.data_crc != whole_crc(&self.entries) {
            return Err(self.crc_mismatch(None));
        }
        Ok(())
    }

    /// Which bytes of `payload` — the region [`Shards::open`] returned — are
    /// shard number `shard`: its `data ‖ parity`, exactly as stored.
    pub(crate) fn stored<'p>(
        payload: &'p [u8],
        shard: usize,
        e: &ShardEntry,
    ) -> Result<&'p [u8], ArcError> {
        e.offset
            .checked_add(e.encoded_len)
            .and_then(|end| payload.get(e.offset..end))
            .ok_or_else(|| ArcError::Corrupted(format!("shard {shard}: region exceeds payload")))
    }

    /// The one shard step, for shard number `shard` of `decoded_len` bytes:
    /// cross-check its geometry against the scheme's own arithmetic (index
    /// and header are RS-protected, so this is defense in depth: a forged
    /// length never drives the codec out of contract), repair `region` —
    /// its `data ‖ parity`, exactly as stored — in place, and hold the
    /// repaired data, left in the first `decoded_len` bytes, to `crc`.
    pub(crate) fn decode_shard(
        &self,
        shard: usize,
        decoded_len: usize,
        crc: u32,
        region: &mut [u8],
    ) -> Result<CorrectionReport, ArcError> {
        let expected = self.codec.encoded_len(decoded_len);
        if region.len() != expected || expected < decoded_len {
            return Err(ArcError::Corrupted(format!(
                "shard {shard}: encoded length {} inconsistent with scheme (expected {expected})",
                region.len()
            )));
        }
        let correction = self.codec.decode_in_place(region, decoded_len)?;
        // Device RS stores a CRC per device, and decode just held the
        // repaired bytes to them: their combine is the shard's CRC. Every
        // other scheme can miscorrect, so its output is hashed here.
        let computed = self.codec.data_crc(region, decoded_len).unwrap_or_else(|| {
            // arc-lint: bounded(region.len() == expected >= decoded_len checked above)
            crc32(&region[..decoded_len])
        });
        if computed != crc {
            return Err(self.crc_mismatch(Some(shard)));
        }
        Ok(correction)
    }

    /// A failed end-to-end check — of one shard, or of the whole data — as
    /// every decoder reports it: damage the ECC layer missed or miscorrected.
    pub(crate) fn crc_mismatch(&self, shard: Option<usize>) -> ArcError {
        let at = shard.map_or(String::new(), |i| format!("shard {i}: "));
        ArcError::Ecc(EccError::Uncorrectable {
            scheme: self.codec.config().name(),
            detail: format!("{at}end-to-end CRC mismatch after ECC decode"),
        })
    }

    /// The report of a finished whole-container decode — the one place an
    /// [`ArcDecodeReport`] is built. `shards` is 0 and `index_repair`
    /// `None` on v1, which has no index to recover.
    pub(crate) fn report(self, correction: CorrectionReport) -> ArcDecodeReport {
        ArcDecodeReport {
            config: EccConfig::parse_id(&self.meta.scheme_id).ok(),
            scheme_id: self.meta.scheme_id,
            data_len: self.meta.data_len,
            shards: self.index_repair.map_or(0, |_| self.entries.len()),
            correction,
            used_backup_header: self.used_backup_header,
            header_symbols_corrected: self.header_symbols_corrected,
            index_repair: self.index_repair,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A v1 container around an arbitrary (not necessarily ECC-encoded)
    /// payload, so header tests control every field.
    fn pack(meta: &ContainerMeta, payload: &[u8]) -> Result<Vec<u8>, ArcError> {
        let hlen = header_len(meta);
        let mut out = vec![0u8; hlen + payload.len()];
        write_header(meta, &mut out[..hlen])?;
        out[hlen..].copy_from_slice(payload);
        Ok(out)
    }

    fn meta() -> ContainerMeta {
        ContainerMeta {
            scheme_id: EccConfig::secded(true).id(),
            chunk_size: 1 << 20,
            data_len: 123_456,
            payload_len: 64,
            data_crc: 0xDEADBEEF,
            sharding: None,
        }
    }

    #[test]
    fn pack_unpack_round_trip() {
        let m = meta();
        let payload = vec![7u8; 64];
        let packed = pack(&m, &payload).unwrap();
        let u = unpack(&packed).unwrap();
        assert_eq!(u.meta, m);
        assert_eq!(u.payload, &payload[..]);
        assert!(!u.used_backup_header);
        assert_eq!(u.header_symbols_corrected, 0);
        assert!(u.index.is_none());
    }

    #[test]
    fn header_survives_scattered_corruption() {
        let m = meta();
        let payload = vec![1u8; 64];
        let packed = pack(&m, &payload).unwrap();
        // Corrupt 10 bytes of the primary header codeword.
        let mut bad = packed.clone();
        for i in 0..10 {
            bad[6 + i * 3] ^= 0xFF;
        }
        let u = unpack(&bad).unwrap();
        assert_eq!(u.meta, m);
        assert!(u.header_symbols_corrected > 0);
    }

    #[test]
    fn destroyed_primary_header_falls_back_to_backup() {
        let m = meta();
        let payload = vec![1u8; 64];
        let packed = pack(&m, &payload).unwrap();
        let len = u16::from_le_bytes(packed[0..2].try_into().unwrap()) as usize;
        let mut bad = packed.clone();
        for b in &mut bad[6..6 + len] {
            *b = 0xAA;
        }
        let u = unpack(&bad).unwrap();
        assert_eq!(u.meta, m);
        assert!(u.used_backup_header);
    }

    #[test]
    fn corrupted_length_prefix_is_voted_out() {
        let m = meta();
        let payload = vec![9u8; 64];
        let packed = pack(&m, &payload).unwrap();
        let mut bad = packed.clone();
        bad[0] ^= 0xFF; // first copy of the length field
        bad[1] ^= 0x13;
        let u = unpack(&bad).unwrap();
        assert_eq!(u.meta, m);
    }

    /// Overwrite the three length-prefix copies.
    fn set_lens(bytes: &mut [u8], lens: [u16; 3]) {
        for (copy, len) in lens.into_iter().enumerate() {
            bytes[2 * copy..2 * copy + 2].copy_from_slice(&len.to_le_bytes());
        }
    }

    #[test]
    fn length_prefix_without_majority_tries_every_candidate() {
        let m = meta();
        let packed = pack(&m, &[4u8; 64]).unwrap();
        let len = le_u16(&packed, 0);
        let past_end = u16::try_from(packed.len()).unwrap();
        let mut bad = packed.clone();
        // One copy too short, one true, one running past the container's
        // end: no two agree, so each candidate is tried on its own.
        set_lens(&mut bad, [len - 5, len, past_end]);
        let u = unpack(&bad).unwrap();
        assert_eq!(u.meta, m);
        assert_eq!(u.payload_offset, 6 + 2 * usize::from(len));
    }

    #[test]
    fn intact_candidate_past_the_end_is_corrupted() {
        let m = meta();
        let packed = pack(&m, &[5u8; 64]).unwrap();
        let len = le_u16(&packed, 0);
        // Both header codewords stay intact, but the container ends inside
        // the backup copy; the other candidates' codewords are garbage.
        let mut bad = packed[..6 + 2 * usize::from(len) - 1].to_vec();
        set_lens(&mut bad, [HEADER_NSYM as u16 + 1, HEADER_NSYM as u16 + 7, len]);
        assert!(matches!(unpack(&bad), Err(ArcError::Corrupted(_))));
    }

    #[test]
    fn both_headers_destroyed_is_detected() {
        let m = meta();
        let payload = vec![2u8; 64];
        let packed = pack(&m, &payload).unwrap();
        let len = u16::from_le_bytes(packed[0..2].try_into().unwrap()) as usize;
        let mut bad = packed.clone();
        for b in &mut bad[6..6 + 2 * len] {
            *b = 0x55;
        }
        assert!(matches!(unpack(&bad), Err(ArcError::Corrupted(_))));
    }

    #[test]
    fn payload_length_mismatch_detected() {
        let m = meta();
        let payload = vec![3u8; 64];
        let mut packed = pack(&m, &payload).unwrap();
        packed.truncate(packed.len() - 10);
        assert!(matches!(unpack(&packed), Err(ArcError::Corrupted(_))));
    }

    #[test]
    fn every_single_byte_corruption_of_header_region_recovers_or_detects() {
        let m = meta();
        let payload = vec![4u8; 64];
        let packed = pack(&m, &payload).unwrap();
        let len = u16::from_le_bytes(packed[0..2].try_into().unwrap()) as usize;
        for i in 0..6 + 2 * len {
            let mut bad = packed.clone();
            bad[i] ^= 0x40;
            match unpack(&bad) {
                Ok(u) => assert_eq!(u.meta, m, "byte {i}"),
                Err(e) => panic!("single-byte header damage at {i} unrecoverable: {e}"),
            }
        }
    }

    #[test]
    fn header_len_matches_pack_layout() {
        for config in EccConfig::standard_space() {
            let m = ContainerMeta { scheme_id: config.id(), ..meta() };
            let payload = vec![5u8; 64];
            let packed = pack(&m, &payload).unwrap();
            let hlen = header_len(&m);
            assert_eq!(packed.len(), hlen + payload.len(), "{}", m.scheme_id);
            assert_eq!(&packed[hlen..], &payload[..]);
            let u = unpack(&packed).unwrap();
            assert_eq!(u.payload_offset, hlen);
        }
    }

    #[test]
    fn write_header_overwrites_garbage() {
        let m = meta();
        let payload = vec![8u8; 64];
        let reference = pack(&m, &payload).unwrap();
        let hlen = header_len(&m);
        let mut buf = vec![0xCCu8; hlen];
        write_header(&m, &mut buf).unwrap();
        assert_eq!(&buf[..], &reference[..hlen]);
    }

    #[test]
    fn all_configs_serialize_in_header() {
        for config in EccConfig::standard_space() {
            let m = ContainerMeta { scheme_id: config.id(), ..meta() };
            let payload = vec![0u8; 64];
            let packed = pack(&m, &payload).unwrap();
            let u = unpack(&packed).unwrap();
            assert_eq!(EccConfig::parse_id(&u.meta.scheme_id), Ok(config));
        }
    }

    // ---- v2 sharded containers ----------------------------------------

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 37) ^ (i >> 5)) as u8).collect()
    }

    fn v2_container(data: &[u8], shard_size: usize) -> Vec<u8> {
        crate::engine::arc_engine_encode_sharded(data, EccConfig::secded(true), 1, shard_size)
            .unwrap()
    }

    #[test]
    fn sharded_header_round_trips() {
        let m = ContainerMeta {
            sharding: Some(ShardingMeta { shard_size: 4 << 20, index_len: 987 }),
            ..meta()
        };
        let header = serialize_header(&m);
        assert_eq!(header[4], VERSION_SHARDED);
        let parsed = parse_header(&header).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn sharded_unpack_recovers_index() {
        let data = sample(50_000);
        let packed = v2_container(&data, 16 << 10);
        let u = unpack(&packed).unwrap();
        let index = u.index.expect("v2 container has an index");
        assert_eq!(index.shard_count(), data.len().div_ceil(16 << 10));
        assert_eq!(u.payload.len(), u.meta.payload_len);
        assert_eq!(u.index_repair, IndexRepair::default());
        // Per-shard CRCs match the original slices, which tile the input.
        let mut start = 0;
        for e in &index.entries {
            assert_eq!(e.crc, crc32(&data[start..start + e.decoded_len]));
            start += e.decoded_len;
        }
        assert_eq!(start, data.len());
    }

    #[test]
    fn sharded_index_survives_one_destroyed_copy() {
        let data = sample(40_000);
        let packed = v2_container(&data, 8 << 10);
        let u = unpack(&packed).unwrap();
        let sh = u.meta.sharding.unwrap();
        let istart = u.payload_offset + u.meta.payload_len;
        // Destroy the entire first index copy.
        let mut bad = packed.clone();
        for b in &mut bad[istart..istart + sh.index_len] {
            *b = 0xAA;
        }
        let r = unpack(&bad).unwrap();
        assert_eq!(r.index, u.index);
        assert_eq!(r.index_repair.copy_used, 1);
        assert!(!r.index_repair.majority_voted);
    }

    #[test]
    fn sharded_index_majority_vote_rescues_three_damaged_copies() {
        let data = sample(40_000);
        let packed = v2_container(&data, 8 << 10);
        let u = unpack(&packed).unwrap();
        let sh = u.meta.sharding.unwrap();
        let istart = u.payload_offset + u.meta.payload_len;
        // Damage every copy beyond its own RS repair (nsym/2 = 16 bytes
        // per codeword), but at copy-distinct positions so the bitwise
        // vote still sees two clean copies of every byte.
        let mut bad = packed.clone();
        for copy in 0..3 {
            let base = istart + copy * sh.index_len;
            for i in 0..20 {
                bad[base + (copy + 3 * i) % sh.index_len] ^= 0xFF;
            }
        }
        let r = unpack(&bad).unwrap();
        assert_eq!(r.index, u.index);
        assert!(r.index_repair.majority_voted);
    }

    #[test]
    fn sharded_truncation_is_detected_at_every_boundary() {
        let data = sample(10_000);
        let packed = v2_container(&data, 4 << 10);
        for cut in 1..=64 {
            let short = &packed[..packed.len() - cut];
            assert!(unpack(short).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn sharded_empty_data_round_trips() {
        let packed = v2_container(&[], 4 << 10);
        let u = unpack(&packed).unwrap();
        assert_eq!(u.meta.data_len, 0);
        assert_eq!(u.index.unwrap().shard_count(), 0);
    }

    #[test]
    fn index_rejects_tampered_entry() {
        let data = sample(30_000);
        let packed = v2_container(&data, 8 << 10);
        let u = unpack(&packed).unwrap();
        let sh = u.meta.sharding.unwrap();
        let istart = u.payload_offset + u.meta.payload_len;
        // Flip the same raw byte in all three copies *and* regenerate
        // nothing — RS + CRC must refuse the forged geometry rather than
        // serve a wrong index.
        let mut bad = packed.clone();
        for copy in 0..3 {
            let base = istart + copy * sh.index_len;
            for b in &mut bad[base..base + 40] {
                *b ^= 0x5A;
            }
        }
        assert!(unpack(&bad).is_err());
    }

    #[test]
    fn v1_and_v2_header_lens_differ_by_sharding_fields() {
        let v1 = meta();
        let v2 = ContainerMeta {
            sharding: Some(ShardingMeta { shard_size: 1 << 20, index_len: 44 }),
            ..meta()
        };
        assert_eq!(header_len(&v2), header_len(&v1) + 32); // 2 copies × 16 bytes
    }
}
