//! A ZStd-style pipeline: LZ77 with sectioned literal / sequence streams.
//!
//! SZ's final lossless pass is ZStd (§4.4: "ZStd starts with a dictionary
//! matching stage … before performing finite-state entropy encoding and
//! Huffman encoding"). This module reproduces that *structure*: literals are
//! gathered into one entropy-coded section and match commands into another,
//! so a bit flip near the stream head disturbs the tables every later symbol
//! depends on — the exact mechanism behind the paper's finding that early
//! bits corrupt the most elements (Fig 4). The match finder also speeds up
//! through incompressible stretches as ZStd's do ([`crate::lz77`]): past 256
//! literals in a row, each search is followed by `run >> 8` bytes it passes
//! over, so a body of mostly raw `f32` literals costs a fraction of a search
//! per byte.
//!
//! Frame layout:
//! `magic "AZST" ‖ varint orig_len ‖ literals (huffman block) ‖
//!  varint n_sequences ‖ sequence block (huffman-coded command stream)`
//!
//! Each sequence is `(literal_run, match_len, match_dist)`; the command
//! stream huffman-codes log2-bucketized values with raw extra bits.

use crate::bitio::{read_varint, write_varint, BitReader, BitWriter};
use crate::error::LosslessError;
use crate::huffman::{decode_block, encode_block, HuffmanCode};
use crate::lz77::{for_each_token, Lz77Config, Token, MAX_MATCH, WINDOW};

const MAGIC: &[u8; 4] = b"AZST";

/// A parsed LZ sequence: run of literals, then one match (the final
/// sequence's match may be absent, encoded as `match_len == 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sequence {
    lit_run: u32,
    match_len: u32,
    match_dist: u32,
}

/// Bucket a value into (log2 bucket, extra bits payload, extra bit count).
#[inline]
fn log_bucket(v: u32) -> (u32, u32, u32) {
    debug_assert!(v > 0);
    let bucket = 31 - v.leading_zeros();
    let extra = v - (1 << bucket);
    (bucket, extra, bucket)
}

#[inline]
fn unlog_bucket(bucket: u32, extra: u32) -> Result<u32, LosslessError> {
    if bucket >= 31 {
        return Err(LosslessError::malformed("log bucket out of range"));
    }
    if bucket > 0 && extra >= (1 << bucket) {
        return Err(LosslessError::malformed("log-bucket extra bits out of range"));
    }
    Ok((1 << bucket) + extra)
}

/// The three command symbols of a sequence, each as (symbol, extra bits,
/// extra bit count). Command alphabet: 32 lit-run buckets ‖ 32 len buckets ‖
/// 32 dist buckets.
#[inline]
fn commands(s: &Sequence) -> [(u32, u32, u32); 3] {
    let (b, x, nb) = log_bucket(s.lit_run + 1); // +1 so zero runs encode
    let (b2, x2, nb2) = log_bucket(s.match_len + 1);
    let (b3, x3, nb3) = log_bucket(s.match_dist + 1);
    [(b, x, nb), (32 + b2, x2, nb2), (64 + b3, x3, nb3)]
}

/// Compress `data` with the zstd-like pipeline.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut sections = Sections { literals: Vec::with_capacity(data.len()), ..Sections::default() };
    for_each_token(data, &Lz77Config::default(), |t| sections.push(t));
    sections.into_frame(data.len())
}

/// The frame writer's input: the match finder's tokens go straight into a
/// literal byte stream plus sequences.
#[derive(Default)]
struct Sections {
    literals: Vec<u8>,
    sequences: Vec<Sequence>,
    /// Literals since the last match.
    run: u32,
}

impl Sections {
    #[inline]
    fn push(&mut self, t: Token) {
        match t {
            Token::Literal(b) => {
                self.literals.push(b);
                self.run += 1;
            }
            Token::Match { len, dist } => {
                self.sequences.push(Sequence {
                    lit_run: self.run,
                    match_len: len,
                    match_dist: dist,
                });
                self.run = 0;
            }
        }
    }

    /// The frame of an input of `len` bytes whose tokens were pushed.
    fn into_frame(self, len: usize) -> Vec<u8> {
        let Sections { literals, mut sequences, run } = self;
        if run > 0 {
            sequences.push(Sequence { lit_run: run, match_len: 0, match_dist: 0 });
        }
        let mut freq = vec![0u64; 96];
        for (sym, _, _) in sequences.iter().flat_map(commands) {
            freq[sym as usize] += 1;
        }
        let code = HuffmanCode::code_for_frequencies(&freq);
        let mut bits = BitWriter::new();
        for (sym, extra, nb) in sequences.iter().flat_map(commands) {
            code.encode_symbol(sym, &mut bits);
            bits.write_bits(extra as u64, nb);
        }
        let seq_payload = bits.into_bytes();

        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        write_varint(&mut out, len as u64);
        // Literals are bytes (< 256), so the alphabet check cannot fire; an
        // empty block decodes as zero literals, which the decoder zero-pads.
        let lit_block = encode_block(&literals, 256).unwrap_or_default();
        write_varint(&mut out, lit_block.len() as u64);
        out.extend_from_slice(&lit_block);
        write_varint(&mut out, sequences.len() as u64);
        code.serialize(&mut out);
        write_varint(&mut out, seq_payload.len() as u64);
        out.extend_from_slice(&seq_payload);
        out
    }
}

/// Default decode output budget: a corrupted length field may not demand
/// more than this many bytes (callers with tighter limits use
/// [`decompress_with_limit`]).
pub const DEFAULT_MAX_OUTPUT: u64 = 1 << 31;

/// Decompress a frame produced by [`compress`].
pub fn decompress(bytes: &[u8]) -> Result<Vec<u8>, LosslessError> {
    decompress_with_limit(bytes, DEFAULT_MAX_OUTPUT)
}

/// Decompress with an explicit output-byte budget: a declared length above
/// `max_output` is rejected as [`LosslessError::WorkBudgetExceeded`] before
/// the output vector (which is resized to the declared length) is touched.
// arc-lint: decode-root
pub fn decompress_with_limit(bytes: &[u8], max_output: u64) -> Result<Vec<u8>, LosslessError> {
    if !bytes.starts_with(MAGIC) {
        return Err(LosslessError::malformed("bad zstd-like magic"));
    }
    let mut pos = 4usize;
    let declared = read_varint(bytes, &mut pos)?;
    if declared > max_output.min(1 << 31) {
        return Err(LosslessError::WorkBudgetExceeded {
            demanded: declared,
            budget: max_output.min(1 << 31),
        });
    }
    let orig_len = declared as usize;
    let lit_len = read_varint(bytes, &mut pos)? as usize;
    let lit_end = pos
        .checked_add(lit_len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| LosslessError::truncated("literal section"))?;
    let mut lit_pos = pos;
    // One byte per literal, not a `u32`. A corrupted table can code symbols
    // past 255; like the permissive command reader below, such a symbol
    // yields a wrong value (its low byte), not an error.
    let literals = decode_block(bytes, &mut lit_pos, |sym| sym as u8)?;
    if lit_pos > lit_end {
        return Err(LosslessError::malformed("literal section overruns its length"));
    }
    pos = lit_end;
    let n_seq = read_varint(bytes, &mut pos)? as usize;
    if n_seq > orig_len + 1 {
        return Err(LosslessError::malformed("implausible sequence count"));
    }
    let code = HuffmanCode::deserialize(bytes, &mut pos)?;
    if code.alphabet_size() != 96 {
        return Err(LosslessError::malformed("unexpected command alphabet"));
    }
    let seq_len = read_varint(bytes, &mut pos)? as usize;
    let seq = pos
        .checked_add(seq_len)
        .and_then(|seq_end| bytes.get(pos..seq_end))
        .ok_or_else(|| LosslessError::truncated("sequence section"))?;
    let decoder = code.decoder();
    let mut r = BitReader::new(seq);
    // Permissive value reader: like real ZStd (whose interleaved FSE
    // streams happily decode corrupted bits into *some* value), a flipped
    // bit yields a wrong value, not an exception. Class mismatches are
    // reinterpreted within the expected class; an exhausted bitstream
    // yields zeros. This is what lets most of the paper's fault-injection
    // trials "Complete" with silent corruption (§4.2).
    let read_value = |r: &mut BitReader<'_>| -> u32 {
        let Ok(sym) = decoder.decode_symbol(r) else { return 0 };
        let bucket = sym % 32;
        let extra = r.read_bits(bucket.min(31)).unwrap_or(0) as u32;
        unlog_bucket(bucket, extra).map(|v| v - 1).unwrap_or(0)
    };
    let mut out = Vec::with_capacity(orig_len.min(1 << 26));
    // The literals not consumed yet.
    let mut pool = literals.as_slice();
    for _ in 0..n_seq {
        let lit_run = read_value(&mut r) as usize;
        let match_len = read_value(&mut r) as usize;
        let match_dist = read_value(&mut r) as usize;
        // Clamp the literal run to what remains; missing literals are zero.
        let take = lit_run.min(pool.len()).min(orig_len.saturating_sub(out.len()));
        let (run, rest) = pool.split_at(take);
        out.extend_from_slice(run);
        pool = rest;
        if take < lit_run {
            let pad = (lit_run - take).min(orig_len.saturating_sub(out.len()));
            out.extend(std::iter::repeat_n(0u8, pad));
        }
        if match_len > 0 && !out.is_empty() {
            let match_len = match_len.clamp(1, MAX_MATCH);
            let match_dist = match_dist.clamp(1, out.len().min(WINDOW));
            // The copy overlaps itself when `match_dist < match_len`: the
            // bytes from `start` repeat with period `match_dist`. Each pass
            // copies all of `start..` made so far, a whole number of
            // periods, so the copied run doubles with every pass.
            let start = out.len() - match_dist;
            let end = (out.len() + match_len).min(orig_len);
            while out.len() < end {
                let n = (end - out.len()).min(out.len() - start);
                out.extend_from_within(start..start + n);
            }
        }
        if out.len() >= orig_len {
            break;
        }
        // A corrupted sequence count can claim up to `orig_len + 1` entries;
        // once both the command bitstream and the literal pool are dry every
        // further iteration is a no-op, so stop instead of spinning through
        // up to 2^31 dead sequences (the fault study's *Timeout* class).
        if r.remaining() == 0 && pool.is_empty() {
            break;
        }
    }
    // Real ZStd has no end-of-frame content check unless the optional
    // checksum is enabled; pad or truncate to the declared length.
    // arc-lint: bounded(orig_len <= max_output checked at entry)
    out.resize(orig_len, 0);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::huffman::huffman_encode_block;
    use crate::lz77::tests::differential_input;
    use crate::lz77::{reference, WINDOW};

    fn round_trip(data: &[u8]) -> Vec<u8> {
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data, "len {}", data.len());
        c
    }

    #[test]
    fn log_bucket_round_trip() {
        for v in 1..=70_000u32 {
            let (b, x, _) = log_bucket(v);
            assert_eq!(unlog_bucket(b, x).unwrap(), v);
        }
    }

    #[test]
    fn empty_and_small() {
        round_trip(b"");
        round_trip(b"z");
        round_trip(b"zzzz");
        round_trip(b"abcdefg");
    }

    #[test]
    fn repetitive_input_compresses_well() {
        let data = b"error correcting codes protect lossy compressed data. ".repeat(200);
        let c = round_trip(&data);
        assert!(c.len() < data.len() / 5, "{} vs {}", c.len(), data.len());
    }

    #[test]
    fn trailing_literals_after_last_match() {
        let mut data = b"abcdabcdabcdabcd".to_vec();
        data.extend_from_slice(b"XYZ!"); // unique tail, forced literal run
        round_trip(&data);
    }

    #[test]
    fn random_bytes_round_trip() {
        let data: Vec<u8> =
            (0..9000u64).map(|i| (i.wrapping_mul(0xD1B54A32D192ED03) >> 40) as u8).collect();
        round_trip(&data);
    }

    #[test]
    fn large_structured_input() {
        let data: Vec<u8> =
            (0..200_000).map(|i| (((i / 17) % 251) as u8) ^ (i % 3) as u8).collect();
        round_trip(&data);
    }

    #[test]
    fn corruption_never_panics() {
        let data = b"soft errors have become increasingly commonplace ".repeat(40);
        let c = compress(&data);
        for i in (0..c.len()).step_by(2) {
            let mut bad = c.clone();
            bad[i] ^= 0x10;
            let _ = decompress(&bad); // Err or wrong output, never a panic
        }
    }

    #[test]
    fn truncation_fails() {
        let c = compress(&b"12345678".repeat(100));
        for cut in [4usize, 10, c.len() / 2, c.len() - 1] {
            assert!(decompress(&c[..cut]).is_err());
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut c = compress(b"whatever data");
        c[1] = b'X';
        assert!(decompress(&c).is_err());
    }

    #[test]
    fn long_repeats_compress_past_100_to_1() {
        let data = vec![42u8; 500_000];
        let z = round_trip(&data);
        assert!(z.len() < data.len() / 100, "{} vs {}", z.len(), data.len());
    }

    /// 64-bit FNV-1a.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }

    /// `compress` of [`differential_input`]`(kind, 2 × WINDOW + 4321, 77 + kind)`
    /// as written before the step through literal runs: (kind, frame length,
    /// FNV-1a of the frame).
    const PARENT_FRAMES: [(u64, usize, u64); 3] = [
        (0, 135945, 0xfd2be3d2c445be10),
        (1, 50046, 0xf9605596b6f3ae98),
        (2, 79233, 0xe7f00a2b9c5f3dea),
    ];

    /// Every frame written before the step is the parent parse through the one
    /// frame writer; it must still decode byte for byte.
    #[test]
    fn frames_of_the_parent_parse_still_decode() {
        for (kind, len, sum) in PARENT_FRAMES {
            let data = differential_input(kind, 2 * WINDOW + 4321, 77 + kind);
            let mut sections = Sections::default();
            for t in reference::tokenize(&data, &Lz77Config::default(), None) {
                sections.push(t);
            }
            let frame = sections.into_frame(data.len());
            assert_eq!((frame.len(), fnv1a(&frame)), (len, sum), "kind {kind}");
            assert_eq!(decompress(&frame).unwrap(), data, "kind {kind}");
            // The four-symbol source never reaches a 256-byte literal run.
            assert_eq!(frame == compress(&data), kind == 1, "kind {kind}");
        }
    }

    /// The literal section is decoded into bytes: a corrupted table over 257
    /// symbols still decodes, symbol 256 as its low byte, as it did when
    /// literals were decoded into `u32`s and narrowed.
    #[test]
    fn literal_symbols_past_255_keep_their_low_byte() {
        let data = b"abcdefgh".repeat(10);
        let frame = compress(&data);
        let mut pos = MAGIC.len();
        read_varint(&frame, &mut pos).unwrap();
        let lit_len = read_varint(&frame, &mut pos).unwrap() as usize;
        let sequences = &frame[pos + lit_len..];
        let with_literals = |symbols: &[u32], alphabet| {
            let block = huffman_encode_block(symbols, alphabet).unwrap();
            let mut out = MAGIC.to_vec();
            write_varint(&mut out, data.len() as u64);
            write_varint(&mut out, block.len() as u64);
            out.extend_from_slice(&block);
            out.extend_from_slice(sequences);
            out
        };
        let mut symbols: Vec<u32> = b"abcdefgh".iter().map(|&b| b.into()).collect();
        assert_eq!(decompress(&with_literals(&symbols, 256)).unwrap(), data);
        symbols[0] = 256;
        let mut want = data.clone();
        for chunk in want.chunks_mut(8) {
            chunk[0] = 0;
        }
        assert_eq!(decompress(&with_literals(&symbols, 257)).unwrap(), want);
    }
}
