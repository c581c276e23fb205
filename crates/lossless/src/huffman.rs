//! Canonical Huffman coding over arbitrary `u32` alphabets.
//!
//! SZ entropy-codes its quantization bins with a Huffman tree whose alphabet
//! can run to tens of thousands of symbols (§4.4 discusses how this final
//! encoding stage shapes error propagation); the zstd-like pipeline reuses
//! the same coder for literals and match commands. Canonical
//! codes let the table be serialized as code *lengths* only.

use crate::bitio::{read_varint, write_varint, BitReader, BitWriter};
use crate::error::LosslessError;

/// Maximum admissible code length. Code lengths beyond this indicate either
/// a pathological distribution or stream corruption.
pub const MAX_CODE_LEN: u32 = 48;

/// A canonical Huffman code: one length per symbol (0 = unused symbol).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuffmanCode {
    /// Code length per symbol index; `lengths.len()` is the alphabet size.
    lengths: Vec<u8>,
    /// Canonical codewords per symbol (valid where length > 0).
    codes: Vec<u64>,
}

/// `lengths[sym] = len`, for a symbol the table holds.
fn set_length(lengths: &mut [u8], sym: usize, len: u8) {
    if let Some(l) = lengths.get_mut(sym) {
        *l = len;
    }
}

impl HuffmanCode {
    /// Build an optimal prefix code from symbol frequencies.
    ///
    /// Symbols with zero frequency get no code. If only one distinct symbol
    /// occurs it receives a 1-bit code so the stream stays decodable.
    pub fn from_frequencies(freqs: &[u64]) -> Result<HuffmanCode, LosslessError> {
        let mut lengths = vec![0u8; freqs.len()];
        let used: Vec<(usize, u64)> =
            freqs.iter().copied().enumerate().filter(|&(_, f)| f > 0).collect();
        if used.len() < 2 {
            for &(sym, _) in &used {
                set_length(&mut lengths, sym, 1);
            }
            return HuffmanCode::from_lengths(lengths);
        }
        // Heap-merge Huffman tree; nodes: (weight, tiebreak, id).
        #[derive(PartialEq, Eq)]
        struct Node {
            weight: u64,
            order: usize,
            id: usize,
        }
        impl Ord for Node {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reverse for min-heap; tiebreak on creation order for
                // determinism and balanced depth.
                other.weight.cmp(&self.weight).then(other.order.cmp(&self.order))
            }
        }
        impl PartialOrd for Node {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut heap = std::collections::BinaryHeap::with_capacity(used.len());
        // parent[id] for tree nodes; leaves are ids 0..used.len().
        let mut parent: Vec<usize> = vec![usize::MAX; used.len()];
        for (order, &(_, weight)) in used.iter().enumerate() {
            heap.push(Node { weight, order, id: order });
        }
        let mut next_order = used.len();
        while heap.len() > 1 {
            let (Some(a), Some(b)) = (heap.pop(), heap.pop()) else { break };
            let id = parent.len();
            parent.push(usize::MAX);
            for child in [a.id, b.id] {
                if let Some(p) = parent.get_mut(child) {
                    *p = id;
                }
            }
            heap.push(Node { weight: a.weight.saturating_add(b.weight), order: next_order, id });
            next_order += 1;
        }
        let Some(root_node) = heap.pop() else {
            return Err(LosslessError::malformed("huffman merge heap drained"));
        };
        let root = root_node.id;
        for (leaf, &(sym, _)) in used.iter().enumerate() {
            let mut depth = 0u32;
            let mut node = leaf;
            while node != root {
                // Every node below the root has its parent set by the merge.
                node = parent.get(node).copied().unwrap_or(root);
                depth += 1;
            }
            if depth > MAX_CODE_LEN {
                return Err(LosslessError::malformed("huffman code length overflow"));
            }
            set_length(&mut lengths, sym, depth as u8);
        }
        HuffmanCode::from_lengths(lengths)
    }

    /// Build the canonical code from per-symbol lengths, validating the
    /// Kraft equality (a corrupted table must be rejected, not trusted).
    ///
    /// Over-subscribed tables (Kraft sum above 1) would assign duplicate
    /// codewords; under-subscribed tables (sum below 1) leave codewords that
    /// decode to nothing, so a flipped table byte could send the decoder into
    /// the "invalid codeword" dead zone with data the encoder never wrote.
    /// Both are rejected. The only admissible incomplete code is the
    /// degenerate single-symbol table (one symbol, length 1), which the
    /// encoder emits for constant streams.
    pub fn from_lengths(lengths: Vec<u8>) -> Result<HuffmanCode, LosslessError> {
        let max_len = lengths.iter().copied().max().unwrap_or(0) as u32;
        if max_len > MAX_CODE_LEN {
            return Err(LosslessError::malformed("huffman length exceeds maximum"));
        }
        // Kraft sum in units of 2^-max_len.
        if max_len > 0 {
            let mut kraft: u128 = 0;
            let mut coded = 0usize;
            for &l in &lengths {
                if l > 0 {
                    kraft += 1u128 << (max_len - l as u32);
                    coded += 1;
                }
            }
            if kraft > (1u128 << max_len) {
                return Err(LosslessError::malformed("huffman lengths violate Kraft inequality"));
            }
            let single_symbol = coded == 1 && max_len == 1;
            if kraft < (1u128 << max_len) && !single_symbol {
                return Err(LosslessError::malformed("huffman lengths are under-subscribed"));
            }
        }
        // Canonical assignment: sort by (length, symbol).
        let mut order: Vec<(u8, usize)> =
            lengths.iter().enumerate().filter(|&(_, &l)| l > 0).map(|(i, &l)| (l, i)).collect();
        order.sort_unstable();
        let mut codes = vec![0u64; lengths.len()];
        let mut code = 0u64;
        let mut prev_len = 0u32;
        for (l, sym) in order {
            let l = l as u32;
            code <<= l - prev_len;
            if let Some(c) = codes.get_mut(sym) {
                *c = code;
            }
            code += 1;
            prev_len = l;
        }
        Ok(HuffmanCode { lengths, codes })
    }

    /// Build a Kraft-complete balanced code over the symbols with nonzero
    /// frequency, ignoring the frequency magnitudes.
    ///
    /// For `n` coded symbols and `L = ceil(log2 n)`, the first `2^L - n`
    /// symbols get length `L-1` and the rest length `L`, which sums Kraft to
    /// exactly one. Used as the fallback when the optimal tree of
    /// [`HuffmanCode::from_frequencies`] would exceed [`MAX_CODE_LEN`]
    /// (requires Fibonacci-scale skew, ~2^48 total count) so encoders never
    /// have to fail.
    pub fn balanced(freqs: &[u64]) -> Result<HuffmanCode, LosslessError> {
        let mut lengths = vec![0u8; freqs.len()];
        let used: Vec<usize> =
            freqs.iter().enumerate().filter(|&(_, &f)| f > 0).map(|(i, _)| i).collect();
        match used.len() {
            0 => {}
            1 => used.iter().for_each(|&sym| set_length(&mut lengths, sym, 1)),
            n => {
                let l = usize::BITS - (n - 1).leading_zeros();
                let short = (1usize << l) - n;
                for (i, &sym) in used.iter().enumerate() {
                    set_length(&mut lengths, sym, if i < short { (l - 1) as u8 } else { l as u8 });
                }
            }
        }
        HuffmanCode::from_lengths(lengths)
    }

    /// Optimal code when its depth fits [`MAX_CODE_LEN`], otherwise the
    /// [`HuffmanCode::balanced`] complete code. Total for every admissible
    /// alphabet (≤ 2^24 symbols), so encode paths need no error branch.
    pub fn code_for_frequencies(freqs: &[u64]) -> HuffmanCode {
        HuffmanCode::from_frequencies(freqs)
            .or_else(|_| HuffmanCode::balanced(freqs))
            .unwrap_or_else(|_| HuffmanCode { lengths: Vec::new(), codes: Vec::new() })
    }

    /// Alphabet size (including unused symbols).
    pub fn alphabet_size(&self) -> usize {
        self.lengths.len()
    }

    /// Code length of `symbol` (0 = unused).
    pub fn length_of(&self, symbol: u32) -> u8 {
        self.lengths.get(symbol as usize).copied().unwrap_or(0)
    }

    /// Write `symbol`'s codeword to `out`. A symbol absent from the
    /// frequency table has no code and writes nothing.
    #[inline]
    pub fn encode_symbol(&self, symbol: u32, out: &mut BitWriter) {
        let s = symbol as usize;
        if let (Some(&l), Some(&code)) = (self.lengths.get(s), self.codes.get(s)) {
            out.write_bits(code, l as u32);
        }
    }

    /// Serialize the table (alphabet size + sparse nonzero lengths).
    pub fn serialize(&self, out: &mut Vec<u8>) {
        write_varint(out, self.lengths.len() as u64);
        let nonzero: Vec<(usize, u8)> =
            self.lengths.iter().copied().enumerate().filter(|&(_, l)| l > 0).collect();
        write_varint(out, nonzero.len() as u64);
        let mut prev = 0u64;
        for &(i, l) in &nonzero {
            write_varint(out, i as u64 - prev);
            out.push(l);
            prev = i as u64;
        }
    }

    /// Parse a table serialized by [`HuffmanCode::serialize`].
    pub fn deserialize(bytes: &[u8], pos: &mut usize) -> Result<HuffmanCode, LosslessError> {
        let alphabet = read_varint(bytes, pos)?;
        if alphabet > 1 << 24 {
            return Err(LosslessError::malformed("huffman alphabet implausibly large"));
        }
        let count = read_varint(bytes, pos)?;
        if count > alphabet {
            return Err(LosslessError::malformed("more coded symbols than alphabet"));
        }
        // Bounded: alphabet <= 1 << 24 checked above.
        let mut lengths = vec![0u8; alphabet as usize];
        let mut sym = 0u64;
        for i in 0..count {
            let delta = read_varint(bytes, pos)?;
            sym = if i == 0 {
                delta
            } else {
                sym.checked_add(delta)
                    .ok_or_else(|| LosslessError::malformed("symbol index overflow"))?
            };
            let slot = usize::try_from(sym)
                .ok()
                .and_then(|sym| lengths.get_mut(sym))
                .ok_or_else(|| LosslessError::malformed("symbol index out of alphabet"))?;
            let l = *bytes.get(*pos).ok_or_else(|| LosslessError::truncated("huffman table"))?;
            *pos += 1;
            if l == 0 {
                return Err(LosslessError::malformed("zero length in nonzero table"));
            }
            *slot = l;
        }
        HuffmanCode::from_lengths(lengths)
    }

    /// Build a decoder for this code.
    pub fn decoder(&self) -> HuffmanDecoder {
        let max_len = self.lengths.iter().copied().max().unwrap_or(0) as u32;
        let primary_bits = max_len.min(PRIMARY_BITS);
        let mut symbols_by_len: Vec<u32> =
            (0..self.lengths.len() as u32).filter(|&s| self.length_of(s) > 0).collect();
        symbols_by_len.sort_by_key(|&s| (self.length_of(s), s));
        // Bounded: max_len <= MAX_CODE_LEN enforced by from_lengths.
        let mut rows = vec![LengthRow::default(); (max_len + 1) as usize];
        // Bounded: primary_bits <= PRIMARY_BITS = 11, so at most 2048 entries.
        let mut primary = vec![PrimaryEntry::default(); 1usize << primary_bits];
        // Symbols arrive in canonical order, so the codes of one length are
        // consecutive and the first code seen under a primary index is the
        // shortest one there.
        for (index, &symbol) in symbols_by_len.iter().enumerate() {
            let len = self.length_of(symbol) as u32;
            let code = self.codes.get(symbol as usize).copied().unwrap_or(0);
            if let Some(row) = rows.get_mut(len as usize) {
                if row.limit == row.first_code {
                    *row = LengthRow { first_code: code, limit: code, first_index: index as u64 };
                }
                row.limit += 1;
            }
            if len <= primary_bits {
                let lo = (code << (primary_bits - len)) as usize;
                let span = 1usize << (primary_bits - len);
                if let Some(slots) = primary.get_mut(lo..lo + span) {
                    slots.fill(PrimaryEntry { symbol, len: len as u8 });
                }
            } else if let Some(slot) = primary.get_mut((code >> (len - primary_bits)) as usize) {
                if slot.len == 0 {
                    slot.len = len as u8;
                }
            }
        }
        HuffmanDecoder { max_len, primary_bits, primary, rows, symbols_by_len }
    }
}

/// Width of the primary decode table: codes up to this long resolve in one
/// lookup of a table that, at 2^11 eight-byte entries, stays in L1.
const PRIMARY_BITS: u32 = 11;

/// What the next `primary_bits` bits of the stream select.
#[derive(Debug, Clone, Copy, Default)]
struct PrimaryEntry {
    /// The decoded symbol, when `len <= primary_bits`.
    symbol: u32,
    /// `1..=primary_bits`: a code this long is a prefix of the index, and
    /// `symbol` is its symbol. Longer: the index is a prefix only of longer
    /// codes, the shortest of which has this length. 0: no code starts this
    /// way (the upper half of the single-symbol code).
    len: u8,
}

/// The canonical codes of one length: `first_code..limit`, whose symbols
/// start at `first_index` in `symbols_by_len`.
#[derive(Debug, Clone, Copy, Default)]
struct LengthRow {
    first_code: u64,
    limit: u64,
    first_index: u64,
}

/// Canonical Huffman decoder: a primary table for short codes, and for the
/// longer ones a per-length limit compare on the same peeked window.
#[derive(Debug, Clone)]
pub struct HuffmanDecoder {
    max_len: u32,
    primary_bits: u32,
    primary: Vec<PrimaryEntry>,
    /// Indexed by code length, `0..=max_len`.
    rows: Vec<LengthRow>,
    symbols_by_len: Vec<u32>,
}

impl HuffmanDecoder {
    /// Decode one symbol from the reader.
    ///
    /// On an error the cursor is where reading the code one bit at a time
    /// would have left it, because the permissive callers carry on: at the
    /// end of the stream when it ran out mid-code, past the whole window
    /// when no code matched.
    #[inline]
    pub fn decode_symbol(&self, r: &mut BitReader<'_>) -> Result<u32, LosslessError> {
        if self.max_len == 0 {
            return Err(LosslessError::malformed("decode from empty huffman code"));
        }
        let window = r.peek_bits(self.max_len);
        let index = (window >> (self.max_len - self.primary_bits)) as usize;
        let entry = self.primary.get(index).copied().unwrap_or_default();
        let hit = match entry.len as u32 {
            0 => None,
            len if len <= self.primary_bits => Some((entry.symbol, len)),
            len => self.decode_long(window, len as usize),
        };
        let Some((symbol, len)) = hit else {
            r.consume(self.max_len as u64);
            return Err(LosslessError::malformed("invalid huffman codeword"));
        };
        // A code that ends in the zero fill means the stream ran out.
        let whole = r.remaining() >= len as u64;
        r.consume(len as u64);
        if whole {
            Ok(symbol)
        } else {
            Err(LosslessError::truncated("bit stream exhausted"))
        }
    }

    /// Resolve a code longer than the primary table: the first length, from
    /// `start` up, whose limit exceeds that many bits of the window.
    fn decode_long(&self, window: u64, start: usize) -> Option<(u32, u32)> {
        for (len, row) in self.rows.iter().enumerate().skip(start) {
            let code = window >> (self.max_len - len as u32);
            if code < row.limit {
                let index = row.first_index + code.checked_sub(row.first_code)?;
                return Some((*self.symbols_by_len.get(index as usize)?, len as u32));
            }
        }
        None
    }
}

/// Encode a symbol slice as `serialized table ‖ varint count ‖ bitstream`.
pub fn huffman_encode_block(symbols: &[u32], alphabet: usize) -> Result<Vec<u8>, LosslessError> {
    encode_block(symbols, alphabet)
}

/// [`huffman_encode_block`] over any symbol type no wider than `u32`.
/// `#[inline]` so each caller compiles its own instantiation in place: left
/// to the generic's own codegen unit the `u32` one encodes 30 % slower.
#[inline]
pub(crate) fn encode_block<S: Copy + Into<u32>>(
    symbols: &[S],
    alphabet: usize,
) -> Result<Vec<u8>, LosslessError> {
    let mut freqs = vec![0u64; alphabet];
    for &s in symbols {
        *freqs
            .get_mut(s.into() as usize)
            .ok_or_else(|| LosslessError::malformed("symbol outside alphabet"))? += 1;
    }
    let code = HuffmanCode::code_for_frequencies(&freqs);
    let mut out = Vec::new();
    code.serialize(&mut out);
    write_varint(&mut out, symbols.len() as u64);
    let mut bits = BitWriter::new();
    for &s in symbols {
        code.encode_symbol(s.into(), &mut bits);
    }
    let payload = bits.into_bytes();
    write_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Decode a block produced by [`huffman_encode_block`], advancing `pos`.
pub fn huffman_decode_block(bytes: &[u8], pos: &mut usize) -> Result<Vec<u32>, LosslessError> {
    decode_block(bytes, pos, |sym| sym)
}

/// [`huffman_decode_block`] storing each symbol as `store(symbol)`, so a
/// caller that needs fewer than 32 bits per symbol never holds a `Vec<u32>`.
#[inline]
pub(crate) fn decode_block<S>(
    bytes: &[u8],
    pos: &mut usize,
    store: impl Fn(u32) -> S,
) -> Result<Vec<S>, LosslessError> {
    let code = HuffmanCode::deserialize(bytes, pos)?;
    let n = read_varint(bytes, pos)? as usize;
    if n > 1 << 31 {
        return Err(LosslessError::malformed("implausible symbol count"));
    }
    let payload_len = read_varint(bytes, pos)? as usize;
    let truncated = || LosslessError::truncated("huffman payload");
    let end = pos.checked_add(payload_len).ok_or_else(truncated)?;
    let payload = bytes.get(*pos..end).ok_or_else(truncated)?;
    *pos = end;
    let decoder = code.decoder();
    let mut r = BitReader::new(payload);
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(store(decoder.decode_symbol(&mut r)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::reference;

    fn round_trip(symbols: &[u32], alphabet: usize) {
        let enc = huffman_encode_block(symbols, alphabet).unwrap();
        let mut pos = 0;
        let dec = huffman_decode_block(&enc, &mut pos).unwrap();
        assert_eq!(dec, symbols);
        assert_eq!(pos, enc.len());
    }

    #[test]
    fn skewed_distribution_round_trip() {
        let mut syms = Vec::new();
        for i in 0..2000u32 {
            syms.push(if i % 10 == 0 { i % 50 } else { 7 });
        }
        round_trip(&syms, 64);
    }

    #[test]
    fn single_symbol_stream() {
        round_trip(&[5u32; 100], 16);
    }

    #[test]
    fn empty_stream() {
        round_trip(&[], 16);
    }

    #[test]
    fn uniform_large_alphabet() {
        let syms: Vec<u32> = (0..5000).map(|i| (i * 37) % 1024).collect();
        round_trip(&syms, 1024);
    }

    #[test]
    fn skewed_code_is_shorter_than_uniform() {
        let skewed: Vec<u32> =
            (0..4096).map(|i| if i % 100 == 0 { (i / 100) % 256 } else { 0 }).collect();
        let uniform: Vec<u32> = (0..4096u32).map(|i| i % 256).collect();
        let a = huffman_encode_block(&skewed, 256).unwrap();
        let b = huffman_encode_block(&uniform, 256).unwrap();
        assert!(a.len() < b.len(), "{} vs {}", a.len(), b.len());
    }

    #[test]
    fn optimality_against_entropy_bound() {
        // Coded size must be within one bit per symbol of the entropy bound.
        let mut syms = Vec::new();
        for (s, n) in [(0u32, 500usize), (1, 250), (2, 125), (3, 125)] {
            syms.extend(std::iter::repeat_n(s, n));
        }
        let mut freqs = vec![0u64; 4];
        for &s in &syms {
            freqs[s as usize] += 1;
        }
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        let total_bits: u64 = syms.iter().map(|&s| code.length_of(s) as u64).sum();
        let n = syms.len() as f64;
        let entropy: f64 = freqs
            .iter()
            .filter(|&&f| f > 0)
            .map(|&f| {
                let p = f as f64 / n;
                -p * p.log2()
            })
            .sum();
        assert!(total_bits as f64 <= n * (entropy + 1.0));
        // This particular distribution is dyadic: exactly optimal.
        assert_eq!(total_bits as f64, n * entropy);
    }

    #[test]
    fn rejects_symbol_outside_alphabet() {
        assert!(huffman_encode_block(&[10], 5).is_err());
    }

    #[test]
    fn deserialize_rejects_corrupt_tables() {
        let enc = huffman_encode_block(&[1u32, 2, 3, 1, 2, 1], 8).unwrap();
        // Flip every byte in the table region and require a decode failure
        // or a wrong-but-delivered result; never a panic.
        for i in 0..enc.len().min(8) {
            let mut bad = enc.clone();
            bad[i] ^= 0xFF;
            let mut pos = 0;
            let _ = huffman_decode_block(&bad, &mut pos);
        }
    }

    #[test]
    fn kraft_violation_rejected() {
        // Three symbols of length 1 violates Kraft.
        assert!(HuffmanCode::from_lengths(vec![1, 1, 1]).is_err());
        assert!(HuffmanCode::from_lengths(vec![1, 2, 2]).is_ok());
    }

    #[test]
    fn under_subscribed_table_rejected() {
        // A lone length-2 symbol leaves three of four codewords undefined: a
        // corrupted table, not a legal canonical code.
        assert!(HuffmanCode::from_lengths(vec![2, 0, 0]).is_err());
        // Two length-2 symbols cover only half the code space.
        assert!(HuffmanCode::from_lengths(vec![2, 2, 0]).is_err());
        // The degenerate single-symbol code (length 1) stays legal: the
        // encoder emits it for constant streams.
        assert!(HuffmanCode::from_lengths(vec![0, 1, 0]).is_ok());
        // Empty table is legal (empty stream).
        assert!(HuffmanCode::from_lengths(vec![0, 0, 0]).is_ok());
    }

    #[test]
    fn crafted_bad_table_rejected_at_deserialize() {
        // Serialize a valid code, then shrink one stored length so the table
        // arrives under-subscribed; deserialize must reject it.
        let code = HuffmanCode::from_lengths(vec![1, 2, 2]).unwrap();
        let mut bytes = Vec::new();
        code.serialize(&mut bytes);
        // Layout: alphabet, count, then (delta, len) pairs; the first length
        // byte sits at offset 3. Dropping 1→2 leaves 2,2,2: under-subscribed.
        assert_eq!(bytes[3], 1);
        bytes[3] = 2;
        let mut pos = 0;
        assert!(HuffmanCode::deserialize(&bytes, &mut pos).is_err());
    }

    #[test]
    fn balanced_code_is_complete_and_decodable() {
        let freqs: Vec<u64> = (0..37).map(|i| u64::from(i % 5 != 0)).collect();
        let code = HuffmanCode::balanced(&freqs).unwrap();
        let mut bits = BitWriter::new();
        let syms: Vec<u32> = (0..37).filter(|i| i % 5 != 0).collect();
        for &s in &syms {
            code.encode_symbol(s, &mut bits);
        }
        let bytes = bits.into_bytes();
        let dec = code.decoder();
        let mut r = BitReader::new(&bytes);
        for &s in &syms {
            assert_eq!(dec.decode_symbol(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn truncated_payload_errors() {
        let enc = huffman_encode_block(&(0..100u32).map(|i| i % 7).collect::<Vec<_>>(), 8).unwrap();
        let mut pos = 0;
        assert!(huffman_decode_block(&enc[..enc.len() - 3], &mut pos).is_err());
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let freqs: Vec<u64> = (1..=40).map(|i| i * i).collect();
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        for a in 0..40u32 {
            for b in 0..40u32 {
                if a == b {
                    continue;
                }
                let (la, lb) = (code.length_of(a) as u32, code.length_of(b) as u32);
                if la == 0 || lb == 0 || la > lb {
                    continue;
                }
                let ca = code.codes[a as usize];
                let cb = code.codes[b as usize];
                assert_ne!(ca, cb >> (lb - la), "code {a} is a prefix of {b}");
            }
        }
    }

    #[test]
    fn two_symbol_alphabet_uses_one_bit() {
        let code = HuffmanCode::from_frequencies(&[10, 90]).unwrap();
        assert_eq!(code.length_of(0), 1);
        assert_eq!(code.length_of(1), 1);
    }

    /// The decoder this module used before the primary table: per-length
    /// first-code tables walked one `read_bit()` per code length, over the
    /// bit-at-a-time reader.
    struct WalkDecoder {
        max_len: u32,
        count: Vec<u64>,
        first_code: Vec<u64>,
        first_index: Vec<u64>,
        symbols_by_len: Vec<u32>,
    }

    impl WalkDecoder {
        fn new(code: &HuffmanCode) -> WalkDecoder {
            let max_len = code.lengths.iter().copied().max().unwrap_or(0) as u32;
            let mut count = vec![0u64; (max_len + 1) as usize];
            for &l in code.lengths.iter().filter(|&&l| l > 0) {
                count[l as usize] += 1;
            }
            let mut symbols_by_len: Vec<u32> =
                (0..code.lengths.len() as u32).filter(|&s| code.lengths[s as usize] > 0).collect();
            symbols_by_len.sort_by_key(|&s| (code.lengths[s as usize], s));
            let mut first_code = vec![0u64; (max_len + 2) as usize];
            let mut first_index = vec![0u64; (max_len + 2) as usize];
            let (mut next_code, mut index) = (0u64, 0u64);
            for l in 1..=max_len as usize {
                first_code[l] = next_code;
                first_index[l] = index;
                next_code = (next_code + count[l]) << 1;
                index += count[l];
            }
            WalkDecoder { max_len, count, first_code, first_index, symbols_by_len }
        }

        fn decode_symbol(&self, r: &mut reference::BitReader<'_>) -> Result<u32, LosslessError> {
            if self.max_len == 0 {
                return Err(LosslessError::malformed("decode from empty huffman code"));
            }
            let mut code = 0u64;
            for l in 1..=self.max_len as usize {
                code = (code << 1) | r.read_bit()? as u64;
                let c = self.count[l];
                if c > 0 && code < self.first_code[l] + c {
                    let idx = self.first_index[l] + code - self.first_code[l];
                    return Ok(self.symbols_by_len[idx as usize]);
                }
            }
            Err(LosslessError::malformed("invalid huffman codeword"))
        }
    }

    fn both_decoders(code: &HuffmanCode) -> (HuffmanDecoder, WalkDecoder) {
        (code.decoder(), WalkDecoder::new(code))
    }

    /// Decode `steps` symbols from `payload` with both decoders, carrying on
    /// past errors as the permissive callers do: same `Ok(symbol)`/`Err` and
    /// same cursor after every step.
    fn decoders_agree(
        (fast, walk): &(HuffmanDecoder, WalkDecoder),
        payload: &[u8],
        steps: usize,
    ) -> Result<(), String> {
        let mut r = BitReader::new(payload);
        let mut slow = reference::BitReader::new(payload);
        for step in 0..steps {
            let (got, want) = (fast.decode_symbol(&mut r), walk.decode_symbol(&mut slow));
            if got != want || r.bit_pos() != slow.bit_pos() {
                return Err(format!(
                    "step {step}: table {got:?} at bit {}, walk {want:?} at bit {}",
                    r.bit_pos(),
                    slow.bit_pos()
                ));
            }
        }
        Ok(())
    }

    /// Every single-bit flip and every byte truncation of an encoding of
    /// `symbols` decodes the same through both decoders.
    fn agree_on_every_damage(code: &HuffmanCode, symbols: &[u32]) -> Result<(), String> {
        let mut bits = BitWriter::new();
        for &s in symbols {
            code.encode_symbol(s, &mut bits);
        }
        let payload = bits.into_bytes();
        let steps = symbols.len() + 2;
        let pair = both_decoders(code);
        decoders_agree(&pair, &payload, steps)?;
        for bit in 0..payload.len() * 8 {
            let mut bad = payload.clone();
            bad[bit / 8] ^= 0x80 >> (bit % 8);
            decoders_agree(&pair, &bad, steps).map_err(|e| format!("flip {bit}: {e}"))?;
        }
        for cut in 0..payload.len() {
            decoders_agree(&pair, &payload[..cut], steps).map_err(|e| format!("cut {cut}: {e}"))?;
        }
        Ok(())
    }

    /// A Kraft-complete length table with `coded` codes scattered over an
    /// alphabet of `alphabet` symbols: split a leaf `coded − 1` times, the
    /// deepest one with probability `skew`/256 (so `skew` near 256 gives the
    /// one-code-per-length shape whose depth passes the primary width).
    fn complete_lengths(alphabet: usize, coded: usize, skew: u64, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut leaves = vec![0u8];
        let mut deepest = 0;
        while leaves.len() < coded {
            let mut pick =
                if next() % 256 < skew { deepest } else { next() as usize % leaves.len() };
            while leaves[pick] as u32 >= MAX_CODE_LEN {
                pick = next() as usize % leaves.len();
            }
            leaves[pick] += 1;
            leaves.push(leaves[pick]);
            if leaves[pick] > leaves[deepest] {
                deepest = pick;
            }
        }
        let mut lengths = vec![0u8; alphabet];
        let stride = alphabet / coded;
        for (i, &l) in leaves.iter().enumerate() {
            lengths[i * stride + next() as usize % stride] = l;
        }
        lengths
    }

    fn random_table_agrees(coded: usize, skew: u64, seed: u64) -> Result<(), String> {
        let lengths = complete_lengths(coded * 3, coded, skew, seed);
        let code = HuffmanCode::from_lengths(lengths.clone()).map_err(|e| e.to_string())?;
        let used: Vec<u32> =
            (0..lengths.len() as u32).filter(|&s| lengths[s as usize] > 0).collect();
        let symbols: Vec<u32> = (0..24u64)
            .map(|i| used[(seed.rotate_left(i as u32 * 5) % used.len() as u64) as usize])
            .collect();
        agree_on_every_damage(&code, &symbols)
    }

    #[test]
    fn table_decoder_matches_walk_on_the_edge_tables() {
        // The single-symbol length-1 code: half the code space is invalid.
        let single = HuffmanCode::from_lengths(vec![0, 0, 1, 0]).unwrap();
        agree_on_every_damage(&single, &[2; 19]).unwrap();
        // No code at all: every decode is an error and nothing moves.
        let empty = HuffmanCode::from_lengths(vec![0; 4]).unwrap();
        decoders_agree(&both_decoders(&empty), &[0xFF, 0x00], 3).unwrap();
        // One code per length down to MAX_CODE_LEN: far past the primary
        // width, and a 48-bit window that straddles eight bytes.
        let mut ladder: Vec<u8> = (1..=MAX_CODE_LEN as u8).collect();
        ladder.push(MAX_CODE_LEN as u8);
        let deep = HuffmanCode::from_lengths(ladder).unwrap();
        let symbols: Vec<u32> = (0..=MAX_CODE_LEN).rev().step_by(5).collect();
        agree_on_every_damage(&deep, &symbols).unwrap();
    }

    #[test]
    fn table_decoder_matches_walk_on_sz_sized_alphabet() {
        // 65 537 coded symbols, the alphabet SZ codes its bins with: almost
        // every code is longer than the primary table is wide.
        let lengths = complete_lengths(65_537, 65_537, 8, 0x5EED);
        let code = HuffmanCode::from_lengths(lengths).unwrap();
        let symbols: Vec<u32> = (0..40u32).map(|i| i.wrapping_mul(1_640_531) % 65_537).collect();
        agree_on_every_damage(&code, &symbols).unwrap();
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn decoder_differential(coded in 2usize..200, skew in 0u64..=256, seed: u64) {
            let outcome = random_table_agrees(coded, skew, seed);
            prop_assert!(outcome.is_ok(), "{:?}", outcome);
        }
    }

    // Run by `scripts/check.sh --full`.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        #[ignore = "deep variant"]
        fn decoder_differential_deep(coded in 2usize..200, skew in 0u64..=256, seed: u64) {
            let outcome = random_table_agrees(coded, skew, seed);
            prop_assert!(outcome.is_ok(), "{:?}", outcome);
        }
    }
}
