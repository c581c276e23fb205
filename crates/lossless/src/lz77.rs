//! LZ77 match finding with hash chains.
//!
//! The zstd-like pipeline factors repeated byte ranges through this
//! tokenizer. A 4-byte hash indexes chain heads, chains are walked up to a
//! configurable depth, and greedy matching with a one-step lazy evaluation
//! picks the tokens, as in zlib. Through incompressible stretches the parse
//! steps the way ZStd's match finders do: once a literal run reaches
//! 2^[`SEARCH_STRENGTH`] bytes, each literal is followed by
//! `run >> SEARCH_STRENGTH` more that are neither searched nor linked.

use crate::error::LosslessError;

/// Minimum match length worth emitting.
pub const MIN_MATCH: usize = 4;
/// Maximum match length a token can carry.
pub const MAX_MATCH: usize = 258;
/// Sliding window (maximum back-reference distance).
pub const WINDOW: usize = 1 << 16;
/// ZStd's `kSearchStrength`: after a literal that brings the run of literals
/// since the last match to `run`, the next `run >> SEARCH_STRENGTH` bytes are
/// literals without a search. DESIGN.md §18 has the sweep that chose 8.
pub const SEARCH_STRENGTH: u32 = 8;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes behind.
    Match {
        /// Copy length, `MIN_MATCH..=MAX_MATCH`.
        len: u32,
        /// Distance back into already-produced output, `1..=WINDOW`.
        dist: u32,
    },
}

/// Tokenizer tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct Lz77Config {
    /// Maximum hash-chain links walked per position (compression effort).
    pub max_chain: usize,
    /// Stop searching early once a match at least this long is found.
    pub good_enough: usize,
}

impl Default for Lz77Config {
    fn default() -> Self {
        Lz77Config { max_chain: 64, good_enough: 96 }
    }
}

const HASH_SIZE: usize = 1 << 15;
/// Slots in the `prev` ring. A link is read only for a candidate at most
/// `WINDOW` behind the search, and nothing at or past the search is in the
/// chains yet, so `WINDOW` slots would do; twice that leaves slack.
const RING: usize = 2 * WINDOW;
/// An empty chain head: as a position, farther back than any window.
const NIL: u32 = u32::MAX;

/// Length of the common prefix of two equal-length slices, eight bytes at a
/// time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let word = |s: &[u8]| {
        let mut w = [0u8; 8];
        w.copy_from_slice(s);
        u64::from_le_bytes(w)
    };
    let mut len = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = word(x) ^ word(y);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    len + a[len..].iter().zip(&b[len..]).take_while(|(x, y)| x == y).count()
}

/// One position as the match finder sees it: its chain-head hash and the
/// best match starting there (`len == 0`: none).
#[derive(Clone, Copy)]
struct Probe {
    hash: usize,
    len: usize,
    dist: usize,
}

/// Hash chains over a window-sized ring: `head[h]` is the latest position
/// whose four bytes hash to `h`, `prev[p % RING]` the one before `p` on that
/// chain. Positions are kept modulo 2³²: a link is followed only while it
/// lands 1 to `WINDOW` bytes back, and candidates are compared byte for byte.
struct Matcher<'a> {
    data: &'a [u8],
    cfg: &'a Lz77Config,
    head: Vec<u32>,
    prev: Vec<u32>,
}

impl Matcher<'_> {
    /// Hash of the four bytes at `i`; `None` when fewer than `MIN_MATCH`
    /// remain, where no match starts and nothing is inserted.
    #[inline]
    fn hash(&self, i: usize) -> Option<usize> {
        let mut four = [0u8; MIN_MATCH];
        four.copy_from_slice(self.data.get(i..i + MIN_MATCH)?);
        Some((u32::from_le_bytes(four).wrapping_mul(2654435761) >> 17) as usize & (HASH_SIZE - 1))
    }

    /// Hash position `i` once and search the first `max_chain` links of its
    /// chain for the longest match; the earliest link wins a tie.
    fn probe(&self, i: usize) -> Option<Probe> {
        let hash = self.hash(i)?;
        let max_len = (self.data.len() - i).min(MAX_MATCH);
        let here = &self.data[i..i + max_len];
        let (mut best_len, mut best_dist) = (MIN_MATCH - 1, 0usize);
        let mut cand = self.head[hash];
        for _ in 0..self.cfg.max_chain {
            let dist = (i as u32).wrapping_sub(cand) as usize;
            if dist == 0 || dist > WINDOW.min(i) {
                break;
            }
            let there = &self.data[i - dist..i - dist + max_len];
            // Quick reject on the byte past the current best.
            if best_dist == 0 || there[best_len] == here[best_len] {
                let len = common_prefix(there, here);
                if len > best_len {
                    (best_len, best_dist) = (len, dist);
                    if len >= self.cfg.good_enough || len == max_len {
                        break;
                    }
                }
            }
            cand = self.prev[(i - dist) % RING];
        }
        Some(Probe { hash, len: if best_dist > 0 { best_len } else { 0 }, dist: best_dist })
    }

    #[inline]
    fn link(&mut self, i: usize, hash: usize) {
        self.prev[i % RING] = self.head[hash];
        self.head[hash] = i as u32;
    }
}

/// Greedy matching with a one-step lazy evaluation and ZStd's step through
/// literal runs, handing each token to `emit` as it is decided: [`tokenize`]
/// collects them, the zstd-like pipeline splits them into its literal and
/// sequence sections directly.
pub(crate) fn for_each_token(data: &[u8], cfg: &Lz77Config, mut emit: impl FnMut(Token)) {
    // An input shorter than the ring never wraps it, so it gets a shorter one.
    let prev = vec![NIL; RING.min(data.len())];
    let mut m = Matcher { data, cfg, head: vec![NIL; HASH_SIZE], prev };
    let mut i = 0usize;
    // Literals since the last match, the skipped ones included.
    let mut run = 0usize;
    // The probe of position `i`, made with exactly the positions before `i`
    // in the chains.
    let mut here = m.probe(0);
    while let Some(&byte) = data.get(i) {
        if let Some(p) = here {
            m.link(i, p.hash);
        }
        // The search one byte on is the lazy look-ahead of a match here, and
        // the next step's probe when this byte ends up a literal that is not
        // followed by a skip; otherwise nothing reads it.
        let has_match = here.is_some_and(|p| p.len > 0);
        let next =
            if has_match || (run + 1) >> SEARCH_STRENGTH == 0 { m.probe(i + 1) } else { None };
        match here {
            // Lazy evaluation: prefer a longer match starting one byte on.
            Some(p) if has_match && next.is_none_or(|q| q.len <= p.len + 1) => {
                emit(Token::Match { len: p.len as u32, dist: p.dist as u32 });
                for j in i + 1..i + p.len {
                    if let Some(hash) = m.hash(j) {
                        m.link(j, hash);
                    }
                }
                i += p.len;
                run = 0;
                here = m.probe(i);
            }
            _ => {
                emit(Token::Literal(byte));
                i += 1;
                run += 1;
                let skip = run >> SEARCH_STRENGTH;
                if skip == 0 {
                    here = next;
                } else {
                    let end = (i + skip).min(data.len());
                    data[i..end].iter().for_each(|&b| emit(Token::Literal(b)));
                    run += end - i;
                    i = end;
                    here = m.probe(i);
                }
            }
        }
    }
}

/// Greedily tokenize `data` into literals and matches.
pub fn tokenize(data: &[u8], cfg: &Lz77Config) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(data.len() / 4 + 16);
    for_each_token(data, cfg, |t| tokens.push(t));
    tokens
}

/// Rebuild bytes from tokens. Validates every back-reference; corrupted
/// distances surface as [`LosslessError::Malformed`].
pub fn reconstruct(tokens: &[Token]) -> Result<Vec<u8>, LosslessError> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let dist = dist as usize;
                let len = len as usize;
                if dist == 0 || dist > out.len() {
                    return Err(LosslessError::malformed(format!(
                        "back-reference distance {dist} at output length {}",
                        out.len()
                    )));
                }
                if len > MAX_MATCH {
                    return Err(LosslessError::malformed("match length out of range"));
                }
                let start = out.len() - dist;
                // Overlapping copies are legal (RLE idiom): copy byte-wise.
                for j in 0..len {
                    let b = out[start + j];
                    out.push(b);
                }
            }
        }
    }
    Ok(out)
}

/// The tokenizer as it was before the window-sized ring: one `prev` slot per
/// input byte, byte-at-a-time extension, a fresh search for every lazy
/// look-ahead. Kept as the oracle [`tokenize`] must reproduce token for token
/// at `strength` [`SEARCH_STRENGTH`]; `None` never skips, which is the parse
/// that wrote every frame before the step through literal runs.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Lz77Config, Token, HASH_SIZE, MAX_MATCH, MIN_MATCH, WINDOW};

    fn hash4(data: &[u8], i: usize) -> usize {
        let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
        (v.wrapping_mul(2654435761) >> 17) as usize & (HASH_SIZE - 1)
    }

    pub fn tokenize(data: &[u8], cfg: &Lz77Config, strength: Option<u32>) -> Vec<Token> {
        let n = data.len();
        let mut tokens = Vec::with_capacity(n / 4 + 16);
        if n < MIN_MATCH + 1 {
            tokens.extend(data.iter().map(|&b| Token::Literal(b)));
            return tokens;
        }
        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; n];
        let find = |head: &[usize], prev: &[usize], i: usize| -> Option<(usize, usize)> {
            let max_len = (n - i).min(MAX_MATCH);
            if max_len < MIN_MATCH {
                return None;
            }
            let mut best_len = MIN_MATCH - 1;
            let mut best_dist = 0usize;
            let mut cand = head[hash4(data, i)];
            let mut chain = cfg.max_chain;
            while cand != usize::MAX && chain > 0 {
                if i - cand > WINDOW {
                    break;
                }
                if best_dist == 0 || data[cand + best_len] == data[i + best_len] {
                    let mut l = 0usize;
                    while l < max_len && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l >= cfg.good_enough || l == max_len {
                            break;
                        }
                    }
                }
                cand = prev[cand];
                chain -= 1;
            }
            (best_dist > 0).then_some((best_len, best_dist))
        };
        let mut i = 0usize;
        let insert = |head: &mut [usize], prev: &mut [usize], i: usize| {
            if i + MIN_MATCH <= n {
                let h = hash4(data, i);
                prev[i] = head[h];
                head[h] = i;
            }
        };
        // Literals since the last match.
        let mut run = 0usize;
        while i < n {
            let m = find(&head, &prev, i);
            let mut literal = true;
            if let Some((len, dist)) = m {
                insert(&mut head, &mut prev, i);
                let take = i + 1 >= n
                    || !matches!(find(&head, &prev, i + 1), Some((len2, _)) if len2 > len + 1);
                if take {
                    tokens.push(Token::Match { len: len as u32, dist: dist as u32 });
                    for j in i + 1..i + len {
                        insert(&mut head, &mut prev, j);
                    }
                    i += len;
                    run = 0;
                    literal = false;
                }
            } else {
                insert(&mut head, &mut prev, i);
            }
            if literal {
                tokens.push(Token::Literal(data[i]));
                i += 1;
                run += 1;
                // The step: this many more bytes are literals, neither
                // searched nor inserted, each one counted in the run.
                let skip = strength.map_or(0, |s| run >> s);
                for _ in 0..skip {
                    if i < n {
                        tokens.push(Token::Literal(data[i]));
                        i += 1;
                        run += 1;
                    }
                }
            }
        }
        tokens
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> Vec<Token> {
        let tokens = tokenize(data, &Lz77Config::default());
        assert_eq!(reconstruct(&tokens).unwrap(), data);
        tokens
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(b"abcd");
    }

    #[test]
    fn repeated_text_compresses_to_matches() {
        let data = b"the quick brown fox jumps over the lazy dog. the quick brown fox!".to_vec();
        let tokens = round_trip(&data);
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "expected at least one match"
        );
    }

    #[test]
    fn rle_overlapping_match() {
        let data = vec![7u8; 1000];
        let tokens = round_trip(&data);
        // A long run should collapse to a handful of tokens.
        assert!(tokens.len() < 20, "{} tokens", tokens.len());
    }

    #[test]
    fn incompressible_data_is_all_literals() {
        // Pseudo-random bytes with no 4-byte repeats.
        let data: Vec<u8> =
            (0..2000u64).map(|i| ((i.wrapping_mul(0x9E3779B97F4A7C15)) >> 56) as u8).collect();
        let tokens = tokenize(&data, &Lz77Config::default());
        assert_eq!(reconstruct(&tokens).unwrap(), data);
    }

    #[test]
    fn long_periodic_input() {
        let data: Vec<u8> = (0..100_000).map(|i| ((i % 97) as u8).wrapping_mul(3)).collect();
        let tokens = round_trip(&data);
        let matches = tokens.iter().filter(|t| matches!(t, Token::Match { .. })).count();
        assert!(matches > 100);
    }

    #[test]
    fn match_lengths_respect_bounds() {
        let data = vec![0xAAu8; 10_000];
        for t in tokenize(&data, &Lz77Config::default()) {
            if let Token::Match { len, dist } = t {
                assert!((MIN_MATCH..=MAX_MATCH).contains(&(len as usize)));
                assert!((1..=WINDOW).contains(&(dist as usize)));
            }
        }
    }

    #[test]
    fn reconstruct_rejects_bad_distance() {
        let tokens = [Token::Literal(1), Token::Match { len: 4, dist: 5 }];
        assert!(reconstruct(&tokens).is_err());
        let tokens = [Token::Match { len: 4, dist: 1 }];
        assert!(reconstruct(&tokens).is_err());
    }

    #[test]
    fn reconstruct_rejects_oversized_length() {
        let tokens = [Token::Literal(1), Token::Match { len: 9999, dist: 1 }];
        assert!(reconstruct(&tokens).is_err());
    }

    #[test]
    fn shallow_chain_still_correct() {
        let cfg = Lz77Config { max_chain: 1, good_enough: 8 };
        let data: Vec<u8> = (0..50_000).map(|i| ((i / 3) % 251) as u8).collect();
        let tokens = tokenize(&data, &cfg);
        assert_eq!(reconstruct(&tokens).unwrap(), data);
    }

    /// Seeded inputs of the three kinds the finder behaves differently on:
    /// noise (short chains, few matches), a four-symbol source (full chains,
    /// many ties) and noise with planted repeats at every distance scale,
    /// including both sides of the window edge and runs past `MAX_MATCH`.
    pub(crate) fn differential_input(kind: u64, len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut data: Vec<u8> = match kind % 3 {
            0 => (0..len).map(|_| (next() >> 56) as u8).collect(),
            1 => (0..len).map(|_| b"aaabacbd"[(next() >> 61) as usize]).collect(),
            _ => (0..len).map(|_| (next() >> 58) as u8).collect(),
        };
        if kind % 3 == 2 && len > 64 {
            for _ in 0..len / 512 + 1 {
                let run = 4 + (next() % 600) as usize;
                let dist = match next() % 5 {
                    0 => 1 + (next() % 8) as usize,
                    1 => WINDOW - 1 + (next() % 3) as usize,
                    _ => 1 + (next() as usize) % (2 * WINDOW + 7),
                };
                let to = (next() as usize) % len;
                if to >= dist {
                    for j in to..(to + run).min(len) {
                        data[j] = data[j - dist];
                    }
                }
            }
        }
        data
    }

    fn assert_matches_reference(data: &[u8], cfg: &Lz77Config) {
        let got = tokenize(data, cfg);
        let want = reference::tokenize(data, cfg, Some(SEARCH_STRENGTH));
        if let Some(at) = got.iter().zip(&want).position(|(g, w)| g != w) {
            panic!("token {at}: {:?} vs reference {:?} ({cfg:?})", got[at], want[at]);
        }
        assert_eq!(got.len(), want.len(), "{cfg:?}");
    }

    const CONFIGS: [Lz77Config; 4] = [
        Lz77Config { max_chain: 64, good_enough: 96 },
        Lz77Config { max_chain: 1, good_enough: 8 },
        Lz77Config { max_chain: 7, good_enough: MAX_MATCH + 1 },
        Lz77Config { max_chain: 0, good_enough: 4 },
    ];

    #[test]
    fn tokens_match_the_reference_tokenizer() {
        for len in [0, 1, 3, 4, 5, 8, 9, 63, 64, 65, 1000] {
            for kind in 0..3 {
                for cfg in &CONFIGS {
                    assert_matches_reference(&differential_input(kind, len, len as u64), cfg);
                }
            }
        }
        // Past the ring (2 × WINDOW) at the default effort, every kind.
        for kind in 0..3 {
            let data = differential_input(kind, 2 * WINDOW + 4321, 77 + kind);
            assert_matches_reference(&data, &Lz77Config::default());
        }
    }

    /// Longest run of consecutive literals.
    fn longest_literal_run(tokens: &[Token]) -> usize {
        let mut run = 0;
        let mut longest = 0;
        for t in tokens {
            run = if matches!(t, Token::Literal(_)) { run + 1 } else { 0 };
            longest = longest.max(run);
        }
        longest
    }

    /// Unless a literal run reaches 2^`SEARCH_STRENGTH` bytes before the last
    /// byte nothing is skipped, so the parse is the one every frame before the
    /// step was written with.
    fn assert_parent_parse_without_a_long_run(data: &[u8], cfg: &Lz77Config) {
        let got = tokenize(data, cfg);
        let before_last = &got[..got.len().saturating_sub(1)];
        assert!(
            longest_literal_run(before_last) < 1 << SEARCH_STRENGTH,
            "{cfg:?}: a run reached 256"
        );
        assert_eq!(got, reference::tokenize(data, cfg, None), "{cfg:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn short_inputs_keep_the_parent_parse(kind in 0u64..3, len in 0usize..=256, seed: u64) {
            let data = differential_input(kind, len, seed);
            for cfg in &CONFIGS {
                assert_parent_parse_without_a_long_run(&data, cfg);
            }
        }

        /// The four-symbol source under every config that searches a chain
        /// (`max_chain = 0` finds no match, so its runs are the whole input).
        #[test]
        fn four_symbol_source_keeps_the_parent_parse(len in 0usize..20_000, seed: u64) {
            let data = differential_input(1, len, seed);
            for cfg in CONFIGS.iter().filter(|c| c.max_chain > 0) {
                assert_parent_parse_without_a_long_run(&data, cfg);
            }
        }
    }

    /// A 40-byte repeat 190 000 bytes into noise, where the parse searches one
    /// byte in ~740: the parent parse matches it, the step passes over it.
    #[test]
    fn a_repeat_deep_in_noise_is_stepped_over() {
        let mut data = differential_input(0, 200_000, 5);
        data.copy_within(150_000..150_040, 190_000);
        let cfg = Lz77Config::default();
        let got = round_trip(&data);
        assert!(got.iter().all(|t| matches!(t, Token::Literal(_))));
        let parent = reference::tokenize(&data, &cfg, None);
        assert!(parent.contains(&Token::Match { len: 40, dist: 40_000 }));
        assert_eq!(got, reference::tokenize(&data, &cfg, Some(SEARCH_STRENGTH)));
    }

    // Run by `scripts/check.sh --full`.
    #[test]
    #[ignore = "deep variant"]
    fn tokens_match_the_reference_tokenizer_deep() {
        for seed in 0..24u64 {
            let len = [300 << 10, (seed as usize + 1) * 9973, 4 * WINDOW + 1][seed as usize % 3];
            let data = differential_input(seed, len, 0xD1FF ^ seed);
            assert_matches_reference(&data, &CONFIGS[seed as usize % CONFIGS.len()]);
        }
    }
}
