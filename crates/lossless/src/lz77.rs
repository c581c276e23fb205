//! LZ77 match finding with hash chains.
//!
//! The zstd-like pipeline factors repeated byte ranges through this
//! tokenizer. It mirrors zlib's design: a rolling 4-byte hash indexes chain
//! heads, chains are walked up to a configurable depth, and greedy matching
//! with a one-step lazy evaluation picks the final tokens.

use crate::error::LosslessError;

/// Minimum match length worth emitting.
pub const MIN_MATCH: usize = 4;
/// Maximum match length a token can carry.
pub const MAX_MATCH: usize = 258;
/// Sliding window (maximum back-reference distance).
pub const WINDOW: usize = 1 << 16;

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

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> 17) as usize & (HASH_SIZE - 1)
}

const HASH_SIZE: usize = 1 << 15;

/// Greedily tokenize `data` into literals and matches.
pub fn tokenize(data: &[u8], cfg: &Lz77Config) -> Vec<Token> {
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
            // Quick reject on the byte past the current best.
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
    while i < n {
        let m = find(&head, &prev, i);
        match m {
            Some((len, dist)) => {
                // Lazy evaluation: prefer a longer match starting one byte on.
                insert(&mut head, &mut prev, i);
                let take = i + 1 >= n
                    || !matches!(find(&head, &prev, i + 1), Some((len2, _)) if len2 > len + 1);
                if take {
                    tokens.push(Token::Match { len: len as u32, dist: dist as u32 });
                    for j in i + 1..i + len {
                        insert(&mut head, &mut prev, j);
                    }
                    i += len;
                } else {
                    tokens.push(Token::Literal(data[i]));
                    i += 1;
                }
            }
            None => {
                insert(&mut head, &mut prev, i);
                tokens.push(Token::Literal(data[i]));
                i += 1;
            }
        }
    }
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

#[cfg(test)]
mod tests {
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
}
