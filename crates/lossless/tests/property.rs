//! Property-based tests for the lossless substrate: every stage must
//! round-trip arbitrary bytes, and decoders must never panic on corrupt
//! input.

use proptest::prelude::*;

use arc_lossless::bitio::{read_varint, write_varint, BitReader, BitWriter};
use arc_lossless::huffman::{huffman_decode_block, huffman_encode_block};
use arc_lossless::lz77::{reconstruct, tokenize, Lz77Config};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn varint_round_trip(values in proptest::collection::vec(any::<u64>(), 0..64)) {
        let mut buf = Vec::new();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn bitio_round_trip(
        fields in proptest::collection::vec((any::<u64>(), 0u32..=64, any::<bool>()), 0..64),
    ) {
        // Each field is optionally followed by an `align_byte` on both sides.
        let mut w = BitWriter::new();
        let mut bits = 0u64;
        for &(v, n, align) in &fields {
            w.write_bits(v, n);
            bits += n as u64;
            if align {
                w.align_byte();
                bits = bits.div_ceil(8) * 8;
            }
            prop_assert_eq!(w.bit_len(), bits);
        }
        let bytes = w.into_bytes();
        prop_assert_eq!(bytes.len() as u64, bits.div_ceil(8));
        let mut r = BitReader::new(&bytes);
        for &(v, n, align) in &fields {
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            prop_assert_eq!(r.read_bits(n).unwrap(), v & mask);
            if align {
                r.align_byte();
            }
        }
        prop_assert!(r.remaining() < 8);
    }

    #[test]
    fn huffman_block_round_trip(
        symbols in proptest::collection::vec(0u32..500, 0..2000),
    ) {
        let enc = huffman_encode_block(&symbols, 500).unwrap();
        let mut pos = 0;
        let dec = huffman_decode_block(&enc, &mut pos).unwrap();
        prop_assert_eq!(dec, symbols);
    }

    #[test]
    fn lz77_round_trip(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let tokens = tokenize(&data, &Lz77Config::default());
        prop_assert_eq!(reconstruct(&tokens).unwrap(), data);
    }

    #[test]
    fn zstd_like_round_trip(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let c = arc_lossless::zstd_like::compress(&data);
        prop_assert_eq!(arc_lossless::zstd_like::decompress(&c).unwrap(), data);
    }

    /// Noise runs of 2^8·k − 1, 2^8·k and 2^8·k + 1 bytes, where the match
    /// finder's step through literal runs grows by one, each run ended by a
    /// match, with repeats planted at varying depths into the runs.
    #[test]
    fn round_trip_across_the_literal_run_steps(
        k in 1usize..48,
        delta in 0usize..3,
        seed: u64,
        plants in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 4usize..48), 0..6),
    ) {
        let run = 256 * k + delta - 1;
        let mut data = noise(seed, run);
        data.extend_from_within(..32);
        data.extend(noise(!seed, run));
        for &(from, to, len) in &plants {
            let to = ((to * data.len() as f64) as usize).min(data.len() - len);
            let from = (from * to as f64) as usize;
            data.copy_within(from..from + len, to);
        }
        prop_assert_eq!(reconstruct(&tokenize(&data, &Lz77Config::default())).unwrap(), &data[..]);
        let c = arc_lossless::zstd_like::compress(&data);
        prop_assert_eq!(arc_lossless::zstd_like::decompress(&c).unwrap(), data);
    }

    #[test]
    fn decoders_never_panic_on_corruption(
        data in proptest::collection::vec(any::<u8>(), 32..2048),
        flips in proptest::collection::vec((any::<proptest::sample::Index>(), any::<u8>()), 1..8),
    ) {
        let mut c = arc_lossless::zstd_like::compress(&data);
        for (idx, xor) in &flips {
            let p = idx.index(c.len());
            c[p] ^= xor;
        }
        // Err or wrong output are both fine; a panic would fail the test.
        let _ = arc_lossless::zstd_like::decompress(&c);
    }

    #[test]
    fn decoders_never_panic_on_random_garbage(noise in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = arc_lossless::zstd_like::decompress(&noise);
        let mut pos = 0;
        let _ = huffman_decode_block(&noise, &mut pos);
    }

    #[test]
    fn compression_is_deterministic(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert_eq!(
            arc_lossless::zstd_like::compress(&data),
            arc_lossless::zstd_like::compress(&data)
        );
    }
}

/// `len` SplitMix64 bytes.
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}
