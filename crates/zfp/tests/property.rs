//! Property-based tests for the ZFP-like codec: accuracy mode's tolerance
//! is a hard guarantee, rate mode's size is exact, decoding never panics.

use proptest::prelude::*;

use arc_zfp::{compress, decompress, decompress_with_limits, ZfpMode};

fn arb_grid() -> impl Strategy<Value = (Vec<usize>, Vec<f32>)> {
    (1usize..=3).prop_flat_map(|d| proptest::collection::vec(1usize..20, d)).prop_flat_map(|dims| {
        let n: usize = dims.iter().product();
        (Just(dims), proptest::collection::vec(-1e5f32..1e5f32, n..=n))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn accuracy_tolerance_is_guaranteed(
        (dims, data) in arb_grid(),
        tol in prop_oneof![Just(1e-3f64), Just(0.1), Just(10.0)],
    ) {
        let packed = compress(&data, &dims, ZfpMode::FixedAccuracy(tol)).unwrap();
        let out = decompress(&packed).unwrap();
        prop_assert_eq!(&out.dims, &dims);
        for (a, b) in data.iter().zip(&out.data) {
            prop_assert!((*a as f64 - *b as f64).abs() <= tol, "{a} vs {b} (tol {tol})");
        }
    }

    #[test]
    fn rate_mode_round_trips_and_is_fixed_size(
        (dims, data) in arb_grid(),
        rate in prop_oneof![Just(4.0f64), Just(8.0), Just(16.0)],
    ) {
        // 1-D blocks hold only 4 values; low rates cannot fit the block
        // header there and are rejected by validation (tested elsewhere).
        let block_len = 4usize.pow(dims.len() as u32);
        prop_assume!(rate * block_len as f64 >= 26.0);
        let packed = compress(&data, &dims, ZfpMode::FixedRate(rate)).unwrap();
        // Size = header + ceil(num_blocks · rate · 4^d / 8), deterministic.
        let packed2 = compress(&data, &dims, ZfpMode::FixedRate(rate)).unwrap();
        prop_assert_eq!(packed.len(), packed2.len());
        let out = decompress(&packed).unwrap();
        prop_assert_eq!(out.data.len(), data.len());
    }

    #[test]
    fn rate_mode_size_independent_of_content(
        dims in proptest::collection::vec(4usize..16, 2),
        seed_a: u64,
        seed_b: u64,
    ) {
        let n: usize = dims.iter().product();
        let gen = |seed: u64| -> Vec<f32> {
            (0..n)
                .map(|i| ((i as u64).wrapping_mul(seed | 1) >> 32) as f32 / 1e6)
                .collect()
        };
        let a = compress(&gen(seed_a), &dims, ZfpMode::FixedRate(8.0)).unwrap();
        let b = compress(&gen(seed_b), &dims, ZfpMode::FixedRate(8.0)).unwrap();
        prop_assert_eq!(a.len(), b.len(), "fixed rate must mean fixed size");
    }

    #[test]
    fn decoder_never_panics_on_corruption(
        (dims, data) in arb_grid(),
        flips in proptest::collection::vec((any::<proptest::sample::Index>(), 1u8..), 1..6),
        rate_mode: bool,
    ) {
        let mode = if rate_mode { ZfpMode::FixedRate(8.0) } else { ZfpMode::FixedAccuracy(0.01) };
        let mut packed = compress(&data, &dims, mode).unwrap();
        for (idx, xor) in &flips {
            let p = idx.index(packed.len());
            packed[p] ^= xor;
        }
        let _ = decompress_with_limits(&packed, 1 << 20);
    }

    #[test]
    fn decoder_never_panics_on_garbage(noise in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decompress_with_limits(&noise, 1 << 16);
    }

    #[test]
    fn rate_mode_flip_damage_is_block_local(
        dims in proptest::collection::vec(8usize..16, 2),
        flip in any::<proptest::sample::Index>(),
    ) {
        // Flips strictly inside the fixed-rate payload touch one block.
        let n: usize = dims.iter().product();
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.1).sin()).collect();
        let packed = compress(&data, &dims, ZfpMode::FixedRate(8.0)).unwrap();
        let base = decompress(&packed).unwrap().data;
        let header = 24; // stream header stays pristine in this property
        prop_assume!(packed.len() > header + 8);
        let mut bad = packed.clone();
        let p = header + flip.index(packed.len() - header);
        bad[p] ^= 0x10;
        if let Ok(out) = decompress(&bad) {
            if out.data.len() == base.len() {
                let mut blocks = std::collections::HashSet::new();
                let cols = dims[1];
                for (i, (x, y)) in base.iter().zip(&out.data).enumerate() {
                    if x.to_bits() != y.to_bits() {
                        blocks.insert(((i / cols) / 4, (i % cols) / 4));
                    }
                }
                prop_assert!(blocks.len() <= 1, "flip at {p} hit {} blocks", blocks.len());
            }
        }
    }
}
