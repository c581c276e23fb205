//! Property-based tests for the SZ-like codec: the error bound is a hard
//! guarantee for arbitrary finite inputs, and the decoder never panics.

use proptest::prelude::*;

use arc_sz::{compress, decompress, decompress_with_limits, ErrorBound, SzConfig};

fn arb_grid() -> impl Strategy<Value = (Vec<usize>, Vec<f32>)> {
    (1usize..=3).prop_flat_map(|d| proptest::collection::vec(1usize..24, d)).prop_flat_map(|dims| {
        let n: usize = dims.iter().product();
        (Just(dims), proptest::collection::vec(-1e6f32..1e6f32, n..=n))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn abs_bound_holds_for_arbitrary_finite_data(
        (dims, data) in arb_grid(),
        eb in prop_oneof![Just(1e-4f64), Just(1e-2), Just(1.0), Just(100.0)],
    ) {
        let cfg = SzConfig { bound: ErrorBound::Abs(eb), ..Default::default() };
        let packed = compress(&data, &dims, &cfg).unwrap();
        let out = decompress(&packed).unwrap();
        prop_assert_eq!(&out.dims, &dims);
        for (a, b) in data.iter().zip(&out.data) {
            prop_assert!((*a as f64 - *b as f64).abs() <= eb, "{a} vs {b} (eb {eb})");
        }
    }

    #[test]
    fn pwrel_bound_holds_for_arbitrary_finite_data(
        (dims, data) in arb_grid(),
        eps in prop_oneof![Just(1e-3f64), Just(0.05), Just(0.5)],
    ) {
        let cfg = SzConfig { bound: ErrorBound::PwRel(eps), ..Default::default() };
        let packed = compress(&data, &dims, &cfg).unwrap();
        let out = decompress(&packed).unwrap();
        for (a, b) in data.iter().zip(&out.data) {
            let lhs = (*a as f64 - *b as f64).abs();
            prop_assert!(lhs <= eps * (*a as f64).abs() + 1e-30, "{a} vs {b} (eps {eps})");
        }
    }

    #[test]
    fn exact_zeros_and_signs_survive_pwrel((dims, mut data) in arb_grid()) {
        // Zero out a sprinkling of entries.
        for i in (0..data.len()).step_by(3) {
            data[i] = 0.0;
        }
        let cfg = SzConfig { bound: ErrorBound::PwRel(0.1), ..Default::default() };
        let packed = compress(&data, &dims, &cfg).unwrap();
        let out = decompress(&packed).unwrap();
        for (a, b) in data.iter().zip(&out.data) {
            if *a == 0.0 {
                prop_assert_eq!(*b, 0.0);
            } else {
                prop_assert_eq!(a.signum(), b.signum());
            }
        }
    }

    #[test]
    fn decoder_never_panics_on_corruption(
        (dims, data) in arb_grid(),
        flips in proptest::collection::vec((any::<proptest::sample::Index>(), 1u8..), 1..6),
    ) {
        let cfg = SzConfig { bound: ErrorBound::Abs(0.01), ..Default::default() };
        let mut packed = compress(&data, &dims, &cfg).unwrap();
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
    fn compression_is_deterministic((dims, data) in arb_grid()) {
        let cfg = SzConfig::default();
        prop_assert_eq!(
            compress(&data, &dims, &cfg).unwrap(),
            compress(&data, &dims, &cfg).unwrap()
        );
    }
}
