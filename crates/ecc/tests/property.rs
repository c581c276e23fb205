//! Property-based tests for the ECC substrate: field laws, round-trips,
//! and correction guarantees under adversarial corruption.

use proptest::prelude::*;

use arc_ecc::bits::flip_bit;
use arc_ecc::gf256::Gf;
use arc_ecc::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ---- GF(2^8) field laws -------------------------------------------

    #[test]
    fn gf_addition_is_commutative_associative(a: u8, b: u8, c: u8) {
        let (a, b, c) = (Gf(a), Gf(b), Gf(c));
        prop_assert_eq!(a.add(b), b.add(a));
        prop_assert_eq!(a.add(b).add(c), a.add(b.add(c)));
    }

    #[test]
    fn gf_multiplication_is_commutative_associative(a: u8, b: u8, c: u8) {
        let (a, b, c) = (Gf(a), Gf(b), Gf(c));
        prop_assert_eq!(a.mul(b), b.mul(a));
        prop_assert_eq!(a.mul(b).mul(c), a.mul(b.mul(c)));
    }

    #[test]
    fn gf_distributivity(a: u8, b: u8, c: u8) {
        let (a, b, c) = (Gf(a), Gf(b), Gf(c));
        prop_assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
    }

    #[test]
    fn gf_inverse_law(a in 1u8..) {
        let a = Gf(a);
        prop_assert_eq!(a.mul(a.inv()), Gf::ONE);
        prop_assert_eq!(a.div(a), Gf::ONE);
    }

    // ---- word-wide kernels vs the scalar field ------------------------

    #[test]
    fn mul_acc_kernel_matches_scalar_field(
        c: u8,
        src in proptest::collection::vec(any::<u8>(), 0..300),
        seed: u8,
    ) {
        let c = Gf(c);
        let mut dst: Vec<u8> =
            (0..src.len()).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect();
        let mut reference = dst.clone();
        for (d, &s) in reference.iter_mut().zip(&src) {
            *d ^= c.mul(Gf(s)).0;
        }
        arc_ecc::gf256::mul_acc_slice(&mut dst, &src, c);
        prop_assert_eq!(dst, reference);
    }

    #[test]
    fn scale_kernel_matches_scalar_field(
        c: u8,
        mut buf in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let c = Gf(c);
        let reference: Vec<u8> = buf.iter().map(|&b| c.mul(Gf(b)).0).collect();
        arc_ecc::gf256::scale_slice(&mut buf, c);
        prop_assert_eq!(buf, reference);
    }
}

/// The rs(k, m) parity region of `data` straight from the definition, one
/// byte at a time: devices zero-padded to `d = ⌈len / k⌉`, parity byte
/// `u` of code device `j` = `Σ_i C[j][i]·data_i[u]` with scalar `Gf::mul`
/// and `C[j][i] = 1 / (j ⊕ (m + i))`, then one CRC-32 per padded device.
/// Shares nothing with the slice kernels `ReedSolomon` encodes through.
fn rs_reference_parity(data: &[u8], k: usize, m: usize) -> Vec<u8> {
    let d = data.len().div_ceil(k);
    let mut devices: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..d).map(|u| data.get(i * d + u).copied().unwrap_or(0)).collect())
        .collect();
    for j in 0..m {
        let dev = (0..d)
            .map(|u| {
                (0..k).fold(Gf::ZERO, |acc, i| {
                    acc.add(Gf((j ^ (m + i)) as u8).inv().mul(Gf(devices[i][u])))
                })
            })
            .map(|g| g.0)
            .collect();
        devices.push(dev);
    }
    let mut parity = devices[k..].concat();
    for dev in &devices {
        parity.extend_from_slice(&arc_ecc::crc::crc32(dev).to_le_bytes());
    }
    parity
}

/// Invert every byte of device `dev` (data devices first, then code
/// devices) inside an rs(k, m) `data ‖ parity` buffer.
fn trash_rs_device(enc: &mut [u8], data_len: usize, k: usize, dev: usize) {
    let d = data_len.div_ceil(k);
    let range = if dev < k {
        (dev * d).min(data_len)..((dev + 1) * d).min(data_len)
    } else {
        data_len + (dev - k) * d..data_len + (dev - k + 1) * d
    };
    for b in &mut enc[range] {
        *b = !*b;
    }
}

fn arb_scheme() -> impl Strategy<Value = EccConfig> {
    prop_oneof![
        (1usize..64).prop_map(|b| EccConfig::parity(b).unwrap()),
        any::<bool>().prop_map(EccConfig::hamming),
        any::<bool>().prop_map(EccConfig::secded),
        (1usize..40, 1usize..24).prop_map(|(k, m)| EccConfig::rs(k, m).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- scheme-level round-trips --------------------------------------

    #[test]
    fn clean_round_trip_any_scheme_any_data(
        scheme in arb_scheme(),
        data in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        let enc = scheme.encode(&data);
        prop_assert_eq!(enc.len(), data.len() + scheme.parity_len(data.len()));
        let (out, report) = scheme.decode(&enc, data.len()).unwrap();
        prop_assert_eq!(out, data);
        prop_assert!(report.is_clean());
    }

    #[test]
    fn secded_corrects_any_single_flip(
        wide: bool,
        data in proptest::collection::vec(any::<u8>(), 1..1024),
        bit_sel in any::<proptest::sample::Index>(),
    ) {
        let scheme = EccConfig::secded(wide);
        let mut enc = scheme.encode(&data);
        let used_parity_bits = {
            // Only flip bits the decoder actually reads: data region plus
            // the used (non-padding) parity bits.
            let blocks = data.len().div_ceil(if wide { 8 } else { 1 }) as u64;
            let pb = if wide { 8 } else { 5 };
            data.len() as u64 * 8 + blocks * pb
        };
        let bit = bit_sel.index(used_parity_bits as usize) as u64;
        flip_bit(&mut enc, bit);
        let (out, report) = scheme.decode(&enc, data.len()).unwrap();
        prop_assert_eq!(out, data);
        prop_assert_eq!(report.corrected_bits, 1);
    }

    #[test]
    fn hamming_corrects_any_single_data_flip(
        wide: bool,
        data in proptest::collection::vec(any::<u8>(), 1..1024),
        bit_sel in any::<proptest::sample::Index>(),
    ) {
        let scheme = EccConfig::hamming(wide);
        let mut enc = scheme.encode(&data);
        let bit = bit_sel.index(data.len() * 8) as u64;
        flip_bit(&mut enc, bit);
        let (out, _) = scheme.decode(&enc, data.len()).unwrap();
        prop_assert_eq!(out, data);
    }

    #[test]
    fn parity_detects_any_single_data_flip(
        block in 1usize..32,
        data in proptest::collection::vec(any::<u8>(), 1..1024),
        bit_sel in any::<proptest::sample::Index>(),
    ) {
        let scheme = EccConfig::parity(block).unwrap();
        let mut enc = scheme.encode(&data);
        let bit = bit_sel.index(data.len() * 8) as u64;
        flip_bit(&mut enc, bit);
        prop_assert!(scheme.decode(&enc, data.len()).is_err());
    }

    #[test]
    fn rs_corrects_up_to_m_device_erasures(
        k in 2usize..24,
        m in 1usize..10,
        data in proptest::collection::vec(any::<u8>(), 64..2048),
        kill_seed: u64,
    ) {
        let rs = ReedSolomon::new(k, m).unwrap();
        let scheme = EccConfig::Rs(rs);
        let mut enc = scheme.encode(&data);
        let d = rs.device_size(data.len());
        // Corrupt up to m distinct data devices completely.
        let kill = (kill_seed as usize % m) + 1;
        for i in 0..kill {
            let dev = (i * 7 + kill_seed as usize) % k;
            let start = (dev * d).min(data.len());
            let end = ((dev + 1) * d).min(data.len());
            for b in &mut enc[start..end] {
                *b = !*b;
            }
        }
        let (out, _) = scheme.decode(&enc, data.len()).unwrap();
        prop_assert_eq!(out, data);
    }

    #[test]
    fn rs_matches_scalar_reference_and_repairs_exactly_m_devices(
        k in 1usize..=40,
        m in 1usize..=12,
        data in proptest::collection::vec(any::<u8>(), 1..=6000),
        trash in any::<proptest::sample::Index>(),
        seed: u64,
    ) {
        let rs = ReedSolomon::new(k, m).unwrap();
        prop_assert_eq!(rs.encode_parity(&data), rs_reference_parity(&data, k, m));

        // Non-empty devices in a seeded order: the (possibly ragged) last
        // data device leads on odd seeds, so it is hit whenever anything is.
        let d = rs.device_size(data.len());
        let last_data = data.len().div_ceil(d) - 1;
        let mut victims: Vec<usize> = (0..=last_data).chain(k..k + m).collect();
        let mut state = seed;
        for i in (1..victims.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            victims.swap(i, (state >> 33) as usize % (i + 1));
        }
        if seed & 1 == 1 {
            let at = victims.iter().position(|&v| v == last_data).unwrap();
            victims.swap(0, at);
        }

        let enc = rs.encode(&data);
        let n = trash.index(m + 1);
        let mut bad = enc.clone();
        for &dev in &victims[..n] {
            trash_rs_device(&mut bad, data.len(), k, dev);
        }
        let (out, report) = rs.decode(&bad, data.len()).unwrap();
        prop_assert_eq!(out, &data[..]);
        prop_assert_eq!(report.corrected_devices, n as u64);

        let mut bad = enc;
        for &dev in &victims[..m + 1] {
            trash_rs_device(&mut bad, data.len(), k, dev);
        }
        let overloaded = rs.decode(&bad, data.len());
        prop_assert!(matches!(overloaded, Err(EccError::Uncorrectable { .. })), "m + 1 devices");
    }

    #[test]
    fn rs_codeword_corrects_random_errors(
        nsym in 2usize..40,
        msg in proptest::collection::vec(any::<u8>(), 1..120),
        flips in proptest::collection::vec((any::<proptest::sample::Index>(), 1u8..), 0..6),
    ) {
        prop_assume!(msg.len() + nsym <= 255);
        let rs = RsCodeword::new(nsym).unwrap();
        let cw = rs.encode(&msg);
        let mut bad = cw.clone();
        let mut positions = std::collections::HashSet::new();
        for (idx, xor) in &flips {
            let p = idx.index(bad.len());
            if positions.insert(p) {
                bad[p] ^= xor;
            }
        }
        if positions.len() <= nsym / 2 {
            let (out, fixed) = rs.decode(&bad).unwrap();
            prop_assert_eq!(out, msg);
            prop_assert_eq!(fixed, positions.len());
        }
    }

    #[test]
    fn parallel_codec_matches_serial(
        data in proptest::collection::vec(any::<u8>(), 0..20_000),
        chunk in 128usize..4096,
    ) {
        let cfg = EccConfig::secded(true);
        let seq = ParallelCodec::with_chunk_size(cfg, 1, chunk).unwrap();
        let par = ParallelCodec::with_chunk_size(cfg, 3, chunk).unwrap();
        let a = seq.encode(&data);
        let b = par.encode(&data);
        prop_assert_eq!(&a, &b);
        let (out, _) = par.decode(&a, data.len()).unwrap();
        prop_assert_eq!(out, data);
    }

    #[test]
    fn config_ids_round_trip(scheme in arb_scheme()) {
        let parsed = EccConfig::parse_id(&scheme.id()).unwrap();
        prop_assert_eq!(parsed, scheme);
    }
}
