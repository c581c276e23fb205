//! Property-based tests for the ARC core: container resilience, optimizer
//! contracts, and end-to-end correction guarantees.

use proptest::prelude::*;

use arc_core::container::{header_len, unpack, write_header, ContainerMeta};
use arc_core::{
    joint_optimizer, thread_ladder, EncodeRequest, MemoryConstraint, ResiliencyConstraint,
    ThroughputConstraint, TrainingTable,
};
use arc_ecc::{EccConfig, EccMethod, EccScheme};

/// A v1 container around an arbitrary (not ECC-encoded) payload, so the
/// header properties control every field.
fn pack(meta: &ContainerMeta, payload: &[u8]) -> Result<Vec<u8>, arc_core::ArcError> {
    let hlen = header_len(meta);
    let mut out = vec![0u8; hlen + payload.len()];
    write_header(meta, &mut out[..hlen])?;
    out[hlen..].copy_from_slice(payload);
    Ok(out)
}

fn arb_config() -> impl Strategy<Value = EccConfig> {
    prop_oneof![
        (1usize..64).prop_map(|b| EccConfig::parity(b).unwrap()),
        any::<bool>().prop_map(EccConfig::hamming),
        any::<bool>().prop_map(EccConfig::secded),
        (1usize..100, 1usize..50).prop_map(|(k, m)| EccConfig::rs(k, m).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn container_round_trips(
        config in arb_config(),
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
        data_len in 0usize..1_000_000,
        chunk_size in 1usize..(1 << 22),
        crc: u32,
    ) {
        let meta = ContainerMeta {
            scheme_id: config.id(),
            chunk_size,
            data_len,
            payload_len: payload.len(),
            data_crc: crc,
            sharding: None,
        };
        let packed = pack(&meta, &payload).unwrap();
        let u = unpack(&packed).unwrap();
        prop_assert_eq!(u.meta, meta);
        prop_assert_eq!(u.payload, &payload[..]);
    }

    #[test]
    fn container_header_survives_any_two_byte_corruptions(
        payload in proptest::collection::vec(any::<u8>(), 16..256),
        c1 in any::<proptest::sample::Index>(),
        c2 in any::<proptest::sample::Index>(),
        xor in 1u8..,
    ) {
        let meta = ContainerMeta {
            scheme_id: EccConfig::secded(true).id(),
            chunk_size: 1 << 20,
            data_len: 999,
            payload_len: payload.len(),
            data_crc: 0xABCD_1234,
            sharding: None,
        };
        let packed = pack(&meta, &payload).unwrap();
        let len = u16::from_le_bytes(packed[0..2].try_into().unwrap()) as usize;
        let header_region = 6 + 2 * len;
        let mut bad = packed.clone();
        bad[c1.index(header_region)] ^= xor;
        bad[c2.index(header_region)] ^= xor.rotate_left(3);
        // Two byte errors: within one codeword's correction power, or the
        // other copy is intact, or the vote still holds. Must recover.
        let u = unpack(&bad).unwrap();
        prop_assert_eq!(u.meta, meta);
    }

    #[test]
    fn optimizer_selection_honours_resiliency_and_budget(
        mem in 0.001f64..2.0,
        methods in proptest::collection::hash_set(0usize..4, 1..4),
    ) {
        let space = EccConfig::standard_space();
        let mut table = TrainingTable::new();
        for cfg in &space {
            for t in thread_ladder(8) {
                table.record(cfg, t, 10.0 * t as f64, 20.0 * t as f64);
            }
        }
        let methods: Vec<EccMethod> = methods
            .into_iter()
            .map(|i| EccMethod::ALL[i])
            .collect();
        let req = EncodeRequest {
            memory: MemoryConstraint::Fraction(mem),
            throughput: ThroughputConstraint::Any,
            resiliency: ResiliencyConstraint::Methods(methods.clone()),
        };
        let sel = joint_optimizer(&table, &space, &req, 8).unwrap();
        // Resiliency is a hard constraint.
        prop_assert!(methods.contains(&sel.config.method()));
        // In budget when any admitted config fits; flagged when over.
        let any_fits = space
            .iter()
            .filter(|c| methods.contains(&c.method()))
            .any(|c| c.storage_overhead() <= mem);
        if any_fits {
            prop_assert!(sel.overhead <= mem && !sel.over_budget);
        } else {
            prop_assert!(sel.over_budget && !sel.notes.is_empty());
        }
    }

    #[test]
    fn optimizer_never_beats_its_own_choice(
        mem in 0.01f64..1.5,
    ) {
        // No admitted configuration fills the budget better than the pick.
        let space = EccConfig::standard_space();
        let mut table = TrainingTable::new();
        for cfg in &space {
            table.record(cfg, 4, 50.0, 80.0);
        }
        let req = EncodeRequest {
            memory: MemoryConstraint::Fraction(mem),
            throughput: ThroughputConstraint::Any,
            resiliency: ResiliencyConstraint::Any,
        };
        let sel = joint_optimizer(&table, &space, &req, 4).unwrap();
        if !sel.over_budget {
            for c in &space {
                let o = c.storage_overhead();
                prop_assert!(o > mem || o <= sel.overhead, "{c} fills better");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_round_trip_with_correctable_damage(
        data in proptest::collection::vec(any::<u8>(), 256..8192),
        flip in any::<proptest::sample::Index>(),
    ) {
        // Any single-bit flip anywhere in a SEC-DED container is repaired
        // or (if it hits something structural) reported — never silent.
        let encoded = arc_core::arc_secded_encode(&data, true, 2).unwrap();
        let mut bad = encoded.clone();
        let bit = flip.index(encoded.len() * 8);
        bad[bit / 8] ^= 1 << (bit % 8);
        // An Err outcome means the flip was detected, not silent.
        if let Ok((out, _)) = arc_core::arc_secded_decode(&bad, 2) {
            prop_assert_eq!(out, data);
        }
    }
}
