//! Acceptance test for v2 random access: over a ≥ 64 MiB sharded
//! container, a 1/16th-slice `decode_range` must ECC-decode strictly
//! fewer encoded bytes than a full decode — the whole point of the
//! sharded format — while matching the full decode bit-for-bit, even
//! with correctable corruption injected into the shards it touches.
//!
//! The partial-read claim is asserted through the
//! `RangeReport::encoded_bytes_decoded` accounting the reader returns.

use arc_core::container::unpack;
use arc_core::{arc_engine_decode, arc_engine_encode_sharded, ArcReader};
use arc_ecc::EccConfig;

/// 60 MiB of data; secded:64 overhead (9/8) plus header and triplicated
/// index pushes the container comfortably past the 64 MiB floor.
const DATA_LEN: usize = 60 << 20;
const SHARD_SIZE: usize = 1 << 20;
const SLICE_LEN: usize = DATA_LEN / 16;

/// Deterministic xorshift fill — incompressible enough that nothing in
/// the pipeline can shortcut, cheap enough to build 60 MiB instantly.
fn big_payload() -> Vec<u8> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut data = Vec::with_capacity(DATA_LEN);
    while data.len() < DATA_LEN {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        data.extend_from_slice(&state.to_le_bytes());
    }
    data.truncate(DATA_LEN);
    data
}

#[test]
fn sixteenth_slice_of_64mib_container_decodes_strictly_less() {
    let data = big_payload();
    let encoded = arc_engine_encode_sharded(&data, EccConfig::secded(true), 1, SHARD_SIZE).unwrap();
    assert!(
        encoded.len() >= 64 << 20,
        "container must be >= 64 MiB for this test to mean anything; got {} B",
        encoded.len()
    );

    // Reference: the full decode, and its total encoded-payload cost.
    let (full, full_report) = arc_engine_decode(&encoded, 1).unwrap();
    assert_eq!(full.len(), data.len());
    assert!(full == data, "v2 full decode must round-trip");
    assert!(full_report.correction.is_clean());
    let full_cost = unpack(&encoded).unwrap().payload.len();

    // A deliberately shard-misaligned 1/16th slice.
    let offset = DATA_LEN / 3 + 12_345;
    let mut reader = ArcReader::open(&encoded, 1).unwrap();
    let (out, rr) = reader.decode_range(offset, SLICE_LEN).unwrap();
    assert!(out == full[offset..offset + SLICE_LEN], "range read must equal full-decode slice");

    // The partial-read win, per the reader's own accounting: strictly
    // fewer encoded bytes than the full decode touched — and not just
    // barely: a 1/16th slice must cost well under a quarter of it.
    assert!(rr.encoded_bytes_decoded > 0);
    assert!(
        rr.encoded_bytes_decoded < full_cost,
        "range decode ({} B) must cost strictly less than full decode ({} B)",
        rr.encoded_bytes_decoded,
        full_cost
    );
    assert!(rr.encoded_bytes_decoded < full_cost / 4);
    let expected_shards = SLICE_LEN / SHARD_SIZE + 2;
    assert!(rr.shards_touched <= expected_shards);
}

#[test]
fn corrupted_touched_shards_still_serve_the_exact_slice() {
    let data = big_payload();
    let encoded = arc_engine_encode_sharded(&data, EccConfig::secded(true), 1, SHARD_SIZE).unwrap();
    let offset = DATA_LEN / 3 + 12_345;

    // Flip one bit inside every shard the range will touch (secded:64
    // corrects any single bit per 64-bit word), plus one in a shard it
    // must NOT touch — if the reader were secretly decoding everything,
    // that third flip would show up in the correction count.
    let u = unpack(&encoded).unwrap();
    let index = u.index.as_ref().expect("v2 container carries an index");
    let first = offset / SHARD_SIZE;
    let last = (offset + SLICE_LEN - 1) / SHARD_SIZE;
    let mut damaged = encoded.clone();
    for e in &index.entries[first..=last] {
        damaged[u.payload_offset + e.offset + e.encoded_len / 2] ^= 0x04;
    }
    let untouched = &index.entries[if first > 0 { 0 } else { last + 1 }];
    damaged[u.payload_offset + untouched.offset + untouched.encoded_len / 2] ^= 0x04;

    let mut reader = ArcReader::open(&damaged, 1).unwrap();
    let (out, rr) = reader.decode_range(offset, SLICE_LEN).unwrap();
    assert!(
        out == data[offset..offset + SLICE_LEN],
        "range over corrupted shards must still be bit-exact"
    );
    let touched = last - first + 1;
    assert_eq!(
        rr.correction.corrected_bits, touched as u64,
        "exactly one corrected bit per touched shard — no more (the \
         untouched shard's flip must stay unseen), no fewer"
    );
}
