//! Fault-injection calibration for the stock extension ECC families.
//!
//! Two claims are exercised here:
//!
//! 1. **Calibration sweep** — every family registered by
//!    `arc_core::standard_extensions()` survives fault injection at rates
//!    inside its advertised [`Capability`]: sparse flips spread across the
//!    buffer for all families, plus contiguous byte bursts
//!    ([`arc_faultsim::FaultEvent::Burst`]) for the families that advertise
//!    `corrects_burst`, all through the one trial driver — and its
//!    advertised storage overhead bounds what a default chunk really pays.
//! 2. **Interleaving beats bare RS** (property test) — at *identical*
//!    parity overhead, the 64-lane interleaved wrapper corrects data-region
//!    bursts that defeat the bare inner RS code.

use std::sync::OnceLock;

use arc_core::standard_extensions;
use arc_ecc::{EccError, EccScheme, Interleaved, RsCodeword, DEFAULT_CHUNK_SIZE};
use arc_faultsim::{burst_byte_run, run_trials, stride_bits, FaultEvent, ReturnStatus};
use proptest::prelude::*;

fn sample(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 73) ^ (i >> 6) ^ (i >> 11)) as u8).collect()
}

/// Largest contiguous data-region burst each family is calibrated to
/// absorb. `ileave-rs` dilutes a burst across 64 lanes; `bch` does not
/// advertise burst correction at all.
fn burst_budget(name: &str) -> usize {
    match name {
        "ileave-rs" => 300,
        _ => 0,
    }
}

#[test]
fn calibration_sweep_every_family_survives_advertised_faults() {
    let registry = standard_extensions().expect("stock registry");
    let data = sample(128 << 10);
    for name in registry.ids() {
        let scheme = registry.get(&name).expect("registered scheme");
        let cap = scheme.capability();
        assert!(cap.corrects_sparse, "{name} must advertise sparse correction");
        assert!(cap.correctable_per_mb >= 1.0, "{name} advertises a usable rate");
        // `MemoryConstraint::Fraction(f)` admits a scheme by
        // `storage_overhead() <= f`, so the advertised figure must bound
        // what a default chunk pays. Readings when the 1.10 was set: `bch`
        // +0 %, `ileave-rs` +0.7 %, worst built-in (`rs:252:3`) +8.2 % —
        // and +58.6 % / +12.6 % for the two unequal-protection presets
        // this check retired (DESIGN.md §17): their head code ran over the
        // start of every chunk while `storage_overhead()` reported the
        // tail rate.
        let paid = scheme.parity_len(DEFAULT_CHUNK_SIZE) as f64 / DEFAULT_CHUNK_SIZE as f64;
        assert!(
            paid <= 1.10 * scheme.storage_overhead(),
            "{name}: a {DEFAULT_CHUNK_SIZE}-byte chunk pays {paid:.4}, advertised {:.4}",
            scheme.storage_overhead()
        );
        let enc = scheme.encode(&data);
        let total_bits = enc.len() as u64 * 8;

        // Sparse flips, evenly spread (well under every family's
        // per-codeword budget), shifted per round so different bits and
        // different codeword offsets are hit each round.
        let mut trials: Vec<Vec<FaultEvent>> = (0..4u64)
            .map(|round| {
                let shift =
                    |bit| FaultEvent::SingleBit { bit: (bit + round * 1009 * 8) % total_bits };
                stride_bits(total_bits, 16).into_iter().map(shift).collect()
            })
            .collect();

        // Contiguous burst in the data region for burst-capable families.
        let burst = burst_budget(&name);
        if burst > 0 {
            assert!(cap.corrects_burst, "{name} has a burst budget but no burst capability");
            trials.extend((0..4usize).map(|round| {
                vec![FaultEvent::Burst {
                    start: 1 + round * (data.len() - burst - 2) / 3,
                    len: burst,
                }]
            }));
        }

        // Every trial must give the data back exactly, and report a repair.
        let results = run_trials(&enc, &trials, 2, |b| {
            let decoded =
                scheme.decode(b, data.len()).map_err(|_| ReturnStatus::CompressorException);
            decoded.map(|(out, report)| out == data && !report.is_clean())
        });
        for (r, events) in results.iter().zip(&trials) {
            assert_eq!(
                *r,
                (ReturnStatus::Completed, Some(true)),
                "{name}: not repaired: {events:?}"
            );
        }
    }
}

const LANES: usize = 64;
const NSYM: usize = 32;
const CODEWORD_DATA: usize = 255 - NSYM; // message bytes per codeword
const DATA_LEN: usize = 2 * LANES * CODEWORD_DATA; // lanes split into whole codewords

/// The bare code: the same RS(255,223) codewords over contiguous messages,
/// `data ‖ parity` with each message's parity in message order.
fn bare_encode(rs: &RsCodeword, data: &[u8]) -> Vec<u8> {
    let parity = data.chunks(CODEWORD_DATA).flat_map(|msg| rs.encode(msg).split_off(msg.len()));
    data.iter().copied().chain(parity).collect()
}

fn bare_decode(rs: &RsCodeword, encoded: &[u8], data_len: usize) -> Result<Vec<u8>, EccError> {
    let (data, parity) = encoded.split_at(data_len);
    let mut out = Vec::with_capacity(data_len);
    for (msg, slot) in data.chunks(CODEWORD_DATA).zip(parity.chunks(NSYM)) {
        out.extend(rs.decode(&[msg, slot].concat())?.0);
    }
    Ok(out)
}

fn encodings() -> &'static (Vec<u8>, Vec<u8>, Vec<u8>) {
    static ENC: OnceLock<(Vec<u8>, Vec<u8>, Vec<u8>)> = OnceLock::new();
    ENC.get_or_init(|| {
        let data = sample(DATA_LEN);
        let inner = RsCodeword::new(NSYM).expect("inner RS");
        let wrapped = Interleaved::new(NSYM, LANES).expect("wrapper");
        let bare = bare_encode(&inner, &data);
        let ileaved = wrapped.encode(&data);
        // Identical parity bill: interleaving only permutes the data the
        // code sees.
        assert_eq!(bare.len(), ileaved.len());
        (data, bare, ileaved)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any 40..=400-byte data-region burst puts ≥ 17 errors into some bare
    /// RS codeword (t = 16), so the bare code must fail — while 64-lane
    /// interleaving spreads the same burst to ≤ ⌈400/64⌉ = 7 errors per
    /// codeword and must recover exactly.
    #[test]
    fn interleaving_corrects_bursts_that_defeat_bare_rs(
        len in 40usize..=400,
        frac in 0.0f64..1.0,
    ) {
        let (data, bare, ileaved) = encodings();
        let inner = RsCodeword::new(NSYM).expect("inner RS");
        let wrapped = Interleaved::new(NSYM, LANES).expect("wrapper");
        let start = (frac * (DATA_LEN - len) as f64) as usize;

        let mut bare_hit = bare.clone();
        burst_byte_run(&mut bare_hit, start, len);
        let bare_result = bare_decode(&inner, &bare_hit, data.len());
        prop_assert!(
            bare_result.is_err() || bare_result.is_ok_and(|out| &out != data),
            "bare RS survived a {len}-byte burst at {start}"
        );

        let mut ileaved_hit = ileaved.clone();
        burst_byte_run(&mut ileaved_hit, start, len);
        let decoded = wrapped.decode(&ileaved_hit, data.len());
        prop_assert!(decoded.is_ok(), "wrapped decode failed: {:?}", decoded.err());
        let (out, report) = decoded.unwrap();
        prop_assert_eq!(&out, data, "interleaved repair mismatch (len={}, start={})", len, start);
        prop_assert!(!report.is_clean());
    }
}
