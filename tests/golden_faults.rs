//! Golden fault-injection results: the seeded fault draws of both machine
//! mixes, the bytes those faults leave behind, and the outcome of three
//! fixed campaigns — two compressor-level single-flip campaigns and one
//! ARC-level campaign in the style of §6.3 — must stay exactly as recorded
//! (FNV-1a checksums and status counts below) however the harness that
//! produces them is arranged.
//!
//! Wall-clock fields (`decompress_seconds`, `bandwidth_mb_s`) are left out:
//! they vary run to run. A mismatch prints the values this build computed.

use arc::core::{arc_engine_decode, arc_engine_encode};
use arc::datasets::SdrDataset;
use arc::faultsim::{
    apply_events, draw_events, run_campaign, run_trials, sample_bits, FaultEvent, ReturnStatus,
    TrialOutcome,
};
use arc::pressio::{BoundSpec, CompressorSpec, Dataset};
use arc::{EccConfig, SystemProfile};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One tag byte per event, then its fields as little-endian `u64`s.
fn event_bytes(events: &[FaultEvent]) -> Vec<u8> {
    let mut out = Vec::new();
    for e in events {
        match *e {
            FaultEvent::SingleBit { bit } => {
                out.push(0);
                out.extend_from_slice(&bit.to_le_bytes());
            }
            FaultEvent::Burst { start, len } => {
                out.push(1);
                out.extend_from_slice(&(start as u64).to_le_bytes());
                out.extend_from_slice(&(len as u64).to_le_bytes());
            }
        }
    }
    out
}

/// The deterministic projection of one trial (the `TrialKey` of
/// `determinism_campaign.rs`), serialized: everything except wall-clock.
fn trial_bytes(t: &TrialOutcome, out: &mut Vec<u8>) {
    out.extend_from_slice(&t.bit.map_or(u64::MAX, |b| b).to_le_bytes());
    out.extend_from_slice(t.status.label().as_bytes());
    let m = t.metrics.as_ref();
    let pct = m.and_then(|m| m.percent_incorrect).map_or(u64::MAX, f64::to_bits);
    let elems = m.and_then(|m| m.incorrect_elements).map_or(u64::MAX, |c| c as u64);
    out.extend_from_slice(&pct.to_le_bytes());
    out.extend_from_slice(&elems.to_le_bytes());
    out.extend_from_slice(&m.map_or(0, |m| m.max_abs_diff.to_bits()).to_le_bytes());
    out.extend_from_slice(&m.map_or(0, |m| m.psnr.to_bits()).to_le_bytes());
}

/// (mix, seed) → (FNV of the drawn events, FNV of the struck buffer).
const GOLDEN_STORMS: [(&str, u64, u64, u64); 4] = [
    ("cielo", 7, 0xdf5e7a1c4352eca4, 0x9788af78d84c8a72),
    ("cielo", 0x57_02_17, 0x0286cc8dd78013f1, 0x354f1b1f0adcd816),
    ("hopper", 7, 0xa2c81168aa17c7b0, 0x354eb3067c865766),
    ("hopper", 0x57_02_17, 0x9cc441f8248b8bf2, 0x2ecdff72014df88f),
];

#[test]
fn seeded_storms_match_golden_checksums() {
    let pristine: Vec<u8> =
        (0..8192u32).map(|i| (i.wrapping_mul(0x9E37_79B1) >> 24) as u8).collect();
    let mut got = Vec::new();
    for (name, mix) in [("cielo", SystemProfile::cielo()), ("hopper", SystemProfile::hopper())] {
        for seed in [7u64, 0x57_02_17] {
            let events = draw_events(pristine.len(), 200, &mix, seed);
            let mut struck = pristine.clone();
            apply_events(&mut struck, &events);
            got.push((name, seed, fnv1a(&event_bytes(&events)), fnv1a(&struck)));
        }
    }
    assert_eq!(got, GOLDEN_STORMS, "computed {got:x?}");
}

/// mode → (Completed, Compressor Exception, Terminated, Timeout) counts of
/// 200 single flips, and the FNV of the control trial followed by every
/// flip trial.
const GOLDEN_CAMPAIGNS: [(&str, [usize; 4], u64); 2] = [
    ("SZ-ABS", [141, 59, 0, 0], 0x9d89a68e8dde7263),
    ("ZFP-Rate", [199, 1, 0, 0], 0xd5cf0a9a437abb9b),
];

#[test]
fn single_flip_campaigns_match_golden_outcomes() {
    let field = SdrDataset::CesmCldlow.generate(&[48, 96], 77);
    let mut got = Vec::new();
    for spec in [CompressorSpec::SzAbs(0.05), CompressorSpec::ZfpRate(8.0)] {
        let comp = spec.build();
        let stream = comp.compress(&Dataset { data: &field.data, dims: &field.dims }).unwrap();
        let bits = sample_bits(stream.len() as u64 * 8, 200, 42);
        let bound = Some(BoundSpec::Abs(0.05));
        let report = run_campaign(&field.data, &stream, &bits, bound);
        let counts = report.status_counts().map(|(_, c)| c);
        let mut keys = Vec::new();
        trial_bytes(&report.control, &mut keys);
        for t in &report.trials {
            trial_bytes(t, &mut keys);
        }
        got.push((spec.family(), counts, fnv1a(&keys)));
    }
    assert_eq!(got, GOLDEN_CAMPAIGNS, "computed {got:x?}");
}

/// (scheme, fault model) → (corrected, detected, silent) over an
/// SZ-ABS(0.1) stream protected by ARC: 300 single flips, then 100 trials of
/// four Cielo-mix events each.
const GOLDEN_ARC: [(&str, &str, [usize; 3]); 4] = [
    ("secded", "single", [300, 0, 0]),
    ("secded", "cielo", [28, 72, 0]),
    ("hamming", "single", [300, 0, 0]),
    ("hamming", "cielo", [30, 70, 0]),
];

#[test]
fn arc_level_flip_campaign_matches_golden_counts() {
    let field = SdrDataset::CesmCldlow.generate(&[48, 96], 77);
    let comp = CompressorSpec::SzAbs(0.1).build();
    let stream = comp.compress(&Dataset { data: &field.data, dims: &field.dims }).unwrap();
    let mut got = Vec::new();
    for (name, config) in
        [("secded", EccConfig::secded(true)), ("hamming", EccConfig::hamming(true))]
    {
        let protected = arc_engine_encode(&stream, config, 1).unwrap();
        let singles: Vec<Vec<FaultEvent>> = sample_bits(protected.len() as u64 * 8, 300, 0x63)
            .into_iter()
            .map(|bit| vec![FaultEvent::SingleBit { bit }])
            .collect();
        let storms: Vec<Vec<FaultEvent>> = (0..100u64)
            .map(|i| draw_events(protected.len(), 4, &SystemProfile::cielo(), 0x63_00 + i))
            .collect();
        for (model, trials) in [("single", singles), ("cielo", storms)] {
            let results = run_trials(&protected, &trials, 2, |b| {
                let exact = arc_engine_decode(b, 1).map(|(data, _)| data == stream);
                exact.map_err(|_| ReturnStatus::CompressorException)
            });
            let corrected = results.iter().filter(|r| r.1 == Some(true)).count();
            let silent = results.iter().filter(|r| r.1 == Some(false)).count();
            got.push((name, model, [corrected, results.len() - corrected - silent, silent]));
        }
    }
    assert_eq!(got, GOLDEN_ARC, "computed {got:?}");
}
