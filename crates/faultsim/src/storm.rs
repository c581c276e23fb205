//! Fault *storms*: many fault events drawn from a machine's fault mix.
//!
//! §6.4 characterizes machines not just by rate but by *mix*: the share of
//! faults that flip one bit, and the burst lengths of the rest. Both live in
//! [`SystemProfile`] (Cielo, Hopper); this module draws fault events from a
//! profile's mix and applies them to a stored buffer, so harnesses can ask
//! the end-to-end question the paper's §6.3/§6.4 discussion implies: *does
//! the ARC configuration recommended for this machine actually survive this
//! machine's weather?*

use arc_core::SystemProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inject::{apply_events, FaultEvent};

/// Draw `events` fault events for a buffer of `buf_len` bytes from
/// `profile`'s mix. Deterministic for a seed; every burst fits the buffer.
///
/// # Panics
/// Panics on an empty buffer or an invalid mix (a single-bit fraction
/// outside 0..=1, or an empty or zero-length burst range).
pub fn draw_events(
    buf_len: usize,
    events: usize,
    profile: &SystemProfile,
    seed: u64,
) -> Vec<FaultEvent> {
    let (lo, hi) = profile.burst_bytes;
    assert!(
        (0.0..=1.0).contains(&profile.single_bit_fraction) && lo > 0 && lo <= hi,
        "invalid fault mix for {}",
        profile.name
    );
    assert!(buf_len > 0, "empty buffer");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..events)
        .map(|_| {
            if rng.random::<f64>() < profile.single_bit_fraction {
                FaultEvent::SingleBit { bit: rng.random_range(0..buf_len as u64 * 8) }
            } else {
                let max_len = hi.min(buf_len);
                let len = rng.random_range(lo.min(max_len)..=max_len);
                let start = rng.random_range(0..=(buf_len - len) as u64) as usize;
                FaultEvent::Burst { start, len }
            }
        })
        .collect()
}

/// Summary of a storm: how many events of each kind, how many bits flipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StormSummary {
    /// Single-bit events applied.
    pub single_bit_events: usize,
    /// Burst events applied.
    pub burst_events: usize,
    /// Total bits flipped.
    pub bits_flipped: u64,
}

/// Draw and apply a storm in one call, returning its summary.
pub fn storm(buf: &mut [u8], events: usize, profile: &SystemProfile, seed: u64) -> StormSummary {
    let drawn = draw_events(buf.len(), events, profile, seed);
    let mut summary = StormSummary::default();
    for e in &drawn {
        match *e {
            FaultEvent::SingleBit { .. } => {
                summary.single_bit_events += 1;
                summary.bits_flipped += 1;
            }
            FaultEvent::Burst { len, .. } => {
                summary.burst_events += 1;
                summary.bits_flipped += len as u64 * 8;
            }
        }
    }
    apply_events(buf, &drawn);
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_trials;
    use crate::trial::ReturnStatus;

    #[test]
    fn invalid_mixes_are_refused() {
        let cielo = SystemProfile::cielo();
        let bad = [
            SystemProfile { single_bit_fraction: 1.5, ..cielo.clone() },
            SystemProfile { burst_bytes: (0, 2), ..cielo.clone() },
            SystemProfile { burst_bytes: (5, 2), ..cielo },
        ];
        // `draw_events` panics on each; the trial driver reports a panic as
        // Terminated.
        for mix in &bad {
            let r = run_trials(&[0], &[vec![]], 1, |_| Ok(draw_events(64, 1, mix, 0)));
            assert_eq!(r[0].0, ReturnStatus::Terminated, "{mix:?}");
        }
    }

    #[test]
    fn event_mix_matches_fractions() {
        let hopper = SystemProfile::hopper();
        let events = draw_events(1 << 20, 5_000, &hopper, 7);
        let singles = events.iter().filter(|e| matches!(e, FaultEvent::SingleBit { .. })).count();
        let frac = singles as f64 / events.len() as f64;
        assert!(
            (frac - hopper.single_bit_fraction).abs() < 0.02,
            "observed single-bit fraction {frac}"
        );
    }

    #[test]
    fn events_stay_in_bounds() {
        let n = 4096usize;
        for e in draw_events(n, 2_000, &SystemProfile::cielo(), 3) {
            match e {
                FaultEvent::SingleBit { bit } => assert!(bit < n as u64 * 8),
                FaultEvent::Burst { start, len } => {
                    assert!(len >= 2 && start + len <= n);
                }
            }
        }
    }

    #[test]
    fn apply_is_involutive() {
        let mut buf = vec![0xA5u8; 2048];
        let orig = buf.clone();
        let events = draw_events(buf.len(), 50, &SystemProfile::cielo(), 11);
        apply_events(&mut buf, &events);
        assert_ne!(buf, orig);
        apply_events(&mut buf, &events);
        assert_eq!(buf, orig, "XOR faults are involutive");
    }

    #[test]
    fn storm_summary_accounts_for_everything() {
        let mut buf = vec![0u8; 1 << 16];
        let s = storm(&mut buf, 200, &SystemProfile::cielo(), 5);
        assert_eq!(s.single_bit_events + s.burst_events, 200);
        assert!(s.bits_flipped >= 200);
        let set_bits: u64 = buf.iter().map(|b| b.count_ones() as u64).sum();
        assert!(set_bits > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let cielo = SystemProfile::cielo();
        let a = draw_events(1000, 100, &cielo, 42);
        let b = draw_events(1000, 100, &cielo, 42);
        assert_eq!(a, b);
        let c = draw_events(1000, 100, &cielo, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn small_buffers_clamp_burst_length() {
        let events = draw_events(4, 100, &SystemProfile::cielo(), 1);
        for e in events {
            if let FaultEvent::Burst { start, len } = e {
                assert!(start + len <= 4);
            }
        }
    }
}
