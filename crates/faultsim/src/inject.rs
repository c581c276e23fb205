//! The fault vocabulary — [`FaultEvent`] and its one applier — plus
//! uniform sampling of target bits.
//!
//! The paper's methodology (§4.1.3): flip a single bit of the compressed
//! buffer in memory, then attempt decompression. Exhaustive injection is
//! intractable (10⁶–10¹² trials), so target bits are drawn by uniform
//! sampling — 1%, 0.1%, and 0.01% of bits for CESM, Isabel, and NYX
//! respectively, scaled by data size. A [`FaultEvent::Burst`] adds the
//! multi-bit faults of §6.4's machines.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Flip bit `bit` (LSB-first within bytes) of `buf`.
///
/// # Panics
/// Panics if `bit` is out of range.
#[inline]
pub fn flip_bit(buf: &mut [u8], bit: u64) {
    buf[(bit / 8) as usize] ^= 1u8 << (bit % 8);
}

/// Draw `count` distinct bit positions uniformly from `0..total_bits`,
/// returned sorted. Deterministic for a seed.
///
/// # Panics
/// Panics if `count > total_bits`.
pub fn sample_bits(total_bits: u64, count: usize, seed: u64) -> Vec<u64> {
    assert!(count as u64 <= total_bits, "cannot sample {count} of {total_bits} bits");
    let mut rng = StdRng::seed_from_u64(seed);
    if (count as u64) * 3 >= total_bits {
        // Dense request: reservoir-style selection.
        let mut all: Vec<u64> = (0..total_bits).collect();
        for i in 0..count {
            let j = rng.random_range(i as u64..total_bits) as usize;
            all.swap(i, j);
        }
        let mut out = all[..count].to_vec();
        out.sort_unstable();
        return out;
    }
    let mut set = std::collections::HashSet::with_capacity(count * 2);
    while set.len() < count {
        set.insert(rng.random_range(0..total_bits));
    }
    let mut out: Vec<u64> = set.into_iter().collect();
    out.sort_unstable();
    out
}

/// Evenly spaced bit positions (deterministic sweep used by plots that want
/// a location axis rather than a random sample).
pub fn stride_bits(total_bits: u64, count: usize) -> Vec<u64> {
    if count == 0 || total_bits == 0 {
        return vec![];
    }
    let count = count.min(total_bits as usize);
    (0..count).map(|i| (i as u64 * total_bits) / count as u64).collect()
}

/// Corrupt a contiguous run of `len` bytes starting at `start` by XOR-ing
/// each with `0xFF` — the burst fault model (a scratched sector, a torn
/// DMA, a dropped cache line), as opposed to the paper's sparse
/// uniformly-sampled flips. Involutive: applying it twice restores the
/// buffer. Returns the number of bytes actually corrupted (the run is
/// clipped to the buffer).
pub fn burst_byte_run(buf: &mut [u8], start: usize, len: usize) -> usize {
    let end = start.saturating_add(len).min(buf.len());
    let start = start.min(buf.len());
    for b in &mut buf[start..end] {
        *b ^= 0xFF;
    }
    end - start
}

/// One fault: the unit every trial, storm and campaign is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Flip one bit.
    SingleBit {
        /// Bit index (LSB-first within bytes, as [`flip_bit`]).
        bit: u64,
    },
    /// Invert every bit in `len` consecutive bytes starting at `start`
    /// ([`burst_byte_run`]: clipped to the buffer).
    Burst {
        /// First affected byte.
        start: usize,
        /// Burst length in bytes.
        len: usize,
    },
}

/// Apply events to a buffer, in order. XOR faults, so applying the same
/// events twice restores the buffer.
///
/// # Panics
/// Panics if a `SingleBit` event is out of range.
pub fn apply_events(buf: &mut [u8], events: &[FaultEvent]) {
    for e in events {
        match *e {
            FaultEvent::SingleBit { bit } => flip_bit(buf, bit),
            FaultEvent::Burst { start, len } => {
                burst_byte_run(buf, start, len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_is_involutive() {
        let mut buf = vec![0x5Au8; 16];
        let orig = buf.clone();
        flip_bit(&mut buf, 77);
        assert_ne!(buf, orig);
        flip_bit(&mut buf, 77);
        assert_eq!(buf, orig);
    }

    #[test]
    fn sample_bits_distinct_sorted_in_range() {
        let bits = sample_bits(10_000, 500, 9);
        assert_eq!(bits.len(), 500);
        assert!(bits.windows(2).all(|w| w[0] < w[1]));
        assert!(bits.iter().all(|&b| b < 10_000));
    }

    #[test]
    fn sample_bits_deterministic() {
        assert_eq!(sample_bits(5000, 100, 3), sample_bits(5000, 100, 3));
        assert_ne!(sample_bits(5000, 100, 3), sample_bits(5000, 100, 4));
    }

    #[test]
    fn dense_sampling_works() {
        let bits = sample_bits(100, 100, 1);
        assert_eq!(bits, (0..100u64).collect::<Vec<_>>());
        let bits = sample_bits(100, 90, 1);
        assert_eq!(bits.len(), 90);
    }

    #[test]
    fn stride_bits_cover_range_evenly() {
        let bits = stride_bits(1000, 10);
        assert_eq!(bits, vec![0, 100, 200, 300, 400, 500, 600, 700, 800, 900]);
        assert!(stride_bits(5, 10).len() == 5);
        assert!(stride_bits(0, 10).is_empty());
    }

    #[test]
    fn burst_byte_run_is_involutive_and_clipped() {
        let mut buf = vec![0x11u8; 64];
        let orig = buf.clone();
        assert_eq!(burst_byte_run(&mut buf, 10, 20), 20);
        assert_eq!(buf[9], 0x11);
        assert_eq!(buf[10], !0x11);
        assert_eq!(buf[29], !0x11);
        assert_eq!(buf[30], 0x11);
        assert_eq!(burst_byte_run(&mut buf, 10, 20), 20);
        assert_eq!(buf, orig);
        // Clipping: run past the end, and start past the end.
        assert_eq!(burst_byte_run(&mut buf, 60, 100), 4);
        assert_eq!(burst_byte_run(&mut buf, 100, 5), 0);
    }

    #[test]
    fn a_burst_past_the_end_is_clipped() {
        let mut buf = [0u8; 4];
        apply_events(&mut buf, &[FaultEvent::Burst { start: 2, len: 8 }]);
        assert_eq!(buf, [0, 0, 0xFF, 0xFF]);
    }
}
