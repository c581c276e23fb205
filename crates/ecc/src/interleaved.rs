//! Byte-lane interleaving of codeword Reed-Solomon: burst protection.
//!
//! The crate's one interleaver: the data region is split round-robin into
//! `depth` byte lanes (lane `j` holds bytes `j, j+depth, j+2·depth, …`),
//! each lane is cut into messages of `255 − nsym` bytes, every message gets
//! the `nsym` parity bytes of one [`RsCodeword`], and the parity region is
//! the concatenation of the per-lane parities in lane order.
//!
//! A contiguous run of `b ≤ depth` corrupted bytes in the *data region*
//! touches each lane at most once, so a burst that would overwhelm one
//! codeword is diluted into `b` single-**byte** errors in `b` different
//! codewords: a `t`-byte-per-codeword code absorbs data bursts of up to
//! `depth · t` bytes — at *identical* parity overhead to the bare code.
//! Only a code that corrects whole symbols gains this way (a bit-correcting
//! one still sees up to eight flipped bits in one codeword), which is why
//! the code is codeword RS and nothing else: up to ⌊nsym/2⌋ corrupted bytes
//! per codeword repaired with no checksum or other side information, where
//! the built-in device RS locates its erasures by CRC. The parity region
//! itself stays lane-contiguous, so a burst there is bounded by the
//! per-codeword budget; parity is a small fraction of the stream, which
//! keeps that exposure proportionally small.
//!
//! The layout is also what makes it fast: symbol `r` of every lane sits in
//! one contiguous `depth`-byte row, so the lanes' LFSRs advance together
//! (`RsCodeword::parity_rows_into`), with no lane ever copied out. Message
//! groups are independent too, so row `r` of a batch of groups is gathered
//! into one feedback row of up to 1 KiB, and each generator tap costs one
//! slice multiply per batch row rather than one per group row.

use std::ops::Range;

use crate::bits::{chunked, chunked_mut, copy_prefix};
use crate::codec::{
    multi_correct_rate_per_mb, Capability, CorrectionReport, EccError, EccScheme, MB,
};
use crate::rscode::{RsCodeword, BATCH, MAX_CODEWORD};

/// Maximum interleave depth (byte lanes per buffer).
pub(crate) const MAX_INTERLEAVE_DEPTH: usize = 4096;

/// Lanes per strip: one 512-bit vector of each row.
const STRIP: usize = 64;

/// Bytes of lane-kernel register state on the stack: `nsym` rows of
/// `BATCH` at the stock nsym 32. A larger `nsym` takes narrower rows.
const STATE: usize = 32 * BATCH;

/// Codeword RS over round-robin byte lanes: `255 − nsym`-byte messages,
/// `nsym` parity bytes each, ⌊nsym/2⌋ unknown-location byte corrections
/// per codeword.
#[derive(Debug, Clone)]
pub struct Interleaved {
    rs: RsCodeword,
    depth: usize,
}

impl Interleaved {
    /// `nsym` parity bytes per codeword (2..=250) across `depth` byte lanes
    /// (2..=4096).
    pub fn new(nsym: usize, depth: usize) -> Result<Interleaved, EccError> {
        if !(2..=250).contains(&nsym) {
            return Err(EccError::InvalidConfig(format!(
                "interleaved: nsym must be in 2..=250, got {nsym}"
            )));
        }
        if !(2..=MAX_INTERLEAVE_DEPTH).contains(&depth) {
            return Err(EccError::InvalidConfig(format!(
                "interleaved: depth must be in 2..={MAX_INTERLEAVE_DEPTH}, got {depth}"
            )));
        }
        Ok(Interleaved { rs: RsCodeword::new(nsym)?, depth })
    }

    /// Parity bytes per codeword.
    fn nsym(&self) -> usize {
        self.rs.nsym
    }

    /// Data bytes per codeword.
    fn message_len(&self) -> usize {
        self.rs.max_message_len()
    }

    /// Codewords in the first `lanes` lanes of a `data_len`-byte region.
    /// Lanes `j < data_len % depth` hold one symbol more than the rest, and
    /// every `message_len` symbols of a lane are one codeword.
    fn codewords(&self, data_len: usize, lanes: usize) -> usize {
        let (rows, long) = (data_len / self.depth, data_len % self.depth);
        let message = self.message_len();
        lanes.min(long) * (rows + 1).div_ceil(message)
            + lanes.saturating_sub(long) * rows.div_ceil(message)
    }

    /// Where the parity of message `m` of lane `j` sits in the parity
    /// region: each lane's codewords keep their parity in one run.
    fn slot(&self, data_len: usize, j: usize, m: usize) -> Range<usize> {
        let start = (self.codewords(data_len, j) + m) * self.nsym();
        start..start + self.nsym()
    }

    /// Compute the parity of every codeword in `data` and hand it to
    /// `visit(lane, message, parity)`, strip by strip and batch by batch
    /// rather than in lane order.
    ///
    /// A message group in which every lane holds the same number of symbols
    /// (all of them when `data` is whole rows, otherwise all but the last)
    /// goes through the kernel across lanes, a strip of `STRIP` lanes at a
    /// time. The full groups of a strip go in batches of `per`: row `r` of
    /// each group in the batch is one `w`-byte run of the kernel's feedback
    /// row. A short last group of whole rows goes alone. In the last group
    /// of a ragged region the lanes differ by one symbol, so each is
    /// gathered and goes through the kernel alone.
    fn for_each_parity(&self, data: &[u8], mut visit: impl FnMut(usize, usize, &[u8])) {
        let (rs, depth, nsym, message) = (&self.rs, self.depth, self.nsym(), self.message_len());
        let group = message * depth;
        let ragged = if data.len().is_multiple_of(depth) { 0 } else { data.len() % group };
        let (uniform, tail) = data.split_at_checked(data.len() - ragged).unwrap_or_default();
        let (full, short) = (uniform.len() / group, uniform.len() % group / depth);

        let mut state = [0u8; STATE];
        let mut parity = [0u8; MAX_CODEWORD];
        let parity = parity.get_mut(..nsym).unwrap_or_default();
        for first in (0..depth).step_by(STRIP) {
            let w = STRIP.min(depth - first);
            // Groups per batch; at least one, as `step_by(0)` panics.
            let per = (BATCH / w).min(STATE / (nsym * w)).max(1);
            // (first group, groups, rows) of each batch.
            let batches = (0..full)
                .step_by(per)
                .map(|m| (m, per.min(full - m), message))
                .chain((short > 0).then_some((full, 1, short)));
            for (m0, count, rows) in batches {
                let width = count * w;
                let state = state.get_mut(..nsym * width).unwrap_or_default();
                let groups = uniform.get(m0 * group..).unwrap_or_default();
                rs.parity_rows_into(rows, width, state, |r, feedback| {
                    for (run, g) in chunked_mut(feedback, w).zip(chunked(groups, group)) {
                        copy_prefix(run, g.get(r * depth + first..).unwrap_or_default());
                    }
                });
                for (g, m) in (m0..m0 + count).enumerate() {
                    for lane in 0..w {
                        // Column `g·w + lane` of the state rows is that
                        // codeword's parity.
                        let column = state.iter().skip(g * w + lane).step_by(width);
                        for (p, s) in parity.iter_mut().zip(column) {
                            *p = *s;
                        }
                        visit(first + lane, m, parity);
                    }
                }
            }
        }
        let mut msg = [0u8; MAX_CODEWORD];
        for j in 0..depth.min(tail.len()) {
            rs.parity_into(gather(tail.iter().skip(j).step_by(depth), &mut msg), parity);
            visit(j, full, parity);
        }
    }
}

/// Copy a lane's `symbols` into `buf`; returns the part of it they filled.
fn gather<'a>(symbols: impl Iterator<Item = &'a u8>, buf: &mut [u8]) -> &mut [u8] {
    let mut n = 0;
    for (dst, src) in buf.iter_mut().zip(symbols) {
        *dst = *src;
        n += 1;
    }
    buf.get_mut(..n).unwrap_or_default()
}

impl EccScheme for Interleaved {
    fn name(&self) -> &'static str {
        "interleaved"
    }

    fn parity_len(&self, data_len: usize) -> usize {
        self.codewords(data_len, self.depth) * self.nsym()
    }

    fn storage_overhead(&self) -> f64 {
        self.nsym() as f64 / self.message_len() as f64
    }

    fn encode_parity_into(&self, data: &[u8], parity: &mut [u8]) {
        self.for_each_parity(data, |j, m, computed| {
            if let Some(slot) = parity.get_mut(self.slot(data.len(), j, m)) {
                copy_prefix(slot, computed);
            }
        });
    }

    fn verify_and_correct(
        &self,
        data: &mut [u8],
        parity: &mut [u8],
    ) -> Result<CorrectionReport, EccError> {
        let expected = self.parity_len(data.len());
        if parity.len() != expected {
            return Err(EccError::Malformed {
                detail: format!(
                    "interleaved parity region {} bytes, expected {expected}",
                    parity.len()
                ),
            });
        }
        // Recomputed parity equals stored parity exactly when the codeword
        // is clean (`RsCodeword::is_clean`); the others are suspects.
        let mut suspects = Vec::new();
        self.for_each_parity(data, |j, m, computed| {
            if parity.get(self.slot(data.len(), j, m)) != Some(computed) {
                suspects.push((j, m));
            }
        });
        // Lane by lane, so the first codeword beyond repair names the error.
        suspects.sort_unstable();
        let blocks_checked = self.codewords(data.len(), self.depth) as u64;
        let mut report = CorrectionReport { blocks_checked, ..Default::default() };
        let mut msg = [0u8; MAX_CODEWORD];
        for (j, m) in suspects {
            let first = m * self.message_len() * self.depth + j;
            let lane = data.iter().skip(first).step_by(self.depth).take(self.message_len());
            let slot = parity.get_mut(self.slot(data.len(), j, m));
            let (msg, Some(slot)) = (gather(lane, &mut msg), slot) else {
                continue;
            };
            // Symbol-granular repairs are tallied as corrected_bits (one per
            // repaired byte), mirroring the container header's
            // symbols-corrected accounting.
            report.corrected_bits += self.rs.repair(msg, slot)? as u64;
            for (dst, src) in data.iter_mut().skip(first).step_by(self.depth).zip(msg.iter()) {
                *dst = *src;
            }
        }
        Ok(report)
    }

    fn capability(&self) -> Capability {
        // A burst of ≤ depth bytes lands as one whole corrupted byte per
        // lane, which a symbol-correcting code absorbs: lanes widen the
        // code's reach at the rates of its one codeword.
        Capability {
            detects_sparse: true,
            corrects_sparse: true,
            corrects_burst: true,
            correctable_per_mb: multi_correct_rate_per_mb(
                MB / self.message_len() as f64,
                self.rs.max_errors(),
            ),
        }
    }

    fn min_bytes_per_thread(&self) -> usize {
        // 32 multiply-accumulates per data byte at the stock nsym, batched
        // into 1 KiB slices: device RS's work at device RS's rate, so device
        // RS's floor.
        1 << 20
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
mod tests {
    use super::*;
    use crate::rscode::oracle::{self, Rng};

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 131) ^ (i >> 5)) as u8).collect()
    }

    fn scheme(depth: usize) -> Interleaved {
        Interleaved::new(32, depth).unwrap()
    }

    /// What this module did before the lane kernel, on the `Poly` oracle:
    /// gather every lane, cut it into messages, take the polynomial
    /// remainder for parity, and hand every codeword to the `Poly`
    /// decoder, whose clean test is all-zero syndromes.
    fn oracle_encode(nsym: usize, depth: usize, data: &[u8]) -> Vec<u8> {
        let mut parity = Vec::new();
        for j in 0..depth {
            let lane: Vec<u8> = data.iter().skip(j).step_by(depth).copied().collect();
            for msg in lane.chunks(255 - nsym) {
                parity.extend(oracle::parity(nsym, msg));
            }
        }
        parity
    }

    fn oracle_verify(
        nsym: usize,
        depth: usize,
        data: &mut [u8],
        parity: &mut [u8],
    ) -> Result<CorrectionReport, EccError> {
        let mut report = CorrectionReport::default();
        let mut slots = parity.chunks_exact_mut(nsym);
        for j in 0..depth {
            let mut lane: Vec<u8> = data.iter().skip(j).step_by(depth).copied().collect();
            for msg in lane.chunks_mut(255 - nsym) {
                let slot = slots.next().unwrap();
                report.blocks_checked += 1;
                let mut cw = [&msg[..], &slot[..]].concat();
                report.corrected_bits += oracle::decode(nsym, &mut cw)? as u64;
                let (fixed_msg, fixed_slot) = cw.split_at(msg.len());
                msg.copy_from_slice(fixed_msg);
                slot.copy_from_slice(fixed_slot);
            }
            for (dst, src) in data.iter_mut().skip(j).step_by(depth).zip(&lane) {
                *dst = *src;
            }
        }
        Ok(report)
    }

    /// Encode `len` random bytes at (`nsym`, `depth`) and decode them clean,
    /// with up to `t` damaged symbols in each of a few codewords (message
    /// and parity alike), and with one codeword over budget — each time
    /// against the oracle: parity bytes, repaired data, repaired parity and
    /// the report, or the same error.
    fn differential_case(rng: &mut Rng, nsym: usize, depth: usize, len: usize) {
        let what = format!("nsym={nsym} depth={depth} len={len}");
        let s = Interleaved::new(nsym, depth).unwrap();
        let (message, lane_len) = (255 - nsym, |j| len / depth + usize::from(j < len % depth));
        let data = rng.bytes(len);
        let parity = s.encode_parity(&data);
        assert!(parity == oracle_encode(nsym, depth, &data), "{what}: parity");
        if len == 0 {
            return;
        }
        for over_budget in [None, Some(false), Some(true)] {
            let (mut d, mut p) = (data.clone(), parity.clone());
            let mut hit = Vec::new();
            for _ in 0..over_budget.map_or(0, |_| rng.range(1, 6)) {
                let j = rng.range(0, depth.min(len) - 1);
                let m = rng.range(0, lane_len(j).div_ceil(message) - 1);
                if hit.contains(&(j, m)) {
                    continue;
                }
                hit.push((j, m));
                let (symbols, t) = (message.min(lane_len(j) - m * message), nsym / 2);
                let n = symbols + nsym;
                let errors = if over_budget == Some(true) && hit.len() == 1 {
                    rng.range(t + 1, (t + 3).min(n))
                } else {
                    rng.range(1, t)
                };
                let start = rng.range(0, n - 1);
                for at in (start..start + errors).map(|at| at % n) {
                    let flip = rng.range(1, 255) as u8;
                    if at < symbols {
                        d[(m * message + at) * depth + j] ^= flip;
                    } else {
                        p[s.slot(len, j, m).start + at - symbols] ^= flip;
                    }
                }
            }
            let (mut od, mut op) = (d.clone(), p.clone());
            let got = s.verify_and_correct(&mut d, &mut p);
            let want = oracle_verify(nsym, depth, &mut od, &mut op);
            assert_eq!(got, want, "{what} over_budget={over_budget:?}: report");
            if got.is_ok() {
                assert!(d == od && p == op, "{what} over_budget={over_budget:?}: repaired bytes");
            }
            if over_budget != Some(true) {
                assert!(got.is_ok() && d == data && p == parity, "{what}: within budget");
            }
        }
    }

    fn random_cases(seed: u64, cases: usize, max_len: usize) {
        let mut rng = Rng(seed);
        for _ in 0..cases {
            // Half the depths small, where lanes are long; the rest anywhere.
            let depth = if rng.range(0, 1) == 0 { rng.range(2, 130) } else { rng.range(2, 4096) };
            let (nsym, len) = (rng.range(2, 250), rng.range(0, max_len));
            differential_case(&mut rng, nsym, depth, len);
        }
    }

    #[test]
    fn lane_kernel_matches_the_gather_oracle_at_the_edges() {
        let mut rng = Rng(0x1A4E_0001);
        // Full groups per batch at (32, 64); nsym 250 and depth 130's last
        // strip (200, 2) get other counts: 2 and 81.
        let per = BATCH / 64;
        assert_eq!(per, STATE / (32 * 64));
        for (nsym, depth, len) in [
            (32, 64, 64 * 223 * (per - 1)), // one batch short of full
            (32, 64, 64 * 223 * per),       // exactly one batch
            (32, 64, 64 * 223 * (per + 1)), // a batch of one group after it
            (32, 64, 64 * 223 * (2 * per + 1)),
            (32, 64, 64 * 223 * (per + 2) + 17), // ragged after several batches
            (200, 130, 130 * 55 * 5),            // batches of 2, 2, 1 and one of 5
            (250, 64, 64 * 5 * 7 + 64 * 3),      // batches of 2, then a short group
            (250, 64, 64 * 5 * 7 + 11),          // ... then a ragged tail
            (32, 64, 0),
            (32, 64, 1),                 // one lane, one symbol
            (32, 64, 63),                // len < depth
            (32, 64, 64 * 223),          // exactly one message per lane
            (32, 64, 64 * 224),          // a last message of 1 symbol in every lane
            (32, 5, 5 * 223 + 3),        // ... in three lanes, none in the other two
            (32, 64, 64 * 223 * 2 + 17), // ragged after whole groups
            (16, 100, 100 * 300 + 99),   // depth not a multiple of 64, ragged tail
            (8, 130, 130 * 247),         // three strips, the last 2 wide
            (2, 2, 1001),
            (250, 3, 77),             // 5-symbol messages
            (32, 4096, 4096 * 3 + 5), // 64 strips
        ] {
            differential_case(&mut rng, nsym, depth, len);
        }
    }

    /// Two codewords beyond repair, failing differently: the scan meets
    /// (lane 3, message 0) first, but the error is (lane 1, message 1)'s,
    /// as it was when lanes were decoded one after another.
    #[test]
    fn the_first_codeword_beyond_repair_in_lane_order_names_the_error() {
        let mut rng = Rng(0x1A4E_0004);
        let (nsym, depth, len) = (8, 4, 4 * 247 * 2);
        let s = Interleaved::new(nsym, depth).unwrap();
        let data = rng.bytes(len);
        let parity = s.encode_parity(&data);
        let damage = |d: &mut [u8], rng: &mut Rng, j: usize, m: usize, errors: usize| {
            for r in 0..errors {
                d[(m * 247 + 3 * r) * depth + j] ^= rng.range(1, 255) as u8;
            }
        };
        let alone = |j, m, errors, seed| {
            let (mut d, mut p) = (data.clone(), parity.clone());
            damage(&mut d, &mut Rng(seed), j, m, errors);
            s.verify_and_correct(&mut d, &mut p)
        };
        // Search the seeds for a pair of distinct failures.
        let (seed, early, late) = (1..200u64)
            .filter_map(|seed| match (alone(3, 0, 5, seed), alone(1, 1, 60, seed)) {
                (Err(early), Err(late)) if early != late => Some((seed, early, late)),
                _ => None,
            })
            .next()
            .expect("some seed makes the two codewords fail differently");
        let (mut d, mut p) = (data.clone(), parity.clone());
        damage(&mut d, &mut Rng(seed), 3, 0, 5);
        damage(&mut d, &mut Rng(seed), 1, 1, 60);
        let (mut od, mut op) = (d.clone(), p.clone());
        let got = s.verify_and_correct(&mut d, &mut p);
        assert_eq!(got, Err(late));
        assert_ne!(got, Err(early));
        assert_eq!(got, oracle_verify(nsym, depth, &mut od, &mut op));
    }

    #[test]
    fn lane_kernel_matches_the_gather_oracle_on_random_shapes() {
        random_cases(0x1A4E_0002, 24, 20_000);
    }

    /// `scripts/check.sh --full` runs this.
    #[test]
    #[ignore = "deep differential: minutes in debug, run with --release"]
    fn lane_kernel_matches_the_gather_oracle_on_random_shapes_deep() {
        random_cases(0x1A4E_0003, 100, 200_000);
    }

    #[test]
    fn validates_depth() {
        assert!(Interleaved::new(8, 1).is_err());
        assert!(Interleaved::new(8, 4097).is_err());
        assert!(Interleaved::new(8, 2).is_ok());
    }

    #[test]
    fn validates_nsym() {
        assert!(Interleaved::new(0, 2).is_err());
        assert!(Interleaved::new(1, 2).is_err());
        assert!(Interleaved::new(251, 2).is_err());
        assert!(Interleaved::new(32, 2).is_ok());
    }

    #[test]
    fn clean_round_trip_various_sizes() {
        let s = scheme(16);
        for n in [0usize, 1, 15, 16, 17, 223, 1000, 16 * 223, 50_000] {
            let data = sample(n);
            let enc = s.encode(&data);
            assert_eq!(enc.len(), n + s.parity_len(n));
            let (out, report) = s.decode(&enc, n).unwrap();
            assert_eq!(out, data, "n={n}");
            assert!(report.is_clean());
        }
    }

    #[test]
    fn parity_len_matches_bare_inner_totals() {
        // Interleaving must not change the total parity bill when lanes
        // split evenly into whole codewords.
        let s = scheme(8);
        let n = 8 * 223 * 4; // every lane is exactly 4 full codewords
        assert_eq!(s.parity_len(n), n / 223 * 32);
        assert_eq!(s.storage_overhead(), 32.0 / 223.0);
    }

    #[test]
    fn absorbs_burst_that_defeats_bare_inner() {
        let s = scheme(64);
        let data = sample(64 * 223);
        let enc = s.encode(&data);

        // A 60-byte contiguous burst: one RS(255,223) codeword corrects
        // only 16 bytes, so the same damage to a contiguous message fails.
        let rs = RsCodeword::new(32).unwrap();
        let mut bare = rs.encode(&data[..223]).unwrap();
        for b in &mut bare[100..160] {
            *b ^= 0xFF;
        }
        let bare_result = rs.decode(&bare);
        assert!(
            bare_result.is_err() || bare_result.is_ok_and(|(out, _)| out != data[..223]),
            "a bare codeword should not survive a 60-byte burst"
        );

        let mut burst = enc.clone();
        for b in &mut burst[100..160] {
            *b ^= 0xFF;
        }
        let (out, report) = s.decode(&burst, data.len()).unwrap();
        assert_eq!(out, data);
        assert!(!report.is_clean());
    }

    #[test]
    fn parity_region_damage_within_inner_budget_is_survivable() {
        // The parity region is lane-contiguous (not interleaved), so a
        // parity burst lands in ONE inner codeword and is bounded by the
        // inner per-codeword budget (t = 16 here) rather than depth·t.
        let s = scheme(32);
        let data = sample(32 * 223);
        let enc = s.encode(&data);
        let mut bad = enc.clone();
        let pstart = data.len();
        for b in &mut bad[pstart + 5..pstart + 15] {
            *b ^= 0x5A;
        }
        let (out, _) = s.decode(&bad, data.len()).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn capability_is_the_inner_codes_and_a_depth_times_t_burst_is_absorbed() {
        let cap = scheme(16).capability();
        assert!(cap.corrects_burst && cap.corrects_sparse);
        assert_eq!(cap.correctable_per_mb, multi_correct_rate_per_mb(MB / 223.0, 16));
        assert!(cap.correctable_per_mb > 1000.0, "rate={}", cap.correctable_per_mb);

        // Symbol-correcting inner: a depth × t byte run is t bytes per lane.
        let (depth, t) = (16usize, 16usize);
        let s = scheme(depth);
        let data = sample(depth * 223 * 2);
        let mut enc = s.encode(&data);
        for b in &mut enc[500..500 + depth * t] {
            *b = !*b;
        }
        assert_eq!(s.decode(&enc, data.len()).unwrap().0, data);
    }

    /// The burst half of `capability`, at every start: a `depth·t`-byte
    /// burst anywhere in the data region decodes to the original bytes,
    /// with one correction per changed byte.
    #[test]
    fn every_depth_times_t_burst_in_the_data_region_is_repaired() {
        let (nsym, depth) = (4, 8);
        let s = Interleaved::new(nsym, depth).unwrap();
        let burst = depth * nsym / 2;
        // Two whole message groups, then a ragged tail of one row and 5 bytes.
        let data = sample(2 * depth * (255 - nsym) + depth + 5);
        let enc = s.encode(&data);
        for start in 0..=data.len() - burst {
            let mut bad = enc.clone();
            for b in &mut bad[start..start + burst] {
                *b ^= 0xFF;
            }
            let (out, report) = s.decode(&bad, data.len()).unwrap();
            assert!(out == data, "burst at {start}");
            assert_eq!(report.corrected_bits, burst as u64, "burst at {start}");
        }
    }

    #[test]
    fn malformed_parity_length_rejected() {
        let s = scheme(4);
        let mut data = sample(100);
        let mut parity = vec![0u8; 3];
        assert!(matches!(
            s.verify_and_correct(&mut data, &mut parity),
            Err(EccError::Malformed { .. })
        ));
    }
}
