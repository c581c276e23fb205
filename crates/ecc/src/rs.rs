//! Device-oriented Reed-Solomon coding (the Jerasure substitution).
//!
//! The paper encodes with Jerasure: the buffer is split into `k` *data
//! devices* and `m` *code devices* are produced; any `m` corrupted devices can
//! be repaired (§2.2). Jerasure is an erasure code — repair requires knowing
//! *which* devices failed — so this codec stores a CRC-32 per device and
//! declares devices whose checksum mismatches as erased, then reconstructs
//! them by solving the generator system over GF(2^8).
//!
//! The generator is a Cauchy matrix (`C[j][i] = 1 / (x_j ⊕ y_i)`), whose every
//! square submatrix is invertible, making the code MDS: any `k` surviving
//! devices determine the data. This is the same family Jerasure's
//! `cauchy_good` coding uses. GF(2^8) symbols cap `k + m` at 255 (Jerasure's
//! `w = 16` allows 256, so the paper's (241,15) and (153,103) configurations
//! map to the nearest `k + m = 255` points — see DESIGN.md §2).
//!
//! Throughput asymmetry matches the paper: encoding pays `O(m·len)` field
//! multiplications (slow, Fig 8d), an error-free decode is a CRC sweep at
//! memory speed (fast, Fig 9d), and repairs pay Gaussian elimination plus
//! reconstruction (the Fig 10 cliff).

use crate::bits::{chunked, chunked_mut};
use crate::codec::{Capability, CorrectionReport, EccError, EccScheme};
use crate::crc::{
    crc32, crc32_combine, crc32_concat, crc32_strip_zeros, crc32_zero_padded, CRC_LEN,
};
use crate::gf256::{mul_acc_slice, scale_slice, Gf};

/// Maximum total device count (`k + m`) representable in GF(2^8) with the
/// Cauchy construction used here.
pub(crate) const MAX_DEVICES: usize = 255;

/// Reed-Solomon configuration: `k` data devices protected by `m` code devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReedSolomon {
    /// Number of data devices the buffer is split into.
    pub k: usize,
    /// Number of code (parity) devices produced; up to `m` corrupted devices
    /// are repairable.
    pub m: usize,
}

impl ReedSolomon {
    /// Create a configuration, validating `k ≥ 1`, `m ≥ 1`, `k + m ≤ 255`.
    pub fn new(k: usize, m: usize) -> Result<ReedSolomon, EccError> {
        if k == 0 || m == 0 {
            return Err(EccError::InvalidConfig("rs: k and m must be >= 1".into()));
        }
        if k + m > MAX_DEVICES {
            return Err(EccError::InvalidConfig(format!(
                "rs: k + m = {} exceeds GF(2^8) limit of {MAX_DEVICES}",
                k + m
            )));
        }
        Ok(ReedSolomon { k, m })
    }

    /// Cauchy generator coefficient for code device `j`, data device `i`.
    ///
    /// `x_j = j` (code rows) and `y_i = m + i` (data columns) are disjoint
    /// sets for `k + m ≤ 255`, so `x_j ≠ y_i`: the XOR is non-zero and
    /// invertible. One XOR and one table inversion, against the kilobytes of
    /// `mul_acc_slice` every use of a coefficient pays, so nothing caches it.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "j < m and m + i < k + m <= 255, checked at construction"
    )]
    fn coeff(&self, j: usize, i: usize) -> Gf {
        Gf((j as u8) ^ ((self.m + i) as u8)).inv()
    }

    /// Device size for a given buffer length.
    pub fn device_size(&self, data_len: usize) -> usize {
        data_len.div_ceil(self.k)
    }

    /// The `k` data devices of a buffer cut into `d`-byte devices: the
    /// buffer's chunks (the last may be ragged), then as many empty devices
    /// as a short buffer leaves unfilled.
    fn data_devices<'a>(&self, data: &'a [u8], d: usize) -> impl Iterator<Item = &'a [u8]> {
        chunked(data, d).chain(std::iter::repeat(&[][..])).take(self.k)
    }

    /// Number of CRC table bytes.
    fn crc_table_len(&self) -> usize {
        (self.k + self.m) * CRC_LEN
    }

    /// `acc ^= Σ_i C[j][i]·data_i` over every data device `i` not listed in
    /// `skip` — row `j` of the generator applied to the buffer, with `acc`
    /// one device long. The ragged tail device counts as zero-padded.
    fn accumulate_row(&self, j: usize, data: &[u8], skip: &[usize], acc: &mut [u8]) {
        for (i, dev) in chunked(data, acc.len()).enumerate().filter(|(i, _)| !skip.contains(i)) {
            if let Some(acc) = acc.get_mut(..dev.len()) {
                mul_acc_slice(acc, dev, self.coeff(j, i));
            }
        }
    }

    /// Rebuild the erased data devices listed in `bad_data` from the intact
    /// code devices `good` (index, bytes): one device-length vector per
    /// erased device, in `bad_data`'s order.
    ///
    /// Gauss–Jordan with partial pivoting over GF(2^8) on augmented rows.
    /// Row `r` is the generator row of the `r`-th intact code device over
    /// the erased columns, beside that device with the intact data devices'
    /// share removed. Rows swap and reduce as one unit, so once every column
    /// is eliminated row `r` holds device `bad_data[r]`.
    fn solve_erasures<'a>(
        &self,
        data: &[u8],
        good: impl Iterator<Item = (usize, &'a [u8])>,
        bad_data: &[usize],
    ) -> Result<Vec<Vec<u8>>, EccError> {
        let t = bad_data.len();
        let mut rows: Vec<(Vec<Gf>, Vec<u8>)> = good
            .take(t)
            .map(|(j, dev)| {
                let mut rhs = dev.to_vec();
                self.accumulate_row(j, data, bad_data, &mut rhs);
                (bad_data.iter().map(|&i| self.coeff(j, i)).collect(), rhs)
            })
            .collect();
        if rows.len() < t {
            return Err(EccError::Uncorrectable {
                scheme: "rs",
                detail: format!(
                    "{t} data device(s) lost but only {} intact code device(s)",
                    rows.len()
                ),
            });
        }
        for col in 0..t {
            let lead = |a: &[Gf]| a.get(col).copied().unwrap_or(Gf::ZERO);
            let pivot = rows.iter().skip(col).position(|(a, _)| lead(a) != Gf::ZERO);
            let pivot = pivot.ok_or_else(|| EccError::Uncorrectable {
                scheme: "rs",
                detail: "singular erasure system (should be impossible for Cauchy)".into(),
            })?;
            let Some((above, rest)) = rows.split_at_mut_checked(col) else { break };
            let Some((first, below)) = rest.split_first_mut() else { break };
            if let Some(row) = pivot.checked_sub(1).and_then(|p| below.get_mut(p)) {
                std::mem::swap(first, row);
            }
            let (pa, pdev) = first;
            let inv = lead(pa).inv();
            pa.iter_mut().for_each(|x| *x = x.mul(inv));
            scale_slice(pdev, inv);
            for (a, dev) in above.iter_mut().chain(below) {
                let factor = lead(a);
                if factor == Gf::ZERO {
                    continue;
                }
                for (x, &p) in a.iter_mut().zip(pa.iter()) {
                    *x = x.add(factor.mul(p));
                }
                mul_acc_slice(dev, pdev, factor);
            }
        }
        Ok(rows.into_iter().map(|(_, dev)| dev).collect())
    }
}

/// Stored CRC entry of a data device: the CRC of the device zero-padded to
/// the device size `d`.
fn data_device_crc(dev: &[u8], d: usize) -> [u8; CRC_LEN] {
    crc32_zero_padded(dev, d - dev.len()).to_le_bytes()
}

impl EccScheme for ReedSolomon {
    fn name(&self) -> &'static str {
        "rs"
    }

    fn parity_len(&self, data_len: usize) -> usize {
        if data_len == 0 {
            return 0;
        }
        self.m * self.device_size(data_len) + self.crc_table_len()
    }

    fn storage_overhead(&self) -> f64 {
        // CRC table is O(1) per buffer; the asymptotic cost is m/k.
        self.m as f64 / self.k as f64
    }

    fn encode_parity_into(&self, data: &[u8], parity: &mut [u8]) {
        if data.is_empty() {
            return;
        }
        let d = self.device_size(data.len());
        let (parity_devs, crc_table) = parity.split_at_mut_checked(self.m * d).unwrap_or_default();
        parity_devs.fill(0);
        let crcs = crc_table.as_chunks_mut::<CRC_LEN>().0;
        let (data_crcs, code_crcs) = crcs.split_at_mut_checked(self.k).unwrap_or_default();
        for (dev, crc) in self.data_devices(data, d).zip(data_crcs) {
            *crc = data_device_crc(dev, d);
        }
        for (j, (dev, crc)) in chunked_mut(parity_devs, d).zip(code_crcs).enumerate() {
            self.accumulate_row(j, data, &[], dev);
            *crc = crc32(dev).to_le_bytes();
        }
    }

    fn verify_and_correct(
        &self,
        data: &mut [u8],
        parity: &mut [u8],
    ) -> Result<CorrectionReport, EccError> {
        let expected = self.parity_len(data.len());
        if parity.len() != expected {
            return Err(EccError::Malformed {
                detail: format!("rs parity region {} bytes, expected {expected}", parity.len()),
            });
        }
        if data.is_empty() {
            return Ok(CorrectionReport::default());
        }
        let d = self.device_size(data.len());
        // The length check above makes both splits exact, and the table
        // exactly `k + m` entries.
        let (parity_devs, crc_table) = parity.split_at_mut_checked(self.m * d).unwrap_or_default();
        let crcs = crc_table.as_chunks_mut::<CRC_LEN>().0;
        let (data_crcs, code_crcs) = crcs.split_at_mut_checked(self.k).unwrap_or_default();
        // Fast path: a full CRC sweep locates corrupt devices.
        let bad_data: Vec<usize> = (self.data_devices(data, d).zip(data_crcs.iter()).enumerate())
            .filter(|(_, (dev, crc))| data_device_crc(dev, d) != **crc)
            .map(|(i, _)| i)
            .collect();
        let bad_parity: Vec<usize> = (chunked(parity_devs, d).zip(code_crcs.iter()).enumerate())
            .filter(|(_, (dev, crc))| crc32(dev).to_le_bytes() != **crc)
            .map(|(j, _)| j)
            .collect();
        let total_bad = bad_data.len() + bad_parity.len();
        let mut report =
            CorrectionReport { blocks_checked: (self.k + self.m) as u64, ..Default::default() };
        if total_bad == 0 {
            return Ok(report);
        }
        if total_bad > self.m {
            return Err(EccError::Uncorrectable {
                scheme: "rs",
                detail: format!(
                    "{} corrupt device(s) exceed correction capability m = {}",
                    total_bad, self.m
                ),
            });
        }
        // Repair path: reconstruct erased data devices, then rebuild any
        // corrupt parity devices and refresh their checksums.
        let good = chunked(parity_devs, d).enumerate().filter(|(j, _)| !bad_parity.contains(j));
        let recovered = self.solve_erasures(data, good, &bad_data)?;
        for (&i, fixed) in bad_data.iter().zip(recovered) {
            // A device past the end of a short buffer is empty.
            let dev = chunked_mut(data, d).nth(i).unwrap_or_default();
            dev.iter_mut().zip(fixed).for_each(|(b, f)| *b = f);
            if let Some(crc) = data_crcs.get_mut(i) {
                *crc = data_device_crc(dev, d);
            }
            report.corrected_devices += 1;
        }
        let devs = chunked_mut(parity_devs, d).zip(code_crcs).enumerate();
        for (j, (dev, crc)) in devs.filter(|(j, _)| bad_parity.contains(j)) {
            dev.fill(0);
            self.accumulate_row(j, data, &[], dev);
            *crc = crc32(dev).to_le_bytes();
            report.corrected_devices += 1;
        }
        Ok(report)
    }

    /// The data devices' stored CRCs, combined: the full devices as one run
    /// of `d`-byte blocks, then the ragged one with its zero padding
    /// stripped. Verification held every data device to its stored CRC (or
    /// rebuilt the device and refreshed the entry), so this is `crc32(data)`.
    fn data_crc(&self, data_len: usize, parity: &[u8]) -> Option<u32> {
        if data_len == 0 {
            return Some(crc32(&[]));
        }
        let d = self.device_size(data_len);
        let table = parity.get(self.m * d..)?.as_chunks::<CRC_LEN>().0;
        let mut stored = table.iter().map(|c| u32::from_le_bytes(*c));
        let (full, tail) = (data_len / d, data_len % d);
        let crc = crc32_concat(stored.by_ref().take(full), d);
        if tail == 0 {
            return Some(crc);
        }
        Some(crc32_combine(crc, crc32_strip_zeros(stored.next()?, d - tail), tail))
    }

    /// RS encode is the slowest kernel in the crate, so even 1 MiB of work
    /// per worker amortizes thread dispatch; the lighter schemes keep the
    /// larger default floor.
    fn min_bytes_per_thread(&self) -> usize {
        1 << 20
    }

    fn capability(&self) -> Capability {
        Capability {
            detects_sparse: true,
            corrects_sparse: true,
            corrects_burst: true,
            // Up to m corrupt devices per protected buffer; ARC's parallel
            // driver encodes ~1 MiB chunks, so per-MB capability ≈ m when
            // errors land in distinct devices (bursts cost one device per
            // device-span they touch).
            correctable_per_mb: self.m as f64,
        }
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
mod tests {
    use super::*;
    use crate::bits::flip_bit;

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 2654435761usize) >> 13) as u8).collect()
    }

    #[test]
    fn validates_configuration() {
        assert!(ReedSolomon::new(0, 4).is_err());
        assert!(ReedSolomon::new(4, 0).is_err());
        assert!(ReedSolomon::new(200, 56).is_err());
        assert!(ReedSolomon::new(200, 55).is_ok());
        assert!(ReedSolomon::new(1, 1).is_ok());
    }

    #[test]
    fn cauchy_coefficients_are_nonzero() {
        let rs = ReedSolomon::new(200, 55).unwrap();
        for j in 0..55 {
            for i in 0..200 {
                assert_ne!(rs.coeff(j, i), Gf::ZERO);
            }
        }
    }

    #[test]
    fn clean_round_trip() {
        for (k, m) in [(4, 2), (10, 4), (241, 14), (152, 103), (1, 1)] {
            let rs = ReedSolomon::new(k, m).unwrap();
            let data = sample(10_000);
            let enc = rs.encode(&data);
            let (out, report) = rs.decode(&enc, data.len()).unwrap();
            assert_eq!(out, data, "k={k} m={m}");
            assert!(report.is_clean());
        }
    }

    #[test]
    fn corrects_single_bit_flip_anywhere() {
        let rs = ReedSolomon::new(8, 3).unwrap();
        let data = sample(512);
        let enc = rs.encode(&data);
        // Sweep a sample of bit positions across data, parity, and CRC table.
        for bit in (0..(enc.len() as u64 * 8)).step_by(97) {
            let mut bad = enc.clone();
            flip_bit(&mut bad, bit);
            let (out, report) = rs.decode(&bad, data.len()).unwrap();
            assert_eq!(out, data, "bit {bit}");
            assert!(report.corrected_devices >= 1 || report.is_clean(), "bit {bit}");
        }
    }

    #[test]
    fn corrects_m_whole_device_erasures() {
        let rs = ReedSolomon::new(6, 3).unwrap();
        let data = sample(6 * 100);
        let enc = rs.encode(&data);
        let d = rs.device_size(data.len());
        // Trash devices 0, 3, 5 (all data devices) completely.
        let mut bad = enc.clone();
        for dev in [0usize, 3, 5] {
            for b in &mut bad[dev * d..(dev + 1) * d] {
                *b = !*b;
            }
        }
        let (out, report) = rs.decode(&bad, data.len()).unwrap();
        assert_eq!(out, data);
        assert_eq!(report.corrected_devices, 3);
    }

    #[test]
    fn corrects_mixed_data_and_parity_device_loss() {
        let rs = ReedSolomon::new(5, 4).unwrap();
        let data = sample(5 * 64 + 13); // ragged tail
        let enc = rs.encode(&data);
        let d = rs.device_size(data.len());
        let mut bad = enc.clone();
        // Corrupt data devices 1 and 4 (the ragged one) and parity devices 0, 2.
        for b in &mut bad[d..2 * d] {
            *b ^= 0x5A;
        }
        for b in &mut bad[4 * d..data.len()] {
            *b ^= 0xFF;
        }
        let pbase = data.len();
        for j in [0usize, 2] {
            for b in &mut bad[pbase + j * d..pbase + (j + 1) * d] {
                *b ^= 0x33;
            }
        }
        let (out, report) = rs.decode(&bad, data.len()).unwrap();
        assert_eq!(out, data);
        assert_eq!(report.corrected_devices, 4);
    }

    #[test]
    fn burst_error_spanning_adjacent_devices() {
        let rs = ReedSolomon::new(10, 4).unwrap();
        let data = sample(10 * 256);
        let enc = rs.encode(&data);
        let d = rs.device_size(data.len());
        let mut bad = enc.clone();
        // 3·d-byte burst straddling devices 2, 3, 4.
        let start = 2 * d + d / 2;
        for b in &mut bad[start..start + 3 * d] {
            *b = 0xEE;
        }
        let (out, _) = rs.decode(&bad, data.len()).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn rejects_more_than_m_corrupt_devices() {
        let rs = ReedSolomon::new(6, 2).unwrap();
        let data = sample(6 * 50);
        let enc = rs.encode(&data);
        let d = rs.device_size(data.len());
        let mut bad = enc.clone();
        for dev in [0usize, 2, 4] {
            bad[dev * d] ^= 0xFF;
        }
        assert!(matches!(rs.decode(&bad, data.len()), Err(EccError::Uncorrectable { .. })));
    }

    #[test]
    fn corrupt_crc_table_is_self_healing() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = sample(400);
        let enc = rs.encode(&data);
        let d = rs.device_size(data.len());
        let crc_base = (data.len() + 2 * d) as u64 * 8;
        let mut bad = enc.clone();
        flip_bit(&mut bad, crc_base + 5); // corrupt CRC entry of device 0
        let (out, report) = rs.decode(&bad, data.len()).unwrap();
        assert_eq!(out, data);
        // Device 0 looked erased and was "repaired" to identical contents.
        assert_eq!(report.corrected_devices, 1);
    }

    #[test]
    fn short_buffer_fewer_bytes_than_devices() {
        let rs = ReedSolomon::new(16, 4).unwrap();
        let data = sample(5); // d = 1, devices 5..15 empty
        let enc = rs.encode(&data);
        let (out, _) = rs.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
        // Corrupt one real byte.
        let mut bad = enc.clone();
        bad[2] ^= 0x40;
        let (out, report) = rs.decode(&bad, data.len()).unwrap();
        assert_eq!(out, data);
        assert_eq!(report.corrected_devices, 1);
    }

    #[test]
    fn empty_input() {
        let rs = ReedSolomon::new(8, 4).unwrap();
        let enc = rs.encode(&[]);
        assert!(enc.is_empty());
        assert!(rs.decode(&enc, 0).unwrap().0.is_empty());
    }

    #[test]
    fn overhead_is_m_over_k() {
        let rs = ReedSolomon::new(241, 14).unwrap();
        assert!((rs.storage_overhead() - 14.0 / 241.0).abs() < 1e-12);
    }

    #[test]
    fn capability_includes_burst() {
        let cap = ReedSolomon::new(10, 4).unwrap().capability();
        assert!(cap.corrects_burst && cap.corrects_sparse && cap.detects_sparse);
        assert_eq!(cap.correctable_per_mb, 4.0);
    }

    #[test]
    fn data_crc_is_the_crc_of_the_data() {
        for (k, m, len) in
            [(4, 2, 100), (5, 4, 5 * 64 + 13), (16, 4, 5), (223, 32, 100_000), (1, 1, 7)]
        {
            let rs = ReedSolomon::new(k, m).unwrap();
            let data = sample(len);
            let mut parity = rs.encode_parity(&data);
            assert_eq!(rs.data_crc(len, &parity), Some(crc32(&data)), "k={k} m={m} len={len}");
            // A repaired device's refreshed entry counts the same.
            let mut bad = data.clone();
            bad[len - 1] ^= 0x10;
            rs.verify_and_correct(&mut bad, &mut parity).unwrap();
            assert_eq!(rs.data_crc(len, &parity), Some(crc32(&data)), "k={k} m={m} len={len}");
        }
        assert_eq!(ReedSolomon::new(4, 2).unwrap().data_crc(0, &[]), Some(0));
    }

    /// Damage device `dev` of an encoding of `len` bytes with one bit flip,
    /// which its CRC always catches: the device's first byte, or for an
    /// empty data device (past the end of a short buffer) its CRC entry.
    fn erase(rs: &ReedSolomon, enc: &mut [u8], len: usize, dev: usize) {
        let d = rs.device_size(len);
        let at = match dev.checked_sub(rs.k) {
            Some(j) => len + j * d,
            None if dev * d < len => dev * d,
            None => len + rs.m * d + dev * CRC_LEN,
        };
        enc[at] ^= 0x10;
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Random `k`, `m` and ragged lengths, many shorter than `k`, with
        /// erasure sets of up to `m` devices drawn from data and code
        /// devices alike: decode restores the encoding byte for byte and
        /// repairs exactly the erased devices. One erasure more than `m` is
        /// `Uncorrectable`.
        #[test]
        fn any_m_erasures_are_repaired_and_m_plus_one_are_not(
            k in 1usize..=40,
            m in 1usize..=12,
            len in 1usize..300,
            seed: u64,
        ) {
            let rs = ReedSolomon::new(k, m).unwrap();
            let data = sample(len);
            let enc = rs.encode(&data);
            // A seeded shuffle of every device; its first `e` are erased.
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB) >> 1
            };
            let mut devices: Vec<usize> = (0..k + m).collect();
            for i in (1..devices.len()).rev() {
                devices.swap(i, next() as usize % (i + 1));
            }
            let e = next() as usize % (m + 1);
            let mut bad = enc.clone();
            for &dev in &devices[..e] {
                erase(&rs, &mut bad, len, dev);
            }
            // Repair in place heals the parity region too: rebuilt code
            // devices and refreshed CRC entries, empty devices' included.
            let (out, parity) = bad.split_at_mut(len);
            let report = rs.verify_and_correct(out, parity).unwrap();
            proptest::prop_assert_eq!(&bad, &enc);
            proptest::prop_assert_eq!(report.corrected_devices, e as u64);

            let mut bad = enc.clone();
            for &dev in &devices[..m + 1] {
                erase(&rs, &mut bad, len, dev);
            }
            let uncorrectable = matches!(rs.decode(&bad, len), Err(EccError::Uncorrectable { .. }));
            proptest::prop_assert!(uncorrectable, "k={} m={} len={}", k, m, len);
        }
    }

    #[test]
    fn parity_len_accounts_for_crc_table() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let len = rs.parity_len(100);
        assert_eq!(len, 2 * 25 + 6 * 4);
    }
}
