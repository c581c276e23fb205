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

use crate::codec::{Capability, CorrectionReport, EccError, EccScheme};
use crate::crc::{
    crc32, crc32_combine, crc32_concat, crc32_strip_zeros, crc32_zero_padded, CRC_LEN,
};
use crate::gf256::{mul_acc_slice, Gf};

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
    fn coeff(&self, j: usize, i: usize) -> Gf {
        Gf((j as u8) ^ ((self.m + i) as u8)).inv()
    }

    /// Device size for a given buffer length.
    pub fn device_size(&self, data_len: usize) -> usize {
        data_len.div_ceil(self.k)
    }

    /// Byte range of data device `i` within the buffer (may be empty for
    /// trailing devices of short buffers).
    fn data_device_range(&self, data_len: usize, i: usize) -> std::ops::Range<usize> {
        let d = self.device_size(data_len);
        let start = (i * d).min(data_len);
        let end = ((i + 1) * d).min(data_len);
        start..end
    }

    /// Number of CRC table bytes.
    fn crc_table_len(&self) -> usize {
        (self.k + self.m) * CRC_LEN
    }

    /// `acc ^= Σ_i C[j][i]·data_i` over every data device `i` not listed in
    /// `skip` — row `j` of the generator applied to the buffer. Devices
    /// shorter than `acc` (the ragged tail) count as zero-padded.
    fn accumulate_row(&self, j: usize, data: &[u8], skip: &[usize], acc: &mut [u8]) {
        for i in (0..self.k).filter(|i| !skip.contains(i)) {
            let range = self.data_device_range(data.len(), i);
            mul_acc_slice(&mut acc[..range.len()], &data[range], self.coeff(j, i));
        }
    }

    /// Rebuild the erased data devices listed in `bad_data` from the good
    /// devices, writing results into `recovered` (one `device_size`-length
    /// vector per bad device, same order).
    fn solve_erasures(
        &self,
        data: &[u8],
        parity_devs: &[u8],
        d: usize,
        bad_data: &[usize],
        good_parity: &[usize],
    ) -> Result<Vec<Vec<u8>>, EccError> {
        let t = bad_data.len();
        if t == 0 {
            return Ok(vec![]);
        }
        if good_parity.len() < t {
            return Err(EccError::Uncorrectable {
                scheme: "rs",
                detail: format!(
                    "{t} data device(s) lost but only {} intact code device(s)",
                    good_parity.len()
                ),
            });
        }
        let rows = &good_parity[..t];
        // rhs_r = parity[rows[r]] − Σ_{good i} C[rows[r]][i]·data_i
        // arc-lint: bounded(t <= m <= 255 erasure rows)
        let mut rhs: Vec<Vec<u8>> = Vec::with_capacity(t);
        for &j in rows {
            let mut acc = parity_devs[j * d..(j + 1) * d].to_vec();
            self.accumulate_row(j, data, bad_data, &mut acc);
            rhs.push(acc);
        }
        // Dense t×t system: A[r][c] = C[rows[r]][bad_data[c]].
        // arc-lint: bounded(t <= m <= 255 so the system is at most 255x255)
        let mut a = vec![Gf::ZERO; t * t];
        for (r, &j) in rows.iter().enumerate() {
            for (c, &i) in bad_data.iter().enumerate() {
                a[r * t + c] = self.coeff(j, i);
            }
        }
        // Gauss-Jordan with partial pivoting over GF(2^8); row operations are
        // mirrored onto the rhs device vectors.
        for col in 0..t {
            let pivot_row = (col..t).find(|&r| a[r * t + col] != Gf::ZERO).ok_or_else(|| {
                EccError::Uncorrectable {
                    scheme: "rs",
                    detail: "singular erasure system (should be impossible for Cauchy)".into(),
                }
            })?;
            if pivot_row != col {
                for c in 0..t {
                    a.swap(pivot_row * t + c, col * t + c);
                }
                rhs.swap(pivot_row, col);
            }
            let inv = a[col * t + col].inv();
            for c in 0..t {
                a[col * t + c] = a[col * t + c].mul(inv);
            }
            crate::gf256::scale_slice(&mut rhs[col], inv);
            for r in 0..t {
                if r == col || a[r * t + col] == Gf::ZERO {
                    continue;
                }
                let factor = a[r * t + col];
                for c in 0..t {
                    a[r * t + c] = a[r * t + c].add(factor.mul(a[col * t + c]));
                }
                let (src, dst) = if r < col {
                    let (lo, hi) = rhs.split_at_mut(col);
                    (&hi[0], &mut lo[r])
                } else {
                    let (lo, hi) = rhs.split_at_mut(r);
                    (&lo[col], &mut hi[0])
                };
                mul_acc_slice(dst, src, factor);
            }
        }
        Ok(rhs)
    }
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
        assert_eq!(parity.len(), self.parity_len(data.len()), "parity region size mismatch");
        if data.is_empty() {
            return;
        }
        parity.fill(0);
        let d = self.device_size(data.len());
        let (parity_devs, crc_table) = parity.split_at_mut(self.m * d);
        for j in 0..self.m {
            self.accumulate_row(j, data, &[], &mut parity_devs[j * d..(j + 1) * d]);
        }
        for i in 0..self.k {
            let range = self.data_device_range(data.len(), i);
            let pad = d - range.len();
            let c = crc32_zero_padded(&data[range], pad);
            crc_table[i * CRC_LEN..(i + 1) * CRC_LEN].copy_from_slice(&c.to_le_bytes());
        }
        for j in 0..self.m {
            let c = crc32(&parity_devs[j * d..(j + 1) * d]);
            let idx = self.k + j;
            crc_table[idx * CRC_LEN..(idx + 1) * CRC_LEN].copy_from_slice(&c.to_le_bytes());
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
        let (parity_devs, crc_table) = parity.split_at_mut(self.m * d);
        let stored_crc = |idx: usize| {
            // Clamped copy: the parity-region length check above guarantees a
            // full entry, and a short read decodes as zero instead of aborting.
            let start = (idx * CRC_LEN).min(crc_table.len());
            let end = (start + CRC_LEN).min(crc_table.len());
            let mut w = [0u8; CRC_LEN];
            w[..end - start].copy_from_slice(&crc_table[start..end]);
            u32::from_le_bytes(w)
        };
        // Fast path: a full CRC sweep locates corrupt devices.
        let mut bad_data = Vec::new();
        for i in 0..self.k {
            let range = self.data_device_range(data.len(), i);
            let pad = d - range.len();
            if crc32_zero_padded(&data[range], pad) != stored_crc(i) {
                bad_data.push(i);
            }
        }
        let mut bad_parity = Vec::new();
        let mut good_parity = Vec::new();
        for j in 0..self.m {
            if crc32(&parity_devs[j * d..(j + 1) * d]) != stored_crc(self.k + j) {
                bad_parity.push(j);
            } else {
                good_parity.push(j);
            }
        }
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
        let recovered = self.solve_erasures(data, parity_devs, d, &bad_data, &good_parity)?;
        for (slot, &i) in bad_data.iter().enumerate() {
            let range = self.data_device_range(data.len(), i);
            let len = range.len();
            data[range.clone()].copy_from_slice(&recovered[slot][..len]);
            let c = crc32_zero_padded(&data[range], d - len);
            crc_table[i * CRC_LEN..(i + 1) * CRC_LEN].copy_from_slice(&c.to_le_bytes());
            report.corrected_devices += 1;
        }
        for &j in &bad_parity {
            let dev = &mut parity_devs[j * d..(j + 1) * d];
            dev.fill(0);
            self.accumulate_row(j, data, &[], dev);
            let c = crc32(dev);
            let idx = self.k + j;
            crc_table[idx * CRC_LEN..(idx + 1) * CRC_LEN].copy_from_slice(&c.to_le_bytes());
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
        let tail = rs.data_device_range(data.len(), 4);
        let tail_start = tail.start;
        for b in &mut bad[tail_start..data.len()] {
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

    #[test]
    fn parity_len_accounts_for_crc_table() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let len = rs.parity_len(100);
        assert_eq!(len, 2 * 25 + 6 * 4);
    }
}
