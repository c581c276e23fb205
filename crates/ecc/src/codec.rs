//! Common types shared by every ECC scheme: errors, correction reports,
//! capability descriptions, and the [`EccScheme`] trait the ARC engine
//! dispatches over.

use std::fmt;

/// Errors surfaced by ECC decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EccError {
    /// Corruption was detected but the scheme cannot repair it. The payload
    /// must not be used; ARC raises this to the caller (Figure 7b).
    Uncorrectable {
        /// Scheme that detected the damage.
        scheme: &'static str,
        /// Human-readable description of what was detected.
        detail: String,
    },
    /// The encoded buffer is structurally invalid (wrong length for the
    /// declared configuration) and cannot even be parsed.
    Malformed {
        /// What was wrong.
        detail: String,
    },
    /// The scheme configuration itself is invalid (e.g. RS with k + m > 255).
    InvalidConfig(String),
}

impl fmt::Display for EccError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EccError::Uncorrectable { scheme, detail } => {
                write!(f, "{scheme}: detected uncorrectable corruption: {detail}")
            }
            EccError::Malformed { detail } => write!(f, "malformed ECC buffer: {detail}"),
            EccError::InvalidConfig(d) => write!(f, "invalid ECC configuration: {d}"),
        }
    }
}

impl std::error::Error for EccError {}

/// What a successful `verify_and_correct` call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorrectionReport {
    /// Individual bits repaired (Hamming / SEC-DED / polynomial RS).
    pub corrected_bits: u64,
    /// Whole Reed-Solomon devices reconstructed from parity.
    pub corrected_devices: u64,
    /// Blocks/codewords that were inspected.
    pub blocks_checked: u64,
}

impl CorrectionReport {
    /// True when the buffer was already clean.
    pub fn is_clean(&self) -> bool {
        self.corrected_bits == 0 && self.corrected_devices == 0
    }

    /// Accumulate another report (used when merging per-chunk results).
    pub fn merge(&mut self, other: &CorrectionReport) {
        self.corrected_bits += other.corrected_bits;
        self.corrected_devices += other.corrected_devices;
        self.blocks_checked += other.blocks_checked;
    }
}

/// Error classes a scheme can handle, mirroring ARC's error-response flags
/// (`ARC_DET_SPARSE`, `ARC_COR_SPARSE`, `ARC_COR_BURST`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Capability {
    /// Detects sparse, uniformly distributed single-bit errors.
    pub detects_sparse: bool,
    /// Corrects sparse, uniformly distributed single-bit errors.
    pub corrects_sparse: bool,
    /// Corrects densely packed burst errors.
    pub corrects_burst: bool,
    /// Conservative estimate of the uniformly-distributed error rate
    /// (errors per MB of protected data) the scheme corrects with ≥99%
    /// confidence. Zero for detection-only schemes.
    pub correctable_per_mb: f64,
}

/// Number of bytes in 1 MB as used for the errors-per-MB resiliency model.
pub(crate) const MB: f64 = 1024.0 * 1024.0;

/// Given `codewords_per_mb` single-error-correcting codewords, the largest
/// uniform error rate (errors/MB) for which the probability of any codeword
/// receiving two errors stays below 1%.
///
/// For `e` errors thrown uniformly into `n` codewords the collision
/// probability is ≈ e(e−1)/(2n); solving for 1% gives e ≈ √(0.02·n).
pub(crate) fn single_correct_rate_per_mb(codewords_per_mb: f64) -> f64 {
    (0.02 * codewords_per_mb).sqrt().max(1.0)
}

/// Generalization of [`single_correct_rate_per_mb`] to codes correcting up
/// to `t` errors per codeword: the largest uniform error rate (errors/MB)
/// for which the probability of any of `codewords_per_mb` codewords
/// receiving `t + 1` errors stays below 1%.
///
/// For `e` errors thrown uniformly into `n` codewords the expected number
/// of overloaded codewords is ≈ n · (e/n)^(t+1) / (t+1)!; solving for 1%
/// gives e ≈ n · (0.01 · (t+1)! / n)^(1/(t+1)). At `t = 1` this reduces to
/// the √(0.02·n) of the single-correct model.
pub(crate) fn multi_correct_rate_per_mb(codewords_per_mb: f64, t: usize) -> f64 {
    if codewords_per_mb <= 0.0 || t == 0 {
        return if t == 0 { 0.0 } else { 1.0 };
    }
    let mut factorial = 1.0f64;
    for k in 2..=(t + 1) {
        factorial *= k as f64;
    }
    let n = codewords_per_mb;
    (n * (0.01 * factorial / n).powf(1.0 / (t as f64 + 1.0))).max(1.0)
}

/// The interface every ECC scheme implements. Encoded layout is always
/// `data ‖ parity`; `parity_len` is a pure function of the data length so the
/// chunk-parallel driver can compute offsets without per-chunk headers.
pub trait EccScheme: Send + Sync {
    /// Short stable identifier ("parity", "hamming", "secded", "rs").
    fn name(&self) -> &'static str;

    /// Parity bytes produced for `data_len` bytes of input.
    fn parity_len(&self, data_len: usize) -> usize;

    /// Asymptotic storage overhead (parity bytes per data byte).
    fn storage_overhead(&self) -> f64;

    /// Write the parity for `data` into the caller-provided slice — the one
    /// encode method a scheme implements.
    ///
    /// `parity` must be exactly `parity_len(data.len())` bytes and may hold
    /// arbitrary garbage on entry — implementations overwrite every byte.
    /// On any other length an implementation may leave some or all of
    /// `parity` unwritten; it never panics.
    /// This is the hot path of the zero-copy pipeline: [`crate::ParallelCodec`]
    /// carves one pre-allocated container into disjoint chunk regions and
    /// calls this method from its workers, so the built-in implementations
    /// do not allocate.
    fn encode_parity_into(&self, data: &[u8], parity: &mut [u8]);

    /// Convenience: the parity region for `data` as a fresh `Vec`
    /// ([`EccScheme::encode_parity_into`] over a zeroed allocation).
    fn encode_parity(&self, data: &[u8]) -> Vec<u8> {
        let mut parity = vec![0u8; self.parity_len(data.len())];
        self.encode_parity_into(data, &mut parity);
        parity
    }

    /// Verify `data` against `parity`, repairing both in place when possible.
    ///
    /// Returns what was repaired, or [`EccError::Uncorrectable`] when damage
    /// exceeds the scheme's correction ability (detection-only schemes return
    /// `Uncorrectable` for *any* detected damage).
    fn verify_and_correct(
        &self,
        data: &mut [u8],
        parity: &mut [u8],
    ) -> Result<CorrectionReport, EccError>;

    /// In-place form of [`EccScheme::verify_and_correct`] over one contiguous
    /// `data ‖ parity` buffer: split at `data_len`, verify, and repair both
    /// regions without copying either out.
    ///
    /// Delegates to `verify_and_correct` on the two halves of a
    /// `split_at_mut`, which is already copy-free.
    fn verify_and_correct_in_place(
        &self,
        encoded: &mut [u8],
        data_len: usize,
    ) -> Result<CorrectionReport, EccError> {
        let plen = self.parity_len(data_len);
        if encoded.len() != data_len + plen {
            return Err(EccError::Malformed {
                detail: format!(
                    "{}: encoded length {} != data {} + parity {}",
                    self.name(),
                    encoded.len(),
                    data_len,
                    plen
                ),
            });
        }
        let (data, parity) = encoded.split_at_mut_checked(data_len).unwrap_or_default();
        self.verify_and_correct(data, parity)
    }

    /// CRC-32 of the `data_len` data bytes `parity` protects, read from
    /// checksums the parity itself stores, or `None` for a scheme that stores
    /// none (the caller hashes the data itself).
    ///
    /// Only meaningful on parity that [`EccScheme::encode_parity_into`] just
    /// wrote or [`EccScheme::verify_and_correct`] just accepted — then every
    /// stored checksum matches the data, so the value equals `crc32(data)`
    /// without a pass over it ([`crate::ParallelCodec::data_crc`]). A scheme
    /// whose decoder can miscorrect must return `None`: its stored checksums
    /// would vouch for bytes it never checked.
    fn data_crc(&self, data_len: usize, parity: &[u8]) -> Option<u32> {
        let _ = (data_len, parity);
        None
    }

    /// What this scheme can detect/correct.
    fn capability(&self) -> Capability;

    /// Minimum input bytes each pool worker should receive before splitting
    /// a job across threads pays for the dispatch overhead.
    ///
    /// [`crate::parallel::ParallelCodec`] clamps its worker count to
    /// `data_len / min_bytes_per_thread()` (never below 1), so small buffers
    /// run in-line instead of *losing* throughput to thread startup — the
    /// measured regression this floor exists to prevent (DESIGN.md §13).
    /// The default suits the fast table-driven schemes (parity, Hamming,
    /// SEC-DED, BCH, >1 GB/s class); heavier schemes override it downward.
    fn min_bytes_per_thread(&self) -> usize {
        4 << 20
    }

    /// Convenience: full encode producing `data ‖ parity` in one allocation.
    fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() + self.parity_len(data.len()));
        out.extend_from_slice(data);
        out.resize(data.len() + self.parity_len(data.len()), 0);
        self.encode_parity_into(data, out.get_mut(data.len()..).unwrap_or_default());
        out
    }

    /// Convenience: copy an encoded buffer once, verify/correct it in place,
    /// and return the data region.
    ///
    /// `data_len` is the original (unencoded) length, which the caller must
    /// persist (ARC's container header does).
    fn decode(
        &self,
        encoded: &[u8],
        data_len: usize,
    ) -> Result<(Vec<u8>, CorrectionReport), EccError> {
        let mut buf = encoded.to_vec();
        let report = self.verify_and_correct_in_place(&mut buf, data_len)?;
        buf.truncate(data_len);
        Ok((buf, report))
    }
}

impl EccScheme for std::sync::Arc<dyn EccScheme> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn parity_len(&self, data_len: usize) -> usize {
        (**self).parity_len(data_len)
    }
    fn storage_overhead(&self) -> f64 {
        (**self).storage_overhead()
    }
    fn encode_parity_into(&self, data: &[u8], parity: &mut [u8]) {
        (**self).encode_parity_into(data, parity)
    }
    fn verify_and_correct(
        &self,
        data: &mut [u8],
        parity: &mut [u8],
    ) -> Result<CorrectionReport, EccError> {
        (**self).verify_and_correct(data, parity)
    }
    fn data_crc(&self, data_len: usize, parity: &[u8]) -> Option<u32> {
        (**self).data_crc(data_len, parity)
    }
    fn capability(&self) -> Capability {
        (**self).capability()
    }
    fn min_bytes_per_thread(&self) -> usize {
        (**self).min_bytes_per_thread()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_merge_accumulates() {
        let mut a =
            CorrectionReport { corrected_bits: 1, corrected_devices: 0, blocks_checked: 10 };
        let b = CorrectionReport { corrected_bits: 2, corrected_devices: 3, blocks_checked: 5 };
        a.merge(&b);
        assert_eq!(a.corrected_bits, 3);
        assert_eq!(a.corrected_devices, 3);
        assert_eq!(a.blocks_checked, 15);
        assert!(!a.is_clean());
        assert!(CorrectionReport::default().is_clean());
    }

    #[test]
    fn single_correct_rate_scales_with_sqrt() {
        let r1 = single_correct_rate_per_mb(131_072.0); // Hamming(72,64)
        let r2 = single_correct_rate_per_mb(1_048_576.0); // Hamming(12,8)
        assert!(r1 > 40.0 && r1 < 60.0, "r1={r1}");
        assert!((r2 / r1 - (8.0f64).sqrt()).abs() < 0.1);
        // Never below one error per MB.
        assert_eq!(single_correct_rate_per_mb(0.0), 1.0);
    }

    #[test]
    fn multi_correct_rate_reduces_to_single_at_t1() {
        for n in [1000.0f64, 131_072.0, 1_048_576.0] {
            let single = single_correct_rate_per_mb(n);
            let multi = multi_correct_rate_per_mb(n, 1);
            assert!((single - multi).abs() < 1e-9, "n={n}");
        }
        // Higher t always tolerates a higher rate.
        assert!(multi_correct_rate_per_mb(4096.0, 16) > multi_correct_rate_per_mb(4096.0, 2));
        assert!(multi_correct_rate_per_mb(4096.0, 2) > multi_correct_rate_per_mb(4096.0, 1));
        // Detection-only and degenerate inputs.
        assert_eq!(multi_correct_rate_per_mb(4096.0, 0), 0.0);
        assert_eq!(multi_correct_rate_per_mb(0.0, 3), 1.0);
    }

    #[test]
    fn error_display_is_informative() {
        let e = EccError::Uncorrectable { scheme: "secded", detail: "double-bit".into() };
        assert!(e.to_string().contains("secded"));
        assert!(e.to_string().contains("double-bit"));
    }
}
