//! The ECC configuration space ARC selects from.
//!
//! ARC's training phase (§5.1) measures every configuration of every ECC
//! method at every thread count; its optimizers then pick the configuration
//! whose storage overhead and throughput best satisfy the user's constraints.
//! [`EccConfig`] is the serializable description of one such configuration,
//! and [`EccConfig::standard_space`] enumerates the grid ARC trains by
//! default.

use crate::codec::{Capability, CorrectionReport, EccError, EccScheme};
use crate::hamming::{BlockWidth, Hamming, SecDed};
use crate::parity::Parity;
use crate::rs::{ReedSolomon, MAX_DEVICES};

/// One concrete, validated ECC configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EccConfig {
    /// Even parity with the given number of data bytes per parity bit.
    Parity(Parity),
    /// Hamming SEC over 8- or 64-bit blocks.
    Hamming(Hamming),
    /// SEC-DED over 8- or 64-bit blocks.
    SecDed(SecDed),
    /// Reed-Solomon with `k` data devices and `m` code devices.
    Rs(ReedSolomon),
}

/// The four ECC method families, mirroring ARC's `ARC_PARITY`,
/// `ARC_HAMMING`, `ARC_SECDED`, and `ARC_RS` flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EccMethod {
    /// Single-bit even parity (detection only).
    Parity,
    /// Hamming single-error correction.
    Hamming,
    /// SEC-DED single-correct / double-detect.
    SecDed,
    /// Reed-Solomon multi-device correction.
    Rs,
}

impl EccMethod {
    /// All four methods in ascending protection order.
    pub const ALL: [EccMethod; 4] =
        [EccMethod::Parity, EccMethod::Hamming, EccMethod::SecDed, EccMethod::Rs];

    /// Stable name used in cache files and reports.
    pub fn name(self) -> &'static str {
        match self {
            EccMethod::Parity => "parity",
            EccMethod::Hamming => "hamming",
            EccMethod::SecDed => "secded",
            EccMethod::Rs => "rs",
        }
    }
}

impl EccConfig {
    /// Parity configuration helper.
    pub fn parity(bytes_per_parity_bit: usize) -> Result<EccConfig, EccError> {
        Ok(EccConfig::Parity(Parity::new(bytes_per_parity_bit)?))
    }

    /// Hamming configuration helper (`wide = true` → 64-bit blocks).
    pub fn hamming(wide: bool) -> EccConfig {
        EccConfig::Hamming(if wide { Hamming::w64() } else { Hamming::w8() })
    }

    /// SEC-DED configuration helper (`wide = true` → 64-bit blocks).
    pub fn secded(wide: bool) -> EccConfig {
        EccConfig::SecDed(if wide { SecDed::w64() } else { SecDed::w8() })
    }

    /// Reed-Solomon configuration helper.
    pub fn rs(k: usize, m: usize) -> Result<EccConfig, EccError> {
        Ok(EccConfig::Rs(ReedSolomon::new(k, m)?))
    }

    /// Which method family this configuration belongs to.
    pub fn method(&self) -> EccMethod {
        match self {
            EccConfig::Parity(_) => EccMethod::Parity,
            EccConfig::Hamming(_) => EccMethod::Hamming,
            EccConfig::SecDed(_) => EccMethod::SecDed,
            EccConfig::Rs(_) => EccMethod::Rs,
        }
    }

    fn as_scheme(&self) -> &dyn EccScheme {
        match self {
            EccConfig::Parity(s) => s,
            EccConfig::Hamming(s) => s,
            EccConfig::SecDed(s) => s,
            EccConfig::Rs(s) => s,
        }
    }

    /// Stable textual identifier, e.g. `parity:8`, `hamming:64`, `rs:213:42`.
    /// Round-trips through [`EccConfig::parse_id`]; used by the training
    /// cache.
    pub fn id(&self) -> String {
        match self {
            EccConfig::Parity(p) => format!("parity:{}", p.bytes_per_parity_bit),
            EccConfig::Hamming(h) => format!("hamming:{}", h.width.data_bits()),
            EccConfig::SecDed(s) => format!("secded:{}", s.width.data_bits()),
            EccConfig::Rs(r) => format!("rs:{}:{}", r.k, r.m),
        }
    }

    /// Parse an identifier produced by [`EccConfig::id`].
    pub fn parse_id(id: &str) -> Result<EccConfig, EccError> {
        let mut parts = id.split(':');
        let kind = parts.next().unwrap_or("");
        let bad = |d: &str| EccError::InvalidConfig(format!("cannot parse ECC id {id:?}: {d}"));
        let num = |p: Option<&str>, what: &str| -> Result<usize, EccError> {
            p.ok_or_else(|| bad(&format!("missing {what}")))?
                .parse::<usize>()
                .map_err(|_| bad(&format!("bad {what}")))
        };
        let cfg = match kind {
            "parity" => EccConfig::parity(num(parts.next(), "block size")?)?,
            "hamming" | "secded" => {
                let width = match num(parts.next(), "width")? {
                    8 => BlockWidth::W8,
                    64 => BlockWidth::W64,
                    w => return Err(bad(&format!("unsupported width {w}"))),
                };
                if kind == "hamming" {
                    EccConfig::Hamming(Hamming { width })
                } else {
                    EccConfig::SecDed(SecDed { width })
                }
            }
            "rs" => {
                let k = num(parts.next(), "k")?;
                let m = num(parts.next(), "m")?;
                EccConfig::rs(k, m)?
            }
            _ => return Err(bad("unknown method")),
        };
        if parts.next().is_some() {
            return Err(bad("trailing fields"));
        }
        Ok(cfg)
    }

    /// The default configuration grid ARC trains (§5.1): eight parity block
    /// sizes, both Hamming widths, both SEC-DED widths, and Reed-Solomon
    /// points with `k + m = 255` covering storage overheads from ~1% to 100%.
    pub fn standard_space() -> Vec<EccConfig> {
        let mut out = Vec::new();
        for b in [1usize, 2, 4, 8, 16, 32, 64, 128] {
            if let Ok(cfg) = EccConfig::parity(b) {
                out.push(cfg);
            }
        }
        out.push(EccConfig::hamming(false));
        out.push(EccConfig::hamming(true));
        out.push(EccConfig::secded(false));
        out.push(EccConfig::secded(true));
        // m = round(255·o / (1+o)) for a ladder of overhead targets o.
        let targets = [
            0.01, 0.02, 0.05, 0.08, 0.10, 0.125, 0.15, 0.175, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45,
            0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00,
        ];
        let mut last_m = 0usize;
        for o in targets {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "o <= 1, so the rounded value is in 0..=MAX_DEVICES / 2"
            )]
            let m = ((MAX_DEVICES as f64 * o) / (1.0 + o)).round() as usize;
            let m = m.clamp(1, MAX_DEVICES - 1);
            if m == last_m {
                continue;
            }
            last_m = m;
            if let Ok(cfg) = EccConfig::rs(MAX_DEVICES - m, m) {
                out.push(cfg);
            }
        }
        out
    }
}

impl EccScheme for EccConfig {
    fn name(&self) -> &'static str {
        self.as_scheme().name()
    }

    fn parity_len(&self, data_len: usize) -> usize {
        self.as_scheme().parity_len(data_len)
    }

    fn storage_overhead(&self) -> f64 {
        self.as_scheme().storage_overhead()
    }

    fn encode_parity_into(&self, data: &[u8], parity: &mut [u8]) {
        self.as_scheme().encode_parity_into(data, parity)
    }

    fn verify_and_correct(
        &self,
        data: &mut [u8],
        parity: &mut [u8],
    ) -> Result<CorrectionReport, EccError> {
        self.as_scheme().verify_and_correct(data, parity)
    }

    fn data_crc(&self, data_len: usize, parity: &[u8]) -> Option<u32> {
        self.as_scheme().data_crc(data_len, parity)
    }

    fn capability(&self) -> Capability {
        self.as_scheme().capability()
    }

    fn min_bytes_per_thread(&self) -> usize {
        self.as_scheme().min_bytes_per_thread()
    }
}

impl std::fmt::Display for EccConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_round_trips_for_whole_space() {
        for cfg in EccConfig::standard_space() {
            let id = cfg.id();
            let parsed = EccConfig::parse_id(&id).unwrap();
            assert_eq!(parsed, cfg, "{id}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "foo:1",
            "parity",
            "parity:0",
            "parity:x",
            "hamming:12",
            "rs:0:4",
            "rs:4",
            "parity:8:9",
            "rs:300:10",
        ] {
            assert!(EccConfig::parse_id(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn standard_space_covers_wide_overhead_range() {
        let space = EccConfig::standard_space();
        assert!(space.len() >= 30, "only {} configs", space.len());
        let overheads: Vec<f64> = space.iter().map(|c| c.storage_overhead()).collect();
        let min = overheads.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = overheads.iter().cloned().fold(0.0, f64::max);
        assert!(min < 0.01, "min overhead {min}");
        assert!(max >= 0.9, "max overhead {max}");
        // Every method family represented.
        for m in EccMethod::ALL {
            assert!(space.iter().any(|c| c.method() == m), "{:?} missing", m);
        }
        // `MemoryConstraint::Fraction(f)` admits a scheme by
        // `storage_overhead() <= f`, so the advertised figure must bound what
        // a default chunk pays. Worst of the 37 when the 1.10 was set:
        // `rs:252:3`, +8.2 %.
        let chunk = crate::parallel::DEFAULT_CHUNK_SIZE;
        for c in &space {
            let paid = c.parity_len(chunk) as f64 / chunk as f64;
            assert!(paid <= 1.10 * c.storage_overhead(), "{c}: pays {paid}");
        }
    }

    #[test]
    fn config_delegates_scheme_behaviour() {
        let cfg = EccConfig::secded(true);
        let data = vec![0x42u8; 256];
        let enc = cfg.encode(&data);
        let (out, report) = cfg.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
        assert!(report.is_clean());
        assert_eq!(cfg.name(), "secded");
        assert_eq!(cfg.method(), EccMethod::SecDed);
    }

    #[test]
    fn rs_configs_in_space_sum_to_255() {
        for cfg in EccConfig::standard_space() {
            if let EccConfig::Rs(rs) = cfg {
                assert_eq!(rs.k + rs.m, MAX_DEVICES);
            }
        }
    }
}
