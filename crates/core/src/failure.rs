//! System failure models for constraint selection (§6.4).
//!
//! The paper derives ARC constraints from Sridharan et al.'s field studies
//! of two decommissioned DOE machines: Cielo (8,500 nodes at 7,300 ft in
//! Los Alamos) and Hopper (6,000 nodes at 43 ft in Oakland). From their
//! per-device DRAM failure rates the paper computes a mean time between
//! soft-error failures of **1.9 days** for Cielo and **5.43 days** for
//! Hopper, attributes the ~2× difference primarily to altitude, and uses
//! the fault-type mix (single-bit vs multi-bit/burst) to recommend ECC.

use crate::constraints::{ErrorResponse, ResiliencyConstraint};

/// A machine's failure profile.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemProfile {
    /// Machine name.
    pub name: &'static str,
    /// Compute node count.
    pub nodes: u64,
    /// Elevation in feet (the paper's causal variable for the rate gap).
    pub elevation_ft: f64,
    /// Faults per node per day attributable to DRAM.
    pub faults_per_node_day: f64,
    /// Fraction of faults that are soft errors (Cielo 34.9%, Hopper 42.1%).
    pub soft_error_fraction: f64,
    /// Fraction of all faults caused by single-bit errors
    /// (Cielo 70.79%, Hopper 94.6%).
    pub single_bit_fraction: f64,
    /// Length range in bytes (inclusive) of the multi-bit faults, which
    /// arrive as bursts: every bit of the run flips, the densely packed case.
    pub burst_bytes: (usize, usize),
    /// DRAM capacity per node in GB (for errors-per-MB estimates).
    pub memory_gb_per_node: f64,
}

impl SystemProfile {
    /// Cielo: LANL, 8,500 nodes, ~7,300 ft — the high-failure-rate machine.
    /// Calibrated so [`SystemProfile::mtbf_days`] reproduces the paper's
    /// 1.9 days.
    pub fn cielo() -> SystemProfile {
        SystemProfile {
            name: "Cielo",
            nodes: 8_500,
            elevation_ft: 7_300.0,
            faults_per_node_day: 1.0 / (1.9 * 8_500.0),
            soft_error_fraction: 0.349,
            single_bit_fraction: 0.7079,
            // §6.4: "most [multi-bit errors] occur as burst errors in the
            // same DRAM device" — runs of up to one device's worth of bytes.
            burst_bytes: (2, 512),
            memory_gb_per_node: 32.0,
        }
    }

    /// Hopper: NERSC Oakland, 6,000 nodes, 43 ft — roughly half Cielo's
    /// failure rate; single-bit flips dominate (94.6%).
    pub fn hopper() -> SystemProfile {
        SystemProfile {
            name: "Hopper",
            nodes: 6_000,
            elevation_ft: 43.0,
            faults_per_node_day: 1.0 / (5.43 * 6_000.0),
            soft_error_fraction: 0.421,
            single_bit_fraction: 0.946,
            // §6.4: only 4.05% of Hopper's multi-bit errors are bursts.
            burst_bytes: (2, 64),
            memory_gb_per_node: 32.0,
        }
    }

    /// Mean time between machine-wide soft-error failures in days.
    pub fn mtbf_days(&self) -> f64 {
        1.0 / (self.faults_per_node_day * self.nodes as f64)
    }

    /// Fraction of faults that are multi-bit.
    pub fn multi_bit_fraction(&self) -> f64 {
        1.0 - self.single_bit_fraction
    }

    /// Expected soft errors per MB of data resident in DRAM for
    /// `days_resident` days (uniform over the machine's memory).
    pub fn errors_per_mb(&self, days_resident: f64) -> f64 {
        let errors_per_node = self.faults_per_node_day * days_resident;
        errors_per_node / (self.memory_gb_per_node * 1024.0)
    }

    /// The resiliency constraint §6.4 argues for on this machine:
    /// burst-heavy profiles need Reed-Solomon (`ARC_COR_BURST`), single-bit
    /// dominated profiles are served by sparse correction
    /// (`ARC_COR_SPARSE`: Hamming / SEC-DED / RS).
    pub fn recommended_resiliency(&self) -> ResiliencyConstraint {
        if self.multi_bit_fraction() > 0.15 {
            ResiliencyConstraint::Responses(vec![ErrorResponse::CorrectBurst])
        } else {
            ResiliencyConstraint::Responses(vec![ErrorResponse::CorrectSparse])
        }
    }

    /// One-line summary in the style of the paper's §6.4 discussion.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} nodes at {:.0} ft — soft-error MTBF {:.2} days; \
             {:.1}% of faults single-bit, {:.1}% multi-bit",
            self.name,
            self.nodes,
            self.elevation_ft,
            self.mtbf_days(),
            self.single_bit_fraction * 100.0,
            self.multi_bit_fraction() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arc_ecc::EccMethod;

    #[test]
    fn cielo_mtbf_matches_paper() {
        let c = SystemProfile::cielo();
        assert!((c.mtbf_days() - 1.9).abs() < 1e-9, "{}", c.mtbf_days());
    }

    #[test]
    fn hopper_mtbf_matches_paper() {
        let h = SystemProfile::hopper();
        assert!((h.mtbf_days() - 5.43).abs() < 1e-9, "{}", h.mtbf_days());
    }

    #[test]
    fn cielo_fails_roughly_twice_as_often() {
        let c = SystemProfile::cielo();
        let h = SystemProfile::hopper();
        let ratio = c.faults_per_node_day / h.faults_per_node_day;
        assert!((1.3..3.0).contains(&ratio), "per-node rate ratio {ratio}");
        assert!(c.mtbf_days() < h.mtbf_days());
    }

    #[test]
    fn recommendations_match_section_6_4() {
        // Cielo (29.21% multi-bit, mostly bursts) → Reed-Solomon.
        let cielo = SystemProfile::cielo().recommended_resiliency();
        let space = arc_ecc::EccConfig::standard_space();
        let allowed = cielo.filter(&space);
        assert!(allowed.iter().all(|c| c.method() == EccMethod::Rs));
        // Hopper (94.6% single-bit) → sparse correction, SEC-DED suffices.
        let hopper = SystemProfile::hopper().recommended_resiliency();
        let allowed = hopper.filter(&space);
        assert!(allowed.iter().any(|c| c.method() == EccMethod::SecDed));
        assert!(allowed.iter().all(|c| c.method() != EccMethod::Parity));
    }

    #[test]
    fn errors_per_mb_scales_with_residency() {
        let c = SystemProfile::cielo();
        let short = c.errors_per_mb(1.0);
        let long = c.errors_per_mb(30.0);
        assert!(long > short);
        assert!((long / short - 30.0).abs() < 1e-9);
        assert!(short > 0.0 && short < 1.0, "per-MB rates are small: {short}");
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let s = SystemProfile::cielo().summary();
        assert!(s.contains("Cielo") && s.contains("8500"));
        assert!(s.contains("1.90"));
    }
}
