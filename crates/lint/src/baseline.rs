//! The ratcheted debt baseline.
//!
//! `lint-baseline.txt` records, per rule and per file, how many violations
//! existed when the rule landed. The gate fails when any (rule, file) count
//! *exceeds* its baseline — new debt is forbidden — and when a count falls
//! *below* it (a stale entry), so paying debt down must be locked in and the
//! file can only ever shrink.
//!
//! The format is one `rule path count` line per entry:
//!
//! ```text
//! decode-no-direct-index crates/ecc/src/gf256.rs 9
//! ```
//!
//! Lines are emitted sorted by (rule, path), so regenerating the file on any
//! machine produces byte-identical output. A line that is not three fields
//! ending in an unsigned count, or that repeats an entry, is an error.

use std::collections::BTreeMap;

use crate::cone::Finding;

/// Violation counts per rule, per file. `BTreeMap` everywhere: iteration
/// order — and therefore serialized output — is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// rule key → (file path → violation count).
    pub counts: BTreeMap<String, BTreeMap<String, u64>>,
}

/// One (rule, file) pair where the actual count differs from the baseline.
#[derive(Debug, Clone)]
pub struct RatchetEntry {
    /// Rule key.
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Violations found in this run.
    pub actual: u64,
    /// Violations the baseline allows.
    pub allowed: u64,
}

/// Result of comparing a run against the committed baseline.
#[derive(Debug, Clone, Default)]
pub struct Ratchet {
    /// Pairs with more violations than the baseline allows — these fail.
    pub new: Vec<RatchetEntry>,
    /// Pairs with fewer violations than recorded — these fail too, until
    /// the baseline is regenerated to lock in the improvement.
    pub stale: Vec<RatchetEntry>,
}

impl Baseline {
    /// Aggregate findings into per-(rule, file) counts.
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut counts: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
        for f in findings {
            *counts.entry(f.rule.to_string()).or_default().entry(f.file.clone()).or_default() += 1;
        }
        Baseline { counts }
    }

    /// Total recorded violations.
    pub fn total(&self) -> u64 {
        self.counts.values().flat_map(|m| m.values()).sum()
    }

    /// Allowed count for a (rule, file) pair; zero when absent.
    pub fn allowed(&self, rule: &str, file: &str) -> u64 {
        self.counts.get(rule).and_then(|m| m.get(file)).copied().unwrap_or(0)
    }

    /// Serialize as sorted `rule path count` lines (byte-stable).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (rule, files) in &self.counts {
            for (file, count) in files {
                out.push_str(&format!("{rule} {file} {count}\n"));
            }
        }
        out
    }

    /// Parse the line format. Anything else is an error: the gate refuses to
    /// run against a baseline it cannot fully interpret.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut counts: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [rule, file, count] = fields[..] else {
                return Err(format!("line {lineno}: expected `rule path count`, found '{line}'"));
            };
            let count =
                count.parse::<u64>().map_err(|e| format!("line {lineno}: bad count: {e}"))?;
            if counts.entry(rule.into()).or_default().insert(file.into(), count).is_some() {
                return Err(format!("line {lineno}: duplicate entry {rule} {file}"));
            }
        }
        Ok(Baseline { counts })
    }

    /// Compare actual counts against this baseline's allowances.
    pub fn ratchet(&self, actual: &Baseline) -> Ratchet {
        let mut r = Ratchet::default();
        // Every (rule, file) present in either map is examined once; the
        // union keeps entries deterministic (BTreeMap order on both sides).
        let mut pairs: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
        for (rule, files) in &actual.counts {
            for (file, n) in files {
                pairs.insert((rule.clone(), file.clone()), (*n, self.allowed(rule, file)));
            }
        }
        for (rule, files) in &self.counts {
            for (file, allowed) in files {
                pairs
                    .entry((rule.clone(), file.clone()))
                    .or_insert((actual.allowed(rule, file), *allowed));
            }
        }
        for ((rule, file), (n, allowed)) in pairs {
            if n > allowed {
                r.new.push(RatchetEntry { rule, file, actual: n, allowed });
            } else if n < allowed {
                r.stale.push(RatchetEntry { rule, file, actual: n, allowed });
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &'static str, file: &str) -> Finding {
        Finding { rule, file: file.into(), line: 1, message: String::new() }
    }

    #[test]
    fn text_round_trip_is_stable() {
        let b = Baseline::from_findings(&[
            f("decode-no-panic-transitive", "crates/sz/src/lib.rs"),
            f("decode-no-panic-transitive", "crates/sz/src/lib.rs"),
            f("decode-no-direct-index", "crates/ecc/src/gf256.rs"),
        ]);
        let text = b.to_text();
        assert_eq!(
            text,
            "decode-no-direct-index crates/ecc/src/gf256.rs 1\n\
             decode-no-panic-transitive crates/sz/src/lib.rs 2\n"
        );
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.to_text(), text, "serialization must be byte-stable");
        assert_eq!(b.allowed("decode-no-panic-transitive", "crates/sz/src/lib.rs"), 2);
    }

    #[test]
    fn sorted_order_is_independent_of_insertion_order() {
        let a = Baseline::from_findings(&[f("z-rule", "b.rs"), f("a-rule", "a.rs")]);
        let b = Baseline::from_findings(&[f("a-rule", "a.rs"), f("z-rule", "b.rs")]);
        assert_eq!(a.to_text(), b.to_text());
        assert_eq!(a.to_text(), "a-rule a.rs 1\nz-rule b.rs 1\n");
    }

    #[test]
    fn ratchet_classifies_new_and_stale() {
        let allowed = Baseline::parse("r a.rs 2\nr gone.rs 1\n").unwrap();
        let actual = Baseline::from_findings(&[
            f("r", "a.rs"),
            f("r", "a.rs"),
            f("r", "a.rs"),
            f("r", "b.rs"),
        ]);
        let r = allowed.ratchet(&actual);
        let new: Vec<_> = r.new.iter().map(|e| e.file.as_str()).collect();
        let stale: Vec<_> = r.stale.iter().map(|e| e.file.as_str()).collect();
        assert_eq!(new, vec!["a.rs", "b.rs"]);
        assert_eq!(stale, vec!["gone.rs"]);
    }

    #[test]
    fn empty_baseline_serializes_and_parses() {
        let b = Baseline::default();
        assert_eq!(b.to_text(), "");
        assert_eq!(Baseline::parse("").unwrap(), b);
    }

    #[test]
    fn malformed_baseline_is_an_error_not_a_panic() {
        assert!(Baseline::parse("r f\n").is_err());
        assert!(Baseline::parse("r f x\n").is_err());
        assert!(Baseline::parse("r f -1\n").is_err());
        assert!(Baseline::parse("r f 1 extra\n").is_err());
        assert!(Baseline::parse("\n").is_err());
        assert!(Baseline::parse("r f 1\nr f 2\n").is_err());
    }
}
