//! Encoding optimization: pick the ECC configuration and thread count that
//! best satisfy the user's constraints (§5.1, Figures 11–12).
//!
//! Selection follows the paper's stated policy:
//!
//! 1. the resiliency constraint filters the configuration space;
//! 2. among admitted configurations, prefer those whose storage overhead is
//!    *under but closest to* the memory constraint and whose measured
//!    throughput is *above but closest to* the throughput constraint;
//! 3. when nothing satisfies both, fall back to the configuration closest
//!    to the memory budget (possibly over it — a warning is attached, as
//!    ARC "display\[s\] a warning and use\[s\] the … configuration that results
//!    in the lowest memory overhead possible");
//! 4. with no constraints at all, ARC "provide\[s\] the most robust ECC
//!    configuration" — the strongest (highest-overhead) admitted one.

use arc_ecc::{EccConfig, EccScheme};

use crate::constraints::{
    EncodeRequest, MemoryConstraint, ResiliencyConstraint, ThroughputConstraint,
};
use crate::error::ArcError;
use crate::training::TrainingTable;

/// The optimizer's decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Chosen ECC configuration.
    pub config: EccConfig,
    /// Thread count to run it at.
    pub threads: usize,
    /// Predicted encode throughput (from training) in MB/s.
    pub predicted_encode_mb_s: f64,
    /// Predicted decode throughput in MB/s.
    pub predicted_decode_mb_s: f64,
    /// Asymptotic storage overhead of the configuration.
    pub overhead: f64,
    /// True when the selection exceeds the memory budget.
    pub over_budget: bool,
    /// True when the selection cannot reach the throughput floor.
    pub under_throughput: bool,
    /// Human-readable notes (the paper's "warnings").
    pub notes: Vec<String>,
}

/// A candidate with its best thread choice resolved.
#[derive(Debug, Clone)]
struct Candidate {
    config: EccConfig,
    overhead: f64,
    threads: usize,
    encode_mb_s: f64,
    decode_mb_s: f64,
    meets_bw: bool,
}

/// Resolve the thread choice for one configuration: the *fewest* threads
/// whose measured throughput clears the floor (fewer threads reduce ARC's
/// impact on contended nodes, §6.2); with no floor, the fastest measured
/// point is used.
fn resolve_threads(
    table: &TrainingTable,
    config: &EccConfig,
    max_threads: usize,
    bw: &ThroughputConstraint,
) -> Option<(usize, f64, f64, bool)> {
    let mut points: Vec<(usize, f64, f64)> = table
        .thread_counts(config)
        .into_iter()
        .filter(|&t| t <= max_threads)
        .filter_map(|t| table.get(config, t).map(|m| (t, m.encode_mb_s, m.decode_mb_s)))
        .collect();
    if points.is_empty() {
        return None;
    }
    points.sort_by_key(|&(t, _, _)| t);
    match bw {
        ThroughputConstraint::Any => {
            // No floor: take the fastest measured point.
            let best = points.iter().cloned().max_by(|a, b| a.1.total_cmp(&b.1))?;
            Some((best.0, best.1, best.2, true))
        }
        ThroughputConstraint::MbPerS(floor) => {
            if let Some(&(t, e, d)) = points.iter().find(|&&(_, e, _)| e >= *floor) {
                Some((t, e, d, true))
            } else {
                let best = points.iter().cloned().max_by(|a, b| a.1.total_cmp(&b.1))?;
                Some((best.0, best.1, best.2, false))
            }
        }
    }
}

/// The joint optimizer (`arc_joint_optimizer()`); the memory-only and
/// throughput-only entry points below delegate here.
pub fn joint_optimizer(
    table: &TrainingTable,
    space: &[EccConfig],
    request: &EncodeRequest,
    max_threads: usize,
) -> Result<Selection, ArcError> {
    joint_optimizer_with(table, space, request, max_threads, |_| true)
}

/// [`joint_optimizer`] with an additional *custom constraint*: an arbitrary
/// predicate over candidate configurations, applied after the standard
/// resiliency filter. This is the "custom constraints" half of the paper's
/// future-work extension API (§7) — e.g. "only configurations whose parity
/// fits my burst-buffer stripe" becomes a closure.
pub fn joint_optimizer_with(
    table: &TrainingTable,
    space: &[EccConfig],
    request: &EncodeRequest,
    max_threads: usize,
    custom: impl Fn(&EccConfig) -> bool,
) -> Result<Selection, ArcError> {
    request.validate().map_err(ArcError::InvalidRequest)?;
    let mut admitted = request.resiliency.filter(space);
    admitted.retain(|c| custom(c));
    if admitted.is_empty() {
        return Err(ArcError::NoCandidates(format!(
            "resiliency constraint {:?} admits no configuration",
            request.resiliency
        )));
    }
    let mut candidates: Vec<Candidate> = Vec::new();
    for config in &admitted {
        if let Some((threads, enc, dec, meets_bw)) =
            resolve_threads(table, config, max_threads, &request.throughput)
        {
            candidates.push(Candidate {
                config: *config,
                overhead: config.storage_overhead(),
                threads,
                encode_mb_s: enc,
                decode_mb_s: dec,
                meets_bw,
            });
        }
    }
    if candidates.is_empty() {
        return Err(ArcError::NotTrained);
    }
    let mut notes = Vec::new();
    let chosen: Candidate = match (&request.memory, &request.throughput) {
        (MemoryConstraint::Fraction(f), _) => {
            let in_budget: Vec<&Candidate> =
                candidates.iter().filter(|c| c.overhead <= *f).collect();
            let feasible: Vec<&Candidate> =
                in_budget.iter().copied().filter(|c| c.meets_bw).collect();
            if let Some(best) = feasible.iter().max_by(|a, b| a.overhead.total_cmp(&b.overhead)) {
                (*best).clone()
            } else if let Some(best) =
                in_budget.iter().max_by(|a, b| a.encode_mb_s.total_cmp(&b.encode_mb_s))
            {
                notes.push(format!(
                    "no in-budget configuration reaches the throughput floor; \
                     using {} at {:.2} MB/s",
                    best.config, best.encode_mb_s
                ));
                (*best).clone()
            } else if let Some(best) = candidates
                .iter()
                .min_by(|a, b| (a.overhead - f).abs().total_cmp(&(b.overhead - f).abs()))
            {
                // Nothing fits the budget at all: closest overhead wins and
                // a warning is attached (Fig 12a's RS-at-0.05 case).
                notes.push(format!(
                    "memory constraint {f} is below every admitted configuration; \
                     going over budget with {} ({:.3})",
                    best.config, best.overhead
                ));
                best.clone()
            } else {
                // Unreachable (candidates is non-empty above), but the
                // optimizer must degrade, never abort.
                return Err(ArcError::NotTrained);
            }
        }
        (MemoryConstraint::Any, ThroughputConstraint::MbPerS(floor)) => {
            let feasible: Vec<&Candidate> = candidates.iter().filter(|c| c.meets_bw).collect();
            if let Some(best) = feasible
                .iter()
                .min_by(|a, b| (a.encode_mb_s - floor).total_cmp(&(b.encode_mb_s - floor)))
            {
                // Above but closest to the floor — the strongest protection
                // that still keeps pace (Fig 11b).
                (*best).clone()
            } else if let Some(best) =
                candidates.iter().max_by(|a, b| a.encode_mb_s.total_cmp(&b.encode_mb_s))
            {
                notes.push(format!(
                    "no admitted configuration reaches {floor} MB/s; \
                     best effort is {} at {:.2} MB/s",
                    best.config, best.encode_mb_s
                ));
                best.clone()
            } else {
                // Unreachable (candidates is non-empty above), but the
                // optimizer must degrade, never abort.
                return Err(ArcError::NotTrained);
            }
        }
        (MemoryConstraint::Any, ThroughputConstraint::Any) => {
            match &request.resiliency {
                // A concrete error-rate requirement: every admitted
                // configuration already provides adequate protection. At
                // low rates the paper prefers SEC-DED over Reed-Solomon
                // (§6.3: 1 error/MB selects "SEC-DED to every eight
                // bytes"), so take the fastest SEC-DED when one is
                // admitted, otherwise the fastest Reed-Solomon.
                ResiliencyConstraint::ErrorsPerMb(r) if *r > 0.0 => {
                    let fastest = |m: arc_ecc::EccMethod| {
                        candidates
                            .iter()
                            .filter(|c| c.config.method() == m)
                            .max_by(|a, b| a.encode_mb_s.total_cmp(&b.encode_mb_s))
                    };
                    // A custom constraint can admit neither SEC-DED nor
                    // Reed-Solomon; fall back to the most robust candidate
                    // rather than aborting the selection.
                    match fastest(arc_ecc::EccMethod::SecDed)
                        .or_else(|| fastest(arc_ecc::EccMethod::Rs))
                        .or_else(|| {
                            candidates.iter().max_by(|a, b| a.overhead.total_cmp(&b.overhead))
                        }) {
                        Some(best) => best.clone(),
                        None => return Err(ArcError::NotTrained),
                    }
                }
                // Otherwise: the most robust admitted configuration
                // (Algorithm 1's ARC_ANY_* defaults "provide the most
                // robust ECC configuration").
                _ => match candidates.iter().max_by(|a, b| a.overhead.total_cmp(&b.overhead)) {
                    Some(best) => best.clone(),
                    None => return Err(ArcError::NotTrained),
                },
            }
        }
    };
    let over_budget = match request.memory {
        MemoryConstraint::Fraction(f) => chosen.overhead > f,
        MemoryConstraint::Any => false,
    };
    let under_throughput = match request.throughput {
        ThroughputConstraint::MbPerS(floor) => chosen.encode_mb_s < floor,
        ThroughputConstraint::Any => false,
    };
    Ok(Selection {
        config: chosen.config,
        threads: chosen.threads,
        predicted_encode_mb_s: chosen.encode_mb_s,
        predicted_decode_mb_s: chosen.decode_mb_s,
        overhead: chosen.overhead,
        over_budget,
        under_throughput,
        notes,
    })
}

/// `arc_memory_optimizer()`: memory + resiliency constraints only.
pub fn memory_optimizer(
    table: &TrainingTable,
    space: &[EccConfig],
    resiliency: &ResiliencyConstraint,
    memory: MemoryConstraint,
    max_threads: usize,
) -> Result<Selection, ArcError> {
    joint_optimizer(
        table,
        space,
        &EncodeRequest {
            memory,
            throughput: ThroughputConstraint::Any,
            resiliency: resiliency.clone(),
        },
        max_threads,
    )
}

/// `arc_throughput_optimizer()`: throughput + resiliency constraints only.
pub fn throughput_optimizer(
    table: &TrainingTable,
    space: &[EccConfig],
    resiliency: &ResiliencyConstraint,
    throughput: ThroughputConstraint,
    max_threads: usize,
) -> Result<Selection, ArcError> {
    joint_optimizer(
        table,
        space,
        &EncodeRequest {
            memory: MemoryConstraint::Any,
            throughput,
            resiliency: resiliency.clone(),
        },
        max_threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use arc_ecc::EccMethod;

    /// A synthetic training table with paper-like throughput ordering:
    /// parity ≫ hamming > secded ≫ rs, all scaling with threads.
    fn synthetic_table(space: &[EccConfig], max_threads: usize) -> TrainingTable {
        let mut table = TrainingTable::new();
        for cfg in space {
            let base = match cfg {
                EccConfig::Parity(_) => 200.0,
                EccConfig::Hamming(_) => 12.0,
                EccConfig::SecDed(_) => 9.0,
                EccConfig::Rs(rs) => 40.0 / rs.m as f64,
            };
            for &t in &crate::training::thread_ladder(max_threads) {
                let speedup = t as f64 * 0.9;
                table.record(cfg, t, base * speedup, base * speedup * 1.5);
            }
        }
        table
    }

    fn space() -> Vec<EccConfig> {
        EccConfig::standard_space()
    }

    #[test]
    fn memory_constraint_fills_budget_from_below() {
        let space = space();
        let table = synthetic_table(&space, 40);
        for target in [0.05, 0.2, 0.5, 0.9] {
            let sel = memory_optimizer(
                &table,
                &space,
                &ResiliencyConstraint::Any,
                MemoryConstraint::Fraction(target),
                40,
            )
            .unwrap();
            assert!(sel.overhead <= target, "target {target}: overhead {}", sel.overhead);
            assert!(!sel.over_budget);
            // Best fill: no admitted config fits better.
            for c in &space {
                let o = c.storage_overhead();
                assert!(o > target || o <= sel.overhead, "{c} fits better");
            }
        }
    }

    #[test]
    fn paper_fig11a_case_02_selects_rs_near_195() {
        // Memory constraint 0.2 → an RS configuration near 19.5% overhead.
        let space = space();
        let table = synthetic_table(&space, 40);
        let sel = memory_optimizer(
            &table,
            &space,
            &ResiliencyConstraint::Any,
            MemoryConstraint::Fraction(0.2),
            40,
        )
        .unwrap();
        assert_eq!(sel.config.method(), EccMethod::Rs);
        assert!((0.15..=0.2).contains(&sel.overhead), "overhead {}", sel.overhead);
    }

    #[test]
    fn throughput_constraint_picks_above_but_closest() {
        let space = space();
        let table = synthetic_table(&space, 40);
        let sel = throughput_optimizer(
            &table,
            &space,
            &ResiliencyConstraint::Any,
            ThroughputConstraint::MbPerS(50.0),
            40,
        )
        .unwrap();
        assert!(sel.predicted_encode_mb_s >= 50.0);
        assert!(!sel.under_throughput);
        // It should not have picked something wildly faster than needed.
        assert!(sel.predicted_encode_mb_s < 500.0, "{}", sel.predicted_encode_mb_s);
    }

    #[test]
    fn joint_conflict_prefers_meeting_throughput() {
        // Paper's §6.2 example: memory 1.0 + throughput 100 MB/s → RS fits
        // the budget but cannot keep pace, so SEC-DED (or faster) wins.
        let space = space();
        let table = synthetic_table(&space, 40);
        let sel = joint_optimizer(
            &table,
            &space,
            &EncodeRequest {
                memory: MemoryConstraint::Fraction(1.0),
                throughput: ThroughputConstraint::MbPerS(100.0),
                resiliency: ResiliencyConstraint::Any,
            },
            40,
        )
        .unwrap();
        assert_ne!(sel.config.method(), EccMethod::Rs);
        assert!(sel.predicted_encode_mb_s >= 100.0);
    }

    #[test]
    fn impossible_memory_budget_goes_over_with_warning() {
        // Fig 12a: RS-only with a 0.05 budget cannot fit (smallest RS point
        // here is ~1%) — wait, the standard space includes 1% RS, so force
        // the conflict with a stronger response constraint and tiny budget.
        let space = space();
        let table = synthetic_table(&space, 40);
        let sel = joint_optimizer(
            &table,
            &space,
            &EncodeRequest {
                memory: MemoryConstraint::Fraction(0.001),
                throughput: ThroughputConstraint::Any,
                resiliency: ResiliencyConstraint::Methods(vec![EccMethod::Rs]),
            },
            40,
        )
        .unwrap();
        assert!(sel.over_budget);
        assert!(!sel.notes.is_empty());
        assert_eq!(sel.config.method(), EccMethod::Rs);
        // Lowest possible overhead was chosen.
        let min_rs = space
            .iter()
            .filter(|c| c.method() == EccMethod::Rs)
            .map(|c| c.storage_overhead())
            .fold(f64::INFINITY, f64::min);
        assert!((sel.overhead - min_rs).abs() < 1e-12);
    }

    #[test]
    fn unconstrained_request_picks_most_robust() {
        let space = space();
        let table = synthetic_table(&space, 40);
        let sel = joint_optimizer(&table, &space, &EncodeRequest::default(), 40).unwrap();
        assert_eq!(sel.config.method(), EccMethod::Rs);
        let max_overhead = space.iter().map(|c| c.storage_overhead()).fold(0.0f64, f64::max);
        assert!((sel.overhead - max_overhead).abs() < 1e-12);
    }

    #[test]
    fn fewest_threads_meeting_floor_are_used() {
        let space = vec![EccConfig::secded(true)];
        let table = synthetic_table(&space, 40);
        // secded base 9.0: 1 thread = 8.1 MB/s, 2 = 16.2, 4 = 32.4 …
        let sel = throughput_optimizer(
            &table,
            &space,
            &ResiliencyConstraint::Any,
            ThroughputConstraint::MbPerS(30.0),
            40,
        )
        .unwrap();
        assert_eq!(sel.threads, 4, "picked {} threads", sel.threads);
    }

    #[test]
    fn resiliency_constraint_is_hard() {
        let space = space();
        let table = synthetic_table(&space, 40);
        let sel = joint_optimizer(
            &table,
            &space,
            &EncodeRequest {
                memory: MemoryConstraint::Fraction(0.9),
                throughput: ThroughputConstraint::Any,
                resiliency: ResiliencyConstraint::Methods(vec![EccMethod::Parity]),
            },
            40,
        )
        .unwrap();
        assert_eq!(sel.config.method(), EccMethod::Parity);
    }

    #[test]
    fn errors_per_mb_unconstrained_selects_fast_adequate_scheme() {
        // §6.3: a 1-error-per-MB constraint with no storage/throughput
        // limits selects SEC-DED (fast, adequate), not maximal RS.
        let space = space();
        let table = synthetic_table(&space, 40);
        let sel = joint_optimizer(
            &table,
            &space,
            &EncodeRequest {
                memory: MemoryConstraint::Any,
                throughput: ThroughputConstraint::Any,
                resiliency: ResiliencyConstraint::ErrorsPerMb(1.0),
            },
            40,
        )
        .unwrap();
        assert_eq!(sel.config.method(), EccMethod::SecDed, "picked {}", sel.config);
    }

    #[test]
    fn empty_table_errors() {
        let space = space();
        let table = TrainingTable::new();
        assert!(matches!(
            joint_optimizer(&table, &space, &EncodeRequest::default(), 4),
            Err(ArcError::NotTrained)
        ));
    }

    #[test]
    fn unsatisfiable_resiliency_errors() {
        let space = vec![EccConfig::parity(8).unwrap()];
        let table = synthetic_table(&space, 4);
        let err = joint_optimizer(
            &table,
            &space,
            &EncodeRequest {
                memory: MemoryConstraint::Any,
                throughput: ThroughputConstraint::Any,
                resiliency: ResiliencyConstraint::ErrorsPerMb(1.0),
            },
            4,
        )
        .unwrap_err();
        assert!(matches!(err, ArcError::NoCandidates(_)));
    }

    #[test]
    fn max_threads_caps_thread_choice() {
        let space = vec![EccConfig::hamming(true)];
        let table = synthetic_table(&space, 40);
        let sel = throughput_optimizer(
            &table,
            &space,
            &ResiliencyConstraint::Any,
            ThroughputConstraint::MbPerS(1e6),
            8,
        )
        .unwrap();
        assert!(sel.threads <= 8);
        assert!(sel.under_throughput);
    }
}
