//! §6.3: ARC's resiliency evaluation — protect each dataset's compressed
//! stream with a 1-error-per-MB resiliency constraint and rerun the fault
//! injection study through ARC.
//!
//! Paper findings: ARC selects SEC-DED over every eight bytes and corrects
//! **all** injected single-bit errors; raising the memory budget upgrades
//! the Reed-Solomon option from ~15 code devices (0.2) to ~103 (0.9) for
//! multi-bit/burst protection.

use arc_bench::{compress_field, dataset_at, print_table, RunScale};
use arc_core::{
    ArcContext, ArcOptions, EncodeRequest, MemoryConstraint, ResiliencyConstraint,
    ThroughputConstraint, TrainingOptions,
};
use arc_datasets::SdrDataset;
use arc_ecc::{EccConfig, EccMethod};
use arc_faultsim::{run_trials, sample_bits, FaultEvent, ReturnStatus};
use arc_pressio::CompressorSpec;

fn main() {
    let scale = RunScale::from_env();
    let trials = scale.trials(150, 600, 3000);
    // Trained in-process at this run's scale: a cached table could hold
    // points measured at another scale's probe sizes.
    let ctx = ArcContext::init(ArcOptions {
        cache_path: None,
        training: TrainingOptions {
            sample_bytes: scale.trials(128 << 10, 1 << 20, 4 << 20),
            rs_sample_bytes: scale.trials(64 << 10, 512 << 10, 1 << 20),
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("arc_init");
    println!("training: {:.1} s", ctx.training_stats().seconds);
    let req = EncodeRequest {
        memory: MemoryConstraint::Any,
        throughput: ThroughputConstraint::Any,
        resiliency: ResiliencyConstraint::ErrorsPerMb(1.0),
    };
    let mut rows = Vec::new();
    for ds in SdrDataset::ALL {
        let field = dataset_at(scale, ds);
        let stream = compress_field(CompressorSpec::SzAbs(0.1), &field).expect("compress");
        let (protected, sel) = ctx.encode(&stream, &req).expect("arc_encode");
        let flips: Vec<Vec<FaultEvent>> = sample_bits(protected.len() as u64 * 8, trials, 0x63)
            .into_iter()
            .map(|bit| vec![FaultEvent::SingleBit { bit }])
            .collect();
        // Exact bytes back is *corrected*, other bytes back is *silent*;
        // every other class is a detected loss.
        let results = run_trials(&protected, &flips, ctx.max_threads(), |b| {
            ctx.decode(b)
                .map(|(data, _)| data == stream)
                .map_err(|_| ReturnStatus::CompressorException)
        });
        let corrected = results.iter().filter(|r| r.1 == Some(true)).count();
        let silent = results.iter().filter(|r| r.1 == Some(false)).count();
        let detected = trials - corrected - silent;
        rows.push(vec![
            ds.name().to_string(),
            sel.config.to_string(),
            trials.to_string(),
            format!("{:.2}%", 100.0 * corrected as f64 / trials as f64),
            format!("{:.2}%", 100.0 * detected as f64 / trials as f64),
            format!("{:.2}%", 100.0 * silent as f64 / trials as f64),
        ]);
    }
    print_table(
        "Sec 6.3: single-bit fault injection through ARC (1 error/MB constraint)",
        &[
            "dataset",
            "ARC chose",
            "trials",
            "corrected",
            "detected-uncorrectable",
            "silent corruption",
        ],
        &rows,
    );
    println!("paper: ARC corrects 100% of injected single-bit errors (SEC-DED per 8 bytes).");

    // Multi-bit protection scales with the memory budget (ARC_RS cases).
    let mut rows = Vec::new();
    for budget in [0.2, 0.9] {
        let sel = ctx
            .select(&EncodeRequest {
                memory: MemoryConstraint::Fraction(budget),
                throughput: ThroughputConstraint::Any,
                resiliency: ResiliencyConstraint::Methods(vec![EccMethod::Rs]),
            })
            .expect("selection");
        let (k, m) = match sel.config {
            EccConfig::Rs(rs) => (rs.k, rs.m),
            _ => unreachable!("RS forced"),
        };
        rows.push(vec![
            format!("{budget}"),
            format!("RS(k={k}, m={m})"),
            m.to_string(),
            format!("{:.1}%", sel.overhead * 100.0),
        ]);
    }
    print_table(
        "Sec 6.3: ARC_RS memory budget vs code devices (paper: 15 @0.2 → 103 @0.9)",
        &["memory constraint", "configuration", "code devices", "overhead"],
        &rows,
    );
    ctx.close().expect("arc_close");
}
