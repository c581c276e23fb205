//! Campaign determinism: the same seed must yield an identical
//! [`CampaignReport`] no matter how many threads run the trials.
//!
//! `run_campaign` runs its trials through the one trial driver,
//! `run_trials`, over every available hardware thread; the driver's
//! `par_map` returns results in input order regardless of which worker ran
//! them. This test drives the campaign's own subject through the driver at
//! 1, 2 and 8 workers and compares each run, trial for trial, with the
//! campaign's report. Wall-clock fields (`decompress_seconds`,
//! `bandwidth_mb_s`) are excluded from the comparison — they legitimately
//! vary run to run.

use arc::datasets::SdrDataset;
use arc::faultsim::{
    decompress_trial, run_campaign, run_trials, sample_bits, FaultEvent, ReturnStatus, TrialMetrics,
};
use arc::pressio::{BoundSpec, CompressorSpec, Dataset};
/// The deterministic projection of one trial: everything except wall-clock.
#[derive(Debug, PartialEq, Eq)]
struct TrialKey {
    status: &'static str,
    percent_incorrect: Option<u64>,
    incorrect_elements: Option<usize>,
    max_abs_diff: u64,
    psnr: u64,
}

fn key(status: ReturnStatus, metrics: Option<&TrialMetrics>) -> TrialKey {
    TrialKey {
        status: status.label(),
        percent_incorrect: metrics.and_then(|m| m.percent_incorrect).map(f64::to_bits),
        incorrect_elements: metrics.and_then(|m| m.incorrect_elements),
        max_abs_diff: metrics.map_or(0, |m| m.max_abs_diff.to_bits()),
        psnr: metrics.map_or(0, |m| m.psnr.to_bits()),
    }
}

#[test]
fn same_seed_same_report_across_thread_counts() {
    let field = SdrDataset::CesmCldlow.generate(&[48, 96], 77);
    let comp = CompressorSpec::SzAbs(0.05).build();
    let stream = comp.compress(&Dataset { data: &field.data, dims: &field.dims }).unwrap();
    let bits = sample_bits(stream.len() as u64 * 8, 200, 42);
    let bound = Some(BoundSpec::Abs(0.05));
    let baseline = run_campaign(&field.data, &stream, &bits, bound);
    assert_eq!(baseline.total_bits, stream.len() as u64 * 8);
    assert_eq!(baseline.trials.len(), bits.len());
    assert!(baseline.trials.iter().zip(&bits).all(|(t, &b)| t.bit == Some(b)));

    // The control trial (no events) first, then one flip per bit.
    let mut trials = vec![vec![]];
    trials.extend(bits.iter().map(|&bit| vec![FaultEvent::SingleBit { bit }]));
    let expect: Vec<TrialKey> = std::iter::once(&baseline.control)
        .chain(&baseline.trials)
        .map(|t| key(t.status, t.metrics.as_ref()))
        .collect();
    let subject = decompress_trial(&field.data, bound);
    for workers in [1usize, 2, 8] {
        let got = run_trials(&stream, &trials, workers, &subject);
        assert_eq!(got.len(), expect.len(), "{workers} workers");
        for (i, ((status, metrics), want)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(
                &key(*status, metrics.as_ref()),
                want,
                "trial {i} diverged at {workers} workers"
            );
        }
    }
}
