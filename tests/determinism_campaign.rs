//! Campaign determinism: the same seed must yield an identical
//! [`CampaignReport`] no matter how many threads run the trials.
//!
//! `run_campaign` maps trials over every available hardware thread with
//! `arc::ecc::parallel::par_map`, which returns results in input order
//! regardless of which worker ran them. This test drives the same
//! per-trial function through `par_map` at 1, 2 and 8 workers and compares
//! each run, trial for trial, with the campaign's own report.
//! Wall-clock fields (`decompress_seconds`, `bandwidth_mb_s`) are excluded
//! from the comparison — they legitimately vary run to run.

use arc::datasets::SdrDataset;
use arc::ecc::parallel::par_map;
use arc::faultsim::{run_campaign_with_bound, sample_bits, TrialContext, TrialOutcome};
use arc::pressio::{BoundSpec, CompressorSpec, Dataset};
/// The deterministic projection of one trial: everything except wall-clock.
#[derive(Debug, PartialEq, Eq)]
struct TrialKey {
    bit: Option<u64>,
    status: &'static str,
    percent_incorrect: Option<u64>,
    incorrect_elements: Option<usize>,
    max_abs_diff: u64,
    psnr: u64,
}

fn key(t: &TrialOutcome) -> TrialKey {
    TrialKey {
        bit: t.bit,
        status: t.status.label(),
        percent_incorrect: t.metrics.as_ref().and_then(|m| m.percent_incorrect).map(f64::to_bits),
        incorrect_elements: t.metrics.as_ref().and_then(|m| m.incorrect_elements),
        max_abs_diff: t.metrics.as_ref().map_or(0, |m| m.max_abs_diff.to_bits()),
        psnr: t.metrics.as_ref().map_or(0, |m| m.psnr.to_bits()),
    }
}

#[test]
fn same_seed_same_report_across_thread_counts() {
    let field = SdrDataset::CesmCldlow.generate(&[48, 96], 77);
    let comp = CompressorSpec::SzAbs(0.05).build();
    let stream = comp.compress(&Dataset { data: &field.data, dims: &field.dims }).unwrap();
    let bits = sample_bits(stream.len() as u64 * 8, 200, 42);
    let bound = Some(BoundSpec::Abs(0.05));
    let baseline = run_campaign_with_bound(comp.as_ref(), &field.data, &stream, &bits, bound);
    assert_eq!(baseline.total_bits, stream.len() as u64 * 8);
    assert_eq!(baseline.trials.len(), bits.len());

    let mut ctx = TrialContext::new(comp.as_ref(), &field.data, &stream);
    ctx.eval_bound = bound;
    assert_eq!(key(&ctx.run_control()), key(&baseline.control));
    for workers in [1usize, 2, 8] {
        let trials = par_map(workers, &mut bits.clone(), |&mut b| ctx.run_flip(b));
        assert_eq!(trials.len(), baseline.trials.len(), "{workers} workers");
        for (i, (a, b)) in trials.iter().zip(&baseline.trials).enumerate() {
            assert_eq!(key(a), key(b), "trial {i} diverged at {workers} workers");
        }
    }
}
