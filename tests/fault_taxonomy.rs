//! Cross-crate integration: the fault-injection taxonomy behaves per §4 of
//! the paper across compressors and datasets.

use arc::datasets::SdrDataset;
use arc::faultsim::{run_campaign, sample_bits, ReturnStatus};
use arc::pressio::{BoundSpec, CompressorSpec, Dataset};

#[test]
fn majority_of_flips_complete_silently() {
    // §4.2: "95.28% of all trials Completed" — the silent-corruption class
    // dominates. We assert the qualitative claim: a strict majority.
    let field = SdrDataset::CesmCldlow.generate(&[80, 160], 11);
    let mut completed = 0usize;
    let mut total = 0usize;
    for spec in
        [CompressorSpec::SzAbs(0.1), CompressorSpec::ZfpAcc(0.1), CompressorSpec::ZfpRate(8.0)]
    {
        let comp = spec.build();
        let stream = comp.compress(&Dataset { data: &field.data, dims: &field.dims }).unwrap();
        let bits = sample_bits(stream.len() as u64 * 8, 150, 21);
        let report = run_campaign(&field.data, &stream, &bits, Some(BoundSpec::Abs(0.1)));
        completed += report.trials.iter().filter(|t| t.status == ReturnStatus::Completed).count();
        total += report.trials.len();
    }
    let pct = 100.0 * completed as f64 / total as f64;
    assert!(pct > 60.0, "only {pct:.1}% completed; paper reports ~95%");
}

#[test]
fn zfp_rate_trials_all_complete() {
    // §4.2: 100% of ZFP trials Completed — ZFP never detects the damage.
    let field = SdrDataset::CesmCldlow.generate(&[80, 160], 13);
    let comp = CompressorSpec::ZfpRate(8.0).build();
    let stream = comp.compress(&Dataset { data: &field.data, dims: &field.dims }).unwrap();
    // Sample payload bits (the small stream header is ARC's to protect).
    let header_bits = 24 * 8;
    let bits: Vec<u64> = sample_bits(stream.len() as u64 * 8 - header_bits, 250, 17)
        .into_iter()
        .map(|b| b + header_bits)
        .collect();
    let report = run_campaign(&field.data, &stream, &bits, Some(BoundSpec::Abs(0.1)));
    assert_eq!(
        report.percent(ReturnStatus::Completed),
        100.0,
        "status counts: {:?}",
        report.status_counts()
    );
}

#[test]
fn serial_modes_propagate_more_than_block_mode() {
    // §4.3's headline: serial streams average ~10% incorrect elements per
    // flip; ZFP-Rate averages a handful of *elements*.
    let field = SdrDataset::CesmCldlow.generate(&[80, 160], 19);
    let eval = Some(BoundSpec::Abs(0.1));
    let mut avg_elements = std::collections::HashMap::new();
    for spec in [CompressorSpec::SzAbs(0.1), CompressorSpec::ZfpRate(8.0)] {
        let comp = spec.build();
        let stream = comp.compress(&Dataset { data: &field.data, dims: &field.dims }).unwrap();
        let bits = sample_bits(stream.len() as u64 * 8, 200, 23);
        let report = run_campaign(&field.data, &stream, &bits, eval);
        // Subtract the control baseline (rate mode has inherent violations
        // at its fixed precision).
        let control =
            report.control.metrics.as_ref().and_then(|m| m.incorrect_elements).unwrap_or(0) as f64;
        avg_elements.insert(
            spec.family(),
            (report.avg_incorrect_elements().unwrap_or(0.0) - control).max(0.0),
        );
    }
    let sz = avg_elements["SZ-ABS"];
    let zfp = avg_elements["ZFP-Rate"];
    assert!(
        sz > 10.0 * zfp.max(1.0),
        "SZ-ABS should propagate far more than ZFP-Rate: {sz} vs {zfp}"
    );
}

#[test]
fn timeout_class_reachable_via_dims_corruption() {
    // §4.2's Timeout class: corrupting the decompression-controlling
    // metadata (dimensions) demands implausible work. Target the header's
    // dims bytes directly to prove the classification path.
    let field = SdrDataset::CesmCldlow.generate(&[100, 200], 29);
    let comp = CompressorSpec::SzAbs(0.1).build();
    let stream = comp.compress(&Dataset { data: &field.data, dims: &field.dims }).unwrap();
    // The dims varints live right after magic+version+tag+2×f64+flag.
    let dims_offset = (4 + 1 + 1 + 16 + 1 + 1) as u64 * 8;
    let bits: Vec<u64> = (dims_offset..dims_offset + 32).collect();
    let report = run_campaign(&field.data, &stream, &bits, comp.bound_spec());
    assert!(
        report.percent(ReturnStatus::Timeout) > 0.0,
        "no dims flip produced the Timeout class: {:?}",
        report.status_counts()
    );
}

#[test]
fn control_trials_are_pristine_for_bounded_modes() {
    for ds in [SdrDataset::CesmCldlow] {
        let field = ds.generate(&[60, 120], 31);
        for spec in
            [CompressorSpec::SzAbs(0.1), CompressorSpec::SzPwRel(0.1), CompressorSpec::ZfpAcc(0.1)]
        {
            let comp = spec.build();
            let stream = comp.compress(&Dataset { data: &field.data, dims: &field.dims }).unwrap();
            let control = run_campaign(&field.data, &stream, &[], comp.bound_spec()).control;
            assert_eq!(control.status, ReturnStatus::Completed, "{}", spec.name());
            let m = control.metrics.unwrap();
            assert_eq!(m.percent_incorrect, Some(0.0), "{}", spec.name());
        }
    }
}
