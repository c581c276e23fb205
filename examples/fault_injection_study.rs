//! A miniature of the paper's §4 fault-injection study, runnable in under a
//! minute: flip sampled bits in compressed data, classify every outcome,
//! and contrast the serial SZ-like stream with block-decoupled ZFP-Rate.
//!
//! Run with `cargo run --release --example fault_injection_study`.

use arc::datasets::SdrDataset;
use arc::faultsim::{run_campaign, sample_bits, ReturnStatus};
use arc::pressio::{BoundSpec, CompressorSpec, Dataset};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let field = SdrDataset::CesmCldlow.generate(&[180, 360], 1);
    let trials = 400;
    println!(
        "dataset: {} {:?}; {} uniformly sampled single-bit flips per mode\n",
        field.name, field.dims, trials
    );
    println!(
        "{:<10} {:>10} {:>11} {:>11} {:>9} {:>14} {:>12}",
        "mode", "Completed", "Exception", "Terminated", "Timeout", "avg %incorrect", "avg elems"
    );
    for (spec, bound) in [
        (CompressorSpec::SzAbs(0.1), BoundSpec::Abs(0.1)),
        (CompressorSpec::SzPwRel(0.1), BoundSpec::PwRel(0.1)),
        (CompressorSpec::ZfpAcc(0.1), BoundSpec::Abs(0.1)),
        (CompressorSpec::ZfpRate(8.0), BoundSpec::Abs(0.1)),
    ] {
        let comp = spec.build();
        let stream = comp.compress(&Dataset { data: &field.data, dims: &field.dims })?;
        let bits = sample_bits(stream.len() as u64 * 8, trials, 0xCAFE);
        let report = run_campaign(&field.data, &stream, &bits, Some(bound));
        println!(
            "{:<10} {:>9.1}% {:>10.1}% {:>10.1}% {:>8.1}% {:>14.2} {:>12.1}",
            spec.family(),
            report.percent(ReturnStatus::Completed),
            report.percent(ReturnStatus::CompressorException),
            report.percent(ReturnStatus::Terminated),
            report.percent(ReturnStatus::Timeout),
            report.avg_percent_incorrect().unwrap_or(0.0),
            report.avg_incorrect_elements().unwrap_or(0.0),
        );
    }
    println!(
        "\nreading the table (paper §4): most trials 'Complete' — the corrupt data\n\
         flows onward as silent data corruption; the serial modes average ~10% of\n\
         elements destroyed per flip, while ZFP-Rate confines damage to one 4x4\n\
         block (a handful of elements) because its blocks are fully decoupled."
    );
    Ok(())
}
