//! Figure 1: the effect of a single-bit soft error at different locations
//! in the SZ-ABS(ε = 0.1) compressed Hurricane Isabel pressure field.
//!
//! The paper shows two flips — bit 400,005 and bit 465,840 — producing
//! 49.6% and 99.4% incorrect elements. Our stream layout differs, so this
//! harness sweeps a deterministic set of locations, prints the damage at
//! each, and highlights the mildest and harshest Completed trials,
//! reproducing the figure's message: *where* the bit lands decides whether
//! half or nearly all of the data is destroyed.

use arc_bench::{compress_field, dataset_at, fmt, print_table, RunScale};
use arc_datasets::SdrDataset;
use arc_faultsim::{run_campaign, stride_bits, ReturnStatus};
use arc_pressio::{Compressor, CompressorSpec};

fn main() {
    let scale = RunScale::from_env();
    let field = dataset_at(scale, SdrDataset::IsabelPressure);
    let spec = CompressorSpec::SzAbs(0.1);
    let stream = compress_field(spec, &field).expect("compress");
    println!(
        "Hurricane Isabel pressure {:?} — {} compressed {} -> {} bytes (CR {:.1}x)",
        field.dims,
        spec.name(),
        field.byte_len(),
        stream.len(),
        field.byte_len() as f64 / stream.len() as f64
    );

    let n_sites = scale.trials(24, 48, 96);
    let bits = stride_bits(stream.len() as u64 * 8, n_sites);
    let report = run_campaign(&field.data, &stream, &bits, spec.bound_spec());
    let control = &report.control;
    let cm = control.metrics.expect("control completes");
    println!(
        "control: status={}, incorrect={}%, max|diff|={}",
        control.status.label(),
        fmt(cm.percent_incorrect.unwrap_or(0.0)),
        fmt(cm.max_abs_diff)
    );

    let mut rows = Vec::new();
    let mut best: Option<(u64, f64)> = None;
    let mut worst: Option<(u64, f64)> = None;
    for (out, &bit) in report.trials.iter().zip(&bits) {
        let (incorrect, maxd, psnr) = match &out.metrics {
            Some(m) => (m.percent_incorrect.unwrap_or(f64::NAN), m.max_abs_diff, m.psnr),
            None => (f64::NAN, f64::NAN, f64::NAN),
        };
        if out.status == ReturnStatus::Completed && incorrect.is_finite() && incorrect > 0.0 {
            if best.map(|(_, v)| incorrect < v).unwrap_or(true) {
                best = Some((bit, incorrect));
            }
            if worst.map(|(_, v)| incorrect > v).unwrap_or(true) {
                worst = Some((bit, incorrect));
            }
        }
        rows.push(vec![
            bit.to_string(),
            out.status.label().to_string(),
            fmt(incorrect),
            fmt(maxd),
            fmt(psnr),
        ]);
    }
    print_table(
        "Fig 1: single-bit flips in SZ-ABS(0.1) Isabel",
        &["bit", "status", "% incorrect", "max |diff|", "PSNR (dB)"],
        &rows,
    );
    if let (Some((b1, p1)), Some((b2, p2))) = (best, worst) {
        println!(
            "\npaper analogue: flip at bit {b1} -> {:.1}% incorrect (Fig 1b: 49.6%), \
             flip at bit {b2} -> {:.1}% incorrect (Fig 1c: 99.4%)",
            p1, p2
        );
        println!(
            "takeaway: a single soft error leaves the data unusable; severity depends on location."
        );
    }
}
