//! Figure 5: average data-integrity metrics for all Completed trials —
//! decompression bandwidth, maximum absolute difference, and PSNR, with
//! their control (no-flip) baselines.
//!
//! Paper findings: corrupt-trial bandwidth averages near control but with
//! far higher variance; the average max-difference explodes by orders of
//! magnitude (flips rebuilding exponent bits); PSNR collapses for every
//! mode except ZFP-Rate.

use arc_bench::{compress_field, dataset_at, fmt, paper_modes, print_table, RunScale};
use arc_datasets::SdrDataset;
use arc_faultsim::{run_campaign, sample_bits};
use arc_pressio::Compressor;

fn main() {
    let scale = RunScale::from_env();
    let trials = scale.trials(120, 500, 3000);
    let mut rows = Vec::new();
    for ds in SdrDataset::ALL {
        let field = dataset_at(scale, ds);
        for spec in paper_modes() {
            let stream = compress_field(spec, &field).expect("compress");
            let bits = sample_bits(stream.len() as u64 * 8, trials, 0x000F_1605);
            let report = run_campaign(&field.data, &stream, &bits, spec.bound_spec());
            let (bw_mean, bw_sd) = report.metric_stats(|m| m.bandwidth_mb_s);
            let (maxd_mean, _) = report.metric_stats(|m| m.max_abs_diff);
            let (psnr_mean, psnr_sd) = report.metric_stats(|m| m.psnr);
            let control = report.control.metrics.as_ref();
            rows.push(vec![
                ds.name().to_string(),
                spec.family().to_string(),
                fmt(control.map(|m| m.bandwidth_mb_s).unwrap_or(f64::NAN)),
                format!("{} ± {}", fmt(bw_mean), fmt(bw_sd)),
                fmt(control.map(|m| m.max_abs_diff).unwrap_or(f64::NAN)),
                fmt(maxd_mean),
                fmt(control.map(|m| m.psnr).unwrap_or(f64::NAN)),
                format!("{} ± {}", fmt(psnr_mean), fmt(psnr_sd)),
            ]);
        }
    }
    print_table(
        "Fig 5: integrity metrics, control vs corrupted (Completed trials)",
        &[
            "dataset",
            "mode",
            "ctl BW MB/s",
            "corrupt BW MB/s",
            "ctl max|diff|",
            "corrupt max|diff|",
            "ctl PSNR",
            "corrupt PSNR",
        ],
        &rows,
    );
    println!(
        "\nshape checks vs the paper: corrupt max|diff| ≫ control (orders of\n\
         magnitude); corrupt PSNR collapses except for ZFP-Rate; corrupt bandwidth\n\
         mean ≈ control with larger spread."
    );
}
