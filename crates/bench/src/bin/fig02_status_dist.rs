//! Figure 2: distribution of decompression return statuses across all
//! fault-injection trials — three datasets × five compressor modes.
//!
//! Paper findings to compare against: 95.28% of all trials *Completed*
//! (decoded corrupt data without noticing — the SDC path), the remaining
//! 4.72% split among Compressor Exception / Terminated / Timeout, and
//! **100% of ZFP trials Completed**.

use arc_bench::{compress_field, dataset_at, paper_modes, print_table, RunScale};
use arc_datasets::SdrDataset;
use arc_faultsim::{run_campaign, sample_bits, ReturnStatus};
use arc_pressio::Compressor;

fn main() {
    let scale = RunScale::from_env();
    let trials_per_pair = scale.trials(150, 600, 4000);
    let mut rows = Vec::new();
    let mut grand = [0usize; 4];
    let mut grand_total = 0usize;
    let mut zfp_completed = 0usize;
    let mut zfp_total = 0usize;
    for ds in SdrDataset::ALL {
        let field = dataset_at(scale, ds);
        for spec in paper_modes() {
            let stream = compress_field(spec, &field).expect("compress");
            let bits = sample_bits(stream.len() as u64 * 8, trials_per_pair, 0x000F_1602);
            let report = run_campaign(&field.data, &stream, &bits, spec.bound_spec());
            let counts = report.status_counts();
            for (i, (_, c)) in counts.iter().enumerate() {
                grand[i] += c;
            }
            grand_total += report.trials.len();
            if spec.family().starts_with("ZFP") {
                zfp_completed += counts[0].1;
                zfp_total += report.trials.len();
            }
            rows.push(vec![
                ds.name().to_string(),
                spec.family().to_string(),
                format!("{:.2}%", report.percent(ReturnStatus::Completed)),
                format!("{:.2}%", report.percent(ReturnStatus::CompressorException)),
                format!("{:.2}%", report.percent(ReturnStatus::Terminated)),
                format!("{:.2}%", report.percent(ReturnStatus::Timeout)),
            ]);
        }
    }
    print_table(
        "Fig 2: return-status distribution per (dataset, mode)",
        &["dataset", "mode", "Completed", "CompressorException", "Terminated", "Timeout"],
        &rows,
    );
    println!("\naggregate over {grand_total} trials:");
    for (i, status) in ReturnStatus::ALL.iter().enumerate() {
        println!(
            "  {:<22} {:>7.2}%   (paper: Completed 95.28% overall)",
            status.label(),
            100.0 * grand[i] as f64 / grand_total.max(1) as f64
        );
    }
    println!(
        "ZFP modes Completed: {:.2}% (paper: 100%)",
        100.0 * zfp_completed as f64 / zfp_total.max(1) as f64
    );
}
