//! Figure 11: ARC constraint satisfaction with a free choice of ECC
//! (`ARC_ANY_ECC`) — target vs observed storage overhead, and target vs
//! achieved throughput.
//!
//! Paper findings: a 0.2 memory constraint yields a Reed-Solomon
//! configuration at 19.5% observed overhead; 0.9 yields 88.5%; throughput
//! targets are met from just above (0.5 MB/s → RS on 15 threads at 0.51
//! MB/s; 300 MB/s → SEC-DED on 34 threads at 302.4 MB/s).

use arc_bench::{dataset_at, fmt, print_table, RunScale};
use arc_core::{
    ArcContext, ArcOptions, EncodeRequest, MemoryConstraint, ResiliencyConstraint,
    ThroughputConstraint, TrainingOptions,
};
use arc_datasets::SdrDataset;

fn main() {
    let scale = RunScale::from_env();
    let field = dataset_at(scale, SdrDataset::CesmCldlow);
    // The constraint study protects SZ-ABS-compressed CESM (§6.2). The
    // paper's ε = 0.1 leaves a stream too small for overhead measurements
    // to be meaningful at reduced dataset scales (the container's fixed
    // costs dominate tiny payloads), so a tighter bound keeps the payload
    // in the MB range the study assumes.
    let comp = arc_pressio::CompressorSpec::SzAbs(1e-4).build();
    let payload = comp
        .compress(&arc_pressio::Dataset { data: &field.data, dims: &field.dims })
        .expect("compress CESM");
    println!(
        "payload: CESM via SZ-ABS(1e-4): {:.2} MB compressed from {:.2} MB",
        payload.len() as f64 / 1e6,
        field.byte_len() as f64 / 1e6
    );
    // Trained in-process at this run's scale: a cached table could hold
    // points measured at another scale's probe sizes.
    let ctx = ArcContext::init(ArcOptions {
        cache_path: None,
        training: TrainingOptions {
            sample_bytes: scale.trials(128 << 10, 2 << 20, 8 << 20),
            rs_sample_bytes: scale.trials(64 << 10, 512 << 10, 2 << 20),
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("arc_init");
    println!("training: {:.1} s", ctx.training_stats().seconds);

    // (a) memory-constraint sweep.
    let mut rows = Vec::new();
    for target in [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
        let req = EncodeRequest {
            memory: MemoryConstraint::Fraction(target),
            throughput: ThroughputConstraint::Any,
            resiliency: ResiliencyConstraint::Any,
        };
        let (encoded, sel) = ctx.encode(&payload, &req).expect("arc_encode");
        let observed = (encoded.len() as f64 - payload.len() as f64) / payload.len() as f64;
        rows.push(vec![
            fmt(target),
            sel.config.to_string(),
            fmt(sel.overhead),
            fmt(observed),
            if sel.over_budget { "OVER".into() } else { "ok".into() },
        ]);
    }
    print_table(
        "Fig 11a: memory constraint (ANY_ECC) — target vs observed overhead",
        &["target", "chosen config", "config overhead", "observed overhead", "budget"],
        &rows,
    );

    // (b) throughput-constraint sweep, verified by a timed encode.
    let mut rows = Vec::new();
    for target in [0.5, 2.0, 10.0, 50.0, 100.0, 200.0, 300.0, 400.0, 500.0] {
        let req = EncodeRequest {
            memory: MemoryConstraint::Any,
            throughput: ThroughputConstraint::MbPerS(target),
            resiliency: ResiliencyConstraint::Any,
        };
        match ctx.select(&req) {
            Ok(sel) => {
                let t0 = std::time::Instant::now();
                let _ = ctx.encode_with(&payload, sel.config, sel.threads).expect("encode");
                let achieved = payload.len() as f64 / 1e6 / t0.elapsed().as_secs_f64();
                rows.push(vec![
                    fmt(target),
                    sel.config.to_string(),
                    sel.threads.to_string(),
                    fmt(sel.predicted_encode_mb_s),
                    fmt(achieved),
                    if sel.under_throughput { "UNDER".into() } else { "ok".into() },
                ]);
            }
            Err(e) => rows.push(vec![
                fmt(target),
                format!("error: {e}"),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    print_table(
        "Fig 11b: throughput constraint (ANY_ECC) — target vs achieved MB/s",
        &["target MB/s", "chosen config", "threads", "predicted", "achieved", "floor"],
        &rows,
    );
    println!(
        "\nshape checks vs the paper: observed overhead hugs the target from below\n\
         (RS fills the budget); low throughput targets select strong/slow codes on\n\
         few threads, high targets shift to SEC-DED/Hamming/parity with more threads."
    );
    ctx.close().expect("arc_close");
}
