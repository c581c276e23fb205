//! Weather the storm: apply each machine's *fault mix* (§6.4) to a stored
//! checkpoint and see which ARC configurations survive.
//!
//! Cielo's faults are ~29% multi-bit (mostly bursts in one DRAM device), so
//! the paper prescribes Reed-Solomon there. The run makes the trade
//! concrete and falsifiable:
//!
//! * SEC-DED **never silently corrupts** — any burst it cannot fix becomes
//!   a *detected* loss (lost productivity, no SDC), exactly the paper's
//!   argument for why burst-prone machines need more than SEC-DED;
//! * the Reed-Solomon grade turns the same storms into clean recoveries;
//! * the stock `ileave-rs` extension (64-lane interleaved RS(223|32)) rides
//!   the same storms through the registry at 14.3% storage overhead.
//!
//! Run with `cargo run --release --example checkpoint_storm`.

use arc::faultsim::{draw_events, run_trials, ReturnStatus};
use arc::{
    ArcContext, ArcError, ArcOptions, EncodeRequest, MemoryConstraint, ResiliencyConstraint,
    SystemProfile, ThroughputConstraint, TrainingOptions,
};

/// Seeded storms per (machine, protection) cell.
const STORMS: u64 = 4;

/// Strike `protected` with [`STORMS`] seeded storms of `events` fault events
/// from `system`'s mix, decode each, and tally the paper's outcomes: exact
/// bytes back, a detected loss, or silent corruption.
fn weather(
    protected: &[u8],
    original: &[u8],
    system: &SystemProfile,
    events: usize,
    decode: impl Fn(&[u8]) -> Result<Vec<u8>, ArcError> + Sync,
) -> String {
    let storms: Vec<_> =
        (0..STORMS).map(|i| draw_events(protected.len(), events, system, 0x57_02_17 + i)).collect();
    let results = run_trials(protected, &storms, 1, |b| {
        decode(b).map(|data| data == original).map_err(|_| ReturnStatus::CompressorException)
    });
    let recovered = results.iter().filter(|r| r.1 == Some(true)).count();
    let silent = results.iter().filter(|r| r.1 == Some(false)).count();
    let lost = results.len() - recovered - silent;
    format!(
        "{STORMS} storms of {events} events -> {recovered} RECOVERED, {lost} LOST (detected), \
         {silent} SILENT CORRUPTION"
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let checkpoint: Vec<u8> =
        (0..8_000_000u32).map(|i| (i.wrapping_mul(0x9E3779B1) >> 21) as u8).collect();
    let ctx = ArcContext::init(ArcOptions {
        training: TrainingOptions {
            sample_bytes: 512 << 10,
            rs_sample_bytes: 128 << 10,
            ..Default::default()
        },
        ..Default::default()
    })?;

    // Two protection grades: the SEC-DED class that serves Hopper's
    // single-bit-dominated weather, and the Reed-Solomon class §6.4
    // prescribes for burst-prone Cielo.
    let grades: [(&str, ResiliencyConstraint); 2] = [
        ("Hopper-grade (SEC-DED)", ResiliencyConstraint::Methods(vec![arc::EccMethod::SecDed])),
        ("Cielo-grade (Reed-Solomon)", SystemProfile::cielo().recommended_resiliency()),
    ];

    for system in [SystemProfile::cielo(), SystemProfile::hopper()] {
        println!(
            "\n=== {} weather: {:.2}% single-bit, bursts of {}-{} bytes",
            system.name,
            system.single_bit_fraction * 100.0,
            system.burst_bytes.0,
            system.burst_bytes.1
        );
        // Event counts scaled from the real rates so one run shows the
        // effect (real rates are ~1 event/node/month): the busier, burstier
        // Cielo sees many more events over a checkpoint's residency.
        let events = if system.name == "Cielo" { 40 } else { 4 };
        for (label, resiliency) in &grades {
            let (protected, sel) = ctx.encode(
                &checkpoint,
                &EncodeRequest {
                    memory: MemoryConstraint::Fraction(0.5),
                    throughput: ThroughputConstraint::Any,
                    resiliency: resiliency.clone(),
                },
            )?;
            let outcome = weather(&protected, &checkpoint, &system, events, |b| {
                ctx.decode(b).map(|(data, _)| data)
            });
            println!("  {label:<28} [{}] vs {outcome}", sel.config);
        }
    }

    // A stock extension scheme joins the same experiment through the registry.
    let registry = arc::core::standard_extensions()?;
    let threads = ctx.max_threads();
    let encoded = arc::core::encode_with_scheme(&checkpoint, &registry, "ileave-rs", threads)?;
    let outcome = weather(&encoded, &checkpoint, &SystemProfile::hopper(), 40, |b| {
        arc::core::decode_with_registry(b, threads, &registry).map(|(data, _)| data)
    });
    println!(
        "\nextension scheme ileave-rs (64-lane RS(223|32)) at 14.3% overhead vs Hopper weather: \
         {outcome}"
    );
    ctx.close()?;
    Ok(())
}
