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
//!   the same storm through the registry at 14.3% storage overhead.
//!
//! Run with `cargo run --release --example checkpoint_storm`.

use arc::faultsim::{storm, FaultMix};
use arc::{
    ArcContext, ArcOptions, EncodeRequest, MemoryConstraint, ResiliencyConstraint, SystemProfile,
    ThroughputConstraint, TrainingOptions,
};

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

    let systems = [
        (SystemProfile::cielo(), FaultMix::cielo_like()),
        (SystemProfile::hopper(), FaultMix::hopper_like()),
    ];
    // Two protection grades: the SEC-DED class that serves Hopper's
    // single-bit-dominated weather, and the Reed-Solomon class §6.4
    // prescribes for burst-prone Cielo.
    let grades: [(&str, ResiliencyConstraint); 2] = [
        ("Hopper-grade (SEC-DED)", ResiliencyConstraint::Methods(vec![arc::EccMethod::SecDed])),
        ("Cielo-grade (Reed-Solomon)", SystemProfile::cielo().recommended_resiliency()),
    ];

    for (system, mix) in &systems {
        println!("\n=== {} weather: {:?}", system.name, mix);
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
            let mut struck = protected.clone();
            let summary = storm(&mut struck, events, mix, 0x57_02_17);
            let outcome = match ctx.decode(&struck) {
                Ok((data, report)) if data == checkpoint => format!(
                    "RECOVERED ({} bits / {} devices repaired)",
                    report.correction.corrected_bits, report.correction.corrected_devices
                ),
                Ok(_) => "SILENT CORRUPTION (!)".to_string(),
                Err(e) => format!("LOST: {e}"),
            };
            println!(
                "  {label:<28} [{}] vs {} single-bit + {} burst events ({} bits) -> {outcome}",
                sel.config, summary.single_bit_events, summary.burst_events, summary.bits_flipped
            );
        }
    }

    // A stock extension scheme joins the same experiment through the registry.
    let registry = arc::core::standard_extensions()?;
    let encoded =
        arc::core::encode_with_scheme(&checkpoint, &registry, "ileave-rs", ctx.max_threads())?;
    let mut struck = encoded.clone();
    let summary = storm(&mut struck, 40, &FaultMix::hopper_like(), 0xF00D);
    let outcome = match arc::core::decode_with_registry(&struck, ctx.max_threads(), &registry) {
        Ok((data, _)) if data == checkpoint => "RECOVERED".to_string(),
        Ok(_) => "SILENT CORRUPTION (!)".to_string(),
        Err(e) => format!("LOST: {e}"),
    };
    println!(
        "\nextension scheme ileave-rs (64-lane RS(223|32)) at 14.3% overhead vs Hopper weather \
         ({} events, {} bits) -> {outcome}",
        summary.single_bit_events + summary.burst_events,
        summary.bits_flipped
    );
    ctx.close()?;
    Ok(())
}
