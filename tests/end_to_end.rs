//! Cross-crate integration: the full paper pipeline — dataset → lossy
//! compressor → ARC → soft errors → ARC decode → decompressor → bound
//! verification.

use arc::datasets::SdrDataset;
use arc::pressio::{incorrect_elements, BoundSpec, CompressorSpec, Dataset};
use arc::{
    ArcContext, ArcOptions, EncodeRequest, MemoryConstraint, ResiliencyConstraint,
    ThroughputConstraint, TrainingOptions,
};
use arc_ecc::EccConfig;

fn ctx(tag: &str) -> ArcContext {
    let dir = std::env::temp_dir().join(format!("arc-e2e-{tag}-{}", std::process::id()));
    ArcContext::init(ArcOptions {
        max_threads: 2,
        cache_path: Some(dir.join("training.tsv")),
        training: TrainingOptions {
            sample_bytes: 32 << 10,
            rs_sample_bytes: 16 << 10,
            space: vec![
                EccConfig::parity(8).unwrap(),
                EccConfig::secded(true),
                EccConfig::rs(64, 16).unwrap(),
            ],
        },
    })
    .expect("arc_init")
}

#[test]
fn full_pipeline_recovers_from_soft_errors() {
    let field = SdrDataset::CesmCldlow.generate(&[90, 180], 9);
    let eps = 1e-3;
    let compressor = CompressorSpec::SzAbs(eps).build();
    let stream =
        compressor.compress(&Dataset { data: &field.data, dims: &field.dims }).expect("compress");
    let ctx = ctx("pipeline");
    let (protected, sel) = ctx
        .encode(
            &stream,
            &EncodeRequest {
                memory: MemoryConstraint::Fraction(0.3),
                throughput: ThroughputConstraint::Any,
                resiliency: ResiliencyConstraint::ErrorsPerMb(1.0),
            },
        )
        .expect("arc_encode");
    assert!(sel.overhead <= 0.3);

    // Scattered soft errors across the protected container.
    let mut struck = protected.clone();
    for i in 0..6 {
        let pos = 13 + i * (struck.len() / 7);
        struck[pos] ^= 1 << (i % 8);
    }
    let (recovered, report) = ctx.decode(&struck).expect("arc_decode repairs");
    assert_eq!(recovered, stream);
    assert!(!report.correction.is_clean());

    let decoded = compressor.decompress(&recovered).expect("decompress");
    assert_eq!(decoded.dims, field.dims);
    assert_eq!(
        incorrect_elements(&field.data, &decoded.data, BoundSpec::Abs(eps)),
        0,
        "error bound must hold end to end"
    );
    ctx.close().expect("arc_close");
}

#[test]
fn unprotected_stream_corrupts_but_protected_survives_identically() {
    let field = SdrDataset::IsabelPressure.generate(&[10, 50, 50], 3);
    let compressor = CompressorSpec::ZfpAcc(0.5).build();
    let stream =
        compressor.compress(&Dataset { data: &field.data, dims: &field.dims }).expect("compress");
    // Unprotected: flip one bit mid-stream.
    let mut bare = stream.clone();
    let flip_at = stream.len() / 2;
    bare[flip_at] ^= 0x08;
    let damaged = compressor.decompress(&bare);
    let damage_visible = match damaged {
        Ok(d) => d.data != compressor.decompress(&stream).unwrap().data,
        Err(_) => true,
    };
    assert!(damage_visible, "a mid-stream flip must matter to the raw codec");

    // Protected: the same flip is absorbed.
    let ctx = ctx("survive");
    let (protected, _) = ctx
        .encode(
            &stream,
            &EncodeRequest {
                memory: MemoryConstraint::Any,
                throughput: ThroughputConstraint::Any,
                resiliency: ResiliencyConstraint::ErrorsPerMb(1.0),
            },
        )
        .expect("encode");
    let mut struck = protected.clone();
    struck[protected.len() / 2] ^= 0x08;
    let (recovered, _) = ctx.decode(&struck).expect("decode");
    assert_eq!(recovered, stream);
}

#[test]
fn burst_errors_need_reed_solomon() {
    let data: Vec<u8> = (0..300_000).map(|i| (i % 253) as u8).collect();
    let ctx = ctx("burst");
    // SEC-DED cannot fix a burst…
    let secded = ctx.encode_with(&data, EccConfig::secded(true), 2).expect("encode");
    let mut struck = secded.clone();
    let start = struck.len() / 2;
    for b in &mut struck[start..start + 512] {
        *b ^= 0xFF;
    }
    assert!(ctx.decode(&struck).is_err(), "SEC-DED must detect-but-fail on a burst");
    // …Reed-Solomon can.
    let rs = ctx.encode_with(&data, EccConfig::rs(64, 16).unwrap(), 2).expect("encode");
    let mut struck = rs.clone();
    let start = struck.len() / 2;
    for b in &mut struck[start..start + 512] {
        *b ^= 0xFF;
    }
    let (recovered, report) = ctx.decode(&struck).expect("RS repairs the burst");
    assert_eq!(recovered, data);
    assert!(report.correction.corrected_devices >= 1);
}

#[test]
fn system_profile_drives_selection_end_to_end() {
    let ctx = ctx("system");
    let data = vec![0x5Au8; 200_000];
    for system in [arc::SystemProfile::cielo(), arc::SystemProfile::hopper()] {
        let req = EncodeRequest {
            memory: MemoryConstraint::Fraction(0.5),
            throughput: ThroughputConstraint::Any,
            resiliency: system.recommended_resiliency(),
        };
        let (encoded, sel) = ctx.encode(&data, &req).expect("encode");
        if system.name == "Cielo" {
            assert_eq!(sel.config.method(), arc::EccMethod::Rs, "Cielo needs burst correction");
        }
        let (decoded, _) = ctx.decode(&encoded).expect("decode");
        assert_eq!(decoded, data);
    }
}

#[test]
fn every_paper_mode_composes_with_arc() {
    let field = SdrDataset::CesmCldlow.generate(&[60, 120], 5);
    let ctx = ctx("modes");
    for spec in [
        CompressorSpec::SzAbs(0.1),
        CompressorSpec::SzPwRel(0.1),
        CompressorSpec::SzPsnr(90.0),
        CompressorSpec::ZfpAcc(0.1),
        CompressorSpec::ZfpRate(8.0),
    ] {
        let comp = spec.build();
        let stream =
            comp.compress(&Dataset { data: &field.data, dims: &field.dims }).expect("compress");
        let (protected, _) = ctx.encode(&stream, &EncodeRequest::default()).expect("encode");
        let mut struck = protected.clone();
        struck[protected.len() * 2 / 3] ^= 0x01;
        let (recovered, _) = ctx.decode(&struck).expect("decode");
        assert_eq!(recovered, stream, "{}", spec.name());
        let decoded = comp.decompress(&recovered).expect("decompress");
        assert_eq!(decoded.data.len(), field.data.len(), "{}", spec.name());
    }
}
