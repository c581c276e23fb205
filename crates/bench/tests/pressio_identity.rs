//! The slab layer leaves every field of one slab or less alone: through
//! `CompressorSpec::build()`, each of the five paper modes emits exactly the
//! bare `arc_sz` / `arc_zfp` stream on the golden fields, the datasets at
//! `test_dims()` and the datasets at `RunScale::Standard` — the sizes every
//! committed figure and golden checksum was recorded at.

use arc_bench::{paper_modes, RunScale};
use arc_datasets::SdrDataset;
use arc_pressio::{slab, CompressorSpec, Dataset};

/// The bare codec stream a spec stood for before the slab layer.
fn bare(spec: CompressorSpec, data: &[f32], dims: &[usize]) -> Vec<u8> {
    let sz = |bound| {
        let cfg = arc_sz::SzConfig { bound, ..Default::default() };
        arc_sz::compress(data, dims, &cfg).unwrap()
    };
    let zfp = |mode| arc_zfp::compress(data, dims, mode).unwrap();
    match spec {
        CompressorSpec::SzAbs(e) => sz(arc_sz::ErrorBound::Abs(e)),
        CompressorSpec::SzPwRel(e) => sz(arc_sz::ErrorBound::PwRel(e)),
        CompressorSpec::SzPsnr(p) => sz(arc_sz::ErrorBound::Psnr(p)),
        CompressorSpec::ZfpAcc(e) => zfp(arc_zfp::ZfpMode::FixedAccuracy(e)),
        CompressorSpec::ZfpRate(r) => zfp(arc_zfp::ZfpMode::FixedRate(r)),
    }
}

/// A smooth field with a high-frequency term, at any dims.
fn smooth(dims: &[usize]) -> Vec<f32> {
    let n: usize = dims.iter().product();
    (0..n)
        .map(|i| {
            let x = i as f32;
            let hash = (i as u32).wrapping_mul(0x9E37_79B1) >> 20;
            (x * 0.031).sin() * 6.0 + (x * 0.0047).cos() * 3.0 + hash as f32 * 1e-4
        })
        .collect()
}

#[test]
fn fields_of_one_slab_compress_to_the_bare_codec_stream() {
    // The golden streams' fields (tests/golden_streams.rs) and the hostile
    // sweep's 48×48 field.
    let mut fields: Vec<(String, Vec<usize>, Vec<f32>)> =
        [vec![32usize, 32], vec![48, 48], vec![257], vec![12, 10, 9]]
            .into_iter()
            .map(|dims| (format!("golden {dims:?}"), dims.clone(), smooth(&dims)))
            .collect();
    for ds in SdrDataset::ALL {
        for (scale, dims) in [("test", ds.test_dims()), ("standard", RunScale::Standard.dims(ds))] {
            fields.push((
                format!("{} {scale}", ds.name()),
                dims.clone(),
                ds.generate(&dims, 7).data,
            ));
        }
    }
    for (name, dims, data) in &fields {
        assert_eq!(slab::plan(dims), vec![dims[0]], "{name}: {dims:?} is cut into slabs");
        for spec in paper_modes() {
            let stream = spec.build().compress(&Dataset { data, dims }).unwrap();
            assert!(
                stream == bare(spec, data, dims),
                "{name} {}: not the bare stream",
                spec.name()
            );
        }
    }
}
