//! `sz_checkpoint` and `zfp_checkpoint`: the paper's write and restart path.
//! Protect is compress → optimizer pick → streaming ECC encode; recover is
//! container decode → decompress. One cell per (field, compressor mode).

use arc_core::{ArcContext, EncodeRequest};
use arc_datasets::{Field, SdrDataset};
use arc_pressio::{metrics as pressio_metrics, Compressor, CompressorSpec, Dataset};

use crate::cells::{record_bulk, run_passes, Cell, Outcome, Passes};
use crate::inputs::{self, Scale, Scheme, KIB};
use crate::probes::{self, PathCell};
use crate::stats::{geomean, median, mib_s};
use crate::trace::{durations, Layer, Tracer};
use crate::{compressors, Run};

/// Shard size of a checkpoint container.
const SHARD: usize = 256 * KIB;

pub struct Setup {
    fields: Vec<Field>,
    ctx: ArcContext,
    pub generate_s: f64,
    pub train_s: f64,
}

pub fn setup(scale: Scale, seed: u64) -> Result<Setup, String> {
    let mut generate_s = 0.0;
    let mut fields = Vec::new();
    for ds in SdrDataset::ALL {
        let (field, s) = inputs::generate(ds, scale, seed);
        generate_s += s;
        fields.push(field);
    }
    let (ctx, train_s) = inputs::init_context(scale)?;
    Ok(Setup { fields, ctx, generate_s, train_s })
}

struct CheckpointCell<'a> {
    name: String,
    field: &'a Field,
    spec: CompressorSpec,
    compressor: Box<dyn Compressor>,
    ctx: &'a ArcContext,
    request: EncodeRequest,
    /// Scheme of the first pick, and how many later picks differed.
    picked: Option<Scheme>,
    pick_flips: u64,
    // Outputs of the latest ops, taken by `check`.
    stream: Vec<u8>,
    decoded_stream: Vec<u8>,
    decoded: Vec<f32>,
    decoded_dims: Vec<usize>,
    /// Compressed stream, container and decoded field of the checked pass.
    reference: Option<(Vec<u8>, Vec<u8>, Vec<f32>)>,
}

impl Cell for CheckpointCell<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_bytes(&self) -> usize {
        self.field.byte_len()
    }

    fn protect(&mut self, tr: &mut Tracer) -> Result<Vec<u8>, String> {
        let ds = Dataset { data: &self.field.data, dims: &self.field.dims };
        let stream = tr
            .leaf("pressio.compress", Layer::Pressio, || self.compressor.compress(&ds))
            .map_err(|e| format!("compress: {e}"))?;
        let pick = tr
            .leaf("core.select", Layer::Core, || self.ctx.select(&self.request))
            .map_err(|e| format!("select: {e}"))?;
        let scheme = Scheme::Builtin(pick.config);
        match &self.picked {
            Some(first) if first.id() != scheme.id() => self.pick_flips += 1,
            Some(_) => {}
            None => self.picked = Some(scheme.clone()),
        }
        let container =
            tr.leaf("core.stream_encode", Layer::Core, || scheme.stream_encode(&stream, SHARD))?;
        self.stream = stream;
        Ok(container)
    }

    fn recover(&mut self, tr: &mut Tracer, container: &[u8]) -> Result<(), String> {
        let (stream, _report) = tr
            .leaf("core.decode", Layer::Core, || arc_core::arc_engine_decode(container, 1))
            .map_err(|e| format!("decode: {e}"))?;
        let field = tr
            .leaf("pressio.decompress", Layer::Pressio, || self.compressor.decompress(&stream))
            .map_err(|e| format!("decompress: {e}"))?;
        self.decoded_stream = stream;
        self.decoded = field.data;
        self.decoded_dims = field.dims;
        Ok(())
    }

    fn check(&mut self, container: &[u8]) -> (Option<String>, Option<String>) {
        let stream = std::mem::take(&mut self.stream);
        let decoded_stream = std::mem::take(&mut self.decoded_stream);
        let decoded = std::mem::take(&mut self.decoded);
        if let Some((ref_stream, ref_container, ref_decoded)) = &self.reference {
            let same_bits = |a: &[f32], b: &[f32]| {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            };
            let protect = (stream != *ref_stream || container != ref_container.as_slice())
                .then(|| "stream or container differs from the checked pass".to_string());
            let recover = (decoded_stream != *ref_stream || !same_bits(&decoded, ref_decoded))
                .then(|| "decoded stream or field differs from the checked pass".to_string());
            return (protect, recover);
        }
        let protect = (decoded_stream != stream)
            .then(|| "container decode is not the compressed stream".to_string());
        let recover = if self.decoded_dims != self.field.dims
            || decoded.len() != self.field.data.len()
        {
            Some(format!(
                "decompressed dims {:?}, field dims {:?}",
                self.decoded_dims, self.field.dims
            ))
        } else {
            match self.compressor.bound_spec() {
                Some(bound) => {
                    let bad =
                        pressio_metrics::incorrect_elements(&self.field.data, &decoded, bound);
                    (bad > 0).then(|| format!("{bad} elements outside {bound:?}"))
                }
                // Fixed rate promises no bound per value; it must still be
                // the same field.
                None => {
                    let psnr = pressio_metrics::psnr(&self.field.data, &decoded);
                    (psnr.is_nan() || psnr < 30.0).then(|| format!("PSNR {psnr:.1} dB below 30"))
                }
            }
        };
        self.reference = Some((stream, container.to_vec(), decoded));
        (protect, recover)
    }
}

pub fn run(
    run: &Run,
    specs: [CompressorSpec; 2],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let (setup, setup_s) = crate::timed_setups(run, || setup(run.scale, run.seed))?;
    let mut cells: Vec<CheckpointCell> = Vec::new();
    for field in &setup.fields {
        for spec in specs {
            cells.push(CheckpointCell {
                name: format!("{}/{}", field.name.replace(' ', "_"), spec.name()),
                field,
                spec,
                compressor: spec.build(),
                ctx: &setup.ctx,
                request: inputs::checkpoint_request(),
                picked: None,
                pick_flips: 0,
                stream: Vec::new(),
                decoded_stream: Vec::new(),
                decoded: Vec::new(),
                decoded_dims: Vec::new(),
                reference: None,
            });
        }
    }
    let passes = run_passes(&mut cells, tr, run.seconds, run.traced, out);
    record_bulk(&cells, &passes, setup_s, out);
    for c in &cells {
        if let (Some(scheme), Some((stream, _, _))) = (&c.picked, &c.reference) {
            out.pin(&format!("{}.selected_scheme", c.name), scheme.id());
            out.pin(&format!("{}.compressed_bytes", c.name), stream.len());
        }
    }
    if run.traced {
        out.set("datasets.generate_s", setup.generate_s);
        out.set("core.train_s", setup.train_s);
        per_layer(run, &cells, &passes, tr, out);
    }
    Ok(())
}

/// Per-layer numbers of a traced run: span statistics for the calls the
/// passes made, then direct probes of the layers beneath them.
fn per_layer(run: &Run, cells: &[CheckpointCell], passes: &Passes, tr: &Tracer, out: &mut Outcome) {
    let spans = tr.spans();
    let med = |name: &str, cell: usize| median(&durations(spans, name, cell as u32));
    let (mut compress, mut decompress, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    let (mut paths, mut direct) = (Vec::new(), Vec::new());
    for (i, c) in cells.iter().enumerate() {
        let (Some(scheme), Some((stream, container, _))) = (&c.picked, &c.reference) else {
            continue;
        };
        let (t_comp, t_decomp) = (med("pressio.compress", i), med("pressio.decompress", i));
        let (t_enc, t_dec, t_sel) =
            (med("core.stream_encode", i), med("core.decode", i), med("core.select", i));
        compress.push(mib_s(c.field.byte_len(), t_comp));
        decompress.push(mib_s(c.field.byte_len(), t_decomp));
        ratio.push((t_sel + t_enc + t_dec) / (t_comp + t_decomp));
        paths.push(PathCell {
            name: &c.name,
            scheme,
            payload: stream,
            container,
            stream_encode_ns: t_enc,
            decode_ns: t_dec,
        });
        direct.push((c.name.clone(), c.field, c.spec, t_comp + t_decomp));
    }
    out.set("pressio.compress_mib_s", geomean(&compress));
    out.set("pressio.decompress_mib_s", geomean(&decompress));
    // The paper's cost claim as a number: ECC and container time over
    // compressor time, per cell.
    out.set("core.ecc_over_compress", geomean(&ratio));
    out.set("core.selection_flips", cells.iter().map(|c| c.pick_flips).sum::<u64>() as f64);
    probes::record_core(&paths, SHARD, run.seed, out);
    if let Some(c) = paths.first() {
        probes::core_micro(c, cells[0].ctx, run.seed, out);
    }
    crate::record_ledger(tr, passes, out);
    compressors::probe(&direct, run.seed, out);
}
