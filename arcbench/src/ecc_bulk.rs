//! `ecc_bulk`: the compressors bypassed. A payload tiled from real
//! compressed streams goes through the streaming encoder and the full
//! decode under five schemes, three through the built-in `EccConfig` path
//! and two through the extension registry.

use arc_core::ArcContext;

use crate::cells::{record_bulk, run_passes, Cell, Outcome, Passes};
use crate::inputs::{self, Scale, Scheme, MIB};
use crate::metrics::ECC_CELLS;
use crate::probes::{self, PathCell};
use crate::stats::{median, mib_s};
use crate::trace::{durations, Layer, Tracer};
use crate::Run;

/// Shard size of a bulk container: one ECC chunk.
const SHARD: usize = MIB;

pub struct Setup {
    pub ctx: ArcContext,
    pub payload: Vec<u8>,
    pub generate_s: f64,
    pub train_s: f64,
}

/// Generate the CESM field, train a context and tile `bytes` of payload;
/// `tile_serve` sets up the same way before it builds its container.
pub fn setup(scale: Scale, seed: u64, bytes: usize) -> Result<Setup, String> {
    let (field, generate_s) = inputs::generate(arc_datasets::SdrDataset::CesmCldlow, scale, seed);
    let (ctx, train_s) = inputs::init_context(scale)?;
    let payload = inputs::tiled_payload(&field, bytes)?;
    Ok(Setup { ctx, payload, generate_s, train_s })
}

struct BulkCell<'a> {
    name: &'static str,
    scheme: Scheme,
    payload: &'a [u8],
    decoded: Vec<u8>,
    /// Container of the checked pass.
    reference: Option<Vec<u8>>,
}

impl Cell for BulkCell<'_> {
    fn name(&self) -> &str {
        self.name
    }

    fn input_bytes(&self) -> usize {
        self.payload.len()
    }

    fn protect(&mut self, tr: &mut Tracer) -> Result<Vec<u8>, String> {
        tr.leaf("core.stream_encode", Layer::Core, || {
            self.scheme.stream_encode(self.payload, SHARD)
        })
    }

    fn recover(&mut self, tr: &mut Tracer, container: &[u8]) -> Result<(), String> {
        let (data, report) =
            tr.leaf("core.decode", Layer::Core, || self.scheme.decode(container))?;
        if !report.correction.is_clean() {
            return Err(format!("clean container reported repairs: {:?}", report.correction));
        }
        self.decoded = data;
        Ok(())
    }

    fn check(&mut self, container: &[u8]) -> (Option<String>, Option<String>) {
        let decoded = std::mem::take(&mut self.decoded);
        let recover =
            (decoded != self.payload).then(|| "decoded bytes differ from the payload".to_string());
        let protect = match &self.reference {
            Some(r) => (container != r.as_slice())
                .then(|| "container differs from the checked pass".to_string()),
            None => {
                self.reference = Some(container.to_vec());
                None
            }
        };
        (protect, recover)
    }
}

pub fn run(run: &Run, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let (setup, setup_s) =
        crate::timed_setups(run, || setup(run.scale, run.seed, run.scale.bulk_bytes()))?;
    let registry = inputs::standard_registry()?;
    let mut cells = Vec::new();
    for name in ECC_CELLS {
        cells.push(BulkCell {
            name,
            scheme: Scheme::of_cell(name, &registry)?,
            payload: &setup.payload[..run.scale.cell_bytes(name)],
            decoded: Vec::new(),
            reference: None,
        });
    }
    let passes = run_passes(&mut cells, tr, run.seconds, run.traced, out);
    record_bulk(&cells, &passes, setup_s, out);
    if run.traced {
        out.set("datasets.generate_s", setup.generate_s);
        out.set("core.train_s", setup.train_s);
        per_layer(run, &setup, &cells, &passes, tr, out);
    }
    Ok(())
}

fn per_layer(
    run: &Run,
    setup: &Setup,
    cells: &[BulkCell],
    passes: &Passes,
    tr: &Tracer,
    out: &mut Outcome,
) {
    let spans = tr.spans();
    let mut paths = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        let Some(container) = &c.reference else { continue };
        paths.push(PathCell {
            name: c.name,
            scheme: &c.scheme,
            payload: c.payload,
            container,
            stream_encode_ns: median(&durations(spans, "core.stream_encode", i as u32)),
            decode_ns: median(&durations(spans, "core.decode", i as u32)),
        });
    }
    let probed = probes::record_core(&paths, SHARD, run.seed, out);
    for (c, p) in paths.iter().zip(&probed) {
        let n = c.payload.len();
        out.set(&format!("ecc.{}.encode_mib_s", c.name), mib_s(n, p.raw_encode_ns));
        out.set(&format!("ecc.{}.decode_clean_mib_s", c.name), mib_s(n, p.raw_decode_ns));
        if let Some(ns) = p.raw_faulty_ns {
            out.set(&format!("ecc.{}.decode_faulty_mib_s", c.name), mib_s(n, ns));
            out.set(&format!("ecc.{}.corrected", c.name), p.raw_corrected as f64);
            out.pin(&format!("ecc.{}.corrected", c.name), p.raw_corrected);
        }
    }

    // The one two-thread number: informational on a shared two-core box.
    if let Some(c) = paths.iter().find(|c| c.name == "rs223_32") {
        let time = |threads| {
            let codec = c.scheme.codec(threads, SHARD).ok()?;
            let mut buf = vec![0u8; codec.encoded_len(c.payload.len())];
            Some(median(
                &[(); 3].map(|()| probes::timed(|| codec.encode_into(c.payload, &mut buf)).1),
            ))
        };
        if let (Some(one), Some(two)) = (time(1), time(2)) {
            out.set("ecc.rs223_32.scaling_eff_2t", one / (2.0 * two));
        }
    }

    if let Some(c) = paths.iter().find(|c| c.name == "secded64") {
        probes::core_micro(c, &setup.ctx, run.seed, out);
    }
    crate::record_ledger(tr, passes, out);
}
