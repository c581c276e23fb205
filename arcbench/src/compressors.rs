//! Probes of the layers beneath the `arc-pressio` trait, on the checkpoint
//! workloads' own fields: direct `arc-sz` / `arc-zfp` calls, their stages
//! where a public function exposes one, and the `arc-lossless` primitives
//! on inputs taken from those stages.

use arc_datasets::Field;
use arc_lossless::bitio::{read_varint, BitReader, BitWriter};
use arc_lossless::huffman::{huffman_decode_block, huffman_encode_block};
use arc_lossless::{lz77, zstd_like};
use arc_pressio::CompressorSpec;
use arc_sz::{ErrorBound, SzConfig};
use arc_zfp::{codec, Grid, ZfpMode};

use crate::cells::Outcome;
use crate::inputs::{Rng, MIB};
use crate::probes::timed;
use crate::stats::{geomean, median, mib_s};

/// One checkpoint cell: its name, field, mode, and the median time its
/// compress plus decompress took through the pressio trait.
pub type DirectCell<'a> = (String, &'a Field, CompressorSpec, f64);

pub fn probe(cells: &[DirectCell], seed: u64, out: &mut Outcome) {
    let mut dispatch = Vec::new();
    let mut sz = SzProbe::default();
    let mut zfp = ZfpProbe::default();
    for (name, field, spec, pressio_ns) in cells {
        let direct_ns = match *spec {
            CompressorSpec::SzAbs(e) => sz.cell(name, field, ErrorBound::Abs(e), out),
            CompressorSpec::SzPwRel(e) => sz.cell(name, field, ErrorBound::PwRel(e), out),
            CompressorSpec::ZfpAcc(e) => zfp.cell(name, field, ZfpMode::FixedAccuracy(e), out),
            CompressorSpec::ZfpRate(r) => zfp.cell(name, field, ZfpMode::FixedRate(r), out),
            _ => None,
        };
        if let Some(ns) = direct_ns {
            dispatch.push(1.0 - ns / pressio_ns);
        }
    }
    if !dispatch.is_empty() {
        out.set("pressio.dispatch_overhead_frac", median(&dispatch));
    }
    sz.record(out);
    zfp.record(out);
    if !sz.compress.is_empty() {
        // Isabel's weather spreads its differences over many bins; CESM's
        // cloud fraction would give a one-symbol stream.
        let busiest = cells.iter().map(|c| c.1).find(|f| f.name.contains("Isabel"));
        if let Some(field) = busiest.or(cells.first().map(|c| c.1)) {
            huffman(field, out);
        }
    }
    if !cells.is_empty() {
        bitio(seed, out);
    }
}

#[derive(Default)]
struct SzProbe {
    compress: Vec<f64>,
    decompress: Vec<f64>,
    nolossless: Vec<f64>,
    lossless_frac: Vec<f64>,
    zstd_compress: Vec<f64>,
    zstd_decompress: Vec<f64>,
    tokenize: Vec<f64>,
    compressed_bytes: usize,
}

impl SzProbe {
    /// Returns the direct compress plus decompress time.
    fn cell(
        &mut self,
        name: &str,
        field: &Field,
        bound: ErrorBound,
        out: &mut Outcome,
    ) -> Option<f64> {
        let bytes = field.byte_len();
        let cfg = SzConfig { bound, ..Default::default() };
        let (stream, c_ns) = timed(|| arc_sz::compress(&field.data, &field.dims, &cfg));
        let stream = check(name, "arc_sz::compress", stream, out)?;
        let (decoded, d_ns) = timed(|| arc_sz::decompress(&stream));
        let decoded = check(name, "arc_sz::decompress", decoded, out)?;
        out.op(
            name,
            (decoded.dims != field.dims).then(|| "arc_sz::decompress: wrong dims".to_string()),
        );
        self.compress.push(mib_s(bytes, c_ns));
        self.decompress.push(mib_s(bytes, d_ns));
        self.compressed_bytes += stream.len();

        // Without the final pass the stream carries the Huffman-coded body
        // as is: the input of the zstd-like stage.
        let bare = SzConfig { final_lossless: false, ..cfg };
        let (stream, n_ns) = timed(|| arc_sz::compress(&field.data, &field.dims, &bare));
        let stream = check(name, "arc_sz::compress without final pass", stream, out)?;
        self.nolossless.push(mib_s(bytes, n_ns));
        self.lossless_frac.push(1.0 - n_ns / c_ns);
        let mut pos = 0;
        let body_len = arc_sz::stream::Header::read(&stream, &mut pos)
            .ok()
            .and_then(|_| read_varint(&stream, &mut pos).ok())
            .map(|n| n as usize);
        let body = match body_len.and_then(|n| stream.get(pos..pos + n)) {
            Some(b) => b,
            None => {
                out.op(name, Some("cannot locate the body of the SZ stream".into()));
                return Some(c_ns + d_ns);
            }
        };
        let (packed, zc_ns) = timed(|| zstd_like::compress(body));
        let (unpacked, zd_ns) = timed(|| zstd_like::decompress(&packed));
        out.op(
            name,
            (unpacked.ok().as_deref() != Some(body))
                .then(|| "zstd_like round trip differs".to_string()),
        );
        self.zstd_compress.push(mib_s(body.len(), zc_ns));
        self.zstd_decompress.push(mib_s(body.len(), zd_ns));
        let head = &body[..body.len().min(4 * MIB)];
        let (tokens, t_ns) = timed(|| lz77::tokenize(head, &lz77::Lz77Config::default()));
        out.op(
            name,
            (lz77::reconstruct(&tokens).ok().as_deref() != Some(head))
                .then(|| "lz77 round trip differs".to_string()),
        );
        self.tokenize.push(mib_s(head.len(), t_ns));
        Some(c_ns + d_ns)
    }

    fn record(&self, out: &mut Outcome) {
        if self.compress.is_empty() {
            return;
        }
        out.set("sz.compress_mib_s", geomean(&self.compress));
        out.set("sz.decompress_mib_s", geomean(&self.decompress));
        out.set("sz.compress_nolossless_mib_s", geomean(&self.nolossless));
        out.set("sz.final_lossless_frac", median(&self.lossless_frac));
        out.set("sz.compressed_bytes", self.compressed_bytes as f64);
        out.pin("sz.compressed_bytes", self.compressed_bytes);
        out.set("lossless.zstd_compress_mib_s", geomean(&self.zstd_compress));
        out.set("lossless.zstd_decompress_mib_s", geomean(&self.zstd_decompress));
        out.set("lossless.lz77_tokenize_mib_s", geomean(&self.tokenize));
    }
}

#[derive(Default)]
struct ZfpProbe {
    compress: Vec<f64>,
    decompress: Vec<f64>,
    forward: Vec<f64>,
    inverse: Vec<f64>,
    embed_frac: Vec<f64>,
    compressed_bytes: usize,
}

impl ZfpProbe {
    fn cell(&mut self, name: &str, field: &Field, mode: ZfpMode, out: &mut Outcome) -> Option<f64> {
        let bytes = field.byte_len();
        let (stream, c_ns) = timed(|| arc_zfp::compress(&field.data, &field.dims, mode));
        let stream = check(name, "arc_zfp::compress", stream, out)?;
        let (decoded, d_ns) = timed(|| arc_zfp::decompress(&stream));
        let decoded = check(name, "arc_zfp::decompress", decoded, out)?;
        out.op(
            name,
            (decoded.dims != field.dims).then(|| "arc_zfp::decompress: wrong dims".to_string()),
        );
        self.compress.push(mib_s(bytes, c_ns));
        self.decompress.push(mib_s(bytes, d_ns));
        self.compressed_bytes += stream.len();

        // Every block through gather + forward transform, then back through
        // inverse transform + scatter, with no embedded coding between: what
        // compress and decompress spend beyond this is the embedding.
        let Some(grid) = Grid::new(&field.dims) else {
            out.op(name, Some("Grid::new rejected the field's dims".into()));
            return Some(c_ns + d_ns);
        };
        let d = grid.d();
        let mut block = vec![0.0f32; grid.block_len()];
        let (coeffs, f_ns) = timed(|| {
            let mut coeffs = Vec::with_capacity(grid.num_blocks());
            for b in 0..grid.num_blocks() {
                grid.gather(&field.data, b, &mut block);
                let max_abs = block.iter().fold(0.0f64, |m, &x| m.max((x as f64).abs()));
                if max_abs > 0.0 && max_abs.is_finite() {
                    let emax = codec::exponent_of(max_abs);
                    coeffs.push(Some((emax, codec::forward_block(&block, emax, d).nb)));
                } else {
                    coeffs.push(None);
                }
            }
            coeffs
        });
        let mut restored = vec![0.0f32; field.data.len()];
        let ((), i_ns) = timed(|| {
            for (b, c) in coeffs.iter().enumerate() {
                match c {
                    Some((emax, nb)) => codec::inverse_block(nb, *emax, d, &mut block),
                    None => block.fill(0.0),
                }
                grid.scatter(&mut restored, b, &block);
            }
        });
        // The transform alone loses only fixed-point rounding.
        let range = arc_pressio::metrics::value_range(&field.data).max(f64::MIN_POSITIVE);
        let worst = arc_pressio::metrics::max_abs_diff(&field.data, &restored);
        out.op(
            name,
            (worst.is_nan() || worst > 1e-5 * range)
                .then(|| format!("transform round trip off by {worst:e}")),
        );
        self.forward.push(mib_s(bytes, f_ns));
        self.inverse.push(mib_s(bytes, i_ns));
        self.embed_frac.push(1.0 - f_ns / c_ns);
        Some(c_ns + d_ns)
    }

    fn record(&self, out: &mut Outcome) {
        if self.compress.is_empty() {
            return;
        }
        out.set("zfp.compress_mib_s", geomean(&self.compress));
        out.set("zfp.decompress_mib_s", geomean(&self.decompress));
        out.set("zfp.forward_blocks_mib_s", geomean(&self.forward));
        out.set("zfp.inverse_blocks_mib_s", geomean(&self.inverse));
        out.set("zfp.embed_frac", median(&self.embed_frac));
        out.set("zfp.compressed_bytes", self.compressed_bytes as f64);
        out.pin("zfp.compressed_bytes", self.compressed_bytes);
    }
}

/// Count a fallible layer call as an op and unwrap it.
fn check<T, E: std::fmt::Display>(
    cell: &str,
    what: &str,
    got: Result<T, E>,
    out: &mut Outcome,
) -> Option<T> {
    match got {
        Ok(v) => {
            out.op(cell, None);
            Some(v)
        }
        Err(e) => {
            out.op(cell, Some(format!("{what}: {e}")));
            None
        }
    }
}

/// SZ's alphabet: 65 536 quantisation bins plus the literal marker.
const ALPHABET: usize = 65_537;

/// Huffman block coding of a quantised-difference symbol stream built the
/// way SZ builds one: the difference to the previous value in units of twice
/// the bound, offset to the middle bin, 0 for what does not fit.
fn huffman(field: &Field, out: &mut Outcome) {
    let mid = (ALPHABET as i64 - 1) / 2;
    let mut prev = 0.0f32;
    let symbols: Vec<u32> = field
        .data
        .iter()
        .map(|&x| {
            let q = ((x - prev) as f64 / 0.2).round() as i64;
            prev = x;
            if (-mid..mid).contains(&q) {
                (q + mid + 1) as u32
            } else {
                0
            }
        })
        .collect();
    let (block, e_ns) = timed(|| huffman_encode_block(&symbols, ALPHABET));
    let Some(block) = check(field.name, "huffman_encode_block", block, out) else { return };
    let (decoded, d_ns) = timed(|| huffman_decode_block(&block, &mut 0));
    out.op(
        field.name,
        (decoded.ok().as_ref() != Some(&symbols)).then(|| "huffman round trip differs".to_string()),
    );
    out.set("lossless.huffman_encode_msym_s", symbols.len() as f64 / 1e6 / (e_ns / 1e9));
    out.set("lossless.huffman_decode_msym_s", symbols.len() as f64 / 1e6 / (d_ns / 1e9));
}

/// `BitWriter` / `BitReader` on seeded widths of 1 to 32 bits.
fn bitio(seed: u64, out: &mut Outcome) {
    let mut rng = Rng::new(seed);
    let items: Vec<(u64, u32)> = (0..4_000_000)
        .map(|_| {
            let width = 1 + rng.below(32) as u32;
            (rng.next() & ((1u64 << width) - 1), width)
        })
        .collect();
    let bits: u64 = items.iter().map(|&(_, w)| w as u64).sum();
    let (bytes, w_ns) = timed(|| {
        let mut w = BitWriter::new();
        for &(value, width) in &items {
            w.write_bits(value, width);
        }
        w.into_bytes()
    });
    let (same, r_ns) = timed(|| {
        let mut r = BitReader::new(&bytes);
        items.iter().all(|&(value, width)| r.read_bits(width).ok() == Some(value))
    });
    out.op("bitio", (!same).then(|| "bit reader did not return what was written".to_string()));
    out.set("lossless.bitio_write_mbit_s", bits as f64 / 1e6 / (w_ns / 1e9));
    out.set("lossless.bitio_read_mbit_s", bits as f64 / 1e6 / (r_ns / 1e9));
}
