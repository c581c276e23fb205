//! Slab-parallel compression: a field larger than [`SLAB_BYTES`] is cut
//! along its slowest axis into slabs of whole rows (planes, in 3-D) that
//! compress and decompress independently, on every core, through
//! `arc_ecc::parallel::par_map`.
//!
//! The plan is a pure function of `dims` ([`plan`]): no option, thread
//! count or host property enters it, so the bytes do not depend on the
//! machine. A field of one slab or less stays today's bare `arc_sz` /
//! `arc_zfp` stream, byte for byte; a larger one becomes a frame:
//!
//! ```text
//! "ASLB" | version u8 | ndims u8 | dims: ndims × u64 LE
//!        | count u32 LE | count × (rows u64 LE, bytes u64 LE) | slab streams
//! ```
//!
//! Each slab stream is a bare codec stream whose header declares
//! `[rows, dims[1..]]`. The decoder checks the whole table — and every
//! slab's header dims — before it allocates the output field, then decodes
//! each slab straight into its rows of that one buffer.

use arc_ecc::parallel::{par_map, resolve_threads};

use crate::compressors::{Codec, Dataset, DecodedDataset, PressioError};

/// Largest field, in bytes of `f32`, kept as one bare codec stream; a larger
/// field is cut into slabs of at most this size (DESIGN.md §23 has the sweep
/// that chose it).
pub const SLAB_BYTES: usize = 4 << 20;

/// Slab boundaries fall on multiples of this many rows, so ZFP's 4^d blocks
/// never straddle two slabs.
const ROW_GROUP: usize = 4;

/// Frame magic, distinct from the codecs' `ASZ1` and `AZFP`.
pub const FRAME_MAGIC: &[u8; 4] = b"ASLB";
const FRAME_VERSION: u8 = 1;

/// Rows of each slab of a field with `dims`; one entry means the field is
/// not cut.
///
/// A field over [`SLAB_BYTES`] gets the fewest slabs that keep each within
/// it, rounded up to an even count so that `par_map`'s contiguous split
/// gives 2 and 4 workers equal shares; its 4-row groups are spread evenly
/// over the slabs.
pub fn plan(dims: &[usize]) -> Vec<usize> {
    let Some((&rows, rest)) = dims.split_first() else {
        return Vec::new();
    };
    let row_bytes = rest.iter().product::<usize>().saturating_mul(4);
    let groups = rows.div_ceil(ROW_GROUP);
    if rows.saturating_mul(row_bytes) <= SLAB_BYTES || groups < 2 {
        return vec![rows];
    }
    let groups_per_slab = (SLAB_BYTES / row_bytes.saturating_mul(ROW_GROUP)).max(1);
    let slabs = groups.div_ceil(groups_per_slab).max(2).next_multiple_of(2).min(groups);
    let edge = |i: usize| (i * groups / slabs * ROW_GROUP).min(rows);
    (0..slabs).map(|i| edge(i + 1) - edge(i)).collect()
}

/// Compress `ds` as slabs of `rows` rows, each through `codec` on up to
/// `workers` threads: the bare stream when `rows` is one slab, else a frame.
/// A plan whose rows are not all positive or do not sum to `dims[0]` is a
/// [`PressioError::Codec`], whatever its length.
pub(crate) fn compress<F>(
    ds: &Dataset<'_>,
    rows: &[usize],
    workers: usize,
    codec: F,
) -> Result<Vec<u8>, PressioError>
where
    F: Fn(&[f32], &[usize]) -> Result<Vec<u8>, PressioError> + Sync,
{
    let bad = |why: String| PressioError::Codec(format!("slab plan: {why}"));
    let (&total_rows, rest) = ds.dims.split_first().ok_or_else(|| bad("no dims".into()))?;
    let covered = rows.iter().try_fold(0usize, |sum, &r| sum.checked_add(r));
    if rows.contains(&0) || covered != Some(total_rows) {
        return Err(bad(format!("rows {rows:?} for {total_rows}")));
    }
    if rows.len() == 1 {
        return codec(ds.data, ds.dims);
    }
    let row_len: usize = rest.iter().product();
    if ds.dims.len() > 3 || row_len.checked_mul(total_rows) != Some(ds.data.len()) {
        return Err(bad(format!("dims {:?} for {} values", ds.dims, ds.data.len())));
    }
    let mut slabs: Vec<(&[f32], Vec<usize>)> = Vec::with_capacity(rows.len());
    let mut data = ds.data;
    for &r in rows {
        let Some((head, tail)) = data.split_at_checked(r * row_len) else {
            return Err(bad(format!("slab rows {rows:?} overrun {} values", ds.data.len())));
        };
        slabs.push((head, [&[r], rest].concat()));
        data = tail;
    }
    let streams = par_map(resolve_threads(workers), &mut slabs, |(data, dims)| codec(data, dims));
    let streams = streams.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(write_frame(ds.dims, rows, &streams))
}

fn write_frame(dims: &[usize], rows: &[usize], streams: &[Vec<u8>]) -> Vec<u8> {
    let table = 6 + 8 * dims.len() + 4 + 16 * rows.len();
    let mut out = Vec::with_capacity(table + streams.iter().map(Vec::len).sum::<usize>());
    out.extend_from_slice(FRAME_MAGIC);
    out.push(FRAME_VERSION);
    out.push(dims.len() as u8);
    for &d in dims {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for (&r, s) in rows.iter().zip(streams) {
        out.extend_from_slice(&(r as u64).to_le_bytes());
        out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    }
    for s in streams {
        out.extend_from_slice(s);
    }
    out
}

/// Whether `bytes` is a slab frame rather than a bare codec stream.
pub(crate) fn is_frame(bytes: &[u8]) -> bool {
    bytes.starts_with(FRAME_MAGIC)
}

/// A frame's table, checked against the bytes it came with.
struct Frame<'a> {
    dims: Vec<usize>,
    /// Rows and stream of each slab, in order.
    slabs: Vec<(usize, &'a [u8])>,
}

/// A little-endian field reader over the frame head.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], PressioError> {
        let (head, rest) = self
            .0
            .split_first_chunk::<N>()
            .ok_or_else(|| PressioError::Codec("slab frame truncated".into()))?;
        self.0 = rest;
        Ok(*head)
    }

    fn usize(&mut self) -> Result<usize, PressioError> {
        let v = u64::from_le_bytes(self.take::<8>()?);
        usize::try_from(v).map_err(|_| PressioError::Codec(format!("slab frame field {v}")))
    }
}

impl<'a> Frame<'a> {
    /// Parse and check the table: rows sum to `dims[0]`, lengths sum to the
    /// bytes present, the slab count is at most `dims[0]`, and the field
    /// holds at most `max_elements` values (else the Timeout class).
    fn read(bytes: &'a [u8], max_elements: u64) -> Result<Frame<'a>, PressioError> {
        let bad = |why: String| PressioError::Codec(format!("slab frame: {why}"));
        let mut cur = Cursor(bytes);
        let [m0, m1, m2, m3, version, ndims] = cur.take::<6>()?;
        if &[m0, m1, m2, m3] != FRAME_MAGIC || version != FRAME_VERSION {
            return Err(bad(format!("bad magic or version {version}")));
        }
        if !(1..=3).contains(&ndims) {
            return Err(bad(format!("{ndims} dims")));
        }
        let mut dims = Vec::new();
        let mut elements = 1u64;
        for _ in 0..ndims {
            let d = cur.usize()?;
            elements = elements.checked_mul(d as u64).ok_or_else(|| bad("dims overflow".into()))?;
            dims.push(d);
        }
        if dims.contains(&0) || usize::try_from(elements).is_err() {
            return Err(bad(format!("dims {dims:?}")));
        }
        if elements > max_elements {
            return Err(PressioError::Timeout { demanded: elements, budget: max_elements });
        }
        let total_rows = dims.first().copied().unwrap_or(0);
        let count = u32::from_le_bytes(cur.take::<4>()?) as usize;
        if count == 0 || count > total_rows {
            return Err(bad(format!("{count} slabs for {total_rows} rows")));
        }
        // Each entry is read before it is kept: the table is bounded by the
        // bytes present, whatever `count` claims.
        let mut table = Vec::new();
        let (mut row_sum, mut byte_sum) = (0usize, 0usize);
        for _ in 0..count {
            let (rows, len) = (cur.usize()?, cur.usize()?);
            if rows == 0 {
                return Err(bad("empty slab".into()));
            }
            row_sum = row_sum.saturating_add(rows);
            byte_sum = byte_sum.saturating_add(len);
            table.push((rows, len));
        }
        let mut body = cur.0;
        if row_sum != total_rows || byte_sum != body.len() {
            return Err(bad(format!(
                "table covers {row_sum} of {total_rows} rows and {byte_sum} of {} bytes",
                body.len()
            )));
        }
        let mut slabs = Vec::new();
        for (rows, len) in table {
            let (stream, rest) =
                body.split_at_checked(len).ok_or_else(|| bad("slab overruns frame".into()))?;
            slabs.push((rows, stream));
            body = rest;
        }
        Ok(Frame { dims, slabs })
    }
}

/// Decode a slab frame: check the table and every slab's header dims, then
/// allocate the field once and decode each slab into its rows on up to
/// `workers` threads. The first slab's magic names the codec of every slab,
/// so a frame that mixes codecs is refused at the header check. On `Err`
/// nothing partly written is returned.
pub(crate) fn decompress(
    bytes: &[u8],
    max_elements: u64,
    workers: usize,
) -> Result<DecodedDataset, PressioError> {
    let Frame { dims, slabs } = Frame::read(bytes, max_elements)?;
    let codec = Codec::of(slabs.first().map(|&(_, stream)| stream).unwrap_or_default())?;
    let rest = dims.get(1..).unwrap_or_default();
    let row_len: usize = rest.iter().product();
    for (i, &(rows, stream)) in slabs.iter().enumerate() {
        let want = [&[rows], rest].concat();
        let got = codec.header_dims(stream)?;
        if got != want {
            return Err(PressioError::Codec(format!(
                "slab {i} declares dims {got:?}, frame {want:?}"
            )));
        }
    }
    // Bounded: Frame::read checked the product of dims against max_elements.
    let mut data = vec![0.0f32; dims.iter().product()];
    let mut jobs: Vec<(&[u8], &mut [f32])> = Vec::with_capacity(slabs.len());
    let mut out = data.as_mut_slice();
    for (rows, stream) in slabs {
        let (head, tail) = out
            .split_at_mut_checked(rows * row_len)
            .ok_or_else(|| PressioError::Codec("slab rows overrun the field".into()))?;
        jobs.push((stream, head));
        out = tail;
    }
    let results = par_map(resolve_threads(workers), &mut jobs, |(stream, out)| {
        codec.decode_into(stream, out)
    });
    results.into_iter().collect::<Result<(), _>>()?;
    Ok(DecodedDataset { data, dims })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressors::{Compressor, CompressorSpec};
    use crate::metrics::{incorrect_elements, psnr};

    /// A field whose range differs from row to row: a ramp under ripples.
    fn ramp(dims: &[usize]) -> Vec<f32> {
        let row_len: usize = dims[1..].iter().product();
        (0..dims.iter().product::<usize>())
            .map(|i| {
                let (r, c) = ((i / row_len) as f32, (i % row_len) as f32);
                r * 0.5 + (c * 0.05).sin() * (1.0 + r * 0.02) + (r * c * 1e-3).cos()
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The slab streams of a frame, in order.
    fn slab_streams(frame: &[u8]) -> Vec<(usize, Vec<u8>)> {
        let f = Frame::read(frame, u64::MAX).unwrap();
        f.slabs.into_iter().map(|(rows, s)| (rows, s.to_vec())).collect()
    }

    /// Compress through the crate-internal entry on `workers` threads, and
    /// decode the frame on `workers` threads.
    fn round_trip(
        spec: CompressorSpec,
        ds: &Dataset<'_>,
        rows: &[usize],
        workers: usize,
    ) -> (Vec<u8>, DecodedDataset) {
        let frame = spec.compress_on(ds, rows, workers).unwrap();
        let decoded = decompress(&frame, u64::MAX, workers).unwrap();
        (frame, decoded)
    }

    const MODES: [CompressorSpec; 5] = [
        CompressorSpec::SzAbs(0.01),
        CompressorSpec::SzPwRel(0.01),
        CompressorSpec::SzPsnr(70.0),
        CompressorSpec::ZfpAcc(0.01),
        CompressorSpec::ZfpRate(12.0),
    ];

    /// Every mode's frame round-trips within its bound, and is the same
    /// bytes, and decodes to the same bits, on one worker and on two.
    fn frames_hold_at_one_and_two_workers(data: &[f32], dims: &[usize], rows: &[usize]) {
        let ds = Dataset { data, dims };
        for spec in MODES {
            let what = format!("{} {dims:?} rows {rows:?}", spec.name());
            let (frame1, out1) = round_trip(spec, &ds, rows, 1);
            let (frame2, out2) = round_trip(spec, &ds, rows, 2);
            assert!(is_frame(&frame1), "{what}");
            assert_eq!(frame1, frame2, "{what}: frame depends on the worker count");
            assert_eq!(
                bits(&out1.data),
                bits(&out2.data),
                "{what}: decode depends on the worker count"
            );
            assert_eq!(out1.dims, dims, "{what}");
            // The public path decodes the same frame to the same bits.
            let public = spec.decompress(&frame1).unwrap();
            assert_eq!(bits(&public.data), bits(&out1.data), "{what}");
            let achieved = psnr(data, &out1.data);
            match (spec, spec.bound_spec()) {
                (_, Some(bound)) => {
                    assert_eq!(incorrect_elements(data, &out1.data, bound), 0, "{what}: bound");
                }
                (CompressorSpec::SzPsnr(target), None) => {
                    assert!(achieved >= target, "{what}: PSNR {achieved}");
                }
                _ => assert!(achieved > 40.0, "{what}: PSNR {achieved}"),
            }
        }
    }

    #[test]
    fn multi_slab_frames_are_identical_at_one_and_two_workers() {
        let dims = [48usize, 40];
        frames_hold_at_one_and_two_workers(&ramp(&dims), &dims, &[16, 16, 16]);
        let dims = [26usize, 12, 9];
        frames_hold_at_one_and_two_workers(&ramp(&dims), &dims, &[8, 4, 12, 2]);
        let dims = [1000usize];
        frames_hold_at_one_and_two_workers(&ramp(&dims), &dims, &[500, 500]);
    }

    /// arcbench's checkpoint fields, cut by the real plan. Run by
    /// `scripts/check.sh --full`.
    #[test]
    #[ignore = "release-scale variant"]
    fn checkpoint_scale_frames_hold_at_one_and_two_workers() {
        use arc_datasets::SdrDataset;
        for (ds, dims) in [
            (SdrDataset::CesmCldlow, vec![900usize, 1800]),
            (SdrDataset::IsabelPressure, vec![50, 250, 250]),
            (SdrDataset::NyxTemperature, vec![128, 128, 128]),
        ] {
            let field = ds.generate(&dims, 24301);
            let rows = plan(&dims);
            assert!(rows.len() >= 2, "{dims:?} is one slab");
            frames_hold_at_one_and_two_workers(&field.data, &dims, &rows);
        }
    }

    #[test]
    fn psnr_slabs_carry_the_whole_field_bound() {
        // SZ's own PSNR test field: a trend along the rows, so each slab's
        // range is a fraction of the field's.
        let dims = [100usize, 100];
        let data: Vec<f32> = (0..100 * 100)
            .map(|i| {
                let (r, c) = ((i / 100) as f32, (i % 100) as f32);
                (r * 0.05).sin() * (c * 0.03).cos() * 10.0 + 0.1 * r
            })
            .collect();
        let ds = Dataset { data: &data, dims: &dims };
        let target = 60.0;
        let cfg =
            arc_sz::SzConfig { bound: arc_sz::ErrorBound::Psnr(target), ..Default::default() };
        let whole = arc_sz::compress(&data, &dims, &cfg).unwrap();
        let whole_eb = arc_sz::stream::Header::read(&whole, &mut 0).unwrap().abs_eb;
        let (frame, decoded) =
            round_trip(CompressorSpec::SzPsnr(target), &ds, &[24, 24, 24, 28], 2);
        for (rows, stream) in slab_streams(&frame) {
            let header = arc_sz::stream::Header::read(&stream, &mut 0).unwrap();
            assert_eq!(header.abs_eb.to_bits(), whole_eb.to_bits(), "slab of {rows} rows");
            assert_eq!(header.bound, cfg.bound);
        }
        // Each slab resolving its own range would have tightened the bound.
        let own = arc_sz::compress(&data[..24 * 100], &[24, 100], &cfg).unwrap();
        assert!(arc_sz::stream::Header::read(&own, &mut 0).unwrap().abs_eb < whole_eb);
        let achieved = psnr(&data, &decoded.data);
        assert!(achieved >= target, "PSNR {achieved} under {target}");
    }

    #[test]
    fn damaged_tables_and_budgets_are_typed_errors() {
        let dims = [48usize, 40];
        let data = ramp(&dims);
        let ds = Dataset { data: &data, dims: &dims };
        let frame = CompressorSpec::SzAbs(0.01).compress_on(&ds, &[16, 16, 16], 1).unwrap();
        let n = data.len() as u64;
        assert!(matches!(
            decompress(&frame, n - 1, 1),
            Err(PressioError::Timeout { demanded, .. }) if demanded == n
        ));
        // Table: rows at 26.., lengths at 34..; dims at 6..22.
        let table = 6 + 16 + 4;
        let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
        let mut rows = frame.clone();
        rows[table] = 17;
        cases.push(("rows sum", rows));
        let mut swap = frame.clone();
        swap[table] = 32;
        swap[table + 16] = 0;
        cases.push(("empty slab", swap));
        let mut len = frame.clone();
        len[table + 8] ^= 1;
        cases.push(("length sum", len));
        let mut dim = frame.clone();
        dim[6] = 47;
        cases.push(("dims", dim));
        let mut count = frame.clone();
        count[table - 4] = 49;
        cases.push(("count", count));
        cases.push(("truncated", frame[..frame.len() - 1].to_vec()));
        cases.push(("table only", frame[..table + 3 * 16].to_vec()));
        // Rows that still sum to dims[0] but disagree with the slab headers.
        let mut moved = frame.clone();
        moved[table] = 12;
        moved[table + 16] = 20;
        cases.push(("header dims", moved));
        for (what, bytes) in cases {
            assert!(decompress(&bytes, u64::MAX, 2).is_err(), "{what}");
        }
    }

    /// A plan must cover `dims[0]` with positive rows, whatever its length;
    /// a sum that overflows is refused, not wrapped or panicked on.
    #[test]
    fn bad_plans_are_refused_whatever_their_length() {
        let cases: [(&[usize], &[usize]); 6] = [
            (&[1, 8], &[usize::MAX, 2]),
            (&[1, 8], &[999]),
            (&[1, 8], &[]),
            (&[1, 8], &[0, 1]),
            (&[48, 40], &[16, 16, 15]),
            (&[48, 40], &[16, 0, 32]),
        ];
        for spec in MODES {
            for (dims, rows) in cases {
                let data = ramp(dims);
                let got = spec.compress_rows(&Dataset { data: &data, dims }, rows);
                let what = format!("{} {dims:?} rows {rows:?}", spec.name());
                assert!(matches!(got, Err(PressioError::Codec(_))), "{what}");
            }
            let data = ramp(&[1, 8]);
            assert!(spec.compress_rows(&Dataset { data: &data, dims: &[1, 8] }, &[1]).is_ok());
        }
    }

    /// The decode takes nothing but the bytes: every mode's bare stream and
    /// frame decode as their codec's own decoder decodes them, slab by slab.
    #[test]
    fn streams_pick_their_decoder_by_magic() {
        let dims = [48usize, 40];
        let data = ramp(&dims);
        let ds = Dataset { data: &data, dims: &dims };
        let own = |stream: &[u8]| match Codec::of(stream).unwrap() {
            Codec::Sz => arc_sz::decompress(stream).unwrap().data,
            Codec::Zfp => arc_zfp::decompress(stream).unwrap().data,
        };
        for spec in MODES {
            for rows in [&[48][..], &[16, 16, 16]] {
                let what = format!("{} rows {rows:?}", spec.name());
                let bytes = spec.compress_rows(&ds, rows).unwrap();
                let want: Vec<f32> = if is_frame(&bytes) {
                    slab_streams(&bytes).iter().flat_map(|(_, s)| own(s)).collect()
                } else {
                    own(&bytes)
                };
                let got = crate::decompress(&bytes, u64::MAX).unwrap();
                assert_eq!(got.dims, dims, "{what}");
                assert_eq!(bits(&got.data), bits(&want), "{what}");
            }
        }
        // A frame whose second slab is the other codec is refused.
        let slab = |spec: CompressorSpec, i: usize| {
            let frame = spec.compress_rows(&ds, &[16, 16, 16]).unwrap();
            slab_streams(&frame).swap_remove(i).1
        };
        let (sz, zfp) = (CompressorSpec::SzAbs(0.01), CompressorSpec::ZfpRate(8.0));
        for (a, b) in [(sz, zfp), (zfp, sz)] {
            let mixed = write_frame(&dims, &[16, 16, 16], &[slab(a, 0), slab(b, 1), slab(a, 2)]);
            let got = crate::decompress(&mixed, u64::MAX);
            assert!(matches!(got, Err(PressioError::Codec(_))), "{} then {}", a.name(), b.name());
        }
        let unknown = b"ASZ2\0\0\0\0\0\0\0\0\0\0\0\0".as_slice();
        for bytes in [unknown, b"", b"ASL", b"AZF"] {
            let got = crate::decompress(bytes, u64::MAX);
            assert!(matches!(got, Err(PressioError::Codec(_))), "{bytes:?}: {got:?}");
        }
    }

    #[test]
    fn small_fields_are_one_slab() {
        for dims in [vec![1usize], vec![32, 32], vec![450, 900], vec![25, 125, 125], vec![96; 3]] {
            assert_eq!(plan(&dims), vec![dims[0]], "{dims:?}");
        }
        // Exactly one slab's bytes is still one slab.
        assert_eq!(plan(&[1024, 1024]), vec![1024]);
        // Too few rows to cut: one group.
        assert_eq!(plan(&[4, 1 << 22]), vec![4]);
    }

    #[test]
    fn large_fields_cut_into_an_even_count_of_four_row_groups() {
        // arcbench's checkpoint fields.
        assert_eq!(plan(&[900, 1800]), vec![448, 452]);
        assert_eq!(plan(&[50, 250, 250]), vec![12, 12, 12, 14]);
        assert_eq!(plan(&[128, 128, 128]), vec![64, 64]);
        for dims in [vec![1025usize, 1024], vec![9, 5, 1 << 20], vec![1 << 23], vec![513, 64, 64]] {
            let rows = plan(&dims);
            assert_eq!(rows.iter().sum::<usize>(), dims[0], "{dims:?}");
            assert!(rows.len() >= 2, "{dims:?}: {rows:?}");
            let row_bytes: usize = dims[1..].iter().product::<usize>() * 4;
            for (i, &r) in rows.iter().enumerate() {
                assert!(r > 0 && (r % ROW_GROUP == 0 || i == rows.len() - 1), "{dims:?}: {rows:?}");
                assert!(r * row_bytes <= SLAB_BYTES || r <= ROW_GROUP, "{dims:?}: {rows:?}");
            }
        }
    }
}
