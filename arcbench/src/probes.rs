//! Per-layer probes of the traced run: direct calls into one layer's public
//! functions on the workload's own inputs, timed from outside. Every probe
//! checks what it gets back and counts as an op.

use std::time::Instant;

use arc_core::{ArcContext, ArcReader};
use arc_ecc::EccConfig;

use crate::cells::Outcome;
use crate::inputs::{self, Rng, Scheme, KIB, MIB};
use crate::stats::{geomean, median, mib_s};

/// Nanoseconds `call` takes, with its result.
pub fn timed<R>(call: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = call();
    (out, t0.elapsed().as_nanos() as f64)
}

/// Median nanoseconds of `reps` calls.
fn median_ns(reps: usize, mut call: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(&mut call).1).collect();
    median(&samples)
}

/// Times of one cell's payload through the second writer, the bare chunk
/// codec, and a decode with soft errors, all in nanoseconds.
#[derive(Default, Clone, Copy)]
pub struct PathProbe {
    pub oneshot_ns: f64,
    pub raw_encode_ns: f64,
    pub raw_decode_ns: f64,
    /// Bare-codec and container decode with correctable flips; `None` for a
    /// detect-only scheme.
    pub raw_faulty_ns: Option<f64>,
    pub faulty_decode_ns: Option<f64>,
    /// Bits and devices the bare codec repaired.
    pub raw_corrected: u64,
    pub flips: u64,
    pub inject_ns: f64,
}

/// Probe the container path of one cell around `payload`, whose streamed
/// container is `container`.
pub fn container_path(
    cell: &str,
    scheme: &Scheme,
    payload: &[u8],
    container: &[u8],
    shard_size: usize,
    seed: u64,
    out: &mut Outcome,
) -> PathProbe {
    let mut p = PathProbe::default();

    // The one-shot writer must produce the streamed container, byte for byte.
    let (oneshot, ns) = timed(|| scheme.oneshot_encode(payload, shard_size));
    p.oneshot_ns = ns;
    out.op(
        cell,
        match oneshot {
            Ok(bytes) if bytes == container => None,
            Ok(_) => Some("one-shot container differs from the streamed one".into()),
            Err(why) => Some(why),
        },
    );

    // Same ECC work with no container: chunks the size of the shards.
    let codec = match scheme.codec(1, shard_size.min(MIB)) {
        Ok(c) => c,
        Err(why) => {
            out.op(cell, Some(why));
            return p;
        }
    };
    // Filled, not zeroed: a zeroed allocation is mapped lazily, and its page
    // faults would land in the encode timed below.
    let mut encoded = vec![0xA5u8; codec.encoded_len(payload.len())];
    p.raw_encode_ns = timed(|| codec.encode_into(payload, &mut encoded)).1;
    let (clean, ns) = timed(|| codec.decode_in_place(&mut encoded, payload.len()));
    p.raw_decode_ns = ns;
    out.op(
        cell,
        match clean {
            Ok(r) if r.is_clean() && encoded[..payload.len()] == *payload => None,
            Ok(_) => Some("bare codec: clean decode repaired or changed data".into()),
            Err(e) => Some(format!("bare codec decode: {e}")),
        },
    );
    if !scheme.corrects() {
        return p;
    }

    let (bits, inject_ns) = timed(|| {
        let bits = inputs::correctable_flips(0..payload.len(), seed);
        inputs::flip(&mut encoded, &bits);
        bits
    });
    let (repaired, ns) = timed(|| codec.decode_in_place(&mut encoded, payload.len()));
    p.raw_faulty_ns = Some(ns);
    out.op(
        cell,
        match repaired {
            Ok(r) if encoded[..payload.len()] != *payload => {
                Some(format!("bare codec: data wrong after repairing {r:?}"))
            }
            Ok(r) => {
                p.raw_corrected = r.corrected_bits + r.corrected_devices;
                check_corrected(scheme, r.corrected_bits, r.corrected_devices, bits.len())
            }
            Err(e) => Some(format!("bare codec faulty decode: {e}")),
        },
    );
    drop(encoded);

    let mut damaged = container.to_vec();
    let (placed, ns) = timed(|| {
        let bits = inputs::container_flips(&damaged, seed)?;
        inputs::flip(&mut damaged, &bits);
        Ok::<_, String>(bits)
    });
    p.inject_ns = inject_ns + ns;
    let flips = match placed {
        Ok(bits) => bits.len(),
        Err(why) => {
            out.op(cell, Some(why));
            return p;
        }
    };
    p.flips = (bits.len() + flips) as u64;
    let (decoded, ns) = timed(|| scheme.decode(&damaged));
    p.faulty_decode_ns = Some(ns);
    out.op(
        cell,
        match decoded {
            Ok((data, _)) if data != payload => Some("container: data wrong after repair".into()),
            Ok((_, report)) => {
                let c = report.correction;
                check_corrected(scheme, c.corrected_bits, c.corrected_devices, flips)
            }
            Err(why) => Some(why),
        },
    );
    p
}

/// One cell's container path as the passes ran it: what went in, what came
/// out, and the median times of the streaming encode and the decode.
pub struct PathCell<'a> {
    pub name: &'a str,
    pub scheme: &'a Scheme,
    pub payload: &'a [u8],
    pub container: &'a [u8],
    pub stream_encode_ns: f64,
    pub decode_ns: f64,
}

/// Probe every cell's container path and record the `core.*` and
/// `faultsim.*` numbers they share: throughputs as the geometric mean over
/// cells of payload MiB/s, container overhead as the median share of the
/// path time the bare codec does not account for.
pub fn record_core(
    cells: &[PathCell],
    shard_size: usize,
    seed: u64,
    out: &mut Outcome,
) -> Vec<PathProbe> {
    let (mut stream, mut decode, mut oneshot, mut faulty) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut write_over, mut read_over) = (Vec::new(), Vec::new());
    let (mut flips, mut inject_ns, mut header, mut index) = (0u64, 0.0, 0usize, 0usize);
    let mut probes = Vec::new();
    for c in cells {
        let p = container_path(c.name, c.scheme, c.payload, c.container, shard_size, seed, out);
        stream.push(mib_s(c.payload.len(), c.stream_encode_ns));
        decode.push(mib_s(c.payload.len(), c.decode_ns));
        oneshot.push(mib_s(c.payload.len(), p.oneshot_ns));
        write_over.push(1.0 - p.raw_encode_ns / c.stream_encode_ns);
        read_over.push(1.0 - p.raw_decode_ns / c.decode_ns);
        if let Some(ns) = p.faulty_decode_ns {
            faulty.push(mib_s(c.payload.len(), ns));
        }
        flips += p.flips;
        inject_ns += p.inject_ns;
        match inputs::container_layout(c.container) {
            Ok((h, x)) => {
                header += h;
                index += x;
            }
            Err(why) => out.op(c.name, Some(why)),
        }
        probes.push(p);
    }
    out.set("core.stream_encode_mib_s", geomean(&stream));
    out.set("core.decode_mib_s", geomean(&decode));
    out.set("core.oneshot_encode_mib_s", geomean(&oneshot));
    out.set("core.decode_faulty_mib_s", geomean(&faulty));
    out.set("core.container_write_overhead_frac", median(&write_over));
    out.set("core.container_read_overhead_frac", median(&read_over));
    out.set("core.header_bytes", header as f64);
    out.set("core.index_bytes", index as f64);
    out.set("faultsim.flips", flips as f64);
    out.set("faultsim.inject_s", inject_ns / 1e9);
    out.pin("core.header_bytes", header);
    out.pin("core.index_bytes", index);
    out.pin("faultsim.flips", flips);
    probes
}

/// A bit-correcting scheme must report exactly the flips injected; the
/// device Reed-Solomon reports rebuilt devices, at most one per flip.
fn check_corrected(scheme: &Scheme, bits: u64, devices: u64, flips: usize) -> Option<String> {
    let ok = match scheme {
        Scheme::Builtin(EccConfig::Rs(_)) => bits == 0 && devices >= 1 && devices <= flips as u64,
        _ => bits == flips as u64,
    };
    (!ok).then(|| {
        format!("{}: repaired {bits} bits and {devices} devices for {flips} flips", scheme.id())
    })
}

/// The cheap `arc-core` calls every workload can make on one of its own
/// built-in-scheme containers: optimizer pick, reader open, a cached and an
/// uncached range read, a small batch encode, and the CRC beneath them.
pub fn core_micro(cell: &PathCell, ctx: &ArcContext, seed: u64, out: &mut Outcome) {
    let Scheme::Builtin(config) = *cell.scheme else { return };
    let (payload, container, cell) = (cell.payload, cell.container, cell.name);
    let request = inputs::checkpoint_request();
    let first = ctx.select(&request).ok().map(|s| (s.config.id(), s.overhead));
    if let Some((id, overhead)) = &first {
        out.set("core.selected_overhead_frac", *overhead);
        out.pin("selected_scheme", id.clone());
    }
    let mut flips = 0u64;
    let select_ns = median_ns(200, || {
        if ctx.select(&request).ok().map(|s| (s.config.id(), s.overhead)) != first {
            flips += 1;
        }
    });
    out.set("core.select_us", select_ns / 1e3);
    out.values
        .entry("core.selection_flips".into())
        .and_modify(|v| *v += flips as f64)
        .or_insert(flips as f64);

    out.set("core.reader_open_us", median_ns(20, || drop(ArcReader::open(container, 1))) / 1e3);
    match ArcReader::open(container, 1) {
        Err(e) => out.op(cell, Some(format!("reader open: {e}"))),
        Ok(mut reader) => {
            // One read per shard start, seeded; the first is a miss, the
            // repeat a hit.
            let shard =
                reader.meta().sharding.as_ref().map_or(payload.len(), |s| s.shard_size).max(1);
            let shards = reader.shard_count().max(1) as u64;
            let mut rng = Rng::new(seed);
            let (mut miss, mut hit) = (Vec::new(), Vec::new());
            let mut failure = None;
            for _ in 0..shards.min(32) {
                let offset = rng.below(shards) as usize * shard;
                let len = (64 * KIB).min(payload.len() - offset);
                for _ in 0..2 {
                    let (got, ns) = timed(|| reader.decode_range(offset, len));
                    match got {
                        Ok((data, report)) if data == payload[offset..offset + len] => {
                            if report.cache_hits == report.shards_touched {
                                &mut hit
                            } else {
                                &mut miss
                            }
                            .push(ns);
                        }
                        Ok(_) => {
                            failure = Some("range read differs from the plaintext".to_string())
                        }
                        Err(e) => failure = Some(format!("range read: {e}")),
                    }
                }
            }
            out.op(cell, failure);
            if !miss.is_empty() && !hit.is_empty() {
                out.set("core.range_miss_us", median(&miss) / 1e3);
                out.set("core.range_hit_us", median(&hit) / 1e3);
            }
        }
    }

    let tile = (256 * KIB).min(payload.len() / 4).max(1);
    let tiles: Vec<&[u8]> = payload.chunks(tile).take(4).collect();
    let mut failure = None;
    let batch_ns = median_ns(10, || match arc_core::encode_batch(&tiles, config, 1) {
        Ok(outs) if outs.len() == tiles.len() => {}
        Ok(_) => failure = Some("encode_batch: wrong number of containers".to_string()),
        Err(e) => failure = Some(format!("encode_batch: {e}")),
    });
    out.op(cell, failure);
    out.set("core.batch_encode_us", batch_ns / 1e3);

    let crc_ns = median_ns(5, || {
        std::hint::black_box(arc_ecc::crc::crc32(std::hint::black_box(payload)));
    });
    out.set("ecc.crc32_mib_s", mib_s(payload.len(), crc_ns));
}
