//! Several clients in one process: each owns an `ArcReader` over one shared
//! v2 container and interleaves seeded `decode_range`, `StreamEncoder`
//! writes and `encode_batch` calls across two Reed-Solomon geometries and
//! `secded:64`. The clients share nothing but the container and the
//! process-wide state under the codecs (the `rs.rs` coefficient cache and
//! its per-thread memo, the `rscode` generator cache behind every header and
//! index, the lazily built GF/CRC/SEC-DED tables, worker pools), so every
//! result must be byte-identical to the same op run alone on one thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use arc_core::stream::{StreamEncoder, StreamOptions};
use arc_core::{arc_engine_encode_sharded, encode_batch, ArcReader};
use arc_ecc::EccConfig;

const CLIENTS: usize = 3;
const OPS_PER_CLIENT: usize = 40;
const DATA_LEN: usize = 1 << 20;
const SHARD_SIZE: usize = 64 << 10;

fn fill(len: usize, mut state: u64) -> Vec<u8> {
    let mut data = Vec::with_capacity(len + 8);
    while data.len() < len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        data.extend_from_slice(&state.to_le_bytes());
    }
    data.truncate(len);
    data
}

enum Op {
    Read { offset: usize, len: usize },
    Stream { config: EccConfig, start: usize, len: usize, threads: usize },
    Batch { config: EccConfig, requests: Vec<(usize, usize)> },
}

/// Client `c`'s op list: 50 % range reads, 30 % streaming writes, 20 %
/// batch encodes, all drawn from the client's own seed.
fn ops_for(client: usize, scratch_len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(0xC11E_0000 + client as u64);
    let mut below = |n: usize| rng.random_range(0..n as u64) as usize;
    // Two RS geometries, so a thread's last-used coefficient memo keeps
    // changing hands; SEC-DED for the table-driven path.
    let configs =
        [EccConfig::rs(16, 4).unwrap(), EccConfig::rs(10, 3).unwrap(), EccConfig::secded(true)];
    (0..OPS_PER_CLIENT)
        .map(|_| match below(10) {
            0..=4 => {
                let len = 1 + below(96 << 10);
                Op::Read { offset: below(DATA_LEN - len), len }
            }
            5..=7 => {
                let len = (32 << 10) + below(128 << 10);
                Op::Stream {
                    config: configs[below(3)],
                    start: below(scratch_len - len),
                    len,
                    threads: 1 + below(2),
                }
            }
            _ => Op::Batch {
                config: configs[below(3)],
                requests: (0..4)
                    .map(|_| {
                        let len = (2 << 10) + below(14 << 10);
                        (below(scratch_len - len), len)
                    })
                    .collect(),
            },
        })
        .collect()
}

/// Run one op; the result is every byte it produced (a batch's containers
/// back to back, each behind its length).
fn run_op(op: &Op, reader: &mut ArcReader<'_>, scratch: &[u8]) -> Vec<u8> {
    match op {
        Op::Read { offset, len } => reader.decode_range(*offset, *len).expect("range read").0,
        Op::Stream { config, start, len, threads } => {
            let opts = StreamOptions { threads: *threads, shard_size: 32 << 10 };
            let mut enc = StreamEncoder::new(Vec::new(), *config, opts).expect("stream encoder");
            for piece in scratch[*start..*start + *len].chunks(8 << 10) {
                enc.push(piece).expect("stream push");
            }
            enc.finish().expect("stream finish").0
        }
        Op::Batch { config, requests } => {
            let requests: Vec<&[u8]> = requests.iter().map(|&(s, l)| &scratch[s..s + l]).collect();
            let mut out = Vec::new();
            for container in encode_batch(&requests, *config, 1).expect("batch encode") {
                out.extend_from_slice(&(container.len() as u64).to_le_bytes());
                out.extend_from_slice(&container);
            }
            out
        }
    }
}

#[test]
fn concurrent_clients_match_single_threaded_results() {
    let data = fill(DATA_LEN, 0x243F_6A88_85A3_08D3);
    let scratch = fill(512 << 10, 0x1319_8A2E_0370_7344);
    let mut container =
        arc_engine_encode_sharded(&data, EccConfig::rs(16, 4).unwrap(), 1, SHARD_SIZE).unwrap();
    // One damaged device in every fourth shard, so reads run the erasure
    // solve, not only the CRC scan (checked at the end).
    let unpacked = arc_core::container::unpack(&container).unwrap();
    let damaged: Vec<usize> = unpacked
        .index
        .expect("v2 container")
        .entries
        .iter()
        .step_by(4)
        .map(|e| unpacked.payload_offset + e.offset + 1000)
        .collect();
    for at in damaged {
        container[at] ^= 0x5A;
    }
    let plans: Vec<Vec<Op>> = (0..CLIENTS).map(|c| ops_for(c, scratch.len())).collect();

    // The concurrent run goes first, so the clients are also the ones that
    // find the lazy tables and caches cold. A barrier before every op keeps
    // the clients in step: each op overlaps the other clients' ops.
    let barrier = Barrier::new(CLIENTS);
    let concurrent: Vec<Vec<std::thread::Result<Vec<u8>>>> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let (container, scratch, barrier) = (&container, &scratch, &barrier);
                s.spawn(move || {
                    // No shard cache: every read decodes.
                    let mut reader = ArcReader::with_cache_capacity(container, 1, 0).unwrap();
                    plan.iter()
                        .map(|op| {
                            barrier.wait();
                            // A client whose op panics must still turn up
                            // at the next barrier, or the others hang there.
                            catch_unwind(AssertUnwindSafe(|| run_op(op, &mut reader, scratch)))
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
    });

    for (client, (plan, got)) in plans.iter().zip(&concurrent).enumerate() {
        let mut reader = ArcReader::with_cache_capacity(&container, 1, 0).unwrap();
        for (i, (op, got)) in plan.iter().zip(got).enumerate() {
            let alone = run_op(op, &mut reader, &scratch);
            let got = got.as_ref().unwrap_or_else(|_| panic!("client {client} op {i} panicked"));
            assert!(*got == alone, "client {client} op {i} differs from the single-threaded run");
            if let Op::Read { offset, len } = op {
                assert!(*got == data[*offset..*offset + *len], "client {client} op {i} misread");
            }
        }
    }
    let mut reader = ArcReader::with_cache_capacity(&container, 1, 0).unwrap();
    assert_eq!(reader.decode_range(0, 1).unwrap().1.correction.corrected_devices, 1);
}
