//! # arc-cli — command-line interface to ARC
//!
//! File-level access to the ARC pipeline: `protect` a file under
//! storage/throughput/resiliency constraints, `recover` it (repairing any
//! soft errors picked up in storage), `verify` without writing, `inspect`
//! the container header, pre-`train` the throughput cache, and print the
//! §6.4 `failure-model` guidance.
//!
//! The argument parser is hand-rolled and lives here (in the library) so it
//! can be unit-tested; `main.rs` is a thin shell around [`run`].

#![warn(missing_docs)]
// Library code never aborts on the data it protects. Lib targets only (a bin
// may exit on a CLI error); clippy.toml exempts `#[cfg(test)]` code.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::path::PathBuf;

use arc_core::container::{IndexRepair, Unpacked};
use arc_core::{
    decode_with_registry, standard_extensions, ArcContext, ArcDecodeReport, ArcOptions,
    EncodeRequest, ErrorResponse, MemoryConstraint, ResiliencyConstraint, SystemProfile,
    ThroughputConstraint, TrainingOptions, ANY_THREADS,
};
use arc_ecc::EccMethod;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Protect `input` into `output` under the given constraints.
    Protect {
        /// Source file.
        input: PathBuf,
        /// Destination container.
        output: PathBuf,
        /// Encode constraints.
        request: EncodeRequest,
        /// Thread cap (0 = all).
        threads: usize,
        /// Cache directory override.
        cache: Option<PathBuf>,
        /// Use small training probes (fast first run, coarser estimates).
        quick_train: bool,
    },
    /// Decode `input` into `output`, repairing if needed.
    Recover {
        /// Container file.
        input: PathBuf,
        /// Destination for the recovered bytes.
        output: PathBuf,
        /// Thread cap (0 = all).
        threads: usize,
    },
    /// Decode and report, writing nothing.
    Verify {
        /// Container file.
        input: PathBuf,
        /// Thread cap (0 = all).
        threads: usize,
    },
    /// Print the container header without decoding the payload.
    Inspect {
        /// Container file.
        input: PathBuf,
    },
    /// Warm the training cache.
    Train {
        /// Thread cap (0 = all).
        threads: usize,
        /// Cache directory override.
        cache: Option<PathBuf>,
        /// Use small training probes.
        quick_train: bool,
    },
    /// Print §6.4 guidance for a named system profile.
    FailureModel {
        /// "cielo" or "hopper".
        system: String,
        /// Data residency in days for the errors-per-MB estimate.
        days: f64,
    },
    /// Print usage.
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
arc-cli — Automated Resiliency for Compression

USAGE:
  arc-cli protect <input> <output> [--mem F] [--bw MBPS]
          [--errors-per-mb R | --ecc METHOD[,METHOD…] | --burst | --sparse]
          [--threads N] [--cache DIR] [--quick-train]
  arc-cli recover <input> <output> [--threads N]
  arc-cli verify  <input> [--threads N]
  arc-cli inspect <input>
  arc-cli train   [--threads N] [--cache DIR] [--quick-train]
  arc-cli failure-model <cielo|hopper> [--days D]
  arc-cli help

CONSTRAINTS (protect):
  --mem F            storage cap as a fraction of the input (e.g. 0.25)
  --bw MBPS          encoding-throughput floor in MB/s
  --errors-per-mb R  expected uniformly distributed soft errors per MB
  --ecc METHODS      restrict to methods: parity, hamming, secded, rs
  --burst            require burst correction (ARC_COR_BURST)
  --sparse           require sparse correction (ARC_COR_SPARSE)
";

fn parse_method(s: &str) -> Result<EccMethod, String> {
    match s {
        "parity" => Ok(EccMethod::Parity),
        "hamming" => Ok(EccMethod::Hamming),
        "secded" => Ok(EccMethod::SecDed),
        "rs" | "reed-solomon" => Ok(EccMethod::Rs),
        other => Err(format!("unknown ECC method {other:?}")),
    }
}

/// Parse an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().peekable();
    let cmd = it.next().map(String::as_str).unwrap_or("help");
    let mut positional: Vec<String> = Vec::new();
    let mut mem = MemoryConstraint::Any;
    let mut bw = ThroughputConstraint::Any;
    let mut resiliency = ResiliencyConstraint::Any;
    let mut threads = ANY_THREADS;
    let mut cache: Option<PathBuf> = None;
    let mut quick_train = false;
    let mut days = 30.0f64;
    let take_value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                      flag: &str|
     -> Result<String, String> {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--mem" => {
                let v: f64 = take_value(&mut it, "--mem")?
                    .parse()
                    .map_err(|_| "--mem needs a number".to_string())?;
                mem = MemoryConstraint::Fraction(v);
            }
            "--bw" => {
                let v: f64 = take_value(&mut it, "--bw")?
                    .parse()
                    .map_err(|_| "--bw needs a number".to_string())?;
                bw = ThroughputConstraint::MbPerS(v);
            }
            "--errors-per-mb" => {
                let v: f64 = take_value(&mut it, "--errors-per-mb")?
                    .parse()
                    .map_err(|_| "--errors-per-mb needs a number".to_string())?;
                resiliency = ResiliencyConstraint::ErrorsPerMb(v);
            }
            "--ecc" => {
                let list = take_value(&mut it, "--ecc")?;
                let methods: Result<Vec<EccMethod>, String> =
                    list.split(',').map(parse_method).collect();
                resiliency = ResiliencyConstraint::Methods(methods?);
            }
            "--burst" => {
                resiliency = ResiliencyConstraint::Responses(vec![ErrorResponse::CorrectBurst])
            }
            "--sparse" => {
                resiliency = ResiliencyConstraint::Responses(vec![ErrorResponse::CorrectSparse])
            }
            "--threads" => {
                threads = take_value(&mut it, "--threads")?
                    .parse()
                    .map_err(|_| "--threads needs an integer".to_string())?;
            }
            "--cache" => cache = Some(PathBuf::from(take_value(&mut it, "--cache")?)),
            "--quick-train" => quick_train = true,
            "--days" => {
                days = take_value(&mut it, "--days")?
                    .parse()
                    .map_err(|_| "--days needs a number".to_string())?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            pos => positional.push(pos.to_string()),
        }
    }
    let need = |n: usize, what: &str| -> Result<(), String> {
        if positional.len() != n {
            Err(format!("{cmd}: expected {what}"))
        } else {
            Ok(())
        }
    };
    match cmd {
        "protect" => {
            need(2, "<input> <output>")?;
            Ok(Command::Protect {
                input: PathBuf::from(&positional[0]),
                output: PathBuf::from(&positional[1]),
                request: EncodeRequest { memory: mem, throughput: bw, resiliency },
                threads,
                cache,
                quick_train,
            })
        }
        "recover" => {
            need(2, "<input> <output>")?;
            Ok(Command::Recover {
                input: PathBuf::from(&positional[0]),
                output: PathBuf::from(&positional[1]),
                threads,
            })
        }
        "verify" => {
            need(1, "<input>")?;
            Ok(Command::Verify { input: PathBuf::from(&positional[0]), threads })
        }
        "inspect" => {
            need(1, "<input>")?;
            Ok(Command::Inspect { input: PathBuf::from(&positional[0]) })
        }
        "train" => {
            need(0, "no positional arguments")?;
            Ok(Command::Train { threads, cache, quick_train })
        }
        "failure-model" => {
            need(1, "<cielo|hopper>")?;
            Ok(Command::FailureModel { system: positional[0].clone(), days })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command {other:?}; try `arc-cli help`")),
    }
}

fn options(threads: usize, cache: Option<PathBuf>, quick_train: bool) -> ArcOptions {
    let mut opts = ArcOptions { max_threads: threads, ..Default::default() };
    if let Some(dir) = cache {
        opts.cache_path = Some(dir.join("training.tsv"));
    }
    if quick_train {
        opts.training = TrainingOptions {
            sample_bytes: 256 << 10,
            rs_sample_bytes: 64 << 10,
            ..Default::default()
        };
    }
    opts
}

/// Execute a parsed command; returns the process exit code.
pub fn run(cmd: Command) -> i32 {
    match execute(cmd) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("arc-cli: {e}");
            1
        }
    }
}

fn execute(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Help => {
            print!("{USAGE}");
            Ok(())
        }
        Command::Protect { input, output, request, threads, cache, quick_train } => {
            let data = std::fs::read(&input).map_err(|e| format!("read {input:?}: {e}"))?;
            let ctx = ArcContext::init(options(threads, cache, quick_train))
                .map_err(|e| e.to_string())?;
            let (encoded, sel) = ctx.encode(&data, &request).map_err(|e| e.to_string())?;
            std::fs::write(&output, &encoded).map_err(|e| format!("write {output:?}: {e}"))?;
            println!(
                "protected {} -> {} with {} on {} thread(s); overhead {:.2}% ({} -> {} bytes)",
                input.display(),
                output.display(),
                sel.config,
                sel.threads,
                100.0 * (encoded.len() as f64 - data.len() as f64) / data.len().max(1) as f64,
                data.len(),
                encoded.len()
            );
            for note in &sel.notes {
                println!("warning: {note}");
            }
            ctx.close().map_err(|e| e.to_string())
        }
        Command::Recover { input, output, threads } => {
            let bytes = std::fs::read(&input).map_err(|e| format!("read {input:?}: {e}"))?;
            let (data, report) = decode_stock(&bytes, threads)?;
            std::fs::write(&output, &data).map_err(|e| format!("write {output:?}: {e}"))?;
            println!("recovered {} -> {}", input.display(), output.display());
            print!("{}", render_report(&report));
            Ok(())
        }
        Command::Verify { input, threads } => {
            let bytes = std::fs::read(&input).map_err(|e| format!("read {input:?}: {e}"))?;
            let (_, report) =
                decode_stock(&bytes, threads).map_err(|e| format!("verification failed: {e}"))?;
            print!("{}", render_report(&report));
            Ok(())
        }
        Command::Inspect { input } => {
            let bytes = std::fs::read(&input).map_err(|e| format!("read {input:?}: {e}"))?;
            let u = arc_core::container::unpack(&bytes).map_err(|e| e.to_string())?;
            print!("{}", render_inspect(&u));
            Ok(())
        }
        Command::Train { threads, cache, quick_train } => {
            let ctx = ArcContext::init(options(threads, cache, quick_train))
                .map_err(|e| e.to_string())?;
            let s = ctx.training_stats();
            println!(
                "trained {} point(s) across {} configuration(s) in {:.2}s",
                s.points_measured, s.configs_trained, s.seconds
            );
            ctx.close().map_err(|e| e.to_string())
        }
        Command::FailureModel { system, days } => {
            let profile = match system.as_str() {
                "cielo" => SystemProfile::cielo(),
                "hopper" => SystemProfile::hopper(),
                other => return Err(format!("unknown system {other:?} (cielo|hopper)")),
            };
            println!("{}", profile.summary());
            println!(
                "expected soft errors per MB over {days} day(s) of residency: {:.3e}",
                profile.errors_per_mb(days)
            );
            println!("recommended resiliency constraint: {:?}", profile.recommended_resiliency());
            Ok(())
        }
    }
}

/// Decode a container of any built-in scheme or stock extension family
/// (`x:bch`, `x:ileave-rs`), as `recover` and `verify` read it.
fn decode_stock(bytes: &[u8], threads: usize) -> Result<(Vec<u8>, ArcDecodeReport), String> {
    let registry = standard_extensions().map_err(|e| e.to_string())?;
    decode_with_registry(bytes, threads, &registry).map_err(|e| e.to_string())
}

/// RS symbols a header or index codeword repaired, as the health lines
/// print them.
fn repaired(symbols: usize) -> String {
    match symbols {
        0 => "clean".to_string(),
        n => format!("{n} symbol(s) repaired"),
    }
}

/// Which index copy answered (or that the vote did) and what it repaired.
fn index_health(repair: &IndexRepair) -> String {
    let source = if repair.majority_voted {
        "majority vote of the 3 copies".to_string()
    } else {
        format!("copy {} of 3", repair.copy_used + 1)
    };
    format!("{source}, {}", repaired(repair.symbols_corrected))
}

/// What `verify` and `recover` print for a decode that succeeded: the
/// verdict over every layer ([`ArcDecodeReport::is_clean`]), then each
/// layer's own repairs, so damage to a header or index copy is named even
/// when the payload itself was untouched.
fn render_report(r: &ArcDecodeReport) -> String {
    let c = &r.correction;
    let mut out = format!(
        "status:        {}\n\
         scheme:        {}\n\
         data length:   {} bytes\n\
         payload:       {}\n\
         header health: {} copy, {}\n",
        if r.is_clean() { "clean" } else { "repaired (all damage found was correctable)" },
        r.scheme_id,
        r.data_len,
        if c.is_clean() {
            "clean".to_string()
        } else {
            format!("{} bit(s), {} device(s) repaired", c.corrected_bits, c.corrected_devices)
        },
        if r.used_backup_header { "backup" } else { "primary" },
        repaired(r.header_symbols_corrected)
    );
    if let Some(repair) = &r.index_repair {
        out.push_str(&format!(
            "shards:        {}\n\
             index health:  {}\n",
            r.shards,
            index_health(repair)
        ));
    }
    out
}

/// What `inspect` prints for an unpacked container: the header fields,
/// then for a v2 container the shard geometry and how the index was
/// recovered.
fn render_inspect(u: &Unpacked<'_>) -> String {
    let meta = &u.meta;
    let mut out = format!(
        "format:        {}\n\
         scheme:        {}\n\
         chunk size:    {} bytes\n\
         data length:   {} bytes\n\
         payload:       {} bytes\n\
         data CRC-32:   {:08x}\n\
         header health: {}{}\n",
        if meta.sharding.is_some() { "v2 (sharded)" } else { "v1 (monolithic)" },
        meta.scheme_id,
        meta.chunk_size,
        meta.data_len,
        meta.payload_len,
        meta.data_crc,
        repaired(u.header_symbols_corrected),
        if u.used_backup_header { ", backup copy used" } else { "" }
    );
    if let (Some(sharding), Some(index)) = (&meta.sharding, &u.index) {
        out.push_str(&format!(
            "shards:        {} of {} bytes\n\
             index health:  {}\n",
            index.shard_count(),
            sharding.shard_size,
            index_health(&u.index_repair)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_protect_with_constraints() {
        let cmd = parse(&args(
            "protect in.dat out.arc --mem 0.25 --bw 150 --errors-per-mb 1 --threads 4",
        ))
        .unwrap();
        match cmd {
            Command::Protect { request, threads, .. } => {
                assert_eq!(request.memory, MemoryConstraint::Fraction(0.25));
                assert_eq!(request.throughput, ThroughputConstraint::MbPerS(150.0));
                assert_eq!(request.resiliency, ResiliencyConstraint::ErrorsPerMb(1.0));
                assert_eq!(threads, 4);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_ecc_method_lists() {
        let cmd = parse(&args("protect a b --ecc secded,rs")).unwrap();
        match cmd {
            Command::Protect { request, .. } => {
                assert_eq!(
                    request.resiliency,
                    ResiliencyConstraint::Methods(vec![EccMethod::SecDed, EccMethod::Rs])
                );
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&args("protect a b --ecc bogus")).is_err());
    }

    #[test]
    fn parses_burst_and_sparse_flags() {
        match parse(&args("protect a b --burst")).unwrap() {
            Command::Protect { request, .. } => assert_eq!(
                request.resiliency,
                ResiliencyConstraint::Responses(vec![ErrorResponse::CorrectBurst])
            ),
            other => panic!("{other:?}"),
        }
        match parse(&args("protect a b --sparse")).unwrap() {
            Command::Protect { request, .. } => assert_eq!(
                request.resiliency,
                ResiliencyConstraint::Responses(vec![ErrorResponse::CorrectSparse])
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&args("protect onlyone")).is_err());
        assert!(parse(&args("recover x")).is_err());
        assert!(parse(&args("frobnicate a b")).is_err());
        assert!(parse(&args("protect a b --mem")).is_err());
        assert!(parse(&args("protect a b --mem notanumber")).is_err());
        assert!(parse(&args("protect a b --wat")).is_err());
    }

    #[test]
    fn parses_simple_commands() {
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert!(matches!(parse(&args("verify f.arc")).unwrap(), Command::Verify { .. }));
        assert!(matches!(parse(&args("inspect f.arc")).unwrap(), Command::Inspect { .. }));
        assert!(matches!(
            parse(&args("failure-model cielo --days 7")).unwrap(),
            Command::FailureModel { days, .. } if days == 7.0
        ));
        assert!(matches!(
            parse(&args("train --quick-train --cache /tmp/c")).unwrap(),
            Command::Train { quick_train: true, .. }
        ));
    }

    #[test]
    fn metrics_is_an_unknown_flag_like_any_other() {
        assert_eq!(parse(&args("verify f.arc --metrics")), Err("unknown flag --metrics".into()));
        assert_eq!(
            parse(&args("inspect f.arc --metrics=out.json")),
            Err("unknown flag --metrics=out.json".into())
        );
        assert!(!USAGE.contains("--metrics"));
    }

    #[test]
    fn inspect_tells_v1_from_v2_and_reports_index_health() {
        use arc_core::{arc_engine_encode, arc_engine_encode_sharded, container::unpack};
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let config = arc_ecc::EccConfig::secded(true);

        let v1 = arc_engine_encode(&data, config, 1).unwrap();
        assert_eq!(
            render_inspect(&unpack(&v1).unwrap()),
            "format:        v1 (monolithic)\n\
             scheme:        secded:64\n\
             chunk size:    1048576 bytes\n\
             data length:   100000 bytes\n\
             payload:       112500 bytes\n\
             data CRC-32:   b353b8fa\n\
             header health: clean\n"
        );

        let mut v2 = arc_engine_encode_sharded(&data, config, 1, 32 << 10).unwrap();
        assert_eq!(
            render_inspect(&unpack(&v2).unwrap()),
            "format:        v2 (sharded)\n\
             scheme:        secded:64\n\
             chunk size:    1048576 bytes\n\
             data length:   100000 bytes\n\
             payload:       112500 bytes\n\
             data CRC-32:   b353b8fa\n\
             header health: clean\n\
             shards:        4 of 32768 bytes\n\
             index health:  copy 1 of 3, clean\n"
        );

        // One flipped byte in the first index copy: that copy still decodes,
        // with one symbol repaired. The copies follow the shard payloads.
        let u = unpack(&v2).unwrap();
        let (copy0, index_len) =
            (u.payload_offset + u.payload.len(), u.meta.sharding.unwrap().index_len);
        v2[copy0 + 5] ^= 0xFF;
        let text = render_inspect(&unpack(&v2).unwrap());
        assert!(text.ends_with("index health:  copy 1 of 3, 1 symbol(s) repaired\n"), "{text}");
        // The whole first copy gone: the second one answers, clean.
        v2[copy0..copy0 + index_len].fill(0xA5);
        let text = render_inspect(&unpack(&v2).unwrap());
        assert!(text.ends_with("index health:  copy 2 of 3, clean\n"), "{text}");
    }

    #[test]
    fn report_names_every_repaired_layer() {
        use arc_core::{arc_engine_encode, arc_engine_encode_sharded, container::unpack};
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let config = arc_ecc::EccConfig::secded(true);
        let report = |bytes: &[u8]| {
            let (out, report) = decode_stock(bytes, 1).unwrap();
            assert_eq!(out, data);
            render_report(&report)
        };

        let v1 = arc_engine_encode(&data, config, 1).unwrap();
        assert_eq!(
            report(&v1),
            "status:        clean\n\
             scheme:        secded:64\n\
             data length:   100000 bytes\n\
             payload:       clean\n\
             header health: primary copy, clean\n"
        );

        let v2 = arc_engine_encode_sharded(&data, config, 1, 32 << 10).unwrap();
        assert_eq!(
            report(&v2),
            "status:        clean\n\
             scheme:        secded:64\n\
             data length:   100000 bytes\n\
             payload:       clean\n\
             header health: primary copy, clean\n\
             shards:        4\n\
             index health:  copy 1 of 3, clean\n"
        );

        let u = unpack(&v2).unwrap();
        let (payload_offset, payload_len) = (u.payload_offset, u.payload.len());
        let index_len = u.meta.sharding.unwrap().index_len;

        // One flipped payload bit.
        let mut flipped = v2.clone();
        flipped[payload_offset + 1000] ^= 0x04;
        assert_eq!(
            report(&flipped),
            "status:        repaired (all damage found was correctable)\n\
             scheme:        secded:64\n\
             data length:   100000 bytes\n\
             payload:       1 bit(s), 0 device(s) repaired\n\
             header health: primary copy, clean\n\
             shards:        4\n\
             index health:  copy 1 of 3, clean\n"
        );

        // Primary header copy wiped (it follows the 6-byte length prefix and
        // is half of what precedes the payload); the payload is untouched,
        // and the container is still not "clean".
        let mut no_primary = v2.clone();
        no_primary[6..6 + (payload_offset - 6) / 2].fill(0xA5);
        assert_eq!(
            report(&no_primary),
            "status:        repaired (all damage found was correctable)\n\
             scheme:        secded:64\n\
             data length:   100000 bytes\n\
             payload:       clean\n\
             header health: backup copy, clean\n\
             shards:        4\n\
             index health:  copy 1 of 3, clean\n"
        );

        // First index copy wiped: the second answers.
        let mut no_index0 = v2.clone();
        let copy0 = payload_offset + payload_len;
        no_index0[copy0..copy0 + index_len].fill(0xA5);
        assert_eq!(
            report(&no_index0),
            "status:        repaired (all damage found was correctable)\n\
             scheme:        secded:64\n\
             data length:   100000 bytes\n\
             payload:       clean\n\
             header health: primary copy, clean\n\
             shards:        4\n\
             index health:  copy 2 of 3, clean\n"
        );
    }

    #[test]
    fn verify_and_recover_read_stock_extension_containers() {
        use arc_core::{container::unpack, encode_sharded_with_scheme};
        let dir = std::env::temp_dir().join(format!("arc-cli-bch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (container, recovered) = (dir.join("bch.arc"), dir.join("recovered.bin"));
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let registry = standard_extensions().unwrap();
        let mut bytes = encode_sharded_with_scheme(&data, &registry, "bch", 1, 32 << 10).unwrap();
        let payload_offset = unpack(&bytes).unwrap().payload_offset;
        bytes[payload_offset + 1000] ^= 0x10;
        std::fs::write(&container, &bytes).unwrap();

        let (path, out) = (container.display().to_string(), recovered.display().to_string());
        assert_eq!(run(parse(&["verify".into(), path.clone()]).unwrap()), 0);
        assert_eq!(run(parse(&["recover".into(), path, out]).unwrap()), 0);
        assert_eq!(std::fs::read(&recovered).unwrap(), data);
        let text = render_report(&decode_stock(&bytes, 1).unwrap().1);
        assert!(text.contains("scheme:        x:bch\n"), "{text}");
        assert!(text.contains("payload:       1 bit(s), 0 device(s) repaired\n"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn protect_recover_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("arc-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("input.bin");
        let container = dir.join("protected.arc");
        let recovered = dir.join("recovered.bin");
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&input, &payload).unwrap();

        let cmd = parse(&[
            "protect".into(),
            input.display().to_string(),
            container.display().to_string(),
            "--mem".into(),
            "0.3".into(),
            "--threads".into(),
            "2".into(),
            "--cache".into(),
            dir.display().to_string(),
            "--quick-train".into(),
        ])
        .unwrap();
        assert_eq!(run(cmd), 0);

        // Strike the stored container with a soft error.
        let mut stored = std::fs::read(&container).unwrap();
        let mid = stored.len() / 2;
        stored[mid] ^= 0x20;
        std::fs::write(&container, &stored).unwrap();

        let cmd = parse(&[
            "recover".into(),
            container.display().to_string(),
            recovered.display().to_string(),
            "--threads".into(),
            "2".into(),
        ])
        .unwrap();
        assert_eq!(run(cmd), 0);
        assert_eq!(std::fs::read(&recovered).unwrap(), payload);

        // Verify and inspect also succeed.
        assert_eq!(run(parse(&["verify".into(), container.display().to_string()]).unwrap()), 0);
        assert_eq!(run(parse(&["inspect".into(), container.display().to_string()]).unwrap()), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
