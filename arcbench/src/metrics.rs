//! The fixed metric and workload tables. `BENCHMARK.json` at the root of the
//! repository is `arcbench manifest` printed from these tables, and a test
//! keeps the two equal.

use crate::json::Json;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sz_checkpoint",
        why: "Checkpoint write and restart where arc-sz and arc-lossless do over 95 % of the work: compressor changes must show here, ECC changes must not.",
    },
    Workload {
        name: "zfp_checkpoint",
        why: "Same pipeline with arc-zfp dominant; it shares only bitio with SZ, so a Huffman or LZ change predicts no change here and a bitio change moves both.",
    },
    Workload {
        name: "ecc_bulk",
        why: "Compressors bypassed: arc-ecc kernels, CRC and arc-core container code do all the work, through both the built-in and the registry dispatch paths.",
    },
    Workload {
        name: "tile_serve",
        why: "The ecc_bulk layers used differently: small cached range reads beside batch writes, so a bulk win that costs small-op latency shows as a regression.",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it is a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> MetricDef {
    MetricDef { name: name.to_string(), unit, better, bound }
}

/// What a user of the system sees. Every workload reports every one.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        def("setup_s", "s", Lower, Some(0.25)),
        def("protect_mib_s", "MiB/s", Higher, Some(0.25)),
        def("recover_mib_s", "MiB/s", Higher, Some(0.25)),
        def("ops_s", "1/s", Higher, Some(0.25)),
        def("write_p50_us", "us", Lower, Some(0.25)),
        def("write_p95_us", "us", Lower, Some(0.25)),
        def("read_p50_us", "us", Lower, Some(0.25)),
        def("read_p95_us", "us", Lower, Some(0.25)),
        def("stored_frac", "frac", Lower, Some(0.06)),
        def("peak_live_frac", "frac", Lower, Some(0.05)),
    ]
}

/// The `ecc_bulk` cells, in run order: name, registry scheme or built-in.
pub const ECC_CELLS: [&str; 5] = ["parity8", "secded64", "rs223_32", "ileave_rs", "bch"];

/// Single-layer numbers from a traced run. A workload reports 0 for a
/// metric of a layer that is not on its path; only metrics measured on
/// every workload carry a unit of time.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut v = vec![
        def("datasets.generate_s", "s", Lower, None),
        def("pressio.compress_mib_s", "MiB/s", Higher, None),
        def("pressio.decompress_mib_s", "MiB/s", Higher, None),
        def("pressio.dispatch_overhead_frac", "frac", Lower, None),
        def("sz.compress_mib_s", "MiB/s", Higher, None),
        def("sz.decompress_mib_s", "MiB/s", Higher, None),
        def("sz.compress_nolossless_mib_s", "MiB/s", Higher, None),
        def("sz.final_lossless_frac", "frac", Lower, None),
        def("sz.compressed_bytes", "bytes", Lower, None),
        def("zfp.compress_mib_s", "MiB/s", Higher, None),
        def("zfp.decompress_mib_s", "MiB/s", Higher, None),
        def("zfp.forward_blocks_mib_s", "MiB/s", Higher, None),
        def("zfp.inverse_blocks_mib_s", "MiB/s", Higher, None),
        def("zfp.embed_frac", "frac", Lower, None),
        def("zfp.compressed_bytes", "bytes", Lower, None),
        def("lossless.zstd_compress_mib_s", "MiB/s", Higher, None),
        def("lossless.zstd_decompress_mib_s", "MiB/s", Higher, None),
        def("lossless.huffman_encode_msym_s", "Msym/s", Higher, None),
        def("lossless.huffman_decode_msym_s", "Msym/s", Higher, None),
        def("lossless.lz77_tokenize_mib_s", "MiB/s", Higher, None),
        def("lossless.bitio_write_mbit_s", "Mbit/s", Higher, None),
        def("lossless.bitio_read_mbit_s", "Mbit/s", Higher, None),
    ];
    for cell in ECC_CELLS {
        v.push(def(&format!("ecc.{cell}.encode_mib_s"), "MiB/s", Higher, None));
        v.push(def(&format!("ecc.{cell}.decode_clean_mib_s"), "MiB/s", Higher, None));
        v.push(def(&format!("ecc.{cell}.decode_faulty_mib_s"), "MiB/s", Higher, None));
        v.push(def(&format!("ecc.{cell}.corrected"), "count", Higher, None));
    }
    v.extend([
        def("ecc.crc32_mib_s", "MiB/s", Higher, None),
        def("ecc.rs223_32.scaling_eff_2t", "frac", Higher, None),
        def("core.train_s", "s", Lower, None),
        def("core.select_us", "us", Lower, None),
        def("core.selected_overhead_frac", "frac", Lower, None),
        def("core.selection_flips", "count", Lower, None),
        def("core.stream_encode_mib_s", "MiB/s", Higher, None),
        def("core.oneshot_encode_mib_s", "MiB/s", Higher, None),
        def("core.decode_mib_s", "MiB/s", Higher, None),
        def("core.decode_faulty_mib_s", "MiB/s", Higher, None),
        def("core.container_write_overhead_frac", "frac", Lower, None),
        def("core.container_read_overhead_frac", "frac", Lower, None),
        def("core.header_bytes", "bytes", Lower, None),
        def("core.index_bytes", "bytes", Lower, None),
        def("core.reader_open_us", "us", Lower, None),
        def("core.range_hit_us", "us", Lower, None),
        def("core.range_miss_us", "us", Lower, None),
        def("core.cache_hit_frac", "frac", Higher, None),
        def("core.cache_evictions", "count", Lower, None),
        def("core.shards_touched_per_read", "count", Lower, None),
        def("core.batch_encode_us", "us", Lower, None),
        def("core.ecc_over_compress", "ratio", Lower, None),
        def("faultsim.inject_s", "s", Lower, None),
        def("faultsim.flips", "count", Higher, None),
        def("ledger.protect_coverage", "frac", Higher, None),
        def("ledger.recover_coverage", "frac", Higher, None),
        def("ledger.compressor_share", "frac", Lower, None),
        def("ledger.ecc_core_share", "frac", Lower, None),
        def("trace.overhead_frac", "frac", Lower, None),
        def("trace.spans", "count", Lower, None),
    ]);
    v
}

/// How long one run measures, in seconds: the driver passes it back as
/// `--seconds`.
pub const RUN_SECONDS: u32 = 15;

/// `BENCHMARK.json`, with exactly the keys the driver's contract names.
pub fn manifest() -> String {
    let s = |x: &str| Json::Str(x.to_string());
    let workloads =
        WORKLOADS.iter().map(|w| Json::obj(vec![("name", s(w.name)), ("why", s(w.why))])).collect();
    let e2e = end_to_end()
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", s(&m.name)),
                ("unit", s(m.unit)),
                ("better", s(m.better.as_str())),
                ("bound", Json::Num(m.bound.unwrap_or(0.0))),
            ])
        })
        .collect();
    let layers = per_layer()
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", s(&m.name)),
                ("unit", s(m.unit)),
                ("better", s(m.better.as_str())),
            ])
        })
        .collect();
    let fields = [
        ("command", Json::Arr(vec![s("bash"), s("arcbench/run.sh")]).render()),
        ("paths", Json::Arr(vec![s("arcbench")]).render()),
        ("run_seconds", Json::Num(RUN_SECONDS as f64).render()),
        ("workloads", render_rows(workloads)),
        ("end_to_end", render_rows(e2e)),
        ("per_layer", render_rows(layers)),
    ];
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// One row per line, so a diff of the file reads metric by metric.
fn render_rows(rows: Vec<Json>) -> String {
    let lines: Vec<String> = rows.iter().map(|r| format!("    {}", r.render())).collect();
    format!("[\n{}\n  ]", lines.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::HashSet::new();
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers.len()));
        for m in e2e.iter().chain(&layers) {
            assert!(name_ok(&m.name), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for m in &e2e {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(e2e
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name.to_string()));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        }
    }

    #[test]
    fn committed_manifest_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(committed, manifest(), "regenerate with `arcbench manifest > BENCHMARK.json`");
        let parsed = Json::parse(&committed).expect("valid JSON");
        let keys: Vec<&str> = parsed.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
