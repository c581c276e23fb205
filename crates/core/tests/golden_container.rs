//! Golden-container regression tests: the on-wire byte format must never
//! change silently. Each snapshot below was captured from the encoder before
//! the zero-copy buffer-pipeline refactor; old decoders must read new
//! containers and vice versa, so any diff here is a wire-format break.
//!
//! To regenerate after an *intentional* format change, run:
//! `ARC_REGENERATE_GOLDEN=1 cargo test -p arc-core --test golden_container -- --nocapture`
//! and paste the printed constants.

use std::sync::Arc;

use arc_core::container;
use arc_core::{
    arc_engine_encode, arc_engine_encode_sharded, encode_with_scheme, ArcReader, ExtensionRegistry,
    StreamEncoder, StreamOptions,
};
use arc_ecc::{EccConfig, EccScheme, ParallelCodec, Replication};

/// 40 deterministic bytes; small enough that full-container hex stays
/// readable, long enough to exercise tail blocks in every scheme.
fn fixed_input() -> Vec<u8> {
    (0..40u32).map(|i| ((i * 7 + 3) & 0xFF) as u8).collect()
}

fn builtin_configs() -> Vec<EccConfig> {
    vec![
        EccConfig::parity(1).unwrap(),
        EccConfig::parity(8).unwrap(),
        EccConfig::hamming(false),
        EccConfig::hamming(true),
        EccConfig::secded(false),
        EccConfig::secded(true),
        EccConfig::rs(223, 32).unwrap(),
        EccConfig::rs(16, 4).unwrap(),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn registry() -> ExtensionRegistry {
    let mut r = ExtensionRegistry::new();
    r.register("tmr", Arc::new(Replication::tmr())).unwrap();
    r
}

/// Full single-chunk containers through the engine path, one per builtin.
fn engine_containers() -> Vec<(String, Vec<u8>)> {
    let data = fixed_input();
    builtin_configs()
        .into_iter()
        .map(|cfg| (cfg.id(), arc_engine_encode(&data, cfg, 1).unwrap()))
        .collect()
}

/// Multi-chunk containers: 16-byte chunks over 40 bytes = 3 chunks
/// (2 full + 1 tail), through the v1 writer itself.
fn multichunk_containers() -> Vec<(String, Vec<u8>)> {
    let data = fixed_input();
    builtin_configs()
        .into_iter()
        .map(|cfg| {
            let scheme: Arc<dyn EccScheme> = Arc::new(cfg);
            let codec = ParallelCodec::with_chunk_size(scheme, 1, 16).unwrap();
            (cfg.id(), container::encode_mono(&data, &codec, &cfg.id()).unwrap())
        })
        .collect()
}

/// v2 sharded containers: 16-byte shards over 40 bytes = 3 shards
/// (2 full + 1 ragged tail), each independently ECC'd, tied together by the
/// triplicated RS-protected shard index. One representative per scheme
/// family keeps the snapshot readable.
fn sharded_configs() -> Vec<EccConfig> {
    vec![
        EccConfig::parity(8).unwrap(),
        EccConfig::hamming(true),
        EccConfig::secded(true),
        EccConfig::rs(16, 4).unwrap(),
    ]
}

fn sharded_containers() -> Vec<(String, Vec<u8>)> {
    let data = fixed_input();
    sharded_configs()
        .into_iter()
        .map(|cfg| (cfg.id(), arc_engine_encode_sharded(&data, cfg, 1, 16).unwrap()))
        .collect()
}

/// Containers carrying extension-registered schemes.
fn extension_containers() -> Vec<(String, Vec<u8>)> {
    let data = fixed_input();
    let r = registry();
    ["tmr"]
        .iter()
        .map(|name| (format!("x:{name}"), encode_with_scheme(&data, &r, name, 1).unwrap()))
        .collect()
}

/// 100 003 deterministic bytes: two 64 KiB shards, the second ragged, so
/// `ileave-rs` gets lanes of unequal length with a short last message and
/// `bch` a short last block.
fn long_input() -> Vec<u8> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    (0..100_003)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

/// v2 containers of the two stock registry families at 64 KiB shards.
fn stock_extension_containers() -> Vec<(String, Vec<u8>)> {
    let data = long_input();
    let r = arc_core::standard_extensions().unwrap();
    ["ileave-rs", "bch"]
        .iter()
        .map(|name| {
            let bytes = arc_core::encode_sharded_with_scheme(&data, &r, name, 1, 64 * 1024);
            (format!("x:{name}"), bytes.unwrap())
        })
        .collect()
}

/// 64-bit FNV-1a; the stock-family containers are too long to keep as hex.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

const GOLDEN_ENGINE: &[(&str, &str)] = &[
    // (scheme id, hex of full container from arc_engine_encode(.., threads=1))
    ("parity:1", "4a004a004a004152433101087061726974793a31000010000000000028000000000000002d00000000000000eab730e7f67052530568cc92404ee6f8adcfb85ef4b12bc890aea6dcca21d5929300e4e24152433101087061726974793a31000010000000000028000000000000002d00000000000000eab730e7f67052530568cc92404ee6f8adcfb85ef4b12bc890aea6dcca21d5929300e4e2030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d14b035d3f54f"),
    ("parity:8", "4a004a004a004152433101087061726974793a38000010000000000028000000000000002900000000000000eab730e78e662cba4cce144e7c5741ea1de2205800e30f084a537d90a76841cd9e66807c4152433101087061726974793a38000010000000000028000000000000002900000000000000eab730e78e662cba4cce144e7c5741ea1de2205800e30f084a537d90a76841cd9e66807c030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d1415"),
    ("hamming:8", "4b004b004b0041524331010968616d6d696e673a38000010000000000028000000000000003c00000000000000eab730e785302ea9374669ab78b9fe1429b0eeb6384056ebddeda30ccbd6d3d1c256033541524331010968616d6d696e673a38000010000000000028000000000000003c00000000000000eab730e785302ea9374669ab78b9fe1429b0eeb6384056ebddeda30ccbd6d3d1c2560335030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d1426ea9e58e22f6204aebf6b07a77b37fbfb3733f2"),
    ("hamming:64", "4c004c004c0041524331010a68616d6d696e673a3634000010000000000028000000000000002d00000000000000eab730e7a74727f488f7838d3360e94454fb9d3bf348a0adc72fa0ba5fb791ec2d3e73a041524331010a68616d6d696e673a3634000010000000000028000000000000002d00000000000000eab730e7a74727f488f7838d3360e94454fb9d3bf348a0adc72fa0ba5fb791ec2d3e73a0030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d14cd0a57dd00"),
    ("secded:8", "4a004a004a004152433101087365636465643a38000010000000000028000000000000004100000000000000eab730e7c0bf304342f3687275b81e79759a4e10e238fd59eac3ad90b218e5db1c44f96a4152433101087365636465643a38000010000000000028000000000000004100000000000000eab730e7c0bf304342f3687275b81e79759a4e10e238fd59eac3ad90b218e5db1c44f96a030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d14462aef32aec27f292c054ebfbdcc8147ad7be6faeb9f398678"),
    ("secded:64", "4b004b004b004152433101097365636465643a3634000010000000000028000000000000002d00000000000000eab730e795bc91e094d6996bf479db0c53dde1b17a60342134309e6e25846aee9167e57f4152433101097365636465643a3634000010000000000028000000000000002d00000000000000eab730e795bc91e094d6996bf479db0c53dde1b17a60342134309e6e25846aee9167e57f030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d14cd95dc6a0d"),
    ("rs:223:32", "4b004b004b0041524331010972733a3232333a3332000010000000000028000000000000004404000000000000eab730e730b7ac92d07d03684815ba500dd4c559bc453497dd3f1289ea827c98c9ba6f9641524331010972733a3232333a3332000010000000000028000000000000004404000000000000eab730e730b7ac92d07d03684815ba500dd4c559bc453497dd3f1289ea827c98c9ba6f96030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d14e9430c253f15a75ff4a4db3e628284ec8fea7a74c505bd6f65312636ad10802337be0b4b9306d7327fcfb2b8db776ec178e20a5f706a0f00f8b3dd97381bb6f3a906096331cfd04ab91602dd79be69b9da2b0d277e93d15e5a7adaeffec206960bcf0e1baf77d2623b5cbd489fe461313c7105affcd96ecb7400bc5c7c88b903ed9506932d3d6df7a5e4bf603d2d66499eb802d73a00deaed6c9bb247271675d4f5c01ebebe4dd92072db818a3956461000000ffb84a613b3093b3acf03bd8c88def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d251b5d40ba7ffd73da6a3b4dbca3b0699b0c26464660bdfbfc6d9b09ae8a3d62988d9d2687c88b903d1e403c326f26313f9efbe71810db4d1b4a8d738de41be7b3c7105afebe4dd92af77d262a85a6a85b2d90c39021b68a2bc20d26744930f0f5a7adaefb7efdc83706a0f00147ab81dd830657ae9ffb5cfad6cba3fff9e6570"),
    ("rs:16:4", "49004900490041524331010772733a31363a34000010000000000028000000000000008400000000000000eab730e79100f44e5a8f4e49bf7246d2ce3ba5eb3e59f95f84cc96b73c3e17c1e9ceedce41524331010772733a31363a34000010000000000028000000000000008400000000000000eab730e79100f44e5a8f4e49bf7246d2ce3ba5eb3e59f95f84cc96b73c3e17c1e9ceedce030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d14aefea85f16038bd2d8b770e133af586db9a023f27216f5c504258fc62a04528f41594e0a5724eb91f68e8b1381ac224e6ce1899618178d60b626f5e5c4363269bed26ee412d941ff12d941ff914e957ef254301d08d027299f9a62c7"),
];

const GOLDEN_MULTICHUNK: &[(&str, &str)] = &[
    ("parity:1", "4a004a004a004152433101087061726974793a31100000000000000028000000000000002d00000000000000eab730e7301dc57cdb62c8cb4dc1278f2d361f69f2e916ae15a38718d9529581052f298a4152433101087061726974793a31100000000000000028000000000000002d00000000000000eab730e7301dc57cdb62c8cb4dc1278f2d361f69f2e916ae15a38718d9529581052f298a030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d14b035d3f54f"),
    ("parity:8", "4a004a004a004152433101087061726974793a38100000000000000028000000000000002b00000000000000eab730e70f28dfceaef755639dce8bb5462a94d8d04bfa1347c93db91005dea466dcb0fd4152433101087061726974793a38100000000000000028000000000000002b00000000000000eab730e70f28dfceaef755639dce8bb5462a94d8d04bfa1347c93db91005dea466dcb0fd030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d14010101"),
    ("hamming:8", "4b004b004b0041524331010968616d6d696e673a38100000000000000028000000000000003c00000000000000eab730e7435db986e94c6df275363f63a94949813e186b8d58e082c8d8a593c25479ce5d41524331010968616d6d696e673a38100000000000000028000000000000003c00000000000000eab730e7435db986e94c6df275363f63a94949813e186b8d58e082c8d8a593c25479ce5d030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d1426ea9e58e22f6204aebf6b07a77b37fbfb3733f2"),
    ("hamming:64", "4c004c004c0041524331010a68616d6d696e673a3634100000000000000028000000000000002d00000000000000eab730e7612ab0db56fd87d43eef2833d4023a0cf5109dcb4222817e4cc4d1ffbb11bec841524331010a68616d6d696e673a3634100000000000000028000000000000002d00000000000000eab730e7612ab0db56fd87d43eef2833d4023a0cf5109dcb4222817e4cc4d1ffbb11bec8030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d14cd0a5c350d"),
    ("secded:8", "4a004a004a004152433101087365636465643a38100000000000000028000000000000004100000000000000eab730e706d2a76c9cf96c2b7837df0ef563e927e460c03f6fce8c54a16ba5c88a6b34024152433101087365636465643a38100000000000000028000000000000004100000000000000eab730e706d2a76c9cf96c2b7837df0ef563e927e460c03f6fce8c54a16ba5c88a6b3402030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d14462aef32aec27f292c054ebfbdcc8147ad7be6faeb9f398678"),
    ("secded:64", "4b004b004b004152433101097365636465643a3634100000000000000028000000000000002d00000000000000eab730e753d106cf4adc9d32f9f61a7bd32446867c380947b13dbfaa36f72afd074828174152433101097365636465643a3634100000000000000028000000000000002d00000000000000eab730e753d106cf4adc9d32f9f61a7bd32446867c380947b13dbfaa36f72afd07482817030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d14cd95dc6a0d"),
    ("rs:223:32", "4b004b004b0041524331010972733a3232333a3332100000000000000028000000000000007c0c000000000000eab730e7b114fefb5dd8021580774fe4551b48481b8bbae248e9b2d17a60e5909f078ecb41524331010972733a3232333a3332100000000000000028000000000000007c0c000000000000eab730e7b114fefb5dd8021580774fe4551b48481b8bbae248e9b2d17a60e5909f078ecb030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d14837e551faa7dcbcd544cc40333a0ca96fd0fce74334bb1cf75b55f67fb201ccd37be0b4b9306d7327fcfb2b8db776ec178e20a5f706a0f00f8b3dd97381bb6f3a906096331cfd04ab91602dd79be69b9da2b0d277e93d15e5a7adaeffec206968def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d2173db3a6b6b3bf65f64a03c978e20a5f7ba501e40ce2b6fcb5f4b4de8051d737607a04be36e268ad24e90b4e37be0b4b9b8ed26d654cd40423c4b3a9fcd96ecb2c610e111cf2bd423a00deaea85a6a859b8ed26d95770c33976c646eac30d9d93e6a6df28ea80969e8a3d629761bd40119c46df845cf6ce9c2b303c68051d737a4eeb74a0a0c8e5978bf8b9319454fdcc37953a1d4aa0c74f9c1b171ed3cf42f0bcf0e1baf77d2623b5cbd489fe461313c7105affcd96ecb7400bc5c7c88b903ed9506932d3d6df7a5e4bf603d2d66499eb802d73a00deaed6c9bb247271675d8def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d27c88b903f220b095a2c9078703470b449306d732a6a3b4dbaa4102d8dd06b5c08316dc8c9041dc8925b568a8732d04bb4d4769b6925ab4d48cb361347271675d877c6fd01526dbfbc3ef6020f37cd37340f9bc537ba501e4a6a3b4dba85a6a8535a56316ab1d613e976c646e27ae00f54871b90c0a936dfd88d9d268d4d2d379e10f869768711a1a26ac9d1bd01eb035c0080927d544da12ef61e2559c0c20b14f5c01ebebe4dd92072db818a3956461000000ffb84a613b3093b3acf03bd8c88def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d2633d0f051cf2bd4298c9d9d66ae969bce7066b9127ae00f5f716602ff716602f706a0f004e00620d7400bc5c61266758593dd154eed20d28015c6319ae2bb1843d2d6649bf67d9dc2957deabe65a0877d6c9bb24046ab3a347d404b4c59ebb216410b7e243beb7e8d96c069cf64a03c9e230bb2ba6a3b4db45cf6ce9976c646e"),
    ("rs:16:4", "49004900490041524331010772733a31363a34100000000000000028000000000000002401000000000000eab730e74b65f074627dbe633566d35333236b79cfc2755317fa2c8f96f1d490ced99bb141524331010772733a31363a34100000000000000028000000000000002401000000000000eab730e74b65f074627dbe633566d35333236b79cfc2755317fa2c8f96f1d490ced99bb1030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d144f6cbf4b37be0b4b9306d7327fcfb2b8db776ec178e20a5f706a0f00f8b3dd97381bb6f3a906096331cfd04ab91602dd79be69b9da2b0d277e93d15e5a7adaeffec206968cb36134fec206969041dc8995770c333cc844670bcf0e1baf77d2623b5cbd489fe461313c7105affcd96ecb7400bc5c7c88b903ed9506932d3d6df7a5e4bf603d2d66499eb802d73a00deaed6c9bb247271675d0a936dfd0fa5bd47046ab3a3761bd401d0e316374f5c01ebebe4dd92072db818a3956461000000ffb84a613b3093b3acf03bd8c88def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d2593dd1544f5c01ebdc5ad626824abf6a"),
];

const GOLDEN_V2: &[(&str, &str)] = &[
    // (scheme id, hex of arc_engine_encode_sharded(.., threads=1, shard_size=16))
    ("parity:8", "5a005a005a004152433102087061726974793a38000010000000000028000000000000002b0000000000000010000000000000006b00000000000000eab730e71c7e89a2047102cce2dd78b5d5a3ce1ae590c4a96f750bc361ac875e38594ddc4152433102087061726974793a38000010000000000028000000000000002b0000000000000010000000000000006b00000000000000eab730e71c7e89a2047102cce2dd78b5d5a3ce1ae590c4a96f750bc361ac875e38594ddc030a11181f262d343b424950575e656c01737a81888f969da4abb2b9c0c7ced5dc01e3eaf1f8ff060d14010300000000000000000000000000000011000000100000009f3d1f190011000000000000001100000010000000b0c523a60022000000000000000900000008000000e105db1c00e62bd39070d13842182e46601ee0668142a103e3194f2a78cc85ed428b6c595b6bf97bf70300000000000000000000000000000011000000100000009f3d1f190011000000000000001100000010000000b0c523a60022000000000000000900000008000000e105db1c00e62bd39070d13842182e46601ee0668142a103e3194f2a78cc85ed428b6c595b6bf97bf70300000000000000000000000000000011000000100000009f3d1f190011000000000000001100000010000000b0c523a60022000000000000000900000008000000e105db1c00e62bd39070d13842182e46601ee0668142a103e3194f2a78cc85ed428b6c595b6bf97bf7"),
    ("hamming:64", "5c005c005c0041524331020a68616d6d696e673a3634000010000000000028000000000000002d0000000000000010000000000000006b00000000000000eab730e718bf512b11d552ca000a296f0cbfed223a25413a938e7eed3f2e847225bc24dd41524331020a68616d6d696e673a3634000010000000000028000000000000002d0000000000000010000000000000006b00000000000000eab730e718bf512b11d552ca000a296f0cbfed223a25413a938e7eed3f2e847225bc24dd030a11181f262d343b424950575e656ccd0a737a81888f969da4abb2b9c0c7ced5dc5c35e3eaf1f8ff060d140d0300000000000000000000000000000012000000100000009f3d1f190012000000000000001200000010000000b0c523a60024000000000000000900000008000000e105db1c003983575580148971fafb5657e66e36b264d1d89351261a808bfb79fcf979080171baa19e0300000000000000000000000000000012000000100000009f3d1f190012000000000000001200000010000000b0c523a60024000000000000000900000008000000e105db1c003983575580148971fafb5657e66e36b264d1d89351261a808bfb79fcf979080171baa19e0300000000000000000000000000000012000000100000009f3d1f190012000000000000001200000010000000b0c523a60024000000000000000900000008000000e105db1c003983575580148971fafb5657e66e36b264d1d89351261a808bfb79fcf979080171baa19e"),
    ("secded:64", "5b005b005b004152433102097365636465643a3634000010000000000028000000000000002d0000000000000010000000000000006b00000000000000eab730e76e675b3c35c70661c2c36f5dc340f359a22302e5a4ed2780d9e0ed9b86c8d51b4152433102097365636465643a3634000010000000000028000000000000002d0000000000000010000000000000006b00000000000000eab730e76e675b3c35c70661c2c36f5dc340f359a22302e5a4ed2780d9e0ed9b86c8d51b030a11181f262d343b424950575e656ccd95737a81888f969da4abb2b9c0c7ced5dcdc6ae3eaf1f8ff060d140d0300000000000000000000000000000012000000100000009f3d1f190012000000000000001200000010000000b0c523a60024000000000000000900000008000000e105db1c003983575580148971fafb5657e66e36b264d1d89351261a808bfb79fcf979080171baa19e0300000000000000000000000000000012000000100000009f3d1f190012000000000000001200000010000000b0c523a60024000000000000000900000008000000e105db1c003983575580148971fafb5657e66e36b264d1d89351261a808bfb79fcf979080171baa19e0300000000000000000000000000000012000000100000009f3d1f190012000000000000001200000010000000b0c523a60024000000000000000900000008000000e105db1c003983575580148971fafb5657e66e36b264d1d89351261a808bfb79fcf979080171baa19e"),
    ("rs:16:4", "59005900590041524331020772733a31363a3400001000000000002800000000000000240100000000000010000000000000006b00000000000000eab730e7cc89540ab621b359fed0e2d1d29557e68a596e8df90a7bd3fe486ab8f884cd8941524331020772733a31363a3400001000000000002800000000000000240100000000000010000000000000006b00000000000000eab730e7cc89540ab621b359fed0e2d1d29557e68a596e8df90a7bd3fe486ab8f884cd89030a11181f262d343b424950575e656c4f6cbf4b37be0b4b9306d7327fcfb2b8db776ec178e20a5f706a0f00f8b3dd97381bb6f3a906096331cfd04ab91602dd79be69b9da2b0d277e93d15e5a7adaeffec206968cb36134fec206969041dc8995770c33737a81888f969da4abb2b9c0c7ced5dc3cc844670bcf0e1baf77d2623b5cbd489fe461313c7105affcd96ecb7400bc5c7c88b903ed9506932d3d6df7a5e4bf603d2d66499eb802d73a00deaed6c9bb247271675d0a936dfd0fa5bd47046ab3a3761bd401e3eaf1f8ff060d14d0e316374f5c01ebebe4dd92072db818a3956461000000ffb84a613b3093b3acf03bd8c88def02d28def02d28def02d28def02d28def02d28def02d28def02d28def02d2593dd1544f5c01ebdc5ad626824abf6a0300000000000000000000000000000064000000100000009f3d1f190064000000000000006400000010000000b0c523a600c8000000000000005c00000008000000e105db1c004552b8fa2fe3d53cd6c3237eaa2452164e5970be44cc0eeb7e13c504598ee572298b15910300000000000000000000000000000064000000100000009f3d1f190064000000000000006400000010000000b0c523a600c8000000000000005c00000008000000e105db1c004552b8fa2fe3d53cd6c3237eaa2452164e5970be44cc0eeb7e13c504598ee572298b15910300000000000000000000000000000064000000100000009f3d1f190064000000000000006400000010000000b0c523a600c8000000000000005c00000008000000e105db1c004552b8fa2fe3d53cd6c3237eaa2452164e5970be44cc0eeb7e13c504598ee572298b1591"),
];

const GOLDEN_EXTENSION: &[(&str, &str)] = &[
    ("x:tmr", "470047004700415243310105783a746d72000010000000000028000000000000008400000000000000eab730e7d4dedd11d3ee470139144919aba017670014b35556368528b016215c52a7ad7d415243310105783a746d72000010000000000028000000000000008400000000000000eab730e7d4dedd11d3ee470139144919aba017670014b35556368528b016215c52a7ad7d030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d14030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d14030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d14eab730e7eab730e7eab730e7"),
];

/// (scheme id, container length, FNV-1a of the container, payload symbols
/// the damaged decode below repairs).
const GOLDEN_STOCK_EXTENSION_V2: &[(&str, usize, u64, u64)] = &[
    ("x:ileave-rs", 0x1c865, 0x42503fc8c3d28228, 737),
    ("x:bch", 0x189ed, 0x77024d91cbfc6e24, 21),
];

fn check(golden: &[(&str, &str)], actual: &[(String, Vec<u8>)]) {
    if std::env::var("ARC_REGENERATE_GOLDEN").is_ok() {
        for (id, bytes) in actual {
            println!("    (\"{id}\", \"{}\"),", hex(bytes));
        }
        return;
    }
    assert_eq!(golden.len(), actual.len(), "scheme list drifted from snapshot");
    for ((gid, ghex), (id, bytes)) in golden.iter().zip(actual) {
        assert_eq!(gid, id, "scheme order drifted from snapshot");
        assert_eq!(
            *ghex,
            hex(bytes),
            "wire format changed for {id}: containers written by this \
             build would not match what older builds wrote"
        );
    }
}

#[test]
fn engine_containers_are_bit_identical_to_snapshot() {
    check(GOLDEN_ENGINE, &engine_containers());
}

#[test]
fn multichunk_containers_are_bit_identical_to_snapshot() {
    check(GOLDEN_MULTICHUNK, &multichunk_containers());
}

#[test]
fn extension_containers_are_bit_identical_to_snapshot() {
    check(GOLDEN_EXTENSION, &extension_containers());
}

#[test]
fn sharded_containers_are_bit_identical_to_snapshot() {
    check(GOLDEN_V2, &sharded_containers());
}

/// The stock families' containers, and what decoding them after damage
/// reports: a 700-byte burst in the first shard's data, one flipped bit in
/// every 997th payload byte of the second shard.
#[test]
fn stock_extension_v2_containers_match_snapshot_and_repair_identically() {
    let r = arc_core::standard_extensions().unwrap();
    let data = long_input();
    let mut actual = Vec::new();
    for (id, bytes) in stock_extension_containers() {
        let (out, report) = arc_core::decode_with_registry(&bytes, 1, &r).unwrap();
        assert!(out == data && report.is_clean() && report.shards == 2, "{id}: clean decode");
        let unpacked = container::unpack(&bytes).unwrap();
        let (payload, end) =
            (unpacked.payload_offset, unpacked.payload_offset + unpacked.payload.len());
        let mut bad = bytes.clone();
        if id == "x:ileave-rs" {
            for b in &mut bad[payload + 1000..payload + 1700] {
                *b = !*b;
            }
        }
        for i in (payload + 80_000..end).step_by(997) {
            bad[i] ^= 0x04;
        }
        let (out, report) = arc_core::decode_with_registry(&bad, 1, &r).unwrap();
        assert!(out == data, "{id}: damaged decode");
        actual.push((id, bytes.len(), fnv1a(&bytes), report.correction.corrected_bits));
    }
    if std::env::var("ARC_REGENERATE_GOLDEN").is_ok() {
        println!("{actual:x?}");
        return;
    }
    let golden: Vec<_> =
        GOLDEN_STOCK_EXTENSION_V2.iter().map(|&(id, n, h, c)| (id.to_string(), n, h, c)).collect();
    assert_eq!(golden, actual, "stock extension containers drifted from their snapshot");
}

/// The v2 writer is `StreamEncoder`; `arc_engine_encode_sharded` above is
/// one push through it. However the input is cut into pushes, whatever the
/// thread count, the committed snapshot must come out.
#[test]
fn stream_encoder_reproduces_v2_snapshots_for_every_partition_and_thread_count() {
    if std::env::var("ARC_REGENERATE_GOLDEN").is_ok() {
        return;
    }
    let data = fixed_input();
    for ((gid, ghex), cfg) in GOLDEN_V2.iter().zip(sharded_configs()) {
        assert_eq!(*gid, cfg.id(), "scheme order drifted from snapshot");
        for piece in [data.len(), 1, 7, 16, 17] {
            for threads in [1, 2, 4] {
                let opts = StreamOptions { threads, shard_size: 16 };
                let mut enc = StreamEncoder::new(Vec::new(), cfg, opts).unwrap();
                for chunk in data.chunks(piece) {
                    enc.push(chunk).unwrap();
                }
                let (bytes, stats) = enc.finish().unwrap();
                assert_eq!(*ghex, hex(&bytes), "{gid}: pushes of {piece}, threads={threads}");
                assert_eq!((stats.shards, stats.container_len), (3, bytes.len()));
            }
        }
    }
}

/// Snapshotted v2 containers must keep decoding through both public read
/// paths: the whole-container engine decode and `ArcReader::decode_range`.
#[test]
fn snapshot_v2_containers_decode_fully_and_by_range() {
    if std::env::var("ARC_REGENERATE_GOLDEN").is_ok() {
        return;
    }
    let data = fixed_input();
    for (id, ghex) in GOLDEN_V2 {
        let bytes: Vec<u8> = (0..ghex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&ghex[i..i + 2], 16).unwrap())
            .collect();
        let (out, report) = arc_core::arc_engine_decode(&bytes, 1).unwrap();
        assert_eq!(out, data, "v2 snapshot for {id} no longer decodes");
        assert!(report.correction.is_clean());

        let mut reader = ArcReader::open(&bytes, 1).unwrap();
        assert_eq!(reader.shard_count(), 3, "v2 snapshot for {id} shard count");
        // A range crossing the first shard boundary: bytes 13..32 span
        // shards 0 and 1 but leave shard 2 untouched.
        let (slice, rr) = reader.decode_range(13, 19).unwrap();
        assert_eq!(slice, data[13..32], "v2 snapshot range read for {id}");
        assert_eq!(rr.shards_touched, 2, "range 13..32 must touch exactly 2 shards");
    }
}

/// Thread-count independence: a 2-thread engine encode must produce the
/// exact GOLDEN_ENGINE bytes captured from the 1-thread path — the pool
/// only changes who computes each chunk, never what lands on the wire.
#[test]
fn engine_containers_identical_at_two_threads() {
    if std::env::var("ARC_REGENERATE_GOLDEN").is_ok() {
        return;
    }
    let data = fixed_input();
    for ((gid, ghex), cfg) in GOLDEN_ENGINE.iter().zip(builtin_configs()) {
        assert_eq!(*gid, cfg.id(), "scheme order drifted from snapshot");
        let bytes = arc_engine_encode(&data, cfg, 2).unwrap();
        assert_eq!(*ghex, hex(&bytes), "2-thread container diverged for {gid}");
    }
}

/// The complementary direction: snapshotted containers must still decode to
/// the original data with a clean report.
#[test]
fn snapshot_containers_still_decode() {
    if std::env::var("ARC_REGENERATE_GOLDEN").is_ok() {
        return;
    }
    let data = fixed_input();
    for (id, ghex) in GOLDEN_ENGINE {
        let bytes: Vec<u8> = (0..ghex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&ghex[i..i + 2], 16).unwrap())
            .collect();
        let (out, report) = arc_core::arc_engine_decode(&bytes, 1).unwrap();
        assert_eq!(out, data, "snapshot container for {id} no longer decodes");
        assert!(report.correction.is_clean());
    }
    let r = registry();
    for (id, ghex) in GOLDEN_EXTENSION {
        let bytes: Vec<u8> = (0..ghex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&ghex[i..i + 2], 16).unwrap())
            .collect();
        let (out, _) = arc_core::decode_with_registry(&bytes, 1, &r).unwrap();
        assert_eq!(out, data, "snapshot container for {id} no longer decodes");
    }
}
