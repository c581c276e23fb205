//! Integration tests for the interprocedural layer: the cone-rule fixture
//! corpus, `--graph` dump determinism, the lint-crate graph exclusion, and
//! the hostile-sweep ↔ decode-root correspondence.

use std::path::{Path, PathBuf};

use arc_lint::cone;
use arc_lint::engine::{run, GraphFormat, Options};

fn crate_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn workspace_root() -> PathBuf {
    crate_dir().join("../..").canonicalize().expect("workspace root resolves")
}

/// Run a single cone rule over one fixture directory, path filters off.
fn run_rule(rule: &str, dir: &Path) -> arc_lint::engine::RunResult {
    let opts =
        Options { respect_filters: false, only_rule: Some(rule.to_string()), ..Options::default() };
    run(dir, &opts).expect("fixture run succeeds")
}

#[test]
fn cone_rules_flag_their_bad_fixture_and_pass_their_good_one() {
    for (key, _desc) in cone::cone_rule_descriptions() {
        let dir = crate_dir().join("fixtures").join(key.replace('-', "_"));
        assert!(dir.is_dir(), "missing fixture directory for rule {key}");

        let result = run_rule(key, &dir);
        let bad: Vec<_> = result.findings.iter().filter(|f| f.file == "bad.rs").collect();
        let good: Vec<_> = result.findings.iter().filter(|f| f.file == "good.rs").collect();
        assert!(!bad.is_empty(), "rule {key} failed to flag fixtures/{key}/bad.rs");
        assert!(
            good.is_empty(),
            "rule {key} false-positived on fixtures/{key}/good.rs: {:?}",
            good.iter().map(|f| (f.line, f.message.clone())).collect::<Vec<_>>()
        );
        for f in &result.findings {
            assert_eq!(f.rule, key, "only the selected rule may fire");
        }
        assert!(result.cone_size > 0, "fixture roots for {key} must produce a non-empty cone");
    }
}

#[test]
fn graph_json_dump_is_byte_identical_across_runs() {
    let root = workspace_root();
    let opts = Options { graph: Some(GraphFormat::Json), ..Options::default() };
    let a = run(&root, &opts).expect("first graph run succeeds");
    let b = run(&root, &opts).expect("second graph run succeeds");
    let da = a.graph_dump.expect("first run produced a dump");
    let db = b.graph_dump.expect("second run produced a dump");
    assert_eq!(da, db, "--graph json must be byte-identical across runs");
    assert!(a.cone_size > 0, "the workspace cone must be non-empty");
    assert_eq!(a.cone_size, b.cone_size);
}

/// The engine leaves `crates/lint/` out of the call graph on the grounds
/// that no workspace crate depends on it (see `is_graph_source`). This test
/// keeps that premise honest: the day some crate grows an `arc-lint`
/// dependency, the exclusion must be revisited.
#[test]
fn nothing_outside_the_lint_crate_imports_it() {
    let root = workspace_root();
    let crates_dir = root.join("crates");
    let rd = std::fs::read_dir(&crates_dir).expect("crates/ is readable");
    for entry in rd {
        let dir = entry.expect("dir entry").path();
        if !dir.is_dir() || dir.file_name().is_some_and(|n| n == "lint") {
            continue;
        }
        let manifest = dir.join("Cargo.toml");
        let text = std::fs::read_to_string(&manifest)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", manifest.display()));
        assert!(
            !text.contains("arc-lint"),
            "{} depends on arc-lint; the call-graph exclusion of crates/lint is no longer sound",
            manifest.display()
        );
    }
}

/// Every decode entry point the hostile sweep attacks
/// (`crates/faultsim/src/hostile.rs`, `builtin_targets`) must be declared in
/// `lint-roots.toml` and must actually sit in the analyzed cone — the static
/// gate and the dynamic sweep have to cover the same surface.
#[test]
fn every_hostile_decode_target_is_a_declared_root() {
    // (call as written in hostile.rs, spec in lint-roots.toml, cone label)
    let surface = [
        (
            "arc_sz::decompress_with_limits",
            "arc_sz::decompress_with_limits",
            "arc_sz::decompress_with_limits",
        ),
        (
            "arc_zfp::decompress_with_limits",
            "arc_zfp::decompress_with_limits",
            "arc_zfp::decompress_with_limits",
        ),
        (
            "arc_lossless::zstd_like::decompress_with_limit",
            "zstd_like::decompress_with_limit",
            "arc_lossless::zstd_like::decompress_with_limit",
        ),
        (
            "arc_core::decode_with_threads",
            "interface::decode_with_threads",
            "arc_core::interface::decode_with_threads",
        ),
        ("arc_core::ArcReader::open", "ArcReader::open", "arc_core::reader::ArcReader::open"),
        (
            "reader.decode_range",
            "ArcReader::decode_range",
            "arc_core::reader::ArcReader::decode_range",
        ),
        ("dec.push", "StreamDecoder::push", "arc_core::stream::StreamDecoder::push"),
        ("dec.finish", "StreamDecoder::finish", "arc_core::stream::StreamDecoder::finish"),
        ("arc_core::container::unpack", "container::unpack", "arc_core::container::unpack"),
    ];

    let root = workspace_root();
    let hostile = std::fs::read_to_string(root.join("crates/faultsim/src/hostile.rs"))
        .expect("hostile.rs is readable");
    let roots_toml = std::fs::read_to_string(root.join("lint-roots.toml"))
        .expect("lint-roots.toml is committed at the workspace root");
    let opts = Options { graph: Some(GraphFormat::Json), ..Options::default() };
    let dump =
        run(&root, &opts).expect("graph run succeeds").graph_dump.expect("graph dump produced");

    for (call, spec, label) in surface {
        assert!(
            hostile.contains(call),
            "hostile.rs no longer calls `{call}` — update this test's surface table"
        );
        assert!(
            roots_toml.contains(&format!("\"{spec}\"")),
            "hostile sweep attacks `{call}` but lint-roots.toml declares no root `{spec}`"
        );
        assert!(
            dump.contains(&format!("\"fn\": \"{label}\"")),
            "declared root `{spec}` did not land in the analyzed cone as `{label}`"
        );
    }

    // The sweep driver itself is a root too: it hands hostile bytes to every
    // target above, so its own frame must be in the cone.
    assert!(roots_toml.contains("\"hostile::run_case\""));
    assert!(dump.contains("\"fn\": \"arc_faultsim::hostile::run_case\""));
}

/// The thread driver under every multi-threaded decode is workspace code
/// (`arc_ecc::parallel::par_map`), not a vendored crate the lint skips: it
/// must be reachable, edge by edge, from the one-shot decode body and from
/// the random-access reader, so the panic and allocation rules see it.
#[test]
fn the_thread_driver_is_inside_the_decode_cone() {
    let opts = Options { graph: Some(GraphFormat::Json), ..Options::default() };
    let dump = run(&workspace_root(), &opts)
        .expect("graph run succeeds")
        .graph_dump
        .expect("graph dump produced");
    let edges: Vec<(&str, &str)> = dump
        .lines()
        .filter_map(|l| l.trim().strip_prefix("{\"from\": \"")?.split_once("\", \"to\": \""))
        .map(|(from, to)| (from, to.trim_end_matches(['"', '}', ','])))
        .collect();
    for root in
        ["arc_core::interface::decode_container", "arc_core::reader::ArcReader::decode_range"]
    {
        let mut seen = vec![root];
        let mut next = 0;
        while let Some(&node) = seen.get(next) {
            next += 1;
            for &(from, to) in &edges {
                if from == node && !seen.contains(&to) {
                    seen.push(to);
                }
            }
        }
        assert!(
            seen.contains(&"arc_ecc::parallel::par_map"),
            "`par_map` is not reachable from decode root `{root}`"
        );
    }
}
