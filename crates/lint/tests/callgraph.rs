//! Integration tests for the interprocedural layer: the cone-rule fixture
//! corpus, the lint-crate graph exclusion, the pinned set of decode roots
//! and its correspondence with the hostile sweep.

use std::path::PathBuf;

use arc_lint::cone;
use arc_lint::engine::{run, Options, RunResult};

fn crate_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn workspace_root() -> PathBuf {
    crate_dir().join("../..").canonicalize().expect("workspace root resolves")
}

fn workspace_run() -> RunResult {
    run(&workspace_root(), &Options::default()).expect("workspace run succeeds")
}

/// Node id of the function with fully qualified name `label`.
fn node_id(result: &RunResult, label: &str) -> usize {
    let nodes = &result.graph.nodes;
    (0..nodes.len()).find(|&i| nodes[i].label() == label).expect("function is in the graph")
}

#[test]
fn cone_rules_flag_their_bad_fixture_and_pass_their_good_one() {
    for key in [cone::DECODE_NO_PANIC, cone::DECODE_NO_INDEX, cone::DECODE_BOUNDED_ALLOC] {
        let dir = crate_dir().join("fixtures").join(key.replace('-', "_"));
        assert!(dir.is_dir(), "missing fixture directory for rule {key}");

        let result = run(&dir, &Options { respect_filters: false }).expect("fixture run succeeds");
        let of_rule = |file: &str| {
            let hits = result.findings.iter().filter(|f| f.rule == key && f.file == file);
            hits.map(|f| (f.line, f.message.clone())).collect::<Vec<_>>()
        };
        let bad = of_rule("bad.rs");
        assert!(!bad.is_empty(), "rule {key} failed to flag fixtures/{key}/bad.rs");
        if key == cone::DECODE_NO_PANIC {
            assert!(bad.iter().any(|(_, m)| m.contains("`assert!`")), "{bad:?}");
        }
        let good = of_rule("good.rs");
        assert!(good.is_empty(), "rule {key} false-positived on fixtures/{key}/good.rs: {good:?}");
        assert!(!result.cone.is_empty(), "fixture roots for {key} must produce a non-empty cone");
    }
}

/// One fixture per call form the item parser once missed
/// (`fixtures/call_forms/`): the decode root reaches a subscript only
/// through that form, so the subscript is flagged only if the form is read.
fn flags_index_through(file: &str, callee: &str) {
    let dir = crate_dir().join("fixtures").join("call_forms");
    let result = run(&dir, &Options { respect_filters: false }).expect("fixture run succeeds");
    let hits: Vec<_> = result
        .findings
        .iter()
        .filter(|f| f.rule == cone::DECODE_NO_INDEX && f.file == file)
        .map(|f| f.message.clone())
        .collect();
    assert!(
        hits.iter().any(|m| m.contains(&format!("in `{callee}`"))),
        "no index finding in `{callee}` of fixtures/call_forms/{file}: {hits:?}"
    );
}

#[test]
fn a_turbofish_call_is_a_call_edge() {
    flags_index_through("turbofish_call.rs", "nth");
}

#[test]
fn a_turbofish_method_call_is_a_call_edge() {
    flags_index_through("turbofish_method.rs", "Cursor::byte_at");
}

#[test]
fn a_fn_returning_an_array_keeps_its_body() {
    flags_index_through("array_return.rs", "split");
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

/// The decode roots are exactly the functions marked
/// `// arc-lint: decode-root`, and this table pins them: a dropped or a
/// stray marker fails here, so the cone cannot silently shrink or grow at
/// its entry points. Every decode entry point the hostile sweep attacks
/// (`crates/faultsim/src/hostile.rs`, `builtin_targets`) must be among them
/// — the static gate and the dynamic sweep have to cover the same surface.
#[test]
fn every_hostile_decode_target_is_a_declared_root() {
    // (call as written in hostile.rs, the root it enters)
    let surface = [
        ("arc_sz::decompress_with_limits", "arc_sz::decompress_with_limits"),
        ("arc_zfp::decompress_with_limits", "arc_zfp::decompress_with_limits"),
        (
            "arc_lossless::zstd_like::decompress_with_limit",
            "arc_lossless::zstd_like::decompress_with_limit",
        ),
        ("arc_core::arc_engine_decode", "arc_core::engine::arc_engine_decode"),
        ("arc_core::ArcReader::open", "arc_core::reader::ArcReader::open"),
        ("reader.decode_range", "arc_core::reader::ArcReader::decode_range"),
        ("arc_core::container::unpack", "arc_core::container::unpack"),
        ("arc_pressio::decompress", "arc_pressio::compressors::decompress"),
    ];
    // Every marked root, in (file, line) order. Besides the sweep's targets:
    // the one-shot decode body and the surfaces that wrap it, the
    // registry-aware entry points, the codecs' decode-into-place bodies
    // (which the slab decoder calls per slab), and the sweep driver itself,
    // which hands hostile bytes to every target above.
    let roots = [
        "arc_core::container::unpack",
        "arc_core::engine::arc_engine_decode",
        "arc_core::engine::arc_parity_decode",
        "arc_core::engine::arc_hamming_decode",
        "arc_core::engine::arc_secded_decode",
        "arc_core::engine::arc_reed_solomon_decode",
        "arc_core::extension::decode_with_registry",
        "arc_core::interface::ArcContext::decode",
        "arc_core::interface::decode_container",
        "arc_core::reader::ArcReader::open",
        "arc_core::reader::ArcReader::open_with_registry",
        "arc_core::reader::ArcReader::decode_range",
        "arc_faultsim::hostile::run_case",
        "arc_lossless::zstd_like::decompress_with_limit",
        "arc_pressio::compressors::decompress",
        "arc_sz::decompress_with_limits",
        "arc_sz::decompress_into",
        "arc_zfp::decompress_with_limits",
        "arc_zfp::decompress_into",
    ];

    let root = workspace_root();
    let hostile = std::fs::read_to_string(root.join("crates/faultsim/src/hostile.rs"))
        .expect("hostile.rs is readable");
    let result = workspace_run();
    let marked: Vec<String> =
        result.graph.marked_roots().iter().map(|(id, _)| result.graph.nodes[*id].label()).collect();
    assert_eq!(marked, roots, "the marked decode roots changed; update this table");
    for (call, label) in surface {
        assert!(
            hostile.contains(call),
            "hostile.rs no longer calls `{call}` — update this test's surface table"
        );
        assert!(roots.contains(&label), "hostile sweep attacks `{call}` but `{label}` is no root");
    }
}

/// The thread driver under every multi-threaded decode is workspace code
/// (`arc_ecc::parallel::par_map`), not a vendored crate the lint skips: it
/// must be reachable, edge by edge, from the one-shot decode body and from
/// the random-access reader, so the panic and allocation rules see it.
#[test]
fn the_thread_driver_is_inside_the_decode_cone() {
    let result = workspace_run();
    let par_map = node_id(&result, "arc_ecc::parallel::par_map");
    for root in
        ["arc_core::interface::decode_container", "arc_core::reader::ArcReader::decode_range"]
    {
        let mut seen = vec![node_id(&result, root)];
        let mut next = 0;
        while let Some(&node) = seen.get(next) {
            next += 1;
            for &callee in &result.graph.edges[node] {
                if result.cone.contains_key(&callee) && !seen.contains(&callee) {
                    seen.push(callee);
                }
            }
        }
        assert!(seen.contains(&par_map), "`par_map` is not reachable from decode root `{root}`");
    }
}

/// Functions on decode paths that a parser gap or a refactor could hide
/// from the lint without a finding changing: reached only through a closure
/// body (ZFP's inverse lift), a generic walk helper taking a closure, or a
/// turbofish call (`element::<LOG>`, `take::<N>`). Each must stay in the
/// cone, so the ratchet cannot shrink by code dropping out of sight.
#[test]
fn the_decode_cone_holds_the_easily_hidden_functions() {
    let result = workspace_run();
    for label in [
        "arc_zfp::transform::inv_lift",
        "arc_zfp::block::Grid::walk",
        "arc_sz::ElementDecoder::element",
        "arc_pressio::slab::Cursor::take",
    ] {
        let id = node_id(&result, label);
        assert!(result.cone.contains_key(&id), "`{label}` dropped out of the decode cone");
    }
}
