//! Integration tests: suppression comments, the workspace walk, the
//! workspace self-lint, the `arc-lint` gate's exit status on a scratch tree,
//! and output determinism. The per-rule fixture corpus is checked in
//! `callgraph.rs`.

use std::path::{Path, PathBuf};

use arc_lint::cone::DECODE_NO_INDEX;
use arc_lint::engine::{run, Options};

fn crate_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn workspace_root() -> PathBuf {
    crate_dir().join("../..").canonicalize().expect("workspace root resolves")
}

/// Run the cone rules over one fixture directory, path filters off, and keep
/// the findings and suppressions of `rule`.
fn run_rule(rule: &str, dir: &Path) -> arc_lint::engine::RunResult {
    let mut result = run(dir, &Options { respect_filters: false }).expect("fixture run succeeds");
    result.findings.retain(|f| f.rule == rule);
    result.suppressed.retain(|f| f.rule == rule);
    result
}

#[test]
fn suppression_comments_waive_findings_but_stay_reported() {
    let dir = crate_dir().join("fixtures/decode_no_direct_index");
    let result = run_rule(DECODE_NO_INDEX, &dir);
    let waived: Vec<_> = result.suppressed.iter().filter(|f| f.file == "good.rs").collect();
    assert_eq!(waived.len(), 1, "the allow() comment in good.rs waives exactly one site");
}

/// A sub-directory that is itself a cargo workspace root is another
/// project's code: the walk leaves it alone. A member crate, whose manifest
/// only refers to its workspace, is walked as before.
#[test]
fn a_nested_cargo_workspace_is_not_walked() {
    let dir = crate_dir().join("fixtures/nested_workspace");
    let files = arc_lint::engine::collect_files(&dir).expect("fixture walk succeeds");
    assert_eq!(files, vec![dir.join("member/src/lib.rs")]);

    let result = run_rule(DECODE_NO_INDEX, &dir);
    assert_eq!(result.files_scanned, 1);
    let flagged: Vec<_> = result.findings.iter().map(|f| f.file.as_str()).collect();
    assert_eq!(flagged, ["member/src/lib.rs"], "only the member crate's site is in scope");
}

/// The gate has no baseline: the workspace's decode cone, the linter's own
/// sources included, has no finding at all.
#[test]
fn workspace_self_lint_has_no_findings() {
    let result = run(&workspace_root(), &Options::default()).expect("workspace run succeeds");
    let found: Vec<_> =
        result.findings.iter().map(|f| format!("{}:{}: {}", f.file, f.line, f.rule)).collect();
    assert!(found.is_empty(), "lint findings in the workspace: {found:#?}");
}

/// The `arc-lint` binary on a scratch workspace: one unproven index in the
/// decode cone fails the gate, and the same site with a `bounded(..)` proof
/// passes it.
#[test]
fn the_gate_fails_on_an_unproven_index_and_passes_on_a_proven_one() {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("arc-lint-gate-{}", std::process::id()));
    std::fs::create_dir_all(scratch.join("src")).expect("scratch dir");
    std::fs::write(scratch.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    let gate = |body: &str| {
        let root = "// arc-lint: decode-root\npub fn f(v: &[u8]) -> u8 {\n";
        std::fs::write(scratch.join("src/lib.rs"), format!("{root}{body}\n}}\n"))
            .expect("write fixture");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_arc-lint"))
            .current_dir(&scratch)
            .output()
            .expect("arc-lint runs");
        (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
    };

    let (code, stdout) = gate("    v[0]");
    assert_eq!(code, Some(1), "an unproven index fails the gate:\n{stdout}");
    assert!(stdout.contains("src/lib.rs:3: decode-no-direct-index"), "{stdout}");

    let (code, stdout) = gate("    // arc-lint: bounded(v is never empty here)\n    v[0]");
    assert_eq!(code, Some(0), "a proven index passes the gate:\n{stdout}");

    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn runs_are_deterministic() {
    let root = workspace_root();
    let a = run(&root, &Options::default()).expect("first run succeeds");
    let b = run(&root, &Options::default()).expect("second run succeeds");
    let key = |r: &arc_lint::engine::RunResult| {
        r.findings.iter().map(|f| (f.file.clone(), f.line, f.rule)).collect::<Vec<_>>()
    };
    assert_eq!(key(&a), key(&b));
    assert_eq!(a.files_scanned, b.files_scanned);
    assert!(!a.cone.is_empty(), "the workspace cone must be non-empty");
    assert_eq!(a.cone, b.cone, "the cone and its witness roots must not vary between runs");
    // Findings arrive sorted.
    let k = key(&a);
    let mut sorted = k.clone();
    sorted.sort();
    assert_eq!(k, sorted);
}
