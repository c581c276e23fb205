//! Integration tests: suppression comments, the workspace walk, the
//! workspace self-lint against the committed baseline, the baseline ratchet
//! on a scratch tree, and output determinism. The per-rule fixture corpus is
//! checked in `callgraph.rs`.

use std::path::{Path, PathBuf};

use arc_lint::baseline::Baseline;
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

#[test]
fn workspace_self_lint_is_clean_against_committed_baseline() {
    let root = workspace_root();
    let result = run(&root, &Options::default()).expect("workspace run succeeds");
    let actual = Baseline::from_findings(&result.findings);
    let committed = std::fs::read_to_string(root.join("lint-baseline.txt"))
        .expect("lint-baseline.txt is committed at the workspace root");
    let allowed = Baseline::parse(&committed).expect("committed baseline parses");
    let ratchet = allowed.ratchet(&actual);
    assert!(
        ratchet.new.is_empty(),
        "new lint violations beyond the committed baseline: {:?}",
        ratchet
            .new
            .iter()
            .map(|e| format!("{} {} ({} > {})", e.rule, e.file, e.actual, e.allowed))
            .collect::<Vec<_>>()
    );
    assert!(
        ratchet.stale.is_empty(),
        "stale baseline entries (run scripts/lint_baseline.sh to shrink): {:?}",
        ratchet
            .stale
            .iter()
            .map(|e| format!("{} {} ({} < {})", e.rule, e.file, e.actual, e.allowed))
            .collect::<Vec<_>>()
    );
}

/// Unjustified `unsafe` and aborts in library code are clippy's to deny
/// (DESIGN.md §10); what stays here is that the linter lints itself clean.
#[test]
fn the_linter_holds_no_baseline_debt() {
    let root = workspace_root();
    let result = run(&root, &Options::default()).expect("workspace run succeeds");
    for f in &result.findings {
        assert!(
            !f.file.starts_with("crates/lint/"),
            "the linter must lint itself clean: {} {}:{}",
            f.rule,
            f.file,
            f.line
        );
    }
}

#[test]
fn baseline_ratchet_on_a_scratch_tree() {
    let scratch = std::env::temp_dir().join(format!("arc-lint-ratchet-{}", std::process::id()));
    let src = scratch.join("src");
    std::fs::create_dir_all(&src).expect("scratch dir");
    std::fs::write(
        src.join("a.rs"),
        "// arc-lint: decode-root\npub fn f(v: &[u8]) -> u8 { v[0] }\n",
    )
    .expect("write fixture");

    let result = run_rule(DECODE_NO_INDEX, &scratch);
    let actual = Baseline::from_findings(&result.findings);
    assert_eq!(actual.total(), 1);

    // Honest baseline: clean ratchet.
    let clean = actual.clone().ratchet(&actual);
    assert!(clean.new.is_empty() && clean.stale.is_empty());

    // New debt beyond the baseline fails.
    let empty = Baseline::default();
    let grown = empty.ratchet(&actual);
    assert_eq!(grown.new.len(), 1);

    // Paying debt down makes the old baseline stale — it may only shrink.
    let paid = actual.ratchet(&Baseline::default());
    assert_eq!(paid.stale.len(), 1);

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
    assert_eq!(
        Baseline::from_findings(&a.findings).to_text(),
        Baseline::from_findings(&b.findings).to_text(),
        "baseline serialization must be byte-identical across runs"
    );
    assert!(!a.cone.is_empty(), "the workspace cone must be non-empty");
    assert_eq!(a.cone, b.cone, "the cone and its witness roots must not vary between runs");
    // Findings arrive sorted.
    let k = key(&a);
    let mut sorted = k.clone();
    sorted.sort();
    assert_eq!(k, sorted);
}
