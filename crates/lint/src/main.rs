//! `arc-lint` CLI — the workspace lint gate.
//!
//! ```text
//! arc-lint                    # the gate
//! arc-lint --write-baseline   # regenerate lint-baseline.txt
//! ```
//!
//! Run from anywhere inside the workspace. Exit status: 0 when the workspace
//! matches `lint-baseline.txt` exactly; 1 on a violation beyond it or a stale
//! entry the baseline no longer needs; 2 on a usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use arc_lint::baseline::{Baseline, Ratchet};
use arc_lint::engine::{run, Options, RunResult};

const BASELINE_FILE: &str = "lint-baseline.txt";

/// Find the workspace root: the nearest ancestor of the current directory
/// whose `Cargo.toml` declares `[workspace]`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot get cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace root found above the current directory".into());
        }
    }
}

/// The committed baseline; a missing file is an empty one.
fn read_baseline(path: &Path) -> Result<Baseline, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => {
            Baseline::parse(&text).map_err(|e| format!("malformed {}: {e}", path.display()))
        }
        Err(_) => Ok(Baseline::default()),
    }
}

fn print_report(result: &RunResult, ratchet: &Ratchet) {
    let mut new_count = 0usize;
    for f in &result.findings {
        let Some(e) = ratchet.new.iter().find(|e| e.rule == f.rule && e.file == f.file) else {
            continue;
        };
        println!(
            "{}:{}: {}: {} ({} found, baseline allows {})",
            f.file, f.line, f.rule, f.message, e.actual, e.allowed
        );
        new_count += 1;
    }
    for e in &ratchet.stale {
        println!(
            "{BASELINE_FILE}: stale entry {} / {} (allows {}, found {}) — \
             run scripts/lint_baseline.sh to shrink it",
            e.rule, e.file, e.allowed, e.actual
        );
    }
    println!(
        "arc-lint: {} file(s), {} fn(s) in decode cone, {} finding(s): {} new, \
         {} baselined, {} suppressed, {} stale baseline entr(ies)",
        result.files_scanned,
        result.cone.len(),
        result.findings.len(),
        new_count,
        result.findings.len() - new_count,
        result.suppressed.len(),
        ratchet.stale.len()
    );
}

/// Per-rule before/after totals when regenerating the baseline, so a
/// `scripts/lint_baseline.sh` run shows exactly which debt moved.
fn print_baseline_delta(old: &Baseline, new: &Baseline) {
    let mut rules: Vec<&String> = old.counts.keys().chain(new.counts.keys()).collect();
    rules.sort();
    rules.dedup();
    let total = |b: &Baseline, rule: &str| -> u64 {
        b.counts.get(rule).map(|m| m.values().sum()).unwrap_or(0)
    };
    println!("{:<28} {:>8} {:>8} {:>8}", "rule", "before", "after", "delta");
    for rule in rules {
        let before = total(old, rule);
        let after = total(new, rule);
        let delta = after as i64 - before as i64;
        println!("{rule:<28} {before:>8} {after:>8} {delta:>+8}");
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write_baseline = match args.as_slice() {
        [] => false,
        [flag] if flag == "--write-baseline" => true,
        _ => return Err("usage: arc-lint [--write-baseline]".into()),
    };

    let root = find_workspace_root()?;
    let result = run(&root, &Options::default())?;
    let actual = Baseline::from_findings(&result.findings);
    let baseline_path = root.join(BASELINE_FILE);
    let allowed = read_baseline(&baseline_path)?;

    if write_baseline {
        std::fs::write(&baseline_path, actual.to_text())
            .map_err(|e| format!("cannot write {}: {e}", baseline_path.display()))?;
        print_baseline_delta(&allowed, &actual);
        println!(
            "arc-lint: wrote {} ({} entr(ies), {} violation(s))",
            baseline_path.display(),
            actual.counts.values().map(|m| m.len()).sum::<usize>(),
            actual.total()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let ratchet = allowed.ratchet(&actual);
    print_report(&result, &ratchet);
    let fail = !ratchet.new.is_empty() || !ratchet.stale.is_empty();
    Ok(if fail { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("arc-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
