//! `arc-lint` CLI — the workspace lint gate.
//!
//! Run from anywhere inside the workspace, with no arguments. Every finding
//! is printed. Exit status: 0 when the decode cone has no finding, 1 when it
//! has any, 2 on a usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use arc_lint::engine::{run, Options};

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

fn real_main() -> Result<ExitCode, String> {
    if std::env::args().len() > 1 {
        return Err("usage: arc-lint (no arguments)".into());
    }
    let root = find_workspace_root()?;
    let result = run(&root, &Options::default())?;
    for f in &result.findings {
        println!("{}:{}: {}: {}", f.file, f.line, f.rule, f.message);
    }
    println!(
        "arc-lint: {} file(s), {} fn(s) in decode cone, {} finding(s), {} suppressed",
        result.files_scanned,
        result.cone.len(),
        result.findings.len(),
        result.suppressed.len()
    );
    Ok(if result.findings.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
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
