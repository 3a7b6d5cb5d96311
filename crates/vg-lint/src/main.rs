//! CLI for the workspace invariant analyzer.
//!
//! ```text
//! cargo run -p vg-lint                   # report rule violations
//! cargo run -p vg-lint -- --deny-all    # also deny allowlist-hygiene findings (CI mode)
//! cargo run -p vg-lint -- --report lint-report.txt
//! ```
//!
//! Exit code 0 when clean, 1 on violations, 2 on usage/setup errors.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use vg_lint::{analyze, find_root, load_workspace, stale_config_paths, Config};

fn main() -> ExitCode {
    let mut deny_all = false;
    let mut report: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-all" => deny_all = true,
            "--report" => match args.next() {
                Some(p) => report = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--report needs a path");
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag `{other}` (expected --deny-all, --report, --root)");
                return ExitCode::from(2);
            }
        }
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot read current dir: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = root.or_else(|| find_root(&cwd)) else {
        eprintln!("no workspace root found above {}", cwd.display());
        return ExitCode::from(2);
    };

    let cfg = Config::default();
    let files = match load_workspace(&root, &cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("failed to read workspace: {e}");
            return ExitCode::from(2);
        }
    };
    let mut violations = analyze(&files, &cfg);
    violations.extend(stale_config_paths(&files, &cfg));
    let denied: Vec<_> = violations
        .iter()
        .filter(|v| deny_all || !v.hygiene)
        .collect();
    let warned: Vec<_> = violations
        .iter()
        .filter(|v| !deny_all && v.hygiene)
        .collect();

    let mut out = String::new();
    out.push_str(&format!(
        "vg-lint: {} files scanned, {} violation(s), {} warning(s)\n",
        files.len(),
        denied.len(),
        warned.len()
    ));
    for v in &denied {
        out.push_str(&format!("error: {}\n", v.render()));
    }
    for v in &warned {
        out.push_str(&format!("warning: {}\n", v.render()));
    }
    print!("{out}");
    if let Some(path) = report {
        if let Err(e) = std::fs::write(&path, &out) {
            eprintln!("failed to write report {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if denied.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
