//! The `cam-lint` command-line front end.
//!
//! ```text
//! cam-lint [--json] [--root <dir>] [--list-rules]
//! ```
//!
//! Exit status: 0 when the tree is clean, 1 when any finding survives
//! suppression, 2 on usage or I/O errors. Strictness is not optional —
//! there is no warning level; every finding is a failure, exactly like
//! `clippy -D warnings` in this workspace's CI.

use std::path::PathBuf;
use std::process::ExitCode;

use cam_lint::{find_workspace_root, lint_tree, rules::Rule, to_json};

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--list-rules" => {
                for r in Rule::all() {
                    println!("{}", r.name());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("cam-lint [--json] [--root <dir>] [--list-rules]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => return usage("no workspace root found; pass --root <dir>"),
            }
        }
    };

    let findings = match lint_tree(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cam-lint: error scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", to_json(&findings));
    } else {
        for f in &findings {
            println!("{}:{}: [{}] {}", f.file, f.line, f.rule.name(), f.message);
        }
    }
    if findings.is_empty() {
        eprintln!("cam-lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("cam-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("cam-lint: {msg}");
    eprintln!("usage: cam-lint [--json] [--root <dir>] [--list-rules]");
    ExitCode::from(2)
}
