//! Workspace policy and orchestration: which rules run where, walking the
//! tree, and assembling the final (deterministically ordered) report.
//!
//! Scope is by construction, not configuration:
//!
//! * **determinism** — `src/` of the protocol crates `core`, `overlay`,
//!   `sim`, `net`, `trace`, `chaos`, `pubsub` (the crates whose state
//!   machines must replay bit-identically under a fixed seed; the tracer
//!   records replayed runs, so it must not smuggle in wall-clock time of
//!   its own, the chaos fault generator derives every fault from the plan
//!   seed — ambient entropy there would make failing seeds unreproducible
//!   — and the pub/sub registry's admission decisions feed both the chaos
//!   fingerprint and the census-parity contract);
//! * **panic_safety** — `src/` of `net` (runtime, codec, transports: the
//!   code a hostile or lossy wire exercises);
//! * **unsafe_code** — every library crate root (`crates/*/src/lib.rs`
//!   plus the facade `src/lib.rs`);
//! * **wire_exhaustive** — the `DhtMsg` declaration, the codec, and the
//!   round-trip test suite, cross-checked as a set;
//! * **suppression** — everywhere any other rule runs.
//!
//! `src/bin/` and `#[cfg(test)]`/`#[test]` code are out of scope for the
//! per-line rules: binaries and tests may panic and may use wall-clock
//! time freely.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::{analyze_file, check_wire, FileCtx, Finding, Rule, WireSources};

/// Crates whose protocol state machines must be deterministic.
const PROTOCOL_CRATES: &[&str] = &["core", "overlay", "sim", "net", "trace", "chaos", "pubsub"];

/// Crates whose non-test code must be panic-free.
const PANIC_FREE_CRATES: &[&str] = &["net"];

/// The wire-exhaustiveness file set, relative to the workspace root.
const WIRE_ENUM: &str = "crates/overlay/src/dynamic/msg.rs";
const WIRE_CODEC: &str = "crates/net/src/codec.rs";
const WIRE_ROUNDTRIP: &str = "crates/net/tests/codec_roundtrip.rs";
/// Codec functions that must each handle every `DhtMsg` variant.
const WIRE_CODEC_FNS: &[&str] = &["put_msg", "read_msg", "msg_len"];

/// Recursively collects `.rs` files under `dir` (sorted for deterministic
/// reports), skipping `bin` directories.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            rust_files(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// The crate name a workspace-relative path belongs to (`crates/net/…` →
/// `net`), or `None` outside `crates/`.
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// Which per-file rules govern `rel` (a `/`-separated workspace-relative
/// path).
fn rules_for(rel: &str) -> Vec<Rule> {
    let mut rules = Vec::new();
    if let Some(krate) = crate_of(rel) {
        let in_src = rel.starts_with(&format!("crates/{krate}/src/"));
        if in_src && PROTOCOL_CRATES.contains(&krate) {
            rules.push(Rule::Determinism);
        }
        if in_src && PANIC_FREE_CRATES.contains(&krate) {
            rules.push(Rule::PanicSafety);
        }
        if rel == format!("crates/{krate}/src/lib.rs") {
            rules.push(Rule::UnsafeCode);
        }
    } else if rel == "src/lib.rs" {
        rules.push(Rule::UnsafeCode);
    }
    rules
}

/// Lints the workspace rooted at `root`: every `src/` tree under
/// `crates/` plus the facade crate, then the cross-file wire check.
/// Returns all findings, ordered by `(file, line, rule)`.
pub fn lint_tree(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files)?;
    rust_files(&root.join("src"), &mut files)?;

    // Integration tests and fixtures under `tests/` stay out of per-file
    // scope — they may panic and iterate freely. (The round-trip suite is
    // still cross-checked by the wire rule.)
    let mut findings: Vec<Finding> = Vec::new();
    for path in &files {
        let rel = relative_label(root, path);
        if !rel.contains("/src/") && !rel.starts_with("src/") {
            continue;
        }
        let src = fs::read_to_string(path)?;
        findings.extend(analyze_file(&FileCtx::new(&rel, &src), &rules_for(&rel)));
    }

    findings.extend(wire_check_from_tree(root)?);
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    Ok(findings)
}

/// Runs the wire-exhaustiveness check against the tree's canonical file
/// set.
fn wire_check_from_tree(root: &Path) -> io::Result<Vec<Finding>> {
    let mut missing = Vec::new();
    let mut read = |rel: &str| -> io::Result<String> {
        let p = root.join(rel);
        if p.is_file() {
            fs::read_to_string(&p)
        } else {
            missing.push(Finding {
                file: rel.to_string(),
                line: 1,
                rule: Rule::WireExhaustive,
                message: "wire-exhaustiveness input file is missing".to_string(),
                line_from: 0,
            });
            Ok(String::new())
        }
    };
    let enum_src = read(WIRE_ENUM)?;
    let codec_src = read(WIRE_CODEC)?;
    let roundtrip_src = read(WIRE_ROUNDTRIP)?;
    if !missing.is_empty() {
        return Ok(missing);
    }
    Ok(check_wire(&WireSources {
        enum_src: (WIRE_ENUM, &enum_src),
        enum_name: "DhtMsg",
        codec_src: (WIRE_CODEC, &codec_src),
        codec_fns: WIRE_CODEC_FNS,
        roundtrip_src: (WIRE_ROUNDTRIP, &roundtrip_src),
    }))
}

/// `path` relative to `root`, `/`-separated regardless of platform.
pub fn relative_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Searches upward from `start` for a directory whose `Cargo.toml`
/// declares a `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d.to_path_buf());
                }
            }
        }
        dir = d.parent();
    }
    None
}
