//! End-to-end guard: `lint_tree` over a copy of the real workspace is
//! clean, and representative protocol regressions — the exact ones the
//! analyzer was built to stop — make it report findings. Runs against
//! copies in a temp directory so the working tree is never touched.

use std::fs;
use std::path::{Path, PathBuf};

use cam_lint::{find_workspace_root, lint_tree, Finding, Rule};

fn workspace_root() -> PathBuf {
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(&here).expect("workspace root above crates/lint")
}

/// Recursively copies the `.rs` files under `from` into `to`.
fn copy_rs_tree(from: &Path, to: &Path) {
    if !from.is_dir() {
        return;
    }
    for entry in fs::read_dir(from).expect("read_dir") {
        let p = entry.expect("dir entry").path();
        if p.is_dir() {
            copy_rs_tree(&p, &to.join(p.file_name().expect("dir name")));
        } else if p.extension().is_some_and(|e| e == "rs") {
            fs::create_dir_all(to).expect("mkdir");
            fs::copy(&p, to.join(p.file_name().expect("file name"))).expect("copy");
        }
    }
}

/// A scratch copy of the workspace's lintable trees (`crates/`, `src/`).
fn fresh_copy(tag: &str) -> PathBuf {
    let dst = std::env::temp_dir().join(format!("cam-lint-guard-{}-{tag}", std::process::id()));
    if dst.exists() {
        fs::remove_dir_all(&dst).expect("clear stale copy");
    }
    let root = workspace_root();
    copy_rs_tree(&root.join("crates"), &dst.join("crates"));
    copy_rs_tree(&root.join("src"), &dst.join("src"));
    dst
}

fn render(findings: &[Finding]) -> String {
    findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule.name(), f.message))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn pristine_tree_is_clean() {
    let dst = fresh_copy("clean");
    let findings = lint_tree(&dst).expect("lint succeeds");
    assert!(
        findings.is_empty(),
        "the committed tree must lint clean; got:\n{}",
        render(&findings)
    );
    fs::remove_dir_all(&dst).ok();
}

#[test]
fn injected_hash_iteration_fails_the_tree() {
    let dst = fresh_copy("determinism");
    let path = dst.join("crates/overlay/src/dynamic/actor.rs");
    let mut src = fs::read_to_string(&path).expect("read dynamic/actor.rs");
    src.push_str(
        "\npub fn cam_lint_probe(m: &std::collections::HashMap<u64, u32>) -> u64 {\n    \
         let mut acc = 0;\n    for (k, _) in m {\n        acc ^= *k;\n    }\n    acc\n}\n",
    );
    fs::write(&path, src).expect("write mutation");
    let findings = lint_tree(&dst).expect("lint succeeds");
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::Determinism && f.file.ends_with("dynamic/actor.rs")),
        "unsorted HashMap iteration must be flagged; got:\n{}",
        render(&findings)
    );
    fs::remove_dir_all(&dst).ok();
}

#[test]
fn new_variant_without_codec_arms_fails_the_tree() {
    let dst = fresh_copy("wire");
    let path = dst.join("crates/overlay/src/dynamic/msg.rs");
    let src = fs::read_to_string(&path).expect("read dynamic/msg.rs");
    let mutated = src.replacen(
        "pub enum DhtMsg {",
        "pub enum DhtMsg {\n    CamLintProbe,",
        1,
    );
    assert!(mutated.contains("CamLintProbe"), "enum marker not found");
    fs::write(&path, mutated).expect("write mutation");
    let findings = lint_tree(&dst).expect("lint succeeds");
    let wire: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == Rule::WireExhaustive)
        .collect();
    // put_msg, read_msg, msg_len, and the round-trip suite each miss it.
    assert_eq!(
        wire.len(),
        4,
        "expected one finding per codec path plus the round-trip suite; got:\n{}",
        render(&findings)
    );
    assert!(wire
        .iter()
        .all(|f| f.message.contains("DhtMsg::CamLintProbe")));
    fs::remove_dir_all(&dst).ok();
}
