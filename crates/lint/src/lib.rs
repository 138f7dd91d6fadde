#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `cam-lint`: protocol-invariant static analysis for the CAM workspace.
//!
//! The paper's evaluation is reproducible only if every run with a fixed
//! seed yields a bit-identical timeline, a deployed node survives only if
//! hostile or lossy wire input can never panic it, and a new wire message
//! is safe only if every codec path handles it. All of these are
//! invariants of the *source*, not of any particular test run — so this
//! crate checks them statically, from scratch (no syn, no rustc
//! internals): a small comment/string/attribute-aware lexer ([`lexer`])
//! feeds a token-level rule engine ([`rules`]) scoped by a fixed
//! workspace policy ([`engine`]).
//!
//! The rules:
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `determinism` | `src/` of `core`, `overlay`, `sim`, `net`, `trace`, `chaos`, `pubsub` | no hash-order iteration, wall-clock time, or ambient entropy in protocol code |
//! | `panic_safety` | `net` | no `unwrap`/`expect`/`panic!`-family/slice-index in non-test wire & runtime code |
//! | `wire_exhaustive` | cross-file | every `DhtMsg` variant has encode, decode, size, and round-trip-test coverage |
//! | `unsafe_code` | every library crate | `#![forbid(unsafe_code)]` at the crate root |
//! | `suppression` | everywhere | every suppression carries a reason and suppresses something |
//!
//! Findings can be silenced inline — with a mandatory justification:
//!
//! ```text
//! // cam-lint: allow(determinism, reason = "wall-clock epoch, real transports only")
//! ```
//!
//! Run it with `cargo run -p cam-lint` (add `--json` for machine-readable
//! output); the process exits nonzero if any finding survives
//! suppression, which is what CI gates on.

pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{find_workspace_root, lint_tree};
pub use rules::{Finding, Rule};

/// Renders findings as a JSON array (hand-rolled; the crate is
/// dependency-free by design).
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            escape_json(&f.file),
            f.line,
            f.rule.name(),
            escape_json(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let f = Finding::new(
            "a/b.rs",
            0,
            3,
            Rule::Determinism,
            "say \"hi\"\n".to_string(),
        );
        let j = to_json(&[f]);
        assert!(j.contains("say \\\"hi\\\"\\n"), "{j}");
        assert!(j.contains("\"line\": 3"));
    }

    #[test]
    fn empty_report_is_an_empty_array() {
        assert_eq!(to_json(&[]), "[]");
    }
}
