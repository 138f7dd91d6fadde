//! Fixture-driven self-tests: each rule against a passing and a failing
//! fixture, plus the suppression grammar in all three of its failure
//! modes (covering, reasonless, stale).

use cam_lint::rules::{analyze_file, check_wire, FileCtx, Finding, WireSources};
use cam_lint::Rule;

fn run(name: &str, src: &str, rules: &[Rule]) -> Vec<Finding> {
    analyze_file(&FileCtx::new(name, src), rules)
}

fn render(findings: &[Finding]) -> String {
    findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule.name(), f.message))
        .collect::<Vec<_>>()
        .join("\n")
}

// ------------------------------------------------------------- determinism

#[test]
fn determinism_pass_fixture_is_clean() {
    let f = run(
        "determinism_pass.rs",
        include_str!("fixtures/determinism_pass.rs"),
        &[Rule::Determinism],
    );
    assert!(f.is_empty(), "unexpected findings:\n{}", render(&f));
}

#[test]
fn determinism_fail_fixture_flags_every_leak() {
    let f = run(
        "determinism_fail.rs",
        include_str!("fixtures/determinism_fail.rs"),
        &[Rule::Determinism],
    );
    assert_eq!(f.len(), 3, "findings:\n{}", render(&f));
    assert!(f.iter().all(|x| x.rule == Rule::Determinism));
    assert!(f.iter().any(|x| x.message.contains("`for` loop")));
    assert!(f.iter().any(|x| x.message.contains("`.keys()`")));
    assert!(f.iter().any(|x| x.message.contains("`Instant`")));
}

/// The sharded event-queue merge is in determinism scope: an index-order
/// scan over `Vec` shard heads with keyed directory lookups is clean, and
/// collecting hash-ordered entries into a `ShardedEventQueue` discharges
/// the hazard because pops are `(at, seq)`-ordered regardless of pushes.
#[test]
fn shard_merge_pass_fixture_is_clean() {
    let f = run(
        "shard_merge_pass.rs",
        include_str!("fixtures/shard_merge_pass.rs"),
        &[Rule::Determinism],
    );
    assert!(f.is_empty(), "unexpected findings:\n{}", render(&f));
}

/// Reaching the shards through a hash map must be flagged twice: the
/// direct `for` scan of the shard table and the `.values_mut()` drain
/// both let the hasher pick the pop sequence.
#[test]
fn shard_merge_fail_fixture_flags_hash_order_merge() {
    let f = run(
        "shard_merge_fail.rs",
        include_str!("fixtures/shard_merge_fail.rs"),
        &[Rule::Determinism],
    );
    assert_eq!(f.len(), 2, "findings:\n{}", render(&f));
    assert!(f.iter().all(|x| x.rule == Rule::Determinism));
    assert!(f.iter().any(|x| x.message.contains("`for` loop")));
    assert!(f.iter().any(|x| x.message.contains("`.values_mut()`")));
}

/// The chaos fault generator is in determinism scope: a seed-derived RNG
/// over ordered tables is clean.
#[test]
fn chaos_generator_pass_fixture_is_clean() {
    let f = run(
        "chaos_gen_pass.rs",
        include_str!("fixtures/chaos_gen_pass.rs"),
        &[Rule::Determinism],
    );
    assert!(f.is_empty(), "unexpected findings:\n{}", render(&f));
}

/// Ambient RNG, wall-clock deadlines, and hash-order victim choice in a
/// fault generator must each be a finding — any one of them makes a
/// failing chaos seed unreproducible.
#[test]
fn chaos_generator_fail_fixture_flags_every_entropy_leak() {
    let f = run(
        "chaos_gen_fail.rs",
        include_str!("fixtures/chaos_gen_fail.rs"),
        &[Rule::Determinism],
    );
    assert_eq!(f.len(), 3, "findings:\n{}", render(&f));
    assert!(f.iter().all(|x| x.rule == Rule::Determinism));
    assert!(f.iter().any(|x| x.message.contains("`thread_rng`")));
    assert!(f.iter().any(|x| x.message.contains("`SystemTime`")));
    assert!(f.iter().any(|x| x.message.contains("`for` loop")));
}

/// The Byzantine adversary engine is in determinism scope: every
/// misbehavior decision (drop, replay victim, forged capacity) drawn from
/// the plan-seeded RNG over ordered tables is clean.
#[test]
fn adversary_pass_fixture_is_clean() {
    let f = run(
        "adversary_pass.rs",
        include_str!("fixtures/adversary_pass.rs"),
        &[Rule::Determinism],
    );
    assert!(f.is_empty(), "unexpected findings:\n{}", render(&f));
}

/// Ambient RNG, hash-order replay-victim choice, and wall-clock-seeded
/// forgery must each be a finding — an adversary that misbehaves from
/// ambient state cannot be shrunk or replayed bit-identically.
#[test]
fn adversary_fail_fixture_flags_every_ambient_decision() {
    let f = run(
        "adversary_fail.rs",
        include_str!("fixtures/adversary_fail.rs"),
        &[Rule::Determinism],
    );
    assert_eq!(f.len(), 3, "findings:\n{}", render(&f));
    assert!(f.iter().all(|x| x.rule == Rule::Determinism));
    assert!(f.iter().any(|x| x.message.contains("`thread_rng`")));
    assert!(f.iter().any(|x| x.message.contains("`for` loop")));
    assert!(f.iter().any(|x| x.message.contains("`Instant`")));
}

// ------------------------------------------------------------ panic safety

#[test]
fn panic_pass_fixture_is_clean() {
    let f = run(
        "panic_pass.rs",
        include_str!("fixtures/panic_pass.rs"),
        &[Rule::PanicSafety],
    );
    assert!(f.is_empty(), "unexpected findings:\n{}", render(&f));
}

#[test]
fn panic_fail_fixture_flags_every_hazard() {
    let f = run(
        "panic_fail.rs",
        include_str!("fixtures/panic_fail.rs"),
        &[Rule::PanicSafety],
    );
    assert_eq!(f.len(), 4, "findings:\n{}", render(&f));
    assert!(f.iter().any(|x| x.message.contains("indexing `buf[…]`")));
    assert!(f.iter().any(|x| x.message.contains("`.unwrap()`")));
    assert!(f.iter().any(|x| x.message.contains("`panic!`")));
}

// ------------------------------------------------------------- unsafe gate

#[test]
fn unsafe_gate_accepts_forbidding_root() {
    let f = run(
        "unsafe_pass.rs",
        include_str!("fixtures/unsafe_pass.rs"),
        &[Rule::UnsafeCode],
    );
    assert!(f.is_empty(), "unexpected findings:\n{}", render(&f));
}

#[test]
fn unsafe_gate_rejects_missing_forbid() {
    let f = run(
        "unsafe_fail.rs",
        include_str!("fixtures/unsafe_fail.rs"),
        &[Rule::UnsafeCode],
    );
    assert_eq!(f.len(), 1, "findings:\n{}", render(&f));
    assert_eq!(f[0].rule, Rule::UnsafeCode);
    assert_eq!(f[0].line, 1);
}

// ------------------------------------------------------------- suppression

#[test]
fn suppression_with_reason_silences_the_finding() {
    let f = run(
        "suppress_ok.rs",
        include_str!("fixtures/suppress_ok.rs"),
        &[Rule::Determinism],
    );
    assert!(f.is_empty(), "unexpected findings:\n{}", render(&f));
}

#[test]
fn suppression_without_reason_is_rejected_and_does_not_suppress() {
    let f = run(
        "suppress_no_reason.rs",
        include_str!("fixtures/suppress_no_reason.rs"),
        &[Rule::Determinism],
    );
    assert_eq!(f.len(), 2, "findings:\n{}", render(&f));
    assert!(
        f.iter()
            .any(|x| x.rule == Rule::Determinism && x.message.contains("`.keys()`")),
        "the reasonless directive must not silence the original finding"
    );
    assert!(f
        .iter()
        .any(|x| x.rule == Rule::Suppression && x.message.contains("must give a reason")));
}

#[test]
fn unused_suppression_is_flagged_as_stale() {
    let f = run(
        "suppress_unused.rs",
        include_str!("fixtures/suppress_unused.rs"),
        &[Rule::PanicSafety],
    );
    assert_eq!(f.len(), 1, "findings:\n{}", render(&f));
    assert_eq!(f[0].rule, Rule::Suppression);
    assert!(f[0].message.contains("unused cam-lint suppression"));
}

// ------------------------------------------------------ wire exhaustiveness

fn wire_sources<'a>(codec: &'a str, roundtrip: &'a str) -> WireSources<'a> {
    WireSources {
        enum_src: ("wire_enum.rs", include_str!("fixtures/wire_enum.rs")),
        enum_name: "MiniMsg",
        codec_src: ("wire_codec.rs", codec),
        codec_fns: &["put_msg", "read_msg"],
        roundtrip_src: ("wire_roundtrip.rs", roundtrip),
    }
}

#[test]
fn complete_codec_and_roundtrip_are_clean() {
    let f = check_wire(&wire_sources(
        include_str!("fixtures/wire_codec_ok.rs"),
        include_str!("fixtures/wire_roundtrip.rs"),
    ));
    assert!(f.is_empty(), "unexpected findings:\n{}", render(&f));
}

#[test]
fn variant_hidden_behind_wildcard_is_caught() {
    let f = check_wire(&wire_sources(
        include_str!("fixtures/wire_codec_missing.rs"),
        include_str!("fixtures/wire_roundtrip.rs"),
    ));
    assert_eq!(f.len(), 1, "findings:\n{}", render(&f));
    assert_eq!(f[0].rule, Rule::WireExhaustive);
    assert!(f[0]
        .message
        .contains("`MiniMsg::Data` has no arm in `put_msg`"));
}

#[test]
fn newly_grown_variant_cannot_hide_behind_wildcards() {
    // The protocol-extension trap: `MiniMsg` grows a `Sub` variant (the
    // fixture mirrors `DhtMsg::GroupSubscribe`), but the codec was written
    // with wildcard arms and the round-trip suite predates the variant —
    // everything still compiles. The cross-file check must report the gap
    // in each codec function AND in the round-trip suite, while staying
    // silent about the three pre-existing variants.
    let f = check_wire(&WireSources {
        enum_src: (
            "wire_enum_grown.rs",
            include_str!("fixtures/wire_enum_grown.rs"),
        ),
        enum_name: "MiniMsg",
        codec_src: (
            "wire_codec_wildcard.rs",
            include_str!("fixtures/wire_codec_wildcard.rs"),
        ),
        codec_fns: &["put_msg", "read_msg"],
        roundtrip_src: (
            "wire_roundtrip.rs",
            include_str!("fixtures/wire_roundtrip.rs"),
        ),
    });
    assert_eq!(f.len(), 3, "findings:\n{}", render(&f));
    assert!(f
        .iter()
        .all(|x| x.rule == Rule::WireExhaustive && x.message.contains("MiniMsg::Sub")));
    for gap in [
        "has no arm in `put_msg`",
        "has no arm in `read_msg`",
        "never exercised by the codec round-trip tests",
    ] {
        assert!(
            f.iter().any(|x| x.message.contains(gap)),
            "missing finding for {gap:?}:\n{}",
            render(&f)
        );
    }
}

#[test]
fn roundtrip_gaps_are_reported_per_variant() {
    // The enum file itself never writes `MiniMsg::Variant` paths, so as a
    // stand-in round-trip suite it misses all three variants.
    let f = check_wire(&wire_sources(
        include_str!("fixtures/wire_codec_ok.rs"),
        include_str!("fixtures/wire_enum.rs"),
    ));
    assert_eq!(f.len(), 3, "findings:\n{}", render(&f));
    assert!(f.iter().all(|x| x.rule == Rule::WireExhaustive
        && x.message
            .contains("never exercised by the codec round-trip tests")));
}
