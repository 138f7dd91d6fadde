//! The rule engine: per-file protocol-invariant checks over the token
//! stream, the suppression grammar, and the cross-file wire-exhaustiveness
//! check.
//!
//! Every rule reports [`Finding`]s; a finding is fatal unless covered by an
//! inline suppression of the form
//!
//! ```text
//! // cam-lint: allow(<rule>, reason = "<non-empty justification>")
//! ```
//!
//! placed on the offending line (trailing) or on the line directly above.
//! A suppression without a reason, a malformed directive, and a
//! suppression that matches nothing are themselves findings — the
//! escape hatch must never rot silently.

use crate::lexer::{lex, Comment, Lexed, Tok, TokKind};

/// The rules `cam-lint` knows. `Suppression` is the always-on meta rule
/// that polices the escape hatch itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Hash-order iteration / wall-clock / ambient randomness in protocol
    /// crates.
    Determinism,
    /// `unwrap`/`expect`/`panic!`-family/slice-indexing in wire and
    /// runtime code.
    PanicSafety,
    /// Every `DhtMsg` variant must appear in encode, decode, size, and
    /// round-trip-test paths.
    WireExhaustive,
    /// Library crate roots must carry `#![forbid(unsafe_code)]`.
    UnsafeCode,
    /// Suppression-grammar violations (missing reason, malformed, unused).
    Suppression,
}

impl Rule {
    /// The rule's name as written in suppression directives and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::PanicSafety => "panic_safety",
            Rule::WireExhaustive => "wire_exhaustive",
            Rule::UnsafeCode => "unsafe_code",
            Rule::Suppression => "suppression",
        }
    }

    /// Parses a rule name from a suppression directive.
    pub fn from_name(s: &str) -> Option<Rule> {
        Some(match s {
            "determinism" => Rule::Determinism,
            "panic_safety" => Rule::PanicSafety,
            "wire_exhaustive" => Rule::WireExhaustive,
            "unsafe_code" => Rule::UnsafeCode,
            "suppression" => Rule::Suppression,
            _ => return None,
        })
    }

    /// Every rule, for `--list-rules` style output.
    pub fn all() -> [Rule; 5] {
        [
            Rule::Determinism,
            Rule::PanicSafety,
            Rule::WireExhaustive,
            Rule::UnsafeCode,
            Rule::Suppression,
        ]
    }
}

/// One diagnostic: a protocol-invariant violation at `file:line`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line the diagnostic points at.
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable description of the violation.
    pub message: String,
    /// First line a covering suppression may sit on (`line_from - 1`
    /// accepts a standalone comment above a multi-line statement).
    pub(crate) line_from: u32,
}

impl Finding {
    pub(crate) fn new(
        file: &str,
        line_from: u32,
        line: u32,
        rule: Rule,
        message: String,
    ) -> Self {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message,
            line_from,
        }
    }
}

/// A parsed `// cam-lint: allow(...)` directive.
#[derive(Debug)]
struct Directive {
    line: u32,
    trailing: bool,
    rule: Option<Rule>,
    /// `Some(msg)` when the directive is malformed or missing its reason.
    defect: Option<String>,
    used: bool,
}

/// Parses the suppression directives out of a file's comments.
fn parse_directives(comments: &[Comment]) -> Vec<Directive> {
    let mut out = Vec::new();
    for c in comments {
        // Doc comments (`///`, `//!`, `/**`, `/*!`) never carry directives
        // — they merely *talk about* them (rule catalogs, examples).
        let is_doc = c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!");
        if is_doc {
            continue;
        }
        let Some(at) = c.text.find("cam-lint:") else {
            continue;
        };
        let rest = c.text[at + "cam-lint:".len()..].trim_start();
        let mut d = Directive {
            line: c.line,
            trailing: c.trailing,
            rule: None,
            defect: None,
            used: false,
        };
        if let Some(args) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.strip_suffix(')'))
        {
            let (rule_name, tail) = match args.split_once(',') {
                Some((r, t)) => (r.trim(), Some(t.trim())),
                None => (args.trim(), None),
            };
            match Rule::from_name(rule_name) {
                None => {
                    d.defect =
                        Some(format!("unknown rule `{rule_name}` in cam-lint directive"));
                }
                Some(rule) => {
                    d.rule = Some(rule);
                    let reason = tail
                        .and_then(|t| t.strip_prefix("reason"))
                        .map(|t| t.trim_start())
                        .and_then(|t| t.strip_prefix('='))
                        .map(|t| t.trim())
                        .and_then(|t| t.strip_prefix('"'))
                        .and_then(|t| t.strip_suffix('"'))
                        .map(str::trim);
                    match reason {
                        Some(r) if !r.is_empty() => {}
                        _ => {
                            d.defect = Some(
                                "cam-lint suppression must give a reason: \
                                 `// cam-lint: allow(<rule>, reason = \"...\")`"
                                    .to_string(),
                            );
                        }
                    }
                }
            }
        } else {
            d.defect = Some(
                "malformed cam-lint directive; expected \
                 `// cam-lint: allow(<rule>, reason = \"...\")`"
                    .to_string(),
            );
        }
        out.push(d);
    }
    out
}

/// Lexed file plus the precomputed spans the rules need.
pub struct FileCtx {
    /// Workspace-relative path, used in findings.
    pub file: String,
    lexed: Lexed,
    /// `(from_line, to_line)` ranges of `#[test]` / `#[cfg(test)]` items.
    excluded: Vec<(u32, u32)>,
    /// Token-index ranges (inclusive) of `#[...]` / `#![...]` attributes.
    attrs: Vec<(usize, usize)>,
}

impl FileCtx {
    /// Lexes `src` and precomputes attribute and test-item spans.
    pub fn new(file: &str, src: &str) -> Self {
        let lexed = lex(src);
        let attrs = attribute_spans(&lexed.toks);
        let excluded = test_spans(&lexed.toks, &attrs);
        FileCtx {
            file: file.to_string(),
            lexed,
            excluded,
            attrs,
        }
    }

    fn toks(&self) -> &[Tok] {
        &self.lexed.toks
    }

    /// Whether `line` falls inside a `#[test]` / `#[cfg(test)]` item.
    fn in_test(&self, line: u32) -> bool {
        self.excluded.iter().any(|&(a, b)| line >= a && line <= b)
    }

    fn in_attr(&self, idx: usize) -> bool {
        self.attrs.iter().any(|&(a, b)| idx >= a && idx <= b)
    }
}

/// Token-index spans of attributes: `#` (`!`)? `[` … matching `]`.
fn attribute_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" {
            let mut j = i + 1;
            if j < toks.len() && toks[j].text == "!" {
                j += 1;
            }
            if j < toks.len() && toks[j].text == "[" {
                let open_depth = toks[j].depth;
                let mut k = j + 1;
                while k < toks.len() && !(toks[k].text == "]" && toks[k].depth == open_depth) {
                    k += 1;
                }
                out.push((i, k.min(toks.len() - 1)));
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Line spans of items annotated with a `test`-carrying attribute
/// (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`, …).
fn test_spans(toks: &[Tok], attrs: &[(usize, usize)]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for &(a, b) in attrs {
        let is_testy = toks[a..=b]
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "test");
        if !is_testy {
            continue;
        }
        // Find the item body: the first `{` after the attribute at the
        // attribute's depth; bail at a `;` (e.g. `mod tests;`).
        let d = toks[a].depth;
        let mut k = b + 1;
        let mut open = None;
        while k < toks.len() {
            let t = &toks[k];
            if t.depth == d && t.text == ";" {
                break;
            }
            if t.depth == d && t.text == "{" {
                open = Some(k);
                break;
            }
            k += 1;
        }
        let Some(open) = open else { continue };
        let mut close = open + 1;
        while close < toks.len() && !(toks[close].text == "}" && toks[close].depth == d) {
            close += 1;
        }
        let to_line = toks.get(close).map_or(u32::MAX, |t| t.line);
        out.push((toks[a].line, to_line));
    }
    out
}

// ------------------------------------------------------------ determinism

/// Map/set iteration methods whose order is the hasher's.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Chain terminals whose result does not depend on iteration order.
const ORDER_INSENSITIVE: &[&str] = &[
    "sum",
    "product",
    "count",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "all",
    "any",
    "len",
    "is_empty",
    "contains",
];

/// Methods on a map/set that are order-safe when seen in a `for` head
/// (`for i in 0..m.len()` must not trip the rule).
const SAFE_MAP_METHODS: &[&str] = &[
    "get",
    "get_mut",
    "contains_key",
    "contains",
    "len",
    "is_empty",
    "entry",
    "insert",
    "remove",
    "clear",
    "clone",
    "capacity",
    "reserve",
    "get_or_insert_with",
];

/// Collections whose iteration order is defined, so collecting into them
/// discharges the hash-order hazard. `RecordingTracer` qualifies: it is an
/// append-only ring whose events replay in insertion (`seq`) order.
/// `ShardedEventQueue` qualifies too: its pops come out in global
/// `(at, seq)` order no matter how pushes were interleaved across shards.
const ORDERED_SINKS: &[&str] = &[
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "RecordingTracer",
    "ShardedEventQueue",
];

/// Re-keyed hash collections: collecting into them neither preserves nor
/// launders order, so the hazard moves to wherever *they* are iterated.
const HASH_SINKS: &[&str] = &["HashMap", "HashSet"];

/// Identifiers that smuggle wall-clock time or ambient entropy into
/// protocol code.
const AMBIENT_IDENTS: &[&str] = &[
    "Instant",
    "SystemTime",
    "thread_rng",
    "OsRng",
    "from_entropy",
    "RandomState",
    "getrandom",
];

/// Collects the identifiers bound to `HashMap`/`HashSet` types in this
/// file: struct fields, `let` bindings, and fn parameters with a type
/// annotation, plus `= HashMap::new()`-style initializations.
fn map_idents(toks: &[Tok]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !HASH_SINKS.contains(&t.text.as_str()) {
            continue;
        }
        // `name = HashMap::new(...)`, walking back over `=`.
        if i >= 2 && toks[i - 1].text == "=" && toks[i - 2].kind == TokKind::Ident {
            push_unique(&mut out, &toks[i - 2].text);
            continue;
        }
        // `name: [&]['a][mut] [path::]HashMap<...>`, walking back over the
        // path and any reference/mutability sigils to the single `:`.
        let mut j = i as isize - 1;
        loop {
            if j >= 1 && toks[j as usize].text == ":" && toks[j as usize - 1].text == ":" {
                j -= 2; // `::` path separator
                if j >= 0 && toks[j as usize].kind == TokKind::Ident {
                    j -= 1; // path segment
                }
                continue;
            }
            if j >= 0 {
                let tj = &toks[j as usize];
                if tj.text == "&"
                    || tj.text == "mut"
                    || tj.text == "dyn"
                    || tj.kind == TokKind::Lifetime
                {
                    j -= 1;
                    continue;
                }
            }
            break;
        }
        if j >= 1 && toks[j as usize].text == ":" && toks[j as usize - 1].kind == TokKind::Ident
        {
            push_unique(&mut out, &toks[j as usize - 1].text);
        }
    }
    out
}

fn push_unique(v: &mut Vec<String>, s: &str) {
    if !v.iter().any(|x| x == s) {
        v.push(s.to_string());
    }
}

/// Index of the token ending the statement containing token `i` (a `;` at
/// the statement's depth, or the first token closing the enclosing block).
fn stmt_end(toks: &[Tok], i: usize) -> usize {
    let d = toks[i].depth;
    let cap = (i + 600).min(toks.len());
    for (j, t) in toks.iter().enumerate().take(cap).skip(i + 1) {
        if t.depth < d {
            return j;
        }
        if t.text == ";" && t.depth <= d {
            return j;
        }
    }
    cap.saturating_sub(1)
}

/// Index of the first token of the statement containing token `i`.
fn stmt_start(toks: &[Tok], i: usize) -> usize {
    let d = toks[i].depth;
    let floor = i.saturating_sub(600);
    let mut j = i;
    while j > floor {
        let t = &toks[j - 1];
        if (t.text == ";" && t.depth <= d)
            || (t.text == "{" && t.depth < d)
            || (t.text == "}" && t.depth <= d)
        {
            return j;
        }
        j -= 1;
    }
    j
}

/// Does the statement slice bind `let [mut] NAME`? Returns the name.
fn let_binding(toks: &[Tok], start: usize, end: usize) -> Option<&str> {
    if toks.get(start)?.text != "let" {
        return None;
    }
    let mut j = start + 1;
    if toks.get(j)?.text == "mut" {
        j += 1;
    }
    let t = toks.get(j)?;
    (t.kind == TokKind::Ident && j < end).then_some(t.text.as_str())
}

/// After statement end `e`, is `NAME.sort*` called within the next few
/// statements of the same block?
fn sorted_after(toks: &[Tok], e: usize, name: &str, d: u32) -> bool {
    let cap = (e + 90).min(toks.len());
    for j in e + 1..cap {
        if toks[j].depth < d {
            return false; // block ended before any sort
        }
        if toks[j].kind == TokKind::Ident
            && toks[j].text == name
            && toks.get(j + 1).is_some_and(|t| t.text == ".")
            && toks
                .get(j + 2)
                .is_some_and(|t| t.kind == TokKind::Ident && t.text.starts_with("sort"))
        {
            return true;
        }
    }
    false
}

/// Does the statement `[s, e]` discharge the iteration-order hazard?
fn order_discharged(toks: &[Tok], site: usize, s: usize, e: usize) -> bool {
    // 1. An order-insensitive terminal later in the chain.
    for j in site + 1..e {
        if toks[j].kind == TokKind::Ident
            && ORDER_INSENSITIVE.contains(&toks[j].text.as_str())
            && j >= 1
            && toks[j - 1].text == "."
        {
            return true;
        }
    }
    // 2. Collecting into an ordered or re-keyed hash container (either via
    //    turbofish or via the let-type annotation).
    let collected_into_unordered = toks[s..e].iter().any(|t| {
        t.kind == TokKind::Ident
            && (ORDERED_SINKS.contains(&t.text.as_str())
                || HASH_SINKS.contains(&t.text.as_str()))
    });
    if collected_into_unordered {
        return true;
    }
    // 3. `let mut v: Vec<_> = …collect();` followed by `v.sort*()`.
    if let Some(name) = let_binding(toks, s, e) {
        if sorted_after(toks, e, name, toks[site].depth) {
            return true;
        }
    }
    false
}

/// The determinism rule for one file.
pub fn check_determinism(ctx: &FileCtx) -> Vec<Finding> {
    let toks = ctx.toks();
    let maps = map_idents(toks);
    let mut out = Vec::new();

    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || ctx.in_test(t.line) || ctx.in_attr(i) {
            continue;
        }
        // Wall-clock / ambient-entropy identifiers.
        if AMBIENT_IDENTS.contains(&t.text.as_str()) {
            out.push(Finding::new(
                &ctx.file,
                t.line.saturating_sub(1),
                t.line,
                Rule::Determinism,
                format!(
                    "`{}` injects wall-clock time or ambient entropy; protocol code must \
                     take time and randomness from the harness (SimRng / virtual clock)",
                    t.text
                ),
            ));
            continue;
        }
        // `recv.iter()`-family on a known hash container.
        if ITER_METHODS.contains(&t.text.as_str())
            && i >= 2
            && toks[i - 1].text == "."
            && toks[i - 2].kind == TokKind::Ident
            && maps.iter().any(|m| *m == toks[i - 2].text)
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            let s = stmt_start(toks, i);
            let e = stmt_end(toks, i);
            if !order_discharged(toks, i, s, e) {
                out.push(Finding::new(
                    &ctx.file,
                    toks[s].line.saturating_sub(1),
                    t.line,
                    Rule::Determinism,
                    format!(
                        "`.{}()` on hash-ordered `{}` leaks nondeterministic iteration \
                         order; sort into a Vec (or reduce with an order-insensitive \
                         terminal) before it can steer protocol behavior",
                        t.text,
                        toks[i - 2].text
                    ),
                ));
            }
            continue;
        }
        // `for pat in <expr mentioning a map>`.
        if t.text == "for" {
            let d = t.depth;
            let Some(in_idx) = (i + 1..(i + 40).min(toks.len())).find(|&j| {
                toks[j].kind == TokKind::Ident && toks[j].text == "in" && toks[j].depth == d
            }) else {
                continue;
            };
            let Some(body) = (in_idx + 1..(in_idx + 80).min(toks.len()))
                .find(|&j| toks[j].text == "{" && toks[j].depth == d)
            else {
                continue;
            };
            for j in in_idx + 1..body {
                let tj = &toks[j];
                if tj.kind == TokKind::Ident && maps.contains(&tj.text) {
                    // A following `.` hands the verdict to the method
                    // rules above (`.iter()`) or declares it safe
                    // (`.len()`); a bare mention is direct iteration.
                    let dotted = toks.get(j + 1).is_some_and(|n| n.text == ".");
                    if !dotted {
                        out.push(Finding::new(
                            &ctx.file,
                            t.line.saturating_sub(1),
                            tj.line,
                            Rule::Determinism,
                            format!(
                                "`for` loop iterates hash-ordered `{}` directly; its \
                                 order differs between runs — iterate a sorted Vec of \
                                 its entries instead",
                                tj.text
                            ),
                        ));
                    } else if toks.get(j + 2).is_some_and(|m| {
                        m.kind == TokKind::Ident
                            && !SAFE_MAP_METHODS.contains(&m.text.as_str())
                            && !ITER_METHODS.contains(&m.text.as_str())
                            && !ORDER_INSENSITIVE.contains(&m.text.as_str())
                    }) {
                        out.push(Finding::new(
                            &ctx.file,
                            t.line.saturating_sub(1),
                            tj.line,
                            Rule::Determinism,
                            format!(
                                "`for` loop consumes hash-ordered `{}` through `.{}`, \
                                 which cam-lint cannot prove order-safe; sort first or \
                                 suppress with a reason",
                                tj.text,
                                toks[j + 2].text
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

// ------------------------------------------------------------ panic safety

/// The panic-safety rule for one file.
pub fn check_panic_safety(ctx: &FileCtx) -> Vec<Finding> {
    let toks = ctx.toks();
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if ctx.in_test(t.line) || ctx.in_attr(i) {
            continue;
        }
        if t.kind == TokKind::Ident {
            if (t.text == "unwrap" || t.text == "expect")
                && i >= 1
                && toks[i - 1].text == "."
                && toks.get(i + 1).is_some_and(|n| n.text == "(")
            {
                out.push(Finding::new(
                    &ctx.file,
                    t.line.saturating_sub(1),
                    t.line,
                    Rule::PanicSafety,
                    format!(
                        "`.{}()` can panic a live node; return a typed error or \
                         count-and-drop (WireCounters) instead",
                        t.text
                    ),
                ));
                continue;
            }
            if matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            ) && toks.get(i + 1).is_some_and(|n| n.text == "!")
            {
                out.push(Finding::new(
                    &ctx.file,
                    t.line.saturating_sub(1),
                    t.line,
                    Rule::PanicSafety,
                    format!(
                        "`{}!` aborts the node on a path reachable at runtime; degrade \
                         gracefully (typed error / counted drop) instead",
                        t.text
                    ),
                ));
                continue;
            }
        }
        // Indexing: `expr[...]` where expr ends in an identifier, `)`, or
        // `]`. Type positions (`[u8; N]`) follow `:`/`<`/`;`/`=` and never
        // match — but keywords lex as identifiers, so `&mut [u8]` or
        // `return [x]` (slice types, array literals) must not count as a
        // receiver. The always-safe full-range slice `[..]` is exempt.
        const NON_RECEIVER_KEYWORDS: &[&str] = &[
            "mut", "dyn", "ref", "as", "in", "return", "else", "impl", "where", "const",
            "static", "box", "move",
        ];
        if t.text == "["
            && i >= 1
            && (toks[i - 1].kind == TokKind::Ident
                && !NON_RECEIVER_KEYWORDS.contains(&toks[i - 1].text.as_str())
                || toks[i - 1].text == ")"
                || toks[i - 1].text == "]")
        {
            let full_range = toks.get(i + 1).is_some_and(|a| a.text == ".")
                && toks.get(i + 2).is_some_and(|b| b.text == ".")
                && toks.get(i + 3).is_some_and(|c| c.text == "]");
            if !full_range {
                out.push(Finding::new(
                    &ctx.file,
                    t.line.saturating_sub(1),
                    t.line,
                    Rule::PanicSafety,
                    format!(
                        "indexing `{}[…]` panics on an out-of-range index; use \
                         `.get()`/`.get_mut()` and handle the miss",
                        toks[i - 1].text
                    ),
                ));
            }
        }
    }
    out
}

// ------------------------------------------------------------ unsafe gate

/// Checks that a library crate root opts out of `unsafe` entirely.
pub fn check_unsafe_gate(ctx: &FileCtx) -> Vec<Finding> {
    let toks = ctx.toks();
    let has_forbid = toks.windows(3).any(|w| {
        w[0].kind == TokKind::Ident
            && w[0].text == "forbid"
            && w[1].text == "("
            && w[2].text == "unsafe_code"
    });
    if has_forbid {
        Vec::new()
    } else {
        vec![Finding::new(
            &ctx.file,
            0,
            1,
            Rule::UnsafeCode,
            "library crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        )]
    }
}

// ------------------------------------------------------- wire exhaustiveness

/// Source inputs of the wire-exhaustiveness check, decoupled from the
/// filesystem so fixtures can drive it directly.
pub struct WireSources<'a> {
    /// `(path label, source)` of the file declaring the message enum.
    pub enum_src: (&'a str, &'a str),
    /// The message enum's name (`DhtMsg`).
    pub enum_name: &'a str,
    /// `(path label, source)` of the codec.
    pub codec_src: (&'a str, &'a str),
    /// Codec functions every variant must appear in (encode, decode, size).
    pub codec_fns: &'a [&'a str],
    /// `(path label, source)` of the round-trip test suite.
    pub roundtrip_src: (&'a str, &'a str),
}

/// Extracts the variant names of `enum <name>` from a token stream.
fn enum_variants(toks: &[Tok], attrs: &[(usize, usize)], name: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let Some(kw) = (0..toks.len()).find(|&i| {
        toks[i].kind == TokKind::Ident
            && toks[i].text == "enum"
            && toks.get(i + 1).is_some_and(|n| n.text == name)
    }) else {
        return out;
    };
    let d = toks[kw].depth;
    let Some(open) = (kw + 2..toks.len()).find(|&i| toks[i].text == "{" && toks[i].depth == d)
    else {
        return out;
    };
    let mut expecting = true;
    let mut i = open + 1;
    while i < toks.len() {
        let t = &toks[i];
        if t.text == "}" && t.depth == d {
            break;
        }
        if attrs.iter().any(|&(a, b)| i >= a && i <= b) {
            i += 1;
            continue;
        }
        if t.depth == d + 1 {
            if expecting && t.kind == TokKind::Ident {
                out.push((t.text.clone(), t.line));
                expecting = false;
            } else if t.text == "," {
                expecting = true;
            }
        }
        i += 1;
    }
    out
}

/// Token span (exclusive of braces) of `fn <name>`'s body.
fn fn_body(toks: &[Tok], name: &str) -> Option<(usize, usize, u32)> {
    let kw = (0..toks.len()).find(|&i| {
        toks[i].kind == TokKind::Ident
            && toks[i].text == "fn"
            && toks.get(i + 1).is_some_and(|n| n.text == name)
    })?;
    let d = toks[kw].depth;
    let open = (kw + 2..toks.len()).find(|&i| toks[i].text == "{" && toks[i].depth == d)?;
    let close = (open + 1..toks.len()).find(|&i| toks[i].text == "}" && toks[i].depth == d)?;
    Some((open + 1, close, toks[kw].line))
}

/// Does `toks[range]` mention `Enum::Variant`?
fn mentions_variant(
    toks: &[Tok],
    from: usize,
    to: usize,
    enum_name: &str,
    variant: &str,
) -> bool {
    (from..to.saturating_sub(3)).any(|i| {
        toks[i].kind == TokKind::Ident
            && toks[i].text == enum_name
            && toks[i + 1].text == ":"
            && toks[i + 2].text == ":"
            && toks[i + 3].text == variant
    })
}

/// The wire-exhaustiveness rule: every enum variant must appear in each
/// codec function and in the round-trip test suite.
pub fn check_wire(src: &WireSources<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    let enum_lexed = lex(src.enum_src.1);
    let enum_attrs = attribute_spans(&enum_lexed.toks);
    let variants = enum_variants(&enum_lexed.toks, &enum_attrs, src.enum_name);
    if variants.is_empty() {
        out.push(Finding::new(
            src.enum_src.0,
            0,
            1,
            Rule::WireExhaustive,
            format!("could not find `enum {}` to cross-check", src.enum_name),
        ));
        return out;
    }
    let codec = lex(src.codec_src.1);
    for fname in src.codec_fns {
        let Some((from, to, fline)) = fn_body(&codec.toks, fname) else {
            out.push(Finding::new(
                src.codec_src.0,
                0,
                1,
                Rule::WireExhaustive,
                format!("codec function `{fname}` not found for exhaustiveness check"),
            ));
            continue;
        };
        for (v, _) in &variants {
            if !mentions_variant(&codec.toks, from, to, src.enum_name, v) {
                out.push(Finding::new(
                    src.codec_src.0,
                    0,
                    fline,
                    Rule::WireExhaustive,
                    format!(
                        "`{}::{v}` has no arm in `{fname}`; a message variant must be \
                         handled by every codec path or it silently skips the wire",
                        src.enum_name
                    ),
                ));
            }
        }
    }
    let rt = lex(src.roundtrip_src.1);
    for (v, _) in &variants {
        if !mentions_variant(&rt.toks, 0, rt.toks.len(), src.enum_name, v) {
            out.push(Finding::new(
                src.roundtrip_src.0,
                0,
                1,
                Rule::WireExhaustive,
                format!(
                    "`{}::{v}` is never exercised by the codec round-trip tests",
                    src.enum_name
                ),
            ));
        }
    }
    out
}

// ------------------------------------------------------------- application

/// Runs `rules` over one file, applies suppressions, and polices the
/// suppressions themselves. Returns the surviving findings.
pub fn analyze_file(ctx: &FileCtx, rules: &[Rule]) -> Vec<Finding> {
    let mut raw: Vec<Finding> = Vec::new();
    for r in rules {
        match r {
            Rule::Determinism => raw.extend(check_determinism(ctx)),
            Rule::PanicSafety => raw.extend(check_panic_safety(ctx)),
            Rule::UnsafeCode => raw.extend(check_unsafe_gate(ctx)),
            Rule::WireExhaustive | Rule::Suppression => {}
        }
    }
    apply_suppressions(ctx, raw)
}

/// Applies `ctx`'s inline suppressions to `raw` findings and polices the
/// directives themselves.
fn apply_suppressions(ctx: &FileCtx, raw: Vec<Finding>) -> Vec<Finding> {
    let mut directives = parse_directives(&ctx.lexed.comments);
    let mut out = Vec::new();
    for f in raw {
        // A trailing directive covers its own line; a standalone one
        // covers the statement starting on the next line (multi-line
        // statements report both their start and the offending token).
        let covered = directives.iter_mut().find(|d| {
            d.defect.is_none()
                && d.rule == Some(f.rule)
                && if d.trailing {
                    d.line >= f.line_from.saturating_add(1) && d.line <= f.line
                } else {
                    d.line >= f.line_from && d.line < f.line
                }
        });
        match covered {
            Some(d) => d.used = true,
            None => out.push(f),
        }
    }
    for d in &directives {
        if let Some(defect) = &d.defect {
            out.push(Finding::new(
                &ctx.file,
                d.line.saturating_sub(1),
                d.line,
                Rule::Suppression,
                defect.clone(),
            ));
        } else if !d.used {
            out.push(Finding::new(
                &ctx.file,
                d.line.saturating_sub(1),
                d.line,
                Rule::Suppression,
                format!(
                    "unused cam-lint suppression for `{}`: nothing on the covered line \
                     trips the rule — delete it",
                    d.rule.map_or("?", Rule::name)
                ),
            ));
        }
    }
    out
}
