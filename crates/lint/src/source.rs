//! Per-file rule engine: token-sequence matchers over the lexed stream,
//! `#[cfg(test)]` region exemption, the allow/expect comment machinery
//! and unused-allow detection.

use crate::lexer::{lex, CommentLine, Tok, TokKind};
use crate::{AllowRecord, Diagnostic, FileCtx, Rule, UnsafeSite};
use std::collections::BTreeSet;

/// Result of linting one source file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    pub diagnostics: Vec<Diagnostic>,
    pub unsafe_sites: Vec<UnsafeSite>,
    pub allows: Vec<AllowRecord>,
}

/// Hash-ordered collection type names (the workspace's `FxHashMap` /
/// `FxHashSet` are std hash tables under a deterministic hasher — their
/// iteration order is still hash order, not insertion order, so the
/// determinism contract treats them identically).
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Containers a hash iteration may be re-aggregated into without
/// leaking order: another hash table, or a sorted BTree.
const ORDER_FREE_TYPES: &[&str] = &[
    "HashMap",
    "HashSet",
    "FxHashMap",
    "FxHashSet",
    "BTreeMap",
    "BTreeSet",
];

/// Iterator-consuming methods whose result is independent of the
/// iteration order (for a deterministic value set).
const ORDER_FREE_SINKS: &[&str] = &["count", "sum", "min", "max", "any", "all"];

/// Methods that begin an iteration over their receiver.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Guard methods that yield a lock guard; `.unwrap()` on them condemns
/// every later caller after one poisoning panic.
const LOCK_METHODS: &[&str] = &["lock", "try_lock", "read", "try_read", "write", "try_write"];

/// Keywords that rule out "identifier before `[` means indexing".
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "trait", "type", "union", "unsafe", "use", "where", "while",
    "yield",
];

/// A parsed `// gdx-lint: allow(rule) — reason` comment.
#[derive(Debug)]
struct Allow {
    line: u32,
    /// Line of code the allow applies to (its own line for a trailing
    /// comment, the next code line for a standalone one).
    target: u32,
    rule: Rule,
    reason: String,
    used: bool,
}

/// Lints `text` as the source of `file` under `ctx`.
pub fn lint_source(file: &str, text: &str, ctx: &FileCtx) -> FileOutcome {
    let lexed = lex(text);
    let (toks, skipped) = filter_test_regions(&lexed.tokens);
    let mut out = FileOutcome::default();

    // --- allow comments -------------------------------------------------
    let mut allows: Vec<Allow> = Vec::new();
    for c in &lexed.comments {
        if skipped.iter().any(|&(a, b)| c.line >= a && c.line <= b) {
            continue; // test code is exempt, so its allows are inert
        }
        match parse_directive(c) {
            Directive::None | Directive::Expect => {}
            Directive::Allow { rule, reason } => {
                let trailing = lexed.tokens.iter().any(|t| t.line == c.line);
                let target = if trailing {
                    c.line
                } else {
                    lexed
                        .tokens
                        .iter()
                        .map(|t| t.line)
                        .find(|&l| l > c.line)
                        .unwrap_or(c.line)
                };
                allows.push(Allow {
                    line: c.line,
                    target,
                    rule,
                    reason,
                    used: false,
                });
            }
            Directive::Bad(msg) => out.diagnostics.push(Diagnostic {
                rule: Rule::BadAllow,
                severity: Rule::BadAllow.severity(),
                file: file.to_owned(),
                line: c.line,
                message: msg,
            }),
        }
    }

    // --- token rules ----------------------------------------------------
    let mut raw: Vec<(Rule, u32, String)> = Vec::new();
    if ctx.applies(Rule::WallClock) {
        check_wall_clock(&toks, &mut raw);
    }
    if ctx.applies(Rule::ClockInject) {
        check_clock_inject(&toks, &mut raw);
    }
    if ctx.applies(Rule::ThreadSpawn) {
        check_thread_spawn(&toks, &mut raw);
    }
    if ctx.applies(Rule::PanicMacro) {
        check_panic_macro(&toks, &mut raw);
    }
    if ctx.applies(Rule::LockUnwrap) {
        check_lock_unwrap(&toks, &mut raw);
    }
    if ctx.applies(Rule::SliceIndex) {
        check_slice_index(&toks, &mut raw);
    }
    if ctx.applies(Rule::HashIter) {
        check_hash_iter(&toks, &mut raw);
    }
    if ctx.applies(Rule::UnsafeCode) {
        check_unsafe(
            &toks,
            &lexed.comments,
            file,
            &mut raw,
            &mut out.unsafe_sites,
        );
    }

    // --- crate-root requirements ---------------------------------------
    // Needles are written in normalized token form: every token
    // space-separated, so `::` appears as `: :`.
    if let Some(root) = &ctx.root {
        let joined = normalized(&lexed.tokens);
        if !joined.contains("# ! [ forbid ( unsafe_code ) ]") {
            raw.push((
                Rule::ForbidUnsafe,
                1,
                "crate root lacks `#![forbid(unsafe_code)]`".to_owned(),
            ));
        }
        if root.require_preamble
            && !joined.contains(
                "# ! [ cfg_attr ( not ( test ) , deny ( clippy : : unwrap_used , clippy : : \
                 expect_used ) ) ]",
            )
        {
            raw.push((
                Rule::DenyPreamble,
                1,
                "library crate root lacks the `#![cfg_attr(not(test), \
                 deny(clippy::unwrap_used, clippy::expect_used))]` preamble"
                    .to_owned(),
            ));
        }
    }

    // --- suppression + dedup --------------------------------------------
    raw.sort_by(|a, b| (a.1, a.0, &a.2).cmp(&(b.1, b.0, &b.2)));
    raw.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
    for (rule, line, message) in raw {
        // File-level rules are suppressed by an allow anywhere in the
        // file; line rules require the allow on (or just above) the
        // offending line.
        let file_level = matches!(rule, Rule::ForbidUnsafe | Rule::DenyPreamble);
        let suppressed = allows
            .iter_mut()
            .find(|a| a.rule == rule && (file_level || a.target == line))
            .map(|a| a.used = true)
            .is_some();
        if !suppressed {
            out.diagnostics.push(Diagnostic {
                rule,
                severity: rule.severity(),
                file: file.to_owned(),
                line,
                message,
            });
        }
    }
    for a in &allows {
        if !a.used {
            out.diagnostics.push(Diagnostic {
                rule: Rule::UnusedAllow,
                severity: Rule::UnusedAllow.severity(),
                file: file.to_owned(),
                line: a.line,
                message: format!(
                    "stale suppression: `allow({})` matches no diagnostic on line {}",
                    a.rule.id(),
                    a.target
                ),
            });
        }
        out.allows.push(AllowRecord {
            file: file.to_owned(),
            line: a.line,
            rule: a.rule,
            reason: a.reason.clone(),
            used: a.used,
        });
    }
    out
}

/// Parsed form of a `gdx-lint:` comment.
enum Directive {
    None,
    Expect,
    Allow { rule: Rule, reason: String },
    Bad(String),
}

fn parse_directive(c: &CommentLine) -> Directive {
    let Some(rest) = c.text.trim().strip_prefix("gdx-lint:") else {
        return Directive::None;
    };
    let rest = rest.trim_start();
    if rest.starts_with("expect(") {
        return Directive::Expect; // fixture marker, inert in real runs
    }
    let Some(body) = rest.strip_prefix("allow(") else {
        return Directive::Bad(format!(
            "unrecognized gdx-lint directive `{}` (expected `allow(<rule>) — <reason>`)",
            rest.split_whitespace().next().unwrap_or("")
        ));
    };
    let Some(close) = body.find(')') else {
        return Directive::Bad("malformed allow: missing `)`".to_owned());
    };
    let id = body[..close].trim();
    let Some(rule) = Rule::from_id(id) else {
        return Directive::Bad(format!("allow names unknown rule `{id}`"));
    };
    let mut reason = body[close + 1..].trim_start();
    for sep in ["—", "–", "--", "-", ":"] {
        if let Some(r) = reason.strip_prefix(sep) {
            reason = r;
            break;
        }
    }
    let reason = reason.trim();
    if reason.is_empty() {
        return Directive::Bad(format!(
            "allow({id}) carries no reason — suppressions must be auditable"
        ));
    }
    Directive::Allow {
        rule,
        reason: reason.to_owned(),
    }
}

/// Drops tokens belonging to `#[cfg(test)]` / `#[test]` items and
/// returns the kept tokens plus the skipped line ranges.
fn filter_test_regions<'a>(toks: &[Tok<'a>]) -> (Vec<Tok<'a>>, Vec<(u32, u32)>) {
    let mut out = Vec::with_capacity(toks.len());
    let mut skipped = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let close = matching(toks, i + 1, '[', ']');
            let attr = &toks[i + 2..close.min(toks.len())];
            if is_test_attr(attr) {
                let start_line = toks[i].line;
                let mut j = close + 1;
                // Consume any further attributes on the same item.
                while toks.get(j).is_some_and(|t| t.is_punct('#'))
                    && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    j = matching(toks, j + 1, '[', ']') + 1;
                }
                // Skip the item: to `;` at depth 0, or through the
                // first brace-balanced `{ ... }`.
                let mut depth = 0i32;
                while j < toks.len() {
                    let t = &toks[j];
                    if t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if t.is_punct(';') && depth == 0 {
                        break;
                    }
                    j += 1;
                }
                let end_line = toks.get(j).map_or(start_line, |t| t.line);
                skipped.push((start_line, end_line));
                i = j + 1;
                continue;
            }
        }
        out.push(toks[i]);
        i += 1;
    }
    (out, skipped)
}

/// `#[test]`, `#[cfg(test)]` (and `#[cfg(all(test, ...))]`).
fn is_test_attr(attr: &[Tok<'_>]) -> bool {
    match attr.first() {
        Some(t) if t.is_ident("test") => attr.len() == 1,
        Some(t) if t.is_ident("cfg") => {
            attr.get(1).is_some_and(|t| t.is_punct('('))
                && (attr.get(2).is_some_and(|t| t.is_ident("test"))
                    || (attr.get(2).is_some_and(|t| t.is_ident("all"))
                        && attr.get(4).is_some_and(|t| t.is_ident("test"))))
        }
        _ => false,
    }
}

/// Index of the punct closing the group opened at `open_idx`.
fn matching(toks: &[Tok<'_>], open_idx: usize, open: char, close: char) -> usize {
    let mut depth = 0i32;
    let mut j = open_idx;
    while j < toks.len() {
        if toks[j].is_punct(open) {
            depth += 1;
        } else if toks[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len()
}

/// Tokens joined with single spaces, for attribute needle search.
fn normalized(toks: &[Tok<'_>]) -> String {
    let mut s = String::with_capacity(toks.len() * 4);
    for t in toks {
        s.push_str(t.text);
        s.push(' ');
    }
    s
}

// ---------------------------------------------------------------------
// Rule matchers
// ---------------------------------------------------------------------

fn check_wall_clock(toks: &[Tok<'_>], out: &mut Vec<(Rule, u32, String)>) {
    for (i, t) in toks.iter().enumerate() {
        if (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            out.push((
                Rule::WallClock,
                t.line,
                format!(
                    "`{}::now()` in a library crate: results must be functions of inputs, \
                     not of the clock (time only in cli/sim)",
                    t.text
                ),
            ));
        }
    }
}

fn check_clock_inject(toks: &[Tok<'_>], out: &mut Vec<(Rule, u32, String)>) {
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("MonotonicClock")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            out.push((
                Rule::ClockInject,
                t.line,
                "`MonotonicClock` constructed in a library crate: take an injected \
                 `gdx_obs::Clock` (`&dyn Clock` / `Arc<dyn Clock>`) instead — only entry \
                 points (cli/sim) decide which clock runs"
                    .to_owned(),
            ));
        }
    }
}

fn check_thread_spawn(toks: &[Tok<'_>], out: &mut Vec<(Rule, u32, String)>) {
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("thread")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks
                .get(i + 3)
                .is_some_and(|t| t.is_ident("spawn") || t.is_ident("scope"))
        {
            let what = toks[i + 3].text;
            out.push((
                Rule::ThreadSpawn,
                t.line,
                format!(
                    "`thread::{what}` outside gdx-runtime: all parallelism goes through \
                     the deterministic work-stealing pool (gdx_runtime::Runtime)"
                ),
            ));
        }
    }
}

fn check_panic_macro(toks: &[Tok<'_>], out: &mut Vec<(Rule, u32, String)>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && matches!(t.text, "panic" | "todo" | "unimplemented" | "dbg")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
        {
            out.push((
                Rule::PanicMacro,
                t.line,
                format!(
                    "`{}!` in non-test library code: return a typed GdxError instead \
                     (the sim no-panic contract, see ARCHITECTURE.md)",
                    t.text
                ),
            ));
        }
    }
}

fn check_lock_unwrap(toks: &[Tok<'_>], out: &mut Vec<(Rule, u32, String)>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && LOCK_METHODS.contains(&t.text)
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('.'))
            && toks
                .get(i + 4)
                .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
        {
            out.push((
                Rule::LockUnwrap,
                t.line,
                format!(
                    "`.{}().{}()` on a lock guard: recover from poisoning with \
                     `.unwrap_or_else(std::sync::PoisonError::into_inner)` so one caught \
                     panic cannot condemn every later caller",
                    t.text,
                    toks[i + 4].text
                ),
            ));
        }
    }
}

fn check_slice_index(toks: &[Tok<'_>], out: &mut Vec<(Rule, u32, String)>) {
    for (i, t) in toks.iter().enumerate() {
        if !t.is_punct('[') || i == 0 {
            continue;
        }
        let prev = &toks[i - 1];
        let is_recv = match prev.kind {
            TokKind::Ident => !KEYWORDS.contains(&prev.text),
            TokKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
            TokKind::Lit => false,
        };
        if !is_recv {
            continue;
        }
        let close = matching(toks, i, '[', ']');
        let sub = &toks[i + 1..close.min(toks.len())];
        // `x[0]` (literal index) and `x[..]` (full range) cannot drift
        // out of bounds the way a computed index can; stay quiet.
        let literal = sub.len() == 1
            && sub[0].kind == TokKind::Lit
            && sub[0].text.starts_with(|c: char| c.is_ascii_digit());
        let full_range = sub.len() == 2 && sub.iter().all(|t| t.is_punct('.'));
        if sub.is_empty() || literal || full_range {
            continue;
        }
        out.push((
            Rule::SliceIndex,
            t.line,
            format!(
                "direct indexing `{}[..]` may panic: prefer `get()` or carry an allow \
                 naming the bounds invariant",
                prev.text
            ),
        ));
    }
}

fn check_unsafe(
    toks: &[Tok<'_>],
    comments: &[CommentLine],
    file: &str,
    out: &mut Vec<(Rule, u32, String)>,
    inventory: &mut Vec<UnsafeSite>,
) {
    let mut seen = BTreeSet::new();
    for t in toks {
        if !t.is_ident("unsafe") || !seen.insert(t.line) {
            continue;
        }
        let annotated = comments
            .iter()
            .any(|c| c.line + 3 >= t.line && c.line <= t.line && c.text.contains("SAFETY:"));
        inventory.push(UnsafeSite {
            file: file.to_owned(),
            line: t.line,
            annotated,
        });
        if !annotated {
            out.push((
                Rule::UnsafeCode,
                t.line,
                "`unsafe` without a `// SAFETY:` comment on the preceding line(s): every \
                 site must state the invariant it relies on"
                    .to_owned(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// hash-iter: the determinism flagship
// ---------------------------------------------------------------------

fn check_hash_iter(toks: &[Tok<'_>], out: &mut Vec<(Rule, u32, String)>) {
    let names = collect_hash_names(toks);
    if names.is_empty() {
        return;
    }
    // (a) method-call iteration: `recv.iter()` etc.
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && ITER_METHODS.contains(&t.text)
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            let Some(recv) = receiver_before(toks, i - 1) else {
                continue;
            };
            if names.contains(&recv) && !sanctioned(toks, i, &names) {
                out.push((Rule::HashIter, t.line, hash_iter_msg(&recv, t.text)));
            }
        }
    }
    // (b) `for pat in [&][mut] recv { ... }`
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("for") {
            continue;
        }
        // `for<'a>` HRTB / `impl Trait for T`: no `in` before `{`/`;`.
        let Some(in_idx) = find_for_in(toks, i) else {
            continue;
        };
        let Some(brace) = toks[in_idx..]
            .iter()
            .position(|t| t.is_punct('{'))
            .map(|p| p + in_idx)
        else {
            continue;
        };
        let mut expr = &toks[in_idx + 1..brace];
        while expr
            .first()
            .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
        {
            expr = &expr[1..];
        }
        // The expr must be a plain path (the `recv.iter()` form is
        // already caught by (a)).
        if expr.is_empty() || expr.len() > 3 {
            continue;
        }
        let recv = normalized(expr).trim_end().replace(" . ", ".");
        if names.contains(&recv) {
            out.push((Rule::HashIter, t.line, hash_iter_msg(&recv, "for-in")));
        }
    }
}

fn hash_iter_msg(recv: &str, how: &str) -> String {
    format!(
        "iteration over hash-ordered `{recv}` ({how}): hash order must not leak — sort \
         the result, re-aggregate into a hash/BTree container, or carry an allow \
         naming why order cannot escape"
    )
}

/// Index of the loop's `in` keyword, or `None` when `for` is not a
/// loop (HRTB, `impl ... for ...`).
fn find_for_in(toks: &[Tok<'_>], for_idx: usize) -> Option<usize> {
    if toks.get(for_idx + 1).is_some_and(|t| t.is_punct('<')) {
        return None;
    }
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(for_idx + 1).take(64) {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_ident("in") {
            return Some(j);
        } else if depth == 0 && (t.is_punct('{') || t.is_punct(';')) {
            return None;
        }
    }
    None
}

/// Names (plain and `self.`-qualified) whose declared or constructed
/// type is hash-ordered, collected from the same file. Per-file only —
/// cross-file types need an allow at the use site; the trade is
/// documented in ARCHITECTURE.md.
fn collect_hash_names(toks: &[Tok<'_>]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let field_spans = struct_body_spans(toks);
    for (i, t) in toks.iter().enumerate() {
        // `name: ... HashX ...` (let/field/param annotation). Skip path
        // segments (`x::y`) and struct-literal fields by requiring the
        // next `:` to not be part of `::`.
        if t.kind == TokKind::Ident
            && !KEYWORDS.contains(&t.text)
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && (i == 0 || !toks[i - 1].is_punct(':'))
        {
            // Only the *outermost* annotated type counts: a
            // `Vec<FxHashMap<..>>` binding iterates in Vec order, so it
            // must not be recorded as hash-ordered. The outer type is
            // the last segment of the leading path (`&`/`mut`/lifetime
            // prefixes skipped).
            let mut j = i + 2;
            while toks
                .get(j)
                .is_some_and(|t| t.is_punct('&') || t.is_ident("mut") || t.is_ident("dyn"))
            {
                j += 1;
            }
            let mut outer: Option<&str> = None;
            while let Some(seg) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
                outer = Some(seg.text);
                if toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
                {
                    j += 3;
                } else {
                    break;
                }
            }
            if outer.is_some_and(|o| HASH_TYPES.contains(&o)) {
                // A struct/enum field is only reachable as `self.name`
                // (or through another binding the rules track on their
                // own); recording the bare name would condemn unrelated
                // same-named locals and parameters across the file.
                if !field_spans.iter().any(|&(s, e)| s <= i && i < e) {
                    names.insert(t.text.to_owned());
                }
                names.insert(format!("self.{}", t.text));
            }
        }
        // `let [mut] name = ... HashX:: ...;`
        if t.is_ident("let") {
            let mut k = i + 1;
            if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            let Some(name) = toks.get(k).filter(|t| t.kind == TokKind::Ident) else {
                continue;
            };
            if !toks.get(k + 1).is_some_and(|t| t.is_punct('=')) {
                continue;
            }
            // Constructor form: rhs must *start* with a hash-type path
            // (`FxHashMap::default()`), not merely mention one inside a
            // `vec![..]` of maps or a nested call.
            if toks.get(k + 2).is_some_and(|t| t.kind == TokKind::Ident)
                && toks.get(k + 3).is_some_and(|t| !t.is_punct('!'))
            {
                for (off, rhs) in toks.iter().enumerate().skip(k + 2).take(8) {
                    if rhs.is_punct('(') || rhs.is_punct(';') {
                        break;
                    }
                    if rhs.kind == TokKind::Ident
                        && HASH_TYPES.contains(&rhs.text)
                        && toks
                            .get(off + 1)
                            .is_some_and(|t| t.is_punct(':') || t.is_punct('<'))
                    {
                        names.insert(name.text.to_owned());
                        names.insert(format!("self.{}", name.text));
                        break;
                    }
                }
            }
        }
    }
    names
}

/// Token-index spans of `struct`/`enum`/`union` bodies — regions whose
/// `name: Type` annotations declare fields, not bindings.
fn struct_body_spans(toks: &[Tok<'_>]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident("struct") || t.is_ident("enum") || t.is_ident("union") {
            // Skip the name and any generic parameter list to the body
            // `{` (tuple/unit structs end at `(` or `;` — no field body).
            let mut angle = 0i32;
            let mut j = i + 1;
            let mut body = None;
            while let Some(n) = toks.get(j) {
                if n.is_punct('<') {
                    angle += 1;
                } else if n.is_punct('>') {
                    angle -= 1;
                } else if angle == 0 && n.is_punct('{') {
                    body = Some(j);
                    break;
                } else if angle == 0 && (n.is_punct('(') || n.is_punct(';')) {
                    break;
                }
                j += 1;
            }
            if let Some(open) = body {
                let mut depth = 0i32;
                let mut k = open;
                while let Some(n) = toks.get(k) {
                    if n.is_punct('{') {
                        depth += 1;
                    } else if n.is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                spans.push((open, k));
                i = k;
            }
        }
        i += 1;
    }
    spans
}

/// Dotted receiver path ending at the `.` punct `dot_idx` (`x`,
/// `self.field`); `None` when the receiver is a computed expression.
fn receiver_before(toks: &[Tok<'_>], dot_idx: usize) -> Option<String> {
    let mut parts: Vec<&str> = Vec::new();
    let mut j = dot_idx; // points at a `.`
    loop {
        let seg = toks.get(j.checked_sub(1)?)?;
        if seg.kind != TokKind::Ident {
            return None;
        }
        parts.push(seg.text);
        match j.checked_sub(2).map(|k| &toks[k]) {
            Some(p) if p.is_punct('.') => {
                // `).field.` / `].field.` — computed receiver.
                if j >= 3 && (toks[j - 3].is_punct(')') || toks[j - 3].is_punct(']')) {
                    return None;
                }
                j -= 2;
            }
            Some(p) if p.is_punct(')') || p.is_punct(']') || p.is_punct('"') => return None,
            _ => break,
        }
        if parts.len() > 3 {
            return None;
        }
    }
    parts.reverse();
    Some(parts.join("."))
}

/// Whether the statement around the iteration at token `idx` is
/// provably order-free: re-aggregates into a hash/BTree container,
/// ends in an order-insensitive sink, extends a hash container, or
/// collects into a binding that is sorted within the next few lines.
fn sanctioned(toks: &[Tok<'_>], idx: usize, hash_names: &BTreeSet<String>) -> bool {
    let (start, end) = statement_extent(toks, idx);
    let stmt = &toks[start..end.min(toks.len())];

    // `let [mut] name : ... OrderFree ...` annotation before `=`.
    let mut k = 0;
    if stmt.first().is_some_and(|t| t.is_ident("let")) {
        k = 1;
        if stmt.get(k).is_some_and(|t| t.is_ident("mut")) {
            k += 1;
        }
        if stmt.get(k + 1).is_some_and(|t| t.is_punct(':')) {
            for ty in stmt.iter().skip(k + 2) {
                if ty.is_punct('=') {
                    break;
                }
                if ty.kind == TokKind::Ident && ORDER_FREE_TYPES.contains(&ty.text) {
                    return true;
                }
            }
        }
    }

    // `recv.extend(hash_iter)` where recv is itself hash-ordered. The
    // statement extent stops at the call's `(`, so the receiver sits
    // just *before* `start`: `recv . extend (`.
    if start >= 3
        && toks[start - 1].is_punct('(')
        && toks[start - 2].is_ident("extend")
        && toks[start - 3].is_punct('.')
    {
        if let Some(recv) = receiver_before(toks, start - 3) {
            if hash_names.contains(&recv) {
                return true;
            }
        }
    }
    if let Some(ext) = stmt.iter().position(|t| t.is_ident("extend")) {
        if ext >= 2 && stmt[ext - 1].is_punct('.') {
            let recv = normalized(&stmt[..ext - 1]).trim_end().replace(" . ", ".");
            if hash_names.contains(&recv) {
                return true;
            }
        }
    }

    for (j, t) in stmt.iter().enumerate() {
        // `collect::<OrderFree<..>>()`
        if t.is_ident("collect")
            && stmt.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && stmt.get(j + 2).is_some_and(|t| t.is_punct(':'))
            && stmt.get(j + 3).is_some_and(|t| t.is_punct('<'))
            && stmt
                .iter()
                .skip(j + 4)
                .take(8)
                .any(|t| t.kind == TokKind::Ident && ORDER_FREE_TYPES.contains(&t.text))
        {
            return true;
        }
        // `.count()` / `.sum()` / `.min()` / ... sink in the chain.
        if t.kind == TokKind::Ident
            && ORDER_FREE_SINKS.contains(&t.text)
            && j > 0
            && stmt[j - 1].is_punct('.')
            && stmt
                .get(j + 1)
                .is_some_and(|t| t.is_punct('(') || t.is_punct(':'))
        {
            return true;
        }
    }

    // Sort lookahead: `let [mut] name ... ;` followed within ~120
    // tokens by `name.sort*`.
    if stmt.first().is_some_and(|t| t.is_ident("let")) {
        if let Some(name) = stmt.get(k).filter(|t| t.kind == TokKind::Ident) {
            let after = &toks[end.min(toks.len())..];
            for (j, t) in after.iter().enumerate().take(120) {
                if t.is_ident(name.text)
                    && after.get(j + 1).is_some_and(|t| t.is_punct('.'))
                    && after
                        .get(j + 2)
                        .is_some_and(|t| t.kind == TokKind::Ident && t.text.starts_with("sort"))
                {
                    return true;
                }
            }
        }
    }
    false
}

/// `[start, end)` token range of the statement containing `idx`:
/// backward to the previous `;`/`{`/`}` at relative depth 0, forward
/// through the terminating `;`.
fn statement_extent(toks: &[Tok<'_>], idx: usize) -> (usize, usize) {
    let mut start = idx;
    let mut depth = 0i32;
    for j in (0..idx).rev() {
        let t = &toks[j];
        if t.is_punct(')') || t.is_punct(']') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            if depth == 0 {
                start = j + 1;
                break;
            }
            depth -= 1;
        } else if depth == 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
            // A `}` at depth 0 closes the *previous* statement's block
            // (for/if/match) — a statement boundary, same as `;`.
            start = j + 1;
            break;
        }
        start = j;
        if idx - j > 300 {
            break;
        }
    }
    let mut end = idx;
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(idx) {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            if depth == 0 {
                end = j;
                break;
            }
            depth -= 1;
        } else if depth == 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
            // `{` at depth 0 opens a body (for-loop, match): the
            // chain-sanction scan must not read past it into the block.
            end = if t.is_punct(';') { j + 1 } else { j };
            break;
        }
        end = j + 1;
        if j - idx > 300 {
            break;
        }
    }
    (start, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileCtx;

    fn lint_lib(src: &str) -> Vec<(Rule, u32)> {
        lint_source("t.rs", src, &FileCtx::library("gdx-test"))
            .diagnostics
            .iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn wall_clock_fires_and_tool_crates_are_exempt() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(lint_lib(src), vec![(Rule::WallClock, 1)]);
        let tool = lint_source("t.rs", src, &FileCtx::tool("gdx-cli"));
        assert!(tool.diagnostics.is_empty());
    }

    #[test]
    fn clock_inject_fires_on_construction_but_not_on_injection() {
        let src = "fn f() { let c = MonotonicClock::new(); }";
        assert_eq!(lint_lib(src), vec![(Rule::ClockInject, 1)]);
        // Taking the trait is the sanctioned idiom.
        let inject = "fn f(clock: &dyn Clock) -> u64 { clock.now_micros() }";
        assert!(lint_lib(inject).is_empty());
        // The defining crate and the sim harness are exempt.
        for exempt in ["gdx-obs", "gdx-sim"] {
            let out = lint_source("t.rs", src, &FileCtx::library(exempt));
            assert!(out.diagnostics.is_empty(), "{exempt}");
        }
    }

    #[test]
    fn panic_macros_fire_outside_tests_only() {
        let src = "fn f() { panic!(\"x\"); }\n\
                   #[cfg(test)]\nmod tests {\n  fn g() { panic!(\"ok in tests\"); }\n}\n";
        assert_eq!(lint_lib(src), vec![(Rule::PanicMacro, 1)]);
    }

    #[test]
    fn lock_unwrap_fires_but_recovery_idiom_does_not() {
        assert_eq!(
            lint_lib("fn f() { m.lock().unwrap(); }"),
            vec![(Rule::LockUnwrap, 1)]
        );
        assert!(lint_lib(
            "fn f() { m.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }"
        )
        .is_empty());
    }

    #[test]
    fn trailing_allow_suppresses_and_is_recorded_used() {
        let src = "fn f() { panic!(\"x\"); } // gdx-lint: allow(panic-macro) — demo reason\n";
        let out = lint_source("t.rs", src, &FileCtx::library("gdx-test"));
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
        assert_eq!(out.allows.len(), 1);
        assert!(out.allows[0].used);
        assert_eq!(out.allows[0].reason, "demo reason");
    }

    #[test]
    fn standalone_allow_targets_next_code_line() {
        let src = "// gdx-lint: allow(wall-clock) — profiling hook\n\
                   fn f() { let t = Instant::now(); }\n";
        let out = lint_source("t.rs", src, &FileCtx::library("gdx-test"));
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
    }

    #[test]
    fn unused_allow_fails_the_run() {
        let src = "// gdx-lint: allow(panic-macro) — stale\nfn f() {}\n";
        assert_eq!(lint_lib(src), vec![(Rule::UnusedAllow, 1)]);
    }

    #[test]
    fn allow_without_reason_is_bad() {
        let src = "fn f() { panic!(); } // gdx-lint: allow(panic-macro)\n";
        let fired = lint_lib(src);
        assert!(fired.contains(&(Rule::BadAllow, 1)), "{fired:?}");
        // The violation itself still fires: a reasonless allow is void.
        assert!(fired.contains(&(Rule::PanicMacro, 1)), "{fired:?}");
    }

    #[test]
    fn hash_iter_fires_on_for_and_method_iteration() {
        let src = "\
fn f(m: FxHashMap<u32, u32>) {
    for k in m.keys() { use_it(k); }
    let v: Vec<u32> = m.values().copied().collect();
}";
        let fired = lint_lib(src);
        assert!(fired.contains(&(Rule::HashIter, 2)), "{fired:?}");
        assert!(fired.contains(&(Rule::HashIter, 3)), "{fired:?}");
    }

    #[test]
    fn hash_iter_sanctions_order_free_statements() {
        let src = "\
fn f(m: FxHashMap<u32, u32>, s: FxHashSet<u32>) {
    let copy: FxHashSet<u32> = s.iter().copied().collect();
    let n = m.keys().count();
    let top = m.values().max();
    let mut v: Vec<u32> = s.iter().copied().collect();
    v.sort_unstable();
    let other: FxHashSet<u32> = FxHashSet::default();
    let b = s.iter().copied().collect::<BTreeSet<u32>>();
}";
        assert!(lint_lib(src).is_empty(), "{:?}", lint_lib(src));
    }

    #[test]
    fn hash_iter_sees_struct_fields_via_self() {
        let src = "\
struct S { memo: FxHashMap<u32, u32> }
impl S {
    fn f(&self) -> Vec<u32> { self.memo.keys().copied().collect() }
}";
        let fired = lint_lib(src);
        assert!(fired.contains(&(Rule::HashIter, 3)), "{fired:?}");
    }

    #[test]
    fn slice_index_is_warn_and_literal_or_range_is_exempt() {
        let src = "\
fn f(xs: &[u32], i: usize) -> u32 {
    let a = xs[i];
    let b = xs[0];
    let c = &xs[..];
    let d = &xs[1..i];
    a
}";
        let out = lint_source("t.rs", src, &FileCtx::library("gdx-test"));
        let warns: Vec<u32> = out
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::SliceIndex)
            .map(|d| d.line)
            .collect();
        assert_eq!(warns, vec![2, 5]);
        assert!(out
            .diagnostics
            .iter()
            .all(|d| d.severity == crate::Severity::Warn));
    }

    #[test]
    fn unsafe_requires_safety_comment_and_is_inventoried() {
        let bad = "fn f() { unsafe { g(); } }";
        let out = lint_source("t.rs", bad, &FileCtx::library("gdx-test"));
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.unsafe_sites.len(), 1);
        assert!(!out.unsafe_sites[0].annotated);

        let good = "// SAFETY: g has no preconditions here\nfn f() { unsafe { g(); } }";
        let out = lint_source("t.rs", good, &FileCtx::library("gdx-test"));
        assert!(out.diagnostics.is_empty());
        assert_eq!(out.unsafe_sites.len(), 1);
        assert!(out.unsafe_sites[0].annotated);
    }

    #[test]
    fn crate_root_requirements() {
        let mut ctx = FileCtx::library("gdx-test");
        ctx.root = Some(crate::RootPolicy {
            require_preamble: true,
        });
        let bare = lint_source("lib.rs", "pub fn f() {}", &ctx);
        let rules: Vec<Rule> = bare.diagnostics.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&Rule::ForbidUnsafe));
        assert!(rules.contains(&Rule::DenyPreamble));

        let full = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]\n\
                    #![forbid(unsafe_code)]\npub fn f() {}";
        assert!(lint_source("lib.rs", full, &ctx).diagnostics.is_empty());
    }

    #[test]
    fn thread_spawn_and_scope_fire_outside_runtime() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(lint_lib(src), vec![(Rule::ThreadSpawn, 1)]);
        let rt = lint_source("t.rs", src, &FileCtx::library("gdx-runtime"));
        assert!(rt.diagnostics.is_empty());
    }
}
