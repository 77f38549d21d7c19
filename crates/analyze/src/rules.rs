//! The source lint rules: the per-file R1, R5, R7 and R9, and the
//! cross-file R11.
//!
//! Each rule walks the [`SourceFile`] line model — and, for the semantic
//! rules, the [`FileIndex`] token/item model — and emits `file:line`
//! diagnostics into a [`Findings`] sink, recording hatched (suppressed)
//! findings separately so the gate can pin exact hatch counts. Scope
//! (which crates/files a rule applies to) is decided by
//! [`crate::scope_for`] from the workspace-relative path; the rule bodies
//! only look at content. The cross-file rule R10 lives in
//! [`crate::callgraph`].

use crate::callgraph::AnalyzedFile;
use crate::items::{crate_of, FileIndex, Vis};
use crate::source::{Line, SourceFile};
use crate::tokens::TokKind;
use crate::{Diagnostic, Findings, Rule};
use std::collections::{HashMap, HashSet};

/// Escape-hatch names accepted by each rule.
pub const ALLOW_PANIC: &str = "panic";
/// Hatch name for R5.
pub const ALLOW_FLOAT_EQ: &str = "float-eq";
/// Hatch name for R7.
pub const ALLOW_PRINT: &str = "print";
/// Hatch name for R9.
pub const ALLOW_ATOMIC_ORDERING: &str = "atomic-ordering";
/// Hatch name for R11.
pub const ALLOW_UNUSED_PUBLIC: &str = "r11";

fn allowed(line: &Line, hatch: &str) -> bool {
    line.allows.iter().any(|a| a == hatch)
}

/// R1 — panic-family calls in library code.
///
/// Flags `.unwrap()`, `.expect(`, `panic!`, `unimplemented!` and `todo!`
/// outside `#[cfg(test)]` items, unless the line carries a
/// `// lint: allow(panic) <reason>` hatch.
pub fn r1_no_panics(file: &SourceFile, out: &mut Findings) {
    const NEEDLES: [&str; 5] =
        [".unwrap()", ".expect(", "panic!", "unimplemented!", "todo!"];
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for needle in NEEDLES {
            if let Some(found) = find_needle(&line.code, needle) {
                out.emit(
                    allowed(line, ALLOW_PANIC),
                    Diagnostic::new(
                        Rule::NoPanics,
                        &file.rel_path,
                        i + 1,
                        format!(
                            "`{found}` in library code — return Result/Option or add \
                             `// lint: allow(panic) <reason>`"
                        ),
                    ),
                );
            }
        }
    }
}

/// Finds `needle` in `code`, rejecting matches that merely extend a longer
/// identifier (so `debug_assert!`-style neighbors or `xpanic!` never hit).
pub(crate) fn find_needle(code: &str, needle: &str) -> Option<String> {
    // Needles opening with `.` are self-delimiting; identifier-led needles
    // (`panic!` etc.) must not match inside a longer name.
    let check_prefix = needle.starts_with(|c: char| c.is_alphanumeric() || c == '_');
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(needle) {
        let at = from + pos;
        let pre_ok = !check_prefix
            || at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if pre_ok {
            return Some(needle.trim_end_matches(['(', ')']).to_string());
        }
        from = at + needle.len();
    }
    None
}

/// R5 — floating-point `==` / `!=` in signal code.
///
/// Token-level: an equality whose left or right operand is a float literal
/// (`0.0`, `1e-3f64`, `1f32`) or an `f32::` / `f64::` associated constant.
/// Exact float comparison silently breaks under the pipeline's quantized
/// arithmetic; compare against a tolerance instead.
pub fn r5_no_float_eq(file: &SourceFile, out: &mut Findings) {
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for op in ["==", "!="] {
            let mut from = 0usize;
            while let Some(pos) = line.code[from..].find(op) {
                let at = from + pos;
                from = at + op.len();
                // Not part of `<=`, `>=`, `=>`, `===`-like runs.
                let before = line.code[..at].chars().next_back();
                let after = line.code[at + op.len()..].chars().next();
                if matches!(before, Some('<') | Some('>') | Some('=') | Some('!'))
                    || after == Some('=')
                {
                    continue;
                }
                let lhs = last_token(&line.code[..at]);
                let rhs = first_token(&line.code[at + op.len()..]);
                if is_float_token(&lhs) || is_float_token(&rhs) {
                    out.emit(
                        allowed(line, ALLOW_FLOAT_EQ),
                        Diagnostic::new(
                            Rule::NoFloatEq,
                            &file.rel_path,
                            i + 1,
                            format!(
                                "float equality `{lhs} {op} {rhs}` in signal code — compare \
                                 with a tolerance or add `// lint: allow(float-eq) <reason>`"
                            ),
                        ),
                    );
                }
            }
        }
    }
}

fn token_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '.' | ':')
}

fn last_token(s: &str) -> String {
    s.trim_end()
        .chars()
        .rev()
        .take_while(|&c| token_char(c))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect()
}

fn first_token(s: &str) -> String {
    let s = s.trim_start();
    let neg = s.starts_with('-');
    let body: String = s
        .chars()
        .skip(usize::from(neg))
        .take_while(|&c| token_char(c))
        .collect();
    if neg {
        format!("-{body}")
    } else {
        body
    }
}

fn is_float_token(tok: &str) -> bool {
    if tok.contains("f32::") || tok.contains("f64::") {
        return true;
    }
    let t = tok.strip_prefix('-').unwrap_or(tok);
    let (t, suffixed) = match t.strip_suffix("f64").or_else(|| t.strip_suffix("f32")) {
        Some(stripped) => (stripped, true),
        None => (t, false),
    };
    let mut chars = t.chars();
    let Some(first) = chars.next() else { return false };
    if !first.is_ascii_digit() {
        return false;
    }
    let numeric = t
        .chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '.' | '_' | 'e' | 'E' | '+' | '-'));
    // An integer literal (`52`, `1_000`) only becomes float-like with a
    // decimal point, an exponent, or an explicit f32/f64 suffix.
    numeric && (t.contains('.') || t.contains('e') || t.contains('E') || suffixed)
}

/// R7 — ad-hoc `println!`-family output in library crates.
///
/// Library code must not write to stdout/stderr directly: results flow
/// through return values, and observability flows through the telemetry
/// recorder (`core::telemetry`) — counters, spans, and `Table` snapshots
/// that binaries render or export as JSON. Flags `println!`, `eprintln!`,
/// `print!` and `eprint!` outside `#[cfg(test)]`; binaries
/// (`src/bin/`, `main.rs`) are out of scope, and the escape hatch is
/// `// lint: allow(print) <reason>`.
pub fn r7_no_adhoc_print(file: &SourceFile, out: &mut Findings) {
    const NEEDLES: [&str; 4] = ["println!", "eprintln!", "print!", "eprint!"];
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for needle in NEEDLES {
            if let Some(found) = find_needle(&line.code, needle) {
                out.emit(
                    allowed(line, ALLOW_PRINT),
                    Diagnostic::new(
                        Rule::AdhocPrint,
                        &file.rel_path,
                        i + 1,
                        format!(
                            "`{found}` in library code — record telemetry / return a \
                             `Table` and let the caller render it, or add \
                             `// lint: allow(print) <reason>`"
                        ),
                    ),
                );
            }
        }
    }
}

/// R9 — atomic-ordering audit.
///
/// Two checks over the token stream of the atomics-bearing crates:
///
/// 1. **Strong orderings need a reason.** Every `Ordering::SeqCst` /
///    `Ordering::AcqRel` must carry a
///    `// lint: allow(atomic-ordering) <reason>` hatch explaining why
///    `Relaxed` or `Acquire`/`Release` is insufficient. The telemetry
///    counters, the fork-join pool and the OnceLock intern maps are all
///    correct under `Relaxed`; a stray `SeqCst` costs a full fence on the
///    BT-slot budget's hot path (625 µs per the paper) for nothing.
/// 2. **Load→store lost-update windows.** An atomic `.load(..Ordering..)`
///    whose receiver is `.store(..Ordering..)`d again within the next
///    three statements of the same function body is a read-modify-write
///    spelled as two racy halves — a concurrent writer between them is
///    silently overwritten. Use `fetch_add`/`fetch_update`/
///    `compare_exchange` instead, or hatch the store line. Receivers are
///    compared syntactically; a receiver the scanner cannot normalize
///    (e.g. one built through a call chain) is skipped, which
///    under-approximates — acceptable because the audit is a review aid,
///    not a proof (DESIGN.md §13).
pub fn r9_atomic_ordering(file: &SourceFile, index: &FileIndex, out: &mut Findings) {
    let toks = &index.toks;
    // Part 1: strong orderings.
    for i in 0..toks.len() {
        if !toks[i].is_ident("Ordering") || !toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
        {
            continue;
        }
        let Some(ord) = toks.get(i + 2).filter(|t| {
            t.kind == TokKind::Ident && (t.text == "SeqCst" || t.text == "AcqRel")
        }) else {
            continue;
        };
        let Some(line) = file.lines.get(ord.line - 1) else { continue };
        if line.in_test {
            continue;
        }
        out.emit(
            allowed(line, ALLOW_ATOMIC_ORDERING),
            Diagnostic::new(
                Rule::AtomicOrdering,
                &file.rel_path,
                ord.line,
                format!(
                    "`Ordering::{}` is a full fence on the hot path — justify why \
                     Relaxed/Acquire-Release is insufficient with \
                     `// lint: allow(atomic-ordering) <reason>`",
                    ord.text
                ),
            ),
        );
    }

    // Part 2: load→store windows per function body.
    #[derive(PartialEq)]
    enum Kind {
        Load,
        Store,
    }
    for f in &index.fns {
        if f.is_test {
            continue;
        }
        let Some((start, end)) = f.body_toks else { continue };
        let mut stmt = 0usize;
        let mut events: Vec<(usize, Kind, String, usize)> = Vec::new(); // (stmt, kind, recv, line)
        for i in start..end.min(toks.len()) {
            let t = &toks[i];
            if t.is_punct(";") {
                stmt += 1;
                continue;
            }
            if t.kind != TokKind::Ident {
                continue;
            }
            let kind = match t.text.as_str() {
                "load" => Kind::Load,
                "store" => Kind::Store,
                _ => continue,
            };
            let is_method = i > start && toks[i - 1].is_punct(".");
            let opens = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
            if !is_method || !opens {
                continue;
            }
            // Only atomic-API calls: the args must name an `Ordering`.
            let close = matching_paren(toks, i + 1, end);
            let atomic = toks[i + 2..close]
                .iter()
                .any(|a| a.is_ident("Ordering") || a.is_ident("SeqCst") || a.is_ident("Relaxed"));
            if !atomic {
                continue;
            }
            if let Some(recv) = receiver_before(toks, i - 1, start) {
                events.push((stmt, kind, recv, t.line));
            }
        }
        for (s_stmt, kind, recv, s_line) in &events {
            if *kind != Kind::Store {
                continue;
            }
            let raced = events.iter().any(|(l_stmt, k, l_recv, _)| {
                *k == Kind::Load
                    && l_recv == recv
                    && *l_stmt <= *s_stmt
                    && s_stmt - l_stmt <= 3
            });
            if !raced {
                continue;
            }
            let Some(line) = file.lines.get(s_line - 1) else { continue };
            out.emit(
                allowed(line, ALLOW_ATOMIC_ORDERING),
                Diagnostic::new(
                    Rule::AtomicOrdering,
                    &file.rel_path,
                    *s_line,
                    format!(
                        "`{recv}.load(..)` then `.store(..)` within 3 statements — a \
                         concurrent update between them is lost; use a read-modify-write \
                         (`fetch_add`, `fetch_update`, `compare_exchange`) or add \
                         `// lint: allow(atomic-ordering) <reason>`"
                    ),
                ),
            );
        }
    }
}

/// Index of the `)` matching the `(` at `open` (exclusive scan bound
/// `end`); returns `end` when unbalanced.
fn matching_paren(toks: &[crate::tokens::Tok], open: usize, end: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate().take(end.min(toks.len())).skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    end
}

/// Normalizes the receiver expression ending at `dot` (the `.` before an
/// atomic method), walking back over `ident`, `.`, `::` and `[...]` index
/// groups. Returns `None` for receivers built through calls — those are
/// skipped rather than mis-compared.
fn receiver_before(
    toks: &[crate::tokens::Tok],
    dot: usize,
    start: usize,
) -> Option<String> {
    let mut parts: Vec<String> = Vec::new();
    let mut i = dot; // toks[dot] is the `.`
    while i > start {
        let prev = &toks[i - 1];
        if prev.kind == TokKind::Ident || prev.kind == TokKind::Num {
            parts.push(prev.text.clone());
            i -= 1;
            // Continue through `.` / `::` chains.
            if i > start && (toks[i - 1].is_punct(".") || toks[i - 1].is_punct("::")) {
                parts.push(toks[i - 1].text.clone());
                i -= 1;
                continue;
            }
            break;
        }
        if prev.is_punct("]") {
            // Capture the whole index group verbatim.
            let mut depth = 0i64;
            let mut j = i - 1;
            loop {
                if toks[j].is_punct("]") {
                    depth += 1;
                } else if toks[j].is_punct("[") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if toks[j].is_punct(")") || toks[j].is_punct("(") {
                    return None; // call inside the index: give up
                }
                if j == start {
                    return None;
                }
                j -= 1;
            }
            for k in (j..i).rev() {
                parts.push(toks[k].text.clone());
            }
            i = j;
            continue;
        }
        if prev.is_punct(")") {
            return None; // receiver is a call result: not comparable
        }
        break;
    }
    if parts.is_empty() {
        return None;
    }
    parts.reverse();
    Some(parts.concat())
}

/// R11 — public items with no caller.
///
/// rustc's `dead_code` lint cannot see an unused `pub` item of a library,
/// so this rule does. A plain-`pub` `fn` (free or inherent method),
/// `const`, `static`, `struct`, `enum`, `trait` or `type` in
/// `crates/*/src`, outside `#[cfg(test)]`, fires when its name occurs as
/// an identifier token nowhere but its own declaration, its own file's
/// `#[cfg(test)]` regions and `use` declarations — a `pub use` re-export
/// is not a caller. Every file in `files` is searched for callers,
/// including the ones outside `crates/*/src` that are read for their
/// tokens only (integration tests, examples, the benchmark).
///
/// The match is by name only: a same-named token anywhere (another
/// type's method, a field, a local) keeps the item quiet, so the rule can
/// miss a dead item but never flags a used one. Act on a finding by
/// deleting the item, moving it into the test code that uses it, or — with
/// a reason — `// lint: allow(r11) <reason>`.
pub fn r11_unused_public(files: &[AnalyzedFile], out: &mut Findings) {
    let names: Vec<(HashSet<&str>, HashMap<&str, usize>)> =
        files.iter().map(names_outside_use).collect();
    let mut files_naming: HashMap<&str, usize> = HashMap::new();
    for (anywhere, _) in &names {
        for name in anywhere {
            *files_naming.entry(name).or_default() += 1;
        }
    }
    for (file, (_, live)) in files.iter().zip(&names) {
        if crate_of(&file.index.rel_path).is_none() {
            continue;
        }
        let fns = file.index.fns.iter().map(|f| (f.line, "fn", &f.name, f.vis, f.is_test));
        let items =
            file.index.items.iter().map(|it| (it.line, it.kind, &it.name, it.vis, it.is_test));
        let mut public: Vec<_> =
            fns.chain(items).filter(|&(.., vis, is_test)| vis == Vis::Public && !is_test).collect();
        public.sort_by_key(|&(line, ..)| line);
        for (line, kind, name, ..) in public {
            // The declaration is one occurrence in its own file, outside
            // its tests; any other file or any second such token is a caller.
            let named_elsewhere = files_naming.get(name.as_str()).is_some_and(|&n| n > 1);
            if named_elsewhere || live.get(name.as_str()).is_some_and(|&n| n > 1) {
                continue;
            }
            let Some(l) = file.source.lines.get(line - 1) else { continue };
            out.emit(
                allowed(l, ALLOW_UNUSED_PUBLIC),
                Diagnostic::new(
                    Rule::UnusedPublic,
                    &file.index.rel_path,
                    line,
                    format!(
                        "`pub {kind} {name}` has no caller outside its own tests and `use` \
                         lines — delete it, move it into the test code that uses it, or add \
                         `// lint: allow(r11) <reason>`"
                    ),
                ),
            );
        }
    }
}

/// The identifiers of one file outside `use` declarations: every name,
/// and how often each occurs outside the file's `#[cfg(test)]` regions.
fn names_outside_use(file: &AnalyzedFile) -> (HashSet<&str>, HashMap<&str, usize>) {
    let mut anywhere = HashSet::new();
    let mut live: HashMap<&str, usize> = HashMap::new();
    let in_test = |line: usize| file.source.lines.get(line - 1).is_some_and(|l| l.in_test);
    let mut in_use = false;
    for t in &file.index.toks {
        if t.is_ident("use") {
            in_use = true;
        } else if in_use {
            in_use = !t.is_punct(";");
        } else if t.kind == TokKind::Ident {
            anywhere.insert(t.text.as_str());
            if !in_test(t.line) {
                *live.entry(t.text.as_str()).or_default() += 1;
            }
        }
    }
    (anywhere, live)
}

/// Position of a standalone `for` / `while` loop keyword, if any.
///
/// `for` only counts when a standalone `in` follows before any `{` on the
/// line — that separates real loop headers from `impl Trait for Type {`
/// headers and `for<'a>` higher-ranked bounds, neither of which opens a
/// loop body.
pub(crate) fn loop_keyword_pos(code: &str) -> Option<usize> {
    for kw in ["for", "while"] {
        let mut from = 0usize;
        while let Some(p) = code[from..].find(kw) {
            let at = from + p;
            from = at + kw.len();
            let before_ok = at == 0
                || !code[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            let after_ok = !code[at + kw.len()..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if !(before_ok && after_ok) {
                continue;
            }
            if kw == "for" {
                let rest = &code[at + kw.len()..];
                let rest = rest.split('{').next().unwrap_or(rest);
                let has_in = rest
                    .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .any(|w| w == "in");
                if !has_in {
                    continue;
                }
            }
            return Some(at);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::index_file;

    fn scan(rule: fn(&SourceFile, &mut Findings), src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse("crates/dsp/src/x.rs", src);
        let mut out = Findings::default();
        rule(&file, &mut out);
        out.fired
    }

    fn scan_indexed(
        rule: fn(&SourceFile, &FileIndex, &mut Findings),
        rel: &str,
        src: &str,
    ) -> Findings {
        let file = SourceFile::parse(rel, src);
        let index = index_file(&file);
        let mut out = Findings::default();
        rule(&file, &index, &mut out);
        out
    }

    #[test]
    fn r1_flags_each_family_member() {
        let src = "a.unwrap();\nb.expect(\"x\");\npanic!(\"y\");\nunimplemented!();\ntodo!();";
        assert_eq!(scan(r1_no_panics, src).len(), 5);
    }

    #[test]
    fn r1_skips_unwrap_or_variants() {
        let src = "a.unwrap_or(0);\nb.unwrap_or_else(|| 1);\nc.unwrap_or_default();";
        assert!(scan(r1_no_panics, src).is_empty());
    }

    #[test]
    fn r1_skips_should_panic_and_debug_assert() {
        let src = "#[should_panic(expected = \"x\")]\ndebug_assert!(a);";
        assert!(scan(r1_no_panics, src).is_empty());
    }

    #[test]
    fn r1_hatched_findings_are_recorded_not_fired() {
        let src = "a.unwrap(); // lint: allow(panic) length checked above\nb.unwrap();";
        let file = SourceFile::parse("crates/dsp/src/x.rs", src);
        let mut out = Findings::default();
        r1_no_panics(&file, &mut out);
        assert_eq!(out.fired.len(), 1);
        assert_eq!(out.fired[0].line, 2);
        assert_eq!(out.hatched.len(), 1);
        assert_eq!(out.hatched[0].line, 1);
    }

    #[test]
    fn r5_literal_comparisons() {
        assert_eq!(scan(r5_no_float_eq, "if x == 0.0 {}").len(), 1);
        assert_eq!(scan(r5_no_float_eq, "if x != 1e-9 {}").len(), 1);
        assert_eq!(scan(r5_no_float_eq, "if y == f64::NEG_INFINITY {}").len(), 1);
        assert!(scan(r5_no_float_eq, "if n == 1 {}").is_empty());
        assert!(scan(r5_no_float_eq, "if n <= 1.0 {}").is_empty());
        assert!(scan(r5_no_float_eq, "let f = |x| x => 1.0;").is_empty());
    }

    #[test]
    fn impl_for_headers_and_hrtbs_are_not_loops() {
        // `impl Trait for Type {` must not open a loop region — the old
        // keyword scan flagged `Default::default()` bodies as hot loops.
        let src = "impl Default for Scratch {\n    fn default() -> Scratch {\n        \
                   let v = vec![0u8; 8];\n        Scratch { v }\n    }\n}";
        let file = SourceFile::parse("crates/dsp/src/x.rs", src);
        assert!(!crate::items::loop_lines(&file).contains(&true));
        assert_eq!(loop_keyword_pos("impl Default for Scratch {"), None);
        assert_eq!(loop_keyword_pos("fn f<F: for<'a> Fn(&'a u8)>(f: F) {"), None);
        assert_eq!(loop_keyword_pos("for x in items {"), Some(0));
        assert_eq!(loop_keyword_pos("while x < 4 {"), Some(0));
        assert_eq!(loop_keyword_pos("for (i, v) in xs.iter().enumerate() {"), Some(0));
    }

    #[test]
    fn r7_flags_each_print_macro_once() {
        // One finding per line; `eprintln!` must not double-count as
        // `print!`/`eprint!`/`println!`, and suffix-matching identifiers
        // (`my_println!`) never hit.
        let src = "println!(\"x\");\neprintln!(\"y\");\nprint!(\"z\");\neprint!(\"w\");";
        let d = scan(r7_no_adhoc_print, src);
        assert_eq!(d.len(), 4, "{d:#?}");
        assert!(scan(r7_no_adhoc_print, "my_println!(\"x\");").is_empty());
        assert!(scan(r7_no_adhoc_print, "writeln!(f, \"x\");").is_empty());
    }

    #[test]
    fn r7_respects_hatch_and_test_code() {
        let src = "println!(\"boot\"); // lint: allow(print) startup banner\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { println!(\"dbg\"); }\n}";
        assert!(scan(r7_no_adhoc_print, src).is_empty());
    }

    #[test]
    fn r9_strong_orderings_need_a_hatch() {
        let src = "fn f(a: &AtomicU64) {\n    a.store(1, Ordering::SeqCst);\n    \
                   // lint: allow(atomic-ordering) publishes the init handshake\n    \
                   a.store(2, Ordering::AcqRel);\n    a.store(3, Ordering::Relaxed);\n}\n";
        let out = scan_indexed(r9_atomic_ordering, "crates/core/src/par.rs", src);
        assert_eq!(out.fired.len(), 1, "{:#?}", out.fired);
        assert_eq!(out.fired[0].line, 2);
        assert_eq!(out.hatched.len(), 1);
        assert_eq!(out.hatched[0].line, 4);
    }

    #[test]
    fn r9_load_store_window_is_a_lost_update() {
        let src = "fn bump(c: &AtomicU64) {\n    let v = c.load(Ordering::Relaxed);\n    \
                   c.store(v + 1, Ordering::Relaxed);\n}\n\
                   fn fine(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n\
                   fn far(c: &AtomicU64, d: &AtomicU64) {\n    let v = c.load(Ordering::Relaxed);\n    \
                   d.store(v, Ordering::Relaxed);\n}\n";
        let out = scan_indexed(r9_atomic_ordering, "crates/core/src/par.rs", src);
        assert_eq!(out.fired.len(), 1, "{:#?}", out.fired);
        assert_eq!(out.fired[0].line, 3);
        assert!(out.fired[0].message.contains("c.load"));
    }

    #[test]
    fn r9_self_feeding_store_and_indexed_receivers() {
        let src = "fn f(cells: &[AtomicU64]) {\n    \
                   cells[i].store(cells[i].load(Ordering::Relaxed) + 1, Ordering::Relaxed);\n}\n\
                   fn different_index(cells: &[AtomicU64]) {\n    \
                   let v = cells[a].load(Ordering::Relaxed);\n    \
                   cells[b].store(v, Ordering::Relaxed);\n}\n";
        let out = scan_indexed(r9_atomic_ordering, "crates/core/src/par.rs", src);
        assert_eq!(out.fired.len(), 1, "{:#?}", out.fired);
        assert_eq!(out.fired[0].line, 2);
    }
}
