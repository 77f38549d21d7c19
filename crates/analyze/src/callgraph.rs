//! Pass 3 — workspace symbol table, conservative call graph, and the
//! hot-loop allocation rule (R10), direct and transitive.
//!
//! ## Over-approximation policy
//!
//! The call graph is built by *name resolution over the item index*, not by
//! type checking, so it is deliberately one-sided:
//!
//! * **Method calls** (`x.decode(...)`) resolve to *every* indexed method
//!   of that name in the caller's crate and every crate below it in the
//!   layer DAG. Receiver types are unknown, so this over-approximates —
//!   a flagged call may name a sibling type's method. That is acceptable
//!   for a deny-list linter: the fix is a hatch with a reason, never a
//!   missed allocation.
//! * **Free-function calls** resolve within the caller's crate by bare
//!   name, across crates only through an explicit path
//!   (`bluefi_dsp::fft::fft_into(...)`) or a recorded `use` import.
//! * **What the graph may miss** (under-approximation, the safe direction
//!   because every *direct* allocation is still caught by R10's needle
//!   scan at its own site): calls through function pointers / closures
//!   passed as values, trait-object dispatch where the method is only
//!   named at the trait definition, turbofish forms (`f::<T>(..)`), and
//!   macro-generated calls. Allocations *inside* std (e.g. `Iterator::collect`) are not
//!   modeled as calls at all — they are needles
//!   ([`ALLOC_NEEDLES`]) matched textually in whatever workspace function
//!   contains them.
//!
//! The crate layering used for visibility is the as-built dependency DAG
//! (see [`LAYERS`] and DESIGN.md §13):
//! `dsp → coding → {wifi, bt} → core → sim → apps → {bench, conformance}`,
//! with `analyze` on a tools rail beside `sim` (it may use `core::json`
//! and below, nothing lateral).

use crate::items::{FileIndex, FnItem};
use crate::rules::find_needle;
use crate::source::SourceFile;
use crate::tokens::{Tok, TokKind};
use crate::{Diagnostic, Findings, Rule};
use std::collections::HashMap;

/// Escape-hatch name for R10.
pub const ALLOW_TRANSITIVE: &str = "r10";

/// The workspace layer of each crate: a reference to `bluefi_<x>` from
/// crate `k` is legal only when `layer(x) < layer(k)` (strictly — siblings
/// on one layer must not reference each other).
pub const LAYERS: &[(&str, u8)] = &[
    ("dsp", 0),
    ("coding", 1),
    ("wifi", 2),
    ("bt", 2),
    ("core", 3),
    ("sim", 4),
    ("analyze", 4),
    ("apps", 5),
    ("service", 5),
    ("bench", 6),
    ("conformance", 6),
];

/// Layer of a workspace crate, if known.
pub fn layer_of(krate: &str) -> Option<u8> {
    LAYERS.iter().find(|(k, _)| *k == krate).map(|(_, l)| *l)
}

/// Textual allocation needles: a hot-loop line matching one of these is an
/// R10 finding on its own, and a function whose body (outside test code)
/// matches one is the terminal of an R10 chain. Covers the std allocators a
/// call graph cannot see into, plus `FftPlan::new(` so a plan built per
/// iteration is flagged even where its definition is not in view.
pub const ALLOC_NEEDLES: [&str; 11] = [
    "FftPlan::new(",
    "Vec::new(",
    "Vec::with_capacity(",
    "vec![",
    "Box::new(",
    ".to_vec(",
    "format!(",
    ".collect(",
    ".to_string(",
    ".to_owned(",
    "String::from(",
];

/// One lexed-and-indexed source file — the unit the workspace passes walk.
#[derive(Debug, Clone)]
pub struct AnalyzedFile {
    /// The line model (pass 0).
    pub source: SourceFile,
    /// The token/item index (passes 1–2).
    pub index: FileIndex,
}

/// One call site extracted from a function body.
#[derive(Debug, Clone)]
struct Call {
    /// Called name (`fft_into`, `decode`, `new`).
    name: String,
    /// Leading path segments (`["bluefi_dsp", "fft"]`, `["TrellisPlan"]`);
    /// empty for bare and method calls.
    path: Vec<String>,
    /// True for `.name(...)` receiver calls.
    method: bool,
    /// 1-based call-site line.
    line: usize,
}

/// Global function id: (file index, fn index).
type FnId = (usize, usize);

struct Graph<'a> {
    files: &'a [AnalyzedFile],
    /// name → every fn with that bare name.
    by_name: HashMap<&'a str, Vec<FnId>>,
    /// Per-fn extracted call sites, keyed like the fn tables.
    calls: HashMap<FnId, Vec<Call>>,
    /// Per-fn allocation chain: `None` = not (known to be) allocating;
    /// `Some(steps)` = human-readable chain ending at a needle site.
    chains: HashMap<FnId, Vec<String>>,
}

fn fn_at(files: &[AnalyzedFile], id: FnId) -> &FnItem {
    &files[id.0].index.fns[id.1]
}

/// Keywords that look like `ident (` but are never calls.
fn is_call_keyword(word: &str) -> bool {
    matches!(
        word,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "fn"
            | "move"
            | "in"
            | "as"
            | "let"
            | "ref"
            | "mut"
            | "box"
            | "await"
            | "dyn"
            | "impl"
            | "where"
            | "unsafe"
            | "pub"
    )
}

/// Extracts the call sites of one fn body from the token stream.
fn extract_calls(toks: &[Tok], body: (usize, usize)) -> Vec<Call> {
    let (start, end) = body;
    let mut out = Vec::new();
    let mut i = start;
    while i < end.min(toks.len()) {
        let t = &toks[i];
        let next_is_paren = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        if t.kind == TokKind::Ident && next_is_paren && !is_call_keyword(&t.text) {
            let prev = i.checked_sub(1).map(|p| &toks[p]);
            if prev.is_some_and(|p| p.is_ident("fn")) {
                i += 1;
                continue; // a definition, not a call
            }
            let method = prev.is_some_and(|p| p.is_punct("."));
            let mut path = Vec::new();
            if !method {
                // Walk back over `seg::seg::` prefixes.
                let mut j = i;
                while j >= 2
                    && toks[j - 1].is_punct("::")
                    && toks[j - 2].kind == TokKind::Ident
                {
                    path.insert(0, toks[j - 2].text.clone());
                    j -= 2;
                }
            }
            out.push(Call { name: t.text.clone(), path, method, line: t.line });
        }
        i += 1;
    }
    out
}

/// Direct-allocation site of a fn body, if any: the first needle hit on a
/// non-test line inside the body range.
fn direct_alloc(file: &AnalyzedFile, f: &FnItem) -> Option<String> {
    let (start, end) = f.body_lines?;
    for lineno in start..=end {
        let Some(line) = file.source.lines.get(lineno - 1) else { continue };
        if line.in_test {
            continue;
        }
        for needle in ALLOC_NEEDLES {
            if find_needle(&line.code, needle).is_some() {
                let shown = needle.trim_end_matches('(');
                return Some(format!(
                    "`{shown}` at {}:{lineno}",
                    file.index.rel_path
                ));
            }
        }
    }
    None
}

impl<'a> Graph<'a> {
    fn build(files: &'a [AnalyzedFile]) -> Graph<'a> {
        let mut by_name: HashMap<&str, Vec<FnId>> = HashMap::new();
        let mut calls = HashMap::new();
        let mut chains = HashMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.index.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                by_name.entry(f.name.as_str()).or_default().push((fi, gi));
                if let Some(body) = f.body_toks {
                    calls.insert((fi, gi), extract_calls(&file.index.toks, body));
                }
                if let Some(site) = direct_alloc(file, f) {
                    chains.insert((fi, gi), vec![site]);
                }
            }
        }
        let mut g = Graph { files, by_name, calls, chains };
        g.propagate();
        g
    }

    /// True when code in `from` may legally name items of crate `to`.
    fn visible(from: &str, to: &str) -> bool {
        if from == to {
            return true;
        }
        match (layer_of(from), layer_of(to)) {
            (Some(lf), Some(lt)) => lt < lf,
            _ => false,
        }
    }

    /// Resolves one call site to candidate workspace fns, per the policy in
    /// the module docs. `caller_crate` is the short crate name; `uses` the
    /// caller file's import map.
    fn resolve(&self, call: &Call, caller_crate: &str, uses: &FileIndex) -> Vec<FnId> {
        let Some(pool) = self.by_name.get(call.name.as_str()) else {
            return Vec::new();
        };
        let import_of = |name: &str| -> Option<String> {
            uses.uses.iter().find(|u| u.name == name).map(|u| u.krate.clone())
        };
        let mut out = Vec::new();
        for &id in pool {
            let g = fn_at(self.files, id);
            let Some(gk) = self.files[id.0].index.krate.as_deref() else { continue };
            if !Self::visible(caller_crate, gk) {
                continue;
            }
            let ok = if call.method {
                g.owner.is_some()
            } else if call.path.is_empty() {
                // Bare call: tuple-struct ctors (capitalized) are skipped by
                // the caller; here it is same-crate or an imported name.
                g.owner.is_none()
                    && (gk == caller_crate
                        || import_of(&call.name).is_some_and(|k| k == gk))
            } else {
                let first = call.path[0].as_str();
                let crate_ok = if let Some(x) = first.strip_prefix("bluefi_") {
                    gk == x
                } else if matches!(first, "crate" | "self" | "super") {
                    gk == caller_crate
                } else if let Some(k) = import_of(first) {
                    gk == k
                } else {
                    gk == caller_crate
                };
                let type_seg = call
                    .path
                    .last()
                    .filter(|s| s.chars().next().is_some_and(|c| c.is_uppercase()));
                let owner_ok = match type_seg {
                    Some(ty) => g.owner.as_deref() == Some(ty.as_str()),
                    None => g.owner.is_none(),
                };
                crate_ok && owner_ok
            };
            if ok {
                out.push(id);
            }
        }
        out.sort();
        out
    }

    /// BFS fixpoint: a fn inherits the shortest chain of any callee that
    /// (transitively) allocates. Deterministic: rounds are breadth-first,
    /// call sites are visited in body order, candidates in (file, fn) order.
    fn propagate(&mut self) {
        loop {
            let mut added: Vec<(FnId, Vec<String>)> = Vec::new();
            for (&id, calls) in &self.calls {
                if self.chains.contains_key(&id) {
                    continue;
                }
                let caller_crate = match self.files[id.0].index.krate.as_deref() {
                    Some(k) => k,
                    None => continue,
                };
                'calls: for call in calls {
                    if !call.method
                        && call.path.is_empty()
                        && call.name.chars().next().is_some_and(|c| c.is_uppercase())
                    {
                        continue; // tuple-struct / unit ctor
                    }
                    for cand in self.resolve(call, caller_crate, &self.files[id.0].index) {
                        if cand == id {
                            continue; // direct recursion
                        }
                        if let Some(chain) = self.chains.get(&cand) {
                            let mut steps =
                                vec![fn_at(self.files, cand).qualified.clone()];
                            steps.extend(chain.iter().cloned());
                            added.push((id, steps));
                            break 'calls;
                        }
                    }
                }
            }
            if added.is_empty() {
                break;
            }
            // Within a round, ties resolve to the lexicographically first
            // chain so output is stable across hash orders.
            added.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
            added.dedup_by_key(|(id, _)| *id);
            for (id, chain) in added {
                self.chains.entry(id).or_insert(chain);
            }
        }
    }
}

/// R10 — hot-loop allocation, direct and transitive.
///
/// An allocation inside a `for`/`while` body repeats every iteration. R10
/// flags it two ways: an [`ALLOC_NEEDLES`] hit written on the loop line
/// itself (a chain of length 0), and a hot-loop call site whose callee
/// allocates — directly or through further calls — with the full chain
/// down to the needle. Loop headers (evaluated once for `for`) and test
/// code are exempt. Scope is the hot-path crate set (`dsp`/`wifi`/
/// `coding`); the escape hatch is `// lint: allow(r10) <reason>`.
pub fn r10_transitive_alloc(files: &[AnalyzedFile], out: &mut Findings) {
    let graph = Graph::build(files);
    for (fi, file) in files.iter().enumerate() {
        if !crate::scope_for(&file.index.rel_path).hot_loop_alloc {
            continue;
        }
        direct_hot_loop_alloc(file, out);
        let caller_crate = match file.index.krate.as_deref() {
            Some(k) => k,
            None => continue,
        };
        for (gi, f) in file.index.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let Some(calls) = graph.calls.get(&(fi, gi)) else { continue };
            let mut seen: Vec<(usize, String)> = Vec::new();
            for call in calls {
                let lineno = call.line;
                let in_loop = file.index.in_loop.get(lineno - 1).copied().unwrap_or(false);
                let Some(line) = file.source.lines.get(lineno - 1) else { continue };
                if !in_loop || line.in_test {
                    continue;
                }
                if !call.method
                    && call.path.is_empty()
                    && call.name.chars().next().is_some_and(|c| c.is_uppercase())
                {
                    continue;
                }
                for cand in graph.resolve(call, caller_crate, &file.index) {
                    if cand == (fi, gi) {
                        continue;
                    }
                    let Some(chain) = graph.chains.get(&cand) else { continue };
                    let callee = fn_at(files, cand);
                    let key = (lineno, callee.qualified.clone());
                    if seen.contains(&key) {
                        continue;
                    }
                    seen.push(key);
                    let mut full = vec![callee.qualified.clone()];
                    full.extend(chain.iter().cloned());
                    let hatched =
                        line.allows.iter().any(|a| a == ALLOW_TRANSITIVE);
                    let d = Diagnostic::with_chain(
                        Rule::TransitiveAlloc,
                        &file.index.rel_path,
                        lineno,
                        format!(
                            "hot-loop call to `{}` allocates transitively \
                             ({}) — hoist the allocation, take a scratch \
                             buffer, or add `// lint: allow(r10) <reason>`",
                            callee.qualified,
                            full.join(" => "),
                        ),
                        full,
                    );
                    out.emit(hatched, d);
                    break; // one finding per call site
                }
            }
        }
    }
}

/// The length-0 half of R10: one finding per hot-loop line that itself
/// matches an [`ALLOC_NEEDLES`] entry.
fn direct_hot_loop_alloc(file: &AnalyzedFile, out: &mut Findings) {
    for (i, line) in file.source.lines.iter().enumerate() {
        if !file.index.in_loop.get(i).copied().unwrap_or(false) || line.in_test {
            continue;
        }
        let Some(found) = ALLOC_NEEDLES.iter().find_map(|n| find_needle(&line.code, n)) else {
            continue;
        };
        out.emit(
            line.allows.iter().any(|a| a == ALLOW_TRANSITIVE),
            Diagnostic::new(
                Rule::TransitiveAlloc,
                &file.index.rel_path,
                i + 1,
                format!(
                    "`{found}` allocates every loop iteration — hoist it, use the plan \
                     cache / a reused scratch buffer, or add `// lint: allow(r10) <reason>`"
                ),
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::index_file;

    fn analyzed(rel: &str, src: &str) -> AnalyzedFile {
        let source = SourceFile::parse(rel, src);
        let index = index_file(&source);
        AnalyzedFile { source, index }
    }

    #[test]
    fn layers_are_a_dag() {
        assert!(layer_of("dsp") < layer_of("coding"));
        assert!(layer_of("coding") < layer_of("wifi"));
        assert_eq!(layer_of("wifi"), layer_of("bt"));
        assert!(layer_of("bt") < layer_of("core"));
        assert!(layer_of("core") < layer_of("sim"));
        assert!(layer_of("apps") < layer_of("bench"));
        assert_eq!(layer_of("apps"), layer_of("service"));
        assert!(layer_of("service") < layer_of("bench"));
        assert!(layer_of("service") < layer_of("conformance"));
        assert_eq!(layer_of("nonsuch"), None);
    }

    fn direct_findings(src: &str) -> Findings {
        let mut out = Findings::default();
        r10_transitive_alloc(&[analyzed("crates/dsp/src/x.rs", src)], &mut out);
        assert!(out.fired.iter().chain(&out.hatched).all(|d| d.chain.is_empty()));
        out
    }

    #[test]
    fn r10_direct_flags_allocations_inside_loops_only() {
        // Allocation before the loop: fine. Same calls inside: flagged.
        let src = "let mut buf = Vec::with_capacity(n);\n\
                   for x in items {\n    let v = vec![0.0; 64];\n    \
                   let p = FftPlan::new(64);\n}\n\
                   let after = Vec::with_capacity(2);";
        let d = direct_findings(src).fired;
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![3, 4], "{d:#?}");
    }

    #[test]
    fn r10_direct_header_while_and_hatch() {
        // A `for` header evaluates once — exempt; nested while bodies are
        // tracked; the hatch silences a deliberate per-iteration alloc.
        let src = "for x in vec![1, 2] {\n    while y {\n        \
                   let a = vec![0; 8]; // lint: allow(r10) tiny, cold path\n        \
                   let b = vec![0; 8];\n    }\n}";
        let out = direct_findings(src);
        assert_eq!(out.fired.len(), 1, "{:#?}", out.fired);
        assert_eq!(out.fired[0].line, 4);
        assert_eq!(out.hatched.len(), 1);
        assert_eq!(out.hatched[0].line, 3);
    }

    #[test]
    fn r10_direct_loop_exit_stops_flagging() {
        let src = "for x in items {\n    f(x);\n}\nlet v = vec![0; 8];\n\
                   fn formless() { let w = vec![1]; }";
        let out = direct_findings(src);
        assert!(out.fired.is_empty(), "{:#?}", out.fired);
    }

    #[test]
    fn direct_callee_allocation_is_flagged_with_chain() {
        let file = analyzed(
            "crates/dsp/src/a.rs",
            "fn helper(n: usize) -> Vec<u8> {\n    vec![0; n]\n}\n\
             fn hot(items: &[u8]) {\n    for &x in items {\n        \
             let v = helper(x as usize);\n        drop(v);\n    }\n}\n",
        );
        let mut out = Findings::default();
        r10_transitive_alloc(&[file], &mut out);
        assert_eq!(out.fired.len(), 1, "{:#?}", out.fired);
        assert_eq!(out.fired[0].line, 6);
        assert_eq!(out.fired[0].chain.len(), 2);
        assert!(out.fired[0].chain[0].contains("dsp::a::helper"));
        assert!(out.fired[0].chain[1].contains("`vec!"));
    }

    #[test]
    fn cross_crate_chains_respect_visibility_and_paths() {
        let dsp = analyzed(
            "crates/dsp/src/buf.rs",
            "pub fn grow() -> Vec<u8> {\n    Vec::with_capacity(64)\n}\n",
        );
        let coding = analyzed(
            "crates/coding/src/mid.rs",
            "pub fn relay() -> Vec<u8> {\n    bluefi_dsp::buf::grow()\n}\n",
        );
        let wifi = analyzed(
            "crates/wifi/src/hot.rs",
            "use bluefi_coding::mid::relay;\n\
             fn hot(n: usize) {\n    for _ in 0..n {\n        let v = relay();\n        \
             drop(v);\n    }\n}\n",
        );
        let mut out = Findings::default();
        r10_transitive_alloc(&[dsp, coding, wifi], &mut out);
        assert_eq!(out.fired.len(), 1, "{:#?}", out.fired);
        let d = &out.fired[0];
        assert_eq!(d.file, "crates/wifi/src/hot.rs");
        assert_eq!(d.line, 4);
        // Three-step chain: relay => grow => needle site.
        assert_eq!(d.chain.len(), 3, "{:#?}", d.chain);
        assert!(d.chain[0].contains("coding::mid::relay"));
        assert!(d.chain[1].contains("dsp::buf::grow"));
        assert!(d.chain[2].contains("Vec::with_capacity"));
    }

    #[test]
    fn hatch_and_non_loop_calls_stay_silent() {
        let file = analyzed(
            "crates/coding/src/b.rs",
            "fn helper() -> Vec<u8> {\n    Vec::new()\n}\n\
             fn cold() {\n    let v = helper();\n    drop(v);\n}\n\
             fn hot(n: usize) {\n    for _ in 0..n {\n        \
             let v = helper(); // lint: allow(r10) cold fallback, bounded\n        \
             drop(v);\n    }\n}\n",
        );
        let mut out = Findings::default();
        r10_transitive_alloc(&[file], &mut out);
        assert!(out.fired.is_empty(), "{:#?}", out.fired);
        assert_eq!(out.hatched.len(), 1);
        assert_eq!(out.hatched[0].line, 10);
    }

    #[test]
    fn upward_and_lateral_crates_are_not_resolved() {
        // A method named like an allocating fn in a *higher* crate must not
        // leak downward into dsp's resolution.
        let sim = analyzed(
            "crates/sim/src/s.rs",
            "pub struct S;\nimpl S {\n    pub fn step(&self) -> Vec<u8> {\n        \
             vec![0]\n    }\n}\n",
        );
        let dsp = analyzed(
            "crates/dsp/src/d.rs",
            "fn hot(s: &Thing, n: usize) {\n    for _ in 0..n {\n        \
             let v = s.step();\n        drop(v);\n    }\n}\n",
        );
        let mut out = Findings::default();
        r10_transitive_alloc(&[sim, dsp], &mut out);
        assert!(out.fired.is_empty(), "{:#?}", out.fired);
    }
}
