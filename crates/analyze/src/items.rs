//! Pass 2 — a per-file item index on the token stream.
//!
//! Walks the [`tokenize`] output once and records
//! every `fn` item with its visibility, enclosing `mod`/`impl` context,
//! crate-qualified path, body span (token and line ranges) and test-ness,
//! plus the file's `use`-imports (local name → originating workspace
//! crate). This is what the cross-file rules resolve against; it is *not* a
//! Rust parser — the recognizer is a linear scan with brace/paren depth
//! tracking, and constructs it cannot classify simply fall out of the index
//! (a miss makes the downstream call graph *smaller*, which is the safe
//! direction for a deny-list linter; see DESIGN.md §13).

use crate::source::SourceFile;
use crate::tokens::{tokenize, Tok, TokKind};

/// Item visibility, as far as the rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// No `pub` at all.
    Private,
    /// `pub(crate)`, `pub(super)`, `pub(in ...)` — visible, but not part of
    /// the public API surface.
    Restricted,
    /// Plain `pub`.
    Public,
}

/// One indexed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` type name, if this is an associated fn/method.
    pub owner: Option<String>,
    /// Visibility of the `fn` itself.
    pub vis: Vis,
    /// Crate-qualified path: `crate::module[::Owner]::name`.
    pub qualified: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index range of the body (between the braces), when present.
    pub body_toks: Option<(usize, usize)>,
    /// 1-based line range of the body (open-brace line ..= close-brace
    /// line), when present.
    pub body_lines: Option<(usize, usize)>,
    /// True when the item sits inside a `#[cfg(test)]` region.
    pub is_test: bool,
}

/// Where a `use`-imported name comes from.
#[derive(Debug, Clone)]
pub struct UseImport {
    /// Local (possibly `as`-renamed) name.
    pub name: String,
    /// Workspace crate the name resolves into (`dsp`, `core`, ...). Imports
    /// from `std`/external roots are not recorded.
    pub krate: String,
}

/// The full index for one file.
#[derive(Debug, Clone)]
pub struct FileIndex {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Workspace crate short name (`dsp`, `core`, ...), when the path is a
    /// `crates/<name>/src/...` source.
    pub krate: Option<String>,
    /// Module path of the file itself (e.g. `core::telemetry`).
    pub module: String,
    /// The token stream the index was built from.
    pub toks: Vec<Tok>,
    /// Every indexed function, in source order.
    pub fns: Vec<FnItem>,
    /// `use`-imports mapping local names to workspace crates.
    pub uses: Vec<UseImport>,
    /// Per-line flag: true when the line starts inside a `for`/`while`
    /// body (the R10 hot-loop region).
    pub in_loop: Vec<bool>,
}

/// Short crate name from a workspace-relative path
/// (`crates/dsp/src/fft.rs` → `dsp`).
pub fn crate_of(rel_path: &str) -> Option<&str> {
    let norm = rel_path.strip_prefix("crates/")?;
    let (krate, rest) = norm.split_once('/')?;
    rest.starts_with("src/").then_some(krate)
}

/// Module path of a file inside its crate: `crates/core/src/telemetry/mod.rs`
/// → `core::telemetry`, `crates/dsp/src/lib.rs` → `dsp`.
fn module_of(rel_path: &str, krate: &str) -> String {
    let mut parts: Vec<&str> = Vec::new();
    if let Some(rest) = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .and_then(|(_, r)| r.strip_prefix("src/"))
    {
        for seg in rest.split('/') {
            let seg = seg.strip_suffix(".rs").unwrap_or(seg);
            if seg == "lib" || seg == "mod" || seg == "main" {
                continue;
            }
            parts.push(seg);
        }
    }
    let mut module = krate.to_string();
    for p in parts {
        module.push_str("::");
        module.push_str(p);
    }
    module
}

#[derive(Debug, Clone, PartialEq)]
enum Pending {
    Fn(usize), // index into fns being built
    Mod(String),
    Impl(String),
}

#[derive(Debug, Clone)]
enum Ctx {
    Mod(String),
    Impl(String),
    Fn(usize),
    Block, // any other braced region (loop, match, struct literal, ...)
}

/// Builds the [`FileIndex`] for a lexed file.
pub fn index_file(file: &SourceFile) -> FileIndex {
    let toks = tokenize(file);
    let krate = crate_of(&file.rel_path).map(str::to_string);
    let module =
        krate.as_deref().map(|k| module_of(&file.rel_path, k)).unwrap_or_default();
    let mut fns: Vec<FnItem> = Vec::new();
    let mut uses: Vec<UseImport> = Vec::new();
    let own_crate = krate.clone().unwrap_or_default();

    let in_test_line =
        |line: usize| file.lines.get(line.saturating_sub(1)).is_some_and(|l| l.in_test);

    // Linear scan with depth tracking. `pending` is the item header whose
    // `{` (or `;`) we are waiting for; item keywords are only recognized at
    // paren depth 0 with no pending header, which keeps `-> impl Iterator`
    // or `x: impl Fn()` in signatures from being misread as items.
    let mut depth = 0i64;
    let mut paren = 0i64;
    let mut pending: Option<Pending> = None;
    let mut ctx: Vec<(i64, Ctx)> = Vec::new();
    let mut boundary = 0usize; // first token of the current item prefix

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "{" => {
                    depth += 1;
                    let opened = match pending.take() {
                        Some(kind) if paren == 0 => match kind {
                            Pending::Fn(idx) => {
                                fns[idx].body_toks = Some((i + 1, i + 1));
                                fns[idx].body_lines = Some((t.line, t.line));
                                Ctx::Fn(idx)
                            }
                            Pending::Mod(name) => Ctx::Mod(name),
                            Pending::Impl(name) => Ctx::Impl(name),
                        },
                        other => {
                            pending = other;
                            Ctx::Block
                        }
                    };
                    ctx.push((depth, opened));
                    boundary = i + 1;
                }
                "}" => {
                    while ctx.last().is_some_and(|(d, _)| *d >= depth) {
                        if let Some((_, Ctx::Fn(idx))) = ctx.pop() {
                            if let Some((start, _)) = fns[idx].body_toks {
                                fns[idx].body_toks = Some((start, i));
                            }
                            if let Some((start, _)) = fns[idx].body_lines {
                                fns[idx].body_lines = Some((start, t.line));
                            }
                        }
                    }
                    depth -= 1;
                    boundary = i + 1;
                }
                // Cancels a bodiless header (trait fn decl, `mod x;`).
                ";" if paren == 0 => {
                    pending = None;
                    boundary = i + 1;
                }
                "]" => {
                    // Attribute close: the item prefix continues past it.
                }
                _ => {}
            },
            TokKind::Ident if paren == 0 && pending.is_none() => {
                match t.text.as_str() {
                    "fn" => {
                        if let Some(name_tok) =
                            toks.get(i + 1).filter(|n| n.kind == TokKind::Ident)
                        {
                            let vis = visibility_of(&toks[boundary..i]);
                            let owner = ctx.iter().rev().find_map(|(_, c)| match c {
                                Ctx::Impl(ty) => Some(ty.clone()),
                                _ => None,
                            });
                            let mods: Vec<&str> = ctx
                                .iter()
                                .filter_map(|(_, c)| match c {
                                    Ctx::Mod(m) => Some(m.as_str()),
                                    _ => None,
                                })
                                .collect();
                            let mut qualified = module.clone();
                            if qualified.is_empty() {
                                qualified = own_crate.clone();
                            }
                            for m in &mods {
                                qualified.push_str("::");
                                qualified.push_str(m);
                            }
                            if let Some(ty) = &owner {
                                qualified.push_str("::");
                                qualified.push_str(ty);
                            }
                            qualified.push_str("::");
                            qualified.push_str(&name_tok.text);
                            fns.push(FnItem {
                                name: name_tok.text.clone(),
                                owner,
                                vis,
                                qualified,
                                line: t.line,
                                body_toks: None,
                                body_lines: None,
                                is_test: in_test_line(t.line),
                            });
                            pending = Some(Pending::Fn(fns.len() - 1));
                            i += 1; // skip the name
                        }
                    }
                    "mod" => {
                        if let Some(name_tok) =
                            toks.get(i + 1).filter(|n| n.kind == TokKind::Ident)
                        {
                            pending = Some(Pending::Mod(name_tok.text.clone()));
                            i += 1;
                        }
                    }
                    "impl" => {
                        pending = Some(Pending::Impl(impl_type_name(&toks[i + 1..])));
                    }
                    "use" => {
                        let end = toks[i..]
                            .iter()
                            .position(|t| t.is_punct(";"))
                            .map(|p| i + p)
                            .unwrap_or(toks.len());
                        collect_use_imports(&toks[i + 1..end], &own_crate, &mut uses);
                        i = end;
                    }
                    _ => {}
                }
            }
            _ => {}
        }
        i += 1;
    }

    let in_loop = loop_lines(file);
    FileIndex { rel_path: file.rel_path.clone(), krate, module, toks, fns, uses, in_loop }
}

/// Visibility from the modifier tokens preceding a `fn` keyword.
fn visibility_of(prefix: &[Tok]) -> Vis {
    for (i, t) in prefix.iter().enumerate() {
        if t.is_ident("pub") {
            return if prefix.get(i + 1).is_some_and(|n| n.is_punct("(")) {
                Vis::Restricted
            } else {
                Vis::Public
            };
        }
    }
    Vis::Private
}

/// Self-type name of an `impl` header (the tokens after `impl`, up to the
/// opening brace): the last path segment at angle depth 0, taken after
/// `for` when present and before any `where` clause. HRTB `for<'a>` bounds
/// in the generics would confuse the `for` split — none exist in this
/// workspace, and a miss only shrinks the call graph (safe direction).
fn impl_type_name(toks: &[Tok]) -> String {
    let upto = toks
        .iter()
        .position(|t| t.is_punct("{") || t.is_punct(";"))
        .unwrap_or(toks.len());
    let mut header = &toks[..upto];
    if let Some(w) = header.iter().position(|t| t.is_ident("where")) {
        header = &header[..w];
    }
    if let Some(f) = header.iter().position(|t| t.is_ident("for")) {
        header = &header[f + 1..];
    }
    let mut angle = 0i64;
    let mut last_seg = String::new();
    for t in header {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "<") => angle += 1,
            (TokKind::Punct, ">") => angle -= 1,
            (TokKind::Ident, w) if angle == 0 && !matches!(w, "dyn" | "mut" | "const") => {
                last_seg = w.to_string();
            }
            _ => {}
        }
    }
    last_seg
}

/// Expands a `use` tree into (leaf name → workspace crate) imports.
/// Handles `use bluefi_x::a::b;`, `{...}` groups one level deep, and
/// `as` renames; glob imports and non-workspace roots are skipped.
fn collect_use_imports(toks: &[Tok], own_crate: &str, out: &mut Vec<UseImport>) {
    let root = match toks.first() {
        Some(t) if t.kind == TokKind::Ident => t.text.as_str(),
        _ => return,
    };
    let krate = if let Some(stripped) = root.strip_prefix("bluefi_") {
        stripped.to_string()
    } else if matches!(root, "crate" | "self" | "super") && !own_crate.is_empty() {
        own_crate.to_string()
    } else {
        return; // std / external root: not resolvable into the workspace
    };

    // Walk the flat token list; every ident that is followed by `,`, `}`
    // or end-of-tree (i.e. not by `::`) is a leaf. `as` renames the leaf.
    let mut i = 1usize;
    let mut last_ident: Option<String> = None;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            if t.text == "as" {
                if let Some(alias) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    out.push(UseImport { name: alias.text.clone(), krate: krate.clone() });
                    last_ident = None;
                    i += 2;
                    continue;
                }
            }
            last_ident = Some(t.text.clone());
        } else if t.is_punct("::") {
            // The previous ident was a path segment, not a leaf.
            if toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident || n.is_punct("{")) {
                last_ident = None;
            }
        } else if t.is_punct(",") || t.is_punct("}") {
            if let Some(name) = last_ident.take() {
                out.push(UseImport { name, krate: krate.clone() });
            }
        }
        i += 1;
    }
    if let Some(name) = last_ident.take() {
        out.push(UseImport { name, krate });
    }
}

/// Per-line hot-loop flags: `true` when the line *starts* inside a
/// `for`/`while` body (headers exempt, test-code loops not tracked,
/// rustfmt-style braces). R10 checks both its direct needles and its call
/// sites against this one region model.
pub fn loop_lines(file: &SourceFile) -> Vec<bool> {
    let mut out = Vec::with_capacity(file.lines.len());
    let mut depth = 0i64;
    let mut loop_depths: Vec<i64> = Vec::new();
    for line in &file.lines {
        out.push(!loop_depths.is_empty());
        let code = &line.code;
        let mut pending_header =
            if line.in_test { None } else { crate::rules::loop_keyword_pos(code) };
        for (ci, c) in code.char_indices() {
            match c {
                '{' => {
                    depth += 1;
                    if pending_header.is_some_and(|k| ci > k) {
                        loop_depths.push(depth);
                        pending_header = None;
                    }
                }
                '}' => {
                    depth -= 1;
                    while loop_depths.last().is_some_and(|&d| d > depth) {
                        loop_depths.pop();
                    }
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(src: &str) -> FileIndex {
        index_file(&SourceFile::parse("crates/dsp/src/sub/x.rs", src))
    }

    #[test]
    fn fn_items_carry_visibility_and_spans() {
        let src = "/// Doc.\npub fn api(a: u8) -> u8 {\n    a\n}\n\
                   pub(crate) fn internal() {}\nfn private() {}\n";
        let idx = index(src);
        assert_eq!(idx.krate.as_deref(), Some("dsp"));
        assert_eq!(idx.module, "dsp::sub::x");
        let names: Vec<(&str, Vis)> =
            idx.fns.iter().map(|f| (f.name.as_str(), f.vis)).collect();
        assert_eq!(
            names,
            vec![
                ("api", Vis::Public),
                ("internal", Vis::Restricted),
                ("private", Vis::Private)
            ]
        );
        assert_eq!(idx.fns[0].qualified, "dsp::sub::x::api");
        assert_eq!(idx.fns[0].body_lines, Some((2, 4)));
    }

    #[test]
    fn impl_and_mod_context_qualify_names() {
        let src = "impl Plan {\n    pub fn new() -> Plan { Plan }\n}\n\
                   impl Iterator for Plan {\n    fn next(&mut self) -> Option<u8> { None }\n}\n\
                   mod inner {\n    fn helper() {}\n}\n";
        let idx = index(src);
        assert_eq!(idx.fns[0].qualified, "dsp::sub::x::Plan::new");
        assert_eq!(idx.fns[0].owner.as_deref(), Some("Plan"));
        assert_eq!(idx.fns[1].qualified, "dsp::sub::x::Plan::next");
        assert_eq!(idx.fns[2].qualified, "dsp::sub::x::inner::helper");
    }

    #[test]
    fn signature_impl_and_fn_types_are_not_items() {
        let src = "pub fn outer(cb: impl Fn(u8) -> u8) -> impl Iterator<Item = u8> {\n\
                       std::iter::once(cb(1))\n}\nfn after() {}\n";
        let idx = index(src);
        let names: Vec<&str> = idx.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "after"]);
        assert_eq!(idx.fns[0].body_lines, Some((1, 3)));
    }

    #[test]
    fn trait_decls_have_no_body_and_tests_are_marked() {
        let src = "trait T {\n    fn decl(&self) -> u8;\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let idx = index(src);
        let decl = idx.fns.iter().find(|f| f.name == "decl").expect("decl indexed");
        assert!(decl.body_toks.is_none());
        let t = idx.fns.iter().find(|f| f.name == "t").expect("t indexed");
        assert!(t.is_test);
    }

    #[test]
    fn use_imports_map_to_workspace_crates() {
        let src = "use bluefi_dsp::fft::{fft_into, FftPlan};\n\
                   use bluefi_coding::viterbi::decode_punctured as vdecode;\n\
                   use std::collections::HashMap;\nuse crate::bits::pack;\n";
        let idx = index_file(&SourceFile::parse("crates/wifi/src/x.rs", src));
        let got: Vec<(&str, &str)> =
            idx.uses.iter().map(|u| (u.name.as_str(), u.krate.as_str())).collect();
        assert_eq!(
            got,
            vec![
                ("fft_into", "dsp"),
                ("FftPlan", "dsp"),
                ("vdecode", "coding"),
                ("pack", "wifi")
            ]
        );
    }

    #[test]
    fn loop_lines_match_the_r6_region_model() {
        let src = "fn f(items: &[u8]) {\n    for x in items {\n        g(*x);\n    }\n    h();\n}\n";
        let f = SourceFile::parse("crates/dsp/src/x.rs", src);
        assert_eq!(loop_lines(&f), vec![false, false, true, true, false, false]);
    }
}
