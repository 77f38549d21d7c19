//! Line-oriented source model for the lint rules.
//!
//! The scanner is deliberately *not* a Rust parser: it is a single-pass
//! lexer that classifies every character of a file as code, comment, or
//! string/char-literal content, then exposes a per-line view where
//!
//! * `code` holds the line with comments and literal *contents* removed
//!   (quotes are kept as placeholders), so token searches cannot be fooled
//!   by `"panic!"` inside a string or `unwrap()` inside a doc comment;
//! * `comment` holds the comment text, where escape hatches
//!   (`// lint: allow(<rule>) <reason>`) are recognized; and
//! * `in_test` marks lines inside a `#[cfg(test)]` item, tracked by brace
//!   depth from the attribute.
//!
//! This mirrors the hermetic-build policy: no external parser crates, and
//! behavior simple enough to verify from fixtures.

/// One analyzed source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// The original line text.
    pub raw: String,
    /// The line with comments stripped and string/char contents blanked.
    pub code: String,
    /// The comment text carried by this line (no `//` / `/* */` markers).
    pub comment: String,
    /// True when the line is inside a `#[cfg(test)]` item.
    pub in_test: bool,
    /// Lint rules suppressed on this line via the escape hatch, including
    /// hatches declared on directly preceding comment-only lines.
    pub allows: Vec<String>,
}

/// A fully lexed source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path (used in diagnostics).
    pub rel_path: String,
    /// The analyzed lines, in file order.
    pub lines: Vec<Line>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(usize),
    Char,
}

impl SourceFile {
    /// Lexes `text` into the per-line model.
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let mut lines: Vec<Line> = Vec::new();
        let chars: Vec<char> = text.chars().collect();
        let mut state = State::Code;
        let mut code = String::new();
        let mut comment = String::new();
        let mut raw_line = String::new();
        let mut i = 0usize;

        let flush =
            |code: &mut String, comment: &mut String, raw: &mut String, lines: &mut Vec<Line>| {
                lines.push(Line {
                    raw: std::mem::take(raw),
                    code: std::mem::take(code),
                    comment: std::mem::take(comment),
                    in_test: false,
                    allows: Vec::new(),
                });
            };

        while i < chars.len() {
            let c = chars[i];
            if c == '\n' {
                if state == State::LineComment {
                    state = State::Code;
                }
                flush(&mut code, &mut comment, &mut raw_line, &mut lines);
                i += 1;
                continue;
            }
            raw_line.push(c);
            match state {
                State::Code => {
                    let next = chars.get(i + 1).copied();
                    if c == '/' && next == Some('/') {
                        state = State::LineComment;
                        raw_line.push('/');
                        i += 2;
                        continue;
                    }
                    if c == '/' && next == Some('*') {
                        state = State::BlockComment(1);
                        raw_line.push('*');
                        i += 2;
                        continue;
                    }
                    if c == '"' {
                        code.push('"');
                        state = State::Str;
                        i += 1;
                        continue;
                    }
                    // Raw strings: r"..."  r#"..."#  (and byte variants).
                    if (c == 'r' || c == 'b') && !prev_is_ident(&code) {
                        let mut j = i + 1;
                        if c == 'b' && chars.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0usize;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if chars.get(j) == Some(&'"') && (hashes > 0 || j > i + usize::from(c == 'b')) {
                            // Consume the prefix into raw/code, enter RawStr.
                            for &p in &chars[i + 1..=j] {
                                raw_line.push(p);
                            }
                            code.push('"');
                            state = State::RawStr(hashes);
                            i = j + 1;
                            continue;
                        }
                    }
                    if c == '\'' {
                        // Distinguish a char literal from a lifetime: an
                        // escape (`'\n'`) or any single char followed by a
                        // closing quote (`'x'`, `'{'`) is a literal. A
                        // lifetime (`'a`) never carries a closing quote, so
                        // no extra exclusions are needed — an earlier guard
                        // that exempted `'{'` leaked its brace into the
                        // code view and corrupted brace-depth tracking.
                        let n1 = chars.get(i + 1).copied();
                        let n2 = chars.get(i + 2).copied();
                        let is_char = n1 == Some('\\') || (n1.is_some() && n2 == Some('\''));
                        if is_char {
                            code.push('\'');
                            state = State::Char;
                            i += 1;
                            continue;
                        }
                        // Lifetime: fall through as plain code.
                    }
                    code.push(c);
                    i += 1;
                }
                State::LineComment => {
                    comment.push(c);
                    i += 1;
                }
                State::BlockComment(depth) => {
                    let next = chars.get(i + 1).copied();
                    if c == '/' && next == Some('*') {
                        state = State::BlockComment(depth + 1);
                        raw_line.push('*');
                        i += 2;
                        continue;
                    }
                    if c == '*' && next == Some('/') {
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::BlockComment(depth - 1)
                        };
                        raw_line.push('/');
                        i += 2;
                        continue;
                    }
                    comment.push(c);
                    i += 1;
                }
                State::Str => {
                    if c == '\\' {
                        // Skip the escaped character (it may be a quote).
                        if let Some(&e) = chars.get(i + 1) {
                            if e != '\n' {
                                raw_line.push(e);
                                i += 1;
                            }
                        }
                    } else if c == '"' {
                        code.push('"');
                        state = State::Code;
                    }
                    i += 1;
                }
                State::RawStr(hashes) => {
                    if c == '"' {
                        let closed = (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'));
                        if closed {
                            for _ in 0..hashes {
                                raw_line.push('#');
                            }
                            code.push('"');
                            state = State::Code;
                            i += hashes + 1;
                            continue;
                        }
                    }
                    i += 1;
                }
                State::Char => {
                    if c == '\\' {
                        if let Some(&e) = chars.get(i + 1) {
                            if e != '\n' {
                                raw_line.push(e);
                                i += 1;
                            }
                        }
                    } else if c == '\'' {
                        code.push('\'');
                        state = State::Code;
                    }
                    i += 1;
                }
            }
        }
        if !raw_line.is_empty() || !code.is_empty() || !comment.is_empty() {
            flush(&mut code, &mut comment, &mut raw_line, &mut lines);
        }

        let mut file = SourceFile { rel_path: rel_path.to_string(), lines };
        file.mark_test_regions();
        file.collect_allows();
        file
    }

    /// Marks every line covered by a `#[cfg(test)]` item (attribute line
    /// through the matching close brace of the following item).
    fn mark_test_regions(&mut self) {
        let n = self.lines.len();
        let mut i = 0usize;
        while i < n {
            let squashed: String =
                self.lines[i].code.chars().filter(|c| !c.is_whitespace()).collect();
            if !squashed.contains("#[cfg(test)]") && !squashed.contains("#[cfg(any(test") {
                i += 1;
                continue;
            }
            // Walk forward to the first `{` of the annotated item, then to
            // its matching `}`; mark everything in between.
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < n {
                self.lines[j].in_test = true;
                for c in self.lines[j].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        // `#[cfg(test)]` on a braceless item (e.g. a
                        // `mod tests;` declaration): stop at the `;`.
                        ';' if !opened => {
                            depth = 0;
                            opened = true;
                        }
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        }
    }

    /// Resolves escape hatches: a hatch on a comment-only line also covers
    /// the next code-bearing line(s) directly below it.
    fn collect_allows(&mut self) {
        let own: Vec<Vec<String>> =
            self.lines.iter().map(|l| parse_allows(&l.comment)).collect();
        for i in 0..self.lines.len() {
            let mut allows = own[i].clone();
            // Inherit from the contiguous block of comment-only lines above.
            let mut j = i;
            while j > 0 {
                j -= 1;
                let above = &self.lines[j];
                if above.code.trim().is_empty() && !above.comment.trim().is_empty() {
                    allows.extend(own[j].iter().cloned());
                } else {
                    break;
                }
            }
            self.lines[i].allows = allows;
        }
    }
}

/// True when the last pushed code character continues an identifier (so an
/// `r` in e.g. `var` is not mistaken for a raw-string prefix).
fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Parses `lint: allow(<rule>) <reason>` hatches out of a comment. A hatch
/// with an empty reason is ignored (the reason is mandatory).
fn parse_allows(comment: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("lint: allow(") {
        rest = &rest[pos + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else { break };
        let rule = rest[..close].trim().to_string();
        let reason = rest[close + 1..]
            .split("lint: allow(")
            .next()
            .unwrap_or("")
            .trim();
        rest = &rest[close + 1..];
        if !rule.is_empty() && !reason.is_empty() {
            out.push(rule);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_stripped() {
        let f = SourceFile::parse(
            "x.rs",
            "let s = \"panic!\"; // unwrap()\nlet c = '\\'';\n/* block\npanic! */ let x = 1;",
        );
        assert!(!f.lines[0].code.contains("panic!"));
        assert!(f.lines[0].comment.contains("unwrap()"));
        assert!(f.lines[1].code.contains("let c ="));
        assert!(!f.lines[2].code.contains("panic!"));
        assert!(f.lines[3].code.contains("let x = 1"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = SourceFile::parse("x.rs", "fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(f.lines[0].code.contains("-> &'a str"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = SourceFile::parse("x.rs", "let s = r#\"has unwrap() inside\"#; done();");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("done()"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}";
        let f = SourceFile::parse("x.rs", src);
        let flags: Vec<bool> = f.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn escape_hatch_requires_reason_and_covers_next_line() {
        let src = "// lint: allow(panic) invariant: n is validated above\nx.unwrap();\n\
                   y.unwrap(); // lint: allow(panic)\nz.unwrap(); // lint: allow(panic) ok here";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.lines[1].allows, vec!["panic".to_string()]);
        assert!(f.lines[2].allows.is_empty(), "reason is mandatory");
        assert_eq!(f.lines[3].allows, vec!["panic".to_string()]);
    }

    #[test]
    fn brace_char_literals_do_not_leak_braces() {
        // `'{'` / `'}'` are char literals, not lifetimes; their braces must
        // be blanked or brace-depth tracking (cfg-test regions, R10 loop
        // bodies) drifts for the rest of the file. Regression: an old
        // lifetime heuristic exempted `'{'` specifically.
        let f = SourceFile::parse("x.rs", "match c { '{' => a(), '}' => b(), _ => c() }");
        assert!(!f.lines[0].code.contains("'{'"), "{:?}", f.lines[0].code);
        let depth: i64 = f.lines[0]
            .code
            .chars()
            .map(|c| match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(depth, 0, "balanced braces after blanking: {:?}", f.lines[0].code);
        // ...and the region tracker stays correct downstream of one.
        let src = "const OPEN: char = '{';\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}";
        let f = SourceFile::parse("x.rs", src);
        let flags: Vec<bool> = f.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn multi_hash_raw_strings_and_byte_strings_are_blanked() {
        let f = SourceFile::parse(
            "x.rs",
            "let a = r##\"quote \"# then panic!\"##; let b = br#\"unwrap()\"#; tail();",
        );
        assert!(!f.lines[0].code.contains("panic"), "{:?}", f.lines[0].code);
        assert!(!f.lines[0].code.contains("unwrap"), "{:?}", f.lines[0].code);
        assert!(f.lines[0].code.contains("tail()"));
        // An identifier ending in `r` (`var`) is not a raw-string prefix.
        let f = SourceFile::parse("x.rs", "let var = 1; var\"\";");
        assert!(f.lines[0].code.contains("var"));
    }

    #[test]
    fn nested_block_comments_track_depth() {
        let src = "/* outer /* inner unwrap() */ still comment panic! */ live();";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(!f.lines[0].code.contains("panic"));
        assert!(f.lines[0].code.contains("live()"));
        assert!(f.lines[0].comment.contains("inner"));
    }

    #[test]
    fn escaped_quote_chars_and_escaped_backslash() {
        // `'\''` (escaped quote) and `'\\'` (escaped backslash) both close
        // properly; following code stays visible.
        let f = SourceFile::parse("x.rs", "let q = '\\''; let b = '\\\\'; after();");
        assert!(f.lines[0].code.contains("after()"), "{:?}", f.lines[0].code);
        // A string containing an escaped quote does not end early.
        let f = SourceFile::parse("x.rs", "let s = \"a\\\"b panic!\"; after();");
        assert!(!f.lines[0].code.contains("panic"));
        assert!(f.lines[0].code.contains("after()"));
    }

    #[test]
    fn hatches_on_stacked_comment_lines_all_cover_the_next_code_line() {
        let src = "// lint: allow(panic) checked by caller\n\
                   // lint: allow(r10) buffer is 8 bytes, cold path\n\
                   let x = risky();\nlet y = 1;";
        let f = SourceFile::parse("x.rs", src);
        let mut allows = f.lines[2].allows.clone();
        allows.sort();
        assert_eq!(allows, vec!["panic".to_string(), "r10".to_string()]);
        assert!(f.lines[3].allows.is_empty(), "coverage stops at the code line");
    }

    #[test]
    fn cfg_test_tracks_braces_across_impl_blocks() {
        // The test region covers exactly the annotated impl, not the next
        // one — even with nested fn braces inside.
        let src = "#[cfg(test)]\nimpl Harness {\n    fn run(&self) {\n        if x { y(); }\n    }\n}\n\
                   impl Live {\n    fn hot(&self) {}\n}";
        let f = SourceFile::parse("x.rs", src);
        let flags: Vec<bool> = f.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![true, true, true, true, true, true, false, false, false]);
    }
}
