//! Pass 1 — a token stream atop the line lexer.
//!
//! [`SourceFile`] already classifies every
//! character as code / comment / literal content and blanks string and char
//! *contents* out of the per-line `code` view. This module tokenizes that
//! `code` view into identifiers, literals and punctuation with spans
//! (1-based line, 0-based column into the `code` string), which is what the
//! item indexer ([`crate::items`]) and the call-graph pass
//! ([`crate::callgraph`]) walk instead of raw text.
//!
//! The stream is deliberately coarse — no keyword table beyond what the
//! item pass needs, `::` is the only fused multi-character punctuator
//! (paths matter to the rules; `->`/`=>`/`..` do not) — and it never fails:
//! unexpected bytes become single-character [`TokKind::Punct`] tokens.

use crate::source::SourceFile;

/// Token classes produced by [`tokenize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `foo`, `bluefi_dsp`).
    Ident,
    /// A lifetime (`'a`); produced when a `'` introduces an identifier
    /// without a closing quote.
    Lifetime,
    /// A numeric literal, including suffixes (`1_000u64`, `0x3f`, `1.5e-3`).
    Num,
    /// A string-literal placeholder. Contents were blanked by the lexer, so
    /// the token is just the quote(s).
    Str,
    /// A char-literal placeholder (contents blanked, as with [`TokKind::Str`]).
    Char,
    /// Punctuation; `::` is fused, everything else is a single character.
    Punct,
}

/// One token with its span.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Token text as it appears in the blanked `code` view.
    pub text: String,
    /// 1-based source line.
    pub line: usize,
    /// 0-based column into the line's `code` string.
    pub col: usize,
}

impl Tok {
    /// True when this token is the identifier `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text == word
    }

    /// True when this token is the punctuator `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokKind::Punct && self.text == p
    }
}

fn ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes the blanked `code` view of every line of `file`.
pub fn tokenize(file: &SourceFile) -> Vec<Tok> {
    let mut out = Vec::new();
    for (lineno, line) in file.lines.iter().enumerate() {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            let col = i;
            if ident_start(c) {
                let mut text = String::new();
                while i < chars.len() && ident_continue(chars[i]) {
                    text.push(chars[i]);
                    i += 1;
                }
                out.push(Tok { kind: TokKind::Ident, text, line: lineno + 1, col });
                continue;
            }
            if c.is_ascii_digit() {
                // Numbers swallow suffixes and simple float/exponent forms;
                // a trailing `.` followed by an identifier (method call on a
                // literal) is left to the punctuation stream.
                let mut text = String::new();
                while i < chars.len() {
                    let d = chars[i];
                    let take = d.is_ascii_alphanumeric()
                        || d == '_'
                        || (d == '.'
                            && chars.get(i + 1).copied().is_some_and(|n| n.is_ascii_digit()))
                        || ((d == '+' || d == '-')
                            && matches!(text.chars().next_back(), Some('e') | Some('E')));
                    if !take {
                        break;
                    }
                    text.push(d);
                    i += 1;
                }
                out.push(Tok { kind: TokKind::Num, text, line: lineno + 1, col });
                continue;
            }
            if c == '"' {
                // The lexer blanked the contents, so a string literal is an
                // adjacent quote pair — or a lone quote when the literal
                // spans lines.
                let text = if chars.get(i + 1) == Some(&'"') {
                    i += 2;
                    "\"\"".to_string()
                } else {
                    i += 1;
                    "\"".to_string()
                };
                out.push(Tok { kind: TokKind::Str, text, line: lineno + 1, col });
                continue;
            }
            if c == '\'' {
                // `''` is a blanked char literal; `'ident` is a lifetime.
                if chars.get(i + 1) == Some(&'\'') {
                    out.push(Tok {
                        kind: TokKind::Char,
                        text: "''".to_string(),
                        line: lineno + 1,
                        col,
                    });
                    i += 2;
                    continue;
                }
                if chars.get(i + 1).copied().is_some_and(ident_start) {
                    let mut text = String::from("'");
                    i += 1;
                    while i < chars.len() && ident_continue(chars[i]) {
                        text.push(chars[i]);
                        i += 1;
                    }
                    out.push(Tok { kind: TokKind::Lifetime, text, line: lineno + 1, col });
                    continue;
                }
                out.push(Tok {
                    kind: TokKind::Punct,
                    text: "'".to_string(),
                    line: lineno + 1,
                    col,
                });
                i += 1;
                continue;
            }
            if c == ':' && chars.get(i + 1) == Some(&':') {
                out.push(Tok {
                    kind: TokKind::Punct,
                    text: "::".to_string(),
                    line: lineno + 1,
                    col,
                });
                i += 2;
                continue;
            }
            out.push(Tok { kind: TokKind::Punct, text: c.to_string(), line: lineno + 1, col });
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn toks(src: &str) -> Vec<Tok> {
        tokenize(&SourceFile::parse("x.rs", src))
    }

    #[test]
    fn idents_paths_and_literals() {
        let t = toks("let x = bluefi_dsp::fft::fft_into(buf, 64);");
        let texts: Vec<&str> = t.iter().map(|k| k.text.as_str()).collect();
        assert_eq!(
            texts,
            vec![
                "let", "x", "=", "bluefi_dsp", "::", "fft", "::", "fft_into", "(", "buf",
                ",", "64", ")", ";"
            ]
        );
        assert_eq!(t[3].kind, TokKind::Ident);
        assert_eq!(t[4].kind, TokKind::Punct);
        assert_eq!(t[11].kind, TokKind::Num);
        assert_eq!(t[11].line, 1);
    }

    #[test]
    fn strings_chars_and_lifetimes() {
        let t = toks("fn f<'a>(s: &'a str) { g(\"text\", 'c'); }");
        assert!(t.iter().any(|k| k.kind == TokKind::Lifetime && k.text == "'a"));
        assert!(t.iter().any(|k| k.kind == TokKind::Str));
        assert!(t.iter().any(|k| k.kind == TokKind::Char));
        // The blanked string carries no content.
        assert!(!t.iter().any(|k| k.text.contains("text")));
    }

    #[test]
    fn numeric_suffixes_and_floats() {
        let t = toks("let a = 1_000u64 + 1.5e-3 + 0x3f;");
        let nums: Vec<&str> = t
            .iter()
            .filter(|k| k.kind == TokKind::Num)
            .map(|k| k.text.as_str())
            .collect();
        assert_eq!(nums, vec!["1_000u64", "1.5e-3", "0x3f"]);
    }

    #[test]
    fn spans_carry_lines() {
        let t = toks("a();\nb();\n");
        let b = t.iter().find(|k| k.is_ident("b")).expect("b token");
        assert_eq!(b.line, 2);
        assert_eq!(b.col, 0);
    }
}
