//! A lightweight Rust token scanner.
//!
//! The build environment is offline, so the linter cannot lean on syn or
//! rustc internals; instead it hand-rolls just enough lexing to be
//! line-, comment- and string-aware (the same idiom as the
//! recursive-descent JSON reader in `gdx_common::json`). The scanner produces a flat token
//! stream — identifiers, single-char punctuation, literals — plus the
//! list of `//` line comments, which is where the allow/expect/SAFETY
//! annotations live. Block comments (nested, per Rust), string literals
//! (plain, raw, byte), char literals and lifetimes are recognized so
//! that their *contents* never leak into the token stream: a `panic!`
//! inside a doc comment or a format string must not fire a rule.

/// Token kind. Punctuation is emitted one char at a time (`::` arrives
/// as two `:` tokens); rule matchers work on short token sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character.
    Punct,
    /// String / char / numeric literal (contents opaque).
    Lit,
}

/// One token: kind, 1-based source line, and the source slice.
#[derive(Debug, Clone, Copy)]
pub struct Tok<'a> {
    pub kind: TokKind,
    pub line: u32,
    pub text: &'a str,
}

impl<'a> Tok<'a> {
    /// True when this token is the identifier `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text == word
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// A `//` line comment: 1-based line and the text after the `//`.
#[derive(Debug, Clone)]
pub struct CommentLine {
    pub line: u32,
    pub text: String,
}

/// Lexer output: the token stream and every line comment.
#[derive(Debug)]
pub struct Lexed<'a> {
    pub tokens: Vec<Tok<'a>>,
    pub comments: Vec<CommentLine>,
}

/// True for characters that may continue an identifier.
fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// True for characters that may start an identifier.
fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

/// Scans `src` into tokens + comments. Never fails: malformed input
/// (unterminated string, stray byte) degrades to best-effort tokens —
/// the linter must keep walking a tree that rustc will reject anyway.
pub fn lex(src: &str) -> Lexed<'_> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Advances `i` past a (possibly `#`-fenced) string body that starts
    // at the opening quote, counting newlines. `hashes` is the number of
    // `#` in the raw-string fence; 0 with `escapes` handles plain
    // strings.
    let scan_string = |i: &mut usize, line: &mut u32, hashes: usize, escapes: bool| {
        *i += 1; // opening quote
        while *i < bytes.len() {
            match bytes[*i] {
                b'\\' if escapes => *i += 2,
                b'\n' => {
                    *line += 1;
                    *i += 1;
                }
                b'"' => {
                    let mut k = 0;
                    while k < hashes && bytes.get(*i + 1 + k) == Some(&b'#') {
                        k += 1;
                    }
                    if k == hashes {
                        *i += 1 + hashes;
                        return;
                    }
                    *i += 1;
                }
                _ => *i += 1,
            }
        }
    };

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\n' {
                    j += 1;
                }
                comments.push(CommentLine {
                    line,
                    text: src[start..j].to_owned(),
                });
                i = j;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Nested block comment.
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let start = i;
                let start_line = line;
                scan_string(&mut i, &mut line, 0, true);
                tokens.push(Tok {
                    kind: TokKind::Lit,
                    line: start_line,
                    text: &src[start..i.min(src.len())],
                });
            }
            b'\'' => {
                // Char literal vs lifetime. `'\...'` and `'X'` are
                // chars; `'ident` (no closing quote right after) is a
                // lifetime and produces no token.
                if bytes.get(i + 1) == Some(&b'\\') {
                    let mut j = i + 2;
                    while j < bytes.len() && bytes[j] != b'\'' {
                        j += 1;
                    }
                    tokens.push(Tok {
                        kind: TokKind::Lit,
                        line,
                        text: &src[i..(j + 1).min(src.len())],
                    });
                    i = j + 1;
                } else if bytes.get(i + 2) == Some(&b'\'')
                    && bytes.get(i + 1).is_some_and(|&c| c != b'\'')
                {
                    tokens.push(Tok {
                        kind: TokKind::Lit,
                        line,
                        text: &src[i..i + 3],
                    });
                    i += 3;
                } else {
                    // Lifetime: skip the quote and the identifier.
                    i += 1;
                    while i < bytes.len() && is_ident_continue(bytes[i]) {
                        i += 1;
                    }
                }
            }
            b'r' | b'b' if is_raw_or_byte_string(bytes, i) => {
                let start = i;
                let start_line = line;
                // Skip the prefix letters (`r`, `b`, `br`, `rb`).
                while i < bytes.len() && (bytes[i] == b'r' || bytes[i] == b'b') {
                    i += 1;
                }
                let mut hashes = 0usize;
                while bytes.get(i) == Some(&b'#') {
                    hashes += 1;
                    i += 1;
                }
                let escapes = hashes == 0 && !src[start..i].contains('r');
                scan_string(&mut i, &mut line, hashes, escapes);
                tokens.push(Tok {
                    kind: TokKind::Lit,
                    line: start_line,
                    text: &src[start..i.min(src.len())],
                });
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < bytes.len() && is_ident_continue(bytes[i]) {
                    i += 1;
                }
                tokens.push(Tok {
                    kind: TokKind::Ident,
                    line,
                    text: &src[start..i],
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len()
                    && (is_ident_continue(bytes[i]) || bytes[i] == b'.')
                    // `0..n` range: stop the number before `..`.
                    && !(bytes[i] == b'.' && bytes.get(i + 1) == Some(&b'.'))
                {
                    i += 1;
                }
                tokens.push(Tok {
                    kind: TokKind::Lit,
                    line,
                    text: &src[start..i],
                });
            }
            _ => {
                let len = src[i..].chars().next().map_or(1, char::len_utf8);
                tokens.push(Tok {
                    kind: TokKind::Punct,
                    line,
                    text: &src[i..i + len],
                });
                i += len;
            }
        }
    }
    Lexed { tokens, comments }
}

/// True when position `i` starts a raw/byte string prefix (`r"`, `r#`,
/// `b"`, `br"`, `br#`, ...), as opposed to a plain identifier.
fn is_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    while j < bytes.len() && (bytes[j] == b'r' || bytes[j] == b'b') && j - i < 2 {
        j += 1;
    }
    // Must not be the start of a longer identifier (`raw_value`).
    if j < bytes.len() && is_ident_continue(bytes[j]) && bytes[j] != b'r' && bytes[j] != b'b' {
        return false;
    }
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<&str> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_do_not_leak_tokens() {
        let src = r##"
// panic! in a comment
/* panic! in /* a nested */ block */
let s = "panic!(\"x\")";
let r = r#"panic!"#;
let b = b"panic!";
"##;
        assert!(!idents(src).contains(&"panic"));
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let s = \"a\nb\nc\";\nfoo();";
        let l = lex(src);
        let foo = l.tokens.iter().find(|t| t.is_ident("foo")).unwrap();
        assert_eq!(foo.line, 4);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let l = lex(src);
        let lits: Vec<_> = l.tokens.iter().filter(|t| t.kind == TokKind::Lit).collect();
        assert_eq!(lits.len(), 1);
        assert_eq!(lits[0].text, "'x'");
    }

    #[test]
    fn comments_are_collected_with_lines() {
        let src = "let x = 1; // gdx-lint: allow(slice-index) — reason\n// plain\n";
        let l = lex(src);
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].line, 1);
        assert!(l.comments[0].text.contains("gdx-lint"));
        assert_eq!(l.comments[1].line, 2);
    }

    #[test]
    fn numbers_and_ranges() {
        let src = "for i in 0..10 { a[i]; }";
        let l = lex(src);
        let texts: Vec<&str> = l.tokens.iter().map(|t| t.text).collect();
        assert!(texts.contains(&"0"));
        assert!(texts.contains(&"10"));
        // Two separate `.` puncts for the range.
        assert_eq!(texts.iter().filter(|t| **t == ".").count(), 2);
    }

    #[test]
    fn raw_identifier_prefix_is_not_a_string() {
        let src = "let raw_value = br(bytes);";
        assert!(idents(src).contains(&"raw_value"));
        assert!(idents(src).contains(&"br"));
    }
}
