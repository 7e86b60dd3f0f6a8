//! Hand-rolled Rust token scanner.
//!
//! The linter needs far less than a real parser: identifiers, single-char
//! punctuation, and opaque literals, each tagged with a 1-based line
//! number — plus the `dasr-lint:` control comments. Everything inside
//! string/char literals and ordinary comments is invisible to the rule
//! passes, which is what lets the linter's own source spell out patterns
//! like `"partial_cmp"` without flagging itself.
//!
//! The scanner understands just enough real Rust to not mis-tokenize the
//! workspace: nested block comments, raw strings (`r#"…"#`), byte and
//! raw-byte strings, char literals vs lifetimes (`'x'` vs `'a`), raw
//! identifiers (`r#type`), and float literals vs range expressions
//! (`1.5` vs `0..10`).

/// A single token with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Tok {
    /// 1-based line number the token starts on.
    pub line: u32,
    /// Token payload.
    pub kind: Kind,
}

/// Token payload: just enough structure for rule matching.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// Identifier or keyword (raw identifiers are stripped of `r#`).
    Ident(String),
    /// Single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
    /// A string literal — plain, raw, byte or raw byte. Contents are
    /// opaque to the rule passes by design.
    Str,
    /// Any other literal — char, byte, number. Contents are opaque too.
    Lit,
}

impl Tok {
    /// True when the token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        matches!(&self.kind, Kind::Ident(s) if s == name)
    }

    /// True when the token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == Kind::Punct(c)
    }

    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            Kind::Ident(s) => Some(s),
            _ => None,
        }
    }
}

/// A `// dasr-lint: ...` control comment.
#[derive(Debug, Clone, PartialEq)]
pub enum Directive {
    /// A `no-alloc` marker: the next `fn` at or below this line must not
    /// allocate, itself or through a callee (rule G2).
    NoAlloc {
        /// Line of the marker comment.
        line: u32,
    },
    /// An `allow(<rules>) reason="..."` waiver for the same or the next
    /// line.
    Allow {
        /// Line of the waiver comment.
        line: u32,
        /// Rule codes or names listed inside `allow(...)`.
        rules: Vec<String>,
        /// The mandatory justification; `None` or empty is itself a
        /// finding (rule W1).
        reason: Option<String>,
    },
    /// An `entry(<rules>)` marker: the next `fn` at or below this line
    /// is a graph-analysis entry point for the listed rules (G1
    /// determinism taint, G3 panic-path audit).
    Entry {
        /// Line of the marker comment.
        line: u32,
        /// Rule codes or names listed inside `entry(...)`.
        rules: Vec<String>,
    },
    /// Anything else after the `dasr-lint:` prefix — malformed, always
    /// reported as W1.
    Unknown {
        /// Line of the malformed directive.
        line: u32,
        /// The unrecognized payload.
        text: String,
    },
}

impl Directive {
    /// The line the directive sits on.
    pub fn line(&self) -> u32 {
        match self {
            Directive::NoAlloc { line }
            | Directive::Allow { line, .. }
            | Directive::Entry { line, .. }
            | Directive::Unknown { line, .. } => *line,
        }
    }
}

/// Scanner output: the token stream plus all control directives found in
/// comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Tok>,
    /// Directives in source order.
    pub directives: Vec<Directive>,
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_cont(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Tokenizes `src`, collecting `dasr-lint:` directives from line
/// comments along the way.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut out = Lexed::default();

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                if let Some(d) = parse_directive(&src[start..i], line) {
                    out.directives.push(d);
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                let mut depth = 1u32;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let l = line;
                skip_string(b, &mut i, &mut line);
                out.tokens.push(Tok {
                    line: l,
                    kind: Kind::Str,
                });
            }
            b'\'' => {
                let l = line;
                if b.get(i + 1) == Some(&b'\\') {
                    // Escaped char literal: '\n', '\'', '\u{1F600}'.
                    i += 3; // past quote, backslash, and escape intro
                    while i < b.len() && b[i] != b'\'' {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i += 1;
                    out.tokens.push(Tok {
                        line: l,
                        kind: Kind::Lit,
                    });
                } else if b.get(i + 2) == Some(&b'\'') && b.get(i + 1) != Some(&b'\'') {
                    // Plain char literal 'x'.
                    i += 3;
                    out.tokens.push(Tok {
                        line: l,
                        kind: Kind::Lit,
                    });
                } else {
                    // Lifetime: consume the label, emit nothing.
                    i += 1;
                    while i < b.len() && is_ident_cont(b[i]) {
                        i += 1;
                    }
                }
            }
            b'0'..=b'9' => {
                let l = line;
                while i < b.len() {
                    match b[i] {
                        b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z' | b'_' => i += 1,
                        // `1.5` is one literal; `0..10` stops at the range.
                        b'.' if b.get(i + 1).is_some_and(u8::is_ascii_digit) => i += 1,
                        _ => break,
                    }
                }
                out.tokens.push(Tok {
                    line: l,
                    kind: Kind::Lit,
                });
            }
            c if is_ident_start(c) => {
                if let Some(next_i) = try_string_prefix(b, i, &mut line) {
                    out.tokens.push(Tok {
                        line,
                        kind: Kind::Str,
                    });
                    i = next_i;
                    continue;
                }
                let mut start = i;
                if c == b'r'
                    && b.get(i + 1) == Some(&b'#')
                    && b.get(i + 2).copied().is_some_and(is_ident_start)
                {
                    // Raw identifier r#type — strip the prefix.
                    start = i + 2;
                    i += 2;
                }
                while i < b.len() && is_ident_cont(b[i]) {
                    i += 1;
                }
                out.tokens.push(Tok {
                    line,
                    kind: Kind::Ident(src[start..i].to_string()),
                });
            }
            _ => {
                if c.is_ascii() {
                    out.tokens.push(Tok {
                        line,
                        kind: Kind::Punct(c as char),
                    });
                }
                i += 1;
            }
        }
    }
    out
}

/// Consumes a string-shaped literal starting with `r`/`b`/`br` at `i`
/// (raw string, byte string, byte char). Returns the index just past the
/// literal, or `None` when `i` starts a plain identifier.
fn try_string_prefix(b: &[u8], i: usize, line: &mut u32) -> Option<usize> {
    let c = b[i];
    if c != b'r' && c != b'b' {
        return None;
    }
    let mut j = i + 1;
    let raw = c == b'r' || (c == b'b' && b.get(j) == Some(&b'r'));
    if c == b'b' && b.get(j) == Some(&b'r') {
        j += 1;
    }
    let mut hashes = 0usize;
    if raw {
        while b.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
    }
    if b.get(j) == Some(&b'"') {
        if raw {
            // Raw string: runs to `"` followed by `hashes` hash marks.
            let mut k = j + 1;
            while k < b.len() {
                if b[k] == b'\n' {
                    *line += 1;
                    k += 1;
                } else if b[k] == b'"' && b[k + 1..].iter().take(hashes).all(|&h| h == b'#') {
                    // Only a full run of hashes terminates the literal.
                    if b[k + 1..].len() >= hashes {
                        return Some(k + 1 + hashes);
                    }
                    k += 1;
                } else {
                    k += 1;
                }
            }
            return Some(b.len());
        }
        // b"..." — ordinary escapes.
        let mut k = j;
        skip_string(b, &mut k, line);
        return Some(k);
    }
    if c == b'b' && b.get(i + 1) == Some(&b'\'') {
        // Byte char literal b'x' / b'\n'.
        let mut k = i + 2;
        if b.get(k) == Some(&b'\\') {
            k += 1;
        }
        k += 1;
        while k < b.len() && b[k] != b'\'' {
            k += 1;
        }
        return Some(k + 1);
    }
    None
}

/// Skips a `"…"` literal; `*i` must point at the opening quote.
fn skip_string(b: &[u8], i: &mut usize, line: &mut u32) {
    *i += 1;
    while *i < b.len() {
        match b[*i] {
            b'\\' => {
                if b.get(*i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                *i += 2;
            }
            b'"' => {
                *i += 1;
                return;
            }
            b'\n' => {
                *line += 1;
                *i += 1;
            }
            _ => *i += 1,
        }
    }
}

/// Parses one line comment into a directive, if it carries the
/// `dasr-lint:` prefix (after stripping the comment slashes).
fn parse_directive(comment: &str, line: u32) -> Option<Directive> {
    let body = comment
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim_start();
    let payload = body.strip_prefix("dasr-lint:")?.trim();
    if payload == "no-alloc" {
        return Some(Directive::NoAlloc { line });
    }
    if let Some(rest) = payload.strip_prefix("entry") {
        let rest = rest.trim_start();
        let rules = rest
            .strip_prefix('(')
            .and_then(|r| r.find(')').map(|close| &r[..close]))
            .map(|inner| {
                inner
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect::<Vec<String>>()
            });
        return match rules {
            Some(rules) if !rules.is_empty() => Some(Directive::Entry { line, rules }),
            _ => Some(Directive::Unknown {
                line,
                text: payload.to_string(),
            }),
        };
    }
    if let Some(rest) = payload.strip_prefix("allow") {
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('(') else {
            return Some(Directive::Unknown {
                line,
                text: payload.to_string(),
            });
        };
        let Some(close) = rest.find(')') else {
            return Some(Directive::Unknown {
                line,
                text: payload.to_string(),
            });
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        let tail = rest[close + 1..].trim();
        let reason = tail.strip_prefix("reason=").and_then(|r| {
            let r = r.trim_start().strip_prefix('"')?;
            let end = r.find('"')?;
            Some(r[..end].to_string())
        });
        return Some(Directive::Allow {
            line,
            rules,
            reason,
        });
    }
    Some(Directive::Unknown {
        line,
        text: payload.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                Kind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_are_invisible() {
        let src = r##"
            // partial_cmp in a comment
            /* Instant::now in /* a nested */ block */
            let s = "thread_rng inside a string";
            let r = r#"SystemTime in a raw "string""#;
            let c = 'x';
            let b = b"bytes";
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"let".to_string()));
        assert!(!ids.iter().any(|s| s.contains("partial_cmp")));
        assert!(!ids.iter().any(|s| s.contains("Instant")));
        assert!(!ids.iter().any(|s| s.contains("thread_rng")));
        assert!(!ids.iter().any(|s| s.contains("SystemTime")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let ids = idents(src);
        assert_eq!(
            ids,
            ["fn", "f", "x", "str", "str", "x"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "/* two\nlines */\nlet x = \"a\nb\";\nInstant";
        let lexed = lex(src);
        let inst = lexed.tokens.iter().find(|t| t.is_ident("Instant")).unwrap();
        assert_eq!(inst.line, 5);
    }

    #[test]
    fn range_vs_float() {
        let src = "for i in 0..10 { let x = 1.5; }";
        let lexed = lex(src);
        let puncts: Vec<char> = lexed
            .tokens
            .iter()
            .filter_map(|t| match t.kind {
                Kind::Punct(c) => Some(c),
                _ => None,
            })
            .collect();
        // The range dots survive as punctuation (not eaten by a float).
        assert!(puncts.windows(2).any(|w| w == ['.', '.']));
    }

    #[test]
    fn directives_parse() {
        let src = "\n// dasr-lint: no-alloc\nfn f() {}\nlet y = 1; // dasr-lint: allow(D2, F1) reason=\"order-independent sum\"\n// dasr-lint: allow(D1)\n// dasr-lint: frobnicate\n";
        let lexed = lex(src);
        assert_eq!(lexed.directives.len(), 4);
        assert_eq!(lexed.directives[0], Directive::NoAlloc { line: 2 });
        assert_eq!(
            lexed.directives[1],
            Directive::Allow {
                line: 4,
                rules: vec!["D2".to_string(), "F1".to_string()],
                reason: Some("order-independent sum".to_string()),
            }
        );
        assert_eq!(
            lexed.directives[2],
            Directive::Allow {
                line: 5,
                rules: vec!["D1".to_string()],
                reason: None,
            }
        );
        assert!(matches!(
            lexed.directives[3],
            Directive::Unknown { line: 6, .. }
        ));
    }

    #[test]
    fn raw_idents_are_stripped() {
        assert_eq!(idents("r#type"), vec!["type".to_string()]);
    }
}
