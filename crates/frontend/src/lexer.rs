//! Lexer for the C subset accepted by the PREM compiler.
//!
//! Tokens borrow the source: an identifier is a slice of it, so lexing
//! allocates nothing but the token vector.

use std::fmt;

/// A token with its source position. Columns count bytes, not characters:
/// a non-ASCII character before a token moves its column by the length of
/// its UTF-8 encoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    /// Token kind and payload.
    pub kind: TokenKind<'a>,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
}

/// Token kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'a> {
    /// Identifier or keyword, as it is spelled in the source.
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// Punctuation / operator.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Int(v) => write!(f, "integer `{v}`"),
            TokenKind::Float(v) => write!(f, "float `{v}`"),
            TokenKind::Punct(p) => write!(f, "`{p}`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// Lexing error.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Message; a rejected character is named as the source spells it.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for LexError {}

/// The punctuation token starting at `rest`, longest match first, or `None`
/// when no token starts with its first byte.
fn punct(rest: &[u8]) -> Option<&'static str> {
    let next = rest.get(1).copied();
    let p = match rest[0] {
        b'<' if rest.starts_with(b"<<=") => "<<=",
        b'>' if rest.starts_with(b">>=") => ">>=",
        b'<' if next == Some(b'=') => "<=",
        b'>' if next == Some(b'=') => ">=",
        b'&' if next == Some(b'&') => "&&",
        b'|' if next == Some(b'|') => "||",
        b'+' if next == Some(b'+') => "++",
        b'-' if next == Some(b'-') => "--",
        b'+' if next == Some(b'=') => "+=",
        b'-' if next == Some(b'=') => "-=",
        b'*' if next == Some(b'=') => "*=",
        b'/' if next == Some(b'=') => "/=",
        b'=' if next == Some(b'=') => "==",
        b'!' if next == Some(b'=') => "!=",
        b'(' => "(",
        b')' => ")",
        b'[' => "[",
        b']' => "]",
        b'{' => "{",
        b'}' => "}",
        b';' => ";",
        b',' => ",",
        b'+' => "+",
        b'-' => "-",
        b'*' => "*",
        b'/' => "/",
        b'%' => "%",
        b'<' => "<",
        b'>' => ">",
        b'=' => "=",
        b'!' => "!",
        _ => return None,
    };
    Some(p)
}

/// The source being lexed and the position of its next byte.
struct Cursor<'a> {
    source: &'a str,
    bytes: &'a [u8],
    i: usize,
    line: usize,
    col: usize,
}

impl Cursor<'_> {
    /// Steps over `n` bytes that hold no newline.
    fn skip(&mut self, n: usize) {
        self.i += n;
        self.col += n;
    }

    /// Steps over the bytes up to `to`, newlines included.
    fn skip_to(&mut self, to: usize) {
        for &b in &self.bytes[self.i..to] {
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        self.i = to;
    }

    /// The end of the run of bytes from the cursor on that satisfy `pred`.
    fn run_end(&self, from: usize, pred: impl Fn(u8) -> bool) -> usize {
        self.bytes[from..]
            .iter()
            .position(|&b| !pred(b))
            .map_or(self.bytes.len(), |n| from + n)
    }

    fn error(&self, message: String) -> LexError {
        LexError {
            message,
            line: self.line,
            col: self.col,
        }
    }
}

/// Tokenizes a source string. Line (`//`) and block (`/* */`) comments are
/// skipped.
///
/// # Errors
///
/// Returns [`LexError`] on an unterminated block comment, a malformed number
/// or a character that starts no token.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, LexError> {
    let mut c = Cursor {
        source,
        bytes: source.as_bytes(),
        i: 0,
        line: 1,
        col: 1,
    };
    // Kernel sources run at about 2.5 bytes per token: one doubling of a
    // quarter of the source length holds them.
    let mut out = Vec::with_capacity(source.len() / 4);
    while let Some(&b) = c.bytes.get(c.i) {
        match b {
            // The ASCII characters `char::is_whitespace` accepts.
            b' ' | b'\t' | b'\r' | 0x0b | 0x0c => c.skip(1),
            b'\n' => {
                c.i += 1;
                c.line += 1;
                c.col = 1;
            }
            b'/' if c.bytes.get(c.i + 1) == Some(&b'/') => {
                let end = c.run_end(c.i, |b| b != b'\n');
                c.skip_to(end);
            }
            b'/' if c.bytes.get(c.i + 1) == Some(&b'*') => {
                let body = c.i + 2;
                match c.source[body..].find("*/") {
                    Some(n) => c.skip_to(body + n + 2),
                    None => {
                        // Stop on the last byte, where the scan for `*/`
                        // runs out.
                        c.skip_to(body.max(c.bytes.len() - 1));
                        return Err(c.error("unterminated block comment".into()));
                    }
                }
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let end = c.run_end(c.i, |b| b.is_ascii_alphanumeric() || b == b'_');
                out.push(Token {
                    kind: TokenKind::Ident(&c.source[c.i..end]),
                    line: c.line,
                    col: c.col,
                });
                c.skip(end - c.i);
            }
            b if b.is_ascii_digit() => {
                let digits = c.run_end(c.i, |b| b.is_ascii_digit());
                let (end, is_float) = if c.bytes.get(digits) == Some(&b'.') {
                    (c.run_end(digits + 1, |b| b.is_ascii_digit()), true)
                } else {
                    (digits, false)
                };
                let text = &c.source[c.i..end];
                let kind = if is_float {
                    TokenKind::Float(
                        text.parse()
                            .map_err(|_| c.error(format!("bad float literal `{text}`")))?,
                    )
                } else {
                    TokenKind::Int(
                        text.parse()
                            .map_err(|_| c.error(format!("bad integer literal `{text}`")))?,
                    )
                };
                out.push(Token {
                    kind,
                    line: c.line,
                    col: c.col,
                });
                // Optional float suffix.
                let suffix = is_float && matches!(c.bytes.get(end), Some(b'f' | b'F'));
                c.skip(end - c.i + usize::from(suffix));
            }
            _ => {
                let Some(p) = punct(&c.bytes[c.i..]) else {
                    // The cursor only ever stops on a character boundary.
                    let ch = c.source.get(c.i..).and_then(|s| s.chars().next());
                    let ch = ch.unwrap_or(char::REPLACEMENT_CHARACTER);
                    return Err(c.error(format!("unexpected character `{ch}`")));
                };
                out.push(Token {
                    kind: TokenKind::Punct(p),
                    line: c.line,
                    col: c.col,
                });
                c.skip(p.len());
            }
        }
    }
    out.push(Token {
        kind: TokenKind::Eof,
        line: c.line,
        col: c.col,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_loop_header() {
        let toks = lex("for (int i = 0; i < 10; i++) {}").unwrap();
        let kinds: Vec<&TokenKind> = toks.iter().map(|t| &t.kind).collect();
        assert!(matches!(kinds[0], TokenKind::Ident(s) if *s == "for"));
        assert!(matches!(kinds[1], TokenKind::Punct("(")));
        assert!(kinds.iter().any(|k| matches!(k, TokenKind::Int(10))));
        assert!(kinds.iter().any(|k| matches!(k, TokenKind::Punct("++"))));
    }

    #[test]
    fn skips_comments() {
        let toks = lex("a /* hi\nthere */ b // end\nc").unwrap();
        let idents: Vec<&str> = toks
            .iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(idents, vec!["a", "b", "c"]);
    }

    #[test]
    fn float_literals() {
        let toks = lex("0.0 2.5f 3").unwrap();
        assert!(matches!(toks[0].kind, TokenKind::Float(v) if v == 0.0));
        assert!(matches!(toks[1].kind, TokenKind::Float(v) if v == 2.5));
        assert!(matches!(toks[2].kind, TokenKind::Int(3)));
    }

    #[test]
    fn tracks_positions() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("a @ b").is_err());
    }

    /// A rejected character is named as the source spells it, at the byte
    /// column where it starts.
    #[test]
    fn names_the_rejected_character() {
        let e = lex("a[i] = 1.0\u{e9};").unwrap_err();
        assert_eq!(e.message, "unexpected character `\u{e9}`");
        assert_eq!((e.line, e.col), (1, 11));
        let e = lex("\u{2206} x").unwrap_err();
        assert_eq!(e.message, "unexpected character `\u{2206}`");
        let toks = lex("/* \u{e9} */ b").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 10));
    }
}
