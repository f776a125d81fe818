//! A hand-rolled Rust lexer.
//!
//! The workspace builds offline against vendored shims, so the analyzer
//! cannot lean on `syn`/`proc-macro2`/rustc — it tokenizes source text
//! itself. The lexer is deliberately small: it distinguishes exactly the
//! classes the lints care about (identifiers, punctuation, the three
//! literal families, comments, lifetimes) and never errors — unknown
//! bytes become punctuation. Comments are *kept* in the stream as their
//! own tokens, so every pass can step over them exactly.

/// One lexical class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (the parser tells them apart contextually).
    Ident(String),
    /// Single punctuation byte (`.`, `:`, `{`, …). Multi-byte operators
    /// arrive as consecutive tokens.
    Punct(char),
    /// String literal (plain, raw, byte, or C-string); text not kept.
    Str,
    /// Char or byte literal.
    Char,
    /// Numeric literal.
    Num,
    /// `// …` comment, text without the slashes, trimmed.
    LineComment(String),
    /// `/* … */` comment (possibly nested), inner text trimmed.
    BlockComment(String),
    /// `'a` lifetime (distinguished from char literals).
    Lifetime,
}

/// A token plus where it starts.
#[derive(Debug, Clone)]
pub struct Token {
    /// Lexical class and payload.
    pub tok: Tok,
    /// Byte offset into the file.
    pub off: usize,
    /// 1-based line number.
    pub line: u32,
}

impl Token {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True when this token is the punctuation byte `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self.tok, Tok::Punct(p) if p == c)
    }

    /// True for line or block comments.
    pub fn is_comment(&self) -> bool {
        matches!(self.tok, Tok::LineComment(_) | Tok::BlockComment(_))
    }
}

/// Tokenize `text`. Never fails: malformed input degrades to punctuation
/// tokens, which at worst makes a lint conservative for that file.
pub fn lex(text: &str) -> Vec<Token> {
    Lexer {
        b: text.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.b.len() {
            let off = self.pos;
            let line = self.line;
            let c = self.b[self.pos];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ if c.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => {
                    let text = self.take_line_comment();
                    self.push(Tok::LineComment(text), off, line);
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    let text = self.take_block_comment();
                    self.push(Tok::BlockComment(text), off, line);
                }
                b'r' | b'b' | b'c' if self.raw_or_byte_string() => {
                    // Consumed inside the probe; classify by shape.
                    let kind = if self.b[off] == b'b' && self.b.get(off + 1) == Some(&b'\'') {
                        Tok::Char
                    } else {
                        Tok::Str
                    };
                    self.push(kind, off, line);
                }
                b'"' => {
                    self.take_string(b'"');
                    self.push(Tok::Str, off, line);
                }
                b'\'' => {
                    if self.lifetime_ahead() {
                        self.pos += 1; // the quote
                        self.take_ident_body();
                        self.push(Tok::Lifetime, off, line);
                    } else {
                        self.take_string(b'\'');
                        self.push(Tok::Char, off, line);
                    }
                }
                _ if c.is_ascii_digit() => {
                    self.take_number();
                    self.push(Tok::Num, off, line);
                }
                _ if c == b'_' || c.is_ascii_alphabetic() || c >= 0x80 => {
                    let s = self.take_ident_body();
                    self.push(Tok::Ident(s), off, line);
                }
                _ => {
                    self.pos += 1;
                    self.push(Tok::Punct(c as char), off, line);
                }
            }
        }
        self.out
    }

    fn push(&mut self, tok: Tok, off: usize, line: u32) {
        self.out.push(Token { tok, off, line });
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.pos + ahead).copied()
    }

    fn take_ident_body(&mut self) -> String {
        let start = self.pos;
        while self.pos < self.b.len() {
            let c = self.b[self.pos];
            if c == b'_' || c.is_ascii_alphanumeric() || c >= 0x80 {
                self.pos += 1;
            } else {
                break;
            }
        }
        String::from_utf8_lossy(&self.b[start..self.pos]).into_owned()
    }

    fn take_number(&mut self) {
        // Digits plus everything that can ride inside a Rust numeric
        // literal (underscores, hex/bin digits, type suffixes, exponents,
        // a fractional dot when followed by a digit).
        while self.pos < self.b.len() {
            let c = self.b[self.pos];
            if c.is_ascii_alphanumeric()
                || c == b'_'
                || (c == b'.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()))
            {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn take_line_comment(&mut self) -> String {
        let start = self.pos + 2;
        while self.pos < self.b.len() && self.b[self.pos] != b'\n' {
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.b[start..self.pos])
            .trim_start_matches(['/', '!'])
            .trim()
            .to_string()
    }

    fn take_block_comment(&mut self) -> String {
        let start = self.pos + 2;
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.b.len() && depth > 0 {
            match self.b[self.pos] {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    depth += 1;
                    self.pos += 2;
                }
                b'*' if self.peek(1) == Some(b'/') => {
                    depth -= 1;
                    self.pos += 2;
                }
                _ => self.pos += 1,
            }
        }
        let end = self.pos.saturating_sub(2).max(start);
        String::from_utf8_lossy(&self.b[start..end])
            .trim_start_matches(['*', '!'])
            .trim()
            .to_string()
    }

    /// `'a` (lifetime) vs `'a'` (char literal): a lifetime is a quote
    /// followed by an identifier start *not* closed by another quote.
    fn lifetime_ahead(&self) -> bool {
        let Some(first) = self.peek(1) else {
            return false;
        };
        if !(first == b'_' || first.is_ascii_alphabetic()) {
            return false;
        }
        // Scan the identifier; a closing quote right after means char
        // literal ('a'), anything else means lifetime ('a).
        let mut i = self.pos + 2;
        while i < self.b.len() && (self.b[i] == b'_' || self.b[i].is_ascii_alphanumeric()) {
            i += 1;
        }
        self.b.get(i) != Some(&b'\'')
    }

    /// Probe for `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'`, `c"…"`.
    /// Consumes and returns true only when one is actually present;
    /// otherwise leaves the position alone (plain identifier).
    fn raw_or_byte_string(&mut self) -> bool {
        let mut i = self.pos;
        // Optional b/c prefix, optional r, then hashes+quote or quote.
        if matches!(self.b[i], b'b' | b'c') {
            i += 1;
        }
        let mut raw = false;
        if self.b.get(i) == Some(&b'r') {
            raw = true;
            i += 1;
        }
        let mut hashes = 0usize;
        while raw && self.b.get(i) == Some(&b'#') {
            hashes += 1;
            i += 1;
        }
        match self.b.get(i) {
            Some(&b'"') => {}
            Some(&b'\'') if !raw && self.b[self.pos] == b'b' => {
                // b'x' byte literal: reuse the char-literal scanner.
                self.pos = i;
                self.take_string(b'\'');
                return true;
            }
            _ => return false,
        }
        if raw {
            // Raw string: runs to `"` followed by `hashes` hashes, no
            // escapes.
            i += 1;
            loop {
                match self.b.get(i) {
                    None => break,
                    Some(b'\n') => {
                        self.line += 1;
                        i += 1;
                    }
                    Some(b'"') => {
                        let mut j = i + 1;
                        let mut seen = 0usize;
                        while seen < hashes && self.b.get(j) == Some(&b'#') {
                            seen += 1;
                            j += 1;
                        }
                        if seen == hashes {
                            i = j;
                            break;
                        }
                        i += 1;
                    }
                    Some(_) => i += 1,
                }
            }
            self.pos = i;
            true
        } else {
            self.pos = i;
            self.take_string(b'"');
            true
        }
    }

    /// Consume a quoted literal starting at the opening quote, honoring
    /// backslash escapes.
    fn take_string(&mut self, quote: u8) {
        self.pos += 1;
        while self.pos < self.b.len() {
            match self.b[self.pos] {
                b'\\' => {
                    // An escaped newline (line continuation) still ends a
                    // source line — without this every token after a
                    // continued string reports one line too early.
                    if self.peek(1) == Some(b'\n') {
                        self.line += 1;
                    }
                    self.pos += 2;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                c if c == quote => {
                    self.pos += 1;
                    return;
                }
                _ => self.pos += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let t = kinds("let x = a.lock();");
        assert_eq!(
            t,
            vec![
                Tok::Ident("let".into()),
                Tok::Ident("x".into()),
                Tok::Punct('='),
                Tok::Ident("a".into()),
                Tok::Punct('.'),
                Tok::Ident("lock".into()),
                Tok::Punct('('),
                Tok::Punct(')'),
                Tok::Punct(';'),
            ]
        );
    }

    #[test]
    fn strings_chars_lifetimes() {
        let t = kinds(r#"f("hi", 'c', 'a, b"x")"#);
        assert!(t.contains(&Tok::Str));
        assert!(t.contains(&Tok::Char));
        assert!(t.contains(&Tok::Lifetime));
    }

    #[test]
    fn string_contents_do_not_tokenize() {
        // `Instant` inside a string must not produce an ident token.
        let t = kinds(r#"let s = "Instant::now()";"#);
        assert!(!t
            .iter()
            .any(|k| matches!(k, Tok::Ident(s) if s == "Instant")));
    }

    #[test]
    fn comments_preserved_with_text() {
        let t = kinds("x; // ORDERING: counter only\n/* block */ y;");
        assert!(t
            .iter()
            .any(|k| matches!(k, Tok::LineComment(s) if s.contains("ORDERING:"))));
        assert!(t
            .iter()
            .any(|k| matches!(k, Tok::BlockComment(s) if s == "block")));
    }

    #[test]
    fn nested_block_comment() {
        let t = kinds("/* a /* b */ c */ x");
        assert_eq!(t.len(), 2);
        assert!(matches!(&t[1], Tok::Ident(s) if s == "x"));
    }

    #[test]
    fn raw_and_byte_strings() {
        let t = kinds(r##"let a = br#"bytes"#; let b = b"raw"; let c = b'z';"##);
        assert_eq!(
            t.iter().filter(|k| matches!(k, Tok::Str)).count(),
            2,
            "{t:?}"
        );
        assert_eq!(t.iter().filter(|k| matches!(k, Tok::Char)).count(), 1);
    }

    #[test]
    fn line_numbers_advance() {
        let toks = lex("a\nb\n  c");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 3);
    }

    #[test]
    fn escaped_newline_in_string_still_counts() {
        // `"a \` + newline continuation: the next code line is line 2,
        // and the token after the string ends up on line 3.
        let toks = lex("let s = \"a \\\n b\";\nx");
        let x = toks.iter().find(|t| t.ident() == Some("x")).unwrap();
        assert_eq!(x.line, 3);
    }

    #[test]
    fn numbers_with_suffixes() {
        let t = kinds("1_000u64 + 0xff + 2.5e3");
        assert_eq!(t.iter().filter(|k| matches!(k, Tok::Num)).count(), 3);
    }
}
