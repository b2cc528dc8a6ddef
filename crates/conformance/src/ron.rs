//! The hand-rolled RON subset shared by corpus files ([`crate::corpus`])
//! and ablation plans (`wdr_ablate::plan`); no `ron` crate is vendored.
//!
//! The lexer covers identifiers, unsigned integers, floats (including
//! negative numbers), double-quoted strings with `\" \\ \n \t \r` escapes,
//! the punctuation `( ) [ ] { } : ,`, and `//` line comments. Each format
//! builds its fixed-field-order grammar on top with [`Lexer::expect`],
//! [`Lexer::expect_field`] and the typed token readers.

/// A parse failure: what was expected, and the byte offset it failed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// One token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// `[A-Za-z_][A-Za-z0-9_]*`.
    Ident(String),
    /// A non-negative integer literal.
    UInt(u64),
    /// A literal with a fraction, an exponent, or a leading `-`.
    Float(f64),
    /// A double-quoted string, escapes resolved.
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// End of input.
    Eof,
}

/// A byte-offset-tracking tokenizer over one document.
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer positioned at the start of `src`.
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    /// A [`ParseError`] at the current offset.
    pub fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b'/' if self.src.get(self.pos + 1) == Some(&b'/') => {
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn string(&mut self) -> Result<Tok, ParseError> {
        // Opening quote already consumed by the caller.
        let mut out = String::new();
        loop {
            let Some(&c) = self.src.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(Tok::Str(out)),
                b'\\' => {
                    let Some(&esc) = self.src.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        other => return Err(self.err(format!("bad escape '\\{}'", other as char))),
                    }
                }
                other => {
                    // Multi-byte UTF-8 passes through byte by byte; the
                    // source is a &str so the bytes are valid.
                    if other.is_ascii() {
                        out.push(other as char);
                    } else {
                        let start = self.pos - 1;
                        let mut end = self.pos;
                        while end < self.src.len() && (self.src[end] & 0xC0) == 0x80 {
                            end += 1;
                        }
                        out.push_str(std::str::from_utf8(&self.src[start..end]).map_err(|_| {
                            ParseError {
                                message: "invalid UTF-8 in string".into(),
                                offset: start,
                            }
                        })?);
                        self.pos = end;
                    }
                }
            }
        }
    }

    /// Consumes and returns the next token.
    pub fn next_tok(&mut self) -> Result<Tok, ParseError> {
        self.skip_ws();
        let Some(&c) = self.src.get(self.pos) else {
            return Ok(Tok::Eof);
        };
        match c {
            b'(' => {
                self.pos += 1;
                Ok(Tok::LParen)
            }
            b')' => {
                self.pos += 1;
                Ok(Tok::RParen)
            }
            b'[' => {
                self.pos += 1;
                Ok(Tok::LBracket)
            }
            b']' => {
                self.pos += 1;
                Ok(Tok::RBracket)
            }
            b'{' => {
                self.pos += 1;
                Ok(Tok::LBrace)
            }
            b'}' => {
                self.pos += 1;
                Ok(Tok::RBrace)
            }
            b':' => {
                self.pos += 1;
                Ok(Tok::Colon)
            }
            b',' => {
                self.pos += 1;
                Ok(Tok::Comma)
            }
            b'"' => {
                self.pos += 1;
                self.string()
            }
            b'-' | b'0'..=b'9' => {
                let start = self.pos;
                if c == b'-' {
                    self.pos += 1;
                }
                let digits_start = self.pos;
                let mut is_float = false;
                while self.pos < self.src.len() {
                    match self.src[self.pos] {
                        b'0'..=b'9' => self.pos += 1,
                        b'.' | b'e' | b'E' if self.pos > digits_start => {
                            is_float = true;
                            self.pos += 1;
                        }
                        b'-' | b'+' if is_float => self.pos += 1,
                        _ => break,
                    }
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                if !is_float && c != b'-' {
                    text.parse::<u64>()
                        .map(Tok::UInt)
                        .map_err(|e| self.err(format!("bad integer '{text}': {e}")))
                } else {
                    text.parse::<f64>()
                        .map(Tok::Float)
                        .map_err(|e| self.err(format!("bad number '{text}': {e}")))
                }
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let start = self.pos;
                while self
                    .src
                    .get(self.pos)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
                {
                    self.pos += 1;
                }
                Ok(Tok::Ident(
                    std::str::from_utf8(&self.src[start..self.pos])
                        .unwrap()
                        .to_string(),
                ))
            }
            other => Err(self.err(format!("unexpected byte '{}'", other as char))),
        }
    }

    /// The next token, without consuming it.
    pub fn peek(&mut self) -> Result<Tok, ParseError> {
        let save = self.pos;
        let tok = self.next_tok();
        self.pos = save;
        tok
    }

    /// Consumes exactly `want`.
    pub fn expect(&mut self, want: &Tok) -> Result<(), ParseError> {
        let got = self.next_tok()?;
        if &got == want {
            Ok(())
        } else {
            Err(self.err(format!("expected {want:?}, found {got:?}")))
        }
    }

    /// Consumes `name:`.
    pub fn expect_field(&mut self, name: &str) -> Result<(), ParseError> {
        match self.next_tok()? {
            Tok::Ident(id) if id == name => self.expect(&Tok::Colon),
            other => Err(self.err(format!("expected field '{name}', found {other:?}"))),
        }
    }

    /// Consumes an identifier.
    pub fn ident(&mut self) -> Result<String, ParseError> {
        match self.next_tok()? {
            Tok::Ident(id) => Ok(id),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    /// Consumes a non-negative integer.
    pub fn uint(&mut self) -> Result<u64, ParseError> {
        match self.next_tok()? {
            Tok::UInt(v) => Ok(v),
            other => Err(self.err(format!("expected integer, found {other:?}"))),
        }
    }

    /// Consumes a number (integers widen to `f64`).
    pub fn float(&mut self) -> Result<f64, ParseError> {
        match self.next_tok()? {
            Tok::Float(v) => Ok(v),
            Tok::UInt(v) => Ok(v as f64),
            other => Err(self.err(format!("expected number, found {other:?}"))),
        }
    }

    /// Consumes a string literal.
    pub fn string_lit(&mut self) -> Result<String, ParseError> {
        match self.next_tok()? {
            Tok::Str(s) => Ok(s),
            other => Err(self.err(format!("expected string, found {other:?}"))),
        }
    }

    /// Consumes `None` or `Some(<inner>)`.
    pub fn opt<T>(
        &mut self,
        inner: impl FnOnce(&mut Lexer<'a>) -> Result<T, ParseError>,
    ) -> Result<Option<T>, ParseError> {
        match self.next_tok()? {
            Tok::Ident(id) if id == "None" => Ok(None),
            Tok::Ident(id) if id == "Some" => {
                self.expect(&Tok::LParen)?;
                let v = inner(self)?;
                self.expect(&Tok::RParen)?;
                Ok(Some(v))
            }
            other => Err(self.err(format!("expected None/Some, found {other:?}"))),
        }
    }
}
