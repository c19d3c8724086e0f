//! SQL tokenizer.

use crate::error::{Result, SqlError};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (uppercased check happens in the parser).
    Ident(String),
    /// Double-quoted identifier (exact case, quotes stripped).
    QuotedIdent(String),
    /// Integer literal: its magnitude, since a leading `-` is a token of
    /// its own (so `-9223372036854775808`, `i64::MIN`, has one). The
    /// parser applies the sign and rejects what no `i64` holds.
    Int(u64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string (escapes resolved).
    Str(String),
    /// Punctuation / operator.
    Symbol(Sym),
    /// End of input.
    Eof,
}

/// Operator and punctuation tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sym {
    LParen,
    RParen,
    Comma,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    Dot,
    Semicolon,
}

impl Token {
    /// Whether this token is the given keyword (case-insensitive).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    /// Render for error messages.
    pub fn describe(&self) -> String {
        match self {
            Token::Ident(s) => s.clone(),
            Token::QuotedIdent(s) => format!("\"{s}\""),
            Token::Int(i) => i.to_string(),
            Token::Float(f) => f.to_string(),
            Token::Str(s) => format!("'{s}'"),
            Token::Symbol(s) => format!("{s:?}"),
            Token::Eof => "<end of input>".to_string(),
        }
    }
}

/// Tokenize SQL text.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_ascii_whitespace() => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push(Token::Symbol(Sym::LParen));
                i += 1;
            }
            ')' => {
                out.push(Token::Symbol(Sym::RParen));
                i += 1;
            }
            ',' => {
                out.push(Token::Symbol(Sym::Comma));
                i += 1;
            }
            '*' => {
                out.push(Token::Symbol(Sym::Star));
                i += 1;
            }
            '+' => {
                out.push(Token::Symbol(Sym::Plus));
                i += 1;
            }
            '-' => {
                out.push(Token::Symbol(Sym::Minus));
                i += 1;
            }
            '/' => {
                out.push(Token::Symbol(Sym::Slash));
                i += 1;
            }
            '%' => {
                out.push(Token::Symbol(Sym::Percent));
                i += 1;
            }
            '.' => {
                out.push(Token::Symbol(Sym::Dot));
                i += 1;
            }
            ';' => {
                out.push(Token::Symbol(Sym::Semicolon));
                i += 1;
            }
            '=' => {
                out.push(Token::Symbol(Sym::Eq));
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Symbol(Sym::Le));
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Token::Symbol(Sym::Neq));
                    i += 2;
                } else {
                    out.push(Token::Symbol(Sym::Lt));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Symbol(Sym::Ge));
                    i += 2;
                } else {
                    out.push(Token::Symbol(Sym::Gt));
                    i += 1;
                }
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Token::Symbol(Sym::Neq));
                i += 2;
            }
            '\'' => {
                let (s, next) = read_quoted(input, i, '\'')?;
                out.push(Token::Str(s));
                i = next;
            }
            '"' => {
                let (s, next) = read_quoted(input, i, '"')?;
                out.push(Token::QuotedIdent(s));
                i = next;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes
                        .get(i + 1)
                        .is_some_and(|b| (*b as char).is_ascii_digit())
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &input[start..i];
                if is_float {
                    out.push(Token::Float(text.parse().map_err(|_| SqlError::Lex {
                        message: format!("bad float {text}"),
                        position: start,
                    })?));
                } else {
                    out.push(Token::Int(text.parse().map_err(|_| SqlError::Lex {
                        message: format!("bad integer {text}"),
                        position: start,
                    })?));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Token::Ident(input[start..i].to_string()));
            }
            c => {
                return Err(SqlError::Lex {
                    message: format!("unexpected character {c:?}"),
                    position: i,
                })
            }
        }
    }
    out.push(Token::Eof);
    Ok(out)
}

fn read_quoted(input: &str, start: usize, quote: char) -> Result<(String, usize)> {
    let bytes = input.as_bytes();
    let q = quote as u8;
    let mut out = String::new();
    let mut i = start + 1;
    while i < bytes.len() {
        if bytes[i] == q {
            if bytes.get(i + 1) == Some(&q) {
                out.push(quote);
                i += 2;
            } else {
                return Ok((out, i + 1));
            }
        } else {
            // Preserve UTF-8: find the char at byte i.
            let ch = input[i..].chars().next().unwrap();
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    Err(SqlError::Lex {
        message: "unterminated quoted token".into(),
        position: start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_select() {
        let toks = tokenize("SELECT a, b FROM t WHERE a >= 10").unwrap();
        assert!(toks[0].is_kw("select"));
        assert_eq!(toks[1], Token::Ident("a".into()));
        assert_eq!(toks[2], Token::Symbol(Sym::Comma));
        assert!(toks.contains(&Token::Symbol(Sym::Ge)));
        assert_eq!(*toks.last().unwrap(), Token::Eof);
    }

    #[test]
    fn string_escapes() {
        let toks = tokenize("'it''s'").unwrap();
        assert_eq!(toks[0], Token::Str("it's".into()));
    }

    #[test]
    fn quoted_identifiers() {
        let toks = tokenize("\"party type\"").unwrap();
        assert_eq!(toks[0], Token::QuotedIdent("party type".into()));
    }

    #[test]
    fn numbers() {
        let toks = tokenize("42 3.25 1e3 7.5e-2").unwrap();
        assert_eq!(toks[0], Token::Int(42));
        assert_eq!(toks[1], Token::Float(3.25));
        assert_eq!(toks[2], Token::Float(1000.0));
        assert_eq!(toks[3], Token::Float(0.075));
    }

    #[test]
    fn comparison_operators() {
        let toks = tokenize("< <= > >= = <> !=").unwrap();
        use Sym::*;
        let expected = [Lt, Le, Gt, Ge, Eq, Neq, Neq];
        for (t, e) in toks.iter().zip(expected) {
            assert_eq!(*t, Token::Symbol(e));
        }
    }

    #[test]
    fn comments_skipped() {
        let toks = tokenize("SELECT -- comment\n a").unwrap();
        assert_eq!(toks.len(), 3); // SELECT, a, EOF
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'oops").is_err());
        assert!(tokenize("\"oops").is_err());
    }

    #[test]
    fn unexpected_char_errors() {
        assert!(matches!(tokenize("SELECT #"), Err(SqlError::Lex { .. })));
    }

    #[test]
    fn unicode_in_strings() {
        let toks = tokenize("'héllo'").unwrap();
        assert_eq!(toks[0], Token::Str("héllo".into()));
    }
}
