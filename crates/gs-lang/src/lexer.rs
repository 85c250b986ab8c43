//! Shared tokenizer for the Gremlin and Cypher front-ends.
//!
//! `lex` finds one lexeme's kind and byte extent without allocating;
//! [`tokenize`] and the statement-key pass (`crate::template`) both walk
//! text with it, so they split every text identically.

use gs_graph::{GraphError, Result, Value};
use gs_ir::Slot;

/// One token.
#[derive(Clone, Debug, PartialEq)]
pub enum Token {
    /// Identifier or keyword (case preserved; Cypher keywords matched
    /// case-insensitively by the parser).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single- or double-quoted string literal (quotes stripped).
    Str(String),
    /// A `$name` parameter reference.
    Param(String),
    /// A Cypher value literal, bound to its value (the literal path).
    Value(Value),
    /// A Cypher value literal, as a statement template's parameter slot.
    Slot(Slot),
    // punctuation
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Dot,
    Colon,
    Semicolon,
    Plus,
    Minus,
    Star,
    Slash,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    /// `<>` (Cypher not-equals).
    Ne,
    /// `->`
    ArrowRight,
    /// `<-`
    ArrowLeft,
    /// `=~` is unsupported; kept out intentionally.
    Eof,
}

/// What [`lex`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lexeme {
    /// Whitespace or a `//` / `/* */` comment.
    Trivia,
    Ident,
    Int,
    Float,
    /// A quoted string, quotes included.
    Str,
    /// `$name`, the `$` included.
    Param,
    /// Punctuation, one or two bytes (see [`punct`]).
    Punct,
    /// Text no token starts with: an unexpected character, a `$` with no
    /// name, or a string that never closes.
    Bad,
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offset just past the identifier characters starting at `i`.
#[inline(always)]
fn ident_end(src: &str, i: usize) -> usize {
    let b = src.as_bytes();
    let mut j = i;
    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
        j += 1;
    }
    if j < b.len() && !b[j].is_ascii() {
        return src[j..]
            .char_indices()
            .find(|&(_, c)| !is_ident_char(c))
            .map_or(src.len(), |(k, _)| j + k);
    }
    j
}

/// The lexeme starting at byte `i` (a char boundary before the end of
/// `src`) and the byte offset just past it. Inlined: the statement-key
/// pass runs it on every request.
#[inline(always)]
pub(crate) fn lex(src: &str, i: usize) -> (Lexeme, usize) {
    let b = src.as_bytes();
    let at = |k: usize| b.get(k).copied();
    let punct = |n: usize| (Lexeme::Punct, i + n);
    match b[i] {
        b'/' if at(i + 1) == Some(b'/') => {
            let end = src[i..].find('\n').map_or(src.len(), |k| i + k);
            (Lexeme::Trivia, end)
        }
        b'/' if at(i + 1) == Some(b'*') => {
            let end = src[i + 2..].find("*/").map_or(src.len(), |k| i + 2 + k + 2);
            (Lexeme::Trivia, end)
        }
        b'(' => punct(1),
        b')' => punct(1),
        b'[' => punct(1),
        b']' => punct(1),
        b'{' => punct(1),
        b'}' => punct(1),
        b',' => punct(1),
        b'.' => punct(1),
        b':' => punct(1),
        b';' => punct(1),
        b'+' => punct(1),
        b'*' => punct(1),
        b'/' => punct(1),
        b'-' if at(i + 1) == Some(b'>') => punct(2),
        b'-' => punct(1),
        b'<' => match at(i + 1) {
            Some(b'=') => punct(2),
            Some(b'>') => punct(2),
            Some(b'-') => punct(2),
            _ => punct(1),
        },
        b'>' if at(i + 1) == Some(b'=') => punct(2),
        b'>' => punct(1),
        // tolerate `==`
        b'=' if at(i + 1) == Some(b'=') => punct(2),
        b'=' => punct(1),
        b'!' if at(i + 1) == Some(b'=') => punct(2),
        b'$' => match ident_end(src, i + 1) {
            end if end == i + 1 => (Lexeme::Bad, end),
            end => (Lexeme::Param, end),
        },
        quote @ (b'\'' | b'"') => {
            let mut j = i + 1;
            while j < b.len() && b[j] != quote {
                // an escape takes the next byte whatever it is; bytes of a
                // multi-byte char are never a quote
                j += if b[j] == b'\\' && j + 1 < b.len() {
                    2
                } else {
                    1
                };
            }
            if j >= b.len() {
                (Lexeme::Bad, b.len())
            } else {
                (Lexeme::Str, j + 1)
            }
        }
        b' ' | b'\t' | b'\n' | b'\r' => {
            let end = b[i..]
                .iter()
                .position(|&c| !matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
                .map_or(b.len(), |k| i + k);
            (Lexeme::Trivia, end)
        }
        b'a'..=b'z' | b'A'..=b'Z' | b'_' => (Lexeme::Ident, ident_end(src, i)),
        b'0'..=b'9' => {
            let mut j = i;
            let mut float = false;
            while let Some(c) = at(j) {
                // a `.` only belongs to the number if a digit follows
                if c == b'.' && !float && at(j + 1).is_some_and(|d| d.is_ascii_digit()) {
                    float = true;
                } else if !(c.is_ascii_digit() || c == b'_') {
                    break;
                }
                j += 1;
            }
            (if float { Lexeme::Float } else { Lexeme::Int }, j)
        }
        _ => {
            let c = src[i..].chars().next().expect("i is before the end");
            if c.is_whitespace() {
                let end = src[i..]
                    .char_indices()
                    .find(|&(_, c)| !c.is_whitespace())
                    .map_or(src.len(), |(k, _)| i + k);
                (Lexeme::Trivia, end)
            } else if c.is_alphabetic() || c == '_' {
                (Lexeme::Ident, ident_end(src, i))
            } else {
                (Lexeme::Bad, i + c.len_utf8())
            }
        }
    }
}

/// The token of a punctuation lexeme's text.
fn punct(text: &str) -> Token {
    match text {
        "(" => Token::LParen,
        ")" => Token::RParen,
        "[" => Token::LBracket,
        "]" => Token::RBracket,
        "{" => Token::LBrace,
        "}" => Token::RBrace,
        "," => Token::Comma,
        "." => Token::Dot,
        ":" => Token::Colon,
        ";" => Token::Semicolon,
        "+" => Token::Plus,
        "-" => Token::Minus,
        "*" => Token::Star,
        "/" => Token::Slash,
        "<" => Token::Lt,
        "<=" => Token::Le,
        ">" => Token::Gt,
        ">=" => Token::Ge,
        "=" | "==" => Token::Eq,
        "<>" | "!=" => Token::Ne,
        "->" => Token::ArrowRight,
        "<-" => Token::ArrowLeft,
        other => unreachable!("`lex` yields no punctuation `{other}`"),
    }
}

/// Tokenizes an input string. `//`-comments and `/* */` are stripped.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    Ok(spanned_tokens(input)?.into_iter().map(|(t, _)| t).collect())
}

/// Tokenizes an input string, pairing each token with its starting byte
/// offset (the input's length for the final [`Token::Eof`]).
pub(crate) fn spanned_tokens(input: &str) -> Result<Vec<(Token, usize)>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < input.len() {
        let (lexeme, end) = lex(input, i);
        let text = &input[i..end];
        let token =
            match lexeme {
                Lexeme::Trivia => {
                    i = end;
                    continue;
                }
                Lexeme::Ident => Token::Ident(text.to_string()),
                Lexeme::Int | Lexeme::Float => {
                    let digits: String = text.chars().filter(|&c| c != '_').collect();
                    if lexeme == Lexeme::Float {
                        Token::Float(digits.parse().map_err(|_| {
                            GraphError::Query(format!("bad float literal {digits}"))
                        })?)
                    } else {
                        Token::Int(
                            digits.parse().map_err(|_| {
                                GraphError::Query(format!("bad int literal {digits}"))
                            })?,
                        )
                    }
                }
                Lexeme::Str => {
                    let mut s = String::new();
                    let mut chars = text[1..text.len() - 1].chars();
                    while let Some(c) = chars.next() {
                        s.push(if c == '\\' {
                            chars.next().unwrap_or(c)
                        } else {
                            c
                        });
                    }
                    Token::Str(s)
                }
                Lexeme::Param => Token::Param(text[1..].to_string()),
                Lexeme::Punct => punct(text),
                Lexeme::Bad => {
                    let why = match text.as_bytes()[0] {
                        b'$' => "empty parameter name",
                        b'\'' | b'"' => "unterminated string literal",
                        _ => "unexpected character",
                    };
                    return Err(GraphError::Query(format!("{why} `{text}`")));
                }
            };
        out.push((token, i));
        i = end;
    }
    out.push((Token::Eof, input.len()));
    Ok(out)
}

/// Cursor over a token stream with the helpers both parsers use.
pub struct Cursor {
    tokens: Vec<Token>,
    pos: usize,
}

impl Cursor {
    pub fn new(tokens: Vec<Token>) -> Self {
        Self { tokens, pos: 0 }
    }

    pub fn peek(&self) -> &Token {
        self.tokens.get(self.pos).unwrap_or(&Token::Eof)
    }

    pub fn peek2(&self) -> &Token {
        self.tokens.get(self.pos + 1).unwrap_or(&Token::Eof)
    }

    // not an Iterator: yields Token::Eof forever instead of None, which is
    // what the recursive-descent parser wants at end of input
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Token {
        let t = self.peek().clone();
        self.pos += 1;
        t
    }

    pub fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    pub fn expect(&mut self, t: &Token) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(GraphError::Query(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    /// Consumes an identifier (any case).
    pub fn ident(&mut self) -> Result<String> {
        match self.next() {
            Token::Ident(s) => Ok(s),
            other => Err(GraphError::Query(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    /// Matches a case-insensitive keyword without consuming on failure.
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        if let Token::Ident(s) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    /// Whether the next token is the given keyword.
    pub fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    pub fn at_eof(&self) -> bool {
        matches!(self.peek(), Token::Eof)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_cypher_fragment() {
        let toks =
            tokenize("MATCH (v:Account{id:1})-[b:BUY]->(i) WHERE v.x <> 5 RETURN v").unwrap();
        assert!(toks.contains(&Token::Ident("MATCH".into())));
        assert!(toks.contains(&Token::ArrowRight));
        assert!(toks.contains(&Token::Ne));
        assert_eq!(*toks.last().unwrap(), Token::Eof);
    }

    #[test]
    fn numbers_and_strings() {
        let toks = tokenize("1 2.5 'a b' \"c\\\"d\" 1_000").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Int(1),
                Token::Float(2.5),
                Token::Str("a b".into()),
                Token::Str("c\"d".into()),
                Token::Int(1000),
                Token::Eof
            ]
        );
    }

    #[test]
    fn dot_after_int_is_method_call_not_float() {
        // Gremlin: limit(1).count() — the `.` must not glue to the 1
        let toks = tokenize("g.V().limit(1).count()").unwrap();
        assert!(toks.contains(&Token::Int(1)));
        assert!(!toks.iter().any(|t| matches!(t, Token::Float(_))));
    }

    #[test]
    fn comments_stripped() {
        let toks = tokenize("a // line\n b /* block */ c").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("a".into()),
                Token::Ident("b".into()),
                Token::Ident("c".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn params_and_errors() {
        let toks = tokenize("$seeds").unwrap();
        assert_eq!(toks[0], Token::Param("seeds".into()));
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("§").is_err());
    }

    #[test]
    fn cursor_keywords_case_insensitive() {
        let mut c = Cursor::new(tokenize("match RETURN").unwrap());
        assert!(c.eat_kw("MATCH"));
        assert!(c.peek_kw("return"));
    }
}
