//! Auto-parameterized Cypher: one plan per statement template.
//!
//! Serving traffic repeats a few statement shapes with different values
//! (`{id: 17}`, `{id: 42}`, ...). [`statement_key`] splits a statement's
//! identity in one allocation-free pass over its text:
//!
//! * the **template key** hashes every byte except the value literals,
//!   and a type tag for each literal's *slot*; statements with equal
//!   template keys compile to one plan;
//! * the **binds digest** hashes the literals' bytes and the structure of
//!   each `$name` value; with the template key it names the rows.
//!
//! A value literal is a number, a string, `true`/`false`/`null`, a list of
//! those, or a `$name` reference (its value comes from the caller's
//! parameters). A unary minus belongs to the number it signs. Numbers
//! after `LIMIT`, words after a `.` (property names), edge brackets
//! (`-[` / `<-[`), comments and identifiers such as `b1` stay in the
//! template key.
//!
//! On a plan miss the parser is handed the literals the pass found, by
//! byte range, as single tokens ([`Token::Slot`] for a template,
//! [`Token::Value`] for the literal path), so the parser and the pass
//! cannot disagree about what a slot is: a slot in a place that takes no
//! value (a label, an alias) fails to parse. Gremlin has no literal slots;
//! its template key hashes the whole text.

use std::collections::HashMap;
use std::ops::Range;

use gs_graph::{GraphError, Result, Value, ValueType};
use gs_ir::Slot;

use crate::frontend::Frontend;
use crate::lexer::{is_ident_char, lex, spanned_tokens, tokenize, Cursor, Lexeme, Token};

/// A statement's identity, split at its value literals.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StatementKey {
    /// Frontend, text without value literals, and each slot's type: equal
    /// keys share one plan.
    pub template: u64,
    /// Bytes of each value literal and structure of each `$name` value:
    /// with the template key, it names one statement's rows.
    pub binds: u64,
}

/// Computes a statement's [`StatementKey`] in one pass over `src`, without
/// allocating. Only `$name` references read `params`; a missing one gets
/// its own slot tag, so the statement misses the plan cache and fails to
/// compile.
pub fn statement_key(
    frontend: Frontend,
    src: &str,
    params: &HashMap<String, Value>,
) -> StatementKey {
    let mut template = Hash64::new();
    template.eat(frontend.name().as_bytes());
    template.byte(SEP);
    let mut binds = Hash64::new();
    match frontend {
        Frontend::Cypher => scan(src, params, &mut template, &mut binds, |_| {}),
        Frontend::Gremlin => template.eat(src.as_bytes()),
    }
    StatementKey {
        template: template.finish(),
        binds: binds.finish(),
    }
}

/// The value of each slot [`statement_key`] finds in `src`, in slot order:
/// what a template's plan binds before it runs (none for Gremlin).
pub fn bind_values(
    frontend: Frontend,
    src: &str,
    params: &HashMap<String, Value>,
) -> Result<Vec<Value>> {
    match frontend {
        Frontend::Cypher => Ok(slots(src, params)?.into_iter().map(|(_, v)| v).collect()),
        Frontend::Gremlin => Ok(Vec::new()),
    }
}

/// Tokens of a Cypher text with each slot's tokens folded into one: its
/// value when `bound`, else a typed [`Slot`].
pub(crate) fn cypher_tokens(
    src: &str,
    params: &HashMap<String, Value>,
    bound: bool,
) -> Result<Vec<Token>> {
    let tokens = spanned_tokens(src)?;
    let mut slots = slots(src, params)?.into_iter().enumerate().peekable();
    let mut out = Vec::with_capacity(tokens.len());
    let mut skip_until = 0;
    for (token, at) in tokens {
        if at < skip_until {
            continue;
        }
        match slots.next_if(|(_, (range, _))| range.start == at) {
            Some((index, (range, value))) => {
                skip_until = range.end;
                out.push(if bound {
                    Token::Value(value)
                } else {
                    Token::Slot(Slot {
                        index,
                        ty: value.value_type(),
                    })
                });
            }
            None => out.push(token),
        }
    }
    Ok(out)
}

/// Byte range and value of each slot, in text order.
fn slots(src: &str, params: &HashMap<String, Value>) -> Result<Vec<(Range<usize>, Value)>> {
    let mut ranges = Vec::new();
    scan(src, params, &mut Hash64::new(), &mut Hash64::new(), |r| {
        ranges.push(r)
    });
    ranges
        .into_iter()
        .map(|r| {
            let mut cur = Cursor::new(tokenize(&src[r.clone()])?);
            let value = read_literal(&mut cur, params)?;
            if !cur.at_eof() {
                return Err(GraphError::Query(format!(
                    "malformed literal `{}`",
                    &src[r]
                )));
            }
            Ok((r, value))
        })
        .collect()
}

/// Reads one literal: the grammar [`literal`] recognises.
fn read_literal(cur: &mut Cursor, params: &HashMap<String, Value>) -> Result<Value> {
    match cur.next() {
        Token::Int(i) => Ok(Value::Int(i)),
        Token::Float(f) => Ok(Value::Float(f)),
        Token::Str(s) => Ok(Value::Str(s)),
        Token::Ident(s) if s.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
        Token::Ident(s) if s.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
        Token::Ident(s) if s.eq_ignore_ascii_case("null") => Ok(Value::Null),
        Token::Param(p) => params
            .get(&p)
            .cloned()
            .ok_or_else(|| GraphError::Query(format!("missing parameter ${p}"))),
        Token::Minus => match cur.next() {
            Token::Int(i) => Ok(Value::Int(-i)),
            Token::Float(f) => Ok(Value::Float(-f)),
            other => Err(GraphError::Query(format!("bad negative literal {other:?}"))),
        },
        Token::LBracket => {
            let mut list = Vec::new();
            if !cur.eat(&Token::RBracket) {
                loop {
                    list.push(read_literal(cur, params)?);
                    if !cur.eat(&Token::Comma) {
                        break;
                    }
                }
                cur.expect(&Token::RBracket)?;
            }
            Ok(Value::List(list))
        }
        other => Err(GraphError::Query(format!(
            "expected literal, found {other:?}"
        ))),
    }
}

// ---------------- the pass ----------------

/// Separates hashed fields; never a byte of UTF-8 text.
const SEP: u8 = 0xff;
/// Slot tag of a `$name` with no value.
const MISSING: u8 = 0xfe;

/// A streaming 64-bit hash that mixes eight bytes at a time (the FxHash
/// step over little-endian words). It hashes the byte stream it is fed,
/// however the stream is split into calls, and is stable across runs and
/// platforms, so keys are reproducible in deterministic benchmarks.
#[derive(Clone, Copy)]
struct Hash64 {
    h: u64,
    /// Bytes fed since the last full word, little-endian.
    word: u64,
    len: u32,
}

impl Hash64 {
    fn new() -> Self {
        Hash64 {
            h: 0,
            word: 0,
            len: 0,
        }
    }

    fn mix(&mut self, w: u64) {
        self.h = (self.h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn byte(&mut self, b: u8) {
        self.word |= (b as u64) << (8 * self.len);
        self.len += 1;
        if self.len == 8 {
            self.align();
        }
    }

    fn eat(&mut self, mut bytes: &[u8]) {
        while self.len != 0 && !bytes.is_empty() {
            self.byte(bytes[0]);
            bytes = &bytes[1..];
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("chunks of 8")));
        }
        words.remainder().iter().for_each(|&b| self.byte(b));
    }

    /// Eight bytes, mixed at once when the stream is at a word boundary.
    #[inline]
    fn u64(&mut self, n: u64) {
        if self.len == 0 {
            self.mix(n);
        } else {
            self.eat(&n.to_le_bytes());
        }
    }

    /// Feeds zero bytes up to the next word boundary, so the words after
    /// it mix whole.
    #[inline]
    fn align(&mut self) {
        if self.len != 0 {
            self.mix(self.word);
            self.word = 0;
            self.len = 0;
        }
    }

    fn finish(self) -> u64 {
        let mut f = self;
        f.mix(self.word);
        f.mix(self.len as u64);
        f.h
    }

    /// A literal from the text: source, type, sign and bytes.
    fn literal(&mut self, ty: ValueType, negative: bool, bytes: &[u8]) {
        self.byte(b'L');
        self.byte(ty as u8);
        if negative {
            self.byte(b'-');
        }
        self.eat(bytes);
        self.byte(SEP);
    }

    /// A parameter value: type tag and canonical bytes, length-prefixed
    /// where variable, so distinct values never hash the same bytes. Fed
    /// word-aligned (see [`Hash64::u64`]), each word mixes whole.
    fn value(&mut self, v: &Value) {
        self.align();
        self.u64(v.value_type() as u64);
        match v {
            Value::Null => {}
            Value::Bool(b) => self.u64(*b as u64),
            Value::Int(i) | Value::Date(i) => self.u64(*i as u64),
            Value::Float(f) => self.u64(f.to_bits()),
            Value::Str(s) => {
                self.u64(s.len() as u64);
                self.eat(s.as_bytes());
            }
            Value::List(items) => {
                self.u64(items.len() as u64);
                items.iter().for_each(|x| self.value(x));
            }
            Value::Vertex(v, l) => {
                self.u64(v.0);
                self.u64(l.0 as u64);
            }
            Value::Edge(e, l, s, d) => {
                for n in [e.0, l.0 as u64, s.0, d.0] {
                    self.u64(n);
                }
            }
            Value::Path(vs) => {
                self.u64(vs.len() as u64);
                vs.iter().for_each(|v| self.u64(v.0));
            }
        }
    }
}

/// What the previous non-trivia lexeme lets come next.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Prev {
    /// An operator, opening bracket or keyword: a value may follow, and a
    /// `-` is a sign.
    Operator,
    /// A value, identifier or closing bracket: a `-` is binary.
    Value,
    /// A `.`: the word after it is a property name.
    Dot,
    /// `LIMIT`: the count after it shapes the plan.
    Limit,
    /// A `-` or `<-`: a `[` after it opens an edge, not a list.
    Edge,
    /// An identifier at this byte range, classified only when a `-` or a
    /// number follows it.
    Word(usize, usize),
}

impl Prev {
    /// This state with a word resolved to what it lets come next.
    fn settle(self, src: &str) -> Prev {
        match self {
            Prev::Word(start, end) => match word(&src.as_bytes()[start..end]) {
                Word::Keyword => Prev::Operator,
                Word::Limit => Prev::Limit,
                Word::Value(_) | Word::Name => Prev::Value,
            },
            other => other,
        }
    }
}

const fn byte_set(bytes: &[u8]) -> [bool; 256] {
    let mut set = [false; 256];
    let mut k = 0;
    while k < bytes.len() {
        set[bytes[k] as usize] = true;
        k += 1;
    }
    set
}

/// Bytes that may open a literal (`'`, `"`, `$`, `-`, `[`) or a comment
/// (`/`) wherever they stand.
static STOP: [bool; 256] = byte_set(b"'\"$-[/");
/// [`STOP`] bytes, and the bytes that may open a literal at the start of a
/// word: digits and the first letters of `true`, `false` and `null`.
static CANDIDATE: [bool; 256] = byte_set(b"'\"$-[/0123456789tfnTFN");
/// ASCII identifier bytes.
static WORD: [bool; 256] =
    byte_set(b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_");

/// The char that ends at byte `p` (a char boundary after the start) and
/// where it starts.
fn char_before(src: &str, p: usize) -> (char, usize) {
    let mut k = p - 1;
    while !src.is_char_boundary(k) {
        k -= 1;
    }
    (src[k..p].chars().next().expect("a char ends at p"), k)
}

/// Whether the identifier char before byte `p` continues a word.
fn after_word_char(src: &str, p: usize) -> bool {
    p > 0 && {
        let c = src.as_bytes()[p - 1];
        WORD[c as usize] || (!c.is_ascii() && is_ident_char(char_before(src, p).0))
    }
}

/// What the text before byte `p` lets come at `p`. The text `q..p` holds
/// no comment, string or literal, so its last lexeme is read backwards
/// from `p`; if it is blank, `prev` (the state at `q`) holds.
fn context(src: &str, q: usize, prev: Prev, mut p: usize) -> Prev {
    let b = src.as_bytes();
    while p > q {
        let c = b[p - 1];
        if c.is_ascii() {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\x0b' | b'\x0c' | b'\r') {
                p -= 1;
                continue;
            }
            if !WORD[c as usize] {
                return match c {
                    b')' | b']' | b'}' => Prev::Value,
                    b'.' => Prev::Dot,
                    b'-' => Prev::Edge,
                    _ => Prev::Operator,
                };
            }
        } else {
            let (ch, k) = char_before(src, p);
            if ch.is_whitespace() {
                p = k;
                continue;
            }
            if !is_ident_char(ch) {
                return Prev::Operator;
            }
        }
        let mut start = p;
        while start > q && after_word_char(src, start) {
            start -= 1;
            while !src.is_char_boundary(start) {
                start -= 1;
            }
        }
        return Prev::Word(start, p);
    }
    prev
}

/// What a word is to the pass.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Word {
    /// A grammar keyword after which a value may follow.
    Keyword,
    Limit,
    /// `true`, `false` or `null`, any case.
    Value(ValueType),
    /// An alias, label, property or function name.
    Name,
}

const fn pack(word: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    let mut k = 0;
    while k < word.len() {
        bytes[k] = word[k];
        k += 1;
    }
    u64::from_le_bytes(bytes)
}

/// Classifies a word, any case, without allocating: its bytes with bit 5
/// cleared (upper case, for letters) are packed little-endian into a
/// `u64` and compared with the packed upper-case words.
fn word(text: &[u8]) -> Word {
    const MATCH: u64 = pack(b"MATCH");
    const WHERE: u64 = pack(b"WHERE");
    const WITH: u64 = pack(b"WITH");
    const RETURN: u64 = pack(b"RETURN");
    const DISTINCT: u64 = pack(b"DISTINCT");
    const ORDER: u64 = pack(b"ORDER");
    const BY: u64 = pack(b"BY");
    const ASC: u64 = pack(b"ASC");
    const DESC: u64 = pack(b"DESC");
    const AND: u64 = pack(b"AND");
    const OR: u64 = pack(b"OR");
    const NOT: u64 = pack(b"NOT");
    const IN: u64 = pack(b"IN");
    const AS: u64 = pack(b"AS");
    const LIMIT: u64 = pack(b"LIMIT");
    const TRUE: u64 = pack(b"TRUE");
    const FALSE: u64 = pack(b"FALSE");
    const NULL: u64 = pack(b"NULL");
    if text.len() > 8 {
        return Word::Name;
    }
    // digits and `_` lose bit 5 too, but never become letters
    let key = text
        .iter()
        .enumerate()
        .fold(0, |k, (n, &c)| k | ((c & !0x20) as u64) << (8 * n));
    match key {
        MATCH | WHERE | WITH | RETURN | DISTINCT | ORDER | BY | ASC | DESC | AND | OR | NOT
        | IN | AS => Word::Keyword,
        LIMIT => Word::Limit,
        TRUE | FALSE => Word::Value(ValueType::Bool),
        NULL => Word::Value(ValueType::Null),
        _ => Word::Name,
    }
}

/// The pass: hashes `src` into `template` and `binds` and reports each
/// slot's byte range to `on_slot`.
///
/// It skips to the bytes that may open a literal or a comment and reads
/// the text before such a byte only when the literal depends on it (a sign
/// after an operator, a count after `LIMIT`, a list after an edge's `-`, a
/// word after a `.`): a mispredicted branch per lexeme would cost more
/// than hashing the text.
fn scan(
    src: &str,
    params: &HashMap<String, Value>,
    template: &mut Hash64,
    binds: &mut Hash64,
    mut on_slot: impl FnMut(Range<usize>),
) {
    let b = src.as_bytes();
    // the state after the last slot or comment, which ends at `q`
    let (mut q, mut prev) = (0, Prev::Operator);
    let mut hashed = 0;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if !CANDIDATE[c as usize] || (!STOP[c as usize] && after_word_char(src, i)) {
            i += 1;
            continue;
        }
        let (lexeme, end) = lex(src, i);
        let may_be_value = match lexeme {
            Lexeme::Trivia => {
                prev = context(src, q, prev, i);
                q = end;
                false
            }
            Lexeme::Int | Lexeme::Float => context(src, q, prev, i).settle(src) != Prev::Limit,
            Lexeme::Str | Lexeme::Param => true,
            // only `true`, `false` and `null` are values, never after a `.`
            Lexeme::Ident => {
                matches!(word(&b[i..end]), Word::Value(_)) && context(src, q, prev, i) != Prev::Dot
            }
            // a sign (not `->`, not the `-` of `<-`) after an operator
            Lexeme::Punct if c == b'-' => {
                end == i + 1
                    && (i == 0 || b[i - 1] != b'<')
                    && matches!(
                        context(src, q, prev, i).settle(src),
                        Prev::Operator | Prev::Edge
                    )
            }
            Lexeme::Punct if c == b'[' => context(src, q, prev, i) != Prev::Edge,
            Lexeme::Punct | Lexeme::Bad => false,
        };
        let mut lit = *binds;
        let slot = may_be_value
            .then(|| literal(src, i, (lexeme, end), params, &mut lit))
            .flatten();
        let Some((slot_end, tag)) = slot else {
            i = end;
            continue;
        };
        *binds = lit;
        template.eat(&b[hashed..i]);
        template.byte(SEP);
        template.byte(tag);
        on_slot(i..slot_end);
        hashed = slot_end;
        (q, prev) = (slot_end, Prev::Value);
        i = slot_end;
    }
    template.eat(&b[hashed..]);
}

/// Offset of the first non-trivia byte at or after `i`.
fn skip_trivia(src: &str, mut i: usize) -> usize {
    while i < src.len() {
        match lex(src, i) {
            (Lexeme::Trivia, end) => i = end,
            _ => break,
        }
    }
    i
}

/// The literal starting at `i` with the lexeme `(lexeme, end)`, hashed
/// into `h`: its end and slot tag, or `None` when no literal starts there.
/// This is the grammar [`read_literal`] reads.
fn literal(
    src: &str,
    i: usize,
    (lexeme, end): (Lexeme, usize),
    params: &HashMap<String, Value>,
    h: &mut Hash64,
) -> Option<(usize, u8)> {
    let text = &src[i..end];
    let scalar = |h: &mut Hash64, ty: ValueType, negative: bool, bytes: &[u8]| {
        h.literal(ty, negative, bytes);
        (end, ty as u8)
    };
    match lexeme {
        Lexeme::Int => Some(scalar(h, ValueType::Int, false, text.as_bytes())),
        Lexeme::Float => Some(scalar(h, ValueType::Float, false, text.as_bytes())),
        Lexeme::Str => Some(scalar(
            h,
            ValueType::Str,
            false,
            &text.as_bytes()[1..text.len() - 1],
        )),
        Lexeme::Ident => match word(text.as_bytes()) {
            Word::Value(ty) => {
                let canonical = text.as_bytes()[0].to_ascii_lowercase();
                Some(scalar(h, ty, false, &[canonical]))
            }
            _ => None,
        },
        Lexeme::Param => {
            h.byte(b'P');
            Some(match params.get(&text[1..]) {
                Some(v) => {
                    h.value(v);
                    (end, v.value_type() as u8)
                }
                None => (end, MISSING),
            })
        }
        Lexeme::Punct if text == "-" => {
            let j = skip_trivia(src, end);
            let (ty, num_end) = match lex_at(src, j) {
                (Lexeme::Int, e) => (ValueType::Int, e),
                (Lexeme::Float, e) => (ValueType::Float, e),
                _ => return None,
            };
            h.literal(ty, true, &src.as_bytes()[j..num_end]);
            Some((num_end, ty as u8))
        }
        Lexeme::Punct if text == "[" => {
            h.byte(b'[');
            let mut j = skip_trivia(src, end);
            let mut next = lex_at(src, j);
            if &src[j..next.1] == "]" {
                h.byte(b']');
                return Some((next.1, ValueType::List as u8));
            }
            loop {
                let (elem_end, _) = literal(src, j, next, params, h)?;
                j = skip_trivia(src, elem_end);
                let (after, e) = lex_at(src, j);
                match (after, &src[j..e]) {
                    (Lexeme::Punct, ",") => j = skip_trivia(src, e),
                    (Lexeme::Punct, "]") => {
                        h.byte(b']');
                        return Some((e, ValueType::List as u8));
                    }
                    _ => return None,
                }
                next = lex_at(src, j);
            }
        }
        _ => None,
    }
}

/// [`lex`] that reads the end of the text as an invalid lexeme.
fn lex_at(src: &str, i: usize) -> (Lexeme, usize) {
    if i < src.len() {
        lex(src, i)
    } else {
        (Lexeme::Bad, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The text of each slot the pass finds.
    fn slot_texts(src: &str) -> Vec<&str> {
        let params = HashMap::from([("s".to_string(), Value::Int(1))]);
        let mut out = Vec::new();
        scan(src, &params, &mut Hash64::new(), &mut Hash64::new(), |r| {
            out.push(&src[r])
        });
        out
    }

    #[test]
    fn slots_are_the_value_literals() {
        assert_eq!(
            slot_texts(
                "MATCH (v:A {id: 7})-[b1:B]->(:C)<-[b2:B]-(s) \
                 WHERE s.id IN $s AND b1.d - b2.d < 5 AND x IN [1, -2, 'a'] \
                 WITH v, COUNT(s) AS cnt1 WHERE 2 * cnt1 > - 3.5 \
                 RETURN v, true AS t, NULL AS n ORDER BY v LIMIT 10"
            ),
            ["7", "$s", "5", "[1, -2, 'a']", "2", "- 3.5", "true", "NULL"]
        );
        // comments, strings, property names and numbers after LIMIT
        assert_eq!(
            slot_texts("RETURN 'a // 1' /* 2 */ // 3\n, x.true, 4 LIMIT 5"),
            ["'a // 1'", "4"]
        );
        // a bracket that holds no list literal is template text
        assert_eq!(slot_texts("RETURN [a, 1]"), ["1"]);
    }

    #[test]
    fn binds_digest_is_per_value_and_template_per_type() {
        let key = |src: &str, v: Value| {
            statement_key(
                Frontend::Cypher,
                src,
                &HashMap::from([("p".to_string(), v)]),
            )
        };
        let q = "RETURN $p AS x";
        // equal as text, different as values
        let pairs = [
            (Value::Int(1), Value::Str("1".into())),
            (Value::Null, Value::Str("null".into())),
            (
                Value::List(vec![Value::Int(1), Value::Int(2)]),
                Value::Str("[1, 2]".into()),
            ),
        ];
        for (a, b) in pairs {
            assert_ne!(key(q, a.clone()).template, key(q, b.clone()).template);
        }
        let (one, two) = (key(q, Value::Int(1)), key(q, Value::Int(2)));
        assert_eq!(one.template, two.template);
        assert_ne!(one.binds, two.binds);
        // list values are hashed by structure, not by their rendering
        let nested = key(q, Value::List(vec![Value::List(vec![]), Value::Int(1)]));
        let flat = key(q, Value::List(vec![Value::Int(1), Value::List(vec![])]));
        assert_ne!(nested.binds, flat.binds);
    }
}
