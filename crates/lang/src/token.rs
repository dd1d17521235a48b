//! Tokens and the lexer.

#![forbid(unsafe_code)]

use std::sync::Arc;

use crate::diag::{Diag, Phase, Pos, Result};
use crate::fo::BinOp;
use crate::sym::{Interner, Names, Sym};

macro_rules! puncts {
    ($($variant:ident = $lexeme:literal,)*) => {
        /// Punctuation and operators.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)] // each is the lexeme `as_str` spells
        pub enum Punct { $($variant,)* }

        impl Punct {
            /// Every token with its lexeme, in declaration order.
            const ALL: &'static [(Punct, &'static str)] = &[$((Punct::$variant, $lexeme),)*];
        }
    };
}

// Two-character lexemes first: the lexer takes the first that matches.
puncts! {
    EqEq = "==", Ne = "!=", Le = "<=", Ge = ">=", AndAnd = "&&", OrOr = "||", Arrow = "->",
    PlusEq = "+=", MinusEq = "-=", ColonColon = "::",
    LParen = "(", RParen = ")", LBrace = "{", RBrace = "}", LBracket = "[", RBracket = "]",
    Lt = "<", Gt = ">", Comma = ",", Semi = ";", Plus = "+", Minus = "-", Star = "*",
    Slash = "/", Percent = "%", Assign = "=", Bang = "!", Dot = ".", Amp = "&", Pipe = "|",
}

impl Punct {
    /// The lexeme.
    pub fn as_str(self) -> &'static str {
        Punct::ALL[self as usize].1
    }

    /// The token `bytes` starts with, if any.
    fn at(bytes: &[u8]) -> Option<Punct> {
        Punct::ALL.iter().find(|(_, lexeme)| bytes.starts_with(lexeme.as_bytes())).map(|(p, _)| *p)
    }

    /// The binary operator this token spells, if any.
    pub fn binop(self) -> Option<BinOp> {
        Some(match self {
            Punct::Plus => BinOp::Add,
            Punct::Minus => BinOp::Sub,
            Punct::Star => BinOp::Mul,
            Punct::Slash => BinOp::Div,
            Punct::Percent => BinOp::Rem,
            Punct::EqEq => BinOp::Eq,
            Punct::Ne => BinOp::Ne,
            Punct::Lt => BinOp::Lt,
            Punct::Le => BinOp::Le,
            Punct::Gt => BinOp::Gt,
            Punct::Ge => BinOp::Ge,
            Punct::AndAnd => BinOp::And,
            Punct::OrOr => BinOp::Or,
            _ => return None,
        })
    }
}

/// One lexical token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(Sym),
    /// Type variable `$t`.
    TypeVar(Sym),
    /// Integer literal.
    Int(Slot),
    /// Float literal.
    Float(Slot),
    /// Punctuation / operator.
    Punct(Punct),
    /// End of input.
    Eof,
}

impl Tok {
    /// Render for error messages: a diagnostic's text is the one place
    /// before the back end that quotes a literal's value.
    pub fn describe(&self, names: &Names, lits: &Lits) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{}`", names.get(*s)),
            Tok::TypeVar(s) => format!("type variable `${}`", names.get(*s)),
            Tok::Int(s) => format!("integer `{}`", lits.int(*s)),
            Tok::Float(s) => format!("float `{}`", lits.float(*s)),
            Tok::Punct(p) => format!("`{}`", p.as_str()),
            Tok::Eof => "end of input".into(),
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// Where it starts.
    pub pos: Pos,
}

/// A literal's slot: its ordinal among the literal tokens of its
/// source. The syntax tree and the first-order program carry slots;
/// only the back end reads the value behind one, in [`Lits`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot(pub(crate) u32);

/// The values of a program's literals, by [`Slot`]: the bits of an
/// `int` or of a `float`, as the slot's token or node says. One table
/// per program, made by the lexer and shared (not copied) by the syntax
/// tree, the checker and the first-order program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Lits(Arc<[u64]>);

impl Lits {
    /// The value of an integer literal.
    pub fn int(&self, slot: Slot) -> i64 {
        self.0[slot.0 as usize] as i64
    }

    /// The value of a float literal.
    pub fn float(&self, slot: Slot) -> f64 {
        f64::from_bits(self.0[slot.0 as usize])
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the program has no literal.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// A table of integers, for tests that build programs by hand.
    #[cfg(test)]
    pub(crate) fn ints(values: &[i64]) -> Lits {
        Lits(values.iter().map(|&v| v as u64).collect())
    }

    /// Heap bytes held: the values and the shared count.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.0) + 2 * std::mem::size_of::<usize>()
    }
}

/// What stands in for each character of an `int` / a `float` literal in
/// a [`Lexed::shape`]: characters the lexer rejects outside a comment,
/// so two sources that lex share a shape only if they lex to the same
/// tokens but for their literals' values.
const INT_MASK: char = '#';
const FLOAT_MASK: char = '~';

/// A lexed source: the parser's input.
#[derive(Debug)]
pub struct Lexed {
    /// The tokens, [`Tok::Eof`] last.
    pub toks: Vec<Spanned>,
    /// The identifiers the tokens refer to.
    pub syms: Interner,
    /// The literals' values.
    pub lits: Lits,
}

impl Lexed {
    /// Tokenize Skil source text.
    pub fn new(src: &str) -> Result<Lexed> {
        let mut syms = Interner::new();
        let mut lits = Vec::new();
        let toks = lex_into(src, &mut syms, &mut lits)?;
        Ok(Lexed { toks, syms, lits: Lits(lits.into()) })
    }

    /// The shape of `src`, which these tokens were lexed from: the text
    /// with each character of a literal masked by its kind. The front
    /// end reads no literal's value, so two sources of one shape
    /// compile to one program but for its [`Lits`]. (A literal keeps
    /// its length, so every position a diagnostic names stays put.)
    pub fn shape(&self, src: &str) -> String {
        let bytes = src.as_bytes();
        let mut key = String::with_capacity(src.len());
        // `line_start` is where line `line` begins; `copied` is how much
        // of `src` is in `key`
        let (mut line, mut line_start, mut copied) = (1, 0, 0);
        for t in &self.toks {
            let mask = match t.tok {
                Tok::Int(_) => INT_MASK,
                Tok::Float(_) => FLOAT_MASK,
                _ => continue,
            };
            while line < t.pos.line {
                line_start +=
                    bytes[line_start..].iter().position(|&b| b == b'\n').expect("a line") + 1;
                line += 1;
            }
            let start = line_start + t.pos.col as usize - 1;
            let (end, _) = number_end(bytes, start);
            key.push_str(&src[copied..start]);
            key.extend(std::iter::repeat_n(mask, end - start));
            copied = end;
        }
        key.push_str(&src[copied..]);
        key
    }
}

/// Tokenize Skil source text with symbol and literal tables of its own
/// (both are dropped; [`Lexed::new`] keeps them).
pub fn lex(src: &str) -> Result<Vec<Spanned>> {
    Lexed::new(src).map(|lexed| lexed.toks)
}

/// Where the number starting at `bytes[i]` ends, and whether it is a
/// float (a fraction or an exponent).
fn number_end(bytes: &[u8], i: usize) -> (usize, bool) {
    let digits = |mut j: usize| {
        while j < bytes.len() && bytes[j].is_ascii_digit() {
            j += 1;
        }
        j
    };
    let mut j = digits(i);
    let mut is_float = false;
    if j + 1 < bytes.len() && bytes[j] == b'.' && bytes[j + 1].is_ascii_digit() {
        is_float = true;
        j = digits(j + 1);
    }
    // exponent
    if j < bytes.len() && (bytes[j] == b'e' || bytes[j] == b'E') {
        let mut k = j + 1;
        if k < bytes.len() && (bytes[k] == b'+' || bytes[k] == b'-') {
            k += 1;
        }
        if k < bytes.len() && bytes[k].is_ascii_digit() {
            is_float = true;
            j = digits(k);
        }
    }
    (j, is_float)
}

/// Tokenize Skil source text, interning identifiers into `syms` and
/// appending each literal's value to `lits`.
fn lex_into(src: &str, syms: &mut Interner, lits: &mut Vec<u64>) -> Result<Vec<Spanned>> {
    let bytes = src.as_bytes();
    // one allocation: a token is rarely shorter than two bytes
    let mut out = Vec::with_capacity(bytes.len() / 2 + 1);
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    let pos = |line: u32, col: u32| Pos { line, col };

    while i < bytes.len() {
        // reject non-ASCII input up front (Skil is an ASCII language);
        // this also keeps every slice below on a char boundary
        if bytes[i] >= 0x80 {
            let ch = src[i..].chars().next().unwrap_or('\u{FFFD}');
            return Err(Diag::new(
                Phase::Lex,
                pos(line, col),
                format!("unexpected non-ASCII character `{ch}`"),
            ));
        }
        let c = bytes[i] as char;
        // whitespace
        if c == '\n' {
            line += 1;
            col = 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            col += 1;
            continue;
        }
        // comments
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let start = pos(line, col);
            i += 2;
            col += 2;
            loop {
                if i + 1 >= bytes.len() {
                    return Err(Diag::new(Phase::Lex, start, "unterminated block comment"));
                }
                if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                    i += 2;
                    col += 2;
                    break;
                }
                if bytes[i] == b'\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
                i += 1;
            }
            continue;
        }
        let start = pos(line, col);
        // type variable
        if c == '$' {
            let mut j = i + 1;
            while j < bytes.len()
                && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
            {
                j += 1;
            }
            if j == i + 1 {
                return Err(Diag::new(Phase::Lex, start, "`$` must begin a type variable"));
            }
            let name = syms.intern(&src[i + 1..j]);
            col += (j - i) as u32;
            i = j;
            out.push(Spanned { tok: Tok::TypeVar(name), pos: start });
            continue;
        }
        // identifier / keyword
        if c.is_ascii_alphabetic() || c == '_' {
            let mut j = i;
            while j < bytes.len()
                && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
            {
                j += 1;
            }
            let name = syms.intern(&src[i..j]);
            col += (j - i) as u32;
            i = j;
            out.push(Spanned { tok: Tok::Ident(name), pos: start });
            continue;
        }
        // number
        if c.is_ascii_digit() {
            let (j, is_float) = number_end(bytes, i);
            let text = &src[i..j];
            let bits = if is_float {
                text.parse::<f64>()
                    .map_err(|_| {
                        Diag::new(Phase::Lex, start, format!("bad float literal `{text}`"))
                    })?
                    .to_bits()
            } else {
                text.parse::<i64>().map_err(|_| {
                    Diag::new(Phase::Lex, start, format!("integer literal `{text}` overflows"))
                })? as u64
            };
            let slot = Slot(u32::try_from(lits.len()).expect("slots fit 32 bits"));
            lits.push(bits);
            col += (j - i) as u32;
            i = j;
            out.push(Spanned {
                tok: if is_float { Tok::Float(slot) } else { Tok::Int(slot) },
                pos: start,
            });
            continue;
        }
        if let Some(p) = Punct::at(&bytes[i..]) {
            let len = p.as_str().len();
            i += len;
            col += len as u32;
            out.push(Spanned { tok: Tok::Punct(p), pos: start });
            continue;
        }
        return Err(Diag::new(Phase::Lex, start, format!("unexpected character `{c}`")));
    }
    out.push(Spanned { tok: Tok::Eof, pos: pos(line, col) });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tokens rendered back to text, identifiers by their spelling.
    fn toks(src: &str) -> Vec<String> {
        let Lexed { toks, syms, lits } = Lexed::new(src).unwrap();
        toks.iter()
            .map(|s| match s.tok {
                Tok::Ident(n) => syms.get(n).to_string(),
                Tok::TypeVar(n) => format!("${}", syms.get(n)),
                Tok::Int(v) => format!("{}", lits.int(v)),
                Tok::Float(v) => format!("{:?}", lits.float(v)),
                Tok::Punct(p) => p.as_str().to_string(),
                Tok::Eof => "<eof>".to_string(),
            })
            .collect()
    }

    #[test]
    fn lexes_basic_program() {
        assert_eq!(
            toks("int f(int x) { return x + 1; }"),
            ["int", "f", "(", "int", "x", ")", "{", "return", "x", "+", "1", ";", "}", "<eof>"]
        );
    }

    #[test]
    fn identifiers_are_interned_once() {
        let t = lex("int f(int x) { return x; }").unwrap();
        assert_eq!(t[0].tok, Tok::Ident(Sym::INT));
        assert_eq!(t[0].tok, t[3].tok);
        assert_eq!(t[4].tok, t[8].tok, "both `x`");
        assert_ne!(t[1].tok, t[4].tok);
    }

    #[test]
    fn lexes_type_vars_and_pardata() {
        assert_eq!(
            toks("pardata array <$t> ;"),
            ["pardata", "array", "<", "$t", ">", ";", "<eof>"]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(toks("42")[0], "42");
        assert_eq!(toks("3.25")[0], "3.25");
        assert_eq!(toks("1e3")[0], "1000.0");
        assert_eq!(toks("2.5e-1")[0], "0.25");
        // `1.` is Int then Punct (field access style), not a float
        assert_eq!(toks("1.x")[..2], ["1", "."]);
    }

    #[test]
    fn a_literal_is_its_ordinal_among_the_literals() {
        let Lexed { toks, lits, .. } = Lexed::new("f(7, x, 2.5) + 7").unwrap();
        let slots: Vec<Tok> = toks
            .iter()
            .map(|t| t.tok)
            .filter(|t| matches!(t, Tok::Int(_) | Tok::Float(_)))
            .collect();
        assert_eq!(slots, [Tok::Int(Slot(0)), Tok::Float(Slot(1)), Tok::Int(Slot(2))]);
        assert_eq!((lits.int(Slot(0)), lits.float(Slot(1)), lits.int(Slot(2))), (7, 2.5, 7));
        assert_eq!(lits.len(), 3);
    }

    #[test]
    fn a_shape_masks_each_literal_by_kind_and_keeps_its_length() {
        let shape = |src: &str| Lexed::new(src).unwrap().shape(src);
        let src = "x = 12 /* 3 */ + 1.5e3;\n  y(1.x, 7) // 9\n";
        assert_eq!(shape(src), "x = ## /* 3 */ + ~~~~~;\n  y(#.x, #) // 9\n");
        assert_eq!(shape("f(34)"), shape("f(99)"));
        assert_ne!(shape("f(34)"), shape("f(3.4)"), "int and float differ");
        assert_ne!(shape("f(34)"), shape("f(345)"), "so do lengths");
        assert_eq!(shape("f(1e5)"), shape("f(2.5)"), "a float is a float");
    }

    #[test]
    fn lexes_two_char_operators() {
        assert_eq!(
            toks("a == b != c <= d >= e && f || g -> h"),
            [
                "a", "==", "b", "!=", "c", "<=", "d", ">=", "e", "&&", "f", "||", "g", "->", "h",
                "<eof>"
            ]
        );
        for p in [Punct::EqEq, Punct::Lt, Punct::OrOr, Punct::Percent] {
            assert_eq!(p.binop().map(|b| b.lexeme()), Some(p.as_str()));
        }
        assert_eq!(Punct::Arrow.binop(), None);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(toks("a // line comment\n b /* block\n comment */ c"), ["a", "b", "c", "<eof>"]);
    }

    #[test]
    fn positions_track_lines() {
        let s = lex("a\n  b").unwrap();
        assert_eq!(s[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(s[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn errors() {
        assert!(lex("a $ b").is_err());
        assert!(lex("/* unterminated").is_err());
        assert!(lex("a ~ b").is_err());
        assert!(lex("a : b").is_err());
        assert!(lex("99999999999999999999").is_err());
    }

    #[test]
    fn non_ascii_is_an_error_not_a_panic() {
        // regression: multibyte characters used to panic the slicing
        assert!(lex("é").is_err());
        assert!(lex("(é").is_err());
        assert!(lex("aé").is_err());
        assert!(lex("1é").is_err());
        assert!(lex("=😀").is_err());
    }
}
