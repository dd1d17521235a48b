//! Tokens and the lexer.

#![forbid(unsafe_code)]

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
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Punctuation / operator.
    Punct(Punct),
    /// End of input.
    Eof,
}

impl Tok {
    /// Render for error messages.
    pub fn describe(&self, names: &Names) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{}`", names.get(*s)),
            Tok::TypeVar(s) => format!("type variable `${}`", names.get(*s)),
            Tok::Int(v) => format!("integer `{v}`"),
            Tok::Float(v) => format!("float `{v}`"),
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

/// Tokenize Skil source text with a symbol table of its own (the
/// identifiers' spellings are dropped with it; [`lex_into`] keeps them).
pub fn lex(src: &str) -> Result<Vec<Spanned>> {
    lex_into(src, &mut Interner::new())
}

/// Tokenize Skil source text, interning identifiers into `syms`.
pub fn lex_into(src: &str, syms: &mut Interner) -> Result<Vec<Spanned>> {
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
            let mut j = i;
            let mut is_float = false;
            while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                j += 1;
            }
            if j < bytes.len()
                && bytes[j] == b'.'
                && j + 1 < bytes.len()
                && (bytes[j + 1] as char).is_ascii_digit()
            {
                is_float = true;
                j += 1;
                while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                    j += 1;
                }
            }
            // exponent
            if j < bytes.len() && (bytes[j] == b'e' || bytes[j] == b'E') {
                let mut k = j + 1;
                if k < bytes.len() && (bytes[k] == b'+' || bytes[k] == b'-') {
                    k += 1;
                }
                if k < bytes.len() && (bytes[k] as char).is_ascii_digit() {
                    is_float = true;
                    j = k;
                    while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                        j += 1;
                    }
                }
            }
            let text = &src[i..j];
            let tok = if is_float {
                Tok::Float(text.parse().map_err(|_| {
                    Diag::new(Phase::Lex, start, format!("bad float literal `{text}`"))
                })?)
            } else {
                Tok::Int(text.parse().map_err(|_| {
                    Diag::new(Phase::Lex, start, format!("integer literal `{text}` overflows"))
                })?)
            };
            col += (j - i) as u32;
            i = j;
            out.push(Spanned { tok, pos: start });
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
        let mut syms = Interner::new();
        let toks = lex_into(src, &mut syms).unwrap();
        toks.iter()
            .map(|s| match s.tok {
                Tok::Ident(n) => syms.get(n).to_string(),
                Tok::TypeVar(n) => format!("${}", syms.get(n)),
                Tok::Int(v) => format!("{v}"),
                Tok::Float(v) => format!("{v:?}"),
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
        let mut syms = Interner::new();
        let t = lex_into("int f(int x) { return x; }", &mut syms).unwrap();
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
