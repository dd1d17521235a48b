//! Recursive-descent parser for Skil.

#![forbid(unsafe_code)]

use std::rc::Rc;

use crate::ast::*;
use crate::diag::{Diag, Phase, Pos, Result};
use crate::fo::BinOp;
use crate::sym::{Interner, Sym};
use crate::token::{Lexed, Lits, Punct as P, Spanned, Tok};

/// Parse a complete Skil program.
pub fn parse(src: &str) -> Result<Program> {
    parse_lexed(Lexed::new(src)?)
}

/// Parse a lexed program. Only a diagnostic's text reads a literal's
/// value; the tree holds its slot.
pub fn parse_lexed(lexed: Lexed) -> Result<Program> {
    let Lexed { toks, syms, lits } = lexed;
    let mut p = Parser { toks, at: 0, syms, lits, nest: 0, height: 0 };
    let items = p.program()?;
    Ok(Program { items, syms: p.syms, lits: p.lits })
}

/// How deep statements, expressions and types may nest, each. The
/// parser recurses per level of nesting and every later pass recurses
/// per level of the tree it builds, so without a cap a program of
/// nothing but `(((((…` overflows the stack of the thread compiling it.
/// A level of parentheses is a dozen parser frames — some 12 kB of
/// stack in an unoptimised build, which has to fit a 2 MB thread.
pub const MAX_NESTING: usize = 100;

struct Parser {
    toks: Vec<Spanned>,
    at: usize,
    syms: Interner,
    lits: Lits,
    /// Statements, expressions and types open around `at`: how deep the
    /// parser's own recursion is.
    nest: usize,
    /// Height of the expression tree parsed last. Operator and postfix
    /// chains grow a tree without recursing, so this is capped as well.
    height: usize,
}

impl Parser {
    fn peek(&self) -> Tok {
        self.toks[self.at].tok
    }

    fn peek2(&self) -> Tok {
        self.toks[(self.at + 1).min(self.toks.len() - 1)].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.at].pos
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.at].tok;
        if self.at + 1 < self.toks.len() {
            self.at += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(Diag::new(Phase::Parse, self.pos(), msg.into()))
    }

    fn describe(&self, t: Tok) -> String {
        t.describe(&self.syms, &self.lits)
    }

    /// Parse one statement, expression or type a level further in.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.nest == MAX_NESTING {
            return self.err(format!("nested deeper than {MAX_NESTING} levels"));
        }
        self.nest += 1;
        let parsed = parse(self);
        self.nest -= 1;
        parsed
    }

    /// The height of a node at `pos` over subtrees of height `below`.
    fn grow(&mut self, below: usize, pos: Pos) -> Result<()> {
        if below == MAX_NESTING {
            let msg = format!("expression nested deeper than {MAX_NESTING} levels");
            return Err(Diag::new(Phase::Parse, pos, msg));
        }
        self.height = below + 1;
        Ok(())
    }

    /// A comma-separated list of expressions up to `close`, and the
    /// height of the tallest.
    fn expr_list(&mut self, close: P) -> Result<(Vec<Expr>, usize)> {
        let mut tallest = 0;
        let items = self.comma_list(close, |p| {
            let e = p.expr()?;
            tallest = tallest.max(p.height);
            Ok(e)
        })?;
        Ok((items, tallest))
    }

    fn eat_punct(&mut self, p: P) -> Result<()> {
        if self.at_punct(p) {
            self.bump();
            Ok(())
        } else {
            let d = self.describe(self.peek());
            self.err(format!("expected `{}`, found {d}", p.as_str()))
        }
    }

    fn at_punct(&self, p: P) -> bool {
        self.peek() == Tok::Punct(p)
    }

    fn eat_ident(&mut self) -> Result<Sym> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => {
                let d = self.describe(other);
                self.err(format!("expected identifier, found {d}"))
            }
        }
    }

    fn at_kw(&self, kw: Sym) -> bool {
        self.peek() == Tok::Ident(kw)
    }

    /// `item (, item)*` up to (not including) `close`; empty when the
    /// next token is `close`.
    fn comma_list<T>(
        &mut self,
        close: P,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let mut out = Vec::new();
        if !self.at_punct(close) {
            loop {
                out.push(item(self)?);
                if self.at_punct(P::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        Ok(out)
    }

    // ---------------- items ----------------

    fn program(&mut self) -> Result<Vec<Item>> {
        let mut items = Vec::new();
        while self.peek() != Tok::Eof {
            items.push(self.item()?);
        }
        Ok(items)
    }

    /// `<$a, $b>` after `pardata name` / `struct name`; `what` names the
    /// construct in the diagnostic, which points at the item.
    fn type_params(&mut self, what: &str, item_pos: Pos) -> Result<Vec<Sym>> {
        let mut params = Vec::new();
        if self.at_punct(P::Lt) {
            self.bump();
            loop {
                match self.bump() {
                    Tok::TypeVar(v) => params.push(v),
                    other => {
                        return Err(Diag::new(
                            Phase::Parse,
                            item_pos,
                            format!(
                                "{what} type parameters must be type variables, found {}",
                                self.describe(other)
                            ),
                        ))
                    }
                }
                if self.at_punct(P::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
            self.eat_punct(P::Gt)?;
        }
        Ok(params)
    }

    fn item(&mut self) -> Result<Item> {
        let pos = self.pos();
        if self.at_kw(Sym::PARDATA) {
            self.bump();
            let name = self.eat_ident()?;
            let arity = self.type_params("pardata", pos)?.len();
            self.eat_punct(P::Semi)?;
            return Ok(Item::Pardata { name, arity, pos });
        }
        if self.at_kw(Sym::STRUCT) {
            self.bump();
            let name = self.eat_ident()?;
            let params = self.type_params("struct", pos)?;
            self.eat_punct(P::LBrace)?;
            let mut fields = Vec::new();
            while !self.at_punct(P::RBrace) {
                let fty = self.type_expr()?;
                let fname = self.eat_ident()?;
                self.eat_punct(P::Semi)?;
                fields.push((fname, fty));
            }
            self.eat_punct(P::RBrace)?;
            self.eat_punct(P::Semi)?;
            return Ok(Item::Struct(Rc::new(StructDecl { name, params, fields, pos })));
        }
        // function: type name ( params ) { body }
        let ret = self.type_expr()?;
        let name = self.eat_ident()?;
        self.eat_punct(P::LParen)?;
        let params = self.comma_list(P::RParen, Self::param)?;
        self.eat_punct(P::RParen)?;
        let body = self.block()?;
        Ok(Item::Func(Rc::new(Func { name, params, ret, body, pos })))
    }

    /// `type name` or the functional form `type name(argtypes...)`.
    fn param(&mut self) -> Result<Param> {
        let pos = self.pos();
        let ty = self.type_expr()?;
        let name = self.eat_ident()?;
        if self.at_punct(P::LParen) {
            self.bump();
            let args = self.comma_list(P::RParen, Self::type_expr)?;
            self.eat_punct(P::RParen)?;
            return Ok(Param { name, ty: TypeExpr::Fun(args, Box::new(ty)), pos });
        }
        Ok(Param { name, ty, pos })
    }

    // ---------------- types ----------------

    fn type_expr(&mut self) -> Result<TypeExpr> {
        self.nested(Self::type_expr_here)
    }

    fn type_expr_here(&mut self) -> Result<TypeExpr> {
        match self.peek() {
            Tok::TypeVar(v) => {
                self.bump();
                Ok(TypeExpr::Var(v))
            }
            Tok::Ident(name) => {
                if name.is_reserved() {
                    return self.err(format!("`{}` is not a type", self.syms.get(name)));
                }
                self.bump();
                let mut args = Vec::new();
                if self.at_punct(P::Lt) {
                    self.bump();
                    loop {
                        args.push(self.type_expr()?);
                        if self.at_punct(P::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.eat_punct(P::Gt)?;
                }
                Ok(TypeExpr::Named(name, args))
            }
            other => {
                let d = self.describe(other);
                self.err(format!("expected a type, found {d}"))
            }
        }
    }

    // ---------------- statements ----------------

    fn block(&mut self) -> Result<Block> {
        self.eat_punct(P::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at_punct(P::RBrace) {
            stmts.push(self.stmt()?);
        }
        self.eat_punct(P::RBrace)?;
        Ok(Block(stmts))
    }

    fn block_or_single(&mut self) -> Result<Block> {
        if self.at_punct(P::LBrace) {
            self.block()
        } else {
            Ok(Block(vec![self.stmt()?]))
        }
    }

    fn stmt(&mut self) -> Result<Stmt> {
        self.nested(Self::stmt_here)
    }

    fn stmt_here(&mut self) -> Result<Stmt> {
        let pos = self.pos();
        if self.at_kw(Sym::IF) {
            self.bump();
            self.eat_punct(P::LParen)?;
            let cond = self.expr()?;
            self.eat_punct(P::RParen)?;
            let then = self.block_or_single()?;
            let els = if self.at_kw(Sym::ELSE) {
                self.bump();
                Some(self.block_or_single()?)
            } else {
                None
            };
            return Ok(Stmt::If { cond, then, els });
        }
        if self.at_kw(Sym::WHILE) {
            self.bump();
            self.eat_punct(P::LParen)?;
            let cond = self.expr()?;
            self.eat_punct(P::RParen)?;
            let body = self.block_or_single()?;
            return Ok(Stmt::While { cond, body });
        }
        if self.at_kw(Sym::FOR) {
            self.bump();
            self.eat_punct(P::LParen)?;
            let init = if self.at_punct(P::Semi) {
                None
            } else {
                Some(Box::new(self.simple_stmt_no_semi()?))
            };
            self.eat_punct(P::Semi)?;
            let cond = if self.at_punct(P::Semi) { None } else { Some(self.expr()?) };
            self.eat_punct(P::Semi)?;
            let step = if self.at_punct(P::RParen) {
                None
            } else {
                Some(Box::new(self.simple_stmt_no_semi()?))
            };
            self.eat_punct(P::RParen)?;
            let body = self.block_or_single()?;
            return Ok(Stmt::For { init, cond, step, body });
        }
        if self.at_kw(Sym::RETURN) {
            self.bump();
            let value = if self.at_punct(P::Semi) { None } else { Some(self.expr()?) };
            self.eat_punct(P::Semi)?;
            return Ok(Stmt::Return { value, pos });
        }
        let s = self.simple_stmt_no_semi()?;
        self.eat_punct(P::Semi)?;
        Ok(s)
    }

    /// Declaration, assignment, or expression — without the trailing
    /// semicolon (shared with `for` headers).
    fn simple_stmt_no_semi(&mut self) -> Result<Stmt> {
        let pos = self.pos();
        // Try a declaration: `type ident` followed by `=`, `;` or `,`.
        // Anything else (`f (x)`, `a < b`, ...) backtracks.
        let save = self.at;
        if matches!(self.peek(), Tok::Ident(_) | Tok::TypeVar(_)) {
            if let (Ok(ty), Tok::Ident(name)) = (self.type_expr(), self.peek()) {
                self.bump();
                match self.peek() {
                    Tok::Punct(P::Assign) => {
                        self.bump();
                        let init = self.expr()?;
                        return Ok(Stmt::Decl { ty, name, init: Some(init), pos });
                    }
                    Tok::Punct(P::Semi | P::Comma) => {
                        return Ok(Stmt::Decl { ty, name, init: None, pos });
                    }
                    _ => {}
                }
            }
            self.at = save;
        }
        // Assignment: `ident = expr`
        if let (Tok::Ident(name), Tok::Punct(P::Assign)) = (self.peek(), self.peek2()) {
            self.bump();
            self.bump();
            let value = self.expr()?;
            return Ok(Stmt::Assign { name, value, pos });
        }
        // Plain expression
        let e = self.expr()?;
        Ok(Stmt::Expr(e))
    }

    // ---------------- expressions ----------------

    fn expr(&mut self) -> Result<Expr> {
        self.nested(|p| p.binary_expr(0))
    }

    /// Left-associative binary operators by precedence level, loosest
    /// first: `||`, `&&`, equality, relational, additive, multiplicative.
    fn binary_expr(&mut self, level: usize) -> Result<Expr> {
        const LEVELS: [&[BinOp]; 6] = [
            &[BinOp::Or],
            &[BinOp::And],
            &[BinOp::Eq, BinOp::Ne],
            &[BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge],
            &[BinOp::Add, BinOp::Sub],
            &[BinOp::Mul, BinOp::Div, BinOp::Rem],
        ];
        if level == LEVELS.len() {
            return self.unary_expr();
        }
        let mut lhs = self.binary_expr(level + 1)?;
        loop {
            let op = match self.peek() {
                Tok::Punct(p) => p.binop().filter(|op| LEVELS[level].contains(op)),
                _ => None,
            };
            let Some(op) = op else { return Ok(lhs) };
            let pos = self.pos();
            self.bump();
            let left = self.height;
            let rhs = self.binary_expr(level + 1)?;
            self.grow(left.max(self.height), pos)?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), pos };
        }
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        let pos = self.pos();
        let op = match self.peek() {
            Tok::Punct(P::Minus) => UnOp::Neg,
            Tok::Punct(P::Bang) => UnOp::Not,
            _ => return self.postfix_expr(),
        };
        self.bump();
        let e = self.nested(Self::unary_expr)?;
        self.grow(self.height, pos)?;
        Ok(Expr::Unary { op, expr: Box::new(e), pos })
    }

    fn postfix_expr(&mut self) -> Result<Expr> {
        let mut e = self.primary_expr()?;
        loop {
            let pos = self.pos();
            let below = self.height;
            if self.at_punct(P::LParen) {
                self.bump();
                let (args, tallest) = self.expr_list(P::RParen)?;
                self.eat_punct(P::RParen)?;
                self.grow(below.max(tallest), pos)?;
                e = Expr::Call { callee: Box::new(e), args, pos };
            } else if self.at_punct(P::Dot) || self.at_punct(P::Arrow) {
                self.bump();
                let field = self.eat_ident()?;
                self.grow(below, pos)?;
                e = Expr::Field { expr: Box::new(e), field, pos };
            } else if self.at_punct(P::LBracket) {
                self.bump();
                let index = self.expr()?;
                self.eat_punct(P::RBracket)?;
                self.grow(below.max(self.height), pos)?;
                e = Expr::IndexAt { expr: Box::new(e), index: Box::new(index), pos };
            } else {
                return Ok(e);
            }
        }
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        let pos = self.pos();
        // a leaf, unless an arm below says otherwise
        self.height = 1;
        match self.peek() {
            Tok::Int(slot) => {
                self.bump();
                Ok(Expr::Int(slot, pos))
            }
            Tok::Float(slot) => {
                self.bump();
                Ok(Expr::Float(slot, pos))
            }
            Tok::Ident(name) => {
                self.bump();
                // struct literal `name{...}`
                if self.at_punct(P::LBrace) {
                    self.bump();
                    let (fields, tallest) = self.expr_list(P::RBrace)?;
                    self.eat_punct(P::RBrace)?;
                    self.grow(tallest, pos)?;
                    return Ok(Expr::StructLit { name, fields, pos });
                }
                Ok(Expr::Var(name, pos))
            }
            Tok::Punct(P::LBrace) => {
                self.bump();
                let (elems, tallest) = self.expr_list(P::RBrace)?;
                self.eat_punct(P::RBrace)?;
                self.grow(tallest, pos)?;
                Ok(Expr::BraceList { elems, pos })
            }
            Tok::Punct(P::LParen) => {
                self.bump();
                // operator section `(+)` etc. (`&&` / `||` have none)
                if let (Tok::Punct(p), Tok::Punct(P::RParen)) = (self.peek(), self.peek2()) {
                    if let Some(op) = p.binop().filter(|op| !matches!(op, BinOp::And | BinOp::Or)) {
                        self.bump();
                        self.bump();
                        return Ok(Expr::OpSection(op, pos));
                    }
                }
                let e = self.expr()?;
                self.eat_punct(P::RParen)?;
                Ok(e)
            }
            other => {
                let d = self.describe(other);
                self.err(format!("expected an expression, found {d}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pardata_and_struct() {
        let p = parse(
            "pardata array <$t>;\n\
             struct elemrec { float val; int row; int col; };",
        )
        .unwrap();
        assert_eq!(p.items.len(), 2);
        assert!(matches!(&p.items[0], Item::Pardata { name: Sym::ARRAY, arity: 1, .. }));
        match &p.items[1] {
            Item::Struct(s) => {
                assert_eq!(p.syms.get(s.name), "elemrec");
                assert_eq!(s.fields.len(), 3);
                assert_eq!(p.syms.get(s.fields[1].0), "row");
            }
            other => panic!("expected struct, got {other:?}"),
        }
    }

    #[test]
    fn parses_polymorphic_struct() {
        let p = parse("struct pair <$a, $b> { $a fst; $b snd; };").unwrap();
        match &p.items[0] {
            Item::Struct(s) => {
                let params: Vec<&str> = s.params.iter().map(|&v| p.syms.get(v)).collect();
                assert_eq!(params, ["a", "b"]);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_hof_signature() {
        // the paper's above_thresh / map example
        let p = parse(
            "int above_thresh(float thresh, float elem, Index ix) { return elem >= thresh; }",
        )
        .unwrap();
        match &p.items[0] {
            Item::Func(f) => {
                assert_eq!(p.syms.get(f.name), "above_thresh");
                assert_eq!(f.params.len(), 3);
                assert_eq!(f.params[2].ty, TypeExpr::named(Sym::INDEX));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_functional_parameter() {
        let p = parse("$b apply($b f($a), $a x) { return f(x); }").unwrap();
        match &p.items[0] {
            Item::Func(f) => {
                let (a, b) = (p.syms.find("a").unwrap(), p.syms.find("b").unwrap());
                assert_eq!(
                    f.params[0].ty,
                    TypeExpr::Fun(vec![TypeExpr::Var(a)], Box::new(TypeExpr::Var(b)))
                );
                assert_eq!(f.ret, TypeExpr::Var(b));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_statements() {
        let p = parse(
            "void main() {\n\
               int i;\n\
               int n = 10;\n\
               for (i = 0 ; i < n ; i = i + 1) {\n\
                 if (i % 2 == 0) n = n - 1; else n = n + 1;\n\
               }\n\
               while (n > 0) { n = n - 2; }\n\
               return;\n\
             }",
        )
        .unwrap();
        match &p.items[0] {
            Item::Func(f) => assert_eq!(f.body.0.len(), 5),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_generic_type_declarations() {
        let p = parse("void main() { array<float> a; array<int> b = f(); }").unwrap();
        match &p.items[0] {
            Item::Func(f) => {
                assert!(matches!(
                    &f.body.0[0],
                    Stmt::Decl { ty: TypeExpr::Named(Sym::ARRAY, args), .. }
                        if args.len() == 1
                ));
                assert!(matches!(&f.body.0[1], Stmt::Decl { init: Some(_), .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_operator_sections_and_currying() {
        let p =
            parse("void main() { x = fold((+), l); y = map((*)(2), l); z = f(a)(b); }").unwrap();
        let Item::Func(f) = &p.items[0] else { panic!() };
        // fold((+), l)
        match &f.body.0[0] {
            Stmt::Assign { value: Expr::Call { args, .. }, .. } => {
                assert!(matches!(&args[0], Expr::OpSection(BinOp::Add, _)));
            }
            other => panic!("{other:?}"),
        }
        // map((*)(2), l): first arg is a Call of an OpSection
        match &f.body.0[1] {
            Stmt::Assign { value: Expr::Call { args, .. }, .. } => match &args[0] {
                Expr::Call { callee, args, .. } => {
                    assert!(matches!(&**callee, Expr::OpSection(BinOp::Mul, _)));
                    assert_eq!(args.len(), 1);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        // f(a)(b): nested call
        match &f.body.0[2] {
            Stmt::Assign { value: Expr::Call { callee, .. }, .. } => {
                assert!(matches!(&**callee, Expr::Call { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_brace_and_struct_literals() {
        let p = parse("void main() { ix = {1, 2}; e = elemrec{1.5, 2, 3}; }").unwrap();
        let Item::Func(f) = &p.items[0] else { panic!() };
        assert!(matches!(
            &f.body.0[0],
            Stmt::Assign { value: Expr::BraceList { elems, .. }, .. } if elems.len() == 2
        ));
        assert!(matches!(
            &f.body.0[1],
            Stmt::Assign { value: Expr::StructLit { name, fields, .. }, .. }
                if p.syms.get(*name) == "elemrec" && fields.len() == 3
        ));
    }

    #[test]
    fn parses_field_access_chain() {
        let p = parse("void main() { x = e.val + b.lower.row; }").unwrap();
        let Item::Func(f) = &p.items[0] else { panic!() };
        assert!(matches!(&f.body.0[0], Stmt::Assign { .. }));
    }

    #[test]
    fn parses_index_access_and_arrow() {
        // the paper's `ix[0]` and `bds->lowerBd[1]`
        let p = parse("void main() { x = ix[0] + bds->lowerBd[1]; }").unwrap();
        let Item::Func(f) = &p.items[0] else { panic!() };
        let Stmt::Assign { value, .. } = &f.body.0[0] else { panic!() };
        let Expr::Binary { lhs, rhs, .. } = value else { panic!() };
        assert!(matches!(&**lhs, Expr::IndexAt { .. }));
        match &**rhs {
            Expr::IndexAt { expr, .. } => {
                assert!(matches!(&**expr, Expr::Field { field: Sym::LOWER_BD, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_is_conventional() {
        let p = parse("void main() { x = 1 + 2 * 3 == 7 && 1 < 2; }").unwrap();
        let Item::Func(f) = &p.items[0] else { panic!() };
        let Stmt::Assign { value, .. } = &f.body.0[0] else { panic!() };
        // top node is &&
        assert!(matches!(value, Expr::Binary { op: BinOp::And, .. }));
    }

    #[test]
    fn nesting_is_capped_with_a_position() {
        let program = |e: &str| format!("void main() {{ int x = {e}; }}");
        let parens = |n: usize| program(&format!("{}1{}", "(".repeat(n), ")".repeat(n)));
        // `int x = (` is level 1 of the initializer: one statement, then
        // the expression, then a level per parenthesis
        assert!(parse(&parens(MAX_NESTING - 2)).is_ok());
        let err = parse(&parens(MAX_NESTING - 1)).unwrap_err().to_string();
        assert!(err.contains("parse error at 1:"), "{err}");
        assert!(err.contains("nested deeper than 100 levels"), "{err}");
        // far past any stack
        assert!(parse(&parens(20_000)).is_err());
        assert!(parse(&program(&"-".repeat(20_000))).is_err());
        assert!(parse(&program(&format!("{}1", "f(".repeat(20_000)))).is_err());
        assert!(parse(&format!("void main() {{ {} }}", "if (1) ".repeat(20_000))).is_err());
        assert!(parse(&format!("{}int> x() {{ }}", "array<".repeat(20_000))).is_err());
        // chains grow a tree without recursing: its height is capped too
        let sum = |n: usize| program(&vec!["1"; n + 1].join(" + "));
        assert!(parse(&sum(MAX_NESTING - 1)).is_ok());
        let err = parse(&sum(MAX_NESTING)).unwrap_err().to_string();
        assert!(err.contains("expression nested deeper than 100 levels"), "{err}");
        assert!(parse(&program(&format!("a{}", ".f".repeat(20_000)))).is_err());
        assert!(parse(&program(&format!("a{}", "[0]".repeat(20_000)))).is_err());
    }

    #[test]
    fn error_on_missing_semicolon() {
        assert!(parse("void main() { int x = 1 }").is_err());
    }

    #[test]
    fn error_on_bad_item() {
        assert!(parse("42;").is_err());
    }

    #[test]
    fn for_with_declaration_init() {
        let p = parse("void main() { for (int i = 0; i < 3; i = i + 1) { f(i); } }").unwrap();
        let Item::Func(f) = &p.items[0] else { panic!() };
        assert!(matches!(&f.body.0[0], Stmt::For { init: Some(s), .. }
            if matches!(&**s, Stmt::Decl { .. })));
    }

    #[test]
    fn sections_exist_for_arithmetic_and_comparison_only() {
        assert!(parse("void main() { x = f((>=)); }").is_ok());
        assert!(parse("void main() { x = f((&&)); }").is_err());
        // `(-x)` is a parenthesized negation, not a section
        let p = parse("void main() { x = (-y); }").unwrap();
        let Item::Func(f) = &p.items[0] else { panic!() };
        assert!(matches!(
            &f.body.0[0],
            Stmt::Assign { value: Expr::Unary { op: UnOp::Neg, .. }, .. }
        ));
    }
}
