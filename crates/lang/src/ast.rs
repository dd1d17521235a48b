//! The abstract syntax tree of Skil source programs. Identifiers are
//! [`Sym`]s of the program's own symbol table ([`Program::syms`]).

#![forbid(unsafe_code)]

use std::rc::Rc;

use crate::diag::Pos;
use crate::fo::BinOp;
use crate::sym::{Interner, Sym};

/// A surface type expression.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeExpr {
    /// A named type, possibly with angle-bracket arguments:
    /// `int`, `float`, `void`, `Index`, `array<float>`, `list<$t>`.
    Named(Sym, Vec<TypeExpr>),
    /// A type variable `$t`.
    Var(Sym),
    /// A function type, written in parameter position as
    /// `ret name(argtypes...)`.
    Fun(Vec<TypeExpr>, Box<TypeExpr>),
}

impl TypeExpr {
    /// Shorthand for a monomorphic named type.
    pub fn named(n: Sym) -> TypeExpr {
        TypeExpr::Named(n, vec![])
    }
}

/// One function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: Sym,
    /// Declared type (possibly a function type — that is what makes the
    /// enclosing function a higher-order function).
    pub ty: TypeExpr,
    /// Source position.
    pub pos: Pos,
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `pardata name <$t1, ..., $tn> ;` — a distributed data structure
    /// whose implementation is hidden. Only the built-in `array` has an
    /// implementation (backed by `skil_array::DistArray`); further
    /// pardata declarations are accepted but may only be used through
    /// skeletons that support them.
    Pardata {
        /// Structure name.
        name: Sym,
        /// Number of type parameters.
        arity: usize,
        /// Source position.
        pos: Pos,
    },
    /// `struct name <$t...> { type field ; ... } ;`
    Struct(Rc<StructDecl>),
    /// A function definition.
    Func(Rc<Func>),
}

/// A struct declaration. Shared (`Rc`) with the checker's tables, which
/// read it for every field access and literal.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDecl {
    /// Struct name.
    pub name: Sym,
    /// Type parameters (without `$`).
    pub params: Vec<Sym>,
    /// Field names and types, in declaration order.
    pub fields: Vec<(Sym, TypeExpr)>,
    /// Source position.
    pub pos: Pos,
}

/// A function definition. Shared (`Rc`) with the checker and the
/// instantiation pass, which walk the body once per instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    /// Function name.
    pub name: Sym,
    /// Parameters (functional parameters make this a HOF).
    pub params: Vec<Param>,
    /// Return type.
    pub ret: TypeExpr,
    /// Body.
    pub body: Block,
    /// Source position.
    pub pos: Pos,
}

/// A brace-enclosed statement sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block(pub Vec<Stmt>);

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `type name;` or `type name = expr;`
    Decl {
        /// Declared type.
        ty: TypeExpr,
        /// Variable name.
        name: Sym,
        /// Optional initializer.
        init: Option<Expr>,
        /// Source position.
        pos: Pos,
    },
    /// `name = expr;`
    Assign {
        /// Assigned variable.
        name: Sym,
        /// New value.
        value: Expr,
        /// Source position.
        pos: Pos,
    },
    /// `if (cond) block [else block]`
    If {
        /// Condition (an int; nonzero is true).
        cond: Expr,
        /// Then branch.
        then: Block,
        /// Optional else branch.
        els: Option<Block>,
    },
    /// `while (cond) block`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `for (init; cond; step) block`
    For {
        /// Initializer (a declaration or assignment).
        init: Option<Box<Stmt>>,
        /// Condition.
        cond: Option<Expr>,
        /// Step (an assignment).
        step: Option<Box<Stmt>>,
        /// Loop body.
        body: Block,
    },
    /// `return;` or `return expr;`
    Return {
        /// Returned value.
        value: Option<Expr>,
        /// Source position.
        pos: Pos,
    },
    /// An expression evaluated for effect (usually a skeleton call).
    Expr(Expr),
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic `-`.
    Neg,
    /// Logical `!`.
    Not,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Pos),
    /// Float literal.
    Float(f64, Pos),
    /// Variable (or function) reference.
    Var(Sym, Pos),
    /// Application. Currying: `f(a)(b)` parses as
    /// `Call(Call(f, [a]), [b])`; partial application is an application
    /// whose argument count is below the callee's arity.
    Call {
        /// The applied expression.
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// Source position.
        pos: Pos,
    },
    /// An operator converted to a function by enclosing it in brackets:
    /// `(+)`, `(*)`; can be partially applied: `(*)(2)`.
    OpSection(BinOp, Pos),
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source position.
        pos: Pos,
    },
    /// Unary `-` or `!`.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
        /// Source position.
        pos: Pos,
    },
    /// Struct field access `e.f`.
    Field {
        /// The struct expression.
        expr: Box<Expr>,
        /// Field name.
        field: Sym,
        /// Source position.
        pos: Pos,
    },
    /// Index component access `ix[0]` (also used on the `Index` fields
    /// of `Bounds`).
    IndexAt {
        /// The indexed expression (of type `Index`).
        expr: Box<Expr>,
        /// The component expression.
        index: Box<Expr>,
        /// Source position.
        pos: Pos,
    },
    /// `{a, b}` — the paper's pseudo-code notation for `Index`/`Size`
    /// values.
    BraceList {
        /// Components.
        elems: Vec<Expr>,
        /// Source position.
        pos: Pos,
    },
    /// `name{e1, ..., en}` — struct construction with fields in
    /// declaration order.
    StructLit {
        /// Struct name.
        name: Sym,
        /// Field values in declaration order.
        fields: Vec<Expr>,
        /// Source position.
        pos: Pos,
    },
}

impl Expr {
    /// Source position of an expression.
    pub fn pos(&self) -> Pos {
        match self {
            Expr::Int(_, p)
            | Expr::Float(_, p)
            | Expr::Var(_, p)
            | Expr::OpSection(_, p)
            | Expr::Call { pos: p, .. }
            | Expr::Binary { pos: p, .. }
            | Expr::Unary { pos: p, .. }
            | Expr::Field { pos: p, .. }
            | Expr::IndexAt { pos: p, .. }
            | Expr::BraceList { pos: p, .. }
            | Expr::StructLit { pos: p, .. } => *p,
        }
    }
}

/// A parsed program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// The identifiers the items refer to.
    pub syms: Interner,
}
