//! The first-order intermediate representation — what the instantiation
//! procedure produces.
//!
//! After instantiation there are **no** higher-order functions, partial
//! applications, operator sections, or type variables left: only
//! monomorphic first-order functions. Skeleton calls carry references to
//! first-order argument-function *instances* plus the lifted arguments of
//! former partial applications — the paper's calling convention after
//! "inlining and lifting".
//!
//! A compiled program keeps this tree for as long as it is cached, so it
//! is built small: names are [`Sym`]s into the program's one string
//! table, intrinsics are resolved to [`Intr`], child lists are
//! exact-size boxed slices, and an expression node is three words.

#![forbid(unsafe_code)]

use skil_runtime::CostModel;

use crate::builtins::{Builtin, BuiltinKind, BUILTINS};
use crate::bytecode::Intr;
use crate::sym::{Names, Sym};
use crate::token::{Lits, Slot};

/// A monomorphic first-order type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FoTy {
    /// `int`.
    Int,
    /// `float`.
    Float,
    /// `void`.
    Void,
    /// `Index` / `Size`.
    Index,
    /// Partition bounds.
    Bounds,
    /// A monomorphized struct instance, by instance name.
    Struct(Sym),
    /// `list<T>`.
    List(Box<FoTy>),
    /// `array<T>`.
    Array(Box<FoTy>),
}

impl FoTy {
    /// Append the C-ish type name (for instance mangling and emission).
    pub fn write_cname(&self, names: &Names, out: &mut String) {
        match self {
            FoTy::Int => out.push_str("int"),
            FoTy::Float => out.push_str("float"),
            FoTy::Void => out.push_str("void"),
            FoTy::Index => out.push_str("Index"),
            FoTy::Bounds => out.push_str("Bounds"),
            FoTy::Struct(n) => out.push_str(names.get(*n)),
            FoTy::List(t) => {
                t.write_cname(names, out);
                out.push_str("_list");
            }
            FoTy::Array(t) => {
                t.write_cname(names, out);
                out.push_str("array");
            }
        }
    }

    /// The C-ish type name.
    pub fn cname(&self, names: &Names) -> String {
        let mut out = String::new();
        self.write_cname(names, &mut out);
        out
    }
}

/// A monomorphized struct definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FoStruct {
    /// Instance name (e.g. `elemrec` or `pair_int_float`).
    pub name: Sym,
    /// Fields in declaration order.
    pub fields: Box<[(Sym, FoTy)]>,
}

/// A reference to a first-order argument-function instance, with the
/// lifted arguments a former partial application supplies. The skeleton
/// calls `func(lifted..., element args...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FnInst {
    /// Instance name.
    pub func: Sym,
    /// Lifted argument expressions, evaluated at the skeleton call site.
    pub lifted: Box<[FoExpr]>,
}

/// The data-parallel skeletons a program can invoke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkelOp {
    /// `array_create`.
    Create,
    /// `array_destroy`.
    Destroy,
    /// `array_map`.
    Map,
    /// `array_fold`.
    Fold,
    /// `array_copy`.
    Copy,
    /// `array_broadcast_part`.
    BroadcastPart,
    /// `array_permute_rows`.
    PermuteRows,
    /// `array_gen_mult`.
    GenMult,
    /// `array_scan` (extension skeleton).
    Scan,
    /// The paper's introduction `d&c` skeleton.
    Dc,
    /// The task farm.
    Farm,
}

impl SkelOp {
    /// Skeleton name, as in the paper: its entry in [`BUILTINS`].
    pub fn name(&self) -> &'static str {
        let is = |b: &&Builtin| matches!(b.kind, BuiltinKind::Skeleton { op, .. } if op == *self);
        BUILTINS.iter().find(is).expect("every skeleton is a builtin").name
    }
}

/// Binary operators (monomorphic; `float` distinguishes the arithmetic
/// family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// True for `+ - * / %`: the result has the operands' type (every
    /// other operator yields an `int`).
    pub fn is_arithmetic(&self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem)
    }

    /// The virtual cycles one application costs, over `float` or `int`
    /// operands.
    pub fn cycles(&self, float: bool, c: &CostModel) -> u64 {
        match (float, self) {
            (false, _) => c.int_op,
            (true, BinOp::Mul) => c.flt_mul,
            (true, BinOp::Div) => c.flt_div,
            (true, _) => c.flt_add,
        }
    }

    /// Surface lexeme.
    pub fn lexeme(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// A first-order expression.
#[derive(Debug, Clone, PartialEq)]
pub enum FoExpr {
    /// Integer literal, by its slot in [`FoProgram::lits`].
    Int(Slot),
    /// Float literal, by its slot in [`FoProgram::lits`].
    Float(Slot),
    /// Local variable or parameter.
    Var(Sym),
    /// Call of a first-order instance.
    Call(Sym, Box<[FoExpr]>),
    /// Scalar intrinsic or builtin constant (`abs`, `array_get_elem`,
    /// `procId`, ...).
    Intrinsic(Intr, Box<[FoExpr]>),
    /// Skeleton invocation.
    Skel(Box<SkelCall>),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Operates on floats.
        float: bool,
        /// Left and right operand.
        args: Box<[FoExpr; 2]>,
    },
    /// Unary negation / logical not.
    Unary {
        /// `-` or `!`.
        neg: bool,
        /// Operates on floats.
        float: bool,
        /// Operand.
        expr: Box<FoExpr>,
    },
    /// Struct field access by resolved field position.
    Field {
        /// Struct expression.
        expr: Box<FoExpr>,
        /// Field index.
        index: u32,
        /// Field name (for emission).
        name: Sym,
    },
    /// `Index` component access: `[indexed, component]`.
    IndexAt(Box<[FoExpr; 2]>),
    /// Build an `Index` value.
    MakeIndex(Box<[FoExpr]>),
    /// Build a struct value (fields in declaration order).
    MakeStruct(Sym, Box<[FoExpr]>),
}

/// A skeleton invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SkelCall {
    /// Which skeleton.
    pub op: SkelOp,
    /// First-order argument-function instances (in skeleton parameter
    /// order).
    pub fns: Box<[FnInst]>,
    /// Value arguments (arrays, indices, scalars), in skeleton parameter
    /// order with the functional slots removed.
    pub args: Box<[FoExpr]>,
    /// The array element type.
    pub elem: FoTy,
}

impl FoExpr {
    /// A binary operation node.
    pub fn binary(op: BinOp, float: bool, lhs: FoExpr, rhs: FoExpr) -> FoExpr {
        FoExpr::Binary { op, float, args: Box::new([lhs, rhs]) }
    }
}

/// A first-order statement.
#[derive(Debug, Clone, PartialEq)]
pub enum FoStmt {
    /// Variable declaration.
    Decl {
        /// Name.
        name: Sym,
        /// Monomorphic type.
        ty: FoTy,
        /// Optional initializer.
        init: Option<FoExpr>,
    },
    /// Assignment.
    Assign {
        /// Target variable.
        name: Sym,
        /// Value.
        value: FoExpr,
    },
    /// Conditional.
    If {
        /// Condition.
        cond: FoExpr,
        /// Then branch.
        then: Box<[FoStmt]>,
        /// Else branch.
        els: Box<[FoStmt]>,
    },
    /// While loop.
    While {
        /// Condition.
        cond: FoExpr,
        /// Body.
        body: Box<[FoStmt]>,
    },
    /// For loop (kept structured for C emission).
    For {
        /// Initializer.
        init: Option<Box<FoStmt>>,
        /// Condition.
        cond: Option<FoExpr>,
        /// Step.
        step: Option<Box<FoStmt>>,
        /// Body.
        body: Box<[FoStmt]>,
    },
    /// Return.
    Return(Option<FoExpr>),
    /// Expression statement.
    Expr(FoExpr),
}

/// A first-order monomorphic function instance.
#[derive(Debug, Clone, PartialEq)]
pub struct FoFunc {
    /// Instance name (`above_thresh_1`, `op_add_int`, ...).
    pub name: Sym,
    /// The source function it was instantiated from (`(+)` for an
    /// operator section).
    pub origin: Sym,
    /// Value parameters, lifted parameters appended.
    pub params: Box<[(Sym, FoTy)]>,
    /// Return type.
    pub ret: FoTy,
    /// Body.
    pub body: Box<[FoStmt]>,
}

/// The complete instantiated program. Instances are few (a program has
/// tens), so lookup by name is a scan over their `Sym`s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FoProgram {
    /// Monomorphized structs.
    pub structs: Vec<FoStruct>,
    /// Function instances; `main` is among them.
    pub funcs: Vec<FoFunc>,
    /// The string table every `Sym` in the program indexes.
    pub names: Names,
    /// The values behind the literals' slots: the back end reads them,
    /// and a program of the same shape swaps in its own.
    pub lits: Lits,
}

impl FoProgram {
    /// The spelling of `sym`.
    pub fn name(&self, sym: Sym) -> &str {
        self.names.get(sym)
    }

    /// Index of a function instance by name.
    pub fn func_id(&self, name: Sym) -> Option<usize> {
        self.funcs.iter().position(|f| f.name == name)
    }

    /// Find a function instance by name.
    pub fn func(&self, name: Sym) -> Option<&FoFunc> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Find a function instance by its spelling (tests and tools).
    pub fn func_named(&self, name: &str) -> Option<&FoFunc> {
        self.funcs.iter().find(|f| self.name(f.name) == name)
    }

    /// Index of a struct instance by name.
    pub fn struct_id(&self, name: Sym) -> Option<usize> {
        self.structs.iter().position(|s| s.name == name)
    }

    /// Find a struct instance by name.
    pub fn struct_def(&self, name: Sym) -> Option<&FoStruct> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// Heap bytes the program holds: every node, list and name.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        fn ty(t: &FoTy) -> usize {
            match t {
                FoTy::List(t) | FoTy::Array(t) => size_of::<FoTy>() + ty(t),
                _ => 0,
            }
        }
        fn exprs(es: &[FoExpr]) -> usize {
            std::mem::size_of_val(es) + es.iter().map(expr).sum::<usize>()
        }
        fn expr(e: &FoExpr) -> usize {
            match e {
                FoExpr::Int(_) | FoExpr::Float(_) | FoExpr::Var(_) => 0,
                FoExpr::Call(_, args)
                | FoExpr::Intrinsic(_, args)
                | FoExpr::MakeIndex(args)
                | FoExpr::MakeStruct(_, args) => exprs(args),
                FoExpr::Skel(call) => {
                    size_of::<SkelCall>()
                        + std::mem::size_of_val(&*call.fns)
                        + call.fns.iter().map(|f| exprs(&f.lifted)).sum::<usize>()
                        + exprs(&call.args)
                        + ty(&call.elem)
                }
                FoExpr::Binary { args, .. } | FoExpr::IndexAt(args) => exprs(&**args),
                FoExpr::Unary { expr: e, .. } | FoExpr::Field { expr: e, .. } => {
                    size_of::<FoExpr>() + expr(e)
                }
            }
        }
        fn stmts(ss: &[FoStmt]) -> usize {
            std::mem::size_of_val(ss) + ss.iter().map(stmt).sum::<usize>()
        }
        fn stmt(s: &FoStmt) -> usize {
            match s {
                FoStmt::Decl { ty: t, init, .. } => ty(t) + init.as_ref().map_or(0, expr),
                FoStmt::Assign { value, .. } => expr(value),
                FoStmt::If { cond, then, els } => expr(cond) + stmts(then) + stmts(els),
                FoStmt::While { cond, body } => expr(cond) + stmts(body),
                FoStmt::For { init, cond, step, body } => {
                    let boxed = |s: &Option<Box<FoStmt>>| {
                        s.as_deref().map_or(0, |s| size_of::<FoStmt>() + stmt(s))
                    };
                    boxed(init) + cond.as_ref().map_or(0, expr) + boxed(step) + stmts(body)
                }
                FoStmt::Return(e) => e.as_ref().map_or(0, expr),
                FoStmt::Expr(e) => expr(e),
            }
        }
        let fields = |fs: &[(Sym, FoTy)]| {
            std::mem::size_of_val(fs) + fs.iter().map(|(_, t)| ty(t)).sum::<usize>()
        };
        self.structs.capacity() * size_of::<FoStruct>()
            + self.structs.iter().map(|s| fields(&s.fields)).sum::<usize>()
            + self.funcs.capacity() * size_of::<FoFunc>()
            + self
                .funcs
                .iter()
                .map(|f| fields(&f.params) + ty(&f.ret) + stmts(&f.body))
                .sum::<usize>()
            + self.names.heap_bytes()
            + self.lits.heap_bytes()
    }

    /// True when no expression anywhere contains a higher-order construct
    /// (used by tests to assert the instantiation postcondition).
    pub fn is_first_order(&self) -> bool {
        // By construction FoExpr cannot express closures; what remains to
        // check is that every called instance exists.
        fn all_ok(es: &[FoExpr], prog: &FoProgram) -> bool {
            es.iter().all(|e| expr_ok(e, prog))
        }
        fn expr_ok(e: &FoExpr, prog: &FoProgram) -> bool {
            match e {
                FoExpr::Call(name, args) => prog.func(*name).is_some() && all_ok(args, prog),
                FoExpr::Skel(call) => {
                    call.fns
                        .iter()
                        .all(|fi| prog.func(fi.func).is_some() && all_ok(&fi.lifted, prog))
                        && all_ok(&call.args, prog)
                }
                FoExpr::Intrinsic(_, args) | FoExpr::MakeIndex(args) => all_ok(args, prog),
                FoExpr::MakeStruct(name, args) => {
                    prog.struct_def(*name).is_some() && all_ok(args, prog)
                }
                FoExpr::Binary { args, .. } | FoExpr::IndexAt(args) => all_ok(&**args, prog),
                FoExpr::Unary { expr, .. } | FoExpr::Field { expr, .. } => expr_ok(expr, prog),
                FoExpr::Int(_) | FoExpr::Float(_) | FoExpr::Var(_) => true,
            }
        }
        fn stmt_ok(s: &FoStmt, prog: &FoProgram) -> bool {
            match s {
                FoStmt::Decl { init, .. } => init.as_ref().is_none_or(|e| expr_ok(e, prog)),
                FoStmt::Assign { value, .. } => expr_ok(value, prog),
                FoStmt::If { cond, then, els } => {
                    expr_ok(cond, prog)
                        && then.iter().all(|s| stmt_ok(s, prog))
                        && els.iter().all(|s| stmt_ok(s, prog))
                }
                FoStmt::While { cond, body } => {
                    expr_ok(cond, prog) && body.iter().all(|s| stmt_ok(s, prog))
                }
                FoStmt::For { init, cond, step, body } => {
                    init.as_deref().is_none_or(|s| stmt_ok(s, prog))
                        && cond.as_ref().is_none_or(|e| expr_ok(e, prog))
                        && step.as_deref().is_none_or(|s| stmt_ok(s, prog))
                        && body.iter().all(|s| stmt_ok(s, prog))
                }
                FoStmt::Return(e) => e.as_ref().is_none_or(|e| expr_ok(e, prog)),
                FoStmt::Expr(e) => expr_ok(e, prog),
            }
        }
        self.funcs.iter().all(|f| f.body.iter().all(|s| stmt_ok(s, self)))
    }
}

/// Estimate the virtual-cycle cost of one invocation of an instance —
/// used as the `Kernel` cost when the instance customizes a skeleton.
/// Straight-line sum; branches take the costlier side; loop bodies are
/// counted once (argument functions are almost always loop-free).
pub fn static_cost(f: &FoFunc, c: &CostModel) -> u64 {
    fn expr(e: &FoExpr, c: &CostModel) -> u64 {
        match e {
            FoExpr::Int(_) | FoExpr::Float(_) => 0,
            FoExpr::Var(_) => c.load,
            FoExpr::Call(_, args) => c.call + args.iter().map(|a| expr(a, c)).sum::<u64>(),
            FoExpr::Intrinsic(op, args) => {
                let base = match op {
                    Intr::ArrayGetElem | Intr::ArrayPartBounds => 2 * c.load,
                    Intr::ArrayPutElem => 2 * c.load + c.store,
                    Intr::Sqrt => c.flt_div,
                    Intr::Fabs | Intr::Fmin | Intr::Fmax => c.flt_add,
                    Intr::Print | Intr::Error => c.call,
                    _ => c.int_op,
                };
                base + args.iter().map(|a| expr(a, c)).sum::<u64>()
            }
            FoExpr::Skel(_) => c.call, // nested skeletons are rejected at run time
            FoExpr::Binary { op, float, args } => {
                let [lhs, rhs] = &**args;
                op.cycles(*float, c) + expr(lhs, c) + expr(rhs, c)
            }
            FoExpr::Unary { float, expr: e, .. } => {
                (if *float { c.flt_add } else { c.int_op }) + expr(e, c)
            }
            FoExpr::Field { expr: e, .. } => c.load + expr(e, c),
            FoExpr::IndexAt(args) => c.load + expr(&args[0], c) + expr(&args[1], c),
            FoExpr::MakeIndex(es) => 2 * c.store + es.iter().map(|e| expr(e, c)).sum::<u64>(),
            FoExpr::MakeStruct(_, es) => {
                es.len() as u64 * c.store + es.iter().map(|e| expr(e, c)).sum::<u64>()
            }
        }
    }
    fn stmts(ss: &[FoStmt], c: &CostModel) -> u64 {
        ss.iter().map(|s| stmt(s, c)).sum()
    }
    fn stmt(s: &FoStmt, c: &CostModel) -> u64 {
        match s {
            FoStmt::Decl { init, .. } => c.store + init.as_ref().map_or(0, |e| expr(e, c)),
            FoStmt::Assign { value, .. } => c.store + expr(value, c),
            FoStmt::If { cond, then, els } => {
                c.int_op + expr(cond, c) + stmts(then, c).max(stmts(els, c))
            }
            FoStmt::While { cond, body } => c.int_op + expr(cond, c) + stmts(body, c),
            FoStmt::For { init, cond, step, body } => {
                init.as_deref().map_or(0, |s| stmt(s, c))
                    + cond.as_ref().map_or(0, |e| expr(e, c))
                    + step.as_deref().map_or(0, |s| stmt(s, c))
                    + stmts(body, c)
            }
            FoStmt::Return(e) => e.as_ref().map_or(0, |e| expr(e, c)),
            FoStmt::Expr(e) => expr(e, c),
        }
    }
    stmts(&f.body, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::Interner;

    fn func(params: &[Sym], ret: FoTy, body: Vec<FoStmt>) -> FoFunc {
        FoFunc {
            name: Sym::MAIN,
            origin: Sym::MAIN,
            params: params.iter().map(|&p| (p, FoTy::Int)).collect(),
            ret,
            body: body.into(),
        }
    }

    #[test]
    fn foty_names() {
        let mut names = Interner::new();
        let elemrec = names.intern("elemrec");
        assert_eq!(FoTy::Int.cname(&names), "int");
        assert_eq!(FoTy::Array(Box::new(FoTy::Float)).cname(&names), "floatarray");
        assert_eq!(FoTy::Struct(elemrec).cname(&names), "elemrec");
        assert_eq!(FoTy::List(Box::new(FoTy::Struct(elemrec))).cname(&names), "elemrec_list");
    }

    #[test]
    fn nodes_stay_small() {
        // what a cached program pays per expression / statement
        assert_eq!(std::mem::size_of::<FoExpr>(), 24);
        assert_eq!(std::mem::size_of::<FoTy>(), 16);
        assert!(std::mem::size_of::<FoStmt>() <= 64);
    }

    #[test]
    fn static_cost_counts_ops() {
        let c = CostModel::t800();
        let f = func(
            &[Sym::X0],
            FoTy::Int,
            vec![FoStmt::Return(Some(FoExpr::binary(
                BinOp::Add,
                false,
                FoExpr::Var(Sym::X0),
                FoExpr::Int(Slot(0)),
            )))],
        );
        assert_eq!(static_cost(&f, &c), c.int_op + c.load);
    }

    #[test]
    fn static_cost_takes_max_branch() {
        let c = CostModel::t800();
        let heavy = FoStmt::Expr(FoExpr::binary(
            BinOp::Mul,
            true,
            FoExpr::Var(Sym::X0),
            FoExpr::Var(Sym::X1),
        ));
        let light = FoStmt::Expr(FoExpr::Int(Slot(0)));
        let f = func(
            &[],
            FoTy::Void,
            vec![FoStmt::If {
                cond: FoExpr::Var(Sym::X0),
                then: Box::new([heavy]),
                els: Box::new([light]),
            }],
        );
        let expect = c.int_op + c.load + (c.flt_mul + 2 * c.load);
        assert_eq!(static_cost(&f, &c), expect);
    }

    #[test]
    fn static_cost_prices_intrinsics_by_kind() {
        let c = CostModel::t800();
        let call =
            |op| func(&[], FoTy::Void, vec![FoStmt::Expr(FoExpr::Intrinsic(op, Box::new([])))]);
        assert_eq!(static_cost(&call(Intr::Sqrt), &c), c.flt_div);
        assert_eq!(static_cost(&call(Intr::Fmax), &c), c.flt_add);
        assert_eq!(static_cost(&call(Intr::Print), &c), c.call);
        assert_eq!(static_cost(&call(Intr::ArrayPutElem), &c), 2 * c.load + c.store);
        assert_eq!(static_cost(&call(Intr::Abs), &c), c.int_op);
    }

    #[test]
    fn empty_program_is_first_order() {
        assert!(FoProgram::default().is_first_order());
    }
}
