//! Translation by instantiation — the paper's core compiler technique
//! (\[1\], "Translation by Instantiation: Integrating Functional Features
//! into an Imperative Language").
//!
//! A (polymorphic) higher-order function is translated into one or more
//! specialized first-order monomorphic functions:
//!
//! * functional arguments of HOFs are bound into the specialized instance
//!   (the skeleton calls the argument-function instance directly);
//! * partial applications are translated by **lifting** their arguments:
//!   the lifted values become extra parameters of the instance and travel
//!   with the call;
//! * a polymorphic function becomes one monomorphic instance per distinct
//!   use, as determined by its calls.
//!
//! The classical alternative — closures — "causes important run-time
//! overheads"; instantiation produces code that "differ\[s\] only little
//! from the hand-written versions".
//!
//! Restriction (as in the paper): functional arguments must be statically
//! resolvable — a function name, an operator section, or a partial
//! application of those. Function-valued *results* would require
//! eta-expansion at the call site and are rejected with a diagnostic.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::rc::Rc;

use crate::ast::{Expr, Func, Stmt, TypeExpr, UnOp};
use crate::builtins::{Builtin, BuiltinKind};
use crate::bytecode::Intr;
use crate::check::{Checked, Scopes};
use crate::diag::{Diag, Phase, Pos, Result};
use crate::fo::*;
use crate::sym::{Sym, SymMap};
use crate::types::{Ty, VarMap};

/// What a functional value ultimately names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// A user-defined function.
    User(Sym),
    /// An operator section, monomorphized at the given operand type.
    Op(BinOp, FoTy),
    /// A scalar builtin (e.g. `min` used as a folding function).
    Intrinsic(Sym),
}

/// One element of a partial application's argument prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixItem {
    /// A lifted value argument of the given type.
    Val(FoTy),
    /// A functional argument, itself resolved.
    Fn(FnSig),
}

/// The static identity of a functional value: the target plus the shape
/// of the applied prefix. Two functional arguments with equal `FnSig`s
/// share one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSig {
    /// The named target.
    pub target: Target,
    /// Already-applied argument prefix.
    pub prefix: Vec<PrefixItem>,
}

impl FnSig {
    /// The lifted value types, flattened in evaluation order.
    pub fn flat_val_tys(&self) -> Vec<FoTy> {
        let mut out = Vec::new();
        self.push_flat_val_tys(&mut out);
        out
    }

    fn push_flat_val_tys(&self, out: &mut Vec<FoTy>) {
        for it in &self.prefix {
            match it {
                PrefixItem::Val(t) => out.push(t.clone()),
                PrefixItem::Fn(s) => s.push_flat_val_tys(out),
            }
        }
    }
}

/// A resolved functional value at a specific call site: identity plus
/// the lifted argument expressions (flattened, matching
/// [`FnSig::flat_val_tys`]).
#[derive(Debug, Clone)]
pub struct FnVal {
    /// Static identity.
    pub sig: FnSig,
    /// Lifted argument expressions.
    pub lifted: Vec<FoExpr>,
}

/// Run the instantiation procedure on a checked program. The result
/// carries the program's names (the checker's, plus those of the
/// instances made here) as its string table, and its literal table.
pub fn instantiate(ck: &mut Checked) -> Result<FoProgram> {
    let mut inst = Instantiator {
        ck,
        memo: SymMap::default(),
        synth_memo: Vec::new(),
        struct_memo: Vec::new(),
        counters: SymMap::default(),
        scratch: String::new(),
        out: FoProgram::default(),
    };
    let name = inst.request_instance(Sym::MAIN, Vec::new(), Vec::new(), Pos::default())?;
    debug_assert_eq!(name, Sym::MAIN);
    let mut out = inst.out;
    out.structs.shrink_to_fit();
    out.funcs.shrink_to_fit();
    out.names = ck.syms.to_names();
    out.lits = ck.lits.clone();
    Ok(out)
}

/// One instance of a user function: what it was specialized for.
struct Instance {
    value_tys: Vec<FoTy>,
    fn_sigs: Vec<FnSig>,
    name: Sym,
}

/// One synthesized wrapper (operator section or intrinsic).
struct Synth {
    target: Target,
    lifted: usize,
    rem: Vec<FoTy>,
    name: Sym,
}

/// One monomorphized struct: declared name and arguments -> instance.
struct StructInst {
    decl: Sym,
    args: Vec<FoTy>,
    name: Sym,
}

struct Instantiator<'a> {
    ck: &'a mut Checked,
    /// Instances made so far, by source function. The tables below are
    /// searched linearly: a program has a handful of each.
    memo: SymMap<Vec<Instance>>,
    synth_memo: Vec<Synth>,
    struct_memo: Vec<StructInst>,
    /// How many names were derived from each base name.
    counters: SymMap<u32>,
    /// Where synthesized names are spelled before they are interned.
    scratch: String,
    out: FoProgram,
}

/// Per-instance translation context.
struct Ctx {
    /// `$name` -> concrete type for this instance.
    var_map: VarMap,
    /// Functional parameter bindings.
    fn_bindings: Vec<(Sym, Rc<FnVal>)>,
    /// Local value scopes (shared with the checker's inference).
    scopes: Scopes,
    /// The instance's return type.
    ret: Ty,
}

impl Ctx {
    fn binding(&self, name: Sym) -> Option<&Rc<FnVal>> {
        self.fn_bindings.iter().rev().find(|(n, _)| *n == name).map(|(_, b)| b)
    }
}

/// What the base of an application, or of a functional argument, names.
enum Callee {
    /// A functional parameter of the enclosing instance.
    Param(Sym, Rc<FnVal>),
    /// A skeleton, with the positions of its functional parameters.
    Skeleton(&'static Builtin, SkelOp, &'static [usize]),
    /// A scalar builtin.
    Intrinsic(Sym, &'static Builtin, Intr),
    /// A function of the program.
    User(Sym, Rc<Func>),
    /// An operator section.
    Section(BinOp),
    /// Nothing that can be applied: a value, a constant, an unknown name.
    Other,
}

fn is_fn_param(p: &crate::ast::Param) -> bool {
    matches!(p.ty, TypeExpr::Fun(_, _))
}

impl<'a> Instantiator<'a> {
    /// Intern the name `spell` writes.
    fn name_with(&mut self, spell: impl FnOnce(&mut String, &Checked)) -> Sym {
        let mut s = std::mem::take(&mut self.scratch);
        s.clear();
        spell(&mut s, self.ck);
        let sym = self.ck.syms.intern(&s);
        self.scratch = s;
        sym
    }

    /// `base_1`, `base_2`, ...
    fn fresh_name(&mut self, base: Sym) -> Sym {
        let n = self.counters.get_or_insert_with(base, || 0);
        *n += 1;
        let n = *n;
        self.name_with(|s, ck| {
            let _ = write!(s, "{}_{n}", ck.syms.get(base));
        })
    }

    fn err<T>(&self, pos: Pos, msg: impl Into<String>) -> Result<T> {
        Err(Diag::new(Phase::Instantiate, pos, msg.into()))
    }

    fn name(&self, sym: Sym) -> &str {
        self.ck.syms.get(sym)
    }

    /// Classify the base of an application. A functional parameter
    /// shadows everything; a program function cannot have a builtin
    /// function's name (the checker rejects it).
    fn callee(&self, base: &Expr, ctx: &Ctx) -> Callee {
        let name = match base {
            Expr::Var(name, _) => *name,
            Expr::OpSection(op, _) => return Callee::Section(*op),
            _ => return Callee::Other,
        };
        if let Some(binding) = ctx.binding(name) {
            return Callee::Param(name, Rc::clone(binding));
        }
        match Builtin::of(name).map(|b| (b, b.kind)) {
            Some((b, BuiltinKind::Skeleton { op, fn_args })) => Callee::Skeleton(b, op, fn_args),
            Some((b, BuiltinKind::Intrinsic(op))) => Callee::Intrinsic(name, b, op),
            Some((_, BuiltinKind::Const(_))) | None => match self.ck.user_funcs.get(name) {
                Some(f) => Callee::User(name, Rc::clone(f)),
                None => Callee::Other,
            },
        }
    }

    // ------------------------------------------------------------------
    // types
    // ------------------------------------------------------------------

    fn foty(&mut self, ty: &Ty, pos: Pos) -> Result<FoTy> {
        match self.ck.uni.resolve(ty) {
            Ty::Int => Ok(FoTy::Int),
            Ty::Float => Ok(FoTy::Float),
            Ty::Void => Ok(FoTy::Void),
            Ty::Index => Ok(FoTy::Index),
            Ty::Bounds => Ok(FoTy::Bounds),
            Ty::Var(_) => self.err(
                pos,
                "type is not determined by this call; the instantiation procedure \
                 requires every instance to be fully monomorphic",
            ),
            Ty::Fun(_, _) => self.err(
                pos,
                "a function-typed value survives to a first-order position; \
                 function results require eta-expansion, which Skil restricts away",
            ),
            Ty::List(t) => Ok(FoTy::List(Box::new(self.foty(&t, pos)?))),
            Ty::Pardata(n, args) => {
                if n != Sym::ARRAY {
                    return self.err(
                        pos,
                        format!(
                            "pardata `{}` has no implementation linked into this build",
                            self.name(n)
                        ),
                    );
                }
                let el = self.foty(&args[0], pos)?;
                Ok(FoTy::Array(Box::new(el)))
            }
            Ty::Struct(n, args) => Ok(FoTy::Struct(self.struct_instance(n, &args, pos)?)),
        }
    }

    fn fotys(&mut self, tys: &[Ty], pos: Pos) -> Result<Vec<FoTy>> {
        let mut out = Vec::with_capacity(tys.len());
        for t in tys {
            out.push(self.foty(t, pos)?);
        }
        Ok(out)
    }

    fn ty_of(&self, t: &FoTy) -> Ty {
        match t {
            FoTy::Int => Ty::Int,
            FoTy::Float => Ty::Float,
            FoTy::Void => Ty::Void,
            FoTy::Index => Ty::Index,
            FoTy::Bounds => Ty::Bounds,
            FoTy::List(el) => Ty::List(Rc::new(self.ty_of(el))),
            FoTy::Array(el) => Ty::Pardata(Sym::ARRAY, Rc::new([self.ty_of(el)])),
            FoTy::Struct(inst) => {
                let made = self
                    .struct_memo
                    .iter()
                    .find(|m| m.name == *inst)
                    .expect("struct instance registered");
                Ty::Struct(made.decl, made.args.iter().map(|a| self.ty_of(a)).collect())
            }
        }
    }

    fn struct_instance(&mut self, name: Sym, args: &[Ty], pos: Pos) -> Result<Sym> {
        let fo_args = self.fotys(args, pos)?;
        if let Some(made) = self.struct_memo.iter().find(|m| m.decl == name && m.args == fo_args) {
            return Ok(made.name);
        }
        let inst_name = if fo_args.is_empty() {
            name
        } else {
            self.name_with(|s, ck| {
                s.push_str(ck.syms.get(name));
                for t in &fo_args {
                    s.push('_');
                    t.write_cname(&ck.syms, s);
                }
            })
        };
        self.struct_memo.push(StructInst { decl: name, args: fo_args, name: inst_name });
        let decl = self.ck.defs.structs.get(name).expect("declared struct").clone();
        let mut var_map: VarMap = decl.params.iter().copied().zip(args.iter().cloned()).collect();
        let mut fo_fields = Vec::with_capacity(decl.fields.len());
        for (fname, fty) in &decl.fields {
            let t = self.ck.lower(fty, &mut var_map, false, pos)?;
            fo_fields.push((*fname, self.foty(&t, pos)?));
        }
        self.out.structs.push(FoStruct { name: inst_name, fields: fo_fields.into() });
        Ok(inst_name)
    }

    fn struct_field_index(&self, inst: Sym, field: Sym, pos: Pos) -> Result<u32> {
        let def = self.out.struct_def(inst).expect("struct instance exists");
        match def.fields.iter().position(|(n, _)| *n == field) {
            Some(i) => Ok(i as u32),
            None => self.err(
                pos,
                format!("struct `{}` has no field `{}`", self.name(inst), self.name(field)),
            ),
        }
    }

    // ------------------------------------------------------------------
    // instances
    // ------------------------------------------------------------------

    /// Specialize user function `fname` for concrete value-parameter
    /// types and functional bindings; returns the instance name.
    fn request_instance(
        &mut self,
        fname: Sym,
        value_tys: Vec<FoTy>,
        fn_sigs: Vec<FnSig>,
        pos: Pos,
    ) -> Result<Sym> {
        let made = self.memo.get(fname).and_then(|insts| {
            insts.iter().find(|i| i.value_tys == value_tys && i.fn_sigs == fn_sigs)
        });
        if let Some(inst) = made {
            return Ok(inst.name);
        }
        let inst_name = if fname == Sym::MAIN { Sym::MAIN } else { self.fresh_name(fname) };

        let Some(f) = self.ck.user_funcs.get(fname).cloned() else {
            return self.err(pos, format!("unknown function `{}`", self.name(fname)));
        };

        // Lower the signature with instance-fresh type variables.
        let mut var_map = VarMap::new();
        let mut param_tys = Vec::with_capacity(f.params.len());
        for p in &f.params {
            param_tys.push(self.ck.lower(&p.ty, &mut var_map, true, p.pos)?);
        }
        let ret = self.ck.lower(&f.ret, &mut var_map, true, f.pos)?;

        // Bind value parameters to the requested concrete types and
        // functional parameters to their targets' applied types.
        let mut ctx =
            Ctx { var_map, fn_bindings: Vec::new(), scopes: Scopes::default(), ret: ret.clone() };
        ctx.scopes.push();

        let mut fo_params: Vec<(Sym, FoTy)> = Vec::with_capacity(f.params.len());
        let mut vt = value_tys.iter();
        let mut fs = fn_sigs.iter();
        for (p, pty) in f.params.iter().zip(&param_tys) {
            if is_fn_param(p) {
                let Some(sig) = fs.next() else {
                    return self.err(
                        p.pos,
                        format!("missing functional binding for parameter `{}`", self.name(p.name)),
                    );
                };
                // Unify the parameter's function type with the target's
                // applied type so element types become concrete inside.
                let applied = self.sig_applied_ty(sig, p.pos)?;
                self.ck.unify(pty, &applied, p.pos)?;
                // Lifted values become extra instance parameters.
                let mut lifted_exprs = Vec::new();
                for (i, lt) in sig.flat_val_tys().into_iter().enumerate() {
                    let lname = self.name_with(|s, ck| {
                        let _ = write!(s, "{}__l{i}", ck.syms.get(p.name));
                    });
                    ctx.scopes.declare(lname, self.ty_of(&lt));
                    fo_params.push((lname, lt));
                    lifted_exprs.push(FoExpr::Var(lname));
                }
                ctx.scopes.declare(p.name, pty.clone());
                let binding = FnVal { sig: sig.clone(), lifted: lifted_exprs };
                ctx.fn_bindings.push((p.name, Rc::new(binding)));
            } else {
                let Some(want) = vt.next() else {
                    return self.err(
                        p.pos,
                        format!("missing value type for parameter `{}`", self.name(p.name)),
                    );
                };
                let want_ty = self.ty_of(want);
                self.ck.unify(pty, &want_ty, p.pos)?;
                fo_params.push((p.name, want.clone()));
                ctx.scopes.declare(p.name, pty.clone());
            }
        }
        // Registered before the body is translated, so that a recursive
        // request finds this instance.
        let insts = self.memo.get_or_insert_with(fname, Vec::new);
        insts.push(Instance { value_tys, fn_sigs, name: inst_name });

        let body = self.tr_block(&f.body.0, &mut ctx)?;
        let ret_fo = self.foty(&ret, f.pos)?;
        self.out.funcs.push(FoFunc {
            name: inst_name,
            origin: fname,
            params: fo_params.into(),
            ret: ret_fo,
            body,
        });
        Ok(inst_name)
    }

    /// The (curried) type a functional value presents after its prefix
    /// has been applied.
    fn sig_applied_ty(&mut self, sig: &FnSig, pos: Pos) -> Result<Ty> {
        match &sig.target {
            Target::User(h) => {
                let scheme = self.ck.funcs.get(*h).expect("checked function");
                let t = self.ck.uni.instantiate(scheme);
                let Ty::Fun(ptys, rty) = t else {
                    return self.err(pos, format!("`{}` is not a function", self.name(*h)));
                };
                let l = sig.prefix.len();
                if l > ptys.len() {
                    return self.err(pos, format!("over-applied prefix for `{}`", self.name(*h)));
                }
                for (item, pty) in sig.prefix.iter().zip(ptys.iter()) {
                    let applied = match item {
                        PrefixItem::Val(ft) => self.ty_of(ft),
                        PrefixItem::Fn(inner) => self.sig_applied_ty(inner, pos)?,
                    };
                    self.ck.unify(pty, &applied, pos)?;
                }
                Ok(Ty::Fun(ptys[l..].into(), rty))
            }
            Target::Op(op, ft) => {
                let a = self.ty_of(ft);
                let ret = if op.is_arithmetic() { a.clone() } else { Ty::Int };
                let params = [a.clone(), a];
                Ok(Ty::Fun(params[sig.prefix.len()..].into(), Rc::new(ret)))
            }
            Target::Intrinsic(name) => {
                let builtin = Builtin::of(*name).expect("an intrinsic");
                let Ty::Fun(ptys, rty) = builtin.instantiate(&mut self.ck.uni) else {
                    return self.err(pos, format!("`{}` is not a function", builtin.name));
                };
                for (item, pty) in sig.prefix.iter().zip(ptys.iter()) {
                    if let PrefixItem::Val(ft) = item {
                        let want = self.ty_of(ft);
                        self.ck.unify(pty, &want, pos)?;
                    }
                }
                Ok(Ty::Fun(ptys[sig.prefix.len()..].into(), rty))
            }
        }
    }

    /// The first-order instance a [`FnSig`] calls into, given the types
    /// of the remaining (element) arguments.
    fn instance_for_sig(&mut self, sig: &FnSig, remaining_tys: &[Ty], pos: Pos) -> Result<Sym> {
        match &sig.target {
            Target::User(h) => {
                let ast = self.ck.user_funcs.get(*h).expect("checked function").clone();
                let mut value_tys = Vec::new();
                let mut fn_sigs = Vec::new();
                let mut rem = remaining_tys.iter();
                for (i, p) in ast.params.iter().enumerate() {
                    if i < sig.prefix.len() {
                        match &sig.prefix[i] {
                            PrefixItem::Val(t) => value_tys.push(t.clone()),
                            PrefixItem::Fn(s) => fn_sigs.push(s.clone()),
                        }
                    } else {
                        if is_fn_param(p) {
                            return self.err(
                                pos,
                                format!(
                                    "functional parameter `{}` of `{}` is not covered by \
                                     the partial application prefix",
                                    self.name(p.name),
                                    self.name(*h)
                                ),
                            );
                        }
                        let Some(t) = rem.next() else {
                            return self.err(
                                pos,
                                format!("arity mismatch instantiating `{}`", self.name(*h)),
                            );
                        };
                        value_tys.push(self.foty(t, pos)?);
                    }
                }
                self.request_instance(*h, value_tys, fn_sigs, pos)
            }
            Target::Op(op, ft) => Ok(self.synth_op(*op, ft, sig.prefix.len())),
            Target::Intrinsic(name) => self.synth_intrinsic(*name, sig, remaining_tys, pos),
        }
    }

    /// Synthesize the first-order function an operator section denotes
    /// (the paper's `(op)` conversion), e.g. `op_add_int(a, b)`. Lifted
    /// operands are simply its leading parameters.
    fn synth_op(&mut self, op: BinOp, ft: &FoTy, lifted: usize) -> Sym {
        let made = self.synth_memo.iter().find(|m| {
            matches!(&m.target, Target::Op(o, t) if *o == op && t == ft) && m.lifted == lifted
        });
        if let Some(m) = made {
            return m.name;
        }
        let opname = match op {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::Gt => "gt",
            BinOp::Ge => "ge",
            BinOp::And => "and",
            BinOp::Or => "or",
        };
        let base = self.name_with(|s, ck| {
            let _ = write!(s, "op_{opname}_");
            ft.write_cname(&ck.syms, s);
        });
        let name = self.fresh_name(base);
        let target = Target::Op(op, ft.clone());
        self.synth_memo.push(Synth { target, lifted, rem: Vec::new(), name });
        let ret = if matches!(
            op,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        ) {
            FoTy::Int
        } else {
            ft.clone()
        };
        let body = FoStmt::Return(Some(FoExpr::binary(
            op,
            *ft == FoTy::Float,
            FoExpr::Var(Sym::X0),
            FoExpr::Var(Sym::X1),
        )));
        let origin = self.name_with(|s, _| {
            let _ = write!(s, "({})", op.lexeme());
        });
        self.out.funcs.push(FoFunc {
            name,
            origin,
            params: Box::new([(Sym::X0, ft.clone()), (Sym::X1, ft.clone())]),
            ret,
            body: Box::new([body]),
        });
        name
    }

    /// Synthesize a wrapper instance for a scalar builtin used as a
    /// functional argument (e.g. `min` as a folding function).
    fn synth_intrinsic(
        &mut self,
        name: Sym,
        sig: &FnSig,
        remaining_tys: &[Ty],
        pos: Pos,
    ) -> Result<Sym> {
        let rem = self.fotys(remaining_tys, pos)?;
        let made = self
            .synth_memo
            .iter()
            .find(|m| m.target == sig.target && m.lifted == sig.prefix.len() && m.rem == rem);
        if let Some(m) = made {
            return Ok(m.name);
        }
        let builtin = Builtin::of(name).expect("an intrinsic");
        let BuiltinKind::Intrinsic(op) = builtin.kind else { unreachable!("an intrinsic") };
        let applied = self.sig_applied_ty(sig, pos)?;
        let Ty::Fun(ptys, rty) = applied else {
            return self.err(pos, format!("`{}` is not applicable", builtin.name));
        };
        let base = self.name_with(|s, _| {
            let _ = write!(s, "{}_w", builtin.name);
        });
        let wname = self.fresh_name(base);
        let target = sig.target.clone();
        self.synth_memo.push(Synth { target, lifted: sig.prefix.len(), rem, name: wname });
        let lifted = sig.flat_val_tys();
        let mut params = Vec::with_capacity(lifted.len() + ptys.len());
        for (i, lt) in lifted.into_iter().enumerate() {
            let l = self.name_with(|s, _| {
                let _ = write!(s, "l{i}");
            });
            params.push((l, lt));
        }
        for (i, pt) in ptys.iter().enumerate() {
            let t = self.foty(pt, pos)?;
            let x = self.name_with(|s, _| {
                let _ = write!(s, "x{i}");
            });
            params.push((x, t));
        }
        let args: Box<[FoExpr]> = params.iter().map(|(p, _)| FoExpr::Var(*p)).collect();
        let ret = self.foty(&rty, pos)?;
        let body = FoStmt::Return(Some(FoExpr::Intrinsic(op, args)));
        self.out.funcs.push(FoFunc {
            name: wname,
            origin: name,
            params: params.into(),
            ret,
            body: Box::new([body]),
        });
        Ok(wname)
    }

    // ------------------------------------------------------------------
    // functional-argument resolution
    // ------------------------------------------------------------------

    /// A value argument in a partial application's prefix: check it
    /// against the parameter, lift it.
    fn lift_arg(
        &mut self,
        a: &Expr,
        pty: &Ty,
        prefix: &mut Vec<PrefixItem>,
        lifted: &mut Vec<FoExpr>,
        ctx: &mut Ctx,
    ) -> Result<()> {
        let at = self.ck.infer_expr(a, &ctx.scopes)?;
        self.ck.unify(pty, &at, a.pos())?;
        prefix.push(PrefixItem::Val(self.foty(&at, a.pos())?));
        lifted.push(self.tr_expr(a, ctx)?);
        Ok(())
    }

    /// Resolve a functional argument expression to its static identity
    /// plus lifted argument expressions. `expected` is the (resolved)
    /// function type the context requires.
    fn resolve_fn_val(&mut self, e: &Expr, expected: &Ty, ctx: &mut Ctx) -> Result<FnVal> {
        let (base, prefix_args) = flatten_call(e);
        let pos = e.pos();

        match self.callee(base, ctx) {
            Callee::Param(_, binding) => {
                let applied = self.sig_applied_ty(&binding.sig, pos)?;
                if prefix_args.is_empty() {
                    self.ck.unify(&applied, expected, pos)?;
                    return Ok((*binding).clone());
                }
                // further partial application of a functional parameter:
                // extend the prefix
                let FnVal { mut sig, mut lifted } = (*binding).clone();
                let Ty::Fun(ptys, rty) = applied else {
                    return self.err(pos, "over-application of functional parameter");
                };
                if prefix_args.len() > ptys.len() {
                    return self.err(pos, "over-application of functional parameter");
                }
                for (a, pty) in prefix_args.iter().zip(ptys.iter()) {
                    self.lift_arg(a, pty, &mut sig.prefix, &mut lifted, ctx)?;
                }
                let rest = Ty::Fun(ptys[prefix_args.len()..].into(), rty);
                self.ck.unify(&rest, expected, pos)?;
                Ok(FnVal { sig, lifted })
            }
            Callee::User(h, ast) => {
                let scheme = self.ck.funcs.get(h).expect("checked function");
                let t = self.ck.uni.instantiate(scheme);
                let Ty::Fun(ptys, rty) = t else {
                    return self.err(pos, format!("`{}` is not a function", self.name(h)));
                };
                if prefix_args.len() > ptys.len() {
                    return self.err(pos, format!("too many arguments to `{}`", self.name(h)));
                }
                // the remaining signature must match the expectation
                let rest = Ty::Fun(ptys[prefix_args.len()..].into(), rty);
                self.ck.unify(&rest, expected, pos)?;
                let mut prefix = Vec::with_capacity(prefix_args.len());
                let mut lifted = Vec::new();
                for (i, a) in prefix_args.iter().enumerate() {
                    if is_fn_param(&ast.params[i]) {
                        let want = self.ck.uni.resolve(&ptys[i]);
                        let inner = self.resolve_fn_val(a, &want, ctx)?;
                        lifted.extend(inner.lifted);
                        prefix.push(PrefixItem::Fn(inner.sig));
                    } else {
                        self.lift_arg(a, &ptys[i], &mut prefix, &mut lifted, ctx)?;
                    }
                }
                Ok(FnVal { sig: FnSig { target: Target::User(h), prefix }, lifted })
            }
            Callee::Intrinsic(name, builtin, _) => {
                let Ty::Fun(ptys, rty) = builtin.instantiate(&mut self.ck.uni) else {
                    return self.err(pos, format!("`{}` is not a function", builtin.name));
                };
                let rest = Ty::Fun(ptys[prefix_args.len().min(ptys.len())..].into(), rty);
                self.ck.unify(&rest, expected, pos)?;
                let mut prefix = Vec::new();
                let mut lifted = Vec::new();
                for (a, pty) in prefix_args.iter().zip(ptys.iter()) {
                    self.lift_arg(a, pty, &mut prefix, &mut lifted, ctx)?;
                }
                Ok(FnVal { sig: FnSig { target: Target::Intrinsic(name), prefix }, lifted })
            }
            Callee::Section(op) => {
                // operand type from the expectation
                let a = self.ck.uni.fresh();
                let ret = if op.is_arithmetic() { a.clone() } else { Ty::Int };
                let ptys = [a.clone(), a.clone()];
                let rest = Ty::Fun(ptys[prefix_args.len().min(2)..].into(), Rc::new(ret));
                self.ck.unify(&rest, expected, pos)?;
                let mut prefix = Vec::new();
                let mut lifted = Vec::new();
                for arg in &prefix_args {
                    self.lift_arg(arg, &a, &mut prefix, &mut lifted, ctx)?;
                }
                let ft = self.foty(&a, pos)?;
                Ok(FnVal { sig: FnSig { target: Target::Op(op, ft), prefix }, lifted })
            }
            Callee::Skeleton(..) | Callee::Other => self.err(
                base.pos(),
                "a functional argument must be a function name, an operator section, \
                 or a partial application of those (the Skil instantiation restriction)",
            ),
        }
    }

    // ------------------------------------------------------------------
    // body translation
    // ------------------------------------------------------------------

    fn tr_block(&mut self, stmts: &[Stmt], ctx: &mut Ctx) -> Result<Box<[FoStmt]>> {
        ctx.scopes.push();
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            out.push(self.tr_stmt(s, ctx)?);
        }
        ctx.scopes.pop();
        Ok(out.into())
    }

    fn tr_exprs<'e>(
        &mut self,
        es: impl ExactSizeIterator<Item = &'e Expr>,
        ctx: &mut Ctx,
    ) -> Result<Box<[FoExpr]>> {
        let mut out = Vec::with_capacity(es.len());
        for e in es {
            out.push(self.tr_expr(e, ctx)?);
        }
        Ok(out.into())
    }

    /// A condition: an `int`, translated.
    fn tr_cond(&mut self, cond: &Expr, ctx: &mut Ctx) -> Result<FoExpr> {
        let ct = self.ck.infer_expr(cond, &ctx.scopes)?;
        self.ck.unify(&ct, &Ty::Int, cond.pos())?;
        self.tr_expr(cond, ctx)
    }

    fn tr_stmt(&mut self, s: &Stmt, ctx: &mut Ctx) -> Result<FoStmt> {
        match s {
            Stmt::Decl { ty, name, init, pos } => {
                let t = self.ck.lower(ty, &mut ctx.var_map, false, *pos)?;
                let fo_init = match init {
                    Some(e) => {
                        let it = self.ck.infer_expr(e, &ctx.scopes)?;
                        self.ck.unify(&t, &it, *pos)?;
                        Some(self.tr_expr(e, ctx)?)
                    }
                    None => None,
                };
                let fo_ty = self.foty(&t, *pos)?;
                ctx.scopes.declare(*name, t);
                Ok(FoStmt::Decl { name: *name, ty: fo_ty, init: fo_init })
            }
            Stmt::Assign { name, value, pos } => {
                let Some(vt) = ctx.scopes.lookup(*name).cloned() else {
                    return self.err(*pos, format!("undeclared `{}`", self.name(*name)));
                };
                let et = self.ck.infer_expr(value, &ctx.scopes)?;
                self.ck.unify(&vt, &et, *pos)?;
                Ok(FoStmt::Assign { name: *name, value: self.tr_expr(value, ctx)? })
            }
            Stmt::If { cond, then, els } => Ok(FoStmt::If {
                cond: self.tr_cond(cond, ctx)?,
                then: self.tr_block(&then.0, ctx)?,
                els: match els {
                    Some(b) => self.tr_block(&b.0, ctx)?,
                    None => Box::new([]),
                },
            }),
            Stmt::While { cond, body } => Ok(FoStmt::While {
                cond: self.tr_cond(cond, ctx)?,
                body: self.tr_block(&body.0, ctx)?,
            }),
            Stmt::For { init, cond, step, body } => {
                ctx.scopes.push();
                let fo_init = match init {
                    Some(s) => Some(Box::new(self.tr_stmt(s, ctx)?)),
                    None => None,
                };
                let fo_cond = match cond {
                    Some(c) => Some(self.tr_cond(c, ctx)?),
                    None => None,
                };
                let fo_step = match step {
                    Some(s) => Some(Box::new(self.tr_stmt(s, ctx)?)),
                    None => None,
                };
                let fo_body = self.tr_block(&body.0, ctx)?;
                ctx.scopes.pop();
                Ok(FoStmt::For { init: fo_init, cond: fo_cond, step: fo_step, body: fo_body })
            }
            Stmt::Return { value, pos } => match value {
                Some(e) => {
                    let t = self.ck.infer_expr(e, &ctx.scopes)?;
                    self.ck.unify(&ctx.ret, &t, *pos)?;
                    Ok(FoStmt::Return(Some(self.tr_expr(e, ctx)?)))
                }
                None => Ok(FoStmt::Return(None)),
            },
            Stmt::Expr(e) => Ok(FoStmt::Expr(self.tr_expr(e, ctx)?)),
        }
    }

    /// Whether `e` computes on floats.
    fn is_float(&mut self, e: &Expr, ctx: &Ctx) -> Result<bool> {
        let t = self.ck.infer_expr(e, &ctx.scopes)?;
        Ok(matches!(self.ck.uni.head(&t), Ty::Float))
    }

    fn tr_expr(&mut self, e: &Expr, ctx: &mut Ctx) -> Result<FoExpr> {
        match e {
            Expr::Int(slot, _) => Ok(FoExpr::Int(*slot)),
            Expr::Float(slot, _) => Ok(FoExpr::Float(*slot)),
            Expr::Var(name, pos) => {
                if ctx.binding(*name).is_some() {
                    return self.err(
                        *pos,
                        format!("functional parameter `{}` used as a value", self.name(*name)),
                    );
                }
                if ctx.scopes.lookup(*name).is_some() {
                    return Ok(FoExpr::Var(*name));
                }
                if let Some(Builtin { kind: BuiltinKind::Const(op), .. }) = Builtin::of(*name) {
                    return Ok(FoExpr::Intrinsic(*op, Box::new([])));
                }
                self.err(*pos, format!("`{}` is not a value in this context", self.name(*name)))
            }
            Expr::Call { pos, .. } => self.tr_call(e, *pos, ctx),
            Expr::OpSection(_, pos) => {
                self.err(*pos, "an operator section is only meaningful as a functional argument")
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let float = self.is_float(lhs, ctx)?;
                Ok(FoExpr::binary(*op, float, self.tr_expr(lhs, ctx)?, self.tr_expr(rhs, ctx)?))
            }
            Expr::Unary { op, expr, .. } => {
                let float = self.is_float(expr, ctx)?;
                Ok(FoExpr::Unary {
                    neg: *op == UnOp::Neg,
                    float,
                    expr: Box::new(self.tr_expr(expr, ctx)?),
                })
            }
            Expr::Field { expr, field, pos } => {
                let t = self.ck.infer_expr(expr, &ctx.scopes)?;
                let index = match self.ck.uni.resolve(&t) {
                    Ty::Bounds => match *field {
                        Sym::LOWER_BD => 0,
                        Sym::UPPER_BD => 1,
                        _ => {
                            return self
                                .err(*pos, format!("bad Bounds field `{}`", self.name(*field)))
                        }
                    },
                    Ty::Struct(name, args) => {
                        let inst = self.struct_instance(name, &args, *pos)?;
                        self.struct_field_index(inst, *field, *pos)?
                    }
                    other => {
                        return self
                            .err(*pos, format!("field access on `{}`", self.ck.show(&other)))
                    }
                };
                Ok(FoExpr::Field { expr: Box::new(self.tr_expr(expr, ctx)?), index, name: *field })
            }
            Expr::IndexAt { expr, index, .. } => {
                Ok(FoExpr::IndexAt(Box::new([self.tr_expr(expr, ctx)?, self.tr_expr(index, ctx)?])))
            }
            Expr::BraceList { elems, .. } => {
                Ok(FoExpr::MakeIndex(self.tr_exprs(elems.iter(), ctx)?))
            }
            Expr::StructLit { name, fields, pos } => {
                let t = self.ck.infer_expr(e, &ctx.scopes)?;
                let Ty::Struct(_, args) = self.ck.uni.resolve(&t) else {
                    return self.err(*pos, "struct literal did not resolve");
                };
                let inst = self.struct_instance(*name, &args, *pos)?;
                Ok(FoExpr::MakeStruct(inst, self.tr_exprs(fields.iter(), ctx)?))
            }
        }
    }

    fn tr_call(&mut self, e: &Expr, pos: Pos, ctx: &mut Ctx) -> Result<FoExpr> {
        let (base, args) = flatten_call(e);

        match self.callee(base, ctx) {
            Callee::Param(name, binding) => {
                // call through a functional parameter: direct call of the
                // bound instance with lifted arguments prepended
                let applied = self.sig_applied_ty(&binding.sig, pos)?;
                let Ty::Fun(ptys, _) = applied else {
                    return self.err(pos, "functional parameter is not applicable");
                };
                if args.len() != ptys.len() {
                    return self.err(
                        pos,
                        format!(
                            "call through `{}` needs {} arguments, got {} \
                             (partial results require eta-expansion)",
                            self.name(name),
                            ptys.len(),
                            args.len()
                        ),
                    );
                }
                let mut remaining_tys = Vec::with_capacity(args.len());
                let mut fo_args = Vec::with_capacity(binding.lifted.len() + args.len());
                fo_args.extend(binding.lifted.iter().cloned());
                for (a, pty) in args.iter().zip(ptys.iter()) {
                    let at = self.ck.infer_expr(a, &ctx.scopes)?;
                    self.ck.unify(pty, &at, a.pos())?;
                    remaining_tys.push(at);
                    fo_args.push(self.tr_expr(a, ctx)?);
                }
                let inst = self.instance_for_sig(&binding.sig, &remaining_tys, pos)?;
                Ok(FoExpr::Call(inst, fo_args.into()))
            }
            Callee::Skeleton(builtin, op, fn_args) => {
                self.tr_skeleton(builtin, op, fn_args, &args, pos, ctx)
            }
            Callee::User(h, ast) => {
                if args.len() != ast.params.len() {
                    return self.err(
                        pos,
                        format!(
                            "partial application of `{}` outside an argument position \
                             (would require a closure; Skil instantiates instead)",
                            self.name(h)
                        ),
                    );
                }
                let scheme = self.ck.funcs.get(h).expect("checked function");
                let t = self.ck.uni.instantiate(scheme);
                let Ty::Fun(ptys, _) = t else {
                    return self.err(pos, format!("`{}` is not a function", self.name(h)));
                };
                // value arguments and the lifted arguments of functional
                // ones, in parameter order
                let mut value_tys = Vec::new();
                let mut fn_sigs = Vec::new();
                let mut fo_args = Vec::with_capacity(args.len());
                for ((a, p), pty) in args.iter().zip(&ast.params).zip(ptys.iter()) {
                    if is_fn_param(p) {
                        let want = self.ck.uni.resolve(pty);
                        let fv = self.resolve_fn_val(a, &want, ctx)?;
                        fo_args.extend(fv.lifted);
                        fn_sigs.push(fv.sig);
                    } else {
                        let at = self.ck.infer_expr(a, &ctx.scopes)?;
                        self.ck.unify(pty, &at, a.pos())?;
                        value_tys.push(self.foty(&at, a.pos())?);
                        fo_args.push(self.tr_expr(a, ctx)?);
                    }
                }
                let inst = self.request_instance(h, value_tys, fn_sigs, pos)?;
                Ok(FoExpr::Call(inst, fo_args.into()))
            }
            Callee::Intrinsic(_, _, op) => {
                // scalar intrinsic call; validate via inference
                let _ = self.ck.infer_expr(e, &ctx.scopes)?;
                Ok(FoExpr::Intrinsic(op, self.tr_exprs(args.iter().copied(), ctx)?))
            }
            Callee::Section(op) => {
                if args.len() != 2 {
                    return self.err(
                        pos,
                        "a partially applied operator section is only meaningful as a \
                         functional argument",
                    );
                }
                let lt = self.ck.infer_expr(args[0], &ctx.scopes)?;
                let rt = self.ck.infer_expr(args[1], &ctx.scopes)?;
                self.ck.unify(&lt, &rt, pos)?;
                let float = matches!(self.ck.uni.head(&lt), Ty::Float);
                Ok(FoExpr::binary(
                    op,
                    float,
                    self.tr_expr(args[0], ctx)?,
                    self.tr_expr(args[1], ctx)?,
                ))
            }
            Callee::Other => self.err(base.pos(), "uncallable expression"),
        }
    }

    fn tr_skeleton(
        &mut self,
        builtin: &Builtin,
        op: SkelOp,
        fn_args: &[usize],
        args: &[&Expr],
        pos: Pos,
        ctx: &mut Ctx,
    ) -> Result<FoExpr> {
        let Ty::Fun(ptys, _) = builtin.instantiate(&mut self.ck.uni) else {
            unreachable!("skeleton schemes are functions")
        };
        if args.len() != ptys.len() {
            return self.err(
                pos,
                format!("{} takes {} arguments, got {}", builtin.name, ptys.len(), args.len()),
            );
        }
        // value args first (so array element types are known), then
        // functional args
        let mut fo_args = Vec::with_capacity(args.len() - fn_args.len());
        for (i, (a, pty)) in args.iter().zip(ptys.iter()).enumerate() {
            if fn_args.contains(&i) {
                continue;
            }
            let at = self.ck.infer_expr(a, &ctx.scopes)?;
            self.ck.unify(pty, &at, a.pos())?;
            fo_args.push(self.tr_expr(a, ctx)?);
        }
        let mut fns = Vec::with_capacity(fn_args.len());
        for &i in fn_args {
            let want = self.ck.uni.resolve(&ptys[i]);
            let fv = self.resolve_fn_val(args[i], &want, ctx)?;
            let Ty::Fun(rem_ptys, _) = self.ck.uni.resolve(&ptys[i]) else {
                return self.err(pos, "skeleton functional parameter is not a function");
            };
            let inst = self.instance_for_sig(&fv.sig, &rem_ptys, pos)?;
            fns.push(FnInst { func: inst, lifted: fv.lifted.into() });
        }
        // the element type: from the first array-typed parameter, or —
        // for array_create, which has none — from the initializer's
        // return type
        let mut elem = FoTy::Void;
        for pty in ptys.iter() {
            if let Ty::Pardata(Sym::ARRAY, targs) = self.ck.uni.resolve(pty) {
                elem = self.foty(&targs[0], pos)?;
                break;
            }
        }
        if op == SkelOp::Create {
            if let Ty::Fun(_, rty) = self.ck.uni.resolve(&ptys[4]) {
                elem = self.foty(&rty, pos)?;
            }
        }
        Ok(FoExpr::Skel(Box::new(SkelCall { op, fns: fns.into(), args: fo_args.into(), elem })))
    }
}

/// Flatten a curried application chain `f(a)(b, c)` into its base `f`
/// and all arguments in order; an expression that is no call is its own
/// base.
fn flatten_call(e: &Expr) -> (&Expr, Vec<&Expr>) {
    let mut base = e;
    let mut groups: Vec<&Vec<Expr>> = Vec::new();
    while let Expr::Call { callee, args, .. } = base {
        groups.push(args);
        base = callee;
    }
    (base, groups.into_iter().rev().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::parser::parse;

    fn compile(src: &str) -> FoProgram {
        let prog = parse(src).unwrap();
        let mut ck = check(&prog).unwrap();
        match instantiate(&mut ck) {
            Ok(p) => p,
            Err(e) => panic!("instantiation failed: {e}\n{src}"),
        }
    }

    /// The instances made from source function `origin`.
    fn instances_of<'p>(p: &'p FoProgram, origin: &str) -> Vec<&'p FoFunc> {
        p.funcs.iter().filter(|f| p.name(f.origin) == origin).collect()
    }

    #[test]
    fn monomorphic_passthrough() {
        let p = compile(
            "int inc(int x) { return x + 1; }\n\
             void main() { int y = inc(41); print(y); }",
        );
        assert!(p.is_first_order());
        assert!(p.func_named("main").is_some());
        assert!(p.func_named("inc_1").is_some());
    }

    #[test]
    fn polymorphic_function_gets_one_instance_per_type() {
        let p = compile(
            "$a ident($a x) { return x; }\n\
             void main() { int i = ident(3); float f = ident(2.5); int j = ident(4); }",
        );
        let idents = instances_of(&p, "ident");
        assert_eq!(idents.len(), 2, "int and float instances only");
        let tys: Vec<&FoTy> = idents.iter().map(|f| &f.params[0].1).collect();
        assert!(tys.contains(&&FoTy::Int));
        assert!(tys.contains(&&FoTy::Float));
    }

    #[test]
    fn hof_with_plain_function_argument() {
        let p = compile(
            "int inc(int x) { return x + 1; }\n\
             int apply(int f(int), int x) { return f(x); }\n\
             void main() { int y = apply(inc, 41); }",
        );
        assert!(p.is_first_order());
        // apply's instance has one value parameter (x), no functional one
        let a = instances_of(&p, "apply")[0];
        assert_eq!(a.params.len(), 1);
        // and its body calls the inc instance directly
        let inc = instances_of(&p, "inc")[0];
        let FoStmt::Return(Some(FoExpr::Call(callee, _))) = &a.body[0] else {
            panic!("{:?}", a.body)
        };
        assert_eq!(*callee, inc.name);
    }

    #[test]
    fn partial_application_lifts_arguments() {
        // the paper's above_thresh example: t is lifted into the
        // instance's parameter list
        let p = compile(
            "int above_thresh(float thresh, float elem, Index ix) { return elem >= thresh; }\n\
             float init_f(Index ix) { return itof(ix[0]); }\n\
             int zero(Index ix) { return 0; }\n\
             void main() {\n\
               array<float> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, init_f, DISTR_DEFAULT);\n\
               array<int> b = array_create(1, {8,1}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);\n\
               float t = 3.0;\n\
               array_map(above_thresh(t), a, b);\n\
             }",
        );
        assert!(p.is_first_order());
        let main = p.func_named("main").unwrap();
        // find the map skeleton call
        fn find_map(stmts: &[FoStmt]) -> Option<(&FnInst, &FoTy)> {
            for s in stmts {
                if let FoStmt::Expr(FoExpr::Skel(call)) = s {
                    if call.op == SkelOp::Map {
                        return Some((&call.fns[0], &call.elem));
                    }
                }
            }
            None
        }
        let (fi, _elem) = find_map(&main.body).expect("map call present");
        assert_eq!(fi.lifted.len(), 1, "t is lifted");
        assert_eq!(fi.lifted[0], FoExpr::Var(p.names.find("t").unwrap()));
        // the instance takes (thresh, elem, ix)
        let inst = p.func(fi.func).unwrap();
        assert_eq!(p.name(inst.origin), "above_thresh");
        assert_eq!(inst.params.len(), 3);
        assert_eq!(inst.params[0].1, FoTy::Float);
    }

    #[test]
    fn operator_sections_become_synth_functions() {
        let p = compile(
            "float initf(Index ix) { return itof(ix[0]); }\n\
             void main() {\n\
               array<float> a = array_create(2, {4,4}, {0,0}, {0-1,0-1}, initf, DISTR_TORUS2D);\n\
               array<float> b = array_create(2, {4,4}, {0,0}, {0-1,0-1}, initf, DISTR_TORUS2D);\n\
               array<float> c = array_create(2, {4,4}, {0,0}, {0-1,0-1}, initf, DISTR_TORUS2D);\n\
               array_gen_mult(a, b, (+), (*), c);\n\
             }",
        );
        assert!(p.is_first_order());
        let add = p.func_named("op_add_float_1").unwrap();
        assert_eq!(add.params.len(), 2);
        assert_eq!(p.name(add.origin), "(+)");
        let mul = p.func_named("op_mul_float_1").unwrap();
        assert_eq!(mul.ret, FoTy::Float);
    }

    #[test]
    fn intrinsic_as_fold_function_gets_wrapper() {
        let p = compile(
            "int initf(Index ix) { return ix[0]; }\n\
             int conv(int x, Index ix) { return x; }\n\
             void main() {\n\
               array<int> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
               int m = array_fold(conv, min, a);\n\
               print(m);\n\
             }",
        );
        assert!(p.is_first_order());
        let w = p.func_named("min_w_1").expect("wrapper instance");
        assert_eq!(p.name(w.origin), "min");
        assert!(matches!(&w.body[0], FoStmt::Return(Some(FoExpr::Intrinsic(Intr::Min, args)))
            if args.len() == 2));
    }

    #[test]
    fn fn_param_passed_through_hofs() {
        // apply passes its functional parameter onward — the paper's
        // d&c recursion pattern in miniature
        let p = compile(
            "int inc(int x) { return x + 1; }\n\
             int apply(int f(int), int x) { return f(x); }\n\
             int twice(int g(int), int x) { return apply(g, apply(g, x)); }\n\
             void main() { int y = twice(inc, 40); print(y); }",
        );
        assert!(p.is_first_order());
        // twice's instance exists and apply's instance is shared
        assert_eq!(instances_of(&p, "apply").len(), 1);
    }

    #[test]
    fn recursive_function_instantiates_once() {
        let p = compile(
            "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }\n\
             void main() { print(fact(5)); }",
        );
        assert_eq!(instances_of(&p, "fact").len(), 1);
    }

    #[test]
    fn partial_application_outside_argument_position_rejected() {
        let prog = parse(
            "int add(int a, int b) { return a + b; }\n\
             void main() { int x = add(1); }",
        )
        .unwrap();
        // the type checker accepts this (x would have a function type is
        // rejected there, actually) — either phase may reject
        let res = check(&prog).and_then(|mut ck| instantiate(&mut ck));
        assert!(res.is_err());
    }

    #[test]
    fn structs_are_monomorphized() {
        let p = compile(
            "struct pair<$a, $b> { $a fst; $b snd; };\n\
             void main() {\n\
               pair<int, float> p = pair{1, 2.5};\n\
               pair<float, float> q = pair{0.5, 2.5};\n\
               print(p.fst);\n\
               print(q.snd);\n\
             }",
        );
        for inst in ["pair_int_float", "pair_float_float"] {
            let sym = p.names.find(inst).expect(inst);
            assert_eq!(p.struct_def(sym).expect(inst).fields.len(), 2);
        }
    }

    #[test]
    fn skeleton_call_shapes() {
        let p = compile(
            "float initf(Index ix) { return itof(ix[0] + ix[1]); }\n\
             int permf(int r) { return r; }\n\
             float square(float v, Index ix) { return v * v; }\n\
             float addf(float a, float b) { return a + b; }\n\
             float conv(float v, Index ix) { return v; }\n\
             void main() {\n\
               array<float> a = array_create(2, {4,4}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
               array<float> b = array_create(2, {4,4}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
               array_map(square, a, b);\n\
               array_copy(a, b);\n\
               array_broadcast_part(b, {0, 0});\n\
               array_permute_rows(a, permf, b);\n\
               float s = array_fold(conv, addf, a);\n\
               print(s);\n\
               array_destroy(a);\n\
               array_destroy(b);\n\
             }",
        );
        assert!(p.is_first_order());
        let main = p.func_named("main").unwrap();
        let mut ops = Vec::new();
        for s in &main.body {
            match s {
                FoStmt::Expr(FoExpr::Skel(call))
                | FoStmt::Decl { init: Some(FoExpr::Skel(call)), .. } => ops.push(call.op),
                _ => {}
            }
        }
        assert_eq!(
            ops,
            vec![
                SkelOp::Create,
                SkelOp::Create,
                SkelOp::Map,
                SkelOp::Copy,
                SkelOp::BroadcastPart,
                SkelOp::PermuteRows,
                SkelOp::Fold,
                SkelOp::Destroy,
                SkelOp::Destroy,
            ]
        );
    }

    #[test]
    fn shared_instances_are_deduplicated() {
        let p = compile(
            "float f(float v, Index ix) { return v + 1.0; }\n\
             float initf(Index ix) { return 0.0; }\n\
             void main() {\n\
               array<float> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
               array<float> b = array_create(1, {8,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
               array_map(f, a, b);\n\
               array_map(f, b, a);\n\
             }",
        );
        assert_eq!(instances_of(&p, "f").len(), 1);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::check::check;
    use crate::parser::parse;

    fn compile(src: &str) -> FoProgram {
        let prog = parse(src).unwrap();
        let mut ck = check(&prog).unwrap();
        instantiate(&mut ck).unwrap_or_else(|e| panic!("instantiation failed: {e}\n{src}"))
    }

    /// The instances made from source function `origin`.
    fn instances_of<'p>(p: &'p FoProgram, origin: &str) -> Vec<&'p FoFunc> {
        p.funcs.iter().filter(|f| p.name(f.origin) == origin).collect()
    }

    #[test]
    fn functional_parameter_partially_applied_onward() {
        // `both` receives a binary functional parameter and passes it
        // onward *partially applied* — the binding's prefix grows
        let p = compile(
            "int add(int a, int b) { return a + b; }\n\
             int apply1(int f(int), int x) { return f(x); }\n\
             int both(int g(int, int), int x) { return apply1(g(10), x); }\n\
             void main() { print(both(add, 32)); }",
        );
        assert!(p.is_first_order());
        // apply1's instance carries the lifted argument as a parameter
        let a1 = instances_of(&p, "apply1")[0];
        assert_eq!(a1.params.len(), 2, "lifted arg + x: {:?}", a1.params);
    }

    #[test]
    fn deep_currying_in_value_position() {
        let p = compile(
            "int add3(int a, int b, int c) { return a + b + c; }\n\
             void main() { print(add3(1)(2)(3)); }",
        );
        assert!(p.is_first_order());
        // flattened into one full application
        let main = p.func_named("main").unwrap();
        let FoStmt::Expr(FoExpr::Intrinsic(Intr::Print, printed)) = &main.body[0] else {
            panic!("{:?}", main.body)
        };
        let FoExpr::Call(callee, args) = &printed[0] else { panic!("{printed:?}") };
        assert_eq!(p.name(*callee), "add3_1");
        let values: Vec<i64> = args
            .iter()
            .map(|a| match a {
                FoExpr::Int(slot) => p.lits.int(*slot),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(values, [1, 2, 3]);
    }

    #[test]
    fn same_function_with_and_without_partial_application() {
        let p = compile(
            "int addk(int k, int v, Index ix) { return v + k; }\n\
             int initf(Index ix) { return ix[0]; }\n\
             void main() {\n\
               array<int> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
               array<int> b = array_create(1, {8,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
               int k = 5;\n\
               array_map(addk(k), a, b);\n\
               array_map(addk(7 + k), b, a);\n\
             }",
        );
        // both call sites share one monomorphic instance of addk
        assert_eq!(instances_of(&p, "addk").len(), 1);
    }

    #[test]
    fn instances_differ_when_bindings_differ() {
        let p = compile(
            "int inc(int x) { return x + 1; }\n\
             int dec(int x) { return x - 1; }\n\
             int apply(int f(int), int x) { return f(x); }\n\
             void main() { print(apply(inc, 1)); print(apply(dec, 1)); }",
        );
        // one apply instance per functional binding
        assert_eq!(instances_of(&p, "apply").len(), 2);
    }

    #[test]
    fn mutual_recursion_instantiates() {
        let p = compile(
            "int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }\n\
             int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }\n\
             void main() { print(is_even(10)); }",
        );
        assert!(p.is_first_order());
        assert_eq!(instances_of(&p, "is_even").len(), 1);
        assert_eq!(instances_of(&p, "is_odd").len(), 1);
    }
}
