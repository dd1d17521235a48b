//! The polymorphic type checker.

#![forbid(unsafe_code)]

use std::rc::Rc;

use crate::ast::*;
use crate::builtins::{Builtin, BuiltinKind};
use crate::diag::{Diag, Phase, Pos, Result};
use crate::fo::BinOp;
use crate::sym::{Interner, Sym, SymMap};
use crate::token::Lits;
use crate::types::{bound, Scheme, ShowTy, Ty, TypeDefs, Unifier, VarMap};

/// Lexical scopes for local variables.
pub type Scopes = crate::sym::Scopes<Ty>;

/// The checked program environment, consumed by the instantiation pass.
/// Builtins are not in it: a name is looked up in
/// [`crate::builtins::BUILTINS`] first and here second.
pub struct Checked {
    /// The program's identifiers (the instantiation pass adds the names
    /// of the instances it makes, then hands the table to its output).
    pub syms: Interner,
    /// The literals' values, shared with the parsed program and handed
    /// on to the instantiation's output unread.
    pub lits: Lits,
    /// Struct and pardata definitions.
    pub defs: TypeDefs,
    /// Every user function's type scheme.
    pub funcs: SymMap<Scheme>,
    /// User function ASTs by name, shared with the parsed program.
    pub user_funcs: SymMap<Rc<Func>>,
    /// The unifier (carried into instantiation for local inference).
    pub uni: Unifier,
}

/// Type-check a parsed program.
pub fn check(prog: &Program) -> Result<Checked> {
    let mut ck = Checked {
        syms: prog.syms.clone(),
        lits: prog.lits.clone(),
        defs: TypeDefs::default(),
        funcs: SymMap::default(),
        user_funcs: SymMap::default(),
        uni: Unifier::default(),
    };
    let type_err = |pos, msg: String| Err(Diag::new(Phase::Type, pos, msg));

    // Pass 1: collect type definitions and function ASTs.
    let mut order: Vec<&Rc<Func>> = Vec::new();
    let mut structs: Vec<&Rc<StructDecl>> = Vec::new();
    for item in &prog.items {
        match item {
            Item::Pardata { name: Sym::ARRAY, arity, pos } => {
                // re-declaration of the builtin prototype
                if *arity != 1 {
                    return type_err(
                        *pos,
                        "the built-in pardata `array` has exactly one type parameter".into(),
                    );
                }
            }
            Item::Pardata { name, arity, pos } => {
                if ck.defs.pardatas.insert(*name, *arity).is_some() {
                    return type_err(*pos, format!("duplicate pardata `{}`", ck.syms.get(*name)));
                }
            }
            Item::Struct(decl) => {
                if ck.defs.structs.insert(decl.name, Rc::clone(decl)).is_some() {
                    return type_err(
                        decl.pos,
                        format!("duplicate struct `{}`", ck.syms.get(decl.name)),
                    );
                }
                structs.push(decl);
            }
            Item::Func(f) => {
                if ck.user_funcs.insert(f.name, Rc::clone(f)).is_some() {
                    return type_err(
                        f.pos,
                        format!("duplicate function `{}`", ck.syms.get(f.name)),
                    );
                }
                order.push(f);
            }
        }
    }

    // Pass 1.5: struct fields may not contain pardata types (the paper's
    // composition rule — local structures are copied and flattened, a
    // distributed structure cannot live inside them).
    for decl in structs {
        let mut var_map: VarMap = decl.params.iter().map(|&p| (p, ck.uni.fresh())).collect();
        for (fname, fty) in &decl.fields {
            let t = ck.lower(fty, &mut var_map, false, decl.pos)?;
            if ck.uni.contains_pardata(&t) {
                return type_err(
                    decl.pos,
                    format!(
                        "field `{}` of struct `{}` has a pardata type; \
                         distributed structures may not be components of other \
                         data structures",
                        ck.syms.get(*fname),
                        ck.syms.get(decl.name)
                    ),
                );
            }
        }
    }

    // Pass 2: lower all signatures (enables mutual recursion). A
    // signature's type variables are numbered in order of appearance.
    let mut sig_vars: Vec<VarMap> = Vec::with_capacity(order.len());
    for f in &order {
        if Builtin::of(f.name).is_some_and(|b| !matches!(b.kind, BuiltinKind::Const(_))) {
            return type_err(
                f.pos,
                format!("`{}` shadows a built-in function", ck.syms.get(f.name)),
            );
        }
        let mut var_map = VarMap::new();
        let params = f
            .params
            .iter()
            .map(|p| ck.lower(&p.ty, &mut var_map, true, p.pos))
            .collect::<Result<Rc<[Ty]>>>()?;
        let ret = ck.lower(&f.ret, &mut var_map, true, f.pos)?;
        let vars = var_map
            .iter()
            .map(|(_, t)| match t {
                Ty::Var(v) => *v,
                _ => unreachable!("open lowering introduces vars"),
            })
            .collect();
        ck.funcs.insert(f.name, Scheme { vars, ty: Ty::Fun(params, Rc::new(ret)) });
        sig_vars.push(var_map);
    }

    // Pass 3: check bodies.
    for (f, vars) in order.iter().zip(&sig_vars) {
        ck.check_func(f, vars)?;
    }

    // main must exist with signature `void main()`.
    match (ck.funcs.get(Sym::MAIN), ck.user_funcs.get(Sym::MAIN)) {
        (Some(Scheme { ty: Ty::Fun(params, ret), .. }), Some(main)) => {
            if !params.is_empty() || *ck.uni.head(ret) != Ty::Void {
                return type_err(main.pos, "main must have the signature `void main()`".into());
            }
        }
        _ => return type_err(Pos::default(), "program has no `main` function".into()),
    }
    Ok(ck)
}

impl Checked {
    /// [`Unifier::unify`] with this program's names for the diagnostic.
    pub fn unify(&mut self, a: &Ty, b: &Ty, pos: Pos) -> Result<()> {
        self.uni.unify(a, b, pos, &self.syms)
    }

    /// `ty` as a diagnostic prints it.
    pub fn show<'a>(&'a self, ty: &'a Ty) -> ShowTy<'a> {
        self.uni.show(ty, &self.syms)
    }

    /// [`TypeDefs::lower`] over this program's definitions.
    pub fn lower(
        &mut self,
        te: &TypeExpr,
        var_map: &mut VarMap,
        open: bool,
        pos: Pos,
    ) -> Result<Ty> {
        self.defs.lower(te, var_map, &mut self.uni, open, pos, &self.syms)
    }

    /// The type a function or constant name presents at one use —
    /// builtins first, then the program's own functions — with fresh
    /// variables for its generic ones.
    pub fn global_ty(&mut self, name: Sym) -> Option<Ty> {
        match Builtin::of(name) {
            Some(b) => Some(b.instantiate(&mut self.uni)),
            None => self.funcs.get(name).map(|s| self.uni.instantiate(s)),
        }
    }

    fn err<T>(&self, pos: Pos, msg: String) -> Result<T> {
        Err(Diag::new(Phase::Type, pos, msg))
    }

    fn check_func(&mut self, f: &Func, sig_vars: &VarMap) -> Result<()> {
        let Some(Ty::Fun(params, ret)) = self.funcs.get(f.name).map(|s| s.ty.clone()) else {
            unreachable!("every user function has a function scheme")
        };
        let mut scopes = Scopes::default();
        scopes.push();
        for (p, ty) in f.params.iter().zip(params.iter()) {
            scopes.declare(p.name, ty.clone());
        }
        self.check_block(&f.body, &mut scopes, &ret)?;

        // The body must not constrain the signature's type variables
        // ("skeletons depend only on the structure of the problem, not on
        // particular data types").
        let mut seen = Vec::new();
        for (vname, var) in sig_vars {
            let (vname, fname) = (self.syms.get(*vname), self.syms.get(f.name));
            match self.uni.head(var) {
                Ty::Var(w) => {
                    if seen.contains(w) {
                        return self.err(
                            f.pos,
                            format!(
                                "type variable ${vname} of `{fname}` is forced equal to \
                                 another signature variable by the body"
                            ),
                        );
                    }
                    seen.push(*w);
                }
                concrete => {
                    return self.err(
                        f.pos,
                        format!(
                            "type variable ${vname} of `{fname}` is constrained to `{}` \
                             by the body; use a monomorphic signature instead",
                            self.show(concrete)
                        ),
                    )
                }
            }
        }

        // Pardata composition rules on the (resolved) signature.
        for ty in params.iter() {
            self.uni.check_pardata_rules(ty, f.pos, &self.syms)?;
        }
        Ok(())
    }

    fn check_block(&mut self, b: &Block, scopes: &mut Scopes, ret: &Ty) -> Result<()> {
        scopes.push();
        for s in &b.0 {
            self.check_stmt(s, scopes, ret)?;
        }
        scopes.pop();
        Ok(())
    }

    /// `cond` must be an `int`.
    fn check_cond(&mut self, cond: &Expr, scopes: &Scopes) -> Result<()> {
        let ct = self.infer_expr(cond, scopes)?;
        self.unify(&ct, &Ty::Int, cond.pos())
    }

    fn check_stmt(&mut self, s: &Stmt, scopes: &mut Scopes, ret: &Ty) -> Result<()> {
        match s {
            Stmt::Decl { ty, name, init, pos } => {
                let t = self.lower(ty, &mut VarMap::new(), false, *pos)?;
                self.uni.check_pardata_rules(&t, *pos, &self.syms)?;
                if let Some(e) = init {
                    let it = self.infer_expr(e, scopes)?;
                    self.unify(&t, &it, *pos)?;
                }
                scopes.declare(*name, t);
                Ok(())
            }
            Stmt::Assign { name, value, pos } => {
                let Some(vt) = scopes.lookup(*name).cloned() else {
                    return self
                        .err(*pos, format!("assignment to undeclared `{}`", self.syms.get(*name)));
                };
                let et = self.infer_expr(value, scopes)?;
                self.unify(&vt, &et, *pos)
            }
            Stmt::If { cond, then, els } => {
                self.check_cond(cond, scopes)?;
                self.check_block(then, scopes, ret)?;
                if let Some(e) = els {
                    self.check_block(e, scopes, ret)?;
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                self.check_cond(cond, scopes)?;
                self.check_block(body, scopes, ret)
            }
            Stmt::For { init, cond, step, body } => {
                scopes.push();
                if let Some(i) = init {
                    self.check_stmt(i, scopes, ret)?;
                }
                if let Some(c) = cond {
                    self.check_cond(c, scopes)?;
                }
                if let Some(st) = step {
                    self.check_stmt(st, scopes, ret)?;
                }
                self.check_block(body, scopes, ret)?;
                scopes.pop();
                Ok(())
            }
            Stmt::Return { value, pos } => match value {
                Some(e) => {
                    let t = self.infer_expr(e, scopes)?;
                    self.unify(ret, &t, *pos)
                }
                None => self.unify(ret, &Ty::Void, *pos),
            },
            Stmt::Expr(e) => {
                self.infer_expr(e, scopes)?;
                Ok(())
            }
        }
    }

    /// Infer an expression's type (also used by the instantiation pass).
    pub fn infer_expr(&mut self, e: &Expr, scopes: &Scopes) -> Result<Ty> {
        match e {
            Expr::Int(_, _) => Ok(Ty::Int),
            Expr::Float(_, _) => Ok(Ty::Float),
            Expr::Var(name, pos) => {
                if let Some(t) = scopes.lookup(*name) {
                    return Ok(t.clone());
                }
                match self.global_ty(*name) {
                    Some(t) => Ok(t),
                    None => {
                        self.err(*pos, format!("unknown identifier `{}`", self.syms.get(*name)))
                    }
                }
            }
            Expr::OpSection(op, _pos) => {
                let a = self.uni.fresh();
                let ret = if op.is_arithmetic() { a.clone() } else { Ty::Int };
                Ok(Ty::Fun(Rc::new([a.clone(), a]), Rc::new(ret)))
            }
            Expr::Call { callee, args, pos } => {
                let ct = self.infer_expr(callee, scopes)?;
                let Ty::Fun(params, ret) = self.uni.resolve(&ct) else {
                    return self.err(
                        *pos,
                        format!("call of a non-function value of type `{}`", self.show(&ct)),
                    );
                };
                if args.len() > params.len() {
                    return self.err(
                        *pos,
                        format!(
                            "too many arguments: function takes {}, got {}",
                            params.len(),
                            args.len()
                        ),
                    );
                }
                for (a, p) in args.iter().zip(params.iter()) {
                    let at = self.infer_expr(a, scopes)?;
                    self.unify(p, &at, a.pos())?;
                }
                if args.len() == params.len() {
                    Ok((*ret).clone())
                } else {
                    // partial application (currying)
                    Ok(Ty::Fun(params[args.len()..].into(), ret))
                }
            }
            Expr::Binary { op, lhs, rhs, pos } => {
                let lt = self.infer_expr(lhs, scopes)?;
                let rt = self.infer_expr(rhs, scopes)?;
                self.unify(&lt, &rt, *pos)?;
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                        self.require_numeric(&lt, *pos)?;
                        Ok(lt)
                    }
                    BinOp::Rem | BinOp::And | BinOp::Or => {
                        self.unify(&lt, &Ty::Int, *pos)?;
                        Ok(Ty::Int)
                    }
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        self.require_numeric(&lt, *pos)?;
                        Ok(Ty::Int)
                    }
                }
            }
            Expr::Unary { op, expr, pos } => {
                let t = self.infer_expr(expr, scopes)?;
                match op {
                    UnOp::Neg => {
                        self.require_numeric(&t, *pos)?;
                        Ok(t)
                    }
                    UnOp::Not => {
                        self.unify(&t, &Ty::Int, *pos)?;
                        Ok(Ty::Int)
                    }
                }
            }
            Expr::Field { expr, field, pos } => {
                let t = self.infer_expr(expr, scopes)?;
                match self.uni.resolve(&t) {
                    Ty::Bounds => match *field {
                        Sym::LOWER_BD | Sym::UPPER_BD => Ok(Ty::Index),
                        other => self.err(
                            *pos,
                            format!(
                                "Bounds has fields `lowerBd`/`upperBd`, not `{}`",
                                self.syms.get(other)
                            ),
                        ),
                    },
                    Ty::Struct(name, args) => {
                        let decl = self.defs.structs.get(name).expect("declared").clone();
                        let Some((_, fty)) = decl.fields.iter().find(|(n, _)| n == field) else {
                            return self.err(
                                *pos,
                                format!(
                                    "struct `{}` has no field `{}`",
                                    self.syms.get(name),
                                    self.syms.get(*field)
                                ),
                            );
                        };
                        let mut var_map: VarMap =
                            decl.params.iter().copied().zip(args.iter().cloned()).collect();
                        self.lower(fty, &mut var_map, false, *pos)
                    }
                    other => self.err(
                        *pos,
                        format!("field access on non-struct type `{}`", self.show(&other)),
                    ),
                }
            }
            Expr::IndexAt { expr, index, pos } => {
                let t = self.infer_expr(expr, scopes)?;
                self.unify(&t, &Ty::Index, *pos)?;
                let it = self.infer_expr(index, scopes)?;
                self.unify(&it, &Ty::Int, *pos)?;
                Ok(Ty::Int)
            }
            Expr::BraceList { elems, pos } => {
                if elems.is_empty() || elems.len() > 2 {
                    return self.err(*pos, "Index literals have one or two components".into());
                }
                for e in elems {
                    let t = self.infer_expr(e, scopes)?;
                    self.unify(&t, &Ty::Int, e.pos())?;
                }
                Ok(Ty::Index)
            }
            Expr::StructLit { name, fields, pos } => {
                let Some(decl) = self.defs.structs.get(*name).cloned() else {
                    return self.err(*pos, format!("unknown struct `{}`", self.syms.get(*name)));
                };
                if fields.len() != decl.fields.len() {
                    return self.err(
                        *pos,
                        format!(
                            "struct `{}` has {} fields, literal provides {}",
                            self.syms.get(*name),
                            decl.fields.len(),
                            fields.len()
                        ),
                    );
                }
                let mut var_map: VarMap =
                    decl.params.iter().map(|&p| (p, self.uni.fresh())).collect();
                for (e, (_, fty)) in fields.iter().zip(&decl.fields) {
                    let want = self.lower(fty, &mut var_map, false, *pos)?;
                    let got = self.infer_expr(e, scopes)?;
                    self.unify(&want, &got, e.pos())?;
                }
                let args = decl.params.iter().map(|&p| bound(&var_map, p).expect("bound").clone());
                Ok(Ty::Struct(*name, args.collect()))
            }
        }
    }

    fn require_numeric(&mut self, t: &Ty, pos: Pos) -> Result<()> {
        match self.uni.head(t) {
            Ty::Int | Ty::Float | Ty::Var(_) => Ok(()),
            other => {
                self.err(pos, format!("arithmetic on non-numeric type `{}`", self.show(other)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn ok(src: &str) {
        let p = parse(src).unwrap();
        if let Err(e) = check(&p) {
            panic!("expected well-typed, got: {e}\n{src}");
        }
    }

    fn bad(src: &str) -> String {
        let p = parse(src).unwrap();
        match check(&p) {
            Ok(_) => panic!("expected a type error\n{src}"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn minimal_main() {
        ok("void main() { int x = 1; x = x + 2; }");
    }

    #[test]
    fn requires_main() {
        let e = bad("int f() { return 1; }");
        assert!(e.contains("main"));
    }

    #[test]
    fn arithmetic_types() {
        ok("void main() { float y = 1.5; y = y * 2.0; }");
        let e = bad("void main() { int x = 1.5; }");
        assert!(e.contains("mismatch"));
        let e = bad("void main() { float y = 1.0 + 1; }");
        assert!(e.contains("mismatch"));
        bad("void main() { float y = 1.5 % 2.0; }");
    }

    #[test]
    fn undeclared_and_unknown() {
        assert!(bad("void main() { x = 1; }").contains("undeclared"));
        assert!(bad("void main() { int x = nope; }").contains("unknown identifier"));
    }

    #[test]
    fn polymorphic_user_function() {
        ok("$a ident($a x) { return x; }\n\
            void main() { int i = ident(3); float f = ident(2.5); }");
    }

    #[test]
    fn body_may_not_constrain_type_vars() {
        let e = bad("$a bad($a x) { return x + 1; }\nvoid main() { }");
        assert!(e.contains("constrained"), "{e}");
    }

    #[test]
    fn hof_with_functional_param() {
        ok("$b apply($b f($a), $a x) { return f(x); }\n\
            int inc(int x) { return x + 1; }\n\
            void main() { int y = apply(inc, 41); }");
    }

    #[test]
    fn partial_application_types() {
        ok("int addthree(int a, int b, int c) { return a + b + c; }\n\
            int apply2(int f(int, int), int x, int y) { return f(x, y); }\n\
            void main() { int r = apply2(addthree(1), 2, 3); }");
    }

    #[test]
    fn operator_sections() {
        ok("$t fold2($t f($t, $t), $t a, $t b) { return f(a, b); }\n\
            void main() { int s = fold2((+), 1, 2); float p = fold2((*), 1.5, 2.0); }");
    }

    #[test]
    fn skeleton_signatures() {
        ok("float init_f(Index ix) { return itof(ix[0]); }\n\
            void main() {\n\
              array<float> a;\n\
              a = array_create(1, {8, 1}, {0, 0}, {0 - 1, 0 - 1}, init_f, DISTR_DEFAULT);\n\
              array_destroy(a);\n\
            }");
    }

    #[test]
    fn map_with_partial_application_types() {
        // the paper's threshold example, types end to end
        ok("int above_thresh(float thresh, float elem, Index ix) { return elem >= thresh; }\n\
            float init_f(Index ix) { return itof(ix[0]); }\n\
            int zero(Index ix) { return 0; }\n\
            void main() {\n\
              array<float> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, init_f, DISTR_DEFAULT);\n\
              array<int> b = array_create(1, {8,1}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);\n\
              float t = 3.0;\n\
              array_map(above_thresh(t), a, b);\n\
            }");
    }

    #[test]
    fn map_type_mismatch_rejected() {
        let e = bad("int above(float t, float e, Index ix) { return 1; }\n\
             int zero(Index ix) { return 0; }\n\
             void main() {\n\
               array<int> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);\n\
               array<int> b = array_create(1, {8,1}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);\n\
               float t = 3.0;\n\
               array_map(above(t), a, b);\n\
             }");
        assert!(e.contains("mismatch"), "{e}");
    }

    #[test]
    fn structs_and_fields() {
        ok("struct elemrec { float val; int row; int col; };\n\
            void main() {\n\
              elemrec e = elemrec{1.5, 2, 3};\n\
              float v = e.val;\n\
              int r = e.row + e.col;\n\
            }");
        let e = bad("struct elemrec { float val; };\n\
             void main() { elemrec e = elemrec{1.5}; int v = e.val; }");
        assert!(e.contains("mismatch"));
        let e = bad("struct elemrec { float val; };\n\
             void main() { elemrec e = elemrec{1.5}; float v = e.bogus; }");
        assert!(e.contains("no field"));
    }

    #[test]
    fn polymorphic_struct() {
        ok("struct pair<$a, $b> { $a fst; $b snd; };\n\
            void main() {\n\
              pair<int, float> p = pair{1, 2.5};\n\
              int x = p.fst;\n\
              float y = p.snd;\n\
            }");
    }

    #[test]
    fn bounds_fields() {
        ok("int zero(Index ix) { return 0; }\n\
            void main() {\n\
              array<int> a = array_create(2, {4,4}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);\n\
              Bounds bds = array_part_bounds(a);\n\
              int lo = bds->lowerBd[0];\n\
              int hi = bds.upperBd[1];\n\
            }");
    }

    #[test]
    fn pardata_struct_field_rejected() {
        let e = bad("struct holder { array<int> a; int n; };\n\
             void main() { }");
        assert!(e.contains("component"), "{e}");
    }

    #[test]
    fn nested_pardata_rejected() {
        let e = bad("int zero(Index ix) { return 0; }\n\
             void main() { array< array<int> > a; }");
        assert!(e.contains("component"), "{e}");
    }

    #[test]
    fn local_access_types() {
        ok("int zero(Index ix) { return 0; }\n\
            void main() {\n\
              array<int> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);\n\
              int v = array_get_elem(a, {0, 0});\n\
              array_put_elem(a, {0, 0}, v + 1);\n\
            }");
    }

    #[test]
    fn shadowing_builtin_rejected() {
        let e = bad("int array_map(int x) { return x; }\nvoid main() { }");
        assert!(e.contains("shadows"));
    }

    #[test]
    fn fold_result_type() {
        ok("struct rec { float v; int r; };\n\
            rec conv(float x, Index ix) { return rec{x, ix[0]}; }\n\
            rec pick(rec a, rec b) { if (a.v >= b.v) { return a; } return b; }\n\
            float init_f(Index ix) { return itof(ix[0]); }\n\
            void main() {\n\
              array<float> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, init_f, DISTR_DEFAULT);\n\
              rec best = array_fold(conv, pick, a);\n\
              print(best.r);\n\
            }");
    }

    #[test]
    fn pardata_struct_field_is_reported_at_the_struct() {
        let e = bad("void f() { }\n\n  struct holder { array<int> a; int n; };\nvoid main() { }");
        assert!(e.starts_with("type error at 3:3: field `a` of struct `holder`"), "{e}");
    }

    #[test]
    fn unknown_struct_field_type_is_reported_at_the_struct() {
        let e = bad("\n   struct holder { wibble a; };\nvoid main() { }");
        assert_eq!(e, "type error at 2:4: unknown type `wibble`");
    }

    #[test]
    fn wrong_main_signature_is_reported_at_main() {
        let e = bad("int f() { return 1; }\n  int main() { return 1; }");
        assert_eq!(e, "type error at 2:3: main must have the signature `void main()`");
        let e = bad("\n\n void main(int x) { }");
        assert_eq!(e, "type error at 3:2: main must have the signature `void main()`");
    }

    #[test]
    fn signature_variables_are_checked_in_order_of_appearance() {
        // two violations; the first variable of the signature is named
        let e = bad("$b both($a x, $b y) { return x + 1; }\nvoid main() { }");
        assert!(e.contains("type variable $a of `both` is constrained to `int`"), "{e}");
        let e = bad("$a same($a x, $b y) { x = y; return x; }\nvoid main() { }");
        assert!(e.contains("type variable $b of `same` is forced equal"), "{e}");
    }
}
