//! The semantic type representation and unification.
//!
//! Skil's polymorphic type system: type variables (`$t`), the scalar C
//! types of the subset, nominal (possibly parameterized) structs, hidden
//! `pardata` types, and n-ary curried function types. "Polymorphism can
//! be simulated in C by using void pointers and casting. ... Our approach
//! leads however to safer programs, as a polymorphic type checking is
//! performed."

#![forbid(unsafe_code)]

use crate::ast::{StructDecl, TypeExpr};
use crate::diag::{Diag, Phase, Pos, Result};
use crate::sym::{Names, Sym, SymMap};
use std::fmt;
use std::rc::Rc;

/// A semantic type. Unification variables are numbered. Compound types
/// share their children (`Rc`), so cloning a type never allocates.
#[derive(Debug, Clone, PartialEq)]
pub enum Ty {
    /// `int` (C `int`/`unsigned`; also the boolean type).
    Int,
    /// `float` / `double`.
    Float,
    /// `void`.
    Void,
    /// The `Index`/`Size` builtin (a `dim`-element index vector).
    Index,
    /// The partition bounds record returned by `array_part_bounds`.
    Bounds,
    /// A unification variable.
    Var(u32),
    /// A cons list `list<$t>` (the paper's d&c skeleton works on lists).
    List(Rc<Ty>),
    /// A `pardata` type with its type arguments (e.g. `array<float>`).
    Pardata(Sym, Rc<[Ty]>),
    /// A nominal struct instance.
    Struct(Sym, Rc<[Ty]>),
    /// An n-ary function; application is curried.
    Fun(Rc<[Ty]>, Rc<Ty>),
}

/// A type as diagnostics print it: every bound variable replaced by what
/// it stands for, names spelled out.
pub struct ShowTy<'a> {
    ty: &'a Ty,
    uni: &'a Unifier,
    names: &'a Names,
}

impl ShowTy<'_> {
    fn list(&self, f: &mut fmt::Formatter<'_>, tys: &[Ty]) -> fmt::Result {
        for (i, t) in tys.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.uni.show(t, self.names))?;
        }
        Ok(())
    }
}

impl fmt::Display for ShowTy<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.uni.head(self.ty) {
            Ty::Int => write!(f, "int"),
            Ty::Float => write!(f, "float"),
            Ty::Void => write!(f, "void"),
            Ty::Index => write!(f, "Index"),
            Ty::Bounds => write!(f, "Bounds"),
            Ty::Var(v) => write!(f, "${v}"),
            Ty::List(t) => write!(f, "list<{}>", self.uni.show(t, self.names)),
            Ty::Pardata(n, args) | Ty::Struct(n, args) => {
                write!(f, "{}", self.names.get(*n))?;
                if !args.is_empty() {
                    write!(f, "<")?;
                    self.list(f, args)?;
                    write!(f, ">")?;
                }
                Ok(())
            }
            Ty::Fun(args, ret) => {
                write!(f, "(")?;
                self.list(f, args)?;
                write!(f, ") -> {}", self.uni.show(ret, self.names))
            }
        }
    }
}

/// A polymorphic type scheme: `forall vars . ty`.
#[derive(Debug, Clone)]
pub struct Scheme {
    /// Universally quantified variables.
    pub vars: Vec<u32>,
    /// The body.
    pub ty: Ty,
}

/// The unifier: fresh-variable supply plus substitution, dense by
/// variable number (`None` while unbound).
#[derive(Debug, Default)]
pub struct Unifier {
    subst: Vec<Option<Ty>>,
}

impl Unifier {
    /// A fresh unification variable.
    pub fn fresh(&mut self) -> Ty {
        self.subst.push(None);
        Ty::Var(self.subst.len() as u32 - 1)
    }

    /// Instantiate a scheme with fresh variables.
    pub fn instantiate(&mut self, s: &Scheme) -> Ty {
        if s.vars.is_empty() {
            return s.ty.clone();
        }
        let map: Vec<(u32, Ty)> = s.vars.iter().map(|&v| (v, self.fresh())).collect();
        subst_vars(&s.ty, &map)
    }

    /// What `ty` currently stands for at its head: a bound variable is
    /// followed to its binding, anything else is itself. Children are
    /// left as they are — whoever descends resolves them in turn.
    pub fn head<'a>(&'a self, mut ty: &'a Ty) -> &'a Ty {
        while let Ty::Var(v) = ty {
            match &self.subst[*v as usize] {
                Some(bound) => ty = bound,
                None => break,
            }
        }
        ty
    }

    /// [`Unifier::head`], owned (a reference-count bump at most).
    pub fn resolve(&self, ty: &Ty) -> Ty {
        self.head(ty).clone()
    }

    /// `ty` for a diagnostic.
    pub fn show<'a>(&'a self, ty: &'a Ty, names: &'a Names) -> ShowTy<'a> {
        ShowTy { ty, uni: self, names }
    }

    fn occurs(&self, v: u32, ty: &Ty) -> bool {
        match self.head(ty) {
            Ty::Var(w) => *w == v,
            Ty::List(t) => self.occurs(v, t),
            Ty::Pardata(_, args) | Ty::Struct(_, args) => args.iter().any(|a| self.occurs(v, a)),
            Ty::Fun(args, ret) => args.iter().any(|a| self.occurs(v, a)) || self.occurs(v, ret),
            _ => false,
        }
    }

    /// Unify two types, extending the substitution.
    pub fn unify(&mut self, a: &Ty, b: &Ty, pos: Pos, names: &Names) -> Result<()> {
        let a = self.resolve(a);
        let b = self.resolve(b);
        match (&a, &b) {
            (Ty::Var(v), _) => {
                if a == b {
                    return Ok(());
                }
                if self.occurs(*v, &b) {
                    return Err(Diag::new(
                        Phase::Type,
                        pos,
                        format!(
                            "infinite type: {} = {}",
                            self.show(&a, names),
                            self.show(&b, names)
                        ),
                    ));
                }
                self.subst[*v as usize] = Some(b);
                Ok(())
            }
            (_, Ty::Var(_)) => self.unify(&b, &a, pos, names),
            (Ty::Int, Ty::Int)
            | (Ty::Float, Ty::Float)
            | (Ty::Void, Ty::Void)
            | (Ty::Index, Ty::Index)
            | (Ty::Bounds, Ty::Bounds) => Ok(()),
            (Ty::List(t1), Ty::List(t2)) => self.unify(t1, t2, pos, names),
            (Ty::Pardata(n1, a1), Ty::Pardata(n2, a2))
            | (Ty::Struct(n1, a1), Ty::Struct(n2, a2))
                if n1 == n2 && a1.len() == a2.len() =>
            {
                for (x, y) in a1.iter().zip(a2.iter()) {
                    self.unify(x, y, pos, names)?;
                }
                Ok(())
            }
            (Ty::Fun(p1, r1), Ty::Fun(p2, r2)) if p1.len() == p2.len() => {
                for (x, y) in p1.iter().zip(p2.iter()) {
                    self.unify(x, y, pos, names)?;
                }
                self.unify(r1, r2, pos, names)
            }
            _ => Err(Diag::new(
                Phase::Type,
                pos,
                format!(
                    "type mismatch: expected {}, found {}",
                    self.show(&a, names),
                    self.show(&b, names)
                ),
            )),
        }
    }

    /// True when a `pardata` type occurs anywhere in `ty`.
    pub fn contains_pardata(&self, ty: &Ty) -> bool {
        self.pardata_in(ty).is_some()
    }

    /// Enforce the paper's pardata composition rules: "type variables
    /// appearing as components of other data types may not be
    /// instantiated with types introduced by the pardata construct" and
    /// "distributed data structures may not be nested".
    pub fn check_pardata_rules(&self, ty: &Ty, pos: Pos, names: &Names) -> Result<()> {
        let no_pardata = |component: &Ty, of: fmt::Arguments<'_>| match self.pardata_in(component) {
            Some(n) => Err(Diag::new(
                Phase::Type,
                pos,
                format!("pardata `{}` may not appear as a component of {of}", names.get(n)),
            )),
            None => Ok(()),
        };
        match self.head(ty) {
            Ty::Pardata(n, args) => {
                for a in args.iter() {
                    no_pardata(a, format_args!("pardata `{}`", names.get(*n)))?;
                    self.check_pardata_rules(a, pos, names)?;
                }
                Ok(())
            }
            Ty::Struct(n, args) => {
                for a in args.iter() {
                    no_pardata(a, format_args!("struct `{}`", names.get(*n)))?;
                    self.check_pardata_rules(a, pos, names)?;
                }
                Ok(())
            }
            Ty::List(t) => {
                no_pardata(t, format_args!("a list"))?;
                self.check_pardata_rules(t, pos, names)
            }
            Ty::Fun(args, ret) => {
                for a in args.iter() {
                    self.check_pardata_rules(a, pos, names)?;
                }
                self.check_pardata_rules(ret, pos, names)
            }
            _ => Ok(()),
        }
    }

    /// The first `pardata` name found in `ty`, depth first.
    fn pardata_in(&self, ty: &Ty) -> Option<Sym> {
        match self.head(ty) {
            Ty::Pardata(n, _) => Some(*n),
            Ty::List(t) => self.pardata_in(t),
            Ty::Struct(_, args) => args.iter().find_map(|a| self.pardata_in(a)),
            Ty::Fun(args, ret) => {
                args.iter().find_map(|a| self.pardata_in(a)).or_else(|| self.pardata_in(ret))
            }
            _ => None,
        }
    }
}

fn subst_vars(ty: &Ty, map: &[(u32, Ty)]) -> Ty {
    let all = |tys: &[Ty]| tys.iter().map(|a| subst_vars(a, map)).collect();
    match ty {
        Ty::Var(v) => {
            map.iter().find(|(from, _)| from == v).map_or(Ty::Var(*v), |(_, t)| t.clone())
        }
        Ty::List(t) => Ty::List(Rc::new(subst_vars(t, map))),
        Ty::Pardata(n, args) => Ty::Pardata(*n, all(args)),
        Ty::Struct(n, args) => Ty::Struct(*n, all(args)),
        Ty::Fun(args, ret) => Ty::Fun(all(args), Rc::new(subst_vars(ret, map))),
        other => other.clone(),
    }
}

/// `$name` -> type bindings in force while lowering surface types: a
/// handful per function, searched linearly.
pub type VarMap = Vec<(Sym, Ty)>;

/// What `$v` is bound to (the latest binding, should a declaration
/// repeat a parameter name).
pub fn bound(var_map: &VarMap, v: Sym) -> Option<&Ty> {
    var_map.iter().rev().find(|(n, _)| *n == v).map(|(_, t)| t)
}

/// Declared type-constructor environment: structs and pardatas.
#[derive(Debug, Clone)]
pub struct TypeDefs {
    /// struct name -> declaration.
    pub structs: SymMap<Rc<StructDecl>>,
    /// pardata name -> arity.
    pub pardatas: SymMap<usize>,
}

impl Default for TypeDefs {
    /// Nothing declared but the built-in `pardata array<$t>`.
    fn default() -> Self {
        let mut pardatas = SymMap::default();
        pardatas.insert(Sym::ARRAY, 1);
        TypeDefs { structs: SymMap::default(), pardatas }
    }
}

impl TypeDefs {
    /// Convert a surface type into a semantic type, mapping `$`-variables
    /// through `var_map` (extended on first sight when `open` is set).
    pub fn lower(
        &self,
        te: &TypeExpr,
        var_map: &mut VarMap,
        uni: &mut Unifier,
        open: bool,
        pos: Pos,
        names: &Names,
    ) -> Result<Ty> {
        match te {
            TypeExpr::Var(v) => {
                if let Some(t) = bound(var_map, *v) {
                    Ok(t.clone())
                } else if open {
                    let t = uni.fresh();
                    var_map.push((*v, t.clone()));
                    Ok(t)
                } else {
                    Err(Diag::new(
                        Phase::Type,
                        pos,
                        format!("unbound type variable ${}", names.get(*v)),
                    ))
                }
            }
            TypeExpr::Fun(args, ret) => {
                let args = args
                    .iter()
                    .map(|a| self.lower(a, var_map, uni, open, pos, names))
                    .collect::<Result<Rc<[Ty]>>>()?;
                let ret = self.lower(ret, var_map, uni, open, pos, names)?;
                Ok(Ty::Fun(args, Rc::new(ret)))
            }
            TypeExpr::Named(name, args) => {
                let args_t = args
                    .iter()
                    .map(|a| self.lower(a, var_map, uni, open, pos, names))
                    .collect::<Result<Vec<Ty>>>()?;
                match (*name, args_t.len()) {
                    (Sym::LIST, 1) => {
                        Ok(Ty::List(Rc::new(args_t.into_iter().next().expect("one arg"))))
                    }
                    (Sym::INT | Sym::UINT | Sym::UNSIGNED | Sym::CHAR, 0) => Ok(Ty::Int),
                    (Sym::FLOAT | Sym::DOUBLE, 0) => Ok(Ty::Float),
                    (Sym::VOID, 0) => Ok(Ty::Void),
                    (Sym::INDEX | Sym::SIZE, 0) => Ok(Ty::Index),
                    (Sym::BOUNDS, 0) => Ok(Ty::Bounds),
                    _ => {
                        let name_str = names.get(*name);
                        if let Some(&arity) = self.pardatas.get(*name) {
                            if arity != args_t.len() {
                                return Err(Diag::new(
                                    Phase::Type,
                                    pos,
                                    format!(
                                        "pardata {name_str} expects {arity} type arguments, got {}",
                                        args_t.len()
                                    ),
                                ));
                            }
                            return Ok(Ty::Pardata(*name, args_t.into()));
                        }
                        if let Some(decl) = self.structs.get(*name) {
                            if decl.params.len() != args_t.len() {
                                return Err(Diag::new(
                                    Phase::Type,
                                    pos,
                                    format!(
                                        "struct {name_str} expects {} type arguments, got {}",
                                        decl.params.len(),
                                        args_t.len()
                                    ),
                                ));
                            }
                            return Ok(Ty::Struct(*name, args_t.into()));
                        }
                        Err(Diag::new(Phase::Type, pos, format!("unknown type `{name_str}`")))
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::Interner;

    fn pos() -> Pos {
        Pos::default()
    }

    fn arr(t: Ty) -> Ty {
        Ty::Pardata(Sym::ARRAY, Rc::new([t]))
    }

    fn fun(args: &[Ty], ret: Ty) -> Ty {
        Ty::Fun(args.into(), Rc::new(ret))
    }

    #[test]
    fn unify_basics() {
        let names = Interner::new();
        let mut u = Unifier::default();
        let v = u.fresh();
        u.unify(&v, &Ty::Int, pos(), &names).unwrap();
        assert_eq!(u.resolve(&v), Ty::Int);
        assert!(u.unify(&Ty::Int, &Ty::Float, pos(), &names).is_err());
    }

    #[test]
    fn unify_functions_and_pardata() {
        let names = Interner::new();
        let mut u = Unifier::default();
        let a = u.fresh();
        let f1 = fun(std::slice::from_ref(&a), Ty::Int);
        let f2 = fun(&[Ty::Float], Ty::Int);
        u.unify(&f1, &f2, pos(), &names).unwrap();
        assert_eq!(u.resolve(&a), Ty::Float);

        let p1 = arr(u.fresh());
        let p2 = arr(Ty::Int);
        u.unify(&p1, &p2, pos(), &names).unwrap();
        // resolution is shallow; diagnostics see through the binding
        assert_eq!(u.resolve(&p1), p1);
        assert_eq!(u.show(&p1, &names).to_string(), "array<int>");
    }

    #[test]
    fn variables_chain_and_show_resolves_every_level() {
        let names = Interner::new();
        let mut u = Unifier::default();
        let (a, b, c) = (u.fresh(), u.fresh(), u.fresh());
        u.unify(&a, &b, pos(), &names).unwrap();
        u.unify(&b, &c, pos(), &names).unwrap();
        let t = fun(&[Ty::List(Rc::new(a.clone()))], arr(b.clone()));
        assert_eq!(u.show(&t, &names).to_string(), "(list<$2>) -> array<$2>");
        u.unify(&c, &Ty::Float, pos(), &names).unwrap();
        assert_eq!(u.resolve(&a), Ty::Float);
        assert_eq!(u.show(&t, &names).to_string(), "(list<float>) -> array<float>");
        let e = u.unify(&t, &fun(&[Ty::List(Rc::new(Ty::Int))], arr(Ty::Float)), pos(), &names);
        assert_eq!(e.unwrap_err().msg, "type mismatch: expected float, found int");
    }

    #[test]
    fn occurs_check() {
        let names = Interner::new();
        let mut u = Unifier::default();
        let v = u.fresh();
        let f = fun(std::slice::from_ref(&v), Ty::Int);
        let e = u.unify(&v, &f, pos(), &names).unwrap_err();
        assert_eq!(e.msg, "infinite type: $0 = ($0) -> int");
    }

    #[test]
    fn scheme_instantiation_is_fresh() {
        let names = Interner::new();
        let mut u = Unifier::default();
        let v = u.fresh();
        let Ty::Var(vid) = v else { panic!() };
        let s = Scheme { vars: vec![vid], ty: fun(&[Ty::Var(vid)], Ty::Var(vid)) };
        let t1 = u.instantiate(&s);
        let t2 = u.instantiate(&s);
        assert_ne!(t1, t2, "each instantiation gets fresh variables");
        // constraining one instance does not constrain the other
        let Ty::Fun(args, _) = &t1 else { panic!() };
        u.unify(&args[0], &Ty::Int, pos(), &names).unwrap();
        let Ty::Fun(args2, _) = &t2 else { panic!() };
        assert!(matches!(u.resolve(&args2[0]), Ty::Var(_)));
        // a monomorphic scheme is handed out as it is
        let mono = Scheme { vars: vec![], ty: fun(&[Ty::Int], Ty::Int) };
        let Ty::Fun(p1, _) = u.instantiate(&mono) else { panic!() };
        let Ty::Fun(p2, _) = &mono.ty else { panic!() };
        assert!(Rc::ptr_eq(&p1, p2));
    }

    #[test]
    fn pardata_rules_enforced() {
        let mut names = Interner::new();
        let pair = names.intern("pair");
        let u = Unifier::default();
        let ok = |t: &Ty| u.check_pardata_rules(t, pos(), &names);
        let arr_int = arr(Ty::Int);
        assert!(ok(&arr_int).is_ok());
        // nested pardata rejected
        assert_eq!(
            ok(&arr(arr_int.clone())).unwrap_err().msg,
            "pardata `array` may not appear as a component of pardata `array`"
        );
        // pardata inside a struct's type arguments rejected
        let s = Ty::Struct(pair, Rc::new([arr_int.clone(), Ty::Int]));
        assert!(ok(&s).unwrap_err().msg.ends_with("component of struct `pair`"));
        assert!(u.contains_pardata(&s));
        // plain struct fine
        let s = Ty::Struct(pair, Rc::new([Ty::Float, Ty::Int]));
        assert!(ok(&s).is_ok());
        assert!(!u.contains_pardata(&s));
    }

    #[test]
    fn lower_surface_types() {
        let mut names = Interner::new();
        let (pair, a, fst, wibble) =
            (names.intern("pair"), names.intern("a"), names.intern("fst"), names.intern("wibble"));
        let mut defs = TypeDefs::default();
        defs.structs.insert(
            pair,
            Rc::new(StructDecl {
                name: pair,
                params: vec![a],
                fields: vec![(fst, TypeExpr::Var(a))],
                pos: pos(),
            }),
        );
        let mut uni = Unifier::default();
        let mut vm = VarMap::new();
        let mut lower = |te: &TypeExpr| defs.lower(te, &mut vm, &mut uni, true, pos(), &names);
        let t = lower(&TypeExpr::Named(Sym::ARRAY, vec![TypeExpr::named(Sym::FLOAT)])).unwrap();
        assert_eq!(t, arr(Ty::Float));
        // arity mismatch
        assert!(lower(&TypeExpr::named(Sym::ARRAY)).is_err());
        assert!(lower(&TypeExpr::named(pair)).is_err());
        // unknown type
        assert!(lower(&TypeExpr::named(wibble)).is_err());
        // Size is Index
        assert_eq!(lower(&TypeExpr::named(Sym::SIZE)).unwrap(), Ty::Index);
        // an open lowering binds a new `$a` once
        let va = lower(&TypeExpr::Var(a)).unwrap();
        assert_eq!(lower(&TypeExpr::Var(a)).unwrap(), va);
    }
}
