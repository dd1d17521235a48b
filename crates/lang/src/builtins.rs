//! Built-in functions, skeletons and constants of the Skil language: one
//! constant table, registered nowhere at run time. The type checker
//! looks a name up here first and in the program's own declarations
//! second; no compile builds or copies an environment of builtins.

#![forbid(unsafe_code)]

use std::rc::Rc;

use crate::bytecode::Intr;
use crate::fo::SkelOp;
use crate::sym::Sym;
use crate::types::{Ty, Unifier};

/// The type of a builtin, as constant data. `Var(i)` is the builtin's
/// `i`-th generic variable, replaced by a fresh unification variable at
/// every use.
#[derive(Debug)]
#[allow(missing_docs)] // mirrors `Ty` variant for variant
pub enum BTy {
    Int,
    Float,
    Void,
    Index,
    Bounds,
    Var(u8),
    List(&'static BTy),
    Array(&'static BTy),
    Fun(&'static [BTy], &'static BTy),
}

/// What a builtin name denotes after instantiation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BuiltinKind {
    /// A data- or task-parallel skeleton (calls become `FoExpr::Skel`);
    /// `fn_args` are the positions of its functional parameters.
    Skeleton {
        /// Which skeleton.
        op: SkelOp,
        /// Positions of the functional parameters.
        fn_args: &'static [usize],
    },
    /// A first-order function interpreted directly.
    Intrinsic(Intr),
    /// A named constant (`procId`, `DISTR_RING`, ...); its type is not a
    /// function type.
    Const(Intr),
}

/// One builtin: its name, type scheme and meaning.
#[derive(Debug)]
pub struct Builtin {
    /// Surface name.
    pub name: &'static str,
    /// Number of generic variables in `ty`.
    pub nvars: u8,
    /// The type.
    pub ty: BTy,
    /// What it denotes.
    pub kind: BuiltinKind,
}

impl Builtin {
    /// The builtin `sym` names, if any.
    pub fn of(sym: Sym) -> Option<&'static Builtin> {
        sym.builtin_index().map(|i| &BUILTINS[i])
    }

    /// The builtin's type with fresh variables for its generic ones.
    pub fn instantiate(&self, uni: &mut Unifier) -> Ty {
        let mut vars = [Ty::Void, Ty::Void];
        for v in vars.iter_mut().take(self.nvars as usize) {
            *v = uni.fresh();
        }
        build(&self.ty, &vars)
    }
}

fn build(ty: &BTy, vars: &[Ty]) -> Ty {
    match ty {
        BTy::Int => Ty::Int,
        BTy::Float => Ty::Float,
        BTy::Void => Ty::Void,
        BTy::Index => Ty::Index,
        BTy::Bounds => Ty::Bounds,
        BTy::Var(i) => vars[*i as usize].clone(),
        BTy::List(t) => Ty::List(Rc::new(build(t, vars))),
        BTy::Array(t) => Ty::Pardata(Sym::ARRAY, Rc::new([build(t, vars)])),
        BTy::Fun(args, ret) => {
            Ty::Fun(args.iter().map(|a| build(a, vars)).collect(), Rc::new(build(ret, vars)))
        }
    }
}

use BTy::{Array as Arr, Bounds, Float, Fun, Index, Int, List, Void};
const A: BTy = BTy::Var(0);
const B: BTy = BTy::Var(1);

const fn skeleton(
    name: &'static str,
    nvars: u8,
    ty: BTy,
    op: SkelOp,
    fn_args: &'static [usize],
) -> Builtin {
    Builtin { name, nvars, ty, kind: BuiltinKind::Skeleton { op, fn_args } }
}

const fn intrinsic(name: &'static str, nvars: u8, ty: BTy, op: Intr) -> Builtin {
    Builtin { name, nvars, ty, kind: BuiltinKind::Intrinsic(op) }
}

const fn constant(name: &'static str, ty: BTy, op: Intr) -> Builtin {
    Builtin { name, nvars: 0, ty, kind: BuiltinKind::Const(op) }
}

/// Every builtin. The order is the order of their [`Sym`]s (the symbol
/// table seeds itself from this table).
pub static BUILTINS: [Builtin; 39] = [
    // --- skeletons (paper §3) ---
    skeleton(
        "array_create",
        1,
        // dim, size, blocksize, lowerbd, init_elem, distr
        Fun(&[Int, Index, Index, Index, Fun(&[Index], &A), Int], &Arr(&A)),
        SkelOp::Create,
        &[4],
    ),
    skeleton("array_destroy", 1, Fun(&[Arr(&A)], &Void), SkelOp::Destroy, &[]),
    skeleton(
        "array_map",
        2,
        Fun(&[Fun(&[A, Index], &B), Arr(&A), Arr(&B)], &Void),
        SkelOp::Map,
        &[0],
    ),
    skeleton(
        "array_fold",
        2,
        Fun(&[Fun(&[A, Index], &B), Fun(&[B, B], &B), Arr(&A)], &B),
        SkelOp::Fold,
        &[0, 1],
    ),
    skeleton("array_copy", 1, Fun(&[Arr(&A), Arr(&A)], &Void), SkelOp::Copy, &[]),
    skeleton("array_broadcast_part", 1, Fun(&[Arr(&A), Index], &Void), SkelOp::BroadcastPart, &[]),
    skeleton(
        "array_permute_rows",
        1,
        Fun(&[Arr(&A), Fun(&[Int], &Int), Arr(&A)], &Void),
        SkelOp::PermuteRows,
        &[1],
    ),
    skeleton(
        "array_gen_mult",
        1,
        Fun(&[Arr(&A), Arr(&A), Fun(&[A, A], &A), Fun(&[A, A], &A), Arr(&A)], &Void),
        SkelOp::GenMult,
        &[2, 3],
    ),
    skeleton(
        "array_scan",
        1,
        Fun(&[Fun(&[A, A], &A), Arr(&A), Arr(&A)], &Void),
        SkelOp::Scan,
        &[0],
    ),
    // --- task-parallel skeletons (the paper's introduction) ---
    // $b d&c(int is_trivial($a), $b solve($a), list<$a> split($a),
    //        $b join(list<$b>), $a problem)
    skeleton(
        "dc",
        2,
        Fun(&[Fun(&[A], &Int), Fun(&[A], &B), Fun(&[A], &List(&A)), Fun(&[List(&B)], &B), A], &B),
        SkelOp::Dc,
        &[0, 1, 2, 3],
    ),
    skeleton("farm", 2, Fun(&[Fun(&[A], &B), List(&A)], &List(&B)), SkelOp::Farm, &[0]),
    // --- local element access (the paper's macros) ---
    intrinsic("array_get_elem", 1, Fun(&[Arr(&A), Index], &A), Intr::ArrayGetElem),
    intrinsic("array_put_elem", 1, Fun(&[Arr(&A), Index, A], &Void), Intr::ArrayPutElem),
    intrinsic("array_part_bounds", 1, Fun(&[Arr(&A)], &Bounds), Intr::ArrayPartBounds),
    // --- lists ---
    intrinsic("nil", 1, Fun(&[], &List(&A)), Intr::Nil),
    intrinsic("cons", 1, Fun(&[A, List(&A)], &List(&A)), Intr::Cons),
    intrinsic("head", 1, Fun(&[List(&A)], &A), Intr::Head),
    intrinsic("tail", 1, Fun(&[List(&A)], &List(&A)), Intr::Tail),
    intrinsic("len", 1, Fun(&[List(&A)], &Int), Intr::Len),
    intrinsic("append", 1, Fun(&[List(&A), List(&A)], &List(&A)), Intr::Append),
    // --- scalar intrinsics ---
    intrinsic("abs", 0, Fun(&[Int], &Int), Intr::Abs),
    intrinsic("fabs", 0, Fun(&[Float], &Float), Intr::Fabs),
    intrinsic("min", 0, Fun(&[Int, Int], &Int), Intr::Min),
    intrinsic("max", 0, Fun(&[Int, Int], &Int), Intr::Max),
    intrinsic("fmin", 0, Fun(&[Float, Float], &Float), Intr::Fmin),
    intrinsic("fmax", 0, Fun(&[Float, Float], &Float), Intr::Fmax),
    intrinsic("sqrt", 0, Fun(&[Float], &Float), Intr::Sqrt),
    intrinsic("itof", 0, Fun(&[Int], &Float), Intr::Itof),
    intrinsic("ftoi", 0, Fun(&[Float], &Int), Intr::Ftoi),
    intrinsic("log2i", 0, Fun(&[Int], &Int), Intr::Log2i),
    intrinsic("print", 1, Fun(&[A], &Void), Intr::Print),
    intrinsic("error", 0, Fun(&[Int], &Void), Intr::Error),
    // --- constants ---
    constant("procId", Int, Intr::ProcId),
    constant("nProcs", Int, Intr::NProcs),
    constant("int_max", Int, Intr::IntMax),
    constant("flt_max", Float, Intr::FltMax),
    constant("DISTR_DEFAULT", Int, Intr::DistrDefault),
    constant("DISTR_RING", Int, Intr::DistrRing),
    constant("DISTR_TORUS2D", Int, Intr::DistrTorus2d),
];

/// Values of the distribution constants (shared with the interpreter).
pub const DISTR_DEFAULT: i64 = 0;
/// Ring virtual topology.
pub const DISTR_RING: i64 = 1;
/// 2-D torus virtual topology.
pub const DISTR_TORUS2D: i64 = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::Interner;

    fn builtin(name: &str) -> &'static Builtin {
        Builtin::of(Interner::new().find(name).expect("seeded")).expect("a builtin")
    }

    #[test]
    fn names_resolve_to_their_own_entries() {
        for b in &BUILTINS {
            assert_eq!(builtin(b.name).name, b.name);
        }
        assert!(Builtin::of(Sym::MAIN).is_none());
        assert!(Builtin::of(Sym::ARRAY).is_none(), "`array` is a type, not a function");
    }

    #[test]
    fn every_skeleton_and_intrinsic_is_a_function() {
        for b in &BUILTINS {
            let is_fun = matches!(b.ty, BTy::Fun(..));
            assert_eq!(is_fun, !matches!(b.kind, BuiltinKind::Const(_)), "{}", b.name);
        }
    }

    #[test]
    fn every_kind_maps_back_to_its_name() {
        // `SkelOp::name` and `Intr::name` read this table: each kind is
        // one entry's
        for b in &BUILTINS {
            let name = match b.kind {
                BuiltinKind::Skeleton { op, .. } => op.name(),
                BuiltinKind::Intrinsic(i) | BuiltinKind::Const(i) => i.name(),
            };
            assert_eq!(name, b.name);
        }
    }

    #[test]
    fn gen_mult_scheme_shape() {
        let b = builtin("array_gen_mult");
        assert_eq!(b.nvars, 1);
        let mut uni = Unifier::default();
        let Ty::Fun(params, ret) = b.instantiate(&mut uni) else { panic!() };
        assert_eq!(params.len(), 5);
        assert_eq!(*ret, Ty::Void);
        // one fresh variable, used for every element type
        assert_eq!(params[0], Ty::Pardata(Sym::ARRAY, Rc::new([Ty::Var(0)])));
        assert_eq!(params[0], params[4]);
    }

    #[test]
    fn each_use_gets_fresh_variables() {
        let mut uni = Unifier::default();
        let a = builtin("array_fold").instantiate(&mut uni);
        let b = builtin("array_fold").instantiate(&mut uni);
        assert_ne!(a, b);
        assert_eq!(builtin("procId").instantiate(&mut uni), Ty::Int);
    }
}
