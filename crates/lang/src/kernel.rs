//! The kernel view of a compiled program: what skeleton argument
//! functions run as, built once per [`crate::Compiled`].
//!
//! Instantiation leaves first-order *monomorphic* code, so an argument
//! function whose parameters, locals, result and callees are all `int`,
//! `float`, `Index`, `Bounds`, handles of `array<int>` / `array<float>`,
//! flat structs (at most eight `int` / `float` fields) or lists of
//! `int`, `float` or lists of those needs no tagged slots at all. At
//! `-O2` every such function of shape [`KernelShape::General`] is
//! lowered — from the optimized bytecode, so inlining, folding and
//! fusion are inherited and there is still one optimizer — into
//! three-address code over untagged 8-byte registers ([`KIns`]): the
//! operator and the operand type are resolved per instruction, an
//! `Index` is two consecutive registers, a `Bounds` four and a struct
//! one per field (a field access is the register itself), constants sit
//! in registers, and there is no operand stack at run time. A loop is
//! bottom-tested ([`rotate_loops`]) and a division or remainder by a
//! positive power-of-two constant is a shift or a mask. A function that
//! uses anything else (lists of structs or nested three deep, structs of
//! more than scalars, `print`, `array_put_elem`, a skeleton, a callee
//! over structs or lists) or needs more registers than a frame window
//! has is not lowered and runs on the generic loop of [`crate::vm`] over
//! the program's own bytecode, exactly as it does at `-O0`; the listing
//! names what blocked it.
//!
//! ## Frame layout
//!
//! ```text
//! [ constants | parameters (lifted.., element args..) | locals | temporaries ]
//! ```
//!
//! A register is a `u8` and a frame lives in a window of 256 registers,
//! so the dispatch loop indexes a `[u64; 256]` and no register access is
//! bounds-checked. Operand-stack depth `d` of the source bytecode owns
//! the temporary `tbase + w*d` — `w` registers wide: two, or what the
//! widest struct (or a `Bounds`) of the function takes — so values that
//! meet at a jump target meet in the same register without any
//! allocation pass. A call opens the callee's window right above the
//! caller's frame in the same register file.
//!
//! ## Lists
//!
//! A list is one register, and the list it names is that register's
//! entry in a side window of [`ConsList`]s beside the registers — a
//! handle, not a copy, and nothing allocated to hold it. A `list<T>`'s
//! element type is inferred with the slot types (`nil()` is a list of
//! anything until a `cons`, a store or the signature says which). The
//! list instructions run out of line, as one arm of the dispatch loop,
//! so the scalar arms compile as they would without them. They keep the
//! generic loop's ownership: `x = cons(e, x)` and `x = tail(x)` update
//! `x` where it lies, `cons` consumes a temporary list and copies a
//! variable's, a store moves a temporary, and a returned list is moved
//! out of the frame while the frame's other lists are dropped — so a
//! list no one else holds grows, shrinks and crosses back into the
//! skeleton (whose `dc` moves the chunks it alone holds) without a copy
//! of an element or a heap cell per element. Warm, the paper's quicksort
//! of 32 elements on a 2x2 mesh makes 371 allocations at `-O2`, 403 on
//! the generic loop.
//!
//! ## A site's argument function
//!
//! A skeleton call readies each typed argument function once
//! ([`TypedSite`]): register file allocated, constants and lifted
//! arguments written, first element-argument register known. Per
//! element the skeleton writes the arguments — a scalar or an index as
//! it is, a flat struct as its words ([`KArg::W`]), a list as a handle
//! in the side window — and runs; a struct result is read back as
//! words, so a struct-valued fold allocates nothing per element.
//!
//! ## Virtual time
//!
//! Kernel mode charges nothing per instruction — the skeleton charges
//! the statically estimated kernel cost per element — so `Charge`s are
//! dropped here (and are no-ops on the generic loop) and no virtual
//! cycle can move, whichever form runs.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::fmt::Write as _;
use std::mem::take;

use skil_array::Index;

use crate::bytecode::{CompiledFunc, Instr, Intr, KernelShape, Program, Src};
use crate::fo::{BinOp, FoProgram, FoTy, SkelOp};
use crate::host::{live_array, part_bounds, program_error, rt, to_uindex, KEnv};
use crate::opt::OptLevel;
use crate::scalar::{
    div_pow2, float_arith, float_cmp, int_bin, neg_int, rem_pow2, scalar_intr, Scalar,
};
use crate::store::{Elem, FlatElem, FloatElem, IntElem};
use crate::sym::Names;
use crate::value::{ConsList, Value};
use crate::vm::Sl;

// ---------------------------------------------------------------------
// Types and instructions.
// ---------------------------------------------------------------------

/// The static types the typed tier handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KTy {
    /// `void`: no register.
    Unit,
    Int,
    Float,
    /// Two consecutive registers.
    Index,
    /// Handle of an `array<int>`.
    ArrInt,
    /// Handle of an `array<float>`.
    ArrFloat,
    /// A struct of `int` and `float` fields: one register per field.
    Struct(Flat),
    /// Partition bounds: four registers, `lower[0], lower[1], upper[0],
    /// upper[1]` — each of its two fields is an `Index` in place.
    Bounds,
    /// A list: register `r`'s list is entry `r` of the side window
    /// beside the registers.
    List(LElem),
}

/// A list's element type, as far as lowering knows it: `nil()` is a
/// list of anything until a `cons`, a store, a join or the function's
/// signature says which.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LElem {
    Any,
    Int,
    Float,
    /// A list of lists of anything.
    AnyList,
    IntList,
    FloatList,
}

impl LElem {
    /// The element type; `None` while it is unknown.
    fn ty(self) -> Option<KTy> {
        Some(match self {
            LElem::Any => return None,
            LElem::Int => KTy::Int,
            LElem::Float => KTy::Float,
            LElem::AnyList => KTy::List(LElem::Any),
            LElem::IntList => KTy::List(LElem::Int),
            LElem::FloatList => KTy::List(LElem::Float),
        })
    }

    /// The element type of a list of `ty` (`None`: not yet known);
    /// `None` for what the tier keeps no list of.
    fn of(ty: Option<KTy>) -> Option<LElem> {
        Some(match ty {
            None => LElem::Any,
            Some(KTy::Int) => LElem::Int,
            Some(KTy::Float) => LElem::Float,
            Some(KTy::List(LElem::Any)) => LElem::AnyList,
            Some(KTy::List(LElem::Int)) => LElem::IntList,
            Some(KTy::List(LElem::Float)) => LElem::FloatList,
            Some(_) => return None,
        })
    }

    /// What both element types can be; `None` when they disagree.
    fn join(self, other: LElem) -> Option<LElem> {
        use LElem::*;
        match (self, other) {
            (a, b) if a == b => Some(a),
            (Any, x) | (x, Any) => Some(x),
            (AnyList, x @ (IntList | FloatList)) | (x @ (IntList | FloatList), AnyList) => Some(x),
            _ => None,
        }
    }
}

/// A struct instance whose fields are all `int` or `float`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Flat {
    /// Index into `FoProgram::structs`.
    pub(crate) sid: u16,
    /// Number of fields (at most [`Flat::MAX_FIELDS`]).
    pub(crate) n: u8,
    /// Bit `k`: field `k` is a `float`.
    floats: u8,
}

impl Flat {
    pub(crate) const MAX_FIELDS: usize = 8;

    /// A flat struct by its parts; bit `k` of `floats` says field `k` is
    /// a `float`.
    pub(crate) fn new(sid: u16, n: u8, floats: u8) -> Flat {
        debug_assert!(n as usize <= Flat::MAX_FIELDS);
        Flat { sid, n, floats }
    }

    /// `ty` as a flat struct, when it is one.
    pub(crate) fn of_ty(fo: &FoProgram, ty: &FoTy) -> Option<Flat> {
        let FoTy::Struct(name) = ty else { return None };
        Flat::of(fo, fo.structs.iter().position(|s| s.name == *name)?)
    }

    fn of(fo: &FoProgram, sid: usize) -> Option<Flat> {
        let fields = &fo.structs.get(sid)?.fields;
        if fields.len() > Flat::MAX_FIELDS {
            return None;
        }
        let mut floats = 0;
        for (k, (_, ty)) in fields.iter().enumerate() {
            match ty {
                FoTy::Int => {}
                FoTy::Float => floats |= 1 << k,
                _ => return None,
            }
        }
        Some(Flat { sid: u16::try_from(sid).ok()?, n: fields.len() as u8, floats })
    }

    /// The type of field `k`.
    pub(crate) fn field(self, k: usize) -> KTy {
        if self.floats >> k & 1 == 1 {
            KTy::Float
        } else {
            KTy::Int
        }
    }
}

impl KTy {
    /// `ty` in tier types, or why the tier keeps no value of it.
    fn of(fo: &FoProgram, ty: &FoTy) -> Result<KTy, Blocker> {
        Ok(match ty {
            FoTy::Void => KTy::Unit,
            FoTy::Int => KTy::Int,
            FoTy::Float => KTy::Float,
            FoTy::Index => KTy::Index,
            FoTy::Array(t) => match **t {
                FoTy::Int => KTy::ArrInt,
                FoTy::Float => KTy::ArrFloat,
                _ => return Err(Blocker::WideArray),
            },
            FoTy::Struct(_) => KTy::Struct(Flat::of_ty(fo, ty).ok_or(Blocker::WideStruct)?),
            FoTy::Bounds => KTy::Bounds,
            FoTy::List(t) => KTy::List(match &**t {
                FoTy::Int => LElem::Int,
                FoTy::Float => LElem::Float,
                FoTy::List(u) if **u == FoTy::Int => LElem::IntList,
                FoTy::List(u) if **u == FoTy::Float => LElem::FloatList,
                FoTy::Struct(_) => return Err(Blocker::ListOfStructs),
                FoTy::Array(_) => return Err(Blocker::ListOfArrays),
                FoTy::List(u) if matches!(**u, FoTy::List(_)) => return Err(Blocker::DeepList),
                FoTy::List(_) => return Err(Blocker::WideLists),
                _ => return Err(Blocker::ListOfIndexes),
            }),
        })
    }

    /// What both types can be; `None` when they disagree.
    fn join(self, other: KTy) -> Option<KTy> {
        match (self, other) {
            (KTy::List(a), KTy::List(b)) => a.join(b).map(KTy::List),
            (a, b) => (a == b).then_some(a),
        }
    }

    fn words(self) -> usize {
        match self {
            KTy::Unit => 0,
            KTy::Index => 2,
            KTy::Struct(flat) => flat.n as usize,
            KTy::Bounds => 4,
            _ => 1,
        }
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            KTy::Unit => "void",
            KTy::Int => "int",
            KTy::Float => "float",
            KTy::Index => "Index",
            KTy::ArrInt => "array<int>",
            KTy::ArrFloat => "array<float>",
            KTy::Struct(_) => "struct",
            KTy::Bounds => "Bounds",
            KTy::List(LElem::Any) => "list<?>",
            KTy::List(LElem::Int) => "list<int>",
            KTy::List(LElem::Float) => "list<float>",
            KTy::List(LElem::AnyList) => "list<list<?>>",
            KTy::List(LElem::IntList) => "list<list<int>>",
            KTy::List(LElem::FloatList) => "list<list<float>>",
        }
    }
}

/// Defines [`Blocker`]: per variant the type it names, phrased both ways
/// the listing gives it — as a function's own signature and as a
/// callee's.
macro_rules! blockers {
    ($( $name:ident = $what:literal ),* $(,)?) => {
        /// A type that keeps a function off the tier.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Blocker {
            $( $name ),*
        }

        impl Blocker {
            fn in_signature(self) -> Why {
                match self {
                    $( Blocker::$name => concat!("its signature has ", $what) ),*
                }
            }

            fn in_callee(self) -> Why {
                match self {
                    $( Blocker::$name => concat!("calls a function over ", $what) ),*
                }
            }
        }
    };
}

blockers! {
    WideArray = "an array of more than scalars",
    WideStruct = "a struct of more than scalars",
    ListOfStructs = "a list of structs",
    ListOfArrays = "a list of arrays",
    ListOfIndexes = "a list of Index or Bounds values",
    DeepList = "a list nested more than two deep",
    WideLists = "a list of lists of more than scalars",
    VoidParam = "a void parameter",
    // what typed code calls only over scalars, arrays and indexes
    Structs = "structs",
    Lists = "lists",
    Bounds = "Bounds",
}

/// A frame register: an index into the activation's window of
/// [`WINDOW`] registers, whatever its value — which is what lets the
/// dispatch loop read and write registers without bounds checks.
type R = u8;
/// A jump target (instruction index within the function).
type T = u16;

/// Registers in a frame window: every `R` names one. A function that
/// needs more stays on the generic loop.
const WINDOW: usize = R::MAX as usize + 1;

/// Register `k` places after `r`. Lowering lays frames out inside one
/// window, so nothing wraps in emitted code; the inference passes, which
/// run before there is a layout and emit nothing, may wrap freely.
fn reg_at(r: R, k: usize) -> R {
    r.wrapping_add(k as R)
}

/// Defines [`KIns`] from one table: per variant its operands, each a
/// register (`r`), a jump target (`t`), a callee (`f`), an intrinsic
/// (`i`) or a register count (`n`) — which is also all the listing and
/// the jump patcher need.
macro_rules! kins {
    (@ty r) => { R };
    (@ty t) => { T };
    (@ty f) => { u16 };
    (@ty i) => { Intr };
    (@ty n) => { u8 };
    (@show r $v:ident) => { format!("r{}", $v) };
    (@show t $v:ident) => { format!("@{}", $v) };
    (@show f $v:ident) => { format!("fn#{}", $v) };
    (@show i $v:ident) => { $v.name().to_string() };
    (@show n $v:ident) => { format!("{}", $v) };
    (@target t $v:ident) => { return Some($v) };
    (@target $k:ident $v:ident) => { let _ = $v; };
    ($( $(#[$doc:meta])* $name:ident ( $($arg:ident : $kind:ident),* ) ),* $(,)?) => {
        /// One typed three-address instruction: destination first, then
        /// sources. `I`/`F` name the operand type; `Jx a, b, t` jumps
        /// when `a x b` holds, `Jnx` when it does not (for floats the two
        /// differ on NaN; for ints `Jnx` is the complementary `Jy`).
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub(crate) enum KIns {
            $( $(#[$doc])* $name( $(kins!(@ty $kind)),* ) ),*
        }

        impl KIns {
            #[allow(unreachable_code)]
            fn target_mut(&mut self) -> Option<&mut T> {
                match self {
                    $( KIns::$name($($arg),*) => { $( kins!(@target $kind $arg); )* None } )*
                }
            }
        }

        impl std::fmt::Display for KIns {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                match self {
                    $( KIns::$name($($arg),*) => {
                        let args: Vec<String> = vec![$( kins!(@show $kind $arg) ),*];
                        let listed = format!("{} {}", stringify!($name).to_lowercase(), args.join(", "));
                        f.write_str(listed.trim_end())
                    } )*
                }
            }
        }
    };
}

kins! {
    AddI(d: r, a: r, b: r),
    SubI(d: r, a: r, b: r),
    MulI(d: r, a: r, b: r),
    DivI(d: r, a: r, b: r),
    RemI(d: r, a: r, b: r),
    AddF(d: r, a: r, b: r),
    SubF(d: r, a: r, b: r),
    MulF(d: r, a: r, b: r),
    DivF(d: r, a: r, b: r),
    RemF(d: r, a: r, b: r),
    /// `d = a / 2^k`: division by a positive power-of-two constant.
    DivP2(d: r, a: r, k: n),
    /// `d = a % 2^k`.
    RemP2(d: r, a: r, k: n),
    EqI(d: r, a: r, b: r),
    NeI(d: r, a: r, b: r),
    LtI(d: r, a: r, b: r),
    LeI(d: r, a: r, b: r),
    GtI(d: r, a: r, b: r),
    GeI(d: r, a: r, b: r),
    EqF(d: r, a: r, b: r),
    NeF(d: r, a: r, b: r),
    LtF(d: r, a: r, b: r),
    LeF(d: r, a: r, b: r),
    GtF(d: r, a: r, b: r),
    GeF(d: r, a: r, b: r),
    NegI(d: r, a: r),
    NegF(d: r, a: r),
    /// `d = (a == 0)`.
    Not(d: r, a: r),
    /// `d = (a != 0)`.
    ToBool(d: r, a: r),
    Mov(d: r, a: r),
    /// Move an `Index` (two registers).
    Mov2(d: r, a: r),
    /// Move a struct (`n` registers).
    MovN(d: r, a: r, n: n),
    /// `d, d+1 = a, b`.
    MkIx(d: r, a: r, b: r),
    /// `d = ix[comp]` with a run-time component.
    IxAt(d: r, ix: r, comp: r),
    /// A one-operand scalar intrinsic ([`scalar_intr`]).
    Intr1(op: i, d: r, a: r),
    /// A two-operand scalar intrinsic.
    Intr2(op: i, d: r, a: r, b: r),
    ProcId(d: r),
    NProcs(d: r),
    /// `d = array_get_elem(arr, {i, j})` over an `array<int>`.
    GetI(d: r, arr: r, i: r, j: r),
    /// The same over an `array<float>`.
    GetF(d: r, arr: r, i: r, j: r),
    /// `d..d+4 = array_part_bounds(arr)`, over either scalar array.
    PartBounds(d: r, arr: r),
    /// `error(a)`.
    Error(a: r),
    // Lists, in the side window; an operand `l` is `side[l]`. Run out of
    // line, as one arm of the dispatch loop (see `Lists`).
    /// `d = nil()`.
    Nil(d: r),
    /// `d = len(l)`.
    Len(d: r, l: r),
    /// `d = head(l)` of a list of scalars: the element's bits.
    Head(d: r, l: r),
    /// `d = head(l)` of a list of lists.
    HeadL(d: r, l: r),
    /// `d = tail(l)`; in place when `d == l`.
    Tail(d: r, l: r),
    /// `d = cons(e, l)` onto an int, consuming `l`: in place when no
    /// other list shares its front.
    ConsI(d: r, e: r, l: r),
    /// The same with a float.
    ConsF(d: r, e: r, l: r),
    /// The same with the list `e`.
    ConsL(d: r, e: r, l: r),
    /// `d = append(a, b)`.
    Append(d: r, a: r, b: r),
    /// Copy a list: a second handle on the same chunks.
    MovL(d: r, l: r),
    /// Move a list out of a temporary that is dead after.
    TakeL(d: r, l: r),
    Jmp(to: t),
    Jz(a: r, to: t),
    Jnz(a: r, to: t),
    JEqI(a: r, b: r, to: t),
    JNeI(a: r, b: r, to: t),
    JLtI(a: r, b: r, to: t),
    JLeI(a: r, b: r, to: t),
    JGtI(a: r, b: r, to: t),
    JGeI(a: r, b: r, to: t),
    JEqF(a: r, b: r, to: t),
    JNeF(a: r, b: r, to: t),
    JLtF(a: r, b: r, to: t),
    JLeF(a: r, b: r, to: t),
    JGtF(a: r, b: r, to: t),
    JGeF(a: r, b: r, to: t),
    JnEqF(a: r, b: r, to: t),
    JnNeF(a: r, b: r, to: t),
    JnLtF(a: r, b: r, to: t),
    JnLeF(a: r, b: r, to: t),
    JnGtF(a: r, b: r, to: t),
    JnGeF(a: r, b: r, to: t),
    /// Call function `fid` with its arguments at the temporaries from
    /// `args` on (one temporary per argument); the result goes to `d`.
    Call(fid: f, args: r, d: r),
    Ret(a: r),
    /// Return an `Index`.
    Ret2(a: r),
    /// Return a struct: it stays in the frame, at register `a`, where
    /// the skeleton reads it.
    RetN(a: r),
    /// Return from a `void` function.
    Ret0(),
    /// Return a list: it stays in the side window, at `l`, where the
    /// skeleton takes it.
    RetL(l: r),
}

impl KIns {
    /// `d = a op b`; `None` for what the tier does not lower (logic on
    /// floats is a runtime type error, ints short-circuit in branches).
    fn bin(op: BinOp, float: bool, d: R, a: R, b: R) -> Option<KIns> {
        use BinOp::*;
        let make = match (op, float) {
            (Add, false) => KIns::AddI,
            (Sub, false) => KIns::SubI,
            (Mul, false) => KIns::MulI,
            (Div, false) => KIns::DivI,
            (Rem, false) => KIns::RemI,
            (Eq, false) => KIns::EqI,
            (Ne, false) => KIns::NeI,
            (Lt, false) => KIns::LtI,
            (Le, false) => KIns::LeI,
            (Gt, false) => KIns::GtI,
            (Ge, false) => KIns::GeI,
            (Add, true) => KIns::AddF,
            (Sub, true) => KIns::SubF,
            (Mul, true) => KIns::MulF,
            (Div, true) => KIns::DivF,
            (Rem, true) => KIns::RemF,
            (Eq, true) => KIns::EqF,
            (Ne, true) => KIns::NeF,
            (Lt, true) => KIns::LtF,
            (Le, true) => KIns::LeF,
            (Gt, true) => KIns::GtF,
            (Ge, true) => KIns::GeF,
            (And | Or, _) => return None,
        };
        Some(make(d, a, b))
    }

    /// `(op, float, d, a, b)` of a comparison into a register.
    fn as_cmp(&self) -> Option<(BinOp, bool, R, R, R)> {
        use BinOp::*;
        Some(match *self {
            KIns::EqI(d, a, b) => (Eq, false, d, a, b),
            KIns::NeI(d, a, b) => (Ne, false, d, a, b),
            KIns::LtI(d, a, b) => (Lt, false, d, a, b),
            KIns::LeI(d, a, b) => (Le, false, d, a, b),
            KIns::GtI(d, a, b) => (Gt, false, d, a, b),
            KIns::GeI(d, a, b) => (Ge, false, d, a, b),
            KIns::EqF(d, a, b) => (Eq, true, d, a, b),
            KIns::NeF(d, a, b) => (Ne, true, d, a, b),
            KIns::LtF(d, a, b) => (Lt, true, d, a, b),
            KIns::LeF(d, a, b) => (Le, true, d, a, b),
            KIns::GtF(d, a, b) => (Gt, true, d, a, b),
            KIns::GeF(d, a, b) => (Ge, true, d, a, b),
            _ => return None,
        })
    }

    /// Where the instruction may jump to.
    fn target(&self) -> Option<usize> {
        let mut ins = *self;
        ins.target_mut().map(|t| *t as usize)
    }

    /// Control never reaches the next instruction.
    fn leaves(&self) -> bool {
        matches!(
            self,
            KIns::Jmp(_)
                | KIns::Ret(_)
                | KIns::Ret2(_)
                | KIns::RetN(_)
                | KIns::Ret0()
                | KIns::RetL(_)
                | KIns::Error(_)
        )
    }

    /// The register a list instruction computes into, but for the
    /// in-place `tail`.
    fn list_dest_mut(&mut self) -> Option<&mut R> {
        match self {
            KIns::Tail(d, l) if d == l => None,
            KIns::Nil(d)
            | KIns::Len(d, _)
            | KIns::Head(d, _)
            | KIns::HeadL(d, _)
            | KIns::Tail(d, _)
            | KIns::ConsI(d, ..)
            | KIns::ConsF(d, ..)
            | KIns::ConsL(d, ..)
            | KIns::Append(d, ..) => Some(d),
            _ => None,
        }
    }

    /// Reads or writes the side window.
    fn is_list(&self) -> bool {
        matches!(
            self,
            KIns::Nil(..)
                | KIns::Len(..)
                | KIns::Head(..)
                | KIns::HeadL(..)
                | KIns::Tail(..)
                | KIns::ConsI(..)
                | KIns::ConsF(..)
                | KIns::ConsL(..)
                | KIns::Append(..)
                | KIns::MovL(..)
                | KIns::TakeL(..)
                | KIns::RetL(..)
        )
    }

    /// The conditional jump to `to` that is taken exactly when `self`
    /// is not; `None` for everything that is not a conditional jump.
    fn inverted(&self, to: T) -> Option<KIns> {
        Some(match *self {
            KIns::Jz(a, _) => KIns::Jnz(a, to),
            KIns::Jnz(a, _) => KIns::Jz(a, to),
            KIns::JEqI(a, b, _) => KIns::JNeI(a, b, to),
            KIns::JNeI(a, b, _) => KIns::JEqI(a, b, to),
            KIns::JLtI(a, b, _) => KIns::JGeI(a, b, to),
            KIns::JLeI(a, b, _) => KIns::JGtI(a, b, to),
            KIns::JGtI(a, b, _) => KIns::JLeI(a, b, to),
            KIns::JGeI(a, b, _) => KIns::JLtI(a, b, to),
            KIns::JEqF(a, b, _) => KIns::JnEqF(a, b, to),
            KIns::JNeF(a, b, _) => KIns::JnNeF(a, b, to),
            KIns::JLtF(a, b, _) => KIns::JnLtF(a, b, to),
            KIns::JLeF(a, b, _) => KIns::JnLeF(a, b, to),
            KIns::JGtF(a, b, _) => KIns::JnGtF(a, b, to),
            KIns::JGeF(a, b, _) => KIns::JnGeF(a, b, to),
            KIns::JnEqF(a, b, _) => KIns::JEqF(a, b, to),
            KIns::JnNeF(a, b, _) => KIns::JNeF(a, b, to),
            KIns::JnLtF(a, b, _) => KIns::JLtF(a, b, to),
            KIns::JnLeF(a, b, _) => KIns::JLeF(a, b, to),
            KIns::JnGtF(a, b, _) => KIns::JGtF(a, b, to),
            KIns::JnGeF(a, b, _) => KIns::JGeF(a, b, to),
            _ => return None,
        })
    }

    /// Jump when `a op b` is `want`; the target is patched later.
    fn jump_cmp(op: BinOp, float: bool, want: bool, a: R, b: R) -> Option<KIns> {
        use BinOp::*;
        // an int comparison that must fail is the complementary one
        let op = match (op, float || want) {
            (_, true) => op,
            (Eq, false) => Ne,
            (Ne, false) => Eq,
            (Lt, false) => Ge,
            (Le, false) => Gt,
            (Gt, false) => Le,
            (Ge, false) => Lt,
            (other, false) => other,
        };
        let make = match (op, float, float && !want) {
            (Eq, false, _) => KIns::JEqI,
            (Ne, false, _) => KIns::JNeI,
            (Lt, false, _) => KIns::JLtI,
            (Le, false, _) => KIns::JLeI,
            (Gt, false, _) => KIns::JGtI,
            (Ge, false, _) => KIns::JGeI,
            (Eq, true, false) => KIns::JEqF,
            (Ne, true, false) => KIns::JNeF,
            (Lt, true, false) => KIns::JLtF,
            (Le, true, false) => KIns::JLeF,
            (Gt, true, false) => KIns::JGtF,
            (Ge, true, false) => KIns::JGeF,
            (Eq, true, true) => KIns::JnEqF,
            (Ne, true, true) => KIns::JnNeF,
            (Lt, true, true) => KIns::JnLtF,
            (Le, true, true) => KIns::JnLeF,
            (Gt, true, true) => KIns::JnGtF,
            (Ge, true, true) => KIns::JnGeF,
            _ => return None,
        };
        Some(make(a, b, 0))
    }
}

// ---------------------------------------------------------------------
// Lowering: optimized bytecode -> typed code.
// ---------------------------------------------------------------------

/// Why a function stays on the generic loop.
type Why = &'static str;

/// A function's signature in tier types, or the first type in it the
/// tier keeps no value of.
fn signature(fo: &FoProgram, fid: usize) -> Result<(Vec<KTy>, KTy), Blocker> {
    let f = &fo.funcs[fid];
    let param = |ty| match KTy::of(fo, ty)? {
        KTy::Unit => Err(Blocker::VoidParam),
        ty => Ok(ty),
    };
    let params: Result<Vec<KTy>, Blocker> = f.params.iter().map(|(_, ty)| param(ty)).collect();
    Ok((params?, KTy::of(fo, &f.ret)?))
}

/// A value on the abstract operand stack: its type (`None` while slot
/// types are still being inferred) and the register it currently lives
/// in — its depth's own temporary, or an alias of a slot or constant
/// register that no instruction has had to copy yet.
#[derive(Debug, Clone, Copy)]
struct Opnd {
    ty: Option<KTy>,
    reg: R,
    /// The value, when this is an int constant.
    int: Option<i64>,
}

impl Opnd {
    fn new(ty: Option<KTy>, reg: R) -> Opnd {
        Opnd { ty, reg, int: None }
    }

    const UNIT: Opnd = Opnd { ty: Some(KTy::Unit), reg: 0, int: None };
}

/// One function after lowering.
struct Lowered {
    code: Vec<KIns>,
    /// Constant registers: type and raw bits.
    consts: Vec<(KTy, u64)>,
    nregs: u16,
    params: Vec<KTy>,
    ret: KTy,
    twidth: usize,
    /// Callees, by function index.
    calls: Vec<usize>,
}

struct Lower<'a> {
    code: &'a Program,
    f: &'a CompiledFunc,
    fo: &'a FoProgram,
    ret: KTy,
    /// Inferred type per frame slot; parameters are given.
    slot_ty: Vec<Option<KTy>>,
    /// Constant registers, in first-use order: type and raw bits.
    consts: Vec<(KTy, u64)>,
    /// Deepest operand stack seen, in entries.
    max_depth: usize,
    /// Pass mode: the inference passes emit nothing and have no layout.
    emit: bool,
    slot_reg: Vec<R>,
    tbase: usize,
    /// Registers per temporary: two, or what the widest struct (or a
    /// `Bounds`) takes.
    twidth: usize,
    out: Vec<KIns>,
    vs: Vec<Opnd>,
    /// Every address a lowered jump can name: targets after threading,
    /// and both ways out of a conditional jump that an unconditional
    /// one is merged into.
    is_target: Vec<bool>,
    /// Typed address of each such bytecode address.
    typed_at: Vec<u32>,
    /// Stack types on entry to each jump target, once known.
    entry: Vec<Option<Vec<Option<KTy>>>>,
    /// Jumps awaiting the typed address of their bytecode target.
    patches: Vec<(usize, u32)>,
    /// Address of the bytecode instruction being lowered.
    pc: usize,
    /// Typed address of the last jump target: nothing before it may be
    /// merged with what follows.
    fence: usize,
    /// The current position follows an unconditional transfer.
    dead: bool,
    /// An inference pass learned a slot type.
    changed: bool,
    /// An inference pass read a slot whose type it did not know yet,
    /// or not all of.
    unknown: bool,
    /// The next instruction was lowered with this one.
    skip: bool,
    calls: Vec<usize>,
}

/// The first instruction at or after `pc` that is not a `Charge`.
fn skip_charges(code: &[Instr], mut pc: usize) -> usize {
    while matches!(code.get(pc), Some(Instr::Charge(_))) {
        pc += 1;
    }
    pc
}

/// The conditional jump at `pc`, if there is one: its target, and
/// whether it jumps on zero.
fn cond_jump_at(code: &[Instr], pc: usize) -> Option<(u32, bool)> {
    match code.get(pc) {
        Some(Instr::JumpIfZero(x)) => Some((*x, true)),
        Some(Instr::JumpIfNonZero(x)) => Some((*x, false)),
        _ => None,
    }
}

/// Where a jump to `t` ends up: through jumps, and through the
/// `const c; jz x` tails the compiler leaves at the short-circuit exit
/// of `&&` / `||`, whose outcome is known. The operand stack is the same
/// at both ends.
fn thread(p: &Program, code: &[Instr], mut t: usize) -> usize {
    // bounded: `l: jump l` is a legal program
    for _ in 0..8 {
        let at = skip_charges(code, t);
        t = match code.get(at) {
            Some(Instr::Jump(x)) => *x as usize,
            Some(Instr::Const(c)) => {
                let after = skip_charges(code, at + 1);
                match (&p.consts[*c as usize], cond_jump_at(code, after)) {
                    (Value::Int(v), Some((x, on_zero))) if (*v == 0) == on_zero => x as usize,
                    (Value::Int(_), Some(_)) => after + 1,
                    _ => break,
                }
            }
            _ => break,
        };
    }
    t
}

/// Delete every `jmp` to the next instruction (an `if` without `else`
/// ends in one) and renumber the targets.
fn drop_jumps_to_next(code: &mut Vec<KIns>) {
    loop {
        let dropped: Vec<bool> = code
            .iter()
            .enumerate()
            .map(|(i, ins)| matches!(ins, KIns::Jmp(t) if *t as usize == i + 1))
            .collect();
        if !dropped.contains(&true) {
            return;
        }
        let mut new_at = Vec::with_capacity(code.len() + 1);
        let mut kept = 0;
        for &d in &dropped {
            new_at.push(kept);
            kept += !d as T;
        }
        new_at.push(kept);
        let mut at = 0;
        code.retain(|_| {
            at += 1;
            !dropped[at - 1]
        });
        for t in code.iter_mut().filter_map(KIns::target_mut) {
            *t = new_at[*t as usize];
        }
    }
}

/// The longest loop head [`rotate_loops`] copies.
const MAX_HEAD: usize = 16;

/// Make loops bottom-tested. A `while` lowers to `head: test, leave when
/// it fails; body; jmp head` — two dispatches per iteration for the back
/// edge and the test. Where the head is straight-line code up to a
/// conditional jump to just past the back edge, the back edge becomes a
/// copy of that head with its last jump inverted to re-enter the loop:
/// one fused back edge, falling out of the loop when the test fails. The
/// head itself stays, as the test on entry.
fn rotate_loops(code: &mut Vec<KIns>) {
    // (back edge, first and last instruction of the head)
    let mut loops: Vec<(usize, usize, usize)> = Vec::new();
    for (p, ins) in code.iter().enumerate() {
        let KIns::Jmp(h) = *ins else { continue };
        let h = h as usize;
        if h >= p {
            continue;
        }
        let mut last = None;
        for (e, ins) in code[h..p].iter().enumerate().take(MAX_HEAD) {
            match (ins.inverted(0), ins.target()) {
                (Some(_), Some(t)) if t == p + 1 => last = Some(h + e),
                (None, None) if !ins.leaves() => {}
                _ => break,
            }
        }
        if let Some(e) = last {
            loops.push((p, h, e));
        }
    }
    if loops.is_empty() {
        return;
    }
    let mut out = Vec::with_capacity(code.len() + loops.len() * MAX_HEAD);
    let mut new_at = Vec::with_capacity(code.len() + 1);
    let mut loops = loops.into_iter().peekable();
    for (i, ins) in code.iter().enumerate() {
        // a `T` that truncates here belongs to code `lower_fn` discards
        new_at.push(out.len() as T);
        match loops.next_if(|&(p, ..)| p == i) {
            Some((_, h, e)) => {
                out.extend_from_slice(&code[h..e]);
                out.push(code[e].inverted((e + 1) as T).expect("a conditional jump"));
            }
            None => out.push(*ins),
        }
    }
    new_at.push(out.len() as T);
    for t in out.iter_mut().filter_map(KIns::target_mut) {
        *t = new_at[*t as usize];
    }
    *code = out;
}

fn lower_fn(code: &Program, fo: &FoProgram, fid: usize) -> Result<Lowered, Why> {
    let f = &code.funcs[fid];
    let (params, ret) = signature(fo, fid).map_err(Blocker::in_signature)?;
    if ret == KTy::Bounds {
        return Err("returns Bounds");
    }
    if params.len() > 32 {
        return Err("more than 32 parameters");
    }
    // every aggregate in the function is a parameter or is made in it
    let made = f.code.iter().filter_map(|ins| match ins {
        Instr::MakeStruct(sid, _) => Flat::of(fo, *sid as usize).map(KTy::Struct),
        Instr::Intr(Intr::ArrayPartBounds, _) | Instr::IntrS(Intr::ArrayPartBounds, ..) => {
            Some(KTy::Bounds)
        }
        _ => None,
    });
    let twidth = params.iter().copied().chain(made).map(KTy::words).fold(2, usize::max);
    let mut slot_ty = vec![None; f.nslots];
    for (slot, ty) in slot_ty.iter_mut().zip(&params) {
        *slot = Some(*ty);
    }
    let mut is_target = vec![false; f.code.len() + 1];
    for ins in &f.code {
        if let Some(t) = crate::opt::jump_label(ins) {
            is_target[thread(code, &f.code, t as usize)] = true;
            let at = skip_charges(&f.code, t as usize);
            if let (Instr::Jump(_), Some((x, _))) = (ins, cond_jump_at(&f.code, at)) {
                is_target[thread(code, &f.code, x as usize)] = true;
                is_target[thread(code, &f.code, at + 1)] = true;
            }
        }
    }
    let mut lw = Lower {
        code,
        f,
        fo,
        ret,
        slot_ty,
        consts: Vec::new(),
        max_depth: 0,
        emit: false,
        slot_reg: vec![0; f.nslots],
        tbase: 0,
        twidth,
        out: Vec::new(),
        vs: Vec::new(),
        is_target,
        typed_at: vec![0; f.code.len() + 1],
        entry: vec![None; f.code.len() + 1],
        patches: Vec::new(),
        pc: 0,
        fence: 0,
        dead: false,
        changed: false,
        unknown: false,
        skip: false,
        calls: Vec::new(),
    };
    // infer slot types: one pass, unless it read a slot before the
    // store that types it; then to a fixed point
    loop {
        lw.pass()?;
        if !(lw.unknown && lw.changed) {
            break;
        }
    }
    // lay the frame out and emit
    let mut next = lw.consts.len();
    for (reg, ty) in lw.slot_reg.iter_mut().zip(&lw.slot_ty) {
        // truncation is caught below: then nothing is emitted
        *reg = next as R;
        next += ty.map_or(0, KTy::words);
    }
    let nregs = next + twidth * lw.max_depth;
    if nregs > WINDOW {
        return Err("needs more registers than a frame window has");
    }
    if f.code.len() > T::MAX as usize {
        return Err("code too large");
    }
    lw.tbase = next;
    lw.emit = true;
    lw.pass()?;
    rotate_loops(&mut lw.out);
    if lw.out.len() > T::MAX as usize {
        return Err("code too large");
    }
    Ok(Lowered {
        code: lw.out,
        consts: lw.consts,
        nregs: nregs as u16,
        params,
        ret,
        twidth,
        calls: lw.calls,
    })
}

impl Lower<'_> {
    /// One walk over the bytecode in address order, simulating the
    /// operand stack.
    fn pass(&mut self) -> Result<(), Why> {
        let code = &self.f.code;
        self.out.clear();
        self.vs.clear();
        self.patches.clear();
        self.calls.clear();
        self.entry.fill(None);
        self.fence = 0;
        self.dead = false;
        self.changed = false;
        self.unknown = false;
        for (pc, ins) in code.iter().enumerate() {
            if std::mem::take(&mut self.skip) {
                continue;
            }
            self.pc = pc;
            if self.is_target[pc] {
                self.label(pc)?;
                self.fence = self.out.len();
                self.typed_at[pc] = self.out.len() as u32;
            }
            if !self.dead {
                self.step(*ins)?;
            }
        }
        if !self.dead {
            return Err("control can run off the end");
        }
        for &(at, target) in &self.patches {
            let to = T::try_from(self.typed_at[target as usize]).map_err(|_| "code too large")?;
            *self.out[at].target_mut().expect("patching a jump") = to;
        }
        drop_jumps_to_next(&mut self.out);
        Ok(())
    }

    // ---- registers and the abstract stack ----

    /// The temporary owned by stack depth `depth`.
    fn home(&self, depth: usize) -> R {
        (self.tbase + self.twidth * depth) as R
    }

    fn ins(&mut self, ins: KIns) {
        if self.emit {
            self.out.push(ins);
        }
    }

    fn push(&mut self, o: Opnd) {
        self.vs.push(o);
        self.max_depth = self.max_depth.max(self.vs.len());
    }

    /// Push a fresh result of type `ty`; returns the register to write.
    fn push_result(&mut self, ty: Option<KTy>) -> R {
        let reg = self.home(self.vs.len());
        self.push(Opnd::new(ty, reg));
        reg
    }

    fn pop(&mut self) -> Opnd {
        self.vs.pop().expect("bytecode pops what it pushed")
    }

    /// Pop an operand that must have type `want`.
    fn pop_as(&mut self, want: KTy) -> Result<Opnd, Why> {
        let o = self.pop();
        self.expect(o, want)
    }

    fn expect(&self, o: Opnd, want: KTy) -> Result<Opnd, Why> {
        match o.ty {
            Some(ty) if ty.join(want).is_none() => Err("an operand has an unexpected type"),
            None if self.emit => Err("a value's type could not be inferred"),
            _ => Ok(o),
        }
    }

    fn mov(&mut self, ty: Option<KTy>, d: R, a: R) {
        if d != a {
            match ty {
                Some(KTy::Unit) => {}
                Some(KTy::Index) => self.ins(KIns::Mov2(d, a)),
                Some(KTy::Struct(flat)) => self.ins(KIns::MovN(d, a, flat.n)),
                Some(KTy::Bounds) => self.ins(KIns::MovN(d, a, 4)),
                // a temporary that is moved is dead: it was popped
                Some(KTy::List(_)) if a as usize >= self.tbase => self.ins(KIns::TakeL(d, a)),
                Some(KTy::List(_)) => self.ins(KIns::MovL(d, a)),
                _ => self.ins(KIns::Mov(d, a)),
            }
        }
    }

    /// Copy stack entry `depth` into its own temporary.
    fn materialize(&mut self, depth: usize) {
        let Opnd { ty, reg, .. } = self.vs[depth];
        let home = self.home(depth);
        self.mov(ty, home, reg);
        self.vs[depth] = Opnd::new(ty, home);
    }

    fn materialize_all(&mut self) {
        for depth in 0..self.vs.len() {
            self.materialize(depth);
        }
    }

    /// Before registers `reg..reg + words` are overwritten: copy out
    /// every stack entry still aliasing them.
    fn spill_aliases(&mut self, reg: R, words: usize) {
        let reg = reg as usize;
        for depth in 0..self.vs.len() {
            let o = self.vs[depth];
            let w = o.ty.map_or(1, KTy::words);
            if (o.reg as usize) < reg + words && reg < o.reg as usize + w {
                self.materialize(depth);
            }
        }
    }

    fn konst_raw(&mut self, ty: KTy, bits: u64) -> Opnd {
        let reg = match self.consts.iter().position(|c| *c == (ty, bits)) {
            Some(i) => i,
            None => {
                self.consts.push((ty, bits));
                self.consts.len() - 1
            }
        };
        let int = (ty == KTy::Int).then_some(bits as i64);
        Opnd { ty: Some(ty), reg: reg as R, int }
    }

    fn konst(&mut self, i: usize) -> Result<Opnd, Why> {
        Ok(match &self.code.consts[i] {
            Value::Int(v) => self.konst_raw(KTy::Int, *v as u64),
            Value::Float(v) => self.konst_raw(KTy::Float, v.to_bits()),
            Value::Unit => Opnd::UNIT,
            _ => return Err("an aggregate constant"),
        })
    }

    fn slot(&mut self, s: u16) -> Result<Opnd, Why> {
        let ty = self.slot_ty[s as usize];
        match ty {
            None if self.emit => return Err("a variable is read but never assigned"),
            None => self.unknown = true,
            // a list of what is not known yet
            Some(KTy::List(LElem::Any | LElem::AnyList)) => self.unknown = true,
            Some(_) => {}
        }
        Ok(Opnd::new(ty, self.slot_reg[s as usize]))
    }

    /// Fetch a fused operand.
    fn src(&mut self, s: Src) -> Result<Opnd, Why> {
        match s {
            Src::Top => Ok(self.pop()),
            Src::Slot(s) => self.slot(s),
            Src::Const(c) => self.konst(c as usize),
        }
    }

    /// The register a store to slot `s` of a `ty` value writes, after
    /// recording the slot's type and saving what still aliases it.
    fn slot_dest(&mut self, s: u16, ty: KTy) -> Result<R, Why> {
        let slot = &mut self.slot_ty[s as usize];
        let ty = match *slot {
            None => ty,
            Some(have) => have.join(ty).ok_or("a variable holds values of two types")?,
        };
        if *slot != Some(ty) {
            *slot = Some(ty);
            self.changed = true;
        }
        let reg = self.slot_reg[s as usize];
        self.spill_aliases(reg, ty.words());
        Ok(reg)
    }

    fn store(&mut self, s: u16, v: Opnd) -> Result<(), Why> {
        match v.ty {
            // `T x;` without an initializer stores the unit placeholder
            Some(KTy::Unit) => Ok(()),
            None if self.emit => Err("a value's type could not be inferred"),
            None => Ok(()),
            Some(ty) => {
                let emitted = self.out.len();
                let d = self.slot_dest(s, ty)?;
                // a list instruction that computed `v` computes the
                // variable instead, unless a copy of its old value was
                // just saved
                if self.out.len() == emitted && v.reg as usize >= self.tbase && emitted > self.fence
                {
                    if let Some(dest) = self.out.last_mut().and_then(KIns::list_dest_mut) {
                        if *dest == v.reg {
                            *dest = d;
                            return Ok(());
                        }
                    }
                }
                self.mov(Some(ty), d, v.reg);
                Ok(())
            }
        }
    }

    // ---- control flow ----

    /// Record (or check) the stack types a jump target is entered with.
    fn meet(&mut self, pc: usize) -> Result<(), Why> {
        let now: Vec<Option<KTy>> = self.vs.iter().map(|o| o.ty).collect();
        match &mut self.entry[pc] {
            e @ None => *e = Some(now),
            Some(have) => {
                if have.len() != now.len() {
                    return Err("unbalanced operand stack at a jump target");
                }
                for (h, n) in have.iter_mut().zip(now) {
                    match (*h, n) {
                        (Some(a), Some(b)) => {
                            *h = Some(a.join(b).ok_or("operand types disagree at a jump target")?)
                        }
                        (None, Some(_)) => *h = n,
                        _ => {}
                    }
                }
            }
        }
        Ok(())
    }

    /// A jump target: whatever falls into it joins the jumps that named
    /// it, every entry in its own temporary.
    fn label(&mut self, pc: usize) -> Result<(), Why> {
        if !self.dead {
            self.materialize_all();
            self.meet(pc)
        } else if let Some(tys) = self.entry[pc].clone() {
            self.vs.clear();
            for ty in tys {
                self.push_result(ty);
            }
            self.dead = false;
            Ok(())
        } else {
            // no jump seen so far reaches it (a later backward jump
            // that does is declined in `jump`)
            Ok(())
        }
    }

    fn jump(&mut self, ins: KIns, target: usize) -> Result<(), Why> {
        self.materialize_all();
        let t = thread(self.code, &self.f.code, target);
        if t <= self.pc && self.entry[t].is_none() {
            // its target was skipped as unreachable on the way here
            return Err("a loop is entered from below");
        }
        self.meet(t)?;
        if self.emit {
            self.patches.push((self.out.len(), t as u32));
            self.out.push(ins);
        }
        Ok(())
    }

    /// Jump to `target` when `v` is zero (`on_zero`) or non-zero. A
    /// comparison that produced `v` just before becomes the jump.
    fn cond_jump(&mut self, v: Opnd, on_zero: bool, target: usize) -> Result<(), Why> {
        let v = self.expect(v, KTy::Int)?;
        let fused = match self.out.last().and_then(KIns::as_cmp) {
            // `v` was popped: only the jump could still read its register
            Some((op, float, d, a, b))
                if self.emit
                    && d == v.reg
                    && d as usize >= self.tbase
                    && self.out.len() > self.fence =>
            {
                self.out.pop();
                KIns::jump_cmp(op, float, !on_zero, a, b)
            }
            _ => None,
        };
        let plain = if on_zero { KIns::Jz(v.reg, 0) } else { KIns::Jnz(v.reg, 0) };
        self.jump(fused.unwrap_or(plain), target)
    }

    // ---- instructions ----

    fn bin(
        &mut self,
        op: BinOp,
        float: bool,
        l: Opnd,
        r: Opnd,
        dest: Option<u16>,
    ) -> Result<(), Why> {
        let operand = if float { KTy::Float } else { KTy::Int };
        let (l, r) = (self.expect(l, operand)?, self.expect(r, operand)?);
        let ty = if float && op.is_arithmetic() { KTy::Float } else { KTy::Int };
        let d = match dest {
            Some(s) => self.slot_dest(s, ty)?,
            None => self.push_result(Some(ty)),
        };
        let ins = match (op, r.int) {
            // by a positive power of two: a shift or a mask, in the
            // words of `scalar::{div_pow2, rem_pow2}`
            (BinOp::Div | BinOp::Rem, Some(c)) if !float && c > 0 && c & (c - 1) == 0 => {
                let k = c.trailing_zeros() as u8;
                if op == BinOp::Div {
                    KIns::DivP2(d, l.reg, k)
                } else {
                    KIns::RemP2(d, l.reg, k)
                }
            }
            _ => KIns::bin(op, float, d, l.reg, r.reg)
                .ok_or("a logical operator outside a branch")?,
        };
        self.ins(ins);
        Ok(())
    }

    /// Jump to `t` when `l op r` is non-zero (`want`) or zero.
    fn jump_cmp(
        &mut self,
        op: BinOp,
        float: bool,
        want: bool,
        l: Opnd,
        r: Opnd,
        t: u32,
    ) -> Result<(), Why> {
        if op.is_arithmetic() {
            // `if (a - b)`: the value, then a test of it
            self.bin(op, float, l, r, None)?;
            let v = self.pop();
            return self.cond_jump(v, !want, t as usize);
        }
        let operand = if float { KTy::Float } else { KTy::Int };
        let (l, r) = (self.expect(l, operand)?, self.expect(r, operand)?);
        let ins = KIns::jump_cmp(op, float, want, l.reg, r.reg)
            .ok_or("a logical operator outside a branch")?;
        self.jump(ins, t as usize)
    }

    fn index_at(&mut self, ix: Opnd, comp: Opnd) -> Result<(), Why> {
        let (ix, comp) = (self.expect(ix, KTy::Index)?, self.expect(comp, KTy::Int)?);
        match comp.int {
            // a constant component is the register itself
            Some(c @ 0..=1) => self.push(Opnd::new(Some(KTy::Int), reg_at(ix.reg, c as usize))),
            _ => {
                let d = self.push_result(Some(KTy::Int));
                self.ins(KIns::IxAt(d, ix.reg, comp.reg));
            }
        }
        Ok(())
    }

    /// Field `i` of struct (or `Bounds`) `v`: the register, or pair of
    /// registers, it already sits in.
    fn field(&mut self, v: Opnd, i: u16) -> Result<(), Why> {
        let i = i as usize;
        match v.ty {
            Some(KTy::Struct(flat)) if i < flat.n as usize => {
                self.push(Opnd::new(Some(flat.field(i)), reg_at(v.reg, i)));
                Ok(())
            }
            Some(KTy::Bounds) if i < 2 => {
                self.push(Opnd::new(Some(KTy::Index), reg_at(v.reg, 2 * i)));
                Ok(())
            }
            Some(_) => Err("a field of something that is not a struct"),
            None if self.emit => Err("a value's type could not be inferred"),
            None => {
                self.push(Opnd::new(None, v.reg));
                Ok(())
            }
        }
    }

    /// Build struct `sid` from the top `n` stack entries, in the
    /// temporary of the first.
    fn make_struct(&mut self, sid: usize, n: usize) -> Result<(), Why> {
        let flat = Flat::of(self.fo, sid)
            .filter(|flat| flat.n as usize == n)
            .ok_or("a struct of more than scalars")?;
        let first = self.vs.len() - n;
        let d = self.home(first);
        for k in 0..n {
            let v = self.expect(self.vs[first + k], flat.field(k))?;
            // in order: a later field never sits where an earlier one
            // lands, which is the temporary of a shallower depth
            self.mov(v.ty, reg_at(d, k), v.reg);
        }
        self.vs.truncate(first);
        self.push(Opnd::new(Some(KTy::Struct(flat)), d));
        Ok(())
    }

    fn get_elem(&mut self, arr: Opnd, i: R, j: R) -> Result<(), Why> {
        match arr.ty {
            Some(KTy::ArrInt) => {
                let d = self.push_result(Some(KTy::Int));
                self.ins(KIns::GetI(d, arr.reg, i, j));
            }
            Some(KTy::ArrFloat) => {
                let d = self.push_result(Some(KTy::Float));
                self.ins(KIns::GetF(d, arr.reg, i, j));
            }
            None if !self.emit => {
                self.push_result(None);
            }
            _ => return Err("array_get_elem on something that is not a scalar array"),
        }
        Ok(())
    }

    /// An intrinsic over `args` (left to right).
    fn intr(&mut self, op: Intr, args: &[Opnd]) -> Result<(), Why> {
        let int = KTy::Int;
        let scalar = |ty: KTy, params: &[KTy]| Some((ty, params.to_vec()));
        let sig = match op {
            Intr::Abs | Intr::Log2i => scalar(int, &[int]),
            Intr::Min | Intr::Max => scalar(int, &[int, int]),
            Intr::Ftoi => scalar(int, &[KTy::Float]),
            Intr::Itof => scalar(KTy::Float, &[int]),
            Intr::Fabs | Intr::Sqrt => scalar(KTy::Float, &[KTy::Float]),
            Intr::Fmin | Intr::Fmax => scalar(KTy::Float, &[KTy::Float, KTy::Float]),
            Intr::IntMax => scalar(int, &[]),
            Intr::FltMax => scalar(KTy::Float, &[]),
            _ => None,
        };
        if let Some((ty, params)) = sig {
            if params.len() != args.len() {
                return Err("an intrinsic is called with the wrong arity");
            }
            for (a, p) in args.iter().zip(&params) {
                self.expect(*a, *p)?;
            }
            match *args {
                [] => {
                    let bits = match scalar_intr(op, |_| 0, |_| 0.0).expect("a scalar intrinsic") {
                        Scalar::I(v) => v as u64,
                        Scalar::F(v) => v.to_bits(),
                    };
                    let c = self.konst_raw(ty, bits);
                    self.push(c);
                }
                [a] => {
                    let d = self.push_result(Some(ty));
                    self.ins(KIns::Intr1(op, d, a.reg));
                }
                [a, b] => {
                    let d = self.push_result(Some(ty));
                    self.ins(KIns::Intr2(op, d, a.reg, b.reg));
                }
                _ => unreachable!("scalar intrinsics take at most two operands"),
            }
            return Ok(());
        }
        match (op, args) {
            (Intr::ProcId, []) => {
                let d = self.push_result(Some(int));
                self.ins(KIns::ProcId(d));
            }
            (Intr::NProcs, []) => {
                let d = self.push_result(Some(int));
                self.ins(KIns::NProcs(d));
            }
            (Intr::Error, [a]) => {
                let a = self.expect(*a, int)?;
                self.ins(KIns::Error(a.reg));
                self.push(Opnd::UNIT);
            }
            (Intr::ArrayGetElem, [arr, ix]) => {
                let ix = self.expect(*ix, KTy::Index)?;
                self.get_elem(*arr, ix.reg, reg_at(ix.reg, 1))?;
            }
            (Intr::Print, _) => return Err("print"),
            (Intr::ArrayPutElem, _) => return Err("array_put_elem"),
            (Intr::ArrayPartBounds, [arr]) => match arr.ty {
                Some(KTy::ArrInt | KTy::ArrFloat) => {
                    let d = self.push_result(Some(KTy::Bounds));
                    self.ins(KIns::PartBounds(d, arr.reg));
                }
                None if !self.emit => {
                    self.push_result(Some(KTy::Bounds));
                }
                _ => return Err("array_part_bounds of something that is not a scalar array"),
            },
            (Intr::Nil, []) => {
                let d = self.push_result(Some(KTy::List(LElem::Any)));
                self.ins(KIns::Nil(d));
            }
            (Intr::Len, [l]) => {
                self.list_elem(*l)?;
                let d = self.push_result(Some(int));
                self.ins(KIns::Len(d, l.reg));
            }
            (Intr::Head, [l]) => {
                let ty = self.list_elem(*l)?.and_then(LElem::ty);
                let d = self.push_result(ty);
                match ty {
                    Some(KTy::List(_)) => self.ins(KIns::HeadL(d, l.reg)),
                    Some(_) => self.ins(KIns::Head(d, l.reg)),
                    None if self.emit => return Err("a list's element type could not be inferred"),
                    None => self.unknown = true,
                }
            }
            (Intr::Tail, [l]) => {
                self.list_elem(*l)?;
                let d = self.push_result(l.ty);
                self.ins(KIns::Tail(d, l.reg));
            }
            (Intr::Cons, [e, l]) => {
                let ty = self.cons_ty(*e, *l)?;
                // `cons` consumes its list: a variable's is copied first,
                // to the temporary above the result's
                let depth = self.vs.len();
                self.max_depth = self.max_depth.max(depth + 2);
                let l = if (l.reg as usize) < self.tbase {
                    let copy = self.home(depth + 1);
                    self.ins(KIns::MovL(copy, l.reg));
                    copy
                } else {
                    l.reg
                };
                let d = self.push_result(Some(ty));
                self.cons(d, *e, l)?;
            }
            (Intr::Append, [a, b]) => {
                let (ea, eb) = (self.list_elem(*a)?, self.list_elem(*b)?);
                let ty = match (ea, eb) {
                    (Some(x), Some(y)) => {
                        Some(KTy::List(x.join(y).ok_or("append of two list types")?))
                    }
                    (x, y) => x.or(y).map(KTy::List),
                };
                let d = self.push_result(ty);
                self.ins(KIns::Append(d, a.reg, b.reg));
            }
            _ => return Err("a constant intrinsic"),
        }
        Ok(())
    }

    /// The element type of list operand `l`; `None` while its type is
    /// unknown.
    fn list_elem(&mut self, l: Opnd) -> Result<Option<LElem>, Why> {
        match l.ty {
            Some(KTy::List(e)) => Ok(Some(e)),
            Some(_) => Err("a list intrinsic on something that is not a list"),
            None if self.emit => Err("a value's type could not be inferred"),
            None => {
                self.unknown = true;
                Ok(None)
            }
        }
    }

    /// The type of `cons(e, l)`.
    fn cons_ty(&mut self, e: Opnd, l: Opnd) -> Result<KTy, Why> {
        let elem = LElem::of(e.ty).ok_or(match e.ty {
            Some(KTy::List(_)) => "a list nested more than two deep",
            _ => "a list of more than scalars",
        })?;
        let elem = match self.list_elem(l)? {
            Some(have) => have.join(elem).ok_or("cons onto a list of another type")?,
            None => elem,
        };
        Ok(KTy::List(elem))
    }

    /// `d = cons(e, l)`, consuming `l`.
    fn cons(&mut self, d: R, e: Opnd, l: R) -> Result<(), Why> {
        let make = match e.ty {
            Some(KTy::Int) => KIns::ConsI,
            Some(KTy::Float) => KIns::ConsF,
            Some(KTy::List(_)) => KIns::ConsL,
            _ if self.emit => return Err("a value's type could not be inferred"),
            _ => return Ok(()),
        };
        self.ins(make(d, e.reg, l));
        Ok(())
    }

    /// `x = cons(e, x)` or `x = tail(x)` for the `store` that follows
    /// (`s` is `x`'s slot): the list is updated where it lies, as the
    /// generic loop does, so one no other list shares grows or shrinks
    /// in place.
    fn list_in_place(&mut self, op: Intr, srcs: [Src; 3], s: u16) -> Result<(), Why> {
        let x = self.slot(s)?;
        match op {
            Intr::Cons => {
                let e = self.src(srcs[0])?;
                let ty = self.cons_ty(e, x)?;
                let d = self.slot_dest(s, ty)?;
                self.cons(d, e, d)?;
            }
            _ => {
                self.list_elem(x)?;
                if let Some(ty) = x.ty {
                    let d = self.slot_dest(s, ty)?;
                    self.ins(KIns::Tail(d, d));
                }
            }
        }
        self.skip = true;
        Ok(())
    }

    /// The slot `x` of an `intr.s` that computes `cons(e, x)` or
    /// `tail(x)` when the next instruction stores that into `x`.
    fn stores_in_place(&self, op: Intr, srcs: [Src; 3]) -> Option<u16> {
        let own = match op {
            Intr::Cons => srcs[1],
            Intr::Tail => srcs[0],
            _ => return None,
        };
        match (own, self.f.code.get(self.pc + 1)) {
            (Src::Slot(s), Some(Instr::Store(d))) if *d == s && !self.is_target[self.pc + 1] => {
                Some(s)
            }
            _ => None,
        }
    }

    fn call(&mut self, fid: usize) -> Result<(), Why> {
        let (params, ret) = signature(self.fo, fid).map_err(Blocker::in_callee)?;
        for ty in params.iter().chain([&ret]) {
            let blocker = match ty {
                KTy::Struct(_) => Blocker::Structs,
                KTy::List(_) => Blocker::Lists,
                KTy::Bounds => Blocker::Bounds,
                _ => continue,
            };
            return Err(blocker.in_callee());
        }
        let fid16 = u16::try_from(fid).map_err(|_| "too many functions")?;
        if params.len() > 32 {
            return Err("calls a function with more than 32 parameters");
        }
        // arguments go to the callee from their own temporaries
        let first = self.vs.len() - params.len();
        for (k, ty) in params.iter().enumerate() {
            self.expect(self.vs[first + k], *ty)?;
            self.materialize(first + k);
        }
        self.vs.truncate(first);
        let args = self.home(first);
        self.calls.push(fid);
        self.ins(KIns::Call(fid16, args, args));
        if ret == KTy::Unit {
            self.push(Opnd::UNIT);
        } else {
            self.push_result(Some(ret));
        }
        Ok(())
    }

    fn ret(&mut self, v: Opnd) -> Result<(), Why> {
        let v = self.expect(v, self.ret)?;
        self.ins(match self.ret {
            KTy::Unit => KIns::Ret0(),
            KTy::Index => KIns::Ret2(v.reg),
            KTy::Struct(_) => KIns::RetN(v.reg),
            KTy::List(_) => KIns::RetL(v.reg),
            _ => KIns::Ret(v.reg),
        });
        self.dead = true;
        Ok(())
    }

    fn step(&mut self, ins: Instr) -> Result<(), Why> {
        let int = KTy::Int;
        match ins {
            Instr::Charge(_) => {}
            Instr::Const(i) => {
                let c = self.konst(i as usize)?;
                self.push(c);
            }
            Instr::Load(s) => {
                let v = self.slot(s)?;
                self.push(v);
            }
            Instr::Store(s) => {
                let v = self.pop();
                self.store(s, v)?;
            }
            Instr::StoreS(d, s) => {
                let v = self.src(s)?;
                self.store(d, v)?;
            }
            Instr::Pop => {
                self.pop();
            }
            Instr::Jump(t) => {
                let at = skip_charges(&self.f.code, t as usize);
                match cond_jump_at(&self.f.code, at) {
                    // a jump to a conditional jump on the value it
                    // carries (the long way out of `&&` / `||`) is that
                    // conditional jump, here
                    Some((x, on_zero)) if !self.vs.is_empty() => {
                        let v = self.pop();
                        self.cond_jump(v, on_zero, x as usize)?;
                        self.jump(KIns::Jmp(0), at + 1)?;
                    }
                    _ => self.jump(KIns::Jmp(0), t as usize)?,
                }
                self.dead = true;
            }
            Instr::JumpIfZero(t) => {
                let v = self.pop();
                self.cond_jump(v, true, t as usize)?;
            }
            Instr::JumpIfNonZero(t) => {
                let v = self.pop();
                self.cond_jump(v, false, t as usize)?;
            }
            Instr::JumpZS(s, t) => {
                let v = self.src(s)?;
                self.cond_jump(v, true, t as usize)?;
            }
            Instr::JumpNzS(s, t) => {
                let v = self.src(s)?;
                self.cond_jump(v, false, t as usize)?;
            }
            Instr::JumpCmpZ(op, float, l, r, t) => {
                let (r, l) = (self.src(r)?, self.src(l)?);
                self.jump_cmp(op, float, false, l, r, t)?;
            }
            Instr::JumpCmpNz(op, float, l, r, t) => {
                let (r, l) = (self.src(r)?, self.src(l)?);
                self.jump_cmp(op, float, true, l, r, t)?;
            }
            Instr::ToBool => {
                // normalizing is pointless when all that follows is the
                // jump to a test for zero
                let code = &self.f.code;
                let to_test = match code.get(skip_charges(code, self.pc + 1)) {
                    Some(Instr::Jump(t)) => {
                        cond_jump_at(code, skip_charges(code, *t as usize)).is_some()
                    }
                    _ => false,
                };
                if !to_test {
                    let a = self.pop_as(int)?;
                    let d = self.push_result(Some(int));
                    self.ins(KIns::ToBool(d, a.reg));
                }
            }
            Instr::Not => {
                let a = self.pop_as(int)?;
                let d = self.push_result(Some(int));
                self.ins(KIns::Not(d, a.reg));
            }
            Instr::Neg(float) => {
                let ty = if float { KTy::Float } else { int };
                let a = self.pop_as(ty)?;
                let d = self.push_result(Some(ty));
                self.ins(if float { KIns::NegF(d, a.reg) } else { KIns::NegI(d, a.reg) });
            }
            Instr::Bin(op, float) => {
                let (r, l) = (self.pop(), self.pop());
                self.bin(op, float, l, r, None)?;
            }
            Instr::BinS(op, float, l, r) => {
                let (r, l) = (self.src(r)?, self.src(l)?);
                self.bin(op, float, l, r, None)?;
            }
            Instr::BinStore(op, float, l, r, d) => {
                let (r, l) = (self.src(r)?, self.src(l)?);
                self.bin(op, float, l, r, Some(d))?;
            }
            Instr::IndexAt => {
                let (comp, ix) = (self.pop(), self.pop());
                self.index_at(ix, comp)?;
            }
            Instr::IndexAtS(x, c) => {
                let (comp, ix) = (self.src(c)?, self.src(x)?);
                self.index_at(ix, comp)?;
            }
            Instr::MakeIndex(n) => {
                let b = match n {
                    1 => self.konst_raw(int, 0),
                    2 => self.pop_as(int)?,
                    _ => return Err("an Index of more than two components"),
                };
                let a = self.pop_as(int)?;
                let d = self.push_result(Some(KTy::Index));
                self.ins(KIns::MkIx(d, a.reg, b.reg));
            }
            Instr::Intr(op, argc) => {
                let at = self.vs.len() - argc as usize;
                let args = self.vs.split_off(at);
                self.intr(op, &args)?;
            }
            Instr::IntrS(op, argc, srcs) => {
                if let Some(s) = self.stores_in_place(op, srcs) {
                    return self.list_in_place(op, srcs, s);
                }
                let n = argc as usize;
                let mut args = [Opnd::UNIT; 3];
                for k in (0..n).rev() {
                    args[k] = self.src(srcs[k])?;
                }
                self.intr(op, &args[..n])?;
            }
            Instr::ArrGetI1(a, i) => {
                let (i, arr) = (self.src(i)?, self.src(a)?);
                let i = self.expect(i, int)?;
                let zero = self.konst_raw(int, 0);
                self.get_elem(arr, i.reg, zero.reg)?;
            }
            Instr::ArrGetI2(a, i, j) => {
                let (j, i, arr) = (self.src(j)?, self.src(i)?, self.src(a)?);
                let (i, j) = (self.expect(i, int)?, self.expect(j, int)?);
                self.get_elem(arr, i.reg, j.reg)?;
            }
            Instr::Call(fid) => self.call(fid as usize)?,
            Instr::Ret => {
                let v = self.pop();
                self.ret(v)?;
            }
            Instr::RetS(s) => {
                let v = self.src(s)?;
                self.ret(v)?;
            }
            Instr::RetUnit => {
                if self.ret != KTy::Unit {
                    return Err("may return without a value");
                }
                self.ins(KIns::Ret0());
                self.dead = true;
            }
            Instr::Field(i) => {
                let v = self.pop();
                self.field(v, i)?;
            }
            Instr::FieldS(s, i) => {
                let v = self.src(s)?;
                self.field(v, i)?;
            }
            Instr::MakeStruct(sid, n) => self.make_struct(sid as usize, n as usize)?,
            Instr::Skel(_) => return Err("a skeleton call"),
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The view.
// ---------------------------------------------------------------------

const NONE: u16 = u16::MAX;

/// A lowered function's place in the view's pools.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TypedFn {
    /// First instruction in `KernelView::code`, and how many.
    code_at: u32,
    ncode: T,
    /// First constant in `KernelView::consts`, and how many: also the
    /// register the parameters start at.
    consts_at: u32,
    nconsts: u16,
    nregs: u16,
    /// Bit `k`: parameter `k` is an `Index` (two registers). Read when
    /// typed code calls this function, which struct parameters rule out.
    wide: u32,
    ret: KTy,
    nparams: u8,
    /// Registers per temporary.
    twidth: u8,
    /// It, or a function it calls, has lists: it runs with a side
    /// window entry per register.
    lists: bool,
}

/// The typed code of a program: built by [`KernelView::build`] once per
/// `Compiled`, shared by every run, four allocations however many
/// functions lowered. A function that is not in it runs the program's
/// own bytecode in kernel mode.
#[derive(Debug, Default)]
pub(crate) struct KernelView {
    /// Function index -> entry in `fns`; `NONE` for everything that
    /// did not lower.
    index: Box<[u16]>,
    fns: Box<[TypedFn]>,
    code: Box<[KIns]>,
    consts: Box<[u64]>,
}

/// The `General`-shape argument functions of every skeleton site.
fn roots(code: &Program) -> Vec<usize> {
    let mut roots: Vec<usize> = code
        .sites
        .iter()
        .flat_map(|s| &s.fns)
        .filter(|f| f.shape == KernelShape::General)
        .map(|f| f.fid)
        .collect();
    roots.sort_unstable();
    roots.dedup();
    roots
}

/// Lower what lowers: every function a root reaches through calls is
/// attempted, and a function whose callee did not lower does not either.
fn lower_all(fo: &FoProgram, code: &Program, roots: &[usize]) -> Vec<Option<Lowered>> {
    let n = code.funcs.len();
    let mut lowered: Vec<Option<Lowered>> = (0..n).map(|_| None).collect();
    let mut seen = vec![false; n];
    let mut work = roots.to_vec();
    while let Some(fid) = work.pop() {
        if std::mem::replace(&mut seen[fid], true) {
            continue;
        }
        if let Ok(l) = lower_fn(code, fo, fid) {
            work.extend(&l.calls);
            lowered[fid] = Some(l);
        }
    }
    loop {
        let orphan = (0..n).find(|&fid| {
            lowered[fid].as_ref().is_some_and(|l| l.calls.iter().any(|&c| lowered[c].is_none()))
        });
        match orphan {
            Some(fid) => lowered[fid] = None,
            None => break,
        }
    }
    // keep only what a typed root still reaches
    let mut keep = vec![false; n];
    let mut work: Vec<usize> = roots.iter().copied().filter(|&r| lowered[r].is_some()).collect();
    while let Some(fid) = work.pop() {
        if !std::mem::replace(&mut keep[fid], true) {
            work.extend(&lowered[fid].as_ref().expect("typed callee").calls);
        }
    }
    for (fid, l) in lowered.iter_mut().enumerate() {
        if !keep[fid] {
            *l = None;
        }
    }
    lowered
}

impl KernelView {
    /// Build the kernel view of `code` (the optimized bytecode of `fo`).
    /// `-O0` stays the plain stack machine: nothing is lowered there.
    pub(crate) fn build(fo: &FoProgram, code: &Program, level: OptLevel) -> KernelView {
        if level == OptLevel::O0 {
            return KernelView::default();
        }
        let mut index = vec![NONE; code.funcs.len()];
        let (mut fns, mut typed_code, mut consts) = (Vec::new(), Vec::new(), Vec::new());
        let lowered = lower_all(fo, code, &roots(code));
        let mut lists: Vec<bool> = lowered
            .iter()
            .map(|l| {
                l.as_ref().is_some_and(|l| {
                    l.params.iter().any(|ty| matches!(ty, KTy::List(_)))
                        || l.code.iter().any(KIns::is_list)
                })
            })
            .collect();
        // and what calls it, to a fixed point: calls may recurse
        while let Some(fid) = (0..lowered.len()).find(|&fid| {
            !lists[fid] && lowered[fid].as_ref().is_some_and(|l| l.calls.iter().any(|&c| lists[c]))
        }) {
            lists[fid] = true;
        }
        for (fid, l) in lowered.into_iter().enumerate() {
            let Some(l) = l else { continue };
            index[fid] = u16::try_from(fns.len()).ok().filter(|i| *i != NONE).expect("few kernels");
            fns.push(TypedFn {
                code_at: typed_code.len() as u32,
                ncode: l.code.len() as T,
                consts_at: consts.len() as u32,
                nconsts: l.consts.len() as u16,
                nregs: l.nregs,
                wide: l
                    .params
                    .iter()
                    .enumerate()
                    .fold(0, |w, (k, ty)| w | ((*ty == KTy::Index) as u32) << k),
                ret: l.ret,
                nparams: l.params.len() as u8,
                twidth: l.twidth as u8,
                lists: lists[fid],
            });
            typed_code.extend(l.code);
            consts.extend(l.consts.iter().map(|c| c.1));
        }
        if fns.is_empty() {
            return KernelView::default();
        }
        KernelView {
            index: index.into(),
            fns: fns.into(),
            code: typed_code.into(),
            consts: consts.into(),
        }
    }

    /// Heap bytes the view holds.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&*self.index)
            + size_of_val(&*self.fns)
            + size_of_val(&*self.code)
            + size_of_val(&*self.consts)
    }

    fn consts_of(&self, tf: &TypedFn) -> &[u64] {
        &self.consts[tf.consts_at as usize..][..tf.nconsts as usize]
    }

    /// The typed code of function `fid`, when it lowered.
    pub(crate) fn typed(&self, fid: usize) -> Option<&TypedFn> {
        match self.index.get(fid) {
            None | Some(&NONE) => None,
            Some(&i) => Some(&self.fns[i as usize]),
        }
    }
}

// ---------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------

/// An argument a skeleton hands to an argument function: a scalar or an
/// index as it is, a flat struct as its words, anything else by
/// reference.
#[derive(Clone, Copy)]
pub(crate) enum KArg<'a> {
    I(i64),
    F(f64),
    Ix(Index),
    W(&'a FlatElem),
    V(&'a Value),
}

impl KArg<'_> {
    /// The argument as a slot of the generic loop.
    pub(crate) fn sl(self) -> Sl {
        match self {
            KArg::I(v) => Sl::I(v),
            KArg::F(v) => Sl::F(v),
            KArg::Ix(ix) => Sl::V(Value::Index([ix[0] as i64, ix[1] as i64])),
            KArg::W(e) => Sl::V(e.to_value()),
            KArg::V(v) => Sl::from_value_ref(v),
        }
    }

    /// Write the argument into a typed parameter's registers (a list
    /// into its side window entry); returns the register after it.
    fn write(self, regs: &mut [u64], side: &mut [ConsList], at: usize) -> usize {
        match self {
            KArg::I(v) => regs[at] = v as u64,
            KArg::F(v) => regs[at] = v.to_bits(),
            KArg::Ix(ix) => {
                regs[at] = ix[0] as u64;
                regs[at + 1] = ix[1] as u64;
                return at + 2;
            }
            KArg::W(e) => {
                let w = e.words();
                regs[at..at + w.len()].copy_from_slice(w);
                return at + w.len();
            }
            KArg::V(v) => return write_value(regs, side, at, v),
        }
        at + 1
    }
}

/// Write a value a typed parameter can take into its registers, a list
/// into its side window entry when there is one; returns the register
/// after it.
fn write_value(regs: &mut [u64], side: &mut [ConsList], at: usize, v: &Value) -> usize {
    match v {
        Value::Int(i) => regs[at] = *i as u64,
        Value::Float(f) => regs[at] = f.to_bits(),
        Value::Array(h) => regs[at] = *h as u64,
        Value::Index(ix) => {
            regs[at] = ix[0] as u64;
            regs[at + 1] = ix[1] as u64;
            return at + 2;
        }
        Value::Bounds(lo, up) => {
            for (k, w) in lo.iter().chain(up).enumerate() {
                regs[at + k] = *w as u64;
            }
            return at + 4;
        }
        Value::Struct(_, fields) => {
            return fields.iter().fold(at, |at, field| write_value(regs, side, at, field));
        }
        Value::List(l) => {
            if let Some(entry) = side.get_mut(at) {
                *entry = l.clone();
            }
        }
        other => panic!("typed kernel parameter given {other:?}"),
    }
    at + 1
}

/// A register file: the frame window of the typed function running,
/// and its callees' above it; and, once a function with lists has run,
/// the side window of the lists the registers name, as long as they.
struct Regs {
    words: Vec<u64>,
    side: Vec<ConsList>,
}

thread_local! {
    /// This thread's register file. A typed function runs to its `ret`
    /// without yielding — it cannot communicate — so one file per
    /// thread serves every processor scheduled on it, and no skeleton
    /// call holds a window of its own.
    static REGS: RefCell<Regs> = const { RefCell::new(Regs { words: Vec::new(), side: Vec::new() }) };
}

/// Where typed code keeps its lists: the side window, or — for code
/// that neither has a list nor calls code that has one — nowhere, so
/// that its dispatch loop is the one it would be without lists.
trait Lists {
    /// Run list instruction `ins` of the frame at `base`.
    fn op(&mut self, ins: KIns, r: &mut [u64; WINDOW], base: usize);
    /// Before `f` runs on the frame at `base`.
    fn enter(&mut self, f: &TypedFn, base: usize);
    /// After `f` returned from the frame at `base`: drop the lists it
    /// leaves behind, so that they share no chunk with its result and
    /// a skeleton taking the result apart moves what it alone holds.
    fn leave(&mut self, f: &TypedFn, base: usize);
}

/// The lists of code that has none.
struct NoLists;

impl Lists for NoLists {
    fn op(&mut self, ins: KIns, _: &mut [u64; WINDOW], _: usize) {
        unreachable!("{ins} in code without lists")
    }

    fn enter(&mut self, _: &TypedFn, _: usize) {}

    fn leave(&mut self, _: &TypedFn, _: usize) {}
}

/// The side window: register `r`'s list, for the frame at `base`, is
/// entry `base + r`.
impl Lists for Vec<ConsList> {
    fn op(&mut self, ins: KIns, r: &mut [u64; WINDOW], base: usize) {
        list_op(ins, r, &mut self[base..])
    }

    fn enter(&mut self, f: &TypedFn, base: usize) {
        if f.lists && self.len() < base + WINDOW {
            self.resize_with(base + WINDOW, ConsList::new);
        }
    }

    fn leave(&mut self, f: &TypedFn, base: usize) {
        if f.lists {
            let frame = &mut self[base..base + f.nregs as usize];
            for l in frame.iter_mut().filter(|l| !l.is_empty()) {
                *l = ConsList::new();
            }
        }
    }
}

/// A typed argument function readied for one skeleton call: its
/// constants and lifted arguments laid out as register words and the
/// first element-argument register worked out, once — so that an
/// element is "copy the prologue, write its arguments, run".
pub(crate) struct TypedSite<'a> {
    view: &'a KernelView,
    tf: &'a TypedFn,
    env: &'a KEnv<'a>,
    /// The lifted arguments: a list among them is written per call.
    lifted: &'a [Value],
    /// The frame's first registers: constants, then the lifted
    /// arguments. The element arguments follow.
    prologue: Vec<u64>,
}

impl<'a> TypedSite<'a> {
    /// Ready `tf`, laying its prologue out in `prologue` (whatever it
    /// held is overwritten; its allocation is kept).
    pub(crate) fn new(
        view: &'a KernelView,
        tf: &'a TypedFn,
        lifted: &'a [Value],
        env: &'a KEnv<'a>,
        mut prologue: Vec<u64>,
    ) -> Self {
        let consts = view.consts_of(tf);
        prologue.clear();
        prologue.resize(tf.nregs as usize, 0);
        prologue[..consts.len()].copy_from_slice(consts);
        let args_at =
            lifted.iter().fold(consts.len(), |at, v| write_value(&mut prologue, &mut [], at, v));
        prologue.truncate(args_at);
        TypedSite { view, tf, env, lifted, prologue }
    }

    /// The prologue's buffer, for the next site to lay its own out in.
    pub(crate) fn take_prologue(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.prologue)
    }

    /// Call the function on `lifted ++ args`.
    pub(crate) fn call<U: Elem>(&mut self, args: &[KArg<'_>]) -> U {
        REGS.with_borrow_mut(|Regs { words: regs, side }| {
            if regs.len() < WINDOW {
                regs.resize(WINDOW, 0);
            }
            let args_at = self.prologue.len();
            regs[..args_at].copy_from_slice(&self.prologue);
            if self.tf.lists {
                return self.call_with_lists(regs, side, args);
            }
            args.iter().fold(args_at, |at, arg| arg.write(regs, &mut [], at));
            let out = self.view.run(self.tf, regs, &mut NoLists, 0, self.env);
            match self.tf.ret {
                // a struct stays in the frame
                KTy::Struct(flat) => {
                    U::from_words(self.tf.ret, &regs[out[0] as usize..][..flat.n as usize])
                }
                ty => U::from_words(ty, &out),
            }
        })
    }

    /// [`TypedSite::call`] of a function that has lists, once its
    /// prologue is in `regs` — out of line, so that the call of one
    /// that has none stays what it was.
    #[inline(never)]
    fn call_with_lists<U: Elem>(
        &self,
        regs: &mut Vec<u64>,
        side: &mut Vec<ConsList>,
        args: &[KArg<'_>],
    ) -> U {
        side.enter(self.tf, 0);
        // the prologue has no side window: its lifted lists are written
        // here
        let consts = self.tf.nconsts as usize;
        let args_at = self.lifted.iter().fold(consts, |at, v| write_value(regs, side, at, v));
        args.iter().fold(args_at, |at, arg| arg.write(regs, side, at));
        let out = self.view.run(self.tf, regs, side, 0, self.env);
        let result = match self.tf.ret {
            KTy::Struct(flat) => {
                U::from_words(self.tf.ret, &regs[out[0] as usize..][..flat.n as usize])
            }
            // a list stays in the frame too, and is moved out of it
            KTy::List(_) => U::from_sl(Sl::V(Value::List(take(&mut side[out[0] as usize])))),
            ty => U::from_words(ty, &out),
        };
        side.leave(self.tf, 0);
        result
    }
}

impl KernelView {
    /// Run `tf` on the frame at `base` (`stack` holds a whole window
    /// from there on, and so does `lists` if `tf` has lists); returns
    /// its result registers or, of a struct or a list (which stay in the
    /// frame), the first's number.
    fn run<L: Lists>(
        &self,
        tf: &TypedFn,
        stack: &mut Vec<u64>,
        lists: &mut L,
        base: usize,
        env: &KEnv<'_>,
    ) -> [u64; 2] {
        let code = &self.code[tf.code_at as usize..][..tf.ncode as usize];
        let mut pc = 0usize;
        loop {
            // the one conversion per activation that makes every
            // register access below check-free: an `R` indexes an array
            // of exactly as many registers as an `R` can name
            let r: &mut [u64; WINDOW] =
                (&mut stack[base..base + WINDOW]).try_into().expect("a window is WINDOW long");
            macro_rules! int {
                ($x:expr) => {
                    r[$x as usize] as i64
                };
            }
            macro_rules! flt {
                ($x:expr) => {
                    f64::from_bits(r[$x as usize])
                };
            }
            macro_rules! jump_if {
                ($cond:expr, $t:expr) => {
                    if $cond {
                        // keeps this a branch the processor predicts:
                        // as a conditional move of `pc` the next fetch
                        // would wait for the comparison's operands
                        std::hint::black_box(());
                        pc = $t as usize;
                    }
                };
            }
            // dispatch until a call needs the whole register file
            let (fid, args, d) = loop {
                let ins = code[pc];
                pc += 1;
                match ins {
                    KIns::AddI(d, a, b) => {
                        r[d as usize] = int_bin(BinOp::Add, int!(a), int!(b)) as u64
                    }
                    KIns::SubI(d, a, b) => {
                        r[d as usize] = int_bin(BinOp::Sub, int!(a), int!(b)) as u64
                    }
                    KIns::MulI(d, a, b) => {
                        r[d as usize] = int_bin(BinOp::Mul, int!(a), int!(b)) as u64
                    }
                    KIns::DivI(d, a, b) => {
                        r[d as usize] = int_bin(BinOp::Div, int!(a), int!(b)) as u64
                    }
                    KIns::RemI(d, a, b) => {
                        r[d as usize] = int_bin(BinOp::Rem, int!(a), int!(b)) as u64
                    }
                    KIns::EqI(d, a, b) => r[d as usize] = (int!(a) == int!(b)) as u64,
                    KIns::NeI(d, a, b) => r[d as usize] = (int!(a) != int!(b)) as u64,
                    KIns::LtI(d, a, b) => r[d as usize] = (int!(a) < int!(b)) as u64,
                    KIns::LeI(d, a, b) => r[d as usize] = (int!(a) <= int!(b)) as u64,
                    KIns::GtI(d, a, b) => r[d as usize] = (int!(a) > int!(b)) as u64,
                    KIns::GeI(d, a, b) => r[d as usize] = (int!(a) >= int!(b)) as u64,
                    KIns::AddF(d, a, b) => {
                        r[d as usize] = float_arith(BinOp::Add, flt!(a), flt!(b)).to_bits()
                    }
                    KIns::SubF(d, a, b) => {
                        r[d as usize] = float_arith(BinOp::Sub, flt!(a), flt!(b)).to_bits()
                    }
                    KIns::MulF(d, a, b) => {
                        r[d as usize] = float_arith(BinOp::Mul, flt!(a), flt!(b)).to_bits()
                    }
                    KIns::DivF(d, a, b) => {
                        r[d as usize] = float_arith(BinOp::Div, flt!(a), flt!(b)).to_bits()
                    }
                    KIns::RemF(d, a, b) => {
                        r[d as usize] = float_arith(BinOp::Rem, flt!(a), flt!(b)).to_bits()
                    }
                    KIns::DivP2(d, a, k) => r[d as usize] = div_pow2(int!(a), k as u32) as u64,
                    KIns::RemP2(d, a, k) => r[d as usize] = rem_pow2(int!(a), k as u32) as u64,
                    KIns::EqF(d, a, b) => {
                        r[d as usize] = float_cmp(BinOp::Eq, flt!(a), flt!(b)) as u64
                    }
                    KIns::NeF(d, a, b) => {
                        r[d as usize] = float_cmp(BinOp::Ne, flt!(a), flt!(b)) as u64
                    }
                    KIns::LtF(d, a, b) => {
                        r[d as usize] = float_cmp(BinOp::Lt, flt!(a), flt!(b)) as u64
                    }
                    KIns::LeF(d, a, b) => {
                        r[d as usize] = float_cmp(BinOp::Le, flt!(a), flt!(b)) as u64
                    }
                    KIns::GtF(d, a, b) => {
                        r[d as usize] = float_cmp(BinOp::Gt, flt!(a), flt!(b)) as u64
                    }
                    KIns::GeF(d, a, b) => {
                        r[d as usize] = float_cmp(BinOp::Ge, flt!(a), flt!(b)) as u64
                    }
                    KIns::NegI(d, a) => r[d as usize] = neg_int(int!(a)) as u64,
                    KIns::NegF(d, a) => r[d as usize] = (-flt!(a)).to_bits(),
                    KIns::Not(d, a) => r[d as usize] = (r[a as usize] == 0) as u64,
                    KIns::ToBool(d, a) => r[d as usize] = (r[a as usize] != 0) as u64,
                    KIns::Mov(d, a) => r[d as usize] = r[a as usize],
                    KIns::Mov2(d, a) => {
                        let v = [r[a as usize], r[a as usize + 1]];
                        r[d as usize] = v[0];
                        r[d as usize + 1] = v[1];
                    }
                    KIns::MovN(d, a, n) => {
                        r.copy_within(a as usize..a as usize + n as usize, d as usize)
                    }
                    KIns::MkIx(d, a, b) => {
                        let v = [r[a as usize], r[b as usize]];
                        r[d as usize] = v[0];
                        r[d as usize + 1] = v[1];
                    }
                    KIns::IxAt(d, ix, comp) => {
                        let i = int!(comp);
                        assert!(
                            (0..2).contains(&i),
                            "skil runtime: Index component {i} out of range"
                        );
                        r[d as usize] = r[ix as usize + i as usize];
                    }
                    KIns::Intr1(op, d, a) => {
                        r[d as usize] = scalar_bits(scalar_intr(op, |_| int!(a), |_| flt!(a)));
                    }
                    KIns::Intr2(op, d, a, b) => {
                        let v = scalar_intr(
                            op,
                            |k| if k == 0 { int!(a) } else { int!(b) },
                            |k| if k == 0 { flt!(a) } else { flt!(b) },
                        );
                        r[d as usize] = scalar_bits(v);
                    }
                    KIns::ProcId(d) => r[d as usize] = env.me as u64,
                    KIns::NProcs(d) => r[d as usize] = env.nprocs as u64,
                    KIns::GetI(d, arr, i, j) => {
                        let ix = to_uindex([int!(i), int!(j)]);
                        let store = live_array(env.arrays, r[arr as usize] as usize);
                        r[d as usize] = rt(IntElem::of(store).get(ix)).0 as u64;
                    }
                    KIns::GetF(d, arr, i, j) => {
                        let ix = to_uindex([int!(i), int!(j)]);
                        let store = live_array(env.arrays, r[arr as usize] as usize);
                        r[d as usize] = rt(FloatElem::of(store).get(ix)).0.to_bits();
                    }
                    KIns::PartBounds(d, arr) => {
                        let b = part_bounds(env.arrays, r[arr as usize] as usize);
                        for (k, w) in b.lower.iter().chain(&b.upper).enumerate() {
                            r[d as usize + k] = *w as u64;
                        }
                    }
                    KIns::Error(a) => program_error(int!(a)),
                    ins @ (KIns::Nil(..)
                    | KIns::Len(..)
                    | KIns::Head(..)
                    | KIns::HeadL(..)
                    | KIns::Tail(..)
                    | KIns::ConsI(..)
                    | KIns::ConsF(..)
                    | KIns::ConsL(..)
                    | KIns::Append(..)
                    | KIns::MovL(..)
                    | KIns::TakeL(..)) => lists.op(ins, r, base),
                    KIns::Jmp(t) => pc = t as usize,
                    KIns::Jz(a, t) => jump_if!(r[a as usize] == 0, t),
                    KIns::Jnz(a, t) => jump_if!(r[a as usize] != 0, t),
                    KIns::JEqI(a, b, t) => jump_if!(int!(a) == int!(b), t),
                    KIns::JNeI(a, b, t) => jump_if!(int!(a) != int!(b), t),
                    KIns::JLtI(a, b, t) => jump_if!(int!(a) < int!(b), t),
                    KIns::JLeI(a, b, t) => jump_if!(int!(a) <= int!(b), t),
                    KIns::JGtI(a, b, t) => jump_if!(int!(a) > int!(b), t),
                    KIns::JGeI(a, b, t) => jump_if!(int!(a) >= int!(b), t),
                    KIns::JEqF(a, b, t) => jump_if!(float_cmp(BinOp::Eq, flt!(a), flt!(b)), t),
                    KIns::JNeF(a, b, t) => jump_if!(float_cmp(BinOp::Ne, flt!(a), flt!(b)), t),
                    KIns::JLtF(a, b, t) => jump_if!(float_cmp(BinOp::Lt, flt!(a), flt!(b)), t),
                    KIns::JLeF(a, b, t) => jump_if!(float_cmp(BinOp::Le, flt!(a), flt!(b)), t),
                    KIns::JGtF(a, b, t) => jump_if!(float_cmp(BinOp::Gt, flt!(a), flt!(b)), t),
                    KIns::JGeF(a, b, t) => jump_if!(float_cmp(BinOp::Ge, flt!(a), flt!(b)), t),
                    KIns::JnEqF(a, b, t) => jump_if!(!float_cmp(BinOp::Eq, flt!(a), flt!(b)), t),
                    KIns::JnNeF(a, b, t) => jump_if!(!float_cmp(BinOp::Ne, flt!(a), flt!(b)), t),
                    KIns::JnLtF(a, b, t) => jump_if!(!float_cmp(BinOp::Lt, flt!(a), flt!(b)), t),
                    KIns::JnLeF(a, b, t) => jump_if!(!float_cmp(BinOp::Le, flt!(a), flt!(b)), t),
                    KIns::JnGtF(a, b, t) => jump_if!(!float_cmp(BinOp::Gt, flt!(a), flt!(b)), t),
                    KIns::JnGeF(a, b, t) => jump_if!(!float_cmp(BinOp::Ge, flt!(a), flt!(b)), t),
                    KIns::Call(fid, args, d) => break (fid, args, d),
                    KIns::Ret(a) => return [r[a as usize], 0],
                    KIns::Ret2(a) => return [r[a as usize], r[a as usize + 1]],
                    KIns::RetN(a) | KIns::RetL(a) => return [a as u64, 0],
                    KIns::Ret0() => return [0, 0],
                }
            };
            // the callee's window starts above this frame: constants,
            // then the arguments from this frame's temporaries
            let callee = self.typed(fid as usize).expect("a typed function calls typed functions");
            let cbase = base + tf.nregs as usize;
            if stack.len() < cbase + WINDOW {
                stack.resize(cbase + WINDOW, 0);
            }
            let nconsts = callee.nconsts as usize;
            stack[cbase..cbase + nconsts].copy_from_slice(self.consts_of(callee));
            let mut to = cbase + nconsts;
            for k in 0..callee.nparams as usize {
                let from = base + args as usize + tf.twidth as usize * k;
                let words = 1 + (callee.wide >> k & 1) as usize;
                stack.copy_within(from..from + words, to);
                to += words;
            }
            lists.enter(callee, cbase);
            let out = self.run(callee, stack, lists, cbase, env);
            lists.leave(callee, cbase);
            stack[base + d as usize] = out[0];
            if callee.ret == KTy::Index {
                stack[base + d as usize + 1] = out[1];
            }
        }
    }
}

/// A list instruction: `r` is the frame's registers, `side` its lists
/// (and its callees', from the frame's first register on).
#[inline(never)]
fn list_op(ins: KIns, r: &mut [u64; WINDOW], side: &mut [ConsList]) {
    fn first<'l>(l: &'l ConsList, what: &str) -> &'l Value {
        l.first().unwrap_or_else(|| panic!("skil runtime: {what} of an empty list"))
    }
    /// `side[d] = cons(x, side[l])`, consuming `side[l]`.
    fn cons(side: &mut [ConsList], d: R, x: Value, l: R) {
        if d != l {
            side[d as usize] = take(&mut side[l as usize]);
        }
        side[d as usize].push_front(x);
    }
    match ins {
        KIns::Nil(d) => side[d as usize] = ConsList::new(),
        KIns::Len(d, l) => r[d as usize] = side[l as usize].len() as u64,
        KIns::Head(d, l) => {
            r[d as usize] = match first(&side[l as usize], "head") {
                Value::Int(v) => *v as u64,
                Value::Float(v) => v.to_bits(),
                other => panic!("typed code took {other:?} for a scalar element"),
            }
        }
        KIns::HeadL(d, l) => match first(&side[l as usize], "head") {
            Value::List(h) => side[d as usize] = h.clone(),
            other => panic!("typed code took {other:?} for a list element"),
        },
        KIns::Tail(d, l) if d == l => {
            if side[d as usize].pop_front().is_none() {
                panic!("skil runtime: tail of an empty list")
            }
        }
        KIns::Tail(d, l) => {
            let rest = side[l as usize].rest();
            side[d as usize] =
                rest.unwrap_or_else(|| panic!("skil runtime: tail of an empty list"));
        }
        KIns::ConsI(d, e, l) => cons(side, d, Value::Int(r[e as usize] as i64), l),
        KIns::ConsF(d, e, l) => cons(side, d, Value::Float(f64::from_bits(r[e as usize])), l),
        KIns::ConsL(d, e, l) => {
            let x = Value::List(side[e as usize].clone());
            cons(side, d, x, l)
        }
        KIns::Append(d, a, b) => side[d as usize] = side[a as usize].append(&side[b as usize]),
        KIns::MovL(d, l) => side[d as usize] = side[l as usize].clone(),
        KIns::TakeL(d, l) => side[d as usize] = take(&mut side[l as usize]),
        other => unreachable!("{other} is no list instruction"),
    }
}

fn scalar_bits(v: Option<Scalar>) -> u64 {
    match v.expect("the tier lowers scalar intrinsics only") {
        Scalar::I(v) => v as u64,
        Scalar::F(v) => v.to_bits(),
    }
}

// ---------------------------------------------------------------------
// Listing.
// ---------------------------------------------------------------------

impl KernelView {
    /// Human-readable listing of the view (`skilc --emit-bytecode=kernel`):
    /// per skeleton site the representation of its elements and how the
    /// `vm` engine runs each argument function — `direct(op)` (a
    /// combiner resolved to one closed operator, its loop monomorphic),
    /// a trivial shape, `typed`, or `generic: why` (worked out again
    /// here, not kept in the view; its code is in `--emit-bytecode`) —
    /// then the typed code.
    pub(crate) fn listing(&self, fo: &FoProgram, code: &Program, level: OptLevel) -> String {
        let names: &Names = &fo.names;
        let name = |fid: usize| names.get(code.funcs[fid].name);
        let mut out = String::new();
        for (i, s) in code.sites.iter().enumerate() {
            let fns: Vec<String> = s
                .fns
                .iter()
                .enumerate()
                .map(|(k, f)| {
                    let form = match (s.direct(k), f.shape.listing()) {
                        (Some(op), _) => format!("direct({})", op.name()),
                        (None, Some(shape)) => shape,
                        (None, None) if self.typed(f.fid).is_some() => "typed".into(),
                        (None, None) => {
                            let why = match level {
                                OptLevel::O0 => "-O0",
                                OptLevel::O2 => lower_fn(code, fo, f.fid)
                                    .err()
                                    .unwrap_or("calls a generic function"),
                            };
                            format!("generic: {why}")
                        }
                    };
                    format!("{}+{} [{form}]", name(f.fid), f.n_lifted)
                })
                .collect();
            let ret = match s.op {
                SkelOp::Fold => format!(" ret={}", s.ret.name()),
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "site {i}: {} elem={}{ret} fns=({})",
                s.op.name(),
                s.elem.name(),
                fns.join(", ")
            );
        }
        for (fid, t) in (0..code.funcs.len()).filter_map(|fid| Some((fid, self.typed(fid)?))) {
            let ret = match t.ret {
                KTy::Struct(flat) => names.get(fo.structs[flat.sid as usize].name),
                ty => ty.name(),
            };
            let _ = writeln!(
                out,
                "\nfn {} [typed] (params={} at r{}, regs={}) -> {}:",
                name(fid),
                t.nparams,
                t.nconsts,
                t.nregs,
                ret
            );
            // the view keeps a constant's bits only; its type comes
            // from lowering the function again
            let lowered = lower_fn(code, fo, fid).expect("lowered before");
            for (r, (ty, bits)) in lowered.consts.iter().enumerate() {
                let v = match ty {
                    KTy::Float => format!("{:?}", f64::from_bits(*bits)),
                    _ => format!("{}", *bits as i64),
                };
                let _ = writeln!(out, "        r{r} = {v}");
            }
            let body = &self.code[t.code_at as usize..][..t.ncode as usize];
            for (pc, ins) in body.iter().enumerate() {
                let callee = match ins {
                    KIns::Call(c, ..) => format!("  ; {}", name(*c as usize)),
                    _ => String::new(),
                };
                let _ = writeln!(out, "  {pc:>4}: {ins}{callee}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_view_is_compact() {
        // what DESIGN.md §10 and the cold_compile memory bound count on
        assert_eq!(std::mem::size_of::<KIns>(), 6);
        assert_eq!(std::mem::size_of::<TypedFn>(), 28);
    }

    #[test]
    fn jumps_to_the_next_instruction_are_dropped_and_targets_follow() {
        let mut code = vec![
            KIns::Jz(0, 2),
            KIns::Jmp(2),
            KIns::Mov(1, 0),
            KIns::Jmp(5),
            KIns::Jmp(5),
            KIns::Jnz(0, 0),
            KIns::Ret(1),
        ];
        drop_jumps_to_next(&mut code);
        // dropping 4 made 3 a jump to its successor too
        assert_eq!(code, [KIns::Jz(0, 1), KIns::Mov(1, 0), KIns::Jnz(0, 0), KIns::Ret(1)]);
    }

    #[test]
    fn a_loops_back_edge_becomes_its_test() {
        // i = 0; while (i < n && x <= 4.0) { x = x * x; if (x) { i = i + 1; } } ret i
        let mut code = vec![
            KIns::Mov(2, 0),
            KIns::JGeI(2, 1, 7),
            KIns::JnLeF(3, 4, 7),
            KIns::MulF(3, 3, 3),
            KIns::Jz(3, 6), // a jump inside the body: the head ends before it
            KIns::AddI(2, 2, 5),
            KIns::Jmp(1),
            KIns::Ret(2),
        ];
        rotate_loops(&mut code);
        assert_eq!(
            code,
            [
                KIns::Mov(2, 0),
                KIns::JGeI(2, 1, 8),
                KIns::JnLeF(3, 4, 8),
                KIns::MulF(3, 3, 3),
                KIns::Jz(3, 6),
                KIns::AddI(2, 2, 5),
                // the head again, leaving on its first test and
                // re-entering the body on its last
                KIns::JGeI(2, 1, 8),
                KIns::JLeF(3, 4, 3),
                KIns::Ret(2),
            ]
        );
        // a forward jump, and a back edge whose target is no test, stay
        let mut plain = vec![KIns::Jmp(2), KIns::Mov(1, 0), KIns::AddI(1, 1, 0), KIns::Jmp(2)];
        let before = plain.clone();
        rotate_loops(&mut plain);
        assert_eq!(plain, before);
    }

    #[test]
    fn an_int_comparison_that_must_fail_jumps_on_its_complement() {
        assert_eq!(KIns::jump_cmp(BinOp::Lt, false, false, 1, 2), Some(KIns::JGeI(1, 2, 0)));
        assert_eq!(KIns::jump_cmp(BinOp::Lt, false, true, 1, 2), Some(KIns::JLtI(1, 2, 0)));
        // not so for floats: a NaN fails both `<` and `>=`
        assert_eq!(KIns::jump_cmp(BinOp::Lt, true, false, 1, 2), Some(KIns::JnLtF(1, 2, 0)));
        assert_eq!(KIns::jump_cmp(BinOp::And, false, true, 1, 2), None);
    }

    #[test]
    fn instructions_list_as_mnemonic_and_operands() {
        assert_eq!(KIns::MulF(3, 1, 2).to_string(), "mulf r3, r1, r2");
        assert_eq!(KIns::JnLeF(1, 2, 30).to_string(), "jnlef r1, r2, @30");
        assert_eq!(KIns::Intr1(Intr::Itof, 4, 1).to_string(), "intr1 itof, r4, r1");
        assert_eq!(KIns::Call(7, 20, 20).to_string(), "call fn#7, r20, r20");
        assert_eq!(KIns::RemP2(3, 1, 10).to_string(), "remp2 r3, r1, 10");
        assert_eq!(KIns::Ret0().to_string(), "ret0");
    }
}
