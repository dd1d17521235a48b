//! Bytecode for instantiated Skil programs.
//!
//! The AST walker in [`crate::interp`] re-resolves every variable through
//! a scope stack and every callee through a name lookup, on every
//! execution step. This module performs that resolution **once**,
//! at compile time: a resolver pass turns variable references into frame
//! slot indices and function names into dense indices into
//! [`FoProgram::funcs`], and the statement tree is flattened into a
//! compact stack-machine instruction stream (see [`Instr`]).
//!
//! ## The cost-charging invariant
//!
//! Virtual time must be **bit-identical** to the AST walker, which
//! charges per IR operation while it walks. The bytecode therefore
//! carries explicit [`Instr::Charge`] instructions referencing a pool of
//! symbolic [`CostExpr`]s (linear combinations of [`CostModel`] fields,
//! resolved to concrete cycle counts once per run — the bytecode itself
//! is cost-model independent). Two rules keep the charge stream exactly
//! equivalent to the walker's:
//!
//! 1. a `Charge` is emitted at the same point in evaluation order where
//!    the walker charges (e.g. a binary operation charges *before* its
//!    operands, a store charges *after* its value — exactly as
//!    `interp.rs` does), and
//! 2. adjacent `Charge` instructions may be merged, but **never across a
//!    jump label**: merged charges always execute together, with no
//!    communication event between them, so every prefix sum observable
//!    at a communication point is unchanged.
//!
//! Skeleton argument functions are described by [`KernelShape`]: trivial
//! bodies (an operator section, a single pure intrinsic over parameters)
//! execute as direct computations with no frame at all, everything else
//! runs its bytecode per element on a reusable flat frame.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt::Write as _;

use skil_runtime::CostModel;

use crate::builtins::{Builtin, BuiltinKind, BUILTINS, DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D};
use crate::fo::{BinOp, FoExpr, FoFunc, FoProgram, FoStmt, FoTy, SkelCall, SkelOp};
use crate::kernel::Flat;
use crate::scalar::scalar_intr;
use crate::store::Direct;
use crate::sym::{Names, Scopes, Sym};
use crate::value::{ConsList, Value};

// ---------------------------------------------------------------------
// Symbolic cycle charges.
// ---------------------------------------------------------------------

/// A symbolic virtual-cycle charge: a linear combination of the scalar
/// operation costs of a [`CostModel`]. Charges stay symbolic in the
/// bytecode and are resolved to `u64` cycles once per run, so one
/// compiled program serves every machine configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct CostExpr {
    /// Coefficient of `CostModel::load`.
    pub load: u32,
    /// Coefficient of `CostModel::store`.
    pub store: u32,
    /// Coefficient of `CostModel::int_op`.
    pub int_op: u32,
    /// Coefficient of `CostModel::flt_add`.
    pub flt_add: u32,
    /// Coefficient of `CostModel::flt_mul`.
    pub flt_mul: u32,
    /// Coefficient of `CostModel::flt_div`.
    pub flt_div: u32,
    /// Coefficient of `CostModel::call`.
    pub call: u32,
}

impl CostExpr {
    /// Concrete cycles under a cost model.
    pub fn resolve(&self, c: &CostModel) -> u64 {
        self.load as u64 * c.load
            + self.store as u64 * c.store
            + self.int_op as u64 * c.int_op
            + self.flt_add as u64 * c.flt_add
            + self.flt_mul as u64 * c.flt_mul
            + self.flt_div as u64 * c.flt_div
            + self.call as u64 * c.call
    }

    pub(crate) fn plus(self, o: CostExpr) -> CostExpr {
        CostExpr {
            load: self.load + o.load,
            store: self.store + o.store,
            int_op: self.int_op + o.int_op,
            flt_add: self.flt_add + o.flt_add,
            flt_mul: self.flt_mul + o.flt_mul,
            flt_div: self.flt_div + o.flt_div,
            call: self.call + o.call,
        }
    }

    fn of(field: fn(&mut CostExpr) -> &mut u32, n: u32) -> CostExpr {
        let mut ce = CostExpr::default();
        *field(&mut ce) = n;
        ce
    }

    fn load(n: u32) -> CostExpr {
        CostExpr::of(|c| &mut c.load, n)
    }
    fn store(n: u32) -> CostExpr {
        CostExpr::of(|c| &mut c.store, n)
    }
    fn int_op(n: u32) -> CostExpr {
        CostExpr::of(|c| &mut c.int_op, n)
    }
    fn call(n: u32) -> CostExpr {
        CostExpr::of(|c| &mut c.call, n)
    }

    /// The charge the walker applies before a binary operation.
    fn binop(op: BinOp, float: bool) -> CostExpr {
        if float {
            match op {
                BinOp::Mul => CostExpr::of(|c| &mut c.flt_mul, 1),
                BinOp::Div => CostExpr::of(|c| &mut c.flt_div, 1),
                _ => CostExpr::of(|c| &mut c.flt_add, 1),
            }
        } else {
            CostExpr::int_op(1)
        }
    }
}

impl std::fmt::Display for CostExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut terms: Vec<String> = Vec::new();
        for (n, name) in [
            (self.load, "load"),
            (self.store, "store"),
            (self.int_op, "int_op"),
            (self.flt_add, "flt_add"),
            (self.flt_mul, "flt_mul"),
            (self.flt_div, "flt_div"),
            (self.call, "call"),
        ] {
            match n {
                0 => {}
                1 => terms.push(name.into()),
                n => terms.push(format!("{n}*{name}")),
            }
        }
        if terms.is_empty() {
            write!(f, "0")
        } else {
            write!(f, "{}", terms.join("+"))
        }
    }
}

// ---------------------------------------------------------------------
// Intrinsics, resolved at compile time.
// ---------------------------------------------------------------------

/// An intrinsic operation or builtin constant. The instantiation pass
/// resolves the surface name ([`crate::builtins::BUILTINS`]), so the
/// first-order IR, the bytecode and every engine dispatch on this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // names mirror the surface intrinsics 1:1
pub enum Intr {
    Abs,
    Fabs,
    Min,
    Max,
    Fmin,
    Fmax,
    Sqrt,
    Itof,
    Ftoi,
    Log2i,
    IntMax,
    FltMax,
    DistrDefault,
    DistrRing,
    DistrTorus2d,
    Error,
    Nil,
    Cons,
    Head,
    Tail,
    Len,
    Append,
    ProcId,
    NProcs,
    ArrayGetElem,
    ArrayPutElem,
    ArrayPartBounds,
    Print,
}

impl Intr {
    /// Surface name (for diagnostics and disassembly): its entry in
    /// [`BUILTINS`].
    pub fn name(&self) -> &'static str {
        let is = |b: &&Builtin| matches!(b.kind, BuiltinKind::Intrinsic(i) | BuiltinKind::Const(i) if i == *self);
        BUILTINS.iter().find(is).expect("every intrinsic is a builtin").name
    }

    /// True for intrinsics computable from their argument values alone
    /// (no machine or array state) — exactly the set
    /// [`Intr::eval_pure`] handles.
    pub fn is_pure(&self) -> bool {
        !matches!(
            self,
            Intr::ProcId
                | Intr::NProcs
                | Intr::ArrayGetElem
                | Intr::ArrayPutElem
                | Intr::ArrayPartBounds
                | Intr::Print
        )
    }

    /// Evaluate a pure intrinsic; `None` for the stateful ones. This is
    /// the single implementation shared by the AST walker (via
    /// `interp::pure_intrinsic`) and both VM execution modes, so the
    /// engines cannot drift; the scalar intrinsics are
    /// `scalar::scalar_intr` over boxed operands.
    pub fn eval_pure(&self, args: &[Value]) -> Option<Value> {
        if let Some(v) = scalar_intr(*self, |k| args[k].as_int(), |k| args[k].as_float()) {
            return Some(v.into());
        }
        Some(match self {
            Intr::DistrDefault => Value::Int(DISTR_DEFAULT),
            Intr::DistrRing => Value::Int(DISTR_RING),
            Intr::DistrTorus2d => Value::Int(DISTR_TORUS2D),
            Intr::Error => crate::host::program_error(args[0].as_int()),
            Intr::Nil => Value::List(ConsList::new()),
            Intr::Cons => {
                // O(1): the new cell shares the tail instead of copying it
                let Value::List(rest) = &args[1] else {
                    panic!("skil runtime: cons onto a non-list")
                };
                Value::List(ConsList::cons(args[0].clone(), rest))
            }
            Intr::Head => match &args[0] {
                Value::List(items) if !items.is_empty() => {
                    items.first().expect("nonempty list").clone()
                }
                Value::List(_) => panic!("skil runtime: head of an empty list"),
                other => panic!("skil runtime: head of {other:?}"),
            },
            Intr::Tail => match &args[0] {
                Value::List(items) if !items.is_empty() => {
                    Value::List(items.rest().expect("nonempty list"))
                }
                Value::List(_) => panic!("skil runtime: tail of an empty list"),
                other => panic!("skil runtime: tail of {other:?}"),
            },
            Intr::Len => match &args[0] {
                Value::List(items) => Value::Int(items.len() as i64),
                other => panic!("skil runtime: len of {other:?}"),
            },
            Intr::Append => match (&args[0], &args[1]) {
                // rebuilds only the left spine, shares the right list
                (Value::List(a), Value::List(b)) => Value::List(a.append(b)),
                _ => panic!("skil runtime: append of non-lists"),
            },
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------
// The instruction set.
// ---------------------------------------------------------------------

/// Where a fused instruction reads an operand from. `Top` pops the
/// operand stack (multiple `Top` operands pop right-to-left, matching
/// the push order of the unfused sequence); `Slot`/`Const` read without
/// touching the stack — the load the optimizer elided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Pop the operand stack.
    Top,
    /// Read frame slot `s`.
    Slot(u16),
    /// Read constant pool entry `i`.
    Const(u16),
}

/// One stack-machine instruction. All operands are resolved indices —
/// no name lookups happen at execution time.
///
/// The variants after [`Instr::RetUnit`] are **fused superinstructions**
/// emitted only by the optimizer ([`crate::opt`]); `compile_program`
/// never produces them, so `--opt-level 0` bytecode is exactly the PR 3
/// instruction set. Every fused instruction is observationally
/// equivalent to the sequence it replaces minus the elided stack
/// traffic; the `Charge`s of the replaced sequence are preserved
/// separately (merged, never dropped).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Advance virtual time by `costs[i]` (resolved per run). Skipped
    /// entirely in kernel mode, where the skeleton charges a statically
    /// estimated cost per element instead.
    Charge(u32),
    /// Push `consts[i]`.
    Const(u32),
    /// Push a copy of frame slot `s`.
    Load(u16),
    /// Pop into frame slot `s`.
    Store(u16),
    /// Discard the top of stack.
    Pop,
    /// Unconditional jump to instruction index `t`.
    Jump(u32),
    /// Pop an int; jump to `t` when it is zero.
    JumpIfZero(u32),
    /// Pop an int; jump to `t` when it is non-zero.
    JumpIfNonZero(u32),
    /// Pop an int `x`; push `Int(x != 0)` (normalizes `&&`/`||` results).
    ToBool,
    /// Pop rhs then lhs; push the binary operation result.
    Bin(BinOp, bool),
    /// Pop and arithmetically negate (float when the flag is set).
    Neg(bool),
    /// Pop an int `x`; push `Int(x == 0)` (logical not).
    Not,
    /// Pop a struct or bounds value; push field `i`.
    Field(u16),
    /// Pop component then index value; push the component.
    IndexAt,
    /// Pop `n` ints; push the `Index` they form.
    MakeIndex(u8),
    /// Pop `n` field values; push struct instance `sid`.
    MakeStruct(u32, u16),
    /// Pop `argc` arguments; run intrinsic `op`; push its result.
    Intr(Intr, u8),
    /// Pop the callee's arguments; execute function `fid`; push the
    /// return value. The preceding `Charge` carries the call cost.
    Call(u32),
    /// Pop value arguments and lifted arguments of skeleton site `s`;
    /// dispatch to `skil-core`; push the result.
    Skel(u32),
    /// Return the popped top of stack from the current function.
    Ret,
    /// Return `Unit` from the current function.
    RetUnit,

    // ---- fused superinstructions (optimizer output only) ----
    /// `Load lhs; Load rhs; Bin` with the loads elided: push `lhs op rhs`.
    BinS(BinOp, bool, Src, Src),
    /// `BinS` followed by `Store d`, without the stack round-trip:
    /// `frame[d] = lhs op rhs`.
    BinStore(BinOp, bool, Src, Src, u16),
    /// Fused compare-and-branch: jump to `t` when `lhs op rhs` is zero.
    JumpCmpZ(BinOp, bool, Src, Src, u32),
    /// Fused compare-and-branch: jump to `t` when `lhs op rhs` is non-zero.
    JumpCmpNz(BinOp, bool, Src, Src, u32),
    /// `Load s; JumpIfZero t` with the load elided.
    JumpZS(Src, u32),
    /// `Load s; JumpIfNonZero t` with the load elided.
    JumpNzS(Src, u32),
    /// `frame[d] = src` — a propagated copy or constant store.
    StoreS(u16, Src),
    /// Return `src` from the current function.
    RetS(Src),
    /// Push field `i` of `src`.
    FieldS(Src, u16),
    /// Push component `comp` of index value `ix`.
    IndexAtS(Src, Src),
    /// Intrinsic with fused operand fetches: `args[0..argc]` name the
    /// sources left-to-right (`Top` sources pop right-to-left).
    IntrS(Intr, u8, [Src; 3]),
    /// `array_get_elem(arr, {i})` with the `MakeIndex` elided.
    ArrGetI1(Src, Src),
    /// `array_get_elem(arr, {i, j})` with the `MakeIndex` elided.
    ArrGetI2(Src, Src, Src),
}

/// How a skeleton argument function executes per element.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelShape {
    /// Body is `return a <op> b;` over two parameters — an instantiated
    /// operator section. Executes as one direct operator application,
    /// no frame.
    Bin {
        /// The operator.
        op: BinOp,
        /// Float arithmetic family.
        float: bool,
        /// Parameter position of the left operand.
        a: usize,
        /// Parameter position of the right operand.
        b: usize,
    },
    /// Body is `return intrinsic(params...);` with a pure intrinsic.
    /// Executes as one direct intrinsic evaluation, no frame.
    Intrinsic {
        /// The intrinsic.
        op: Intr,
        /// Parameter position of each intrinsic argument.
        slots: Vec<usize>,
    },
    /// Anything else: run the function's bytecode on a reusable flat
    /// frame in kernel mode.
    General,
}

impl KernelShape {
    /// Listing spelling of a trivial shape; `None` for `General`, which
    /// each listing spells in its own terms.
    pub(crate) fn listing(&self) -> Option<String> {
        match self {
            KernelShape::Bin { op, float, a, b } => {
                Some(format!("bin {}{} #{a} #{b}", op.lexeme(), if *float { "f" } else { "" }))
            }
            KernelShape::Intrinsic { op, slots } => Some(format!("intr {} {slots:?}", op.name())),
            KernelShape::General => None,
        }
    }
}

/// How the VM host stores values of a static type inside an array
/// partition: `int` and `float` unboxed, a struct of at most eight
/// `int` / `float` fields as its fields' words, everything else as a
/// tagged [`Value`]. Chosen from the instantiated type alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemKind {
    /// `int`: one `i64` per element.
    Int,
    /// `float`: one `f64` per element.
    Float,
    /// A flat struct: one word per field, no allocation per element.
    Flat,
    /// Other structs, lists, `Index`, ...: one [`Value`] per element.
    Boxed,
}

impl ElemKind {
    /// The representation of values of type `ty` in `prog`.
    pub fn of(prog: &FoProgram, ty: &FoTy) -> ElemKind {
        match ty {
            FoTy::Int => ElemKind::Int,
            FoTy::Float => ElemKind::Float,
            FoTy::Struct(_) if Flat::of_ty(prog, ty).is_some() => ElemKind::Flat,
            _ => ElemKind::Boxed,
        }
    }

    /// Spelling in the stack machine's own listing (`--emit-bytecode`):
    /// on its operand stack a struct is a boxed `Value` however the host
    /// stores arrays of them, so `flat` reads `boxed` there. The kernel
    /// listing names the store.
    fn stack_name(self) -> &'static str {
        match self {
            ElemKind::Flat => ElemKind::Boxed.name(),
            kind => kind.name(),
        }
    }

    /// Listing spelling (`int` / `float` / `flat` / `boxed`).
    pub fn name(self) -> &'static str {
        match self {
            ElemKind::Int => "int",
            ElemKind::Float => "float",
            ElemKind::Flat => "flat",
            ElemKind::Boxed => "boxed",
        }
    }
}

/// One argument-function instance at a skeleton call site.
#[derive(Debug, Clone, PartialEq)]
pub struct SkelFn {
    /// Index into `FoProgram::funcs` / `Program::funcs`.
    pub fid: usize,
    /// Number of lifted arguments the call site evaluates for it.
    pub n_lifted: usize,
    /// Compiled per-element execution strategy.
    pub shape: KernelShape,
}

/// A skeleton call site: everything [`Instr::Skel`] needs, resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct SkelSite {
    /// Which skeleton.
    pub op: SkelOp,
    /// Number of value arguments on the stack.
    pub nargs: usize,
    /// Argument-function instances, in skeleton parameter order. Their
    /// lifted arguments sit above the value arguments on the stack, in
    /// the same order.
    pub fns: Vec<SkelFn>,
    /// Representation of the site's array elements (`array_create`: of
    /// the array it makes; otherwise of its first array argument).
    pub elem: ElemKind,
    /// Representation of the value the call itself yields — only
    /// `array_fold` yields an element-like value, so `Boxed` elsewhere.
    pub ret: ElemKind,
}

impl SkelSite {
    /// Argument function `i` as one closed operator over the site's
    /// unboxed scalars, when it is a combiner — a fold's folding
    /// function, a scan's, either of `array_gen_mult`'s — and an
    /// operator section or `min` / `max` over exactly its two elements.
    pub(crate) fn direct(&self, i: usize) -> Option<Direct> {
        let over = match (self.op, i) {
            (SkelOp::Fold, 1) => self.ret,
            (SkelOp::Scan, 0) | (SkelOp::GenMult, 0 | 1) => self.elem,
            _ => return None,
        };
        let f = &self.fns[i];
        match over {
            ElemKind::Int => Direct::of(&f.shape, f.n_lifted, false),
            ElemKind::Float => Direct::of(&f.shape, f.n_lifted, true),
            ElemKind::Flat | ElemKind::Boxed => None,
        }
    }
}

/// One compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFunc {
    /// Instance name (diagnostics and disassembly), in the string table
    /// of the [`FoProgram`] this was compiled from.
    pub name: Sym,
    /// Number of parameters (stored into slots `0..nparams`).
    pub nparams: usize,
    /// Flat frame size (every declaration got its own slot).
    pub nslots: usize,
    /// The instruction stream.
    pub code: Vec<Instr>,
}

/// A fully compiled program: functions parallel to
/// [`FoProgram::funcs`], plus the shared pools.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Compiled functions, index-compatible with `FoProgram::funcs`.
    pub funcs: Vec<CompiledFunc>,
    /// Constant pool.
    pub consts: Vec<Value>,
    /// Symbolic charge pool (deduplicated).
    pub costs: Vec<CostExpr>,
    /// Skeleton call sites.
    pub sites: Vec<SkelSite>,
    /// Index of `main`, when the program has one.
    pub main: Option<usize>,
}

impl Program {
    /// Heap bytes the program holds: instruction streams, pools, sites.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let shape = |s: &KernelShape| match s {
            KernelShape::Intrinsic { slots, .. } => slots.capacity() * size_of::<usize>(),
            _ => 0,
        };
        self.funcs.capacity() * size_of::<CompiledFunc>()
            + self.funcs.iter().map(|f| f.code.capacity() * size_of::<Instr>()).sum::<usize>()
            + self.consts.capacity() * size_of::<Value>()
            + self.costs.capacity() * size_of::<CostExpr>()
            + self.sites.capacity() * size_of::<SkelSite>()
            + self
                .sites
                .iter()
                .map(|s| {
                    s.fns.capacity() * size_of::<SkelFn>()
                        + s.fns.iter().map(|f| shape(&f.shape)).sum::<usize>()
                })
                .sum::<usize>()
    }
}

// ---------------------------------------------------------------------
// Compilation.
// ---------------------------------------------------------------------

#[derive(PartialEq, Eq, Hash)]
enum ConstKey {
    Unit,
    Int(i64),
    /// Float by bit pattern (total equality for pooling).
    Float(u64),
}

#[derive(Default)]
struct Pools {
    consts: Vec<Value>,
    const_ix: HashMap<ConstKey, u32>,
    costs: Vec<CostExpr>,
    cost_ix: HashMap<CostExpr, u32>,
    sites: Vec<SkelSite>,
}

impl Pools {
    fn constant(&mut self, key: ConstKey, v: Value) -> u32 {
        if let Some(&i) = self.const_ix.get(&key) {
            return i;
        }
        let i = self.consts.len() as u32;
        self.consts.push(v);
        self.const_ix.insert(key, i);
        i
    }

    fn cost(&mut self, ce: CostExpr) -> u32 {
        if let Some(&i) = self.cost_ix.get(&ce) {
            return i;
        }
        let i = self.costs.len() as u32;
        self.costs.push(ce);
        self.cost_ix.insert(ce, i);
        i
    }
}

/// Compile every function of an instantiated program.
pub fn compile_program(prog: &FoProgram) -> Program {
    let mut pools = Pools::default();
    let funcs = prog.funcs.iter().map(|f| compile_func(prog, f, &mut pools)).collect();
    Program {
        funcs,
        consts: pools.consts,
        costs: pools.costs,
        sites: pools.sites,
        main: prog.func_id(Sym::MAIN),
    }
}

/// Classify a function body for per-element execution — value-equivalent
/// fast paths for the trivial shapes instantiation leaves behind.
fn kernel_shape(f: &FoFunc) -> KernelShape {
    let param_pos = |name: Sym| f.params.iter().position(|(n, _)| *n == name);
    if let [FoStmt::Return(Some(expr))] = &*f.body {
        match expr {
            FoExpr::Binary { op, float, args } => {
                if let [FoExpr::Var(a), FoExpr::Var(b)] = **args {
                    if let (Some(a), Some(b)) = (param_pos(a), param_pos(b)) {
                        return KernelShape::Bin { op: *op, float: *float, a, b };
                    }
                }
            }
            FoExpr::Intrinsic(op, args) if op.is_pure() && *op != Intr::Error => {
                let slots: Option<Vec<usize>> = args
                    .iter()
                    .map(|a| match a {
                        FoExpr::Var(n) => param_pos(*n),
                        _ => None,
                    })
                    .collect();
                if let Some(slots) = slots {
                    return KernelShape::Intrinsic { op: *op, slots };
                }
            }
            _ => {}
        }
    }
    KernelShape::General
}

struct FnCompiler<'a> {
    prog: &'a FoProgram,
    pools: &'a mut Pools,
    fname: Sym,
    /// Frame slots of the variables in scope.
    scopes: Scopes<u16>,
    nslots: usize,
    code: Vec<Instr>,
    /// Resolved label targets (`u32::MAX` while unbound).
    labels: Vec<u32>,
    /// Jump instructions awaiting a label target.
    patches: Vec<(usize, usize)>,
    /// Code length at the last bound label: `Charge` merging never
    /// crosses it (a jump could land between the merged halves).
    barrier: usize,
}

fn compile_func(prog: &FoProgram, f: &FoFunc, pools: &mut Pools) -> CompiledFunc {
    let mut scopes = Scopes::default();
    for (i, (name, _)) in f.params.iter().enumerate() {
        scopes.declare(*name, i as u16);
    }
    let mut c = FnCompiler {
        prog,
        pools,
        fname: f.name,
        scopes,
        nslots: f.params.len(),
        code: Vec::new(),
        labels: Vec::new(),
        patches: Vec::new(),
        barrier: 0,
    };
    c.stmts(&f.body);
    c.code.push(Instr::RetUnit);
    for (at, l) in c.patches {
        let target = c.labels[l];
        debug_assert_ne!(target, u32::MAX, "unbound label");
        match &mut c.code[at] {
            Instr::Jump(t) | Instr::JumpIfZero(t) | Instr::JumpIfNonZero(t) => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }
    CompiledFunc { name: f.name, nparams: f.params.len(), nslots: c.nslots, code: c.code }
}

impl FnCompiler<'_> {
    // ---- labels ----

    fn new_label(&mut self) -> usize {
        self.labels.push(u32::MAX);
        self.labels.len() - 1
    }

    fn bind(&mut self, l: usize) {
        self.labels[l] = self.code.len() as u32;
        self.barrier = self.code.len();
    }

    fn jump_to(&mut self, ins: Instr, l: usize) {
        self.patches.push((self.code.len(), l));
        self.code.push(ins);
    }

    // ---- charges ----

    fn charge(&mut self, ce: CostExpr) {
        if ce == CostExpr::default() {
            return;
        }
        if self.code.len() > self.barrier {
            if let Some(&Instr::Charge(i)) = self.code.last() {
                let merged = self.pools.costs[i as usize].plus(ce);
                let j = self.pools.cost(merged);
                *self.code.last_mut().expect("nonempty") = Instr::Charge(j);
                return;
            }
        }
        let i = self.pools.cost(ce);
        self.code.push(Instr::Charge(i));
    }

    // ---- slots ----

    fn declare(&mut self, name: Sym) -> u16 {
        let slot = u16::try_from(self.nslots).expect("frame fits u16 slots");
        self.nslots += 1;
        self.scopes.declare(name, slot);
        slot
    }

    fn slot(&self, name: Sym) -> u16 {
        match self.scopes.lookup(name) {
            Some(&slot) => slot,
            None => panic!(
                "skil bytecode: unbound variable `{}` in `{}`",
                self.prog.name(name),
                self.prog.name(self.fname)
            ),
        }
    }

    fn func_id(&self, name: Sym) -> usize {
        self.prog
            .func_id(name)
            .unwrap_or_else(|| panic!("skil bytecode: no instance `{}`", self.prog.name(name)))
    }

    fn push_unit(&mut self) {
        let i = self.pools.constant(ConstKey::Unit, Value::Unit);
        self.code.push(Instr::Const(i));
    }

    fn push_int(&mut self, v: i64) {
        let i = self.pools.constant(ConstKey::Int(v), Value::Int(v));
        self.code.push(Instr::Const(i));
    }

    // ---- statements ----

    fn stmts(&mut self, ss: &[FoStmt]) {
        self.scopes.push();
        for s in ss {
            self.stmt(s);
        }
        self.scopes.pop();
    }

    fn stmt(&mut self, s: &FoStmt) {
        match s {
            FoStmt::Decl { name, init, .. } => {
                match init {
                    Some(e) => self.expr(e),
                    None => self.push_unit(),
                }
                self.charge(CostExpr::store(1));
                let slot = self.declare(*name);
                self.code.push(Instr::Store(slot));
            }
            FoStmt::Assign { name, value } => {
                self.expr(value);
                self.charge(CostExpr::store(1));
                let slot = self.slot(*name);
                self.code.push(Instr::Store(slot));
            }
            FoStmt::If { cond, then, els } => {
                self.charge(CostExpr::int_op(1));
                self.expr(cond);
                let l_else = self.new_label();
                let l_end = self.new_label();
                self.jump_to(Instr::JumpIfZero(0), l_else);
                self.stmts(then);
                self.jump_to(Instr::Jump(0), l_end);
                self.bind(l_else);
                self.stmts(els);
                self.bind(l_end);
            }
            FoStmt::While { cond, body } => {
                let l_top = self.new_label();
                let l_end = self.new_label();
                self.bind(l_top);
                self.charge(CostExpr::int_op(1));
                self.expr(cond);
                self.jump_to(Instr::JumpIfZero(0), l_end);
                self.stmts(body);
                self.jump_to(Instr::Jump(0), l_top);
                self.bind(l_end);
            }
            FoStmt::For { init, cond, step, body } => {
                self.scopes.push();
                if let Some(i) = init {
                    self.stmt(i);
                }
                let l_top = self.new_label();
                let l_end = self.new_label();
                self.bind(l_top);
                if let Some(c) = cond {
                    self.charge(CostExpr::int_op(1));
                    self.expr(c);
                    self.jump_to(Instr::JumpIfZero(0), l_end);
                }
                self.stmts(body);
                if let Some(st) = step {
                    self.stmt(st);
                }
                self.jump_to(Instr::Jump(0), l_top);
                self.bind(l_end);
                self.scopes.pop();
            }
            FoStmt::Return(e) => match e {
                Some(e) => {
                    self.expr(e);
                    self.code.push(Instr::Ret);
                }
                None => self.code.push(Instr::RetUnit),
            },
            FoStmt::Expr(e) => {
                self.expr(e);
                self.code.push(Instr::Pop);
            }
        }
    }

    // ---- expressions ----

    fn expr(&mut self, e: &FoExpr) {
        match e {
            FoExpr::Int(slot) => self.push_int(self.prog.lits.int(*slot)),
            FoExpr::Float(slot) => {
                let v = self.prog.lits.float(*slot);
                let i = self.pools.constant(ConstKey::Float(v.to_bits()), Value::Float(v));
                self.code.push(Instr::Const(i));
            }
            FoExpr::Var(n) => {
                self.charge(CostExpr::load(1));
                let slot = self.slot(*n);
                self.code.push(Instr::Load(slot));
            }
            FoExpr::Call(name, args) => {
                for a in args.iter() {
                    self.expr(a);
                }
                let fid = self.func_id(*name);
                assert_eq!(
                    self.prog.funcs[fid].params.len(),
                    args.len(),
                    "skil bytecode: arity mismatch calling `{}` from `{}`",
                    self.prog.name(*name),
                    self.prog.name(self.fname)
                );
                // the walker charges the call cost on entry; same total
                self.charge(CostExpr::call(1));
                self.code.push(Instr::Call(fid as u32));
            }
            FoExpr::Intrinsic(op, args) => {
                for a in args.iter() {
                    self.expr(a);
                }
                match op {
                    // procId / nProcs charge nothing in the walker
                    Intr::ProcId | Intr::NProcs => {}
                    Intr::ArrayGetElem | Intr::ArrayPartBounds => self.charge(CostExpr::load(2)),
                    Intr::ArrayPutElem => self.charge(CostExpr::load(2).plus(CostExpr::store(1))),
                    Intr::Print => self.charge(CostExpr::call(1)),
                    _ => self.charge(CostExpr::int_op(1)),
                }
                self.code.push(Instr::Intr(*op, args.len() as u8));
            }
            FoExpr::Skel(call) => {
                let SkelCall { op, fns, args, elem } = &**call;
                for a in args.iter() {
                    self.expr(a);
                }
                let mut sfns = Vec::with_capacity(fns.len());
                for fi in fns.iter() {
                    for l in fi.lifted.iter() {
                        self.expr(l);
                    }
                    let fid = self.func_id(fi.func);
                    sfns.push(SkelFn {
                        fid,
                        n_lifted: fi.lifted.len(),
                        shape: kernel_shape(&self.prog.funcs[fid]),
                    });
                }
                let site = self.pools.sites.len() as u32;
                let ret = match op {
                    SkelOp::Fold => ElemKind::of(self.prog, &self.prog.funcs[sfns[1].fid].ret),
                    _ => ElemKind::Boxed,
                };
                self.pools.sites.push(SkelSite {
                    op: *op,
                    nargs: args.len(),
                    fns: sfns,
                    elem: ElemKind::of(self.prog, elem),
                    ret,
                });
                self.code.push(Instr::Skel(site));
            }
            FoExpr::Binary { op, float, args } => {
                let [lhs, rhs] = &**args;
                self.charge(CostExpr::binop(*op, *float));
                if !*float && matches!(op, BinOp::And | BinOp::Or) {
                    // short-circuit, as the walker evaluates it
                    self.expr(lhs);
                    let l_short = self.new_label();
                    let l_end = self.new_label();
                    match op {
                        BinOp::And => self.jump_to(Instr::JumpIfZero(0), l_short),
                        _ => self.jump_to(Instr::JumpIfNonZero(0), l_short),
                    }
                    self.expr(rhs);
                    self.code.push(Instr::ToBool);
                    self.jump_to(Instr::Jump(0), l_end);
                    self.bind(l_short);
                    self.push_int(if matches!(op, BinOp::And) { 0 } else { 1 });
                    self.bind(l_end);
                } else {
                    self.expr(lhs);
                    self.expr(rhs);
                    self.code.push(Instr::Bin(*op, *float));
                }
            }
            FoExpr::Unary { neg, float, expr } => {
                self.charge(if *float {
                    CostExpr::of(|c| &mut c.flt_add, 1)
                } else {
                    CostExpr::int_op(1)
                });
                self.expr(expr);
                self.code.push(if *neg { Instr::Neg(*float) } else { Instr::Not });
            }
            FoExpr::Field { expr, index, .. } => {
                self.charge(CostExpr::load(1));
                self.expr(expr);
                self.code.push(Instr::Field(*index as u16));
            }
            FoExpr::IndexAt(args) => {
                self.charge(CostExpr::load(1));
                self.expr(&args[0]);
                self.expr(&args[1]);
                self.code.push(Instr::IndexAt);
            }
            FoExpr::MakeIndex(es) => {
                self.charge(CostExpr::store(2));
                for e in es.iter() {
                    self.expr(e);
                }
                self.code.push(Instr::MakeIndex(es.len() as u8));
            }
            FoExpr::MakeStruct(name, es) => {
                self.charge(CostExpr::store(es.len() as u32));
                let sid = self.prog.struct_id(*name).unwrap_or_else(|| {
                    panic!("skil bytecode: no struct instance `{}`", self.prog.name(*name))
                });
                for e in es.iter() {
                    self.expr(e);
                }
                self.code.push(Instr::MakeStruct(sid as u32, es.len() as u16));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Disassembly.
// ---------------------------------------------------------------------

fn src_str(p: &Program, s: &Src) -> String {
    match s {
        Src::Top => "top".into(),
        Src::Slot(i) => format!("#{i}"),
        Src::Const(i) => format!("={:?}", p.consts[*i as usize]),
    }
}

/// Human-readable listing of a compiled program (`skilc --emit-bytecode`);
/// `names` is the string table of the [`FoProgram`] it was compiled from.
pub fn disassemble(p: &Program, names: &Names) -> String {
    let mut out = String::new();
    for (i, ce) in p.costs.iter().enumerate() {
        let _ = writeln!(out, "cost {i}: {ce}");
    }
    for (i, v) in p.consts.iter().enumerate() {
        let _ = writeln!(out, "const {i}: {v:?}");
    }
    for (i, s) in p.sites.iter().enumerate() {
        let fns: Vec<String> = s
            .fns
            .iter()
            .map(|f| {
                let shape = f.shape.listing().unwrap_or_else(|| "general".into());
                format!("{}+{} [{shape}]", names.get(p.funcs[f.fid].name), f.n_lifted)
            })
            .collect();
        let _ = writeln!(
            out,
            "site {i}: {} elem={} args={} fns=({})",
            s.op.name(),
            s.elem.stack_name(),
            s.nargs,
            fns.join(", ")
        );
    }
    for f in &p.funcs {
        let _ =
            writeln!(out, "\nfn {} (params={}, slots={}):", names.get(f.name), f.nparams, f.nslots);
        for (pc, ins) in f.code.iter().enumerate() {
            let detail = match ins {
                // resolved cost-expr summary next to the pool index, so
                // a listing is auditable without cross-referencing the
                // `cost N:` header lines
                Instr::Charge(i) => format!("charge [{i}] {}", p.costs[*i as usize]),
                Instr::Const(i) => format!("const {:?}", p.consts[*i as usize]),
                Instr::Load(s) => format!("load #{s}"),
                Instr::Store(s) => format!("store #{s}"),
                Instr::Pop => "pop".into(),
                Instr::Jump(t) => format!("jump {t}"),
                Instr::JumpIfZero(t) => format!("jz {t}"),
                Instr::JumpIfNonZero(t) => format!("jnz {t}"),
                Instr::ToBool => "tobool".into(),
                Instr::Bin(op, float) => {
                    format!("bin {}{}", op.lexeme(), if *float { "f" } else { "" })
                }
                Instr::Neg(float) => format!("neg{}", if *float { "f" } else { "" }),
                Instr::Not => "not".into(),
                Instr::Field(i) => format!("field {i}"),
                Instr::IndexAt => "index_at".into(),
                Instr::MakeIndex(n) => format!("mkindex {n}"),
                Instr::MakeStruct(sid, n) => format!("mkstruct {sid} {n}"),
                Instr::Intr(op, argc) => format!("intr {} {argc}", op.name()),
                Instr::Call(fid) => format!("call {}", names.get(p.funcs[*fid as usize].name)),
                Instr::Skel(s) => {
                    let site = &p.sites[*s as usize];
                    format!("skel {} (site {s}, elem {})", site.op.name(), site.elem.stack_name())
                }
                Instr::Ret => "ret".into(),
                Instr::RetUnit => "ret_unit".into(),
                Instr::BinS(op, float, l, r) => format!(
                    "bin.s {}{} {} {}",
                    op.lexeme(),
                    if *float { "f" } else { "" },
                    src_str(p, l),
                    src_str(p, r)
                ),
                Instr::BinStore(op, float, l, r, d) => format!(
                    "binstore {}{} {} {} -> #{d}",
                    op.lexeme(),
                    if *float { "f" } else { "" },
                    src_str(p, l),
                    src_str(p, r)
                ),
                Instr::JumpCmpZ(op, float, l, r, t) => format!(
                    "jz.cmp ({} {}{} {}) {t}",
                    src_str(p, l),
                    op.lexeme(),
                    if *float { "f" } else { "" },
                    src_str(p, r)
                ),
                Instr::JumpCmpNz(op, float, l, r, t) => format!(
                    "jnz.cmp ({} {}{} {}) {t}",
                    src_str(p, l),
                    op.lexeme(),
                    if *float { "f" } else { "" },
                    src_str(p, r)
                ),
                Instr::JumpZS(s, t) => format!("jz.s {} {t}", src_str(p, s)),
                Instr::JumpNzS(s, t) => format!("jnz.s {} {t}", src_str(p, s)),
                Instr::StoreS(d, s) => format!("store.s {} -> #{d}", src_str(p, s)),
                Instr::RetS(s) => format!("ret.s {}", src_str(p, s)),
                Instr::FieldS(s, i) => format!("field.s {} {i}", src_str(p, s)),
                Instr::IndexAtS(ix, c) => {
                    format!("index_at.s {} {}", src_str(p, ix), src_str(p, c))
                }
                Instr::IntrS(op, argc, srcs) => {
                    let args: Vec<String> =
                        srcs[..*argc as usize].iter().map(|s| src_str(p, s)).collect();
                    format!("intr.s {} ({})", op.name(), args.join(", "))
                }
                Instr::ArrGetI1(a, i) => {
                    format!("arrget1 {} [{}]", src_str(p, a), src_str(p, i))
                }
                Instr::ArrGetI2(a, i, j) => {
                    format!("arrget2 {} [{}, {}]", src_str(p, a), src_str(p, i), src_str(p, j))
                }
            };
            let _ = writeln!(out, "  {pc:>4}: {detail}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::{Lits, Slot};

    #[test]
    fn cost_expr_resolves_linearly() {
        let c = CostModel::t800();
        let ce = CostExpr { load: 2, store: 1, int_op: 3, ..CostExpr::default() };
        assert_eq!(ce.resolve(&c), 2 * c.load + c.store + 3 * c.int_op);
        assert_eq!(ce.to_string(), "2*load+store+3*int_op");
        assert_eq!(CostExpr::default().to_string(), "0");
    }

    #[test]
    fn pure_set_matches_eval_pure() {
        // every pure intrinsic evaluates; every stateful one declines
        assert!(Intr::Min.eval_pure(&[Value::Int(3), Value::Int(5)]).is_some());
        assert!(Intr::Nil.eval_pure(&[]).is_some());
        assert!(Intr::ProcId.eval_pure(&[]).is_none());
        assert!(Intr::Print.eval_pure(&[Value::Int(1)]).is_none());
        assert!(!Intr::ArrayPutElem.is_pure());
        assert!(Intr::Len.is_pure());
    }

    /// `f(x)` with the given body, as a one-function program.
    fn program(ret: FoTy, body: Vec<FoStmt>) -> FoProgram {
        FoProgram {
            funcs: vec![FoFunc {
                name: Sym::MAIN,
                origin: Sym::MAIN,
                params: Box::new([(Sym::X0, FoTy::Int)]),
                ret,
                body: body.into(),
            }],
            names: crate::sym::Interner::new().to_names(),
            // `Int(Slot(v))` reads `v`
            lits: Lits::ints(&[0, 1, 2, 3]),
            ..FoProgram::default()
        }
    }

    #[test]
    fn disassembly_resolves_charge_summaries() {
        // int main(int x0) { return x0 + 1; } — the binop charge (int_op)
        // merges with the load of `x0`, and the listing must show the
        // resolved cost expression next to the charge, not just the
        // pool index.
        let x_plus_1 =
            FoExpr::binary(BinOp::Add, false, FoExpr::Var(Sym::X0), FoExpr::Int(Slot(1)));
        let prog = program(FoTy::Int, vec![FoStmt::Return(Some(x_plus_1))]);
        let listing = disassemble(&compile_program(&prog), &prog.names);
        // pool entry 0 is the binop charge alone (interned before the
        // load merged into it); entry 1 is the merged expression the
        // emitted instruction references
        assert!(listing.contains("cost 1: load+int_op"), "pool header missing:\n{listing}");
        assert!(
            listing.contains("charge [1] load+int_op"),
            "charge must carry its resolved summary:\n{listing}"
        );
        assert!(listing.contains("bin +"), "listing:\n{listing}");
        assert!(listing.contains("fn main (params=1, slots=1):"), "listing:\n{listing}");
    }

    #[test]
    fn charge_merging_stops_at_labels() {
        // while (x0) { x0 = x0 - 1; } — the loop-top label must keep the
        // per-iteration charge separate from the preceding charges
        let x_minus_1 =
            FoExpr::binary(BinOp::Sub, false, FoExpr::Var(Sym::X0), FoExpr::Int(Slot(1)));
        let prog = program(
            FoTy::Void,
            vec![FoStmt::While {
                cond: FoExpr::Var(Sym::X0),
                body: Box::new([FoStmt::Assign { name: Sym::X0, value: x_minus_1 }]),
            }],
        );
        let code = compile_program(&prog);
        let cf = &code.funcs[0];
        // first instruction is the loop-top charge (int_op for the
        // condition merged with the load of `x0`)
        assert!(matches!(cf.code[0], Instr::Charge(_)));
        // a jump back to instruction 0 exists (the loop)
        assert!(cf.code.iter().any(|i| matches!(i, Instr::Jump(0))));
        // and the function ends by returning unit
        assert_eq!(*cf.code.last().unwrap(), Instr::RetUnit);
    }

    #[test]
    fn inner_scopes_shadow_and_end() {
        // { int x1 = 1; { int x1 = 2; } x1 = 3; } — the assignment after
        // the inner block must hit the outer slot
        let decl =
            |v| FoStmt::Decl { name: Sym::X1, ty: FoTy::Int, init: Some(FoExpr::Int(Slot(v))) };
        let inner =
            FoStmt::If { cond: FoExpr::Int(Slot(1)), then: Box::new([decl(2)]), els: Box::new([]) };
        let assign = FoStmt::Assign { name: Sym::X1, value: FoExpr::Int(Slot(3)) };
        let code = compile_program(&program(FoTy::Void, vec![decl(1), inner, assign]));
        let stores: Vec<u16> = code.funcs[0]
            .code
            .iter()
            .filter_map(|i| if let Instr::Store(s) = i { Some(*s) } else { None })
            .collect();
        assert_eq!(stores, [1, 2, 1]);
        assert_eq!(code.funcs[0].nslots, 3);
    }
}
