//! The bytecode VM for instantiated Skil programs.
//!
//! Executes the [`crate::bytecode`] form of a program with the same SPMD
//! semantics as the AST walker in [`crate::interp`] — and, by
//! construction, the same *virtual time*: the compiler placed
//! [`Instr::Charge`] instructions exactly where the walker charges (and
//! the optimizer only merges them across charge-transparent code), so
//! every communication event happens at a bit-identical cycle count.
//! What the VM buys is host speed: variables are frame slots, callees
//! are dense indices, and charges are pre-resolved `u64`s looked up by
//! index.
//!
//! Frames and the operand stack hold [`Sl`] slots: `i64`/`f64` live
//! unboxed behind a one-byte tag, and only aggregates (arrays, structs,
//! lists, indexes) fall back to a boxed [`Value`]. Scalar-heavy kernels
//! — the common case after instantiation — never touch a heap clone.
//! The same dispatch loop serves both execution modes through the
//! (monomorphized) [`Host`] trait: the full mode charges cycles and may
//! mutate arrays, print, and dispatch skeletons; kernel mode skips
//! `Charge` instructions (the skeleton charges the statically estimated
//! kernel cost per element), reads arrays read-only, and aborts on
//! skeleton calls or `print` with the same diagnostics as the walker.
//! Trivial kernels — an operator section or one pure intrinsic over
//! parameters — were classified by the compiler ([`KernelShape`]) and
//! execute as direct computations without touching a frame at all.
//!
//! Arrays live in a typed [`ArrayStore`]: `array<int>` / `array<float>`
//! partitions are unboxed, and each skeleton arm dispatches once per
//! call on the store variant into one generic body, so `skil-core`'s
//! skeletons run instantiated at the unboxed element type and elements
//! cross into kernels as [`KArg`]s without ever becoming a `Value`.
//!
//! What a `General` argument function runs as is decided once per
//! compiled program by its [`KernelView`]: typed register code where
//! the function lowered ([`crate::kernel`]), else this module's
//! dispatch loop in kernel mode over the same bytecode.

use std::cell::RefCell;

use skil_array::{ArraySpec, DistArray, Distribution, Index};
use skil_core::{
    array_broadcast_part, array_copy, array_create, array_fold, array_fold_bulk, array_gen_mult,
    array_map, array_map_inplace, array_permute_rows, array_scan, Kernel,
};
use skil_runtime::{CostModel, Distr, Machine, Proc, Run};

use crate::builtins::{DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D};
use crate::bytecode::{Instr, Intr, KernelShape, Program, SkelSite, Src};
use crate::fo::{BinOp, FoProgram, SkelOp};
use crate::interp::{kernel_cycles, to_uindex, LANG_RESULT_TAG};
use crate::kernel::{KArg, KEnv, KernelView};
use crate::native::NativeBackend;
use crate::scalar::{float_arith, float_cmp, int_bin, neg_int, scalar_intr, Scalar};
use crate::store::{with_kind, with_store, ArrayStore, Elem, FloatElem, IntElem};
use crate::value::{ConsList, Value};
use crate::Compiled;

/// What a run resolves against its machine's cost model before any
/// processor starts, shared by reference across all of them: the
/// instruction stream itself never changes.
pub(crate) struct RunTables {
    /// `code.costs` resolved to cycles.
    pub(crate) costs: Vec<u64>,
    /// Per site, per argument function: the kernel charge per element.
    pub(crate) site_cycles: Vec<Vec<u64>>,
    /// `code.consts`, pre-converted to slots.
    pub(crate) consts: Vec<Sl>,
}

impl RunTables {
    pub(crate) fn resolve(prog: &FoProgram, code: &Program, cost: &CostModel) -> RunTables {
        RunTables {
            costs: code.costs.iter().map(|ce| ce.resolve(cost)).collect(),
            site_cycles: code
                .sites
                .iter()
                .map(|s| s.fns.iter().map(|f| kernel_cycles(&prog.funcs[f.fid], cost)).collect())
                .collect(),
            consts: code.consts.iter().map(Sl::from_value_ref).collect(),
        }
    }
}

/// Run a compiled program under the VM, surfacing simulated failures
/// (fault-plan crashes, retry-budget give-ups, Skil runtime errors,
/// `PeerDown` cascades) as a structured `Err` instead of a panic or a
/// hang. Virtual time is bit-identical to
/// [`crate::interp::run_program`]. `faults` overrides the machine's
/// fault plan for this run only (`None` keeps the configured plan): the
/// serving layer attaches per-request fault plans to pooled warm
/// machines this way.
pub(crate) fn try_run_program_vm_faults(
    compiled: &Compiled,
    machine: &Machine,
    faults: Option<&skil_runtime::FaultPlan>,
) -> Result<Run<Vec<String>>, skil_runtime::SimFailure> {
    let code = &compiled.code;
    let main = code.main.expect("instantiated program has main");
    assert_eq!(code.funcs[main].nparams, 0, "main takes no arguments");
    let tables = RunTables::resolve(&compiled.fo, code, &machine.config().cost);
    machine.try_run_faults(faults, |p| {
        let mut vm = Vm::new(code, &compiled.kernel, &tables, p, None);
        let mut stack = Vec::new();
        let mut frames = Vec::new();
        exec(&mut vm, code, main, &mut stack, &mut frames);
        // main's return value (if any) is discarded, as in the walker
        stack.pop();
        vm.output
    })
}

/// An operand-stack / frame slot: scalars unboxed, aggregates boxed.
/// Invariant: the `V` arm never holds `Value::Int` or `Value::Float` —
/// every constructor normalizes through [`Sl::from_value`].
#[derive(Debug, Clone)]
pub(crate) enum Sl {
    I(i64),
    F(f64),
    V(Value),
}

impl Sl {
    pub(crate) fn from_value(v: Value) -> Sl {
        match v {
            Value::Int(i) => Sl::I(i),
            Value::Float(f) => Sl::F(f),
            v => Sl::V(v),
        }
    }

    pub(crate) fn from_value_ref(v: &Value) -> Sl {
        match v {
            Value::Int(i) => Sl::I(*i),
            Value::Float(f) => Sl::F(*f),
            v => Sl::V(v.clone()),
        }
    }

    pub(crate) fn into_value(self) -> Value {
        match self {
            Sl::I(i) => Value::Int(i),
            Sl::F(f) => Value::Float(f),
            Sl::V(v) => v,
        }
    }

    pub(crate) fn as_int(&self) -> i64 {
        match self {
            Sl::I(v) => *v,
            Sl::F(v) => panic!("expected int, got Float({v:?})"),
            Sl::V(v) => v.as_int(),
        }
    }

    pub(crate) fn as_float(&self) -> f64 {
        match self {
            Sl::F(v) => *v,
            Sl::I(v) => panic!("expected float, got Int({v})"),
            Sl::V(v) => v.as_float(),
        }
    }

    fn as_index(&self) -> [i64; 2] {
        match self {
            Sl::I(v) => panic!("expected Index, got Int({v})"),
            Sl::F(v) => panic!("expected Index, got Float({v:?})"),
            Sl::V(v) => v.as_index(),
        }
    }

    fn as_array(&self) -> usize {
        match self {
            Sl::I(v) => panic!("expected array, got Int({v})"),
            Sl::F(v) => panic!("expected array, got Float({v:?})"),
            Sl::V(v) => v.as_array(),
        }
    }
}

/// The walker's `apply_binop` over unboxed slots.
fn bin_sl(op: BinOp, float: bool, a: &Sl, b: &Sl) -> Sl {
    if float {
        let (x, y) = (a.as_float(), b.as_float());
        if op.is_arithmetic() {
            Sl::F(float_arith(op, x, y))
        } else {
            Sl::I(float_cmp(op, x, y) as i64)
        }
    } else {
        Sl::I(int_bin(op, a.as_int(), b.as_int()))
    }
}

/// One function per operator, each [`int_bin`] / [`float_arith`] with the
/// operator folded in: what a skeleton over unboxed elements calls per
/// element after resolving its operator section once.
macro_rules! resolved_op {
    ($op:expr, [$($v:ident),*], $body:expr $(, _ => $rest:expr)?) => {
        match $op {
            $(BinOp::$v => {
                const OP: BinOp = BinOp::$v;
                $body
            })*
            $(_ => $rest)?
        }
    };
}

/// `op` over `array<int>` elements as a direct function.
pub(crate) fn int_fn(op: BinOp) -> fn(IntElem, IntElem) -> IntElem {
    resolved_op!(op, [Add, Sub, Mul, Div, Rem, Eq, Ne, Lt, Le, Gt, Ge, And, Or], |x, y| IntElem(
        int_bin(OP, x.0, y.0)
    ))
}

/// `op` over `array<float>` elements as a direct function — arithmetic
/// only: comparisons yield `int`, so they are not `(T, T) -> T`.
pub(crate) fn float_fn(op: BinOp) -> Option<fn(FloatElem, FloatElem) -> FloatElem> {
    resolved_op!(
        op,
        [Add, Sub, Mul, Div, Rem],
        Some(|x, y| FloatElem(float_arith(OP, x.0, y.0))),
        _ => None
    )
}

/// Fetch a fused-instruction operand. `Top` operands pop; when a fused
/// instruction has several, the instruction fetches them right-to-left,
/// the reverse of the order the unfused sequence pushed them.
#[inline(always)]
fn fetch(src: Src, stack: &mut Vec<Sl>, frame: &[Sl], consts: &[Sl]) -> Sl {
    match src {
        Src::Top => stack.pop().expect("fused operand"),
        Src::Slot(s) => frame[s as usize].clone(),
        Src::Const(c) => consts[c as usize].clone(),
    }
}

/// A scalar intrinsic over slots, unboxed end to end.
#[inline(always)]
fn scalar_sl(op: Intr, arg: impl Fn(usize) -> Sl) -> Option<Sl> {
    scalar_intr(op, |k| arg(k).as_int(), |k| arg(k).as_float()).map(|v| match v {
        Scalar::I(i) => Sl::I(i),
        Scalar::F(f) => Sl::F(f),
    })
}

/// Intrinsic `op` over the first `n` slots of `args`: the scalar ones
/// directly, the rest (lists, `error`, the stateful ones) boxed.
fn intr_sl<H: Host>(h: &mut H, op: Intr, args: [Sl; 3], n: usize) -> Sl {
    if let Some(v) = scalar_sl(op, |k| args[k].clone()) {
        return v;
    }
    let vals = args.map(Sl::into_value);
    Sl::from_value(match op.eval_pure(&vals[..n]) {
        Some(v) => v,
        None => h.stateful(op, &vals[..n]),
    })
}

fn field_sl(v: Sl, index: usize) -> Sl {
    match v {
        Sl::V(Value::Struct(_, fields)) => Sl::from_value(fields[index].clone()),
        Sl::V(Value::Bounds(lo, up)) => Sl::V(Value::Index(if index == 0 { lo } else { up })),
        other => panic!("skil runtime: field access on {:?}", other.into_value()),
    }
}

/// What the dispatch loop defers to its execution mode. Monomorphized
/// per host, so kernel-mode `charge_ix` compiles to nothing.
pub(crate) trait Host {
    fn charge_ix(&mut self, i: u32);
    /// The constant pool, pre-converted to slots.
    fn kconsts(&self) -> &[Sl];
    /// `array_get_elem` read, shared by the fused and generic paths.
    fn get_elem(&mut self, h: usize, ix: Index) -> Sl;
    /// Non-pure intrinsics (`eval_pure` already declined).
    fn stateful(&mut self, op: Intr, vals: &[Value]) -> Value;
    fn skel(&mut self, site: usize, stack: &mut Vec<Sl>, frames: &mut Vec<Vec<Sl>>);
}

/// Execute function `fid`: pops its arguments off the operand stack,
/// pushes its return value.
fn exec<H: Host>(
    h: &mut H,
    code: &Program,
    fid: usize,
    stack: &mut Vec<Sl>,
    frames: &mut Vec<Vec<Sl>>,
) {
    let f = &code.funcs[fid];
    let mut frame = frames.pop().unwrap_or_default();
    frame.clear();
    // the fill value is never observed: every slot read is dominated by
    // a parameter drain or a declaration's store
    frame.resize(f.nslots, Sl::I(0));
    let base = stack.len() - f.nparams;
    for (slot, v) in stack.drain(base..).enumerate() {
        frame[slot] = v;
    }
    let mut pc = 0usize;
    loop {
        let ins = f.code[pc];
        pc += 1;
        match ins {
            Instr::Charge(i) => h.charge_ix(i),
            Instr::Const(i) => {
                let v = h.kconsts()[i as usize].clone();
                stack.push(v);
            }
            Instr::Load(s) => stack.push(frame[s as usize].clone()),
            Instr::Store(s) => frame[s as usize] = stack.pop().expect("store operand"),
            Instr::Pop => {
                stack.pop();
            }
            Instr::Jump(t) => pc = t as usize,
            Instr::JumpIfZero(t) => {
                if stack.pop().expect("cond").as_int() == 0 {
                    pc = t as usize;
                }
            }
            Instr::JumpIfNonZero(t) => {
                if stack.pop().expect("cond").as_int() != 0 {
                    pc = t as usize;
                }
            }
            Instr::ToBool => {
                let v = stack.pop().expect("operand");
                stack.push(Sl::I((v.as_int() != 0) as i64));
            }
            Instr::Bin(op, float) => {
                let b = stack.pop().expect("rhs");
                let a = stack.pop().expect("lhs");
                stack.push(bin_sl(op, float, &a, &b));
            }
            Instr::Neg(float) => {
                let v = stack.pop().expect("operand");
                stack.push(if float { Sl::F(-v.as_float()) } else { Sl::I(neg_int(v.as_int())) });
            }
            Instr::Not => {
                let v = stack.pop().expect("operand");
                stack.push(Sl::I((v.as_int() == 0) as i64));
            }
            Instr::Field(i) => {
                let v = stack.pop().expect("struct");
                stack.push(field_sl(v, i as usize));
            }
            Instr::IndexAt => {
                let i = stack.pop().expect("component").as_int();
                let ix = stack.pop().expect("index").as_index();
                assert!((0..2).contains(&i), "skil runtime: Index component {i} out of range");
                stack.push(Sl::I(ix[i as usize]));
            }
            Instr::MakeIndex(n) => {
                let mut ix = [0i64; 2];
                for slot in (0..n as usize).rev() {
                    ix[slot] = stack.pop().expect("index component").as_int();
                }
                stack.push(Sl::V(Value::Index(ix)));
            }
            Instr::MakeStruct(sid, n) => {
                let at = stack.len() - n as usize;
                let fields: Vec<Value> = stack.drain(at..).map(Sl::into_value).collect();
                stack.push(Sl::V(Value::Struct(sid, fields)));
            }
            Instr::Intr(op, argc) => {
                let n = argc as usize;
                assert!(n <= 3, "intrinsic arity {n} exceeds the operand buffer");
                let mut buf = [Sl::I(0), Sl::I(0), Sl::I(0)];
                for k in (0..n).rev() {
                    buf[k] = stack.pop().expect("intrinsic arg");
                }
                stack.push(intr_sl(h, op, buf, n));
            }
            Instr::Call(callee) => exec(h, code, callee as usize, stack, frames),
            Instr::Skel(site) => h.skel(site as usize, stack, frames),
            Instr::Ret => break,
            Instr::RetUnit => {
                stack.push(Sl::V(Value::Unit));
                break;
            }
            // ---- fused superinstructions (optimizer output only) ----
            Instr::BinS(op, float, l, r) => {
                let rv = fetch(r, stack, &frame, h.kconsts());
                let lv = fetch(l, stack, &frame, h.kconsts());
                stack.push(bin_sl(op, float, &lv, &rv));
            }
            Instr::BinStore(op, float, l, r, d) => {
                let rv = fetch(r, stack, &frame, h.kconsts());
                let lv = fetch(l, stack, &frame, h.kconsts());
                frame[d as usize] = bin_sl(op, float, &lv, &rv);
            }
            Instr::JumpCmpZ(op, float, l, r, t) => {
                let rv = fetch(r, stack, &frame, h.kconsts());
                let lv = fetch(l, stack, &frame, h.kconsts());
                if bin_sl(op, float, &lv, &rv).as_int() == 0 {
                    pc = t as usize;
                }
            }
            Instr::JumpCmpNz(op, float, l, r, t) => {
                let rv = fetch(r, stack, &frame, h.kconsts());
                let lv = fetch(l, stack, &frame, h.kconsts());
                if bin_sl(op, float, &lv, &rv).as_int() != 0 {
                    pc = t as usize;
                }
            }
            Instr::JumpZS(s, t) => {
                if fetch(s, stack, &frame, h.kconsts()).as_int() == 0 {
                    pc = t as usize;
                }
            }
            Instr::JumpNzS(s, t) => {
                if fetch(s, stack, &frame, h.kconsts()).as_int() != 0 {
                    pc = t as usize;
                }
            }
            Instr::StoreS(d, s) => {
                let v = fetch(s, stack, &frame, h.kconsts());
                frame[d as usize] = v;
            }
            Instr::RetS(s) => {
                let v = fetch(s, stack, &frame, h.kconsts());
                stack.push(v);
                break;
            }
            Instr::FieldS(s, i) => {
                let v = fetch(s, stack, &frame, h.kconsts());
                stack.push(field_sl(v, i as usize));
            }
            Instr::IndexAtS(x, c) => {
                let cv = fetch(c, stack, &frame, h.kconsts());
                let xv = fetch(x, stack, &frame, h.kconsts());
                let i = cv.as_int();
                let ix = xv.as_index();
                assert!((0..2).contains(&i), "skil runtime: Index component {i} out of range");
                stack.push(Sl::I(ix[i as usize]));
            }
            Instr::IntrS(op, argc, srcs) => {
                let n = argc as usize;
                let mut buf = [Sl::I(0), Sl::I(0), Sl::I(0)];
                for k in (0..n).rev() {
                    buf[k] = fetch(srcs[k], stack, &frame, h.kconsts());
                }
                stack.push(intr_sl(h, op, buf, n));
            }
            Instr::ArrGetI1(a, i) => {
                let iv = fetch(i, stack, &frame, h.kconsts());
                let av = fetch(a, stack, &frame, h.kconsts());
                let ix = to_uindex([iv.as_int(), 0]);
                let v = h.get_elem(av.as_array(), ix);
                stack.push(v);
            }
            Instr::ArrGetI2(a, i, j) => {
                let jv = fetch(j, stack, &frame, h.kconsts());
                let iv = fetch(i, stack, &frame, h.kconsts());
                let av = fetch(a, stack, &frame, h.kconsts());
                let ix = to_uindex([iv.as_int(), jv.as_int()]);
                let v = h.get_elem(av.as_array(), ix);
                stack.push(v);
            }
        }
    }
    frame.clear();
    frames.push(frame);
}

/// Full execution mode: one per processor, owns the arrays and output.
pub(crate) struct Vm<'a, 'p, 'm> {
    pub(crate) code: &'a Program,
    /// What skeleton argument functions run as.
    kernel: &'a KernelView,
    /// The run's resolved pools.
    pub(crate) tables: &'a RunTables,
    pub(crate) proc: &'p mut Proc<'m>,
    pub(crate) arrays: Vec<Option<ArrayStore>>,
    pub(crate) output: Vec<String>,
    /// `Some` when the native engine drives this VM: `General` kernels
    /// are dispatched to compiled code instead of the interpreter.
    native: Option<&'a NativeBackend>,
}

impl<'a, 'p, 'm> Vm<'a, 'p, 'm> {
    pub(crate) fn new(
        code: &'a Program,
        kernel: &'a KernelView,
        tables: &'a RunTables,
        proc: &'p mut Proc<'m>,
        native: Option<&'a NativeBackend>,
    ) -> Self {
        Vm { code, kernel, tables, proc, arrays: Vec::new(), output: Vec::new(), native }
    }
}

/// Unwrap a skeleton or array result; failures are Skil runtime errors.
pub(crate) fn rt<T>(r: skil_array::Result<T>) -> T {
    r.unwrap_or_else(|e| panic!("skil runtime: {e}"))
}

fn bounds_value(arr: &ArrayStore) -> Value {
    let b = rt(arr.part_bounds());
    Value::Bounds([b.lower[0] as i64, b.lower[1] as i64], [b.upper[0] as i64, b.upper[1] as i64])
}

impl Host for Vm<'_, '_, '_> {
    fn charge_ix(&mut self, i: u32) {
        self.proc.charge(self.tables.costs[i as usize]);
    }

    fn kconsts(&self) -> &[Sl] {
        &self.tables.consts
    }

    fn get_elem(&mut self, h: usize, ix: Index) -> Sl {
        rt(self.arrays[h].as_ref().expect("array alive").get(ix))
    }

    /// Stateful intrinsics; the matching charge was already emitted as a
    /// `Charge` instruction by the compiler.
    fn stateful(&mut self, op: Intr, vals: &[Value]) -> Value {
        match op {
            Intr::ProcId => Value::Int(self.proc.id() as i64),
            Intr::NProcs => Value::Int(self.proc.nprocs() as i64),
            Intr::ArrayGetElem => {
                self.get_elem(vals[0].as_array(), to_uindex(vals[1].as_index())).into_value()
            }
            Intr::ArrayPutElem => {
                let arr = self.arrays[vals[0].as_array()].as_mut().expect("array alive");
                rt(arr.put(to_uindex(vals[1].as_index()), Sl::from_value_ref(&vals[2])));
                Value::Unit
            }
            Intr::ArrayPartBounds => {
                bounds_value(self.arrays[vals[0].as_array()].as_ref().expect("array alive"))
            }
            Intr::Print => {
                self.output.push(vals[0].render());
                Value::Unit
            }
            other => unreachable!("pure intrinsic {} fell through", other.name()),
        }
    }

    /// Dispatch a skeleton call site to `skil-core`, running argument
    /// functions under the kernel VM. Every array arm picks the store
    /// variant once and hands the typed partitions to one generic body
    /// ([`KernelVm`]'s skeleton methods).
    fn skel(&mut self, site_ix: usize, stack: &mut Vec<Sl>, _frames: &mut Vec<Vec<Sl>>) {
        if let Some(nb) = self.native {
            nb.begin_skel();
        }
        let site: &SkelSite = &self.code.sites[site_ix];
        // stack layout: [value args..., fn0 lifted..., fn1 lifted...]
        let mut lifted: Vec<Vec<Value>> = Vec::with_capacity(site.fns.len());
        for f in site.fns.iter().rev() {
            let at = stack.len() - f.n_lifted;
            lifted.push(stack.drain(at..).map(Sl::into_value).collect());
        }
        lifted.reverse();
        let at = stack.len() - site.nargs;
        let vals: Vec<Value> = stack.drain(at..).map(Sl::into_value).collect();
        let me = self.proc.id();
        // the kernel executor over the current array table; rebuilt per
        // arm because arms take the array they write out of the table
        macro_rules! kvm {
            () => {
                KernelVm {
                    code: self.code,
                    kernel: self.kernel,
                    consts: &self.tables.consts,
                    arrays: &self.arrays,
                    me,
                    nprocs: self.proc.nprocs(),
                    native: self.native,
                    site,
                    lifted: &lifted,
                    cycles: &self.tables.site_cycles[site_ix],
                    scratch: RefCell::default(),
                    typed_regs: Default::default(),
                }
            };
        }

        let result = match site.op {
            SkelOp::Create => {
                let dim = vals[0].as_int();
                assert!((1..=2).contains(&dim), "skil runtime: array dim must be 1 or 2");
                let size = vals[1].as_index();
                let bs = vals[2].as_index();
                let lb = vals[3].as_index();
                let distr = match vals[4].as_int() {
                    DISTR_DEFAULT => Distr::Default,
                    DISTR_RING => Distr::Ring,
                    DISTR_TORUS2D => Distr::Torus2d,
                    other => panic!("skil runtime: bad distribution constant {other}"),
                };
                let spec = ArraySpec {
                    ndim: dim as usize,
                    size: [
                        size[0].max(0) as usize,
                        if dim == 1 { 1 } else { size[1].max(0) as usize },
                    ],
                    blocksize: [bs[0].max(0) as usize, bs[1].max(0) as usize],
                    lowerbd: [lb[0], lb[1]],
                    distr,
                    dist: Distribution::Block,
                };
                let arr = with_kind!(site.elem, T => T::wrap(kvm!().create::<T>(self.proc, spec)));
                self.arrays.push(Some(arr));
                Value::Array(self.arrays.len() - 1)
            }
            SkelOp::Destroy => {
                self.proc.charge(self.proc.cost().call);
                let h = vals[0].as_array();
                self.arrays[h] = None;
                Value::Unit
            }
            SkelOp::Map => {
                let from_h = vals[0].as_array();
                let to_h = vals[1].as_array();
                // in-situ replacement (`from_h == to_h`), as the paper
                // allows: kernels then see the array as being written
                let mut to = self.arrays[to_h].take().expect("array alive");
                if from_h == to_h {
                    with_store!(&mut to, arr => kvm!().map_inplace(self.proc, arr));
                } else {
                    let from = self.arrays[from_h].as_ref().expect("array alive");
                    with_store!(from, from => {
                        with_store!(&mut to, to => kvm!().map(self.proc, from, to))
                    });
                }
                self.arrays[to_h] = Some(to);
                Value::Unit
            }
            SkelOp::Fold => {
                let arr = self.arrays[vals[0].as_array()].as_ref().expect("array alive");
                with_store!(arr, arr => {
                    with_kind!(site.ret, U => kvm!().fold::<_, U>(self.proc, arr).into_sl())
                })
                .into_value()
            }
            SkelOp::Copy => {
                let from_h = vals[0].as_array();
                let to_h = vals[1].as_array();
                assert_ne!(from_h, to_h, "skil runtime: array_copy onto itself");
                let mut to = self.arrays[to_h].take().expect("array alive");
                let from = self.arrays[from_h].as_ref().expect("array alive");
                with_store!(&mut to, to => rt(array_copy(self.proc, Elem::of(from), to)));
                self.arrays[to_h] = Some(to);
                Value::Unit
            }
            SkelOp::BroadcastPart => {
                let ix = to_uindex(vals[1].as_index());
                let arr = self.arrays[vals[0].as_array()].as_mut().expect("array alive");
                with_store!(arr, arr => rt(array_broadcast_part(self.proc, arr, ix)));
                Value::Unit
            }
            SkelOp::PermuteRows => {
                let from_h = vals[0].as_array();
                let to_h = vals[1].as_array();
                let mut to = self.arrays[to_h].take().expect("array alive");
                let from = self.arrays[from_h].as_ref().expect("array alive");
                with_store!(&mut to, to => {
                    kvm!().permute_rows(self.proc, Elem::of(from), to)
                });
                self.arrays[to_h] = Some(to);
                Value::Unit
            }
            SkelOp::Scan => {
                let from_h = vals[0].as_array();
                let to_h = vals[1].as_array();
                assert_ne!(from_h, to_h, "skil runtime: array_scan onto itself");
                let mut to = self.arrays[to_h].take().expect("array alive");
                let from = self.arrays[from_h].as_ref().expect("array alive");
                with_store!(&mut to, to => kvm!().scan(self.proc, Elem::of(from), to));
                self.arrays[to_h] = Some(to);
                Value::Unit
            }
            SkelOp::GenMult => {
                let a_h = vals[0].as_array();
                let b_h = vals[1].as_array();
                let c_h = vals[2].as_array();
                assert!(
                    a_h != c_h && b_h != c_h && a_h != b_h,
                    "skil runtime: array_gen_mult requires distinct arrays"
                );
                let mut c = self.arrays[c_h].take().expect("array alive");
                let a = self.arrays[a_h].as_ref().expect("array alive");
                let b = self.arrays[b_h].as_ref().expect("array alive");
                with_store!(&mut c, c => {
                    kvm!().gen_mult(self.proc, Elem::of(a), Elem::of(b), c)
                });
                self.arrays[c_h] = Some(c);
                Value::Unit
            }
            SkelOp::Dc => {
                let problem = vals[0].clone();
                let result = {
                    let kvm = kvm!();
                    let mut ops = skil_core::DcOps {
                        is_trivial: Kernel::new(
                            |p: &Value| kvm.call::<IntElem, 1>(0, [KArg::V(p)]).0 != 0,
                            kvm.cycles[0],
                        ),
                        solve: Kernel::new(
                            |p: &Value| kvm.call::<Value, 1>(1, [KArg::V(p)]),
                            kvm.cycles[1],
                        ),
                        split: Kernel::new(
                            |p: &Value| match kvm.call::<Value, 1>(2, [KArg::V(p)]) {
                                Value::List(items) => items.to_vec(),
                                other => {
                                    panic!("skil runtime: split returned {other:?}, not a list")
                                }
                            },
                            kvm.cycles[2],
                        ),
                        join: Kernel::new(
                            |parts: Vec<Value>| {
                                let parts = Value::List(ConsList::from_vec(parts));
                                kvm.call::<Value, 1>(3, [KArg::V(&parts)])
                            },
                            kvm.cycles[3],
                        ),
                    };
                    rt(skil_core::divide_conquer(self.proc, (me == 0).then_some(problem), &mut ops))
                };
                // SPMD expression semantics: dc(...) has a value everywhere
                if me == 0 {
                    let v = result.expect("root holds the d&c result");
                    self.proc.broadcast(0, LANG_RESULT_TAG, Some(v))
                } else {
                    self.proc.broadcast(0, LANG_RESULT_TAG, None)
                }
            }
            SkelOp::Farm => {
                let Value::List(tasks) = vals[0].clone() else {
                    panic!("skil runtime: farm needs a task list");
                };
                let result = {
                    let kvm = kvm!();
                    let worker = Kernel::new(
                        |t: &Value| kvm.call::<Value, 1>(0, [KArg::V(t)]),
                        kvm.cycles[0],
                    );
                    rt(skil_core::farm(self.proc, 0, (me == 0).then_some(tasks.to_vec()), worker))
                };
                if me == 0 {
                    let v =
                        Value::List(ConsList::from_vec(result.expect("master holds the results")));
                    self.proc.broadcast(0, LANG_RESULT_TAG, Some(v))
                } else {
                    self.proc.broadcast(0, LANG_RESULT_TAG, None)
                }
            }
        };
        stack.push(Sl::from_value(result));
    }
}

#[derive(Default)]
struct Scratch {
    stack: Vec<Sl>,
    frames: Vec<Vec<Sl>>,
}

/// The array behind handle `h` as a skeleton argument function may
/// read it: the array the running skeleton writes is out of the table.
pub(crate) fn live_array(arrays: &[Option<ArrayStore>], h: usize) -> &ArrayStore {
    arrays[h].as_ref().unwrap_or_else(|| {
        panic!("skil runtime: use of an array being written by this skeleton or already destroyed")
    })
}

/// Read a local element on behalf of a skeleton argument function.
pub(crate) fn kernel_get_elem(arrays: &[Option<ArrayStore>], h: usize, ix: Index) -> Sl {
    rt(live_array(arrays, h).get(ix))
}

/// Kernel execution mode for the shared dispatch loop: read-only
/// arrays, no skeletons, no printing, and `Charge` instructions compile
/// to nothing — the per-element kernel charge is applied by the
/// skeleton itself.
struct KHost<'a> {
    consts: &'a [Sl],
    arrays: &'a [Option<ArrayStore>],
    me: usize,
    nprocs: usize,
}

impl Host for KHost<'_> {
    fn charge_ix(&mut self, _i: u32) {}

    fn kconsts(&self) -> &[Sl] {
        self.consts
    }

    fn get_elem(&mut self, h: usize, ix: Index) -> Sl {
        kernel_get_elem(self.arrays, h, ix)
    }

    fn stateful(&mut self, op: Intr, vals: &[Value]) -> Value {
        match op {
            Intr::ProcId => Value::Int(self.me as i64),
            Intr::NProcs => Value::Int(self.nprocs as i64),
            Intr::ArrayGetElem => {
                self.get_elem(vals[0].as_array(), to_uindex(vals[1].as_index())).into_value()
            }
            Intr::ArrayPartBounds => {
                bounds_value(self.arrays[vals[0].as_array()].as_ref().expect("array alive"))
            }
            Intr::ArrayPutElem => {
                panic!("skil runtime: array_put_elem inside a skeleton argument function")
            }
            Intr::Print => panic!("skil runtime: print inside a skeleton argument function"),
            other => unreachable!("pure intrinsic {} fell through", other.name()),
        }
    }

    fn skel(&mut self, _site: usize, _stack: &mut Vec<Sl>, _frames: &mut Vec<Vec<Sl>>) {
        panic!("skil runtime: skeleton call inside a skeleton argument function")
    }
}

/// One skeleton call's executor for its argument functions, plus the
/// generic skeleton bodies written against it. Scratch space (operand
/// stack + frame pool, and one register file per typed argument
/// function) is interior-mutable so kernels can be invoked through `Fn`
/// closures.
struct KernelVm<'a> {
    code: &'a Program,
    kernel: &'a KernelView,
    consts: &'a [Sl],
    arrays: &'a [Option<ArrayStore>],
    me: usize,
    nprocs: usize,
    native: Option<&'a NativeBackend>,
    site: &'a SkelSite,
    /// Per argument function: the lifted arguments the call site evaluated.
    lifted: &'a [Vec<Value>],
    /// Per argument function: the kernel charge per element.
    cycles: &'a [u64],
    scratch: RefCell<Scratch>,
    /// Per argument function (a site has at most four): its typed
    /// register file, empty until its first element.
    typed_regs: [RefCell<Vec<u64>>; 4],
}

impl KernelVm<'_> {
    /// Invoke the site's `i`-th argument function with `lifted ++ args`.
    fn call<U: Elem, const N: usize>(&self, i: usize, args: [KArg<'_>; N]) -> U {
        let f = &self.site.fns[i];
        let lifted = &self.lifted[i][..];
        let n = lifted.len();
        let nparams = self.code.funcs[f.fid].nparams;
        assert_eq!(
            nparams,
            n + N,
            "skil runtime: arity mismatch calling function {}: {} params, {} args",
            f.fid,
            nparams,
            n + N
        );
        // parameter position → argument, without materializing a vector
        let pick = |p: usize| {
            if p < n {
                Sl::from_value_ref(&lifted[p])
            } else {
                args[p - n].sl()
            }
        };
        U::from_sl(match &f.shape {
            KernelShape::Bin { op, float, a, b } => bin_sl(*op, *float, &pick(*a), &pick(*b)),
            KernelShape::Intrinsic { op, slots } => match scalar_sl(*op, |k| pick(slots[k])) {
                Some(v) => v,
                None => {
                    let mut buf = [Value::Unit, Value::Unit, Value::Unit];
                    for (slot, &p) in buf.iter_mut().zip(slots) {
                        *slot = pick(p).into_value();
                    }
                    let v = op.eval_pure(&buf[..slots.len()]);
                    Sl::from_value(v.expect("shape-classified intrinsic is pure"))
                }
            },
            KernelShape::General => {
                if let Some(nb) = self.native {
                    return U::from_sl(nb.run_kernel(
                        f.fid,
                        lifted,
                        &args.map(KArg::sl),
                        self.arrays,
                    ));
                }
                if let Some(tf) = self.kernel.typed(f.fid) {
                    let env = KEnv { arrays: self.arrays, me: self.me, nprocs: self.nprocs };
                    let mut regs = self.typed_regs[i].borrow_mut();
                    return self.kernel.call(tf, &mut regs, lifted, &args, &env);
                }
                let mut s = self.scratch.borrow_mut();
                let Scratch { stack, frames } = &mut *s;
                stack.extend(lifted.iter().map(Sl::from_value_ref));
                stack.extend(args.iter().map(|a| a.sl()));
                let mut h = KHost {
                    consts: self.consts,
                    arrays: self.arrays,
                    me: self.me,
                    nprocs: self.nprocs,
                };
                exec(&mut h, self.code, f.fid, stack, frames);
                stack.pop().expect("kernel return value")
            }
        })
    }

    /// The site's `i`-th argument function as a `(T, T) -> T` combiner
    /// (fold / scan / gen_mult kernels). Over unboxed elements an
    /// operator section or `min`/`max` is resolved here, once, to a
    /// direct function; everything else goes through [`Self::call`].
    fn kernel2<T: Elem>(&self, i: usize) -> impl Fn(T, T) -> T + '_ {
        let direct = T::direct2(&self.site.fns[i].shape, self.lifted[i].len());
        move |x, y| match direct {
            Some(op) => op(x, y),
            None => self.call(i, [x.arg(), y.arg()]),
        }
    }

    /// The backend to batch a skeleton's local pass through — only when
    /// a compiled module drives kernels *and* at least one argument
    /// function is `General`-shaped. Trivial shapes never cross the FFI
    /// alone; their host fast paths are cheaper than any round trip.
    fn batch(&self) -> Option<&NativeBackend> {
        self.native.filter(|_| self.site.fns.iter().any(|f| f.shape == KernelShape::General))
    }

    /// Argument function 0 as the per-element `(element, index) -> U`
    /// function of a map. On the batch path the whole local pass over
    /// `src` runs compiled, now, in one FFI call, and the returned
    /// function only hands the results out in order.
    fn elem_fn<T: Elem, U: Elem>(
        &self,
        src: &DistArray<T>,
        batch: Option<&NativeBackend>,
    ) -> impl FnMut(&T, Index) -> U + '_ {
        let mut pre = batch.map(|nb| {
            let ixs: Vec<Index> = src.layout().local_indices(src.proc_id()).collect();
            let fid = self.site.fns[0].fid;
            nb.bulk_map::<T, U>(fid, &self.lifted[0], src.local_data(), &ixs, self.arrays)
                .into_iter()
        });
        move |v, ix| match pre.as_mut() {
            Some(it) => it.next().expect("prefetched map element"),
            None => self.call(0, [v.arg(), KArg::Ix(ix)]),
        }
    }

    fn create<T: Elem>(&self, proc: &mut Proc<'_>, spec: ArraySpec) -> DistArray<T> {
        // Batch path: compiled initializer, one FFI round trip for the
        // whole partition. A spec `plan` error skips the prefetch;
        // `array_create` then reports the identical error before any
        // kernel call.
        let mut pre = self.batch().and_then(|nb| {
            let (layout, _) = spec.plan(proc).ok()?;
            let ixs: Vec<Index> = layout.local_indices(self.me).collect();
            let fid = self.site.fns[0].fid;
            Some(nb.bulk_create::<T>(fid, &self.lifted[0], &ixs, self.arrays).into_iter())
        });
        let init = Kernel::new(
            |ix: Index| match pre.as_mut() {
                Some(it) => it.next().expect("planned bulk element"),
                None => self.call(0, [KArg::Ix(ix)]),
            },
            self.cycles[0],
        );
        rt(array_create(proc, spec, init))
    }

    fn map<T: Elem, U: Elem>(
        &self,
        proc: &mut Proc<'_>,
        from: &DistArray<T>,
        to: &mut DistArray<U>,
    ) {
        // the batch path is gated on the same conformability check
        // `array_map` makes before any kernel call
        let f = self.elem_fn(from, self.batch().filter(|_| from.conformable(to)));
        rt(array_map(proc, Kernel::new(f, self.cycles[0]), from, to))
    }

    fn map_inplace<T: Elem>(&self, proc: &mut Proc<'_>, arr: &mut DistArray<T>) {
        // the batch path reads the same pre-map snapshot
        let f = self.elem_fn::<T, T>(arr, self.batch());
        rt(array_map_inplace(proc, Kernel::new(f, self.cycles[0]), arr))
    }

    fn fold<T: Elem, U: Elem>(&self, proc: &mut Proc<'_>, arr: &DistArray<T>) -> U {
        let fold = self.kernel2::<U>(1);
        if let Some(nb) = self.batch() {
            // batch path: the fused convert+fold local pass runs
            // compiled in one FFI call; the tree reduction still
            // dispatches per hop
            let local = |vs: &[T], ixs: &[Index]| {
                (!vs.is_empty()).then(|| {
                    let conv = (self.site.fns[0].fid, &self.lifted[0][..]);
                    let fold = (self.site.fns[1].fid, &self.lifted[1][..]);
                    nb.bulk_fold::<T, U>(conv, fold, vs, ixs, self.arrays)
                })
            };
            rt(array_fold_bulk(proc, self.cycles[0], self.cycles[1], local, fold, arr))
        } else {
            let conv = Kernel::new(
                |v: &T, ix: Index| self.call::<U, 2>(0, [v.arg(), KArg::Ix(ix)]),
                self.cycles[0],
            );
            rt(array_fold(proc, conv, Kernel::new(fold, self.cycles[1]), arr))
        }
    }

    fn scan<T: Elem>(&self, proc: &mut Proc<'_>, from: &DistArray<T>, to: &mut DistArray<T>) {
        rt(array_scan(proc, Kernel::new(self.kernel2::<T>(0), self.cycles[0]), from, to))
    }

    fn permute_rows<T: Elem>(
        &self,
        proc: &mut Proc<'_>,
        from: &DistArray<T>,
        to: &mut DistArray<T>,
    ) {
        let perm = |r: usize| -> usize {
            let v = self.call::<IntElem, 1>(0, [KArg::I(r as i64)]).0;
            assert!(v >= 0, "skil runtime: negative permuted row {v}");
            v as usize
        };
        rt(array_permute_rows(proc, from, perm, to))
    }

    fn gen_mult<T: Elem>(
        &self,
        proc: &mut Proc<'_>,
        a: &DistArray<T>,
        b: &DistArray<T>,
        c: &mut DistArray<T>,
    ) {
        let add = Kernel::new(self.kernel2::<T>(0), self.cycles[0]);
        let mul = self.kernel2::<T>(1);
        let mul = Kernel::new(|x: &T, y: &T| mul(x.clone(), y.clone()), self.cycles[1]);
        rt(array_gen_mult(proc, a, b, add, mul, c))
    }
}
