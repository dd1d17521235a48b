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
//! Arrays, skeleton dispatch and the stateful intrinsics belong to the
//! skeleton host shared by every engine ([`crate::host`]); this module
//! contributes how argument functions run (`KernelVm`): elements cross
//! into kernels as [`KArg`]s without ever becoming a `Value`.
//!
//! What a `General` argument function runs as is decided once per
//! compiled program by its [`KernelView`]: typed register code where
//! the function lowered ([`crate::kernel`]), else this module's
//! dispatch loop in kernel mode over the same bytecode. The native
//! engine runs main-mode code compiled and hands every skeleton call
//! back to [`Vm::skel`], so its argument functions run here too.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::mem::{replace, take};

use skil_array::Index;
use skil_runtime::{CostModel, Machine, Proc, Run};

use crate::bytecode::{Instr, Intr, KernelShape, Program, SkelFn, SkelSite, Src};
use crate::fo::{BinOp, FoProgram};
use crate::host::{
    get_elem, kernel_cycles, kernel_forbids, to_uindex, ArgFn, ArgFns, KEnv, SkelHost,
};
use crate::kernel::{KArg, KernelView, TypedSite};
use crate::scalar::{float_arith, float_cmp, int_bin, neg_int, scalar_intr, Scalar};
use crate::store::{Direct, Elem};
use crate::value::Value;
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
        let mut vm = Vm::new(code, &compiled.kernel, &tables, p);
        // the benchmark's message-bound programs reach depth 5: one
        // allocation per processor, not two (4, then 8)
        let mut stack = Vec::with_capacity(8);
        let mut frames = Vec::new();
        exec(&mut vm, code, main, &mut stack, &mut frames);
        // main's return value (if any) is discarded, as in the walker
        stack.pop();
        vm.host.output
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

/// A binary operator over unboxed slots.
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
/// directly, the rest (lists, `error`, the stateful ones) boxed. `cons`
/// and `tail` own their list operand, so a list no one else holds grows
/// or shrinks in place.
fn intr_sl<H: Host>(h: &mut H, op: Intr, args: [Sl; 3], n: usize) -> Sl {
    if let Some(v) = scalar_sl(op, |k| args[k].clone()) {
        return v;
    }
    let mut vals = args.map(Sl::into_value);
    match (op, &mut vals) {
        (Intr::Cons, [x, Value::List(l), _]) => {
            l.push_front(replace(x, Value::Unit));
            return Sl::V(Value::List(take(l)));
        }
        (Intr::Tail, [Value::List(l), ..]) if !l.is_empty() => {
            l.pop_front();
            return Sl::V(Value::List(take(l)));
        }
        _ => {}
    }
    Sl::from_value(match op.eval_pure(&vals[..n]) {
        Some(v) => v,
        None => h.stateful(op, &vals[..n]),
    })
}

/// `len` / `head` of a list in a frame slot, read where it lies; `None`
/// leaves the operand to the generic path (which also reports `head` of
/// an empty list).
#[inline(always)]
fn peek_list(op: Intr, src: Src, frame: &[Sl]) -> Option<Sl> {
    let (Intr::Len | Intr::Head, Src::Slot(s)) = (op, src) else {
        return None;
    };
    let Sl::V(Value::List(l)) = &frame[s as usize] else {
        return None;
    };
    match op {
        Intr::Len => Some(Sl::I(l.len() as i64)),
        _ => l.first().map(Sl::from_value_ref),
    }
}

/// `x = cons(e, x)` / `x = tail(x)` — an `intr.s` whose next
/// instruction stores into its list operand's own slot: the list is
/// updated where it lies instead of a clone being built and stored over
/// it, so a list no one else holds grows or shrinks in place. `false`
/// (nothing fetched) leaves the instruction to the generic path.
#[inline(always)]
fn list_in_place(
    op: Intr,
    srcs: [Src; 3],
    d: u16,
    stack: &mut Vec<Sl>,
    frame: &mut [Sl],
    consts: &[Sl],
) -> bool {
    let (own, d) = (Src::Slot(d), d as usize);
    match op {
        Intr::Cons if srcs[1] == own => {
            if !matches!(frame[d], Sl::V(Value::List(_))) {
                return false;
            }
            let x = fetch(srcs[0], stack, frame, consts).into_value();
            let Sl::V(Value::List(l)) = &mut frame[d] else {
                unreachable!("the slot held a list before the element was fetched")
            };
            l.push_front(x);
            true
        }
        Intr::Tail if srcs[0] == own => match &mut frame[d] {
            Sl::V(Value::List(l)) if !l.is_empty() => {
                l.pop_front();
                true
            }
            _ => false,
        },
        _ => false,
    }
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
    fn skel(&mut self, site: usize, stack: &mut Vec<Sl>);
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
            Instr::Skel(site) => h.skel(site as usize, stack),
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
                if let Some(v) = peek_list(op, srcs[0], &frame) {
                    stack.push(v);
                    continue;
                }
                if let Some(&Instr::Store(d)) = f.code.get(pc) {
                    if list_in_place(op, srcs, d, stack, &mut frame, h.kconsts()) {
                        pc += 1;
                        continue;
                    }
                }
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

/// Full execution mode: one per processor, over the shared skeleton
/// host that owns the arrays and the output.
pub(crate) struct Vm<'a, 'p, 'm> {
    pub(crate) code: &'a Program,
    /// What skeleton argument functions run as.
    kernel: &'a KernelView,
    /// The run's resolved pools.
    pub(crate) tables: &'a RunTables,
    pub(crate) host: SkelHost<'p, 'm>,
    /// A skeleton call's value arguments, then its argument functions'
    /// lifted ones: emptied after every call, its allocation kept for
    /// the next.
    args: Vec<Value>,
    /// What readied argument functions borrow for the length of a call.
    lent: Lent,
}

impl<'a, 'p, 'm> Vm<'a, 'p, 'm> {
    pub(crate) fn new(
        code: &'a Program,
        kernel: &'a KernelView,
        tables: &'a RunTables,
        proc: &'p mut Proc<'m>,
    ) -> Self {
        Vm {
            code,
            kernel,
            tables,
            host: SkelHost::new(proc),
            args: Vec::new(),
            lent: Lent::default(),
        }
    }
}

impl Host for Vm<'_, '_, '_> {
    fn charge_ix(&mut self, i: u32) {
        self.host.proc.charge(self.tables.costs[i as usize]);
    }

    fn kconsts(&self) -> &[Sl] {
        &self.tables.consts
    }

    fn get_elem(&mut self, h: usize, ix: Index) -> Sl {
        get_elem(&self.host.arrays, h, ix)
    }

    /// Stateful intrinsics; the matching charge was already emitted as a
    /// `Charge` instruction by the compiler.
    fn stateful(&mut self, op: Intr, vals: &[Value]) -> Value {
        self.host.stateful(op, vals)
    }

    /// Hand a skeleton call site to the shared host, with the kernel VM
    /// as what runs its argument functions.
    fn skel(&mut self, site_ix: usize, stack: &mut Vec<Sl>) {
        let site: &SkelSite = &self.code.sites[site_ix];
        // stack layout: [value args..., fn0 lifted..., fn1 lifted...],
        // moved as it is into the processor's argument buffer; a
        // skeleton's argument functions cannot call skeletons, so the
        // buffer is free again by the time another call takes it
        let at = stack.len() - site.nargs - site.fns.iter().map(|f| f.n_lifted).sum::<usize>();
        self.args.extend(stack.drain(at..).map(Sl::into_value));
        let (vals, lifted) = self.args.split_at(site.nargs);
        let kvm = KernelVm {
            code: self.code,
            kernel: self.kernel,
            consts: &self.tables.consts,
            site,
            lifted,
            cycles: &self.tables.site_cycles[site_ix],
            lent: &self.lent,
        };
        let result = self.host.skel(site.op, site.elem, site.ret, vals, &kvm);
        stack.push(Sl::from_value(result));
        self.args.clear();
    }
}

/// A processor's buffers for readied argument functions: each is lent
/// out by [`KernelVm::prepare`] and given back, emptied, when the readied
/// function is dropped, so a warm skeleton call allocates none.
#[derive(Default)]
struct Lent {
    /// Typed prologues ([`TypedSite`]).
    prologues: RefCell<Vec<Vec<u64>>>,
    /// Generic loop scratch.
    scratch: RefCell<Vec<Scratch>>,
}

#[derive(Default)]
struct Scratch {
    stack: Vec<Sl>,
    frames: Vec<Vec<Sl>>,
}

/// Kernel execution mode for the shared dispatch loop: read-only
/// arrays, no skeletons, no printing, and `Charge` instructions compile
/// to nothing — the per-element kernel charge is applied by the
/// skeleton itself.
struct KHost<'a> {
    consts: &'a [Sl],
    env: &'a KEnv<'a>,
}

impl Host for KHost<'_> {
    fn charge_ix(&mut self, _i: u32) {}

    fn kconsts(&self) -> &[Sl] {
        self.consts
    }

    fn get_elem(&mut self, h: usize, ix: Index) -> Sl {
        get_elem(self.env.arrays, h, ix)
    }

    fn stateful(&mut self, op: Intr, vals: &[Value]) -> Value {
        self.env.stateful(op, vals)
    }

    fn skel(&mut self, _site: usize, _stack: &mut Vec<Sl>) {
        kernel_forbids("skeleton call")
    }
}

/// How the `vm` and `native` engines run one skeleton call's argument
/// functions: the same way under both.
struct KernelVm<'a> {
    code: &'a Program,
    kernel: &'a KernelView,
    consts: &'a [Sl],
    site: &'a SkelSite,
    /// The lifted arguments the call site evaluated, argument function
    /// by argument function.
    lifted: &'a [Value],
    /// Per argument function: the kernel charge per element.
    cycles: &'a [u64],
    /// The calling processor's buffers for readied functions.
    lent: &'a Lent,
}

/// One argument function of a `vm` / `native` site, readied: how it
/// runs was decided once, by [`KernelVm::prepare`].
enum Readied<'a> {
    /// An operator section or one intrinsic over parameters: a direct
    /// computation, no frame.
    Trivial { shape: &'a KernelShape, lifted: &'a [Value] },
    /// Typed register code, its prologue lent by `lent`.
    Typed(TypedSite<'a>, &'a Lent),
    /// The generic loop in kernel mode, on scratch lent by `lent`.
    Generic {
        code: &'a Program,
        fid: usize,
        lifted: &'a [Value],
        host: KHost<'a>,
        scratch: Scratch,
        lent: &'a Lent,
    },
}

impl Drop for Readied<'_> {
    /// Give the lent buffer back.
    fn drop(&mut self) {
        match self {
            Readied::Typed(site, lent) => lent.prologues.borrow_mut().push(site.take_prologue()),
            Readied::Generic { scratch, lent, .. } => {
                scratch.stack.clear();
                lent.scratch.borrow_mut().push(take(scratch));
            }
            Readied::Trivial { .. } => {}
        }
    }
}

impl<const N: usize> ArgFn<N> for Readied<'_> {
    fn call<U: Elem>(&mut self, args: [KArg<'_>; N]) -> U {
        match self {
            Readied::Typed(site, _) => site.call(&args),
            other => other.call_untyped(&args),
        }
    }
}

impl Readied<'_> {
    /// Everything but typed code — out of line, so that a skeleton body
    /// instantiated per element type carries one call and not two
    /// interpreters.
    #[inline(never)]
    fn call_untyped<U: Elem>(&mut self, args: &[KArg<'_>]) -> U {
        U::from_sl(match self {
            Readied::Trivial { shape, lifted } => {
                // parameter position → argument, without materializing a vector
                let n = lifted.len();
                let pick = |p: usize| {
                    if p < n {
                        Sl::from_value_ref(&lifted[p])
                    } else {
                        args[p - n].sl()
                    }
                };
                match shape {
                    KernelShape::Bin { op, float, a, b } => {
                        bin_sl(*op, *float, &pick(*a), &pick(*b))
                    }
                    KernelShape::Intrinsic { op, slots } => {
                        match scalar_sl(*op, |k| pick(slots[k])) {
                            Some(v) => v,
                            None => {
                                let mut buf = [Value::Unit, Value::Unit, Value::Unit];
                                for (slot, &p) in buf.iter_mut().zip(slots) {
                                    *slot = pick(p).into_value();
                                }
                                let v = op.eval_pure(&buf[..slots.len()]);
                                Sl::from_value(v.expect("shape-classified intrinsic is pure"))
                            }
                        }
                    }
                    KernelShape::General => unreachable!("readied as typed or generic"),
                }
            }
            Readied::Typed(..) => unreachable!("typed code is called in line"),
            Readied::Generic { code, fid, lifted, host, scratch, .. } => {
                let Scratch { stack, frames } = scratch;
                stack.extend(lifted.iter().map(Sl::from_value_ref));
                stack.extend(args.iter().map(|a| a.sl()));
                exec(host, code, *fid, stack, frames);
                stack.pop().expect("kernel return value")
            }
        })
    }
}

/// Argument function `i`'s share of `lifted`, the lifted arguments of
/// all of `fns` in order.
fn lifted_of<'v>(fns: &[SkelFn], lifted: &'v [Value], i: usize) -> &'v [Value] {
    let at = fns[..i].iter().map(|f| f.n_lifted).sum();
    &lifted[at..][..fns[i].n_lifted]
}

impl ArgFns for KernelVm<'_> {
    const TYPED_STORES: bool = true;

    fn prepare<'a, const N: usize>(&'a self, env: &'a KEnv<'a>, i: usize) -> impl ArgFn<N> + 'a {
        let f = &self.site.fns[i];
        let lifted = lifted_of(&self.site.fns, self.lifted, i);
        let nparams = self.code.funcs[f.fid].nparams;
        assert_eq!(
            nparams,
            lifted.len() + N,
            "skil runtime: arity mismatch calling function {}: {} params, {} args",
            f.fid,
            nparams,
            lifted.len() + N
        );
        if f.shape != KernelShape::General {
            return Readied::Trivial { shape: &f.shape, lifted };
        }
        let lent = self.lent;
        match self.kernel.typed(f.fid) {
            Some(tf) => {
                let prologue = lent.prologues.borrow_mut().pop().unwrap_or_default();
                Readied::Typed(TypedSite::new(self.kernel, tf, lifted, env, prologue), lent)
            }
            None => Readied::Generic {
                code: self.code,
                fid: f.fid,
                lifted,
                host: KHost { consts: self.consts, env },
                scratch: lent.scratch.borrow_mut().pop().unwrap_or_default(),
                lent,
            },
        }
    }

    fn cycles(&self, i: usize) -> u64 {
        self.cycles[i]
    }

    fn direct2(&self, i: usize) -> Option<Direct> {
        self.site.direct(i)
    }
}
