//! Rust code generation for the native engine (`--engine native`).
//!
//! Emits one **self-contained Rust module** per instantiated program:
//! the main-mode code — `main` and every function reachable from it by
//! direct calls — compiled from the same optimized bytecode the VM
//! executes, instruction for instruction, so the generated code performs
//! the *exact same* observable actions in the *exact same* order —
//! `Charge` instructions become host callbacks (virtual time is
//! bit-identical by construction), and skeleton call sites dispatch
//! back into the host's [`crate::vm::Vm::skel`], whose kernel executors
//! run the skeleton's argument functions as they do under the `vm`
//! engine. Nothing of kernel mode is emitted.
//!
//! Layout of the generated module:
//!
//! - a fixed prelude: the value enum `V` (scalars unboxed, aggregates
//!   `Rc`-shared), a cons-list with memoized length, the FFI value
//!   encoding (`FfiVal` for scalars, a little-endian byte stream for
//!   aggregates), the `HostVt` callback vtable, and the panic protocol
//!   (host-callback failures unwind as `FfiAbort`; all other panics are
//!   reported through `set_error` — no panic ever crosses the FFI
//!   boundary, the entry point runs under `catch_unwind`);
//! - the generated entry points `skil_abi` / `skil_main`;
//! - one function `f{id}` per function reachable from `main`.
//!
//! Each function body is a `loop { match blk { .. } }` state machine
//! over the bytecode's basic blocks; the operand stack is flattened to
//! local variables (`s0..`) at statically computed depths, frame slots
//! are locals (`l0..`). Integer arithmetic wraps, division/remainder by
//! zero and index errors panic with the exact `skil runtime:` messages
//! of the VM, so failure classification is engine-independent.
//!
//! The generated module's raw-pointer code is only text in this file.

#![forbid(unsafe_code)]

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::builtins::{DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D};
use crate::bytecode::{CompiledFunc, Instr, Intr, Program, Src};
use crate::fo::BinOp;
use crate::sym::Names;
use crate::value::Value;

/// Version stamp of the generated-module ABI (entry points, `HostVt`
/// layout, value wire format). The loader refuses modules whose
/// `skil_abi()` disagrees; bump on any change to the prelude contract.
pub const ABI_VERSION: u64 = 5;

macro_rules! w {
    ($out:expr, $($arg:tt)*) => { let _ = writeln!($out, $($arg)*); };
}

/// Emit the complete Rust source of the native module for `code`
/// (the optimized bytecode — the same program the VM executes).
pub fn emit_rust(code: &Program, names: &Names) -> String {
    let mut out = String::with_capacity(96 * 1024);
    w!(
        out,
        "// Generated by skil-lang's native backend — do not edit.\n\
         // {} function(s), {} constant(s), {} skeleton site(s).",
        code.funcs.len(),
        code.consts.len(),
        code.sites.len()
    );
    out.push_str(PRELUDE);
    entries(&mut out, code);
    for fid in reachable(code) {
        emit_fn(&mut out, code, names, fid);
    }
    out
}

/// The functions reachable from `main` by direct calls, in index order.
fn reachable(code: &Program) -> Vec<usize> {
    let mut set = HashSet::new();
    let mut work: Vec<usize> = code.main.into_iter().collect();
    while let Some(fid) = work.pop() {
        if set.insert(fid) {
            work.extend(code.funcs[fid].code.iter().filter_map(|i| match i {
                Instr::Call(c) => Some(*c as usize),
                _ => None,
            }));
        }
    }
    let mut fids: Vec<usize> = set.into_iter().collect();
    fids.sort_unstable();
    fids
}

// ---------------------------------------------------------------------
// Entry points (vary with the program).
// ---------------------------------------------------------------------

fn entries(out: &mut String, code: &Program) {
    w!(out, "#[no_mangle]");
    w!(out, "pub extern \"C\" fn skil_abi() -> u64 {{");
    w!(out, "    {ABI_VERSION}");
    w!(out, "}}\n");

    w!(out, "#[no_mangle]");
    w!(out, "pub extern \"C\" fn skil_main(p: *mut c_void) -> i32 {{");
    w!(out, "    let cx = unsafe {{ &*(p as *const Cx) }};");
    w!(out, "    match catch_unwind(AssertUnwindSafe(|| {{");
    match code.main {
        Some(m) => {
            w!(out, "        let _ = f{m}(cx);");
            w!(out, "        fl(cx);");
        }
        None => {
            w!(out, "        let _ = cx;");
        }
    }
    w!(out, "    }})) {{");
    w!(out, "        Ok(()) => 0,");
    w!(out, "        Err(e) => {{");
    w!(out, "            report(cx, e);");
    w!(out, "            1");
    w!(out, "        }}");
    w!(out, "    }}");
    w!(out, "}}\n");
}

// ---------------------------------------------------------------------
// Flow analysis: static stack depth per pc, basic-block starts.
// ---------------------------------------------------------------------

enum Ctl {
    Next,
    Goto(usize),
    Branch(usize),
    Stop,
}

fn tops(srcs: &[Src]) -> usize {
    srcs.iter().filter(|s| matches!(s, Src::Top)).count()
}

/// (pops, pushes, control) of one instruction.
fn effect(code: &Program, ins: Instr) -> (usize, usize, Ctl) {
    match ins {
        Instr::Charge(_) => (0, 0, Ctl::Next),
        Instr::Const(_) | Instr::Load(_) => (0, 1, Ctl::Next),
        Instr::Store(_) | Instr::Pop => (1, 0, Ctl::Next),
        Instr::Jump(t) => (0, 0, Ctl::Goto(t as usize)),
        Instr::JumpIfZero(t) | Instr::JumpIfNonZero(t) => (1, 0, Ctl::Branch(t as usize)),
        Instr::ToBool | Instr::Neg(_) | Instr::Not | Instr::Field(_) => (1, 1, Ctl::Next),
        Instr::Bin(..) | Instr::IndexAt => (2, 1, Ctl::Next),
        Instr::MakeIndex(n) => (n as usize, 1, Ctl::Next),
        Instr::MakeStruct(_, n) => (n as usize, 1, Ctl::Next),
        Instr::Intr(_, n) => (n as usize, 1, Ctl::Next),
        Instr::Call(c) => (code.funcs[c as usize].nparams, 1, Ctl::Next),
        Instr::Skel(s) => {
            let site = &code.sites[s as usize];
            let m = site.nargs + site.fns.iter().map(|f| f.n_lifted).sum::<usize>();
            (m, 1, Ctl::Next)
        }
        Instr::Ret => (1, 0, Ctl::Stop),
        Instr::RetUnit => (0, 0, Ctl::Stop),
        Instr::BinS(_, _, l, r) => (tops(&[l, r]), 1, Ctl::Next),
        Instr::BinStore(_, _, l, r, _) => (tops(&[l, r]), 0, Ctl::Next),
        Instr::JumpCmpZ(_, _, l, r, t) | Instr::JumpCmpNz(_, _, l, r, t) => {
            (tops(&[l, r]), 0, Ctl::Branch(t as usize))
        }
        Instr::JumpZS(s, t) | Instr::JumpNzS(s, t) => (tops(&[s]), 0, Ctl::Branch(t as usize)),
        Instr::StoreS(_, s) => (tops(&[s]), 0, Ctl::Next),
        Instr::RetS(s) => (tops(&[s]), 0, Ctl::Stop),
        Instr::FieldS(s, _) => (tops(&[s]), 1, Ctl::Next),
        Instr::IndexAtS(x, c) => (tops(&[x, c]), 1, Ctl::Next),
        Instr::IntrS(_, n, srcs) => (tops(&srcs[..n as usize]), 1, Ctl::Next),
        Instr::ArrGetI1(a, i) => (tops(&[a, i]), 1, Ctl::Next),
        Instr::ArrGetI2(a, i, j) => (tops(&[a, i, j]), 1, Ctl::Next),
    }
}

struct Flow {
    /// Operand-stack depth *entering* each pc; `None` = unreachable.
    depth: Vec<Option<usize>>,
    /// Basic-block start pcs (entry + every reachable jump target).
    starts: Vec<usize>,
    /// Peak operand-stack depth — how many `s{i}` locals to declare.
    max_stack: usize,
}

fn analyze(code: &Program, f: &CompiledFunc, fname: &str) -> Flow {
    let n = f.code.len();
    let mut depth: Vec<Option<usize>> = vec![None; n];
    let mut targets: HashSet<usize> = HashSet::new();
    let mut max_stack = 0usize;
    let mut work = vec![(0usize, 0usize)];
    while let Some((pc, d)) = work.pop() {
        if let Some(seen) = depth[pc] {
            assert_eq!(seen, d, "stack depth mismatch at pc {pc} in `{fname}`");
            continue;
        }
        depth[pc] = Some(d);
        let (pop, push, ctl) = effect(code, f.code[pc]);
        assert!(d >= pop, "stack underflow at pc {pc} in `{fname}`");
        let out = d - pop + push;
        max_stack = max_stack.max(out).max(d);
        match ctl {
            Ctl::Next => work.push((pc + 1, out)),
            Ctl::Goto(t) => {
                targets.insert(t);
                work.push((t, out));
            }
            Ctl::Branch(t) => {
                targets.insert(t);
                work.push((t, out));
                work.push((pc + 1, out));
            }
            Ctl::Stop => {}
        }
    }
    let mut starts: Vec<usize> = targets.into_iter().filter(|&t| depth[t].is_some()).collect();
    starts.push(0);
    starts.sort_unstable();
    starts.dedup();
    Flow { depth, starts, max_stack }
}

// ---------------------------------------------------------------------
// Operand rendering.
// ---------------------------------------------------------------------

/// Where a (possibly fused) operand lives in the generated code.
#[derive(Clone, Copy)]
enum Place {
    /// Operand-stack local `s{i}`.
    St(usize),
    /// Frame-slot local `l{s}`.
    Slot(u16),
    /// Constant-pool literal, inlined.
    Cst(u16),
}

/// Assign stack positions to `Top` operands: with `k` tops at depth
/// `d`, they occupy `s{d-k}..s{d-1}` ascending in logical operand
/// order (the VM fetches fused operands right-to-left — reverse push
/// order — so the *first* listed operand sits deepest).
fn places(srcs: &[Src], d: usize) -> (Vec<Place>, usize) {
    let ntop = tops(srcs);
    let mut at = d - ntop;
    let v = srcs
        .iter()
        .map(|s| match s {
            Src::Top => {
                let p = Place::St(at);
                at += 1;
                p
            }
            Src::Slot(i) => Place::Slot(*i),
            Src::Const(c) => Place::Cst(*c),
        })
        .collect();
    (v, ntop)
}

fn int_lit(v: i64) -> String {
    if v == i64::MIN {
        "i64::MIN".to_string()
    } else if v < 0 {
        format!("({v}i64)")
    } else {
        format!("{v}i64")
    }
}

fn flt_lit(x: f64) -> String {
    format!("f64::from_bits(0x{:016x}u64)", x.to_bits())
}

fn v_lit(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("V::I({})", int_lit(*i)),
        Value::Float(f) => format!("V::F({})", flt_lit(*f)),
        Value::Unit => "V::U".to_string(),
        Value::Index(ix) => format!("V::Ix([{}, {}])", int_lit(ix[0]), int_lit(ix[1])),
        other => panic!("unsupported constant in pool: {other:?}"),
    }
}

fn p_ref(code: &Program, p: Place) -> String {
    match p {
        Place::St(i) => format!("&s{i}"),
        Place::Slot(s) => format!("&l{s}"),
        Place::Cst(c) => format!("&{}", v_lit(&code.consts[c as usize])),
    }
}

fn p_own(code: &Program, p: Place) -> String {
    match p {
        Place::St(i) => format!("tk(&mut s{i})"),
        Place::Slot(s) => format!("l{s}.clone()"),
        Place::Cst(c) => v_lit(&code.consts[c as usize]),
    }
}

fn p_int(code: &Program, p: Place) -> String {
    match p {
        Place::St(i) => format!("vi(&s{i})"),
        Place::Slot(s) => format!("vi(&l{s})"),
        Place::Cst(c) => match &code.consts[c as usize] {
            Value::Int(v) => int_lit(*v),
            other => format!("vi(&{})", v_lit(other)),
        },
    }
}

fn p_flt(code: &Program, p: Place) -> String {
    match p {
        Place::St(i) => format!("vf(&s{i})"),
        Place::Slot(s) => format!("vf(&l{s})"),
        Place::Cst(c) => match &code.consts[c as usize] {
            Value::Float(v) => flt_lit(*v),
            other => format!("vf(&{})", v_lit(other)),
        },
    }
}

fn p_arr(code: &Program, p: Place) -> String {
    match p {
        Place::St(i) => format!("va(&s{i})"),
        Place::Slot(s) => format!("va(&l{s})"),
        Place::Cst(c) => format!("va(&{})", v_lit(&code.consts[c as usize])),
    }
}

fn p_ix(code: &Program, p: Place) -> String {
    match p {
        Place::St(i) => format!("vix(&s{i})"),
        Place::Slot(s) => format!("vix(&l{s})"),
        Place::Cst(c) => format!("vix(&{})", v_lit(&code.consts[c as usize])),
    }
}

fn cmp_tok(op: BinOp) -> Option<&'static str> {
    Some(match op {
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        _ => return None,
    })
}

/// `V`-valued binary-operation expression, semantics of `bin_sl`:
/// wrapping integer arithmetic, zero-divide panics, int-encoded
/// comparisons, the float logical-op type error.
fn bin_v(code: &Program, op: BinOp, float: bool, l: Place, r: Place) -> String {
    if float {
        let (x, y) = (p_flt(code, l), p_flt(code, r));
        if let Some(c) = cmp_tok(op) {
            return format!("V::I((({x}) {c} ({y})) as i64)");
        }
        match op {
            BinOp::Add => format!("V::F(({x}) + ({y}))"),
            BinOp::Sub => format!("V::F(({x}) - ({y}))"),
            BinOp::Mul => format!("V::F(({x}) * ({y}))"),
            BinOp::Div => format!("V::F(({x}) / ({y}))"),
            BinOp::Rem => format!("V::F(({x}) % ({y}))"),
            _ => format!("{{ let _ = {x}; let _ = {y}; lop_f() }}"),
        }
    } else {
        let (x, y) = (p_int(code, l), p_int(code, r));
        if let Some(c) = cmp_tok(op) {
            return format!("V::I((({x}) {c} ({y})) as i64)");
        }
        match op {
            BinOp::Add => format!("V::I(({x}).wrapping_add({y}))"),
            BinOp::Sub => format!("V::I(({x}).wrapping_sub({y}))"),
            BinOp::Mul => format!("V::I(({x}).wrapping_mul({y}))"),
            BinOp::Div => format!("V::I(idiv({x}, {y}))"),
            BinOp::Rem => format!("V::I(irem({x}, {y}))"),
            BinOp::And => format!("V::I(((({x}) != 0) && (({y}) != 0)) as i64)"),
            BinOp::Or => format!("V::I(((({x}) != 0) || (({y}) != 0)) as i64)"),
            _ => unreachable!("comparison handled above"),
        }
    }
}

/// `i64`-valued binary-operation expression for fused compare-and-branch.
fn bin_i(code: &Program, op: BinOp, float: bool, l: Place, r: Place) -> String {
    if float {
        let (x, y) = (p_flt(code, l), p_flt(code, r));
        if let Some(c) = cmp_tok(op) {
            return format!("((({x}) {c} ({y})) as i64)");
        }
        // a float arithmetic result in int context is a type error in
        // the VM too; route through `vi` for the same panic class
        return format!("vi(&{})", bin_v(code, op, float, l, r));
    }
    let (x, y) = (p_int(code, l), p_int(code, r));
    if let Some(c) = cmp_tok(op) {
        return format!("((({x}) {c} ({y})) as i64)");
    }
    match op {
        BinOp::Add => format!("({x}).wrapping_add({y})"),
        BinOp::Sub => format!("({x}).wrapping_sub({y})"),
        BinOp::Mul => format!("({x}).wrapping_mul({y})"),
        BinOp::Div => format!("idiv({x}, {y})"),
        BinOp::Rem => format!("irem({x}, {y})"),
        BinOp::And => format!("(((({x}) != 0) && (({y}) != 0)) as i64)"),
        BinOp::Or => format!("(((({x}) != 0) || (({y}) != 0)) as i64)"),
        _ => unreachable!("comparison handled above"),
    }
}

/// Intrinsic call expression; pure intrinsics inline `eval_pure`'s
/// semantics, stateful ones call host helpers (except `procId` /
/// `nprocs`, which the context caches — the matching charge was already
/// emitted as a separate `Charge`, exactly as in the VM).
fn intr_v(code: &Program, op: Intr, ps: &[Place]) -> String {
    let int = |i: usize| p_int(code, ps[i]);
    let flt = |i: usize| p_flt(code, ps[i]);
    let rf = |i: usize| p_ref(code, ps[i]);
    match op {
        Intr::Abs => format!("V::I(({}).wrapping_abs())", int(0)),
        Intr::Fabs => format!("V::F(({}).abs())", flt(0)),
        Intr::Min => format!("V::I(({}).min({}))", int(0), int(1)),
        Intr::Max => format!("V::I(({}).max({}))", int(0), int(1)),
        Intr::Fmin => format!("V::F(({}).min({}))", flt(0), flt(1)),
        Intr::Fmax => format!("V::F(({}).max({}))", flt(0), flt(1)),
        Intr::Sqrt => format!("V::F(({}).sqrt())", flt(0)),
        Intr::Itof => format!("V::F(({}) as f64)", int(0)),
        Intr::Ftoi => format!("V::I(({}) as i64)", flt(0)),
        Intr::Log2i => format!("V::I(log2i({}))", int(0)),
        Intr::IntMax => "V::I(i64::MAX / 4)".to_string(),
        Intr::FltMax => "V::F(f64::MAX / 4.0)".to_string(),
        Intr::DistrDefault => format!("V::I({DISTR_DEFAULT}i64)"),
        Intr::DistrRing => format!("V::I({DISTR_RING}i64)"),
        Intr::DistrTorus2d => format!("V::I({DISTR_TORUS2D}i64)"),
        Intr::Error => format!("err_call({})", int(0)),
        Intr::Nil => "V::L(Lst(None))".to_string(),
        Intr::Cons => format!("cons({}, {})", p_own(code, ps[0]), rf(1)),
        Intr::Head => format!("hd({})", rf(0)),
        Intr::Tail => format!("tl({})", rf(0)),
        Intr::Len => format!("ln({})", rf(0)),
        Intr::Append => format!("append({}, {})", rf(0), rf(1)),
        Intr::ProcId => "V::I(cx.me)".to_string(),
        Intr::NProcs => "V::I(cx.np)".to_string(),
        Intr::ArrayGetElem => {
            format!("get_elem(cx, {}, {})", p_arr(code, ps[0]), p_ix(code, ps[1]))
        }
        Intr::ArrayPutElem => {
            format!("put_elem(cx, {}, {}, {})", p_arr(code, ps[0]), p_ix(code, ps[1]), rf(2))
        }
        Intr::ArrayPartBounds => format!("part_bounds(cx, {})", p_arr(code, ps[0])),
        Intr::Print => format!("print(cx, {})", rf(0)),
    }
}

// ---------------------------------------------------------------------
// Function emission.
// ---------------------------------------------------------------------

const IND: &str = "                ";

fn emit_fn(out: &mut String, code: &Program, names: &Names, fid: usize) {
    let f = &code.funcs[fid];
    let fname = names.get(f.name);
    let flow = analyze(code, f, fname);
    w!(out, "// `{fname}`");
    let _ = write!(out, "fn f{fid}(cx: &Cx");
    for i in 0..f.nparams {
        let _ = write!(out, ", mut l{i}: V");
    }
    out.push_str(") -> V {\n");
    for i in f.nparams..f.nslots {
        w!(out, "    let mut l{i} = V::U;");
    }
    for i in 0..flow.max_stack {
        w!(out, "    let mut s{i} = V::U;");
    }
    w!(out, "    let mut blk = 0usize;");
    w!(out, "    loop {{");
    w!(out, "        match blk {{");
    let start_set: HashSet<usize> = flow.starts.iter().copied().collect();
    for &start in &flow.starts {
        w!(out, "            {start} => {{");
        let mut pc = start;
        let mut d = flow.depth[start].expect("block start reachable");
        loop {
            let ended = emit_instr(out, code, f.code[pc], &mut d);
            if ended {
                break;
            }
            pc += 1;
            if start_set.contains(&pc) {
                w!(out, "{IND}blk = {pc};");
                w!(out, "{IND}continue;");
                break;
            }
        }
        w!(out, "            }}");
    }
    w!(out, "            _ => unreachable!(),");
    w!(out, "        }}");
    w!(out, "    }}");
    w!(out, "}}\n");
}

/// Emit one instruction at depth `*d` (updated); returns `true` when
/// the instruction ends its basic block.
fn emit_instr(out: &mut String, code: &Program, ins: Instr, d: &mut usize) -> bool {
    match ins {
        Instr::Charge(i) => {
            w!(out, "{IND}chg(cx, {i}u32);");
        }
        Instr::Const(i) => {
            w!(out, "{IND}s{} = {};", *d, v_lit(&code.consts[i as usize]));
            *d += 1;
        }
        Instr::Load(s) => {
            w!(out, "{IND}s{} = l{s}.clone();", *d);
            *d += 1;
        }
        Instr::Store(s) => {
            *d -= 1;
            w!(out, "{IND}l{s} = tk(&mut s{});", *d);
        }
        Instr::Pop => {
            *d -= 1;
            w!(out, "{IND}s{} = V::U;", *d);
        }
        Instr::Jump(t) => {
            w!(out, "{IND}blk = {t};");
            w!(out, "{IND}continue;");
            return true;
        }
        Instr::JumpIfZero(t) => {
            *d -= 1;
            w!(out, "{IND}if vi(&s{}) == 0 {{ blk = {t}; continue; }}", *d);
        }
        Instr::JumpIfNonZero(t) => {
            *d -= 1;
            w!(out, "{IND}if vi(&s{}) != 0 {{ blk = {t}; continue; }}", *d);
        }
        Instr::ToBool => {
            let x = *d - 1;
            w!(out, "{IND}s{x} = V::I((vi(&s{x}) != 0) as i64);");
        }
        Instr::Bin(op, float) => {
            let expr = bin_v(code, op, float, Place::St(*d - 2), Place::St(*d - 1));
            w!(out, "{IND}s{} = {expr};", *d - 2);
            *d -= 1;
        }
        Instr::Neg(float) => {
            let x = *d - 1;
            if float {
                w!(out, "{IND}s{x} = V::F(-vf(&s{x}));");
            } else {
                w!(out, "{IND}s{x} = V::I(vi(&s{x}).wrapping_neg());");
            }
        }
        Instr::Not => {
            let x = *d - 1;
            w!(out, "{IND}s{x} = V::I((vi(&s{x}) == 0) as i64);");
        }
        Instr::Field(i) => {
            let x = *d - 1;
            w!(out, "{IND}s{x} = field(tk(&mut s{x}), {i}usize);");
        }
        Instr::IndexAt => {
            *d -= 1;
            let x = *d - 1;
            w!(out, "{IND}s{x} = index_at(&s{x}, vi(&s{}));", *d);
        }
        Instr::MakeIndex(n) => match n {
            1 => {
                let x = *d - 1;
                w!(out, "{IND}s{x} = V::Ix([vi(&s{x}), 0i64]);");
            }
            2 => {
                *d -= 1;
                let x = *d - 1;
                w!(out, "{IND}s{x} = V::Ix([vi(&s{x}), vi(&s{})]);", *d);
            }
            other => panic!("MakeIndex({other})"),
        },
        Instr::MakeStruct(sid, n) => {
            let b = *d - n as usize;
            let args: Vec<String> = (b..*d).map(|i| format!("tk(&mut s{i})")).collect();
            w!(out, "{IND}s{b} = V::S({sid}u32, Rc::new(vec![{}]));", args.join(", "));
            *d = b + 1;
        }
        Instr::Intr(op, argc) => {
            let n = argc as usize;
            let b = *d - n;
            let ps: Vec<Place> = (b..*d).map(Place::St).collect();
            w!(out, "{IND}s{b} = {};", intr_v(code, op, &ps));
            *d = b + 1;
        }
        Instr::Call(c) => {
            let callee = c as usize;
            let n = code.funcs[callee].nparams;
            let b = *d - n;
            let args: String = (b..*d).map(|i| format!(", tk(&mut s{i})")).collect();
            w!(out, "{IND}s{b} = f{callee}(cx{args});");
            *d = b + 1;
        }
        Instr::Skel(s) => emit_skel(out, code, s as usize, d),
        Instr::Ret => {
            *d -= 1;
            w!(out, "{IND}return tk(&mut s{});", *d);
            return true;
        }
        Instr::RetUnit => {
            w!(out, "{IND}return V::U;");
            return true;
        }
        Instr::BinS(op, float, l, r) => {
            let (ps, ntop) = places(&[l, r], *d);
            let b = *d - ntop;
            w!(out, "{IND}s{b} = {};", bin_v(code, op, float, ps[0], ps[1]));
            *d = b + 1;
        }
        Instr::BinStore(op, float, l, r, dst) => {
            let (ps, ntop) = places(&[l, r], *d);
            *d -= ntop;
            w!(out, "{IND}l{dst} = {};", bin_v(code, op, float, ps[0], ps[1]));
        }
        Instr::JumpCmpZ(op, float, l, r, t) => {
            let (ps, ntop) = places(&[l, r], *d);
            *d -= ntop;
            let e = bin_i(code, op, float, ps[0], ps[1]);
            w!(out, "{IND}if ({e}) == 0 {{ blk = {t}; continue; }}");
        }
        Instr::JumpCmpNz(op, float, l, r, t) => {
            let (ps, ntop) = places(&[l, r], *d);
            *d -= ntop;
            let e = bin_i(code, op, float, ps[0], ps[1]);
            w!(out, "{IND}if ({e}) != 0 {{ blk = {t}; continue; }}");
        }
        Instr::JumpZS(s, t) => {
            let (ps, ntop) = places(&[s], *d);
            *d -= ntop;
            w!(out, "{IND}if {} == 0 {{ blk = {t}; continue; }}", p_int(code, ps[0]));
        }
        Instr::JumpNzS(s, t) => {
            let (ps, ntop) = places(&[s], *d);
            *d -= ntop;
            w!(out, "{IND}if {} != 0 {{ blk = {t}; continue; }}", p_int(code, ps[0]));
        }
        Instr::StoreS(dst, s) => {
            let (ps, ntop) = places(&[s], *d);
            *d -= ntop;
            w!(out, "{IND}l{dst} = {};", p_own(code, ps[0]));
        }
        Instr::RetS(s) => {
            let (ps, _) = places(&[s], *d);
            w!(out, "{IND}return {};", p_own(code, ps[0]));
            return true;
        }
        Instr::FieldS(s, i) => {
            let (ps, ntop) = places(&[s], *d);
            let b = *d - ntop;
            w!(out, "{IND}s{b} = field({}, {i}usize);", p_own(code, ps[0]));
            *d = b + 1;
        }
        Instr::IndexAtS(x, c) => {
            let (ps, ntop) = places(&[x, c], *d);
            let b = *d - ntop;
            w!(out, "{IND}s{b} = index_at({}, {});", p_ref(code, ps[0]), p_int(code, ps[1]));
            *d = b + 1;
        }
        Instr::IntrS(op, argc, srcs) => {
            let (ps, ntop) = places(&srcs[..argc as usize], *d);
            let b = *d - ntop;
            w!(out, "{IND}s{b} = {};", intr_v(code, op, &ps));
            *d = b + 1;
        }
        Instr::ArrGetI1(a, i) => {
            let (ps, ntop) = places(&[a, i], *d);
            let b = *d - ntop;
            let (pa, pi) = (p_arr(code, ps[0]), p_int(code, ps[1]));
            w!(out, "{IND}s{b} = get_elem(cx, {pa}, [{pi}, 0i64]);");
            *d = b + 1;
        }
        Instr::ArrGetI2(a, i, j) => {
            let (ps, ntop) = places(&[a, i, j], *d);
            let b = *d - ntop;
            let (pa, pi, pj) = (p_arr(code, ps[0]), p_int(code, ps[1]), p_int(code, ps[2]));
            w!(out, "{IND}s{b} = get_elem(cx, {pa}, [{pi}, {pj}]);");
            *d = b + 1;
        }
    }
    false
}

/// A skeleton call site: encode the stacked arguments, call back into
/// the host's full skeleton dispatch, decode the result.
fn emit_skel(out: &mut String, code: &Program, site_ix: usize, d: &mut usize) {
    let site = &code.sites[site_ix];
    let m = site.nargs + site.fns.iter().map(|f| f.n_lifted).sum::<usize>();
    let b = *d - m;
    w!(out, "{IND}{{");
    w!(out, "{IND}    cx.pb.borrow_mut().clear();");
    w!(out, "{IND}    fl(cx);");
    w!(out, "{IND}    let mut buf = cx.buf.replace(Vec::new());");
    w!(out, "{IND}    buf.clear();");
    w!(out, "{IND}    let mut av = cx.argv.replace(Vec::new());");
    w!(out, "{IND}    av.clear();");
    for i in b..*d {
        w!(out, "{IND}    av.push(enc(&s{i}, &mut buf));");
    }
    w!(out, "{IND}    let mut o = FfiVal {{ tag: 0, a: 0, b: 0 }};");
    w!(
        out,
        "{IND}    let st = (cx.vt.skel)(cx.h, {site_ix}u32, av.as_ptr(), av.len() as u32, \
         buf.as_ptr(), buf.len(), &mut o);"
    );
    w!(out, "{IND}    cx.buf.set(buf);");
    w!(out, "{IND}    cx.argv.set(av);");
    w!(out, "{IND}    if st != 0 {{");
    w!(out, "{IND}        hfail();");
    w!(out, "{IND}    }}");
    w!(out, "{IND}    s{b} = unsafe {{ dec(&o) }};");
    w!(out, "{IND}}}");
    for i in (b + 1)..*d {
        w!(out, "{IND}s{i} = V::U;");
    }
    *d = b + 1;
}

// ---------------------------------------------------------------------
// The fixed prelude of every generated module.
// ---------------------------------------------------------------------

/// Value representation, FFI encoding, host vtable, and panic protocol.
/// `HostVt` must stay layout-identical to the struct of the same name
/// in `crate::native`.
const PRELUDE: &str = r##"
#![allow(unused_variables, unused_mut, unused_assignments, dead_code)]
#![allow(unreachable_code, unused_parens, unused_unsafe)]
#![allow(clippy::all)]

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::ffi::c_void;
use std::mem;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Once;

// ---- values ----

#[derive(Clone, Debug)]
enum V {
    U,
    I(i64),
    F(f64),
    Ix([i64; 2]),
    B(Rc<([i64; 2], [i64; 2])>),
    S(u32, Rc<Vec<V>>),
    L(Lst),
    A(usize),
}

#[derive(Clone, Debug, Default)]
struct Lst(Option<Rc<Node>>);

#[derive(Debug)]
struct Node {
    v: V,
    len: usize,
    next: Option<Rc<Node>>,
}

impl Drop for Lst {
    fn drop(&mut self) {
        // iterative: a long unshared spine must not recurse
        let mut cur = self.0.take();
        while let Some(rc) = cur {
            match Rc::try_unwrap(rc) {
                Ok(mut n) => cur = n.next.take(),
                Err(_) => break,
            }
        }
    }
}

impl Lst {
    fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |n| n.len)
    }

    fn cons(v: V, rest: &Lst) -> Lst {
        Lst(Some(Rc::new(Node { v, len: rest.len() + 1, next: rest.0.clone() })))
    }

    fn from_vec(items: Vec<V>) -> Lst {
        let mut out = Lst(None);
        for v in items.into_iter().rev() {
            out = Lst::cons(v, &out);
        }
        out
    }

    fn to_vec(&self) -> Vec<V> {
        let mut out = Vec::with_capacity(self.len());
        let mut cur = &self.0;
        while let Some(n) = cur {
            out.push(n.v.clone());
            cur = &n.next;
        }
        out
    }
}

fn tk(v: &mut V) -> V {
    mem::replace(v, V::U)
}

fn vi(v: &V) -> i64 {
    match v {
        V::I(x) => *x,
        other => panic!("expected int, got {other:?}"),
    }
}

fn vf(v: &V) -> f64 {
    match v {
        V::F(x) => *x,
        other => panic!("expected float, got {other:?}"),
    }
}

fn vix(v: &V) -> [i64; 2] {
    match v {
        V::Ix(x) => *x,
        other => panic!("expected Index, got {other:?}"),
    }
}

fn va(v: &V) -> usize {
    match v {
        V::A(h) => *h,
        other => panic!("expected array, got {other:?}"),
    }
}

fn idiv(x: i64, y: i64) -> i64 {
    assert!(y != 0, "skil runtime: integer division by zero");
    x.wrapping_div(y)
}

fn irem(x: i64, y: i64) -> i64 {
    assert!(y != 0, "skil runtime: integer remainder by zero");
    x.wrapping_rem(y)
}

fn lop_f() -> V {
    panic!("skil runtime: logical op on float")
}

fn log2i(n: i64) -> i64 {
    assert!(n > 0, "skil runtime: log2i of non-positive value");
    (64 - ((n - 1).max(0) as u64).leading_zeros() as i64).max(0)
}

fn err_call(n: i64) -> V {
    panic!("skil runtime: program called error({n})")
}

fn field(v: V, i: usize) -> V {
    match v {
        V::S(_, fs) => fs[i].clone(),
        V::B(b) => V::Ix(if i == 0 { b.0 } else { b.1 }),
        other => panic!("skil runtime: field access on {other:?}"),
    }
}

fn index_at(ix: &V, i: i64) -> V {
    let x = vix(ix);
    assert!((0..2).contains(&i), "skil runtime: Index component {i} out of range");
    V::I(x[i as usize])
}

fn hd(v: &V) -> V {
    match v {
        V::L(l) => match &l.0 {
            Some(n) => n.v.clone(),
            None => panic!("skil runtime: head of an empty list"),
        },
        other => panic!("skil runtime: head of {other:?}"),
    }
}

fn tl(v: &V) -> V {
    match v {
        V::L(l) => match &l.0 {
            Some(n) => V::L(Lst(n.next.clone())),
            None => panic!("skil runtime: tail of an empty list"),
        },
        other => panic!("skil runtime: tail of {other:?}"),
    }
}

fn ln(v: &V) -> V {
    match v {
        V::L(l) => V::I(l.len() as i64),
        other => panic!("skil runtime: len of {other:?}"),
    }
}

fn cons(x: V, l: &V) -> V {
    match l {
        V::L(rest) => V::L(Lst::cons(x, rest)),
        _ => panic!("skil runtime: cons onto a non-list"),
    }
}

fn append(a: &V, b: &V) -> V {
    match (a, b) {
        (V::L(x), V::L(y)) => {
            let mut out = Lst(y.0.clone());
            for v in x.to_vec().into_iter().rev() {
                out = Lst::cons(v, &out);
            }
            V::L(out)
        }
        _ => panic!("skil runtime: append of non-lists"),
    }
}

// ---- FFI ----

#[repr(C)]
#[derive(Clone, Copy)]
struct FfiVal {
    tag: u64,
    a: u64,
    b: u64,
}

const T_UNIT: u64 = 0;
const T_INT: u64 = 1;
const T_FLT: u64 = 2;
const T_ARR: u64 = 3;
const T_IX: u64 = 4;
const T_BYTES: u64 = 5;

// Direction convention: values we SEND carry byte-stream OFFSETS in
// `a` (the buffer may reallocate while later arguments encode; the
// callee gets the final base pointer separately). Values we RECEIVE
// carry ABSOLUTE pointers (the host's buffer is stable for the call).
#[repr(C)]
#[derive(Clone, Copy)]
struct HostVt {
    // charge takes a pre-summed cycle count, not a cost index: charges
    // accumulate generated-side and flush at host-visible points
    charge: extern "C" fn(*mut c_void, u64) -> i32,
    get_elem: extern "C" fn(*mut c_void, u64, i64, i64, *mut FfiVal) -> i32,
    put_elem: extern "C" fn(*mut c_void, u64, i64, i64, *const FfiVal, *const u8, usize) -> i32,
    part_bounds: extern "C" fn(*mut c_void, u64, *mut i64) -> i32,
    print: extern "C" fn(*mut c_void, *const FfiVal, *const u8, usize) -> i32,
    skel: extern "C" fn(*mut c_void, u32, *const FfiVal, u32, *const u8, usize, *mut FfiVal) -> i32,
    set_error: extern "C" fn(*mut c_void, *const u8, usize),
}

// Shared (not &mut) across reentrant FFI frames; scratch buffers live
// in Cells and are taken/restored around host calls.
struct Cx {
    h: *mut c_void,
    vt: HostVt,
    me: i64,
    np: i64,
    // per-proc resolved cost table (host-owned, outlives the ctx) and
    // the pending-cycle accumulator it feeds
    costs: *const u64,
    acc: Cell<u64>,
    buf: Cell<Vec<u8>>,
    argv: Cell<Vec<FfiVal>>,
    // partition-bounds memo, cleared before every skeleton call
    pb: RefCell<Vec<(usize, V)>>,
}

/// A host callback already failed (the host holds the real payload);
/// unwind quietly to the entry point.
struct FfiAbort;

fn hfail() -> V {
    panic_any(FfiAbort)
}

fn enc(v: &V, buf: &mut Vec<u8>) -> FfiVal {
    match v {
        V::U => FfiVal { tag: T_UNIT, a: 0, b: 0 },
        V::I(x) => FfiVal { tag: T_INT, a: *x as u64, b: 0 },
        V::F(x) => FfiVal { tag: T_FLT, a: x.to_bits(), b: 0 },
        V::A(h) => FfiVal { tag: T_ARR, a: *h as u64, b: 0 },
        V::Ix(ix) => FfiVal { tag: T_IX, a: ix[0] as u64, b: ix[1] as u64 },
        other => {
            let start = buf.len();
            enc_bytes(other, buf);
            FfiVal { tag: T_BYTES, a: start as u64, b: (buf.len() - start) as u64 }
        }
    }
}

fn enc_bytes(v: &V, buf: &mut Vec<u8>) {
    match v {
        V::U => buf.push(0),
        V::I(x) => {
            buf.push(1);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        V::F(x) => {
            buf.push(2);
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        V::A(h) => {
            buf.push(3);
            buf.extend_from_slice(&(*h as u64).to_le_bytes());
        }
        V::Ix(ix) => {
            buf.push(4);
            for c in ix {
                buf.extend_from_slice(&c.to_le_bytes());
            }
        }
        V::B(b) => {
            buf.push(5);
            for c in [b.0[0], b.0[1], b.1[0], b.1[1]] {
                buf.extend_from_slice(&c.to_le_bytes());
            }
        }
        V::S(sid, fs) => {
            buf.push(6);
            buf.extend_from_slice(&sid.to_le_bytes());
            buf.extend_from_slice(&(fs.len() as u32).to_le_bytes());
            for f in fs.iter() {
                enc_bytes(f, buf);
            }
        }
        V::L(l) => {
            buf.push(7);
            buf.extend_from_slice(&(l.len() as u64).to_le_bytes());
            let mut cur = &l.0;
            while let Some(n) = cur {
                enc_bytes(&n.v, buf);
                cur = &n.next;
            }
        }
    }
}

fn rd<const N: usize>(s: &[u8], p: &mut usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&s[*p..*p + N]);
    *p += N;
    out
}

fn dec_bytes(s: &[u8], p: &mut usize) -> V {
    let tag = s[*p];
    *p += 1;
    match tag {
        0 => V::U,
        1 => V::I(i64::from_le_bytes(rd(s, p))),
        2 => V::F(f64::from_bits(u64::from_le_bytes(rd(s, p)))),
        3 => V::A(u64::from_le_bytes(rd(s, p)) as usize),
        4 => V::Ix([i64::from_le_bytes(rd(s, p)), i64::from_le_bytes(rd(s, p))]),
        5 => {
            let lo = [i64::from_le_bytes(rd(s, p)), i64::from_le_bytes(rd(s, p))];
            let up = [i64::from_le_bytes(rd(s, p)), i64::from_le_bytes(rd(s, p))];
            V::B(Rc::new((lo, up)))
        }
        6 => {
            let sid = u32::from_le_bytes(rd(s, p));
            let n = u32::from_le_bytes(rd(s, p)) as usize;
            let mut fs = Vec::with_capacity(n);
            for _ in 0..n {
                fs.push(dec_bytes(s, p));
            }
            V::S(sid, Rc::new(fs))
        }
        7 => {
            let n = u64::from_le_bytes(rd(s, p)) as usize;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(dec_bytes(s, p));
            }
            V::L(Lst::from_vec(items))
        }
        other => panic!("bad wire tag {other}"),
    }
}

/// Decode a received value; `T_BYTES` carries an absolute pointer.
unsafe fn dec(v: &FfiVal) -> V {
    match v.tag {
        T_UNIT => V::U,
        T_INT => V::I(v.a as i64),
        T_FLT => V::F(f64::from_bits(v.a)),
        T_ARR => V::A(v.a as usize),
        T_IX => V::Ix([v.a as i64, v.b as i64]),
        T_BYTES => {
            let s = std::slice::from_raw_parts(v.a as *const u8, v.b as usize);
            dec_bytes(s, &mut 0)
        }
        other => panic!("bad ffi tag {other}"),
    }
}

// ---- host calls ----

// Charges accumulate locally and flush as one host call before any
// host-visible operation (array access, print, skeleton dispatch) and
// at program exit. Between those points pending cycles are unobservable
// to every other processor, so virtual time at every observable point —
// and the final totals — are bit-identical to charging eagerly.
#[inline]
fn chg(cx: &Cx, i: u32) {
    let c = unsafe { *cx.costs.add(i as usize) };
    cx.acc.set(cx.acc.get().wrapping_add(c));
}

fn fl(cx: &Cx) {
    let a = cx.acc.replace(0);
    if a != 0 && (cx.vt.charge)(cx.h, a) != 0 {
        hfail();
    }
}

fn get_elem(cx: &Cx, h: usize, ix: [i64; 2]) -> V {
    fl(cx);
    let mut out = FfiVal { tag: 0, a: 0, b: 0 };
    if (cx.vt.get_elem)(cx.h, h as u64, ix[0], ix[1], &mut out) != 0 {
        return hfail();
    }
    unsafe { dec(&out) }
}

fn put_elem(cx: &Cx, h: usize, ix: [i64; 2], v: &V) -> V {
    fl(cx);
    let mut buf = cx.buf.replace(Vec::new());
    buf.clear();
    let fv = enc(v, &mut buf);
    let st = (cx.vt.put_elem)(cx.h, h as u64, ix[0], ix[1], &fv, buf.as_ptr(), buf.len());
    cx.buf.set(buf);
    if st != 0 {
        return hfail();
    }
    V::U
}

// Partition bounds are fixed at creation and handles are never reused,
// so bounds memoize per handle. The memo clears before every skeleton
// call — the only operation that can destroy an array — so querying a
// destroyed array still reaches the host and fails exactly like the
// interpreted engines do.
fn part_bounds(cx: &Cx, h: usize) -> V {
    if let Some((_, v)) = cx.pb.borrow().iter().find(|(hh, _)| *hh == h) {
        return v.clone();
    }
    fl(cx);
    let mut o = [0i64; 4];
    if (cx.vt.part_bounds)(cx.h, h as u64, o.as_mut_ptr()) != 0 {
        return hfail();
    }
    let v = V::B(Rc::new(([o[0], o[1]], [o[2], o[3]])));
    cx.pb.borrow_mut().push((h, v.clone()));
    v
}

fn print(cx: &Cx, v: &V) -> V {
    fl(cx);
    let mut buf = cx.buf.replace(Vec::new());
    buf.clear();
    let fv = enc(v, &mut buf);
    let st = (cx.vt.print)(cx.h, &fv, buf.as_ptr(), buf.len());
    cx.buf.set(buf);
    if st != 0 {
        return hfail();
    }
    V::U
}

fn report(cx: &Cx, e: Box<dyn Any + Send>) {
    if e.is::<FfiAbort>() {
        // the host callback that failed already stashed the payload
        return;
    }
    let msg: &str = if let Some(s) = e.downcast_ref::<String>() {
        s
    } else if let Some(s) = e.downcast_ref::<&'static str>() {
        s
    } else {
        "native module panicked"
    };
    (cx.vt.set_error)(cx.h, msg.as_ptr(), msg.len());
}

static QUIET: Once = Once::new();

#[no_mangle]
pub extern "C" fn skil_ctx_new(
    h: *mut c_void,
    vt: *const HostVt,
    me: i64,
    np: i64,
    costs: *const u64,
) -> *mut c_void {
    // this cdylib has its own std: silence its default "panicked at"
    // report — every unwind here is caught and reported structurally
    QUIET.call_once(|| std::panic::set_hook(Box::new(|_| {})));
    let vt = unsafe { *vt };
    Box::into_raw(Box::new(Cx {
        h,
        vt,
        me,
        np,
        costs,
        acc: Cell::new(0),
        buf: Cell::new(Vec::new()),
        argv: Cell::new(Vec::new()),
        pb: RefCell::new(Vec::new()),
    })) as *mut c_void
}

#[no_mangle]
pub extern "C" fn skil_ctx_free(p: *mut c_void) {
    if !p.is_null() {
        drop(unsafe { Box::from_raw(p as *mut Cx) });
    }
}

"##;

#[cfg(test)]
mod tests {
    use crate::compile;

    #[test]
    fn emits_a_self_contained_module() {
        let c = compile(
            "int addmul(int a, int b) { return a * b + 3; }\n\
             void main() { if (procId == 0) { print(addmul(6, 7)); } }",
        )
        .expect("compiles");
        let src = c.emit_rust();
        assert!(src.contains("pub extern \"C\" fn skil_main"));
        assert!(src.contains("pub extern \"C\" fn skil_abi"));
        assert!(src.contains("struct HostVt"));
        // main's charges survive as host callbacks
        assert!(src.contains("chg(cx, "));
    }
}
