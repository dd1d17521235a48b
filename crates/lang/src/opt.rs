//! The bytecode optimizer: `compile_program` output → faster bytecode,
//! **bit-identical virtual time**.
//!
//! `compile_program` emits a naive one-instruction-per-IR-node stream.
//! This module rewrites it — constant folding, copy/constant propagation
//! over frame slots, dead-store and dead-slot elimination, fusion into
//! the superinstructions of [`crate::bytecode::Src`], and inlining of
//! small leaf functions — without moving a single virtual cycle.
//!
//! ## The charge-preservation obligation
//!
//! Virtual time is carried by [`Instr::Charge`] instructions that are
//! *separate* from the computation they price. The optimizer therefore
//! never deletes or scales a charge: folding a computation away leaves
//! its charge behind as a detached time-advance, and fusing a sequence
//! merges the charges that sat between its parts. Merging (and hence
//! any implied motion of a charge) is legal exactly when no *observable
//! point* lies between the merged positions. The clock is observable
//! only where the runtime snapshots or synchronizes it: communication
//! and trace spans, which the bytecode reaches through `Skel`
//! instructions, plus the interleaved charges of a callee (`Call`), plus
//! any instruction a jump can land on (a label). Everything else —
//! loads, stores, arithmetic, even local `array_get_elem` (verified
//! communication-free in `skil-array`) — is charge-transparent. The
//! merge barrier set is therefore `{label, jump, Call, Skel, Ret}`; a
//! charge never crosses one. (A program that *panics* mid-expression may
//! observe a different partial sum at the abort point; aborts carry no
//! virtual-time contract.)
//!
//! ## Pass pipeline
//!
//! 1. **Label abstraction**: jump targets become label items so passes
//!    can insert and delete instructions freely.
//! 2. **Inlining**: calls to small leaf functions (no `Call`, no
//!    `Skel`) splice the callee body with rebased slots; the call-site
//!    `Charge` (which prices the call) stays, so time is unchanged.
//! 3. **Forward local pass**: abstract-stack simulation with
//!    deferred operand descriptors. Pushes of slots/constants are
//!    deferred and either cancelled (folding, propagation) or fused into
//!    superinstruction operands; charge merging rides the same walk.
//! 4. **Dead-store elimination**: backward liveness over the CFG;
//!    a dead `Store` degrades to `Pop`, a dead `StoreS` disappears.
//! 5. **Slot compaction**: surviving slots renumber densely
//!    (parameters keep their positions — the VM's argument drain
//!    depends on them).
//! 6. **Label resolution** back to pc-relative jumps.

#![forbid(unsafe_code)]

use std::collections::HashMap;

use crate::bytecode::{CompiledFunc, CostExpr, Instr, Intr, Program, Src};
use crate::fo::BinOp;
use crate::scalar::{float_arith, float_cmp, int_bin, neg_int};
use crate::value::Value;

/// How hard to optimize. `O0` returns `compile_program` output
/// untouched, the reference the optimized code is held to; `O2` runs
/// every pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// Raw `compile_program` bytecode.
    O0,
    /// Leaf inlining, folding, propagation, fusion, dead-store/slot
    /// elimination.
    #[default]
    O2,
}

impl OptLevel {
    /// Parse a `--opt-level` argument.
    pub fn from_arg(s: &str) -> Option<OptLevel> {
        match s {
            "0" => Some(OptLevel::O0),
            "2" => Some(OptLevel::O2),
            _ => None,
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptLevel::O0 => write!(f, "0"),
            OptLevel::O2 => write!(f, "2"),
        }
    }
}

/// Per-pass counters (`skilc --emit-bytecode` prints these to stderr).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Instructions across all functions before optimization.
    pub instrs_before: usize,
    /// Instructions across all functions after optimization.
    pub instrs_after: usize,
    /// Call sites replaced by a spliced callee body.
    pub calls_inlined: usize,
    /// Constant expressions evaluated at compile time.
    pub consts_folded: usize,
    /// Loads answered from the slot lattice (copy or constant).
    pub props: usize,
    /// Superinstructions emitted (fused operand fetches).
    pub fused: usize,
    /// Adjacent-in-effect charges merged into one.
    pub charges_merged: usize,
    /// Statically-decided branches removed.
    pub branches_folded: usize,
    /// Unreachable instructions dropped.
    pub dead_code: usize,
    /// Dead stores eliminated or degraded to `Pop`.
    pub stores_eliminated: usize,
    /// Frame slots removed by compaction.
    pub slots_eliminated: usize,
}

impl std::fmt::Display for OptStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "opt: instrs {} -> {}", self.instrs_before, self.instrs_after)?;
        writeln!(f, "opt: inline       {:>6} call sites", self.calls_inlined)?;
        writeln!(
            f,
            "opt: fold         {:>6} consts, {} branches",
            self.consts_folded, self.branches_folded
        )?;
        writeln!(f, "opt: propagate    {:>6} loads", self.props)?;
        writeln!(f, "opt: fuse         {:>6} superinstructions", self.fused)?;
        writeln!(f, "opt: charges      {:>6} merged", self.charges_merged)?;
        writeln!(
            f,
            "opt: dead         {:>6} stores, {} unreachable instrs",
            self.stores_eliminated, self.dead_code
        )?;
        write!(f, "opt: slots        {:>6} eliminated", self.slots_eliminated)
    }
}

// ---------------------------------------------------------------------
// Pool interning (the optimizer adds folded constants / merged charges).
// ---------------------------------------------------------------------

#[derive(PartialEq, Eq, Hash)]
enum CKey {
    Unit,
    Int(i64),
    Float(u64),
}

impl CKey {
    fn of(v: &Value) -> Option<CKey> {
        match v {
            Value::Unit => Some(CKey::Unit),
            Value::Int(i) => Some(CKey::Int(*i)),
            Value::Float(f) => Some(CKey::Float(f.to_bits())),
            _ => None,
        }
    }
}

struct Intern {
    consts: Vec<Value>,
    const_ix: HashMap<CKey, u32>,
    costs: Vec<CostExpr>,
    cost_ix: HashMap<CostExpr, u32>,
}

impl Intern {
    fn new(consts: Vec<Value>, costs: Vec<CostExpr>) -> Intern {
        // sized for the few entries folding and merging add, so that
        // neither map rehashes
        let mut const_ix = HashMap::with_capacity(consts.len() + 16);
        const_ix.extend(
            consts.iter().enumerate().filter_map(|(i, v)| CKey::of(v).map(|k| (k, i as u32))),
        );
        let mut cost_ix = HashMap::with_capacity(costs.len() * 2 + 16);
        cost_ix.extend(costs.iter().enumerate().map(|(i, c)| (*c, i as u32)));
        Intern { consts, const_ix, costs, cost_ix }
    }

    fn konst(&mut self, v: Value) -> u32 {
        let key = CKey::of(&v).expect("only scalar constants are interned");
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

// ---------------------------------------------------------------------
// Label abstraction.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Item {
    /// A jump target. Carries no runtime effect.
    Label(u32),
    I(Instr),
}

pub(crate) fn jump_label(ins: &Instr) -> Option<u32> {
    match ins {
        Instr::Jump(t)
        | Instr::JumpIfZero(t)
        | Instr::JumpIfNonZero(t)
        | Instr::JumpZS(_, t)
        | Instr::JumpNzS(_, t)
        | Instr::JumpCmpZ(_, _, _, _, t)
        | Instr::JumpCmpNz(_, _, _, _, t) => Some(*t),
        _ => None,
    }
}

fn set_jump_label(ins: &mut Instr, l: u32) {
    match ins {
        Instr::Jump(t)
        | Instr::JumpIfZero(t)
        | Instr::JumpIfNonZero(t)
        | Instr::JumpZS(_, t)
        | Instr::JumpNzS(_, t)
        | Instr::JumpCmpZ(_, _, _, _, t)
        | Instr::JumpCmpNz(_, _, _, _, t) => *t = l,
        other => unreachable!("set_jump_label on {other:?}"),
    }
}

/// Abstract pc-based jumps into label items. Returns the items and the
/// number of labels allocated.
fn to_items(code: &[Instr]) -> (Vec<Item>, u32) {
    // pc -> label, numbered in order of first mention (`NONE`: no target)
    let mut label_at = vec![NONE; code.len() + 1];
    let mut nlabels = 0u32;
    for ins in code {
        if let Some(t) = jump_label(ins) {
            if label_at[t as usize] == NONE {
                label_at[t as usize] = nlabels;
                nlabels += 1;
            }
        }
    }
    let mut items = Vec::with_capacity(code.len() + nlabels as usize);
    for (pc, ins) in code.iter().enumerate() {
        if label_at[pc] != NONE {
            items.push(Item::Label(label_at[pc]));
        }
        let mut ins = *ins;
        if let Some(t) = jump_label(&ins) {
            set_jump_label(&mut ins, label_at[t as usize]);
        }
        items.push(Item::I(ins));
    }
    if label_at[code.len()] != NONE {
        items.push(Item::Label(label_at[code.len()]));
    }
    (items, nlabels)
}

/// Resolve label items (numbered below `nlabels`) back into pc targets.
fn from_items(items: &[Item], nlabels: u32) -> Vec<Instr> {
    let mut label_pc = vec![NONE; nlabels as usize];
    let mut pc = 0u32;
    for item in items {
        match item {
            Item::Label(l) => label_pc[*l as usize] = pc,
            Item::I(_) => pc += 1,
        }
    }
    let mut code = Vec::with_capacity(pc as usize);
    for item in items {
        if let Item::I(ins) = item {
            let mut ins = *ins;
            if let Some(l) = jump_label(&ins) {
                set_jump_label(&mut ins, label_pc[l as usize]);
            }
            code.push(ins);
        }
    }
    code
}

// ---------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------

/// Optimize a compiled program. The result computes the same values,
/// prints the same output, and charges the same cycles at every
/// observable point as the input, at every opt level.
pub fn optimize(p: &Program, level: OptLevel) -> (Program, OptStats) {
    let mut stats = OptStats {
        instrs_before: p.funcs.iter().map(|f| f.code.len()).sum(),
        ..Default::default()
    };
    if level == OptLevel::O0 {
        stats.instrs_after = stats.instrs_before;
        return (p.clone(), stats);
    }
    let mut intern = Intern::new(p.consts.clone(), p.costs.clone());
    let can_inline: Vec<bool> = p.funcs.iter().map(inlinable).collect();
    let mut funcs = Vec::with_capacity(p.funcs.len());
    for (fid, src) in p.funcs.iter().enumerate() {
        let (mut items, mut nlabels) = to_items(&src.code);
        let mut nslots = src.nslots;
        inline_pass(
            &mut items,
            &mut nlabels,
            &mut nslots,
            fid,
            &p.funcs,
            &can_inline,
            &mut intern,
            &mut stats,
        );
        let items = forward_pass(items, p, &mut intern, &mut stats);
        let mut items = items;
        dse(&mut items, nlabels, &mut stats);
        let nslots = compact_slots(&mut items, src.nparams, nslots, &mut stats);
        funcs.push(CompiledFunc { code: from_items(&items, nlabels), nslots, ..*src });
    }
    // the pools grew by pushes; the result is kept, so give back the slack
    intern.consts.shrink_to_fit();
    intern.costs.shrink_to_fit();
    stats.instrs_after = funcs.iter().map(|f| f.code.len()).sum();
    let out = Program {
        funcs,
        consts: intern.consts,
        costs: intern.costs,
        sites: p.sites.clone(),
        main: p.main,
    };
    (out, stats)
}

// ---------------------------------------------------------------------
// Inlining.
// ---------------------------------------------------------------------

/// Small leaf functions only: no further calls (so splicing terminates
/// and the charge stream stays a simple interleaving) and no skeleton
/// dispatch (a merge barrier we will not move).
fn inlinable(f: &CompiledFunc) -> bool {
    f.code.len() <= 24 && !f.code.iter().any(|i| matches!(i, Instr::Call(_) | Instr::Skel(_)))
}

/// Remove instructions that follow an unconditional terminator with no
/// intervening label — they can never execute.
fn strip_dead(items: &mut Vec<Item>) {
    let mut dead = false;
    items.retain(|it| match it {
        Item::Label(_) => {
            dead = false;
            true
        }
        Item::I(ins) => {
            if dead {
                return false;
            }
            if matches!(ins, Instr::Jump(_) | Instr::Ret | Instr::RetUnit) {
                dead = true;
            }
            true
        }
    });
}

#[allow(clippy::too_many_arguments)]
fn inline_pass(
    items: &mut Vec<Item>,
    nlabels: &mut u32,
    nslots: &mut usize,
    self_fid: usize,
    funcs: &[CompiledFunc],
    can_inline: &[bool],
    intern: &mut Intern,
    stats: &mut OptStats,
) {
    let mut out = Vec::with_capacity(items.len());
    for item in items.iter() {
        let Item::I(Instr::Call(fid)) = item else {
            out.push(*item);
            continue;
        };
        let callee_id = *fid as usize;
        let callee = &funcs[callee_id];
        if callee_id == self_fid
            || !can_inline[callee_id]
            || *nslots + callee.nslots > u16::MAX as usize
        {
            out.push(*item);
            continue;
        }
        // arguments sit on the stack in parameter order; drain them into
        // the callee's (rebased) parameter slots, last parameter first
        let base = *nslots as u16;
        *nslots += callee.nslots;
        for p in (0..callee.nparams).rev() {
            out.push(Item::I(Instr::Store(base + p as u16)));
        }
        let (mut body, body_labels) = to_items(&callee.code);
        // drop the compiler's unreachable fallback `ret_unit` (and any
        // other dead tail) so a body ending in `ret` splices without an
        // epilogue jump
        strip_dead(&mut body);
        let lbase = *nlabels;
        *nlabels += body_labels;
        // an epilogue label is only needed (and only emitted — a stray
        // label would block folding across the inline boundary) when a
        // return occurs before the end of the body
        let early_ret = body[..body.len().saturating_sub(1)]
            .iter()
            .any(|b| matches!(b, Item::I(Instr::Ret) | Item::I(Instr::RetUnit)));
        let l_end = *nlabels;
        *nlabels += 1;
        let unit = intern.konst(Value::Unit);
        for (k, bi) in body.iter().enumerate() {
            let last = k + 1 == body.len();
            match bi {
                Item::Label(l) => out.push(Item::Label(lbase + l)),
                Item::I(ins) => {
                    let mut ins = *ins;
                    match &mut ins {
                        Instr::Load(s) | Instr::Store(s) => *s += base,
                        Instr::Ret => {
                            // the value is already on the stack
                            if !last {
                                out.push(Item::I(Instr::Jump(l_end)));
                            }
                            continue;
                        }
                        Instr::RetUnit => {
                            out.push(Item::I(Instr::Const(unit)));
                            if !last {
                                out.push(Item::I(Instr::Jump(l_end)));
                            }
                            continue;
                        }
                        _ => {
                            if let Some(t) = jump_label(&ins) {
                                set_jump_label(&mut ins, lbase + t);
                            }
                        }
                    }
                    out.push(Item::I(ins));
                }
            }
        }
        if early_ret {
            out.push(Item::Label(l_end));
        }
        stats.calls_inlined += 1;
    }
    *items = out;
}

// ---------------------------------------------------------------------
// The forward local pass.
// ---------------------------------------------------------------------

/// What we know about a value the original code would have pushed.
/// `Slot`/`Cst` are *deferred*: nothing was emitted yet, and by
/// construction deferred descriptors always form a contiguous suffix of
/// the virtual stack (any emission that pushes real values flushes the
/// deferred ones first).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Desc {
    /// On the real stack. `Some(k)` when produced by `out[k]` and `out[k]`
    /// is a `Bin`/`BinS` (candidate for compare/store fusion).
    Top(Option<usize>),
    Slot(u16),
    Cst(u32),
}

/// Slot lattice for copy/constant propagation (reset at labels).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Know {
    Unk,
    Cst(u32),
    Eq(u16),
}

struct Fwd<'a> {
    prog: &'a Program,
    intern: &'a mut Intern,
    stats: &'a mut OptStats,
    out: Vec<Item>,
    vs: Vec<Desc>,
    lat: Vec<Know>,
    /// Index into `out` of the charge later charges may merge into;
    /// cleared at every merge barrier.
    last_charge: Option<usize>,
}

fn forward_pass(
    items: Vec<Item>,
    prog: &Program,
    intern: &mut Intern,
    stats: &mut OptStats,
) -> Vec<Item> {
    let nslots = items
        .iter()
        .filter_map(|i| match i {
            Item::I(Instr::Load(s)) | Item::I(Instr::Store(s)) => Some(*s as usize + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut f = Fwd {
        prog,
        intern,
        stats,
        out: Vec::with_capacity(items.len()),
        vs: Vec::new(),
        lat: vec![Know::Unk; nslots],
        last_charge: None,
    };
    let mut dead = false;
    let mut i = 0;
    while i < items.len() {
        match items[i] {
            Item::Label(l) => {
                dead = false;
                f.flush_all();
                f.vs.clear();
                f.lat.fill(Know::Unk);
                f.out.push(Item::Label(l));
                f.barrier();
            }
            Item::I(_) if dead => {
                // unreachable: between an unconditional terminator and
                // the next label. Its charges never executed either.
                f.stats.dead_code += 1;
            }
            Item::I(ins) => match ins {
                Instr::Charge(c) => f.charge(c),
                Instr::Const(c) => f.vs.push(Desc::Cst(c)),
                Instr::Load(s) => f.load(s),
                Instr::Store(s) => f.store(s),
                Instr::Pop => f.pop_stmt(),
                Instr::Jump(t) => {
                    f.flush_all();
                    f.emit(Instr::Jump(t));
                    f.barrier();
                    dead = true;
                }
                Instr::JumpIfZero(t) => dead = f.branch(t, true),
                Instr::JumpIfNonZero(t) => dead = f.branch(t, false),
                Instr::ToBool => f.tobool(),
                Instr::Bin(op, float) => f.bin(op, float),
                Instr::Neg(float) => f.neg(float),
                Instr::Not => f.not(),
                Instr::Field(ix) => f.field(ix),
                Instr::IndexAt => f.index_at(),
                Instr::MakeIndex(n) => {
                    // lookahead: `MakeIndex` immediately preceding (modulo
                    // charges) an `array_get_elem` fuses into ArrGetI*,
                    // skipping the Index construction entirely
                    let mut j = i + 1;
                    let mut charges = Vec::new();
                    while let Some(Item::I(Instr::Charge(c))) = items.get(j) {
                        charges.push(*c);
                        j += 1;
                    }
                    if matches!(items.get(j), Some(Item::I(Instr::Intr(Intr::ArrayGetElem, 2))))
                        && (n == 1 || n == 2)
                        && f.try_arr_get(n, &charges)
                    {
                        i = j;
                    } else {
                        f.consume_push(Instr::MakeIndex(n), n as usize);
                    }
                }
                Instr::MakeStruct(sid, n) => f.consume_push(Instr::MakeStruct(sid, n), n as usize),
                Instr::Intr(op, argc) => f.intr(op, argc),
                Instr::Call(fid) => {
                    f.flush_all();
                    f.emit(Instr::Call(fid));
                    f.barrier();
                    let nparams = f.prog.funcs[fid as usize].nparams;
                    for _ in 0..nparams {
                        f.vs.pop();
                    }
                    f.vs.push(Desc::Top(None));
                }
                Instr::Skel(site) => {
                    f.flush_all();
                    f.emit(Instr::Skel(site));
                    f.barrier();
                    let s = &f.prog.sites[site as usize];
                    let pops = s.nargs + s.fns.iter().map(|sf| sf.n_lifted).sum::<usize>();
                    for _ in 0..pops {
                        f.vs.pop();
                    }
                    f.vs.push(Desc::Top(None));
                }
                Instr::Ret => {
                    let d = f.pop_desc();
                    match f.desc_to_src(d) {
                        Some(Src::Top) | None => {
                            f.materialize(d);
                            f.flush_all();
                            f.emit(Instr::Ret);
                        }
                        Some(src) => {
                            f.flush_all();
                            f.emit(Instr::RetS(src));
                            f.stats.fused += 1;
                        }
                    }
                    f.barrier();
                    f.vs.clear();
                    dead = true;
                }
                Instr::RetUnit => {
                    f.flush_all();
                    f.emit(Instr::RetUnit);
                    f.barrier();
                    dead = true;
                }
                other => unreachable!("optimizer input contains fused instruction {other:?}"),
            },
        }
        i += 1;
    }
    f.out
}

impl Fwd<'_> {
    fn emit(&mut self, ins: Instr) {
        self.out.push(Item::I(ins));
    }

    fn barrier(&mut self) {
        self.last_charge = None;
    }

    fn charge(&mut self, c: u32) {
        if let Some(k) = self.last_charge {
            let Item::I(Instr::Charge(prev)) = self.out[k] else {
                unreachable!("last_charge points at a non-charge")
            };
            let merged = self.intern.costs[prev as usize].plus(self.intern.costs[c as usize]);
            let m = self.intern.cost(merged);
            self.out[k] = Item::I(Instr::Charge(m));
            self.stats.charges_merged += 1;
        } else {
            self.emit(Instr::Charge(c));
            self.last_charge = Some(self.out.len() - 1);
        }
    }

    fn pop_desc(&mut self) -> Desc {
        // an empty virtual stack under a pop means the value was pushed
        // before a label we crossed: it is a real, materialized value
        self.vs.pop().unwrap_or(Desc::Top(None))
    }

    /// Emit the deferred loads/consts of every deferred descriptor, in
    /// stack order. Required before anything pushes a real value above
    /// them, before jumps/labels (canonical stack at merge points), and
    /// before `Call`/`Skel` (operands must be real).
    fn flush_all(&mut self) {
        for k in 0..self.vs.len() {
            match self.vs[k] {
                Desc::Slot(s) => {
                    self.out.push(Item::I(Instr::Load(s)));
                    self.vs[k] = Desc::Top(None);
                }
                Desc::Cst(c) => {
                    self.out.push(Item::I(Instr::Const(c)));
                    self.vs[k] = Desc::Top(None);
                }
                Desc::Top(_) => {}
            }
        }
    }

    /// Materialize one just-popped descriptor back onto the real stack.
    fn materialize(&mut self, d: Desc) {
        self.vs.push(d);
        self.flush_all();
    }

    fn desc_to_src(&self, d: Desc) -> Option<Src> {
        match d {
            Desc::Top(_) => Some(Src::Top),
            Desc::Slot(s) => Some(Src::Slot(s)),
            Desc::Cst(c) => u16::try_from(c).ok().map(Src::Const),
        }
    }

    fn const_val(&self, c: u32) -> &Value {
        &self.intern.consts[c as usize]
    }

    fn const_int(&self, d: Desc) -> Option<i64> {
        match d {
            Desc::Cst(c) => match self.const_val(c) {
                Value::Int(v) => Some(*v),
                _ => None,
            },
            _ => None,
        }
    }

    fn const_float(&self, d: Desc) -> Option<f64> {
        match d {
            Desc::Cst(c) => match self.const_val(c) {
                Value::Float(v) => Some(*v),
                _ => None,
            },
            _ => None,
        }
    }

    fn load(&mut self, s: u16) {
        let d = match self.lat.get(s as usize).copied().unwrap_or(Know::Unk) {
            Know::Cst(c) => {
                self.stats.props += 1;
                Desc::Cst(c)
            }
            Know::Eq(x) => {
                self.stats.props += 1;
                Desc::Slot(x)
            }
            Know::Unk => Desc::Slot(s),
        };
        self.vs.push(d);
    }

    fn store(&mut self, s: u16) {
        let d = self.pop_desc();
        if d == Desc::Slot(s) {
            // x = x after propagation: the frame is untouched, nothing
            // was on the real stack, and every lattice fact still holds
            self.stats.props += 1;
            return;
        }
        // deferred reads of the slot's *old* value must happen first
        if self.vs.contains(&Desc::Slot(s)) {
            self.flush_all();
        }
        // facts derived from the old value die with it
        for k in self.lat.iter_mut() {
            if *k == Know::Eq(s) {
                *k = Know::Unk;
            }
        }
        match d {
            Desc::Top(prov) => {
                if let Some(k) = prov {
                    if k + 1 == self.out.len() {
                        match self.out[k] {
                            Item::I(Instr::Bin(op, float)) => {
                                self.out[k] =
                                    Item::I(Instr::BinStore(op, float, Src::Top, Src::Top, s));
                                self.stats.fused += 1;
                                self.set_lat(s, Know::Unk);
                                return;
                            }
                            Item::I(Instr::BinS(op, float, l, r)) => {
                                self.out[k] = Item::I(Instr::BinStore(op, float, l, r, s));
                                self.stats.fused += 1;
                                self.set_lat(s, Know::Unk);
                                return;
                            }
                            _ => {}
                        }
                    }
                }
                self.emit(Instr::Store(s));
                self.set_lat(s, Know::Unk);
            }
            Desc::Slot(x) => {
                self.emit(Instr::StoreS(s, Src::Slot(x)));
                self.stats.fused += 1;
                self.set_lat(s, Know::Eq(x));
            }
            Desc::Cst(c) => {
                match u16::try_from(c) {
                    Ok(ci) => {
                        self.emit(Instr::StoreS(s, Src::Const(ci)));
                        self.stats.fused += 1;
                    }
                    Err(_) => {
                        self.emit(Instr::Const(c));
                        self.emit(Instr::Store(s));
                    }
                }
                self.set_lat(s, Know::Cst(c));
            }
        }
    }

    fn set_lat(&mut self, s: u16, k: Know) {
        if let Some(slot) = self.lat.get_mut(s as usize) {
            *slot = k;
        }
    }

    fn pop_stmt(&mut self) {
        match self.pop_desc() {
            Desc::Top(_) => self.emit(Instr::Pop),
            // a deferred value discarded unseen: the push/pop pair is gone
            _ => self.stats.consts_folded += 1,
        }
    }

    /// Conditional branch; returns whether the fall-through is dead
    /// (branch folded to an unconditional jump).
    fn branch(&mut self, t: u32, when_zero: bool) -> bool {
        let d = self.pop_desc();
        if let Some(v) = self.const_int(d) {
            self.stats.branches_folded += 1;
            let taken = (v == 0) == when_zero;
            if taken {
                self.flush_all();
                self.emit(Instr::Jump(t));
                self.barrier();
                return true;
            }
            return false;
        }
        match d {
            Desc::Slot(s) => {
                self.flush_all();
                self.emit(if when_zero {
                    Instr::JumpZS(Src::Slot(s), t)
                } else {
                    Instr::JumpNzS(Src::Slot(s), t)
                });
                self.stats.fused += 1;
            }
            Desc::Top(prov) => {
                if let Some(k) = prov {
                    if k + 1 == self.out.len() {
                        let fused = match self.out[k] {
                            Item::I(Instr::Bin(op, float)) => Some(if when_zero {
                                Instr::JumpCmpZ(op, float, Src::Top, Src::Top, t)
                            } else {
                                Instr::JumpCmpNz(op, float, Src::Top, Src::Top, t)
                            }),
                            Item::I(Instr::BinS(op, float, l, r)) => Some(if when_zero {
                                Instr::JumpCmpZ(op, float, l, r, t)
                            } else {
                                Instr::JumpCmpNz(op, float, l, r, t)
                            }),
                            _ => None,
                        };
                        if let Some(ins) = fused {
                            self.out[k] = Item::I(ins);
                            self.stats.fused += 1;
                            self.barrier();
                            return false;
                        }
                    }
                }
                self.flush_all();
                self.emit(if when_zero { Instr::JumpIfZero(t) } else { Instr::JumpIfNonZero(t) });
            }
            Desc::Cst(_) => {
                // non-int constant condition: preserve the runtime panic
                self.materialize(d);
                self.flush_all();
                self.vs.pop();
                self.emit(if when_zero { Instr::JumpIfZero(t) } else { Instr::JumpIfNonZero(t) });
            }
        }
        self.barrier();
        false
    }

    fn tobool(&mut self) {
        let d = self.pop_desc();
        if let Some(v) = self.const_int(d) {
            let c = self.intern.konst(Value::Int((v != 0) as i64));
            self.vs.push(Desc::Cst(c));
            self.stats.consts_folded += 1;
            return;
        }
        self.materialize(d);
        self.vs.pop();
        self.emit(Instr::ToBool);
        self.vs.push(Desc::Top(None));
    }

    fn bin(&mut self, op: BinOp, float: bool) {
        let rd = self.pop_desc();
        let ld = self.pop_desc();
        if let Some(folded) = self.fold_bin(op, float, ld, rd) {
            let c = self.intern.konst(folded);
            self.vs.push(Desc::Cst(c));
            self.stats.consts_folded += 1;
            return;
        }
        match (self.desc_to_src(ld), self.desc_to_src(rd)) {
            (Some(ls), Some(rs)) if ls != Src::Top || rs != Src::Top => {
                self.flush_all();
                self.emit(Instr::BinS(op, float, ls, rs));
                self.stats.fused += 1;
            }
            _ => {
                self.materialize(ld);
                self.materialize(rd);
                self.flush_all();
                self.vs.pop();
                self.vs.pop();
                self.emit(Instr::Bin(op, float));
            }
        }
        self.vs.push(Desc::Top(Some(self.out.len() - 1)));
    }

    /// Compile-time evaluation through the operators every engine runs
    /// ([`crate::scalar`]); `None` when folding would change behavior
    /// (division by zero, a type error the runtime would report).
    fn fold_bin(&mut self, op: BinOp, float: bool, ld: Desc, rd: Desc) -> Option<Value> {
        if !float {
            let (x, y) = (self.const_int(ld)?, self.const_int(rd)?);
            let by_zero = y == 0 && matches!(op, BinOp::Div | BinOp::Rem);
            (!by_zero).then(|| Value::Int(int_bin(op, x, y)))
        } else {
            let (x, y) = (self.const_float(ld)?, self.const_float(rd)?);
            match op {
                BinOp::And | BinOp::Or => None,
                _ if op.is_arithmetic() => Some(Value::Float(float_arith(op, x, y))),
                _ => Some(Value::Int(float_cmp(op, x, y) as i64)),
            }
        }
    }

    fn neg(&mut self, float: bool) {
        let d = self.pop_desc();
        if !float {
            if let Some(v) = self.const_int(d) {
                let c = self.intern.konst(Value::Int(neg_int(v)));
                self.vs.push(Desc::Cst(c));
                self.stats.consts_folded += 1;
                return;
            }
        } else if let Some(v) = self.const_float(d) {
            let c = self.intern.konst(Value::Float(-v));
            self.vs.push(Desc::Cst(c));
            self.stats.consts_folded += 1;
            return;
        }
        self.materialize(d);
        self.vs.pop();
        self.emit(Instr::Neg(float));
        self.vs.push(Desc::Top(None));
    }

    fn not(&mut self) {
        let d = self.pop_desc();
        if let Some(v) = self.const_int(d) {
            let c = self.intern.konst(Value::Int((v == 0) as i64));
            self.vs.push(Desc::Cst(c));
            self.stats.consts_folded += 1;
            return;
        }
        self.materialize(d);
        self.vs.pop();
        self.emit(Instr::Not);
        self.vs.push(Desc::Top(None));
    }

    fn field(&mut self, ix: u16) {
        let d = self.pop_desc();
        match self.desc_to_src(d) {
            Some(Src::Top) | None => {
                self.materialize(d);
                self.flush_all();
                self.vs.pop();
                self.emit(Instr::Field(ix));
            }
            Some(src) => {
                self.flush_all();
                self.emit(Instr::FieldS(src, ix));
                self.stats.fused += 1;
            }
        }
        self.vs.push(Desc::Top(None));
    }

    fn index_at(&mut self) {
        let cd = self.pop_desc();
        let xd = self.pop_desc();
        match (self.desc_to_src(xd), self.desc_to_src(cd)) {
            (Some(xs), Some(cs)) if xs != Src::Top || cs != Src::Top => {
                self.flush_all();
                self.emit(Instr::IndexAtS(xs, cs));
                self.stats.fused += 1;
            }
            _ => {
                self.materialize(xd);
                self.materialize(cd);
                self.flush_all();
                self.vs.pop();
                self.vs.pop();
                self.emit(Instr::IndexAt);
            }
        }
        self.vs.push(Desc::Top(None));
    }

    /// Generic consuming instruction: materialize everything (the
    /// operands are the deferred suffix, flushed in push order), emit,
    /// fix up the virtual stack.
    fn consume_push(&mut self, ins: Instr, npop: usize) {
        self.flush_all();
        self.emit(ins);
        for _ in 0..npop {
            self.vs.pop();
        }
        self.vs.push(Desc::Top(None));
    }

    /// `MakeIndex(n)` + charges + `array_get_elem` → `ArrGetI*`.
    /// Returns false when an operand cannot become a `Src` (the caller
    /// falls back to the generic path).
    fn try_arr_get(&mut self, n: u8, charges: &[u32]) -> bool {
        let vl = self.vs.len();
        let have = (n as usize + 1).min(vl);
        let ok = self.vs[vl - have..].iter().all(|d| self.desc_to_src(*d).is_some());
        if !ok {
            return false;
        }
        let mut comps = [Src::Top; 2];
        for k in (0..n as usize).rev() {
            let d = self.pop_desc();
            comps[k] = self.desc_to_src(d).expect("checked above");
        }
        let ad = self.pop_desc();
        let arr = self.desc_to_src(ad).expect("checked above");
        for &c in charges {
            self.charge(c);
        }
        self.flush_all();
        self.emit(if n == 1 {
            Instr::ArrGetI1(arr, comps[0])
        } else {
            Instr::ArrGetI2(arr, comps[0], comps[1])
        });
        self.stats.fused += 1;
        self.vs.push(Desc::Top(None));
        true
    }

    fn intr(&mut self, op: Intr, argc: u8) {
        let n = argc as usize;
        if self.try_fold_intr(op, n) {
            return;
        }
        let vl = self.vs.len();
        let have = n.min(vl);
        let fusable = n <= 3
            && self.vs[vl - have..].iter().all(|d| self.desc_to_src(*d).is_some())
            && self.vs[vl - have..].iter().any(|d| !matches!(d, Desc::Top(_)));
        if fusable {
            let mut srcs = [Src::Top; 3];
            for k in (0..n).rev() {
                let d = self.pop_desc();
                srcs[k] = self.desc_to_src(d).expect("checked above");
            }
            self.flush_all();
            self.emit(Instr::IntrS(op, argc, srcs));
            self.stats.fused += 1;
        } else {
            self.consume_push(Instr::Intr(op, argc), n);
            return;
        }
        self.vs.push(Desc::Top(None));
    }

    /// Fold pure scalar intrinsics over constant arguments. The
    /// whitelist excludes anything that can panic on valid constants
    /// (`error`, `log2i` of a non-positive) and anything producing or
    /// consuming non-scalar values (lists).
    fn try_fold_intr(&mut self, op: Intr, n: usize) -> bool {
        use Intr::*;
        let foldable = matches!(
            op,
            Abs | Fabs
                | Min
                | Max
                | Fmin
                | Fmax
                | Sqrt
                | Itof
                | Ftoi
                | Log2i
                | IntMax
                | FltMax
                | DistrDefault
                | DistrRing
                | DistrTorus2d
        );
        if !foldable || self.vs.len() < n {
            return false;
        }
        let vl = self.vs.len();
        let mut args = Vec::with_capacity(n);
        for d in &self.vs[vl - n..] {
            match d {
                Desc::Cst(c) => args.push(self.const_val(*c).clone()),
                _ => return false,
            }
        }
        if op == Log2i && args[0].as_int() <= 0 {
            return false;
        }
        let Some(v) = op.eval_pure(&args) else { return false };
        self.vs.truncate(vl - n);
        let c = self.intern.konst(v);
        self.vs.push(Desc::Cst(c));
        self.stats.consts_folded += 1;
        true
    }
}

// ---------------------------------------------------------------------
// Dead-store elimination.
// ---------------------------------------------------------------------

fn src_slot(s: &Src) -> Option<u16> {
    match s {
        Src::Slot(i) => Some(*i),
        _ => None,
    }
}

/// Frame slots an instruction reads; at most four (IntrS).
fn slot_uses(ins: &Instr, out: &mut Vec<u16>) {
    out.clear();
    let mut push = |s: &Src| {
        if let Some(i) = src_slot(s) {
            out.push(i);
        }
    };
    match ins {
        Instr::Load(s) => out.push(*s),
        Instr::StoreS(_, s) | Instr::RetS(s) | Instr::FieldS(s, _) => push(s),
        Instr::JumpZS(s, _) | Instr::JumpNzS(s, _) => push(s),
        Instr::BinS(_, _, l, r)
        | Instr::BinStore(_, _, l, r, _)
        | Instr::JumpCmpZ(_, _, l, r, _)
        | Instr::JumpCmpNz(_, _, l, r, _)
        | Instr::IndexAtS(l, r)
        | Instr::ArrGetI1(l, r) => {
            push(l);
            push(r);
        }
        Instr::ArrGetI2(a, i, j) => {
            push(a);
            push(i);
            push(j);
        }
        Instr::IntrS(_, argc, srcs) => {
            for s in &srcs[..*argc as usize] {
                push(s);
            }
        }
        _ => {}
    }
}

fn slot_def(ins: &Instr) -> Option<u16> {
    match ins {
        Instr::Store(s) | Instr::StoreS(s, _) | Instr::BinStore(_, _, _, _, s) => Some(*s),
        _ => None,
    }
}

fn is_terminator(ins: &Instr) -> bool {
    matches!(ins, Instr::Jump(_) | Instr::Ret | Instr::RetS(_) | Instr::RetUnit)
}

/// Backward liveness over the item CFG, then one elimination sweep;
/// repeated until nothing changes (an eliminated copy can kill the
/// store feeding it). `nlabels` bounds the label numbers in `items`.
fn dse(items: &mut Vec<Item>, nlabels: u32, stats: &mut OptStats) {
    let mut scratch = Dse::default();
    while scratch.once(items, nlabels, stats) {}
}

/// The tables of one liveness round, kept across rounds so that a
/// function's rounds share their allocations.
#[derive(Default)]
struct Dse {
    /// First item of each block, ascending.
    starts: Vec<usize>,
    /// Label number -> block that starts with it.
    label_block: Vec<u32>,
    /// Per block: the block its closing jump targets and the one it
    /// falls into (`NONE` where there is none).
    succ: Vec<[u32; 2]>,
    /// Per block, per slot: live on entry (row-major).
    live_in: Vec<bool>,
    live: Vec<bool>,
    uses: Vec<u16>,
}

const NONE: u32 = u32::MAX;

impl Dse {
    /// What is live at the end of block `b`: the union of its
    /// successors' live-in rows, into `self.live`.
    fn live_out(&mut self, b: usize, nslots: usize) {
        self.live.clear();
        self.live.resize(nslots, false);
        for s in self.succ[b] {
            if s != NONE {
                let row = &self.live_in[s as usize * nslots..][..nslots];
                for (l, &r) in self.live.iter_mut().zip(row) {
                    *l |= r;
                }
            }
        }
    }

    /// Step `self.live` backward over `ins`.
    fn step(&mut self, ins: &Instr) {
        if let Some(d) = slot_def(ins) {
            self.live[d as usize] = false;
        }
        slot_uses(ins, &mut self.uses);
        for &u in &self.uses {
            self.live[u as usize] = true;
        }
    }

    fn once(&mut self, items: &mut Vec<Item>, nlabels: u32, stats: &mut OptStats) -> bool {
        // block boundaries: a label starts a block; a jump/terminator ends one
        self.starts.clear();
        self.starts.push(0);
        for (i, item) in items.iter().enumerate() {
            match item {
                Item::Label(_) if self.starts.last() != Some(&i) => self.starts.push(i),
                Item::I(ins)
                    if (jump_label(ins).is_some() || is_terminator(ins)) && i + 1 < items.len() =>
                {
                    self.starts.push(i + 1)
                }
                _ => {}
            }
        }
        self.starts.dedup();
        let nb = self.starts.len();
        let nitems = items.len();
        self.label_block.clear();
        self.label_block.resize(nlabels as usize, NONE);
        for (b, &start) in self.starts.iter().enumerate() {
            // labels sit only at block starts (consecutive ones share a block)
            let end = self.starts.get(b + 1).copied().unwrap_or(nitems);
            for item in &items[start..end] {
                match item {
                    Item::Label(l) => self.label_block[*l as usize] = b as u32,
                    Item::I(_) => break,
                }
            }
        }
        let starts = &self.starts;
        let end_of = |b: usize| starts.get(b + 1).copied().unwrap_or(nitems);

        // successors: a block holds at most one jump, its last item
        self.succ.clear();
        self.succ.resize(nb, [NONE; 2]);
        for b in 0..nb {
            let mut falls = true;
            if let Item::I(ins) = &items[end_of(b) - 1] {
                if let Some(l) = jump_label(ins) {
                    self.succ[b][0] = self.label_block[l as usize];
                }
                if is_terminator(ins) {
                    falls = false;
                }
            }
            if falls && b + 1 < nb {
                self.succ[b][1] = b as u32 + 1;
            }
        }

        // per-block gen/kill and iterative live-in/out
        let mut nslots = 0usize;
        for item in items.iter() {
            if let Item::I(ins) = item {
                slot_uses(ins, &mut self.uses);
                let top = self.uses.iter().copied().chain(slot_def(ins)).max();
                nslots = nslots.max(top.map_or(0, |s| s as usize + 1));
            }
        }
        if nslots == 0 {
            return false;
        }
        self.live_in.clear();
        self.live_in.resize(nb * nslots, false);
        loop {
            let mut changed = false;
            for b in (0..nb).rev() {
                self.live_out(b, nslots);
                for i in (self.starts[b]..end_of_block(&self.starts, b, nitems)).rev() {
                    if let Item::I(ins) = &items[i] {
                        self.step(ins);
                    }
                }
                let row = &mut self.live_in[b * nslots..][..nslots];
                if *row != *self.live {
                    row.copy_from_slice(&self.live);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // elimination sweep
        let mut any = false;
        for b in 0..nb {
            self.live_out(b, nslots);
            for i in (self.starts[b]..end_of_block(&self.starts, b, nitems)).rev() {
                let Item::I(ins) = items[i] else { continue };
                let dead_def = slot_def(&ins).is_some_and(|d| !self.live[d as usize]);
                if dead_def {
                    match ins {
                        Instr::Store(_) => {
                            items[i] = Item::I(Instr::Pop);
                            stats.stores_eliminated += 1;
                            any = true;
                            continue; // the Pop has no slot effect
                        }
                        // pure slot copy or constant store with a dead
                        // destination: delete
                        Instr::StoreS(_, Src::Slot(_) | Src::Const(_)) => {
                            items.remove(i);
                            stats.stores_eliminated += 1;
                            any = true;
                            continue;
                        }
                        // BinStore: keep — eliminating it would also elide a
                        // possible division-by-zero panic and any Top pops
                        _ => {}
                    }
                }
                self.step(&ins);
            }
            if any {
                // indices shifted; recompute blocks on the next round
                return true;
            }
        }
        false
    }
}

fn end_of_block(starts: &[usize], b: usize, nitems: usize) -> usize {
    starts.get(b + 1).copied().unwrap_or(nitems)
}

// ---------------------------------------------------------------------
// Slot compaction.
// ---------------------------------------------------------------------

fn compact_slots(items: &mut [Item], nparams: usize, nslots: usize, stats: &mut OptStats) -> usize {
    let mut used = vec![false; nslots.max(nparams)];
    for u in used.iter_mut().take(nparams) {
        // parameters keep their positions: the VM drains arguments into
        // slots 0..nparams unconditionally
        *u = true;
    }
    let mut uses_buf = Vec::new();
    for item in items.iter() {
        if let Item::I(ins) = item {
            slot_uses(ins, &mut uses_buf);
            for &s in &uses_buf {
                used[s as usize] = true;
            }
            if let Some(d) = slot_def(ins) {
                used[d as usize] = true;
            }
        }
    }
    let mut map = vec![u16::MAX; used.len()];
    let mut next = 0u16;
    for (s, &u) in used.iter().enumerate() {
        if u {
            map[s] = next;
            next += 1;
        }
    }
    let remap = |s: &mut u16| *s = map[*s as usize];
    let remap_src = |s: &mut Src| {
        if let Src::Slot(i) = s {
            *i = map[*i as usize];
        }
    };
    for item in items.iter_mut() {
        let Item::I(ins) = item else { continue };
        match ins {
            Instr::Load(s) | Instr::Store(s) => remap(s),
            Instr::StoreS(d, s) => {
                remap(d);
                remap_src(s);
            }
            Instr::BinStore(_, _, l, r, d) => {
                remap_src(l);
                remap_src(r);
                remap(d);
            }
            Instr::BinS(_, _, l, r)
            | Instr::JumpCmpZ(_, _, l, r, _)
            | Instr::JumpCmpNz(_, _, l, r, _)
            | Instr::IndexAtS(l, r)
            | Instr::ArrGetI1(l, r) => {
                remap_src(l);
                remap_src(r);
            }
            Instr::ArrGetI2(a, i, j) => {
                remap_src(a);
                remap_src(i);
                remap_src(j);
            }
            Instr::JumpZS(s, _) | Instr::JumpNzS(s, _) | Instr::RetS(s) | Instr::FieldS(s, _) => {
                remap_src(s)
            }
            Instr::IntrS(_, argc, srcs) => {
                for s in &mut srcs[..*argc as usize] {
                    remap_src(s);
                }
            }
            _ => {}
        }
    }
    let new = next as usize;
    stats.slots_eliminated += nslots.saturating_sub(new);
    new
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_opt;
    use skil_runtime::CostModel;

    fn total_charges(p: &Program) -> u64 {
        let cost = CostModel::t800();
        let resolved: Vec<u64> = p.costs.iter().map(|c| c.resolve(&cost)).collect();
        p.funcs
            .iter()
            .flat_map(|f| f.code.iter())
            .filter_map(|i| match i {
                Instr::Charge(c) => Some(resolved[*c as usize]),
                _ => None,
            })
            .sum()
    }

    #[test]
    fn opt_level_args_parse() {
        assert_eq!(OptLevel::from_arg("0"), Some(OptLevel::O0));
        assert_eq!(OptLevel::from_arg("2"), Some(OptLevel::O2));
        assert_eq!(OptLevel::from_arg("1"), None);
        assert_eq!(OptLevel::from_arg("3"), None);
        assert_eq!(OptLevel::default(), OptLevel::O2);
    }

    #[test]
    fn straight_line_charge_sum_is_preserved() {
        // no branches, no calls: every charge executes exactly once, so
        // the static sum must survive merging and folding untouched
        let src = "void main() {\n\
                   int a = 3;\n\
                   int b = a * 7;\n\
                   float x = itof(b);\n\
                   print(b);\n\
                   print(a + b);\n\
                   print(x);\n\
                   }";
        let o0 = compile_opt(src, OptLevel::O0).expect("compiles");
        let o2 = compile_opt(src, OptLevel::O2).expect("compiles");
        let want = total_charges(&o0.code);
        assert!(want > 0);
        assert_eq!(total_charges(&o2.code), want);
        // and the optimizer did something: a*7 and a+b fold or fuse
        assert!(o2.opt_stats.instrs_after < o2.opt_stats.instrs_before);
        assert!(o2.opt_stats.charges_merged > 0);
    }

    #[test]
    fn loop_compare_and_accumulate_fuse() {
        let src = "int sumto(int n) {\n\
                   int s = 0; int i = 0;\n\
                   while (i < n) { s = s + i; i = i + 1; }\n\
                   return s;\n\
                   }\n\
                   void main() { print(sumto(10)); }";
        let c = compile_opt(src, OptLevel::O2).expect("compiles");
        let f =
            &c.code.funcs[c.fo.funcs.iter().position(|f| c.fo.name(f.name) == "sumto_1").unwrap()];
        let has_cmp_branch =
            f.code.iter().any(|i| matches!(i, Instr::JumpCmpZ(..) | Instr::JumpCmpNz(..)));
        let has_bin_store = f.code.iter().any(|i| matches!(i, Instr::BinStore(..)));
        assert!(has_cmp_branch, "loop condition should fuse into a compare-branch");
        assert!(has_bin_store, "accumulation should fuse into a bin-store");
        // nothing in the loop needs the operand stack anymore
        assert!(!f.code.iter().any(|i| matches!(i, Instr::Load(_) | Instr::Store(_))));
    }

    #[test]
    fn dead_copy_and_its_slot_are_eliminated() {
        let src = "int f(int x) { int t = x; return x; }\n\
                   void main() { print(f(5)); }";
        let c = compile_opt(src, OptLevel::O2).expect("compiles");
        let f = &c.code.funcs[c.fo.funcs.iter().position(|f| c.fo.name(f.name) == "f_1").unwrap()];
        assert!(
            !f.code.iter().any(|i| matches!(i, Instr::Store(_) | Instr::StoreS(..))),
            "the copy into t is dead and must disappear: {:?}",
            f.code
        );
        assert_eq!(f.nslots, 1, "t's slot is compacted away");
        assert!(c.opt_stats.stores_eliminated > 0);
        assert!(c.opt_stats.slots_eliminated > 0);
    }

    #[test]
    fn leaf_calls_inline_and_fold_across_the_boundary() {
        let src = "int n() { return 16; }\n\
                   void main() { print(n() + 2); }";
        let o0 = compile_opt(src, OptLevel::O0).expect("compiles");
        let o2 = compile_opt(src, OptLevel::O2).expect("compiles");
        let main0 = &o0.code.funcs[o0.code.main.unwrap()];
        let main2 = &o2.code.funcs[o2.code.main.unwrap()];
        assert!(main0.code.iter().any(|i| matches!(i, Instr::Call(_))));
        assert!(
            !main2.code.iter().any(|i| matches!(i, Instr::Call(_))),
            "O2 inlines the leaf call: {:?}",
            main2.code
        );
        assert!(o2.opt_stats.calls_inlined > 0);
        // 16 + 2 folds only once the call boundary is gone
        let folded18 = o2.code.consts.iter().any(|v| matches!(v, Value::Int(18)));
        assert!(folded18, "n() + 2 should fold to 18 after inlining");
        // the call-site charge (pricing the call) must survive inlining
        assert_eq!(total_charges(&o0.code), total_charges(&o2.code));
    }

    #[test]
    fn o0_is_the_raw_compiler_output() {
        let src = "void main() { print(procId + nProcs); }";
        let c = compile_opt(src, OptLevel::O0).expect("compiles");
        assert_eq!(crate::bytecode::compile_program(&c.fo), c.code);
        assert_eq!(c.disassemble_raw(), c.disassemble());
        assert_eq!(c.opt_stats.instrs_before, c.opt_stats.instrs_after);
        assert_eq!(c.opt_stats.fused, 0);
    }

    #[test]
    fn indexed_array_reads_fuse() {
        let src = "float initf(Index ix) { return itof(ix[0] + ix[1]); }\n\
                   float conv(float v, Index ix) { return v; }\n\
                   void main() {\n\
                   array<float> a = array_create(2, {8,8}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
                   Bounds b = array_part_bounds(a);\n\
                   int i = b.lowerBd[0];\n\
                   print(array_get_elem(a, {i, 0}));\n\
                   float total = array_fold(conv, (+), a);\n\
                   print(total);\n\
                   }";
        let c = compile_opt(src, OptLevel::O2).expect("compiles");
        let main = &c.code.funcs[c.code.main.unwrap()];
        assert!(
            main.code.iter().any(|i| matches!(i, Instr::ArrGetI2(..))),
            "array_get_elem({{i, 0}}) should fuse into an indexed read: {:?}",
            main.code
        );
    }

    #[test]
    fn stats_display_is_stable() {
        let s = OptStats { instrs_before: 10, instrs_after: 7, ..OptStats::default() };
        let text = s.to_string();
        assert!(text.contains("instrs 10 -> 7"));
        assert!(text.contains("superinstructions"));
    }
}
