//! The skeleton host: everything between a [`SkelOp`] and `skil-core`,
//! once, for every engine.
//!
//! A processor's run-time state ([`SkelHost`]: the processor, its array
//! table, its `print` output), the skeleton dispatch ([`SkelHost::skel`]:
//! argument unpacking, the array specification, the distinct-array
//! checks, the task-skeleton result broadcast), one generic body per
//! array skeleton ([`Site`]), and the stateful intrinsics in their two
//! modes — full ([`SkelHost::stateful`]) and, for code running inside a
//! skeleton, read-only ([`KEnv::stateful`]) — live here and nowhere
//! else.
//!
//! The bodies are written against the one thing that differs between
//! engines, [`ArgFns`]: how a site's argument functions are readied and
//! invoked. It has two implementations, monomorphized into the bodies:
//! the VM's (`KernelVm` in [`crate::vm`]: trivial shapes, typed register
//! code or the generic loop, under the `vm` and `native` engines alike)
//! and the AST walker's ([`crate::interp`], which evaluates the
//! first-order tree). Arrays live in an [`ArrayStore`]; the `vm` and
//! `native` engines pick the variant from the static element type, the
//! walker keeps every array [`ArrayStore::Boxed`].
//!
//! No element crosses a dynamic boundary that the skeleton call could
//! have resolved: an argument function is readied once per call
//! ([`ArgFns::prepare`]), and a combiner that is one closed operator
//! over scalars ([`Direct`]) picks, once, a loop instantiated for it
//! ([`DirectLoops`]).

#![forbid(unsafe_code)]

use skil_array::{ArraySpec, Bounds, DistArray, Distribution, Index};
use skil_core::{
    array_broadcast_part, array_copy, array_create, array_fold, array_fold_bulk, array_gen_mult,
    array_gen_mult_blocks, array_map, array_map_inplace, array_permute_rows, array_scan,
    block_mult_add, divide_conquer, farm, fold_local, DcOps, Kernel,
};
use skil_runtime::{CostModel, Distr, Proc};

use crate::builtins::{DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D};
use crate::bytecode::{ElemKind, Intr};
use crate::fo::{static_cost, BinOp, FoExpr, FoFunc, FoStmt, SkelOp};
use crate::kernel::KArg;
use crate::store::{with_kind, with_store, ArrayStore, Direct, Elem, FlatElem, FloatElem, IntElem};
use crate::value::{ConsList, Value};
use crate::vm::Sl;

/// The most elements one array may have, over all processors: checked
/// before anything is planned or allocated for it, so that an absurd
/// `array_create` is the program's runtime error and not the host's
/// allocation failure.
const MAX_ARRAY_ELEMS: usize = 1 << 22;

/// Tag used to broadcast task-skeleton results to all processors.
const LANG_RESULT_TAG: u64 = 0x3100_0000;

/// The virtual-cycle charge for one invocation of a skeleton argument
/// function. The instantiation procedure *inlines* trivial bodies — an
/// operator section or a single intrinsic call — into the skeleton
/// instance, so those cost just the operation; anything larger keeps the
/// residual first-order call plus its statically estimated body.
pub(crate) fn kernel_cycles(f: &FoFunc, cost: &CostModel) -> u64 {
    if let [FoStmt::Return(Some(expr))] = &*f.body {
        match expr {
            FoExpr::Binary { op, float, args }
                if matches!(**args, [FoExpr::Var(_), FoExpr::Var(_)]) =>
            {
                return op.cycles(*float, cost);
            }
            FoExpr::Intrinsic(_, args) if args.iter().all(|a| matches!(a, FoExpr::Var(_))) => {
                return cost.int_op;
            }
            _ => {}
        }
    }
    cost.call + static_cost(f, cost)
}

pub(crate) fn to_uindex(v: [i64; 2]) -> Index {
    assert!(v[0] >= 0 && v[1] >= 0, "skil runtime: negative index {{{}, {}}}", v[0], v[1]);
    [v[0] as usize, v[1] as usize]
}

/// Unwrap a skeleton or array result; failures are Skil runtime errors.
pub(crate) fn rt<T>(r: skil_array::Result<T>) -> T {
    r.unwrap_or_else(|e| panic!("skil runtime: {e}"))
}

/// `error(n)`: the program gives up. A Skil runtime error like any
/// other — the program's failure, not the engine's.
pub(crate) fn program_error(n: i64) -> ! {
    panic!("skil runtime: program called error({n})")
}

/// What a skeleton argument function may not do.
pub(crate) fn kernel_forbids(what: &str) -> ! {
    panic!("skil runtime: {what} inside a skeleton argument function")
}

// ---------------------------------------------------------------------
// The array table.
// ---------------------------------------------------------------------

fn dead_array() -> ! {
    panic!("skil runtime: use of an array being written by this skeleton or already destroyed")
}

/// The array behind handle `h`. Every handle lookup ends here or in the
/// two functions below: a destroyed array — or, for an argument
/// function, the one the running skeleton writes, which is out of the
/// table — is a Skil runtime error.
pub(crate) fn live_array(arrays: &[Option<ArrayStore>], h: usize) -> &ArrayStore {
    arrays.get(h).and_then(Option::as_ref).unwrap_or_else(|| dead_array())
}

fn live_array_mut(arrays: &mut [Option<ArrayStore>], h: usize) -> &mut ArrayStore {
    arrays.get_mut(h).and_then(Option::as_mut).unwrap_or_else(|| dead_array())
}

/// Take the array a skeleton is about to write out of the table.
fn take_array(arrays: &mut [Option<ArrayStore>], h: usize) -> ArrayStore {
    arrays.get_mut(h).and_then(Option::take).unwrap_or_else(|| dead_array())
}

/// `array_get_elem`: read a local element.
pub(crate) fn get_elem(arrays: &[Option<ArrayStore>], h: usize, ix: Index) -> Sl {
    rt(live_array(arrays, h).get(ix))
}

/// `array_part_bounds`.
pub(crate) fn part_bounds(arrays: &[Option<ArrayStore>], h: usize) -> Bounds {
    rt(live_array(arrays, h).part_bounds())
}

// ---------------------------------------------------------------------
// The two execution modes' state.
// ---------------------------------------------------------------------

/// What code running inside a skeleton — an argument function — can see
/// of its processor: the arrays read-only, and who it is.
pub(crate) struct KEnv<'a> {
    pub(crate) arrays: &'a [Option<ArrayStore>],
    pub(crate) me: usize,
    pub(crate) nprocs: usize,
}

impl KEnv<'_> {
    /// The stateful intrinsics (`eval_pure` already declined) that only
    /// read; the others are errors inside an argument function.
    pub(crate) fn stateful(&self, op: Intr, vals: &[Value]) -> Value {
        match op {
            Intr::ProcId => Value::Int(self.me as i64),
            Intr::NProcs => Value::Int(self.nprocs as i64),
            Intr::ArrayGetElem => {
                get_elem(self.arrays, vals[0].as_array(), to_uindex(vals[1].as_index()))
                    .into_value()
            }
            Intr::ArrayPartBounds => {
                let b = part_bounds(self.arrays, vals[0].as_array());
                Value::Bounds(
                    [b.lower[0] as i64, b.lower[1] as i64],
                    [b.upper[0] as i64, b.upper[1] as i64],
                )
            }
            Intr::ArrayPutElem => kernel_forbids("array_put_elem"),
            Intr::Print => kernel_forbids("print"),
            other => unreachable!("pure intrinsic {} fell through", other.name()),
        }
    }
}

/// One processor's run-time state under any engine: the processor, the
/// arrays it holds a partition of (by handle; `None` once destroyed or
/// while a skeleton writes it), and what it printed.
pub(crate) struct SkelHost<'p, 'm> {
    pub(crate) proc: &'p mut Proc<'m>,
    pub(crate) arrays: Vec<Option<ArrayStore>>,
    pub(crate) output: Vec<String>,
}

impl<'p, 'm> SkelHost<'p, 'm> {
    pub(crate) fn new(proc: &'p mut Proc<'m>) -> Self {
        SkelHost { proc, arrays: Vec::new(), output: Vec::new() }
    }

    /// `array_put_elem`: overwrite a local element.
    pub(crate) fn put_elem(&mut self, h: usize, ix: Index, v: Sl) {
        rt(live_array_mut(&mut self.arrays, h).put(ix, v));
    }

    /// `print`.
    pub(crate) fn print(&mut self, v: &Value) {
        self.output.push(v.render());
    }

    /// The stateful intrinsics (`eval_pure` already declined), uncharged:
    /// each engine charges them where its own accounting says.
    pub(crate) fn stateful(&mut self, op: Intr, vals: &[Value]) -> Value {
        match op {
            Intr::ArrayPutElem => {
                let ix = to_uindex(vals[1].as_index());
                self.put_elem(vals[0].as_array(), ix, Sl::from_value_ref(&vals[2]));
                Value::Unit
            }
            Intr::Print => {
                self.print(&vals[0]);
                Value::Unit
            }
            _ => {
                let (me, nprocs) = (self.proc.id(), self.proc.nprocs());
                KEnv { arrays: &self.arrays, me, nprocs }.stateful(op, vals)
            }
        }
    }

    /// Execute one skeleton call: `vals` are its value arguments, `k`
    /// its argument functions, `elem` the representation of the site's
    /// arrays and `ret` that of the value an `array_fold` yields. Every
    /// array arm picks the store variant once and hands the typed
    /// partitions to one generic body ([`Site`]'s methods).
    pub(crate) fn skel<K: ArgFns>(
        &mut self,
        op: SkelOp,
        elem: ElemKind,
        ret: ElemKind,
        vals: &[Value],
        k: &K,
    ) -> Value {
        let me = self.proc.id();
        // the argument functions over the current array table; rebuilt
        // per arm because arms take the array they write out of the table
        macro_rules! site {
            () => {
                Site { k, env: KEnv { arrays: &self.arrays, me, nprocs: self.proc.nprocs() } }
            };
        }
        // one instantiation of a body per store this engine keeps arrays in
        macro_rules! stores {
            ($store:expr, $arr:ident => $body:expr) => {
                with_store!(K::TYPED_STORES, $store, $arr => $body)
            };
        }
        macro_rules! kinds {
            ($kind:expr, $T:ident => $body:expr) => {
                with_kind!(K::TYPED_STORES, $kind, $T => $body)
            };
        }
        match op {
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
                let [rows, cols] = spec.size;
                assert!(
                    rows.checked_mul(cols).is_some_and(|n| n <= MAX_ARRAY_ELEMS),
                    "skil runtime: array_create of {rows} x {cols} elements exceeds the limit of \
                     {MAX_ARRAY_ELEMS}"
                );
                let arr = kinds!(elem, T => T::wrap(site!().create::<T>(self.proc, spec)));
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
                let mut to = take_array(&mut self.arrays, to_h);
                if from_h == to_h {
                    stores!(&mut to, arr => site!().map_inplace(self.proc, arr));
                } else {
                    let from = live_array(&self.arrays, from_h);
                    stores!(from, from => {
                        stores!(&mut to, to => site!().map(self.proc, from, to))
                    });
                }
                self.arrays[to_h] = Some(to);
                Value::Unit
            }
            SkelOp::Fold => {
                let arr = live_array(&self.arrays, vals[0].as_array());
                stores!(arr, arr => {
                    kinds!(ret, U => site!().fold::<_, U>(self.proc, arr).into_sl())
                })
                .into_value()
            }
            SkelOp::Copy => {
                let from_h = vals[0].as_array();
                let to_h = vals[1].as_array();
                assert!(from_h != to_h, "skil runtime: array_copy onto itself");
                let mut to = take_array(&mut self.arrays, to_h);
                let from = live_array(&self.arrays, from_h);
                stores!(&mut to, to => rt(array_copy(self.proc, Elem::of(from), to)));
                self.arrays[to_h] = Some(to);
                Value::Unit
            }
            SkelOp::BroadcastPart => {
                let ix = to_uindex(vals[1].as_index());
                let arr = live_array_mut(&mut self.arrays, vals[0].as_array());
                stores!(arr, arr => rt(array_broadcast_part(self.proc, arr, ix)));
                Value::Unit
            }
            SkelOp::PermuteRows => {
                let from_h = vals[0].as_array();
                let to_h = vals[1].as_array();
                let mut to = take_array(&mut self.arrays, to_h);
                let from = live_array(&self.arrays, from_h);
                stores!(&mut to, to => {
                    site!().permute_rows(self.proc, Elem::of(from), to)
                });
                self.arrays[to_h] = Some(to);
                Value::Unit
            }
            SkelOp::Scan => {
                let from_h = vals[0].as_array();
                let to_h = vals[1].as_array();
                assert!(from_h != to_h, "skil runtime: array_scan onto itself");
                let mut to = take_array(&mut self.arrays, to_h);
                let from = live_array(&self.arrays, from_h);
                stores!(&mut to, to => site!().scan(self.proc, Elem::of(from), to));
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
                let mut c = take_array(&mut self.arrays, c_h);
                let a = live_array(&self.arrays, a_h);
                let b = live_array(&self.arrays, b_h);
                stores!(&mut c, c => {
                    site!().gen_mult(self.proc, Elem::of(a), Elem::of(b), c)
                });
                self.arrays[c_h] = Some(c);
                Value::Unit
            }
            SkelOp::Dc => {
                let problem = (me == 0).then(|| vals[0].clone());
                let result = site!().dc(self.proc, problem);
                // SPMD expression semantics: dc(...) has a value on every
                // processor, and only processor 0 holds it so far
                self.proc.broadcast(0, LANG_RESULT_TAG, result)
            }
            SkelOp::Farm => {
                let Value::List(tasks) = &vals[0] else {
                    panic!("skil runtime: farm needs a task list");
                };
                let result = site!().farm(self.proc, (me == 0).then(|| tasks.to_vec()));
                let result = result.map(|rs| Value::List(ConsList::from_vec(rs)));
                self.proc.broadcast(0, LANG_RESULT_TAG, result)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Argument functions, and the skeleton bodies over them.
// ---------------------------------------------------------------------

/// The argument functions of one skeleton call site as an engine runs
/// them: the one interface the skeleton bodies are written against.
pub(crate) trait ArgFns {
    /// Whether the engine keeps arrays in the store their static element
    /// type selects; `false` when it keeps every array
    /// [`ArrayStore::Boxed`], and then the skeleton bodies are compiled
    /// for that store alone.
    const TYPED_STORES: bool;

    /// Ready the site's `i`-th argument function for this skeleton call
    /// — everything that does not depend on the element happens here,
    /// once: the arity check against its `N` element arguments, how it
    /// runs, where its arguments go.
    fn prepare<'a, const N: usize>(&'a self, env: &'a KEnv<'a>, i: usize) -> impl ArgFn<N> + 'a;

    /// What the skeleton charges per invocation of argument function `i`.
    fn cycles(&self, i: usize) -> u64;

    /// Argument function `i` as one closed operator over the site's
    /// elements, when the engine resolved it to one (once per call,
    /// outside the element loop).
    fn direct2(&self, _i: usize) -> Option<Direct> {
        None
    }
}

/// One argument function of `N` element arguments, readied by
/// [`ArgFns::prepare`]: an element is "hand over its arguments, run".
pub(crate) trait ArgFn<const N: usize> {
    /// Invoke it with `lifted ++ args`.
    fn call<U: Elem>(&mut self, args: [KArg<'_>; N]) -> U;
}

/// The element loops that are instantiated per closed operator: the
/// operator is matched in these, once, outside the loop, and the loop it
/// picks applies a zero-sized closure. Only scalar elements have closed
/// operators ([`crate::bytecode::SkelSite::direct`]), so only they have
/// such loops; no site resolves one over any other element type.
pub(crate) trait DirectLoops: Elem {
    /// A fold's fused local pass ([`fold_local`]) folding with `op`.
    fn fold_local<T>(
        _op: Direct,
        _a: &DistArray<T>,
        _conv: impl FnMut(&T, Index) -> Self,
    ) -> Option<Self> {
        unreachable!("no direct operator resolves over this element type")
    }

    /// `array_scan` combining with `op`, charged `cycles` per element.
    fn scan(
        _op: Direct,
        _proc: &mut Proc<'_>,
        _cycles: u64,
        _from: &DistArray<Self>,
        _to: &mut DistArray<Self>,
    ) -> skil_array::Result<()> {
        unreachable!("no direct operator resolves over this element type")
    }

    /// One block multiply-accumulate ([`block_mult_add`]) of
    /// `array_gen_mult` under `gen_add = add`, `gen_mult = mul`.
    fn block(_add: Direct, _mul: Direct, _a: &[Self], _b: &[Self], _c: &mut [Self], _nb: usize) {
        unreachable!("no direct operator resolves over this element type")
    }
}

impl DirectLoops for Value {}
impl DirectLoops for FlatElem {}

/// Evaluate `$body` with `$OP` bound to `$op` as a constant, for the
/// operators loops are instantiated for — the associative and
/// commutative `+ * min max`, which are what a fold, a scan or a matrix
/// product over a semiring are defined with — and `$rest` for any other,
/// which shares a loop that matches on it per element. `$body` is
/// instantiated per operator, so a closure in it that applies `$OP` is
/// zero-sized and its element loop monomorphic.
macro_rules! with_semiring {
    ($op:expr, $OP:ident => $body:expr, _ => $rest:expr) => {
        with_semiring!(@arms $op, $OP, $body, $rest,
            [Direct::Bin(BinOp::Add)] [Direct::Bin(BinOp::Mul)] [Direct::Min] [Direct::Max])
    };
    (@arms $op:expr, $OP:ident, $body:expr, $rest:expr, $([$($closed:tt)*])*) => {
        match $op {
            $($($closed)* => {
                const $OP: Direct = $($closed)*;
                $body
            })*
            _ => $rest,
        }
    };
}

/// The loops of a scalar element type.
macro_rules! scalar_loops {
    ($S:ty) => {
        impl DirectLoops for $S {
            fn fold_local<T>(
                op: Direct,
                a: &DistArray<T>,
                conv: impl FnMut(&T, Index) -> Self,
            ) -> Option<Self> {
                with_semiring!(op,
                    OP => fold_local(a, conv, |x, y| <$S>::apply(OP, x, y)),
                    _ => fold_local(a, conv, |x, y| <$S>::apply(op, x, y)))
            }

            fn scan(
                op: Direct,
                proc: &mut Proc<'_>,
                cycles: u64,
                from: &DistArray<Self>,
                to: &mut DistArray<Self>,
            ) -> skil_array::Result<()> {
                with_semiring!(op,
                    OP => array_scan(proc, Kernel::new(|x, y| <$S>::apply(OP, x, y), cycles), from, to),
                    _ => array_scan(proc, Kernel::new(|x, y| <$S>::apply(op, x, y), cycles), from, to))
            }

            fn block(add: Direct, mul: Direct, a: &[Self], b: &[Self], c: &mut [Self], nb: usize) {
                with_semiring!(add, ADD => {
                    with_semiring!(mul, MUL => {
                        let add = |x, y| <$S>::apply(ADD, x, y);
                        return block_mult_add(a, b, c, nb, add, |x, y| <$S>::apply(MUL, *x, *y));
                    }, _ => ())
                }, _ => ());
                let add = |x, y| <$S>::apply(add, x, y);
                block_mult_add(a, b, c, nb, add, |x, y| <$S>::apply(mul, *x, *y))
            }
        }
    };
}

scalar_loops!(IntElem);
scalar_loops!(FloatElem);

/// One skeleton call's argument functions over the array table as it is
/// while the skeleton runs, plus the generic skeleton bodies.
struct Site<'a, K> {
    k: &'a K,
    env: KEnv<'a>,
}

impl<K: ArgFns> Site<'_, K> {
    /// The site's `i`-th argument function, readied for this call.
    fn arg_fn<const N: usize>(&self, i: usize) -> impl ArgFn<N> + '_ {
        self.k.prepare(&self.env, i)
    }

    /// The site's `i`-th argument function as a `(T, T) -> T` combiner
    /// that resolves per application: a direct operator by matching on
    /// it, anything else through its readied function. What runs where a
    /// combiner is applied a few times (a tree reduction) or for the
    /// operators no loop is instantiated for.
    fn kernel2<T: Elem>(&self, i: usize) -> impl FnMut(T, T) -> T + '_ {
        let direct = self.k.direct2(i);
        let mut f = self.arg_fn::<2>(i);
        move |x, y| match direct {
            Some(op) => T::apply(op, x, y),
            None => f.call([x.arg(), y.arg()]),
        }
    }

    /// Argument function 0 as the per-element `(element, index) -> U`
    /// function of a map.
    fn elem_fn<T: Elem, U: Elem>(&self) -> impl FnMut(&T, Index) -> U + '_ {
        let mut f = self.arg_fn::<2>(0);
        move |v, ix| f.call([v.arg(), KArg::Ix(ix)])
    }

    /// The paper's introduction skeleton, bridged to the parallel
    /// divide&conquer implementation. Out of line, like `farm`: a task
    /// skeleton holds its readied functions in its frame, and
    /// [`SkelHost::skel`]'s frame is under every array skeleton's stack
    /// — on every coroutine of a machine.
    #[inline(never)]
    fn dc(&self, proc: &mut Proc<'_>, problem: Option<Value>) -> Option<Value> {
        let (mut is_trivial, mut solve) = (self.arg_fn::<1>(0), self.arg_fn::<1>(1));
        let (mut split, mut join) = (self.arg_fn::<1>(2), self.arg_fn::<1>(3));
        let mut ops = DcOps {
            is_trivial: Kernel::new(
                |p: &Value| is_trivial.call::<IntElem>([KArg::V(p)]).0 != 0,
                self.k.cycles(0),
            ),
            solve: Kernel::new(|p: &Value| solve.call::<Value>([KArg::V(p)]), self.k.cycles(1)),
            split: Kernel::new(
                |p: &Value| match split.call::<Value>([KArg::V(p)]) {
                    Value::List(items) => items.into_vec(),
                    other => panic!("skil runtime: split returned {other:?}, not a list"),
                },
                self.k.cycles(2),
            ),
            join: Kernel::new(
                |parts: Vec<Value>| {
                    let parts = Value::List(ConsList::from_vec(parts));
                    join.call::<Value>([KArg::V(&parts)])
                },
                self.k.cycles(3),
            ),
        };
        rt(divide_conquer(proc, problem, &mut ops))
    }

    #[inline(never)]
    fn farm(&self, proc: &mut Proc<'_>, tasks: Option<Vec<Value>>) -> Option<Vec<Value>> {
        let mut f = self.arg_fn::<1>(0);
        let worker = Kernel::new(|t: &Value| f.call::<Value>([KArg::V(t)]), self.k.cycles(0));
        rt(farm(proc, 0, tasks, worker))
    }

    #[inline(never)]
    fn create<T: Elem>(&self, proc: &mut Proc<'_>, spec: ArraySpec) -> DistArray<T> {
        let mut f = self.arg_fn::<1>(0);
        let init = Kernel::new(|ix: Index| f.call([KArg::Ix(ix)]), self.k.cycles(0));
        rt(array_create(proc, spec, init))
    }

    fn map<T: Elem, U: Elem>(
        &self,
        proc: &mut Proc<'_>,
        from: &DistArray<T>,
        to: &mut DistArray<U>,
    ) {
        rt(array_map(proc, Kernel::new(self.elem_fn(), self.k.cycles(0)), from, to))
    }

    fn map_inplace<T: Elem>(&self, proc: &mut Proc<'_>, arr: &mut DistArray<T>) {
        rt(array_map_inplace(proc, Kernel::new(self.elem_fn(), self.k.cycles(0)), arr))
    }

    #[inline(never)]
    fn fold<T: Elem, U: DirectLoops>(&self, proc: &mut Proc<'_>, arr: &DistArray<T>) -> U {
        let (conv_cycles, fold_cycles) = (self.k.cycles(0), self.k.cycles(1));
        let mut conv = self.arg_fn::<2>(0);
        let conv = |v: &T, ix: Index| conv.call::<U>([v.arg(), KArg::Ix(ix)]);
        match self.k.direct2(1) {
            // the local pass is the operator's own loop; the tree's few
            // hops match on it per application
            Some(op) => {
                let local = |a: &DistArray<T>| U::fold_local(op, a, conv);
                let fold = |x, y| U::apply(op, x, y);
                rt(array_fold_bulk(proc, conv_cycles, fold_cycles, local, fold, arr))
            }
            None => {
                let mut fold = self.arg_fn::<2>(1);
                let fold = |x: U, y: U| fold.call::<U>([x.arg(), y.arg()]);
                let (conv, fold) = (Kernel::new(conv, conv_cycles), Kernel::new(fold, fold_cycles));
                rt(array_fold(proc, conv, fold, arr))
            }
        }
    }

    #[inline(never)]
    fn scan<T: DirectLoops>(
        &self,
        proc: &mut Proc<'_>,
        from: &DistArray<T>,
        to: &mut DistArray<T>,
    ) {
        let cycles = self.k.cycles(0);
        rt(match self.k.direct2(0) {
            Some(op) => T::scan(op, proc, cycles, from, to),
            None => {
                let mut f = self.arg_fn::<2>(0);
                let f = |x: T, y: T| f.call::<T>([x.arg(), y.arg()]);
                array_scan(proc, Kernel::new(f, cycles), from, to)
            }
        })
    }

    #[inline(never)]
    fn permute_rows<T: Elem>(
        &self,
        proc: &mut Proc<'_>,
        from: &DistArray<T>,
        to: &mut DistArray<T>,
    ) {
        let mut f = self.arg_fn::<1>(0);
        let perm = |r: usize| -> usize {
            let v = f.call::<IntElem>([KArg::I(r as i64)]).0;
            assert!(v >= 0, "skil runtime: negative permuted row {v}");
            v as usize
        };
        rt(array_permute_rows(proc, from, perm, to))
    }

    #[inline(never)]
    fn gen_mult<T: DirectLoops>(
        &self,
        proc: &mut Proc<'_>,
        a: &DistArray<T>,
        b: &DistArray<T>,
        c: &mut DistArray<T>,
    ) {
        let (add_cycles, mul_cycles) = (self.k.cycles(0), self.k.cycles(1));
        rt(match self.k.direct2(0).zip(self.k.direct2(1)) {
            // the pair is matched once per block, outside its loops
            Some((add, mul)) => {
                let block = |a: &[T], b: &[T], c: &mut [T], nb| T::block(add, mul, a, b, c, nb);
                array_gen_mult_blocks(proc, a, b, add_cycles, mul_cycles, block, c)
            }
            None => {
                let (add, mut mul) = (self.kernel2::<T>(0), self.kernel2::<T>(1));
                let add = Kernel::new(add, add_cycles);
                let mul = Kernel::new(|x: &T, y: &T| mul(x.clone(), y.clone()), mul_cycles);
                array_gen_mult(proc, a, b, add, mul, c)
            }
        })
    }
}
