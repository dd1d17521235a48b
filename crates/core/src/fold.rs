//! `array_fold`: convert, fold locally, reduce along the tree, broadcast.
//!
//! "$t2 array_fold($t2 conv_f($t1, Index), $t2 fold_f($t2, $t2),
//! array<$t1> a)". The skeleton first applies `conv_f` to every element
//! (fused into the local pass — "this step could also be done by a
//! preliminary `array_map`, but our solution is more efficient"), folds
//! each partition, reduces partition results along a virtual tree
//! topology, and finally broadcasts the result so *all* processors know
//! it.
//!
//! As in the paper, the composition order is not part of the contract:
//! "the user should provide an associative and commutative folding
//! function, otherwise the result is non-deterministic". (Our fixed tree
//! makes any given machine shape reproducible, but different shapes
//! compose in different orders.)

use skil_array::{ArrayError, DistArray, Index, Result};
use skil_runtime::{Proc, Wire};

use crate::kernel::Kernel;
use crate::tags;

/// Fold all elements of `a` into a single value known to every
/// processor.
///
/// ```
/// use skil_array::{ArraySpec, Index};
/// use skil_core::{array_create, array_fold, Kernel};
/// use skil_runtime::{Distr, Machine, MachineConfig};
///
/// let machine = Machine::new(MachineConfig::procs(4).unwrap());
/// let run = machine.run(|p| {
///     let a = array_create(p, ArraySpec::d1(32, Distr::Default),
///                          Kernel::free(|ix: Index| ix[0] as u64)).unwrap();
///     array_fold(p,
///                Kernel::free(|&v: &u64, _| v),
///                Kernel::free(|x: u64, y: u64| x + y),
///                &a).unwrap()
/// });
/// assert!(run.results.iter().all(|&v| v == (0..32u64).sum()));
/// ```
pub fn array_fold<T, U, FC, FF>(
    proc: &mut Proc<'_>,
    conv_f: Kernel<FC>,
    fold_f: Kernel<FF>,
    a: &DistArray<T>,
) -> Result<U>
where
    U: Wire + Clone,
    FC: FnMut(&T, Index) -> U,
    FF: FnMut(U, U) -> U,
{
    let mut fold = fold_f.f;
    let span = proc.span_begin();
    let acc = fold_local(a, conv_f.f, &mut fold);
    charge_local_pass(proc, a.local_len(), conv_f.cycles, fold_f.cycles);
    reduce_partitions(proc, span, acc, fold_f.cycles, &mut fold)
}

/// The fused local pass of a fold: convert each element of this
/// processor's partition and immediately fold it into the running value,
/// `fold(..fold(conv(v0,ix0), conv(v1,ix1)).., conv(vn,ixn))`; `None`
/// for an empty partition.
pub fn fold_local<T, U>(
    a: &DistArray<T>,
    mut conv: impl FnMut(&T, Index) -> U,
    mut fold: impl FnMut(U, U) -> U,
) -> Option<U> {
    let mut elems = a.iter_local();
    let (ix, v) = elems.next()?;
    let mut acc = conv(v, ix);
    for (ix, v) in elems {
        acc = fold(acc, conv(v, ix));
    }
    Some(acc)
}

/// The per-hop cost of one `fold_f` application.
fn fold_cost(proc: &Proc<'_>, fold_cycles: u64) -> u64 {
    let c = proc.cost();
    c.call + c.load + fold_cycles
}

/// What the fused local pass over `elems` elements costs.
fn charge_local_pass(proc: &mut Proc<'_>, elems: usize, conv_cycles: u64, fold_cycles: u64) {
    let c = proc.cost();
    let conv_cost = c.call + 2 * c.load + c.index_calc + conv_cycles;
    let elems = elems as u64;
    proc.charge(conv_cost * elems + fold_cost(proc, fold_cycles) * elems.saturating_sub(1));
}

/// Tree reduction of partition results, then broadcast from the root
/// "in order to make the result known to all processors". Processors
/// whose partition is empty (ragged distributions) contribute nothing.
///
/// The folding function is applied a few times per processor here, so it
/// comes by reference: the collective is instantiated per result type,
/// not per caller's closure.
fn reduce_partitions<U: Wire + Clone>(
    proc: &mut Proc<'_>,
    span: skil_runtime::SpanStart,
    acc: Option<U>,
    fold_cycles: u64,
    fold: &mut dyn FnMut(U, U) -> U,
) -> Result<U> {
    let hop_cost = fold_cost(proc, fold_cycles);
    let combined = proc.allreduce(tags::FOLD, acc, merge_partials(fold), hop_cost);
    proc.span_end("fold", span);
    combined.ok_or_else(|| ArrayError::BadSpec("array_fold over an empty array".into()))
}

/// `fold` lifted to partition results that may be absent.
fn merge_partials<U>(
    mut fold: impl FnMut(U, U) -> U,
) -> impl FnMut(Option<U>, Option<U>) -> Option<U> {
    move |x, y| match (x, y) {
        (Some(a), Some(b)) => Some(fold(a, b)),
        (a, None) => a,
        (None, b) => b,
    }
}

/// [`array_fold`] whose fused local pass runs as **one** `local` call
/// over the whole partition: a caller that knows its folding operator
/// picks a specialised pass once instead of dispatching on it per
/// element. `local` must perform
/// exactly what [`fold_local`] does; charges and the tree reduction are
/// identical to `array_fold` with kernels of `conv_cycles` /
/// `fold_cycles`.
pub fn array_fold_bulk<T, U, FL, FF>(
    proc: &mut Proc<'_>,
    conv_cycles: u64,
    fold_cycles: u64,
    local: FL,
    mut fold: FF,
    a: &DistArray<T>,
) -> Result<U>
where
    U: Wire + Clone,
    FL: FnOnce(&DistArray<T>) -> Option<U>,
    FF: FnMut(U, U) -> U,
{
    let span = proc.span_begin();
    let acc = local(a);
    charge_local_pass(proc, a.local_len(), conv_cycles, fold_cycles);
    reduce_partitions(proc, span, acc, fold_cycles, &mut fold)
}

/// Fold without the final broadcast: the result lands only on `root`
/// (an ablation variant used to measure the cost of the paper's
/// broadcast-to-all design; `None` elsewhere).
pub fn array_fold_to_root<T, U, FC, FF>(
    proc: &mut Proc<'_>,
    root: usize,
    conv_f: Kernel<FC>,
    fold_f: Kernel<FF>,
    a: &DistArray<T>,
) -> Result<Option<U>>
where
    U: Wire + Clone,
    FC: FnMut(&T, Index) -> U,
    FF: FnMut(U, U) -> U,
{
    let mut fold = fold_f.f;
    let acc = fold_local(a, conv_f.f, &mut fold);
    charge_local_pass(proc, a.local_len(), conv_f.cycles, fold_f.cycles);
    let hop_cost = fold_cost(proc, fold_f.cycles);
    match proc.reduce(root, tags::FOLD, acc, merge_partials(fold), hop_cost) {
        Some(Some(v)) => Ok(Some(v)),
        Some(None) => Err(ArrayError::BadSpec("array_fold over an empty array".into())),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::create::array_create;
    use skil_array::ArraySpec;
    use skil_runtime::{CostModel, Distr, Machine, MachineConfig};

    fn zero_machine(n: usize) -> Machine {
        Machine::new(MachineConfig::procs(n).unwrap().with_cost(CostModel::zero()))
    }

    #[test]
    fn fold_sums_everywhere() {
        for n in [1, 2, 4, 8] {
            let m = zero_machine(n);
            let run = m.run(|p| {
                let a = array_create(
                    p,
                    ArraySpec::d1(16, Distr::Default),
                    Kernel::free(|ix: Index| ix[0] as u64),
                )
                .unwrap();
                array_fold(
                    p,
                    Kernel::free(|&v: &u64, _| v),
                    Kernel::free(|x: u64, y: u64| x + y),
                    &a,
                )
                .unwrap()
            });
            assert!(run.results.iter().all(|&v| v == 120), "n={n}");
        }
    }

    #[test]
    fn fold_with_conversion() {
        // The paper's Gaussian pivot search: convert each element to a
        // record, fold by max |value| within column k.
        let m = zero_machine(4);
        let run = m.run(|p| {
            let a = array_create(
                p,
                ArraySpec::d2(8, 4, Distr::Default),
                Kernel::free(|ix: Index| ((ix[0] * 7 + 3) % 11) as f64 - 5.0),
            )
            .unwrap();
            let k = 2usize;
            // make_elemrec: (value, row, col)
            let conv = Kernel::free(move |&v: &f64, ix: Index| (v, ix[0] as u64, ix[1] as u64));
            // max_abs_in_col k
            let fold = Kernel::free(move |x: (f64, u64, u64), y: (f64, u64, u64)| {
                let xin = x.2 == k as u64;
                let yin = y.2 == k as u64;
                match (xin, yin) {
                    (true, false) => x,
                    (false, true) => y,
                    (false, false) => x,
                    (true, true) => {
                        if y.0.abs() > x.0.abs() {
                            y
                        } else {
                            x
                        }
                    }
                }
            });
            array_fold(p, conv, fold, &a).unwrap()
        });
        // verify against a sequential computation
        let mut best = (f64::MIN, 0u64);
        for row in 0..8u64 {
            let v = ((row as usize * 7 + 3) % 11) as f64 - 5.0;
            if v.abs() > best.0 {
                best = (v.abs(), row);
            }
        }
        for r in &run.results {
            assert_eq!(r.1, best.1);
            assert_eq!(r.2, 2);
            assert!((r.0.abs() - best.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fold_to_root_only_root_knows() {
        let m = zero_machine(4);
        let run = m.run(|p| {
            let a =
                array_create(p, ArraySpec::d1(8, Distr::Default), Kernel::free(|_| 1u64)).unwrap();
            array_fold_to_root(
                p,
                0,
                Kernel::free(|&v: &u64, _| v),
                Kernel::free(|x: u64, y: u64| x + y),
                &a,
            )
            .unwrap()
        });
        assert_eq!(run.results[0], Some(8));
        assert!(run.results[1..].iter().all(|r| r.is_none()));
    }

    #[test]
    fn fold_cost_includes_conversion_and_folding() {
        let cfg = MachineConfig::procs(1).unwrap().with_cost(CostModel::free_comm());
        let c = cfg.cost.clone();
        let m = Machine::new(cfg);
        let run = m.run(|p| {
            let a =
                array_create(p, ArraySpec::d1(4, Distr::Default), Kernel::free(|_| 1u64)).unwrap();
            let before = p.now();
            let _ = array_fold(
                p,
                Kernel::new(|&v: &u64, _| v, 5),
                Kernel::new(|x: u64, y: u64| x + y, 9),
                &a,
            )
            .unwrap();
            p.now() - before
        });
        let conv_cost = c.call + 2 * c.load + c.index_calc + 5;
        let fold_cost = c.call + c.load + 9;
        assert_eq!(run.results[0], conv_cost * 4 + fold_cost * 3);
    }

    #[test]
    fn fold_min_over_distributed_array() {
        let m = zero_machine(8);
        let run = m.run(|p| {
            let a = array_create(
                p,
                ArraySpec::d1(64, Distr::Default),
                Kernel::free(|ix: Index| ((ix[0] as i64 * 37) % 101) - 50),
            )
            .unwrap();
            array_fold(p, Kernel::free(|&v: &i64, _| v), Kernel::free(i64::min), &a).unwrap()
        });
        let expect = (0..64).map(|i| ((i * 37) % 101) - 50).min().unwrap();
        assert!(run.results.iter().all(|&v| v == expect));
    }
}
