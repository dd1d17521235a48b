//! Communication skeletons: `array_broadcast_part` and
//! `array_permute_rows`.

use skil_array::{ArrayError, DistArray, Index, Result};
use skil_runtime::{Proc, Wire};

use crate::tags;

/// Broadcast the partition containing the element with index `ix` to all
/// other processors; "each processor overwrites his partition with the
/// broadcasted one".
///
/// All partitions must have the same extent (the paper relies on this
/// for the `piv` array, created `p x (n+1)` so "each processor thus
/// getting one row").
pub fn array_broadcast_part<T>(proc: &mut Proc<'_>, a: &mut DistArray<T>, ix: Index) -> Result<()>
where
    T: Wire + Clone,
{
    let root = a.owner(ix)?;
    let span = proc.span_begin();
    let payload = if proc.id() == root { Some(a.local_data().to_vec()) } else { None };
    let received: Vec<T> = proc.broadcast(root, tags::BCAST_PART, payload);
    if received.len() != a.local_len() {
        return Err(ArrayError::PartitionMismatch(format!(
            "broadcast partition has {} elements, local partition {}",
            received.len(),
            a.local_len()
        )));
    }
    proc.charge(proc.cost().memcpy_elem * received.len() as u64);
    proc.span_end("bcast", span);
    a.replace_local_data(received)
}

/// Permute the rows of a 2-D array: row `i` of `from` becomes row
/// `perm_f(i)` of `to`. "The user must provide a bijective function on
/// {0, 1, ..., n-1}, where n is the number of rows, otherwise a run-time
/// error occurs."
pub fn array_permute_rows<T, F>(
    proc: &mut Proc<'_>,
    from: &DistArray<T>,
    mut perm_f: F,
    to: &mut DistArray<T>,
) -> Result<()>
where
    T: Wire + Clone,
    F: FnMut(usize) -> usize,
{
    if from.shape().ndim != 2 {
        return Err(ArrayError::BadSpec("array_permute_rows requires a 2-D array".into()));
    }
    if !from.conformable(to) {
        return Err(ArrayError::NotConformable("array_permute_rows operands".into()));
    }
    from.check_distinct(to, "array_permute_rows")?;
    let n = from.shape().size[0];

    // Run-time bijectivity check, as the paper prescribes. Every
    // processor validates (it is about to trust the permutation for its
    // own traffic); cost: one evaluation + one mark per row.
    let mut inverse = vec![usize::MAX; n];
    for i in 0..n {
        let img = perm_f(i);
        if img >= n {
            return Err(ArrayError::NotBijective { row: i });
        }
        if inverse[img] != usize::MAX {
            return Err(ArrayError::NotBijective { row: img });
        }
        inverse[img] = i;
    }
    let span = proc.span_begin();
    let memcpy_elem = proc.cost().memcpy_elem;
    let check_cost = proc.cost().call + 2 * proc.cost().int_op;
    proc.charge(check_cost * n as u64);

    let bounds = from.part_bounds()?;
    let to_bounds = to.part_bounds()?;
    let cols = bounds.extent()[1];
    let layout = *from.layout();

    // Send phase: each local row segment goes to the processor holding
    // the destination row in the same column range.
    for r in bounds.lower[0]..bounds.upper[0] {
        let dst_row = perm_f(r);
        let dst = layout.owner([dst_row, bounds.lower[1]])?;
        let start = (r - bounds.lower[0]) * cols;
        let seg = &from.local_data()[start..start + cols];
        if dst == proc.id() {
            let tstart = (dst_row - to_bounds.lower[0]) * cols;
            to.local_data_mut()[tstart..tstart + cols].clone_from_slice(seg);
            proc.charge(memcpy_elem * cols as u64);
        } else {
            proc.send(dst, tags::PERMUTE + dst_row as u64, &seg.to_vec());
        }
    }

    // Receive phase: each destination row comes from the owner of its
    // preimage. `tr` is a global row id used for tags and offsets, not
    // just an index into `inverse`, so a range loop is the clear form.
    #[allow(clippy::needless_range_loop)]
    for tr in to_bounds.lower[0]..to_bounds.upper[0] {
        let src_row = inverse[tr];
        let src = layout.owner([src_row, bounds.lower[1]])?;
        if src == proc.id() {
            continue; // already copied locally
        }
        let seg: Vec<T> = proc.recv(src, tags::PERMUTE + tr as u64);
        if seg.len() != cols {
            return Err(ArrayError::PartitionMismatch(format!(
                "permuted row segment has {} elements, expected {}",
                seg.len(),
                cols
            )));
        }
        let tstart = (tr - to_bounds.lower[0]) * cols;
        to.local_data_mut()[tstart..tstart + cols].clone_from_slice(&seg);
        proc.charge(memcpy_elem * cols as u64);
    }
    proc.span_end("permute", span);
    Ok(())
}

/// The row-switching permutation of the paper's Gaussian elimination:
/// "an argument function that for each of the considered two rows
/// returns the number of the other one, and is the identity for each
/// other row".
pub fn switch_rows(a: usize, b: usize) -> impl Fn(usize) -> usize {
    move |r| {
        if r == a {
            b
        } else if r == b {
            a
        } else {
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::create::array_create;
    use crate::kernel::Kernel;
    use skil_array::ArraySpec;
    use skil_runtime::{CostModel, Distr, Machine, MachineConfig};

    fn zero_machine(n: usize) -> Machine {
        Machine::new(MachineConfig::procs(n).unwrap().with_cost(CostModel::zero()))
    }

    #[test]
    fn broadcast_part_overwrites_all_partitions() {
        let m = zero_machine(4);
        let run = m.run(|p| {
            let mut a = array_create(
                p,
                ArraySpec::d2(4, 3, Distr::Default),
                Kernel::free(|ix: Index| (ix[0] * 10 + ix[1]) as u32),
            )
            .unwrap();
            // broadcast the partition holding row 2 (processor 2)
            array_broadcast_part(p, &mut a, [2, 0]).unwrap();
            a.local_data().to_vec()
        });
        for r in &run.results {
            assert_eq!(r, &vec![20, 21, 22]);
        }
    }

    #[test]
    fn permute_rows_reverses() {
        let m = zero_machine(4);
        let run = m.run(|p| {
            let a = array_create(
                p,
                ArraySpec::d2(8, 2, Distr::Default),
                Kernel::free(|ix: Index| (ix[0] * 10 + ix[1]) as u64),
            )
            .unwrap();
            let mut b =
                array_create(p, ArraySpec::d2(8, 2, Distr::Default), Kernel::free(|_| 0u64))
                    .unwrap();
            array_permute_rows(p, &a, |r| 7 - r, &mut b).unwrap();
            b.local_data().to_vec()
        });
        // processor 0 holds rows 0..2 of b = old rows 7, 6
        assert_eq!(run.results[0], vec![70, 71, 60, 61]);
        assert_eq!(run.results[3], vec![10, 11, 0, 1]);
    }

    #[test]
    fn permute_rows_switch_rows_helper() {
        let f = switch_rows(2, 5);
        assert_eq!(f(2), 5);
        assert_eq!(f(5), 2);
        assert_eq!(f(0), 0);

        let m = zero_machine(2);
        let run = m.run(|p| {
            let a = array_create(
                p,
                ArraySpec::d2(4, 2, Distr::Default),
                Kernel::free(|ix: Index| ix[0] as u64),
            )
            .unwrap();
            let mut b =
                array_create(p, ArraySpec::d2(4, 2, Distr::Default), Kernel::free(|_| 0u64))
                    .unwrap();
            array_permute_rows(p, &a, switch_rows(0, 3), &mut b).unwrap();
            b.local_data().to_vec()
        });
        assert_eq!(run.results[0], vec![3, 3, 1, 1]);
        assert_eq!(run.results[1], vec![2, 2, 0, 0]);
    }

    #[test]
    fn permute_rows_identity_is_local_only() {
        let m = Machine::new(MachineConfig::procs(4).unwrap());
        let run = m.run(|p| {
            let a = array_create(
                p,
                ArraySpec::d2(8, 2, Distr::Default),
                Kernel::free(|ix: Index| ix[0] as u64),
            )
            .unwrap();
            let mut b =
                array_create(p, ArraySpec::d2(8, 2, Distr::Default), Kernel::free(|_| 0u64))
                    .unwrap();
            array_permute_rows(p, &a, |r| r, &mut b).unwrap();
            (b.local_data().to_vec(), p.stats().sends)
        });
        for (id, (data, sends)) in run.results.iter().enumerate() {
            assert_eq!(
                data,
                &vec![(id * 2) as u64, (id * 2) as u64, (id * 2 + 1) as u64, (id * 2 + 1) as u64]
            );
            assert_eq!(*sends, 0, "identity permutation sends nothing");
        }
    }

    #[test]
    fn permute_rows_rejects_non_bijection() {
        let m = zero_machine(2);
        let run = m.run(|p| {
            let a = array_create(p, ArraySpec::d2(4, 2, Distr::Default), Kernel::free(|_| 0u8))
                .unwrap();
            let mut b = array_create(p, ArraySpec::d2(4, 2, Distr::Default), Kernel::free(|_| 0u8))
                .unwrap();
            let constant = array_permute_rows(p, &a, |_| 0, &mut b);
            let out_of_range = array_permute_rows(p, &a, |r| r + 1, &mut b);
            (
                matches!(constant, Err(ArrayError::NotBijective { .. })),
                matches!(out_of_range, Err(ArrayError::NotBijective { .. })),
            )
        });
        assert!(run.results.iter().all(|&(a, b)| a && b));
    }

    #[test]
    fn permute_rows_rejects_aliasing_and_1d() {
        let m = zero_machine(2);
        let run = m.run(|p| {
            let a = array_create(p, ArraySpec::d2(4, 2, Distr::Default), Kernel::free(|_| 0u8))
                .unwrap();
            let mut b = a.clone(); // same uid: aliased
            let aliased = matches!(
                array_permute_rows(p, &a, |r| r, &mut b),
                Err(ArrayError::AliasedArrays(_))
            );
            let d1 =
                array_create(p, ArraySpec::d1(4, Distr::Default), Kernel::free(|_| 0u8)).unwrap();
            let mut d1b =
                array_create(p, ArraySpec::d1(4, Distr::Default), Kernel::free(|_| 0u8)).unwrap();
            let not2d = array_permute_rows(p, &d1, |r| r, &mut d1b).is_err();
            (aliased, not2d)
        });
        assert!(run.results.iter().all(|&(a, b)| a && b));
    }

    #[test]
    fn broadcast_part_on_torus_partitions() {
        // 2x2 torus grid over a 4x4 array: partitions are 2x2 blocks.
        let m = zero_machine(4);
        let run = m.run(|p| {
            let mut a = array_create(
                p,
                ArraySpec::d2(4, 4, Distr::Torus2d),
                Kernel::free(|ix: Index| (ix[0] * 4 + ix[1]) as u32),
            )
            .unwrap();
            array_broadcast_part(p, &mut a, [3, 3]).unwrap();
            a.local_data().to_vec()
        });
        // the partition containing (3,3) is the bottom-right 2x2 block
        for r in &run.results {
            assert_eq!(r, &vec![10, 11, 14, 15]);
        }
    }
}
