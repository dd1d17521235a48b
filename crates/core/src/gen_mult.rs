//! `array_gen_mult`: generic distributed matrix multiplication.
//!
//! "The skeleton uses Gentleman's distributed matrix multiplication
//! algorithm, in which local partition multiplications alternate with
//! partition rotations among the processors. These rotations are done
//! horizontally for the first matrix and vertically for the second one,
//! while the mapping of the result matrix remains unchanged."
//!
//! The composition is parameterized by `gen_mult` (element × element) and
//! `gen_add` (folding partial results), so the same skeleton computes the
//! classical product, (min, +) shortest paths, and any other semiring
//! pattern. The result array acts as the accumulator's initial value, so
//! the caller initializes it with the `gen_add` identity (0 for `+`,
//! "infinity" for `min` — exactly as the paper's `shpaths` does).

use skil_array::{ArrayError, DistArray, Result};
use skil_runtime::{Proc, Wire};

use crate::kernel::Kernel;
use crate::tags;

fn wrapped_dist(a: usize, b: usize, n: usize) -> usize {
    let d = a.abs_diff(b);
    d.min(n - d)
}

/// Generic matrix multiplication `c := c (gen_add) a x b` over the
/// (`gen_add`, `gen_mult`) pattern, following the paper's parameter order
/// `array_gen_mult(a, b, gen_add, gen_mult, c)`.
///
/// Requirements (checked): all three arrays square `n x n`, distributed
/// block-wise on a square torus process grid with `n` divisible by the
/// grid side, and **distinct** ("calls of the form
/// `array_gen_mult(a, a, ...)` and `array_gen_mult(a, ..., a)` are not
/// allowed").
pub fn array_gen_mult<T, FA, FM>(
    proc: &mut Proc<'_>,
    a: &DistArray<T>,
    b: &DistArray<T>,
    gen_add: Kernel<FA>,
    gen_mult: Kernel<FM>,
    c: &mut DistArray<T>,
) -> Result<()>
where
    T: Wire + Clone,
    FA: FnMut(T, T) -> T,
    FM: FnMut(&T, &T) -> T,
{
    let (mut add, mut mul) = (gen_add.f, gen_mult.f);
    let block = |a: &[T], b: &[T], c: &mut [T], nb: usize| {
        block_mult_add(a, b, c, nb, &mut add, &mut mul);
    };
    array_gen_mult_blocks(proc, a, b, gen_add.cycles, gen_mult.cycles, block, c)
}

/// One local block multiply-accumulate, `c := c (add) a x b` over
/// row-major `nb x nb` blocks, as a row-major `i-k-j` pass:
/// `c[i][·] = add(c[i][·], mul(a[i][k], b[k][·]))`. Every `c[i][j]`
/// still meets its products in ascending `k`, so the result is that of
/// the textbook `i-j-k` loop bit for bit, even under a `gen_add` that is
/// not associative; the inner loop walks `b` and `c` along their rows.
pub fn block_mult_add<T: Clone>(
    a: &[T],
    b: &[T],
    c: &mut [T],
    nb: usize,
    mut add: impl FnMut(T, T) -> T,
    mut mul: impl FnMut(&T, &T) -> T,
) {
    if nb == 0 {
        return;
    }
    for (a_row, c_row) in a.chunks_exact(nb).zip(c.chunks_exact_mut(nb)) {
        for (a_ik, b_row) in a_row.iter().zip(b.chunks_exact(nb)) {
            for (c_ij, b_kj) in c_row.iter_mut().zip(b_row) {
                *c_ij = add(c_ij.clone(), mul(a_ik, b_kj));
            }
        }
    }
}

/// [`array_gen_mult`] with the local block multiply-accumulate handed in
/// as one function of `(a block, b block, c block, nb)` — which must do
/// what [`block_mult_add`] does with kernels of `add_cycles` /
/// `mul_cycles` — so a caller that knows its operators can pick a
/// specialised pass once per block instead of once per element. Checks,
/// rotations and charges are those of `array_gen_mult`.
pub fn array_gen_mult_blocks<T, FB>(
    proc: &mut Proc<'_>,
    a: &DistArray<T>,
    b: &DistArray<T>,
    add_cycles: u64,
    mul_cycles: u64,
    mut block: FB,
    c: &mut DistArray<T>,
) -> Result<()>
where
    T: Wire + Clone,
    FB: FnMut(&[T], &[T], &mut [T], usize),
{
    a.check_distinct(b, "array_gen_mult")?;
    a.check_distinct(c, "array_gen_mult")?;
    b.check_distinct(c, "array_gen_mult")?;
    if !a.conformable(b) || !a.conformable(c) {
        return Err(ArrayError::NotConformable("array_gen_mult operands".into()));
    }
    let shape = a.shape();
    if shape.ndim != 2 || shape.size[0] != shape.size[1] {
        return Err(ArrayError::BadSpec("array_gen_mult requires square matrices".into()));
    }
    let grid = a.layout().grid;
    if grid[0] != grid[1] {
        return Err(ArrayError::BadTopology(format!(
            "array_gen_mult requires a square process grid, got {grid:?} \
             (distribute onto DISTR_TORUS2D on a square machine)"
        )));
    }
    let s = grid[0];
    let n = shape.size[0];
    if !n.is_multiple_of(s) {
        return Err(ArrayError::BadSpec(format!(
            "matrix size {n} not divisible by process-grid side {s}"
        )));
    }
    let nb = n / s;
    let me = proc.id();
    let [gr, gc] = a.layout().grid_coords(me);
    let torus = proc.torus(true);
    let cost = proc.cost().clone();

    let span = proc.span_begin();

    // Work on local copies so the operand arrays survive unrotated.
    let mut a_loc: Vec<T> = a.local_data().to_vec();
    let mut b_loc: Vec<T> = b.local_data().to_vec();
    proc.charge(cost.memcpy_elem * 2 * (nb * nb) as u64);

    // --- Cannon/Gentleman alignment ---
    // Row r of A blocks shifts left by r; column c of B blocks shifts up
    // by c. Done as one direct message over the (virtually embedded)
    // torus; dilation-2 embedding doubles the wrapped hop distance.
    if s > 1 {
        if gr > 0 {
            let dst_col = (gc + s - gr % s) % s;
            let src_col = (gc + gr) % s;
            let dst = a.layout().proc_at([gr, dst_col]);
            let src = a.layout().proc_at([gr, src_col]);
            if dst != me {
                let hops = 2 * wrapped_dist(gc, dst_col, s);
                proc.send_hops(dst, hops, tags::GEN_MULT_A + 0xFFFF, &a_loc);
                proc.recv_into(src, tags::GEN_MULT_A + 0xFFFF, &mut a_loc);
            }
        }
        if gc > 0 {
            let dst_row = (gr + s - gc % s) % s;
            let src_row = (gr + gc) % s;
            let dst = a.layout().proc_at([dst_row, gc]);
            let src = a.layout().proc_at([src_row, gc]);
            if dst != me {
                let hops = 2 * wrapped_dist(gr, dst_row, s);
                proc.send_hops(dst, hops, tags::GEN_MULT_B + 0xFFFF, &b_loc);
                proc.recv_into(src, tags::GEN_MULT_B + 0xFFFF, &mut b_loc);
            }
        }
    }

    // Per inner-loop element: two operand loads, loop/index bookkeeping,
    // plus the customizing functions. With integer kernels this totals
    // the calibrated ≈290 cycles of compiled Skil code (DESIGN.md §4).
    let inner_cost = 2 * cost.load + cost.index_calc + add_cycles + mul_cycles;

    for step in 0..s {
        // Local block multiply-accumulate into c.
        block(&a_loc, &b_loc, c.local_data_mut(), nb);
        proc.charge(inner_cost * (nb * nb * nb) as u64);

        if step + 1 == s || s == 1 {
            break;
        }
        // Rotate A west (receive from the east), B north (receive from
        // the south), one torus step each, decoding into the blocks just
        // sent.
        let (west, wh) = torus.west(me);
        let (east, _) = torus.east(me);
        proc.send_hops(west, wh, tags::GEN_MULT_A + step as u64, &a_loc);
        let (north, nh) = torus.north(me);
        let (south, _) = torus.south(me);
        proc.send_hops(north, nh, tags::GEN_MULT_B + step as u64, &b_loc);
        proc.recv_into(east, tags::GEN_MULT_A + step as u64, &mut a_loc);
        proc.recv_into(south, tags::GEN_MULT_B + step as u64, &mut b_loc);
    }
    proc.span_end("gen_mult", span);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::create::array_create;
    use crate::kernel::Kernel;
    use skil_array::{ArraySpec, Index};
    use skil_runtime::{CostModel, Distr, Machine, MachineConfig, Proc};

    fn zero_machine(side: usize) -> Machine {
        Machine::new(MachineConfig::square(side).unwrap().with_cost(CostModel::zero()))
    }

    /// Gather a full matrix at every proc for verification (test helper).
    fn collect_matrix(p: &mut Proc<'_>, a: &DistArray<i64>, n: usize) -> Vec<i64> {
        let local: Vec<(u64, u64, i64)> =
            a.iter_local().map(|(ix, &v)| (ix[0] as u64, ix[1] as u64, v)).collect();
        let all = p.allreduce(
            0x3333,
            local,
            |mut x, y| {
                x.extend(y);
                x
            },
            0,
        );
        let mut m = vec![0i64; n * n];
        for (r, c, v) in all {
            m[(r as usize) * n + c as usize] = v;
        }
        m
    }

    fn seq_matmul(a: &[i64], b: &[i64], n: usize) -> Vec<i64> {
        let mut c = vec![0i64; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0;
                for k in 0..n {
                    acc += a[i * n + k] * b[k * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn run_gen_mult(side: usize, n: usize) {
        let m = zero_machine(side);
        let run = m.run(|p| {
            let af = |ix: Index| ((ix[0] * 31 + ix[1] * 7) % 13) as i64 - 6;
            let bf = |ix: Index| ((ix[0] * 17 + ix[1] * 3) % 11) as i64 - 5;
            let a = array_create(p, ArraySpec::d2(n, n, Distr::Torus2d), Kernel::free(af)).unwrap();
            let b = array_create(p, ArraySpec::d2(n, n, Distr::Torus2d), Kernel::free(bf)).unwrap();
            let mut c =
                array_create(p, ArraySpec::d2(n, n, Distr::Torus2d), Kernel::free(|_| 0i64))
                    .unwrap();
            array_gen_mult(
                p,
                &a,
                &b,
                Kernel::free(|x: i64, y: i64| x + y),
                Kernel::free(|x: &i64, y: &i64| x * y),
                &mut c,
            )
            .unwrap();
            (collect_matrix(p, &a, n), collect_matrix(p, &b, n), collect_matrix(p, &c, n))
        });
        let (a, b, c) = &run.results[0];
        assert_eq!(c, &seq_matmul(a, b, n), "side={side} n={n}");
        // every proc agrees
        for r in &run.results {
            assert_eq!(&r.2, c);
        }
    }

    #[test]
    fn the_row_major_pass_is_the_textbook_loop_under_a_non_associative_add() {
        // `i-k-j` regroups nothing: each c[i][j] meets its products in
        // ascending k, so even `x / 3 - y` over floats (neither
        // associative nor commutative, and it rounds) gives the bits of
        // the `i-j-k` loop
        let add = |x: f64, y: f64| x / 3.0 - y;
        let mul = |x: &f64, y: &f64| x * y + 0.1;
        for nb in [1usize, 2, 7, 8] {
            let cell = |seed: usize| move |i: usize| ((i * seed) % 17) as f64 / 7.0 - 1.0;
            let a: Vec<f64> = (0..nb * nb).map(cell(5)).collect();
            let b: Vec<f64> = (0..nb * nb).map(cell(11)).collect();
            let c0: Vec<f64> = (0..nb * nb).map(cell(3)).collect();
            let mut want = c0.clone();
            for i in 0..nb {
                for j in 0..nb {
                    let mut acc = want[i * nb + j];
                    for k in 0..nb {
                        acc = add(acc, mul(&a[i * nb + k], &b[k * nb + j]));
                    }
                    want[i * nb + j] = acc;
                }
            }
            let mut got = c0;
            block_mult_add(&a, &b, &mut got, nb, add, mul);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "nb={nb}");
        }
        block_mult_add(&[], &[], &mut [] as &mut [f64], 0, add, mul);
    }

    #[test]
    fn classical_matmul_1x1_grid() {
        run_gen_mult(1, 4);
    }

    #[test]
    fn classical_matmul_2x2_grid() {
        run_gen_mult(2, 4);
        run_gen_mult(2, 8);
    }

    #[test]
    fn classical_matmul_3x3_grid() {
        run_gen_mult(3, 6);
    }

    #[test]
    fn classical_matmul_4x4_grid() {
        run_gen_mult(4, 8);
    }

    #[test]
    fn min_plus_semiring() {
        // shortest-path pattern: min as gen_add, + as gen_mult,
        // c initialized to "infinity".
        const INF: i64 = i64::MAX / 4;
        let n = 4;
        let m = zero_machine(2);
        let run = m.run(|p| {
            let w = |ix: Index| {
                if ix[0] == ix[1] {
                    0
                } else {
                    ((ix[0] * 5 + ix[1] * 3) % 9) as i64 + 1
                }
            };
            let a = array_create(p, ArraySpec::d2(n, n, Distr::Torus2d), Kernel::free(w)).unwrap();
            let b = array_create(p, ArraySpec::d2(n, n, Distr::Torus2d), Kernel::free(w)).unwrap();
            let mut c = array_create(p, ArraySpec::d2(n, n, Distr::Torus2d), Kernel::free(|_| INF))
                .unwrap();
            array_gen_mult(
                p,
                &a,
                &b,
                Kernel::free(i64::min),
                Kernel::free(|x: &i64, y: &i64| x + y),
                &mut c,
            )
            .unwrap();
            collect_matrix(p, &c, n)
        });
        // sequential (min,+) square
        let w = |i: usize, j: usize| {
            if i == j {
                0
            } else {
                ((i * 5 + j * 3) % 9) as i64 + 1
            }
        };
        let mut expect = vec![INF; n * n];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    expect[i * n + j] = expect[i * n + j].min(w(i, k) + w(k, j));
                }
            }
        }
        assert_eq!(run.results[0], expect);
    }

    #[test]
    fn accumulates_into_c() {
        // c's initial contents participate via gen_add.
        let n = 2;
        let m = zero_machine(1);
        let run = m.run(|p| {
            let a = array_create(p, ArraySpec::d2(n, n, Distr::Torus2d), Kernel::free(|_| 1i64))
                .unwrap();
            let b = array_create(p, ArraySpec::d2(n, n, Distr::Torus2d), Kernel::free(|_| 1i64))
                .unwrap();
            let mut c =
                array_create(p, ArraySpec::d2(n, n, Distr::Torus2d), Kernel::free(|_| 100i64))
                    .unwrap();
            array_gen_mult(
                p,
                &a,
                &b,
                Kernel::free(|x: i64, y: i64| x + y),
                Kernel::free(|x: &i64, y: &i64| x * y),
                &mut c,
            )
            .unwrap();
            c.local_data().to_vec()
        });
        assert_eq!(run.results[0], vec![102, 102, 102, 102]);
    }

    #[test]
    fn rejects_aliased_arguments() {
        let m = zero_machine(1);
        let run = m.run(|p| {
            let a = array_create(p, ArraySpec::d2(2, 2, Distr::Torus2d), Kernel::free(|_| 1i64))
                .unwrap();
            let b = array_create(p, ArraySpec::d2(2, 2, Distr::Torus2d), Kernel::free(|_| 1i64))
                .unwrap();
            let mut c = a.clone();
            matches!(
                array_gen_mult(
                    p,
                    &a,
                    &b,
                    Kernel::free(|x: i64, y: i64| x + y),
                    Kernel::free(|x: &i64, y: &i64| x * y),
                    &mut c,
                ),
                Err(ArrayError::AliasedArrays(_))
            )
        });
        assert!(run.results[0]);
    }

    #[test]
    fn rejects_non_square_grid() {
        let m = Machine::new(MachineConfig::mesh(2, 1).unwrap().with_cost(CostModel::zero()));
        let run = m.run(|p| {
            // Default distr => row-block grid [2,1], not square
            let a = array_create(p, ArraySpec::d2(4, 4, Distr::Default), Kernel::free(|_| 1i64))
                .unwrap();
            let b = array_create(p, ArraySpec::d2(4, 4, Distr::Default), Kernel::free(|_| 1i64))
                .unwrap();
            let mut c =
                array_create(p, ArraySpec::d2(4, 4, Distr::Default), Kernel::free(|_| 0i64))
                    .unwrap();
            matches!(
                array_gen_mult(
                    p,
                    &a,
                    &b,
                    Kernel::free(|x: i64, y: i64| x + y),
                    Kernel::free(|x: &i64, y: &i64| x * y),
                    &mut c,
                ),
                Err(ArrayError::BadTopology(_))
            )
        });
        assert!(run.results.iter().all(|&ok| ok));
    }

    #[test]
    fn rejects_indivisible_size() {
        let m = zero_machine(2);
        let run = m.run(|p| {
            let mk = |p: &mut Proc<'_>| {
                array_create(p, ArraySpec::d2(5, 5, Distr::Torus2d), Kernel::free(|_| 1i64))
            };
            match (mk(p), mk(p), mk(p)) {
                (Ok(a), Ok(b), Ok(mut c)) => matches!(
                    array_gen_mult(
                        p,
                        &a,
                        &b,
                        Kernel::free(|x: i64, y: i64| x + y),
                        Kernel::free(|x: &i64, y: &i64| x * y),
                        &mut c,
                    ),
                    Err(ArrayError::BadSpec(_))
                ),
                _ => true, // ragged creation may legitimately fail earlier
            }
        });
        assert!(run.results.iter().all(|&ok| ok));
    }
}
