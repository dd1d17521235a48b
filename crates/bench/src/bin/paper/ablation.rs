//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! 1. `array_fold`'s broadcast-to-all result (the paper's design) vs. a
//!    root-only reduction;
//! 2. tree broadcast (Parix virtual topologies, what the skeletons use)
//!    vs. the owner-serialized send loop of naive hand-written code;
//! 3. asynchronous rotations with compute overlap (the Skil gen_mult)
//!    vs. synchronous sends (the paper's *older* C program);
//! 4. block vs. cyclic distribution (§6 future work) under a triangular
//!    workload.
//!
//! Run with `cargo run --release -p skil-bench --bin paper -- ablation`.

use skil_array::{ArraySpec, Distribution, Index};
use skil_core::{array_create, array_fold, array_fold_to_root, Kernel};
use skil_runtime::{Distr, Machine, MachineConfig, Proc};

pub fn run() {
    fold_broadcast_ablation();
    broadcast_strategy_ablation();
    async_overlap_ablation();
    distribution_ablation();
}

fn fold_broadcast_ablation() {
    println!("[1] array_fold: broadcast-to-all (paper) vs. root-only result\n");
    println!("{:>6} {:>14} {:>14} {:>8}", "procs", "fold-all ms", "fold-root ms", "extra");
    for procs in [4usize, 16, 64] {
        let m = Machine::new(MachineConfig::procs(procs).unwrap());
        let run_all = m.run(|p| {
            let a = make_1d(p, 4096);
            let _ = array_fold(
                p,
                Kernel::free(|&v: &u64, _| v),
                Kernel::new(|x: u64, y: u64| x + y, 70),
                &a,
            )
            .unwrap();
        });
        let run_root = m.run(|p| {
            let a = make_1d(p, 4096);
            let _ = array_fold_to_root(
                p,
                0,
                Kernel::free(|&v: &u64, _| v),
                Kernel::new(|x: u64, y: u64| x + y, 70),
                &a,
            )
            .unwrap();
        });
        let (ta, tr) = (run_all.report.sim_seconds * 1e3, run_root.report.sim_seconds * 1e3);
        println!("{procs:>6} {ta:>14.3} {tr:>14.3} {:>7.1}%", (ta / tr - 1.0) * 100.0);
    }
    println!();
}

fn make_1d<'m>(p: &mut Proc<'m>, n: usize) -> skil_array::DistArray<u64> {
    array_create(p, ArraySpec::d1(n, Distr::Default), Kernel::new(|ix: Index| ix[0] as u64, 70))
        .unwrap()
}

fn broadcast_strategy_ablation() {
    println!("[2] pivot-row broadcast: skeleton tree vs. owner-serialized loop\n");
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>8}",
        "procs", "bytes", "tree ms", "loop ms", "loop/tree"
    );
    for procs in [4usize, 16, 64] {
        for elems in [64usize, 640] {
            let m = Machine::new(MachineConfig::procs(procs).unwrap());
            let payload: Vec<f64> = (0..elems).map(|i| i as f64).collect();
            let tree = m
                .run(|p| {
                    let v = (p.id() == 0).then(|| payload.clone());
                    let _: Vec<f64> = p.broadcast(0, 1, v);
                })
                .report
                .sim_seconds;
            let naive = m
                .run(|p| {
                    let bytes = (payload.len() * 8) as u64;
                    if p.id() == 0 {
                        for dst in 1..p.nprocs() {
                            // the owner's link is busy per transfer
                            p.charge(bytes * p.cost().per_byte + p.cost().raw_link_overhead);
                            p.send_raw(dst, 1, 2, &payload);
                        }
                    } else {
                        let _: Vec<f64> = p.recv_raw(0, 2);
                    }
                })
                .report
                .sim_seconds;
            println!(
                "{procs:>6} {:>8} {:>12.4} {:>12.4} {:>8.2}",
                elems * 8,
                tree * 1e3,
                naive * 1e3,
                naive / tree
            );
        }
    }
    println!("    (the crossover with p explains Table 2's Skil/C column approaching 1)\n");
}

fn async_overlap_ablation() {
    println!("[3] ring rotation: asynchronous sends with overlap vs. synchronous\n");
    println!("{:>6} {:>12} {:>12} {:>10}", "procs", "async ms", "sync ms", "sync/async");
    for procs in [4usize, 16] {
        let m = Machine::new(MachineConfig::procs(procs).unwrap());
        let steps = 16usize;
        let block: Vec<u64> = (0..2048).map(|i| i as u64).collect();
        let compute = 2_000_000u64; // cycles of useful work per step
        let run = |sync: bool| {
            m.run(|p| {
                let next = (p.id() + 1) % p.nprocs();
                let prev = (p.id() + p.nprocs() - 1) % p.nprocs();
                let mut cur = block.clone();
                for step in 0..steps {
                    if p.nprocs() > 1 {
                        if sync {
                            p.send_sync(next, 100 + step as u64, &cur);
                        } else {
                            p.send(next, 100 + step as u64, &cur);
                        }
                    }
                    p.charge(compute); // overlappable work
                    if p.nprocs() > 1 {
                        cur = p.recv(prev, 100 + step as u64);
                    }
                }
                cur[0]
            })
            .report
            .sim_seconds
        };
        let (a, s) = (run(false), run(true));
        println!("{procs:>6} {:>12.3} {:>12.3} {:>10.3}", a * 1e3, s * 1e3, s / a);
    }
    println!();
}

fn distribution_ablation() {
    println!("[4] block vs. cyclic distribution, triangular per-row workload\n");
    println!("{:>6} {:>12} {:>12} {:>12}", "procs", "block ms", "cyclic ms", "speedup");
    for procs in [4usize, 16] {
        let n = 256usize;
        let m = Machine::new(MachineConfig::procs(procs).unwrap());
        let run = |dist: Distribution| {
            m.run(|p| {
                let spec = ArraySpec::d1(n, Distr::Default).with_dist(dist);
                let a = array_create(p, spec, Kernel::free(|ix: Index| ix[0] as u64)).unwrap();
                // triangular work: row i costs ~ i cycles (like the
                // active region of an elimination step)
                let mut extra = 0u64;
                for (ix, _v) in a.iter_local() {
                    extra += 300 * ix[0] as u64;
                }
                p.charge(extra);
                p.barrier(0x42);
            })
            .report
            .sim_seconds
        };
        let b = run(Distribution::Block);
        let c = run(Distribution::Cyclic);
        println!("{procs:>6} {:>12.3} {:>12.3} {:>11.2}x", b * 1e3, c * 1e3, b / c);
    }
    println!("\n    (cyclic balances the triangle; the paper's §6 names cyclic and");
    println!("     block-cyclic distributions as the planned extension)");
}
