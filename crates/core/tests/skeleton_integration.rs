//! Integration tests of skeleton compositions and edge cases.

use skil_array::{ArrayError, ArraySpec, Distribution, HaloArray, Index};
use skil_core::{
    array_broadcast_part, array_copy, array_create, array_fold, array_map, array_scan, array_zip,
    dc_seq, divide_conquer, farm, halo_exchange, stencil_map, DcOps, Kernel,
};
use skil_runtime::{CostModel, Distr, Machine, MachineConfig, Proc};

fn zero_machine(n: usize) -> Machine {
    Machine::new(MachineConfig::procs(n).unwrap().with_cost(CostModel::zero()))
}

#[test]
fn halo_width_two_stencil() {
    // a 5-point row stencil needing two ghost rows
    let rows = 12usize;
    let cols = 4usize;
    let m = zero_machine(3);
    let run = m.run(|p| {
        let a = array_create(
            p,
            ArraySpec::d2(rows, cols, Distr::Default),
            Kernel::free(|ix: Index| ix[0] as i64),
        )
        .unwrap();
        let mut h = HaloArray::new(a, 2).unwrap();
        halo_exchange(p, &mut h).unwrap();
        let mut out =
            array_create(p, ArraySpec::d2(rows, cols, Distr::Default), Kernel::free(|_| 0i64))
                .unwrap();
        stencil_map(
            p,
            Kernel::free(move |h: &HaloArray<i64>, ix: Index| {
                if ix[0] < 2 || ix[0] >= rows - 2 {
                    *h.get(ix).unwrap()
                } else {
                    h.get([ix[0] - 2, ix[1]]).unwrap() + h.get([ix[0] + 2, ix[1]]).unwrap()
                }
            }),
            &h,
            &mut out,
        )
        .unwrap();
        out.iter_local().map(|(ix, &v)| (ix[0], v)).collect::<Vec<_>>()
    });
    for part in run.results {
        for (r, v) in part {
            let want =
                if r < 2 || r >= rows - 2 { r as i64 } else { (r as i64 - 2) + (r as i64 + 2) };
            assert_eq!(v, want, "row {r}");
        }
    }
}

#[test]
fn skeleton_pipeline_map_zip_fold_scan() {
    // compose four skeletons; verify against a sequential computation
    let n = 24usize;
    let m = zero_machine(4);
    let run = m.run(|p| {
        let a = array_create(
            p,
            ArraySpec::d1(n, Distr::Default),
            Kernel::free(|ix: Index| ix[0] as i64),
        )
        .unwrap();
        let mut sq =
            array_create(p, ArraySpec::d1(n, Distr::Default), Kernel::free(|_| 0i64)).unwrap();
        array_map(p, Kernel::free(|&v: &i64, _| v * v), &a, &mut sq).unwrap();
        let mut summed =
            array_create(p, ArraySpec::d1(n, Distr::Default), Kernel::free(|_| 0i64)).unwrap();
        array_zip(p, Kernel::free(|&x: &i64, &y: &i64, _| x + y), &a, &sq, &mut summed).unwrap();
        let mut prefix =
            array_create(p, ArraySpec::d1(n, Distr::Default), Kernel::free(|_| 0i64)).unwrap();
        array_scan(p, Kernel::free(|x: i64, y: i64| x + y), &summed, &mut prefix).unwrap();
        array_fold(p, Kernel::free(|&v: &i64, _| v), Kernel::free(i64::max), &prefix).unwrap()
    });
    // sequential: prefix sums of i + i^2; the max prefix is the last
    let total: i64 = (0..n as i64).map(|i| i + i * i).sum();
    assert!(run.results.iter().all(|&v| v == total));
}

#[test]
fn broadcast_part_rejects_ragged_partitions() {
    // 5 rows over 2 procs: partitions of 3 and 2 rows differ in size
    let m = zero_machine(2);
    let run = m.run(|p| {
        let mut a = array_create(
            p,
            ArraySpec::d2(5, 2, Distr::Default),
            Kernel::free(|ix: Index| ix[0] as u32),
        )
        .unwrap();
        array_broadcast_part(p, &mut a, [0, 0])
    });
    // one side receives a partition of the wrong size
    assert!(run.results.iter().any(|r| matches!(r, Err(ArrayError::PartitionMismatch(_)))));
}

#[test]
fn farm_charges_work_to_workers() {
    let cfg = MachineConfig::procs(4).unwrap().with_cost(CostModel::free_comm());
    let m = Machine::new(cfg);
    let run = m.run(|p| {
        let tasks = (p.id() == 0).then(|| (0u64..8).collect::<Vec<_>>());
        farm(p, 0, tasks, Kernel::new(|&t: &u64| t * t, 1_000)).unwrap();
        p.stats().compute
    });
    // every processor got 2 of the 8 tasks; workers' compute includes
    // the per-task charge
    for (id, &compute) in run.results.iter().enumerate() {
        assert!(compute >= 2 * 1_000, "proc {id} compute {compute}");
    }
}

#[test]
fn dc_seq_and_parallel_agree_on_cost_structure() {
    // same ops; parallel result equals sequential result
    // The four opaque closure types are the skeleton's customizing
    // functions; naming them would hide, not help.
    #[allow(clippy::type_complexity)]
    fn ops() -> DcOps<
        impl FnMut(&Vec<i64>) -> bool,
        impl FnMut(&Vec<i64>) -> Vec<i64>,
        impl FnMut(&Vec<i64>) -> Vec<Vec<i64>>,
        impl FnMut(Vec<Vec<i64>>) -> Vec<i64>,
    > {
        DcOps {
            is_trivial: Kernel::free(|l: &Vec<i64>| l.len() <= 1),
            solve: Kernel::free(|l: &Vec<i64>| l.clone()),
            split: Kernel::free(|l: &Vec<i64>| {
                let pivot = l[0];
                vec![
                    l[1..].iter().copied().filter(|&x| x < pivot).collect(),
                    vec![pivot],
                    l[1..].iter().copied().filter(|&x| x >= pivot).collect(),
                ]
            }),
            join: Kernel::free(|parts: Vec<Vec<i64>>| parts.concat()),
        }
    }
    let data: Vec<i64> = (0..48).map(|i| (i * 29) % 17 - 8).collect();
    let m = zero_machine(4);
    let seq_data = data.clone();
    let run = m.run(move |p: &mut Proc<'_>| {
        let seq = if p.id() == 0 { Some(dc_seq(p, &seq_data, &mut ops())) } else { None };
        let par = divide_conquer(p, (p.id() == 0).then(|| data.clone()), &mut ops()).unwrap();
        (seq, par)
    });
    let (seq, par) = &run.results[0];
    assert_eq!(seq.as_ref().unwrap(), par.as_ref().unwrap());
    let mut expect: Vec<i64> = (0..48).map(|i| (i * 29) % 17 - 8).collect();
    expect.sort_unstable();
    assert_eq!(par.as_ref().unwrap(), &expect);
}

#[test]
fn cyclic_distribution_supports_map_and_fold() {
    let m = zero_machine(3);
    let run = m.run(|p| {
        let spec = ArraySpec::d1(10, Distr::Default).with_dist(Distribution::Cyclic);
        let a = array_create(p, spec, Kernel::free(|ix: Index| ix[0] as u64)).unwrap();
        let mut b = array_create(p, spec, Kernel::free(|_| 0u64)).unwrap();
        array_map(p, Kernel::free(|&v: &u64, ix: Index| v + ix[0] as u64), &a, &mut b).unwrap();
        array_fold(p, Kernel::free(|&v: &u64, _| v), Kernel::free(|x: u64, y: u64| x + y), &b)
            .unwrap()
    });
    let expect: u64 = (0..10u64).map(|i| 2 * i).sum();
    assert!(run.results.iter().all(|&v| v == expect));
}

#[test]
fn copy_then_mutate_leaves_source_untouched() {
    let m = zero_machine(2);
    let run = m.run(|p| {
        let a = array_create(
            p,
            ArraySpec::d1(8, Distr::Default),
            Kernel::free(|ix: Index| ix[0] as u64),
        )
        .unwrap();
        let mut b =
            array_create(p, ArraySpec::d1(8, Distr::Default), Kernel::free(|_| 0u64)).unwrap();
        array_copy(p, &a, &mut b).unwrap();
        let mut b2 = b.clone();
        array_map(p, Kernel::free(|&v: &u64, _| v + 100), &b, &mut b2).unwrap();
        (a.local_data().to_vec(), b2.local_data().to_vec())
    });
    let (a0, b0) = &run.results[0];
    assert_eq!(a0, &vec![0, 1, 2, 3]);
    assert_eq!(b0, &vec![100, 101, 102, 103]);
}

#[test]
fn fold_on_single_element_array() {
    let m = zero_machine(4);
    let run = m.run(|p| {
        let a = array_create(p, ArraySpec::d1(1, Distr::Default), Kernel::free(|_| 42u64)).unwrap();
        array_fold(p, Kernel::free(|&v: &u64, _| v), Kernel::free(|x: u64, y: u64| x + y), &a)
            .unwrap()
    });
    // three of the four processors hold nothing; the fold still works
    assert!(run.results.iter().all(|&v| v == 42));
}

#[test]
fn skeleton_composition_is_masked_under_a_lossy_fault_plan() {
    // A create -> map -> zip -> scan -> fold pipeline routed through the
    // reliable-delivery layer: a recoverable fault plan must leave every
    // value and every logical traffic counter identical to the clean
    // run (DESIGN.md §12); only waiting time may stretch.
    let n = 24usize;
    let program = |p: &mut Proc<'_>| {
        let a = array_create(
            p,
            ArraySpec::d1(n, Distr::Default),
            Kernel::free(|ix: Index| ix[0] as i64),
        )
        .unwrap();
        let mut b =
            array_create(p, ArraySpec::d1(n, Distr::Default), Kernel::free(|_| 0i64)).unwrap();
        array_map(p, Kernel::free(|&v: &i64, _| 3 * v + 1), &a, &mut b).unwrap();
        let mut z =
            array_create(p, ArraySpec::d1(n, Distr::Default), Kernel::free(|_| 0i64)).unwrap();
        array_zip(p, Kernel::free(|&x: &i64, &y: &i64, _| x + y), &a, &b, &mut z).unwrap();
        let mut s =
            array_create(p, ArraySpec::d1(n, Distr::Default), Kernel::free(|_| 0i64)).unwrap();
        array_scan(p, Kernel::free(|x: i64, y: i64| x + y), &z, &mut s).unwrap();
        array_fold(p, Kernel::free(|&v: &i64, _| v), Kernel::free(|x: i64, y: i64| x.max(y)), &s)
            .unwrap()
    };
    let clean = Machine::new(MachineConfig::procs(4).unwrap()).run(program);
    let plan =
        skil_runtime::FaultPlan::seeded(17).with_drop(0.2).with_dup(0.2).with_delay(0.2, 20_000);
    let faulty = Machine::new(MachineConfig::procs(4).unwrap().with_faults(plan)).run(program);
    assert_eq!(faulty.results, clean.results);
    let events: u64 = faulty.report.procs.iter().map(|p| p.stats.fault_events()).sum();
    assert!(events > 0, "plan injected nothing; the test is vacuous");
    for (pf, pc) in faulty.report.procs.iter().zip(&clean.report.procs) {
        assert_eq!(pf.stats.compute, pc.stats.compute);
        assert_eq!(pf.stats.sends, pc.stats.sends);
        assert_eq!(pf.stats.recvs, pc.stats.recvs);
        assert_eq!(pf.stats.bytes_sent, pc.stats.bytes_sent);
        assert_eq!(pf.stats.bytes_recvd, pc.stats.bytes_recvd);
    }
}

// ---------------------------------------------------------------------------
// Event-scheduler scale: the thread ceiling is gone (PR 6)
// ---------------------------------------------------------------------------

use skil_runtime::SchedulerKind;

/// Farm `tasks` trivial work items over an `n`-proc event machine and
/// return the run (golden pinned by callers).
fn farm_at_scale(n: usize, tasks: u64) -> skil_runtime::Run<Option<u64>> {
    let m = Machine::new(MachineConfig::procs(n).unwrap().with_scheduler(SchedulerKind::Event));
    m.run(move |p| {
        let ts = (p.id() == 0).then(|| (0..tasks).collect::<Vec<u64>>());
        farm(p, 0, ts, Kernel::free(|&t: &u64| t.wrapping_mul(2654435761) >> 7))
            .unwrap()
            .map(|rs| rs.iter().fold(0u64, |a, &r| a.wrapping_mul(1099511628211).wrapping_add(r)))
    })
}

#[test]
fn hundred_thousand_task_farm_on_256_procs() {
    let run = farm_at_scale(256, 100_000);
    let digest = run.results[0].expect("master returns the results");
    assert_eq!((digest, run.report.sim_cycles), GOLDEN_FARM_100K);
}

/// (result digest, sim_cycles) pinned goldens for the farm scale tests.
const GOLDEN_FARM_100K: (u64, u64) = (6_961_791_862_745_699_246, 11_514_100);
const GOLDEN_FARM_1M: (u64, u64) = (16_802_809_084_292_311_724, 184_299_500);

#[test]
#[ignore = "heavy: million-task farm over 4,096 processors (CI runs under timeout)"]
fn million_task_farm_on_4096_procs() {
    let run = farm_at_scale(4096, 1_000_000);
    let digest = run.results[0].expect("master returns the results");
    assert_eq!((digest, run.report.sim_cycles), GOLDEN_FARM_1M);
}
