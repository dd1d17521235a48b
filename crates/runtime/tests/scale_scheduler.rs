//! Scheduler differential matrix and large-mesh scale tests.
//!
//! The event scheduler's whole claim is that it changes *host* cost
//! only: every observable of a run — results, `sim_cycles`, per-proc
//! `ProcStats`, fault cascades — must be bit-identical to the thread
//! scheduler's, at any worker count. These tests pin that, plus the
//! scale the thread scheduler cannot reach (a 64×64 mesh = 4,096
//! processors on one host).

use std::time::Duration;

use skil_runtime::{FaultPlan, Machine, MachineConfig, Proc, Run, SchedulerKind};

#[path = "../../../tests/support/hosts.rs"]
mod hosts;

/// The scheduler × worker-count matrix: a machine on each host
/// configuration.
fn matrix(n: usize, faults: Option<&FaultPlan>) -> Vec<(&'static str, Machine)> {
    let mut cfg = MachineConfig::procs(n).unwrap();
    if let Some(f) = faults {
        cfg = cfg.with_faults(f.clone());
    }
    hosts::hosts(cfg).into_iter().map(|(host, cfg)| (host, Machine::new(cfg))).collect()
}

/// A ring circulation with compute skew and a second skewed round —
/// enough traffic that scheduler bugs (lost wakeups, wrong arrival
/// ordering) would corrupt either the results or the clocks.
fn ring_program(p: &mut Proc<'_>) -> u64 {
    let n = p.nprocs();
    let me = p.id();
    p.charge(100 * (me as u64 + 1));
    let next = (me + 1) % n;
    let prev = (me + n - 1) % n;
    let mut acc = me as u64;
    for round in 0..4u64 {
        p.send(next, 10 + round, &acc);
        acc = acc.wrapping_mul(31) ^ p.recv::<u64>(prev, 10 + round);
        p.charge(50 + 10 * round);
    }
    acc
}

fn assert_identical(label: &str, a: &Run<u64>, b: &Run<u64>) {
    assert_eq!(a.results, b.results, "{label}: results diverged");
    assert_eq!(a.report.sim_cycles, b.report.sim_cycles, "{label}: sim_cycles diverged");
    for (i, (pa, pb)) in a.report.procs.iter().zip(&b.report.procs).enumerate() {
        assert_eq!(pa.finished_at, pb.finished_at, "{label}: proc {i} finished_at");
        assert_eq!(pa.stats, pb.stats, "{label}: proc {i} stats");
    }
}

#[test]
fn differential_matrix_fault_free() {
    let machines = matrix(8, None);
    let base = machines[0].1.run(ring_program);
    for (label, m) in &machines[1..] {
        assert_identical(label, &m.run(ring_program), &base);
    }
}

#[test]
fn differential_matrix_recoverable_fault_plan() {
    // The PR 5 lossy-but-recoverable plan: drops, duplicates, and
    // delays that the reliable-delivery layer fully masks. Every cell
    // of the matrix must agree on clocks AND on fault counters.
    let faults = FaultPlan::seeded(7).with_drop(0.3).with_dup(0.3).with_delay(0.3, 50_000);
    let machines = matrix(8, Some(&faults));
    let base = machines[0].1.run(ring_program);
    let fault_events: u64 = base.report.procs.iter().map(|p| p.stats.fault_events()).sum();
    assert!(fault_events > 0, "the plan must actually inject faults");
    for (label, m) in &machines[1..] {
        assert_identical(label, &m.run(ring_program), &base);
    }
}

#[test]
fn differential_matrix_crash_plan() {
    // The PR 5 crash plan: proc 2 dies mid-run and the failure cascades
    // along wait chains. The structured SimFailure — which processors
    // aborted, in what order, with what causes — must be identical in
    // every matrix cell.
    let faults = FaultPlan::seeded(3).with_crash(2, 500);
    let machines = matrix(8, Some(&faults));
    let failures: Vec<(&str, Vec<(usize, skil_runtime::AbortCause)>)> = machines
        .iter()
        .map(|(label, m)| {
            let failure = m.try_run(ring_program).expect_err("the crash plan must fail the run");
            (*label, failure.aborts.iter().map(|a| (a.proc, a.cause.clone())).collect())
        })
        .collect();
    let (_, base) = &failures[0];
    assert!(base.iter().any(|(p, _)| *p == 2), "proc 2 must be in the cascade: {base:?}");
    for (label, aborts) in &failures[1..] {
        assert_eq!(aborts, base, "{label}: fault cascade diverged");
    }
}

#[test]
fn mesh_64x64_completes_on_the_event_scheduler() {
    // 4,096 processors on one host — the scale the ROADMAP names as the
    // thread scheduler's ceiling. A ring circulation crosses every
    // processor, so the golden sim_cycles below witnesses all 4,096
    // clocks advancing identically run over run.
    let m = Machine::new(
        MachineConfig::mesh(64, 64)
            .unwrap()
            .with_scheduler(SchedulerKind::Event)
            .with_timeout(Duration::from_secs(600)),
    );
    assert_eq!(m.scheduler(), SchedulerKind::Event);
    let run = m.run(|p| {
        let n = p.nprocs();
        p.charge(p.id() as u64);
        let next = (p.id() + 1) % n;
        let prev = (p.id() + n - 1) % n;
        p.send(next, 1, &(p.id() as u64));
        let got: u64 = p.recv(prev, 1);
        p.charge(10);
        got
    });
    assert_eq!(run.results.len(), 4096);
    assert_eq!(run.results[0], 4095);
    assert_eq!(run.results[1], 0);
    // Golden: pinned so any scheduler change that perturbs virtual time
    // at scale fails loudly. Update only with a paired DESIGN.md note.
    assert_eq!(run.report.sim_cycles, GOLDEN_64X64_RING);
}

/// Pinned golden for the 64×64 ring smoke test.
const GOLDEN_64X64_RING: u64 = 306_193;

#[test]
fn event_scheduler_scale_is_deterministic() {
    // Two 1,024-proc runs of a skewed all-to-neighbour exchange must
    // agree exactly — at scale, with task migration across workers.
    let runner = || {
        Machine::new(MachineConfig::mesh(32, 32).unwrap().with_scheduler(SchedulerKind::Event))
            .run(ring_program)
    };
    let a = runner();
    let b = runner();
    assert_eq!(a.results, b.results);
    assert_eq!(a.report.sim_cycles, b.report.sim_cycles);
    for (pa, pb) in a.report.procs.iter().zip(&b.report.procs) {
        assert_eq!(pa.finished_at, pb.finished_at);
        assert_eq!(pa.stats, pb.stats);
    }
}
