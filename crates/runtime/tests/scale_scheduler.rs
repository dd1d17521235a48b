//! Scheduler differential matrix and large-mesh scale tests.
//!
//! The event scheduler's whole claim is that it changes *host* cost
//! only: every observable of a run — results, `sim_cycles`, per-proc
//! `ProcStats`, fault cascades — must be bit-identical to the thread
//! scheduler's, at any worker count (`tests/support/invariant.rs`).
//! These tests pin that, plus the scale the thread scheduler cannot
//! reach (a 64×64 mesh = 4,096 processors on one host).

use std::time::Duration;

use skil_runtime::{FaultPlan, Machine, MachineConfig, Proc, SchedulerKind};

#[path = "../../../tests/support/invariant.rs"]
mod invariant;

use invariant::{assert_same, configs, machines, Observed, Row};

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

/// The ring on every host configuration of 8 processors under `faults`:
/// what they all observed.
fn ring_on_every_host(faults: FaultPlan, row: Row<fn(&mut Proc<'_>) -> u64>) -> Observed {
    let machines = machines(MachineConfig::procs(8).unwrap().with_faults(faults));
    assert_same(&[row], &configs(&[()], &machines), |f, (), m| m.try_run(f)).remove(0)
}

#[test]
fn differential_matrix_clean_lossy_and_crashed() {
    let ring = || Row::new("ring", ring_program as fn(&mut Proc<'_>) -> u64);
    let clean = ring_on_every_host(FaultPlan::none(), ring());
    // Drops, duplicates, and delays that the reliable-delivery layer
    // fully masks: every host agrees on the clocks and the fault
    // counters too.
    let lossy = FaultPlan::seeded(7).with_drop(0.3).with_dup(0.3).with_delay(0.3, 50_000);
    ring_on_every_host(lossy, ring().masking(clean));
    // Processor 2 dies mid-run and the failure cascades along wait
    // chains: every host reports the same processors, in the same
    // order, with the same causes.
    let crashed = ring_on_every_host(FaultPlan::seeded(3).with_crash(2, 500), ring());
    let Observed::Failed(aborts) = &crashed else { panic!("the crash plan ran: {crashed:?}") };
    assert!(aborts.iter().any(|a| a.proc == 2), "proc 2 must be in the cascade: {aborts:?}");
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
    let machines = ["first", "second"].map(|name| {
        let cfg = MachineConfig::mesh(32, 32).unwrap().with_scheduler(SchedulerKind::Event);
        (name, Machine::new(cfg))
    });
    let row = [Row::new("ring on 32x32", ring_program)];
    assert_same(&row, &configs(&[()], &machines), |f, (), m| m.try_run(f));
}
