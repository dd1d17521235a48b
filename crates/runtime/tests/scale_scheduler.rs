//! Scheduler differential matrix and large-mesh scale tests.
//!
//! The event scheduler's whole claim is that it changes *host* cost
//! only: every observable of a run — results, `sim_cycles`, per-proc
//! `ProcStats`, fault cascades — must be bit-identical to the thread
//! scheduler's, at any worker count (`tests/support/invariant.rs`).
//! These tests pin that for point-to-point traffic and for the paper's
//! tree collectives on every topology of the zoo, plus the scale the
//! thread scheduler cannot reach (a 64×64 mesh = 4,096 processors on
//! one host).

use std::time::Duration;

use skil_runtime::{FaultPlan, Machine, MachineConfig, Proc, SchedulerKind, Topology};

#[path = "../../../tests/support/invariant.rs"]
mod invariant;

use invariant::{assert_same, configs, machines, Observed, Row, Seen};

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

/// Every topology of the zoo that can host `n` processors.
fn zoo(n: usize) -> Vec<Topology> {
    let mut v = vec![Topology::default_for(n).unwrap()];
    if n.is_power_of_two() && n > 1 {
        v.push(Topology::parse(&format!("hypercube:{n}")).unwrap());
    }
    let more: &[&str] = match n {
        16 => &["fattree:2,4", "hetero:mesh2d:4x4:slowlinks=col2*64"],
        8 => &["fattree:3,2", "hetero:mesh2d:2x4:slowlinks=col1*16"],
        _ => &[],
    };
    v.extend(more.iter().map(|spec| Topology::parse(spec).unwrap()));
    v
}

/// A program that returns what its processor got, as a list.
type Collective = fn(&mut Proc<'_>) -> Vec<u64>;

/// The tree collectives, one row each, after a compute skew so that
/// arrival order matters. `reduce` concatenates ids, which pins the
/// tree's combine order; `barrier` returns the release clock.
fn tree_collective_rows() -> Vec<Row<Collective>> {
    fn skew(p: &mut Proc<'_>) -> u64 {
        p.charge(1_000 * (p.id() as u64 % 3));
        p.id() as u64
    }
    fn broadcast(p: &mut Proc<'_>) -> Vec<u64> {
        let root = p.nprocs() - 1;
        let id = skew(p);
        vec![p.broadcast(root, 1, (id as usize == root).then_some(id << 8))]
    }
    fn reduce(p: &mut Proc<'_>) -> Vec<u64> {
        let mine = vec![skew(p)];
        let concat = |mut a: Vec<u64>, b: Vec<u64>| {
            a.extend(b);
            a
        };
        p.reduce(0, 2, mine, concat, 7).unwrap_or_default()
    }
    fn allreduce(p: &mut Proc<'_>) -> Vec<u64> {
        let mine = skew(p) + 1;
        vec![p.allreduce(3, mine, |a, b| a + b, 5)]
    }
    fn gather(p: &mut Proc<'_>) -> Vec<u64> {
        let mine = skew(p) * 10;
        p.gather(0, 4, mine).unwrap_or_default()
    }
    fn barrier(p: &mut Proc<'_>) -> Vec<u64> {
        skew(p);
        p.barrier(5);
        vec![p.now()]
    }
    let rows: [(&str, Collective); 5] = [
        ("broadcast", broadcast),
        ("reduce", reduce),
        ("allreduce", allreduce),
        ("gather", gather),
        ("barrier", barrier),
    ];
    rows.into_iter().map(|(name, program)| Row::new(name, program)).collect()
}

/// What a processor of a [`Collective`] got, read back from its output.
fn list(seen: &Seen) -> Vec<u64> {
    let items = seen.output.trim_matches(['[', ']']);
    items.split(", ").filter(|s| !s.is_empty()).map(|s| s.parse().unwrap()).collect()
}

#[test]
fn tree_collectives_are_alike_on_every_host_and_topology() {
    let rows = tree_collective_rows();
    let mut digests = Vec::new();
    for n in [1, 2, 3, 5, 8, 16] {
        for topo in zoo(n) {
            let machines = machines(MachineConfig::on_topology(topo).unwrap());
            let seen = assert_same(&rows, &configs(&[()], &machines), |f, (), m| m.try_run(f));
            let got =
                |row: usize| -> Vec<Vec<u64>> { seen[row].procs().iter().map(list).collect() };
            let (n, ids) = (n as u64, (0..n as u64).collect::<Vec<_>>());
            assert!(got(0).iter().all(|v| *v == [(n - 1) << 8]), "{topo}: broadcast");
            let mut reduced = got(1)[0].clone();
            reduced.sort_unstable();
            assert_eq!(reduced, ids, "{topo}: reduce");
            assert!(got(2).iter().all(|v| *v == [n * (n + 1) / 2]), "{topo}: allreduce");
            let gathered: Vec<u64> = ids.iter().map(|id| id * 10).collect();
            assert_eq!(got(3)[0], gathered, "{topo}: gather");
            let slowest = 1_000 * (n - 1).min(2);
            assert!(got(4).iter().all(|v| v[0] >= slowest), "{topo}: barrier");
            digests.extend(seen.iter().map(Observed::digest));
        }
    }
    // Results alone do not show the tree's shape or its send order;
    // virtual time and the reduce's combine order do. Pinned: update
    // only with the reason the collectives' virtual time moved.
    let all = digests.iter().fold(0u64, |h, d| h.rotate_left(7) ^ d);
    assert_eq!(all, GOLDEN_TREE_COLLECTIVES, "{all:#x}");
}

/// Pinned fold of every tree-collective row's digest above.
const GOLDEN_TREE_COLLECTIVES: u64 = 0x70d7_d017_a0b1_5f5e;

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
