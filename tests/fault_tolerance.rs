//! Fault-injection properties of the reliable-delivery layer.
//!
//! The contract under test (DESIGN.md §12): any *recoverable* seeded
//! fault plan — drops, duplicates, and delays within the retry budget —
//! is masked (`support/invariant.rs`). Output and each processor's
//! logical traffic (`compute`, `sends`, `recvs`, `bytes_sent`,
//! `bytes_recvd`) equal the fault-free run's; only the *waiting* side of
//! the clock (`wait`, `finished_at`, and hence `sim_cycles`) may move,
//! because a retransmitted message genuinely arrives later in virtual
//! time. The faulty run is itself a pure function of the plan: every
//! engine and host configuration observes it alike. Unrecoverable plans
//! (a crash, an exhausted budget) surface as a structured `SimFailure`,
//! the same everywhere, never a hang.

use proptest::prelude::*;
use skil::apps::{gauss_skil, shpaths_skil};
use skil::lang::{compile, Engine, OptLevel};
use skil::runtime::{FaultPlan, Machine, MachineConfig, Proc, SchedulerKind};

#[path = "support/invariant.rs"]
mod invariant;
#[path = "support/programs.rs"]
mod programs;

use invariant::{assert_same, configs, machines, observe, Observed, Row};
use programs::{levels, run, App, ENGINES};

/// A traffic mix covering every delivery path the fault layer touches:
/// tagged point-to-point sends, synchronous sends, and the binomial-tree
/// collectives (broadcast, reduce via allreduce, gather, barrier).
fn mixed_traffic(p: &mut Proc<'_>) -> (u64, Vec<u64>) {
    p.charge(50 * (p.id() as u64 + 1));
    let n = p.nprocs();
    let next = (p.id() + 1) % n;
    let prev = (p.id() + n - 1) % n;
    let mut acc = 0u64;
    for round in 0..6u64 {
        p.send(next, 100 + round, &vec![p.id() as u64 + round; 4 + round as usize]);
        let got: Vec<u64> = p.recv(prev, 100 + round);
        acc += got.iter().sum::<u64>();
    }
    p.send_sync(next, 200, &acc);
    acc += p.recv::<u64>(prev, 200);
    let seeded = p.broadcast(0, 300, (p.id() == 0).then_some(acc));
    let total = p.allreduce(400, acc + seeded, |a, b| a.wrapping_add(b), 5);
    p.barrier(500);
    let gathered = p.gather(0, 600, total ^ p.id() as u64);
    (total, gathered.unwrap_or_default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random recoverable schedules are masked: for any seed and any
    /// drop/dup/delay rates up to 30%, the program's results and its
    /// logical ProcStats equal the fault-free run's exactly.
    #[test]
    fn random_recoverable_schedules_are_masked(
        seed in any::<u64>(),
        drop_pct in 0u32..31,
        dup_pct in 0u32..31,
        delay_pct in 0u32..31,
        max_delay in 1u64..100_000,
    ) {
        let plan = FaultPlan::seeded(seed)
            .with_drop(f64::from(drop_pct) / 100.0)
            .with_dup(f64::from(dup_pct) / 100.0)
            .with_delay(f64::from(delay_pct) / 100.0, max_delay);
        let clean = observe(&Machine::new(MachineConfig::mesh(2, 2).unwrap()).try_run(mixed_traffic));
        // the schedule itself is a pure function of the seed: replaying
        // the faulty run reproduces even the stretched clock
        let faulty = [("faulty", Machine::new(MachineConfig::mesh(2, 2).unwrap().with_faults(plan)))];
        let row = [Row::new("mixed traffic", mixed_traffic)];
        let seen = assert_same(&row, &configs(&["run", "replay"], &faulty), |f, _, m| m.try_run(f));
        prop_assert_eq!(seen[0].logical(), clean.logical());
    }
}

/// The ack/retry protocol is delivery-path-independent: a recoverable
/// drop+dup plan over the scheduler-native direct-wake path (explicit
/// `SchedulerKind::Event`) and over the condvar mailbox path
/// (`SchedulerKind::Threads`) observes the same, even the stretched
/// clock, and masks the plan against the clean runs, which agree too.
#[test]
fn recoverable_plan_is_masked_over_the_direct_wake_path() {
    let on = |faults: FaultPlan| {
        [SchedulerKind::Event, SchedulerKind::Threads].map(|kind| {
            let cfg = MachineConfig::mesh(2, 2).unwrap().with_faults(faults.clone());
            (format!("{kind:?}"), Machine::new(cfg.with_scheduler(kind)))
        })
    };
    let traffic = |f: &fn(&mut Proc<'_>) -> (u64, Vec<u64>), _: &(), m: &Machine| m.try_run(f);
    let row = || Row::new("mixed traffic", mixed_traffic as fn(&mut Proc<'_>) -> _);
    let clean = assert_same(&[row()], &configs(&[()], &on(FaultPlan::none())), traffic).remove(0);
    let plan = FaultPlan::seeded(13).with_drop(0.06).with_dup(0.08);
    assert_same(&[row().masking(clean)], &configs(&[()], &on(plan)), traffic);
}

/// An *active* plan whose rates are all zero must be charge-free in the
/// strictest sense: the full report — including `wait`, `finished_at`
/// and `sim_cycles` — is bit-identical to running with faults disabled,
/// for both headline applications.
#[test]
fn zero_rate_active_plan_keeps_app_goldens() {
    let machines = [
        ("plain", Machine::new(MachineConfig::square(2).unwrap())),
        (
            "armed",
            Machine::new(MachineConfig::square(2).unwrap().with_faults(FaultPlan::seeded(99))),
        ),
    ];
    let rows: [Row<App>; 2] = [
        Row::new("shortest paths", |m| programs::app(shpaths_skil(m, 24, 7))),
        Row::new("gauss", |m| programs::app(gauss_skil(m, 24, 7))),
    ];
    assert_same(&rows, &configs(&[()], &machines), |app, (), m| app(m));
}

/// The masking guarantee holds end-to-end through the language: a
/// compiled Skil program under a lossy plan prints exactly what the
/// fault-free run prints, under the walker and the VM alike, with
/// nonzero fault counters proving the plan actually fired.
#[test]
fn lossy_plan_is_invisible_to_skil_programs() {
    let compiled = levels("shortest_paths", &programs::example("shortest_paths.skil"));
    let engines = [(Engine::Ast, OptLevel::O2), (Engine::Vm, OptLevel::O2)];
    let on = |faults: FaultPlan| {
        [("2x2", Machine::new(MachineConfig::square(2).unwrap().with_faults(faults)))]
    };
    let row = || Row::new("shortest_paths", &compiled);
    let clean =
        assert_same(&[row()], &configs(&engines, &on(FaultPlan::none())), |c, a, m| run(c, a, m));
    let plan = FaultPlan::seeded(13).with_drop(0.06).with_dup(0.08);
    let masking = [row().masking(clean[0].clone())];
    assert_same(&masking, &configs(&engines, &on(plan)), |c, a, m| run(c, a, m));
}

/// A crash plan surfaces through the language as a structured failure
/// naming the crashed processor and the PeerDown cascade — not a panic
/// with a generic message, and never a hang.
#[test]
fn crash_plan_surfaces_peer_down_through_the_language() {
    let compiled = compile(&programs::example("shortest_paths.skil")).expect("compiles");
    let machine = Machine::new(
        MachineConfig::square(2)
            .unwrap()
            .with_faults(FaultPlan::seeded(3).with_crash(3, 1_000_000)),
    );
    let failure = compiled.try_run_with(Engine::Vm, &machine).expect_err("crash must abort");
    let msg = failure.to_string();
    assert!(msg.contains("PeerDown"), "failure must name the cascade: {msg}");
    assert!(
        msg.contains("processor 3: crashed by fault plan at virtual cycle 1000000"),
        "failure must name the root cause: {msg}"
    );
}

/// Shortest paths on a 4x4 mesh under each engine on every host
/// configuration: clean; under drops, duplicates and delays, masked and
/// with the same clocks and fault counters everywhere; and under a
/// crash, with the same cascade everywhere, processor 3 in it.
#[test]
fn every_engine_and_host_masks_a_plan_and_cascades_a_crash_alike() {
    let compiled = levels("shortest_paths", &programs::example("shortest_paths.skil"));
    let on = |faults: FaultPlan| machines(MachineConfig::mesh(4, 4).unwrap().with_faults(faults));
    let observe = |faults: FaultPlan, row: Row<&[_; 2]>| {
        assert_same(&[row], &configs(&ENGINES, &on(faults)), |c, a, m| run(c, a, m)).remove(0)
    };
    let row = || Row::new("shortest_paths", &compiled);
    let clean = observe(FaultPlan::none(), row());
    assert_ne!(clean.procs()[0].output, "[]", "processor 0 prints the fold total");
    let lossy = FaultPlan::seeded(11).with_drop(0.2).with_dup(0.2).with_delay(0.2, 20_000);
    observe(lossy, row().masking(clean));
    let crashed = observe(FaultPlan::seeded(5).with_crash(3, 400), row());
    let Observed::Failed(aborts) = &crashed else { panic!("the crash plan ran: {crashed:?}") };
    assert!(aborts.iter().any(|a| a.proc == 3), "processor 3 is in the cascade: {aborts:?}");
}
