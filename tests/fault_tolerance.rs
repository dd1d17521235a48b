//! Fault-injection properties of the reliable-delivery layer.
//!
//! The contract under test (DESIGN.md §12): any *recoverable* seeded
//! fault plan — drops, duplicates, and delays within the retry budget —
//! must be completely invisible to the program. Output, per-processor
//! logical traffic (`compute`, `sends`, `recvs`, `bytes_sent`,
//! `bytes_recvd`) and the results vector are bit-identical to the
//! fault-free run; only the *waiting* side of the clock (`wait`,
//! `finished_at`, and hence `sim_cycles`) may move, because a
//! retransmitted message genuinely arrives later in virtual time.
//! Unrecoverable plans (a crash, an exhausted budget) must surface as a
//! structured `SimFailure`, never a hang.

use proptest::prelude::*;
use skil::apps::{gauss_skil, shpaths_skil};
use skil::lang::{compile, Engine};
use skil::runtime::{FaultPlan, Machine, MachineConfig, Proc, RunReport};

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

fn logical_fingerprint(r: &RunReport) -> Vec<(u64, u64, u64, u64, u64)> {
    r.procs
        .iter()
        .map(|p| {
            let s = p.stats;
            (s.compute, s.sends, s.recvs, s.bytes_sent, s.bytes_recvd)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random recoverable schedules are masked: for any seed and any
    /// drop/dup/delay rates up to 30%, the program's results and its
    /// logical ProcStats equal the fault-free run's exactly. (`wait` and
    /// `finished_at` are deliberately not compared: retransmissions
    /// legitimately stretch virtual waiting time.)
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
        let clean = Machine::new(MachineConfig::mesh(2, 2).unwrap()).run(mixed_traffic);
        let faulty_machine =
            Machine::new(MachineConfig::mesh(2, 2).unwrap().with_faults(plan));
        let faulty = faulty_machine.run(mixed_traffic);
        prop_assert_eq!(&faulty.results, &clean.results);
        prop_assert_eq!(
            logical_fingerprint(&faulty.report),
            logical_fingerprint(&clean.report)
        );
        // the schedule itself is a pure function of the seed: replaying
        // the faulty run reproduces even the stretched clock
        let replay = faulty_machine.run(mixed_traffic);
        prop_assert_eq!(&replay.results, &faulty.results);
        prop_assert_eq!(replay.report.sim_cycles, faulty.report.sim_cycles);
    }
}

/// The ack/retry protocol is delivery-path-independent: a recoverable
/// drop+dup plan over the scheduler-native direct-wake path (explicit
/// `SchedulerKind::Event`) produces the same outputs and logical
/// fingerprint as the clean run, and as the same plan over the condvar
/// mailbox path (`SchedulerKind::Threads`) — with the plan provably
/// firing on both, and the clean runs of both paths agreeing too.
#[test]
fn recoverable_plan_is_masked_over_the_direct_wake_path() {
    use skil::runtime::SchedulerKind;
    let plan = || FaultPlan::seeded(13).with_drop(0.06).with_dup(0.08);
    let clean = |kind| {
        Machine::new(MachineConfig::mesh(2, 2).unwrap().with_scheduler(kind)).run(mixed_traffic)
    };
    let (clean, clean_threads) = (clean(SchedulerKind::Event), clean(SchedulerKind::Threads));
    assert_eq!(clean_threads.results, clean.results);
    assert_eq!(clean_threads.report.sim_cycles, clean.report.sim_cycles);
    let mut fingerprints = Vec::new();
    for kind in [SchedulerKind::Event, SchedulerKind::Threads] {
        let faulty = Machine::new(
            MachineConfig::mesh(2, 2).unwrap().with_faults(plan()).with_scheduler(kind),
        )
        .run(mixed_traffic);
        assert_eq!(faulty.results, clean.results, "{kind:?}");
        assert_eq!(
            logical_fingerprint(&faulty.report),
            logical_fingerprint(&clean.report),
            "{kind:?}"
        );
        let events: u64 = faulty.report.procs.iter().map(|p| p.stats.fault_events()).sum();
        assert!(events > 0, "{kind:?}: plan injected nothing; the test is vacuous");
        fingerprints.push((faulty.report.sim_cycles, logical_fingerprint(&faulty.report)));
    }
    // The injected schedule is a pure function of the seed and virtual
    // time, so even the stretched clock agrees across delivery paths.
    assert_eq!(fingerprints[0], fingerprints[1]);
}

/// An *active* plan whose rates are all zero must be charge-free in the
/// strictest sense: the full report — including `wait`, `finished_at`
/// and `sim_cycles` — is bit-identical to running with faults disabled,
/// for both headline applications.
#[test]
fn zero_rate_active_plan_keeps_app_goldens() {
    fn check<T: PartialEq + std::fmt::Debug>(
        app: impl Fn(&Machine, usize, u64) -> skil::apps::AppOutcome<T>,
    ) {
        let plain = Machine::new(MachineConfig::square(2).unwrap());
        let armed =
            Machine::new(MachineConfig::square(2).unwrap().with_faults(FaultPlan::seeded(99)));
        let a = app(&plain, 24, 7);
        let b = app(&armed, 24, 7);
        assert_eq!(a.value, b.value);
        assert_eq!(a.sim_cycles, b.sim_cycles);
        for (pa, pb) in a.report.procs.iter().zip(&b.report.procs) {
            assert_eq!(pa.finished_at, pb.finished_at);
            assert_eq!(pa.stats, pb.stats);
        }
    }
    check(shpaths_skil);
    check(gauss_skil);
}

/// The masking guarantee holds end-to-end through the language: a
/// compiled Skil program under a lossy plan prints exactly what the
/// fault-free run prints, on both engines, with nonzero fault counters
/// proving the plan actually fired.
#[test]
fn lossy_plan_is_invisible_to_skil_programs() {
    let src = std::fs::read_to_string("examples/skil/shortest_paths.skil").unwrap();
    let compiled = compile(&src).expect("shortest_paths.skil compiles");
    let plan = FaultPlan::seeded(13).with_drop(0.06).with_dup(0.08);
    for engine in [Engine::Ast, Engine::Vm] {
        let clean = compiled.run_with(engine, &Machine::new(MachineConfig::square(2).unwrap()));
        let faulty = compiled
            .try_run_with(
                engine,
                &Machine::new(MachineConfig::square(2).unwrap().with_faults(plan.clone())),
            )
            .expect("recoverable plan must not abort");
        assert_eq!(faulty.results, clean.results);
        let events: u64 = faulty.report.procs.iter().map(|p| p.stats.fault_events()).sum();
        assert!(events > 0, "plan injected nothing; the test is vacuous");
    }
}

/// A crash plan surfaces through the language as a structured failure
/// naming the crashed processor and the PeerDown cascade — not a panic
/// with a generic message, and never a hang.
#[test]
fn crash_plan_surfaces_peer_down_through_the_language() {
    let src = std::fs::read_to_string("examples/skil/shortest_paths.skil").unwrap();
    let compiled = compile(&src).expect("shortest_paths.skil compiles");
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
