//! Delivery to a parked receiver. The deposit that matches a parked
//! receive hands its envelope over with the wake instead of queueing
//! it. These tests pin what the hand-off must not change, under each of
//! the four host configurations: per-flow FIFO, duplicate suppression,
//! mail before aborts, and nothing carried from one run to the next.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use skil_runtime::{AbortCause, FaultPlan, Machine, MachineConfig, Proc};

#[path = "../../../tests/support/hosts.rs"]
mod hosts;

const READY: u64 = 1;
const DATA: u64 = 2;

/// Processor 1 parks on `(0, DATA)` before processor 0 sends: it tells
/// processor 0 so and blocks at once; processor 0 sends nothing before
/// that word arrives.
fn wait_until_parked(p: &mut Proc<'_>) {
    match p.id() {
        0 => {
            let _: u8 = p.recv(1, READY);
        }
        1 => p.send(0, READY, &0u8),
        _ => {}
    }
}

/// `rounds` rounds of `burst` back-to-back sends 0 -> 1 on one flow, each
/// to a receiver parked on it, of payloads on both sides of the inline
/// boundary; processor 1 returns what it received, in order.
fn bursts(m: &Machine, rounds: u64, burst: u64) -> (Vec<Vec<u64>>, u64) {
    let run = m.run(|p| {
        let mut got = Vec::new();
        for round in 0..rounds {
            wait_until_parked(p);
            if p.id() == 0 {
                for k in 0..burst {
                    let v = round * burst + k;
                    p.send(1, DATA, &vec![v; (v % 12) as usize + 1]);
                }
            } else if p.id() == 1 {
                for _ in 0..burst {
                    let v: Vec<u64> = p.recv(0, DATA);
                    assert!(v.iter().all(|&x| x == v[0]) && v.len() == (v[0] % 12) as usize + 1);
                    got.push(v[0]);
                }
            }
        }
        got
    });
    let dups = run.report.procs.iter().map(|r| r.stats.dups).sum();
    (run.results, dups)
}

#[test]
fn back_to_back_sends_to_a_parked_receiver_arrive_in_order() {
    for (host, cfg) in hosts::hosts(MachineConfig::mesh(1, 2).unwrap()) {
        let (results, _) = bursts(&Machine::new(cfg), 20, 5);
        assert_eq!(results[1], (0..100).collect::<Vec<u64>>(), "{host}");
    }
}

#[test]
fn duplicates_of_a_handed_off_envelope_are_suppressed() {
    let plan = FaultPlan::seeded(11).with_dup(0.5).with_delay(0.3, 400);
    for (host, cfg) in hosts::hosts(MachineConfig::mesh(1, 2).unwrap().with_faults(plan.clone())) {
        let (results, dups) = bursts(&Machine::new(cfg), 20, 5);
        assert_eq!(results[1], (0..100).collect::<Vec<u64>>(), "{host}");
        assert!(dups > 0, "{host}: the plan duplicated nothing");
    }
}

/// What one run of "processor 0 sends one word to processor 1, parked
/// on it, then fails with `fail`" shows: the receives processor 1
/// completed, and the run's aborts (`None` when it panicked).
fn send_then_fail(
    m: &Machine,
    faults: Option<&FaultPlan>,
    fail: fn(&mut Proc<'_>),
) -> (Vec<u64>, Option<Vec<(usize, AbortCause)>>) {
    let seen = Mutex::new(Vec::new());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        m.try_run_faults(faults, |p| {
            wait_until_parked(p);
            if p.id() == 0 {
                p.send(1, DATA, &42u64);
                fail(p);
            } else if p.id() == 1 {
                for _ in 0..2 {
                    let v: u64 = p.recv(0, DATA);
                    seen.lock().unwrap().push(v);
                }
            }
        })
    }));
    let aborts = outcome.ok().map(|run| {
        let failure = run.expect_err("processor 0 fails");
        failure.aborts.iter().map(|a| (a.proc, a.cause.clone())).collect()
    });
    (seen.into_inner().unwrap(), aborts)
}

/// A crash at this cycle comes after processor 0's send.
const CRASH_AT: u64 = 1_000_000;

fn crash(p: &mut Proc<'_>) {
    p.charge(2 * CRASH_AT);
}

#[test]
fn a_handed_off_envelope_is_delivered_before_peer_down() {
    let plan = FaultPlan::seeded(5).with_crash(0, CRASH_AT);
    for (host, cfg) in hosts::hosts(MachineConfig::mesh(1, 2).unwrap()) {
        let (seen, aborts) = send_then_fail(&Machine::new(cfg), Some(&plan), crash);
        assert_eq!(seen, [42], "{host}");
        let crashed = AbortCause::Crashed { cycle: CRASH_AT };
        let want = vec![(0, crashed), (1, AbortCause::PeerDown { peer: 0 })];
        assert_eq!(aborts, Some(want), "{host}");
    }
}

#[test]
fn a_handed_off_envelope_is_delivered_before_poison() {
    for (host, cfg) in hosts::hosts(MachineConfig::mesh(1, 2).unwrap()) {
        let (seen, aborts) =
            send_then_fail(&Machine::new(cfg), None, |_| panic!("a bug in processor 0"));
        assert_eq!((seen, aborts), (vec![42], None), "{host}");
    }
}

#[test]
fn a_warm_run_receives_only_its_own_messages() {
    let plan = FaultPlan::seeded(5).with_crash(0, CRASH_AT);
    for (host, cfg) in hosts::hosts(MachineConfig::mesh(2, 2).unwrap()) {
        let m = Machine::new(cfg);
        // a run that fails after a hand-off, then clean ones: each next
        // run on the machine starts from its reset run arena
        let (seen, aborts) = send_then_fail(&m, Some(&plan), crash);
        assert_eq!(seen, [42], "{host}");
        assert!(aborts.is_some(), "{host}");
        for _ in 0..3 {
            let (results, _) = bursts(&m, 4, 3);
            assert_eq!(results[1], (0..12).collect::<Vec<u64>>(), "{host}");
        }
        assert_eq!(m.setup_reuse_hits(), 3, "{host}: the run arena was not reused");
    }
}
