//! The granularity gate of the event scheduler (DESIGN.md §13).
//!
//! With no explicit worker count a run starts on the calling thread
//! alone and recruits helper threads only when a sampled task quantum
//! is coarse, tasks are waiting, and the host has a core that no other
//! run is using. These tests pin both halves: fine-grained programs
//! never leave the calling thread, coarse ones do — and nothing a run
//! reports (results, clocks, stats, failure diagnostics) can tell the
//! difference from `with_workers(1)`.
//!
//! The core budget is process-wide, so every test here holds one lock:
//! a test that expects a free core must not race another test's run.
//! On a one-core host nothing can be recruited, and only the
//! equivalence half of each test applies.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use skil_runtime::{
    AbortCause, FaultPlan, Machine, MachineConfig, Proc, Run, SchedulerKind, RT_ERROR_PREFIX,
};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

fn cores() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// Whether the host has a second core for `default_machine` to recruit
/// onto.
fn adaptive_host() -> bool {
    cores() >= 2
}

/// The unset default.
fn default_machine(rows: usize, cols: usize) -> Machine {
    Machine::new(MachineConfig::mesh(rows, cols).unwrap())
}

fn single_worker_machine(rows: usize, cols: usize) -> Machine {
    Machine::new(MachineConfig::mesh(rows, cols).unwrap().with_workers(1))
}

/// Burn host time without touching virtual time.
fn spin(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

const COARSE: Duration = Duration::from_micros(300);

/// Every processor spins well past the coarse threshold between ring
/// exchanges.
fn coarse_ring(p: &mut Proc<'_>) -> u64 {
    let (n, me) = (p.nprocs(), p.id());
    let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
    let mut acc = me as u64;
    for round in 0..6u64 {
        spin(COARSE);
        p.charge(1_000 * (me as u64 + 1));
        p.send(next, 10 + round, &acc);
        acc = acc.wrapping_mul(31) ^ p.recv::<u64>(prev, 10 + round);
    }
    acc
}

/// The same exchanges with nothing between them: every quantum is a
/// send and a receive.
fn fine_ring(p: &mut Proc<'_>) -> u64 {
    let (n, me) = (p.nprocs(), p.id());
    let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
    let mut acc = me as u64;
    for round in 0..400u64 {
        p.send(next, 10 + round, &acc);
        acc = acc.wrapping_mul(31) ^ p.recv::<u64>(prev, 10 + round);
    }
    acc
}

fn assert_identical<R: PartialEq + std::fmt::Debug>(label: &str, a: &Run<R>, b: &Run<R>) {
    assert_eq!(a.results, b.results, "{label}: results");
    assert_eq!(a.report.sim_cycles, b.report.sim_cycles, "{label}: sim_cycles");
    for (i, (pa, pb)) in a.report.procs.iter().zip(&b.report.procs).enumerate() {
        assert_eq!(pa.finished_at, pb.finished_at, "{label}: proc {i} finished_at");
        assert_eq!(pa.stats, pb.stats, "{label}: proc {i} stats");
        assert_eq!(pa.data_plane, pb.data_plane, "{label}: proc {i} data plane");
    }
}

/// Helpers `run` recruits on `m`, at best over three attempts: one
/// sampled quantum in thousands is stretched past the threshold by a
/// host preemption, and a test of "never" must not fail on that.
fn fewest_joins<R>(m: &Machine, run: impl Fn(&Machine) -> R) -> u64 {
    (0..3)
        .map(|_| {
            let before = m.helper_joins();
            run(m);
            m.helper_joins() - before
        })
        .min()
        .unwrap()
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&'static str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

#[test]
fn fine_grained_programs_never_leave_the_calling_thread() {
    let _serial = serial();
    let pair = default_machine(1, 2);
    let ping_pong = |m: &Machine| {
        m.run(|p| {
            let peer = 1 - p.id();
            for _ in 0..1_000 {
                if p.id() == 0 {
                    p.send(peer, 1, &(7u64, 9u64));
                    p.recv::<(u64, u64)>(peer, 1);
                } else {
                    p.recv::<(u64, u64)>(peer, 1);
                    p.send(peer, 1, &(7u64, 9u64));
                }
            }
        })
    };
    assert_eq!(fewest_joins(&pair, ping_pong), 0, "ping-pong");

    let mesh = default_machine(4, 4);
    let ladder = |m: &Machine| {
        m.run(|p| (0..100).map(|_| p.allreduce(3, p.id() as u64, |a, b| a + b, 1)).sum::<u64>())
    };
    assert_eq!(fewest_joins(&mesh, ladder), 0, "allreduce ladder");
    assert_eq!(fewest_joins(&mesh, |m| m.run(|_| ())), 0, "empty run");
    assert_eq!(fewest_joins(&default_machine(2, 2), |m| m.run(fine_ring)), 0, "ring");
}

#[test]
fn coarse_quanta_recruit_a_helper_and_change_nothing_observable() {
    let _serial = serial();
    let m = default_machine(2, 2);
    let run = m.run(coarse_ring);
    if adaptive_host() {
        assert!(m.helper_joins() >= 1, "a free core and 300 us quanta must recruit a helper");
        assert!(m.helper_joins() < cores().min(4) as u64, "never past the cap");
    }
    assert_identical("coarse ring", &run, &single_worker_machine(2, 2).run(coarse_ring));
}

#[test]
fn explicit_worker_counts_are_all_in_from_the_start() {
    let _serial = serial();
    // `with_workers(k)` is the gate pinned open: k - 1 helpers per run,
    // coarse or not, outside the core budget.
    for (k, per_run) in [(1, 0), (2, 1), (8, 3)] {
        let m = Machine::new(
            MachineConfig::mesh(2, 2).unwrap().with_scheduler(SchedulerKind::Event).with_workers(k),
        );
        let a = m.run(fine_ring);
        assert_eq!(m.helper_joins(), per_run, "with_workers({k}), first run");
        let b = m.run(fine_ring);
        assert_eq!(m.helper_joins(), 2 * per_run, "with_workers({k}), second run");
        assert_identical("explicit workers", &a, &b);
    }
}

#[test]
fn no_run_recruits_while_every_core_is_driving_a_run() {
    let _serial = serial();
    // One coarse run per core, each from its own thread. The barriers
    // sit inside processor 0's first and last quantum, so every calling
    // thread is seated before any run takes its first sample and stays
    // seated until every run's coarse work is over.
    let n = cores();
    let (start, end) = (Barrier::new(n), Barrier::new(n));
    let joins: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                s.spawn(|| {
                    let m = default_machine(2, 2);
                    m.run(|p| {
                        if p.id() == 0 {
                            start.wait();
                        }
                        let acc = coarse_ring(p);
                        if p.id() == 0 {
                            for src in 1..p.nprocs() {
                                p.recv::<u64>(src, 99);
                            }
                            end.wait();
                        } else {
                            p.send(0, 99, &acc);
                        }
                    });
                    m.helper_joins()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(joins, vec![0; n], "the core budget was overdrawn");
}

#[test]
fn structural_deadlock_still_fires_with_a_helper_joined() {
    let _serial = serial();
    let start = Instant::now();
    let m = default_machine(2, 2);
    let err = catch_unwind(AssertUnwindSafe(|| {
        m.run(|p| {
            spin(COARSE);
            match p.id() {
                0 => p.send(1, 7, &9u8),
                // Divergent: tag 7 is what arrives.
                1 => {
                    let _: u8 = p.recv(0, 42);
                }
                _ => spin(COARSE),
            }
        })
    }))
    .expect_err("deadlock must panic");
    let msg = panic_message(err);
    assert!(msg.contains("deadlock suspected"), "{msg}");
    assert!(msg.contains("pending (src, tag) envelope(s): [(0, 7)]"), "{msg}");
    assert!(start.elapsed() < Duration::from_secs(30), "took {:?}", start.elapsed());
    if adaptive_host() {
        assert!(m.helper_joins() >= 1, "the coarse phase must have recruited");
    }
}

#[test]
fn structural_deadlock_waits_for_a_helper_that_is_counted_but_not_there_yet() {
    let _serial = serial();
    // Processor 0's first quantum is coarse with processor 1 waiting,
    // so the caller recruits — on a fresh machine that spawns the
    // helper thread — and then runs processor 1 itself, which blocks at
    // once. The caller is now idle with the helper counted and almost
    // surely not arrived: no verdict may fall until it has, and the
    // verdict must then be the usual one.
    for _ in 0..5 {
        let start = Instant::now();
        let m = default_machine(1, 2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            m.run(|p| {
                if p.id() == 0 {
                    spin(COARSE);
                }
                let _: u8 = p.recv(1 - p.id(), 42); // nobody ever sends
            })
        }))
        .expect_err("deadlock must panic");
        let msg = panic_message(err);
        assert!(msg.contains("deadlock suspected"), "{msg}");
        assert!(start.elapsed() < Duration::from_secs(30), "took {:?}", start.elapsed());
        if adaptive_host() {
            assert_eq!(m.helper_joins(), 1);
        }
    }
}

#[test]
fn a_run_never_waits_for_another_runs_helper() {
    let _serial = serial();
    // One machine, two workers from the start of every run. Run A keeps
    // its helper inside its `worker_loop` until released; run B, on the
    // same machine meanwhile, must get a helper of its own — an idle one
    // or a new thread — and reach its deadlock verdict while A still
    // holds the first.
    let m = Machine::new(
        MachineConfig::mesh(1, 2).unwrap().with_scheduler(SchedulerKind::Event).with_workers(2),
    );
    let (a_started, a_is_running) = mpsc::channel::<()>();
    let (release_a, a_released) = mpsc::channel::<()>();
    let a_released = Mutex::new(a_released);
    let (b_ended, b_verdict) = mpsc::channel::<String>();
    std::thread::scope(|s| {
        s.spawn(|| {
            m.run(|p| {
                if p.id() == 0 {
                    a_started.send(()).unwrap();
                    a_released.lock().unwrap().recv().unwrap();
                }
            })
        });
        a_is_running.recv().unwrap();
        s.spawn(|| {
            let err = catch_unwind(AssertUnwindSafe(|| {
                m.run(|p| {
                    let _: u8 = p.recv(1 - p.id(), 42); // nobody ever sends
                });
            }))
            .expect_err("deadlock must panic");
            b_ended.send(panic_message(err)).unwrap();
        });
        let verdict = b_verdict.recv_timeout(Duration::from_secs(30));
        release_a.send(()).unwrap();
        let msg = verdict.expect("B's verdict falls while A still holds its helper");
        assert!(msg.contains("deadlock suspected"), "{msg}");
    });
    assert_eq!(m.helper_joins(), 2);
}

#[test]
fn concurrent_runs_leave_at_most_a_core_count_of_helper_threads() {
    let _serial = serial();
    // Eight machines at once, each dispatching a helper at the start of
    // every run: idle helpers are taken, missing ones spawned, and the
    // surplus retires as the runs end.
    let reference = single_worker_machine(2, 2).run(fine_ring);
    let barrier = Barrier::new(8);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                let m = Machine::new(MachineConfig::mesh(2, 2).unwrap().with_workers(2));
                barrier.wait();
                for _ in 0..3 {
                    assert_identical("two workers", &m.run(fine_ring), &reference);
                }
                assert_eq!(m.helper_joins(), 3);
            });
        }
    });
    // A helper retires just after its job signals the run's end.
    let deadline = Instant::now() + Duration::from_secs(10);
    while skil_runtime::helper_threads() > cores() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(skil_runtime::helper_threads() <= cores(), "{}", skil_runtime::helper_threads());
}

#[test]
fn an_abort_reaches_every_blocked_peer_past_a_helper_parked_unnotified() {
    let _serial = serial();
    // A coarse phase recruits the helper, a long fine phase shuts the
    // gate so the helper parks and pushes stop signalling it, and then
    // processor 0 goes down with everyone else blocked on it. The
    // abort sweep's wakes are unsignalled pushes too: whichever worker
    // makes them must drain them.
    let program = |rt_error: bool| {
        move |p: &mut Proc<'_>| {
            coarse_ring(p);
            fine_ring(p);
            if p.id() == 0 {
                p.charge(2_000_000_000_000); // crosses the crash cycle, if any
                if rt_error {
                    panic!("{RT_ERROR_PREFIX}integer division by zero");
                }
            }
            let _: u8 = p.recv(0, 99);
        }
    };
    let crash = FaultPlan::seeded(3).with_crash(0, 1_000_000_000_000);
    for (label, plan, rt_error) in [("runtime error", None, true), ("crash", Some(&crash), false)] {
        let start = Instant::now();
        let m = default_machine(2, 2);
        let failure =
            m.try_run_faults(plan, program(rt_error)).expect_err("processor 0 fails the run");
        assert!(start.elapsed() < Duration::from_secs(30), "{label}: took {:?}", start.elapsed());
        assert_eq!(failure.root().proc, 0, "{label}");
        match &failure.root().cause {
            AbortCause::RuntimeError { what } => assert_eq!(what, "integer division by zero"),
            AbortCause::Crashed { cycle } => assert_eq!(*cycle, 1_000_000_000_000),
            other => panic!("{label}: unexpected root cause {other:?}"),
        }
        assert_eq!(failure.aborts.len(), 4, "{label}: {failure}");
        for peer in 1..4 {
            assert!(
                failure
                    .aborts
                    .iter()
                    .any(|a| a.proc == peer && matches!(a.cause, AbortCause::PeerDown { peer: 0 })),
                "{label}: processor {peer} must cascade: {failure}"
            );
        }
        if adaptive_host() {
            assert!(m.helper_joins() >= 1, "{label}: the coarse phase must have recruited");
        }
        // The machine stays usable, and starts over at one worker.
        assert_identical(label, &m.run(fine_ring), &single_worker_machine(2, 2).run(fine_ring));
    }
}

#[test]
fn a_warm_machine_starts_every_run_at_one_worker() {
    let _serial = serial();
    let m = default_machine(2, 2);
    let single = single_worker_machine(2, 2);
    let coarse = m.run(coarse_ring);
    let after_coarse = m.helper_joins();
    // The fine run reuses the arena the coarse run parked: had the gate
    // or the worker count survived the reset, it would dispatch helpers.
    let fine = m.run(fine_ring);
    assert_eq!(m.setup_reuse_hits(), 1);
    assert_identical("fine after coarse", &fine, &single.run(fine_ring));
    assert_identical("coarse", &coarse, &single.run(coarse_ring));
    if adaptive_host() {
        assert!(after_coarse >= 1);
        assert_eq!(fewest_joins(&m, |m| m.run(fine_ring)), 0, "fine run on a warm machine");
        let before = m.helper_joins();
        assert_identical("coarse again", &m.run(coarse_ring), &coarse);
        assert!(m.helper_joins() > before, "every run earns its own helpers");
    }
}
