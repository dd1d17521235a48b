//! The process-wide host pools of the event scheduler.
//!
//! A machine owns no coroutine stack and no helper thread: every run
//! borrows its stacks from one process-wide pool and its helpers from
//! one process-wide set of threads, and hands both back when it ends.
//! These tests pin what that may and may not change. Runs of many shapes
//! interleaved on several threads share the pools and still report
//! exactly what a run alone reports, goldens included. And the idle
//! stacks the process keeps are bounded by the most processors that ran
//! at once, and by 4,096.
//!
//! The pools are process-wide, so the tests here hold one lock, and each
//! raises [`PEAK`] to a bound on the processors it runs at once before
//! running them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use skil::lang::{compile, Compiled, Engine};
use skil::runtime::{stacks_idle, Machine, MachineConfig, ProcStats, RunReport, Topology};

#[path = "support/hosts.rs"]
mod hosts;
#[path = "support/programs.rs"]
mod programs;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// An upper bound on the processors this process has run at once.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_peak(procs: usize) {
    PEAK.fetch_max(procs, Ordering::Relaxed);
}

fn assert_idle_stacks_bounded(at: &str) {
    let (idle, peak) = (stacks_idle(), PEAK.load(Ordering::Relaxed));
    assert!(idle <= peak.min(4096), "{at}: {idle} idle stacks, peak {peak}");
}

fn example(name: &str) -> Compiled {
    compile(&programs::example(name)).expect("example compiles")
}

/// Everything a run reports that the host could move: the output, the
/// virtual time, and each processor's finish time and stats.
type Outcome = (Vec<Vec<String>>, u64, Vec<(u64, ProcStats)>);

fn outcome(results: Vec<Vec<String>>, r: &RunReport) -> Outcome {
    (results, r.sim_cycles, r.procs.iter().map(|p| (p.finished_at, p.stats)).collect())
}

#[test]
fn interleaved_runs_of_many_shapes_on_shared_pools_are_bit_identical() {
    let _serial = serial();
    let (paths, gauss, horner) =
        (example("shortest_paths.skil"), example("gauss.skil"), example("horner.skil"));
    // The two goldens on 2x2, and a compute-bound program (coarse
    // quanta, so adaptive runs recruit helpers) on 1x1 ... 8x8 and on
    // the 16-node hypercube.
    let mut jobs: Vec<(&str, &Compiled, MachineConfig)> = vec![
        ("shortest_paths", &paths, MachineConfig::square(2).unwrap()),
        ("gauss", &gauss, MachineConfig::square(2).unwrap()),
        (
            "horner",
            &horner,
            MachineConfig::on_topology(Topology::parse("hypercube:16").unwrap()).unwrap(),
        ),
    ];
    jobs.extend((1..=8).map(|side| ("horner", &horner, MachineConfig::square(side).unwrap())));
    let alone: Vec<Outcome> = jobs
        .iter()
        .map(|(_, program, cfg)| {
            let run = program.run_with(Engine::Vm, &Machine::new(cfg.clone()));
            outcome(run.results, &run.report)
        })
        .collect();
    assert_eq!(alone[0].1, 2_397_316);
    assert_eq!(alone[1].1, 11_906_936);

    // Four threads walk the jobs from different starting points on the
    // event hosts (adaptive, one worker, two from the start), two
    // rounds each, every thread on machines of its own.
    let threads = 4;
    note_peak(threads * 64);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (jobs, alone) = (&jobs, &alone);
            s.spawn(move || {
                for round in 0..2 {
                    for k in 0..jobs.len() {
                        let i = (k + 3 * t + round) % jobs.len();
                        let (name, program, cfg) = &jobs[i];
                        let (host, cfg) = hosts::hosts(cfg.clone())[(t + round) % 3].clone();
                        let run = program.run_with(Engine::Vm, &Machine::new(cfg));
                        let at =
                            format!("{name} on {:?} ({host}), thread {t}", run.report.topology);
                        assert_eq!(outcome(run.results, &run.report), alone[i], "{at}");
                    }
                }
            });
        }
    });
    assert_idle_stacks_bounded("after the interleaved runs");
}

#[test]
fn idle_stacks_never_outnumber_the_processors_that_ran_at_once() {
    let _serial = serial();
    let small = |side: usize| {
        note_peak(side * side);
        let run = Machine::new(MachineConfig::square(side).unwrap()).run(|p| p.id());
        assert_eq!(run.results.len(), side * side);
        assert_idle_stacks_bounded(&format!("after {side}x{side}"));
    };
    for side in [1, 3, 2] {
        small(side);
    }
    note_peak(64 * 64);
    let big = Machine::new(MachineConfig::square(64).unwrap()).run(|p| p.id());
    assert_eq!(big.results[4095], 4095);
    assert_idle_stacks_bounded("after 64x64");
    for side in [1, 4, 2] {
        small(side);
    }
    assert!(stacks_idle() >= 64 * 64 / 2, "the big run's stacks stay for the next runs");
}
