//! Engine × host-configuration differential matrix on real Skil programs.
//!
//! The runtime's scheduler swap must be invisible through the whole
//! language stack: AST walker, bytecode VM, and the machine-code
//! native engine, on the event scheduler at any worker count and on the
//! thread scheduler, must print the same output and charge
//! bit-identical virtual time. These tests run the paper's
//! shortest-paths program through every cell of that matrix,
//! including a recoverable fault plan and a crash plan, and both
//! headline programs through every topology × collective algorithm ×
//! scheduler cell.

use skil_lang::{compile, Compiled, Engine};
use skil_runtime::{
    CollectiveAlgo, FaultPlan, Machine, MachineConfig, Run, SchedulerKind, Topology,
};

#[path = "../../../tests/support/hosts.rs"]
mod hosts;

const SHORTEST_PATHS: &str = include_str!("../../../examples/skil/shortest_paths.skil");
const GAUSS: &str = include_str!("../../../examples/skil/gauss.skil");

fn cells(faults: Option<&FaultPlan>) -> Vec<(String, Engine, Machine)> {
    let mut cfg = MachineConfig::mesh(4, 4).unwrap();
    if let Some(f) = faults {
        cfg = cfg.with_faults(f.clone());
    }
    let mut out = Vec::new();
    for engine in [Engine::Ast, Engine::Vm, Engine::Native] {
        for (host, cfg) in hosts::hosts(cfg.clone()) {
            out.push((format!("{engine:?} on {host}"), engine, Machine::new(cfg)));
        }
    }
    out
}

fn assert_identical(label: &str, a: &Run<Vec<String>>, b: &Run<Vec<String>>) {
    assert_eq!(a.results, b.results, "{label}: printed output diverged");
    assert_eq!(a.report.sim_cycles, b.report.sim_cycles, "{label}: sim_cycles diverged");
    for (i, (pa, pb)) in a.report.procs.iter().zip(&b.report.procs).enumerate() {
        assert_eq!(pa.finished_at, pb.finished_at, "{label}: proc {i} finished_at");
        assert_eq!(pa.stats, pb.stats, "{label}: proc {i} stats");
    }
}

#[test]
fn engine_scheduler_matrix_fault_free() {
    let compiled = compile(SHORTEST_PATHS).expect("shortest_paths.skil compiles");
    let cells = cells(None);
    let (_, engine, m) = &cells[0];
    let base = compiled.run_with(*engine, m);
    assert!(!base.results[0].is_empty(), "proc 0 must print the fold total");
    for (label, engine, m) in &cells[1..] {
        assert_identical(label, &compiled.run_with(*engine, m), &base);
    }
}

#[test]
fn engine_scheduler_matrix_recoverable_fault_plan() {
    // Drops, duplicates, and delays the reliable layer masks: every
    // engine × host cell must agree on output, clocks, and the fault
    // counters themselves.
    let compiled = compile(SHORTEST_PATHS).expect("shortest_paths.skil compiles");
    let faults = FaultPlan::seeded(11).with_drop(0.2).with_dup(0.2).with_delay(0.2, 20_000);
    let cells = cells(Some(&faults));
    let (_, engine, m) = &cells[0];
    let base = compiled.run_with(*engine, m);
    let fault_events: u64 = base.report.procs.iter().map(|p| p.stats.fault_events()).sum();
    assert!(fault_events > 0, "the plan must actually inject faults");
    for (label, engine, m) in &cells[1..] {
        assert_identical(label, &compiled.run_with(*engine, m), &base);
    }
}

#[test]
fn engine_scheduler_matrix_crash_plan() {
    // A processor dies mid-run; the structured failure (which procs
    // aborted, with what causes) must be identical in every cell.
    let compiled = compile(SHORTEST_PATHS).expect("shortest_paths.skil compiles");
    let faults = FaultPlan::seeded(5).with_crash(3, 400);
    let failures: Vec<(String, Vec<(usize, skil_runtime::AbortCause)>)> = cells(Some(&faults))
        .iter()
        .map(|(label, engine, m)| {
            let failure =
                compiled.try_run_with(*engine, m).expect_err("the crash plan must fail the run");
            (label.clone(), failure.aborts.iter().map(|a| (a.proc, a.cause.clone())).collect())
        })
        .collect();
    let (_, base) = &failures[0];
    assert!(base.iter().any(|(p, _)| *p == 3), "proc 3 must be in the cascade: {base:?}");
    for (label, aborts) in &failures[1..] {
        assert_eq!(aborts, base, "{label}: fault cascade diverged");
    }
}

/// One program on one (topology, algorithm) cell: what it prints, and
/// its virtual time and message count.
fn run_cell(
    compiled: &Compiled,
    engine: Engine,
    topo: Topology,
    algo: CollectiveAlgo,
    kind: SchedulerKind,
) -> (Vec<Vec<String>>, (u64, u64)) {
    let cfg = MachineConfig::on_topology(topo).unwrap().with_collective_algo(algo);
    let run = compiled.run_with(engine, &Machine::new(cfg.with_scheduler(kind)));
    (run.results, (run.report.sim_cycles, run.report.total_msgs()))
}

#[test]
fn topology_algorithm_scheduler_matrix() {
    // Topology and collective algorithm reach a program only through
    // the one skeleton host and skil-core, whichever engine drives
    // them: the full topology × algorithm × scheduler grid runs under
    // `vm`, and `ast` and `native` join on the mesh row. Output is the
    // same in every cell of a program; virtual time and message count
    // are the same across scheduler and engine within a (topology,
    // algorithm) cell.
    for (name, src) in [("shortest_paths", SHORTEST_PATHS), ("gauss", GAUSS)] {
        let compiled = compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut output = None;
        for spec in
            ["mesh2d:4x4", "hypercube:16", "fattree:2,4", "hetero:mesh2d:4x4:slowlinks=col2*64"]
        {
            let topo = Topology::parse(spec).unwrap();
            let engines: &[Engine] = match spec {
                "mesh2d:4x4" => &[Engine::Ast, Engine::Vm, Engine::Native],
                _ => &[Engine::Vm],
            };
            for algo in [
                CollectiveAlgo::Tree,
                CollectiveAlgo::Ring,
                CollectiveAlgo::RecDouble,
                CollectiveAlgo::Auto,
            ] {
                let mut time = None;
                for kind in [SchedulerKind::Event, SchedulerKind::Threads] {
                    for &engine in engines {
                        let at = format!("{name} on {spec} under {algo:?}, {kind:?}, {engine:?}");
                        let (printed, cell) = run_cell(&compiled, engine, topo, algo, kind);
                        assert_eq!(
                            &printed,
                            output.get_or_insert_with(|| printed.clone()),
                            "{at}: output"
                        );
                        assert_eq!(&cell, time.get_or_insert(cell), "{at}: virtual time");
                    }
                }
            }
        }
    }
}
