//! Regression harness: every `.skil` program under `examples/skil/`
//! must compile, emit C, and run on a small machine without errors.

use skil::lang::compile;
use skil::runtime::{Machine, MachineConfig};

#[path = "support/programs.rs"]
mod programs;

use programs::examples as programs;

#[test]
fn every_shipped_program_compiles_and_emits_c() {
    for (name, src) in programs() {
        let compiled = compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let c = compiled.emit_c();
        assert!(c.contains("main"), "{name}: emitted C has a main");
        assert!(!c.is_empty());
    }
}

#[test]
fn every_shipped_program_runs_on_2x2() {
    let machine = Machine::new(MachineConfig::square(2).unwrap());
    for (name, src) in programs() {
        let compiled = compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let run = compiled.run(&machine);
        assert!(run.report.sim_cycles > 0, "{name}: advanced virtual time");
        // runs are deterministic
        let again = compiled.run(&machine);
        assert_eq!(run.report.sim_cycles, again.report.sim_cycles, "{name}");
        assert_eq!(run.results, again.results, "{name}");
    }
}

#[test]
fn gauss_program_needs_divisible_sizes() {
    // the shipped gauss program runs on machines whose size divides n
    let (_, src) =
        programs().into_iter().find(|(n, _)| n == "gauss.skil").expect("gauss.skil shipped");
    for procs in [1usize, 2, 4, 8, 16] {
        let machine = Machine::new(MachineConfig::procs(procs).unwrap());
        let compiled = compile(&src).unwrap();
        let run = compiled.run(&machine);
        // the solution rows are printed across processors; count them
        let total_lines: usize = run.results.iter().map(|l| l.len()).sum();
        assert_eq!(total_lines, 16, "procs={procs}");
    }
}

#[test]
fn farm_sweep_result_is_correct() {
    let (_, src) = programs()
        .into_iter()
        .find(|(n, _)| n == "farm_sweep.skil")
        .expect("farm_sweep.skil shipped");
    let machine = Machine::new(MachineConfig::procs(8).unwrap());
    let run = compile(&src).unwrap().run(&machine);
    // sequential reference
    let score = |param: i64| {
        let mut x = param;
        for _ in 0..100 {
            x = (x * 3 + 7) % 1000;
        }
        x
    };
    let (mut best, mut best_param) = (-1, 0);
    for p in 1..=16 {
        let s = score(p);
        if s > best {
            best = s;
            best_param = p;
        }
    }
    assert_eq!(run.results[0], vec![best_param.to_string(), best.to_string()]);
}

#[test]
fn prefix_stats_matches_sequential() {
    let (_, src) = programs()
        .into_iter()
        .find(|(n, _)| n == "prefix_stats.skil")
        .expect("prefix_stats.skil shipped");
    let machine = Machine::new(MachineConfig::procs(4).unwrap());
    let run = compile(&src).unwrap().run(&machine);
    let sample = |i: i64| (i * 37 + 11) % 23 - 11;
    let mut total = 0i64;
    let mut peak = i64::MIN;
    for i in 0..64 {
        total += sample(i);
        peak = peak.max(total);
    }
    assert_eq!(run.results[3], vec![total.to_string()]);
    assert_eq!(run.results[0], vec![peak.to_string()]);
}
