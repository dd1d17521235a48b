//! Golden determinism tests for the simulator data plane.
//!
//! The host-speed optimizations of the message path (bulk POD wire
//! encoding, shared envelopes, indexed mailboxes, the persistent worker
//! pool) must not change **anything** the simulation computes: virtual
//! time and per-processor activity are functions of the program and the
//! cost model only. These constants were captured from the original
//! per-element/linear-scan/spawn-per-run data plane; any drift in
//! `sim_cycles` or `ProcStats` under the rewritten one is a correctness
//! bug, not a tuning difference. Nor may the host configuration move
//! them: every golden holds under each of `support/hosts.rs`.

use skil::apps::{gauss_skil, shpaths_skil, AppOutcome};
use skil::lang::{compile, compile_opt, Engine, OptLevel};
use skil::runtime::{Machine, MachineConfig, ProcStats, RunReport};

#[path = "support/hosts.rs"]
mod hosts;

/// Per-processor fingerprint:
/// `(id, finished_at, compute, wait, sends, bytes_sent, recvs)`.
type Fp = (usize, u64, u64, u64, u64, u64, u64);

fn fingerprint(r: &RunReport) -> Vec<Fp> {
    r.procs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let s = p.stats;
            (i, p.finished_at, s.compute, s.wait, s.sends, s.bytes_sent, s.recvs)
        })
        .collect()
}

/// Every per-processor observable a host configuration could move:
/// when each processor finished, and all of its `ProcStats`.
fn full_fingerprint(r: &RunReport) -> Vec<(u64, ProcStats)> {
    r.procs.iter().map(|p| (p.finished_at, p.stats)).collect()
}

/// Every payload byte deposited by a send must be accounted for by
/// exactly one receive once all programs have returned.
fn assert_byte_conservation(r: &RunReport) {
    assert_eq!(
        r.total_bytes(),
        r.total_bytes_recvd(),
        "machine-wide byte conservation violated (sent != received)"
    );
}

/// A machine for each host configuration of `cfg`.
fn machines(cfg: MachineConfig) -> [(&'static str, Machine); 4] {
    hosts::hosts(cfg).map(|(host, cfg)| (host, Machine::new(cfg)))
}

/// Run a Rust app under every host configuration of `cfg` and hold each
/// run to the pinned `cycles` and per-processor `fps`, and to the first
/// configuration's full fingerprint and value.
fn app_golden<T: PartialEq + std::fmt::Debug>(
    cfg: MachineConfig,
    app: impl Fn(&Machine) -> AppOutcome<T>,
    cycles: u64,
    fps: Vec<Fp>,
) -> AppOutcome<T> {
    let mut first: Option<AppOutcome<T>> = None;
    for (host, m) in machines(cfg) {
        let out = app(&m);
        assert_eq!(out.report.sim_cycles, cycles, "{host}");
        assert_byte_conservation(&out.report);
        assert_eq!(fingerprint(&out.report), fps, "{host}");
        match &first {
            None => first = Some(out),
            Some(f) => {
                assert_eq!(full_fingerprint(&out.report), full_fingerprint(&f.report), "{host}");
                assert_eq!(out.value, f.value, "{host}");
            }
        }
    }
    first.expect("four hosts")
}

#[test]
fn shortest_paths_2x2_golden() {
    let out = app_golden(
        MachineConfig::square(2).unwrap(),
        |m| shpaths_skil(m, 24, 0x51_1996),
        6_303_680,
        vec![
            (0, 6_278_680, 5_674_320, 604_360, 10, 11_600, 10),
            (1, 6_293_920, 5_899_320, 394_600, 15, 17_400, 15),
            (2, 6_256_920, 5_899_320, 357_600, 15, 17_400, 15),
            (3, 6_303_680, 6_124_320, 179_360, 20, 23_200, 20),
        ],
    );
    // The assembled distance matrix is part of the contract too.
    let hash = out.value.iter().fold(0u64, |a, &b| a.wrapping_mul(31).wrapping_add(b));
    assert_eq!(hash, 15_204_245_841_144_870_469);
}

#[test]
fn gauss_2x2_golden() {
    app_golden(
        MachineConfig::square(2).unwrap(),
        |m| gauss_skil(m, 24, 0x51_1996),
        4_264_840,
        vec![
            (0, 4_245_552, 3_166_300, 1_079_252, 18, 3_744, 18),
            (1, 4_243_552, 3_181_420, 1_062_132, 18, 3_744, 18),
            (2, 4_264_840, 3_196_540, 1_068_300, 18, 3_744, 18),
            (3, 4_223_424, 3_211_660, 1_011_764, 18, 3_744, 18),
        ],
    );
}

#[test]
fn shortest_paths_3x3_golden() {
    app_golden(
        MachineConfig::square(3).unwrap(),
        |m| shpaths_skil(m, 18, 7),
        2_477_744,
        vec![
            (0, 2_450_488, 1_892_880, 557_608, 20, 5_920, 20),
            (1, 2_475_232, 2_117_880, 357_352, 25, 7_400, 25),
            (2, 2_474_976, 2_117_880, 357_096, 25, 7_400, 25),
            (3, 2_438_232, 2_117_880, 320_352, 25, 7_400, 25),
            (4, 2_477_744, 2_342_880, 134_864, 30, 8_880, 30),
            (5, 2_477_488, 2_342_880, 134_608, 30, 8_880, 30),
            (6, 2_452_744, 2_117_880, 334_864, 25, 7_400, 25),
            (7, 2_477_488, 2_342_880, 134_608, 30, 8_880, 30),
            (8, 2_477_232, 2_342_880, 134_352, 30, 8_880, 30),
        ],
    );
}

#[test]
fn gauss_3x3_golden() {
    app_golden(
        MachineConfig::square(3).unwrap(),
        |m| gauss_skil(m, 18, 7),
        3_398_750,
        vec![
            (0, 3_357_230, 1_272_750, 2_084_480, 16, 2_560, 16),
            (1, 3_355_230, 1_274_430, 2_080_800, 16, 2_560, 16),
            (2, 3_373_990, 1_276_110, 2_097_880, 16, 2_560, 16),
            (3, 3_355_230, 1_277_790, 2_077_440, 16, 2_560, 16),
            (4, 3_373_990, 1_279_470, 2_094_520, 16, 2_560, 16),
            (5, 3_375_990, 1_281_150, 2_094_840, 16, 2_560, 16),
            (6, 3_398_750, 1_282_830, 2_115_920, 16, 2_560, 16),
            (7, 3_246_230, 1_284_510, 1_961_720, 16, 2_560, 16),
            (8, 3_331_630, 1_286_190, 2_045_440, 16, 2_560, 16),
        ],
    );
}

#[test]
fn repeated_runs_on_one_machine_are_identical() {
    // The persistent pool must not leak any state between runs.
    let m = Machine::new(MachineConfig::square(2).unwrap());
    let a = shpaths_skil(&m, 12, 3).report.sim_cycles;
    let b = shpaths_skil(&m, 12, 3).report.sim_cycles;
    let c = shpaths_skil(&m, 12, 3).report.sim_cycles;
    assert_eq!(a, b);
    assert_eq!(b, c);
}

/// The `.skil` frontend programs get the same treatment as the Rust
/// apps: pinned virtual time, identical under every execution engine.
/// These constants were captured from the AST walker before the
/// bytecode VM existed; the VM (now the default engine) and the
/// machine-code native engine must hit them exactly — with and
/// without tracing.
fn skil_example(name: &str) -> String {
    let path = format!(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/skil/{}"), name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A shipped example's golden under every engine and every host
/// configuration: the pinned cycles, byte conservation, and the
/// walker's output and full fingerprint on the default host.
fn skil_golden(name: &str, cycles: u64) {
    let compiled = compile(&skil_example(name)).expect("example compiles");
    let walker = Machine::new(MachineConfig::square(2).unwrap());
    let reference = compiled.run_with(Engine::Ast, &walker);
    for (host, m) in machines(MachineConfig::square(2).unwrap()) {
        for engine in [Engine::Ast, Engine::Vm, Engine::Native] {
            let out = compiled.run_with(engine, &m);
            let at = format!("{name} under {engine:?} on {host}");
            assert_eq!(out.report.sim_cycles, cycles, "{at}");
            assert_byte_conservation(&out.report);
            assert_eq!(full_fingerprint(&out.report), full_fingerprint(&reference.report), "{at}");
            assert_eq!(out.results, reference.results, "{at}");
        }
    }
}

#[test]
fn skil_shortest_paths_golden_under_both_engines() {
    skil_golden("shortest_paths.skil", 2_397_316);
}

#[test]
fn skil_gauss_golden_under_both_engines() {
    skil_golden("gauss.skil", 11_906_936);
}

#[test]
fn skil_examples_golden_with_tracing_on() {
    let traced = Machine::new(MachineConfig::square(2).unwrap().with_trace());
    for (name, cycles) in [("shortest_paths.skil", 2_397_316u64), ("gauss.skil", 11_906_936u64)] {
        let compiled = compile(&skil_example(name)).expect("example compiles");
        for engine in [Engine::Ast, Engine::Vm, Engine::Native] {
            let out = compiled.run_with(engine, &traced);
            assert_eq!(out.report.sim_cycles, cycles, "{name} under {engine:?}");
            assert!(!out.report.procs[0].trace.is_empty(), "tracing recorded spans");
            assert_byte_conservation(&out.report);
        }
    }
}

#[test]
fn skil_goldens_bit_identical_at_every_opt_level() {
    // The bytecode optimizer may reorder, fuse, fold, and inline, but
    // the pooled symbolic charges must survive exactly: each golden
    // constant holds at -O0 (raw compiler output), -O1, and -O2, with
    // and without tracing, fingerprint for fingerprint.
    let machines = machines(MachineConfig::square(2).unwrap());
    let traced = Machine::new(MachineConfig::square(2).unwrap().with_trace());
    for (name, cycles) in [("shortest_paths.skil", 2_397_316u64), ("gauss.skil", 11_906_936u64)] {
        let src = skil_example(name);
        let reference = compile_opt(&src, OptLevel::O0)
            .expect("example compiles")
            .run_with(Engine::Vm, &machines[0].1);
        assert_eq!(reference.report.sim_cycles, cycles, "{name} at -O0");
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let compiled = compile_opt(&src, level).expect("example compiles");
            for (host, plain) in &machines {
                for engine in [Engine::Vm, Engine::Native] {
                    let out = compiled.run_with(engine, plain);
                    let at = format!("{name} at -O{level} ({engine:?} on {host})");
                    assert_eq!(out.report.sim_cycles, cycles, "{at}");
                    assert_eq!(
                        fingerprint(&out.report),
                        fingerprint(&reference.report),
                        "{at}: per-processor stats drifted"
                    );
                    assert_eq!(out.results, reference.results, "{at}: output drifted");
                    assert_byte_conservation(&out.report);
                }
            }

            let t = compiled.run_with(Engine::Vm, &traced);
            assert_eq!(t.report.sim_cycles, cycles, "{name} at -O{level} traced");
            assert_eq!(
                fingerprint(&t.report),
                fingerprint(&reference.report),
                "{name} at -O{level}: tracing changed the stats"
            );
            assert!(!t.report.procs[0].trace.is_empty(), "tracing recorded spans");
        }
    }
}

#[test]
fn golden_cycles_bit_identical_with_tracing_on() {
    // Observability must be free in virtual time: the traced runs hit
    // the exact golden constants captured from untraced runs, and the
    // full per-processor fingerprints agree with the untraced machine.
    let traced = Machine::new(MachineConfig::square(2).unwrap().with_trace());
    let plain = Machine::new(MachineConfig::square(2).unwrap());

    let sp_t = shpaths_skil(&traced, 24, 0x51_1996);
    assert_eq!(sp_t.report.sim_cycles, 6_303_680);
    assert_eq!(fingerprint(&sp_t.report), fingerprint(&shpaths_skil(&plain, 24, 0x51_1996).report));
    assert!(!sp_t.report.procs[0].trace.is_empty(), "tracing recorded spans");
    assert_byte_conservation(&sp_t.report);

    let g_t = gauss_skil(&traced, 24, 0x51_1996);
    assert_eq!(g_t.report.sim_cycles, 4_264_840);
    assert_eq!(fingerprint(&g_t.report), fingerprint(&gauss_skil(&plain, 24, 0x51_1996).report));
    assert_byte_conservation(&g_t.report);
}
