//! The goldens: pinned virtual time.
//!
//! Virtual time and per-processor activity are functions of the program
//! and the cost model only (`support/invariant.rs`). These constants
//! were captured from the original per-element/linear-scan/spawn-per-run
//! data plane, and the `.skil` ones from the AST walker before the
//! bytecode VM existed; any drift under a later data plane, engine or
//! host configuration is a correctness bug, not a tuning difference.
//! Each golden holds under every host configuration of
//! `support/hosts.rs`, and the `.skil` goldens also hold the digest
//! `tests/fixtures/digests.txt` pins for them.

use skil::apps::{gauss_skil, shpaths_skil};
use skil::lang::{Engine, OptLevel};
use skil::runtime::{Machine, MachineConfig};

#[path = "support/invariant.rs"]
mod invariant;
#[path = "support/programs.rs"]
mod programs;

use invariant::{assert_same, configs, machines, Observed, Row};
use programs::{digest_line, levels, run, App, Axis, ENGINES, VM_LEVELS};

/// A processor's `(id, finished_at, compute, wait, sends, bytes_sent,
/// recvs)`.
type Pin = (usize, u64, u64, u64, u64, u64, u64);

/// `app` under every host configuration of `cfg`, held to the pinned
/// `cycles` and per-processor `pins`.
fn app_golden(cfg: MachineConfig, app: App, cycles: u64, pins: &[Pin]) {
    let seen =
        assert_same(&[Row::new("app", app)], &configs(&[()], &machines(cfg)), |app, (), m| app(m));
    assert_eq!(seen[0].sim_cycles(), cycles);
    let got: Vec<Pin> = seen[0]
        .procs()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let s = p.stats;
            (i, p.finished_at, s.compute, s.wait, s.sends, s.bytes_sent, s.recvs)
        })
        .collect();
    assert_eq!(got, pins);
}

#[test]
fn shortest_paths_2x2_golden() {
    app_golden(
        MachineConfig::square(2).unwrap(),
        |m| {
            let out = shpaths_skil(m, 24, 0x51_1996);
            // The assembled distance matrix is part of the contract too.
            let hash = out.value.iter().fold(0u64, |a, &b| a.wrapping_mul(31).wrapping_add(b));
            assert_eq!(hash, 15_204_245_841_144_870_469);
            programs::app(out)
        },
        6_303_680,
        &[
            (0, 6_278_680, 5_674_320, 604_360, 10, 11_600, 10),
            (1, 6_293_920, 5_899_320, 394_600, 15, 17_400, 15),
            (2, 6_256_920, 5_899_320, 357_600, 15, 17_400, 15),
            (3, 6_303_680, 6_124_320, 179_360, 20, 23_200, 20),
        ],
    );
}

#[test]
fn gauss_2x2_golden() {
    app_golden(
        MachineConfig::square(2).unwrap(),
        |m| programs::app(gauss_skil(m, 24, 0x51_1996)),
        4_264_840,
        &[
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
        |m| programs::app(shpaths_skil(m, 18, 7)),
        2_477_744,
        &[
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
        |m| programs::app(gauss_skil(m, 18, 7)),
        3_398_750,
        &[
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
    let machine = [("event", Machine::new(MachineConfig::square(2).unwrap()))];
    let app: App = |m| programs::app(shpaths_skil(m, 12, 3));
    assert_same(&[Row::new("shortest paths", app)], &configs(&[1, 2, 3], &machine), |app, _, m| {
        app(m)
    });
}

#[test]
fn golden_cycles_bit_identical_with_tracing_on() {
    // Observability must be free in virtual time: the traced runs hit
    // the golden constants captured from untraced runs, processor for
    // processor.
    let machines = [
        ("untraced", Machine::new(MachineConfig::square(2).unwrap())),
        ("traced", Machine::new(MachineConfig::square(2).unwrap().with_trace())),
    ];
    let rows: [Row<App>; 2] = [
        Row::new("shortest paths", |m| programs::app(shpaths_skil(m, 24, 0x51_1996))),
        Row::new("gauss", |m| programs::app(gauss_skil(m, 24, 0x51_1996))),
    ];
    let seen = assert_same(&rows, &configs(&[()], &machines), |app, (), m| {
        let run = app(m);
        if let (Ok(r), true) = (&run, m.config().trace) {
            assert!(!r.report.procs[0].trace.is_empty(), "tracing recorded spans");
        }
        run
    });
    assert_eq!([seen[0].sim_cycles(), seen[1].sim_cycles()], [6_303_680, 4_264_840]);
}

/// The `.skil` frontend programs get the same treatment as the Rust
/// apps: `name`'s pinned cycles under `axes` on every host
/// configuration of a 2x2 mesh, and the digest every configuration of
/// its class must produce.
fn skil_golden(name: &str, cycles: u64, axes: &[Axis]) {
    let row = [Row::new(name, levels(name, &programs::example(&format!("{name}.skil"))))];
    let machines = machines(MachineConfig::square(2).unwrap());
    let seen = assert_same(&row, &configs(axes, &machines), run).remove(0);
    assert_eq!(seen.sim_cycles(), cycles, "{name}");
    programs::assert_pinned(&[digest_line(name, "mesh2d:2x2", seen.digest())]);
}

#[test]
fn skil_shortest_paths_golden_under_both_engines() {
    skil_golden("shortest_paths", 2_397_316, &ENGINES);
}

#[test]
fn skil_gauss_golden_under_both_engines() {
    skil_golden("gauss", 11_906_936, &ENGINES);
}

#[test]
fn skil_goldens_bit_identical_at_every_opt_level() {
    // The bytecode optimizer may reorder, fuse, fold, and inline, but
    // the pooled symbolic charges must survive exactly: -O0 (raw
    // compiler output) holds the goldens -O2 holds above, digest for
    // digest.
    let lower = [(Engine::Vm, OptLevel::O0), (Engine::Native, OptLevel::O0)];
    skil_golden("shortest_paths", 2_397_316, &lower);
    skil_golden("gauss", 11_906_936, &lower);
}

#[test]
fn skil_examples_golden_with_tracing_on() {
    // Traced, under the walker, the VM at every level and the native
    // engine: the untraced run's output, clocks and stats, and spans.
    let machines = [
        ("untraced", Machine::new(MachineConfig::square(2).unwrap())),
        ("traced", Machine::new(MachineConfig::square(2).unwrap().with_trace())),
    ];
    let mut cells = configs(&VM_LEVELS[2..], &machines[..1]);
    cells.extend(configs(&[VM_LEVELS[0], VM_LEVELS[1], VM_LEVELS[2], ENGINES[2]], &machines[1..]));
    for (name, cycles) in [("shortest_paths", 2_397_316), ("gauss", 11_906_936)] {
        let row = [Row::new(name, levels(name, &programs::example(&format!("{name}.skil"))))];
        let seen: Observed = assert_same(&row, &cells, |c, axis, m| {
            let run = run(c, axis, m);
            if let (Ok(r), true) = (&run, m.config().trace) {
                assert!(!r.report.procs[0].trace.is_empty(), "tracing recorded spans");
            }
            run
        })
        .remove(0);
        assert_eq!(seen.sim_cycles(), cycles, "{name}");
    }
}
