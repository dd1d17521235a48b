//! The Skil programs and Rust apps the root suites hold to
//! `support/invariant.rs`, the engine x opt level axis they run Skil on,
//! and the digests `tests/fixtures/digests.txt` pins.

#![allow(dead_code)]

use std::fmt::Debug;

use skil::apps::AppOutcome;
use skil::lang::{compile_opt, Compiled, Engine, OptLevel};
use skil::runtime::{Machine, Run, SimFailure};

/// An engine at an opt level. The walker runs the first-order program,
/// which no opt level changes.
pub type Axis = (Engine, OptLevel);

/// Each engine at the default opt level.
pub const ENGINES: [Axis; 3] =
    [(Engine::Ast, OptLevel::O2), (Engine::Vm, OptLevel::O2), (Engine::Native, OptLevel::O2)];

/// The walker, then the VM at both opt levels.
pub const VM_LEVELS: [Axis; 3] =
    [(Engine::Ast, OptLevel::O0), (Engine::Vm, OptLevel::O0), (Engine::Vm, OptLevel::O2)];

/// The walker, then the VM and the native engine at both opt levels.
pub const ALL_LEVELS: [Axis; 5] = [
    VM_LEVELS[0],
    VM_LEVELS[1],
    VM_LEVELS[2],
    (Engine::Native, OptLevel::O0),
    (Engine::Native, OptLevel::O2),
];

/// `src` compiled at each opt level, in level order.
pub fn levels(name: &str, src: &str) -> [Compiled; 2] {
    [OptLevel::O0, OptLevel::O2].map(|level| {
        compile_opt(src, level).unwrap_or_else(|e| panic!("{name} at -O{level}: {e}\n{src}"))
    })
}

/// The harness's runner for a program compiled at each opt level.
pub fn run(
    c: &[Compiled; 2],
    &(engine, level): &Axis,
    m: &Machine,
) -> Result<Run<Vec<String>>, SimFailure> {
    c[level as usize].try_run_with(engine, m)
}

/// A Rust app as the harness runs it.
pub type App = fn(&Machine) -> Result<Run<String>, SimFailure>;

/// A Rust app's outcome as a run with one result: the value it
/// assembled.
pub fn app<T: Debug>(out: AppOutcome<T>) -> Result<Run<String>, SimFailure> {
    Ok(Run { results: vec![format!("{:?}", out.value)], report: out.report })
}

/// A shipped example's source, by file name.
pub fn example(name: &str) -> String {
    let path = format!("{}/examples/skil/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Every shipped example, `(file name, source)`, by file name.
pub fn examples() -> Vec<(String, String)> {
    let dir = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/skil"));
    let mut names: Vec<String> = (dir.expect("examples/skil exists"))
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".skil"))
        .collect();
    names.sort();
    assert!(names.len() >= 8, "expected the shipped .skil programs, found {}", names.len());
    names.iter().map(|name| (name.clone(), example(name))).collect()
}

/// One line per (program, topology): the digest
/// every configuration of that class observes.
pub const DIGESTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/digests.txt");

/// A line of [`DIGESTS`].
pub fn digest_line(program: &str, topology: &str, digest: u64) -> String {
    format!("{program} {topology} {digest:016x}")
}

/// Each of `lines` is the fixture's line for its (program, topology).
pub fn assert_pinned(lines: &[String]) {
    let fixture = std::fs::read_to_string(DIGESTS).expect("tests/fixtures/digests.txt exists");
    let key = |line: &str| line.rsplit_once(' ').map(|(key, _)| key.to_string());
    for line in lines {
        let pinned = fixture.lines().find(|l| key(l) == key(line));
        assert_eq!(pinned, Some(line.as_str()), "tests/fixtures/digests.txt");
    }
}
