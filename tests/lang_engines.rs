//! Differential tests of the Skil execution engines.
//!
//! The bytecode VM — at every optimizer level — must be observationally
//! indistinguishable from the AST walker: identical print output,
//! identical `sim_cycles`, and identical per-processor `ProcStats` and
//! `DataPlaneStats` — on every shipped example, on every skeleton over
//! every array representation, and on randomly generated first-order
//! programs. Host speed is the only permitted difference. The native
//! engine rides the same assertions (on hosts without a working `rustc`
//! it degrades to the VM, so the check never spuriously fails).
//!
//! The walker keeps every array as `DistArray<Value>`; the VM host
//! stores `array<int>` / `array<float>` unboxed and arrays of flat
//! structs as their fields' words. Equal `DataPlaneStats` (the
//! inline/heap envelope split) and equal bytes per processor are what
//! show the representations are the same on the wire.
//!
//! None of it may depend on the host configuration either: the fixed
//! suites run on each of `support/hosts.rs`, the examples and the
//! generated programs rotate through them.

use proptest::prelude::*;
use skil::lang::{compile, compile_opt, Engine, OptLevel};
use skil::runtime::report::DataPlaneStats;
use skil::runtime::{Machine, MachineConfig, ProcStats, RunReport};

#[path = "support/hosts.rs"]
mod hosts;

const LEVELS: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];

/// Per-processor fingerprint: when it finished, what it computed and
/// sent, and how its messages were represented on the host.
type Fp = (usize, u64, ProcStats, DataPlaneStats);

fn fingerprint(r: &RunReport) -> Vec<Fp> {
    r.procs.iter().enumerate().map(|(i, p)| (i, p.finished_at, p.stats, p.data_plane)).collect()
}

/// A machine for each host configuration of `cfg`.
fn machines(cfg: MachineConfig) -> Vec<(&'static str, Machine)> {
    hosts::hosts(cfg).into_iter().map(|(host, cfg)| (host, Machine::new(cfg))).collect()
}

/// All four host configurations of a 2x2 mesh.
fn square_machines() -> Vec<(&'static str, Machine)> {
    machines(MachineConfig::square(2).unwrap())
}

fn examples() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/skil");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("examples/skil exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "skil") {
            let src = std::fs::read_to_string(&path).expect("readable");
            out.push((path.file_name().unwrap().to_string_lossy().into_owned(), src));
        }
    }
    assert!(out.len() >= 4, "expected the shipped .skil programs, found {}", out.len());
    out.sort();
    out
}

fn assert_engines_agree(name: &str, src: &str, machine: &Machine) {
    assert_agree_with_the_walker(name, src, machine, &[Engine::Vm, Engine::Native]);
}

/// The walker against the VM alone, at every level: for the operator
/// matrices, which would be a `rustc` run per program under `native`.
fn assert_vm_agrees(name: &str, src: &str, machine: &Machine) {
    assert_agree_with_the_walker(name, src, machine, &[Engine::Vm]);
}

/// Output, virtual time and per-processor stats of `engines` at every
/// level against the walker's.
fn assert_agree_with_the_walker(name: &str, src: &str, machine: &Machine, engines: &[Engine]) {
    let compiled = compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let ast = compiled.run_with(Engine::Ast, machine);
    for level in LEVELS {
        let c = compile_opt(src, level).unwrap_or_else(|e| panic!("{name} @ -O{level}: {e}"));
        for &engine in engines {
            let run = c.run_with(engine, machine);
            let at = format!("{name} @ -O{level} under {engine:?}");
            assert_eq!(ast.results, run.results, "{at}: print output differs");
            assert_eq!(ast.report.sim_cycles, run.report.sim_cycles, "{at}: virtual time differs");
            assert_eq!(
                fingerprint(&ast.report),
                fingerprint(&run.report),
                "{at}: per-processor stats differ"
            );
        }
    }
}

/// Every example on one host configuration of `cfg`, the `k`th example
/// on host `k + shift`: each test of the examples shifts the rotation.
fn assert_examples_agree(cfg: MachineConfig, shift: usize) {
    let machines = machines(cfg);
    for (k, (name, src)) in examples().into_iter().enumerate() {
        let (host, machine) = &machines[(k + shift) % machines.len()];
        assert_engines_agree(&format!("{name} on {host}"), &src, machine);
    }
}

#[test]
fn every_example_is_bit_identical_across_engines() {
    assert_examples_agree(MachineConfig::square(2).unwrap(), 0);
}

#[test]
fn engines_agree_with_tracing_on() {
    assert_examples_agree(MachineConfig::square(2).unwrap().with_trace(), 1);
}

#[test]
fn engines_agree_on_non_square_meshes() {
    // farm/d&c/scan workloads on a machine shape the goldens don't cover
    let machines = machines(MachineConfig::mesh(1, 3).unwrap());
    for (k, (name, src)) in examples().into_iter().enumerate() {
        if name == "gauss.skil" || name == "shortest_paths.skil" {
            // gauss needs sizes divisible by the machine size;
            // shortest_paths' gen_mult needs a square process grid
            continue;
        }
        let (host, machine) = &machines[(k + 2) % machines.len()];
        assert_engines_agree(&format!("{name} on {host}"), &src, machine);
    }
}

// ---------------------------------------------------------------------
// Every skeleton over every array representation.
// ---------------------------------------------------------------------

/// One element type the skeleton suite is instantiated at: its
/// declarations (an `initf`/`zerof` pair, `bump`, `key`, `unkey`,
/// `pick`, `idt`, and the `addf`/`mulf` combiners) and which argument
/// functions the `(T, T) -> T` skeletons get — operator sections and
/// intrinsics where the type has them, user functions otherwise.
struct Flavor {
    name: &'static str,
    ty: &'static str,
    decls: &'static str,
    add: &'static str,
    mul: &'static str,
    scan: &'static str,
}

const INT_DECLS: &str = "
int initf(Index ix) { return (ix[0] * 7 + ix[1] * 3) % 11 - 4; }
int zerof(Index ix) { return 0; }
int bump(int v, Index ix) { return v * 2 + ix[1]; }
int key(int v, Index ix) { return v; }
int unkey(int k, Index ix) { return k - 1; }
int pick(array<int> src, int v, Index ix) { return array_get_elem(src, ix) + v; }
int idt(int v, Index ix) { return v; }
int addf(int a, int b) { if (a < b) { return a; } return b; }
int mulf(int a, int b) { int s = a + b; return s; }
";

const FLOAT_DECLS: &str = "
float initf(Index ix) { return itof((ix[0] * 7 + ix[1] * 3) % 11 - 4) / 2.0; }
float zerof(Index ix) { return 0.0; }
float bump(float v, Index ix) { return v * 2.0 + itof(ix[1]); }
int key(float v, Index ix) { return ftoi(v * 4.0); }
float unkey(int k, Index ix) { return itof(k) - 0.25; }
float pick(array<float> src, float v, Index ix) { return array_get_elem(src, ix) + v; }
float idt(float v, Index ix) { return v; }
float addf(float a, float b) { if (a < b) { return a; } return b; }
float mulf(float a, float b) { float s = a + b * 0.5; return s; }
";

const STRUCT_DECLS: &str = "
struct cell { int k; float w; };
cell initf(Index ix) { return cell{(ix[0] * 7 + ix[1] * 3) % 11 - 4, itof(ix[1]) / 2.0}; }
cell zerof(Index ix) { return cell{0, 0.0}; }
cell bump(cell v, Index ix) { return cell{v.k * 2 + ix[1], v.w + 1.0}; }
int key(cell v, Index ix) { return v.k; }
cell unkey(int k, Index ix) { return cell{k - 1, 0.5}; }
cell pick(array<cell> src, cell v, Index ix) {
    cell o = array_get_elem(src, ix);
    return cell{o.k + v.k, o.w};
}
cell idt(cell v, Index ix) { return v; }
cell addf(cell a, cell b) { if (a.k < b.k) { return a; } return b; }
cell mulf(cell a, cell b) { return cell{a.k + b.k, a.w * b.w}; }
";

const WIDE_DECLS: &str = "
struct wide { int k; int b; int c; int d; int e; int f; int g; int h; float w; };
wide mk(int k, float w) { return wide{k, 1, 2, 3, 4, 5, 6, 7, w}; }
wide initf(Index ix) { return mk((ix[0] * 7 + ix[1] * 3) % 11 - 4, itof(ix[1]) / 2.0); }
wide zerof(Index ix) { return mk(0, 0.0); }
wide bump(wide v, Index ix) { return mk(v.k * 2 + ix[1], v.w + 1.0); }
int key(wide v, Index ix) { return v.k + v.h; }
wide unkey(int k, Index ix) { return mk(k - 1, 0.5); }
wide pick(array<wide> src, wide v, Index ix) {
    wide o = array_get_elem(src, ix);
    return mk(o.k + v.k, o.w);
}
wide idt(wide v, Index ix) { return v; }
wide addf(wide a, wide b) { if (a.k < b.k) { return a; } return b; }
wide mulf(wide a, wide b) { return mk(a.k + b.k, a.w * b.w); }
";

const INDEX_DECLS: &str = "
Index initf(Index ix) { return {ix[0] * 2 - ix[1], ix[1]}; }
Index zerof(Index ix) { return {0, 0}; }
Index bump(Index v, Index ix) { return {v[0] * 2 + ix[1], v[1]}; }
int key(Index v, Index ix) { return v[0]; }
Index unkey(int k, Index ix) { return {k - 1, k}; }
Index pick(array<Index> src, Index v, Index ix) {
    Index o = array_get_elem(src, ix);
    return {o[0] + v[0], o[1]};
}
Index idt(Index v, Index ix) { return v; }
Index addf(Index a, Index b) { if (a[0] < b[0]) { return a; } return b; }
Index mulf(Index a, Index b) { return {a[0] + b[0], a[1] * b[1]}; }
";

const FLAVORS: [Flavor; 7] = [
    // unboxed, combiners resolved to direct operations
    Flavor {
        name: "int/sections",
        ty: "int",
        decls: INT_DECLS,
        add: "min",
        mul: "(+)",
        scan: "(*)",
    },
    // unboxed, combiners run as kernels (interpreted or compiled)
    Flavor {
        name: "int/functions",
        ty: "int",
        decls: INT_DECLS,
        add: "addf",
        mul: "mulf",
        scan: "mulf",
    },
    Flavor {
        name: "float/sections",
        ty: "float",
        decls: FLOAT_DECLS,
        add: "fmax",
        mul: "(+)",
        scan: "(+)",
    },
    Flavor {
        name: "float/functions",
        ty: "float",
        decls: FLOAT_DECLS,
        add: "addf",
        mul: "mulf",
        scan: "mulf",
    },
    // a flat struct: its fields' words per element
    Flavor {
        name: "struct",
        ty: "cell",
        decls: STRUCT_DECLS,
        add: "addf",
        mul: "mulf",
        scan: "mulf",
    },
    // boxed stores: a struct of nine fields is one too many to be flat
    Flavor {
        name: "struct/nine fields",
        ty: "wide",
        decls: WIDE_DECLS,
        add: "addf",
        mul: "mulf",
        scan: "mulf",
    },
    Flavor {
        name: "Index",
        ty: "Index",
        decls: INDEX_DECLS,
        add: "addf",
        mul: "mulf",
        scan: "mulf",
    },
];

/// Every array skeleton and both element intrinsics over arrays of
/// `T`, on a 2x2 machine. The row-block arrays are 6 and 7 columns
/// wide: one partition of scalars is 62 resp. 71 bytes on the wire,
/// either side of the 64-byte inline envelope.
const SKELETON_SUITE: &str = "
int zeroi(Index ix) { return 0; }
int addc(int c, int v, Index ix) { return c + v; }
int rot(int r) { return (r + 1) % 4; }

void show(array<T> x) {
    int s = array_fold(key, (+), x);
    if (procId == 0) { print(s); }
}

void main() {
    array<T> a = array_create(2, {4, 4}, {0,0}, {0-1,0-1}, initf, DISTR_TORUS2D);
    array<T> b = array_create(2, {4, 4}, {0,0}, {0-1,0-1}, zerof, DISTR_TORUS2D);
    array<T> c = array_create(2, {4, 4}, {0,0}, {0-1,0-1}, zerof, DISTR_TORUS2D);
    array<int> k = array_create(2, {4, 4}, {0,0}, {0-1,0-1}, zeroi, DISTR_TORUS2D);

    array_map(bump, a, b);
    array_map(bump, b, b);
    array_map(key, b, k);
    array_map(addc(5), k, k);
    array_map(unkey, k, c);
    array_map(pick(a), c, c);
    show(b);
    show(c);

    array_gen_mult(a, b, ADD, MUL, c);
    show(c);
    array_copy(c, a);
    T r = array_fold(idt, ADD, a);
    if (procId == 0) { print(r); }

    array<T> p6 = array_create(2, {4, 6}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);
    array<T> q6 = array_create(2, {4, 6}, {0,0}, {0-1,0-1}, zerof, DISTR_DEFAULT);
    array<T> p7 = array_create(2, {4, 7}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);
    array<T> q7 = array_create(2, {4, 7}, {0,0}, {0-1,0-1}, zerof, DISTR_DEFAULT);
    array_permute_rows(p6, rot, q6);
    array_permute_rows(p7, rot, q7);
    show(q6);
    array_broadcast_part(q6, {2, 0});
    array_broadcast_part(q7, {1, 0});
    show(q7);
    array_scan(SCAN, p6, q6);
    array_scan(SCAN, p7, q7);
    show(q6);
    show(q7);

    Bounds bds = array_part_bounds(q7);
    int row = bds->lowerBd[0];
    array_put_elem(q7, {row, 0}, array_get_elem(p7, {row, 3}));
    print(array_get_elem(q7, {row, 0}));
    show(q7);

    array_destroy(a);
    array_destroy(b);
    array_destroy(c);
    array_destroy(k);
    array_destroy(p6);
    array_destroy(q6);
    array_destroy(p7);
    array_destroy(q7);
}
";

fn skeleton_suite(f: &Flavor) -> String {
    let body = SKELETON_SUITE
        .replace("ADD", f.add)
        .replace("MUL", f.mul)
        .replace("SCAN", f.scan)
        .replace("<T>", &format!("<{}>", f.ty))
        .replace("T r =", &format!("{} r =", f.ty));
    format!("pardata array <$t>;\n{}{}", f.decls, body)
}

#[test]
fn every_skeleton_agrees_on_every_array_representation() {
    let mut machines = square_machines();
    machines.push(("traced", Machine::new(MachineConfig::square(2).unwrap().with_trace())));
    for (host, machine) in &machines {
        for f in &FLAVORS {
            assert_engines_agree(&format!("{} on {host}", f.name), &skeleton_suite(f), machine);
        }
    }
    // which store each flavor's arrays get
    for (flavor, elem) in [(0, "int"), (2, "float"), (4, "flat"), (5, "boxed"), (6, "boxed")] {
        let listing = compile(&skeleton_suite(&FLAVORS[flavor])).unwrap().disassemble_kernel();
        let create = format!("array_create elem={elem} fns=(initf_1+0 ");
        assert!(listing.contains(&create), "{}:\n{listing}", FLAVORS[flavor].name);
    }
}

/// Runtime errors raised inside kernels over unboxed stores: the same
/// processors go down, for the same reason, as under the walker.
#[test]
fn kernel_runtime_errors_over_typed_stores_match_the_walker() {
    let prelude = "pardata array <$t>;
        int initf(Index ix) { return ix[0] - 5; }
        int zerof(Index ix) { return 0; }
        float finit(Index ix) { return itof(ix[0]) - 5.0; }
        int conv(int v, Index ix) { return v; }
        int far(array<int> src, int v, Index ix) { return array_get_elem(src, {ix[0] + 100, 0}); }
        float ffar(array<float> src, float v, Index ix) {
            return array_get_elem(src, {15 - ix[0], 0});
        }
        array<int> ints(int n) {
            return array_create(1, {n, 1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);
        }";
    let cases = [
        // element 5 is 0: the `(/)` section divides by it in the fold's
        // local pass on one processor, in the scan's on another
        ("fold (/)", "void main() { array<int> a = ints(16); print(procId); print(array_fold(conv, (/), a)); }"),
        ("scan (%)", "void main() { array<int> a = ints(16); array<int> b = ints(16); array_scan((%), a, b); print(1); }"),
        (
            "gen_mult (/)",
            "void main() {
               array<int> a = array_create(2, {4,4}, {0,0}, {0-1,0-1}, zerof, DISTR_TORUS2D);
               array<int> b = array_create(2, {4,4}, {0,0}, {0-1,0-1}, zerof, DISTR_TORUS2D);
               array<int> c = array_create(2, {4,4}, {0,0}, {0-1,0-1}, zerof, DISTR_TORUS2D);
               array_gen_mult(a, b, (+), (/), c);
             }",
        ),
        // out of range everywhere
        ("get_elem out of range", "void main() { array<int> a = ints(16); array<int> b = ints(16); array_map(far(a), a, b); }"),
        // in range but another processor's element
        (
            "get_elem non-local",
            "void main() {
               array<float> a = array_create(1, {16,1}, {0,0}, {0-1,0-1}, finit, DISTR_DEFAULT);
               array<float> b = array_create(1, {16,1}, {0,0}, {0-1,0-1}, finit, DISTR_DEFAULT);
               array_map(ffar(a), a, b);
             }",
        ),
    ];
    for (host, machine) in &square_machines() {
        for (name, main) in cases {
            let src = format!("{prelude}\n{main}");
            let compiled = compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let want = compiled
                .try_run_with(Engine::Ast, machine)
                .expect_err("the walker reports a runtime error");
            assert!(
                want.to_string().contains("runtime error"),
                "{name} on {host}: not a Skil runtime error: {want}"
            );
            for level in LEVELS {
                let c = compile_opt(&src, level).unwrap();
                for engine in [Engine::Vm, Engine::Native] {
                    let got = c
                        .try_run_with(engine, machine)
                        .expect_err("every engine reports the runtime error");
                    let at = format!("{name} @ -O{level} under {engine:?} on {host}");
                    assert_eq!(want.aborts, got.aborts, "{at}");
                }
            }
            // the machine survives: a clean program still runs on it
            let ok = compile("void main() { print(procId); }").unwrap().run(machine);
            assert_eq!(ok.results[3], vec!["3".to_string()]);
        }
    }
}

/// What a failed run reports: the structured aborts of a Skil runtime
/// error. `error(n)` is one too — the program's failure, not a panic of
/// the engine's.
fn failure_of(
    c: &skil::lang::Compiled,
    engine: Engine,
    machine: &Machine,
) -> Vec<skil::runtime::SimAbort> {
    c.try_run_with(engine, machine).expect_err("the program fails at run time").aborts
}

/// Runtime errors raised inside `General` argument functions: the typed
/// register tier (`-O1`, `-O2`), the generic loop (`-O0`, and every
/// function that does not lower) and the native engine fail on the same
/// processors with the walker's message. So do the errors the skeleton
/// host raises itself, whichever engine drives it.
#[test]
fn kernel_runtime_errors_match_the_walker_on_every_kernel_tier() {
    let prelude = "pardata array <$t>;
        int initf(Index ix) { return ix[0] - 5; }
        array<int> ints() {
            return array_create(1, {16, 1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);
        }
        void run(int f(int, Index)) {
            array<int> a = ints();
            array<int> b = ints();
            array_map(f, a, b);
        }";
    let cases = [
        // v is 0 at element 5: a loop keeps the kernel `General` and typed
        (
            "division by zero",
            "int k(int v, Index ix) { int s = 0; int i = 0; while (i < 2) { s = s + 100 / v; i = i + 1; } return s; }
             void main() { run(k); }",
            "integer division by zero",
        ),
        (
            "remainder by zero",
            "int k(int v, Index ix) { int m = v - 3; return (ix[0] + 7) % m + m; }
             void main() { run(k); }",
            "integer remainder by zero",
        ),
        // element 5 is 0: a struct-valued fold, typed one register per field
        (
            "remainder by a struct's zero field",
            "struct pr { int a; int b; };
             pr mk(int v, Index ix) { return pr{v, ix[0]}; }
             pr comb(pr x, pr y) { return pr{x.a + y.a, x.b % y.a}; }
             void main() { array<int> a = ints(); pr r = array_fold(mk, comb, a); print(r.b); }",
            "integer remainder by zero",
        ),
        (
            "error(n)",
            "int k(int v, Index ix) { if (v == 9) { error(41); } return v + 1; }
             void main() { run(k); }",
            "program called error(41)",
        ),
        (
            "Index component out of range",
            "int k(int v, Index ix) { int c = ix[0] / 8 + 1; return ix[c] + v; }
             void main() { run(k); }",
            "Index component 2 out of range",
        ),
        (
            "reading the array the skeleton writes",
            "int k(array<int> dst, int v, Index ix) { return array_get_elem(dst, ix) + v; }
             void main() { array<int> a = ints(); array<int> b = ints(); array_map(k(b), a, b); }",
            "use of an array being written by this skeleton",
        ),
        (
            "array_put_elem in a kernel",
            "int k(array<int> dst, int v, Index ix) { array_put_elem(dst, ix, v); return v; }
             void main() { array<int> a = ints(); array<int> b = ints(); array<int> c = ints(); array_map(k(c), a, b); }",
            "array_put_elem inside a skeleton argument function",
        ),
        (
            "print in a kernel",
            "int k(int v, Index ix) { print(v); return v; }
             void main() { run(k); }",
            "print inside a skeleton argument function",
        ),
        (
            "array dim",
            "void main() { array<int> a = array_create(3, {16, 1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT); }",
            "array dim must be 1 or 2",
        ),
        (
            "distribution constant",
            "void main() { array<int> a = array_create(1, {16, 1}, {0,0}, {0-1,0-1}, initf, 7); }",
            "bad distribution constant 7",
        ),
        (
            "array_copy onto itself",
            "void main() { array<int> a = ints(); array_copy(a, a); }",
            "array_copy onto itself",
        ),
        (
            "array_scan onto itself",
            "void main() { array<int> a = ints(); array_scan((+), a, a); }",
            "array_scan onto itself",
        ),
        (
            "array_gen_mult onto an operand",
            "int zero(Index ix) { return 0; }
             void main() {
                 array<int> a = array_create(2, {4, 4}, {0,0}, {0-1,0-1}, zero, DISTR_TORUS2D);
                 array<int> b = array_create(2, {4, 4}, {0,0}, {0-1,0-1}, zero, DISTR_TORUS2D);
                 array_gen_mult(a, b, (+), (*), a);
             }",
            "array_gen_mult requires distinct arrays",
        ),
        (
            "negative permuted row",
            "int up(int r) { return r - 1; }
             int zero(Index ix) { return 0; }
             void main() {
                 array<int> a = array_create(2, {4, 4}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);
                 array<int> b = array_create(2, {4, 4}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);
                 array_permute_rows(a, up, b);
             }",
            "negative permuted row -1",
        ),
        (
            "use after destroy",
            "int inc(int v, Index ix) { return v + 1; }
             void main() { array<int> a = ints(); array<int> b = ints(); array_destroy(a); array_map(inc, a, b); }",
            "use of an array being written by this skeleton or already destroyed",
        ),
    ];
    // every one is a Skil runtime error: the machine survives them all
    for (host, machine) in &square_machines() {
        for (name, body, message) in cases {
            let src = format!("{prelude}\n{body}");
            let compiled = compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let want = failure_of(&compiled, Engine::Ast, machine);
            let text = format!("{want:?}");
            assert!(text.contains(message), "{name} on {host}: the walker reports `{text}`");
            for level in LEVELS {
                let c = compile_opt(&src, level).unwrap();
                for engine in [Engine::Vm, Engine::Native] {
                    let got = failure_of(&c, engine, machine);
                    assert_eq!(want, got, "{name} @ -O{level} under {engine:?} on {host}");
                }
            }
        }
    }
}

/// Integer negation, `abs`, and division and remainder by -1 wrap on the
/// minimum, like every other integer operator, at run time and in the
/// constant folder alike.
#[test]
fn negation_and_abs_of_the_minimum_wrap_under_every_engine() {
    // `procId - procId` keeps `z` out of the constant folder's reach
    let src = "int neg(int v, Index ix) { int z = 0 - v - 1; int i = 0; while (i < 1) { z = -z; i = i + 1; } return z; }
        int quot(int v, Index ix) { int d = 0 - 1; int q = 0; int i = 0; while (i < 1) { q = v / d + v % d; i = i + 1; } return q; }
        int big(Index ix) { return int_max * 4 + 3; }
        int conv(int v, Index ix) { return abs(v); }
        int same(int v, Index ix) { return v; }
        int first(int a, int b) { return a; }
        void main() {
            int m = int_max * 4 + 3;
            int z = 0 - m - 1 + (procId - procId);
            print(-z);
            print(abs(z));
            print(-(0 - m - 1));
            print(z / (0 - 1));
            print(z % (0 - 1));
            print((0 - m - 1) / (0 - 1));
            print((0 - m - 1) % (0 - 1));
            array<int> a = array_create(1, {4, 1}, {0,0}, {0-1,0-1}, big, DISTR_DEFAULT);
            array_map(neg, a, a);
            print(array_fold(conv, first, a));
            array_map(quot, a, a);
            print(array_fold(same, first, a));
        }";
    let min = i64::MIN.to_string();
    let want = [&min, &min, &min, &min, "0", &min, "0", &min, &min];
    for (host, machine) in &square_machines() {
        assert_engines_agree(&format!("i64::MIN on {host}"), src, machine);
        assert_eq!(compile(src).unwrap().run(machine).results[0], want, "{host}");
    }
}

/// A NaN fails every ordered comparison and its own equality, so
/// "jump unless `a < b`" is not "jump if `a >= b`": each float
/// comparison in branch position, in both polarities, on a NaN operand.
#[test]
fn nan_comparisons_branch_the_same_way_under_every_engine() {
    let src = "int k(float v, Index ix) {
            float z = v - v;
            float nan = z / z;
            int n = 0;
            if (nan < v) { n = n + 1; }
            if (nan <= v) { n = n + 2; }
            if (nan > v) { n = n + 4; }
            if (nan >= v) { n = n + 8; }
            if (nan == nan) { n = n + 16; }
            if (nan != nan) { n = n + 32; }
            if (v < nan || v <= nan || v > nan || v >= nan || v == nan) { n = n + 64; }
            if (v != nan || n < 0) { n = n + 128; }
            return n;
        }
        float ones(Index ix) { return itof(ix[0] + 1); }
        int zero(Index ix) { return 0; }
        int conv(int v, Index ix) { return v; }
        void main() {
            array<float> a = array_create(1, {8, 1}, {0,0}, {0-1,0-1}, ones, DISTR_DEFAULT);
            array<int> b = array_create(1, {8, 1}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);
            array_map(k, a, b);
            print(array_fold(conv, max, b));
        }";
    for (host, machine) in &square_machines() {
        assert_engines_agree(&format!("nan on {host}"), src, machine);
        let run = compile(src).unwrap().run(machine);
        assert_eq!(run.results[0], vec!["160".to_string()], "{host}");
    }
}

/// Structs of scalars in typed argument functions, one register per
/// field: as element, lifted argument, local, result, across a join, and
/// rebuilt from their own fields in another order. Structs of more than
/// scalars stay on the generic loop. Either way the walker's output.
#[test]
fn struct_kernels_agree_on_both_kernel_tiers() {
    let src = "pardata array <$t>;
        struct rec { float val; int row; int col; };
        struct wide { int a; int b; int c; int d; int e; int f; int g; int h; int i; };
        struct nest { rec r; int n; };
        rec mk(float v, Index ix) { return rec{v, ix[0], ix[1]}; }
        float init(Index ix) { return itof((ix[0] * 5 + ix[1] * 3) % 7) - 2.5; }
        rec best(int k, rec a, rec b) {
            int a_in = a.col == k && a.row >= k;
            int b_in = b.col == k && b.row >= k;
            if (a_in && !b_in) { return a; }
            if (b_in && !a_in) { return b; }
            if (fabs(b.val) > fabs(a.val)) { return b; }
            return a;
        }
        rec turn(rec bias, rec a, rec b) {
            rec t = rec{itof(a.col), b.row, a.row};
            if (a.val < b.val) { t = rec{t.val + bias.val, t.col, t.row}; } else { t = b; }
            a = rec{t.val - a.val, a.col + bias.row, t.row};
            int i = 0;
            while (i < 3) { a = rec{a.val * 0.5, a.col, a.row + i}; i = i + 1; }
            return a;
        }
        int rowof(rec r, Index ix) { return r.row * 100 + r.col; }
        wide mkw(float v, Index ix) { return wide{ix[0], ix[1], 1, 2, 3, 4, 5, 6, 7}; }
        wide addw(wide x, wide y) { return wide{x.a + y.a, x.b + y.b, 1, 2, 3, 4, 5, 6, x.i + y.i}; }
        nest mkn(float v, Index ix) { return nest{rec{v, ix[0], ix[1]}, 1}; }
        nest addn(nest x, nest y) { return nest{x.r, x.n + y.n}; }
        void main() {
            array<float> a = array_create(2, {8, 6}, {0,0}, {0-1,0-1}, init, DISTR_DEFAULT);
            int k;
            for (k = 0; k < 3; k = k + 1) {
                rec e = array_fold(mk, best(k), a);
                if (procId == 0) { print(e.val); print(e.row); print(e.col); }
            }
            rec t = array_fold(mk, turn(rec{0.25, 2, 0 - 1}), a);
            wide w = array_fold(mkw, addw, a);
            nest n = array_fold(mkn, addn, a);
            if (procId == 0) { print(t); print(w.a + w.b + w.i); print(n.n); print(n.r.val); }
        }";
    for (host, machine) in &square_machines() {
        assert_engines_agree(&format!("struct kernels on {host}"), src, machine);
    }
    let listing = compile_opt(src, OptLevel::O2).unwrap().disassemble_kernel();
    for typed in ["mk_1", "best_1", "turn_1"] {
        assert!(listing.contains(&format!("fn {typed} [typed]")), "{typed}:\n{listing}");
    }
    for generic in ["mkw_1+0", "addw_1+0", "mkn_1+0", "addn_1+0"] {
        assert!(listing.contains(&format!("{generic} [generic: ")), "{generic}:\n{listing}");
    }
    // a flat fold result crosses as words; nine fields and a nested
    // struct stay boxed
    assert_eq!(listing.matches("array_fold elem=float ret=flat ").count(), 2, "{listing}");
    assert_eq!(listing.matches("array_fold elem=float ret=boxed ").count(), 2, "{listing}");
}

/// Struct-valued folds over every store: an `array<int>`, an
/// `array<float>` and an array of flat structs, whose elements are also
/// mapped, copied, read and printed.
#[test]
fn flat_struct_folds_and_arrays_agree_over_every_store() {
    let src = "pardata array <$t>;
        struct pt { int x; float y; int z; };
        int ints(Index ix) { return (ix[0] * 5 + ix[1]) % 9 - 3; }
        float floats(Index ix) { return itof(ix[0] * 3 - ix[1]) / 4.0; }
        pt pts(Index ix) { return pt{ix[0] - 2, itof(ix[1]) * 0.5, ix[0] * ix[1]}; }
        pt of_int(int v, Index ix) { return pt{v, itof(ix[0]), ix[1]}; }
        pt of_float(float v, Index ix) { return pt{ix[0], v, ix[1]}; }
        pt of_pt(pt v, Index ix) { return pt{v.z, v.y + itof(ix[1]), v.x}; }
        pt mix(int bias, pt a, pt b) {
            if (a.x + bias < b.x) { return pt{b.x, a.y - b.y, a.z + b.z}; }
            return pt{a.x - 1, b.y * 0.5 + a.y, b.z - a.z};
        }
        pt shift(pt d, pt v, Index ix) { return pt{v.x + d.x, v.y * d.y, v.z + ix[0]}; }
        int zkey(pt v, Index ix) { return v.z * 3 + v.x; }
        void main() {
            array<int> a = array_create(2, {4, 6}, {0,0}, {0-1,0-1}, ints, DISTR_DEFAULT);
            array<float> b = array_create(2, {4, 6}, {0,0}, {0-1,0-1}, floats, DISTR_DEFAULT);
            array<pt> c = array_create(2, {4, 6}, {0,0}, {0-1,0-1}, pts, DISTR_DEFAULT);
            array<pt> d = array_create(2, {4, 6}, {0,0}, {0-1,0-1}, pts, DISTR_DEFAULT);
            print(array_fold(of_int, mix(1), a));
            print(array_fold(of_float, mix(0 - 2), b));
            print(array_fold(of_pt, mix(0), c));
            array_map(shift(pt{2, 0.5, 0}), c, d);
            array_map(shift(pt{0 - 1, 2.0, 1}), d, d);
            print(array_fold(of_pt, mix(3), d));
            print(array_fold(zkey, (+), d));
            array_copy(d, c);
            array_broadcast_part(c, {1, 0});
            Bounds bds = array_part_bounds(c);
            pt first = array_get_elem(c, bds->lowerBd);
            print(first);
            print(first.y);
            array_put_elem(c, bds->lowerBd, pt{7, 7.5, 7});
            print(array_fold(of_pt, mix(0), c));
        }";
    for (host, machine) in &square_machines() {
        assert_engines_agree(&format!("flat structs on {host}"), src, machine);
    }
    let listing = compile(src).unwrap().disassemble_kernel();
    for site in [
        "array_create elem=flat fns=(pts_1+0 [typed])",
        "array_fold elem=int ret=flat fns=(of_int_1+0 [typed], mix_1+1 [typed])",
        "array_fold elem=float ret=flat fns=(of_float_1+0 [typed], mix_1+1 [typed])",
        "array_fold elem=flat ret=flat fns=(of_pt_1+0 [typed], mix_1+1 [typed])",
        "array_map elem=flat fns=(shift_1+1 [typed])",
        "array_fold elem=flat ret=int fns=(zkey_1+0 [typed], op_add_int_1+0 [direct(+)])",
    ] {
        assert!(listing.contains(site), "{site}:\n{listing}");
    }
}

/// `Bounds` in typed argument functions — four registers, each field an
/// `Index` in place: from `array_part_bounds` inside the function, as a
/// local, and as a lifted argument.
#[test]
fn bounds_fields_in_kernels_agree_on_both_kernel_tiers() {
    let src = "pardata array <$t>;
        float init(Index ix) { return itof(ix[0] * 4 + ix[1]); }
        float edge(array<float> a, float v, Index ix) {
            Bounds bds = array_part_bounds(a);
            Index lo = bds->lowerBd;
            if (ix[0] == lo[0] || ix[1] + 1 == bds->upperBd[1]) { return 0.0 - v; }
            return v + itof(bds->upperBd[0] * 10 + lo[1]);
        }
        int span(Bounds b, float v, Index ix) {
            int c = 1;
            return (b->upperBd[0] - b->lowerBd[0]) * 100 + b->upperBd[c] - b->lowerBd[c] + ftoi(v);
        }
        int zero(Index ix) { return 0; }
        int idt(int v, Index ix) { return v; }
        float fidt(float v, Index ix) { return v; }
        void main() {
            array<float> a = array_create(2, {8, 4}, {0,0}, {0-1,0-1}, init, DISTR_DEFAULT);
            array<float> b = array_create(2, {8, 4}, {0,0}, {0-1,0-1}, init, DISTR_DEFAULT);
            array<int> n = array_create(2, {8, 4}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);
            array_map(edge(a), a, b);
            print(array_fold(fidt, (+), b));
            array_map(span(array_part_bounds(b)), b, n);
            print(array_fold(idt, (+), n));
            print(array_fold(idt, max, n));
        }";
    for (host, machine) in &square_machines() {
        assert_engines_agree(&format!("Bounds in kernels on {host}"), src, machine);
    }
    let listing = compile(src).unwrap().disassemble_kernel();
    for typed in ["edge_1+1 [typed]", "span_1+1 [typed]"] {
        assert!(listing.contains(typed), "{typed}:\n{listing}");
    }
    assert!(listing.contains("partbounds "), "{listing}");
}

/// A function that needs more registers than a frame window has stays
/// on the generic loop, with the walker's output.
#[test]
fn a_function_past_the_register_window_stays_generic() {
    // 300 distinct constants are 300 registers
    let steps: String =
        (0..300).map(|i| format!("s = (s + {}) * 3 % 65521;\n", 1000 + i)).collect();
    let src = format!(
        "int big(int v, Index ix) {{ int s = v + ix[0]; {steps} return s; }}
         int small(int v, Index ix) {{ int s = v; int i = 0; while (i < 3) {{ s = s * 5 % 8; i = i + 1; }} return s; }}
         int init(Index ix) {{ return ix[0] * 17 - 40; }}
         int idt(int v, Index ix) {{ return v; }}
         void main() {{
             array<int> a = array_create(1, {{16, 1}}, {{0,0}}, {{0-1,0-1}}, init, DISTR_DEFAULT);
             array_map(big, a, a);
             print(array_fold(idt, (+), a));
             array_map(small, a, a);
             print(array_fold(idt, (+), a));
         }}"
    );
    for (host, machine) in &square_machines() {
        assert_vm_agrees(&format!("past the window on {host}"), &src, machine);
    }
    let listing = compile(&src).unwrap().disassemble_kernel();
    assert!(
        listing.contains("big_1+0 [generic: needs more registers than a frame window has]"),
        "{listing}"
    );
    assert!(listing.contains("small_1+0 [typed]"), "{listing}");
}

/// What the direct-operator programs below share: non-zero `int`
/// arrays that no operator's result turns into a zero divisor (`idiv`
/// and `irem` are 16 elements whose partition results under `/` resp.
/// `%` are 100, 37, 23 and 7, which divide in any order a reduction or
/// a scan composes them), and a `float` one with a NaN, an infinity and
/// a negative zero in it.
const DIRECT_DECLS: &str = "pardata array <$t>;
    int ia(Index ix) { int v = 15 + (ix[0] * 5 + ix[1] * 3) % 6; if ((ix[0] + ix[1]) % 3 == 1) { return 0 - v; } return v; }
    int ib(Index ix) { int k = (ix[0] + ix[1] * 2) % 5; if (k == 0) { return 7; } if (k == 1) { return 0 - 11; } if (k == 2) { return 13; } if (k == 3) { return 0 - 7; } return 11; }
    int ic(Index ix) { return ix[0] * 3 - ix[1] * 5 + 1; }
    int part(int p) { if (p == 0) { return 100; } if (p == 1) { return 37; } if (p == 2) { return 23; } return 7; }
    int idiv(Index ix) { if (ix[0] % 4 == 0) { return part(ix[0] / 4) * 6; } return ix[0] % 4; }
    int irem(Index ix) { if (ix[0] % 4 == 0) { return part(ix[0] / 4); } return ix[0] % 4 * 1000; }
    float fa(Index ix) {
        float z = 0.0;
        if (ix[0] == 1 && ix[1] == 0) { return z / z; }
        if (ix[0] == 0 && ix[1] == 1) { return 1.0 / z; }
        if (ix[0] == 1 && ix[1] == 1) { return 0.0 - z; }
        return itof((ix[0] * 7 + ix[1] * 3) % 11 - 4) / 2.0;
    }
    float fb(Index ix) { return itof((ix[0] * 3 + ix[1] * 5) % 7) - 2.5; }
    float fc(Index ix) { return itof(ix[0] - ix[1]) * 0.25; }
    int land(int a, int b) { return a && b; }
    int lor(int a, int b) { return a || b; }
    int ikeep(int v, Index ix) { return v; }
    float fkeep(float v, Index ix) { return v; }
    void ishow(array<int> x) {
        Bounds b = array_part_bounds(x);
        int i; int j;
        for (i = b->lowerBd[0]; i < b->upperBd[0]; i = i + 1) {
            for (j = b->lowerBd[1]; j < b->upperBd[1]; j = j + 1) { print(array_get_elem(x, {i, j})); }
        }
    }
    void fshow(array<float> x) {
        Bounds b = array_part_bounds(x);
        int i; int j;
        for (i = b->lowerBd[0]; i < b->upperBd[0]; i = i + 1) {
            for (j = b->lowerBd[1]; j < b->upperBd[1]; j = j + 1) { print(array_get_elem(x, {i, j})); }
        }
    }";

const INT_SECTIONS: [&str; 15] = [
    "(+)", "(-)", "(*)", "(/)", "(%)", "(==)", "(!=)", "(<)", "(<=)", "(>)", "(>=)", "land", "lor",
    "min", "max",
];
const FLOAT_SECTIONS: [&str; 7] = ["(+)", "(-)", "(*)", "(/)", "(%)", "fmin", "fmax"];

/// Every operator a fold or a scan resolves to a direct operation, over
/// `int` and `float` elements — the ones that are neither associative
/// nor commutative (`-`, `/`, `%`) and NaN operands included — against
/// the walker at every level.
#[test]
fn every_direct_operator_folds_and_scans_like_the_walker() {
    let mut main = String::new();
    for (ty, init, keep, show, ops) in [
        ("int", "ia", "ikeep", "ishow", &INT_SECTIONS[..]),
        ("float", "fa", "fkeep", "fshow", &FLOAT_SECTIONS[..]),
    ] {
        main += &format!(
            "array<{ty}> {ty}t = array_create(1, {{16, 1}}, {{0,0}}, {{0-1,0-1}}, {init}, DISTR_DEFAULT);\n"
        );
        for (k, op) in ops.iter().enumerate() {
            let init = match (ty, *op) {
                ("int", "(/)") => "idiv",
                ("int", "(%)") => "irem",
                _ => init,
            };
            main += &format!(
                "array<{ty}> {ty}s{k} = array_create(1, {{16, 1}}, {{0,0}}, {{0-1,0-1}}, {init}, DISTR_DEFAULT);
                 print(array_fold({keep}, {op}, {ty}s{k})); array_scan({op}, {ty}s{k}, {ty}t); {show}({ty}t);\n"
            );
        }
    }
    let src = format!("{DIRECT_DECLS}\nvoid main() {{ {main} }}");
    for (host, machine) in &square_machines() {
        assert_vm_agrees(&format!("direct folds and scans on {host}"), &src, machine);
    }
    let listing = compile(&src).unwrap().disassemble_kernel();
    for direct in ["[direct(-)]", "[direct(%)]", "[direct(<=)]", "[direct(||)]", "[direct(min)]"] {
        assert!(listing.contains(direct), "{direct}:\n{listing}");
    }
}

/// `array_gen_mult` over every pair of direct operators — the semiring
/// pairs over `+ * min max`, whose block pass is monomorphic, and every
/// other one — on blocks of 1, 2, 7 and 8 columns, against the walker
/// at every level: the row-major pass composes each element in the
/// order the walker's does, whatever the operators.
#[test]
fn every_direct_operator_pair_multiplies_like_the_walker() {
    let machines = square_machines();
    let mut rotation = machines.iter().cycle();
    for (ty, inits, show, ops) in [
        ("int", ["ia", "ib", "ic"], "ishow", &["(+)", "(-)", "(*)", "(/)", "(%)", "min", "max"]),
        ("float", ["fa", "fb", "fc"], "fshow", &FLOAT_SECTIONS),
    ] {
        for n in [2, 4, 14, 16] {
            let mut main = String::new();
            for (name, init) in ["a", "b", "c"].iter().zip(inits) {
                main += &format!(
                    "array<{ty}> {name} = array_create(2, {{{n}, {n}}}, {{0,0}}, {{0-1,0-1}}, {init}, DISTR_TORUS2D);\n"
                );
            }
            for add in ops {
                for mul in ops {
                    main += &format!("array_gen_mult(a, b, {add}, {mul}, c); {show}(c);\n");
                }
            }
            let src = format!("{DIRECT_DECLS}\nvoid main() {{ {main} }}");
            let (host, machine) = rotation.next().expect("an endless rotation");
            assert_vm_agrees(&format!("gen_mult over {ty}, n={n} on {host}"), &src, machine);
        }
    }
}

// ---------------------------------------------------------------------
// Random first-order programs.
// ---------------------------------------------------------------------

#[path = "support/program_gen.rs"]
mod program_gen;
use program_gen::Gen;

/// 200 generated kernel-heavy programs — float locals and loops in
/// argument functions, partial applications that lift array handles,
/// `array_get_elem` reads — under the walker and the VM at every opt
/// level: `-O0` runs every kernel on the generic loop, `-O1`/`-O2` on
/// the typed register tier wherever it lowers.
#[test]
fn generated_kernels_agree_on_both_kernel_tiers() {
    let machines = square_machines();
    for seed in 0..200u64 {
        let (host, machine) = &machines[seed as usize % machines.len()];
        let dna = program_gen::dna(seed);
        let src = Gen { dna: &dna, pos: 0 }.kernel_program();
        let compiled = compile(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: generated program rejected: {e}\n{src}"));
        let ast = compiled.run_with(Engine::Ast, machine);
        for level in LEVELS {
            let vm = compile_opt(&src, level).unwrap().run_with(Engine::Vm, machine);
            assert_eq!(
                ast.results, vm.results,
                "seed {seed} @ -O{level} on {host}: output differs for:\n{src}"
            );
            assert_eq!(
                fingerprint(&ast.report),
                fingerprint(&vm.report),
                "seed {seed} @ -O{level} on {host}: stats differ for:\n{src}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random arithmetic/control-flow/skeleton programs: every engine ×
    /// opt level prints the same values and charges the same cycles,
    /// processor by processor, on a host configuration the program's
    /// length picks.
    #[test]
    fn random_programs_agree_across_engines(
        dna in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let src = Gen { dna: &dna, pos: 0 }.program();
        let compiled = compile(&src).unwrap_or_else(|e| panic!("generated program rejected: {e}\n{src}"));
        let (host, cfg) = hosts::host(dna.len(), MachineConfig::square(2).unwrap());
        let machine = Machine::new(cfg);
        let ast = compiled.run_with(Engine::Ast, &machine);
        for level in LEVELS {
            let c = compile_opt(&src, level)
                .unwrap_or_else(|e| panic!("generated program rejected at -O{level}: {e}\n{src}"));
            let vm = c.run_with(Engine::Vm, &machine);
            prop_assert_eq!(&ast.results, &vm.results, "output differs at -O{} on {} for:\n{}", level, host, src);
            prop_assert_eq!(
                ast.report.sim_cycles,
                vm.report.sim_cycles,
                "virtual time differs at -O{} on {} for:\n{}",
                level,
                host,
                src
            );
            prop_assert_eq!(
                fingerprint(&ast.report),
                fingerprint(&vm.report),
                "stats differ at -O{} on {} for:\n{}",
                level,
                host,
                src
            );
        }
        // the native engine once per case (each random program is a
        // fresh `rustc` invocation; one opt level keeps the suite fast)
        let native = compiled.run_with(Engine::Native, &machine);
        prop_assert_eq!(&ast.results, &native.results, "native output differs on {} for:\n{}", host, src);
        prop_assert_eq!(
            ast.report.sim_cycles,
            native.report.sim_cycles,
            "native virtual time differs on {} for:\n{}",
            host,
            src
        );
        prop_assert_eq!(
            fingerprint(&ast.report),
            fingerprint(&native.report),
            "native stats differ on {} for:\n{}",
            host,
            src
        );
    }
}
