//! Differential tests of the Skil execution engines, and the pinned
//! digests of the examples.
//!
//! The bytecode VM at every opt level, and the native engine, must
//! observe what the AST walker observes (`support/invariant.rs`): on
//! every shipped example, on every skeleton over every array
//! representation, on operator, struct and `Bounds` kernels, on the
//! runtime errors of kernels and of the skeleton host, and on randomly
//! generated first-order programs. The fixed suites run on each host
//! configuration of `support/hosts.rs`; the examples and the generated
//! programs rotate through them. On hosts without a working `rustc` the
//! native engine degrades to the VM, so the check never spuriously
//! fails.
//!
//! The walker keeps every array as `DistArray<Value>`; the VM host
//! stores `array<int>` / `array<float>` unboxed and arrays of flat
//! structs as their fields' words. Equal `DataPlaneStats` on one host
//! (the inline/heap envelope split) and equal bytes per processor are
//! what show the representations are the same on the wire.
//!
//! `tests/fixtures/digests.txt` pins the digest of every example on a
//! 2x2 mesh, and of `shortest_paths` and `gauss` on each 16-processor
//! topology of the zoo, so a change to virtual time is a reviewed diff
//! of it;
//! `cargo test --test lang_engines -- --ignored` writes it.

use proptest::prelude::*;
use skil::lang::{compile, compile_opt, OptLevel};
use skil::runtime::{AbortCause, Machine, MachineConfig, SchedulerKind, Topology};

#[path = "support/invariant.rs"]
mod invariant;
#[path = "support/program_gen.rs"]
mod program_gen;
#[path = "support/programs.rs"]
mod programs;

use invariant::{assert_same, configs, machines, Observed, Row};
use program_gen::Gen;
use programs::{digest_line, levels, run, Axis, ALL_LEVELS, ENGINES, VM_LEVELS};

/// What `src` observes, the same under every axis value on every
/// machine.
fn assert_agree(name: &str, src: &str, axes: &[Axis], machines: &[(&str, Machine)]) -> Observed {
    let row = [Row::new(name, levels(name, src))];
    assert_same(&row, &configs(axes, machines), run).remove(0)
}

/// All four host configurations of a 2x2 mesh.
fn square_machines() -> Vec<(&'static str, Machine)> {
    machines(MachineConfig::square(2).unwrap())
}

/// Every example under every engine and opt level on one host
/// configuration of `cfg`, the `k`th example on host `k + shift`; what
/// each observed.
fn examples_agree(cfg: MachineConfig, shift: usize) -> Vec<(String, Observed)> {
    let machines = machines(cfg);
    let examples = programs::examples().into_iter().enumerate();
    examples
        .map(|(k, (name, src))| {
            let host = (k + shift) % machines.len();
            let seen = assert_agree(&name, &src, &ALL_LEVELS, &machines[host..=host]);
            (name.trim_end_matches(".skil").to_string(), seen)
        })
        .collect()
}

/// The fixture's lines for the examples on 2x2.
fn example_digests() -> Vec<String> {
    examples_agree(MachineConfig::square(2).unwrap(), 0)
        .into_iter()
        .map(|(name, seen)| digest_line(&name, "mesh2d:2x2", seen.digest()))
        .collect()
}

/// The fixture's lines for `shortest_paths` and `gauss` on every
/// 16-processor topology of the zoo: `vm` on both schedulers, `ast`
/// and `native` joining on the mesh. Output is the same on every
/// topology of a program; the rest on each topology.
fn topology_digests() -> Vec<String> {
    let rows = ["shortest_paths", "gauss"]
        .map(|name| Row::new(name, levels(name, &programs::example(&format!("{name}.skil")))));
    let mut outputs: [Option<Vec<String>>; 2] = [None, None];
    let mut lines = Vec::new();
    for spec in ["mesh2d:4x4", "hypercube:16", "fattree:2,4", "hetero:mesh2d:4x4:slowlinks=col2*64"]
    {
        let axes = if spec == "mesh2d:4x4" { &ENGINES[..] } else { &ENGINES[1..2] };
        let cfg = MachineConfig::on_topology(Topology::parse(spec).unwrap()).unwrap();
        let machines = [SchedulerKind::Event, SchedulerKind::Threads]
            .map(|kind| (format!("{kind:?}"), Machine::new(cfg.clone().with_scheduler(kind))));
        let seen = assert_same(&rows, &configs(axes, &machines), run);
        for ((row, seen), output) in rows.iter().zip(seen).zip(&mut outputs) {
            let printed: Vec<String> = seen.procs().iter().map(|p| p.output.clone()).collect();
            let at = format!("{} on {spec}", row.name);
            assert_eq!(&printed, output.get_or_insert_with(|| printed.clone()), "{at}: output");
            lines.push(digest_line(&row.name, spec, seen.digest()));
        }
    }
    lines
}

#[test]
fn every_example_is_bit_identical_across_engines() {
    programs::assert_pinned(&example_digests());
}

#[test]
fn topology_scheduler_matrix() {
    programs::assert_pinned(&topology_digests());
}

#[test]
#[ignore = "writes the fixture; run it at the commit whose virtual time is the reference"]
fn write_digests() {
    let lines = [example_digests(), topology_digests()].concat();
    std::fs::write(programs::DIGESTS, lines.join("\n") + "\n").expect("fixture written");
}

#[test]
fn engines_agree_with_tracing_on() {
    examples_agree(MachineConfig::square(2).unwrap().with_trace(), 1);
}

#[test]
fn engines_agree_on_non_square_meshes() {
    // farm/d&c/scan workloads on a machine shape the goldens don't cover
    let machines = machines(MachineConfig::mesh(1, 3).unwrap());
    for (k, (name, src)) in programs::examples().into_iter().enumerate() {
        if name == "gauss.skil" || name == "shortest_paths.skil" {
            // gauss needs sizes divisible by the machine size;
            // shortest_paths' gen_mult needs a square process grid
            continue;
        }
        let host = (k + 2) % machines.len();
        assert_agree(&name, &src, &ALL_LEVELS, &machines[host..=host]);
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
    let rows = FLAVORS.map(|f| Row::new(f.name, levels(f.name, &skeleton_suite(&f))));
    assert_same(&rows, &configs(&ALL_LEVELS, &machines), run);
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
    let machines = square_machines();
    let rows =
        cases.map(|(name, main)| Row::new(name, levels(name, &format!("{prelude}\n{main}"))));
    for (row, seen) in rows.iter().zip(assert_same(&rows, &configs(&ALL_LEVELS, &machines), run)) {
        runtime_error(&row.name, &seen);
    }
    // the machines survive: a clean program still runs on each
    for (host, machine) in &machines {
        let ok = compile("void main() { print(procId); }").unwrap().run(machine);
        assert_eq!(ok.results[3], vec!["3".to_string()], "{host}");
    }
}

/// What a failed run reports first: a Skil runtime error, the root of
/// the structured aborts. `error(n)` is one too — the program's failure,
/// not a panic of the engine's.
fn runtime_error(name: &str, seen: &Observed) -> String {
    let Observed::Failed(aborts) = seen else { panic!("{name}: the program ran") };
    match aborts.iter().map(|a| &a.cause).find(|c| !matches!(c, AbortCause::PeerDown { .. })) {
        Some(AbortCause::RuntimeError { what }) => what.clone(),
        root => panic!("{name}: not a Skil runtime error: {root:?}"),
    }
}

/// Runtime errors raised inside `General` argument functions: the typed
/// register tier (`-O2`), the generic loop (`-O0`, and every
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
    let rows =
        cases.map(|(name, body, _)| Row::new(name, levels(name, &format!("{prelude}\n{body}"))));
    let seen = assert_same(&rows, &configs(&ALL_LEVELS, &square_machines()), run);
    for ((name, _, message), seen) in cases.iter().zip(seen) {
        runtime_error(name, &seen);
        let text = format!("{seen:?}");
        assert!(text.contains(message), "{name}: the walker reports `{text}`");
    }
}

/// Typed list code where ownership and inference are easy to get wrong:
/// a copy kept while the original shrinks in place, an element type
/// learned only on one path, a list of lists taken apart and rebuilt, a
/// parameter drained in place and returned, one never read. The walker's
/// output at both opt levels, every function typed.
#[test]
fn list_kernel_edge_cases_agree_on_both_kernel_tiers() {
    let src = "
        // aliasing: a copy keeps the old list while the original shrinks in place
        list<int> alias(list<int> p) {
            list<int> a = p;
            list<int> b = a;
            a = tail(a);
            a = cons(len(b), a);
            b = cons(head(a), b);
            return append(a, b);
        }
        // a list's element type learned late: nil() on one path, ints on the other
        list<int> late(int t) {
            list<int> l = nil();
            if (t % 2 == 0) { l = cons(t, l); }
            list<int> m = l;
            while (len(m) < 3) { m = cons(len(m) * t, m); }
            return append(m, l);
        }
        // the element of a list of lists taken apart and rebuilt, in place
        list< list<int> > nest(int t) {
            list< list<int> > out = nil();
            int i = 0;
            while (i < abs(t) % 4 + 2) {
                out = cons(cons(i, nil()), out);
                i = i + 1;
            }
            list<int> first = head(out);
            out = tail(out);
            out = cons(cons(len(first) + t, first), out);
            return cons(nil(), out);
        }
        // a parameter list consumed in place and returned
        list<int> drain(list<int> p) {
            while (len(p) > 1) { p = tail(p); }
            return p;
        }
        // a list parameter that is never read
        int unused(list<float> p, int t) { return t * 2; }
        float fsum(list<float> p) {
            float s = 0.0;
            list<float> q = p;
            while (len(q) > 0) { s = s + head(q) * itof(len(q)); q = tail(q); }
            return s + itof(len(p));
        }
        void main() {
            list<int> ints = nil();
            list< list<int> > lists = nil();
            list< list<float> > floats = nil();
            list<float> fl = nil();
            int i;
            for (i = 0; i < 6; i = i + 1) {
                ints = cons(i * 7 - 3, ints);
                lists = cons(ints, lists);
                fl = cons(itof(i) * 0.5, fl);
                floats = cons(fl, floats);
            }
            list< list<int> > r0 = farm(alias, lists);
            list< list<int> > r1 = farm(late, ints);
            list< list< list<int> > > r2 = farm(nest, ints);
            list< list<int> > r3 = farm(drain, lists);
            list<int> r4 = farm(unused(fl), ints);
            list<float> r5 = farm(fsum, floats);
            if (procId == 0) { print(r0); print(r1); print(r2); print(r3); print(r4); print(r5); }
        }";
    assert_agree("list edge cases", src, &VM_LEVELS, &square_machines());
    let listing = compile_opt(src, OptLevel::O2).unwrap().disassemble_kernel();
    for f in ["alias", "late", "nest", "drain", "unused", "fsum"] {
        assert!(listing.contains(&format!("fn {f}_1 [typed]")), "{f}:\n{listing}");
    }
}

/// Runtime errors raised inside typed list argument functions of a `dc`
/// — `head` and `tail` of an empty list, in place or not, and
/// `error(n)` — fail on the processors, at the cycles and with the
/// message of the walker and the generic loop.
#[test]
fn list_kernel_runtime_errors_match_the_walker_on_both_kernel_tiers() {
    let dc = |triv: &str, solve: &str, split: &str| {
        format!(
            "{triv}
            {solve}
            {split}
            list<int> join(list< list<int> > parts) {{
                list<int> out = nil();
                while (len(parts) > 0) {{ out = append(out, head(parts)); parts = tail(parts); }}
                return out;
            }}
            void main() {{
                list<int> l = nil();
                int i;
                for (i = 0; i < 12; i = i + 1) {{ l = cons((i * 7) % 11, l); }}
                list<int> r = dc(triv, solve, split, join, l);
                if (procId == 0) {{ print(r); }}
            }}"
        )
    };
    let triv = "int triv(list<int> p) { return len(p) <= 1; }";
    let solve = "list<int> solve(list<int> p) { return p; }";
    let split = "list< list<int> > split(list<int> p) {
            list<int> a = nil();
            list<int> b = nil();
            while (len(p) > 0) { a = cons(head(p), a); p = tail(p); b = cons(len(a), b); }
            return cons(tail(a), cons(b, nil()));
        }";
    let cases = [
        (
            "head of nil()",
            dc(
                triv,
                "list<int> solve(list<int> p) {
                    list<int> e = nil();
                    if (len(p) > 5) { e = p; }
                    return cons(head(e), e);
                }",
                split,
            ),
            "head of an empty list",
            ["solve"],
        ),
        (
            "tail of nil(), in place",
            dc(
                "int triv(list<int> p) {
                    list<int> e = nil();
                    if (len(p) > 5) { e = p; }
                    e = tail(e);
                    return len(e) <= 1;
                }",
                solve,
                split,
            ),
            "tail of an empty list",
            ["triv"],
        ),
        (
            "tail of nil()",
            dc(
                triv,
                "list<int> solve(list<int> p) {
                    list<int> e = nil();
                    if (len(p) > 5) { e = p; }
                    return tail(e);
                }",
                split,
            ),
            "tail of an empty list",
            ["solve"],
        ),
        (
            "error(n)",
            dc(
                triv,
                solve,
                "list< list<int> > split(list<int> p) {
                    if (len(p) == 3) { error(len(p) + 40); }
                    return cons(tail(p), cons(cons(head(p), nil()), nil()));
                }",
            ),
            "program called error(43)",
            ["split"],
        ),
    ];
    let rows = cases.each_ref().map(|(name, src, ..)| Row::new(*name, levels(name, src)));
    let seen = assert_same(&rows, &configs(&VM_LEVELS, &square_machines()), run);
    for ((name, src, message, typed), seen) in cases.iter().zip(seen) {
        assert_eq!(runtime_error(name, &seen), *message, "{name}");
        let Observed::Failed(aborts) = &seen else { unreachable!("it failed") };
        assert!(
            matches!(aborts[0].cause, AbortCause::RuntimeError { .. }),
            "{name}: the root cause is on processor 0: {aborts:?}"
        );
        let listing = compile_opt(src, OptLevel::O2).unwrap().disassemble_kernel();
        for f in typed {
            assert!(listing.contains(&format!("fn {f}_1 [typed]")), "{name}: {f}\n{listing}");
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
    let seen = assert_agree("i64::MIN", src, &ALL_LEVELS, &square_machines());
    assert_eq!(seen.procs()[0].output, format!("{want:?}"));
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
    let seen = assert_agree("nan", src, &ALL_LEVELS, &square_machines());
    assert_eq!(seen.procs()[0].output, format!("{:?}", ["160"]));
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
    assert_agree("struct kernels", src, &ALL_LEVELS, &square_machines());
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
    assert_agree("flat structs", src, &ALL_LEVELS, &square_machines());
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
    assert_agree("Bounds in kernels", src, &ALL_LEVELS, &square_machines());
    let listing = compile(src).unwrap().disassemble_kernel();
    for typed in ["edge_1+1 [typed]", "span_1+1 [typed]"] {
        assert!(listing.contains(typed), "{typed}:\n{listing}");
    }
    assert!(listing.contains("partbounds "), "{listing}");
}

/// A function the typed tier refuses — one that needs more registers
/// than a frame window has, one over a list of structs — stays on the
/// generic loop, with the walker's output under both engines: `native`
/// runs argument functions on the same kernel executors as `vm`.
#[test]
fn a_function_past_the_register_window_stays_generic() {
    // 300 distinct constants are 300 registers
    let steps: String =
        (0..300).map(|i| format!("s = (s + {}) * 3 % 65521;\n", 1000 + i)).collect();
    let src = format!(
        "struct pt {{ int x; int y; }};
         int big(int v, Index ix) {{ int s = v + ix[0]; {steps} return s; }}
         int small(int v, Index ix) {{ int s = v; int i = 0; while (i < 3) {{ s = s * 5 % 8; i = i + 1; }} return s; }}
         int init(Index ix) {{ return ix[0] * 17 - 40; }}
         int idt(int v, Index ix) {{ return v; }}
         int firstx(list<pt> ps) {{ return head(ps).x * 10 + len(ps); }}
         void main() {{
             array<int> a = array_create(1, {{16, 1}}, {{0,0}}, {{0-1,0-1}}, init, DISTR_DEFAULT);
             array_map(big, a, a);
             print(array_fold(idt, (+), a));
             array_map(small, a, a);
             print(array_fold(idt, (+), a));
             list< list<pt> > ps = cons(cons(pt{{1, 2}}, nil()), cons(cons(pt{{5, 6}}, cons(pt{{7, 8}}, nil())), nil()));
             print(farm(firstx, ps));
         }}"
    );
    assert_agree("past the window", &src, &ALL_LEVELS, &square_machines());
    let listing = compile(&src).unwrap().disassemble_kernel();
    assert!(
        listing.contains("big_1+0 [generic: needs more registers than a frame window has]"),
        "{listing}"
    );
    assert!(
        listing.contains("firstx_1+0 [generic: its signature has a list of structs]"),
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
    assert_agree("direct folds and scans", &src, &VM_LEVELS, &square_machines());
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
    let mut rotation = (0..machines.len()).cycle();
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
            let host = rotation.next().expect("an endless rotation");
            let name = format!("gen_mult over {ty}, n={n}");
            assert_agree(&name, &src, &VM_LEVELS, &machines[host..=host]);
        }
    }
}

// ---------------------------------------------------------------------
// Random first-order programs.
// ---------------------------------------------------------------------

/// 200 generated kernel-heavy programs — float locals and loops in
/// argument functions, partial applications that lift array handles,
/// `array_get_elem` reads — under the walker and the VM at every opt
/// level: `-O0` runs every kernel on the generic loop, `-O2` on
/// the typed register tier wherever it lowers.
#[test]
fn generated_kernels_agree_on_both_kernel_tiers() {
    let machines = square_machines();
    for seed in 0..200usize {
        let dna = program_gen::dna(seed as u64);
        let src = Gen { dna: &dna, pos: 0 }.kernel_program();
        let host = seed % machines.len();
        assert_agree(&format!("kernel seed {seed}"), &src, &VM_LEVELS, &machines[host..=host]);
    }
}

/// 60 generated list programs — `dc` and `farm` argument functions over
/// `list<int>`, `list<float>` and `list<list<int>>`, with lifted lists
/// and loops that update their lists in place — under the walker and
/// the VM at both opt levels: `-O0` runs them on the generic loop,
/// `-O2` as typed register code, every one of them.
#[test]
fn generated_list_kernels_agree_on_both_kernel_tiers() {
    let machines = square_machines();
    for seed in 0..60usize {
        let dna = program_gen::dna(1_000 + seed as u64);
        let src = Gen { dna: &dna, pos: 0 }.list_program();
        let host = seed % machines.len();
        let name = format!("list seed {seed}:\n{src}\n");
        assert_agree(&name, &src, &VM_LEVELS, &machines[host..=host]);
        let listing = compile_opt(&src, OptLevel::O2).unwrap().disassemble_kernel();
        for f in ["ltriv", "lsolve", "lsplit", "ljoin", "ftriv", "fsolve", "fsplit", "fjoin"] {
            assert!(listing.contains(&format!("fn {f}_1 [typed]")), "{name}{listing}");
        }
        for f in ["wscore", "wsum", "wchunk", "wnum", "lsum"] {
            assert!(listing.contains(&format!("fn {f}_1 [typed]")), "{name}{listing}");
        }
    }
}

/// The walker, the VM at every opt level, and the native engine once
/// (each random program is a fresh `rustc` invocation; one opt level
/// keeps the suite fast).
const RANDOM_AXES: [Axis; 4] = [VM_LEVELS[0], VM_LEVELS[1], VM_LEVELS[2], ENGINES[2]];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random arithmetic/control-flow/skeleton programs: every engine ×
    /// opt level observes the same, on a host configuration the
    /// program's length picks.
    #[test]
    fn random_programs_agree_across_engines(
        dna in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let src = Gen { dna: &dna, pos: 0 }.program();
        let (host, cfg) = invariant::hosts::host(dna.len(), MachineConfig::square(2).unwrap());
        let machine = [(host, Machine::new(cfg))];
        assert_agree(&format!("generated program:\n{src}\n"), &src, &RANDOM_AXES, &machine);
    }
}
