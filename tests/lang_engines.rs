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
//! stores `array<int>` / `array<float>` unboxed. Equal `DataPlaneStats`
//! (the inline/heap envelope split) and equal bytes per processor are
//! what show the two representations are the same on the wire.

use proptest::prelude::*;
use skil::lang::{compile, compile_opt, Engine, OptLevel};
use skil::runtime::report::DataPlaneStats;
use skil::runtime::{Machine, MachineConfig, ProcStats, RunReport};

const LEVELS: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];

/// Per-processor fingerprint: when it finished, what it computed and
/// sent, and how its messages were represented on the host.
type Fp = (usize, u64, ProcStats, DataPlaneStats);

fn fingerprint(r: &RunReport) -> Vec<Fp> {
    r.procs.iter().enumerate().map(|(i, p)| (i, p.finished_at, p.stats, p.data_plane)).collect()
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
    let compiled = compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let ast = compiled.run_with(Engine::Ast, machine);
    for level in LEVELS {
        let c = compile_opt(src, level).unwrap_or_else(|e| panic!("{name} @ -O{level}: {e}"));
        let vm = c.run_with(Engine::Vm, machine);
        assert_eq!(ast.results, vm.results, "{name} @ -O{level}: print output differs");
        assert_eq!(
            ast.report.sim_cycles, vm.report.sim_cycles,
            "{name} @ -O{level}: virtual time differs"
        );
        assert_eq!(
            fingerprint(&ast.report),
            fingerprint(&vm.report),
            "{name} @ -O{level}: per-processor stats differ"
        );
        let native = c.run_with(Engine::Native, machine);
        assert_eq!(ast.results, native.results, "{name} @ -O{level}: native output differs");
        assert_eq!(
            ast.report.sim_cycles, native.report.sim_cycles,
            "{name} @ -O{level}: native virtual time differs"
        );
        assert_eq!(
            fingerprint(&ast.report),
            fingerprint(&native.report),
            "{name} @ -O{level}: native per-processor stats differ"
        );
    }
}

#[test]
fn every_example_is_bit_identical_across_engines() {
    let machine = Machine::new(MachineConfig::square(2).unwrap());
    for (name, src) in examples() {
        assert_engines_agree(&name, &src, &machine);
    }
}

#[test]
fn engines_agree_with_tracing_on() {
    let machine = Machine::new(MachineConfig::square(2).unwrap().with_trace());
    for (name, src) in examples() {
        assert_engines_agree(&name, &src, &machine);
    }
}

#[test]
fn engines_agree_on_non_square_meshes() {
    // farm/d&c/scan workloads on a machine shape the goldens don't cover
    let machine = Machine::new(MachineConfig::mesh(1, 3).unwrap());
    for (name, src) in examples() {
        if name == "gauss.skil" || name == "shortest_paths.skil" {
            // gauss needs sizes divisible by the machine size;
            // shortest_paths' gen_mult needs a square process grid
            continue;
        }
        assert_engines_agree(&name, &src, &machine);
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

const FLAVORS: [Flavor; 6] = [
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
    // boxed stores
    Flavor {
        name: "struct",
        ty: "cell",
        decls: STRUCT_DECLS,
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
    for trace in [false, true] {
        let cfg = MachineConfig::square(2).unwrap();
        let machine = Machine::new(if trace { cfg.with_trace() } else { cfg });
        for f in &FLAVORS {
            assert_engines_agree(f.name, &skeleton_suite(f), &machine);
        }
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
    let machine = Machine::new(MachineConfig::square(2).unwrap());
    for (name, main) in cases {
        let src = format!("{prelude}\n{main}");
        let compiled = compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let want = compiled
            .try_run_with(Engine::Ast, &machine)
            .expect_err("the walker reports a runtime error");
        assert!(
            want.to_string().contains("runtime error"),
            "{name}: not a Skil runtime error: {want}"
        );
        for level in LEVELS {
            let c = compile_opt(&src, level).unwrap();
            for engine in [Engine::Vm, Engine::Native] {
                let got = c
                    .try_run_with(engine, &machine)
                    .expect_err("every engine reports the runtime error");
                assert_eq!(want.aborts, got.aborts, "{name} @ -O{level} under {engine:?}");
            }
        }
        // the machine survives: a clean program still runs on it
        let ok = compile("void main() { print(procId); }").unwrap().run(&machine);
        assert_eq!(ok.results[3], vec!["3".to_string()]);
    }
}

// ---------------------------------------------------------------------
// Random first-order programs.
// ---------------------------------------------------------------------

/// How the random skeleton section represents its array elements: the
/// type's name and declaration, an int expression wrapped as an
/// element, an element read back as an int, and the operator sections
/// / intrinsics that may stand in for the generated combiner.
struct ElemGen {
    ty: &'static str,
    decl: &'static str,
    wrap: fn(&str) -> String,
    unwrap: fn(&str) -> String,
    sections: &'static [&'static str],
}

const ELEM_GENS: [ElemGen; 3] = [
    ElemGen {
        ty: "int",
        decl: "",
        wrap: |e| e.to_string(),
        unwrap: |v| v.to_string(),
        sections: &["(+)", "(*)", "min", "max"],
    },
    ElemGen {
        ty: "float",
        decl: "",
        wrap: |e| format!("itof({e})"),
        unwrap: |v| format!("ftoi({v})"),
        sections: &["(+)", "fmin", "fmax"],
    },
    ElemGen {
        ty: "cell",
        decl: "struct cell { int k; int tag; };\n",
        wrap: |e| format!("cell{{{e}, 1}}"),
        unwrap: |v| format!("{v}.k"),
        sections: &[],
    },
];

/// Deterministic program generator: consumes DNA bytes and produces a
/// type-correct first-order Skil program using integer arithmetic,
/// comparisons, short-circuit logic, `if`/`while` control flow, pure
/// intrinsics, and a helper function call — the whole single-processor
/// surface both engines must agree on, charge for charge — followed by
/// a random sequence of array skeletons over an `int`, `float` or
/// struct array whose argument functions are generated the same way.
struct Gen<'a> {
    dna: &'a [u8],
    pos: usize,
}

impl<'a> Gen<'a> {
    fn byte(&mut self) -> u8 {
        let b = self.dna.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// An int expression over `vars`, bounded depth. `call` permits
    /// `helper(...)` — disabled inside the helper's own body so the
    /// generated program cannot recurse unboundedly.
    fn expr_in(&mut self, vars: &[String], depth: u32, call: bool) -> String {
        let b = self.byte();
        if depth == 0 {
            return if b.is_multiple_of(2) || vars.is_empty() {
                format!("{}", (b as i64 % 19) - 9)
            } else {
                vars[b as usize % vars.len()].clone()
            };
        }
        match b % 10 {
            0 => format!("{}", (self.byte() as i64 % 19) - 9),
            1 => {
                if vars.is_empty() {
                    format!("{}", (b as i64 % 19) - 9)
                } else {
                    vars[self.byte() as usize % vars.len()].clone()
                }
            }
            2 | 3 => {
                let op = ["+", "-", "*"][self.byte() as usize % 3];
                let l = self.expr_in(vars, depth - 1, call);
                let r = self.expr_in(vars, depth - 1, call);
                format!("({l} {op} {r})")
            }
            4 => {
                // division and remainder only by non-zero constants
                let op = ["/", "%"][self.byte() as usize % 2];
                let d = 1 + (self.byte() as i64 % 7);
                let l = self.expr_in(vars, depth - 1, call);
                format!("({l} {op} {d})")
            }
            5 => {
                let op = ["==", "!=", "<", "<=", ">", ">="][self.byte() as usize % 6];
                let l = self.expr_in(vars, depth - 1, call);
                let r = self.expr_in(vars, depth - 1, call);
                format!("({l} {op} {r})")
            }
            6 => {
                // short-circuit evaluation must skip the same rhs charges
                let op = ["&&", "||"][self.byte() as usize % 2];
                let l = self.expr_in(vars, depth - 1, call);
                let r = self.expr_in(vars, depth - 1, call);
                format!("({l} {op} {r})")
            }
            7 => {
                let f = ["abs", "min", "max"][self.byte() as usize % 3];
                let l = self.expr_in(vars, depth - 1, call);
                if f == "abs" {
                    format!("abs({l})")
                } else {
                    let r = self.expr_in(vars, depth - 1, call);
                    format!("{f}({l}, {r})")
                }
            }
            8 => {
                let l = self.expr_in(vars, depth - 1, call);
                format!("ftoi(itof({l}))")
            }
            _ => {
                let l = self.expr_in(vars, depth - 1, call);
                if call {
                    let r = self.expr_in(vars, depth - 1, call);
                    format!("helper({l}, {r})")
                } else {
                    format!("(0 - {l})")
                }
            }
        }
    }

    fn expr(&mut self, vars: &[String], depth: u32) -> String {
        self.expr_in(vars, depth, true)
    }

    /// Statements that only read/write existing variables.
    fn body_stmt(&mut self, vars: &[String], out: &mut String, indent: &str) {
        let target = vars[self.byte() as usize % vars.len()].clone();
        let e = self.expr(vars, 2);
        out.push_str(&format!("{indent}{target} = {e};\n"));
    }

    /// `ret name(params) { return wrap(<random int expression>); }`
    fn kernel(&mut self, e: &ElemGen, name: &str, params: &str, vars: &[String]) -> String {
        let body = self.expr(vars, 2);
        format!("{} {name}({params}) {{ return {}; }}\n", e.ty, (e.wrap)(&body))
    }

    /// A combiner for `(T, T) -> T` skeletons: the generated function,
    /// or one of the element type's sections / intrinsics.
    fn combiner(&mut self, e: &ElemGen) -> &'static str {
        let b = self.byte() as usize;
        if e.sections.is_empty() || b.is_multiple_of(2) {
            "kcomb"
        } else {
            e.sections[(b / 2) % e.sections.len()]
        }
    }

    /// The skeleton section: argument-function declarations, and the
    /// statements `main` ends with. Torus arrays `g*` serve map / copy /
    /// gen_mult / fold; row-block arrays `r*`, 1 to 8 columns wide (9 to
    /// 80 bytes per partition, across the inline envelope), serve
    /// permute / broadcast / scan.
    fn skeletons(&mut self) -> (String, String) {
        let e = &ELEM_GENS[self.byte() as usize % ELEM_GENS.len()];
        let t = e.ty;
        let ix = ["ix[0]".to_string(), "ix[1]".to_string()];
        let mut decls = e.decl.to_string();
        decls += &self.kernel(e, "kinit", "Index ix", &ix);
        let v = [(e.unwrap)("v"), ix[0].clone(), ix[1].clone()];
        decls += &self.kernel(e, "kmap", &format!("{t} v, Index ix"), &v);
        let ab = [(e.unwrap)("a"), (e.unwrap)("b")];
        decls += &self.kernel(e, "kcomb", &format!("{t} a, {t} b"), &ab);
        decls += &format!("int kkey({t} v, Index ix) {{ return {}; }}\n", (e.unwrap)("v"));
        decls += &format!("{t} kid({t} v, Index ix) {{ return v; }}\n");
        decls += "int krot(int r) { return (r + 1) % 4; }\n";

        let cols = 1 + self.byte() % 8;
        let mut body = String::new();
        for g in ["ga", "gb", "gc"] {
            body += &format!(
                "  array<{t}> {g} = array_create(2, {{4, 4}}, {{0,0}}, {{0-1,0-1}}, kinit, DISTR_TORUS2D);\n"
            );
        }
        for r in ["ra", "rb"] {
            body += &format!(
                "  array<{t}> {r} = array_create(2, {{4, {cols}}}, {{0,0}}, {{0-1,0-1}}, kinit, DISTR_DEFAULT);\n"
            );
        }
        let nops = 2 + self.byte() % 6;
        for i in 0..nops {
            body += &match self.byte() % 9 {
                0 => "  array_map(kmap, ga, gb);\n".to_string(),
                1 => "  array_map(kmap, ga, ga);\n".to_string(),
                2 => "  array_copy(gb, gc);\n".to_string(),
                3 => {
                    let (add, mul) = (self.combiner(e), self.combiner(e));
                    format!("  array_gen_mult(ga, gb, {add}, {mul}, gc);\n")
                }
                4 => format!("  array_scan({}, ra, rb);\n", self.combiner(e)),
                5 => "  array_permute_rows(ra, krot, rb);\n".to_string(),
                6 => format!("  array_broadcast_part(rb, {{{}, 0}});\n", self.byte() % 4),
                7 => {
                    let comb = self.combiner(e);
                    format!(
                        "  {t} f{i} = array_fold(kid, {comb}, gc);\n  if (procId == 0) {{ print(f{i}); }}\n"
                    )
                }
                _ => "  array_put_elem(rb, {procId, 0}, array_get_elem(ra, {procId, 0}));\n"
                    .to_string(),
            };
        }
        for (i, arr) in ["ga", "gb", "gc", "ra", "rb"].iter().enumerate() {
            body += &format!(
                "  int s{i} = array_fold(kkey, (+), {arr});\n  if (procId == 0) {{ print(s{i}); }}\n  array_destroy({arr});\n"
            );
        }
        (decls, body)
    }

    fn program(&mut self) -> String {
        let mut src = String::from("pardata array <$t>;\n");
        // a helper instance so Call / arity paths are exercised
        src.push_str("int helper(int a, int b) { return ");
        let h = self.expr_in(&["a".into(), "b".into()], 2, false);
        src.push_str(&h);
        src.push_str("; }\n");
        let (kernels, skeletons) = self.skeletons();
        src.push_str(&kernels);
        src.push_str("void main() {\n");
        let mut vars: Vec<String> = Vec::new();
        let ndecls = 2 + (self.byte() as usize % 3);
        for i in 0..ndecls {
            let e = self.expr(&vars, 2);
            src.push_str(&format!("  int v{i} = {e};\n"));
            vars.push(format!("v{i}"));
        }
        let nstmts = 1 + (self.byte() as usize % 5);
        for i in 0..nstmts {
            match self.byte() % 4 {
                0 => self.body_stmt(&vars, &mut src, "  "),
                1 => {
                    let c = self.expr(&vars, 2);
                    src.push_str(&format!("  if ({c}) {{\n"));
                    self.body_stmt(&vars, &mut src, "    ");
                    src.push_str("  } else {\n");
                    self.body_stmt(&vars, &mut src, "    ");
                    src.push_str("  }\n");
                }
                2 => {
                    // bounded loop: the counter is fresh per loop
                    let k = self.byte() % 5;
                    src.push_str(&format!("  int t{i} = 0;\n"));
                    src.push_str(&format!("  while (t{i} < {k}) {{\n"));
                    self.body_stmt(&vars, &mut src, "    ");
                    src.push_str(&format!("    t{i} = t{i} + 1;\n"));
                    src.push_str("  }\n");
                }
                _ => {
                    let e = self.expr(&vars, 2);
                    src.push_str(&format!("  v0 = v0 + procId * ({e});\n"));
                }
            }
        }
        for v in &vars {
            src.push_str(&format!("  print({v});\n"));
        }
        src.push_str(&skeletons);
        src.push_str("}\n");
        src
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random arithmetic/control-flow/skeleton programs: every engine ×
    /// opt level prints the same values and charges the same cycles,
    /// processor by processor.
    #[test]
    fn random_programs_agree_across_engines(
        dna in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let src = Gen { dna: &dna, pos: 0 }.program();
        let compiled = compile(&src).unwrap_or_else(|e| panic!("generated program rejected: {e}\n{src}"));
        let machine = Machine::new(MachineConfig::square(2).unwrap());
        let ast = compiled.run_with(Engine::Ast, &machine);
        for level in LEVELS {
            let c = compile_opt(&src, level)
                .unwrap_or_else(|e| panic!("generated program rejected at -O{level}: {e}\n{src}"));
            let vm = c.run_with(Engine::Vm, &machine);
            prop_assert_eq!(&ast.results, &vm.results, "output differs at -O{} for:\n{}", level, src);
            prop_assert_eq!(
                ast.report.sim_cycles,
                vm.report.sim_cycles,
                "virtual time differs at -O{} for:\n{}",
                level,
                src
            );
            prop_assert_eq!(
                fingerprint(&ast.report),
                fingerprint(&vm.report),
                "stats differ at -O{} for:\n{}",
                level,
                src
            );
        }
        // the native engine once per case (each random program is a
        // fresh `rustc` invocation; one opt level keeps the suite fast)
        let native = compiled.run_with(Engine::Native, &machine);
        prop_assert_eq!(&ast.results, &native.results, "native output differs for:\n{}", src);
        prop_assert_eq!(
            ast.report.sim_cycles,
            native.report.sim_cycles,
            "native virtual time differs for:\n{}",
            src
        );
        prop_assert_eq!(
            fingerprint(&ast.report),
            fingerprint(&native.report),
            "native stats differ for:\n{}",
            src
        );
    }
}
