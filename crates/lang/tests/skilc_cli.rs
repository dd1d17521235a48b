//! End-to-end tests of the `skilc` driver binary.

use std::process::Command;

fn skilc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_skilc"))
}

fn write_temp(name: &str, src: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("skilc-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, src).expect("write program");
    path
}

const HELLO: &str = "void main() { if (procId == 0) { print(41 + 1); } }";

#[test]
fn emits_c_by_default() {
    let path = write_temp("hello.skil", HELLO);
    let out = skilc().arg(&path).output().expect("run skilc");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let c = String::from_utf8_lossy(&out.stdout);
    assert!(c.contains("void main(void)"), "{c}");
    assert!(c.contains("translation by instantiation"), "{c}");
}

#[test]
fn check_mode_reports_instances() {
    let path = write_temp("check.skil", HELLO);
    let out = skilc().arg("--check").arg(&path).output().expect("run skilc");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("ok ("), "{err}");
}

#[test]
fn run_mode_prints_output_and_summary() {
    let path = write_temp("run.skil", HELLO);
    let out = skilc().arg("--run").arg("--mesh").arg("2x2").arg(&path).output().expect("run skilc");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[proc 0] 42"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("simulated"), "{stderr}");
    assert!(stderr.contains("4 T800s"), "{stderr}");
}

#[test]
fn trace_mode_prints_timeline() {
    let src = "int initf(Index ix) { return ix[0]; }\n\
               int conv(int v, Index ix) { return v; }\n\
               void main() {\n\
                 array<int> a = array_create(1, {64,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
                 int s = array_fold(conv, (+), a);\n\
                 if (procId == 0) { print(s); }\n\
               }";
    let path = write_temp("trace.skil", src);
    let out = skilc().arg("--run").arg("--trace").arg(&path).output().expect("run skilc");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("p0"), "{stderr}");
    assert!(stderr.contains("= fold"), "{stderr}");
}

#[test]
fn trace_out_writes_chrome_trace_json() {
    let src = "int initf(Index ix) { return ix[0]; }\n\
               int conv(int v, Index ix) { return v; }\n\
               void main() {\n\
                 array<int> a = array_create(1, {64,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
                 int s = array_fold(conv, (+), a);\n\
                 if (procId == 0) { print(s); }\n\
               }";
    let path = write_temp("trace_out.skil", src);
    let json_path = std::env::temp_dir().join("skilc-tests").join("trace_out.json");
    let _ = std::fs::remove_file(&json_path);
    let out = skilc()
        .arg("--run")
        .arg("--trace-out")
        .arg(&json_path)
        .arg(&path)
        .output()
        .expect("run skilc");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("wrote Chrome trace"), "{stderr}");
    let json = std::fs::read_to_string(&json_path).expect("trace file written");
    assert!(json.contains("\"traceEvents\""), "{json}");
    assert!(json.contains("\"fold\""), "{json}");
    assert!(json.contains("skil-trace-v1"), "{json}");
}

#[test]
fn type_errors_exit_nonzero_with_position() {
    let path = write_temp("bad.skil", "void main() { int x = 1.5; }");
    let out = skilc().arg(&path).output().expect("run skilc");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("type error"), "{err}");
    assert!(err.contains("1:"), "position reported: {err}");
}

#[test]
fn missing_file_is_reported() {
    let out = skilc().arg("/nonexistent/nope.skil").output().expect("run skilc");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn bad_flags_show_usage() {
    let out = skilc().arg("--frobnicate").output().expect("run skilc");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn bad_opt_level_or_engine_shows_usage() {
    // the walker is a reference for the library's tests, not an engine
    // to pick, and -O0 and -O2 are the only levels
    let path = write_temp("badopt.skil", HELLO);
    for args in [["--opt-level", "9"], ["--opt-level", "1"], ["--engine", "ast"]] {
        let out = skilc().arg("--run").args(args).arg(&path).output().expect("run skilc");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("usage:"), "{args:?}: {err}");
        assert!(err.contains("[--engine vm|native]") && err.contains("[--opt-level 0|2]"), "{err}");
    }
}

#[test]
fn collective_algorithm_flag_is_not_an_option() {
    // Every collective runs the binomial tree; there is nothing to choose.
    let path = write_temp("algo.skil", HELLO);
    let out = skilc()
        .args(["--run", "--collective-algo", "tree"])
        .arg(&path)
        .output()
        .expect("run skilc");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("usage:"), "{err}");
    assert!(!err.contains("algo"), "{err}");
}

#[test]
fn run_output_identical_at_every_opt_level() {
    let src = "int sumto(int n) {\n\
                 int s = 0;\n\
                 int i = 1;\n\
                 while (i <= n) { s = s + i; i = i + 1; }\n\
                 return s;\n\
               }\n\
               void main() { if (procId == 0) { print(sumto(10)); } }";
    let path = write_temp("optlevels.skil", src);
    let mut runs = Vec::new();
    for level in ["0", "2"] {
        let out = skilc()
            .arg("--run")
            .arg("--opt-level")
            .arg(level)
            .arg(&path)
            .output()
            .expect("run skilc");
        assert!(out.status.success(), "-O{level}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(stdout.contains("[proc 0] 55"), "-O{level}: {stdout}");
        // the cycle count in the summary line must not depend on the level
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        let cycles = stderr.split('(').nth(1).map(|s| s.to_string());
        runs.push((stdout, cycles));
    }
    assert_eq!(runs[0], runs[1], "-O0 vs -O2");
}

#[test]
fn emit_bytecode_prints_listing_and_stats() {
    let src = "int sumto(int n) {\n\
                 int s = 0;\n\
                 int i = 1;\n\
                 while (i <= n) { s = s + i; i = i + 1; }\n\
                 return s;\n\
               }\n\
               void main() { if (procId == 0) { print(sumto(10)); } }";
    let path = write_temp("emitbc.skil", src);

    let opt = skilc().arg("--emit-bytecode").arg(&path).output().expect("run skilc");
    assert!(opt.status.success(), "{}", String::from_utf8_lossy(&opt.stderr));
    let listing = String::from_utf8_lossy(&opt.stdout);
    assert!(listing.contains("fn main"), "{listing}");
    assert!(listing.contains("charge ["), "resolved charge summaries: {listing}");
    let stderr = String::from_utf8_lossy(&opt.stderr);
    assert!(stderr.contains("opt level 2"), "{stderr}");
    assert!(stderr.contains("opt: instrs"), "per-pass stats on stderr: {stderr}");

    // the raw listing is the unoptimized compiler output — no fused ops
    let raw = skilc().arg("--emit-bytecode=raw").arg(&path).output().expect("run skilc");
    assert!(raw.status.success());
    let raw_listing = String::from_utf8_lossy(&raw.stdout);
    assert!(raw_listing.contains("fn main"), "{raw_listing}");
    assert!(!raw_listing.contains("binstore"), "raw listing is unfused: {raw_listing}");
    // the optimized listing of this loop does fuse
    assert!(listing.contains("binstore") || listing.contains("jnz.cmp"), "{listing}");
}

#[test]
fn emit_bytecode_names_each_skeleton_sites_array_representation() {
    let src = "struct pt { int x; float w; };\n\
               int ints(Index ix) { return ix[0]; }\n\
               float floats(Index ix) { return itof(ix[0]); }\n\
               pt pts(Index ix) { return pt{ix[0], 0.5}; }\n\
               float weight(pt p, Index ix) { return p.w; }\n\
               void main() {\n\
                 array<int> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, ints, DISTR_DEFAULT);\n\
                 array<float> b = array_create(1, {8,1}, {0,0}, {0-1,0-1}, floats, DISTR_DEFAULT);\n\
                 array<pt> c = array_create(1, {8,1}, {0,0}, {0-1,0-1}, pts, DISTR_DEFAULT);\n\
                 array_map(weight, c, b);\n\
                 array_scan((+), b, b);\n\
                 array_destroy(a);\n\
               }";
    let path = write_temp("emitbc_elem.skil", src);
    for flag in ["--emit-bytecode", "--emit-bytecode=raw"] {
        let out = skilc().arg(flag).arg(&path).output().expect("run skilc");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let listing = String::from_utf8_lossy(&out.stdout);
        // the site table and the call instruction both say which store
        // the site's array gets; a map is named after its source array
        for want in [
            "array_create elem=int",
            "array_create elem=float",
            "array_create elem=boxed",
            "array_map elem=boxed",
            "array_scan elem=float",
            "array_destroy elem=int",
        ] {
            assert!(listing.contains(want), "{flag}: no `{want}` in:\n{listing}");
        }
        assert!(listing.contains("skel array_create (site 0, elem int)"), "{listing}");
        assert!(listing.contains("skel array_map (site 3, elem boxed)"), "{listing}");
    }
}

#[test]
fn emit_rust_prints_native_module() {
    let src = "int initf(Index ix) { return ix[0] * 3; }\n\
               int conv(int v, Index ix) { return v; }\n\
               void main() {\n\
                 array<int> a = array_create(1, {64,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
                 int s = array_fold(conv, (+), a);\n\
                 if (procId == 0) { print(s); }\n\
               }";
    let path = write_temp("emitrust.skil", src);
    let out = skilc().arg("--emit-rust").arg(&path).output().expect("run skilc");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let rust = String::from_utf8_lossy(&out.stdout);
    // the module is main-mode code alone: its entry points and the
    // functions `main` calls; argument functions run on the VM's
    // kernel executors under every engine
    assert!(rust.contains("pub extern \"C\" fn skil_main"), "{rust}");
    assert!(rust.contains("pub extern \"C\" fn skil_abi"), "{rust}");
    for kernel in ["skil_kernel", "skil_kbulk", "kdispatch", "— kernel mode"] {
        assert!(!rust.contains(kernel), "`{kernel}` in the module: {rust}");
    }
    assert!(!rust.contains("// `initf"), "an argument function was compiled: {rust}");
}

#[test]
fn run_mode_with_native_engine_matches_vm() {
    let src = "int initf(Index ix) { return ix[0] * 7 % 13; }\n\
               int conv(int v, Index ix) { return v; }\n\
               void main() {\n\
                 array<int> a = array_create(1, {64,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
                 int s = array_fold(conv, (+), a);\n\
                 if (procId == 0) { print(s); }\n\
               }";
    let path = write_temp("native_run.skil", src);
    let mut runs = Vec::new();
    for engine in ["vm", "native"] {
        let out = skilc()
            .arg("--run")
            .arg("--engine")
            .arg(engine)
            .arg("--mesh")
            .arg("2x2")
            .arg(&path)
            .output()
            .expect("run skilc");
        assert!(out.status.success(), "engine {engine}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        // printed values and the simulated-cycles summary must agree
        let cycles = stderr.split('(').nth(1).map(|s| s.to_string());
        runs.push((stdout, cycles));
    }
    assert_eq!(runs[0], runs[1], "vm vs native CLI output");
}

/// `procId - procId` defeats constant folding, so the division really
/// happens at run time under every engine and opt level.
const DIV_ZERO: &str = "void main() { int z = procId - procId; print(100 / z); }";

const OOB_INDEX: &str = "int initf(Index ix) { return 0; }\n\
                         void main() {\n\
                           array<int> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
                           int x = array_get_elem(a, {procId + 100, 0});\n\
                           print(x);\n\
                         }";

/// A Skil runtime error must surface as a structured diagnostic and
/// exit code 3 — not a raw Rust panic — under every engine. The walker
/// is held to the same messages in-process, by `lang_engines`'
/// `kernel_runtime_errors_*_match_the_walker*` rows.
#[test]
fn runtime_division_by_zero_is_structured_under_every_engine() {
    let path = write_temp("div_zero.skil", DIV_ZERO);
    for engine in ["vm", "native"] {
        let out = skilc()
            .arg("--run")
            .arg("--engine")
            .arg(engine)
            .arg(&path)
            .output()
            .expect("run skilc");
        assert_eq!(out.status.code(), Some(3), "engine {engine}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("skilc: simulation aborted"), "engine {engine}: {stderr}");
        assert!(stderr.contains("runtime error"), "engine {engine}: {stderr}");
        assert!(stderr.contains("integer division by zero"), "engine {engine}: {stderr}");
        assert!(!stderr.contains("panicked at"), "raw panic leaked ({engine}): {stderr}");
        assert!(!stderr.contains("RUST_BACKTRACE"), "raw panic leaked ({engine}): {stderr}");
    }
}

#[test]
fn runtime_out_of_bounds_index_is_structured_under_every_engine() {
    let path = write_temp("oob_index.skil", OOB_INDEX);
    for engine in ["vm", "native"] {
        let out = skilc()
            .arg("--run")
            .arg("--engine")
            .arg(engine)
            .arg(&path)
            .output()
            .expect("run skilc");
        assert_eq!(out.status.code(), Some(3), "engine {engine}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("runtime error"), "engine {engine}: {stderr}");
        assert!(
            stderr.contains("index [100, 0] outside array of size [8, 1]"),
            "engine {engine}: {stderr}"
        );
        assert!(!stderr.contains("panicked at"), "raw panic leaked ({engine}): {stderr}");
    }
}

/// What `--topology` and `--faults` do to a run of either headline
/// example, which no in-process test reaches: an explicit
/// `--topology mesh2d:2x2` reproduces the golden cycles, each recoverable
/// plan prints the clean run's output with nonzero fault counters, and a
/// crash plan exits 3 naming the `PeerDown` cascade, never a hang.
#[test]
fn fault_plans_and_topologies_reach_the_run() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/skil");
    let recoverable = [
        (None, "seed=7,drop=0.08"),
        (None, "seed=11,delay=0.2,max_delay=40000"),
        (None, "seed=13,drop=0.06,dup=0.08"),
        (Some("fattree:2,4"), "seed=17,drop=0.05,delay=0.15,max_delay=30000"),
    ];
    for (example, golden) in [("shortest_paths", 2_397_316), ("gauss", 11_906_936)] {
        let path = format!("{root}/{example}.skil");
        let run = |topology: Option<&str>, faults: Option<&str>| {
            let mut cmd = skilc();
            cmd.arg("--run");
            if let Some(spec) = topology {
                cmd.args(["--topology", spec]);
            }
            if let Some(plan) = faults {
                cmd.args(["--faults", plan]);
            }
            let out = cmd.arg(&path).output().expect("run skilc");
            let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8");
            (out.status.code(), text(out.stdout), text(out.stderr))
        };
        let (code, mesh, stderr) = run(Some("mesh2d:2x2"), None);
        assert_eq!(code, Some(0), "{example}: {stderr}");
        assert!(stderr.contains(&format!("({golden} cycles")), "{example}: {stderr}");
        let (_, fattree, _) = run(Some("fattree:2,4"), None);
        for (topology, plan) in recoverable {
            let (code, stdout, stderr) = run(topology, Some(plan));
            let at = format!("{example} under {plan}");
            assert_eq!(code, Some(0), "{at}: {stderr}");
            let clean = if topology.is_some() { &fattree } else { &mesh };
            assert!(stdout == *clean, "{at}: the output differs from the clean run's");
            let counters = stderr.lines().find(|l| l.starts_with("skilc: faults:"));
            let zero = "skilc: faults: retries=0 drops=0 dups=0 delays=0";
            assert!(
                counters.is_some_and(|c| c != zero),
                "{at}: the plan injected nothing: {stderr}"
            );
        }
        let (code, _, stderr) = run(None, Some("seed=3,crash=3@1000000"));
        assert_eq!(code, Some(3), "{example} under a crash: {stderr}");
        assert!(stderr.contains("PeerDown"), "{example} under a crash: {stderr}");
    }
}

/// `--emit-bytecode=raw` and `=opt` over every shipped example, held
/// against listings written by the compiler that still kept the raw
/// bytecode in every `Compiled` (`tests/fixtures/listings/`): the raw
/// listing is recompiled on demand now, and neither may differ by a
/// byte.
#[test]
fn bytecode_listings_of_the_examples_match_their_fixtures() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/listings");
    let mut examples: Vec<_> = std::fs::read_dir(format!("{root}/examples/skil"))
        .expect("examples/skil exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "skil"))
        .collect();
    examples.sort();
    assert!(examples.len() >= 8, "expected the shipped examples, found {}", examples.len());
    for path in examples {
        let stem = path.file_stem().expect("file stem").to_string_lossy().into_owned();
        for mode in ["raw", "opt"] {
            let out = skilc()
                .arg(format!("--emit-bytecode={mode}"))
                .arg(&path)
                .output()
                .expect("run skilc");
            assert!(out.status.success(), "{stem} {mode}");
            let want = std::fs::read_to_string(format!("{fixtures}/{stem}.{mode}.txt"))
                .unwrap_or_else(|e| panic!("fixture for {stem} {mode}: {e}"));
            let got = String::from_utf8_lossy(&out.stdout);
            assert!(got == want, "{stem}: the {mode} listing differs from its fixture");
        }
    }
}

/// `--emit-bytecode=kernel` over the examples whose argument functions
/// the benchmark's `kernel` workload spends its time in, and the one
/// that is lists all the way down: per site the element store and how
/// each argument function runs — a direct operator, typed register
/// code, or generic and why — and the typed code itself.
#[test]
fn kernel_listings_match_their_fixtures() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/listings");
    for stem in
        ["mandelbrot", "horner", "monte_carlo", "gauss", "shortest_paths", "quicksort", "integrate"]
    {
        let out = skilc()
            .arg("--emit-bytecode=kernel")
            .arg(format!("{root}/examples/skil/{stem}.skil"))
            .output()
            .expect("run skilc");
        assert!(out.status.success(), "{stem}");
        let want = std::fs::read_to_string(format!("{fixtures}/{stem}.kernel.txt"))
            .unwrap_or_else(|e| panic!("fixture for {stem}: {e}"));
        let got = String::from_utf8_lossy(&out.stdout);
        assert!(got == want, "{stem}: the kernel listing differs from its fixture:\n{got}");
    }
    // the tags the fixtures are read for
    let fixture = |stem: &str| {
        std::fs::read_to_string(format!("{fixtures}/{stem}.kernel.txt")).expect("fixture")
    };
    let gauss = fixture("gauss");
    assert!(gauss.contains("fn copy_pivot_1 [typed]"), "{gauss}");
    assert!(
        gauss.contains("array_fold elem=float ret=flat fns=(make_elemrec_1+0 [typed]"),
        "{gauss}"
    );
    let shortest_paths = fixture("shortest_paths");
    assert!(shortest_paths.contains("[direct(min)]"), "{shortest_paths}");
    // lists lower, and a variable updated from itself is updated in
    // place: `rest = tail(rest)`, `smaller = cons(x, smaller)`
    let quicksort = fixture("quicksort");
    assert!(quicksort.contains("fn divide_1 [typed] (params=1 at r1, regs=15) -> list<list<int>>"));
    assert!(quicksort.contains(": tail r3, r3\n") && quicksort.contains(": consi r4, r6, r4\n"));
    assert!(!quicksort.contains("[generic: "), "{quicksort}");
    let integrate = fixture("integrate");
    assert!(
        integrate.contains("fn bisect_1 [typed] (params=1 at r2, regs=17) -> list<list<float>>")
    );
    // a loop's back edge is its test
    assert!(!fixture("mandelbrot").contains(": jmp @"));
}
