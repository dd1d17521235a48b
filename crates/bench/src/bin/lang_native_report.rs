//! Host wall-time report for the native engine (`BENCH_lang_native.json`).
//!
//! For every shipped `.skil` example, measures three phases separately:
//!
//! * `compile_cold_ns` — emit + `rustc` + `dlopen` with a fresh, empty
//!   artifact cache directory (the price of the first request ever for
//!   a program shape);
//! * `compile_warm_ns` — the same call against the populated on-disk
//!   cache (hash, hit, `dlopen` — what a restarted `skild` pays);
//! * run time — `Engine::Native` vs `Engine::Ast` and the `-O2`
//!   `Engine::Vm`, all timed run-only on the same warm machine, after
//!   asserting identical print output and virtual time.
//!
//! Two gates are asserted in-binary, so the frozen artifact can't be
//! regenerated with a regressed engine:
//!
//! * native >= 5x over the AST walker on `gauss` (the walker is the
//!   reference engine and shares no host code with the other two, so
//!   this ratio only moves when the native engine does);
//! * the `-O2` VM's and the native engine's run medians are each no
//!   slower than the values frozen in the committed
//!   `BENCH_lang_native.json`, on the geomean across the suite and
//!   within a noise band. This replaced a ratio bar (suite geomean
//!   native >= 2x the VM) when the two engines' shared host — array
//!   store and skeletons — got faster: that moved the VM leg, the
//!   denominator, and a ratio between engines then reads as a
//!   regression of the one that did not change.
//!
//! Usage (from the repository root, where the frozen artifact lives):
//!
//! ```text
//! cargo run --release -p skil-bench --bin lang_native_report -- [--out FILE.json]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use skil_lang::{compile, Engine};
use skil_runtime::{Machine, MachineConfig};

struct Workload {
    name: String,
    src: String,
}

fn workloads() -> Vec<Workload> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/skil");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("examples/skil exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "skil") {
            out.push(Workload {
                name: path.file_stem().unwrap().to_string_lossy().into_owned(),
                src: std::fs::read_to_string(&path).expect("readable"),
            });
        }
    }
    assert!(!out.is_empty(), "no .skil examples found");
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Host wall time of `f` over `repeats` runs, after one untimed warmup.
struct Timing {
    mean_ns: f64,
    median_ns: f64,
    min_ns: f64,
}

fn time_ns<F: FnMut()>(repeats: usize, mut f: F) -> Timing {
    f(); // untimed warmup
    let mut samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    Timing {
        mean_ns: samples.iter().sum::<f64>() / repeats as f64,
        median_ns: samples[repeats / 2],
        min_ns: samples[0],
    }
}

/// How far an engine's run medians may sit above their frozen values,
/// on the geomean across the suite, before it is a regression — the
/// threshold and the aggregate CI's `bench_gate.py` holds this artifact
/// to: the frozen numbers and a fresh run rarely share a host, and one
/// sub-millisecond workload's median moves by more than this between
/// two runs on the same host.
const NOISE_BAND: f64 = 1.5;

/// Per workload, the frozen `(vm_run_median_ns, native_run_median_ns)`
/// of the committed artifact. A workload the file does not know (a new
/// example) has no entry and is not gated.
fn frozen_medians(path: &str) -> Vec<(String, f64, f64)> {
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read the frozen artifact {path}: {e}"));
    // hand-rolled scrape of our own fixed-format file: each workload
    // object lists "name" first and its timings after
    let mut out = Vec::new();
    let (mut name, mut vm) = (None::<String>, None::<f64>);
    for line in json.lines() {
        let line = line.trim();
        let number = |rest: &str| rest.trim_end_matches(',').parse::<f64>().expect("a number");
        if let Some(rest) = line.strip_prefix("\"name\": \"") {
            name = rest.strip_suffix("\",").map(str::to_string);
        } else if let Some(rest) = line.strip_prefix("\"vm_run_median_ns\": ") {
            vm = Some(number(rest));
        } else if let Some(rest) = line.strip_prefix("\"native_run_median_ns\": ") {
            let vm = vm.take().expect("vm median precedes native median");
            out.push((name.take().expect("name precedes timings"), vm, number(rest)));
        }
    }
    out
}

fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn main() {
    let mut out_path = String::from("BENCH_lang_native.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => panic!("unknown argument: {other}"),
        }
    }

    // a private cache dir so cold-compile numbers really are cold
    let cache = std::env::temp_dir().join(format!("skil-native-bench-{}", std::process::id()));
    std::env::set_var("SKIL_NATIVE_CACHE_DIR", &cache);

    let machine = Machine::new(MachineConfig::square(2).unwrap());
    let run_repeats = 15;
    let frozen = frozen_medians("BENCH_lang_native.json");

    struct NatRow {
        name: String,
        sim_cycles: u64,
        compile_cold_ns: f64,
        compile_warm_ns: f64,
        ast_run_mean_ns: f64,
        vm: Timing,
        native: Timing,
    }
    let mut rows: Vec<NatRow> = Vec::new();
    // per workload, run median now over run median frozen
    let (mut vm_drift, mut native_drift) = (Vec::new(), Vec::new());

    for w in workloads() {
        let c = compile(&w.src).unwrap_or_else(|e| panic!("{}: {e}", w.name));

        // cold: fresh cache dir, nothing on disk, nothing in-process.
        // (the in-process module registry is keyed by content hash and
        // never evicts, so cold is measurable exactly once per program —
        // a single sample, reported as such)
        let _ = std::fs::remove_dir_all(&cache);
        let t0 = Instant::now();
        c.native_ready().unwrap_or_else(|e| panic!("{}: native engine unavailable: {e}", w.name));
        let compile_cold_ns = t0.elapsed().as_nanos() as f64;
        // warm: artifact on disk; hash + registry hit
        let compile_warm_ns = time_ns(5, || {
            c.native_ready().unwrap();
        })
        .mean_ns;

        // correctness gate before timing anything
        let ast = c.run_with(Engine::Ast, &machine);
        let vm = c.run_with(Engine::Vm, &machine);
        let native = c.run_with(Engine::Native, &machine);
        assert_eq!(ast.results, native.results, "{}: native output differs", w.name);
        assert_eq!(vm.results, native.results, "{}: native output differs from vm", w.name);
        assert_eq!(
            ast.report.sim_cycles, native.report.sim_cycles,
            "{}: native virtual time differs",
            w.name
        );

        let sim_cycles = native.report.sim_cycles;

        let ast_run_mean_ns = time_ns(run_repeats, || {
            std::hint::black_box(c.run_with(Engine::Ast, &machine).report.sim_cycles);
        })
        .mean_ns;
        let vm = time_ns(run_repeats, || {
            std::hint::black_box(c.run_with(Engine::Vm, &machine).report.sim_cycles);
        });
        let native = time_ns(run_repeats, || {
            std::hint::black_box(c.run_with(Engine::Native, &machine).report.sim_cycles);
        });
        if let Some((_, vm_frozen, native_frozen)) = frozen.iter().find(|(n, ..)| *n == w.name) {
            vm_drift.push(vm.median_ns / vm_frozen);
            native_drift.push(native.median_ns / native_frozen);
        }

        println!(
            "{:<18} cold {:>8.1} ms   warm {:>6.3} ms   ast {:>8.2} ms   vm {:>8.2} ms   \
             native {:>8.2} ms   ({:.2}x vm, {:.2}x ast)",
            w.name,
            compile_cold_ns / 1e6,
            compile_warm_ns / 1e6,
            ast_run_mean_ns / 1e6,
            vm.mean_ns / 1e6,
            native.mean_ns / 1e6,
            vm.mean_ns / native.mean_ns,
            ast_run_mean_ns / native.mean_ns,
        );
        rows.push(NatRow {
            name: w.name,
            sim_cycles,
            compile_cold_ns,
            compile_warm_ns,
            ast_run_mean_ns,
            vm,
            native,
        });
    }
    let _ = std::fs::remove_dir_all(&cache);

    let gauss = rows.iter().find(|r| r.name == "gauss").expect("gauss workload");
    let gauss_vs_ast = gauss.ast_run_mean_ns / gauss.native.mean_ns;
    assert!(
        gauss_vs_ast >= 5.0,
        "native engine is only {gauss_vs_ast:.2}x over the AST walker on gauss (need >= 5x)"
    );
    for (engine, drift) in [("vm", &vm_drift), ("native", &native_drift)] {
        // nothing to hold the run to until the artifact records medians
        let slowdown = if drift.is_empty() { 1.0 } else { geomean(drift) };
        assert!(
            slowdown <= NOISE_BAND,
            "the {engine} engine's run medians are {slowdown:.2}x their frozen values on the \
             suite geomean (more than {NOISE_BAND}x slower)"
        );
    }
    // reported, not gated: a ratio between two engines that share a host
    let all_vs_vm: Vec<f64> = rows.iter().map(|r| r.vm.mean_ns / r.native.mean_ns).collect();
    let suite_geomean_vs_vm = geomean(&all_vs_vm);

    let mut json = String::from("{\n  \"schema\": \"skil-bench/lang-native/v1\",\n");
    let _ = writeln!(json, "  \"machine\": \"2x2\",");
    let _ = writeln!(
        json,
        "  \"host_threads\": {},",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    let _ = writeln!(
        json,
        "  \"protocol\": \"run-only host wall time over {run_repeats} runs, warm artifact \
         cache; compile_cold is one sample against an empty cache dir\","
    );
    let _ = writeln!(json, "  \"gauss_native_vs_ast\": {gauss_vs_ast:.2},");
    let _ = writeln!(json, "  \"suite_geomean_native_vs_vm\": {suite_geomean_vs_vm:.2},");
    json.push_str("  \"workloads\": [\n");
    let nrows = rows.len();
    for (i, r) in rows.into_iter().enumerate() {
        let _ = write!(
            json,
            "    {{\n      \"name\": \"{}\",\n      \"sim_cycles\": {},\n      \
             \"compile_cold_ns\": {:.0},\n      \"compile_warm_mean_ns\": {:.0},\n      \
             \"ast_run_mean_ns\": {:.0},\n      \
             \"vm_run_mean_ns\": {:.0},\n      \"vm_run_median_ns\": {:.0},\n      \
             \"vm_run_min_ns\": {:.0},\n      \
             \"native_run_mean_ns\": {:.0},\n      \"native_run_median_ns\": {:.0},\n      \
             \"native_run_min_ns\": {:.0},\n      \
             \"speedup_native_vs_vm\": {:.2},\n      \
             \"speedup_native_vs_ast\": {:.2}\n    }}",
            r.name,
            r.sim_cycles,
            r.compile_cold_ns,
            r.compile_warm_ns,
            r.ast_run_mean_ns,
            r.vm.mean_ns,
            r.vm.median_ns,
            r.vm.min_ns,
            r.native.mean_ns,
            r.native.median_ns,
            r.native.min_ns,
            r.vm.mean_ns / r.native.mean_ns,
            r.ast_run_mean_ns / r.native.mean_ns,
        );
        json.push_str(if i + 1 < nrows { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("\ngauss native vs ast: {gauss_vs_ast:.2}x (gate >= 5x)");
    println!("full-suite geomean native vs -O2 vm: {suite_geomean_vs_vm:.2}x (reported)");
    println!("vm and native run medians within {NOISE_BAND}x of their frozen values (geomean)");
    println!("wrote {out_path}");
}
