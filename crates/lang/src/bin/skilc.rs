//! `skilc` — the Skil compiler driver.
//!
//! ```text
//! skilc <file.skil>                  type-check and emit C to stdout
//! skilc --run <file.skil>            run on a simulated 2x2 mesh
//! skilc --run --mesh RxC <file.skil> choose the machine shape
//! skilc --run --topology SPEC        choose the physical topology, e.g.
//!                                    mesh2d:4x4, hypercube:16, fattree:2,4,
//!                                    hetero:mesh2d:4x4:slowlinks=col2*64
//! skilc --run --engine vm|native    pick the execution engine
//! skilc --opt-level 0|2 ...          bytecode optimizer level (default 2)
//! skilc --check <file.skil>          parse + type check only
//! skilc --emit-bytecode <file.skil>  disassemble the optimized bytecode
//! skilc --emit-bytecode=raw ...      disassemble before optimization
//! skilc --emit-bytecode=kernel ...   what skeleton argument functions run as
//! skilc --emit-rust <file.skil>      print the native engine's generated Rust
//! skilc --run --trace <file.skil>    also print a virtual-time timeline
//! skilc --run --trace-out FILE ...   write a Chrome trace_events JSON
//! skilc --run --faults SPEC ...      inject seeded faults (see below)
//! ```
//!
//! `--emit-bytecode` also prints the optimizer's per-pass counters to
//! stderr, so pass behavior is inspectable without a debugger.
//!
//! `--faults` takes a seeded fault plan such as
//! `seed=7,drop=0.08,dup=0.05,delay=0.1,max_delay=40000,crash=3@1000000`;
//! recoverable faults are masked by the runtime's reliable-delivery
//! layer (output is identical to the fault-free run), while a crash
//! surfaces as a structured `PeerDown` failure with exit code 3.

#![forbid(unsafe_code)]

use skil_lang::{compile_opt, Engine, OptLevel};
use skil_runtime::{FaultPlan, Machine, MachineConfig, Topology};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: skilc [--check | --emit-bytecode[=raw|opt|kernel] | --emit-rust | --run [--mesh RxC] \
[--topology SPEC] [--engine vm|native] [--trace] [--faults SPEC]] [--opt-level 0|2] <file.skil>\n\
         \n\
         default: emit the instantiated first-order C to stdout\n\
         --check: stop after the polymorphic type check\n\
         --emit-bytecode: print the slot-resolved bytecode listing\n\
                  (=opt, the default, after the optimizer; =raw before;\n\
                  =kernel per skeleton site the store of its arrays and\n\
                  what each argument function runs as: a [direct(op)]\n\
                  operator, [typed] register code, [generic: why]);\n\
                  per-pass optimizer stats go to stderr\n\
         --emit-rust: print the self-contained Rust module the native\n\
                  engine compiles (at the selected --opt-level)\n\
         --run:   execute SPMD on a simulated transputer mesh (default 2x2)\n\
         --mesh:  machine shape for --run, e.g. --mesh 4x4 or --mesh 8x4\n\
         --topology: physical topology for --run (subsumes --mesh):\n\
                  mesh2d:RxC | hypercube:N | fattree:LEVELS,ARITY |\n\
                  hetero:mesh2d:RxC:slowlinks=colK*F; the hop metric\n\
                  prices every message\n\
         --engine: execution engine for --run: vm (default, bytecode)\n\
                  or native (rustc-compiled machine code; falls back to\n\
                  vm if rustc is missing); virtual time is identical\n\
                  across engines\n\
         --opt-level: bytecode optimizer level (0 raw, 2 every pass;\n\
                  default 2); virtual time is bit-identical at both\n\
         --trace-out FILE: write the traced run as Chrome trace_events\n\
                  JSON (open in chrome://tracing); implies tracing\n\
         --faults SPEC: seeded fault injection for --run, e.g.\n\
                  --faults seed=7,drop=0.08,dup=0.05,crash=3@1000000;\n\
                  keys: seed, drop, dup, delay, max_delay, rto, budget,\n\
                  crash=PROC@CYCLE (repeatable); recoverable faults are\n\
                  retried transparently, a crash exits 3 with PeerDown"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check_only = false;
    let mut emit_bytecode = false;
    let mut emit_raw = false;
    let mut emit_kernel = false;
    let mut emit_rust = false;
    let mut opt_level = OptLevel::default();
    let mut engine = Engine::Vm;
    let mut run = false;
    let mut trace = false;
    let mut trace_out: Option<String> = None;
    let mut faults: Option<FaultPlan> = None;
    let mut mesh = (2usize, 2usize);
    let mut topology: Option<Topology> = None;
    let mut file: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => check_only = true,
            "--emit-bytecode" | "--emit-bytecode=opt" => emit_bytecode = true,
            "--emit-bytecode=raw" => {
                emit_bytecode = true;
                emit_raw = true;
            }
            "--emit-bytecode=kernel" => {
                emit_bytecode = true;
                emit_kernel = true;
            }
            "--emit-rust" => emit_rust = true,
            "--opt-level" => {
                i += 1;
                let parsed = args.get(i).and_then(|s| OptLevel::from_arg(s));
                let Some(level) = parsed else { return usage() };
                opt_level = level;
            }
            "--engine" => {
                i += 1;
                let parsed = args.get(i).and_then(|s| Engine::from_arg(s));
                let Some(e) = parsed else { return usage() };
                engine = e;
            }
            "--run" => run = true,
            "--trace" => trace = true,
            "--trace-out" => {
                i += 1;
                let Some(path) = args.get(i) else { return usage() };
                trace_out = Some(path.clone());
            }
            "--faults" => {
                i += 1;
                let Some(spec) = args.get(i) else { return usage() };
                match FaultPlan::parse(spec) {
                    Ok(plan) => faults = Some(plan),
                    Err(e) => {
                        eprintln!("skilc: bad --faults spec: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--mesh" => {
                i += 1;
                let Some(spec) = args.get(i) else { return usage() };
                let Some((r, c)) = spec.split_once('x') else { return usage() };
                match (r.parse(), c.parse()) {
                    (Ok(r), Ok(c)) => mesh = (r, c),
                    _ => return usage(),
                }
            }
            "--topology" => {
                i += 1;
                let Some(spec) = args.get(i) else { return usage() };
                match Topology::parse(spec) {
                    Ok(t) => topology = Some(t),
                    Err(e) => {
                        eprintln!("skilc: bad --topology spec: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => return usage(),
            other if !other.starts_with('-') && file.is_none() => {
                file = Some(other.to_string());
            }
            _ => return usage(),
        }
        i += 1;
    }
    let Some(file) = file else { return usage() };

    let src = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("skilc: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let compiled = match compile_opt(&src, opt_level) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("skilc: {file}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if check_only {
        eprintln!(
            "skilc: {file}: ok ({} instances, {} structs)",
            compiled.fo.funcs.len(),
            compiled.fo.structs.len()
        );
        return ExitCode::SUCCESS;
    }

    if emit_bytecode {
        if emit_raw {
            print!("{}", compiled.disassemble_raw());
        } else if emit_kernel {
            print!("{}", compiled.disassemble_kernel());
        } else {
            print!("{}", compiled.disassemble());
        }
        eprintln!("skilc: {file}: opt level {}", compiled.opt_level);
        eprintln!("{}", compiled.opt_stats);
        return ExitCode::SUCCESS;
    }

    if emit_rust {
        print!("{}", compiled.emit_rust());
        eprintln!("skilc: {file}: opt level {}", compiled.opt_level);
        return ExitCode::SUCCESS;
    }

    if run {
        if engine == Engine::Native {
            if let Err(e) = compiled.native_ready() {
                eprintln!("skilc: native engine unavailable ({e}); falling back to vm");
                engine = Engine::Vm;
            }
        }
        let base = match topology {
            Some(t) => MachineConfig::on_topology(t),
            None => MachineConfig::mesh(mesh.0, mesh.1),
        };
        let cfg = match base {
            Ok(c) => {
                let c = if trace || trace_out.is_some() { c.with_trace() } else { c };
                match &faults {
                    Some(plan) => c.with_faults(plan.clone()),
                    None => c,
                }
            }
            Err(e) => {
                eprintln!("skilc: bad machine shape: {e}");
                return ExitCode::FAILURE;
            }
        };
        let machine = Machine::new(cfg);
        // Skil runtime errors (division by zero, out-of-bounds index)
        // and fault-plan failures (crash, retry exhaustion) both surface
        // as a structured SimFailure: a clean diagnostic and exit 3, no
        // raw panic or backtrace.
        let run_result = match compiled.try_run_with(engine, &machine) {
            Ok(r) => r,
            Err(failure) => {
                eprintln!("skilc: simulation aborted: {failure}");
                return ExitCode::from(3);
            }
        };
        for (id, lines) in run_result.results.iter().enumerate() {
            for line in lines {
                println!("[proc {id}] {line}");
            }
        }
        eprintln!(
            "skilc: simulated {:.6} s on {} T800s ({} cycles, {} messages)",
            run_result.report.sim_seconds,
            machine.nprocs(),
            run_result.report.sim_cycles,
            run_result.report.total_msgs()
        );
        if faults.is_some() {
            let (mut retries, mut drops, mut dups, mut delays) = (0u64, 0u64, 0u64, 0u64);
            for p in &run_result.report.procs {
                retries += p.stats.retries;
                drops += p.stats.drops;
                dups += p.stats.dups;
                delays += p.stats.delays;
            }
            eprintln!("skilc: faults: retries={retries} drops={drops} dups={dups} delays={delays}");
        }
        if trace {
            eprint!("{}", run_result.report.render_timeline(64));
        }
        if let Some(path) = trace_out {
            if let Err(e) = std::fs::write(&path, run_result.report.chrome_trace_json()) {
                eprintln!("skilc: cannot write trace to {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("skilc: wrote Chrome trace to {path}");
        }
        return ExitCode::SUCCESS;
    }

    print!("{}", compiled.emit_c());
    ExitCode::SUCCESS
}
