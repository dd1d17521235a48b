//! Serving-layer load generator: replays thousands of mixed requests
//! against one in-process [`skil_serve::Server`] and reports latency,
//! throughput, and cache effectiveness.
//!
//! The mix deliberately includes every failure mode the daemon must
//! absorb — Skil runtime errors (division by zero) under all three
//! engines and crash fault plans — interleaved with real skeleton
//! programs (`shortest_paths.skil`, `gauss.skil`), whose golden
//! `sim_cycles` are asserted on **every** run: warm pooled machines
//! must be bit-identical with cold ones, request after request. The
//! mesh sweep (1x3 and 4x4 alongside the default 2x2) keeps several
//! pool shapes warm at once, and the native-engine workloads must ride
//! the same compiled-program cache as the VM's (the >= 90% hit-rate
//! gate counts them).
//!
//! Emits `BENCH_serving.json` (schema `skil-bench/serving/v1`, gated
//! by `scripts/bench_gate.py`).
//!
//! The worker loop below is this generator's own: threads pull parsed
//! [`Request`]s off a shared schedule and call [`Server::handle`], with
//! no pipe, no JSON line and no reply written. It is not the daemon's
//! front door — `skild`'s read-handle-write loop is [`Server::serve`] —
//! and the frozen gate measures it as it is.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p skil-serve --bin bench_serving -- \
//!     [--out BENCH_serving.json] [--requests N] [--threads K] [--quick]
//! ```

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use skil_lang::{Engine, OptLevel};
use skil_runtime::FaultPlan;
use skil_serve::{ErrorKind, Request, Response, Server};

const SHORTEST_PATHS: &str = include_str!("../../../../examples/skil/shortest_paths.skil");
const GAUSS: &str = include_str!("../../../../examples/skil/gauss.skil");

/// Golden virtual run times on the default 2x2 mesh (pinned repo-wide;
/// see ROADMAP.md and the CI golden greps).
const GOLDEN_SHORTEST_PATHS: u64 = 2_397_316;
const GOLDEN_GAUSS: u64 = 11_906_936;

/// A tiny fan-out-free program: the high-volume filler of the mix.
const HELLO: &str = "void main() { if (procId == 0) { print(procId + 7); } }";

/// A communicating skeleton program (distributed fold, result 120).
const FOLD: &str = "int initf(Index ix) { return ix[0] + ix[1]; } \
                    int conv(int v, Index ix) { return v; } \
                    void main() { \
                      array<int> a = array_create(1, {16,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT); \
                      int total = array_fold(conv, (+), a); \
                      if (procId == 0) { print(total); } \
                    }";

/// Divides by a value the optimizer cannot fold away: every processor
/// hits a genuine runtime error.
const DIV_ZERO: &str = "void main() { int z = procId - procId; print(100 / z); }";

/// What a workload's responses must look like.
#[derive(Clone, Copy, PartialEq)]
enum Expect {
    /// Clean run; optionally with pinned golden `sim_cycles`.
    Ok(Option<u64>),
    /// A structured runtime-error response whose message contains the
    /// given substring.
    RuntimeError(&'static str),
}

struct Workload {
    name: &'static str,
    program: &'static str,
    engine: Engine,
    mesh: (usize, usize),
    faults: Option<&'static str>,
    expect: Expect,
    /// Requests at the default 2,000-request volume.
    weight: usize,
}

fn mix() -> Vec<Workload> {
    vec![
        Workload {
            name: "hello_vm",
            program: HELLO,
            engine: Engine::Vm,
            mesh: (2, 2),
            faults: None,
            expect: Expect::Ok(None),
            weight: 800,
        },
        Workload {
            name: "fold_vm",
            program: FOLD,
            engine: Engine::Vm,
            mesh: (2, 2),
            faults: None,
            expect: Expect::Ok(None),
            weight: 300,
        },
        Workload {
            name: "fold_ast",
            program: FOLD,
            engine: Engine::Ast,
            mesh: (2, 2),
            faults: None,
            expect: Expect::Ok(None),
            weight: 150,
        },
        // the native engine in the mix: compiled once (machine code is
        // cached inside the Compiled entry), then served warm — the
        // daemon-level cache-hit gate below covers these requests too
        Workload {
            name: "fold_native",
            program: FOLD,
            engine: Engine::Native,
            mesh: (2, 2),
            faults: None,
            expect: Expect::Ok(None),
            weight: 150,
        },
        Workload {
            name: "shortest_paths_native",
            program: SHORTEST_PATHS,
            engine: Engine::Native,
            mesh: (2, 2),
            faults: None,
            expect: Expect::Ok(Some(GOLDEN_SHORTEST_PATHS)),
            weight: 12,
        },
        // mesh sweep: the pool must keep distinct shapes warm side by
        // side (per-shape counters are asserted after the replay)
        Workload {
            name: "fold_vm_1x3",
            program: FOLD,
            engine: Engine::Vm,
            mesh: (1, 3),
            faults: None,
            expect: Expect::Ok(None),
            weight: 120,
        },
        Workload {
            name: "fold_native_4x4",
            program: FOLD,
            engine: Engine::Native,
            mesh: (4, 4),
            faults: None,
            expect: Expect::Ok(None),
            weight: 100,
        },
        Workload {
            name: "shortest_paths_vm",
            program: SHORTEST_PATHS,
            engine: Engine::Vm,
            mesh: (2, 2),
            faults: None,
            expect: Expect::Ok(Some(GOLDEN_SHORTEST_PATHS)),
            weight: 24,
        },
        Workload {
            name: "gauss_vm",
            program: GAUSS,
            engine: Engine::Vm,
            mesh: (2, 2),
            faults: None,
            expect: Expect::Ok(Some(GOLDEN_GAUSS)),
            weight: 8,
        },
        Workload {
            name: "div_zero_vm",
            program: DIV_ZERO,
            engine: Engine::Vm,
            mesh: (2, 2),
            faults: None,
            expect: Expect::RuntimeError("division by zero"),
            weight: 118,
        },
        Workload {
            name: "div_zero_native",
            program: DIV_ZERO,
            engine: Engine::Native,
            mesh: (2, 2),
            faults: None,
            expect: Expect::RuntimeError("division by zero"),
            weight: 50,
        },
        Workload {
            name: "div_zero_ast",
            program: DIV_ZERO,
            engine: Engine::Ast,
            mesh: (2, 2),
            faults: None,
            expect: Expect::RuntimeError("division by zero"),
            weight: 68,
        },
        Workload {
            name: "crash_fault_vm",
            program: FOLD,
            engine: Engine::Vm,
            mesh: (2, 2),
            faults: Some("seed=7,crash=3@50"),
            expect: Expect::RuntimeError("crashed by fault plan"),
            weight: 100,
        },
    ]
}

/// Deterministic in-place shuffle (LCG), so the interleave of the mix
/// is identical run to run.
fn shuffle(indices: &mut [usize]) {
    let mut state: u64 = 0x5DEECE66D;
    for i in (1..indices.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        indices.swap(i, j);
    }
}

fn percentile(sorted_ns: &[u64], p: usize) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = (sorted_ns.len() * p / 100).min(sorted_ns.len() - 1);
    sorted_ns[idx]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_serving.json".to_string();
    let mut threads = 4usize;
    let mut total_override: Option<usize> = None;
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args[i].clone();
            }
            "--threads" => {
                i += 1;
                threads = args[i].parse().expect("--threads N");
            }
            "--requests" => {
                i += 1;
                total_override = Some(args[i].parse().expect("--requests N"));
            }
            "--quick" => quick = true,
            other => {
                eprintln!(
                    "usage: bench_serving [--out FILE] [--requests N] [--threads K] [--quick] \
                     (got {other})"
                );
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    let workloads = mix();
    let default_total: usize = workloads.iter().map(|w| w.weight).sum();
    let total = total_override.unwrap_or(if quick { default_total / 10 } else { default_total });

    // Scale each workload's count to the requested volume, keeping at
    // least one request per workload so the mix always exercises every
    // failure mode.
    let counts: Vec<usize> =
        workloads.iter().map(|w| (w.weight * total / default_total).max(1)).collect();
    let mut schedule: Vec<usize> = Vec::new();
    for (idx, &n) in counts.iter().enumerate() {
        schedule.extend(std::iter::repeat_n(idx, n));
    }
    shuffle(&mut schedule);

    let server = Arc::new(Server::new());
    let schedule = Arc::new(schedule);
    let next = Arc::new(AtomicUsize::new(0));
    // Per-workload latency samples, merged after the replay.
    let lats: Arc<Vec<Mutex<Vec<u64>>>> =
        Arc::new(workloads.iter().map(|_| Mutex::new(Vec::new())).collect());
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let warm_golden = Arc::new(AtomicUsize::new(0));

    eprintln!(
        "bench_serving: replaying {} requests over {} workloads on {} threads",
        schedule.len(),
        workloads.len(),
        threads
    );
    let wall_start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let server = Arc::clone(&server);
            let schedule = Arc::clone(&schedule);
            let next = Arc::clone(&next);
            let lats = Arc::clone(&lats);
            let failures = Arc::clone(&failures);
            let warm_golden = Arc::clone(&warm_golden);
            let workloads = mix();
            std::thread::spawn(move || loop {
                let slot = next.fetch_add(1, Ordering::Relaxed);
                let Some(&widx) = schedule.get(slot) else { return };
                let w = &workloads[widx];
                let req = Request {
                    id: None,
                    program: w.program.to_string(),
                    mesh: w.mesh,
                    topology: None,
                    collective_algo: None,
                    engine: w.engine,
                    opt_level: OptLevel::default(),
                    faults: w.faults.map(|spec| FaultPlan::parse(spec).unwrap()),
                };
                let start = Instant::now();
                let resp = server.handle(req);
                let elapsed = start.elapsed().as_nanos() as u64;
                lats[widx].lock().unwrap().push(elapsed);
                let problem = match (&w.expect, &resp) {
                    (Expect::Ok(golden), Response::Ok { run, warm_machine, .. }) => match golden {
                        Some(cycles) if run.report.sim_cycles != *cycles => Some(format!(
                            "{}: sim_cycles {} != golden {cycles} (warm={warm_machine})",
                            w.name, run.report.sim_cycles
                        )),
                        Some(_) => {
                            if *warm_machine {
                                warm_golden.fetch_add(1, Ordering::Relaxed);
                            }
                            None
                        }
                        None => None,
                    },
                    (Expect::RuntimeError(needle), Response::Err { kind, message, .. }) => {
                        if *kind == ErrorKind::Runtime && message.contains(needle) {
                            None
                        } else {
                            Some(format!(
                                "{}: expected runtime error containing {needle:?}, \
                                 got kind {kind:?}: {message}",
                                w.name
                            ))
                        }
                    }
                    (_, resp) => {
                        Some(format!("{}: unexpected response: {}", w.name, resp.to_json_line()))
                    }
                };
                if let Some(p) = problem {
                    failures.lock().unwrap().push(p);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("replay worker");
    }
    let wall = wall_start.elapsed();

    let failures = failures.lock().unwrap();
    if !failures.is_empty() {
        eprintln!("bench_serving: {} response check failure(s):", failures.len());
        for f in failures.iter().take(10) {
            eprintln!("  {f}");
        }
        return ExitCode::FAILURE;
    }

    let stats = server.stats();
    let mut all: Vec<u64> = Vec::new();
    let mut workload_lines = Vec::new();
    for (widx, w) in workloads.iter().enumerate() {
        let mut ns = lats[widx].lock().unwrap().clone();
        ns.sort_unstable();
        all.extend_from_slice(&ns);
        let mean = ns.iter().sum::<u64>() / ns.len() as u64;
        let mut line = String::new();
        write!(
            line,
            "    {{\n      \"name\": \"{}\",\n      \"requests\": {},\n      \
             \"lat_mean_ns\": {},\n      \"lat_p50_ns\": {},\n      \"lat_p99_ns\": {}\n    }}",
            w.name,
            ns.len(),
            mean,
            percentile(&ns, 50),
            percentile(&ns, 99),
        )
        .unwrap();
        workload_lines.push(line);
        eprintln!(
            "bench_serving: {:>20}: {:>5} reqs, mean {:>9} ns, p99 {:>9} ns",
            w.name,
            ns.len(),
            mean,
            percentile(&ns, 99)
        );
    }
    all.sort_unstable();
    let runs_per_sec = all.len() as f64 / wall.as_secs_f64();
    let hit_rate = stats.cache_hit_rate();

    eprintln!(
        "bench_serving: {} requests in {:.2}s ({:.1} runs/sec), cache hit rate {:.1}%, \
         {} warm-machine golden runs, {} machine(s) discarded",
        all.len(),
        wall.as_secs_f64(),
        runs_per_sec,
        100.0 * hit_rate,
        warm_golden.load(Ordering::Relaxed),
        stats.machines_discarded,
    );
    if stats.machines_discarded > 0 {
        eprintln!("bench_serving: FAIL: machines were discarded (engine panic under load)");
        return ExitCode::FAILURE;
    }
    if hit_rate < 0.90 {
        eprintln!("bench_serving: FAIL: cache hit rate {:.3} below 0.90", hit_rate);
        return ExitCode::FAILURE;
    }
    // Every mesh shape in the mix must show up in the per-shape pool
    // counters, and each shape's machines must have been reused.
    for mesh in [(2, 2), (1, 3), (4, 4)] {
        let Some(p) = stats.pool.iter().find(|p| p.mesh == mesh) else {
            eprintln!("bench_serving: FAIL: no pool counters for {}x{}", mesh.0, mesh.1);
            return ExitCode::FAILURE;
        };
        eprintln!(
            "bench_serving: pool {}x{}: {} warm / {} cold checkout(s), {} idle",
            mesh.0, mesh.1, p.warm, p.cold, p.idle
        );
        if p.warm == 0 {
            eprintln!("bench_serving: FAIL: {}x{} machines were never reused", mesh.0, mesh.1);
            return ExitCode::FAILURE;
        }
    }

    let mut out = String::new();
    writeln!(out, "{{").unwrap();
    writeln!(out, "  \"schema\": \"skil-bench/serving/v1\",").unwrap();
    writeln!(out, "  \"threads\": {threads},").unwrap();
    writeln!(out, "  \"requests\": {},", all.len()).unwrap();
    writeln!(out, "  \"ok\": {},", stats.ok).unwrap();
    writeln!(out, "  \"structured_errors\": {},", stats.errors).unwrap();
    writeln!(out, "  \"machines_discarded\": {},", stats.machines_discarded).unwrap();
    writeln!(out, "  \"cache_hit_rate\": {:.4},", hit_rate).unwrap();
    writeln!(out, "  \"warm_machine_golden_runs\": {},", warm_golden.load(Ordering::Relaxed))
        .unwrap();
    writeln!(out, "  \"golden_shortest_paths_cycles\": {GOLDEN_SHORTEST_PATHS},").unwrap();
    writeln!(out, "  \"golden_gauss_cycles\": {GOLDEN_GAUSS},").unwrap();
    writeln!(out, "  \"pool\": [").unwrap();
    let pool_lines: Vec<String> = stats
        .pool
        .iter()
        .map(|p| {
            format!(
                "    {{\"mesh\": \"{}x{}\", \"warm\": {}, \"cold\": {}, \"idle\": {}}}",
                p.mesh.0, p.mesh.1, p.warm, p.cold, p.idle
            )
        })
        .collect();
    writeln!(out, "{}", pool_lines.join(",\n")).unwrap();
    writeln!(out, "  ],").unwrap();
    writeln!(out, "  \"p50_ns\": {},", percentile(&all, 50)).unwrap();
    writeln!(out, "  \"p99_ns\": {},", percentile(&all, 99)).unwrap();
    writeln!(out, "  \"runs_per_sec\": {:.2},", runs_per_sec).unwrap();
    writeln!(out, "  \"workloads\": [").unwrap();
    writeln!(out, "{}", workload_lines.join(",\n")).unwrap();
    writeln!(out, "  ]").unwrap();
    writeln!(out, "}}").unwrap();
    if let Err(e) = std::fs::write(&out_path, &out) {
        eprintln!("bench_serving: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("bench_serving: wrote {out_path}");
    ExitCode::SUCCESS
}
