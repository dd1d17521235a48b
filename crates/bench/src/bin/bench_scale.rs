//! Host-cost scaling report for the event scheduler.
//!
//! Sweeps the processor count {16, 64, 256, 1024, 4096} over a
//! strong-scaled ring workload — the *total* message budget is fixed,
//! so a scheduler whose host cost grows with the number of simulated
//! processors (thread-per-processor) gets slower per run as the mesh
//! grows, while the event scheduler's wall time stays roughly flat.
//! Emits `BENCH_scale.json` (schema `skil-bench/scale/v1`, gated by
//! `scripts/bench_gate.py`).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p skil-bench --bin bench_scale -- \
//!     [--out BENCH_scale.json] [--quick]
//! ```

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use skil_runtime::{Machine, MachineConfig, SchedulerKind};

/// Fixed total message budget of the strong-scaled sweep: every scale
/// circulates this many point-to-point messages in total, so wall-clock
/// differences isolate per-processor host overhead.
const TOTAL_MESSAGES: u64 = 131_072;

/// One measured scale point.
struct ScalePoint {
    name: String,
    procs: usize,
    rounds: u64,
    wall_mean_ns: f64,
    wall_min_ns: f64,
    runs_per_sec: f64,
    sim_cycles: u64,
}

/// A ring circulation: each processor sends/receives `rounds` messages,
/// so the run moves `procs * rounds` envelopes in total.
fn ring_run(m: &Machine, rounds: u64) -> u64 {
    let run = m.run(move |p| {
        let n = p.nprocs();
        let next = (p.id() + 1) % n;
        let prev = (p.id() + n - 1) % n;
        let mut acc = p.id() as u64;
        for round in 0..rounds {
            p.send(next, 40 + (round & 7), &acc);
            acc = acc.wrapping_mul(31) ^ p.recv::<u64>(prev, 40 + (round & 7));
        }
        acc
    });
    run.report.sim_cycles
}

fn measure_scale(procs: usize, repeats: usize) -> ScalePoint {
    let rounds = (TOTAL_MESSAGES / procs as u64).max(1);
    let m = Machine::new(
        MachineConfig::procs(procs)
            .unwrap()
            .with_scheduler(SchedulerKind::Event)
            .with_timeout(Duration::from_secs(600)),
    );
    let sim_cycles = ring_run(&m, rounds); // warmup + golden capture
    let mut total = 0.0;
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let cycles = ring_run(&m, rounds);
        assert_eq!(cycles, sim_cycles, "non-deterministic virtual time at {procs} procs");
        let ns = t0.elapsed().as_nanos() as f64;
        total += ns;
        best = best.min(ns);
    }
    let wall_mean_ns = total / repeats as f64;
    ScalePoint {
        name: format!("ring_strong_{procs}p"),
        procs,
        rounds,
        wall_mean_ns,
        wall_min_ns: best,
        runs_per_sec: 1e9 / wall_mean_ns,
        sim_cycles,
    }
}

fn main() {
    let mut out_path = String::from("BENCH_scale.json");
    let mut repeats = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--quick" => repeats = 2,
            other => panic!("unknown argument: {other}"),
        }
    }

    let mut points = Vec::new();
    for procs in [16usize, 64, 256, 1024, 4096] {
        let p = measure_scale(procs, repeats);
        println!(
            "{:<22} rounds {:>6}  mean {:>9.2} ms  best {:>9.2} ms  {:>6.2} runs/s",
            p.name,
            p.rounds,
            p.wall_mean_ns / 1e6,
            p.wall_min_ns / 1e6,
            p.runs_per_sec
        );
        points.push(p);
    }

    // Sub-linearity witness: host cost per simulated processor must
    // *fall* as the mesh grows under a fixed message budget.
    let first = &points[0];
    let last = &points[points.len() - 1];
    let growth = last.wall_mean_ns / first.wall_mean_ns;
    let proc_growth = last.procs as f64 / first.procs as f64;
    println!(
        "\nwall-time growth {growth:.2}x over {proc_growth:.0}x more processors \
         ({} -> {} procs)",
        first.procs, last.procs
    );
    assert!(
        growth < proc_growth,
        "host cost grew super-linearly with processor count: {growth:.2}x"
    );

    let mut json = String::from("{\n  \"schema\": \"skil-bench/scale/v1\",\n");
    let _ = writeln!(
        json,
        "  \"host_threads\": {},",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    let _ = writeln!(json, "  \"total_messages\": {TOTAL_MESSAGES},");
    json.push_str("  \"scales\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\n      \"name\": \"{}\",\n      \"procs\": {},\n      \"rounds\": {},\n      \
             \"wall_mean_ns\": {:.0},\n      \"wall_min_ns\": {:.0},\n      \
             \"runs_per_sec\": {:.2},\n      \"sim_cycles\": {}\n    }}",
            p.name, p.procs, p.rounds, p.wall_mean_ns, p.wall_min_ns, p.runs_per_sec, p.sim_cycles
        );
        json.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");
}
