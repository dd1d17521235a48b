//! Structured observability artifacts for the two headline applications.
//!
//! Runs shortest paths and Gaussian elimination on a 2×2 mesh twice —
//! once untraced, once traced — asserts that tracing leaves the
//! simulated time bit-identical (observability must be free in virtual
//! time), and writes four JSON artifacts under `results/`:
//!
//! * `metrics_shpaths.json` / `metrics_gauss.json` — per-skeleton
//!   cycles/messages/bytes, per-processor counters and the src→dst
//!   communication matrix (schema `skil-metrics-v1`);
//! * `trace_shpaths.json` / `trace_gauss.json` — Chrome `trace_events`
//!   files loadable in `chrome://tracing` / Perfetto (schema
//!   `skil-trace-v1`).
//!
//! Run with
//! `cargo run --release -p skil-bench --bin paper -- trace_report [--out-dir DIR]`.
//!
//! `--faults SPEC` (e.g. `--faults seed=7,drop=0.08`) runs both
//! applications under a seeded fault plan: the reliable-delivery layer
//! must mask every recoverable fault, so the artifacts gain nonzero
//! retry/drop counters while the tracing-is-free assertion still holds.

use std::path::PathBuf;
use std::process::ExitCode;

use skil_bench::{traced_report, TRACE_N};
use skil_runtime::FaultPlan;

pub fn run(args: &[String]) -> ExitCode {
    let mut out_dir = PathBuf::from("results");
    let mut faults: Option<FaultPlan> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out-dir" => {
                i += 1;
                match args.get(i) {
                    Some(d) => out_dir = PathBuf::from(d),
                    None => {
                        eprintln!("paper trace_report: --out-dir needs an argument");
                        return ExitCode::from(2);
                    }
                }
            }
            "--faults" => {
                i += 1;
                let Some(spec) = args.get(i) else {
                    eprintln!("paper trace_report: --faults needs an argument");
                    return ExitCode::from(2);
                };
                match FaultPlan::parse(spec) {
                    Ok(plan) => faults = Some(plan),
                    Err(e) => {
                        eprintln!("paper trace_report: bad --faults spec: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            other => {
                eprintln!(
                    "usage: paper trace_report [--out-dir DIR] [--faults SPEC] (got {other:?})"
                );
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("paper trace_report: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    for app in ["shpaths", "gauss"] {
        let report = traced_report(app, faults.as_ref());
        let metrics_path = out_dir.join(format!("metrics_{app}.json"));
        let trace_path = out_dir.join(format!("trace_{app}.json"));
        std::fs::write(&metrics_path, report.metrics_json()).expect("write metrics");
        std::fs::write(&trace_path, report.chrome_trace_json()).expect("write trace");
        println!(
            "{app}: n={TRACE_N} on 2x2, {} cycles ({:.4}s simulated), {} msgs / {} bytes",
            report.sim_cycles,
            report.sim_seconds,
            report.total_msgs(),
            report.total_bytes()
        );
        for (label, m) in report.skeleton_metrics() {
            println!(
                "  {label:<10} x{:<4} {:>10} cycles  {:>4} msgs  {:>8} bytes sent",
                m.invocations, m.cycles, m.sends, m.bytes_sent
            );
        }
        if faults.is_some() {
            let (mut retries, mut drops, mut dups, mut delays) = (0u64, 0u64, 0u64, 0u64);
            for p in &report.procs {
                retries += p.stats.retries;
                drops += p.stats.drops;
                dups += p.stats.dups;
                delays += p.stats.delays;
            }
            println!("  faults: retries={retries} drops={drops} dups={dups} delays={delays}");
        }
        println!("  -> {} + {}", metrics_path.display(), trace_path.display());
    }
    println!("\nOpen the trace files in chrome://tracing or https://ui.perfetto.dev");
    ExitCode::SUCCESS
}
