//! `skil-benchmark` — the repository's end-to-end benchmark.
//!
//! Run it through `benchmark/run.sh`, which builds `skild` and this
//! program and passes `--skild` and `--scratch`. See `README.md` in this
//! directory for the metrics, the workloads and how they interact.

mod daemon;
mod expected;
mod metrics;
mod probes;
mod procfs;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use skil_lang::Engine;

use daemon::{Checked, Error, NativeCache, Plan};
use expected::Expected;
use metrics::PER_LAYER;
use report::WorkloadReport;
use workloads::{workload, Workload, DEFAULT_SECONDS, REPETITIONS, WORKLOAD_NAMES};

const USAGE: &str = "\
usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                        [--smoke] [--out REPORT.json]
       benchmark/run.sh --compare A.json B.json
       benchmark/run.sh --dump-requests DIR [--workload W] [--seed N] [--seconds S]
       benchmark/run.sh --regen-expected

  --workload W   hot_small | cold_compile | kernel | message_bound (default: all four)
  --seed N       orders the schedule and draws the cold_compile constants (default 1)
  --seconds S    scales the frozen request counts, which are sized for 15 (default 15)
  --trace 0|1    0: end-to-end metrics only; 1: per-layer metrics only (default: both)
  --smoke        one repetition at 1/20 of the counts
  --out FILE     also write the report as JSON, for --compare
  --compare      improved / unchanged / regressed / unresolved per (metric, workload)
  --dump-requests  write each workload's warm-up and window as JSONL (`skild < file`)
  --regen-expected rewrite benchmark/expected/ from the reference AST walker";

/// Variables that would make `skild` a different program.
const FORBIDDEN_ENV: [&str; 6] = [
    "SKIL_SCHEDULER",
    "SKIL_WORKER_THREADS",
    "SKIL_COLLECTIVE_ALGO",
    "SKIL_TASK_STACK",
    "SKIL_MAX_HOST_THREADS",
    "SKIL_NATIVE_RUSTC",
];

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    skild: Option<PathBuf>,
    scratch: Option<PathBuf>,
    dump_requests: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    regen_expected: bool,
    help: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, Error> {
    let mut args = Args { seed: 1, seconds: DEFAULT_SECONDS as f64, ..Args::default() };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs a whole number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value()?.into()),
            "--skild" => args.skild = Some(value()?.into()),
            "--scratch" => args.scratch = Some(value()?.into()),
            "--dump-requests" => args.dump_requests = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            "--regen-expected" => args.regen_expected = true,
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if let Some(name) = &args.workload {
        if workload(name).is_none() {
            return Err(format!("unknown workload `{name}` (one of {WORKLOAD_NAMES:?})"));
        }
    }
    Ok(args)
}

impl Args {
    fn workloads(&self) -> Vec<Workload> {
        WORKLOAD_NAMES
            .iter()
            .filter(|name| self.workload.as_deref().is_none_or(|w| w == **name))
            .map(|name| workload(name).expect("known workload"))
            .collect()
    }

    /// What the frozen request counts are multiplied by.
    fn scale(&self) -> f64 {
        self.seconds / DEFAULT_SECONDS as f64 * if self.smoke { 0.05 } else { 1.0 }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Refuse to measure a different program than the one the numbers name.
fn preflight(skild: &Path) -> Result<(), Error> {
    for name in FORBIDDEN_ENV {
        if std::env::var_os(name).is_some() {
            return Err(format!("{name} is set: it changes what skild does; unset it"));
        }
    }
    if !skild.is_file() {
        return Err(format!(
            "{} is missing; run benchmark/run.sh, which builds it",
            skild.display()
        ));
    }
    if !skild.components().any(|c| c.as_os_str() == "release") {
        return Err(format!("{} is not a release build", skild.display()));
    }
    Ok(())
}

fn dump_requests(args: &Args, dir: &Path) -> Result<(), Error> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let clients = clients();
    for w in args.workloads() {
        let warmup = w.warmup_requests(args.seed, clients);
        let window = w.window_requests(args.seed, w.whole_decks(w.requests, args.scale()));
        for (phase, requests) in [("warmup", warmup), ("window", window)] {
            let path = dir.join(format!("{}.{phase}.jsonl", w.name));
            let text: String = requests.iter().map(|r| format!("{}\n", r.line)).collect();
            std::fs::write(&path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("wrote {} ({} lines)", path.display(), requests.len());
        }
    }
    Ok(())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Closed-loop clients and `skild --threads`: one per core, at most 4.
fn clients() -> usize {
    nproc().min(4)
}

fn print_metric(workload: &str, name: &str, value: String, unit: &str, note: &str) {
    println!("{workload:<14} {name:<34} {value:>16} {unit:<14}{note}");
}

fn measure(args: &Args) -> Result<bool, Error> {
    let skild = args.skild.clone().ok_or("--skild is required (use benchmark/run.sh)")?;
    let scratch = args.scratch.clone().ok_or("--scratch is required (use benchmark/run.sh)")?;
    // Everything the run writes goes under `scratch`, the temporaries
    // of the `rustc` that the native engine runs included.
    let tmp = scratch.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let scratch = scratch.canonicalize().map_err(|e| format!("{}: {e}", scratch.display()))?;
    std::env::set_var("TMPDIR", scratch.join("tmp"));
    preflight(&skild)?;
    let selected = args.workloads();
    let (end_to_end, traced) = (args.trace != Some(true), args.trace != Some(false));
    let plan = Plan {
        skild: &skild,
        scratch: &scratch,
        clients: clients(),
        repetitions: if args.smoke { 1 } else { REPETITIONS },
        seed: args.seed,
        scale: args.scale(),
    };

    let counts: Vec<String> = selected
        .iter()
        .map(|w| format!("{}={}", w.name, w.whole_decks(w.requests, plan.scale)))
        .collect();
    let header = [
        ("nproc", nproc().to_string()),
        ("clients", plan.clients.to_string()),
        ("commit", command_line("git", &["rev-parse", "--short", "HEAD"])),
        ("rustc", command_line("rustc", &["--version"])),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("repetitions", plan.repetitions.to_string()),
        ("requests_per_repetition", counts.join(" ")),
    ];
    for (key, value) in &header {
        println!("# {key}: {value}");
    }

    // The probes are the native preflight of a traced run; an untraced
    // one that sends native requests checks the engine by itself.
    let probes = if traced {
        Some(probes::run(&scratch)?)
    } else {
        if selected.iter().flat_map(|w| &w.classes).any(|c| c.engine == Engine::Native) {
            probes::native_prepare_cold_s(&NativeCache::fresh(&scratch, "preflight")?)?;
        }
        None
    };

    let mut reports = Vec::new();
    for w in &selected {
        let expected = Expected::load(w)?;
        let mut report = WorkloadReport {
            name: w.name,
            requests: w.whole_decks(w.requests, plan.scale),
            end_to_end: None,
            per_layer: None,
            checked: Checked::default(),
        };
        if end_to_end {
            let (reps, checked) = daemon::run(&plan, w, &expected)?;
            report.end_to_end = Some(reps);
            report.checked.absorb(checked);
            for (name, unit, s) in report.summaries() {
                let note = format!("(min {:.4}, max {:.4}, n={})", s.min, s.max, s.n);
                print_metric(w.name, name, format!("{:.4}", s.median), unit, &note);
            }
        }
        if let Some(probes) = &probes {
            let (mut per_layer, checked) = trace::run(&plan, w, &expected)?;
            per_layer.extend(probes);
            report.checked.absorb(checked);
            for (name, unit, _) in PER_LAYER {
                let value = per_layer.get(name).ok_or(format!("`{name}` was not measured"))?;
                print_metric(w.name, name, format!("{value:.4}"), unit, "");
            }
            assert_eq!(per_layer.len(), PER_LAYER.len(), "a metric outside metrics::PER_LAYER");
            report.per_layer = Some(per_layer);
        }
        let c = report.checked;
        let note = format!("({} of {} responses wrong)", c.failed, c.attempted);
        print_metric(w.name, "fail_share", format!("{:.6}", report.fail_share()), "ratio", &note);
        reports.push(report);
    }

    if let Some(path) = &args.out {
        let text = format!("{}\n", report::to_json(&header, &reports));
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("# report: {}", path.display());
    }
    let (line, total) = report::result_line(&reports);
    println!("{line}");
    Ok(total.failed == 0)
}

fn run(argv: &[String]) -> Result<bool, Error> {
    // (how `probes` re-runs this program; not for the command line)
    if argv.first().is_some_and(|a| a == "--native-warm-probe") {
        println!("{}", probes::native_ready_seconds()? * 1e6);
        return Ok(true);
    }
    let args = parse_args(argv)?;
    if args.help {
        println!("{USAGE}");
        Ok(true)
    } else if args.regen_expected {
        expected::regenerate(&Path::new(env!("CARGO_MANIFEST_DIR")).join("expected"))?;
        println!("rebuild (benchmark/run.sh does) to embed the new answers");
        Ok(true)
    } else if let Some((a, b)) = &args.compare {
        let read =
            |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
        report::compare(&read(a)?, &read(b)?)
    } else if let Some(dir) = &args.dump_requests {
        dump_requests(&args, dir).map(|()| true)
    } else {
        measure(&args)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("skil-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, Error> {
        parse_args(&line.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let a = args("--workload kernel --seed 9 --seconds 15 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("kernel"), 9, 15.0, Some(true))
        );
        assert_eq!(a.workloads().len(), 1);
        assert_eq!(args("").unwrap().workloads().len(), 4);
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--frobnicate").is_err());
        // run.sh puts --skild and --scratch first; the modes still parse.
        let c = args("--skild s --scratch t --compare a.json b.json").unwrap();
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
        assert!(args("--compare a.json").is_err());
        assert!(args("--skild s --scratch t --regen-expected").unwrap().regen_expected);
    }

    #[test]
    fn smoke_is_a_twentieth_of_the_requests() {
        let a = args("--smoke").unwrap();
        let w = workload("hot_small").unwrap();
        assert_eq!(w.whole_decks(w.requests, a.scale()), w.requests / 20);
        assert_eq!(
            w.whole_decks(w.requests, args("--seconds 30").unwrap().scale()),
            2 * w.requests
        );
    }

    #[test]
    fn end_to_end_names_line_up_with_a_repetition() {
        use metrics::END_TO_END;
        let rep: daemon::Repetition = [0.0; END_TO_END.len()];
        assert_eq!(rep.len(), 6);
        assert_eq!(END_TO_END[0].0, "throughput_rps");
        assert_eq!(END_TO_END[5].0, "setup_s");
    }
}
