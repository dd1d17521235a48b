//! `paper` — the paper's experiments on the simulated T800 mesh, one
//! subcommand each:
//!
//! ```text
//! paper table1 | table2 | figure1 | matmul20 | gauss_pivot_ratio | ablation | pde
//! paper trace_report [--out-dir DIR] [--faults SPEC]
//! ```
//!
//! Every subcommand prints virtual time only, so its output is a pure
//! function of the cost model: run it twice and diff to check.

use std::process::ExitCode;

mod ablation;
mod figure1;
mod gauss_pivot_ratio;
mod matmul20;
mod pde;
mod table1;
mod table2;
mod trace_report;

const USAGE: &str = "usage: paper <table1|table2|figure1|matmul20|gauss_pivot_ratio|ablation|pde>
       paper trace_report [--out-dir DIR] [--faults SPEC]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let run: fn() = match cmd.as_str() {
        "trace_report" => return trace_report::run(rest),
        "table1" => table1::run,
        "table2" => table2::run,
        "figure1" => figure1::run,
        "matmul20" => matmul20::run,
        "gauss_pivot_ratio" => gauss_pivot_ratio::run,
        "ablation" => ablation::run,
        "pde" => pde::run,
        other => {
            eprintln!("paper: unknown subcommand {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !rest.is_empty() {
        eprintln!("paper {cmd} takes no arguments (got {rest:?})");
        return ExitCode::from(2);
    }
    run();
    ExitCode::SUCCESS
}
