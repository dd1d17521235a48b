//! # skil-bench
//!
//! The reproduction harness behind the `paper` binary, one subcommand
//! per table, figure or aside of the paper's §5 (and two extensions):
//!
//! * `table1` — shortest paths, Skil vs. DPFL vs. old Parix-C;
//! * `table2` — Gaussian elimination (no-pivot), Skil absolute times,
//!   DPFL/Skil speed-ups, Skil/Parix-C slow-downs;
//! * `figure1` — the Table 2 ratios plotted against processors;
//! * `matmul20` — the §5.1 "equally optimized" matmul comparison;
//! * `gauss_pivot_ratio` — the §5.2 complete-vs-reduced gauss factor;
//! * `ablation` — the cost-model ablations DESIGN.md calls out;
//! * `pde` — the §6 halo extension on Jacobi relaxation;
//! * `trace_report` — metrics and Chrome-trace exports of the two
//!   headline applications.
//!
//! Every subcommand prints the paper's reported numbers next to the
//! simulated ones so the shape comparison is immediate. All of them
//! report virtual time only: host speed is measured by `benchmark/`.

#![warn(missing_docs)]

pub mod experiments;
pub mod paper;
pub mod table;

pub use experiments::*;
