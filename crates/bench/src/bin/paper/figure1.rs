//! Reproduce the paper's **Figure 1**: the Table 2 ratios plotted
//! against the number of processors, one series per matrix size —
//! speed-ups Skil vs. DPFL (left panel) and slow-downs Skil vs. Parix-C
//! (right panel). Prints CSV series plus ASCII plots.
//!
//! Run with `cargo run --release -p skil-bench --bin paper -- figure1`.

use skil_bench::table::ascii_plot;
use skil_bench::table2;

pub fn run() {
    println!("Figure 1 reproduction: Gaussian elimination ratios vs. processors\n");
    let meshes = [(2usize, 2usize), (4, 4), (8, 4), (8, 8)];
    let ns = [64usize, 128, 256, 384, 512, 640];
    let cells = table2(&meshes, &ns);

    println!("csv: panel,n,processors,ratio");
    let mut speedups = Vec::new();
    let mut slowdowns = Vec::new();
    for &n in &ns {
        let mut su = Vec::new();
        let mut sd = Vec::new();
        for c in cells.iter().filter(|c| c.n == n) {
            let p = (c.mesh.0 * c.mesh.1) as f64;
            println!("speedup_vs_dpfl,{n},{p},{:.3}", c.dpfl_over_skil());
            println!("slowdown_vs_c,{n},{p},{:.3}", c.skil_over_c());
            su.push((p, c.dpfl_over_skil()));
            sd.push((p, c.skil_over_c()));
        }
        speedups.push((format!("n = {n}"), su));
        slowdowns.push((format!("n = {n}"), sd));
    }

    ascii_plot(
        "Relative speed-ups Skil vs. DPFL (paper: grouped around 6, dropping \
         below 5 for small partitions on large networks)",
        &speedups,
        60,
        16,
    );
    ascii_plot(
        "Relative slow-downs Skil vs. C (paper: mainly grouped around 2, \
         going down to ~1 for large networks)",
        &slowdowns,
        60,
        16,
    );
}
