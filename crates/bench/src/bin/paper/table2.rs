//! Reproduce the paper's **Table 2**: Gaussian elimination (the version
//! without pivot search/exchange, matching the DPFL implementation) for
//! n in 64..=640 on 2×2, 4×4, 8×4 and 8×8 meshes.
//!
//! Run with `cargo run --release -p skil-bench --bin paper -- table2`.

use skil_bench::paper::PAPER_TABLE2;
use skil_bench::table::{f, fo, header, row};
use skil_bench::table2;

pub fn run() {
    println!(
        "Table 2 reproduction: Gaussian elimination without pivoting \
         (simulated T800 mesh)"
    );
    println!("bold = Skil absolute seconds; roman = DPFL/Skil; italics = Skil/C\n");
    let meshes = [(2usize, 2usize), (4, 4), (8, 4), (8, 8)];
    let ns = [64usize, 128, 256, 384, 512, 640];
    let cells = table2(&meshes, &ns);
    header(&["mesh", "n", "Skil s", "[Skil]", "DPFL/Skil", "[quot]", "Skil/C", "[quot]"]);
    for c in &cells {
        let paper = PAPER_TABLE2.iter().find(|p| p.mesh == c.mesh && p.n == c.n);
        row(&[
            format!("{}x{}", c.mesh.0, c.mesh.1),
            c.n.to_string(),
            f(c.skil),
            fo(paper.map(|p| p.skil)),
            f(c.dpfl_over_skil()),
            fo(paper.and_then(|p| p.dpfl_over_skil)),
            f(c.skil_over_c()),
            fo(paper.map(|p| p.skil_over_c)),
        ]);
    }
    println!(
        "\nShape checks: DPFL/Skil grouped around 6 when compute-bound, sagging \
         on large networks / small n; Skil/C around 2-2.6 on 2x2, approaching 1 \
         on 8x8. (The 2x2 rows at n >= 512 exceeded the real machine's 1 MB \
         per node; the simulator has no such limit.)"
    );
}
