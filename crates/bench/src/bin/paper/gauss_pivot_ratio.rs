//! Reproduce the paper's §5.2 aside: the complete Gaussian elimination
//! (with pivot search and row exchange) runs "about twice as long" as
//! the reduced version, "since it is visible from the description of the
//! implementation of the pivot search and exchange, that this brings
//! considerable communication overhead".
//!
//! Run with `cargo run --release -p skil-bench --bin paper -- gauss_pivot_ratio`.

use skil_bench::gauss_pivot_ratio;
use skil_bench::paper::PAPER_GAUSS_PIVOT_RATIO;

pub fn run() {
    println!("Gaussian elimination: complete (pivoting) vs. reduced version\n");
    println!(
        "{:>6} {:>6} {:>12} {:>12} {:>8} {:>8}",
        "procs", "n", "no-pivot s", "pivot s", "ratio", "[paper]"
    );
    for (procs, n) in [(4usize, 128usize), (16, 256), (16, 384), (64, 384)] {
        let (nopiv, piv) = gauss_pivot_ratio(procs, n);
        println!(
            "{procs:>6} {n:>6} {nopiv:>12.3} {piv:>12.3} {:>8.3} {:>8.1}",
            piv / nopiv,
            PAPER_GAUSS_PIVOT_RATIO
        );
    }
    println!("\nShape check: the ratio stays around 2.");
}
