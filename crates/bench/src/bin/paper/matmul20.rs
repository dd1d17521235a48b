//! Reproduce the paper's §5.1 aside: "We have done the comparison
//! between equally optimized C and Skil versions of the matrix
//! multiplication algorithm, and obtained Skil times around 20 % slower
//! than direct C times."
//!
//! Run with `cargo run --release -p skil-bench --bin paper -- matmul20`.

use skil_bench::matmul20;
use skil_bench::paper::PAPER_MATMUL_SKIL_OVER_C;

pub fn run() {
    println!("Matmul comparison: Skil gen_mult vs. equally optimized Parix-C\n");
    println!(
        "{:>6} {:>6} {:>10} {:>10} {:>8} {:>8}",
        "grid", "n", "Skil s", "C s", "ratio", "[paper]"
    );
    for (side, n) in [(2usize, 128usize), (4, 256), (4, 512), (8, 512)] {
        let (skil, c) = matmul20(side, n);
        println!(
            "{:>6} {:>6} {:>10.3} {:>10.3} {:>8.3} {:>8.2}",
            format!("{side}x{side}"),
            n,
            skil,
            c,
            skil / c,
            PAPER_MATMUL_SKIL_OVER_C
        );
    }
    println!("\nShape check: the ratio stays around 1.2 across configurations.");
}
