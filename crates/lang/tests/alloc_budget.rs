//! The front end's allocation budget, held by counts rather than
//! timings: heap allocations made by one `compile_opt` and bytes still
//! live after it, for the five sources the benchmark's `cold_compile`
//! workload sweeps.
//!
//! The ceilings are 0.4x (allocations) and 0.5x (retained bytes) of what
//! the String-named, clone-per-call-site front end measured on the same
//! sources. The counters are per thread: the test harness's own threads
//! allocate too, whenever they like.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use skil_lang::{compile_opt, OptLevel};

struct Counting;

thread_local! {
    /// Allocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Count `allocs` allocations and `bytes` more live bytes for this
/// thread (not at all while the thread is being torn down).
fn count(allocs: u64, bytes: i64) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are `const`-initialized thread-locals without destructors, so
// touching them allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(1, l.size() as i64);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        count(0, -(l.size() as i64));
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        count(1, new as i64 - l.size() as i64);
        System.realloc(p, l, new)
    }
}

#[global_allocator]
static A: Counting = Counting;

/// A `benchmark/programs` template as `cold_compile` sends it: header
/// comment dropped, placeholders filled, one constant spliced into
/// `main`.
fn source(text: &str, params: &[(&str, &str)]) -> String {
    let mut src = text.split_once("\n\n").expect("header ends at a blank line").1.to_string();
    for (placeholder, value) in params {
        src = src.replace(placeholder, value);
    }
    assert!(!src.contains("__"), "a placeholder was left unfilled");
    src.replacen("void main() {", "void main() { if (procId == 0) { print(123456789); }", 1)
}

/// (name, source, allocations at the parent, retained bytes at the parent)
fn cases() -> Vec<(&'static str, String, u64, u64)> {
    macro_rules! program {
        ($stem:literal) => {
            include_str!(concat!("../../../benchmark/programs/", $stem, ".skil"))
        };
    }
    vec![
        (
            "farm_sweep",
            source(program!("farm_sweep"), &[("__TASKS__", "4"), ("__ITERS__", "10")]),
            2_019,
            20_036,
        ),
        ("prefix_stats", source(program!("prefix_stats"), &[("__N__", "16")]), 2_906, 34_836),
        ("quicksort", source(program!("quicksort"), &[("__LEN__", "8")]), 4_522, 27_849),
        ("shortest_paths", source(program!("shortest_paths"), &[("__N__", "8")]), 3_384, 39_539),
        ("gauss", source(program!("gauss"), &[("__N__", "4")]), 9_119, 84_943),
    ]
}

#[test]
fn compile_allocates_in_proportion_to_its_output() {
    for (name, src, parent_allocs, parent_retained) in cases() {
        // once unmeasured: process-wide tables (the builtin environment)
        // are built by the first compile and belong to no program
        drop(compile_opt(&src, OptLevel::default()).expect("compiles"));

        let (allocs0, live0) = (ALLOCS.get(), LIVE.get());
        let compiled = compile_opt(&src, OptLevel::default()).expect("compiles");
        let allocs = ALLOCS.get() - allocs0;
        let retained = u64::try_from(LIVE.get() - live0).expect("a compile frees only its own");
        println!(
            "{name}: {} B source, {allocs} allocations (parent {parent_allocs}), \
             {retained} B retained (parent {parent_retained}), heap_bytes {}",
            src.len(),
            compiled.heap_bytes()
        );

        assert!(
            allocs * 10 <= parent_allocs * 4,
            "{name}: {allocs} allocations per compile, ceiling 0.4 x {parent_allocs}"
        );
        assert!(
            retained * 10 <= parent_retained * 5,
            "{name}: {retained} B retained per program, ceiling 0.5 x {parent_retained}"
        );
        // `heap_bytes` is what the serving layer will budget the cache
        // by; it must track what the allocator really holds
        let reported = compiled.heap_bytes() as u64;
        assert!(
            reported.abs_diff(retained) * 10 <= retained,
            "{name}: heap_bytes() says {reported}, the allocator holds {retained}"
        );
    }
}
