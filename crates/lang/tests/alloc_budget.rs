//! Allocation budgets, held by counts rather than timings.
//!
//! The front end's: heap allocations made by one `compile_opt` and bytes
//! still live after it, for the five sources the benchmark's
//! `cold_compile` workload sweeps. The ceilings are 0.4x (allocations)
//! and 0.5x (retained bytes) of what the String-named,
//! clone-per-call-site front end measured on the same sources.
//!
//! The engine's: allocations of a second, warm run on a one-worker
//! machine, for three of the benchmark's `message_bound` programs. A
//! warm skeleton call allocates nothing — the VM keeps its argument
//! buffers per processor, readied argument functions borrow theirs, and
//! `array_gen_mult` decodes each rotated block into the one it owns — so
//! 200 folds allocate no more than 100 do. And for `hot_small`'s two
//! list programs on 2x2: a list takes a heap chunk per run of in-place
//! pushes, not a cell per element, so the ceilings are 0.55x of the
//! cell-per-`cons` counts; quicksort's, now that its argument functions
//! run as typed code over lists, is the 403 the generic loop made.
//!
//! The counters are per thread (a one-worker machine runs every
//! processor on the calling thread): the test harness's own threads
//! allocate too, whenever they like.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use skil_lang::{compile, compile_opt, Engine, OptLevel};
use skil_runtime::{Machine, MachineConfig};

#[path = "../../../tests/support/invariant.rs"]
mod invariant;

use invariant::{hosts, observe};

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

/// A `benchmark/programs` template as `message_bound` sends it: header
/// comment dropped, placeholders filled.
fn template(text: &str, params: &[(&str, &str)]) -> String {
    let mut src = text.split_once("\n\n").expect("header ends at a blank line").1.to_string();
    for (placeholder, value) in params {
        src = src.replace(placeholder, value);
    }
    assert!(!src.contains("__"), "a placeholder was left unfilled");
    src
}

/// A template as `cold_compile` sends it: one constant spliced into
/// `main` as well.
fn source(text: &str, params: &[(&str, &str)]) -> String {
    template(text, params).replacen(
        "void main() {",
        "void main() { if (procId == 0) { print(123456789); }",
        1,
    )
}

macro_rules! program {
    ($stem:literal) => {
        include_str!(concat!("../../../benchmark/programs/", $stem, ".skil"))
    };
}

/// (name, source, allocations at the parent, retained bytes at the parent)
fn cases() -> Vec<(&'static str, String, u64, u64)> {
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

/// Allocations of the second of two runs of `src` under `engine` on a
/// one-worker `rows x cols` machine: the first warms the machine's run
/// arena, and both observe the same.
fn warm_run_allocs(src: &str, engine: Engine, rows: usize, cols: usize) -> u64 {
    let compiled = compile(src).expect("compiles");
    if engine == Engine::Native {
        // without a module the run would fall back to the VM and pass
        compiled.native_ready().expect("the native engine runs on this host");
    }
    let (_, cfg) = hosts::host(1, MachineConfig::mesh(rows, cols).unwrap());
    let machine = Machine::new(cfg);
    let cold = compiled.try_run_with(engine, &machine);
    let before = ALLOCS.get();
    let warm = compiled.try_run_with(engine, &machine);
    let allocs = ALLOCS.get() - before;
    assert_eq!(observe(&warm), observe(&cold));
    allocs
}

#[test]
fn a_warm_run_allocates_nothing_per_skeleton_call() {
    let ladder = |folds| template(program!("fold_ladder"), &[("__FOLDS__", folds)]);
    let (hundred, two_hundred) = (
        warm_run_allocs(&ladder("100"), Engine::Vm, 4, 4),
        warm_run_allocs(&ladder("200"), Engine::Vm, 4, 4),
    );
    // when every skeleton call allocated: 5,052 at 100 folds, 9,852 at 200
    println!("fold_ladder 4x4: {hundred} allocations at 100 folds, {two_hundred} at 200");
    assert!(
        two_hundred <= hundred + 16,
        "100 more folds cost {} allocations",
        two_hundred.saturating_sub(hundred)
    );

    // (name, source, machine, allocations when every skeleton call
    // allocated its arguments' buffers and every rotation its block)
    let cases = [
        (
            "shortest_paths n=16 8x8",
            template(program!("shortest_paths"), &[("__N__", "16")]),
            (8, 8),
            7_503,
        ),
        ("gauss n=16 4x4", template(program!("gauss"), &[("__N__", "16")]), (4, 4), 5_455),
    ];
    for (name, src, (rows, cols), before) in cases {
        let allocs = warm_run_allocs(&src, Engine::Vm, rows, cols);
        println!("{name}: {allocs} allocations (before: {before})");
        assert!(allocs * 10 <= before * 4, "{name}: {allocs} allocations, ceiling 0.4 x {before}");
    }
}

#[test]
fn a_warm_list_run_allocates_per_chunk_not_per_element() {
    // (name, source, machine, allocations when every `cons` and every
    // decoded or joined list element took a heap cell of its own,
    // ceiling)
    let cases = [
        // quicksort's argument functions are typed register code over
        // lists: no more than the 403 of the generic loop they replace
        ("quicksort n=32 2x2", template(program!("quicksort"), &[("__LEN__", "32")]), 948, 403),
        (
            "farm_sweep 16x100 2x2",
            template(program!("farm_sweep"), &[("__TASKS__", "16"), ("__ITERS__", "100")]),
            221,
            221 * 55 / 100,
        ),
    ];
    for (name, src, before, ceiling) in cases {
        let allocs = warm_run_allocs(&src, Engine::Vm, 2, 2);
        println!("{name}: {allocs} allocations (before: {before}, ceiling {ceiling})");
        assert!(allocs <= ceiling, "{name}: {allocs} allocations, ceiling {ceiling}");
    }
}

#[test]
fn a_warm_native_run_allocates_what_the_vm_does() {
    // Argument functions run on the VM's kernel executors under both
    // engines. What the native engine adds is main's side: the host's
    // decodes of skeleton-call arguments and its callback buffers, a few
    // per processor. The module's own allocations are its allocator's
    // and not counted here, so native measured 307 to vm's 423 (and
    // 1,853 when the module ran argument functions itself, a batch
    // buffer per skeleton call).
    const MARGIN: u64 = 16;
    let src = template(program!("gauss"), &[("__N__", "16")]);
    let vm = warm_run_allocs(&src, Engine::Vm, 2, 2);
    let native = warm_run_allocs(&src, Engine::Native, 2, 2);
    println!("gauss n=16 2x2: {native} allocations under native, {vm} under vm");
    assert!(native <= vm + MARGIN, "native {native} allocations, ceiling {vm} + {MARGIN}");
}
