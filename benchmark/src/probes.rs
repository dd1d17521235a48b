//! Layer probes: direct Rust calls into `skil-runtime`, `skil-core`,
//! `skil-apps` and the native engine's set-up, at the sizes the
//! workloads use. They do not depend on the workload and run once per
//! process.
//!
//! From outside, the time of an engine run cannot be split between
//! interpretation, skeleton and data plane. These probes bracket it: a
//! `core.*` probe is the skeleton with a native closure, an `apps.*`
//! probe is a whole program hand-written over `skil-core`, and a
//! `runtime.*` probe is the data plane alone.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use skil_apps::quicksort::quicksort_ops;
use skil_apps::{gauss_skil_pivot, shpaths_skil};
use skil_array::{ArraySpec, Index};
use skil_core::{
    array_broadcast_part, array_copy, array_create, array_fold, array_gen_mult, array_map,
    array_scan, divide_conquer, farm, Kernel,
};
use skil_lang::{compile_opt, OptLevel};
use skil_runtime::{Distr, Machine, MachineConfig, Proc, Topology, Wire};

use crate::daemon::{Error, NativeCache};
use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::empty_run_us;

const TAG: u64 = 0x0b0b;

/// Median µs of `f` over `reps` calls, after one call to warm it up.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// µs per operation inside a run: `body(p, k)` sets up and then does the
/// operation `k` times on every processor; running it with `3k` and with
/// `k` and dividing the difference by `2k` cancels the set-up and the
/// per-run floor exactly.
fn per_op_us(machine: &Machine, k: usize, body: impl Fn(&mut Proc<'_>, usize) + Sync) -> f64 {
    let run = |ops: usize| median_us(9, || drop(black_box(machine.run(|p| body(p, ops)))));
    (run(3 * k) - run(k)) / (2 * k) as f64
}

fn mesh(rows: usize, cols: usize) -> Machine {
    Machine::new(MachineConfig::mesh(rows, cols).expect("mesh"))
}

/// A two-processor ping-pong: µs per round trip of two messages.
fn ping_pong<T: Wire + Clone + Sync>(machine: &Machine, payload: T) -> f64 {
    per_op_us(machine, 500, |p, k| {
        let peer = 1 - p.id();
        for _ in 0..k {
            if p.id() == 0 {
                p.send(peer, TAG, &payload);
                black_box(p.recv::<T>(peer, TAG));
            } else {
                black_box(p.recv::<T>(peer, TAG));
                p.send(peer, TAG, &payload);
            }
        }
    })
}

fn runtime(m: &mut Metrics) {
    for (new_us, empty_us, rows, cols) in [
        ("runtime.machine_new_us.2x2", "runtime.empty_run_us.2x2", 2, 2),
        ("runtime.machine_new_us.4x4", "runtime.empty_run_us.4x4", 4, 4),
        ("runtime.machine_new_us.8x8", "runtime.empty_run_us.8x8", 8, 8),
    ] {
        // Built machines are kept until after the timing: dropping one
        // joins its worker threads, which is not what a request pays.
        let mut built = Vec::new();
        m.insert(new_us, median_us(15, || built.push(mesh(rows, cols))));
        m.insert(empty_us, empty_run_us(&built[0], 300));
    }

    let pair = mesh(1, 2);
    m.insert("runtime.msg_inline_ns", ping_pong(&pair, (7u64, 9u64)) * 1e3 / 2.0);
    m.insert("runtime.msg_heap_ns", ping_pong(&pair, vec![1u8; 2048]) * 1e3 / 2.0);

    // 64 processors each pass a word to the next: one op is 64 messages.
    let ring = per_op_us(&mesh(8, 8), 20, |p, k| {
        let (next, prev) = ((p.id() + 1) % 64, (p.id() + 63) % 64);
        for _ in 0..k {
            p.send(next, TAG, &(p.id() as u64));
            black_box(p.recv::<u64>(prev, TAG));
        }
    });
    m.insert("runtime.ring64_ns_per_msg", ring * 1e3 / 64.0);

    let allreduce = |machine: &Machine| {
        per_op_us(machine, 50, |p, k| {
            for _ in 0..k {
                black_box(p.allreduce(TAG, p.id() as u64, |a, b| a + b, 1));
            }
        })
    };
    let hypercube = Topology::parse("hypercube:16").expect("topology");
    m.insert("runtime.allreduce_us.mesh4x4", allreduce(&mesh(4, 4)));
    m.insert(
        "runtime.allreduce_us.hypercube16",
        allreduce(&Machine::new(MachineConfig::on_topology(hypercube).expect("hypercube"))),
    );
    m.insert(
        "runtime.broadcast_2k_us.mesh4x4",
        per_op_us(&mesh(4, 4), 30, |p, k| {
            for _ in 0..k {
                let payload = (p.id() == 0).then(|| vec![1u8; 2048]);
                black_box(p.broadcast(0, TAG, payload));
            }
        }),
    );

    // Tuples take the per-element path that struct payloads take (a
    // `Vec<f64>` would be one block copy and measure `memcpy`).
    let rows: Vec<(u64, f64)> = (0..32 * 1024).map(|i| (i, i as f64)).collect();
    let bytes = rows.to_bytes();
    let mb = bytes.len() as f64 / 1e6;
    m.insert(
        "runtime.wire_encode_mb_s",
        mb / (median_us(15, || drop(black_box(rows.to_bytes()))) / 1e6),
    );
    let decode = || drop(black_box(Vec::<(u64, f64)>::from_bytes(&bytes).expect("decodes")));
    m.insert("runtime.wire_decode_mb_s", mb / (median_us(15, decode) / 1e6));
}

fn core(m: &mut Metrics) {
    let small = mesh(2, 2);
    let int_1d = |p: &mut Proc<'_>, n| {
        array_create(p, ArraySpec::d1(n, Distr::Default), Kernel::free(|ix: Index| ix[0] as u64))
            .expect("create")
    };
    let int_2d = |p: &mut Proc<'_>, n, fill: u64| {
        array_create(p, ArraySpec::d2(n, n, Distr::Torus2d), Kernel::free(move |_| fill))
            .expect("create")
    };

    // mandelbrot's grid, without mandelbrot's kernel.
    m.insert(
        "core.create_us",
        per_op_us(&small, 20, |p, k| {
            for _ in 0..k {
                black_box(int_2d(p, 64, 1));
            }
        }),
    );
    // horner's array, without horner's kernel.
    m.insert(
        "core.map_us",
        per_op_us(&small, 50, |p, k| {
            let a = int_1d(p, 512);
            let mut b = int_1d(p, 512);
            for _ in 0..k {
                array_map(p, Kernel::free(|&v: &u64, _| v + 1), &a, &mut b).expect("map");
            }
        }),
    );
    // One rung of fold_ladder on 4x4.
    m.insert(
        "core.fold_us",
        per_op_us(&mesh(4, 4), 50, |p, k| {
            let a = int_1d(p, 64);
            for _ in 0..k {
                let conv = Kernel::free(|&v: &u64, _| v);
                black_box(array_fold(p, conv, Kernel::free(|x: u64, y| x + y), &a).expect("fold"));
            }
        }),
    );
    // prefix_stats on 8x8: the scan walks all 64 processors.
    m.insert(
        "core.scan_us",
        per_op_us(&mesh(8, 8), 10, |p, k| {
            let a = int_1d(p, 64);
            let mut b = int_1d(p, 64);
            for _ in 0..k {
                array_scan(p, Kernel::free(|x: u64, y| x + y), &a, &mut b).expect("scan");
            }
        }),
    );
    // shortest_paths n=64 on 2x2 copies twice per squaring.
    m.insert(
        "core.copy_us",
        per_op_us(&small, 50, |p, k| {
            let a = int_2d(p, 64, 1);
            let mut b = int_2d(p, 64, 0);
            for _ in 0..k {
                array_copy(p, &a, &mut b).expect("copy");
            }
        }),
    );
    // gauss n=16 on 4x4: the 16 x 17 pivot array, one row per processor.
    m.insert(
        "core.broadcast_part_us",
        per_op_us(&mesh(4, 4), 30, |p, k| {
            let spec = ArraySpec::d2(16, 17, Distr::Default);
            let mut piv = array_create(p, spec, Kernel::free(|_| 0.5f64)).expect("create");
            for i in 0..k {
                array_broadcast_part(p, &mut piv, [i % 16, 0]).expect("broadcast_part");
            }
        }),
    );
    let gen_mult = |machine: &Machine, n, k| {
        per_op_us(machine, k, |p, k| {
            let (a, b) = (int_2d(p, n, 3), int_2d(p, n, 4));
            let mut c = int_2d(p, n, u64::MAX);
            for _ in 0..k {
                let plus = Kernel::free(|x: &u64, y: &u64| x.saturating_add(*y));
                array_gen_mult(p, &a, &b, Kernel::free(u64::min), plus, &mut c).expect("gen_mult");
            }
        })
    };
    m.insert("core.gen_mult_us.n16_8x8", gen_mult(&mesh(8, 8), 16, 3));
    m.insert("core.gen_mult_us.n64_2x2", gen_mult(&small, 64, 2));
    // farm_sweep: 16 tasks of 100 iterations.
    m.insert(
        "core.farm_us",
        per_op_us(&small, 30, |p, k| {
            for _ in 0..k {
                let tasks = (p.id() == 0).then(|| (1u64..=16).collect::<Vec<_>>());
                let score = |&t: &u64| (0..100).fold(t, |x, _| (x * 3 + 7) % 1000);
                black_box(farm(p, 0, tasks, Kernel::free(score)).expect("farm"));
            }
        }),
    );
    // quicksort: 32 elements through divide&conquer.
    m.insert(
        "core.dc_us",
        per_op_us(&small, 30, |p, k| {
            for _ in 0..k {
                let list = (p.id() == 0).then(|| (0..32).map(|i| (i * 37) % 29).collect());
                black_box(divide_conquer(p, list, &mut quicksort_ops(1)).expect("d&c"));
            }
        }),
    );
}

fn apps(m: &mut Metrics) {
    // The two paper programs hand-written over skil-core, at the sizes
    // message_bound serves them: `engine.vm_run_us` of the same program
    // minus this is the price of interpretation.
    let (big, mid) = (mesh(8, 8), mesh(4, 4));
    m.insert(
        "apps.shpaths_n16_8x8_us",
        median_us(15, || drop(black_box(shpaths_skil(&big, 16, 1)))),
    );
    m.insert(
        "apps.gauss_n16_4x4_us",
        median_us(15, || drop(black_box(gauss_skil_pivot(&mid, 16, 1)))),
    );
}

/// Seconds `native_ready()` takes with no artifact in `cache`: emit,
/// `rustc`, `dlopen`. Doubles as the preflight: `Err` means the native
/// engine does not work here, and every `native` request would silently
/// run on the VM.
pub fn native_prepare_cold_s(cache: &NativeCache) -> Result<f64, Error> {
    std::env::set_var("SKIL_NATIVE_CACHE_DIR", &cache.0);
    native_ready_seconds()
}

/// Median µs `native_ready()` takes once the artifact is in `cache`:
/// emit, hash, `dlopen`. This process has the module loaded by now, so
/// only a new one can find it on disk; `--native-warm-probe` prints the
/// µs its own call took.
fn native_prepare_warm_us(cache: &NativeCache) -> Result<f64, Error> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let warm: Vec<f64> = (0..5)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .arg("--native-warm-probe")
                .env("SKIL_NATIVE_CACHE_DIR", &cache.0)
                .output()
                .map_err(|e| format!("cannot re-run {}: {e}", exe.display()))?;
            let text = String::from_utf8_lossy(&out.stdout);
            text.trim().parse::<f64>().map_err(|_| {
                format!("warm native probe failed: {}", String::from_utf8_lossy(&out.stderr))
            })
        })
        .collect::<Result<_, Error>>()?;
    Ok(median(&warm))
}

/// Seconds `native_ready()` takes on a freshly compiled probe program,
/// wherever `SKIL_NATIVE_CACHE_DIR` points.
pub fn native_ready_seconds() -> Result<f64, Error> {
    let src = "int sq(Index ix) { return ix[0] * ix[0]; } int conv(int v, Index ix) { return v; } \
               void main() { \
               array<int> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, sq, DISTR_DEFAULT); \
               int s = array_fold(conv, (+), a); if (procId == 0) { print(s); } }";
    let compiled = compile_opt(src, OptLevel::default()).map_err(|e| e.to_string())?;
    let t = Instant::now();
    compiled.native_ready().map_err(|e| format!("the native engine is not usable here: {e}"))?;
    Ok(t.elapsed().as_secs_f64())
}

/// Every workload-independent per-layer metric.
pub fn run(scratch: &Path) -> Result<Metrics, Error> {
    let mut m = Metrics::new();
    let cache = NativeCache::fresh(scratch, "probe")?;
    m.insert("engine.native_prepare_cold_s", native_prepare_cold_s(&cache)?);
    m.insert("engine.native_prepare_warm_us", native_prepare_warm_us(&cache)?);
    runtime(&mut m);
    core(&mut m);
    apps(&mut m);
    Ok(m)
}
