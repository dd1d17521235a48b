//! Steady-state allocations per message for inline (≤ 64-byte payload)
//! versus heap envelopes, on both task substrates.
//!
//! A counting `#[global_allocator]` measures two runs of different
//! message counts on one machine; the difference divided by the extra
//! messages is the allocations **per message**, with every per-run
//! fixed cost cancelled. Inline envelopes ride the scratch-buffer pool
//! and must allocate at least half an allocation per message less than
//! heap envelopes (which pay at least the `Arc` control block). Counts
//! repeat exactly, so this holds the data plane's allocation gain where
//! a timing could not. This binary has one test, so no other test's
//! allocations reach the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use skil_runtime::{Machine, MachineConfig, SchedulerKind};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a static atomic, so bumping it allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `Vec<u8>` lengths whose encodings (8-byte length prefix + data) land
/// on either side of the 64-byte inline-envelope boundary.
const INLINE_LEN: usize = 32; // 40-byte payload: inline
const HEAP_LEN: usize = 120; // 128-byte payload: heap

const MSGS: usize = 512;

/// Stream `msgs` messages of `len`-byte vectors 0→1 on `m`, returning a
/// checksum so the traffic cannot be optimized away.
fn stream(m: &Machine, msgs: usize, len: usize) -> u64 {
    let run = m.run(move |p| {
        if p.id() == 0 {
            let v = vec![0xA5u8; len];
            for _ in 0..msgs {
                p.send(1, 7, &v);
            }
            0u64
        } else {
            let mut acc = 0u64;
            for _ in 0..msgs {
                let v: Vec<u8> = p.recv(0, 7);
                acc = acc.wrapping_add(v.len() as u64);
            }
            acc
        }
    });
    run.results[1]
}

/// Steady-state allocations per message: diff two runs so every
/// per-run fixed cost (tasks, threads, mailboxes, reports) cancels.
fn allocs_per_msg(m: &Machine, len: usize) -> f64 {
    let count = |msgs: usize| {
        let before = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(stream(m, msgs, len), (msgs * len) as u64);
        ALLOCS.load(Ordering::Relaxed) - before
    };
    let _warm = count(MSGS); // populate the machine's run arena
    let small = count(MSGS);
    let large = count(8 * MSGS);
    (large.saturating_sub(small)) as f64 / (7 * MSGS) as f64
}

#[test]
fn inline_envelopes_allocate_less_per_message_than_heap_ones() {
    for kind in [SchedulerKind::Event, SchedulerKind::Threads] {
        let m = Machine::new(MachineConfig::mesh(1, 2).unwrap().with_scheduler(kind));
        let inline = allocs_per_msg(&m, INLINE_LEN);
        let heap = allocs_per_msg(&m, HEAP_LEN);
        println!("{kind:?}: inline {inline:.2} allocs/msg, heap {heap:.2} allocs/msg");
        // The receiver decodes a fresh Vec either way; the envelope
        // itself must be alloc-free inline and ≥ 1 (the Arc) on heap.
        assert!(
            inline + 0.5 < heap,
            "{kind:?}: inline envelopes ({inline:.2}/msg) must allocate less than heap ({heap:.2}/msg)"
        );
        assert!(inline <= 2.0, "{kind:?}: inline steady state regressed to {inline:.2} allocs/msg");
    }
}
