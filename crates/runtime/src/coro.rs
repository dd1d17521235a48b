//! Stackful coroutines for the event-driven scheduler.
//!
//! Each simulated processor runs as a resumable task: an ordinary Rust
//! closure executing on its own private stack, suspended at blocking
//! points (mailbox waits) by swapping the callee-saved register context
//! back to the scheduler worker that resumed it. This is what lets one
//! host thread multiplex thousands of virtual processors — a parked
//! processor costs a few KB of touched stack instead of an OS thread.
//!
//! The context switch is the classic callee-saved-register swap
//! (x86-64 System V and AArch64 AAPCS variants below, selected by
//! target). It is a plain `extern "C"` call, so the compiler already
//! assumes caller-saved registers are clobbered; the assembly saves the
//! callee-saved set on the outgoing stack and restores it from the
//! incoming one. Panics never cross the switch boundary: every task body
//! is wrapped in `catch_unwind` *inside* the coroutine, so an unwind
//! (including the simulator's structured `SimAbort`) stays on the
//! coroutine's own stack.

use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

use crate::mailbox::Envelope;

// ---------------------------------------------------------------------------
// Context switch primitive
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
std::arch::global_asm!(
    ".text",
    // skil_coro_switch(save: *mut usize, load: *const usize)
    // Saves the current callee-saved context on the current stack,
    // stores the resulting stack pointer through `save`, then installs
    // the stack pointer read through `load` and restores its context.
    ".globl skil_coro_switch",
    ".p2align 4",
    "skil_coro_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, [rsi]",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    // First activation of a coroutine: the prepared stack "returns"
    // here with r12 = task env pointer and r13 = entry function.
    ".globl skil_coro_boot",
    ".p2align 4",
    "skil_coro_boot:",
    "mov rdi, r12",
    "call r13",
    // The entry function never returns (it parks on a final yield);
    // trap hard if that invariant is ever broken.
    "ud2",
);

#[cfg(target_arch = "aarch64")]
std::arch::global_asm!(
    ".text",
    ".globl skil_coro_switch",
    ".p2align 4",
    "skil_coro_switch:",
    "sub sp, sp, #160",
    "stp x19, x20, [sp, #0]",
    "stp x21, x22, [sp, #16]",
    "stp x23, x24, [sp, #32]",
    "stp x25, x26, [sp, #48]",
    "stp x27, x28, [sp, #64]",
    "stp x29, x30, [sp, #80]",
    "stp d8,  d9,  [sp, #96]",
    "stp d10, d11, [sp, #112]",
    "stp d12, d13, [sp, #128]",
    "stp d14, d15, [sp, #144]",
    "mov x9, sp",
    "str x9, [x0]",
    "ldr x9, [x1]",
    "mov sp, x9",
    "ldp x19, x20, [sp, #0]",
    "ldp x21, x22, [sp, #16]",
    "ldp x23, x24, [sp, #32]",
    "ldp x25, x26, [sp, #48]",
    "ldp x27, x28, [sp, #64]",
    "ldp x29, x30, [sp, #80]",
    "ldp d8,  d9,  [sp, #96]",
    "ldp d10, d11, [sp, #112]",
    "ldp d12, d13, [sp, #128]",
    "ldp d14, d15, [sp, #144]",
    "add sp, sp, #160",
    "ret",
    // First activation: x19 = task env pointer, x20 = entry function.
    ".globl skil_coro_boot",
    ".p2align 4",
    "skil_coro_boot:",
    "mov x0, x19",
    "blr x20",
    "brk #0",
);

/// Whether this build has a coroutine context switch for the target.
/// On other targets the machine falls back to the thread scheduler.
pub(crate) const SUPPORTED: bool = cfg!(any(target_arch = "x86_64", target_arch = "aarch64"));

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
extern "C" {
    fn skil_coro_switch(save: *mut usize, load: *const usize);
    fn skil_coro_boot();
}

/// Fallback stubs so non-{x86_64, aarch64} targets still compile; the
/// scheduler never constructs tasks there ([`SUPPORTED`] is false).
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
#[allow(clippy::missing_safety_doc)]
mod stubs {
    pub unsafe fn skil_coro_switch(_save: *mut usize, _load: *const usize) {
        unreachable!("coroutines unsupported on this target")
    }
    pub unsafe fn skil_coro_boot() {
        unreachable!("coroutines unsupported on this target")
    }
}
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
use stubs::{skil_coro_boot, skil_coro_switch};

// ---------------------------------------------------------------------------
// Stacks
// ---------------------------------------------------------------------------

/// Every simulated processor's stack, under either scheduler: 8 MiB for
/// a coroutine task here and for a thread-scheduler worker thread, so
/// deep divide&conquer recursion behaves identically under both. Only
/// touched pages are committed, so thousands of mostly-idle tasks cost
/// virtual address space, not RSS.
pub(crate) const STACK_SIZE: usize = 8 * 1024 * 1024;

/// Most idle stacks the process keeps: one per processor of the largest
/// machine `skild` accepts, so a pool at the cap holds what one
/// 4,096-processor run needed. Stacks past it are freed.
pub(crate) const MAX_IDLE_STACKS: usize = 4096;

/// The page a stack's top is rounded down to. 4 KiB divides every page
/// size the coroutine targets use.
const PAGE: usize = 4096;

/// A heap-allocated coroutine stack. Large allocations come from `mmap`
/// under glibc, so untouched pages stay uncommitted.
pub(crate) struct CoroStack {
    ptr: *mut u8,
    size: usize,
}

// SAFETY: the stack is plain memory with one owner at a time: a task,
// which migrates between scheduler workers only through the ready
// queue's mutex, or the process's pool, which hands stacks between
// threads only under its own mutex.
unsafe impl Send for CoroStack {}

impl CoroStack {
    pub(crate) fn new(size: usize) -> Self {
        let layout = std::alloc::Layout::from_size_align(size, 16).expect("stack layout");
        // SAFETY: layout has non-zero size.
        let ptr = unsafe { std::alloc::alloc(layout) };
        assert!(!ptr.is_null(), "coroutine stack allocation failed ({size} bytes)");
        CoroStack { ptr, size }
    }

    /// One past the highest usable address, on a page boundary: the
    /// allocator's chunk header puts the block's end a few bytes into a
    /// page, and a top there would make the first frames straddle two.
    fn top(&self) -> usize {
        (self.ptr as usize + self.size) & !(PAGE - 1)
    }
}

impl Drop for CoroStack {
    fn drop(&mut self) {
        let layout = std::alloc::Layout::from_size_align(self.size, 16).expect("stack layout");
        // SAFETY: allocated with this exact layout in `new`.
        unsafe { std::alloc::dealloc(self.ptr, layout) };
    }
}

/// The process's idle coroutine stacks, shared by every machine: a run
/// borrows one per processor and hands them back when it ends, so an
/// idle machine owns none and the stacks in existence are bounded by
/// the processors running at once (plus at most [`MAX_IDLE_STACKS`]
/// idle ones). Most recently used last, so a run gets the stacks whose
/// pages are already committed.
pub(crate) struct StackPool {
    idle: Mutex<Vec<CoroStack>>,
}

/// The one stack pool.
pub(crate) static STACKS: StackPool = StackPool { idle: Mutex::new(Vec::new()) };

impl StackPool {
    fn idle(&self) -> MutexGuard<'_, Vec<CoroStack>> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// `n` [`STACK_SIZE`] stacks: the most recently used idle ones,
    /// taken under one lock, and new ones for the rest.
    pub(crate) fn take(&self, n: usize) -> Vec<CoroStack> {
        let mut stacks = Vec::with_capacity(n);
        {
            let mut idle = self.idle();
            let keep = idle.len().saturating_sub(n);
            stacks.extend(idle.drain(keep..));
        }
        stacks.resize_with(n, || CoroStack::new(STACK_SIZE));
        stacks
    }

    /// Return a finished run's stacks under one lock. Those past
    /// [`MAX_IDLE_STACKS`] are freed after the lock is released.
    pub(crate) fn give_back(&self, mut stacks: Vec<CoroStack>) {
        let mut idle = self.idle();
        let keep = stacks.len().min(MAX_IDLE_STACKS.saturating_sub(idle.len()));
        idle.extend(stacks.drain(..keep));
        drop(idle);
    }

    /// How many stacks are idle right now.
    pub(crate) fn idle_count(&self) -> usize {
        self.idle().len()
    }
}

// ---------------------------------------------------------------------------
// Tasks
// ---------------------------------------------------------------------------

/// Why a task yielded back to its scheduler worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum YieldReason {
    /// Blocked waiting for a `(src, tag)` message; `vnow` is the task's
    /// virtual clock at the block point (the ready-queue priority when
    /// it is woken).
    Blocked { src: usize, tag: u64, vnow: u64 },
    /// The task body ran to completion (its outcome slot is written).
    Done,
}

/// What a resume means to the blocked task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeKind {
    /// Re-check the mailbox / abort flags (deposit, poison, peer-down).
    Normal,
    /// The scheduler found every live task blocked with nothing in
    /// flight: report a suspected deadlock from this wait.
    Deadlock,
}

/// Per-task switch state: the two saved stack pointers plus the
/// yield/wake mailboxes between the task and its current worker.
///
/// Safety protocol: a task is *owned* by exactly one scheduler worker at
/// a time — from the moment it is popped off the ready queue (or
/// created) until its yield returns to that worker, only that worker
/// touches the frame. Ownership transfers happen exclusively through
/// mutex-protected hand-offs (the ready queue, or a mailbox's bucket
/// lock for the parked-waiter registration), which provide the required
/// happens-before edges for these plain cells.
pub(crate) struct TaskFrame {
    coro_sp: UnsafeCell<usize>,
    caller_sp: UnsafeCell<usize>,
    reason: Cell<YieldReason>,
    wake: Cell<WakeKind>,
    /// The envelope a sender handed over with the wake, put here by the
    /// worker that popped the task and taken by the task's receive.
    inbox: Cell<Option<Envelope>>,
}

// SAFETY: see the ownership protocol above — all cross-thread access is
// ordered by the scheduler's mutexes.
unsafe impl Sync for TaskFrame {}
unsafe impl Send for TaskFrame {}

impl std::fmt::Debug for TaskFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskFrame")
            .field("reason", &self.reason.get())
            .field("wake", &self.wake.get())
            .finish_non_exhaustive()
    }
}

impl TaskFrame {
    /// Suspend the calling coroutine until the scheduler resumes it,
    /// reporting `Blocked { src, tag, vnow }` to the worker. Returns the
    /// wake kind ([`WakeKind::Normal`] unless a waker called
    /// [`TaskFrame::set_wake`] before making the task ready), resetting
    /// the cell to `Normal` for the next cycle.
    ///
    /// Must only be called from inside the task's coroutine.
    pub(crate) fn yield_blocked(&self, src: usize, tag: u64, vnow: u64) -> WakeKind {
        self.reason.set(YieldReason::Blocked { src, tag, vnow });
        // SAFETY: called on the coroutine's own stack; the paired
        // pointers are only used by this task/worker pair (see the
        // ownership protocol in the type docs).
        unsafe { skil_coro_switch(self.coro_sp.get(), self.caller_sp.get()) };
        self.wake.replace(WakeKind::Normal)
    }

    /// Tag the task's next wake. Must be called between clearing the
    /// task's parked-waiter registration (which confers ownership) and
    /// pushing it onto the ready queue.
    pub(crate) fn set_wake(&self, wake: WakeKind) {
        self.wake.set(wake);
    }

    /// Give the task the envelope its wake carries. Must be called by the
    /// worker that popped the task off the ready queue, before resuming
    /// it.
    pub(crate) fn deliver(&self, env: Envelope) {
        let stale = self.inbox.replace(Some(env));
        debug_assert!(stale.is_none(), "one hand-off per wake");
    }

    /// The envelope delivered with the latest wake, if any. Must only be
    /// called from inside the task's coroutine.
    pub(crate) fn take_delivered(&self) -> Option<Envelope> {
        self.inbox.take()
    }

    fn yield_done(&self) -> ! {
        loop {
            self.reason.set(YieldReason::Done);
            // SAFETY: as in `yield_blocked`. The scheduler never resumes
            // a task after observing `Done`; the loop is a hard backstop.
            unsafe { skil_coro_switch(self.coro_sp.get(), self.caller_sp.get()) };
        }
    }
}

/// A task body: receives a pointer to its own [`TaskFrame`] (valid for
/// the task's whole lifetime) through which it yields at blocking points.
pub(crate) type TaskBody = Box<dyn FnOnce(*const TaskFrame) + Send + 'static>;

/// Boxed closure argument handed to the coroutine entry point.
struct TaskEnv {
    frame: *const TaskFrame,
    body: Option<TaskBody>,
}

extern "C" fn task_entry(env: *mut TaskEnv) {
    // SAFETY: `env` is the boxed TaskEnv owned by the Task, alive for
    // the coroutine's whole lifetime; the frame pointer likewise.
    let env = unsafe { &mut *env };
    if let Some(body) = env.body.take() {
        let frame = env.frame;
        // The body carries its own catch_unwind and outcome reporting;
        // this outer catch only guarantees no unwind ever reaches the
        // assembly boot frame (which has no unwind tables).
        let _ = catch_unwind(AssertUnwindSafe(move || body(frame)));
    }
    // SAFETY: frame outlives the coroutine.
    unsafe { &*env.frame }.yield_done()
}

/// One resumable task: a prepared coroutine stack plus its switch frame.
pub(crate) struct Task {
    frame: Box<TaskFrame>,
    /// Read only by the coroutine, through the pointer `new` puts on
    /// its stack; owned here so it lives as long as the task.
    _env: Box<TaskEnv>,
    stack: CoroStack,
}

// SAFETY: scheduler workers share `&[Task]`, but the ownership protocol
// on [`TaskFrame`] guarantees at most one worker touches a given task at
// a time, with hand-offs ordered by the scheduler's mutexes. The boxed
// env (and the `Send` body inside it) only ever runs on the owning
// worker's resume.
unsafe impl Send for Task {}
unsafe impl Sync for Task {}

impl Task {
    /// Build a task whose first resume starts `body` on `stack`.
    pub(crate) fn new(stack: CoroStack, body: TaskBody) -> Self {
        let frame = Box::new(TaskFrame {
            coro_sp: UnsafeCell::new(0),
            caller_sp: UnsafeCell::new(0),
            reason: Cell::new(YieldReason::Done),
            wake: Cell::new(WakeKind::Normal),
            inbox: Cell::new(None),
        });
        let mut env = Box::new(TaskEnv { frame: &*frame, body: Some(body) });
        // Prepare the stack so the first switch "returns" into
        // `skil_coro_boot` with the entry function and env pointer in
        // the callee-saved registers the boot shim expects.
        let top = stack.top();
        unsafe {
            #[cfg(target_arch = "x86_64")]
            {
                // Layout popped by skil_coro_switch: r15 r14 r13 r12 rbx
                // rbp, then `ret` to skil_coro_boot (leaving rsp 16-aligned
                // at boot entry, so `call` re-establishes ABI alignment).
                let sp = top - 7 * 8;
                let s = sp as *mut usize;
                s.add(0).write(0); // r15
                s.add(1).write(0); // r14
                s.add(2).write(task_entry as *const () as usize); // r13
                s.add(3).write(&mut *env as *mut TaskEnv as usize); // r12
                s.add(4).write(0); // rbx
                s.add(5).write(0); // rbp
                s.add(6).write(skil_coro_boot as *const () as usize); // ret target
                frame.coro_sp.get().write(sp);
            }
            #[cfg(target_arch = "aarch64")]
            {
                // Layout loaded by skil_coro_switch: x19..x30 + d8..d15,
                // with x30 (lr) = skil_coro_boot so `ret` enters the shim.
                let sp = top - 160;
                let s = sp as *mut usize;
                for i in 0..20 {
                    s.add(i).write(0);
                }
                s.add(0).write(&mut *env as *mut TaskEnv as usize); // x19
                s.add(1).write(task_entry as *const () as usize); // x20
                s.add(11).write(skil_coro_boot as *const () as usize); // x30
                frame.coro_sp.get().write(sp);
            }
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            {
                let _ = top;
                unreachable!("coroutines unsupported on this target");
            }
        }
        Task { frame, _env: env, stack }
    }

    /// Run the task until its next yield. The wake kind delivered to a
    /// task blocked in [`TaskFrame::yield_blocked`] is whatever the
    /// waker left via [`TaskFrame::set_wake`] (default `Normal`). Must
    /// only be called by the worker that currently owns the task.
    pub(crate) fn resume(&self) -> YieldReason {
        // SAFETY: exclusive ownership by the calling worker (scheduler
        // invariant); the coroutine context was prepared in `new` or
        // saved by a previous yield.
        unsafe { skil_coro_switch(self.frame.caller_sp.get(), self.frame.coro_sp.get()) };
        self.frame.reason.get()
    }

    /// The switch frame, for handing to the task's `Proc`.
    pub(crate) fn frame(&self) -> &TaskFrame {
        &self.frame
    }

    /// The stack of a finished task, for reuse.
    pub(crate) fn into_stack(self) -> CoroStack {
        debug_assert_eq!(self.frame.reason.get(), YieldReason::Done);
        self.stack
    }
}

#[cfg(all(test, any(target_arch = "x86_64", target_arch = "aarch64")))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn task_runs_to_completion_across_yields() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        let body: TaskBody = Box::new(move |frame| {
            // SAFETY: the frame is owned by the resuming Task.
            let frame = unsafe { &*frame };
            log2.lock().unwrap().push(1);
            let w = frame.yield_blocked(7, 9, 123);
            assert_eq!(w, WakeKind::Normal);
            log2.lock().unwrap().push(2);
            let w = frame.yield_blocked(8, 10, 456);
            assert_eq!(w, WakeKind::Deadlock);
            log2.lock().unwrap().push(3);
        });
        let task = Task::new(CoroStack::new(256 * 1024), body);

        match task.resume() {
            YieldReason::Blocked { src: 7, tag: 9, vnow: 123 } => {}
            other => panic!("unexpected yield {other:?}"),
        }
        match task.resume() {
            YieldReason::Blocked { src: 8, tag: 10, vnow: 456 } => {}
            other => panic!("unexpected yield {other:?}"),
        }
        task.frame().set_wake(WakeKind::Deadlock);
        assert_eq!(task.resume(), YieldReason::Done);
        assert_eq!(*log.lock().unwrap(), vec![1, 2, 3]);
        task.into_stack();
    }

    #[test]
    fn panicking_body_is_contained() {
        let body: TaskBody = Box::new(|_| {
            // The scheduler's real bodies catch their own panics; prove
            // the entry-point backstop contains one that escapes.
            panic!("deliberate coroutine panic");
        });
        let task = Task::new(CoroStack::new(256 * 1024), body);
        assert_eq!(task.resume(), YieldReason::Done);
    }

    #[test]
    fn thousands_of_tasks_on_one_thread() {
        let counter = Arc::new(AtomicUsize::new(0));
        let n = 4096;
        let tasks: Vec<Task> = (0..n)
            .map(|_| {
                let c = Arc::clone(&counter);
                Task::new(
                    CoroStack::new(128 * 1024),
                    Box::new(move |_| {
                        c.fetch_add(1, Ordering::Relaxed);
                    }),
                )
            })
            .collect();
        for t in &tasks {
            assert_eq!(t.resume(), YieldReason::Done);
        }
        assert_eq!(counter.load(Ordering::Relaxed), n);
    }

    #[test]
    fn stack_tops_sit_on_page_boundaries() {
        for size in [128 * 1024, STACK_SIZE] {
            let stack = CoroStack::new(size);
            assert_eq!(stack.top() % PAGE, 0);
            assert!(stack.top() <= stack.ptr as usize + size);
        }
    }

    #[test]
    fn the_pool_hands_out_the_most_recent_stacks_and_keeps_at_most_its_cap() {
        // A private pool: the process's one is shared with every test.
        let pool = StackPool { idle: Mutex::new(Vec::new()) };
        let addrs = |v: &[CoroStack]| v.iter().map(|s| s.ptr as usize).collect::<Vec<_>>();
        let first: Vec<CoroStack> = (0..3).map(|_| CoroStack::new(64)).collect();
        let (older, recent) = (addrs(&first[..1]), addrs(&first[1..]));
        pool.give_back(first);
        let two = pool.take(2);
        assert_eq!(addrs(&two), recent);
        assert_eq!(pool.idle_count(), 1);
        let three = pool.take(3);
        assert_eq!(addrs(&three[..1]), older, "the idle one first, then new ones");
        assert_eq!(three[1].size, STACK_SIZE);
        assert_eq!(pool.idle_count(), 0);
        pool.give_back((0..MAX_IDLE_STACKS + 5).map(|_| CoroStack::new(64)).collect());
        pool.give_back(two);
        assert_eq!(pool.idle_count(), MAX_IDLE_STACKS);
    }
}
