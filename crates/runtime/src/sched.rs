//! The discrete-event scheduler: thousands of virtual processors on a
//! few host workers that a run has to earn.
//!
//! Each processor is a [`Task`](crate::coro::Task): a coroutine, or on
//! the thread substrate an OS thread that passes a baton back and forth
//! with its worker — the loop below cannot tell them apart. A ready
//! queue — a binary heap ordered by the task's virtual clock (processor
//! id as the deterministic tie-break) — feeds the run's workers: the
//! calling thread, plus helpers recruited only while task quanta are
//! coarse enough to pay for a cross-thread wake (see [`worker_loop`]).
//! A task runs until it blocks on a `(src, tag)` receive, parks in its
//! mailbox, and is made ready again by the deposit that matches it (or
//! by a poison / peer-down / deadlock wake). Virtual time cannot observe
//! any of this: arrival timestamps are computed analytically at the
//! sender, so clocks advance identically under any resume order and any
//! worker count (DESIGN.md §13 spells it out; the golden tests pin it).
//!
//! Wakeup protocol (all transitions hand off through a mutex, so frame
//! state is ordered):
//!
//! * block: the task yields `Blocked{src, tag}`; its worker registers it
//!   in the mailbox under the bucket lock *after* the context is saved,
//!   re-checking the queue and abort flags so no deposit is lost.
//! * deposit: `Mailbox::put_direct` clears a matching registration under
//!   the same bucket lock and hands the envelope back instead of queueing
//!   it; the sender pushes the receiver onto the ready heap at its wake
//!   time with the envelope beside the entry ([`EventSched::push_ready`]).
//! * hand-off: the worker that pops the entry puts the envelope on the
//!   task's frame before resuming it, and the receive takes it from
//!   there. A woken receive costs five lock round trips — the receive's
//!   miss, the park, the deposit, the push and the pop — and no bucket
//!   hash operation after its park.
//! * abort: poison / mark-down sweeps every mailbox, unparking matching
//!   waiters; resumed tasks re-run their receive check and observe the
//!   flag.
//! * deadlock: every worker idle + empty heap + live tasks ⇒ no wake can
//!   be in flight; the lowest-id parked task is resumed with
//!   [`WakeKind::Deadlock`] and fails with the structured
//!   `AbortCause::Deadlock` (blocked `(src, tag)`, pending envelopes).
//!   No wall clock is involved.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use crate::coro::{Task, WakeKind, YieldReason};
use crate::mailbox::{Envelope, Mailbox};
use crate::proc::Shared;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// An adaptive worker times one task resume in this many.
const SAMPLE_EVERY: u32 = 4;

/// A sampled quantum longer than this is "coarse": it outlasts the
/// futex wake and cache refill a cross-thread hand-off costs, so
/// running the waiting tasks on a second core wins.
const COARSE_QUANTUM: Duration = Duration::from_micros(50);

/// Host threads driving adaptive event runs right now, process-wide:
/// every calling thread plus every recruited helper. Recruitment stops
/// at the host's core count, so a loaded daemon parallelises across
/// requests and only a run with a core to spare goes multi-threaded.
static DRIVERS: AtomicUsize = AtomicUsize::new(0);

/// The host's core count, read once (the std call walks cgroup files).
pub(crate) fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1))
}

/// One adaptive run's seats in [`DRIVERS`] — the calling thread's and
/// those of the helpers it recruited — given back together on drop.
pub(crate) struct Seats(usize);

impl Seats {
    /// Seat the calling thread; it drives its run whatever the load.
    pub(crate) fn caller() -> Seats {
        DRIVERS.fetch_add(1, Ordering::Relaxed);
        Seats(1)
    }

    /// Seat up to `want` helpers, one per free core; returns how many.
    pub(crate) fn reserve(&mut self, want: usize) -> usize {
        let mut got = 0;
        let _ = DRIVERS.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
            got = want.min(host_cores().saturating_sub(d));
            (got > 0).then_some(d + got)
        });
        self.0 += got;
        got
    }
}

impl Drop for Seats {
    fn drop(&mut self) {
        DRIVERS.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// Shared state of one simulation's event scheduler. Task handles are
/// plain indices, so `Shared` holds it by value and wakes parked tasks
/// from abort paths, and a machine's run arena keeps it between runs.
#[derive(Debug)]
pub(crate) struct EventSched {
    state: Mutex<SchedState>,
    cond: Condvar,
    /// Each task's virtual clock as of its last block, published by its
    /// worker *before* the mailbox registration — so any waker that
    /// clears the registration reads a current value for the ready-heap
    /// priority.
    vnow: Vec<AtomicU64>,
    /// Most workers a run may reach.
    max_workers: usize,
    /// Whether helpers are recruited on evidence. When not (an explicit
    /// worker count), the machine dispatches `max_workers - 1` helpers
    /// before every run and the gate below stays open.
    adaptive: bool,
}

#[derive(Debug)]
struct SchedState {
    /// Min-heap of `(virtual wake time, task id)`.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// Per task: the envelope its ready entry carries, if a sender
    /// handed one over with the wake.
    inbox: Vec<Option<Envelope>>,
    /// Tasks not yet `Done`.
    live: usize,
    /// Workers currently parked in `next_ready`.
    idle: usize,
    /// Workers participating in this run: the calling thread plus
    /// every helper recruited so far, counted *before* its job is
    /// dispatched — a helper that has not arrived yet must already
    /// stand between the idle count and a deadlock verdict.
    workers: usize,
    /// The gate: whether a push wakes a parked worker. An adaptive run
    /// opens it while the latest sampled quantum was coarse.
    coarse: bool,
}

impl EventSched {
    pub(crate) fn new(tasks: usize, max_workers: usize, adaptive: bool) -> Self {
        EventSched {
            state: Mutex::new(SchedState {
                ready: BinaryHeap::with_capacity(tasks),
                inbox: (0..tasks).map(|_| None).collect(),
                live: tasks,
                idle: 0,
                workers: 1,
                coarse: !adaptive,
            }),
            cond: Condvar::new(),
            vnow: (0..tasks).map(|_| AtomicU64::new(0)).collect(),
            max_workers,
            adaptive,
        }
    }

    /// Make task `id` runnable at virtual time `at`. The condvar signal
    /// is skipped when no worker is parked in `next_ready`, and while
    /// the gate is shut: every push is made by a worker that is running
    /// (a task's send, an abort sweep, the deadlock resolver), and that
    /// worker pops the heap itself before it can park — `idle` and the
    /// heap only change under the state lock — so an unsignalled push is
    /// delayed by at most the pusher's current quantum, which a shut
    /// gate says is short. On a single-worker run every push takes this
    /// lock-only path.
    ///
    /// `env` is set when the wake is the deposit of that envelope
    /// ([`Mailbox::put_direct`] handed it back): it waits beside the heap
    /// entry, under the lock the push takes anyway, and reaches the task
    /// through its frame.
    pub(crate) fn push_ready(&self, id: usize, at: u64, env: Option<Envelope>) {
        let notify = {
            let mut st = lock(&self.state);
            if let Some(env) = env {
                debug_assert!(st.inbox[id].is_none(), "one hand-off per wake");
                st.inbox[id] = Some(env);
            }
            st.ready.push(Reverse((at, id)));
            st.idle > 0 && st.coarse
        };
        if notify {
            self.cond.notify_one();
        }
    }

    /// The clock task `id` published at its last block.
    pub(crate) fn vnow_hint(&self, id: usize) -> u64 {
        self.vnow[id].load(Ordering::Relaxed)
    }

    /// Wake parked tasks across `mailboxes` whose awaited *source*
    /// matches `pred` — the abort half of the wakeup protocol, called by
    /// `Shared::poison_all` / `Shared::mark_down`. Resumed tasks re-run
    /// their receive check and observe the abort flag themselves.
    pub(crate) fn wake_parked(&self, mailboxes: &[Mailbox], pred: impl Fn(usize) -> bool) {
        for (id, mb) in mailboxes.iter().enumerate() {
            if mb.unpark(|(src, _)| pred(src)) {
                self.push_ready(id, self.vnow_hint(id), None);
            }
        }
    }

    /// Pop the next runnable task, with the envelope handed over with its
    /// wake, parking until one appears. Returns `None` once every task is
    /// done. `deadlock` is invoked — with the scheduler lock released —
    /// when every worker is idle with an empty heap but live tasks
    /// remain; it must make at least one task ready (or the wait resumes
    /// and tries again).
    fn next_ready(&self, deadlock: impl Fn()) -> Option<(usize, Option<Envelope>)> {
        let mut st = lock(&self.state);
        loop {
            if let Some(Reverse((_, id))) = st.ready.pop() {
                return Some((id, st.inbox[id].take()));
            }
            if st.live == 0 {
                self.cond.notify_all();
                return None;
            }
            st.idle += 1;
            if st.idle == st.workers {
                // Every live task is parked and no worker can be about
                // to wake one: a genuine deadlock. Resolve it outside
                // the scheduler lock (the victim wake takes bucket
                // locks, and bucket holders never wait on this lock).
                st.idle -= 1;
                drop(st);
                deadlock();
                st = lock(&self.state);
                continue;
            }
            st = self.cond.wait(st).unwrap_or_else(|e| e.into_inner());
            st.idle -= 1;
        }
    }

    /// Record an adaptive worker's latest verdict and return how many
    /// helpers the run could use right now: one per task waiting in the
    /// heap, up to the cap, and none unless the quantum was coarse. A
    /// coarse verdict also wakes a helper that parked while the gate
    /// was shut and tasks have queued up since.
    fn observe(&self, coarse: bool) -> usize {
        let mut st = lock(&self.state);
        st.coarse = coarse;
        if !coarse || st.ready.is_empty() {
            return 0;
        }
        let want = st.ready.len().min(self.max_workers - st.workers);
        let wake = st.idle > 0;
        drop(st);
        if wake {
            self.cond.notify_one();
        }
        want
    }

    /// Count `helpers` more workers into the run, ahead of their
    /// dispatch.
    pub(crate) fn add_workers(&self, helpers: usize) {
        lock(&self.state).workers += helpers;
    }

    /// Rearm a scheduler kept in a machine's run arena for another run
    /// of the same shape: every task live again, empty heap, no envelope
    /// pending, clocks at zero, the calling thread the only worker and
    /// the gate as `new` leaves it — what one run learned about
    /// granularity is not carried to the next. Callers only invoke this
    /// between runs, when no worker is active on the scheduler.
    pub(crate) fn reset(&self) {
        let mut st = lock(&self.state);
        st.ready.clear();
        st.inbox.iter_mut().for_each(|env| *env = None);
        st.live = self.vnow.len();
        st.idle = 0;
        st.workers = 1;
        st.coarse = !self.adaptive;
        for v in &self.vnow {
            v.store(0, Ordering::Relaxed);
        }
    }

    fn task_done(&self) {
        let mut st = lock(&self.state);
        st.live -= 1;
        if st.live == 0 {
            drop(st);
            self.cond.notify_all();
        }
    }
}

/// Run scheduler work on the calling worker thread until every task of
/// the simulation has completed.
///
/// On an adaptive scheduler every worker times one resume in
/// [`SAMPLE_EVERY`] and publishes the verdict (coarse or not), which
/// gates the wake in [`EventSched::push_ready`]: a helper recruited in
/// a compute phase sleeps through a later message-bound one, and is
/// woken again when either worker next samples a long quantum. The
/// calling thread passes `recruit`; it is called with the number of
/// helpers worth adding when a coarse quantum ends with tasks waiting.
/// None of this is visible in virtual time — the worker count is a host
/// throttle (DESIGN.md §13).
pub(crate) fn worker_loop(
    sched: &EventSched,
    tasks: &[Task],
    shared: &Shared,
    mut recruit: Option<&mut dyn FnMut(usize)>,
) {
    let mut resumes = 0u32;
    loop {
        let deadlock = || wake_deadlock_victim(sched, tasks, shared);
        let Some((id, env)) = sched.next_ready(deadlock) else { return };
        if let Some(env) = env {
            tasks[id].frame().deliver(env);
        }
        let sampled = (sched.adaptive && resumes.is_multiple_of(SAMPLE_EVERY)).then(Instant::now);
        resumes = resumes.wrapping_add(1);
        let yielded = tasks[id].resume();
        let coarse = sampled.map(|t0| t0.elapsed() > COARSE_QUANTUM);
        match yielded {
            YieldReason::Done => sched.task_done(),
            YieldReason::Blocked { src, tag, vnow } => {
                block_task(sched, shared, id, src, tag, vnow)
            }
        }
        if let Some(coarse) = coarse {
            let want = sched.observe(coarse);
            if want > 0 {
                if let Some(recruit) = recruit.as_mut() {
                    recruit(want);
                }
            }
        }
    }
}

/// Complete a task's block: publish its clock, register it in its
/// mailbox, and close the races with concurrent deposits and aborts.
fn block_task(sched: &EventSched, shared: &Shared, id: usize, src: usize, tag: u64, vnow: u64) {
    sched.vnow[id].store(vnow, Ordering::Relaxed);
    let mb = &shared.mailboxes[id];
    if !mb.park(src, tag) {
        // A matching envelope was deposited while the task was running:
        // it never actually blocks.
        sched.push_ready(id, vnow, None);
        return;
    }
    // An abort sweep that scanned this mailbox before the registration
    // would miss the task; whoever clears the registration owns the
    // wake, so checking the flags afterwards closes the race exactly
    // once.
    if (shared.poison.load(Ordering::Acquire) || shared.downs[src].load(Ordering::Acquire))
        && mb.unpark(|_| true)
    {
        sched.push_ready(id, vnow, None);
    }
}

/// Resolve a structural deadlock: wake the lowest-id parked task with
/// [`WakeKind::Deadlock`] so it raises the structured deadlock abort.
fn wake_deadlock_victim(sched: &EventSched, tasks: &[Task], shared: &Shared) {
    for (id, mb) in shared.mailboxes.iter().enumerate() {
        if mb.unpark(|_| true) {
            tasks[id].frame().set_wake(WakeKind::Deadlock);
            sched.push_ready(id, sched.vnow_hint(id), None);
            return;
        }
    }
    // No parked task found: a racing wake is mid-flight after all; the
    // caller re-enters the wait and will observe it.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::Payload;

    fn env(arrival: u64) -> Envelope {
        Envelope { src: 0, tag: 7, seq: 0, arrival, bytes: Payload::copy_from(&[1, 2]) }
    }

    #[test]
    fn a_handed_off_envelope_leaves_with_its_entry_and_not_past_a_reset() {
        let sched = EventSched::new(2, 1, false);
        let pop = || sched.next_ready(|| unreachable!("a task is ready")).expect("a live task");
        sched.push_ready(1, 5, Some(env(5)));
        sched.push_ready(0, 9, None);
        let (id, handed) = pop();
        assert_eq!((id, handed.map(|e| e.arrival)), (1, Some(5)));
        assert!(matches!(pop(), (0, None)));

        sched.push_ready(1, 5, Some(env(6)));
        sched.reset();
        sched.push_ready(1, 0, None);
        assert!(matches!(pop(), (1, None)), "the next run's first wake carries nothing");
    }
}
