//! The machine: configuration and SPMD execution.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Mutex, MutexGuard};

use crate::coro::{self, Closing, Task, TaskBody, TaskFrame, STACKS};
use crate::cost::CostModel;
use crate::error::{runtime_error_message, AbortCause, RtError, SimAbort, SimFailure};
use crate::fault::FaultPlan;
use crate::mailbox::Mailbox;
use crate::proc::{Proc, Shared};
use crate::report::{ProcReport, RunReport};
use crate::sched::{host_cores, worker_loop, EventSched, Seats};
use crate::topology::{Mesh, Topology};

/// The substrate the event scheduler's tasks run on. Either way one
/// scheduler drives them: tasks are resumed by virtual time from a ready
/// heap on the calling thread and the helpers a run recruits, delivery
/// hands envelopes to parked receivers, and a deadlock is found
/// structurally. Virtual time cannot tell the substrates apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Every processor is a stackful coroutine (the default). Host cost
    /// grows with *activity*, not processor count, so thousands of
    /// processors fit on one host.
    Event,
    /// Every processor is an OS thread of its own, spawned for the run,
    /// that passes a baton back and forth with the worker resuming it.
    /// The only substrate on targets without a coroutine context
    /// switch, and one host row of the tests.
    Threads,
}

/// Configuration of a simulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// The logical process grid (row-major ids; arrays are laid out on
    /// it). Always equal to `topology.grid()`.
    pub mesh: Mesh,
    /// The physical interconnect. Defaults to [`Topology::Mesh2d`] of
    /// `mesh`, which reproduces the seed simulator bit for bit; other
    /// topologies change only the hop metric messages are priced with.
    pub topology: Topology,
    /// Cost model (defaults to the calibrated T800).
    pub cost: CostModel,
    /// Record per-processor skeleton trace events.
    pub trace: bool,
    /// Fault-injection plan ([`FaultPlan::none`] by default: the
    /// reliable-delivery layer is bypassed and the data plane is exactly
    /// the fault-free one, pinned bit-identical by the golden tests).
    pub faults: FaultPlan,
    /// Task substrate override; `None` is [`SchedulerKind::Event`], or
    /// [`SchedulerKind::Threads`] on targets without coroutines.
    pub scheduler: Option<SchedulerKind>,
    /// The scheduler's worker count. Set, it means exactly that many
    /// workers, all in from the start of every run; `None`, a run
    /// starts on the calling thread alone and recruits helpers (up to
    /// `min(cores, 8, nprocs)`) only while its task quanta are coarse
    /// and a core is free. Either way it is a pure host throttle —
    /// virtual time cannot observe it.
    pub workers: Option<usize>,
}

impl MachineConfig {
    /// A `rows x cols` mesh with the default cost model.
    pub fn mesh(rows: usize, cols: usize) -> Result<Self, RtError> {
        let mesh = Mesh::new(rows, cols)?;
        Ok(MachineConfig {
            mesh,
            topology: Topology::Mesh2d(mesh),
            cost: CostModel::t800(),
            trace: false,
            faults: FaultPlan::none(),
            scheduler: None,
            workers: None,
        })
    }

    /// A square `side x side` mesh.
    pub fn square(side: usize) -> Result<Self, RtError> {
        Self::mesh(side, side)
    }

    /// `n` processors on the most nearly square mesh.
    pub fn procs(n: usize) -> Result<Self, RtError> {
        let mesh = Mesh::near_square(n)?;
        Ok(MachineConfig { mesh, topology: Topology::Mesh2d(mesh), ..Self::mesh(1, 1)? })
    }

    /// A machine wired as `topology`; the logical process grid becomes
    /// [`Topology::grid`] of it.
    pub fn on_topology(topology: Topology) -> Result<Self, RtError> {
        let grid = topology.grid();
        Ok(MachineConfig { mesh: grid, topology, ..Self::mesh(1, 1)? })
    }

    /// Replace the physical interconnect (and the process grid with the
    /// topology's).
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.mesh = topology.grid();
        self.topology = topology;
        self
    }

    /// Replace the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Enable per-processor skeleton tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Attach a fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Force a task substrate (the tests run both).
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = Some(kind);
        self
    }

    /// Fix the scheduler's host parallelism: exactly `k` workers from the
    /// start of every run (the tests' way to force cross-thread runs).
    pub fn with_workers(mut self, k: usize) -> Self {
        self.workers = Some(k.max(1));
        self
    }
}

/// Results of one simulation: the per-processor return values (indexed by
/// processor id) and the timing report.
#[derive(Debug)]
pub struct Run<R> {
    /// What each processor's program returned.
    pub results: Vec<R>,
    /// Simulated timing and traffic.
    pub report: RunReport,
}

/// A simulated distributed-memory machine.
///
/// `run` executes one SPMD program: the same closure on every processor,
/// each with its own [`Proc`] handle. Every processor is a task of the
/// event scheduler, multiplexed onto the calling thread and a few
/// recruited helpers — a coroutine by default, so meshes of thousands
/// of processors fit on one host, or an OS thread of its own under
/// [`SchedulerKind::Threads`]. Virtual time is fully deterministic for
/// programs whose receives name their source (all skeletons do),
/// independent of host scheduling *and* of the substrate — the golden
/// tests pin `sim_cycles` across both.
///
/// ```
/// use skil_runtime::{Machine, MachineConfig};
///
/// let m = Machine::new(MachineConfig::mesh(2, 2).unwrap());
/// let run = m.run(|p| {
///     if p.id() == 0 {
///         p.send(1, 7, &123u32);
///         0
///     } else if p.id() == 1 {
///         p.recv::<u32>(0, 7)
///     } else {
///         0
///     }
/// });
/// assert_eq!(run.results[1], 123);
/// assert!(run.report.sim_cycles > 0);
/// ```
pub struct Machine {
    cfg: MachineConfig,
    /// The task substrate this machine resolved to.
    kind: SchedulerKind,
    /// Most workers a run may reach: the calling thread plus up to
    /// `max_workers - 1` helpers. The machine owns neither, nor any
    /// task: a run borrows its coroutine stacks from the process's
    /// [`STACKS`] (or spawns its thread tasks) and its helpers from the
    /// process's helper threads, and hands them back when it ends.
    max_workers: usize,
    /// Whether helpers are recruited on evidence (no explicit worker
    /// count) or all dispatched at the start of every run.
    adaptive: bool,
    /// Parked per-run allocations (mailboxes, abort flags, event
    /// scheduler) from completed runs, ready for the next run to reuse —
    /// the warm-machine floor reduction. One entry per concurrently
    /// finished run; `run` pops one entry or builds fresh state.
    arena: Mutex<Vec<RunArena>>,
    /// How many runs reused a parked arena instead of allocating.
    reuse_hits: AtomicU64,
    /// How many helper workers runs on this machine have recruited.
    helper_joins: AtomicU64,
}

/// The per-run allocations a warm machine keeps between runs. Everything
/// in here is *reset* (not rebuilt) at park time: mailboxes drain their
/// queues and clear their park registrations, abort flags drop to
/// `false`, and the event scheduler rearms with every task live — so a
/// reused run starts from exactly the state a fresh allocation would
/// have, which is what keeps warm reuse bit-identical.
struct RunArena {
    mailboxes: Vec<Mailbox>,
    downs: Vec<AtomicBool>,
    causes: Vec<Option<AbortCause>>,
    sched: EventSched,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cfg", &self.cfg)
            .field("scheduler", &self.scheduler())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Build a machine from a configuration. The task substrate is the
    /// config's, coroutines by default; targets without a coroutine
    /// context switch always get thread tasks (identical virtual time,
    /// bounded scale). A machine owns no thread and no stack — its runs
    /// borrow or spawn them.
    pub fn new(cfg: MachineConfig) -> Self {
        let kind = if coro::SUPPORTED {
            cfg.scheduler.unwrap_or(SchedulerKind::Event)
        } else {
            SchedulerKind::Threads
        };
        let max_workers =
            cfg.workers.unwrap_or_else(|| host_cores().min(8)).min(cfg.mesh.procs().max(1));
        Machine {
            // The calling thread is always one of a run's workers (see
            // `try_run_faults`), so a run recruits at most
            // `max_workers - 1` helpers. A cap of one leaves nothing to
            // adapt.
            adaptive: cfg.workers.is_none() && max_workers > 1,
            cfg,
            kind,
            max_workers,
            arena: Mutex::new(Vec::new()),
            reuse_hits: AtomicU64::new(0),
            helper_joins: AtomicU64::new(0),
        }
    }

    /// How many runs on this machine reused a parked run arena instead
    /// of allocating mailboxes and scheduler state from scratch — the
    /// warm-pool floor-reduction counter surfaced by the serving layer.
    pub fn setup_reuse_hits(&self) -> u64 {
        self.reuse_hits.load(Ordering::Relaxed)
    }

    /// How many helper workers runs on this machine have recruited onto
    /// other host threads — zero for as long as every run was driven by
    /// its calling thread alone. An explicit worker count `k` recruits
    /// `k - 1` per run; the adaptive default recruits on evidence.
    pub fn helper_joins(&self) -> u64 {
        self.helper_joins.load(Ordering::Relaxed)
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.cfg.mesh.procs()
    }

    /// The configuration in use.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Which task substrate this machine resolved to.
    pub fn scheduler(&self) -> SchedulerKind {
        self.kind
    }

    /// Run an SPMD program on every processor and collect the results.
    ///
    /// If any processor panics, the machine is poisoned (peers blocked in
    /// `recv` abort promptly) and the first panic is re-raised on the
    /// caller's thread. A *simulated* failure (fault-plan crash or
    /// delivery give-up) panics with the formatted
    /// [`SimFailure`](crate::error::SimFailure) — use
    /// [`try_run`](Machine::try_run) to handle it structurally.
    pub fn run<R, F>(&self, program: F) -> Run<R>
    where
        R: Send,
        F: Fn(&mut Proc<'_>) -> R + Sync,
    {
        self.try_run(program).unwrap_or_else(|failure| panic!("{failure}"))
    }

    /// Run an SPMD program, reporting simulated failures (fault-plan
    /// crashes, exhausted retry budgets, and the `PeerDown` cascades
    /// they trigger) as a structured `Err` instead of a panic or a hang.
    /// Genuine panics in user code still poison the machine and re-raise
    /// on the caller's thread.
    pub fn try_run<R, F>(&self, program: F) -> Result<Run<R>, SimFailure>
    where
        R: Send,
        F: Fn(&mut Proc<'_>) -> R + Sync,
    {
        self.try_run_faults(None, program)
    }

    /// Like [`try_run`](Machine::try_run), but with the fault plan
    /// overridden for this run only. `None` uses the plan the machine
    /// was configured with. A warm machine can therefore be reused
    /// across requests that carry different fault plans — the serving
    /// layer's machine pool depends on this: every run builds its
    /// mailboxes, stats, and abort flags from scratch, so nothing of a
    /// previous run (or its plan) can leak into the next one.
    pub fn try_run_faults<R, F>(
        &self,
        faults: Option<&FaultPlan>,
        program: F,
    ) -> Result<Run<R>, SimFailure>
    where
        R: Send,
        F: Fn(&mut Proc<'_>) -> R + Sync,
    {
        install_quiet_panic_hook();
        let n = self.nprocs();
        // Per-run state: reuse a parked arena from a previous run when
        // one exists (the warm-pool fast path — no allocation, no
        // scheduler rebuild), otherwise allocate from scratch. Arenas
        // are reset when parked, so both paths start identical.
        let arena = lock(&self.arena).pop();
        if arena.is_some() {
            self.reuse_hits.fetch_add(1, Ordering::Relaxed);
        }
        let (mailboxes, downs, causes, sched) = match arena {
            Some(a) => (a.mailboxes, a.downs, a.causes, a.sched),
            None => (
                (0..n).map(|_| Mailbox::default()).collect(),
                (0..n).map(|_| AtomicBool::new(false)).collect(),
                vec![None; n],
                EventSched::new(n, self.max_workers, self.adaptive),
            ),
        };
        let shared = Shared {
            trace: self.cfg.trace,
            mesh: self.cfg.mesh,
            topo: self.cfg.topology,
            cost: self.cfg.cost.clone(),
            mailboxes,
            poison: AtomicBool::new(false),
            faults: faults.unwrap_or(&self.cfg.faults).clone(),
            downs,
            down_causes: Mutex::new(causes),
            sched,
        };
        let slots: Vec<Mutex<Option<ProcOutcome<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();

        // Runs processor `id`'s program on its task, recording the
        // outcome in its slot. Shared verbatim by both substrates — the
        // only difference between them is *where* the body runs.
        let proc_body = |id: usize, frame: &TaskFrame| {
            let mut proc = Proc::new(id, &shared, frame);
            let proc = &mut proc;
            let result = match catch_unwind(AssertUnwindSafe(|| program(proc))) {
                Ok(r) => Ok(r),
                // A structured simulated failure: mark this processor
                // down (waking blocked peers into `PeerDown`) without
                // poisoning the machine.
                Err(payload) => match payload.downcast::<SimAbort>() {
                    Ok(abort) => {
                        shared.mark_down(id, abort.cause.clone());
                        Err(JobFail::Abort(*abort))
                    }
                    Err(payload) => {
                        // A Skil-program runtime error (the
                        // `RT_ERROR_PREFIX` contract): structured, like
                        // a fault-model abort. Peers blocked on this
                        // processor cascade as `PeerDown`; the machine
                        // stays reusable.
                        if let Some(what) = runtime_error_message(&*payload) {
                            let cause = AbortCause::RuntimeError { what: what.to_string() };
                            shared.mark_down(id, cause.clone());
                            Err(JobFail::Abort(SimAbort { proc: id, cause }))
                        } else {
                            // A genuine bug in user code: poison.
                            shared.poison_all();
                            Err(JobFail::Panic(payload))
                        }
                    }
                },
            };
            let report = ProcReport {
                finished_at: proc.now(),
                stats: proc.stats(),
                data_plane: proc.data_plane(),
                trace: proc.take_trace(),
                comm: proc.take_comm(),
            };
            *lock(&slots[id]) = Some(ProcOutcome { result, report });
        };

        self.run_tasks(&shared, &proc_body);

        let mut results = Vec::with_capacity(n);
        let mut procs = Vec::with_capacity(n);
        let mut aborts = Vec::new();
        let mut first_panic = None;
        for slot in &slots {
            let outcome = lock(slot).take().expect("worker completed its job");
            procs.push(outcome.report);
            match outcome.result {
                Ok(r) => results.push(r),
                Err(JobFail::Abort(abort)) => aborts.push(abort),
                Err(JobFail::Panic(payload)) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            // Poisoned run: drop its state rather than park it — the
            // next run allocates fresh.
            resume_unwind(payload);
        }
        // Park the run's allocations for the next run, reset to exactly
        // the state a fresh allocation would have. Structured failures
        // (`SimFailure`) park too: the abort flags and queues reset, and
        // `runtime_error_is_structured_and_does_not_poison` pins that a
        // machine stays usable after one.
        {
            let Shared { mailboxes, downs, down_causes, sched, .. } = shared;
            for mb in &mailboxes {
                mb.reset();
            }
            for d in &downs {
                d.store(false, Ordering::Relaxed);
            }
            let mut causes = down_causes.into_inner().unwrap_or_else(|e| e.into_inner());
            causes.iter_mut().for_each(|c| *c = None);
            sched.reset();
            lock(&self.arena).push(RunArena { mailboxes, downs, causes, sched });
        }
        if !aborts.is_empty() {
            return Err(SimFailure { aborts });
        }

        let sim_cycles = procs.iter().map(|p| p.finished_at).max().unwrap_or(0);
        Ok(Run {
            results,
            report: RunReport {
                sim_cycles,
                sim_seconds: self.cfg.cost.seconds(sim_cycles),
                clock_hz: self.cfg.cost.clock_hz,
                topology: self.cfg.topology,
                procs,
            },
        })
    }

    /// Run one task per processor, processor `id`'s running `body(id,
    /// frame)`, until every task is done: coroutines on stacks borrowed
    /// from the process for this run, or thread tasks on OS threads
    /// spawned for it. The calling thread is the first worker.
    fn run_tasks(&self, shared: &Shared, body: &(dyn Fn(usize, &TaskFrame) + Sync)) {
        let n = self.nprocs();
        let ev = &shared.sched;
        let tasks: Vec<Task> = match self.kind {
            SchedulerKind::Event => STACKS
                .take(n)
                .into_iter()
                .enumerate()
                .map(|(id, stack)| {
                    // SAFETY: the frame lives in the task's box for the
                    // task's whole lifetime.
                    let body = move |frame: *const TaskFrame| body(id, unsafe { &*frame });
                    let body: Box<dyn FnOnce(*const TaskFrame) + Send + '_> = Box::new(body);
                    // SAFETY: every task runs to completion before `drive`
                    // returns, because `worker_loop` only returns once all
                    // tasks are `Done` and `DispatchWait` joins every
                    // worker — so the body's borrows outlive all uses.
                    let body: TaskBody = unsafe { std::mem::transmute(body) };
                    Task::new(stack, body)
                })
                .collect(),
            SchedulerKind::Threads => (0..n).map(|_| Task::thread()).collect(),
        };
        // Every task ready at virtual time 0. No worker runs before
        // `drive`, so seeding the ready heap here is race-free.
        for id in 0..n {
            ev.push_ready(id, 0, None);
        }
        let drive = |tasks: &[Task]| {
            // An adaptive run's share of the process-wide core budget; an
            // explicit worker count sits outside it. Declared first so it
            // is given back last, after `wait` has joined the helpers.
            let mut seats = self.adaptive.then(Seats::caller);
            let mut wait = DispatchWait { done: None, expect: 0 };
            // Bring up to `want` helpers into the run: count them in,
            // then hand each a `worker_loop` job.
            let mut recruit = |want: usize| {
                let helpers = match &mut seats {
                    Some(seats) => seats.reserve(want),
                    None => want,
                };
                if helpers == 0 {
                    return;
                }
                ev.add_workers(helpers);
                for _ in 0..helpers {
                    let done = wait.sender();
                    let job = move || {
                        // worker_loop is panic-free by construction (task
                        // bodies contain their own unwinds); the catch is
                        // a backstop so a bug cannot kill the helper
                        // thread or hang the dispatch.
                        let _ =
                            catch_unwind(AssertUnwindSafe(|| worker_loop(ev, tasks, shared, None)));
                        let _ = done.send(());
                    };
                    let job: Box<dyn FnOnce() + Send + '_> = Box::new(job);
                    // SAFETY: the job borrows this frame's state;
                    // `DispatchWait` joins every worker before the borrows
                    // go out of scope, even on an unwind.
                    let job: Job = unsafe { std::mem::transmute(job) };
                    dispatch_helper(job);
                    wait.expect += 1;
                }
                self.helper_joins.fetch_add(helpers as u64, Ordering::Relaxed);
            };
            if !self.adaptive && self.max_workers > 1 {
                recruit(self.max_workers - 1);
            }
            // The calling thread is the first worker, and until a helper
            // is recruited the only one: the whole simulation runs right
            // here — no dispatch, no join, no cross-thread handoff at
            // all.
            let _ = catch_unwind(AssertUnwindSafe(|| {
                worker_loop(ev, tasks, shared, Some(&mut recruit))
            }));
            // `wait` drops here, joining the helpers.
        };
        match self.kind {
            SchedulerKind::Event => drive(&tasks),
            SchedulerKind::Threads => std::thread::scope(|s| {
                // Dropped after `drive` has joined the helpers and before
                // the scope joins the task threads, even on an unwind.
                let _closing = Closing(&tasks);
                for (id, task) in tasks.iter().enumerate() {
                    std::thread::Builder::new()
                        .name(format!("proc-{id}"))
                        .stack_size(coro::STACK_SIZE)
                        .spawn_scoped(s, move || task.run_thread(|frame| body(id, frame)))
                        .expect("spawn processor thread");
                }
                drive(&tasks);
            }),
        }
        STACKS.give_back(tasks.into_iter().filter_map(Task::into_stack).collect());
    }
}

/// Install (once, process-wide) a panic-hook *filter* that silences the
/// deterministic unwinds the simulator uses for control flow — the
/// structured [`SimAbort`] payloads of fault-model crashes and the
/// [`RT_ERROR_PREFIX`](crate::error::RT_ERROR_PREFIX)-tagged Skil
/// runtime errors — and chains every other panic to whatever hook was
/// installed before. `std::sync::Once` makes the installation
/// idempotent and race-free: concurrent embedders (the `skild` request
/// workers, parallel tests) cannot double-install it or lose a user
/// hook to a take/set race, and a hook the user installs *afterwards*
/// still wins because this filter is only ever installed beneath it
/// once.
fn install_quiet_panic_hook() {
    static QUIET_ABORTS: std::sync::Once = std::sync::Once::new();
    QUIET_ABORTS.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let simulated = payload.downcast_ref::<SimAbort>().is_some()
                || payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&'static str>().copied())
                    .is_some_and(|m| m.starts_with(crate::error::RT_ERROR_PREFIX));
            if !simulated {
                prev(info);
            }
        }));
    });
}

/// Lock a mutex, ignoring poisoning (worker state stays consistent; the
/// panic that poisoned it is re-raised through the run result).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The event scheduler's idle helper threads, shared by every machine
/// in the process: each waits on its own channel for its next job.
static IDLE_HELPERS: Mutex<Vec<mpsc::Sender<Job>>> = Mutex::new(Vec::new());

/// Helper threads alive, idle or running a job.
static HELPER_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Run `job` on an idle helper thread, or on a new one when none is
/// idle: a run never waits for another run's helper.
fn dispatch_helper(job: Job) {
    let idle = lock(&IDLE_HELPERS).pop();
    if let Some(tx) = idle {
        tx.send(job).expect("an idle helper waits on its receiver");
        return;
    }
    HELPER_THREADS.fetch_add(1, Ordering::Relaxed);
    // Detached: a helper lives until it retires or the process ends,
    // and its jobs catch their own panics.
    std::thread::Builder::new()
        .name("sim-helper".into())
        .spawn(move || helper_loop(job))
        .expect("spawn helper thread");
}

/// A helper's life: run a job, then wait for the next one unless
/// [`host_cores`] helpers are idle already, in which case retire. So
/// the helpers a burst of runs spawned do not outlive it, and idle ones
/// never outnumber the cores.
fn helper_loop(mut job: Job) {
    let (tx, rx) = mpsc::channel();
    loop {
        job();
        {
            let mut idle = lock(&IDLE_HELPERS);
            if idle.len() >= host_cores() {
                HELPER_THREADS.fetch_sub(1, Ordering::Relaxed);
                return;
            }
            idle.push(tx.clone());
        }
        job = rx.recv().expect("a helper holds a sender to itself");
    }
}

/// Idle coroutine stacks the process keeps for the next event runs, on
/// every machine together: at most 4,096, and never more than the most
/// processors that ran at once.
pub fn stacks_idle() -> usize {
    STACKS.idle_count()
}

/// Event-scheduler helper threads alive in the process, idle or helping
/// a run. Once no run needs them, at most the host's core count remain.
pub fn helper_threads() -> usize {
    HELPER_THREADS.load(Ordering::Relaxed)
}

/// Waits (on drop) for every job dispatched so far, so stack borrows
/// handed to helpers cannot dangle even if dispatch unwinds. A job's
/// last act is a send on a clone of `done`'s sender. The channel lives
/// on the heap: a helper still inside that send when the wait ends must
/// not touch the waiting frame, which may already hold the thread's
/// next run. It is made with the first job, so a run without helpers
/// allocates nothing here.
struct DispatchWait {
    done: Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>,
    /// Jobs dispatched, each owing one send.
    expect: usize,
}

impl DispatchWait {
    /// A sender for the next job to report on.
    fn sender(&mut self) -> mpsc::Sender<()> {
        self.done.get_or_insert_with(mpsc::channel).0.clone()
    }
}

impl Drop for DispatchWait {
    fn drop(&mut self) {
        if let Some((_, rx)) = &self.done {
            for _ in 0..self.expect {
                // Never an error: `done` keeps a sender alive.
                let _ = rx.recv();
            }
        }
    }
}

/// How one processor's job ended, when not successfully.
enum JobFail {
    /// A structured simulated failure (crash / retry give-up / cascade).
    Abort(SimAbort),
    /// A genuine panic payload from user code.
    Panic(Box<dyn std::any::Any + Send>),
}

struct ProcOutcome<R> {
    result: Result<R, JobFail>,
    report: ProcReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use std::time::{Duration, Instant};

    const SUBSTRATES: [SchedulerKind; 2] = [SchedulerKind::Event, SchedulerKind::Threads];

    /// A 1x2 machine on `kind`.
    fn pair(kind: SchedulerKind) -> Machine {
        Machine::new(MachineConfig::mesh(1, 2).unwrap().with_scheduler(kind))
    }

    /// Processor 0 sends `(0, 7)`, processor 1 waits on `(0, 42)`.
    fn misrouted(p: &mut Proc<'_>) {
        if p.id() == 0 {
            p.send(1, 7, &9u8);
        } else {
            let _: u8 = p.recv(0, 42);
        }
    }

    #[test]
    fn spmd_ids_cover_machine() {
        let m = Machine::new(MachineConfig::mesh(2, 3).unwrap());
        let run = m.run(|p| p.id());
        assert_eq!(run.results, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn single_proc_machine() {
        let m = Machine::new(MachineConfig::procs(1).unwrap());
        let run = m.run(|p| {
            p.charge(500);
            p.nprocs()
        });
        assert_eq!(run.results, vec![1]);
        assert_eq!(run.report.sim_cycles, 500);
    }

    #[test]
    fn ping_pong_advances_time() {
        let m = Machine::new(MachineConfig::mesh(1, 2).unwrap());
        let run = m.run(|p| {
            if p.id() == 0 {
                p.send(1, 1, &7u64);
                p.recv::<u64>(1, 2)
            } else {
                let v: u64 = p.recv(0, 1);
                p.send(0, 2, &(v * 2));
                v
            }
        });
        assert_eq!(run.results, vec![14, 7]);
        let c = CostModel::t800();
        // Two messages of 8 bytes, one hop each, plus CPU charges.
        let min_time = 2 * c.transit(8, 1);
        assert!(run.report.sim_cycles >= min_time);
    }

    #[test]
    fn virtual_time_is_deterministic() {
        let m = Machine::new(MachineConfig::mesh(2, 2).unwrap());
        let runner = || {
            m.run(|p| {
                // A small ring circulation with some compute skew.
                p.charge(100 * (p.id() as u64 + 1));
                let next = (p.id() + 1) % p.nprocs();
                let prev = (p.id() + p.nprocs() - 1) % p.nprocs();
                p.send(next, 9, &(p.id() as u64));
                let got: u64 = p.recv(prev, 9);
                p.charge(50);
                got
            })
        };
        let a = runner();
        let b = runner();
        assert_eq!(a.report.sim_cycles, b.report.sim_cycles);
        assert_eq!(a.results, b.results);
        for (pa, pb) in a.report.procs.iter().zip(&b.report.procs) {
            assert_eq!(pa.finished_at, pb.finished_at);
            assert_eq!(pa.stats, pb.stats);
        }
    }

    #[test]
    fn async_send_overlaps_compute() {
        // With async sends the receiver that computes long enough never
        // waits; with sync sends the sender's clock absorbs the transit.
        let big = vec![0u8; 10_000];
        let cfg = MachineConfig::mesh(1, 2).unwrap();
        let c = cfg.cost.clone();
        let m = Machine::new(cfg);
        let transit = c.transit(10_000 + 8, 1);

        let run_async = m.run(|p| {
            if p.id() == 0 {
                p.send(1, 1, &big);
                p.now()
            } else {
                p.charge(transit * 2); // compute past the arrival
                let before = p.now();
                let _: Vec<u8> = p.recv(0, 1);
                p.now() - before // only the recv CPU charge, no wait
            }
        });
        assert_eq!(run_async.results[1], c.recv_cpu);
        // Async sender's clock saw only the send CPU charge.
        assert_eq!(run_async.results[0], c.send_cpu);

        let run_sync = m.run(|p| {
            if p.id() == 0 {
                p.send_sync(1, 1, &big);
                p.now()
            } else {
                let _: Vec<u8> = p.recv(0, 1);
                0
            }
        });
        // Sync sender blocked for the whole transit.
        assert_eq!(run_sync.results[0], c.send_cpu + transit);
    }

    #[test]
    fn wait_time_recorded() {
        let m = Machine::new(MachineConfig::mesh(1, 2).unwrap());
        let run = m.run(|p| {
            if p.id() == 0 {
                p.charge(1_000_000); // send late
                p.send(1, 1, &1u8);
            } else {
                let _: u8 = p.recv(0, 1);
            }
        });
        let waiter = run.report.procs[1].stats;
        assert!(waiter.wait > 900_000, "receiver should have waited, got {waiter:?}");
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn panic_propagates() {
        let m = Machine::new(MachineConfig::mesh(1, 2).unwrap());
        let _ = m.run(|p| {
            if p.id() == 0 {
                panic!("deliberate");
            } else {
                // This would deadlock forever without poisoning.
                let _: u8 = p.recv(0, 1);
            }
        });
    }

    #[test]
    fn thread_tasks_run_on_threads_of_their_own() {
        let names = |kind| pair(kind).run(|_| std::thread::current().name().map(str::to_owned));
        let threads = names(SchedulerKind::Threads).results;
        assert_eq!(threads, [Some("proc-0".to_owned()), Some("proc-1".to_owned())]);
        let coroutines = names(SchedulerKind::Event).results;
        assert!(coroutines.iter().flatten().all(|n| !n.starts_with("proc-")), "{coroutines:?}");
    }

    #[test]
    fn a_panic_wakes_blocked_peers_under_both_schedulers() {
        // The poison sweep reaches a processor blocked in `recv` on
        // either substrate, as a parked task, within the second.
        for kind in SUBSTRATES {
            let m = pair(kind);
            let start = Instant::now();
            let err = catch_unwind(AssertUnwindSafe(|| {
                m.run(|p| {
                    if p.id() == 0 {
                        std::thread::sleep(Duration::from_millis(50));
                        panic!("deliberate");
                    }
                    let _: u8 = p.recv(0, 1);
                })
            }))
            .expect_err("the panic propagates");
            assert_eq!(err.downcast_ref::<&str>(), Some(&"deliberate"), "{kind:?}");
            assert!(start.elapsed() < Duration::from_secs(1), "{kind:?}: {:?}", start.elapsed());
        }
    }

    #[test]
    fn spans_carry_traffic_counters() {
        let m = Machine::new(MachineConfig::mesh(1, 2).unwrap().with_trace());
        let run = m.run(|p| {
            let span = p.span_begin();
            if p.id() == 0 {
                p.send(1, 1, &[1u64, 2, 3]);
            } else {
                let _: [u64; 3] = p.recv(0, 1);
            }
            p.span_end("xchg", span);
        });
        let s = &run.report.procs[0].trace[0];
        assert_eq!((s.sends, s.bytes_sent, s.recvs, s.bytes_recvd), (1, 24, 0, 0));
        let r = &run.report.procs[1].trace[0];
        assert_eq!((r.sends, r.bytes_sent, r.recvs, r.bytes_recvd), (0, 0, 1, 24));
        assert_eq!(s.label, "xchg");
        assert!(s.end >= s.start);
    }

    #[test]
    fn comm_matrix_recorded_only_when_tracing() {
        let program = |p: &mut crate::Proc<'_>| {
            if p.id() == 0 {
                p.send(1, 1, &[7u8; 10]);
                p.send(1, 2, &3u16);
            } else {
                let _: [u8; 10] = p.recv(0, 1);
                let _: u16 = p.recv(0, 2);
                p.send(0, 3, &1u8);
            }
            let _: u8 = if p.id() == 0 { p.recv(1, 3) } else { 0 };
        };
        let plain = Machine::new(MachineConfig::mesh(1, 2).unwrap()).run(program);
        assert!(plain.report.comm_matrix().is_none());

        let traced = Machine::new(MachineConfig::mesh(1, 2).unwrap().with_trace()).run(program);
        let m = traced.report.comm_matrix().expect("tracing records rows");
        assert_eq!(m.msgs_at(0, 1), 2);
        assert_eq!(m.bytes_at(0, 1), 12);
        assert_eq!(m.msgs_at(1, 0), 1);
        assert_eq!(m.bytes_at(1, 0), 1);
        // Receiver-side rows agree with the sender-side matrix.
        let p1 = traced.report.procs[1].comm.as_ref().unwrap();
        assert_eq!(p1.recvd_msgs[0], 2);
        assert_eq!(p1.recvd_bytes[0], 12);
        // Byte conservation holds machine-wide.
        assert_eq!(traced.report.total_bytes(), traced.report.total_bytes_recvd());
    }

    #[test]
    fn stats_count_traffic() {
        let m = Machine::new(MachineConfig::mesh(1, 2).unwrap());
        let run = m.run(|p| {
            if p.id() == 0 {
                p.send(1, 1, &[1u64, 2, 3]); // fixed-size array: 24 bytes
            } else {
                let _: [u64; 3] = p.recv(0, 1);
            }
        });
        assert_eq!(run.report.total_msgs(), 1);
        assert_eq!(run.report.total_bytes(), 24);
        assert_eq!(run.report.procs[1].stats.recvs, 1);
    }

    #[test]
    fn crash_surfaces_as_structured_failure_not_a_hang() {
        use crate::error::AbortCause;
        // Proc 1 parks on a message from proc 0, which then crosses its
        // crash cycle: down-propagation wakes the parked task into
        // `PeerDown` on either substrate, within the second.
        for kind in SUBSTRATES {
            let cfg = MachineConfig::mesh(1, 2).unwrap().with_scheduler(kind);
            let m = Machine::new(cfg.with_faults(FaultPlan::seeded(1).with_crash(0, 1000)));
            let start = Instant::now();
            let failure = m
                .try_run(|p| {
                    if p.id() == 0 {
                        let _: u8 = p.recv(1, 9); // proc 1 has sent it, then parked
                        p.charge(5_000); // crosses the crash cycle
                        p.send(1, 1, &1u8);
                    } else {
                        p.send(0, 9, &0u8);
                        let _: u8 = p.recv(0, 1);
                    }
                })
                .expect_err("the crash must fail the run");
            assert!(start.elapsed() < Duration::from_secs(1), "{kind:?}: {:?}", start.elapsed());
            assert_eq!(failure.root().proc, 0);
            assert!(matches!(failure.root().cause, AbortCause::Crashed { cycle: 1000 }));
            // The blocked peer cascaded with PeerDown rather than hanging.
            assert!(failure
                .aborts
                .iter()
                .any(|a| a.proc == 1 && matches!(a.cause, AbortCause::PeerDown { peer: 0 })));
            assert!(failure.to_string().contains("PeerDown"));
        }
    }

    #[test]
    fn messages_sent_before_a_crash_still_deliver() {
        // Crash after the send: the receiver must still get the message,
        // then finish normally — only the crashed processor aborts.
        let m = Machine::new(
            MachineConfig::mesh(1, 2)
                .unwrap()
                .with_faults(FaultPlan::seeded(2).with_crash(0, 2_000_000)),
        );
        let failure = m
            .try_run(|p| {
                if p.id() == 0 {
                    p.send(1, 3, &42u8);
                    p.charge(3_000_000); // now crash
                    0
                } else {
                    p.recv::<u8>(0, 3)
                }
            })
            .expect_err("proc 0 crashed");
        assert_eq!(failure.aborts.len(), 1, "only the crashed processor aborts: {failure}");
        assert_eq!(failure.root().proc, 0);
    }

    #[test]
    fn crash_cascades_along_wait_chains() {
        // 1x3 chain: 2 waits on 1, 1 waits on 0, 0 crashes. The cascade
        // must reach processor 2 through the intermediate hop.
        let m = Machine::new(
            MachineConfig::mesh(1, 3).unwrap().with_faults(FaultPlan::seeded(3).with_crash(0, 100)),
        );
        let start = Instant::now();
        let failure = m
            .try_run(|p| match p.id() {
                0 => {
                    p.charge(200);
                    p.send(1, 1, &1u8);
                }
                1 => {
                    let v: u8 = p.recv(0, 1);
                    p.send(2, 2, &v);
                }
                _ => {
                    let _: u8 = p.recv(1, 2);
                }
            })
            .expect_err("crash fails the run");
        assert!(start.elapsed() < Duration::from_secs(30));
        assert_eq!(failure.aborts.len(), 3);
        assert!(matches!(failure.root().cause, crate::error::AbortCause::Crashed { .. }));
    }

    #[test]
    fn reliable_delivery_masks_drops_and_dups() {
        // A lossy plan with plenty of retry budget: the ring program must
        // produce exactly the fault-free results, with nonzero fault
        // counters in the report and untouched logical traffic counters.
        let program = |p: &mut Proc<'_>| {
            p.charge(100 * (p.id() as u64 + 1));
            let next = (p.id() + 1) % p.nprocs();
            let prev = (p.id() + p.nprocs() - 1) % p.nprocs();
            for round in 0..10u64 {
                p.send(next, 9 + round, &(p.id() as u64 + round));
            }
            let mut got = 0;
            for round in 0..10u64 {
                got += p.recv::<u64>(prev, 9 + round);
            }
            got
        };
        let clean = Machine::new(MachineConfig::mesh(2, 2).unwrap()).run(program);
        let faulty = Machine::new(MachineConfig::mesh(2, 2).unwrap().with_faults(
            FaultPlan::seeded(7).with_drop(0.3).with_dup(0.3).with_delay(0.3, 50_000),
        ));
        let a = faulty.run(program);
        let b = faulty.run(program);
        assert_eq!(a.results, clean.results, "faults must be invisible to the program");
        assert_eq!(a.results, b.results);
        assert_eq!(a.report.sim_cycles, b.report.sim_cycles, "fault schedule is deterministic");
        let fault_events: u64 = a.report.procs.iter().map(|p| p.stats.fault_events()).sum();
        assert!(fault_events > 0, "a 30% fault plan must actually inject faults");
        for (pa, pc) in a.report.procs.iter().zip(&clean.report.procs) {
            assert_eq!(pa.stats.compute, pc.stats.compute, "fault layer must charge no compute");
            assert_eq!(pa.stats.sends, pc.stats.sends, "logical sends counted once");
            assert_eq!(pa.stats.recvs, pc.stats.recvs, "suppressed dups not counted");
            assert_eq!(pa.stats.bytes_sent, pc.stats.bytes_sent);
            assert_eq!(pa.stats.bytes_recvd, pc.stats.bytes_recvd);
        }
    }

    #[test]
    fn zero_rate_active_plan_is_bit_identical_to_no_plan() {
        // The whole ack/sequence machinery engaged but injecting nothing:
        // virtual time and stats must equal the fault-free machine's.
        let program = |p: &mut Proc<'_>| {
            p.charge(70 * (p.id() as u64 + 3));
            let next = (p.id() + 1) % p.nprocs();
            let prev = (p.id() + p.nprocs() - 1) % p.nprocs();
            p.send(next, 5, &[p.id() as u64; 4]);
            let got: [u64; 4] = p.recv(prev, 5);
            got[0]
        };
        let clean = Machine::new(MachineConfig::mesh(2, 2).unwrap()).run(program);
        let armed =
            Machine::new(MachineConfig::mesh(2, 2).unwrap().with_faults(FaultPlan::seeded(99)))
                .run(program);
        assert_eq!(armed.results, clean.results);
        assert_eq!(armed.report.sim_cycles, clean.report.sim_cycles);
        for (pa, pc) in armed.report.procs.iter().zip(&clean.report.procs) {
            assert_eq!(pa.finished_at, pc.finished_at);
            assert_eq!(pa.stats, pc.stats);
        }
    }

    #[test]
    fn exhausted_retry_budget_is_a_structured_failure() {
        use crate::error::AbortCause;
        // Drop rate 1.0: no attempt ever lands, the sender gives up after
        // its budget and the run fails with RetryExhausted — not a hang.
        let m = Machine::new(
            MachineConfig::mesh(1, 2)
                .unwrap()
                .with_faults(FaultPlan::seeded(4).with_drop(1.0).with_budget(3)),
        );
        let start = Instant::now();
        let failure = m
            .try_run(|p| {
                if p.id() == 0 {
                    p.send(1, 1, &1u8);
                } else {
                    let _: u8 = p.recv(0, 1);
                }
            })
            .expect_err("the send can never be delivered");
        assert!(start.elapsed() < Duration::from_secs(30));
        match failure.root().cause {
            AbortCause::RetryExhausted { dst, attempts, .. } => {
                assert_eq!(dst, 1);
                assert_eq!(attempts, 4, "1 original + budget retries");
            }
            ref other => panic!("unexpected root cause {other:?}"),
        }
    }

    #[test]
    fn run_panics_with_peer_down_on_simulated_failure() {
        // The panicking `run` façade must surface the structured message
        // (so legacy callers fail loudly with the diagnostic, not a hang).
        let m = Machine::new(
            MachineConfig::mesh(1, 2).unwrap().with_faults(FaultPlan::seeded(5).with_crash(1, 10)),
        );
        let err = catch_unwind(AssertUnwindSafe(|| {
            m.run(|p| {
                if p.id() == 1 {
                    p.charge(100);
                } else {
                    let _: u8 = p.recv(1, 1);
                }
            })
        }))
        .expect_err("simulated failure must panic through run()");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".into());
        assert!(msg.contains("PeerDown"), "panic message should name PeerDown: {msg}");
    }

    #[test]
    fn schedulers_agree_on_virtual_time_and_stats() {
        // The same ring program under every scheduler × worker-count
        // combination must produce identical results, sim_cycles, and
        // per-processor stats.
        let program = |p: &mut Proc<'_>| {
            p.charge(100 * (p.id() as u64 + 1));
            let next = (p.id() + 1) % p.nprocs();
            let prev = (p.id() + p.nprocs() - 1) % p.nprocs();
            p.send(next, 9, &(p.id() as u64));
            let got: u64 = p.recv(prev, 9);
            p.charge(50);
            got
        };
        let base =
            Machine::new(MachineConfig::mesh(2, 2).unwrap().with_scheduler(SchedulerKind::Threads))
                .run(program);
        for workers in [1, 2, 8] {
            let m = Machine::new(
                MachineConfig::mesh(2, 2)
                    .unwrap()
                    .with_scheduler(SchedulerKind::Event)
                    .with_workers(workers),
            );
            assert_eq!(m.scheduler(), SchedulerKind::Event);
            let run = m.run(program);
            assert_eq!(run.results, base.results);
            assert_eq!(run.report.sim_cycles, base.report.sim_cycles);
            for (pa, pb) in run.report.procs.iter().zip(&base.report.procs) {
                assert_eq!(pa.finished_at, pb.finished_at);
                assert_eq!(pa.stats, pb.stats);
            }
        }
    }

    #[test]
    fn event_scheduler_detects_deadlock_promptly_without_timeout() {
        // Detected structurally (empty ready heap + live tasks) on either
        // substrate, with the misrouted envelope named in the panic.
        for kind in SUBSTRATES {
            let m = pair(kind);
            let start = Instant::now();
            let err = catch_unwind(AssertUnwindSafe(|| m.run(misrouted)))
                .expect_err("deadlock must panic");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic payload".into());
            assert!(msg.contains("deadlock suspected"), "{kind:?}: unexpected panic: {msg}");
            assert!(msg.contains("pending (src, tag) envelope(s): [(0, 7)]"), "{kind:?}: {msg}");
            assert!(start.elapsed() < Duration::from_secs(1), "{kind:?}: {:?}", start.elapsed());
        }
    }

    #[test]
    fn deadlock_is_a_structured_failure_and_the_machine_stays_usable() {
        use crate::error::AbortCause;
        // The verdict is a `Deadlock` abort, not a poisoning panic.
        for kind in SUBSTRATES {
            let m = pair(kind);
            let start = Instant::now();
            let failure = m.try_run(misrouted).expect_err("the receive never matches");
            assert!(start.elapsed() < Duration::from_secs(1), "{kind:?}: {:?}", start.elapsed());
            assert_eq!(failure.root().proc, 1, "{kind:?}");
            assert_eq!(
                failure.root().cause,
                AbortCause::Deadlock { src: 0, tag: 42, pending: vec![(0, 7)] },
                "{kind:?}"
            );
            assert!(failure.to_string().starts_with("simulation failed: deadlock"), "{failure}");
            let ok = m.run(|p| {
                if p.id() == 0 {
                    p.send(1, 7, &9u8);
                    0
                } else {
                    p.recv::<u8>(0, 7)
                }
            });
            assert_eq!(ok.results, vec![0, 9], "{kind:?}");
            assert_eq!(m.setup_reuse_hits(), 1, "{kind:?}: the failed run's arena is reused");
        }
    }

    #[test]
    fn a_deadlock_cycle_is_broken_at_its_lowest_id() {
        use crate::error::AbortCause;
        // Processors 1 and 2 wait on each other: the resolver wakes the
        // lowest-id parked task, and the other cascades from it.
        for kind in SUBSTRATES {
            let m = Machine::new(MachineConfig::mesh(1, 3).unwrap().with_scheduler(kind));
            let failure = m
                .try_run(|p| match p.id() {
                    1 => p.recv::<u8>(2, 5),
                    2 => p.recv::<u8>(1, 6),
                    _ => 0,
                })
                .expect_err("a cycle never completes");
            let aborts: Vec<_> = failure.aborts.iter().map(|a| (a.proc, a.cause.clone())).collect();
            let deadlock = AbortCause::Deadlock { src: 2, tag: 5, pending: vec![] };
            assert_eq!(aborts, [(1, deadlock), (2, AbortCause::PeerDown { peer: 1 })], "{kind:?}");
        }
    }

    #[test]
    fn runtime_error_is_structured_and_does_not_poison() {
        use crate::error::{AbortCause, RT_ERROR_PREFIX};
        // Proc 0 hits a Skil runtime error; proc 1 is blocked on it.
        // Expected: a structured RuntimeError root with a PeerDown
        // cascade — no poison, no hang, and the machine stays usable.
        let start = Instant::now();
        let m = Machine::new(MachineConfig::mesh(1, 2).unwrap());
        let failure = m
            .try_run(|p| {
                if p.id() == 0 {
                    p.charge(100);
                    panic!("{RT_ERROR_PREFIX}integer division by zero");
                } else {
                    let _: u8 = p.recv(0, 1);
                }
            })
            .expect_err("runtime error must fail the run");
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "peers must cascade promptly without a fault plan, took {:?}",
            start.elapsed()
        );
        assert_eq!(failure.root().proc, 0);
        assert!(matches!(
            &failure.root().cause,
            AbortCause::RuntimeError { what } if what == "integer division by zero"
        ));
        assert!(failure
            .aborts
            .iter()
            .any(|a| a.proc == 1 && matches!(a.cause, AbortCause::PeerDown { peer: 0 })));
        let s = failure.to_string();
        assert!(s.contains("runtime error"), "{s}");

        // The machine is not poisoned: the very next run on the same
        // warm machine completes with correct results.
        let ok = m.run(|p| {
            if p.id() == 0 {
                p.send(1, 7, &9u8);
                0
            } else {
                p.recv::<u8>(0, 7)
            }
        });
        assert_eq!(ok.results, vec![0, 9]);
    }

    #[test]
    fn warm_machine_reuse_is_bit_identical() {
        // The pool contract: run → run again on the same machine and
        // nothing (results, virtual time, per-proc stats) may differ —
        // every run builds its mailboxes/stats/flags from scratch.
        let program = |p: &mut Proc<'_>| {
            p.charge(100 * (p.id() as u64 + 1));
            let next = (p.id() + 1) % p.nprocs();
            let prev = (p.id() + p.nprocs() - 1) % p.nprocs();
            p.send(next, 9, &(p.id() as u64));
            let got: u64 = p.recv(prev, 9);
            p.charge(50);
            got
        };
        for kind in SUBSTRATES {
            let m = Machine::new(MachineConfig::mesh(2, 2).unwrap().with_scheduler(kind));
            let a = m.run(program);
            let b = m.run(program);
            assert_eq!(a.results, b.results);
            assert_eq!(a.report.sim_cycles, b.report.sim_cycles);
            for (pa, pb) in a.report.procs.iter().zip(&b.report.procs) {
                assert_eq!(pa.finished_at, pb.finished_at);
                assert_eq!(pa.stats, pb.stats);
            }
        }
    }

    #[test]
    fn warm_reuse_is_counted_and_data_plane_counters_are_deterministic() {
        let program = |p: &mut Proc<'_>| {
            if p.id() == 0 {
                p.send(1, 1, &vec![7u8; 4]); // 12-byte payload: inline
                p.send(1, 2, &vec![9u8; 80]); // 88-byte payload: heap
            } else {
                let _: Vec<u8> = p.recv(0, 1);
                let _: Vec<u8> = p.recv(0, 2);
            }
        };
        for kind in SUBSTRATES {
            let m = pair(kind);
            assert_eq!(m.setup_reuse_hits(), 0);
            let a = m.run(program);
            assert_eq!(m.setup_reuse_hits(), 0, "first run is cold");
            let b = m.run(program);
            assert_eq!(m.setup_reuse_hits(), 1, "second run reuses the parked arena");
            let (da, db) = (a.report.data_plane(), b.report.data_plane());
            assert_eq!(da, db, "{kind:?}: counters must not depend on arena reuse");
            assert_eq!(da.inline_msgs, 1, "{kind:?}");
            assert_eq!(da.heap_msgs, 1, "{kind:?}");
            assert_eq!((da.direct_deliveries, da.condvar_deliveries), (2, 0), "{kind:?}");
        }
    }

    #[test]
    fn per_run_fault_plan_override_beats_the_configured_plan() {
        use crate::error::AbortCause;
        // Machine configured fault-free; the override carries a crash.
        let m = Machine::new(MachineConfig::mesh(1, 2).unwrap());
        let plan = FaultPlan::seeded(9).with_crash(0, 1000);
        let program = |p: &mut Proc<'_>| {
            if p.id() == 0 {
                p.charge(5_000);
                p.send(1, 1, &1u8);
            } else {
                let _: u8 = p.recv(0, 1);
            }
        };
        let failure = m.try_run_faults(Some(&plan), program).expect_err("override crashes");
        assert!(matches!(failure.root().cause, AbortCause::Crashed { cycle: 1000 }));
        // And with no override the machine's own (fault-free) plan runs.
        m.try_run_faults(None, program).expect("fault-free run succeeds");
    }

    #[test]
    fn user_panic_hooks_installed_after_ours_still_fire() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Force our filter hook in first.
        Machine::new(MachineConfig::procs(1).unwrap()).run(|_| ());
        static FIRED: AtomicUsize = AtomicUsize::new(0);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // Count only this test's panic: parallel tests may panic
            // while this hook is temporarily installed.
            if info.payload().downcast_ref::<&'static str>() == Some(&"user-level hook probe") {
                FIRED.fetch_add(1, Ordering::SeqCst);
            }
        }));
        let _ = catch_unwind(|| panic!("user-level hook probe"));
        std::panic::set_hook(prev);
        assert_eq!(FIRED.load(Ordering::SeqCst), 1, "a later user hook must not be lost");
    }

    #[test]
    fn zero_cost_model_runs_in_zero_time() {
        let cfg = MachineConfig::mesh(1, 2).unwrap().with_cost(CostModel::zero());
        let m = Machine::new(cfg);
        let run = m.run(|p| {
            if p.id() == 0 {
                p.send(1, 1, &9u8);
            } else {
                let _: u8 = p.recv(0, 1);
            }
        });
        assert_eq!(run.report.sim_cycles, 0);
    }
}
