//! The per-processor handle SPMD programs run against.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::coro::{TaskFrame, WakeKind};
use crate::cost::CostModel;
use crate::error::{AbortCause, SimAbort, WireError};
use crate::fault::{Fate, FaultPlan};
use crate::mailbox::{Envelope, Mailbox, Payload, RecvOutcome, WaitCtl, INLINE_PAYLOAD};
use crate::report::{CommRow, DataPlaneStats, ProcStats, TraceEvent, TraceKind};
use crate::sched::EventSched;
use crate::topology::{Mesh, Ring, Topology, Torus2d};
use crate::wire::{vec_from_bytes_into, Wire};

/// How many drained encode buffers a processor keeps for reuse. Two is
/// enough for ping-pong traffic; a little slack covers skeletons that
/// hold a few payloads at once (e.g. a fold combining child results).
const SCRATCH_BUFS: usize = 4;

/// Snapshot of a processor's clock and traffic counters at the start of
/// a traced span (see [`Proc::span_begin`]). The matching
/// [`Proc::span_end`] turns the difference into a [`TraceEvent`] with
/// per-span traffic counters.
#[derive(Debug, Clone, Copy)]
pub struct SpanStart {
    start: u64,
    sends: u64,
    recvs: u64,
    bytes_sent: u64,
    bytes_recvd: u64,
}

/// Machine state shared by all processors of one simulation.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) trace: bool,
    pub(crate) mesh: Mesh,
    pub(crate) topo: Topology,
    pub(crate) cost: CostModel,
    pub(crate) deadlock_timeout: Duration,
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) poison: AtomicBool,
    /// The active fault plan ([`FaultPlan::none`] ⇒ the reliable-delivery
    /// layer is bypassed entirely).
    pub(crate) faults: FaultPlan,
    /// Per-processor down flags, set when a processor aborts for a
    /// simulated reason — a fault-model crash/give-up *or* a Skil
    /// runtime error. Receivers blocked on a down peer abort with a
    /// structured `PeerDown` instead of deadlocking, with or without an
    /// active fault plan.
    pub(crate) downs: Vec<AtomicBool>,
    /// Why each down processor went down (diagnostics for `SimFailure`).
    pub(crate) down_causes: Mutex<Vec<Option<AbortCause>>>,
    /// The event scheduler driving this run, when the machine runs in
    /// event mode. Deposit and abort paths use it to make parked
    /// receiver tasks ready.
    pub(crate) sched: Option<Arc<EventSched>>,
}

impl Shared {
    /// Poison the machine and wake every receiver blocked on a mailbox so
    /// the abort is observed immediately (no polling interval).
    pub(crate) fn poison_all(&self) {
        self.poison.store(true, Ordering::Release);
        for mb in &self.mailboxes {
            mb.wake_all();
        }
        if let Some(sched) = &self.sched {
            sched.wake_parked(&self.mailboxes, |_| true);
        }
    }

    /// Mark `id` down for a simulated reason and wake every blocked
    /// receiver so waits on it abort promptly with `PeerDown`. Unlike
    /// [`poison_all`](Shared::poison_all) this does not poison the
    /// machine: processors not (transitively) waiting on the down one
    /// finish normally, which keeps the cascade deterministic.
    pub(crate) fn mark_down(&self, id: usize, cause: AbortCause) {
        {
            let mut causes = self.down_causes.lock().unwrap_or_else(|e| e.into_inner());
            causes[id].get_or_insert(cause);
        }
        self.downs[id].store(true, Ordering::Release);
        for mb in &self.mailboxes {
            mb.wake_all();
        }
        if let Some(sched) = &self.sched {
            sched.wake_parked(&self.mailboxes, |src| src == id);
        }
    }
}

/// One simulated processor: a virtual clock, activity counters, and access
/// to the machine's mailboxes. The SPMD program receives `&mut Proc` and
/// runs real Rust code; *virtual* time advances only through [`charge`],
/// sends, and receives.
///
/// [`charge`]: Proc::charge
#[derive(Debug)]
pub struct Proc<'m> {
    id: usize,
    shared: &'m Shared,
    now: u64,
    stats: ProcStats,
    trace: Vec<TraceEvent>,
    /// Per-peer traffic counters (`Some` only while tracing, so the
    /// data plane pays nothing when observability is off).
    comm: Option<CommRow>,
    /// Size of the last encoded payload: the next send pre-allocates its
    /// buffer to this, so steady-state traffic (ring rotations, halo
    /// exchanges) flattens straight into a right-sized buffer with no
    /// growth reallocations.
    encode_cap: usize,
    /// Reusable encode buffers. Inline sends return their buffer here
    /// immediately; heap payloads come back through
    /// [`recycle`](Proc::recycle) once the receiver has drained them and
    /// the `Arc` is unique again — steady-state traffic then allocates
    /// nothing per message.
    scratch: Vec<Vec<u8>>,
    /// Host data-plane counters (delivery path, payload representation).
    dp: DataPlaneStats,
    /// Whether a fault plan is active (cached off the shared state so
    /// the hot paths branch on a local bool).
    faults_active: bool,
    /// Virtual cycle at which this processor crashes under the fault
    /// plan; `u64::MAX` when no crash is scheduled, so the hot-path
    /// check is a single always-false compare.
    crash_limit: u64,
    /// Next sequence number to assign per `(dst, tag)` flow.
    send_seq: HashMap<(usize, u64), u64>,
    /// Next sequence number expected per `(src, tag)` flow; envelopes
    /// below it are duplicates and are suppressed.
    recv_seq: HashMap<(usize, u64), u64>,
    /// The coroutine switch frame, when this processor runs as an event
    /// task: blocking receives yield through it back to the scheduler
    /// worker instead of parking the host thread on a condvar.
    parker: Option<&'m TaskFrame>,
}

impl<'m> Proc<'m> {
    pub(crate) fn new(id: usize, shared: &'m Shared) -> Self {
        let comm = shared.trace.then(|| CommRow::new(shared.mesh.procs()));
        let faults_active = shared.faults.is_active();
        let crash_limit = if faults_active {
            shared.faults.crash_cycle(id).unwrap_or(u64::MAX)
        } else {
            u64::MAX
        };
        Proc {
            id,
            shared,
            now: 0,
            stats: ProcStats::default(),
            trace: Vec::new(),
            comm,
            encode_cap: 0,
            scratch: Vec::new(),
            dp: DataPlaneStats::default(),
            faults_active,
            crash_limit,
            send_seq: HashMap::new(),
            recv_seq: HashMap::new(),
            parker: None,
        }
    }

    /// Attach the event-task switch frame (event scheduler only; set
    /// before the SPMD body runs).
    pub(crate) fn set_parker(&mut self, frame: &'m TaskFrame) {
        self.parker = Some(frame);
    }

    /// Whether event tracing is enabled for this run.
    pub fn tracing(&self) -> bool {
        self.shared.trace
    }

    /// Open a traced span: snapshot the clock and traffic counters.
    /// Pair with [`span_end`](Proc::span_end); cheap enough to call
    /// unconditionally (a few register copies), and `span_end` is a
    /// no-op unless the machine was configured with tracing.
    pub fn span_begin(&self) -> SpanStart {
        SpanStart {
            start: self.now,
            sends: self.stats.sends,
            recvs: self.stats.recvs,
            bytes_sent: self.stats.bytes_sent,
            bytes_recvd: self.stats.bytes_recvd,
        }
    }

    /// Close a traced span opened with [`span_begin`](Proc::span_begin),
    /// recording a [`TraceEvent`] whose counters are the traffic this
    /// processor performed since the snapshot. No-op unless the machine
    /// was configured with tracing.
    pub fn span_end(&mut self, label: &str, span: SpanStart) {
        if self.shared.trace {
            self.trace.push(TraceEvent {
                kind: TraceKind::Span,
                label: label.to_string(),
                start: span.start,
                end: self.now,
                sends: self.stats.sends - span.sends,
                recvs: self.stats.recvs - span.recvs,
                bytes_sent: self.stats.bytes_sent - span.bytes_sent,
                bytes_recvd: self.stats.bytes_recvd - span.bytes_recvd,
            });
        }
    }

    /// Drain the recorded trace (machine internals).
    pub(crate) fn take_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace)
    }

    /// Drain the per-peer traffic row (machine internals).
    pub(crate) fn take_comm(&mut self) -> Option<CommRow> {
        self.comm.take()
    }

    /// This processor's id, in `0..nprocs()`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of processors in the machine.
    pub fn nprocs(&self) -> usize {
        self.shared.mesh.procs()
    }

    /// The logical process grid (equal to the physical mesh on
    /// mesh-shaped machines).
    pub fn mesh(&self) -> Mesh {
        self.shared.mesh
    }

    /// The physical interconnect.
    pub fn topology(&self) -> Topology {
        self.shared.topo
    }

    /// The ring virtual topology over this machine, priced by the
    /// physical topology's hop metric.
    pub fn ring(&self, virtual_links: bool) -> Ring {
        Ring::on(self.shared.topo, virtual_links)
    }

    /// The 2-D torus virtual topology over this machine, priced by the
    /// physical topology's hop metric.
    pub fn torus(&self, virtual_links: bool) -> Torus2d {
        Torus2d::on(self.shared.topo, virtual_links)
    }

    /// The machine's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.shared.cost
    }

    /// Current virtual time in cycles.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Current virtual time in seconds.
    pub fn now_seconds(&self) -> f64 {
        self.shared.cost.seconds(self.now)
    }

    /// Activity counters so far.
    pub fn stats(&self) -> ProcStats {
        self.stats
    }

    /// Host data-plane counters so far.
    pub(crate) fn data_plane(&self) -> DataPlaneStats {
        self.dp
    }

    /// Advance the virtual clock by `cycles` of computation.
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.now += cycles;
        self.stats.compute += cycles;
        if self.now >= self.crash_limit {
            self.crash();
        }
    }

    /// Record a zero-width fault-event instant at virtual time `at`
    /// (no-op unless tracing). Fault instants ride the same trace stream
    /// as skeleton spans, so they show up in `skeleton_metrics` and as
    /// instant events in the Chrome export.
    fn trace_instant(&mut self, kind: TraceKind, label: &str, at: u64) {
        if self.shared.trace {
            self.trace.push(TraceEvent {
                kind,
                label: label.to_string(),
                start: at,
                end: at,
                sends: 0,
                recvs: 0,
                bytes_sent: 0,
                bytes_recvd: 0,
            });
        }
    }

    /// The fault plan scheduled this processor to die and its clock just
    /// reached the fatal cycle: unwind with a structured [`SimAbort`].
    /// The machine's job wrapper catches it, marks this processor down
    /// (waking blocked peers into `PeerDown`), and reports the whole run
    /// as a [`SimFailure`](crate::error::SimFailure) — never a hang.
    #[cold]
    fn crash(&mut self) -> ! {
        let cycle = self.crash_limit;
        self.trace_instant(TraceKind::Crash, "fault.crash", self.now);
        std::panic::panic_any(SimAbort { proc: self.id, cause: AbortCause::Crashed { cycle } })
    }

    /// Structured abort for delivery-layer give-up.
    #[cold]
    fn abort_retry_exhausted(&mut self, dst: usize, tag: u64, attempts: u32) -> ! {
        std::panic::panic_any(SimAbort {
            proc: self.id,
            cause: AbortCause::RetryExhausted { dst, tag, attempts },
        })
    }

    /// Structured abort for a receive that can never match: this
    /// processor goes down like a crashed one, its waiting peers cascade,
    /// and the machine stays usable. Everything queued here is snapshot
    /// so a misrouted tag is diagnosable from the failure alone.
    #[cold]
    fn abort_deadlock(&self, src: usize, tag: u64) -> ! {
        let pending = self.shared.mailboxes[self.id].pending();
        std::panic::panic_any(SimAbort {
            proc: self.id,
            cause: AbortCause::Deadlock { src, tag, pending },
        })
    }

    fn check_peer(&self, peer: usize) {
        assert!(
            peer < self.nprocs(),
            "processor {} addressed invalid peer {} (machine has {})",
            self.id,
            peer,
            self.nprocs()
        );
        assert_ne!(peer, self.id, "processor {} attempted a self-send", self.id);
    }

    /// Flatten `val` once and freeze it into a payload: short results
    /// are copied inline into the envelope (no allocation, and the
    /// encode buffer is reused immediately), long ones move into a
    /// shared heap buffer — no copy between encoding and sharing.
    pub(crate) fn encode<T: Wire>(&mut self, val: &T) -> Payload {
        let mut buf = self.scratch.pop().unwrap_or_else(|| Vec::with_capacity(self.encode_cap));
        val.flatten(&mut buf);
        self.encode_cap = buf.len();
        if buf.len() <= INLINE_PAYLOAD {
            let payload = Payload::copy_from(&buf);
            buf.clear();
            self.scratch.push(buf);
            payload
        } else {
            Payload::Heap(Arc::new(buf))
        }
    }

    /// Return a drained payload's heap buffer to the encode pool, if it
    /// had one and this receiver was its last holder. Closes the loop
    /// with [`encode`](Proc::encode): in steady-state ping-pong traffic
    /// the same buffers shuttle between the peers' pools instead of
    /// being allocated and freed per message.
    fn recycle(&mut self, bytes: Payload) {
        if self.scratch.len() < SCRATCH_BUFS {
            if let Some(mut buf) = bytes.reclaim_vec() {
                buf.clear();
                self.scratch.push(buf);
            }
        }
    }

    /// Deposit `env` into `dst`'s mailbox and wake the receiver.
    ///
    /// Under the event scheduler this is the scheduler-native path: the
    /// envelope goes into the receiver's queue, or, when the receiver
    /// task is parked waiting for exactly this flow, travels with its
    /// wake to the ready heap at the later of the envelope's arrival and
    /// the task's own clock — no condvar is touched, because every
    /// receiver in an event-mode run is a coroutine task (never a thread
    /// parked in `Mailbox::get`). The thread scheduler keeps the condvar
    /// broadcast. Either way the arrival timestamp was fixed analytically
    /// above, so the choice of path is invisible to virtual time.
    fn put_and_wake(&mut self, dst: usize, env: Envelope) {
        if env.bytes.is_inline() {
            self.dp.inline_msgs += 1;
        } else {
            self.dp.heap_msgs += 1;
        }
        match &self.shared.sched {
            Some(sched) => {
                self.dp.direct_deliveries += 1;
                if let Some(env) = self.shared.mailboxes[dst].put_direct(env) {
                    sched.push_ready(dst, env.arrival.max(sched.vnow_hint(dst)), Some(env));
                }
            }
            None => {
                self.dp.condvar_deliveries += 1;
                self.shared.mailboxes[dst].put(env);
            }
        }
    }

    /// Deposit one logical message for `dst`, `transit` virtual cycles of
    /// link time away, and return the virtual time at which it is
    /// delivered. Counts the message once in the logical traffic stats
    /// regardless of how many physical transmission attempts the fault
    /// plan forces, so `sends`/`bytes_sent` (and machine-wide byte
    /// conservation) are identical with and without faults.
    fn deposit(&mut self, dst: usize, tag: u64, bytes: Payload, transit: u64) -> u64 {
        self.stats.sends += 1;
        self.stats.bytes_sent += bytes.len() as u64;
        if let Some(comm) = &mut self.comm {
            comm.sent_msgs[dst] += 1;
            comm.sent_bytes[dst] += bytes.len() as u64;
        }
        if self.faults_active {
            return self.deliver_reliably(dst, tag, bytes, transit);
        }
        let arrival = self.now + transit;
        self.put_and_wake(dst, Envelope { src: self.id, tag, seq: 0, arrival, bytes });
        arrival
    }

    /// The reliable-delivery layer: simulate the stop-and-wait ack
    /// protocol for one message analytically on the sender.
    ///
    /// Because the fault plan is a pure function of
    /// `(seed, src, dst, tag, seq, attempt)`, the sender can fold the
    /// whole exchange — original transmission, lost attempts, backoff
    /// timers, the retransmission that finally lands — into the single
    /// arrival timestamp of the envelope it deposits. No ack messages
    /// flow on the host, so the protocol adds zero host traffic and
    /// stays deterministic under any thread schedule (the determinism
    /// argument in DESIGN.md §12). The protocol machinery itself charges
    /// the sender nothing: faults perturb *when* messages arrive (wait
    /// time), never how much anyone computes or how many logical
    /// messages flow.
    fn deliver_reliably(&mut self, dst: usize, tag: u64, bytes: Payload, transit: u64) -> u64 {
        let plan = &self.shared.faults;
        let seq = {
            let s = self.send_seq.entry((dst, tag)).or_insert(0);
            let v = *s;
            *s += 1;
            v
        };
        // Virtual time the current attempt leaves the sender. Retries
        // push it forward by the backoff schedule; the sender's own
        // clock does not advance (async sends overlap with compute).
        let mut fire = self.now;
        let mut attempt: u32 = 0;
        loop {
            match plan.fate(self.id, dst, tag, seq, attempt) {
                Fate::Drop => {
                    self.stats.drops += 1;
                    self.trace_instant(TraceKind::Drop, "fault.drop", fire);
                    attempt += 1;
                    if attempt > plan.budget() {
                        self.abort_retry_exhausted(dst, tag, attempt);
                    }
                    fire += plan.backoff(attempt);
                    self.stats.retries += 1;
                    self.trace_instant(TraceKind::Retry, "fault.retry", fire);
                }
                Fate::Deliver { extra_delay, duplicate } => {
                    if extra_delay > 0 {
                        self.stats.delays += 1;
                    }
                    let arrival = fire + transit + extra_delay;
                    self.put_and_wake(
                        dst,
                        Envelope { src: self.id, tag, seq, arrival, bytes: bytes.clone() },
                    );
                    if duplicate {
                        // The duplicate trails the original on the same
                        // flow, so per-flow FIFO (and therefore sequence
                        // monotonicity at the receiver) is preserved.
                        self.trace_instant(TraceKind::Dup, "fault.dup", arrival);
                        self.put_and_wake(
                            dst,
                            Envelope {
                                src: self.id,
                                tag,
                                seq,
                                arrival: arrival + transit.max(1),
                                bytes,
                            },
                        );
                    }
                    return arrival;
                }
            }
        }
    }

    /// Asynchronous send of an already-flattened payload over the mesh
    /// route to `dst`. Charges exactly what [`send`](Proc::send) charges
    /// for the same bytes; collectives use it to flatten once and share
    /// the payload across every downstream link.
    pub(crate) fn send_shared(&mut self, dst: usize, tag: u64, bytes: Payload) {
        self.check_peer(dst);
        let hops = self.shared.topo.hops(self.id, dst);
        self.charge(self.shared.cost.send_cpu);
        let transit = self.shared.cost.transit(bytes.len(), hops);
        self.deposit(dst, tag, bytes, transit);
    }

    /// Asynchronous send over the physical mesh route to `dst`.
    ///
    /// The sender is charged only the CPU cost of initiating the transfer
    /// (`send_cpu`); the link time overlaps with subsequent computation.
    /// The message becomes available to the receiver at
    /// `now + send_cpu + transit(bytes, mesh hops)`.
    pub fn send<T: Wire>(&mut self, dst: usize, tag: u64, val: &T) {
        let hops = self.shared.topo.hops(self.id, dst);
        self.send_hops(dst, hops, tag, val);
    }

    /// Asynchronous send with an explicit hop count, used by virtual
    /// topologies whose embedded links differ from raw mesh distance.
    pub fn send_hops<T: Wire>(&mut self, dst: usize, hops: usize, tag: u64, val: &T) {
        self.check_peer(dst);
        let bytes = self.encode(val);
        self.charge(self.shared.cost.send_cpu);
        let transit = self.shared.cost.transit(bytes.len(), hops);
        self.deposit(dst, tag, bytes, transit);
    }

    /// Synchronous send: the sender blocks until the transfer completes
    /// (the model of the paper's *older* C comparator, which did not use
    /// asynchronous communication). The sender's clock advances by the
    /// full transit time.
    pub fn send_sync<T: Wire>(&mut self, dst: usize, tag: u64, val: &T) {
        let hops = self.shared.topo.hops(self.id, dst);
        self.send_sync_hops(dst, hops, tag, val);
    }

    /// Synchronous send with an explicit hop count.
    pub fn send_sync_hops<T: Wire>(&mut self, dst: usize, hops: usize, tag: u64, val: &T) {
        self.check_peer(dst);
        let bytes = self.encode(val);
        self.charge(self.shared.cost.send_cpu);
        let transit = self.shared.cost.transit(bytes.len(), hops);
        // Blocked until the transfer actually completes: no overlap with
        // computation. Under faults that is the delivery time of the
        // attempt that finally lands, retries and injected delay
        // included — fault-free it is exactly `now + transit`.
        let arrival = self.deposit(dst, tag, bytes, transit);
        self.stats.wait += arrival - self.now;
        self.now = arrival;
        if self.now >= self.crash_limit {
            self.crash();
        }
    }

    /// Raw neighbour-link send, bypassing the routing software: the
    /// model of hand-written transputer code that drives the hardware
    /// links directly (chain/pipeline communication). The sender is
    /// charged only the tiny link overhead; the message arrives after
    /// `raw_link_overhead + bytes * per_byte` per hop.
    pub fn send_raw<T: Wire>(&mut self, dst: usize, hops: usize, tag: u64, val: &T) {
        self.check_peer(dst);
        let bytes = self.encode(val);
        let c = &self.shared.cost;
        self.charge(c.raw_link_overhead);
        let per_hop = c.raw_link_overhead + c.per_byte * bytes.len() as u64;
        let transit = per_hop * hops.max(1) as u64;
        self.deposit(dst, tag, bytes, transit);
    }

    /// Dequeue the next envelope from `(src, tag)`, advancing the virtual
    /// clock to its arrival and charging `recv_cost` for accepting it.
    /// The payload stays shared — collectives forward it to further links
    /// without re-flattening.
    pub(crate) fn recv_envelope(&mut self, src: usize, tag: u64, recv_cost: u64) -> Envelope {
        self.check_peer(src);
        // Borrow the wait flags straight off the `'m`-lived shared state
        // so `ctl` stays usable while the loop mutates `self`.
        let shared: &'m Shared = self.shared;
        // Down-propagation is unconditional (not gated on the fault
        // plan): a Skil runtime error can down a processor in any run,
        // and its blocked peers must cascade as `PeerDown` rather than
        // sit out the deadlock timeout.
        let ctl = WaitCtl {
            poison: &shared.poison,
            src_down: Some(&shared.downs[src]),
            deadline: shared.deadlock_timeout,
        };
        let env = loop {
            let outcome = match self.parker {
                None => shared.mailboxes[self.id].get(src, tag, ctl),
                Some(frame) => self.event_wait(frame, src, tag),
            };
            match outcome {
                RecvOutcome::Message(e) => {
                    if self.faults_active {
                        let expected = self.recv_seq.entry((src, tag)).or_insert(0);
                        if e.seq < *expected {
                            // A duplicate copy the ack protocol already
                            // delivered: suppress it charge-free (it
                            // affects neither the clock nor the logical
                            // traffic counters) and keep waiting.
                            self.stats.dups += 1;
                            let at = self.now;
                            self.trace_instant(TraceKind::Dup, "fault.dup_suppressed", at);
                            continue;
                        }
                        *expected = e.seq + 1;
                    }
                    break e;
                }
                RecvOutcome::Poisoned => {
                    panic!("processor {}: aborted (a peer processor panicked)", self.id)
                }
                RecvOutcome::PeerDown => {
                    // Structured cascade through the machine's failure
                    // path: the job wrapper marks this processor down
                    // too, so failure propagates along wait chains
                    // instead of hanging anyone.
                    std::panic::panic_any(SimAbort {
                        proc: self.id,
                        cause: AbortCause::PeerDown { peer: src },
                    })
                }
                RecvOutcome::TimedOut => self.abort_deadlock(src, tag),
            }
        };
        self.stats.recvs += 1;
        self.stats.bytes_recvd += env.bytes.len() as u64;
        if let Some(comm) = &mut self.comm {
            comm.recvd_msgs[env.src] += 1;
            comm.recvd_bytes[env.src] += env.bytes.len() as u64;
        }
        if env.arrival > self.now {
            self.stats.wait += env.arrival - self.now;
            self.now = env.arrival;
            if self.now >= self.crash_limit {
                self.crash();
            }
        }
        self.charge(recv_cost);
        env
    }

    /// The event-scheduler receive wait: poll the queue and abort flags,
    /// then yield back to the scheduler worker (which registers the park
    /// in the mailbox *after* the context is saved — see
    /// `sched::block_task`). Checks mirror [`Mailbox::get`] in the same
    /// order: mail first — the envelope a sender handed over with the
    /// wake, then the queue — then the peer-down flag, then poison. A
    /// [`WakeKind::Deadlock`] resume maps to `TimedOut`, so the
    /// diagnostic path is shared with the thread scheduler's wall-clock
    /// timeout.
    fn event_wait(&self, frame: &TaskFrame, src: usize, tag: u64) -> RecvOutcome {
        let shared = self.shared;
        let mb = &shared.mailboxes[self.id];
        loop {
            if let Some(env) = mb.try_take(src, tag) {
                return RecvOutcome::Message(env);
            }
            if shared.downs[src].load(Ordering::Acquire) {
                return RecvOutcome::PeerDown;
            }
            if shared.poison.load(Ordering::Acquire) {
                return RecvOutcome::Poisoned;
            }
            let wake = frame.yield_blocked(src, tag, self.now);
            if let Some(env) = frame.take_delivered() {
                return RecvOutcome::Message(env);
            }
            if wake == WakeKind::Deadlock {
                return RecvOutcome::TimedOut;
            }
        }
    }

    pub(crate) fn decode_or_panic<T: Wire>(&self, env: &Envelope) -> T {
        T::from_bytes(&env.bytes).unwrap_or_else(|e| self.decode_failed(env, e))
    }

    #[cold]
    fn decode_failed(&self, env: &Envelope, e: WireError) -> ! {
        panic!(
            "processor {}: message from {} with tag {} failed to decode: {}",
            self.id, env.src, env.tag, e
        )
    }

    /// Raw receive matching [`send_raw`](Proc::send_raw): charges only
    /// the link overhead instead of the full software receive cost.
    pub fn recv_raw<T: Wire>(&mut self, src: usize, tag: u64) -> T {
        let env = self.recv_envelope(src, tag, self.shared.cost.raw_link_overhead);
        let v = self.decode_or_panic(&env);
        self.recycle(env.bytes);
        v
    }

    /// Receive the next message from `src` carrying `tag`, advancing the
    /// virtual clock to the message's arrival time if it is in the local
    /// future.
    ///
    /// Panics on decode failure (an SPMD type mismatch is a program bug).
    /// A receive that can never match fails the run with a structured
    /// [`AbortCause::Deadlock`] instead of hanging it.
    pub fn recv<T: Wire>(&mut self, src: usize, tag: u64) -> T {
        // Receiver-side software cost of accepting the message.
        let env = self.recv_envelope(src, tag, self.shared.cost.recv_cpu);
        let v = self.decode_or_panic(&env);
        self.recycle(env.bytes);
        v
    }

    /// [`recv`](Proc::recv) of a `Vec<T>` into `out`: its contents are
    /// replaced by the message's, and its allocation is kept, so a
    /// skeleton that rotates blocks decodes each into the buffer it
    /// already owns. Charges and checks are `recv`'s.
    pub fn recv_into<T: Wire>(&mut self, src: usize, tag: u64, out: &mut Vec<T>) {
        let env = self.recv_envelope(src, tag, self.shared.cost.recv_cpu);
        if let Err(e) = vec_from_bytes_into(&env.bytes, out) {
            self.decode_failed(&env, e);
        }
        self.recycle(env.bytes);
    }

    /// Raise the local clock to `t` if it is in the future (used by
    /// collectives to model synchronization points).
    pub fn sync_to(&mut self, t: u64) {
        if t > self.now {
            self.stats.wait += t - self.now;
            self.now = t;
            if self.now >= self.crash_limit {
                self.crash();
            }
        }
    }

    /// True once any processor in the machine has panicked.
    pub fn poisoned(&self) -> bool {
        self.shared.poison.load(Ordering::Acquire)
    }
}
