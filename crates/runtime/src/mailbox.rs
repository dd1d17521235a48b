//! Per-processor mailboxes with (source, tag) matching.
//!
//! Every processor owns one mailbox; any processor may deposit an
//! envelope. Reception matches on exact `(src, tag)` pairs and preserves
//! FIFO order per pair, which (together with programs that never receive
//! from "any source") makes simulations deterministic regardless of host
//! thread scheduling.
//!
//! Matching is indexed: envelopes are bucketed by `(src, tag)` in a hash
//! map of FIFO queues, so a receive is a hash lookup plus a pop instead
//! of a linear scan of everything queued. The keys are processor ids and
//! the runtime's own tags, never client text, so they hash with a fixed
//! multiplicative hasher (`KeyHasher`) rather than the DoS-resistant
//! SipHash. Waits are fully event-driven —
//! a receiver blocks on the mailbox condvar until a matching deposit or a
//! poison wakeup ([`Mailbox::wake_all`]), with the deadline as the only
//! timeout; there is no periodic poll.
//!
//! An event-scheduler task does not wait on the condvar: it registers
//! its key with [`Mailbox::park`], and the deposit that matches the
//! registration ([`Mailbox::put_direct`]) hands the envelope back to the
//! sender instead of queueing it, for the scheduler to deliver with the
//! wake. A woken receive then never touches the bucket map again.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Lock a mutex, ignoring poisoning: mailbox state is a plain queue and
/// stays consistent even if a holder panicked mid-operation.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Payloads at most this long are stored inline in the [`Envelope`]
/// with no heap allocation — covering virtually every scalar/tuple
/// message the collectives send. The representation is a pure function
/// of payload *length*, so it is identical across schedulers and runs.
pub const INLINE_PAYLOAD: usize = 64;

/// A flattened message payload with a small-buffer representation.
///
/// Short payloads (`len <= INLINE_PAYLOAD`) live inline in the envelope
/// and are cloned by `memcpy`; longer ones are shared behind an `Arc`
/// (a sender freezes its encode buffer by move, and collectives deliver
/// one flattened buffer to many receivers by cloning the pointer).
/// Which representation a payload gets depends only on its length,
/// never on the scheduler or the delivery path, so byte streams — and
/// therefore virtual time — cannot observe the difference.
#[derive(Clone)]
pub enum Payload {
    /// Payload stored inline: no allocation, cloned by copy.
    Inline {
        /// Number of meaningful bytes in `buf`.
        len: u8,
        /// Inline storage; bytes past `len` are unspecified.
        buf: [u8; INLINE_PAYLOAD],
    },
    /// Heap payload shared behind an `Arc`.
    Heap(Arc<Vec<u8>>),
}

impl Payload {
    /// Build a payload from a byte slice, inlining it when short.
    pub fn copy_from(bytes: &[u8]) -> Payload {
        if bytes.len() <= INLINE_PAYLOAD {
            let mut buf = [0u8; INLINE_PAYLOAD];
            buf[..bytes.len()].copy_from_slice(bytes);
            Payload::Inline { len: bytes.len() as u8, buf }
        } else {
            Payload::Heap(Arc::new(bytes.to_vec()))
        }
    }

    /// Build a payload from an owned buffer without copying large ones.
    pub fn from_vec(bytes: Vec<u8>) -> Payload {
        if bytes.len() <= INLINE_PAYLOAD {
            Payload::copy_from(&bytes)
        } else {
            Payload::Heap(Arc::new(bytes))
        }
    }

    /// Whether this payload is stored inline (no heap allocation).
    pub fn is_inline(&self) -> bool {
        matches!(self, Payload::Inline { .. })
    }

    /// Reclaim the backing `Vec` of an exclusively-owned heap payload,
    /// so receivers can recycle drained encode buffers back into a
    /// sender-side pool. Inline and shared payloads have nothing to
    /// reclaim.
    pub fn reclaim_vec(self) -> Option<Vec<u8>> {
        match self {
            Payload::Heap(arc) => Arc::try_unwrap(arc).ok(),
            Payload::Inline { .. } => None,
        }
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Payload::Inline { len, buf } => &buf[..*len as usize],
            Payload::Heap(arc) => arc,
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Inline { len, .. } => write!(f, "Payload::Inline({len} bytes)"),
            Payload::Heap(arc) => write!(f, "Payload::Heap({} bytes)", arc.len()),
        }
    }
}

/// One in-flight message.
#[derive(Debug)]
pub struct Envelope {
    /// Sending processor.
    pub src: usize,
    /// User-chosen message tag.
    pub tag: u64,
    /// Per-flow sequence number assigned by the reliable-delivery layer
    /// (always 0 when no fault plan is active). Deposit order per
    /// `(src, tag)` flow is program order, so sequence numbers are
    /// nondecreasing in the queue and the receiver suppresses duplicates
    /// with a single expected-next counter.
    pub seq: u64,
    /// Virtual time at which the message is fully available to the
    /// receiver.
    pub arrival: u64,
    /// Flattened payload (inline when short, `Arc`-shared when large).
    pub bytes: Payload,
}

/// Everything a bounded mailbox wait consults besides the `(src, tag)`
/// key: abort flags and the deadlock deadline.
#[derive(Debug, Clone, Copy)]
pub struct WaitCtl<'a> {
    /// Global poison flag — a peer panicked with a genuine bug.
    pub poison: &'a AtomicBool,
    /// The sender's down flag — it crashed under the fault plan or gave
    /// up delivering. Checked only after the queue is drained, so
    /// messages deposited before the crash still deliver.
    pub src_down: Option<&'a AtomicBool>,
    /// Real-time budget before the wait reports a suspected deadlock.
    pub deadline: Duration,
}

/// Hashes a `(src, tag)` key with one multiply per word and a
/// fold-multiply-fold finish. A multiply only carries a bit upwards, and
/// the table indexes by the low bits: without the folds, tags that
/// differ only in a high bit (a collective's second phase) would always
/// share a bucket.
#[derive(Default)]
struct KeyHasher(u64);

/// 2^64 / φ: odd, with well-spread bits.
const KEY_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(KEY_MUL);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(KEY_MUL);
        h ^ (h >> 32)
    }
}

/// Envelope queues bucketed by `(src, tag)`.
#[derive(Debug, Default)]
struct Buckets {
    queues: HashMap<(usize, u64), VecDeque<Envelope>, BuildHasherDefault<KeyHasher>>,
    /// Total queued envelopes across all buckets.
    len: usize,
    /// Emptied bucket queues kept for reuse: the hot deposit path takes
    /// a pre-sized queue from here instead of allocating one per
    /// transient `(src, tag)` flow. Bounded so mailboxes that see many
    /// distinct tags (farms index tags by task) cannot hoard memory.
    spare: Vec<VecDeque<Envelope>>,
    /// The owning processor's event-scheduler wait registration: the
    /// `(src, tag)` key it is parked on, if any. Only the event
    /// scheduler sets this; under the thread scheduler waits park on
    /// the condvar instead.
    parked: Option<(usize, u64)>,
}

/// Cap on recycled bucket queues kept per mailbox.
const SPARE_QUEUES: usize = 32;

impl Buckets {
    /// Pop the oldest envelope for `key`, recycling the bucket's
    /// allocation when it empties.
    fn pop(&mut self, key: (usize, u64)) -> Option<Envelope> {
        let q = self.queues.get_mut(&key)?;
        let env = q.pop_front()?;
        if q.is_empty() {
            let q = self.queues.remove(&key).expect("bucket existed");
            if self.spare.len() < SPARE_QUEUES {
                self.spare.push(q);
            }
        }
        self.len -= 1;
        Some(env)
    }

    /// Append an envelope to its `(src, tag)` bucket, reusing a spare
    /// queue when the bucket is new.
    fn push(&mut self, env: Envelope) {
        let key = (env.src, env.tag);
        match self.queues.entry(key) {
            Entry::Occupied(mut q) => q.get_mut().push_back(env),
            Entry::Vacant(slot) => {
                let mut q = self.spare.pop().unwrap_or_else(|| VecDeque::with_capacity(4));
                q.push_back(env);
                slot.insert(q);
            }
        }
        self.len += 1;
    }
}

/// A processor's incoming message queue.
#[derive(Debug, Default)]
pub struct Mailbox {
    buckets: Mutex<Buckets>,
    cond: Condvar,
}

/// Outcome of a bounded wait on a mailbox.
#[derive(Debug)]
pub enum RecvOutcome {
    /// A matching envelope was dequeued.
    Message(Envelope),
    /// The machine was poisoned (a peer panicked).
    Poisoned,
    /// The awaited sender went down (fault-model crash or delivery
    /// give-up) and its queue holds no matching envelope.
    PeerDown,
    /// The deadline passed with no matching message.
    TimedOut,
}

impl Mailbox {
    /// Deposit an envelope and wake any receiver waiting in
    /// [`get`](Mailbox::get) — the thread scheduler's path. Event-scheduler
    /// tasks are sent to with [`put_direct`](Mailbox::put_direct).
    pub fn put(&self, env: Envelope) {
        lock(&self.buckets).push(env);
        self.cond.notify_all();
    }

    /// Scheduler-native deposit: no condvar broadcast, and no queueing
    /// for a receiver that is already waiting. Only valid when the
    /// receiving processor is an event-scheduler task — such tasks never
    /// wait on the condvar (they park via [`park`](Mailbox::park) and are
    /// woken through the ready heap).
    ///
    /// When the owning task is parked on the envelope's own `(src, tag)`,
    /// the registration is cleared and the envelope handed back instead
    /// of queued: the caller must make the task ready *with* it
    /// (`EventSched::push_ready`). That bucket is empty then — a task parks
    /// only over an empty bucket, and the first deposit that matches
    /// clears the registration — so the hand-off is the flow's oldest
    /// envelope and per-flow FIFO holds. Otherwise the envelope is queued
    /// and `None` returned.
    pub(crate) fn put_direct(&self, env: Envelope) -> Option<Envelope> {
        let mut b = lock(&self.buckets);
        let key = (env.src, env.tag);
        if b.parked == Some(key) {
            debug_assert!(!b.queues.contains_key(&key), "a task parks over an empty bucket");
            b.parked = None;
            return Some(env);
        }
        b.push(env);
        None
    }

    /// Dequeue the oldest envelope matching `(src, tag)`, waiting up to
    /// `ctl.deadline` total. `ctl.poison` / `ctl.src_down` abort the
    /// wait early when set; whoever sets them must call
    /// [`wake_all`](Mailbox::wake_all) so blocked receivers observe the
    /// abort immediately.
    pub fn get(&self, src: usize, tag: u64, ctl: WaitCtl<'_>) -> RecvOutcome {
        let start = std::time::Instant::now();
        let key = (src, tag);
        let mut b = lock(&self.buckets);
        loop {
            if let Some(env) = b.pop(key) {
                return RecvOutcome::Message(env);
            }
            // Queue first, flags second: envelopes deposited before a
            // crash are still delivered.
            if let Some(down) = ctl.src_down {
                if down.load(Ordering::Acquire) {
                    return RecvOutcome::PeerDown;
                }
            }
            if ctl.poison.load(Ordering::Acquire) {
                return RecvOutcome::Poisoned;
            }
            let elapsed = start.elapsed();
            if elapsed >= ctl.deadline {
                return RecvOutcome::TimedOut;
            }
            let (guard, _timeout) = self
                .cond
                .wait_timeout(b, ctl.deadline - elapsed)
                .unwrap_or_else(|e| e.into_inner());
            b = guard;
        }
    }

    /// Non-blocking dequeue of the oldest `(src, tag)` envelope — the
    /// event scheduler's receive fast path (a blocked event task parks
    /// via [`park`](Mailbox::park) instead of the condvar).
    pub(crate) fn try_take(&self, src: usize, tag: u64) -> Option<Envelope> {
        lock(&self.buckets).pop((src, tag))
    }

    /// Register the owning event task as parked on `(src, tag)`.
    /// Returns `false` — without registering — if a matching envelope is
    /// already queued, in which case the task must stay runnable. The
    /// registration is cleared by the [`put_direct`](Mailbox::put_direct)
    /// that matches it or by [`unpark`](Mailbox::unpark).
    pub(crate) fn park(&self, src: usize, tag: u64) -> bool {
        let mut b = lock(&self.buckets);
        if b.queues.contains_key(&(src, tag)) {
            return false;
        }
        debug_assert!(b.parked.is_none(), "one task per mailbox");
        b.parked = Some((src, tag));
        true
    }

    /// Clear a parked-task registration whose key satisfies `pred`
    /// (poison wakes everyone; a peer-down wake matches on the source).
    /// Returns `true` if a registration was cleared — exactly one waker
    /// wins, so the caller that sees `true` owns making the task ready.
    pub(crate) fn unpark(&self, pred: impl Fn((usize, u64)) -> bool) -> bool {
        let mut b = lock(&self.buckets);
        match b.parked {
            Some(key) if pred(key) => {
                b.parked = None;
                true
            }
            _ => false,
        }
    }

    /// Reset for reuse by the next run on a warm machine: drop leftover
    /// envelopes (a failed or aborted run may leave some queued) and any
    /// stale wait registration, keeping the bucket map and recycled
    /// queue allocations — the per-run setup floor this shaves is the
    /// point of the machine's run arena.
    pub(crate) fn reset(&self) {
        let mut b = lock(&self.buckets);
        let keys: Vec<(usize, u64)> = b.queues.keys().copied().collect();
        for key in keys {
            let mut q = b.queues.remove(&key).expect("key just listed");
            q.clear();
            if b.spare.len() < SPARE_QUEUES {
                b.spare.push(q);
            }
        }
        b.len = 0;
        b.parked = None;
    }

    /// Wake every blocked receiver so it can re-check the poison flag.
    /// Taking the lock before notifying closes the race with a receiver
    /// that has checked the flag but not yet parked on the condvar.
    pub fn wake_all(&self) {
        drop(lock(&self.buckets));
        self.cond.notify_all();
    }

    /// Number of queued envelopes (diagnostics only).
    pub fn len(&self) -> usize {
        lock(&self.buckets).len
    }

    /// Whether the mailbox is empty (diagnostics only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of `(src, tag)` pairs currently queued, one entry per
    /// envelope, sorted for stable output (for deadlock reports).
    pub fn pending(&self) -> Vec<(usize, u64)> {
        let b = lock(&self.buckets);
        let mut v: Vec<(usize, u64)> =
            b.queues.iter().flat_map(|(&k, q)| std::iter::repeat_n(k, q.len())).collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, tag: u64, arrival: u64) -> Envelope {
        Envelope { src, tag, seq: 0, arrival, bytes: Payload::from_vec(Vec::new()) }
    }

    fn ctl(poison: &AtomicBool, deadline: Duration) -> WaitCtl<'_> {
        WaitCtl { poison, src_down: None, deadline }
    }

    #[test]
    fn matches_src_and_tag() {
        let mb = Mailbox::default();
        let poison = AtomicBool::new(false);
        mb.put(env(1, 10, 5));
        mb.put(env(2, 10, 6));
        mb.put(env(1, 11, 7));
        match mb.get(2, 10, ctl(&poison, Duration::from_secs(1))) {
            RecvOutcome::Message(e) => assert_eq!((e.src, e.tag, e.arrival), (2, 10, 6)),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(mb.len(), 2);
        assert_eq!(mb.pending(), vec![(1, 10), (1, 11)]);
    }

    #[test]
    fn fifo_per_pair() {
        let mb = Mailbox::default();
        let poison = AtomicBool::new(false);
        mb.put(env(1, 10, 100));
        mb.put(env(1, 10, 200));
        let a = match mb.get(1, 10, ctl(&poison, Duration::from_secs(1))) {
            RecvOutcome::Message(e) => e.arrival,
            _ => panic!(),
        };
        let b = match mb.get(1, 10, ctl(&poison, Duration::from_secs(1))) {
            RecvOutcome::Message(e) => e.arrival,
            _ => panic!(),
        };
        assert_eq!((a, b), (100, 200));
    }

    #[test]
    fn times_out_without_match() {
        let mb = Mailbox::default();
        let poison = AtomicBool::new(false);
        mb.put(env(1, 10, 5));
        match mb.get(1, 99, ctl(&poison, Duration::from_millis(60))) {
            RecvOutcome::TimedOut => {}
            other => panic!("unexpected outcome {other:?}"),
        }
        // The non-matching envelope is untouched.
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn poison_aborts_wait() {
        let mb = Arc::new(Mailbox::default());
        let poison = Arc::new(AtomicBool::new(false));
        let mb2 = Arc::clone(&mb);
        let poison2 = Arc::clone(&poison);
        let t = std::thread::spawn(move || mb2.get(0, 0, ctl(&poison2, Duration::from_secs(30))));
        std::thread::sleep(Duration::from_millis(50));
        poison.store(true, Ordering::Release);
        mb.wake_all();
        match t.join().unwrap() {
            RecvOutcome::Poisoned => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn poison_wakeup_is_prompt() {
        // Event-driven wakeup: a blocked receiver must observe poisoning
        // well before any polling interval would have fired.
        let mb = Arc::new(Mailbox::default());
        let poison = Arc::new(AtomicBool::new(false));
        let mb2 = Arc::clone(&mb);
        let poison2 = Arc::clone(&poison);
        let t = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            let out = mb2.get(0, 0, ctl(&poison2, Duration::from_secs(30)));
            (out, start.elapsed())
        });
        std::thread::sleep(Duration::from_millis(40));
        poison.store(true, Ordering::Release);
        let poisoned_at = std::time::Instant::now();
        mb.wake_all();
        let (out, _waited) = t.join().unwrap();
        assert!(matches!(out, RecvOutcome::Poisoned));
        assert!(
            poisoned_at.elapsed() < Duration::from_secs(5),
            "wakeup took {:?}",
            poisoned_at.elapsed()
        );
    }

    #[test]
    fn peer_down_aborts_wait_but_queued_mail_still_delivers() {
        let mb = Mailbox::default();
        let poison = AtomicBool::new(false);
        let down = AtomicBool::new(true);
        mb.put(env(4, 9, 11));
        let c =
            WaitCtl { poison: &poison, src_down: Some(&down), deadline: Duration::from_secs(1) };
        // Sent-before-crash mail is drained first …
        match mb.get(4, 9, c) {
            RecvOutcome::Message(e) => assert_eq!(e.arrival, 11),
            other => panic!("unexpected outcome {other:?}"),
        }
        // … and only then does the down flag surface.
        match mb.get(4, 9, c) {
            RecvOutcome::PeerDown => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn peer_down_wakeup_is_prompt() {
        let mb = Arc::new(Mailbox::default());
        let poison = Arc::new(AtomicBool::new(false));
        let down = Arc::new(AtomicBool::new(false));
        let (mb2, poison2, down2) = (Arc::clone(&mb), Arc::clone(&poison), Arc::clone(&down));
        let t = std::thread::spawn(move || {
            let c = WaitCtl {
                poison: &poison2,
                src_down: Some(&down2),
                deadline: Duration::from_secs(30),
            };
            mb2.get(0, 0, c)
        });
        std::thread::sleep(Duration::from_millis(40));
        down.store(true, Ordering::Release);
        let marked_at = std::time::Instant::now();
        mb.wake_all();
        assert!(matches!(t.join().unwrap(), RecvOutcome::PeerDown));
        assert!(
            marked_at.elapsed() < Duration::from_secs(5),
            "wakeup took {:?}",
            marked_at.elapsed()
        );
    }

    #[test]
    fn cross_thread_delivery() {
        let mb = Arc::new(Mailbox::default());
        let poison = AtomicBool::new(false);
        let mb2 = Arc::clone(&mb);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            mb2.put(Envelope {
                src: 3,
                tag: 7,
                seq: 0,
                arrival: 42,
                bytes: Payload::from_vec(vec![1, 2]),
            });
        });
        match mb.get(3, 7, ctl(&poison, Duration::from_secs(5))) {
            RecvOutcome::Message(e) => {
                assert_eq!(e.arrival, 42);
                assert_eq!(&e.bytes[..], &[1, 2]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        t.join().unwrap();
    }

    #[test]
    fn keys_one_high_tag_bit_apart_hash_apart_in_the_low_bits() {
        use std::hash::BuildHasher;
        let hash = |key: (usize, u64)| BuildHasherDefault::<KeyHasher>::default().hash_one(key);
        for (src, tag) in [(0, 0), (3, 7), (63, 1 << 40)] {
            for bit in [32, 62, 63] {
                let (a, b) = (hash((src, tag)), hash((src, tag ^ (1 << bit))));
                assert_ne!(a & 0xff, b & 0xff, "({src}, {tag}) and bit {bit}");
            }
        }
    }

    #[test]
    fn many_distinct_pairs_stay_cheap_and_correct() {
        // Indexed matching: interleave 64 (src, tag) pairs and drain them
        // in an unrelated order.
        let mb = Mailbox::default();
        let poison = AtomicBool::new(false);
        for src in 1..9 {
            for tag in 0..8u64 {
                mb.put(env(src, tag, (src as u64) * 100 + tag));
            }
        }
        assert_eq!(mb.len(), 64);
        for tag in (0..8u64).rev() {
            for src in (1..9).rev() {
                match mb.get(src, tag, ctl(&poison, Duration::from_secs(1))) {
                    RecvOutcome::Message(e) => {
                        assert_eq!(e.arrival, (src as u64) * 100 + tag)
                    }
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
        }
        assert!(mb.is_empty());
        assert!(mb.pending().is_empty());
    }
}
