//! Collective operations over the whole machine.
//!
//! The paper's collectives run along a binomial tree ("virtual tree
//! topology"): `array_fold` composes partition results toward the root
//! and then broadcasts the final value back down, and
//! `array_broadcast_part` pushes a partition down the tree. The combine
//! order is fixed by the tree, so results are deterministic even for
//! non-commutative operators — but, as the paper specifies, only
//! associative & commutative operators make the result independent of
//! the machine shape.
//!
//! On top of the tree trio this module adds the group-communication
//! patterns of modern collective stacks — allgather, alltoall,
//! reduce-scatter, neighborhood exchange — plus two *algorithm
//! families* for allreduce and allgather:
//!
//! * **Ring** algorithms step only between consecutive processor ids,
//!   so they ride raw neighbour links (store-and-forward: bytes are
//!   paid once per weighted hop, but there is no per-message routing
//!   software). Cheap when ring links are short, terrible when the
//!   topology makes `id → id+1` far.
//! * **Recursive doubling** exchanges with partner `id ^ 2^r` in round
//!   `r` — `⌈log₂ p⌉` routed messages whose byte cost is hop-
//!   independent, paying the full software overhead per message.
//!
//! Which family wins is a pure function of the machine's
//! [`Topology`] hop metric and [`CostModel`] constants — both sides of
//! the trade are *analytic* in this simulator, so [`select_allreduce`]
//! and [`select_allgather`] simply evaluate each algorithm's closed-
//! form critical path and take the argmin. The selection uses no
//! per-run value sizes (a nominal payload stands in), so every
//! processor picks the same algorithm and determinism is preserved.

use crate::cost::CostModel;
use crate::proc::Proc;
use crate::topology::{BinomialTree, Topology};
use crate::wire::Wire;

/// Tag-space offset separating the gather and release phases of
/// collectives that have both.
const PHASE: u64 = 1 << 62;

/// Nominal payload (bytes) the algorithm-selection estimates price
/// messages at. Collectives mostly move fold scalars and small records;
/// what matters for selection is the hop structure, not the exact size.
const NOMINAL_BYTES: usize = 16;

/// Which algorithm a collective runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveAlgo {
    /// The paper's binomial tree (reduce to root 0, broadcast back).
    /// The allreduce default — bit-identical to the seed simulator.
    Tree,
    /// Ring pipeline over raw neighbour links.
    Ring,
    /// Recursive doubling over routed messages.
    RecDouble,
    /// Pick Ring vs RecDouble by the topology's hop metric.
    Auto,
}

impl CollectiveAlgo {
    /// Parse a `--collective-algo` / `collective_algo` request value.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "tree" => Some(CollectiveAlgo::Tree),
            "ring" => Some(CollectiveAlgo::Ring),
            "rd" | "recursive-doubling" => Some(CollectiveAlgo::RecDouble),
            "auto" => Some(CollectiveAlgo::Auto),
            _ => None,
        }
    }

    /// Canonical spelling (`parse` round-trips it).
    pub fn as_str(&self) -> &'static str {
        match self {
            CollectiveAlgo::Tree => "tree",
            CollectiveAlgo::Ring => "ring",
            CollectiveAlgo::RecDouble => "rd",
            CollectiveAlgo::Auto => "auto",
        }
    }
}

/// Largest power of two `<= n` (n >= 1).
fn prev_pow2(n: usize) -> usize {
    debug_assert!(n >= 1);
    if n.is_power_of_two() {
        n
    } else {
        n.next_power_of_two() >> 1
    }
}

/// One raw-link chain step over `h` weighted hops: the sender's and
/// receiver's `raw_link_overhead` plus store-and-forward of `bytes`
/// across each hop (mirrors `send_raw`/`recv_raw` charging).
fn raw_step(cost: &CostModel, h: usize, bytes: usize) -> u64 {
    let per_hop = cost.raw_link_overhead + cost.per_byte * bytes as u64;
    2 * cost.raw_link_overhead + h.max(1) as u64 * per_hop
}

/// One routed software message over `h` weighted hops (mirrors
/// `send`/`recv` charging: sender CPU, setup, bytes once, per-hop
/// wire latency, receiver CPU).
fn routed_step(cost: &CostModel, h: usize, bytes: usize) -> u64 {
    cost.send_cpu
        + cost.msg_setup
        + cost.per_byte * bytes as u64
        + cost.per_hop * h.max(1) as u64
        + cost.recv_cpu
}

/// Worst weighted hop distance over the recursive-doubling pairs of
/// round `bit` (partners `i ↔ i ^ bit` below `p2`).
fn rd_round_max_hops(topo: &Topology, p2: usize, bit: usize) -> usize {
    (0..p2).map(|i| topo.hops(i, i ^ bit)).max().unwrap_or(1)
}

/// Estimated critical path of one allreduce under `algo` on `topo` —
/// the closed forms the auto-selection compares. `Auto` evaluates to
/// the winner's estimate.
pub fn estimate_allreduce(algo: CollectiveAlgo, topo: &Topology, cost: &CostModel) -> u64 {
    let n = topo.procs();
    if n <= 1 {
        return 0;
    }
    match algo {
        CollectiveAlgo::Ring => {
            // Two sequential circulations of the accumulator: the
            // value visits every forward link once per phase (phase 2
            // enters through the wrap link instead of the last forward
            // link).
            let fwd: u64 =
                (0..n - 1).map(|i| raw_step(cost, topo.hops(i, i + 1), NOMINAL_BYTES)).sum();
            let wrap = raw_step(cost, topo.hops(n - 1, 0), NOMINAL_BYTES);
            let last = raw_step(cost, topo.hops(n - 2, n - 1), NOMINAL_BYTES);
            2 * fwd + wrap - last
        }
        CollectiveAlgo::RecDouble => {
            let p2 = prev_pow2(n);
            let mut est = 0u64;
            let mut bit = 1usize;
            while bit < p2 {
                est += routed_step(cost, rd_round_max_hops(topo, p2, bit), NOMINAL_BYTES);
                bit <<= 1;
            }
            if n > p2 {
                let fold = (p2..n).map(|e| topo.hops(e, e - p2)).max().unwrap_or(1);
                est += 2 * routed_step(cost, fold, NOMINAL_BYTES);
            }
            est
        }
        CollectiveAlgo::Tree => {
            // Reduce + broadcast along the binomial tree: one routed
            // message per round each way, at that round's worst edge.
            let mut est = 0u64;
            let mut bit = 1usize;
            while bit < n {
                // round-`bit` tree edges pair x with x - bit for x whose
                // lowest set bit is `bit`
                let h = (bit..n)
                    .filter(|x| x & (bit * 2 - 1) == bit)
                    .map(|x| topo.hops(x, x - bit))
                    .max()
                    .unwrap_or(1);
                est += 2 * routed_step(cost, h, NOMINAL_BYTES);
                bit <<= 1;
            }
            est
        }
        CollectiveAlgo::Auto => estimate_allreduce(select_allreduce(topo, cost), topo, cost),
    }
}

/// Estimated critical path of one allgather under `algo` on `topo`.
pub fn estimate_allgather(algo: CollectiveAlgo, topo: &Topology, cost: &CostModel) -> u64 {
    let n = topo.procs();
    if n <= 1 {
        return 0;
    }
    match algo {
        CollectiveAlgo::Ring => {
            // n-1 rounds, but the blocks stream around the ring
            // concurrently (links have latency, not occupancy), so the
            // critical path is one full circuit of link transits — the
            // last block to arrive anywhere travelled every link —
            // plus one processor's per-round link overheads.
            let per_hop = cost.raw_link_overhead + cost.per_byte * NOMINAL_BYTES as u64;
            let circuit: u64 =
                (0..n).map(|i| topo.hops(i, (i + 1) % n).max(1) as u64 * per_hop).sum();
            circuit + (n as u64 - 1) * 2 * cost.raw_link_overhead
        }
        CollectiveAlgo::RecDouble => {
            let p2 = prev_pow2(n);
            let mut est = 0u64;
            let mut bit = 1usize;
            while bit < p2 {
                // the exchanged list doubles every round
                est += routed_step(cost, rd_round_max_hops(topo, p2, bit), NOMINAL_BYTES * bit);
                bit <<= 1;
            }
            if n > p2 {
                let fold = (p2..n).map(|e| topo.hops(e, e - p2)).max().unwrap_or(1);
                est += routed_step(cost, fold, NOMINAL_BYTES)
                    + routed_step(cost, fold, NOMINAL_BYTES * n);
            }
            est
        }
        CollectiveAlgo::Tree => {
            // gather to the root + broadcast of the whole vector.
            estimate_allreduce(CollectiveAlgo::Tree, topo, cost)
                + routed_step(cost, topo.diameter(), NOMINAL_BYTES * n)
        }
        CollectiveAlgo::Auto => estimate_allgather(select_allgather(topo, cost), topo, cost),
    }
}

/// The allreduce algorithm the hop metric selects on `topo`: the
/// cheaper of [`CollectiveAlgo::Ring`] and [`CollectiveAlgo::RecDouble`]
/// by closed-form estimate (ties go to Ring). Deterministic — every
/// processor evaluates the same pure function.
pub fn select_allreduce(topo: &Topology, cost: &CostModel) -> CollectiveAlgo {
    let ring = estimate_allreduce(CollectiveAlgo::Ring, topo, cost);
    let rd = estimate_allreduce(CollectiveAlgo::RecDouble, topo, cost);
    if ring <= rd {
        CollectiveAlgo::Ring
    } else {
        CollectiveAlgo::RecDouble
    }
}

/// The allgather algorithm the hop metric selects on `topo` (see
/// [`select_allreduce`]).
pub fn select_allgather(topo: &Topology, cost: &CostModel) -> CollectiveAlgo {
    let ring = estimate_allgather(CollectiveAlgo::Ring, topo, cost);
    let rd = estimate_allgather(CollectiveAlgo::RecDouble, topo, cost);
    if ring <= rd {
        CollectiveAlgo::Ring
    } else {
        CollectiveAlgo::RecDouble
    }
}

impl Proc<'_> {
    /// Broadcast `val` from `root` to every processor. Exactly the root
    /// must pass `Some`; everyone receives the value.
    pub fn broadcast<T: Wire>(&mut self, root: usize, tag: u64, val: Option<T>) -> T {
        let span = self.span_begin();
        let tree = BinomialTree::new(self.nprocs(), root);
        // Send to the largest subtree first: its delivery chain is the
        // longest, so it must leave the (serializing) sender earliest.
        let children = tree.children(self.id()).rev();
        // Flatten once: the root encodes the value a single time and
        // every interior node forwards the payload it received, so one
        // buffer crosses the whole tree by pointer clones (or, for the
        // short payloads typical of fold results, by inline copies that
        // never touch the heap). The encoding is deterministic, so
        // forwarded bytes are identical to what a re-flatten would
        // produce.
        let (v, payload) = if self.id() == root {
            let v = val.expect("broadcast root must supply a value");
            let payload = if children.len() == 0 { None } else { Some(self.encode(&v)) };
            (v, payload)
        } else {
            assert!(val.is_none(), "non-root processor supplied a broadcast value");
            let parent = tree.parent(self.id()).expect("non-root has a parent");
            let recv_cpu = self.cost().recv_cpu;
            let env = self.recv_envelope(parent, tag, recv_cpu);
            (self.decode_or_panic(&env), Some(env.bytes))
        };
        if let Some(payload) = payload {
            for child in children {
                self.send_shared(child, tag, payload.clone());
            }
        }
        self.span_end("broadcast", span);
        v
    }

    /// Reduce every processor's `mine` to the root with `combine`,
    /// charging `op_cycles` per combine. Returns `Some` only at the root.
    pub fn reduce<T, F>(
        &mut self,
        root: usize,
        tag: u64,
        mine: T,
        mut combine: F,
        op_cycles: u64,
    ) -> Option<T>
    where
        T: Wire,
        F: FnMut(T, T) -> T,
    {
        let span = self.span_begin();
        let tree = BinomialTree::new(self.nprocs(), root);
        let mut acc = mine;
        // Children arrive in reverse round order: the child with the
        // largest subtree reports last.
        for child in tree.children(self.id()).rev() {
            let theirs: T = self.recv(child, tag);
            self.charge(op_cycles);
            acc = combine(acc, theirs);
        }
        let out = match tree.parent(self.id()) {
            Some(parent) => {
                self.send(parent, tag, &acc);
                None
            }
            None => Some(acc),
        };
        self.span_end("reduce", span);
        out
    }

    /// Reduce every processor's `mine` into one value known everywhere.
    ///
    /// Runs the machine's configured algorithm
    /// ([`Proc::collective_algo`]): the paper's binomial tree by
    /// default — reduce to root 0, broadcast back, exactly the
    /// communication structure of `array_fold` — or the ring /
    /// recursive-doubling variants, or hop-metric auto-selection.
    /// All variants agree for associative & commutative `combine`.
    pub fn allreduce<T, F>(&mut self, tag: u64, mine: T, combine: F, op_cycles: u64) -> T
    where
        T: Wire + Clone,
        F: FnMut(T, T) -> T,
    {
        let algo = self.collective_algo().unwrap_or(CollectiveAlgo::Tree);
        self.allreduce_with(algo, tag, mine, combine, op_cycles)
    }

    /// [`allreduce`](Proc::allreduce) with an explicit algorithm,
    /// ignoring the machine-wide setting (differential tests and the
    /// bench compare variants this way).
    pub fn allreduce_with<T, F>(
        &mut self,
        algo: CollectiveAlgo,
        tag: u64,
        mine: T,
        combine: F,
        op_cycles: u64,
    ) -> T
    where
        T: Wire + Clone,
        F: FnMut(T, T) -> T,
    {
        let algo = match algo {
            CollectiveAlgo::Auto => select_allreduce(&self.topology(), self.cost()),
            a => a,
        };
        match algo {
            CollectiveAlgo::Tree => self.allreduce_tree(tag, mine, combine, op_cycles),
            CollectiveAlgo::Ring => self.allreduce_ring(tag, mine, combine, op_cycles),
            CollectiveAlgo::RecDouble => self.allreduce_rd(tag, mine, combine, op_cycles),
            CollectiveAlgo::Auto => unreachable!("Auto resolved above"),
        }
    }

    /// The paper's allreduce: reduce to root 0 along the binomial tree
    /// and broadcast the result back down.
    fn allreduce_tree<T, F>(&mut self, tag: u64, mine: T, combine: F, op_cycles: u64) -> T
    where
        T: Wire + Clone,
        F: FnMut(T, T) -> T,
    {
        let span = self.span_begin();
        let root = 0;
        let reduced = self.reduce(root, tag, mine, combine, op_cycles);
        let out = if self.id() == root {
            let v = reduced.expect("root holds the reduction");
            self.broadcast(root, tag | PHASE, Some(v))
        } else {
            self.broadcast(root, tag | PHASE, None)
        };
        self.span_end("allreduce", span);
        out
    }

    /// Ring allreduce: the accumulator makes one sequential circulation
    /// `0 → 1 → … → n-1` (combining in id order), then the final value
    /// circulates back around through the wrap link. Every transfer is
    /// a raw neighbour-link step priced by the topology's hop metric.
    fn allreduce_ring<T, F>(&mut self, tag: u64, mine: T, mut combine: F, op_cycles: u64) -> T
    where
        T: Wire,
        F: FnMut(T, T) -> T,
    {
        let span = self.span_begin();
        let n = self.nprocs();
        let id = self.id();
        if n == 1 {
            self.span_end("allreduce", span);
            return mine;
        }
        let next = (id + 1) % n;
        let prev = (id + n - 1) % n;
        let h_next = self.hops_to(next);
        // Phase 1: left-fold the accumulator along the chain.
        let full = if id == 0 {
            self.send_raw(next, h_next, tag, &mine);
            None
        } else {
            let upstream: T = self.recv_raw(prev, tag);
            self.charge(op_cycles);
            let acc = combine(upstream, mine);
            if id < n - 1 {
                self.send_raw(next, h_next, tag, &acc);
                None
            } else {
                Some(acc)
            }
        };
        // Phase 2: the full value circulates n-1 → 0 → … → n-2.
        let out = match full {
            Some(v) => {
                self.send_raw(next, h_next, tag | PHASE, &v);
                v
            }
            None => {
                let v: T = self.recv_raw(prev, tag | PHASE);
                if id != n - 2 {
                    self.send_raw(next, h_next, tag | PHASE, &v);
                }
                v
            }
        };
        self.span_end("allreduce", span);
        out
    }

    /// Recursive-doubling allreduce: fold non-power-of-two stragglers
    /// into the largest power-of-two core, exchange with `id ^ 2^r` in
    /// round `r` (routed messages), then return results to the
    /// stragglers. Both partners combine lower-id-first, so all
    /// processors hold the identical value.
    fn allreduce_rd<T, F>(&mut self, tag: u64, mine: T, mut combine: F, op_cycles: u64) -> T
    where
        T: Wire,
        F: FnMut(T, T) -> T,
    {
        let span = self.span_begin();
        let n = self.nprocs();
        let id = self.id();
        if n == 1 {
            self.span_end("allreduce", span);
            return mine;
        }
        let p2 = prev_pow2(n);
        if id >= p2 {
            // straggler: contribute, then wait for the answer
            self.send(id - p2, tag, &mine);
            let out: T = self.recv(id - p2, tag | PHASE);
            self.span_end("allreduce", span);
            return out;
        }
        let mut acc = mine;
        if id + p2 < n {
            let theirs: T = self.recv(id + p2, tag);
            self.charge(op_cycles);
            acc = combine(acc, theirs);
        }
        let mut bit = 1usize;
        while bit < p2 {
            let partner = id ^ bit;
            self.send(partner, tag, &acc);
            let theirs: T = self.recv(partner, tag);
            self.charge(op_cycles);
            acc = if id < partner { combine(acc, theirs) } else { combine(theirs, acc) };
            bit <<= 1;
        }
        if id + p2 < n {
            self.send(id + p2, tag | PHASE, &acc);
        }
        self.span_end("allreduce", span);
        acc
    }

    /// Synchronize all processors: no processor continues (in virtual
    /// time) before every processor has arrived.
    pub fn barrier(&mut self, tag: u64) {
        // Gather arrival times to the root, then release everyone at the
        // synchronized time. Virtual clocks advance through the message
        // arrival rule, so the barrier cost reflects two tree traversals.
        let _ = self.allreduce(tag, 0u8, |_, _| 0u8, 0);
    }

    /// Gather each processor's value at the root; `None` elsewhere.
    /// The result vector is indexed by processor id.
    pub fn gather<T: Wire>(&mut self, root: usize, tag: u64, mine: T) -> Option<Vec<T>> {
        let n = self.nprocs();
        let reduced = self.reduce(
            root,
            tag,
            vec![(self.id(), mine.to_bytes())],
            |mut a, b| {
                a.extend(b);
                a
            },
            0,
        );
        reduced.map(|pairs| {
            let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
            for (id, bytes) in pairs {
                slots[id] = Some(T::from_bytes(&bytes).expect("gather payload decodes"));
            }
            slots
                .into_iter()
                .enumerate()
                .map(|(id, v)| v.unwrap_or_else(|| panic!("gather missing value from {id}")))
                .collect()
        })
    }

    /// Every processor contributes `mine`; every processor receives the
    /// vector of all contributions, indexed by processor id.
    ///
    /// Runs the machine's configured algorithm; unset defaults to
    /// hop-metric auto-selection ([`select_allgather`]).
    pub fn allgather<T: Wire + Clone>(&mut self, tag: u64, mine: T) -> Vec<T> {
        let algo = self.collective_algo().unwrap_or(CollectiveAlgo::Auto);
        self.allgather_with(algo, tag, mine)
    }

    /// [`allgather`](Proc::allgather) with an explicit algorithm.
    pub fn allgather_with<T: Wire + Clone>(
        &mut self,
        algo: CollectiveAlgo,
        tag: u64,
        mine: T,
    ) -> Vec<T> {
        let algo = match algo {
            CollectiveAlgo::Auto => select_allgather(&self.topology(), self.cost()),
            a => a,
        };
        match algo {
            CollectiveAlgo::Ring => self.allgather_ring(tag, mine),
            CollectiveAlgo::RecDouble => self.allgather_rd(tag, mine),
            CollectiveAlgo::Tree => {
                // gather at root 0, broadcast the assembled vector
                let span = self.span_begin();
                let gathered = self.gather(0, tag, mine);
                let out = self.broadcast(0, tag | PHASE, gathered);
                self.span_end("allgather", span);
                out
            }
            CollectiveAlgo::Auto => unreachable!("Auto resolved above"),
        }
    }

    /// Ring allgather: in step `s` every processor forwards the block
    /// it acquired in step `s-1` (initially its own) to its successor
    /// over a raw neighbour link; after `n-1` steps everyone holds all
    /// blocks.
    fn allgather_ring<T: Wire + Clone>(&mut self, tag: u64, mine: T) -> Vec<T> {
        let span = self.span_begin();
        let n = self.nprocs();
        let id = self.id();
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        out[id] = Some(mine);
        if n > 1 {
            let next = (id + 1) % n;
            let prev = (id + n - 1) % n;
            let h_next = self.hops_to(next);
            for s in 0..n - 1 {
                let send_idx = (id + n - s) % n;
                let recv_idx = (id + n - 1 - s) % n;
                let v = out[send_idx].clone().expect("block acquired in an earlier step");
                self.send_raw(next, h_next, tag, &v);
                out[recv_idx] = Some(self.recv_raw(prev, tag));
            }
        }
        let out = out.into_iter().map(|v| v.expect("all blocks received")).collect();
        self.span_end("allgather", span);
        out
    }

    /// Recursive-doubling allgather: id-tagged blocks double up through
    /// `id ^ 2^r` exchanges (routed messages); non-power-of-two
    /// stragglers fold into the core first and receive the assembled
    /// vector afterwards.
    fn allgather_rd<T: Wire + Clone>(&mut self, tag: u64, mine: T) -> Vec<T> {
        let span = self.span_begin();
        let n = self.nprocs();
        let id = self.id();
        let assemble = |pairs: Vec<(usize, Vec<u8>)>| -> Vec<T> {
            let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
            for (pid, bytes) in pairs {
                slots[pid] = Some(T::from_bytes(&bytes).expect("allgather payload decodes"));
            }
            slots
                .into_iter()
                .enumerate()
                .map(|(pid, v)| v.unwrap_or_else(|| panic!("allgather missing block {pid}")))
                .collect()
        };
        let mut items: Vec<(usize, Vec<u8>)> = vec![(id, mine.to_bytes())];
        if n == 1 {
            let out = assemble(items);
            self.span_end("allgather", span);
            return out;
        }
        let p2 = prev_pow2(n);
        if id >= p2 {
            self.send(id - p2, tag, &items);
            let all: Vec<(usize, Vec<u8>)> = self.recv(id - p2, tag | PHASE);
            let out = assemble(all);
            self.span_end("allgather", span);
            return out;
        }
        if id + p2 < n {
            let theirs: Vec<(usize, Vec<u8>)> = self.recv(id + p2, tag);
            items.extend(theirs);
        }
        let mut bit = 1usize;
        while bit < p2 {
            let partner = id ^ bit;
            self.send(partner, tag, &items);
            let theirs: Vec<(usize, Vec<u8>)> = self.recv(partner, tag);
            items.extend(theirs);
            bit <<= 1;
        }
        if id + p2 < n {
            self.send(id + p2, tag | PHASE, &items);
        }
        let out = assemble(items);
        self.span_end("allgather", span);
        out
    }

    /// Personalized all-to-all: `parts[j]` goes to processor `j`; the
    /// result holds one block from every processor, indexed by source
    /// id. Pairwise-ordered rounds (`s = 1..n`: send to `id+s`, receive
    /// from `id-s`, mod n) over routed messages — every round is a
    /// disjoint permutation, so no link sees two blocks at once.
    pub fn alltoall<T: Wire + Clone>(&mut self, tag: u64, mut parts: Vec<T>) -> Vec<T> {
        let span = self.span_begin();
        let n = self.nprocs();
        let id = self.id();
        assert_eq!(parts.len(), n, "alltoall needs one block per processor");
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for s in 1..n {
            let dst = (id + s) % n;
            let src = (id + n - s) % n;
            self.send(dst, tag, &parts[dst]);
            out[src] = Some(self.recv(src, tag));
        }
        out[id] = Some(parts.swap_remove(id));
        let out = out.into_iter().map(|v| v.expect("alltoall block")).collect();
        self.span_end("alltoall", span);
        out
    }

    /// Reduce-scatter over blocks: `parts[j]` is this processor's
    /// contribution to the value that ends up on processor `j`; the
    /// return value is block `id` combined across all processors. Ring
    /// pipeline over raw neighbour links — block `j` starts at `j+1`
    /// and accumulates forward until it lands on `j`.
    pub fn reduce_scatter<T, F>(
        &mut self,
        tag: u64,
        parts: Vec<T>,
        mut combine: F,
        op_cycles: u64,
    ) -> T
    where
        T: Wire,
        F: FnMut(T, T) -> T,
    {
        let span = self.span_begin();
        let n = self.nprocs();
        let id = self.id();
        assert_eq!(parts.len(), n, "reduce_scatter needs one block per processor");
        let mut parts: Vec<Option<T>> = parts.into_iter().map(Some).collect();
        if n == 1 {
            let out = parts[0].take().expect("single block");
            self.span_end("reduce_scatter", span);
            return out;
        }
        let next = (id + 1) % n;
        let prev = (id + n - 1) % n;
        let h_next = self.hops_to(next);
        let mut carry: Option<T> = None;
        for s in 0..n - 1 {
            let j = (id + 2 * n - s - 1) % n;
            let block = parts[j].take().expect("each block leaves once");
            let v = match carry.take() {
                Some(c) => {
                    self.charge(op_cycles);
                    combine(c, block)
                }
                None => block,
            };
            self.send_raw(next, h_next, tag, &v);
            carry = Some(self.recv_raw(prev, tag));
        }
        let mine = parts[id].take().expect("own block stays until the end");
        self.charge(op_cycles);
        let out = combine(carry.take().expect("accumulated block arrives"), mine);
        self.span_end("reduce_scatter", span);
        out
    }

    /// Exchange `mine` with every physical neighbour
    /// ([`Topology::neighbors`]): mesh N/E/S/W links, hypercube bit
    /// flips, fat-tree leaf-switch siblings. Returns `(neighbor, value)`
    /// pairs in ascending neighbor order. The halo pattern of stencil
    /// codes, priced by the physical links it actually crosses.
    pub fn neighbor_exchange<T: Wire + Clone>(&mut self, tag: u64, mine: T) -> Vec<(usize, T)> {
        let span = self.span_begin();
        let nbrs = self.topology().neighbors(self.id());
        for &nb in &nbrs {
            self.send(nb, tag, &mine);
        }
        let out = nbrs.into_iter().map(|nb| (nb, self.recv(nb, tag))).collect();
        self.span_end("neighbor_exchange", span);
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::cost::CostModel;
    use crate::machine::{Machine, MachineConfig};

    fn machine(n: usize) -> Machine {
        Machine::new(MachineConfig::procs(n).unwrap())
    }

    #[test]
    fn broadcast_reaches_everyone() {
        for n in [1, 2, 3, 4, 7, 8, 16] {
            let m = machine(n);
            let run = m.run(|p| {
                let v = if p.id() == 0 { Some(42u32) } else { None };
                p.broadcast(0, 5, v)
            });
            assert!(run.results.iter().all(|&v| v == 42), "n={n}");
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let m = machine(8);
        let run = m.run(|p| {
            let v = if p.id() == 5 { Some(99u32) } else { None };
            p.broadcast(5, 5, v)
        });
        assert!(run.results.iter().all(|&v| v == 99));
    }

    #[test]
    fn reduce_sums() {
        for n in [1, 2, 5, 8, 16, 64] {
            let m = machine(n);
            let run = m.run(|p| p.reduce(0, 7, p.id() as u64, |a, b| a + b, 10));
            let expect = (n as u64 * (n as u64 - 1)) / 2;
            assert_eq!(run.results[0], Some(expect), "n={n}");
            assert!(run.results[1..].iter().all(|r| r.is_none()));
        }
    }

    #[test]
    fn allreduce_agrees_everywhere() {
        for n in [2, 3, 8, 32] {
            let m = machine(n);
            let run = m.run(|p| p.allreduce(11, (p.id() + 1) as u64, |a, b| a.max(b), 5));
            assert!(run.results.iter().all(|&v| v == n as u64), "n={n}");
        }
    }

    #[test]
    fn gather_collects_in_id_order() {
        let m = machine(6);
        let run = m.run(|p| p.gather(0, 13, (p.id() as u32) * 10));
        assert_eq!(run.results[0].as_deref(), Some(&[0u32, 10, 20, 30, 40, 50][..]));
        assert!(run.results[1..].iter().all(|r| r.is_none()));
    }

    #[test]
    fn barrier_synchronizes_virtual_clocks() {
        let m = machine(4);
        let run = m.run(|p| {
            // Skewed compute before the barrier.
            p.charge(1_000_000 * (p.id() as u64));
            p.barrier(17);
            p.now()
        });
        // After the barrier nobody's clock may be before the slowest
        // processor's pre-barrier time.
        let slowest_compute = 3_000_000u64;
        for &t in &run.results {
            assert!(t >= slowest_compute, "clock {t} precedes barrier release");
        }
    }

    #[test]
    fn broadcast_latency_scales_with_tree_depth() {
        let cost = CostModel::t800();
        let time = |n: usize| {
            let m = Machine::new(MachineConfig::procs(n).unwrap());
            m.run(|p| {
                let v = if p.id() == 0 { Some(7u8) } else { None };
                p.broadcast(0, 1, v);
            })
            .report
            .sim_cycles
        };
        let t2 = time(2);
        let t16 = time(16);
        // 16 processors need 4 rounds; 2 need 1. The critical path grows
        // roughly linearly in rounds.
        assert!(t16 > 3 * t2 / 2, "t2={t2} t16={t16}");
        assert!(t16 >= 4 * cost.msg_setup, "tree depth sets a floor");
    }

    #[test]
    fn reduce_deterministic_order_for_noncommutative_op() {
        // The tree fixes the combine order, so even a non-commutative
        // operator yields a reproducible (if shape-dependent) result.
        let m = machine(8);
        let a = m.run(|p| {
            p.reduce(
                0,
                3,
                vec![p.id() as u32],
                |mut x, y| {
                    x.extend(y);
                    x
                },
                0,
            )
        });
        let b = m.run(|p| {
            p.reduce(
                0,
                3,
                vec![p.id() as u32],
                |mut x, y| {
                    x.extend(y);
                    x
                },
                0,
            )
        });
        assert_eq!(a.results[0], b.results[0]);
    }

    #[test]
    #[should_panic(expected = "broadcast root must supply a value")]
    fn broadcast_root_without_value_panics() {
        let m = machine(2);
        let _ = m.run(|p| p.broadcast::<u8>(0, 1, None));
    }

    #[test]
    fn collectives_survive_a_lossy_fault_plan() {
        // Every binomial-tree edge goes through the reliable-delivery
        // layer, so a recoverable plan must not change any collective's
        // value on any processor.
        use crate::fault::FaultPlan;
        let program = |p: &mut crate::proc::Proc<'_>| {
            let b = p.broadcast(0, 1, (p.id() == 0).then_some(7u64));
            let r = p.reduce(0, 2, p.id() as u64, |a, b| a + b, 4);
            let ar = p.allreduce(3, p.id() as u64 + b, |a, b| a.max(b), 4);
            p.barrier(4);
            let g = p.gather(0, 5, (p.id() as u64) << 8);
            (b, r, ar, g)
        };
        for n in [2, 3, 8, 16] {
            let clean = machine(n).run(program);
            let plan =
                FaultPlan::seeded(21).with_drop(0.25).with_dup(0.25).with_delay(0.25, 30_000);
            let faulty =
                Machine::new(MachineConfig::procs(n).unwrap().with_faults(plan)).run(program);
            assert_eq!(faulty.results, clean.results, "n={n}");
            let events: u64 = faulty.report.procs.iter().map(|p| p.stats.fault_events()).sum();
            assert!(events > 0, "n={n}: plan injected nothing");
        }
    }

    use crate::topology::Topology;
    use crate::CollectiveAlgo;

    fn zoo(n: usize) -> Vec<Topology> {
        let mut v = vec![Topology::default_for(n).unwrap()];
        if n.is_power_of_two() {
            v.push(Topology::parse(&format!("hypercube:{n}")).unwrap());
        }
        if n == 16 {
            v.push(Topology::parse("fattree:2,4").unwrap());
            v.push(Topology::parse("hetero:mesh2d:4x4:slowlinks=col2*64").unwrap());
        }
        if n == 8 {
            v.push(Topology::parse("fattree:3,2").unwrap());
        }
        v
    }

    fn on(topo: Topology) -> Machine {
        Machine::new(MachineConfig::on_topology(topo).unwrap())
    }

    #[test]
    fn allreduce_variants_agree_on_every_topology() {
        for n in [1, 2, 3, 5, 8, 16] {
            for topo in zoo(n) {
                for algo in [
                    CollectiveAlgo::Tree,
                    CollectiveAlgo::Ring,
                    CollectiveAlgo::RecDouble,
                    CollectiveAlgo::Auto,
                ] {
                    let m = on(topo);
                    let run = m.run(move |p| {
                        p.allreduce_with(algo, 11, p.id() as u64 + 1, |a, b| a + b, 5)
                    });
                    let expect = (n as u64 * (n as u64 + 1)) / 2;
                    assert!(
                        run.results.iter().all(|&v| v == expect),
                        "n={n} topo={topo} algo={algo:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn allreduce_ring_preserves_id_order_for_noncommutative_op() {
        // The ring left-fold combines strictly in processor-id order, so
        // even a non-commutative operator gives every processor 0..n.
        for n in [2, 3, 7, 8] {
            let m = machine(n);
            let run = m.run(|p| {
                p.allreduce_with(
                    CollectiveAlgo::Ring,
                    9,
                    vec![p.id() as u32],
                    |mut x, y| {
                        x.extend(y);
                        x
                    },
                    0,
                )
            });
            let expect: Vec<u32> = (0..n as u32).collect();
            assert!(run.results.iter().all(|v| *v == expect), "n={n}");
        }
    }

    #[test]
    fn allgather_variants_agree_on_every_topology() {
        for n in [1, 2, 3, 6, 8, 16] {
            for topo in zoo(n) {
                for algo in [
                    CollectiveAlgo::Tree,
                    CollectiveAlgo::Ring,
                    CollectiveAlgo::RecDouble,
                    CollectiveAlgo::Auto,
                ] {
                    let m = on(topo);
                    let run = m.run(move |p| p.allgather_with(algo, 21, (p.id() as u32) * 10));
                    let expect: Vec<u32> = (0..n as u32).map(|i| i * 10).collect();
                    assert!(
                        run.results.iter().all(|v| *v == expect),
                        "n={n} topo={topo} algo={algo:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn alltoall_transposes_on_every_topology() {
        for n in [1, 2, 4, 8, 16] {
            for topo in zoo(n) {
                let m = on(topo);
                let run = m.run(|p| {
                    let n = p.nprocs();
                    // parts[d] = value "id -> d"
                    let parts: Vec<u64> =
                        (0..n).map(|d| ((p.id() as u64) << 16) | d as u64).collect();
                    p.alltoall(31, parts)
                });
                for (id, got) in run.results.iter().enumerate() {
                    let expect: Vec<u64> =
                        (0..n).map(|src| ((src as u64) << 16) | id as u64).collect();
                    assert_eq!(*got, expect, "n={n} topo={topo} id={id}");
                }
            }
        }
    }

    #[test]
    fn reduce_scatter_sums_own_block_on_every_topology() {
        for n in [1, 2, 3, 5, 8, 16] {
            for topo in zoo(n) {
                let m = on(topo);
                let run = m.run(|p| {
                    let n = p.nprocs();
                    // parts[j] = id + j; block j's reduction = sum_id(id) + n*j.
                    let parts: Vec<u64> = (0..n).map(|j| (p.id() + j) as u64).collect();
                    p.reduce_scatter(41, parts, |a, b| a + b, 3)
                });
                let base = (n as u64 * (n as u64 - 1)) / 2;
                for (id, &got) in run.results.iter().enumerate() {
                    assert_eq!(got, base + (n * id) as u64, "n={n} topo={topo} id={id}");
                }
            }
        }
    }

    #[test]
    fn neighbor_exchange_matches_topology_neighbors() {
        for spec in
            ["mesh2d:4x4", "hypercube:16", "fattree:2,4", "hetero:mesh2d:4x4:slowlinks=col2*64"]
        {
            let topo = Topology::parse(spec).unwrap();
            let m = on(topo);
            let run = m.run(|p| p.neighbor_exchange(51, p.id() as u64 * 7));
            for (id, got) in run.results.iter().enumerate() {
                let expect: Vec<(usize, u64)> =
                    topo.neighbors(id).into_iter().map(|nb| (nb, nb as u64 * 7)).collect();
                assert_eq!(*got, expect, "topo={spec} id={id}");
            }
        }
    }

    #[test]
    fn selection_tracks_hop_metric() {
        let cost = CostModel::t800();
        for spec in ["mesh2d:4x4", "hypercube:16", "fattree:2,4"] {
            let topo = Topology::parse(spec).unwrap();
            assert_eq!(crate::select_allreduce(&topo, &cost), CollectiveAlgo::Ring, "{spec}");
            assert_eq!(crate::select_allgather(&topo, &cost), CollectiveAlgo::Ring, "{spec}");
        }
        let hetero = Topology::parse("hetero:mesh2d:4x4:slowlinks=col2*64").unwrap();
        assert_eq!(crate::select_allreduce(&hetero, &cost), CollectiveAlgo::RecDouble);
        // The allgather ring pipelines its blocks, so it pays the slow
        // cut's latency once per circuit, not once per round — it stays
        // the winner even on the heterogeneous machine.
        assert_eq!(crate::select_allgather(&hetero, &cost), CollectiveAlgo::Ring);
    }

    #[test]
    fn estimates_are_positive_and_auto_is_min() {
        let cost = CostModel::t800();
        for spec in
            ["mesh2d:4x4", "hypercube:8", "fattree:3,2", "hetero:mesh2d:2x4:slowlinks=col1*16"]
        {
            let topo = Topology::parse(spec).unwrap();
            let ring = crate::estimate_allreduce(CollectiveAlgo::Ring, &topo, &cost);
            let rd = crate::estimate_allreduce(CollectiveAlgo::RecDouble, &topo, &cost);
            let auto = crate::estimate_allreduce(CollectiveAlgo::Auto, &topo, &cost);
            assert!(ring > 0 && rd > 0, "{spec}");
            assert_eq!(auto, ring.min(rd), "{spec}");
        }
    }

    #[test]
    fn the_configured_algorithm_beats_each_collectives_default() {
        // `MachineConfig::collective_algo` is the one machine-wide
        // choice: set, every plain `allreduce` runs it; unset, the
        // collective keeps its own default, the paper's binomial tree.
        fn sum(p: &mut crate::Proc<'_>, algo: Option<CollectiveAlgo>) -> u64 {
            let mine = p.id() as u64;
            match algo {
                Some(algo) => p.allreduce_with(algo, 61, mine, |a, b| a + b, 2),
                None => p.allreduce(61, mine, |a, b| a + b, 2),
            }
        }
        let shape = |run: &crate::Run<u64>| (run.report.sim_cycles, run.report.total_msgs());
        let plain = machine(8);
        let default = plain.run(|p| sum(p, None));
        assert!(default.results.iter().all(|&v| v == 28));
        assert_eq!(shape(&default), shape(&plain.run(|p| sum(p, Some(CollectiveAlgo::Tree)))));
        for algo in [CollectiveAlgo::Ring, CollectiveAlgo::RecDouble] {
            let forced = Machine::new(MachineConfig::procs(8).unwrap().with_collective_algo(algo));
            let run = forced.run(|p| {
                assert_eq!(p.collective_algo(), Some(algo));
                sum(p, None)
            });
            assert_eq!(run.results, default.results, "{algo:?}");
            assert_eq!(shape(&run), shape(&plain.run(|p| sum(p, Some(algo)))), "{algo:?}");
            assert_ne!(shape(&run), shape(&default), "{algo:?} is not the tree");
        }
    }

    #[test]
    fn ring_and_rd_have_stable_logical_message_counts() {
        // Per-proc sends/recvs are a pure function of (algo, n), never of
        // payload or host scheduling: pin them for n=8.
        let n = 8;
        let count = |algo: CollectiveAlgo| {
            let m = machine(n);
            let run = m.run(move |p| p.allreduce_with(algo, 71, p.id() as u64, |a, b| a + b, 1));
            run.report.procs.iter().map(|p| (p.stats.sends, p.stats.recvs)).collect::<Vec<_>>()
        };
        let ring = count(CollectiveAlgo::Ring);
        // Ring: phase 1 sends on every proc but the last, phase 2 on all
        // but id n-2 — every proc sends exactly twice except ids n-2, n-1.
        let ring_sends: u64 = ring.iter().map(|&(s, _)| s).sum();
        assert_eq!(ring_sends, 2 * (n as u64) - 2);
        let rd = count(CollectiveAlgo::RecDouble);
        // Recursive doubling at a power of two: log2(n) sends per proc.
        assert!(rd.iter().all(|&(s, r)| s == 3 && r == 3), "{rd:?}");
    }
}
