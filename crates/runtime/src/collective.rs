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

use crate::proc::Proc;
use crate::topology::BinomialTree;
use crate::wire::Wire;

/// Tag-space offset separating `allreduce`'s release phase from its
/// reduce phase.
const PHASE: u64 = 1 << 62;

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

    /// Reduce every processor's `mine` into one value known everywhere:
    /// reduce to root 0 along the binomial tree and broadcast the result
    /// back down, exactly the communication structure of `array_fold`.
    pub fn allreduce<T, F>(&mut self, tag: u64, mine: T, combine: F, op_cycles: u64) -> T
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
    fn allreduce_release_has_tags_of_its_own() {
        // A message already queued under the collective's tag is not
        // the allreduce's result: the broadcast back down is tagged apart.
        let m = machine(2);
        let run = m.run(|p| {
            if p.id() == 0 {
                p.send(1, 9, &100u64);
            }
            let sum = p.allreduce(9, p.id() as u64 + 1, |a, b| a + b, 0);
            let early = if p.id() == 1 { p.recv(0, 9) } else { 100u64 };
            (sum, early)
        });
        assert_eq!(run.results, [(3, 100), (3, 100)]);
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
}
