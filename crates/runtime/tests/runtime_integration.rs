//! Integration tests of the simulator: raw links, topologies in motion,
//! failure injection, and virtual-time invariants.

use skil_runtime::{CostModel, Machine, MachineConfig, Ring, Torus2d, Wire};

#[test]
fn raw_link_sends_are_cheaper_than_routed_sends() {
    let cfg = MachineConfig::mesh(1, 2).unwrap();
    let c = cfg.cost.clone();
    let m = Machine::new(cfg);
    let payload = vec![0u8; 1000];

    let routed = m.run(|p| {
        if p.id() == 0 {
            p.send(1, 1, &payload);
            0
        } else {
            let _: Vec<u8> = p.recv(0, 1);
            p.now()
        }
    });
    let raw = m.run(|p| {
        if p.id() == 0 {
            p.send_raw(1, 1, 1, &payload);
            0
        } else {
            let _: Vec<u8> = p.recv_raw(0, 1);
            p.now()
        }
    });
    assert!(
        raw.results[1] < routed.results[1],
        "raw {} vs routed {}",
        raw.results[1],
        routed.results[1]
    );
    // both still pay the per-byte link time
    assert!(raw.results[1] > 1000 * c.per_byte);
}

#[test]
fn ring_circulation_visits_everyone() {
    // circulate a token around the ring topology; it must return home
    // after nprocs hops with all ids accumulated
    let m = Machine::new(MachineConfig::mesh(2, 4).unwrap());
    let run = m.run(|p| {
        let ring = Ring::new(p.mesh(), true);
        let me = p.id();
        let (next, nh) = ring.next(me);
        let (prev, _) = ring.prev(me);
        let mut token: Vec<u64> = if me == 0 {
            vec![0]
        } else {
            let mut t: Vec<u64> = p.recv(prev, 7);
            t.push(me as u64);
            t
        };
        if me != 0 {
            p.send_hops(next, nh, 7, &token);
            token
        } else {
            p.send_hops(next, nh, 7, &token);
            token = p.recv(prev, 7);
            token
        }
    });
    let full = &run.results[0];
    assert_eq!(full.len(), 8);
    let mut sorted = full.clone();
    sorted.sort();
    assert_eq!(sorted, (0..8).collect::<Vec<u64>>());
}

#[test]
fn torus_rotation_round_trip() {
    // rotating a block p times around a torus row returns it unchanged
    let m = Machine::new(MachineConfig::square(3).unwrap());
    let run = m.run(|p| {
        let t = Torus2d::new(p.mesh(), true);
        let me = p.id();
        let mut block = vec![me as u32; 4];
        for step in 0..3 {
            let (west, wh) = t.west(me);
            let (east, _) = t.east(me);
            p.send_hops(west, wh, 50 + step, &block);
            block = p.recv(east, 50 + step);
        }
        block[0]
    });
    for (id, &v) in run.results.iter().enumerate() {
        assert_eq!(v, id as u32, "block came home after a full rotation");
    }
}

#[test]
#[should_panic(expected = "decode")]
fn type_mismatch_between_procs_fails_loudly() {
    // failure injection: sender and receiver disagree on the type
    let m = Machine::new(MachineConfig::mesh(1, 2).unwrap());
    let _ = m.run(|p| {
        if p.id() == 0 {
            p.send(1, 1, &3u8); // one byte
        } else {
            let _: u64 = p.recv(0, 1); // needs eight
        }
    });
}

#[test]
#[should_panic(expected = "peer processor panicked")]
fn collective_participant_crash_poisons_peers() {
    // failure injection: one participant dies inside a collective; the
    // others must abort promptly rather than hang
    let m = Machine::new(MachineConfig::procs(8).unwrap());
    let _ = m.run(|p| {
        if p.id() == 3 {
            panic!("injected fault");
        }
        let _: u64 = p.allreduce(9, p.id() as u64, |a, b| a + b, 0);
    });
}

#[test]
fn zero_sized_payloads_work() {
    let m = Machine::new(MachineConfig::mesh(1, 2).unwrap());
    let run = m.run(|p| {
        if p.id() == 0 {
            p.send(1, 1, &());
            p.send(1, 2, &Vec::<u64>::new());
            true
        } else {
            let () = p.recv(0, 1);
            let v: Vec<u64> = p.recv(0, 2);
            v.is_empty()
        }
    });
    assert!(run.results[1]);
}

#[test]
fn messages_between_same_pair_keep_order_across_tags() {
    let m = Machine::new(MachineConfig::mesh(1, 2).unwrap());
    let run = m.run(|p| {
        if p.id() == 0 {
            for i in 0..10u64 {
                p.send(1, 100 + (i % 2), &i);
            }
            vec![]
        } else {
            // interleave receives across the two tags; FIFO per tag
            let mut even = Vec::new();
            let mut odd = Vec::new();
            for _ in 0..5 {
                even.push(p.recv::<u64>(0, 100));
                odd.push(p.recv::<u64>(0, 101));
            }
            assert_eq!(even, vec![0, 2, 4, 6, 8]);
            assert_eq!(odd, vec![1, 3, 5, 7, 9]);
            even
        }
    });
    assert_eq!(run.results[1], vec![0, 2, 4, 6, 8]);
}

#[test]
fn sim_time_scales_with_work_not_threads() {
    // the same total work on more simulated processors takes less
    // simulated time, regardless of the single host core
    let work_per_proc = |procs: usize| {
        let m =
            Machine::new(MachineConfig::procs(procs).unwrap().with_cost(CostModel::free_comm()));
        m.run(|p| {
            let total = 1_000_000u64;
            p.charge(total / p.nprocs() as u64);
        })
        .report
        .sim_cycles
    };
    let t1 = work_per_proc(1);
    let t4 = work_per_proc(4);
    let t16 = work_per_proc(16);
    assert_eq!(t1, 1_000_000);
    assert_eq!(t4, 250_000);
    assert_eq!(t16, 62_500);
}

#[test]
fn wire_trait_is_usable_downstream() {
    // custom struct flattening (the paper's [2]: move the data, not the
    // pointer)
    #[derive(Debug, Clone, PartialEq)]
    struct Node {
        key: u64,
        tags: Vec<u32>,
    }
    impl Wire for Node {
        fn flatten(&self, out: &mut Vec<u8>) {
            self.key.flatten(out);
            self.tags.flatten(out);
        }
        fn unflatten(
            r: &mut skil_runtime::WireReader<'_>,
        ) -> Result<Self, skil_runtime::WireError> {
            Ok(Node { key: u64::unflatten(r)?, tags: Vec::<u32>::unflatten(r)? })
        }
    }
    let m = Machine::new(MachineConfig::mesh(1, 2).unwrap());
    let run = m.run(|p| {
        let node = Node { key: 7, tags: vec![1, 2, 3] };
        if p.id() == 0 {
            p.send(1, 1, &node);
            node
        } else {
            p.recv(0, 1)
        }
    });
    assert_eq!(run.results[0], run.results[1]);
}
