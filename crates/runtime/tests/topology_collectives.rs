//! Cross-topology collective tests: the four new collectives
//! (allgather, alltoall, reduce_scatter, neighbor exchange) and both
//! allreduce/allgather algorithm variants, run on every topology in the
//! zoo under both schedulers — outputs and per-processor logical
//! traffic must be bit-identical across schedulers, and the algorithm
//! variants must agree on results everywhere.

use proptest::prelude::*;
use skil_runtime::{
    select_allgather, select_allreduce, CollectiveAlgo, CostModel, Machine, MachineConfig,
    ProcStats, Run, SchedulerKind, Topology,
};

/// Every topology in the zoo that can host `n` processors.
fn zoo(n: usize) -> Vec<Topology> {
    let mut v = vec![Topology::default_for(n).unwrap()];
    if n.is_power_of_two() && n > 1 {
        v.push(Topology::parse(&format!("hypercube:{n}")).unwrap());
    }
    match n {
        16 => {
            v.push(Topology::parse("fattree:2,4").unwrap());
            v.push(Topology::parse("hetero:mesh2d:4x4:slowlinks=col2*64").unwrap());
        }
        8 => {
            v.push(Topology::parse("fattree:3,2").unwrap());
            v.push(Topology::parse("hetero:mesh2d:2x4:slowlinks=col1*16").unwrap());
        }
        4 => v.push(Topology::parse("fattree:1,4").unwrap()),
        _ => {}
    }
    v
}

fn machine(topo: Topology, sched: SchedulerKind) -> Machine {
    Machine::new(MachineConfig::on_topology(topo).unwrap().with_scheduler(sched))
}

/// Run `program` on `topo` under both schedulers; assert the outputs,
/// the virtual run time, and every processor's logical traffic counters
/// are identical, then hand back the event-scheduler run.
fn differential<T, F>(topo: Topology, program: F) -> Run<T>
where
    T: std::fmt::Debug + PartialEq + Send,
    F: Fn(&mut skil_runtime::Proc<'_>) -> T + Sync,
{
    let event = machine(topo, SchedulerKind::Event).run(&program);
    let threads = machine(topo, SchedulerKind::Threads).run(&program);
    assert_eq!(event.results, threads.results, "outputs diverge on {topo}");
    assert_eq!(event.report.sim_cycles, threads.report.sim_cycles, "sim_cycles diverge on {topo}");
    let logical =
        |r: &Run<T>| -> Vec<ProcStats> { r.report.procs.iter().map(|p| p.stats).collect() };
    assert_eq!(logical(&event), logical(&threads), "per-proc stats diverge on {topo}");
    event
}

#[test]
fn allgather_is_scheduler_identical_on_every_topology() {
    for n in [4, 8, 16] {
        for topo in zoo(n) {
            for algo in [CollectiveAlgo::Ring, CollectiveAlgo::RecDouble, CollectiveAlgo::Auto] {
                let run =
                    differential(topo, move |p| p.allgather_with(algo, 7, (p.id() as u64) * 3 + 1));
                let expect: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
                assert!(run.results.iter().all(|v| *v == expect), "{topo} {algo:?}");
            }
        }
    }
}

#[test]
fn alltoall_is_scheduler_identical_on_every_topology() {
    for n in [4, 8, 16] {
        for topo in zoo(n) {
            let run = differential(topo, |p| {
                let n = p.nprocs();
                let parts: Vec<u64> = (0..n).map(|d| ((p.id() as u64) << 32) | d as u64).collect();
                p.alltoall(9, parts)
            });
            for (id, got) in run.results.iter().enumerate() {
                let expect: Vec<u64> = (0..n).map(|src| ((src as u64) << 32) | id as u64).collect();
                assert_eq!(*got, expect, "{topo} id={id}");
            }
        }
    }
}

#[test]
fn reduce_scatter_is_scheduler_identical_on_every_topology() {
    for n in [4, 8, 16] {
        for topo in zoo(n) {
            let run = differential(topo, |p| {
                let n = p.nprocs();
                let parts: Vec<u64> = (0..n).map(|j| (p.id() * n + j) as u64).collect();
                p.reduce_scatter(11, parts, |a, b| a + b, 2)
            });
            // Block j reduces sum_id(id*n + j) = n*sum(id) + n*j.
            let base = (n * (n - 1) / 2) as u64 * n as u64;
            for (id, &got) in run.results.iter().enumerate() {
                assert_eq!(got, base + (n * id) as u64, "{topo} id={id}");
            }
        }
    }
}

#[test]
fn neighbor_exchange_is_scheduler_identical_on_every_topology() {
    for n in [4, 8, 16] {
        for topo in zoo(n) {
            let run = differential(topo, |p| p.neighbor_exchange(13, p.id() as u64 + 100));
            for (id, got) in run.results.iter().enumerate() {
                let expect: Vec<(usize, u64)> =
                    topo.neighbors(id).into_iter().map(|nb| (nb, nb as u64 + 100)).collect();
                assert_eq!(*got, expect, "{topo} id={id}");
            }
        }
    }
}

#[test]
fn allreduce_variants_are_scheduler_identical_on_every_topology() {
    for n in [4, 8, 16] {
        for topo in zoo(n) {
            for algo in [CollectiveAlgo::Tree, CollectiveAlgo::Ring, CollectiveAlgo::RecDouble] {
                let run = differential(topo, move |p| {
                    p.allreduce_with(algo, 15, p.id() as u64 + 1, |a, b| a + b, 3)
                });
                let expect = (n as u64 * (n as u64 + 1)) / 2;
                assert!(run.results.iter().all(|&v| v == expect), "{topo} {algo:?}");
            }
        }
    }
}

/// Hop-metric pins for the corner routes of the non-mesh topologies.
#[test]
fn hop_metric_corner_routes() {
    let cube = Topology::parse("hypercube:32").unwrap();
    assert_eq!(cube.hops(0, 31), 5, "antipodal corners of a 5-cube");
    assert_eq!(cube.hops(0, 1), 1);
    assert_eq!(cube.hops(10, 21), 5, "01010 vs 10101 differ everywhere");

    let ft = Topology::parse("fattree:2,4").unwrap();
    assert_eq!(ft.hops(0, 3), 2, "same leaf switch");
    assert_eq!(ft.hops(0, 15), 4, "opposite pods climb to the root");
    assert_eq!(ft.hops(12, 15), 2);

    let deep = Topology::parse("fattree:3,2").unwrap();
    assert_eq!(deep.hops(0, 1), 2);
    assert_eq!(deep.hops(0, 7), 6, "full climb in a 3-level tree");
    assert_eq!(deep.hops(2, 3), 2);
    assert_eq!(deep.hops(1, 2), 4, "one level up");

    let het = Topology::parse("hetero:mesh2d:4x4:slowlinks=col2*64").unwrap();
    assert_eq!(het.hops(0, 1), 1, "fast side untouched");
    assert_eq!(het.hops(1, 2), 1 + 63, "crossing the cut pays the factor");
    assert_eq!(het.hops(0, 15), 6 + 63, "Manhattan plus one crossing surcharge");
}

/// The hop-metric selection picks the cheaper algorithm on every zoo
/// topology at 16 processors. One single-shot collective of a 16-byte
/// payload — the nominal size `select_allreduce`/`select_allgather`
/// price — so `sim_cycles` is the latency the closed forms model. Each
/// row pins (selected, its cycles, rejected, its cycles); the selected
/// variant must be strictly cheaper.
#[test]
fn selected_collective_is_strictly_cheaper_than_the_rejected_one() {
    use CollectiveAlgo::{RecDouble as Rd, Ring};
    #[rustfmt::skip]
    let pins: [(&str, &str, CollectiveAlgo, u64, CollectiveAlgo, u64); 8] = [
        ("mesh2d:4x4", "allreduce", Ring, 31_958, Rd, 212_712),
        ("mesh2d:4x4", "allgather", Ring, 16_904, Rd, 217_632),
        ("hypercube:16", "allreduce", Ring, 32_710, Rd, 208_712),
        ("hypercube:16", "allgather", Ring, 16_904, Rd, 213_632),
        ("fattree:2,4", "allreduce", Ring, 39_854, Rd, 224_712),
        ("fattree:2,4", "allgather", Ring, 20_288, Rd, 229_632),
        ("hetero:mesh2d:4x4:slowlinks=col2*64", "allreduce", Rd, 338_712, Ring, 387_278),
        ("hetero:mesh2d:4x4:slowlinks=col2*64", "allgather", Ring, 206_408, Rd, 343_632),
    ];
    let cost = CostModel::t800();
    for (spec, collective, selected, selected_cycles, rejected, rejected_cycles) in pins {
        let topo = Topology::parse(spec).unwrap();
        let m = machine(topo, SchedulerKind::Event);
        let cycles = |algo: CollectiveAlgo| match collective {
            "allreduce" => {
                m.run(move |p| {
                    let mine = [p.id() as u64 + 1, p.id() as u64 * 3];
                    let add = |a: [u64; 2], b: [u64; 2]| [a[0] + b[0], a[1] + b[1]];
                    p.allreduce_with(algo, 20, mine, add, 2)
                })
                .report
                .sim_cycles
            }
            _ => {
                m.run(move |p| p.allgather_with(algo, 21, [p.id() as u64 + 1, p.id() as u64 * 3]))
                    .report
                    .sim_cycles
            }
        };
        let picked = match collective {
            "allreduce" => select_allreduce(&topo, &cost),
            _ => select_allgather(&topo, &cost),
        };
        assert_eq!(picked, selected, "{collective} on {spec}: selection changed");
        let got = (cycles(selected), cycles(rejected));
        assert_eq!(got, (selected_cycles, rejected_cycles), "{collective} on {spec}");
        assert!(got.0 < got.1, "{collective} on {spec}: selected {selected:?} is not cheaper");
    }
}

/// The total logical message count of each allreduce algorithm is a
/// pure function of the processor count — never of the topology, the
/// payload, or host scheduling — and ring and recursive doubling agree
/// with the tree on the reduced value everywhere.
fn check_ring_vs_rd(n: usize, payloads: Vec<u64>) {
    let expect = pay_sum(&payloads);
    let mut totals_per_topo: Vec<(CollectiveAlgo, Vec<(u64, u64)>)> = Vec::new();
    for topo in zoo(n) {
        for algo in [CollectiveAlgo::Ring, CollectiveAlgo::RecDouble] {
            let pay = payloads.clone();
            let run = machine(topo, SchedulerKind::Event)
                .run(move |p| p.allreduce_with(algo, 5, pay[p.id()], |a, b| a.wrapping_add(b), 1));
            assert!(
                run.results.iter().all(|&v| v == expect),
                "n={n} {topo} {algo:?}: wrong reduction"
            );
            let totals = run.report.procs.iter().map(|p| (p.stats.sends, p.stats.recvs)).collect();
            totals_per_topo.push((algo, totals));
        }
    }
    // Group by algorithm: every topology must report the same per-proc
    // logical sends/recvs for a given (algo, n).
    for algo in [CollectiveAlgo::Ring, CollectiveAlgo::RecDouble] {
        let all: Vec<&Vec<(u64, u64)>> =
            totals_per_topo.iter().filter(|(a, _)| *a == algo).map(|(_, t)| t).collect();
        for w in all.windows(2) {
            assert_eq!(w[0], w[1], "n={n} {algo:?}: logical traffic depends on topology");
        }
    }
}

fn pay_sum(pay: &[u64]) -> u64 {
    pay.iter().fold(0u64, |a, &b| a.wrapping_add(b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn allreduce_ring_vs_rd_identical_everywhere(
        n in 1usize..17,
        seed in any::<u64>(),
    ) {
        // Deterministic pseudo-random payloads from the seed (splitmix).
        let mut s = seed;
        let payloads: Vec<u64> = (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            })
            .collect();
        check_ring_vs_rd(n, payloads);
    }
}
