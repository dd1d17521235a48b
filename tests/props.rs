//! Property-based tests over the core data structures and skeletons.

use proptest::prelude::*;
use skil::prelude::*;
use skil::runtime::{Proc, Wire};

#[path = "support/invariant.rs"]
mod invariant;

use invariant::{assert_same, configs, Row};

fn small_machine() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(3), Just(4), Just(6), Just(8)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Wire roundtrip for nested containers.
    #[test]
    fn wire_roundtrip_vecs(v in proptest::collection::vec(any::<i64>(), 0..50)) {
        let bytes = v.to_bytes();
        prop_assert_eq!(Vec::<i64>::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn wire_roundtrip_tuples(a in any::<u32>(), b in any::<f64>(), s in ".{0,24}") {
        let v = (a, b, s.to_string());
        let bytes = v.to_bytes();
        let back: (u32, f64, String) = Wire::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.0, a);
        prop_assert!(back.1 == b || (back.1.is_nan() && b.is_nan()));
        prop_assert_eq!(back.2, s);
    }

    /// The bulk POD fast path must emit encodings byte-identical to the
    /// generic per-element path, and decode back to the same values.
    #[test]
    fn pod_fast_path_matches_generic_encoding(
        f64s in proptest::collection::vec(any::<f64>(), 0..80),
        u32s in proptest::collection::vec(any::<u32>(), 0..80),
        i16s in proptest::collection::vec(any::<i16>(), 0..80),
        u8s in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        fn generic_encode<T: Wire>(v: &[T]) -> Vec<u8> {
            // The per-element reference path the bulk override replaces.
            let mut out = Vec::new();
            (v.len() as u64).flatten(&mut out);
            for x in v {
                x.flatten(&mut out);
            }
            out
        }
        fn check<T: Wire + Clone + PartialEq + std::fmt::Debug>(
            v: &[T],
        ) -> Result<(), TestCaseError> {
            let reference = generic_encode(v);
            let fast = v.to_vec().to_bytes();
            prop_assert_eq!(&fast, &reference);
            let back = Vec::<T>::from_bytes(&fast).unwrap();
            prop_assert_eq!(&back[..], v);
            Ok(())
        }
        check(&f64s).or_else(|e| {
            // NaN payload bits must still roundtrip exactly; compare raw.
            let bits: Vec<u64> = f64s.iter().map(|f| f.to_bits()).collect();
            let back = Vec::<f64>::from_bytes(&f64s.to_bytes()).unwrap();
            let back_bits: Vec<u64> = back.iter().map(|f| f.to_bits()).collect();
            if back_bits == bits { Ok(()) } else { Err(e) }
        })?;
        check(&u32s)?;
        check(&i16s)?;
        check(&u8s)?;
    }

    /// Wire decode never panics on arbitrary bytes (errors are fine).
    #[test]
    fn wire_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Vec::<u64>::from_bytes(&bytes);
        let _ = String::from_bytes(&bytes);
        let _ = <(u32, bool, f64)>::from_bytes(&bytes);
        let _ = Option::<Vec<i32>>::from_bytes(&bytes);
    }

    /// Every element of a distributed array is owned by exactly one
    /// processor, and the partitions tile the array.
    #[test]
    fn layout_partitions_tile(
        rows in 1usize..20,
        cols in 1usize..20,
        procs in small_machine(),
        dist_kind in 0u8..3,
    ) {
        use skil::array::{Distribution, Layout, Shape};
        use skil::runtime::Mesh;
        let mesh = Mesh::near_square(procs).unwrap();
        let shape = Shape::d2(rows, cols);
        let grid = [mesh.procs(), 1];
        let dist = match dist_kind {
            0 => Distribution::Block,
            1 => Distribution::Cyclic,
            _ => Distribution::BlockCyclic { block: [2, 2] },
        };
        let layout = Layout::new(shape, grid, Distr::Default, dist, [0, 0]).unwrap();
        let mut counts = vec![0usize; layout.nprocs()];
        for r in 0..rows {
            for c in 0..cols {
                counts[layout.owner([r, c]).unwrap()] += 1;
            }
        }
        for (id, &count) in counts.iter().enumerate() {
            prop_assert_eq!(count, layout.local_count(id));
        }
        prop_assert_eq!(counts.iter().sum::<usize>(), rows * cols);
    }

    /// array_fold with (+) equals the sequential sum, on any machine.
    #[test]
    fn fold_matches_sequential_sum(
        len in 1usize..64,
        procs in small_machine(),
        seed in any::<u32>(),
    ) {
        let m = Machine::new(MachineConfig::procs(procs).unwrap());
        let run = m.run(|p| {
            let a = array_create(
                p,
                ArraySpec::d1(len, Distr::Default),
                Kernel::free(move |ix: Index| {
                    (seed as u64).wrapping_mul(ix[0] as u64 + 1) % 1000
                }),
            )
            .unwrap();
            array_fold(
                p,
                Kernel::free(|&v: &u64, _| v),
                Kernel::free(|x: u64, y: u64| x + y),
                &a,
            )
            .unwrap()
        });
        let expect: u64 =
            (0..len).map(|i| (seed as u64).wrapping_mul(i as u64 + 1) % 1000).sum();
        for v in run.results {
            prop_assert_eq!(v, expect);
        }
    }

    /// array_permute_rows with a random permutation equals the
    /// sequential row permutation.
    #[test]
    fn permute_rows_matches_sequential(
        rows_per in 1usize..4,
        procs in prop_oneof![Just(1usize), Just(2), Just(4)],
        perm_seed in any::<u64>(),
    ) {
        let rows = rows_per * procs * 2;
        let cols = 3usize;
        // deterministic pseudo-random permutation via sorting hashes
        let mut order: Vec<usize> = (0..rows).collect();
        order.sort_by_key(|&r| (perm_seed ^ (r as u64).wrapping_mul(0x9E3779B97F4A7C15)).wrapping_mul(0xBF58476D1CE4E5B9));
        let perm = order.clone();
        let m = Machine::new(MachineConfig::procs(procs).unwrap());
        let run = m.run(|p| {
            let a = array_create(
                p,
                ArraySpec::d2(rows, cols, Distr::Default),
                Kernel::free(|ix: Index| (ix[0] * 100 + ix[1]) as u64),
            )
            .unwrap();
            let mut b = array_create(
                p,
                ArraySpec::d2(rows, cols, Distr::Default),
                Kernel::free(|_| 0u64),
            )
            .unwrap();
            let perm = perm.clone();
            array_permute_rows(p, &a, move |r| perm[r], &mut b).unwrap();
            b.iter_local().map(|(ix, &v)| (ix[0], ix[1], v)).collect::<Vec<_>>()
        });
        for part in run.results {
            for (r, c, v) in part {
                // b[perm[src]] = a[src]  =>  b[r] = a[inv(r)]
                let src = perm.iter().position(|&d| d == r).unwrap();
                prop_assert_eq!(v, (src * 100 + c) as u64);
            }
        }
    }

    /// Parallel d&c quicksort equals std sort.
    #[test]
    fn dc_quicksort_sorts(
        len in 0usize..200,
        procs in prop_oneof![Just(1usize), Just(2), Just(5)],
        seed in any::<u64>(),
    ) {
        let m = Machine::new(MachineConfig::procs(procs).unwrap());
        let out = skil::apps::quicksort_skil(&m, len, seed);
        let mut expect = skil::apps::workload::int_list(seed, len);
        expect.sort_unstable();
        prop_assert_eq!(out.value, expect);
    }

    /// gen_mult over (+, *) equals sequential matmul for any valid
    /// (side, n) combination.
    #[test]
    fn gen_mult_matches_matmul(
        side in prop_oneof![Just(1usize), Just(2)],
        blocks in 1usize..4,
        seed in any::<u32>(),
    ) {
        let n = side * blocks;
        let m = Machine::new(MachineConfig::square(side).unwrap());
        let run = m.run(|p| {
            let f = move |ix: Index| ((seed as i64) % 7 + ix[0] as i64 * 3 - ix[1] as i64) % 10;
            let g = move |ix: Index| ((seed as i64) % 5 - ix[0] as i64 + ix[1] as i64 * 2) % 10;
            let a = array_create(p, ArraySpec::d2(n, n, Distr::Torus2d), Kernel::free(f))
                .unwrap();
            let b = array_create(p, ArraySpec::d2(n, n, Distr::Torus2d), Kernel::free(g))
                .unwrap();
            let mut c =
                array_create(p, ArraySpec::d2(n, n, Distr::Torus2d), Kernel::free(|_| 0i64))
                    .unwrap();
            array_gen_mult(
                p,
                &a,
                &b,
                Kernel::free(|x: i64, y: i64| x + y),
                Kernel::free(|x: &i64, y: &i64| x * y),
                &mut c,
            )
            .unwrap();
            c.iter_local().map(|(ix, &v)| (ix[0], ix[1], v)).collect::<Vec<_>>()
        });
        let f = |i: usize, j: usize| ((seed as i64) % 7 + i as i64 * 3 - j as i64) % 10;
        let g = |i: usize, j: usize| ((seed as i64) % 5 - i as i64 + j as i64 * 2) % 10;
        for part in run.results {
            for (i, j, v) in part {
                let want: i64 = (0..n).map(|k| f(i, k) * g(k, j)).sum();
                prop_assert_eq!(v, want, "({}, {})", i, j);
            }
        }
    }

    /// A repeated run observes the same (determinism), for arbitrary
    /// machine shapes and problem sizes.
    #[test]
    fn virtual_time_deterministic(
        procs in small_machine(),
        len in 1usize..40,
    ) {
        let m = [("event", Machine::new(MachineConfig::procs(procs).unwrap()))];
        let fold = move |p: &mut Proc<'_>| {
            let a = array_create(
                p,
                ArraySpec::d1(len, Distr::Default),
                Kernel::new(|ix: Index| ix[0] as u64, 70),
            )
            .unwrap();
            let s = array_fold(
                p,
                Kernel::free(|&v: &u64, _| v),
                Kernel::new(|x: u64, y: u64| x + y, 70),
                &a,
            )
            .unwrap();
            p.barrier(0x9999);
            s
        };
        let row = [Row::new(format!("fold of {len} on {procs}"), fold)];
        assert_same(&row, &configs(&["run", "rerun"], &m), |f, _, m| m.try_run(f));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// array_scan equals the sequential prefix combination.
    #[test]
    fn scan_matches_sequential(
        len in 1usize..48,
        procs in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        seed in any::<u32>(),
    ) {
        let m = Machine::new(MachineConfig::procs(procs).unwrap());
        let vals: Vec<u64> = (0..len).map(|i| (seed as u64).wrapping_mul(i as u64 + 1) % 97).collect();
        let run = m.run(|p| {
            let vs = vals.clone();
            let a = array_create(
                p,
                ArraySpec::d1(len, Distr::Default),
                Kernel::free(move |ix: Index| vs[ix[0]]),
            )
            .unwrap();
            let mut b =
                array_create(p, ArraySpec::d1(len, Distr::Default), Kernel::free(|_| 0u64))
                    .unwrap();
            array_scan(p, Kernel::free(|x: u64, y: u64| x + y), &a, &mut b).unwrap();
            b.iter_local().map(|(ix, &v)| (ix[0], v)).collect::<Vec<_>>()
        });
        let mut prefix = 0u64;
        let expected: Vec<u64> = vals
            .iter()
            .map(|v| {
                prefix += v;
                prefix
            })
            .collect();
        for part in run.results {
            for (i, v) in part {
                prop_assert_eq!(v, expected[i]);
            }
        }
    }

    /// The Skil lexer and parser are total: arbitrary input produces a
    /// result or a diagnostic, never a panic.
    #[test]
    fn lexer_and_parser_are_total(src in ".{0,200}") {
        let _ = skil::lang::parser::parse(&src);
    }

    /// Structured-ish random programs also never panic the front end
    /// (they may or may not compile).
    #[test]
    fn front_end_total_on_token_soup(
        words in proptest::collection::vec(
            prop_oneof![
                Just("int"), Just("float"), Just("void"), Just("main"),
                Just("("), Just(")"), Just("{"), Just("}"), Just(";"),
                Just("="), Just("+"), Just("x"), Just("f"), Just("1"),
                Just("2.5"), Just("if"), Just("return"), Just("$t"),
                Just("list"), Just("<"), Just(">"), Just(","), Just("pardata"),
            ],
            0..60,
        )
    ) {
        let src = words.join(" ");
        let _ = skil::lang::compile(&src);
    }

    /// Skil Value wire roundtrip (the interpreter's message payloads).
    #[test]
    fn lang_value_wire_roundtrip(
        ints in proptest::collection::vec(any::<i64>(), 0..6),
        f in any::<f64>(),
    ) {
        use skil::lang::Value;
        let v = Value::List(
            ints.iter()
                .map(|&i| Value::Struct(1, vec![Value::Int(i), Value::Float(f)]))
                .collect(),
        );
        let bytes = v.to_bytes();
        let back = Value::from_bytes(&bytes).unwrap();
        if f.is_nan() {
            // NaN breaks PartialEq; just check the shape
            prop_assert!(matches!(back, Value::List(items) if items.len() == ints.len()));
        } else {
            prop_assert_eq!(back, v);
        }
    }

    /// The envelope representation is invisible. Fixed lengths 55/56/57
    /// encode (with the 8-byte `Vec` length prefix) to 63/64/65 payload
    /// bytes — straddling the inline-envelope boundary — and the random
    /// tail mixes inline and heap envelopes through the same mailbox
    /// flow. Both schedulers must decode every payload byte-identically,
    /// observe the same, and agree on the inline/heap split (a pure
    /// function of encoded length).
    #[test]
    fn inline_envelope_boundary_is_invisible(
        extra in proptest::collection::vec(0usize..200, 0..10),
        seed in any::<u64>(),
    ) {
        use skil::runtime::SchedulerKind;
        let lens: Vec<usize> = [55usize, 56, 57].into_iter().chain(extra).collect();
        let payloads: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                (0..l)
                    .map(|j| seed.wrapping_mul(i as u64 + 1).wrapping_add(j as u64) as u8)
                    .collect()
            })
            .collect();
        let machines = [SchedulerKind::Event, SchedulerKind::Threads].map(|kind| {
            (format!("{kind:?}"), Machine::new(MachineConfig::mesh(1, 2).unwrap().with_scheduler(kind)))
        });
        let ps = payloads.clone();
        let flow = move |p: &mut Proc<'_>| {
            if p.id() == 0 {
                // One (src, tag) flow: inline and heap envelopes
                // interleave through a single mailbox bucket in FIFO
                // order.
                for v in &ps {
                    p.send(1, 7, v);
                }
                Vec::new()
            } else {
                (0..ps.len()).map(|_| p.recv::<Vec<u8>>(0, 7)).collect::<Vec<_>>()
            }
        };
        let planes = std::cell::RefCell::new(Vec::new());
        let seen = assert_same(&[Row::new("one flow", flow)], &configs(&[()], &machines), |f, (), m| {
            let run = m.try_run(f);
            if let Ok(r) = &run {
                planes.borrow_mut().push(r.report.data_plane());
            }
            run
        });
        prop_assert_eq!(&seen[0].procs()[1].output, &format!("{payloads:?}"));
        let (da, db) = (planes.borrow()[0], planes.borrow()[1]);
        prop_assert_eq!(da.inline_msgs, db.inline_msgs);
        prop_assert_eq!(da.heap_msgs, db.heap_msgs);
        // 55- and 56-byte vectors ride inline; the 57-byte one is heap.
        prop_assert!(da.inline_msgs >= 2 && da.heap_msgs >= 1);
        // One scheduler: every delivery is direct on both substrates.
        prop_assert_eq!(da, db);
        prop_assert_eq!(da.direct_deliveries, da.inline_msgs + da.heap_msgs);
        prop_assert_eq!(da.condvar_deliveries, 0);
    }
}
