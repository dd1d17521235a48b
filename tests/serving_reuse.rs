//! Warm-machine reuse determinism for the serving layer.
//!
//! `skild` keeps [`Machine`]s warm in a pool and reruns compiled
//! programs on them request after request. That is only sound if a
//! reused machine is indistinguishable from a fresh one: the golden
//! programs must produce **bit-identical** virtual time, output, and
//! per-processor stats on the first run, on a rerun of the same warm
//! machine, and after the machine absorbed a structured failure
//! (runtime error or injected crash) in between — under both engines
//! and both schedulers (`support/invariant.rs`).

use skil::lang::{compile, Compiled, Engine};
use skil::runtime::{FaultPlan, Machine, MachineConfig, SchedulerKind};
use skil_serve::json::{self, Json};
use skil_serve::{ErrorKind, Request, Response, Server};

#[path = "support/invariant.rs"]
mod invariant;

use invariant::{assert_same, configs, Row};

/// Golden virtual run time of `shortest_paths.skil` on a 2x2 mesh,
/// pinned repo-wide (ROADMAP.md, `tests/golden_determinism`).
const SHORTEST_PATHS_CYCLES: u64 = 2_397_316;

fn shortest_paths() -> Compiled {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/skil/shortest_paths.skil");
    let src = std::fs::read_to_string(path).expect("example exists");
    compile(&src).expect("example compiles")
}

#[test]
fn warm_reuse_is_bit_identical_across_engines_and_schedulers() {
    let machines = [SchedulerKind::Event, SchedulerKind::Threads].map(|kind| {
        (format!("{kind:?}"), Machine::new(MachineConfig::square(2).unwrap().with_scheduler(kind)))
    });
    // Each engine twice on the SAME machine: the rerun reuses its
    // worker pool, stacks and run arena, and may not drift by a single
    // cycle or byte.
    let engines = [Engine::Vm, Engine::Vm, Engine::Ast, Engine::Ast];
    let row = [Row::new("shortest_paths", shortest_paths())];
    let seen =
        assert_same(&row, &configs(&engines, &machines), |c, &engine, m| c.try_run_with(engine, m));
    assert_eq!(seen[0].sim_cycles(), SHORTEST_PATHS_CYCLES);
}

#[test]
fn warm_reuse_survives_a_structured_failure_in_between() {
    let machine = [("event", Machine::new(MachineConfig::square(2).unwrap()))];
    let plan = FaultPlan::parse("seed=7,crash=3@100000").unwrap();
    let row = [Row::new("shortest_paths", shortest_paths())];
    // The machine must come back clean: the same golden run as before.
    let when = ["before a crash", "after a crash"];
    let seen = assert_same(&row, &configs(&when, &machine), |c, &when, m| {
        if when == "after a crash" {
            // Crash processor 3 mid-run via a per-request fault plan.
            let failure =
                c.try_run_faults(Engine::Vm, m, Some(&plan)).expect_err("crash plan must abort");
            assert!(failure.to_string().contains("crashed by fault plan"), "{failure}");
        }
        c.try_run_with(Engine::Vm, m)
    });
    assert_eq!(seen[0].sim_cycles(), SHORTEST_PATHS_CYCLES);
}

#[test]
fn server_pool_serves_golden_runs_from_warm_machines() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/skil/shortest_paths.skil");
    let src = std::fs::read_to_string(path).expect("example exists");
    let server = Server::new();
    for round in 0..3 {
        // Interleave a failing request so the pooled machine absorbs a
        // runtime error between golden runs.
        let faulty = Request::program("void main() { int z = procId - procId; print(100 / z); }");
        let Response::Err { kind, .. } = server.handle(faulty) else {
            panic!("divide by zero must fail");
        };
        assert_eq!(kind, ErrorKind::Runtime);

        let Response::Ok { run, cache_hit, warm_machine, .. } =
            server.handle(Request::program(&src))
        else {
            panic!("golden request failed (round {round})");
        };
        assert_eq!(run.report.sim_cycles, SHORTEST_PATHS_CYCLES, "round {round}");
        assert_eq!(cache_hit, round > 0, "round {round}");
        assert!(warm_machine, "round {round}: failing request warmed the pool");
    }
    assert_eq!(server.stats().machines_discarded, 0);
}

/// A parameter sweep reaches the daemon as a stream of new sources. Past
/// the compile cache's byte budget the least recently used programs go;
/// the two golden programs, used every 50 requests, are never among
/// them, and their virtual time does not move.
#[test]
fn a_sweep_past_the_cache_budget_evicts_cold_programs_and_keeps_hot_ones() {
    let example = |name: &str| {
        let path = format!("{}/examples/skil/{name}.skil", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(path).expect("example exists")
    };
    let hot = [(example("shortest_paths"), SHORTEST_PATHS_CYCLES), (example("gauss"), 11_906_936)];
    let gauss = include_str!("../benchmark/programs/gauss.skil").replace("__N__", "4");
    let request = |id: &str, src: &str| {
        format!(r#"{{"id":"{id}","program":"{}"}}"#, skil_serve::json::escape(src))
    };
    let server = Server::new();
    let stats = || server.stats();
    let mut sweep = 0;
    let mut past_budget = 0;
    while past_budget < 100 {
        if sweep % 50 == 0 {
            for (src, cycles) in &hot {
                let reply = json::parse(&server.handle_line(&request("hot", src))).unwrap();
                assert_eq!(reply.get("sim_cycles").and_then(Json::as_u64), Some(*cycles));
                let cache = reply.get("cache").and_then(Json::as_str);
                assert_eq!(cache, Some(if sweep == 0 { "miss" } else { "hit" }), "at {sweep}");
            }
        }
        let k = 100_000_000 + sweep;
        let src = gauss.replacen(
            "void main() {",
            &format!("void main() {{ if (procId == 0) {{ print({k}); }}"),
            1,
        );
        let reply = server.handle_line(&request(&format!("s{sweep}"), &src));
        assert!(reply.contains(&format!(r#""results":[["{k}""#)), "{reply}");
        assert!(reply.contains(r#""cache":"miss""#), "{reply}");
        sweep += 1;
        if stats().cache_evictions > 0 {
            past_budget += 1;
        }
    }
    let stats = stats();
    assert!(stats.cache_bytes <= stats.cache_budget_bytes, "{stats:?}");
    assert_eq!(stats.cache_budget_bytes, skil_serve::CACHE_BUDGET_BYTES as u64);
    assert_eq!(stats.cache_programs + stats.cache_evictions, stats.compile_misses);
    // Nothing here ran long enough to hold a machine: one 2x2 serves all.
    assert_eq!((stats.machines_cold, stats.machines_evicted), (1, 0));
}

/// The three programs that used to cost `skild` a response line, a
/// worker or a warm machine: `i64::MIN / -1` met by the constant folder
/// (a panic in the front end, outside the request's guard), `% -1` met
/// at run time, and an array used after `array_destroy`. Each is
/// followed by a request that must find the daemon as it was.
#[test]
fn overflowing_division_and_a_destroyed_array_cost_no_response_and_no_machine() {
    let folded = "void main() { int m = int_max * 4 + 3; int z = 0 - m - 1; print(z / (0 - 1)); }";
    let run_time =
        "void main() { int m = int_max * 4 + 3; int z = 0 - m - 1 + (procId - procId); print(z % (0 - 1)); }";
    let destroyed = "int one(Index ix) { return 1; }
        int inc(int v, Index ix) { return v + 1; }
        void main() {
            array<int> a = array_create(1, {8, 1}, {0,0}, {0-1,0-1}, one, DISTR_DEFAULT);
            array<int> b = array_create(1, {8, 1}, {0,0}, {0-1,0-1}, one, DISTR_DEFAULT);
            array_destroy(a);
            array_map(inc, a, b);
        }";
    let server = Server::new();
    let printed = |line: &str| {
        let reply = server.handle_line(line);
        assert!(reply.contains(r#""ok":true"#), "{reply}");
        reply
    };
    // The walker's answers to the same programs are held in-process:
    // lang_engines' `negation_and_abs_of_the_minimum_wrap_under_every_engine`
    // and its "use after destroy" row.
    let request =
        |program: &str| format!(r#"{{"id":"p","engine":"vm","mesh":"2x2","program":"{program}"}}"#);
    let min = format!(r#"["{}"]"#, i64::MIN);
    assert!(printed(&request(folded)).contains(&min), "folded `/ -1`");
    assert!(printed(&request(run_time)).contains(r#"["0"]"#), "run-time `% -1`");
    let reply = server.handle_line(&request(&destroyed.replace('\n', " ")));
    assert!(reply.contains(r#""kind":"runtime""#), "{reply}");
    assert!(reply.contains("already destroyed"), "{reply}");
    assert!(printed(&request("void main() { print(1); }")).contains(r#"["1"]"#));
    let stats = server.stats();
    assert_eq!((stats.requests, stats.ok, stats.errors), (4, 3, 1));
    assert_eq!(stats.machines_discarded, 0);
}
