//! Every metric the benchmark reports: name, unit, which way is better.
//! `BENCHMARK.json` at the repository root lists the same (a test holds
//! the two together) and adds the regression bounds.

use skil_serve::json::{self, Json};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

use Better::{Higher, Lower};

pub type Def = (&'static str, &'static str, Better);

/// Measured per-layer metrics by name.
pub type Metrics = std::collections::BTreeMap<&'static str, f64>;

/// What a user of `skild` sees, the same on every workload, in the order
/// of `daemon::Repetition`. The seventh, `fail_share`, is never 0-free:
/// it travels as `failed` / `attempted` in the result line instead.
pub const END_TO_END: [Def; 6] = [
    ("throughput_rps", "1/s", Higher),
    ("latency_p50_ms", "ms", Lower),
    ("latency_p99_ms", "ms", Lower),
    ("cpu_ms_per_req", "ms", Lower),
    ("peak_rss_mb", "MB", Lower),
    ("setup_s", "s", Lower),
];

/// One layer at a time, from the traced run and the probes.
pub const PER_LAYER: [Def; 81] = [
    // skild: the pipes and the reader/worker hand-off
    ("skild.io_us", "us", Lower),
    // serve: Server::handle_line
    ("serve.handle_line_us", "us", Lower),
    ("serve.json_parse_us", "us", Lower),
    ("serve.request_decode_us", "us", Lower),
    ("serve.response_encode_us", "us", Lower),
    ("serve.overhead_us", "us", Lower),
    ("serve.request_bytes", "B", Lower),
    ("serve.response_bytes", "B", Lower),
    ("serve.cache_hit_rate", "ratio", Higher),
    ("serve.compile_misses", "count", Lower),
    ("serve.machines_warm", "count", Higher),
    ("serve.machines_cold", "count", Lower),
    ("serve.machines_discarded", "count", Lower),
    ("serve.setup_reuse_hits", "count", Higher),
    ("serve.rss_kb_per_program", "kB", Lower),
    // lang, front end: time per compiled program, then sizes per program
    ("lang.lex_us", "us/compile", Lower),
    ("lang.parse_us", "us/compile", Lower),
    ("lang.check_us", "us/compile", Lower),
    ("lang.instantiate_us", "us/compile", Lower),
    ("lang.bytecode_us", "us/compile", Lower),
    ("lang.opt_us", "us/compile", Lower),
    ("lang.teardown_us", "us/compile", Lower),
    ("lang.compile_us", "us/compile", Lower),
    ("lang.src_bytes", "B/compile", Lower),
    ("lang.tokens", "count/compile", Lower),
    ("lang.fo_functions", "count/compile", Lower),
    ("lang.instrs_raw", "count/compile", Lower),
    ("lang.instrs_opt", "count/compile", Lower),
    ("lang.opt_inlined", "count/compile", Higher),
    ("lang.opt_folded", "count/compile", Higher),
    ("lang.opt_props", "count/compile", Higher),
    ("lang.opt_fused", "count/compile", Higher),
    ("lang.opt_dead_stores", "count/compile", Higher),
    // lang, engines
    ("engine.vm_run_us", "us/run", Lower),
    ("engine.native_run_us", "us/run", Lower),
    ("engine.native_prepare_cold_s", "s", Lower),
    ("engine.native_prepare_warm_us", "us", Lower),
    ("engine.sim_cycles", "cycles", Lower),
    ("engine.sim_mcycles_per_host_s", "Mcycles/s", Higher),
    // runtime: machine, data plane, collectives, wire
    ("runtime.machine_new_us.2x2", "us", Lower),
    ("runtime.machine_new_us.4x4", "us", Lower),
    ("runtime.machine_new_us.8x8", "us", Lower),
    ("runtime.empty_run_us.2x2", "us", Lower),
    ("runtime.empty_run_us.4x4", "us", Lower),
    ("runtime.empty_run_us.8x8", "us", Lower),
    ("runtime.msg_inline_ns", "ns", Lower),
    ("runtime.msg_heap_ns", "ns", Lower),
    ("runtime.ring64_ns_per_msg", "ns", Lower),
    ("runtime.allreduce_us.mesh4x4", "us", Lower),
    ("runtime.allreduce_us.hypercube16", "us", Lower),
    ("runtime.broadcast_2k_us.mesh4x4", "us", Lower),
    ("runtime.wire_encode_mb_s", "MB/s", Higher),
    ("runtime.wire_decode_mb_s", "MB/s", Higher),
    ("runtime.msgs", "count", Lower),
    ("runtime.bytes", "B", Lower),
    ("runtime.inline_msgs", "count", Higher),
    ("runtime.heap_msgs", "count", Lower),
    ("runtime.direct_deliveries", "count", Higher),
    ("runtime.condvar_deliveries", "count", Lower),
    ("runtime.msgs_per_run_ms", "1/ms", Higher),
    ("runtime.sim_efficiency", "ratio", Higher),
    // core: the skeletons with native closures
    ("core.create_us", "us", Lower),
    ("core.map_us", "us", Lower),
    ("core.fold_us", "us", Lower),
    ("core.scan_us", "us", Lower),
    ("core.copy_us", "us", Lower),
    ("core.broadcast_part_us", "us", Lower),
    ("core.gen_mult_us.n16_8x8", "us", Lower),
    ("core.gen_mult_us.n64_2x2", "us", Lower),
    ("core.farm_us", "us", Lower),
    ("core.dc_us", "us", Lower),
    // apps: whole programs hand-written over skil-core
    ("apps.shpaths_n16_8x8_us", "us", Lower),
    ("apps.gauss_n16_4x4_us", "us", Lower),
    // where a request's time goes, and how far the trace can be trusted
    ("share.skild_io", "ratio", Lower),
    ("share.serve", "ratio", Lower),
    ("share.lang_front", "ratio", Lower),
    ("share.engine_run", "ratio", Higher),
    ("share.run_floor", "ratio", Lower),
    ("trace.coverage", "ratio", Higher),
    ("trace.overhead_pct", "%", Lower),
    ("trace.spans", "count", Lower),
];

/// The committed `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

/// The regression bound of every end-to-end metric, from `BENCHMARK.json`.
pub fn bounds() -> Vec<(String, f64)> {
    let spec = benchmark_json();
    let Some(Json::Arr(metrics)) = spec.get("end_to_end") else {
        panic!("BENCHMARK.json has no end_to_end list");
    };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("bound")) {
            (Some(Json::Str(name)), Some(Json::Num(bound))) => (name.clone(), *bound),
            _ => panic!("BENCHMARK.json: an end_to_end metric lacks its name or bound"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{workload, DEFAULT_SECONDS, WORKLOAD_NAMES};

    fn field<'a>(v: &'a Json, key: &str) -> &'a str {
        v.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("no `{key}` in {v}"))
    }

    fn list<'a>(spec: &'a Json, key: &str) -> &'a [Json] {
        match spec.get(key) {
            Some(Json::Arr(items)) => items,
            _ => panic!("BENCHMARK.json has no `{key}` list"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let spec = benchmark_json();
        for (key, defs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed: Vec<(&str, &str, &str)> = list(&spec, key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect();
            let ours: Vec<(&str, &str, &str)> = defs
                .iter()
                .map(|&(n, u, b)| (n, u, if b == Higher { "higher" } else { "lower" }))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        assert!(bounds().iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
    }

    #[test]
    fn benchmark_json_lists_the_workloads_and_their_frozen_counts() {
        let spec = benchmark_json();
        let listed = list(&spec, "workloads");
        assert_eq!(listed.iter().map(|w| field(w, "name")).collect::<Vec<_>>(), WORKLOAD_NAMES);
        for w in listed {
            let requests = workload(field(w, "name")).unwrap().requests;
            let why = field(w, "why");
            assert!(why.contains(&format!("{requests} requests")), "{why}");
            assert!(why.len() <= 200);
        }
        assert_eq!(spec.get("run_seconds").and_then(Json::as_u64), Some(DEFAULT_SECONDS as u64));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for (name, unit, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok(name, "_.-", 64) && name.as_bytes()[0].is_ascii_alphanumeric(), "{name}");
            assert!(ok(unit, "_/%.-", 16), "{unit}");
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
