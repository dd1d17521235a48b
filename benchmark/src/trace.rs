//! The traced run: where one request's host time goes.
//!
//! Spans are recorded from the outside, by this file, around calls into
//! each layer's public functions (spans inside the program are a later
//! change). Four passes replay one schedule, one request at a time:
//!
//! 1. through a real `skild` over its pipes with one client;
//! 2. through a real in-process [`skil_serve::Server::handle_line`];
//! 3. through [`Shadow`], a re-statement of `handle_line` out of the
//!    same public functions with a span around each;
//! 4. through [`Shadow`] again recording only the root span, which
//!    prices the recording itself.
//!
//! Pass 1 minus pass 2 is the daemon's pipe and thread hand-off; pass 2
//! minus the stage spans of pass 3 is the serving layer's own
//! bookkeeping; the stage spans are the layers.
//!
//! The four take turns request by request, each on its own cache and
//! machine pool. On a mostly idle host the cost of a run depends on
//! where the kernel puts the machine's woken worker thread (an empty
//! 2x2 run is 4 µs or 45 µs on the two-core box this was written on,
//! for seconds at a time); taking turns, such a change reaches the four
//! passes alike, and their differences stay meaningful.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use skil_lang::{bytecode, check, compile_opt, instantiate, opt, parser, token};
use skil_lang::{Compiled, Engine, OptLevel, OptStats};
use skil_runtime::{Machine, MachineConfig, RunReport, Topology};
use skil_serve::json::{self, Json};
use skil_serve::{ErrorKind, Request as ServeRequest, Response, Server};

use crate::daemon::{check, Checked, Daemon, Error, NativeCache, Plan};
use crate::expected::Expected;
use crate::metrics::Metrics;
use crate::procfs;
use crate::stats::{mean, median};
use crate::workloads::{fnv1a64, Workload};

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/// One timed interval. Spans of one request share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    pub request: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder; nothing is written until the run ends.
pub struct Tracer {
    epoch: Instant,
    /// `false`: only root spans are kept (the overhead baseline).
    children: bool,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(children: bool) -> Tracer {
        Tracer { epoch: Instant::now(), children, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u32) -> Option<usize> {
        if !self.children && !self.open.is_empty() {
            return None;
        }
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        Some(self.spans.len() - 1)
    }

    /// Close the span `begin` returned.
    pub fn end(&mut self, id: Option<usize>) {
        let now = self.now_ns();
        if let Some(id) = id {
            assert_eq!(self.open.pop(), Some(id), "spans must nest");
            self.spans[id].end_ns = now;
        }
    }

    fn timed<R>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, request);
        let r = f();
        self.end(id);
        r
    }
}

/// A span's own time: its duration minus what its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.ns();
        }
    }
    own
}

/// Chrome `trace_events` JSON (open in `chrome://tracing` or Perfetto).
pub fn chrome_trace(spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        // Requests on one track, the detached compile replays on another.
        let mut root = i;
        while let Some(p) = spans[root].parent {
            root = p;
        }
        let tid = if spans[root].name == "request" { 1 } else { 2 };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"request\":{},\"self_us\":{:.3}}}}}{}\n",
            s.name,
            s.start_ns as f64 / 1e3,
            s.ns() as f64 / 1e3,
            s.request,
            own[i] as f64 / 1e3,
            if i + 1 < spans.len() { "," } else { "" },
        ));
    }
    out.push_str("]}\n");
    out
}

// ---------------------------------------------------------------------
// The shadow of `Server::handle_line`.
// ---------------------------------------------------------------------

/// Sizes after each front-end pass, for one compiled program.
struct CompileCounts {
    src_bytes: usize,
    tokens: usize,
    fo_functions: usize,
    opt: OptStats,
}

/// Counts taken from the [`RunReport`] of every completed run.
#[derive(Default)]
struct RunCounts {
    runs: u64,
    sim_cycles: u64,
    msgs: u64,
    bytes: u64,
    inline_msgs: u64,
    heap_msgs: u64,
    direct_deliveries: u64,
    condvar_deliveries: u64,
    efficiency_sum: f64,
}

impl RunCounts {
    fn absorb(&mut self, report: &RunReport) {
        let dp = report.data_plane();
        self.runs += 1;
        self.sim_cycles += report.sim_cycles;
        self.msgs += report.total_msgs();
        self.bytes += report.total_bytes();
        self.inline_msgs += dp.inline_msgs;
        self.heap_msgs += dp.heap_msgs;
        self.direct_deliveries += dp.direct_deliveries;
        self.condvar_deliveries += dp.condvar_deliveries;
        self.efficiency_sum += report.efficiency();
    }
}

/// `Server::handle_line` re-stated over the same public functions, one
/// span around each: compiled-program cache, warm-machine pool, and the
/// same responses byte for byte (the traced run checks them too).
struct Shadow {
    programs: HashMap<(u64, OptLevel, Engine), Arc<Compiled>>,
    pool: HashMap<Topology, Vec<Machine>>,
    tracer: Tracer,
    /// One entry per program compiled, warm-up included.
    compiles: Vec<CompileCounts>,
    runs: RunCounts,
    /// The machine each request ran on, by request number.
    shape_of: HashMap<u32, Topology>,
    /// A compile the current request made, to be replayed pass by pass.
    replay: Option<(String, OptLevel)>,
}

impl Shadow {
    fn new(children: bool) -> Shadow {
        Shadow {
            programs: HashMap::new(),
            pool: HashMap::new(),
            tracer: Tracer::new(children),
            compiles: Vec::new(),
            runs: RunCounts::default(),
            shape_of: HashMap::new(),
            replay: None,
        }
    }

    fn handle_line(&mut self, n: u32, line: &str) -> String {
        let root = self.tracer.begin("request", n);
        let response = self.respond(n, line);
        let out = self.tracer.timed("response_encode", n, || response.to_json_line());
        self.tracer.end(root);
        drop(response);
        if let Some((src, level)) = self.replay.take() {
            if self.tracer.children {
                self.replay_compile(n, &src, level);
            }
        }
        out
    }

    fn respond(&mut self, n: u32, line: &str) -> Response {
        let bad_request = |id, message| Response::Err { id, kind: ErrorKind::BadRequest, message };
        let parsed = match self.tracer.timed("json_parse", n, || json::parse(line)) {
            Ok(v) => v,
            Err(e) => return bad_request(None, format!("bad JSON: {e}")),
        };
        let id = parsed.get("id").and_then(Json::as_str).map(str::to_string);
        let req = match self.tracer.timed("request_decode", n, || ServeRequest::from_json(&parsed))
        {
            Ok(r) => r,
            Err(message) => return bad_request(id, message),
        };

        let key = (fnv1a64(req.program.as_bytes()), req.opt_level, req.engine);
        let (compiled, cache_hit) = match self.programs.get(&key) {
            Some(hit) => (Arc::clone(hit), true),
            None => {
                let compiled =
                    self.tracer.timed("compile", n, || compile_opt(&req.program, req.opt_level));
                match compiled {
                    Ok(c) => {
                        let c = Arc::new(c);
                        self.programs.insert(key, Arc::clone(&c));
                        self.replay = Some((req.program.clone(), req.opt_level));
                        (c, false)
                    }
                    Err(e) => {
                        return Response::Err {
                            id,
                            kind: ErrorKind::Compile,
                            message: e.to_string(),
                        }
                    }
                }
            }
        };

        let topo = req.effective_topology();
        let (machine, warm_machine) = match self.pool.get_mut(&topo).and_then(Vec::pop) {
            Some(m) => (m, true),
            None => match MachineConfig::on_topology(topo) {
                Ok(cfg) => (self.tracer.timed("machine_new", n, || Machine::new(cfg)), false),
                Err(e) => {
                    return bad_request(id, format!("bad machine shape {}: {e}", topo.spec()))
                }
            },
        };
        let span = if req.engine == Engine::Native { "run_native" } else { "run_vm" };
        let outcome = self
            .tracer
            .timed(span, n, || compiled.try_run_faults(req.engine, &machine, req.faults.as_ref()));
        self.pool.entry(topo).or_default().push(machine);
        self.shape_of.insert(n, topo);
        match outcome {
            Ok(run) => {
                self.runs.absorb(&run.report);
                Response::Ok { id, run, cache_hit, warm_machine }
            }
            Err(failure) => {
                Response::Err { id, kind: ErrorKind::Runtime, message: failure.to_string() }
            }
        }
    }

    /// The compile a request just paid for, again, outside the request:
    /// once whole and once pass by pass, so that the whole can be held
    /// against the sum of its passes. (`Compiled` can only be built by
    /// `compile_opt`, so the request itself cannot be split.) Whichever
    /// goes first finds the caches colder and runs some 6 % slower, so
    /// they swap places from one compile to the next.
    fn replay_compile(&mut self, n: u32, src: &str, level: OptLevel) {
        let whole_first = self.compiles.len().is_multiple_of(2);
        let whole = |t: &mut Tracer| {
            black_box(t.timed("compile_opt", n, || compile_opt(src, level)))
                .expect("compiled before");
        };
        let t = &mut self.tracer;
        let root = t.begin("compile_replay", n);
        if whole_first {
            whole(t);
        }
        let prog = t.timed("parse", n, || parser::parse(src)).expect("parsed before");
        let mut ck = t.timed("check", n, || check::check(&prog)).expect("checked before");
        let fo = t
            .timed("instantiate", n, || instantiate::instantiate(&mut ck))
            .expect("instantiated before");
        let raw = t.timed("bytecode", n, || bytecode::compile_program(&fo));
        let (code, opt) = t.timed("opt", n, || opt::optimize(&raw, level));
        // `compile_opt` frees the syntax tree and the checker's tables
        // before it returns; so must the sum of its parts.
        t.timed("teardown", n, || drop((ck, prog)));
        if !whole_first {
            whole(t);
        }
        // `parser::parse` lexes internally; `lex` is `token::lex` alone,
        // shown for the parser's self time and not added again. It goes
        // last: ahead of `parse` it would warm the parser's caches.
        let tokens = t.timed("lex", n, || token::lex(src)).expect("lexed before").len();
        t.end(root);
        black_box(code);
        self.compiles.push(CompileCounts {
            src_bytes: src.len(),
            tokens,
            fo_functions: fo.funcs.len(),
            opt,
        });
    }
}

// ---------------------------------------------------------------------
// The four passes.
// ---------------------------------------------------------------------

fn counter(stats: &Json, name: &str) -> Result<f64, Error> {
    stats.get(name).and_then(Json::as_u64).map(|v| v as f64).ok_or(format!("stats lack `{name}`"))
}

/// Mean µs of a warm, empty run on `machine`: the per-run floor.
pub fn empty_run_us(machine: &Machine, runs: usize) -> f64 {
    machine.run(|_| ());
    let t = Instant::now();
    for _ in 0..runs {
        black_box(machine.run(|_| ()));
    }
    t.elapsed().as_secs_f64() * 1e6 / runs as f64
}

/// Replay `w`'s trace schedule through all four passes.
pub fn run(plan: &Plan, w: &Workload, expected: &Expected) -> Result<(Metrics, Checked), Error> {
    let n = w.whole_decks(w.trace_requests, plan.scale);
    let warmup = w.warmup_requests(plan.seed, 1);
    let sample = w.window_requests(plan.seed, n);
    let per_request = |total: f64| total / n as f64;
    let mut m = Metrics::new();

    // One native cache for all passes: whoever meets a native program
    // first builds the artifact, the others load it.
    let cache = NativeCache::fresh(plan.scratch, &format!("{}-trace", w.name))?;
    std::env::set_var("SKIL_NATIVE_CACHE_DIR", &cache.0);
    let mut daemon = Daemon::spawn(plan.skild, plan.clients, &cache.0)?;
    let server = Server::new();
    let mut shadow = Shadow::new(true);
    let mut bare = Shadow::new(false);

    // Warm-up requests are numbered after the sample's, so that a
    // request number names one request in the written trace.
    let mut warm = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for (i, r) in (n as u32..).zip(&warmup) {
        warm[0].push(daemon.round_trip(&r.line)?.1);
        warm[1].push(server.handle_line(&r.line));
        warm[2].push(shadow.handle_line(i, &r.line));
        warm[3].push(bare.handle_line(i, &r.line));
    }
    let before = daemon.stats()?;
    let (_, rss_before) = procfs::rss_kb(daemon.pid()).map_err(|e| e.to_string())?;
    let (first_span, first_bare) = (shadow.tracer.spans.len(), bare.tracer.spans.len());
    shadow.runs = RunCounts::default();

    let (mut pipe_us, mut handle_us) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut answers = [(); 4].map(|()| Vec::with_capacity(n));
    for (i, r) in (0..).zip(&sample) {
        let (ms, response) = daemon.round_trip(&r.line)?;
        pipe_us.push(ms * 1e3);
        answers[0].push(response);
        // Whoever goes first after the wait for the daemon finds the
        // caches cold, so the three in-process passes rotate.
        for turn in 0..3 {
            match (i + turn) % 3 {
                0 => {
                    let t = Instant::now();
                    let response = server.handle_line(&r.line);
                    handle_us.push(t.elapsed().as_secs_f64() * 1e6);
                    answers[1].push(response);
                }
                1 => answers[2].push(shadow.handle_line(i, &r.line)),
                _ => answers[3].push(bare.handle_line(i, &r.line)),
            }
        }
    }
    let after = daemon.stats()?;
    let (_, rss_after) = procfs::rss_kb(daemon.pid()).map_err(|e| e.to_string())?;
    daemon.finish()?;
    drop(server);
    let mut checked = Checked::default();
    for (warm, answers) in std::iter::zip(&warm, &answers) {
        checked.absorb(check(w, expected, &warmup, warm));
        checked.absorb(check(w, expected, &sample, answers));
    }

    // The daemon's own counters over the sample.
    let delta = |name| Ok::<f64, Error>(counter(&after, name)? - counter(&before, name)?);
    let (hits, misses) = (delta("compile_hits")?, delta("compile_misses")?);
    m.insert(
        "serve.cache_hit_rate",
        if hits + misses > 0.0 { hits / (hits + misses) } else { 1.0 },
    );
    m.insert("serve.compile_misses", misses);
    m.insert("serve.machines_warm", delta("machines_warm")?);
    m.insert("serve.machines_cold", delta("machines_cold")?);
    m.insert("serve.machines_discarded", delta("machines_discarded")?);
    m.insert("serve.setup_reuse_hits", delta("setup_reuse_hits")?);
    let grown_kb = rss_after.saturating_sub(rss_before) as f64;
    m.insert("serve.rss_kb_per_program", if misses > 0.0 { grown_kb / misses } else { 0.0 });

    // What the pipes add, request by request: the median of the paired
    // differences, which a few slow runs on either side do not move.
    let io: Vec<f64> = std::iter::zip(&pipe_us, &handle_us).map(|(p, h)| p - h).collect();
    let io_us = median(&io);
    let handle_mean = mean(&handle_us);
    m.insert("skild.io_us", io_us);
    m.insert("serve.handle_line_us", handle_mean);
    m.insert("serve.request_bytes", per_request(sample.iter().map(|r| r.line.len() as f64).sum()));
    m.insert("serve.response_bytes", per_request(answers[1].iter().map(|r| r.len() as f64).sum()));

    let roots_us = |spans: &[Span]| -> f64 {
        spans.iter().filter(|s| s.name == "request").map(|s| s.ns() as f64 / 1e3).sum()
    };
    let (on, off) =
        (roots_us(&shadow.tracer.spans[first_span..]), roots_us(&bare.tracer.spans[first_bare..]));
    m.insert("trace.overhead_pct", (on - off) / off * 100.0);
    m.insert("trace.spans", shadow.tracer.spans.len() as f64);

    // Stage spans of the sample, µs per request.
    let spans = &shadow.tracer.spans;
    let durations = |range: &[Span], name: &str| -> Vec<f64> {
        range.iter().filter(|s| s.name == name).map(|s| s.ns() as f64 / 1e3).collect()
    };
    // (`+ 0.0`: the sum of no spans is -0.0, which prints as "-0")
    let stage = |name: &str| per_request(durations(&spans[first_span..], name).iter().sum()) + 0.0;
    let (parse, decode, encode) =
        (stage("json_parse"), stage("request_decode"), stage("response_encode"));
    let (compile, machine_new) = (stage("compile"), stage("machine_new"));
    let run = stage("run_vm") + stage("run_native");
    let stage_sum = parse + decode + encode + compile + machine_new + run;
    let overhead = handle_mean - stage_sum;
    m.insert("serve.json_parse_us", parse);
    m.insert("serve.request_decode_us", decode);
    m.insert("serve.response_encode_us", encode);
    m.insert("serve.overhead_us", overhead);
    m.insert("trace.coverage", stage_sum / handle_mean);

    // Each run down to its floor: what an empty run on its machine costs.
    let floors: HashMap<Topology, f64> =
        shadow.pool.iter().map(|(topo, ms)| (*topo, empty_run_us(&ms[0], 200))).collect();
    let floor = per_request(
        spans[first_span..]
            .iter()
            .filter(|s| s.name.starts_with("run_"))
            .map(|s| (s.ns() as f64 / 1e3).min(floors[&shadow.shape_of[&s.request]]))
            .sum(),
    );
    // Shares of the one-client round trip, rebuilt from its parts so
    // that they sum to 1: `handle_line` plus what the pipes add.
    let round_trip = handle_mean + io_us;
    m.insert("share.skild_io", io_us / round_trip);
    m.insert("share.serve", (parse + decode + encode + overhead) / round_trip);
    m.insert("share.lang_front", compile / round_trip);
    m.insert("share.run_floor", (floor + machine_new) / round_trip);
    m.insert("share.engine_run", (run - floor) / round_trip);

    // The front end, per program compiled (warm-up compiles included:
    // on a cached workload they are the only ones).
    for (metric, span) in [
        ("lang.lex_us", "lex"),
        ("lang.parse_us", "parse"),
        ("lang.check_us", "check"),
        ("lang.instantiate_us", "instantiate"),
        ("lang.bytecode_us", "bytecode"),
        ("lang.opt_us", "opt"),
        ("lang.teardown_us", "teardown"),
        ("lang.compile_us", "compile_opt"),
    ] {
        m.insert(metric, mean(&durations(spans, span)));
    }
    let size = |f: &dyn Fn(&CompileCounts) -> usize| {
        mean(&shadow.compiles.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    m.insert("lang.src_bytes", size(&|c| c.src_bytes));
    m.insert("lang.tokens", size(&|c| c.tokens));
    m.insert("lang.fo_functions", size(&|c| c.fo_functions));
    m.insert("lang.instrs_raw", size(&|c| c.opt.instrs_before));
    m.insert("lang.instrs_opt", size(&|c| c.opt.instrs_after));
    m.insert("lang.opt_inlined", size(&|c| c.opt.calls_inlined));
    m.insert("lang.opt_folded", size(&|c| c.opt.consts_folded));
    m.insert("lang.opt_props", size(&|c| c.opt.props));
    m.insert("lang.opt_fused", size(&|c| c.opt.fused));
    m.insert("lang.opt_dead_stores", size(&|c| c.opt.stores_eliminated));

    // The engines and the data plane under them, over the sample's runs.
    let vm = durations(&spans[first_span..], "run_vm");
    let native = durations(&spans[first_span..], "run_native");
    let run_total_us: f64 = vm.iter().chain(&native).sum();
    m.insert("engine.vm_run_us", mean(&vm));
    m.insert("engine.native_run_us", mean(&native));
    let r = &shadow.runs;
    m.insert("engine.sim_cycles", r.sim_cycles as f64);
    m.insert("engine.sim_mcycles_per_host_s", r.sim_cycles as f64 / run_total_us);
    m.insert("runtime.msgs", r.msgs as f64);
    m.insert("runtime.bytes", r.bytes as f64);
    m.insert("runtime.inline_msgs", r.inline_msgs as f64);
    m.insert("runtime.heap_msgs", r.heap_msgs as f64);
    m.insert("runtime.direct_deliveries", r.direct_deliveries as f64);
    m.insert("runtime.condvar_deliveries", r.condvar_deliveries as f64);
    m.insert("runtime.msgs_per_run_ms", r.msgs as f64 / (run_total_us / 1e3));
    m.insert("runtime.sim_efficiency", r.efficiency_sum / r.runs as f64);

    let path = plan.scratch.join(format!("trace_{}.json", w.name));
    std::fs::write(&path, chrome_trace(spans))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# trace: {} ({} spans)", path.display(), spans.len());
    Ok((m, checked))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_parent_minus_its_children() {
        let span =
            |name, start_ns, end_ns, parent| Span { name, start_ns, end_ns, parent, request: 0 };
        let spans = vec![
            span("request", 0, 100, None),
            span("json_parse", 5, 15, Some(0)),
            span("run_vm", 20, 90, Some(0)),
            span("inner", 30, 50, Some(2)),
            span("compile_replay", 100, 140, None),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 10, 50, 20, 40]);
    }

    #[test]
    fn the_tracer_nests_and_can_keep_roots_only() {
        let mut t = Tracer::new(true);
        let root = t.begin("request", 7);
        let child = t.begin("json_parse", 7);
        t.end(child);
        t.end(root);
        assert_eq!(t.spans.len(), 2);
        assert_eq!((t.spans[1].parent, t.spans[1].request), (Some(0), 7));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);

        let mut bare = Tracer::new(false);
        let root = bare.begin("request", 1);
        let child = bare.begin("json_parse", 1);
        assert_eq!(child, None);
        bare.end(child);
        bare.end(root);
        assert_eq!(bare.spans.len(), 1);
    }

    #[test]
    fn the_shadow_answers_as_the_server_does() {
        let w = crate::workloads::workload("hot_small").unwrap();
        let requests = w.window_requests(3, 80);
        let server = Server::new();
        let mut shadow = Shadow::new(true);
        // (not the native classes: a unit test should not need `rustc`)
        let interpreted = requests.iter().filter(|r| w.classes[r.class].engine == Engine::Vm);
        for (n, r) in (0..).zip(interpreted) {
            // Machines and programs are warm or cold in step, so the
            // two agree byte for byte.
            assert_eq!(shadow.handle_line(n, &r.line), server.handle_line(&r.line), "{}", r.line);
        }
        let trace = chrome_trace(&shadow.tracer.spans);
        json::parse(&trace).expect("the trace is JSON");
    }
}
