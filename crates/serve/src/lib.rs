//! # skil-serve
//!
//! The **Skil serving layer**: a persistent in-process server that
//! compiles Skil programs once and runs them many times on a pool of
//! warm simulated machines (DESIGN.md §14).
//!
//! Three pieces:
//!
//! - a **compiled-program cache** keyed by `(source text, opt level)`
//!   — re-submitting the same program, under either engine, skips the
//!   whole compile — and, under it, a cache of front ends keyed by the
//!   source's *shape* (its text with every literal's value masked,
//!   [`Lexed::shape`]) — a new source that differs from a cached one only
//!   in its literals, as a parameter sweep's do, skips the front end and
//!   pays for the back end alone. Both hold at most [`CACHE_BUDGET_BYTES`]
//!   together, evicting the least recently used entries;
//! - a **warm-[`Machine`] pool** keyed by mesh shape — worker threads
//!   and coroutine stacks are reused across requests, and per-request
//!   fault plans ride on [`Compiled::try_run_faults`] so machines with
//!   different fault plans share one pool entry. A request may ask for
//!   at most [`MAX_PROCESSORS`] processors, and the pool keeps at most
//!   as many idle, dropping the least recently checked-in machines;
//! - a **structured request/response protocol** (JSON lines, see
//!   [`Server::handle_line`]) in which *every* failure — parse error,
//!   type error, Skil runtime error, injected crash — is a JSON error
//!   response, never a dead daemon.
//!
//! The safety story for reuse: `Machine::try_run*` builds fresh mailbox
//! and stats state per run, structured failures
//! ([`skil_runtime::SimFailure`]) leave the machine clean, and a
//! genuine engine panic is caught by the server, reported as an
//! `internal` error, and the affected machine is *discarded* instead of
//! returned to the pool.
//!
//! ```
//! use skil_serve::Server;
//!
//! let server = Server::new();
//! let resp = server.handle_line(
//!     r#"{"id":"a","program":"void main() { if (procId == 0) { print(40 + 2); } }"}"#,
//! );
//! assert!(resp.contains("\"ok\":true"));
//! assert!(resp.contains("\"42\""));
//! // Same source again: served from the compiled-program cache.
//! server.handle_line(r#"{"program":"void main() { if (procId == 0) { print(40 + 2); } }"}"#);
//! assert_eq!(server.stats().compile_hits, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use json::{Json, ObjWriter};
use skil_lang::token::Lexed;
use skil_lang::{front_end, Compiled, Engine, FoProgram, OptLevel};
use skil_runtime::{FaultPlan, Machine, MachineConfig, Mesh, Run, Topology};

/// The most heap bytes the compile cache holds, compiled programs and
/// front ends together. Skil has no run-time arguments, so a parameter
/// sweep is a stream of new sources; the largest cached working set of
/// any benchmark workload is under 1 MiB, and 32 MiB holds ~2,400
/// `cold_compile`-sized programs.
pub const CACHE_BUDGET_BYTES: usize = 32 << 20;

/// The most processors one request may ask for, and the most the idle
/// pool keeps across all its machines: the largest machine any test or
/// bench in the repo builds (`scale_scheduler`'s 64x64).
pub const MAX_PROCESSORS: usize = 4096;

/// One compiled variant of a cached source: one per opt level. The
/// engine is no part of the key: both engines run the one bytecode
/// image, and the native engine's module is memoised inside
/// [`Compiled`].
struct Entry {
    level: OptLevel,
    compiled: Arc<Compiled>,
    /// What the entry adds to the cache's bytes, its text aside.
    bytes: usize,
    /// The cache's clock at the entry's insert or latest hit.
    last_use: u64,
}

/// A cached front end: the instantiated program of one shape, whose
/// literal table a later source of the shape replaces with its own.
struct Shape {
    fo: Arc<FoProgram>,
    /// What the shape adds to the cache's bytes, its key included.
    bytes: usize,
    /// The cache's clock at the shape's insert or latest hit.
    last_use: u64,
}

/// The compiled-program cache: source text -> the variants compiled
/// from it, and shape -> the front end of a source of that shape. Each
/// key is the text itself (one shared copy per source, hashed by std's
/// keyed `RandomState`), never a digest of it: two different programs
/// can not be handed each other's compiled code, whatever their bytes.
/// It owns its size and holds at most `budget` bytes: the least recently
/// used variants and shapes go first, and a source's text goes with its
/// last variant.
struct ProgramCache {
    by_source: HashMap<Arc<str>, Vec<Entry>>,
    shapes: HashMap<Box<str>, Shape>,
    budget: usize,
    /// Live variants, and every entry's bytes:
    /// [`ProgramCache::entry_bytes`] per variant, every live source's
    /// text once, and [`ProgramCache::shape_bytes`] per shape.
    programs: usize,
    bytes: usize,
    /// Variants evicted, and shapes evicted.
    evictions: u64,
    shape_evictions: u64,
    /// Ticks once per hit and per insert.
    clock: u64,
}

/// What an eviction took out of the cache, for the caller to drop after
/// releasing the cache's lock.
#[derive(Default)]
struct Evicted {
    programs: Vec<Arc<Compiled>>,
    shapes: Vec<Arc<FoProgram>>,
}

impl ProgramCache {
    fn new(budget: usize) -> ProgramCache {
        ProgramCache {
            by_source: HashMap::new(),
            shapes: HashMap::new(),
            budget,
            programs: 0,
            bytes: 0,
            evictions: 0,
            shape_evictions: 0,
            clock: 0,
        }
    }

    /// Heap bytes a cached program holds, its source text aside.
    fn entry_bytes(compiled: &Compiled) -> usize {
        compiled.heap_bytes() + std::mem::size_of::<Compiled>()
    }

    /// Heap bytes a cached front end holds, its key included.
    fn shape_bytes(shape: &str, fo: &FoProgram) -> usize {
        shape.len() + fo.heap_bytes() + std::mem::size_of::<FoProgram>()
    }

    /// The front end cached for `shape`, now the most recently used
    /// entry.
    fn get_shape(&mut self, shape: &str) -> Option<Arc<FoProgram>> {
        let cached = self.shapes.get_mut(shape)?;
        self.clock += 1;
        cached.last_use = self.clock;
        Some(Arc::clone(&cached.fo))
    }

    /// Keep `fo` as the front end of `shape` unless a racing compile got
    /// there first, or it alone would not fit in the budget; returns
    /// what the insert evicted.
    fn insert_shape(&mut self, shape: String, fo: Arc<FoProgram>) -> Evicted {
        let bytes = Self::shape_bytes(&shape, &fo);
        if self.shapes.contains_key(shape.as_str()) || bytes > self.budget {
            return Evicted::default();
        }
        self.clock += 1;
        self.shapes.insert(shape.into(), Shape { fo, bytes, last_use: self.clock });
        self.bytes += bytes;
        if self.bytes > self.budget {
            self.evict()
        } else {
            Evicted::default()
        }
    }

    /// The cached program for `(src, level)`, now the most recently
    /// used one.
    fn get(&mut self, src: &str, level: OptLevel) -> Option<&Arc<Compiled>> {
        let entry = self.by_source.get_mut(src)?.iter_mut().find(|e| e.level == level)?;
        self.clock += 1;
        entry.last_use = self.clock;
        Some(&entry.compiled)
    }

    /// Keep `compiled` for `(src, level)` unless a racing compile got
    /// there first, or it alone would not fit in the budget; returns the
    /// program to run and what the insert evicted, which the caller
    /// drops after releasing the cache's lock.
    fn insert(
        &mut self,
        src: &str,
        level: OptLevel,
        compiled: Arc<Compiled>,
    ) -> (Arc<Compiled>, Evicted) {
        if let Some(first) = self.get(src, level) {
            return (Arc::clone(first), Evicted::default());
        }
        let bytes = Self::entry_bytes(&compiled);
        let text = if self.by_source.contains_key(src) { 0 } else { src.len() };
        if bytes + text > self.budget {
            return (compiled, Evicted::default());
        }
        self.clock += 1;
        let entry = Entry { level, compiled: Arc::clone(&compiled), bytes, last_use: self.clock };
        match self.by_source.get_mut(src) {
            Some(variants) => variants.push(entry),
            None => {
                self.by_source.insert(Arc::from(src), vec![entry]);
            }
        }
        self.programs += 1;
        self.bytes += bytes + text;
        let evicted = if self.bytes > self.budget { self.evict() } else { Evicted::default() };
        (compiled, evicted)
    }

    /// Evict the least recently used variants and shapes, the entry
    /// inserted last aside, until the cache is down to three quarters of
    /// its budget: one sort per batch, and a batch only every quarter
    /// budget's worth of inserts.
    fn evict(&mut self) -> Evicted {
        let variants = self.by_source.values().flatten().map(|e| (e.last_use, e.bytes));
        let shapes = self.shapes.values().map(|s| (s.last_use, s.bytes));
        let mut by_age: Vec<(u64, usize)> =
            variants.chain(shapes).filter(|&(last_use, _)| last_use != self.clock).collect();
        by_age.sort_unstable();
        let target = self.budget / 4 * 3;
        // Text freed with a source's last variant comes on top, so
        // evicting up to `cutoff` reaches the target.
        let (mut freed, mut cutoff) = (0, 0);
        for (last_use, bytes) in by_age {
            if self.bytes - freed <= target {
                break;
            }
            freed += bytes;
            cutoff = last_use;
        }
        let mut evicted = Evicted::default();
        let (programs, bytes) = (&mut self.programs, &mut self.bytes);
        self.by_source.retain(|src, variants| {
            variants.retain(|e| {
                let keep = e.last_use > cutoff;
                if !keep {
                    *programs -= 1;
                    *bytes -= e.bytes;
                    evicted.programs.push(Arc::clone(&e.compiled));
                }
                keep
            });
            if variants.is_empty() {
                *bytes -= src.len();
            }
            !variants.is_empty()
        });
        self.shapes.retain(|_, s| {
            let keep = s.last_use > cutoff;
            if !keep {
                *bytes -= s.bytes;
                evicted.shapes.push(Arc::clone(&s.fo));
            }
            keep
        });
        self.evictions += evicted.programs.len() as u64;
        self.shape_evictions += evicted.shapes.len() as u64;
        evicted
    }
}

/// A parsed, validated run request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Opaque client id, echoed in the response (optional).
    pub id: Option<String>,
    /// Skil source text.
    pub program: String,
    /// Mesh shape.
    pub mesh: (usize, usize),
    /// Physical topology (`None` = 2-D mesh of the `mesh` shape). When
    /// set, it subsumes `mesh`: the process grid is the topology's.
    pub topology: Option<Topology>,
    /// Execution engine.
    pub engine: Engine,
    /// Bytecode optimizer level.
    pub opt_level: OptLevel,
    /// Per-request fault plan (`None` = fault-free).
    pub faults: Option<FaultPlan>,
}

impl Request {
    /// A fault-free default-engine request for `program` on a 2x2 mesh.
    pub fn program(src: &str) -> Request {
        Request {
            id: None,
            program: src.to_string(),
            mesh: (2, 2),
            topology: None,
            engine: Engine::Vm,
            opt_level: OptLevel::default(),
            faults: None,
        }
    }

    /// The topology this request's machine runs on: the explicit
    /// `topology` when present, otherwise a 2-D mesh of `mesh`.
    pub fn effective_topology(&self) -> Topology {
        self.topology.unwrap_or(Topology::Mesh2d(Mesh { rows: self.mesh.0, cols: self.mesh.1 }))
    }

    /// Parse the JSON-object form of a request. Unknown fields are
    /// rejected so client typos fail loudly instead of silently running
    /// with defaults.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let Json::Obj(map) = v else {
            return Err("request must be a JSON object".to_string());
        };
        for key in map.keys() {
            if !matches!(
                key.as_str(),
                "id" | "program" | "mesh" | "topology" | "engine" | "opt_level" | "faults"
            ) {
                return Err(format!("unknown request field \"{key}\""));
            }
        }
        let id = match map.get("id") {
            None => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err("\"id\" must be a string".to_string()),
        };
        let program = match map.get("program") {
            Some(Json::Str(s)) => s.clone(),
            Some(_) => return Err("\"program\" must be a string".to_string()),
            None => return Err("missing \"program\"".to_string()),
        };
        let mesh = match map.get("mesh") {
            None => (2, 2),
            Some(Json::Str(spec)) => parse_mesh(spec)?,
            Some(_) => return Err("\"mesh\" must be a string like \"2x2\"".to_string()),
        };
        let topology = match map.get("topology") {
            None => None,
            Some(Json::Str(spec)) => {
                Some(Topology::parse(spec).map_err(|e| format!("bad \"topology\" spec: {e}"))?)
            }
            Some(_) => {
                return Err("\"topology\" must be a spec string like \"hypercube:16\"".to_string())
            }
        };
        let engine = match map.get("engine") {
            None => Engine::Vm,
            Some(Json::Str(s)) => {
                Engine::from_arg(s).ok_or(format!("bad \"engine\" \"{s}\" (vm|native)"))?
            }
            Some(_) => return Err("\"engine\" must be \"vm\" or \"native\"".to_string()),
        };
        let opt_level = match map.get("opt_level") {
            None => OptLevel::default(),
            Some(v) => {
                let n = v.as_u64().ok_or("\"opt_level\" must be 0 or 2")?;
                OptLevel::from_arg(&n.to_string()).ok_or("\"opt_level\" must be 0 or 2")?
            }
        };
        let faults = match map.get("faults") {
            None => None,
            Some(Json::Str(spec)) => {
                Some(FaultPlan::parse(spec).map_err(|e| format!("bad \"faults\" spec: {e}"))?)
            }
            Some(_) => return Err("\"faults\" must be a fault-spec string".to_string()),
        };
        Ok(Request { id, program, mesh, topology, engine, opt_level, faults })
    }
}

/// Parse `"RxC"` into a mesh shape.
fn parse_mesh(spec: &str) -> Result<(usize, usize), String> {
    let err = || format!("bad mesh \"{spec}\" (want ROWSxCOLS, e.g. \"2x2\")");
    let (r, c) = spec.split_once('x').ok_or_else(err)?;
    let r: usize = r.parse().map_err(|_| err())?;
    let c: usize = c.parse().map_err(|_| err())?;
    if r == 0 || c == 0 {
        return Err(err());
    }
    Ok((r, c))
}

/// Why a request failed. The `kind` tags let clients (and the CI smoke
/// test) distinguish their own bad input from program bugs from server
/// bugs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed JSON or invalid request fields.
    BadRequest,
    /// The program did not compile (parse/type/instantiation error).
    Compile,
    /// The simulation aborted with a structured failure: a Skil runtime
    /// error (division by zero, out-of-bounds index), an injected
    /// crash, or the resulting `PeerDown` cascade.
    Runtime,
    /// The engine itself panicked — a server bug. The machine involved
    /// is discarded, the daemon keeps serving.
    Internal,
}

impl ErrorKind {
    fn as_str(&self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Compile => "compile",
            ErrorKind::Runtime => "runtime",
            ErrorKind::Internal => "internal",
        }
    }
}

/// The outcome of one request.
#[derive(Debug)]
pub enum Response {
    /// The program ran to completion.
    Ok {
        /// Echoed request id.
        id: Option<String>,
        /// The completed run (per-processor output lines + report).
        run: Run<Vec<String>>,
        /// Whether the compiled program came from the cache.
        cache_hit: bool,
        /// Whether the machine came warm from the pool.
        warm_machine: bool,
    },
    /// The request failed; the daemon is still healthy.
    Err {
        /// Echoed request id.
        id: Option<String>,
        /// Which layer rejected it.
        kind: ErrorKind,
        /// Human-readable diagnostic.
        message: String,
    },
    /// Reply to a `{"cmd":"stats"}` control request.
    Stats(StatsSnapshot),
}

impl Response {
    /// Serialize to one JSON line (no trailing newline). The line is
    /// written straight into one string, members in ascending key order
    /// — byte for byte what the [`Json`] tree of the same response
    /// prints (the tests hold the two against each other).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        match self {
            Response::Ok { id, run, cache_hit, warm_machine } => {
                let mut o = ObjWriter::begin(&mut out);
                o.str("cache", if *cache_hit { "hit" } else { "miss" });
                if let Some(id) = id {
                    o.str("id", id);
                }
                o.str("machine", if *warm_machine { "warm" } else { "cold" });
                o.bool("ok", true);
                let procs = o.value("procs");
                procs.push('[');
                for (i, p) in run.report.procs.iter().enumerate() {
                    if i > 0 {
                        procs.push(',');
                    }
                    let s = &p.stats;
                    let mut po = ObjWriter::begin(procs);
                    po.num("bytes_recvd", s.bytes_recvd as f64);
                    po.num("bytes_sent", s.bytes_sent as f64);
                    po.num("compute", s.compute as f64);
                    po.num("delays", s.delays as f64);
                    po.num("drops", s.drops as f64);
                    po.num("dups", s.dups as f64);
                    po.num("recvs", s.recvs as f64);
                    po.num("retries", s.retries as f64);
                    po.num("sends", s.sends as f64);
                    po.num("wait", s.wait as f64);
                    po.end();
                }
                procs.push(']');
                let results = o.value("results");
                results.push('[');
                for (i, lines) in run.results.iter().enumerate() {
                    if i > 0 {
                        results.push(',');
                    }
                    results.push('[');
                    for (j, l) in lines.iter().enumerate() {
                        if j > 0 {
                            results.push(',');
                        }
                        json::write_str(results, l);
                    }
                    results.push(']');
                }
                results.push(']');
                o.num("sim_cycles", run.report.sim_cycles as f64);
                o.num("sim_seconds", run.report.sim_seconds);
                o.end();
            }
            Response::Err { id, kind, message } => {
                let mut o = ObjWriter::begin(&mut out);
                let mut e = ObjWriter::begin(o.value("error"));
                e.str("kind", kind.as_str());
                e.str("message", message);
                e.end();
                if let Some(id) = id {
                    o.str("id", id);
                }
                o.bool("ok", false);
                o.end();
            }
            Response::Stats(s) => s.write_json(&mut out),
        }
        out
    }
}

/// Monotonic serving counters (all `Relaxed`: totals, not ordering).
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    compile_hits: AtomicU64,
    compile_misses: AtomicU64,
    shape_hits: AtomicU64,
    shape_misses: AtomicU64,
    machines_discarded: AtomicU64,
    /// Summed over the runs whose machine went back to the pool, each
    /// added at its check-in: see [`StatsSnapshot::setup_reuse_hits`].
    setup_reuse_hits: AtomicU64,
    helper_joins: AtomicU64,
}

/// A machine's monotone run counters as it left the pool, for its
/// check-in to add what its run added to the server's totals.
#[derive(Debug, Clone, Copy, Default)]
struct RunTally {
    setup_reuse_hits: u64,
    helper_joins: u64,
}

impl RunTally {
    fn of(machine: &Machine) -> RunTally {
        RunTally {
            setup_reuse_hits: machine.setup_reuse_hits(),
            helper_joins: machine.helper_joins(),
        }
    }
}

/// How many processors `topo` has, counted wide enough that no
/// client-chosen mesh overflows it.
fn processors(topo: Topology) -> u128 {
    match topo {
        Topology::Mesh2d(m) | Topology::Hetero { mesh: m, .. } => m.rows as u128 * m.cols as u128,
        _ => topo.procs() as u128,
    }
}

/// One machine shape's share of the pool: the machines idle right now,
/// each with the pool's clock at its check-in (so oldest first), and
/// how often a request was handed a warm or a cold one since the entry
/// was made.
#[derive(Default)]
struct PoolShape {
    idle: Vec<(u64, Machine)>,
    warm: u64,
    cold: u64,
}

/// The warm-machine pool: idle machines by shape, at most `cap`
/// processors of them across all shapes. Evicting a shape's last idle
/// machine drops the shape's entry, so the map and the per-shape stats
/// stay bounded however many shapes are asked for; `warm` and `cold`
/// count every checkout ever made.
struct MachinePool {
    shapes: HashMap<Topology, PoolShape>,
    cap: usize,
    idle_procs: usize,
    evicted: u64,
    warm: u64,
    cold: u64,
    /// Ticks once per check-in.
    clock: u64,
}

impl MachinePool {
    fn new(cap: usize) -> MachinePool {
        MachinePool {
            shapes: HashMap::new(),
            cap,
            idle_procs: 0,
            evicted: 0,
            warm: 0,
            cold: 0,
            clock: 0,
        }
    }

    /// The most recently checked-in idle machine on `topo`, counted as
    /// a warm checkout.
    fn take(&mut self, topo: Topology) -> Option<Machine> {
        let shape = self.shapes.get_mut(&topo)?;
        let (_, machine) = shape.idle.pop()?;
        shape.warm += 1;
        self.warm += 1;
        self.idle_procs -= topo.procs();
        Some(machine)
    }

    /// Count a cold machine built on `topo`.
    fn count_cold(&mut self, topo: Topology) {
        self.shapes.entry(topo).or_default().cold += 1;
        self.cold += 1;
    }

    /// Keep `machine` idle; returns the least recently checked-in
    /// machines that no longer fit under the cap, for the caller to drop
    /// after releasing the pool's lock.
    fn checkin(&mut self, topo: Topology, machine: Machine) -> Vec<Machine> {
        self.clock += 1;
        self.shapes.entry(topo).or_default().idle.push((self.clock, machine));
        self.idle_procs += topo.procs();
        let mut evicted = Vec::new();
        while self.idle_procs > self.cap {
            let (&topo, shape) = self
                .shapes
                .iter_mut()
                .filter(|(_, shape)| !shape.idle.is_empty())
                .min_by_key(|(_, shape)| shape.idle[0].0)
                .expect("idle processors belong to idle machines");
            evicted.push(shape.idle.remove(0).1);
            if shape.idle.is_empty() {
                self.shapes.remove(&topo);
            }
            self.idle_procs -= topo.procs();
        }
        self.evicted += evicted.len() as u64;
        evicted
    }
}

/// Per-machine-shape pool counters: how often requests for this shape
/// got a warm vs cold machine since the shape last entered the pool
/// (evicting its last idle machine takes it out), and how many idle
/// machines of the shape are pooled right now. `mesh` is the shape's
/// process grid; `topology` is the full canonical spec (distinct
/// topologies can share a grid, e.g. `mesh2d:4x4` and `hypercube:16`).
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct PoolShapeStats {
    pub mesh: (usize, usize),
    /// Canonical topology spec, e.g. `"mesh2d:2x2"`, `"hypercube:16"`.
    pub topology: String,
    pub warm: u64,
    pub cold: u64,
    pub idle: u64,
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct StatsSnapshot {
    pub requests: u64,
    pub ok: u64,
    pub errors: u64,
    pub compile_hits: u64,
    pub compile_misses: u64,
    /// Compile-cache misses whose shape was cached: the back end alone
    /// ran.
    pub shape_hits: u64,
    /// Compile-cache misses whose source lexed and whose shape was not
    /// cached: the front end ran, and may have failed.
    pub shape_misses: u64,
    pub machines_warm: u64,
    pub machines_cold: u64,
    pub machines_discarded: u64,
    /// Idle machines dropped to keep the pool within
    /// [`MAX_PROCESSORS`] idle processors.
    pub machines_evicted: u64,
    /// Runs that reused a parked run arena (mailboxes, scheduler state)
    /// instead of allocating — the per-run setup-floor reduction at
    /// work — over every run whose machine went back to the pool. A
    /// run's share is added when its machine is checked in, so the total
    /// never falls: checking a machine out or evicting it takes nothing
    /// away.
    pub setup_reuse_hits: u64,
    /// Helper workers recruited onto other host threads, over the same
    /// runs and as monotone — zero for as long as every request was
    /// driven by its request thread alone.
    pub helper_joins: u64,
    /// Helper threads alive in the process, idle or helping a run
    /// ([`skil_runtime::helper_threads`]). Process-wide: no pooled
    /// machine owns one.
    pub helper_threads: u64,
    /// Coroutine stacks kept idle for the next runs
    /// ([`skil_runtime::stacks_idle`]). Process-wide: no pooled machine
    /// owns one.
    pub stacks_idle: u64,
    /// Compiled programs the cache holds now.
    pub cache_programs: u64,
    /// Front ends the cache holds now, one per shape.
    pub cache_shapes: u64,
    /// Heap bytes the cache holds now: every program's
    /// [`Compiled::heap_bytes`] plus the `Compiled` itself, each
    /// distinct source text once (it is the key), and every shape's
    /// [`FoProgram::heap_bytes`] plus the `FoProgram` itself and its key.
    pub cache_bytes: u64,
    /// Programs the cache evicted to stay within its budget.
    pub cache_evictions: u64,
    /// Front ends the cache evicted to stay within its budget.
    pub shape_evictions: u64,
    /// The cache's budget, [`CACHE_BUDGET_BYTES`].
    pub cache_budget_bytes: u64,
    /// Pool counters per mesh shape, sorted by shape.
    pub pool: Vec<PoolShapeStats>,
}

impl StatsSnapshot {
    /// Fraction of compile lookups served from the cache (1.0 when
    /// there were none).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.compile_hits + self.compile_misses;
        if total == 0 {
            1.0
        } else {
            self.compile_hits as f64 / total as f64
        }
    }

    fn write_json(&self, out: &mut String) {
        let mut o = ObjWriter::begin(out);
        o.bool("ok", true);
        let mut st = ObjWriter::begin(o.value("stats"));
        st.num("cache_budget_bytes", self.cache_budget_bytes as f64);
        st.num("cache_bytes", self.cache_bytes as f64);
        st.num("cache_evictions", self.cache_evictions as f64);
        st.num("cache_hit_rate", self.cache_hit_rate());
        st.num("cache_programs", self.cache_programs as f64);
        st.num("cache_shapes", self.cache_shapes as f64);
        st.num("compile_hits", self.compile_hits as f64);
        st.num("compile_misses", self.compile_misses as f64);
        st.num("errors", self.errors as f64);
        st.num("helper_joins", self.helper_joins as f64);
        st.num("helper_threads", self.helper_threads as f64);
        st.num("machines_cold", self.machines_cold as f64);
        st.num("machines_discarded", self.machines_discarded as f64);
        st.num("machines_evicted", self.machines_evicted as f64);
        st.num("machines_warm", self.machines_warm as f64);
        st.num("ok", self.ok as f64);
        let pool = st.value("pool");
        pool.push('[');
        for (i, p) in self.pool.iter().enumerate() {
            if i > 0 {
                pool.push(',');
            }
            let mut po = ObjWriter::begin(pool);
            po.num("cold", p.cold as f64);
            po.num("idle", p.idle as f64);
            po.str("mesh", &format!("{}x{}", p.mesh.0, p.mesh.1));
            po.str("topology", &p.topology);
            po.num("warm", p.warm as f64);
            po.end();
        }
        pool.push(']');
        st.num("requests", self.requests as f64);
        st.num("setup_reuse_hits", self.setup_reuse_hits as f64);
        st.num("shape_evictions", self.shape_evictions as f64);
        st.num("shape_hits", self.shape_hits as f64);
        st.num("shape_misses", self.shape_misses as f64);
        st.num("stacks_idle", self.stacks_idle as f64);
        st.end();
        o.end();
    }
}

/// The serving core: program cache + machine pool + counters. Shared
/// by reference across request threads ([`Server::serve`] hands machines
/// from one to another); all interior state is synchronized.
pub struct Server {
    programs: Mutex<ProgramCache>,
    pool: Mutex<MachinePool>,
    counters: Counters,
}

impl Default for Server {
    fn default() -> Self {
        Self::new()
    }
}

/// Why a `lock()` on server state can fail: requests run under
/// `catch_unwind`, so only a bug outside that guard gets here.
const POISONED: &str = "a thread panicked holding this lock";

impl Server {
    /// An empty server: no cached programs, no warm machines.
    pub fn new() -> Server {
        Server {
            programs: Mutex::new(ProgramCache::new(CACHE_BUDGET_BYTES)),
            pool: Mutex::new(MachinePool::new(MAX_PROCESSORS)),
            counters: Counters::default(),
        }
    }

    /// The daemon's front door: answer every line of `input` (`skild`'s
    /// stdin) with one line on `output` (its stdout), until end of input
    /// (`Ok`) or the first failing read or write (`Err`, named
    /// `stdin error` / `stdout error`). The `threads` workers are leader
    /// and followers: whoever holds the input lock reads one line, hands
    /// the lock on and answers the line itself — a request is woken by
    /// the client's write and crosses no queue — with one `write_all` per
    /// reply. Nothing is read ahead of the workers: with `output` stalled
    /// at most `threads` lines and one read buffer are held, whatever
    /// `input` has queued. Replies are unordered under `threads > 1`;
    /// whitespace-only lines get none.
    pub fn serve<R, W>(&self, input: R, output: W, threads: usize) -> io::Result<()>
    where
        R: Read + Send,
        W: Write + Send,
    {
        let input = Mutex::new(BufReader::new(input));
        let output = Mutex::new(output);
        // Set at end of input and by the first I/O failure: whoever
        // takes the input lock next stops instead of reading.
        let stop = AtomicBool::new(false);
        let fail = |what: &str, e: io::Error| {
            stop.store(true, Ordering::SeqCst);
            io::Error::new(e.kind(), format!("{what}: {e}"))
        };
        let worker = || -> io::Result<()> {
            let mut line = Vec::new();
            loop {
                line.clear();
                {
                    let mut input = input.lock().expect(POISONED);
                    if stop.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    if input.read_until(b'\n', &mut line).map_err(|e| fail("stdin error", e))? == 0
                    {
                        stop.store(true, Ordering::SeqCst);
                        return Ok(());
                    }
                }
                if line.iter().all(u8::is_ascii_whitespace) {
                    continue;
                }
                let mut response = self.handle_bytes(line.strip_suffix(b"\n").unwrap_or(&line));
                response.push('\n');
                let mut output = output.lock().expect(POISONED);
                let written = output.write_all(response.as_bytes()).and_then(|()| output.flush());
                written.map_err(|e| fail("stdout error", e))?;
            }
        };
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
            // Every worker is joined and the first failure is the daemon's;
            // a panic (`handle_bytes` has none) is one, not an unwind.
            let mut served = Ok(());
            for w in workers {
                let result = w.join().unwrap_or_else(|_| Err(io::Error::other("worker panicked")));
                served = served.and(result);
            }
            served
        })
    }

    /// Handle one raw request line as it came off the wire. A line that
    /// is not UTF-8 is a bad request like any other malformed line: it
    /// gets its one structured response and the daemon reads on.
    pub fn handle_bytes(&self, line: &[u8]) -> String {
        match std::str::from_utf8(line) {
            Ok(line) => self.handle_line(line),
            Err(e) => self.bad_request(None, format!("request line is not UTF-8: {e}")),
        }
    }

    /// Handle one raw JSONL request line, returning one response line
    /// (without the newline). Never panics: anything wrong with the
    /// line, the program, or the run becomes a structured error
    /// response.
    pub fn handle_line(&self, line: &str) -> String {
        let parsed = match json::parse(line) {
            Ok(v) => v,
            Err(e) => return self.bad_request(None, format!("bad JSON: {e}")),
        };
        if parsed.get("cmd").and_then(Json::as_str) == Some("stats") {
            return Response::Stats(self.stats()).to_json_line();
        }
        let id = parsed.get("id").and_then(Json::as_str).map(str::to_string);
        match Request::from_json(&parsed) {
            Ok(request) => self.handle(request).to_json_line(),
            Err(message) => self.bad_request(id, message),
        }
    }

    /// Count and render the reply to a line that never became a request.
    fn bad_request(&self, id: Option<String>, message: String) -> String {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        Response::Err { id, kind: ErrorKind::BadRequest, message }.to_json_line()
    }

    /// Handle one parsed request.
    pub fn handle(&self, req: Request) -> Response {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let resp = self.run_request(&req);
        match &resp {
            Response::Ok { .. } => self.counters.ok.fetch_add(1, Ordering::Relaxed),
            _ => self.counters.errors.fetch_add(1, Ordering::Relaxed),
        };
        resp
    }

    fn run_request(&self, req: &Request) -> Response {
        let id = req.id.clone();
        let topo = req.effective_topology();
        // Front end and engine run under one guard, so whatever panics
        // the request still gets its response line. The machine sits
        // outside the guard so that a panic can find and discard it.
        let mut machine = None;
        let mut tally = RunTally::default();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (compiled, cache_hit) =
                self.compile_cached(req).map_err(|message| (ErrorKind::Compile, message))?;
            let (cold_or_warm, warm_machine) =
                self.checkout_machine(topo).map_err(|message| (ErrorKind::BadRequest, message))?;
            let machine = machine.insert(cold_or_warm);
            tally = RunTally::of(machine);
            let run = compiled
                .try_run_faults(req.engine, machine, req.faults.as_ref())
                .map_err(|failure| (ErrorKind::Runtime, failure.to_string()))?;
            Ok((run, cache_hit, warm_machine))
        }));
        match outcome {
            // A structured failure (Err) leaves the machine clean —
            // mailbox and stats state is rebuilt per run — so it goes
            // back to the pool either way. Only a genuine panic
            // unwinding out of the engine discards it.
            Ok(result) => {
                if let Some(machine) = machine {
                    self.checkin_machine(topo, machine, tally);
                }
                match result {
                    Ok((run, cache_hit, warm_machine)) => {
                        Response::Ok { id, run, cache_hit, warm_machine }
                    }
                    Err((kind, message)) => Response::Err { id, kind, message },
                }
            }
            Err(payload) => {
                // the machine, if one was taken, is dropped, not re-pooled
                let stage = if machine.is_some() {
                    self.counters.machines_discarded.fetch_add(1, Ordering::Relaxed);
                    "engine"
                } else {
                    // nothing was cached and no machine was taken
                    "front end"
                };
                let what = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&'static str>().copied())
                    .unwrap_or("non-string panic payload");
                Response::Err {
                    id,
                    kind: ErrorKind::Internal,
                    message: format!("{stage} panicked: {what}"),
                }
            }
        }
    }

    /// Look the program up in the cache, compiling on a miss.
    fn compile_cached(&self, req: &Request) -> Result<(Arc<Compiled>, bool), String> {
        if let Some(hit) = self.programs.lock().unwrap().get(&req.program, req.opt_level) {
            self.counters.compile_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(hit), true));
        }
        // Compile outside the lock: a slow compile must not stall
        // cache hits on other threads. Two threads may race to compile
        // the same program; the first insert stays and both run it, so
        // whatever one `Compiled` memoizes (the prepared native module)
        // is what every later request sees.
        let compiled = Arc::new(self.compile(&req.program, req.opt_level)?);
        self.counters.compile_misses.fetch_add(1, Ordering::Relaxed);
        let (kept, evicted) =
            self.programs.lock().unwrap().insert(&req.program, req.opt_level, compiled);
        // Freeing the evicted programs (a request still running one
        // holds its own `Arc`) is done with the lock released.
        drop(evicted);
        Ok((kept, false))
    }

    /// What `compile_opt` computes, with the front end of a cached
    /// source of the same shape when there is one: its program takes
    /// this source's literal table and goes through the back end. The
    /// front end reads no literal's value, so a shape is cached only
    /// after a front end of it succeeded, and every diagnostic comes
    /// from this source's own lexer or front end.
    fn compile(&self, src: &str, level: OptLevel) -> Result<Compiled, String> {
        let lexed = Lexed::new(src).map_err(|e| e.to_string())?;
        let shape = lexed.shape(src);
        let cached = self.programs.lock().expect(POISONED).get_shape(&shape);
        let fo = match cached {
            Some(template) => {
                self.counters.shape_hits.fetch_add(1, Ordering::Relaxed);
                FoProgram { lits: lexed.lits, ..FoProgram::clone(&template) }
            }
            None => {
                self.counters.shape_misses.fetch_add(1, Ordering::Relaxed);
                let fo = front_end(lexed).map_err(|e| e.to_string())?;
                let evicted =
                    self.programs.lock().expect(POISONED).insert_shape(shape, Arc::new(fo.clone()));
                drop(evicted);
                fo
            }
        };
        Ok(Compiled::from_front_end(fo, level))
    }

    /// Take a warm machine on `topo` from the pool, or build a cold
    /// one. The returned bool is `true` for warm.
    fn checkout_machine(&self, topo: Topology) -> Result<(Machine, bool), String> {
        let procs = processors(topo);
        if procs > MAX_PROCESSORS as u128 {
            return Err(format!(
                "{} has {procs} processors; a request may ask for at most {MAX_PROCESSORS}",
                topo.spec()
            ));
        }
        let mut pool = self.pool.lock().expect(POISONED);
        if let Some(m) = pool.take(topo) {
            return Ok((m, true));
        }
        let cfg = MachineConfig::on_topology(topo)
            .map_err(|e| format!("bad machine shape {}: {e}", topo.spec()))?;
        pool.count_cold(topo);
        drop(pool);
        Ok((Machine::new(cfg), false))
    }

    /// Return a machine to the pool for reuse, adding what its runs
    /// since `checkout` counted to the server's totals.
    fn checkin_machine(&self, topo: Topology, machine: Machine, checkout: RunTally) {
        let now = RunTally::of(&machine);
        let c = &self.counters;
        c.setup_reuse_hits
            .fetch_add(now.setup_reuse_hits - checkout.setup_reuse_hits, Ordering::Relaxed);
        c.helper_joins.fetch_add(now.helper_joins - checkout.helper_joins, Ordering::Relaxed);
        let evicted = self.pool.lock().expect(POISONED).checkin(topo, machine);
        // Machines are torn down with the lock released.
        drop(evicted);
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> StatsSnapshot {
        let c = &self.counters;
        let programs = self.programs.lock().expect(POISONED);
        let mut snapshot = StatsSnapshot {
            requests: c.requests.load(Ordering::Relaxed),
            ok: c.ok.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            compile_hits: c.compile_hits.load(Ordering::Relaxed),
            compile_misses: c.compile_misses.load(Ordering::Relaxed),
            shape_hits: c.shape_hits.load(Ordering::Relaxed),
            shape_misses: c.shape_misses.load(Ordering::Relaxed),
            machines_warm: 0,
            machines_cold: 0,
            machines_discarded: c.machines_discarded.load(Ordering::Relaxed),
            machines_evicted: 0,
            setup_reuse_hits: c.setup_reuse_hits.load(Ordering::Relaxed),
            helper_joins: c.helper_joins.load(Ordering::Relaxed),
            helper_threads: skil_runtime::helper_threads() as u64,
            stacks_idle: skil_runtime::stacks_idle() as u64,
            cache_programs: programs.programs as u64,
            cache_shapes: programs.shapes.len() as u64,
            cache_bytes: programs.bytes as u64,
            cache_evictions: programs.evictions,
            shape_evictions: programs.shape_evictions,
            cache_budget_bytes: programs.budget as u64,
            pool: Vec::new(),
        };
        drop(programs);
        let pool = self.pool.lock().expect(POISONED);
        snapshot.machines_evicted = pool.evicted;
        snapshot.machines_warm = pool.warm;
        snapshot.machines_cold = pool.cold;
        for (topo, shape) in &pool.shapes {
            let grid = topo.grid();
            snapshot.pool.push(PoolShapeStats {
                mesh: (grid.rows, grid.cols),
                topology: topo.spec(),
                warm: shape.warm,
                cold: shape.cold,
                idle: shape.idle.len() as u64,
            });
        }
        snapshot.pool.sort_by(|a, b| a.topology.cmp(&b.topology));
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::obj;
    use skil_lang::compile_opt;

    /// A response as a [`Json`] tree: the encoder `to_json_line` used to
    /// be, kept as its oracle. A `BTreeMap` orders the members.
    fn tree(resp: &Response) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        match resp {
            Response::Ok { id, run, cache_hit, warm_machine } => {
                let results = Json::Arr(
                    run.results
                        .iter()
                        .map(|lines| {
                            Json::Arr(lines.iter().map(|l| Json::Str(l.clone())).collect())
                        })
                        .collect(),
                );
                let procs = Json::Arr(
                    run.report
                        .procs
                        .iter()
                        .map(|p| {
                            let s = &p.stats;
                            obj(vec![
                                ("compute", num(s.compute)),
                                ("wait", num(s.wait)),
                                ("sends", num(s.sends)),
                                ("recvs", num(s.recvs)),
                                ("bytes_sent", num(s.bytes_sent)),
                                ("bytes_recvd", num(s.bytes_recvd)),
                                ("retries", num(s.retries)),
                                ("drops", num(s.drops)),
                                ("dups", num(s.dups)),
                                ("delays", num(s.delays)),
                            ])
                        })
                        .collect(),
                );
                let mut pairs = vec![("ok", Json::Bool(true))];
                if let Some(id) = id {
                    pairs.push(("id", Json::Str(id.clone())));
                }
                pairs.push(("results", results));
                pairs.push(("sim_cycles", num(run.report.sim_cycles)));
                pairs.push(("sim_seconds", Json::Num(run.report.sim_seconds)));
                pairs.push(("procs", procs));
                pairs.push(("cache", Json::Str(if *cache_hit { "hit" } else { "miss" }.into())));
                pairs.push((
                    "machine",
                    Json::Str(if *warm_machine { "warm" } else { "cold" }.into()),
                ));
                obj(pairs)
            }
            Response::Err { id, kind, message } => {
                let mut pairs = vec![("ok", Json::Bool(false))];
                if let Some(id) = id {
                    pairs.push(("id", Json::Str(id.clone())));
                }
                pairs.push((
                    "error",
                    obj(vec![
                        ("kind", Json::Str(kind.as_str().into())),
                        ("message", Json::Str(message.clone())),
                    ]),
                ));
                obj(pairs)
            }
            Response::Stats(s) => {
                let pool = Json::Arr(
                    s.pool
                        .iter()
                        .map(|p| {
                            obj(vec![
                                ("mesh", Json::Str(format!("{}x{}", p.mesh.0, p.mesh.1))),
                                ("topology", Json::Str(p.topology.clone())),
                                ("warm", num(p.warm)),
                                ("cold", num(p.cold)),
                                ("idle", num(p.idle)),
                            ])
                        })
                        .collect(),
                );
                obj(vec![
                    ("ok", Json::Bool(true)),
                    (
                        "stats",
                        obj(vec![
                            ("requests", num(s.requests)),
                            ("ok", num(s.ok)),
                            ("errors", num(s.errors)),
                            ("compile_hits", num(s.compile_hits)),
                            ("compile_misses", num(s.compile_misses)),
                            ("shape_hits", num(s.shape_hits)),
                            ("shape_misses", num(s.shape_misses)),
                            ("machines_warm", num(s.machines_warm)),
                            ("machines_cold", num(s.machines_cold)),
                            ("machines_discarded", num(s.machines_discarded)),
                            ("machines_evicted", num(s.machines_evicted)),
                            ("setup_reuse_hits", num(s.setup_reuse_hits)),
                            ("helper_joins", num(s.helper_joins)),
                            ("helper_threads", num(s.helper_threads)),
                            ("stacks_idle", num(s.stacks_idle)),
                            ("cache_programs", num(s.cache_programs)),
                            ("cache_shapes", num(s.cache_shapes)),
                            ("cache_bytes", num(s.cache_bytes)),
                            ("cache_evictions", num(s.cache_evictions)),
                            ("shape_evictions", num(s.shape_evictions)),
                            ("cache_budget_bytes", num(s.cache_budget_bytes)),
                            ("cache_hit_rate", Json::Num(s.cache_hit_rate())),
                            ("pool", pool),
                        ]),
                    ),
                ])
            }
        }
    }

    #[test]
    fn the_direct_encoder_prints_what_the_tree_prints() {
        let server = Server::new();
        let mut responses = Vec::new();
        // ok: with and without an id, cold and warm, miss and hit, one
        // and sixteen processors, output that needs escaping
        let quoted = "void main() { if (procId == 0) { print(1.5); print(0 - 7); } }";
        for (id, mesh, program) in [
            (None, (2, 2), FOLD),
            (Some("r-1"), (2, 2), FOLD),
            (Some("tab\there \"quoted\" back\\slash \u{1} \u{e9}\u{1f600}"), (4, 4), quoted),
            (Some(""), (1, 1), HELLO),
        ] {
            let req = Request { id: id.map(str::to_string), mesh, ..Request::program(program) };
            let resp = server.handle(req);
            assert!(matches!(resp, Response::Ok { .. }));
            responses.push(resp);
        }
        // errors of every kind
        responses.push(server.handle(Request::program("void main() { int x = 1.5; }")));
        responses.push(server.handle(Request {
            id: Some("line\nbreak".into()),
            ..Request::program("void main() { int z = procId - procId; print(1 / z); }")
        }));
        responses.push(Response::Err {
            id: None,
            kind: ErrorKind::BadRequest,
            message: "bad JSON: unexpected '\u{7}' at byte 0".into(),
        });
        responses.push(Response::Err {
            id: Some("x".into()),
            kind: ErrorKind::Internal,
            message: "engine panicked: \"quoted\"".into(),
        });
        // stats: empty and populated
        responses.push(Response::Stats(Server::new().stats()));
        responses.push(Response::Stats(server.stats()));
        // numbers at the edge of the integer rendering
        let mut big = server.stats();
        big.requests = 9_000_000_000_000_000;
        big.cache_bytes = u64::MAX;
        responses.push(Response::Stats(big));

        for resp in &responses {
            let line = resp.to_json_line();
            assert_eq!(line, tree(resp).to_string());
            assert_eq!(json::parse(&line).expect("valid JSON"), tree(resp), "{line}");
        }
    }

    #[test]
    fn the_cache_is_keyed_by_source_text_not_by_a_digest_of_it() {
        // Two sources that differ in one byte are two entries, each
        // served its own program; so are two opt levels of one source,
        // which share the one copy of its text.
        let a = "void main() { if (procId == 0) { print(1); } }";
        let b = "void main() { if (procId == 0) { print(2); } }";
        let (o0, o2) = (OptLevel::O0, OptLevel::O2);
        let mut cache = ProgramCache::new(CACHE_BUDGET_BYTES);
        assert!(cache.get(a, o2).is_none());
        let (ca, _) = cache.insert(a, o2, compiled(a, o2));
        let added_a = cache.bytes;
        let (cb, _) = cache.insert(b, o2, compiled(b, o2));
        let added_b = cache.bytes - added_a;
        assert!(Arc::ptr_eq(cache.get(a, o2).unwrap(), &ca));
        assert!(Arc::ptr_eq(cache.get(b, o2).unwrap(), &cb));
        assert!(!Arc::ptr_eq(&ca, &cb));
        assert!(cache.get(a, o0).is_none());
        // the text is paid for once per source ...
        assert_eq!(added_a, ProgramCache::entry_bytes(&ca) + a.len());
        assert_eq!(added_b, added_a);
        let before = cache.bytes;
        let (a0, _) = cache.insert(a, o0, compiled(a, o0));
        assert_eq!(cache.bytes - before, ProgramCache::entry_bytes(&a0));
        assert_eq!(cache.by_source.len(), 2);
        // ... and a second compile of a cached key is dropped, not kept
        let before = (cache.programs, cache.bytes);
        let (again, _) = cache.insert(a, o2, compiled(a, o2));
        assert!(Arc::ptr_eq(&again, &ca));
        assert_eq!((cache.programs, cache.bytes), before);

        // end to end: each source prints its own constant, hit or miss
        let server = Server::new();
        for (src, want) in [(a, "1"), (b, "2"), (a, "1"), (b, "2")] {
            let Response::Ok { run, .. } = server.handle(Request::program(src)) else {
                panic!("{src} failed");
            };
            assert_eq!(run.results[0], vec![want.to_string()]);
        }
        assert_eq!((server.stats().compile_misses, server.stats().compile_hits), (2, 2));
    }

    #[test]
    fn stats_report_the_size_of_the_cache() {
        let server = Server::new();
        assert_eq!((server.stats().cache_programs, server.stats().cache_bytes), (0, 0));
        server.handle(Request::program(HELLO));
        server.handle(Request::program(HELLO));
        let one = server.stats();
        assert_eq!(one.cache_programs, 1);
        assert_eq!(one.cache_shapes, 1);
        let hello = compile_opt(HELLO, OptLevel::default()).unwrap();
        let per_program = (hello.heap_bytes() + std::mem::size_of::<Compiled>()) as u64;
        let per_shape = shape_cost(HELLO) as u64;
        assert_eq!(one.cache_bytes, per_program + HELLO.len() as u64 + per_shape);
        // a compile error caches nothing, not even its shape
        server.handle(Request::program("void main() { int x = 1.5; }"));
        assert_eq!(server.stats().cache_bytes, one.cache_bytes);
        assert_eq!(server.stats().cache_shapes, 1);
        server.handle(Request { opt_level: OptLevel::O0, ..Request::program(HELLO) });
        server.handle(Request::program(FOLD));
        let three = server.stats();
        assert_eq!((three.cache_programs, three.cache_shapes), (3, 2));
        let fold = (shape_cost(FOLD) + FOLD.len()) as u64;
        assert!(three.cache_bytes > one.cache_bytes + per_program + fold);
        let line = server.handle_line(r#"{"cmd":"stats"}"#);
        let v = json::parse(&line).unwrap();
        let stats = v.get("stats").expect("stats object");
        assert_eq!(stats.get("cache_programs").and_then(Json::as_u64), Some(3));
        assert_eq!(stats.get("cache_bytes").and_then(Json::as_u64), Some(three.cache_bytes));
        assert_eq!(stats.get("cache_evictions").and_then(Json::as_u64), Some(0));
        let budget = stats.get("cache_budget_bytes").and_then(Json::as_u64);
        assert_eq!(budget, Some(CACHE_BUDGET_BYTES as u64));
        assert_eq!(stats.get("cache_shapes").and_then(Json::as_u64), Some(2));
        assert_eq!(stats.get("shape_evictions").and_then(Json::as_u64), Some(0));
        // HELLO's -O0 variant reused its shape; the type error ran a
        // front end of its own
        assert_eq!(stats.get("shape_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("shape_misses").and_then(Json::as_u64), Some(3));
    }

    /// What the front end of `src` costs the cache.
    fn shape_cost(src: &str) -> usize {
        let lexed = Lexed::new(src).unwrap();
        let shape = lexed.shape(src);
        ProgramCache::shape_bytes(&shape, &front_end(lexed).unwrap())
    }

    /// Distinct programs of one size: `k` stays four digits.
    fn numbered(k: usize) -> String {
        assert!((1000..10_000).contains(&k));
        format!("void main() {{ if (procId == 0) {{ print({k}); }} }}")
    }

    fn compiled(src: &str, level: OptLevel) -> Arc<Compiled> {
        Arc::new(compile_opt(src, level).expect("compiles"))
    }

    /// What `numbered` costs the cache: the program and its text.
    fn numbered_bytes() -> usize {
        cost(&numbered(1000))
    }

    /// `(programs, bytes)` counted afresh from the live entries with the
    /// `cache_bytes` formula.
    fn recount(cache: &ProgramCache) -> (usize, usize) {
        let programs = cache.by_source.values().map(Vec::len).sum();
        let variants = cache.by_source.iter().flat_map(|(src, variants)| {
            let text = src.len();
            variants.iter().map(|e| ProgramCache::entry_bytes(&e.compiled)).chain([text])
        });
        let shapes = cache.shapes.iter().map(|(shape, s)| ProgramCache::shape_bytes(shape, &s.fo));
        (programs, variants.chain(shapes).sum())
    }

    /// Whether the cache holds `(src, level)`, without using it.
    fn holds(cache: &ProgramCache, src: &str, level: OptLevel) -> bool {
        cache.by_source.get(src).is_some_and(|vs| vs.iter().any(|e| e.level == level))
    }

    /// What `src` costs the cache at -O2.
    fn cost(src: &str) -> usize {
        ProgramCache::entry_bytes(&compiled(src, OptLevel::O2)) + src.len()
    }

    /// A server whose cache holds at most `budget` bytes.
    fn server_with_budget(budget: usize) -> Server {
        Server { programs: Mutex::new(ProgramCache::new(budget)), ..Server::new() }
    }

    #[test]
    fn a_hit_makes_a_program_the_most_recently_used() {
        // Room for four and a half; an eviction goes down to three.
        let mut cache = ProgramCache::new(numbered_bytes() * 9 / 2);
        let src: Vec<String> = (1000..1005).map(numbered).collect();
        for s in &src[..4] {
            assert!(cache.insert(s, OptLevel::O2, compiled(s, OptLevel::O2)).1.programs.is_empty());
        }
        assert!(cache.get(&src[0], OptLevel::O2).is_some());
        let (_, evicted) = cache.insert(&src[4], OptLevel::O2, compiled(&src[4], OptLevel::O2));
        assert_eq!((evicted.programs.len(), cache.evictions), (2, 2));
        let live: Vec<bool> = src.iter().map(|s| cache.get(s, OptLevel::O2).is_some()).collect();
        assert_eq!(live, [true, false, false, true, true]);
    }

    #[test]
    fn after_every_insert_the_cache_is_within_budget_and_counts_itself_exactly() {
        let budget = numbered_bytes() * 6;
        let mut cache = ProgramCache::new(budget);
        let mut inserted = 0;
        for k in 1001..1061 {
            let s = numbered(k);
            // every third source at both levels, every fifth hit again
            let levels: &[OptLevel] =
                if k % 3 == 0 { &[OptLevel::O2, OptLevel::O0] } else { &[OptLevel::O2] };
            for &level in levels {
                cache.insert(&s, level, compiled(&s, level));
                inserted += 1;
                assert!(cache.bytes <= budget, "{} > {budget} after {k}", cache.bytes);
                assert_eq!(recount(&cache), (cache.programs, cache.bytes), "after {k}");
                assert_eq!(cache.evictions as usize, inserted - cache.programs);
            }
            if k % 5 == 0 {
                assert!(cache.get(&numbered(k - 1), OptLevel::O2).is_some(), "{k}");
            }
        }
        assert!(cache.evictions > 0);
    }

    #[test]
    fn a_program_over_the_budget_runs_and_is_not_kept() {
        // room for HELLO's front end, not for its compiled program
        let server = server_with_budget(numbered_bytes() - 1);
        for _ in 0..2 {
            let Response::Ok { run, cache_hit, .. } = server.handle(Request::program(HELLO)) else {
                panic!("an uncacheable program still runs");
            };
            assert_eq!(run.results[0], vec!["7".to_string()]);
            assert!(!cache_hit);
        }
        let stats = server.stats();
        assert_eq!((stats.compile_misses, stats.cache_programs), (2, 0));
        assert_eq!((stats.shape_misses, stats.shape_hits, stats.cache_shapes), (1, 1, 1));
        assert_eq!(stats.cache_bytes as usize, shape_cost(HELLO));
        assert_eq!((stats.cache_evictions, stats.shape_evictions), (0, 0));
        // and with no room for either, nothing is kept
        let server = server_with_budget(shape_cost(HELLO) - 1);
        for _ in 0..2 {
            assert!(matches!(server.handle(Request::program(HELLO)), Response::Ok { .. }));
        }
        let stats = server.stats();
        assert_eq!((stats.shape_misses, stats.cache_shapes, stats.cache_bytes), (2, 0, 0));
    }

    #[test]
    fn two_variants_of_one_source_evict_apart_and_the_text_goes_with_the_last() {
        let mut cache = ProgramCache::new(numbered_bytes() * 4);
        let o0 = OptLevel::O0;
        let shared = numbered(9999);
        cache.insert(&shared, OptLevel::O2, compiled(&shared, OptLevel::O2));
        cache.insert(&shared, o0, compiled(&shared, OptLevel::O0));
        // keep the -O0 variant in use while other sources come and go
        let mut k = 1000;
        while holds(&cache, &shared, OptLevel::O2) {
            assert!(cache.get(&shared, o0).is_some());
            let s = numbered(k);
            cache.insert(&s, OptLevel::O2, compiled(&s, OptLevel::O2));
            k += 1;
        }
        assert!(holds(&cache, &shared, o0), "the -O0 variant was used, the -O2 one not");
        assert_eq!(cache.by_source[shared.as_str()].len(), 1);
        assert_eq!(recount(&cache), (cache.programs, cache.bytes));
        // ... and once the -O0 variant goes too, so does the text
        while cache.by_source.contains_key(shared.as_str()) {
            let s = numbered(k);
            cache.insert(&s, OptLevel::O2, compiled(&s, OptLevel::O2));
            k += 1;
        }
        assert_eq!(recount(&cache), (cache.programs, cache.bytes));
    }

    #[test]
    fn racing_first_inserts_next_to_an_eviction_all_run_the_kept_program() {
        // The cache is too full to take FOLD, so its first insert evicts;
        // the racing ones find it kept and are handed it.
        let budget = cost(FOLD) + numbered_bytes() * 4;
        let server = server_with_budget(budget);
        let mut k = 1000;
        while server.stats().cache_bytes as usize + cost(FOLD) <= budget {
            server.handle(Request::program(&numbered(k)));
            k += 1;
        }
        let evictions = server.stats().cache_evictions;
        let req = Request::program(FOLD);
        let start = std::sync::Barrier::new(4);
        let got: Vec<Arc<Compiled>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        server.compile_cached(&req).expect("compiles").0
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("compile thread")).collect()
        });
        let (cached, hit) = server.compile_cached(&req).expect("cached");
        assert!(hit);
        assert!(got.iter().all(|c| Arc::ptr_eq(c, &cached)), "a racer got a discarded program");
        let stats = server.stats();
        assert!(stats.cache_evictions > evictions);
        assert!(stats.cache_bytes <= stats.cache_budget_bytes);
        let cache = server.programs.lock().unwrap();
        assert_eq!(recount(&cache), (cache.programs, cache.bytes));
    }

    #[test]
    fn an_evicted_program_still_running_elsewhere_completes_unchanged() {
        let src = include_str!("../../../examples/skil/shortest_paths.skil");
        let server = server_with_budget(cost(src) + numbered_bytes() * 4);
        let req = Request::program(src);
        let (in_use, hit) = server.compile_cached(&req).expect("compiles");
        assert!(!hit);
        let run = |compiled: &Compiled| {
            let machine = Machine::new(MachineConfig::square(2).unwrap());
            compiled.try_run_with(Engine::Vm, &machine).expect("runs").report.sim_cycles
        };
        let cycles = std::thread::scope(|s| {
            // one request runs it while later ones push it out
            let running = s.spawn(|| (0..3).map(|_| run(&in_use)).collect::<Vec<_>>());
            let mut k = 1000;
            while holds(&server.programs.lock().unwrap(), src, OptLevel::O2) {
                server.handle(Request::program(&numbered(k)));
                k += 1;
            }
            running.join().expect("the run")
        });
        assert_eq!(cycles, [2_397_316; 3]);
        // the cache let go of it: the request's `Arc` is the last one
        assert_eq!(Arc::strong_count(&in_use), 1);
        assert_eq!(run(&in_use), 2_397_316);
        let Response::Ok { run, cache_hit: false, .. } = server.handle(req) else {
            panic!("an evicted program is compiled again");
        };
        assert_eq!(run.report.sim_cycles, 2_397_316);
    }

    /// A pool key for a `rows x cols` mesh.
    fn mesh_key(rows: usize, cols: usize) -> Topology {
        Topology::Mesh2d(Mesh { rows, cols })
    }

    fn machine_for(topo: Topology) -> Machine {
        Machine::new(MachineConfig::on_topology(topo).unwrap())
    }

    #[test]
    fn the_idle_pool_drops_the_least_recently_checked_in_machines_past_its_cap() {
        let mut pool = MachinePool::new(8);
        let [m2x2, m1x3, m1x1, m1x2] =
            [(2, 2), (1, 3), (1, 1), (1, 2)].map(|(r, c)| mesh_key(r, c));
        let idle = |pool: &MachinePool, key| pool.shapes.get(&key).map_or(0, |s| s.idle.len());
        for key in [m2x2, m1x3, m1x1] {
            assert!(pool.checkin(key, machine_for(key)).is_empty());
        }
        assert_eq!(pool.idle_procs, 8);
        // 10 processors: the 2x2, checked in first, goes
        assert_eq!(pool.checkin(m1x2, machine_for(m1x2)).len(), 1);
        assert_eq!((idle(&pool, m2x2), pool.idle_procs, pool.evicted), (0, 6, 1));
        // a checkout and a check-in make the 1x3 the most recent ...
        let warm = pool.take(m1x3).expect("an idle 1x3");
        assert!(pool.checkin(m1x3, warm).is_empty());
        // ... so a 2x2 pushes out the 1x1 and then the 1x2, not the 1x3
        assert_eq!(pool.checkin(m2x2, machine_for(m2x2)).len(), 2);
        let left: Vec<usize> = [m2x2, m1x3, m1x1, m1x2].map(|k| idle(&pool, k)).to_vec();
        assert_eq!(left, [1, 1, 0, 0]);
        assert_eq!((pool.idle_procs, pool.evicted), (7, 3));
        // a machine larger than the cap is not kept at all
        let mut small = MachinePool::new(3);
        assert_eq!(small.checkin(m2x2, machine_for(m2x2)).len(), 1);
        assert_eq!(small.idle_procs, 0);

        // through the server: warm reuse goes on under the cap
        let server = Server { pool: Mutex::new(MachinePool::new(8)), ..Server::new() };
        for mesh in [(2, 2), (1, 3), (1, 3), (1, 2), (1, 3), (2, 2)] {
            let req = Request { mesh, ..Request::program(HELLO) };
            assert!(matches!(server.handle(req), Response::Ok { .. }), "{mesh:?}");
        }
        let stats = server.stats();
        // the 1x2 pushed the 2x2 out, which came back cold and pushed the
        // 1x2 out; the 1x3 was in use throughout and stayed warm
        assert_eq!((stats.machines_evicted, stats.machines_warm, stats.machines_cold), (2, 2, 4));
        assert!(stats.pool.iter().map(|p| p.idle * (p.mesh.0 * p.mesh.1) as u64).sum::<u64>() <= 8);
    }

    #[test]
    fn evicting_a_pooled_machine_never_lowers_the_run_totals() {
        // room for one 2x2, so every other shape pushes the idle one out;
        // a 2x2 that runs on two workers recruits one helper per run
        let server = Server { pool: Mutex::new(MachinePool::new(4)), ..Server::new() };
        let key = mesh_key(2, 2);
        let eager = Machine::new(MachineConfig::on_topology(key).unwrap().with_workers(2));
        eager.run(|_| ());
        eager.run(|_| ());
        server.checkin_machine(key, eager, RunTally::default());
        let totals = |s: StatsSnapshot| (s.setup_reuse_hits, s.helper_joins);
        assert_eq!(totals(server.stats()), (1, 2));
        let mut last = (1, 2);
        for mesh in [(2, 2), (2, 2), (1, 3), (2, 2), (1, 2), (2, 2), (2, 2)] {
            let req = Request { mesh, ..Request::program(HELLO) };
            assert!(matches!(server.handle(req), Response::Ok { .. }), "{mesh:?}");
            let now = totals(server.stats());
            assert!(now.0 >= last.0 && now.1 >= last.1, "{mesh:?}: {last:?} -> {now:?}");
            last = now;
        }
        // the eager machine's two warm requests are in, and it is gone
        assert!(last.0 >= 3 && last.1 >= 4, "{last:?}");
        assert!(server.stats().machines_evicted >= 3);
    }

    #[test]
    fn endlessly_many_shapes_leave_a_bounded_pool_and_exact_totals() {
        // every slow factor is another shape, so a sweep over them is an
        // unbounded set; the pool keeps 64 idle processors, 16 2x2s
        let server = Server { pool: Mutex::new(MachinePool::new(64)), ..Server::new() };
        let requests = 10_000;
        for factor in 1..=requests {
            let spec = format!("hetero:mesh2d:2x2:slowlinks=col1*{factor}");
            let req = Request {
                topology: Some(Topology::parse(&spec).unwrap()),
                ..Request::program(HELLO)
            };
            assert!(matches!(server.handle(req), Response::Ok { .. }), "{spec}");
        }
        let stats = server.stats();
        assert!(server.pool.lock().unwrap().shapes.len() <= 16);
        assert!(stats.pool.len() <= 16, "{}", stats.pool.len());
        assert_eq!((stats.machines_cold, stats.machines_warm), (requests, 0));
        assert_eq!(stats.machines_evicted, requests - 16);
        // a shape still pooled is served warm, and counted so
        let last = format!("hetero:mesh2d:2x2:slowlinks=col1*{requests}");
        let again =
            Request { topology: Some(Topology::parse(&last).unwrap()), ..Request::program(HELLO) };
        assert!(matches!(server.handle(again), Response::Ok { warm_machine: true, .. }));
        assert_eq!(server.stats().machines_warm, 1);
    }

    #[test]
    fn a_request_for_more_than_the_processor_cap_is_a_bad_request() {
        let server = Server::new();
        for (field, spec, count) in [
            ("mesh", "65x64", "4160"),
            ("mesh", "1000x1000", "1000000"),
            ("mesh", "99999999999x99999999999", "9999999999800000000001"),
            ("topology", "hypercube:8192", "8192"),
            ("topology", "fattree:2,65", "4225"),
        ] {
            let line = format!(r#"{{"program":"void main() {{}}","{field}":"{spec}"}}"#);
            let reply = server.handle_line(&line);
            assert!(reply.contains(r#""kind":"bad_request""#), "{spec}: {reply}");
            assert!(reply.contains(&format!("has {count} processors")), "{spec}: {reply}");
        }
        let stats = server.stats();
        assert_eq!((stats.errors, stats.machines_cold), (5, 0));
    }

    const HELLO: &str = "void main() { if (procId == 0) { print(procId + 7); } }";

    /// A communicating program: distributed array fold, result 120.
    const FOLD: &str = "int initf(Index ix) { return ix[0] + ix[1]; } \
                        int conv(int v, Index ix) { return v; } \
                        void main() { \
                          array<int> a = array_create(1, {16,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT); \
                          int total = array_fold(conv, (+), a); \
                          if (procId == 0) { print(total); } \
                        }";

    /// A program that prints `lit` on processor 0.
    fn printing(lit: &str) -> String {
        format!("void main() {{ if (procId == 0) {{ print({lit}); }} }}")
    }

    #[test]
    fn sources_that_differ_in_literal_values_alone_share_one_front_end() {
        let server = Server::new();
        // (literal, printed, shape hit)
        for (lit, printed, shape_hit) in [
            ("12", "12", false),
            ("34", "34", true),
            // a float of the same length is another shape ...
            ("1.5", "1.5", false),
            ("2.5", "2.5", true),
            ("1e3", "1000", true),
            // ... and so is an int of another length
            ("345", "345", false),
            ("1234", "1234", false),
        ] {
            let hits = server.stats().shape_hits;
            let Response::Ok { run, cache_hit, .. } =
                server.handle(Request::program(&printing(lit)))
            else {
                panic!("{lit} failed");
            };
            assert_eq!(run.results[0], vec![printed.to_string()], "{lit}");
            assert!(!cache_hit, "the response reports the compile cache: {lit}");
            assert_eq!(server.stats().shape_hits - hits, shape_hit as u64, "{lit}");
        }
        let stats = server.stats();
        assert_eq!((stats.shape_misses, stats.cache_shapes, stats.cache_programs), (4, 4, 7));
        // both opt levels and both engines share a shape
        for (engine, opt_level) in [(Engine::Vm, OptLevel::O0), (Engine::Native, OptLevel::O2)] {
            let req = Request { engine, opt_level, ..Request::program(&printing("56")) };
            let Response::Ok { run, .. } = server.handle(req) else { panic!("{engine:?}") };
            assert_eq!(run.results[0], vec!["56".to_string()]);
        }
        assert_eq!((server.stats().shape_hits, server.stats().shape_misses), (5, 4));
    }

    #[test]
    fn a_variant_of_a_cached_shape_fails_exactly_as_compile_opt_fails_it() {
        let server = Server::new();
        let compile_error = |src: &str| {
            let Response::Err { kind: ErrorKind::Compile, message, .. } =
                server.handle(Request::program(src))
            else {
                panic!("{src} compiled");
            };
            assert_eq!(message, compile_opt(src, OptLevel::O2).unwrap_err().to_string());
            message
        };
        // the largest nineteen-digit literal that lexes caches its shape;
        // a variant of it that overflows is a lex error of its own
        assert!(matches!(
            server.handle(Request::program(&printing("1000000000000000000"))),
            Response::Ok { .. }
        ));
        assert_eq!(server.stats().cache_shapes, 1);
        let overflow = compile_error(&printing("9999999999999999999"));
        assert!(overflow.contains("`9999999999999999999` overflows"), "{overflow}");
        // a parse error quotes the literal it met, variant by variant,
        // and its shape is never cached
        for (src, found) in [
            ("void main() { print(12 34); }", "found integer `34`"),
            ("void main() { print(56 78); }", "found integer `78`"),
            ("void main() { print(5.5 6.5); }", "found float `6.5`"),
        ] {
            let message = compile_error(src);
            assert!(message.contains(found), "{message}");
        }
        let stats = server.stats();
        assert_eq!((stats.shape_hits, stats.shape_misses, stats.cache_shapes), (0, 4, 1));
        assert_eq!((stats.compile_misses, stats.errors), (1, 4));
    }

    #[test]
    fn caches_compiles_and_reuses_machines() {
        let server = Server::new();
        for round in 0..3 {
            let resp = server.handle(Request::program(HELLO));
            let Response::Ok { run, cache_hit, warm_machine, .. } = resp else {
                panic!("round {round} failed");
            };
            assert_eq!(run.results[0], vec!["7".to_string()]);
            assert_eq!(cache_hit, round > 0, "round {round}");
            assert_eq!(warm_machine, round > 0, "round {round}");
        }
        let stats = server.stats();
        assert_eq!(stats.compile_misses, 1);
        assert_eq!(stats.compile_hits, 2);
        assert_eq!(stats.machines_cold, 1);
        assert_eq!(stats.machines_warm, 2);
        assert_eq!(stats.pool[0].idle, 1);
    }

    #[test]
    fn racing_first_compiles_all_run_the_cached_program() {
        // Several threads miss the cache for one program at once: the
        // first insert must stay, and every thread must be handed that
        // same `Compiled` (its memoized native module is per `Compiled`).
        let server = Server::new();
        let req = Request::program(FOLD);
        let start = std::sync::Barrier::new(4);
        let got: Vec<Arc<Compiled>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        server.compile_cached(&req).expect("compiles").0
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("compile thread")).collect()
        });
        let (cached, hit) = server.compile_cached(&req).expect("cached");
        assert!(hit);
        for c in &got {
            assert!(Arc::ptr_eq(c, &cached), "a racing compile was handed a discarded program");
        }
    }

    #[test]
    fn the_opt_level_keys_the_cache_and_the_engine_does_not() {
        let server = Server::new();
        for (engine, level, hit) in [
            (Engine::Vm, OptLevel::O2, false),
            (Engine::Native, OptLevel::O2, true),
            (Engine::Vm, OptLevel::O0, false),
        ] {
            let req = Request { engine, opt_level: level, ..Request::program(HELLO) };
            let Response::Ok { run, cache_hit, .. } = server.handle(req) else {
                panic!("{engine:?} -O{level} failed");
            };
            assert_eq!(run.results[0], vec!["7".to_string()], "{engine:?} -O{level}");
            assert_eq!(cache_hit, hit, "{engine:?} -O{level}");
        }
        let stats = server.stats();
        assert_eq!((stats.compile_misses, stats.compile_hits), (2, 1));
    }

    #[test]
    fn runtime_errors_are_structured_and_keep_the_machine_warm() {
        let server = Server::new();
        // `procId - procId` defeats constant folding, so proc 0 really
        // divides by zero at run time in both engines.
        let faulty = "void main() { int z = procId - procId; print(100 / z); }";
        for engine in [Engine::Ast, Engine::Vm] {
            let req = Request { engine, ..Request::program(faulty) };
            let Response::Err { kind, message, .. } = server.handle(req) else {
                panic!("expected a runtime error ({engine:?})");
            };
            assert_eq!(kind, ErrorKind::Runtime, "{engine:?}");
            assert!(message.contains("division by zero"), "{engine:?}: {message}");
        }
        // The failing runs must not have poisoned the pooled machine.
        assert_eq!(server.stats().machines_discarded, 0);
        let resp = server.handle(Request::program(HELLO));
        assert!(matches!(resp, Response::Ok { warm_machine: true, .. }));
    }

    #[test]
    fn a_programs_error_call_is_a_runtime_error_on_a_warm_machine() {
        // a singular system: column 0 is all zeros, so the pivot search
        // finds none and the program gives up with `error(1)`
        let gauss =
            include_str!("../../../benchmark/programs/gauss.skil").replace("__N__", "4").replace(
                "float init_f(Index ix) {",
                "float init_f(Index ix) {\n    if (ix[1] == 0) { return 0.0; }",
            );
        let server = Server::new();
        for engine in [Engine::Ast, Engine::Vm, Engine::Native] {
            let req = Request { engine, ..Request::program(&gauss) };
            let Response::Err { kind, message, .. } = server.handle(req) else {
                panic!("a singular system is an error ({engine:?})");
            };
            assert_eq!(kind, ErrorKind::Runtime, "{engine:?}: {message}");
            assert!(message.contains("program called error(1)"), "{engine:?}: {message}");
            // the program failed, not the machine: it is pooled again
            assert_eq!(server.stats().machines_discarded, 0, "{engine:?}");
            let next = Request { engine, ..Request::program(HELLO) };
            assert!(matches!(server.handle(next), Response::Ok { warm_machine: true, .. }));
        }
    }

    #[test]
    fn crash_fault_plans_ride_per_request() {
        let server = Server::new();
        let crash = Request {
            faults: Some(FaultPlan::parse("seed=7,crash=3@50").unwrap()),
            ..Request::program(FOLD)
        };
        let Response::Err { kind, message, .. } = server.handle(crash) else {
            panic!("crash plan should abort the run");
        };
        assert_eq!(kind, ErrorKind::Runtime);
        assert!(message.contains("crash"), "{message}");
        // Same machine, fault-free request: clean run, warm machine.
        let resp = server.handle(Request::program(FOLD));
        let Response::Ok { run, warm_machine, .. } = resp else {
            panic!("fault-free follow-up should succeed");
        };
        assert!(warm_machine);
        assert_eq!(run.results[0], vec!["120".to_string()]);
    }

    #[test]
    fn bad_requests_and_bad_programs_are_rejected_cleanly() {
        let server = Server::new();
        let cases = [
            ("{not json", "bad_request"),
            (r#"{"program":"void main() {}","mesh":"0x4"}"#, "bad_request"),
            (r#"{"program":"void main() {}","engine":"jit"}"#, "bad_request"),
            (r#"{"program":"void main() {}","engine":"ast"}"#, "bad_request"),
            (r#"{"program":"void main() {}","opt_level":1}"#, "bad_request"),
            (r#"{"program":"void main() {}","bogus":1}"#, "bad_request"),
            (r#"{"mesh":"2x2"}"#, "bad_request"),
            (r#"{"program":"int main() { return notdefined; }"}"#, "compile"),
        ];
        let replies: Vec<String> = cases
            .iter()
            .map(|(line, want_kind)| {
                let resp = server.handle_line(line);
                assert!(resp.contains("\"ok\":false"), "{line} -> {resp}");
                assert!(resp.contains(&format!("\"kind\":\"{want_kind}\"")), "{line} -> {resp}");
                resp
            })
            .collect();
        // an engine or opt level the wire does not take: the reply names those it does
        assert!(replies[3].contains("(vm|native)"), "{}", replies[3]);
        assert!(replies[4].contains("must be 0 or 2"), "{}", replies[4]);
        let stats = server.stats();
        assert_eq!(stats.requests, cases.len() as u64);
        assert_eq!(stats.errors, cases.len() as u64);
    }

    #[test]
    fn stats_command_reports_counters_as_json() {
        let server = Server::new();
        server.handle(Request::program(HELLO));
        let resp = server.handle_line(r#"{"cmd":"stats"}"#);
        let v = json::parse(&resp).unwrap();
        let stats = v.get("stats").expect("stats object");
        assert_eq!(stats.get("requests").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("ok").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("compile_misses").and_then(Json::as_u64), Some(1));
        // another constant: a compile miss, and a shape hit
        server.handle(Request::program(&HELLO.replace('7', "8")));
        let resp = server.handle_line(r#"{"cmd":"stats"}"#);
        let v = json::parse(&resp).unwrap();
        let count = |key: &str| v.get("stats").and_then(|s| s.get(key)).and_then(Json::as_u64);
        assert_eq!(count("compile_misses"), Some(2));
        assert_eq!((count("shape_hits"), count("shape_misses")), (Some(1), Some(1)));
        assert_eq!((count("cache_shapes"), count("shape_evictions")), (Some(1), Some(0)));
        // the writer's keys ascend
        let keys = [
            "cache_programs",
            "cache_shapes",
            "compile_hits",
            "setup_reuse_hits",
            "shape_evictions",
            "shape_hits",
            "shape_misses",
            "stacks_idle",
        ];
        let at: Vec<usize> =
            keys.iter().map(|k| resp.find(&format!("\"{k}\":")).unwrap()).collect();
        assert!(at.windows(2).all(|w| w[0] < w[1]), "{resp}");
        // One 2x2 run: the adaptive default recruits at most three
        // helpers, and for a program this small almost surely none.
        let joins = |server: &Server| {
            let reply = json::parse(&server.handle_line(r#"{"cmd":"stats"}"#)).unwrap();
            let joins = reply.get("stats").and_then(|s| s.get("helper_joins"));
            let joins = joins.and_then(Json::as_u64).expect("helper_joins");
            assert_eq!(joins, server.stats().helper_joins);
            joins
        };
        let adaptive = joins(&server);
        assert!(adaptive <= 3, "{adaptive}");
        // A pooled machine that ran with two workers from the start has
        // one helper join more to report, in the snapshot and the reply.
        let key = Request::program(HELLO).effective_topology();
        let eager = Machine::new(MachineConfig::on_topology(key).unwrap().with_workers(2));
        eager.run(|_| ());
        server.checkin_machine(key, eager, RunTally::default());
        assert_eq!(joins(&server), adaptive + 1);
    }

    #[test]
    fn a_line_that_is_not_utf8_is_a_counted_bad_request() {
        let server = Server::new();
        let resp = server.handle_bytes(b"{\"program\":\"\xff\"}");
        assert!(resp.contains("\"kind\":\"bad_request\""), "{resp}");
        assert!(resp.contains("not UTF-8"), "{resp}");
        let hello = br#"{"program":"void main() { if (procId == 0) { print(7); } }"}"#;
        assert!(server.handle_bytes(hello).contains("\"ok\":true"));
        let stats = server.stats();
        assert_eq!((stats.requests, stats.ok, stats.errors), (2, 1, 1));
    }

    #[test]
    fn native_engine_requests_are_served_and_cached() {
        let server = Server::new();
        for round in 0..3 {
            let req = Request { engine: Engine::Native, ..Request::program(FOLD) };
            let Response::Ok { run, cache_hit, .. } = server.handle(req) else {
                panic!("native round {round} failed");
            };
            assert_eq!(run.results[0], vec!["120".to_string()]);
            assert_eq!(cache_hit, round > 0, "round {round}");
        }
        // The native result must match the VM's, served from the same
        // cache entry (the engine is no part of the program key).
        let vm = server.handle(Request::program(FOLD));
        let Response::Ok { run, cache_hit: true, .. } = vm else {
            panic!("vm run after native must hit the native run's entry");
        };
        assert_eq!(run.results[0], vec!["120".to_string()]);
    }

    #[test]
    fn stats_track_the_pool_per_mesh_shape() {
        let server = Server::new();
        for mesh in [(2, 2), (2, 2), (1, 3), (4, 4), (1, 3)] {
            let req = Request { mesh, ..Request::program(HELLO) };
            assert!(matches!(server.handle(req), Response::Ok { .. }), "{mesh:?}");
        }
        let stats = server.stats();
        let shape = |mesh, spec: &str, warm, cold, idle| PoolShapeStats {
            mesh,
            topology: spec.to_string(),
            warm,
            cold,
            idle,
        };
        assert_eq!(
            stats.pool,
            vec![
                shape((1, 3), "mesh2d:1x3", 1, 1, 1),
                shape((2, 2), "mesh2d:2x2", 1, 1, 1),
                shape((4, 4), "mesh2d:4x4", 0, 1, 1),
            ]
        );
        // ... and the JSON stats reply carries the same breakdown.
        let resp = server.handle_line(r#"{"cmd":"stats"}"#);
        let v = json::parse(&resp).unwrap();
        let Some(Json::Arr(pool)) = v.get("stats").and_then(|s| s.get("pool")) else {
            panic!("stats must contain a pool array: {resp}");
        };
        assert_eq!(pool.len(), 3);
        assert_eq!(pool[1].get("mesh").and_then(Json::as_str), Some("2x2"));
        assert_eq!(pool[1].get("warm").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn topology_requests_pool_separately_from_mesh_requests() {
        let server = Server::new();
        // hypercube:16 and mesh2d:4x4 share a 4x4 process grid but are
        // distinct machines.
        let cube = Request {
            topology: Some(Topology::parse("hypercube:16").unwrap()),
            ..Request::program(FOLD)
        };
        let mesh44 = Request { mesh: (4, 4), ..Request::program(FOLD) };
        let mut cycles = Vec::new();
        for req in [cube.clone(), cube, mesh44] {
            let Response::Ok { run, .. } = server.handle(req) else {
                panic!("topology request failed");
            };
            assert_eq!(run.results[0], vec!["120".to_string()]);
            cycles.push(run.report.sim_cycles);
        }
        // Warm reuse only on the same topology.
        assert_eq!(server.stats().machines_warm, 1);
        assert_eq!(server.stats().machines_cold, 2);
        // Identical requests are cycle-identical; the mesh prices the
        // same program's messages differently.
        assert_eq!(cycles[0], cycles[1]);
        assert_ne!(cycles[0], cycles[2]);
        let specs: Vec<String> = server.stats().pool.into_iter().map(|p| p.topology).collect();
        assert_eq!(specs, ["hypercube:16", "mesh2d:4x4"]);
    }

    #[test]
    fn topology_parses_from_json_requests_and_an_algorithm_field_is_unknown() {
        let server = Server::new();
        let line = format!(r#"{{"program":{},"topology":"fattree:2,4"}}"#, Json::Str(FOLD.into()));
        let resp = server.handle_line(&line);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("\"120\""), "{resp}");
        for (line, needle) in [
            (r#"{"program":"void main() {}","topology":"donut:9"}"#, "unknown kind"),
            (
                r#"{"program":"void main() {}","collective_algo":"ring"}"#,
                r#"unknown request field \"collective_algo\""#,
            ),
            (r#"{"program":"void main() {}","topology":"hypercube:15"}"#, "power of two"),
        ] {
            let resp = server.handle_line(line);
            assert!(resp.contains("\"kind\":\"bad_request\""), "{line} -> {resp}");
            assert!(resp.contains(needle), "{line} -> {resp}");
        }
    }

    #[test]
    fn response_lines_are_valid_json_with_per_proc_stats() {
        let server = Server::new();
        let line = obj(vec![
            ("id", Json::Str("req-1".into())),
            ("program", Json::Str(FOLD.into())),
            ("mesh", Json::Str("2x2".into())),
            ("engine", Json::Str("vm".into())),
            ("opt_level", Json::Num(2.0)),
        ])
        .to_string();
        let resp = server.handle_line(&line);
        let v = json::parse(&resp).expect("response parses");
        assert_eq!(v.get("id").and_then(Json::as_str), Some("req-1"));
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("miss"));
        let Some(Json::Arr(procs)) = v.get("procs") else { panic!("procs array") };
        assert_eq!(procs.len(), 4);
        assert!(procs[0].get("sends").and_then(Json::as_u64).is_some());
        assert!(v.get("sim_cycles").and_then(Json::as_u64).unwrap() > 0);
    }
}
