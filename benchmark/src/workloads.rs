//! The four request workloads: which programs, on which machines, in
//! which proportions, and the seeded schedule that orders them.
//!
//! A workload is a *deck* of request classes. A schedule is the deck
//! dealt over and over, each deal shuffled by the seed, so every run
//! sends exactly the same multiset of requests whatever the seed: the
//! seed moves the order (and the `cold_compile` constants), never the
//! amount of work.

use skil_lang::Engine;
use skil_serve::json;

/// Default `--seconds`; [`Workload::requests`] is calibrated for it.
pub const DEFAULT_SECONDS: u32 = 15;
/// Fresh-daemon repetitions in one run.
pub const REPETITIONS: usize = 3;

macro_rules! programs {
    ($($name:literal),* $(,)?) => {
        /// `(file stem, file text)` of everything in `programs/`.
        const PROGRAMS: &[(&str, &str)] =
            &[$(($name, include_str!(concat!("../programs/", $name, ".skil")))),*];
    };
}
programs![
    "div_zero",
    "farm_sweep",
    "fold16",
    "fold_ladder",
    "gauss",
    "hello",
    "horner",
    "mandelbrot",
    "monte_carlo",
    "prefix_stats",
    "quicksort",
    "shortest_paths",
    "type_error",
];

/// What the daemon receives for a line that is not a request at all.
pub const MALFORMED_LINE: &str = "this is not json";

/// The statement `cold_compile` splices a constant into.
const MAIN_OPEN: &str = "void main() {";

/// Where a request runs: `"mesh":"RxC"` or `"topology":"<spec>"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Mesh(&'static str),
    Topology(&'static str),
}

/// One kind of request. Every request of a class is the same line but
/// for its id (and, in `cold_compile`, its constant).
#[derive(Debug, Clone)]
pub struct Class {
    /// Unique within the workload; shown in failure messages.
    pub name: &'static str,
    /// File stem under `programs/`; `None` sends [`MALFORMED_LINE`].
    pub template: Option<&'static str>,
    /// Placeholder substitutions, e.g. `("__N__", "16")`.
    pub params: &'static [(&'static str, &'static str)],
    pub shape: Shape,
    pub engine: Engine,
    pub faults: Option<&'static str>,
    /// Copies in one deck. 0: sent in warm-up only (and checked there).
    pub weight: usize,
    /// `(kind, message substring)` when the correct outcome is an error.
    pub error: Option<(&'static str, &'static str)>,
}

impl Class {
    const fn new(name: &'static str, template: &'static str, weight: usize) -> Class {
        Class {
            name,
            template: Some(template),
            params: &[],
            shape: Shape::Mesh("2x2"),
            engine: Engine::Vm,
            faults: None,
            weight,
            error: None,
        }
    }
    const fn params(mut self, params: &'static [(&'static str, &'static str)]) -> Class {
        self.params = params;
        self
    }
    const fn mesh(mut self, mesh: &'static str) -> Class {
        self.shape = Shape::Mesh(mesh);
        self
    }
    const fn topology(mut self, spec: &'static str) -> Class {
        self.shape = Shape::Topology(spec);
        self
    }
    const fn native(mut self) -> Class {
        self.engine = Engine::Native;
        self
    }
    const fn faults(mut self, plan: &'static str) -> Class {
        self.faults = Some(plan);
        self
    }
    const fn fails(mut self, kind: &'static str, needle: &'static str) -> Class {
        self.error = Some((kind, needle));
        self
    }

    /// The program text this class sends (header comment stripped,
    /// placeholders filled), or `None` for the malformed line.
    pub fn program(&self) -> Option<String> {
        let stem = self.template?;
        let (_, text) = PROGRAMS
            .iter()
            .find(|(name, _)| *name == stem)
            .unwrap_or_else(|| panic!("no program `{stem}` under programs/"));
        // The header says why the benchmark runs the program; it is not
        // part of what a client would send. It ends at the first blank
        // line.
        let body = text.split_once("\n\n").map_or(*text, |(_, body)| body);
        let mut src = body.to_string();
        for (placeholder, value) in self.params {
            assert!(src.contains(placeholder), "`{stem}` has no placeholder {placeholder}");
            src = src.replace(placeholder, value);
        }
        assert!(!src.contains("__"), "`{stem}`: a placeholder was left unfilled");
        Some(src)
    }

    /// The key of this class's answer in `expected/<workload>.json`:
    /// program, parameters, machine and fault plan, but not the engine,
    /// so `vm` and `native` are held to the same answer.
    pub fn answer_key(&self) -> String {
        let mut key = self.template.unwrap_or("malformed").to_string();
        for (placeholder, value) in self.params {
            key.push_str(&format!(" {}={value}", placeholder.trim_matches('_')));
        }
        match self.shape {
            Shape::Mesh(m) => key.push_str(&format!(" mesh={m}")),
            Shape::Topology(t) => key.push_str(&format!(" topology={t}")),
        }
        if let Some(f) = self.faults {
            key.push_str(&format!(" faults={f}"));
        }
        key
    }
}

/// A traffic mix.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub classes: Vec<Class>,
    /// Every request carries its own constant, so none hits the cache.
    pub sweep: bool,
    /// Requests in one repetition's measured window at
    /// [`DEFAULT_SECONDS`]: calibrated once, at the commit that added
    /// the benchmark, to take a third of that on two cores, then frozen.
    pub requests: usize,
    /// Requests the traced run replays.
    pub trace_requests: usize,
}

impl Workload {
    /// Class indices, each repeated by its weight.
    fn deck(&self) -> Vec<usize> {
        let deck: Vec<usize> = (0..self.classes.len())
            .flat_map(|c| std::iter::repeat_n(c, self.classes[c].weight))
            .collect();
        assert!(!deck.is_empty());
        deck
    }

    /// `n` scaled by `scale` and rounded to whole decks (at least one),
    /// so that every schedule holds every class in its exact proportion.
    pub fn whole_decks(&self, n: usize, scale: f64) -> usize {
        let deck = self.deck().len();
        ((n as f64 * scale / deck as f64).round() as usize).max(1) * deck
    }

    /// The first `n` classes of the seeded schedule.
    pub fn schedule(&self, seed: u64, n: usize) -> Vec<usize> {
        let mut rng = SplitMix64(seed ^ fnv1a64(self.name.as_bytes()));
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let mut deal = self.deck();
            for i in (1..deal.len()).rev() {
                deal.swap(i, (rng.next() % (i as u64 + 1)) as usize);
            }
            deal.truncate(n - out.len());
            out.extend(deal);
        }
        out
    }

    /// The warm-up set for `clients` closed-loop clients: first every
    /// distinct (program, engine) once, so that no two outstanding
    /// requests ever compile the same native module (the daemon's
    /// artifact cache would race on one temporary file and fall back to
    /// the VM for good); then every class once per client, back to back,
    /// so that each client finds a warm machine of every shape.
    pub fn warmup(&self, clients: usize) -> Vec<usize> {
        let module = |c: &Class| (c.template, c.params, c.engine);
        let classes = &self.classes;
        let mut out: Vec<usize> = (0..classes.len())
            .filter(|&i| !classes[..i].iter().any(|c| module(c) == module(&classes[i])))
            .collect();
        for i in 0..classes.len() {
            out.extend(std::iter::repeat_n(i, clients));
        }
        out
    }

    /// The warm-up set as request lines.
    pub fn warmup_requests(&self, seed: u64, clients: usize) -> Vec<Request> {
        // (constants far above any window's, so that the warm-up never
        // compiles a source the window will send)
        self.render(seed, &self.warmup(clients), 10_000_000)
    }

    /// The first `n` requests of the seeded schedule as request lines.
    pub fn window_requests(&self, seed: u64, n: usize) -> Vec<Request> {
        self.render(seed, &self.schedule(seed, n), 0)
    }

    /// Turn class indices into request lines. Ids are `q<position>`;
    /// request `i` of a `cold_compile` schedule prints constant number
    /// `sweep_base + i`.
    fn render(&self, seed: u64, classes: &[usize], sweep_base: u64) -> Vec<Request> {
        // Everything of a line but its id (and constant) is per class.
        let sources: Vec<Option<String>> = self.classes.iter().map(Class::program).collect();
        let tails: Vec<Option<String>> = std::iter::zip(&self.classes, &sources)
            .map(|(c, src)| src.as_ref().filter(|_| !self.sweep).map(|src| line_tail(c, src)))
            .collect();
        classes
            .iter()
            .enumerate()
            .map(|(i, &class)| {
                let Some(src) = &sources[class] else {
                    return Request { line: MALFORMED_LINE.to_string(), class, sweep: None };
                };
                let (tail, sweep) = match &tails[class] {
                    Some(tail) => (tail.clone(), None),
                    None => {
                        let k = sweep_constant(seed, sweep_base + i as u64);
                        (line_tail(&self.classes[class], &splice_constant(src, k)), Some(k))
                    }
                };
                Request { line: format!("{{\"id\":\"q{i}\"{tail}"), class, sweep }
            })
            .collect()
    }
}

/// One request line and what is needed to check its response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The JSON line, without the newline.
    pub line: String,
    /// Index into [`Workload::classes`].
    pub class: usize,
    /// The constant this request prints first (`cold_compile`).
    pub sweep: Option<u64>,
}

/// `,"program":"…","mesh":"…","engine":"…"}` — a request line after its id.
fn line_tail(c: &Class, src: &str) -> String {
    let mut tail = format!(",\"program\":\"{}\"", json::escape(src));
    match c.shape {
        Shape::Mesh(m) => tail.push_str(&format!(",\"mesh\":\"{m}\"")),
        Shape::Topology(t) => tail.push_str(&format!(",\"topology\":\"{t}\"")),
    }
    tail.push_str(&format!(",\"engine\":\"{}\"", c.engine.as_str()));
    if let Some(f) = c.faults {
        tail.push_str(&format!(",\"faults\":\"{f}\""));
    }
    tail.push('}');
    tail
}

/// Make `src` a new source: processor 0 prints `k` before anything else.
pub fn splice_constant(src: &str, k: u64) -> String {
    assert!(src.contains(MAIN_OPEN), "program has no `{MAIN_OPEN}` to splice into");
    src.replacen(MAIN_OPEN, &format!("{MAIN_OPEN} if (procId == 0) {{ print({k}); }}"), 1)
}

/// A nine-digit constant, distinct for distinct `index` under one seed
/// (always nine digits, so that every variant has the same length and
/// the same token count).
pub fn sweep_constant(seed: u64, index: u64) -> u64 {
    assert!(index < 100_000_000);
    100_000_000 + SplitMix64(seed).next() % 800_000_000 + index
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// FNV-1a, the hash `skil-serve` keys its program cache with.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

pub const WORKLOAD_NAMES: [&str; 4] = ["hot_small", "cold_compile", "kernel", "message_bound"];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    const N16: &[(&str, &str)] = &[("__N__", "16")];
    const N32: &[(&str, &str)] = &[("__N__", "32")];
    const N64: &[(&str, &str)] = &[("__N__", "64")];
    const FARM: &[(&str, &str)] = &[("__TASKS__", "16"), ("__ITERS__", "100")];
    const SORT32: &[(&str, &str)] = &[("__LEN__", "32")];
    const LADDER: &[(&str, &str)] = &[("__FOLDS__", "100")];
    let w = match name {
        // A deck of 40: hello 35 %, fold16 35 %, three small skeleton
        // programs 15 %, native 5 %, expected errors 10 %.
        "hot_small" => Workload {
            name: "hot_small",
            classes: vec![
                Class::new("hello", "hello", 14),
                Class::new("fold16_2x2", "fold16", 5),
                Class::new("fold16_1x3", "fold16", 5).mesh("1x3"),
                Class::new("fold16_4x4", "fold16", 4).mesh("4x4"),
                Class::new("prefix_stats", "prefix_stats", 2).params(N64),
                Class::new("quicksort", "quicksort", 2).params(SORT32),
                Class::new("farm_sweep", "farm_sweep", 2).params(FARM),
                Class::new("fold16_native", "fold16", 1).native(),
                Class::new("prefix_stats_native", "prefix_stats", 1).params(N64).native(),
                Class::new("div_zero", "div_zero", 1).fails("runtime", "integer division by zero"),
                Class::new("crash_plan", "fold16", 1)
                    .faults("seed=7,crash=3@50")
                    .fails("runtime", "processor 3: crashed by fault plan at virtual cycle 50"),
                Class::new("type_error", "type_error", 1)
                    .fails("compile", "type mismatch: expected int, found float"),
                Class { template: None, ..Class::new("malformed", "", 1) }
                    .fails("bad_request", "bad JSON"),
            ],
            sweep: false,
            requests: 48_000,
            trace_requests: 2_000,
        },
        "cold_compile" => Workload {
            name: "cold_compile",
            classes: vec![
                Class::new("farm_sweep", "farm_sweep", 1)
                    .params(&[("__TASKS__", "4"), ("__ITERS__", "10")]),
                Class::new("prefix_stats", "prefix_stats", 1).params(N16),
                Class::new("quicksort", "quicksort", 1).params(&[("__LEN__", "8")]),
                Class::new("shortest_paths", "shortest_paths", 1).params(&[("__N__", "8")]),
                Class::new("gauss", "gauss", 1).params(&[("__N__", "4")]),
            ],
            sweep: true,
            requests: 9_500,
            trace_requests: 1_000,
        },
        "kernel" => Workload {
            name: "kernel",
            classes: vec![
                Class::new("mandelbrot_vm", "mandelbrot", 1),
                Class::new("mandelbrot_native", "mandelbrot", 1).native(),
                Class::new("horner_vm", "horner", 1),
                Class::new("horner_native", "horner", 1).native(),
                Class::new("monte_carlo_vm", "monte_carlo", 1),
                Class::new("monte_carlo_native", "monte_carlo", 1).native(),
                Class::new("shortest_paths_n64_vm", "shortest_paths", 1).params(N64),
                Class::new("shortest_paths_n64_native", "shortest_paths", 1).params(N64).native(),
                Class::new("gauss_n32_vm", "gauss", 1).params(N32),
                Class::new("gauss_n32_native", "gauss", 1).params(N32).native(),
                // The repository goldens (tests/golden_determinism.rs):
                // checked once per client in every warm-up, never timed.
                Class::new("golden_shortest_paths", "shortest_paths", 0).params(N16),
                Class::new("golden_gauss", "gauss", 0).params(N16),
            ],
            sweep: false,
            requests: 470,
            trace_requests: 100,
        },
        "message_bound" => Workload {
            name: "message_bound",
            classes: vec![
                Class::new("shortest_paths_n16_8x8", "shortest_paths", 1).params(N16).mesh("8x8"),
                Class::new("shortest_paths_n32_4x4", "shortest_paths", 1).params(N32).mesh("4x4"),
                Class::new("fold_ladder_4x4", "fold_ladder", 1).params(LADDER).mesh("4x4"),
                Class::new("fold_ladder_hypercube16", "fold_ladder", 1)
                    .params(LADDER)
                    .topology("hypercube:16"),
                Class::new("gauss_n16_4x4", "gauss", 1).params(N16).mesh("4x4"),
                Class::new("prefix_stats_8x8", "prefix_stats", 1).params(N64).mesh("8x8"),
                Class::new("shortest_paths_n16_fattree", "shortest_paths", 1)
                    .params(N16)
                    .topology("fattree:2,4"),
            ],
            sweep: false,
            requests: 1_925,
            trace_requests: 301,
        },
        _ => return None,
    };
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> Vec<Workload> {
        WORKLOAD_NAMES.iter().map(|n| workload(n).unwrap()).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_requests() {
        for w in all() {
            let n = w.whole_decks(200, 1.0);
            let a = w.window_requests(42, n);
            let b = w.window_requests(42, n);
            assert_eq!(a, b, "{}", w.name);
            let c = w.window_requests(43, n);
            assert_ne!(a, c, "{}: the seed must move the schedule", w.name);
        }
    }

    #[test]
    fn every_seed_sends_the_same_mix() {
        for w in all() {
            let n = w.whole_decks(w.trace_requests, 1.0);
            let count = |seed| {
                let mut per_class = vec![0usize; w.classes.len()];
                for c in w.schedule(seed, n) {
                    per_class[c] += 1;
                }
                per_class
            };
            assert_eq!(count(1), count(2), "{}", w.name);
            let decks = n / w.deck().len();
            for (c, got) in count(1).iter().enumerate() {
                assert_eq!(*got, decks * w.classes[c].weight, "{} class {c}", w.name);
            }
        }
    }

    #[test]
    fn a_schedule_is_a_prefix_of_a_longer_one() {
        let w = workload("hot_small").unwrap();
        assert_eq!(w.schedule(7, 55), w.schedule(7, 400)[..55]);
    }

    #[test]
    fn request_lines_are_what_skild_parses() {
        for w in all() {
            let classes: Vec<usize> = (0..w.classes.len()).collect();
            for r in w.render(1, &classes, 0) {
                let c = &w.classes[r.class];
                if c.template.is_none() {
                    assert!(json::parse(&r.line).is_err());
                    continue;
                }
                let v = json::parse(&r.line).unwrap_or_else(|e| panic!("{}: {e}", c.name));
                let req = skil_serve::Request::from_json(&v).unwrap();
                assert_eq!(req.engine, c.engine);
                assert_eq!(req.faults.is_some(), c.faults.is_some());
                assert!(!req.program.contains("Derived from:"), "{}: header not stripped", c.name);
                assert_eq!(r.sweep.is_some(), w.sweep);
            }
        }
    }

    #[test]
    fn sweep_constants_are_distinct_and_nine_digits() {
        let mut seen = std::collections::HashSet::new();
        for seed in [0, 1, u64::MAX] {
            for i in (0..20_000).chain(10_000_000..10_000_100) {
                let k = sweep_constant(seed, i);
                assert!((100_000_000..1_000_000_000).contains(&k));
                seen.insert((seed, k));
            }
        }
        assert_eq!(seen.len(), 3 * 20_100);
    }

    #[test]
    fn warmup_compiles_each_native_module_alone_first() {
        let w = workload("kernel").unwrap();
        let warm = w.warmup(2);
        // 12 distinct (program, engine) pairs, then 12 classes twice.
        assert_eq!(warm.len(), 12 + 24);
        assert_eq!(&warm[..12], &(0..12).collect::<Vec<_>>()[..]);
        assert_eq!(&warm[12..16], &[0, 0, 1, 1]);
        // fold16 on three meshes is one program: compiled once up front.
        let hot = workload("hot_small").unwrap();
        let first: Vec<&str> = hot.warmup(1).iter().map(|&i| hot.classes[i].name).collect();
        assert_eq!(first.iter().filter(|n| n.starts_with("fold16")).count(), 2 + 4);
    }
}
