//! Parse, check and instantiate never see a literal's value: they carry
//! its slot, and the back end reads the value from the program's literal
//! table. This is what lets the serving layer reuse one front end for
//! every source of a shape (DESIGN.md §14, §19, §21).
//!
//! For every shipped example, the well-typed benchmark programs, 200
//! seeds of the random program generator and its 60 list seeds, two
//! random literal assignments A and B of the source's kinds and lengths
//! are drawn. The front end of A's text, with B's literal table swapped
//! in, must equal the front end of B's text, and compile to the same
//! raw, optimized and kernel listings and C. A run compares A's front
//! end with the source's own literals swapped in against the source
//! itself (a random loop bound could run for ever).

use skil::lang::token::Lexed;
use skil::lang::{compile_opt, front_end, Compiled, Engine, FoProgram, OptLevel};
use skil::runtime::{Machine, MachineConfig};

#[path = "support/invariant.rs"]
mod invariant;
#[path = "support/program_gen.rs"]
mod program_gen;
#[path = "support/programs.rs"]
mod programs;

/// The benchmark's programs that type-check, placeholders filled as the
/// benchmark's workloads fill them.
const BENCHMARK_PROGRAMS: [(&str, &[(&str, &str)]); 12] = [
    ("div_zero", &[]),
    ("farm_sweep", &[("__TASKS__", "4"), ("__ITERS__", "10")]),
    ("fold16", &[]),
    ("fold_ladder", &[("__FOLDS__", "100")]),
    ("gauss", &[("__N__", "4")]),
    ("hello", &[]),
    ("horner", &[]),
    ("mandelbrot", &[]),
    ("monte_carlo", &[]),
    ("prefix_stats", &[("__N__", "16")]),
    ("quicksort", &[("__LEN__", "8")]),
    ("shortest_paths", &[("__N__", "8")]),
];

fn corpus() -> Vec<(String, String)> {
    let mut out = programs::examples();
    for (stem, params) in BENCHMARK_PROGRAMS {
        let path = format!("{}/benchmark/programs/{stem}.skil", env!("CARGO_MANIFEST_DIR"));
        let mut src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        for (placeholder, value) in params {
            src = src.replace(placeholder, value);
        }
        out.push((stem.to_string(), src));
    }
    for seed in 0..200 {
        let dna = program_gen::dna(seed);
        out.push((format!("gen{seed:03}"), program_gen::Gen { dna: &dna, pos: 0 }.program()));
    }
    for seed in 0..60 {
        let dna = program_gen::dna(1_000 + seed);
        out.push((format!("list{seed:02}"), program_gen::Gen { dna: &dna, pos: 0 }.list_program()));
    }
    out
}

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// `src` with every digit of every literal drawn anew. A literal keeps
/// its length and its kind (a float keeps its `.`, `e` and sign), and an
/// integer of nineteen digits stays below `i64::MAX`, so the text lexes
/// and has `src`'s shape.
fn reassigned(src: &str, rng: &mut Rng) -> String {
    let shape = Lexed::new(src).expect("lexes").shape(src);
    let mut out = src.as_bytes().to_vec();
    let mut i = 0;
    while i < out.len() {
        if shape.as_bytes()[i] == out[i] {
            i += 1;
            continue;
        }
        let end = (i..out.len()).find(|&j| shape.as_bytes()[j] == out[j]).unwrap_or(out.len());
        for (k, b) in out[i..end].iter_mut().enumerate() {
            if b.is_ascii_digit() {
                let top = if k == 0 && end - i >= 19 { 9 } else { 10 };
                *b = b'0' + rng.below(top) as u8;
            }
        }
        i = end;
    }
    let text = String::from_utf8(out).expect("ASCII");
    assert_eq!(Lexed::new(&text).expect("a reassigned source lexes").shape(&text), shape);
    text
}

/// The front end of `src`, with the literal table it was lexed with.
fn front(name: &str, src: &str) -> FoProgram {
    front_end(Lexed::new(src).expect("lexes")).unwrap_or_else(|e| panic!("{name}: {e}\n{src}"))
}

/// Everything the back end lets a caller see.
fn listings(c: &Compiled) -> [String; 4] {
    [c.disassemble_raw(), c.disassemble(), c.disassemble_kernel(), c.emit_c()]
}

#[test]
fn the_front_end_of_one_shape_is_one_program_but_for_its_literal_table() {
    let machine = Machine::new(MachineConfig::mesh(2, 2).unwrap());
    let mut literals = 0;
    for (n, (name, src)) in corpus().into_iter().enumerate() {
        let mut rng = Rng(n as u64);
        let (a, b) = (reassigned(&src, &mut rng), reassigned(&src, &mut rng));
        let (front_a, front_b) = (front(&name, &a), front(&name, &b));
        literals += front_b.lits.len();

        let a_as_b = FoProgram { lits: front_b.lits.clone(), ..front_a.clone() };
        assert!(a_as_b == front_b, "{name}: A's front end with B's literals is not B's\n{a}\n{b}");
        let (a_as_b, front_b) = (
            Compiled::from_front_end(a_as_b, OptLevel::O2),
            Compiled::from_front_end(front_b, OptLevel::O2),
        );
        assert_eq!(listings(&a_as_b), listings(&front_b), "{name}\n{a}\n{b}");

        let own = front(&name, &src).lits;
        let a_as_src = Compiled::from_front_end(FoProgram { lits: own, ..front_a }, OptLevel::O2);
        let compiled = compile_opt(&src, OptLevel::O2).expect("compiles");
        assert_eq!(listings(&a_as_src), listings(&compiled), "{name}");
        let digest = |c: &Compiled| invariant::observe(&c.try_run_with(Engine::Vm, &machine));
        assert_eq!(digest(&a_as_src).digest(), digest(&compiled).digest(), "{name}");
    }
    // the corpus has literals to reassign
    assert!(literals > 5_000, "{literals} literals");
}
