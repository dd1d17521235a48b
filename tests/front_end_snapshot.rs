//! The front end's output, pinned: for every shipped example, a set of
//! accepted feature programs, 200 seeds of the random program generator
//! and a corpus of rejected programs, at every opt level, a hash of
//! everything `compile_opt` lets a caller see — `emit_c()`,
//! `disassemble()`, `disassemble_raw()`, `OptStats` — or, for a rejected
//! program, the full diagnostic text.
//!
//! `tests/fixtures/front_end_snapshot.txt` was written by the front end
//! that named everything with `String`s (run
//! `cargo test --test front_end_snapshot -- --ignored` to write it
//! again); a rewrite of the front end may not change one byte of it.
//! Three diagnostics were then corrected by hand from `0:0` to their
//! real positions: `struct_field_pardata`, `struct_field_unknown_type`
//! and `main_signature*`.

use skil::lang::{compile_opt, OptLevel};

#[path = "support/program_gen.rs"]
mod program_gen;
#[path = "support/programs.rs"]
mod programs;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/front_end_snapshot.txt");

const ARRAY_PRELUDE: &str = "int zero(Index ix) { return 0; }\n\
     float initf(Index ix) { return itof(ix[0] + ix[1]); }\n";

/// Accepted programs that exercise what the examples do not.
const ACCEPTED: [(&str, &str); 10] = [
    (
        "poly_struct",
        "struct pair<$a, $b> { $a fst; $b snd; };\n\
         void main() {\n\
           pair<int, float> p = pair{1, 2.5};\n\
           pair<float, float> q = pair{0.5, 2.5};\n\
           print(p.fst); print(q.snd);\n\
         }",
    ),
    (
        "poly_ident",
        "$a ident($a x) { return x; }\n\
         void main() { int i = ident(3); float f = ident(2.5); int j = ident(4); print(i + j); print(f); }",
    ),
    (
        "hof_chain",
        "int add(int a, int b) { return a + b; }\n\
         int apply1(int f(int), int x) { return f(x); }\n\
         int both(int g(int, int), int x) { return apply1(g(10), x); }\n\
         int twice(int g(int), int x) { return apply1(g, apply1(g, x)); }\n\
         void main() { print(both(add, 32)); print(twice(add(1), 40)); }",
    ),
    (
        "deep_currying",
        "int add3(int a, int b, int c) { return a + b + c; }\n\
         void main() { print(add3(1)(2)(3)); print((+)(1, 2)); }",
    ),
    (
        "mutual_recursion",
        "int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }\n\
         int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }\n\
         void main() { print(is_even(10)); }",
    ),
    (
        "partial_application_map",
        "int above_thresh(float thresh, float elem, Index ix) { return elem >= thresh; }\n\
         float init_f(Index ix) { return itof(ix[0]); }\n\
         int zero(Index ix) { return 0; }\n\
         void main() {\n\
           array<float> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, init_f, DISTR_DEFAULT);\n\
           array<int> b = array_create(1, {8,1}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);\n\
           float t = 3.0;\n\
           array_map(above_thresh(t), a, b);\n\
           array_map(above_thresh(t + 1.0), a, b);\n\
         }",
    ),
    (
        "struct_fold",
        "struct rec { float v; int r; };\n\
         rec conv(float x, Index ix) { return rec{x, ix[0]}; }\n\
         rec pick(rec a, rec b) { if (a.v >= b.v) { return a; } return b; }\n\
         float init_f(Index ix) { return itof(ix[0]); }\n\
         void main() {\n\
           array<float> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, init_f, DISTR_DEFAULT);\n\
           rec best = array_fold(conv, pick, a);\n\
           print(best.r);\n\
         }",
    ),
    (
        "sections_and_intrinsic_fns",
        "int initf(Index ix) { return ix[0]; }\n\
         int conv(int x, Index ix) { return x; }\n\
         int scale(int k, int v, Index ix) { return k * v; }\n\
         void main() {\n\
           array<int> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
           array<int> b = array_create(1, {8,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
           array_map(scale(3), a, b);\n\
           print(array_fold(conv, min, b)); print(array_fold(conv, (+), b)); print(array_fold(conv, max, a));\n\
           array_scan((+), a, b);\n\
           Bounds bds = array_part_bounds(b);\n\
           print(bds->lowerBd[0] + bds.upperBd[0]);\n\
         }",
    ),
    (
        "lists_and_loops",
        "int sum(list<int> l) { int s = 0; while (len(l) > 0) { s = s + head(l); l = tail(l); } return s; }\n\
         void main() {\n\
           list<int> l = nil();\n\
           for (int i = 0; i < 5; i = i + 1) { l = cons(i, l); }\n\
           list<int> m = append(l, l);\n\
           if (sum(m) == 20 && !(len(m) != 10) || 0) { print(sum(m)); } else { print(0 - 1); }\n\
           float x = -1.5; x = fabs(x) * sqrt(4.0); print(ftoi(x)); print(log2i(1024) % 7);\n\
         }",
    ),
    ("empty_main", "void main() { }"),
];

/// Rejected programs, one diagnostic each.
fn rejected() -> Vec<(&'static str, String)> {
    let plain: [(&str, &str); 62] = [
        // lexer
        ("lex_bad_char", "void main() { int x = 1 ~ 2; }"),
        ("lex_unterminated_comment", "void main() {\n  /* never closed"),
        ("lex_int_overflow", "void main() { int x = 99999999999999999999; }"),
        ("lex_bare_dollar", "void main() { $ }"),
        ("lex_non_ascii", "void main() {\n  int \u{e9} = 1; }"),
        // parser
        ("parse_missing_semicolon", "void main() { int x = 1 }"),
        ("parse_bad_item", "42;"),
        ("parse_pardata_param", "pardata foo<int>;"),
        ("parse_struct_param", "struct s<int> { int a; };"),
        ("parse_if_without_paren", "void main() { if x { } }"),
        ("parse_missing_expr", "void main() { x = ; }"),
        ("parse_keyword_type", "if main() { }"),
        ("parse_unclosed_paren", "void main() { int x = (1 + ; }"),
        ("parse_bad_params", "void main( { }"),
        ("parse_return_no_semicolon", "void main() { return 1 }"),
        ("parse_unclosed_struct_lit", "void main() { foo{1, 2 ; }"),
        ("parse_field_not_ident", "void main() { a.1; }"),
        ("parse_eof_in_block", "void main() { int x = 1;"),
        ("parse_typevar_expr", "void main() { int x = $t; }"),
        // checker: declarations
        ("array_arity", "pardata array<$a, $b>;\nvoid main() { }"),
        ("dup_pardata", "pardata foo<$t>;\npardata foo<$t>;\nvoid main() { }"),
        ("dup_struct", "struct s { int a; };\nstruct s { int b; };\nvoid main() { }"),
        ("dup_function", "int f() { return 1; }\nint f() { return 2; }\nvoid main() { }"),
        (
            "struct_field_pardata",
            "int k() { return 1; }\n\n  struct holder { array<int> a; int n; };\nvoid main() { }",
        ),
        ("struct_field_unknown_type", "\n   struct holder { wibble a; };\nvoid main() { }"),
        ("main_signature", "int f() { return 1; }\n  int main() { return 1; }"),
        ("main_signature_params", "\n\n void main(int x) { }"),
        ("no_main", "int f() { return 1; }"),
        ("shadows_builtin", "int array_map(int x) { return x; }\nvoid main() { }"),
        ("sig_var_constrained", "$a bad($a x) { return x + 1; }\nvoid main() { }"),
        ("unknown_param_type", "int f(wibble x) { return 1; }\nvoid main() { }"),
        ("unknown_return_type", "wibble f(int x) { return 1; }\nvoid main() { }"),
        // checker: bodies
        ("mismatch_decl", "void main() { int x = 1.5; }"),
        ("mismatch_mixed_arith", "void main() { float y = 1.0 + 1; }"),
        ("undeclared_assign", "void main() { x = 1; }"),
        ("unknown_identifier", "void main() { int x = nope; }"),
        ("call_non_function", "void main() { int x = 3; x(1); }"),
        ("too_many_args", "int f(int a) { return a; }\nvoid main() { f(1, 2); }"),
        ("float_rem", "void main() { float y = 1.5 % 2.0; }"),
        (
            "no_such_field",
            "struct r { float v; };\nvoid main() { r e = r{1.5}; float v = e.bogus; }",
        ),
        ("field_on_int", "void main() { int x = 1; int y = x.foo; }"),
        ("index_literal_three", "void main() { Index i = {1, 2, 3}; }"),
        ("index_literal_empty", "void main() { Index i = {}; }"),
        ("unknown_decl_type", "void main() { r e = r{1}; }"),
        ("struct_lit_arity", "struct r { int a; int b; };\nvoid main() { r e = r{1}; }"),
        ("unknown_struct_lit", "void main() { int e = nosuch{1}; }"),
        ("pardata_arg_count", "void main() { array<int, int> a; }"),
        ("struct_arg_count", "struct p<$a> { $a x; };\nvoid main() { p<int, int> q; }"),
        ("unbound_type_var", "void main() { $t x; }"),
        ("nested_pardata", "void main() { array< array<int> > a; }"),
        ("pardata_in_list", "void main() { list< array<int> > a; }"),
        ("neg_index", "void main() { Index i = {1, 2}; int x = 0; x = -i; }"),
        ("not_float", "void main() { int x = !1.5; }"),
        ("function_as_int", "$a id($a x) { return x; }\nvoid main() { int q = id; }"),
        ("infinite_type", "void f($a x) { x = cons(x, nil()); }\nvoid main() { }"),
        ("if_float", "void main() { if (1.5) { } }"),
        ("while_float", "void main() { while (1.5) { } }"),
        ("for_float", "void main() { for (;1.5;) { } }"),
        ("return_nothing", "int f() { return; }\nvoid main() { }"),
        ("return_from_void", "void main() { return 1; }"),
        ("index_at_float", "void main() { Index i = {1, 2}; int x = i[1.5]; }"),
        (
            "partial_in_decl",
            "int add(int a, int b) { return a + b; }\nvoid main() { int x = add(1); }",
        ),
    ];
    let with_arrays: [(&str, &str); 3] = [
        (
            "bounds_field",
            "void main() {\n  array<int> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);\n  \
             Bounds b = array_part_bounds(a);\n  int q = b.middle[0];\n}",
        ),
        (
            "map_mismatch",
            "int above(float t, float e, Index ix) { return 1; }\nvoid main() {\n  \
             array<int> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);\n  \
             array_map(above(3.0), a, a);\n}",
        ),
        (
            "skeleton_arity",
            "void main() {\n  array<int> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);\n  \
             array_copy(a);\n}",
        ),
    ];
    // the instantiation procedure's own diagnostics (the checker accepts
    // all of these)
    let instantiate: [(&str, &str); 8] = [
        ("undetermined_type", "$a id($a x) { return x; }\nvoid main() { id(nil()); }"),
        (
            "pardata_without_implementation",
            "pardata foo<$t>;\nvoid f(foo<int> x) { }\nvoid main() { foo<int> q; f(q); }",
        ),
        ("partial_section_as_value", "void main() { print((+)(1)); }"),
        ("section_as_value", "void main() { print((+)); }"),
        (
            "partial_outside_argument",
            "int add(int a, int b) { return a + b; }\nvoid main() { print(add(1)); }",
        ),
        ("function_as_value", "int inc(int x) { return x + 1; }\nvoid main() { print(inc); }"),
        (
            "fn_param_as_value",
            "int apply(int f(int), int x) { print(f); return f(x); }\n\
             int inc(int x) { return x + 1; }\nvoid main() { print(apply(inc, 1)); }",
        ),
        (
            "fn_param_under_applied",
            "int app2(int f(int, int), int x) { print(f(x)); return 0; }\n\
             int add(int a, int b) { return a + b; }\nvoid main() { print(app2(add, 1)); }",
        ),
    ];
    let mut out: Vec<(&'static str, String)> = Vec::new();
    out.extend(plain.iter().map(|&(n, s)| (n, s.to_string())));
    out.extend(with_arrays.iter().map(|&(n, s)| (n, format!("{ARRAY_PRELUDE}{s}"))));
    out.extend(instantiate.iter().map(|&(n, s)| (n, s.to_string())));
    out
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn corpus() -> Vec<(String, String)> {
    let mut out = programs::examples();
    out.extend(ACCEPTED.iter().map(|&(n, s)| (n.to_string(), s.to_string())));
    for seed in 0..200 {
        let dna = program_gen::dna(seed);
        out.push((format!("gen{seed:03}"), program_gen::Gen { dna: &dna, pos: 0 }.program()));
    }
    out.extend(rejected().into_iter().map(|(n, s)| (n.to_string(), s)));
    out
}

/// One line per (program, opt level): `name -On ok <hash>` or
/// `name -On err <diagnostic>`.
fn snapshot() -> String {
    let mut out = String::new();
    for (name, src) in corpus() {
        for level in [OptLevel::O0, OptLevel::O2] {
            match compile_opt(&src, level) {
                Ok(c) => {
                    let seen = format!(
                        "{}\u{0}{}\u{0}{}\u{0}{:?}",
                        c.emit_c(),
                        c.disassemble(),
                        c.disassemble_raw(),
                        c.opt_stats
                    );
                    out += &format!("{name} -O{level} ok {:016x}\n", fnv1a64(seen.as_bytes()));
                }
                Err(e) => out += &format!("{name} -O{level} err {e}\n"),
            }
        }
    }
    out
}

#[test]
fn front_end_output_is_bit_identical_to_the_fixture() {
    let want = std::fs::read_to_string(FIXTURE).expect("fixture exists");
    let got = snapshot();
    let differing: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  fixture: {w}\n  now:     {g}"))
        .collect();
    assert!(
        differing.is_empty() && want.lines().count() == got.lines().count(),
        "{} of {} snapshot lines differ:\n{}",
        differing.len(),
        want.lines().count(),
        differing.join("\n")
    );
}

#[test]
fn the_corpus_covers_accepted_and_rejected_programs() {
    let snap = snapshot();
    assert!(snap.lines().filter(|l| l.contains(" ok ")).count() >= 2 * 218);
    for phase in ["lex", "parse", "type", "instantiate"] {
        assert!(snap.lines().any(|l| l.contains(&format!(" err {phase} error at "))), "{phase}");
    }
}

#[test]
#[ignore = "writes the fixture; run it at the commit whose output is the reference"]
fn write_fixture() {
    std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().expect("has a parent"))
        .expect("fixtures dir");
    std::fs::write(FIXTURE, snapshot()).expect("fixture written");
}
