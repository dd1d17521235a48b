//! Integration: full Skil source programs through the complete pipeline
//! (parse → polymorphic check → instantiation → SPMD interpretation),
//! cross-checked against sequential references.

use skil::lang::compile;
use skil::runtime::{Machine, MachineConfig};

#[path = "support/invariant.rs"]
mod invariant;
#[path = "support/programs.rs"]
mod programs;

use invariant::{assert_same, configs, machines, Row};
use programs::{levels, ALL_LEVELS};

fn run(src: &str, procs: usize) -> Vec<Vec<String>> {
    let c = compile(src).unwrap_or_else(|e| panic!("compile failed: {e}"));
    let m = Machine::new(MachineConfig::procs(procs).unwrap());
    c.run(&m).results
}

/// The paper's complete §4.2 program: Gaussian elimination **with**
/// pivot search (`array_fold` over `elemrec`s) and row exchange
/// (`array_permute_rows` with `switch_rows`), written in Skil source.
#[test]
fn gauss_with_pivoting_in_skil_source() {
    let n = 8usize;
    let p = 4usize;
    let src = format!(
        r#"
struct elemrec {{ float val; int row; int col; }};

int n() {{ return {n}; }}

// a diagonally-weak matrix that needs a row exchange at k = 0
float init_f(Index ix) {{
    if (ix[1] == n()) {{ return itof(ix[0] + 1); }}
    if (ix[0] == 0 && ix[1] == 0) {{ return 0.0; }}
    if ((ix[0] + 1) % n() == ix[1]) {{ return 2.0 + itof(ix[0]); }}
    if (ix[0] == ix[1]) {{ return 1.0 + itof(n()); }}
    return 0.5;
}}

float zerof(Index ix) {{ return 0.0; }}

elemrec make_elemrec(float v, Index ix) {{
    return elemrec{{v, ix[0], ix[1]}};
}}

elemrec max_abs_in_col(int k, elemrec a, elemrec b) {{
    int a_in = a.col == k && a.row >= k;
    int b_in = b.col == k && b.row >= k;
    if (a_in && !b_in) {{ return a; }}
    if (b_in && !a_in) {{ return b; }}
    if (!a_in && !b_in) {{ return a; }}
    if (fabs(b.val) > fabs(a.val)) {{ return b; }}
    return a;
}}

int switch_rows(int r1, int r2, int r) {{
    if (r == r1) {{ return r2; }}
    if (r == r2) {{ return r1; }}
    return r;
}}

float copy_pivot(array<float> a, int k, float v, Index ix) {{
    Bounds bds = array_part_bounds(a);
    if (bds->lowerBd[0] <= k && k < bds->upperBd[0]) {{
        return array_get_elem(a, {{k, ix[1]}}) / array_get_elem(a, {{k, k}});
    }}
    return v;
}}

float eliminate(int k, array<float> a, array<float> piv, float v, Index ix) {{
    if (ix[0] == k || ix[1] < k) {{ return v; }}
    return v - array_get_elem(a, {{ix[0], k}}) * array_get_elem(piv, {{procId, ix[1]}});
}}

float normalize(array<float> a, float v, Index ix) {{
    if (ix[1] == n()) {{ return v / array_get_elem(a, {{ix[0], ix[0]}}); }}
    return v;
}}

void gauss() {{
    int p = nProcs;
    array<float> a = array_create(2, {{n(), n() + 1}}, {{0,0}}, {{0-1,0-1}}, init_f, DISTR_DEFAULT);
    array<float> b = array_create(2, {{n(), n() + 1}}, {{0,0}}, {{0-1,0-1}}, zerof, DISTR_DEFAULT);
    array<float> piv = array_create(2, {{p, n() + 1}}, {{0,0}}, {{0-1,0-1}}, zerof, DISTR_DEFAULT);
    elemrec e;
    int k;

    for (k = 0 ; k < n() ; k = k + 1) {{
        e = array_fold(make_elemrec, max_abs_in_col(k), a);
        if (fabs(e.val) == 0.0) {{ error(1); }}
        if (e.row != k) {{
            array_permute_rows(a, switch_rows(e.row, k), b);
        }} else {{
            array_copy(a, b);
        }}
        array_map(copy_pivot(b, k), piv, piv);
        array_broadcast_part(piv, {{k / (n() / p), 0}});
        array_map(eliminate(k, b, piv), b, a);
    }}
    array_map(normalize(a), a, b);

    // output: each processor prints its local components of x
    Bounds bds = array_part_bounds(b);
    int i;
    for (i = bds->lowerBd[0] ; i < bds->upperBd[0] ; i = i + 1) {{
        print(array_get_elem(b, {{i, n()}}));
    }}
}}

void main() {{ gauss(); }}
"#
    );
    let out = run(&src, p);

    // sequential reference on the same matrix
    let elem = |i: usize, j: usize| -> f64 {
        if j == n {
            (i + 1) as f64
        } else if i == 0 && j == 0 {
            0.0
        } else if (i + 1) % n == j {
            2.0 + i as f64
        } else if i == j {
            1.0 + n as f64
        } else {
            0.5
        }
    };
    let cols = n + 1;
    let mut m: Vec<f64> = (0..n * cols).map(|k| elem(k / cols, k % cols)).collect();
    for k in 0..n {
        // partial pivoting
        let pivot = (k..n)
            .max_by(|&a, &b| m[a * cols + k].abs().partial_cmp(&m[b * cols + k].abs()).unwrap())
            .unwrap();
        if pivot != k {
            for j in 0..cols {
                m.swap(k * cols + j, pivot * cols + j);
            }
        }
        let akk = m[k * cols + k];
        for i in 0..n {
            if i == k {
                continue;
            }
            let f = m[i * cols + k] / akk;
            for j in k..cols {
                m[i * cols + j] -= f * m[k * cols + j];
            }
        }
    }
    let expect: Vec<f64> = (0..n).map(|i| m[i * cols + n] / m[i * cols + i]).collect();

    // gather printed per-proc solutions (row-block order)
    let got: Vec<f64> =
        out.iter().flat_map(|lines| lines.iter().map(|l| l.parse::<f64>().unwrap())).collect();
    assert_eq!(got.len(), n);
    for (g, e) in got.iter().zip(&expect) {
        assert!((g - e).abs() < 1e-9, "{g} vs {e}");
    }
}

/// The d&c skeleton definition from the paper's introduction cannot be
/// expressed without lists, but partial application chains deeper than
/// one level work; this exercises a HOF receiving a partially applied
/// HOF.
#[test]
fn nested_partial_applications() {
    let out = run(
        "int add3(int a, int b, int c) { return a + b + c; }\n\
         int apply1(int f(int), int x) { return f(x); }\n\
         void main() { print(apply1(add3(10, 20), 12)); }",
        1,
    );
    assert_eq!(out[0], vec!["42"]);
}

#[test]
fn emitted_c_for_gauss_names_instances() {
    let src = "float copy_pivot(array<float> a, int k, float v, Index ix) {\n\
                 Bounds bds = array_part_bounds(a);\n\
                 if (bds->lowerBd[0] <= k && k < bds->upperBd[0]) {\n\
                   return array_get_elem(a, {k, ix[1]}) / array_get_elem(a, {k, k});\n\
                 }\n\
                 return v;\n\
               }\n\
               float zf(Index ix) { return 0.0; }\n\
               void main() {\n\
                 array<float> a = array_create(2, {4,5}, {0,0}, {0-1,0-1}, zf, DISTR_DEFAULT);\n\
                 array<float> piv = array_create(2, {4,5}, {0,0}, {0-1,0-1}, zf, DISTR_DEFAULT);\n\
                 int k = 0;\n\
                 array_map(copy_pivot(a, k), piv, piv);\n\
               }";
    let c = compile(src).unwrap().emit_c();
    // the lifted a and k travel in the specialized skeleton call
    assert!(c.contains("array_map__copy_pivot_1(a, k, piv, piv)"), "{c}");
    // the instance keeps the full parameter list
    assert!(c.contains("float copy_pivot_1(floatarray a, int k, float v, Index ix)"), "{c}");
}

#[test]
fn polymorphism_across_skeletons() {
    // one generic conversion used at two element types
    let out = run(
        "int initi(Index ix) { return ix[0]; }\n\
         float initf(Index ix) { return itof(ix[0]); }\n\
         $t keep($t v, Index ix) { return v; }\n\
         int addi(int a, int b) { return a + b; }\n\
         float addf(float a, float b) { return a + b; }\n\
         void main() {\n\
           array<int> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, initi, DISTR_DEFAULT);\n\
           array<float> b = array_create(1, {8,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
           int si = array_fold(keep, addi, a);\n\
           float sf = array_fold(keep, addf, b);\n\
           if (procId == 0) { print(si); print(sf); }\n\
         }",
        2,
    );
    assert_eq!(out[0], vec!["28", "28"]);
}

#[test]
fn type_errors_are_reported_with_phase() {
    let e = compile("void main() { int x = 1.5; }").unwrap_err();
    assert_eq!(format!("{}", e.phase), "type");
    let e = compile("void main() { x = ; }").unwrap_err();
    assert_eq!(format!("{}", e.phase), "parse");
}

/// `examples/skil/integrate.skil` with the integrand's feature at `c`
/// and the tolerance `tol`; the shipped program has `0.3` and `1e-8`.
fn integrate_src(c: &str, tol: &str) -> String {
    let src = programs::example("integrate.skil");
    for shipped in ["float c = 0.3;", "cons(1e-8, nil())"] {
        assert!(src.contains(shipped), "integrate.skil sets `{shipped}`");
    }
    src.replace("float c = 0.3;", &format!("float c = {c};"))
        .replace("cons(1e-8, nil())", &format!("cons({tol}, nil())"))
}

/// Simulated cycles of `integrate.skil` at `c` and `tol` on `procs`
/// processors.
fn integrate_cycles(c: &str, tol: &str, procs: usize) -> u64 {
    let c = compile(&integrate_src(c, tol)).unwrap_or_else(|e| panic!("compile failed: {e}"));
    c.run(&Machine::new(MachineConfig::procs(procs).unwrap())).report.sim_cycles
}

/// The introduction's adaptive integration through `dc`: one value on
/// every machine size, engine, opt level and host configuration, and
/// it is the integral.
#[test]
fn integrate_is_accurate_on_any_machine() {
    let (c, a, b) = (0.3f64, 0.0f64, 2.0f64);
    let antiderivative = |x: f64| ((x - c) / 0.1).atan() / 0.1 + x * x * x / 3.0;
    let exact = antiderivative(b) - antiderivative(a);
    let area = "30.277529431614767";
    assert!((area.parse::<f64>().unwrap() - exact).abs() < 1e-5, "{area} vs {exact}");
    let row = [Row::new("integrate", levels("integrate", &programs::example("integrate.skil")))];
    for procs in [1usize, 2, 4, 8] {
        let machines = machines(MachineConfig::procs(procs).unwrap());
        let seen = assert_same(&row, &configs(&ALL_LEVELS, &machines), programs::run).remove(0);
        assert_eq!(seen.procs()[0].output, format!("{:?}", [area]), "p={procs}");
    }
}

#[test]
fn parallel_integration_is_faster_in_virtual_time() {
    let (t1, t8) = (integrate_cycles("0.3", "1e-10", 1), integrate_cycles("0.3", "1e-10", 8));
    assert!(t8 * 2 < t1, "8 procs should be >2x faster: {t1} vs {t8}");
}

#[test]
fn adaptivity_focuses_on_the_feature() {
    // with the sharp feature outside [0, 2], far fewer leaves are
    // needed: the smooth integrand converges at once
    let (sharp, smooth) = (integrate_cycles("1.0", "1e-8", 1), integrate_cycles("50.0", "1e-8", 1));
    assert!(smooth < sharp, "smooth {smooth} vs sharp {sharp}");
}
