//! Which skeleton argument functions of the shipped programs run as
//! typed register code and which on the generic loop, pinned: a
//! function that silently stops lowering fails here, not in a
//! benchmark.

use skil_lang::{compile_opt, OptLevel};

/// `General`-shape argument functions by source name, in order of first
/// use at a skeleton site, with how each runs at `-O2`
/// (`true`: typed). Operator sections and single intrinsics never reach
/// either tier and are not listed.
const PINNED: [(&str, &[(&str, bool)]); 14] = [
    ("div_zero", &[]),
    ("farm_sweep", &[("score", true)]),
    ("fold16", &[("initf", true), ("conv", true)]),
    ("fold_ladder", &[("initf", true), ("conv", true)]),
    (
        "gauss",
        &[
            ("init_f", true),
            ("zerof", true),
            // a struct of scalars is one register per field, and
            // crosses the fold as those words
            ("make_elemrec", true),
            ("max_abs_in_col", true),
            ("switch_rows", true),
            // `Bounds` is four registers
            ("copy_pivot", true),
            ("eliminate", true),
            ("normalize", true),
        ],
    ),
    ("hello", &[]),
    ("horner", &[("xval", true), ("horner", true), ("conv", true), ("fmaxf", true)]),
    // a problem is a `list<float>`, a split a `list<list<float>>`
    ("integrate", &[("is_flat", true), ("solve", true), ("bisect", true), ("sum", true)]),
    ("mandelbrot", &[("escape", true), ("conv", true)]),
    ("monte_carlo", &[("hits", true), ("conv", true)]),
    ("prefix_stats", &[("sample", true), ("zero", true), ("conv", true)]),
    // lists all the way down: a register names its list in the side
    // window
    ("quicksort", &[("is_simple", true), ("ident", true), ("divide", true), ("concat3", true)]),
    ("shortest_paths", &[("init_f", true), ("zero", true), ("conv", true)]),
    ("type_error", &[]),
];

const PARAMS: [(&str, &str); 5] = [
    ("__N__", "16"),
    ("__TASKS__", "4"),
    ("__ITERS__", "10"),
    ("__LEN__", "8"),
    ("__FOLDS__", "3"),
];

/// `(source name, typed?)` per `General` argument function, from the
/// `site` lines of the kernel listing.
fn classify(listing: &str) -> Vec<(String, bool)> {
    let mut out: Vec<(String, bool)> = Vec::new();
    for line in listing.lines().filter(|l| l.starts_with("site ")) {
        // `init_f_1+0 [typed]`, `divide_1+0 [generic: why]`; trivial
        // shapes and direct operators carry other tags
        let mut found: Vec<(usize, bool)> = line
            .match_indices(" [typed]")
            .map(|(at, _)| (at, true))
            .chain(line.match_indices(" [generic: ").map(|(at, _)| (at, false)))
            .collect();
        found.sort_unstable();
        for (at, typed) in found {
            let instance = line[..at].rsplit(['(', ' ']).next().expect("a name before the tag");
            let name = instance.split_once('+').expect("name+lifted").0;
            let name = name.rsplit_once('_').expect("instance suffix").0.to_string();
            if !out.iter().any(|(n, _)| *n == name) {
                out.push((name, typed));
            }
        }
    }
    out
}

fn programs(dir: &str) -> Vec<(String, String)> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut out: Vec<(String, String)> = std::fs::read_dir(format!("{root}/{dir}"))
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "skil"))
        .map(|p| {
            let mut src = std::fs::read_to_string(&p).expect("readable");
            for (placeholder, value) in PARAMS {
                src = src.replace(placeholder, value);
            }
            (p.file_stem().expect("stem").to_string_lossy().into_owned(), src)
        })
        .collect();
    out.sort();
    out
}

#[test]
fn shipped_argument_functions_lower_as_pinned() {
    let mut seen = 0;
    for dir in ["benchmark/programs", "examples/skil"] {
        for (stem, src) in programs(dir) {
            let want = PINNED
                .iter()
                .find(|(s, _)| *s == stem)
                .unwrap_or_else(|| panic!("{dir}/{stem}.skil is not pinned: add it to PINNED"));
            let want: Vec<(String, bool)> =
                want.1.iter().map(|(n, t)| (n.to_string(), *t)).collect();
            // one program is there for its type error
            let Ok(c) = compile_opt(&src, OptLevel::O2) else {
                assert_eq!(stem, "type_error");
                continue;
            };
            assert_eq!(
                classify(&c.disassemble_kernel()),
                want,
                "{dir}/{stem}.skil @ -O2: (argument function, typed)"
            );
            seen += 1;
        }
    }
    assert!(seen >= 19, "expected the benchmark programs and the examples, saw {seen}");
}

#[test]
fn nothing_lowers_at_o0() {
    for (stem, src) in programs("examples/skil") {
        let c = compile_opt(&src, OptLevel::O0).expect("the examples compile");
        let listing = c.disassemble_kernel();
        assert!(!listing.contains("[typed]"), "{stem} @ -O0:\n{listing}");
        assert!(
            classify(&listing).iter().all(|(_, typed)| !typed),
            "{stem} @ -O0 stays the plain stack machine"
        );
    }
}

#[test]
fn a_refusal_names_what_blocked_the_function() {
    let src = "struct pt { int x; int y; };
        struct bag { int n; list<int> items; };
        int firstx(list<pt> ps) { return head(ps).x; }
        int deep(list< list< list<int> > > l) { int n = len(l); return n * 2 + 1; }
        int count(bag b) { return b.n + len(b.items); }
        int total(list<int> l) { int s = 0; while (len(l) > 0) { s = s + head(l); l = tail(l); } return s; }
        int viatotal(list<int> l) { return total(l) + 1; }
        void main() {
            list< list<pt> > a = cons(cons(pt{1, 2}, nil()), nil());
            list< list< list< list<int> > > > b = cons(nil(), nil());
            list<bag> c = cons(bag{1, cons(2, nil())}, nil());
            list< list<int> > d = cons(cons(3, nil()), nil());
            print(farm(firstx, a));
            print(farm(deep, b));
            print(farm(count, c));
            print(farm(viatotal, d));
            print(farm(total, d));
        }";
    let listing = compile_opt(src, OptLevel::O2).expect("compiles").disassemble_kernel();
    for (f, why) in [
        ("firstx", "its signature has a list of structs"),
        ("deep", "its signature has a list nested more than two deep"),
        ("count", "its signature has a struct of more than scalars"),
        ("viatotal", "calls a function over lists"),
    ] {
        assert!(listing.contains(&format!("{f}_1+0 [generic: {why}]")), "{f}:\n{listing}");
    }
    assert!(listing.contains("total_1+0 [typed]"), "{listing}");
}
