//! The deterministic random Skil program generator, shared by the
//! engine-agreement tests (`lang_engines.rs`) and the front-end
//! snapshot (`front_end_snapshot.rs`).

// each of the two test crates uses its own part of this file
#![allow(dead_code)]

/// 160 bytes of generator DNA for `seed` (SplitMix64).
pub fn dna(seed: u64) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(160);
    while out.len() < 160 {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out
}

/// How the random skeleton section represents its array elements: the
/// type's name and declaration, an int expression wrapped as an
/// element, an element read back as an int, and the operator sections
/// / intrinsics that may stand in for the generated combiner.
struct ElemGen {
    ty: &'static str,
    decl: &'static str,
    wrap: fn(&str) -> String,
    unwrap: fn(&str) -> String,
    sections: &'static [&'static str],
}

const ELEM_GENS: [ElemGen; 3] = [
    ElemGen {
        ty: "int",
        decl: "",
        wrap: |e| e.to_string(),
        unwrap: |v| v.to_string(),
        sections: &["(+)", "(*)", "min", "max"],
    },
    ElemGen {
        ty: "float",
        decl: "",
        wrap: |e| format!("itof({e})"),
        unwrap: |v| format!("ftoi({v})"),
        sections: &["(+)", "fmin", "fmax"],
    },
    ElemGen {
        ty: "cell",
        decl: "struct cell { int k; int tag; };\n",
        wrap: |e| format!("cell{{{e}, 1}}"),
        unwrap: |v| format!("{v}.k"),
        sections: &[],
    },
];

/// Deterministic program generator: consumes DNA bytes and produces a
/// type-correct first-order Skil program using integer arithmetic,
/// comparisons, short-circuit logic, `if`/`while` control flow, pure
/// intrinsics, and a helper function call — the whole single-processor
/// surface both engines must agree on, charge for charge — followed by
/// a random sequence of array skeletons over an `int`, `float` or
/// struct array whose argument functions are generated the same way.
pub struct Gen<'a> {
    pub dna: &'a [u8],
    pub pos: usize,
}

impl<'a> Gen<'a> {
    fn byte(&mut self) -> u8 {
        let b = self.dna.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// An int expression over `vars`, bounded depth. `call` permits
    /// `helper(...)` — disabled inside the helper's own body so the
    /// generated program cannot recurse unboundedly.
    fn expr_in(&mut self, vars: &[String], depth: u32, call: bool) -> String {
        let b = self.byte();
        if depth == 0 {
            return if b.is_multiple_of(2) || vars.is_empty() {
                format!("{}", (b as i64 % 19) - 9)
            } else {
                vars[b as usize % vars.len()].clone()
            };
        }
        match b % 10 {
            0 => format!("{}", (self.byte() as i64 % 19) - 9),
            1 => {
                if vars.is_empty() {
                    format!("{}", (b as i64 % 19) - 9)
                } else {
                    vars[self.byte() as usize % vars.len()].clone()
                }
            }
            2 | 3 => {
                let op = ["+", "-", "*"][self.byte() as usize % 3];
                let l = self.expr_in(vars, depth - 1, call);
                let r = self.expr_in(vars, depth - 1, call);
                format!("({l} {op} {r})")
            }
            4 => {
                // division and remainder only by non-zero constants
                let op = ["/", "%"][self.byte() as usize % 2];
                let d = 1 + (self.byte() as i64 % 7);
                let l = self.expr_in(vars, depth - 1, call);
                format!("({l} {op} {d})")
            }
            5 => {
                let op = ["==", "!=", "<", "<=", ">", ">="][self.byte() as usize % 6];
                let l = self.expr_in(vars, depth - 1, call);
                let r = self.expr_in(vars, depth - 1, call);
                format!("({l} {op} {r})")
            }
            6 => {
                // short-circuit evaluation must skip the same rhs charges
                let op = ["&&", "||"][self.byte() as usize % 2];
                let l = self.expr_in(vars, depth - 1, call);
                let r = self.expr_in(vars, depth - 1, call);
                format!("({l} {op} {r})")
            }
            7 => {
                let f = ["abs", "min", "max"][self.byte() as usize % 3];
                let l = self.expr_in(vars, depth - 1, call);
                if f == "abs" {
                    format!("abs({l})")
                } else {
                    let r = self.expr_in(vars, depth - 1, call);
                    format!("{f}({l}, {r})")
                }
            }
            8 => {
                let l = self.expr_in(vars, depth - 1, call);
                format!("ftoi(itof({l}))")
            }
            _ => {
                let l = self.expr_in(vars, depth - 1, call);
                if call {
                    let r = self.expr_in(vars, depth - 1, call);
                    format!("helper({l}, {r})")
                } else {
                    format!("(0 - {l})")
                }
            }
        }
    }

    fn expr(&mut self, vars: &[String], depth: u32) -> String {
        self.expr_in(vars, depth, true)
    }

    /// Statements that only read/write existing variables.
    fn body_stmt(&mut self, vars: &[String], out: &mut String, indent: &str) {
        let target = vars[self.byte() as usize % vars.len()].clone();
        let e = self.expr(vars, 2);
        out.push_str(&format!("{indent}{target} = {e};\n"));
    }

    /// `ret name(params) { return wrap(<random int expression>); }`
    fn kernel(&mut self, e: &ElemGen, name: &str, params: &str, vars: &[String]) -> String {
        let body = self.expr(vars, 2);
        format!("{} {name}({params}) {{ return {}; }}\n", e.ty, (e.wrap)(&body))
    }

    /// A combiner for `(T, T) -> T` skeletons: the generated function,
    /// or one of the element type's sections / intrinsics.
    fn combiner(&mut self, e: &ElemGen) -> &'static str {
        let b = self.byte() as usize;
        if e.sections.is_empty() || b.is_multiple_of(2) {
            "kcomb"
        } else {
            e.sections[(b / 2) % e.sections.len()]
        }
    }

    /// The skeleton section: argument-function declarations, and the
    /// statements `main` ends with. Torus arrays `g*` serve map / copy /
    /// gen_mult / fold; row-block arrays `r*`, 1 to 8 columns wide (9 to
    /// 80 bytes per partition, across the inline envelope), serve
    /// permute / broadcast / scan.
    fn skeletons(&mut self) -> (String, String) {
        let e = &ELEM_GENS[self.byte() as usize % ELEM_GENS.len()];
        let t = e.ty;
        let ix = ["ix[0]".to_string(), "ix[1]".to_string()];
        let mut decls = e.decl.to_string();
        decls += &self.kernel(e, "kinit", "Index ix", &ix);
        let v = [(e.unwrap)("v"), ix[0].clone(), ix[1].clone()];
        decls += &self.kernel(e, "kmap", &format!("{t} v, Index ix"), &v);
        let ab = [(e.unwrap)("a"), (e.unwrap)("b")];
        decls += &self.kernel(e, "kcomb", &format!("{t} a, {t} b"), &ab);
        decls += &format!("int kkey({t} v, Index ix) {{ return {}; }}\n", (e.unwrap)("v"));
        decls += &format!("{t} kid({t} v, Index ix) {{ return v; }}\n");
        decls += "int krot(int r) { return (r + 1) % 4; }\n";

        let cols = 1 + self.byte() % 8;
        let mut body = String::new();
        for g in ["ga", "gb", "gc"] {
            body += &format!(
                "  array<{t}> {g} = array_create(2, {{4, 4}}, {{0,0}}, {{0-1,0-1}}, kinit, DISTR_TORUS2D);\n"
            );
        }
        for r in ["ra", "rb"] {
            body += &format!(
                "  array<{t}> {r} = array_create(2, {{4, {cols}}}, {{0,0}}, {{0-1,0-1}}, kinit, DISTR_DEFAULT);\n"
            );
        }
        let nops = 2 + self.byte() % 6;
        for i in 0..nops {
            body += &match self.byte() % 9 {
                0 => "  array_map(kmap, ga, gb);\n".to_string(),
                1 => "  array_map(kmap, ga, ga);\n".to_string(),
                2 => "  array_copy(gb, gc);\n".to_string(),
                3 => {
                    let (add, mul) = (self.combiner(e), self.combiner(e));
                    format!("  array_gen_mult(ga, gb, {add}, {mul}, gc);\n")
                }
                4 => format!("  array_scan({}, ra, rb);\n", self.combiner(e)),
                5 => "  array_permute_rows(ra, krot, rb);\n".to_string(),
                6 => format!("  array_broadcast_part(rb, {{{}, 0}});\n", self.byte() % 4),
                7 => {
                    let comb = self.combiner(e);
                    format!(
                        "  {t} f{i} = array_fold(kid, {comb}, gc);\n  if (procId == 0) {{ print(f{i}); }}\n"
                    )
                }
                _ => "  array_put_elem(rb, {procId, 0}, array_get_elem(ra, {procId, 0}));\n"
                    .to_string(),
            };
        }
        for (i, arr) in ["ga", "gb", "gc", "ra", "rb"].iter().enumerate() {
            body += &format!(
                "  int s{i} = array_fold(kkey, (+), {arr});\n  if (procId == 0) {{ print(s{i}); }}\n  array_destroy({arr});\n"
            );
        }
        (decls, body)
    }

    pub fn program(&mut self) -> String {
        let mut src = String::from("pardata array <$t>;\n");
        // a helper instance so Call / arity paths are exercised
        src.push_str("int helper(int a, int b) { return ");
        let h = self.expr_in(&["a".into(), "b".into()], 2, false);
        src.push_str(&h);
        src.push_str("; }\n");
        let (kernels, skeletons) = self.skeletons();
        src.push_str(&kernels);
        src.push_str("void main() {\n");
        let mut vars: Vec<String> = Vec::new();
        let ndecls = 2 + (self.byte() as usize % 3);
        for i in 0..ndecls {
            let e = self.expr(&vars, 2);
            src.push_str(&format!("  int v{i} = {e};\n"));
            vars.push(format!("v{i}"));
        }
        let nstmts = 1 + (self.byte() as usize % 5);
        for i in 0..nstmts {
            match self.byte() % 4 {
                0 => self.body_stmt(&vars, &mut src, "  "),
                1 => {
                    let c = self.expr(&vars, 2);
                    src.push_str(&format!("  if ({c}) {{\n"));
                    self.body_stmt(&vars, &mut src, "    ");
                    src.push_str("  } else {\n");
                    self.body_stmt(&vars, &mut src, "    ");
                    src.push_str("  }\n");
                }
                2 => {
                    // bounded loop: the counter is fresh per loop
                    let k = self.byte() % 5;
                    src.push_str(&format!("  int t{i} = 0;\n"));
                    src.push_str(&format!("  while (t{i} < {k}) {{\n"));
                    self.body_stmt(&vars, &mut src, "    ");
                    src.push_str(&format!("    t{i} = t{i} + 1;\n"));
                    src.push_str("  }\n");
                }
                _ => {
                    let e = self.expr(&vars, 2);
                    src.push_str(&format!("  v0 = v0 + procId * ({e});\n"));
                }
            }
        }
        for v in &vars {
            src.push_str(&format!("  print({v});\n"));
        }
        src.push_str(&skeletons);
        src.push_str("}\n");
        src
    }

    // -----------------------------------------------------------------
    // Kernel-heavy programs (`kernel_program`). `program` above is
    // pinned byte for byte by the front-end snapshot; everything below
    // is separate from it.
    // -----------------------------------------------------------------

    /// A float expression over the float variables `fv` and the int
    /// variables `iv`, bounded depth. `call` permits `fstep(...)`.
    fn fexpr(&mut self, fv: &[String], iv: &[String], depth: u32, call: bool) -> String {
        const LITS: [&str; 6] = ["0.5", "1.5", "2.0", "0.25", "3.0", "0.0"];
        let b = self.byte();
        if depth == 0 {
            return if b.is_multiple_of(2) || fv.is_empty() {
                LITS[b as usize / 2 % LITS.len()].to_string()
            } else {
                fv[b as usize % fv.len()].clone()
            };
        }
        match b % 9 {
            0 => LITS[self.byte() as usize % LITS.len()].to_string(),
            1 if !fv.is_empty() => fv[self.byte() as usize % fv.len()].clone(),
            1..=3 => {
                let op = ["+", "-", "*"][self.byte() as usize % 3];
                let l = self.fexpr(fv, iv, depth - 1, call);
                let r = self.fexpr(fv, iv, depth - 1, call);
                format!("({l} {op} {r})")
            }
            4 => {
                // now and then by zero: infinities and NaNs are values,
                // and a NaN tells `!(a < b)` from `a >= b`
                let d = ["2.0", "4.0", "0.5", "3.0", "2.0", "4.0", "0.5", "0.0"]
                    [self.byte() as usize % 8];
                let l = self.fexpr(fv, iv, depth - 1, call);
                format!("({l} / {d})")
            }
            5 => format!("itof({})", self.expr_in(iv, depth - 1, false)),
            6 => {
                let l = self.fexpr(fv, iv, depth - 1, call);
                match self.byte() % 4 {
                    0 => format!("fabs({l})"),
                    1 => format!("sqrt(fabs({l}))"),
                    2 => format!("fmin({l}, {})", self.fexpr(fv, iv, depth - 1, call)),
                    _ => format!("fmax({l}, {})", self.fexpr(fv, iv, depth - 1, call)),
                }
            }
            7 => format!("(-{})", self.fexpr(fv, iv, depth - 1, call)),
            _ => {
                let l = self.fexpr(fv, iv, depth - 1, call);
                if call {
                    let r = self.fexpr(fv, iv, depth - 1, call);
                    format!("fstep({l}, {r})")
                } else {
                    format!("(0.0 - {l})")
                }
            }
        }
    }

    /// A condition: a float comparison, an int comparison, or a
    /// short-circuit pair of them.
    fn cond(&mut self, fv: &[String], iv: &[String]) -> String {
        let op = ["<", "<=", ">", ">=", "==", "!="][self.byte() as usize % 6];
        match self.byte() % 4 {
            0 => format!("{} {op} {}", self.expr_in(iv, 1, false), self.expr_in(iv, 1, false)),
            1 => {
                let l = self.cond(fv, iv);
                let r = self.cond(fv, iv);
                let join = ["&&", "||"][self.byte() as usize % 2];
                format!("({l}) {join} ({r})")
            }
            _ => format!("{} {op} {}", self.fexpr(fv, iv, 1, true), self.fexpr(fv, iv, 1, true)),
        }
    }

    /// `acc = ...;` / `t = ...;` / `n = ...;`, or an `if` around two.
    fn kernel_stmt(&mut self, fv: &[String], iv: &[String], out: &mut String, indent: &str) {
        match self.byte() % 4 {
            0 => {
                let e = self.expr_in(iv, 2, true);
                out.push_str(&format!("{indent}n = {e};\n"));
            }
            1 if indent.len() < 10 => {
                let c = self.cond(fv, iv);
                out.push_str(&format!("{indent}if ({c}) {{\n"));
                self.kernel_stmt(fv, iv, out, &format!("{indent}    "));
                out.push_str(&format!("{indent}}} else {{\n"));
                self.kernel_stmt(fv, iv, out, &format!("{indent}    "));
                out.push_str(&format!("{indent}}}\n"));
            }
            b => {
                let target = ["acc", "t"][b as usize % 2];
                let e = self.fexpr(fv, iv, 2, true);
                out.push_str(&format!("{indent}{target} = {e};\n"));
            }
        }
    }

    /// The body of a kernel with float and int locals and a bounded
    /// loop: `seed_f` / `seed_i` initialize `acc` and `n` from the
    /// parameters, `reads` are `array_get_elem` expressions (float-typed)
    /// the loop may use, `ret` turns `acc` / `n` into the result.
    fn kernel_body(&mut self, seed_f: &str, seed_i: &str, reads: &[String], ret: &str) -> String {
        let mut fv: Vec<String> = vec!["acc".into(), "t".into()];
        fv.extend_from_slice(reads);
        let iv: Vec<String> = vec!["n".into(), "k".into(), "ix[0]".into(), "ix[1]".into()];
        let mut body =
            format!("    float acc = {seed_f};\n    float t = 0.0;\n    int n = {seed_i};\n");
        let trips = self.byte() % 4;
        body += &format!("    int k = 0;\n    while (k < {trips}) {{\n");
        for _ in 0..1 + self.byte() % 3 {
            self.kernel_stmt(&fv, &iv, &mut body, "        ");
        }
        body += "        k = k + 1;\n    }\n";
        if self.byte().is_multiple_of(3) {
            let c = self.cond(&fv, &iv);
            body += &format!("    if ({c}) {{ return {ret}; }}\n");
            self.kernel_stmt(&fv, &iv, &mut body, "    ");
        }
        body + &format!("    return {ret};\n")
    }

    /// A program whose work is in its skeleton argument functions:
    /// `float` locals and loops, partial applications whose lifted
    /// arguments include array handles, `array_get_elem` reads of other
    /// arrays (at the element's own index, so always local), a float
    /// helper that is called, and every `(T, T) -> T` skeleton with a
    /// generated combiner.
    pub fn kernel_program(&mut self) -> String {
        let mut src = String::from("pardata array <$t>;\n");
        src += "int helper(int a, int b) { return ";
        src += &self.expr_in(&["a".into(), "b".into()], 2, false);
        src += "; }\nfloat fstep(float x, float y) { return ";
        src += &self.fexpr(&["x".into(), "y".into()], &[], 2, false);
        src += "; }\n";

        let ix = ["ix[0]".to_string(), "ix[1]".to_string()];
        src += &format!("int iinit(Index ix) {{ return {}; }}\n", self.expr_in(&ix, 2, true));
        src += "float finit(Index ix) {\n";
        src +=
            &self.kernel_body("itof(ix[0] - ix[1])", "ix[0] * 4 + ix[1]", &[], "acc + itof(n % 7)");
        src += "}\n";
        // lifted: an int array handle and a float; reads it both ways
        src += "float fmapk(array<int> src, float scale, float v, Index ix) {\n";
        let reads = [
            "itof(array_get_elem(src, ix))".to_string(),
            "itof(array_get_elem(src, {ix[0], ix[1]}))".to_string(),
            "scale".into(),
            "v".into(),
        ];
        src += &self.kernel_body("v * scale", "array_get_elem(src, ix)", &reads, "acc");
        src += "}\n";
        // lifted: a float array handle and an int
        src += "int imapk(array<float> fsrc, int c, int v, Index ix) {\n";
        let reads = ["array_get_elem(fsrc, ix)".to_string(), "itof(c)".into(), "itof(v)".into()];
        src += &self.kernel_body(
            "array_get_elem(fsrc, {ix[0], ix[1]})",
            "v + c",
            &reads,
            "n + ftoi(fmin(fmax(acc, -99.0), 99.0))",
        );
        src += "}\n";
        src += "float fcomb(float a, float b) {\n";
        let ab = ["a".to_string(), "b".to_string()];
        let c = self.cond(&ab, &[]);
        src += &format!("    float m = {};\n", self.fexpr(&ab, &[], 2, true));
        src += &format!(
            "    if ({c}) {{ return m; }}\n    return {};\n}}\n",
            self.fexpr(&ab, &[], 1, true)
        );
        src += "float fkey(float v, Index ix) { return v; }\n";
        src += "int ikey(int v, Index ix) { return v; }\n";
        src += "int rot(int s, int r) { return (r + s) % 4; }\n";

        src += "void main() {\n";
        for a in ["ia", "ib"] {
            src += &format!("  array<int> {a} = array_create(2, {{4, 4}}, {{0,0}}, {{0-1,0-1}}, iinit, DISTR_TORUS2D);\n");
        }
        for a in ["fa", "fb", "fc"] {
            src += &format!("  array<float> {a} = array_create(2, {{4, 4}}, {{0,0}}, {{0-1,0-1}}, finit, DISTR_TORUS2D);\n");
        }
        for a in ["ra", "rb"] {
            src += &format!("  array<float> {a} = array_create(2, {{4, 3}}, {{0,0}}, {{0-1,0-1}}, finit, DISTR_DEFAULT);\n");
        }
        for i in 0..3 + self.byte() % 5 {
            let scale = ["0.5", "2.0", "1.5"][self.byte() as usize % 3];
            let c = self.byte() % 5;
            src += &match self.byte() % 7 {
                0 => format!("  array_map(fmapk(ia, {scale}), fa, fb);\n"),
                1 => format!("  array_map(fmapk(ib, {scale}), fb, fb);\n"),
                2 => format!("  array_map(imapk(fb, {c}), ia, ib);\n"),
                3 => format!("  array_map(imapk(fa, {c}), ib, ib);\n"),
                4 => "  array_gen_mult(fa, fb, fcomb, (*), fc);\n".to_string(),
                5 => format!("  array_scan(fcomb, ra, rb);\n  array_permute_rows(rb, rot({c}), ra);\n"),
                _ => format!("  float r{i} = array_fold(fkey, fcomb, fb);\n  if (procId == 0) {{ print(r{i}); }}\n"),
            };
        }
        for a in ["fa", "fb", "fc", "ra", "rb"] {
            src += &format!("  float s{a} = array_fold(fkey, (+), {a});\n  if (procId == 0) {{ print(s{a}); }}\n");
        }
        for a in ["ia", "ib"] {
            src += &format!(
                "  int s{a} = array_fold(ikey, (+), {a});\n  if (procId == 0) {{ print(s{a}); }}\n"
            );
        }
        src + "}\n"
    }

    // -----------------------------------------------------------------
    // List programs (`list_program`): `dc` and `farm` argument functions
    // over `list<int>`, `list<float>` and lists of those. Separate from
    // everything above, whose output stays as it is.
    // -----------------------------------------------------------------

    /// An int expression over `vars` that may be a list's length.
    fn list_int(&mut self, vars: &[String], depth: u32) -> String {
        self.expr_in(vars, depth, false)
    }

    /// `name` gets a parity split of `p`: two strictly smaller parts of
    /// a list of two or more, and now and then an empty third one.
    fn list_split(&mut self, name: &str, t: &str) -> String {
        let empty = if self.byte().is_multiple_of(3) { "cons(nil(), " } else { "" };
        let close = if empty.is_empty() { "" } else { ")" };
        format!(
            "list< list<{t}> > {name}(list<{t}> p) {{
    list<{t}> a = nil();
    list<{t}> b = nil();
    int i = 0;
    while (len(p) > 0) {{
        if (i % 2 == 0) {{ a = cons(head(p), a); }} else {{ b = cons(head(p), b); }}
        p = tail(p);
        i = i + 1;
    }}
    return {empty}cons(a, cons(b, nil())){close};
}}\n"
        )
    }

    /// A program whose skeleton argument functions work on lists: a
    /// `dc` over `list<int>` (solved with a lifted `int`, split into a
    /// `list<list<int>>`, joined with `append`), a `dc` over
    /// `list<float>` to a `float`, and `farm`s whose workers loop over
    /// an `int` list, a `float` list, and a lifted list, or call a
    /// function over `int`s that builds a list of its own. Loops update
    /// their lists in place (`l = tail(l)`, `l = cons(x, l)`).
    pub fn list_program(&mut self) -> String {
        let mut src = String::new();
        let k = 1 + self.byte() % 3;
        src += &format!("int ltriv(list<int> p) {{ return len(p) <= {k}; }}\n");
        let keep = self.list_int(&["x".into(), "c".into()], 1);
        let val = self.list_int(&["x".into(), "c".into(), "len(out)".into()], 2);
        src += &format!(
            "list<int> lsolve(int c, list<int> p) {{
    list<int> out = nil();
    while (len(p) > 0) {{
        int x = head(p);
        if (x >= {keep}) {{ out = cons(x + ({val}), out); }}
        p = tail(p);
    }}
    return out;
}}\n"
        );
        src += &self.list_split("lsplit", "int");
        let joined = if self.byte().is_multiple_of(2) {
            "append(out, head(parts))"
        } else {
            "append(head(parts), out)"
        };
        let mark = if self.byte().is_multiple_of(2) { "cons(len(out), out)" } else { "out" };
        src += &format!(
            "list<int> ljoin(list< list<int> > parts) {{
    list<int> out = nil();
    while (len(parts) > 0) {{
        out = {joined};
        parts = tail(parts);
    }}
    return {mark};
}}\n"
        );

        let k = 1 + self.byte() % 3;
        src += &format!("int ftriv(list<float> p) {{ return len(p) <= {k}; }}\n");
        let step = self.fexpr(&["s".into(), "head(p)".into()], &["len(p)".into()], 2, false);
        src += &format!(
            "float fsolve(list<float> p) {{
    float s = 0.5;
    while (len(p) > 0) {{
        s = s * 0.5 + head(p) - ({step});
        p = tail(p);
    }}
    return s;
}}\n"
        );
        src += &self.list_split("fsplit", "float");
        src += "float fjoin(list<float> parts) {
    float s = 0.0;
    while (len(parts) > 0) { s = s + head(parts); parts = tail(parts); }
    return s;
}\n";

        // a list built and read back inside a function over scalars,
        // called from typed code with and without lists of its own
        let step = self.list_int(&["i".into(), "k".into()], 1);
        src += &format!(
            "int lsum(int k) {{
    list<int> l = nil();
    int i = 0;
    while (i < abs(k) % 5) {{ l = cons({step}, l); i = i + 1; }}
    int s = 0;
    while (len(l) > 0) {{ s = s * 2 + head(l); l = tail(l); }}
    return s;
}}
int wnum(int t) {{ return lsum(t) + t; }}\n"
        );
        let score = self.list_int(&["n".into(), "head(t)".into(), "c".into()], 2);
        src += &format!(
            "int wscore(int c, list<int> t) {{
    int n = c;
    while (len(t) > 0) {{ n = n * 3 + head(t) - ({score}) + lsum(n); t = tail(t); }}
    return n;
}}\n"
        );
        let fstep = self.fexpr(&["s".into(), "head(t)".into()], &[], 2, false);
        src += &format!(
            "float wsum(list<float> t) {{
    float s = 0.0;
    while (len(t) > 0) {{ s = s + head(t) * ({fstep}); t = tail(t); }}
    return s;
}}\n"
        );
        // a lifted list, and a list of lists built and read back
        let item = self.list_int(&["i".into(), "t".into()], 1);
        src += &format!(
            "list< list<int> > wchunk(list<int> base, int t) {{
    list< list<int> > out = nil();
    list<int> cur = nil();
    list<int> b = base;
    int i = 0;
    while (i < abs(t) % 4 + 1) {{
        cur = cons({item}, cur);
        if (len(b) > 0) {{ cur = cons(head(b), cur); b = tail(b); }}
        out = cons(cur, out);
        if (len(out) > 2) {{ cur = append(head(tail(out)), nil()); }}
        i = i + 1;
    }}
    return out;
}}\n"
        );

        src += "void main() {\n    int i;\n";
        let (n, m) = (4 + self.byte() % 24, 3 + self.byte() % 40);
        let elem = self.list_int(&["i".into()], 2);
        src += &format!(
            "    list<int> l = nil();
    for (i = 0; i < {n}; i = i + 1) {{ l = cons((i * {m}) % 29 + ({elem}), l); }}\n"
        );
        let n = 2 + self.byte() % 12;
        let felem = self.fexpr(&[], &["i".into()], 2, false);
        src += &format!(
            "    list<float> fl = nil();
    for (i = 0; i < {n}; i = i + 1) {{ fl = cons(itof(i % 5) * 1.25 + ({felem}), fl); }}\n"
        );
        src += "    list< list<int> > tasks = nil();\n    list< list<float> > ftasks = nil();\n";
        src += "    list<int> cur = nil();\n    list<float> fcur = nil();\n";
        let n = 1 + self.byte() % 6;
        src += &format!(
            "    for (i = 0; i < {n}; i = i + 1) {{
        cur = cons(i * 3 - 2, cur);
        fcur = cons(itof(i) * 0.75, fcur);
        tasks = cons(cur, tasks);
        ftasks = cons(fcur, ftasks);
    }}\n"
        );
        let c = self.byte() as i64 % 9 - 4;
        let c2 = self.byte() as i64 % 9 - 4;
        src += &format!(
            "    list<int> sorted = dc(ltriv, lsolve({c}), lsplit, ljoin, l);
    float area = dc(ftriv, fsolve, fsplit, fjoin, fl);
    list<int> scores = farm(wscore({c2}), tasks);
    list<float> sums = farm(wsum, ftasks);
    list< list< list<int> > > chunks = farm(wchunk(l), cur);
    list<int> nums = farm(wnum, cur);
    if (procId == 0) {{ print(sorted); print(area); print(scores); print(sums); print(chunks); print(nums); }}
}}\n"
        );
        src
    }
}
