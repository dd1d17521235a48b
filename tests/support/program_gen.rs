//! The deterministic random Skil program generator, shared by the
//! engine-agreement proptest (`lang_engines.rs`) and the front-end
//! snapshot (`front_end_snapshot.rs`).

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
}
