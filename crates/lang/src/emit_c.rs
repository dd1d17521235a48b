//! C pretty-printer for instantiated programs.
//!
//! Shows what the Skil compiler hands to its back-end C compiler: the
//! specialized first-order monomorphic instances, with skeleton calls
//! rendered as calls of specialized skeleton instances (`array_map_1(t,
//! A, B)`), exactly the shape of the paper's §2.4 example.

#![forbid(unsafe_code)]

use crate::fo::*;
use crate::sym::Names;
use crate::token::Lits;
use std::fmt::Write;

/// Emit the whole program as C-like text.
pub fn emit_c(prog: &FoProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "/* generated by skil-lang: translation by instantiation */");
    let _ = writeln!(out, "#include \"skil_runtime.h\"\n");

    for s in &prog.structs {
        let _ = writeln!(out, "typedef struct {{");
        for (fname, fty) in s.fields.iter() {
            let _ = writeln!(out, "    {} {};", fty.cname(&prog.names), prog.name(*fname));
        }
        let _ = writeln!(out, "}} {};\n", prog.name(s.name));
    }

    // forward declarations
    for f in &prog.funcs {
        let _ = writeln!(out, "{};", signature(prog, f));
    }
    let _ = writeln!(out);

    let mut skel_instances: Vec<String> = Vec::new();
    for f in &prog.funcs {
        let _ = writeln!(out, "{}", signature(prog, f));
        let _ = writeln!(out, "{{");
        let mut e = Emitter { names: &prog.names, lits: &prog.lits, skels: &mut skel_instances };
        for s in f.body.iter() {
            e.stmt(&mut out, s, 1);
        }
        let _ = writeln!(out, "}}\n");
    }

    if !skel_instances.is_empty() {
        let _ = writeln!(
            out,
            "/* specialized skeleton instances (argument functions inlined,\n\
             \x20  partial-application arguments lifted): */"
        );
        skel_instances.sort();
        skel_instances.dedup();
        for s in &skel_instances {
            let _ = writeln!(out, "/*   {s} */");
        }
    }
    out
}

fn signature(prog: &FoProgram, f: &FoFunc) -> String {
    let names = &prog.names;
    let params: Vec<String> =
        f.params.iter().map(|(n, t)| format!("{} {}", t.cname(names), names.get(*n))).collect();
    format!(
        "{} {}({})",
        f.ret.cname(names),
        names.get(f.name),
        if params.is_empty() { "void".to_string() } else { params.join(", ") }
    )
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

/// Walks function bodies, spelling names and literals through the
/// program's tables and collecting the specialized skeleton instances
/// it meets.
struct Emitter<'a> {
    names: &'a Names,
    lits: &'a Lits,
    skels: &'a mut Vec<String>,
}

impl Emitter<'_> {
    fn stmt(&mut self, out: &mut String, s: &FoStmt, level: usize) {
        match s {
            FoStmt::Decl { name, ty, init } => {
                indent(out, level);
                match init {
                    Some(e) => {
                        let _ = writeln!(
                            out,
                            "{} {} = {};",
                            ty.cname(self.names),
                            self.names.get(*name),
                            self.expr(e)
                        );
                    }
                    None => {
                        let _ =
                            writeln!(out, "{} {};", ty.cname(self.names), self.names.get(*name));
                    }
                }
            }
            FoStmt::Assign { name, value } => {
                indent(out, level);
                let _ = writeln!(out, "{} = {};", self.names.get(*name), self.expr(value));
            }
            FoStmt::If { cond, then, els } => {
                indent(out, level);
                let _ = writeln!(out, "if ({}) {{", self.expr(cond));
                for s in then.iter() {
                    self.stmt(out, s, level + 1);
                }
                if els.is_empty() {
                    indent(out, level);
                    let _ = writeln!(out, "}}");
                } else {
                    indent(out, level);
                    let _ = writeln!(out, "}} else {{");
                    for s in els.iter() {
                        self.stmt(out, s, level + 1);
                    }
                    indent(out, level);
                    let _ = writeln!(out, "}}");
                }
            }
            FoStmt::While { cond, body } => {
                indent(out, level);
                let _ = writeln!(out, "while ({}) {{", self.expr(cond));
                for s in body.iter() {
                    self.stmt(out, s, level + 1);
                }
                indent(out, level);
                let _ = writeln!(out, "}}");
            }
            FoStmt::For { init, cond, step, body } => {
                indent(out, level);
                let i = init.as_ref().map_or(String::new(), |s| self.inline_stmt(s));
                let c = cond.as_ref().map_or(String::new(), |e| self.expr(e));
                let st = step.as_ref().map_or(String::new(), |s| self.inline_stmt(s));
                let _ = writeln!(out, "for ({i} ; {c} ; {st}) {{");
                for s in body.iter() {
                    self.stmt(out, s, level + 1);
                }
                indent(out, level);
                let _ = writeln!(out, "}}");
            }
            FoStmt::Return(e) => {
                indent(out, level);
                match e {
                    Some(e) => {
                        let _ = writeln!(out, "return {};", self.expr(e));
                    }
                    None => {
                        let _ = writeln!(out, "return;");
                    }
                }
            }
            FoStmt::Expr(e) => {
                indent(out, level);
                let _ = writeln!(out, "{};", self.expr(e));
            }
        }
    }

    fn inline_stmt(&mut self, s: &FoStmt) -> String {
        match s {
            FoStmt::Decl { name, ty, init: Some(e) } => {
                format!("{} {} = {}", ty.cname(self.names), self.names.get(*name), self.expr(e))
            }
            FoStmt::Decl { name, ty, init: None } => {
                format!("{} {}", ty.cname(self.names), self.names.get(*name))
            }
            FoStmt::Assign { name, value } => {
                format!("{} = {}", self.names.get(*name), self.expr(value))
            }
            _ => "/* stmt */".into(),
        }
    }

    fn expr(&mut self, e: &FoExpr) -> String {
        match e {
            FoExpr::Int(slot) => self.lits.int(*slot).to_string(),
            FoExpr::Float(slot) => {
                let s = format!("{}", self.lits.float(*slot));
                if s.contains('.') || s.contains('e') {
                    s
                } else {
                    format!("{s}.0")
                }
            }
            FoExpr::Var(n) => self.names.get(*n).to_string(),
            FoExpr::Call(name, args) => {
                let a: Vec<String> = args.iter().map(|x| self.expr(x)).collect();
                format!("{}({})", self.names.get(*name), a.join(", "))
            }
            FoExpr::Intrinsic(op, args) => {
                if args.is_empty() {
                    op.name().to_string()
                } else {
                    let a: Vec<String> = args.iter().map(|x| self.expr(x)).collect();
                    format!("{}({})", op.name(), a.join(", "))
                }
            }
            FoExpr::Skel(call) => {
                let SkelCall { op, fns, args, elem } = &**call;
                // The paper's shape: the skeleton call becomes a call of a
                // specialized instance with the lifted arguments prepended.
                let mut suffix_parts: Vec<String> = Vec::new();
                let mut call_args: Vec<String> = Vec::new();
                for fi in fns.iter() {
                    suffix_parts.push(self.names.get(fi.func).to_string());
                    for l in fi.lifted.iter() {
                        call_args.push(self.expr(l));
                    }
                }
                for a in args.iter() {
                    call_args.push(self.expr(a));
                }
                let inst_name = if suffix_parts.is_empty() {
                    format!("{}_{}", op.name(), elem.cname(self.names))
                } else {
                    format!("{}__{}", op.name(), suffix_parts.join("__"))
                };
                self.skels.push(format!(
                    "{inst_name}: {} specialized for <{}>{}",
                    op.name(),
                    elem.cname(self.names),
                    if fns.is_empty() {
                        String::new()
                    } else {
                        format!(" with inlined argument function(s) {}", suffix_parts.join(", "))
                    }
                ));
                format!("{inst_name}({})", call_args.join(", "))
            }
            FoExpr::Binary { op, args, .. } => {
                format!("({} {} {})", self.expr(&args[0]), op.lexeme(), self.expr(&args[1]))
            }
            FoExpr::Unary { neg, expr, .. } => {
                format!("({}{})", if *neg { "-" } else { "!" }, self.expr(expr))
            }
            FoExpr::Field { expr, name, .. } => {
                format!("{}.{}", self.expr(expr), self.names.get(*name))
            }
            FoExpr::IndexAt(args) => {
                format!("{}[{}]", self.expr(&args[0]), self.expr(&args[1]))
            }
            FoExpr::MakeIndex(es) => {
                let a: Vec<String> = es.iter().map(|x| self.expr(x)).collect();
                format!("(Index){{{}}}", a.join(", "))
            }
            FoExpr::MakeStruct(name, es) => {
                let a: Vec<String> = es.iter().map(|x| self.expr(x)).collect();
                format!("({}){{{}}}", self.names.get(*name), a.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::instantiate::instantiate;
    use crate::parser::parse;

    fn emit(src: &str) -> String {
        let p = parse(src).unwrap();
        let mut ck = check(&p).unwrap();
        let fo = instantiate(&mut ck).unwrap();
        emit_c(&fo)
    }

    #[test]
    fn emits_the_papers_map_example_shape() {
        let c = emit(
            "int above_thresh(float thresh, float elem, Index ix) { return elem >= thresh; }\n\
             float init_f(Index ix) { return itof(ix[0]); }\n\
             int zero(Index ix) { return 0; }\n\
             void main() {\n\
               array<float> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, init_f, DISTR_DEFAULT);\n\
               array<int> b = array_create(1, {8,1}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);\n\
               float t = 3.0;\n\
               array_map(above_thresh(t), a, b);\n\
             }",
        );
        // the lifted argument t travels in the specialized call
        assert!(c.contains("array_map__above_thresh_1(t, a, b)"), "{c}");
        // the instance itself is a plain first-order C function
        assert!(c.contains("int above_thresh_1(float thresh, float elem, Index ix)"), "{c}");
        // array types are rendered like the paper's floatarray/intarray
        assert!(c.contains("floatarray a"), "{c}");
        assert!(c.contains("intarray b"), "{c}");
    }

    #[test]
    fn emits_structs_and_loops() {
        let c = emit(
            "struct rec { float v; int r; };\n\
             void main() {\n\
               rec e = rec{1.5, 2};\n\
               int i;\n\
               int s = 0;\n\
               for (i = 0 ; i < 10 ; i = i + 1) { s = s + i; }\n\
               while (s > 0) { s = s - 3; }\n\
               if (s == 0) { print(e.r); } else { print(s); }\n\
             }",
        );
        assert!(c.contains("typedef struct {"));
        assert!(c.contains("float v;"));
        assert!(c.contains("for (i = 0 ; (i < 10) ; i = (i + 1)) {"), "{c}");
        assert!(c.contains("while ((s > 0)) {"));
        assert!(c.contains("} else {"));
        assert!(c.contains("print(e.r);"));
    }

    #[test]
    fn float_literals_keep_a_decimal_point() {
        let c = emit("void main() { float x = 2.0; print(x); }");
        assert!(c.contains("2.0"), "{c}");
    }
}
