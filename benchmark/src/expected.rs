//! The correctness gate: what every response must say.
//!
//! Answers live in `expected/<workload>.json`, keyed by
//! [`Class::answer_key`]. They are written by `--regen-expected` from
//! the reference AST walker called as a library, never by the engines
//! the benchmark times and never during a measured run. An answer does
//! not name an engine, so `vm` and `native` must agree with the
//! reference and therefore with each other.

use std::collections::BTreeMap;
use std::path::Path;

use skil_lang::{compile_opt, Engine, OptLevel};
use skil_runtime::{FaultPlan, Machine, MachineConfig, Topology};
use skil_serve::json::{self, obj, Json};

use crate::workloads::{splice_constant, workload, Class, Shape, Workload, WORKLOAD_NAMES};

/// What a class's response must be.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// `ok:true` with exactly these per-processor output lines and this
    /// virtual time. For a `cold_compile` class the lines are the
    /// template's own; the request's constant goes in front.
    Ok { results: Vec<Vec<String>>, sim_cycles: u64 },
    /// `ok:false` with this `error.kind` and this text in the message.
    Error { kind: String, contains: String },
}

/// The answers of one workload.
pub struct Expected(BTreeMap<String, Answer>);

fn embedded(workload: &str) -> &'static str {
    match workload {
        "hot_small" => include_str!("../expected/hot_small.json"),
        "cold_compile" => include_str!("../expected/cold_compile.json"),
        "kernel" => include_str!("../expected/kernel.json"),
        "message_bound" => include_str!("../expected/message_bound.json"),
        other => panic!("no expected file for workload `{other}`"),
    }
}

fn string_rows(v: &Json) -> Option<Vec<Vec<String>>> {
    let Json::Arr(rows) = v else { return None };
    rows.iter()
        .map(|row| {
            let Json::Arr(lines) = row else { return None };
            lines.iter().map(|l| l.as_str().map(str::to_string)).collect()
        })
        .collect()
}

fn rows_json(rows: &[Vec<String>]) -> Json {
    Json::Arr(rows.iter().map(|r| Json::Arr(r.iter().cloned().map(Json::Str).collect())).collect())
}

impl Expected {
    /// The committed answers of `workload`, checked to cover its classes.
    pub fn load(w: &Workload) -> Result<Expected, String> {
        let parsed = json::parse(embedded(w.name))
            .map_err(|e| format!("expected/{}.json does not parse: {e}", w.name))?;
        let Json::Obj(map) = parsed else {
            return Err(format!("expected/{}.json is not an object", w.name));
        };
        let mut answers = BTreeMap::new();
        for (key, v) in map {
            let answer = if let Some(kind) = v.get("error_kind").and_then(Json::as_str) {
                let contains = v.get("error_contains").and_then(Json::as_str);
                Answer::Error {
                    kind: kind.to_string(),
                    contains: contains.ok_or(format!("`{key}`: no error_contains"))?.to_string(),
                }
            } else {
                Answer::Ok {
                    results: v
                        .get("results")
                        .and_then(string_rows)
                        .ok_or(format!("`{key}`: bad results"))?,
                    sim_cycles: v
                        .get("sim_cycles")
                        .and_then(Json::as_u64)
                        .ok_or(format!("`{key}`: bad sim_cycles"))?,
                }
            };
            answers.insert(key, answer);
        }
        for c in &w.classes {
            if !answers.contains_key(&c.answer_key()) {
                return Err(format!(
                    "expected/{}.json has no answer for `{}`; run --regen-expected",
                    w.name,
                    c.answer_key()
                ));
            }
        }
        Ok(Expected(answers))
    }

    /// Check one response line. `sweep` is the request's own constant.
    pub fn check(&self, class: &Class, sweep: Option<u64>, response: &str) -> Result<(), String> {
        let v = json::parse(response).map_err(|e| format!("response is not JSON: {e}"))?;
        let ok = matches!(v.get("ok"), Some(Json::Bool(true)));
        match &self.0[&class.answer_key()] {
            Answer::Ok { results, sim_cycles } => {
                if !ok {
                    return Err(format!("expected ok, got {response}"));
                }
                let mut want = results.clone();
                if let Some(k) = sweep {
                    want[0].insert(0, k.to_string());
                }
                let got = v.get("results").and_then(string_rows);
                if got.as_ref() != Some(&want) {
                    return Err(format!("results {got:?}, expected {want:?}"));
                }
                let got = v.get("sim_cycles").and_then(Json::as_u64);
                if got != Some(*sim_cycles) {
                    return Err(format!("sim_cycles {got:?}, expected {sim_cycles}"));
                }
            }
            Answer::Error { kind, contains } => {
                let err = v.get("error");
                let got_kind = err.and_then(|e| e.get("kind")).and_then(Json::as_str);
                let message = err.and_then(|e| e.get("message")).and_then(Json::as_str);
                if ok || got_kind != Some(kind) || !message.is_some_and(|m| m.contains(contains)) {
                    return Err(format!(
                        "expected a `{kind}` error with \"{contains}\", got {response}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The machine a class runs on, as `skild` would build it.
pub fn topology_of(shape: Shape) -> Topology {
    let spec = match shape {
        Shape::Mesh(m) => format!("mesh2d:{m}"),
        Shape::Topology(t) => t.to_string(),
    };
    Topology::parse(&spec).unwrap_or_else(|e| panic!("bad shape {spec}: {e}"))
}

/// `(results, sim_cycles)` of a run, or `(error kind, message)`.
type Outcome = Result<(Vec<Vec<String>>, u64), (&'static str, String)>;

/// Run `src` on the reference engine.
fn reference(class: &Class, src: &str) -> Outcome {
    let compiled = compile_opt(src, OptLevel::default()).map_err(|e| ("compile", e.to_string()))?;
    let machine =
        Machine::new(MachineConfig::on_topology(topology_of(class.shape)).expect("machine shape"));
    let faults = class.faults.map(|f| FaultPlan::parse(f).expect("fault plan"));
    let run = compiled
        .try_run_faults(Engine::Ast, &machine, faults.as_ref())
        .map_err(|e| ("runtime", e.to_string()))?;
    Ok((run.results, run.report.sim_cycles))
}

/// The answer of one class, from the reference engine.
fn answer(w: &Workload, class: &Class) -> Result<Answer, String> {
    let Some(src) = class.program() else {
        // Not a program: no engine is involved, the expectation is the
        // protocol's (DESIGN.md §14).
        let (kind, contains) = class.error.expect("the malformed line expects an error");
        return Ok(Answer::Error { kind: kind.into(), contains: contains.into() });
    };
    if let Some((kind, contains)) = class.error {
        return match reference(class, &src) {
            Err((got, message)) if got == kind && message.contains(contains) => {
                Ok(Answer::Error { kind: kind.into(), contains: contains.into() })
            }
            other => Err(format!("{}: reference gave {other:?}, not a {kind} error", class.name)),
        };
    }
    if !w.sweep {
        let (results, sim_cycles) = reference(class, &src).map_err(|e| format!("{e:?}"))?;
        return Ok(Answer::Ok { results, sim_cycles });
    }
    // A sweep template: two constants must differ in the first output
    // line of processor 0 and in nothing else, virtual time included.
    let variant =
        |k: u64| reference(class, &splice_constant(&src, k)).map_err(|e| format!("{e:?}"));
    let (mut a, cycles_a) = variant(123_456_789)?;
    let (mut b, cycles_b) = variant(987_654_321)?;
    if (a[0].remove(0), b[0].remove(0)) != ("123456789".to_string(), "987654321".to_string()) {
        return Err(format!("{}: the constant is not the first line printed", class.name));
    }
    if a != b || cycles_a != cycles_b {
        return Err(format!("{}: variants differ beyond their constant", class.name));
    }
    Ok(Answer::Ok { results: a, sim_cycles: cycles_a })
}

/// Rewrite every `expected/<workload>.json` under `dir`.
pub fn regenerate(dir: &Path) -> Result<(), String> {
    for name in WORKLOAD_NAMES {
        let w = workload(name).expect("known workload");
        let mut answers = BTreeMap::new();
        for class in &w.classes {
            answers.insert(class.answer_key(), answer(&w, class)?);
        }
        // One answer per line, so that a changed answer is a one-line diff.
        let lines: Vec<String> = answers
            .iter()
            .map(|(key, a)| {
                let value = match a {
                    Answer::Ok { results, sim_cycles } => obj(vec![
                        ("results", rows_json(results)),
                        ("sim_cycles", Json::Num(*sim_cycles as f64)),
                    ]),
                    Answer::Error { kind, contains } => obj(vec![
                        ("error_kind", Json::Str(kind.clone())),
                        ("error_contains", Json::Str(contains.clone())),
                    ]),
                };
                format!("\"{}\": {value}", json::escape(key))
            })
            .collect();
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, format!("{{\n{}\n}}\n", lines.join(",\n")))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {} ({} answers)", path.display(), answers.len());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded(name: &str) -> (Workload, Expected) {
        let w = workload(name).unwrap();
        let e = Expected::load(&w).unwrap();
        (w, e)
    }

    #[test]
    fn the_repository_goldens_are_among_the_answers() {
        let (_, e) = loaded("kernel");
        let cycles = |key: &str| match &e.0[key] {
            Answer::Ok { sim_cycles, .. } => *sim_cycles,
            other => panic!("{other:?}"),
        };
        assert_eq!(cycles("shortest_paths N=16 mesh=2x2"), 2_397_316);
        assert_eq!(cycles("gauss N=16 mesh=2x2"), 11_906_936);
    }

    #[test]
    fn a_right_answer_passes_and_a_wrong_one_does_not() {
        let (w, e) = loaded("hot_small");
        let hello = &w.classes[0];
        let good = r#"{"ok":true,"id":"q0","results":[["7"],[],[],[]],"sim_cycles":310}"#;
        assert_eq!(e.check(hello, None, good), Ok(()));
        for bad in [
            r#"{"ok":true,"id":"q0","results":[["8"],[],[],[]],"sim_cycles":310}"#,
            r#"{"ok":true,"id":"q0","results":[["7"],[],[],[]],"sim_cycles":311}"#,
            r#"{"ok":false,"id":"q0","error":{"kind":"internal","message":"engine panicked"}}"#,
            "not json",
        ] {
            assert!(e.check(hello, None, bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn an_expected_error_is_a_success_only_with_its_kind_and_text() {
        let (w, e) = loaded("hot_small");
        let div = w.classes.iter().find(|c| c.name == "div_zero").unwrap();
        let good =
            r#"{"ok":false,"error":{"kind":"runtime","message":"x: integer division by zero"}}"#;
        assert_eq!(e.check(div, None, good), Ok(()));
        let wrong_kind =
            r#"{"ok":false,"error":{"kind":"internal","message":"integer division by zero"}}"#;
        assert!(e.check(div, None, wrong_kind).is_err());
        let ran = r#"{"ok":true,"results":[[],[],[],[]],"sim_cycles":1}"#;
        assert!(e.check(div, None, ran).is_err());
    }

    #[test]
    fn a_sweep_variant_must_print_its_own_constant_first() {
        let (w, e) = loaded("cold_compile");
        let farm = &w.classes[0];
        let Answer::Ok { results, sim_cycles } = &e.0[&farm.answer_key()] else { panic!() };
        let response = |first: &str| {
            let mut rows = results.clone();
            rows[0].insert(0, first.to_string());
            obj(vec![
                ("ok", Json::Bool(true)),
                ("results", rows_json(&rows)),
                ("sim_cycles", Json::Num(*sim_cycles as f64)),
            ])
            .to_string()
        };
        assert_eq!(e.check(farm, Some(314_159_265), &response("314159265")), Ok(()));
        assert!(e.check(farm, Some(314_159_265), &response("314159266")).is_err());
    }
}
