//! Observability determinism and format tests.
//!
//! The structured exports (metrics JSON, Chrome trace JSON) must be a
//! pure function of the simulated run: running the same program twice on
//! the same machine shape yields **byte-identical** documents. Both
//! documents must also be syntactically valid JSON — checked here with a
//! small hand-rolled validator so the test stays dependency-free. The
//! exports `paper trace_report` writes must equal the committed
//! `results/` artifacts byte for byte.

use skil::apps::{gauss_skil, shpaths_skil};
use skil::runtime::{Machine, MachineConfig, RunReport};
use skil_bench::traced_report;

/// Minimal recursive-descent JSON syntax checker (no value model, just
/// well-formedness). Returns the rest of the input after one value.
fn skip_ws(s: &[u8], mut i: usize) -> usize {
    while i < s.len() && matches!(s[i], b' ' | b'\t' | b'\n' | b'\r') {
        i += 1;
    }
    i
}

fn parse_value(s: &[u8], i: usize) -> Result<usize, String> {
    let i = skip_ws(s, i);
    let Some(&c) = s.get(i) else { return Err("unexpected end of input".into()) };
    match c {
        b'{' => {
            let mut i = skip_ws(s, i + 1);
            if s.get(i) == Some(&b'}') {
                return Ok(i + 1);
            }
            loop {
                i = parse_string(s, skip_ws(s, i))?;
                i = skip_ws(s, i);
                if s.get(i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                i = parse_value(s, i + 1)?;
                i = skip_ws(s, i);
                match s.get(i) {
                    Some(&b',') => i += 1,
                    Some(&b'}') => return Ok(i + 1),
                    _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                }
            }
        }
        b'[' => {
            let mut i = skip_ws(s, i + 1);
            if s.get(i) == Some(&b']') {
                return Ok(i + 1);
            }
            loop {
                i = parse_value(s, i)?;
                i = skip_ws(s, i);
                match s.get(i) {
                    Some(&b',') => i += 1,
                    Some(&b']') => return Ok(i + 1),
                    _ => return Err(format!("expected ',' or ']' at byte {i}")),
                }
            }
        }
        b'"' => parse_string(s, i),
        b't' if s[i..].starts_with(b"true") => Ok(i + 4),
        b'f' if s[i..].starts_with(b"false") => Ok(i + 5),
        b'n' if s[i..].starts_with(b"null") => Ok(i + 4),
        b'-' | b'0'..=b'9' => {
            let mut j = i + 1;
            while j < s.len() && matches!(s[j], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
                j += 1;
            }
            Ok(j)
        }
        other => Err(format!("unexpected byte {:?} at {i}", other as char)),
    }
}

fn parse_string(s: &[u8], i: usize) -> Result<usize, String> {
    if s.get(i) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {i}"));
    }
    let mut j = i + 1;
    while j < s.len() {
        match s[j] {
            b'"' => return Ok(j + 1),
            b'\\' => j += 2,
            _ => j += 1,
        }
    }
    Err("unterminated string".into())
}

fn assert_valid_json(doc: &str) {
    let bytes = doc.as_bytes();
    let end = parse_value(bytes, 0).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{doc}"));
    assert_eq!(skip_ws(bytes, end), bytes.len(), "trailing garbage after JSON value");
}

fn traced_shpaths() -> RunReport {
    let m = Machine::new(MachineConfig::square(2).unwrap().with_trace());
    shpaths_skil(&m, 12, 3).report
}

fn traced_gauss() -> RunReport {
    let m = Machine::new(MachineConfig::square(2).unwrap().with_trace());
    gauss_skil(&m, 12, 3).report
}

#[test]
fn metrics_json_is_byte_identical_across_runs() {
    assert_eq!(traced_shpaths().metrics_json(), traced_shpaths().metrics_json());
    assert_eq!(traced_gauss().metrics_json(), traced_gauss().metrics_json());
}

#[test]
fn chrome_trace_json_is_byte_identical_across_runs() {
    assert_eq!(traced_shpaths().chrome_trace_json(), traced_shpaths().chrome_trace_json());
    assert_eq!(traced_gauss().chrome_trace_json(), traced_gauss().chrome_trace_json());
}

#[test]
fn exports_are_valid_json() {
    for r in [traced_shpaths(), traced_gauss()] {
        assert_valid_json(&r.metrics_json());
        assert_valid_json(&r.chrome_trace_json());
    }
    // The untraced report (null comm matrix, empty skeleton map) must
    // also serialize to valid JSON.
    let plain = Machine::new(MachineConfig::square(2).unwrap());
    let r = shpaths_skil(&plain, 12, 3).report;
    assert_valid_json(&r.metrics_json());
    assert_valid_json(&r.chrome_trace_json());
}

#[test]
fn skeleton_metrics_cover_the_program() {
    let r = traced_shpaths();
    let m = r.skeleton_metrics();
    // shpaths = create + log2(n) x (copy; gen_mult; copy): all three
    // skeletons must show up, with communication attributed to gen_mult.
    for label in ["create", "copy", "gen_mult"] {
        assert!(m.contains_key(label), "missing {label}: {:?}", m.keys());
    }
    assert!(m["gen_mult"].sends > 0, "rotations send messages");
    assert!(m["gen_mult"].bytes_sent > 0);
    assert_eq!(m["copy"].sends, 0, "array_copy is purely local");
    // Every traced span lies inside the run.
    for p in &r.procs {
        for ev in &p.trace {
            assert!(ev.start <= ev.end && ev.end <= r.sim_cycles);
        }
    }
}

#[test]
fn comm_matrix_agrees_with_totals_and_conservation() {
    for r in [traced_shpaths(), traced_gauss()] {
        let m = r.comm_matrix().expect("traced run has a matrix");
        assert_eq!(m.msgs.iter().sum::<u64>(), r.total_msgs());
        assert_eq!(m.bytes.iter().sum::<u64>(), r.total_bytes());
        // Diagonal is empty: self-sends are forbidden by the runtime.
        for i in 0..m.n {
            assert_eq!(m.msgs_at(i, i), 0);
        }
        // Receiver-side rows tell the same story transposed.
        for (dst, p) in r.procs.iter().enumerate() {
            let row = p.comm.as_ref().unwrap();
            for src in 0..m.n {
                assert_eq!(row.recvd_msgs[src], m.msgs_at(src, dst), "src={src} dst={dst}");
                assert_eq!(row.recvd_bytes[src], m.bytes_at(src, dst), "src={src} dst={dst}");
            }
        }
        assert_eq!(r.total_bytes(), r.total_bytes_recvd());
    }
}

#[test]
fn tracing_is_free_in_virtual_time() {
    let plain = Machine::new(MachineConfig::square(2).unwrap());
    let traced = Machine::new(MachineConfig::square(2).unwrap().with_trace());
    for n in [8, 12, 16] {
        assert_eq!(
            shpaths_skil(&plain, n, 3).report.sim_cycles,
            shpaths_skil(&traced, n, 3).report.sim_cycles,
            "shpaths n={n}"
        );
        assert_eq!(
            gauss_skil(&plain, n, 3).report.sim_cycles,
            gauss_skil(&traced, n, 3).report.sim_cycles,
            "gauss n={n}"
        );
    }
}

/// `paper trace_report` (shortest paths and gauss, n=24 on 2x2) writes
/// exactly the committed artifacts: the schema, every counter and every
/// span. After a deliberate change, regenerate them with
/// `cargo run --release -p skil-bench --bin paper -- trace_report`.
#[test]
fn trace_report_exports_equal_the_committed_artifacts() {
    let committed = [
        (
            "shpaths",
            include_str!("../results/metrics_shpaths.json"),
            include_str!("../results/trace_shpaths.json"),
        ),
        (
            "gauss",
            include_str!("../results/metrics_gauss.json"),
            include_str!("../results/trace_gauss.json"),
        ),
    ];
    for (app, metrics, trace) in committed {
        let report = traced_report(app, None);
        for (kind, got, want) in [
            ("metrics", report.metrics_json(), metrics),
            ("trace", report.chrome_trace_json(), trace),
        ] {
            let at = got.bytes().zip(want.bytes()).position(|(a, b)| a != b);
            assert!(
                got == want,
                "results/{kind}_{app}.json differs from the export: first at byte {}, \
                 lengths {} vs {}",
                at.unwrap_or(got.len().min(want.len())),
                got.len(),
                want.len()
            );
        }
    }
}
