//! The mixed request batch that the front-door suites replay — through
//! `Server::serve` over in-memory buffers (`tests/serving_front_door.rs`)
//! and through the `skild` binary over its pipes
//! (`crates/serve/tests/skild_cli.rs`) — and the check both hold the
//! responses to.

use std::collections::HashMap;

use skil_serve::json::{self, Json};

/// A request whose program deadlocks: only processor 0 enters the
/// fold, so it waits for partial results nobody sends. Then a valid
/// request for the same machine.
pub const DEADLOCK_THEN_HELLO: &str = concat!(
    r#"{"id":"stuck","program":"int first(Index ix) { return ix[0]; } "#,
    r#"int conv(int v, Index ix) { return v; } void main() { "#,
    r#"array<int> a = array_create(1, {16,1}, {0,0}, {0-1,0-1}, first, DISTR_DEFAULT); "#,
    r#"if (procId == 0) { print(array_fold(conv, (+), a)); } }"}"#,
    "\n",
    r#"{"id":"after","program":"void main() { if (procId == 0) { print(7); } }"}"#,
    "\n",
);

/// What the response to one request line must be.
#[derive(Debug, Clone, Copy)]
pub enum Want {
    /// `ok:true`; processor 0's first printed line when it is pinned.
    Ok(Option<&'static str>),
    /// `ok:false` with this `error.kind`.
    Err(&'static str),
}

/// Program template, its parameters, the rest of the request, the
/// outcome.
type Class = (&'static str, &'static [(&'static str, &'static str)], &'static str, Want);

/// The `hot_small` request classes of `benchmark/src/workloads.rs`.
#[rustfmt::skip]
const CLASSES: [Class; 12] = [
    (include_str!("../../benchmark/programs/hello.skil"), &[], "", Want::Ok(Some("7"))),
    (include_str!("../../benchmark/programs/fold16.skil"), &[], r#","mesh":"2x2""#, Want::Ok(Some("120"))),
    (include_str!("../../benchmark/programs/fold16.skil"), &[], r#","mesh":"1x3""#, Want::Ok(Some("120"))),
    (include_str!("../../benchmark/programs/fold16.skil"), &[], r#","mesh":"4x4""#, Want::Ok(Some("120"))),
    (include_str!("../../benchmark/programs/prefix_stats.skil"), &[("__N__", "64")], "", Want::Ok(None)),
    (include_str!("../../benchmark/programs/quicksort.skil"), &[("__LEN__", "32")], "", Want::Ok(None)),
    (include_str!("../../benchmark/programs/farm_sweep.skil"), &[("__TASKS__", "16"), ("__ITERS__", "100")], "", Want::Ok(None)),
    (include_str!("../../benchmark/programs/fold16.skil"), &[], r#","engine":"native""#, Want::Ok(Some("120"))),
    (include_str!("../../benchmark/programs/prefix_stats.skil"), &[("__N__", "64")], r#","engine":"native""#, Want::Ok(None)),
    (include_str!("../../benchmark/programs/div_zero.skil"), &[], "", Want::Err("runtime")),
    (include_str!("../../benchmark/programs/fold16.skil"), &[], r#","faults":"seed=7,crash=3@50""#, Want::Err("runtime")),
    (include_str!("../../benchmark/programs/type_error.skil"), &[], "", Want::Err("compile")),
];

/// A batch of request lines and what must come back.
pub struct Batch {
    /// The lines as they go down the pipe, each one terminated (`\n` or
    /// `\r\n`); the last is a request ending in a bare `\n`.
    pub input: Vec<u8>,
    /// Per id, the response its request must get.
    pub by_id: HashMap<String, Want>,
    /// Lines that must be answered `bad_request` without an id (not
    /// UTF-8, not JSON).
    pub anonymous: usize,
}

impl Batch {
    /// Responses the batch must produce: one per non-blank line.
    pub fn answered(&self) -> usize {
        self.by_id.len() + self.anonymous
    }
}

/// `lines` lines: the request classes in rotation, every seventh line
/// ending in CRLF, and in the place of every 100th request a blank
/// line, a whitespace-only line, a line that is not UTF-8 or a line that
/// is not JSON.
pub fn mixed_batch(lines: usize) -> Batch {
    assert!(lines % 100 != 51, "the last line must be a request");
    let tails: Vec<(String, Want)> = CLASSES
        .iter()
        .map(|(program, params, rest, want)| {
            let mut src = program.to_string();
            for (placeholder, value) in *params {
                src = src.replace(placeholder, value);
            }
            (format!(r#","program":"{}"{rest}}}"#, json::escape(&src)), *want)
        })
        .collect();
    let mut batch = Batch { input: Vec::new(), by_id: HashMap::new(), anonymous: 0 };
    for i in 0..lines {
        match (i % 100 == 50, i / 100 % 4) {
            (true, 0) => {}
            (true, 1) => batch.input.extend_from_slice(b"  \t "),
            (true, 2) => {
                batch.input.extend_from_slice(b"{\"id\":\"\xff\xfe\"}");
                batch.anonymous += 1;
            }
            (true, _) => {
                batch.input.extend_from_slice(b"this is not json");
                batch.anonymous += 1;
            }
            (false, _) => {
                let (tail, want) = &tails[i % tails.len()];
                let id = format!("q{i}");
                batch.input.extend_from_slice(format!(r#"{{"id":"{id}"{tail}"#).as_bytes());
                batch.by_id.insert(id, *want);
            }
        }
        let crlf = i % 7 == 3 && i + 1 < lines;
        batch.input.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
    }
    batch
}

/// What of a response does not depend on which thread served it or on
/// what was cached and pooled at the time.
#[derive(Debug, PartialEq)]
pub struct Answer {
    pub results: Option<Json>,
    pub sim_cycles: Option<u64>,
    pub error: Option<Json>,
}

/// Hold `stdout` to the batch: exactly one response per non-blank line,
/// every id exactly once and answered as its class must be. Returns the
/// answers by id.
pub fn check(batch: &Batch, stdout: &[u8]) -> HashMap<String, Answer> {
    let stdout = std::str::from_utf8(stdout).expect("responses are UTF-8");
    assert!(stdout.is_empty() || stdout.ends_with('\n'), "a response line was cut short");
    let mut answers = HashMap::new();
    let mut anonymous = 0;
    for line in stdout.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("response is not JSON ({e}): {line}"));
        let error = v.get("error").cloned();
        let kind = error.as_ref().and_then(|e| e.get("kind")).and_then(Json::as_str);
        let Some(id) = v.get("id").and_then(Json::as_str) else {
            assert_eq!(kind, Some("bad_request"), "{line}");
            anonymous += 1;
            continue;
        };
        let want = batch.by_id.get(id).unwrap_or_else(|| panic!("nobody sent {id}: {line}"));
        let results = v.get("results").cloned();
        match *want {
            Want::Ok(first) => {
                assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{line}");
                let Some(Json::Arr(procs)) = &results else { panic!("no results: {line}") };
                let Json::Arr(printed) = &procs[0] else { panic!("results: {line}") };
                if let Some(first) = first {
                    assert_eq!(printed[0].as_str(), Some(first), "{line}");
                }
            }
            Want::Err(want_kind) => {
                assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{line}");
                assert_eq!(kind, Some(want_kind), "{line}");
            }
        }
        let sim_cycles = v.get("sim_cycles").and_then(Json::as_u64);
        let again = answers.insert(id.to_string(), Answer { results, sim_cycles, error });
        assert!(again.is_none(), "{id} was answered twice");
    }
    assert_eq!(answers.len(), batch.by_id.len(), "a request went unanswered");
    assert_eq!(anonymous, batch.anonymous, "one bad_request per malformed line");
    answers
}
