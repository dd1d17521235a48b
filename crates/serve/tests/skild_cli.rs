//! End-to-end tests of the `skild` daemon binary over its pipes.

use std::io::Write;
use std::process::{Command, Output, Stdio};

use skil_serve::json::{self, Json};

const HELLO: &str = r#"{"id":"a","program":"void main() { if (procId == 0) { print(42); } }"}"#;

/// Feed `input` to a fresh `skild` and wait for it to exit at EOF.
fn skild(input: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_skild"))
        .args(["--threads", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start skild");
    child.stdin.take().expect("piped stdin").write_all(input).expect("write requests");
    child.wait_with_output().expect("skild exits at EOF")
}

fn responses(out: &Output) -> Vec<Json> {
    let stdout = String::from_utf8(out.stdout.clone()).expect("responses are UTF-8");
    stdout.lines().map(|l| json::parse(l).expect("response is JSON")).collect()
}

#[test]
fn a_line_that_is_not_utf8_is_one_bad_request_not_the_end_of_the_daemon() {
    // The parent read stdin with `lines()`: the first line below ended
    // it with "stream did not contain valid UTF-8", exit 1, and the
    // valid request after it unanswered.
    let mut input = b"\xff\xfe\n".to_vec();
    input.extend_from_slice(HELLO.as_bytes());
    input.push(b'\n');
    let out = skild(&input);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let lines = responses(&out);
    assert_eq!(lines.len(), 2, "one response per line: {lines:?}");
    assert_eq!(lines[0].get("ok"), Some(&Json::Bool(false)));
    let error = lines[0].get("error").expect("structured error");
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("bad_request"));
    assert!(error.get("message").and_then(Json::as_str).unwrap().contains("not UTF-8"));
    assert_eq!(lines[1].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(lines[1].get("id").and_then(Json::as_str), Some("a"));
    assert!(stderr.contains("served 2 request(s): 1 ok, 1 error(s)"), "{stderr}");
}

#[test]
fn blank_and_crlf_lines_are_read_as_before() {
    let input = format!("\r\n   \n{HELLO}\r\n\n{{\"cmd\":\"stats\"}}");
    let out = skild(input.as_bytes());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let lines = responses(&out);
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert_eq!(lines[0].get("id").and_then(Json::as_str), Some("a"));
    // The live daemon and its EOF summary both say whether any request
    // ever went multi-threaded.
    let stats = lines[1].get("stats").expect("stats reply");
    assert!(stats.get("helper_joins").and_then(Json::as_u64).is_some(), "{stats:?}");
    assert!(stderr.contains("helper join(s)"), "{stderr}");
    // ... and how much the compile cache holds.
    assert_eq!(stats.get("cache_programs").and_then(Json::as_u64), Some(1), "{stats:?}");
    let bytes = stats.get("cache_bytes").and_then(Json::as_u64).expect("cache_bytes");
    assert!(bytes > 0, "{stats:?}");
    assert!(stderr.contains(&format!("1 program(s) in {bytes} byte(s)")), "{stderr}");
}

/// `i64::MIN / -1` panicked in the constant folder, which ran outside
/// the request's guard: the worker died, the request got no response
/// line, and the daemon wrote "worker panicked". The same division at
/// run time and the use of a destroyed array panicked inside the guard
/// and cost a warm machine each.
#[test]
fn overflowing_division_and_a_destroyed_array_get_one_response_each() {
    let min = "int m = int_max * 4 + 3; int z = 0 - m - 1";
    let programs = [
        format!("void main() {{ {min}; print(z / (0 - 1)); }}"),
        format!("void main() {{ {min} + (procId - procId); print(z % (0 - 1)); }}"),
        "int one(Index ix) { return 1; } int inc(int v, Index ix) { return v + 1; } \
         void main() { \
           array<int> a = array_create(1, {8, 1}, {0,0}, {0-1,0-1}, one, DISTR_DEFAULT); \
           array<int> b = array_create(1, {8, 1}, {0,0}, {0-1,0-1}, one, DISTR_DEFAULT); \
           array_destroy(a); array_map(inc, a, b); }"
            .to_string(),
        "void main() { print(1); }".to_string(),
    ];
    let mut input = String::new();
    for (i, program) in programs.iter().enumerate() {
        input += &format!(r#"{{"id":"{i}","program":"{program}","mesh":"2x2"}}"#);
        input.push('\n');
    }
    input += r#"{"cmd":"stats"}"#;
    let out = skild(input.as_bytes());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("worker panicked"), "{stderr}");
    let lines = responses(&out);
    assert_eq!(lines.len(), 5, "one response per line: {lines:?}");
    let first_print = |l: &Json| match l.get("results") {
        Some(Json::Arr(procs)) => match &procs[0] {
            Json::Arr(printed) => printed[0].as_str().map(str::to_string),
            _ => None,
        },
        _ => None,
    };
    assert_eq!(first_print(&lines[0]), Some(i64::MIN.to_string()), "{:?}", lines[0]);
    assert_eq!(first_print(&lines[1]).as_deref(), Some("0"), "{:?}", lines[1]);
    let error = lines[2].get("error").expect("structured error");
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("runtime"), "{error:?}");
    let message = error.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("already destroyed"), "{message}");
    assert_eq!(first_print(&lines[3]).as_deref(), Some("1"), "{:?}", lines[3]);
    let stats = lines[4].get("stats").expect("stats reply");
    assert_eq!(stats.get("machines_discarded").and_then(Json::as_u64), Some(0), "{stats:?}");
}
