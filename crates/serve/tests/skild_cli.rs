//! End-to-end tests of the `skild` daemon binary over its pipes.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Output, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use skil_serve::json::{self, Json};

#[path = "../../../tests/support/front_door.rs"]
mod front_door;

const HELLO: &str = r#"{"id":"a","program":"void main() { if (procId == 0) { print(42); } }"}"#;

/// A fresh `skild --threads <threads>` on three pipes.
fn spawn(threads: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_skild"))
        .args(["--threads", threads])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start skild")
}

/// Feed `input` to a fresh `skild` and wait for it to exit at EOF.
fn skild(input: &[u8]) -> Output {
    let mut child = spawn("1");
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

/// A pooled machine owns no coroutine stack and no helper thread: after
/// a compute-bound program on ten distinct shapes, one request at a
/// time, the daemon keeps at most the largest shape's stacks idle and at
/// most a core count of helpers, whatever the pool holds.
#[test]
fn distinct_shapes_leave_only_the_largest_runs_stacks_and_a_core_count_of_helpers() {
    let horner = json::escape(include_str!("../../../examples/skil/horner.skil"));
    let shapes = [(1, 1), (1, 2), (2, 2), (1, 3), (3, 3), (2, 4), (4, 4), (1, 5), (2, 3), (3, 4)];
    let mut input = String::new();
    for (rows, cols) in shapes {
        input += &format!(r#"{{"program":"{horner}","mesh":"{rows}x{cols}"}}"#);
        input.push('\n');
    }
    input += r#"{"cmd":"stats"}"#;
    let out = skild(input.as_bytes());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let lines = responses(&out);
    assert!(lines[..shapes.len()].iter().all(|l| l.get("ok") == Some(&Json::Bool(true))));
    let stats = lines[shapes.len()].get("stats").expect("stats reply");
    let count = |key: &str| stats.get(key).and_then(Json::as_u64).expect(key);
    let pool = match stats.get("pool") {
        Some(Json::Arr(shapes)) => shapes.len(),
        other => panic!("no pool: {other:?}"),
    };
    assert_eq!(pool, shapes.len(), "every machine is pooled: {stats:?}");
    assert!(count("stacks_idle") <= 16, "{stats:?}");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    assert!(count("helper_threads") <= cores, "{stats:?}");
    assert!(stderr.contains(" helper thread(s), "), "{stderr}");
    assert!(stderr.contains(&format!(" {} idle stack(s)", count("stacks_idle"))), "{stderr}");
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

/// A deadlocked program is answered `runtime` and leaves nothing on the
/// daemon's stderr but its summary: no panic message, no backtrace.
#[test]
fn a_deadlocked_program_prints_no_panic() {
    let out = skild(front_door::DEADLOCK_THEN_HELLO.as_bytes());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
    let lines = responses(&out);
    assert_eq!(lines.len(), 2, "{lines:?}");
    let error = lines[0].get("error").expect("structured error");
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("runtime"), "{error:?}");
    assert_eq!(lines[1].get("machine").and_then(Json::as_str), Some("warm"), "{:?}", lines[1]);
}

/// Wait for `child` to exit by itself; a daemon that is still there
/// after a minute is killed, and reads as killed.
fn exit_of(mut child: Child) -> (Option<i32>, String) {
    let mut stderr = child.stderr.take().expect("piped stderr");
    let (exited, has_exited) = mpsc::channel::<()>();
    let status = std::thread::scope(|s| {
        let pid = child.id().to_string();
        s.spawn(move || {
            let minute = Duration::from_secs(60);
            if has_exited.recv_timeout(minute) == Err(mpsc::RecvTimeoutError::Timeout) {
                let _ = Command::new("kill").args(["-9", &pid]).status();
            }
        });
        let status = child.wait().expect("wait for skild");
        drop(exited);
        status
    });
    let mut said = String::new();
    stderr.read_to_string(&mut said).expect("stderr is UTF-8");
    (status.code(), said)
}

#[test]
fn four_workers_answer_a_mixed_batch_line_for_line() {
    let batch = front_door::mixed_batch(2_000);
    let mut child = spawn("4");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let (all_answered, wait_for_answers) = mpsc::channel::<()>();
    let mut replies = Vec::new();
    let mut stats = String::new();
    std::thread::scope(|s| {
        let input = &batch.input;
        s.spawn(move || {
            stdin.write_all(input).expect("write the batch");
            // Only when every reply is in does the daemon get its last
            // line: the stats request, ended by end of input alone.
            wait_for_answers.recv().expect("the batch is answered");
            stdin.write_all(br#"{"cmd":"stats"}"#).expect("write the stats request");
            drop(stdin);
        });
        for _ in 0..batch.answered() {
            assert!(stdout.read_until(b'\n', &mut replies).expect("read a reply") > 0, "early EOF");
        }
        all_answered.send(()).expect("the writer is waiting");
        stdout.read_to_string(&mut stats).expect("read to EOF");
    });
    let (code, stderr) = exit_of(child);
    assert_eq!(code, Some(0), "{stderr}");
    front_door::check(&batch, &replies);
    assert_eq!(stats.lines().count(), 1, "one reply to the stats request: {stats}");
    let stats = json::parse(stats.trim_end()).expect("the stats reply is JSON");
    let requests = stats.get("stats").and_then(|s| s.get("requests")).and_then(Json::as_u64);
    assert_eq!(requests, Some(batch.answered() as u64), "{stats:?}");
    assert!(stderr.contains(&format!("served {} request(s)", batch.answered())), "{stderr}");
}

#[test]
fn a_closed_stdout_ends_the_daemon_with_exit_1_at_end_of_input() {
    let mut child = spawn("4");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    stdin.write_all(format!("{HELLO}\n").as_bytes()).expect("write a request");
    let mut first = String::new();
    stdout.read_line(&mut first).expect("read the reply");
    assert!(first.contains("\"ok\":true"), "{first}");
    // Nobody reads any more. No worker has had a write fail yet, so all
    // four are alive and this one write reaches them.
    drop(stdout);
    stdin.write_all(format!("{HELLO}\n").repeat(8).as_bytes()).expect("write eight more");
    drop(stdin);
    let (code, stderr) = exit_of(child);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("skild: stdout error: "), "{stderr}");
    assert!(stderr.contains("served "), "the summary is still printed: {stderr}");
}
