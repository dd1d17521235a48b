//! `skild`'s front door, without the binary: `Server::serve` over
//! in-memory pipes. One response line per request line whatever is on
//! it and however many workers read; nothing read ahead of the workers;
//! the first failing read or write ends the daemon.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};

use skil_serve::Server;

#[path = "support/front_door.rs"]
mod front_door;

#[test]
fn a_mixed_batch_gets_one_response_per_line_under_one_and_four_workers() {
    let mut batch = front_door::mixed_batch(2_000);
    assert_eq!(batch.input.pop(), Some(b'\n')); // the last line ends at end of input
    let serve = |threads| {
        let server = Server::new();
        let mut stdout = Vec::new();
        server.serve(&batch.input[..], &mut stdout, threads).expect("in-memory pipes do not fail");
        let answers = front_door::check(&batch, &stdout);
        let stats = server.stats();
        assert_eq!(stats.requests, batch.answered() as u64);
        assert_eq!(stats.ok + stats.errors, stats.requests);
        assert_eq!(stats.machines_discarded, 0);
        answers
    };
    // Always leader, and leader/follower: the same answers either way.
    assert_eq!(serve(1), serve(4));
}

/// Requests that used to kill the daemon — unbounded nesting in the
/// request's JSON and in the program's source overflowed the stack of
/// the worker parsing it, an absurd `array_create` aborted in the
/// allocator — are answered, each in its own terms, and the valid
/// request behind each is answered by the same `serve`.
#[test]
fn hostile_nesting_and_sizes_are_answered_and_the_daemon_goes_on() {
    let program = |id: &str, src: &str| {
        format!("{{\"id\":\"{id}\",\"program\":\"{}\"}}\n", skil_serve::json::escape(src))
    };
    let hello = |id: &str| program(id, "void main() { if (procId == 0) { print(7); } }");
    let deep = format!("void main() {{ int x = {}1{}; }}", "(".repeat(20_000), ")".repeat(20_000));
    // at the cap, a program still compiles and runs on a worker's stack
    let at_cap = format!(
        "void main() {{ int x = {}1{}; int y = {}; print(x + y); }}",
        "(".repeat(97),
        ")".repeat(97),
        vec!["1"; 100].join(" + ")
    );
    let huge = "int zero(Index ix) { return 0; }
        void main() {
            array<int> a = array_create(2, {100000000, 100000000}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);
        }";
    let input = [
        "[".repeat(200_000) + "\n",
        hello("a"),
        program("deep", &deep),
        hello("b"),
        program("cap", &at_cap),
        program("huge", huge),
        hello("c"),
    ]
    .concat();
    for threads in [1, 2] {
        let server = Server::new();
        let mut stdout = Vec::new();
        server.serve(input.as_bytes(), &mut stdout, threads).expect("in-memory pipes do not fail");
        let replies: Vec<&str> = std::str::from_utf8(&stdout).expect("UTF-8").lines().collect();
        assert_eq!(replies.len(), 7, "one reply per line");
        let reply = |needle: &str| {
            *replies.iter().find(|r| r.contains(needle)).unwrap_or_else(|| panic!("no {needle}"))
        };
        let nested = reply(r#""kind":"bad_request""#);
        assert!(nested.contains("nested deeper than 64 levels at byte 64"), "{nested}");
        let deep = reply(r#""id":"deep""#);
        assert!(deep.contains(r#""kind":"compile""#), "{deep}");
        assert!(deep.contains("parse error at 1:122: nested deeper than 100 levels"), "{deep}");
        let cap = reply(r#""id":"cap""#);
        assert!(cap.contains(r#""results":[["101"]"#), "{cap}");
        let huge = reply(r#""id":"huge""#);
        assert!(huge.contains(r#""kind":"runtime""#), "{huge}");
        assert!(
            huge.contains("array_create of 100000000 x 100000000 elements exceeds the limit"),
            "{huge}"
        );
        for id in ["a", "b", "c"] {
            let ok = reply(&format!(r#""id":"{id}""#));
            assert!(ok.contains(r#""results":[["7"]"#), "{ok}");
        }
        assert_eq!(server.stats().machines_discarded, 0);
    }
}

/// A program that deadlocks was an `internal` reply, a backtrace on
/// stderr and a discarded machine. It is the program's `runtime`
/// failure: the machine goes back to the pool and serves the next
/// request warm.
#[test]
fn a_deadlocked_program_is_a_runtime_failure_on_a_machine_that_stays_warm() {
    let server = Server::new();
    let mut stdout = Vec::new();
    let input = front_door::DEADLOCK_THEN_HELLO.as_bytes();
    server.serve(input, &mut stdout, 1).expect("in-memory pipes do not fail");
    let replies: Vec<&str> = std::str::from_utf8(&stdout).expect("UTF-8").lines().collect();
    assert_eq!(replies.len(), 2, "one reply per line: {replies:?}");
    let stuck = replies[0];
    assert!(stuck.contains(r#""id":"stuck""#) && stuck.contains(r#""kind":"runtime""#), "{stuck}");
    assert!(stuck.contains("deadlock suspected waiting for (src="), "{stuck}");
    let after = replies[1];
    assert!(after.contains(r#""results":[["7"]"#), "{after}");
    assert!(after.contains(r#""machine":"warm""#), "{after}");
    let stats = server.stats();
    assert_eq!((stats.machines_discarded, stats.machines_cold, stats.machines_warm), (0, 1, 1));
}

/// A machine of more than 4,096 processors is refused by its count before
/// anything is built for it: `1000x1000` asked for 10⁶ coroutine stacks
/// of 8 MB, and under `ulimit -v` even `64x64` was a panic, a backtrace
/// and a lost machine. The valid request behind each refusal is answered
/// by the same `serve`.
#[test]
fn machines_past_the_processor_cap_are_refused_and_the_daemon_goes_on() {
    let probes = [
        ("mesh", "1000x1000", 1_000_000),
        ("mesh", "65x64", 4160),
        ("topology", "hypercube:8192", 8192),
        ("topology", "fattree:2,65", 4225),
        ("topology", "hetero:mesh2d:64x65:slowlinks=col32*2", 4160),
    ];
    let mut input = String::new();
    for (i, (field, spec, _)) in probes.iter().enumerate() {
        input += &format!(
            "{{\"id\":\"big{i}\",\"program\":\"void main() {{}}\",\"{field}\":\"{spec}\"}}\n"
        );
        input += &format!(
            "{{\"id\":\"ok{i}\",\"program\":\"void main() {{ if (procId == 0) {{ print(7); }} }}\"}}\n"
        );
    }
    for threads in [1, 2] {
        let server = Server::new();
        let mut stdout = Vec::new();
        server.serve(input.as_bytes(), &mut stdout, threads).expect("in-memory pipes do not fail");
        let replies: Vec<&str> = std::str::from_utf8(&stdout).expect("UTF-8").lines().collect();
        assert_eq!(replies.len(), 2 * probes.len(), "one reply per line");
        let reply = |id: String| {
            let needle = format!(r#""id":"{id}""#);
            *replies.iter().find(|r| r.contains(&needle)).unwrap_or_else(|| panic!("no {id}"))
        };
        for (i, (_, spec, count)) in probes.iter().enumerate() {
            let big = reply(format!("big{i}"));
            assert!(big.contains(r#""kind":"bad_request""#), "{spec}: {big}");
            assert!(big.contains(&format!("has {count} processors")), "{spec}: {big}");
            assert!(big.contains("at most 4096"), "{spec}: {big}");
            let ok = reply(format!("ok{i}"));
            assert!(ok.contains(r#""results":[["7"]"#), "{ok}");
        }
        let stats = server.stats();
        assert_eq!((stats.ok, stats.errors, stats.machines_discarded), (5, 5, 0));
        let shapes: Vec<&str> = stats.pool.iter().map(|p| p.topology.as_str()).collect();
        assert_eq!(shapes, ["mesh2d:2x2"], "nothing was built for a refused machine");
    }
}

/// Requests of `LINE` bytes each, every one a `hello` under its own id.
const LINE: usize = 1024;

fn padded_requests(n: usize) -> Vec<u8> {
    let mut input = Vec::with_capacity(n * LINE);
    for i in 0..n {
        let line = format!(
            r#"{{"id":"q{i}","program":"void main() {{ if (procId == 0) {{ print(7); }} }}"}}"#
        );
        input.extend_from_slice(line.as_bytes());
        input.resize((i + 1) * LINE - 1, b' ');
        input.push(b'\n');
    }
    input
}

/// An input that knows how much of itself has been handed out, and
/// notes at every `read` how much of that has not been answered yet:
/// it is in the hands of a worker or in the read buffer.
struct MeteredInput<'a> {
    bytes: &'a [u8],
    handed_out: &'a AtomicUsize,
    writes: &'a AtomicUsize,
    largest_read: &'a AtomicUsize,
    most_in_hands: &'a AtomicUsize,
}

impl Read for MeteredInput<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let handed_out = self.handed_out.load(Ordering::SeqCst);
        let answered = self.writes.load(Ordering::SeqCst) * LINE;
        self.most_in_hands.fetch_max(handed_out.saturating_sub(answered), Ordering::SeqCst);
        self.largest_read.fetch_max(buf.len(), Ordering::SeqCst);
        let n = self.bytes.read(buf)?;
        self.handed_out.fetch_add(n, Ordering::SeqCst);
        Ok(n)
    }
}

/// An output whose first `write` reports in and then blocks until the
/// test lets it go.
struct GatedOutput<'a> {
    written: Vec<u8>,
    writes: &'a AtomicUsize,
    entered: SyncSender<()>,
    gate: Option<Receiver<()>>,
}

impl Write for GatedOutput<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes.fetch_add(1, Ordering::SeqCst);
        if let Some(gate) = self.gate.take() {
            self.entered.send(()).expect("the test is listening");
            gate.recv().expect("the test opens the gate");
        }
        self.written.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_stalled_output_stalls_the_reads() {
    // 8 MB queued behind an output that does not move: the parent's
    // reader thread drained all of it into its channel.
    const THREADS: usize = 2;
    let requests = 8 * 1024;
    let input = padded_requests(requests);
    let [handed_out, writes, largest_read, most_in_hands] = [(); 4].map(|()| AtomicUsize::new(0));
    let (entered, has_entered) = mpsc::sync_channel(1);
    let (open_gate, gate) = mpsc::sync_channel(1);
    let metered = MeteredInput {
        bytes: &input,
        handed_out: &handed_out,
        writes: &writes,
        largest_read: &largest_read,
        most_in_hands: &most_in_hands,
    };
    let mut output =
        GatedOutput { written: Vec::new(), writes: &writes, entered, gate: Some(gate) };
    let server = Server::new();
    std::thread::scope(|s| {
        let daemon = s.spawn(|| server.serve(metered, &mut output, THREADS));
        // One worker is inside `write`; the other holds at most one more
        // line and can not get past the output lock.
        has_entered.recv().expect("a reply is written");
        let stalled_at = handed_out.load(Ordering::SeqCst);
        let read_buffer = largest_read.load(Ordering::SeqCst);
        assert!(read_buffer <= 64 * 1024, "reads of {read_buffer} B");
        assert!(stalled_at <= THREADS * LINE + read_buffer, "{stalled_at} B read ahead");
        open_gate.send(()).expect("the writer is waiting");
        daemon.join().expect("no worker panics").expect("no I/O error");
    });
    // The bound held at every read, before the gate opened and after.
    let (most, read_buffer) = (most_in_hands.into_inner(), largest_read.into_inner());
    assert!(most <= THREADS * LINE + read_buffer, "{most} B unanswered: over {THREADS} lines");
    assert_eq!(handed_out.load(Ordering::SeqCst), input.len());
    let mut seen = vec![false; requests];
    for line in std::str::from_utf8(&output.written).expect("UTF-8").lines() {
        let id = line.split_once(r#""id":"q"#).expect("an id").1;
        let i: usize = id[..id.find('"').expect("closing quote")].parse().expect("a number");
        assert!(!std::mem::replace(&mut seen[i], true), "q{i} answered twice");
        assert!(line.contains(r#""results":[["7"]"#), "{line}");
    }
    assert!(seen.iter().all(|&s| s), "a request went unanswered");
}

/// Lets `calls_left` reads or writes through and fails every later one.
struct FailsFrom<T> {
    inner: T,
    calls_left: usize,
}

impl<T> FailsFrom<T> {
    fn spend(&mut self) -> io::Result<()> {
        let gone = || io::Error::new(io::ErrorKind::BrokenPipe, "the other end is gone");
        self.calls_left = self.calls_left.checked_sub(1).ok_or_else(gone)?;
        Ok(())
    }
}

impl<T: Read> Read for FailsFrom<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.spend()?;
        self.inner.read(buf)
    }
}

impl<T: Write> Write for FailsFrom<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.spend()?;
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[test]
fn the_first_failing_write_or_read_ends_the_daemon() {
    let input = padded_requests(1_000);

    // The second reply can not be written: every worker stops at its
    // next turn, with the input hardly touched.
    let server = Server::new();
    let mut stdout = Vec::new();
    let output = FailsFrom { inner: &mut stdout, calls_left: 1 };
    let err = server.serve(&input[..], output, 4).expect_err("the write failed");
    assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    assert!(err.to_string().starts_with("stdout error: "), "{err}");
    assert_eq!(stdout.iter().filter(|&&b| b == b'\n').count(), 1);
    assert!(server.stats().requests <= 2 * 4, "{} requests handled", server.stats().requests);

    // The input fails after its first buffer: what was read is answered,
    // and the error is the daemon's.
    let server = Server::new();
    let mut stdout = Vec::new();
    let failing = FailsFrom { inner: &input[..], calls_left: 1 };
    let err = server.serve(failing, &mut stdout, 4).expect_err("the read failed");
    assert!(err.to_string().starts_with("stdin error: "), "{err}");
    let answered = stdout.iter().filter(|&&b| b == b'\n').count();
    assert!(answered >= 1 && answered as u64 == server.stats().requests, "{answered} answered");
}
