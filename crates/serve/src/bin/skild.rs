//! `skild` — the Skil serving daemon.
//!
//! Reads JSONL requests from stdin, runs them on a shared
//! [`skil_serve::Server`] (compiled-program cache + warm-machine pool),
//! and writes one JSON response line per request to stdout. Responses
//! may be emitted out of order under `--threads > 1`; clients correlate
//! by the echoed `"id"` field.
//!
//! ```text
//! echo '{"id":"a","program":"void main() { if (procId == 0) { print(42); } }"}' \
//!     | skild
//! {"ok":true,"id":"a","results":[["42"],[],[],[]],...}
//! ```
//!
//! A request is a JSON object:
//!
//! ```text
//! {"id":"r1",                  optional, echoed back
//!  "program":"<skil source>",  required
//!  "mesh":"2x2",               optional, default 2x2
//!  "engine":"vm",              optional, ast|vm|native, default vm
//!  "opt_level":2,              optional, 0|1|2, default 2
//!  "faults":"seed=7,crash=3@1000000"}   optional fault plan
//! ```
//!
//! `{"cmd":"stats"}` returns the serving counters. Every failure mode —
//! a line that is not UTF-8 or not JSON, compile error, Skil runtime
//! error, injected crash — is a structured `{"ok":false,"error":{...}}`
//! response; the daemon never exits on a request, only on stdin EOF
//! (exit 0) or an I/O error (exit 1).

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use skil_serve::Server;

fn usage() -> ExitCode {
    eprintln!(
        "usage: skild [--threads N]\n\
         \n\
         Reads one JSON request per stdin line, writes one JSON response\n\
         per line to stdout (unordered under --threads > 1; correlate by\n\
         \"id\"). Serving counters go to stderr at EOF."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threads = 4usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => threads = n,
                    _ => return usage(),
                }
            }
            _ => return usage(),
        }
        i += 1;
    }

    let server = Arc::new(Server::new());
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let rx = Arc::new(Mutex::new(rx));
    let stdout = Arc::new(Mutex::new(std::io::stdout()));

    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let server = Arc::clone(&server);
            let rx = Arc::clone(&rx);
            let stdout = Arc::clone(&stdout);
            std::thread::spawn(move || -> std::io::Result<()> {
                loop {
                    // Hold the receiver lock only while popping.
                    let line = match rx.lock().unwrap().recv() {
                        Ok(line) => line,
                        Err(_) => return Ok(()), // channel closed: EOF
                    };
                    let response = server.handle_bytes(&line);
                    let mut out = stdout.lock().unwrap();
                    out.write_all(response.as_bytes())?;
                    out.write_all(b"\n")?;
                    out.flush()?;
                }
            })
        })
        .collect();

    // Lines are split as bytes: what is on one is the request's problem
    // (a line that is not UTF-8 is answered `bad_request`), and only a
    // failing read is the daemon's.
    let stdin = std::io::stdin();
    for line in stdin.lock().split(b'\n') {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("skild: stdin error: {e}");
                return ExitCode::FAILURE;
            }
        };
        if line.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        if tx.send(line).is_err() {
            eprintln!("skild: all workers exited");
            return ExitCode::FAILURE;
        }
    }
    drop(tx); // EOF: let the workers drain and exit

    let mut io_failed = false;
    for w in workers {
        match w.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                eprintln!("skild: stdout error: {e}");
                io_failed = true;
            }
            Err(_) => {
                // A worker panicked — Server::handle_line is supposed to
                // make this impossible; surface it loudly.
                eprintln!("skild: worker panicked");
                io_failed = true;
            }
        }
    }

    let s = server.stats();
    eprintln!(
        "skild: served {} request(s): {} ok, {} error(s); compile cache {} hit / {} miss \
         ({:.1}% hit rate), {} program(s) in {} byte(s); machines {} warm / {} cold / \
         {} discarded; {} helper join(s)",
        s.requests,
        s.ok,
        s.errors,
        s.compile_hits,
        s.compile_misses,
        100.0 * s.cache_hit_rate(),
        s.cache_programs,
        s.cache_bytes,
        s.machines_warm,
        s.machines_cold,
        s.machines_discarded,
        s.helper_joins,
    );
    for p in &s.pool {
        eprintln!(
            "skild:   pool {} (algo {}): {} warm / {} cold checkout(s), {} idle",
            p.topology, p.algo, p.warm, p.cold, p.idle
        );
    }
    if io_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
