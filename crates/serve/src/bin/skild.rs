//! `skild` — the Skil serving daemon.
//!
//! Answers JSONL requests on stdin with one JSON response line each on
//! stdout, from a shared [`skil_serve::Server`] (compiled-program cache
//! and warm-machine pool). This file parses the arguments and prints the
//! EOF summary; the front door itself is [`Server::serve`]: `--threads`
//! workers take turns reading a line from stdin and each answers the
//! line it read, with one write per reply. Responses may be emitted out
//! of order under `--threads > 1`; clients correlate by the echoed
//! `"id"` field. Nothing is read ahead of the workers, so a stalled
//! stdout stalls the reads.
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
//!  "engine":"vm",              optional, vm|native, default vm
//!  "opt_level":2,              optional, 0|2, default 2
//!  "faults":"seed=7,crash=3@1000000"}   optional fault plan
//! ```
//!
//! A mesh or topology of more than 4,096 processors is a `bad_request`.
//! `{"cmd":"stats"}` returns the serving counters. Every failure mode —
//! a line that is not UTF-8 or not JSON, compile error, Skil runtime
//! error, injected crash — is a structured `{"ok":false,"error":{...}}`
//! response; the daemon never exits on a request, only on stdin EOF
//! (exit 0) or the first failing read or write (exit 1).

#![forbid(unsafe_code)]

use std::process::ExitCode;

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

    let server = Server::new();
    let served = server.serve(std::io::stdin(), std::io::stdout(), threads);
    if let Err(e) = &served {
        eprintln!("skild: {e}");
    }

    let s = server.stats();
    eprintln!(
        "skild: served {} request(s): {} ok, {} error(s); compile cache {} hit / {} miss \
         ({:.1}% hit rate), {} program(s) in {} byte(s), {} evicted; machines {} warm / \
         {} cold / {} discarded / {} evicted; {} helper join(s); {} helper thread(s), \
         {} idle stack(s)",
        s.requests,
        s.ok,
        s.errors,
        s.compile_hits,
        s.compile_misses,
        100.0 * s.cache_hit_rate(),
        s.cache_programs,
        s.cache_bytes,
        s.cache_evictions,
        s.machines_warm,
        s.machines_cold,
        s.machines_discarded,
        s.machines_evicted,
        s.helper_joins,
        s.helper_threads,
        s.stacks_idle,
    );
    for p in &s.pool {
        eprintln!(
            "skild:   pool {}: {} warm / {} cold checkout(s), {} idle",
            p.topology, p.warm, p.cold, p.idle
        );
    }
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(_) => ExitCode::FAILURE,
    }
}
