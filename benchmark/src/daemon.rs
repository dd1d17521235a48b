//! The end-to-end side: one real `skild` process driven over its pipes.
//!
//! The load is a closed loop. `skild` is a pipe daemon whose callers
//! wait for their replies, so a client sends its next request only when
//! the previous one has been answered; `clients` of them keep that many
//! requests outstanding. One thread writes, one reader thread keeps the
//! daemon's stdout drained (a 13 KB `8x8` response must never fill the
//! pipe while the writer is blocked on stdin) and stamps each response
//! the moment it is read.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::Instant;

use skil_serve::json::{self, Json};

use crate::expected::Expected;
use crate::procfs;
use crate::stats::{percentile, sort};
use crate::workloads::{Request, Workload};

/// Anything that stops a measurement: the daemon died, a pipe broke,
/// `/proc` was unreadable. Wrong *answers* are not errors; they are
/// counted (see [`Checked`]).
pub type Error = String;

/// A running `skild`.
pub struct Daemon {
    child: Child,
    /// `None` once closed (end of input for the daemon).
    stdin: Option<ChildStdin>,
    responses: Receiver<(Instant, String)>,
    /// `None` once joined.
    reader: Option<JoinHandle<()>>,
    pub spawned: Instant,
}

impl Daemon {
    /// Start `skild --threads <threads>` with a private native-artifact
    /// cache and no other `SKIL_*` variable.
    pub fn spawn(skild: &Path, threads: usize, native_cache: &Path) -> Result<Daemon, Error> {
        let mut cmd = Command::new(skild);
        cmd.arg("--threads").arg(threads.to_string());
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("SKIL_") {
                cmd.env_remove(key);
            }
        }
        cmd.env("SKIL_NATIVE_CACHE_DIR", native_cache);
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::piped());
        let spawned = Instant::now();
        let mut child =
            cmd.spawn().map_err(|e| format!("cannot start {}: {e}", skild.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, responses) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { return };
                if tx.send((Instant::now(), line)).is_err() {
                    return;
                }
            }
        });
        Ok(Daemon { child, stdin: Some(stdin), responses, reader: Some(reader), spawned })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn send(&mut self, line: &str) -> Result<(), Error> {
        // One write per request: the daemon's reader sees whole lines.
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        let stdin = self.stdin.as_mut().expect("send after finish");
        stdin.write_all(&buf).map_err(|e| format!("skild closed its stdin: {e}"))
    }

    fn recv(&mut self) -> Result<(Instant, String), Error> {
        self.responses.recv().map_err(|_| "skild closed its stdout mid-run".to_string())
    }

    /// The `stats` object of a `{"cmd":"stats"}` round trip.
    pub fn stats(&mut self) -> Result<Json, Error> {
        self.send("{\"cmd\":\"stats\"}")?;
        let (_, line) = self.recv()?;
        let v = json::parse(&line).map_err(|e| format!("bad stats response: {e}"))?;
        v.get("stats").cloned().ok_or(format!("not a stats response: {line}"))
    }

    /// One request, alone: its response and its latency in ms.
    pub fn round_trip(&mut self, line: &str) -> Result<(f64, String), Error> {
        let sent = Instant::now();
        self.send(line)?;
        let (at, response) = self.recv()?;
        Ok(((at - sent).as_secs_f64() * 1e3, response))
    }

    /// Send `requests` with `clients` outstanding and collect every
    /// response with its latency. Responses are matched by the echoed
    /// id; the reply to a malformed line carries none and is matched to
    /// the oldest outstanding malformed line.
    pub fn drive(&mut self, requests: &[Request], clients: usize) -> Result<Window, Error> {
        let n = requests.len();
        let mut sent_at = vec![Instant::now(); n];
        let mut latency_ms = vec![0.0; n];
        let mut responses = vec![String::new(); n];
        let mut malformed = VecDeque::new();
        let (mut next, mut done) = (0, 0);
        let started = Instant::now();
        let mut finished = started;
        while done < n {
            while next < n && next - done < clients {
                if !requests[next].line.starts_with('{') {
                    malformed.push_back(next);
                }
                sent_at[next] = Instant::now();
                self.send(&requests[next].line)?;
                next += 1;
            }
            let (at, line) = self.recv()?;
            let i = match response_index(&line) {
                Some(i) if i < next && responses[i].is_empty() => i,
                Some(_) => return Err(format!("unexpected response: {line}")),
                None => malformed.pop_front().ok_or(format!("response without id: {line}"))?,
            };
            latency_ms[i] = (at - sent_at[i]).as_secs_f64() * 1e3;
            responses[i] = line;
            finished = at;
            done += 1;
        }
        Ok(Window { wall_s: (finished - started).as_secs_f64(), finished, latency_ms, responses })
    }

    /// Close stdin, wait for the daemon, and require exit code 0.
    pub fn finish(mut self) -> Result<(), Error> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| format!("cannot wait for skild: {e}"))?;
        if let Some(reader) = self.reader.take() {
            reader.join().map_err(|_| "the reader thread panicked".to_string())?;
        }
        let mut stderr = String::new();
        if let Some(mut pipe) = self.child.stderr.take() {
            let _ = pipe.read_to_string(&mut stderr);
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("skild exited with {status}: {stderr}"))
        }
    }
}

/// A measurement that stops early must not leave the daemon behind.
impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(reader) = self.reader.take() {
            drop(self.stdin.take());
            let _ = self.child.kill();
            let _ = self.child.wait();
            let _ = reader.join();
        }
    }
}

/// The `N` of the `"id":"qN"` a response echoes.
fn response_index(line: &str) -> Option<usize> {
    const KEY: &str = "\"id\":\"q";
    let digits = &line[line.find(KEY)? + KEY.len()..];
    digits[..digits.find('"')?].parse().ok()
}

/// What one [`Daemon::drive`] call observed.
pub struct Window {
    /// First send to last response.
    pub wall_s: f64,
    /// When the last response was read.
    pub finished: Instant,
    /// Per request, write of the request to read of its response.
    pub latency_ms: Vec<f64>,
    pub responses: Vec<String>,
}

/// Responses held against the expected answers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checked {
    pub attempted: usize,
    pub failed: usize,
}

impl Checked {
    pub fn absorb(&mut self, other: Checked) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Check every response of a window; the first few failures are printed.
pub fn check(
    w: &Workload,
    expected: &Expected,
    requests: &[Request],
    responses: &[String],
) -> Checked {
    let mut checked = Checked { attempted: requests.len(), failed: 0 };
    for (req, resp) in std::iter::zip(requests, responses) {
        let class = &w.classes[req.class];
        if let Err(why) = expected.check(class, req.sweep, resp) {
            checked.failed += 1;
            if checked.failed <= 5 {
                eprintln!("FAIL {} `{}`: {why}", w.name, class.name);
            }
        }
    }
    checked
}

/// How a run is laid out, end to end or traced.
pub struct Plan<'a> {
    pub skild: &'a Path,
    /// Under which private native caches are made (and removed).
    pub scratch: &'a Path,
    /// Closed-loop clients, and `skild --threads`.
    pub clients: usize,
    pub repetitions: usize,
    pub seed: u64,
    /// Multiplies the frozen request counts.
    pub scale: f64,
}

/// The end-to-end metrics of one repetition, in `metrics::END_TO_END`
/// order.
pub type Repetition = [f64; 6];

/// One repetition: a fresh daemon on a fresh native cache, warm-up,
/// measured window, exit.
fn repetition(
    plan: &Plan,
    w: &Workload,
    expected: &Expected,
    (warmup, window): (&[Request], &[Request]),
    rep: usize,
) -> Result<(Repetition, Checked), Error> {
    let cache = NativeCache::fresh(plan.scratch, &format!("{}-rep{rep}", w.name))?;
    let mut daemon = Daemon::spawn(plan.skild, plan.clients, &cache.0)?;
    let pid = daemon.pid();

    let warm = daemon.drive(warmup, plan.clients)?;
    let setup_s = (warm.finished - daemon.spawned).as_secs_f64();
    let mut checked = check(w, expected, warmup, &warm.responses);
    cache.require_artifacts(w)?;

    let cpu_before = procfs::cpu_seconds(pid).map_err(|e| e.to_string())?;
    let measured = daemon.drive(window, plan.clients)?;
    let cpu_after = procfs::cpu_seconds(pid).map_err(|e| e.to_string())?;
    let stats = daemon.stats()?;
    let (hwm_kb, _) = procfs::rss_kb(pid).map_err(|e| e.to_string())?;
    daemon.finish()?;

    checked.absorb(check(w, expected, window, &measured.responses));
    if stats.get("machines_discarded").and_then(Json::as_u64) != Some(0) {
        return Err(format!("{}: skild discarded a machine (an engine panicked)", w.name));
    }

    let n = window.len() as f64;
    let mut latency = measured.latency_ms;
    sort(&mut latency);
    let metrics = [
        n / measured.wall_s,
        percentile(&latency, 0.50),
        percentile(&latency, 0.99),
        (cpu_after - cpu_before) * 1e3 / n,
        hwm_kb as f64 / 1024.0,
        setup_s,
    ];
    Ok((metrics, checked))
}

/// Every repetition of one workload.
pub fn run(
    plan: &Plan,
    w: &Workload,
    expected: &Expected,
) -> Result<(Vec<Repetition>, Checked), Error> {
    // Rendered once, before any daemon exists: no generator work is timed.
    let warmup = w.warmup_requests(plan.seed, plan.clients);
    let window = w.window_requests(plan.seed, w.whole_decks(w.requests, plan.scale));
    let mut reps = Vec::new();
    let mut checked = Checked::default();
    for rep in 0..plan.repetitions {
        let (metrics, c) = repetition(plan, w, expected, (&warmup, &window), rep)?;
        reps.push(metrics);
        checked.absorb(c);
    }
    Ok((reps, checked))
}

/// A private `SKIL_NATIVE_CACHE_DIR`, removed on drop.
pub struct NativeCache(pub PathBuf);

impl NativeCache {
    pub fn fresh(scratch: &Path, label: &str) -> Result<NativeCache, Error> {
        let dir = scratch.join(format!("native-cache-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(NativeCache(dir))
    }

    /// After warm-up the cache must hold one artifact per distinct
    /// native program. Fewer means the daemon fell back to the VM
    /// without saying so, and the run would time the VM twice.
    fn require_artifacts(&self, w: &Workload) -> Result<(), Error> {
        let mut native: Vec<_> = w
            .classes
            .iter()
            .filter(|c| c.engine == skil_lang::Engine::Native)
            .map(|c| (c.template, c.params))
            .collect();
        native.sort();
        native.dedup();
        let built = std::fs::read_dir(&self.0)
            .map_err(|e| format!("cannot list {}: {e}", self.0.display()))?
            .filter_map(Result::ok)
            .filter(|f| f.path().extension().is_some_and(|x| x == "so"))
            .count();
        if built == native.len() {
            Ok(())
        } else {
            Err(format!(
                "{}: {} native program(s) but {built} compiled artifact(s): \
                 the native engine fell back to the VM",
                w.name,
                native.len()
            ))
        }
    }
}

impl Drop for NativeCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_ids_are_found_wherever_the_key_sorts() {
        assert_eq!(response_index(r#"{"cache":"hit","id":"q17","ok":true}"#), Some(17));
        assert_eq!(response_index(r#"{"ok":false,"id":"q0","error":{}}"#), Some(0));
        assert_eq!(response_index(r#"{"ok":false,"error":{"kind":"bad_request"}}"#), None);
        assert_eq!(response_index(r#"{"id":"other"}"#), None);
    }
}
