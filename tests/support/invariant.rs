//! The invariant the repository rests on, and the one harness that
//! checks it. A run is a pure function of the program and the cost
//! model: what each processor prints, when it finishes, its `ProcStats`
//! and, traced, its comm row may not move with the engine, the opt
//! level, the host configuration or a repeat of the run. A recoverable
//! fault plan may move clocks and fault counters, nothing else. Host
//! time may move, and `DataPlaneStats` (how envelopes moved on the host)
//! between hosts.
//!
//! A suite is rows (programs) run under configs (a value of the
//! caller's axis, such as engine x opt level, on a machine), and
//! [`assert_same`] holds every config of a row to the row's first.

#![allow(dead_code)]

use std::fmt::Debug;

use skil_runtime::report::DataPlaneStats;
use skil_runtime::{CommRow, Machine, MachineConfig, ProcStats, Run, SimAbort, SimFailure};

#[path = "hosts.rs"]
pub mod hosts;

/// What a run or a failure shows, host time and `DataPlaneStats` aside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observed {
    /// Per processor, in processor order.
    Ran(Vec<Seen>),
    /// The structured aborts, in processor order.
    Failed(Vec<SimAbort>),
}

/// What one processor of a run shows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Seen {
    /// What it printed or returned, as `Debug` renders it.
    pub output: String,
    pub finished_at: u64,
    pub stats: ProcStats,
    /// Its row of the communication matrix, when the run was traced.
    pub comm: Option<CommRow>,
}

/// What `outcome` shows. Processor `i`'s output is `results[i]`, if
/// there is one (an app returns one assembled value).
pub fn observe<R: Debug>(outcome: &Result<Run<R>, SimFailure>) -> Observed {
    let run = match outcome {
        Ok(run) => run,
        Err(failure) => return Observed::Failed(failure.aborts.clone()),
    };
    let seen = |(i, p): (usize, &skil_runtime::ProcReport)| Seen {
        output: run.results.get(i).map_or_else(String::new, |r| format!("{r:?}")),
        finished_at: p.finished_at,
        stats: p.stats,
        comm: p.comm.clone(),
    };
    Observed::Ran(run.report.procs.iter().enumerate().map(seen).collect())
}

impl Observed {
    /// Everything observed as one value: the `Debug` rendering's bytes,
    /// eight to a little-endian word, each taken into a splitmix64 step
    /// with the finalizer `skil_runtime::fault` hashes fates with.
    pub fn digest(&self) -> u64 {
        let mix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        format!("{self:?}").as_bytes().chunks(8).fold(0, |h: u64, chunk| {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            mix(h.wrapping_add(0x9e37_79b9_7f4a_7c15) ^ u64::from_le_bytes(word))
        })
    }

    /// The processors of a run; panics on a failure.
    pub fn procs(&self) -> &[Seen] {
        match self {
            Observed::Ran(procs) => procs,
            Observed::Failed(aborts) => panic!("the run failed: {aborts:?}"),
        }
    }

    /// The simulated run time: when the last processor finished.
    pub fn sim_cycles(&self) -> u64 {
        self.procs().iter().map(|p| p.finished_at).max().unwrap_or(0)
    }

    /// What a recoverable fault plan may not move: the output and the
    /// logical counters (compute, and messages and bytes each way).
    pub fn logical(&self) -> Observed {
        let keep = |p: &Seen| {
            let s = p.stats;
            let stats = ProcStats {
                compute: s.compute,
                sends: s.sends,
                bytes_sent: s.bytes_sent,
                recvs: s.recvs,
                bytes_recvd: s.bytes_recvd,
                ..ProcStats::default()
            };
            Seen { output: p.output.clone(), finished_at: 0, stats, comm: None }
        };
        Observed::Ran(self.procs().iter().map(keep).collect())
    }
}

/// Where `got` differs from `want`, if it does. Comm rows are compared
/// where both runs were traced.
pub fn difference(want: &Observed, got: &Observed) -> Option<String> {
    let (Observed::Ran(w), Observed::Ran(g)) = (want, got) else {
        return (want != got).then(|| format!("{got:?} where {want:?}"));
    };
    if w.len() != g.len() {
        return Some(format!("{} processors where {}", g.len(), w.len()));
    }
    w.iter().zip(g).enumerate().find_map(|(i, (w, g))| {
        let comm = w.comm.is_some() && g.comm.is_some() && w.comm != g.comm;
        let same = w.output == g.output && w.finished_at == g.finished_at && w.stats == g.stats;
        (!same || comm).then(|| format!("processor {i}: {g:?} where {w:?}"))
    })
}

/// A program, and the clean run its first config must mask a
/// recoverable fault plan against, if it carries one.
pub struct Row<P> {
    pub name: String,
    pub program: P,
    pub masks: Option<Observed>,
}

impl<P> Row<P> {
    pub fn new(name: impl Into<String>, program: P) -> Self {
        Row { name: name.into(), program, masks: None }
    }

    /// Also hold the row's first config to `clean` as
    /// [`Observed::logical`] sees them, with fault events.
    pub fn masking(self, clean: Observed) -> Self {
        Row { masks: Some(clean), ..self }
    }
}

/// A value of the caller's axis on a named machine. Configs on one
/// machine share a host.
pub struct Config<'m, A> {
    pub axis: A,
    pub host: &'m str,
    pub machine: &'m Machine,
}

/// A machine on each host configuration of `cfg`, named.
pub fn machines(cfg: MachineConfig) -> Vec<(&'static str, Machine)> {
    hosts::hosts(cfg).into_iter().map(|(host, cfg)| (host, Machine::new(cfg))).collect()
}

/// Every axis value on every machine, machine by machine.
pub fn configs<'m, A: Clone, S: AsRef<str>>(
    axes: &[A],
    machines: &'m [(S, Machine)],
) -> Vec<Config<'m, A>> {
    let on = |(host, machine): &'m (S, Machine)| {
        axes.iter().map(move |axis| Config { axis: axis.clone(), host: host.as_ref(), machine })
    };
    machines.iter().flat_map(on).collect()
}

/// Run every row under every config and hold each run to the row's
/// first: the same [`Observed`], the same `DataPlaneStats` as the runs
/// before it on its machine, and as many bytes received as sent. A
/// masking row's first run must mask its plan. Returns each row's first
/// run.
pub fn assert_same<P, A: Debug, R: Debug>(
    rows: &[Row<P>],
    configs: &[Config<'_, A>],
    run: impl Fn(&P, &A, &Machine) -> Result<Run<R>, SimFailure>,
) -> Vec<Observed> {
    let row_alike = |row: &Row<P>| {
        let mut first: Option<(String, Observed)> = None;
        let mut planes: Vec<(&Machine, Vec<DataPlaneStats>)> = Vec::new();
        for c in configs {
            let at = format!("{} under {:?} on {}", row.name, c.axis, c.host);
            let outcome = run(&row.program, &c.axis, c.machine);
            if let Ok(r) = &outcome {
                let (sent, recvd) = (r.report.total_bytes(), r.report.total_bytes_recvd());
                assert_eq!(sent, recvd, "{at}: bytes sent and received");
                let plane: Vec<_> = r.report.procs.iter().map(|p| p.data_plane).collect();
                match planes.iter().find(|(m, _)| std::ptr::eq(*m, c.machine)) {
                    Some((_, want)) => assert_eq!(&plane, want, "{at}: data plane"),
                    None => planes.push((c.machine, plane)),
                }
            }
            let seen = observe(&outcome);
            match &first {
                None => first = Some((at, seen)),
                Some((was, want)) => {
                    if let Some(d) = difference(want, &seen) {
                        panic!("{at}: {d} (first: {was})");
                    }
                }
            }
        }
        let (at, seen) = first.expect("a row runs under at least one config");
        if let Some(clean) = &row.masks {
            if let Some(d) = difference(&clean.logical(), &seen.logical()) {
                panic!("{at}: the fault plan shows: {d}");
            }
            let events: u64 = seen.procs().iter().map(|p| p.stats.fault_events()).sum();
            assert!(events > 0, "{at}: the fault plan injected nothing");
        }
        seen
    };
    rows.iter().map(row_alike).collect()
}

/// An output byte, a finish time, each `ProcStats` counter, a comm row
/// and the order of two processors each move the digest; a data-plane
/// counter does not.
#[test]
fn the_digest_sees_every_observable_and_no_data_plane_counter() {
    let machine = Machine::new(MachineConfig::square(2).unwrap().with_trace());
    let digest = |edit: &dyn Fn(&mut Run<String>)| {
        let mut outcome = machine.try_run(|p| {
            let n = p.nprocs();
            p.charge(10 * (p.id() as u64 + 1));
            p.send((p.id() + 1) % n, 1, &(p.id() as u64));
            format!("got {}", p.recv::<u64>((p.id() + n - 1) % n, 1))
        });
        edit(outcome.as_mut().expect("the ring runs"));
        observe(&outcome).digest()
    };
    let stat = |counter: fn(&mut ProcStats) -> &mut u64| {
        digest(&|r| *counter(&mut r.report.procs[2].stats) += 1)
    };
    let mut digests = vec![
        digest(&|_| {}),
        digest(&|r| r.results[1].replace_range(0..1, "G")),
        digest(&|r| r.report.procs[3].finished_at += 1),
        digest(&|r| r.report.procs.swap(0, 1)),
        digest(&|r| r.report.procs[0].comm.as_mut().unwrap().sent_bytes[1] += 1),
        stat(|s| &mut s.compute),
        stat(|s| &mut s.wait),
        stat(|s| &mut s.sends),
        stat(|s| &mut s.bytes_sent),
        stat(|s| &mut s.recvs),
        stat(|s| &mut s.bytes_recvd),
        stat(|s| &mut s.retries),
        stat(|s| &mut s.drops),
        stat(|s| &mut s.dups),
        stat(|s| &mut s.delays),
    ];
    let plane = digest(&|r| r.report.procs[1].data_plane.heap_msgs += 9);
    assert_eq!(plane, digests[0], "a data-plane counter moved the digest");
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), 15, "an edit left the digest as it was");
}
