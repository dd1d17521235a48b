//! Run reports: what a simulation measured.
//!
//! Beyond whole-run totals, a report carries three structured views used
//! by the observability exports (see [`crate::export`]):
//!
//! * per-span traffic counters on every [`TraceEvent`], aggregated into
//!   per-skeleton metrics by [`RunReport::skeleton_metrics`];
//! * a per-run src→dst [`CommMatrix`] assembled from the [`CommRow`]s
//!   the processors record while tracing is enabled;
//! * an ASCII timeline ([`RunReport::render_timeline`]) for quick
//!   terminal inspection.

use std::collections::BTreeMap;

/// What a [`TraceEvent`] records. `Span` is the ordinary duration event
/// from the PR 2 span API; the remaining kinds are zero-width instants
/// emitted by the fault-injection / reliable-delivery layer so fault
/// activity is visible in the same trace stream (and in the Chrome
/// export, where they render as instant events).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceKind {
    /// A duration span (skeleton or user section).
    #[default]
    Span,
    /// A transmission attempt was dropped by the fault plan.
    Drop,
    /// The sender retransmitted after a (virtual-time) ack timeout.
    Retry,
    /// The fault plan duplicated a delivery; the receiver's sequence
    /// numbers later suppress the extra copy.
    Dup,
    /// This processor crashed at its scheduled virtual cycle.
    Crash,
}

/// One traced span of activity on a processor (virtual time), together
/// with the traffic the processor performed *inside* the span. Counters
/// are inclusive: a span that contains nested spans also contains their
/// traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// What kind of event this is; fault kinds are zero-width instants.
    pub kind: TraceKind,
    /// Span label (usually a skeleton name).
    pub label: String,
    /// Virtual start cycle.
    pub start: u64,
    /// Virtual end cycle.
    pub end: u64,
    /// Messages sent during the span.
    pub sends: u64,
    /// Messages received during the span.
    pub recvs: u64,
    /// Payload bytes sent during the span.
    pub bytes_sent: u64,
    /// Payload bytes received during the span.
    pub bytes_recvd: u64,
}

impl TraceEvent {
    /// Inclusive virtual cycles spent in the span.
    pub fn cycles(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Per-processor activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Cycles charged as computation.
    pub compute: u64,
    /// Cycles spent waiting for messages (receiver idle time).
    pub wait: u64,
    /// Messages sent.
    pub sends: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages received.
    pub recvs: u64,
    /// Payload bytes received. Machine-wide, received bytes must equal
    /// sent bytes once every program has returned (conservation).
    pub bytes_recvd: u64,
    /// Transmission attempts retransmitted by the reliable-delivery
    /// layer (zero unless a fault plan is active).
    pub retries: u64,
    /// Transmission attempts dropped by the fault plan (sender side).
    pub drops: u64,
    /// Duplicate deliveries suppressed by the receiver's sequence
    /// numbers.
    pub dups: u64,
    /// Deliveries that arrived late because the fault plan injected
    /// extra in-flight latency.
    pub delays: u64,
}

impl ProcStats {
    /// Total fault-layer activity on this processor. Zero whenever the
    /// machine runs without a fault plan — pinned by the golden tests.
    pub fn fault_events(&self) -> u64 {
        self.retries + self.drops + self.dups + self.delays
    }
}

/// Host data-plane counters for one processor: how its messages moved on
/// the *host*, as opposed to the virtual-time traffic in [`ProcStats`].
/// Kept out of `ProcStats` deliberately — these depend on the payload
/// representation and the scheduler's delivery path, while `ProcStats`
/// is pinned bit-identical across schedulers by the differential tests.
/// For a fixed machine configuration the counters are still fully
/// deterministic (the payload representation is a pure function of the
/// encoded length, and every delivery takes the one direct path), so
/// exports that embed them stay byte-identical across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataPlaneStats {
    /// Envelopes whose payload travelled inline in the envelope
    /// (≤ [`INLINE_PAYLOAD`](crate::mailbox::INLINE_PAYLOAD) bytes, no
    /// heap allocation).
    pub inline_msgs: u64,
    /// Envelopes whose payload travelled as a shared heap buffer.
    pub heap_msgs: u64,
    /// Envelopes deposited over the scheduler-native path: into the
    /// receiver's queue, or handed to its parked task through the ready
    /// heap. Every envelope is.
    pub direct_deliveries: u64,
    /// Always 0: the condvar mailbox path it counted is gone. Kept only
    /// because the benchmark (`benchmark/src/trace.rs`) and the metrics
    /// export still read it.
    pub condvar_deliveries: u64,
}

impl DataPlaneStats {
    /// Merge another processor's counters into this one.
    pub fn absorb(&mut self, other: &DataPlaneStats) {
        self.inline_msgs += other.inline_msgs;
        self.heap_msgs += other.heap_msgs;
        self.direct_deliveries += other.direct_deliveries;
        self.condvar_deliveries += other.condvar_deliveries;
    }
}

/// One processor's row of the communication matrix: per-peer message and
/// byte counts, indexed by peer processor id. Recorded only while
/// tracing is enabled, so the data plane stays zero-cost otherwise.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommRow {
    /// Messages this processor sent to each destination.
    pub sent_msgs: Vec<u64>,
    /// Payload bytes this processor sent to each destination.
    pub sent_bytes: Vec<u64>,
    /// Messages this processor received from each source.
    pub recvd_msgs: Vec<u64>,
    /// Payload bytes this processor received from each source.
    pub recvd_bytes: Vec<u64>,
}

impl CommRow {
    /// An all-zero row for a machine of `n` processors.
    pub fn new(n: usize) -> Self {
        CommRow {
            sent_msgs: vec![0; n],
            sent_bytes: vec![0; n],
            recvd_msgs: vec![0; n],
            recvd_bytes: vec![0; n],
        }
    }
}

/// The machine-wide src→dst communication matrix, assembled from the
/// sender-side [`CommRow`]s. Entry `(src, dst)` counts traffic deposited
/// by `src` addressed to `dst`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommMatrix {
    /// Number of processors (the matrix is `n × n`, row-major by source).
    pub n: usize,
    /// Message counts, `msgs[src * n + dst]`.
    pub msgs: Vec<u64>,
    /// Payload byte counts, `bytes[src * n + dst]`.
    pub bytes: Vec<u64>,
}

impl CommMatrix {
    /// Messages sent from `src` to `dst`.
    pub fn msgs_at(&self, src: usize, dst: usize) -> u64 {
        self.msgs[src * self.n + dst]
    }

    /// Payload bytes sent from `src` to `dst`.
    pub fn bytes_at(&self, src: usize, dst: usize) -> u64 {
        self.bytes[src * self.n + dst]
    }
}

/// Aggregated per-skeleton (per-span-label) metrics over a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkeletonMetrics {
    /// Number of spans with this label across all processors.
    pub invocations: u64,
    /// Inclusive virtual cycles summed over those spans.
    pub cycles: u64,
    /// Messages sent inside those spans.
    pub sends: u64,
    /// Messages received inside those spans.
    pub recvs: u64,
    /// Payload bytes sent inside those spans.
    pub bytes_sent: u64,
    /// Payload bytes received inside those spans.
    pub bytes_recvd: u64,
}

/// Final state of one processor.
#[derive(Debug, Clone, Default)]
pub struct ProcReport {
    /// The processor's virtual clock when its program returned.
    pub finished_at: u64,
    /// Activity counters.
    pub stats: ProcStats,
    /// Host data-plane counters (delivery path, payload representation).
    pub data_plane: DataPlaneStats,
    /// Traced spans (empty unless tracing was enabled).
    pub trace: Vec<TraceEvent>,
    /// Per-peer traffic row (`None` unless tracing was enabled).
    pub comm: Option<CommRow>,
}

/// The result of simulating a program on the machine.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Virtual cycles at which the last processor finished — the
    /// simulated run time of the program.
    pub sim_cycles: u64,
    /// `sim_cycles` converted to seconds with the machine's clock rate.
    pub sim_seconds: f64,
    /// The machine's virtual clock rate in Hz (maps cycles to wall time
    /// in the exports).
    pub clock_hz: f64,
    /// The physical topology the machine ran on. Exports carry its
    /// canonical spec, and the comm-matrix export annotates every
    /// src→dst pair with the topology's hop metric.
    pub topology: crate::topology::Topology,
    /// Per-processor details, indexed by processor id.
    pub procs: Vec<ProcReport>,
}

impl RunReport {
    /// Sum of all processors' sent messages.
    pub fn total_msgs(&self) -> u64 {
        self.procs.iter().map(|p| p.stats.sends).sum()
    }

    /// Sum of all processors' sent payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.procs.iter().map(|p| p.stats.bytes_sent).sum()
    }

    /// Sum of all processors' received payload bytes. Equals
    /// [`total_bytes`](RunReport::total_bytes) for any program that
    /// receives every message it sends.
    pub fn total_bytes_recvd(&self) -> u64 {
        self.procs.iter().map(|p| p.stats.bytes_recvd).sum()
    }

    /// Total compute cycles over all processors.
    pub fn total_compute(&self) -> u64 {
        self.procs.iter().map(|p| p.stats.compute).sum()
    }

    /// Total wait cycles over all processors.
    pub fn total_wait(&self) -> u64 {
        self.procs.iter().map(|p| p.stats.wait).sum()
    }

    /// Machine-wide host data-plane counters, summed over processors.
    pub fn data_plane(&self) -> DataPlaneStats {
        let mut out = DataPlaneStats::default();
        for p in &self.procs {
            out.absorb(&p.data_plane);
        }
        out
    }

    /// Parallel efficiency proxy: average compute share of the critical
    /// path. 1.0 means perfectly balanced pure compute.
    pub fn efficiency(&self) -> f64 {
        if self.sim_cycles == 0 || self.procs.is_empty() {
            return 1.0;
        }
        self.total_compute() as f64 / (self.sim_cycles as f64 * self.procs.len() as f64)
    }

    /// Aggregate the traced spans into per-label skeleton metrics,
    /// ordered by label. Empty unless the run was traced.
    pub fn skeleton_metrics(&self) -> BTreeMap<String, SkeletonMetrics> {
        let mut out: BTreeMap<String, SkeletonMetrics> = BTreeMap::new();
        for p in &self.procs {
            for ev in &p.trace {
                let m = out.entry(ev.label.clone()).or_default();
                m.invocations += 1;
                m.cycles += ev.cycles();
                m.sends += ev.sends;
                m.recvs += ev.recvs;
                m.bytes_sent += ev.bytes_sent;
                m.bytes_recvd += ev.bytes_recvd;
            }
        }
        out
    }

    /// Assemble the src→dst communication matrix from the sender-side
    /// rows. `None` unless every processor recorded a row (i.e. tracing
    /// was enabled for the run).
    pub fn comm_matrix(&self) -> Option<CommMatrix> {
        let n = self.procs.len();
        let mut msgs = vec![0u64; n * n];
        let mut bytes = vec![0u64; n * n];
        for (src, p) in self.procs.iter().enumerate() {
            let row = p.comm.as_ref()?;
            for dst in 0..n {
                msgs[src * n + dst] = row.sent_msgs[dst];
                bytes[src * n + dst] = row.sent_bytes[dst];
            }
        }
        Some(CommMatrix { n, msgs, bytes })
    }

    /// Render the traced spans as an ASCII timeline (one row per
    /// processor, `width` columns spanning the whole run). Spans are
    /// marked with the first letter of their label; gaps are idle/wait.
    /// Degenerate widths (< 2 columns) are clamped up to 2.
    pub fn render_timeline(&self, width: usize) -> String {
        use std::fmt::Write;
        let width = width.max(2);
        let mut out = String::new();
        if self.sim_cycles == 0 {
            return "(empty run)\n".into();
        }
        let scale = |t: u64| -> usize {
            ((t as f64 / self.sim_cycles as f64) * (width.saturating_sub(1)) as f64) as usize
        };
        // assign each label a distinct mark: its first letter if free,
        // else the uppercase form, else a digit
        let mut legend: Vec<(String, char)> = Vec::new();
        let mark_of = |label: &str, legend: &mut Vec<(String, char)>| -> char {
            if let Some((_, m)) = legend.iter().find(|(l, _)| l == label) {
                return *m;
            }
            let first = label.chars().next().unwrap_or('?');
            let candidates = [first, first.to_ascii_uppercase()];
            let mut mark = candidates.into_iter().find(|c| !legend.iter().any(|(_, m)| m == c));
            if mark.is_none() {
                mark = ('0'..='9').find(|c| !legend.iter().any(|(_, m)| m == c));
            }
            let mark = mark.unwrap_or('?');
            legend.push((label.to_string(), mark));
            mark
        };
        let mut rows = String::new();
        for (id, p) in self.procs.iter().enumerate() {
            let mut row = vec![' '; width];
            for ev in &p.trace {
                let mark = mark_of(&ev.label, &mut legend);
                let (a, b) = (scale(ev.start), scale(ev.end).max(scale(ev.start)));
                for slot in row.iter_mut().take(b.min(width - 1) + 1).skip(a) {
                    *slot = mark;
                }
            }
            let _ = writeln!(rows, "p{id:<3} |{}|", row.iter().collect::<String>());
        }
        out.push_str(&rows);
        let _ = writeln!(
            out,
            "     0 {:->w$} {:.4}s",
            ">",
            self.sim_seconds,
            w = width.saturating_sub(8)
        );
        for (l, m) in legend {
            let _ = writeln!(out, "     {m} = {l}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(label: &str, start: u64, end: u64) -> TraceEvent {
        TraceEvent {
            kind: TraceKind::Span,
            label: label.into(),
            start,
            end,
            sends: 0,
            recvs: 0,
            bytes_sent: 0,
            bytes_recvd: 0,
        }
    }

    fn report() -> RunReport {
        RunReport {
            sim_cycles: 100,
            sim_seconds: 100.0 / 20e6,
            clock_hz: 20e6,
            topology: crate::topology::Topology::default_for(2).unwrap(),
            procs: vec![
                ProcReport {
                    finished_at: 100,
                    stats: ProcStats {
                        compute: 80,
                        wait: 20,
                        sends: 3,
                        bytes_sent: 64,
                        recvs: 2,
                        bytes_recvd: 16,
                        ..ProcStats::default()
                    },
                    data_plane: DataPlaneStats::default(),
                    trace: vec![TraceEvent {
                        kind: TraceKind::Span,
                        label: "map".into(),
                        start: 0,
                        end: 50,
                        sends: 2,
                        recvs: 1,
                        bytes_sent: 48,
                        bytes_recvd: 8,
                    }],
                    comm: None,
                },
                ProcReport {
                    finished_at: 90,
                    stats: ProcStats {
                        compute: 60,
                        wait: 30,
                        sends: 1,
                        bytes_sent: 16,
                        recvs: 2,
                        bytes_recvd: 64,
                        ..ProcStats::default()
                    },
                    data_plane: DataPlaneStats::default(),
                    trace: vec![],
                    comm: None,
                },
            ],
        }
    }

    #[test]
    fn totals() {
        let r = report();
        assert_eq!(r.total_msgs(), 4);
        assert_eq!(r.total_bytes(), 80);
        assert_eq!(r.total_bytes_recvd(), 80);
        assert_eq!(r.total_compute(), 140);
        assert_eq!(r.total_wait(), 50);
    }

    #[test]
    fn efficiency_bounds() {
        let r = report();
        let e = r.efficiency();
        assert!(e > 0.0 && e <= 1.0);
        assert!((e - 140.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_degenerate() {
        let r = RunReport {
            sim_cycles: 0,
            sim_seconds: 0.0,
            clock_hz: 20e6,
            topology: crate::topology::Topology::default_for(1).unwrap(),
            procs: vec![],
        };
        assert_eq!(r.efficiency(), 1.0);
        assert!(r.render_timeline(40).contains("empty"));
    }

    #[test]
    fn timeline_renders_spans() {
        let r = report();
        let t = r.render_timeline(40);
        assert!(t.contains("p0"), "{t}");
        assert!(t.contains("m"), "{t}");
        assert!(t.contains("m = map"), "{t}");
    }

    #[test]
    fn timeline_degenerate_widths_do_not_panic() {
        // Regression: `b.min(width - 1)` underflowed for width == 0.
        let r = report();
        for w in [0, 1, 7] {
            let t = r.render_timeline(w);
            assert!(t.contains("p0"), "width {w}: {t}");
            assert!(t.contains("m = map"), "width {w}: {t}");
        }
    }

    #[test]
    fn skeleton_metrics_aggregate_spans() {
        let mut r = report();
        r.procs[1].trace = vec![span("map", 10, 30), span("fold", 30, 90)];
        let m = r.skeleton_metrics();
        assert_eq!(m.len(), 2);
        let map = &m["map"];
        assert_eq!(map.invocations, 2);
        assert_eq!(map.cycles, 50 + 20);
        assert_eq!(map.sends, 2);
        assert_eq!(map.bytes_sent, 48);
        assert_eq!(m["fold"].invocations, 1);
        assert_eq!(m["fold"].cycles, 60);
    }

    #[test]
    fn comm_matrix_requires_rows_everywhere() {
        let mut r = report();
        assert!(r.comm_matrix().is_none());
        let mut row0 = CommRow::new(2);
        row0.sent_msgs[1] = 3;
        row0.sent_bytes[1] = 64;
        let mut row1 = CommRow::new(2);
        row1.sent_msgs[0] = 1;
        row1.sent_bytes[0] = 16;
        r.procs[0].comm = Some(row0);
        r.procs[1].comm = Some(row1);
        let m = r.comm_matrix().expect("both rows recorded");
        assert_eq!(m.msgs_at(0, 1), 3);
        assert_eq!(m.bytes_at(0, 1), 64);
        assert_eq!(m.msgs_at(1, 0), 1);
        assert_eq!(m.msgs_at(0, 0), 0);
        assert_eq!(m.msgs.iter().sum::<u64>(), r.total_msgs());
        assert_eq!(m.bytes.iter().sum::<u64>(), r.total_bytes());
    }
}
