//! # skil-runtime
//!
//! A deterministic **virtual-time simulator** of the distributed-memory
//! MIMD machine the Skil paper evaluates on: a Parsytec MC — 64 T800
//! transputers at 20 MHz on a 2-D mesh, running the Parix OS.
//!
//! SPMD programs run as real Rust closures, one host thread per simulated
//! processor. Each processor carries a virtual cycle clock; computation
//! advances it via [`Proc::charge`], and messages carry arrival
//! timestamps computed from a calibrated LogP-style link model
//! ([`CostModel`]). `recv` raises the receiver's clock to the arrival
//! time, so the maximum clock at program exit is the simulated parallel
//! run time — deterministically, regardless of host scheduling or core
//! count.
//!
//! The crate provides:
//!
//! * [`Machine`] / [`MachineConfig`] — build and run simulations;
//! * [`Proc`] — the per-processor handle: `send`/`send_sync`/`recv`,
//!   collectives (broadcast, reduce, allreduce, gather, barrier);
//! * [`Wire`] — the flatten/unflatten contract for data that crosses
//!   processors (the paper's "flattening" of dynamic data);
//! * [`topology`] — the physical mesh plus ring/torus virtual topologies
//!   with realistic embedding costs, and the binomial collective tree;
//! * [`CostModel`] — per-operation cycle charges calibrated against the
//!   paper's Tables 1 and 2 (see `DESIGN.md` / `EXPERIMENTS.md`);
//! * [`export`] — observability exports of a [`RunReport`]: a metrics
//!   JSON (per-skeleton cycles/messages/bytes plus the src→dst
//!   communication matrix) and a Chrome `trace_events` JSON of the
//!   traced spans (see `DESIGN.md` §9).

#![warn(missing_docs)]

pub mod collective;
pub(crate) mod coro;
pub mod cost;
pub mod error;
pub mod export;
pub mod fault;
pub mod machine;
pub mod mailbox;
pub mod proc;
pub mod report;
pub(crate) mod sched;
pub mod topology;
pub mod wire;

pub use cost::CostModel;
pub use error::{
    runtime_error_message, AbortCause, RtError, SimAbort, SimFailure, WireError, RT_ERROR_PREFIX,
};
pub use fault::{Fate, FaultPlan};
pub use machine::{helper_threads, stacks_idle, Machine, MachineConfig, Run, SchedulerKind};
pub use proc::{Proc, SpanStart};
pub use report::{
    CommMatrix, CommRow, ProcReport, ProcStats, RunReport, SkeletonMetrics, TraceEvent, TraceKind,
};
pub use topology::{BinomialTree, Distr, Mesh, Ring, Topology, Torus2d};
pub use wire::{Wire, WireReader};
