//! The host configurations a machine can have, for the suites that must
//! hold under each of them: the goldens, the engine differentials and
//! the scheduler matrices. Nothing a run reports but host time may tell
//! them apart.

use skil_runtime::{MachineConfig, SchedulerKind};

/// Host configuration `i % 4` of `cfg`, with its name: the event
/// scheduler adaptive, on one worker or on two from the start of every
/// run, or the thread scheduler.
pub fn host(i: usize, cfg: MachineConfig) -> (&'static str, MachineConfig) {
    match i % 4 {
        0 => ("event", cfg),
        1 => ("event, 1 worker", cfg.with_workers(1)),
        2 => ("event, 2 workers", cfg.with_workers(2)),
        _ => ("threads", cfg.with_scheduler(SchedulerKind::Threads)),
    }
}

/// All four host configurations of `cfg`.
pub fn hosts(cfg: MachineConfig) -> [(&'static str, MachineConfig); 4] {
    [0, 1, 2, 3].map(|i| host(i, cfg.clone()))
}
