//! Error types for the runtime.

use std::fmt;

/// Errors produced while decoding a wire-format byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The reader ran out of bytes before the value was complete.
    Eof {
        /// How many bytes the decoder wanted.
        wanted: usize,
        /// How many bytes were left.
        available: usize,
    },
    /// The bytes were structurally invalid for the expected type
    /// (e.g. a bad enum discriminant or a non-UTF-8 string).
    Invalid(&'static str),
    /// Trailing bytes remained after a complete top-level decode.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eof { wanted, available } => write!(
                f,
                "unexpected end of wire data: wanted {wanted} bytes, {available} available"
            ),
            WireError::Invalid(what) => write!(f, "invalid wire data: {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
        }
    }
}

impl std::error::Error for WireError {}

/// Errors produced by runtime operations (message passing, topology use).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtError {
    /// A message destination or source was not a valid processor id.
    BadProc {
        /// The offending processor id.
        id: usize,
        /// Number of processors in the machine.
        nprocs: usize,
    },
    /// A message payload failed to decode as the requested type.
    Decode(WireError),
    /// A processor sent a message to itself, which the link model
    /// does not support (local data needs no message).
    SelfSend(usize),
    /// The machine configuration was inconsistent
    /// (e.g. mesh dimensions whose product is not the processor count).
    BadConfig(String),
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::BadProc { id, nprocs } => {
                write!(f, "processor id {id} out of range (machine has {nprocs})")
            }
            RtError::Decode(e) => write!(f, "message decode failed: {e}"),
            RtError::SelfSend(id) => write!(f, "processor {id} attempted to send to itself"),
            RtError::BadConfig(msg) => write!(f, "bad machine configuration: {msg}"),
        }
    }
}

impl std::error::Error for RtError {}

impl From<WireError> for RtError {
    fn from(e: WireError) -> Self {
        RtError::Decode(e)
    }
}

/// Panic-message prefix that marks a *Skil-program* runtime error
/// (division by zero, out-of-bounds index, a misused array handle).
///
/// Both language engines raise these deterministic program-level errors
/// as string panics carrying this prefix; the machine's job wrapper
/// recognizes the prefix and converts the unwind into a structured
/// [`AbortCause::RuntimeError`] flowing through
/// [`Machine::try_run`](crate::Machine::try_run) — the processor is
/// marked down (blocked peers cascade as `PeerDown`) and the machine is
/// *not* poisoned, so a long-lived embedder such as `skild` keeps
/// serving from the same warm machine. Panics without the prefix remain
/// genuine bugs: they poison the machine and re-raise on the caller.
pub const RT_ERROR_PREFIX: &str = "skil runtime: ";

/// If `payload` (a panic payload) is a Skil runtime error per the
/// [`RT_ERROR_PREFIX`] contract, return its message with the prefix
/// stripped.
pub fn runtime_error_message(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&'static str>().copied())?;
    msg.strip_prefix(RT_ERROR_PREFIX)
}

/// Why a processor went down mid-run (fault injection, delivery-layer
/// give-up, a Skil-program runtime error, or a deadlock). Ordinary Rust panics in
/// user code are *not* represented here — they still poison the machine
/// and resume on the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortCause {
    /// The fault plan crashed this processor at the given virtual cycle.
    Crashed {
        /// The virtual cycle at which the crash fired.
        cycle: u64,
    },
    /// The reliable-delivery layer exhausted its retry budget sending to
    /// `dst` — the link (or peer) is considered dead.
    RetryExhausted {
        /// Destination processor of the undeliverable message.
        dst: usize,
        /// Message tag of the undeliverable message.
        tag: u64,
        /// Total transmission attempts made (1 original + retries).
        attempts: u32,
    },
    /// A peer this processor was communicating with went down; the
    /// failure cascades through the blocked receive.
    PeerDown {
        /// The processor that went down first.
        peer: usize,
    },
    /// The Skil program itself hit a deterministic runtime error
    /// (division by zero, out-of-bounds index, …) on this processor.
    /// See [`RT_ERROR_PREFIX`] for how engines raise these.
    RuntimeError {
        /// The diagnostic, without the [`RT_ERROR_PREFIX`].
        what: String,
    },
    /// This processor waited on a receive that can never match: the
    /// scheduler proves it structurally — every live task parked, no
    /// wake in flight.
    Deadlock {
        /// The awaited source processor.
        src: usize,
        /// The awaited tag.
        tag: u64,
        /// `(src, tag)` of every envelope queued at this processor, one
        /// entry per envelope, sorted — a misrouted tag shows up here.
        pending: Vec<(usize, u64)>,
    },
}

impl fmt::Display for AbortCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortCause::Crashed { cycle } => {
                write!(f, "crashed by fault plan at virtual cycle {cycle}")
            }
            AbortCause::RetryExhausted { dst, tag, attempts } => write!(
                f,
                "retry budget exhausted sending to processor {dst} (tag {tag}) after \
                 {attempts} attempts"
            ),
            AbortCause::PeerDown { peer } => {
                write!(f, "PeerDown: processor {peer} went down mid-run")
            }
            AbortCause::RuntimeError { what } => {
                write!(f, "Skil runtime error: {what}")
            }
            AbortCause::Deadlock { src, tag, pending } => write!(
                f,
                "deadlock suspected waiting for (src={src}, tag={tag}); {} pending (src, tag) \
                 envelope(s): {pending:?}",
                pending.len()
            ),
        }
    }
}

/// The structured panic payload a processor unwinds with when it goes
/// down for a simulated (fault-model) reason. The machine's job wrapper
/// downcasts for this to distinguish simulated failures from genuine
/// bugs in user code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimAbort {
    /// The processor that aborted.
    pub proc: usize,
    /// Why it aborted.
    pub cause: AbortCause,
}

impl fmt::Display for SimAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "processor {}: {}", self.proc, self.cause)
    }
}

impl std::error::Error for SimAbort {}

/// A whole-run failure: one or more processors went down for simulated
/// reasons. Returned by [`Machine::try_run`](crate::Machine::try_run)
/// instead of hanging or unwinding, so callers (and the `skilc` CLI) can
/// report it as a structured diagnostic.
#[derive(Debug, Clone)]
pub struct SimFailure {
    /// Every processor that aborted, in processor-id order. The first
    /// entry with a non-`PeerDown` cause is the root failure.
    pub aborts: Vec<SimAbort>,
}

impl SimFailure {
    /// The root failure: the first abort whose cause is not a cascaded
    /// `PeerDown` (falls back to the first abort if all are cascades).
    pub fn root(&self) -> &SimAbort {
        self.aborts
            .iter()
            .find(|a| !matches!(a.cause, AbortCause::PeerDown { .. }))
            .unwrap_or(&self.aborts[0])
    }
}

impl fmt::Display for SimFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Fault-model failures keep the historical "PeerDown" headline
        // (the CI fault matrix greps for it); program-level runtime
        // errors and deadlocks get an accurate one.
        let label = match self.root().cause {
            AbortCause::RuntimeError { .. } => "runtime error",
            AbortCause::Deadlock { .. } => "deadlock",
            _ => "PeerDown",
        };
        writeln!(f, "simulation failed: {label} ({} processor(s) down)", self.aborts.len())?;
        for a in &self.aborts {
            writeln!(f, "  {a}")?;
        }
        write!(f, "  root cause: {}", self.root())
    }
}

impl std::error::Error for SimFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_eof() {
        let e = WireError::Eof { wanted: 8, available: 3 };
        assert!(e.to_string().contains("wanted 8"));
        assert!(e.to_string().contains("3 available"));
    }

    #[test]
    fn display_invalid() {
        assert!(WireError::Invalid("bad bool").to_string().contains("bad bool"));
    }

    #[test]
    fn display_rt_errors() {
        let e = RtError::BadProc { id: 9, nprocs: 4 };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("4"));
        assert!(RtError::SelfSend(2).to_string().contains("2"));
        assert!(RtError::BadConfig("x".into()).to_string().contains("x"));
    }

    #[test]
    fn wire_error_converts() {
        let e: RtError = WireError::Invalid("oops").into();
        assert!(matches!(e, RtError::Decode(_)));
    }

    #[test]
    fn sim_failure_reports_root_cause_and_peer_down() {
        let f = SimFailure {
            aborts: vec![
                SimAbort { proc: 0, cause: AbortCause::PeerDown { peer: 3 } },
                SimAbort { proc: 3, cause: AbortCause::Crashed { cycle: 1_000_000 } },
            ],
        };
        // Display must mention PeerDown (the CI fault-matrix greps it)
        // and pick the crash, not the cascade, as the root cause.
        let s = f.to_string();
        assert!(s.contains("PeerDown"), "{s}");
        assert!(s.contains("root cause: processor 3"), "{s}");
        assert_eq!(f.root().proc, 3);

        let all_cascade = SimFailure {
            aborts: vec![SimAbort { proc: 1, cause: AbortCause::PeerDown { peer: 2 } }],
        };
        assert_eq!(all_cascade.root().proc, 1);
    }

    #[test]
    fn abort_cause_display() {
        let c = AbortCause::RetryExhausted { dst: 2, tag: 7, attempts: 17 };
        let s = c.to_string();
        assert!(s.contains("processor 2") && s.contains("17 attempts"), "{s}");
    }

    #[test]
    fn runtime_error_payloads_are_recognized() {
        // Both payload shapes a `panic!` can produce: a formatted String
        // and a `&'static str` literal.
        let s: Box<dyn std::any::Any + Send> =
            Box::new(format!("{RT_ERROR_PREFIX}integer division by zero"));
        assert_eq!(runtime_error_message(&*s), Some("integer division by zero"));
        let l: Box<dyn std::any::Any + Send> = Box::new("skil runtime: negative index");
        assert_eq!(runtime_error_message(&*l), Some("negative index"));
        // Unprefixed panics are genuine bugs, not runtime errors.
        let other: Box<dyn std::any::Any + Send> = Box::new("some unrelated panic".to_string());
        assert_eq!(runtime_error_message(&*other), None);
        let non_string: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(runtime_error_message(&*non_string), None);
    }

    #[test]
    fn runtime_error_failure_display_names_the_error() {
        let f = SimFailure {
            aborts: vec![
                SimAbort { proc: 1, cause: AbortCause::PeerDown { peer: 0 } },
                SimAbort {
                    proc: 0,
                    cause: AbortCause::RuntimeError { what: "integer division by zero".into() },
                },
            ],
        };
        let s = f.to_string();
        assert!(s.contains("runtime error"), "{s}");
        assert!(s.contains("root cause: processor 0: Skil runtime error"), "{s}");
        assert!(s.contains("integer division by zero"), "{s}");
    }
}
