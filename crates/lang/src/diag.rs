//! Compiler diagnostics with source positions.

#![forbid(unsafe_code)]

use std::fmt;

/// A position in the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Which compiler phase rejected the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Tokenizing the source.
    Lex,
    /// Parsing.
    Parse,
    /// Polymorphic type checking.
    Type,
    /// The instantiation procedure.
    Instantiate,
    /// Program execution.
    Run,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::Lex => "lex",
            Phase::Parse => "parse",
            Phase::Type => "type",
            Phase::Instantiate => "instantiate",
            Phase::Run => "runtime",
        };
        f.write_str(s)
    }
}

/// A compiler diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// Offending phase.
    pub phase: Phase,
    /// Source position (best effort).
    pub pos: Pos,
    /// Human-readable message.
    pub msg: String,
}

impl Diag {
    /// Build a diagnostic.
    pub fn new(phase: Phase, pos: Pos, msg: impl Into<String>) -> Self {
        Diag { phase, pos, msg: msg.into() }
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error at {}: {}", self.phase, self.pos, self.msg)
    }
}

impl std::error::Error for Diag {}

/// Result alias for compiler phases.
pub type Result<T> = std::result::Result<T, Diag>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_phase_and_pos() {
        let d = Diag::new(Phase::Type, Pos { line: 3, col: 7 }, "mismatch");
        assert_eq!(d.to_string(), "type error at 3:7: mismatch");
    }
}
