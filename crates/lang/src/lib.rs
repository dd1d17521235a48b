//! # skil-lang
//!
//! The **Skil language front end**: "an imperative language enhanced with
//! higher-order functions and currying, as well as with a polymorphic
//! type system", compiled by *instantiation* into first-order
//! monomorphic code and executed SPMD on the simulated machine.
//!
//! The pipeline mirrors the paper's §2:
//!
//! 0. [`sym`] — identifiers are interned once, by the lexer, into a
//!    symbol table that belongs to this compile alone; every later pass
//!    carries `u32` symbols, and the table ends up as the string table
//!    of the result.
//! 1. [`parser::parse`] — a C-subset grammar extended with type
//!    variables (`$t`), functional parameters (`int is_trivial($a)`),
//!    currying/partial application (`above_thresh(t)`), operator sections
//!    (`(+)`, `(*)(2)`), the `pardata` construct, and `Index`/`Size`
//!    literals (`{n, n}`).
//! 2. [`check::check`] — polymorphic type checking, including the
//!    pardata composition rules ("distributed data structures may not be
//!    nested"; type variables inside other data types may not become
//!    pardata).
//! 3. [`instantiate::instantiate`] — **translation by instantiation**:
//!    functional arguments are inlined into specialized instances,
//!    partial-application arguments are lifted into parameters, and
//!    polymorphic functions are monomorphized; the result
//!    ([`fo::FoProgram`]) contains no functional features at all.
//! 4. [`bytecode::compile_program`] — resolve variables to frame slots
//!    and callees to dense indices, flatten the statement tree into a
//!    compact instruction stream with symbolic cycle charges — then
//!    [`opt::optimize`] — constant folding, copy/constant propagation,
//!    dead-store/slot elimination, superinstruction fusion, and leaf
//!    inlining, preserving every symbolic charge exactly
//!    (`--opt-level 0|2`, default 2; `0` is the reference).
//! 5. Either [`emit_c::emit_c`] — pretty-print the first-order program as
//!    the C the paper's compiler would hand to its back end — or execute
//!    it SPMD on a [`skil_runtime::Machine`] with skeleton calls
//!    dispatched to `skil-core` and virtual cycles charged per IR
//!    operation. Two engines serve requests: the bytecode VM
//!    ([`Engine::Vm`], the default: [`vm`]) and the native engine
//!    ([`Engine::Native`]: [`emit_rust::emit_rust`] output compiled by
//!    the host `rustc` to a `cdylib` and loaded with `dlopen`). The AST
//!    walker ([`Engine::Ast`], [`interp::run_program`]) is the
//!    library-only reference both are held to; their virtual time is
//!    bit-identical by construction.
//!
//! ```
//! use skil_lang::compile;
//! use skil_runtime::{Machine, MachineConfig};
//!
//! let program = compile(
//!     "int initf(Index ix) { return ix[0] + ix[1]; }\n\
//!      int conv(int v, Index ix) { return v; }\n\
//!      void main() {\n\
//!        array<int> a = array_create(1, {16,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
//!        int total = array_fold(conv, (+), a);\n\
//!        if (procId == 0) { print(total); }\n\
//!      }",
//! )
//! .expect("compiles");
//! let machine = Machine::new(MachineConfig::procs(4).unwrap());
//! let run = program.run(&machine);
//! assert_eq!(run.results[0], vec!["120".to_string()]);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod builtins;
pub mod bytecode;
pub mod check;
pub mod diag;
pub mod emit_c;
pub mod emit_rust;
pub mod fo;
mod host;
pub mod instantiate;
pub mod interp;
mod kernel;
mod native;
pub mod opt;
pub mod parser;
mod scalar;
mod store;
pub mod sym;
pub mod token;
pub mod types;
pub mod value;
pub mod vm;

use skil_runtime::{Machine, Run};

pub use diag::{Diag, Phase, Pos};
pub use fo::FoProgram;
pub use opt::{OptLevel, OptStats};
pub use value::Value;

/// Which execution engine runs an instantiated program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The AST walker: the reference the other engines are held to.
    /// Library-only — [`Engine::from_arg`] does not name it, so neither
    /// `skilc` nor `skild` runs it.
    Ast,
    /// The bytecode VM — the fast engine, bit-identical virtual time.
    #[default]
    Vm,
    /// Machine code: the program compiled to a `cdylib` by the host
    /// `rustc` ([`emit_rust`]) and loaded with `dlopen`, still charging
    /// bit-identical virtual time. Falls back to the VM when no `rustc`
    /// is available.
    Native,
}

impl Engine {
    /// Parse a CLI/request spelling (`"vm"` / `"native"`).
    pub fn from_arg(s: &str) -> Option<Engine> {
        match s {
            "vm" => Some(Engine::Vm),
            "native" => Some(Engine::Native),
            _ => None,
        }
    }

    /// The canonical spelling (`"ast"` / `"vm"` / `"native"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Ast => "ast",
            Engine::Vm => "vm",
            Engine::Native => "native",
        }
    }
}

/// A compiled Skil program: parsed, type-checked, instantiated, and
/// compiled to (optimized) bytecode. It keeps what a run reads — the
/// first-order program (the walker's input, the kernel cost estimates,
/// and the one string table) and the optimized bytecode — at exact
/// capacity; the syntax tree, the checker's tables and the unoptimized
/// bytecode are gone when `compile_opt` returns.
#[derive(Debug)]
pub struct Compiled {
    /// The instantiated first-order program.
    pub fo: FoProgram,
    /// The bytecode the VM executes: `compile_program`'s output after
    /// [`opt::optimize`].
    pub code: bytecode::Program,
    /// The opt level `code` was produced at.
    pub opt_level: OptLevel,
    /// Per-pass optimizer counters.
    pub opt_stats: OptStats,
    /// The typed register code of the skeleton argument functions that
    /// lowered; the VM runs the others from `code`, in kernel mode.
    kernel: kernel::KernelView,
    /// Memo of the prepared native module (emit + hash + load happen
    /// once per `Compiled`, not once per run).
    native_cache: native::ModuleCache,
}

/// Compile Skil source through the full front end at the default opt
/// level (`-O2`).
pub fn compile(src: &str) -> diag::Result<Compiled> {
    compile_opt(src, OptLevel::default())
}

/// Compile Skil source at an explicit opt level. Every level computes
/// the same values and charges bit-identical virtual time; higher
/// levels only run faster on the host.
pub fn compile_opt(src: &str, level: OptLevel) -> diag::Result<Compiled> {
    let prog = parser::parse(src)?;
    let mut ck = check::check(&prog)?;
    let fo = instantiate::instantiate(&mut ck)?;
    let raw = bytecode::compile_program(&fo);
    let (code, opt_stats) = opt::optimize(&raw, level);
    let kernel = kernel::KernelView::build(&fo, &code, level);
    Ok(Compiled { fo, code, opt_level: level, opt_stats, kernel, native_cache: Default::default() })
}

impl Compiled {
    /// Emit the program as the C-like code the paper's compiler would
    /// produce.
    pub fn emit_c(&self) -> String {
        emit_c::emit_c(&self.fo)
    }

    /// Execute the program SPMD on a machine with the default engine
    /// (the bytecode VM); each processor's `print` output is returned in
    /// `results`.
    pub fn run(&self, machine: &Machine) -> Run<Vec<String>> {
        self.run_with(Engine::Vm, machine)
    }

    /// Execute with an explicit engine. Both engines print the same
    /// output and charge bit-identical virtual time.
    pub fn run_with(&self, engine: Engine, machine: &Machine) -> Run<Vec<String>> {
        match engine {
            Engine::Ast => interp::run_program(&self.fo, machine),
            Engine::Vm | Engine::Native => {
                self.try_run_with(engine, machine).unwrap_or_else(|failure| panic!("{failure}"))
            }
        }
    }

    /// Execute like [`Compiled::run_with`], but surface simulated
    /// failures (fault-plan crashes, retry-budget give-ups, Skil runtime
    /// errors, `PeerDown` cascades) as a structured `Err` instead of a
    /// panic.
    pub fn try_run_with(
        &self,
        engine: Engine,
        machine: &Machine,
    ) -> Result<Run<Vec<String>>, skil_runtime::SimFailure> {
        self.try_run_faults(engine, machine, None)
    }

    /// Execute like [`Compiled::try_run_with`], with the machine's fault
    /// plan overridden for this run only (`None` keeps the configured
    /// plan). This is the serving layer's entry point: one compiled
    /// program and one warm pooled machine serve many requests, each
    /// carrying its own fault plan.
    pub fn try_run_faults(
        &self,
        engine: Engine,
        machine: &Machine,
        faults: Option<&skil_runtime::FaultPlan>,
    ) -> Result<Run<Vec<String>>, skil_runtime::SimFailure> {
        match engine {
            Engine::Ast => interp::try_run_program_faults(&self.fo, machine, faults),
            Engine::Vm => vm::try_run_program_vm_faults(self, machine, faults),
            Engine::Native => match self.native_cache.prepare(&self.code, &self.fo.names) {
                Ok(module) => native::try_run_native_faults(&module, self, machine, faults),
                // Unavailable host toolchain degrades, never fails: the
                // VM computes the same results and virtual time.
                Err(_) => vm::try_run_program_vm_faults(self, machine, faults),
            },
        }
    }

    /// Whether the native engine can actually run this program on this
    /// host (emits, compiles, and loads the module — warm after the
    /// first call thanks to the artifact cache). `Err` carries the
    /// diagnostic; [`Compiled::try_run_faults`] with [`Engine::Native`]
    /// silently falls back to the VM in that case.
    pub fn native_ready(&self) -> Result<(), String> {
        self.native_cache.prepare(&self.code, &self.fo.names).map(|_| ())
    }

    /// The generated Rust module the native engine compiles
    /// (`skilc --emit-rust`).
    pub fn emit_rust(&self) -> String {
        emit_rust::emit_rust(&self.code, &self.fo.names)
    }

    /// Human-readable bytecode listing of the code the VM executes
    /// (`skilc --emit-bytecode` / `--emit-bytecode=opt`).
    pub fn disassemble(&self) -> String {
        bytecode::disassemble(&self.code, &self.fo.names)
    }

    /// Listing of the unoptimized `compile_program` output
    /// (`skilc --emit-bytecode=raw`), recompiled from the first-order
    /// program: nothing but this listing reads it.
    pub fn disassemble_raw(&self) -> String {
        bytecode::disassemble(&bytecode::compile_program(&self.fo), &self.fo.names)
    }

    /// Listing of the kernel view (`skilc --emit-bytecode=kernel`): per
    /// skeleton site the store of its arrays (`elem=`) and how each
    /// argument function runs — `[direct(op)]`, a trivial shape,
    /// `[typed]` register code or `[generic: why]` — and the typed code.
    pub fn disassemble_kernel(&self) -> String {
        self.kernel.listing(&self.fo, &self.code, self.opt_level)
    }

    /// Heap bytes this program holds while it is cached: the
    /// first-order program with its string table, the bytecode with its
    /// pools, and the kernel view. (The native engine's loaded module
    /// is shared by content hash across programs and not counted.)
    pub fn heap_bytes(&self) -> usize {
        self.fo.heap_bytes() + self.code.heap_bytes() + self.kernel.heap_bytes()
    }
}
