//! Static verification layer for the StencilFlow reproduction.
//!
//! The paper's central promise is that a stencil program's behavior is
//! decidable *before* it runs: buffer sizes, deadlock freedom, and
//! performance all fall out of static analysis (§III–IV). This crate
//! extends that discipline from the dataflow graph down to the expression
//! bytecode:
//!
//! * [`analyze_program`] — structural, type, and kernel checks over a
//!   [`StencilProgram`](stencilflow_program::StencilProgram): cycle
//!   detection with a named path, dead-stencil and unused-input liveness,
//!   narrowing-edge and footprint-vs-extent checks, and per-stencil
//!   bytecode verification (via `stencilflow_expr::verify`) including the
//!   error-reachability judgment.
//! * [`Diagnostic`]/[`AnalysisReport`] — the structured findings it
//!   emits: severity, stable `SFxxxx` code, location, rendered text, JSON.
//!
//! The `analyze` binary (in `stencilflow-bench`) sweeps every workload
//! through the analyzer and gates CI on error-severity findings. It also
//! renders SF0208 (the JIT rung refuses a program) from the runtime's own
//! tier trace: whether a program runs natively is judged once, by the
//! executor, never re-derived here. See `docs/analysis.md` for the
//! diagnostic code registry.

#![forbid(unsafe_code)]

mod diag;
mod program;

pub use diag::{AnalysisReport, Diagnostic, Severity};
pub use program::analyze_program;
