//! Stencil expression and statement language for StencilFlow.
//!
//! Stencil nodes in a StencilFlow program (see the `stencilflow-program`
//! crate) carry a small code segment describing the computation performed at
//! each point of the iteration space, e.g.
//!
//! ```text
//! 0.5 * (b0[i, j, k] + a2[i, k])
//! ```
//!
//! or, for more complex stencils such as the horizontal-diffusion components
//! of the COSMO weather model, a short sequence of assignments whose final
//! statement produces the output value:
//!
//! ```text
//! lap = -4.0 * u[i, j, k] + u[i-1, j, k] + u[i+1, j, k] + u[i, j-1, k] + u[i, j+1, k];
//! delta = lap - u[i, j, k];
//! out = (delta > 0.0) ? delta : 0.0
//! ```
//!
//! The paper (§II) restricts this language to an *analyzable* subset: field
//! accesses at constant offsets, arithmetic, standard math functions, and
//! ternary conditionals (including data-dependent branches). No external data
//! structures or functions are allowed. This crate implements exactly that
//! restriction:
//!
//! * `lexer` / [`parser`] — turn source text into an [`ast::Program`].
//! * [`ast`] — expression / statement tree, with pretty-printing that
//!   round-trips through the parser.
//! * [`types`] — the scalar data types supported by the stack and a simple
//!   type-inference pass.
//! * [`value`] — runtime values and arithmetic used by the evaluator and by
//!   the functional hardware simulator.
//! * [`eval`] — reference evaluation of a code segment given an access
//!   resolver (used by the load/store reference executor and by the
//!   functional mode of the spatial simulator).
//! * [`access`] — extraction of the field-access pattern (which fields are
//!   read, at which constant offsets), the information that drives the
//!   internal-buffer and delay-buffer analyses of the paper (§IV).
//! * [`latency`] — per-operation latency tables and critical-path analysis of
//!   the computation DAG (§IV-B: "the AST formed by computation of a stencil
//!   operation forms another DAG, whose critical path adds a delay").
//! * [`opcount`] — floating-point operation counting used for the arithmetic
//!   intensity / roofline analysis of §IX-A.
//! * [`fold`] — constant folding, the only expression-level optimization the
//!   stack needs before handing code to the (simulated) HLS backend.
//! * [`compile`] — lowering of code segments to slot-resolved bytecode
//!   ([`CompiledKernel`]), the allocation-free fast path used by the
//!   reference executor and the functional simulator (see
//!   `docs/evaluation.md` for the two-tier evaluation architecture).
//! * [`opt`] — the pass-based optimization pipeline over the bytecode
//!   (if-conversion of ternary diamonds to branch-free selects, then CSE,
//!   whose rebuild also drops dead code), run by default inside [`compile`]
//!   and shared by every backend.
//! * [`verify`] — the bytecode verifier: abstract interpretation proving
//!   stack-depth safety, init-before-use, jump validity, and type-flow
//!   soundness of every compiled stream, with conservative
//!   infallibility/purity judgments. Runs after every optimizer pass in
//!   debug builds; see `docs/analysis.md`.
//!
//! # Example
//!
//! ```
//! use stencilflow_expr::{parse_program, AccessExtractor, count_ops};
//!
//! let prog = parse_program("0.5 * (b0[i, j, k] + a2[i, k])").unwrap();
//! let accesses = AccessExtractor::extract(&prog);
//! assert!(accesses.fields().any(|f| f == "b0"));
//! let ops = count_ops(&prog);
//! assert_eq!(ops.additions, 1);
//! assert_eq!(ops.multiplications, 1);
//! ```

#![forbid(unsafe_code)]

pub mod access;
pub mod ast;
pub mod compile;
pub mod error;
pub mod eval;
pub mod fold;
pub mod latency;
mod lexer;
pub mod opcount;
pub mod opt;
pub mod parser;
pub mod types;
pub mod value;
pub mod verify;

pub use access::{AccessExtractor, FieldAccesses};
pub use ast::{BinOp, Expr, MathFn, Program, Stmt, UnOp};
pub use compile::{
    AccessSlot, CompiledKernel, EvalScratch, LaneScratch, Op, TypedKernel, TypedOp, TypedScratch,
    KERNEL_LANES, KERNEL_LANES_WIDE,
};
pub use error::{ExprError, Result};
pub use eval::{AccessResolver, Evaluator, MapResolver};
pub use fold::fold_program;
pub use latency::{critical_path_latency, LatencyTable};
pub use opcount::{count_ops, OpCount};
pub use parser::parse_program;
pub use types::DataType;
pub use value::Value;
pub use verify::{
    verify_kernel, verify_typed, AbstractType, KernelJudgment, TypedJudgment, VerifyError,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_parse_eval() {
        let prog = parse_program("a[i] + 2.0 * b[i-1]").unwrap();
        let mut resolver = MapResolver::new();
        resolver.insert_access("a", &[0], Value::F32(3.0));
        resolver.insert_access("b", &[-1], Value::F32(4.0));
        let value = Evaluator::new(&resolver).eval_program(&prog).unwrap();
        assert_eq!(value.as_f64(), 11.0);
    }

    #[test]
    fn paper_listing1_expressions_parse() {
        // All code segments from Lst. 1 of the paper.
        for code in [
            "a0[i,j,k] + a1[i,j,k]",
            "0.5*(b0[i,j,k] + a2[i,k])",
            "0.5*(b0[i,j,k] - a2[i,k])",
            "b1[i-1,j,k] + b1[i+1,j,k]",
            "b2[i,j,k] + b3[i,j,k]",
        ] {
            parse_program(code).unwrap();
        }
    }
}
