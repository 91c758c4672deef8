//! Load/store reference executor for stencil programs.
//!
//! The paper (§VI-C) generates "reference CPU-executed graphs where stencil
//! evaluations are executed sequentially in topological order (i.e., no
//! fusion or parallelism between stencil evaluations), which we can verify
//! against the generated hardware kernels". This crate is that reference
//! path: a straightforward dense-grid executor that serves as functional
//! ground truth for the spatial simulator and the code generator.
//!
//! * [`Grid`] — a dense row-major array over a subset of the iteration-space
//!   dimensions (full-domain fields, lower-dimensional parameter fields, and
//!   scalars are all grids of different rank).
//! * [`ReferenceExecutor`] — evaluates a program, applying the per-field
//!   boundary conditions (`constant`, `copy`) and computing the `shrink`
//!   validity mask. [`ReferenceExecutor::run_interpreted`] keeps the
//!   tree-walking evaluator as the semantic baseline, every stencil over
//!   the full domain in topological order; [`ReferenceExecutor::execute`]
//!   (and `run` / `run_steps` over it) streams the kernels the program
//!   keeps per stencil (`StencilProgram::typed_kernel`) through one fused
//!   wavefront (the private `fuse` module), lane-batched, optionally
//!   native. Both produce
//!   bit-identical program outputs (see `docs/evaluation.md`).
//! * [`input_data`] — deterministic pseudo-random input generation shared by
//!   tests and benchmarks.

#![forbid(unsafe_code)]

pub mod executor;
mod fuse;
pub mod grid;
pub mod input_data;
mod jit;
pub mod serve;
mod shim;
pub mod tier;

pub use executor::{CompiledProgram, ExecutionResult, ReferenceExecutor, RunSpec};
pub use grid::Grid;
pub use input_data::{generate_inputs, InputGenerator};
pub use jit::{jit_available, jit_cache_stats};
pub use serve::daemon::{
    CancelReason, Daemon, DaemonConfig, DaemonOutcome, DaemonRequest, DaemonStats, DrainReport,
    JobStatus, RejectReason, TenantQuota,
};
pub use serve::{
    CancelToken, JobError, JobFault, JobOutcome, JobResult, JobSpec, ServeConfig, ServeExecutor,
    ServeStats, TierChoice,
};
pub use shim::{ShardConfig, ShardReport, ShardStats, ShardedOutcome};
pub use stencilflow_jit::CacheStats as JitCacheStats;
pub use tier::{Ineligible, ParseTierError, Tier, TierTrace};

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_expr::DataType;
    use stencilflow_program::{BoundaryCondition, StencilProgramBuilder};

    #[test]
    fn end_to_end_small_program() {
        let program = StencilProgramBuilder::new("p", &[4, 4])
            .input("a", DataType::Float32, &["i", "j"])
            .stencil("b", "a[i,j] * 2.0")
            .stencil("c", "b[i,j] + 1.0")
            .output("c")
            .build()
            .unwrap();
        let inputs = generate_inputs(&program, 42);
        let result = ReferenceExecutor::new().run(&program, &inputs).unwrap();
        let a = &inputs["a"];
        let c = result.field("c").unwrap();
        for index in program.space().indices() {
            let expected = a.get(&index) * 2.0 + 1.0;
            assert!((c.get(&index) - expected).abs() < 1e-5);
        }
    }

    #[test]
    fn boundary_constant_and_copy() {
        let program = StencilProgramBuilder::new("p", &[4])
            .input("a", DataType::Float32, &["i"])
            .stencil("left", "a[i-1]")
            .boundary("left", "a", BoundaryCondition::Constant(7.0))
            .stencil("copyleft", "a[i-1]")
            .boundary("copyleft", "a", BoundaryCondition::Copy)
            .output("left")
            .output("copyleft")
            .build()
            .unwrap();
        let mut inputs = std::collections::BTreeMap::new();
        inputs.insert(
            "a".to_string(),
            Grid::from_values(&["i"], &[4], &[10.0, 20.0, 30.0, 40.0]),
        );
        let result = ReferenceExecutor::new().run(&program, &inputs).unwrap();
        // left[0] reads a[-1] -> constant 7; left[1] reads a[0] = 10.
        assert_eq!(result.field("left").unwrap().get(&[0]), 7.0);
        assert_eq!(result.field("left").unwrap().get(&[1]), 10.0);
        // copyleft[0] reads a[-1] -> copy of center a[0] = 10.
        assert_eq!(result.field("copyleft").unwrap().get(&[0]), 10.0);
        assert_eq!(result.field("copyleft").unwrap().get(&[3]), 30.0);
    }
}
