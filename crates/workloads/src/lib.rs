//! Workload generators for the StencilFlow reproduction.
//!
//! Every benchmark of the paper's evaluation (§VIII–IX) is driven by one of
//! the stencil programs generated here:
//!
//! * [`mod@listing1`] — the running example of §II (Lst. 1 / Fig. 2).
//! * [`chain`] — linear chains of identical stencils ("analogous to
//!   time-tiled iterative stencils"), the workload of the Fig. 14/15 scaling
//!   experiments.
//! * [`jacobi`] / [`diffusion`] — the Jacobi 2D/3D and Diffusion 2D/3D
//!   kernels of Tab. I.
//! * [`membench`] — bandwidth microbenchmarks with a configurable number of
//!   parallel off-chip access points (Fig. 16).
//! * [`mod@horizontal_diffusion`] — the COSMO horizontal-diffusion stencil
//!   program with Smagorinsky diffusion (§IX), the full-complexity
//!   application study.
//! * [`upwind`] — first-order upwind advection, the branchy
//!   (data-dependent-select) workload gating if-conversion and the
//!   lane-batched evaluation of ternary kernels.
//! * [`random`] — seeded random DAGs, the program generator the
//!   differential test suites share.

#![forbid(unsafe_code)]

pub mod chain;
pub mod diffusion;
pub mod horizontal_diffusion;
pub mod jacobi;
pub mod jobmix;
pub mod listing1;
pub mod membench;
pub mod random;
pub mod upwind;

pub use chain::{chain_program, ChainSpec};
pub use diffusion::{diffusion2d, diffusion3d};
pub use horizontal_diffusion::{horizontal_diffusion, HorizontalDiffusionSpec};
pub use jacobi::{jacobi2d, jacobi3d, jacobi3d_typed};
pub use jobmix::{JobClass, JobMixSpec, JobTemplate};
pub use listing1::listing1;
pub use membench::{membench_program, MembenchSpec};
pub use random::random_dag;
pub use upwind::{upwind3d, upwind3d_typed};

/// The ten programs `analyze --check` sweeps in CI: one of every workload
/// family, at the small shapes the static analyses and their goldens use.
pub fn analyze_suite() -> Vec<stencilflow_program::StencilProgram> {
    use stencilflow_expr::DataType;
    vec![
        listing1(),
        jacobi2d(1, &[32, 32], 1),
        jacobi3d(1, &[16, 16, 8], 1),
        jacobi3d_typed(1, &[16, 16, 8], 1, DataType::Float64),
        diffusion2d(1, &[32, 32], 1),
        diffusion3d(1, &[16, 16, 8], 1),
        chain_program(&ChainSpec::new(8, 8)),
        membench_program(&MembenchSpec::new(8, 1)),
        horizontal_diffusion(&HorizontalDiffusionSpec::small()),
        upwind3d(2, &[8, 8, 8], 1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_generators_produce_valid_programs() {
        // Validation happens inside the builders; just exercise every
        // generator once with small parameters.
        listing1().validate().unwrap();
        jacobi2d(4, &[16, 16], 1).validate().unwrap();
        jacobi3d(4, &[8, 8, 8], 1).validate().unwrap();
        diffusion2d(4, &[16, 16], 1).validate().unwrap();
        diffusion3d(4, &[8, 8, 8], 1).validate().unwrap();
        chain_program(&ChainSpec::new(8, 8)).validate().unwrap();
        membench_program(&MembenchSpec::new(8, 1))
            .validate()
            .unwrap();
        horizontal_diffusion(&HorizontalDiffusionSpec::default())
            .validate()
            .unwrap();
        upwind3d(2, &[8, 8, 8], 1).validate().unwrap();
    }

    #[test]
    fn typing_mixed_width_joins_left_every_other_typed_stream_alone() {
        // 40 of the suite's 52 stencils specialized before mixed-width
        // joins did (horizontal diffusion's twelve limiter stencils are
        // the rest). The FNV-1a hash of their typed streams' debug text
        // was taken with the specializer as it was then: they must come
        // out byte for byte the same, and the twelve must now specialize
        // too, branch-free.
        use stencilflow_expr::{CompiledKernel, DataType};
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        let mut unchanged = 0;
        let mut joined = 0;
        for program in analyze_suite() {
            for stencil in program.stencils() {
                let kernel = CompiledKernel::compile(&stencil.program).unwrap();
                let types: Vec<DataType> = kernel
                    .slots()
                    .iter()
                    .map(|slot| program.field_type(&slot.field).unwrap())
                    .collect();
                let typed = kernel
                    .specialize(&types)
                    .unwrap_or_else(|| panic!("`{}` does not specialize", stencil.name));
                assert!(typed.supports_lanes(), "`{}` keeps jumps", stencil.name);
                let limiter = program.name() == "horizontal_diffusion"
                    && (stencil.name.starts_with("fl")
                        || ["u_tmp", "v_tmp", "w_out", "pp_out"].contains(&stencil.name.as_str()));
                if limiter {
                    joined += 1;
                    continue;
                }
                unchanged += 1;
                for byte in format!("{:?}", typed.ops()).bytes() {
                    hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!((unchanged, joined), (40, 12));
        assert_eq!(hash, 0x032e_5bed_af29_6b69);
    }
}
