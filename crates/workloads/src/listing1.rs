//! The running example of the paper (§II, Lst. 1 / Fig. 2).

use stencilflow_expr::DataType;
use stencilflow_program::{BoundaryCondition, StencilProgram, StencilProgramBuilder};

/// Build the stencil program of the paper's Lst. 1: five stencils over a
/// 32×32×32 domain with a fork/join dependency structure, two full-domain
/// inputs, and one lower-dimensional (2D) input.
pub fn listing1() -> StencilProgram {
    listing1_with_shape(&[32, 32, 32])
}

/// The Lst. 1 program on a custom domain shape (used by tests that want a
/// smaller iteration space).
pub fn listing1_with_shape(shape: &[usize; 3]) -> StencilProgram {
    StencilProgramBuilder::new("listing1", shape)
        .input("a0", DataType::Float32, &["i", "j", "k"])
        .input("a1", DataType::Float32, &["i", "j", "k"])
        .input("a2", DataType::Float32, &["i", "k"])
        .stencil("b0", "a0[i,j,k] + a1[i,j,k]")
        .boundary("b0", "a0", BoundaryCondition::Constant(1.0))
        .boundary("b0", "a1", BoundaryCondition::Copy)
        .stencil("b1", "0.5*(b0[i,j,k] + a2[i,k])")
        .shrink("b1")
        .stencil("b2", "0.5*(b0[i,j,k] - a2[i,k])")
        .shrink("b2")
        .stencil("b3", "b1[i-1,j,k] + b1[i+1,j,k]")
        .shrink("b3")
        .stencil("b4", "b2[i,j,k] + b3[i,j,k]")
        .shrink("b4")
        .output("b4")
        .build()
        .expect("the paper's running example is a valid program")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_figure2_structure() {
        let program = listing1();
        assert_eq!(program.stencil_count(), 5);
        assert_eq!(program.inputs().count(), 3);
        assert_eq!(program.outputs(), &["b4".to_string()]);
        use crate::dag_checks::{has_edge, reconverges};
        assert!(has_edge(&program, "b0", "b1"));
        assert!(has_edge(&program, "b0", "b2"));
        assert!(has_edge(&program, "b1", "b3"));
        assert!(has_edge(&program, "b3", "b4"));
        assert!(has_edge(&program, "b2", "b4"));
        // The fork at b0 reconverging at b4 makes delay buffers mandatory.
        assert!(reconverges(&program));
    }

    #[test]
    fn custom_shape_variant() {
        let program = listing1_with_shape(&[8, 8, 8]);
        assert_eq!(program.space().num_cells(), 512);
    }
}
