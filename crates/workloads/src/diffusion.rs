//! Diffusion 2D / 3D stencil chains (Tab. I workloads, the kernels used for
//! the comparison against Zohouri et al.'s hand-tuned OpenCL designs).

use stencilflow_expr::DataType;
use stencilflow_program::{StencilProgram, StencilProgramBuilder};

/// A chain of `timesteps` 2D diffusion steps (weighted 5-point stencil with
/// distinct center/edge coefficients, ~9 Op per cell per step).
pub fn diffusion2d(timesteps: usize, shape: &[usize; 2], vectorization: usize) -> StencilProgram {
    assert!(timesteps > 0, "at least one timestep is required");
    let mut builder = StencilProgramBuilder::new("diffusion2d", shape)
        .vectorization(vectorization)
        .input("f0", DataType::Float32, &["i", "j"]);
    for t in 1..=timesteps {
        let prev = format!("f{}", t - 1);
        let name = format!("f{t}");
        builder = builder
            .stencil(
                &name,
                &format!(
                    "0.6 * {prev}[i,j] + 0.1 * {prev}[i-1,j] + 0.1 * {prev}[i+1,j] \
                     + 0.1 * {prev}[i,j-1] + 0.1 * {prev}[i,j+1]"
                ),
            )
            .shrink(&name);
    }
    builder
        .output(&format!("f{timesteps}"))
        .build()
        .expect("generated diffusion 2D programs are valid")
}

/// A chain of `timesteps` 3D diffusion steps (weighted 7-point stencil,
/// ~13 Op per cell per step).
pub fn diffusion3d(timesteps: usize, shape: &[usize; 3], vectorization: usize) -> StencilProgram {
    assert!(timesteps > 0, "at least one timestep is required");
    let mut builder = StencilProgramBuilder::new("diffusion3d", shape)
        .vectorization(vectorization)
        .input("f0", DataType::Float32, &["i", "j", "k"]);
    for t in 1..=timesteps {
        let prev = format!("f{}", t - 1);
        let name = format!("f{t}");
        builder = builder
            .stencil(
                &name,
                &format!(
                    "0.4 * {prev}[i,j,k] + 0.1 * {prev}[i-1,j,k] + 0.1 * {prev}[i+1,j,k] \
                     + 0.1 * {prev}[i,j-1,k] + 0.1 * {prev}[i,j+1,k] \
                     + 0.1 * {prev}[i,j,k-1] + 0.1 * {prev}[i,j,k+1]"
                ),
            )
            .shrink(&name);
    }
    builder
        .output(&format!("f{timesteps}"))
        .build()
        .expect("generated diffusion 3D programs are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diffusion2d_ops() {
        let program = diffusion2d(2, &[32, 32], 1);
        // 4 adds + 5 muls = 9 per step.
        assert_eq!(program.ops_per_cell().flops(), 2 * 9);
    }

    #[test]
    fn diffusion3d_ops() {
        let program = diffusion3d(2, &[8, 8, 8], 1);
        // 6 adds + 7 muls = 13 per step.
        assert_eq!(program.ops_per_cell().flops(), 2 * 13);
    }

    #[test]
    fn chains_are_linear() {
        let program = diffusion2d(4, &[32, 32], 1);
        assert!(!crate::dag_checks::reconverges(&program));
    }

    #[test]
    fn vectorized_variants_build() {
        diffusion2d(2, &[64, 64], 8).validate().unwrap();
        diffusion3d(2, &[16, 16, 16], 8).validate().unwrap();
    }
}
