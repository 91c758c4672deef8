//! Off-chip memory bandwidth microbenchmarks (§VIII-D, Fig. 16).
//!
//! "We measure the effective bandwidth utilization when scaling up the
//! number of accesses, but accessing only 32 bits per cycle at each access
//! point [... and then] request the same total number of 32-bit operands,
//! but at fewer, vectorized endpoints."
//!
//! The generator emits a program with `access_points` independent read →
//! scale → write paths. Each path contributes one DRAM reader and one DRAM
//! writer, so the number of parallel off-chip access points (and the
//! operands requested per cycle) is directly controlled.

use stencilflow_expr::DataType;
use stencilflow_program::{StencilProgram, StencilProgramBuilder};

/// Parameters of a bandwidth microbenchmark program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembenchSpec {
    /// Number of *read* access points (independent input fields). Each path
    /// also writes one output, mirroring the paper's copy-with-scale kernel.
    pub read_access_points: usize,
    /// Vectorization width: operands requested per access point per cycle.
    pub vectorization: usize,
    /// Iteration-space shape; defaults to the paper's 2¹⁵×32×32 domain.
    pub shape: Vec<usize>,
}

impl MembenchSpec {
    /// A benchmark with `read_access_points` paths at vector width `w`.
    pub fn new(read_access_points: usize, w: usize) -> Self {
        MembenchSpec {
            read_access_points,
            vectorization: w,
            shape: vec![1 << 15, 32, 32],
        }
    }

    /// Override the domain shape (builder style).
    pub fn with_shape(mut self, shape: &[usize]) -> Self {
        self.shape = shape.to_vec();
        self
    }

    /// Total 32-bit operands requested per cycle (reads + writes).
    pub fn operands_per_cycle(&self) -> usize {
        self.read_access_points * 2 * self.vectorization
    }
}

/// Generate the bandwidth microbenchmark program.
///
/// # Panics
///
/// Panics if `read_access_points == 0` (caller error in benchmark
/// configuration).
pub fn membench_program(spec: &MembenchSpec) -> StencilProgram {
    assert!(
        spec.read_access_points > 0,
        "at least one access point is required"
    );
    let dims: Vec<&str> = ["i", "j", "k"][..spec.shape.len()].to_vec();
    let index = dims.join(",");
    let mut builder = StencilProgramBuilder::new(
        &format!("membench{}x{}", spec.read_access_points, spec.vectorization),
        &spec.shape,
    )
    .vectorization(spec.vectorization);
    for path in 0..spec.read_access_points {
        let input = format!("in{path}");
        let output = format!("out{path}");
        builder = builder
            .input(&input, DataType::Float32, &dims)
            .stencil(&output, &format!("{input}[{index}] * 0.5 + 0.25"))
            .output(&output);
    }
    builder
        .build()
        .expect("generated membench programs are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_points_match_spec() {
        let program = membench_program(&MembenchSpec::new(6, 1).with_shape(&[64, 8, 8]));
        assert_eq!(program.inputs().count(), 6);
        assert_eq!(program.outputs().len(), 6);
        assert_eq!(program.stencil_count(), 6);
    }

    #[test]
    fn operands_per_cycle_accounting() {
        assert_eq!(MembenchSpec::new(8, 1).operands_per_cycle(), 16);
        assert_eq!(MembenchSpec::new(12, 4).operands_per_cycle(), 96);
    }

    #[test]
    fn vectorized_variant_builds() {
        let program = membench_program(&MembenchSpec::new(4, 4).with_shape(&[64, 8, 8]));
        assert_eq!(program.vectorization(), 4);
    }
}
