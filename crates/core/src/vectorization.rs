//! Vectorization analysis (§IV-C).
//!
//! Vectorizing by a factor W processes W contiguous elements of the innermost
//! dimension per cycle. This reduces the number of iterations in the inner
//! loop of all stencils by W (shrinking initialization phases and delay
//! buffers in *words*, while buffer sizes in *elements* grow by W−1), and
//! multiplies both the compute parallelism and the memory bandwidth demand
//! per cycle by W.

use crate::config::AnalysisConfig;
use stencilflow_program::StencilProgram;

/// Derived per-cycle quantities for a (possibly vectorized) program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorizationInfo {
    /// Vectorization width W.
    pub width: usize,
    /// Iterations of the global pipeline: number of cells divided by W.
    pub iterations: u64,
    /// Floating-point operations executed per cycle when the pipeline is
    /// streaming (all stencils active).
    pub ops_per_cycle: u64,
    /// Operands requested from off-chip memory per cycle: one per
    /// full-domain input field and one per program output, times W.
    /// Lower-dimensional inputs are amortized over the inner loop and do not
    /// contribute meaningfully (they are counted as zero, matching the
    /// paper's "9 operands/cycle" figure for horizontal diffusion).
    pub memory_operands_per_cycle: u64,
    /// Off-chip bytes moved per cycle (reads + writes).
    pub memory_bytes_per_cycle: u64,
}

impl VectorizationInfo {
    /// Compute the vectorization-derived quantities of a program that
    /// evaluates `flops_per_cell` floating-point operations per cell.
    pub(crate) fn of(
        program: &StencilProgram,
        config: &AnalysisConfig,
        flops_per_cell: u64,
    ) -> Self {
        let width = config.effective_vectorization(program.vectorization());
        let cells = program.space().num_cells() as u64;
        let iterations = cells.div_ceil(width as u64);
        let ops_per_cycle = flops_per_cell * width as u64;

        let full_rank = program.space().rank();
        let mut operand_count = 0u64;
        let mut bytes = 0u64;
        for (_, decl) in program.inputs() {
            if decl.rank() == full_rank {
                operand_count += 1;
                bytes += decl.data_type().size_bytes() as u64;
            }
        }
        for output in program.outputs() {
            operand_count += 1;
            bytes += program
                .field_type(output)
                .map(|t| t.size_bytes() as u64)
                .unwrap_or(4);
        }
        VectorizationInfo {
            width,
            iterations,
            ops_per_cycle,
            memory_operands_per_cycle: operand_count * width as u64,
            memory_bytes_per_cycle: bytes * width as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_expr::DataType;
    use stencilflow_program::StencilProgramBuilder;

    fn program(width: usize) -> StencilProgram {
        StencilProgramBuilder::new("p", &[32, 32, 32])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .input("b", DataType::Float32, &["i", "j", "k"])
            .input("surf", DataType::Float32, &["i", "k"])
            .stencil("c", "a[i,j,k] + b[i,j,k] * surf[i,k]")
            .output("c")
            .vectorization(width)
            .build()
            .unwrap()
    }

    fn info(width: usize, config: &AnalysisConfig) -> VectorizationInfo {
        let program = program(width);
        VectorizationInfo::of(&program, config, program.ops_per_cell().flops())
    }

    #[test]
    fn iterations_shrink_with_width() {
        let info1 = info(1, &AnalysisConfig::default());
        let info4 = info(4, &AnalysisConfig::default());
        assert_eq!(info1.iterations, 32 * 32 * 32);
        assert_eq!(info4.iterations, 32 * 32 * 32 / 4);
        assert_eq!(info4.width, 4);
    }

    #[test]
    fn per_cycle_quantities_scale_with_width() {
        let info1 = info(1, &AnalysisConfig::default());
        let info4 = info(4, &AnalysisConfig::default());
        assert_eq!(info1.ops_per_cycle * 4, info4.ops_per_cycle);
        // 2 full-rank inputs + 1 output = 3 operands/cycle at W=1.
        assert_eq!(info1.memory_operands_per_cycle, 3);
        assert_eq!(info4.memory_operands_per_cycle, 12);
        assert_eq!(info1.memory_bytes_per_cycle, 12);
    }

    #[test]
    fn config_override_takes_precedence() {
        let info = info(1, &AnalysisConfig::default().with_vectorization(8));
        assert_eq!(info.width, 8);
    }
}
