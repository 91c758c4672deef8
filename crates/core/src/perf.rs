//! Expected-runtime model (Eq. 1, §VIII-A).
//!
//! All architectures emitted by StencilFlow are fully pipelined with
//! initiation interval I = 1, so the cycle count to process N inputs is
//!
//! ```text
//! C = L + I · N
//! ```
//!
//! where L is the pipeline latency (initialization phases plus compute
//! critical path accumulated along the deepest path of the DAG) and N is the
//! number of iterations (domain cells divided by the vectorization width).
//! N covers the streaming phase where all stencils operate in a pipeline
//! parallel fashion; L covers initialization, during which stencil units are
//! not yet feeding downstream consumers. L is proportional to (D−1)-
//! dimensional slices only, so it becomes negligible for large domains.

use crate::config::AnalysisConfig;
use crate::delay::DelayBufferAnalysis;
use crate::error::Result;
use stencilflow_program::StencilProgram;

/// Expected performance of a mapped stencil program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerformanceEstimate {
    /// Number of pipeline iterations N (cells / W).
    pub iterations: u64,
    /// Pipeline latency L in cycles.
    pub pipeline_latency: u64,
    /// Total expected cycles C = L + N.
    pub expected_cycles: u64,
    /// Floating-point operations evaluated over the whole program run.
    pub total_ops: u64,
    /// Clock frequency (Hz) assumed for time-based figures.
    pub frequency_hz: f64,
}

impl PerformanceEstimate {
    /// Compute the estimate from the delay-buffer analysis of a program
    /// that evaluates `flops_per_cell` floating-point operations per cell.
    pub(crate) fn compute(
        program: &StencilProgram,
        delay: &DelayBufferAnalysis,
        config: &AnalysisConfig,
        flops_per_cell: u64,
    ) -> Self {
        let width = config.effective_vectorization(program.vectorization()) as u64;
        let cells = program.space().num_cells() as u64;
        let iterations = cells.div_ceil(width);
        let pipeline_latency = delay.pipeline_latency();
        PerformanceEstimate {
            iterations,
            pipeline_latency,
            expected_cycles: pipeline_latency + iterations,
            total_ops: flops_per_cell * cells,
            frequency_hz: config.default_frequency_hz,
        }
    }

    /// Expected runtime in seconds at the configured frequency.
    pub(crate) fn runtime_seconds(&self) -> f64 {
        self.expected_cycles as f64 / self.frequency_hz
    }

    /// Expected sustained throughput in Op/s.
    pub(crate) fn ops_per_second(&self) -> f64 {
        self.total_ops as f64 / self.runtime_seconds()
    }

    /// Expected sustained throughput in GOp/s.
    pub fn gops(&self) -> f64 {
        self.ops_per_second() / 1e9
    }

    /// Fraction of the total cycle count spent in initialization (the
    /// quantity reported as "~0.7 %" for the fused horizontal-diffusion
    /// program in §IX-B).
    pub fn init_fraction(&self) -> f64 {
        self.pipeline_latency as f64 / self.expected_cycles as f64
    }
}

/// Compute expected cycles for a program directly (Eq. 1 convenience
/// wrapper).
///
/// # Errors
///
/// Returns an error if the program DAG is invalid.
pub fn expected_cycles(program: &StencilProgram, config: &AnalysisConfig) -> Result<u64> {
    Ok(crate::analyze(program, config)?.performance.expected_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_expr::DataType;
    use stencilflow_program::{StencilProgram, StencilProgramBuilder};

    fn chain(length: usize, shape: &[usize], width: usize) -> StencilProgram {
        let mut builder = StencilProgramBuilder::new("chain", shape)
            .input("f0", DataType::Float32, &["i", "j"])
            .vectorization(width);
        for stage in 1..=length {
            let prev = if stage == 1 {
                "f0".to_string()
            } else {
                format!("f{}", stage - 1)
            };
            builder = builder.stencil(
                &format!("f{stage}"),
                &format!("0.25 * ({prev}[i,j-1] + 2.0*{prev}[i,j] + {prev}[i,j+1])"),
            );
        }
        builder.output(&format!("f{length}")).build().unwrap()
    }

    #[test]
    fn cycles_equal_latency_plus_iterations() {
        let program = chain(4, &[64, 64], 1);
        let config = AnalysisConfig::unit_latencies();
        let perf = crate::analyze(&program, &config).unwrap().performance;
        assert_eq!(perf.iterations, 64 * 64);
        assert_eq!(
            perf.expected_cycles,
            perf.pipeline_latency + perf.iterations
        );
        assert_eq!(
            perf.expected_cycles,
            expected_cycles(&program, &config).unwrap()
        );
    }

    #[test]
    fn latency_grows_with_chain_depth_but_stays_small() {
        let config = AnalysisConfig::paper_defaults();
        let shallow = expected_cycles(&chain(2, &[128, 128], 1), &config).unwrap();
        let deep = expected_cycles(&chain(8, &[128, 128], 1), &config).unwrap();
        assert!(deep > shallow);
        // §VIII-A: latency is proportional to (D-1)-dimensional slices, so it
        // is small relative to the domain for realistic sizes.
        let perf_deep = crate::analyze(&chain(8, &[128, 128], 1), &config)
            .unwrap()
            .performance;
        assert!(perf_deep.init_fraction() < 0.1);
    }

    #[test]
    fn vectorization_divides_iterations_and_runtime() {
        let config = AnalysisConfig::paper_defaults();
        let scalar = expected_cycles(&chain(4, &[64, 64], 1), &config).unwrap();
        let vectorized = expected_cycles(&chain(4, &[64, 64], 4), &config).unwrap();
        assert!(vectorized < scalar);
        assert!(vectorized > scalar / 5);
    }

    #[test]
    fn throughput_metrics_are_consistent() {
        let program = chain(4, &[64, 64], 1);
        let config = AnalysisConfig::paper_defaults();
        let perf = crate::analyze(&program, &config).unwrap().performance;
        assert!((perf.gops() - perf.ops_per_second() / 1e9).abs() < 1e-9);
        let faster = PerformanceEstimate {
            frequency_hz: 600e6,
            ..perf
        };
        assert!(faster.runtime_seconds() < perf.runtime_seconds());
    }
}
