//! StencilFlow: mapping large stencil programs to distributed spatial
//! computing systems — Rust reproduction.
//!
//! This umbrella crate re-exports the whole stack and provides the
//! [`Pipeline`] convenience API that mirrors the paper's end-to-end workflow
//! (Fig. 13): *program description → dependency & buffering analysis →
//! domain-specific optimization (stencil fusion) → hardware mapping →
//! code generation / simulated execution → validation against the reference
//! executor*.
//!
//! ```
//! use stencilflow::Pipeline;
//!
//! let json = r#"{
//!   "inputs": { "a": {"dtype": "float32", "dims": ["i", "j"]} },
//!   "outputs": ["b"],
//!   "shape": [16, 16],
//!   "program": { "b": "0.25 * (a[i-1,j] + a[i+1,j] + a[i,j-1] + a[i,j+1])" }
//! }"#;
//! let pipeline = Pipeline::from_json(json).unwrap();
//! let result = pipeline.execute(42).unwrap();
//! assert!(result.simulation.completed());
//! assert!(result.max_error_vs_reference < 1e-5);
//! ```

#![forbid(unsafe_code)]

pub mod daemon;
pub mod ingest;

pub use stencilflow_analysis as analysis;
pub use stencilflow_codegen as codegen;
pub use stencilflow_core as core;
pub use stencilflow_dataflow as dataflow;
pub use stencilflow_expr as expr;
pub use stencilflow_hwmodel as hwmodel;
pub use stencilflow_program as program;
pub use stencilflow_reference as reference;
pub use stencilflow_sim as sim;
pub use stencilflow_workloads as workloads;

pub use stencilflow_core::{
    analyze, AnalysisConfig, HardwareMapping, MultiDevicePlan, PartitionConfig, ProgramAnalysis,
};
pub use stencilflow_program::{from_json, StencilProgram, StencilProgramBuilder};
pub use stencilflow_sim::{SimConfig, SimOutcome, SimReport, Simulator};

use std::collections::BTreeMap;
use std::sync::Arc;
use stencilflow_reference::{Grid, InputGenerator, ReferenceExecutor};

/// Errors produced by the end-to-end pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// Program construction or validation failed.
    Program(stencilflow_program::ProgramError),
    /// Analysis, mapping, or simulation failed.
    Core(stencilflow_core::CoreError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Program(e) => write!(f, "program error: {e}"),
            PipelineError::Core(e) => write!(f, "mapping error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<stencilflow_program::ProgramError> for PipelineError {
    fn from(e: stencilflow_program::ProgramError) -> Self {
        PipelineError::Program(e)
    }
}

impl From<stencilflow_core::CoreError> for PipelineError {
    fn from(e: stencilflow_core::CoreError) -> Self {
        PipelineError::Core(e)
    }
}

/// Result of running the full pipeline on one program.
#[derive(Debug)]
pub struct PipelineResult {
    /// The (possibly fused) program that was mapped.
    pub program: StencilProgram,
    /// The buffering analysis, the one the fused program keeps.
    pub analysis: Arc<ProgramAnalysis>,
    /// The single-device hardware mapping.
    pub mapping: HardwareMapping,
    /// Generated OpenCL-style kernel code.
    pub kernel_code: String,
    /// Simulation report (cycle count, outputs, stall statistics).
    pub simulation: SimReport,
    /// Maximum relative error of the simulated outputs against the reference
    /// executor's run of the original, unfused program, over all program
    /// outputs and valid cells: the simulated values are the executor's on
    /// the fused program, so this measures what fusion changed.
    pub max_error_vs_reference: f64,
}

/// The end-to-end StencilFlow pipeline, run as in the paper's experiments:
/// aggressive stencil fusion, [`AnalysisConfig::paper_defaults`] and the
/// default [`SimConfig`].
///
/// The simulation's outputs and the validation run of the unfused program
/// both go through the process-wide executor's FPGA-path entry point,
/// [`reference::ReferenceExecutor::run_tiered`]: a program runs on the
/// fused rung until its runs there have cost as much as one native build
/// (200 ms), and on the native rung once `cc`'s module has landed, without
/// ever waiting for it. A pipeline run once never starts `cc`; one run
/// over and over runs native. Both rungs are bit-identical.
#[derive(Debug, Clone)]
pub struct Pipeline {
    program: StencilProgram,
}

impl Pipeline {
    /// Build a pipeline from a JSON program description (the paper's Lst. 1
    /// format).
    ///
    /// # Errors
    ///
    /// Returns an error if the description does not parse or validate.
    pub fn from_json(text: &str) -> Result<Self, PipelineError> {
        Ok(Self::new(stencilflow_program::from_json(text)?))
    }

    /// Build a pipeline from an already-constructed program.
    pub fn new(program: StencilProgram) -> Self {
        Pipeline { program }
    }

    /// Run the complete flow: fuse, analyze, map, generate code, simulate on
    /// pseudo-random inputs (seeded by `seed`), and validate against the
    /// sequential reference executor.
    ///
    /// # Errors
    ///
    /// Returns an error if any stage fails.
    pub fn execute(&self, seed: u64) -> Result<PipelineResult, PipelineError> {
        let inputs = InputGenerator::new(seed).generate(&self.program);
        self.execute_with_inputs(&inputs)
    }

    /// Run the complete flow on caller-provided input grids.
    ///
    /// # Errors
    ///
    /// Returns an error if any stage fails.
    pub fn execute_with_inputs(
        &self,
        inputs: &BTreeMap<String, Grid>,
    ) -> Result<PipelineResult, PipelineError> {
        let config = AnalysisConfig::paper_defaults();
        let program = stencilflow_dataflow::fuse_all(&self.program)?;
        let analysis = stencilflow_core::analyze(&program, &config)?;
        let mapping = HardwareMapping::from_analysis(&program, &analysis, &config)?;
        let kernel_code = stencilflow_codegen::generate_kernels(&program, &mapping);
        let simulator = Simulator::build(&program, &config, &SimConfig::default())?;
        let simulation = simulator.run(inputs)?;

        // Validate against the reference executor (on the original,
        // unfused program — fusion must not change results). The
        // process-wide executor keeps both programs prepared, so a second
        // run of this pipeline compiles nothing.
        let mut max_error: f64 = 0.0;
        if simulation.completed() {
            let executor = ReferenceExecutor::shared();
            let compiled = executor.prepare(&self.program)?;
            let (reference, _) = executor.run_tiered(&compiled, inputs)?;
            for output in self.program.outputs() {
                // A missing or mis-shaped simulated output fails validation.
                let err = simulation
                    .output(output)
                    .and_then(|grid| reference.compare_field(output, grid))
                    .unwrap_or(f64::INFINITY);
                max_error = max_error.max(err);
            }
        } else {
            max_error = f64::INFINITY;
        }

        Ok(PipelineResult {
            program,
            analysis,
            mapping,
            kernel_code,
            simulation,
            max_error_vs_reference: max_error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_runs_listing1_end_to_end() {
        let program = stencilflow_workloads::listing1::listing1_with_shape(&[6, 6, 6]);
        let result = Pipeline::new(program).execute(7).unwrap();
        assert!(result.simulation.completed());
        assert!(result.max_error_vs_reference < 1e-5);
        assert!(result.kernel_code.contains("channel float"));
        assert!(result.analysis.total_buffer_elements() > 0);
    }

    #[test]
    fn fusion_reduces_stencil_count_without_changing_results() {
        let pointwise = StencilProgramBuilder::new("pointwise", &[16, 16])
            .input("a", stencilflow_expr::DataType::Float32, &["i", "j"])
            .stencil("s1", "a[i,j] * 2.0")
            .stencil("s2", "s1[i,j] + 1.0")
            .stencil("s3", "s2[i,j] * 0.5")
            .output("s3")
            .build()
            .unwrap();
        let fused = Pipeline::new(pointwise.clone()).execute(3).unwrap();
        assert!(fused.program.stencil_count() < pointwise.stencil_count());
        assert!(fused.max_error_vs_reference < 1e-5);
    }
}
