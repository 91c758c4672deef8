//! StencilFlow core: buffering analysis and deadlock-free hardware mapping.
//!
//! This crate implements the paper's primary contribution (§III–IV): given a
//! stencil program (a DAG of heterogeneous stencil operations), compute the
//! buffering required to execute *all* stencils simultaneously as one deep,
//! fully pipelined spatial design — with perfect data reuse and guaranteed
//! deadlock freedom — and map the result onto one or more devices.
//!
//! The analysis has three parts:
//!
//! 1. **Internal buffers** ([`buffers`]) — intra-stencil reuse. A stencil
//!    that accesses the same field at several offsets keeps a shift-register
//!    buffer spanning the memory-order distance between the lowest and
//!    highest offset (§IV-A, Fig. 6/7). Filling that buffer delays the
//!    stencil's first output: the *initialization phase*.
//! 2. **Delay buffers** ([`delay`]) — inter-stencil synchronization. Edges of
//!    the DAG are FIFO channels; when paths of different latency reconverge,
//!    the shorter path must be buffered so the producer is never blocked
//!    (§IV-B, Fig. 4/8). Channel depths are computed from a longest-path
//!    analysis over node delays (initialization phases plus compute
//!    critical-path latencies).
//! 3. **Mapping** ([`mapping`], [`partition`]) — the buffered dataflow graph
//!    is laid out as stencil units, memory readers/writers, and channels on a
//!    single device, or partitioned across multiple devices with replicated
//!    inputs and network channels (§III-B, Fig. 5).
//!
//! The [`perf`] module implements the pipeline performance model
//! `C = L + I·N` (Eq. 1) used to annotate every benchmark with its expected
//! runtime, and [`vectorization`] the effect of the vectorization width W on
//! iteration counts and buffer sizes (§IV-C).
//!
//! # Example
//!
//! ```
//! use stencilflow_core::{analyze, AnalysisConfig};
//! use stencilflow_program::StencilProgramBuilder;
//! use stencilflow_expr::DataType;
//!
//! let program = StencilProgramBuilder::new("jacobi1d", &[1024])
//!     .input("a", DataType::Float32, &["i"])
//!     .stencil("b", "0.33 * (a[i-1] + a[i] + a[i+1])")
//!     .stencil("c", "0.33 * (b[i-1] + b[i] + b[i+1])")
//!     .output("c")
//!     .build()
//!     .unwrap();
//! let analysis = analyze(&program, &AnalysisConfig::default()).unwrap();
//! // Each stencil buffers 2 elements + vector width for its 3-point access;
//! // a chain needs no delay buffers, so its three channels keep the minimum
//! // depth of 16.
//! assert_eq!(analysis.total_buffer_elements(), 2 * 3 + 3 * 16);
//! ```

#![forbid(unsafe_code)]

pub mod buffers;
pub mod channel;
pub mod config;
pub mod delay;
pub mod error;
pub mod mapping;
pub mod partition;
pub mod perf;
pub mod vectorization;

pub use buffers::{InternalBufferAnalysis, StencilBuffers};
pub use channel::{ChannelError, Fifo};
pub use config::AnalysisConfig;
pub use delay::{ChannelDepth, DelayBufferAnalysis};
pub use error::{CoreError, Result};
pub use mapping::{Channel, ChannelEndpoint, HardwareMapping, MemoryAccessKind, StencilUnit};
pub use partition::{DevicePartition, MultiDevicePlan, PartitionConfig};
pub use perf::{expected_cycles, PerformanceEstimate};
pub use vectorization::VectorizationInfo;

use std::sync::Arc;
use stencilflow_program::StencilProgram;

/// Combined result of the full buffering analysis of one program.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// Internal (intra-stencil) buffer analysis.
    pub internal: InternalBufferAnalysis,
    /// Delay (inter-stencil) buffer analysis.
    pub delay: DelayBufferAnalysis,
    /// Vectorization information.
    pub vectorization: VectorizationInfo,
    /// Expected-performance estimate (Eq. 1).
    pub performance: PerformanceEstimate,
}

impl ProgramAnalysis {
    /// Total fast-memory (on-chip) elements required: internal buffers plus
    /// delay-buffer channel capacities.
    pub fn total_buffer_elements(&self) -> u64 {
        self.internal.total_elements() + self.delay.total_elements()
    }
}

/// Run the complete buffering analysis on a program.
///
/// This is the main entry point of the crate: it computes internal buffers,
/// delay buffers, vectorization effects, and the expected-runtime model, and
/// is used by the hardware mapping ([`HardwareMapping::build`]) and by all
/// downstream crates (simulator, code generator, benchmarks).
///
/// The first analysis of a program object is kept in the program
/// ([`StencilProgram::analysis_slot`]) with its `config`, and a later call
/// under an equal config returns it, shared. A call under another config
/// computes a fresh analysis and keeps nothing.
///
/// # Errors
///
/// Returns an error if the program's DAG is cyclic or otherwise invalid.
pub fn analyze(program: &StencilProgram, config: &AnalysisConfig) -> Result<Arc<ProgramAnalysis>> {
    let slot = program.analysis_slot();
    if let Some(kept) = slot.get() {
        return match kept.downcast_ref::<KeptAnalysis>() {
            Some(kept) if kept.config == *config => Ok(Arc::clone(&kept.analysis)),
            _ => compute(program, config).map(Arc::new),
        };
    }
    let analysis = Arc::new(compute(program, config)?);
    let _ = slot.set(Arc::new(KeptAnalysis {
        config: config.clone(),
        analysis: Arc::clone(&analysis),
    }));
    Ok(analysis)
}

/// What [`analyze`] keeps in a program: the analysis and its config.
struct KeptAnalysis {
    config: AnalysisConfig,
    analysis: Arc<ProgramAnalysis>,
}

fn compute(program: &StencilProgram, config: &AnalysisConfig) -> Result<ProgramAnalysis> {
    // One walk over the stencils' code serves both consumers of the count.
    let flops_per_cell = program.ops_per_cell().flops();
    let vectorization = VectorizationInfo::of(program, config, flops_per_cell);
    let internal = InternalBufferAnalysis::compute(program, config)?;
    let delay = DelayBufferAnalysis::compute(program, &internal, config, None)?;
    let performance = PerformanceEstimate::compute(program, &delay, config, flops_per_cell);
    Ok(ProgramAnalysis {
        internal,
        delay,
        vectorization,
        performance,
    })
}

#[cfg(test)]
pub(crate) mod tests_support {
    //! Shared fixtures for the crate's unit tests.
    use stencilflow_expr::DataType;
    use stencilflow_program::{BoundaryCondition, StencilProgram, StencilProgramBuilder};

    /// The program of the paper's Lst. 1 / Fig. 2.
    pub(crate) fn listing1() -> StencilProgram {
        StencilProgramBuilder::new("listing1", &[32, 32, 32])
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
            .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_expr::DataType;
    use stencilflow_program::StencilProgramBuilder;

    #[test]
    fn analyze_produces_consistent_summary() {
        let program = StencilProgramBuilder::new("p", &[16, 16, 16])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .stencil("b", "a[i,j,k-1] + a[i,j,k+1]")
            .stencil("c", "b[i,j-1,k] + b[i,j+1,k]")
            .output("c")
            .build()
            .unwrap();
        let analysis = analyze(&program, &AnalysisConfig::default()).unwrap();
        assert!(analysis.total_buffer_elements() > 0);
        assert!(analysis.performance.expected_cycles > program.space().num_cells() as u64);
    }
}
