//! The FPGA path compiles a program once per process: `Pipeline` and both
//! simulator builds prepare on the one process-wide executor.
//!
//! A test binary of its own on purpose: it counts the compilations of
//! `ReferenceExecutor::shared()`, which every test of a binary shares, so
//! no sibling test may prepare on it.

use std::collections::BTreeMap;

use stencilflow::reference::{generate_inputs, Grid, ReferenceExecutor};
use stencilflow::workloads::{horizontal_diffusion, HorizontalDiffusionSpec};
use stencilflow::{AnalysisConfig, MultiDevicePlan, PartitionConfig, Pipeline, SimConfig};
use stencilflow::{SimOutcome, Simulator};

type Inputs = BTreeMap<String, Grid>;

/// One job of the simulated flow, from the program's description text:
/// `Pipeline::execute_with_inputs` (which builds the single-device design
/// of the fused program and validates on the unfused one), then the
/// four-device design of the fused program.
fn job(text: &str, inputs: &Inputs) {
    let pipeline = Pipeline::from_json(text).unwrap();
    let result = pipeline.execute_with_inputs(inputs).unwrap();
    assert!(result.simulation.completed());
    assert!(result.max_error_vs_reference < 1e-5);
    let fused = result.program;
    let plan = MultiDevicePlan::partition(&fused, &PartitionConfig::devices(4)).unwrap();
    let multi = Simulator::build_multi_device(
        &fused,
        &AnalysisConfig::paper_defaults(),
        &plan,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(multi.run(inputs).unwrap().outcome, SimOutcome::Completed);
}

/// The first job of a program compiles exactly two programs, the unfused
/// one and the fused one; a second job of the same description, parsed
/// afresh, compiles nothing.
#[test]
fn a_repeated_simulation_job_compiles_nothing() {
    let program = horizontal_diffusion(&HorizontalDiffusionSpec {
        shape: [8, 8, 8],
        vectorization: 1,
    });
    let text = stencilflow::program::to_json(&program);
    let inputs = generate_inputs(&program, 5);
    let shared = ReferenceExecutor::shared();

    let before = shared.compile_count();
    job(&text, &inputs);
    let first = shared.compile_count() - before;
    assert_eq!(
        first, 2,
        "the first job compiles the unfused and the fused program"
    );

    job(&text, &inputs);
    let second = shared.compile_count() - before - first;
    assert_eq!(second, 0, "a repeated job hits the shared cache");
}
