//! Cross-crate integration tests: the full pipeline from program description
//! to simulated spatial execution, validated against the reference executor.

use stencilflow::core::{
    analyze, AnalysisConfig, HardwareMapping, MultiDevicePlan, PartitionConfig,
};
use stencilflow::expr::DataType;
use stencilflow::program::ProgramError;
use stencilflow::reference::{generate_inputs, ReferenceExecutor};
use stencilflow::sim::{SimConfig, SimOutcome, Simulator};
use stencilflow::workloads::{
    self, chain_program, horizontal_diffusion, jacobi2d, ChainSpec, HorizontalDiffusionSpec,
};
use stencilflow::{Pipeline, StencilProgramBuilder};

#[test]
fn json_round_trip_through_the_whole_stack() {
    let program = workloads::listing1::listing1_with_shape(&[8, 8, 8]);
    let json = stencilflow::program::to_json(&program);
    let pipeline = Pipeline::from_json(&json).unwrap();
    let result = pipeline.execute(11).unwrap();
    assert_eq!(result.simulation.outcome, SimOutcome::Completed);
    assert!(result.max_error_vs_reference < 1e-5);
}

#[test]
fn jacobi_chain_simulation_matches_reference_and_eq1() {
    let program = jacobi2d(4, &[24, 24], 1);
    let config = AnalysisConfig::paper_defaults();
    let analysis = stencilflow::core::analyze(&program, &config).unwrap();
    let inputs = generate_inputs(&program, 5);
    let reference = ReferenceExecutor::new().run(&program, &inputs).unwrap();
    let report = Simulator::build(&program, &config, &SimConfig::default())
        .unwrap()
        .run(&inputs)
        .unwrap();
    assert_eq!(report.outcome, SimOutcome::Completed);
    let err = reference
        .compare_field("f4", report.output("f4").unwrap())
        .unwrap();
    assert!(err < 1e-4);
    // Eq. 1: the measured cycle count is at least N and close to L + N.
    let n = program.space().num_cells() as u64;
    assert!(report.cycles >= n);
    assert!(report.cycles <= 2 * analysis.performance.expected_cycles + 1_000);
}

#[test]
fn fusion_mapping_and_simulation_agree_for_horizontal_diffusion() {
    let program = horizontal_diffusion(&HorizontalDiffusionSpec::small());
    let fused = stencilflow::dataflow::fuse_all(&program).unwrap();
    assert!(fused.stencil_count() < program.stencil_count());
    let result = Pipeline::new(program).execute(13).unwrap();
    assert_eq!(result.simulation.outcome, SimOutcome::Completed);
    assert!(result.max_error_vs_reference < 1e-4);
    // The generated kernels contain one autorun kernel per fused stencil.
    assert_eq!(
        result
            .kernel_code
            .matches("__attribute__((autorun))")
            .count(),
        result.program.stencil_count()
    );
}

#[test]
fn multi_device_execution_is_equivalent_to_single_device() {
    let program = chain_program(&ChainSpec::new(8, 8).with_shape(&[16, 8, 8]));
    let config = AnalysisConfig::paper_defaults();
    let inputs = generate_inputs(&program, 2);
    let single = Simulator::build(&program, &config, &SimConfig::default())
        .unwrap()
        .run(&inputs)
        .unwrap();
    for devices in [2usize, 4] {
        let plan =
            MultiDevicePlan::partition(&program, &PartitionConfig::devices(devices)).unwrap();
        let multi = Simulator::build_multi_device(&program, &config, &plan, &SimConfig::default())
            .unwrap()
            .run(&inputs)
            .unwrap();
        assert_eq!(multi.outcome, SimOutcome::Completed);
        let a = single.output("f8").unwrap();
        let b = multi.output("f8").unwrap();
        assert!(a.approx_eq(b, 1e-9), "{devices}-device run diverges");
    }
}

#[test]
fn deadlock_freedom_requires_the_computed_buffers() {
    let program = workloads::listing1::listing1_with_shape(&[6, 6, 6]);
    let config = AnalysisConfig::paper_defaults();
    let inputs = generate_inputs(&program, 1);
    let ok = Simulator::build(&program, &config, &SimConfig::default())
        .unwrap()
        .run(&inputs)
        .unwrap();
    let starved = Simulator::build(&program, &config, &SimConfig::with_minimal_channels())
        .unwrap()
        .run(&inputs)
        .unwrap();
    assert_eq!(ok.outcome, SimOutcome::Completed);
    assert_eq!(starved.outcome, SimOutcome::Deadlocked);
}

#[test]
fn vectorization_reduces_expected_runtime() {
    let config = AnalysisConfig::paper_defaults();
    let narrow = stencilflow::core::analyze(
        &chain_program(&ChainSpec::new(8, 8).with_shape(&[256, 16, 16])),
        &config,
    )
    .unwrap();
    let wide = stencilflow::core::analyze(
        &chain_program(
            &ChainSpec::new(8, 8)
                .with_shape(&[256, 16, 16])
                .with_vectorization(4),
        ),
        &config,
    )
    .unwrap();
    assert!(wide.performance.expected_cycles < narrow.performance.expected_cycles);
    assert!(wide.performance.gops() > narrow.performance.gops() * 2.0);
}

/// The DAG names the output memory of `b` `b__out`. A stencil of that name
/// next to the output `b` used to share its node: the program built, and its
/// simulation never completed.
#[test]
fn a_field_named_like_an_output_memory_is_rejected_not_simulated_forever() {
    let builder = StencilProgramBuilder::new("shadow", &[8, 8])
        .input("a", DataType::Float32, &["i", "j"])
        .stencil("b", "a[i,j] + 1.0")
        .stencil("b__out", "b[i,j] * 2.0");
    let colliding = builder.clone().output("b").output("b__out").build();
    assert_eq!(
        colliding.unwrap_err(),
        ProgramError::OutputMemoryName {
            output: "b".into(),
            field: "b__out".into(),
        }
    );
    // The name is only reserved next to the output it shadows.
    let program = builder.output("b__out").build().unwrap();
    let result = Pipeline::new(program).execute(3).unwrap();
    assert_eq!(result.simulation.outcome, SimOutcome::Completed);
    assert_eq!(result.max_error_vs_reference, 0.0);
}

#[test]
fn mapping_from_an_analysis_equals_mapping_from_the_program() {
    let hdiff = horizontal_diffusion(&HorizontalDiffusionSpec::small());
    let programs = [
        workloads::listing1(),
        chain_program(&ChainSpec::new(6, 8).with_shape(&[32, 8, 8])),
        stencilflow::dataflow::fuse_all(&hdiff).unwrap(),
    ];
    let config = AnalysisConfig::paper_defaults();
    for program in &programs {
        let analysis = analyze(program, &config).unwrap();
        let from_analysis = HardwareMapping::from_analysis(program, &analysis, &config).unwrap();
        let built = HardwareMapping::build(program, &config).unwrap();
        assert_eq!(from_analysis.units, built.units, "{}", program.name());
        assert_eq!(from_analysis.channels, built.channels);
        assert_eq!(from_analysis.memory_units, built.memory_units);
        assert_eq!(from_analysis.performance, built.performance);
        assert_eq!(from_analysis.performance, analysis.performance);
    }
}
