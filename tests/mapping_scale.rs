//! Mapping of large DAGs: the emitted bits are pinned, and the deepest
//! programs neither time out nor overflow the stack. (The timing guard for
//! linear cost is `mapping_cost_guard.rs`, a test binary of its own.)
//!
//! The pipeline under test is the one a mapping job runs: description text →
//! `from_json` → `analyze_program` → `fuse_all` → `analyze` →
//! `HardwareMapping::build` → `generate_kernels` → `partition(8)`.

use stencilflow::codegen::generate_kernels;
use stencilflow::core::perf::expected_cycles;
use stencilflow::core::{AnalysisConfig, HardwareMapping, MultiDevicePlan, PartitionConfig};
use stencilflow::dataflow::fuse_all;
use stencilflow::program::to_json;
use stencilflow::workloads::{
    chain_program, horizontal_diffusion, listing1, ChainSpec, HorizontalDiffusionSpec,
};
use stencilflow::StencilProgram;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What mapping one program must keep producing, bit for bit. `kernels`
/// and `kernel_bytes` pin the OpenCL file as it is since its compute phases
/// became the native backend's stage bodies: declarations typed by field,
/// selects as two evaluated arms and a `!= 0.0` test, and (all three
/// programs are `float32`) each field read as a `float`, with binary32
/// operations in `float`. Every other field predates these changes and did
/// not move with them.
struct Golden {
    fused_json: u64,
    kernels: u64,
    kernel_bytes: usize,
    buffer_elements: u64,
    expected_cycles: u64,
    channels: usize,
    stencils: usize,
}

fn assert_golden(program: &StencilProgram, golden: &Golden) {
    let config = AnalysisConfig::paper_defaults();
    let fused = fuse_all(program).unwrap();
    let mapping = HardwareMapping::build(&fused, &config).unwrap();
    let kernels = generate_kernels(&fused, &mapping);
    let name = program.name();
    assert_eq!(fnv1a(&to_json(&fused)), golden.fused_json, "{name}");
    assert_eq!(fnv1a(&kernels), golden.kernels, "{name}");
    assert_eq!(kernels.len(), golden.kernel_bytes, "{name}");
    assert_eq!(
        mapping.total_buffer_elements(),
        golden.buffer_elements,
        "{name}"
    );
    let analysis = stencilflow::analyze(&fused, &config).unwrap();
    assert_eq!(
        analysis.total_buffer_elements(),
        golden.buffer_elements,
        "{name}"
    );
    assert_eq!(
        expected_cycles(&fused, &config).unwrap(),
        golden.expected_cycles,
        "{name}"
    );
    assert_eq!(mapping.channels.len(), golden.channels, "{name}");
    assert_eq!(fused.stencil_count(), golden.stencils, "{name}");
}

#[test]
fn mapped_bits_and_counts_are_pinned() {
    assert_golden(
        &listing1(),
        &Golden {
            fused_json: 0x5ae9_63e3_b289_d8fd,
            kernels: 0x35f1_38c9_1b58_1b10,
            kernel_bytes: 3320,
            buffer_elements: 6319,
            expected_cycles: 34_861,
            channels: 8,
            stencils: 3,
        },
    );
    assert_golden(
        &chain_program(&ChainSpec::new(256, 8)),
        &Golden {
            fused_json: 0x0b62_440d_f2c4_655e,
            kernels: 0x246b_6d75_6a4a_211f,
            kernel_bytes: 193_441,
            buffer_elements: 4880,
            expected_cycles: 33_568_000,
            channels: 257,
            stencils: 256,
        },
    );
    assert_golden(
        &horizontal_diffusion(&HorizontalDiffusionSpec::production(1)),
        &Golden {
            fused_json: 0x4043_61e4_d90e_8a06,
            kernels: 0x614c_df9e_730c_1134,
            kernel_bytes: 36_830,
            buffer_elements: 1_467_826,
            expected_cycles: 1_372_370,
            channels: 68,
            stencils: 20,
        },
    );
}

#[test]
fn a_4096_stage_chain_maps_end_to_end() {
    let stages = 4096;
    let text = to_json(&chain_program(&ChainSpec::new(stages, 8)));
    let program = stencilflow::from_json(&text).unwrap();
    assert!(stencilflow::analysis::analyze_program(&program).is_clean());
    let fused = fuse_all(&program).unwrap();
    assert_eq!(fused.stencil_count(), stages);
    let config = AnalysisConfig::paper_defaults();
    let analysis = stencilflow::analyze(&fused, &config).unwrap();
    let mapping = HardwareMapping::build(&fused, &config).unwrap();
    assert_eq!(mapping.unit_count(), stages);
    // One reader, a channel into every stage, one writer.
    assert_eq!(mapping.channels.len(), stages + 1);
    assert_eq!(
        mapping.total_buffer_elements(),
        analysis.total_buffer_elements()
    );
    let dag = fused.dag();
    for stage in [1, stages / 2, stages] {
        let name = format!("f{stage}");
        let id = dag.id(&name).unwrap();
        let unit = mapping.unit_position(id).unwrap();
        assert_eq!(mapping.units[unit].id, id);
        let (inputs, outputs) = mapping.unit_channels(unit);
        let from: Vec<&str> = (inputs.iter())
            .map(|&at| dag.name(mapping.channels[at as usize].from.id()))
            .collect();
        assert_eq!(from, [format!("f{}", stage - 1)]);
        assert_eq!(outputs.len(), 1);
    }
    let kernels = generate_kernels(&fused, &mapping);
    assert_eq!(kernels.matches("__attribute__((autorun))").count(), stages);
    let plan = MultiDevicePlan::partition(&fused, &PartitionConfig::devices(8)).unwrap();
    assert!(plan.network_feasible());
    let placed: usize = plan.devices.iter().map(|d| d.stencils.len()).sum();
    assert_eq!(placed, stages);
}
