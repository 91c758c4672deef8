//! Intel-FPGA-OpenCL-style kernel emission.

use crate::expr_c::{kernel_to_c, program_to_c, SelectStyle};
use std::collections::HashSet;
use std::fmt::Write as _;
use stencilflow_core::{ChannelEndpoint, HardwareMapping, MemoryAccessKind, MultiDevicePlan};
use stencilflow_expr::CompiledKernel;
use stencilflow_program::{StencilNode, StencilProgram};

fn channel_name(from: &ChannelEndpoint, to: &ChannelEndpoint) -> String {
    format!("ch_{}_{}", from.name(), to.name())
}

/// Compute-phase statements for one stencil unit, emitted from the
/// **optimized** bytecode (shared pass pipeline: if-converted selects
/// rendered through the OpenCL `select` builtin, CSE temporaries, dead
/// code already gone). Kernels whose control flow resisted if-conversion
/// (an arm that must stay lazy) fall back to the raw AST walk with native
/// C ternaries.
fn compute_phase_lines(
    stencil: &StencilNode,
    access: &impl Fn(&str, &[i64]) -> String,
) -> Vec<String> {
    let dtype = stencil.output_type;
    if let Ok(kernel) = CompiledKernel::compile(&stencil.program) {
        if let Some(lines) = kernel_to_c(&kernel, access, dtype, SelectStyle::OpenClSelect) {
            return lines;
        }
    }
    program_to_c(&stencil.program, access, dtype)
}

/// Generate the single-device kernel file: channel declarations, reader and
/// writer kernels, and one autorun compute kernel per stencil unit with its
/// shift-register internal buffers and boundary predication.
pub fn generate_kernels(program: &StencilProgram, mapping: &HardwareMapping) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// Auto-generated by the StencilFlow reproduction for program `{}`.",
        program.name()
    );
    let _ = writeln!(
        out,
        "// Target: Intel FPGA SDK for OpenCL (never synthesized in this reproduction).\n"
    );
    let _ = writeln!(out, "#pragma OPENCL EXTENSION cl_intel_channels : enable\n");

    // Channel declarations with the analysis-computed depths.
    for channel in &mapping.channels {
        let _ = writeln!(
            out,
            "channel float {} __attribute__((depth({})));",
            channel_name(&channel.from, &channel.to),
            channel.depth_words
        );
    }
    let _ = writeln!(out);

    // Reader kernels (dedicated prefetchers at source nodes).
    for (index, unit) in mapping.memory_units.iter().enumerate() {
        if unit.kind != MemoryAccessKind::Read {
            continue;
        }
        let _ = writeln!(
            out,
            "__kernel void read_{}(__global const float* restrict data, const long n) {{",
            unit.field
        );
        let _ = writeln!(out, "  for (long i = 0; i < n; ++i) {{");
        let _ = writeln!(out, "    const float value = data[i];");
        for consumer in mapping.memory_channels(index) {
            let _ = writeln!(
                out,
                "    write_channel_intel({}, value);",
                channel_name(&consumer.from, &consumer.to)
            );
        }
        let _ = writeln!(out, "  }}\n}}\n");
    }

    // One autorun compute kernel per stencil unit.
    for unit in &mapping.units {
        let stencil = program
            .stencil(&unit.name)
            .expect("mapping units correspond to program stencils");
        let _ = writeln!(out, "__attribute__((autorun))");
        let _ = writeln!(out, "__kernel void stencil_{}() {{", unit.name);
        // Internal buffers as shift registers.
        for (field, info) in stencil.accesses.iter() {
            if info.access_count() > 1 {
                let _ = writeln!(
                    out,
                    "  // shift register (internal buffer) for field `{field}`"
                );
                let _ = writeln!(
                    out,
                    "  float buf_{field}[{}];",
                    unit.internal_buffer_elements.max(1)
                );
            }
        }
        let _ = writeln!(out, "  for (long i = 0; i < N_ITERATIONS; ++i) {{");
        // Update phase: read new values from channels.
        for channel in mapping.input_channels(&unit.name) {
            let _ = writeln!(
                out,
                "    const float in_{} = read_channel_intel({});",
                channel.field,
                channel_name(&channel.from, &channel.to)
            );
        }
        // Compute phase with boundary predication.
        let _ = writeln!(
            out,
            "    // compute phase (boundary handling is predicated per access)"
        );
        let _ = writeln!(out, "    float result;");
        let access = |field: &str, offsets: &[i64]| -> String {
            let flat: String = offsets
                .iter()
                .map(|o| format!("{o:+}"))
                .collect::<Vec<_>>()
                .join("");
            format!("tap(/* boundary-checked */ buf_{field}, i {flat})")
        };
        for line in compute_phase_lines(stencil, &access) {
            let _ = writeln!(out, "    {line}");
        }
        // Conditional write (suppressed during initialization).
        let _ = writeln!(
            out,
            "    if (i >= INIT_{}) {{ // skip initialization phase of {} iterations",
            unit.name.to_uppercase(),
            unit.init_iterations
        );
        for channel in mapping.output_channels(&unit.name) {
            let _ = writeln!(
                out,
                "      write_channel_intel({}, result);",
                channel_name(&channel.from, &channel.to)
            );
        }
        let _ = writeln!(out, "    }}");
        let _ = writeln!(out, "  }}\n}}\n");
    }

    // Writer kernels at sink nodes.
    for (index, unit) in mapping.memory_units.iter().enumerate() {
        if unit.kind != MemoryAccessKind::Write {
            continue;
        }
        let producer = mapping.memory_channels(index).next();
        let _ = writeln!(
            out,
            "__kernel void write_{}(__global float* restrict data, const long n) {{",
            unit.field
        );
        let _ = writeln!(out, "  for (long i = 0; i < n; ++i) {{");
        if let Some(channel) = producer {
            let _ = writeln!(
                out,
                "    data[i] = read_channel_intel({});",
                channel_name(&channel.from, &channel.to)
            );
        }
        let _ = writeln!(out, "  }}\n}}\n");
    }
    out
}

/// Generate one kernel file per device for a multi-device plan. Channels
/// crossing device boundaries are emitted as SMI-style remote streams.
pub fn generate_multi_device_kernels(
    program: &StencilProgram,
    mapping: &HardwareMapping,
    plan: &MultiDevicePlan,
) -> Vec<String> {
    let base = generate_kernels(program, mapping);
    plan.devices
        .iter()
        .map(|device| {
            let local: HashSet<&str> = device.stencils.iter().map(String::as_str).collect();
            let mut out = String::new();
            let _ = writeln!(
                out,
                "// Device {} of {}: stencils {:?}",
                device.index,
                plan.device_count(),
                device.stencils
            );
            let _ = writeln!(out, "#include \"smi.h\" // Streaming Message Interface\n");
            for remote in &device.remote_inputs {
                let _ = writeln!(
                    out,
                    "SMI_Channel {}_in = SMI_Open_receive_channel(/* remote stream */ {}, SMI_FLOAT, {}, {});",
                    remote.field, remote.from_device, remote.to_device, device.index
                );
            }
            for remote in &device.remote_outputs {
                let _ = writeln!(
                    out,
                    "SMI_Channel {}_out = SMI_Open_send_channel(/* remote stream */ {}, SMI_FLOAT, {}, {});",
                    remote.field, remote.to_device, remote.from_device, device.index
                );
            }
            let _ = writeln!(out, "\n// Local subset of the single-device design:\n");
            // Emit only the kernels whose stencil lives on this device, plus
            // all shared declarations (kept simple: include the full file and
            // annotate ownership).
            for line in base.lines() {
                let foreign = line
                    .strip_prefix("__kernel void stencil_")
                    .and_then(|rest| rest.split_once('('))
                    .is_some_and(|(stencil, _)| !local.contains(stencil));
                if foreign {
                    let _ = writeln!(out, "// [other device] {line}");
                } else {
                    let _ = writeln!(out, "{line}");
                }
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_core::{AnalysisConfig, PartitionConfig};
    use stencilflow_workloads::{chain_program, ChainSpec};

    #[test]
    fn channel_depths_appear_in_generated_code() {
        let program = chain_program(&ChainSpec::new(3, 8).with_shape(&[64, 8, 8]));
        let mapping = HardwareMapping::build(&program, &AnalysisConfig::paper_defaults()).unwrap();
        let code = generate_kernels(&program, &mapping);
        for channel in &mapping.channels {
            assert!(code.contains(&format!("depth({})", channel.depth_words)));
        }
        assert_eq!(
            code.matches("__attribute__((autorun))").count(),
            mapping.unit_count()
        );
    }

    #[test]
    fn multi_device_files_mark_foreign_kernels() {
        let program = chain_program(&ChainSpec::new(4, 8).with_shape(&[64, 8, 8]));
        let mapping = HardwareMapping::build(&program, &AnalysisConfig::paper_defaults()).unwrap();
        let plan = MultiDevicePlan::partition(&program, &PartitionConfig::devices(2)).unwrap();
        let files = generate_multi_device_kernels(&program, &mapping, &plan);
        assert_eq!(files.len(), 2);
        assert!(files[0].contains("// [other device]"));
        assert!(files[1].contains("// [other device]"));
    }

    /// The per-device name set marks exactly the kernel lines that the scan
    /// it replaced did: a `stencil_<name>(` header of no local stencil.
    #[test]
    fn foreign_kernels_are_the_headers_of_non_local_stencils() {
        let program = chain_program(&ChainSpec::new(12, 8).with_shape(&[64, 8, 8]));
        let mapping = HardwareMapping::build(&program, &AnalysisConfig::paper_defaults()).unwrap();
        let plan = MultiDevicePlan::partition(&program, &PartitionConfig::devices(3)).unwrap();
        let base = generate_kernels(&program, &mapping);
        let files = generate_multi_device_kernels(&program, &mapping, &plan);
        for (device, file) in plan.devices.iter().zip(&files) {
            let (_, body) = file.split_once("design:\n\n").unwrap();
            let expected: String = base
                .lines()
                .map(|line| {
                    let local = device
                        .stencils
                        .iter()
                        .any(|s| line.contains(&format!("stencil_{s}(")));
                    if line.starts_with("__kernel void stencil_") && !local {
                        format!("// [other device] {line}\n")
                    } else {
                        format!("{line}\n")
                    }
                })
                .collect();
            assert_eq!(body, expected, "device {}", device.index);
            let marked = body.matches("// [other device]").count();
            assert_eq!(marked, 12 - device.stencils.len());
        }
    }
}
