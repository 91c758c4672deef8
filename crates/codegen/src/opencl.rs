//! Intel-FPGA-OpenCL-style kernel emission.

use crate::expr_c::{kernel_to_c, program_to_c, SelectStyle};
use std::fmt::Write as _;
use stencilflow_core::{ChannelEndpoint, HardwareMapping, MemoryAccessKind};
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

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_core::AnalysisConfig;
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
}
