//! Intel-FPGA-OpenCL-style kernel emission.

use crate::jit_unit::{emit_kernel, Dialect, EmitError, JitSlotKind, JitStageSpec};
use std::fmt::Write as _;
use stencilflow_core::{ChannelEndpoint, HardwareMapping, MemoryAccessKind};
use stencilflow_expr::{AccessSlot, DataType};
use stencilflow_program::{StencilNode, StencilProgram};

fn channel_name(from: &ChannelEndpoint, to: &ChannelEndpoint) -> String {
    format!("ch_{}_{}", from.name(), to.name())
}

/// OpenCL C spelling of an element type: what a channel, shift register
/// or buffer carrying a field of that type is declared as.
fn cl_type(dtype: DataType) -> &'static str {
    match dtype {
        DataType::Float32 => "float",
        DataType::Float64 => "double",
        DataType::Int32 => "int",
        DataType::Int64 => "long",
        DataType::Bool => "bool",
    }
}

/// How the compute phase reads a kernel slot: a scalar symbol is a bare
/// parameter name, a field access a boundary-checked shift-register tap.
fn slot_c(slot: &AccessSlot) -> String {
    if slot.is_scalar() {
        return slot.field.clone();
    }
    let flat: String = slot.offsets.iter().map(|o| format!("{o:+}")).collect();
    format!("tap(/* boundary-checked */ buf_{}, i {flat})", slot.field)
}

/// How a stage body reading `slot` of element type `dtype` from its field's
/// cells takes it in.
fn slot_kind(slot: &AccessSlot, dtype: DataType) -> JitSlotKind {
    if slot.is_scalar() {
        JitSlotKind::Scalar
    } else {
        JitSlotKind::Tap(dtype)
    }
}

/// Compute-phase statements for one stencil unit: the stencil's typed
/// kernel — specialized to the element types of the fields it reads —
/// emitted as the body of a native stage (whose code is checked bit for bit
/// against the interpreter) that reads each field from cells of its type (a
/// `float32` field's slot is a binary32 `float`, as a ring tap is) and
/// stores into a cell of the output type. Fails for a stencil without a
/// typed kernel (integer operands) or with a non-float output.
fn compute_phase_lines(
    program: &StencilProgram,
    stencil: &StencilNode,
) -> Result<Vec<String>, EmitError> {
    let round = match stencil.output_type {
        DataType::Float32 => true,
        DataType::Float64 => false,
        dtype => return Err(EmitError::NonFloatOutput { dtype }),
    };
    let kernel = stencil.kernel().map_err(EmitError::Compile)?;
    let slot_types: Vec<DataType> = kernel
        .slots()
        .iter()
        .map(|slot| {
            program
                .field_type(&slot.field)
                .expect("validated programs declare every field they read")
        })
        .collect();
    let typed = kernel.specialize(&slot_types).ok_or(EmitError::Untyped)?;
    let stage = JitStageSpec {
        symbol: format!("stencil_{}", stencil.name),
        kernel: &typed,
        slot_kinds: (kernel.slots().iter().zip(&slot_types))
            .map(|(slot, &dtype)| slot_kind(slot, dtype))
            .collect(),
        slot_types: &slot_types,
        round_output: round,
        store: stencil.output_type,
    };
    let body = emit_kernel(&stage, Dialect::OpenCl, &|ix| slot_c(&kernel.slots()[ix]))?;
    let result = format!("result = {};", body.stored(round, stencil.output_type));
    let mut lines = body.statements;
    lines.push(result);
    Ok(lines)
}

/// Generate the single-device kernel file: channel declarations, reader and
/// writer kernels, and one compute kernel per stencil unit with its
/// shift-register internal buffers and boundary predication, autorun
/// unless it takes the program scalars it reads as `const` arguments. Every
/// declaration takes the element type of the field it carries.
pub fn generate_kernels(program: &StencilProgram, mapping: &HardwareMapping) -> String {
    let field_type = |field: &str| {
        cl_type(
            program
                .field_type(field)
                .expect("mapped fields are program fields"),
        )
    };
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
    let _ = writeln!(out, "#pragma OPENCL EXTENSION cl_intel_channels : enable");
    // Compute phases keep `double` for every operation whose result does
    // not round to binary32 (an `f64` field's, and those that reach one).
    let _ = writeln!(out, "#pragma OPENCL EXTENSION cl_khr_fp64 : enable\n");

    // Channel declarations with the analysis-computed depths.
    for channel in &mapping.channels {
        let _ = writeln!(
            out,
            "channel {} {} __attribute__((depth({})));",
            field_type(&channel.field),
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
        let ty = field_type(&unit.field);
        let _ = writeln!(
            out,
            "__kernel void read_{}(__global const {ty}* restrict data, const long n) {{",
            unit.field
        );
        let _ = writeln!(out, "  for (long i = 0; i < n; ++i) {{");
        let _ = writeln!(out, "    const {ty} value = data[i];");
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
        // The program scalars the stencil reads are kernel arguments, which
        // an autorun kernel cannot take: such a kernel is host-launched.
        let scalars: Vec<String> = (stencil.accesses.iter())
            .filter(|(_, info)| info.is_scalar())
            .map(|(field, _)| format!("const {} {field}", field_type(field)))
            .collect();
        if scalars.is_empty() {
            let _ = writeln!(out, "__attribute__((autorun))");
        }
        let params = scalars.join(", ");
        let _ = writeln!(out, "__kernel void stencil_{}({params}) {{", unit.name);
        // Internal buffers as shift registers.
        for (field, info) in stencil.accesses.iter() {
            if info.access_count() > 1 {
                let _ = writeln!(
                    out,
                    "  // shift register (internal buffer) for field `{field}`"
                );
                let _ = writeln!(
                    out,
                    "  {} buf_{field}[{}];",
                    field_type(field),
                    unit.internal_buffer_elements.max(1)
                );
            }
        }
        let _ = writeln!(out, "  for (long i = 0; i < N_ITERATIONS; ++i) {{");
        // Update phase: read new values from channels.
        for channel in mapping.input_channels(&unit.name) {
            let _ = writeln!(
                out,
                "    const {} in_{} = read_channel_intel({});",
                field_type(&channel.field),
                channel.field,
                channel_name(&channel.from, &channel.to)
            );
        }
        // Compute phase with boundary predication.
        let _ = writeln!(
            out,
            "    // compute phase (boundary handling is predicated per access)"
        );
        let _ = writeln!(out, "    {} result;", cl_type(stencil.output_type));
        // A stencil the typed body cannot express gets an `#error` line:
        // the file fails closed rather than carry code its channels cannot.
        let lines = compute_phase_lines(program, stencil)
            .unwrap_or_else(|e| vec![format!("#error \"stencil `{}`: {e}\"", unit.name)]);
        for line in lines {
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
            "__kernel void write_{}(__global {}* restrict data, const long n) {{",
            unit.field,
            field_type(&unit.field)
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
    use crate::jit_translation_unit;
    use stencilflow_core::AnalysisConfig;
    use stencilflow_dataflow::fuse_all;
    use stencilflow_program::StencilProgramBuilder;
    use stencilflow_workloads::{
        chain_program, horizontal_diffusion, jacobi3d_typed, listing1, ChainSpec,
        HorizontalDiffusionSpec,
    };

    fn kernels_of(program: &StencilProgram) -> String {
        let mapping = HardwareMapping::build(program, &AnalysisConfig::paper_defaults()).unwrap();
        generate_kernels(program, &mapping)
    }

    /// The compute-phase lines of stencil `name`'s kernel in `code`.
    fn compute_phase<'a>(code: &'a str, name: &str) -> Vec<&'a str> {
        let (_, kernel) = code
            .split_once(&format!("__kernel void stencil_{name}("))
            .unwrap();
        kernel
            .lines()
            .skip_while(|line| !line.ends_with(" result;"))
            .skip(1)
            .take_while(|line| !line.starts_with("    if (i >= INIT_"))
            .map(str::trim_start)
            .collect()
    }

    /// A one-stencil program `b = {code}` over inputs `a` (of type `a`) and
    /// `a2` (`f32`), and `f32` scalar `dt`.
    fn one_stencil(code: &str, a: DataType) -> StencilProgram {
        StencilProgramBuilder::new("one", &[8, 8, 8])
            .input("a", a, &["i", "j", "k"])
            .input("a2", DataType::Float32, &["i", "j", "k"])
            .scalar("dt", DataType::Float32)
            .stencil("b", code)
            .output("b")
            .build()
            .unwrap()
    }

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

    /// The compute phase `stencil` of `program` must have: the kernel
    /// statements and store of its one-stage native unit, each field read
    /// from cells of its own type and the result stored into a cell of the
    /// output type, with the OpenCL slot reads and math builtins.
    fn stage_body_lines(program: &StencilProgram, stencil: &StencilNode) -> Vec<String> {
        let kernel = stencil.kernel().unwrap();
        let types: Vec<DataType> = (kernel.slots().iter())
            .map(|slot| program.field_type(&slot.field).unwrap())
            .collect();
        let typed = kernel.specialize(&types).unwrap();
        let spec = JitStageSpec {
            symbol: "sf_stage_0".to_string(),
            kernel: &typed,
            slot_kinds: (kernel.slots().iter().zip(&types))
                .map(|(slot, &dtype)| slot_kind(slot, dtype))
                .collect(),
            slot_types: &types,
            round_output: stencil.output_type == DataType::Float32,
            store: stencil.output_type,
        };
        let (mut unit, _) = jit_translation_unit(&[spec]).unwrap();
        // Highest slot first: `sf_s1` is a prefix of `sf_s12`.
        for (ix, slot) in kernel.slots().iter().enumerate().rev() {
            unit = unit
                .replace(&format!("sf_p{ix}[sf_k]"), &slot_c(slot))
                .replace(&format!("sf_s{ix}"), &slot_c(slot));
        }
        for (inline, builtin) in [
            ("sf_minf(", "fmin("),
            ("sf_maxf(", "fmax("),
            ("sf_min(", "fmin("),
            ("sf_max(", "fmax("),
            ("sqrtf(", "sqrt("),
            ("fabsf(", "fabs("),
        ] {
            unit = unit.replace(inline, builtin);
        }
        let (_, inner) = unit.split_once("++sf_k) {\n").unwrap();
        let body = inner.lines().map(str::trim).take_while(|line| *line != "}");
        body.map(|line| line.replace("sf_o[sf_k] = ", "result = "))
            .collect()
    }

    #[test]
    fn compute_phases_are_the_stage_bodies() {
        // Every stencil's compute phase is, slot reads and the names of the
        // math functions aside (the OpenCL builtins, overloaded on `float`;
        // the native unit's inline `min`/`max` selects and libm's `sqrtf`,
        // `fabsf`), exactly the statements and store of its stage body.
        // Listing 1 and the chain are `f32` programs: their fields are read
        // as `float`s; jacobi3d is `f64`.
        let hdiff = horizontal_diffusion(&HorizontalDiffusionSpec::production(1));
        for program in [
            listing1(),
            chain_program(&ChainSpec::new(8, 8)),
            fuse_all(&hdiff).unwrap(),
            jacobi3d_typed(1, &[16, 16, 8], 1, DataType::Float64),
        ] {
            let code = kernels_of(&program);
            assert!(!code.contains("#error"), "{}", program.name());
            for stencil in program.stencils() {
                assert_eq!(
                    compute_phase(&code, &stencil.name),
                    stage_body_lines(&program, stencil),
                    "{}/{}",
                    program.name(),
                    stencil.name
                );
            }
        }
    }

    #[test]
    fn guarded_division_emits_through_the_typed_body() {
        // The division keeps the `Value` bytecode's jump diamond; the typed
        // kernel speculates it, so the compute phase is one select over
        // two evaluated arms.
        let code = kernels_of(&one_stencil(
            "a[i,j,k] > 0.0 ? a[i,j,k] / a2[i,j,k] : a[i,j,k]",
            DataType::Float32,
        ));
        let phase = compute_phase(&code, "b");
        assert_eq!(phase.len(), 4, "{phase:?}");
        assert!(
            phase[0].starts_with("const float sf_t0 = (tap("),
            "{phase:?}"
        );
        assert!(phase[0].contains(" / "), "{phase:?}");
        assert!(phase[2].contains(" != 0.0) ? sf_t0 : sf_t1;"), "{phase:?}");
        assert_eq!(phase[3], "result = sf_t2;");
    }

    #[test]
    fn scalar_slots_render_as_bare_names() {
        let code = kernels_of(&one_stencil(
            "a[i,j,k] * dt + a[i-1,j,k]",
            DataType::Float32,
        ));
        let phase = compute_phase(&code, "b").join("\n");
        assert!(phase.contains("+0+0) * (float)dt)") && !phase.contains("buf_dt"));
        // The name is declared: a kernel argument, so not an autorun kernel.
        let header = "__kernel void stencil_b(const float dt) {\n";
        assert!(code.contains(header) && !code.contains("autorun"), "{code}");
    }

    #[test]
    fn integer_stencils_fail_closed() {
        let code = kernels_of(&one_stencil("a[i,j,k] + a2[i,j,k]", DataType::Int32));
        assert!(code.contains("channel int ch_a_b "), "{code}");
        assert_eq!(
            compute_phase(&code, "b"),
            ["#error \"stencil `b`: kernel does not type-specialize (integer or boolean operands)\""]
        );
    }

    #[test]
    fn declarations_take_the_element_type_of_their_field() {
        let code = kernels_of(&jacobi3d_typed(1, &[16, 16, 8], 1, DataType::Float64));
        assert!(code.contains("#pragma OPENCL EXTENSION cl_khr_fp64 : enable"));
        for decl in [
            "channel double ",
            "__global const double* restrict data",
            "const double value",
            "double buf_f0[",
            "const double in_f0",
            "double result;",
            "__global double* restrict data",
        ] {
            assert!(code.contains(decl), "no `{decl}` in:\n{code}");
        }
        assert!(!code.contains("float "), "{code}");
    }
}
