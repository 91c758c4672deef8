//! Code generation from mapped StencilFlow designs.
//!
//! The paper's backend emits annotated OpenCL for the Intel FPGA SDK (an HLS
//! compiler), plus host code and, for multi-device designs, SMI networking
//! kernels (§VI). No HLS toolchain is available in this reproduction, so the
//! generated code is never synthesized; the single-device kernel file is
//! still produced in full so that the structure of the emitted architecture
//! — channel declarations with buffer depths, shift-register internal
//! buffers with tap points, boundary predication, autorun compute kernels,
//! reader/writer kernels — can be inspected, diffed, and tested against the
//! analysis. Host code and per-device SMI kernel files are not emitted.
//!
//! Both outputs print their arithmetic through one emitter:
//!
//! * [`jit_unit`] — the C expression emitter, which renders a stencil's
//!   type-specialized kernel bit-identically to the typed bytecode tiers,
//!   in `float` wherever double rounding is innocuous and in `double` with
//!   explicit `f32`-round wraps elsewhere; and the whole-program
//!   translation units of the Tier-4 native backend built from it.
//! * [`opencl`] — Intel-FPGA-OpenCL-style kernel emission for a single
//!   device, whose compute phases are those same stage bodies.

#![forbid(unsafe_code)]

pub mod jit_unit;
pub mod opencl;

pub use jit_unit::{jit_translation_unit, EmitError, JitSlotKind, JitStageSpec};
pub use opencl::generate_kernels;

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_core::{AnalysisConfig, HardwareMapping};
    use stencilflow_workloads::listing1;

    #[test]
    fn single_device_kernels_contain_expected_structure() {
        let program = listing1();
        let config = AnalysisConfig::paper_defaults();
        let mapping = HardwareMapping::build(&program, &config).unwrap();
        let code = generate_kernels(&program, &mapping);
        // Channels with explicit depths.
        assert!(code.contains("channel float"));
        assert!(code.contains("__attribute__((depth("));
        // One autorun kernel per stencil plus readers/writers.
        for stencil in ["b0", "b1", "b2", "b3", "b4"] {
            assert!(
                code.contains(&format!("void stencil_{stencil}")),
                "{stencil}"
            );
        }
        assert!(code.contains("__attribute__((autorun))"));
        assert!(code.contains("void read_a0"));
        assert!(code.contains("void write_b4"));
        // Shift-register buffers and boundary predication.
        assert!(code.contains("shift register"));
        assert!(code.contains("boundary"));
    }
}
