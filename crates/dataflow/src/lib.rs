//! Stencil fusion: the domain-specific program transformation of §V-B.
//!
//! The paper applies "aggressive stencil fusion" to its input programs before
//! mapping them: two dependent stencils are scheduled as one stencil with
//! several statements. On a spatial architecture this does not change the
//! (already fully parallel) schedule; it merges initialization phases and
//! internal buffers, coarsens the stencil units, and exposes common
//! subexpressions to the backend compiler.
//!
//! A producer is fused into its consumer when the legality conditions of
//! §V-B hold:
//!
//! 1. both operate on the same iteration space (always true within one
//!    program);
//! 2. they have the same boundary-condition behaviour;
//! 3. the producer's field is read by this consumer only;
//! 4. it is not a program output, so removing it adds no off-chip traffic;
//! 5. (restriction of this implementation) the consumer reads it at the
//!    centre offset only, so nothing is recomputed.
//!
//! [`fuse_all`] applies the rewrite until no pair qualifies;
//! [`transforms::fuse_all_with_report`] also says which pairs were fused.

#![forbid(unsafe_code)]

pub mod transforms;

pub use transforms::fuse_all;

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_reference::{generate_inputs, ReferenceExecutor};
    use stencilflow_workloads::{horizontal_diffusion, HorizontalDiffusionSpec};

    #[test]
    fn aggressive_fusion_preserves_horizontal_diffusion_semantics() {
        let program = horizontal_diffusion(&HorizontalDiffusionSpec::small());
        let fused = fuse_all(&program).unwrap();
        assert!(fused.stencil_count() < program.stencil_count());
        // Functional equivalence on the program outputs.
        let inputs = generate_inputs(&program, 9);
        let reference = ReferenceExecutor::new().run(&program, &inputs).unwrap();
        let fused_result = ReferenceExecutor::new().run(&fused, &inputs).unwrap();
        for output in program.outputs() {
            let a = reference.field(output).unwrap();
            let b = fused_result.field(output).unwrap();
            assert!(
                a.approx_eq(b, 1e-4),
                "output {output} diverges after fusion"
            );
        }
    }
}
