//! Shared by the fused- and JIT-equivalence suites: every tier of
//! [`ReferenceExecutor::execute`], pinned, against the tree-walking
//! interpreter — values, shrink masks, and error values. Each workload
//! goes through the all-tier loop in one suite only.

use std::collections::BTreeMap;
use stencilflow_program::{Result, StencilProgram};
use stencilflow_reference::{
    generate_inputs, ExecutionResult, Grid, ReferenceExecutor, RunSpec, Tier, TierPolicy,
};

pub const TIERS: [Tier; 3] = [Tier::Simd, Tier::Fused, Tier::Jit];

/// `prepare` + `execute`, returning the outputs-only result.
pub fn run_on(
    executor: &ReferenceExecutor,
    program: &StencilProgram,
    inputs: &BTreeMap<String, Grid>,
    steps: Option<usize>,
    tier: TierPolicy,
) -> Result<ExecutionResult> {
    let compiled = executor.prepare(program)?;
    let (result, _) = executor.execute(&compiled, inputs, &RunSpec { steps, tier })?;
    Ok(result)
}

/// [`run_on`] with the tier pinned.
pub fn run_pinned(
    executor: &ReferenceExecutor,
    program: &StencilProgram,
    inputs: &BTreeMap<String, Grid>,
    steps: Option<usize>,
    tier: Tier,
) -> Result<ExecutionResult> {
    run_on(executor, program, inputs, steps, TierPolicy::Fixed(tier))
}

/// Compare two results on the program outputs, bitwise, masks included.
pub fn assert_outputs_match(
    program: &StencilProgram,
    label: &str,
    got: &ExecutionResult,
    baseline: &ExecutionResult,
) {
    for output in program.outputs() {
        let g = got
            .field(output)
            .unwrap_or_else(|| panic!("result ({label}) misses output `{output}`"));
        let b = baseline.field(output).unwrap();
        assert_eq!(g.shape(), b.shape());
        for (cell, (x, y)) in g.as_slice().iter().zip(b.as_slice().iter()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "program `{}` ({label}), output `{output}`, cell {cell}: \
                 got {x:?} != baseline {y:?}",
                program.name()
            );
        }
        assert_eq!(
            got.valid_mask(output).unwrap(),
            baseline.valid_mask(output).unwrap(),
            "mask mismatch for `{output}` in `{}` ({label})",
            program.name()
        );
    }
}

/// Run every tier under several tile heights and compare each against the
/// interpreter; a rejected input must produce the interpreter's error on
/// every tier too.
pub fn assert_tiers_bit_identical(program: &StencilProgram, seed: u64) {
    let inputs = generate_inputs(program, seed);
    let plain = ReferenceExecutor::new();
    let interpreted = plain.run_interpreted(program, &inputs).unwrap();
    let mut missing = inputs.clone();
    missing.pop_first();
    let rejection = plain
        .run_interpreted(program, &missing)
        .unwrap_err()
        .to_string();
    for tier in TIERS {
        for tile_rows in [0usize, 1, 2, 5] {
            let executor = ReferenceExecutor::new().with_fusion_tile_rows(tile_rows);
            let result = run_pinned(&executor, program, &inputs, None, tier).unwrap();
            assert_outputs_match(
                program,
                &format!("{tier} tile_rows={tile_rows}"),
                &result,
                &interpreted,
            );
            // `execute` results carry exactly the program outputs.
            assert_eq!(result.fields().count(), program.outputs().len());
        }
        let error = run_pinned(&plain, program, &missing, None, tier).unwrap_err();
        assert_eq!(error.to_string(), rejection, "{tier} error value");
    }
}
