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

/// Block heights every golden loop pins (`0` leaves the budget-derived
/// one): single planes, blocks that wrap their rings, the whole extent in
/// one tick, and more than the extent.
pub fn block_heights(program: &StencilProgram) -> [usize; 6] {
    let extent = program.space().shape[0];
    [0, 1, 2, 3, extent, extent + 7]
}

/// Stencils that reach a program output: the stages the fused tier
/// computes (it elides the rest).
pub fn live_stages(program: &StencilProgram) -> usize {
    let mut live: Vec<&str> = program.outputs().iter().map(String::as_str).collect();
    let mut next = 0;
    while next < live.len() {
        let stencil = program.stencil(live[next]).unwrap();
        for producer in program.stencils() {
            if stencil.accesses.contains(&producer.name) && !live.contains(&producer.name.as_str())
            {
                live.push(&producer.name);
            }
        }
        next += 1;
    }
    live.len()
}

/// On one worker the wavefront evaluates every cell of every live stage
/// of every step exactly once, whatever the block height and window.
pub fn assert_no_redundant_compute(
    executor: &ReferenceExecutor,
    program: &StencilProgram,
    result: &ExecutionResult,
    steps: usize,
    label: &str,
) {
    let compiled = executor.prepare(program).unwrap();
    if compiled
        .tier_trace()
        .reason(Tier::Fused, Some(steps))
        .is_none()
    {
        assert_eq!(
            result.cells_evaluated(),
            program.space().num_cells() * live_stages(program) * steps,
            "program `{}` ({label}): cells evaluated",
            program.name()
        );
    }
}

/// Run every tier under several block heights and compare each against
/// the interpreter; a rejected input must produce the interpreter's error
/// on every tier too.
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
        for block in block_heights(program) {
            let executor = ReferenceExecutor::new().with_fusion_tile_rows(block);
            let result = run_pinned(&executor, program, &inputs, None, tier).unwrap();
            let label = format!("{tier} block={block}");
            assert_outputs_match(program, &label, &result, &interpreted);
            // `execute` results carry exactly the program outputs.
            assert_eq!(result.fields().count(), program.outputs().len());
            if tier != Tier::Simd {
                assert_no_redundant_compute(&executor, program, &result, 1, &label);
            }
        }
        let error = run_pinned(&plain, program, &missing, None, tier).unwrap_err();
        assert_eq!(error.to_string(), rejection, "{tier} error value");
    }
}
