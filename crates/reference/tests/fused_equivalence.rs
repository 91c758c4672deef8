//! Golden equivalence of the output-only tiers behind
//! `ReferenceExecutor::execute`: every pinned tier (SIMD, fused, JIT) must
//! agree **bit for bit** with the tree-walking interpreter on every
//! program output — values, shrink masks, and error values — across tile
//! heights, window sizes, and workloads, including the programs that fall
//! back to the materializing path. The all-tier loop over the shared
//! workloads runs here (once), next to the fused tier's own contracts
//! (eligibility, dead-stage elision, pool steady state, measured
//! routing); `jit_equivalence.rs` holds the native backend's.

mod common;

use common::{assert_outputs_match, assert_tiers_bit_identical, run_on, run_pinned, TIERS};
use std::collections::BTreeMap;
use stencilflow_expr::DataType;
use stencilflow_program::{BoundaryCondition, StencilProgram, StencilProgramBuilder};
use stencilflow_reference::{generate_inputs, Grid, ReferenceExecutor, Tier, TierPolicy};
use stencilflow_workloads::{
    chain_program, diffusion2d, diffusion3d, horizontal_diffusion, jacobi2d, jacobi3d,
    jacobi3d_typed, listing1::listing1_with_shape, upwind3d_typed, ChainSpec,
    HorizontalDiffusionSpec,
};

/// Time stepping on every tier across window sizes and tile heights vs
/// the materializing stepper.
fn assert_tier_steps_bit_identical(program: &StencilProgram, seed: u64, steps: usize) {
    let inputs = generate_inputs(program, seed);
    let baseline = ReferenceExecutor::new()
        .run_steps(program, &inputs, steps)
        .unwrap();
    for tier in TIERS {
        for window in [1usize, 2, 3, steps.max(1)] {
            for tile_rows in [0usize, 1, 3] {
                let executor = ReferenceExecutor::new()
                    .with_fusion_window(window)
                    .with_fusion_tile_rows(tile_rows);
                let result = run_pinned(&executor, program, &inputs, Some(steps), tier).unwrap();
                assert_outputs_match(
                    program,
                    &format!("{tier} steps={steps} window={window} tile_rows={tile_rows}"),
                    &result,
                    &baseline,
                );
            }
        }
    }
}

/// Unpairable programs and zero steps error on every tier exactly like
/// `run_steps` — even a single step validates the pairing.
fn assert_stepping_rejections_match(unpairable: &StencilProgram) {
    let executor = ReferenceExecutor::new();
    let inputs = generate_inputs(unpairable, 1);
    for steps in [3usize, 1, 0] {
        let want = executor
            .run_steps(unpairable, &inputs, steps)
            .unwrap_err()
            .to_string();
        for tier in TIERS {
            let error = run_pinned(&executor, unpairable, &inputs, Some(steps), tier).unwrap_err();
            assert_eq!(error.to_string(), want, "{tier} steps={steps}");
        }
    }
}

#[test]
fn fused_matches_on_jacobi_and_diffusion() {
    assert_tiers_bit_identical(&jacobi2d(2, &[13, 9], 1), 1);
    assert_tiers_bit_identical(&jacobi3d(2, &[9, 7, 11], 1), 2);
    assert_tiers_bit_identical(&jacobi3d_typed(2, &[9, 7, 11], 1, DataType::Float64), 3);
    assert_tiers_bit_identical(&diffusion2d(2, &[12, 10], 1), 4);
    assert_tiers_bit_identical(&diffusion3d(2, &[7, 6, 9], 1), 5);
}

#[test]
fn fused_matches_on_chains() {
    for stages in [2usize, 6, 8] {
        let chain = chain_program(&ChainSpec::new(stages, 8).with_shape(&[6, 5, 7]));
        let executor = ReferenceExecutor::new();
        let compiled = executor.prepare(&chain).unwrap();
        assert!(
            compiled.fused_tier_supported(),
            "chains must take the fused fast path: {:?}",
            compiled.fused_fallback_reason()
        );
        assert_tiers_bit_identical(&chain, 6 + stages as u64);
    }
    // Longer chains whose cumulative dilation exceeds the tile height.
    let chain = chain_program(&ChainSpec::new(10, 4).with_shape(&[24, 6]));
    assert_tiers_bit_identical(&chain, 17);
}

#[test]
fn fused_matches_on_branchy_and_division_kernels() {
    for dtype in [DataType::Float32, DataType::Float64] {
        let program = upwind3d_typed(2, &[7, 9, 11], 1, dtype);
        let executor = ReferenceExecutor::new();
        let compiled = executor.prepare(&program).unwrap();
        assert!(compiled.fused_tier_supported());
        assert_tiers_bit_identical(&program, 21);
    }
    // Division inside a ternary arm: only the statically-typed
    // if-conversion makes this kernel branch-free, which the fused tier
    // requires — and IEEE division by zero (inf/NaN) must match bitwise.
    let program = StencilProgramBuilder::new("divsel", &[6, 12])
        .input("a", DataType::Float32, &["i", "j"])
        .input("b", DataType::Float32, &["i", "j"])
        .stencil("s", "b[i,j] > 0.25 ? a[i,j] / b[i,j-1] : a[i-1,j]")
        .shrink("s")
        .output("s")
        .build()
        .unwrap();
    let compiled = ReferenceExecutor::new().prepare(&program).unwrap();
    assert!(
        compiled.fused_tier_supported(),
        "typed if-conversion should make division ternaries fusible: {:?}",
        compiled.fused_fallback_reason()
    );
    assert_tiers_bit_identical(&program, 22);
}

#[test]
fn fused_matches_on_boundary_and_geometry_variety() {
    // Mixed constant boundaries (per-field constants differ; consumers of
    // each field agree), shrink masks, scalars, f64 outputs, deep halos.
    let program = StencilProgramBuilder::new("constants", &[7, 6, 9])
        .input("u", DataType::Float32, &["i", "j", "k"])
        .scalar("dt", DataType::Float32)
        .stencil(
            "lap",
            "-4.0*u[i,j,k] + u[i-1,j,k] + u[i+1,j,k] + u[i,j-1,k] + u[i,j+1,k]",
        )
        .boundary("lap", "u", BoundaryCondition::Constant(1.5))
        .stencil("flux", "lap[i,j,k] - lap[i,j,k-2] + dt")
        .boundary("flux", "lap", BoundaryCondition::Constant(-2.25))
        .shrink("flux")
        .stencil("out", "flux[i,j,k] * flux[i+2,j,k]")
        .shrink("out")
        .output_type("out", DataType::Float64)
        .output("out")
        .build()
        .unwrap();
    let compiled = ReferenceExecutor::new().prepare(&program).unwrap();
    assert!(
        compiled.fused_tier_supported(),
        "{:?}",
        compiled.fused_fallback_reason()
    );
    assert_tiers_bit_identical(&program, 31);

    // One-dimensional domain: a single tile spanning the row.
    let program = StencilProgramBuilder::new("fused1d", &[23])
        .input("a", DataType::Float32, &["i"])
        .stencil("s", "a[i-3] + a[i+2] * 0.5")
        .boundary("s", "a", BoundaryCondition::Constant(0.75))
        .shrink("s")
        .output("s")
        .build()
        .unwrap();
    assert_tiers_bit_identical(&program, 32);

    // Remainder-heavy innermost extents around the fused lane widths.
    for width in [1usize, 3, 7, 8, 9, 15, 16, 17, 31, 33] {
        assert_tiers_bit_identical(&jacobi2d(1, &[5, width], 1), 40 + width as u64);
    }
}

#[test]
fn fused_multi_output_and_dead_stage_elision() {
    // Two outputs sharing intermediates, plus a dead stencil nobody
    // consumes: the fused tier elides it (its value is unobservable).
    let program = StencilProgramBuilder::new("multi", &[8, 10])
        .input("a", DataType::Float32, &["i", "j"])
        .stencil("base", "a[i,j] + a[i-1,j]")
        .stencil("left", "base[i,j-1] * 2.0")
        .stencil("right", "base[i,j+1] * 3.0")
        .stencil("dead", "base[i,j] * 100.0")
        .shrink("left")
        .output("left")
        .output("right")
        .build()
        .unwrap();
    assert_tiers_bit_identical(&program, 51);
    // The dead stage does not add evaluations: fused counts at most the
    // live stages (times dilation overlap, bounded by an extra stage's
    // worth here).
    let inputs = generate_inputs(&program, 51);
    let executor = ReferenceExecutor::new();
    let fused = run_pinned(&executor, &program, &inputs, None, Tier::Fused).unwrap();
    let cells = program.space().num_cells();
    assert!(
        fused.cells_evaluated() < 4 * cells,
        "dead stage should be elided: {} evaluations for {} cells",
        fused.cells_evaluated(),
        cells
    );
    assert!(fused.field("dead").is_none());
    assert!(fused.field("base").is_none());
}

#[test]
fn fused_steps_match_materializing_steps() {
    assert_tier_steps_bit_identical(&jacobi3d(1, &[9, 8, 10], 1), 61, 5);
    assert_tier_steps_bit_identical(&jacobi2d(1, &[11, 9], 1), 62, 7);
    assert_tier_steps_bit_identical(&jacobi3d_typed(1, &[6, 7, 9], 1, DataType::Float64), 63, 4);
    // Multi-stencil program per step (two internal Jacobi sweeps).
    assert_tier_steps_bit_identical(&jacobi3d(2, &[8, 6, 9], 1), 64, 3);

    // Coupled multi-field state with prefix pairing.
    let coupled = StencilProgramBuilder::new("coupled", &[10, 12])
        .input("h", DataType::Float32, &["i", "j"])
        .input("h2", DataType::Float32, &["i", "j"])
        .stencil("h_next", "0.5 * (h[i-1,j] + h[i+1,j]) + 0.1 * h2[i,j]")
        .stencil("h2_next", "h2[i,j-1] * 0.25 + h[i,j]")
        .output("h_next")
        .output("h2_next")
        .build()
        .unwrap();
    let compiled = ReferenceExecutor::new().prepare(&coupled).unwrap();
    assert!(compiled.fused_steps_supported());
    assert_tier_steps_bit_identical(&coupled, 65, 5);
}

#[test]
fn ineligible_programs_fall_back_bit_identically() {
    // Listing 1 combines a lower-dimensional input with copy boundaries;
    // both keep it on the materializing path.
    let listing = listing1_with_shape(&[6, 7, 5]);
    let executor = ReferenceExecutor::new();
    let compiled = executor.prepare(&listing).unwrap();
    assert!(!compiled.fused_tier_supported());
    assert_tiers_bit_identical(&listing, 71);

    // Copy boundaries cannot be expressed as position-indexed pads.
    let copy = StencilProgramBuilder::new("copyb", &[6, 8])
        .input("a", DataType::Float32, &["i", "j"])
        .stencil("s", "a[i-1,j] + a[i+1,j]")
        .boundary("s", "a", BoundaryCondition::Copy)
        .output("s")
        .build()
        .unwrap();
    let compiled = executor.prepare(&copy).unwrap();
    assert!(!compiled.fused_tier_supported());
    assert!(compiled
        .fused_fallback_reason()
        .unwrap()
        .contains("copy boundary"));
    assert_tiers_bit_identical(&copy, 74);

    // Lower-dimensional parameter fields keep horizontal diffusion on the
    // materializing path (for now).
    let hd = horizontal_diffusion(&HorizontalDiffusionSpec::small());
    let compiled = executor.prepare(&hd).unwrap();
    assert!(!compiled.fused_tier_supported());
    assert_tiers_bit_identical(&hd, 72);

    // Consumers disagreeing on a field's boundary constant.
    let conflict = StencilProgramBuilder::new("conflict", &[6, 8])
        .input("a", DataType::Float32, &["i", "j"])
        .stencil("s", "a[i-1,j] + a[i+1,j]")
        .boundary("s", "a", BoundaryCondition::Constant(1.0))
        .stencil("t", "a[i,j-1] + s[i,j]")
        .boundary("t", "a", BoundaryCondition::Constant(2.0))
        .output("t")
        .build()
        .unwrap();
    let compiled = executor.prepare(&conflict).unwrap();
    assert!(!compiled.fused_tier_supported());
    assert_tiers_bit_identical(&conflict, 73);

    // Stepping on unpairable programs errors exactly like the
    // materializing stepper, on every tier.
    let unpairable = StencilProgramBuilder::new("unpairable", &[6])
        .input("a", DataType::Float32, &["i"])
        .stencil("x", "a[i] + 1.0")
        .stencil("y", "a[i] * 2.0")
        .output("x")
        .output("y")
        .build()
        .unwrap();
    assert_stepping_rejections_match(&unpairable);
}

#[test]
fn fused_steps_state_round_trips_through_windows() {
    // Enough steps to force several windows (and pooled state grids), on
    // a domain small enough that every path is exercised quickly.
    let program = jacobi3d(1, &[8, 6, 10], 1);
    let inputs = generate_inputs(&program, 81);
    let plain = ReferenceExecutor::new();
    let baseline = plain.run_steps(&program, &inputs, 11).unwrap();
    let executor = ReferenceExecutor::new()
        .with_fusion_window(2)
        .with_fusion_tile_rows(3);
    let fused = run_pinned(&executor, &program, &inputs, Some(11), Tier::Fused).unwrap();
    assert_outputs_match(&program, "windows", &fused, &baseline);
}

#[test]
fn fused_steady_state_allocates_nothing_from_the_pool() {
    let program = jacobi3d(1, &[12, 10, 16], 1);
    let inputs = generate_inputs(&program, 91);
    let executor = ReferenceExecutor::new().with_fusion_window(2);
    let fused = |steps| run_pinned(&executor, &program, &inputs, steps, Tier::Fused).unwrap();
    // Warm-up populates the pool.
    fused(Some(6));
    let warm_misses = executor.pool_miss_count();
    assert!(warm_misses > 0, "the first run must populate the pool");
    for _ in 0..3 {
        fused(Some(6));
    }
    assert_eq!(
        executor.pool_miss_count(),
        warm_misses,
        "steady-state fused stepping must reuse pooled buffers"
    );
    assert!(executor.pool_acquire_count() > warm_misses);

    // Single fused runs reuse the same pool.
    fused(None);
    let after_single = executor.pool_miss_count();
    fused(None);
    assert_eq!(executor.pool_miss_count(), after_single);
}

#[test]
fn fused_parallel_tiling_matches_sequential() {
    // Big enough to cross the parallel threshold; disjoint output slabs
    // must compose to the identical grid.
    let program = jacobi3d(2, &[40, 16, 16], 1);
    let inputs = generate_inputs(&program, 101);
    let sequential = ReferenceExecutor::new()
        .with_max_threads(1)
        .with_fusion_tile_rows(4);
    let sequential = run_pinned(&sequential, &program, &inputs, None, Tier::Fused).unwrap();
    let parallel = ReferenceExecutor::new().with_fusion_tile_rows(4);
    let parallel = run_pinned(&parallel, &program, &inputs, None, Tier::Fused).unwrap();
    for output in program.outputs() {
        for (a, b) in sequential
            .field(output)
            .unwrap()
            .as_slice()
            .iter()
            .zip(parallel.field(output).unwrap().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn measured_routing_stays_bit_identical_and_caches_the_decision() {
    // `TierPolicy::Auto` measures the eligible tiers on first sight (the
    // service layer's automatic tier selection routes through the same
    // code). Whatever wins, the result must stay bit-identical to the
    // interpreter, and repeat traffic must hit the cached decision.
    let program = jacobi2d(2, &[14, 11], 1);
    let inputs = generate_inputs(&program, 111);
    let executor = ReferenceExecutor::new();
    let auto = |steps| run_on(&executor, &program, &inputs, steps, TierPolicy::Auto).unwrap();
    let interpreted = executor.run_interpreted(&program, &inputs).unwrap();
    assert_eq!(executor.tier_measure_count(), 0);
    let first = auto(None);
    assert_outputs_match(&program, "measured single", &first, &interpreted);
    assert_eq!(executor.tier_measure_count(), 1);
    for _ in 0..3 {
        let repeat = auto(None);
        assert_outputs_match(&program, "measured repeat", &repeat, &interpreted);
    }
    assert_eq!(
        executor.tier_measure_count(),
        1,
        "repeat traffic must reuse the measured decision"
    );

    // Stepped traffic is a distinct decision key, whatever the step count.
    let stepped = auto(Some(4));
    let baseline = executor.run_steps(&program, &inputs, 4).unwrap();
    assert_outputs_match(&program, "measured stepped", &stepped, &baseline);
    assert_eq!(executor.tier_measure_count(), 2);
    auto(Some(4));
    auto(Some(2));
    assert_eq!(executor.tier_measure_count(), 2);

    // A pinned tier never measures.
    let pinned = ReferenceExecutor::new();
    let fused = run_pinned(&pinned, &program, &inputs, None, Tier::Fused).unwrap();
    assert_outputs_match(&program, "pinned", &fused, &interpreted);
    assert_eq!(pinned.tier_measure_count(), 0);
}

#[test]
fn fused_handles_explicit_values() {
    // Hand-checked values through the fused path (not just equivalence).
    let program = StencilProgramBuilder::new("p", &[4])
        .input("a", DataType::Float32, &["i"])
        .stencil("s", "a[i-1] + a[i+1]")
        .output("s")
        .build()
        .unwrap();
    let mut inputs = BTreeMap::new();
    inputs.insert(
        "a".to_string(),
        Grid::from_values(&["i"], &[4], &[1.0, 2.0, 3.0, 4.0]),
    );
    let executor = ReferenceExecutor::new();
    let result = run_pinned(&executor, &program, &inputs, None, Tier::Fused).unwrap();
    // Zero-constant default boundaries: s = [2, 4, 6, 3].
    assert_eq!(result.field("s").unwrap().as_slice(), &[2.0, 4.0, 6.0, 3.0]);
}
