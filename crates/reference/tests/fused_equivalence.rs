//! Golden equivalence of the output-only tiers behind
//! `ReferenceExecutor::execute`: every pinned tier (fused, JIT) must
//! agree **bit for bit** with the tree-walking interpreter on every
//! program output — values, shrink masks, and error values — across block
//! heights, window sizes, and workloads, including the boxed stages and
//! transposed inputs that once fell back to a materializing sweep, and
//! must evaluate every cell exactly once. The all-tier loop over the shared
//! workloads runs here (once), next to the fused tier's own contracts
//! (liveness, the edge pass, dead-stage elision, kernel errors, pool
//! steady state, the rung an unpinned run lands on); `jit_equivalence.rs`
//! holds the native backend's.

mod common;

use common::{
    assert_no_redundant_compute, assert_outputs_match, assert_rungs_match_interpreter,
    assert_tiers_bit_identical, block_heights, interpret, run_pinned, TIERS,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use stencilflow_expr::DataType;
use stencilflow_expr::ExprError;
use stencilflow_program::{BoundaryCondition, ProgramError, StencilProgram, StencilProgramBuilder};
use stencilflow_reference::{
    generate_inputs, Grid, Ineligible, JobSpec, ReferenceExecutor, RunSpec, ServeConfig,
    ServeExecutor, Tier,
};
use stencilflow_workloads::{
    chain_program, diffusion2d, diffusion3d, horizontal_diffusion, jacobi2d, jacobi3d,
    jacobi3d_typed, listing1::listing1_with_shape, random_dag, upwind3d_typed, ChainSpec,
    HorizontalDiffusionSpec,
};

/// Time stepping on every tier across window sizes (dividing the step
/// count or not) and block heights vs the interpreter, stepped by hand.
fn assert_tier_steps_bit_identical(program: &StencilProgram, seed: u64, steps: usize) {
    let inputs = generate_inputs(program, seed);
    let baseline = interpret(program, &inputs, Some(steps)).unwrap();
    for tier in TIERS {
        for window in [1usize, 2, 4, 5] {
            for block in block_heights(program) {
                let executor = ReferenceExecutor::new()
                    .with_fusion_window(window)
                    .with_fusion_tile_rows(block);
                let result = run_pinned(&executor, program, &inputs, Some(steps), tier).unwrap();
                let label = format!("{tier} steps={steps} window={window} block={block}");
                assert_outputs_match(program, &label, &result, &baseline);
                assert_no_redundant_compute(program, &result, steps, &label);
            }
        }
    }
}

/// Unpairable programs and zero steps error on every tier exactly like
/// `run_steps` (and, for a pairing that does not derive, like the
/// interpreter stepped by hand) — even a single step validates the
/// pairing.
fn assert_stepping_rejections_match(unpairable: &StencilProgram) {
    let executor = ReferenceExecutor::new();
    let inputs = generate_inputs(unpairable, 1);
    for steps in [3usize, 1, 0] {
        let want = executor
            .run_steps(unpairable, &inputs, steps)
            .unwrap_err()
            .to_string();
        if steps > 0 {
            let interpreted = interpret(unpairable, &inputs, Some(steps)).unwrap_err();
            assert_eq!(interpreted.to_string(), want);
        }
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
        assert_tiers_bit_identical(&chain, 6 + stages as u64);
    }
    // Longer chains whose cumulative lag exceeds the block height.
    let chain = chain_program(&ChainSpec::new(10, 4).with_shape(&[24, 6]));
    assert_tiers_bit_identical(&chain, 17);
}

#[test]
fn fused_matches_on_branchy_and_division_kernels() {
    for dtype in [DataType::Float32, DataType::Float64] {
        let program = upwind3d_typed(2, &[7, 9, 11], 1, dtype);
        assert_tiers_bit_identical(&program, 21);
    }
    // Division inside a ternary arm: the statically-typed if-conversion
    // makes this kernel branch-free, and IEEE division by zero (inf/NaN)
    // must match bitwise.
    let program = StencilProgramBuilder::new("divsel", &[6, 12])
        .input("a", DataType::Float32, &["i", "j"])
        .input("b", DataType::Float32, &["i", "j"])
        .stencil("s", "b[i,j] > 0.25 ? a[i,j] / b[i,j-1] : a[i-1,j]")
        .shrink("s")
        .output("s")
        .build()
        .unwrap();
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
    assert_tiers_bit_identical(&program, 31);

    // One-dimensional domain: a single plane of a single row.
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
    // The dead stage does not add evaluations: fused counts exactly the
    // three live stages.
    let inputs = generate_inputs(&program, 51);
    let executor = ReferenceExecutor::new();
    let fused = run_pinned(&executor, &program, &inputs, None, Tier::Fused).unwrap();
    assert_eq!(
        fused.cells_evaluated(),
        3 * program.space().num_cells(),
        "dead stage should be elided"
    );
    assert!(fused.field("dead").is_none());
    assert!(fused.field("base").is_none());
}

#[test]
fn fused_steps_match_interpreted_steps() {
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
    assert_tier_steps_bit_identical(&coupled, 65, 5);
}

/// A 3-D field missing the plane axis, read at row offsets under a
/// `Constant` boundary into shrink stages: pads, the dilation chain and the
/// shrink box must all be indexed by space axis, not by field dimension.
fn row_broadcast(shape: &[usize]) -> StencilProgram {
    StencilProgramBuilder::new("row_broadcast", shape)
        .input("u", DataType::Float32, &["i", "j", "k"])
        .input("c", DataType::Float64, &["j", "k"])
        .stencil("a", "u[i,j,k] * c[j-1,k] + c[j,k+1]")
        .boundary("a", "c", BoundaryCondition::Constant(0.5))
        .shrink("a")
        .stencil("b", "a[i-1,j,k] + 0.25 * a[i+1,j,k] - c[j+1,k]")
        .boundary("b", "a", BoundaryCondition::Constant(-1.0))
        .boundary("b", "c", BoundaryCondition::Constant(0.5))
        .shrink("b")
        .output("b")
        .build()
        .unwrap()
}

/// A 3-D `[i,k]` field read at plane offsets (stride 0 along rows) and a
/// `[k]` field (stride 0 along planes and rows).
fn plane_broadcast(shape: &[usize]) -> StencilProgram {
    StencilProgramBuilder::new("plane_broadcast", shape)
        .input("u", DataType::Float32, &["i", "j", "k"])
        .input("w", DataType::Float64, &["i", "k"])
        .input("z", DataType::Float32, &["k"])
        .stencil("s", "u[i,j-1,k] + w[i-1,k] * w[i+2,k-1] - z[k+1]")
        .boundary("s", "w", BoundaryCondition::Constant(2.0))
        .boundary("s", "z", BoundaryCondition::Constant(-3.0))
        .shrink("s")
        .stencil("t", "s[i+1,j,k] - w[i,k]")
        .output("t")
        .build()
        .unwrap()
}

/// Programs whose lower-rank inputs keep the innermost axis, so they stream
/// through the fused and JIT tiers as broadcast taps: the paper's Listing 1
/// (`a2[i,k]` misses the row axis; its copy boundary sits on centre-only
/// accesses, which never leave the domain), the two above, and a 2-D
/// `[j]` field.
fn broadcast_programs() -> Vec<StencilProgram> {
    let vector = StencilProgramBuilder::new("vector_broadcast", &[9, 13])
        .input("u", DataType::Float32, &["i", "j"])
        .input("c", DataType::Float32, &["j"])
        .stencil("s", "u[i-1,j] * c[j-1] + c[j+2]")
        .boundary("s", "c", BoundaryCondition::Constant(-0.5))
        .shrink("s")
        .output("s")
        .build()
        .unwrap();
    vec![
        listing1_with_shape(&[6, 7, 5]),
        row_broadcast(&[7, 6, 9]),
        plane_broadcast(&[7, 5, 11]),
        vector,
    ]
}

#[test]
fn broadcast_taps_match_on_lower_rank_inputs() {
    for (program, seed) in broadcast_programs().into_iter().zip(76..) {
        // Both fused tiers stream it: the JIT leg of the loop runs native.
        let compiled = ReferenceExecutor::new().prepare(&program).unwrap();
        let reason = compiled.tier_trace().reason();
        assert_eq!(reason, None, "{}", program.name());
        assert_tiers_bit_identical(&program, seed);
    }

    // A broadcast input next to the state: one copy serves every window.
    let forced = StencilProgramBuilder::new("forced", &[10, 12])
        .input("h", DataType::Float32, &["i", "j"])
        .input("f", DataType::Float32, &["j"])
        .stencil("h_next", "0.5 * (h[i-1,j] + h[i+1,j]) + f[j-1]")
        .boundary("h_next", "f", BoundaryCondition::Constant(0.25))
        .output("h_next")
        .build()
        .unwrap();
    assert_tier_steps_bit_identical(&forced, 79, 5);
}

#[test]
fn broadcast_taps_match_across_worker_seams() {
    // Two workers share each broadcast buffer read-only; only the rings
    // are per worker, and only full-rank stages recompute at the seam:
    // Listing 1's `b3` reads `b1[i±1]`, dilating `b1` and `b0` by one plane
    // on each side; `t` reads `s[i+1]`, dilating `s` by one; `b` reads
    // `a[i±1]`, dilating `a` by one on each side.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let plane = 32 * 32;
    let cases = [
        (listing1_with_shape(&[64, 32, 32]), 4),
        (plane_broadcast(&[64, 32, 32]), 1),
        (row_broadcast(&[64, 32, 32]), 2),
    ];
    for (program, seam_planes) in cases {
        let inputs = generate_inputs(&program, 102);
        let interpreted = ReferenceExecutor::new()
            .run_interpreted(&program, &inputs)
            .unwrap();
        for tier in [Tier::Fused, Tier::Jit] {
            for block in [0, 1, 3] {
                let label = format!("{tier} block={block}");
                let run = |threads| {
                    let executor = ReferenceExecutor::new()
                        .with_max_threads(threads)
                        .with_fusion_tile_rows(block);
                    run_pinned(&executor, &program, &inputs, None, tier).unwrap()
                };
                let (sequential, parallel) = (run(1), run(2));
                assert_outputs_match(&program, &label, &parallel, &interpreted);
                assert_outputs_match(&program, &label, &sequential, &interpreted);
                assert_eq!(
                    parallel.cells_evaluated(),
                    sequential.cells_evaluated() + (workers - 1) * seam_planes * plane,
                    "{} {label}: seam recompute",
                    program.name()
                );
            }
        }
    }
}

/// An input every live tap reads at the center is read in place from the
/// caller's grid, or between windows from the pooled state grid: no ring,
/// no copy, no pads. Rows of 29 and 37 cells end inside a lane batch, so
/// the bytecode sweep's last batch of a grid's last row reaches past the
/// grid.
#[test]
fn in_place_taps_match_on_both_sweeps_and_workers() {
    // `w` is read at the center only; `u` at the center by `s` and off it
    // by `t`, so it keeps its ring.
    let shared = |shape: &[usize]| {
        StencilProgramBuilder::new("shared_input", shape)
            .input("u", DataType::Float32, &["i", "j", "k"])
            .input("w", DataType::Float64, &["i", "j", "k"])
            .stencil("s", "u[i,j,k] * 2.0 + w[i,j,k]")
            .stencil("t", "s[i,j,k] + u[i-1,j,k+1] * w[i,j,k]")
            .boundary("t", "u", BoundaryCondition::Constant(0.5))
            .shrink("t")
            .output("t")
            .build()
            .unwrap()
    };
    // Radius 0 with a center-only `[k]` forcing: the state is read in
    // place at every window's first step.
    let relax = |shape: &[usize]| {
        StencilProgramBuilder::new("relax", shape)
            .input("h", DataType::Float32, &["i", "j", "k"])
            .input("f", DataType::Float32, &["k"])
            .stencil("h_next", "0.5 * h[i,j,k] + f[k]")
            .output("h_next")
            .build()
            .unwrap()
    };
    let small: [(StencilProgram, Option<usize>); 3] = [
        (listing1_with_shape(&[5, 3, 29]), None),
        (shared(&[5, 3, 29]), None),
        (relax(&[5, 3, 29]), Some(7)),
    ];
    for ((program, steps), seed) in small.into_iter().zip(400..) {
        let compiled = ReferenceExecutor::new().prepare(&program).unwrap();
        assert_eq!(compiled.tier_trace().reason(), None);
        match steps {
            None => assert_tiers_bit_identical(&program, seed),
            Some(steps) => assert_tier_steps_bit_identical(&program, seed, steps),
        }
    }

    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    // Big enough for two workers. (program, steps, pooled state sets: a
    // repeat draws those and one arena per worker, nothing else — every
    // input is in place or ringed, none a lower-rank copy).
    let large = [
        (listing1_with_shape(&[64, 32, 37]), None, 0),
        (shared(&[64, 32, 37]), None, 0),
        (relax(&[64, 32, 37]), Some(7), 2),
    ];
    for ((program, steps, state_sets), seed) in large.into_iter().zip(410..) {
        let inputs = generate_inputs(&program, seed);
        let baseline = match steps {
            None => ReferenceExecutor::new().run_interpreted(&program, &inputs),
            Some(steps) => ReferenceExecutor::new().run_steps(&program, &inputs, steps),
        }
        .unwrap();
        for tier in [Tier::Fused, Tier::Jit] {
            for threads in [1, 2] {
                let label = format!("{} {tier} threads={threads}", program.name());
                let executor = ReferenceExecutor::new()
                    .with_max_threads(threads)
                    .with_fusion_window(3);
                let run = || run_pinned(&executor, &program, &inputs, steps, tier).unwrap();
                let result = run();
                assert_outputs_match(&program, &label, &result, &baseline);
                if threads == 1 {
                    assert_no_redundant_compute(&program, &result, steps.unwrap_or(1), &label);
                }
                // Balance: a repeat hands every buffer back.
                let (misses, acquires) =
                    (executor.pool_miss_count(), executor.pool_acquire_count());
                assert_outputs_match(&program, &label, &run(), &baseline);
                assert_eq!(executor.pool_miss_count(), misses, "{label}");
                let arenas = if threads == 1 { 1 } else { workers };
                let outputs = program.outputs().len();
                assert_eq!(
                    executor.pool_acquire_count() - acquires,
                    arenas + state_sets * outputs,
                    "{label}"
                );
            }
        }
    }
}

#[test]
fn liveness_is_judged_on_fields_and_stages_that_reach_an_output() {
    // Inputs no output depends on — one missing the innermost axis, one
    // transposed, one read by nobody — and a dead boxed stage reading them:
    // none of them is ever swept, so none may keep the program off the JIT
    // rung.
    let program = StencilProgramBuilder::new("dead_untyped", &[6, 5, 9])
        .input("u", DataType::Float32, &["i", "j", "k"])
        .input("col", DataType::Float32, &["i"])
        .input("t", DataType::Int32, &["k", "j", "i"])
        .input("unused", DataType::Float32, &["j"])
        .stencil("out", "u[i-1,j,k] + u[i,j,k+1]")
        .stencil("dead", "col[i] + t[k,j,i] / 2")
        .output("out")
        .build()
        .unwrap();
    let compiled = ReferenceExecutor::new().prepare(&program).unwrap();
    assert_eq!(compiled.typed_stencil_count(), 1);
    assert_eq!(compiled.tier_trace().reason(), None);
    assert_tiers_bit_identical(&program, 80);

    // The same boxed stage live keeps the JIT rung off, the reason naming
    // it; the fused rung sweeps it cell by cell.
    let live = StencilProgramBuilder::new("live_untyped", &[6, 5, 9])
        .input("u", DataType::Float32, &["i", "j", "k"])
        .input("t", DataType::Int32, &["k", "j", "i"])
        .stencil("out", "u[i-1,j,k] + t[k,j+1,i] / 2")
        .output("out")
        .build()
        .unwrap();
    let compiled = ReferenceExecutor::new().prepare(&live).unwrap();
    let trace = compiled.tier_trace();
    let stencil = "out".to_string();
    assert_eq!(trace.reason(), Some(&Ineligible::Untyped { stencil }));
    assert_eq!(
        trace.reason().unwrap().to_string(),
        "stencil `out` has no typed kernel"
    );
    assert_tiers_bit_identical(&live, 81);
}

/// The programs that fell back to the materializing sweep before every
/// program fused: transposed inputs (2-D, and 3-D with a lower-rank one
/// too, big enough for two workers), read at non-zero offsets so their
/// pads are read; boxed stages that divide by an integer zero, from an
/// edge cell or from the data (or never); and a boxed program stepped
/// with feedback.
#[test]
fn former_fallbacks_fuse_and_match_the_interpreter() {
    let executor = ReferenceExecutor::new();
    let transposed2d = StencilProgramBuilder::new("transposed", &[6, 8])
        .input("u", DataType::Float32, &["j", "i"])
        .stencil("s", "u[j,i-1] + u[j+1,i]")
        .output("s")
        .build()
        .unwrap();
    let transposed3d = StencilProgramBuilder::new("transposed3d", &[64, 32, 33])
        .input("u", DataType::Float32, &["k", "i", "j"])
        .input("w", DataType::Float64, &["k", "i"])
        .stencil("s", "u[k+1,i,j-1] * 0.5 + u[k,i-1,j] - w[k-2,i]")
        .boundary("s", "u", BoundaryCondition::Copy)
        .boundary("s", "w", BoundaryCondition::Constant(0.25))
        .stencil("t", "s[i+1,j,k] - u[k,i,j+1] * w[k,i+1]")
        .shrink("t")
        .output("t")
        .build()
        .unwrap();
    for (program, seed) in [(transposed2d, 74), (transposed3d, 75)] {
        let compiled = executor.prepare(&program).unwrap();
        assert_eq!(compiled.tier_trace().reason(), None);
        let inputs = generate_inputs(&program, seed);
        assert_rungs_match_interpreter(&program, &inputs, None);
    }

    // `golden_equivalence.rs`'s `div0`: no zero, a zero boundary constant,
    // a zero in the data.
    for (boundary, zero_at) in [(2.0, None), (0.0, None), (2.0, Some(13))] {
        let program = StencilProgramBuilder::new("div0", &[4, 9])
            .input("n", DataType::Int32, &["i", "j"])
            .stencil("s", "7 / n[i,j-1]")
            .boundary("s", "n", BoundaryCondition::Constant(boundary))
            .output_type("s", DataType::Int32)
            .output("s")
            .build()
            .unwrap();
        let mut values = vec![3.0; 36];
        if let Some(cell) = zero_at {
            values[cell] = 0.0;
        }
        let grid = Grid::from_values_typed(&["i", "j"], &[4, 9], DataType::Int32, &values);
        let inputs = BTreeMap::from([("n".to_string(), grid)]);
        assert_rungs_match_interpreter(&program, &inputs, None);
    }

    // `serve_daemon.rs`'s `int_feedback`, stepped: from k = 5 it never
    // divides by zero, from k = 2 its second step does.
    let program = int_feedback();
    for k in [5.0, 2.0] {
        let grid = Grid::from_fn(&["i", "j"], &[6, 5], DataType::Int32, |_| k);
        let inputs = BTreeMap::from([("k".to_string(), grid)]);
        assert_rungs_match_interpreter(&program, &inputs, Some(4));
    }

    // Stepping on unpairable programs errors exactly like the
    // interpreter, on every tier.
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

/// Two boxed stages, both integer-valued: `k_next = 4 / k - 3 + s - k`
/// with `s = k + 1` (the program of `serve_daemon.rs`).
fn int_feedback() -> StencilProgram {
    StencilProgramBuilder::new("int_feedback", &[6, 5])
        .input("k", DataType::Int32, &["i", "j"])
        .stencil("s", "k[i,j] + 1")
        .output_type("s", DataType::Int32)
        .stencil("k_next", "4 / k[i,j] - 3 + s[i,j] - k[i,j]")
        .output_type("k_next", DataType::Int32)
        .output("k_next")
        .build()
        .unwrap()
}

#[test]
fn the_first_failing_stage_in_topological_order_is_reported() {
    // Both live stages divide by zero: `a` only at plane 6, `b` — after
    // `a` in topological order, and trailing it by no plane — already at
    // plane 0, so the wavefront meets `b`'s failure first. The interpreter
    // sweeps `a` whole before `b` starts, and so reports `a`.
    let program = StencilProgramBuilder::new("two_failures", &[8, 6])
        .input("n", DataType::Int32, &["i", "j"])
        .input("m", DataType::Int32, &["i", "j"])
        .stencil("a", "7 / n[i,j]")
        .output_type("a", DataType::Int32)
        .stencil("b", "a[i,j] + 5 / m[i,j]")
        .output_type("b", DataType::Int32)
        .output("b")
        .build()
        .unwrap();
    let grid = |zero_plane: usize| {
        Grid::from_fn(&["i", "j"], &[8, 6], DataType::Int32, |ix| {
            if ix[0] == zero_plane {
                0.0
            } else {
                3.0
            }
        })
    };
    let inputs = BTreeMap::from([("n".to_string(), grid(6)), ("m".to_string(), grid(0))]);
    let interpreted = ReferenceExecutor::new()
        .run_interpreted(&program, &inputs)
        .unwrap_err();
    match &interpreted {
        ProgramError::Code {
            stencil,
            source: ExprError::Arithmetic { .. },
        } => assert_eq!(stencil, "a"),
        other => panic!("expected `a`'s arithmetic error, got {other:?}"),
    }
    assert_rungs_match_interpreter(&program, &inputs, None);
    let executor = ReferenceExecutor::new().with_fusion_tile_rows(1);
    assert_eq!(executor.run(&program, &inputs).unwrap_err(), interpreted);
    // Every buffer the failed runs drew went back.
    let misses = executor.pool_miss_count();
    executor.run(&program, &inputs).unwrap_err();
    assert_eq!(executor.pool_miss_count(), misses);
}

/// Programs whose stages read a field out of domain under a value its pads
/// do not hold — a `Copy` boundary, or a constant another reader of the
/// field does not share — so the edge pass re-evaluates their edges.
fn edge_programs() -> Vec<StencilProgram> {
    let copy = BoundaryCondition::Copy;
    let constant = BoundaryCondition::Constant;
    let build = |builder: StencilProgramBuilder| builder.build().unwrap();
    vec![
        build(
            StencilProgramBuilder::new("copy1d", &[9])
                .input("a", DataType::Float32, &["i"])
                .stencil("s", "a[i-1] + 2.0 * a[i+2]")
                .boundary("s", "a", copy)
                .output("s"),
        ),
        build(
            StencilProgramBuilder::new("copy2d", &[6, 8])
                .input("a", DataType::Float32, &["i", "j"])
                .stencil("s", "a[i-1,j] + a[i+1,j]")
                .boundary("s", "a", copy)
                .output("s"),
        ),
        build(
            StencilProgramBuilder::new("copy3d", &[5, 4, 9])
                .input("u", DataType::Float32, &["i", "j", "k"])
                .stencil("s", "u[i-1,j,k] * 0.5 + u[i,j+1,k-2] - u[i+1,j-1,k+1]")
                .boundary("s", "u", copy)
                .stencil("t", "s[i,j,k-1] + s[i-1,j,k] * u[i,j,k]")
                .boundary("t", "s", copy)
                .output_type("t", DataType::Float64)
                .output("t"),
        ),
        // Radius larger than the extent: no cell is clean.
        build(
            StencilProgramBuilder::new("wide_radius", &[3, 4])
                .input("a", DataType::Float32, &["i", "j"])
                .stencil("s", "a[i-4,j] + a[i,j+5] * 0.5")
                .boundary("s", "a", copy)
                .stencil("b", "a[i+3,j-6] - a[i,j]")
                .boundary("b", "a", constant(7.0))
                .output("s")
                .output("b"),
        ),
        // Lower-rank inputs under `Copy`: a row broadcast, a column that
        // misses the innermost axis (replicated), and a plane face.
        build(
            StencilProgramBuilder::new("copy_lower_rank", &[5, 6, 7])
                .input("u", DataType::Float32, &["i", "j", "k"])
                .input("row", DataType::Float64, &["j"])
                .input("col", DataType::Float32, &["i"])
                .input("face", DataType::Float32, &["i", "k"])
                .stencil("s", "u[i,j,k] * row[j-1] + col[i+1] - face[i-1,k+2]")
                .boundary("s", "row", copy)
                .boundary("s", "col", copy)
                .boundary("s", "face", copy)
                .output("s"),
        ),
        build(
            StencilProgramBuilder::new("copy_shrink", &[7, 9])
                .input("a", DataType::Float32, &["i", "j"])
                .stencil("s", "a[i-1,j] + a[i,j+2]")
                .boundary("s", "a", copy)
                .shrink("s")
                .output("s"),
        ),
        // Forward-only plane taps: the centre plane a `Copy` reads is one
        // no tap reaches, and must still be resident in the ring.
        build(
            StencilProgramBuilder::new("forward_copy", &[8, 6])
                .input("u", DataType::Float32, &["i", "j"])
                .stencil("s", "u[i+1,j] + u[i+2,j] * 0.5")
                .boundary("s", "u", copy)
                .stencil("t", "s[i+1,j-1] * s[i+3,j]")
                .boundary("t", "s", copy)
                .output("t"),
        ),
        build(
            StencilProgramBuilder::new("forward_copy3d", &[6, 3, 5])
                .input("u", DataType::Float64, &["i", "j", "k"])
                .stencil("s", "u[i+2,j,k-1] - u[i+1,j+1,k]")
                .boundary("s", "u", copy)
                .output("s"),
        ),
        build(
            StencilProgramBuilder::new("conflict", &[6, 8])
                .input("a", DataType::Float32, &["i", "j"])
                .stencil("s", "a[i-1,j] + a[i+1,j]")
                .boundary("s", "a", constant(1.0))
                .stencil("t", "a[i,j-1] + s[i,j]")
                .boundary("t", "a", constant(2.0))
                .output("t"),
        ),
        // Three readers of `u` under three values, two of `s` under two.
        build(
            StencilProgramBuilder::new("conflict_mixed", &[5, 4, 9])
                .input("u", DataType::Float32, &["i", "j", "k"])
                .stencil("s", "u[i-1,j,k+1] * 0.5")
                .boundary("s", "u", constant(1.0))
                .stencil("t", "u[i,j-1,k] + s[i+1,j,k]")
                .boundary("t", "u", constant(2.0))
                .boundary("t", "s", constant(-1.0))
                .stencil("v", "u[i+1,j,k-2] - s[i,j+1,k] * t[i,j,k]")
                .boundary("v", "u", copy)
                .shrink("v")
                .output("v")
                .output("t"),
        ),
    ]
}

#[test]
fn edge_pass_matches_on_copy_boundaries_and_constant_conflicts() {
    for (seed, program) in (400u64..).zip(edge_programs()) {
        let compiled = ReferenceExecutor::new().prepare(&program).unwrap();
        let trace = compiled.tier_trace();
        assert_eq!(trace.reason(), None, "{}", program.name());
        assert_tiers_bit_identical(&program, seed);
    }
}

#[test]
fn edge_pass_matches_across_worker_seams() {
    // Every stage has edge slots: `s0` reads `u` under `Copy` where `s1`
    // reads it under 2.0, `s2` reads `s1` under `Copy` and `s0` under a
    // constant `s1` does not share. Four stages over 64 planes take two
    // workers on a host that has them.
    let program = StencilProgramBuilder::new("edge_seams", &[64, 32, 32])
        .input("u", DataType::Float32, &["i", "j", "k"])
        .stencil("s0", "u[i-1,j,k] + u[i+1,j,k+1]")
        .boundary("s0", "u", BoundaryCondition::Copy)
        .stencil("s1", "s0[i+2,j,k] - u[i,j-1,k]")
        .boundary("s1", "s0", BoundaryCondition::Constant(5.0))
        .boundary("s1", "u", BoundaryCondition::Constant(2.0))
        .stencil("s2", "s1[i-1,j,k] * s0[i,j,k-1]")
        .boundary("s2", "s1", BoundaryCondition::Copy)
        .boundary("s2", "s0", BoundaryCondition::Constant(-3.0))
        .stencil("s3", "s2[i+1,j+1,k] + s1[i,j,k]")
        .shrink("s3")
        .output("s3")
        .build()
        .unwrap();
    let inputs = generate_inputs(&program, 410);
    let interpreted = ReferenceExecutor::new()
        .run_interpreted(&program, &inputs)
        .unwrap();
    for tier in [Tier::Fused, Tier::Jit] {
        for block in [0, 1] {
            for threads in [1, 2] {
                let executor = ReferenceExecutor::new()
                    .with_max_threads(threads)
                    .with_fusion_tile_rows(block);
                let result = run_pinned(&executor, &program, &inputs, None, tier).unwrap();
                let label = format!("{tier} block={block} threads={threads}");
                assert_outputs_match(&program, &label, &result, &interpreted);
                if threads == 1 {
                    assert_no_redundant_compute(&program, &result, 1, &label);
                }
            }
        }
    }
}

#[test]
fn edge_pass_steps_pairs_that_disagree_on_a_constant() {
    // `h_next` reads its state `h` under 1.0 and `g_next` reads `h_next`
    // under 2.0: from the second step on, both read the one ring `h_next`
    // wrote, whose pads hold one of them.
    let conflicting = StencilProgramBuilder::new("conflicting_pair", &[24])
        .input("h", DataType::Float32, &["i"])
        .input("g", DataType::Float32, &["i"])
        .stencil("h_next", "0.5 * (h[i-1] + h[i+1])")
        .boundary("h_next", "h", BoundaryCondition::Constant(1.0))
        .stencil("g_next", "g[i] + h_next[i-1]")
        .boundary("g_next", "h_next", BoundaryCondition::Constant(2.0))
        .output("h_next")
        .output("g_next")
        .build()
        .unwrap();
    // A stepped state read under `Copy`.
    let copy_state = StencilProgramBuilder::new("copy_state", &[9, 7])
        .input("h", DataType::Float64, &["i", "j"])
        .stencil(
            "h_next",
            "0.25 * (h[i-1,j] + h[i+1,j] + h[i,j-1] + h[i,j+1])",
        )
        .boundary("h_next", "h", BoundaryCondition::Copy)
        .output_type("h_next", DataType::Float64)
        .output("h_next")
        .build()
        .unwrap();
    for (seed, program) in [(420, conflicting), (421, copy_state)] {
        let compiled = ReferenceExecutor::new().prepare(&program).unwrap();
        assert_eq!(compiled.tier_trace().reason(), None);
        assert_tier_steps_bit_identical(&program, seed, 5);
    }
}

#[test]
fn inputs_missing_the_innermost_axis_are_replicated_at_copy_in() {
    // Horizontal diffusion's coefficient fields (`crlato[j]`, ...) miss
    // `k`: each value is copied across its row once per run, so the
    // program streams.
    let executor = ReferenceExecutor::new();
    let hd = horizontal_diffusion(&HorizontalDiffusionSpec::small());
    let compiled = executor.prepare(&hd).unwrap();
    assert_eq!(compiled.tier_trace().reason(), None);
    assert_tiers_bit_identical(&hd, 72);

    // Every layout that misses `k`: a column along the plane axis read
    // off-center, a plane-and-row face read at the center (a replicated
    // input is never read in place), a row field read ahead; then the
    // same on a 2-D space.
    let program = StencilProgramBuilder::new("replicated", &[7, 5, 11])
        .input("u", DataType::Float32, &["i", "j", "k"])
        .input("col", DataType::Float64, &["i"])
        .input("face", DataType::Float32, &["i", "j"])
        .input("row", DataType::Float32, &["j"])
        .stencil(
            "out",
            "u[i,j,k-1] * col[i-1] + face[i,j] - row[j+1] * u[i+1,j,k]",
        )
        .output("out")
        .build()
        .unwrap();
    let compiled = executor.prepare(&program).unwrap();
    assert_eq!(compiled.tier_trace().reason(), None);
    assert_tiers_bit_identical(&program, 76);
    let flat = StencilProgramBuilder::new("replicated2d", &[9, 13])
        .input("u", DataType::Float32, &["i", "j"])
        .input("c", DataType::Float32, &["i"])
        .stencil("s", "u[i,j+1] + c[i+2] * u[i-1,j]")
        .boundary("s", "c", BoundaryCondition::Constant(0.5))
        .output("s")
        .build()
        .unwrap();
    assert_tiers_bit_identical(&flat, 77);
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

    // Broadcast buffers come from the same pool and go back to it, and a
    // run rejected at validation takes nothing from it.
    let listing = listing1_with_shape(&[8, 6, 9]);
    let inputs = generate_inputs(&listing, 92);
    let mut missing = inputs.clone();
    missing.remove("a2");
    for tier in [Tier::Fused, Tier::Jit] {
        run_pinned(&executor, &listing, &inputs, None, tier).unwrap();
        let (misses, acquires) = (executor.pool_miss_count(), executor.pool_acquire_count());
        run_pinned(&executor, &listing, &missing, None, tier).unwrap_err();
        assert_eq!(executor.pool_acquire_count(), acquires, "{tier}");
        run_pinned(&executor, &listing, &inputs, None, tier).unwrap();
        assert_eq!(executor.pool_miss_count(), misses, "{tier}");
        assert!(executor.pool_acquire_count() > acquires, "{tier}");
    }
}

#[test]
fn fused_parallel_tiling_matches_sequential() {
    // Big enough to cross the parallel threshold; disjoint output slabs
    // must compose to the identical grid, and the only cells computed
    // twice are the chunk dilation at the one seam between two workers.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let plane = 32 * 32;
    // (program, steps, planes recomputed at a seam): two chained sweeps
    // dilate the first by one plane on each side of the seam; a window of
    // `w` single-sweep steps dilates step `t` by `w - t` on each side,
    // `w (w - 1)` planes per window, here two windows of four steps.
    let cases = [
        (jacobi3d(2, &[64, 32, 32], 1), None, 2),
        (jacobi3d(1, &[64, 32, 32], 1), Some(8), 2 * 4 * 3),
    ];
    for (program, steps, seam_planes) in cases {
        let inputs = generate_inputs(&program, 101);
        for tier in [Tier::Fused, Tier::Jit] {
            let sequential = ReferenceExecutor::new().with_max_threads(1);
            let sequential = run_pinned(&sequential, &program, &inputs, steps, tier).unwrap();
            let parallel = ReferenceExecutor::new().with_max_threads(2);
            let parallel = run_pinned(&parallel, &program, &inputs, steps, tier).unwrap();
            assert_outputs_match(
                &program,
                &format!("{tier} parallel"),
                &parallel,
                &sequential,
            );
            assert_eq!(
                parallel.cells_evaluated(),
                sequential.cells_evaluated() + (workers - 1) * seam_planes * plane,
                "{tier} steps={steps:?}: seam recompute"
            );
        }
    }
}

/// What rings add over tiles, each against the interpreter on every tier
/// and block height, with the exact evaluation count.
#[test]
fn rings_match_on_lags_depths_and_extents() {
    // A reconvergent DAG whose two paths have different lags: `b` is read
    // three planes ahead and `a` two behind, so `a`'s ring is a delay
    // buffer five planes deep — deeper than any single stencil's reach.
    let reconvergent = |shape: &[usize]| {
        StencilProgramBuilder::new("reconvergent", shape)
            .input("u", DataType::Float32, &["i", "j", "k"])
            .stencil("a", "u[i,j,k] * 2.0 + u[i,j-1,k]")
            .stencil("b", "u[i,j,k] + u[i+1,j,k+1]")
            .stencil("c", "a[i-2,j,k] - b[i+3,j,k] + u[i,j,k]")
            .boundary("c", "a", BoundaryCondition::Constant(-1.0))
            .boundary("c", "b", BoundaryCondition::Constant(4.0))
            .stencil("d", "c[i,j,k] + c[i-1,j,k+1] * u[i,j,k]")
            .shrink("d")
            .output("d")
            .output("c")
            .build()
            .unwrap()
    };
    // One-sided stencils: a tap set that never looks back (depth is the
    // block alone) or never looks ahead (lag 0 on its producer).
    let one_sided = |shape: &[usize]| {
        StencilProgramBuilder::new("one_sided", shape)
            .input("u", DataType::Float64, &["i", "j"])
            .stencil("ahead", "u[i,j] + u[i+2,j+1]")
            .stencil("behind", "ahead[i,j] - ahead[i-1,j]")
            .stencil("far", "behind[i+1,j] * behind[i+3,j-1]")
            .shrink("far")
            .output("far")
            .build()
            .unwrap()
    };
    // Outermost extent 1, 2 and prime; rings deeper than the extent; and
    // (at blocks 2 and 3) blocks that wrap their rings.
    for (extent, seed) in [(1usize, 200u64), (2, 201), (7, 202), (13, 203)] {
        for program in [reconvergent(&[extent, 4, 9]), one_sided(&[extent, 11])] {
            assert_tiers_bit_identical(&program, seed);
        }
    }
}

#[test]
fn rings_match_on_random_dags() {
    // The shared generator, one plane per tick. Its lower-rank `coef`
    // streams as a broadcast tap (replicated along the innermost axis if
    // it misses it); copy boundaries and conflicting constants take the
    // edge pass. The count pins how many seeds the JIT rung takes, so the
    // loop cannot silently go back to comparing the fallback with itself.
    let mut native = 0;
    for seed in 0..64u64 {
        let program = random_dag(seed);
        let inputs = generate_inputs(&program, seed);
        let executor = ReferenceExecutor::new().with_fusion_tile_rows(1);
        let compiled = executor.prepare(&program).unwrap();
        native += usize::from(compiled.tier_trace().reason().is_none());
        let interpreted = executor.run_interpreted(&program, &inputs).unwrap();
        for tier in [Tier::Fused, Tier::Jit] {
            let result = run_pinned(&executor, &program, &inputs, None, tier).unwrap();
            let label = format!("{tier} seed={seed}");
            assert_outputs_match(&program, &label, &result, &interpreted);
            assert_no_redundant_compute(&program, &result, 1, &label);
        }
    }
    assert_eq!(native, 64, "random_dag seeds on the JIT tier");
    // The same shapes made fusible: full-rank inputs, constant or shrink
    // boundaries, plane offsets in -3..=3, reconvergent reads.
    let mut native = 0;
    for seed in 0..64u64 {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let shape = [
            1 + next(9) as usize,
            1 + next(4) as usize,
            3 + next(9) as usize,
        ];
        let dtype = [DataType::Float32, DataType::Float64][next(2) as usize];
        let mut builder = StencilProgramBuilder::new("random_fusible", &shape)
            .input("src", dtype, &["i", "j", "k"])
            .input("aux", DataType::Float32, &["i", "j", "k"]);
        let mut produced = vec!["src".to_string(), "aux".to_string()];
        let stages = 1 + next(6) as usize;
        for stage in 0..stages {
            let name = format!("s{stage}");
            let a =
                produced[produced.len() - 1 - next(2.min(produced.len() as u64)) as usize].clone();
            let b = produced[next(produced.len() as u64) as usize].clone();
            let (di, dj, dk) = (next(7) as i64 - 3, next(3) as i64 - 1, next(5) as i64 - 2);
            let code = format!(
                "0.5 * {a}[i{di:+},j,k{dk:+}] + 0.25 * {a}[i,j{dj:+},k] - 0.125 * {b}[i{:+},j,k]",
                next(5) as i64 - 2
            );
            builder = builder.stencil(&name, &code);
            if next(3) == 0 {
                builder = builder.shrink(&name);
            }
            if next(4) == 0 {
                builder = builder.output_type(&name, DataType::Float64);
            }
            produced.push(name);
        }
        builder = builder.output(&produced[produced.len() - 1]);
        if stages > 2 && next(3) == 0 {
            builder = builder.output(&produced[2 + next(stages as u64 - 1) as usize]);
        }
        let program = builder.build().unwrap();
        let compiled = ReferenceExecutor::new().prepare(&program).unwrap();
        native += usize::from(compiled.tier_trace().reason().is_none());
        assert_tiers_bit_identical(&program, seed);
    }
    assert_eq!(
        native, 64,
        "the fusible generator must stay native-eligible"
    );
}

#[test]
fn rings_match_through_the_pooled_service() {
    // Pooled results, pooled rings, and rings too large for the scratch
    // budget (so the default block height streams the domain in many
    // ticks), stepped across a window that does not divide the step
    // count; the second job of each tier runs in recycled buffers.
    let program = Arc::new(jacobi3d_typed(1, &[40, 64, 64], 1, DataType::Float64));
    let inputs = Arc::new(generate_inputs(&program, 301));
    let baseline = ReferenceExecutor::new()
        .run_steps(&program, &inputs, 6)
        .unwrap();
    let serve = ServeExecutor::new(ServeConfig::new().with_workers(1));
    for tier in [Tier::Fused, Tier::Jit] {
        for round in 0..2 {
            let job = JobSpec::new(Arc::clone(&program), Arc::clone(&inputs))
                .with_steps(6)
                .with_tier(tier);
            let result = serve.run_one(job).result.unwrap();
            assert_outputs_match(
                &program,
                &format!("{tier} pooled round {round}"),
                &result,
                &baseline,
            );
            assert_eq!(result.cells_evaluated(), 6 * program.space().num_cells());
            serve.recycle(result);
        }
    }
}

#[test]
fn unpinned_runs_land_on_the_highest_rung_bit_identically() {
    // An unpinned run asks for the JIT rung and lands on the highest rung
    // its program allows: an `int` output keeps the JIT rung off, so the
    // program runs fused. Single and stepped alike, nothing is timed.
    let program = StencilProgramBuilder::new("int_output", &[14, 11])
        .input("u", DataType::Float32, &["i", "j"])
        .stencil("v", "u[i-1,j] + 0.5 * u[i,j+1]")
        .output_type("v", DataType::Int32)
        .output("v")
        .build()
        .unwrap();
    let jacobi = jacobi2d(2, &[14, 11], 1);
    let executor = ReferenceExecutor::new();
    let jit = stencilflow_reference::jit_available().map_or(Tier::Fused, |_| Tier::Jit);
    for (program, steps, rung) in [
        (&program, None, Tier::Fused),
        (&jacobi, None, jit),
        (&jacobi, Some(4), jit),
    ] {
        let inputs = generate_inputs(program, 111);
        let baseline = match steps {
            Some(steps) => executor.run_steps(program, &inputs, steps),
            None => executor.run_interpreted(program, &inputs),
        }
        .unwrap();
        let compiled = executor.prepare(program).unwrap();
        let spec = RunSpec {
            steps,
            tier: Tier::Jit,
        };
        let (result, ran) = executor.execute(&compiled, &inputs, &spec).unwrap();
        assert_eq!(ran, rung, "{} steps={steps:?}", program.name());
        assert_outputs_match(program, "unpinned", &result, &baseline);
    }
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

/// What the wavefront over horizontal diffusion's DAG holds: the lag and
/// ring recurrence of `fuse.rs`, evaluated on the program's access
/// footprints. Printed (`--nocapture`) and pinned.
#[test]
fn hdiff_wavefront_lags_and_depths() {
    use stencilflow_program::AccessFootprints;
    let program = horizontal_diffusion(&HorizontalDiffusionSpec::small());
    let footprints = AccessFootprints::of_program(&program);
    let mut lag: BTreeMap<&str, i64> = BTreeMap::new();
    let mut reach: BTreeMap<&str, i64> = BTreeMap::new();
    let order = program.topological_nodes().unwrap();
    let stencils: Vec<_> = order
        .iter()
        .filter_map(|&n| program.stencil_at(n))
        .collect();
    for stencil in &stencils {
        let taps: Vec<(&str, i64, i64)> = footprints
            .edges()
            .filter(|(consumer, _, _)| *consumer == stencil.name)
            .map(|(_, field, extent)| (field, extent[0].0, extent[0].1))
            .collect();
        let own = taps
            .iter()
            .map(|&(field, _, hi)| lag.get(field).copied().unwrap_or(0) + hi.max(0))
            .max()
            .unwrap_or(0);
        for &(field, lo, _) in &taps {
            let behind = own - lag.get(field).copied().unwrap_or(0) + (-lo).max(0);
            let entry = reach.entry(field).or_insert(0);
            *entry = (*entry).max(behind);
        }
        lag.insert(&stencil.name, own);
    }
    // Lower-rank parameter fields would be broadcast, not ringed.
    let rank = program.space().rank();
    reach.retain(|field, _| program.input(field).is_none_or(|decl| decl.rank() == rank));
    println!("{:<12} {:>4} {:>6}", "field", "lag", "depth");
    for (field, behind) in &reach {
        let own = lag.get(field).copied().unwrap_or(0);
        println!("{field:<12} {own:>4} {:>6}", behind + 1);
    }
    let planes: i64 = reach.values().map(|behind| behind + 1).sum();
    let max_lag = *lag.values().max().unwrap();
    let deepest = *reach.values().max().unwrap() + 1;
    println!(
        "{} stages, {} ring-held fields, max lag {max_lag}, deepest ring {deepest}, \
         {planes} planes in all at one plane per tick",
        stencils.len(),
        reach.len(),
    );
    assert_eq!(stencils.len(), 24);
    assert_eq!((max_lag, deepest, planes), (4, 5, 57));
}
