//! Golden equivalence: the compiled-plan executor must agree **bit for bit**
//! with the tree-walking evaluator on every workload program and on randomly
//! generated stencil DAGs with varied boundary conditions.

use std::collections::BTreeMap;
use stencilflow_expr::DataType;
use stencilflow_program::{BoundaryCondition, StencilProgram, StencilProgramBuilder};
use stencilflow_reference::{generate_inputs, Grid, ReferenceExecutor};
use stencilflow_workloads::{
    chain_program, diffusion2d, diffusion3d, horizontal_diffusion, jacobi2d, jacobi3d,
    listing1::listing1_with_shape, random_dag, upwind3d, upwind3d_typed, ChainSpec,
    HorizontalDiffusionSpec,
};

/// Run the default compiled sweep and the tree-walking interpreter and
/// require identical bits everywhere: every field (inputs included in the
/// comparison domain via the program outputs), every validity mask, and the
/// evaluation counters. Each stencil sweeps on the kernel its own expression
/// compiles to; that the `Value` kernel and the typed kernel of one
/// expression agree, one cell at a time and in lanes, is pinned where the
/// kernels live (`stencilflow-workloads`'
/// `kernel_tiers_agree_on_the_analyze_suite`).
fn assert_bit_identical(program: &StencilProgram, seed: u64) {
    let inputs = generate_inputs(program, seed);
    let executor = ReferenceExecutor::new();
    let compiled = executor.run(program, &inputs).unwrap();
    let interpreted = executor.run_interpreted(program, &inputs).unwrap();

    assert_eq!(compiled.cells_evaluated(), interpreted.cells_evaluated());
    let compiled_fields: Vec<&str> = compiled.fields().map(|(name, _)| name).collect();
    let interpreted_fields: Vec<&str> = interpreted.fields().map(|(name, _)| name).collect();
    assert_eq!(compiled_fields, interpreted_fields);

    for (name, grid) in compiled.fields() {
        let baseline = interpreted.field(name).unwrap();
        assert_eq!(
            grid.shape(),
            baseline.shape(),
            "shape mismatch for `{name}`"
        );
        for (cell, (a, b)) in grid.as_slice().iter().zip(baseline.as_slice()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "program `{}`, field `{name}`, cell {cell}: compiled {a:?} != interpreted {b:?}",
                program.name()
            );
        }
        assert_eq!(
            compiled.valid_mask(name).unwrap(),
            interpreted.valid_mask(name).unwrap(),
            "mask mismatch for `{name}` in `{}`",
            program.name()
        );
        assert_eq!(compiled.valid_count(name), interpreted.valid_count(name));
    }
}

/// Kernels that sweep cell by cell on the boxed `Value` kernel by rule, over
/// a 2-D `f32` field `u`: an integer literal, and a `Bool + Bool` sum.
const BOXED_BY_RULE: [&str; 2] = [
    "1 * u[i,j-2] + u[i-1,j] * u[i,j+2]",
    "(u[i,j-2] > 0.0) + (u[i,j+2] > u[i-1,j])",
];

/// Kernels that reach the lanes by a rule of their own, over `u` and its
/// transpose `t`, with the stencil's output type. A mixed-width join with a
/// division in an arm keeps its jumps in the `Value` bytecode;
/// specialization speculates the division, so the join is a select with a
/// runtime width flag — unread in tail position, read by the product in the
/// second form. A tap that strides the innermost dimension gathers lane by
/// lane.
const LANE_BY_RULE: [(&str, DataType); 4] = [
    (
        "u[i,j] > 0.5 ? 1.0 / u[i-1,j] : u[i,j+2]",
        DataType::Float32,
    ),
    (
        "(u[i,j] > 0.5 ? 1.0 / u[i-1,j] : u[i,j+2]) * u[i,j-2]",
        DataType::Float32,
    ),
    (
        "(u[i,j] > 0.5 ? 1.0 / u[i-1,j] : u[i,j+2]) * u[i,j-2]",
        DataType::Float64,
    ),
    ("t[j-1,i] + u[i,j-2] * u[i+1,j+2]", DataType::Float32),
];

/// One-stencil programs around every [`BOXED_BY_RULE`] and [`LANE_BY_RULE`]
/// entry, each checked to land on the kernel form it is meant to.
fn by_rule_programs(
    shape: [usize; 2],
    boundary: BoundaryCondition,
    shrink: bool,
) -> Vec<StencilProgram> {
    let boxed = BOXED_BY_RULE.map(|expr| (expr, DataType::Float32, 0));
    let lanes = LANE_BY_RULE.map(|(expr, out)| (expr, out, 1));
    boxed
        .into_iter()
        .chain(lanes)
        .map(|(expr, out, typed)| {
            let mut builder = StencilProgramBuilder::new("by_rule", &shape)
                .input("u", DataType::Float32, &["i", "j"])
                .input("t", DataType::Float32, &["j", "i"])
                .stencil("s", expr)
                .boundary("s", "u", boundary)
                .output_type("s", out)
                .output("s");
            if expr.contains("t[") {
                builder = builder.boundary("s", "t", boundary);
            }
            if shrink {
                builder = builder.shrink("s");
            }
            let program = builder.build().unwrap();
            let compiled = ReferenceExecutor::new().prepare(&program).unwrap();
            assert_eq!(compiled.typed_stencil_count(), typed, "{expr}");
            program
        })
        .collect()
}

#[test]
fn jacobi_workloads_match_bitwise() {
    assert_bit_identical(&jacobi2d(2, &[13, 9], 1), 1);
    assert_bit_identical(&jacobi3d(2, &[9, 7, 11], 1), 2);
}

#[test]
fn diffusion_workloads_match_bitwise() {
    assert_bit_identical(&diffusion2d(2, &[12, 10], 1), 3);
    assert_bit_identical(&diffusion3d(2, &[7, 6, 9], 1), 4);
}

#[test]
fn horizontal_diffusion_matches_bitwise() {
    assert_bit_identical(&horizontal_diffusion(&HorizontalDiffusionSpec::small()), 5);
}

#[test]
fn horizontal_diffusion_runs_entirely_on_typed_lane_kernels() {
    // Half of the 24 stencils join an f64 literal with an f32 arm in their
    // limiter ternaries; all of them specialize, branch-free, so no sweep
    // of the paper's application is left on the boxed `Value` path.
    let program = horizontal_diffusion(&HorizontalDiffusionSpec::bench());
    let compiled = ReferenceExecutor::new().prepare(&program).unwrap();
    assert_eq!(compiled.stencil_count(), 24);
    assert_eq!(compiled.typed_stencil_count(), 24);
}

#[test]
fn chain_and_listing1_match_bitwise() {
    let chain = chain_program(&ChainSpec::new(6, 8).with_shape(&[6, 5, 7]));
    assert_bit_identical(&chain, 6);
    assert_bit_identical(&listing1_with_shape(&[6, 7, 5]), 7);
}

#[test]
fn parallel_sweep_is_bit_identical_to_sequential() {
    // Big enough to cross the parallel threshold (2^15 cells).
    let program = jacobi3d(1, &[40, 32, 32], 1);
    let inputs = generate_inputs(&program, 8);
    let parallel = ReferenceExecutor::new().run(&program, &inputs).unwrap();
    let sequential = ReferenceExecutor::new()
        .with_max_threads(1)
        .run(&program, &inputs)
        .unwrap();
    assert_bit_identical(&program, 8);
    for (name, grid) in parallel.fields() {
        let baseline = sequential.field(name).unwrap();
        for (a, b) in grid.as_slice().iter().zip(baseline.as_slice().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn boundary_condition_variety_matches_bitwise() {
    // Exercise constant / copy boundaries, shrink masks, lower-dimensional
    // and scalar inputs, ternaries, math functions, and f64 output types in
    // one DAG — the halo paths of the plan must mirror the evaluator.
    let program = StencilProgramBuilder::new("boundaries", &[9, 8, 7])
        .input("u", DataType::Float32, &["i", "j", "k"])
        .input("surf", DataType::Float32, &["i", "k"])
        .scalar("dt", DataType::Float32)
        .stencil(
            "lap",
            "-4.0*u[i,j,k] + u[i-1,j,k] + u[i+1,j,k] + u[i,j-1,k] + u[i,j+1,k]",
        )
        .boundary("lap", "u", BoundaryCondition::Constant(1.5))
        .stencil("flux", "d = lap[i,j,k] - lap[i,j,k-1]; d * surf[i,k] + dt")
        .boundary("flux", "lap", BoundaryCondition::Copy)
        .shrink("flux")
        .stencil(
            "out",
            "flux[i,j,k] > 0.0 ? sqrt(abs(flux[i,j,k])) : min(flux[i-2,j,k], 0.5)",
        )
        .shrink("out")
        .output_type("out", DataType::Float64)
        .output("out")
        .build()
        .unwrap();
    assert_bit_identical(&program, 9);

    // The same halo paths through the kernels that are boxed by rule and
    // the ones that reach the lanes by speculation or a strided gather.
    for boundary in [BoundaryCondition::Constant(1.5), BoundaryCondition::Copy] {
        for shrink in [false, true] {
            for program in by_rule_programs([6, 11], boundary, shrink) {
                assert_bit_identical(&program, 10);
            }
        }
    }
}

#[test]
fn copy_boundaries_on_full_rank_fields_match_bitwise() {
    // The compiled halo path reads the center cell unchecked for `copy`
    // boundaries; pin it bitwise against the interpreter on every edge and
    // corner of a 3-D domain, for f32 and f64 output types.
    let program = StencilProgramBuilder::new("copy3d", &[5, 4, 6])
        .input("u", DataType::Float32, &["i", "j", "k"])
        .stencil(
            "s",
            "u[i-1,j,k] + u[i+1,j,k] + u[i,j-2,k] + u[i,j+2,k] + u[i,j,k-1] + u[i,j,k+1]",
        )
        .boundary("s", "u", BoundaryCondition::Copy)
        .stencil("t", "0.5 * s[i-2,j-1,k-2] + 0.25 * s[i+2,j+1,k+2]")
        .boundary("t", "s", BoundaryCondition::Copy)
        .output_type("t", DataType::Float64)
        .output("t")
        .build()
        .unwrap();
    assert_bit_identical(&program, 21);
}

#[test]
fn copy_boundaries_on_lower_dimensional_fields_match_bitwise() {
    // Copy boundaries on fields that span only a subset of the iteration
    // space: the center read must land in the field's own storage.
    let program = StencilProgramBuilder::new("copy_lowdim", &[6, 5, 7])
        .input("u", DataType::Float32, &["i", "j", "k"])
        .input("surf", DataType::Float32, &["i", "k"])
        .input("col", DataType::Float64, &["j"])
        .stencil("s", "u[i,j,k] + surf[i-2,k+1] * 0.5 + col[j-1]")
        .boundary("s", "surf", BoundaryCondition::Copy)
        .boundary("s", "col", BoundaryCondition::Copy)
        .shrink("s")
        .output("s")
        .build()
        .unwrap();
    assert_bit_identical(&program, 22);

    // One-dimensional domain: every cell is halo in some access.
    let program = StencilProgramBuilder::new("copy1d", &[5])
        .input("a", DataType::Float32, &["i"])
        .stencil("s", "a[i-3] + a[i+3]")
        .boundary("s", "a", BoundaryCondition::Copy)
        .output("s")
        .build()
        .unwrap();
    assert_bit_identical(&program, 23);
}

#[test]
fn run_steps_matches_interpreted_ping_pong_bitwise() {
    let program = jacobi2d(1, &[9, 8], 1);
    let inputs = generate_inputs(&program, 31);
    let executor = ReferenceExecutor::new();
    let stepped = executor.run_steps(&program, &inputs, 4).unwrap();

    // Interpreted ping-pong: feed the output back by hand.
    let mut work = inputs.clone();
    let mut last = None;
    for _ in 0..4 {
        let result = executor.run_interpreted(&program, &work).unwrap();
        work.insert("f0".to_string(), result.field("f1").unwrap().clone());
        last = Some(result);
    }
    let manual = last.unwrap();
    for (a, b) in stepped
        .field("f1")
        .unwrap()
        .as_slice()
        .iter()
        .zip(manual.field("f1").unwrap().as_slice())
    {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(
        stepped.valid_mask("f1").unwrap(),
        manual.valid_mask("f1").unwrap()
    );
}

#[test]
fn random_small_dags_match_bitwise() {
    // Deterministic pseudo-random DAG sweep in the spirit of the
    // cross-crate property tests: 2-D and 3-D domains, every stage reads
    // earlier fields (and sometimes a lower-rank input) at small offsets
    // with a mix of boundary conditions and element types.
    for seed in 0..48u64 {
        assert_bit_identical(&random_dag(seed), seed);
    }
}

#[test]
fn wide_lane_dispatch_is_bit_identical_and_engages_on_f32() {
    // The width-aware lane dispatch: all-f32 kernels on long rows batch
    // 16 wide, f64 kernels and short rows keep the default width — and
    // every width produces identical bits (a lane computes the same ops
    // regardless of how cells are grouped into batches).
    let executor = ReferenceExecutor::new();
    let f32_long = jacobi3d(2, &[20, 10, 64], 1);
    let compiled = executor.prepare(&f32_long).unwrap();
    assert_eq!(compiled.wide_lane_stencil_count(), compiled.stencil_count());
    let f64_long = stencilflow_workloads::jacobi3d_typed(2, &[20, 10, 64], 1, DataType::Float64);
    let compiled = executor.prepare(&f64_long).unwrap();
    assert_eq!(compiled.wide_lane_stencil_count(), 0);
    assert_eq!(compiled.typed_stencil_count(), compiled.stencil_count());
    let f32_short = jacobi3d(2, &[20, 20, 32], 1);
    let compiled = executor.prepare(&f32_short).unwrap();
    assert_eq!(compiled.wide_lane_stencil_count(), 0);

    for (program, seed) in [(&f32_long, 91u64), (&f64_long, 92), (&f32_short, 93)] {
        assert_bit_identical(program, seed);
    }

    // Odd row lengths drive the wide mixed-batch and remainder paths; the
    // all-f32 by-rule kernels take the strided gather there 16 wide.
    for width in [64usize, 65, 71, 79] {
        assert_bit_identical(&jacobi3d(1, &[6, 5, width], 1), 94 + width as u64);
    }
    for program in by_rule_programs([5, 71], BoundaryCondition::Copy, false) {
        assert_bit_identical(&program, 99);
    }
}

#[test]
fn lane_batched_sweep_is_engaged_on_jacobi() {
    // The lane tier must actually dispatch (not silently fall back to the
    // boxed `Value` kernel) on the flagship workloads.
    let executor = ReferenceExecutor::new();
    let jacobi = executor.prepare(&jacobi3d(2, &[16, 16, 16], 1)).unwrap();
    assert_eq!(jacobi.typed_stencil_count(), jacobi.stencil_count());
    let diffusion = executor.prepare(&diffusion2d(2, &[16, 16], 1)).unwrap();
    assert_eq!(diffusion.typed_stencil_count(), diffusion.stencil_count());
}

#[test]
fn branchy_upwind_matches_bitwise_and_lane_batches() {
    // The branchy workload: data-dependent ternaries that only lane-batch
    // because the if-conversion pass lowers their diamonds to selects.
    // The sweep must agree bitwise with the interpreter, and the lane tier
    // must actually engage.
    for dtype in [DataType::Float32, DataType::Float64] {
        let program = upwind3d_typed(2, &[7, 9, 11], 1, dtype);
        assert_bit_identical(&program, 61);
        let executor = ReferenceExecutor::new();
        let compiled = executor.prepare(&program).unwrap();
        assert_eq!(
            compiled.typed_stencil_count(),
            compiled.stencil_count(),
            "if-converted upwind kernels must dispatch to the lane tier"
        );
    }
}

#[test]
fn branchy_upwind_matches_on_remainder_widths() {
    // Innermost extents straddling the lane width, exercising the halo
    // lane path and the partial row-remainder batch on a select-carrying
    // kernel.
    for width in [1usize, 2, 3, 7, 8, 9, 11, 16, 20] {
        let program = upwind3d(1, &[4, 5, width], 1);
        assert_bit_identical(&program, 70 + width as u64);
    }
}

#[test]
fn halo_lane_path_matches_on_wide_halos() {
    // Deep halos on both ends of the innermost dimension with mixed
    // boundary conditions: whole batches land in the halo (and in the
    // halo/interior transition), driving the lane-batched halo gather.
    let program = StencilProgramBuilder::new("deep_halo", &[5, 24])
        .input("a", DataType::Float32, &["i", "j"])
        .input("b", DataType::Float32, &["i", "j"])
        .stencil(
            "s",
            "x = a[i,j-9] + a[i,j+9] + b[i-1,j]; x > 0.0 ? x * b[i,j] : a[i,j]",
        )
        .boundary("s", "a", BoundaryCondition::Constant(0.75))
        .boundary("s", "b", BoundaryCondition::Copy)
        .shrink("s")
        .output("s")
        .build()
        .unwrap();
    assert_bit_identical(&program, 83);
}

#[test]
fn lane_batched_matches_scalar_typed_on_remainder_widths() {
    // Innermost extents straddling the lane width (KERNEL_LANES = 8):
    // shorter than one batch, exactly one batch, and batch + remainder —
    // every cell of every width must match the interpreter bitwise, for
    // f32 (per-op rounding) and f64 workloads, and so must the by-rule
    // kernels: boxed ones cell by cell, a strided gather and a speculated
    // division in partial batches.
    for width in 1usize..=20 {
        for dtype in [DataType::Float32, DataType::Float64] {
            let program = StencilProgramBuilder::new("lane_rem", &[5, width])
                .input("u", dtype, &["i", "j"])
                .stencil(
                    "s",
                    "0.2 * (u[i,j] + u[i-1,j] + u[i+1,j] + u[i,j-1] + u[i,j+1])",
                )
                .boundary("s", "u", BoundaryCondition::Constant(0.25))
                .stencil("t", "sqrt(abs(s[i,j-2])) + s[i,j] * 0.5")
                .boundary("t", "s", BoundaryCondition::Copy)
                .output_type("t", dtype)
                .output("t")
                .build()
                .unwrap();
            assert_bit_identical(&program, 40 + width as u64);
        }
        for program in by_rule_programs([5, width], BoundaryCondition::Constant(0.25), true) {
            assert_bit_identical(&program, 40 + width as u64);
        }
    }
}

#[test]
fn lane_batched_matches_scalar_typed_on_low_rank_fields() {
    // One-dimensional iteration space: rows are single innermost runs.
    let program = StencilProgramBuilder::new("lane_1d", &[19])
        .input("a", DataType::Float32, &["i"])
        .stencil("s", "0.5 * (a[i-1] + a[i+1]) - a[i]")
        .boundary("s", "a", BoundaryCondition::Copy)
        .output("s")
        .build()
        .unwrap();
    assert_bit_identical(&program, 51);

    // Broadcast slots: `col[i]` does not span the innermost dimension, so
    // its innermost stride is zero and the lane gather broadcasts; `row[j]`
    // spans only the innermost dimension with unit stride.
    let program = StencilProgramBuilder::new("lane_broadcast", &[6, 17])
        .input("u", DataType::Float64, &["i", "j"])
        .input("col", DataType::Float64, &["i"])
        .input("row", DataType::Float64, &["j"])
        .scalar("dt", DataType::Float64)
        .stencil("s", "u[i,j-1] + u[i,j+1] + col[i] * row[j-1] + dt")
        .shrink("s")
        .output("s")
        .build()
        .unwrap();
    assert_bit_identical(&program, 52);
}

#[test]
fn integer_division_by_zero_is_an_error_on_both_paths() {
    // Only the `Value` kernel can fail; the sweep must hand its error up
    // as the interpreter does, from a halo cell (a zero boundary constant)
    // and from an interior cell (a zero in the data).
    let executor = ReferenceExecutor::new();
    for (boundary, zero_at, fails) in [(2.0, None, false), (0.0, None, true), (2.0, Some(13), true)]
    {
        let program = StencilProgramBuilder::new("div0", &[4, 9])
            .input("n", DataType::Int32, &["i", "j"])
            .stencil("s", "7 / n[i,j-1]")
            .boundary("s", "n", BoundaryCondition::Constant(boundary))
            .output_type("s", DataType::Int32)
            .output("s")
            .build()
            .unwrap();
        assert_eq!(executor.prepare(&program).unwrap().typed_stencil_count(), 0);
        let mut values = vec![3.0; 36];
        if let Some(cell) = zero_at {
            values[cell] = 0.0;
        }
        let grid = Grid::from_values_typed(&["i", "j"], &[4, 9], DataType::Int32, &values);
        let inputs = BTreeMap::from([("n".to_string(), grid)]);
        assert_eq!(executor.run(&program, &inputs).is_err(), fails);
        assert_eq!(executor.run_interpreted(&program, &inputs).is_err(), fails);
    }
}

#[test]
fn compiled_path_handles_explicit_grids() {
    // Hand-checked values through the compiled path (not just equivalence).
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
    let result = ReferenceExecutor::new().run(&program, &inputs).unwrap();
    // Zero-constant default boundaries: s = [2, 4, 6, 3].
    assert_eq!(result.field("s").unwrap().as_slice(), &[2.0, 4.0, 6.0, 3.0]);
}
