//! The Tier-4 native backend's own contracts: which programs are
//! JIT-eligible and what the emitted unit contains, the fallback rung,
//! module/pool reuse, and bit-identity to the tree-walking interpreter on
//! the kernels only this suite has (membench, clamp/`fmin` fusion, f32
//! math calls, int outputs). The all-tier loop over the workloads both
//! suites share lives in `fused_equivalence.rs` — it pins `Tier::Jit` on
//! every one of them, and the tests below assert those programs really
//! are eligible, so that leg runs native code rather than the fallback.
//! These tests require a working system `cc` (the CI image guarantees
//! one; `verify.sh` probes for it up front).

mod common;

use common::{
    assert_outputs_match, assert_rungs_match_interpreter, assert_tiers_bit_identical, interpret,
    run_pinned, TIERS,
};
use std::collections::BTreeMap;
use stencilflow_expr::DataType;
use stencilflow_program::{BoundaryCondition, StencilProgram, StencilProgramBuilder};
use stencilflow_reference::{generate_inputs, Grid, Ineligible, ReferenceExecutor, Tier};
use stencilflow_workloads::{
    chain_program, diffusion2d, diffusion3d, horizontal_diffusion, jacobi2d, jacobi3d,
    jacobi3d_typed, listing1::listing1_with_shape, membench_program, upwind3d_typed, ChainSpec,
    HorizontalDiffusionSpec, MembenchSpec,
};

fn assert_eligible(program: &StencilProgram) {
    let compiled = ReferenceExecutor::new().prepare(program).unwrap();
    assert_eq!(
        compiled.tier_trace().reason(),
        None,
        "`{}` should be Tier-4 eligible",
        program.name()
    );
    let source = compiled.jit_source().unwrap();
    assert!(
        source.contains("sf_stage_"),
        "emitted unit must define stage symbols"
    );
}

#[test]
fn cc_is_available_in_the_test_environment() {
    // The whole suite is vacuous without a compiler; fail loudly rather
    // than silently testing the fallback ladder only.
    stencilflow_reference::jit_available().expect("system cc must be available for JIT tests");
}

#[test]
fn jit_matches_on_jacobi_and_diffusion() {
    for program in [
        jacobi2d(2, &[13, 9], 1),
        jacobi3d(2, &[9, 7, 11], 1),
        jacobi3d_typed(2, &[9, 7, 11], 1, DataType::Float64),
        diffusion2d(2, &[12, 10], 1),
        diffusion3d(2, &[7, 6, 9], 1),
    ] {
        assert_eligible(&program);
    }
}

#[test]
fn jit_matches_on_chains_and_membench() {
    let chain = chain_program(&ChainSpec::new(6, 8).with_shape(&[6, 5, 7]));
    assert_eligible(&chain);
    let mem = membench_program(&MembenchSpec::new(8, 1).with_shape(&[16, 8, 8]));
    assert_tiers_bit_identical(&mem, 12);
    // Horizontal diffusion: its coefficients miss `k` and are replicated
    // at copy-in, so it runs native too.
    let hd = horizontal_diffusion(&HorizontalDiffusionSpec::small());
    assert_eligible(&hd);
    assert_tiers_bit_identical(&hd, 13);
}

#[test]
fn stages_sharing_one_body_are_swept_with_their_own_slots() {
    // A reconvergent DAG whose two branches are the same kernel over
    // different producers (a stage's ring, an input's ring) at different
    // outermost offsets: one compiled body runs twice per tick with
    // different slot pointers, ring depths and lags.
    let program = StencilProgramBuilder::new("reconverge", &[11, 6, 9])
        .input("a", DataType::Float32, &["i", "j", "k"])
        .input("b", DataType::Float32, &["i", "j", "k"])
        .stencil("pre", "a[i,j,k] * 2.0 + a[i,j-1,k]")
        .stencil("left", "0.5 * pre[i-2,j,k] + 0.25")
        .stencil("right", "0.5 * b[i+3,j,k] + 0.25")
        .boundary("right", "b", BoundaryCondition::Constant(1.5))
        .stencil("out", "left[i,j,k-1] - right[i+1,j,k]")
        .output("out")
        .build()
        .unwrap();
    assert_eligible(&program);
    let compiled = ReferenceExecutor::new().prepare(&program).unwrap();
    assert_eq!(compiled.jit_stage_census(), Some((4, 3)));
    assert_tiers_bit_identical(&program, 31);

    // A chain is the extreme: every stage one body, every symbol its own —
    // but for the output's store to its `f64` slab (`sf_stage_7_d`): the
    // chain steps, so its output also stores into its `f32` ring.
    let chain = chain_program(&ChainSpec::new(8, 8).with_shape(&[6, 5, 7]));
    let compiled = ReferenceExecutor::new().prepare(&chain).unwrap();
    assert_eq!(compiled.jit_stage_census(), Some((8, 2)));
    let source = compiled.jit_source().unwrap();
    assert_eq!(source.matches("\nSF_STAGE(sf_stage_").count(), 9);
    assert!(source.contains("\nSF_STAGE(sf_stage_7_d, sf_body_1)\n"));
}

#[test]
fn jit_sweeps_broadcast_taps_natively() {
    // Lower-rank inputs that keep the innermost axis reach the native
    // sweep through the same tap ABI, with stride 0 along the axes they
    // miss (`fused_equivalence.rs` runs the all-tier loop and the worker
    // seams over Listing 1 and the other broadcast programs, and asserts
    // they are eligible).
    // Listing 1 is five stages over five distinct bodies: `b0`, `b3` and
    // `b4` are one sum of two taps, but `b0` reads its `f64` grids in
    // place into an `f32` ring, `b3` reads and stores `f32` rings, and
    // `b4` stores to its `f64` slab.
    let listing = listing1_with_shape(&[6, 7, 5]);
    assert_eligible(&listing);
    let compiled = ReferenceExecutor::new().prepare(&listing).unwrap();
    assert_eq!(compiled.jit_stage_census(), Some((5, 5)));
}

#[test]
fn jit_matches_on_branchy_division_and_clamp_kernels() {
    // Upwind kernels are ternary-heavy: typed if-conversion must leave
    // them branch-free, the emitter turns the selects into C ternaries
    // (or fused fmin/fmax), and IEEE special values must round-trip.
    for dtype in [DataType::Float32, DataType::Float64] {
        let program = upwind3d_typed(2, &[7, 9, 11], 1, dtype);
        assert_eligible(&program);
    }
    // Division in a ternary arm: inf/NaN from the unselected arm must
    // match the interpreter bitwise.
    let program = StencilProgramBuilder::new("divsel", &[6, 12])
        .input("a", DataType::Float32, &["i", "j"])
        .input("b", DataType::Float32, &["i", "j"])
        .stencil("s", "b[i,j] > 0.25 ? a[i,j] / b[i,j-1] : a[i-1,j]")
        .shrink("s")
        .output("s")
        .build()
        .unwrap();
    assert_eligible(&program);
    // A clamp the emitter fuses to fmin/fmax, on both element types. The
    // f32 variant joins an F32 slot with the F64 literal in the select
    // arms: it specializes with a runtime-typed result whose flag nobody
    // reads, so the emitter sees the same plain compare-and-select as for
    // f64 and fuses it just the same.
    for (dtype, seed) in [(DataType::Float64, 23), (DataType::Float32, 25)] {
        let clamp = StencilProgramBuilder::new("clamp", &[9, 8])
            .input("a", dtype, &["i", "j"])
            .stencil("s", "a[i,j] < 0.5 ? a[i,j] : 0.5")
            .output_type("s", dtype)
            .output("s")
            .build()
            .unwrap();
        assert_eligible(&clamp);
        let compiled = ReferenceExecutor::new().prepare(&clamp).unwrap();
        assert!(
            compiled.jit_source().unwrap().contains("fmin"),
            "literal-else {dtype} clamp should fuse to fmin in the emitted unit"
        );
        assert_tiers_bit_identical(&clamp, seed);
    }
    // f32 math-call kernel: every store must carry the (double)(float)
    // round wrap, and fmin on exact f32 values round-trips exactly.
    let minf = StencilProgramBuilder::new("minf", &[9, 8])
        .input("a", DataType::Float32, &["i", "j"])
        .stencil("s", "min(a[i,j], a[i,j-1] * 0.75)")
        .output("s")
        .build()
        .unwrap();
    assert_eligible(&minf);
    let compiled = ReferenceExecutor::new().prepare(&minf).unwrap();
    assert!(compiled.jit_source().unwrap().contains("(double)(float)("));
    assert_tiers_bit_identical(&minf, 24);
}

#[test]
fn jit_matches_on_boundary_and_geometry_variety() {
    // Mixed constant boundaries, shrink masks, scalars, f64 outputs, deep
    // halos — the same torture program the fused tier pins.
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
    assert_eligible(&program);

    // One-dimensional domain: the native sweep degenerates to one row.
    let program = StencilProgramBuilder::new("jit1d", &[23])
        .input("a", DataType::Float32, &["i"])
        .stencil("s", "a[i-3] + a[i+2] * 0.5")
        .boundary("s", "a", BoundaryCondition::Constant(0.75))
        .shrink("s")
        .output("s")
        .build()
        .unwrap();
    assert_eligible(&program);
}

#[test]
fn stepped_programs_are_native_eligible() {
    // The stepped programs of the shared loop are native-eligible.
    assert_eligible(&jacobi3d(1, &[9, 8, 10], 1));
    assert_eligible(&jacobi2d(1, &[11, 9], 1));
    assert_eligible(&jacobi3d_typed(1, &[6, 7, 9], 1, DataType::Float64));

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
    assert_eligible(&coupled);
}

#[test]
fn f32_state_keeps_one_width_per_slot_and_store_across_a_window() {
    // The two places a native stage could meet two widths in one run,
    // each run over windows that split the steps and one that does not:
    // * `h` is read at its centre only, so at a window's first step its
    //   grid is read in place (`f64`) and at the later ones its output's
    //   ring: that ring stays `f64`, and `h_next` stores `double` only;
    // * `u_next` stores into its `f32` ring at a window's early steps and
    //   straight to its `f64` output slab at the last one: through two
    //   symbols, one per store width.
    let relax = StencilProgramBuilder::new("relax", &[7, 5, 13])
        .input("h", DataType::Float32, &["i", "j", "k"])
        .input("f", DataType::Float32, &["k"])
        .stencil("h_next", "0.5 * h[i,j,k] + f[k]")
        .output("h_next")
        .build()
        .unwrap();
    let smooth = StencilProgramBuilder::new("smooth", &[7, 5, 13])
        .input("u", DataType::Float32, &["i", "j", "k"])
        .stencil(
            "u_next",
            "0.25 * (u[i-1,j,k] + u[i+1,j,k]) + 0.5 * u[i,j,k]",
        )
        .output("u_next")
        .build()
        .unwrap();
    let source = |program| {
        let compiled = ReferenceExecutor::new().prepare(program).unwrap();
        compiled.jit_source().unwrap().to_string()
    };
    let relax_unit = source(&relax);
    assert!(relax_unit.contains("    double *sf_o = "), "{relax_unit}");
    assert!(!relax_unit.contains("float *sf_o"), "{relax_unit}");
    assert!(relax_unit.ends_with("\nSF_STAGE(sf_stage_0, sf_body_0)\n"));
    let smooth_unit = source(&smooth);
    for line in [
        "    float *sf_o = (float *)sf_out",
        "    double *sf_o = (double *)sf_out",
        "\nSF_STAGE(sf_stage_0, sf_body_0)\nSF_STAGE(sf_stage_0_d, sf_body_1)\n",
    ] {
        assert!(smooth_unit.contains(line), "no `{line}` in:\n{smooth_unit}");
    }
    for (program, seed) in [(relax, 71), (smooth, 72)] {
        let inputs = generate_inputs(&program, seed);
        let steps = 7;
        let baseline = interpret(&program, &inputs, Some(steps)).unwrap();
        for tier in TIERS {
            for window in [1, 3, 7] {
                let executor = ReferenceExecutor::new()
                    .with_fusion_window(window)
                    .with_fusion_tile_rows(2);
                let result = run_pinned(&executor, &program, &inputs, Some(steps), tier).unwrap();
                let label = format!("{tier} window={window}");
                assert_outputs_match(&program, &label, &result, &baseline);
            }
        }
    }
}

#[test]
fn the_jit_rung_takes_transposed_inputs_and_declines_boxed_and_integer_stages() {
    let executor = ReferenceExecutor::new();

    // A transposed input is copied into space order once per run: its
    // taps are strided reads of that copy like any other, native included.
    let transposed = StencilProgramBuilder::new("transposed", &[6, 8])
        .input("u", DataType::Float32, &["j", "i"])
        .stencil("s", "u[j,i-1] + u[j+1,i]")
        .output("s")
        .build()
        .unwrap();
    assert_eligible(&transposed);
    assert_tiers_bit_identical(&transposed, 74);

    // A boxed stage has no C form: `Tier::Jit` lands on the fused rung,
    // which sweeps it cell by cell, still bit-identical.
    let boxed = StencilProgramBuilder::new("boxed", &[6, 8])
        .input("n", DataType::Int32, &["i", "j"])
        .stencil("s", "n[i-1,j] * 3 + n[i,j+1]")
        .output_type("s", DataType::Int32)
        .output("s")
        .build()
        .unwrap();
    let compiled = executor.prepare(&boxed).unwrap();
    let trace = compiled.tier_trace();
    let stencil = "s".to_string();
    assert_eq!(trace.reason(), Some(&Ineligible::Untyped { stencil }));
    assert!(compiled.jit_source().is_none());
    assert_tiers_bit_identical(&boxed, 73);
    assert_rungs_match_interpreter(&boxed, &generate_inputs(&boxed, 73), None);

    // A typed stage with an int32 output keeps Tier-4 off too (the native
    // sweep stores raw doubles; only float outputs round-trip losslessly).
    let intout = StencilProgramBuilder::new("intout", &[6, 8])
        .input("a", DataType::Float32, &["i", "j"])
        .stencil("s", "a[i-1,j] + a[i+1,j]")
        .output_type("s", DataType::Int32)
        .output("s")
        .build()
        .unwrap();
    let compiled = executor.prepare(&intout).unwrap();
    let trace = compiled.tier_trace();
    let reason = trace.reason().unwrap();
    assert!(
        matches!(reason, Ineligible::NonFloatOutput { .. }),
        "{reason}"
    );
    assert!(reason.to_string().contains("not a float type"));
    assert_tiers_bit_identical(&intout, 75);

    // A select joining an f32 slot with the f64 literal specializes (the
    // join is typed at run time) and runs native; an integer literal arm
    // never specializes, so its stage is boxed and the JIT rung declines.
    let mixsel = |code: &str| {
        StencilProgramBuilder::new("mixsel", &[6, 8])
            .input("a", DataType::Float32, &["i", "j"])
            .stencil("s", code)
            .output("s")
            .build()
            .unwrap()
    };
    let mixed_width = mixsel("a[i,j] < 0.5 ? a[i,j] : 0.5");
    assert_eligible(&mixed_width);
    assert_tiers_bit_identical(&mixed_width, 76);
    let int_arm = mixsel("a[i,j] < 0.5 ? a[i,j] : 1");
    let compiled = executor.prepare(&int_arm).unwrap();
    let stencil = "s".to_string();
    assert_eq!(
        compiled.tier_trace().reason(),
        Some(&Ineligible::Untyped { stencil })
    );
    assert_tiers_bit_identical(&int_arm, 77);
}

#[test]
fn jit_reuses_modules_and_pool_in_steady_state() {
    // Same executor, same program: the second run must reuse the loaded
    // module (in-process map) and the pooled scratch buffers. The strict
    // zero-`cc`-invocation guarantee across *processes* is asserted by the
    // `jit_gate` binary under `verify.sh --assert-cached`.
    let program = jacobi3d(1, &[12, 10, 16], 1);
    let inputs = generate_inputs(&program, 91);
    let executor = ReferenceExecutor::new().with_fusion_window(2);
    let jit = || run_pinned(&executor, &program, &inputs, Some(6), Tier::Jit).unwrap();
    jit();
    let warm_misses = executor.pool_miss_count();
    assert!(warm_misses > 0, "the first run must populate the pool");
    for _ in 0..3 {
        jit();
    }
    assert_eq!(
        executor.pool_miss_count(),
        warm_misses,
        "steady-state jit stepping must reuse pooled buffers"
    );
    let stats = stencilflow_reference::jit_cache_stats().expect("engine initialized");
    assert!(
        stats.hits + stats.misses > 0,
        "jit runs must go through the code cache"
    );
}

#[test]
fn jit_parallel_tiling_matches_sequential() {
    // Over the parallel threshold, four planes per tick: two workers, each
    // streaming its chunk through wrapping rings.
    let program = jacobi3d(2, &[64, 32, 32], 1);
    let inputs = generate_inputs(&program, 101);
    let sequential = ReferenceExecutor::new()
        .with_max_threads(1)
        .with_fusion_tile_rows(4);
    let sequential = run_pinned(&sequential, &program, &inputs, None, Tier::Jit).unwrap();
    let parallel = ReferenceExecutor::new().with_fusion_tile_rows(4);
    let parallel = run_pinned(&parallel, &program, &inputs, None, Tier::Jit).unwrap();
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
fn jit_handles_explicit_values() {
    // Hand-checked values through the native path (not just equivalence).
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
    let result = run_pinned(&executor, &program, &inputs, None, Tier::Jit).unwrap();
    assert_eq!(result.field("s").unwrap().as_slice(), &[2.0, 4.0, 6.0, 3.0]);
}
