//! The FPGA path tiers up to native code by the ski-rental rule: a
//! program's simulations (and `Pipeline`'s validations) run at the fused
//! ceiling until its fused runs there have cost one native build, then at
//! the JIT ceiling without waiting for `cc`; every output, on either rung,
//! equals the interpreter's in bits.
//!
//! A test binary of its own on purpose: it owns the process-wide JIT
//! engine, an empty cache directory, and every tick of `jit_cache_stats()`,
//! which counts for the whole process.

use std::time::{Duration, Instant};

use stencilflow::dataflow::fuse_all;
use stencilflow::reference::{generate_inputs, jit_available, jit_cache_stats};
use stencilflow::reference::{ExecutionResult, Grid, ReferenceExecutor, RunSpec, Tier};
use stencilflow::workloads::{chain_program, listing1, ChainSpec};
use stencilflow::{AnalysisConfig, SimConfig, SimReport, Simulator, StencilProgram};

/// What the rule charges for one native build.
const BUILD_COST: Duration = Duration::from_millis(200);

/// The modules the engine has been asked for: its hits and misses.
fn requests() -> (u64, u64) {
    let stats = jit_cache_stats().expect("the engine is up");
    (stats.hits, stats.misses)
}

fn assert_same_bits(context: &str, ours: Option<&Grid>, theirs: &Grid) {
    let ours = ours.unwrap_or_else(|| panic!("{context}: missing"));
    assert_eq!(ours.shape(), theirs.shape(), "{context}");
    for (cell, (a, b)) in ours.as_slice().iter().zip(theirs.as_slice()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{context}, cell {cell}");
    }
}

/// A completed simulation whose every output equals the interpreter's.
fn assert_simulated(
    context: &str,
    program: &StencilProgram,
    report: &SimReport,
    want: &ExecutionResult,
) {
    assert!(report.completed(), "{context}");
    for output in program.outputs() {
        let theirs = want.field(output).unwrap();
        assert_same_bits(
            &format!("{context} `{output}`"),
            report.output(output),
            theirs,
        );
    }
}

/// An executor run whose every output equals the interpreter's, masks too.
fn assert_ran(
    context: &str,
    program: &StencilProgram,
    ours: &ExecutionResult,
    want: &ExecutionResult,
) {
    for output in program.outputs() {
        let context = format!("{context} `{output}`");
        assert_same_bits(&context, ours.field(output), want.field(output).unwrap());
        assert_eq!(
            ours.valid_mask(output),
            want.valid_mask(output),
            "{context}"
        );
    }
}

fn fused_design(program: &StencilProgram) -> (StencilProgram, Simulator) {
    let fused = fuse_all(program).unwrap();
    let analysis = AnalysisConfig::paper_defaults();
    let simulator = Simulator::build(&fused, &analysis, &SimConfig::default()).unwrap();
    (fused, simulator)
}

#[test]
fn a_program_tiers_up_once_its_fused_runs_have_cost_one_build() {
    let dir = std::env::temp_dir().join(format!("sf-sim-tier-up-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("SF_JIT_CACHE_DIR", &dir);
    jit_available().expect("system cc must be available for JIT tests");
    assert_eq!(requests(), (0, 0));
    let shared = ReferenceExecutor::shared();
    let interpreter = ReferenceExecutor::new();

    // Five simulations of listing 1 cost far less than a build: no module
    // is asked for.
    let (program, simulator) = fused_design(&listing1());
    let inputs = generate_inputs(&program, 3);
    let want = interpreter.run_interpreted(&program, &inputs).unwrap();
    for run in 0..5 {
        let report = simulator.run(&inputs).unwrap();
        assert_simulated(&format!("listing1 run {run}"), &program, &report, &want);
    }
    assert_eq!(requests(), (0, 0), "listing 1 stays fused");

    // `execute` pinned to the fused ceiling never tiers up, however long
    // it runs, and charges nothing to the FPGA path's rule.
    let chain = chain_program(&ChainSpec::new(32, 8).with_shape(&[64, 16, 16]));
    let (program, simulator) = fused_design(&chain);
    let inputs = generate_inputs(&program, 5);
    let want = interpreter.run_interpreted(&program, &inputs).unwrap();
    let compiled = shared.prepare(&program).unwrap();
    let pinned = |tier| RunSpec { steps: None, tier };
    let started = Instant::now();
    while started.elapsed() < BUILD_COST + BUILD_COST / 4 {
        let (result, tier) = shared
            .execute(&compiled, &inputs, &pinned(Tier::Fused))
            .unwrap();
        assert_eq!(tier, Tier::Fused);
        assert_ran("chain32 pinned fused", &program, &result, &want);
    }
    assert_eq!(requests(), (0, 0), "a pinned fused run asks for no module");

    // Simulate chain32 until its module is asked for: that takes at least
    // one build's worth of simulation, since each run costs more than the
    // fused sweep it takes its outputs from.
    let mut simulated = Duration::ZERO;
    let mut runs = 0;
    while requests() == (0, 0) {
        assert!(simulated < 100 * BUILD_COST, "no tier-up after {runs} runs");
        let start = Instant::now();
        let report = simulator.run(&inputs).unwrap();
        simulated += start.elapsed();
        assert_simulated(&format!("chain32 run {runs}"), &program, &report, &want);
        runs += 1;
    }
    assert!(
        simulated >= BUILD_COST,
        "asked for a module after {simulated:?} ({runs} runs)"
    );

    // Block on the module once; from then on the path runs native.
    let (result, tier) = shared
        .execute(&compiled, &inputs, &pinned(Tier::Jit))
        .unwrap();
    assert_eq!(tier, Tier::Jit);
    assert_ran("chain32 waited", &program, &result, &want);
    let landed = requests();
    assert_eq!(jit_cache_stats().unwrap().cc_invocations, 1);
    for run in 0..3 {
        let report = simulator.run(&inputs).unwrap();
        assert_simulated(
            &format!("chain32 native run {run}"),
            &program,
            &report,
            &want,
        );
        let (result, tier) = shared.run_tiered(&compiled, &inputs).unwrap();
        assert_eq!(
            tier,
            Tier::Jit,
            "the path runs native once the module landed"
        );
        assert_ran(
            &format!("chain32 tiered run {run}"),
            &program,
            &result,
            &want,
        );
    }
    assert_eq!(requests(), landed, "a landed module is not asked for again");
    assert_eq!(jit_cache_stats().unwrap().cc_invocations, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
