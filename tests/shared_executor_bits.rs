//! Programs of every shape and element type take turns on the process-wide
//! executor without one reaching into another's bits.
//!
//! `Pipeline` and both simulator builds prepare on
//! `ReferenceExecutor::shared()`, so its pools lend the buffers one
//! program released to the next, whatever their extents and widths, and
//! its cache holds each program unfused (what `Pipeline` validates on) and
//! fused (what the designs simulate). Every simulated output must still
//! equal the interpreter's on the fused program, cell for cell — the cells
//! the validity mask excludes included — and the shared executor's runs of
//! both programs must equal the interpreter's, masks included. That holds
//! on both rungs: a last round runs once every program has tiered up to
//! native code on the FPGA path.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use stencilflow::dataflow::fuse_all;
use stencilflow::reference::{generate_inputs, jit_available, ExecutionResult, Grid};
use stencilflow::reference::{ReferenceExecutor, RunSpec, Tier};
use stencilflow::workloads as wl;
use stencilflow::{AnalysisConfig, MultiDevicePlan, PartitionConfig, Pipeline, SimConfig};
use stencilflow::{Simulator, StencilProgram};

/// The seven programs of the `sim-pipeline` benchmark workload.
fn programs() -> Vec<StencilProgram> {
    vec![
        wl::horizontal_diffusion(&wl::HorizontalDiffusionSpec {
            shape: [16, 16, 16],
            vectorization: 1,
        }),
        wl::chain_program(&wl::ChainSpec::new(32, 8).with_shape(&[64, 16, 16])),
        wl::listing1(),
        wl::diffusion3d(1, &[16, 16, 16], 1),
        wl::jacobi3d(2, &[16, 16, 16], 1),
        wl::upwind3d(1, &[16, 16, 16], 1),
        wl::diffusion2d(2, &[32, 32], 1),
    ]
}

fn assert_same_bits(context: &str, ours: Option<&Grid>, theirs: &Grid) {
    let ours = ours.unwrap_or_else(|| panic!("{context}: missing"));
    assert_eq!(ours.shape(), theirs.shape(), "{context}");
    assert_eq!(ours.data_type(), theirs.data_type(), "{context}");
    for (cell, (a, b)) in ours.as_slice().iter().zip(theirs.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{context}, cell {cell}: {a:?} vs {b:?}"
        );
    }
}

/// `program` run on the shared executor equals `want`, the interpreter's
/// run: every output's bits and validity mask.
fn assert_shared_run(
    context: &str,
    program: &StencilProgram,
    inputs: &BTreeMap<String, Grid>,
    want: &ExecutionResult,
) {
    let ours = ReferenceExecutor::shared().run(program, inputs).unwrap();
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

/// A tiny seeded shuffle (SplitMix64 draws, Fisher-Yates), so the
/// interleaving is fixed from run to run.
fn shuffle(order: &mut [usize], mut state: u64) {
    for i in (1..order.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        order.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

/// Drive `program`'s runs on the FPGA path past one native build's cost,
/// its module landed: wait for the module once (`execute` at the JIT
/// ceiling), then run the path until a run takes the native rung.
fn land(program: &StencilProgram) {
    let shared = ReferenceExecutor::shared();
    let compiled = shared.prepare(program).unwrap();
    assert_eq!(compiled.tier_trace().reason(), None, "{}", program.name());
    let inputs = generate_inputs(program, 7);
    let spec = RunSpec {
        steps: None,
        tier: Tier::Jit,
    };
    let (_, tier) = shared.execute(&compiled, &inputs, &spec).unwrap();
    assert_eq!(tier, Tier::Jit, "{}", program.name());
    let started = Instant::now();
    while shared.run_tiered(&compiled, &inputs).unwrap().1 != Tier::Jit {
        let spent = started.elapsed();
        assert!(
            spent < Duration::from_secs(60),
            "{} never tiered up",
            program.name()
        );
    }
}

/// One job of `program` on the inputs of seed `100 + turn`: `Pipeline`,
/// then the single- and the multi-device design of the fused program (four
/// devices, or one per stencil if it has fewer), every simulated output
/// against the interpreter's on the fused program, and the shared
/// executor's runs of both programs against the interpreter's.
fn job(program: &StencilProgram, turn: usize) {
    let context = format!("{} turn {turn}", program.name());
    let inputs = generate_inputs(program, 100 + turn as u64);
    let analysis = AnalysisConfig::paper_defaults();
    let config = SimConfig::default();

    let pipeline = Pipeline::new(program.clone())
        .execute_with_inputs(&inputs)
        .unwrap();
    let fused = &pipeline.program;
    let single = Simulator::build(fused, &analysis, &config).unwrap();
    let devices = PartitionConfig::devices(fused.stencil_count().min(4));
    let plan = MultiDevicePlan::partition(fused, &devices).unwrap();
    let multi = Simulator::build_multi_device(fused, &analysis, &plan, &config).unwrap();

    let interpreter = ReferenceExecutor::new();
    let want = interpreter.run_interpreted(fused, &inputs).unwrap();
    let reports = [
        ("pipeline", pipeline.simulation),
        ("single", single.run(&inputs).unwrap()),
        ("multi", multi.run(&inputs).unwrap()),
    ];
    for (design, report) in &reports {
        assert!(report.completed(), "{context} {design}");
        assert_eq!(report.outputs.len(), fused.outputs().len());
        for output in fused.outputs() {
            let context = format!("{context} {design} `{output}`");
            let theirs = want.field(output).unwrap();
            assert_same_bits(&context, report.output(output), theirs);
        }
    }
    assert_shared_run(&format!("{context} fused"), fused, &inputs, &want);
    let unfused = interpreter.run_interpreted(program, &inputs).unwrap();
    assert_shared_run(&format!("{context} unfused"), program, &inputs, &unfused);
}

/// Each program twice, the fourteen jobs shuffled, each job on inputs of
/// its own seed (equal inputs would hide a stale buffer behind equal
/// values). Then every program, unfused and fused, is driven past the
/// FPGA path's tier-up point with its module landed, and one more round
/// runs the path native.
#[test]
fn programs_interleaved_on_the_shared_executor_keep_every_bit() {
    let programs = programs();
    let mut order: Vec<usize> = (0..2 * programs.len()).collect();
    shuffle(&mut order, 41);
    for (turn, &job_ix) in order.iter().enumerate() {
        job(&programs[job_ix % programs.len()], turn);
    }

    jit_available().expect("system cc must be available for JIT tests");
    for program in &programs {
        land(program);
        land(&fuse_all(program).unwrap());
    }
    for (ix, program) in programs.iter().enumerate() {
        job(program, order.len() + ix);
    }
}
